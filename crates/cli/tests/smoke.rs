//! End-to-end smoke tests of the `permadead` binary: the commands a user
//! would actually type, run against a small world.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_permadead"))
}

#[test]
fn help_lists_commands() {
    let out = bin().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["audit", "figures", "forensics", "bots", "recommend", "serve", "watch"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn unknown_flag_fails_fast() {
    let out = bin().args(["audit", "--sed", "7"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn serve_rejects_unknown_flag_before_binding() {
    // a typo'd flag must fail fast, not start a server with defaults
    let out = bin()
        .args(["serve", "--cache-capp", "16"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "stderr: {err}");
    assert!(err.contains("--cache-capp"), "stderr: {err}");
}

#[test]
fn watch_rejects_unknown_flag_before_world_generation() {
    let out = bin()
        .args(["watch", "--cadense", "fixed:1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "stderr: {err}");
    assert!(err.contains("--cadense"), "stderr: {err}");
    assert!(
        !err.contains("generating world"),
        "flag validation must precede world generation: {err}"
    );
}

#[test]
fn watch_rejects_a_bad_cadence_spec_fast() {
    let out = bin()
        .args(["watch", "--cadence", "hourly"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown cadence"), "stderr: {err}");
    assert!(!err.contains("generating world"), "stderr: {err}");
}

#[test]
fn watch_rejects_bad_policy_flags_before_world_generation() {
    // unknown policy name: the error lists the available policies
    let out = bin()
        .args(["watch", "--policy", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown policy"), "stderr: {err}");
    assert!(err.contains("iabot-strikes"), "error must list policies: {err}");
    assert!(err.contains("pywikibot-weekly"), "error must list policies: {err}");
    assert!(err.contains("health-score"), "error must list policies: {err}");
    assert!(!err.contains("generating world"), "stderr: {err}");

    // degenerate policy parameters are rejected, not clamped
    for degenerate in [
        &["watch", "--strikes", "0"][..],
        &["watch", "--min-span-days", "0"][..],
        &["watch", "--policy", "iabot-strikes:0"][..],
        &["watch", "--policy", "health-score:0"][..],
    ] {
        let out = bin().args(degenerate).output().expect("binary runs");
        assert!(!out.status.success(), "{degenerate:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(">= 1"), "{degenerate:?} stderr: {err}");
        assert!(!err.contains("generating world"), "{degenerate:?} stderr: {err}");
    }

    // the two spellings conflict instead of silently shadowing
    let out = bin()
        .args(["watch", "--policy", "health-score", "--strikes", "4"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("conflicts"), "stderr: {err}");
    assert!(!err.contains("generating world"), "stderr: {err}");

    // serve validates the same way, before binding or world generation
    let out = bin()
        .args(["serve", "--policy", "bogus", "--port", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown policy"), "stderr: {err}");
    assert!(!err.contains("generating world"), "stderr: {err}");
}

#[test]
fn watch_runs_under_each_alternative_policy() {
    for (spec, needle) in [
        ("pywikibot-weekly:2,7", "dead x2 >= 7d apart"),
        ("health-score:1", "health score, base 1d"),
    ] {
        let out = bin()
            .args(["watch", "--seed", "3", "--days", "3", "--policy", spec])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(needle), "header must carry the policy: {text}");
    }
}

#[test]
fn watch_prints_a_per_day_timeline() {
    let out = bin()
        .args(["watch", "--seed", "3", "--days", "4", "--jobs", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("permadead watch —"), "{text}");
    assert!(text.contains("tagged-total"), "{text}");
    assert_eq!(
        text.lines().filter(|l| l.starts_with("    ")).count(),
        4,
        "one row per simulated day:\n{text}"
    );
    assert!(text.contains("final:"), "{text}");
}

#[test]
fn audit_produces_report_and_exports() {
    let dir = std::env::temp_dir().join("permadead-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("findings.csv");
    let cdx = dir.join("archive.cdx");
    let out = bin()
        .args([
            "audit",
            "--seed",
            "3",
            "--csv",
            csv.to_str().unwrap(),
            "--cdx",
            cdx.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 4"));
    assert!(text.contains("paper"));
    assert!(text.contains("measurement cost"));

    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.lines().count() > 100, "CSV too small");
    assert!(csv_text.starts_with("url,article,"));

    let cdx_text = std::fs::read_to_string(&cdx).unwrap();
    assert!(cdx_text.lines().count() > 1000, "CDX too small");
    // and the dump parses back
    let store = permadead_archive::from_cdx_string(&cdx_text).expect("CDX parses");
    assert_eq!(store.len(), cdx_text.lines().count());
}

#[test]
fn audit_world_cache_miss_then_hit_prints_the_same_report() {
    let dir = std::env::temp_dir().join(format!("permadead-cli-worldcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        bin()
            .args(["audit", "--seed", "3", "--world-cache", dir.to_str().unwrap()])
            .output()
            .expect("binary runs")
    };
    let first = run();
    assert!(first.status.success(), "stderr: {}", String::from_utf8_lossy(&first.stderr));
    let err1 = String::from_utf8_lossy(&first.stderr);
    assert!(err1.contains("world cache miss"), "first run must miss: {err1}");

    let second = run();
    assert!(second.status.success(), "stderr: {}", String::from_utf8_lossy(&second.stderr));
    let err2 = String::from_utf8_lossy(&second.stderr);
    assert!(err2.contains("world cache hit"), "second run must hit: {err2}");
    // drop the per-stage wall-clock latency rows — real time, never
    // run-to-run stable — and require everything else byte-identical
    let findings_only = |out: &[u8]| {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| !l.contains(" hits "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        findings_only(&first.stdout),
        findings_only(&second.stdout),
        "a snapshot-backed audit must print the generated audit's exact report"
    );
    // and without --world-cache at all: the in-memory lowered world prints
    // the snapshot-backed report too
    let uncached = bin().args(["audit", "--seed", "3"]).output().expect("binary runs");
    assert!(uncached.status.success(), "stderr: {}", String::from_utf8_lossy(&uncached.stderr));
    assert!(!String::from_utf8_lossy(&uncached.stderr).contains("world cache"));
    assert_eq!(
        findings_only(&uncached.stdout),
        findings_only(&second.stdout),
        "an uncached audit must print the snapshot-backed audit's exact report"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recommend_prints_worklist() {
    let out = bin()
        .args(["recommend", "--seed", "3", "--limit", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("actionable recommendations"));
    assert!(text.contains("patch-200"));
}
