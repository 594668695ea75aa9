//! Determinism of the sharded pipeline: for any worker count, the study's
//! findings and rendered report must be bit-identical to the serial run.
//! This is the contract that lets `--jobs` exist at all — parallelism may
//! only change the wall clock, never a single figure.

use permadead::analysis::{soft404_probe, Dataset, Study, StudyOptions};
use permadead::net::{LiveStatus, RetryPolicy};
use permadead::sim::{Scenario, ScenarioConfig};
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::generate(ScenarioConfig::small(7)))
}

fn dataset() -> Dataset {
    let s = scenario();
    let category_size = s.wiki.permanently_dead_category().len();
    Dataset::alphabetical(&s.wiki, category_size * 6 / 10, 10_000, 42)
}

fn study_with_jobs(jobs: usize) -> Study {
    let s = scenario();
    Study::run_with(
        &s.web,
        &s.archive,
        &dataset(),
        s.config.study_time,
        StudyOptions::with_jobs(jobs),
    )
}

#[test]
fn findings_identical_across_worker_counts() {
    let serial = study_with_jobs(1);
    assert!(serial.len() > 50, "dataset too small to exercise sharding");
    for jobs in [2usize, 8] {
        let sharded = study_with_jobs(jobs);
        assert_eq!(
            serial.findings, sharded.findings,
            "findings diverged at jobs={jobs}"
        );
        assert_eq!(
            serial.stage_stats, sharded.stage_stats,
            "stage hit counts diverged at jobs={jobs}"
        );
    }
}

#[test]
fn rendered_report_identical_across_worker_counts() {
    let serial = study_with_jobs(1);
    let sharded = study_with_jobs(8);
    assert_eq!(serial.report(), sharded.report());
    assert_eq!(
        serial.report().render_comparison(),
        sharded.report().render_comparison()
    );
}

/// Attempt-0 bit-identity over the full sample. Two layers:
///
/// 1. Passing the default knobs *explicitly* (single attempt, no CDX
///    timeout) is the identity: findings AND stage counters — retry counts
///    and accumulated backoff sit inside `StageStats`' `PartialEq` — match
///    the default study exactly, with zero retries recorded.
/// 2. A retrying policy on this world spends real retries (rotted origins
///    fail with permanent connect-timeout/unavailable states), but those
///    failures are attempt-independent, so every retry ladder exhausts and
///    attempt 0's draw decides every verdict: findings stay bit-identical.
#[test]
fn explicit_single_policy_is_the_identity_and_retries_never_flip_rot_verdicts() {
    let s = scenario();
    let baseline = study_with_jobs(1);

    let explicit = Study::run_with(
        &s.web,
        &s.archive,
        &dataset(),
        s.config.study_time,
        StudyOptions::with_jobs(1)
            .with_retry(RetryPolicy::single())
            .with_cdx_timeout_ms(None),
    );
    assert_eq!(baseline.findings, explicit.findings);
    assert_eq!(baseline.stage_stats, explicit.stage_stats);
    assert!(explicit.report().retry_counts().is_zero());

    let retried = Study::run_with(
        &s.web,
        &s.archive,
        &dataset(),
        s.config.study_time,
        StudyOptions::with_jobs(1)
            .with_retry(RetryPolicy::standard(3, 0xA77))
            .with_cdx_timeout_ms(None),
    );
    assert_eq!(baseline.findings, retried.findings, "attempt 0 diverged");
    let counts = retried.report().retry_counts();
    assert!(counts.total() > 0, "permanently-failing origins must provoke retries");
    assert!(counts.exhausted > 0, "attempt-independent failures must exhaust the ladder");
}

/// The watch scheduler's jobs-independence contract, end to end over the
/// real simulated web: the same `(seed, scale, sample, days, cadence,
/// strikes)` must produce a bit-identical event timeline — per-day rows,
/// the raw transition log, and the rendered table — for every `--jobs`.
#[test]
fn watch_timeline_identical_across_worker_counts() {
    use permadead::analysis::live_check;
    use permadead::net::Duration;
    use permadead::sched::{run_days, Cadence, PolicySpec, Scheduler, SchedulerConfig};

    let s = scenario();
    let run = |jobs: usize| {
        let mut sched = Scheduler::new(SchedulerConfig {
            policy: PolicySpec::IabotStrikes {
                strikes: 3,
                min_span: Duration::days(2),
            },
            cadence: Cadence::Fixed { every: Duration::days(1) },
            host_budget_per_day: Some(8), // politeness deferrals must replay too
        });
        for entry in &dataset().entries {
            sched.watch_staggered(entry.url.clone(), s.config.study_time);
        }
        run_days(&mut sched, s.config.study_time, 7, jobs, |url, at| {
            live_check(&s.web, url, at).is_final_200()
        })
    };
    let serial = run(1);
    assert!(serial.links > 50, "dataset too small to exercise sharding");
    assert!(serial.totals.checks > 0);
    for jobs in [2usize, 8] {
        let sharded = run(jobs);
        assert_eq!(serial, sharded, "watch timeline diverged at jobs={jobs}");
        assert_eq!(
            serial.render("header"),
            sharded.render("header"),
            "rendered table diverged at jobs={jobs}"
        );
    }
}

/// The policy lab's jobs-independence contract: every detection policy's
/// 45-day timeline over every ground-truth fault profile — the transition
/// log, the per-day rows, and the derived scoreboard — must be
/// bit-identical across worker counts. The lab fates are pure functions of
/// `(profile, url, seed)`, so any divergence here is a scheduler-ordering
/// bug, not noise.
#[test]
fn policy_lab_timelines_identical_across_worker_counts() {
    use permadead::net::SimTime;
    use permadead::policy::lab::{profile_links, PROFILES};
    use permadead::sched::{score_policy, PolicySpec};

    let start = SimTime::from_ymd(2022, 3, 1);
    for profile in PROFILES {
        let links = profile_links(profile, 42);
        for spec in PolicySpec::all_default() {
            let serial = score_policy(spec, profile, &links, start, 45, 1, 42);
            assert!(serial.checks > 0, "{profile}/{spec} ran no checks");
            for jobs in [2usize, 8] {
                let sharded = score_policy(spec, profile, &links, start, 45, jobs, 42);
                assert_eq!(
                    serial, sharded,
                    "{profile}/{spec} scoreboard diverged at jobs={jobs}"
                );
            }
        }
    }
}

/// The multi-reactor serving contract over random traffic: `--reactors N`
/// may only change which thread owns a connection, never an answer. One
/// 1-reactor server and two 2-reactor servers (the `SO_REUSEPORT` group and
/// the accept hand-off fallback) over the same world receive the same
/// seeded random sequence — dataset URLs, unknown URLs, repeats and
/// `/batch` bodies in random order, one connection per request so both
/// reactors serve — and must return the identical status and body for
/// every request and land on the identical cache ledger.
#[test]
fn reactor_count_never_changes_answers_over_random_request_mixes() {
    use permadead::serve::{start, AuditService, CacheConfig, ServerConfig, ServerHandle};
    use permadead::sim::ScenarioConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    fn exchange(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("response head");
        (
            head.lines().next().unwrap_or("").to_string(),
            body.to_string(),
        )
    }
    fn encode(url: &str) -> String {
        url.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                    (b as char).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect()
    }
    let spawn = |reactors: usize, reuseport: bool| -> ServerHandle {
        let world = ScenarioConfig {
            rot_links: 40,
            ..ScenarioConfig::small(7)
        };
        let service = AuditService::new(world, CacheConfig::default());
        start(
            service,
            ServerConfig {
                workers: 2,
                reactors,
                reuseport,
                ..ServerConfig::default()
            },
        )
        .expect("server starts")
    };
    let servers = [spawn(1, true), spawn(2, true), spawn(2, false)];
    assert!(servers[1].reuseport_active() && !servers[2].reuseport_active());

    let mut pool = servers[0].service().sample_urls(16);
    assert!(pool.len() >= 8, "dataset too small to draw from");
    pool.extend((0..4).map(|i| format!("http://unknown-{i}.example.org/page/{i}")));
    for seed in [1u64, 7, 42, 1234] {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..40 {
            let request = if rng.gen_bool(0.25) {
                let body: String = (0..rng.gen_range(1..5usize))
                    .map(|_| format!("{}\n", pool[rng.gen_range(0..pool.len())]))
                    .collect();
                format!(
                    "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
            } else {
                let url = &pool[rng.gen_range(0..pool.len())];
                format!(
                    "GET /check?url={} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                    encode(url)
                )
            };
            let expected = exchange(servers[0].addr(), &request);
            assert!(expected.0.contains("200"), "{request:?} -> {expected:?}");
            for server in &servers[1..] {
                assert_eq!(
                    exchange(server.addr(), &request),
                    expected,
                    "seed {seed}: answer diverged with {} reactors (reuseport {})",
                    server.reactor_count(),
                    server.reuseport_active()
                );
            }
        }
    }
    let ledger = servers[0].service().cache_stats();
    assert!(
        ledger.hits > 0 && ledger.misses > 0,
        "mix must both hit and miss: {ledger:?}"
    );
    for server in &servers[1..] {
        assert_eq!(
            server.service().cache_stats(),
            ledger,
            "cache ledger diverged"
        );
    }
    for server in servers {
        server.shutdown();
    }
}

/// Regression pin for the soft-404 probe seed: shard workers must key the
/// probe's randomness on the link's *dataset index*, never on a
/// shard-relative position. Recomputing each probe serially from the
/// dataset index must reproduce what the 8-way run stored.
#[test]
fn soft404_seed_is_dataset_indexed() {
    let s = scenario();
    let ds = dataset();
    let sharded = study_with_jobs(8);
    let mut probed = 0;
    for (i, f) in sharded.findings.iter().enumerate() {
        if f.live.status == LiveStatus::Ok {
            // only links the soft-404 stage actually probed are comparable
            let expected = soft404_probe(&s.web, &ds.entries[i].url, s.config.study_time, i as u64);
            assert_eq!(f.soft404, expected, "soft-404 verdict diverged at index {i}");
            probed += 1;
        }
    }
    assert!(probed > 10, "too few probed links ({probed}) to pin the seed");
}

/// The rediscovery index contract: the sharded build is bit-identical for
/// every worker count — entries, title postings, and sketch postings — so
/// top-k retrieval and a full study with the rescue stage armed can never
/// depend on `--jobs`. This is what lets the worldcache serialize the index
/// into a deterministic snapshot.
#[test]
fn rescue_index_and_rescued_study_identical_across_worker_counts() {
    use permadead::rescue::{Fingerprint, RescueIndex, DEFAULT_TOP_K};

    let s = scenario();
    let serial = RescueIndex::build(&s.web, s.config.study_time, 1);
    assert!(serial.len() > 100, "index too small to exercise sharding");
    // probe retrieval with every 97th indexed page's own signature
    let fingerprints: Vec<Fingerprint> = serial
        .entries()
        .iter()
        .step_by(97)
        .map(|e| Fingerprint { title: e.title.clone(), sketch: e.sketch })
        .collect();
    for jobs in [2usize, 8] {
        let sharded = RescueIndex::build(&s.web, s.config.study_time, jobs);
        assert_eq!(serial, sharded, "index diverged at jobs={jobs}");
        for fp in &fingerprints {
            assert_eq!(
                serial.query(fp, DEFAULT_TOP_K),
                sharded.query(fp, DEFAULT_TOP_K),
                "top-k retrieval diverged at jobs={jobs}"
            );
        }
    }

    let index = std::sync::Arc::new(serial);
    let run = |jobs: usize| {
        Study::run_with(
            &s.web,
            &s.archive,
            &dataset(),
            s.config.study_time,
            StudyOptions::with_jobs(jobs).with_rescue(Some(index.clone())),
        )
    };
    let base = run(1);
    assert!(
        base.stage_stats.iter().any(|st| st.name == "rediscovery" && st.hits > 0),
        "rediscovery stage never searched — the gate is broken"
    );
    for jobs in [2usize, 8] {
        let sharded = run(jobs);
        assert_eq!(base.findings, sharded.findings, "rescued findings diverged at jobs={jobs}");
        assert_eq!(base.stage_stats, sharded.stage_stats);
    }
}
