//! Pinned-seed golden: for seed 42, the snapshot round-trip —
//! generate → lower → save → load → audit — must reproduce the direct
//! generate → audit study bit for bit, and the incremental engine over the
//! loaded world must maintain that same report through a full re-audit.

use permadead_core::{Dataset, IncrementalAudit, Study, StudyOptions};
use permadead_serve::world_from_scenario;
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_text::gen::fnv1a;
use permadead_worldstore::World;

#[test]
fn pinned_seed_snapshot_round_trip_reproduces_the_generated_audit() {
    let cfg = ScenarioConfig { rot_links: 400, ..ScenarioConfig::small(42) };
    let scenario = Scenario::generate(cfg.clone());

    // the direct path: generate → audit
    let march = Dataset::march(&scenario.wiki, cfg.sample_size, cfg.seed);
    let direct = Study::run_with(
        &scenario.web,
        &scenario.archive,
        &march,
        cfg.study_time,
        StudyOptions::default(),
    );

    // the snapshot path: lower → save → load → audit
    let dir = std::env::temp_dir().join(format!("pdw-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.pdw");
    world_from_scenario(scenario, "small").save(&path).unwrap();
    let world = World::load(&path).unwrap();
    assert_eq!(world.meta.seed, 42);

    let decoded = Dataset::from_table(&world.march, &world.interner);
    assert_eq!(march.entries, decoded.entries, "the march dataset survives the table codec");
    let loaded = Study::run_with(
        &world.web,
        &world.archive,
        &decoded,
        world.meta.study_time,
        StudyOptions::default(),
    );
    assert_eq!(direct.findings, loaded.findings, "per-link findings are bit-identical");
    assert_eq!(direct.report(), loaded.report());

    // and the incremental engine over the loaded world: the maintained
    // report equals the direct study's, and stays equal through a full
    // re-audit of every link at the same clock (which changes nothing)
    let mut audit = IncrementalAudit::build(
        &world.web,
        &world.archive,
        &decoded,
        world.meta.study_time,
        StudyOptions::default(),
    );
    assert_eq!(audit.report(), direct.report());
    let all: Vec<usize> = (0..decoded.len()).collect();
    let outcome = audit.reaudit_indices(&world.web, &world.archive, &all, world.meta.study_time);
    assert_eq!(outcome.reaudited, decoded.len());
    assert_eq!(outcome.changed, 0, "an unchanged world re-audits to the same verdicts");
    assert_eq!(audit.report(), direct.report());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a of the generated seed-42 world's snapshot bytes. The round trip
/// above only proves save/load is lossless; this pins what generation
/// itself produces — every archived sketch, title and rescue entry — so a
/// change to the shingling kernel, the capture replay or the index build
/// that alters a single byte fails here.
const SEED42_WORLD_FNV1A: u64 = 0x6fefb7dcb19cf37e;

/// FNV-1a over the same world's replay output: every article's revisions
/// (time, user, summary, text) in title order, then the `Debug` of the
/// per-sweep bot reports. The snapshot above does not carry revision text,
/// and a patched reference's `archive-url` is chosen through the link's
/// `added_at`, so this pins what the bot sweeps write.
const SEED42_REPLAY_FNV1A: u64 = 0x39f8f9229a085e0c;

/// The bytes [`SEED42_REPLAY_FNV1A`] hashes. Every field is closed by a
/// 0x00 byte so neighbouring fields cannot run together.
fn replay_bytes(scenario: &Scenario) -> Vec<u8> {
    let mut out = Vec::new();
    for article in scenario.wiki.articles() {
        out.extend_from_slice(article.title.as_bytes());
        out.push(0);
        for rev in article.revisions() {
            out.extend_from_slice(&rev.time.0.to_le_bytes());
            for field in [&rev.user.name, &rev.summary, &rev.text] {
                out.extend_from_slice(field.as_bytes());
                out.push(0);
            }
        }
    }
    out.extend_from_slice(format!("{:?}", scenario.bot_reports).as_bytes());
    out
}

#[test]
fn pinned_seed_generated_world_bytes_are_stable() {
    let cfg = ScenarioConfig { rot_links: 400, ..ScenarioConfig::small(42) };
    let scenario = Scenario::generate(cfg);
    let replay = fnv1a(&replay_bytes(&scenario));
    assert_eq!(
        replay, SEED42_REPLAY_FNV1A,
        "seed-42 replay drifted (fnv1a {replay:#018x})"
    );
    let bytes = world_from_scenario(scenario, "small").to_bytes();
    assert_eq!(
        fnv1a(&bytes),
        SEED42_WORLD_FNV1A,
        "generated seed-42 world drifted ({} bytes, fnv1a {:#018x})",
        bytes.len(),
        fnv1a(&bytes)
    );
}
