//! One benchmark session, phase by phase: set-up, snapshot, study, warm
//! start, serving. Each phase returns what it measured; [`run`] turns that
//! into the end-to-end and per-layer metrics.

use crate::http::{self, NullResponder, Scrape};
use crate::load::{self, Draw, Pace, Planned, Target};
use crate::stats::{self, median, StepSummary};
use crate::trace::Tracer;
use crate::{
    affinity, Checks, Metrics, Traffic, Workload, CONNECTIONS, HEAD, SETUP_REPS, STANDING_WATCH,
    STEPS, STUDY_REPS, VERIFY_EVERY, WARM_REPS, WATCH_BATCH, WATCH_POOL, ZIPF_ALPHA,
};
use permadead_core::{Dataset, IncrementalAudit, LinkFinding, Study, StudyOptions, StudyReport};
use permadead_serve::json::Object;
use permadead_serve::{
    start, world_from_scenario, AuditService, CacheConfig, ServerConfig, ServerHandle,
};
use permadead_sim::{Scenario, ScenarioConfig};
use permadead_worldstore::{Interner, World, WorldMeta};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one session measured and checked.
pub struct Outcome {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub checks: Checks,
    pub attempted: usize,
    pub failed: usize,
}

pub fn run(wl: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let tracer = Tracer::new(trace, epoch);
    let mut checks = Checks::default();
    let out_dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let snapshot = out_dir.join(format!("world-{}-{}.pdw", wl.name, std::process::id()));
    let cfg = ScenarioConfig::small(seed);

    eprintln!("[perfbench] {} seed {seed}: set-up x{SETUP_REPS}", wl.name);
    let setup = set_up(&cfg, &tracer, &mut checks);
    let (snapshot_bytes, loaded) = save_and_reload(setup.world, &snapshot, &tracer, &mut checks)?;
    eprintln!("[perfbench] study x{STUDY_REPS}");
    let study = study(wl, loaded, seed, &tracer, &mut checks);
    eprintln!("[perfbench] warm start x{WARM_REPS}");
    let server = warm_starts(wl, &snapshot, &tracer);
    let _ = std::fs::remove_file(&snapshot);
    let server = server?;
    eprintln!(
        "[perfbench] serving {} steps of {:.2}s",
        STEPS.len(),
        seconds / STEPS.len() as f64
    );
    let served = serve(
        wl,
        &server,
        &study,
        seconds,
        seed,
        epoch,
        &tracer,
        &mut checks,
    );
    server.handle.shutdown();
    let served = served?;

    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&setup.secs), "s");
    e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
    e2e.put(
        "max_rate_rps",
        stats::max_rate(&served.steps, wl.limit_ms),
        "1/s",
    );
    let ok = served.attempted - served.failed.min(served.attempted);
    e2e.put(
        "ok_ratio",
        ok as f64 / served.attempted.max(1) as f64,
        "ratio",
    );
    e2e.put("rechecks_per_s", served.rechecks_per_s, "1/s");

    let mut layer = Metrics::default();
    layer.put("core.study_s", median(&study.secs), "s");
    layer.put("serve.warm_start_s", median(&server.warm_secs), "s");
    for (k, s) in served.steps.iter().enumerate() {
        layer.put(format!("client.p50_ms.{}", STEPS[k]), s.p50_ms, "ms");
        layer.put(format!("client.p99_ms.{}", STEPS[k]), s.tail_ms, "ms");
    }
    span_metrics(&mut layer, &tracer, &study, &served);
    layer.put("simgen.captures", setup.captures as f64, "count");
    layer.put("simgen.sweeps", cfg.sweeps.len() as f64, "count");
    layer.put("worldstore.snapshot_bytes", snapshot_bytes as f64, "bytes");
    serve_metrics(&mut layer, wl, &served);
    layer.put("trace.spans", tracer.len() as f64, "count");

    if tracer.on() {
        let path = out_dir.join(format!("trace-{}.jsonl", wl.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "[perfbench] wrote {} spans to {}",
            tracer.len(),
            path.display()
        );
    }
    Ok(Outcome {
        e2e,
        layer,
        checks,
        attempted: served.attempted,
        failed: served.failed,
    })
}

struct SetUp {
    world: World,
    secs: Vec<f64>,
    captures: usize,
}

/// Generate and lower the world [`SETUP_REPS`] times. Traced runs lower the
/// first set-up through `world_from_scenario` and the others through
/// [`lower_traced`], and check that both give the same snapshot bytes.
fn set_up(cfg: &ScenarioConfig, tracer: &Tracer, checks: &mut Checks) -> SetUp {
    let mut secs = Vec::new();
    let mut captures = 0;
    let mut first_bytes = None;
    let mut world = None;
    for rep in 0..SETUP_REPS {
        drop(world.take());
        let (w, s) = tracer.span("setup", || {
            if tracer.on() {
                let g = tracer.span("simgen.build", || permadead_sim::build(cfg));
                captures = g.captures.len();
            }
            let t0 = Instant::now();
            let scenario = tracer.span("simgen.generate", || Scenario::generate(cfg.clone()));
            let w = tracer.span("worldstore.lower", || {
                if tracer.on() && rep > 0 {
                    lower_traced(scenario, tracer)
                } else {
                    world_from_scenario(scenario, "small")
                }
            });
            (w, t0.elapsed().as_secs_f64())
        });
        eprintln!("[perfbench]   set-up {rep}: {s:.3}s");
        secs.push(s);
        if tracer.on() && (rep == 0 || rep == SETUP_REPS - 1) {
            let bytes = w.to_bytes();
            match &first_bytes {
                None => first_bytes = Some(bytes),
                Some(first) => checks.expect(*first == bytes, || {
                    "traced lowering differs from world_from_scenario".into()
                }),
            }
        }
        world = Some(w);
    }
    SetUp {
        world: world.expect("at least one set-up"),
        secs,
        captures,
    }
}

/// `world_from_scenario`, call for call, with a span around the rescue
/// index build so its cost shows apart from the rest of the lowering.
fn lower_traced(scenario: Scenario, tracer: &Tracer) -> World {
    let category = scenario.wiki.permanently_dead_category().len();
    let march = Dataset::alphabetical(
        &scenario.wiki,
        (category * 6 / 10).max(1),
        scenario.config.sample_size,
        scenario.config.seed ^ 0xA1,
    );
    let september = Dataset::random(
        &scenario.wiki,
        scenario.config.sample_size,
        scenario.config.seed ^ 0xB2,
    );
    let all = Dataset::random(&scenario.wiki, usize::MAX, 0);
    let mut interner = Interner::new();
    let march = march.to_table(&mut interner);
    let september = september.to_table(&mut interner);
    let all = all.to_table(&mut interner);
    let meta = WorldMeta {
        seed: scenario.config.seed,
        scale: "small".to_string(),
        rot_links: scenario.config.rot_links as u32,
        sample_size: scenario.config.sample_size as u32,
        study_time: scenario.config.study_time,
        random_sample_time: scenario.config.random_sample_time,
        content_seed: scenario.config.seed ^ 0xC0FFEE,
    };
    let rescue = tracer.span("rescue.build", || {
        permadead_rescue::RescueIndex::build(
            &scenario.web,
            scenario.config.study_time,
            affinity::cores(),
        )
    });
    World::assemble(
        meta,
        scenario.web,
        scenario.archive,
        interner,
        march,
        september,
        all,
    )
    .with_rescue(rescue)
}

fn march_of(world: &World) -> Dataset {
    Dataset::from_table(&world.march, &world.interner)
}

/// Save the generated world, load it back, and check the round trip.
/// Returns the snapshot size and the loaded world.
fn save_and_reload(
    generated: World,
    snapshot: &Path,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<(u64, World), String> {
    let generated_report = Study::run_with(
        &generated.web,
        &generated.archive,
        &march_of(&generated),
        generated.meta.study_time,
        StudyOptions::default(),
    )
    .report();
    let bytes = tracer
        .span("worldstore.save", || generated.save(snapshot))
        .map_err(|e| format!("saving the world snapshot: {e}"))?;
    let loaded = tracer
        .span("worldstore.load", || World::load(snapshot))
        .map_err(|e| format!("loading the world snapshot: {e}"))?;
    checks.expect(loaded.rescue == generated.rescue, || {
        "rescue index changed across save/load".into()
    });
    checks.expect(loaded.rescue.is_some(), || {
        "snapshot carries no rescue index".into()
    });
    let loaded_report = Study::run_with(
        &loaded.web,
        &loaded.archive,
        &march_of(&loaded),
        loaded.meta.study_time,
        StudyOptions::default(),
    )
    .report();
    checks.expect(loaded_report == generated_report, || {
        "loaded world's March report differs from the generated world's".into()
    });
    Ok((bytes, loaded))
}

/// Stage stats summed over several runs: `(nanos, hits)` per stage name,
/// plus the links all those runs analysed.
#[derive(Default)]
struct StageTotals {
    by_stage: BTreeMap<String, (f64, f64)>,
    links: f64,
    /// Repetitions summed; hits are reported per repetition.
    passes: usize,
}

impl StageTotals {
    fn add_study(&mut self, s: &Study) {
        for st in &s.stage_stats {
            let e = self.by_stage.entry(st.name.to_string()).or_default();
            e.0 += st.nanos as f64;
            e.1 += st.hits as f64;
        }
        self.links += s.len() as f64;
    }

    fn put(&self, layer: &mut Metrics, family: &str, names: &[String]) {
        for name in names {
            let (nanos, hits) = self.by_stage.get(name).copied().unwrap_or_default();
            let per_link = if self.links > 0.0 {
                nanos / self.links
            } else {
                0.0
            };
            layer.put(format!("{family}.{name}.ns_per_link"), per_link, "ns");
            layer.put(
                format!("{family}.{name}.hits"),
                hits / self.passes.max(1) as f64,
                "count",
            );
        }
    }
}

/// What the study phase leaves for serving: its measurements, the batch
/// verdicts `/check` answers are checked against, and the URL universe.
struct StudyPhase {
    secs: Vec<f64>,
    totals: StageTotals,
    stage_names: Vec<String>,
    reaudited: usize,
    /// Dataset URL → the body fragments its `/check` answer must carry.
    expected: HashMap<String, Vec<String>>,
    report: StudyReport,
    /// The March dataset, in dataset order.
    dataset: Vec<Target>,
    /// Every URL the world knows, in seeded order.
    unique: Vec<Target>,
    dataset_urls: HashSet<String>,
}

/// The paper's analyses over the loaded world, [`STUDY_REPS`] times.
fn study(
    wl: &Workload,
    mut loaded: World,
    seed: u64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> StudyPhase {
    let rescue = loaded.rescue.take().map(Arc::new);
    let march = march_of(&loaded);
    let september = Dataset::from_table(&loaded.september, &loaded.interner);
    let (web, archive, study_time) = (&loaded.web, &loaded.archive, loaded.meta.study_time);
    let mut secs = Vec::new();
    let mut totals = StageTotals::default();
    let mut reference = None;
    let mut reaudited = 0;
    for rep in 0..STUDY_REPS {
        let t0 = Instant::now();
        let (plain, sept, armed, inc_report, outcome) = tracer.span("core.study", || {
            let plain = tracer.span("core.study.march", || {
                Study::run_with(web, archive, &march, study_time, StudyOptions::default())
            });
            let sept = tracer.span("core.study.september", || {
                let at = loaded.meta.random_sample_time;
                Study::run_with(web, archive, &september, at, StudyOptions::default())
            });
            let armed = tracer.span("core.study.march_rescue", || {
                let options = StudyOptions::default().with_rescue(rescue.clone());
                Study::run_with(web, archive, &march, study_time, options)
            });
            let mut inc = tracer.span("core.incremental.build", || {
                IncrementalAudit::build(web, archive, &march, study_time, StudyOptions::default())
            });
            let every: Vec<usize> = (0..inc.len()).collect();
            let outcome = tracer.span("core.incremental.reaudit", || {
                inc.reaudit_indices(web, archive, &every, study_time)
            });
            (plain, sept, armed, inc.report(), outcome)
        });
        let s = t0.elapsed().as_secs_f64();
        eprintln!("[perfbench]   study {rep}: {s:.3}s");
        secs.push(s);
        for s in [&plain, &sept, &armed] {
            totals.add_study(s);
        }
        totals.passes += 1;
        reaudited = outcome.reaudited;
        if rep == 0 {
            checks.expect(inc_report == plain.report(), || {
                "IncrementalAudit::report() differs from the batch March report".into()
            });
            checks.expect(
                outcome.reaudited == march.len() && outcome.changed == 0,
                || {
                    format!(
                        "re-auditing every link at study time changed {} of {}",
                        outcome.changed, outcome.reaudited
                    )
                },
            );
            reference = Some(if wl.rediscovery { armed } else { plain });
        }
    }
    let reference = reference.expect("at least one study");
    let expected = reference
        .findings
        .iter()
        .enumerate()
        .map(|(i, f)| {
            (
                f.entry.url.to_string(),
                expected_fragments(i, f, wl.rediscovery),
            )
        })
        .collect();

    let dataset_urls: HashSet<String> = march.entries.iter().map(|e| e.url.to_string()).collect();
    let target = |url: String| Target {
        rank: permadead_url::Url::parse(&url).map_or(u32::MAX, |u| web.ranks.rank(u.host())),
        in_dataset: dataset_urls.contains(&url),
        url,
    };
    let dataset = march
        .entries
        .iter()
        .map(|e| target(e.url.to_string()))
        .collect();
    let mut everything: Vec<String> = Dataset::from_table(&loaded.all_tagged, &loaded.interner)
        .entries
        .iter()
        .map(|e| e.url.to_string())
        .chain(
            rescue
                .iter()
                .flat_map(|r| r.entries().iter().map(|e| e.url.clone())),
        )
        .collect();
    everything.sort();
    everything.dedup();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in (1..everything.len()).rev() {
        everything.swap(i, rng.gen_range(0..=i));
    }
    let unique = everything.into_iter().map(target).collect();
    StudyPhase {
        secs,
        stage_names: reference
            .stage_stats
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
        totals,
        reaudited,
        expected,
        report: reference.report(),
        dataset,
        unique,
        dataset_urls,
    }
}

/// The `/check` body fragments a dataset URL's answer must carry, rendered
/// from the batch study's finding at dataset index `index`.
fn expected_fragments(index: usize, f: &LinkFinding, with_rediscovery: bool) -> Vec<String> {
    let pair = |key: &str, value: &str| {
        let s = Object::new().str(key, value).render();
        s[1..s.len() - 1].to_string()
    };
    let verdict = if f.genuinely_alive() {
        "alive"
    } else {
        "permanently-dead"
    };
    let rediscovery = match (with_rediscovery, &f.rediscovery) {
        (true, Some(_)) => "\"rediscovery\":{",
        _ => "\"rediscovery\":null",
    };
    vec![
        pair("verdict", verdict),
        pair("live_status", &f.live.status.to_string()),
        pair("soft404", &format!("{:?}", f.soft404)),
        pair("archival", &format!("{:?}", f.archival)),
        format!("\"dataset_index\":{index}"),
        rediscovery.to_string(),
    ]
}

struct Server {
    handle: ServerHandle,
    /// Just before `start`: the watch clock ticks once per whole second
    /// from here.
    started: Instant,
    warm_secs: Vec<f64>,
}

/// Load the snapshot and start a server over it, [`WARM_REPS`] times; the
/// last server is kept.
fn warm_starts(wl: &Workload, snapshot: &Path, tracer: &Tracer) -> Result<Server, String> {
    let config = ServerConfig {
        workers: affinity::cores(),
        ..ServerConfig::default()
    };
    let mut warm_secs = Vec::new();
    let mut kept: Option<(ServerHandle, Instant)> = None;
    for _ in 0..WARM_REPS {
        if let Some((h, _)) = kept.take() {
            h.shutdown();
        }
        let t0 = Instant::now();
        let started = tracer.span("warm_start", || -> Result<_, String> {
            let mut world = tracer
                .span("worldstore.load", || World::load(snapshot))
                .map_err(|e| format!("warm load: {e}"))?;
            let index = world.rescue.take().map(Arc::new);
            let service = tracer.span("serve.from_world", || {
                AuditService::from_world(world, CacheConfig::default())
            });
            let service = if wl.rediscovery {
                service.with_rescue(index)
            } else {
                service
            };
            let started = Instant::now();
            let handle = tracer
                .span("serve.start", || {
                    affinity::off_generator_core(|| start(service, config.clone()))
                })
                .map_err(|e| format!("server start: {e}"))?;
            Ok((handle, started))
        })?;
        let s = t0.elapsed().as_secs_f64();
        eprintln!("[perfbench]   warm start: {s:.3}s");
        warm_secs.push(s);
        kept = Some(started);
    }
    let (handle, started) = kept.expect("at least one warm start");
    Ok(Server {
        handle,
        started,
        warm_secs,
    })
}

/// What the serving phase measured.
struct Served {
    steps: Vec<StepSummary>,
    /// `/metrics` growth over the steps, and since just after start-up.
    ladder: Scrape,
    session: Scrape,
    /// Response times (send → last byte) of the successful requests, ms.
    resp_ms: Vec<f64>,
    connects_ns: Vec<u64>,
    ttfb_ns: Vec<u64>,
    missed_slots: usize,
    null_tails: Vec<f64>,
    trace_overhead_us: f64,
    attempted: usize,
    failed: usize,
    rechecks_per_s: f64,
    watchlist: usize,
}

/// `GET /report`, the standing watchlist, the cache warm-up, then the
/// three rate steps with `/metrics` scraped around each.
#[allow(clippy::too_many_arguments)]
fn serve(
    wl: &Workload,
    server: &Server,
    study: &StudyPhase,
    seconds: f64,
    seed: u64,
    epoch: Instant,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<Served, String> {
    let handle = &server.handle;
    let addr = handle.addr();
    let scrape = || Scrape::take(addr).map_err(|e| format!("scrape: {e}"));
    // GET /report builds the server's incremental engine (lazy set-up kept
    // out of the steps) and must agree with the batch study
    let report_body = http::get(addr, "/report").map_err(|e| format!("GET /report: {e}"))?;
    let r = &study.report;
    for (key, value) in [
        ("n", r.n),
        ("final_200", r.final_200),
        ("genuinely_alive", r.genuinely_alive),
        ("never_archived", r.never_archived),
        ("rediscovery_rescued", r.rediscovery_rescued),
    ] {
        let frag = format!("\"{key}\":{value}");
        let found = [",", "}"]
            .iter()
            .any(|end| report_body.contains(&format!("{frag}{end}")));
        checks.expect(found, || {
            format!("GET /report lacks {frag} of the batch study: {report_body}")
        });
    }
    let standing: Vec<&str> = study
        .dataset
        .iter()
        .take(STANDING_WATCH)
        .map(|t| t.url.as_str())
        .collect();
    let status = http::post(addr, "/watch", &standing.join("\n"))
        .map_err(|e| format!("POST /watch: {e}"))?;
    checks.expect(status == 200, || {
        format!("standing POST /watch answered {status}")
    });
    let scrape_start = scrape()?;

    let head: Vec<Target> = handle
        .service()
        .ranked_urls(HEAD)
        .into_iter()
        .map(|(url, rank)| Target {
            in_dataset: study.dataset_urls.contains(&url),
            url,
            rank,
        })
        .collect();
    let pace = Pace {
        conns: CONNECTIONS,
        own_core: affinity::generator_core(),
    };
    if wl.traffic == Traffic::Head {
        let warm: Vec<Planned> = head
            .iter()
            .enumerate()
            .map(|(i, t)| Planned {
                due_ns: i as u64 * 200_000,
                bytes: load::check_request(&t.url),
                verify: None,
            })
            .collect();
        let fired = load::fire(addr, &warm, Pace { conns: 1, ..pace }, false, epoch, 0);
        checks.expect(fired.samples.iter().all(|s| s.ok()), || {
            "cache warm-up had failures".into()
        });
    }

    // The re-check window runs from one mid-tick instant of the watch clock
    // to another, so it holds a whole number of ticks.
    let mid_tick_after = |now: Instant| {
        let since = now.saturating_duration_since(server.started).as_secs_f64();
        server.started + Duration::from_secs_f64((since - 0.5).ceil().max(0.0) + 0.5)
    };
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    sleep_until(mid_tick_after(Instant::now()));
    let watch_before = handle.watch_snapshot().counters;
    let window_start = Instant::now();

    let step_secs = seconds / STEPS.len() as f64;
    let miss_ms = http::READ_TIMEOUT.as_secs_f64() * 1e3;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F7A_FF1C);
    let mut out = Served {
        steps: Vec::new(),
        ladder: Scrape::default(),
        session: Scrape::default(),
        resp_ms: Vec::new(),
        connects_ns: Vec::new(),
        ttfb_ns: Vec::new(),
        missed_slots: 0,
        null_tails: Vec::new(),
        trace_overhead_us: 0.0,
        attempted: 0,
        failed: 0,
        rechecks_per_s: 0.0,
        watchlist: 0,
    };
    let first = scrape()?;
    let mut last = first.clone();
    let mut verified = 0;
    let mut next_unique = 0;
    let mut watch_next = STANDING_WATCH;
    let mut group_base = 1;
    for (k, &rate) in wl.rates.iter().enumerate() {
        let draw = match wl.traffic {
            Traffic::Dataset => Draw::Zipf {
                targets: &study.dataset,
                alpha: ZIPF_ALPHA,
            },
            Traffic::Head => Draw::Zipf {
                targets: &head,
                alpha: ZIPF_ALPHA,
            },
            Traffic::Unique => Draw::Unique {
                targets: &study.unique,
                next: &mut next_unique,
            },
        };
        let mut plan = load::plan_checks(draw, rate, step_secs, VERIFY_EVERY, &mut rng);
        if wl.watch_rate > 0.0 {
            let writes = (wl.watch_rate * step_secs).floor() as usize;
            let gap = 1e9 / wl.watch_rate;
            let pool = WATCH_POOL.min(study.dataset.len());
            let posts = (0..writes)
                .map(|i| {
                    let batch: Vec<&str> = (0..WATCH_BATCH)
                        .map(|j| study.dataset[(watch_next + j) % pool].url.as_str())
                        .collect();
                    watch_next += WATCH_BATCH;
                    Planned {
                        due_ns: ((i as f64 + 0.5) * gap) as u64,
                        bytes: load::watch_request(&batch),
                        verify: None,
                    }
                })
                .collect();
            plan = load::merge(plan, posts);
        }
        let fired = load::fire(addr, &plan, pace, tracer.on(), epoch, group_base);
        group_base += plan.len() as u64;
        last = scrape()?;
        let summary = stats::summarize_step(&fired.samples, miss_ms, wl.limit_ms);
        out.attempted += summary.attempted;
        out.failed += summary.failed;
        out.missed_slots += fired
            .samples
            .iter()
            .filter(|s| s.lateness_ms() > 1.0)
            .count();
        out.resp_ms.extend(
            fired
                .samples
                .iter()
                .filter(|s| s.ok())
                .map(|s| (s.done_ns - s.sent_ns) as f64 / 1e6),
        );
        out.connects_ns.extend(fired.connects_ns);
        out.ttfb_ns.extend(fired.ttfb_ns);
        for (url, body) in &fired.bodies {
            verified += 1;
            let want = study
                .expected
                .get(url)
                .map(Vec::as_slice)
                .unwrap_or_default();
            let ok = !want.is_empty() && want.iter().all(|frag| body.contains(frag.as_str()));
            if !ok {
                out.failed += 1;
            }
            checks.expect(ok, || {
                format!("/check body for {url} disagrees with the batch study: {body}")
            });
        }
        tracer.adopt(fired.spans);
        eprintln!(
            "[perfbench]   step {} @ {rate}/s: n={} failed={} p50={:.3}ms p{}={:.3}ms lateness p99={:.3}ms",
            STEPS[k], summary.attempted, summary.failed, summary.p50_ms, summary.tail_pct, summary.tail_ms,
            summary.lateness_p99_ms
        );
        out.steps.push(summary);
        if tracer.on() {
            let (tail, overhead) = measure_the_measurer(&plan, k == 1, pace, epoch, wl.limit_ms)?;
            if tail > wl.limit_ms / 4.0 {
                eprintln!(
                    "[perfbench]   step {} is generator-bound: null p99 {tail:.3}ms",
                    STEPS[k]
                );
            }
            out.null_tails.push(tail);
            if let Some(us) = overhead {
                out.trace_overhead_us = us;
            }
        }
    }
    sleep_until(mid_tick_after(Instant::now()));
    let watch_after = handle.watch_snapshot();
    out.rechecks_per_s = (watch_after.counters.checks - watch_before.checks) as f64
        / window_start.elapsed().as_secs_f64();
    out.watchlist = watch_after.watchlist;
    out.ladder = last.since(&first);
    out.session = last.since(&scrape_start);
    checks.expect(verified > 0, || "no /check body was verified".into());
    Ok(out)
}

/// Fire the first half of a step's plan at a responder that does no work:
/// its p99 is the floor the generator and loopback impose. With `ab`, the
/// same half also runs without request spans, and the difference of the
/// two medians is the tracing overhead per request (µs).
fn measure_the_measurer(
    plan: &[Planned],
    ab: bool,
    pace: Pace,
    epoch: Instant,
    limit_ms: f64,
) -> Result<(f64, Option<f64>), String> {
    let half = &plan[..plan.len() / 2];
    let null = affinity::off_generator_core(NullResponder::start)
        .map_err(|e| format!("null responder: {e}"))?;
    let traced = load::fire(null.addr(), half, pace, true, epoch, 0);
    let untraced = ab.then(|| load::fire(null.addr(), half, pace, false, epoch, 0));
    null.stop();
    let miss_ms = http::READ_TIMEOUT.as_secs_f64() * 1e3;
    let summary = |f: &load::Fired| stats::summarize_step(&f.samples, miss_ms, limit_ms);
    let traced = summary(&traced);
    let overhead = untraced.map(|u| (traced.p50_ms - summary(&u).p50_ms) * 1e3);
    Ok((traced.tail_ms, overhead))
}

fn median_ms(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-layer metrics read from spans and from the program's stage stats.
fn span_metrics(layer: &mut Metrics, tracer: &Tracer, study: &StudyPhase, served: &Served) {
    let build = median_ms(&tracer.durations("simgen.build"));
    layer.put("simgen.build_ms", build, "ms");
    layer.put(
        "simgen.replay_ms",
        median_ms(&tracer.durations("simgen.generate")) - build,
        "ms",
    );
    let (study_ns, study_hits) = study
        .totals
        .by_stage
        .get("rediscovery")
        .copied()
        .unwrap_or_default();
    let serve_ns = served
        .session
        .get("permadead_stage_seconds_total{stage=\"rediscovery\"}")
        * 1e9;
    let queries = study_hits
        + served
            .session
            .get("permadead_stage_hits_total{stage=\"rediscovery\"}");
    layer.put(
        "rescue.build_ms",
        median_ms(&tracer.durations("rescue.build")),
        "ms",
    );
    layer.put("rescue.queries", queries, "count");
    let per_query = if queries > 0.0 {
        (study_ns + serve_ns) / queries / 1e3
    } else {
        0.0
    };
    layer.put("rescue.query_us", per_query, "us");
    // the first set-up's lowering went through world_from_scenario, where
    // the index build has no span of its own
    let lower = tracer.self_times("worldstore.lower");
    layer.put(
        "worldstore.lower_ms",
        median_ms(lower.get(1..).unwrap_or(&lower)),
        "ms",
    );
    layer.put(
        "worldstore.save_ms",
        median_ms(&tracer.durations("worldstore.save")),
        "ms",
    );
    layer.put(
        "worldstore.load_ms",
        median_ms(&tracer.durations("worldstore.load")),
        "ms",
    );
    study.totals.put(layer, "core.stage", &study.stage_names);
    let mut checked = StageTotals {
        links: served.session.get("permadead_cache_misses_total"),
        ..StageTotals::default()
    };
    for name in &study.stage_names {
        let seconds = served.session.get(&format!(
            "permadead_stage_seconds_total{{stage=\"{name}\"}}"
        ));
        let hits = served
            .session
            .get(&format!("permadead_stage_hits_total{{stage=\"{name}\"}}"));
        checked.by_stage.insert(name.clone(), (seconds * 1e9, hits));
    }
    checked.put(layer, "core.check_stage", &study.stage_names);
    layer.put(
        "core.incremental_build_ms",
        median_ms(&tracer.durations("core.incremental.build")),
        "ms",
    );
    let reaudit_ms = median_ms(&tracer.durations("core.incremental.reaudit"));
    layer.put(
        "core.reaudit_us",
        reaudit_ms * 1e3 / study.reaudited.max(1) as f64,
        "us",
    );
    layer.put("core.reaudit_links", study.reaudited as f64, "count");
}

/// Per-layer metrics of serving: `/metrics` growth over the steps and what
/// the generator saw.
fn serve_metrics(layer: &mut Metrics, wl: &Workload, served: &Served) {
    let ladder = &served.ladder;
    let handled = ladder.get("permadead_request_duration_seconds_count");
    let handler_us = if handled > 0.0 {
        ladder.get("permadead_request_duration_seconds_sum") / handled * 1e6
    } else {
        0.0
    };
    layer.put("serve.handler_us", handler_us, "us");
    layer.put(
        "serve.io_us",
        mean(&served.resp_ms) * 1e3 - handler_us,
        "us",
    );
    let hits = ladder.get("permadead_cache_hits_total");
    let lookups = hits + ladder.get("permadead_cache_misses_total");
    layer.put(
        "serve.cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    layer.put("serve.cache_lookups", lookups, "count");
    for (name, series) in [
        ("serve.cache_evictions", "permadead_cache_evictions_total"),
        ("serve.rejected_503", "permadead_rejected_total"),
        ("serve.write_aborted", "permadead_serve_write_aborted_total"),
        ("serve.reaudit_links", "permadead_reaudit_links_total"),
        ("sched.due", "permadead_watch_due_total"),
        ("sched.checks", "permadead_watch_checks_total"),
        ("sched.deferred", "permadead_watch_deferred_total"),
    ] {
        layer.put(name, ladder.get(series), "count");
    }
    layer.put(
        "serve.accepted",
        ladder.sum("permadead_serve_reactor_accepted_total"),
        "count",
    );
    layer.put("sched.watchlist", served.watchlist as f64, "count");
    for (k, s) in served.steps.iter().enumerate() {
        layer.put(
            format!("gen.lateness_p99_ms.{}", STEPS[k]),
            s.lateness_p99_ms,
            "ms",
        );
    }
    for (k, tail) in served.null_tails.iter().enumerate() {
        layer.put(format!("gen.null_p99_ms.{}", STEPS[k]), *tail, "ms");
    }
    let bound = served
        .null_tails
        .iter()
        .filter(|&&t| t > wl.limit_ms / 4.0)
        .count();
    layer.put("gen.generator_bound_steps", bound as f64, "count");
    layer.put("gen.missed_slots", served.missed_slots as f64, "count");
    let us = |ns: &[u64]| mean(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>());
    layer.put("client.connect_us", us(&served.connects_ns), "us");
    layer.put("client.ttfb_us", us(&served.ttfb_ns), "us");
    layer.put("trace.overhead_us", served.trace_overhead_us, "us");
}

/// Peak resident memory of this process so far, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
