//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-start|check-hot|check-tail|check-watch \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs one session over a seeded small world: set up
//! (generate + lower, three times), save and reload the snapshot, run the
//! paper's analyses, warm-start a server from the snapshot (three times),
//! then offer open-loop `/check` traffic at three fixed rates. The workloads
//! differ in that traffic (see `README.md`). With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` spans are
//! recorded around each layer's calls and the line carries the per-layer
//! metrics. Outputs are checked as the session runs.

mod affinity;
mod http;
mod load;
mod session;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

/// How a workload's traffic is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Traffic {
    /// Zipf over the whole March dataset, cache cold.
    Dataset,
    /// Zipf over the 64-URL popularity head, cache warmed first.
    Head,
    /// Every URL the world knows, each once, in seeded order.
    Unique,
}

struct Workload {
    name: &'static str,
    traffic: Traffic,
    /// Offered `/check` rates of the three steps, req/s.
    rates: [f64; 3],
    /// Latency limit on each step's p99, ms.
    limit_ms: f64,
    rediscovery: bool,
    /// `POST /watch` writes per second during the steps.
    watch_rate: f64,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold-start",
        traffic: Traffic::Dataset,
        rates: [400.0, 800.0, 1600.0],
        limit_ms: 50.0,
        rediscovery: false,
        watch_rate: 0.0,
    },
    Workload {
        name: "check-hot",
        traffic: Traffic::Head,
        rates: [8000.0, 16000.0, 32000.0],
        limit_ms: 50.0,
        rediscovery: false,
        watch_rate: 0.0,
    },
    Workload {
        name: "check-tail",
        traffic: Traffic::Unique,
        rates: [400.0, 700.0, 1100.0],
        limit_ms: 100.0,
        rediscovery: true,
        watch_rate: 0.0,
    },
    Workload {
        name: "check-watch",
        traffic: Traffic::Head,
        rates: [1000.0, 2000.0, 4000.0],
        limit_ms: 50.0,
        rediscovery: false,
        watch_rate: 20.0,
    },
];

const STEPS: [&str; 3] = ["lo", "mid", "hi"];
const SETUP_REPS: usize = 3;
const STUDY_REPS: usize = 3;
const WARM_REPS: usize = 3;
/// Keep-alive connections the generator holds open (requests in flight).
const CONNECTIONS: usize = 2;
const HEAD: usize = 64;
/// Watched URLs every session registers before its steps.
const STANDING_WATCH: usize = 32;
/// The dataset URLs `POST /watch` writes cycle through. Re-checks fall due
/// in one burst per watch-clock tick; keeping the watchlist under the
/// server's default queue capacity (64) keeps that burst from crowding
/// reads out of the queue, so the writes contend without being refused.
const WATCH_POOL: usize = 56;
/// URLs per `POST /watch` write.
const WATCH_BATCH: usize = 8;
/// One in this many dataset `/check`s has its body verified.
const VERIFY_EVERY: u32 = 8;
const ZIPF_ALPHA: f64 = 0.8;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 9.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing its value"))?;
        let bad = || format!("flag {flag} has invalid value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics in report order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// What the output checks found.
#[derive(Default)]
struct Checks {
    passed: usize,
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let what = what();
            eprintln!("[perfbench] CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }
}

/// The checkout's commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..40.min(l.len())].to_string())
            })
            .map_or_else(|| "unknown".into(), |c| c.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::FAILURE;
        }
    };
    let session = match session::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reported = if args.trace {
        &session.layer
    } else {
        &session.e2e
    };
    for (name, value, unit) in &reported.0 {
        println!("{name:<44} {value:>16.6} {unit}");
    }
    let correct = session.checks.failures.is_empty();
    println!(
        "checks: {} passed, {} failed; requests: {} attempted, {} failed",
        session.checks.passed,
        session.checks.failures.len(),
        session.attempted,
        session.failed
    );
    let nproc = affinity::cores();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"nproc\":{nproc},\
         \"profile\":\"{profile}\",\"correct\":{correct},\"metrics\":{}}}",
        args.workload.name,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        commit(),
        reported.json()
    );
    println!("record: {record}");
    let ledger = Path::new(".perfbench").join("runs.jsonl");
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&ledger)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{record}\n").as_bytes()))
    {
        eprintln!("[perfbench] could not append to {}: {e}", ledger.display());
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        session.attempted.max(1),
        session.failed,
        reported.json()
    );
    ExitCode::SUCCESS
}
