//! `bench-serve` — loopback load generator for `permadead-serve`.
//!
//! Starts the audit service in-process on an ephemeral port, hammers
//! `GET /check` from a pool of client threads, and prints ONE machine-
//! readable JSON line with throughput, latency percentiles, and the cache
//! hit ratio scraped from `/metrics`. The same line is persisted to
//! `results/BENCH_serve.json`.
//!
//! ```text
//! bench-serve [--requests N] [--clients C] [--unique U] [--seed S] [--workers W]
//! ```
//!
//! `--unique` bounds how many distinct URLs the clients cycle through;
//! with N ≫ U the steady state is cache-hit-dominated, which is the regime
//! an IABot-style consumer would see (the same contested links re-checked
//! across many pages).
//!
//! Every request opens a fresh connection (`Connection: close`), so the
//! number is dominated by connection setup/teardown — the one serving shape
//! the open-loop `perfbench` workloads, which all hold keep-alive
//! connections, do not measure.
//!
//! This is a **closed-loop** bench: each client waits for a response before
//! issuing its next request, so a server stall slows the offered load down
//! with it and the latency percentiles hide the backlog (coordinated
//! omission). `perfbench` is the open-loop measurement. To label these
//! numbers honestly next to it, the line carries `max_ms` (the worst single
//! response observed) and `missed_issue_slots`: how many requests were
//! issued later than the uniform pacing implied by the client's own average
//! issue gap — a post-hoc measure of how far the closed loop self-throttled
//! away from steady pacing.

use permadead_serve::{start, AuditService, CacheConfig, ServerConfig};
use permadead_sim::ScenarioConfig;
use permadead_stats::percentile;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Instant;

struct Opts {
    requests: usize,
    clients: usize,
    unique: usize,
    seed: u64,
    workers: usize,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        requests: 2000,
        clients: 8,
        unique: 64,
        seed: 42,
        workers: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing its value"))?;
        let n: u64 = value
            .parse()
            .map_err(|_| format!("flag {flag} has invalid value {value:?}"))?;
        match flag.as_str() {
            "--requests" => opts.requests = n as usize,
            "--clients" => opts.clients = (n as usize).max(1),
            "--unique" => opts.unique = (n as usize).max(1),
            "--seed" => opts.seed = n,
            "--workers" => opts.workers = (n as usize).max(1),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

/// One GET over a fresh connection; returns (status_200, body).
fn get(addr: SocketAddr, path: &str) -> std::io::Result<(bool, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let ok = response.starts_with("HTTP/1.1 200");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((ok, body))
}

/// Closed-loop honesty label: a client *intends* to issue its next request
/// one typical cadence (the median issue gap) after the previous one; a
/// request misses that slot when its actual gap ran more than 1ms over,
/// i.e. a slow response visibly held the next issue back. A smooth run
/// flags only the latency tail; under a stall each client flags exactly
/// the requests that were pinned behind it — which is the point: a 400ms
/// stall delays only `clients` issues here, while the open-loop bench
/// keeps every arrival the schedule offered during the stall.
fn count_missed_issue_slots(issue_offsets_s: &[f64]) -> usize {
    if issue_offsets_s.len() < 2 {
        return 0;
    }
    let mut gaps: Vec<f64> = issue_offsets_s.windows(2).map(|w| w[1] - w[0]).collect();
    let mut sorted = gaps.clone();
    sorted.sort_by(f64::total_cmp);
    let pace = sorted[sorted.len() / 2];
    gaps.drain(..).filter(|g| *g > pace + 1e-3).count()
}

fn metric(metrics_body: &str, name: &str) -> f64 {
    metrics_body
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench-serve [--requests N] [--clients C] [--unique U] [--seed S] [--workers W]"
            );
            return ExitCode::FAILURE;
        }
    };

    eprintln!("[bench-serve] generating world (seed {})…", opts.seed);
    let service = AuditService::new(ScenarioConfig::small(opts.seed), CacheConfig::default());
    let handle = match start(
        service,
        ServerConfig {
            workers: opts.workers,
            // admission control is not under test here: queue deep enough
            // that the load pattern, not 503s, shapes the latency numbers
            queue_cap: (opts.clients * 4).max(64),
            ..ServerConfig::default()
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: could not start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    let urls = handle.service().sample_urls(opts.unique);
    if urls.is_empty() {
        eprintln!("error: dataset produced no URLs to query");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[bench-serve] {} workers on {addr}: {} requests, {} clients, {} distinct urls",
        opts.workers,
        opts.requests,
        opts.clients,
        urls.len()
    );

    let per_client = opts.requests.div_ceil(opts.clients);
    let t0 = Instant::now();
    let mut threads = Vec::new();
    for client in 0..opts.clients {
        let urls = urls.clone();
        threads.push(std::thread::spawn(move || {
            let mut latencies_ms = Vec::with_capacity(per_client);
            let mut issue_offsets_s = Vec::with_capacity(per_client);
            let mut errors = 0usize;
            for i in 0..per_client {
                // stride by client so the first pass over the URL space is
                // spread across clients instead of all hitting url[0] at once
                let url = &urls[(client + i * opts.clients) % urls.len()];
                let path = format!("/check?url={}", percent_encode(url));
                issue_offsets_s.push(t0.elapsed().as_secs_f64());
                let t = Instant::now();
                match get(addr, &path) {
                    Ok((true, _)) => latencies_ms.push(t.elapsed().as_secs_f64() * 1e3),
                    Ok((false, _)) | Err(_) => errors += 1,
                }
            }
            (latencies_ms, issue_offsets_s, errors)
        }));
    }
    let mut latencies_ms = Vec::with_capacity(per_client * opts.clients);
    let mut errors = 0usize;
    let mut missed_issue_slots = 0usize;
    for t in threads {
        let (l, issues, e) = t.join().expect("client thread");
        latencies_ms.extend(l);
        missed_issue_slots += count_missed_issue_slots(&issues);
        errors += e;
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let metrics_body = match get(addr, "/metrics") {
        Ok((true, body)) => body,
        _ => {
            eprintln!("error: /metrics scrape failed after the run");
            return ExitCode::FAILURE;
        }
    };
    let hits = metric(&metrics_body, "permadead_cache_hits_total");
    let misses = metric(&metrics_body, "permadead_cache_misses_total");
    let hit_ratio = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };

    let completed = latencies_ms.len();
    // percentile() panics on an empty slice; with every request failed (or
    // `--requests 0`) the summary still must come out, with null percentiles
    let pct = |p: f64| {
        if latencies_ms.is_empty() {
            "null".to_string()
        } else {
            format!("{:.3}", percentile(&latencies_ms, p))
        }
    };
    let max_ms = if latencies_ms.is_empty() {
        "null".to_string()
    } else {
        format!("{:.3}", latencies_ms.iter().cloned().fold(f64::MIN, f64::max))
    };
    let line = format!(
        "{{\"bench\":\"serve/loopback\",\"loop\":\"closed\",\"mode\":\"close\",\
         \"requests\":{completed},\
         \"errors\":{errors},\
         \"clients\":{},\"workers\":{},\"unique_urls\":{},\
         \"elapsed_s\":{elapsed_s:.3},\
         \"requests_per_sec\":{:.1},\"p50_ms\":{},\"p99_ms\":{},\"max_ms\":{max_ms},\
         \"missed_issue_slots\":{missed_issue_slots},\
         \"cache_hit_ratio\":{hit_ratio:.4}}}",
        opts.clients,
        opts.workers,
        urls.len(),
        completed as f64 / elapsed_s.max(1e-9),
        pct(50.0),
        pct(99.0),
    );
    println!("{line}");
    match permadead_bench::persist_bench_results("serve", &format!("{line}\n")) {
        Ok(path) => eprintln!("[bench-serve] wrote {}", path.display()),
        Err(e) => eprintln!("[bench-serve] could not persist results: {e}"),
    }
    handle.shutdown();
    if errors > 0 {
        eprintln!("[bench-serve] {errors} request(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn percent_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}
