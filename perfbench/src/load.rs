//! The open-loop generator: a seeded plan of requests, each due at a fixed
//! instant, fired by one thread over at most two keep-alive connections. A
//! request is timed from its *scheduled* instant: when both connections are
//! busy the next request waits, and that wait (its lateness) is charged to
//! it, so a stall also charges the requests queued behind it.

use crate::http::{parse_head, READ_TIMEOUT};
use crate::stats::Sample;
use crate::trace::{RequestSpans, Span};
use rand::rngs::SmallRng;
use rand::Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A generator that shares its core sleeps until this close to a due
/// instant, then spins.
const SPIN: Duration = Duration::from_micros(50);

/// One request of a plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due instant, ns after the step starts.
    pub due_ns: u64,
    /// Full request bytes, rendered before the step.
    pub bytes: Vec<u8>,
    /// Dataset URL whose body is checked against the batch study.
    pub verify: Option<String>,
}

/// A URL the plan may ask about, with its site's popularity rank.
#[derive(Debug, Clone)]
pub struct Target {
    pub url: String,
    pub rank: u32,
    pub in_dataset: bool,
}

fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

pub fn check_request(url: &str) -> Vec<u8> {
    format!(
        "GET /check?url={} HTTP/1.1\r\nHost: perfbench\r\n\r\n",
        percent_encode(url)
    )
    .into_bytes()
}

pub fn watch_request(urls: &[&str]) -> Vec<u8> {
    let body = urls.join("\n");
    format!(
        "POST /watch HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Where each `/check` of a plan points.
pub enum Draw<'a> {
    /// Zipf over popularity rank: weight ∝ 1/rank^alpha.
    Zipf { targets: &'a [Target], alpha: f64 },
    /// Each target once, in the given order, continuing from `next`.
    Unique {
        targets: &'a [Target],
        next: &'a mut usize,
    },
}

/// `/check` requests at a fixed `rate` for `secs`; one in `verify_every`
/// dataset URLs is marked for verification (a seeded choice).
pub fn plan_checks(
    draw: Draw<'_>,
    rate: f64,
    secs: f64,
    verify_every: u32,
    rng: &mut SmallRng,
) -> Vec<Planned> {
    let n = (rate * secs).floor() as usize;
    let gap = 1e9 / rate;
    let (targets, zipf, mut unique) = match draw {
        Draw::Zipf { targets, alpha } => {
            let mut total = 0.0;
            let cumulative: Vec<f64> = targets
                .iter()
                .map(|t| {
                    total += f64::from(t.rank.max(1)).powf(-alpha);
                    total
                })
                .collect();
            (targets, Some(cumulative), None)
        }
        Draw::Unique { targets, next } => (targets, None, Some(next)),
    };
    (0..n)
        .map(|i| {
            let t = match (&zipf, &mut unique) {
                (Some(cumulative), _) => {
                    let needle = rng.gen_range(0.0..cumulative[cumulative.len() - 1]);
                    &targets[cumulative
                        .partition_point(|&c| c <= needle)
                        .min(targets.len() - 1)]
                }
                (None, Some(next)) => {
                    let t = &targets[**next % targets.len()];
                    **next += 1;
                    t
                }
                (None, None) => unreachable!("every draw is zipf or unique"),
            };
            let verify =
                (t.in_dataset && rng.gen_range(0..verify_every) == 0).then(|| t.url.clone());
            Planned {
                due_ns: (i as f64 * gap) as u64,
                bytes: check_request(&t.url),
                verify,
            }
        })
        .collect()
}

/// Merge `extra` into `plan`, keeping due order.
pub fn merge(mut plan: Vec<Planned>, extra: Vec<Planned>) -> Vec<Planned> {
    plan.extend(extra);
    plan.sort_by_key(|p| p.due_ns);
    plan
}

/// What firing a plan produced.
#[derive(Default)]
pub struct Fired {
    /// One sample per planned request, in plan order.
    pub samples: Vec<Sample>,
    /// `(dataset url, body)` of every marked request answered 200.
    pub bodies: Vec<(String, String)>,
    pub connects_ns: Vec<u64>,
    /// Send → first response byte, per answered request.
    pub ttfb_ns: Vec<u64>,
    pub spans: Vec<Span>,
}

/// How the generator thread runs.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Keep-alive connections, i.e. requests in flight at most.
    pub conns: usize,
    /// A core of its own: the thread is pinned there and never sleeps, so
    /// no timer wake-up delays a send. Without one it sleeps until
    /// [`SPIN`] before each due instant.
    pub own_core: Option<usize>,
}

/// One keep-alive connection and the request it is waiting on.
struct Slot {
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    inflight: Option<Inflight>,
}

struct Inflight {
    index: usize,
    sent: Instant,
    first_byte: Option<Instant>,
    connected: Option<(Instant, Instant)>,
}

fn connect(addr: SocketAddr, connects_ns: &mut Vec<u64>) -> Option<TcpStream> {
    let t0 = Instant::now();
    let stream = TcpStream::connect_timeout(&addr, READ_TIMEOUT).ok()?;
    connects_ns.push(t0.elapsed().as_nanos() as u64);
    stream.set_nodelay(true).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some(stream)
}

/// Write all of `bytes` to a nonblocking socket (requests are small, so
/// this rarely loops).
fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + READ_TIMEOUT;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::hint::spin_loop()
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Fire `plan` at `addr` from one generator thread. Request spans (when
/// `trace`) are stamped against `epoch` and grouped by `group_base + i`.
pub fn fire(
    addr: SocketAddr,
    plan: &[Planned],
    pace: Pace,
    trace: bool,
    epoch: Instant,
    group_base: u64,
) -> Fired {
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                if let Some(core) = pace.own_core {
                    crate::affinity::pin(&[core]);
                }
                drive(addr, plan, pace, trace, epoch, group_base)
            })
            .join()
            .expect("generator thread panicked")
    })
}

fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    pace: Pace,
    trace: bool,
    epoch: Instant,
    group_base: u64,
) -> Fired {
    let mut out = Fired {
        samples: vec![Sample::default(); plan.len()],
        ..Fired::default()
    };
    let mut spans = RequestSpans {
        on: trace,
        spans: Vec::new(),
    };
    let stamp = |at: Instant| at.saturating_duration_since(epoch).as_nanos() as u64;
    let mut slots: Vec<Slot> = (0..pace.conns.max(1))
        .map(|_| Slot {
            stream: connect(addr, &mut out.connects_ns),
            buf: Vec::with_capacity(4096),
            inflight: None,
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let since_start = |at: Instant| at.saturating_duration_since(start).as_nanos() as u64;
    let mut next = 0;
    let mut finished = 0;
    let mut chunk = [0u8; 16384];
    while finished < plan.len() {
        // send every due request that has a free connection
        while next < plan.len() && Instant::now() >= start + Duration::from_nanos(plan[next].due_ns)
        {
            let Some(slot) = slots.iter_mut().find(|s| s.inflight.is_none()) else {
                break;
            };
            let sent = Instant::now();
            let mut connected = None;
            if slot.stream.is_none() {
                slot.stream = connect(addr, &mut out.connects_ns);
                connected = Some((sent, Instant::now()));
            }
            slot.buf.clear();
            let written = slot
                .stream
                .as_mut()
                .map(|s| write_all(s, &plan[next].bytes));
            if let Some(Ok(())) = written {
                slot.inflight = Some(Inflight {
                    index: next,
                    sent,
                    first_byte: None,
                    connected,
                });
            } else {
                slot.stream = None;
                out.samples[next] = Sample {
                    due_ns: plan[next].due_ns,
                    sent_ns: since_start(sent),
                    done_ns: since_start(Instant::now()),
                    status: 0,
                };
                finished += 1;
            }
            next += 1;
        }
        // collect whatever responses have arrived
        for slot in &mut slots {
            let Some(flight) = slot.inflight.as_mut() else {
                continue;
            };
            let stream = slot
                .stream
                .as_mut()
                .expect("a request in flight has a connection");
            let outcome = match stream.read(&mut chunk) {
                Ok(0) => Some(0),
                Ok(n) => {
                    flight.first_byte.get_or_insert_with(Instant::now);
                    slot.buf.extend_from_slice(&chunk[..n]);
                    match parse_head(&slot.buf) {
                        Some((head, len, _)) if slot.buf.len() >= head + len => {
                            let status = std::str::from_utf8(slot.buf.get(9..12).unwrap_or(&[]))
                                .ok()
                                .and_then(|s| s.parse().ok());
                            Some(status.unwrap_or(0))
                        }
                        _ => None,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    (flight.sent.elapsed() > READ_TIMEOUT).then_some(0)
                }
                Err(_) => Some(0),
            };
            let Some(status) = outcome else { continue };
            let done = Instant::now();
            let flight = slot.inflight.take().expect("checked above");
            let entry = &plan[flight.index];
            if status == 0 {
                slot.stream = None;
            } else {
                let (head, len, close) = parse_head(&slot.buf).expect("complete response");
                let first_byte = flight.first_byte.expect("bytes arrived");
                out.ttfb_ns
                    .push(first_byte.saturating_duration_since(flight.sent).as_nanos() as u64);
                let group = group_base + flight.index as u64;
                let root = spans.push(
                    "client.request",
                    group,
                    None,
                    stamp(flight.sent),
                    stamp(done),
                );
                if let Some((a, b)) = flight.connected {
                    spans.push("client.connect", group, root, stamp(a), stamp(b));
                }
                spans.push(
                    "client.ttfb",
                    group,
                    root,
                    stamp(flight.sent),
                    stamp(first_byte),
                );
                if let (Some(url), 200) = (&entry.verify, status) {
                    out.bodies.push((
                        url.clone(),
                        String::from_utf8_lossy(&slot.buf[head..head + len]).into_owned(),
                    ));
                }
                if close {
                    slot.stream = None;
                }
            }
            out.samples[flight.index] = Sample {
                due_ns: entry.due_ns,
                sent_ns: since_start(flight.sent),
                done_ns: since_start(done),
                status,
            };
            finished += 1;
        }
        // nothing to read and nothing due: wait for the next due instant
        if pace.own_core.is_none()
            && slots.iter().all(|s| s.inflight.is_none())
            && next < plan.len()
        {
            let due = start + Duration::from_nanos(plan[next].due_ns);
            let left = due.saturating_duration_since(Instant::now());
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            }
        }
        std::hint::spin_loop();
    }
    out.spans = spans.spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::NullResponder;
    use rand::SeedableRng;

    fn targets(n: usize) -> Vec<Target> {
        (0..n)
            .map(|i| Target {
                url: format!("http://h{i}.example/p"),
                rank: i as u32 + 1,
                in_dataset: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn unique_draw_never_repeats_across_steps() {
        let t = targets(100);
        let mut next = 0;
        let mut rng = SmallRng::seed_from_u64(1);
        let a = plan_checks(
            Draw::Unique {
                targets: &t,
                next: &mut next,
            },
            10.0,
            3.0,
            1,
            &mut rng,
        );
        let b = plan_checks(
            Draw::Unique {
                targets: &t,
                next: &mut next,
            },
            20.0,
            2.0,
            1,
            &mut rng,
        );
        assert_eq!((a.len(), b.len(), next), (30, 40, 70));
        let mut seen: Vec<&Vec<u8>> = a.iter().chain(&b).map(|p| &p.bytes).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 70);
        // due instants sit 1/rate apart from the step start
        assert_eq!(b[3].due_ns, 150_000_000);
    }

    #[test]
    fn zipf_plan_is_seeded_and_marks_only_dataset_urls() {
        let t = targets(64);
        let plan = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            plan_checks(
                Draw::Zipf {
                    targets: &t,
                    alpha: 0.8,
                },
                1000.0,
                1.0,
                4,
                &mut rng,
            )
        };
        let (a, b) = (plan(7), plan(7));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.bytes == y.bytes && x.verify == y.verify));
        assert!(a.iter().zip(&plan(8)).any(|(x, y)| x.bytes != y.bytes));
        let marked: Vec<&String> = a.iter().filter_map(|p| p.verify.as_ref()).collect();
        assert!(!marked.is_empty());
        assert!(marked
            .iter()
            .all(|u| t.iter().any(|x| &x.url == *u && x.in_dataset)));
        // rank 1 is drawn more than rank 64
        let count = |url: &str| a.iter().filter(|p| p.bytes == check_request(url)).count();
        assert!(count(&t[0].url) > count(&t[63].url));
    }

    #[test]
    fn fire_samples_every_request_from_its_due_instant() {
        let null = NullResponder::start().expect("bind");
        let plan: Vec<Planned> = (0..200)
            .map(|i| Planned {
                due_ns: i * 1_000_000,
                bytes: check_request("http://a.example/x"),
                verify: (i % 50 == 0).then(|| "http://a.example/x".to_string()),
            })
            .collect();
        let fired = fire(
            null.addr(),
            &plan,
            Pace {
                conns: 2,
                own_core: None,
            },
            true,
            Instant::now(),
            0,
        );
        null.stop();
        assert_eq!(fired.samples.len(), 200);
        for (p, s) in plan.iter().zip(&fired.samples) {
            assert_eq!(s.status, 200);
            assert_eq!(s.due_ns, p.due_ns);
            assert!(s.sent_ns >= s.due_ns, "never sent early");
            assert!(s.done_ns >= s.sent_ns);
        }
        assert_eq!(fired.bodies.len(), 4);
        assert!(fired.bodies.iter().all(|(_, body)| body == "ok"));
        assert_eq!(
            fired.connects_ns.len(),
            2,
            "two keep-alive connections, opened once"
        );
        assert_eq!(
            fired
                .spans
                .iter()
                .filter(|s| s.name == "client.request")
                .count(),
            200
        );
    }
}
