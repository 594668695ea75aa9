//! Minimal HTTP/1.1 over `std::net` for the generator: a keep-alive client
//! connection, a null responder that measures the generator itself, and
//! `/metrics` scrapes.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a client waits for a response before giving up; a request that
/// times out counts as a miss at this latency.
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Where the header block ends and how long the body is, once the whole
/// header block is in `buf`.
pub(crate) fn parse_head(buf: &[u8]) -> Option<(usize, usize, bool)> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8_lossy(&buf[..end]);
    let mut content_length = 0;
    let mut close = false;
    for line in head.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().unwrap_or(0);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Some((end, content_length, close))
}

/// A blocking client connection for the session's own requests (scrapes,
/// `/report`, the standing watchlist); the generator has its own.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, READ_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send one request; returns the response's status and body.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, String)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some((head, len, _)) = parse_head(&self.buf) {
                if self.buf.len() >= head + len {
                    let status = std::str::from_utf8(self.buf.get(9..12).unwrap_or(&[]))
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    return Ok((
                        status,
                        String::from_utf8_lossy(&self.buf[head..head + len]).into_owned(),
                    ));
                }
            }
        }
    }
}

/// `GET path` on its own connection; returns the body of a 200 response.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut conn = Conn::connect(addr)?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n");
    let (status, body) = conn.roundtrip(req.as_bytes())?;
    if status != 200 {
        return Err(io::Error::other(format!("GET {path} answered {status}")));
    }
    Ok(body)
}

/// `POST path` with `body` on its own connection; returns the status.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<u16> {
    let mut conn = Conn::connect(addr)?;
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    Ok(conn.roundtrip(req.as_bytes())?.0)
}

/// One `/metrics` scrape: every series (`name{labels}`) and its value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn take(addr: SocketAddr) -> io::Result<Scrape> {
        Ok(Scrape::parse(&get(addr, "/metrics")?))
    }

    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(name.to_string(), v);
                }
            }
        }
        Scrape(series)
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum of every series of metric `name`, whatever its labels.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| *k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
            .map(|(_, v)| v)
            .sum()
    }

    /// Counter growth from `earlier` to `self`, series by series.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

/// A responder that answers every request at once with a fixed 200, so
/// firing a schedule at it measures the generator and the loopback stack
/// and nothing else.
pub struct NullResponder {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl NullResponder {
    pub fn start() -> io::Result<NullResponder> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for conn in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                handlers.push(std::thread::spawn(move || serve_null(stream)));
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(NullResponder {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join every thread. Client connections must be
    /// closed first: a handler lives as long as its connection.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // unblock the accept call
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

fn serve_null(mut stream: TcpStream) {
    const REPLY: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT * 5));
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    loop {
        let Ok(n) = stream.read(&mut chunk) else {
            return;
        };
        if n == 0 {
            return;
        }
        buf.extend_from_slice(&chunk[..n]);
        while let Some((head, len, _)) = parse_head(&buf) {
            if buf.len() < head + len {
                break;
            }
            buf.drain(..head + len);
            if stream.write_all(REPLY).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parses_and_diffs_series() {
        let before = Scrape::parse(
            "# HELP x y\n# TYPE x counter\nreqs{endpoint=\"check\"} 10\nreqs{endpoint=\"batch\"} 1\nlat_sum 0.5\n",
        );
        let after = Scrape::parse(
            "reqs{endpoint=\"check\"} 25\nreqs{endpoint=\"batch\"} 1\nlat_sum 0.75\nreqs_total 3\n",
        );
        let d = after.since(&before);
        assert_eq!(d.get("reqs{endpoint=\"check\"}"), 15.0);
        assert_eq!(
            d.sum("reqs"),
            15.0,
            "a prefix of another metric's name is not a match"
        );
        assert_eq!(d.get("lat_sum"), 0.25);
        assert_eq!(d.get("missing"), 0.0);
    }

    #[test]
    fn null_responder_answers_keep_alive_requests() {
        let null = NullResponder::start().expect("bind");
        {
            let mut conn = Conn::connect(null.addr()).expect("connect");
            for _ in 0..3 {
                let (status, body) = conn
                    .roundtrip(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
                    .expect("answer");
                assert_eq!(status, 200);
                assert_eq!(body, "ok");
            }
        }
        null.stop();
    }
}
