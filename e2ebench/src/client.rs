//! The benchmark's single client thread: one-shot HTTP requests over
//! loopback TCP, each counted as attempted and, unless it got an
//! expected status, as failed.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dg_serve::http;

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Client-side round trip: connect, send, read to close.
    pub elapsed: Duration,
}

/// A request that failed: the status it got, if any, and what happened.
#[derive(Debug)]
pub struct CallError {
    pub status: Option<u16>,
    pub message: String,
}

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub struct Client {
    addr: SocketAddr,
    pub tally: Tally,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            tally: Tally::default(),
        }
    }

    /// Sends one request. A transport error or a status outside
    /// `expect` (a `503` shed included) counts as failed and is
    /// returned as `Err`.
    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        expect: &[u16],
    ) -> Result<Reply, CallError> {
        self.tally.attempted += 1;
        let t0 = Instant::now();
        let outcome = http::request(self.addr, method, target, body);
        let elapsed = t0.elapsed();
        match outcome {
            Ok((status, body)) if expect.contains(&status) => Ok(Reply {
                status,
                body,
                elapsed,
            }),
            Ok((status, body)) => {
                self.tally.failed += 1;
                Err(CallError {
                    status: Some(status),
                    message: format!(
                        "{method} {target}: status {status}: {}",
                        String::from_utf8_lossy(&body).trim()
                    ),
                })
            }
            Err(e) => {
                self.tally.failed += 1;
                Err(CallError {
                    status: None,
                    message: format!("{method} {target}: {e}"),
                })
            }
        }
    }
}

/// The raw text of a top-level scalar field `"name": value` in a JSON
/// body the daemon rendered (value up to the next `,`, newline or `}`).
pub fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": ");
    let start = body.find(&key)? + key.len();
    let rest = &body[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A counter's value in a Prometheus text exposition (`0` when the
/// program never registered it).
pub fn prometheus_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (key, value) = l.split_once(' ')?;
            (key == name).then(|| value.trim().parse::<f64>().ok())?
        })
        .map_or(0, |v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extracts_scalars() {
        let body =
            "{\n  \"exact\": false,\n  \"cell\": {\n    \"id\": 17,\n    \"mean\": 12.5\n  }\n}\n";
        assert_eq!(field(body, "exact"), Some("false"));
        assert_eq!(field(body, "id"), Some("17"));
        assert_eq!(field(body, "mean"), Some("12.5"));
        assert_eq!(field(body, "p95"), None);
    }

    #[test]
    fn prometheus_counters_parse() {
        let text = "# TYPE a counter\na 3\nab 7\nc{x=\"1\"} 2\n";
        assert_eq!(prometheus_counter(text, "a"), 3);
        assert_eq!(prometheus_counter(text, "ab"), 7);
        assert_eq!(prometheus_counter(text, "missing"), 0);
    }
}
