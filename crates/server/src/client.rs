//! A minimal blocking client for the service protocol, used by the tests,
//! the example binary and the load harness.

use crate::json::Json;
use crate::proto::{read_frame, row_from_json, write_frame, Request};
use dcq_storage::{DeltaBatch, Epoch, Row};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One connection to a [`crate::DcqServer`].
pub struct DcqClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    retry_observations: Vec<RetryObservation>,
}

/// Ceiling on how long a client sleeps on one `overloaded` hint.  The server
/// clamps its own hint to 10s; a matching client cap means a corrupt or
/// hostile hint can never park a caller for minutes.
pub const RETRY_HINT_CAP_MS: u64 = 10_000;

/// One honoured admission-control pushback: the hint the server sent and how
/// long the client actually slept before retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryObservation {
    /// The server's `retry_after_ms` drain-time estimate.
    pub hint_ms: u64,
    /// Wall milliseconds the client slept before its retry.
    pub slept_ms: u64,
}

/// How long to back off for a `retry_after_ms` hint: the hint itself (capped
/// at [`RETRY_HINT_CAP_MS`]) plus up to ~25% deterministic jitter from `salt`,
/// so a herd of clients rejected together does not retry together.
pub fn retry_backoff_ms(hint_ms: u64, salt: u64) -> u64 {
    let base = hint_ms.clamp(1, RETRY_HINT_CAP_MS);
    // xorshift64 — no rand dependency; `salt` varies per client and attempt.
    let mut x = salt | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    base + x % (base / 4 + 1)
}

/// A successful push acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushReply {
    /// The committed epoch the batch advanced the store to.
    pub epoch: Epoch,
    /// Result tuples that entered any view.
    pub result_added: usize,
    /// Result tuples that left any view.
    pub result_removed: usize,
}

/// The server's answer to a push: accepted, or pushed back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Committed (WAL-logged first when the server is durable).
    Acked(PushReply),
    /// Admission control rejected the batch; retry after the hinted delay.
    Overloaded {
        /// The server's drain-time estimate.
        retry_after_ms: u64,
    },
}

/// A view registration acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterReply {
    /// The view id all later verbs use.
    pub view: u64,
    /// Epoch the initial materialization is valid at.
    pub epoch: Epoch,
    /// The maintenance strategy of the view; always `counting`.
    pub strategy: String,
}

/// A `read` answer: the full result set at `epoch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadReply {
    /// Epoch the snapshot is valid at.
    pub epoch: Epoch,
    /// The sorted result rows.
    pub rows: Vec<Row>,
}

/// One result-churn event from a subscription stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaEvent {
    /// Commit epoch that produced the churn.
    pub epoch: Epoch,
    /// Rows that entered the result.
    pub added: Vec<Row>,
    /// Rows that left the result.
    pub removed: Vec<Row>,
}

fn protocol_err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

impl DcqClient {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<DcqClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(DcqClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            retry_observations: Vec::new(),
        })
    }

    /// Connect, retrying briefly — for harnesses racing server startup or
    /// saturating the listener backlog.
    pub fn connect_retry(addr: SocketAddr, attempts: u32) -> io::Result<DcqClient> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            match DcqClient::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(2 << attempt.min(6)));
                }
            }
        }
        Err(last.unwrap_or_else(|| protocol_err("connect failed")))
    }

    /// Set the read timeout on the underlying socket.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    fn round_trip(&mut self, request: &Request) -> io::Result<Json> {
        write_frame(&mut self.writer, &request.to_json())?;
        match read_frame(&mut self.reader)? {
            Some((json, _)) => Ok(json),
            None => Err(protocol_err("server closed the connection")),
        }
    }

    fn expect_ok(reply: Json) -> io::Result<Json> {
        match reply.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(reply),
            _ => {
                let msg = reply
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("malformed reply");
                Err(protocol_err(format!("server error: {msg}")))
            }
        }
    }

    /// Register a DCQ; `strategy` is `None` or `counting` (the only
    /// maintenance engine) — anything else is an `unknown strategy` error.
    pub fn register(&mut self, query: &str, strategy: Option<&str>) -> io::Result<RegisterReply> {
        let reply = Self::expect_ok(self.round_trip(&Request::Register {
            query: query.to_string(),
            strategy: strategy.map(str::to_string),
        })?)?;
        Ok(RegisterReply {
            view: field_u64(&reply, "view")?,
            epoch: field_u64(&reply, "epoch")?,
            strategy: reply
                .get("strategy")
                .and_then(Json::as_str)
                .ok_or_else(|| protocol_err("reply missing field `strategy`"))?
                .to_string(),
        })
    }

    /// Drop a view registration.
    pub fn deregister(&mut self, view: u64) -> io::Result<()> {
        Self::expect_ok(self.round_trip(&Request::Deregister { view })?)?;
        Ok(())
    }

    /// Push one delta batch; distinguishes commit from admission-control
    /// pushback (any other server error is an `Err`).
    pub fn push(&mut self, batch: &DeltaBatch) -> io::Result<PushOutcome> {
        let reply = self.round_trip(&Request::Push {
            batch: batch.clone(),
        })?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            return Ok(PushOutcome::Acked(PushReply {
                epoch: field_u64(&reply, "epoch")?,
                result_added: field_u64(&reply, "result_added")? as usize,
                result_removed: field_u64(&reply, "result_removed")? as usize,
            }));
        }
        if reply.get("error").and_then(Json::as_str) == Some("overloaded") {
            return Ok(PushOutcome::Overloaded {
                retry_after_ms: reply
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(1),
            });
        }
        Err(protocol_err(format!(
            "server error: {}",
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("malformed reply")
        )))
    }

    /// Push with bounded retry on `overloaded`, honouring the server's
    /// `retry_after_ms` hints (capped at [`RETRY_HINT_CAP_MS`], jittered via
    /// [`retry_backoff_ms`]).  Returns the ack and how many times admission
    /// control pushed back; each honoured hint is recorded in
    /// [`DcqClient::retry_observations`].
    pub fn push_with_retry(
        &mut self,
        batch: &DeltaBatch,
        max_retries: u32,
    ) -> io::Result<(PushReply, u32)> {
        let mut rejections = 0u32;
        let salt_base = self as *const DcqClient as u64;
        loop {
            match self.push(batch)? {
                PushOutcome::Acked(reply) => return Ok((reply, rejections)),
                PushOutcome::Overloaded { retry_after_ms } => {
                    rejections += 1;
                    if rejections > max_retries {
                        return Err(protocol_err(format!(
                            "still overloaded after {max_retries} retries"
                        )));
                    }
                    let backoff = retry_backoff_ms(retry_after_ms, salt_base ^ rejections as u64);
                    let slept = std::time::Instant::now();
                    std::thread::sleep(Duration::from_millis(backoff));
                    self.retry_observations.push(RetryObservation {
                        hint_ms: retry_after_ms,
                        slept_ms: slept.elapsed().as_millis() as u64,
                    });
                }
            }
        }
    }

    /// Every admission-control pushback this connection honoured so far:
    /// the server's hint and the wall time actually slept before the retry.
    pub fn retry_observations(&self) -> &[RetryObservation] {
        &self.retry_observations
    }

    /// Read a view's full result set, optionally gated on a minimum epoch.
    pub fn read(&mut self, view: u64, min_epoch: Option<Epoch>) -> io::Result<ReadReply> {
        let reply = Self::expect_ok(self.round_trip(&Request::Read { view, min_epoch })?)?;
        let rows = reply
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| protocol_err("read reply missing rows"))?
            .iter()
            .map(|j| row_from_json(j).map_err(protocol_err))
            .collect::<io::Result<Vec<Row>>>()?;
        Ok(ReadReply {
            epoch: field_u64(&reply, "epoch")?,
            rows,
        })
    }

    /// Prometheus text exposition (engine + server registries).
    pub fn metrics(&mut self) -> io::Result<String> {
        let reply = Self::expect_ok(self.round_trip(&Request::Metrics)?)?;
        Ok(reply
            .get("metrics")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string())
    }

    /// Test/debug: stall the ingest thread for `ms` milliseconds.
    pub fn stall(&mut self, ms: u64) -> io::Result<()> {
        Self::expect_ok(self.round_trip(&Request::Stall { ms })?)?;
        Ok(())
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        Self::expect_ok(self.round_trip(&Request::Shutdown)?)?;
        Ok(())
    }

    /// Turn this connection into a subscription stream for `view`.  Returns
    /// the snapshot epoch the stream starts after; use
    /// [`Subscription::next_event`]
    /// for events.  The connection is consumed — streams are dedicated.
    pub fn subscribe(mut self, view: u64) -> io::Result<Subscription> {
        let reply = Self::expect_ok(self.round_trip(&Request::Subscribe { view })?)?;
        let epoch = field_u64(&reply, "epoch")?;
        Ok(Subscription {
            reader: self.reader,
            start_epoch: epoch,
        })
    }
}

fn field_u64(json: &Json, field: &str) -> io::Result<u64> {
    json.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| protocol_err(format!("reply missing field `{field}`")))
}

/// The receive half of a `subscribe`d connection.
pub struct Subscription {
    reader: BufReader<TcpStream>,
    start_epoch: Epoch,
}

impl Subscription {
    /// Epoch of the snapshot the stream starts after (events carry later
    /// epochs).
    pub fn start_epoch(&self) -> Epoch {
        self.start_epoch
    }

    /// Block for the next result-churn event; `Ok(None)` when the server
    /// closed the stream.
    pub fn next_event(&mut self) -> io::Result<Option<DeltaEvent>> {
        let Some((json, _)) = read_frame(&mut self.reader)? else {
            return Ok(None);
        };
        if json.get("event").and_then(Json::as_str) != Some("delta") {
            return Err(protocol_err("unexpected frame on subscription stream"));
        }
        let rows = |field: &str| -> io::Result<Vec<Row>> {
            json.get(field)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|j| row_from_json(j).map_err(protocol_err))
                .collect()
        };
        Ok(Some(DeltaEvent {
            epoch: field_u64(&json, "epoch")?,
            added: rows("added")?,
            removed: rows("removed")?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use std::net::TcpListener;

    #[test]
    fn backoff_honours_the_hint_up_to_the_cap() {
        for salt in 0..64u64 {
            // An honest hint is honoured in full, plus at most 25% jitter.
            let b = retry_backoff_ms(40, salt);
            assert!((40..=50).contains(&b), "backoff {b} for hint 40");
            // A hostile hint is capped, jitter included.
            let b = retry_backoff_ms(u64::MAX, salt);
            assert!((RETRY_HINT_CAP_MS..=RETRY_HINT_CAP_MS + RETRY_HINT_CAP_MS / 4).contains(&b));
            // A zero hint still backs off a little instead of busy-spinning.
            assert!(retry_backoff_ms(0, salt) >= 1);
        }
        // Different salts actually spread the herd.
        let spread: std::collections::HashSet<u64> =
            (0..64).map(|salt| retry_backoff_ms(1000, salt)).collect();
        assert!(spread.len() > 8, "jitter must vary with the salt");
    }

    #[test]
    fn register_reply_without_strategy_is_a_protocol_error() {
        // A fake server answering the one `register` with `view` and `epoch`
        // but no `strategy`.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap().expect("a request frame");
            let reply = proto::ok([("view", Json::Int(0)), ("epoch", Json::Int(0))]);
            write_frame(&mut stream, &reply).unwrap();
        });
        let mut client = DcqClient::connect(addr).unwrap();
        let err = client
            .register("Q(a) :- R(a) EXCEPT S(a)", None)
            .unwrap_err();
        assert!(
            err.to_string().contains("missing field `strategy`"),
            "{err}"
        );
        server.join().unwrap();
    }
}
