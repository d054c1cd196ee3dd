//! The wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! Every message — in both directions — is one frame: a big-endian `u32`
//! payload length followed by that many bytes of UTF-8 JSON (one object, no
//! trailing newline inside the frame).  Length prefixing keeps reads exact
//! and lets a server bound per-connection memory up front
//! ([`MAX_FRAME_BYTES`]).
//!
//! ## Verbs
//!
//! | request `op`  | fields                          | success reply                                  |
//! |---------------|---------------------------------|------------------------------------------------|
//! | `register`    | `query`, optional `strategy`    | `{"ok":true,"view":N,"epoch":E,"strategy":S,"rows":K}` |
//! | `deregister`  | `view`                          | `{"ok":true}`                                  |
//! | `push`        | `batch` (see below)             | `{"ok":true,"epoch":E}`                        |
//! | `read`        | `view`, optional `min_epoch`    | `{"ok":true,"epoch":E,"rows":[[…],…]}`         |
//! | `subscribe`   | `view`                          | ack, then a stream of `delta` events           |
//! | `metrics`     | —                               | `{"ok":true,"text":"…Prometheus exposition…"}` |
//! | `stall`       | `ms` (test/debug)               | `{"ok":true}` once the stall *starts*          |
//! | `shutdown`    | —                               | `{"ok":true}`; server drains and exits         |
//!
//! A `batch` is `[["Relation", sign, [value,…]], …]` with `sign ∈ {1, -1}`;
//! values are integers, strings, or `null`.  Overload replies are
//! `{"ok":false,"error":"overloaded","retry_after_ms":T}`; other failures are
//! `{"ok":false,"error":"…"}`.  Subscription events are
//! `{"event":"delta","view":N,"epoch":E,"added":[[…]],"removed":[[…]]}`.

use crate::json::Json;
use dcq_storage::{DeltaBatch, Row, Value};
use std::io::{self, Read, Write};

/// Hard per-frame size cap (64 MiB): a declared length beyond this aborts the
/// connection instead of attempting the allocation.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Write one frame (`u32` BE length + JSON bytes) and flush.
pub fn write_frame<W: Write>(w: &mut W, json: &Json) -> io::Result<usize> {
    let body = json.render();
    let len = body.len() as u32;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()?;
    Ok(4 + body.len())
}

/// Read one frame.  `Ok(None)` on a clean EOF at a frame boundary; anything
/// malformed (oversized length, short read, bad UTF-8/JSON) is an error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(Json, usize)>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame-header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "declared frame length exceeds MAX_FRAME_BYTES",
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = std::str::from_utf8(&body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    let json = Json::parse(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON frame: {e}")))?;
    Ok(Some((json, 4 + body.len())))
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register a DCQ as a maintained view; returns a view id.
    Register {
        /// The DCQ source text (`Q(..) :- … EXCEPT …`).
        query: String,
        /// `"counting"` (the default, and the only maintenance engine); any
        /// other value is rejected with `unknown strategy`.
        strategy: Option<String>,
    },
    /// Drop a view registration.
    Deregister {
        /// The view id from `register`.
        view: u64,
    },
    /// Push one delta batch; the ack carries the committed epoch.
    Push {
        /// The signed tuple operations.
        batch: DeltaBatch,
    },
    /// Read a view's full result set at or after an epoch.
    Read {
        /// The view id.
        view: u64,
        /// Wait until the committed epoch reaches this before answering.
        min_epoch: Option<u64>,
    },
    /// Turn this connection into a per-view result-churn stream.
    Subscribe {
        /// The view id.
        view: u64,
    },
    /// Prometheus text exposition (engine + server registries).
    Metrics,
    /// Test/debug verb: make the ingest thread sleep for `ms` milliseconds
    /// (acked when the stall *starts*), so tests can fill the ingest queue.
    Stall {
        /// Milliseconds to stall ingest.
        ms: u64,
    },
    /// Drain and stop the server.
    Shutdown,
}

impl Request {
    /// Decode a request frame.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        match op {
            "register" => Ok(Request::Register {
                query: json
                    .get("query")
                    .and_then(Json::as_str)
                    .ok_or("register: missing string field `query`")?
                    .to_string(),
                strategy: json
                    .get("strategy")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            }),
            "deregister" => Ok(Request::Deregister {
                view: required_u64(json, "view")?,
            }),
            "push" => Ok(Request::Push {
                batch: batch_from_json(json.get("batch").ok_or("push: missing field `batch`")?)?,
            }),
            "read" => Ok(Request::Read {
                view: required_u64(json, "view")?,
                min_epoch: json.get("min_epoch").and_then(Json::as_u64),
            }),
            "subscribe" => Ok(Request::Subscribe {
                view: required_u64(json, "view")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "stall" => Ok(Request::Stall {
                ms: required_u64(json, "ms")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Encode a request frame (the client half; servers only decode).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Register { query, strategy } => {
                let mut pairs = vec![("op", Json::str("register")), ("query", Json::str(query))];
                if let Some(s) = strategy {
                    pairs.push(("strategy", Json::str(s)));
                }
                Json::obj(pairs)
            }
            Request::Deregister { view } => Json::obj([
                ("op", Json::str("deregister")),
                ("view", Json::Int(*view as i64)),
            ]),
            Request::Push { batch } => {
                Json::obj([("op", Json::str("push")), ("batch", batch_to_json(batch))])
            }
            Request::Read { view, min_epoch } => {
                let mut pairs = vec![("op", Json::str("read")), ("view", Json::Int(*view as i64))];
                if let Some(e) = min_epoch {
                    pairs.push(("min_epoch", Json::Int(*e as i64)));
                }
                Json::obj(pairs)
            }
            Request::Subscribe { view } => Json::obj([
                ("op", Json::str("subscribe")),
                ("view", Json::Int(*view as i64)),
            ]),
            Request::Metrics => Json::obj([("op", Json::str("metrics"))]),
            Request::Stall { ms } => {
                Json::obj([("op", Json::str("stall")), ("ms", Json::Int(*ms as i64))])
            }
            Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
        }
    }
}

fn required_u64(json: &Json, field: &str) -> Result<u64, String> {
    json.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing non-negative integer field `{field}`"))
}

/// `{"ok":true, …fields}`.
pub fn ok(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// `{"ok":false,"error":msg}`.
pub fn error(msg: impl Into<String>) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(msg.into()))])
}

/// The admission-control rejection: `{"ok":false,"error":"overloaded",
/// "retry_after_ms":T}`.
pub fn overloaded(retry_after_ms: u64) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str("overloaded")),
        ("retry_after_ms", Json::Int(retry_after_ms as i64)),
    ])
}

/// Serialize a [`Value`] for the wire.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Str(s) => Json::str(s.as_ref()),
        Value::Null => Json::Null,
    }
}

/// Decode a wire value.
pub fn value_from_json(json: &Json) -> Result<Value, String> {
    match json {
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Str(s) => Ok(Value::str(s)),
        Json::Null => Ok(Value::Null),
        other => Err(format!("row values are int/string/null, got {other:?}")),
    }
}

/// Serialize a [`Row`] as a JSON array of values.
pub fn row_to_json(row: &Row) -> Json {
    Json::Arr(row.iter().map(value_to_json).collect())
}

/// Decode a wire row.
pub fn row_from_json(json: &Json) -> Result<Row, String> {
    let items = json.as_arr().ok_or("a row must be a JSON array")?;
    let values = items
        .iter()
        .map(value_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Row::new(values))
}

/// Serialize rows as a JSON array of arrays.
pub fn rows_to_json<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Json {
    Json::Arr(rows.into_iter().map(row_to_json).collect())
}

/// Serialize a batch as `[["Relation", sign, [values…]], …]`.
pub fn batch_to_json(batch: &DeltaBatch) -> Json {
    let mut ops = Vec::with_capacity(batch.len());
    for (relation, rel_ops) in batch.iter() {
        for (row, sign) in rel_ops {
            ops.push(Json::Arr(vec![
                Json::str(relation),
                Json::Int(*sign),
                row_to_json(row),
            ]));
        }
    }
    Json::Arr(ops)
}

/// Decode a wire batch.
pub fn batch_from_json(json: &Json) -> Result<DeltaBatch, String> {
    let ops = json.as_arr().ok_or("`batch` must be a JSON array")?;
    let mut batch = DeltaBatch::new();
    for op in ops {
        let parts = op
            .as_arr()
            .filter(|p| p.len() == 3)
            .ok_or("each batch op must be a 3-element array [relation, sign, row]")?;
        let relation = parts[0]
            .as_str()
            .ok_or("batch op relation must be a string")?;
        let sign = parts[1]
            .as_i64()
            .filter(|s| *s == 1 || *s == -1)
            .ok_or("batch op sign must be 1 or -1")?;
        batch.push(relation, row_from_json(&parts[2])?, sign);
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcq_storage::row::int_row;

    #[test]
    fn frames_round_trip() {
        let msg = Request::Read {
            view: 7,
            min_epoch: Some(3),
        }
        .to_json();
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, &msg).unwrap();
        assert_eq!(wrote, buf.len());
        let mut r = buf.as_slice();
        let (back, read) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(read, wrote);
        assert_eq!(back, msg);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::str("x")).unwrap();
        for cut in 1..buf.len() {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
        // An absurd declared length is rejected before allocation.
        let huge = (MAX_FRAME_BYTES + 1).to_be_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([1, 2]));
        batch.delete("Edge", Row::new(vec![Value::str("a"), Value::Null]));
        let requests = [
            Request::Register {
                query: "Q(a) :- R(a) EXCEPT S(a)".into(),
                strategy: Some("counting".into()),
            },
            Request::Register {
                query: "Q(a) :- R(a) EXCEPT S(a)".into(),
                strategy: None,
            },
            Request::Deregister { view: 4 },
            Request::Push { batch },
            Request::Read {
                view: 1,
                min_epoch: None,
            },
            Request::Subscribe { view: 0 },
            Request::Metrics,
            Request::Stall { ms: 250 },
            Request::Shutdown,
        ];
        for req in requests {
            let json = req.to_json();
            assert_eq!(Request::from_json(&json).unwrap(), req, "{json:?}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (text, needle) in [
            (r#"{"verb":"push"}"#, "op"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"read"}"#, "view"),
            (r#"{"op":"push","batch":[["R",0,[1]]]}"#, "sign"),
            (r#"{"op":"push","batch":[["R",1,1]]}"#, "array"),
            (
                r#"{"op":"push","batch":[["R",1,[true]]]}"#,
                "int/string/null",
            ),
        ] {
            let json = Json::parse(text).unwrap();
            let err = Request::from_json(&json).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn reply_builders() {
        assert_eq!(
            ok([("epoch", Json::Int(9))]).render(),
            r#"{"ok":true,"epoch":9}"#
        );
        assert_eq!(error("nope").render(), r#"{"ok":false,"error":"nope"}"#);
        let o = overloaded(12);
        assert_eq!(o.get("error").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(o.get("retry_after_ms").and_then(Json::as_u64), Some(12));
    }
}
