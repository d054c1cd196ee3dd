//! `dcq-server`: a concurrent DCQ view service over TCP.
//!
//! The crate turns a [`dcq_engine::DcqEngine`] into a long-running service:
//!
//! * **[`proto`]** — the wire format: length-prefixed JSON frames (hand-rolled
//!   std-only codec in [`json`]) carrying `register` / `deregister` / `push` /
//!   `read` / `subscribe` / `metrics` / `stall` / `shutdown` verbs.
//! * **[`server`]** — the threading model: one ingestion thread owning the
//!   engine behind a *bounded* command queue (admission control answers
//!   `overloaded` with a telemetry-derived `retry_after_ms` when it fills),
//!   and per-connection handler threads that answer reads from published
//!   immutable result snapshots without ever blocking ingest.
//! * **[`durability`]** — crash safety: every acked batch is WAL-logged
//!   before it is applied, and the engine's scheduled compaction writes
//!   checkpoints and rotates the log so that
//!   `checkpoint ⊕ retained WAL tail = current state` at every instant;
//!   [`durability::recover`] rebuilds an engine from those two files.
//! * **[`client`]** — a small blocking client used by the tests, the example
//!   server and the `service` workload of `benchmark/`.
//! * **[`loadgen::parse_metric`]** — reads one scalar out of a `metrics`
//!   reply, so callers judge saturation by the server's own telemetry.
//!
//! Everything is `std`-only: TCP via `std::net`, threads + channels via
//! `std::sync`, the JSON codec and binary file formats hand-rolled.

pub mod client;
pub mod durability;
pub mod json;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use client::DcqClient;
pub use durability::{recover, DurabilityConfig, RecoveryReport};
pub use server::{DcqServer, ResultSnapshot, ServerConfig};
