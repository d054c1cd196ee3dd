//! The concurrent view service itself.
//!
//! # Threading model
//!
//! One **ingestion thread** owns the [`DcqEngine`] outright (`&mut` — no lock
//! around the engine, ever) and drains a *bounded* command queue.  Mutating
//! verbs (`push`, `register`, `deregister`) and engine-introspection verbs
//! (`metrics`) travel through that queue; each command carries a reply slot
//! its submitter blocks on.
//!
//! Every client connection gets a handler thread, and those handlers *are*
//! the query workers: `read` and `subscribe` are answered entirely from
//! immutable [`ResultSnapshot`]s the ingest thread publishes after each
//! commit, so reads never enqueue behind writes and never touch the engine.
//!
//! # Admission control
//!
//! The ingest queue is a `sync_channel` of configurable depth.  `push` uses
//! `try_send`: a full queue answers `overloaded` immediately with a
//! `retry_after_ms` hint derived from the ingest thread's EWMA of apply time
//! (its commit + fan-out + policy phases, the same work the engine's
//! `dcq_engine_commit_ns`/`dcq_engine_fanout_ns` histograms break down)
//! multiplied by the queue depth — i.e. "how long until your slot would
//! drain".  Control verbs use a blocking send; they are rare and must not be
//! droppable.
//!
//! # Durability
//!
//! With a [`DurabilityConfig`], the ingest thread appends every batch to the
//! WAL **before** applying it, and the engine's scheduled-compaction hook
//! writes checkpoints + rotates the WAL (see [`crate::durability`]).  Batches
//! are validated against the store schema *before* the append, so every WAL
//! record corresponds to exactly one epoch advance — the arithmetic crash
//! recovery leans on.  [`DcqServer::shutdown`] writes a final checkpoint;
//! [`DcqServer::kill`] deliberately does not (crash semantics, for tests).

use crate::durability::{Durability, DurabilityConfig};
use crate::json::Json;
use crate::proto::{self, read_frame, rows_to_json, write_frame, Request};
use dcq_core::{parse_dcq, IncrementalStrategy};
use dcq_engine::{CompactionPolicy, DcqEngine, ViewHandle};
use dcq_storage::fanout::WorkerPool;
use dcq_storage::{DeltaBatch, Epoch, Row};
use dcq_telemetry::MetricsRegistry;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for [`DcqServer::start`].
#[derive(Debug)]
pub struct ServerConfig {
    /// Bound of the ingest command queue; a full queue rejects pushes with
    /// `overloaded` (admission control) rather than queueing unboundedly.
    pub ingest_capacity: usize,
    /// When set, every acked batch is on disk before the ack (WAL) and the
    /// engine's compaction policy checkpoints + rotates through it.
    pub durability: Option<DurabilityConfig>,
    /// Scheduled compaction bound installed on the engine (checked in the
    /// apply policy tail).  Unbounded by default.
    pub compaction: CompactionPolicy,
    /// How long a `read` with `min_epoch` waits for the commit gate before
    /// giving up with an error.
    pub read_wait_timeout: Duration,
    /// Stack size for per-connection handler threads; kept small so a
    /// thousand idle connections stay cheap.
    pub handler_stack_bytes: usize,
    /// Engine worker width (fan-out, sharded commit, fold partitions).
    /// `None` reserves one core for the ingest thread: the engine gets
    /// `default_workers() - 1` (min 1) so its pool never oversubscribes the
    /// host while ingest owns a core.  Set explicitly to override.
    pub engine_workers: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ingest_capacity: 256,
            durability: None,
            compaction: CompactionPolicy::default(),
            read_wait_timeout: Duration::from_secs(5),
            handler_stack_bytes: 256 * 1024,
            engine_workers: None,
        }
    }
}

impl ServerConfig {
    /// Default config with the given ingest queue bound.
    pub fn with_capacity(ingest_capacity: usize) -> Self {
        ServerConfig {
            ingest_capacity,
            ..ServerConfig::default()
        }
    }
}

/// An immutable published view result: the full (deduplicated, sorted) result
/// set as of `epoch`.  Handlers serve `read` from the newest snapshot without
/// touching the engine.
#[derive(Debug)]
pub struct ResultSnapshot {
    /// Commit epoch this snapshot is valid at.
    pub epoch: Epoch,
    /// Sorted result rows (shared — republished unchanged results reuse it).
    pub rows: Arc<Vec<Row>>,
}

/// One result-churn event on a subscription stream.
#[derive(Clone, Debug)]
struct SubEvent {
    epoch: Epoch,
    view: u64,
    added: Arc<Vec<Row>>,
    removed: Arc<Vec<Row>>,
}

/// A reply slot a handler blocks on while the ingest thread works: a
/// `Mutex<Option<T>>` + condvar pair.
struct ReplySlot<T>(Arc<(Mutex<Option<T>>, Condvar)>);

impl<T> ReplySlot<T> {
    fn new() -> Self {
        ReplySlot(Arc::new((Mutex::new(None), Condvar::new())))
    }

    fn clone_slot(&self) -> Self {
        ReplySlot(Arc::clone(&self.0))
    }

    fn fill(&self, value: T) {
        let (lock, cv) = &*self.0;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = Some(value);
        cv.notify_all();
    }

    /// Wait for the ingest thread's answer.  The generous bound only trips if
    /// the ingest thread died without replying.
    fn wait(self) -> Option<T> {
        let (lock, cv) = &*self.0;
        let mut guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        let deadline = Instant::now() + Duration::from_secs(120);
        while guard.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            guard = g;
        }
        guard.take()
    }
}

/// A successful push acknowledgement.
struct PushAck {
    epoch: Epoch,
    result_added: usize,
    result_removed: usize,
}

/// A successful registration.
struct RegisterAck {
    view: u64,
    epoch: Epoch,
    strategy: String,
}

enum Command {
    Push {
        batch: DeltaBatch,
        reply: ReplySlot<Result<PushAck, String>>,
    },
    Register {
        query: String,
        strategy: Option<String>,
        reply: ReplySlot<Result<RegisterAck, String>>,
    },
    Deregister {
        view: u64,
        reply: ReplySlot<Result<(), String>>,
    },
    Metrics {
        reply: ReplySlot<String>,
    },
    Stall {
        ms: u64,
        reply: ReplySlot<()>,
    },
    Shutdown {
        reply: ReplySlot<()>,
    },
    /// Crash-semantics stop: break the ingest loop *without* a final
    /// checkpoint, leaving the durability directory as a crash would.
    Kill,
}

/// Counters/gauges/histograms owned by the server layer (`dcq_server_*`);
/// rendered by the `metrics` verb appended to the engine's exposition.
struct ServerMetrics {
    registry: MetricsRegistry,
    requests: Arc<dcq_telemetry::Counter>,
    pushes: Arc<dcq_telemetry::Counter>,
    overloaded: Arc<dcq_telemetry::Counter>,
    reads: Arc<dcq_telemetry::Counter>,
    read_gate_timeouts: Arc<dcq_telemetry::Counter>,
    subscriber_events: Arc<dcq_telemetry::Counter>,
    wal_records: Arc<dcq_telemetry::Counter>,
    wal_bytes: Arc<dcq_telemetry::Counter>,
    connections_total: Arc<dcq_telemetry::Counter>,
    active_connections: Arc<dcq_telemetry::Gauge>,
    queue_depth: Arc<dcq_telemetry::Gauge>,
    apply_ewma_ns: Arc<dcq_telemetry::Gauge>,
    push_wait_ns: Arc<dcq_telemetry::Histogram>,
    read_ns: Arc<dcq_telemetry::Histogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        ServerMetrics {
            requests: registry.counter("dcq_server_requests_total", "Requests decoded"),
            pushes: registry.counter("dcq_server_push_total", "Push batches accepted"),
            overloaded: registry.counter(
                "dcq_server_overloaded_total",
                "Pushes rejected by admission control (full ingest queue)",
            ),
            reads: registry.counter("dcq_server_read_total", "Read requests answered"),
            read_gate_timeouts: registry.counter(
                "dcq_server_read_gate_timeouts_total",
                "Reads that timed out waiting for min_epoch",
            ),
            subscriber_events: registry.counter(
                "dcq_server_subscriber_events_total",
                "Result-churn events delivered to subscribers",
            ),
            wal_records: registry.counter("dcq_server_wal_records_total", "WAL frames appended"),
            wal_bytes: registry.counter("dcq_server_wal_bytes_total", "WAL bytes appended"),
            connections_total: registry
                .counter("dcq_server_connections_total", "Connections accepted"),
            active_connections: registry.gauge(
                "dcq_server_active_connections",
                "Currently open connections",
            ),
            queue_depth: registry.gauge(
                "dcq_server_ingest_queue_depth",
                "Commands currently queued for the ingest thread",
            ),
            apply_ewma_ns: registry.gauge(
                "dcq_server_apply_ewma_ns",
                "EWMA of per-batch apply wall time (drives retry_after_ms)",
            ),
            push_wait_ns: registry.histogram(
                "dcq_server_push_wait_ns",
                "Handler-observed push latency: enqueue to ack",
            ),
            read_ns: registry.histogram(
                "dcq_server_read_ns",
                "Handler-observed read latency (incl. min_epoch gate)",
            ),
            registry,
        }
    }
}

/// State shared between the ingest thread, the acceptor and all handlers.
struct Shared {
    /// Store schema (relation → arity), fixed at start; handlers pre-validate
    /// pushes against it so every enqueued (and WAL-logged) batch advances
    /// the epoch by exactly one.
    schema: HashMap<String, usize>,
    /// Published snapshots, keyed by protocol view id.
    views: Mutex<HashMap<u64, Arc<ResultSnapshot>>>,
    /// Commit gate: the newest committed epoch, for `read { min_epoch }`.
    committed: Mutex<Epoch>,
    committed_cv: Condvar,
    /// Per-view subscriber channels, fed by the ingest thread.
    subscribers: Mutex<HashMap<u64, Vec<mpsc::Sender<SubEvent>>>>,
    metrics: ServerMetrics,
    /// EWMA of apply wall nanos (admission-control input).
    apply_ewma_ns: AtomicU64,
    ingest_capacity: usize,
    stop: AtomicBool,
    read_wait_timeout: Duration,
}

impl Shared {
    fn publish_epoch(&self, epoch: Epoch) {
        let mut committed = self.committed.lock().unwrap_or_else(|p| p.into_inner());
        if epoch > *committed {
            *committed = epoch;
            self.committed_cv.notify_all();
        }
    }

    fn committed(&self) -> Epoch {
        *self.committed.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Block until the committed epoch reaches `min`; `None` on timeout.
    fn wait_for_epoch(&self, min: Epoch) -> Option<Epoch> {
        let mut committed = self.committed.lock().unwrap_or_else(|p| p.into_inner());
        let deadline = Instant::now() + self.read_wait_timeout;
        while *committed < min {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .committed_cv
                .wait_timeout(committed, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            committed = g;
        }
        Some(*committed)
    }

    /// The `retry_after_ms` hint: EWMA apply time × queue capacity — roughly
    /// how long a full queue takes to drain — clamped to [1ms, 10s].
    fn retry_after_ms(&self) -> u64 {
        let ewma = self.apply_ewma_ns.load(Ordering::Relaxed);
        let drain_ns = ewma.saturating_mul(self.ingest_capacity as u64);
        (drain_ns / 1_000_000).clamp(1, 10_000)
    }
}

/// A running DCQ view service bound to a loopback TCP port.
pub struct DcqServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    tx: SyncSender<Command>,
    ingest: Option<JoinHandle<DcqEngine>>,
    acceptor: Option<JoinHandle<()>>,
}

impl DcqServer {
    /// Start serving `engine` on an OS-assigned loopback port.
    ///
    /// When `config.durability` is set, a fresh checkpoint of the engine's
    /// current state is written first (so the on-disk pair is consistent
    /// before the first client connects) and the engine's checkpoint sink +
    /// compaction policy are installed.
    pub fn start(mut engine: DcqEngine, config: ServerConfig) -> io::Result<DcqServer> {
        let durability = match &config.durability {
            Some(cfg) => {
                let d = Durability::initialize(cfg, &engine)?;
                engine.set_checkpoint_sink(Some(d.sink()));
                Some(d)
            }
            None => None,
        };
        engine.set_compaction_policy(config.compaction);
        // The ingest thread below owns a core of its own; with the default
        // width the engine pool would oversubscribe by one, so reserve it.
        let workers = config
            .engine_workers
            .unwrap_or_else(|| WorkerPool::default_workers().saturating_sub(1).max(1));
        engine.set_workers(workers);

        let schema = engine
            .database()
            .iter()
            .map(|(name, rel)| (name.clone(), rel.schema().arity()))
            .collect();
        let shared = Arc::new(Shared {
            schema,
            views: Mutex::new(HashMap::new()),
            committed: Mutex::new(engine.epoch()),
            committed_cv: Condvar::new(),
            subscribers: Mutex::new(HashMap::new()),
            metrics: ServerMetrics::new(),
            apply_ewma_ns: AtomicU64::new(0),
            ingest_capacity: config.ingest_capacity,
            stop: AtomicBool::new(false),
            read_wait_timeout: config.read_wait_timeout,
        });

        let (tx, rx) = mpsc::sync_channel::<Command>(config.ingest_capacity.max(1));
        let ingest = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("dcq-ingest".into())
                .spawn(move || ingest_loop(engine, durability, rx, shared))?
        };

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let stack = config.handler_stack_bytes;
            thread::Builder::new()
                .name("dcq-accept".into())
                .spawn(move || accept_loop(listener, tx, shared, stack))?
        };

        Ok(DcqServer {
            addr,
            shared,
            tx,
            ingest: Some(ingest),
            acceptor: Some(acceptor),
        })
    }

    /// The loopback address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The newest committed epoch.
    pub fn committed_epoch(&self) -> Epoch {
        self.shared.committed()
    }

    /// Graceful stop: drain queued commands, write a final checkpoint (when
    /// durable), and hand the engine back.
    pub fn shutdown(mut self) -> io::Result<DcqEngine> {
        let reply = ReplySlot::new();
        // A full queue must not wedge shutdown; blocking send drains in turn.
        // A failed send means the ingest loop already exited (e.g. a client
        // issued the `shutdown` verb) — nothing to wait for then.
        if self
            .tx
            .send(Command::Shutdown {
                reply: reply.clone_slot(),
            })
            .is_ok()
        {
            reply.wait();
        }
        self.stop_acceptor();
        let engine = self.join_ingest()?;
        Ok(engine)
    }

    /// Crash-semantics stop for recovery tests: the ingest loop breaks
    /// *without* a final checkpoint and queued-but-unacked work is dropped,
    /// leaving the durability directory exactly as a `kill -9` would.
    pub fn kill(mut self) -> io::Result<()> {
        let _ = self.tx.send(Command::Kill);
        self.stop_acceptor();
        self.join_ingest()?;
        Ok(())
    }

    fn stop_acceptor(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    fn join_ingest(&mut self) -> io::Result<DcqEngine> {
        match self.ingest.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("ingest thread panicked")),
            None => Err(io::Error::other("server already stopped")),
        }
    }
}

impl Drop for DcqServer {
    fn drop(&mut self) {
        if self.ingest.is_some() {
            // Blocking send, NOT try_send: a full queue would drop the Kill
            // silently, and the join below would then wedge forever on an
            // ingest loop blocked in recv() (this handle's sender keeps the
            // channel open).  The ingest thread drains the queue, so the send
            // completes; if the thread already exited, the send fails fast.
            let _ = self.tx.send(Command::Kill);
            self.stop_acceptor();
            if let Some(h) = self.ingest.take() {
                let _ = h.join();
            }
        }
    }
}

fn ewma_update(shared: &Shared, sample_ns: u64) {
    // α = 1/8, integer arithmetic: new = old + (sample − old)/8.
    let old = shared.apply_ewma_ns.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample_ns
    } else {
        (old * 7 + sample_ns) / 8
    };
    shared.apply_ewma_ns.store(new, Ordering::Relaxed);
    shared.metrics.apply_ewma_ns.set(new);
}

/// Sorted-merge diff: `(added, removed)` going from `old` to `new`.
fn diff_sorted(old: &[Row], new: &[Row]) -> (Vec<Row>, Vec<Row>) {
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                removed.push(old[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (added, removed)
}

fn strategy_name(s: IncrementalStrategy) -> &'static str {
    match s {
        IncrementalStrategy::EasyRerun => "rerun",
        IncrementalStrategy::Counting => "counting",
        IncrementalStrategy::Adaptive => "adaptive",
    }
}

/// The ingest thread: sole owner of the engine and (via the shared WAL
/// writer) the append side of durability.
fn ingest_loop(
    mut engine: DcqEngine,
    durability: Option<Durability>,
    rx: Receiver<Command>,
    shared: Arc<Shared>,
) -> DcqEngine {
    // Protocol id → (engine handle, last published rows), ingest-private.
    let mut views: HashMap<u64, (ViewHandle, Arc<Vec<Row>>)> = HashMap::new();
    let mut next_view: u64 = 1;
    // Once durability fails the service stops acking writes rather than
    // diverging from its log.
    let mut poisoned: Option<String> = None;

    // The loop ends on Shutdown/Kill, or when every sender is gone (server
    // handle dropped) — the latter also has crash semantics.
    while let Ok(cmd) = rx.recv() {
        shared.metrics.queue_depth.sub(1);
        match cmd {
            Command::Push { batch, reply } => {
                if let Some(why) = &poisoned {
                    reply.fill(Err(format!("service read-only: {why}")));
                    continue;
                }
                // Handlers pre-validate, but re-check here: the WAL append
                // below must only ever log batches that will commit.
                if let Err(e) = validate_batch(&batch, &shared.schema) {
                    reply.fill(Err(e));
                    continue;
                }
                if let Some(d) = &durability {
                    let appended = d
                        .wal
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .append(&batch);
                    let wrote = match appended {
                        Ok(wrote) => wrote,
                        Err(e) => {
                            let why = format!("WAL append failed: {e}");
                            poisoned = Some(why.clone());
                            reply.fill(Err(why));
                            continue;
                        }
                    };
                    shared.metrics.wal_records.inc();
                    shared.metrics.wal_bytes.add(wrote as u64);
                }
                let started = Instant::now();
                match engine.apply(&batch) {
                    Ok(report) => {
                        ewma_update(&shared, started.elapsed().as_nanos() as u64);
                        publish(&mut views, &engine, &shared, report.epoch);
                        shared.publish_epoch(report.epoch);
                        reply.fill(Ok(PushAck {
                            epoch: report.epoch,
                            result_added: report.result_added,
                            result_removed: report.result_removed,
                        }));
                    }
                    Err(e) => {
                        // Unreachable after validation; if it happens with a
                        // WAL record already written, the log no longer
                        // matches reality — stop acking writes.
                        let why = format!("apply failed: {e}");
                        if durability.is_some() {
                            poisoned = Some(why.clone());
                        }
                        reply.fill(Err(why));
                    }
                }
            }
            Command::Register {
                query,
                strategy,
                reply,
            } => {
                reply.fill(do_register(
                    &mut engine,
                    &shared,
                    &mut views,
                    &mut next_view,
                    &query,
                    strategy.as_deref(),
                ));
            }
            Command::Deregister { view, reply } => {
                let outcome = match views.remove(&view) {
                    Some((handle, _)) => {
                        shared
                            .views
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .remove(&view);
                        shared
                            .subscribers
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .remove(&view);
                        engine.deregister(handle).map_err(|e| e.to_string())
                    }
                    None => Err(format!("unknown view {view}")),
                };
                reply.fill(outcome);
            }
            Command::Metrics { reply } => {
                reply.fill(engine.metrics());
            }
            Command::Stall { ms, reply } => {
                // Ack first — the point of the verb is to wedge the *queue*,
                // and the test issuing it needs its ack to proceed.
                reply.fill(());
                thread::sleep(Duration::from_millis(ms));
            }
            Command::Shutdown { reply } => {
                if poisoned.is_none() {
                    if let Some(d) = &durability {
                        let mut sink = d.sink();
                        let _ = dcq_engine::CheckpointSink::write_checkpoint(
                            &mut *sink,
                            engine.epoch(),
                            engine.database(),
                        );
                    }
                }
                reply.fill(());
                break;
            }
            Command::Kill => break,
        }
    }
    // Drop all subscriber senders so streaming handlers see disconnect and
    // terminate their connections.
    shared
        .subscribers
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
    engine
}

fn do_register(
    engine: &mut DcqEngine,
    shared: &Shared,
    views: &mut HashMap<u64, (ViewHandle, Arc<Vec<Row>>)>,
    next_view: &mut u64,
    query: &str,
    strategy: Option<&str>,
) -> Result<RegisterAck, String> {
    let dcq = parse_dcq(query).map_err(|e| format!("parse error: {e}"))?;
    let handle = match strategy {
        None | Some("adaptive") => engine.register_adaptive(dcq),
        Some("rerun") => engine.register_with(dcq, IncrementalStrategy::EasyRerun),
        Some("counting") => engine.register_with(dcq, IncrementalStrategy::Counting),
        Some(other) => return Err(format!("unknown strategy `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    let strategy = engine
        .view(handle)
        .map(|v| strategy_name(v.strategy()))
        .unwrap_or("adaptive");
    let id = *next_view;
    *next_view += 1;
    let rows = Arc::new(
        engine
            .result(handle)
            .map_err(|e| e.to_string())?
            .sorted_rows(),
    );
    let epoch = engine.epoch();
    views.insert(id, (handle, Arc::clone(&rows)));
    shared
        .views
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(id, Arc::new(ResultSnapshot { epoch, rows }));
    Ok(RegisterAck {
        view: id,
        epoch,
        strategy: strategy.to_string(),
    })
}

/// After a commit: refresh every view's published snapshot and feed each
/// view's result churn to its subscribers.
fn publish(
    views: &mut HashMap<u64, (ViewHandle, Arc<Vec<Row>>)>,
    engine: &DcqEngine,
    shared: &Shared,
    epoch: Epoch,
) {
    let mut published = shared.views.lock().unwrap_or_else(|p| p.into_inner());
    let mut subscribers = shared.subscribers.lock().unwrap_or_else(|p| p.into_inner());
    for (&id, (handle, prev_rows)) in views.iter_mut() {
        let rows = match engine.result(*handle) {
            Ok(rel) => rel.sorted_rows(),
            Err(_) => continue,
        };
        let rows = if rows == **prev_rows {
            Arc::clone(prev_rows)
        } else {
            let fresh = Arc::new(rows);
            if let Some(subs) = subscribers.get_mut(&id) {
                let (added, removed) = diff_sorted(prev_rows, &fresh);
                if !added.is_empty() || !removed.is_empty() {
                    let event = SubEvent {
                        epoch,
                        view: id,
                        added: Arc::new(added),
                        removed: Arc::new(removed),
                    };
                    subs.retain(|tx| tx.send(event.clone()).is_ok());
                    shared.metrics.subscriber_events.add(subs.len() as u64);
                }
            }
            *prev_rows = Arc::clone(&fresh);
            fresh
        };
        published.insert(id, Arc::new(ResultSnapshot { epoch, rows }));
    }
}

fn validate_batch(batch: &DeltaBatch, schema: &HashMap<String, usize>) -> Result<(), String> {
    for (relation, ops) in batch.iter() {
        let Some(&arity) = schema.get(relation) else {
            return Err(format!("unknown relation `{relation}`"));
        };
        for (row, sign) in ops {
            if row.arity() != arity {
                return Err(format!(
                    "arity mismatch for `{relation}`: expected {arity}, got {}",
                    row.arity()
                ));
            }
            if *sign != 1 && *sign != -1 {
                return Err(format!("bad op sign {sign} for `{relation}`"));
            }
        }
    }
    Ok(())
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<Command>,
    shared: Arc<Shared>,
    stack_bytes: usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        shared.metrics.connections_total.inc();
        shared.metrics.active_connections.add(1);
        let tx = tx.clone();
        let conn_shared = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("dcq-conn".into())
            .stack_size(stack_bytes)
            .spawn(move || {
                let _ = handle_connection(stream, tx, &conn_shared);
                conn_shared.metrics.active_connections.sub(1);
            });
        if spawned.is_err() {
            shared.metrics.active_connections.sub(1);
        }
    }
}

/// Send a command on the bounded queue, blocking (control verbs).
fn send_blocking(tx: &SyncSender<Command>, shared: &Shared, cmd: Command) -> Result<(), String> {
    shared.metrics.queue_depth.add(1);
    tx.send(cmd).map_err(|_| {
        shared.metrics.queue_depth.sub(1);
        "server is shutting down".to_string()
    })
}

fn handle_connection(
    stream: TcpStream,
    tx: SyncSender<Command>,
    shared: &Shared,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some((json, _))) => json,
            Ok(None) => return Ok(()),
            Err(e) => {
                // Frame-level garbage: answer once, then drop the connection
                // (re-sync is impossible without framing).
                let _ = write_frame(&mut writer, &proto::error(format!("bad frame: {e}")));
                return Ok(());
            }
        };
        shared.metrics.requests.inc();
        let request = match Request::from_json(&frame) {
            Ok(r) => r,
            Err(msg) => {
                write_frame(&mut writer, &proto::error(msg))?;
                continue;
            }
        };
        match request {
            Request::Push { batch } => handle_push(&mut writer, &tx, shared, batch)?,
            Request::Read { view, min_epoch } => handle_read(&mut writer, shared, view, min_epoch)?,
            Request::Subscribe { view } => {
                // The connection becomes a dedicated stream; this call only
                // returns when the stream ends.
                return handle_subscribe(&mut writer, shared, view);
            }
            Request::Register { query, strategy } => {
                let reply = ReplySlot::new();
                let sent = send_blocking(
                    &tx,
                    shared,
                    Command::Register {
                        query,
                        strategy,
                        reply: reply.clone_slot(),
                    },
                );
                let response = match sent {
                    Err(e) => proto::error(e),
                    Ok(()) => match reply.wait() {
                        Some(Ok(ack)) => proto::ok([
                            ("view", Json::Int(ack.view as i64)),
                            ("epoch", Json::Int(ack.epoch as i64)),
                            ("strategy", Json::str(ack.strategy)),
                        ]),
                        Some(Err(e)) => proto::error(e),
                        None => proto::error("ingest thread unresponsive"),
                    },
                };
                write_frame(&mut writer, &response)?;
            }
            Request::Deregister { view } => {
                let reply = ReplySlot::new();
                let sent = send_blocking(
                    &tx,
                    shared,
                    Command::Deregister {
                        view,
                        reply: reply.clone_slot(),
                    },
                );
                let response = match sent {
                    Err(e) => proto::error(e),
                    Ok(()) => match reply.wait() {
                        Some(Ok(())) => proto::ok([("view", Json::Int(view as i64))]),
                        Some(Err(e)) => proto::error(e),
                        None => proto::error("ingest thread unresponsive"),
                    },
                };
                write_frame(&mut writer, &response)?;
            }
            Request::Metrics => {
                let reply = ReplySlot::new();
                let sent = send_blocking(
                    &tx,
                    shared,
                    Command::Metrics {
                        reply: reply.clone_slot(),
                    },
                );
                let response = match sent {
                    Err(e) => proto::error(e),
                    Ok(()) => match reply.wait() {
                        Some(engine_text) => {
                            let mut text = engine_text;
                            text.push_str(&shared.metrics.registry.render_prometheus());
                            proto::ok([("metrics", Json::Str(text))])
                        }
                        None => proto::error("ingest thread unresponsive"),
                    },
                };
                write_frame(&mut writer, &response)?;
            }
            Request::Stall { ms } => {
                let reply = ReplySlot::new();
                let sent = send_blocking(
                    &tx,
                    shared,
                    Command::Stall {
                        ms,
                        reply: reply.clone_slot(),
                    },
                );
                let response = match sent {
                    Err(e) => proto::error(e),
                    Ok(()) => match reply.wait() {
                        Some(()) => proto::ok([("stalled_ms", Json::Int(ms as i64))]),
                        None => proto::error("ingest thread unresponsive"),
                    },
                };
                write_frame(&mut writer, &response)?;
            }
            Request::Shutdown => {
                let reply = ReplySlot::new();
                let sent = send_blocking(
                    &tx,
                    shared,
                    Command::Shutdown {
                        reply: reply.clone_slot(),
                    },
                );
                let response = match sent {
                    Err(e) => proto::error(e),
                    Ok(()) => {
                        reply.wait();
                        shared.stop.store(true, Ordering::SeqCst);
                        proto::ok([])
                    }
                };
                write_frame(&mut writer, &response)?;
                return Ok(());
            }
        }
    }
}

fn handle_push(
    writer: &mut impl Write,
    tx: &SyncSender<Command>,
    shared: &Shared,
    batch: DeltaBatch,
) -> io::Result<()> {
    let started = Instant::now();
    // Cheap rejection before the queue: invalid batches never consume a
    // queue slot or a WAL record.
    if let Err(e) = validate_batch(&batch, &shared.schema) {
        return write_frame(writer, &proto::error(e)).map(|_| ());
    }
    let reply = ReplySlot::new();
    shared.metrics.queue_depth.add(1);
    let response = match tx.try_send(Command::Push {
        batch,
        reply: reply.clone_slot(),
    }) {
        Err(TrySendError::Full(_)) => {
            shared.metrics.queue_depth.sub(1);
            shared.metrics.overloaded.inc();
            proto::overloaded(shared.retry_after_ms())
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.metrics.queue_depth.sub(1);
            proto::error("server is shutting down")
        }
        Ok(()) => match reply.wait() {
            Some(Ok(ack)) => {
                shared.metrics.pushes.inc();
                shared
                    .metrics
                    .push_wait_ns
                    .observe(started.elapsed().as_nanos() as u64);
                proto::ok([
                    ("epoch", Json::Int(ack.epoch as i64)),
                    ("result_added", Json::Int(ack.result_added as i64)),
                    ("result_removed", Json::Int(ack.result_removed as i64)),
                ])
            }
            Some(Err(e)) => proto::error(e),
            None => proto::error("ingest thread unresponsive"),
        },
    };
    write_frame(writer, &response).map(|_| ())
}

fn handle_read(
    writer: &mut impl Write,
    shared: &Shared,
    view: u64,
    min_epoch: Option<u64>,
) -> io::Result<()> {
    let started = Instant::now();
    if let Some(min) = min_epoch {
        if shared.wait_for_epoch(min).is_none() {
            shared.metrics.read_gate_timeouts.inc();
            return write_frame(
                writer,
                &proto::error(format!(
                    "timed out waiting for epoch {min} (committed {})",
                    shared.committed()
                )),
            )
            .map(|_| ());
        }
    }
    let snapshot = shared
        .views
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(&view)
        .cloned();
    let response = match snapshot {
        Some(snap) => {
            shared.metrics.reads.inc();
            shared
                .metrics
                .read_ns
                .observe(started.elapsed().as_nanos() as u64);
            proto::ok([
                ("view", Json::Int(view as i64)),
                ("epoch", Json::Int(snap.epoch as i64)),
                ("count", Json::Int(snap.rows.len() as i64)),
                ("rows", rows_to_json(snap.rows.iter())),
            ])
        }
        None => proto::error(format!("unknown view {view}")),
    };
    write_frame(writer, &response).map(|_| ())
}

fn handle_subscribe(writer: &mut impl Write, shared: &Shared, view: u64) -> io::Result<()> {
    let snapshot = shared
        .views
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(&view)
        .cloned();
    let Some(snapshot) = snapshot else {
        return write_frame(writer, &proto::error(format!("unknown view {view}"))).map(|_| ());
    };
    let (event_tx, event_rx) = mpsc::channel::<SubEvent>();
    shared
        .subscribers
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .entry(view)
        .or_default()
        .push(event_tx);
    write_frame(
        writer,
        &proto::ok([
            ("view", Json::Int(view as i64)),
            ("epoch", Json::Int(snapshot.epoch as i64)),
            ("count", Json::Int(snapshot.rows.len() as i64)),
        ]),
    )?;
    loop {
        match event_rx.recv_timeout(Duration::from_millis(500)) {
            Ok(event) => {
                let frame = Json::obj([
                    ("event", Json::str("delta")),
                    ("view", Json::Int(event.view as i64)),
                    ("epoch", Json::Int(event.epoch as i64)),
                    ("added", rows_to_json(event.added.iter())),
                    ("removed", rows_to_json(event.removed.iter())),
                ]);
                write_frame(writer, &frame)?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}
