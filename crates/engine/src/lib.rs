//! # dcq-engine
//!
//! The shared-store, multi-view engine facade of **dcqx**: one
//! [`DcqEngine`] owns one epoch-versioned database of record, callers
//! [`prepare`](DcqEngine::prepare) a difference query once (classification and
//! maintenance plan memoized in a [`PlanCache`] keyed by query shape), then
//! [`register`](DcqEngine::register) it to get a lightweight [`ViewHandle`], and a
//! single [`apply`](DcqEngine::apply) advances the store and fans the update out
//! to every registered view in one pass.
//!
//! This is the production shape Berkholz, Keppeler & Schweikardt's *Answering
//! Conjunctive Queries under Updates* frames — a dynamic database serving many
//! standing queries — applied to the DCQs of Hu & Wang: each view is
//! maintained by counting delta joins (the planner's choice for every class)
//! or, where a caller names it, touched-side rerun, but the store, the batch
//! normalization and the epoch counter exist **once**, not once per view:
//!
//! ```text
//!                      ┌────────────────────────────────────────┐
//!   prepare(dcq) ───►  │ PlanCache   (classify once per shape,  │
//!                      │              delta sub-plans per side) │
//!                      ├────────────────────────────────────────┤
//!   register(p)  ───►  │ SharedDatabase  (epoch, O(|Δ|) deltas) │
//!                      │   ├ IndexRegistry (refcounted shared   │
//!                      │   │  delta-join indexes, maintained    │
//!                      │   │  once per batch)                   │
//!                      │   │ normalized AppliedBatch            │
//!   apply(batch) ───►  │   ├──► DcqView #0 (counting: probes ↑) │
//!                      │   ├──► DcqView #1 (rerun)              │
//!                      │   └──► DcqView #2 (counting: probes ↑) │
//!                      └────────────────────────────────────────┘
//! ```
//!
//! Compared with `N` independent views, the engine holds one copy of the base
//! data instead of `N`, normalizes each batch once instead of `N` times,
//! classifies each query shape once no matter how many clients prepare it, and
//! — since index ownership moved into the storage layer — builds and maintains
//! each delta-join index once per *distinct probe signature*, not once per
//! view: distinct-but-overlapping DCQs (shared atom prefixes, α-renamed sides)
//! probe the same refcounted registry entries.
//!
//! ## Adaptive maintenance
//!
//! The planner maintains every view by counting; a workload of very large
//! batches can disagree (counting cost scales with `|Δ|`, a rerun is flat in
//! it).  Views registered through [`DcqEngine::register_adaptive`] are managed
//! by a policy instead: the engine tracks every batch's effective size
//! relative to the store ([`BatchStats`]) and, when the EWMA delta fraction
//! crosses the [`MaintenanceCostModel`] crossover (hysteresis applied),
//! migrates the live view to the cheaper engine kind — rebuilt from the shared
//! store at the current epoch, old pooled sides and registry indexes released.
//! Migration is result-invariant; `cargo run --release --example calibrate`
//! fits the crossover to the host.
//!
//! ## Parallel fan-out
//!
//! [`DcqEngine::apply`] is split into two phases.  The **commit phase** is
//! exclusive and sequential: the batch is validated, normalized and applied to
//! the store once, every shared registry index is maintained once, and the
//! epoch advances.  The engine keeps no copy of the batch: durability is the
//! caller's write-ahead log plus the checkpoints a [`CheckpointSink`] takes.
//! The **fan-out phase** is read-only and parallel: every distinct view folds
//! the shared [`AppliedBatch`](dcq_storage::AppliedBatch) against the
//! now-immutable store (`&`-borrowed, so nothing can move underneath the
//! workers), distributed
//! over a [worker pool](DcqEngine::set_workers) — the calling thread plus
//! persistent, process-wide helper threads; no thread is created per batch
//! (`dcq_storage::fanout`).  Pooled
//! counting sides are folded exactly once per epoch by whichever worker takes
//! their lock first — the fold is a pure function of `(state, batch)`, so
//! results, stats and counters are **bit-identical** to the sequential path
//! (pinned by `tests/parallel_determinism.rs`).  A short sequential tail then
//! folds per-view outcomes into the report, feeds the adaptive policy —
//! per-view **CPU time**, not wall time, so lock waits and co-scheduled views
//! cannot inflate a view's cost samples — and executes any policy migrations.
//! (One attribution caveat survives from the sequential design, documented on
//! [`BatchStats::ewma_cost_ns`]: for *pool-shared* counting sides, whichever
//! sharing view folds a batch first pays the whole fold's CPU, and under
//! parallel fan-out which view that is depends on scheduling.  Migration
//! *decisions* read only the delta-fraction EWMA and stay deterministic.)
//!
//! Everything in the engine core is `Send`, and the store is `Sync`: the
//! ownership refactor that enabled this (Rc→Arc, RefCell→RwLock, copy-on-write
//! index snapshots) is exactly the shape a future async service front-end
//! needs — `apply` on a writer task, epoch-consistent snapshot reads anywhere.

#![warn(missing_docs)]

mod fanout;

use dcq_core::cache::{PlanCache, PlanCacheStats, QueryShapeKey};
use dcq_core::heuristics::{thread_cpu_time_ns, BatchStats, CostClock, MaintenanceCostModel};
use dcq_core::planner::{IncrementalPlan, IncrementalStrategy};
use dcq_core::{Dcq, DcqError};
use dcq_incremental::pool::{CountingPool, CountingPoolStats};
use dcq_incremental::view::{BatchOutcome, DcqView};
use dcq_incremental::{CountingTelemetry, IncrementalError};
use dcq_storage::hash::{FastHashMap, FastHashSet};
use dcq_storage::{
    Database, DeltaBatch, DeltaEffect, Epoch, IndexTelemetry, Relation, RelationRef,
    SharedDatabase, StorageError,
};
#[cfg(feature = "telemetry")]
use dcq_telemetry::ViewTraceRecord;
use dcq_telemetry::{
    render_json_lines, BatchTrace, Counter, Histogram, MetricsRegistry, RingTraceSink, TraceSink,
};
use fanout::WorkerPool;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One cost-sample measurement around a view's per-batch maintenance, on the
/// engine's **pinned** [`CostClock`] (see [`DcqEngine::cost_clock`]).
///
/// The clock is chosen once at engine construction — the per-thread CPU clock
/// where the platform has one (immune to lock waits, preemption and
/// co-scheduled views), wall time elsewhere — so every sample an engine ever
/// feeds the adaptive policy carries the same provenance.  The previous design
/// re-probed clock availability per sample and could hand
/// [`BatchStats::observe_cost`] a mix of wall and CPU nanoseconds within one
/// engine; clock availability is a static platform property, so pinning is
/// both correct and cheaper.
enum CostSample {
    Cpu(u64),
    Wall(Instant),
}

impl CostSample {
    fn start(clock: CostClock) -> Self {
        match clock {
            CostClock::ThreadCpu => CostSample::Cpu(
                thread_cpu_time_ns().expect("ThreadCpu is pinned only where the platform has it"),
            ),
            CostClock::Wall => CostSample::Wall(Instant::now()),
        }
    }

    /// The elapsed cost in nanoseconds.  Must be called on the same thread as
    /// [`CostSample::start`].
    fn finish(self) -> f64 {
        match self {
            CostSample::Cpu(start) => thread_cpu_time_ns()
                .expect("thread clock availability is constant within a process")
                .saturating_sub(start) as f64,
            CostSample::Wall(start) => start.elapsed().as_nanos() as f64,
        }
    }
}

/// The [`CostClock`] available on this platform: thread-CPU where the platform
/// offers it, wall time elsewhere.  Engines pin this at construction.
fn pinned_cost_clock() -> CostClock {
    if thread_cpu_time_ns().is_some() {
        CostClock::ThreadCpu
    } else {
        CostClock::Wall
    }
}

/// Static label of a concrete engine kind for trace records.
#[cfg(feature = "telemetry")]
fn strategy_label(strategy: IncrementalStrategy) -> &'static str {
    match strategy {
        IncrementalStrategy::EasyRerun => "EasyRerun",
        IncrementalStrategy::Counting => "Counting",
        IncrementalStrategy::Adaptive => "Adaptive",
    }
}

/// Static label of a [`CostClock`] for trace records.
#[cfg(feature = "telemetry")]
fn clock_label(clock: CostClock) -> &'static str {
    match clock {
        CostClock::ThreadCpu => "thread_cpu",
        CostClock::Wall => "wall",
    }
}

/// Errors surfaced by the engine facade.
#[derive(Debug)]
pub enum EngineError {
    /// An error from query validation or evaluation.
    Core(DcqError),
    /// An error from the storage layer.
    Storage(StorageError),
    /// An error from the per-view maintenance machinery.
    Incremental(IncrementalError),
    /// A [`ViewHandle`] that does not name a live view (wrong engine, or the view
    /// was deregistered).
    UnknownView(ViewHandle),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "core: {e}"),
            EngineError::Storage(e) => write!(f, "storage: {e}"),
            EngineError::Incremental(e) => write!(f, "incremental: {e}"),
            EngineError::UnknownView(h) => {
                write!(f, "unknown view handle #{}v{}", h.slot, h.generation)
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DcqError> for EngineError {
    fn from(e: DcqError) -> Self {
        EngineError::Core(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<IncrementalError> for EngineError {
    fn from(e: IncrementalError) -> Self {
        EngineError::Incremental(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

/// A lightweight, copyable handle naming one registered view of a [`DcqEngine`].
///
/// Handles stay valid until the view is [`deregister`](DcqEngine::deregister)ed;
/// a generation counter makes every copy of a deregistered handle fail at lookup
/// even after its slot has been reused by a later registration.  Handles are
/// engine-specific (using a handle on a different engine is an error at lookup
/// time, not undefined behavior).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ViewHandle {
    slot: usize,
    generation: u64,
}

impl ViewHandle {
    /// The handle's slot index (stable for the lifetime of the view; slots are
    /// reused by later registrations, so the pair (index, generation) is what
    /// identifies a registration).
    pub fn index(&self) -> usize {
        self.slot
    }
}

/// One handle slot: the registration it currently points at (if any) plus the
/// generation stamped into handles, bumped on every allocation so stale copies
/// of deregistered handles cannot alias the slot's next tenant.
#[derive(Default)]
struct HandleSlot {
    generation: u64,
    /// Index into `DcqEngine::views`, `None` after deregistration.
    target: Option<usize>,
}

/// A prepared difference query: validated against the engine's store, with the
/// dichotomy classification and maintenance plan resolved through the engine's
/// [`PlanCache`].
///
/// Preparation is the expensive, shape-dependent part of registration; a
/// `PreparedDcq` can be cloned and registered any number of times (each
/// registration builds fresh view state over the current store contents).
#[derive(Clone, Debug)]
pub struct PreparedDcq {
    dcq: Dcq,
    plan: IncrementalPlan,
    cache_hit: bool,
}

impl PreparedDcq {
    /// The prepared query.
    pub fn dcq(&self) -> &Dcq {
        &self.dcq
    }

    /// The resolved maintenance plan (strategy + classification).
    pub fn plan(&self) -> &IncrementalPlan {
        &self.plan
    }

    /// The maintenance strategy the plan selected.
    pub fn strategy(&self) -> IncrementalStrategy {
        self.plan.strategy
    }

    /// `true` iff this preparation was served from the plan cache (no
    /// classification work was performed).
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Human-readable explanation of the maintenance choice.
    pub fn explain(&self) -> String {
        self.plan.explain()
    }
}

/// The result of one [`DcqEngine::apply`]: the epoch the store advanced to, the
/// net base-data effect, and the fan-out summary across registered views.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// The store epoch after this batch.
    pub epoch: Epoch,
    /// Net tuples inserted / deleted in the store.
    pub effect: DeltaEffect,
    /// Distinct maintained views that did maintenance work for this batch
    /// (shared views count once — that is the point of sharing).
    pub views_applied: usize,
    /// Distinct maintained views that skipped the batch (no referenced relation
    /// touched).
    pub views_skipped: usize,
    /// Result tuples that entered any view.
    pub result_added: usize,
    /// Result tuples that left any view.
    pub result_removed: usize,
}

/// Cumulative counters of one engine, plus a point-in-time snapshot of the
/// store's shared index registry, counting-side pool and fan-out
/// configuration.
///
/// Since the telemetry refactor this is a **derived view** over the engine's
/// [`MetricsRegistry`] (see [`DcqEngine::metrics`]): the cumulative fields
/// read the same atomic counters the Prometheus exposition renders, the rest
/// are sampled from the live structures at call time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Batches applied to the store.
    pub batches_applied: usize,
    /// Views registered over the engine's lifetime.
    pub views_registered: usize,
    /// Views deregistered over the engine's lifetime.
    pub views_deregistered: usize,
    /// Live shared indexes in the store's registry (point in time).
    pub index_count: usize,
    /// Estimated heap footprint of those indexes in bytes (point in time).
    pub index_bytes: usize,
    /// Live view migrations onto touched-side rerun (adaptive policy or
    /// [`DcqEngine::migrate`]).
    pub migrations_to_rerun: usize,
    /// Live view migrations onto counting maintenance.
    pub migrations_to_counting: usize,
    /// Scheduled checkpoints written through the [`CheckpointSink`].
    pub compactions: usize,
    /// Live counting side shapes in the sharing pool (point in time).
    pub pool_live: usize,
    /// Pooled sides currently held by more than one view (point in time).
    pub pool_shared: usize,
    /// Configured fan-out workers (point in time; scheduling only — never
    /// affects any other field).
    pub workers: usize,
}

/// Names all engine-level metrics carry in the registry; lower-layer totals
/// are aggregated into the same registry at render time (`dcq_index_*`,
/// `dcq_counting_*`, `dcq_pool_*`, `dcq_plan_cache_*`).
mod metric {
    pub const BATCHES: &str = "dcq_engine_batches_total";
    pub const VIEWS_REGISTERED: &str = "dcq_engine_views_registered_total";
    pub const VIEWS_DEREGISTERED: &str = "dcq_engine_views_deregistered_total";
    pub const MIGRATIONS_TO_RERUN: &str = "dcq_engine_migrations_to_rerun_total";
    pub const MIGRATIONS_TO_COUNTING: &str = "dcq_engine_migrations_to_counting_total";
    pub const COMPACTIONS: &str = "dcq_engine_compactions_total";
    pub const CHECKPOINT_ERRORS: &str = "dcq_engine_checkpoint_errors_total";
    pub const COMMIT_NS: &str = "dcq_engine_commit_ns";
    pub const FANOUT_NS: &str = "dcq_engine_fanout_ns";
    pub const POLICY_NS: &str = "dcq_engine_policy_ns";
    pub const VIEW_COST_NS: &str = "dcq_engine_view_cost_ns";
}

/// The engine's always-compiled metrics spine: one [`MetricsRegistry`] owning
/// every counter/gauge/histogram `metrics()` renders, the engine-owned counter
/// handles `apply`/`register`/`migrate` bump directly, the [`TraceSink`]
/// per-batch traces go to, and the retired-telemetry base that keeps
/// aggregated counting totals monotone across view teardown.
///
/// With the `telemetry` feature **off** only the per-batch trace emission and
/// the lower layers' recording disappear; these engine counters (and therefore
/// [`DcqEngine::stats`] and the exposition itself) work in every build.
struct EngineTelemetry {
    registry: MetricsRegistry,
    sink: Box<dyn TraceSink>,
    batches: Arc<Counter>,
    views_registered: Arc<Counter>,
    views_deregistered: Arc<Counter>,
    migrations_to_rerun: Arc<Counter>,
    migrations_to_counting: Arc<Counter>,
    compactions: Arc<Counter>,
    checkpoint_errors: Arc<Counter>,
    // The histograms are observed only by the `telemetry`-gated trace hooks,
    // but stay registered (and render, empty) in every build so the exposition
    // schema is feature-independent.
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    commit_ns: Arc<Histogram>,
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    fanout_ns: Arc<Histogram>,
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    policy_ns: Arc<Histogram>,
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    view_cost_ns: Arc<Histogram>,
    /// Counting telemetry of sides whose last-holder views were deregistered;
    /// see [`DcqView::retired_counting_telemetry`] for the per-view analogue.
    retired: CountingTelemetry,
}

impl EngineTelemetry {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        EngineTelemetry {
            batches: registry.counter(metric::BATCHES, "Batches applied to the store"),
            views_registered: registry.counter(
                metric::VIEWS_REGISTERED,
                "Views registered over the engine's lifetime",
            ),
            views_deregistered: registry.counter(
                metric::VIEWS_DEREGISTERED,
                "Views deregistered over the engine's lifetime",
            ),
            migrations_to_rerun: registry.counter(
                metric::MIGRATIONS_TO_RERUN,
                "Live view migrations onto touched-side rerun",
            ),
            migrations_to_counting: registry.counter(
                metric::MIGRATIONS_TO_COUNTING,
                "Live view migrations onto counting maintenance",
            ),
            compactions: registry.counter(
                metric::COMPACTIONS,
                "Scheduled checkpoints written through the checkpoint sink",
            ),
            checkpoint_errors: registry.counter(
                metric::CHECKPOINT_ERRORS,
                "Scheduled checkpoints abandoned because the checkpoint sink failed",
            ),
            commit_ns: registry.histogram(
                metric::COMMIT_NS,
                "Commit phase duration per apply, wall nanoseconds",
            ),
            fanout_ns: registry.histogram(
                metric::FANOUT_NS,
                "Fan-out phase duration per apply, wall nanoseconds",
            ),
            policy_ns: registry.histogram(
                metric::POLICY_NS,
                "Policy tail duration per apply (incl. migrations), wall nanoseconds",
            ),
            view_cost_ns: registry.histogram(
                metric::VIEW_COST_NS,
                "Per-view maintenance cost samples, nanoseconds on the pinned cost clock",
            ),
            sink: Box::new(RingTraceSink::default()),
            registry,
            retired: CountingTelemetry::default(),
        }
    }
}

/// When [`DcqEngine::apply`]'s policy tail writes a **scheduled checkpoint**.
/// Default: never.
///
/// The engine counts the batches applied since its last checkpoint; once that
/// count exceeds `max_retained_batches`, it streams the database of record
/// into the installed [`CheckpointSink`].  The caller's write-ahead log can
/// then drop every frame the checkpoint covers, keeping
/// `checkpoint ⊕ WAL tail = current state` with a bounded tail.  Without a
/// sink there is nothing to persist, and the policy does nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Checkpoint when more than this many batches were applied since the
    /// last checkpoint.
    pub max_retained_batches: Option<usize>,
}

impl CompactionPolicy {
    /// A policy checkpointing after every `n + 1` batches.
    pub fn max_retained_batches(n: usize) -> Self {
        CompactionPolicy {
            max_retained_batches: Some(n),
        }
    }
}

/// Where scheduled checkpoints go.
///
/// A sink failure bumps `dcq_engine_checkpoint_errors_total` and leaves the
/// batch count standing, so the engine retries after the next batch and the
/// caller's write-ahead log keeps every batch since the last checkpoint that
/// did persist.
pub trait CheckpointSink: Send + Sync {
    /// Persist a checkpoint of `database` as of `epoch`.
    fn write_checkpoint(&mut self, epoch: Epoch, database: &Database) -> std::io::Result<()>;
}

/// Blanket sink for closures: `engine.set_checkpoint_sink(Box::new(|epoch, db| … ))`.
impl<F> CheckpointSink for F
where
    F: FnMut(Epoch, &Database) -> std::io::Result<()> + Send + Sync,
{
    fn write_checkpoint(&mut self, epoch: Epoch, database: &Database) -> std::io::Result<()> {
        self(epoch, database)
    }
}

/// One maintained view plus the handles that share it.
struct SharedView {
    view: DcqView,
    /// Live handles pointing at this view.
    refs: usize,
    /// The sharing key ((shape, strategy)) used to find it on registration.
    key: (QueryShapeKey, IncrementalStrategy),
    /// Batch statistics driving the adaptive policy; `Some` exactly for views
    /// registered with [`IncrementalStrategy::Adaptive`].
    adaptive: Option<BatchStats>,
}

/// The engine: one shared store, one plan cache, many registered views.
///
/// Registrations of the same query shape share one maintained view (see
/// [`DcqEngine::register`]), so per-batch maintenance work scales with the
/// number of *distinct* standing queries, not the number of clients.
///
/// ```
/// use dcq_engine::DcqEngine;
/// use dcq_core::parse_dcq;
/// use dcq_storage::{Database, DeltaBatch, Relation};
/// use dcq_storage::row::int_row;
///
/// let mut db = Database::new();
/// db.add(Relation::from_int_rows("R", &["a", "b"], vec![vec![1, 2]])).unwrap();
/// db.add(Relation::from_int_rows("S", &["a", "b"], vec![vec![3, 4]])).unwrap();
///
/// let mut engine = DcqEngine::with_database(db);
/// let prepared = engine
///     .prepare(parse_dcq("Q(a, b) :- R(a, b) EXCEPT S(a, b)").unwrap())
///     .unwrap();
/// let view = engine.register(&prepared).unwrap();
/// assert_eq!(engine.result(view).unwrap().len(), 1);
///
/// let mut batch = DeltaBatch::new();
/// batch.insert("S", int_row([1, 2]));
/// let report = engine.apply(&batch).unwrap();
/// assert_eq!(report.epoch, 1);
/// assert!(engine.result(view).unwrap().is_empty());
/// ```
pub struct DcqEngine {
    store: SharedDatabase,
    plans: PlanCache,
    /// Handle slot → shared-view slot, generation-checked.
    handles: Vec<HandleSlot>,
    /// The distinct maintained views (the fan-out targets of `apply`).
    views: Vec<Option<SharedView>>,
    /// (shape, strategy) → shared-view slot, so identical registrations share
    /// one maintained view.
    by_key: FastHashMap<(QueryShapeKey, IncrementalStrategy), usize>,
    /// Live counting sides keyed by α-canonical CQ shape: distinct DCQs with an
    /// equivalent side share one maintained `CountingCq` (folded once per
    /// batch), not just its plans and indexes.
    pool: CountingPool,
    /// The rerun/counting crossover model the adaptive policy consults after
    /// every batch; host-calibratable via [`DcqEngine::set_cost_model`].
    cost_model: MaintenanceCostModel,
    /// The per-view fan-out workers `apply` distributes over; see
    /// [`DcqEngine::set_workers`].
    fanout: WorkerPool,
    /// When `apply`'s policy tail writes a scheduled checkpoint; default never.
    compaction: CompactionPolicy,
    /// Where scheduled checkpoints go; `None` = the policy does nothing.
    checkpoint_sink: Option<Box<dyn CheckpointSink>>,
    /// Batches applied since the last scheduled checkpoint (or since
    /// construction).
    batches_since_checkpoint: usize,
    /// The clock every policy-facing cost sample is taken on, pinned at
    /// construction; see [`DcqEngine::cost_clock`].
    cost_clock: CostClock,
    telemetry: EngineTelemetry,
}

impl Default for DcqEngine {
    fn default() -> Self {
        DcqEngine::new()
    }
}

impl DcqEngine {
    /// An engine over an empty store (add relations with
    /// [`DcqEngine::add_relation`]).
    pub fn new() -> Self {
        DcqEngine::with_database(Database::new())
    }

    /// An engine taking ownership of `db` as its database of record.
    pub fn with_database(db: Database) -> Self {
        DcqEngine::with_database_at(db, 0)
    }

    /// An engine taking ownership of `db` as its database of record **at
    /// epoch `epoch`** — the recovery constructor.
    ///
    /// An engine rebuilt from a checkpoint taken at epoch `e` must keep epoch
    /// numbering where the pre-crash engine left off, so replayed WAL batches
    /// and previously acknowledged epochs line up.
    pub fn with_database_at(db: Database, epoch: Epoch) -> Self {
        let workers = WorkerPool::default_workers();
        let mut store = SharedDatabase::new_at(db, epoch);
        store.set_commit_workers(workers);
        DcqEngine {
            store,
            plans: PlanCache::new(),
            handles: Vec::new(),
            views: Vec::new(),
            by_key: FastHashMap::default(),
            pool: CountingPool::new(),
            cost_model: MaintenanceCostModel::default(),
            fanout: WorkerPool::new(workers),
            compaction: CompactionPolicy::default(),
            checkpoint_sink: None,
            batches_since_checkpoint: 0,
            cost_clock: pinned_cost_clock(),
            telemetry: EngineTelemetry::new(),
        }
    }

    /// The clock every policy-facing cost sample this engine records is taken
    /// on: [`CostClock::ThreadCpu`] wherever the platform offers a per-thread
    /// CPU clock, [`CostClock::Wall`] elsewhere.  Pinned once at construction
    /// — clock availability is a static platform property — so
    /// [`BatchStats::observe_cost`] never sees mixed-provenance samples from
    /// one engine.
    pub fn cost_clock(&self) -> CostClock {
        self.cost_clock
    }

    /// The number of fan-out workers [`DcqEngine::apply`] distributes per-view
    /// maintenance over (defaults to the host's available parallelism with the
    /// `parallel` feature, `1` without it).
    pub fn workers(&self) -> usize {
        self.fanout.workers()
    }

    /// Set the fan-out width (clamped to at least 1; `1` forces strictly
    /// sequential, inline application in slot order).
    ///
    /// The width also flows into the other two parallel seams: the store's
    /// sharded commit ([`SharedDatabase::set_commit_workers`]) and the
    /// counting sides' intra-view fold partition count K.
    ///
    /// Worker count never affects *what* the engine computes — results, stats
    /// and shared-state counters are bit-identical at any width
    /// (`tests/parallel_determinism.rs`) — only how per-view work is scheduled
    /// within one `apply`.
    pub fn set_workers(&mut self, workers: usize) {
        self.fanout = WorkerPool::new(workers);
        self.store.set_commit_workers(workers);
        // Each view re-applies K to the sides a later migration builds.
        let partitions = self.workers();
        for shared in self.views.iter_mut().flatten() {
            shared.view.set_fold_partitions(partitions);
        }
    }

    /// Read-only access to the database of record.
    pub fn database(&self) -> &Database {
        self.store.database()
    }

    /// A versioned read handle on one stored relation.
    pub fn relation(&self, name: &str) -> Result<RelationRef<'_>> {
        Ok(self.store.relation(name)?)
    }

    /// The current store epoch (number of applied batches).
    pub fn epoch(&self) -> Epoch {
        self.store.epoch()
    }

    /// Register a new base relation (deduplicated on ingest).
    pub fn add_relation(&mut self, relation: Relation) -> Result<()> {
        Ok(self.store.add_relation(relation)?)
    }

    /// Prepare a DCQ: validate it against the store and resolve its maintenance
    /// plan through the plan cache.
    ///
    /// Preparing the same query shape twice performs **zero** re-classifications —
    /// the second preparation is a cache hit (observable via
    /// [`PreparedDcq::cache_hit`] and [`DcqEngine::plan_cache_stats`]).
    pub fn prepare(&mut self, dcq: Dcq) -> Result<PreparedDcq> {
        dcq.validate(self.store.database())?;
        let (plan, cache_hit) = self.plans.plan_incremental(&dcq);
        Ok(PreparedDcq {
            dcq,
            plan,
            cache_hit,
        })
    }

    /// Register a prepared DCQ as a maintained view over the current store
    /// contents, returning its handle.
    ///
    /// Registrations of an **identical query shape and strategy** share one
    /// maintained view: the engine maintains it once per batch no matter how many
    /// clients registered it, which is where multi-client fan-out wins big over
    /// independent per-client views.  (Shared views expose the variable naming of
    /// their first registrant; the result *rows* are identical by α-equivalence.)
    pub fn register(&mut self, prepared: &PreparedDcq) -> Result<ViewHandle> {
        self.register_view(prepared.dcq.clone(), prepared.plan.clone())
    }

    /// Prepare and register in one call (the common path for one-off clients).
    pub fn register_dcq(&mut self, dcq: Dcq) -> Result<ViewHandle> {
        let prepared = self.prepare(dcq)?;
        self.register(&prepared)
    }

    /// Register with an explicitly forced maintenance strategy (benchmarks and
    /// tests; production callers should trust the planner).  Sharing applies
    /// per (shape, strategy): the same query forced to a different strategy gets
    /// its own view.
    pub fn register_with(&mut self, dcq: Dcq, strategy: IncrementalStrategy) -> Result<ViewHandle> {
        let prepared = self.prepare(dcq)?;
        let mut plan = prepared.plan.clone();
        plan.strategy = strategy;
        self.register_view(prepared.dcq.clone(), plan)
    }

    /// Register a view under the **adaptive** maintenance policy: it starts on
    /// the engine kind the cost model predicts for its workload prior
    /// ([`MaintenanceCostModel::initial_kind`] — counting, under the default
    /// trickle-update prior), the engine tracks the effective size of every
    /// batch it applies ([`BatchStats`]), and when the observed EWMA delta
    /// fraction crosses the cost model's rerun/counting crossover the engine
    /// migrates the live view to the cheaper engine kind — rebuilt from the
    /// shared store at the current epoch, with the old engine's pooled sides
    /// and registry indexes released.  Results are unaffected: a migrated view
    /// stays byte-identical to a never-migrated one
    /// (`tests/adaptive_migration.rs`).
    ///
    /// Adaptive registrations of one shape share a single maintained view and a
    /// single statistics tracker, and are distinct from fixed-strategy
    /// registrations of the same shape.
    pub fn register_adaptive(&mut self, dcq: Dcq) -> Result<ViewHandle> {
        self.register_with(dcq, IncrementalStrategy::Adaptive)
    }

    /// The rerun/counting cost model the adaptive policy consults.
    pub fn cost_model(&self) -> MaintenanceCostModel {
        self.cost_model
    }

    /// Replace the adaptive cost model, e.g. with one fitted by
    /// `cargo run --release --example calibrate` on this host.  Applies to
    /// every adaptive view from the next batch on, and to the initial engine
    /// kind of subsequent adaptive registrations — install the model before
    /// registering views when the workload prior matters.
    pub fn set_cost_model(&mut self, model: MaintenanceCostModel) {
        self.cost_model = model;
    }

    /// Find-or-build the shared view for `(shape, strategy)` and hand out a new
    /// handle to it.
    fn register_view(&mut self, dcq: Dcq, plan: IncrementalPlan) -> Result<ViewHandle> {
        let key = (QueryShapeKey::of(&dcq), plan.strategy);
        let view_slot = match self.by_key.get(&key) {
            // Already maintained: the existing state is current to the store
            // epoch, so the new registrant sees exactly the right result.  A
            // manual migration may have moved a fixed-strategy view off its
            // declared kind; a fresh registration re-asserts the contract, so
            // migrate it back before handing out the handle.
            Some(&slot) => {
                self.views[slot].as_mut().expect("keyed view is live").refs += 1;
                if key.1 != IncrementalStrategy::Adaptive {
                    self.migrate_slot(slot, key.1)?;
                }
                slot
            }
            None => {
                // Counting views resolve their sides through the engine's
                // sharing layers: delta plans through the plan cache (sub-plan
                // sharing across distinct DCQ shapes), whole counting sides
                // through the side pool (an α-equivalent side is folded once
                // per batch no matter how many views read it), and the shared
                // indexes those plans probe through the store's registry —
                // built once, maintained once per batch, refcounted across
                // every side that probes them.
                // Adaptive views start on the cost model's workload-prior
                // choice (counting, under the default trickle prior) rather
                // than the structural one: building the likely-right engine in
                // one piece at registration avoids an almost-certain early
                // migration whose mid-stream state is slower to probe.
                let mut view = DcqView::build_shared_with_initial(
                    dcq,
                    plan,
                    &mut self.store,
                    &mut self.plans,
                    &mut self.pool,
                    self.cost_model.initial_kind(),
                )?;
                view.set_fold_partitions(self.workers());
                let shared = SharedView {
                    view,
                    refs: 1,
                    key: key.clone(),
                    adaptive: (key.1 == IncrementalStrategy::Adaptive).then(BatchStats::default),
                };
                let slot = match self.views.iter().position(Option::is_none) {
                    Some(free) => {
                        self.views[free] = Some(shared);
                        free
                    }
                    None => {
                        self.views.push(Some(shared));
                        self.views.len() - 1
                    }
                };
                self.by_key.insert(key, slot);
                slot
            }
        };
        self.telemetry.views_registered.inc();
        // Hand out a dense handle slot pointing at the shared view; bumping the
        // generation on every allocation invalidates stale copies of whatever
        // handle owned the slot before.
        let slot = match self.handles.iter().position(|h| h.target.is_none()) {
            Some(free) => free,
            None => {
                self.handles.push(HandleSlot::default());
                self.handles.len() - 1
            }
        };
        self.handles[slot].generation += 1;
        self.handles[slot].target = Some(view_slot);
        Ok(ViewHandle {
            slot,
            generation: self.handles[slot].generation,
        })
    }

    /// Resolve a handle to its shared-view slot, rejecting stale generations.
    fn resolve(&self, handle: ViewHandle) -> Result<usize> {
        self.handles
            .get(handle.slot)
            .filter(|h| h.generation == handle.generation)
            .and_then(|h| h.target)
            .ok_or(EngineError::UnknownView(handle))
    }

    /// Drop a registration.  The handle (and any copy of it) becomes invalid; the
    /// underlying view is torn down when its last handle is deregistered.
    pub fn deregister(&mut self, handle: ViewHandle) -> Result<()> {
        let view_slot = self.resolve(handle)?;
        self.handles[handle.slot].target = None;
        self.telemetry.views_deregistered.inc();
        let shared = self.views[view_slot]
            .as_mut()
            .expect("handle pointed at a live view");
        shared.refs -= 1;
        if shared.refs == 0 {
            let key = shared.key.clone();
            self.by_key.remove(&key);
            let mut dropped = self.views[view_slot].take().expect("checked live above");
            // Release the view's pooled sides and registry references; each
            // shared structure is freed when its last reader deregisters.  The
            // view (and with it its side Rcs) must drop before the pool prunes,
            // or the dying sides still count as held.
            dropped.view.teardown(&mut self.store);
            // Fold the dying view's cumulative counting work into the engine's
            // retired base so aggregated totals ([`DcqEngine::counting_telemetry`])
            // stay monotone across deregistration.  Sides the view shared with
            // survivors were not folded into its retired counters and keep
            // reporting through the views that still hold them.
            self.telemetry
                .retired
                .merge(&dropped.view.retired_counting_telemetry());
            drop(dropped);
            self.pool.prune();
        }
        Ok(())
    }

    /// Apply one delta batch to the store and fan it out to every registered view.
    ///
    /// The batch is validated and normalized **once**, the store is updated in
    /// `O(|Δ|)`, the epoch advances, and each view folds in the shared normalized
    /// deltas (views referencing none of the touched relations only record the new
    /// epoch).  Every relation the batch names must exist in the store — the
    /// engine owns the database of record, so there is no "somebody else's
    /// relation" to silently skip.
    ///
    /// After the fan-out, the **adaptive policy** runs: every adaptive view's
    /// [`BatchStats`] absorbs the batch's effective delta fraction and the
    /// measured per-batch maintenance cost of its active engine kind, and views
    /// whose observed workload has crossed the cost model's rerun/counting
    /// crossover (with hysteresis) are migrated in place — at the new epoch, so
    /// the next batch finds them current.
    ///
    /// ## Phases
    ///
    /// 1. **Commit (sequential, exclusive):** the store applies and versions
    ///    the batch, and every shared registry index is maintained exactly
    ///    once.  The engine keeps no copy of the batch; it only counts it
    ///    toward the next scheduled checkpoint.
    /// 2. **Fan-out (parallel, read-only):** distinct views fold the shared
    ///    normalized delta against the immutable post-commit store across the
    ///    [worker pool](DcqEngine::set_workers); pooled counting sides are
    ///    folded once per epoch by whichever worker locks them first, later
    ///    sharers get the memoized delta.  Worker count never changes results
    ///    or stats — only scheduling.
    /// 3. **Policy (sequential):** outcomes fold into the report in slot
    ///    order, adaptive views absorb delta-fraction and per-view **CPU
    ///    time** cost samples (wall time would charge a view for its
    ///    co-scheduled siblings and lock waits), and decided migrations
    ///    execute at the new epoch.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport> {
        #[cfg(feature = "telemetry")]
        let commit_start = Instant::now();
        // The delta fraction is measured against the PRE-batch store size,
        // matching how calibration sweeps label their samples (batch tuples
        // relative to the store the batch is generated against).
        let store_size = self.store.input_size().max(1);
        let applied = self.store.apply_batch(batch)?;
        self.batches_since_checkpoint += 1;
        self.telemetry.batches.inc();
        let mut report = ApplyReport {
            epoch: applied.epoch,
            effect: applied.effect,
            ..ApplyReport::default()
        };
        #[cfg(feature = "telemetry")]
        let commit_ns = commit_start.elapsed().as_nanos() as u64;

        // Fan-out: per-view folds are independent given the immutable store
        // borrow, so they distribute over the worker pool; each worker samples
        // the engine's pinned cost clock around each view it runs.
        let store = &self.store;
        let applied_ref = &applied;
        let cost_clock = self.cost_clock;
        let tasks: Vec<(usize, &mut SharedView)> = self
            .views
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, entry)| entry.as_mut().map(|shared| (slot, shared)))
            .collect();
        // Waking a helper only pays when at least two views have real
        // maintenance to do this batch; a trickle or irrelevant batch (every
        // view skips, or only one folds) runs inline — worker choice is pure
        // scheduling either way, so this never changes an observable.
        let working = tasks
            .iter()
            .filter(|(_, shared)| {
                applied
                    .normalized
                    .iter()
                    .any(|(name, delta)| !delta.is_empty() && shared.view.references(name))
            })
            .count();
        let fanout = if working >= 2 {
            self.fanout
        } else {
            WorkerPool::new(1)
        };
        #[cfg(feature = "telemetry")]
        let fanout_start = Instant::now();
        type ViewOutcome = (usize, dcq_incremental::Result<BatchOutcome>, f64);
        let outcomes: Vec<ViewOutcome> = fanout.run(tasks, |_, (slot, shared)| {
            let sample = CostSample::start(cost_clock);
            let outcome = shared.view.apply(applied_ref, store);
            (slot, outcome, sample.finish())
        });
        #[cfg(feature = "telemetry")]
        let fanout_ns = fanout_start.elapsed().as_nanos() as u64;
        #[cfg(feature = "telemetry")]
        let policy_start = Instant::now();

        // Policy tail: deterministic slot order regardless of which worker ran
        // what.  A view error surfaces after every view has seen the batch, so
        // the healthy views' epochs stay aligned with the store.
        let mut first_error: Option<EngineError> = None;
        let mut pending: Vec<(usize, IncrementalStrategy)> = Vec::new();
        #[cfg(feature = "telemetry")]
        let mut view_records: Vec<ViewTraceRecord> = Vec::new();
        for (slot, outcome, cost_ns) in outcomes {
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    first_error.get_or_insert(e.into());
                    continue;
                }
            };
            if outcome.skipped {
                report.views_skipped += 1;
            } else {
                report.views_applied += 1;
            }
            report.result_added += outcome.result_added;
            report.result_removed += outcome.result_removed;
            let shared = self.views[slot].as_mut().expect("live view slot");
            let delta_fraction = outcome.effect.total() as f64 / store_size as f64;
            let mut migration: Option<IncrementalStrategy> = None;
            if let Some(stats) = shared.adaptive.as_mut() {
                if !outcome.skipped {
                    stats.observe(delta_fraction);
                    stats.observe_cost(shared.view.active_strategy(), cost_ns, cost_clock);
                    if let Some(target) =
                        self.cost_model.decide(shared.view.active_strategy(), stats)
                    {
                        pending.push((slot, target));
                        migration = Some(target);
                    }
                }
            }
            #[cfg(feature = "telemetry")]
            {
                if !outcome.skipped {
                    self.telemetry.view_cost_ns.observe(cost_ns as u64);
                }
                view_records.push(ViewTraceRecord {
                    slot,
                    strategy: strategy_label(shared.view.active_strategy()),
                    delta_fraction: if outcome.skipped { 0.0 } else { delta_fraction },
                    cost_ns: cost_ns as u64,
                    clock: clock_label(cost_clock),
                    skipped: outcome.skipped,
                    result_added: outcome.result_added,
                    result_removed: outcome.result_removed,
                    migration: migration.map(strategy_label),
                });
            }
            #[cfg(not(feature = "telemetry"))]
            let _ = migration;
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        // Migrations mutate the store's registry and the side pool, so they run
        // after the fan-out released its borrows.  Each migrated view is
        // rebuilt at `applied.epoch` — exactly the state it already reflects.
        for (slot, target) in pending {
            self.migrate_slot(slot, target)?;
        }
        // A scheduled checkpoint closes the policy tail: the batch is committed
        // and every view reflects it, so a checkpoint taken here is a
        // consistent cut of the stream.
        self.maybe_checkpoint();
        #[cfg(feature = "telemetry")]
        {
            let policy_ns = policy_start.elapsed().as_nanos() as u64;
            self.telemetry.commit_ns.observe(commit_ns);
            self.telemetry.fanout_ns.observe(fanout_ns);
            self.telemetry.policy_ns.observe(policy_ns);
            self.telemetry.sink.record(BatchTrace {
                epoch: applied.epoch,
                batch_len: batch.len(),
                inserted: applied.effect.inserted as u64,
                deleted: applied.effect.deleted as u64,
                commit_ns,
                fanout_ns,
                policy_ns,
                workers: fanout.workers(),
                views: view_records,
            });
        }
        Ok(report)
    }

    /// Migrate the view behind `handle` to the given engine kind at the current
    /// epoch (see [`DcqView::migrate`]): the target state is rebuilt from the
    /// shared store (pooled counting sides are shared, not reseeded, when
    /// another view holds the same side shape), swapped in atomically, and the
    /// old engine's pooled sides and registry index references are released.
    ///
    /// Returns `false` when the view already runs `target`.  Passing
    /// [`IncrementalStrategy::Adaptive`] migrates back to the planner's
    /// choice, counting.  The declared strategy — and with it the view-sharing
    /// key — never changes; results are strategy-independent, so handles
    /// sharing the view observe nothing but a different cost profile.
    pub fn migrate(&mut self, handle: ViewHandle, target: IncrementalStrategy) -> Result<bool> {
        let slot = self.resolve(handle)?;
        self.migrate_slot(slot, target)
    }

    /// [`DcqEngine::migrate`] by shared-view slot (the policy loop's entry).
    fn migrate_slot(&mut self, slot: usize, target: IncrementalStrategy) -> Result<bool> {
        let shared = self.views[slot].as_mut().expect("live view slot");
        let migrated =
            shared
                .view
                .migrate(target, &mut self.store, &mut self.plans, &mut self.pool)?;
        if migrated {
            let active = shared.view.active_strategy();
            if let Some(stats) = shared.adaptive.as_mut() {
                stats.note_migration();
            }
            match active {
                IncrementalStrategy::EasyRerun => self.telemetry.migrations_to_rerun.inc(),
                IncrementalStrategy::Counting => self.telemetry.migrations_to_counting.inc(),
                IncrementalStrategy::Adaptive => unreachable!("active kind is always concrete"),
            }
            // A migration away from counting may have dropped the last holder
            // of a pooled side shape.
            self.pool.prune();
        }
        Ok(migrated)
    }

    /// The adaptive batch statistics of the view behind `handle`: `None` for
    /// views registered with a fixed strategy.
    pub fn batch_stats(&self, handle: ViewHandle) -> Result<Option<BatchStats>> {
        let slot = self.resolve(handle)?;
        Ok(self.views[slot].as_ref().expect("live handle").adaptive)
    }

    /// The view behind a handle (possibly shared with other handles of the same
    /// query shape).
    pub fn view(&self, handle: ViewHandle) -> Result<&DcqView> {
        let view_slot = self.resolve(handle)?;
        Ok(&self.views[view_slot].as_ref().expect("live handle").view)
    }

    /// Materialize a view's current result as a relation (the view's id-space
    /// membership set resolved through the store's dictionary).
    pub fn result(&self, handle: ViewHandle) -> Result<Relation> {
        Ok(self.view(handle)?.result(&self.store))
    }

    /// Iterate over `(handle, view)` pairs of the live registrations (a shared
    /// view appears once per handle).
    pub fn views(&self) -> impl Iterator<Item = (ViewHandle, &DcqView)> {
        self.handles.iter().enumerate().filter_map(|(i, h)| {
            h.target.map(|view_slot| {
                (
                    ViewHandle {
                        slot: i,
                        generation: h.generation,
                    },
                    &self.views[view_slot].as_ref().expect("live handle").view,
                )
            })
        })
    }

    /// Number of live registrations (handles).
    pub fn view_count(&self) -> usize {
        self.handles.iter().filter(|h| h.target.is_some()).count()
    }

    /// Number of *distinct* maintained views — the actual per-batch fan-out
    /// width.  Less than [`DcqEngine::view_count`] when registrations share.
    pub fn distinct_view_count(&self) -> usize {
        self.views.iter().flatten().count()
    }

    /// Plan-cache counters (hits = preparations that performed no classification).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Counting-side pool counters (hits = registrations that reused a live
    /// maintained side instead of seeding their own).
    pub fn counting_pool_stats(&self) -> CountingPoolStats {
        self.pool.stats()
    }

    /// Cumulative engine counters (read from the metrics registry — the same
    /// atomics [`DcqEngine::metrics`] renders), with the index-registry,
    /// counting-pool and fan-out snapshots filled in at call time.
    pub fn stats(&self) -> EngineStats {
        let pool = self.pool.stats();
        EngineStats {
            batches_applied: self.telemetry.batches.get() as usize,
            views_registered: self.telemetry.views_registered.get() as usize,
            views_deregistered: self.telemetry.views_deregistered.get() as usize,
            index_count: self.store.index_count(),
            index_bytes: self.store.index_bytes(),
            migrations_to_rerun: self.telemetry.migrations_to_rerun.get() as usize,
            migrations_to_counting: self.telemetry.migrations_to_counting.get() as usize,
            compactions: self.telemetry.compactions.get() as usize,
            pool_live: pool.live,
            pool_shared: pool.shared,
            workers: self.fanout.workers(),
        }
    }

    /// Aggregated counting-maintenance telemetry across every side the engine
    /// ever maintained: the engine's retired base (sides whose last-holder
    /// views were deregistered), each live view's migration-retired base, and
    /// the live pooled sides — deduplicated by side identity, so a side shared
    /// by `N` views is counted once.  Schedule-independent and monotone; all
    /// gated fields read zero without the `telemetry` feature.
    pub fn counting_telemetry(&self) -> CountingTelemetry {
        let mut total = self.telemetry.retired;
        let mut seen: FastHashSet<usize> = FastHashSet::default();
        for shared in self.views.iter().flatten() {
            total.merge(&shared.view.retired_counting_telemetry());
            for (side, telemetry) in shared.view.counting_telemetry() {
                if seen.insert(side) {
                    total.merge(&telemetry);
                }
            }
        }
        total
    }

    /// The store's shared-index registry telemetry (COW clones vs. in-place
    /// writes, snapshots taken, live snapshot pins).  Gated fields read zero
    /// without the `telemetry` feature.
    pub fn index_telemetry(&self) -> IndexTelemetry {
        self.store.index_telemetry()
    }

    /// Render every metric the engine tracks in Prometheus text exposition
    /// format: engine counters and phase histograms, plus the lower layers'
    /// work counters (index registry, counting sides, side pool, plan cache)
    /// and point-in-time gauges (epoch, handles, memory), aggregated into
    /// the registry at call time.
    pub fn metrics(&self) -> String {
        self.refresh_registry();
        self.telemetry.registry.render_prometheus()
    }

    /// The engine's metrics registry with every aggregated/point-in-time value
    /// refreshed; [`DcqEngine::metrics`] is `refresh + render`.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        self.refresh_registry();
        &self.telemetry.registry
    }

    /// Write the point-in-time gauges and the lower layers' aggregated totals
    /// into the registry (engine counters and histograms are live atomics and
    /// need no refresh).  Idempotent; creation is name-keyed, so repeated
    /// refreshes reuse the same metric objects.
    fn refresh_registry(&self) {
        let reg = &self.telemetry.registry;
        reg.gauge("dcq_engine_epoch", "Current store epoch")
            .set(self.store.epoch());
        reg.gauge("dcq_engine_view_handles", "Live registrations (handles)")
            .set(self.view_count() as u64);
        reg.gauge(
            "dcq_engine_distinct_views",
            "Distinct maintained views (per-batch fan-out width)",
        )
        .set(self.distinct_view_count() as u64);
        reg.gauge("dcq_engine_workers", "Configured fan-out workers")
            .set(self.fanout.workers() as u64);

        reg.gauge("dcq_index_count", "Live shared indexes in the registry")
            .set(self.store.index_count() as u64);
        reg.gauge("dcq_index_bytes", "Estimated index heap footprint, bytes")
            .set(self.store.index_bytes() as u64);
        let index = self.store.index_telemetry();
        reg.counter(
            "dcq_index_inplace_writes_total",
            "Unshared index maintenance writes applied in place",
        )
        .set_total(index.inplace_writes);
        reg.counter(
            "dcq_index_cow_clones_total",
            "Index maintenance writes that copy-on-wrote a pinned index",
        )
        .set_total(index.cow_clones);
        reg.counter(
            "dcq_index_snapshots_total",
            "Epoch-consistent index snapshots taken",
        )
        .set_total(index.snapshots_taken);
        reg.gauge(
            "dcq_index_live_snapshot_pins",
            "Index snapshots currently pinning an index version",
        )
        .set(index.live_snapshot_pins);

        let dict = self.store.dict_stats();
        reg.gauge(
            "dcq_dict_entries",
            "Distinct values interned in the store dictionary",
        )
        .set(dict.entries);
        reg.gauge(
            "dcq_dict_bytes",
            "Estimated dictionary heap footprint, bytes",
        )
        .set(dict.bytes);
        reg.counter(
            "dcq_dict_intern_hits_total",
            "Intern calls resolved to an existing id",
        )
        .set_total(dict.intern_hits);
        reg.counter(
            "dcq_dict_intern_misses_total",
            "Intern calls that assigned a fresh id",
        )
        .set_total(dict.intern_misses);
        reg.gauge(
            "dcq_flat_bytes",
            "Allocated flat id-column heap footprint across all relations, bytes",
        )
        .set(self.store.flat_bytes() as u64);
        reg.gauge(
            "dcq_flat_live_bytes",
            "Flat id-column heap bytes attributable to live rows (gap to \
             dcq_flat_bytes is reclaimable slack bounded by the compaction \
             threshold)",
        )
        .set(self.store.flat_live_bytes() as u64);
        for (name, live, allocated) in self.store.flat_relation_bytes() {
            let sanitized: String = name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            reg.gauge(
                &format!("dcq_flat_relation_bytes_{sanitized}"),
                "Allocated flat id-column heap footprint of one relation, bytes",
            )
            .set(allocated as u64);
            reg.gauge(
                &format!("dcq_flat_relation_live_bytes_{sanitized}"),
                "Live-row flat id-column heap footprint of one relation, bytes",
            )
            .set(live as u64);
        }
        for (shard, rows) in self.store.commit_shard_rows().iter().enumerate() {
            reg.gauge(
                &format!("dcq_commit_shard_rows_{shard}"),
                "Delta rows routed to one commit shard since startup (skew gauge)",
            )
            .set(*rows);
        }
        reg.gauge(
            "dcq_counting_fold_partitions",
            "Intra-view fold partitions K (the fan-out width)",
        )
        .set(self.workers() as u64);
        // Wall-clock per fold partition, summed across the distinct live
        // counting sides' most recent owned folds — a skew gauge, not part of
        // the deterministic surface.
        let mut partition_ns: Vec<u64> = Vec::new();
        let mut seen_sides: FastHashSet<usize> = FastHashSet::default();
        for shared in self.views.iter().flatten() {
            for (side, ns) in shared.view.fold_partition_ns() {
                if !seen_sides.insert(side) {
                    continue;
                }
                if partition_ns.len() < ns.len() {
                    partition_ns.resize(ns.len(), 0);
                }
                for (slot, v) in ns.iter().enumerate() {
                    partition_ns[slot] += v;
                }
            }
        }
        for (slot, ns) in partition_ns.iter().enumerate() {
            reg.gauge(
                &format!("dcq_counting_fold_partition_ns_{slot}"),
                "Wall-clock ns one fold partition spent in the latest owned \
                 folds, summed over live counting sides (skew gauge)",
            )
            .set(*ns);
        }

        let counting = self.counting_telemetry();
        reg.counter(
            "dcq_counting_index_probes_total",
            "Shared-index probes issued by telescoped fold steps",
        )
        .set_total(counting.index_probes);
        reg.counter(
            "dcq_counting_compensated_masks_total",
            "Rows masked out of probe results by delta compensation",
        )
        .set_total(counting.compensated_masks);
        reg.counter(
            "dcq_counting_compensated_restores_total",
            "Deleted rows restored into probe results by delta compensation",
        )
        .set_total(counting.compensated_restores);
        reg.counter(
            "dcq_counting_deletion_index_builds_total",
            "Transient deletion-side index builds",
        )
        .set_total(counting.deletion_index_builds);
        reg.counter(
            "dcq_counting_folds_owned_total",
            "Batch folds a side performed itself (first locker per epoch)",
        )
        .set_total(counting.folds_owned);
        reg.counter(
            "dcq_counting_fold_hits_shared_total",
            "Batch folds served from a pool-shared side's memoized delta",
        )
        .set_total(counting.fold_hits_shared);

        let pool = self.pool.stats();
        reg.counter(
            "dcq_pool_hits_total",
            "Side acquisitions served by a live shared side",
        )
        .set_total(pool.hits);
        reg.counter(
            "dcq_pool_misses_total",
            "Side acquisitions that built and seeded a fresh side",
        )
        .set_total(pool.misses);
        reg.gauge("dcq_pool_live_sides", "Live pooled counting side shapes")
            .set(pool.live as u64);
        reg.gauge(
            "dcq_pool_shared_sides",
            "Pooled sides held by more than one view",
        )
        .set(pool.shared as u64);

        let plans = self.plans.stats();
        reg.counter(
            "dcq_plan_cache_hits_total",
            "Preparations served without reclassification",
        )
        .set_total(plans.hits);
        reg.counter(
            "dcq_plan_cache_misses_total",
            "Preparations that performed classification work",
        )
        .set_total(plans.misses);
        reg.gauge("dcq_plan_cache_entries", "Memoized plan shapes")
            .set(plans.entries as u64);
    }

    /// Copy out the retained per-batch traces, oldest first, without consuming
    /// them.  Empty without the `telemetry` feature (the hooks that record
    /// traces compile to nothing).
    pub fn traces(&self) -> Vec<BatchTrace> {
        self.telemetry.sink.snapshot()
    }

    /// Remove and return the retained per-batch traces, oldest first.
    pub fn drain_traces(&self) -> Vec<BatchTrace> {
        self.telemetry.sink.drain()
    }

    /// Render the retained per-batch traces as JSON lines (one `BatchTrace`
    /// object per line, oldest first), without consuming them.
    pub fn trace_json_lines(&self) -> String {
        render_json_lines(&self.telemetry.sink.snapshot())
    }

    /// Replace the per-batch trace sink (default: a bounded
    /// [`RingTraceSink`] retaining the most recent
    /// [`RingTraceSink::DEFAULT_CAPACITY`] traces).  Retained traces in the
    /// old sink are discarded with it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.telemetry.sink = sink;
    }

    /// The scheduled-checkpoint policy [`DcqEngine::apply`] checks after every
    /// batch (default: never).
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.compaction
    }

    /// Install scheduled checkpoints: once more than the policy's bound of
    /// batches were applied since the last checkpoint, the engine writes one
    /// through the [`CheckpointSink`] ([`DcqEngine::set_checkpoint_sink`]).
    /// Each successful write bumps `dcq_engine_compactions_total`
    /// ([`EngineStats::compactions`]).
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        self.compaction = policy;
    }

    /// Install (or remove) the sink scheduled checkpoints go to.  A sink
    /// failure bumps `dcq_engine_checkpoint_errors_total`, and the policy
    /// retries after the next batch.
    pub fn set_checkpoint_sink(&mut self, sink: Option<Box<dyn CheckpointSink>>) {
        self.checkpoint_sink = sink;
    }

    /// The scheduled-checkpoint step at the end of `apply`'s policy tail.
    fn maybe_checkpoint(&mut self) {
        let due = self
            .compaction
            .max_retained_batches
            .is_some_and(|max| self.batches_since_checkpoint > max);
        if !due {
            return;
        }
        let Some(sink) = self.checkpoint_sink.as_mut() else {
            return;
        };
        match sink.write_checkpoint(self.store.epoch(), self.store.database()) {
            Ok(()) => {
                self.batches_since_checkpoint = 0;
                self.telemetry.compactions.inc();
            }
            Err(_) => self.telemetry.checkpoint_errors.inc(),
        }
    }

    /// Estimated heap footprint of the store in bytes — base relations **plus**
    /// the shared index registry.
    ///
    /// This is the number that used to scale with the view count: independent
    /// views held per-view copies of their referenced relations *and* per-view
    /// index structures; the engine holds one store and one refcounted index per
    /// distinct probe signature, regardless of how many views probe it.  (Until
    /// this accounting was fixed, index memory was silently omitted.)
    pub fn store_bytes(&self) -> usize {
        self.store.approx_bytes() + self.store.index_bytes()
    }

    /// Number of live shared indexes in the store's registry.
    pub fn index_count(&self) -> usize {
        self.store.index_count()
    }

    /// Estimated heap footprint of the shared index registry in bytes.
    pub fn index_bytes(&self) -> usize {
        self.store.index_bytes()
    }
}

impl fmt::Debug for DcqEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DcqEngine[epoch {}, {} views, {} relations, {} tuples]",
            self.store.epoch(),
            self.view_count(),
            self.store.database().relation_count(),
            self.store.input_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcq_core::baseline::{baseline_dcq, CqStrategy};
    use dcq_core::parse_dcq;
    use dcq_storage::row::int_row;

    const EASY: &str = "Q(a, b, c) :- Triple(a, b, c) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)";
    const HARD: &str = "Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)";

    fn engine() -> DcqEngine {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![
                vec![1, 2],
                vec![2, 3],
                vec![3, 1],
                vec![2, 4],
                vec![4, 1],
                vec![4, 5],
            ],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Triple",
            &["a", "b", "c"],
            vec![vec![1, 2, 3], vec![2, 3, 1], vec![2, 4, 1], vec![7, 8, 9]],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Edge",
            &["src", "dst"],
            vec![vec![1, 3], vec![2, 4]],
        ))
        .unwrap();
        db.add(Relation::from_int_rows("Other", &["k"], vec![vec![1]]))
            .unwrap();
        DcqEngine::with_database(db)
    }

    #[test]
    fn prepare_register_apply_matches_recomputation() {
        let mut engine = engine();
        let easy = engine.register_dcq(parse_dcq(EASY).unwrap()).unwrap();
        let hard = engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap();
        // The rerun arm runs only where a caller names it.
        let rerun = engine
            .register_with(parse_dcq(EASY).unwrap(), IncrementalStrategy::EasyRerun)
            .unwrap();
        assert_eq!(engine.view_count(), 3);
        for handle in [easy, hard] {
            assert_eq!(
                engine.view(handle).unwrap().strategy(),
                IncrementalStrategy::Counting
            );
        }
        assert_eq!(
            engine.view(rerun).unwrap().strategy(),
            IncrementalStrategy::EasyRerun
        );

        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([9, 7]));
        batch.insert("Graph", int_row([7, 8]));
        batch.insert("Graph", int_row([8, 9]));
        batch.delete("Edge", int_row([2, 4]));
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.views_applied, 3);
        assert_eq!(report.effect.inserted, 3);
        assert_eq!(report.effect.deleted, 1);

        for handle in [easy, hard, rerun] {
            let view = engine.view(handle).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(handle).unwrap().sorted_rows(),
                expected.sorted_rows()
            );
            assert_eq!(view.epoch(), 1);
        }
        assert_eq!(engine.stats().batches_applied, 1);
    }

    #[test]
    fn identical_shapes_prepare_without_reclassification() {
        let mut engine = engine();
        let first = engine.prepare(parse_dcq(EASY).unwrap()).unwrap();
        assert!(!first.cache_hit());
        let second = engine.prepare(parse_dcq(EASY).unwrap()).unwrap();
        assert!(
            second.cache_hit(),
            "identical shape must hit the plan cache"
        );
        // α-renamed variables and a different query name still share the shape.
        let renamed = engine
            .prepare(
                parse_dcq(
                    "P(x, y, z) :- Triple(x, y, z) EXCEPT Graph(x, y), Graph(y, z), Graph(z, x)",
                )
                .unwrap(),
            )
            .unwrap();
        assert!(renamed.cache_hit());
        let stats = engine.plan_cache_stats();
        assert_eq!(stats.misses, 1, "exactly one classification performed");
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(first.strategy(), second.strategy());
        assert_eq!(first.strategy(), IncrementalStrategy::Counting);
        assert!(first.explain().contains("counting maintenance"));

        // Registering both preparations yields distinct handles over ONE shared
        // maintained view.
        let a = engine.register(&first).unwrap();
        let b = engine.register(&second).unwrap();
        assert_ne!(a, b);
        assert_eq!(engine.view_count(), 2);
        assert_eq!(engine.distinct_view_count(), 1, "identical shapes share");
        assert_eq!(
            engine.result(a).unwrap().sorted_rows(),
            engine.result(b).unwrap().sorted_rows()
        );
    }

    #[test]
    fn skipped_views_record_the_epoch() {
        let mut engine = engine();
        let easy = engine.register_dcq(parse_dcq(EASY).unwrap()).unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert("Other", int_row([42]));
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.views_skipped, 1);
        assert_eq!(report.views_applied, 0);
        // The view did no work but still advanced to the store epoch.
        assert_eq!(engine.view(easy).unwrap().epoch(), 1);
        assert_eq!(engine.view(easy).unwrap().stats().batches_skipped, 1);
    }

    #[test]
    fn deregister_frees_the_slot_and_invalidates_the_handle() {
        let mut engine = engine();
        let a = engine.register_dcq(parse_dcq(EASY).unwrap()).unwrap();
        let b = engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap();
        engine.deregister(a).unwrap();
        assert_eq!(engine.view_count(), 1);
        assert!(engine.view(a).is_err());
        assert!(engine.result(a).is_err());
        assert!(matches!(
            engine.deregister(a),
            Err(EngineError::UnknownView(_))
        ));
        // The freed slot is reused — but a stale copy of the old handle must NOT
        // alias the new tenant (generation check).
        let stale = a;
        let c = engine.register_dcq(parse_dcq(EASY).unwrap()).unwrap();
        assert_eq!(c.index(), a.index());
        assert_ne!(stale, c);
        assert!(engine.view(stale).is_err(), "stale handle must not resolve");
        assert!(matches!(
            engine.deregister(stale),
            Err(EngineError::UnknownView(_))
        ));
        assert!(engine.view(c).is_ok());
        assert_eq!(engine.view_count(), 2);
        assert_eq!(engine.stats().views_registered, 3);
        assert_eq!(engine.stats().views_deregistered, 1);
        // Remaining views keep working.
        let mut batch = DeltaBatch::new();
        batch.delete("Graph", int_row([2, 3]));
        engine.apply(&batch).unwrap();
        for (handle, view) in engine.views() {
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(handle).unwrap().sorted_rows(),
                expected.sorted_rows()
            );
        }
        let _ = b;
    }

    #[test]
    fn unknown_relations_and_bad_arity_are_rejected_atomically() {
        let mut engine = engine();
        let easy = engine.register_dcq(parse_dcq(EASY).unwrap()).unwrap();
        let before = engine.result(easy).unwrap().sorted_rows();

        let mut unknown = DeltaBatch::new();
        unknown.insert("Missing", int_row([1]));
        assert!(matches!(
            engine.apply(&unknown),
            Err(EngineError::Storage(StorageError::UnknownRelation(_)))
        ));
        let mut bad = DeltaBatch::new();
        bad.insert("Graph", int_row([1, 2, 3]));
        assert!(engine.apply(&bad).is_err());

        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.view(easy).unwrap().epoch(), 0);
        assert_eq!(engine.result(easy).unwrap().sorted_rows(), before);
    }

    #[test]
    fn relations_can_be_added_live() {
        let mut engine = DcqEngine::new();
        engine
            .add_relation(Relation::from_int_rows("R", &["a", "b"], vec![vec![1, 2]]))
            .unwrap();
        engine
            .add_relation(Relation::from_int_rows("S", &["a", "b"], vec![]))
            .unwrap();
        let view = engine
            .register_dcq(parse_dcq("Q(a, b) :- R(a, b) EXCEPT S(a, b)").unwrap())
            .unwrap();
        assert_eq!(engine.result(view).unwrap().len(), 1);
        assert_eq!(engine.relation("R").unwrap().len(), 1);
        let mut batch = DeltaBatch::new();
        batch.insert("S", int_row([1, 2]));
        engine.apply(&batch).unwrap();
        assert!(engine.result(view).unwrap().is_empty());
        assert!(format!("{engine:?}").contains("DcqEngine"));
        assert_eq!(engine.relation("R").unwrap().epoch(), 1);
    }

    #[test]
    fn shared_views_are_maintained_once_and_torn_down_last_out() {
        let mut engine = engine();
        let handles: Vec<ViewHandle> = (0..4)
            .map(|_| engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap())
            .collect();
        assert_eq!(engine.view_count(), 4);
        assert_eq!(engine.distinct_view_count(), 1);
        // The same shape under a *forced different strategy* is its own view.
        let forced = engine
            .register_with(parse_dcq(HARD).unwrap(), IncrementalStrategy::EasyRerun)
            .unwrap();
        assert_eq!(engine.distinct_view_count(), 2);

        let mut batch = DeltaBatch::new();
        batch.delete("Graph", int_row([2, 3]));
        let report = engine.apply(&batch).unwrap();
        // 4 handles share one counting view; the fan-out is 2 distinct views.
        assert_eq!(report.views_applied, 2);
        for h in handles.iter().chain([&forced]) {
            let view = engine.view(*h).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(*h).unwrap().sorted_rows(),
                expected.sorted_rows()
            );
        }

        // Deregistering all but one handle keeps the shared view alive…
        for h in &handles[..3] {
            engine.deregister(*h).unwrap();
        }
        assert_eq!(engine.distinct_view_count(), 2);
        assert!(engine.view(handles[3]).is_ok());
        // …and the last one tears it down.
        engine.deregister(handles[3]).unwrap();
        assert_eq!(engine.distinct_view_count(), 1);
        assert!(engine.view(handles[3]).is_err());
        assert_eq!(engine.stats().views_registered, 5);
        assert_eq!(engine.stats().views_deregistered, 4);
    }

    #[test]
    fn counting_views_share_registry_indexes_across_distinct_shapes() {
        let mut engine = engine();
        let base = engine.store_bytes();
        assert_eq!(engine.stats().index_count, 0);

        // Two *distinct* hard shapes sharing the negative side's structure: the
        // probe signatures overlap, so the registry holds fewer indexes than a
        // per-view design would build.
        let a = engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap();
        let after_first = engine.stats();
        assert!(after_first.index_count > 0);
        assert!(after_first.index_bytes > 0);
        assert_eq!(
            engine.store_bytes(),
            base + engine.index_bytes(),
            "store_bytes must account for index memory"
        );

        let b = engine
            .register_dcq(
                parse_dcq("P(a, c) :- Edge(c, a) EXCEPT Graph(a, b), Graph(b, c)").unwrap(),
            )
            .unwrap();
        let after_second = engine.stats();
        assert_eq!(engine.distinct_view_count(), 2, "shapes are distinct");
        assert!(
            after_second.index_count < 2 * after_first.index_count,
            "overlapping shapes must share registry entries \
             ({} vs 2×{})",
            after_second.index_count,
            after_first.index_count
        );

        // Both views stay exact, and deregistration returns every index.
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([5, 2]));
        batch.delete("Edge", int_row([1, 3]));
        engine.apply(&batch).unwrap();
        for h in [a, b] {
            let view = engine.view(h).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(h).unwrap().sorted_rows(),
                expected.sorted_rows()
            );
        }
        engine.deregister(a).unwrap();
        assert!(engine.stats().index_count > 0, "b still holds its indexes");
        engine.deregister(b).unwrap();
        assert_eq!(engine.stats().index_count, 0);
        assert_eq!(engine.stats().index_bytes, 0);
    }

    #[test]
    fn adaptive_views_migrate_both_ways_under_the_policy() {
        let mut engine = engine();
        // The test store is tiny, so pick thresholds in delta-fraction terms:
        // crossover at 20% of the store, short warm-up.  Decisions depend only
        // on observed delta fractions, never on wall-clock, so this test is
        // deterministic.
        engine.set_cost_model(MaintenanceCostModel {
            crossover_fraction: 0.2,
            hysteresis: 0.1,
            min_observations: 2,
            ..MaintenanceCostModel::default()
        });
        assert_eq!(engine.cost_model().crossover_fraction, 0.2);
        let adaptive = engine.register_adaptive(parse_dcq(HARD).unwrap()).unwrap();
        let view = engine.view(adaptive).unwrap();
        assert_eq!(view.strategy(), IncrementalStrategy::Adaptive);
        assert_eq!(
            view.active_strategy(),
            IncrementalStrategy::Counting,
            "the trickle prior (and the dichotomy) start this view on counting"
        );
        assert!(engine.batch_stats(adaptive).unwrap().is_some());
        // An adaptive registration of the same shape shares view AND stats; a
        // fixed-strategy registration of the same shape does not.
        let sharer = engine.register_adaptive(parse_dcq(HARD).unwrap()).unwrap();
        assert_eq!(engine.distinct_view_count(), 1);
        let fixed = engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap();
        assert_eq!(engine.distinct_view_count(), 2);
        assert!(engine.batch_stats(fixed).unwrap().is_none());

        // Bulk batches (~1/3 of the store each) push the EWMA past the
        // crossover: after the warm-up the view flips to rerun.
        let mut next = 100;
        while engine.view(adaptive).unwrap().active_strategy() == IncrementalStrategy::Counting {
            let mut batch = DeltaBatch::new();
            for _ in 0..4 {
                batch.insert("Graph", int_row([next, next + 1]));
                next += 2;
            }
            engine.apply(&batch).unwrap();
            assert!(next < 200, "policy never migrated to rerun");
        }
        assert_eq!(engine.stats().migrations_to_rerun, 1);
        let stats = engine.batch_stats(adaptive).unwrap().unwrap();
        assert!(stats.ewma_delta_fraction > 0.2);
        assert!(stats.cost_estimate(IncrementalStrategy::Counting).is_some());

        // Trickle batches decay the EWMA back below the band: the view returns
        // to counting.
        while engine.view(adaptive).unwrap().active_strategy() == IncrementalStrategy::EasyRerun {
            let mut batch = DeltaBatch::new();
            batch.insert("Edge", int_row([next, next]));
            next += 1;
            engine.apply(&batch).unwrap();
            assert!(next < 300, "policy never migrated back to counting");
        }
        assert_eq!(engine.stats().migrations_to_counting, 1);
        let stats = engine.batch_stats(adaptive).unwrap().unwrap();
        assert!(
            stats
                .cost_estimate(IncrementalStrategy::EasyRerun)
                .is_some(),
            "the rerun leg left cost samples behind"
        );

        // Throughout and after all migrations every handle stays exact.
        for h in [adaptive, sharer, fixed] {
            let view = engine.view(h).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(h).unwrap().sorted_rows(),
                expected.sorted_rows()
            );
        }
        assert_eq!(
            engine.view(adaptive).unwrap().stats().migrations,
            2,
            "one flip each way"
        );

        // Deregistration drains shared state exactly as for fixed views.
        for h in [adaptive, sharer, fixed] {
            engine.deregister(h).unwrap();
        }
        assert_eq!(engine.stats().index_count, 0);
        assert_eq!(engine.counting_pool_stats().live, 0);
    }

    #[test]
    fn manual_migration_is_exact_and_conserves_shared_state() {
        let mut engine = engine();
        let fixed = engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap();
        let baseline_indexes = engine.stats().index_count;
        assert!(baseline_indexes > 0);
        // A *distinct* view with the same counting sides (the adaptive twin of
        // the shape keys separately but pools the same sides), so a manual
        // migration of one view must not strand or free the other's state.
        let control = engine.register_adaptive(parse_dcq(HARD).unwrap()).unwrap();
        assert_eq!(engine.distinct_view_count(), 2);
        assert_eq!(engine.stats().index_count, baseline_indexes);

        assert!(engine
            .migrate(fixed, IncrementalStrategy::EasyRerun)
            .unwrap());
        assert!(!engine
            .migrate(fixed, IncrementalStrategy::EasyRerun)
            .unwrap());
        assert_eq!(
            engine.stats().index_count,
            baseline_indexes,
            "control still holds every shared index"
        );
        assert_eq!(engine.stats().migrations_to_rerun, 1);

        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([5, 2]));
        batch.delete("Edge", int_row([1, 3]));
        engine.apply(&batch).unwrap();
        for h in [fixed, control] {
            let view = engine.view(h).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(h).unwrap().sorted_rows(),
                expected.sorted_rows()
            );
        }

        // Migrate back: the pooled side is *shared* again, not reseeded.
        let hits_before = engine.counting_pool_stats().hits;
        assert!(engine
            .migrate(fixed, IncrementalStrategy::Counting)
            .unwrap());
        assert!(
            engine.counting_pool_stats().hits > hits_before,
            "re-migration must reuse the control's live pooled sides"
        );
        assert_eq!(engine.stats().index_count, baseline_indexes);

        engine.deregister(fixed).unwrap();
        engine.deregister(control).unwrap();
        assert_eq!(engine.stats().index_count, 0);
    }

    #[test]
    fn re_registration_re_asserts_the_declared_strategy() {
        let mut engine = engine();
        let fixed = engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap();
        assert!(engine
            .migrate(fixed, IncrementalStrategy::EasyRerun)
            .unwrap());
        assert_eq!(
            engine.view(fixed).unwrap().active_strategy(),
            IncrementalStrategy::EasyRerun
        );
        // A fresh registration of the same (shape, Counting) key shares the
        // manually migrated view — and migrates it back to the kind the
        // registration demands.
        let again = engine
            .register_with(parse_dcq(HARD).unwrap(), IncrementalStrategy::Counting)
            .unwrap();
        assert_eq!(engine.distinct_view_count(), 1, "same key shares the view");
        for h in [fixed, again] {
            assert_eq!(
                engine.view(h).unwrap().active_strategy(),
                IncrementalStrategy::Counting,
                "registration re-asserts the declared strategy"
            );
        }
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([5, 2]));
        engine.apply(&batch).unwrap();
        for h in [fixed, again] {
            let view = engine.view(h).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(h).unwrap().sorted_rows(),
                expected.sorted_rows()
            );
        }
        engine.deregister(fixed).unwrap();
        engine.deregister(again).unwrap();
        assert_eq!(engine.stats().index_count, 0);
    }

    #[test]
    fn parallel_and_sequential_apply_agree_bit_for_bit() {
        // A quick in-crate smoke test; the full proptest suite lives in
        // tests/parallel_determinism.rs at the workspace root.
        let mut sequential = engine();
        let mut parallel = engine();
        sequential.set_workers(1);
        parallel.set_workers(4);
        assert_eq!(sequential.workers(), 1);
        assert_eq!(parallel.workers(), 4);

        let mut handles = Vec::new();
        for engine in [&mut sequential, &mut parallel] {
            engine.set_cost_model(MaintenanceCostModel {
                crossover_fraction: 0.2,
                hysteresis: 0.1,
                min_observations: 2,
                ..MaintenanceCostModel::default()
            });
            let hs = vec![
                engine.register_dcq(parse_dcq(EASY).unwrap()).unwrap(),
                engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap(),
                engine.register_adaptive(parse_dcq(HARD).unwrap()).unwrap(),
                // A second Q_G5-style hard shape pooling the same positive side.
                engine
                    .register_dcq(
                        parse_dcq("P(a, c) :- Edge(c, a) EXCEPT Graph(a, b), Graph(b, c)").unwrap(),
                    )
                    .unwrap(),
            ];
            handles.push(hs);
        }

        let mut next = 50;
        for step in 0..12i64 {
            let mut batch = DeltaBatch::new();
            for _ in 0..(1 + step % 4) {
                batch.insert("Graph", int_row([next, next + 1]));
                next += 2;
            }
            if step % 3 == 0 {
                batch.delete("Graph", int_row([2, 3]));
                batch.insert("Edge", int_row([next, 1]));
            }
            let a = sequential.apply(&batch).unwrap();
            let b = parallel.apply(&batch).unwrap();
            assert_eq!(a, b, "reports diverged at step {step}");
            for (h1, h2) in handles[0].iter().zip(&handles[1]) {
                assert_eq!(
                    sequential.result(*h1).unwrap().sorted_rows(),
                    parallel.result(*h2).unwrap().sorted_rows(),
                    "results diverged at step {step}"
                );
                assert_eq!(
                    sequential.view(*h1).unwrap().stats(),
                    parallel.view(*h2).unwrap().stats()
                );
                assert_eq!(
                    sequential.view(*h1).unwrap().active_strategy(),
                    parallel.view(*h2).unwrap().active_strategy()
                );
            }
            // `workers` is the one stats field that legitimately differs — it
            // reports configuration, not work done.
            assert_eq!(
                EngineStats {
                    workers: 0,
                    ..sequential.stats()
                },
                EngineStats {
                    workers: 0,
                    ..parallel.stats()
                }
            );
            assert_eq!(
                sequential.counting_telemetry(),
                parallel.counting_telemetry(),
                "counting work counters diverged at step {step}"
            );
            assert_eq!(
                sequential.counting_pool_stats(),
                parallel.counting_pool_stats()
            );
        }
        // Cost samples are timing and therefore NOT comparable across engines —
        // but their provenance must be the engine's pinned clock, the CPU clock
        // wherever the platform has one, so parallel scheduling cannot skew them.
        if dcq_core::heuristics::thread_cpu_time_ns().is_some() {
            assert_eq!(parallel.cost_clock(), CostClock::ThreadCpu);
            let stats = parallel.batch_stats(handles[1][2]).unwrap().unwrap();
            assert_eq!(stats.cost_clock, dcq_core::heuristics::CostClock::ThreadCpu);
        }
    }

    #[test]
    fn cost_samples_use_one_pinned_clock() {
        // The clock is pinned at construction to the platform's best choice…
        let mut engine = engine();
        let expected = if dcq_core::heuristics::thread_cpu_time_ns().is_some() {
            CostClock::ThreadCpu
        } else {
            CostClock::Wall
        };
        assert_eq!(engine.cost_clock(), expected);

        // …and every sample the adaptive policy sees carries exactly that
        // provenance, batch after batch (the old design re-probed per sample
        // and could mix clocks within one engine).
        let adaptive = engine.register_adaptive(parse_dcq(HARD).unwrap()).unwrap();
        for step in 0..5i64 {
            let mut batch = DeltaBatch::new();
            batch.insert("Graph", int_row([900 + step, 901 + step]));
            engine.apply(&batch).unwrap();
            let stats = engine.batch_stats(adaptive).unwrap().unwrap();
            assert_eq!(stats.cost_clock, expected, "clock drifted at step {step}");
        }
    }

    #[test]
    fn scheduled_compaction_policy_bounds_the_log() {
        let mut engine = engine();
        engine.register_dcq(parse_dcq(EASY).unwrap()).unwrap();
        engine.set_compaction_policy(CompactionPolicy::max_retained_batches(5));
        assert_eq!(
            engine.compaction_policy(),
            CompactionPolicy::max_retained_batches(5)
        );

        // Checkpoints go to an in-memory sink; each write records its epoch.
        type WrittenCheckpoints = Arc<std::sync::Mutex<Vec<(Epoch, Vec<u8>)>>>;
        let written: WrittenCheckpoints = Arc::default();
        let recording_sink = |written: &WrittenCheckpoints| -> Box<dyn CheckpointSink> {
            let written = Arc::clone(written);
            Box::new(move |epoch: Epoch, db: &Database| -> std::io::Result<()> {
                let mut buf = Vec::new();
                dcq_storage::checkpoint::write_checkpoint(&mut buf, epoch, db)
                    .map_err(std::io::Error::other)?;
                written.lock().unwrap().push((epoch, buf));
                Ok(())
            })
        };
        let epochs = |written: &WrittenCheckpoints| -> Vec<Epoch> {
            written.lock().unwrap().iter().map(|(e, _)| *e).collect()
        };
        let mut next = 0i64;
        let mut apply = |engine: &mut DcqEngine, n: usize| {
            for _ in 0..n {
                let mut batch = DeltaBatch::new();
                batch.insert("Graph", int_row([70 + next, next]));
                next += 1;
                engine.apply(&batch).unwrap();
            }
        };

        // Every sixth batch over a 5-batch bound is checkpointed, and the
        // checkpoint is the database of record at its epoch.
        engine.set_checkpoint_sink(Some(recording_sink(&written)));
        apply(&mut engine, 12);
        assert_eq!(epochs(&written), vec![6, 12]);
        assert_eq!(engine.stats().compactions, 2);
        assert!(engine.metrics().contains("dcq_engine_compactions_total 2"));
        let (epoch, bytes) = written.lock().unwrap().last().cloned().unwrap();
        let (read_epoch, rebuilt) =
            dcq_storage::checkpoint::read_checkpoint(&mut bytes.as_slice()).unwrap();
        assert_eq!((epoch, read_epoch), (12, engine.epoch()));
        assert_eq!(
            rebuilt.get("Graph").unwrap().sorted_rows(),
            engine.database().get("Graph").unwrap().sorted_rows()
        );

        // A failing sink is retried after every batch past the bound…
        engine.set_checkpoint_sink(Some(Box::new(
            |_: Epoch, _: &Database| -> std::io::Result<()> {
                Err(std::io::Error::other("disk on fire"))
            },
        )));
        apply(&mut engine, 8);
        assert_eq!(engine.stats().compactions, 2);
        assert!(engine
            .metrics()
            .contains("dcq_engine_checkpoint_errors_total 3"));
        // …and the first write that succeeds covers every batch since epoch 12.
        engine.set_checkpoint_sink(Some(recording_sink(&written)));
        apply(&mut engine, 1);
        assert_eq!(epochs(&written), vec![6, 12, 21]);

        // Without a sink the policy has nothing to persist.
        engine.set_checkpoint_sink(None);
        apply(&mut engine, 12);
        assert_eq!(engine.stats().compactions, 3);
        assert!(engine
            .metrics()
            .contains("dcq_engine_checkpoint_errors_total 3"));
    }

    #[test]
    fn engine_core_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<DcqEngine>();
        assert_sync::<DcqEngine>();
        assert_sync::<SharedDatabase>();
    }

    #[test]
    fn metrics_exposition_covers_every_layer_and_stats_derive_from_it() {
        let mut engine = engine();
        engine.set_workers(2);
        let hard = engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap();
        // One rerun view beside the counting one, so the exposition covers a
        // view that holds no pooled side.
        let easy = engine
            .register_with(parse_dcq(EASY).unwrap(), IncrementalStrategy::EasyRerun)
            .unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([5, 2]));
        batch.delete("Edge", int_row([1, 3]));
        engine.apply(&batch).unwrap();

        // The derived stats view reflects the registry and the live snapshots.
        let stats = engine.stats();
        assert_eq!(stats.batches_applied, 1);
        assert_eq!(stats.views_registered, 2);
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.pool_live, 2, "two counting sides live");
        assert_eq!(stats.pool_shared, 0);

        // The exposition carries every layer's metric families, in every
        // feature configuration (gated counters just read zero when off).
        let text = engine.metrics();
        for name in [
            "dcq_engine_batches_total 1",
            "dcq_engine_epoch 1",
            "dcq_engine_view_handles 2",
            "dcq_engine_distinct_views 2",
            "dcq_engine_workers 2",
            "dcq_engine_commit_ns_count",
            "dcq_engine_fanout_ns_bucket",
            "dcq_engine_view_cost_ns_sum",
            "dcq_index_count",
            "dcq_index_inplace_writes_total",
            "dcq_index_cow_clones_total",
            "dcq_counting_index_probes_total",
            "dcq_counting_folds_owned_total",
            "dcq_pool_live_sides 2",
            "dcq_plan_cache_misses_total 2",
        ] {
            assert!(
                text.contains(name),
                "metrics() must render {name:?}:\n{text}"
            );
        }
        assert_eq!(
            engine.metrics_registry().value("dcq_engine_batches_total"),
            Some(1)
        );

        // Registry values and derived stats agree by construction.
        #[cfg(feature = "telemetry")]
        {
            assert!(
                engine.counting_telemetry().index_probes > 0,
                "the hard view's counting fold must probe shared indexes"
            );
            assert!(engine.index_telemetry().inplace_writes > 0);
        }
        engine.deregister(hard).unwrap();
        engine.deregister(easy).unwrap();
        assert_eq!(engine.stats().pool_live, 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn per_batch_traces_record_phases_views_and_migrations() {
        let mut engine = engine();
        engine.set_cost_model(MaintenanceCostModel {
            crossover_fraction: 0.2,
            hysteresis: 0.1,
            min_observations: 2,
            ..MaintenanceCostModel::default()
        });
        let adaptive = engine.register_adaptive(parse_dcq(HARD).unwrap()).unwrap();
        engine.register_dcq(parse_dcq(EASY).unwrap()).unwrap();

        // Drive bulk batches until the adaptive view migrates to rerun.
        let mut next = 100;
        while engine.view(adaptive).unwrap().active_strategy() == IncrementalStrategy::Counting {
            let mut batch = DeltaBatch::new();
            for _ in 0..4 {
                batch.insert("Graph", int_row([next, next + 1]));
                next += 2;
            }
            engine.apply(&batch).unwrap();
            assert!(next < 200, "policy never migrated");
        }

        let traces = engine.traces();
        assert_eq!(
            traces.len(),
            engine.stats().batches_applied,
            "one trace per apply"
        );
        let clock = clock_label(engine.cost_clock());
        for (i, trace) in traces.iter().enumerate() {
            assert_eq!(trace.epoch, i as u64 + 1);
            assert_eq!(trace.batch_len, 4);
            assert_eq!(trace.inserted, 4);
            assert_eq!(trace.views.len(), 2, "every live view gets a record");
            for record in &trace.views {
                assert_eq!(record.clock, clock);
                if !record.skipped {
                    assert!(record.delta_fraction > 0.0);
                }
            }
        }
        // The last trace carries the migration decision on the adaptive slot.
        let last = traces.last().unwrap();
        let migrated: Vec<_> = last
            .views
            .iter()
            .filter(|r| r.migration == Some("EasyRerun"))
            .collect();
        assert_eq!(migrated.len(), 1, "exactly one view migrated: {last:?}");
        assert_eq!(
            migrated[0].strategy, "Counting",
            "strategy is pre-migration"
        );

        // Phase histograms saw every batch, and the JSON-lines dump is one
        // object per trace with the phase fields present.
        assert!(engine
            .metrics()
            .contains(&format!("dcq_engine_commit_ns_count {}", traces.len())));
        let json = engine.trace_json_lines();
        assert_eq!(json.lines().count(), traces.len());
        assert!(json.lines().all(|l| l.starts_with("{\"epoch\":")
            && l.contains("\"commit_ns\":")
            && l.contains("\"fanout_ns\":")
            && l.contains("\"policy_ns\":")
            && l.contains("\"views\":[")));

        // Draining consumes; a replacement sink starts empty.
        assert_eq!(engine.drain_traces().len(), traces.len());
        assert!(engine.traces().is_empty());
        engine.set_trace_sink(Box::new(dcq_telemetry::RingTraceSink::new(2)));
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([7, 7]));
        engine.apply(&batch).unwrap();
        assert_eq!(engine.traces().len(), 1);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn telemetry_off_records_no_traces_but_keeps_the_api() {
        let mut engine = engine();
        engine.register_dcq(parse_dcq(HARD).unwrap()).unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([5, 2]));
        engine.apply(&batch).unwrap();
        assert!(engine.traces().is_empty(), "trace hooks compile to nothing");
        assert_eq!(engine.trace_json_lines(), "");
        assert_eq!(engine.counting_telemetry(), CountingTelemetry::default());
        assert_eq!(engine.stats().batches_applied, 1, "stats stay live");
        assert!(engine.metrics().contains("dcq_engine_batches_total 1"));
    }

    #[test]
    fn forced_strategy_registration_is_supported() {
        let mut engine = engine();
        let counting = engine
            .register_with(parse_dcq(EASY).unwrap(), IncrementalStrategy::Counting)
            .unwrap();
        assert_eq!(
            engine.view(counting).unwrap().strategy(),
            IncrementalStrategy::Counting
        );
        let mut batch = DeltaBatch::new();
        batch.insert("Triple", int_row([5, 6, 7]));
        engine.apply(&batch).unwrap();
        let view = engine.view(counting).unwrap();
        let expected = baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
        assert_eq!(
            engine.result(counting).unwrap().sorted_rows(),
            expected.sorted_rows()
        );
    }
}
