//! Every call into `dcqx` lives in this file, so a change of the system's API
//! is followed by a one-file change here.
//!
//! * [`inputs`] — the seeded generators.  The seed reaches nothing else.
//! * [`facade`] — what the end-to-end `run` calls: the default entry points
//!   only, with no strategy, width, partition or shard setter, so a later
//!   change of a default shows up as a gain or a loss instead of being
//!   selected away here.
//! * [`layers`] — what the traced run calls: the same inputs pushed through
//!   the public functions of each crate, one call per span.

use dcqx::dcq_storage::row::int_row;
pub use dcqx::dcq_storage::{AppliedBatch, Row};
pub use dcqx::{Database, Dcq, DeltaBatch, Relation};

use std::io;
use std::path::Path;

/// The seeded generators.
pub mod inputs {
    use super::*;
    use dcqx::dcq_datagen::datasets::build_dataset;
    use dcqx::dcq_datagen::{
        graph_query, update_workload, Graph, GraphQueryId, SplitMix64, TripleRuleMix, UpdateSpec,
    };

    /// `Graph` + `Triple` over a skewed (preferential-attachment) graph.
    ///
    /// The database's *shape* — the graph's degree sequence and hub
    /// structure, and which paths `Triple` sampled — comes from `shape_seed`,
    /// which is part of the workload's definition like the node count is.
    /// Redrawing a preferential-attachment graph per seed moves the cost of
    /// the path and cycle queries by 15–30 % between seeds, and redrawing
    /// only `Triple` still moves `Q_G2` by 30 %: more than any bound could
    /// hold.  `seed` decides which vertex carries which id and the order of
    /// the rows of both relations, so every tuple differs between seeds while
    /// the join sizes do not.
    pub fn skewed(
        nodes: u64,
        out_degree: usize,
        triple_fraction: f64,
        shape_seed: u64,
        seed: u64,
    ) -> Database {
        let shape = build_dataset(
            "skewed",
            Graph::preferential_attachment(nodes, out_degree, shape_seed),
            triple_fraction,
            TripleRuleMix::balanced(),
            shape_seed ^ 0x5EED_0001,
        )
        .db;
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0004);
        let mut id_of: Vec<i64> = (0..nodes as i64).collect();
        shuffle(&mut id_of, &mut rng);
        let mut db = Database::new();
        for (name, relation) in shape.iter() {
            let mut rows: Vec<Row> = relation
                .iter()
                .map(|row| {
                    int_row(row.iter().map(|v| {
                        id_of[v.as_int().expect("generated graphs hold integers") as usize]
                    }))
                })
                .collect();
            shuffle(&mut rows, &mut rng);
            let mut relabelled = Relation::from_rows(name.clone(), relation.schema().clone(), rows)
                .expect("rows keep their arity");
            relabelled.assume_distinct();
            db.add(relabelled).expect("fresh database");
        }
        db
    }

    /// Fisher–Yates.
    fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
    }

    /// `Graph` + `Triple` over a uniform random graph.
    pub fn uniform(nodes: u64, edges: usize, triple_fraction: f64, seed: u64) -> Database {
        let graph = Graph::uniform(nodes, edges, seed);
        build_dataset(
            "uniform",
            graph,
            triple_fraction,
            TripleRuleMix::balanced(),
            seed ^ 0x5EED_0002,
        )
        .db
    }

    /// `Graph` alone over a uniform random graph.
    pub fn uniform_graph_only(nodes: u64, edges: usize, seed: u64) -> Database {
        let mut db = Database::new();
        db.add(Graph::uniform(nodes, edges, seed).to_relation("Graph"))
            .expect("fresh database");
        db
    }

    /// `batches` batches of `ops` operations, half of them inserts, over the
    /// named relations; every operation takes effect when the batches are
    /// applied in order.
    pub fn update_stream(
        db: &Database,
        batches: usize,
        ops: usize,
        relations: &[&str],
        seed: u64,
    ) -> Vec<DeltaBatch> {
        update_workload(
            db,
            &UpdateSpec::new(batches, ops, relations),
            seed ^ 0x5EED_0003,
        )
    }

    /// The batch that undoes `batch`.
    pub fn inverse(batch: &DeltaBatch) -> DeltaBatch {
        batch.inverse()
    }

    /// `Q_G1` … `Q_G5` of the paper's Figure 4, by number.
    pub fn figure4(number: usize) -> Dcq {
        graph_query(match number {
            1 => GraphQueryId::QG1,
            2 => GraphQueryId::QG2,
            3 => GraphQueryId::QG3,
            4 => GraphQueryId::QG4,
            5 => GraphQueryId::QG5,
            other => panic!("no Q_G{other} in the benchmark"),
        })
    }

    /// The closing atoms of the four α-distinct members of the `Q_G5` family
    /// the hard workloads maintain; all four share one positive side.
    pub const QG5_CLOSERS: [&str; 4] = [
        "Graph(n4, n1)",
        "Graph(n1, n4)",
        "Graph(n1, n3)",
        "Graph(n3, n1)",
    ];

    pub fn qg5_family(member: usize) -> Dcq {
        parse(&format!(
            "V{member}(n1, n2, n3, n4) :- Graph(n1, n2), Graph(n2, n3), Graph(n3, n4) \
             EXCEPT Graph(n2, n3), Graph(n3, n4), {}",
            QG5_CLOSERS[member]
        ))
    }

    /// Two-hop pairs that are not already an edge — the served view.
    pub const TWO_HOP: &str = "Q(x, y) :- Graph(x, z), Graph(z, y) EXCEPT Graph(x, y)";

    pub fn parse(text: &str) -> Dcq {
        dcqx::parse_dcq(text).expect("benchmark queries are well-formed")
    }

    /// The query in the syntax the parser (and the server's `register`) reads.
    pub fn to_text(dcq: &Dcq) -> String {
        let vars = |vars: &[dcqx::dcq_storage::Attr]| {
            let names: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
            names.join(", ")
        };
        let body = |atoms: &[dcqx::Atom]| {
            let atoms: Vec<String> = atoms
                .iter()
                .map(|a| format!("{}({})", a.relation, vars(&a.vars)))
                .collect();
            atoms.join(", ")
        };
        format!(
            "{}({}) :- {} EXCEPT {}",
            dcq.q1.name,
            vars(&dcq.q1.head),
            body(&dcq.q1.atoms),
            body(&dcq.q2.atoms)
        )
    }

    pub fn tuples(db: &Database) -> usize {
        db.input_size()
    }
}

/// Row-for-row equality of two results, whatever their internal order.
pub fn same_rows(a: &Relation, b: &Relation) -> bool {
    a.sorted_rows() == b.sorted_rows()
}

/// Relation-for-relation equality of two databases.
pub fn same_database(a: &Database, b: &Database) -> bool {
    a.relation_names() == b.relation_names()
        && a.iter()
            .all(|(name, rel)| b.get(name).is_ok_and(|other| same_rows(rel, other)))
}

/// The default entry points, as a user of the crate would call them.
pub mod facade {
    use super::*;
    use dcqx::dcq_core::baseline::{baseline_dcq, CqStrategy};
    use dcqx::dcq_engine::{CompactionPolicy, ViewHandle};
    use dcqx::dcq_server::client::PushOutcome;
    use dcqx::dcq_server::recover;
    use dcqx::{DcqClient, DcqEngine, DcqPlanner, DcqServer, DurabilityConfig, ServerConfig};
    use std::net::SocketAddr;

    /// One-shot `Q₁ − Q₂` with the plan the planner picks.
    pub fn eval_optimized(dcq: &Dcq, db: &Database) -> Relation {
        DcqPlanner::smart()
            .execute(dcq, db)
            .expect("optimized plan evaluates")
    }

    /// One-shot `Q₁ − Q₂` the standard way: materialize both sides with
    /// left-deep binary joins, then subtract.
    pub fn eval_baseline(dcq: &Dcq, db: &Database) -> Relation {
        baseline_dcq(dcq, db, CqStrategy::Vanilla).expect("baseline plan evaluates")
    }

    /// An engine with views registered the default way.
    pub struct Maintained {
        engine: DcqEngine,
        views: Vec<ViewHandle>,
    }

    impl Maintained {
        pub fn new(db: Database, views: &[Dcq]) -> Maintained {
            let mut engine = DcqEngine::with_database(db);
            let views = views
                .iter()
                .map(|dcq| {
                    engine
                        .register_dcq(dcq.clone())
                        .expect("benchmark views register")
                })
                .collect();
            Maintained { engine, views }
        }

        /// Apply one batch; returns the number of tuples that took effect.
        pub fn apply(&mut self, batch: &DeltaBatch) -> Result<usize, String> {
            self.engine
                .apply(batch)
                .map(|report| report.effect.total())
                .map_err(|e| e.to_string())
        }

        /// Read every view's full result; returns the rows read.
        pub fn read_all(&self) -> Result<usize, String> {
            let mut rows = 0;
            for handle in &self.views {
                rows += self
                    .engine
                    .result(*handle)
                    .map_err(|e| e.to_string())?
                    .len();
            }
            Ok(rows)
        }

        pub fn result(&self, view: usize) -> Relation {
            self.engine
                .result(self.views[view])
                .expect("registered view has a result")
        }

        pub fn database(&self) -> &Database {
            self.engine.database()
        }

        pub fn store_bytes(&self) -> usize {
            self.engine.store_bytes()
        }
    }

    /// A durable server on a loopback port, with the shipped defaults:
    /// `fsync` off, and a checkpoint every `retained_batches` batches.
    pub struct Service {
        server: DcqServer,
    }

    impl Service {
        pub fn start(db: Database, dir: &Path, retained_batches: usize) -> io::Result<Service> {
            let config = ServerConfig {
                durability: Some(DurabilityConfig::at(dir)),
                compaction: CompactionPolicy::max_retained_batches(retained_batches),
                ..ServerConfig::default()
            };
            let server = DcqServer::start(DcqEngine::with_database(db), config)?;
            Ok(Service { server })
        }

        pub fn addr(&self) -> SocketAddr {
            self.server.addr()
        }

        /// Stop without a final checkpoint, as a crash would.
        pub fn kill(self) -> io::Result<()> {
            self.server.kill()
        }
    }

    /// Rebuild the state from what a killed server left in `dir`.
    pub fn recover_from(dir: &Path) -> io::Result<(u64, Database)> {
        let (engine, _report) = recover(dir)?;
        Ok((engine.epoch(), engine.database().clone()))
    }

    /// What a push came back with.
    pub enum Pushed {
        Acked { epoch: u64 },
        Overloaded,
    }

    /// One client connection.
    pub struct Conn(DcqClient);

    impl Conn {
        pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
            DcqClient::connect_retry(addr, 10).map(Conn)
        }

        /// Register with no strategy named; returns the view id.
        pub fn register(&mut self, query: &str) -> io::Result<u64> {
            self.0.register(query, None).map(|reply| reply.view)
        }

        pub fn push(&mut self, batch: &DeltaBatch) -> io::Result<Pushed> {
            Ok(match self.0.push(batch)? {
                PushOutcome::Acked(reply) => Pushed::Acked { epoch: reply.epoch },
                PushOutcome::Overloaded { .. } => Pushed::Overloaded,
            })
        }

        /// Read the view once `min_epoch` is committed.
        pub fn read(&mut self, view: u64, min_epoch: Option<u64>) -> io::Result<(u64, Vec<Row>)> {
            self.0
                .read(view, min_epoch)
                .map(|reply| (reply.epoch, reply.rows))
        }

        pub fn metrics(&mut self) -> io::Result<String> {
            self.0.metrics()
        }
    }
}

/// The public functions of each crate, called one at a time so the traced run
/// can put a span around each.
pub mod layers {
    use super::*;
    use dcqx::dcq_core::baseline::{baseline_dcq_with_stats, evaluate_cq, CqStrategy};
    use dcqx::dcq_core::{IncrementalStrategy, MaintenanceCostModel, PlanCache};
    use dcqx::dcq_engine::ViewHandle;
    use dcqx::dcq_incremental::{CountingPool, DcqView};
    use dcqx::dcq_server::proto::{read_frame, rows_to_json, write_frame, Request};
    use dcqx::dcq_server::{json::Json, proto};
    use dcqx::dcq_storage::checkpoint::{write_batch_frame, write_checkpoint};
    use dcqx::{DcqEngine, SharedDatabase};
    use std::io::Write;

    // ---- hypergraph / core / exec: the one-shot path ----------------------

    /// The dichotomy test the planner runs before it picks a plan.
    pub fn classify(dcq: &Dcq) -> bool {
        dcqx::classify(dcq).is_difference_linear()
    }

    /// One side of the baseline, materialized with binary joins.
    pub fn eval_side(dcq: &Dcq, positive: bool, db: &Database) -> Relation {
        let side = if positive { &dcq.q1 } else { &dcq.q2 };
        evaluate_cq(side, db, CqStrategy::Vanilla).expect("side evaluates")
    }

    /// The baseline's last step: rows of `q1` with no partner in `q2`.
    pub fn anti_join(q1: &Relation, q2: &Relation) -> Relation {
        dcqx::dcq_exec::anti_join(q1, q2)
    }

    /// `(OUT₁, OUT₂, OUT)` as the baseline materializes them.
    pub fn baseline_sizes(dcq: &Dcq, db: &Database) -> (usize, usize, usize) {
        let (_, stats) =
            baseline_dcq_with_stats(dcq, db, CqStrategy::Vanilla).expect("baseline evaluates");
        (stats.out1, stats.out2, stats.out)
    }

    // ---- storage + incremental: the maintained path, taken apart ----------

    /// A store with no view and therefore no index to maintain.
    pub struct BareStore(SharedDatabase);

    impl BareStore {
        pub fn new(db: Database) -> BareStore {
            BareStore(SharedDatabase::new(db))
        }

        pub fn commit(&mut self, batch: &DeltaBatch) -> AppliedBatch {
            self.0.apply_batch(batch).expect("batch commits")
        }
    }

    /// A store plus the views built over it the way the engine builds them
    /// (shared plans, shared sides, shared indexes) — but with commit and each
    /// view's fold as separate calls.
    pub struct StoreAndViews {
        store: SharedDatabase,
        // Kept alive because the views' sides and plans are shared through them.
        _plans: PlanCache,
        _pool: CountingPool,
        views: Vec<DcqView>,
    }

    /// Which strategy the registration path picks when none is named.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Registration {
        /// `DcqEngine::register_dcq`: the dichotomy's structural choice.
        Engine,
        /// `DcqClient::register(q, None)`: adaptive, started on the cost
        /// model's prior.
        Server,
    }

    impl StoreAndViews {
        pub fn new(db: Database, dcqs: &[Dcq], registration: Registration) -> StoreAndViews {
            let mut store = SharedDatabase::new(db);
            let mut plans = PlanCache::new();
            let mut pool = CountingPool::new();
            let views = dcqs
                .iter()
                .map(|dcq| {
                    let (mut plan, _) = plans.plan_incremental(dcq);
                    if registration == Registration::Server {
                        plan.strategy = IncrementalStrategy::Adaptive;
                    }
                    DcqView::build_shared_with_initial(
                        dcq.clone(),
                        plan,
                        &mut store,
                        &mut plans,
                        &mut pool,
                        MaintenanceCostModel::default().initial_kind(),
                    )
                    .expect("view builds")
                })
                .collect();
            StoreAndViews {
                store,
                _plans: plans,
                _pool: pool,
                views,
            }
        }

        pub fn commit(&mut self, batch: &DeltaBatch) -> AppliedBatch {
            self.store.apply_batch(batch).expect("batch commits")
        }

        pub fn view_count(&self) -> usize {
            self.views.len()
        }

        /// Fold one committed batch into one view.
        pub fn fold(&mut self, view: usize, applied: &AppliedBatch) {
            self.views[view]
                .apply(applied, &self.store)
                .expect("view folds");
        }

        pub fn memory(&self) -> StoreMemory {
            let dict = self.store.dict_stats();
            StoreMemory {
                store_bytes: self.store.approx_bytes() + self.store.index_bytes(),
                index_bytes: self.store.index_bytes(),
                flat_bytes: self.store.flat_bytes(),
                dict_entries: dict.entries,
                dict_bytes: dict.bytes,
                tuples: self.store.input_size(),
            }
        }
    }

    #[derive(Clone, Copy, Debug, Default)]
    pub struct StoreMemory {
        pub store_bytes: usize,
        pub index_bytes: usize,
        pub flat_bytes: usize,
        pub dict_entries: u64,
        pub dict_bytes: u64,
        pub tuples: usize,
    }

    // ---- engine: the same path through the facade, with its own counters --

    /// An engine registered like [`facade::Maintained`] or like the server
    /// does, exposing the counters its public API already returns.
    pub struct TracedEngine {
        engine: DcqEngine,
        handles: Vec<ViewHandle>,
    }

    /// Sums of the engine's own per-batch trace and its layer counters.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct EngineCounters {
        pub trace_commit_ns: u64,
        pub trace_fanout_ns: u64,
        pub trace_policy_ns: u64,
        pub views_applied: u64,
        pub views_skipped: u64,
        pub migrations: u64,
        pub index_probes: u64,
        pub folds_owned: u64,
        pub fold_hits_shared: u64,
        pub deletion_index_builds: u64,
        pub index_inplace_writes: u64,
        pub index_cow_clones: u64,
    }

    impl TracedEngine {
        pub fn new(db: Database, dcqs: &[Dcq], registration: Registration) -> TracedEngine {
            let mut engine = DcqEngine::with_database(db);
            let handles = dcqs
                .iter()
                .map(|dcq| match registration {
                    Registration::Engine => engine.register_dcq(dcq.clone()),
                    Registration::Server => engine.register_adaptive(dcq.clone()),
                })
                .collect::<Result<_, _>>()
                .expect("benchmark views register");
            TracedEngine { engine, handles }
        }

        pub fn apply(&mut self, batch: &DeltaBatch) {
            self.engine.apply(batch).expect("batch applies");
        }

        /// What the server's ingest thread does after every commit: read each
        /// view's result and sort it for publication.
        pub fn publish(&self) -> Vec<Vec<Row>> {
            self.handles
                .iter()
                .map(|h| {
                    self.engine
                        .result(*h)
                        .expect("registered view has a result")
                        .sorted_rows()
                })
                .collect()
        }

        pub fn read_all(&self) -> usize {
            self.handles
                .iter()
                .map(|h| {
                    self.engine
                        .result(*h)
                        .expect("registered view has a result")
                        .len()
                })
                .sum()
        }

        /// Drain the engine's batch traces and read its counters.  Call once,
        /// after the last batch: draining is destructive.
        pub fn counters(&self) -> EngineCounters {
            let mut c = EngineCounters::default();
            for trace in self.engine.drain_traces() {
                c.trace_commit_ns += trace.commit_ns;
                c.trace_fanout_ns += trace.fanout_ns;
                c.trace_policy_ns += trace.policy_ns;
                for view in &trace.views {
                    if view.skipped {
                        c.views_skipped += 1;
                    } else {
                        c.views_applied += 1;
                    }
                }
            }
            let stats = self.engine.stats();
            c.migrations = (stats.migrations_to_rerun + stats.migrations_to_counting) as u64;
            let counting = self.engine.counting_telemetry();
            c.index_probes = counting.index_probes;
            c.folds_owned = counting.folds_owned;
            c.fold_hits_shared = counting.fold_hits_shared;
            c.deletion_index_builds = counting.deletion_index_builds;
            let index = self.engine.index_telemetry();
            c.index_inplace_writes = index.inplace_writes;
            c.index_cow_clones = index.cow_clones;
            c
        }
    }

    // ---- server + storage: the wire and the log, without a socket ---------

    /// What the client writes for a push: the request as JSON in one frame.
    pub fn encode_push(batch: &DeltaBatch, out: &mut Vec<u8>) -> usize {
        let request = Request::Push {
            batch: batch.clone(),
        };
        write_frame(out, &request.to_json()).expect("frame encodes")
    }

    /// What the connection handler does with those bytes.
    pub fn decode_push(mut bytes: &[u8]) -> DeltaBatch {
        let (json, _) = read_frame(&mut bytes)
            .expect("frame decodes")
            .expect("one frame present");
        match Request::from_json(&json).expect("request parses") {
            Request::Push { batch } => batch,
            other => panic!("expected a push, decoded {other:?}"),
        }
    }

    /// One WAL append: frame the batch and flush it to the file (no `fsync`,
    /// the shipped default).  Returns the bytes appended.
    pub fn wal_append(wal: &mut std::io::BufWriter<std::fs::File>, batch: &DeltaBatch) -> usize {
        let wrote = write_batch_frame(wal, batch).expect("WAL frame writes");
        wal.flush().expect("WAL flushes");
        wrote
    }

    /// One checkpoint of the whole database to `path`.
    pub fn checkpoint(path: &Path, epoch: u64, db: &Database) {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path).expect("file creates"));
        write_checkpoint(&mut file, epoch, db).expect("checkpoint writes");
        file.flush().expect("checkpoint flushes");
    }

    /// What a handler writes for a read: the snapshot's rows as one frame.
    pub fn encode_read_reply(view: u64, epoch: u64, rows: &[Row], out: &mut Vec<u8>) -> usize {
        let reply = proto::ok([
            ("view", Json::Int(view as i64)),
            ("epoch", Json::Int(epoch as i64)),
            ("count", Json::Int(rows.len() as i64)),
            ("rows", rows_to_json(rows.iter())),
        ]);
        write_frame(out, &reply).expect("frame encodes")
    }

    pub fn batch_bytes(batch: &DeltaBatch) -> usize {
        batch.approx_bytes()
    }

    /// A scalar out of a Prometheus text exposition.
    pub fn exposition_value(exposition: &str, name: &str) -> Option<u64> {
        dcqx::dcq_server::loadgen::parse_metric(exposition, name)
    }
}
