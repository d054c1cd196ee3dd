//! End-to-end checks of the telemetry stack: exposition format, per-batch
//! traces, sink plumbing, and the overhead budget.
//!
//! The workspace builds `dcq-engine` with its default features, so these tests
//! always run with `telemetry` **on** (the `--no-default-features` CI leg
//! covers the compiled-out hooks at the engine crate's own test suite).  What
//! is asserted here:
//!
//! * `DcqEngine::metrics()` renders well-formed Prometheus exposition text
//!   covering every layer (engine, storage registry, counting subsystem,
//!   pool, plan cache) after a mixed insert/delete workload;
//! * per-batch [`BatchTrace`]s account phases and per-view records sanely
//!   (monotone epochs, one record per view, delta fractions in `[0, 1]`,
//!   phase sums that the benchmark can use as timings);
//! * a replacement [`TraceSink`] receives exactly what the default ring did,
//!   and ring capacity bounds retention;
//! * the per-batch bookkeeping the engine adds when telemetry is on — counter
//!   bumps, histogram observations, one ring-buffer `record` — costs **at
//!   most 5%** of a measured `apply` on the micro-bench-shaped workload
//!   (in practice it is orders of magnitude below the budget; the assert
//!   guards against the bookkeeping ever growing a lock or an allocation
//!   storm).

use dcq_datagen::datasets::build_dataset;
use dcq_datagen::{graph_query, update_workload, Graph, GraphQueryId, TripleRuleMix, UpdateSpec};
use dcq_engine::DcqEngine;
use dcq_storage::{Database, DeltaBatch};
use dcq_telemetry::{BatchTrace, MetricsRegistry, RingTraceSink, ViewTraceRecord};
use std::time::Instant;

/// A small mixed dataset with both `Graph` and `Triple` populated.
fn dataset() -> Database {
    build_dataset(
        "telemetry-e2e",
        Graph::uniform(600, 2_400, 23),
        0.5,
        TripleRuleMix::balanced(),
        9,
    )
    .db
}

/// An engine with a difference-linear (`Q_G3`) and a hard (`Q_G5`) view.
fn engine_with_two_views(db: &Database) -> DcqEngine {
    let mut engine = DcqEngine::with_database(db.clone());
    engine
        .register_dcq(graph_query(GraphQueryId::QG3))
        .expect("register QG3");
    engine
        .register_dcq(graph_query(GraphQueryId::QG5))
        .expect("register QG5");
    engine
}

/// Batches that exercise inserts and (via the inverse) deletes.
fn batches(db: &Database) -> Vec<DeltaBatch> {
    let spec = UpdateSpec::new(3, 48, &["Graph", "Triple"]);
    let mut out = Vec::new();
    for batch in update_workload(db, &spec, 41) {
        let inverse = batch.inverse();
        out.push(batch);
        out.push(inverse);
    }
    out
}

#[test]
fn exposition_is_well_formed_and_covers_every_layer() {
    let db = dataset();
    let mut engine = engine_with_two_views(&db);
    for batch in batches(&db) {
        engine.apply(&batch).expect("batch applies");
    }

    let text = engine.metrics();
    // Well-formed: every line is a comment or `name[{labels}] value` where the
    // value parses as a finite number.
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "unknown comment form: {line}"
            );
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!name.is_empty(), "empty metric name in: {line}");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparsable value in: {line}"));
        assert!(value.is_finite());
    }

    // Every layer shows up in one scrape.
    for family in [
        "dcq_engine_batches_total 6",
        "dcq_engine_epoch 6",
        "dcq_engine_commit_ns_bucket",
        "dcq_engine_fanout_ns_count 6",
        "dcq_engine_policy_ns_sum",
        "dcq_engine_view_handles 2",
        "dcq_index_count",
        "dcq_index_inplace_writes_total",
        "dcq_index_cow_clones_total",
        "dcq_dict_entries",
        "dcq_dict_bytes",
        "dcq_dict_intern_hits_total",
        "dcq_dict_intern_misses_total",
        "dcq_flat_bytes",
        "dcq_flat_live_bytes",
        "dcq_flat_relation_bytes_graph",
        "dcq_flat_relation_bytes_triple",
        "dcq_flat_relation_live_bytes_graph",
        "dcq_commit_shard_rows_0",
        "dcq_commit_shard_rows_3",
        "dcq_counting_fold_partitions",
        "dcq_counting_index_probes_total",
        "dcq_counting_compensated_masks_total",
        "dcq_counting_deletion_index_builds_total",
        "dcq_pool_live_sides",
        "dcq_pool_misses_total",
        "dcq_plan_cache_entries",
    ] {
        assert!(
            text.contains(family),
            "scrape is missing `{family}`:\n{text}"
        );
    }

    // The workload deleted rows through counting views, so the compensated
    // delete path and its probes actually ran.
    let registry = engine.metrics_registry();
    assert!(registry.value("dcq_counting_index_probes_total").unwrap() > 0);
    assert!(engine.counting_telemetry().index_probes > 0);

    // The flat interned layer is live: the dictionary interned the dataset
    // (hits + misses both nonzero after the mixed workload), and the flat
    // columns occupy real bytes.
    assert!(registry.value("dcq_dict_entries").unwrap() > 0);
    assert!(registry.value("dcq_dict_bytes").unwrap() > 0);
    assert!(registry.value("dcq_dict_intern_misses_total").unwrap() > 0);
    assert!(
        registry.value("dcq_dict_intern_hits_total").unwrap() > 0,
        "re-inserted values must hit the dictionary"
    );
    assert!(registry.value("dcq_flat_bytes").unwrap() > 0);
    // Live bytes exclude compaction slack, so they never exceed the
    // allocation gauge.
    let live = registry.value("dcq_flat_live_bytes").unwrap();
    assert!(live > 0 && live <= registry.value("dcq_flat_bytes").unwrap());
    // Every committed row was routed through exactly one shard counter.
    let sharded: u64 = (0..4)
        .map(|s| {
            registry
                .value(&format!("dcq_commit_shard_rows_{s}"))
                .unwrap()
        })
        .sum();
    assert!(sharded > 0, "sharded commit routed no rows");

    // JSON-lines dump: one object per applied batch, oldest first.
    let json = engine.trace_json_lines();
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), 6, "one trace line per apply");
    for line in &lines {
        assert!(
            line.starts_with("{\"epoch\":"),
            "not a trace object: {line}"
        );
        assert!(line.ends_with('}'));
        for key in [
            "\"commit_ns\":",
            "\"fanout_ns\":",
            "\"policy_ns\":",
            "\"views\":",
        ] {
            assert!(line.contains(key), "trace line missing {key}: {line}");
        }
    }
}

#[test]
fn traces_account_phases_and_views_sanely() {
    let db = dataset();
    let mut engine = engine_with_two_views(&db);
    // The default width tracks `DCQ_WORKERS` (the CI multi-worker leg pins
    // it > 1), so compare traces against the engine's own configuration
    // rather than a literal.
    let width = engine.stats().workers;
    let applied = batches(&db);
    for batch in &applied {
        engine.apply(batch).expect("batch applies");
    }

    let traces = engine.traces();
    assert_eq!(traces.len(), applied.len());
    let mut last_epoch = 0;
    for (trace, batch) in traces.iter().zip(&applied) {
        assert!(trace.epoch > last_epoch, "epochs strictly increase");
        last_epoch = trace.epoch;
        assert_eq!(trace.batch_len, batch.len());
        assert!(trace.inserted + trace.deleted <= batch.len() as u64);
        assert_eq!(trace.workers, width, "trace records the configured width");
        assert_eq!(trace.views.len(), 2, "one record per registered view");
        // The phase sum is what the rewired benches record as the per-batch
        // figure; it must be nonzero for a non-empty batch.
        assert!(trace.commit_ns + trace.fanout_ns + trace.policy_ns > 0);
        for record in &trace.views {
            assert!(record.slot < 2);
            assert!(record.delta_fraction >= 0.0 && record.delta_fraction <= 1.0);
        }
    }
}

#[test]
fn replacement_sink_bounds_retention_and_drain_empties() {
    let db = dataset();
    let mut engine = engine_with_two_views(&db);
    // A tiny ring: applies beyond its capacity must evict oldest-first.
    engine.set_trace_sink(Box::new(RingTraceSink::new(4)));
    let applied = batches(&db);
    assert!(applied.len() > 4);
    for batch in &applied {
        engine.apply(batch).expect("batch applies");
    }
    let traces = engine.traces();
    assert_eq!(traces.len(), 4, "ring keeps only its capacity");
    assert_eq!(
        traces.last().expect("nonempty").epoch,
        applied.len() as u64,
        "newest trace survives eviction"
    );
    assert!(
        traces.windows(2).all(|w| w[0].epoch < w[1].epoch),
        "snapshot is oldest-first"
    );
    assert_eq!(engine.drain_traces().len(), 4);
    assert!(engine.traces().is_empty(), "drain empties the sink");
}

/// The telemetry-on bookkeeping `apply` performs per batch — one batch
/// counter bump, four histogram observations (three phases + per-view cost),
/// the phase timestamps, and one ring-buffer `record` carrying a per-view
/// record vector — must cost at most 5% of a measured `apply` on the
/// micro-bench-shaped workload.
#[test]
fn per_batch_bookkeeping_is_within_five_percent_of_apply() {
    let db = dataset();
    let mut engine = engine_with_two_views(&db);
    let spec = UpdateSpec::new(1, 48, &["Graph", "Triple"]);
    let batch = update_workload(&db, &spec, 43).pop().expect("one batch");
    let inverse = batch.inverse();

    // Measure apply the way the micro bench does: min over batch+inverse
    // pairs after a warm-up, half a pair per batch.
    for _ in 0..2 {
        engine.apply(&batch).expect("warm-up applies");
        engine.apply(&inverse).expect("warm-up inverse applies");
    }
    let mut apply_ns_per_batch = f64::INFINITY;
    for _ in 0..5 {
        let started = Instant::now();
        engine.apply(&batch).expect("batch applies");
        engine.apply(&inverse).expect("inverse applies");
        apply_ns_per_batch = apply_ns_per_batch.min(started.elapsed().as_nanos() as f64 / 2.0);
    }

    // Replay the per-batch bookkeeping sequence in isolation, many times.
    let registry = MetricsRegistry::new();
    let batches_total = registry.counter("t_batches_total", "overhead probe");
    let commit = registry.histogram("t_commit_ns", "overhead probe");
    let fanout = registry.histogram("t_fanout_ns", "overhead probe");
    let policy = registry.histogram("t_policy_ns", "overhead probe");
    let view_cost = registry.histogram("t_view_cost_ns", "overhead probe");
    let sink = RingTraceSink::new(256);
    const ROUNDS: u32 = 10_000;
    let started = Instant::now();
    for i in 0..ROUNDS {
        let t0 = Instant::now();
        batches_total.inc();
        commit.observe(t0.elapsed().as_nanos() as u64);
        let t1 = Instant::now();
        fanout.observe(t1.elapsed().as_nanos() as u64);
        let t2 = Instant::now();
        policy.observe(t2.elapsed().as_nanos() as u64);
        let views: Vec<ViewTraceRecord> = (0..2)
            .map(|slot| {
                view_cost.observe(1_000);
                ViewTraceRecord {
                    slot,
                    delta_fraction: 0.01,
                    cost_ns: 1_000,
                    skipped: false,
                    result_added: 3,
                    result_removed: 2,
                }
            })
            .collect();
        use dcq_telemetry::TraceSink as _;
        sink.record(BatchTrace {
            epoch: u64::from(i) + 1,
            batch_len: 48,
            inserted: 24,
            deleted: 24,
            commit_ns: 10_000,
            fanout_ns: 100_000,
            policy_ns: 5_000,
            workers: 1,
            views,
        });
    }
    let bookkeeping_ns_per_batch = started.elapsed().as_nanos() as f64 / f64::from(ROUNDS);

    let ratio = bookkeeping_ns_per_batch / apply_ns_per_batch;
    assert!(
        ratio <= 0.05,
        "telemetry bookkeeping is {bookkeeping_ns_per_batch:.0} ns/batch, \
         {:.2}% of a {apply_ns_per_batch:.0} ns apply (budget 5%)",
        ratio * 100.0
    );
}
