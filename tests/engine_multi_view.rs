//! Multi-view engine fan-out ≡ full recomputation.
//!
//! The `DcqEngine` acceptance suite:
//!
//! * a **property test** registering four views (easy and hard, overlapping
//!   relations) on one engine and applying proptest-generated insert/delete
//!   batches, asserting after every batch that *every* view is byte-identical to
//!   the vanilla baseline recomputation over the engine's database of record;
//! * a **deterministic long-run test** streaming 120 generator-produced batches
//!   through an engine with five views — the ≥100-batch acceptance gate;
//! * regression tests for the prepared-plan cache (re-registering an identical
//!   shape performs zero re-classifications) and for epoch bookkeeping across
//!   skipped batches (skipped then relevant replays correctly).

use dcq_core::baseline::{baseline_dcq, CqStrategy};
use dcq_core::parse::parse_dcq;
use dcq_core::planner::IncrementalStrategy;
use dcq_datagen::datasets::build_dataset;
use dcq_datagen::{graph_query, update_workload, Graph, GraphQueryId, TripleRuleMix, UpdateSpec};
use dcq_engine::DcqEngine;
use dcq_storage::row::int_row;
use dcq_storage::{Database, DeltaBatch, Relation};
use proptest::prelude::*;

/// The registered views: a mix of difference-linear and hard DCQs over
/// overlapping relations, so one batch fans out to several maintenance engines.
const QUERIES: &[(&str, &str)] = &[
    // Difference-linear: ternary minus triangle (Q_G3 shape).
    (
        "easy_triangle",
        "Q(x, y, z) :- W(x, y, z) EXCEPT R(x, y), S(y, z), T(z, x)",
    ),
    // Difference-linear: same-schema path join (Example 3.3).
    (
        "easy_paths",
        "Q(x, y, z) :- R(x, y), S(y, z) EXCEPT T(x, y), U(y, z)",
    ),
    // Hard case (2): non-linear-reducible negative side.
    (
        "hard_projection",
        "Q(x, z) :- R(x, z) EXCEPT S(x, y), T(y, z)",
    ),
    // Hard case (3): cycle-closing edge (Q_G5 shape).
    (
        "hard_cycle",
        "Q(x, y, z) :- R(x, y), S(y, z) EXCEPT T(x, z), U(y, z)",
    ),
];

const RELATIONS: [&str; 5] = ["R", "S", "T", "U", "W"];

fn initial_db(rows: &[(u8, i64, i64, i64)]) -> Database {
    let mut db = Database::new();
    for name in ["R", "S", "T", "U"] {
        db.add(Relation::from_int_rows(name, &["p", "q"], vec![]))
            .unwrap();
    }
    db.add(Relation::from_int_rows("W", &["p", "q", "r"], vec![]))
        .unwrap();
    let batch = ops_to_batch(rows, true);
    db.apply_batch(&batch).unwrap();
    db
}

/// Turn generated `(relation, a, b, c)` tuples into a delta batch; `c` doubles as
/// the insert/delete selector when `all_inserts` is false.
fn ops_to_batch(ops: &[(u8, i64, i64, i64)], all_inserts: bool) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for (rel, a, b, c) in ops {
        let name = RELATIONS[(*rel as usize) % RELATIONS.len()];
        let row = if name == "W" {
            int_row([*a, *b, *c])
        } else {
            int_row([*a, *b])
        };
        if all_inserts || *c % 3 != 0 {
            batch.insert(name, row);
        } else {
            batch.delete(name, row);
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every registered view stays byte-identical to full recomputation over
    /// randomized insert/delete batch sequences fanned out by one engine.
    #[test]
    fn multi_view_fanout_equals_recomputation(
        initial in proptest::collection::vec((0u8..5, 0i64..6, 0i64..6, 0i64..6), 0..60),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0i64..6, 0i64..6, 0i64..6), 1..8),
            10..11
        ),
    ) {
        let mut engine = DcqEngine::with_database(initial_db(&initial));
        let mut handles = Vec::new();
        for (label, src) in QUERIES {
            let prepared = engine.prepare(parse_dcq(src).unwrap()).unwrap();
            handles.push((*label, engine.register(&prepared).unwrap()));
        }
        prop_assert_eq!(engine.view_count(), QUERIES.len());
        for (step, ops) in batches.iter().enumerate() {
            let batch = ops_to_batch(ops, false);
            let report = engine.apply(&batch).unwrap();
            prop_assert_eq!(report.epoch, (step + 1) as u64);
            for (label, handle) in &handles {
                let view = engine.view(*handle).unwrap();
                prop_assert_eq!(view.epoch(), report.epoch);
                let expected =
                    baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
                prop_assert_eq!(
                    engine.result(*handle).unwrap().sorted_rows(),
                    expected.sorted_rows(),
                    "{} diverged at batch {}",
                    label, step
                );
            }
        }
    }
}

/// The ≥100-batch acceptance run: 120 generated batches against graph-shaped
/// data, five views (easy and hard, auto- and force-registered) on one engine,
/// every view checked after every batch.
#[test]
fn long_workload_keeps_every_view_exact_over_120_batches() {
    let data = build_dataset(
        "engine-multi-view",
        Graph::uniform(120, 500, 5),
        0.5,
        TripleRuleMix::balanced(),
        9,
    );
    let mut engine = DcqEngine::with_database(data.db.clone());
    let mut handles = vec![
        engine.register_dcq(graph_query(GraphQueryId::QG3)).unwrap(),
        engine.register_dcq(graph_query(GraphQueryId::QG5)).unwrap(),
        engine.register_dcq(graph_query(GraphQueryId::QG1)).unwrap(),
    ];
    // Force the rerun arm too, on an easy and a hard query: both engines
    // must stay exact.
    handles.push(
        engine
            .register_with(
                graph_query(GraphQueryId::QG3),
                IncrementalStrategy::EasyRerun,
            )
            .unwrap(),
    );
    handles.push(
        engine
            .register_with(
                graph_query(GraphQueryId::QG5),
                IncrementalStrategy::EasyRerun,
            )
            .unwrap(),
    );

    let spec = UpdateSpec::new(120, 6, &["Graph", "Triple"]);
    let batches = update_workload(engine.database(), &spec, 2026);
    assert_eq!(batches.len(), 120);
    for (step, batch) in batches.iter().enumerate() {
        engine.apply(batch).unwrap();
        for handle in &handles {
            let view = engine.view(*handle).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(*handle).unwrap().sorted_rows(),
                expected.sorted_rows(),
                "{} under {:?} diverged at batch {step}",
                view.dcq().q1.name,
                view.strategy()
            );
        }
    }
    assert_eq!(engine.epoch(), 120);
    assert_eq!(engine.stats().batches_applied, 120);
    for handle in &handles {
        let view = engine.view(*handle).unwrap();
        let stats = view.stats();
        assert_eq!(stats.batches_applied + stats.batches_skipped, 120);
        assert_eq!(view.epoch(), 120);
    }
}

/// Re-registering an identical query shape must hit the plan cache: exactly one
/// classification no matter how many clients prepare the query.
#[test]
fn identical_shape_registration_hits_the_plan_cache() {
    let data = build_dataset(
        "engine-plan-cache",
        Graph::uniform(50, 150, 3),
        0.5,
        TripleRuleMix::balanced(),
        1,
    );
    let mut engine = DcqEngine::with_database(data.db.clone());
    let mut handles = Vec::new();
    for i in 0..8 {
        let prepared = engine.prepare(graph_query(GraphQueryId::QG5)).unwrap();
        assert_eq!(
            prepared.cache_hit(),
            i > 0,
            "only the first prepare classifies"
        );
        handles.push(engine.register(&prepared).unwrap());
    }
    let stats = engine.plan_cache_stats();
    assert_eq!(
        stats.misses, 1,
        "0 re-classifications after the first prepare"
    );
    assert_eq!(stats.hits, 7);
    assert_eq!(stats.entries, 1);
    // All eight views answer identically.
    let reference = engine.result(handles[0]).unwrap().sorted_rows();
    for handle in &handles[1..] {
        assert_eq!(engine.result(*handle).unwrap().sorted_rows(), reference);
    }
}

/// Regression (epoch position): a batch touching only unreferenced relations
/// advances every view's epoch, and a following relevant batch lands exactly —
/// replaying both batches over the registration snapshot reproduces the state.
#[test]
fn skipped_batch_then_relevant_batch_replays_correctly() {
    let mut db = Database::new();
    db.add(Relation::from_int_rows(
        "Graph",
        &["src", "dst"],
        vec![vec![1, 2], vec![2, 3], vec![3, 1], vec![2, 4]],
    ))
    .unwrap();
    db.add(Relation::from_int_rows(
        "Triple",
        &["a", "b", "c"],
        vec![vec![1, 2, 3], vec![2, 4, 4]],
    ))
    .unwrap();
    db.add(Relation::from_int_rows("Unrelated", &["k"], vec![vec![7]]))
        .unwrap();
    let snapshot = db.clone();

    let mut engine = DcqEngine::with_database(db);
    let handle = engine.register_dcq(graph_query(GraphQueryId::QG3)).unwrap();

    let mut skipped = DeltaBatch::new();
    skipped.insert("Unrelated", int_row([8]));
    let report = engine.apply(&skipped).unwrap();
    assert_eq!(report.views_skipped, 1);
    assert_eq!(
        engine.view(handle).unwrap().epoch(),
        1,
        "skip records the epoch"
    );

    let mut relevant = DeltaBatch::new();
    relevant.insert("Unrelated", int_row([9]));
    relevant.delete("Graph", int_row([2, 3]));
    let report = engine.apply(&relevant).unwrap();
    assert_eq!(report.views_applied, 1);
    assert_eq!(engine.view(handle).unwrap().epoch(), 2);

    // The maintained result matches recomputation over the store…
    let view = engine.view(handle).unwrap();
    let expected = baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
    assert_eq!(
        engine.result(handle).unwrap().sorted_rows(),
        expected.sorted_rows()
    );
    // …and replaying both batches, in order, over the registration snapshot
    // reproduces the database of record exactly.
    let mut replayed = snapshot;
    replayed.apply_batch(&skipped).unwrap();
    replayed.apply_batch(&relevant).unwrap();
    assert_eq!(
        replayed.get("Graph").unwrap().sorted_rows(),
        engine.database().get("Graph").unwrap().sorted_rows()
    );
    assert_eq!(
        replayed.get("Unrelated").unwrap().sorted_rows(),
        engine.database().get("Unrelated").unwrap().sorted_rows()
    );
    let re_expected = baseline_dcq(view.dcq(), &replayed, CqStrategy::Vanilla).unwrap();
    assert_eq!(
        engine.result(handle).unwrap().sorted_rows(),
        re_expected.sorted_rows()
    );
}

/// Distinct `Q_G5`-family registrations share their α-equivalent positive
/// side through the counting pool: eight views, one pooled side, folded once
/// per batch — and every view still matches recomputation.
#[test]
fn distinct_family_shares_counting_sides() {
    let data = build_dataset(
        "engine-side-pool",
        Graph::uniform(60, 240, 3),
        0.5,
        TripleRuleMix::balanced(),
        5,
    );
    const CLOSERS: [&str; 8] = [
        "Graph(n4, n1)",
        "Graph(n1, n4)",
        "Graph(n1, n3)",
        "Graph(n3, n1)",
        "Graph(n2, n1)",
        "Graph(n1, n2)",
        "Graph(n4, n1), Graph(n1, n3)",
        "Graph(n1, n4), Graph(n2, n1)",
    ];
    let mut engine = DcqEngine::with_database(data.db.clone());
    let mut handles = Vec::new();
    for (i, closer) in CLOSERS.iter().enumerate() {
        let dcq = parse_dcq(&format!(
            "V{i}(n1, n2, n3, n4) :- Graph(n1, n2), Graph(n2, n3), Graph(n3, n4) \
             EXCEPT Graph(n2, n3), Graph(n3, n4), {closer}"
        ))
        .unwrap();
        handles.push(
            engine
                .register_with(dcq, IncrementalStrategy::Counting)
                .unwrap(),
        );
    }
    assert_eq!(engine.distinct_view_count(), 8, "all shapes are distinct");
    let pool = engine.counting_pool_stats();
    assert_eq!(
        pool.hits, 7,
        "seven registrations reuse the family's shared positive side"
    );
    // 8 q1 sides collapse to 1; the 8 q2 sides are distinct: 9 live shapes.
    assert_eq!(pool.live, 9);

    let spec = UpdateSpec::new(20, 8, &["Graph"]);
    let batches = update_workload(engine.database(), &spec, 77);
    for batch in &batches {
        engine.apply(batch).unwrap();
        for handle in &handles {
            let view = engine.view(*handle).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(*handle).unwrap().sorted_rows(),
                expected.sorted_rows(),
                "pooled-side view diverged"
            );
        }
    }
    // Deregistering every view drains the pool and the registry.
    for handle in handles {
        engine.deregister(handle).unwrap();
    }
    assert_eq!(engine.counting_pool_stats().live, 0);
    assert_eq!(engine.index_count(), 0);
}

/// The engine's store is the single copy of the base data, and the index
/// registry is the single copy of the delta-join access structures: the first
/// counting registration acquires its shared indexes, every further
/// registration of the shape adds **zero** bytes.
#[test]
fn store_memory_does_not_scale_with_view_count() {
    let data = build_dataset(
        "engine-memory",
        Graph::uniform(200, 800, 7),
        0.5,
        TripleRuleMix::balanced(),
        3,
    );
    let mut engine = DcqEngine::with_database(data.db.clone());
    let data_only = engine.store_bytes();
    assert_eq!(engine.index_count(), 0);
    let first = engine.register_dcq(graph_query(GraphQueryId::QG5)).unwrap();
    let after_first = engine.store_bytes();
    assert_eq!(
        after_first,
        data_only + engine.index_bytes(),
        "the first registration adds exactly its shared indexes"
    );
    let indexes_after_first = engine.index_count();
    assert!(indexes_after_first > 0);
    for _ in 1..8 {
        engine.register_dcq(graph_query(GraphQueryId::QG5)).unwrap();
    }
    assert_eq!(
        engine.store_bytes(),
        after_first,
        "further registrations must not copy the store or build new indexes"
    );
    assert_eq!(engine.index_count(), indexes_after_first);
    // Dropping the last registration of the shape frees its indexes too.
    engine.deregister(first).unwrap();
    assert_eq!(engine.store_bytes(), after_first, "7 registrations remain");
}
