//! Incremental maintenance ≡ full recomputation (single-view engines).
//!
//! Three complementary suites:
//!
//! * a **property test** applying proptest-generated insert/delete batches to
//!   engine-hosted single views of easy and hard DCQs under *both* maintenance
//!   strategies, asserting after every batch that the maintained result is
//!   byte-identical to the vanilla baseline recomputation;
//! * a **deterministic long-run test** streaming 120 generator-produced batches
//!   (`dcq_datagen::update_workload`) through easy and hard views over a synthetic
//!   graph, checking the same invariant — this is the ≥100-batch acceptance gate;
//! * a **reference check** of the default registration path (`register_dcq`:
//!   counting, for every class) on the difference-linear `Q_G1`–`Q_G4` and
//!   `Q_G6` against `dcqx::testkit::naive_dcq` — nested loops and a set
//!   difference that share no operator with the engine — after every batch, at
//!   worker widths 1 and 2.
//!
//! Each view runs in its own `DcqEngine` — the post-shim shape of the
//! single-client deployment (the `MaintainedDcq` shim these suites used to
//! exercise has been removed).  The multi-view fan-out suite lives in
//! `engine_multi_view.rs`; shared-index-specific coverage (self-joins, repeated
//! variables) in `shared_index_correctness.rs`.

use dcq_core::baseline::{baseline_dcq, CqStrategy};
use dcq_core::parse::parse_dcq;
use dcq_core::planner::IncrementalStrategy;
use dcq_datagen::datasets::build_dataset;
use dcq_datagen::{graph_query, update_workload, Graph, GraphQueryId, TripleRuleMix, UpdateSpec};
use dcq_engine::DcqEngine;
use dcq_storage::row::int_row;
use dcq_storage::{Database, DeltaBatch, Relation, Value};
use dcqx::testkit::naive_dcq;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The maintained queries: a mix of difference-linear and hard DCQs so both
/// maintenance engines are exercised on every generated update sequence.
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

    /// Maintained views stay byte-identical to full recomputation over randomized
    /// insert/delete batch sequences, for easy and hard DCQs under both strategies.
    #[test]
    fn maintenance_equals_recomputation(
        initial in proptest::collection::vec((0u8..5, 0i64..6, 0i64..6, 0i64..6), 0..60),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0i64..6, 0i64..6, 0i64..6), 1..8),
            10..11
        ),
    ) {
        for (label, src) in QUERIES {
            for strategy in [IncrementalStrategy::EasyRerun, IncrementalStrategy::Counting] {
                let mut engine = DcqEngine::with_database(initial_db(&initial));
                let dcq = parse_dcq(src).unwrap();
                let handle = engine.register_with(dcq, strategy).unwrap();
                for (step, ops) in batches.iter().enumerate() {
                    let batch = ops_to_batch(ops, false);
                    engine.apply(&batch).unwrap();
                    let view = engine.view(handle).unwrap();
                    let expected =
                        baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
                    prop_assert_eq!(
                        engine.result(handle).unwrap().sorted_rows(),
                        expected.sorted_rows(),
                        "{} diverged under {:?} at batch {}",
                        label, strategy, step
                    );
                }
            }
        }
    }
}

/// The ≥100-batch acceptance run: 120 generated batches against graph-shaped data,
/// easy (Q_G3) and hard (Q_G5) queries, both strategies, checked after every batch.
#[test]
fn long_workload_stays_exact_over_120_batches() {
    let data = build_dataset(
        "incremental-test",
        Graph::uniform(120, 500, 5),
        0.5,
        TripleRuleMix::balanced(),
        9,
    );
    for (id, strategy) in [
        (GraphQueryId::QG3, IncrementalStrategy::EasyRerun),
        (GraphQueryId::QG3, IncrementalStrategy::Counting),
        (GraphQueryId::QG5, IncrementalStrategy::Counting),
        (GraphQueryId::QG5, IncrementalStrategy::EasyRerun),
    ] {
        let mut engine = DcqEngine::with_database(data.db.clone());
        let handle = engine.register_with(graph_query(id), strategy).unwrap();
        let spec = UpdateSpec::new(120, 6, &["Graph", "Triple"]);
        let batches = update_workload(engine.database(), &spec, 2026);
        assert_eq!(batches.len(), 120);
        for (step, batch) in batches.iter().enumerate() {
            engine.apply(batch).unwrap();
            let view = engine.view(handle).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.result(handle).unwrap().sorted_rows(),
                expected.sorted_rows(),
                "{} under {strategy:?} diverged at batch {step}",
                id.name()
            );
        }
        let stats = engine.view(handle).unwrap().stats();
        assert_eq!(stats.batches_applied + stats.batches_skipped, 120);
        assert!(stats.tuples_inserted + stats.tuples_deleted > 0);
        assert_eq!(engine.epoch(), 120);
    }
}

/// What the default registration path maintains equals what an evaluator
/// sharing no code with it computes: the difference-linear graph queries,
/// registered through `register_dcq`, against nested loops and a `BTreeSet`
/// difference — at registration and after every batch, inline and fanned out.
#[test]
fn default_registration_matches_the_naive_reference_after_every_batch() {
    let data = build_dataset(
        "reference-test",
        Graph::uniform(100, 200, 5),
        0.5,
        TripleRuleMix::balanced(),
        9,
    );
    let spec = UpdateSpec::new(12, 10, &["Graph", "Triple"]);
    let batches = update_workload(&data.db, &spec, 2027);
    for workers in [1, 2] {
        for id in [
            GraphQueryId::QG1,
            GraphQueryId::QG2,
            GraphQueryId::QG3,
            GraphQueryId::QG4,
            GraphQueryId::QG6,
        ] {
            let mut engine = DcqEngine::with_database(data.db.clone());
            engine.set_workers(workers);
            let handle = engine.register_dcq(graph_query(id)).unwrap();
            let view = engine.view(handle).unwrap();
            assert!(view.plan().classification.is_difference_linear());
            assert_eq!(view.active_strategy(), IncrementalStrategy::Counting);
            let check = |engine: &DcqEngine, at: &str| {
                let maintained: BTreeSet<Vec<Value>> = engine
                    .result(handle)
                    .unwrap()
                    .iter()
                    .map(|row| row.values().to_vec())
                    .collect();
                let dcq = engine.view(handle).unwrap().dcq();
                let reference = naive_dcq(dcq, engine.database());
                assert_eq!(
                    maintained,
                    reference,
                    "{} at {workers} worker(s) diverged from the naive reference {at}",
                    id.name()
                );
                reference.len()
            };
            let mut sizes = vec![check(&engine, "at registration")];
            for (step, batch) in batches.iter().enumerate() {
                engine.apply(batch).unwrap();
                sizes.push(check(&engine, &format!("after batch {step}")));
            }
            // The comparison must not be of empty sets or of a result the
            // update stream never moves.
            assert!(sizes.iter().all(|&n| n > 0), "{}: {sizes:?}", id.name());
            assert!(
                sizes.windows(2).any(|w| w[0] != w[1]),
                "{}: {sizes:?}",
                id.name()
            );
        }
    }
}

/// The planner's automatic registration (counting, whatever the class) and a
/// rerun view named at registration both survive a mixed workload that also
/// touches unreferenced relations.
#[test]
fn auto_registered_views_skip_unreferenced_relations() {
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

    let mut engine = DcqEngine::with_database(db);
    let auto = engine.register_dcq(graph_query(GraphQueryId::QG3)).unwrap();
    let rerun = engine
        .register_with(
            graph_query(GraphQueryId::QG3),
            IncrementalStrategy::EasyRerun,
        )
        .unwrap();
    assert_eq!(
        engine.view(auto).unwrap().strategy(),
        IncrementalStrategy::Counting
    );
    assert_eq!(
        engine.view(rerun).unwrap().strategy(),
        IncrementalStrategy::EasyRerun
    );

    let mut batch = DeltaBatch::new();
    batch.insert("Unrelated", int_row([8]));
    let report = engine.apply(&batch).unwrap();
    assert_eq!(report.views_skipped, 2);
    for handle in [auto, rerun] {
        assert_eq!(engine.view(handle).unwrap().stats().batches_skipped, 1);
    }

    let mut batch = DeltaBatch::new();
    batch.insert("Unrelated", int_row([9]));
    batch.delete("Graph", int_row([2, 3]));
    let report = engine.apply(&batch).unwrap();
    assert_eq!(report.views_applied, 2);
    for handle in [auto, rerun] {
        let view = engine.view(handle).unwrap();
        let expected = baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
        assert_eq!(
            engine.result(handle).unwrap().sorted_rows(),
            expected.sorted_rows()
        );
    }
}
