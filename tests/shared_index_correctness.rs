//! Shared-index engine ≡ fresh re-evaluation, on the shapes that stress the
//! index registry hardest.
//!
//! The counting engines no longer own rows or indexes: every delta-join probe
//! goes through `SharedDatabase`'s refcounted index registry, with old-state
//! probes compensated from the batch delta.  The shapes most likely to break
//! that machinery are:
//!
//! * **self-joins** — several occurrences of one relation must telescope
//!   (earlier occurrences probed in the new state, later ones in the old state)
//!   against a *single* physical index that is already fully updated;
//! * **repeated-variable atoms** — the equality filter lives in the index
//!   signature (`IndexKey::equalities`) and in the delta-binding path, and a
//!   row failing it must be invisible at every occurrence;
//! * **cross-view sharing** — distinct DCQs registered on one engine resolve
//!   overlapping probe signatures to the *same* registry entries, so a bug in
//!   refcounting or maintenance corrupts several views at once.
//!
//! The property test drives all of that with proptest-generated insert/delete
//! batches on one engine hosting every query (counting forced), asserting after
//! every batch that every view is byte-identical to the vanilla baseline over
//! the engine's database of record, and equal to `dcqx::testkit::naive_dcq`,
//! nested loops that share no operator with the plans the views maintain; a
//! deterministic companion churns registrations and checks the registry
//! drains to zero.

use dcq_core::baseline::{baseline_dcq, CqStrategy};
use dcq_core::parse::parse_dcq;
use dcq_core::planner::IncrementalStrategy;
use dcq_engine::{DcqEngine, ViewHandle};
use dcq_storage::row::int_row;
use dcq_storage::{Database, DeltaBatch, Relation, Value};
use dcqx::testkit::naive_dcq;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Self-join- and repeated-variable-heavy DCQs, all maintained by counting so
/// the shared-index delta-join path is exercised regardless of classification.
const QUERIES: &[(&str, &str)] = &[
    // Repeated variables on both sides (the `equalities` filter end to end).
    ("loops", "Q(x) :- R(x, x) EXCEPT S(x, x)"),
    // Two-step self-join minus the direct edge: three occurrences of R share
    // indexes, and the negative side probes the same relation again.
    ("closure", "Q(x, z) :- R(x, y), R(y, z) EXCEPT R(x, z)"),
    // Symmetric self-join with a repeated-variable-only negative side.
    (
        "mutual",
        "Q(x, y) :- R(x, y), R(y, x) EXCEPT R(x, x), R(y, y)",
    ),
    // Triangle through a triple self-join.
    (
        "triangle",
        "Q(x, y, z) :- R(x, y), R(y, z), R(z, x) EXCEPT S(x, y), S(y, z)",
    ),
    // Mixed: self-join across relations with a repeated variable in S.
    ("mixed", "Q(x, y) :- R(x, y), S(y, y) EXCEPT R(y, x)"),
];

fn initial_db(rows: &[(u8, i64, i64)]) -> Database {
    let mut db = Database::new();
    for name in ["R", "S"] {
        db.add(Relation::from_int_rows(name, &["p", "q"], vec![]))
            .unwrap();
    }
    let batch = ops_to_batch(rows, true);
    db.apply_batch(&batch).unwrap();
    db
}

/// Turn generated `(relation, a, b)` tuples into a delta batch; `a + b` doubles
/// as the insert/delete selector when `all_inserts` is false.
fn ops_to_batch(ops: &[(u8, i64, i64)], all_inserts: bool) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for (rel, a, b) in ops {
        let name = if *rel % 2 == 0 { "R" } else { "S" };
        let row = int_row([*a, *b]);
        if all_inserts || (*a + *b) % 3 != 0 {
            batch.insert(name, row);
        } else {
            batch.delete(name, row);
        }
    }
    batch
}

/// A view's maintained result as value tuples, the shape `naive_dcq` returns.
fn result_set(engine: &DcqEngine, handle: ViewHandle) -> BTreeSet<Vec<Value>> {
    engine
        .result(handle)
        .unwrap()
        .iter()
        .map(|row| row.values().to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One engine, every self-join/repeated-variable query registered (counting
    /// forced, overlapping registry entries): after every randomized batch,
    /// every view equals fresh re-evaluation over the database of record.
    #[test]
    fn shared_index_views_equal_fresh_reevaluation(
        initial in proptest::collection::vec((0u8..2, 0i64..5, 0i64..5), 0..40),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..2, 0i64..5, 0i64..5), 1..8),
            8..9
        ),
    ) {
        let mut engine = DcqEngine::with_database(initial_db(&initial));
        let mut handles = Vec::new();
        for (label, src) in QUERIES {
            let handle = engine
                .register_with(parse_dcq(src).unwrap(), IncrementalStrategy::Counting)
                .unwrap();
            handles.push((*label, handle));
        }
        // The family overlaps heavily: sharing must leave fewer physical
        // indexes than the sum of per-view plans would build.
        prop_assert!(engine.index_count() > 0);

        // Registration state must already match.
        for (label, handle) in &handles {
            let view = engine.view(*handle).unwrap();
            let expected =
                baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
            prop_assert_eq!(
                engine.result(*handle).unwrap().sorted_rows(),
                expected.sorted_rows(),
                "{} diverged at registration", label
            );
            prop_assert_eq!(
                result_set(&engine, *handle),
                naive_dcq(view.dcq(), engine.database()),
                "{} diverged from the naive reference at registration", label
            );
        }
        for (step, ops) in batches.iter().enumerate() {
            let batch = ops_to_batch(ops, false);
            engine.apply(&batch).unwrap();
            for (label, handle) in &handles {
                let view = engine.view(*handle).unwrap();
                let expected =
                    baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
                prop_assert_eq!(
                    engine.result(*handle).unwrap().sorted_rows(),
                    expected.sorted_rows(),
                    "{} diverged at batch {}",
                    label, step
                );
                prop_assert_eq!(
                    result_set(&engine, *handle),
                    naive_dcq(view.dcq(), engine.database()),
                    "{} diverged from the naive reference at batch {}",
                    label, step
                );
            }
        }
    }
}

/// Registration churn: views come and go, shared entries are refcounted, and
/// the registry drains to zero when the last counting view leaves — while the
/// surviving views keep answering exactly.
#[test]
fn registry_refcounts_survive_registration_churn() {
    let mut db = Database::new();
    db.add(Relation::from_int_rows(
        "R",
        &["p", "q"],
        vec![vec![1, 2], vec![2, 3], vec![3, 1], vec![2, 2]],
    ))
    .unwrap();
    db.add(Relation::from_int_rows(
        "S",
        &["p", "q"],
        vec![vec![1, 2], vec![2, 2]],
    ))
    .unwrap();
    let mut engine = DcqEngine::with_database(db);

    let closure = engine
        .register_with(
            parse_dcq("Q(x, z) :- R(x, y), R(y, z) EXCEPT R(x, z)").unwrap(),
            IncrementalStrategy::Counting,
        )
        .unwrap();
    let with_closure = engine.index_count();
    assert!(with_closure > 0);
    // An α-renamed duplicate shares the maintained view (and its indexes).
    let renamed = engine
        .register_with(
            parse_dcq("P(a, c) :- R(a, b), R(b, c) EXCEPT R(a, c)").unwrap(),
            IncrementalStrategy::Counting,
        )
        .unwrap();
    assert_eq!(engine.index_count(), with_closure);
    // A distinct shape overlapping the same relation reuses entries where the
    // probe signatures agree.
    let triangle = engine
        .register_with(
            parse_dcq("Q(x, y, z) :- R(x, y), R(y, z), R(z, x) EXCEPT S(x, y), S(y, z)").unwrap(),
            IncrementalStrategy::Counting,
        )
        .unwrap();
    let with_all = engine.index_count();

    // Mutate under churn and keep checking exactness.
    let mut batch = DeltaBatch::new();
    batch.insert("R", int_row([3, 2]));
    batch.delete("R", int_row([1, 2]));
    batch.insert("S", int_row([3, 1]));
    engine.apply(&batch).unwrap();
    for handle in [closure, renamed, triangle] {
        let view = engine.view(handle).unwrap();
        let expected = baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
        assert_eq!(
            engine.result(handle).unwrap().sorted_rows(),
            expected.sorted_rows()
        );
        assert_eq!(
            result_set(&engine, handle),
            naive_dcq(view.dcq(), engine.database())
        );
    }

    engine.deregister(renamed).unwrap();
    assert_eq!(engine.index_count(), with_all, "shape still registered");
    engine.deregister(closure).unwrap();
    // Every index the closure view probed is also probed by the triangle view
    // (its occurrence plans hit R on both ends), so nothing is freed yet —
    // refcounts keep shared entries alive while *any* view still probes them.
    assert_eq!(
        engine.index_count(),
        with_all,
        "closure's entries are all shared with the triangle view"
    );
    // The survivor still answers exactly after its neighbours left.
    let mut batch = DeltaBatch::new();
    batch.insert("R", int_row([1, 2]));
    engine.apply(&batch).unwrap();
    let view = engine.view(triangle).unwrap();
    let expected = baseline_dcq(view.dcq(), engine.database(), CqStrategy::Vanilla).unwrap();
    assert_eq!(
        engine.result(triangle).unwrap().sorted_rows(),
        expected.sorted_rows()
    );
    assert_eq!(
        result_set(&engine, triangle),
        naive_dcq(view.dcq(), engine.database())
    );
    engine.deregister(triangle).unwrap();
    assert_eq!(
        engine.index_count(),
        0,
        "registry drains when the last counting view leaves"
    );
    assert_eq!(engine.stats().index_bytes, 0);
}
