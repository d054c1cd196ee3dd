//! Parallel fan-out ≡ sequential fan-out, bit for bit.
//!
//! The worker count of `DcqEngine::apply` is *pure scheduling*: at any width,
//! the engine produces identical results, identical `EngineStats`, identical
//! per-view maintenance counters, and identical registry/pool accounting.  The
//! mechanism that makes that true is exercised at its adversarial point:
//! pooled counting sides are folded **once per epoch** by whichever worker
//! locks them first, and the fold is a pure function of `(state, batch)` — so
//! the `Q_G5` family (several distinct views, one shared positive side) is
//! registered to maximize cross-worker sharing, and the two family heads are
//! registered twice so shared handles ride along.
//!
//! What the file checks:
//!
//! * a property test over 13 schedules × 8 batches = 104 generated batches
//!   (≥ the 100-batch acceptance gate), over both the `Q_G3` (Triple-based,
//!   difference-linear) and `Q_G5` (Graph-based, hard) families, comparing a
//!   4-worker engine against a 1-worker engine *and* against fresh
//!   re-evaluation after every batch, then checking that teardown drains
//!   shared state and keeps the counting telemetry totals;
//! * a fixed stream replayed at worker widths 2, 3, 9 and 64 against width 1;
//! * a fixed stream replayed at fold partition counts K ∈ {2, 3, 8} (K follows
//!   the worker width) against K = 1.

use dcq_core::baseline::{baseline_dcq, CqStrategy};
use dcq_core::parse::parse_dcq;
use dcq_core::Dcq;
use dcq_datagen::{graph_query, GraphQueryId};
use dcq_engine::{DcqEngine, EngineStats, ViewHandle};
use dcq_storage::row::int_row;
use dcq_storage::{Database, DeltaBatch, Relation};
use proptest::prelude::*;

/// The standing queries: the `Q_G3` family (Triple minus Graph patterns) and
/// the `Q_G5` family (three-step Graph walks with rotated negative closers —
/// all eight positive sides α-collapse into ONE pooled counting side, so every
/// batch races the fan-out workers on the shared fold).
fn standing_queries() -> Vec<Dcq> {
    const QG5_CLOSERS: [&str; 4] = [
        "Graph(n4, n1)",
        "Graph(n1, n4)",
        "Graph(n1, n3)",
        "Graph(n2, n1)",
    ];
    let mut queries = vec![
        graph_query(GraphQueryId::QG3),
        graph_query(GraphQueryId::QG5),
    ];
    queries.push(
        parse_dcq(
            "G3b(n1, n2, n3) :- Triple(n1, n2, n3) \
             EXCEPT Graph(n1, n2), Graph(n2, n3), Graph(n3, n4)",
        )
        .unwrap(),
    );
    for (i, closer) in QG5_CLOSERS.iter().enumerate() {
        queries.push(
            parse_dcq(&format!(
                "V{i}(n1, n2, n3, n4) :- Graph(n1, n2), Graph(n2, n3), Graph(n3, n4) \
                 EXCEPT Graph(n2, n3), Graph(n3, n4), {closer}"
            ))
            .unwrap(),
        );
    }
    queries
}

fn initial_db(graph_rows: &[(i64, i64)], triple_rows: &[(i64, i64, i64)]) -> Database {
    let mut db = Database::new();
    db.add(Relation::from_int_rows(
        "Graph",
        &["src", "dst"],
        graph_rows
            .iter()
            .map(|(a, b)| vec![*a, *b])
            .collect::<Vec<Vec<i64>>>(),
    ))
    .unwrap();
    db.add(Relation::from_int_rows(
        "Triple",
        &["a", "b", "c"],
        triple_rows
            .iter()
            .map(|(a, b, c)| vec![*a, *b, *c])
            .collect::<Vec<Vec<i64>>>(),
    ))
    .unwrap();
    db
}

/// Turn generated ops into a batch over both relations; `a + b` doubles as the
/// insert/delete selector so schedules mix both freely.
fn ops_to_batch(ops: &[(u8, i64, i64, i64)]) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for (kind, a, b, c) in ops {
        if *kind % 3 == 2 {
            let row = int_row([*a, *b, *c]);
            if (*a + *b) % 4 == 0 {
                batch.delete("Triple", row);
            } else {
                batch.insert("Triple", row);
            }
        } else {
            let row = int_row([*a, *b]);
            if (*a + *b) % 4 == 0 {
                batch.delete("Graph", row);
            } else {
                batch.insert("Graph", row);
            }
        }
    }
    batch
}

/// Register the whole panel on one engine: one view per standing query, plus
/// a second handle on each of the two family heads (sharing their views).
fn register_panel(engine: &mut DcqEngine) -> Vec<ViewHandle> {
    let mut handles = Vec::new();
    for dcq in standing_queries() {
        handles.push(engine.register_dcq(dcq).unwrap());
    }
    for id in [GraphQueryId::QG3, GraphQueryId::QG5] {
        handles.push(engine.register_dcq(graph_query(id)).unwrap());
    }
    handles
}

/// Every observable the two engines must agree on, batch by batch.
fn assert_engines_identical(
    sequential: &DcqEngine,
    parallel: &DcqEngine,
    handles_seq: &[ViewHandle],
    handles_par: &[ViewHandle],
    context: &str,
) {
    // `workers` is configuration, not work — the one stats field the two
    // engines legitimately disagree on.
    assert_eq!(
        EngineStats {
            workers: 0,
            ..sequential.stats()
        },
        EngineStats {
            workers: 0,
            ..parallel.stats()
        },
        "{context}: EngineStats diverged"
    );
    assert_eq!(
        sequential.counting_pool_stats(),
        parallel.counting_pool_stats(),
        "{context}: pool counters diverged"
    );
    // The schedule-independent work counters: index probes, compensated
    // masks/restores, fold ownership and COW accounting depend only on the
    // batch sequence, never on which worker performed the work.
    assert_eq!(
        sequential.counting_telemetry(),
        parallel.counting_telemetry(),
        "{context}: counting work counters diverged"
    );
    assert_eq!(
        sequential.index_telemetry(),
        parallel.index_telemetry(),
        "{context}: index registry telemetry diverged"
    );
    assert_eq!(
        sequential.plan_cache_stats(),
        parallel.plan_cache_stats(),
        "{context}: plan cache diverged"
    );
    assert_eq!(sequential.index_count(), parallel.index_count());
    assert_eq!(sequential.index_bytes(), parallel.index_bytes());
    assert_eq!(sequential.epoch(), parallel.epoch());
    for (s, p) in handles_seq.iter().zip(handles_par) {
        let sv = sequential.view(*s).unwrap();
        let pv = parallel.view(*p).unwrap();
        assert_eq!(
            sequential.result(*s).unwrap().sorted_rows(),
            parallel.result(*p).unwrap().sorted_rows(),
            "{context}: results diverged for {}",
            sv.dcq()
        );
        assert_eq!(sv.stats(), pv.stats(), "{context}: view stats diverged");
        assert_eq!(sv.epoch(), pv.epoch());
    }
}

proptest! {
    // 13 schedules × 8 batches = 104 generated batches ≥ the 100-batch gate.
    #![proptest_config(ProptestConfig::with_cases(13))]

    /// One generated schedule, two engines: workers = 1 vs workers = 4.  After
    /// every batch the engines must agree on every observable, and the parallel engine must agree with
    /// fresh re-evaluation over its database of record.
    #[test]
    fn parallel_apply_is_bit_identical_to_sequential(
        graph in proptest::collection::vec((0i64..6, 0i64..6), 10..30),
        triples in proptest::collection::vec((0i64..6, 0i64..6, 0i64..6), 5..15),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0i64..6, 0i64..6, 0i64..6), 1..10),
            8..9
        ),
    ) {
        let db = initial_db(&graph, &triples);
        let mut sequential = DcqEngine::with_database(db.clone());
        let mut parallel = DcqEngine::with_database(db);
        sequential.set_workers(1);
        // Width 4 also splits every counting fold into K = 4 partitions.
        parallel.set_workers(4);
        let handles_seq = register_panel(&mut sequential);
        let handles_par = register_panel(&mut parallel);
        assert_engines_identical(
            &sequential, &parallel, &handles_seq, &handles_par, "registration",
        );

        for (step, ops) in batches.iter().enumerate() {
            let batch = ops_to_batch(ops);
            let report_seq = sequential.apply(&batch).unwrap();
            let report_par = parallel.apply(&batch).unwrap();
            prop_assert_eq!(report_seq, report_par, "apply reports diverged at batch {}", step);

            assert_engines_identical(
                &sequential,
                &parallel,
                &handles_seq,
                &handles_par,
                &format!("batch {step}"),
            );
            // The parallel engine is not just self-consistent with the
            // sequential one — both are *correct*.
            for handle in &handles_par {
                let view = parallel.view(*handle).unwrap();
                let expected =
                    baseline_dcq(view.dcq(), parallel.database(), CqStrategy::Vanilla).unwrap();
                prop_assert_eq!(
                    parallel.result(*handle).unwrap().sorted_rows(),
                    expected.sorted_rows(),
                    "parallel engine diverged from recomputation at batch {}",
                    step
                );
            }
        }

        // Teardown drains shared state identically at both widths, and the
        // deregistered views' work counters drain fully into the engines'
        // retired base: aggregated totals are preserved exactly, not lost with
        // the views.
        let totals_seq = sequential.counting_telemetry();
        let totals_par = parallel.counting_telemetry();
        for (s, p) in handles_seq.iter().zip(&handles_par) {
            sequential.deregister(*s).unwrap();
            parallel.deregister(*p).unwrap();
        }
        prop_assert_eq!(sequential.index_count(), 0);
        prop_assert_eq!(parallel.index_count(), 0);
        prop_assert_eq!(parallel.counting_pool_stats().live, 0);
        prop_assert_eq!(
            sequential.counting_telemetry(),
            totals_seq,
            "deregistration must not lose counting telemetry"
        );
        prop_assert_eq!(
            parallel.counting_telemetry(),
            totals_par,
            "deregistration must not lose counting telemetry"
        );
        prop_assert_eq!(sequential.counting_telemetry(), parallel.counting_telemetry());
    }
}

/// Worker counts beyond the view count, equal to it, and far beyond the host's
/// core count all produce the same state as the sequential engine.
#[test]
fn any_worker_width_matches_sequential() {
    let db = initial_db(
        &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 2), (2, 0)],
        &[(0, 1, 2), (1, 2, 3), (3, 3, 3)],
    );
    let mut reference = DcqEngine::with_database(db.clone());
    reference.set_workers(1);
    let reference_handles = register_panel(&mut reference);

    let batches: Vec<DeltaBatch> = (0..6i64)
        .map(|step| {
            let mut batch = DeltaBatch::new();
            batch.insert("Graph", int_row([10 + step, step]));
            batch.insert("Graph", int_row([step, 10 + step]));
            if step % 2 == 0 {
                batch.delete("Graph", int_row([step, step + 1]));
                batch.insert("Triple", int_row([step, step, step]));
            }
            batch
        })
        .collect();
    for batch in &batches {
        reference.apply(batch).unwrap();
    }

    for workers in [2, 3, 9, 64] {
        let mut engine = DcqEngine::with_database(db.clone());
        engine.set_workers(workers);
        let handles = register_panel(&mut engine);
        for batch in &batches {
            engine.apply(batch).unwrap();
        }
        assert_engines_identical(
            &reference,
            &engine,
            &reference_handles,
            &handles,
            &format!("workers = {workers}"),
        );
    }
}

/// The fold partition count K follows the worker width and is pure scheduling
/// too: K ∈ {1, 2, 3, 8} partitioned counting folds over the full panel
/// (including the one-pooled-side `Q_G5` family) produce identical
/// observables.
#[test]
fn any_fold_partition_count_matches_sequential() {
    let db = initial_db(
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (1, 4),
            (4, 2),
            (2, 0),
            (4, 4),
        ],
        &[(0, 1, 2), (1, 2, 3), (3, 3, 3)],
    );
    let batches: Vec<DeltaBatch> = (0..8i64)
        .map(|step| {
            let mut batch = DeltaBatch::new();
            batch.insert("Graph", int_row([step % 5, (step + 2) % 5]));
            batch.insert("Graph", int_row([(step + 1) % 5, step % 5]));
            if step % 2 == 1 {
                batch.delete("Graph", int_row([step % 4, (step + 1) % 4]));
                batch.insert("Triple", int_row([step, step % 3, step % 2]));
            }
            batch
        })
        .collect();

    let run = |partitions: usize| -> (DcqEngine, Vec<ViewHandle>) {
        let mut engine = DcqEngine::with_database(db.clone());
        engine.set_workers(partitions);
        let handles = register_panel(&mut engine);
        assert_eq!(engine.workers(), partitions);
        for batch in &batches {
            engine.apply(batch).unwrap();
        }
        (engine, handles)
    };

    let (reference, reference_handles) = run(1);
    for partitions in [2, 3, 8] {
        let (engine, handles) = run(partitions);
        assert_engines_identical(
            &reference,
            &engine,
            &reference_handles,
            &handles,
            &format!("fold partitions = {partitions}"),
        );
    }
}
