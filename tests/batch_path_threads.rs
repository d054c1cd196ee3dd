//! No thread is created on the batch path.
//!
//! `DcqEngine::apply` crosses the worker pool about eight times per batch
//! (sharded commit, view fan-out, partitioned folds).  The pool's helper
//! threads are started lazily by the first run that is wide enough and then
//! reused, so after the first applied batch the process's thread count is
//! fixed.
//!
//! One test, alone in its binary on purpose: helpers are process-wide, and a
//! neighbouring test running a wider pool would start its own in the middle of
//! the count.

use dcq_datagen::datasets::build_dataset;
use dcq_datagen::{graph_query, update_workload, Graph, GraphQueryId, TripleRuleMix, UpdateSpec};
use dcq_engine::DcqEngine;
use dcq_storage::WorkerPool;

/// Threads of this process as the kernel counts them — independent of the
/// pool's own bookkeeping.  `None` where `/proc` does not exist.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn a_thousand_applies_start_no_thread_after_the_first() {
    const WIDTH: usize = 4;
    let data = build_dataset(
        "batch-path-threads",
        Graph::uniform(200, 800, 5),
        0.5,
        TripleRuleMix::balanced(),
        9,
    );
    let mut engine = DcqEngine::with_database(data.db.clone());
    // Pinned above 1 so the helpers are exercised on a one-core host too.
    engine.set_workers(WIDTH);
    for id in [GraphQueryId::QG1, GraphQueryId::QG3, GraphQueryId::QG5] {
        engine.register_dcq(graph_query(id)).unwrap();
    }
    let spec = UpdateSpec::new(1_000, 6, &["Graph", "Triple"]);
    let batches = update_workload(engine.database(), &spec, 2028);

    let report = engine.apply(&batches[0]).unwrap();
    assert!(report.views_applied >= 2, "the first batch fans out");
    let helpers = WorkerPool::helper_threads();
    let os_threads = os_thread_count();
    assert_eq!(helpers, WIDTH - 1, "the first batch starts every helper");

    for batch in &batches[1..] {
        engine.apply(batch).unwrap();
    }
    assert_eq!(engine.epoch(), 1_000);
    assert_eq!(WorkerPool::helper_threads(), helpers);
    assert_eq!(os_thread_count(), os_threads);
}
