//! Memory stays bounded under churn.
//!
//! An engine that applies a batch and then its inverse returns to the same
//! store and the same view results every round, so once its fixed-size
//! buffers are full its live heap must stop growing.  Anything the engine
//! keeps per applied batch (a copy of the batch, a per-epoch record that is
//! never dropped) shows up here as steady growth.
//!
//! This is its own test binary because the counting allocator is
//! process-wide.

use dcq_datagen::datasets::build_dataset;
use dcq_datagen::{graph_query, update_workload, Graph, GraphQueryId, TripleRuleMix, UpdateSpec};
use dcq_engine::DcqEngine;
use dcq_telemetry::RingTraceSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes across the whole process.
struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates all allocation to the system allocator; only bookkeeping added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Batch + inverse rounds applied in total.
const ROUNDS: usize = 320;
/// Rounds before the first reading: each round records two traces, so the
/// default trace ring is full after half its capacity in rounds.
const WARM_ROUNDS: usize = RingTraceSink::DEFAULT_CAPACITY / 2 + 16;
/// Allowed live-heap growth between the first reading and the end.
const SLACK_BYTES: usize = 64 * 1024;

#[test]
fn batch_and_inverse_churn_keeps_live_heap_flat() {
    let data = build_dataset(
        "bounded-memory",
        Graph::uniform(60, 240, 7),
        0.5,
        TripleRuleMix::balanced(),
        7,
    );
    let batch = update_workload(&data.db, &UpdateSpec::new(1, 64, &["Graph", "Triple"]), 11)
        .pop()
        .expect("one batch");
    let inverse = batch.inverse();

    let mut engine = DcqEngine::with_database(data.db);
    engine.register_dcq(graph_query(GraphQueryId::QG3)).unwrap();
    engine.register_dcq(graph_query(GraphQueryId::QG5)).unwrap();

    let mut baseline = 0;
    for round in 0..ROUNDS {
        if round == WARM_ROUNDS {
            baseline = LIVE.load(Ordering::Relaxed);
        }
        let report = engine.apply(&batch).unwrap();
        assert!(report.effect.total() > 0, "the batch must change the store");
        engine.apply(&inverse).unwrap();
    }
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(
        grown < SLACK_BYTES,
        "live heap grew by {grown} bytes over {} batch + inverse rounds",
        ROUNDS - WARM_ROUNDS
    );
}
