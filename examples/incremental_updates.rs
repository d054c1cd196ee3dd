//! Incremental DCQ maintenance through the engine: register several difference
//! queries on one shared store, stream update batches at it, and compare against
//! recomputing from scratch per batch.
//!
//! ```text
//! cargo run --release --example incremental_updates [batch_tuples] [batches]
//! ```
//!
//! The demo registers an easy query (`Q_G3`) and a hard one (`Q_G5`), both
//! maintained by counting delta joins, on one [`DcqEngine`] over a synthetic
//! graph, then applies a randomized insert/delete workload with a single
//! `engine.apply(batch)` per batch — one normalization pass, one store update,
//! every view maintained — verifying at the end that each maintained result
//! matches the planner's one-shot evaluation.

use dcq_core::planner::DcqPlanner;
use dcq_datagen::datasets::build_dataset;
use dcq_datagen::{graph_query, update_workload, Graph, GraphQueryId, TripleRuleMix, UpdateSpec};
use dcqx::util::{header, secs, timed};
use dcqx::DcqEngine;
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let batch_tuples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let n_batches: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);

    let data = build_dataset(
        "incremental-demo",
        Graph::uniform(2_000, 8_000, 11),
        0.5,
        TripleRuleMix::balanced(),
        4,
    );
    let mut engine = DcqEngine::with_database(data.db.clone());
    println!(
        "database: {} tuples ({} Graph edges, {} Triple tuples)",
        engine.database().input_size(),
        engine.relation("Graph").unwrap().len(),
        data.triple_size
    );
    println!(
        "workload: {n_batches} batches × {batch_tuples} tuples (≈{:.2}% of the database each)",
        100.0 * batch_tuples as f64 / engine.database().input_size() as f64
    );

    let mut handles = Vec::new();
    for id in [GraphQueryId::QG3, GraphQueryId::QG5] {
        header(&format!("register {}", id.name()));
        let (prepared, t_prepare) = timed(|| engine.prepare(graph_query(id)).expect("prepare"));
        println!("{}", prepared.explain());
        let (handle, t_register) = timed(|| engine.register(&prepared).expect("register"));
        println!(
            "prepared in {} (cache hit: {}), registered in {} with {} result tuples",
            secs(t_prepare),
            prepared.cache_hit(),
            secs(t_register),
            engine.view(handle).unwrap().len()
        );
        handles.push(handle);
    }

    let spec = UpdateSpec::new(n_batches, batch_tuples, &["Graph", "Triple"]);
    let batches = update_workload(engine.database(), &spec, 99);

    header("stream updates");
    let mut apply_time = Duration::ZERO;
    for batch in &batches {
        let (_, elapsed) = timed(|| engine.apply(batch).expect("engine applies"));
        apply_time += elapsed;
    }
    println!(
        "applied {n_batches} batches in {} ({} per batch, all views fanned out)",
        secs(apply_time),
        secs(apply_time / n_batches as u32)
    );

    let planner = DcqPlanner::smart();
    for handle in handles {
        let view = engine.view(handle).unwrap();
        let name = view.dcq().q1.name.clone();
        header(&format!("{name} after {n_batches} batches"));
        let (reference, recompute) = timed(|| {
            planner
                .execute(view.dcq(), engine.database())
                .expect("recompute")
        });
        assert_eq!(
            engine.result(handle).unwrap().sorted_rows(),
            reference.sorted_rows(),
            "maintained result must equal one-shot recomputation"
        );
        let stats = view.stats();
        let per_batch = apply_time / n_batches as u32;
        println!("result size        : {}", view.len());
        println!(
            "engine apply/batch : {} (both views together)",
            secs(per_batch)
        );
        println!(
            "one-shot recompute : {} (×{} batches would be {})",
            secs(recompute),
            n_batches,
            secs(recompute * n_batches as u32)
        );
        println!(
            "speedup vs recompute-per-batch: {:.1}×",
            recompute.as_secs_f64() / per_batch.as_secs_f64().max(1e-9)
        );
        println!(
            "stats: {} applied, {} skipped, +{}/−{} base tuples, +{}/−{} result tuples, {} side recomputes, epoch {}",
            stats.batches_applied,
            stats.batches_skipped,
            stats.tuples_inserted,
            stats.tuples_deleted,
            stats.result_added,
            stats.result_removed,
            stats.side_recomputes,
            view.epoch()
        );
    }

    header("engine");
    println!(
        "epoch {}, {} views, store ≈{:.1} MiB (one copy, regardless of view count)",
        engine.epoch(),
        engine.view_count(),
        engine.store_bytes() as f64 / (1024.0 * 1024.0)
    );
}
