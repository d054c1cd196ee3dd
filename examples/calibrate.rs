//! One-shot host calibration of the adaptive maintenance cost model.
//!
//! ```text
//! cargo run --release --example calibrate [nodes] [edges]
//! ```
//!
//! The adaptive policy (`DcqEngine::register_adaptive`) migrates a view between
//! touched-side rerun and counting maintenance when the observed delta fraction
//! crosses `MaintenanceCostModel::crossover_fraction`.  The shipped default is a
//! conservative host-independent guess; this example **measures** the real
//! crossover on the current host: it sweeps delta sizes from 0.1% to 30% of a
//! synthetic graph, times both fixed arms at each size on a single-view
//! [`DcqEngine`] (batch + inverse pairs, so the state resets exactly between
//! samples), fits the crossing point with
//! [`MaintenanceCostModel::from_crossover_samples`], and prints the fitted
//! model as a ready-to-paste `engine.set_cost_model(...)` line.

use dcqx::dcq_datagen::datasets::build_dataset;
use dcqx::dcq_datagen::{
    graph_query, update_workload, Graph, GraphQueryId, TripleRuleMix, UpdateSpec,
};
use dcqx::dcq_incremental::IncrementalStrategy;
use dcqx::util::header;
use dcqx::{CrossoverSample, DcqEngine, MaintenanceCostModel};
use std::time::Instant;

/// Swept effective batch sizes as fractions of the database.
const FRACTIONS: [f64; 5] = [0.001, 0.01, 0.03, 0.1, 0.3];
/// Timed batch+inverse pairs per arm per fraction (median kept).
const SAMPLES: usize = 3;

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(800);
    let edges: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3_200);

    let data = build_dataset(
        "calibrate",
        Graph::uniform(nodes, edges, 11),
        0.5,
        TripleRuleMix::balanced(),
        4,
    );
    let db = &data.db;
    let total = db.input_size();
    header("adaptive cost-model calibration");
    println!(
        "host sweep over {} tuples: delta fractions {FRACTIONS:?}, query {} (hard shape)",
        total,
        GraphQueryId::QG5.name()
    );

    let dcq = graph_query(GraphQueryId::QG5);
    let mut samples = Vec::new();
    println!(
        "{:>9} {:>8} {:>12} {:>12} {:>10}",
        "delta", "tuples", "rerun ms", "counting ms", "winner"
    );
    for fraction in FRACTIONS {
        let tuples = ((total as f64 * fraction) as usize).max(1);
        let batch = update_workload(db, &UpdateSpec::new(1, tuples, &["Graph"]), 29)
            .pop()
            .expect("one batch");
        let inverse = batch.inverse();
        let arm = |strategy: IncrementalStrategy| -> f64 {
            let mut engine = DcqEngine::with_database(db.clone());
            engine
                .register_with(dcq.clone(), strategy)
                .expect("register");
            // One untimed pair settles allocations.
            engine.apply(&batch).expect("warm-up");
            engine.apply(&inverse).expect("warm-up inverse");
            let mut timings: Vec<f64> = (0..SAMPLES)
                .map(|_| {
                    let started = Instant::now();
                    engine.apply(&batch).expect("batch");
                    engine.apply(&inverse).expect("inverse");
                    started.elapsed().as_secs_f64() * 1e3 / 2.0
                })
                .collect();
            timings.sort_by(f64::total_cmp);
            timings[timings.len() / 2]
        };
        let rerun_cost = arm(IncrementalStrategy::EasyRerun);
        let counting_cost = arm(IncrementalStrategy::Counting);
        println!(
            "{fraction:>9.3} {tuples:>8} {rerun_cost:>12.3} {counting_cost:>12.3} {:>10}",
            if counting_cost <= rerun_cost {
                "counting"
            } else {
                "rerun"
            }
        );
        samples.push(CrossoverSample {
            delta_fraction: fraction,
            rerun_cost,
            counting_cost,
        });
    }

    let fitted =
        MaintenanceCostModel::from_crossover_samples(&samples).expect("sweep yields a model");
    let default = MaintenanceCostModel::default();
    header("fitted model");
    println!(
        "measured crossover: {:.4} (shipped default {:.4})",
        fitted.crossover_fraction, default.crossover_fraction
    );
    println!("apply it to an engine with:\n");
    println!(
        "    engine.set_cost_model(MaintenanceCostModel::with_crossover({:.4}));",
        fitted.crossover_fraction
    );
    println!(
        "\nviews registered via register_adaptive() will then flip to rerun once their\n\
         EWMA delta fraction exceeds {:.4} (+{:.0}% hysteresis) and back to counting\n\
         below it; migration is result-invariant (tests/adaptive_migration.rs).",
        fitted.crossover_fraction,
        default.hysteresis * 100.0
    );
}
