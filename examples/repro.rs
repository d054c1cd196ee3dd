//! `repro` — regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release --example repro -- [experiment…]
//! ```
//!
//! Experiments (default: `all`):
//!
//! * `table2`          — graph dataset statistics and per-query output sizes,
//! * `fig5-graph`      — running time of Q_G1…Q_G6, original vs optimized,
//! * `fig5-benchmark`  — running time of the TPC-like queries at several scale factors,
//! * `fig6`            — Q_G4, varying OUT₁ (Triple size),
//! * `fig7`            — Q_G4, varying OUT₂ (selectivity of the predicate on Graph in Q₂),
//! * `fig8`            — Q_G4, varying OUT (Triple rule mix) with N, OUT₁, OUT₂ fixed,
//! * `fig9`            — peak memory of original vs optimized plans,
//! * `table1-scaling`  — measured scaling of each strategy on an easy and a hard DCQ.

use dcq_core::baseline::{baseline_dcq_with_stats, BaselineStats, CqStrategy};
use dcq_core::compose::push_selection;
use dcq_core::multi::{multi_dcq_naive, multi_dcq_recursive};
use dcq_core::planner::DcqPlanner;
use dcq_core::Dcq;
use dcq_datagen::datasets::build_dataset;
use dcq_datagen::{
    dataset, dataset_names, graph_queries, graph_query, tpcds_q35_workload, tpcds_q69_workload,
    tpch_q16_workload, Graph, GraphQueryId, TripleRuleMix,
};
use dcq_storage::{Database, Value};
use dcq_telemetry::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Counting allocator for the Figure 9 memory experiment: forwards to the
/// system allocator and tracks live and peak allocated bytes, so the peak can
/// be reset around each plan without an external profiler.
struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates all allocation to the system allocator; only bookkeeping added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
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

/// Peak heap growth (bytes above the starting live size) while running `f`.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (out, peak.saturating_sub(baseline))
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Wall-clock measurement of one original-vs-optimized comparison.
struct Comparison {
    /// Time of the vanilla plan (materialize both sides + anti-join).
    original: Duration,
    /// Time of the plan chosen by the dichotomy/planner.
    optimized: Duration,
    /// Sizes observed by the baseline (OUT₁, OUT₂, OUT).
    stats: BaselineStats,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.original.as_secs_f64() / self.optimized.as_secs_f64().max(1e-9)
    }
}

/// Run one DCQ with both the vanilla plan and the optimized plan, checking
/// that the two agree, and report the timings.
fn compare_plans(dcq: &Dcq, db: &Database) -> Comparison {
    let planner = DcqPlanner::smart();
    let ((baseline, stats), original) =
        time(|| baseline_dcq_with_stats(dcq, db, CqStrategy::Vanilla).expect("baseline"));
    let (optimized_result, optimized) = time(|| planner.execute(dcq, db).expect("optimized"));
    assert_eq!(
        baseline.distinct_count(),
        optimized_result.distinct_count(),
        "plans disagree"
    );
    Comparison {
        original,
        optimized,
        stats,
    }
}

fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

fn header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Table 2: dataset statistics and per-query output sizes.
fn table2() {
    header("Table 2 — graph datasets and their statistics (synthetic stand-ins)");
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>9} {:>8} | {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "dataset",
        "#edge",
        "#vertex",
        "#l2path",
        "#tri",
        "#Triple",
        "QG1",
        "QG2",
        "QG3",
        "QG4",
        "QG5",
        "QG6"
    );
    let planner = DcqPlanner::smart();
    for name in dataset_names() {
        let data = dataset(name);
        let mut outs = Vec::new();
        for (id, dcq) in graph_queries() {
            // Q_G5/Q_G6 blow up on the larger graphs exactly as in the paper ('-').
            let too_big = (id == GraphQueryId::QG6 && data.stats.edges > 2_500)
                || (id == GraphQueryId::QG5 && data.stats.edges > 60_000);
            if too_big {
                outs.push("-".to_string());
                continue;
            }
            let out = planner.execute(&dcq, &data.db).expect("query runs");
            outs.push(out.len().to_string());
        }
        println!(
            "{:<14} {:>8} {:>8} {:>10} {:>9} {:>8} | {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
            data.name,
            data.stats.edges,
            data.stats.vertices,
            data.stats.length2_paths,
            data.stats.triangles,
            data.triple_size,
            outs[0],
            outs[1],
            outs[2],
            outs[3],
            outs[4],
            outs[5],
        );
    }
}

/// Figure 5 (left): graph query running times.
fn fig5_graph() {
    header("Figure 5 (graph queries) — running time in seconds, original vs optimized");
    println!(
        "{:<14} {:<5} {:>10} {:>10} {:>10} {:>11} {:>11} {:>8}",
        "dataset", "query", "OUT1", "OUT2", "OUT", "original", "optimized", "speedup"
    );
    for name in dataset_names() {
        let data = dataset(name);
        for (id, dcq) in graph_queries() {
            let too_big = (id == GraphQueryId::QG6 && data.stats.edges > 2_500)
                || (id == GraphQueryId::QG5 && data.stats.edges > 60_000);
            if too_big {
                println!(
                    "{:<14} {:<5} (skipped: intermediate result too large)",
                    data.name,
                    id.name()
                );
                continue;
            }
            let cmp = compare_plans(&dcq, &data.db);
            println!(
                "{:<14} {:<5} {:>10} {:>10} {:>10} {:>11} {:>11} {:>7.1}x",
                data.name,
                id.name(),
                cmp.stats.out1,
                cmp.stats.out2,
                cmp.stats.out,
                secs(cmp.original),
                secs(cmp.optimized),
                cmp.speedup()
            );
        }
    }
}

/// Figure 5 (right): benchmark query running times.
fn fig5_benchmark() {
    header("Figure 5 (benchmark queries) — running time in seconds, original vs optimized");
    println!(
        "{:<11} {:>4} {:>10} {:>8} {:>11} {:>11} {:>8}",
        "workload", "sf", "N", "OUT", "original", "optimized", "speedup"
    );
    for sf in [1usize, 2, 4, 8] {
        for workload in [
            tpch_q16_workload(sf),
            tpcds_q35_workload(sf),
            tpcds_q69_workload(sf),
        ] {
            let (slow, t_slow) = time(|| {
                multi_dcq_naive(&workload.multi, &workload.db, CqStrategy::Vanilla).unwrap()
            });
            let (fast, t_fast) =
                time(|| multi_dcq_recursive(&workload.multi, &workload.db).unwrap());
            assert_eq!(slow.distinct_count(), fast.distinct_count());
            println!(
                "{:<11} {:>4} {:>10} {:>8} {:>11} {:>11} {:>7.1}x",
                workload.name,
                sf,
                workload.input_size(),
                fast.len(),
                secs(t_slow),
                secs(t_fast),
                t_slow.as_secs_f64() / t_fast.as_secs_f64().max(1e-9)
            );
        }
    }
}

/// Figures 6–8: the Q_G4 sweeps on the google-sim graph.
fn sweeps(which: &str) {
    let base = dataset("google-sim");
    let dcq = graph_query(GraphQueryId::QG4);

    if which == "fig6" {
        header("Figure 6 — Q_G4 on google-sim, varying OUT1 (Triple size), Q2 fixed");
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>11} {:>11}",
            "Triple frac", "OUT1", "OUT2", "OUT", "original", "optimized"
        );
        for fraction in [0.1f64, 0.25, 0.5, 0.75, 1.0] {
            let data = build_dataset(
                "google-sim-sweep",
                base.graph.clone(),
                0.5 * fraction,
                TripleRuleMix::balanced(),
                97,
            );
            let cmp = compare_plans(&dcq, &data.db);
            println!(
                "{:<12} {:>9} {:>9} {:>9} {:>11} {:>11}",
                format!("{:.2}", fraction),
                cmp.stats.out1,
                cmp.stats.out2,
                cmp.stats.out,
                secs(cmp.original),
                secs(cmp.optimized)
            );
        }
    }

    if which == "fig7" {
        header("Figure 7 — Q_G4 on google-sim, varying OUT2 via a predicate on Graph in Q2");
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>11} {:>11}",
            "selectivity", "OUT1", "OUT2", "OUT", "original", "optimized"
        );
        // Q2 references the same stored Graph relation as Q1, so to filter only Q2's
        // copy we register a filtered clone under a different name and rewrite Q2.
        for keep in [1.0f64, 0.75, 0.5, 0.25] {
            let mut db = base.db.clone();
            let threshold = (base.graph.n_vertices as f64 * keep) as i64;
            let filtered =
                push_selection(&base.db, "Graph", |row| row.get(1) < &Value::Int(threshold))
                    .unwrap();
            let mut graph2 = filtered.get("Graph").unwrap().clone();
            graph2.set_name("Graph2");
            db.add_or_replace(graph2);
            let dcq_filtered = dcq_core::parse::parse_dcq(
                "QG4(node1, node2, node3) :- Triple(node1, node2, node3)
                 EXCEPT Graph2(node1, node2), Graph2(node2, node3), Graph2(node3, node4)",
            )
            .unwrap();
            let cmp = compare_plans(&dcq_filtered, &db);
            println!(
                "{:<12} {:>9} {:>9} {:>9} {:>11} {:>11}",
                format!("{:.2}", keep),
                cmp.stats.out1,
                cmp.stats.out2,
                cmp.stats.out,
                secs(cmp.original),
                secs(cmp.optimized)
            );
        }
    }

    if which == "fig8" {
        header("Figure 8 — Q_G4 on google-sim, varying OUT via the Triple rule mix (N, OUT1, OUT2 fixed)");
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>11} {:>11}",
            "rule mix (r1/r2/r3)", "OUT1", "OUT2", "OUT", "original", "optimized"
        );
        for (label, mix) in [
            ("0.95/0.04/0.01", TripleRuleMix::mostly_paths()),
            ("0.50/0.30/0.20", TripleRuleMix::balanced()),
            ("0.05/0.75/0.20", TripleRuleMix::mostly_random()),
        ] {
            let data = build_dataset("google-sim-mix", base.graph.clone(), 0.5, mix, 131);
            let cmp = compare_plans(&dcq, &data.db);
            println!(
                "{:<22} {:>9} {:>9} {:>9} {:>11} {:>11}",
                label,
                cmp.stats.out1,
                cmp.stats.out2,
                cmp.stats.out,
                secs(cmp.original),
                secs(cmp.optimized)
            );
        }
    }
}

/// Figure 9: peak memory of original vs optimized plans on epinions-sim.
fn fig9() {
    header("Figure 9 — peak heap memory (MiB) on epinions-sim, original vs optimized");
    let data = dataset("epinions-sim");
    let planner = DcqPlanner::smart();
    println!("{:<6} {:>14} {:>14}", "query", "original", "optimized");
    for (id, dcq) in graph_queries() {
        if id == GraphQueryId::QG6 && data.stats.edges > 2_500 {
            println!("{:<6} (skipped: Cartesian product too large)", id.name());
            continue;
        }
        let (_, original_peak) =
            peak_during(|| baseline_dcq_with_stats(&dcq, &data.db, CqStrategy::Vanilla).unwrap());
        let (_, optimized_peak) = peak_during(|| planner.execute(&dcq, &data.db).unwrap());
        println!(
            "{:<6} {:>14.2} {:>14.2}",
            id.name(),
            original_peak as f64 / (1024.0 * 1024.0),
            optimized_peak as f64 / (1024.0 * 1024.0)
        );
    }
}

/// Table 1: measured scaling of the strategies on an easy and a hard DCQ.
fn table1_scaling() {
    header("Table 1 — measured scaling of baseline vs our approach (easy and hard DCQs)");
    println!(
        "{:<18} {:>9} {:>9} {:>11} {:>11} {:>8}",
        "instance", "N", "OUT", "baseline", "ours", "speedup"
    );
    for edges in [2_000usize, 8_000, 32_000] {
        let graph = Graph::preferential_attachment((edges / 4) as u64, 4, 7);
        let data = build_dataset("scaling", graph, 0.5, TripleRuleMix::balanced(), 5);
        // Easy DCQ: Q_G3 (difference-linear, Theorem 3.1).
        let cmp = compare_plans(&graph_query(GraphQueryId::QG3), &data.db);
        println!(
            "{:<18} {:>9} {:>9} {:>11} {:>11} {:>7.1}x",
            format!("easy/QG3 m≈{edges}"),
            data.db.input_size(),
            cmp.stats.out,
            secs(cmp.original),
            secs(cmp.optimized),
            cmp.speedup()
        );
        // Hard DCQ: Q_G5 (Corollary 2.5 heuristic).
        let cmp = compare_plans(&graph_query(GraphQueryId::QG5), &data.db);
        println!(
            "{:<18} {:>9} {:>9} {:>11} {:>11} {:>7.1}x",
            format!("hard/QG5 m≈{edges}"),
            data.db.input_size(),
            cmp.stats.out,
            secs(cmp.original),
            secs(cmp.optimized),
            cmp.speedup()
        );
    }
}

/// Export the run's heap footprint — [`CountingAllocator`]'s live and peak
/// byte counters — through the same `dcq-telemetry` registry/exposition
/// machinery the engine's `metrics()` uses, so a scraper reads the repro
/// binary and a serving engine in one format.
fn heap_exposition() {
    header("Heap telemetry — allocator gauges, Prometheus exposition format");
    let registry = MetricsRegistry::new();
    registry
        .gauge(
            "dcq_repro_heap_live_bytes",
            "Live heap bytes at the end of the repro run (CountingAllocator)",
        )
        .set(LIVE.load(Ordering::Relaxed) as u64);
    registry
        .gauge(
            "dcq_repro_heap_peak_bytes",
            "Peak heap bytes since the last reset (fig9 resets around each plan)",
        )
        .set(PEAK.load(Ordering::Relaxed) as u64);
    print!("{}", registry.render_prometheus());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table2",
            "fig5-graph",
            "fig5-benchmark",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "table1-scaling",
        ]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for experiment in wanted {
        match experiment {
            "table2" => table2(),
            "fig5-graph" => fig5_graph(),
            "fig5-benchmark" => fig5_benchmark(),
            "fig6" | "fig7" | "fig8" => sweeps(experiment),
            "fig9" => fig9(),
            "table1-scaling" => table1_scaling(),
            other => eprintln!("unknown experiment `{other}` (see --help in the module docs)"),
        }
    }
    heap_exposition();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_plans_reports_consistent_sizes() {
        let data = build_dataset(
            "tiny",
            Graph::uniform(60, 300, 3),
            0.5,
            TripleRuleMix::balanced(),
            4,
        );
        let cmp = compare_plans(&graph_query(GraphQueryId::QG3), &data.db);
        // OUT is a subset of OUT₁ and can shrink by at most |OUT₂| tuples.
        assert!(cmp.stats.out <= cmp.stats.out1);
        assert!(cmp.stats.out >= cmp.stats.out1.saturating_sub(cmp.stats.out2));
        assert!(cmp.speedup() > 0.0);
    }
}
