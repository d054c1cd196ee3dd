//! The names: workloads, end-to-end metrics, per-layer metrics.  Everything
//! that prints or checks a name reads it from here, and `BENCHMARK.json` at
//! the repository root is generated from this file (`emit-benchmark-json`; a
//! unit test fails when the two drift apart).

use crate::report::Json;
use crate::sizes::RUN_SECONDS;

pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists.  Goes into `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
}

/// Which of the three paths a workload times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    OneShot,
    Maintained,
    Served,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "oneshot",
        why: "One-shot Q1-Q2 on skewed graphs: four easy shapes, the hard one, and OUT2>>OUT1; core/hypergraph/exec do all the work, incremental/engine/server none.",
        kind: Kind::OneShot,
    },
    Workload {
        name: "trickle_hard",
        why: "engine.apply of 64-op batches under 4 hard Q_G5-family views (counting by default): incremental folds and storage index upkeep dominate, exec is idle.",
        kind: Kind::Maintained,
    },
    Workload {
        name: "trickle_easy",
        why: "Same store and batches under 3 difference-linear views, which default to re-evaluation: the time is exec through engine; trickle_hard must not move with it.",
        kind: Kind::Maintained,
    },
    Workload {
        name: "bulk_hard",
        why: "The hard views under batches of 5% of the store, each followed by its inverse: intern, index writes and fold partitioning matter where trickle hides them.",
        kind: Kind::Maintained,
    },
    Workload {
        name: "service",
        why: "Durable server, ~30k-row view: open-loop pushes timed from due time plus an epoch-gated reader, then a closed loop, kill and recover; the only workload where server works.",
        kind: Kind::Served,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric the driver gates.  Every workload reports every one
/// of them; what each means on a workload is its `native` metric there.
pub struct Gated {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Native metric behind it on one-shot, maintained and served workloads.
    pub native: [&'static str; 3],
    pub meaning: &'static str,
}

impl Gated {
    pub fn native_on(&self, kind: Kind) -> &'static str {
        self.native[match kind {
            Kind::OneShot => 0,
            Kind::Maintained => 1,
            Kind::Served => 2,
        }]
    }
}

pub const END_TO_END: [Gated; 6] = [
    Gated {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        native: ["eval_opt_ms", "apply_ms_p50", "push_ms_p50"],
        meaning: "typical latency of the workload's operation",
    },
    Gated {
        name: "op_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        native: ["eval_opt_ms_slowest", "apply_ms_p90", "push_ms_p95"],
        meaning: "slow end of the same latency",
    },
    Gated {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        native: ["evals_per_s", "delta_tuples_per_s", "push_per_s"],
        meaning: "closed-loop throughput in the workload's unit of work",
    },
    Gated {
        name: "reference_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        native: ["eval_base_ms", "recompute_ms", "recompute_ms"],
        meaning: "what the same answer costs without the optimisation",
    },
    Gated {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        native: ["peak_rss_mb", "peak_rss_mb", "peak_rss_mb"],
        meaning: "VmHWM of the workload's process at exit",
    },
    Gated {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        native: ["setup_s", "setup_s", "setup_s"],
        meaning: "generation + load + registration, median of the repetitions",
    },
];

/// A metric under the name the issue gave it, reported by the workloads it
/// applies to and absent from the others.
pub struct Native {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub workloads: &'static [&'static str],
    pub definition: &'static str,
}

const ALL: &[&str] = &[
    "oneshot",
    "trickle_hard",
    "trickle_easy",
    "bulk_hard",
    "service",
];
const MAINTAINED: &[&str] = &["trickle_hard", "trickle_easy", "bulk_hard"];
const MAINTAINED_AND_SERVED: &[&str] = &["trickle_hard", "trickle_easy", "bulk_hard", "service"];

pub const NATIVE: [Native; 18] = [
    Native {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        workloads: ALL,
        definition: "generation + load + registration/seeding, everything before the timed region; median of the set-up repetitions",
    },
    Native {
        name: "eval_opt_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: &["oneshot"],
        definition: "geometric mean over the 6 cells of the per-cell median DcqPlanner::smart().execute time",
    },
    Native {
        name: "eval_base_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: &["oneshot"],
        definition: "the same for baseline_dcq(.., Vanilla); eval_base_ms / eval_opt_ms is the paper's speed-up",
    },
    Native {
        name: "eval_opt_ms_slowest",
        unit: "ms",
        better: Better::Lower,
        workloads: &["oneshot"],
        definition: "the largest per-cell median of the optimized plan: the cell the geometric mean can hide",
    },
    Native {
        name: "evals_per_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: &["oneshot"],
        definition: "optimized-plan evaluations per second of optimized-plan time, all cells and rounds",
    },
    Native {
        name: "apply_ms_p50",
        unit: "ms",
        better: Better::Lower,
        workloads: MAINTAINED,
        definition: "median wall time of engine.apply(batch)",
    },
    Native {
        name: "apply_ms_p90",
        unit: "ms",
        better: Better::Lower,
        workloads: MAINTAINED,
        definition: "90th percentile of the same (samples beyond it are printed)",
    },
    Native {
        name: "ns_per_delta_tuple",
        unit: "ns",
        better: Better::Lower,
        workloads: MAINTAINED,
        definition: "sum of apply wall time / sum of report.effect.total()",
    },
    Native {
        name: "delta_tuples_per_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: MAINTAINED,
        definition: "sum of report.effect.total() / sum of apply wall time: ns_per_delta_tuple as a rate",
    },
    Native {
        name: "read_ms_p50",
        unit: "ms",
        better: Better::Lower,
        workloads: MAINTAINED,
        definition: "median over the passes of engine.result(h) over all views, after the last batch",
    },
    Native {
        name: "store_mb",
        unit: "MB",
        better: Better::Lower,
        workloads: MAINTAINED,
        definition: "engine.store_bytes() after the last batch; a count, it repeats exactly",
    },
    Native {
        name: "recompute_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: MAINTAINED_AND_SERVED,
        definition: "sum over the views of the median fresh DcqPlanner::smart().execute on the registration-time database: what not maintaining would cost per batch",
    },
    Native {
        name: "push_ms_p50",
        unit: "ms",
        better: Better::Lower,
        workloads: &["service"],
        definition: "phase A (open loop), push due time to ack",
    },
    Native {
        name: "push_ms_p95",
        unit: "ms",
        better: Better::Lower,
        workloads: &["service"],
        definition: "phase A, 95th percentile",
    },
    Native {
        name: "visible_ms_p50",
        unit: "ms",
        better: Better::Lower,
        workloads: &["service"],
        definition: "phase A, push due time to the reader's epoch-gated read returning that epoch",
    },
    Native {
        name: "push_per_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: &["service"],
        definition: "phase B (closed loop), acked pushes / wall time",
    },
    Native {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        workloads: ALL,
        definition: "VmHWM of the workload's process at exit (load generator and control engine included)",
    },
    Native {
        name: "fail_share",
        unit: "ratio",
        better: Better::Lower,
        workloads: ALL,
        definition: "(errors + overloaded refusals + failed correctness checks) / operations attempted",
    },
];

/// A per-layer metric of the traced run, and what it is expected to move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metric and workload(s) a change of this number should show
    /// up in; "nothing" where the metric is context, not a cost.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 56] = [
    // One-shot pass: the workload's own queries on its own database.
    layer("hypergraph.classify_us", "us", Lower, "eval_opt_ms on oneshot; predicted under 1%, planning is not the bottleneck"),
    layer("core.opt_ms", "ms", Lower, "eval_opt_ms on oneshot; recompute_ms elsewhere"),
    layer("core.base_ms", "ms", Lower, "eval_base_ms on oneshot"),
    layer("exec.q1_eval_ms", "ms", Lower, "eval_base_ms on oneshot; apply_ms_p50 on trickle_easy (same evaluator under rerun)"),
    layer("exec.q2_eval_ms", "ms", Lower, "eval_base_ms on oneshot; apply_ms_p50 on trickle_easy"),
    layer("exec.anti_join_ms", "ms", Lower, "eval_base_ms on oneshot"),
    layer("exec.out1_rows", "rows", Lower, "nothing: size of Q1's result"),
    layer("exec.out2_rows", "rows", Lower, "nothing: size of Q2's result"),
    layer("exec.out_rows", "rows", Lower, "nothing: size of the difference"),
    layer("exec.intermediate_per_out", "ratio", Lower, "eval_base_ms on oneshot: rows materialized per row returned"),
    layer("core.opt_peak_heap_mb", "MB", Lower, "peak_rss_mb on oneshot"),
    layer("core.base_peak_heap_mb", "MB", Lower, "peak_rss_mb on oneshot"),
    // Maintenance passes: bare store, store + views, engine.
    layer("storage.commit_ms_p50", "ms", Lower, "apply_ms_p50 on bulk_hard first, trickle_hard second"),
    layer("storage.commit_bare_ms_p50", "ms", Lower, "apply_ms_p50 on every maintained workload"),
    layer("storage.index_maint_ms_p50", "ms", Lower, "apply_ms_p50 on bulk_hard, then trickle_hard; about 0 on trickle_easy"),
    layer("incremental.view_apply_ms_p50", "ms", Lower, "apply_ms_p50 and ns_per_delta_tuple on trickle_hard, bulk_hard (folds), trickle_easy (rerun)"),
    layer("incremental.index_probes", "count", Lower, "apply_ms_p50 on trickle_hard"),
    layer("incremental.folds_owned", "count", Lower, "apply_ms_p50 on trickle_hard"),
    layer("incremental.fold_hits_shared", "count", Higher, "apply_ms_p50 on trickle_hard"),
    layer("incremental.shared_fold_ratio", "ratio", Higher, "apply_ms_p50 on trickle_hard: folds served from a shared side / folds asked for"),
    layer("incremental.deletion_index_builds", "count", Lower, "apply_ms_p50 on trickle_hard, bulk_hard"),
    layer("engine.apply_us_p50", "us", Lower, "apply_ms_p50 on maintained workloads; push_ms_p50 on service"),
    layer("engine.overhead_ms_p50", "ms", Lower, "apply_ms_p50 on every maintained workload; predicted small"),
    layer("engine.unattributed_pct", "%", Lower, "nothing: share of engine.apply not explained by commit + folds"),
    layer("engine.trace_commit_ms", "ms", Lower, "apply_ms_p50: the engine's own clock, beside storage.commit"),
    layer("engine.trace_fanout_ms", "ms", Lower, "apply_ms_p50: the engine's own clock, beside incremental.view_apply"),
    layer("engine.trace_policy_ms", "ms", Lower, "apply_ms_p50: the engine's own clock, policy tail"),
    layer("engine.trace_disagreement_pct", "%", Lower, "nothing: engine clock vs outside clock; over 10 is flagged"),
    layer("engine.register_ms", "ms", Lower, "setup_s on every maintained workload and service"),
    layer("engine.result_read_ms", "ms", Lower, "read_ms_p50 on maintained workloads"),
    layer("engine.views_skipped_ratio", "ratio", Higher, "apply_ms_p50: folds skipped / folds offered"),
    layer("engine.migrations", "count", Lower, "nothing: expected 0 under defaults"),
    layer("storage.store_bytes", "bytes", Lower, "store_mb, peak_rss_mb"),
    layer("storage.index_bytes", "bytes", Lower, "store_mb, peak_rss_mb"),
    layer("storage.flat_bytes", "bytes", Lower, "peak_rss_mb"),
    layer("storage.dict_entries", "count", Lower, "peak_rss_mb"),
    layer("storage.dict_bytes", "bytes", Lower, "peak_rss_mb"),
    layer("storage.bytes_per_tuple", "bytes", Lower, "store_mb"),
    layer("storage.index_inplace_writes", "count", Higher, "apply_ms_p50 on trickle_hard, bulk_hard"),
    layer("storage.index_cow_clones", "count", Lower, "apply_ms_p50 on trickle_hard, bulk_hard"),
    // Wire passes: codec and log without a socket, then a real server.
    layer("server.encode_us_p50", "us", Lower, "push_ms_p50, push_per_s on service"),
    layer("server.decode_us_p50", "us", Lower, "push_ms_p50, push_per_s on service"),
    layer("storage.wal_append_us_p50", "us", Lower, "push_ms_p50, push_per_s on service"),
    layer("engine.publish_ms_p50", "ms", Lower, "push_ms_p50, push_per_s, visible_ms_p50 on service"),
    layer("server.read_encode_ms_p50", "ms", Lower, "visible_ms_p50 on service"),
    layer("server.push_ms_p50", "ms", Lower, "push_ms_p50 on service: closed loop, one client"),
    layer("server.unattributed_ms", "ms", Lower, "push_ms_p50 on service: queue wait, thread hand-off, socket"),
    layer("server.push_ms_p99", "ms", Lower, "push_ms_p95 on service: the checkpoint stall a median hides"),
    layer("storage.checkpoint_ms_p50", "ms", Lower, "push_ms_p95 on service"),
    layer("server.checkpoints", "count", Lower, "push_ms_p95 on service"),
    layer("server.wal_bytes_per_push", "bytes", Lower, "push_ms_p50 on service"),
    layer("server.wal_write_amp", "ratio", Lower, "push_ms_p50 on service: WAL bytes / batch bytes"),
    layer("server.overloaded_total", "count", Lower, "fail_share on service"),
    layer("server.generator_late_ms_p95", "ms", Lower, "nothing: how late the open-loop generator itself ran"),
    layer("server.recover_ms", "ms", Lower, "nothing gated: restart time after a kill"),
    layer("bench.trace_overhead_pct", "%", Lower, "nothing: cost of recording spans"),
];

/// The native metrics `workload` reports, in catalogue order.
#[cfg(test)]
pub fn natives_of(workload: &str) -> Vec<&'static Native> {
    NATIVE
        .iter()
        .filter(|n| n.workloads.contains(&workload))
        .collect()
}

/// The glossary as markdown: workloads, end-to-end metrics under both names,
/// and per-layer metrics with what each is expected to move.  `README.md`
/// carries this text; `describe` regenerates it.
pub fn glossary() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### Workloads\n\n| name | why it exists |\n|---|---|");
    for w in &WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    let _ = writeln!(
        out,
        "\n### End-to-end metrics, as `run` prints them\n\n| name | unit | better | workloads | definition |\n|---|---|---|---|---|"
    );
    for n in &NATIVE {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            n.name,
            n.unit,
            n.better.as_str(),
            n.workloads.join(", "),
            n.definition
        );
    }
    let _ = writeln!(
        out,
        "\n### End-to-end metrics, as `BENCHMARK.json` gates them\n\n| name | unit | better | bound | on `oneshot` | on `trickle_*`, `bulk_hard` | on `service` | meaning |\n|---|---|---|---|---|---|---|---|"
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:.0} % | `{}` | `{}` | `{}` | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.native[0],
            m.native[1],
            m.native[2],
            m.meaning
        );
    }
    let _ = writeln!(
        out,
        "\n### Per-layer metrics (traced run) and what each should move\n\n| name | unit | better | expected to move |\n|---|---|---|---|"
    );
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn well_formed_unit(unit: &str) -> bool {
        unit.len() <= 16
            && !unit.is_empty()
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_readme_carries_the_generated_glossary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        assert!(
            readme.contains(&glossary()),
            "paste the output of `describe` into README.md"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(
                well_formed_name(m.name) && well_formed_unit(m.unit),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            for native in m.native {
                assert!(
                    NATIVE
                        .iter()
                        .any(|n| n.name == native && n.unit == m.unit && n.better == m.better),
                    "{} stands for {native}, which must exist with the same unit and direction",
                    m.name
                );
            }
        }
        for m in &PER_LAYER {
            assert!(
                well_formed_name(m.name) && well_formed_unit(m.unit),
                "{}",
                m.name
            );
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(benchmark_json().len() <= 64 * 1024);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is gated");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_gated_metric_has_a_native_one_on_every_workload() {
        for w in &WORKLOADS {
            for m in &END_TO_END {
                let native = m.native_on(w.kind);
                let entry = NATIVE
                    .iter()
                    .find(|n| n.name == native)
                    .expect("native metric exists");
                assert!(
                    entry.workloads.contains(&w.name),
                    "{} on {} stands for {native}, which {} does not report",
                    m.name,
                    w.name,
                    w.name
                );
            }
        }
    }
}
