//! A/A: two full `run` sets of the same binary, the second in reverse
//! workload order, compared metric by metric against the gated bounds.
//!
//! A verdict is `agree` when neither set is worse than the other by more than
//! the metric's bound, and `unresolved` otherwise: with identical code on
//! both sides a larger gap is run-to-run spread, and a bound narrower than
//! the spread cannot tell a regression from noise.
//!
//! `selfcheck --seeds N` is the acceptance test the driver applies to the
//! benchmark itself: N runs per workload, each with another seed, and per
//! metric the inter-quartile distance as a share of the median, which must
//! stay inside the bound (the aim is a third of it).

use crate::catalog::{Better, Workload, END_TO_END, WORKLOADS};
use crate::report::Json;
use crate::stats::{quartiles, spread};
use crate::{is_correct, run_set, Args};

fn gated_value(document: &Json, metric: &str) -> Option<f64> {
    document.get("gated")?.get(metric)?.get("value")?.as_f64()
}

/// By how much of `reference` is `other` worse, in the metric's direction.
pub fn worsening(better: Better, reference: f64, other: f64) -> f64 {
    match better {
        Better::Lower => (other - reference) / reference,
        Better::Higher => (reference - other) / reference,
    }
}

pub fn selfcheck(args: &Args) -> bool {
    if args.seeds > 0 {
        return spread_over_seeds(args);
    }
    let forward = chosen(args);
    let backward: Vec<&'static Workload> = forward.iter().rev().copied().collect();
    let first = run_set(args, &forward);
    let second = run_set(args, &backward);
    let mut all_agree = true;
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for workload in &forward {
        let find = |set: &[(&Workload, Option<Json>)]| {
            set.iter()
                .find(|(w, _)| w.name == workload.name)
                .and_then(|(_, doc)| doc.clone())
        };
        let (Some(a), Some(b)) = (find(&first), find(&second)) else {
            println!("{:<14} a run produced no document", workload.name);
            all_agree = false;
            continue;
        };
        if a.get("correct").and_then(Json::as_bool) != Some(true)
            || b.get("correct").and_then(Json::as_bool) != Some(true)
        {
            println!("{:<14} a run failed its correctness checks", workload.name);
            all_agree = false;
        }
        for metric in &END_TO_END {
            let (Some(x), Some(y)) = (gated_value(&a, metric.name), gated_value(&b, metric.name))
            else {
                println!("{:<14} {:<14} missing", workload.name, metric.name);
                all_agree = false;
                continue;
            };
            let gap = worsening(metric.better, x, y).max(worsening(metric.better, y, x));
            let agree = gap <= metric.bound;
            all_agree &= agree;
            let verdict = if agree {
                "agree"
            } else {
                "unresolved (spread > bound)"
            };
            println!(
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>7.1}% {:>5.0}%  {verdict}",
                workload.name,
                metric.name,
                x,
                y,
                gap * 100.0,
                metric.bound * 100.0
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload.name)),
                ("metric", Json::str(metric.name)),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("gap", Json::Num(gap)),
                ("bound", Json::Num(metric.bound)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    let path = crate::out_dir().join(format!("selfcheck-seed{}.json", args.seed));
    std::fs::write(&path, Json::Arr(rows).pretty()).expect("selfcheck document is writable");
    eprintln!("selfcheck: {}", path.display());
    all_agree
}

/// The workloads a check covers: the one named with `--workload`, or all.
fn chosen(args: &Args) -> Vec<&'static Workload> {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
        .collect()
}

fn spread_over_seeds(args: &Args) -> bool {
    let order = chosen(args);
    // values[workload][metric] over the seeds.
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; order.len()];
    let mut all_within = true;
    for offset in 0..args.seeds {
        let one = Args {
            seed: args.seed + offset as u64,
            ..args.clone()
        };
        // Alternate the order so no workload always runs on a warm or a cold host.
        let mut this_order = order.clone();
        if offset % 2 == 1 {
            this_order.reverse();
        }
        for (workload, document) in run_set(&one, &this_order) {
            let w = order
                .iter()
                .position(|o| o.name == workload.name)
                .expect("known workload");
            if !is_correct(&document) {
                println!("{:<14} seed {} failed", workload.name, one.seed);
                all_within = false;
                continue;
            }
            for (m, metric) in END_TO_END.iter().enumerate() {
                if let Some(v) = document.as_ref().and_then(|d| gated_value(d, metric.name)) {
                    values[w][m].push(v);
                }
            }
        }
    }
    println!(
        "{:<14} {:<14} {:>14} {:>8} {:>6}  verdict ({} seeds from {})",
        "workload", "metric", "median", "spread", "bound", args.seeds, args.seed
    );
    let mut rows = Vec::new();
    for (w, workload) in order.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            if v.len() < 2 {
                continue;
            }
            let (_, median, _) = quartiles(v);
            let share = spread(v);
            // The driver exempts set-up time from the spread rule.
            let verdict = if metric.name == "setup_s" {
                "exempt"
            } else if share <= metric.bound / 3.0 {
                "steady"
            } else if share <= metric.bound {
                "within bound"
            } else {
                all_within = false;
                "SPREAD > BOUND"
            };
            println!(
                "{:<14} {:<14} {:>14.4} {:>7.1}% {:>5.0}%  {verdict}",
                workload.name,
                metric.name,
                median,
                share * 100.0,
                metric.bound * 100.0
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload.name)),
                ("metric", Json::str(metric.name)),
                (
                    "values",
                    Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                ),
                ("median", Json::Num(median)),
                ("spread", Json::Num(share)),
                ("bound", Json::Num(metric.bound)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    let path = crate::out_dir().join(format!("spread-seed{}-x{}.json", args.seed, args.seeds));
    std::fs::write(&path, Json::Arr(rows).pretty()).expect("spread document is writable");
    eprintln!("spread: {}", path.display());
    all_within
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
    }
}
