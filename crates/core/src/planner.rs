//! The DCQ planner: pick the right algorithm per Table 1 and explain the choice.
//!
//! | condition (structural)                       | strategy                            | complexity (Table 1)            |
//! |----------------------------------------------|-------------------------------------|---------------------------------|
//! | difference-linear (Def. 2.3)                 | [`Strategy::EasyLinear`]            | `O(N + OUT)`                    |
//! | `Q₂` linear-reducible (but not diff.-linear) | [`Strategy::ProbeLinearReducible`]  | `O(cost(Q₁))` (Corollary 2.5)   |
//! | otherwise                                    | [`Strategy::Intersection`] /        | `min(OUT₁·cost(Q₂∅), cost(Q₂⊕))`|
//! |                                              | [`Strategy::PerTupleProbe`]         | (Theorems 4.8 / 4.10)           |
//! | always available                             | [`Strategy::Baseline`]              | `cost(Q₁) + cost(Q₂)` (Cor. 2.1)|

use crate::baseline::{baseline_dcq, CqStrategy};
use crate::classify::{classify, DcqClass, DcqClassification};
use crate::easy::easy_dcq;
use crate::heuristics::{intersection_heuristic, probe_heuristic};
use crate::query::Dcq;
use crate::Result;
use dcq_storage::{Database, Relation};
use std::fmt;

/// The evaluation strategies the planner can choose from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// `EasyDCQ` (Algorithm 2): linear time for difference-linear DCQs.
    EasyLinear,
    /// Corollary 2.5: evaluate `Q₁`, reduce `Q₂`, filter by hash probes.
    ProbeLinearReducible,
    /// Theorem 4.8: evaluate `Q₁`, decide the Boolean residual `Q₂∅` per tuple.
    PerTupleProbe,
    /// Theorem 4.10: evaluate the intersection query `Q₂⊕` and subtract.
    Intersection,
    /// Corollary 2.1: materialize both sides and subtract (the vanilla plan).
    Baseline,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::EasyLinear => "EasyDCQ (linear time, Theorem 3.1)",
            Strategy::ProbeLinearReducible => "probe reduced Q2 (Corollary 2.5)",
            Strategy::PerTupleProbe => "per-tuple Boolean probe (Theorem 4.8)",
            Strategy::Intersection => "intersection query Q2⊕ (Theorem 4.10)",
            Strategy::Baseline => "baseline: materialize both and subtract (Corollary 2.1)",
        };
        write!(f, "{s}")
    }
}

/// A chosen plan: the strategy plus the structural classification that justified it.
#[derive(Clone, Debug)]
pub struct DcqPlan {
    /// The selected strategy.
    pub strategy: Strategy,
    /// The dichotomy classification of the DCQ.
    pub classification: DcqClassification,
}

impl DcqPlan {
    /// Render a short multi-line explanation (the repository's stand-in for the
    /// EXPLAIN plans of Figure 1).
    pub fn explain(&self) -> String {
        format!("strategy: {}\n{}", self.strategy, self.classification)
    }
}

/// The planner: owns the single-CQ evaluation strategy used inside heuristics and
/// baselines.
#[derive(Clone, Copy, Debug, Default)]
pub struct DcqPlanner {
    /// Evaluator used for the `cost(Q₁)` / `cost(Q₂)` terms.
    pub cq_strategy: CqStrategy,
}

impl DcqPlanner {
    /// A planner using the structure-aware single-CQ evaluator.
    pub fn smart() -> Self {
        DcqPlanner {
            cq_strategy: CqStrategy::Smart,
        }
    }

    /// A planner using the vanilla binary-join single-CQ evaluator.
    pub fn vanilla() -> Self {
        DcqPlanner {
            cq_strategy: CqStrategy::Vanilla,
        }
    }

    /// The one-shot strategy Table 1 prescribes for an already-computed
    /// classification (shared by [`DcqPlanner::plan`] and the plan cache, so a
    /// cached classification never needs to be re-derived).
    pub fn strategy_for(classification: &DcqClassification) -> Strategy {
        match classification.class {
            DcqClass::DifferenceLinear => Strategy::EasyLinear,
            DcqClass::HardQ1NotFreeConnex | DcqClass::HardAugmentedCyclic => {
                // Q2 may still be linear-reducible, giving the Corollary 2.5 bound.
                if classification.q2_shape.linear_reducible {
                    Strategy::ProbeLinearReducible
                } else {
                    Strategy::Intersection
                }
            }
            DcqClass::HardQ2NotLinearReducible => Strategy::Intersection,
        }
    }

    /// Choose a strategy for the DCQ from its structural classification alone.
    pub fn plan(&self, dcq: &Dcq) -> DcqPlan {
        let classification = classify(dcq);
        let strategy = Self::strategy_for(&classification);
        DcqPlan {
            strategy,
            classification,
        }
    }

    /// Plan and execute with the chosen (optimized) strategy.
    pub fn execute(&self, dcq: &Dcq, db: &Database) -> Result<Relation> {
        let plan = self.plan(dcq);
        self.execute_with(plan.strategy, dcq, db)
    }

    /// Execute with an explicit strategy (used by the benchmarks to compare
    /// optimized and vanilla plans on the same query).
    pub fn execute_with(&self, strategy: Strategy, dcq: &Dcq, db: &Database) -> Result<Relation> {
        match strategy {
            Strategy::EasyLinear => easy_dcq(dcq, db),
            Strategy::ProbeLinearReducible | Strategy::PerTupleProbe => {
                Ok(probe_heuristic(dcq, db, self.cq_strategy)?.result)
            }
            Strategy::Intersection => Ok(intersection_heuristic(dcq, db, self.cq_strategy)?.result),
            Strategy::Baseline => baseline_dcq(dcq, db, self.cq_strategy),
        }
    }
}

/// How a registered DCQ is maintained under updates (the `dcq-incremental`
/// crate executes the plan).
///
/// Every class of the dichotomy is maintained by counting, the scheme of
/// Berkholz, Keppeler & Schweikardt applied to each CQ side: per-batch cost
/// follows `|Δ|`, not the store size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IncrementalStrategy {
    /// Counting-based maintenance: maintain `|Q₁(t)|` and `|Q₂(t)|` support
    /// counts per output tuple via ℤ-annotated delta joins; a tuple is in the
    /// result while its `Q₁` count is positive and its `Q₂` count is zero.
    Counting,
    /// Maintained by counting.  Kept only because `benchmark/src/sut.rs` names
    /// it; it goes when the benchmark stops naming it.
    Adaptive,
}

impl fmt::Display for IncrementalStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(
            "counting maintenance (support counts updated by delta joins, cost follows |Δ|)",
        )
    }
}

/// A field-less stand-in for the retired maintenance cost model.  Kept only
/// because `benchmark/src/sut.rs` names it; it goes when the benchmark stops
/// naming it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceCostModel;

impl MaintenanceCostModel {
    /// Always [`IncrementalStrategy::Counting`], the only maintenance engine.
    pub fn initial_kind(&self) -> IncrementalStrategy {
        IncrementalStrategy::Counting
    }
}

/// A chosen incremental-maintenance plan: the strategy plus the structural
/// classification that justified it.
#[derive(Clone, Debug)]
pub struct IncrementalPlan {
    /// The selected maintenance strategy.
    pub strategy: IncrementalStrategy,
    /// The dichotomy classification of the DCQ.
    pub classification: DcqClassification,
}

impl IncrementalPlan {
    /// Render a short multi-line explanation of the maintenance choice.
    pub fn explain(&self) -> String {
        format!(
            "maintenance: {}\nwhy: counting for every class — per-batch cost follows |Δ|, \
             not the store size\n{}",
            self.strategy, self.classification
        )
    }
}

impl DcqPlanner {
    /// The maintenance strategy for an already-computed classification (shared by
    /// [`DcqPlanner::plan_incremental`] and the plan cache): counting, whatever the
    /// class.  The classification still decides the *one-shot* strategy
    /// ([`DcqPlanner::strategy_for`]); for maintenance it is kept for `explain`.
    pub fn incremental_strategy_for(_classification: &DcqClassification) -> IncrementalStrategy {
        IncrementalStrategy::Counting
    }

    /// Choose how a registered DCQ should be maintained under updates:
    /// [`IncrementalStrategy::Counting`] for difference-linear and hard DCQs
    /// alike.
    ///
    /// This classifies from scratch on every call; engines that prepare the same
    /// query shape repeatedly should go through a
    /// [`PlanCache`](crate::cache::PlanCache) instead.
    pub fn plan_incremental(&self, dcq: &Dcq) -> IncrementalPlan {
        let classification = classify(dcq);
        let strategy = Self::incremental_strategy_for(&classification);
        IncrementalPlan {
            strategy,
            classification,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dcq;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![
                vec![1, 2],
                vec![2, 3],
                vec![3, 1],
                vec![3, 4],
                vec![4, 5],
                vec![2, 4],
            ],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Triple",
            &["a", "b", "c"],
            vec![vec![1, 2, 3], vec![2, 3, 4], vec![3, 4, 5]],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Edge",
            &["src", "dst"],
            vec![vec![1, 3], vec![2, 4], vec![3, 5]],
        ))
        .unwrap();
        db
    }

    #[test]
    fn planner_picks_easy_for_difference_linear() {
        let dcq =
            parse_dcq("Q(a, b, c) :- Triple(a, b, c) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)")
                .unwrap();
        let plan = DcqPlanner::smart().plan(&dcq);
        assert_eq!(plan.strategy, Strategy::EasyLinear);
        assert!(plan.explain().contains("EasyDCQ"));
    }

    #[test]
    fn planner_picks_probe_for_hard_case_3() {
        // Q_G5 shape: Q1 and Q2 fine individually, augmented edge cyclic.
        let dcq = parse_dcq("Q(a, b, c) :- Graph(a, b), Graph(b, c) EXCEPT Edge(a, c), Edge(b, c)")
            .unwrap();
        let plan = DcqPlanner::smart().plan(&dcq);
        assert_eq!(plan.strategy, Strategy::ProbeLinearReducible);
    }

    #[test]
    fn planner_picks_intersection_for_non_linear_reducible_q2() {
        let dcq = parse_dcq("Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)").unwrap();
        let plan = DcqPlanner::smart().plan(&dcq);
        assert_eq!(plan.strategy, Strategy::Intersection);
    }

    #[test]
    fn all_strategies_agree_with_baseline_when_applicable() {
        let db = db();
        let cases = [
            "Q(a, b, c) :- Triple(a, b, c) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)",
            "Q(a, b, c) :- Graph(a, b), Graph(b, c) EXCEPT Edge(a, c), Edge(b, c)",
            "Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)",
        ];
        for src in cases {
            let dcq = parse_dcq(src).unwrap();
            let planner = DcqPlanner::smart();
            let expected = planner.execute_with(Strategy::Baseline, &dcq, &db).unwrap();
            let optimized = planner.execute(&dcq, &db).unwrap();
            assert_eq!(
                optimized.sorted_rows(),
                expected.sorted_rows(),
                "planner output differs from baseline on {src}"
            );
            // The explicitly-requested heuristics must agree as well.
            let inter = planner
                .execute_with(Strategy::Intersection, &dcq, &db)
                .unwrap();
            assert_eq!(inter.sorted_rows(), expected.sorted_rows());
            let probe = planner
                .execute_with(Strategy::PerTupleProbe, &dcq, &db)
                .unwrap();
            assert_eq!(probe.sorted_rows(), expected.sorted_rows());
        }
    }

    #[test]
    fn vanilla_and_smart_planners_agree() {
        let db = db();
        let dcq =
            parse_dcq("Q(a, b, c) :- Triple(a, b, c) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)")
                .unwrap();
        let a = DcqPlanner::vanilla().execute(&dcq, &db).unwrap();
        let b = DcqPlanner::smart().execute(&dcq, &db).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn incremental_plan_follows_dichotomy() {
        let planner = DcqPlanner::smart();
        let easy =
            parse_dcq("Q(a, b, c) :- Triple(a, b, c) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)")
                .unwrap();
        let plan = planner.plan_incremental(&easy);
        assert_eq!(plan.strategy, IncrementalStrategy::Counting);
        assert!(plan.explain().contains("counting maintenance"));
        assert!(plan.explain().contains("why:"), "explain says why");
        assert!(plan.classification.is_difference_linear());

        let hard = parse_dcq("Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)").unwrap();
        let plan = planner.plan_incremental(&hard);
        assert_eq!(plan.strategy, IncrementalStrategy::Counting);
        assert!(plan.explain().contains("counting maintenance"));
        assert!(!plan.classification.is_difference_linear());
    }

    #[test]
    fn strategy_display_is_informative() {
        assert!(format!("{}", Strategy::EasyLinear).contains("Theorem 3.1"));
        assert!(format!("{}", Strategy::Baseline).contains("Corollary 2.1"));
        assert!(format!("{}", Strategy::Intersection).contains("4.10"));
        assert!(format!("{}", IncrementalStrategy::Counting).contains("|Δ|"));
    }
}
