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

/// How a registered DCQ should be maintained under updates (the `dcq-incremental`
/// crate executes these strategies).
///
/// The planner prescribes [`Counting`](IncrementalStrategy::Counting) for every
/// class of the dichotomy: per-batch cost then scales with the delta, not with the
/// store.  A touched-side rerun is `O(N + OUT)` *per batch* even when the DCQ is
/// difference-linear, which only beats counting once a batch rewrites a large share
/// of the store (the recorded crossover is around `0.6·N`); it stays available for
/// callers that name it and as the adaptive policy's migration target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IncrementalStrategy {
    /// Re-run the per-side plans, restricted to the sides (partitions of the atom
    /// set) the delta batch touches; untouched batches are no-ops.  Never chosen
    /// by the planner: reachable by naming it at registration, or through the
    /// adaptive policy's migration.
    EasyRerun,
    /// Counting-based maintenance, the planner's choice for every class: maintain
    /// `|Q₁(t)|` and `|Q₂(t)|` support counts per output tuple via ℤ-annotated
    /// delta joins; a tuple enters the result when its `Q₁` count rises above zero
    /// while its `Q₂` count is zero.
    Counting,
    /// Pick per *workload*: start on the cost model's workload-prior kind (the
    /// planner's choice, counting, absent a model), track observed batch sizes
    /// ([`BatchStats`](crate::heuristics::BatchStats)), and migrate the live view
    /// between [`EasyRerun`](IncrementalStrategy::EasyRerun) and
    /// [`Counting`](IncrementalStrategy::Counting) when the measured delta
    /// fraction crosses the cost model's rerun/counting crossover
    /// ([`MaintenanceCostModel`](crate::heuristics::MaintenanceCostModel)).  The
    /// active engine at any instant is always one of the two concrete kinds.
    Adaptive,
}

impl fmt::Display for IncrementalStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IncrementalStrategy::EasyRerun => {
                "touched-side rerun (O(N + OUT) per batch; only when named by the caller)"
            }
            IncrementalStrategy::Counting => {
                "counting maintenance (support counts updated by delta joins, cost follows |Δ|)"
            }
            IncrementalStrategy::Adaptive => {
                "adaptive maintenance (rerun ↔ counting, migrated on observed delta size)"
            }
        };
        write!(f, "{s}")
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
        let why = match self.strategy {
            IncrementalStrategy::Counting => {
                "why: counting for every class — a rerun pays O(N + OUT) per batch and only \
                 wins once a batch rewrites ~0.6·N of the store (recorded crossover), which \
                 no shipped workload reaches\n"
            }
            IncrementalStrategy::EasyRerun | IncrementalStrategy::Adaptive => "",
        };
        format!(
            "maintenance: {}\n{why}{}",
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
    /// [`IncrementalStrategy::Counting`] for difference-linear and hard DCQs alike
    /// (see [`IncrementalStrategy`] for why a rerun is not the default even where
    /// it is linear).
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

    /// An [`IncrementalStrategy::Adaptive`] maintenance plan: the view starts on
    /// the engine's cost-model prior kind (falling back to the planner's choice,
    /// [`DcqPlanner::incremental_strategy_for`], i.e. counting) and is migrated
    /// online as the observed batch sizes cross the engine's cost-model crossover.
    pub fn plan_adaptive(&self, dcq: &Dcq) -> IncrementalPlan {
        let classification = classify(dcq);
        IncrementalPlan {
            strategy: IncrementalStrategy::Adaptive,
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
        assert!(plan.explain().contains("crossover"), "explain says why");
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
        assert!(format!("{}", IncrementalStrategy::Adaptive).contains("adaptive"));
    }

    #[test]
    fn adaptive_plan_keeps_the_structural_choice_recoverable() {
        let planner = DcqPlanner::smart();
        for (src, difference_linear) in [
            (
                "Q(a, b, c) :- Triple(a, b, c) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)",
                true,
            ),
            (
                "Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)",
                false,
            ),
        ] {
            let plan = planner.plan_adaptive(&parse_dcq(src).unwrap());
            assert_eq!(plan.strategy, IncrementalStrategy::Adaptive);
            assert_eq!(
                plan.classification.is_difference_linear(),
                difference_linear
            );
            assert_eq!(
                DcqPlanner::incremental_strategy_for(&plan.classification),
                IncrementalStrategy::Counting,
                "the adaptive view's starting engine is the planner's choice"
            );
            assert!(plan.explain().contains("adaptive"));
        }
    }
}
