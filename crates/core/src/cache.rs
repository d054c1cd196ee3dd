//! Prepared-plan caching keyed by query shape.
//!
//! Classifying a DCQ (GYO reductions, free-connex checks, augmented-hypergraph
//! acyclicity — [`classify`]) is pure structure: it depends only on the *shape* of
//! the query, not on variable spellings or the database.  An engine that prepares
//! the same difference query for many clients therefore classifies it exactly once
//! and serves every later preparation from a [`PlanCache`]:
//!
//! * [`QueryShapeKey`] — the canonical form of a DCQ: variables α-renamed to
//!   first-occurrence indices, relation names and atom order preserved.  Two
//!   queries that differ only in variable names (or query names) share a key.
//! * [`CachedPlan`] — the classification plus the one-shot and incremental
//!   strategies derived from it, cloned out on every hit.
//! * [`PlanCache`] — the memo table with hit/miss counters, so callers can assert
//!   "0 re-classifications" the way `dcq-engine`'s tests do.

use crate::classify::{classify, DcqClassification};
use crate::delta_plan::{build_delta_plans, CqDeltaPlans};
use crate::planner::{DcqPlan, DcqPlanner, IncrementalPlan, IncrementalStrategy, Strategy};
use crate::query::{ConjunctiveQuery, Dcq};
use dcq_storage::hash::FastHashMap;
use dcq_storage::Schema;
use std::sync::Arc;

/// The canonical shape of a DCQ: relation names and atom structure with variables
/// α-renamed to dense indices in order of first occurrence (`Q₁` head first, then
/// `Q₁` atoms, `Q₂` head, `Q₂` atoms).
///
/// Query and variable *names* do not participate, so `Q(x, y) :- R(x, y)` and
/// `P(a, b) :- R(a, b)` share a key; atom order does participate (it is part of
/// the shape the classifier sees).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryShapeKey {
    q1_head: Vec<u32>,
    q1_atoms: Vec<(String, Vec<u32>)>,
    q2_head: Vec<u32>,
    q2_atoms: Vec<(String, Vec<u32>)>,
}

impl QueryShapeKey {
    /// Canonicalize a DCQ into its shape key.
    pub fn of(dcq: &Dcq) -> Self {
        let mut ids: FastHashMap<String, u32> = FastHashMap::default();
        let mut id_of = |name: &str| -> u32 {
            if let Some(&id) = ids.get(name) {
                return id;
            }
            let id = ids.len() as u32;
            ids.insert(name.to_string(), id);
            id
        };
        let mut side = |cq: &ConjunctiveQuery| -> (Vec<u32>, Vec<(String, Vec<u32>)>) {
            let head = cq.head.iter().map(|v| id_of(v.name())).collect();
            let atoms = cq
                .atoms
                .iter()
                .map(|a| {
                    (
                        a.relation.clone(),
                        a.vars.iter().map(|v| id_of(v.name())).collect(),
                    )
                })
                .collect();
            (head, atoms)
        };
        let (q1_head, q1_atoms) = side(&dcq.q1);
        let (q2_head, q2_atoms) = side(&dcq.q2);
        QueryShapeKey {
            q1_head,
            q1_atoms,
            q2_head,
            q2_atoms,
        }
    }
}

/// The canonical shape of one **side** (CQ) of a DCQ together with its output
/// order: variables α-renamed to dense first-occurrence indices over
/// `(head, atoms)`, plus the output attributes as indices into that numbering.
///
/// This is the key of the delta-plan memo: two sides that differ only in
/// variable / query names — including sides of *distinct* DCQs, like the `Q_G5`
/// family's shared positive side — map to one entry, so their counting views
/// share one [`CqDeltaPlans`] and therefore resolve to the same shared indexes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CqShapeKey {
    head: Vec<u32>,
    atoms: Vec<(String, Vec<u32>)>,
    output: Vec<u32>,
}

impl CqShapeKey {
    /// Canonicalize a CQ (and the output order its counting state materializes)
    /// into its shape key.
    pub fn of(cq: &ConjunctiveQuery, output: &Schema) -> Self {
        let mut ids: FastHashMap<String, u32> = FastHashMap::default();
        let mut id_of = |name: &str| -> u32 {
            if let Some(&id) = ids.get(name) {
                return id;
            }
            let id = ids.len() as u32;
            ids.insert(name.to_string(), id);
            id
        };
        let head = cq.head.iter().map(|v| id_of(v.name())).collect();
        let atoms = cq
            .atoms
            .iter()
            .map(|a| {
                (
                    a.relation.clone(),
                    a.vars.iter().map(|v| id_of(v.name())).collect(),
                )
            })
            .collect();
        let output = output.attrs().iter().map(|v| id_of(v.name())).collect();
        CqShapeKey {
            head,
            atoms,
            output,
        }
    }
}

/// A memoized preparation: the dichotomy classification plus the strategies both
/// planners derive from it.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The dichotomy classification (computed once per shape).
    pub classification: DcqClassification,
    /// The one-shot evaluation strategy (Table 1).
    pub strategy: Strategy,
    /// The maintenance strategy the planner prescribes (counting, for every class).
    pub incremental: IncrementalStrategy,
}

/// Hit/miss counters of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Preparations served from the cache (no classification performed).
    pub hits: u64,
    /// Preparations that had to classify from scratch.
    pub misses: u64,
    /// Shapes currently cached.
    pub entries: usize,
    /// Delta-plan requests served from the sub-plan memo (no plan built).
    pub delta_plan_hits: u64,
    /// Delta-plan requests that had to build from scratch.
    pub delta_plan_misses: u64,
    /// CQ shapes currently in the sub-plan memo.
    pub delta_plan_entries: usize,
}

/// A memo table from [`QueryShapeKey`] to [`CachedPlan`].
///
/// The cache is planner-independent: strategy selection depends only on the
/// classification, never on the planner's single-CQ evaluator, so one cache can
/// back any number of planners.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: FastHashMap<QueryShapeKey, CachedPlan>,
    hits: u64,
    misses: u64,
    /// Sub-plan memo: α-canonical CQ shape → delta-join plans.  Shared via `Arc`
    /// so `N` counting views of one shape hold one plan object.
    delta_plans: FastHashMap<CqShapeKey, Arc<CqDeltaPlans>>,
    delta_hits: u64,
    delta_misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The cached plan for this DCQ's shape, classifying (and caching) on a miss.
    /// The boolean is `true` on a hit.
    pub fn get_or_classify(&mut self, dcq: &Dcq) -> (CachedPlan, bool) {
        let key = QueryShapeKey::of(dcq);
        if let Some(plan) = self.entries.get(&key) {
            self.hits += 1;
            return (plan.clone(), true);
        }
        self.misses += 1;
        let classification = classify(dcq);
        let plan = CachedPlan {
            strategy: DcqPlanner::strategy_for(&classification),
            incremental: DcqPlanner::incremental_strategy_for(&classification),
            classification,
        };
        self.entries.insert(key, plan.clone());
        (plan, false)
    }

    /// A one-shot [`DcqPlan`] through the cache; the boolean is `true` on a hit.
    pub fn plan(&mut self, dcq: &Dcq) -> (DcqPlan, bool) {
        let (cached, hit) = self.get_or_classify(dcq);
        (
            DcqPlan {
                strategy: cached.strategy,
                classification: cached.classification,
            },
            hit,
        )
    }

    /// An [`IncrementalPlan`] through the cache; the boolean is `true` on a hit.
    pub fn plan_incremental(&mut self, dcq: &Dcq) -> (IncrementalPlan, bool) {
        let (cached, hit) = self.get_or_classify(dcq);
        (
            IncrementalPlan {
                strategy: cached.incremental,
                classification: cached.classification,
            },
            hit,
        )
    }

    /// The delta-join plans for `cq`'s shape (producing output tuples in the
    /// attribute order of `output`), building and memoizing on a miss.  The
    /// boolean is `true` on a hit.
    ///
    /// Hits return a clone of one shared `Arc`: counting views of α-equivalent
    /// sides — of the same **or different** DCQs — share a single plan object,
    /// and through its index specs, the same shared-store indexes.
    pub fn delta_plans(
        &mut self,
        cq: &ConjunctiveQuery,
        output: &Schema,
    ) -> (Arc<CqDeltaPlans>, bool) {
        let key = CqShapeKey::of(cq, output);
        if let Some(plans) = self.delta_plans.get(&key) {
            self.delta_hits += 1;
            return (Arc::clone(plans), true);
        }
        self.delta_misses += 1;
        let plans = Arc::new(build_delta_plans(cq, output));
        self.delta_plans.insert(key, Arc::clone(&plans));
        (plans, false)
    }

    /// Hit/miss counters and current size.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.entries.len(),
            delta_plan_hits: self.delta_hits,
            delta_plan_misses: self.delta_misses,
            delta_plan_entries: self.delta_plans.len(),
        }
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry, including memoized delta plans (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.delta_plans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dcq;

    const EASY: &str = "Q(a, b, c) :- Triple(a, b, c) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)";
    const HARD: &str = "Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)";

    #[test]
    fn identical_queries_share_a_key_and_hit() {
        let mut cache = PlanCache::new();
        let dcq = parse_dcq(EASY).unwrap();
        let (first, hit) = cache.plan_incremental(&dcq);
        assert!(!hit);
        let (second, hit) = cache.plan_incremental(&parse_dcq(EASY).unwrap());
        assert!(hit);
        assert_eq!(first.strategy, second.strategy);
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                entries: 1,
                ..PlanCacheStats::default()
            }
        );
    }

    #[test]
    fn delta_plans_are_shared_across_distinct_dcq_shapes() {
        let mut cache = PlanCache::new();
        // Two *distinct* DCQs of the Q_G5 family: different closers, but the
        // positive sides are α-equivalent.
        let a = parse_dcq(
            "V0(n1, n2, n3) :- Graph(n1, n2), Graph(n2, n3) EXCEPT Graph(n2, n3), Graph(n3, n1)",
        )
        .unwrap();
        let b =
            parse_dcq("V1(a, b, c) :- Graph(a, b), Graph(b, c) EXCEPT Graph(b, c), Graph(a, c)")
                .unwrap();
        let (p1, hit1) = cache.delta_plans(&a.q1, &a.q1.head_schema());
        assert!(!hit1);
        let (p2, hit2) = cache.delta_plans(&b.q1, &b.q1.head_schema());
        assert!(hit2, "shared positive side must hit the sub-plan memo");
        assert!(Arc::ptr_eq(&p1, &p2), "hits share one plan object");
        // The negative sides differ in shape → separate entries.
        let (_, hit3) = cache.delta_plans(&a.q2, &a.q2.head_schema());
        assert!(!hit3);
        let (_, hit4) = cache.delta_plans(&b.q2, &b.q2.head_schema());
        assert!(!hit4);
        let stats = cache.stats();
        assert_eq!(stats.delta_plan_hits, 1);
        assert_eq!(stats.delta_plan_misses, 3);
        assert_eq!(stats.delta_plan_entries, 3);
        // A different output permutation of the same side is a different plan.
        let reordered = Schema::from_names(["n3", "n2", "n1"]);
        let (_, hit5) = cache.delta_plans(&a.q1, &reordered);
        assert!(!hit5, "output order is part of the sub-plan shape");
        cache.clear();
        assert_eq!(cache.stats().delta_plan_entries, 0);
    }

    #[test]
    fn alpha_equivalent_queries_share_a_key() {
        let mut cache = PlanCache::new();
        cache.get_or_classify(&parse_dcq(HARD).unwrap());
        let renamed = parse_dcq("P(u, w) :- Edge(u, w) EXCEPT Graph(u, v), Graph(v, w)").unwrap();
        let (_, hit) = cache.get_or_classify(&renamed);
        assert!(hit, "α-renamed query must reuse the cached classification");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_shapes_get_different_entries() {
        let mut cache = PlanCache::new();
        cache.get_or_classify(&parse_dcq(EASY).unwrap());
        let (_, hit) = cache.get_or_classify(&parse_dcq(HARD).unwrap());
        assert!(!hit);
        // Same relations, different variable wiring → different shape.
        let rewired = parse_dcq("Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(c, b)").unwrap();
        let (_, hit) = cache.get_or_classify(&rewired);
        assert!(!hit);
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn cached_strategies_agree_with_the_planner() {
        let mut cache = PlanCache::new();
        let planner = DcqPlanner::smart();
        for src in [EASY, HARD] {
            let dcq = parse_dcq(src).unwrap();
            let (cached_plan, _) = cache.plan(&dcq);
            assert_eq!(cached_plan.strategy, planner.plan(&dcq).strategy);
            let (cached_inc, _) = cache.plan_incremental(&dcq);
            assert_eq!(cached_inc.strategy, planner.plan_incremental(&dcq).strategy);
        }
    }
}
