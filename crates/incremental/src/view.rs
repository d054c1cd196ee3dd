//! The maintenance core of one registered DCQ, reading through a shared store.
//!
//! [`DcqView`] is the per-view state an engine keeps for every registered
//! difference query.  A view owns **no copy of the database and no private
//! indexes**: the engine owns one [`SharedDatabase`] of record, applies each
//! [`dcq_storage::DeltaBatch`] to it exactly once (maintaining the store's
//! shared index registry in the same pass), and hands the resulting
//! [`AppliedBatch`] — epoch plus *normalized* per-relation deltas — to every
//! view in turn.  The view folds the normalized deltas into its per-side
//! support counts ([`CountingCq`]), probing the store's shared indexes —
//! `O(|Δ| · fan-out)` per view, independent of `N`, with per-view state reduced
//! to the two count maps and the result membership set.
//!
//! The view records the store epoch of every offered batch — including batches
//! it skipped — so its position in the update stream is always exact.  Its
//! counting sides hold refcounted references on registry indexes; the owning
//! engine calls [`DcqView::teardown`] on deregistration to release them.
//!
//! ## Threading model
//!
//! A `DcqView` is `Send`: the owning engine fans [`DcqView::apply`] out across
//! worker threads, each worker driving a disjoint set of views against the
//! shared store (borrowed `&`, so nothing in the store can move underneath
//! them).  Pooled counting sides are behind `Arc<RwLock<…>>`; on the
//! concurrent apply path, application locks **strictly one side at a time**
//! (write to fold, read to evaluate membership — never two guards held
//! together), so views sharing sides in any overlap pattern cannot deadlock
//! however the scheduler interleaves them.  Structural mutation —
//! [`DcqView::teardown`], pool and registry bookkeeping, full result-set
//! builds — stays in the engine's sequential phases, under `&mut`
//! everything, where holding both sides' read guards is safe.

use crate::count::{CountingCq, CountingTelemetry};
use crate::pool::{CountingPool, SharedCountingCq};
use crate::{IncrementalError, Result};
use dcq_core::cache::PlanCache;
use dcq_core::planner::{IncrementalPlan, IncrementalStrategy};
use dcq_core::Dcq;
use dcq_storage::hash::{set_with_capacity, FastHashSet};
use dcq_storage::{AppliedBatch, DeltaEffect, Epoch, IdKey, Relation, Row, Schema, SharedDatabase};
use std::fmt;
use std::sync::{Arc, RwLock};

/// Running counters describing the work a maintained view has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Batches that touched at least one referenced relation.
    pub batches_applied: usize,
    /// Batches skipped because they touched no referenced relation.
    pub batches_skipped: usize,
    /// Net base tuples inserted across applied batches.
    pub tuples_inserted: usize,
    /// Net base tuples deleted across applied batches.
    pub tuples_deleted: usize,
    /// Result tuples that entered the view.
    pub result_added: usize,
    /// Result tuples that left the view.
    pub result_removed: usize,
}

/// Outcome of offering one batch to a maintained view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// `true` iff the batch touched no referenced relation (nothing was done).
    pub skipped: bool,
    /// The store epoch the view reflects after this batch (recorded even for
    /// skipped batches).
    pub epoch: Epoch,
    /// Net effect on the referenced base relations.
    pub effect: DeltaEffect,
    /// Result tuples that entered the view.
    pub result_added: usize,
    /// Result tuples that left the view.
    pub result_removed: usize,
}

/// The maintenance state of one registered DCQ over a shared store.
///
/// Built by [`DcqView::build`] against the store's current contents, then kept
/// current by feeding every [`AppliedBatch`] the store produces to
/// [`DcqView::apply`] **in order**.  The view never copies base relations; it
/// works off the normalized deltas and the store's shared indexes.
pub struct DcqView {
    dcq: Dcq,
    output: Schema,
    plan: IncrementalPlan,
    /// Support counts on both sides; result membership is
    /// `cnt₁ > 0 ∧ cnt₂ = 0`.  The sides may be pool-shared: other views with
    /// an α-equivalent side hold the same engine, and batch application is
    /// idempotent per epoch.
    q1: SharedCountingCq,
    q2: SharedCountingCq,
    /// Referenced stored relations, sorted and deduplicated.
    referenced: Vec<String>,
    /// Result membership in **id space** (packed head ids, resolved through
    /// the store's dictionary only when a caller materializes rows): the
    /// per-batch combine never hashes a [`Value`](dcq_storage::Value) and
    /// never clones a [`Row`].
    result: FastHashSet<IdKey>,
    stats: MaintenanceStats,
    epoch: Epoch,
}

impl DcqView {
    /// Build the view state for `dcq` from the store's current contents, using the
    /// given maintenance plan.
    ///
    /// The counting sides acquire shared indexes from the store's registry
    /// (hence `&mut`) and build their delta plans fresh; an engine serving many
    /// views should use [`DcqView::build_shared`] so α-equivalent sides share
    /// plans, indexes *and* maintenance work.
    pub fn build(dcq: Dcq, plan: IncrementalPlan, store: &mut SharedDatabase) -> Result<Self> {
        DcqView::build_inner(dcq, plan, store, None)
    }

    /// [`DcqView::build`] with counting sides resolved through the engine's
    /// sharing layers: delta plans through a [`PlanCache`] sub-plan memo, and
    /// whole counting sides through a [`CountingPool`] — distinct DCQs whose
    /// sides share an α-canonical shape (e.g. the `Q_G5` family's common
    /// positive side) reuse one maintained [`CountingCq`], folded once per
    /// batch no matter how many views read it.
    pub fn build_shared(
        dcq: Dcq,
        plan: IncrementalPlan,
        store: &mut SharedDatabase,
        cache: &mut PlanCache,
        pool: &mut CountingPool,
    ) -> Result<Self> {
        DcqView::build_inner(dcq, plan, store, Some((cache, pool)))
    }

    /// [`DcqView::build_shared`]; `initial` is ignored.  Kept only because
    /// `benchmark/src/sut.rs` names it; it goes when the benchmark stops
    /// naming it.
    pub fn build_shared_with_initial(
        dcq: Dcq,
        plan: IncrementalPlan,
        store: &mut SharedDatabase,
        cache: &mut PlanCache,
        pool: &mut CountingPool,
        _initial: IncrementalStrategy,
    ) -> Result<Self> {
        DcqView::build_shared(dcq, plan, store, cache, pool)
    }

    fn build_inner(
        dcq: Dcq,
        plan: IncrementalPlan,
        store: &mut SharedDatabase,
        shared: Option<(&mut PlanCache, &mut CountingPool)>,
    ) -> Result<Self> {
        dcq.validate(store.database())
            .map_err(IncrementalError::Core)?;
        let output = dcq.head_schema();

        let mut referenced: Vec<String> = dcq
            .q1
            .atoms
            .iter()
            .chain(dcq.q2.atoms.iter())
            .map(|a| a.relation.clone())
            .collect();
        referenced.sort();
        referenced.dedup();

        let (q1, q2) = DcqView::build_sides(&dcq, &output, store, shared)?;
        let mut view = DcqView {
            dcq,
            output,
            plan,
            q1,
            q2,
            referenced,
            result: FastHashSet::default(),
            stats: MaintenanceStats::default(),
            epoch: store.epoch(),
        };
        view.result = view.compute_result_set();
        Ok(view)
    }

    /// Build (or acquire from the pool) both counting sides from the store's
    /// current contents.
    fn build_sides(
        dcq: &Dcq,
        output: &Schema,
        store: &mut SharedDatabase,
        shared: Option<(&mut PlanCache, &mut CountingPool)>,
    ) -> Result<(SharedCountingCq, SharedCountingCq)> {
        match shared {
            Some((cache, pool)) => {
                let q1 = pool.acquire(dcq.q1.clone(), output.clone(), store, cache)?;
                match pool.acquire(dcq.q2.clone(), output.clone(), store, cache) {
                    Ok(q2) => Ok((q1, q2)),
                    Err(e) => {
                        // Don't leak q1's registry references on a failed
                        // build (only if nobody shares it).
                        if Arc::strong_count(&q1) == 1 {
                            q1.write().expect("side lock").release_indexes(store);
                        }
                        Err(e)
                    }
                }
            }
            None => {
                let mut q1 = CountingCq::from_store(dcq.q1.clone(), output.clone(), store)?;
                match CountingCq::from_store(dcq.q2.clone(), output.clone(), store) {
                    Ok(q2) => Ok((Arc::new(RwLock::new(q1)), Arc::new(RwLock::new(q2)))),
                    Err(e) => {
                        q1.release_indexes(store);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Derive the full result set from the side counts (registration path).
    fn compute_result_set(&self) -> FastHashSet<IdKey> {
        // Degenerate `Q − Q`: both sides are the same pooled engine, so every
        // candidate has cnt₂ = cnt₁ > 0 and the result is empty —
        // short-circuiting also avoids read-locking one RwLock twice.
        if Arc::ptr_eq(&self.q1, &self.q2) {
            return FastHashSet::default();
        }
        // Distinct sides: one filtered pass in id space under both read
        // guards.  Holding two guards is safe here — this runs exclusively in
        // the engine's sequential registration phase (`&mut` engine), where no
        // writer can queue between the two acquisitions; the apply hot path
        // keeps the strict one-lock-at-a-time discipline.
        let q1 = self.q1.read().expect("counting side lock poisoned");
        let q2 = self.q2.read().expect("counting side lock poisoned");
        q1.counts_ids()
            .keys()
            .filter(|key| q2.count_ids(key.as_slice()) == 0)
            .cloned()
            .collect()
    }

    /// Fold one applied batch into the view.
    ///
    /// `applied` must be the store's own application record, offered in epoch
    /// order; the shared store it came from is passed as `store` so the folds
    /// can probe its (already post-batch) indexes.  Batches touching no
    /// referenced relation only advance the view's epoch.
    pub fn apply(
        &mut self,
        applied: &AppliedBatch,
        store: &SharedDatabase,
    ) -> Result<BatchOutcome> {
        self.epoch = applied.epoch;
        let mut outcome = BatchOutcome {
            epoch: applied.epoch,
            ..BatchOutcome::default()
        };

        let mut relevant = false;
        for (_, delta) in applied
            .normalized
            .iter()
            .filter(|(name, _)| self.references(name))
        {
            relevant = true;
            for (_, sign) in delta {
                if *sign > 0 {
                    outcome.effect.inserted += 1;
                } else {
                    outcome.effect.deleted += 1;
                }
            }
        }
        if !relevant {
            self.stats.batches_skipped += 1;
            outcome.skipped = true;
            return Ok(outcome);
        }

        // One telescoped fold per side over the whole batch: the engines probe
        // the store's shared indexes (already reflecting the new state) and
        // compensate not-yet-folded relations from the delta.  Pool-shared
        // sides fold once per epoch — whichever sharing view's worker takes the
        // write lock first folds the batch, the rest get the memoized delta.
        // Locks are taken strictly one at a time (never nested), so views
        // sharing sides in any overlap pattern cannot deadlock across fan-out
        // workers.
        let d1 = self
            .q1
            .write()
            .expect("counting side lock poisoned")
            .apply_batch(applied, store);
        let d2 = self
            .q2
            .write()
            .expect("counting side lock poisoned")
            .apply_batch(applied, store);
        // Re-check membership of every changed head, entirely in id space: the
        // deltas are packed-id lists (shared `Arc`s, so a pooled side's fold is
        // never copied per reading view), the dedup set borrows them, and the
        // count lookups probe with the borrowed slices — no `Row` is cloned,
        // hashed or resolved.
        let mut changed: FastHashSet<&IdKey> = set_with_capacity(d1.len() + d2.len());
        changed.extend(d1.iter().map(|(key, _)| key));
        changed.extend(d2.iter().map(|(key, _)| key));
        let positive: Vec<(&IdKey, bool)> = {
            let q1 = self.q1.read().expect("counting side lock poisoned");
            changed
                .into_iter()
                .map(|key| (key, q1.count_ids(key.as_slice()) > 0))
                .collect()
        };
        let q2 = self.q2.read().expect("counting side lock poisoned");
        for (key, positive) in positive {
            let belongs = positive && q2.count_ids(key.as_slice()) == 0;
            if belongs {
                if self.result.insert(key.clone()) {
                    outcome.result_added += 1;
                }
            } else if self.result.remove(key) {
                outcome.result_removed += 1;
            }
        }

        self.stats.batches_applied += 1;
        self.stats.tuples_inserted += outcome.effect.inserted;
        self.stats.tuples_deleted += outcome.effect.deleted;
        self.stats.result_added += outcome.result_added;
        self.stats.result_removed += outcome.result_removed;
        Ok(outcome)
    }

    /// Release every shared-store resource the view holds (pool-shared sides,
    /// which hold registry index references); the view must not be offered
    /// further batches.
    ///
    /// Called by the owning engine on deregistration.  A pooled side's indexes
    /// are released only when this view is its **last** holder — both the side
    /// and the registry entries survive as long as any view still reads them.
    /// Returns the merged [`CountingTelemetry`] of every side released as its
    /// last holder, so the caller can fold the dying sides' work counters into
    /// its retired base — sides that survive (still shared) keep reporting
    /// through their remaining holders and contribute nothing here.
    pub fn teardown(&mut self, store: &mut SharedDatabase) -> CountingTelemetry {
        let mut dying = CountingTelemetry::default();
        // A degenerate `Q − Q` view holds its side twice; either way,
        // `release_indexes` drains, so it must run exactly once per side and
        // only when no other view shares it.  The strong counts are reliable
        // here: teardown only runs in the engine's sequential phases, where no
        // worker concurrently clones or drops side handles.
        let holders = if Arc::ptr_eq(&self.q1, &self.q2) {
            2
        } else {
            1
        };
        for side in self.sides() {
            if Arc::strong_count(side) == holders {
                let mut side = side.write().expect("counting side lock poisoned");
                dying.merge(&side.telemetry());
                side.release_indexes(store);
            }
        }
        dying
    }

    /// The maintained DCQ.
    pub fn dcq(&self) -> &Dcq {
        &self.dcq
    }

    /// The maintenance plan (strategy + dichotomy classification).
    pub fn plan(&self) -> &IncrementalPlan {
        &self.plan
    }

    /// The maintenance strategy of the plan this view was registered with.
    pub fn strategy(&self) -> IncrementalStrategy {
        self.plan.strategy
    }

    /// Human-readable explanation of the maintenance choice.
    pub fn explain(&self) -> String {
        self.plan.explain()
    }

    /// The stored relations this view references, sorted.
    pub fn referenced(&self) -> &[String] {
        &self.referenced
    }

    /// `true` iff the view references the stored relation `name`.
    pub fn references(&self, name: &str) -> bool {
        self.referenced
            .binary_search_by(|r| r.as_str().cmp(name))
            .is_ok()
    }

    /// The store epoch the view currently reflects.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of tuples currently in the result.
    pub fn len(&self) -> usize {
        self.result.len()
    }

    /// `true` iff the result is currently empty.
    pub fn is_empty(&self) -> bool {
        self.result.is_empty()
    }

    /// `true` iff `row` is currently in the result.
    ///
    /// The row is translated through `store`'s dictionary; a row containing a
    /// never-interned value cannot be a result tuple.
    pub fn contains(&self, row: &Row, store: &SharedDatabase) -> bool {
        let mut ids = Vec::with_capacity(row.arity());
        store.lookup_ids(row, &mut ids) && self.result.contains(&ids[..])
    }

    /// The current result membership set, as packed head ids (resolve through
    /// the store's dictionary to materialize rows).
    pub fn result_ids(&self) -> &FastHashSet<IdKey> {
        &self.result
    }

    /// Materialize the current result as a relation (distinct by construction),
    /// resolving the id-space membership set through `store`'s dictionary.
    pub fn result(&self, store: &SharedDatabase) -> Relation {
        let mut rel = Relation::new(
            format!("{}−{}", self.dcq.q1.name, self.dcq.q2.name),
            self.output.clone(),
        );
        rel.reserve(self.result.len());
        for key in &self.result {
            rel.push_unchecked(store.resolve_row(key.as_slice()));
        }
        rel.assume_distinct();
        rel
    }

    /// Work counters.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// Split each counting side's telescoped folds into `partitions`
    /// hash-disjoint partitions (clamped to at least 1).  Purely a scheduling
    /// knob — results, stats and telemetry counters are bit-identical at any
    /// value — so pushing it onto a pool-shared side is safe even while other
    /// views read that side.  Locks strictly one side at a time (same
    /// discipline as the apply path).
    pub fn set_fold_partitions(&mut self, partitions: usize) {
        for side in self.sides() {
            side.write()
                .expect("counting side lock poisoned")
                .set_fold_partitions(partitions);
        }
    }

    /// The view's distinct counting sides: a degenerate `Q − Q` view holds its
    /// single side once.
    fn sides(&self) -> impl Iterator<Item = &SharedCountingCq> {
        let q2 = (!Arc::ptr_eq(&self.q1, &self.q2)).then_some(&self.q2);
        std::iter::once(&self.q1).chain(q2)
    }

    /// Wall-clock nanoseconds each fold partition of this view's counting
    /// sides spent in their most recent owned fold, keyed by side identity
    /// (the shared `Arc`'s address) for cross-view deduplication, like
    /// [`DcqView::counting_telemetry`].  A skew diagnostic — **not** part of
    /// the deterministic surface.
    pub fn fold_partition_ns(&self) -> Vec<(usize, Vec<u64>)> {
        self.sides()
            .map(|side| {
                let ns = side
                    .read()
                    .expect("counting side lock poisoned")
                    .last_partition_ns()
                    .to_vec();
                (Arc::as_ptr(side) as usize, ns)
            })
            .collect()
    }

    /// Telemetry of the counting sides this view holds, keyed by side identity
    /// (the shared `Arc`'s address) so a caller aggregating across many views
    /// can deduplicate pool-shared sides instead of double-counting them.
    pub fn counting_telemetry(&self) -> Vec<(usize, CountingTelemetry)> {
        self.sides()
            .map(|side| {
                let telemetry = side
                    .read()
                    .expect("counting side lock poisoned")
                    .telemetry();
                (Arc::as_ptr(side) as usize, telemetry)
            })
            .collect()
    }
}

impl fmt::Debug for DcqView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DcqView[{} | {} | {} tuples | epoch {}]",
            self.dcq,
            self.plan.strategy,
            self.result.len(),
            self.epoch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcq_core::baseline::{baseline_dcq, CqStrategy};
    use dcq_core::parse::parse_dcq;
    use dcq_core::planner::DcqPlanner;
    use dcq_storage::row::int_row;
    use dcq_storage::{Database, DeltaBatch, Relation};

    fn store() -> SharedDatabase {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![
                vec![1, 2],
                vec![2, 3],
                vec![3, 1],
                vec![2, 4],
                vec![4, 1],
                vec![4, 5],
            ],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Triple",
            &["a", "b", "c"],
            vec![vec![1, 2, 3], vec![2, 3, 1], vec![2, 4, 1], vec![7, 8, 9]],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Edge",
            &["src", "dst"],
            vec![vec![1, 3], vec![2, 4]],
        ))
        .unwrap();
        db.add(Relation::from_int_rows("Other", &["k"], vec![vec![1]]))
            .unwrap();
        SharedDatabase::new(db)
    }

    const EASY: &str = "Q(a, b, c) :- Triple(a, b, c) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)";
    const HARD: &str = "Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)";

    fn build(src: &str, store: &mut SharedDatabase) -> DcqView {
        let dcq = parse_dcq(src).unwrap();
        let plan = DcqPlanner::smart().plan_incremental(&dcq);
        DcqView::build(dcq, plan, store).unwrap()
    }

    #[test]
    fn views_follow_the_store_and_match_recomputation() {
        let mut store = store();
        let mut easy = build(EASY, &mut store);
        let mut hard = build(HARD, &mut store);
        assert_eq!(easy.strategy(), IncrementalStrategy::Counting);
        assert_eq!(hard.strategy(), IncrementalStrategy::Counting);
        assert!(easy.references("Graph") && !easy.references("Other"));
        assert_eq!(
            easy.referenced(),
            &["Graph".to_string(), "Triple".to_string()]
        );

        let batches = vec![
            {
                let mut b = DeltaBatch::new();
                b.insert("Triple", int_row([5, 6, 7]));
                b
            },
            {
                let mut b = DeltaBatch::new();
                b.insert("Graph", int_row([7, 8]));
                b.insert("Graph", int_row([8, 9]));
                b.insert("Graph", int_row([9, 7]));
                b.delete("Triple", int_row([2, 4, 1]));
                b
            },
            {
                let mut b = DeltaBatch::new();
                b.delete("Graph", int_row([2, 3]));
                b.insert("Other", int_row([5]));
                b
            },
        ];
        for batch in &batches {
            let applied = store.apply_batch(batch).unwrap();
            for view in [&mut easy, &mut hard] {
                let outcome = view.apply(&applied, &store).unwrap();
                assert_eq!(outcome.epoch, store.epoch());
                assert_eq!(view.epoch(), store.epoch());
                let expected =
                    baseline_dcq(view.dcq(), store.database(), CqStrategy::Vanilla).unwrap();
                assert_eq!(
                    view.result(&store).sorted_rows(),
                    expected.sorted_rows(),
                    "view diverged after {batch}"
                );
            }
        }
        assert_eq!(easy.stats().batches_applied, 3);
        // The first batch only touched Triple, which the hard view does not read.
        assert_eq!(hard.stats().batches_skipped, 1);
        assert_eq!(hard.stats().batches_applied, 2);
        assert_eq!(hard.epoch(), 3);
    }

    #[test]
    fn irrelevant_batches_advance_the_epoch_only() {
        let mut store = store();
        let mut view = build(EASY, &mut store);
        let before = view.result(&store).sorted_rows();
        let mut batch = DeltaBatch::new();
        batch.insert("Other", int_row([42]));
        let applied = store.apply_batch(&batch).unwrap();
        let outcome = view.apply(&applied, &store).unwrap();
        assert!(outcome.skipped);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.result(&store).sorted_rows(), before);
        assert_eq!(view.stats().batches_skipped, 1);
        assert_eq!(view.stats().batches_applied, 0);
    }

    #[test]
    fn counting_views_share_and_release_registry_indexes() {
        let mut store = store();
        let mut a = build(HARD, &mut store);
        assert_eq!(a.strategy(), IncrementalStrategy::Counting);
        let shared_indexes = store.index_count();
        assert!(shared_indexes > 0, "counting views acquire shared indexes");
        // A second view of the same shape reuses the same physical indexes.
        let mut b = build(HARD, &mut store);
        assert_eq!(store.index_count(), shared_indexes);
        b.teardown(&mut store);
        assert_eq!(store.index_count(), shared_indexes);
        a.teardown(&mut store);
        assert_eq!(store.index_count(), 0, "last teardown frees the registry");
    }

    #[test]
    fn views_are_send_for_fan_out_workers() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<DcqView>();
        assert_sync::<DcqView>();
        assert_sync::<SharedDatabase>();
        assert_sync::<AppliedBatch>();
    }

    #[test]
    fn result_accessors_and_debug() {
        let mut store = store();
        let view = build(EASY, &mut store);
        assert_eq!(view.len(), view.result(&store).len());
        assert!(!view.is_empty());
        assert!(view.contains(&int_row([7, 8, 9]), &store));
        assert_eq!(view.result_ids().len(), view.len());
        assert!(!view.contains(&int_row([1, 2, 3]), &store));
        // A row holding a value the dictionary has never seen cannot belong.
        assert!(!view.contains(&int_row([999_999, 0, 0]), &store));
        assert!(format!("{view:?}").contains("DcqView"));
        assert!(view.explain().contains("counting maintenance"));
        assert_eq!(view.plan().strategy, view.strategy());
        assert_eq!(view.epoch(), 0);
    }
}
