//! The maintenance core of one registered DCQ, reading through a shared store.
//!
//! [`DcqView`] is the per-view state an engine keeps for every registered
//! difference query.  A view owns **no copy of the database and no private
//! indexes**: the engine owns one [`SharedDatabase`] of record, applies each
//! [`dcq_storage::DeltaBatch`] to it exactly once (maintaining the store's
//! shared index registry in the same pass), and hands the resulting
//! [`AppliedBatch`] — epoch plus *normalized* per-relation deltas — to every
//! view in turn:
//!
//! * **counting views** (the planner's choice for every DCQ class) fold the
//!   normalized deltas into their per-side support counts ([`CountingCq`]),
//!   probing the store's shared indexes — `O(|Δ| · fan-out)` per view,
//!   independent of `N`, with per-view state reduced to the two count maps;
//! * **rerun views** (only when a caller names [`IncrementalStrategy::EasyRerun`]
//!   or the adaptive policy migrates there) re-evaluate only the sides whose
//!   relations the batch effectively changed, directly against the shared store.
//!
//! Either way the view records the store epoch of every offered batch — including
//! batches it skipped — so its position in the update stream is always exact.
//! Counting views hold refcounted references on registry indexes; the owning
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
//! [`DcqView::migrate`], [`DcqView::teardown`], pool and registry bookkeeping,
//! full result-set rebuilds — stays in the engine's sequential phases, under
//! `&mut` everything, where holding both sides' read guards is safe.

use crate::count::{CountingCq, CountingTelemetry};
use crate::pool::{CountingPool, SharedCountingCq};
use crate::{IncrementalError, Result};
use dcq_core::baseline::{evaluate_cq, CqStrategy};
use dcq_core::cache::PlanCache;
use dcq_core::planner::{DcqPlanner, IncrementalPlan, IncrementalStrategy};
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
    /// Side re-evaluations performed (touched-side rerun strategy only).
    pub side_recomputes: usize,
    /// Live strategy migrations performed ([`DcqView::migrate`]).
    pub migrations: usize,
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

/// The per-strategy maintenance machinery.
enum ViewState {
    /// Support counts on both sides; result membership is `cnt₁ > 0 ∧ cnt₂ = 0`.
    /// The sides are pool-shared: other views with an α-equivalent side hold
    /// the same engine, and batch application is idempotent per epoch.
    Counting {
        q1: SharedCountingCq,
        q2: SharedCountingCq,
    },
    /// Materialized side outputs; a batch re-runs only the sides whose relations
    /// it effectively changed, evaluating against the shared store.
    EasyRerun(Box<EasyRerunState>),
}

/// State of the touched-side rerun engine.
struct EasyRerunState {
    q1_out: Relation,
    q2_out: Relation,
    q1_relations: FastHashSet<String>,
    q2_relations: FastHashSet<String>,
    cq_strategy: CqStrategy,
}

/// The maintenance state of one registered DCQ over a shared store.
///
/// Built by [`DcqView::build`] against the store's current contents, then kept
/// current by feeding every [`AppliedBatch`] the store produces to
/// [`DcqView::apply`] **in order**.  The view never copies base relations; it
/// reads the store at build/rerun time and otherwise works off the normalized
/// deltas.
pub struct DcqView {
    dcq: Dcq,
    output: Schema,
    plan: IncrementalPlan,
    state: ViewState,
    /// The engine kind currently running (always `EasyRerun` or `Counting`):
    /// equal to `plan.strategy` for concrete plans; for
    /// [`IncrementalStrategy::Adaptive`] plans initially the caller's prior
    /// kind (falling back to the planner's choice, counting), then whatever
    /// [`DcqView::migrate`] last switched to.
    active: IncrementalStrategy,
    /// Referenced stored relations, sorted and deduplicated.
    referenced: Vec<String>,
    /// Result membership in **id space** (packed head ids, resolved through
    /// the store's dictionary only when a caller materializes rows): the
    /// per-batch combine never hashes a [`Value`](dcq_storage::Value) and
    /// never clones a [`Row`].
    result: FastHashSet<IdKey>,
    stats: MaintenanceStats,
    /// Telemetry folded in from counting sides this view released as their
    /// **last** holder (strategy migrations away from counting).  Keeps the
    /// view's cumulative work counters monotone across migrations: totals are
    /// `retired + live sides` (the engine applies the same scheme one level up
    /// for deregistered views).
    retired: CountingTelemetry,
    /// Fold partition count pushed onto this view's counting sides (and
    /// re-pushed onto any side a migration builds or acquires).  A pure
    /// scheduling knob — see [`CountingCq::fold_partitions`].
    fold_partitions: usize,
    epoch: Epoch,
}

impl DcqView {
    /// Build the view state for `dcq` from the store's current contents, using the
    /// given maintenance plan.
    ///
    /// Counting views acquire shared indexes from the store's registry (hence
    /// `&mut`) and build their delta plans fresh; an engine serving many views
    /// should use [`DcqView::build_shared`] so α-equivalent sides share plans,
    /// indexes *and* maintenance work.
    pub fn build(dcq: Dcq, plan: IncrementalPlan, store: &mut SharedDatabase) -> Result<Self> {
        DcqView::build_inner(dcq, plan, store, None, None)
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
        DcqView::build_inner(dcq, plan, store, Some((cache, pool)), None)
    }

    /// [`DcqView::build_shared`] with an explicit initial engine kind for
    /// [`IncrementalStrategy::Adaptive`] plans (the engine passes its cost
    /// model's workload-prior choice); ignored for concrete plans.  Building
    /// directly on the right kind beats starting structurally and migrating a
    /// few batches in — long-lived maintenance state built mid-stream probes
    /// measurably slower than state built in one piece at registration.
    pub fn build_shared_with_initial(
        dcq: Dcq,
        plan: IncrementalPlan,
        store: &mut SharedDatabase,
        cache: &mut PlanCache,
        pool: &mut CountingPool,
        initial: IncrementalStrategy,
    ) -> Result<Self> {
        DcqView::build_inner(dcq, plan, store, Some((cache, pool)), Some(initial))
    }

    fn build_inner(
        dcq: Dcq,
        plan: IncrementalPlan,
        store: &mut SharedDatabase,
        shared: Option<(&mut PlanCache, &mut CountingPool)>,
        initial: Option<IncrementalStrategy>,
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

        // An adaptive plan starts on the caller's initial kind (the engine's
        // cost-model prior) or, absent one, the planner's choice (counting);
        // the engine's policy loop migrates the view as batch statistics
        // accrue.
        let active = match plan.strategy {
            IncrementalStrategy::Adaptive => match initial {
                Some(IncrementalStrategy::Adaptive) | None => {
                    DcqPlanner::incremental_strategy_for(&plan.classification)
                }
                Some(concrete) => concrete,
            },
            concrete => concrete,
        };
        let state = DcqView::build_state(&dcq, &output, active, store, shared)?;

        let mut view = DcqView {
            dcq,
            output,
            plan,
            state,
            active,
            referenced,
            result: FastHashSet::default(),
            stats: MaintenanceStats::default(),
            retired: CountingTelemetry::default(),
            fold_partitions: 1,
            epoch: store.epoch(),
        };
        view.result = view.compute_result_set(store)?;
        Ok(view)
    }

    /// Build the maintenance machinery of one concrete engine kind from the
    /// store's current contents (registration and migration both land here).
    fn build_state(
        dcq: &Dcq,
        output: &Schema,
        active: IncrementalStrategy,
        store: &mut SharedDatabase,
        shared: Option<(&mut PlanCache, &mut CountingPool)>,
    ) -> Result<ViewState> {
        match active {
            IncrementalStrategy::Counting => {
                let (q1, q2) = match shared {
                    Some((cache, pool)) => {
                        let q1 = pool.acquire(dcq.q1.clone(), output.clone(), store, cache)?;
                        let q2 = match pool.acquire(dcq.q2.clone(), output.clone(), store, cache) {
                            Ok(q2) => q2,
                            Err(e) => {
                                // Don't leak q1's registry references on a
                                // failed build (only if nobody shares it).
                                if Arc::strong_count(&q1) == 1 {
                                    q1.write().expect("side lock").release_indexes(store);
                                }
                                return Err(e);
                            }
                        };
                        (q1, q2)
                    }
                    None => {
                        let mut q1 = CountingCq::from_store(dcq.q1.clone(), output.clone(), store)?;
                        let q2 = match CountingCq::from_store(dcq.q2.clone(), output.clone(), store)
                        {
                            Ok(q2) => q2,
                            Err(e) => {
                                q1.release_indexes(store);
                                return Err(e);
                            }
                        };
                        (Arc::new(RwLock::new(q1)), Arc::new(RwLock::new(q2)))
                    }
                };
                Ok(ViewState::Counting { q1, q2 })
            }
            IncrementalStrategy::EasyRerun => {
                let cq_strategy = CqStrategy::Smart;
                let q1_out = evaluate_cq(&dcq.q1, store.database(), cq_strategy)
                    .map_err(IncrementalError::Core)?;
                let q2_out = evaluate_cq(&dcq.q2, store.database(), cq_strategy)
                    .map_err(IncrementalError::Core)?;
                Ok(ViewState::EasyRerun(Box::new(EasyRerunState {
                    q1_out,
                    q2_out,
                    q1_relations: dcq.q1.atoms.iter().map(|a| a.relation.clone()).collect(),
                    q2_relations: dcq.q2.atoms.iter().map(|a| a.relation.clone()).collect(),
                    cq_strategy,
                })))
            }
            IncrementalStrategy::Adaptive => {
                unreachable!("callers resolve Adaptive to a concrete kind first")
            }
        }
    }

    /// Derive the full result set from the engine state (registration path).
    fn compute_result_set(&mut self, store: &SharedDatabase) -> Result<FastHashSet<IdKey>> {
        match &mut self.state {
            ViewState::Counting { q1, q2 } => {
                // Degenerate `Q − Q`: both sides are the same pooled engine, so
                // every candidate has cnt₂ = cnt₁ > 0 and the result is empty —
                // short-circuiting also avoids read-locking one RwLock twice.
                if Arc::ptr_eq(q1, q2) {
                    return Ok(FastHashSet::default());
                }
                // Distinct sides: one filtered pass in id space under both read
                // guards.  Holding two guards is safe here — this runs
                // exclusively in the engine's sequential phases
                // (registration/migration, `&mut` engine), where no writer can
                // queue between the two acquisitions; the apply hot path keeps
                // the strict one-lock-at-a-time discipline.
                let q1 = q1.read().expect("counting side lock poisoned");
                let q2 = q2.read().expect("counting side lock poisoned");
                Ok(q1
                    .counts_ids()
                    .keys()
                    .filter(|key| q2.count_ids(key.as_slice()) == 0)
                    .cloned()
                    .collect())
            }
            ViewState::EasyRerun(state) => {
                let diff = state
                    .q1_out
                    .minus(&state.q2_out)
                    .map_err(IncrementalError::Storage)?;
                Ok(rows_to_id_set(diff.rows().iter(), diff.len(), store))
            }
        }
    }

    /// Fold one applied batch into the view.
    ///
    /// `applied` must be the store's own application record, offered in epoch
    /// order; the shared store it came from is passed as `store` so rerun views
    /// can re-evaluate touched sides.  Batches touching no referenced relation
    /// only advance the view's epoch.
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

        let relevant: Vec<&(String, Vec<(Row, i64)>)> = applied
            .normalized
            .iter()
            .filter(|(name, _)| self.references(name))
            .collect();
        if relevant.is_empty() {
            self.stats.batches_skipped += 1;
            outcome.skipped = true;
            return Ok(outcome);
        }

        // Relations whose *normalized* delta was non-empty (redundant operations
        // normalize away and must not trigger side recomputation).
        let mut effective: FastHashSet<&String> = FastHashSet::default();
        for (name, delta) in &relevant {
            if delta.is_empty() {
                continue;
            }
            effective.insert(name);
            for (_, sign) in delta {
                if *sign > 0 {
                    outcome.effect.inserted += 1;
                } else {
                    outcome.effect.deleted += 1;
                }
            }
        }

        match &mut self.state {
            ViewState::Counting { q1, q2 } => {
                // One telescoped fold per side over the whole batch: the engines
                // probe the store's shared indexes (already reflecting the new
                // state) and compensate not-yet-folded relations from the delta.
                // Pool-shared sides fold once per epoch — whichever sharing
                // view's worker takes the write lock first folds the batch, the
                // rest get the memoized delta.  Locks are taken strictly one at
                // a time (never nested), so views sharing sides in any overlap
                // pattern cannot deadlock across fan-out workers.
                let d1 = q1
                    .write()
                    .expect("counting side lock poisoned")
                    .apply_batch(applied, store);
                let d2 = q2
                    .write()
                    .expect("counting side lock poisoned")
                    .apply_batch(applied, store);
                // Re-check membership of every changed head, entirely in id
                // space: the deltas are packed-id lists (shared `Arc`s, so a
                // pooled side's fold is never copied per reading view), the
                // dedup set borrows them, and the count lookups probe with the
                // borrowed slices — no `Row` is cloned, hashed or resolved.
                let mut changed: FastHashSet<&IdKey> = set_with_capacity(d1.len() + d2.len());
                changed.extend(d1.iter().map(|(key, _)| key));
                changed.extend(d2.iter().map(|(key, _)| key));
                let positive: Vec<(&IdKey, bool)> = {
                    let q1 = q1.read().expect("counting side lock poisoned");
                    changed
                        .into_iter()
                        .map(|key| (key, q1.count_ids(key.as_slice()) > 0))
                        .collect()
                };
                let q2 = q2.read().expect("counting side lock poisoned");
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
            }
            ViewState::EasyRerun(state) => {
                if outcome.effect.total() > 0 {
                    let q1_touched = effective.iter().any(|r| state.q1_relations.contains(*r));
                    let q2_touched = effective.iter().any(|r| state.q2_relations.contains(*r));
                    if q1_touched {
                        state.q1_out =
                            evaluate_cq(&self.dcq.q1, store.database(), state.cq_strategy)
                                .map_err(IncrementalError::Core)?;
                        self.stats.side_recomputes += 1;
                    }
                    if q2_touched {
                        state.q2_out =
                            evaluate_cq(&self.dcq.q2, store.database(), state.cq_strategy)
                                .map_err(IncrementalError::Core)?;
                        self.stats.side_recomputes += 1;
                    }
                    if q1_touched || q2_touched {
                        let diff = state
                            .q1_out
                            .minus(&state.q2_out)
                            .map_err(IncrementalError::Storage)?;
                        let fresh = rows_to_id_set(diff.rows().iter(), diff.len(), store);
                        outcome.result_added +=
                            fresh.iter().filter(|k| !self.result.contains(*k)).count();
                        outcome.result_removed +=
                            self.result.iter().filter(|k| !fresh.contains(*k)).count();
                        self.result = fresh;
                    }
                }
            }
        }

        self.stats.batches_applied += 1;
        self.stats.tuples_inserted += outcome.effect.inserted;
        self.stats.tuples_deleted += outcome.effect.deleted;
        self.stats.result_added += outcome.result_added;
        self.stats.result_removed += outcome.result_removed;
        Ok(outcome)
    }

    /// Release every shared-store resource the view holds (counting views hold
    /// pool-shared sides, which hold registry index references); the view must
    /// not be offered further batches.
    ///
    /// Called by the owning engine on deregistration.  A pooled side's indexes
    /// are released only when this view is its **last** holder — both the side
    /// and the registry entries survive as long as any view still reads them.
    pub fn teardown(&mut self, store: &mut SharedDatabase) {
        let dying = DcqView::release_state(&mut self.state, store);
        self.retired.merge(&dying);
    }

    /// Release the shared-store resources one [`ViewState`] holds (teardown and
    /// migration both land here).  Rerun state owns nothing shared.  Returns
    /// the merged [`CountingTelemetry`] of every side released as its last
    /// holder, so the caller can fold the dying sides' work counters into its
    /// `retired` base — sides that survive (still shared) keep reporting
    /// through their remaining holders and contribute nothing here.
    fn release_state(state: &mut ViewState, store: &mut SharedDatabase) -> CountingTelemetry {
        let mut dying = CountingTelemetry::default();
        if let ViewState::Counting { q1, q2 } = state {
            let same = Arc::ptr_eq(q1, q2);
            // A degenerate `Q − Q` view holds its side twice; either way,
            // `release_indexes` drains, so it must run exactly once per side
            // and only when no other view shares it.  The strong counts are
            // reliable here: teardown and migration only run in the engine's
            // sequential phases, where no worker concurrently clones or drops
            // side handles.
            let q1_holders = if same { 2 } else { 1 };
            if Arc::strong_count(q1) == q1_holders {
                let mut side = q1.write().expect("counting side lock poisoned");
                dying.merge(&side.telemetry());
                side.release_indexes(store);
            }
            if !same && Arc::strong_count(q2) == 1 {
                let mut side = q2.write().expect("counting side lock poisoned");
                dying.merge(&side.telemetry());
                side.release_indexes(store);
            }
        }
        dying
    }

    /// Switch the view's live maintenance machinery to `target` at the current
    /// store epoch: build the target engine's state from the shared store
    /// (counting sides resolved through the pool, so an α-equivalent side
    /// already maintained by another view is *shared*, not rebuilt), atomically
    /// swap it in, and release the old engine's pooled sides and registry index
    /// references (each freed only when this view was its last holder).
    ///
    /// Returns `false` when `target` is already active (no work done).
    /// `IncrementalStrategy::Adaptive` as a target means "the planner's
    /// choice", i.e. counting.  Migration never changes the result: the rebuilt
    /// state derives the identical membership set from the same store epoch
    /// (asserted in debug builds, and what `tests/adaptive_migration.rs` pins
    /// down release-mode too).
    pub fn migrate(
        &mut self,
        target: IncrementalStrategy,
        store: &mut SharedDatabase,
        cache: &mut PlanCache,
        pool: &mut CountingPool,
    ) -> Result<bool> {
        let target = match target {
            IncrementalStrategy::Adaptive => {
                DcqPlanner::incremental_strategy_for(&self.plan.classification)
            }
            concrete => concrete,
        };
        if target == self.active {
            return Ok(false);
        }
        // Build first, release after: a failed build leaves the view untouched.
        let fresh =
            DcqView::build_state(&self.dcq, &self.output, target, store, Some((cache, pool)))?;
        let mut old = std::mem::replace(&mut self.state, fresh);
        let dying = DcqView::release_state(&mut old, store);
        self.retired.merge(&dying);
        drop(old);
        self.active = target;
        // Freshly built (or pool-acquired) counting sides inherit the view's
        // partitioning, so a mid-stream migration keeps the configured fold
        // schedule without the engine having to re-push it.
        DcqView::push_fold_partitions(&self.state, self.fold_partitions);
        self.stats.migrations += 1;
        let rebuilt = self.compute_result_set(store)?;
        debug_assert_eq!(
            rebuilt, self.result,
            "migration must preserve the result set exactly"
        );
        self.result = rebuilt;
        Ok(true)
    }

    /// The maintained DCQ.
    pub fn dcq(&self) -> &Dcq {
        &self.dcq
    }

    /// The maintenance plan (strategy + dichotomy classification).
    pub fn plan(&self) -> &IncrementalPlan {
        &self.plan
    }

    /// The *declared* maintenance strategy of the plan this view was registered
    /// with (`Adaptive` for policy-managed views); see
    /// [`DcqView::active_strategy`] for the engine kind actually running.
    pub fn strategy(&self) -> IncrementalStrategy {
        self.plan.strategy
    }

    /// The concrete engine kind currently maintaining the view — always
    /// [`IncrementalStrategy::EasyRerun`] or [`IncrementalStrategy::Counting`],
    /// equal to [`DcqView::strategy`] for non-adaptive views.
    pub fn active_strategy(&self) -> IncrementalStrategy {
        self.active
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

    /// Telemetry folded in from counting sides this view released as their
    /// last holder (migrations away from counting, and teardown).  Add this to
    /// the live [`DcqView::counting_telemetry`] sides for the view's full
    /// cumulative work; sides still shared with other views at release time are
    /// **not** folded here — they keep reporting through their survivors.
    pub fn retired_counting_telemetry(&self) -> CountingTelemetry {
        self.retired
    }

    /// Split each counting side's telescoped folds into `partitions`
    /// hash-disjoint partitions (clamped to at least 1).  Purely a scheduling
    /// knob — results, stats and telemetry counters are bit-identical at any
    /// value — so pushing it onto a pool-shared side is safe even while other
    /// views read that side.  Rerun views ignore it (but remember it, in case
    /// a migration later builds counting sides).
    pub fn set_fold_partitions(&mut self, partitions: usize) {
        self.fold_partitions = partitions.max(1);
        DcqView::push_fold_partitions(&self.state, self.fold_partitions);
    }

    /// The configured fold partition count.
    pub fn fold_partitions(&self) -> usize {
        self.fold_partitions
    }

    /// Apply a partition count to whatever counting sides `state` holds,
    /// locking strictly one side at a time (same discipline as the apply path).
    fn push_fold_partitions(state: &ViewState, partitions: usize) {
        if let ViewState::Counting { q1, q2 } = state {
            q1.write()
                .expect("counting side lock poisoned")
                .set_fold_partitions(partitions);
            if !Arc::ptr_eq(q1, q2) {
                q2.write()
                    .expect("counting side lock poisoned")
                    .set_fold_partitions(partitions);
            }
        }
    }

    /// Wall-clock nanoseconds each fold partition of this view's counting
    /// sides spent in their most recent owned fold, keyed by side identity
    /// (the shared `Arc`'s address) for cross-view deduplication, like
    /// [`DcqView::counting_telemetry`].  A skew diagnostic — **not** part of
    /// the deterministic surface.  Empty for rerun views.
    pub fn fold_partition_ns(&self) -> Vec<(usize, Vec<u64>)> {
        match &self.state {
            ViewState::Counting { q1, q2 } => {
                let mut sides = vec![(
                    Arc::as_ptr(q1) as usize,
                    q1.read()
                        .expect("counting side lock poisoned")
                        .last_partition_ns()
                        .to_vec(),
                )];
                if !Arc::ptr_eq(q1, q2) {
                    sides.push((
                        Arc::as_ptr(q2) as usize,
                        q2.read()
                            .expect("counting side lock poisoned")
                            .last_partition_ns()
                            .to_vec(),
                    ));
                }
                sides
            }
            ViewState::EasyRerun(_) => Vec::new(),
        }
    }

    /// Telemetry of the counting sides this view holds, keyed by side identity
    /// (the shared `Arc`'s address) so a caller aggregating across many views
    /// can deduplicate pool-shared sides instead of double-counting them.
    /// Empty for rerun views; a degenerate `Q − Q` view reports its single
    /// side once.
    pub fn counting_telemetry(&self) -> Vec<(usize, CountingTelemetry)> {
        match &self.state {
            ViewState::Counting { q1, q2 } => {
                let mut sides = vec![(
                    Arc::as_ptr(q1) as usize,
                    q1.read().expect("counting side lock poisoned").telemetry(),
                )];
                if !Arc::ptr_eq(q1, q2) {
                    sides.push((
                        Arc::as_ptr(q2) as usize,
                        q2.read().expect("counting side lock poisoned").telemetry(),
                    ));
                }
                sides
            }
            ViewState::EasyRerun(_) => Vec::new(),
        }
    }
}

/// Translate row-space result tuples into an id-space membership set.
///
/// Every value in a query output is a projection of stored rows, and the
/// store's dictionary is append-only, so the lookup cannot fail for rows a
/// rerun actually produced (asserted in debug builds; a row that genuinely
/// contains a never-interned value cannot be a result and is dropped).
fn rows_to_id_set<'a>(
    rows: impl Iterator<Item = &'a Row>,
    hint: usize,
    store: &SharedDatabase,
) -> FastHashSet<IdKey> {
    let mut out = set_with_capacity(hint);
    let mut ids = Vec::new();
    for row in rows {
        let interned = store.lookup_ids(row, &mut ids);
        debug_assert!(interned, "result row {row} holds a never-interned value");
        if interned {
            out.insert(IdKey::from_slice(&ids));
        }
    }
    out
}

impl fmt::Debug for DcqView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DcqView[{} | {} | {} tuples | epoch {}]",
            self.dcq,
            self.active,
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

    /// The rerun arm is never the planner's choice; tests name it.
    fn build_rerun(src: &str, store: &mut SharedDatabase) -> DcqView {
        let dcq = parse_dcq(src).unwrap();
        let mut plan = DcqPlanner::smart().plan_incremental(&dcq);
        plan.strategy = IncrementalStrategy::EasyRerun;
        DcqView::build(dcq, plan, store).unwrap()
    }

    #[test]
    fn views_follow_the_store_and_match_recomputation() {
        let mut store = store();
        let mut easy = build(EASY, &mut store);
        let mut rerun = build_rerun(EASY, &mut store);
        let mut hard = build(HARD, &mut store);
        assert_eq!(easy.strategy(), IncrementalStrategy::Counting);
        assert_eq!(rerun.strategy(), IncrementalStrategy::EasyRerun);
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
            for view in [&mut easy, &mut rerun, &mut hard] {
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
        assert_eq!(
            easy.stats().side_recomputes,
            0,
            "counting never reruns a side"
        );
        assert_eq!(rerun.stats().batches_applied, 3);
        assert!(rerun.stats().side_recomputes > 0);
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
        // Tearing down a rerun view is a no-op.
        let mut easy = build_rerun(EASY, &mut store);
        easy.teardown(&mut store);
        assert_eq!(store.index_count(), 0);
    }

    #[test]
    fn migration_preserves_results_and_frees_shared_state() {
        let mut store = store();
        let mut cache = PlanCache::new();
        let mut pool = CountingPool::new();
        let dcq = parse_dcq(HARD).unwrap();
        let plan = DcqPlanner::smart().plan_incremental(&dcq);
        let mut view = DcqView::build_shared(dcq, plan, &mut store, &mut cache, &mut pool).unwrap();
        assert_eq!(view.active_strategy(), IncrementalStrategy::Counting);
        assert!(store.index_count() > 0);
        let before = view.result(&store).sorted_rows();

        // Counting → rerun: the sole holder's registry entries drain, the
        // result is byte-identical.
        assert!(view
            .migrate(
                IncrementalStrategy::EasyRerun,
                &mut store,
                &mut cache,
                &mut pool
            )
            .unwrap());
        pool.prune();
        assert_eq!(view.active_strategy(), IncrementalStrategy::EasyRerun);
        assert_eq!(
            view.strategy(),
            IncrementalStrategy::Counting,
            "the declared strategy is unchanged by migration"
        );
        assert_eq!(store.index_count(), 0, "old counting state fully released");
        assert_eq!(view.result(&store).sorted_rows(), before);
        // Migrating to the active kind is a no-op.
        assert!(!view
            .migrate(
                IncrementalStrategy::EasyRerun,
                &mut store,
                &mut cache,
                &mut pool
            )
            .unwrap());

        // Maintain under rerun, then migrate back mid-stream and keep going:
        // both transitions must stay exact against recomputation.
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([5, 2]));
        batch.delete("Edge", int_row([1, 3]));
        let applied = store.apply_batch(&batch).unwrap();
        view.apply(&applied, &store).unwrap();
        assert!(view
            .migrate(
                IncrementalStrategy::Counting,
                &mut store,
                &mut cache,
                &mut pool
            )
            .unwrap());
        assert!(
            store.index_count() > 0,
            "counting state re-acquired indexes"
        );
        let mut batch = DeltaBatch::new();
        batch.insert("Edge", int_row([9, 9]));
        batch.delete("Graph", int_row([2, 3]));
        let applied = store.apply_batch(&batch).unwrap();
        view.apply(&applied, &store).unwrap();
        let expected = baseline_dcq(view.dcq(), store.database(), CqStrategy::Vanilla).unwrap();
        assert_eq!(view.result(&store).sorted_rows(), expected.sorted_rows());
        assert_eq!(view.stats().migrations, 2);
        assert_eq!(view.epoch(), 2);

        view.teardown(&mut store);
        pool.prune();
        assert_eq!(store.index_count(), 0);
    }

    #[test]
    fn adaptive_plans_start_on_the_structural_choice() {
        let mut store = store();
        let mut cache = PlanCache::new();
        let mut pool = CountingPool::new();
        for src in [EASY, HARD] {
            let dcq = parse_dcq(src).unwrap();
            let plan = DcqPlanner::smart().plan_adaptive(&dcq);
            let mut view =
                DcqView::build_shared(dcq, plan, &mut store, &mut cache, &mut pool).unwrap();
            assert_eq!(view.strategy(), IncrementalStrategy::Adaptive);
            assert_eq!(view.active_strategy(), IncrementalStrategy::Counting);
            // Migrating "to Adaptive" re-targets the planner's choice: a no-op
            // here since nothing has migrated away yet.
            assert!(!view
                .migrate(
                    IncrementalStrategy::Adaptive,
                    &mut store,
                    &mut cache,
                    &mut pool
                )
                .unwrap());
            // ... and brings a view that was moved to rerun back to counting.
            let before = view.result(&store).sorted_rows();
            for (target, lands_on) in [
                (
                    IncrementalStrategy::EasyRerun,
                    IncrementalStrategy::EasyRerun,
                ),
                (IncrementalStrategy::Adaptive, IncrementalStrategy::Counting),
            ] {
                assert!(view
                    .migrate(target, &mut store, &mut cache, &mut pool)
                    .unwrap());
                assert_eq!(view.active_strategy(), lands_on);
                assert_eq!(view.result(&store).sorted_rows(), before);
            }
            view.teardown(&mut store);
            pool.prune();
        }
        assert_eq!(store.index_count(), 0);
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
        assert!(build_rerun(EASY, &mut store)
            .explain()
            .contains("touched-side rerun"));
        assert_eq!(view.plan().strategy, view.strategy());
        assert_eq!(view.epoch(), 0);
    }
}
