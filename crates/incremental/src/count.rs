//! Counting-based maintenance of a single conjunctive query.
//!
//! [`CountingCq`] maintains, for one CQ over a shared store, the **support
//! count** of every output tuple: the number of valuations of the body variables
//! that produce it.  Under set semantics a tuple belongs to `Q(D)` iff its support
//! count is positive, so a DCQ result can be derived from two counting engines
//! (`cnt₁(t) > 0 ∧ cnt₂(t) = 0`); this is the classic counting approach to
//! incremental view maintenance, and the fallback strategy for DCQs the dichotomy
//! (Theorem 2.4) declares hard.
//!
//! Updates arrive as **normalized signed deltas** per stored relation (an
//! [`AppliedBatch`]).  The count map is maintained with ℤ-annotated *delta joins*:
//! when relation `R` changes by `ΔR`, the change of the query's valuation count is
//! the sum over the atom occurrences of `R` of
//!
//! ```text
//!   ⨝ (atoms before the occurrence, already updated)
//!     × ΔR bound at the occurrence
//!     × (atoms after the occurrence, not yet updated)
//! ```
//!
//! — the standard telescoping delta rule, correct in the presence of self-joins.
//!
//! ## Shared indexes, compensated probes
//!
//! Unlike the first generation of this engine, the view owns **no rows and no
//! indexes**: every non-delta atom is probed through the store's refcounted
//! [`index registry`](dcq_storage::registry) on exactly the join key the
//! precomputed delta plan needs ([`CqDeltaPlans`], α-canonical and shared across
//! views of the same shape).  The registry always reflects the **new** state —
//! the store applies a batch (and maintains every index once) before any view
//! sees it — while the telescoping rule needs some atoms in their **old** state.
//! Those probes are *compensated* from the batch delta itself: a row deleted by
//! the batch is added back, and a row inserted by the batch is either skipped
//! (membership mask — used when the pending insert set is huge, i.e. the seed
//! fold) or cancelled by an equal-and-opposite **negative twin** (used for real
//! batch traffic, keeping the per-matched-block hot loop free of any hashing;
//! exact because the telescoped fold is multilinear in its ℤ multiplicities).
//! Since deltas are normalized, the compensation is exact, and its cost scales
//! with the delta size, never with the database.  Per-view state shrinks to the
//! count map.
//!
//! ## Id space end to end
//!
//! The whole fold runs in **dictionary-id space**: the store interns each
//! normalized delta once ([`AppliedBatch::interned`]), indexes bucket contiguous
//! `u32` blocks, the accumulator is one flat `Vec<u32>` at an evolving stride,
//! and support counts are keyed by packed [`IdKey`]s.  Probing, masking,
//! restoring and head projection never hash a [`Value`](dcq_storage::Value) and
//! never allocate a [`Row`] — even the head delta a fold hands back is a signed
//! list of [`IdKey`]s ([`HeadDelta`], shared by `Arc` so pooled sides serve
//! every reader the same allocation).  Rows materialize only when a caller
//! resolves a result through the dictionary, proportional to what it actually
//! reads, not the probe volume.

use crate::tele;
use crate::{IncrementalError, Result};
use dcq_core::delta_plan::{build_delta_plans, AtomBinding, CqDeltaPlans};
use dcq_core::query::ConjunctiveQuery;
use dcq_storage::hash::{shard_of_ids, FastHashMap, FastHashSet};
use dcq_storage::{
    AppliedBatch, Epoch, IdDelta, IdKey, IndexId, Relation, Row, Schema, SharedDatabase, WorkerPool,
};
use std::sync::Arc;

/// The change a fold induced on a side's support counts: packed head ids with
/// the signed count change, one entry per changed head tuple.  Stays in id
/// space — callers resolve rows through the store's dictionary only for the
/// tuples they actually materialize.
pub type HeadDelta = Vec<(IdKey, i64)>;

/// The batch delta of one stored relation whose telescoped application is still
/// pending: probes against it must see the **old** state, so rows the batch
/// inserted are masked and rows it deleted are restored.  Everything borrows
/// straight out of the batch's interned [`IdDelta`] — no ids are copied.
#[derive(Default)]
struct PendingDelta<'a> {
    /// Stored row blocks the batch inserted (present in the index, absent in
    /// the old state).
    plus: Vec<&'a [u32]>,
    /// Stored row blocks the batch deleted (gone from the index, present in
    /// the old state).
    minus: Vec<&'a [u32]>,
}

impl<'a> PendingDelta<'a> {
    fn of(delta: &'a IdDelta) -> Self {
        let mut pending = PendingDelta::default();
        for (ids, sign) in delta.iter() {
            if sign > 0 {
                pending.plus.push(ids);
            } else {
                pending.minus.push(ids);
            }
        }
        pending
    }
}

/// Above this many pending inserts, old-state probes filter through a
/// membership set instead of emitting negative twins (see the fold): masking
/// costs one hash per matched block but collapses seed-sized "deltas" (the
/// whole relation) instantly, negation is free per block but doubles the
/// accumulated rows that touch the delta.  Real batch traffic sits far below
/// the limit, seed folds far above.
const NEGATION_LIMIT: usize = 512;

/// Group compensation rows by their probe-key projection under `spec_key`
/// (rows failing the atom's equality filter are dropped): one `O(|Δ|)` pass
/// that makes per-probe compensation `O(matches)`.
fn key_grouped<'a>(
    rows: &[&'a [u32]],
    probed: &AtomBinding,
    spec_key: &[usize],
) -> FastHashMap<IdKey, Vec<&'a [u32]>> {
    let mut by_key: FastHashMap<IdKey, Vec<&'a [u32]>> = FastHashMap::default();
    let mut key_buf: Vec<u32> = Vec::new();
    for &stored in rows {
        if admits_ids(probed, stored) {
            key_buf.clear();
            key_buf.extend(spec_key.iter().map(|&p| stored[p]));
            by_key
                .entry(IdKey::from_slice(&key_buf))
                .or_default()
                .push(stored);
        }
    }
    by_key
}

/// Incremental support counts for one conjunctive query over a shared store.
pub struct CountingCq {
    cq: ConjunctiveQuery,
    output: Schema,
    /// The (possibly cache-shared) delta plans of this CQ's shape.
    plans: Arc<CqDeltaPlans>,
    /// Acquired registry entries, parallel to `plans.index_specs`.  Released
    /// through [`CountingCq::release_indexes`] when the view is torn down.
    index_ids: Vec<IndexId>,
    /// Support counts keyed by the packed head ids (resolved to rows only at
    /// the output boundary).
    counts: FastHashMap<IdKey, i64>,
    /// The store epoch the counts reflect.  Batch application is idempotent per
    /// epoch, which is what lets several views share one counting side: the
    /// first view folds the batch, the rest get the memoized head delta.
    epoch: Epoch,
    /// The head delta produced at `epoch` (served to sharing views; `Arc` so
    /// every sharing reader gets the same allocation, not a copy).
    last_delta: Arc<HeadDelta>,
    /// Per-step deletion-key indexes built across the engine's lifetime.  These
    /// are the compensated-probe setup cost of a batch: they must be **zero**
    /// for insert-only traffic (the index is built only when the step's
    /// compensation restores deleted rows — the compensation pre-pass skips
    /// relations the batch deleted nothing from).
    deletion_index_builds: u64,
    /// Number of hash-disjoint partitions the telescoped fold splits each
    /// delta into (`1` = strictly sequential).  A pure scheduling knob: counts,
    /// head deltas and every telemetry counter are bit-identical at any value.
    fold_partitions: usize,
    /// Wall-clock nanoseconds each partition of the most recent owned fold
    /// spent, indexed by partition (skew diagnostic; empty before any fold).
    last_partition_ns: Vec<u64>,
    /// Cumulative work counters (no-ops without the `telemetry` feature); see
    /// [`CountingTelemetry`] for the semantics of each.
    index_probes: tele::Counter,
    compensated_masks: tele::Counter,
    compensated_restores: tele::Counter,
    folds_owned: tele::Counter,
    fold_hits_shared: tele::Counter,
}

/// Cumulative telemetry counters of one [`CountingCq`], read through
/// [`CountingCq::telemetry`].
///
/// Every field is **schedule-independent**: it depends only on the sequence of
/// batches folded, never on which sharing view's worker performed the fold, so
/// two engines fed the same batches report bit-identical values at any worker
/// count.  All values except `deletion_index_builds` are zero when the crate
/// is built without the `telemetry` feature.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingTelemetry {
    /// Shared-index probes issued by telescoped fold steps (one per
    /// accumulated row per step).
    pub index_probes: u64,
    /// Probed rows masked out because the pending batch inserted them (they
    /// are absent in the old state the step must observe).
    pub compensated_masks: u64,
    /// Rows restored into a probe result because the pending batch deleted
    /// them (present in the old state, already gone from the shared index).
    pub compensated_restores: u64,
    /// Per-step deletion-key indexes built (the compensated-probe setup cost;
    /// zero for insert-only traffic).
    pub deletion_index_builds: u64,
    /// Telescoped folds this engine performed itself (including the seed
    /// fold at construction).
    pub folds_owned: u64,
    /// Batch applications served from the per-epoch memo because a sharing
    /// view already folded the batch into this side.
    pub fold_hits_shared: u64,
}

impl CountingTelemetry {
    /// Field-wise sum (for aggregating across an engine's live sides).
    pub fn merge(&mut self, other: &CountingTelemetry) {
        self.index_probes += other.index_probes;
        self.compensated_masks += other.compensated_masks;
        self.compensated_restores += other.compensated_restores;
        self.deletion_index_builds += other.deletion_index_builds;
        self.folds_owned += other.folds_owned;
        self.fold_hits_shared += other.fold_hits_shared;
    }
}

impl CountingCq {
    /// Build the counting state for `cq` over the store's current contents,
    /// producing output tuples in the attribute order of `output` (which must be
    /// a permutation of the head variables).
    ///
    /// Delta plans are built fresh; engines that serve many views should prefer
    /// [`CountingCq::from_store_with_plans`] with plans resolved through a
    /// [`PlanCache`](dcq_core::cache::PlanCache), so α-equivalent sides share one
    /// plan object (and therefore the same registry entries).
    pub fn from_store(
        cq: ConjunctiveQuery,
        output: Schema,
        store: &mut SharedDatabase,
    ) -> Result<Self> {
        let plans = Arc::new(build_delta_plans(&cq, &output));
        CountingCq::from_store_with_plans(cq, output, store, plans)
    }

    /// Build the counting state with precomputed (typically cache-shared) delta
    /// plans, acquiring every shared index the plans probe and seeding the counts
    /// from the store's current contents.
    ///
    /// The seed reads each referenced relation's **flat id mirror** as one
    /// insert-only [`IdDelta`] and folds it in as the first telescoped batch —
    /// the view never takes a private copy of the base data and never clones a
    /// [`Row`] while seeding.
    pub fn from_store_with_plans(
        cq: ConjunctiveQuery,
        output: Schema,
        store: &mut SharedDatabase,
        plans: Arc<CqDeltaPlans>,
    ) -> Result<Self> {
        cq.validate(store.database())
            .map_err(IncrementalError::Core)?;
        debug_assert!(
            cq.head_schema().same_attr_set(&output),
            "output schema must be a permutation of the head"
        );
        debug_assert_eq!(
            *plans,
            build_delta_plans(&cq, &output),
            "plans must match this query's shape"
        );
        let index_ids = plans
            .index_specs
            .iter()
            .map(|spec| store.acquire_index(spec.to_index_key()))
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(IncrementalError::Storage)?;
        let mut engine = CountingCq {
            cq,
            output,
            plans,
            index_ids,
            counts: FastHashMap::default(),
            epoch: store.epoch(),
            last_delta: Arc::new(HeadDelta::new()),
            deletion_index_builds: 0,
            fold_partitions: 1,
            last_partition_ns: Vec::new(),
            index_probes: Default::default(),
            compensated_masks: Default::default(),
            compensated_restores: Default::default(),
            folds_owned: Default::default(),
            fold_hits_shared: Default::default(),
        };

        // Seed: fold the full current contents as one batch of inserts.  The
        // same compensation machinery makes not-yet-folded relations read as
        // empty (their "delta" is their entire contents), so the telescoping is
        // exact from an empty registration state.
        let seed: Vec<(String, IdDelta)> = engine
            .plans
            .occurrences
            .iter()
            .map(|(name, _)| {
                let flat = store.flat(name).expect("validated above");
                (name.clone(), flat.to_insert_delta())
            })
            .collect();
        let borrowed: Vec<(&str, &IdDelta)> = seed
            .iter()
            .map(|(name, delta)| (name.as_str(), delta))
            .collect();
        engine.fold(&borrowed, store);
        Ok(engine)
    }

    /// Release every acquired registry entry (the view is being torn down).
    ///
    /// Must be called with the same store the engine was built over; afterwards
    /// the engine must not be offered further batches.
    pub fn release_indexes(&mut self, store: &mut SharedDatabase) {
        for id in self.index_ids.drain(..) {
            store.release_index(id);
        }
    }

    /// The maintained query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.cq
    }

    /// The delta plans driving this engine (cache-shared across α-equivalent
    /// views).
    pub fn plans(&self) -> &Arc<CqDeltaPlans> {
        &self.plans
    }

    /// `true` iff the query reads `relation`.
    pub fn touches(&self, relation: &str) -> bool {
        self.plans.references(relation)
    }

    /// Support count of one output tuple (`0` when absent).
    ///
    /// The row is translated through `store`'s dictionary; a row containing a
    /// never-interned value cannot be an output and counts `0`.
    pub fn count(&self, row: &Row, store: &SharedDatabase) -> i64 {
        let mut ids = Vec::with_capacity(row.arity());
        if !store.lookup_ids(row, &mut ids) {
            return 0;
        }
        self.count_ids(&ids)
    }

    /// Support count of one output tuple given as dictionary ids (`0` when
    /// absent) — the allocation-free form [`CountingCq::count`] wraps.
    pub fn count_ids(&self, ids: &[u32]) -> i64 {
        self.counts.get(ids).copied().unwrap_or(0)
    }

    /// The full support-count map in id space (packed head ids → count; every
    /// count is positive).
    pub fn counts_ids(&self) -> &FastHashMap<IdKey, i64> {
        &self.counts
    }

    /// The current set-semantics output `Q(D)` (tuples with positive support),
    /// resolved to row space through `store`'s dictionary.
    pub fn to_relation(&self, store: &SharedDatabase) -> Relation {
        let mut rel = Relation::new(format!("count({})", self.cq.name), self.output.clone());
        rel.reserve(self.counts.len());
        for key in self.counts.keys() {
            rel.push_unchecked(store.resolve_row(key.as_slice()));
        }
        rel.assume_distinct();
        rel
    }

    /// The store epoch the counts reflect.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Per-step deletion-key indexes built since this engine was seeded — the
    /// compensated-probe setup work.  Stays at `0` across insert-only batches
    /// (including the seed fold): the index is only built when a step's probed
    /// relation actually had rows deleted in the pending batch.
    pub fn deletion_index_builds(&self) -> u64 {
        self.deletion_index_builds
    }

    /// Set how many hash-disjoint partitions future folds split each delta
    /// into (clamped to at least 1).  Purely a scheduling knob — see
    /// [`CountingCq::fold_partitions`].
    pub fn set_fold_partitions(&mut self, partitions: usize) {
        self.fold_partitions = partitions.max(1);
    }

    /// The configured fold partition count.  Results, counts and telemetry
    /// counters are bit-identical at any value; only the wall-clock schedule
    /// changes.
    pub fn fold_partitions(&self) -> usize {
        self.fold_partitions
    }

    /// Wall-clock nanoseconds each partition of the most recent owned fold
    /// spent (empty before the first fold).  A skew diagnostic, **not** part
    /// of the deterministic surface.
    pub fn last_partition_ns(&self) -> &[u64] {
        &self.last_partition_ns
    }

    /// Cumulative work counters of this engine (all zero except
    /// `deletion_index_builds` without the `telemetry` feature).
    pub fn telemetry(&self) -> CountingTelemetry {
        CountingTelemetry {
            index_probes: self.index_probes.get(),
            compensated_masks: self.compensated_masks.get(),
            compensated_restores: self.compensated_restores.get(),
            deletion_index_builds: self.deletion_index_builds,
            folds_owned: self.folds_owned.get(),
            fold_hits_shared: self.fold_hits_shared.get(),
        }
    }

    /// Fold one applied batch into the support counts and return the induced
    /// change of the count map (already folded into the counts) as a shared,
    /// id-space [`HeadDelta`].
    ///
    /// `applied` must be the store's own application record — the store (and
    /// with it every shared index) already reflects the batch — offered in epoch
    /// order; `store` must be the store the engine was built over.  The fold
    /// consumes the batch's **interned** deltas; relations the query does not
    /// read are ignored.
    ///
    /// Application is **idempotent per epoch**: a batch the engine already
    /// reflects (because another view sharing this counting side folded it
    /// first) returns the memoized head delta without touching the counts —
    /// and since the delta is behind an `Arc`, serving it to any number of
    /// sharing views copies nothing.
    pub fn apply_batch(
        &mut self,
        applied: &AppliedBatch,
        store: &SharedDatabase,
    ) -> Arc<HeadDelta> {
        if applied.epoch == self.epoch {
            // A sharing view's worker already folded this batch; the memoized
            // head delta is served without re-touching the counts.
            self.fold_hits_shared.inc();
            return Arc::clone(&self.last_delta);
        }
        debug_assert!(
            applied.epoch > self.epoch,
            "batches must be offered in epoch order"
        );
        self.epoch = applied.epoch;
        let relevant: Vec<(&str, &IdDelta)> = applied
            .interned
            .iter()
            .filter(|(name, delta)| !delta.is_empty() && self.plans.references(name))
            .map(|(name, delta)| (name.as_str(), delta))
            .collect();
        self.last_delta = Arc::new(if relevant.is_empty() {
            HeadDelta::new()
        } else {
            self.fold(&relevant, store)
        });
        Arc::clone(&self.last_delta)
    }

    /// The telescoped delta fold: process the touched relations in the given
    /// order, each occurrence joining its bound delta against the shared indexes
    /// — already-folded atoms in the new state (direct probes), not-yet-folded
    /// ones in the old state (compensated probes).
    ///
    /// Runs entirely in id space: the accumulator is one flat `Vec<u32>` at an
    /// evolving stride with a parallel multiplicity column, probe keys live in a
    /// reused buffer, and matches extend the flat buffer in place.  Nothing in
    /// the fold hashes a value or allocates a row — the head delta it returns
    /// is itself packed ids.
    ///
    /// ## Partitioned execution
    ///
    /// The fold is **multilinear in the delta rows**: every accumulated row
    /// traces back to exactly one seed row of exactly one occurrence, and the
    /// per-row step work only reads shared state (indexes, compensation
    /// caches).  So the delta rows are split into [`fold_partitions`]
    /// hash-disjoint partitions ([`shard_of_ids`] over the full row — the same
    /// routing the sharded commit uses) and each partition telescopes its rows
    /// independently on a worker, into a partition-local head map.  The
    /// compensation caches are built in a sequential pre-pass (they depend
    /// only on the batch, not on the partitioning), the partition head maps
    /// merge by ℤ-addition (commutative), and the merged head delta is sorted
    /// by packed key before it touches the count map — so counts, head deltas
    /// and every telemetry counter are **bit-identical at any partition
    /// count**, K is purely a wall-clock knob.
    ///
    /// [`fold_partitions`]: CountingCq::fold_partitions
    fn fold(&mut self, deltas: &[(&str, &IdDelta)], store: &SharedDatabase) -> HeadDelta {
        self.folds_owned.inc();
        let nparts = self.fold_partitions.max(1);
        let plans = Arc::clone(&self.plans);
        let pending: FastHashMap<&str, PendingDelta<'_>> = deltas
            .iter()
            .map(|(name, delta)| (*name, PendingDelta::of(delta)))
            .collect();
        // Fold position of each touched relation: relation `j` is probed in
        // its **old** state exactly while a relation at a position `> j` is
        // being telescoped (plus the same-relation `step.atom > d` case).
        let order: FastHashMap<&str, usize> = deltas
            .iter()
            .enumerate()
            .map(|(j, (name, _))| (*name, j))
            .collect();
        // Compensation structures, memoized per index spec (or relation): they
        // depend only on the probed relation's (fold-constant) pending delta
        // and the spec's key columns, so one build serves every step and
        // occurrence probing through that spec.  Built eagerly in one
        // sequential pre-pass over the (relation, occurrence, step) space —
        // `O(plan size + |Δ|)`, no probes — so the parallel section below
        // reads them immutably and `deletion_index_builds` never depends on
        // the partition schedule.
        let mut mask_cache: FastHashMap<&str, FastHashSet<&[u32]>> = FastHashMap::default();
        let mut plus_cache: FastHashMap<usize, FastHashMap<IdKey, Vec<&[u32]>>> =
            FastHashMap::default();
        let mut minus_cache: FastHashMap<usize, FastHashMap<IdKey, Vec<&[u32]>>> =
            FastHashMap::default();
        for (j, (name, _)) in deltas.iter().enumerate() {
            for &d in plans.occurrences_of(name) {
                for step in &plans.occurrence_plans[d].steps {
                    let probed = &plans.atoms[step.atom];
                    let spec = &plans.index_specs[step.index];
                    let Some(c) = pending_comp(&pending, &order, j, name, d, step.atom, probed)
                    else {
                        continue;
                    };
                    // The probed rows the batch inserted are absent in the old
                    // state the step must observe.  Two exact ways to subtract
                    // them, picked by pending-insert volume:
                    //
                    // * **negation** (small Δ+, i.e. real batch traffic): scan
                    //   the new state unfiltered and emit a *negative twin* for
                    //   every pending insert matching the probe key.  The fold
                    //   is multilinear in its ℤ multiplicities, so the twins
                    //   cancel the inserted rows' contributions exactly — and
                    //   the per-matched-block set lookup disappears from the
                    //   hot loop, which is where a high-fan-out delta join
                    //   spends its time.
                    // * **masking** (huge Δ+, i.e. the seed fold, where a
                    //   not-yet-folded relation's "delta" is its entire
                    //   contents): filter matched blocks through a membership
                    //   set.  One hash per block, but the accumulator collapses
                    //   to the (empty) old state immediately instead of
                    //   carrying twice the full join forward.
                    if c.plus.len() > NEGATION_LIMIT {
                        mask_cache
                            .entry(probed.relation.as_str())
                            .or_insert_with(|| c.plus.iter().copied().collect());
                    } else if !c.plus.is_empty() {
                        plus_cache
                            .entry(step.index)
                            .or_insert_with(|| key_grouped(&c.plus, probed, &spec.key_positions));
                    }
                    // Pre-index the compensation's deleted rows by this step's
                    // probe key (one `O(|Δ−|)` pass), so restoring them costs
                    // `O(matches)` per accumulated row instead of `O(|Δ−|)` —
                    // without this, large deltas degrade quadratically.  A
                    // batch that deletes nothing from the probed relation pays
                    // no setup at all, so insert-only traffic (the common
                    // upsert stream) skips this allocation entirely.
                    if !c.minus.is_empty() {
                        minus_cache.entry(step.index).or_insert_with(|| {
                            self.deletion_index_builds += 1;
                            key_grouped(&c.minus, probed, &spec.key_positions)
                        });
                    }
                }
            }
        }

        // Parallel section: each partition telescopes the delta rows that hash
        // to it, reading the shared store and caches immutably and writing a
        // partition-local head map plus local work counters.
        let index_ids: &[IndexId] = &self.index_ids;
        let run_partition = |part: usize| -> PartitionFold {
            let started = std::time::Instant::now();
            let mut out = PartitionFold::default();
            let mut key_buf: Vec<u32> = Vec::new();
            let mut acc_ids: Vec<u32> = Vec::new();
            let mut acc_mults: Vec<i64> = Vec::new();
            let mut next_ids: Vec<u32> = Vec::new();
            let mut next_mults: Vec<i64> = Vec::new();
            for (j, (name, delta)) in deltas.iter().enumerate() {
                for &d in plans.occurrences_of(name) {
                    let binding = &plans.atoms[d];
                    // Seed the accumulator with this partition's share of the
                    // delta bound at occurrence `d` (equality filter +
                    // projection; injective, so signs carry over).
                    let mut acc_stride = binding.keep_positions.len();
                    acc_ids.clear();
                    acc_mults.clear();
                    for (ids, sign) in delta.iter() {
                        if admits_ids(binding, ids) && shard_of_ids(ids, nparts) == part {
                            acc_ids.extend(binding.keep_positions.iter().map(|&p| ids[p]));
                            acc_mults.push(sign);
                        }
                    }
                    let plan = &plans.occurrence_plans[d];
                    for step in &plan.steps {
                        if acc_mults.is_empty() {
                            break;
                        }
                        let probed = &plans.atoms[step.atom];
                        let index = index_ids[step.index];
                        // Blocks come back at the index's stride (nullary rows
                        // are sentinel-padded); a dead index probes empty,
                        // stride moot.  The entry is resolved once per step so
                        // the probe loop skips the registry's slot/generation
                        // indirection.
                        let entry = store.index(index);
                        let (probed_arity, stride) = match entry {
                            Some(entry) => (entry.arity(), entry.stride()),
                            None => (0, 1),
                        };
                        // Which state must this atom be probed in?  Resolved
                        // from fold positions alone (see `pending_comp`), so
                        // every partition answers identically.
                        let comp = pending_comp(&pending, &order, j, name, d, step.atom, probed);
                        let large_plus = comp.is_some_and(|c| c.plus.len() > NEGATION_LIMIT);
                        let mask: Option<&FastHashSet<&[u32]>> = if large_plus {
                            mask_cache.get(probed.relation.as_str())
                        } else {
                            None
                        };
                        let plus_by_key: Option<&FastHashMap<IdKey, Vec<&[u32]>>> =
                            if comp.is_some() && !large_plus {
                                plus_cache.get(&step.index)
                            } else {
                                None
                            };
                        let minus_by_key: Option<&FastHashMap<IdKey, Vec<&[u32]>>> =
                            if comp.is_some() {
                                minus_cache.get(&step.index)
                            } else {
                                None
                            };
                        next_ids.clear();
                        next_mults.clear();
                        for i in 0..acc_mults.len() {
                            let row = &acc_ids[i * acc_stride..(i + 1) * acc_stride];
                            let mult = acc_mults[i];
                            key_buf.clear();
                            key_buf.extend(step.acc_key_positions.iter().map(|&p| row[p]));
                            out.index_probes += 1;
                            let blocks = entry.map_or(&[][..], |e| e.probe_ids(&key_buf));
                            if let Some(plus) = mask {
                                for block in blocks.chunks_exact(stride) {
                                    let stored = &block[..probed_arity];
                                    if plus.contains(stored) {
                                        // inserted this batch → absent in the old state
                                        out.compensated_masks += 1;
                                        continue;
                                    }
                                    next_ids.extend_from_slice(row);
                                    next_ids
                                        .extend(step.append_positions.iter().map(|&p| stored[p]));
                                    next_mults.push(mult);
                                }
                            } else {
                                for block in blocks.chunks_exact(stride) {
                                    let stored = &block[..probed_arity];
                                    next_ids.extend_from_slice(row);
                                    next_ids
                                        .extend(step.append_positions.iter().map(|&p| stored[p]));
                                    next_mults.push(mult);
                                }
                            }
                            if let Some(by_key) = &plus_by_key {
                                // Inserted this batch → absent in the old state
                                // but scanned unfiltered above; the negative
                                // twin cancels the contribution exactly.
                                for &stored in by_key
                                    .get(key_buf.as_slice())
                                    .map(Vec::as_slice)
                                    .unwrap_or(&[])
                                {
                                    out.compensated_masks += 1;
                                    next_ids.extend_from_slice(row);
                                    next_ids
                                        .extend(step.append_positions.iter().map(|&p| stored[p]));
                                    next_mults.push(-mult);
                                }
                            }
                            if let Some(by_key) = &minus_by_key {
                                // Deleted this batch → present in the old state
                                // but already gone from the shared index;
                                // restore them.
                                for &stored in by_key
                                    .get(key_buf.as_slice())
                                    .map(Vec::as_slice)
                                    .unwrap_or(&[])
                                {
                                    out.compensated_restores += 1;
                                    next_ids.extend_from_slice(row);
                                    next_ids
                                        .extend(step.append_positions.iter().map(|&p| stored[p]));
                                    next_mults.push(mult);
                                }
                            }
                        }
                        std::mem::swap(&mut acc_ids, &mut next_ids);
                        std::mem::swap(&mut acc_mults, &mut next_mults);
                        acc_stride += step.append_positions.len();
                    }
                    for i in 0..acc_mults.len() {
                        let row = &acc_ids[i * acc_stride..(i + 1) * acc_stride];
                        key_buf.clear();
                        key_buf.extend(plan.head_positions.iter().map(|&p| row[p]));
                        *out.head.entry(IdKey::from_slice(&key_buf)).or_insert(0) += acc_mults[i];
                    }
                }
                // `name` is now fully telescoped; later relations in the fold
                // keep seeing it in the new state.
            }
            out.elapsed_ns = started.elapsed().as_nanos() as u64;
            out
        };
        let outcomes =
            WorkerPool::new(nparts).run((0..nparts).collect(), |_, part| run_partition(part));

        // Merge in partition order: head multiplicities add (ℤ, commutative),
        // counters add, timings record by partition slot.
        self.last_partition_ns = outcomes.iter().map(|o| o.elapsed_ns).collect();
        let mut head_ids: FastHashMap<IdKey, i64> = FastHashMap::default();
        for outcome in outcomes {
            self.index_probes.add(outcome.index_probes);
            self.compensated_masks.add(outcome.compensated_masks);
            self.compensated_restores.add(outcome.compensated_restores);
            for (key, mult) in outcome.head {
                *head_ids.entry(key).or_insert(0) += mult;
            }
        }
        // Canonicalize: net-zero heads drop, the rest sort by packed key, and
        // the count map is updated in that sorted order — so the head delta
        // *and* the count map's insertion history are independent of both the
        // partition count and the per-partition hash-map iteration order.
        let mut head_delta: HeadDelta = head_ids
            .into_iter()
            .filter(|&(_, mult)| mult != 0)
            .collect();
        head_delta.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (key, mult) in &head_delta {
            let updated = {
                let count = self.counts.entry(key.clone()).or_insert(0);
                *count += *mult;
                *count
            };
            debug_assert!(
                updated >= 0,
                "support count went negative for {:?}",
                key.as_slice()
            );
            if updated == 0 {
                self.counts.remove(key.as_slice());
            }
        }
        head_delta
    }
}

/// One partition's share of a telescoped fold: its local head-multiplicity
/// map, its work counters (merged additively — partition sums equal the
/// sequential totals exactly), and its wall-clock cost.
#[derive(Default)]
struct PartitionFold {
    head: FastHashMap<IdKey, i64>,
    index_probes: u64,
    compensated_masks: u64,
    compensated_restores: u64,
    elapsed_ns: u64,
}

/// The pending (old-state) delta the step probing `probed` must compensate
/// with, if any — `None` means the shared index already shows the state the
/// telescoping rule needs.  Same relation as the one being telescoped at
/// occurrence `d`: occurrences before `d` are already folded (new state),
/// after `d` not yet (old).  Other relations: old exactly while their own
/// delta sits **later** in the fold order.  Resolved purely from positions,
/// so the answer never depends on which partition asks.
fn pending_comp<'p, 'a>(
    pending: &'p FastHashMap<&str, PendingDelta<'a>>,
    order: &FastHashMap<&str, usize>,
    j: usize,
    name: &str,
    d: usize,
    atom: usize,
    probed: &AtomBinding,
) -> Option<&'p PendingDelta<'a>> {
    if probed.relation == name {
        if atom > d {
            pending.get(name)
        } else {
            None
        }
    } else {
        match order.get(probed.relation.as_str()) {
            Some(&pos) if pos > j => pending.get(probed.relation.as_str()),
            _ => None,
        }
    }
}

/// `true` iff the id block satisfies the atom's repeated-variable equality
/// filter (interning is injective, so id equality is value equality).
fn admits_ids(binding: &AtomBinding, ids: &[u32]) -> bool {
    binding.equalities.iter().all(|&(a, b)| ids[a] == ids[b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcq_core::baseline::{evaluate_cq, CqStrategy};
    use dcq_core::parse::parse_cq;
    use dcq_storage::row::int_row;
    use dcq_storage::{Database, DeltaBatch};

    fn store() -> SharedDatabase {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![vec![1, 2], vec![2, 3], vec![3, 1], vec![2, 4], vec![4, 1]],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Edge",
            &["src", "dst"],
            vec![vec![1, 3], vec![2, 4]],
        ))
        .unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn store_seeding_matches_direct_evaluation() {
        for src in [
            "P(x, y, z) :- Graph(x, y), Graph(y, z)",
            "P(x, y, z) :- Graph(x, y), Graph(y, z), Graph(z, x)",
            "P(x, z) :- Graph(x, y), Graph(y, z)",
            "P(x) :- Graph(x, x)",
            "P(x, y, w) :- Graph(x, y), Edge(w, x)",
        ] {
            let mut store = store();
            let cq = parse_cq(src).unwrap();
            let engine = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
            let expected = evaluate_cq(&cq, store.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.to_relation(&store).sorted_rows(),
                expected.sorted_rows(),
                "counting seed differs on {src}"
            );
        }
    }

    #[test]
    fn counts_are_valuation_counts_and_state_is_rowless() {
        let mut store = store();
        // π_x of Graph(x, y): x=2 has two out-edges.
        let cq = parse_cq("P(x) :- Graph(x, y)").unwrap();
        let engine = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
        assert_eq!(engine.count(&int_row([2]), &store), 2);
        assert_eq!(engine.count(&int_row([1]), &store), 1);
        assert_eq!(engine.count(&int_row([9]), &store), 0, "never interned");
        // The id-space form agrees with the row-space shim.
        let mut ids = Vec::new();
        assert!(store.lookup_ids(&int_row([2]), &mut ids));
        assert_eq!(engine.count_ids(&ids), 2);
        assert_eq!(engine.counts_ids().len(), 4);
        // Single-atom plans probe nothing, so no registry entry exists: the
        // per-view state is the count map and nothing else.
        assert_eq!(store.index_count(), 0);
    }

    #[test]
    fn batches_track_inserts_and_deletes_with_self_joins() {
        let mut store = store();
        // Triangles through a triple self-join.
        let cq = parse_cq("P(x, y, z) :- Graph(x, y), Graph(y, z), Graph(z, x)").unwrap();
        let mut engine = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
        assert!(
            store.index_count() > 0,
            "delta plans acquired shared indexes"
        );

        let steps: Vec<(Row, i64)> = vec![
            (int_row([4, 2]), 1),
            (int_row([1, 4]), 1),
            (int_row([2, 3]), -1), // breaks the 1→2→3→1 triangle
            (int_row([3, 3]), 1),  // self-loop ⇒ degenerate triangle (3,3,3)
        ];
        for (row, sign) in steps {
            let mut batch = DeltaBatch::new();
            batch.push("Graph", row.clone(), sign);
            let applied = store.apply_batch(&batch).unwrap();
            engine.apply_batch(&applied, &store);
            let expected = evaluate_cq(&cq, store.database(), CqStrategy::Vanilla).unwrap();
            assert_eq!(
                engine.to_relation(&store).sorted_rows(),
                expected.sorted_rows(),
                "counting state diverged after ({row}, {sign})"
            );
        }
        assert!(engine.count(&int_row([3, 3, 3]), &store) > 0);
    }

    #[test]
    fn multi_relation_batches_compensate_pending_probes() {
        let mut store = store();
        let cq = parse_cq("P(x, y, w) :- Graph(x, y), Edge(w, x)").unwrap();
        let mut engine = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
        // One batch touching both relations: whichever is folded first must see
        // the other in its old state even though the store is already new.
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([3, 2]));
        batch.delete("Graph", int_row([1, 2]));
        batch.insert("Edge", int_row([9, 3]));
        batch.delete("Edge", int_row([1, 3]));
        let applied = store.apply_batch(&batch).unwrap();
        engine.apply_batch(&applied, &store);
        let expected = evaluate_cq(&cq, store.database(), CqStrategy::Vanilla).unwrap();
        assert_eq!(
            engine.to_relation(&store).sorted_rows(),
            expected.sorted_rows()
        );
    }

    #[test]
    fn untouched_relation_delta_is_a_noop() {
        let mut store = store();
        let cq = parse_cq("P(x, y) :- Graph(x, y)").unwrap();
        let mut engine = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
        let before = engine.to_relation(&store).sorted_rows();
        let mut batch = DeltaBatch::new();
        batch.insert("Edge", int_row([7, 7]));
        let applied = store.apply_batch(&batch).unwrap();
        let change = engine.apply_batch(&applied, &store);
        assert!(change.is_empty());
        assert_eq!(engine.to_relation(&store).sorted_rows(), before);
        assert!(!engine.touches("Edge"));
        assert!(engine.touches("Graph"));
        assert_eq!(engine.query().name, "P");
    }

    #[test]
    fn insert_only_batches_build_no_deletion_indexes() {
        let mut store = store();
        // Self-join: every fold step probes a relation the batch touches, the
        // worst case for eager compensation setup.
        let cq = parse_cq("P(x, z) :- Graph(x, y), Graph(y, z)").unwrap();
        let mut engine = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
        assert_eq!(
            engine.deletion_index_builds(),
            0,
            "the seed fold is insert-only and must build no deletion index"
        );

        let mut inserts = DeltaBatch::new();
        inserts.insert("Graph", int_row([5, 1]));
        inserts.insert("Graph", int_row([1, 5]));
        let applied = store.apply_batch(&inserts).unwrap();
        engine.apply_batch(&applied, &store);
        assert_eq!(
            engine.deletion_index_builds(),
            0,
            "insert-only batches must pay zero compensated-probe setup"
        );

        let mut deletes = DeltaBatch::new();
        deletes.delete("Graph", int_row([1, 2]));
        let applied = store.apply_batch(&deletes).unwrap();
        engine.apply_batch(&applied, &store);
        assert!(
            engine.deletion_index_builds() > 0,
            "deleting batches build the per-step deletion index lazily"
        );
        let expected = evaluate_cq(&cq, store.database(), CqStrategy::Vanilla).unwrap();
        assert_eq!(
            engine.to_relation(&store).sorted_rows(),
            expected.sorted_rows()
        );
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_counts_probes_masks_restores_and_folds() {
        let mut store = store();
        let cq = parse_cq("P(x, z) :- Graph(x, y), Graph(y, z)").unwrap();
        let mut engine = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
        let seeded = engine.telemetry();
        assert_eq!(seeded.folds_owned, 1, "the seed is one owned fold");
        assert!(seeded.index_probes > 0, "the seed fold probes indexes");
        assert_eq!(seeded.fold_hits_shared, 0);
        assert_eq!(seeded.compensated_restores, 0, "seed fold is insert-only");

        // A mixed batch over a self-join exercises both compensation paths:
        // the inserted row must be masked out of probes of the not-yet-folded
        // occurrence, the deleted row must be restored into them.
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([3, 2]));
        batch.delete("Graph", int_row([2, 3]));
        let applied = store.apply_batch(&batch).unwrap();
        engine.apply_batch(&applied, &store);
        let t = engine.telemetry();
        assert_eq!(t.folds_owned, 2);
        assert!(t.index_probes > seeded.index_probes);
        assert!(t.compensated_masks > 0, "insert must be masked somewhere");
        assert!(t.compensated_restores > 0, "delete must be restored");
        assert_eq!(t.deletion_index_builds, engine.deletion_index_builds());

        // Re-offering the same epoch is a shared-side hit, not a fold.
        engine.apply_batch(&applied, &store);
        let t2 = engine.telemetry();
        assert_eq!(t2.fold_hits_shared, 1);
        assert_eq!(t2.folds_owned, 2);
        assert_eq!(t2.index_probes, t.index_probes);

        let mut merged = CountingTelemetry::default();
        merged.merge(&t2);
        merged.merge(&t2);
        assert_eq!(merged.index_probes, 2 * t2.index_probes);
        engine.release_indexes(&mut store);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn probe_path_allocates_no_rows() {
        // `row_allocations` is process-wide and sibling tests allocate rows
        // while this one measures.  Their noise can only add to a reading, so
        // an upper bound that holds on any attempt holds; retry past the noise.
        let mut last = String::new();
        for _ in 0..50 {
            match probe_path_row_allocations() {
                Ok(()) => return,
                Err(over) => last = over,
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("{last}");
    }

    /// One measurement for `probe_path_allocates_no_rows`: `Err` names the
    /// bound a reading exceeded.
    #[cfg(feature = "telemetry")]
    fn probe_path_row_allocations() -> std::result::Result<(), String> {
        use dcq_storage::row_allocations;
        let mut store = store();
        let cq = parse_cq("P(x, z) :- Graph(x, y), Graph(y, z)").unwrap();
        // Seeding folds the whole store through the probe path; the only rows
        // it may allocate are the head tuples of the (delta-sized) result.
        let before = row_allocations();
        let mut engine = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
        let seeded = row_allocations() - before;
        let heads = engine.counts_ids().len() as u64;
        if seeded > heads {
            return Err(format!(
                "seed fold allocated {seeded} rows for {heads} head tuples — \
                 the probe path must allocate zero rows per probe"
            ));
        }
        assert!(engine.telemetry().index_probes > 0, "probes did happen");

        // A batch fold likewise allocates only delta-resolution rows (plus the
        // batch's own normalized row-space deltas built by the store), never
        // per probe: with 2 touched tuples the bound is a small constant.
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([2, 5]));
        batch.delete("Graph", int_row([4, 1]));
        let probes_before = engine.telemetry().index_probes;
        let before = row_allocations();
        let applied = store.apply_batch(&batch).unwrap();
        let delta = engine.apply_batch(&applied, &store);
        let allocated = row_allocations() - before;
        assert!(engine.telemetry().index_probes > probes_before);
        // Batch rows + normalized copies + head-delta resolutions + the
        // memoized clone: all delta-proportional.  8 tuples of traffic must
        // stay far below the dozens a per-probe materialization would cost.
        let bound = 4 * (batch.len() as u64 + delta.len() as u64) + 8;
        if allocated > bound {
            return Err(format!(
                "fold allocated {allocated} rows (bound {bound}) — probe path is not row-free"
            ));
        }
        engine.release_indexes(&mut store);
        Ok(())
    }

    #[test]
    fn partitioned_folds_are_bit_identical_to_sequential() {
        // Run the same batch script at every partition count and demand the
        // full deterministic surface match: counts, head deltas (order
        // included), epochs, and telemetry counters.
        let run = |partitions: usize| {
            let mut store = store();
            let cq = parse_cq("P(x, y, z) :- Graph(x, y), Graph(y, z), Graph(z, x)").unwrap();
            let mut engine =
                CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
            engine.set_fold_partitions(partitions);
            assert_eq!(engine.fold_partitions(), partitions.max(1));
            let mut deltas: Vec<HeadDelta> = Vec::new();
            let steps: Vec<(Row, i64)> = vec![
                (int_row([4, 2]), 1),
                (int_row([1, 4]), 1),
                (int_row([2, 3]), -1),
                (int_row([3, 3]), 1),
                (int_row([5, 5]), 1),
                (int_row([3, 3]), -1),
            ];
            for (row, sign) in steps {
                let mut batch = DeltaBatch::new();
                batch.push("Graph", row, sign);
                let applied = store.apply_batch(&batch).unwrap();
                deltas.push((*engine.apply_batch(&applied, &store)).clone());
            }
            let mut counts: Vec<(IdKey, i64)> = engine
                .counts_ids()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            counts.sort_unstable();
            if partitions > 1 {
                assert_eq!(engine.last_partition_ns().len(), partitions);
            }
            (deltas, counts, engine.epoch(), engine.telemetry())
        };
        let sequential = run(1);
        for partitions in [2, 3, 8] {
            assert_eq!(run(partitions), sequential, "diverged at K={partitions}");
        }
    }

    #[test]
    fn release_returns_registry_entries() {
        let mut store = store();
        let cq = parse_cq("P(x, z) :- Graph(x, y), Graph(y, z)").unwrap();
        let mut a = CountingCq::from_store(cq.clone(), cq.head_schema(), &mut store).unwrap();
        let plans = Arc::clone(a.plans());
        let mut b =
            CountingCq::from_store_with_plans(cq.clone(), cq.head_schema(), &mut store, plans)
                .unwrap();
        // Both engines share the same two physical indexes.
        assert_eq!(store.index_count(), 2);
        assert_eq!(store.index_stats().total_refs, 4);
        a.release_indexes(&mut store);
        assert_eq!(store.index_count(), 2);
        b.release_indexes(&mut store);
        assert_eq!(store.index_count(), 0, "last release frees the structures");
    }
}
