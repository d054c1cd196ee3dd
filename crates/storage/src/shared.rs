//! The shared, epoch-versioned store backing multi-view maintenance.
//!
//! `dcq-incremental`'s first iteration gave every maintained view a private
//! snapshot of the relations it referenced: `N` views over the same database held
//! `N` copies, and every view re-normalized every batch against its own membership
//! sets.  [`SharedDatabase`] is the replacement: **one** [`Database`] of record,
//! owned by an engine, with
//!
//! * a monotonically increasing **epoch** — every applied batch (or explicit
//!   [`SharedDatabase::tick`]) advances it, so consumers can record exactly which
//!   prefix of the update stream they reflect;
//! * **set-semantics invariants** enforced at the boundary — relations are
//!   deduplicated on ingest and every update goes through normalization, so reads
//!   never observe duplicates;
//! * **`O(|Δ|)` updates** — each relation's membership cache
//!   ([`Relation::cached_row_set`]) is warmed on first touch and maintained
//!   incrementally afterwards;
//! * an [`AppliedBatch`] summary per update carrying the **normalized per-relation
//!   deltas** in both row space and dictionary-id space, computed once and fanned
//!   out to every registered view instead of being recomputed per view.
//!
//! ## Flat interned execution storage
//!
//! The store keeps two coordinated representations of every relation:
//!
//! * the canonical row-space [`Relation`] (boxed [`Row`]s) — the public API,
//!   schema validation, one-shot evaluation, and serialization boundary;
//! * a flat id-space mirror — a per-store [`ValueDict`] interning every
//!   [`Value`](crate::Value) to a dense `u32`, and one [`RelationStore`] of
//!   `arity × len` `u32` columns per relation.
//!
//! Everything on the maintenance hot path (index buckets, delta-join probes,
//! support counts) runs in id space: [`SharedDatabase::apply_batch`] interns each
//! normalized delta **once** and fans the resulting [`IdDelta`]s out, so no
//! consumer hashes or clones a `Value` per probe.  The dictionary is append-only
//! — an id never changes meaning — which is what makes id-space snapshots
//! trivially consistent: any dictionary state at or after an epoch resolves every
//! id that existed at that epoch.
//!
//! Reads go through [`RelationRef`], a lightweight handle pairing the relation with
//! the epoch it was observed at; delta-join consumers additionally probe the
//! store's **index registry** ([`IndexRegistry`]) — refcounted hash indexes in
//! stored-column id coordinates, acquired per query plan and maintained exactly
//! once per applied batch no matter how many views share them.

use crate::database::Database;
use crate::delta::{normalize_delta, DeltaBatch, DeltaEffect};
use crate::dict::{DictSnapshot, DictStats, ValueDict};
use crate::fanout::WorkerPool;
use crate::flat::{IdDelta, RelationStore, ShardedRelationStore, STORE_SHARDS};
use crate::hash::{shard_of_ids, FastHashMap};
use crate::registry::{IndexId, IndexKey, IndexRegistry, IndexRegistryStats, IndexSnapshot};
use crate::relation::Relation;
use crate::row::Row;
use crate::schema::Schema;
use crate::{Result, StorageError};
use std::fmt;

/// A monotonically increasing version number of a [`SharedDatabase`].
///
/// Epoch `0` is the registration state; every applied batch (and every explicit
/// [`SharedDatabase::tick`]) advances it by one.
pub type Epoch = u64;

/// A single database of record shared by many maintained views.
///
/// The store deliberately exposes **no** direct mutable access to its relations:
/// every change goes through [`SharedDatabase::apply_batch`], which normalizes,
/// interns, applies, and versions the update in one pass.  That is what lets an
/// engine hand the resulting [`AppliedBatch`] to every registered view without
/// each view re-deriving the net effect.
#[derive(Clone, Default)]
pub struct SharedDatabase {
    db: Database,
    epoch: Epoch,
    indexes: IndexRegistry,
    /// Store-wide value dictionary: every value of every relation interned.
    dict: ValueDict,
    /// Flat id-space mirror of every relation — [`STORE_SHARDS`] hash-disjoint
    /// sub-stores each — maintained in lock-step with `db` by `apply_batch` /
    /// `add_relation` / `remove_relation`.
    flat: FastHashMap<String, ShardedRelationStore>,
    /// Workers the commit path ([`SharedDatabase::apply_batch`]) spreads its
    /// per-shard mirror and index maintenance over.  Pure scheduling: shard
    /// membership is fixed by [`STORE_SHARDS`], so contents are bit-identical
    /// at any width.  `0`/unset behaves as `1` (inline).
    commit_workers: usize,
    /// Cumulative interned delta rows routed to each shard — the skew gauges'
    /// backing counts.  Content-deterministic (row hashes, not scheduling).
    commit_shard_rows: Vec<u64>,
}

fn intern_relation(dict: &mut ValueDict, rel: &Relation) -> ShardedRelationStore {
    let mut store = ShardedRelationStore::new(rel.schema().arity());
    let mut ids: Vec<u32> = Vec::with_capacity(rel.schema().arity());
    for row in rel.iter() {
        ids.clear();
        ids.extend(row.iter().map(|v| dict.intern(v)));
        store.insert_ids(&ids);
    }
    store
}

impl SharedDatabase {
    /// Create an empty store at epoch `0`.
    pub fn empty() -> Self {
        SharedDatabase::default()
    }

    /// Take ownership of a database, deduplicating every relation (the store
    /// maintains set semantics as an invariant), interning its contents into the
    /// flat id-space mirror, and starting at epoch `0`.
    pub fn new(mut db: Database) -> Self {
        for name in db.relation_names() {
            db.get_mut(&name)
                .expect("name comes from the database")
                .dedup();
        }
        let mut dict = ValueDict::new();
        let mut flat = FastHashMap::default();
        for (name, rel) in db.iter() {
            flat.insert(name.clone(), intern_relation(&mut dict, rel));
        }
        SharedDatabase {
            db,
            epoch: 0,
            indexes: IndexRegistry::new(),
            dict,
            flat,
            commit_workers: 1,
            commit_shard_rows: vec![0; STORE_SHARDS],
        }
    }

    /// Take ownership of a database like [`SharedDatabase::new`], but start
    /// the epoch counter at `epoch` instead of `0`.
    ///
    /// This is the recovery constructor: a store rebuilt from a checkpoint
    /// taken at epoch `e` must keep numbering where the pre-crash store left
    /// off, or replayed batches and previously acknowledged epochs would no
    /// longer line up.
    pub fn new_at(db: Database, epoch: Epoch) -> Self {
        let mut store = SharedDatabase::new(db);
        store.epoch = epoch;
        store
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Advance the epoch without touching any relation.
    ///
    /// Used when a consumer wants the version counter to cover updates that were
    /// inspected but contained nothing for this store (e.g. a maintained view fed a
    /// batch that only touches unreferenced relations).
    pub fn tick(&mut self) -> Epoch {
        self.epoch += 1;
        self.epoch
    }

    /// Read-only access to the underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Consume the store, returning the underlying database.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// The store-wide value dictionary.
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// A cheap immutable snapshot of the dictionary (resolves every id assigned
    /// so far; see [`DictSnapshot`]).
    pub fn dict_snapshot(&self) -> DictSnapshot {
        self.dict.snapshot()
    }

    /// Point-in-time dictionary counters (entries, bytes, intern hit/miss).
    pub fn dict_stats(&self) -> DictStats {
        self.dict.stats()
    }

    /// The flat id-space mirror of one relation, if registered.
    pub fn flat(&self, name: &str) -> Option<&ShardedRelationStore> {
        self.flat.get(name)
    }

    /// Estimated **allocated** heap footprint of all flat relation buffers, in
    /// bytes (live cells plus free-listed holes and spare capacity).
    pub fn flat_bytes(&self) -> usize {
        self.flat
            .values()
            .map(ShardedRelationStore::approx_bytes)
            .sum()
    }

    /// Estimated heap bytes attributable to **live** flat rows only.  The gap
    /// to [`SharedDatabase::flat_bytes`] is reclaimable slack, bounded by the
    /// stores' compact-at-half-holes policy.
    pub fn flat_live_bytes(&self) -> usize {
        self.flat
            .values()
            .map(ShardedRelationStore::live_bytes)
            .sum()
    }

    /// Per-relation flat-buffer footprints `(name, live bytes, allocated
    /// bytes)`, in name order.
    pub fn flat_relation_bytes(&self) -> Vec<(String, usize, usize)> {
        let mut out: Vec<(String, usize, usize)> = self
            .flat
            .iter()
            .map(|(name, store)| (name.clone(), store.live_bytes(), store.approx_bytes()))
            .collect();
        out.sort();
        out
    }

    /// The commit width [`SharedDatabase::apply_batch`] spreads per-shard
    /// maintenance over.
    pub fn commit_workers(&self) -> usize {
        self.commit_workers.max(1)
    }

    /// Set the commit width (clamped to at least 1).  Scheduling only — store
    /// contents, epochs and telemetry counters are bit-identical at any width,
    /// because shard membership is fixed by [`STORE_SHARDS`].
    pub fn set_commit_workers(&mut self, workers: usize) {
        self.commit_workers = workers.max(1);
    }

    /// Cumulative interned delta rows routed to each of the [`STORE_SHARDS`]
    /// store shards — the basis of the shard-skew gauges.  Deterministic in
    /// the update stream's contents; independent of commit width.
    pub fn commit_shard_rows(&self) -> Vec<u64> {
        let mut rows = self.commit_shard_rows.clone();
        rows.resize(STORE_SHARDS, 0);
        rows
    }

    /// Resolve an id block back to a row through the dictionary.
    ///
    /// # Panics
    /// Panics if any id was never assigned.
    pub fn resolve_row(&self, ids: &[u32]) -> Row {
        Row::new(
            ids.iter()
                .map(|&id| self.dict.resolve(id).clone())
                .collect(),
        )
    }

    /// Translate a row of values to dictionary ids into `out` (cleared first).
    ///
    /// Returns `false` — with `out` left in an unspecified state — if any value
    /// was never interned, in which case the row cannot match anything stored.
    pub fn lookup_ids(&self, row: &Row, out: &mut Vec<u32>) -> bool {
        out.clear();
        for value in row.iter() {
            match self.dict.lookup(value) {
                Some(id) => out.push(id),
                None => return false,
            }
        }
        true
    }

    /// Register a new relation (deduplicated on ingest, interned into the flat
    /// mirror).
    ///
    /// Fails if a relation with the same name already exists, like
    /// [`Database::add`].
    pub fn add_relation(&mut self, mut relation: Relation) -> Result<()> {
        relation.dedup();
        let store = intern_relation(&mut self.dict, &relation);
        let name = relation.name().to_string();
        self.db.add(relation)?;
        self.flat.insert(name, store);
        Ok(())
    }

    /// Remove a relation, returning it if present.  Registry indexes over it are
    /// dropped (outstanding [`IndexId`]s over it become dead and probe empty),
    /// and the flat mirror is discarded.  Dictionary ids are never reclaimed —
    /// the id space is append-only by design.
    pub fn remove_relation(&mut self, name: &str) -> Option<Relation> {
        self.indexes.drop_relation(name);
        self.flat.remove(name);
        self.db.remove(name)
    }

    /// A versioned read handle on one relation.
    pub fn relation(&self, name: &str) -> Result<RelationRef<'_>> {
        Ok(RelationRef {
            store: self,
            relation: self.db.get(name)?,
            epoch: self.epoch,
        })
    }

    /// Find-or-build the shared index identified by `key`, bumping its refcount.
    ///
    /// Validates the key against the relation's schema (every referenced position
    /// must exist).  A fresh index costs one `O(N)` build over the current flat
    /// contents; a live one is reused as-is — it has been maintained under every
    /// batch since it was built.  Pair every acquisition with a
    /// [`SharedDatabase::release_index`].
    pub fn acquire_index(&mut self, key: IndexKey) -> Result<IndexId> {
        let relation = self.db.get(&key.relation)?;
        let arity = relation.schema().arity();
        let out_of_range = key
            .key_positions
            .iter()
            .chain(key.equalities.iter().flat_map(|(a, b)| [a, b]))
            .any(|&p| p >= arity);
        if out_of_range {
            return Err(StorageError::ArityMismatch {
                relation: key.relation.clone(),
                expected: arity,
                actual: key
                    .key_positions
                    .iter()
                    .chain(key.equalities.iter().flat_map(|(a, b)| [a, b]))
                    .max()
                    .copied()
                    .unwrap_or(0)
                    + 1,
            });
        }
        let flat = self
            .flat
            .get(&key.relation)
            .expect("every registered relation has a flat mirror");
        Ok(self.indexes.acquire(key, flat, self.epoch))
    }

    /// Drop one reference on a shared index; the structure is freed when the last
    /// holder releases.
    pub fn release_index(&mut self, id: IndexId) {
        self.indexes.release(id);
    }

    /// Contiguous row blocks of the index `id` matching the key ids, or an empty
    /// slice — the zero-allocation probe the delta-join hot path runs on.
    ///
    /// Blocks are at the index's [`stride`](crate::registry::SharedIndex::stride)
    /// in stored-column coordinates; consumers project with their plan's
    /// positions and resolve ids only at result boundaries.
    pub fn probe_index_ids(&self, id: IndexId, key: &[u32]) -> &[u32] {
        self.indexes.probe_ids(id, key)
    }

    /// Stored rows of the index `id` matching `key`, resolved back to row space.
    ///
    /// Convenience/compatibility wrapper over [`SharedDatabase::probe_index_ids`]:
    /// translates the probe key through the dictionary (a never-interned value
    /// matches nothing) and materializes the matching blocks as [`Row`]s.  Hot
    /// paths should probe in id space instead.
    pub fn probe_index(&self, id: IndexId, key: &Row) -> Vec<Row> {
        let mut key_ids = Vec::with_capacity(key.arity());
        if !self.lookup_ids(key, &mut key_ids) {
            return Vec::new();
        }
        let Some(entry) = self.indexes.get(id) else {
            return Vec::new();
        };
        let (arity, stride) = (entry.arity(), entry.stride());
        entry
            .probe_ids(&key_ids)
            .chunks_exact(stride)
            .map(|block| self.resolve_row(&block[..arity]))
            .collect()
    }

    /// The registry entry behind `id`, if it is live.
    pub fn index(&self, id: IndexId) -> Option<&crate::registry::SharedIndex> {
        self.indexes.get(id)
    }

    /// Number of live shared indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Estimated heap footprint of all live shared indexes in bytes.
    pub fn index_bytes(&self) -> usize {
        self.indexes.approx_bytes()
    }

    /// Point-in-time registry counters.
    pub fn index_stats(&self) -> IndexRegistryStats {
        self.indexes.stats()
    }

    /// Cumulative index-maintenance telemetry (COW clones vs. in-place writes,
    /// snapshot pins); all zero without the `telemetry` feature.
    pub fn index_telemetry(&self) -> crate::registry::IndexTelemetry {
        self.indexes.telemetry()
    }

    /// An epoch-stamped, immutable snapshot of every live shared index.
    ///
    /// Snapshots are cheap (one `Arc` clone per live index), `Send + Sync`, and
    /// probe **lock-free** through the same [`IndexId`]s the store hands out —
    /// and they stay pinned at this epoch: later [`SharedDatabase::apply_batch`]
    /// calls maintain the live registry copy-on-write, never the snapshotted
    /// entries.  This is how a long-running front-end overlaps reads with the
    /// update stream: queries probe their snapshot without blocking (or being
    /// torn by) writers, while the steady state without outstanding snapshots
    /// pays zero copies.  Pair with [`SharedDatabase::dict_snapshot`] to resolve
    /// ids — the dictionary is append-only, so the pairing can never dangle.
    pub fn index_snapshot(&self) -> IndexSnapshot {
        self.indexes.snapshot(self.epoch)
    }

    /// `true` iff a relation with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.db.contains(name)
    }

    /// Names of all registered relations, in sorted order.
    pub fn relation_names(&self) -> Vec<String> {
        self.db.relation_names()
    }

    /// Total number of tuples across all relations.
    pub fn input_size(&self) -> usize {
        self.db.input_size()
    }

    /// Estimated heap footprint in bytes (row-space representation; see
    /// [`SharedDatabase::flat_bytes`] for the id-space mirror).
    pub fn approx_bytes(&self) -> usize {
        self.db.approx_bytes()
    }

    /// Apply one delta batch: validate, normalize each relation's operations
    /// against its (cached) membership, intern the net delta to id space, apply
    /// both representations in place, and advance the epoch.
    ///
    /// The whole batch is validated before anything mutates — unknown relations or
    /// arity mismatches leave the store (and its epoch) untouched.  The returned
    /// [`AppliedBatch`] carries the normalized per-relation deltas in both row
    /// and id space, so that `N` consumers can share one normalization and one
    /// interning pass.
    ///
    /// ## Sharded commit
    ///
    /// The commit runs in two phases behind the single epoch advance:
    ///
    /// 1. **Sequential** — row-space normalization and application, and
    ///    dictionary interning (id assignment must stay ordered to keep the
    ///    id space deterministic).
    /// 2. **Parallel** — every relation mirror and every touched shared index
    ///    is split into its [`STORE_SHARDS`] hash-disjoint shards, and the
    ///    per-shard sub-deltas run one task per `(structure, shard)` on the
    ///    [commit worker pool](SharedDatabase::set_commit_workers).  Shard
    ///    membership is a pure row-hash function, so the result is
    ///    bit-identical to a sequential commit at any width.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<AppliedBatch> {
        for (name, raw) in batch.iter() {
            let rel = self.db.get(name)?;
            for (row, _) in raw {
                if row.arity() != rel.schema().arity() {
                    return Err(StorageError::ArityMismatch {
                        relation: name.to_string(),
                        expected: rel.schema().arity(),
                        actual: row.arity(),
                    });
                }
            }
        }
        let mut effect = DeltaEffect::default();
        let mut normalized = Vec::with_capacity(batch.relations().count());
        let mut interned: Vec<(String, IdDelta)> = Vec::with_capacity(batch.relations().count());
        let next_epoch = self.epoch + 1;
        let mut ids: Vec<u32> = Vec::new();
        // Phase 1 (sequential): normalize and apply row space, intern the
        // normalized delta once; every index and every counting side
        // downstream consumes these ids instead of hashing values.
        for (name, raw) in batch.iter() {
            let rel = self.db.get_mut(name).expect("validated above");
            let arity = rel.schema().arity();
            let delta = normalize_delta(rel.cached_row_set(), raw);
            effect.absorb(rel.apply_normalized_delta(&delta));
            let mut id_delta = IdDelta::new(arity);
            for (row, sign) in &delta {
                ids.clear();
                ids.extend(row.iter().map(|v| self.dict.intern(v)));
                id_delta.push(&ids, *sign);
            }
            self.commit_shard_rows.resize(STORE_SHARDS, 0);
            for (row, _) in id_delta.iter() {
                self.commit_shard_rows[shard_of_ids(row, STORE_SHARDS)] += 1;
            }
            normalized.push((name.to_string(), delta));
            interned.push((name.to_string(), id_delta));
        }
        // Phase 2 (parallel): per-shard mirror maintenance, one task per
        // (relation, shard); rows of different shards never touch the same
        // sub-store, so the tasks borrow disjoint `&mut` state.
        let pool = WorkerPool::new(self.commit_workers());
        struct MirrorTask<'a> {
            shard: &'a mut RelationStore,
            shard_idx: usize,
            delta: &'a IdDelta,
        }
        let mut mirror_tasks: Vec<MirrorTask<'_>> = Vec::new();
        for (name, sharded) in self.flat.iter_mut() {
            let touching = interned
                .iter()
                .find(|(touched, delta)| touched == name && !delta.is_empty());
            let Some((_, delta)) = touching else {
                continue;
            };
            for (shard_idx, shard) in sharded.shards_mut().iter_mut().enumerate() {
                mirror_tasks.push(MirrorTask {
                    shard,
                    shard_idx,
                    delta,
                });
            }
        }
        pool.run(mirror_tasks, |_, t| {
            t.shard
                .apply_delta_routed(t.delta, t.shard_idx, STORE_SHARDS)
        });
        // Maintain every registered index over the touched relations exactly
        // once — this is the pass N sharing views used to pay N times — one
        // task per (index, shard).  Touched entries are stamped with the epoch
        // this batch advances to; an outstanding snapshot forces a
        // copy-on-write, so its readers keep their epoch while the live
        // registry moves on.
        self.indexes
            .apply_batch_deltas(&interned, next_epoch, &pool);
        self.epoch = next_epoch;
        Ok(AppliedBatch {
            epoch: self.epoch,
            effect,
            normalized,
            interned,
        })
    }
}

impl fmt::Debug for SharedDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SharedDatabase[epoch {}, {} relations, {} tuples, {} indexes, {} dict entries]",
            self.epoch,
            self.db.relation_count(),
            self.db.input_size(),
            self.indexes.len(),
            self.dict.len()
        )
    }
}

/// A lightweight, versioned read handle on one relation of a [`SharedDatabase`].
///
/// The handle records the store epoch it was taken at, so a consumer holding
/// results derived through it can tell exactly which update-stream prefix they
/// reflect.
#[derive(Clone, Copy)]
pub struct RelationRef<'a> {
    store: &'a SharedDatabase,
    relation: &'a Relation,
    epoch: Epoch,
}

impl<'a> RelationRef<'a> {
    /// The underlying relation.
    pub fn relation(&self) -> &'a Relation {
        self.relation
    }

    /// The relation's flat id-space mirror.
    pub fn flat(&self) -> &'a ShardedRelationStore {
        self.store
            .flat(self.relation.name())
            .expect("every registered relation has a flat mirror")
    }

    /// Probe a shared index of the owning store through this handle, resolving
    /// matches back to row space.
    ///
    /// The index must be over **this** relation (checked in debug builds); rows
    /// come back as full stored rows, equality-filtered at maintenance time.
    /// Hot paths should use [`SharedDatabase::probe_index_ids`] instead.
    pub fn probe(&self, id: IndexId, key: &Row) -> Vec<Row> {
        debug_assert!(
            self.store
                .index(id)
                .is_none_or(|e| e.key().relation == self.relation.name()),
            "probe of an index over a different relation"
        );
        self.store.probe_index(id, key)
    }

    /// The store epoch this handle was taken at.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The relation's name.
    pub fn name(&self) -> &'a str {
        self.relation.name()
    }

    /// The relation's schema.
    pub fn schema(&self) -> &'a Schema {
        self.relation.schema()
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// `true` iff the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// The stored rows (distinct — the store maintains set semantics).
    pub fn rows(&self) -> &'a [Row] {
        self.relation.rows()
    }
}

impl fmt::Debug for RelationRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RelationRef[{} @ epoch {}, {} rows]",
            self.relation.name(),
            self.epoch,
            self.relation.len()
        )
    }
}

/// The record of one batch applied to a [`SharedDatabase`]: the epoch it advanced
/// the store to, the net effect, and the **normalized** per-relation deltas in
/// both row space and dictionary-id space.
///
/// Normalization and interning happen once here; every registered view then
/// consumes the same net deltas instead of re-deriving them against private
/// membership sets.
#[derive(Clone, Debug, Default)]
pub struct AppliedBatch {
    /// The epoch the store advanced to by applying this batch.
    pub epoch: Epoch,
    /// Net tuples inserted / deleted across all touched relations.
    pub effect: DeltaEffect,
    /// Per touched relation (in batch order): the net set-semantics delta.  A
    /// relation whose operations all normalized away is present with an empty
    /// delta — consumers can distinguish "touched but redundant" from "untouched".
    pub normalized: Vec<(String, Vec<(Row, i64)>)>,
    /// The same deltas in dictionary-id space (same relation order, same row
    /// order) — what the maintenance hot path consumes.
    pub interned: Vec<(String, IdDelta)>,
}

impl AppliedBatch {
    /// An applied batch that touched nothing (an epoch tick).
    pub fn noop(epoch: Epoch) -> Self {
        AppliedBatch {
            epoch,
            ..AppliedBatch::default()
        }
    }

    /// `true` iff the batch touched `relation` (even if its operations all
    /// normalized away).
    pub fn touches(&self, relation: &str) -> bool {
        self.normalized.iter().any(|(name, _)| name == relation)
    }

    /// The normalized delta against `relation`, if the batch touched it.
    pub fn normalized_ops(&self, relation: &str) -> Option<&[(Row, i64)]> {
        self.normalized
            .iter()
            .find(|(name, _)| name == relation)
            .map(|(_, ops)| ops.as_slice())
    }

    /// The interned delta against `relation`, if the batch touched it.
    pub fn interned_ops(&self, relation: &str) -> Option<&IdDelta> {
        self.interned
            .iter()
            .find(|(name, _)| name == relation)
            .map(|(_, delta)| delta)
    }

    /// `true` iff no tuple actually changed.
    pub fn is_noop(&self) -> bool {
        self.effect.total() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    fn store() -> SharedDatabase {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![vec![1, 2], vec![2, 3], vec![1, 2]], // duplicate on purpose
        ))
        .unwrap();
        db.add(Relation::from_int_rows("Node", &["id"], vec![vec![1]]))
            .unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn ingest_dedups_and_starts_at_epoch_zero() {
        let store = store();
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.relation("Graph").unwrap().len(), 2);
        assert!(store.contains("Node"));
        assert_eq!(store.relation_names(), vec!["Graph", "Node"]);
    }

    #[test]
    fn flat_mirror_tracks_the_row_space() {
        let mut store = store();
        // Ingest interned every distinct value: 1, 2, 3.
        assert_eq!(store.dict().len(), 3);
        let graph = store.flat("Graph").unwrap();
        assert_eq!((graph.arity(), graph.len()), (2, 2));
        assert_eq!(store.flat("Node").unwrap().len(), 1);
        assert!(store.flat("Missing").is_none());
        assert!(store.flat_bytes() > 0);
        let per_rel = store.flat_relation_bytes();
        assert_eq!(per_rel.len(), 2);
        assert_eq!(per_rel[0].0, "Graph");

        // Applying a batch keeps the mirror in lock-step and extends the dict.
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([9, 1]));
        batch.delete("Graph", int_row([2, 3]));
        let applied = store.apply_batch(&batch).unwrap();
        assert_eq!(store.flat("Graph").unwrap().len(), 2);
        assert_eq!(store.dict().len(), 4, "only 9 is new");
        let id_delta = applied.interned_ops("Graph").unwrap();
        assert_eq!(id_delta.len(), 2);
        // Interned rows resolve back to the row-space delta, in order.
        let rows: Vec<(Row, i64)> = id_delta
            .iter()
            .map(|(ids, sign)| (store.resolve_row(ids), sign))
            .collect();
        let mut expect = applied.normalized_ops("Graph").unwrap().to_vec();
        expect.sort();
        let mut rows_sorted = rows.clone();
        rows_sorted.sort();
        assert_eq!(rows_sorted, expect);
        assert!(applied.interned_ops("Missing").is_none());

        // lookup_ids round-trips stored rows and rejects unseen values.
        let mut ids = Vec::new();
        assert!(store.lookup_ids(&int_row([9, 1]), &mut ids));
        assert!(store.flat("Graph").unwrap().contains_ids(&ids));
        assert!(!store.lookup_ids(&int_row([404]), &mut ids));
        let stats = store.dict_stats();
        assert_eq!(stats.entries, 4);
        let snap = store.dict_snapshot();
        assert_eq!(snap.len(), 4);
    }

    #[test]
    fn apply_batch_normalizes_versions_and_warms_cache() {
        let mut store = store();
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([1, 2])); // already present → no-op
        batch.insert("Graph", int_row([9, 9]));
        batch.delete("Graph", int_row([2, 3]));
        batch.delete("Node", int_row([7])); // absent → no-op
        let applied = store.apply_batch(&batch).unwrap();
        assert_eq!(applied.epoch, 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(applied.effect.inserted, 1);
        assert_eq!(applied.effect.deleted, 1);
        assert!(applied.touches("Graph") && applied.touches("Node"));
        assert_eq!(applied.normalized_ops("Node"), Some(&[][..]));
        assert!(applied.normalized_ops("Missing").is_none());
        assert!(applied.interned_ops("Node").unwrap().is_empty());
        let mut ops = applied.normalized_ops("Graph").unwrap().to_vec();
        ops.sort();
        assert_eq!(ops, vec![(int_row([2, 3]), -1), (int_row([9, 9]), 1)]);
        // The membership cache stays warm for the next O(|Δ|) application.
        assert!(store.database().get("Graph").unwrap().row_cache_is_warm());
        let handle = store.relation("Graph").unwrap();
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.len(), 2);
        assert_eq!(handle.flat().len(), 2);
    }

    #[test]
    fn failed_validation_leaves_store_untouched() {
        let mut store = store();
        let mut bad = DeltaBatch::new();
        bad.insert("Graph", int_row([1, 2, 3]));
        assert!(matches!(
            store.apply_batch(&bad),
            Err(StorageError::ArityMismatch { .. })
        ));
        let mut unknown = DeltaBatch::new();
        unknown.insert("Missing", int_row([1]));
        assert!(store.apply_batch(&unknown).is_err());
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.input_size(), 3);
        assert_eq!(store.dict().len(), 3, "no stray interning on failure");
    }

    #[test]
    fn tick_advances_epoch_without_changes() {
        let mut store = store();
        assert_eq!(store.tick(), 1);
        assert_eq!(store.tick(), 2);
        assert_eq!(store.input_size(), 3);
        let noop = AppliedBatch::noop(2);
        assert!(noop.is_noop());
        assert!(!noop.touches("Graph"));
    }

    #[test]
    fn add_and_remove_relations() {
        let mut store = SharedDatabase::empty();
        store
            .add_relation(Relation::from_int_rows(
                "R",
                &["a"],
                vec![vec![1], vec![1], vec![2]],
            ))
            .unwrap();
        assert_eq!(store.relation("R").unwrap().len(), 2);
        assert_eq!(store.flat("R").unwrap().len(), 2);
        assert!(store
            .add_relation(Relation::from_int_rows("R", &["a"], vec![]))
            .is_err());
        let removed = store.remove_relation("R").unwrap();
        assert_eq!(removed.name(), "R");
        assert!(store.relation("R").is_err());
        assert!(store.flat("R").is_none());
        assert_eq!(store.into_database().relation_count(), 0);
    }

    #[test]
    fn shared_indexes_are_acquired_probed_and_batch_maintained() {
        let mut store = store();
        let key = IndexKey {
            relation: "Graph".into(),
            equalities: vec![],
            key_positions: vec![1],
        };
        let id = store.acquire_index(key.clone()).unwrap();
        let again = store.acquire_index(key).unwrap();
        assert_eq!(id, again, "same key shares one refcounted entry");
        assert_eq!(store.index_count(), 1);
        assert_eq!(store.index_stats().total_refs, 2);
        assert!(store.index_bytes() > 0);
        assert_eq!(store.probe_index(id, &int_row([2])), &[int_row([1, 2])]);
        // A probe key containing a never-interned value matches nothing.
        assert!(store.probe_index(id, &int_row([404])).is_empty());

        // One apply_batch maintains the index (no per-view work anywhere).
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([7, 2]));
        batch.delete("Graph", int_row([1, 2]));
        store.apply_batch(&batch).unwrap();
        assert_eq!(store.probe_index(id, &int_row([2])), &[int_row([7, 2])]);
        let handle = store.relation("Graph").unwrap();
        assert_eq!(handle.probe(id, &int_row([2])), &[int_row([7, 2])]);
        // The same probe in id space returns the interned block directly.
        let mut key_ids = Vec::new();
        assert!(store.lookup_ids(&int_row([2]), &mut key_ids));
        let blocks = store.probe_index_ids(id, &key_ids);
        assert_eq!(blocks.len(), 2);
        assert_eq!(store.resolve_row(blocks), int_row([7, 2]));

        // Bad keys are rejected; removal of the relation kills its indexes.
        assert!(store
            .acquire_index(IndexKey {
                relation: "Graph".into(),
                equalities: vec![(0, 5)],
                key_positions: vec![0],
            })
            .is_err());
        assert!(store
            .acquire_index(IndexKey {
                relation: "Missing".into(),
                equalities: vec![],
                key_positions: vec![0],
            })
            .is_err());
        store.remove_relation("Graph");
        assert!(store.probe_index(id, &int_row([2])).is_empty());
        assert_eq!(store.index_count(), 0);

        // Releasing after the fact is a harmless no-op.
        store.release_index(id);
        store.release_index(again);
    }

    #[test]
    fn index_snapshots_read_their_epoch_while_the_store_advances() {
        let mut store = store();
        let id = store
            .acquire_index(IndexKey {
                relation: "Graph".into(),
                equalities: vec![],
                key_positions: vec![0],
            })
            .unwrap();
        let snap = store.index_snapshot();
        assert_eq!(snap.epoch(), 0);
        let mut one = Vec::new();
        assert!(store.lookup_ids(&int_row([1]), &mut one));
        assert_eq!(store.resolve_row(snap.probe_ids(id, &one)), int_row([1, 2]));

        // Commit a batch: the live index moves to epoch 1, the snapshot stays
        // pinned at epoch 0 (the write copied the entry, not mutated it).
        let mut batch = DeltaBatch::new();
        batch.delete("Graph", int_row([1, 2]));
        batch.insert("Graph", int_row([1, 9]));
        store.apply_batch(&batch).unwrap();
        assert_eq!(store.resolve_row(snap.probe_ids(id, &one)), int_row([1, 2]));
        assert_eq!(snap.get(id).unwrap().epoch(), 0);
        assert_eq!(store.probe_index(id, &int_row([1])), &[int_row([1, 9])]);
        assert_eq!(store.index(id).unwrap().epoch(), 1);
        assert_eq!(store.index_snapshot().epoch(), 1);
    }

    #[test]
    fn relation_ref_accessors() {
        let store = store();
        let r = store.relation("Graph").unwrap();
        assert_eq!(r.name(), "Graph");
        assert_eq!(r.schema().arity(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.rows().len(), r.len());
        assert_eq!(r.relation().name(), "Graph");
        assert_eq!(r.flat().arity(), 2);
        assert!(format!("{r:?}").contains("epoch 0"));
        assert!(format!("{store:?}").contains("SharedDatabase"));
    }

    /// A scripted batch sequence over two relations with an index on each.
    fn run_commit_script(workers: usize) -> SharedDatabase {
        let mut db = Database::new();
        db.add(Relation::from_int_rows("Graph", &["src", "dst"], vec![]))
            .unwrap();
        db.add(Relation::from_int_rows("Node", &["id"], vec![]))
            .unwrap();
        let mut store = SharedDatabase::new(db);
        store.set_commit_workers(workers);
        store
            .acquire_index(IndexKey {
                relation: "Graph".into(),
                equalities: vec![],
                key_positions: vec![1],
            })
            .unwrap();
        store
            .acquire_index(IndexKey {
                relation: "Node".into(),
                equalities: vec![],
                key_positions: vec![0],
            })
            .unwrap();
        for step in 0..6i64 {
            let mut batch = DeltaBatch::new();
            for i in 0..40 {
                batch.insert("Graph", int_row([step * 40 + i, i % 7]));
                batch.insert("Node", int_row([step * 40 + i]));
            }
            if step > 1 {
                for i in 0..30 {
                    batch.delete("Graph", int_row([(step - 2) * 40 + i, i % 7]));
                    batch.delete("Node", int_row([(step - 2) * 40 + i]));
                }
            }
            store.apply_batch(&batch).unwrap();
        }
        store
    }

    #[test]
    fn sharded_commit_is_bit_identical_across_worker_counts() {
        let seq = run_commit_script(1);
        for workers in [2, 4, 7] {
            let par = run_commit_script(workers);
            assert_eq!(par.epoch(), seq.epoch());
            for name in ["Graph", "Node"] {
                let (s, p) = (seq.flat(name).unwrap(), par.flat(name).unwrap());
                assert_eq!(p.len(), s.len(), "{name} len at {workers} workers");
                assert_eq!(
                    p.to_insert_delta().iter().collect::<Vec<_>>(),
                    s.to_insert_delta().iter().collect::<Vec<_>>(),
                    "{name} mirror content at {workers} workers"
                );
            }
            assert_eq!(par.index_bytes(), seq.index_bytes());
            assert_eq!(
                par.index_stats().indexed_rows,
                seq.index_stats().indexed_rows
            );
            assert_eq!(par.commit_shard_rows(), seq.commit_shard_rows());
            assert_eq!(par.flat_live_bytes(), seq.flat_live_bytes());
            assert_eq!(par.flat_bytes(), seq.flat_bytes());
        }
    }

    #[test]
    fn commit_shard_rows_accounts_every_routed_row() {
        let store = run_commit_script(4);
        let shard_rows = store.commit_shard_rows();
        assert_eq!(shard_rows.len(), STORE_SHARDS);
        // 6 steps × 80 inserts + 4 steps × 60 deletes, all net-effective.
        let total: u64 = shard_rows.iter().sum();
        assert_eq!(total, 6 * 80 + 4 * 60);
        assert!(
            shard_rows.iter().filter(|&&n| n > 0).count() >= 2,
            "hash routing should spread rows over shards: {shard_rows:?}"
        );
    }

    #[test]
    fn flat_relation_bytes_reports_live_and_allocated() {
        let store = run_commit_script(1);
        let per_rel = store.flat_relation_bytes();
        assert_eq!(per_rel.len(), 2);
        let mut live_total = 0;
        let mut alloc_total = 0;
        for (name, live, allocated) in &per_rel {
            assert!(!name.is_empty());
            assert!(
                live <= allocated,
                "{name}: live {live} > allocated {allocated}"
            );
            live_total += live;
            alloc_total += allocated;
        }
        assert_eq!(live_total, store.flat_live_bytes());
        assert_eq!(alloc_total, store.flat_bytes());
    }
}
