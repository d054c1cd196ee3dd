//! The shared index registry of a [`SharedDatabase`](crate::SharedDatabase).
//!
//! Delta-join maintenance (the counting engines of `dcq-incremental`) needs, per
//! atom occurrence, a hash index over a stored relation keyed by the occurrence's
//! join key.  When the views owned those indexes, `N` distinct-but-overlapping
//! views paid `N×` memory and `N×` index maintenance per batch for what is, per
//! distinct `(relation, equality signature, key columns)` triple, the **same**
//! structure.  The registry moves index ownership into the storage layer:
//!
//! * an index is identified by its [`IndexKey`] — the stored relation, the
//!   repeated-variable equality constraints of the atom (`(earlier, later)`
//!   stored-column pairs that must be equal), and the key column positions.  All
//!   three are expressed in **stored-column coordinates**, so α-renamed atoms of
//!   different queries that probe the same structure share one entry;
//! * entries are **refcounted**: [`IndexRegistry::acquire`] builds the index from
//!   the current flat store contents on first use (`O(N)` once) and bumps a
//!   refcount afterwards, [`IndexRegistry::release`] drops the entry when its
//!   last user deregisters;
//! * maintenance happens **once per applied batch**, inside
//!   [`SharedDatabase::apply_batch`](crate::SharedDatabase::apply_batch): every
//!   registered index over a touched relation folds in the interned delta,
//!   no matter how many views probe it.
//!
//! ## Flat interned buckets
//!
//! Since the flat-storage refactor, buckets hold **contiguous dictionary-id
//! arrays**, not hashed full-row `Vec<Row>`s: a bucket is one `Vec<u32>` of row
//! blocks at stride [`SharedIndex::stride`], keyed by the packed key ids
//! ([`IdKey`]).  A probe hashes a borrowed `&[u32]` (no allocation) and returns
//! the matching block slice — cache-linear to scan, roughly an order of
//! magnitude smaller than the row-bucket representation, and free of per-row
//! pointer chasing.  Because value interning is injective, equality filters and
//! key hashing reduce to `u32` compares.  Consumers resolve ids back to
//! [`Value`](crate::Value)s only at result boundaries, through the store's
//! dictionary.
//!
//! ## Threading model: lock-free readers, exclusive writers
//!
//! Every live entry is held as an [`Arc<SharedIndex>`] and stamped with the
//! store epoch it was last maintained at.  Reads ([`IndexRegistry::probe_ids`],
//! [`IndexRegistry::get`]) take `&self` and touch no lock — under Rust's
//! aliasing rules they may run from any number of threads concurrently, which
//! is what lets an engine fan per-view delta joins out across workers while the
//! store is borrowed shared.  Writes (acquire / release / per-batch
//! maintenance) take `&mut self` — exclusive per
//! [`AppliedBatch`](crate::AppliedBatch), exactly like the store epoch — and go
//! through [`Arc::make_mut`]: when no snapshot is outstanding the entry is
//! updated in place (refcount 1, zero copies); when a reader still holds an
//! [`IndexSnapshot`], the write copies the entry first, so the snapshot keeps
//! observing the exact epoch it was taken at while the store moves on.  That is
//! the read path a long-running service front-end needs: queries grab a
//! snapshot, probe it lock-free for as long as they like, and never block (or
//! get torn by) the update stream.

use crate::fanout::WorkerPool;
use crate::flat::{IdDelta, ShardedRelationStore, STORE_SHARDS};
use crate::hash::{map_with_capacity, set_with_capacity, shard_of_ids, FastHashMap, FastHashSet};
use crate::idkey::IdKey;
use crate::row::Row;
use crate::shared::Epoch;
use crate::tele;
use std::fmt;
use std::sync::Arc;

/// The identity of one shared index, in stored-column coordinates.
///
/// Two atoms (of any queries) that scan the same relation with the same
/// repeated-variable pattern and probe on the same columns map to the same key —
/// variable spellings never participate.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct IndexKey {
    /// Name of the indexed stored relation.
    pub relation: String,
    /// `(earlier, later)` stored positions that must be equal (the atom's
    /// repeated-variable filter); rows failing it are not indexed.
    pub equalities: Vec<(usize, usize)>,
    /// Stored positions forming the probe key, in canonical (first-occurrence)
    /// order.
    pub key_positions: Vec<usize>,
}

impl IndexKey {
    /// `true` iff `row` satisfies the equality constraints.
    pub fn admits(&self, row: &Row) -> bool {
        self.equalities
            .iter()
            .all(|&(a, b)| row.get(a) == row.get(b))
    }

    /// `true` iff the interned row block satisfies the equality constraints.
    /// Interning is injective, so id equality *is* value equality.
    pub fn admits_ids(&self, ids: &[u32]) -> bool {
        self.equalities.iter().all(|&(a, b)| ids[a] == ids[b])
    }
}

impl fmt::Display for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[key {:?}, eq {:?}]",
            self.relation, self.key_positions, self.equalities
        )
    }
}

/// A handle naming one acquired registry entry.
///
/// Handles stay valid from [`IndexRegistry::acquire`] until the matching
/// [`IndexRegistry::release`] drops the last reference; acquiring the same
/// [`IndexKey`] again returns an equal id.  A generation counter is stamped
/// into every handle, so a stale id whose slot was torn down (last release, or
/// [`IndexRegistry::drop_relation`]) and later reused by a different index can
/// neither probe nor release the slot's new tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IndexId {
    slot: usize,
    generation: u64,
}

/// One shared hash index over a stored relation, in dictionary-id space.
///
/// The structure itself is immutable data behind an [`Arc`]; the owning
/// registry tracks the refcount in its slot and mutates entries copy-on-write,
/// so a [`SharedIndex`] reached through an [`IndexSnapshot`] never changes
/// underneath its reader.
#[derive(Clone)]
pub struct SharedIndex {
    key: IndexKey,
    /// Ids per stored row (the indexed relation's arity).
    arity: usize,
    /// [`STORE_SHARDS`] hash-disjoint bucket sets: a row's buckets live in the
    /// shard its **key projection** routes to, so one probe touches exactly
    /// one shard (same `O(1)` lookup) and a batch delta decomposes into
    /// per-shard sub-deltas the commit path maintains on independent workers.
    /// The shard count is fixed — never worker-derived — so index contents and
    /// `approx_bytes` are bit-identical at any commit width.
    shards: Vec<Buckets>,
    /// Number of indexed rows (equality-filtered), across all shards.
    rows: usize,
    /// The store epoch this index's contents were last changed at (its build
    /// epoch until the first touching batch).
    epoch: Epoch,
}

/// Physical bucket storage of a [`SharedIndex`], chosen from the key shape.
#[derive(Clone)]
enum Buckets {
    /// The general shape: packed key projection → contiguous row blocks.
    Keyed(FastHashMap<IdKey, Vec<u32>>),
    /// Full-cover identity key (`key_positions == 0..arity`): the probe key
    /// *is* the stored block, and the store is set-semantics, so a bucket is
    /// always exactly one block equal to its own key.  Storing a membership
    /// set of packed rows drops the 24-byte `Vec` header every map slot would
    /// otherwise carry — on a whole-row index that header outweighs the row
    /// data itself several times over.  Probes answer out of the set's own
    /// key storage.
    Whole(FastHashSet<IdKey>),
}

impl Buckets {
    fn for_shape(key: &IndexKey, arity: usize, row_hint: usize) -> Buckets {
        let identity = key.key_positions.len() == arity
            && key.key_positions.iter().enumerate().all(|(i, &p)| i == p);
        if identity && arity > 0 {
            // Whole-row keys: one entry per indexed row, known up front.
            Buckets::Whole(set_with_capacity(row_hint))
        } else {
            // Keys are typically a small fraction of rows; seed low and let
            // the build grow the table, then shrink to fit.  A permanently
            // row-count-sized table is what `approx_bytes` charges at
            // 56B/slot, dwarfing the 4B/id payload.
            Buckets::Keyed(map_with_capacity(row_hint / 8))
        }
    }

    /// Insert one row block under its key projection.
    fn push_block(&mut self, arity: usize, key: &[u32], ids: &[u32]) {
        match self {
            Buckets::Keyed(map) => {
                let bucket = map.entry(IdKey::from_slice(key)).or_default();
                if arity == 0 {
                    bucket.push(0);
                } else {
                    bucket.extend_from_slice(ids);
                }
            }
            Buckets::Whole(set) => {
                // Deltas are store-normalized, so an insert is always of a row
                // the (set-semantics) store did not hold.
                let fresh = set.insert(IdKey::from_slice(ids));
                debug_assert!(fresh, "whole-row index saw a duplicate insert");
            }
        }
    }

    /// Delete one row block; `true` iff it was present.
    fn remove_block(&mut self, arity: usize, key: &[u32], ids: &[u32]) -> bool {
        let stride = arity.max(1);
        match self {
            Buckets::Keyed(map) => {
                let Some(bucket) = map.get_mut(key) else {
                    return false;
                };
                let found = bucket
                    .chunks_exact(stride)
                    .position(|block| &block[..arity] == ids);
                let removed = if let Some(pos) = found {
                    // Swap-remove in block units: the last block overwrites
                    // the deleted one, the tail is truncated — O(stride), no
                    // shift.
                    let last = bucket.len() - stride;
                    bucket.copy_within(last.., pos * stride);
                    bucket.truncate(last);
                    true
                } else {
                    false
                };
                if bucket.is_empty() {
                    map.remove(key);
                }
                removed
            }
            Buckets::Whole(set) => set.remove(ids),
        }
    }

    /// Row blocks matching the key ids, or an empty slice.
    fn probe(&self, key: &[u32]) -> &[u32] {
        match self {
            Buckets::Keyed(map) => map.get(key).map(Vec::as_slice).unwrap_or(&[]),
            // The matching block is the key itself; answer out of the set's
            // own storage so the slice outlives the caller's probe buffer.
            Buckets::Whole(set) => set.get(key).map(IdKey::as_slice).unwrap_or(&[]),
        }
    }

    fn distinct_keys(&self) -> usize {
        match self {
            Buckets::Keyed(map) => map.len(),
            Buckets::Whole(set) => set.len(),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Buckets::Keyed(map) => {
                map.shrink_to_fit();
                for bucket in map.values_mut() {
                    bucket.shrink_to_fit();
                }
            }
            Buckets::Whole(set) => set.shrink_to_fit(),
        }
    }

    fn approx_bytes(&self) -> usize {
        let mut bytes = 0;
        match self {
            Buckets::Keyed(map) => {
                bytes += map.capacity()
                    * (std::mem::size_of::<IdKey>() + std::mem::size_of::<Vec<u32>>());
                for (key, bucket) in map {
                    bytes += key.heap_bytes();
                    bytes += bucket.capacity() * std::mem::size_of::<u32>();
                }
            }
            Buckets::Whole(set) => {
                bytes += set.capacity() * std::mem::size_of::<IdKey>();
                for key in set {
                    bytes += key.heap_bytes();
                }
            }
        }
        bytes
    }

    /// Fold in only the rows of `delta` whose key projection routes to
    /// `shard_idx`, returning the net indexed-row change.  Applying every
    /// shard index exactly once — sequentially or one worker per shard —
    /// produces identical contents: rows of different shards touch disjoint
    /// buckets, and within a shard rows apply in delta order either way.
    fn apply_delta_routed(
        key: &IndexKey,
        arity: usize,
        bucket: &mut Buckets,
        shard_idx: usize,
        delta: &IdDelta,
    ) -> i64 {
        let mut net = 0i64;
        let mut key_buf: Vec<u32> = Vec::with_capacity(key.key_positions.len());
        for (ids, sign) in delta.iter() {
            if !key.admits_ids(ids) {
                continue;
            }
            key_buf.clear();
            key_buf.extend(key.key_positions.iter().map(|&p| ids[p]));
            if shard_of_ids(&key_buf, STORE_SHARDS) != shard_idx {
                continue;
            }
            if sign > 0 {
                bucket.push_block(arity, &key_buf, ids);
                net += 1;
            } else if bucket.remove_block(arity, &key_buf, ids) {
                net -= 1;
            }
        }
        net
    }
}

impl SharedIndex {
    fn build(key: IndexKey, store: &ShardedRelationStore, epoch: Epoch) -> Self {
        let shards: Vec<Buckets> = (0..STORE_SHARDS)
            .map(|_| Buckets::for_shape(&key, store.arity(), store.len() / STORE_SHARDS))
            .collect();
        let mut index = SharedIndex {
            key,
            arity: store.arity(),
            shards,
            rows: 0,
            epoch,
        };
        let arity = index.arity;
        let mut key_buf: Vec<u32> = Vec::with_capacity(index.key.key_positions.len());
        store.for_each_row(|ids| {
            if index.key.admits_ids(ids) {
                key_buf.clear();
                key_buf.extend(index.key.key_positions.iter().map(|&p| ids[p]));
                let shard = shard_of_ids(&key_buf, STORE_SHARDS);
                index.shards[shard].push_block(arity, &key_buf, ids);
                index.rows += 1;
            }
        });
        // Drop build-time slack: each shard's table shrinks to its live key
        // count and every bucket to its exact id payload.  Later deltas
        // regrow them amortized, exactly like any post-build insert.
        for shard in &mut index.shards {
            shard.shrink_to_fit();
        }
        index
    }

    /// Row-block width inside buckets: the arity, with nullary relations padded
    /// to one sentinel id so "one stored row" stays representable.  Consumers
    /// chunk probe results by `stride()` and read `[..arity()]` of each block.
    pub fn stride(&self) -> usize {
        self.arity.max(1)
    }

    /// Fold one interned stored-relation delta into the index, shard by shard
    /// in shard order — identical content to the parallel per-shard commit.
    fn apply_delta(&mut self, delta: &IdDelta, epoch: Epoch) {
        self.epoch = epoch;
        let arity = self.arity;
        let mut net = 0i64;
        for (shard_idx, bucket) in self.shards.iter_mut().enumerate() {
            net += Buckets::apply_delta_routed(&self.key, arity, bucket, shard_idx, delta);
        }
        self.rows = (self.rows as i64 + net) as usize;
    }

    /// The index identity.
    pub fn key(&self) -> &IndexKey {
        &self.key
    }

    /// Ids per indexed row (the stored relation's arity).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The store epoch this index's contents were last changed at.  A snapshot
    /// taken at epoch `e` only ever exposes entries with `epoch() <= e`, no
    /// matter how far the live registry has advanced since.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of indexed (equality-filtered) rows.
    pub fn indexed_rows(&self) -> usize {
        self.rows
    }

    /// Number of distinct probe keys, across all shards.
    pub fn distinct_keys(&self) -> usize {
        self.shards.iter().map(Buckets::distinct_keys).sum()
    }

    /// Contiguous row blocks (at [`SharedIndex::stride`]) matching the key ids,
    /// or an empty slice.  The probe hashes the borrowed slice directly — once
    /// to route to the owning shard, once inside the shard's table — and no
    /// key is materialized.
    pub fn probe_ids(&self, key: &[u32]) -> &[u32] {
        self.shards[shard_of_ids(key, self.shards.len())].probe(key)
    }

    /// Estimated heap footprint in bytes (all shards' buckets, packed keys,
    /// id blocks).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<SharedIndex>()
            + std::mem::size_of::<Buckets>() * self.shards.len()
            + self.shards.iter().map(Buckets::approx_bytes).sum::<usize>()
    }
}

/// Cumulative telemetry counters of an [`IndexRegistry`], read through
/// [`IndexRegistry::telemetry`].
///
/// All values are zero when the crate is built without the `telemetry`
/// feature (the instrumentation compiles to no-ops).  Every field except
/// `live_snapshot_pins` is **schedule-independent**: it depends only on the
/// sequence of maintenance operations, never on thread interleaving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexTelemetry {
    /// Per-batch index writes that found the entry unshared and updated it in
    /// place (the steady-state zero-copy path).
    pub inplace_writes: u64,
    /// Per-batch index writes that had to clone the entry first because an
    /// outstanding [`IndexSnapshot`] (or registry clone) still referenced it.
    pub cow_clones: u64,
    /// Snapshots taken over the registry's lifetime.
    pub snapshots_taken: u64,
    /// Snapshots (including clones of snapshots) currently alive and pinning
    /// entry versions.
    pub live_snapshot_pins: u64,
}

/// Point-in-time counters of a registry, surfaced through engine stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexRegistryStats {
    /// Live (acquired, not yet fully released) indexes.
    pub indexes: usize,
    /// Total indexed rows across all live indexes.
    pub indexed_rows: usize,
    /// Sum of live refcounts (how many acquisitions are outstanding).
    pub total_refs: usize,
    /// Estimated heap footprint of all live indexes in bytes.
    pub bytes: usize,
}

/// One registry slot: the live index (if any), its consumer refcount, and the
/// generation stamped into the ids handed out for it, bumped on every
/// allocation so stale ids of a torn-down index cannot alias the slot's next
/// tenant.
#[derive(Clone, Default)]
struct IndexSlot {
    generation: u64,
    /// Consumers holding an [`IndexId`] on this entry (not the `Arc` strong
    /// count — snapshots clone the `Arc` without affecting teardown).
    refs: usize,
    entry: Option<Arc<SharedIndex>>,
}

/// The refcounted collection of [`SharedIndex`]es a
/// [`SharedDatabase`](crate::SharedDatabase) maintains.
#[derive(Default)]
pub struct IndexRegistry {
    slots: Vec<IndexSlot>,
    by_key: FastHashMap<IndexKey, usize>,
    /// Cumulative maintenance counters (no-ops without the `telemetry`
    /// feature); `live_pins` is shared with every outstanding snapshot's
    /// [`PinGuard`].
    inplace_writes: tele::Counter,
    cow_clones: tele::Counter,
    snapshots_taken: tele::Counter,
    live_pins: Arc<tele::Gauge>,
}

impl Clone for IndexRegistry {
    /// Clones carry the counter *values* forward but get their own live-pin
    /// gauge: snapshots of the original keep decrementing the original's
    /// gauge on drop, and the clone starts with zero outstanding pins of its
    /// own.
    fn clone(&self) -> Self {
        IndexRegistry {
            slots: self.slots.clone(),
            by_key: self.by_key.clone(),
            inplace_writes: self.inplace_writes.clone(),
            cow_clones: self.cow_clones.clone(),
            snapshots_taken: self.snapshots_taken.clone(),
            live_pins: Arc::default(),
        }
    }
}

impl IndexRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        IndexRegistry::default()
    }

    /// Find-or-build the index for `key`, bumping its refcount.
    ///
    /// `store` must be the current flat contents of `key.relation` and `epoch`
    /// the store epoch those contents reflect; a fresh entry is built from them
    /// in one `O(N)` pass, a live entry is reused as-is (it has been maintained
    /// under every applied batch since it was built).
    pub fn acquire(
        &mut self,
        key: IndexKey,
        store: &ShardedRelationStore,
        epoch: Epoch,
    ) -> IndexId {
        if let Some(&slot) = self.by_key.get(&key) {
            let state = &mut self.slots[slot];
            debug_assert!(state.entry.is_some(), "keyed index entry is live");
            state.refs += 1;
            return IndexId {
                slot,
                generation: state.generation,
            };
        }
        let built = Arc::new(SharedIndex::build(key.clone(), store, epoch));
        let slot = match self.slots.iter().position(|s| s.entry.is_none()) {
            Some(free) => free,
            None => {
                self.slots.push(IndexSlot::default());
                self.slots.len() - 1
            }
        };
        self.slots[slot].generation += 1;
        self.slots[slot].refs = 1;
        self.slots[slot].entry = Some(built);
        self.by_key.insert(key, slot);
        IndexId {
            slot,
            generation: self.slots[slot].generation,
        }
    }

    /// Drop one reference; the entry is torn down when the last holder releases.
    ///
    /// Releasing an id that is not live — already torn down, or whose slot has
    /// since been reused by a different index (stale generation) — is a no-op.
    /// Outstanding snapshots keep their `Arc` clone of a torn-down entry; only
    /// the live registry forgets it.
    pub fn release(&mut self, id: IndexId) {
        let Some(slot) = self
            .slots
            .get_mut(id.slot)
            .filter(|s| s.generation == id.generation && s.entry.is_some())
        else {
            return;
        };
        slot.refs -= 1;
        if slot.refs == 0 {
            let key = slot.entry.as_ref().expect("checked live above").key.clone();
            slot.entry = None;
            self.by_key.remove(&key);
        }
    }

    /// The live entry behind `id`, if any (stale generations resolve to `None`).
    pub fn get(&self, id: IndexId) -> Option<&SharedIndex> {
        self.slots
            .get(id.slot)
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.entry.as_deref())
    }

    /// Live [`IndexId`] holders of the entry behind `id` (0 when not live).
    pub fn refs_of(&self, id: IndexId) -> usize {
        self.slots
            .get(id.slot)
            .filter(|s| s.generation == id.generation && s.entry.is_some())
            .map(|s| s.refs)
            .unwrap_or(0)
    }

    /// Row blocks matching the key ids in the index `id`, or an empty slice.
    ///
    /// An id that is no longer live probes empty — by construction consumers only
    /// probe ids they hold a reference on.  Lock-free: `&self` reads never
    /// contend with anything, and no key or row is materialized.
    pub fn probe_ids(&self, id: IndexId, key: &[u32]) -> &[u32] {
        self.get(id).map(|e| e.probe_ids(key)).unwrap_or(&[])
    }

    /// Fold one relation's interned delta into every live index over it,
    /// stamping the touched entries with `epoch` (the store epoch the batch
    /// advances to).
    ///
    /// Writes are copy-on-write: an entry still referenced by an outstanding
    /// [`IndexSnapshot`] is cloned before mutation, so the snapshot keeps
    /// reading its own epoch's contents; an unshared entry (the steady-state
    /// case) is updated in place with zero copies.
    pub fn apply_relation_delta(&mut self, relation: &str, delta: &IdDelta, epoch: Epoch) {
        if delta.is_empty() {
            return;
        }
        for entry in self.slots.iter_mut().filter_map(|s| s.entry.as_mut()) {
            if entry.key.relation == relation {
                // `make_mut` clones exactly when another `Arc` (a snapshot or
                // registry clone) still references the entry; observe which
                // path this write takes before it happens.
                if Arc::strong_count(entry) > 1 {
                    self.cow_clones.inc();
                } else {
                    self.inplace_writes.inc();
                }
                Arc::make_mut(entry).apply_delta(delta, epoch);
            }
        }
    }

    /// Fold a whole batch's interned deltas into every touched live index,
    /// one worker per `(index, shard)` pair.
    ///
    /// Equivalent to calling [`IndexRegistry::apply_relation_delta`] once per
    /// relation — bit-identical contents, row counts, epoch stamps, and
    /// COW/in-place telemetry — because the per-shard sub-deltas touch
    /// disjoint buckets and preserve delta order within a shard.  The
    /// sequential parts (copy-on-write resolution, epoch stamping, row-count
    /// accounting) stay on the caller's thread; only the bucket maintenance
    /// itself fans out.
    pub fn apply_batch_deltas(
        &mut self,
        deltas: &[(String, IdDelta)],
        epoch: Epoch,
        pool: &WorkerPool,
    ) {
        struct ShardTask<'a> {
            key: &'a IndexKey,
            arity: usize,
            bucket: &'a mut Buckets,
            shard_idx: usize,
            delta: &'a IdDelta,
        }
        let mut tasks: Vec<ShardTask<'_>> = Vec::new();
        let mut rows_refs: Vec<&mut usize> = Vec::new();
        for entry in self.slots.iter_mut().filter_map(|s| s.entry.as_mut()) {
            let touching = deltas
                .iter()
                .find(|(name, delta)| *name == entry.key.relation && !delta.is_empty());
            let Some((_, delta)) = touching else {
                continue;
            };
            if Arc::strong_count(entry) > 1 {
                self.cow_clones.inc();
            } else {
                self.inplace_writes.inc();
            }
            let index = Arc::make_mut(entry);
            index.epoch = epoch;
            let SharedIndex {
                key,
                arity,
                shards,
                rows,
                ..
            } = index;
            rows_refs.push(rows);
            for (shard_idx, bucket) in shards.iter_mut().enumerate() {
                tasks.push(ShardTask {
                    key,
                    arity: *arity,
                    bucket,
                    shard_idx,
                    delta,
                });
            }
        }
        if tasks.is_empty() {
            return;
        }
        let nets = pool.run(tasks, |_, t| {
            Buckets::apply_delta_routed(t.key, t.arity, t.bucket, t.shard_idx, t.delta)
        });
        for (i, rows) in rows_refs.into_iter().enumerate() {
            let net: i64 = nets[i * STORE_SHARDS..(i + 1) * STORE_SHARDS].iter().sum();
            *rows = (*rows as i64 + net) as usize;
        }
    }

    /// Drop indexes over `relation` (the relation is being removed from the
    /// store).  Outstanding ids over it become dead: they probe empty, and the
    /// generation stamp keeps them dead even after their slot is reused.
    pub fn drop_relation(&mut self, relation: &str) {
        for slot in &mut self.slots {
            let matches = slot
                .entry
                .as_ref()
                .is_some_and(|e| e.key.relation == relation);
            if matches {
                let key = slot.entry.as_ref().expect("checked above").key.clone();
                self.by_key.remove(&key);
                slot.entry = None;
                slot.refs = 0;
            }
        }
    }

    /// An epoch-stamped, immutable view of every live entry.
    ///
    /// Snapshots are cheap (one `Arc` clone per live slot), `Send + Sync`, and
    /// probe lock-free through the same [`IndexId`]s the live registry hands
    /// out.  A snapshot keeps observing exactly the state it was taken at:
    /// later batches mutate the live registry copy-on-write, and later
    /// teardowns only drop the live reference.
    pub fn snapshot(&self, epoch: Epoch) -> IndexSnapshot {
        self.snapshots_taken.inc();
        IndexSnapshot {
            epoch,
            slots: self
                .slots
                .iter()
                .map(|s| {
                    s.entry
                        .as_ref()
                        .map(|entry| (s.generation, Arc::clone(entry)))
                })
                .collect(),
            _pin: PinGuard::new(Arc::clone(&self.live_pins)),
        }
    }

    /// Cumulative telemetry counters (all zero without the `telemetry`
    /// feature).
    pub fn telemetry(&self) -> IndexTelemetry {
        IndexTelemetry {
            inplace_writes: self.inplace_writes.get(),
            cow_clones: self.cow_clones.get(),
            snapshots_taken: self.snapshots_taken.get(),
            live_snapshot_pins: self.live_pins.get(),
        }
    }

    /// Number of live indexes.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.entry.is_some()).count()
    }

    /// `true` iff no index is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over the live indexes.
    pub fn iter(&self) -> impl Iterator<Item = &SharedIndex> {
        self.slots.iter().filter_map(|s| s.entry.as_deref())
    }

    /// Estimated heap footprint of all live indexes in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.iter().map(SharedIndex::approx_bytes).sum()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> IndexRegistryStats {
        let mut stats = IndexRegistryStats::default();
        for slot in &self.slots {
            let Some(entry) = slot.entry.as_deref() else {
                continue;
            };
            stats.indexes += 1;
            stats.indexed_rows += entry.indexed_rows();
            stats.total_refs += slot.refs;
            stats.bytes += entry.approx_bytes();
        }
        stats
    }
}

impl fmt::Debug for IndexRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "IndexRegistry[{} indexes, {} rows, {} refs]",
            stats.indexes, stats.indexed_rows, stats.total_refs
        )
    }
}

/// An immutable, epoch-stamped view of a registry's live indexes.
///
/// Taken with [`crate::SharedDatabase::index_snapshot`] (or
/// [`IndexRegistry::snapshot`]); probes resolve against the
/// entries exactly as they were at the snapshot's epoch, with no locking and no
/// coordination with concurrent writers — the registry's copy-on-write
/// maintenance guarantees a snapshotted entry is never mutated in place.  This
/// is the read primitive the planned async front-end serves queries from while
/// the update stream keeps committing.  Dictionary ids in snapshotted buckets
/// resolve through **any** dictionary state at or after the snapshot's epoch —
/// the dictionary is append-only, so ids never change meaning.
#[derive(Clone)]
pub struct IndexSnapshot {
    epoch: Epoch,
    /// Per registry slot: the generation and entry that were live at snapshot
    /// time (so the same stale-id discipline applies as on the live registry).
    slots: Vec<Option<(u64, Arc<SharedIndex>)>>,
    /// Keeps the owning registry's live-pin gauge accurate for as long as any
    /// clone of this snapshot is alive (held for `Drop` only).
    _pin: PinGuard,
}

/// RAII participant in the registry's live-snapshot-pin gauge: construction
/// and cloning increment it, dropping decrements it.
struct PinGuard {
    live: Arc<tele::Gauge>,
}

impl PinGuard {
    fn new(live: Arc<tele::Gauge>) -> Self {
        live.add(1);
        PinGuard { live }
    }
}

impl Clone for PinGuard {
    fn clone(&self) -> Self {
        PinGuard::new(Arc::clone(&self.live))
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.live.sub(1);
    }
}

impl IndexSnapshot {
    /// The store epoch this snapshot was taken at.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The snapshotted entry behind `id`, if it was live at snapshot time.
    pub fn get(&self, id: IndexId) -> Option<&SharedIndex> {
        self.slots
            .get(id.slot)
            .and_then(|s| s.as_ref())
            .filter(|(generation, _)| *generation == id.generation)
            .map(|(_, entry)| entry.as_ref())
    }

    /// Row blocks matching the key ids in the snapshotted index `id`, or an
    /// empty slice.  Lock-free and immune to concurrent store writes.
    pub fn probe_ids(&self, id: IndexId, key: &[u32]) -> &[u32] {
        self.get(id).map(|e| e.probe_ids(key)).unwrap_or(&[])
    }

    /// Number of indexes captured by this snapshot.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// `true` iff the snapshot captured no index.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for IndexSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IndexSnapshot[epoch {}, {} indexes]",
            self.epoch,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::ValueDict;
    use crate::value::Value;

    /// Intern int rows into a fresh dict + sharded flat store.  With values
    /// inserted in first-occurrence order, `id(v) = dict.lookup(int v)`.
    fn flat(arity: usize, rows: &[&[i64]]) -> (ValueDict, ShardedRelationStore) {
        let mut dict = ValueDict::new();
        let mut store = ShardedRelationStore::new(arity);
        for row in rows {
            let ids: Vec<u32> = row.iter().map(|&v| dict.intern(&Value::int(v))).collect();
            store.insert_ids(&ids);
        }
        (dict, store)
    }

    fn ids(dict: &mut ValueDict, vals: &[i64]) -> Vec<u32> {
        vals.iter().map(|&v| dict.intern(&Value::int(v))).collect()
    }

    fn delta(dict: &mut ValueDict, arity: usize, ops: &[(&[i64], i64)]) -> IdDelta {
        let mut d = IdDelta::new(arity);
        for (vals, sign) in ops {
            d.push(&ids(dict, vals), *sign);
        }
        d
    }

    fn graph() -> (ValueDict, ShardedRelationStore) {
        flat(2, &[&[1, 2], &[1, 3], &[2, 3], &[3, 3]])
    }

    fn key_on(positions: &[usize]) -> IndexKey {
        IndexKey {
            relation: "Graph".into(),
            equalities: vec![],
            key_positions: positions.to_vec(),
        }
    }

    /// Blocks of `index` matching key values, as sorted `Vec<Vec<u32>>`.
    fn probe_rows(
        reg: &IndexRegistry,
        id: IndexId,
        dict: &mut ValueDict,
        key: &[i64],
    ) -> Vec<Vec<u32>> {
        let key_ids = ids(dict, key);
        let stride = reg.get(id).map(SharedIndex::stride).unwrap_or(1);
        let mut rows: Vec<Vec<u32>> = reg
            .probe_ids(id, &key_ids)
            .chunks_exact(stride)
            .map(<[u32]>::to_vec)
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn acquire_builds_and_probes() {
        let (mut dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let id = reg.acquire(key_on(&[0]), &store, 0);
        assert_eq!(probe_rows(&reg, id, &mut dict, &[1]).len(), 2);
        assert_eq!(probe_rows(&reg, id, &mut dict, &[9]).len(), 0);
        let entry = reg.get(id).unwrap();
        assert_eq!(entry.indexed_rows(), 4);
        assert_eq!(entry.distinct_keys(), 3);
        assert_eq!(entry.arity(), 2);
        assert_eq!(entry.stride(), 2);
        assert_eq!(entry.epoch(), 0);
        assert!(entry.approx_bytes() > 0);
        assert!(format!("{reg:?}").contains("IndexRegistry"));
    }

    #[test]
    fn equalities_filter_indexed_rows() {
        let (mut dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let key = IndexKey {
            relation: "Graph".into(),
            equalities: vec![(0, 1)],
            key_positions: vec![0],
        };
        let id = reg.acquire(key, &store, 0);
        // Only the self-loop (3, 3) passes src = dst.
        assert_eq!(reg.get(id).unwrap().indexed_rows(), 1);
        let three = ids(&mut dict, &[3, 3]);
        assert_eq!(probe_rows(&reg, id, &mut dict, &[3]), vec![three]);
        assert!(probe_rows(&reg, id, &mut dict, &[1]).is_empty());
    }

    #[test]
    fn refcounts_share_and_tear_down() {
        let (mut dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let a = reg.acquire(key_on(&[0]), &store, 0);
        let b = reg.acquire(key_on(&[0]), &store, 0);
        assert_eq!(a, b, "same key shares one entry");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.refs_of(a), 2);
        let other = reg.acquire(key_on(&[1]), &store, 0);
        assert_ne!(a, other);
        assert_eq!(reg.len(), 2);

        reg.release(a);
        assert_eq!(reg.refs_of(a), 1);
        reg.release(b);
        assert!(reg.get(a).is_none(), "last release drops the entry");
        assert!(probe_rows(&reg, a, &mut dict, &[1]).is_empty());
        assert_eq!(reg.refs_of(a), 0);
        reg.release(a); // releasing a dead id is a no-op
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.stats().indexes, 1);

        // The freed slot is reused by the next distinct key — under a fresh
        // generation, so the stale id can neither probe nor release the new
        // tenant (no ABA through slot reuse).
        let again = reg.acquire(key_on(&[0, 1]), &store, 0);
        assert_ne!(again, a);
        assert!(reg.get(a).is_none());
        assert!(probe_rows(&reg, a, &mut dict, &[1, 2]).is_empty());
        reg.release(a); // stale-generation release must not touch `again`
        assert_eq!(reg.refs_of(again), 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn deltas_maintain_buckets_and_stamp_the_epoch() {
        let (mut dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let id = reg.acquire(key_on(&[0]), &store, 0);
        let d = delta(&mut dict, 2, &[(&[1, 9], 1), (&[1, 2], -1), (&[4, 4], 1)]);
        reg.apply_relation_delta("Graph", &d, 1);
        // Unrelated relations are untouched.
        let other = delta(&mut dict, 2, &[(&[1, 1], 1)]);
        reg.apply_relation_delta("Other", &other, 2);
        let rows = probe_rows(&reg, id, &mut dict, &[1]);
        assert_eq!(rows.len(), 2);
        let one_nine = ids(&mut dict, &[1, 9]);
        let one_three = ids(&mut dict, &[1, 3]);
        assert!(rows.contains(&one_nine) && rows.contains(&one_three));
        let four_four = ids(&mut dict, &[4, 4]);
        assert_eq!(probe_rows(&reg, id, &mut dict, &[4]), vec![four_four]);
        assert_eq!(reg.get(id).unwrap().indexed_rows(), 5);
        assert_eq!(
            reg.get(id).unwrap().epoch(),
            1,
            "only the touching batch's epoch is stamped"
        );
        // Deleting the last row of a bucket removes the bucket.
        let del = delta(&mut dict, 2, &[(&[4, 4], -1)]);
        reg.apply_relation_delta("Graph", &del, 3);
        assert!(probe_rows(&reg, id, &mut dict, &[4]).is_empty());
        assert_eq!(reg.get(id).unwrap().epoch(), 3);
    }

    #[test]
    fn drop_relation_kills_its_indexes() {
        let (_dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let g = reg.acquire(key_on(&[0]), &store, 0);
        let (_odict, ostore) = flat(1, &[&[1]]);
        let o = reg.acquire(
            IndexKey {
                relation: "Other".into(),
                equalities: vec![],
                key_positions: vec![0],
            },
            &ostore,
            0,
        );
        reg.drop_relation("Graph");
        assert!(reg.get(g).is_none());
        assert!(reg.get(o).is_some());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn snapshots_pin_their_epoch_under_later_writes() {
        let (mut dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let id = reg.acquire(key_on(&[0]), &store, 0);
        let snap = reg.snapshot(0);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());
        assert!(format!("{snap:?}").contains("epoch 0"));

        // The write after the snapshot copies the entry (copy-on-write): the
        // snapshot keeps reading epoch-0 contents, the live registry moves on.
        let d = delta(&mut dict, 2, &[(&[1, 2], -1), (&[7, 7], 1)]);
        reg.apply_relation_delta("Graph", &d, 1);
        let one = ids(&mut dict, &[1]);
        let seven = ids(&mut dict, &[7]);
        assert_eq!(snap.probe_ids(id, &one).len() / 2, 2, "snapshot is pinned");
        assert!(snap.probe_ids(id, &seven).is_empty());
        assert_eq!(snap.get(id).unwrap().epoch(), 0);
        assert_eq!(reg.probe_ids(id, &one).len() / 2, 1, "live registry moved");
        assert_eq!(
            reg.probe_ids(id, &seven),
            ids(&mut dict, &[7, 7]).as_slice()
        );
        assert_eq!(reg.get(id).unwrap().epoch(), 1);

        // Teardown of the live entry leaves the snapshot intact…
        reg.release(id);
        assert!(reg.get(id).is_none());
        assert_eq!(snap.probe_ids(id, &one).len() / 2, 2);
        // …and a slot reused under a new generation stays invisible to stale
        // ids on both the registry and any new snapshot.
        let next = reg.acquire(key_on(&[1]), &store, 2);
        let fresh = reg.snapshot(2);
        assert!(fresh.get(id).is_none(), "stale generation must not resolve");
        assert!(fresh.get(next).is_some());
        assert!(fresh.probe_ids(id, &one).is_empty());
    }

    #[test]
    fn unshared_entries_are_maintained_in_place_without_copies() {
        let (mut dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let id = reg.acquire(key_on(&[0]), &store, 0);
        let before = reg.slots[id.slot].entry.as_ref().map(Arc::as_ptr).unwrap();
        let d = delta(&mut dict, 2, &[(&[9, 9], 1)]);
        reg.apply_relation_delta("Graph", &d, 1);
        let after = reg.slots[id.slot].entry.as_ref().map(Arc::as_ptr).unwrap();
        assert_eq!(before, after, "no snapshot outstanding → in-place update");

        // With a snapshot outstanding the same write relocates the entry.
        let snap = reg.snapshot(1);
        let d = delta(&mut dict, 2, &[(&[8, 8], 1)]);
        reg.apply_relation_delta("Graph", &d, 2);
        let moved = reg.slots[id.slot].entry.as_ref().map(Arc::as_ptr).unwrap();
        assert_ne!(after, moved, "snapshotted entry is copied before mutation");
        let eight = ids(&mut dict, &[8]);
        assert!(snap.probe_ids(id, &eight).is_empty());
        assert_eq!(
            reg.probe_ids(id, &eight),
            ids(&mut dict, &[8, 8]).as_slice()
        );
    }

    #[test]
    fn nullary_indexes_represent_presence() {
        let mut store = ShardedRelationStore::new(0);
        store.insert_ids(&[]);
        let mut reg = IndexRegistry::new();
        let key = IndexKey {
            relation: "Flag".into(),
            equalities: vec![],
            key_positions: vec![],
        };
        let id = reg.acquire(key, &store, 0);
        let entry = reg.get(id).unwrap();
        assert_eq!((entry.arity(), entry.stride()), (0, 1));
        assert_eq!(entry.indexed_rows(), 1);
        assert_eq!(reg.probe_ids(id, &[]).chunks_exact(1).count(), 1);
        // Deleting the single row empties the index.
        let mut del = IdDelta::new(0);
        del.push(&[], -1);
        reg.apply_relation_delta("Flag", &del, 1);
        assert!(reg.probe_ids(id, &[]).is_empty());
        assert_eq!(reg.get(id).unwrap().indexed_rows(), 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_counts_cow_vs_inplace_and_pins() {
        let (mut dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let _id = reg.acquire(key_on(&[0]), &store, 0);
        assert_eq!(reg.telemetry(), IndexTelemetry::default());

        // No snapshot outstanding: in-place.
        let d = delta(&mut dict, 2, &[(&[9, 9], 1)]);
        reg.apply_relation_delta("Graph", &d, 1);
        let t = reg.telemetry();
        assert_eq!((t.inplace_writes, t.cow_clones), (1, 0));

        // Snapshot outstanding: the first write copies; once the live entry is
        // unshared again, the next write is in place.
        let snap = reg.snapshot(1);
        assert_eq!(reg.telemetry().snapshots_taken, 1);
        assert_eq!(reg.telemetry().live_snapshot_pins, 1);
        let snap2 = snap.clone();
        assert_eq!(reg.telemetry().live_snapshot_pins, 2);
        let d = delta(&mut dict, 2, &[(&[8, 8], 1)]);
        reg.apply_relation_delta("Graph", &d, 2);
        let d = delta(&mut dict, 2, &[(&[7, 7], 1)]);
        reg.apply_relation_delta("Graph", &d, 3);
        let t = reg.telemetry();
        assert_eq!((t.inplace_writes, t.cow_clones), (2, 1));

        drop(snap);
        drop(snap2);
        assert_eq!(reg.telemetry().live_snapshot_pins, 0);
    }

    #[test]
    fn cloned_registry_has_independent_pin_gauge() {
        let (_dict, store) = graph();
        let mut reg = IndexRegistry::new();
        let _id = reg.acquire(key_on(&[0]), &store, 0);
        let _snap = reg.snapshot(0);
        let clone = reg.clone();
        assert_eq!(clone.telemetry().live_snapshot_pins, 0);
        assert_eq!(clone.len(), 1);
    }

    #[test]
    fn batch_parallel_maintenance_matches_sequential() {
        // The per-(index, shard) parallel commit must be bit-identical to
        // per-relation sequential maintenance: same probes, same row counts,
        // same epoch stamps, same COW/in-place telemetry.
        let (mut dict, store) = graph();
        let mut seq = IndexRegistry::new();
        let mut par = IndexRegistry::new();
        let ids_seq = [
            seq.acquire(key_on(&[0]), &store, 0),
            seq.acquire(key_on(&[1]), &store, 0),
            seq.acquire(key_on(&[0, 1]), &store, 0),
        ];
        let ids_par = [
            par.acquire(key_on(&[0]), &store, 0),
            par.acquire(key_on(&[1]), &store, 0),
            par.acquire(key_on(&[0, 1]), &store, 0),
        ];
        let mut d = IdDelta::new(2);
        for i in 0..40i64 {
            d.push(&ids(&mut dict, &[i, i * 7]), 1);
        }
        d.push(&ids(&mut dict, &[1, 2]), -1);
        d.push(&ids(&mut dict, &[3, 3]), -1);
        let deltas = vec![("Graph".to_string(), d.clone())];
        seq.apply_relation_delta("Graph", &d, 1);
        par.apply_batch_deltas(&deltas, 1, &WorkerPool::new(4));
        for (a, b) in ids_seq.iter().zip(ids_par.iter()) {
            let ea = seq.get(*a).unwrap();
            let eb = par.get(*b).unwrap();
            assert_eq!(ea.indexed_rows(), eb.indexed_rows());
            assert_eq!(ea.distinct_keys(), eb.distinct_keys());
            assert_eq!(ea.epoch(), eb.epoch());
            assert_eq!(eb.epoch(), 1);
        }
        for key in 0..45i64 {
            for (a, b) in ids_seq.iter().take(2).zip(ids_par.iter()) {
                assert_eq!(
                    probe_rows(&seq, *a, &mut dict, &[key]),
                    probe_rows(&par, *b, &mut dict, &[key]),
                );
            }
        }
        assert_eq!(seq.telemetry(), par.telemetry());
        // An untouched relation's delta leaves both registries alone.
        let silent = vec![("Other".to_string(), IdDelta::new(2))];
        par.apply_batch_deltas(&silent, 2, &WorkerPool::new(4));
        assert_eq!(par.get(ids_par[0]).unwrap().epoch(), 1);
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IndexSnapshot>();
        assert_send_sync::<IndexRegistry>();
        assert_send_sync::<SharedIndex>();
    }
}
