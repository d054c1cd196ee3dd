//! Cross-view sharing of whole counting sides.
//!
//! Plan-level sharing (one [`CqDeltaPlans`](dcq_core::delta_plan::CqDeltaPlans)
//! per α-canonical CQ shape) and index-level sharing (the store's registry)
//! remove redundant *structures*; this module removes redundant *work*.  Two
//! counting views whose sides have the same [`CqShapeKey`] — same relations,
//! same variable wiring, same output order, any variable spellings — maintain
//! byte-identical support-count maps forever: the counts start equal (seeded
//! from the same store) and every batch folds the same deltas through the same
//! plans.  So the engine keeps **one** [`CountingCq`] per live side shape, and
//! `N` views share it:
//!
//! * [`CountingPool::acquire`] hands out an `Arc<RwLock<CountingCq>>`, building
//!   the side only when no live view holds that shape (the pool itself keeps
//!   only weak references, so an unused side is dropped, not cached forever);
//! * batch application is **idempotent per epoch** (see
//!   [`CountingCq::apply_batch`]): under parallel fan-out, whichever sharing
//!   view's worker takes the side's write lock first folds the batch; every
//!   later sharer finds the epoch already advanced and gets the memoized head
//!   delta.  The fold is a pure function of `(state, batch)`, so the winner's
//!   identity never shows in the counts — parallel and sequential fan-out
//!   produce bit-identical state;
//! * the last view to drop a side releases its registry indexes.
//!
//! This is what makes the 8-*distinct*-views workload of the `multi_view`
//! bench cheap: the `Q_G5` family's variants differ only in their negative
//! closers, so all eight positive sides collapse into one pooled engine —
//! maintained once per batch instead of eight times.

use crate::count::CountingCq;
use crate::Result;
use dcq_core::cache::{CqShapeKey, PlanCache};
use dcq_core::query::ConjunctiveQuery;
use dcq_storage::hash::FastHashMap;
use dcq_storage::{Schema, SharedDatabase};
use std::sync::{Arc, RwLock, Weak};

/// A counting side shared by every view whose CQ has the same α-canonical shape.
///
/// `Send + Sync`: views on different fan-out workers lock the side transiently
/// during batch application and result reads.  The locking discipline is
/// strictly one side at a time (see [`DcqView::apply`](crate::DcqView::apply)),
/// so shared sides cannot deadlock however views overlap.
pub type SharedCountingCq = Arc<RwLock<CountingCq>>;

/// Hit/miss counters of a [`CountingPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingPoolStats {
    /// Acquisitions served by a live shared side (no seeding work performed).
    pub hits: u64,
    /// Acquisitions that had to build and seed a fresh side.
    pub misses: u64,
    /// Side shapes currently live (held by at least one view).
    pub live: usize,
    /// Live side shapes currently held by **more than one** view handle, i.e.
    /// sides whose per-batch fold is amortized across sharers.  A degenerate
    /// `Q − Q` view counts here too: it holds its single side twice.
    pub shared: usize,
}

/// The pool of live counting sides, keyed by α-canonical CQ shape.
///
/// Entries are weak: the pool never keeps a side alive on its own, it only
/// lets concurrent views find each other.  Dead entries are pruned lazily.
/// The pool itself is only touched from the engine's sequential phases
/// (registration, deregistration) — the parallel fan-out sees
/// pooled sides exclusively through the `Arc`s the views already hold.
#[derive(Default)]
pub struct CountingPool {
    entries: FastHashMap<CqShapeKey, Weak<RwLock<CountingCq>>>,
    hits: u64,
    misses: u64,
}

impl CountingPool {
    /// An empty pool.
    pub fn new() -> Self {
        CountingPool::default()
    }

    /// The shared counting side for `(cq, output)`'s shape: a live one if any
    /// view still holds it, otherwise built from the store's current contents
    /// (plans resolved through `cache`, indexes acquired from the store's
    /// registry) and registered for later sharers.
    pub fn acquire(
        &mut self,
        cq: ConjunctiveQuery,
        output: Schema,
        store: &mut SharedDatabase,
        cache: &mut PlanCache,
    ) -> Result<SharedCountingCq> {
        let key = CqShapeKey::of(&cq, &output);
        if let Some(weak) = self.entries.get(&key) {
            if let Some(live) = weak.upgrade() {
                self.hits += 1;
                return Ok(live);
            }
        }
        self.misses += 1;
        let (plans, _) = cache.delta_plans(&cq, &output);
        let side = CountingCq::from_store_with_plans(cq, output, store, plans)?;
        let shared = Arc::new(RwLock::new(side));
        self.entries.insert(key, Arc::downgrade(&shared));
        Ok(shared)
    }

    /// Hit/miss counters and the number of currently live side shapes.
    pub fn stats(&self) -> CountingPoolStats {
        let mut live = 0;
        let mut shared = 0;
        for weak in self.entries.values() {
            match weak.strong_count() {
                0 => {}
                1 => live += 1,
                _ => {
                    live += 1;
                    shared += 1;
                }
            }
        }
        CountingPoolStats {
            hits: self.hits,
            misses: self.misses,
            live,
            shared,
        }
    }

    /// Drop entries whose side no longer has any holder.
    pub fn prune(&mut self) {
        self.entries.retain(|_, w| w.strong_count() > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcq_core::parse::parse_cq;
    use dcq_storage::{Database, Relation};

    fn store() -> SharedDatabase {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![vec![1, 2], vec![2, 3], vec![3, 1]],
        ))
        .unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn alpha_equivalent_sides_share_one_engine() {
        let mut store = store();
        let mut pool = CountingPool::new();
        let mut cache = PlanCache::new();
        let a = parse_cq("P(x, z) :- Graph(x, y), Graph(y, z)").unwrap();
        let b = parse_cq("Q(u, w) :- Graph(u, v), Graph(v, w)").unwrap();
        let sa = pool
            .acquire(a.clone(), a.head_schema(), &mut store, &mut cache)
            .unwrap();
        let sb = pool
            .acquire(b.clone(), b.head_schema(), &mut store, &mut cache)
            .unwrap();
        assert!(Arc::ptr_eq(&sa, &sb), "α-equivalent sides share one engine");
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().live, 1);
        assert_eq!(pool.stats().shared, 1, "two handles on one shape");
        // One engine → its indexes are acquired exactly once.
        assert_eq!(store.index_stats().total_refs, store.index_count());

        // Dropping every holder releases the shape; the next acquire rebuilds.
        drop(sa);
        assert_eq!(Arc::strong_count(&sb), 1, "pool holds only weak refs");
        sb.write().unwrap().release_indexes(&mut store);
        drop(sb);
        assert_eq!(store.index_count(), 0);
        assert_eq!(pool.stats().live, 0);
        pool.prune();
        let sc = pool
            .acquire(a.clone(), a.head_schema(), &mut store, &mut cache)
            .unwrap();
        assert_eq!(pool.stats().misses, 2);
        sc.write().unwrap().release_indexes(&mut store);
    }

    #[test]
    fn different_shapes_do_not_share() {
        let mut store = store();
        let mut pool = CountingPool::new();
        let mut cache = PlanCache::new();
        let a = parse_cq("P(x, z) :- Graph(x, y), Graph(y, z)").unwrap();
        let b = parse_cq("P(x, z) :- Graph(x, y), Graph(z, y)").unwrap();
        let sa = pool
            .acquire(a.clone(), a.head_schema(), &mut store, &mut cache)
            .unwrap();
        let sb = pool
            .acquire(b.clone(), b.head_schema(), &mut store, &mut cache)
            .unwrap();
        assert!(!Arc::ptr_eq(&sa, &sb));
        assert_eq!(pool.stats().live, 2);
        assert_eq!(pool.stats().shared, 0, "single-holder sides are not shared");
        sa.write().unwrap().release_indexes(&mut store);
        sb.write().unwrap().release_indexes(&mut store);
    }

    #[test]
    fn pool_and_shared_sides_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CountingPool>();
        assert_send_sync::<SharedCountingCq>();
        assert_send_sync::<CountingCq>();
    }
}
