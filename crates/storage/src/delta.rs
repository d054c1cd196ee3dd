//! Signed tuple deltas: the update layer of the storage substrate.
//!
//! Incremental DCQ maintenance (the `dcq-incremental` crate) consumes database
//! updates as **batches of signed tuple deltas**: each operation is a `(row, ±1)`
//! pair against a named relation, `+1` for insertion and `−1` for deletion.  The
//! representation deliberately mirrors the ℤ-annotated relations of
//! [`crate::annotated`]: applying a delta is ⊕-combining multiplicities, and the
//! set-semantics stored relations are the special case where every live tuple has
//! multiplicity `1`.
//!
//! * [`DeltaBatch`] — one batch of raw signed operations, grouped per relation,
//! * [`normalize_delta`] — reduce a raw per-relation delta to its *net, set-semantics
//!   effect* against the current relation membership,
//! * [`Relation::apply_delta`] / [`Database::apply_batch`] — apply updates in place.

use crate::database::Database;
use crate::hash::{map_with_capacity, set_with_capacity, FastHashMap, FastHashSet};
use crate::relation::Relation;
use crate::row::Row;
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::fmt;

/// One batch of signed tuple operations, grouped by target relation.
///
/// Operations are kept *raw*: the same row may be inserted and deleted repeatedly
/// within a batch.  [`normalize_delta`] collapses a relation's operations to their
/// net set-semantics effect at application time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    ops: BTreeMap<String, Vec<(Row, i64)>>,
}

impl DeltaBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Record an insertion of `row` into `relation`.
    pub fn insert(&mut self, relation: impl Into<String>, row: Row) {
        self.push(relation, row, 1);
    }

    /// Record a deletion of `row` from `relation`.
    pub fn delete(&mut self, relation: impl Into<String>, row: Row) {
        self.push(relation, row, -1);
    }

    /// Record a signed operation (`sign > 0` insert, `sign < 0` delete, `0` ignored).
    pub fn push(&mut self, relation: impl Into<String>, row: Row, sign: i64) {
        if sign == 0 {
            return;
        }
        self.ops
            .entry(relation.into())
            .or_default()
            .push((row, sign.signum()));
    }

    /// `true` iff the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.values().all(|v| v.is_empty())
    }

    /// Total number of raw operations across all relations.
    pub fn len(&self) -> usize {
        self.ops.values().map(|v| v.len()).sum()
    }

    /// Names of the relations this batch touches, in sorted order.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.ops.keys().map(|s| s.as_str())
    }

    /// `true` iff the batch touches `relation`.
    pub fn touches(&self, relation: &str) -> bool {
        self.ops.get(relation).is_some_and(|v| !v.is_empty())
    }

    /// The raw operations against `relation` (empty slice if untouched).
    pub fn ops(&self, relation: &str) -> &[(Row, i64)] {
        self.ops.get(relation).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate over `(relation, raw operations)` pairs in relation-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[(Row, i64)])> {
        self.ops.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Rough in-memory footprint of the batch in bytes, counting the op
    /// vectors, row storage, and string payloads; it deliberately mirrors
    /// [`Relation::approx_bytes`]'s accounting.  This is not the batch's
    /// serialized size: [`write_batch_frame`](crate::checkpoint::write_batch_frame)
    /// returns that.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        for (name, ops) in &self.ops {
            bytes += name.len() + std::mem::size_of::<(Row, i64)>() * ops.len();
            for (row, _) in ops {
                bytes += std::mem::size_of::<crate::value::Value>() * row.arity();
                for v in row.iter() {
                    if let Some(s) = v.as_str() {
                        bytes += s.len();
                    }
                }
            }
        }
        bytes
    }

    /// The sign-flipped batch: every insert becomes a delete of the same row
    /// and vice versa.  Applied right after `self`, it restores the previous
    /// set-semantics state exactly (benchmarks and tests use this to measure
    /// repeated full-sized batch applications without drifting the store).
    pub fn inverse(&self) -> DeltaBatch {
        let mut inverse = DeltaBatch::new();
        for (relation, ops) in self.iter() {
            for (row, sign) in ops {
                inverse.push(relation, row.clone(), -sign);
            }
        }
        inverse
    }
}

impl fmt::Display for DeltaBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeltaBatch[")?;
        for (i, (name, ops)) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let ins = ops.iter().filter(|(_, s)| *s > 0).count();
            write!(f, "{name}: +{ins}/−{}", ops.len() - ins)?;
        }
        write!(f, "]")
    }
}

/// Reduce a raw signed delta to its **net, set-semantics effect** against the current
/// membership of the relation.
///
/// Operations on the same row are summed; the result keeps `(row, +1)` only when the
/// net effect is an insertion of a row *not currently present*, and `(row, −1)` only
/// when it is a deletion of a row *currently present*.  Inserting an existing row or
/// deleting an absent one is a no-op, exactly as in a set-semantics store.
///
/// The membership set is taken as a parameter (rather than scanning the relation) so
/// maintenance engines that track live rows incrementally can normalize in
/// `O(|delta|)` time.
pub fn normalize_delta(current: &FastHashSet<Row>, raw: &[(Row, i64)]) -> Vec<(Row, i64)> {
    let mut net: FastHashMap<&Row, i64> = map_with_capacity(raw.len());
    for (row, sign) in raw {
        *net.entry(row).or_insert(0) += sign;
    }
    let mut out = Vec::with_capacity(net.len());
    for (row, n) in net {
        let present = current.contains(row);
        if n > 0 && !present {
            out.push((row.clone(), 1));
        } else if n < 0 && present {
            out.push((row.clone(), -1));
        }
    }
    out
}

/// Counts of tuples actually inserted / deleted by one delta application.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaEffect {
    /// Rows newly inserted.
    pub inserted: usize,
    /// Rows removed.
    pub deleted: usize,
}

impl DeltaEffect {
    /// Total number of effective operations.
    pub fn total(&self) -> usize {
        self.inserted + self.deleted
    }

    /// Accumulate another effect into this one.
    pub fn absorb(&mut self, other: DeltaEffect) {
        self.inserted += other.inserted;
        self.deleted += other.deleted;
    }
}

impl Relation {
    /// Apply a raw signed delta under set semantics and report the net effect.
    ///
    /// The relation is deduplicated first (set semantics); the delta is normalized
    /// against its membership, so redundant operations are no-ops.  Rows must match
    /// the relation's arity.
    ///
    /// The first call on a cold relation pays `O(N)` to build the membership cache
    /// ([`Relation::cached_row_set`]); every later call normalizes and applies in
    /// `O(|delta|)`, which is what makes [`Database::apply_batch`] delta-sized on a
    /// steadily updated store.  Callers that already track membership themselves can
    /// still go through [`normalize_delta`] + [`Relation::apply_normalized_delta`]
    /// directly.
    pub fn apply_delta(&mut self, raw: &[(Row, i64)]) -> Result<DeltaEffect> {
        for (row, _) in raw {
            if row.arity() != self.schema().arity() {
                return Err(StorageError::ArityMismatch {
                    relation: self.name().to_string(),
                    expected: self.schema().arity(),
                    actual: row.arity(),
                });
            }
        }
        self.dedup();
        let delta = normalize_delta(self.cached_row_set(), raw);
        Ok(self.apply_normalized_delta(&delta))
    }

    /// Apply an already-normalized delta (the output of [`normalize_delta`] against
    /// this relation's current rows).  Skips re-deduplication and membership checks,
    /// and keeps the membership cache consistent, so incremental hot paths stay
    /// `O(N_deleted + |delta|)`.
    pub fn apply_normalized_delta(&mut self, delta: &[(Row, i64)]) -> DeltaEffect {
        let mut effect = DeltaEffect::default();
        // Maintain the membership cache by hand: `retain_rows` would drop it, but a
        // normalized delta states exactly which rows enter and leave.
        let mut cache = self.row_cache.take();
        let mut deletions: FastHashSet<&Row> = set_with_capacity(0);
        for (row, sign) in delta {
            if *sign < 0 {
                deletions.insert(row);
            }
        }
        if !deletions.is_empty() {
            let before = self.len();
            // `retain_rows` preserves the distinct flag.
            self.retain_rows(|r| !deletions.contains(r));
            effect.deleted = before - self.len();
            if let Some(cache) = cache.as_mut() {
                for row in &deletions {
                    cache.remove(*row);
                }
            }
        }
        let was_distinct = self.is_known_distinct();
        for (row, sign) in delta {
            if *sign > 0 {
                if let Some(cache) = cache.as_mut() {
                    cache.insert(row.clone());
                }
                self.push_unchecked(row.clone());
                effect.inserted += 1;
            }
        }
        if was_distinct {
            // A normalized delta only inserts rows that were absent, so distinctness
            // is preserved.
            self.assume_distinct();
        }
        self.row_cache = cache;
        effect
    }
}

/// Per-batch application summary for a whole database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchEffect {
    /// Net effect summed over all touched relations.
    pub effect: DeltaEffect,
    /// Relations the batch touched (whether or not any tuple actually changed).
    pub relations_touched: Vec<String>,
}

impl Database {
    /// Apply a [`DeltaBatch`] to this database under set semantics.
    ///
    /// Every relation named by the batch must exist and every row must match its
    /// relation's arity — validated up front, so a rejected batch leaves the
    /// database untouched.  Each relation's operations are then normalized against
    /// its current contents before application.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<BatchEffect> {
        for (name, raw) in batch.iter() {
            let rel = self.get(name)?;
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
        let mut out = BatchEffect::default();
        for (name, raw) in batch.iter() {
            let rel = self.get_mut(name).expect("validated above");
            out.effect.absorb(rel.apply_delta(raw)?);
            out.relations_touched.push(name.to_string());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    fn graph() -> Relation {
        Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![vec![1, 2], vec![2, 3], vec![3, 1]],
        )
    }

    #[test]
    fn batch_builder_and_accessors() {
        let mut b = DeltaBatch::new();
        assert!(b.is_empty());
        b.insert("Graph", int_row([7, 8]));
        b.delete("Graph", int_row([1, 2]));
        b.insert("Edge", int_row([1, 1]));
        b.push("Edge", int_row([2, 2]), 0); // ignored
        assert_eq!(b.len(), 3);
        assert!(b.touches("Graph") && b.touches("Edge") && !b.touches("Node"));
        assert_eq!(b.relations().collect::<Vec<_>>(), vec!["Edge", "Graph"]);
        assert_eq!(b.ops("Graph").len(), 2);
        assert_eq!(b.ops("Missing"), &[]);
        let text = format!("{b}");
        assert!(text.contains("Graph: +1"));
    }

    #[test]
    fn inverse_flips_signs_and_round_trips() {
        let mut b = DeltaBatch::new();
        b.insert("Graph", int_row([7, 8]));
        b.delete("Graph", int_row([1, 2]));
        b.insert("Edge", int_row([1, 1]));
        let inv = b.inverse();
        assert_eq!(inv.len(), b.len());
        assert_eq!(
            inv.ops("Graph"),
            &[(int_row([7, 8]), -1), (int_row([1, 2]), 1)]
        );
        assert_eq!(inv.ops("Edge"), &[(int_row([1, 1]), -1)]);
        // Applying batch then inverse restores the relation exactly.
        let mut g = graph();
        let before = g.sorted_rows();
        g.apply_delta(b.ops("Graph")).unwrap();
        assert_ne!(g.sorted_rows(), before);
        g.apply_delta(inv.ops("Graph")).unwrap();
        assert_eq!(g.sorted_rows(), before);
    }

    #[test]
    fn normalization_collapses_and_clips() {
        let current: FastHashSet<Row> = [int_row([1, 2]), int_row([2, 3])].into_iter().collect();
        let raw = vec![
            (int_row([1, 2]), 1),  // already present → no-op
            (int_row([9, 9]), 1),  // new → +1
            (int_row([2, 3]), -1), // present → −1
            (int_row([5, 5]), -1), // absent → no-op
            (int_row([7, 7]), 1),  // insert then delete → net 0
            (int_row([7, 7]), -1),
        ];
        let mut net = normalize_delta(&current, &raw);
        net.sort();
        assert_eq!(net, vec![(int_row([2, 3]), -1), (int_row([9, 9]), 1)]);
    }

    #[test]
    fn relation_apply_delta_is_set_semantics() {
        let mut g = graph();
        let effect = g
            .apply_delta(&[
                (int_row([1, 2]), 1),  // duplicate insert: no-op
                (int_row([9, 9]), 1),  // new row
                (int_row([2, 3]), -1), // delete existing
                (int_row([8, 8]), -1), // delete absent: no-op
            ])
            .unwrap();
        assert_eq!(
            effect,
            DeltaEffect {
                inserted: 1,
                deleted: 1
            }
        );
        assert_eq!(effect.total(), 2);
        assert_eq!(
            g.sorted_rows(),
            vec![int_row([1, 2]), int_row([3, 1]), int_row([9, 9])]
        );
        assert!(g.is_known_distinct());
    }

    #[test]
    fn repeated_deltas_reuse_the_membership_cache() {
        let mut g = graph();
        assert!(!g.row_cache_is_warm());
        g.apply_delta(&[(int_row([9, 9]), 1)]).unwrap();
        // The first application warms the cache; later ones are O(|delta|).
        assert!(g.row_cache_is_warm());
        for step in 0..10i64 {
            let effect = g
                .apply_delta(&[(int_row([20 + step, step]), 1), (int_row([9, 9]), 1)])
                .unwrap();
            assert_eq!(effect.inserted, 1, "duplicate insert must normalize away");
            assert!(g.row_cache_is_warm());
        }
        assert_eq!(g.to_row_set(), {
            let mut fresh = g.clone();
            fresh.retain_rows(|_| true); // drops the cache
            assert!(!fresh.row_cache_is_warm());
            fresh.to_row_set() // rebuilt from rows: must agree with the cache
        });
    }

    #[test]
    fn relation_apply_delta_checks_arity() {
        let mut g = graph();
        assert!(matches!(
            g.apply_delta(&[(int_row([1, 2, 3]), 1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn database_apply_batch_and_unknown_relation() {
        let mut db = Database::new();
        db.add(graph()).unwrap();
        let mut batch = DeltaBatch::new();
        batch.insert("Graph", int_row([4, 4]));
        batch.delete("Graph", int_row([1, 2]));
        let effect = db.apply_batch(&batch).unwrap();
        assert_eq!(
            effect.effect,
            DeltaEffect {
                inserted: 1,
                deleted: 1
            }
        );
        assert_eq!(effect.relations_touched, vec!["Graph".to_string()]);
        assert_eq!(db.get("Graph").unwrap().len(), 3);

        let mut bad = DeltaBatch::new();
        bad.insert("Nope", int_row([1]));
        assert!(db.apply_batch(&bad).is_err());
    }
}
