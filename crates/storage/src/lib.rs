//! # dcq-storage
//!
//! In-memory relational storage substrate for **dcqx**, the Rust reproduction of
//! *Computing the Difference of Conjunctive Queries Efficiently* (Hu & Wang,
//! SIGMOD 2023).
//!
//! The paper's data model (§2.1) is the standard multi-relational database: a set of
//! attributes `V`, relations `R_e` each defined over a subset of attributes `e ⊆ V`,
//! and tuples assigning a domain value to every attribute of their relation.  This
//! crate provides exactly that model, with the pieces every higher layer builds on:
//!
//! * [`Value`] — a domain value (64-bit integer, interned string, or null),
//! * [`Attr`] / [`Schema`] — named attributes and ordered attribute lists,
//! * [`Row`] — a tuple of values, positionally aligned with a [`Schema`],
//! * [`Relation`] — a set-semantics relation (schema + distinct rows),
//! * [`HashIndex`] — hash index on a subset of a relation's attributes,
//! * [`annotated`] — relations annotated with commutative (semi)ring elements,
//!   used for aggregation (§5.3) and bag semantics (§5.4),
//! * [`delta`] — signed tuple deltas ([`DeltaBatch`]) and set-semantics
//!   normalization, consumed by `dcq-incremental`,
//! * [`checkpoint`] — versioned, checksummed on-disk serialization of database
//!   checkpoints and write-ahead-log frames,
//! * [`Database`] — a named collection of relations (one query instance),
//! * [`shared`] — the epoch-versioned [`SharedDatabase`] of record that one engine
//!   owns and many maintained views read through ([`RelationRef`]), with `O(|Δ|)`
//!   updates and per-batch normalized deltas ([`AppliedBatch`]),
//! * [`registry`] — the store's refcounted **index registry** ([`IndexRegistry`]):
//!   shared hash indexes in stored-column coordinates, acquired per query plan
//!   ([`IndexKey`] → [`IndexId`]) and maintained exactly once per applied batch.
//!
//! The crate is deliberately free of query logic: acyclicity lives in
//! `dcq-hypergraph`, operators in `dcq-exec`, and the DCQ algorithms in `dcq-core`.

#![warn(missing_docs)]

pub mod annotated;
pub mod checkpoint;
pub mod database;
pub mod delta;
pub mod dict;
pub mod error;
pub mod fanout;
pub mod flat;
pub mod hash;
pub mod idkey;
pub mod index;
pub mod registry;
pub mod relation;
pub mod row;
pub mod schema;
pub mod shared;
pub(crate) mod tele;
pub mod value;

pub use annotated::{AnnotatedRelation, BagRelation, Ring, Semiring};
pub use checkpoint::{read_checkpoint, write_checkpoint};
pub use database::Database;
pub use delta::{normalize_delta, BatchEffect, DeltaBatch, DeltaEffect};
pub use dict::{DictSnapshot, DictStats, ValueDict};
pub use error::StorageError;
pub use fanout::WorkerPool;
pub use flat::{IdDelta, RelationStore, ShardedRelationStore, STORE_SHARDS};
pub use hash::{FastHashMap, FastHashSet};
pub use idkey::{IdKey, IDKEY_INLINE};
pub use index::HashIndex;
pub use registry::{
    IndexId, IndexKey, IndexRegistry, IndexRegistryStats, IndexSnapshot, IndexTelemetry,
    SharedIndex,
};
pub use relation::Relation;
pub use row::{row_allocations, Row};
pub use schema::{Attr, Schema};
pub use shared::{AppliedBatch, Epoch, RelationRef, SharedDatabase};
pub use value::Value;

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
