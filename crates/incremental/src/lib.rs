//! # dcq-incremental
//!
//! Incremental maintenance of DCQ results under batched updates — the serving-side
//! companion to the one-shot evaluation algorithms of `dcq-core`.
//!
//! A production deployment asks the *same* difference query `Q₁(D) − Q₂(D)` again
//! and again while the database changes underneath it.  Rather than re-running the
//! planner's one-shot pipeline per request, this crate registers the DCQ once as a
//! [`DcqView`] and keeps its result current as signed tuple deltas
//! ([`dcq_storage::DeltaBatch`]) stream in, in the spirit of Berkholz, Keppeler &
//! Schweikardt, *Answering Conjunctive Queries under Updates* (PODS 2017), by
//! counting ([`IncrementalStrategy::Counting`], the planner's choice for
//! difference-linear and hard DCQs alike): per-tuple support counts on both
//! sides, updated by ℤ-annotated, index-backed delta joins ([`CountingCq`])
//! whose cost follows the delta size, not the store.  A tuple enters the result
//! exactly when its `Q₁` count rises above zero while its `Q₂` count is zero,
//! and leaves when either condition flips.
//!
//! Counting is update-equivalent to full recomputation: the property tests in
//! `tests/incremental_maintenance.rs` check the maintained result against an
//! independent nested-loop reference over randomized insert/delete sequences,
//! and the side counts against a brute-force support count.
//!
//! ## Shared-store views, shared indexes
//!
//! The maintenance core is [`DcqView`]: per-view state that owns **no database
//! copy and no private index structures**.  It consumes the normalized
//! [`dcq_storage::AppliedBatch`] records a shared, epoch-versioned
//! [`dcq_storage::SharedDatabase`] produces — one store, one normalization pass
//! and one epoch counter fanned out to every registered view — and its counting
//! engines probe the store's refcounted **index registry**
//! ([`dcq_storage::registry`]): every delta-join index is owned by the storage
//! layer, maintained exactly once per batch, and shared by every view whose
//! (α-canonical) delta plans probe the same `(relation, equality signature,
//! key columns)` structure.  Per-view state is the support-count maps plus the
//! result membership set, so memory scales as `O(data + counts)` instead of
//! `O(views × data)`.
//!
//! (The first-generation single-view `MaintainedDcq` shim was deprecated in the
//! engine redesign and has since been removed; register views on a
//! `dcq_engine::DcqEngine` instead.)

#![warn(missing_docs)]

pub mod count;
pub mod pool;
pub(crate) mod tele;
pub mod view;

pub use count::{CountingCq, CountingTelemetry, HeadDelta};
pub use dcq_core::planner::{IncrementalPlan, IncrementalStrategy};
pub use pool::{CountingPool, CountingPoolStats, SharedCountingCq};
pub use view::{BatchOutcome, DcqView, MaintenanceStats};

use std::fmt;

/// Errors surfaced by incremental maintenance.
#[derive(Debug)]
pub enum IncrementalError {
    /// An error from query validation or evaluation.
    Core(dcq_core::DcqError),
    /// An error from the storage layer.
    Storage(dcq_storage::StorageError),
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::Core(e) => write!(f, "core: {e}"),
            IncrementalError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for IncrementalError {}

impl From<dcq_core::DcqError> for IncrementalError {
    fn from(e: dcq_core::DcqError) -> Self {
        IncrementalError::Core(e)
    }
}

impl From<dcq_storage::StorageError> for IncrementalError {
    fn from(e: dcq_storage::StorageError) -> Self {
        IncrementalError::Storage(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, IncrementalError>;
