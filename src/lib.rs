//! # dcqx
//!
//! Umbrella crate for the **dcqx** workspace — a Rust reproduction and extension of
//! *Computing the Difference of Conjunctive Queries Efficiently* (Hu & Wang, SIGMOD
//! 2023).  It re-exports the commonly used types from every layer so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`dcq_storage`] — relations, rows, schemas, databases, signed tuple deltas,
//! * [`dcq_hypergraph`] — acyclicity / free-connex / linear-reducible structure,
//! * [`dcq_exec`] — joins, `Reduce`, Yannakakis, generic join,
//! * [`dcq_core`] — the DCQ dichotomy, `EasyDCQ`, heuristics, the planner and the
//!   prepared-plan cache,
//! * [`dcq_incremental`] — incremental DCQ view maintenance under batched updates,
//! * [`dcq_engine`] — the [`DcqEngine`] facade: one shared, epoch-versioned store,
//!   prepared DCQs, and multi-view update fan-out,
//! * [`dcq_server`] — the concurrent view service: length-prefixed JSON over TCP,
//!   one ingestion thread behind a bounded queue, durable WAL + checkpoints,
//!   and snapshot-served reads,
//! * [`dcq_datagen`] — synthetic graph / benchmark / update workloads.
//!
//! The `examples/` directory demonstrates each subsystem; the `tests/` directory
//! holds the cross-crate integration suite.

#![warn(missing_docs)]

pub use dcq_core;
pub use dcq_datagen;
pub use dcq_engine;
pub use dcq_exec;
pub use dcq_hypergraph;
pub use dcq_incremental;
pub use dcq_server;
pub use dcq_storage;

pub use dcq_core::{
    classify, parse_cq, parse_dcq, Atom, ConjunctiveQuery, Dcq, DcqPlanner, PlanCache,
};
pub use dcq_engine::{ApplyReport, DcqEngine, PreparedDcq, ViewHandle};
pub use dcq_incremental::DcqView;
pub use dcq_server::{DcqClient, DcqServer, DurabilityConfig, ServerConfig};
pub use dcq_storage::{Database, DeltaBatch, Relation, Row, Schema, SharedDatabase, Value};

pub mod testkit;
pub mod util;
