//! # dcq-core
//!
//! The primary contribution of **dcqx**: efficient evaluation of the **difference of
//! conjunctive queries (DCQ)**, reproducing *Computing the Difference of Conjunctive
//! Queries Efficiently* (Hu & Wang, SIGMOD 2023).
//!
//! Given two conjunctive queries `Q₁ = (y, V₁, E₁)` and `Q₂ = (y, V₂, E₂)` with the
//! same output attributes and a database instance, the crate answers
//! `Q₁(D₁) − Q₂(D₂)` — the tuples produced by `Q₁` but not by `Q₂` — with the
//! algorithms, dichotomy and heuristics of the paper:
//!
//! * [`query`] — CQ / DCQ abstract syntax and binding against a [`dcq_storage::Database`],
//! * [`parse`] — a small datalog-style text syntax for defining queries,
//! * [`mod@classify`] — the difference-linear dichotomy of Theorem 2.4,
//! * [`easy`] — the linear-time `EasyDCQ` algorithm (Algorithm 2, §3),
//! * [`baseline`] — the standard approach: materialize both sides, subtract
//!   (Corollary 2.1 — what the vanilla SQL plans of §6 do),
//! * [`heuristics`] — the §4.2 heuristics for hard DCQs (Theorems 4.8 and 4.10,
//!   Corollary 2.5),
//! * [`planner`] — picks the right strategy per Table 1 and explains its choice,
//! * [`cache`] — the prepared-plan cache keyed by canonical query shape, so an
//!   engine classifies each shape once no matter how often it is prepared,
//! * [`multi`] — difference of multiple CQs (Algorithm 4, §5.1),
//! * [`compose`] — selection / projection / join composed with DCQs (§5.2),
//! * [`aggregate`] — aggregation over annotated relations, relational and numerical
//!   difference (§5.3),
//! * [`bag`] — bag-semantics DCQ (§5.4, Appendix C),
//! * [`scq`] — signed conjunctive queries, rewrites and decidability (§7).

#![warn(missing_docs)]

pub mod aggregate;
pub mod bag;
pub mod baseline;
pub mod cache;
pub mod classify;
pub mod compose;
pub mod delta_plan;
pub mod easy;
pub mod error;
pub mod heuristics;
pub mod multi;
pub mod parse;
pub mod planner;
pub mod query;
pub mod scq;

pub use cache::{CachedPlan, CqShapeKey, PlanCache, PlanCacheStats, QueryShapeKey};
pub use classify::{classify, DcqClass, DcqClassification};
pub use delta_plan::{
    build_delta_plans, AtomBinding, CqDeltaPlans, DeltaStep, IndexSpec, OccurrencePlan,
};
pub use error::DcqError;
pub use parse::{parse_cq, parse_dcq};
pub use planner::{
    DcqPlanner, IncrementalPlan, IncrementalStrategy, MaintenanceCostModel, Strategy,
};
pub use query::{Atom, ConjunctiveQuery, Dcq};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, DcqError>;
