//! # betalike-metrics
//!
//! Publication forms and evaluation machinery for the `betalike` workspace:
//!
//! * [`partition`] — the [`Partition`] type: a table published as a set of
//!   equivalence classes (ECs) with generalized QI extents.
//! * [`loss`] — the information-loss metrics of Section 4.1 of the paper:
//!   per-attribute loss (Equations 2–3), per-EC loss (Equation 4) and
//!   table-level average information loss *AIL* (Equation 5).
//! * [`distance`] — distribution distances: equal-distance EMD (total
//!   variation), ordered EMD, Kullback–Leibler and Jensen–Shannon
//!   divergences, used both by the t-closeness baselines and by the
//!   Section 2 arguments contrasting cumulative and relative measures.
//! * [`audit`] — model-free privacy auditors: the β, t, ℓ and δ actually
//!   *achieved* by a partition, as reported in Figure 4 and the Section 7
//!   table of the paper.
//!
//! The crate measures; it never anonymizes. The same auditors evaluate our
//! algorithms and the baselines, so comparisons are apples-to-apples.

#![warn(missing_docs)]

pub mod audit;
pub mod distance;
pub mod export;
pub mod loss;
pub mod partition;

pub use audit::PartitionAudit;
pub use partition::Partition;
