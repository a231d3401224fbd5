//! # betalike-microdata
//!
//! Microdata substrate for the `betalike` workspace: typed relational tables
//! with quasi-identifier (QI) and sensitive attributes (SA), generalization
//! hierarchies for categorical attributes, sensitive-value distributions, and
//! the synthetic CENSUS dataset used throughout the evaluation of
//!
//! > Jianneng Cao, Panagiotis Karras: *Publishing Microdata with a Robust
//! > Privacy Guarantee*. PVLDB 5(11), 2012.
//!
//! The crate is deliberately dependency-light and columnar: every attribute
//! value is stored as a `u32` *code* into the attribute's domain, so scans,
//! histograms and partitioning are cache-friendly even at the paper's default
//! scale of 500 000 tuples.
//!
//! ## Layout
//!
//! * [`hierarchy`] — generalization hierarchies (Figure 1 of the paper) as
//!   flattened pre-order trees with O(height) lowest-common-ancestor queries.
//! * [`schema`] — attribute and schema descriptions (numeric / categorical).
//! * [`table`] — the columnar [`Table`] and its builder.
//! * [`distribution`] — sensitive-attribute histograms ([`SaDistribution`]).
//! * [`census`] — a seeded generator reproducing Table 3 of the paper
//!   (500K × 6 CENSUS) with realistic QI↔SA correlation.
//! * [`patients`] — the six-tuple patient example (Table 1 + Figure 1).
//! * [`synthetic`] — small random tables for tests and property checks.
//! * [`io`] — CSV export/import of decoded tables.
//! * [`json`] — a small JSON kernel backing [`spec`] and the perturbation
//!   plan release (the build is offline, so no `serde`).
//! * [`hash`] — the stable FNV-1a content hash behind publication handles
//!   and snapshot checksums.

#![warn(missing_docs)]

pub mod census;
pub mod distribution;
pub mod error;
pub mod hash;
pub mod hierarchy;
pub mod io;
pub mod json;
pub mod patients;
pub mod schema;
pub mod spec;
pub mod synthetic;
pub mod table;

pub use distribution::SaDistribution;
pub use error::{Error, Result};
pub use hierarchy::{Hierarchy, NodeId, NodeSpec};
pub use schema::{AttrKind, Attribute, Schema};
pub use spec::SchemaSpec;
pub use table::{Table, TableBuilder};

/// An encoded attribute value: an index into the attribute's domain.
///
/// * For numeric attributes, code `i` denotes the `i`-th smallest domain
///   value (see [`AttrKind::Numeric`]).
/// * For categorical attributes, code `i` denotes the `i`-th leaf of the
///   generalization hierarchy in pre-order (see [`AttrKind::Categorical`]).
pub type Value = u32;

/// A row index into a [`Table`].
pub type RowId = usize;
