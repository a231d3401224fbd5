//! # betalike-baselines
//!
//! The comparison algorithms of the paper's evaluation (Section 6):
//!
//! * [`mondrian()`] — the Mondrian multidimensional partitioner (LeFevre et
//!   al., ICDE 2006), generic over a [`mondrian::SplitConstraint`]. The
//!   paper adapts Mondrian to three privacy models, reproduced in
//!   [`constraints`]:
//!   * **LMondrian** — split only if both halves satisfy β-likeness;
//!   * **DMondrian** — split only if both halves satisfy
//!     δ-disclosure-privacy, with `δ = ln(1 + min{β, −ln max_i p_i})` chosen
//!     so the output also satisfies β-likeness (Section 6.2);
//!   * **tMondrian** — split only if both halves satisfy t-closeness.
//! * [`sabre()`] — a reimplementation of the SABRE t-closeness algorithm
//!   (Cao et al., VLDB J. 2011) in the same bucketize-and-redistribute
//!   framework as BUREL, with an EMD-budget eligibility condition.
//! * [`anatomy`] — the Baseline of Section 6.3: publish exact QI values
//!   together with the overall SA distribution (in the manner of Anatomy).
//!
//! All algorithms emit the same [`betalike_metrics::Partition`] publication
//! form as BUREL, so the auditors compare them apples-to-apples.

#![warn(missing_docs)]

pub mod anatomy;
pub mod constraints;
pub mod mondrian;
pub mod sabre;

pub use anatomy::AnatomyBaseline;
pub use constraints::{
    delta_for_beta, DeltaDisclosureConstraint, KAnonymityConstraint, LikenessConstraint,
    TClosenessConstraint, TwoSidedLikenessConstraint,
};
pub use mondrian::{mondrian, DimPolicy, MondrianConfig};
pub use sabre::{sabre, SabreConfig};
