//! # betalike-query
//!
//! The aggregation-query workload of Sections 5 and 6 of the paper, and the
//! answer estimators for each publication form:
//!
//! ```sql
//! SELECT COUNT(*) FROM Anonymized-data
//! WHERE pred(A1) AND ... AND pred(Alambda) AND pred(SA)
//! ```
//!
//! Each predicate is a range over the attribute's encoded domain; for an
//! expected selectivity `θ` over `λ` QI predicates plus the SA predicate,
//! every range has length `|A| · θ^{1/(λ+1)}` (uniformity assumption of
//! Section 6.2).
//!
//! Estimators:
//! * [`GeneralizedView::estimate`] — uniform-spread intersection between the
//!   query box and each EC's published box, times the EC's exact count of
//!   in-range SA values (generalization publishes SA values verbatim);
//! * [`estimate_perturbed`] — filter rows by the (unperturbed) QI
//!   predicates, reconstruct original SA counts via `N′ = PM⁻¹ E′`, sum the
//!   reconstructed counts over the SA range;
//! * [`estimate_anatomy`] — `|S_t| · Σ_{v ∈ R_SA} p_v` from the published
//!   global distribution.
//!
//! [`PublishedAnswerer`] bundles any of the three forms with a shared
//! handle on the original table, so a resident publisher (the
//! `betalike-server` crate) computes a publication once and answers many
//! queries from it without re-deriving state. It also derives a
//! [`Catalog`] — per-group aggregate summaries that answer counts in
//! `O(groups touched)` or `O(log n)` instead of `O(rows)`, bit-identically
//! to the scan paths (see [`catalog`] for the layout and the planner).
//!
//! [`relative_error`] / [`median_relative_error`] implement the error
//! measure of Figures 8 and 9 (queries with a zero exact answer are
//! dropped, as in the paper).

#![deny(missing_docs)]

pub mod answer;
pub mod catalog;
pub mod published;
pub mod workload;

pub use answer::{
    compile_preds, estimate_anatomy, estimate_perturbed, exact_count, qi_matches, GeneralizedView,
};
pub use catalog::{Catalog, CatalogPlan, CatalogSpec, CatalogStats, GroupingSpec, CATALOG_VERSION};
pub use published::PublishedAnswerer;
pub use workload::{generate_workload, AggQuery, RangePred, WorkloadConfig};

/// Relative error in percent: `|est − exact| / exact × 100`, or `None` when
/// the exact answer is zero (the paper drops such queries).
pub fn relative_error(est: f64, exact: f64) -> Option<f64> {
    if exact == 0.0 {
        None
    } else {
        Some((est - exact).abs() / exact * 100.0)
    }
}

/// Median of the defined relative errors over a workload, in percent.
/// Returns `None` if every query had a zero exact answer.
pub fn median_relative_error(errors: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let mut defined: Vec<f64> = errors.into_iter().flatten().collect();
    if defined.is_empty() {
        return None;
    }
    defined.sort_by(f64::total_cmp);
    let n = defined.len();
    Some(if n % 2 == 1 {
        defined[n / 2]
    } else {
        0.5 * (defined[n / 2 - 1] + defined[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110.0, 100.0), Some(10.0));
        assert_eq!(relative_error(90.0, 100.0), Some(10.0));
        assert_eq!(relative_error(5.0, 0.0), None);
        assert_eq!(relative_error(0.0, 50.0), Some(100.0));
    }

    #[test]
    fn zero_exact_answers_are_excluded() {
        // The paper drops queries whose exact answer is zero instead of
        // dividing by it; the exclusion must hold whatever the estimate
        // says, including a (wrong) non-zero one and edge-case floats.
        for est in [0.0, 1.0, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(relative_error(est, 0.0), None, "est = {est}");
        }
        // Negative zero is still an exact answer of zero.
        assert_eq!(relative_error(3.0, -0.0), None);
        // Excluded queries carry no weight in the median either.
        assert_eq!(
            median_relative_error([Some(10.0), relative_error(5.0, 0.0), Some(20.0)]),
            Some(15.0)
        );
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(
            median_relative_error([Some(1.0), Some(9.0), Some(5.0)]),
            Some(5.0)
        );
        assert_eq!(
            median_relative_error([Some(1.0), Some(3.0), Some(5.0), Some(7.0)]),
            Some(4.0)
        );
        assert_eq!(median_relative_error([None, Some(2.0), None]), Some(2.0));
        assert_eq!(median_relative_error([None, None]), None);
        assert_eq!(median_relative_error([]), None);
    }
}
