//! # betalike-attacks
//!
//! Attack simulations from Sections 2 and 7 of the paper, used to
//! demonstrate that β-likeness curbs them:
//!
//! * [`naive_bayes`] — the Naïve-Bayes attack of Section 7 (Equations
//!   15–17): learn `Pr[t_j | v_i]` from the published ECs and predict each
//!   individual's SA value. Under β-likeness the learned conditionals are
//!   pinned to within `(1 + min{β, −ln p_i})` of the unconditional
//!   `Pr[t_j]`, so the classifier collapses to predicting the most frequent
//!   value.
//! * [`definetti`] — a simplified deFinetti attack (Kifer, SIGMOD 2009):
//!   iteratively re-matching SA values to tuples inside each EC with a
//!   classifier trained on the current matching.
//! * [`skewness`] — the skewness and similarity attacks of Section 2
//!   against ℓ-diversity-style publications.
//! * [`corruption`] — the corruption attack of Tao et al. (Section 7):
//!   generalization is exposed, the perturbation scheme provably immune.

#![warn(missing_docs)]

pub mod corruption;
pub mod definetti;
pub mod naive_bayes;
pub mod skewness;

pub use corruption::{
    corruption_attack_generalized, corruption_attack_perturbed, CorruptionOutcome,
};
pub use definetti::{definetti_attack, DefinettiConfig, DefinettiOutcome};
pub use naive_bayes::{naive_bayes_attack, NaiveBayesOutcome};
pub use skewness::{similarity_leaks, skewness_gain};

/// The adversary roster — one variant per attack this crate implements.
///
/// Battery runners (the `betalike-conformance` crate) `match` over
/// [`AttackKind::ALL`], so adding an attack here without teaching every
/// battery about it is a *compile* error, not a silently narrower audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// The Naïve-Bayes attack of Section 7 ([`naive_bayes_attack`]).
    NaiveBayes,
    /// The simplified deFinetti attack ([`definetti_attack`]).
    Definetti,
    /// The skewness/similarity attacks of Section 2 ([`skewness_gain`],
    /// [`similarity_leaks`]).
    Skewness,
    /// The corruption attack of Tao et al.
    /// ([`corruption_attack_generalized`], [`corruption_attack_perturbed`]).
    Corruption,
}

impl AttackKind {
    /// Every attack in the roster, in documentation order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::NaiveBayes,
        AttackKind::Definetti,
        AttackKind::Skewness,
        AttackKind::Corruption,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::NaiveBayes => "naive_bayes",
            AttackKind::Definetti => "definetti",
            AttackKind::Skewness => "skewness",
            AttackKind::Corruption => "corruption",
        }
    }

    /// Whether the attack applies to generalization-based publications.
    pub fn applies_to_generalized(self) -> bool {
        true
    }

    /// Whether the attack applies to the perturbation scheme (only the
    /// corruption attack has a perturbation-side claim — the Section 7
    /// immunity argument).
    pub fn applies_to_perturbed(self) -> bool {
        matches!(self, AttackKind::Corruption)
    }
}

#[cfg(test)]
mod roster_tests {
    use super::AttackKind;

    #[test]
    fn roster_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            AttackKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), AttackKind::ALL.len());
        assert!(AttackKind::ALL.iter().all(|k| k.applies_to_generalized()));
        assert_eq!(
            AttackKind::ALL
                .iter()
                .filter(|k| k.applies_to_perturbed())
                .count(),
            1
        );
    }
}
