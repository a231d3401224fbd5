//! # betalike
//!
//! A production-quality Rust implementation of
//!
//! > Jianneng Cao, Panagiotis Karras: *Publishing Microdata with a Robust
//! > Privacy Guarantee*. PVLDB 5(11): 1388–1399, VLDB 2012.
//!
//! The paper introduces **β-likeness**, a privacy model for microdata
//! publication that bounds the *relative* gain in an adversary's confidence
//! about every sensitive-attribute (SA) value, and two anonymization schemes
//! tailored to it:
//!
//! * **BUREL** ([`burel()`]) — a generalization algorithm that *bucketizes* SA
//!   values by frequency (dynamic programming, [`bucketize`]), *reallocates*
//!   tuples to equivalence classes through a binary ECTree ([`ectree`]), and
//!   materializes classes with Hilbert-curve QI locality ([`retrieve`]).
//! * **β-likeness by perturbation** ([`perturb()`]) — a per-value randomized
//!   response whose published matrix lets recipients reconstruct original
//!   counts (`N′ = PM⁻¹ × E′`).
//!
//! ## Quick start
//!
//! ```
//! use betalike::{burel, BurelConfig, BetaLikeness, verify};
//! use betalike_microdata::patients::{example2_table, attr};
//! use betalike_metrics::loss::average_information_loss;
//!
//! let table = example2_table();
//! let qi = [attr::WEIGHT, attr::AGE];
//!
//! // Publish with enhanced 2-likeness: no SA value's frequency in any EC
//! // may exceed (1 + min{2, -ln p}) * p.
//! let published = burel(&table, &qi, attr::DISEASE, &BurelConfig::new(2.0)).unwrap();
//!
//! // The guarantee is checked against the definition, not the algorithm.
//! let model = BetaLikeness::new(2.0).unwrap();
//! assert!(verify(&table, &published, &model).is_ok());
//! println!("AIL = {:.3}", average_information_loss(&table, &published));
//! ```
//!
//! The sibling crates provide the substrate (`betalike-microdata`,
//! `betalike-hilbert`), evaluation (`betalike-metrics`), baselines
//! (`betalike-baselines`), query workloads (`betalike-query`) and attack
//! simulations (`betalike-attacks`).

#![warn(missing_docs)]

pub mod bucketize;
pub mod burel;
pub mod ectree;
pub mod error;
pub mod grouped;
pub mod linalg;
pub mod model;
pub mod perturb;
pub mod retrieve;

pub use burel::{burel, burel_with_keys, BurelConfig};
pub use error::{Error, Result, Violation};
pub use grouped::{burel_grouped, verify_grouped, SaGrouping};
pub use model::{verify, verify_two_sided, BetaLikeness, BoundKind};
pub use perturb::{perturb, PerturbationPlan, PerturbedTable};
pub use retrieve::FillStrategy;

/// Serializes the tests (across this crate's modules) that mutate the
/// process-global `mini_rayon` thread count: without the lock, a
/// concurrently running test could raise the count between a test's
/// `set_threads(1)` and its "serial" baseline run, silently voiding the
/// serial-vs-parallel comparison.
#[cfg(test)]
pub(crate) fn threads_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
