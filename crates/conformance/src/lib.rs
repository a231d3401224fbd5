//! # betalike-conformance
//!
//! An *independent* conformance oracle for published β-likeness artifacts,
//! plus the adversarial battery and the deterministic artifact fuzzer that
//! exercise it. The paper's entire value proposition is the guarantee —
//! every published table must satisfy β-likeness against an adversary with
//! arbitrary background knowledge (Cao & Karras, VLDB 2012) — so the
//! guarantee deserves a checker that shares **no code** with the pipeline
//! it audits: a bug in `betalike-metrics` or `betalike` (core) cannot also
//! hide in the oracle, because the oracle recomputes everything from raw
//! rows.
//!
//! The crate has two strictly separated halves (enforced by review, spelled
//! out in `DESIGN.md` §10):
//!
//! * **The oracle** ([`oracle`], [`report`]) — re-derives per-EC SA
//!   distributions, the relative-gain β, information loss and (for the
//!   perturbation scheme) the plan's distribution invariants directly from
//!   the published artifact. It depends only on `betalike-microdata` (raw
//!   data access: columns, schema, hierarchy navigation) and
//!   `betalike-store` (decoding `.bpub` documents). It never calls
//!   `betalike-metrics` or `betalike` (core) functions — the structs those
//!   crates persist ([`betalike_metrics::PartitionAudit`]) appear only as
//!   *claims under test*.
//! * **The harness** ([`battery`], [`publish`], [`fuzz`], [`mutate`]) —
//!   drives the system under test: publishes artifacts through the real
//!   pipeline, runs every adversary in `betalike-attacks` against them,
//!   synthesizes random publications, and deliberately corrupts artifacts
//!   to prove the oracle has teeth.
//!
//! Entry points:
//!
//! * [`verify_snapshot`] / [`verify_bytes`] — full verification of a
//!   decoded / serialized `.bpub` publication;
//! * [`verify_generalized`] / [`verify_perturbed`] / [`verify_anatomy`] —
//!   in-memory verification of one publication form;
//! * [`run_battery_snapshot`] — the attack battery over a publication;
//! * [`fuzz_oracle`] — the deterministic fuzz loop CI runs.
//!
//! The `betalike-verify` binary (in `betalike-server`, which layers the
//! TCP path on top) exposes all of this on the command line; see the
//! README's "Verifying a publication" quickstart.

#![warn(missing_docs)]

pub mod battery;
pub mod fuzz;
pub mod mutate;
pub mod oracle;
pub mod publish;
pub mod report;

pub use battery::{run_battery_snapshot, AttackVerdict, BatteryReport};
pub use fuzz::{fuzz_oracle, FuzzOutcome};
pub use mutate::Mutation;
pub use oracle::{
    verify_anatomy, verify_bytes, verify_generalized, verify_perturbed, verify_snapshot,
};
pub use publish::{publish_snapshot, PublishSpec, Scheme};
pub use report::{Check, OracleReport};
