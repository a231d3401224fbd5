//! The workspace's own static analyzer (the `betalike-lint` binary).
//!
//! The publish pipeline promises determinism (bit-identical artifacts
//! across runs and thread counts), the server and store promise
//! panic-freedom on request/decode paths, and the wire protocol promises
//! that every op and every scheme is wired through every layer. Those
//! promises are invariants of the *codebase*, not of any one test — so
//! this crate enforces them mechanically, with a hand-rolled lexer (the
//! build environment is offline; no `syn`) and a token-level rule engine
//! that walks every `crates/*/src` and `vendor/mini-rayon` file.
//!
//! See [`rules`] for the catalogue, `DESIGN.md` §11 for the suppression
//! and baseline policy, and the `betalike-lint` binary for the CLI.
//!
//! Findings can be silenced two ways, both audited:
//!
//! * an inline allow-comment on (or directly above) the offending line,
//!   naming the rule and a mandatory reason — see
//!   [`source::SUPPRESS_MARKER`] for the marker and `DESIGN.md` §11 for
//!   the exact grammar (not spelled out here: the self-scan would read
//!   it);
//! * a baseline entry grandfathering a pre-existing finding. The baseline
//!   is a ratchet: stale entries are themselves findings (B0), so it can
//!   only shrink.

pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;
