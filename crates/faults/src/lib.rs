//! # betalike-faults
//!
//! Deterministic fault injection for the betalike workspace. The paper's
//! durability story — tempfile + fsync + rename, quarantine-on-corrupt —
//! is only a *claim* until something kills the store at every syscall and
//! checks what survives. This crate provides the machinery:
//!
//! * [`Vfs`] — the syscall-routing trait every I/O operation of the
//!   artifact store goes through. Each call site carries a stable
//!   `&'static str` site label, so failure schedules are addressable
//!   ("fail the 2nd fsync of the manifest") and coverage is enumerable
//!   (the torture suite asserts it observed *every* site the store
//!   exports, mirroring `AttackKind::ALL` in the attack battery).
//! * [`RealVfs`] — the zero-cost passthrough used in production.
//! * [`ChaosVfs`] — the injectable implementation: fails or crash-halts
//!   at the N-th operation according to a [`FaultPlan`], including a
//!   ChaCha8-seeded random schedule that is bit-replayable per seed. A
//!   "crash" is modeled as a blown fuse: the fatal write leaves a torn
//!   prefix on disk (exactly what a power cut mid-`write(2)` leaves) and
//!   every subsequent operation fails — the test then reopens the
//!   directory with [`RealVfs`] and asserts the recovery invariants.
//! * [`RetryPolicy`] / [`Sleeper`] — the deterministic jittered backoff
//!   the wire client retries retryable server errors with, with an
//!   injectable clock ([`RecordingSleeper`]) so schedules are assertable
//!   without real sleeping.
//!
//! See `DESIGN.md` §12 ("Failure model") for the injection-site table and
//! the crash-point matrix the `crates/faults/tests/torture.rs` suite runs.

#![warn(missing_docs)]

pub mod chaos;
pub mod retry;
pub mod vfs;

pub use chaos::{ChaosVfs, FaultPlan, OpRecord};
pub use retry::{RecordingSleeper, RetryPolicy, Sleeper, ThreadSleeper};
pub use vfs::{RealVfs, Vfs, VfsOp};
