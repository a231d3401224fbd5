//! # betalike-obs
//!
//! The workspace's observability layer: everything the serving stack uses
//! to *measure itself* without perturbing what it measures.
//!
//! Three pieces, all dependency-free and `std`-only:
//!
//! * [`registry`] — a process-wide metrics [`Registry`] of named
//!   [`Counter`]s, [`Gauge`]s and log-bucketed latency [`Histogram`]s.
//!   Every cell is a plain atomic behind an [`std::sync::Arc`], so a hot
//!   path that holds its handle pays one `fetch_add` per update; the
//!   registry's lock is touched only on registration, on
//!   [`Registry::snapshot`], and inside [`Registry::coherent`] blocks
//!   (multi-metric transitions that a snapshot must never observe
//!   half-applied — the fix for the `health` gauge races, see
//!   `DESIGN.md` §14).
//! * [`clock`] — the [`Clock`] seam. Production code takes time through
//!   `Arc<dyn Clock>`; [`RealClock`] is the **only** type in the
//!   workspace outside `crates/bench` allowed to touch
//!   `std::time::Instant` (betalike-lint rule D2 carves exactly that
//!   file out), and [`ManualClock`] gives tests deterministic time.
//! * [`trace`] / [`log`] — per-request [`Trace`]s with named, nested
//!   [`Span`]s timing each pipeline stage, and a leveled [`Logger`]
//!   writing structured text or JSON lines (the `BETALIKE_LOG`
//!   environment variable and the server's `--log-level` / `--log-json`
//!   flags configure it).
//!
//! The crate renders Prometheus-style text exposition
//! ([`Snapshot::to_prometheus`]) but deliberately knows nothing about the
//! workspace's JSON kernel or wire protocol — the server maps snapshots
//! onto the wire itself, keeping this crate leaf-level and reusable from
//! `crates/store` and `crates/query` without dependency cycles.

#![deny(missing_docs)]

pub mod clock;
pub mod log;
pub mod registry;
pub mod trace;

pub use clock::{Clock, ManualClock, RealClock};
pub use log::{Level, LogValue, Logger};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, NUM_BUCKETS};
pub use trace::{Span, SpanRecord, Trace};
