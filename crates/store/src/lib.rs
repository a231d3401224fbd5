//! # betalike-store
//!
//! Durable publication storage for the `betalike` workspace: the paper's
//! deliverable is a *published* table that outlives the publisher, so this
//! crate gives every publication a checksummed on-disk form that a
//! restarted `betalike-serve` reads back and serves **bit-identically**,
//! with zero pipeline recomputation. Three layers, std-only like the rest
//! of the workspace:
//!
//! * [`btbl`] — **BTBL**, a versioned little-endian binary columnar
//!   snapshot of a [`betalike_microdata::Table`]: magic + header,
//!   per-column typed blocks packed at the narrowest width the domain
//!   allows, the categorical string dictionary written once per attribute,
//!   and an FNV-1a checksum per section.
//! * [`bpub`] — **BPUB**, the publication envelope: the normalized publish
//!   parameters, the source table (nested BTBL), the publication form's
//!   stored state (EC row lists / perturbed column + plan), and the
//!   publish-time privacy audit.
//! * [`disk`] — the content-addressed [`disk::ArtifactStore`]:
//!   `<data-dir>/artifacts/pub-….bpub` plus an atomically rewritten
//!   `MANIFEST`, tempfile-then-rename writes, and quarantine of corrupt
//!   entries on open.
//!
//! Readers are defensive: truncation, corruption and version skew surface
//! as structured [`StoreError`]s naming the failing section, and decoded
//! schemas/codes are re-validated against their domains before a `Table`
//! is handed out.
//!
//! The `betalike-store` binary (`inspect`, `verify`, `export-json`,
//! `gc`) operates on a data directory without a running server; see the
//! README's "Durable publications" quickstart and `DESIGN.md` §9.

// Backstops betalike-lint rule P1 (request/decode paths are panic-free)
// with rustc's own machinery; test code is exempt, matching P1's scope.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod bpub;
pub mod btbl;
pub mod codec;
pub mod disk;
pub mod error;
pub mod obs;

pub use bpub::{
    publication_from_slice, publication_to_vec, CatalogSnapshot, FormSnapshot, PubParams,
    PublicationSnapshot,
};
pub use btbl::{table_from_slice, table_to_vec};
pub use disk::{ArtifactStore, StoreEntry};
pub use error::{Result, StoreError};
pub use obs::StoreObs;
