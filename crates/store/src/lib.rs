//! # scc-store — crash-safe persistent result store
//!
//! An append-only, segment-file log of simulation results keyed by the
//! runner's content hash (`Job::key`), designed so that a `kill -9` at
//! any instant — or a flipped bit anywhere on disk — can never make the
//! store panic, lose a synced record, or hand back bytes that don't
//! checksum-verify.
//!
//! Layers, bottom up:
//!
//! - [`record`]: the record wire format and its defensive parser,
//!   which classifies damage as *corrupt* (skip one record) or *torn*
//!   (truncate the tail).
//! - [`segment`]: segment headers (stamped with format/schema versions
//!   and the engine git revision — the staleness guard), the full-file
//!   recovery scan, and the sparse-index sidecar for sorted segments.
//! - [`compact`]: pure size-tiered bucketing that picks which sealed
//!   segments to merge.
//! - [`store`]: [`Store`] itself — open/recover, `put`/`get`/
//!   `tombstone`, rotation, and crash-safe compaction
//!   (tmp → fsync → rename).
//!
//! The crate is std-only — its one dependency, `scc-isa`, supplies the
//! FNV-1a key hash and the CRC-32C checksum guarding every record,
//! segment header, and index sidecar, and has no dependencies itself —
//! and knows nothing
//! about the simulator; values are opaque bytes. `scc-sim` layers its result codec and the
//! runner's persistent tier on top.

pub mod compact;
pub mod record;
pub mod segment;
pub mod store;

pub use compact::CompactionConfig;
pub use record::key_hash;
pub use store::{RecoveryReport, Store, StoreConfig, StoreStats};
