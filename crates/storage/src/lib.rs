//! # checkmate-storage
//!
//! The durable checkpoint store — our MinIO substitute — as a pluggable
//! subsystem.
//!
//! Checkpoints only count once they are durable (paper §III-A: "the
//! checkpoints are stored in durable storage"), so every protocol's
//! checkpoint path ends in a PUT here, and every recovery starts with
//! GETs. The subsystem has three layers:
//!
//! - [`StorageBackend`] — the keyed blob-store contract, with three
//!   implementations: [`MemBackend`] (ordered in-memory map),
//!   [`FileBackend`] (objects as files on disk; survives process
//!   restarts), and [`PerturbedBackend`] (decorator injecting latency
//!   distributions, bandwidth caps and transient failures);
//! - [`StorageProfile`] — each backend's declared latency/bandwidth
//!   figures, which the virtual-time engine prices checkpoint uploads
//!   and recovery fetches from (state size drives checkpoint and restart
//!   durations exactly as a remote object store would);
//! - [`ObjectStore`] — the facade handle in front of a backend, adding
//!   per-operation traffic accounting ([`StoreStats`]) and
//!   transient-failure retries with retry accounting.
//!
//! Both execution planes checkpoint into one flat store built from
//! these. The tiered store ([`TieredBackend`], `tier`/`layer`/`compact`
//! modules: hot ingest → immutable deduplicated warm layers → modeled
//! cold offload) is a standalone library that neither plane uses; it is
//! kept for the standalone benchmark's `storage.tier.*` layer cells.

pub mod backend;
pub mod compact;
pub mod file;
pub mod layer;
pub mod perturb;
pub mod profile;
pub mod store;
pub mod tier;

pub use backend::{MemBackend, ObjectKey, StorageBackend, StorageError};
pub use compact::{maintenance_io_ns, MaintenanceReport, TierPolicy};
pub use file::FileBackend;
pub use layer::Layer;
pub use perturb::{Brownout, Perturbation, PerturbedBackend};
pub use profile::StorageProfile;
pub use store::{ObjectStore, SharedStore, StoreStats, MAX_ATTEMPTS, TRY_ATTEMPTS};
pub use tier::{Tier, TierStats, TieredBackend, TieredProfile, TieredStats};
