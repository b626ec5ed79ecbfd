//! # checkmate-core
//!
//! The checkpointing protocols of the CheckMate paper (ICDE 2024) as
//! runtime-agnostic state machines, plus the recovery theory they rest on:
//!
//! - [`coor`] — coordinated aligned checkpointing (marker alignment);
//! - [`cic`] — communication-induced checkpointing (HMNR, plus the BCS
//!   ablation variant);
//! - [`meta`] — checkpoint metadata, channel watermarks, send/receive
//!   sequence bookkeeping and replay deduplication (the uncoordinated
//!   protocol is these pieces plus a local timer owned by the engine);
//! - [`ckpt_graph`] — the checkpoint dependency graph built from
//!   watermarks;
//! - [`recovery`] — the single home of the recovery-line rule both
//!   planes call: the line per protocol (rollback propagation, paper
//!   Algorithm 1, or the coordinated round line), the in-flight ranges
//!   it replays, the checkpoints it discards, and the reclamation floors
//!   it implies;
//! - [`snapshot`] — incremental (content-defined-chunked) snapshot
//!   manifests: planning, reassembly, and the store key conventions;
//! - [`durable`] — checkpoint I/O over the pluggable storage subsystem
//!   (`checkmate-storage`), including durable metadata for
//!   restart-from-store recovery;
//! - [`fault`] — deterministic multi-fault schedules ([`FaultPlan`]):
//!   seeded storms of worker kills, stragglers, and storage brownouts
//!   consumed identically by both engines;
//! - [`zpath`] — ground-truth Z-path/Z-cycle analysis used to validate the
//!   protocols;
//! - [`exec`] — an abstract execution model for protocol-level testing
//!   without the full engine.
//!
//! The same protocol objects drive both the virtual-time engine
//! (`checkmate-engine`) and the threaded engine (`checkmate-runtime`).

pub mod cic;
pub mod ckpt_graph;
pub mod coor;
pub mod durable;
pub mod exec;
pub mod fault;
pub mod meta;
pub mod protocol;
pub mod recovery;
pub mod snapshot;
pub mod zpath;

pub use cic::{BcsState, CicPiggyback, CicState, HmnrPiggyback, HmnrState};
pub use ckpt_graph::{ChannelTriple, CheckpointGraph};
pub use coor::{CoorAligner, MarkerAction};
pub use durable::DurableCheckpoints;
pub use exec::{AbstractExec, AbstractProtocol};
pub use fault::{BrownoutWindow, FaultPlan, KillEvent, StragglerWindow};
pub use meta::{ChannelBook, CheckpointId, CheckpointKind, CheckpointMeta};
pub use protocol::ProtocolKind;
pub use recovery::{
    channel_triples, coordinated_line, discard_after_line, reclaim_floors, recovery_line,
    replay_range, rollback_propagation, Metas, ReclaimFloors, RecoveryOutcome,
};
pub use snapshot::{
    assemble, plan_snapshot, split_chunks, ChunkRef, ChunkerConfig, IncrementalPolicy,
    SnapshotManifest, UploadPlan,
};
pub use zpath::{
    is_consistent, on_z_cycle, orphans, useless_checkpoints, z_path_exists, Ckpt, TraceMsg,
};
