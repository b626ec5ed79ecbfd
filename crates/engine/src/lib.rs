//! # checkmate-engine
//!
//! A deterministic virtual-time streaming dataflow engine reproducing the
//! CheckMate testbed (paper §IV): a coordinator plus `p` workers, each with
//! one simulated CPU hosting one parallel instance of every operator, FIFO
//! channels with latency/bandwidth costs, a replayable source (Kafka
//! substitute), per-channel message logs, and a durable checkpoint store
//! (MinIO substitute).
//!
//! All three checkpointing protocols from `checkmate-core` run inside it
//! unchanged; failures are injected at configurable instants and the
//! protocol-specific recovery path (recovery line → restart → replay →
//! catch-up) executes in full. Every run is a pure function of its
//! [`config::EngineConfig`] — same seed, same report, bit for bit.

pub mod arena;
pub mod config;
pub mod engine;
pub mod msg;
pub mod report;
pub mod session;
pub mod state;
pub mod testkit;
pub mod workload;

pub use arena::SimArena;
pub use config::{EngineConfig, FailureSpec, SnapshotMode};
pub use engine::Engine;
pub use msg::{hmnr_wire_bytes, MsgKind, NetMsg, BCS_WIRE_BYTES, MARKER_BYTES};
pub use report::{percentile_of, LatencySeries, Outcome, RunReport, SecondStats};
pub use session::RunSession;
pub use state::ArrivalIndex;
pub use workload::{StreamSpec, Workload};
