//! # checkmate-wal
//!
//! Replayable log substrates standing in for the paper's external systems:
//!
//! - [`source::SourceLog`] — the Kafka substitute: a partitioned,
//!   offset-addressed, deterministic event stream with per-offset
//!   availability times. Source operators checkpoint their cursor and seek
//!   back to it on recovery.
//! - [`channel_log::ChannelLog`] — sender-side in-flight message logs
//!   (upstream backup) required by the uncoordinated and
//!   communication-induced protocols to capture channel state: chains
//!   of encode-once byte [`channel_log::Segment`]s.
//! - [`determinant::DeterminantLog`] — receiver-side delivery-order
//!   logs, the determinants that make log-based replay deterministic
//!   for operators whose output depends on cross-channel arrival order.
//! - [`staging::RunStage`] / [`staging::SegmentStage`] — sender-local
//!   staging arenas that keep the shared-log mutexes off the hot path
//!   (payloads stage as segments).

pub mod channel_log;
pub mod determinant;
pub mod source;
pub mod staging;

pub use channel_log::{ChannelLog, LogEntry, ReplayUnavailable, Segment, SEAL_BYTES};
pub use determinant::{DeterminantLog, DET_ENTRY_BYTES};
pub use source::{EventStream, Schedule, SourceCursor, SourceEntry, SourceLog};
pub use staging::{RunStage, SegmentStage};
