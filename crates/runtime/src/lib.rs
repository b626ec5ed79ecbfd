//! # checkmate-runtime — the live multi-threaded runtime
//!
//! Runs the same `LogicalGraph` + protocol stack as the virtual-time
//! engine on real OS threads with real wall-clock time: one worker
//! thread per parallelism slot, a coordinator thread driving rounds and
//! scripted failures, and a background uploader making checkpoints
//! durable off the critical path. It exists to validate that the modeled
//! costs in `checkmate-engine` correspond to real concurrent executions:
//! same workload, same protocol, same sink digest.
//!
//! The crate is layered by role:
//!
//! - `wire`: the batched wire protocol between workers and its two
//!   flush invariants (flush before markers, flush before checkpoints);
//! - `inbox`: bounded per-worker inboxes — the backpressure primitive;
//! - `dispatch`: source poll ordering;
//! - `worker`: the per-worker event loop (deliver, route, checkpoint,
//!   recover, log determinants);
//! - `uploader`: asynchronous checkpoint durability;
//! - `coordinator`: run lifecycle, recovery choreography, quiescence
//!   detection — and [`run_live`], the crate's entry point;
//! - [`config`] / [`report`]: the public parameter and result types.
//!
//! Workers log both channel messages and per-receiver *determinants*
//! (the delivery order across channels) when the protocol calls for
//! message logging, so order-sensitive operators — e.g. a cyclic
//! reachability join with deletions — replay deterministically after a
//! failure. Replayed messages are re-delivered in the logged order; new
//! arrivals that overtake their determinant turn wait, parked, until the
//! log is drained.

pub mod config;
mod coordinator;
mod dispatch;
mod inbox;
pub mod report;
mod uploader;
mod wire;
mod worker;

pub use config::LiveConfig;
pub use coordinator::run_live;
pub use report::LiveReport;

use checkmate_dataflow::graph::PhysicalGraph;
use checkmate_storage::SharedStore;
use checkmate_wal::{ChannelLog, DeterminantLog};
use parking_lot::Mutex;

/// State shared by every thread of a live run. The logs model external
/// log services: they survive worker kills (a killed worker loses its
/// inbox and in-memory state, never its durable logs).
pub(crate) struct Shared {
    pub store: SharedStore,
    /// Per-channel message logs (sender-side payload logging).
    pub logs: Vec<Mutex<ChannelLog>>,
    /// Per-instance determinant logs (receiver-side delivery order),
    /// indexed by `InstanceIdx`.
    pub dets: Vec<Mutex<DeterminantLog>>,
    pub pg: PhysicalGraph,
}
