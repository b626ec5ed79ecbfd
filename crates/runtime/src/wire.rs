//! The wire protocol between workers.
//!
//! Everything that crosses a worker boundary is a [`Wire`]: single data
//! records, coalesced [`Wire::DataBatch`] runs, and alignment markers.
//! Batches are the common case — senders stage consecutive same-channel
//! sends in a [`PendingBatch`] and flush them as one message, with two
//! hard invariants enforced at the flush sites in `worker.rs`:
//!
//! 1. **Flush before any marker leaves.** Markers rely on per-channel
//!    FIFO with respect to data; a marker must never overtake records
//!    still staged in the sender.
//! 2. **Flush before every checkpoint capture.** A snapshot's sent
//!    watermarks must already be covered by the durable channel logs
//!    when its metadata becomes restorable, or a post-failure replay
//!    would come up short.
//!
//! These flush sites double as the **staged-append publication points**
//! (`LiveConfig::buffered_logs`): determinants publish from their
//! worker-local arena at every flush, before the staged wires escape;
//! channel payloads publish at invariant 2's
//! checkpoint-capture flush, which is exactly when the durable-coverage
//! requirement bites (see the `worker.rs` module docs).
//!
//! Every wire carries the sender's epoch; receivers drop wires from
//! before the latest recovery.

use checkmate_core::CicPiggyback;
use checkmate_dataflow::graph::ChannelIdx;
use checkmate_dataflow::Record;

/// A message on the wire between workers.
pub(crate) enum Wire {
    Data {
        epoch: u32,
        channel: ChannelIdx,
        seq: u64,
        record: Record,
        piggyback: Option<CicPiggyback>,
        replayed: bool,
    },
    /// A run of consecutive records on one channel (`seq = start_seq + i`),
    /// sent as one message. Senders coalesce same-channel sends between
    /// flush points (capped at `LiveConfig::batch_max` per batch).
    DataBatch {
        epoch: u32,
        channel: ChannelIdx,
        start_seq: u64,
        items: Vec<(Record, Option<CicPiggyback>)>,
        replayed: bool,
    },
    Marker {
        epoch: u32,
        channel: ChannelIdx,
        round: u64,
    },
}

impl Wire {
    pub(crate) fn epoch(&self) -> u32 {
        match self {
            Wire::Data { epoch, .. }
            | Wire::DataBatch { epoch, .. }
            | Wire::Marker { epoch, .. } => *epoch,
        }
    }

    pub(crate) fn channel(&self) -> ChannelIdx {
        match self {
            Wire::Data { channel, .. }
            | Wire::DataBatch { channel, .. }
            | Wire::Marker { channel, .. } => *channel,
        }
    }
}

/// Sender-side staging for one `Wire::DataBatch` in flight.
pub(crate) struct PendingBatch {
    pub dest: usize,
    pub channel: ChannelIdx,
    pub epoch: u32,
    pub start_seq: u64,
    pub items: Vec<(Record, Option<CicPiggyback>)>,
}

impl PendingBatch {
    /// Convert the staged run into its wire form (single records travel
    /// as `Wire::Data`, runs as `Wire::DataBatch`).
    pub(crate) fn into_wire(self) -> Wire {
        if self.items.len() == 1 {
            let (record, piggyback) = self.items.into_iter().next().expect("len 1");
            Wire::Data {
                epoch: self.epoch,
                channel: self.channel,
                seq: self.start_seq,
                record,
                piggyback,
                replayed: false,
            }
        } else {
            Wire::DataBatch {
                epoch: self.epoch,
                channel: self.channel,
                start_seq: self.start_seq,
                items: self.items,
                replayed: false,
            }
        }
    }
}
