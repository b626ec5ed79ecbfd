//! The background checkpoint uploader.
//!
//! Checkpoint uploads are asynchronous: a worker taking a checkpoint
//! serializes the snapshot (optionally planning an incremental chunk
//! upload against its previous manifest), hands the resulting objects to
//! this thread as an [`UploadJob`], and resumes processing immediately.
//! The uploader PUTs the objects — absorbing whatever latency, bandwidth
//! cap or transient faults the configured backend injects — persists the
//! checkpoint metadata, and only then acks the now-durable checkpoint to
//! the coordinator. A checkpoint the coordinator knows about is
//! therefore always fully durable, which recovery relies on. Uploads
//! already handed over survive a worker kill: the uploader models a
//! separate service, like the store itself.
//!
//! [`UploadMsg::Flush`] is the recovery quiesce barrier: once every
//! worker is paused (no new jobs), an acked flush proves nothing is in
//! flight, so no discarded-timeline object can appear in the store after
//! the rollback.

use crate::coordinator::Note;
use checkmate_core::{CheckpointMeta, DurableCheckpoints};
use checkmate_storage::SharedStore;
use crossbeam::channel::{Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Uploader-side health counters, read by the coordinator into the
/// final [`crate::LiveReport`].
#[derive(Default)]
pub(crate) struct UploaderStats {
    /// Whole-snapshot checkpoints dropped because a PUT exhausted the
    /// store's bounded retry budget (brownout degradation).
    pub ckpts_deferred: AtomicU64,
}

/// A serialized snapshot handed to the background uploader: the worker
/// resumes processing the moment this is enqueued.
pub(crate) struct UploadJob {
    pub epoch: u32,
    pub meta: CheckpointMeta,
    pub objects: Vec<(String, Vec<u8>)>,
}

/// Messages to the background uploader.
pub(crate) enum UploadMsg {
    Job(UploadJob),
    /// Drain barrier: acked once every job enqueued before it is
    /// durable.
    Flush(Sender<()>),
}

/// The uploader thread body: PUTs snapshot objects, persists the meta,
/// then acks the durable checkpoint to the coordinator. Exits when
/// every job sender has hung up.
pub(crate) fn uploader_main(
    store: SharedStore,
    jobs: Receiver<UploadMsg>,
    note: Sender<Note>,
    start: Instant,
    stats: Arc<UploaderStats>,
) {
    let durable = DurableCheckpoints::new(store);
    while let Ok(msg) = jobs.recv() {
        match msg {
            UploadMsg::Job(UploadJob {
                epoch,
                mut meta,
                objects,
            }) => {
                // Incremental snapshots must land atomically: later
                // manifests reference this job's chunks, so a dropped
                // chunk would poison every descendant checkpoint. Use
                // the unbounded (wedging) retry path for those. Whole
                // snapshots are self-contained — bounded retries, and on
                // exhaustion the checkpoint is *deferred*: never acked,
                // never durable, skipped by recovery lines.
                let deferrable = meta.manifest.is_none();
                let mut dropped = false;
                for (key, bytes) in objects {
                    if dropped {
                        break;
                    }
                    if deferrable {
                        if durable.store().try_put(key, bytes).is_err() {
                            dropped = true;
                        }
                    } else {
                        durable.store().put(key, bytes);
                    }
                }
                if dropped {
                    stats.ckpts_deferred.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                meta.durable_at = start.elapsed().as_nanos() as u64;
                durable.persist_meta(&meta);
                let _ = note.send(Note::Meta(epoch, meta));
            }
            UploadMsg::Flush(ack) => {
                let _ = ack.send(());
            }
        }
    }
}
