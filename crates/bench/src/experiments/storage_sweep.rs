//! Storage-sensitivity sweep (beyond the paper).
//!
//! CheckMate's central finding is that checkpointing overhead is
//! dominated by shipping state to the durable store, so protocol
//! rankings shift with storage performance. This experiment makes that
//! axis explicit: protocol × storage-profile × checkpointing-mode, on a
//! windowed NexMark query with the standard mid-run failure, reporting
//! checkpoint duration, bytes uploaded (gross and net), and
//! restart/recovery time. The rate is pinned to each protocol's
//! default-storage MST so the storage effect is isolated, not absorbed
//! into a different operating point.

use crate::harness::{Harness, Wl};
use crate::results::{ms_opt, text_table, Experiment};
use checkmate_core::IncrementalPolicy;
use checkmate_nexmark::Query;
use checkmate_storage::StorageProfile;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    pub query: &'static str,
    pub workers: u32,
    pub protocol: String,
    pub storage: &'static str,
    /// `full` or `incremental` snapshots.
    pub mode: &'static str,
    pub avg_checkpoint_ms: f64,
    pub checkpoints: u64,
    pub store_puts: u64,
    pub bytes_put_mb: f64,
    pub bytes_live_mb: f64,
    pub restart_ms: Option<f64>,
    pub recovery_ms: Option<f64>,
    pub sustainable: bool,
}

fn profiles() -> [StorageProfile; 4] {
    [
        StorageProfile::ram(),
        StorageProfile::local_ssd(),
        StorageProfile::minio_lan(),
        StorageProfile::s3_wan(),
    ]
}

pub fn run(h: &Harness) -> Experiment<Row> {
    let workers = h.scale.table_parallelisms[0];
    let q = Query::Q12; // windowed count: real per-instance state
    let mut points = Vec::new();
    for storage in profiles() {
        for proto in super::PROTOCOLS {
            for (mode, incremental) in [
                ("full", None),
                ("incremental", Some(IncrementalPolicy::default())),
            ] {
                points.push((storage, proto, mode, incremental));
            }
        }
    }
    let rows = h.par_map(points, |h, (storage, proto, mode, incremental)| {
        let r = h.run_at_mst_with(Wl::Nexmark(q), proto, workers, 0.8, true, |cfg| {
            cfg.incremental = incremental;
            cfg.storage = storage;
        });
        Row {
            query: q.name(),
            workers,
            protocol: proto.to_string(),
            storage: storage.name,
            mode,
            avg_checkpoint_ms: r.avg_checkpoint_time_ns as f64 / 1e6,
            checkpoints: r.checkpoints_total,
            store_puts: r.store.puts,
            bytes_put_mb: r.store.bytes_put as f64 / 1e6,
            bytes_live_mb: r.store_bytes_live as f64 / 1e6,
            restart_ms: r.restart_time_ns.map(|t| t as f64 / 1e6),
            recovery_ms: r.recovery_time_ns.map(|t| t as f64 / 1e6),
            sustainable: r.sustainable,
        }
    });
    Experiment::new(
        "storage_sweep",
        "Checkpoint-storage sensitivity: protocol × backend profile × snapshot mode (beyond the paper)",
        h.scale.name,
        rows,
    )
}

pub fn render(e: &Experiment<Row>) -> String {
    text_table(
        &e.title,
        &[
            "query",
            "workers",
            "protocol",
            "storage",
            "mode",
            "ckpt (ms)",
            "ckpts",
            "puts",
            "put (MB)",
            "live (MB)",
            "restart (ms)",
            "recovery (ms)",
        ],
        &e.rows
            .iter()
            .map(|r| {
                vec![
                    r.query.to_string(),
                    r.workers.to_string(),
                    r.protocol.clone(),
                    r.storage.to_string(),
                    r.mode.to_string(),
                    format!("{:.2}", r.avg_checkpoint_ms),
                    r.checkpoints.to_string(),
                    r.store_puts.to_string(),
                    format!("{:.2}", r.bytes_put_mb),
                    format!("{:.2}", r.bytes_live_mb),
                    ms_opt(r.restart_ms.map(|v| (v * 1e6) as u64)),
                    ms_opt(r.recovery_ms.map(|v| (v * 1e6) as u64)),
                ]
            })
            .collect::<Vec<_>>(),
    )
}
