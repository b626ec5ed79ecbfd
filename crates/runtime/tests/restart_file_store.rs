//! Kill-and-restart durability tests over the file-backed storage
//! backend.
//!
//! The headline test spawns this test binary again as a *writer* child
//! process: the child drives a stateful operator, uploads incremental
//! checkpoints (chunks + durable metadata) into a `FileBackend`
//! directory, and then dies by `process::exit` mid-run — no graceful
//! shutdown, no flushing of anything held in memory. The parent process
//! then recovers from the directory alone: reload the metadata, compute
//! a recovery line, reassemble the chunked snapshot across its owner
//! chain, restore the operator, and keep processing.

use checkmate_core::{
    recovery_line, ChannelBook, CheckpointId, CheckpointKind, CheckpointMeta, ChunkerConfig,
    DurableCheckpoints, IncrementalPolicy, ProtocolKind, SnapshotManifest,
};
use checkmate_dataflow::graph::InstanceIdx;
use checkmate_dataflow::ops::{DigestSinkOp, PassThroughOp, WindowedCountOp};
use checkmate_dataflow::{
    Codec, Dec, EdgeKind, Enc, GraphBuilder, OpCtx, Operator, PortId, Record, Value,
};
use checkmate_runtime::{run_live, LiveConfig};
use checkmate_storage::{FileBackend, ObjectStore, SharedStore};
use checkmate_wal::EventStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const ENV_ROLE: &str = "CHECKMATE_RESTART_ROLE";
const ENV_DIR: &str = "CHECKMATE_RESTART_DIR";
const KILL_EXIT_CODE: i32 = 42;
const CHECKPOINTS: u64 = 5;
const RECORDS_PER_CHECKPOINT: u64 = 200;
const WINDOW_NS: u64 = u64::MAX; // never tumble: state only accumulates

fn file_store(dir: &PathBuf) -> SharedStore {
    ObjectStore::shared_with(Arc::new(FileBackend::open(dir).expect("open file backend")))
}

fn policy() -> IncrementalPolicy {
    IncrementalPolicy {
        chunking: ChunkerConfig::with_avg(128),
        rebase_every: 1_000,
    }
}

/// Deterministic input: the record fed to the operator as delivery
/// `seq` (1-based). Keys are monotone, so the counter map grows by
/// appending — the shape where incremental checkpoints shine (cold
/// prefix chunks stay untouched and get referenced, not re-uploaded).
fn record_for(seq: u64) -> Record {
    Record::new(seq, Value::U64(seq), 0)
}

/// Drive `n` further records into the operator/book pair.
fn drive(op: &mut WindowedCountOp, book: &mut ChannelBook, from_seq: u64, n: u64) {
    let ch = checkmate_dataflow::graph::ChannelIdx(0);
    for seq in from_seq..from_seq + n {
        let mut ctx = OpCtx::new(1); // fixed instant: stay in one window
        op.on_record(PortId(0), record_for(seq), &mut ctx);
        assert!(book.deliver(ch, seq));
    }
}

/// The checkpointed state: operator snapshot + channel book.
fn encode_state(op: &WindowedCountOp, book: &ChannelBook) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.bytes(&op.snapshot());
    book.encode(&mut enc);
    enc.finish()
}

fn decode_state(bytes: &[u8]) -> (WindowedCountOp, ChannelBook) {
    let mut dec = Dec::new(bytes);
    let mut op = WindowedCountOp::new(1);
    op.restore(dec.bytes().expect("op bytes"))
        .expect("op state");
    let book = ChannelBook::decode(&mut dec).expect("book");
    dec.finish().expect("trailing bytes");
    (op, book)
}

/// Child role: checkpoint into the directory, then die hard.
fn writer_and_die() -> ! {
    let dir = PathBuf::from(std::env::var(ENV_DIR).expect("writer needs dir"));
    let durable = DurableCheckpoints::new(file_store(&dir));
    let inst = InstanceIdx(0);
    durable.persist_meta(&CheckpointMeta::initial(inst, false));
    let mut op = WindowedCountOp::new(WINDOW_NS);
    let mut book = ChannelBook::new();
    let mut prev: Option<SnapshotManifest> = None;
    for index in 1..=CHECKPOINTS {
        drive(
            &mut op,
            &mut book,
            (index - 1) * RECORDS_PER_CHECKPOINT + 1,
            RECORDS_PER_CHECKPOINT,
        );
        let state = encode_state(&op, &book);
        let (state_key, manifest, _) =
            durable.write_state(inst, index, &state, prev.as_ref(), Some(&policy()));
        let (recv_wm, sent_wm) = book.watermarks();
        let meta = CheckpointMeta {
            id: CheckpointId::new(inst, index),
            kind: CheckpointKind::Local,
            taken_at: index,
            durable_at: index,
            recv_wm,
            sent_wm,
            source_offset: None,
            state_key,
            state_bytes: state.len() as u64,
            manifest: manifest.clone(),
        };
        durable.persist_meta(&meta);
        prev = manifest;
    }
    // Die without any cleanup: in-memory state, manifests, indices —
    // everything not already on disk is lost.
    std::process::exit(KILL_EXIT_CODE);
}

#[test]
fn kill_the_process_and_recover_from_file_backend() {
    if std::env::var(ENV_ROLE).as_deref() == Ok("writer") {
        writer_and_die();
    }
    let dir = std::env::temp_dir().join(format!("checkmate-restart-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: a separate process checkpoints, then is killed.
    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .args([
            "kill_the_process_and_recover_from_file_backend",
            "--exact",
            "--nocapture",
        ])
        .env(ENV_ROLE, "writer")
        .env(ENV_DIR, &dir)
        .status()
        .expect("spawn writer child");
    assert_eq!(
        status.code(),
        Some(KILL_EXIT_CODE),
        "writer child did not reach the kill point"
    );

    // Phase 2: recover in THIS process from the directory alone.
    let durable = DurableCheckpoints::new(file_store(&dir));
    let metas = durable.load_metas();
    assert_eq!(metas.len(), CHECKPOINTS as usize + 1, "persisted metas");
    // The production rule, as both planes run it; single instance, no
    // channels.
    let line = recovery_line(ProtocolKind::Uncoordinated, &metas, &[]).line;
    let picked = &metas[&(InstanceIdx(0), line[&InstanceIdx(0)].index)];
    assert_eq!(
        picked.id.index, CHECKPOINTS,
        "latest checkpoint is the line"
    );
    // The last checkpoint was incremental: its manifest must chain into
    // chunks owned by earlier checkpoints.
    let manifest = picked.manifest.as_ref().expect("incremental meta");
    assert!(
        manifest.oldest_owner().unwrap() < CHECKPOINTS,
        "no chunk chain: every chunk re-uploaded?"
    );

    let state = durable.read_state(picked).expect("durable state");
    let (mut op, mut book) = decode_state(&state);

    // The restored state equals a from-scratch replay of the input...
    let mut expect_op = WindowedCountOp::new(WINDOW_NS);
    let mut expect_book = ChannelBook::new();
    drive(
        &mut expect_op,
        &mut expect_book,
        1,
        CHECKPOINTS * RECORDS_PER_CHECKPOINT,
    );
    assert_eq!(
        encode_state(&op, &book),
        encode_state(&expect_op, &expect_book)
    );

    // ... and is live: processing continues from where the child died.
    drive(
        &mut op,
        &mut book,
        CHECKPOINTS * RECORDS_PER_CHECKPOINT + 1,
        50,
    );
    drive(
        &mut expect_op,
        &mut expect_book,
        CHECKPOINTS * RECORDS_PER_CHECKPOINT + 1,
        50,
    );
    assert_eq!(
        encode_state(&op, &book),
        encode_state(&expect_op, &expect_book)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Live runtime over the file backend (single process, async uploads).
// ---------------------------------------------------------------------

struct TestStream {
    partitions: u32,
}

impl EventStream for TestStream {
    fn partitions(&self) -> u32 {
        self.partitions
    }
    fn record(&self, partition: u32, offset: u64) -> Record {
        let g = offset * self.partitions as u64 + partition as u64;
        Record::new(g % 41, Value::U64(g), 0)
    }
}

/// The live runtime with asynchronous uploads, incremental checkpoints
/// and a file-backed store: a worker kill recovers from disk to the same
/// digest as a failure-free run, and the store ends up holding durable
/// metadata a future process could restart from.
#[test]
fn live_runtime_recovers_incrementally_from_file_store() {
    let base = std::env::temp_dir().join(format!("checkmate-live-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let graph = {
        let mut b = GraphBuilder::new();
        let src = b.source("src", 0, 0, Arc::new(|_| Box::new(PassThroughOp)));
        let cnt = b.op(
            "count",
            0,
            Arc::new(|_| Box::new(checkmate_dataflow::ops::KeyedCounterOp::new())),
        );
        let sink = b.sink("sink", 0, Arc::new(|_| Box::new(DigestSinkOp::new())));
        b.connect(src, cnt, EdgeKind::Shuffle);
        b.connect(cnt, sink, EdgeKind::Forward);
        b.build().unwrap()
    };
    let cfg = |dir: &str, kill: Option<u32>| LiveConfig {
        parallelism: 2,
        protocol: ProtocolKind::Uncoordinated,
        rate_per_partition: 3_000.0,
        records_per_partition: 1_200,
        checkpoint_interval: Duration::from_millis(100),
        kill_worker: kill,
        timeout: Duration::from_secs(60),
        store: Some(file_store(&base.join(dir))),
        incremental: Some(policy()),
        ..LiveConfig::default()
    };
    let streams = || -> Vec<Arc<dyn EventStream>> { vec![Arc::new(TestStream { partitions: 2 })] };

    let clean = run_live(&graph, streams(), cfg("clean", None));
    let failed_cfg = cfg("failed", Some(1));
    let failed_store = failed_cfg.store.clone().unwrap();
    let failed = run_live(&graph, streams(), failed_cfg);
    assert!(failed.recovered, "recovery did not run");
    assert_eq!(
        failed.sink_digest, clean.sink_digest,
        "live incremental recovery over the file store lost or duplicated records"
    );
    assert!(failed.checkpoints > 0);
    // Durable metadata exists alongside the chunks: enough for a future
    // process to restart from this directory alone.
    assert!(!failed_store.list("ckptmeta/").is_empty());
    assert!(!failed_store.list("ckpt/").is_empty());
    let _ = std::fs::remove_dir_all(&base);
}
