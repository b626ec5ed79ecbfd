//! Criterion wrapper for the storage-sensitivity sweep: regenerates the
//! experiment at quick scale, then times one storage cell (s3-wan, the
//! slowest profile) so regressions in the store's PUT/GET path show up
//! in bench history. The cell runs through the calling thread's
//! persistent `RunSession` (the real probe loop: cached graph
//! expansion, reset-in-place operators, a pooled store), not
//! per-iteration world construction.

use checkmate_bench::{experiments, Harness, Scale, Wl};
use checkmate_core::ProtocolKind;
use checkmate_nexmark::Query;
use checkmate_storage::StorageProfile;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let h = Harness::new(Scale::quick());
    println!(
        "{}",
        experiments::storage_sweep::render(&experiments::storage_sweep::run(&h))
    );
    let run = || {
        h.run_at_rate_uncached_with(
            Wl::Nexmark(Query::Q12),
            ProtocolKind::Uncoordinated,
            4,
            2_000.0,
            true,
            None,
            |cfg| cfg.storage = StorageProfile::s3_wan(),
        )
        .sink_records
    };
    assert!(run() > 0, "flat_s3_wan cell produced no output");
    let mut g = c.benchmark_group("storage_sweep");
    g.sample_size(10);
    g.bench_function("flat_s3_wan", |b| b.iter(run));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
