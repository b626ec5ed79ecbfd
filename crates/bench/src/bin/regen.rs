//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p checkmate-bench --bin regen -- \
//!     [--scale quick|paper-lite|paper|paper-full] [--exp fig7,tab2,...] \
//!     [--jobs N] [--out results/] [--cache-dir DIR] [--queue ladder|heap] \
//!     [--snapshot auto|full|sized] [--arrival-index calendar|btree] [-v]
//! ```
//!
//! Writes one JSON file per experiment under `--out` and prints the
//! rendered tables. `--jobs N` fans the sweep points of each experiment
//! out over N worker threads (default: all cores). Sweep points are pure
//! functions of their inputs and results are re-assembled in input
//! order, so the output JSON is identical for every N (asserted by
//! `jobs_equivalence.rs`); `--jobs 1` runs fully sequentially.
//!
//! `--cache-dir DIR` persists every completed run and MST cell under
//! `DIR` keyed by its config fingerprint, making reruns (e.g. `--exp`
//! subsets after a full pass) nearly free across invocations — with
//! byte-identical output (asserted by `cache_persistence.rs`).
//! `--queue heap` switches every simulation to the binary-heap event
//! queue (the ladder queue's equivalence oracle); output is identical
//! either way. `--snapshot full` switches every simulation to the
//! materializing snapshot path (the sized-only accounting's oracle);
//! output is likewise identical either way.
//! `--arrival-index btree` switches every worker's inbound queue to the
//! BTree map index (the calendar index's equivalence oracle); output is
//! likewise identical either way (CI diffs the whole result directory).

use checkmate_bench::experiments as exp;
use checkmate_bench::{Harness, Scale};
use checkmate_engine::config::SnapshotMode;
use checkmate_engine::state::ArrivalIndex;
use checkmate_sim::QueueBackend;
use std::path::PathBuf;

fn main() {
    let mut scale = Scale::paper();
    let mut out = PathBuf::from("results");
    let mut only: Option<Vec<String>> = None;
    let mut verbose = false;
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cache_dir: Option<PathBuf> = None;
    let mut queue = QueueBackend::default();
    let mut snapshot = SnapshotMode::default();
    let mut arrival = ArrivalIndex::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(
                    args.next().expect("--cache-dir needs a value"),
                ));
            }
            "--queue" => {
                let v = args.next().expect("--queue needs a value");
                queue = match v.as_str() {
                    "ladder" => QueueBackend::Ladder,
                    "heap" => QueueBackend::Heap,
                    other => panic!("unknown queue backend {other}; use ladder|heap"),
                };
            }
            "--snapshot" => {
                let v = args.next().expect("--snapshot needs a value");
                snapshot = match v.as_str() {
                    "auto" => SnapshotMode::Auto,
                    "full" => SnapshotMode::Full,
                    "sized" => SnapshotMode::SizedOnly,
                    other => panic!("unknown snapshot mode {other}; use auto|full|sized"),
                };
            }
            "--arrival-index" => {
                let v = args.next().expect("--arrival-index needs a value");
                arrival = match v.as_str() {
                    "calendar" => ArrivalIndex::Calendar,
                    "btree" => ArrivalIndex::BTree,
                    other => panic!("unknown arrival index {other}; use calendar|btree"),
                };
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .expect("--jobs needs a value")
                    .parse()
                    .expect("--jobs must be a positive integer");
                assert!(jobs >= 1, "--jobs must be at least 1");
            }
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                scale = match v.as_str() {
                    "quick" => Scale::quick(),
                    "paper-lite" => Scale::paper_lite(),
                    "paper" => Scale::paper(),
                    "paper-full" => Scale::paper_full(),
                    other => panic!("unknown scale {other}; use quick|paper-lite|paper|paper-full"),
                };
            }
            "--out" => out = PathBuf::from(args.next().expect("--out needs a value")),
            "--exp" => {
                only = Some(
                    args.next()
                        .expect("--exp needs a comma-separated list")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "-v" | "--verbose" => verbose = true,
            "-h" | "--help" => {
                eprintln!("usage: regen [--scale quick|paper-lite|paper|paper-full] [--exp ids] [--jobs N] [--out dir] [--cache-dir dir] [--queue ladder|heap] [--snapshot auto|full|sized] [--arrival-index calendar|btree] [-v]");
                eprintln!("experiments: {}", exp::ALL_IDS.join(", "));
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    // An id nothing below matches would run nothing and still exit 0.
    let unknown: Vec<&str> = only
        .iter()
        .flatten()
        .map(String::as_str)
        .filter(|id| !exp::ALL_IDS.contains(id))
        .collect();
    if !unknown.is_empty() {
        eprintln!("regen: unknown experiment id(s): {}", unknown.join(", "));
        eprintln!("experiments: {}", exp::ALL_IDS.join(", "));
        std::process::exit(2);
    }
    let wanted = |id: &str| only.as_ref().is_none_or(|l| l.iter().any(|x| x == id));
    let mut h = Harness::new(scale.clone());
    h.verbose = verbose;
    h.jobs = jobs;
    h.queue = queue;
    h.snapshot = snapshot;
    h.arrival = arrival;
    if let Some(dir) = &cache_dir {
        h.set_cache_dir(dir.clone());
    }
    eprintln!(
        "# scale = {}, jobs = {}, output = {}{}",
        scale.name,
        jobs,
        out.display(),
        match &cache_dir {
            Some(d) => format!(", cache = {}", d.display()),
            None => String::new(),
        }
    );

    macro_rules! run_exp {
        ($id:literal, $module:ident) => {
            if wanted($id) {
                eprintln!("# running {} ...", $id);
                let start = std::time::Instant::now();
                let e = exp::$module::run(&h);
                let path = e.write_json(&out).expect("write results");
                println!("{}", exp::$module::render(&e));
                eprintln!(
                    "# {} done in {:.1}s → {}\n",
                    $id,
                    start.elapsed().as_secs_f64(),
                    path.display()
                );
            }
        };
    }

    run_exp!("fig7", fig7);
    run_exp!("tab2", tab2);
    run_exp!("fig8", fig8);
    if wanted("fig9") || wanted("fig10") {
        eprintln!("# running figs9_10 ...");
        let start = std::time::Instant::now();
        let e = exp::figs9_10::run(&h);
        let path = e.write_json(&out).expect("write results");
        println!("{}", exp::figs9_10::render(&e));
        eprintln!(
            "# figs9_10 done in {:.1}s → {}\n",
            start.elapsed().as_secs_f64(),
            path.display()
        );
    }
    run_exp!("fig11", fig11);
    run_exp!("tab3", tab3);
    run_exp!("fig12", fig12);
    run_exp!("fig13", fig13);
    run_exp!("tab4", tab4);
    run_exp!("ablation", ablation);
    run_exp!("storage_sweep", storage_sweep);
    run_exp!("failure_storm", failure_storm);
    if let Some(dc) = h.disk_cache() {
        eprintln!(
            "# cache: {} hits, {} misses → {}",
            dc.hits(),
            dc.misses(),
            dc.dir().display()
        );
    }
}
