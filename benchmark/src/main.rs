//! Benchmark entry point.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|smoke] [--out <dir>] [--tag <t>]
//! benchmark compare <dirA> <dirB> [--benchmark-json <path>]
//! ```
//!
//! An untraced run prints one line per end-to-end metric
//! (`workload metric value unit n min max`), a traced run one per
//! per-layer metric; the last line of standard output is always the JSON
//! result object. A failed output check makes `correct` false and the
//! exit code 1.

use checkmate_benchmark::compare::compare;
use checkmate_benchmark::json::Json;
use checkmate_benchmark::report::result_line;
use checkmate_benchmark::run::{traced, untraced, RunOutput};
use checkmate_benchmark::workloads::{Kind, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--scale full|smoke] [--out DIR] [--tag T]\n       \
         benchmark compare <dirA> <dirB> [--benchmark-json PATH]",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the positional arguments.
fn option<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            return usage();
        };
        let benchmark_json = option(&args, "--benchmark-json").unwrap_or("BENCHMARK.json");
        return match compare(Path::new(benchmark_json), Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }

    let Some(kind) = option(&args, "--workload").and_then(Kind::from_name) else {
        return usage();
    };
    let parsed = (
        option(&args, "--seed").unwrap_or("7").parse::<u64>(),
        option(&args, "--seconds").unwrap_or("12").parse::<f64>(),
        option(&args, "--trace").unwrap_or("0").parse::<u8>(),
        Scale::from_name(option(&args, "--scale").unwrap_or("full")),
    );
    let (Ok(seed), Ok(seconds), Ok(trace @ (0 | 1)), Some(scale)) = parsed else {
        return usage();
    };
    let out_dir = PathBuf::from(option(&args, "--out").unwrap_or("benchmark/out"));

    let RunOutput {
        metrics,
        checks,
        info,
    } = if trace == 1 {
        traced(seed, &scale, &out_dir)
    } else {
        untraced(kind, seed, seconds, &scale)
    };

    metrics.print_lines(kind.name());
    for (key, value) in &info {
        println!("# {key} {value}");
    }
    println!(
        "# operations attempted {} failed {}",
        checks.attempted, checks.failed
    );
    for message in &checks.messages {
        println!("# FAILED {message}");
    }
    let correct = checks.failed == 0;
    if trace == 0 {
        // The traced run writes its own files (trace.json, layers.json).
        let file = match option(&args, "--tag") {
            Some(tag) => format!("{}.{tag}.json", kind.name()),
            None => format!("{}.json", kind.name()),
        };
        let mut fields = vec![
            ("workload", Json::str(kind.name())),
            ("seed", Json::Num(seed as f64)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(checks.attempted as f64)),
            ("failed", Json::Num(checks.failed as f64)),
        ];
        fields.extend(info.iter().map(|(k, v)| (*k, Json::str(v))));
        fields.push(("metrics", metrics.to_json_full()));
        std::fs::create_dir_all(&out_dir).expect("create the output directory");
        std::fs::write(out_dir.join(file), Json::obj(fields).pretty())
            .expect("write the result file");
    }
    println!(
        "{}",
        result_line(correct, checks.attempted, checks.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
