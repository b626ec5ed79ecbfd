//! The binary's output against `BENCHMARK.json`: the names it prints are
//! the names the contract lists, the last line has the contract's shape,
//! and the traced run's `layers.json` holds what the README promises.

use checkmate_benchmark::json::Json;
use checkmate_benchmark::workloads::Kind;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one metric list.
fn declared(benchmark: &Json, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            assert!(matches!(text("better").as_str(), "higher" | "lower"));
            (text("name"), text("unit"))
        })
        .collect()
}

/// Run the binary at smoke scale; returns the parsed last line of its
/// standard output and the directory it wrote to.
fn run(workload: &str, trace: u8) -> (Json, PathBuf) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--scale", "smoke", "--out"])
        .arg(&out)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    (Json::parse(last).expect("last line is JSON"), out)
}

fn assert_result_shape(result: &Json, expected: &[(String, String)]) {
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let printed: Vec<(String, String)> = result
        .get("metrics")
        .unwrap()
        .fields()
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(
        printed, expected,
        "printed metrics differ from BENCHMARK.json"
    );
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_is_within_the_contract_limits() {
    let b = benchmark_json();
    let keys: Vec<&str> = b.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        b.get("paths").and_then(Json::as_arr),
        Some(&[Json::str("benchmark")][..])
    );
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Json::as_str).unwrap()
        })
        .collect();
    assert_eq!(workloads, Kind::ALL.map(Kind::name));

    let end_to_end = declared(&b, "end_to_end");
    let per_layer = declared(&b, "per_layer");
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    let mut all: Vec<&String> = end_to_end
        .iter()
        .chain(&per_layer)
        .map(|(n, _)| n)
        .collect();
    assert!(all.iter().all(|n| valid_name(n)), "name charset");
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        end_to_end.len() + per_layer.len(),
        "a name twice"
    );
    for m in b.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = b
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name") == Some(&Json::str("setup_s")))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit"), Some(&Json::str("s")));
    assert_eq!(setup.get("better"), Some(&Json::str("lower")));
    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let expected = declared(&benchmark_json(), "end_to_end");
    // One workload per plane and the probe loop: each must report every
    // end-to-end metric, none of them zero.
    for workload in ["sim_steady", "regen_probe", "live_kill"] {
        let (result, out) = run(workload, 0);
        assert_result_shape(&result, &expected);
        for (name, m) in result.get("metrics").unwrap().fields() {
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{workload} {name} is zero"
            );
        }
        assert!(out.join(format!("{workload}.json")).is_file());
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_the_trace() {
    let expected = declared(&benchmark_json(), "per_layer");
    let (result, out) = run("sim_skew_fail", 1);
    assert_result_shape(&result, &expected);

    let layers = Json::parse(&std::fs::read_to_string(out.join("layers.json")).unwrap()).unwrap();
    let metrics = layers.get("metrics").unwrap();
    let value = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("layers.json lacks {name}"))
    };
    for (name, _) in &expected {
        value(name);
    }
    for workload in ["sim_steady", "sim_skew_fail", "live_flood"] {
        let sum: f64 = expected
            .iter()
            .filter(|(n, _)| n.starts_with(&format!("attr.{workload}.")))
            .map(|(n, _)| value(n))
            .sum();
        assert!((sum - 1.0).abs() <= 0.01, "attr.{workload}.* sums to {sum}");
    }
    for kind in Kind::ALL {
        assert!(value(&format!("trace.overhead_share.{}", kind.name())) <= 0.03);
    }

    let trace = Json::parse(&std::fs::read_to_string(out.join("trace.json")).unwrap()).unwrap();
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let name_of = |e: &Json| e.get("name").and_then(Json::as_str).unwrap().to_string();
    let parent_of = |e: &Json| {
        let id = e.get("args")?.get("parent")?.as_f64()?;
        events
            .iter()
            .find(|p| p.get("args").unwrap().get("id").unwrap().as_f64() == Some(id))
    };
    // workload → pass → cell → call, as the README describes it.
    let call = events
        .iter()
        .find(|e| {
            name_of(e) == "engine::RunSession::run"
                && parent_of(e).is_some_and(|p| name_of(p).starts_with("cell "))
        })
        .expect("a call span under a cell span");
    let cell = parent_of(call).unwrap();
    let pass = parent_of(cell).expect("cell has a parent");
    assert_eq!(name_of(pass), "pass");
    let workload = parent_of(pass).expect("pass has a parent");
    assert!(name_of(workload).starts_with("workload "));
    assert!(parent_of(workload).is_none());
}
