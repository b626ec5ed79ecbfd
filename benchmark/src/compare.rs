//! `compare <dirA> <dirB>`: apply the bounds of `BENCHMARK.json` to two
//! sets of result files. A directory holds one or more runs per workload,
//! named `<workload>.json` or `<workload>.<tag>.json`.

use crate::json::Json;
use crate::report::{iqr_share, median};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn declared_end_to_end(benchmark: &Json) -> Result<Vec<Declared>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without {key}"))
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// Spread of one side's runs as a share of their median: the
/// inter-quartile range from four runs up, the full range below that.
pub fn spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            (hi - lo) / median(values)
        }
        _ => iqr_share(values),
    }
}

/// Verdict on one (metric, workload): `b` against the parent `a`.
pub fn judge(metric: &Declared, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if metric.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let spread = spread(a).max(spread(b));
    // One run a side has no spread to judge a difference against.
    let repeated = a.len() > 1 && b.len() > 1;
    let verdict = if worse_by > metric.bound && worse_by > spread && repeated {
        Verdict::Worse
    } else if spread > metric.bound || (worse_by > metric.bound && !repeated) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, spread)
}

/// `workload → metric → one value per run file`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(dir: &Path, workloads: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            continue;
        };
        let Some(workload) = workloads.iter().find(|w| {
            file.strip_prefix(w.as_str())
                .is_some_and(|rest| rest.starts_with('.') && rest.ends_with(".json"))
        }) else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        let failed = json.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed > 0.0 {
            return Err(format!("{file}: {failed} failed operations"));
        }
        let metrics = json
            .get("metrics")
            .ok_or(format!("{file}: no metrics object"))?;
        for (name, m) in metrics.fields() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Print one row per (metric, workload); `Ok(true)` when none is worse.
pub fn compare(benchmark_json: &Path, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let benchmark = Json::parse(&text)?;
    let declared = declared_end_to_end(&benchmark)?;
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let (a, b) = (load_runs(dir_a, &workloads)?, load_runs(dir_b, &workloads)?);
    let mut none_worse = true;
    println!("workload metric verdict median_a median_b unit worse_by spread bound runs_a runs_b");
    for workload in &workloads {
        for metric in &declared {
            let side = |runs: &Runs| {
                runs.get(workload)
                    .and_then(|m| m.get(&metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (side(&a), side(&b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload} {}: missing from {}",
                    metric.name,
                    if va.is_empty() { dir_a } else { dir_b }.display()
                ));
            }
            let (verdict, worse_by, spread) = judge(metric, &va, &vb);
            none_worse &= verdict != Verdict::Worse;
            println!(
                "{workload} {} {} {} {} {} {worse_by:.4} {spread:.4} {} {} {}",
                metric.name,
                verdict.as_str(),
                median(&va),
                median(&vb),
                metric.unit,
                metric.bound,
                va.len(),
                vb.len()
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Declared {
        Declared {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts() {
        let steady = [1.00, 1.01, 0.99];
        // Lower is better: +20 % is worse, +5 % is within the bound.
        assert_eq!(
            judge(&metric(false), &steady, &[1.20, 1.21, 1.19]).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(false), &steady, &[1.05, 1.06, 1.04]).0,
            Verdict::Ok
        );
        // Higher is better: −20 % is worse, +20 % is fine.
        assert_eq!(
            judge(&metric(true), &steady, &[0.80, 0.81, 0.79]).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(true), &steady, &[1.20, 1.21, 1.19]).0,
            Verdict::Ok
        );
        // Single runs cannot show a regression, only fail to resolve one.
        assert_eq!(judge(&metric(false), &[1.0], &[1.5]).0, Verdict::Unresolved);
        assert_eq!(judge(&metric(false), &[1.0], &[1.05]).0, Verdict::Ok);
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            judge(&metric(false), &steady, &[0.9, 1.0, 1.15]).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
