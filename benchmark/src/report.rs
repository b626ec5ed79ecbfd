//! Metric values, their summaries, and the two output forms: one line per
//! metric for people, one JSON object on the last line for the driver.

use crate::json::Json;

/// Median / min / max over the samples of one metric (one per pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        let median = if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        };
        Self {
            median,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Inter-quartile range as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        // Exclusive method: position q·(n+1), clamped, linear between.
        let pos = (q * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (quantile(0.75) - quantile(0.25)) / median(&v)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Named metric values in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_summary(name, Summary::single(value), unit);
    }

    pub fn push_samples(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.push_summary(name, Summary::of(samples), unit);
    }

    pub fn push_summary(&mut self, name: &str, summary: Summary, unit: &'static str) {
        assert!(
            self.get(name).is_none(),
            "metric {name} reported more than once"
        );
        self.list.push(Metric {
            name: name.to_string(),
            unit,
            summary,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.list
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.summary.median)
    }

    /// Value of a metric that must have been reported already.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric {name} not reported yet"))
    }

    /// `workload metric value unit n min max`, one line per metric.
    pub fn print_lines(&self, workload: &str) {
        for m in &self.list {
            let s = m.summary;
            println!(
                "{workload} {} {} {} {} {} {}",
                m.name, s.median, m.unit, s.n, s.min, s.max
            );
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the driver's form.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.list
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.summary.median)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The richer form written to `out/*.json`: every summary field.
    pub fn to_json_full(&self) -> Json {
        Json::Obj(
            self.list
                .iter()
                .map(|m| {
                    let s = m.summary;
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(s.median)),
                            ("unit", Json::str(m.unit)),
                            ("n", Json::Num(s.n as f64)),
                            ("min", Json::Num(s.min)),
                            ("max", Json::Num(s.max)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.to_json()),
    ])
    .compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        let line = result_line(true, 11, 0, &m);
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().get("wall_s").unwrap().get("unit"),
            Some(&Json::str("s"))
        );
    }
}
