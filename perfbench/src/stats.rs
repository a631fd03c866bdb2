//! Sample summaries, output checks and the result record a run prints.

use warlock::json::Json;

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample set (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A latency sample set: median, p90, and the highest of p50/p90/p99/p99.9
/// that still has at least ten samples beyond it.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub top_percentile: f64,
    pub top_value: f64,
    /// p10, p20, …, p90, for reading the shape of the distribution.
    pub deciles: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut top_percentile = 50.0;
        for p in [90.0, 99.0, 99.9] {
            if n as f64 * (1.0 - p / 100.0) >= 10.0 {
                top_percentile = p;
            }
        }
        Self {
            n,
            p50: quantile(&sorted, 0.5),
            p90: quantile(&sorted, 0.9),
            top_percentile,
            top_value: quantile(&sorted, top_percentile / 100.0),
            deciles: (1..10)
                .map(|d| quantile(&sorted, d as f64 / 10.0))
                .collect(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            ("n", Json::Int(self.n as i64)),
            ("p50_ms", Json::Num(self.p50)),
            ("p90_ms", Json::Num(self.p90)),
            ("top_percentile", Json::Num(self.top_percentile)),
            ("top_ms", Json::Num(self.top_value)),
            (
                "deciles_ms",
                Json::Arr(self.deciles.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }
}

/// Operations attempted and failed, counting failed output checks as
/// failed operations.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Records one attempted operation; `problem` is `None` when it
    /// succeeded and every check on its output held.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 20 {
                self.messages.push(m);
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// What one workload run reports: the checks, the metrics of the
/// requested set (end-to-end or per-layer), and free-form detail.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub detail: Vec<(String, Json)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn detail(&mut self, key: impl Into<String>, value: Json) {
        self.detail.push((key.into(), value));
    }
}

/// The high-water resident set size of process `pid` (`"self"` for this
/// one), in bytes, from `/proc/<pid>/status`.
pub fn peak_rss_bytes(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
        assert_eq!(quantile(&sorted, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).top_percentile, 90.0);
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).top_percentile, 99.0);
        assert_eq!(Summary::of(&[1.0; 20]).top_percentile, 50.0);
    }
}
