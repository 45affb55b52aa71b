//! Summary statistics and the one-line JSON result.

use std::time::Instant;

/// Nearest-rank percentile `q` (0..=1) of `values`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A timed operation: when it completed and its latency in ms.
pub type Sample = (Instant, f64);

/// Latencies of `samples` split at `bounds` (ascending): part `i` holds
/// the samples that completed in `[bounds[i], bounds[i + 1])`.
pub fn split(samples: &[Sample], bounds: &[Instant]) -> Vec<Vec<f64>> {
    let mut parts = vec![Vec::new(); bounds.len().saturating_sub(1)];
    for (at, ms) in samples {
        let i = bounds.partition_point(|b| b <= at);
        if (1..bounds.len()).contains(&i) {
            parts[i - 1].push(*ms);
        }
    }
    parts
}

/// The lowest of `values`, skipping NaNs; NaN when there are none.
pub fn lowest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NAN, f64::min)
}

/// The highest of `values`, skipping NaNs; NaN when there are none.
pub fn highest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NAN, f64::max)
}

/// The metrics of one run, in insertion order.
pub struct Metrics {
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn new(attempted: u64, failed: u64) -> Metrics {
        Metrics {
            attempted,
            failed,
            values: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    /// Refused and failed operations over attempted ones.
    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Metrics that could not be measured (no samples) print as null and
    /// make the run incorrect.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line; `correct` should already account for
    /// [`Metrics::all_finite`].
    pub fn to_json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
