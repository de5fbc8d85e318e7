//! Order statistics and the metric report.

use crate::oracle::Tally;

/// Nearest-rank percentile `q` in `[0, 1]` of `xs` (sorted in place);
/// 0 for an empty sample.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x.max(f64::MIN_POSITIVE).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// `num / den`, or 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in the order they were measured.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// One `metric <name> <value> <unit>` line per metric, then the
    /// result object as the last line of standard output.
    pub fn print(&self, tally: &Tally) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        println!("{}", self.result_json(tally));
    }

    pub fn result_json(&self, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.wrong == 0,
            tally.attempted.max(1),
            tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_means() {
        let mut xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut xs), 3.0);
        assert_eq!(percentile(&mut xs, 0.9), 5.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean([1.0, 4.0]), 2.5);
        assert_eq!(mean([]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut r = Report::default();
        r.put("a_us", 1.5, "us");
        r.put("b", f64::NAN, "count");
        let line = r.result_json(&Tally {
            attempted: 3,
            failed: 1,
            wrong: 0,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
