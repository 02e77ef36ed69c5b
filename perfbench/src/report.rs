//! The result line, process CPU time and order statistics.

use std::collections::BTreeMap;

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed: solver errors, Gram failures, scheduler errors,
    /// backpressure refusals and values the correctness gate rejected.
    pub failed: u64,
    /// Why the gate failed, one line per finding.
    pub findings: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other context, written to the trace record.
    pub context: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a context figure (not a metric).
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.context.insert(name, value);
    }

    /// Count `n` failed operations with the reason.
    pub fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.findings.push(why);
        }
    }

    /// The metric set a run prints: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub fn catalogue(traced: bool) -> &'static [MetricDef] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result object, as one line of JSON. An end-to-end metric the
    /// workload did not produce, or any non-finite value, makes the run
    /// incorrect; a per-layer metric off the workload's path prints 0.
    pub fn render(&self, traced: bool) -> (String, bool) {
        let mut correct = self.failed == 0 && self.findings.is_empty();
        let mut metrics = Vec::new();
        for def in Self::catalogue(traced) {
            let value = match self.metrics.get(def.name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    correct = false;
                    0.0
                }
                None if traced => 0.0,
                None => {
                    correct = false;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(value),
                def.unit
            ));
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        (line, correct)
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// User plus system CPU seconds this process has used, all threads.
///
/// Read from `/proc/self/stat`, whose times are in `USER_HZ` ticks (100 per
/// second on Linux), so windows should span at least a second.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name may hold spaces; the fields after it do not
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // after the name: state is field 3, utime field 14, stime field 15
    let tick = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(14) + tick(15)) / 100.0
}

/// The `p`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if sorted[lo] == sorted[hi] {
        // also keeps an infinite sample infinite
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of a sample; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The share of a run's windows allowed to be slower than the figure it
/// reports.
///
/// The host's speed swings by up to a third in spells of seconds to
/// minutes. The share of quiet time in a run varies from run to run, but
/// the contended level recurs in nearly every run, so a run reports each
/// timing at the slow end of its windows: the value that all but a
/// twentieth of them reach. A change to the program moves every window,
/// the slow ones with the rest.
pub const SLOW_END_SHARE: f64 = 0.05;

/// The slow end of per-window times or costs (lower is better): their
/// 95th percentile.
pub fn slow_end_cost(values: &[f64]) -> f64 {
    quantile(values, 1.0 - SLOW_END_SHARE)
}

/// The slow end of per-window rates (higher is better): their 5th
/// percentile.
pub fn slow_end_rate(values: &[f64]) -> f64 {
    quantile(values, SLOW_END_SHARE)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
