//! What a run prints: checked operations and named metrics.

use crate::stats;
use fuzzyphase_regtree::PredictabilityReport;
use std::collections::BTreeMap;

/// Checked operations: every output the benchmark verifies counts as
/// one attempt, and a wrong or missing output as one failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(20);
    }
}

/// Named metrics with units. The first value put under a name wins, so
/// a run puts its selected workload's figures first and the probes only
/// fill names the selected workload does not measure.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
    /// Sample counts behind percentiles and medians, for the run record.
    pub counts: BTreeMap<&'static str, usize>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.values.entry(name).or_insert((value, unit));
    }

    /// Puts the `p`-th percentile of `samples` when the ten-beyond rule
    /// allows it; otherwise leaves the name to a later pass.
    pub fn put_pct(&mut self, name: &'static str, unit: &'static str, samples: &[f64], p: f64) {
        if self.values.contains_key(name) {
            return;
        }
        let s = stats::sorted(samples.to_vec());
        if let Some(v) = stats::percentile(&s, p) {
            self.put(name, unit, v);
            self.counts.insert(name, s.len());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Moves every name `other` has and `self` lacks into `self`.
    pub fn merge(&mut self, other: Metrics) {
        for (name, (v, unit)) in other.values {
            if !self.values.contains_key(name) {
                self.values.insert(name, (v, unit));
                if let Some(&n) = other.counts.get(name) {
                    self.counts.insert(name, n);
                }
            }
        }
    }

    /// The `metrics` object, restricted to `names` in that order; names
    /// not measured are returned as missing.
    pub fn json(&self, names: &[&str]) -> (String, Vec<String>) {
        let mut parts = Vec::new();
        let mut missing = Vec::new();
        for &name in names {
            match self.values.get(name) {
                Some(&(v, unit)) if v.is_finite() => {
                    parts.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
                }
                _ => missing.push(name.to_string()),
            }
        }
        (format!("{{{}}}", parts.join(",")), missing)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&&'static str, &(f64, &'static str))> {
        self.values.iter()
    }
}

/// Every number in a report, as bits, for exact comparison.
pub fn report_bits(r: &PredictabilityReport) -> Vec<u64> {
    let mut bits = vec![
        r.cpi_variance.to_bits(),
        r.cpi_mean.to_bits(),
        r.re_min.to_bits(),
        r.re_asymptote.to_bits(),
        r.explained_variance.to_bits(),
        r.k_at_min as u64,
        r.k_opt as u64,
        r.num_vectors as u64,
        r.num_features as u64,
    ];
    bits.extend(r.re_curve.iter().map(|x| x.to_bits()));
    bits
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
