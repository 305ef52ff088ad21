//! What one run measured, and its rendering as the result line.

use std::fmt::Write as _;

use crate::host::json_str;
use crate::stats;

/// One per-layer metric of a traced run (units live in `main`'s table).
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
}

impl Layer {
    pub fn new(name: &'static str, value: f64) -> Self {
        Layer { name, value }
    }
}

/// Everything a workload hands back to the reporter.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub positions_per_s: f64,
    /// Batch wall seconds `batch_ms_p50` is taken over (untraced phase
    /// only): each batch's best over the passes on the single-instance
    /// workloads, every timed round at its undisturbed cost on the fleet.
    pub batch_best_s: Vec<f64>,
    /// Batch wall seconds as measured that `batch_ms_tail` is taken over
    /// (untraced phase only): each batch's fastest tenth of its timings
    /// on the single-instance workloads, every timed round on the fleet.
    pub batch_tail_s: Vec<f64>,
    /// Passes over the plan (single instance) or timed checkpoint cycles
    /// (fleet).
    pub repeats: u64,
    pub err_m_p95: f64,
    pub availability: f64,
    /// `VmHWM` after set-up and the fixed warm-up work, before timing:
    /// read at a fixed amount of work, so a faster run that gets through
    /// more batches does not report more memory.
    pub peak_rss_mb: f64,
    /// Values that must repeat exactly for a given seed, across runs and
    /// between the untraced and traced halves.
    pub determinism: Vec<(String, f64)>,
    /// Informational values printed in the report line.
    pub extra: Vec<(String, f64)>,
    /// Named correctness checks; a failed check fails the run.
    pub checks: Vec<(String, bool)>,
    pub layers: Vec<Layer>,
}

/// Latency summary of the timed batches.
pub struct Batches {
    pub p50_ms: f64,
    pub tail: stats::Tail,
}

impl Run {
    /// Batch p50 and tail in milliseconds; `None` when too few batches
    /// were kept to support any tail percentile. On a single instance
    /// every measured time of a batch is at least its best and every
    /// batch keeps the same number of timings, so at least half of them
    /// lie at or above the median best and the tail, p75 or higher,
    /// cannot fall below the p50. On the fleet the p50 prices rounds at 2nd-percentile shard
    /// steps, below nearly every measured round. `main` asserts tail ≥
    /// p50 on every run.
    pub fn batches(&self) -> Option<Batches> {
        let mut tail = stats::tail(&stats::sorted(&self.batch_tail_s))?;
        tail.value *= 1e3;
        Some(Batches {
            p50_ms: stats::median(&self.batch_best_s) * 1e3,
            tail,
        })
    }
}

/// Formats a metric value with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            num(*value),
            json_str(unit)
        );
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_recurring_costs_through_a_slowed_half() {
        // 100 batches over 20 passes at 1 ms, except six batches that
        // cost 3 ms in every pass (say, the blocks that trigger a
        // reclamation). The host doubled every time in half the passes.
        let mut raw = Vec::new();
        for pass in 0..20 {
            let host = if pass % 2 == 0 { 2.0 } else { 1.0 };
            for batch in 0..100 {
                raw.push(host * if batch % 17 == 0 { 3e-3 } else { 1e-3 });
            }
        }
        let run = Run {
            batch_best_s: (0..100)
                .map(|b| if b % 17 == 0 { 3e-3 } else { 1e-3 })
                .collect(),
            batch_tail_s: stats::quietest_share(&raw, 100, 0.25),
            ..Run::default()
        };
        let b = run.batches().expect("500 batches support a tail");
        assert_eq!(b.p50_ms, 1.0);
        assert_eq!(b.tail.percentile, 95.0);
        assert_eq!(b.tail.value, 3.0);
        assert_eq!(b.tail.samples, 500);
    }

    #[test]
    fn tail_needs_enough_measured_batches() {
        let run = Run {
            batch_best_s: vec![1e-3; 100],
            batch_tail_s: vec![1e-3; 79],
            ..Run::default()
        };
        assert!(run.batches().is_none());
    }
}
