//! Per-stage instrumentation collected by the executor.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Timing and scheduling facts for one parallel (or inlined) stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage label, e.g. `"exec/extract:infobox"`.
    pub stage: String,
    /// Number of input items processed.
    pub items: usize,
    /// Number of batches the items were split into.
    pub batches: usize,
    /// Worker threads used (1 when the stage ran inline).
    pub threads: usize,
    /// Batches executed by a worker other than the one they were
    /// initially assigned to — a direct measure of load imbalance.
    pub stolen_batches: usize,
    /// Items re-executed after their closure panicked, one per extra
    /// attempt (always 0 for a sort).
    pub retries: usize,
    /// Wall-clock time for the whole stage.
    pub elapsed: Duration,
    /// Fastest single batch.
    pub min_batch: Duration,
    /// Mean batch latency.
    pub mean_batch: Duration,
    /// Slowest single batch.
    pub max_batch: Duration,
}

impl StageReport {
    /// Items processed per wall-clock second.
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

/// Accumulated time spent inside one named operator (e.g. one extractor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// How many times the operator ran.
    pub invocations: usize,
    /// Total time across all invocations.
    pub elapsed: Duration,
}

/// Everything the executor observed while running a job: one entry per
/// stage, per-operator timings, and named counters (cache hits etc.).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Stage entries in execution order.
    pub stages: Vec<StageReport>,
    /// Accumulated per-operator timings, keyed by operator name.
    pub operators: BTreeMap<String, OpStats>,
    /// Named counters, e.g. `"sim_cache_hits"`.
    pub counters: BTreeMap<String, u64>,
}

impl ExecReport {
    /// Fresh, empty report.
    pub fn new() -> ExecReport {
        ExecReport::default()
    }

    /// The most recent stage recorded under `name`, if any.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().rev().find(|s| s.stage == name)
    }

    /// Add one operator invocation taking `elapsed`.
    pub fn record_operator(&mut self, name: &str, elapsed: Duration) {
        let entry = self.operators.entry(name.to_string()).or_default();
        entry.invocations += 1;
        entry.elapsed += elapsed;
    }

    /// Bump counter `name` by `n`.
    pub fn incr(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Value of counter `name` (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another report into this one, preserving stage order.
    pub fn merge(&mut self, other: ExecReport) {
        self.stages.extend(other.stages);
        for (name, op) in other.operators {
            let entry = self.operators.entry(name).or_default();
            entry.invocations += op.invocations;
            entry.elapsed += op.elapsed;
        }
        for (name, n) in other.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }
}

impl fmt::Display for ExecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stage                       items batches thr stolen retry   elapsed    items/s"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:<27} {:>5} {:>7} {:>3} {:>6} {:>5} {:>9.3?} {:>10.0}",
                s.stage,
                s.items,
                s.batches,
                s.threads,
                s.stolen_batches,
                s.retries,
                s.elapsed,
                s.items_per_sec(),
            )?;
        }
        for (name, op) in &self.operators {
            writeln!(f, "op {:<24} {:>5} runs {:>9.3?}", name, op.invocations, op.elapsed)?;
        }
        for (name, n) in &self.counters {
            writeln!(f, "counter {:<19} {n}", name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_and_counters_accumulate() {
        let mut r = ExecReport::new();
        r.record_operator("infobox", Duration::from_millis(2));
        r.record_operator("infobox", Duration::from_millis(3));
        r.incr("hits", 4);
        r.incr("hits", 1);
        assert_eq!(r.operators["infobox"].invocations, 2);
        assert_eq!(r.operators["infobox"].elapsed, Duration::from_millis(5));
        assert_eq!(r.counter("hits"), 5);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn merge_concatenates_and_sums() {
        let mut a = ExecReport::new();
        a.incr("x", 1);
        let mut b = ExecReport::new();
        b.incr("x", 2);
        b.record_operator("op", Duration::from_millis(1));
        a.merge(b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.operators["op"].invocations, 1);
    }
}
