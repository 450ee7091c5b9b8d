//! Benchmark regression gating.
//!
//! The CI workflow reruns the throughput benchmarks on every PR and
//! compares the fresh numbers against the committed `BENCH_*.json`
//! baselines; this module implements the comparison the `bench_check`
//! binary applies.
//!
//! Gated metrics are selected by a schema-agnostic rule so the checker
//! survives benchmark evolution, and they fall into two classes with
//! separate thresholds:
//!
//! * fields starting with `speedup_` are **machine-relative** — kernel
//!   vs. frozen-baseline ratios measured in the same process on the same
//!   machine, so they transfer between the machine that committed the
//!   baseline and the CI runner. They carry the tight gate (25 % by
//!   default): a kernel regression shows up here first.
//! * fields ending in `_per_sec` are **absolute** throughputs; a CI
//!   runner of a different CPU generation can legitimately sit well
//!   below the committed numbers, so they only gate catastrophic
//!   collapses (50 % by default) — the "engine suddenly 10x slower"
//!   class of failure.
//!
//! Fields prefixed `baseline_` are never gated: they measure the frozen
//! seed replica, which is a reference, not a product path — that covers
//! both its raw `baseline_faults_per_sec` throughput and the boolean
//! `baseline_skipped` marker the sweeps write for sizes whose replica is
//! capped out (above 256×256). Unknown and non-numeric fields are
//! tolerated everywhere, so schema evolution (like the
//! `batched_*_per_sec` / `speedup_batched_*` family, or the power
//! engine's `speedup_replay_vs_simulated`) gates automatically without
//! checker changes, and sizes whose baseline-relative metrics are absent
//! from the *committed* file are simply not compared for them.
//!
//! The comparison walks the whole document tree: numeric fields are
//! gated at every level, object-valued members (the fault-sim sweep's
//! `dense`, `campaign` and `daemon` sections) recurse with a scoped
//! metric label, and array entries are matched across files by
//! their `rows`×`cols` pair when they carry one (`sizes`) or by position
//! otherwise. A nested section or entry that carries gated metrics in
//! the committed baseline but is missing from the current measurement
//! fails the gate — dropping the dense sweep must not silently pass CI.

use crate::json::{parse, JsonValue};

/// The two regression thresholds of the gate (fractions of the baseline
/// value a current measurement may drop before failing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateThresholds {
    /// Applied to machine-relative `speedup_*` metrics.
    pub relative: f64,
    /// Applied to absolute `*_per_sec` metrics.
    pub absolute: f64,
}

impl Default for GateThresholds {
    fn default() -> Self {
        Self {
            relative: 0.25,
            absolute: 0.5,
        }
    }
}

/// One gated metric compared between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Metric label, e.g. `512x512 engine_cycles_per_sec`.
    pub metric: String,
    /// Value in the committed baseline file.
    pub baseline: f64,
    /// Value in the freshly measured file.
    pub current: f64,
}

impl Comparison {
    /// `current / baseline` — below `1 - threshold` is a regression.
    pub fn ratio(&self) -> f64 {
        if self.baseline > 0.0 {
            self.current / self.baseline
        } else {
            1.0
        }
    }
}

/// The outcome of checking one benchmark pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Name of the benchmark (the `benchmark` field of both files).
    pub benchmark: String,
    /// Every gated metric that was compared.
    pub comparisons: Vec<Comparison>,
    /// Human-readable failure descriptions; empty means the gate passes.
    pub failures: Vec<String>,
}

impl RegressionReport {
    /// `true` when no gated metric regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn metric_threshold(name: &str, thresholds: GateThresholds) -> Option<f64> {
    if name.starts_with("baseline_") {
        return None;
    }
    if name.starts_with("speedup_") {
        Some(thresholds.relative)
    } else if name.ends_with("_per_sec") {
        Some(thresholds.absolute)
    } else {
        None
    }
}

fn gated_fields(value: &JsonValue, thresholds: GateThresholds) -> Vec<(String, f64, f64)> {
    match value {
        JsonValue::Object(members) => members
            .iter()
            .filter_map(|(name, value)| {
                let threshold = metric_threshold(name, thresholds)?;
                value.as_f64().map(|v| (name.clone(), v, threshold))
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn size_key(entry: &JsonValue) -> Option<String> {
    let rows = entry.get("rows")?.as_f64()?;
    let cols = entry.get("cols")?.as_f64()?;
    Some(format!("{}x{}", rows as u64, cols as u64))
}

fn join_scope(scope: &str, child: &str) -> String {
    if scope.is_empty() {
        child.to_string()
    } else {
        format!("{scope} {child}")
    }
}

/// `true` when `value` (recursively) carries at least one gated numeric
/// metric — the test for whether a section missing from the current
/// measurement is a gate failure or just an optional annotation.
fn has_gated_fields(value: &JsonValue, thresholds: GateThresholds) -> bool {
    match value {
        JsonValue::Object(members) => members.iter().any(|(name, value)| {
            (metric_threshold(name, thresholds).is_some() && value.as_f64().is_some())
                || has_gated_fields(value, thresholds)
        }),
        JsonValue::Array(entries) => entries
            .iter()
            .any(|entry| has_gated_fields(entry, thresholds)),
        _ => false,
    }
}

fn compare_scope(
    scope: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    thresholds: GateThresholds,
    report: &mut RegressionReport,
) {
    for (name, baseline_value, threshold) in gated_fields(baseline, thresholds) {
        let metric = join_scope(scope, &name);
        let Some(current_value) = current.get(&name).and_then(JsonValue::as_f64) else {
            report
                .failures
                .push(format!("{metric}: missing from the current measurement"));
            continue;
        };
        let comparison = Comparison {
            metric: metric.clone(),
            baseline: baseline_value,
            current: current_value,
        };
        if comparison.ratio() < 1.0 - threshold {
            report.failures.push(format!(
                "{metric}: {current_value:.1} is {:.0}% below the baseline {baseline_value:.1} \
                 (allowed drop {:.0}%)",
                (1.0 - comparison.ratio()) * 100.0,
                threshold * 100.0
            ));
        }
        report.comparisons.push(comparison);
    }
}

/// Recursive comparison of one document subtree: gated numeric fields at
/// this level, then object-valued members (nested sections) and arrays
/// of `rows`×`cols`-keyed entries.
fn compare_tree(
    scope: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    thresholds: GateThresholds,
    report: &mut RegressionReport,
) {
    compare_scope(scope, baseline, current, thresholds, report);
    let JsonValue::Object(members) = baseline else {
        return;
    };
    for (name, value) in members {
        match value {
            JsonValue::Object(_) => {
                let child = join_scope(scope, name);
                match current.get(name) {
                    Some(current_value @ JsonValue::Object(_)) => {
                        compare_tree(&child, value, current_value, thresholds, report);
                    }
                    _ => {
                        if has_gated_fields(value, thresholds) {
                            report.failures.push(format!(
                                "{child}: section missing from the current measurement"
                            ));
                        }
                    }
                }
            }
            JsonValue::Array(entries) => {
                let current_entries = current.get(name).and_then(JsonValue::as_array);
                for (position, entry) in entries.iter().enumerate() {
                    // Sized entries match across files by their
                    // rows×cols key; anything else matches by position,
                    // so gated metrics inside un-keyed arrays are still
                    // compared (and their absence still fails) instead
                    // of being skipped.
                    match size_key(entry) {
                        Some(key) => {
                            let child = join_scope(scope, &key);
                            let matching = current_entries.and_then(|candidates| {
                                candidates
                                    .iter()
                                    .find(|candidate| size_key(candidate).as_deref() == Some(&key))
                            });
                            match matching {
                                Some(current_entry) => {
                                    compare_tree(&child, entry, current_entry, thresholds, report);
                                }
                                None => report.failures.push(format!(
                                    "{child}: size missing from the current measurement"
                                )),
                            }
                        }
                        None => {
                            let child = join_scope(scope, &format!("{name}[{position}]"));
                            match current_entries.and_then(|candidates| candidates.get(position)) {
                                Some(current_entry) => {
                                    compare_tree(&child, entry, current_entry, thresholds, report);
                                }
                                None if has_gated_fields(entry, thresholds) => {
                                    report.failures.push(format!(
                                        "{child}: entry missing from the current measurement"
                                    ));
                                }
                                None => {}
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Compares a freshly measured benchmark JSON against its committed
/// baseline.
///
/// # Errors
///
/// Returns a message when either document is malformed or the two files
/// describe different benchmarks.
pub fn check_benchmarks(
    baseline_text: &str,
    current_text: &str,
    thresholds: GateThresholds,
) -> Result<RegressionReport, String> {
    let baseline = parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let current = parse(current_text).map_err(|e| format!("current: {e}"))?;

    let baseline_name = baseline
        .get("benchmark")
        .and_then(JsonValue::as_str)
        .ok_or("baseline: missing \"benchmark\" field")?;
    let current_name = current
        .get("benchmark")
        .and_then(JsonValue::as_str)
        .ok_or("current: missing \"benchmark\" field")?;
    if baseline_name != current_name {
        return Err(format!(
            "benchmark mismatch: baseline is \"{baseline_name}\", current is \"{current_name}\""
        ));
    }

    let mut report = RegressionReport {
        benchmark: baseline_name.to_string(),
        comparisons: Vec::new(),
        failures: Vec::new(),
    };

    compare_tree("", &baseline, &current, thresholds, &mut report);

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> String {
        r#"{
  "benchmark": "power_engine",
  "threads": 4,
  "sizes": [
    { "rows": 64, "cols": 64,
      "baseline_cycles_per_sec": 100.0, "engine_cycles_per_sec": 1000.0,
      "speedup_table1": 10.0 },
    { "rows": 512, "cols": 512,
      "baseline_cycles_per_sec": 90.0, "engine_cycles_per_sec": 4000.0,
      "speedup_table1": 44.0 }
  ]
}"#
        .to_string()
    }

    #[test]
    fn identical_files_pass() {
        let report = check_benchmarks(&baseline(), &baseline(), GateThresholds::default()).unwrap();
        assert!(report.passed());
        assert_eq!(report.benchmark, "power_engine");
        // Two gated metrics per size; the baseline_ replica is not gated.
        assert_eq!(report.comparisons.len(), 4);
        assert!(report
            .comparisons
            .iter()
            .all(|c| !c.metric.contains("baseline_")));
    }

    #[test]
    fn improvements_and_small_dips_pass() {
        let current = baseline()
            .replace(
                "\"engine_cycles_per_sec\": 1000.0",
                "\"engine_cycles_per_sec\": 1500.0",
            )
            // A 20% absolute-throughput dip (runner variance) passes...
            .replace(
                "\"engine_cycles_per_sec\": 4000.0",
                "\"engine_cycles_per_sec\": 3200.0",
            )
            // ...and so does a speedup dip inside the relative threshold.
            .replace("\"speedup_table1\": 44.0", "\"speedup_table1\": 36.0");
        let report = check_benchmarks(&baseline(), &current, GateThresholds::default()).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn moderate_absolute_dip_is_absorbed_as_machine_variance() {
        // A 40% drop in raw cycles/sec alone (different CPU generation)
        // stays inside the 50% absolute allowance.
        let current = baseline().replace(
            "\"engine_cycles_per_sec\": 4000.0",
            "\"engine_cycles_per_sec\": 2400.0",
        );
        let report = check_benchmarks(&baseline(), &current, GateThresholds::default()).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn synthetic_degradation_fails_the_gate() {
        // A 55% collapse of the absolute throughput at 512x512 must fail.
        let current = baseline().replace(
            "\"engine_cycles_per_sec\": 4000.0",
            "\"engine_cycles_per_sec\": 1800.0",
        );
        let report = check_benchmarks(&baseline(), &current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("512x512 engine_cycles_per_sec"));
    }

    #[test]
    fn speedup_regression_fails_at_the_tight_threshold() {
        // The machine-relative gate: a 30% speedup drop fails even though
        // the same relative drop in raw throughput would pass.
        let current = baseline().replace("\"speedup_table1\": 44.0", "\"speedup_table1\": 30.8");
        let report = check_benchmarks(&baseline(), &current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("512x512 speedup_table1"));
    }

    #[test]
    fn slower_frozen_baseline_replica_is_not_a_regression() {
        let current = baseline().replace(
            "\"baseline_cycles_per_sec\": 90.0",
            "\"baseline_cycles_per_sec\": 9.0",
        );
        let report = check_benchmarks(&baseline(), &current, GateThresholds::default()).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn missing_sizes_and_metrics_fail() {
        let current = r#"{ "benchmark": "power_engine", "sizes": [
            { "rows": 64, "cols": 64, "engine_cycles_per_sec": 1000.0, "speedup_table1": 10.0 }
        ] }"#;
        let report = check_benchmarks(&baseline(), current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("512x512: size missing")));
    }

    /// A committed fault-sim baseline in the batched schema: the
    /// 64×64 entry carries the full metric set, the 1024×1024 entry has
    /// its frozen seed replica skipped and gates only on the
    /// machine-relative batched-vs-kernel speedups.
    fn batched_baseline() -> String {
        r#"{
  "benchmark": "fault_sim_sweep",
  "threads": 1,
  "sizes": [
    { "rows": 64, "cols": 64,
      "baseline_skipped": false,
      "baseline_faults_per_sec": 2400.0,
      "kernel_serial_faults_per_sec": 110000.0,
      "batched_faults_per_sec": 900000.0,
      "speedup_serial": 45.0,
      "speedup_batched_vs_kernel": 8.2 },
    { "rows": 1024, "cols": 1024,
      "baseline_skipped": true,
      "kernel_serial_faults_per_sec": 1500.0,
      "batched_faults_per_sec": 500000.0,
      "speedup_batched_vs_kernel": 330.0 }
  ]
}"#
        .to_string()
    }

    #[test]
    fn batched_schema_gates_and_tolerates_baseline_skipped() {
        let report = check_benchmarks(
            &batched_baseline(),
            &batched_baseline(),
            GateThresholds::default(),
        )
        .unwrap();
        assert!(report.passed());
        // Gated: kernel + batched *_per_sec and the speedup_* family per
        // size. Never gated: the boolean `baseline_skipped`, the frozen
        // `baseline_faults_per_sec` replica and the rows/cols keys.
        assert_eq!(report.comparisons.len(), 7);
        assert!(report
            .comparisons
            .iter()
            .all(|c| !c.metric.contains("baseline_")));
    }

    #[test]
    fn synthetically_degraded_batched_metric_fails_the_gate() {
        // A 40% collapse of the 1024x1024 batched-vs-kernel speedup —
        // the machine-relative metric that carries the sweep's gate once
        // the baseline replica is skipped — must fail at the 25%
        // threshold.
        let current = batched_baseline().replace(
            "\"speedup_batched_vs_kernel\": 330.0",
            "\"speedup_batched_vs_kernel\": 198.0",
        );
        let report =
            check_benchmarks(&batched_baseline(), &current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("1024x1024 speedup_batched_vs_kernel"));
    }

    #[test]
    fn unknown_and_non_numeric_fields_are_tolerated() {
        // Boolean, string and null members — plus fields absent from the
        // committed baseline — must neither gate nor fail.
        let current = batched_baseline()
            .replace(
                "\"baseline_skipped\": true,",
                "\"baseline_skipped\": true, \"note\": \"new runner\", \"calibrated\": null,",
            )
            .replace(
                "\"speedup_batched_vs_kernel\": 330.0",
                "\"speedup_batched_vs_kernel\": 330.0, \"speedup_future_metric\": 1.0",
            );
        let report =
            check_benchmarks(&batched_baseline(), &current, GateThresholds::default()).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
    }

    /// A committed fault-sim baseline carrying the dense-population
    /// section: generated-vs-standard throughput.
    fn dense_baseline() -> String {
        r#"{
  "benchmark": "fault_sim_sweep",
  "threads": 1,
  "sizes": [
    { "rows": 64, "cols": 64,
      "baseline_skipped": false,
      "kernel_serial_faults_per_sec": 110000.0,
      "batched_faults_per_sec": 900000.0,
      "speedup_batched_vs_kernel": 8.2 }
  ],
  "dense": {
    "rows": 1024, "cols": 1024,
    "algorithm": "March SS",
    "population": "dense-100032",
    "fault_count": 100032,
    "standard_batched_faults_per_sec": 1300000.0,
    "dense_batched_faults_per_sec": 1170000.0,
    "dense_shuffled_batched_faults_per_sec": 1120000.0,
    "speedup_dense_vs_standard": 0.9,
    "speedup_shuffled_vs_ordered": 0.96
  }
}"#
        .to_string()
    }

    #[test]
    fn dense_section_gates_and_identical_files_pass() {
        let report = check_benchmarks(
            &dense_baseline(),
            &dense_baseline(),
            GateThresholds::default(),
        )
        .unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        // Gated: 3 per-size metrics + 5 dense throughput/ratio metrics.
        // Raw counts carry no gate suffix.
        assert_eq!(report.comparisons.len(), 8);
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.metric == "dense speedup_dense_vs_standard"));
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.metric == "dense speedup_shuffled_vs_ordered"));
        assert!(!report
            .comparisons
            .iter()
            .any(|c| c.metric.contains("fault_count")));
    }

    #[test]
    fn synthetically_degraded_dense_throughput_fails_the_gate() {
        // The dense-vs-standard ratio collapsing from 0.9 to 0.6 (a 33%
        // drop) must fail the 25% machine-relative gate.
        let current = dense_baseline().replace(
            "\"speedup_dense_vs_standard\": 0.9",
            "\"speedup_dense_vs_standard\": 0.6",
        );
        let report =
            check_benchmarks(&dense_baseline(), &current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("dense speedup_dense_vs_standard"));
    }

    #[test]
    fn synthetically_degraded_shuffled_order_ratio_fails_the_gate() {
        // The shuffled-vs-ordered ratio collapsing from 0.96 back to the
        // pre-packed-order ~0.67 (a 30% drop) must fail the 25% gate —
        // that is the regression the metric exists to catch.
        let current = dense_baseline().replace(
            "\"speedup_shuffled_vs_ordered\": 0.96",
            "\"speedup_shuffled_vs_ordered\": 0.67",
        );
        let report =
            check_benchmarks(&dense_baseline(), &current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("dense speedup_shuffled_vs_ordered"));
    }

    #[test]
    fn raw_counts_are_not_gated() {
        // Absolute counts may move freely (population resizing); only
        // rates and ratios are gated.
        let current =
            dense_baseline().replace("\"fault_count\": 100032", "\"fault_count\": 200064");
        let report =
            check_benchmarks(&dense_baseline(), &current, GateThresholds::default()).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn missing_dense_section_fails_the_gate() {
        let current = r#"{
  "benchmark": "fault_sim_sweep",
  "sizes": [
    { "rows": 64, "cols": 64,
      "baseline_skipped": false,
      "kernel_serial_faults_per_sec": 110000.0,
      "batched_faults_per_sec": 900000.0,
      "speedup_batched_vs_kernel": 8.2 }
  ]
}"#;
        let report =
            check_benchmarks(&dense_baseline(), current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("dense: section missing")));
    }

    /// A committed fault-sim baseline carrying the campaign-runner
    /// overhead section.
    fn campaign_baseline() -> String {
        r#"{
  "benchmark": "fault_sim_sweep",
  "threads": 4,
  "sizes": [
    { "rows": 64, "cols": 64,
      "kernel_serial_faults_per_sec": 110000.0,
      "batched_faults_per_sec": 900000.0,
      "speedup_batched_vs_kernel": 8.2 }
  ],
  "campaign": {
    "jobs": 20,
    "threads": 4,
    "direct_jobs_per_sec": 120.0,
    "campaign_jobs_per_sec": 114.0,
    "campaign_parallel_jobs_per_sec": 390.0,
    "speedup_campaign_vs_direct": 0.95
  }
}"#
        .to_string()
    }

    #[test]
    fn campaign_section_gates_and_identical_files_pass() {
        let report = check_benchmarks(
            &campaign_baseline(),
            &campaign_baseline(),
            GateThresholds::default(),
        )
        .unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        // Gated: 3 per-size metrics + the campaign section's three
        // jobs/sec rates and its overhead ratio. `jobs`/`threads` counts
        // carry no gate suffix.
        assert_eq!(report.comparisons.len(), 7);
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.metric == "campaign speedup_campaign_vs_direct"));
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.metric == "campaign campaign_jobs_per_sec"));
    }

    #[test]
    fn regressed_campaign_overhead_ratio_fails_the_gate() {
        // Crash-safety overhead ballooning (the journaled campaign
        // dropping to 60% of the direct loop) must fail the 25%
        // machine-relative gate — that is the regression the section
        // exists to catch.
        let current = campaign_baseline().replace(
            "\"speedup_campaign_vs_direct\": 0.95",
            "\"speedup_campaign_vs_direct\": 0.6",
        );
        let report =
            check_benchmarks(&campaign_baseline(), &current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("campaign speedup_campaign_vs_direct"));
    }

    #[test]
    fn collapsed_campaign_throughput_fails_the_absolute_gate() {
        // A 60% collapse of the parallel campaign rate (a worker pool
        // that stopped scaling) exceeds the 50% absolute allowance.
        let current = campaign_baseline().replace(
            "\"campaign_parallel_jobs_per_sec\": 390.0",
            "\"campaign_parallel_jobs_per_sec\": 156.0",
        );
        let report =
            check_benchmarks(&campaign_baseline(), &current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("campaign campaign_parallel_jobs_per_sec"));
    }

    #[test]
    fn missing_campaign_section_fails_the_gate() {
        let current = r#"{
  "benchmark": "fault_sim_sweep",
  "sizes": [
    { "rows": 64, "cols": 64,
      "kernel_serial_faults_per_sec": 110000.0,
      "batched_faults_per_sec": 900000.0,
      "speedup_batched_vs_kernel": 8.2 }
  ]
}"#;
        let report =
            check_benchmarks(&campaign_baseline(), current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("campaign: section missing")));
    }

    /// A committed fault-sim baseline carrying the daemon-intake section.
    fn daemon_baseline() -> String {
        r#"{
  "benchmark": "fault_sim_sweep",
  "threads": 4,
  "sizes": [
    { "rows": 64, "cols": 64,
      "kernel_serial_faults_per_sec": 110000.0,
      "batched_faults_per_sec": 900000.0,
      "speedup_batched_vs_kernel": 8.2 }
  ],
  "daemon": {
    "jobs": 24,
    "offered": 24,
    "queue_limit": 8,
    "intake_jobs_per_sec": 450.0,
    "shed_fraction": 0.667
  }
}"#
        .to_string()
    }

    #[test]
    fn daemon_section_gates_its_intake_rate_only() {
        let report = check_benchmarks(
            &daemon_baseline(),
            &daemon_baseline(),
            GateThresholds::default(),
        )
        .unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        // Gated: 3 per-size metrics + the intake rate. The shed fraction
        // and the raw counts carry no gate suffix — shedding is asserted
        // exact at measurement time, not tracked as a drifting metric.
        assert_eq!(report.comparisons.len(), 4);
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.metric == "daemon intake_jobs_per_sec"));
        assert!(!report
            .comparisons
            .iter()
            .any(|c| c.metric.contains("shed_fraction")));
    }

    #[test]
    fn collapsed_daemon_intake_rate_fails_the_absolute_gate() {
        // Intake collapsing to 40% of the baseline (an fsync storm, a
        // scan gone quadratic) exceeds the 50% absolute allowance.
        let current = daemon_baseline().replace(
            "\"intake_jobs_per_sec\": 450.0",
            "\"intake_jobs_per_sec\": 180.0",
        );
        let report =
            check_benchmarks(&daemon_baseline(), &current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("daemon intake_jobs_per_sec"));
    }

    #[test]
    fn missing_daemon_section_fails_the_gate() {
        let current = r#"{
  "benchmark": "fault_sim_sweep",
  "sizes": [
    { "rows": 64, "cols": 64,
      "kernel_serial_faults_per_sec": 110000.0,
      "batched_faults_per_sec": 900000.0,
      "speedup_batched_vs_kernel": 8.2 }
  ]
}"#;
        let report =
            check_benchmarks(&daemon_baseline(), current, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("daemon: section missing")));
    }

    #[test]
    fn unknown_nested_sections_without_gated_fields_are_tolerated() {
        // A committed annotation object (no gated metrics inside) absent
        // from the current run must not fail; unknown nested objects in
        // the current run are ignored entirely.
        let baseline = dense_baseline().replace(
            "\"dense\": {",
            "\"notes\": { \"runner\": \"ci\", \"cores\": 4 },\n  \"dense\": {",
        );
        let report =
            check_benchmarks(&baseline, &dense_baseline(), GateThresholds::default()).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn unkeyed_arrays_with_gated_metrics_are_compared_by_position() {
        // Gated metrics inside arrays without rows/cols keys must still
        // gate (matched positionally) — and a degraded value must fail.
        let baseline = r#"{ "benchmark": "x", "runs": [
            { "label": "warm", "speedup_run": 4.0 },
            { "label": "cold", "speedup_run": 2.0 }
        ] }"#;
        let report = check_benchmarks(baseline, baseline, GateThresholds::default()).unwrap();
        assert!(report.passed());
        assert_eq!(report.comparisons.len(), 2);
        assert!(report.comparisons[1].metric.contains("runs[1]"));
        let degraded = baseline.replace("\"speedup_run\": 2.0", "\"speedup_run\": 1.0");
        let report = check_benchmarks(baseline, &degraded, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert!(report.failures[0].contains("runs[1] speedup_run"));
        // Dropping the array entirely must also fail, not pass silently.
        let missing = r#"{ "benchmark": "x" }"#;
        let report = check_benchmarks(baseline, missing, GateThresholds::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("runs[0]: entry missing")));
    }

    #[test]
    fn mismatched_benchmarks_are_rejected() {
        let other = baseline().replace("power_engine", "fault_sim_sweep");
        assert!(check_benchmarks(&baseline(), &other, GateThresholds::default()).is_err());
        assert!(check_benchmarks("not json", &baseline(), GateThresholds::default()).is_err());
    }
}
