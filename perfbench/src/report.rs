//! The metric registry, the per-layer metrics derived from a trace, and
//! the output lines.

use crate::harness::Facts;
use crate::power_table1::SIZES;
use crate::stats::{median, Tail};
use crate::trace::Trace;

/// A measured value, by name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit the value is in.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

/// A metric the run could not produce, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dropped {
    /// Metric name.
    pub name: String,
    /// Why it is missing.
    pub reason: String,
}

/// A registry entry: name, unit and which direction is better.
pub type Entry = (&'static str, &'static str, &'static str);

/// End-to-end metrics that every workload reports in its result object
/// (`BENCHMARK.json` `end_to_end`).
pub const GATED: [Entry; 4] = [
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// End-to-end metrics printed on their own lines but not in the result
/// object: they are zero (`op_error_rate`) or exist on one workload
/// only, and the result object must hold the same metrics on every
/// workload. The workload name is where each one is measured.
pub const PRINTED: [(Entry, Option<&str>); 5] = [
    (("op_error_rate", "fraction", "lower"), None),
    (("cycles_per_s", "cycles/s", "higher"), Some("power_table1")),
    (("prr_err_pp", "pp", "lower"), Some("power_table1")),
    (("faults_per_s", "faults/s", "higher"), Some("dense_sweep")),
    (("jobs_per_s", "jobs/s", "higher"), Some("campaign_batch")),
];

/// Per-layer metrics of the traced run (`BENCHMARK.json` `per_layer`).
pub const PER_LAYER: [Entry; 37] = [
    ("sched.threads", "threads", "higher"),
    ("sched.parallel_speedup", "x", "higher"),
    ("core.session_ms.512", "ms", "lower"),
    ("core.session_ms.1024", "ms", "lower"),
    ("core.rehearse_ms.512", "ms", "lower"),
    ("core.rehearse_ms.1024", "ms", "lower"),
    ("core.replay_cycles_per_s.512", "cycles/s", "higher"),
    ("core.replay_cycles_per_s.1024", "cycles/s", "higher"),
    ("core.plan_build_ms.512", "ms", "lower"),
    ("core.plan_build_ms.1024", "ms", "lower"),
    ("sram.sim_cycles_per_s", "cycles/s", "higher"),
    ("power.peak_ns_per_cycle", "ns/cycle", "lower"),
    ("power.analytic_ms", "ms", "lower"),
    ("march.walk_build_ms", "ms", "lower"),
    ("march.walk_rss_mib", "MiB", "lower"),
    ("march.sweep_ms", "ms", "lower"),
    ("march.plan_ms", "ms", "lower"),
    ("march.execute_ms", "ms", "lower"),
    ("march.faults", "count", "higher"),
    ("march.cohorts", "count", "lower"),
    ("march.lane_faults", "count", "higher"),
    ("march.schedule_steps", "count", "lower"),
    ("march.steps_per_fault", "steps/fault", "lower"),
    ("campaign.job_ms", "ms", "lower"),
    ("campaign.vs_direct", "x", "higher"),
    ("campaign.journal_append_us", "us", "lower"),
    ("campaign.journal_create_ms", "ms", "lower"),
    ("campaign.export_ms", "ms", "lower"),
    ("campaign.executed", "count", "higher"),
    ("campaign.retries", "count", "lower"),
    ("campaign.poisoned", "count", "lower"),
    ("campaign.daemon_drain_ms", "ms", "lower"),
    ("campaign.intake_us_per_job", "us/job", "lower"),
    ("campaign.spool_submit_us", "us", "lower"),
    ("campaign.spool_respond_us", "us", "lower"),
    ("campaign.spool_scan_ms", "ms", "lower"),
    ("campaign.shed", "count", "lower"),
];

fn unit_of(name: &str) -> &'static str {
    GATED
        .iter()
        .chain(PRINTED.iter().map(|(entry, _)| entry))
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// Metrics and dropped-metric lines, in registry order.
#[derive(Debug, Default)]
pub struct Lines {
    /// Produced metrics.
    pub metrics: Vec<Metric>,
    /// Metrics that could not be produced.
    pub dropped: Vec<Dropped>,
}

impl Lines {
    /// Records `name` with `value`, or as dropped for `reason` when the
    /// value is missing or not finite.
    pub fn put(&mut self, name: &str, value: Option<f64>, reason: impl Into<String>) {
        match value {
            Some(value) if value.is_finite() => self.metrics.push(Metric {
                name: name.to_string(),
                unit: unit_of(name),
                value,
            }),
            _ => self.dropped.push(Dropped {
                name: name.to_string(),
                reason: reason.into(),
            }),
        }
    }

    /// A produced metric.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One `metric <name> = <value> <unit>` or `dropped: <name>: <reason>`
    /// line per entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            out += &format!(
                "metric {} = {} {}\n",
                metric.name, metric.value, metric.unit
            );
        }
        for dropped in &self.dropped {
            out += &format!("dropped: {}: {}\n", dropped.name, dropped.reason);
        }
        out
    }
}

/// The untraced run's end-to-end measurements of one workload.
#[derive(Debug, Clone)]
pub struct EndToEnd<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Median set-up time over the set-up samples.
    pub setup_s: Option<f64>,
    /// Latencies of the passing ops.
    pub latencies_ms: &'a [f64],
    /// The tail of those latencies.
    pub tail: Option<Tail>,
    /// Median VmHWM of the set-up processes.
    pub peak_rss_mib: Option<f64>,
    /// Failed over attempted ops.
    pub error_rate: f64,
    /// The workload's throughput metric: name and value.
    pub rate: (&'static str, f64),
    /// The PRR gap to the paper (`power_table1` only).
    pub prr_err_pp: Option<f64>,
}

/// Every end-to-end metric for `e2e.workload`, or a dropped line for it.
pub fn end_to_end(e2e: &EndToEnd<'_>) -> Lines {
    let mut lines = Lines::default();
    lines.put("setup_s", e2e.setup_s, "no set-up sample");
    lines.put("op_p50_ms", median(e2e.latencies_ms), "no op passed");
    lines.put(
        "op_tail_ms",
        e2e.tail.map(|t| t.value),
        format!(
            "{} passing ops; the tail needs more than ten",
            e2e.latencies_ms.len()
        ),
    );
    lines.put("peak_rss_mib", e2e.peak_rss_mib, "VmHWM unreadable");
    lines.put("op_error_rate", Some(e2e.error_rate), "");
    for ((name, _, _), home) in PRINTED.iter().skip(1) {
        let home = home.expect("workload-specific metric");
        let value = match *name {
            "prr_err_pp" => e2e.prr_err_pp,
            _ => Some(e2e.rate)
                .filter(|(rate, _)| rate == name)
                .map(|(_, v)| v),
        };
        let reason = if home == e2e.workload {
            "no op passed".to_string()
        } else {
            format!("measured on {home} only")
        };
        lines.put(name, value, reason);
    }
    lines
}

fn median_of(trace: &Trace, span: &str) -> Option<f64> {
    median(&trace.durations_ms(span))
}

fn missing(span: &str) -> String {
    format!("no `{span}` span recorded")
}

/// Derives every per-layer metric from the traced run's spans and facts.
/// `speedup` is the workload's serial over default op time.
pub fn per_layer(trace: &Trace, facts: &Facts, speedup: Option<f64>) -> Lines {
    let fact = |name: &str| facts.get(name).copied();
    let mut lines = Lines::default();
    lines.put(
        "sched.threads",
        fact("sched.threads"),
        "thread count unknown",
    );
    lines.put(
        "sched.parallel_speedup",
        speedup,
        "no serial and default op times",
    );

    for size in SIZES {
        let sessions = format!("probe.core.sessions.{size}");
        let rehearse = format!("probe.core.rehearse.{size}");
        let plan = format!("probe.core.plan_build.{size}");
        let session_ms = median(&trace.child_sums_ms(&sessions, "core.session"));
        let rehearse_ms = median(&trace.child_sums_ms(&rehearse, "core.session"));
        lines.put(
            &format!("core.session_ms.{size}"),
            session_ms,
            missing(&sessions),
        );
        lines.put(
            &format!("core.rehearse_ms.{size}"),
            rehearse_ms,
            missing(&rehearse),
        );
        let replay_s = session_ms.zip(rehearse_ms).map(|(s, r)| (s - r) / 1e3);
        lines.put(
            &format!("core.replay_cycles_per_s.{size}"),
            fact(&format!("core.cycles.{size}"))
                .zip(replay_s)
                .map(|(c, s)| c / s),
            "session or rehearsal time missing",
        );
        lines.put(
            &format!("core.plan_build_ms.{size}"),
            median_of(trace, &plan),
            missing(&plan),
        );
    }

    lines.put(
        "sram.sim_cycles_per_s",
        fact("sram.cycles")
            .zip(median_of(trace, "probe.sram.simulate"))
            .map(|(c, ms)| c / (ms / 1e3)),
        missing("probe.sram.simulate"),
    );
    lines.put(
        "power.peak_ns_per_cycle",
        fact("power.stream_cycles")
            .zip(median_of(trace, "probe.power.peak"))
            .map(|(n, ms)| ms * 1e6 / n),
        missing("probe.power.peak"),
    );
    lines.put(
        "power.analytic_ms",
        median_of(trace, "probe.power.analytic"),
        missing("probe.power.analytic"),
    );

    let sweep_ms = median_of(trace, "march.sweep");
    let plan_ms = median_of(trace, "probe.march.plan");
    lines.put(
        "march.walk_build_ms",
        median_of(trace, "march.walk_build"),
        missing("march.walk_build"),
    );
    lines.put(
        "march.walk_rss_mib",
        fact("march.walk_rss_mib"),
        "VmRSS probe not run",
    );
    lines.put("march.sweep_ms", sweep_ms, missing("march.sweep"));
    lines.put("march.plan_ms", plan_ms, missing("probe.march.plan"));
    lines.put(
        "march.execute_ms",
        sweep_ms.zip(plan_ms).map(|(s, p)| s - p),
        "sweep or plan time missing",
    );
    for name in [
        "march.faults",
        "march.cohorts",
        "march.lane_faults",
        "march.schedule_steps",
        "march.steps_per_fault",
    ] {
        lines.put(name, fact(name), "plan probe not run");
    }

    let campaign_ms = median_of(trace, "op.campaign_batch");
    let drain_ms = median_of(trace, "probe.campaign.daemon_drain");
    let direct_ms = median(&trace.child_sums_ms("reference.campaign_batch", "campaign.run_job"));
    let us = |span: &str| median_of(trace, span).map(|ms| ms * 1e3);
    lines.put(
        "campaign.job_ms",
        median_of(trace, "campaign.run_job"),
        missing("campaign.run_job"),
    );
    lines.put(
        "campaign.vs_direct",
        direct_ms
            .zip(campaign_ms)
            .map(|(direct, campaign)| direct / campaign),
        "run_job or run_campaign time missing",
    );
    lines.put(
        "campaign.journal_append_us",
        us("probe.campaign.journal_append"),
        missing("probe.campaign.journal_append"),
    );
    lines.put(
        "campaign.journal_create_ms",
        median_of(trace, "probe.campaign.journal_create"),
        missing("probe.campaign.journal_create"),
    );
    lines.put(
        "campaign.export_ms",
        median_of(trace, "probe.campaign.export"),
        missing("probe.campaign.export"),
    );
    for name in ["campaign.executed", "campaign.retries", "campaign.poisoned"] {
        lines.put(name, fact(name), "no campaign op passed");
    }
    lines.put(
        "campaign.daemon_drain_ms",
        drain_ms,
        missing("probe.campaign.daemon_drain"),
    );
    lines.put(
        "campaign.intake_us_per_job",
        median_of(trace, "probe.campaign.daemon_drain_1thread")
            .zip(direct_ms)
            .zip(fact("campaign.jobs"))
            .map(|((drain, direct), jobs)| (drain - direct) * 1e3 / jobs),
        "one-thread daemon drain or run_job time missing",
    );
    lines.put(
        "campaign.spool_submit_us",
        us("probe.campaign.spool_submit"),
        missing("probe.campaign.spool_submit"),
    );
    lines.put(
        "campaign.spool_respond_us",
        us("probe.campaign.spool_respond"),
        missing("probe.campaign.spool_respond"),
    );
    lines.put(
        "campaign.spool_scan_ms",
        median_of(trace, "probe.campaign.spool_scan"),
        missing("probe.campaign.spool_scan"),
    );
    lines.put(
        "campaign.shed",
        fact("campaign.shed"),
        "daemon probe not run",
    );
    lines
}

/// The result object: the last line of standard output.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Span, Trace};

    /// Every metric the benchmark's specification names, end to end and
    /// per layer.
    const SPECIFIED: [&str; 46] = [
        "setup_s",
        "op_p50_ms",
        "op_tail_ms",
        "op_error_rate",
        "peak_rss_mib",
        "cycles_per_s",
        "prr_err_pp",
        "faults_per_s",
        "jobs_per_s",
        "sched.threads",
        "sched.parallel_speedup",
        "core.session_ms.512",
        "core.session_ms.1024",
        "core.rehearse_ms.512",
        "core.rehearse_ms.1024",
        "core.replay_cycles_per_s.512",
        "core.replay_cycles_per_s.1024",
        "core.plan_build_ms.512",
        "core.plan_build_ms.1024",
        "sram.sim_cycles_per_s",
        "power.peak_ns_per_cycle",
        "power.analytic_ms",
        "march.walk_build_ms",
        "march.walk_rss_mib",
        "march.sweep_ms",
        "march.plan_ms",
        "march.execute_ms",
        "march.faults",
        "march.cohorts",
        "march.lane_faults",
        "march.schedule_steps",
        "march.steps_per_fault",
        "campaign.job_ms",
        "campaign.vs_direct",
        "campaign.journal_append_us",
        "campaign.journal_create_ms",
        "campaign.export_ms",
        "campaign.executed",
        "campaign.retries",
        "campaign.poisoned",
        "campaign.daemon_drain_ms",
        "campaign.intake_us_per_job",
        "campaign.spool_submit_us",
        "campaign.spool_respond_us",
        "campaign.spool_scan_ms",
        "campaign.shed",
    ];

    const WORKLOADS: [&str; 3] = ["power_table1", "dense_sweep", "campaign_batch"];

    fn accounted(lines: &Lines, name: &str) -> bool {
        let text = lines.render();
        text.lines().any(|line| {
            line.starts_with(&format!("metric {name} = "))
                || line.starts_with(&format!("dropped: {name}: "))
        })
    }

    /// A trace holding one span of every name the run records.
    fn full_trace() -> Trace {
        let mut spans = Vec::new();
        let mut push = |name: &str, parent: Option<usize>, ms: u64| {
            let id = spans.len();
            let start_ns = id as u64 * 1_000_000_000;
            spans.push(Span {
                id,
                name: name.to_string(),
                start_ns,
                end_ns: start_ns + ms * 1_000_000,
                parent,
                op: None,
                thread: 0,
            });
            id
        };
        for size in SIZES {
            let sessions = push(&format!("probe.core.sessions.{size}"), None, 100);
            push("core.session", Some(sessions), 40);
            let rehearse = push(&format!("probe.core.rehearse.{size}"), None, 10);
            push("core.session", Some(rehearse), 5);
            push(&format!("probe.core.plan_build.{size}"), None, 3);
        }
        let reference = push("reference.campaign_batch", None, 300);
        push("campaign.run_job", Some(reference), 7);
        for name in [
            "probe.sram.simulate",
            "probe.power.peak",
            "probe.power.analytic",
            "march.walk_build",
            "march.sweep",
            "probe.march.plan",
            "op.campaign_batch",
            "probe.campaign.journal_append",
            "probe.campaign.journal_create",
            "probe.campaign.export",
            "probe.campaign.daemon_drain",
            "probe.campaign.daemon_drain_1thread",
            "probe.campaign.spool_submit",
            "probe.campaign.spool_respond",
            "probe.campaign.spool_scan",
        ] {
            push(name, None, 2);
        }
        Trace { spans }
    }

    fn full_facts() -> Facts {
        let mut facts = Facts::new();
        for name in [
            "sched.threads",
            "core.cycles.512",
            "core.cycles.1024",
            "sram.cycles",
            "power.stream_cycles",
            "march.walk_rss_mib",
            "march.faults",
            "march.cohorts",
            "march.lane_faults",
            "march.schedule_steps",
            "march.steps_per_fault",
            "campaign.executed",
            "campaign.retries",
            "campaign.poisoned",
            "campaign.jobs",
            "campaign.shed",
        ] {
            facts.insert(name.to_string(), 1.0);
        }
        facts
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = GATED
            .iter()
            .chain(PRINTED.iter().map(|(entry, _)| entry))
            .chain(PER_LAYER.iter())
            .map(|(name, _, _)| *name)
            .collect();
        for name in &names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name} is not [A-Za-z0-9_.-]+"
            );
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for (_, unit, better) in GATED.iter().chain(PER_LAYER.iter()) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
            assert!(matches!(*better, "higher" | "lower"));
        }
    }

    #[test]
    fn every_specified_metric_is_printed_or_dropped() {
        let e2e = |workload, latencies: &'static [f64]| {
            end_to_end(&EndToEnd {
                workload,
                setup_s: Some(0.5),
                latencies_ms: latencies,
                tail: crate::stats::tail(latencies),
                peak_rss_mib: Some(100.0),
                error_rate: 0.0,
                rate: ("jobs_per_s", 10.0),
                prr_err_pp: None,
            })
        };
        const SOME: [f64; 12] = [1.0; 12];
        for workload in WORKLOADS {
            for lines in [e2e(workload, &SOME), e2e(workload, &[])] {
                for name in &SPECIFIED[..9] {
                    assert!(accounted(&lines, name), "{workload}: {name} missing");
                }
            }
        }
        for (trace, facts) in [
            (full_trace(), full_facts()),
            (Trace::default(), Facts::new()),
        ] {
            let lines = per_layer(&trace, &facts, Some(1.5));
            for name in &SPECIFIED[9..] {
                assert!(accounted(&lines, name), "{name} missing");
            }
        }
        let full = per_layer(&full_trace(), &full_facts(), Some(1.5));
        assert!(full.dropped.is_empty(), "{:?}", full.dropped);
        assert_eq!(full.metrics.len(), PER_LAYER.len());
        assert_eq!(
            full.metric("core.session_ms.512").map(|m| m.value),
            Some(40.0)
        );
        assert_eq!(
            full.metric("core.rehearse_ms.1024").map(|m| m.value),
            Some(5.0)
        );
        assert_eq!(full.metric("march.execute_ms").map(|m| m.value), Some(0.0));
        let empty = per_layer(&Trace::default(), &Facts::new(), None);
        assert_eq!(empty.dropped.len(), PER_LAYER.len());
    }

    #[test]
    fn registry_covers_exactly_the_specified_metrics() {
        let mut registry: Vec<&str> = GATED
            .iter()
            .chain(PRINTED.iter().map(|(entry, _)| entry))
            .chain(PER_LAYER.iter())
            .map(|(name, _, _)| *name)
            .collect();
        let mut specified = SPECIFIED.to_vec();
        registry.sort_unstable();
        specified.sort_unstable();
        assert_eq!(registry, specified);
    }

    /// The values of `field` in the objects of the `key` array of
    /// `BENCHMARK.json`, quotes stripped.
    fn benchmark_values(json: &str, key: &str, field: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\":")).expect("key present");
        let array = &json[start..];
        let array = &array[..array.find(']').expect("array closes")];
        array
            .split(&format!("\"{field}\":"))
            .skip(1)
            .map(|rest| {
                let end = rest.find([',', '}']).expect("value ends");
                rest[..end].trim().trim_matches('"').to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (key, entries) in [("end_to_end", &GATED[..]), ("per_layer", &PER_LAYER[..])] {
            for (index, field) in ["name", "unit", "better"].into_iter().enumerate() {
                let expected: Vec<&str> = entries.iter().map(|e| [e.0, e.1, e.2][index]).collect();
                assert_eq!(
                    benchmark_values(&json, key, field),
                    expected,
                    "{key} {field}"
                );
            }
        }
        assert_eq!(benchmark_values(&json, "workloads", "name"), WORKLOADS);
        // setup_s carries the largest bound; none exceeds a quarter.
        let bounds: Vec<f64> = benchmark_values(&json, "end_to_end", "bound")
            .iter()
            .map(|bound| bound.parse().expect("numeric bound"))
            .collect();
        assert_eq!(GATED[0].0, "setup_s");
        assert!(bounds
            .iter()
            .all(|&bound| bound > 0.0 && bound <= bounds[0] && bound <= 0.25));
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let json = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "op_p50_ms".to_string(),
                unit: "ms",
                value: 1.25,
            }],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
