//! The repository benchmark: one command, three closed-loop workloads,
//! and a traced run that breaks each workload down by layer.
//!
//! ```text
//! perfbench --workload <power_table1|dense_sweep|campaign_batch>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` one client sends the workload's ops back to back for
//! `S` seconds, every op's output is checked against a reference, and the
//! end-to-end metrics are printed. With `--trace 1` the same public calls
//! run under spans and every per-layer metric is derived from them. The
//! last line of standard output is the result object. See `README.md`.

mod campaign_batch;
mod dense_sweep;
mod harness;
mod power_table1;
mod report;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use campaign_batch::CampaignBatch;
use dense_sweep::DenseSweep;
use harness::{caught, closed_loop, Facts, Tally, Workload};
use power_table1::PowerTable1;
use report::{end_to_end, per_layer, result_json, EndToEnd, Lines, GATED, PER_LAYER};
use stats::{median, status_mib, tail};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <power_table1|dense_sweep|campaign_batch> \
                     [--seed N] [--seconds S] [--trace 0|1]";
/// Scratch files (journals, spools) and span dumps, under the working
/// directory.
const WORK_ROOT: &str = ".bench_work";
/// Set-up samples, each a fresh process; `setup_s` is their median.
const SETUP_SAMPLES: usize = 9;
/// Serial-variant runs behind `sched.parallel_speedup`.
const SERIAL_RUNS: usize = 3;
/// Traced ops of each workload the traced run is not focused on.
const SIDE_OPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Which {
    Power,
    Dense,
    Campaign,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Which,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: time one set-up in this process and print it.
    setup_only: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Which::Power,
        seed: 1,
        seconds: 10,
        trace: false,
        setup_only: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            parsed.setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "power_table1" => Which::Power,
                    "dense_sweep" => Which::Dense,
                    "campaign_batch" => Which::Campaign,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn name(which: Which) -> &'static str {
    match which {
        Which::Power => PowerTable1::NAME,
        Which::Dense => DenseSweep::NAME,
        Which::Campaign => CampaignBatch::NAME,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(WORK_ROOT).join(std::process::id().to_string());
    if let Err(error) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {error}", dir.display());
        return ExitCode::FAILURE;
    }
    let result = if args.setup_only {
        setup_once(&args, &dir).map(|sample| println!("{sample}"))
    } else if args.trace {
        traced(&args, &dir)
    } else {
        untraced(&args, &dir)
    };
    std::fs::remove_dir_all(&dir).ok();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// One set-up sample: seconds from workload start to the first timed op,
/// and the process's peak memory once that op is done.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SetupSample {
    seconds: f64,
    peak_rss_mib: f64,
}

impl std::fmt::Display for SetupSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "setup_s {} peak_rss_mib {}",
            self.seconds, self.peak_rss_mib
        )
    }
}

impl std::str::FromStr for SetupSample {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, String> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[..] {
            ["setup_s", seconds, "peak_rss_mib", rss] => Ok(Self {
                seconds: seconds
                    .parse()
                    .map_err(|_| format!("bad setup_s in {line:?}"))?,
                peak_rss_mib: rss
                    .parse()
                    .map_err(|_| format!("bad peak_rss_mib in {line:?}"))?,
            }),
            _ => Err(format!("not a set-up sample: {line:?}")),
        }
    }
}

/// Builds the workload's inputs, warms its caches (the shared schedule
/// plans) and runs one discarded op: what a user waits for before the
/// first timed op. The peak memory is that of a fresh process running
/// the workload once, as a user's process does.
fn setup_once(args: &Args, dir: &Path) -> Result<SetupSample, String> {
    let start = Instant::now();
    match args.workload {
        Which::Power => PowerTable1::setup().op(None).map(drop),
        Which::Dense => DenseSweep::setup(args.seed).op(None).map(drop),
        Which::Campaign => CampaignBatch::setup(args.seed, dir).op(None).map(drop),
    }?;
    Ok(SetupSample {
        seconds: start.elapsed().as_secs_f64(),
        peak_rss_mib: status_mib("VmHWM").ok_or("VmHWM unreadable")?,
    })
}

/// Set-up samples, each from a fresh process running [`setup_once`], so
/// caches and first-touch memory start cold every time.
fn setup_samples(args: &Args) -> Result<Vec<SetupSample>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (0..SETUP_SAMPLES)
        .map(|_| {
            let output = Command::new(&exe)
                .args(["--workload", name(args.workload), "--seed"])
                .arg(args.seed.to_string())
                .arg("--setup-only")
                .output()
                .map_err(|e| format!("set-up process: {e}"))?;
            if !output.status.success() {
                return Err(format!(
                    "set-up process failed ({}): {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                ));
            }
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .last()
                .unwrap_or_default()
                .parse()
        })
        .collect()
}

fn print_header(args: &Args) {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        name(args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "threads: max_threads={} nproc={}",
        march_test::parallel::max_threads(),
        stats::affinity_cpus().map_or("unknown".to_string(), |n| n.to_string())
    );
    let sizes: Vec<String> = power_table1::SIZES
        .iter()
        .map(|s| format!("{s}x{s}"))
        .collect();
    println!(
        "arrays: power_table1 {}; dense_sweep {d}x{d}; campaign_batch {c}x{c} per job; \
         spot checks 64x64",
        sizes.join(" then "),
        d = dense_sweep::SIZE,
        c = campaign_batch::SIZE
    );
}

fn spot_checks(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    for (check, result) in [
        ("replay == full simulation", caught(PowerTable1::spot_check)),
        (
            "lane-batched == per-fault",
            caught(|| DenseSweep::spot_check(seed)),
        ),
    ] {
        match result {
            Ok(()) => println!("spot check {check}: ok"),
            Err(error) => {
                println!("spot check {check}: FAILED: {error}");
                failures.push(error);
            }
        }
    }
    failures
}

/// One workload's untraced run: the reference (off every clock), the
/// main process's warm-up op, then the timed closed loop, each op checked
/// after its timer stops. `prr` reads the paper-accuracy metric from a
/// passing output, where there is one.
fn measure<W: Workload>(
    workload: &W,
    args: &Args,
    prr: impl Fn(&W::Output) -> Option<f64>,
) -> Result<(), String> {
    println!("per op: {}", workload.per_op());
    let reference = workload.reference(None)?;
    caught(|| workload.op(None))?;
    let mut tally = Tally::default();
    let last = closed_loop(workload, &reference, args.seconds, &mut tally);
    if let Some(mib) = status_mib("VmHWM") {
        println!(
            "main process VmHWM after {} ops: {mib} MiB",
            tally.attempted
        );
    }
    if let Some(output) = &last {
        println!("sim: {}", workload.describe(output));
    }
    let spot_failures = spot_checks(args.seed);
    for failure in &tally.failures {
        println!("op failed: {failure}");
    }

    // After the loop, so the set-up processes cannot disturb it.
    let setup = setup_samples(args)?;
    let (seconds, rss): (Vec<f64>, Vec<f64>) =
        setup.iter().map(|s| (s.seconds, s.peak_rss_mib)).unzip();
    println!("set-up samples: setup_s {seconds:?} peak_rss_mib {rss:?}");
    let op_tail = tail(&tally.latencies_ms);
    match op_tail {
        Some(t) => println!(
            "op_tail_ms is p{:.1} of {} samples ({} beyond it)",
            t.percentile, t.samples, t.beyond
        ),
        None => println!(
            "op_tail_ms: {} samples, too few for a tail",
            tally.latencies_ms.len()
        ),
    }
    let lines = end_to_end(&EndToEnd {
        workload: W::NAME,
        setup_s: median(&seconds),
        latencies_ms: &tally.latencies_ms,
        tail: op_tail,
        peak_rss_mib: median(&rss),
        error_rate: tally.error_rate(),
        rate: (W::RATE, tally.rate()),
        prr_err_pp: last.as_ref().and_then(prr),
    });
    print!("{}", lines.render());
    finish(
        spot_failures.is_empty(),
        &tally,
        &lines,
        &GATED.map(|(name, _, _)| name),
    )
}

fn untraced(args: &Args, dir: &Path) -> Result<(), String> {
    print_header(args);
    match args.workload {
        Which::Power => measure(&PowerTable1::setup(), args, |tables| {
            Some(power_table1::prr_err_pp(&tables[0]))
        }),
        Which::Dense => {
            let workload = DenseSweep::setup(args.seed);
            let mut facts = Facts::new();
            workload.plan_counts(&mut facts);
            println!("sim: {}", counts(&facts));
            measure(&workload, args, |_| None)
        }
        Which::Campaign => measure(&CampaignBatch::setup(args.seed, dir), args, |_| None),
    }
}

fn counts(facts: &Facts) -> String {
    facts
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Prints the result object from `lines`, restricted to `names` (all of
/// which must be present), as the last line.
fn finish(checks_passed: bool, tally: &Tally, lines: &Lines, names: &[&str]) -> Result<(), String> {
    let metrics: Vec<_> = names
        .iter()
        .map(|name| {
            lines
                .metric(name)
                .cloned()
                .ok_or_else(|| format!("metric {name} was not produced"))
        })
        .collect::<Result<_, _>>()?;
    let failed = tally.failures.len();
    println!(
        "{}",
        result_json(
            checks_passed && failed == 0,
            tally.attempted,
            failed,
            &metrics
        )
    );
    Ok(())
}

/// What the traced run keeps of one workload's ops.
struct Sampled<O> {
    /// Median untraced op latency (the focused workload only).
    untraced_p50: Option<f64>,
    /// Serial-variant latencies (the focused workload only).
    serial_ms: Vec<f64>,
    /// The last traced op's output that passed its check.
    last: Option<O>,
}

/// Traced ops of one workload, checked against `reference`. The focused
/// workload (`focus` = its seconds) alternates untraced and traced ops
/// for that long and then runs its serial variant; the others run
/// [`SIDE_OPS`] traced ops, so every layer's spans exist in every run.
fn sample<W: Workload>(
    workload: &W,
    reference: &W::Output,
    tracer: &Tracer,
    focus: Option<u64>,
    tally: &mut Tally,
) -> Sampled<W::Output> {
    let mut untraced = Tally::default();
    let mut serial = Tally::default();
    let mut last = None;
    match focus {
        None => {
            for _ in 0..SIDE_OPS {
                last = tally.run(workload, reference, Some(tracer)).or(last);
            }
        }
        Some(seconds) => {
            let deadline = Instant::now() + std::time::Duration::from_secs(seconds);
            // Pairs alternate which side goes first (ABBA), so a position
            // effect does not show up as tracing overhead.
            let mut traced_first = false;
            while Instant::now() < deadline {
                if traced_first {
                    last = tally.run(workload, reference, Some(tracer)).or(last);
                }
                untraced.run(workload, reference, None);
                if !traced_first {
                    last = tally.run(workload, reference, Some(tracer)).or(last);
                }
                traced_first = !traced_first;
            }
            for _ in 0..SERIAL_RUNS {
                let start = Instant::now();
                let output = caught(|| workload.serial());
                let ms = start.elapsed().as_secs_f64() * 1e3;
                serial.record(workload, ms, output, reference);
            }
        }
    }
    let sampled = Sampled {
        untraced_p50: median(&untraced.latencies_ms),
        serial_ms: serial.latencies_ms.clone(),
        last,
    };
    tally.count(untraced);
    tally.count(serial);
    sampled
}

fn traced(args: &Args, dir: &Path) -> Result<(), String> {
    print_header(args);
    let tracer = Tracer::new();
    let power = PowerTable1::setup();
    let dense = DenseSweep::setup(args.seed);
    let batch = CampaignBatch::setup(args.seed, dir);
    println!(
        "per op: power_table1 {}; dense_sweep {}; campaign_batch {}",
        power.per_op(),
        dense.per_op(),
        batch.per_op()
    );
    caught(|| power.op(None))?;
    caught(|| dense.op(None))?;
    caught(|| batch.op(None))?;
    let power_ref = power.reference(Some(&tracer))?;
    let dense_ref = dense.reference(Some(&tracer))?;
    let batch_ref = batch.reference(Some(&tracer))?;

    let mut tally = Tally::default();
    let focus = |which| (args.workload == which).then_some(args.seconds);
    let power_ops = sample(&power, &power_ref, &tracer, focus(Which::Power), &mut tally);
    let dense_ops = sample(&dense, &dense_ref, &tracer, focus(Which::Dense), &mut tally);
    let batch_ops = sample(
        &batch,
        &batch_ref,
        &tracer,
        focus(Which::Campaign),
        &mut tally,
    );
    let (untraced_p50, serial_ms) = match args.workload {
        Which::Power => (power_ops.untraced_p50, power_ops.serial_ms),
        Which::Dense => (dense_ops.untraced_p50, dense_ops.serial_ms),
        Which::Campaign => (batch_ops.untraced_p50, batch_ops.serial_ms),
    };

    let mut facts = Facts::new();
    let probes = [
        (
            "core/sram/power",
            caught(|| power.probes(&tracer, &mut facts)),
        ),
        ("march", caught(|| dense.probes(&tracer, &mut facts))),
        (
            "campaign",
            caught(|| batch.probes(&tracer, &batch_ref, &mut facts)),
        ),
    ];
    let mut checks_passed = true;
    for (layer, result) in probes {
        if let Err(error) = result {
            println!("probe {layer} FAILED: {error}");
            checks_passed = false;
        }
    }
    checks_passed &= spot_checks(args.seed).is_empty();
    facts.insert(
        "sched.threads".to_string(),
        march_test::parallel::max_threads() as f64,
    );
    if let Some(output) = &batch_ops.last {
        for (name, value) in [
            ("campaign.executed", output.executed),
            ("campaign.retries", output.retries),
            ("campaign.poisoned", output.poisoned.len()),
        ] {
            facts.insert(name.to_string(), value as f64);
        }
    }
    for failure in &tally.failures {
        println!("op failed: {failure}");
    }

    let trace = tracer.finish();
    let dump = Path::new(WORK_ROOT).join(format!(
        "trace-{}-seed{}.tsv",
        name(args.workload),
        args.seed
    ));
    trace
        .write_tsv(&dump)
        .map_err(|e| format!("write {}: {e}", dump.display()))?;
    println!("spans: {} written to {}", trace.spans.len(), dump.display());

    let march: Facts = facts
        .iter()
        .filter(|(name, _)| name.starts_with("march.") && *name != "march.walk_rss_mib")
        .map(|(name, value)| (name.clone(), *value))
        .collect();
    println!("sim: {}", counts(&march));
    for sim in [
        power_ops.last.map(|out| power.describe(&out)),
        dense_ops.last.map(|out| dense.describe(&out)),
        batch_ops.last.as_ref().map(|out| batch.describe(out)),
    ]
    .into_iter()
    .flatten()
    {
        println!("sim: {sim}");
    }

    let op_span = format!("op.{}", name(args.workload));
    match (median(&trace.durations_ms(&op_span)), untraced_p50) {
        (Some(traced), Some(untraced)) => println!(
            "tracing overhead {}: traced op_p50_ms {traced} - untraced op_p50_ms {untraced} \
             = {} ms ({:+.2}%)",
            name(args.workload),
            traced - untraced,
            100.0 * (traced - untraced) / untraced
        ),
        _ => println!("tracing overhead {}: no passing ops", name(args.workload)),
    }
    let speedup = median(&serial_ms)
        .zip(untraced_p50)
        .map(|(serial, default)| serial / default);
    let lines = per_layer(&trace, &facts, speedup);
    print!("{}", lines.render());
    finish(
        checks_passed,
        &tally,
        &lines,
        &PER_LAYER.map(|(name, _, _)| name),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(&[
            "--workload",
            "dense_sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Which::Dense);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
        assert!(!args.setup_only);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload", "power_table1", "--trace", "2"],
            &["--workload", "power_table1", "--seed", "-1"],
            &["--workload", "power_table1", "--seed"],
            &["--workload", "power_table1", "--frobnicate", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
