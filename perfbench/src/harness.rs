//! What every workload provides, and the closed loops that drive it.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::stats::TAIL_BEYOND;
use crate::trace::Tracer;

/// Exact values the probes read from the program (counts, sizes), keyed
/// by the per-layer metric or quantity they feed.
pub type Facts = BTreeMap<String, f64>;

/// One workload: an op, the same op on one thread, the reference its
/// output is checked against, and the work an op does.
pub trait Workload {
    /// What an op returns, reduced to what the check compares.
    type Output;

    /// The workload's name on the command line.
    const NAME: &'static str;

    /// Name of the workload's throughput metric (work units per second).
    const RATE: &'static str;

    /// One op. With a tracer, the same public calls under spans.
    fn op(&self, tracer: Option<&Tracer>) -> Result<Self::Output, String>;

    /// The op with one thread, for `sched.parallel_speedup`.
    fn serial(&self) -> Result<Self::Output, String>;

    /// The output every op must reproduce bit for bit; with a tracer, the
    /// calls it makes may be recorded as probes.
    fn reference(&self, _tracer: Option<&Tracer>) -> Result<Self::Output, String> {
        self.serial()
    }

    /// `Ok` when `output` equals `reference` bit for bit.
    fn check(&self, output: &Self::Output, reference: &Self::Output) -> Result<(), String>;

    /// Work units (cycles, faults, jobs) one op completed.
    fn work(&self, output: &Self::Output) -> f64;

    /// What one op does, for the run header.
    fn per_op(&self) -> String;

    /// The simulated statistics of an output, printed so that traced and
    /// untraced runs can be compared.
    fn describe(&self, output: &Self::Output) -> String;
}

/// Runs `f`, turning a panic into an error.
pub fn caught<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .map_or_else(|| "panic".to_string(), |m| format!("panic: {m}"))),
    }
}

/// Op outcomes: latencies of the ops that returned, and every failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops started.
    pub attempted: usize,
    /// Ops that returned `Err`, panicked or failed their check.
    pub failures: Vec<String>,
    /// Latency in milliseconds of every op that passed its check.
    pub latencies_ms: Vec<f64>,
    /// Work units completed by the ops that passed.
    pub work: f64,
}

impl Tally {
    /// Runs one op (untraced when `tracer` is `None`), times it and
    /// records it.
    pub fn run<W: Workload>(
        &mut self,
        workload: &W,
        reference: &W::Output,
        tracer: Option<&Tracer>,
    ) -> Option<W::Output> {
        let start = Instant::now();
        let output = caught(|| workload.op(tracer));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.record(workload, ms, output, reference)
    }

    /// Records an op that took `ms`; it passes when its output equals
    /// `reference`, and the passing output is returned.
    pub fn record<W: Workload>(
        &mut self,
        workload: &W,
        ms: f64,
        output: Result<W::Output, String>,
        reference: &W::Output,
    ) -> Option<W::Output> {
        self.attempted += 1;
        match output.and_then(|out| workload.check(&out, reference).map(|()| out)) {
            Ok(out) => {
                self.latencies_ms.push(ms);
                self.work += workload.work(&out);
                Some(out)
            }
            Err(error) => {
                self.failures.push(error);
                None
            }
        }
    }

    /// Adds `other`'s attempts and failures to this tally.
    pub fn count(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Failed ops over attempted ops.
    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// Work units per second over the passing ops' summed latency.
    pub fn rate(&self) -> f64 {
        self.work / (self.latencies_ms.iter().sum::<f64>() / 1e3)
    }
}

/// The closed loop: one client sends untraced ops back to back for
/// `seconds`, and for at least enough ops to have a tail. Each output is
/// checked after its op's timer stops; the last passing one is returned.
pub fn closed_loop<W: Workload>(
    workload: &W,
    reference: &W::Output,
    seconds: u64,
    tally: &mut Tally,
) -> Option<W::Output> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut last = None;
    while Instant::now() < deadline || tally.attempted <= TAIL_BEYOND {
        last = tally.run(workload, reference, None).or(last);
    }
    last
}
