//! Power-engine throughput measurement.
//!
//! The paper's central artifact is the cycle-accurate low-power pre-charge
//! engine behind `TestSession::run` and `reproduce_table1`. This module
//! measures how many clock cycles per second the rebuilt engine (shared
//! [`SchedulePlan`] arrays + the row-replay kernel + the parallel Table 1
//! harness) sustains, against a frozen replica of the seed
//! implementation, so the speedup is tracked as a number instead of a
//! claim. The `power_engine_bench` binary writes the result to
//! `BENCH_power_engine.json`.
//!
//! The baseline below deliberately preserves the seed's hot-path
//! structure: address sequences re-materialised per element through
//! `AddressOrder::sequence`, one freshly allocated [`CycleCommand`] (mask
//! `Vec` included) per clock cycle, every cycle executed on the analog
//! controller, and a strictly serial Table 1. Its one departure from the
//! seed is the engine's summation order: each row's cycle energies are
//! summed on their own, then the row sums are added in order. Before
//! anything is timed, the baseline outcomes are asserted **bit-identical**
//! to the rebuilt engine's (and the parallel Table 1 to the serial one) —
//! a benchmark of diverging engines would be meaningless.
//!
//! Mirroring the fault-sim sweep, the frozen seed replica is *capped* at
//! [`BASELINE_CELL_CAP`] cells (256×256): beyond that its serial
//! cycle-by-cycle loop would dominate the sweep's wall time, so larger
//! sizes record `baseline_skipped`, omit the baseline-relative metrics
//! and gate on `speedup_replay_vs_simulated` — the row-replay kernel
//! against the full simulation ([`TestSession::run_fully_simulated`]),
//! both serial, both current code, measured in the same process so the
//! ratio transfers across runner hardware. That is what makes the
//! 1024×1024 sweep entry affordable.
//!
//! [`SchedulePlan`]: lp_precharge::scheduler::SchedulePlan

use std::time::Instant;

use lp_precharge::engine::{SessionOutcome, TestSession};
use lp_precharge::mode::OperatingMode;
use lp_precharge::report::{paper_prr_for, reproduce_table1, reproduce_table1_serial};
use lp_precharge::scheduler::LpOptions;
use march_test::address_order::{AddressOrder, WordLineAfterWordLine};
use march_test::algorithm::MarchTest;
use march_test::library;
use march_test::operation::MarchOp;
use power_model::analytic::AnalyticPowerModel;
use power_model::calibration::CalibratedParameters;
use power_model::meter::PowerMeter;
use power_model::peak::PeakTracker;
use power_model::report::{ModeReport, Table1Row};
use sram_model::config::{ArrayOrganization, SramConfig};
use sram_model::controller::MemoryController;
use sram_model::energy::CycleEnergy;
use sram_model::error::SramError;
use sram_model::operation::{CycleCommand, MemOperation};

/// Runs one March test in one mode with the seed's schedule structure:
/// per-element address `Vec`s, one allocated command per cycle, full
/// cycle-by-cycle execution.
///
/// # Errors
///
/// Propagates any [`SramError`] from the memory model.
///
/// # Panics
///
/// Panics if the organization produces an empty address sequence.
pub fn baseline_run_session(
    config: &SramConfig,
    test: &MarchTest,
    mode: OperatingMode,
) -> Result<SessionOutcome, SramError> {
    let organization = *config.organization();
    let technology = *config.technology();
    let options = LpOptions::default();
    let order = WordLineAfterWordLine;

    // The seed scheduler: one materialised address sequence per element.
    let elements: Vec<(Vec<sram_model::address::Address>, Vec<MarchOp>)> = test
        .elements()
        .iter()
        .map(|element| {
            (
                order.sequence(&organization, element.direction()),
                element.ops().to_vec(),
            )
        })
        .collect();

    let mut controller = MemoryController::new(*config);
    let mut read_mismatches = 0u64;
    let mut unreliable_reads = 0u64;
    let mut peak = PeakTracker::new(technology.clock_period);
    let mut total = CycleEnergy::new();

    for (addresses, ops) in &elements {
        let mut row_sum = CycleEnergy::new();
        for (position, &address) in addresses.iter().enumerate() {
            let row = address.row(&organization);
            let col = address.col(&organization).value();
            let next_in_same_row = addresses
                .get(position + 1)
                .map(|a| a.row(&organization) == row)
                .unwrap_or(false);
            for (op_index, &op) in ops.iter().enumerate() {
                let mem_op = match op {
                    MarchOp::W0 => MemOperation::Write(false),
                    MarchOp::W1 => MemOperation::Write(true),
                    MarchOp::R0 | MarchOp::R1 => MemOperation::Read,
                };
                let command = if !mode.is_low_power() {
                    CycleCommand::functional(address, mem_op)
                } else if options.row_transition_restore
                    && op_index == ops.len() - 1
                    && !next_in_same_row
                {
                    CycleCommand::low_power_restore_all(address, mem_op)
                } else {
                    // The seed allocated the two-column mask afresh every
                    // cycle.
                    let mut columns = vec![col];
                    for ahead in 1..=options.lookahead_columns as usize {
                        if let Some(a) = addresses.get(position + ahead) {
                            if a.row(&organization) == row {
                                let c = a.col(&organization).value();
                                if !columns.contains(&c) {
                                    columns.push(c);
                                }
                            }
                        }
                    }
                    CycleCommand::low_power(address, mem_op, columns)
                };
                let outcome = controller.execute(command)?;
                row_sum.accumulate(&outcome.energy);
                peak.record_total(outcome.energy.total());
                if outcome.read_value.is_some() && !outcome.read_reliable {
                    unreliable_reads += 1;
                }
                if let (Some(expected), Some(observed)) = (op.expected_value(), outcome.read_value)
                {
                    if expected != observed {
                        read_mismatches += 1;
                    }
                }
            }
            if !next_in_same_row {
                total.accumulate(&row_sum);
                row_sum = CycleEnergy::new();
            }
        }
    }

    let mut meter = PowerMeter::new(technology.clock_period);
    meter.record_aggregate(&total, controller.cycles());
    let breakdown = meter.breakdown();
    let report = ModeReport::from_meter(&meter, &breakdown);
    let peak_to_average = peak.peak_to_average(report.average_power);
    Ok(SessionOutcome {
        mode,
        test_name: test.name().to_string(),
        report,
        breakdown,
        stress: controller.stress_report(),
        faulty_swaps: controller.total_faulty_swaps(),
        read_mismatches,
        unreliable_reads,
        peak_power: peak.peak_power(),
        peak_to_average,
    })
}

/// The seed's Table 1: strictly serial, one baseline session pair per
/// algorithm.
///
/// # Errors
///
/// Propagates any [`SramError`] from the memory model.
pub fn baseline_table1(config: &SramConfig) -> Result<Vec<Table1Row>, SramError> {
    library::table1_algorithms()
        .iter()
        .map(|test| {
            let functional = baseline_run_session(config, test, OperatingMode::Functional)?;
            let low_power = baseline_run_session(config, test, OperatingMode::LowPowerTest)?;
            let pf = functional.report.average_power.value();
            let plpt = low_power.report.average_power.value();
            let prr = if pf > 0.0 { 1.0 - plpt / pf } else { 0.0 };
            let analytic = AnalyticPowerModel::new(CalibratedParameters::derive(
                config.technology(),
                config.organization(),
            ));
            Ok(Table1Row {
                algorithm: test.name().to_string(),
                elements: test.element_count(),
                operations: test.operation_count(),
                reads: test.read_count(),
                writes: test.write_count(),
                prr_simulated_percent: prr * 100.0,
                prr_analytic_percent: analytic.power_reduction_ratio(test, config.organization())
                    * 100.0,
                prr_paper_percent: paper_prr_for(test.name()).unwrap_or(f64::NAN),
            })
        })
        .collect()
}

pub use crate::BASELINE_CELL_CAP;

/// Seconds and derived rate of one timed variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineTiming {
    /// Simulated clock cycles per second.
    pub cycles_per_sec: f64,
    /// Wall-clock seconds of one full Table 1 pass (averaged over the
    /// timed passes): all five algorithms in both operating modes.
    pub table1_seconds: f64,
}

/// The engine throughput comparison for one array organization.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerEngineSize {
    /// Array rows.
    pub rows: u32,
    /// Array columns.
    pub cols: u32,
    /// Clock cycles in one full Table 1 pass (all algorithms, both modes).
    pub cycles_per_pass: u64,
    /// The frozen seed-style engine; `None` above [`BASELINE_CELL_CAP`]
    /// cells, where the reference loop is skipped.
    pub baseline: Option<EngineTiming>,
    /// The rebuilt engine (schedule plan + row replay + parallel rows).
    pub engine: EngineTiming,
    /// The row-replay kernel run serially (one session per algorithm and
    /// mode through [`TestSession::run`]), the numerator of the
    /// machine-relative gate metric.
    pub replay_serial: EngineTiming,
    /// The full cycle-by-cycle simulation run serially
    /// ([`TestSession::run_fully_simulated`]) — the golden reference
    /// path, current code, measured at every size.
    pub simulated: EngineTiming,
}

impl PowerEngineSize {
    /// `true` when the frozen seed-style baseline was skipped for this
    /// size (above [`BASELINE_CELL_CAP`] cells).
    pub fn baseline_skipped(&self) -> bool {
        self.baseline.is_none()
    }

    /// Throughput gain of the rebuilt engine in simulated cycles/second,
    /// when the baseline replica was measured.
    pub fn speedup_cycles(&self) -> Option<f64> {
        self.baseline
            .map(|baseline| self.engine.cycles_per_sec / baseline.cycles_per_sec)
    }

    /// Wall-time gain of one full Table 1 reproduction, when the baseline
    /// replica was measured.
    pub fn speedup_table1(&self) -> Option<f64> {
        self.baseline
            .map(|baseline| baseline.table1_seconds / self.engine.table1_seconds)
    }

    /// Throughput gain of the serial row-replay kernel over the serial
    /// full simulation — the machine-relative metric measured at every
    /// size (including the ones whose seed replica is skipped), the
    /// analogue of the fault-sim sweep's `speedup_batched_vs_kernel`.
    pub fn speedup_replay_vs_simulated(&self) -> f64 {
        self.replay_serial.cycles_per_sec / self.simulated.cycles_per_sec
    }
}

/// The full sweep over array organizations.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerEngineThroughput {
    /// Names of the algorithms measured (the paper's Table 1 set).
    pub algorithms: Vec<String>,
    /// Timed passes per variant.
    pub passes: usize,
    /// Worker threads available to the parallel Table 1.
    pub threads: usize,
    /// One entry per organization, in sweep order.
    pub sizes: Vec<PowerEngineSize>,
}

impl PowerEngineThroughput {
    /// Renders the result as a JSON object (the workspace is offline and
    /// carries no serde, so the fields are formatted by hand).
    pub fn to_json(&self) -> String {
        let algorithms = self
            .algorithms
            .iter()
            .map(|name| format!("\"{name}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let sizes = self
            .sizes
            .iter()
            .map(|s| {
                let mut fields = vec![
                    format!("\"rows\": {}", s.rows),
                    format!("\"cols\": {}", s.cols),
                    format!("\"cycles_per_pass\": {}", s.cycles_per_pass),
                    format!("\"baseline_skipped\": {}", s.baseline_skipped()),
                ];
                if let Some(baseline) = s.baseline {
                    fields.push(format!(
                        "\"baseline_cycles_per_sec\": {:.1}",
                        baseline.cycles_per_sec
                    ));
                    fields.push(format!(
                        "\"baseline_table1_seconds\": {:.4}",
                        baseline.table1_seconds
                    ));
                }
                fields.push(format!(
                    "\"engine_cycles_per_sec\": {:.1}",
                    s.engine.cycles_per_sec
                ));
                fields.push(format!(
                    "\"engine_table1_seconds\": {:.4}",
                    s.engine.table1_seconds
                ));
                fields.push(format!(
                    "\"replay_serial_cycles_per_sec\": {:.1}",
                    s.replay_serial.cycles_per_sec
                ));
                fields.push(format!(
                    "\"simulated_cycles_per_sec\": {:.1}",
                    s.simulated.cycles_per_sec
                ));
                if let Some(speedup) = s.speedup_cycles() {
                    fields.push(format!("\"speedup_cycles\": {speedup:.2}"));
                }
                if let Some(speedup) = s.speedup_table1() {
                    fields.push(format!("\"speedup_table1\": {speedup:.2}"));
                }
                fields.push(format!(
                    "\"speedup_replay_vs_simulated\": {:.2}",
                    s.speedup_replay_vs_simulated()
                ));
                format!("    {{\n      {}\n    }}", fields.join(",\n      "))
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"benchmark\": \"power_engine\",\n  \"algorithms\": [{algorithms}],\n  \
             \"passes\": {},\n  \"threads\": {},\n  \"sizes\": [\n{sizes}\n  ]\n}}\n",
            self.passes, self.threads,
        )
    }
}

fn config_for(rows: u32, cols: u32) -> SramConfig {
    SramConfig::builder()
        .organization(ArrayOrganization::new(rows, cols).expect("valid organization"))
        .build()
        .expect("default technology is valid")
}

/// Asserts the engine paths reproduce each other bit for bit on
/// `config`: the row-replay kernel against the full simulation for every
/// algorithm and mode (always), every `SessionOutcome` against the frozen
/// seed baseline (up to [`BASELINE_CELL_CAP`] cells — beyond that the
/// replica is too slow to even verify), and the parallel Table 1 against
/// the serial one.
///
/// # Panics
///
/// Panics on any divergence — the benchmark numbers would be meaningless.
pub fn assert_engine_equivalence(config: &SramConfig) {
    let measure_baseline = config.organization().capacity() <= BASELINE_CELL_CAP;
    let session = TestSession::new(*config);
    for test in library::table1_algorithms() {
        for mode in [OperatingMode::Functional, OperatingMode::LowPowerTest] {
            let rebuilt = session.run(&test, mode).expect("rebuilt session runs");
            let simulated = session
                .run_fully_simulated(&test, mode, false)
                .expect("simulated session runs");
            assert_eq!(
                simulated,
                rebuilt,
                "{} {:?}: row-replay kernel diverged from the full simulation",
                test.name(),
                mode
            );
            if measure_baseline {
                let baseline =
                    baseline_run_session(config, &test, mode).expect("baseline session runs");
                assert_eq!(
                    baseline,
                    rebuilt,
                    "{} {:?}: rebuilt engine diverged from the seed baseline",
                    test.name(),
                    mode
                );
            }
        }
    }
    let parallel = reproduce_table1(config).expect("parallel table 1 runs");
    let serial = reproduce_table1_serial(config).expect("serial table 1 runs");
    assert_eq!(
        parallel, serial,
        "parallel Table 1 rows diverged from the serial path"
    );
}

/// One serial pass of all Table 1 algorithms in both modes through
/// `session`, on the row-replay kernel (`simulated == false`) or the full
/// cycle-by-cycle simulation (`simulated == true`).
fn serial_sessions_pass(session: &TestSession, simulated: bool) {
    for test in library::table1_algorithms() {
        for mode in [OperatingMode::Functional, OperatingMode::LowPowerTest] {
            let outcome = if simulated {
                session.run_fully_simulated(&test, mode, false)
            } else {
                session.run(&test, mode)
            };
            std::hint::black_box(outcome.expect("session runs"));
        }
    }
}

fn time_table1(passes: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up (also populates the shared schedule-plan cache)
    let start = Instant::now();
    for _ in 0..passes {
        run();
    }
    start.elapsed().as_secs_f64() / passes as f64
}

/// Measures baseline vs. rebuilt engine throughput on one organization.
/// The frozen seed replica is skipped above [`BASELINE_CELL_CAP`] cells.
///
/// # Panics
///
/// Panics if the organization is invalid or the engines diverge.
pub fn power_engine_size(rows: u32, cols: u32, passes: usize) -> PowerEngineSize {
    let config = config_for(rows, cols);
    assert_engine_equivalence(&config);

    let organization = *config.organization();
    let cycles_per_pass: u64 = library::table1_algorithms()
        .iter()
        .map(|test| 2 * test.total_operations(u64::from(organization.capacity())))
        .sum();
    let timing = |seconds: f64| EngineTiming {
        cycles_per_sec: cycles_per_pass as f64 / seconds,
        table1_seconds: seconds,
    };

    let baseline = (organization.capacity() <= BASELINE_CELL_CAP).then(|| {
        timing(time_table1(passes, || {
            std::hint::black_box(baseline_table1(&config).expect("baseline table 1"));
        }))
    });
    let engine_table1_seconds = time_table1(passes, || {
        std::hint::black_box(reproduce_table1(&config).expect("rebuilt table 1"));
    });
    let session = TestSession::new(config);
    let replay_serial_seconds = time_table1(passes, || serial_sessions_pass(&session, false));
    let simulated_seconds = time_table1(passes, || serial_sessions_pass(&session, true));

    PowerEngineSize {
        rows,
        cols,
        cycles_per_pass,
        baseline,
        engine: timing(engine_table1_seconds),
        replay_serial: timing(replay_serial_seconds),
        simulated: timing(simulated_seconds),
    }
}

/// Measures the full sweep: one [`PowerEngineSize`] per organization.
///
/// # Panics
///
/// Panics if any organization is invalid or any equivalence gate fails.
pub fn power_engine_throughput(sizes: &[(u32, u32)], passes: usize) -> PowerEngineThroughput {
    PowerEngineThroughput {
        algorithms: library::table1_algorithms()
            .iter()
            .map(|t| t.name().to_string())
            .collect(),
        passes,
        threads: march_test::parallel::max_threads(),
        sizes: sizes
            .iter()
            .map(|&(rows, cols)| power_engine_size(rows, cols, passes))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_the_rebuilt_engine_exactly() {
        // The full gate on a small array: every algorithm, both modes,
        // plus parallel-vs-serial Table 1.
        assert_engine_equivalence(&config_for(4, 8));
    }

    #[test]
    fn throughput_experiment_runs_and_reports_consistent_numbers() {
        let result = power_engine_throughput(&[(4, 8)], 1);
        assert_eq!(result.algorithms.len(), 5);
        assert_eq!(result.sizes.len(), 1);
        let size = &result.sizes[0];
        assert_eq!(size.cycles_per_pass, 2 * 74 * 32);
        assert!(!size.baseline_skipped(), "4x8 is far below the cap");
        assert!(size.baseline.unwrap().cycles_per_sec > 0.0);
        assert!(size.engine.cycles_per_sec > 0.0);
        assert!(size.replay_serial.cycles_per_sec > 0.0);
        assert!(size.simulated.cycles_per_sec > 0.0);
        assert!(size.speedup_cycles().is_some());
        assert!(size.speedup_replay_vs_simulated() > 0.0);
        let json = result.to_json();
        assert!(json.contains("\"benchmark\": \"power_engine\""));
        assert!(json.contains("\"baseline_skipped\": false"));
        assert!(json.contains("\"speedup_table1\""));
        assert!(json.contains("\"speedup_replay_vs_simulated\""));
        assert!(json.contains("March C-"));
    }

    #[test]
    fn skipped_baseline_omits_relative_metrics_from_the_json() {
        // Rendering is checked on a hand-built entry: actually measuring
        // a >256x256 array is the (timed) benchmark binary's job, not a
        // unit test's.
        let timing = |seconds: f64| EngineTiming {
            cycles_per_sec: 1000.0 / seconds,
            table1_seconds: seconds,
        };
        let result = PowerEngineThroughput {
            algorithms: vec!["March C-".into()],
            passes: 1,
            threads: 1,
            sizes: vec![PowerEngineSize {
                rows: 1024,
                cols: 1024,
                cycles_per_pass: 1000,
                baseline: None,
                engine: timing(0.5),
                replay_serial: timing(1.0),
                simulated: timing(20.0),
            }],
        };
        let size = &result.sizes[0];
        assert!(size.baseline_skipped());
        assert_eq!(size.speedup_cycles(), None);
        assert_eq!(size.speedup_table1(), None);
        assert!((size.speedup_replay_vs_simulated() - 20.0).abs() < 1e-9);
        let json = result.to_json();
        assert!(json.contains("\"baseline_skipped\": true"));
        assert!(!json.contains("\"baseline_cycles_per_sec\""));
        assert!(!json.contains("\"speedup_cycles\""));
        assert!(!json.contains("\"speedup_table1\""));
        assert!(json.contains("\"speedup_replay_vs_simulated\": 20.00"));
        assert!(json.contains("\"replay_serial_cycles_per_sec\""));
        assert!(json.contains("\"simulated_cycles_per_sec\""));
        crate::json::parse(&json).expect("sweep JSON parses");
    }
}
