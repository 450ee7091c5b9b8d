//! Power-engine throughput measurement.
//!
//! The paper's central artifact is the cycle-accurate low-power pre-charge
//! engine behind `TestSession::run` and `reproduce_table1`. This module
//! measures how many clock cycles per second the rebuilt engine (shared
//! [`SchedulePlan`] arrays + the row-replay kernel + the parallel Table 1
//! harness) sustains, against a frozen replica of the seed
//! implementation, so the speedup is tracked as a number instead of a
//! claim. [`power_engine_document`] measures the whole
//! `BENCH_power_engine.json` document, which the `power_engine_bench`
//! binary prints and writes; each `sizes` entry is one function that lists
//! its keys once, in the committed order, and computes its `speedup_*`
//! ratios from the measured times.
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

use crate::json::JsonValue;

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

/// The `sizes` entry of one organization. The times are seconds per
/// Table 1 pass (all algorithms in both modes) of the rebuilt engine, the
/// row-replay kernel run serially and the full cycle-by-cycle simulation
/// run serially; `baseline_seconds` is the seed replica's, `None` above
/// [`BASELINE_CELL_CAP`] cells, where the baseline-relative keys are left
/// out. `speedup_replay_vs_simulated`, both serial, both current code, is
/// the machine-relative ratio written at every size, the analogue of the
/// fault-sim sweep's `speedup_batched_vs_kernel`.
fn size_entry(
    (rows, cols): (u32, u32),
    cycles_per_pass: u64,
    baseline_seconds: Option<f64>,
    [engine_seconds, replay_seconds, simulated_seconds]: [f64; 3],
) -> JsonValue {
    let rate = |seconds: f64| cycles_per_pass as f64 / seconds;
    let (engine, replay, simulated) = (
        rate(engine_seconds),
        rate(replay_seconds),
        rate(simulated_seconds),
    );
    let mut members = vec![
        ("rows", rows.into()),
        ("cols", cols.into()),
        ("cycles_per_pass", cycles_per_pass.into()),
        ("baseline_skipped", baseline_seconds.is_none().into()),
    ];
    if let Some(seconds) = baseline_seconds {
        members.extend([
            ("baseline_cycles_per_sec", rate(seconds).into()),
            ("baseline_table1_seconds", seconds.into()),
        ]);
    }
    members.extend([
        ("engine_cycles_per_sec", engine.into()),
        ("engine_table1_seconds", engine_seconds.into()),
        ("replay_serial_cycles_per_sec", replay.into()),
        ("simulated_cycles_per_sec", simulated.into()),
    ]);
    if let Some(seconds) = baseline_seconds {
        members.extend([
            ("speedup_cycles", (engine / rate(seconds)).into()),
            ("speedup_table1", (seconds / engine_seconds).into()),
        ]);
    }
    members.push(("speedup_replay_vs_simulated", (replay / simulated).into()));
    JsonValue::object(members)
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

/// Measures baseline vs. rebuilt engine throughput on one organization
/// and returns its `sizes` entry. The frozen seed replica is skipped
/// above [`BASELINE_CELL_CAP`] cells.
///
/// # Panics
///
/// Panics if the organization is invalid or the engines diverge.
pub fn power_engine_size(rows: u32, cols: u32, passes: usize) -> JsonValue {
    let config = config_for(rows, cols);
    assert_engine_equivalence(&config);

    let organization = *config.organization();
    let cycles_per_pass: u64 = library::table1_algorithms()
        .iter()
        .map(|test| 2 * test.total_operations(u64::from(organization.capacity())))
        .sum();

    let baseline = (organization.capacity() <= BASELINE_CELL_CAP).then(|| {
        time_table1(passes, || {
            std::hint::black_box(baseline_table1(&config).expect("baseline table 1"));
        })
    });
    let engine_seconds = time_table1(passes, || {
        std::hint::black_box(reproduce_table1(&config).expect("rebuilt table 1"));
    });
    let session = TestSession::new(config);
    let replay_seconds = time_table1(passes, || serial_sessions_pass(&session, false));
    let simulated_seconds = time_table1(passes, || serial_sessions_pass(&session, true));

    size_entry(
        (rows, cols),
        cycles_per_pass,
        baseline,
        [engine_seconds, replay_seconds, simulated_seconds],
    )
}

/// Measures the whole `BENCH_power_engine.json` document: one `sizes`
/// entry per organization ([`power_engine_size`]).
///
/// # Panics
///
/// Panics if any organization is invalid or any equivalence gate fails.
pub fn power_engine_document(sizes: &[(u32, u32)], passes: usize) -> JsonValue {
    let sizes = sizes
        .iter()
        .map(|&(rows, cols)| power_engine_size(rows, cols, passes))
        .collect();
    JsonValue::object(crate::document_head("power_engine", passes, sizes))
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

    /// The committed `BENCH_power_engine.json`: every entry written here
    /// keeps its keys, in order.
    fn committed() -> JsonValue {
        crate::json::parse(include_str!("../../../BENCH_power_engine.json"))
            .expect("the committed baseline parses")
    }

    #[test]
    fn throughput_experiment_runs_and_reports_consistent_numbers() {
        let document = power_engine_document(&[(4, 8)], 1);
        let committed = committed();
        assert_eq!(document.keys(), committed.keys());
        assert_eq!(document["algorithms"], committed["algorithms"]);
        // 4x8 is far below the cap: the seed replica ran, as at 64x64.
        let entry = document.size_entry(4);
        assert_eq!(entry.keys(), committed.size_entry(64).keys());
        assert_eq!(entry["cycles_per_pass"].as_f64(), Some(2.0 * 74.0 * 32.0));
        entry.assert_positive_rates();
    }

    #[test]
    fn skipped_baseline_omits_relative_metrics_from_the_json() {
        // The entry is built from hand-written times: actually measuring
        // a >256x256 array is the (timed) benchmark binary's job, not a
        // unit test's.
        let entry = size_entry((1024, 1024), 1000, None, [0.5, 1.0, 20.0]);
        assert_eq!(entry.keys(), committed().size_entry(512).keys());
        assert_eq!(entry["baseline_skipped"], JsonValue::Bool(true));
        assert_eq!(entry["engine_cycles_per_sec"].as_f64(), Some(2000.0));
        assert_eq!(entry["engine_table1_seconds"].as_f64(), Some(0.5));
        assert_eq!(entry["replay_serial_cycles_per_sec"].as_f64(), Some(1000.0));
        assert_eq!(entry["simulated_cycles_per_sec"].as_f64(), Some(50.0));
        assert_eq!(entry["speedup_replay_vs_simulated"].as_f64(), Some(20.0));
    }
}
