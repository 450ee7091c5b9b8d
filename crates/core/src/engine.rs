//! The test session engine: run a March test, meter the power, compute the
//! PRR.
//!
//! [`TestSession`] ties the workspace together: it builds the
//! cycle-accurate [`MemoryController`], lets the [`LowPowerSchedule`]
//! produce one [`sram_model::operation::CycleCommand`] per clock cycle,
//! feeds the per-cycle energies into a [`PowerMeter`] and reports the
//! run-level measurements the paper's Table 1 is built from.
//!
//! # The row-replay kernel
//!
//! Simulating every one of the ~6 million cycles of a 512×512 March G run
//! through the full analog controller is the slowest path in the
//! workspace. The standard schedule (row-transition restore enabled,
//! lookahead ≥ 1) makes it unnecessary: every row of an element starts
//! from the identical state — all bit lines restored to `V_DD` by the
//! row-transition restore cycle — and every per-cycle energy in the model
//! depends only on the *position within the row* and the *operation*,
//! never on the stored data (sense and write energies are
//! deficit/constant based, decode energy depends only on whether the
//! row/column changed, and discharge trajectories always start from
//! `V_DD`). Rows 1..R of an element are therefore cycle-for-cycle
//! identical, and row 0 differs only through the element-boundary decode
//! state.
//!
//! [`TestSession::run`] exploits this: it *rehearses* the first two row
//! groups of each element on the real [`MemoryController`] (priming the
//! controller with the previous element's final restore cycle so decode
//! boundaries are exact), and *replays* the rehearsed rows for the rest:
//!
//! * **Energy is summed in two levels on both paths.** The cycles of each
//!   (element, row) group are summed into a row sum, and the row sums are
//!   added to the run total in order. Rows 1..R of an element have
//!   identical cycles, hence identical row sums, so replay adds one
//!   rehearsed row sum per row and never touches a cycle. Blocked
//!   summation also has the smaller error bound (Higham, "The accuracy of
//!   floating point summation", SIAM J. Sci. Comput. 14(4), 1993).
//! * **The peak** is the largest rehearsed cycle: replayed rows repeat
//!   rehearsed ones, so the [`PeakTracker`] sees each rehearsed cycle once.
//! * **Read mismatches** are counted on one bit per element and multiplied
//!   by the cell count: every cell of the fault-free array starts from the
//!   same background and sees the same operations.
//! * **RES counts** are the controller's own counters, read around each
//!   rehearsed row.
//!
//! A session therefore costs about its rehearsal, and the replayed run
//! reproduces the fully simulated [`SessionOutcome`] bit for bit
//! (asserted by the golden tests and by the `power_engine_bench`
//! equivalence gate). Ablation schedules that disable the restore cycle
//! (where state genuinely leaks across rows) keep using the full
//! cycle-by-cycle simulation.

use sram_model::config::SramConfig;
use sram_model::controller::MemoryController;
use sram_model::energy::CycleEnergy;
use sram_model::error::SramError;
use sram_model::stress::StressReport;

use march_test::algorithm::MarchTest;
use march_test::element::AddressDirection;
use march_test::operation::MarchOp;
use power_model::breakdown::PowerBreakdown;
use power_model::meter::PowerMeter;
use power_model::peak::PeakTracker;
use power_model::report::{ModeReport, PrrRecord};
use transient::units::Watts;

use crate::mode::OperatingMode;
use crate::scheduler::{LowPowerSchedule, LpOptions, SchedulePlan};

/// Everything measured while running one March test in one operating mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The operating mode of the run.
    pub mode: OperatingMode,
    /// Name of the March test.
    pub test_name: String,
    /// Power/energy measurements.
    pub report: ModeReport,
    /// Per-source energy breakdown.
    pub breakdown: PowerBreakdown,
    /// RES/corruption statistics.
    pub stress: StressReport,
    /// Number of faulty swaps the controller observed.
    pub faulty_swaps: u64,
    /// Number of reads that returned a value different from the March
    /// expectation (zero on a fault-free memory when the schedule is
    /// correct).
    pub read_mismatches: u64,
    /// Number of reads the sense amplifier flagged as unreliable (e.g. when
    /// an ablated schedule forgets to pre-charge the selected column).
    pub unreliable_reads: u64,
    /// Power of the single most expensive clock cycle of the run.
    pub peak_power: Watts,
    /// Ratio between the peak cycle and the average cycle power.
    pub peak_to_average: f64,
}

impl SessionOutcome {
    /// `true` when every read matched its expectation and no cell was
    /// corrupted — the run is functionally indistinguishable from a
    /// functional-mode test.
    pub fn is_functionally_correct(&self) -> bool {
        self.read_mismatches == 0 && self.faulty_swaps == 0
    }
}

/// The measurements of one rehearsed row group: everything the replay
/// needs to reproduce a row bit for bit.
#[derive(Debug, Clone, Default)]
struct RowProfile {
    /// Sum of the row's cycle energies, in cycle order.
    energy: CycleEnergy,
    /// Reads flagged unreliable during the row group.
    unreliable_reads: u64,
    /// Full read-equivalent stresses applied during the row group.
    full_res_events: u64,
    /// Reduced read-equivalent stresses applied during the row group.
    reduced_res_events: u64,
}

/// Runs March tests on a configured SRAM in either operating mode.
#[derive(Debug, Clone)]
pub struct TestSession {
    config: SramConfig,
    options: LpOptions,
}

impl TestSession {
    /// Creates a session for the given memory configuration with the
    /// paper's default low-power options.
    pub fn new(config: SramConfig) -> Self {
        Self {
            config,
            options: LpOptions::default(),
        }
    }

    /// Creates a session for the paper's 512×512 / 0.13 µm configuration.
    pub fn paper_default() -> Self {
        Self::new(SramConfig::paper_default())
    }

    /// Overrides the low-power schedule options (ablation experiments).
    pub fn with_options(mut self, options: LpOptions) -> Self {
        self.options = options;
        self
    }

    /// The memory configuration of the session.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// The low-power options of the session.
    pub fn options(&self) -> &LpOptions {
        &self.options
    }

    /// Runs `test` in `mode` on a freshly initialised memory (all cells at
    /// `0`, all bit lines pre-charged).
    ///
    /// # Errors
    ///
    /// Propagates any [`SramError`] from the memory model; with a
    /// well-formed configuration this does not happen.
    pub fn run(&self, test: &MarchTest, mode: OperatingMode) -> Result<SessionOutcome, SramError> {
        self.run_with_background(test, mode, false)
    }

    /// Runs `test` in `mode` with every cell initialised to `background`
    /// before the test starts (data-background independence experiments).
    ///
    /// # Errors
    ///
    /// Propagates any [`SramError`] from the memory model.
    pub fn run_with_background(
        &self,
        test: &MarchTest,
        mode: OperatingMode,
        background: bool,
    ) -> Result<SessionOutcome, SramError> {
        // The row-replay kernel requires the state-isolation property of
        // the paper's schedule: with the row-transition restore and a
        // non-empty lookahead every row starts from fully restored bit
        // lines, so rows are cycle-identical and can be replayed. The
        // ablation schedules that break that property (the Figure 7
        // hazard) fall back to the full cycle-by-cycle simulation.
        if self.options.row_transition_restore && self.options.lookahead_columns >= 1 {
            self.run_replayed(test, mode, background)
        } else {
            self.run_simulated(test, mode, background)
        }
    }

    /// Runs the full cycle-by-cycle simulation unconditionally, bypassing
    /// the row-replay kernel. This is the reference path: the golden tests
    /// and the `power_engine_bench` equivalence gate assert that
    /// [`TestSession::run`] reproduces its [`SessionOutcome`] bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates any [`SramError`] from the memory model.
    pub fn run_fully_simulated(
        &self,
        test: &MarchTest,
        mode: OperatingMode,
        background: bool,
    ) -> Result<SessionOutcome, SramError> {
        self.run_simulated(test, mode, background)
    }

    /// The full cycle-by-cycle simulation: every command of the schedule
    /// is executed on the analog [`MemoryController`].
    fn run_simulated(
        &self,
        test: &MarchTest,
        mode: OperatingMode,
        background: bool,
    ) -> Result<SessionOutcome, SramError> {
        let mut controller = MemoryController::new(self.config);
        controller.array_mut().fill(background);
        let technology = *self.config.technology();

        let schedule =
            LowPowerSchedule::with_options(test, *self.config.organization(), mode, self.options);

        let mut read_mismatches = 0u64;
        let mut unreliable_reads = 0u64;
        let mut peak = PeakTracker::new(technology.clock_period);
        let mut total = CycleEnergy::new();
        let mut row_sum = CycleEnergy::new();
        for cycle in schedule {
            let outcome = controller.execute(cycle.command)?;
            row_sum.accumulate(&outcome.energy);
            peak.record_total(outcome.energy.total());
            if outcome.read_value.is_some() && !outcome.read_reliable {
                unreliable_reads += 1;
            }
            if let (Some(expected), Some(observed)) = (cycle.expected_read, outcome.read_value) {
                if expected != observed {
                    read_mismatches += 1;
                }
            }
            // Each (element, row) group of cycles is summed on its own
            // before it joins the run total, as replay sums it.
            if cycle.last_in_row {
                total.accumulate(&row_sum);
                row_sum = CycleEnergy::new();
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

    /// The row-replay kernel (see the module documentation): rehearses the
    /// first two row groups of each element on the real controller and
    /// replays the recorded row profiles for the remaining rows.
    fn run_replayed(
        &self,
        test: &MarchTest,
        mode: OperatingMode,
        background: bool,
    ) -> Result<SessionOutcome, SramError> {
        let organization = *self.config.organization();
        let technology = *self.config.technology();
        let rows = organization.rows() as usize;
        let cols = organization.cols() as usize;
        let plan = SchedulePlan::new(organization, self.options);

        // --- Rehearsal: record the first two row groups of each element.
        // One controller carries the analog state through the run; before
        // each element it is primed with the previous element's final
        // restore cycle so the decode/word-line boundary state at the
        // element start is exact.
        let mut controller = MemoryController::new(self.config);
        let mut peak = PeakTracker::new(technology.clock_period);
        let mut profiles: Vec<Vec<RowProfile>> = Vec::with_capacity(test.element_count());
        let mut last_cycle: Option<(AddressDirection, MarchOp, usize)> = None;
        for (element_index, element) in test.elements().iter().enumerate() {
            let (direction, ops) = (element.direction(), element.ops());
            let Some(&last_op) = ops.last() else {
                profiles.push(Vec::new());
                continue;
            };
            if let Some((prev_direction, prev_op, prev_element)) = last_cycle.take() {
                let prime = plan.cycle(
                    prev_direction,
                    plan.len() - 1,
                    prev_op,
                    true,
                    mode,
                    prev_element,
                );
                controller.execute(prime.command)?;
            }

            let rehearse_rows = rows.min(2);
            let mut element_profiles = Vec::with_capacity(rehearse_rows);
            for row in 0..rehearse_rows {
                let mut profile = RowProfile::default();
                let (full_before, reduced_before) = controller.res_events();
                for pos in row * cols..(row + 1) * cols {
                    for (op_index, &op) in ops.iter().enumerate() {
                        let cycle = plan.cycle(
                            direction,
                            pos,
                            op,
                            op_index == ops.len() - 1,
                            mode,
                            element_index,
                        );
                        let outcome = controller.execute(cycle.command)?;
                        profile.energy.accumulate(&outcome.energy);
                        peak.record_total(outcome.energy.total());
                        if outcome.read_value.is_some() && !outcome.read_reliable {
                            profile.unreliable_reads += 1;
                        }
                    }
                }
                let (full_after, reduced_after) = controller.res_events();
                profile.full_res_events = full_after - full_before;
                profile.reduced_res_events = reduced_after - reduced_before;
                element_profiles.push(profile);
            }
            profiles.push(element_profiles);
            last_cycle = Some((direction, last_op, element_index));
        }

        // --- Replay: add one rehearsed row sum per row, in the order the
        // full simulation adds its row sums.
        let mut total = CycleEnergy::new();
        let mut unreliable_reads = 0u64;
        let mut full_res_events = 0u64;
        let mut reduced_res_events = 0u64;
        for element_profiles in profiles.iter().filter(|p| !p.is_empty()) {
            for row in 0..rows {
                let profile = if row == 0 {
                    &element_profiles[0]
                } else {
                    &element_profiles[element_profiles.len() - 1]
                };
                total.accumulate(&profile.energy);
                unreliable_reads += profile.unreliable_reads;
                full_res_events += profile.full_res_events;
                reduced_res_events += profile.reduced_res_events;
            }
        }

        // One bit stands for every cell: each starts from `background` and
        // sees the same operations.
        let mut bit = background;
        let mut mismatches_per_cell = 0u64;
        for &op in test.elements().iter().flat_map(|element| element.ops()) {
            match op.write_value() {
                Some(value) => bit = value,
                None => mismatches_per_cell += u64::from(op.expected_value() != Some(bit)),
            }
        }
        let cells = u64::from(organization.capacity());
        let read_mismatches = mismatches_per_cell * cells;
        let cycles = test.total_operations(cells);

        let mut meter = PowerMeter::new(technology.clock_period);
        meter.record_aggregate(&total, cycles);
        let breakdown = meter.breakdown();
        let report = ModeReport::from_meter(&meter, &breakdown);
        let peak_to_average = peak.peak_to_average(report.average_power);
        Ok(SessionOutcome {
            mode,
            test_name: test.name().to_string(),
            report,
            breakdown,
            // The restore cycle guarantees no floating line survives a row
            // transition, so the replayed run is corruption free — exactly
            // like the simulated one (asserted by the golden tests).
            stress: StressReport {
                full_res_events,
                reduced_res_events,
                corrupted_cells: 0,
                cycles,
            },
            faulty_swaps: 0,
            read_mismatches,
            unreliable_reads,
            peak_power: peak.peak_power(),
            peak_to_average,
        })
    }

    /// Runs `test` in both modes and computes the measured Power Reduction
    /// Ratio `PRR = 1 − P_LPT / P_F`.
    ///
    /// # Errors
    ///
    /// Propagates any [`SramError`] from the memory model.
    pub fn compare(&self, test: &MarchTest) -> Result<PrrRecord, SramError> {
        let functional = self.run(test, OperatingMode::Functional)?;
        let low_power = self.run(test, OperatingMode::LowPowerTest)?;
        let pf = functional.report.average_power.value();
        let plpt = low_power.report.average_power.value();
        let prr = if pf > 0.0 { 1.0 - plpt / pf } else { 0.0 };
        Ok(PrrRecord {
            algorithm: test.name().to_string(),
            functional: functional.report,
            low_power: low_power.report,
            prr,
        })
    }
}

impl Default for TestSession {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use march_test::library;

    fn small_session() -> TestSession {
        TestSession::new(SramConfig::small_for_tests(8, 16).unwrap())
    }

    #[test]
    fn functional_run_is_correct_and_stresses_all_columns() {
        let session = small_session();
        let outcome = session
            .run(&library::mats_plus(), OperatingMode::Functional)
            .unwrap();
        assert!(outcome.is_functionally_correct());
        assert_eq!(outcome.report.cycles, 5 * 128);
        // Every cycle stresses cols-1 = 15 cells.
        assert!((outcome.stress.full_res_per_cycle() - 15.0).abs() < 1e-9);
        assert!(outcome.report.total_energy.value() > 0.0);
    }

    #[test]
    fn low_power_run_is_correct_and_saves_energy() {
        let session = small_session();
        let functional = session
            .run(&library::march_c_minus(), OperatingMode::Functional)
            .unwrap();
        let low_power = session
            .run(&library::march_c_minus(), OperatingMode::LowPowerTest)
            .unwrap();
        assert!(
            low_power.is_functionally_correct(),
            "no mismatches, no swaps"
        );
        assert!(
            low_power.report.total_energy < functional.report.total_energy,
            "LP mode must consume less energy"
        );
        // In LP mode only ~1 full RES per cycle (the next column).
        assert!(low_power.stress.full_res_per_cycle() < 2.0);
        assert!(functional.stress.full_res_per_cycle() > 10.0);
    }

    #[test]
    fn compare_produces_a_positive_prr() {
        let session = small_session();
        let record = session.compare(&library::mats_plus()).unwrap();
        assert!(record.prr > 0.0 && record.prr < 1.0);
        assert_eq!(record.algorithm, "MATS+");
        assert!(record.functional.average_power > record.low_power.average_power);
    }

    #[test]
    fn background_independence() {
        let session = small_session();
        for background in [false, true] {
            let outcome = session
                .run_with_background(
                    &library::march_c_minus(),
                    OperatingMode::LowPowerTest,
                    background,
                )
                .unwrap();
            assert!(
                outcome.is_functionally_correct(),
                "background {background} must not break the low-power test"
            );
        }
    }

    #[test]
    fn disabling_the_row_restore_breaks_correctness() {
        // The ablation that motivates the row-transition restore: without
        // it, discharged bit lines corrupt cells of the next row and reads
        // start failing (with the all-ones background the very first
        // element's reads already see it).
        let session = small_session().with_options(LpOptions {
            row_transition_restore: false,
            ..LpOptions::default()
        });
        let outcome = session
            .run_with_background(&library::march_c_minus(), OperatingMode::LowPowerTest, true)
            .unwrap();
        assert!(
            outcome.faulty_swaps > 0,
            "expected faulty swaps without the restore cycle"
        );
    }

    #[test]
    fn peak_power_is_tracked_and_exceeds_the_average() {
        let session = small_session();
        let functional = session
            .run(&library::march_c_minus(), OperatingMode::Functional)
            .unwrap();
        let low_power = session
            .run(&library::march_c_minus(), OperatingMode::LowPowerTest)
            .unwrap();
        assert!(functional.peak_power >= functional.report.average_power);
        assert!(low_power.peak_power >= low_power.report.average_power);
        assert!(functional.peak_to_average >= 1.0);
        // The low-power mode concentrates restoration into the
        // row-transition cycle, so its peak-to-average ratio is larger.
        assert!(low_power.peak_to_average > functional.peak_to_average);
        assert_eq!(functional.unreliable_reads, 0);
        assert_eq!(low_power.unreliable_reads, 0);
    }

    #[test]
    fn precharge_fraction_is_lower_in_low_power_mode() {
        let session = small_session();
        let functional = session
            .run(&library::mats_plus(), OperatingMode::Functional)
            .unwrap();
        let low_power = session
            .run(&library::mats_plus(), OperatingMode::LowPowerTest)
            .unwrap();
        assert!(
            low_power.report.precharge_fraction < functional.report.precharge_fraction,
            "removing pre-charge activity must reduce its share of the total"
        );
    }
}
