//! Shared experiment harness for the `repro` binary and the throughput
//! benchmarks.
//!
//! Every table and figure of the paper has a generator function here that
//! produces its data from the workspace crates; the `repro` binary prints
//! their output (and the side-by-side comparison with the paper's
//! reported numbers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod power_engine;
pub mod regression;
pub mod throughput;

/// Largest cell count (rows × cols) at which the frozen seed-style
/// baseline replicas are still measured: 256×256. Beyond it the
/// reference loops would dominate the sweeps' wall time, so larger
/// entries set `baseline_skipped`, omit the baseline-relative metrics
/// and gate on machine-relative current-code ratios instead
/// (`speedup_batched_vs_kernel` / `speedup_replay_vs_simulated`). Shared
/// by both benchmarks so their skip semantics can never desynchronize.
pub const BASELINE_CELL_CAP: u32 = 256 * 256;

use json::JsonValue;
use lp_precharge::prelude::*;
use lp_precharge::report::reproduce_table1;
use march_test::address_order::{AddressOrder, ColumnMajor, LinearOrder, WordLineAfterWordLine};
use march_test::algorithm::MarchTest;
use march_test::dof::verify_order_independence;
use march_test::faults::static_fault_list;
use march_test::library;
use power_model::analytic::AnalyticPowerModel;
use power_model::calibration::CalibratedParameters;
use power_model::report::Table1Row;
use sram_model::config::{ArrayOrganization, SramConfig, TechnologyParams};
use sram_model::error::SramError;
use transient::prelude::*;

/// The members every `BENCH_*.json` document opens with: its `benchmark`
/// name, the Table 1 algorithms each size runs, the passes per variant,
/// the worker threads available and one `sizes` entry per organization.
fn document_head(
    benchmark: &str,
    passes: usize,
    sizes: Vec<JsonValue>,
) -> Vec<(&'static str, JsonValue)> {
    let algorithms = library::table1_algorithms()
        .iter()
        .map(|test| test.name().into())
        .collect();
    vec![
        ("benchmark", benchmark.into()),
        ("algorithms", JsonValue::Array(algorithms)),
        ("passes", passes.into()),
        ("threads", march_test::parallel::max_threads().into()),
        ("sizes", JsonValue::Array(sizes)),
    ]
}

/// The paper's full-size experiment configuration (512×512, 0.13 µm).
pub fn paper_config() -> SramConfig {
    SramConfig::paper_default()
}

/// Experiment E1 — Table 1: PRR per March algorithm (simulated, analytic
/// and the paper's reference value).
pub fn table1(config: &SramConfig) -> Result<Vec<Table1Row>, SramError> {
    reproduce_table1(config)
}

/// One row of the Figure 2 reproduction: the pre-charge state of the
/// selected and an unselected column in each half of the clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig2Phase {
    /// Which half of the clock cycle the row describes.
    pub phase: &'static str,
    /// State of the selected column's pre-charge circuit.
    pub selected_column: &'static str,
    /// State of an unselected column's pre-charge circuit (functional
    /// mode).
    pub unselected_functional: &'static str,
    /// State of an uninvolved column's pre-charge circuit (low-power test
    /// mode).
    pub unselected_low_power: &'static str,
}

/// Experiment E2 — Figure 2: the pre-charge action during one clock cycle,
/// derived from the modified control element's truth table.
pub fn fig2_phases() -> Vec<Fig2Phase> {
    let element = PrechargeControlElement::new();
    // Selected column, operation phase: Pr high (off); restore phase: Pr low.
    let selected_op = element.precharge_enabled(ControlInputs {
        lp_test: false,
        pr: true,
        cs_prev: false,
        cs_own: true,
    });
    let selected_restore = element.precharge_enabled(ControlInputs {
        lp_test: false,
        pr: false,
        cs_prev: false,
        cs_own: true,
    });
    // Unselected column, functional mode: Pr low all cycle.
    let unselected_functional = element.precharge_enabled(ControlInputs {
        lp_test: false,
        pr: false,
        cs_prev: false,
        cs_own: false,
    });
    // Uninvolved column, low-power mode: previous column not selected.
    let unselected_lp = element.precharge_enabled(ControlInputs {
        lp_test: true,
        pr: false,
        cs_prev: false,
        cs_own: false,
    });
    let state = |on: bool, label_on: &'static str, label_off: &'static str| {
        if on {
            label_on
        } else {
            label_off
        }
    };
    vec![
        Fig2Phase {
            phase: "first half (operation)",
            selected_column: state(selected_op, "pre-charge ON", "pre-charge OFF — operation"),
            unselected_functional: state(
                unselected_functional,
                "pre-charge ON — RES",
                "pre-charge OFF",
            ),
            unselected_low_power: state(unselected_lp, "pre-charge ON — RES", "pre-charge OFF"),
        },
        Fig2Phase {
            phase: "second half (restoration)",
            selected_column: state(
                selected_restore,
                "pre-charge ON — BL restoration",
                "pre-charge OFF",
            ),
            unselected_functional: state(
                unselected_functional,
                "pre-charge ON — BL restoration",
                "pre-charge OFF",
            ),
            unselected_low_power: state(unselected_lp, "pre-charge ON", "pre-charge OFF"),
        },
    ]
}

/// Experiment E3 — Figure 6: the floating bit-line discharge waveform (one
/// sample per clock cycle) and the number of cycles to cross the logic
/// threshold / reach ground.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Data {
    /// The BL voltage, one sample per clock cycle.
    pub waveform: Waveform,
    /// Cycles until the line crosses the logic threshold.
    pub cycles_to_threshold: f64,
    /// Cycles until the line is (nearly) fully discharged.
    pub cycles_to_ground: f64,
    /// The complementary line's voltage (it stays at `V_DD`).
    pub blb_voltage: Volts,
}

/// Generates the Figure 6 data from the technology parameters.
pub fn fig6_discharge(technology: &TechnologyParams) -> Fig6Data {
    let clock = technology.clock_period;
    let step = technology.floating_discharge_per_cycle();
    let mut waveform = Waveform::new("BL (floating, selected cell stores 0)");
    let mut v = technology.vdd;
    for cycle in 0..=14u32 {
        waveform.push(Seconds(clock.value() * f64::from(cycle)), v);
        v = (v - step).max(Volts::ZERO);
    }
    let cycles_to_threshold = waveform
        .first_crossing(technology.logic_threshold, true)
        .map(|t| t.value() / clock.value())
        .unwrap_or(f64::NAN);
    Fig6Data {
        waveform,
        cycles_to_threshold,
        cycles_to_ground: technology.floating_discharge_cycles(),
        blb_voltage: technology.vdd,
    }
}

/// Experiment E4 — Figure 7: faulty swaps with and without the
/// row-transition restore cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig7Data {
    /// Faulty swaps observed when the restore cycle is disabled.
    pub swaps_without_restore: u64,
    /// Read mismatches observed when the restore cycle is disabled.
    pub mismatches_without_restore: u64,
    /// Faulty swaps observed with the paper's restore cycle.
    pub swaps_with_restore: u64,
    /// Read mismatches observed with the paper's restore cycle.
    pub mismatches_with_restore: u64,
}

/// Generates the Figure 7 data by running March C- on `config` in both
/// scheduler variants with the all-ones data background.
pub fn fig7_row_transition(config: &SramConfig) -> Result<Fig7Data, SramError> {
    let test = library::march_c_minus();
    let without = TestSession::new(*config)
        .with_options(LpOptions {
            row_transition_restore: false,
            ..LpOptions::default()
        })
        .run_with_background(&test, OperatingMode::LowPowerTest, true)?;
    let with =
        TestSession::new(*config).run_with_background(&test, OperatingMode::LowPowerTest, true)?;
    Ok(Fig7Data {
        swaps_without_restore: without.faulty_swaps,
        mismatches_without_restore: without.read_mismatches,
        swaps_with_restore: with.faulty_swaps,
        mismatches_with_restore: with.read_mismatches,
    })
}

/// Experiment E5 — the Section 5 per-source analysis: the breakdowns of one
/// algorithm in both modes.
pub fn power_breakdowns(
    config: &SramConfig,
    test: &MarchTest,
) -> Result<(SessionOutcome, SessionOutcome), SramError> {
    let session = TestSession::new(*config);
    let functional = session.run(test, OperatingMode::Functional)?;
    let low_power = session.run(test, OperatingMode::LowPowerTest)?;
    Ok((functional, low_power))
}

/// Experiment E6 — the degree-of-freedom check: `(algorithm, guaranteed
/// coverage preserved, coverage under the paper's order)`.
///
/// Runs on the march crate's throughput kernel: shared walks, early-exit
/// detection and a parallel fault sweep
/// ([`SweepOptions::fast`](march_test::coverage::SweepOptions::fast)).
/// The paper's word-line order is the first of the orders compared, so
/// its coverage is the report's.
pub fn dof_summary(organization: &ArrayOrganization) -> Vec<(String, bool, f64)> {
    let faults = static_fault_list(organization);
    let orders: Vec<&dyn AddressOrder> = vec![&WordLineAfterWordLine, &ColumnMajor, &LinearOrder];
    library::table1_algorithms()
        .iter()
        .map(|test| {
            let report = verify_order_independence(test, &orders, organization, &faults);
            (
                test.name().to_string(),
                report.guaranteed_coverage_preserved(),
                report.coverage(),
            )
        })
        .collect()
}

/// Experiment E7 — hardware overhead and timing impact of the modified
/// control logic.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadData {
    /// Transistors added per column.
    pub transistors_per_column: u32,
    /// Total transistors added for the configured array.
    pub total_transistors: u64,
    /// Added transistors as a fraction of the cell-array transistors.
    pub area_fraction: f64,
    /// Added pre-charge path delay in picoseconds.
    pub added_delay_ps: f64,
    /// Added delay as a fraction of the clock period.
    pub delay_fraction: f64,
}

/// Generates the E7 data for `config`.
pub fn overhead(config: &SramConfig) -> OverheadData {
    let controller = ModifiedPrechargeController::new(config.organization().cols());
    let timing = TimingImpact::with_defaults(config.technology());
    OverheadData {
        transistors_per_column: PrechargeControlElement::new().transistor_count(),
        total_transistors: controller.total_transistors(),
        area_fraction: controller.area_overhead_fraction(config.organization().rows()),
        added_delay_ps: timing.added_delay.to_picoseconds(),
        delay_fraction: timing.cycle_fraction,
    }
}

/// Ablation A1 — analytic PRR across array organisations for March C-.
pub fn ablation_array_size(technology: &TechnologyParams) -> Vec<(u32, u32, f64)> {
    let test = library::march_c_minus();
    [
        (64u32, 64u32),
        (128, 128),
        (256, 256),
        (512, 256),
        (512, 512),
        (512, 1024),
    ]
    .iter()
    .map(|&(rows, cols)| {
        let organization = ArrayOrganization::new(rows, cols).expect("static sizes are valid");
        let model =
            AnalyticPowerModel::new(CalibratedParameters::derive(technology, &organization));
        (
            rows,
            cols,
            model.power_reduction_ratio(&test, &organization),
        )
    })
    .collect()
}

/// Ablation A2 — sensitivity of the low-power energy to the number of
/// still-stressed cells α (the paper bounds it to 2 < α < 10): the extra
/// energy per cycle relative to the savings, for α in 2..=10.
pub fn ablation_alpha(
    technology: &TechnologyParams,
    organization: &ArrayOrganization,
) -> Vec<(u32, f64)> {
    let pa = technology.res_replenish_energy().value();
    let saved = (organization.cols() as f64 - 2.0) * pa;
    (2..=10u32)
        .map(|alpha| (alpha, (alpha as f64 * pa) / saved))
        .collect()
}

/// Ablation A3 — PRR sensitivity to the write/read energy ratio.
pub fn ablation_read_write_ratio(
    technology: &TechnologyParams,
    organization: &ArrayOrganization,
) -> Vec<(f64, f64)> {
    let test = library::march_c_minus();
    [1.0f64, 1.1, 1.2, 1.4, 1.6, 2.0]
        .iter()
        .map(|&ratio| {
            let mut parameters = CalibratedParameters::derive(technology, organization);
            parameters.pw = transient::units::Joules(parameters.pr.value() * ratio);
            let model = AnalyticPowerModel::new(parameters);
            (ratio, model.power_reduction_ratio(&test, organization))
        })
        .collect()
}

/// Extension A4 — the word-oriented PRR for several word widths.
pub fn word_oriented_sweep(
    technology: &TechnologyParams,
    organization: &ArrayOrganization,
) -> Vec<(u32, f64)> {
    let test = library::march_c_minus();
    let parameters = CalibratedParameters::derive(technology, organization);
    [1u32, 4, 8, 16, 32]
        .iter()
        .map(|&width| {
            let extension = WordOrientedExtension::new(parameters, width);
            (width, extension.power_reduction_ratio(&test, organization))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_phases_match_the_paper_diagram() {
        let phases = fig2_phases();
        assert_eq!(phases.len(), 2);
        assert!(phases[0].selected_column.contains("OFF"));
        assert!(phases[1].selected_column.contains("restoration"));
        assert!(phases[0].unselected_functional.contains("RES"));
        assert!(phases[0].unselected_low_power.contains("OFF"));
    }

    #[test]
    fn fig6_discharge_is_about_nine_cycles() {
        let data = fig6_discharge(&TechnologyParams::default_013um());
        assert!((8.0..10.5).contains(&data.cycles_to_ground));
        assert!(data.cycles_to_threshold < data.cycles_to_ground);
        assert!(data.waveform.len() > 10);
        assert_eq!(data.blb_voltage, Volts(1.6));
    }

    #[test]
    fn fig7_restore_cycle_removes_every_swap() {
        let config = SramConfig::small_for_tests(8, 32).unwrap();
        let data = fig7_row_transition(&config).unwrap();
        assert!(data.swaps_without_restore > 0);
        assert_eq!(data.swaps_with_restore, 0);
        assert_eq!(data.mismatches_with_restore, 0);
    }

    #[test]
    fn dof_summary_reports_all_algorithms_preserved() {
        let organization = ArrayOrganization::new(4, 4).unwrap();
        let summary = dof_summary(&organization);
        assert_eq!(summary.len(), 5);
        assert!(summary.iter().all(|(_, preserved, _)| *preserved));
    }

    #[test]
    fn overhead_matches_the_paper_quote() {
        let data = overhead(&paper_config());
        assert_eq!(data.transistors_per_column, 10);
        assert_eq!(data.total_transistors, 5_120);
        assert!(data.delay_fraction < 0.01);
    }

    #[test]
    fn ablations_produce_monotone_trends() {
        let technology = TechnologyParams::default_013um();
        let sizes = ablation_array_size(&technology);
        assert!(sizes.iter().all(|(_, _, prr)| (0.0..1.0).contains(prr)));
        // PRR grows with the column count: compare any two entries whose
        // column counts differ.
        for a in &sizes {
            for b in &sizes {
                if a.1 < b.1 {
                    assert!(a.2 < b.2, "{}x{} vs {}x{}", a.0, a.1, b.0, b.1);
                }
            }
        }
        let organization = ArrayOrganization::paper_512x512();
        let alpha = ablation_alpha(&technology, &organization);
        assert_eq!(alpha.len(), 9);
        assert!(alpha.iter().all(|(_, frac)| *frac < 0.03));
        let words = word_oriented_sweep(&technology, &organization);
        assert!(words.first().unwrap().1 > words.last().unwrap().1);
        let rw = ablation_read_write_ratio(&technology, &organization);
        assert_eq!(rw.len(), 6);
    }
}
