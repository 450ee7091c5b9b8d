//! How the power engine counts and sums, beyond the golden equality.
//!
//! Replay counts read mismatches on one bit per element and sums energy
//! per row, then per run. The golden tests cannot see either choice go
//! wrong: every Table 1 algorithm opens with `⇕(w0)`, so their mismatch
//! count is always zero, and equality with the full simulation says
//! nothing about how far both sums are from the exact one.

use sram_test_power::lp_precharge::prelude::*;
use sram_test_power::march_test::algorithm::MarchTest;
use sram_test_power::march_test::element::MarchElement;
use sram_test_power::march_test::library;
use sram_test_power::march_test::operation::MarchOp::{R0, R1, W0};
use sram_test_power::sram_model::config::{ArrayOrganization, SramConfig};
use sram_test_power::sram_model::controller::MemoryController;

fn config(rows: u32, cols: u32) -> SramConfig {
    SramConfig::builder()
        .organization(ArrayOrganization::new(rows, cols).unwrap())
        .build()
        .unwrap()
}

#[test]
fn replay_counts_read_mismatches_like_the_simulation() {
    // {⇑(r1); ⇓(w0,r1,r0)}: reads that disagree with either background.
    let test = MarchTest::new(
        "mismatching reads",
        vec![
            MarchElement::ascending(vec![R1]),
            MarchElement::descending(vec![W0, R1, R0]),
        ],
    );
    // The golden shapes: square, wide, tall, single-row, single-column.
    for (rows, cols) in [(4, 8), (8, 32), (1, 16), (16, 1), (3, 5)] {
        let session = TestSession::new(config(rows, cols));
        for mode in [OperatingMode::Functional, OperatingMode::LowPowerTest] {
            for background in [false, true] {
                let replayed = session
                    .run_with_background(&test, mode, background)
                    .unwrap();
                let simulated = session
                    .run_fully_simulated(&test, mode, background)
                    .unwrap();
                let label = format!("{rows}x{cols} {mode:?} background={background}");
                assert_eq!(replayed, simulated, "{label}");
                // r1 on a 0 background, then the r1 after w0 on every cell.
                let per_cell = if background { 1 } else { 2 };
                assert_eq!(
                    replayed.read_mismatches,
                    per_cell * u64::from(rows * cols),
                    "{label}"
                );
            }
        }
    }
}

/// Neumaier's compensated sum: a reference with an error bound
/// independent of the number of terms.
fn neumaier_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut compensation) = (0.0f64, 0.0f64);
    for value in values {
        let next = sum + value;
        compensation += if sum.abs() >= value.abs() {
            (sum - next) + value
        } else {
            (value - next) + sum
        };
        sum = next;
    }
    sum + compensation
}

#[test]
fn two_level_energy_sum_is_within_1e12_of_a_compensated_sum() {
    // 163,840 cycles: summed in cycle order, this total is off by about
    // 1.6e-12; summed per row, then per run, by about 1e-14.
    let config = config(128, 128);
    let test = library::march_c_minus();
    let mode = OperatingMode::LowPowerTest;

    let session_total = TestSession::new(config)
        .run(&test, mode)
        .unwrap()
        .report
        .total_energy
        .value();

    let mut controller = MemoryController::new(config);
    let reference = neumaier_sum(
        LowPowerSchedule::new(&test, *config.organization(), mode).map(|cycle| {
            controller
                .execute(cycle.command)
                .unwrap()
                .energy
                .total()
                .value()
        }),
    );

    let relative_error = ((session_total - reference) / reference).abs();
    assert!(
        relative_error <= 1e-12,
        "relative error {relative_error:e} against the compensated sum"
    );
}
