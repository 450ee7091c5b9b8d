//! Table 1 reproduction harness.
//!
//! Builds the rows of the paper's Table 1 — one per March algorithm — with
//! three PRR columns side by side: the cycle-accurate simulation, the
//! analytic formula and the value printed in the paper.

use sram_model::config::SramConfig;
use sram_model::error::SramError;

use march_test::algorithm::MarchTest;
use march_test::library;
use power_model::analytic::AnalyticPowerModel;
use power_model::calibration::CalibratedParameters;
use power_model::report::Table1Row;

use crate::engine::TestSession;

/// The PRR values printed in the paper's Table 1, in percent, keyed by
/// algorithm name.
pub fn paper_table1_reference() -> Vec<(&'static str, f64)> {
    vec![
        ("March C-", 47.3),
        ("March SS", 50.0),
        ("MATS+", 48.1),
        ("March SR", 49.5),
        ("March G", 50.5),
    ]
}

/// Looks up the paper's reported PRR for an algorithm, if it appears in
/// Table 1.
pub fn paper_prr_for(algorithm: &str) -> Option<f64> {
    paper_table1_reference()
        .into_iter()
        .find(|(name, _)| *name == algorithm)
        .map(|(_, prr)| prr)
}

/// Builds one Table 1 row for `test` on the given configuration, running
/// both the cycle-accurate simulation and the analytic model.
///
/// # Errors
///
/// Propagates any [`SramError`] from the memory model.
pub fn table1_row(config: &SramConfig, test: &MarchTest) -> Result<Table1Row, SramError> {
    let session = TestSession::new(*config);
    let record = session.compare(test)?;
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
        prr_simulated_percent: record.prr * 100.0,
        prr_analytic_percent: analytic.power_reduction_ratio(test, config.organization()) * 100.0,
        prr_paper_percent: paper_prr_for(test.name()).unwrap_or(f64::NAN),
    })
}

/// Reproduces the full Table 1 (the five algorithms of the paper) on the
/// given configuration, fanning the per-algorithm sessions out through
/// the workspace's [`sched`] worker pool ([`sched::map_chunks`]).
///
/// Every row is computed by an independent session, and the pool's
/// chunked fan-out concatenates per-chunk outputs in input order, so the
/// result is byte-identical to [`reproduce_table1_serial`] — same rows,
/// same order, same floating-point bits (asserted by the golden tests).
///
/// # Errors
///
/// Propagates any [`SramError`] from the memory model.
pub fn reproduce_table1(config: &SramConfig) -> Result<Vec<Table1Row>, SramError> {
    let tests = library::table1_algorithms();
    let threads = march_test::parallel::max_threads().min(tests.len());
    let rows = sched::map_chunks(&tests, threads, threads, |chunk| {
        chunk.iter().map(|test| table1_row(config, test)).collect()
    });
    assert_eq!(rows.len(), tests.len(), "one row per algorithm");
    rows.into_iter().collect()
}

/// The strictly serial Table 1 reproduction — the reference the parallel
/// path is compared against.
///
/// # Errors
///
/// Propagates any [`SramError`] from the memory model.
pub fn reproduce_table1_serial(config: &SramConfig) -> Result<Vec<Table1Row>, SramError> {
    library::table1_algorithms()
        .iter()
        .map(|test| table1_row(config, test))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_has_five_rows_in_the_expected_band() {
        let reference = paper_table1_reference();
        assert_eq!(reference.len(), 5);
        for (_, prr) in &reference {
            assert!((47.0..51.0).contains(prr));
        }
        assert_eq!(paper_prr_for("March C-"), Some(47.3));
        assert_eq!(paper_prr_for("March Z"), None);
    }

    #[test]
    fn table1_row_on_a_small_array_is_consistent() {
        // A small array keeps the unit test fast; the PRR is lower than the
        // paper's because fewer columns are switched off, but every column
        // of the row must still be internally consistent.
        let config = SramConfig::small_for_tests(8, 32).unwrap();
        let row = table1_row(&config, &library::mats_plus()).unwrap();
        assert_eq!(row.algorithm, "MATS+");
        assert_eq!(row.elements, 3);
        assert_eq!(row.operations, 5);
        assert_eq!(row.reads, 2);
        assert_eq!(row.writes, 3);
        assert!(row.prr_simulated_percent > 0.0);
        assert!(row.prr_analytic_percent > 0.0);
        assert!((row.prr_paper_percent - 48.1).abs() < 1e-9);
        // Simulation and analytic model agree within a few points even on
        // the small array.
        assert!(
            (row.prr_simulated_percent - row.prr_analytic_percent).abs() < 8.0,
            "simulated {} vs analytic {}",
            row.prr_simulated_percent,
            row.prr_analytic_percent
        );
    }
}
