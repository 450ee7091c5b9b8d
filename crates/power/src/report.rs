//! Serialisable experiment records.
//!
//! These types are the exchange format between the experiment engines and
//! the `repro` harness/`EXPERIMENTS.md`: one row of the Table 1
//! reproduction, the per-mode measurement behind it, and the formatted
//! table renderer.

use std::fmt;
use transient::units::{Joules, Watts};

use crate::breakdown::PowerBreakdown;
use crate::meter::PowerMeter;

/// Measurements of one March test run in one operating mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeReport {
    /// Total number of clock cycles executed.
    pub cycles: u64,
    /// Total energy of the run.
    pub total_energy: Joules,
    /// Average energy per cycle.
    pub energy_per_cycle: Joules,
    /// Average power per cycle.
    pub average_power: Watts,
    /// Share of the energy attributable to pre-charge activity.
    pub precharge_fraction: f64,
}

impl ModeReport {
    /// Builds the report from a finished meter and its breakdown, computing
    /// every derived quantity exactly once: the fields are plain values
    /// afterwards, so repeated accesses never re-derive them from the
    /// meter.
    pub fn from_meter(meter: &PowerMeter, breakdown: &PowerBreakdown) -> Self {
        Self {
            cycles: meter.cycles(),
            total_energy: meter.total_energy(),
            energy_per_cycle: meter.energy_per_cycle(),
            average_power: meter.average_power(),
            precharge_fraction: breakdown.precharge_fraction(),
        }
    }
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of March elements (`#elm`).
    pub elements: usize,
    /// Number of operations (`#oper`).
    pub operations: usize,
    /// Number of reads (`#read`).
    pub reads: usize,
    /// Number of writes (`#write`).
    pub writes: usize,
    /// Power reduction ratio measured by the cycle-accurate simulation, in
    /// percent.
    pub prr_simulated_percent: f64,
    /// Power reduction ratio predicted by the paper's analytic formula, in
    /// percent.
    pub prr_analytic_percent: f64,
    /// The value reported in the paper, in percent (for side-by-side
    /// comparison).
    pub prr_paper_percent: f64,
}

/// A full PRR comparison between the two modes for one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct PrrRecord {
    /// Algorithm name.
    pub algorithm: String,
    /// Functional-mode measurements.
    pub functional: ModeReport,
    /// Low-power-test-mode measurements.
    pub low_power: ModeReport,
    /// `1 − P_LPT / P_F` from the measured powers.
    pub prr: f64,
}

impl PrrRecord {
    /// PRR in percent.
    pub fn prr_percent(&self) -> f64 {
        self.prr * 100.0
    }
}

/// Renders a collection of [`Table1Row`]s in the layout of the paper's
/// Table 1 (plus the analytic and paper reference columns).
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>5} {:>6} {:>6} {:>7} {:>10} {:>10} {:>8}\n",
        "Algorithm", "#elm", "#oper", "#read", "#write", "PRR(sim)", "PRR(ana)", "paper"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:>5} {:>6} {:>6} {:>7} {:>9.1}% {:>9.1}% {:>7.1}%\n",
            row.algorithm,
            row.elements,
            row.operations,
            row.reads,
            row.writes,
            row.prr_simulated_percent,
            row.prr_analytic_percent,
            row.prr_paper_percent
        ));
    }
    out
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} elements, {} ops ({}r/{}w) — PRR sim {:.1}%, analytic {:.1}%, paper {:.1}%",
            self.algorithm,
            self.elements,
            self.operations,
            self.reads,
            self.writes,
            self.prr_simulated_percent,
            self.prr_analytic_percent,
            self.prr_paper_percent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transient::units::Seconds;

    fn mode(pj: f64) -> ModeReport {
        let energy = Joules::from_picojoules(pj);
        ModeReport {
            cycles: 100,
            total_energy: energy * 100.0,
            energy_per_cycle: energy,
            average_power: energy.over(Seconds::from_nanoseconds(3.0)),
            precharge_fraction: 0.5,
        }
    }

    #[test]
    fn prr_record_percent() {
        let record = PrrRecord {
            algorithm: "March C-".to_string(),
            functional: mode(73.0),
            low_power: mode(36.5),
            prr: 0.5,
        };
        assert!((record.prr_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let rows = vec![
            Table1Row {
                algorithm: "March C-".to_string(),
                elements: 6,
                operations: 10,
                reads: 5,
                writes: 5,
                prr_simulated_percent: 49.5,
                prr_analytic_percent: 50.1,
                prr_paper_percent: 47.3,
            },
            Table1Row {
                algorithm: "MATS+".to_string(),
                elements: 3,
                operations: 5,
                reads: 2,
                writes: 3,
                prr_simulated_percent: 48.2,
                prr_analytic_percent: 48.8,
                prr_paper_percent: 48.1,
            },
        ];
        let table = format_table1(&rows);
        assert!(table.contains("March C-"));
        assert!(table.contains("MATS+"));
        assert_eq!(table.lines().count(), 3);
        let line = rows[0].to_string();
        assert!(line.contains("PRR sim 49.5%"));
    }

    #[test]
    fn display_round_trips_the_key_figures() {
        let row = Table1Row {
            algorithm: "March SS".to_string(),
            elements: 6,
            operations: 22,
            reads: 13,
            writes: 9,
            prr_simulated_percent: 50.0,
            prr_analytic_percent: 50.5,
            prr_paper_percent: 50.0,
        };
        let line = row.to_string();
        assert!(line.starts_with("March SS: 6 elements, 22 ops (13r/9w)"));
        assert!(line.contains("analytic 50.5%"));
        assert_eq!(row.clone(), row);
    }
}
