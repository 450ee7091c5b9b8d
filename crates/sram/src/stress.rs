//! Read-equivalent-stress (RES) and corruption reporting.
//!
//! The paper quantifies two side effects of its technique besides power:
//! the number of cells still receiving a (full or reduced) RES per cycle —
//! the `α` parameter, between 2 and 10 in their Spice runs — and the
//! possibility of faulty swaps at row transitions. The
//! [`MemoryController`](crate::controller::MemoryController) counts RES
//! events as it executes cycles and takes the corrupted-cell count from
//! the cells' corruption flags; [`StressReport`] carries both so
//! experiments can assert on them.

/// Aggregated stress and corruption statistics over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StressReport {
    /// Total number of full read-equivalent stresses applied to any cell.
    pub full_res_events: u64,
    /// Total number of reduced read-equivalent stresses.
    pub reduced_res_events: u64,
    /// Number of cells currently flagged as corrupted by a faulty swap.
    pub corrupted_cells: u64,
    /// Number of cycles observed.
    pub cycles: u64,
}

impl StressReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average number of cells stressed (full + reduced RES) per cycle —
    /// directly comparable to the paper's `α` in low-power test mode and to
    /// `#cols − 1` in functional mode.
    pub fn stressed_cells_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.full_res_events + self.reduced_res_events) as f64 / self.cycles as f64
    }

    /// Average number of *full* RES events per cycle.
    pub fn full_res_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.full_res_events as f64 / self.cycles as f64
    }

    /// Returns `true` if no cell has been corrupted.
    pub fn is_corruption_free(&self) -> bool {
        self.corrupted_cells == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cycle_rates() {
        let report = StressReport {
            full_res_events: 100,
            reduced_res_events: 50,
            corrupted_cells: 0,
            cycles: 50,
        };
        assert!((report.stressed_cells_per_cycle() - 3.0).abs() < 1e-12);
        assert!((report.full_res_per_cycle() - 2.0).abs() < 1e-12);
        assert!(report.is_corruption_free());
    }

    #[test]
    fn empty_report_is_well_behaved() {
        let report = StressReport::new();
        assert_eq!(report.stressed_cells_per_cycle(), 0.0);
        assert_eq!(report.full_res_per_cycle(), 0.0);
        assert!(report.is_corruption_free());
    }

    #[test]
    fn corruption_detection() {
        let report = StressReport {
            corrupted_cells: 3,
            ..StressReport::new()
        };
        assert!(!report.is_corruption_free());
    }
}
