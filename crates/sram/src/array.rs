//! The cell array: cells, bit-line pairs and pre-charge circuits.
//!
//! [`SramArray`] owns the mutable electrical state of the memory — one
//! [`SramCell`] per bit, one [`BitLinePair`] and one [`PrechargeCircuit`]
//! per column — and provides direct, bounds-checked access to it. The
//! cycle-by-cycle behaviour (what happens to this state when an operation
//! executes) lives in [`crate::controller`]; keeping the two apart makes it
//! possible to inspect or perturb the array directly in tests and fault
//! experiments.

use crate::address::{Address, ColIndex, RowIndex};
use crate::bitline::BitLinePair;
use crate::cell::SramCell;
use crate::config::{ArrayOrganization, SramConfig};
use crate::error::SramError;
use crate::precharge::PrechargeCircuit;

/// Which columns have their pre-charge circuit enabled during a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrechargeMask {
    enabled: Vec<bool>,
}

impl PrechargeMask {
    /// A mask with every column enabled (functional mode).
    pub fn all(cols: u32) -> Self {
        Self {
            enabled: vec![true; cols as usize],
        }
    }

    /// A mask with no column enabled.
    pub fn none(cols: u32) -> Self {
        Self {
            enabled: vec![false; cols as usize],
        }
    }

    /// A mask with only the listed columns enabled. Columns outside the
    /// array are ignored.
    pub fn only(cols: u32, columns: &[u32]) -> Self {
        let mut enabled = vec![false; cols as usize];
        for &c in columns {
            if (c as usize) < enabled.len() {
                enabled[c as usize] = true;
            }
        }
        Self { enabled }
    }

    /// Number of columns covered by the mask.
    pub fn len(&self) -> usize {
        self.enabled.len()
    }

    /// Returns `true` if the mask covers no column.
    pub fn is_empty(&self) -> bool {
        self.enabled.is_empty()
    }

    /// Whether column `col` is enabled.
    pub fn is_enabled(&self, col: u32) -> bool {
        self.enabled.get(col as usize).copied().unwrap_or(false)
    }

    /// Number of enabled columns.
    pub fn enabled_count(&self) -> u32 {
        self.enabled.iter().filter(|&&e| e).count() as u32
    }

    /// Iterates over the enabled column indices.
    pub fn enabled_columns(&self) -> impl Iterator<Item = u32> + '_ {
        self.enabled
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| if e { Some(i as u32) } else { None })
    }
}

/// The complete electrical state of the memory array.
#[derive(Debug, Clone, PartialEq)]
pub struct SramArray {
    config: SramConfig,
    cells: Vec<SramCell>,
    bitlines: Vec<BitLinePair>,
    precharge: Vec<PrechargeCircuit>,
}

impl SramArray {
    /// Creates an array with every cell initialised to `0` and every bit
    /// line pre-charged to `V_DD`.
    pub fn new(config: SramConfig) -> Self {
        let capacity = config.organization().capacity() as usize;
        let cols = config.organization().cols() as usize;
        let vdd = config.technology().vdd;
        Self {
            config,
            cells: vec![SramCell::default(); capacity],
            bitlines: vec![BitLinePair::precharged(vdd); cols],
            precharge: vec![PrechargeCircuit::new(); cols],
        }
    }

    /// The configuration the array was built with.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// The array organization.
    pub fn organization(&self) -> &ArrayOrganization {
        self.config.organization()
    }

    fn cell_index(&self, row: RowIndex, col: ColIndex) -> Result<usize, SramError> {
        let org = self.organization();
        if row.0 >= org.rows() {
            return Err(SramError::IndexOutOfRange {
                what: "row",
                index: row.0,
                limit: org.rows(),
            });
        }
        if col.0 >= org.cols() {
            return Err(SramError::IndexOutOfRange {
                what: "column",
                index: col.0,
                limit: org.cols(),
            });
        }
        Ok((row.0 * org.cols() + col.0) as usize)
    }

    /// Shared access to the cell at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::IndexOutOfRange`] for coordinates outside the
    /// array.
    pub fn cell(&self, row: RowIndex, col: ColIndex) -> Result<&SramCell, SramError> {
        let idx = self.cell_index(row, col)?;
        Ok(&self.cells[idx])
    }

    /// Mutable access to the cell at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::IndexOutOfRange`] for coordinates outside the
    /// array.
    pub fn cell_mut(&mut self, row: RowIndex, col: ColIndex) -> Result<&mut SramCell, SramError> {
        let idx = self.cell_index(row, col)?;
        Ok(&mut self.cells[idx])
    }

    /// Shared access to a cell by its linear address.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::AddressOutOfRange`] for an address outside the
    /// array.
    pub fn cell_at(&self, address: Address) -> Result<&SramCell, SramError> {
        if !address.is_valid(self.organization()) {
            return Err(SramError::AddressOutOfRange {
                address,
                capacity: self.organization().capacity(),
            });
        }
        Ok(&self.cells[address.value() as usize])
    }

    /// Mutable access to a cell by its linear address.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::AddressOutOfRange`] for an address outside the
    /// array.
    pub fn cell_at_mut(&mut self, address: Address) -> Result<&mut SramCell, SramError> {
        if !address.is_valid(self.organization()) {
            return Err(SramError::AddressOutOfRange {
                address,
                capacity: self.organization().capacity(),
            });
        }
        Ok(&mut self.cells[address.value() as usize])
    }

    /// Shared access to the bit-line pair of column `col`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::IndexOutOfRange`] for a column outside the
    /// array.
    pub fn bitline(&self, col: ColIndex) -> Result<&BitLinePair, SramError> {
        self.check_col(col)?;
        Ok(&self.bitlines[col.0 as usize])
    }

    /// Mutable access to the bit-line pair of column `col`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::IndexOutOfRange`] for a column outside the
    /// array.
    pub fn bitline_mut(&mut self, col: ColIndex) -> Result<&mut BitLinePair, SramError> {
        self.check_col(col)?;
        Ok(&mut self.bitlines[col.0 as usize])
    }

    /// Shared access to the pre-charge circuit of column `col`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::IndexOutOfRange`] for a column outside the
    /// array.
    pub fn precharge(&self, col: ColIndex) -> Result<&PrechargeCircuit, SramError> {
        self.check_col(col)?;
        Ok(&self.precharge[col.0 as usize])
    }

    /// Mutable access to the pre-charge circuit of column `col`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::IndexOutOfRange`] for a column outside the
    /// array.
    pub fn precharge_mut(&mut self, col: ColIndex) -> Result<&mut PrechargeCircuit, SramError> {
        self.check_col(col)?;
        Ok(&mut self.precharge[col.0 as usize])
    }

    fn check_col(&self, col: ColIndex) -> Result<(), SramError> {
        if col.0 >= self.organization().cols() {
            return Err(SramError::IndexOutOfRange {
                what: "column",
                index: col.0,
                limit: self.organization().cols(),
            });
        }
        Ok(())
    }

    /// Writes `value` into every cell without modelling the write cycles
    /// (used to establish a data background before an experiment).
    pub fn fill(&mut self, value: bool) {
        for cell in &mut self.cells {
            cell.write(value);
        }
    }

    /// Writes a checkerboard background: cell `(row, col)` holds
    /// `(row + col) % 2 == 0 ? base : !base`.
    pub fn fill_checkerboard(&mut self, base: bool) {
        let cols = self.organization().cols();
        for (idx, cell) in self.cells.iter_mut().enumerate() {
            let row = idx as u32 / cols;
            let col = idx as u32 % cols;
            let v = if (row + col).is_multiple_of(2) {
                base
            } else {
                !base
            };
            cell.write(v);
        }
    }

    /// Restores every bit-line pair to `V_DD` without accounting energy
    /// (used to initialise experiments).
    pub fn restore_all_bitlines(&mut self) {
        let tech = *self.config.technology();
        for pair in &mut self.bitlines {
            let _ = pair.restore(&tech);
        }
    }

    /// Number of cells currently flagged as corrupted by a faulty swap.
    pub fn corrupted_cell_count(&self) -> u64 {
        self.cells.iter().filter(|c| c.is_corrupted()).count() as u64
    }

    /// Iterates over all cells together with their physical coordinates.
    pub fn iter_cells(&self) -> impl Iterator<Item = (RowIndex, ColIndex, &SramCell)> {
        let cols = self.organization().cols();
        self.cells.iter().enumerate().map(move |(idx, cell)| {
            (
                RowIndex(idx as u32 / cols),
                ColIndex(idx as u32 % cols),
                cell,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transient::units::Volts;

    fn small() -> SramArray {
        SramArray::new(SramConfig::small_for_tests(4, 8).unwrap())
    }

    #[test]
    fn new_array_is_zeroed_and_precharged() {
        let array = small();
        assert_eq!(array.organization().capacity(), 32);
        for (_, _, cell) in array.iter_cells() {
            assert!(!cell.value());
        }
        for c in 0..8 {
            let pair = array.bitline(ColIndex(c)).unwrap();
            assert_eq!(pair.bl(), Volts(1.6));
            assert!(array.precharge(ColIndex(c)).unwrap().is_enabled());
        }
    }

    #[test]
    fn cell_access_by_coordinates_and_address() {
        let mut array = small();
        array
            .cell_mut(RowIndex(2), ColIndex(3))
            .unwrap()
            .write(true);
        let addr = Address::from_row_col(RowIndex(2), ColIndex(3), array.organization());
        assert!(array.cell_at(addr).unwrap().value());
        array.cell_at_mut(addr).unwrap().write(false);
        assert!(!array.cell(RowIndex(2), ColIndex(3)).unwrap().value());
    }

    #[test]
    fn out_of_range_access_is_rejected() {
        let mut array = small();
        assert!(array.cell(RowIndex(4), ColIndex(0)).is_err());
        assert!(array.cell(RowIndex(0), ColIndex(8)).is_err());
        assert!(array.cell_at(Address::new(32)).is_err());
        assert!(array.bitline(ColIndex(8)).is_err());
        assert!(array.precharge_mut(ColIndex(9)).is_err());
    }

    #[test]
    fn fill_patterns() {
        let mut array = small();
        array.fill(true);
        assert!(array.iter_cells().all(|(_, _, c)| c.value()));
        array.fill_checkerboard(false);
        assert!(!array.cell(RowIndex(0), ColIndex(0)).unwrap().value());
        assert!(array.cell(RowIndex(0), ColIndex(1)).unwrap().value());
        assert!(array.cell(RowIndex(1), ColIndex(0)).unwrap().value());
        assert!(!array.cell(RowIndex(1), ColIndex(1)).unwrap().value());
    }

    #[test]
    fn corrupted_cell_count_tracks_swaps_and_writes() {
        let mut array = small();
        array
            .cell_mut(RowIndex(1), ColIndex(1))
            .unwrap()
            .corrupt_to(true);
        assert_eq!(array.corrupted_cell_count(), 1);
        array.fill(false);
        assert_eq!(array.corrupted_cell_count(), 0);
    }

    #[test]
    fn precharge_mask_constructors() {
        let all = PrechargeMask::all(8);
        assert_eq!(all.enabled_count(), 8);
        assert!(all.is_enabled(7));
        assert!(!all.is_empty());

        let none = PrechargeMask::none(8);
        assert_eq!(none.enabled_count(), 0);

        let some = PrechargeMask::only(8, &[1, 3, 99]);
        assert_eq!(some.enabled_count(), 2);
        assert!(some.is_enabled(1));
        assert!(some.is_enabled(3));
        assert!(!some.is_enabled(0));
        let cols: Vec<u32> = some.enabled_columns().collect();
        assert_eq!(cols, vec![1, 3]);
        assert_eq!(some.len(), 8);
    }

    #[test]
    fn restore_all_bitlines_resets_voltages() {
        let mut array = small();
        let tech = *array.config().technology();
        array
            .bitline_mut(ColIndex(0))
            .unwrap()
            .drive_write(true, &tech);
        assert_eq!(array.bitline(ColIndex(0)).unwrap().blb(), Volts::ZERO);
        array.restore_all_bitlines();
        assert_eq!(array.bitline(ColIndex(0)).unwrap().blb(), Volts(1.6));
    }
}
