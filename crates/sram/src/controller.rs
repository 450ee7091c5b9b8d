//! The memory controller: cycle-by-cycle execution engine.
//!
//! [`MemoryController`] wraps an [`SramArray`] together with the periphery
//! (decoders, sense amplifier, write driver) and executes one
//! [`CycleCommand`] per call to [`MemoryController::execute`]. Each call
//! models one 3 ns clock cycle of the paper's Figure 2 timing:
//!
//! 1. the address is decoded and the word line of the target row rises;
//! 2. the selected column performs its read or write while every other
//!    column of the row either undergoes a read-equivalent stress (its
//!    pre-charge circuit is enabled) or discharges its floating bit line
//!    (pre-charge disabled — the paper's low-power test mode);
//! 3. in the second half of the cycle the enabled pre-charge circuits
//!    restore their bit lines to `V_DD`.
//!
//! The controller detects faulty swaps when a word line rises onto columns
//! whose floating bit lines were discharged by the previous row (Figure 7
//! of the paper) and reports them in the [`CycleOutcome`], so the
//! verification experiments can demonstrate both the hazard and the fix.
//!
//! # Performance notes
//!
//! The controller is used to simulate full March tests on 512×512 arrays
//! (tens of millions of cycles), so the per-cycle work must not scale with
//! the number of columns. Two bookkeeping sets make the common cycles
//! cheap: `discharging` holds the columns whose floating bit lines are
//! still moving, and `not_precharged` holds every column whose bit lines
//! are away from `V_DD`. Both are [`ColumnSet`] bit masks and are walked
//! through one reused scratch buffer, so steady-state cycles perform no
//! heap allocation at all. The controller keeps no run-level energy
//! total: each cycle's [`CycleEnergy`] goes back to the caller, which
//! decides how to sum it. Full-array sweeps only happen when a word line
//! rises on a new row or when an all-columns restore executes — once per
//! row, exactly like the hardware. As a consequence the per-column
//! [`crate::precharge::PrechargeCircuit`] activity counters are only
//! updated for cycles with an explicit column mask (the low-power mode);
//! the all-columns functional path accounts pre-charge activity in the
//! aggregate cycle energies instead.

use transient::charge_share::node_flips;
use transient::units::Volts;

use crate::address::{Address, ColIndex, RowIndex};
use crate::array::SramArray;
use crate::colset::ColumnSet;
use crate::config::{ArrayOrganization, SramConfig, TechnologyParams};
use crate::decoder::AddressDecoder;
use crate::energy::CycleEnergy;
use crate::error::SramError;
use crate::operation::{CycleCommand, MemOperation, PrechargePolicy};
use crate::senseamp::SenseAmplifier;
use crate::stress::StressReport;
use crate::writedriver::WriteDriver;

/// Result of executing one clock cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleOutcome {
    /// Value returned by a read operation (`None` for writes).
    pub read_value: Option<bool>,
    /// Whether the sense amplifier considered the read reliable. Always
    /// `true` for writes.
    pub read_reliable: bool,
    /// Energy breakdown of the cycle.
    pub energy: CycleEnergy,
    /// Number of cells corrupted by faulty swaps during this cycle.
    pub faulty_swaps: u32,
    /// Number of columns whose pre-charge circuit was enabled.
    pub precharged_columns: u32,
    /// Whether this cycle selected a different row than the previous one.
    pub row_changed: bool,
}

/// The SRAM execution engine.
#[derive(Debug, Clone)]
pub struct MemoryController {
    array: SramArray,
    decoder: AddressDecoder,
    sense_amp: SenseAmplifier,
    write_driver: WriteDriver,
    cycle: u64,
    active_row: Option<RowIndex>,
    /// Columns whose bit lines are currently away from `V_DD`.
    not_precharged: ColumnSet,
    /// Columns whose floating bit lines are still being discharged by the
    /// active row's cell.
    discharging: ColumnSet,
    /// Columns enabled by the previous cycle's explicit mask (storage
    /// reused across cycles).
    prev_explicit_mask: Vec<u32>,
    /// Reused snapshot buffer for walking the column sets while the array
    /// is being mutated.
    scratch_cols: Vec<u32>,
    /// Whether the previous cycle used the all-columns policy.
    prev_policy_all: bool,
    /// RES event counters (`corrupted_cells` and `cycles` are filled in by
    /// [`Self::stress_report`]).
    stress: StressReport,
    total_faulty_swaps: u64,
}

impl MemoryController {
    /// Creates a controller around a freshly initialised array.
    pub fn new(config: SramConfig) -> Self {
        let array = SramArray::new(config);
        Self::with_array(array)
    }

    /// Creates a controller around an existing array (e.g. one pre-loaded
    /// with a data background or with injected faults).
    pub fn with_array(array: SramArray) -> Self {
        let decoder = AddressDecoder::new(array.organization());
        let cols = array.organization().cols();
        Self {
            array,
            decoder,
            sense_amp: SenseAmplifier::new(),
            write_driver: WriteDriver::new(),
            cycle: 0,
            active_row: None,
            not_precharged: ColumnSet::new(cols),
            discharging: ColumnSet::new(cols),
            prev_explicit_mask: Vec::new(),
            scratch_cols: Vec::new(),
            prev_policy_all: true,
            stress: StressReport::new(),
            total_faulty_swaps: 0,
        }
    }

    /// The array organization.
    pub fn organization(&self) -> &ArrayOrganization {
        self.array.organization()
    }

    /// The technology parameters.
    pub fn technology(&self) -> &TechnologyParams {
        self.array.config().technology()
    }

    /// Shared access to the underlying array.
    pub fn array(&self) -> &SramArray {
        &self.array
    }

    /// Mutable access to the underlying array (for fault injection or
    /// background loading between cycles).
    pub fn array_mut(&mut self) -> &mut SramArray {
        &mut self.array
    }

    /// Number of cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Aggregate stress/corruption statistics (cycle count included). The
    /// corrupted-cell count scans the whole array; [`Self::res_events`]
    /// reads the RES counters alone without it.
    pub fn stress_report(&self) -> StressReport {
        let mut report = self.stress;
        report.corrupted_cells = self.array.corrupted_cell_count();
        report.cycles = self.cycle;
        report
    }

    /// Full and reduced RES events applied so far, as `(full, reduced)`.
    pub fn res_events(&self) -> (u64, u64) {
        (self.stress.full_res_events, self.stress.reduced_res_events)
    }

    /// Total number of faulty swaps observed so far.
    pub fn total_faulty_swaps(&self) -> u64 {
        self.total_faulty_swaps
    }

    /// Convenience accessor: the stored value at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::AddressOutOfRange`] for an address outside the
    /// array.
    pub fn peek(&self, address: Address) -> Result<bool, SramError> {
        Ok(self.array.cell_at(address)?.value())
    }

    /// Convenience accessor: overwrite the stored value at `address`
    /// without modelling a write cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::AddressOutOfRange`] for an address outside the
    /// array.
    pub fn poke(&mut self, address: Address, value: bool) -> Result<(), SramError> {
        self.array.cell_at_mut(address)?.write(value);
        Ok(())
    }

    /// Executes one clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::AddressOutOfRange`] if the command addresses a
    /// cell outside the array.
    // Always inlined: callers sum the returned energy right away, and out of
    // line the outcome comes back as 8-byte stores that the caller's
    // vectorised 16-byte loads cannot forward from — a stall on every cycle.
    #[inline(always)]
    pub fn execute(&mut self, command: CycleCommand) -> Result<CycleOutcome, SramError> {
        let organization = *self.array.organization();
        let technology = *self.array.config().technology();
        let cols = organization.cols();

        let mut energy = CycleEnergy::new();
        let (decoded, decode_energy) =
            self.decoder
                .decode(command.address, &organization, &technology)?;
        energy.decoders = decode_energy;

        let row = decoded.row;
        let selected_col = decoded.col;
        let row_changed = self.active_row != Some(row);

        // The explicit column list of the low-power policy, `None` when every
        // column is enabled. Lists are tiny (two entries in the paper's
        // scheme), so membership tests are linear scans rather than a
        // per-cycle mask allocation.
        let explicit: Option<&[u32]> = match &command.precharge {
            PrechargePolicy::AllColumns => None,
            PrechargePolicy::Columns(list) => Some(list.as_slice()),
        };
        let enabled = |col: u32| explicit.is_none_or(|list| list.contains(&col));
        let enabled_count = explicit.map_or(cols, |list| {
            list.iter().filter(|&&c| c < cols).count() as u32
        });
        let policy_all = explicit.is_none();

        // --- Word line rises on (possibly) a new row -------------------
        let mut faulty_swaps = 0u32;
        if row_changed {
            faulty_swaps = self.handle_row_change(row, &technology);
            self.active_row = Some(row);
        }

        // --- Track which columns start floating this cycle -------------
        if !policy_all {
            if self.prev_policy_all {
                // Transition from an all-columns cycle: every column not in
                // the new mask starts floating from VDD.
                for col in 0..cols {
                    if !enabled(col) {
                        self.begin_floating(col, row);
                    }
                }
            } else {
                // Columns enabled last cycle but not this one start
                // floating from VDD (they were restored last cycle). The
                // previous mask is swapped into the scratch buffer so both
                // vectors keep their storage.
                self.scratch_cols.clear();
                std::mem::swap(&mut self.scratch_cols, &mut self.prev_explicit_mask);
                for i in 0..self.scratch_cols.len() {
                    let col = self.scratch_cols[i];
                    if !enabled(col) {
                        self.begin_floating(col, row);
                    }
                }
            }
        }

        // --- Stress and pre-charge activity on unselected columns ------
        if policy_all {
            // Functional behaviour: every unselected column of the active
            // row undergoes a full RES replenished by its pre-charge
            // circuit.
            let stressed = cols.saturating_sub(1) as u64;
            self.stress.full_res_events += stressed;
            energy.precharge_res = transient::units::Joules(
                technology.res_replenish_energy().value() * stressed as f64,
            );
            // Discharging columns are taken over by their pre-charge
            // circuits this cycle.
            self.discharging.clear();
        } else {
            // Low-power mode: enabled, unselected columns (the "next"
            // column) see a full RES and their bit lines are restored.
            for &col in explicit.unwrap_or(&[]) {
                if col == selected_col.0 || col >= cols {
                    continue;
                }
                self.stress.full_res_events += 1;
                energy.precharge_res += technology.res_replenish_energy();
                let pair = self.array.bitline_mut(ColIndex(col))?;
                energy.precharge_res += pair.restore(&technology);
                self.not_precharged.remove(col);
                self.discharging.remove(col);
                self.array
                    .precharge_mut(ColIndex(col))?
                    .set_enabled_for_cycle(true);
            }
            if let Ok(pc) = self.array.precharge_mut(selected_col) {
                pc.set_enabled_for_cycle(enabled(selected_col.0));
            }

            // Floating columns still above ground keep discharging and keep
            // (weakly) stressing their cells.
            self.scratch_cols.clear();
            self.discharging.collect_into(&mut self.scratch_cols);
            for i in 0..self.scratch_cols.len() {
                let col = self.scratch_cols[i];
                if col == selected_col.0 || enabled(col) {
                    continue;
                }
                let cell_value = self.array.cell(row, ColIndex(col))?.value();
                let pair = self.array.bitline_mut(ColIndex(col))?;
                let side = pair.float_discharge_by_cell(cell_value, &technology);
                self.stress.reduced_res_events += 1;
                if pair.side(side) <= Volts::ZERO {
                    self.discharging.remove(col);
                }
            }
        }

        // --- The selected column performs its operation ----------------
        let mut read_value = None;
        let mut read_reliable = true;
        {
            let cell_value = self.array.cell(row, selected_col)?.value();
            match command.op {
                MemOperation::Read => {
                    let pair = self.array.bitline_mut(selected_col)?;
                    // Pre-charge-based sensing requires both bit lines at
                    // V_DD *before* the word line rises — the paper's "the
                    // bit line restoration is needed for each following
                    // operation". A read on a column whose lines were left
                    // floating is flagged as unreliable.
                    let was_precharged =
                        pair.is_fully_precharged(technology.vdd, technology.read_bitline_swing);
                    pair.develop_read_swing(cell_value, &technology);
                    let outcome = self.sense_amp.sense(pair, &technology);
                    energy.sense_amp = outcome.energy;
                    // The data returned is the stored bit (the sense
                    // amplifier resolves the cell-driven differential); the
                    // reliability flag records marginal conditions.
                    read_value = Some(cell_value);
                    read_reliable = outcome.reliable && was_precharged;
                    energy.periphery = technology.periphery_read_energy;
                }
                MemOperation::Write(value) => {
                    let pair = self.array.bitline_mut(selected_col)?;
                    energy.write_driver = self.write_driver.drive(pair, value, &technology);
                    self.array.cell_mut(row, selected_col)?.write(value);
                    energy.periphery = technology.periphery_write_energy;
                }
            }
        }

        // --- Second half of the cycle: restorations --------------------
        let selected_enabled = enabled(selected_col.0);
        if selected_enabled {
            let pair = self.array.bitline_mut(selected_col)?;
            energy.precharge_selected = pair.restore(&technology);
            self.not_precharged.remove(selected_col.0);
            self.discharging.remove(selected_col.0);
        } else {
            // A scheduler that forgets to pre-charge the selected column
            // leaves its bit lines driven; track that.
            self.begin_floating(selected_col.0, row);
        }

        if policy_all {
            // Restore every column that had drifted away from VDD (the
            // row-transition restore of the low-power mode, or simply a
            // no-op in steady functional mode).
            self.scratch_cols.clear();
            self.not_precharged.collect_into(&mut self.scratch_cols);
            for i in 0..self.scratch_cols.len() {
                let col = self.scratch_cols[i];
                if col == selected_col.0 {
                    continue;
                }
                let pair = self.array.bitline_mut(ColIndex(col))?;
                energy.precharge_row_transition += pair.restore(&technology);
            }
            self.not_precharged.clear();
            self.discharging.clear();
        }

        // --- Fixed per-cycle contributions ------------------------------
        energy.wordline = technology.wordline_energy();
        if command.lp_test_mode {
            energy.control_logic = technology.control_element_energy();
            if policy_all {
                // The LPtest line toggles once per row-transition restore.
                energy.lptest_driver = technology.lptest_line_energy();
            }
        }

        // --- Bookkeeping -------------------------------------------------
        self.prev_policy_all = policy_all;
        self.prev_explicit_mask.clear();
        if let Some(list) = explicit {
            self.prev_explicit_mask
                .extend(list.iter().copied().filter(|&c| c < cols));
        }
        self.total_faulty_swaps += u64::from(faulty_swaps);
        self.cycle += 1;

        Ok(CycleOutcome {
            read_value,
            read_reliable,
            energy,
            faulty_swaps,
            precharged_columns: enabled_count,
            row_changed,
        })
    }

    /// Marks a column as floating from its current (restored) level and
    /// registers it for per-cycle discharge tracking.
    fn begin_floating(&mut self, col: u32, row: RowIndex) {
        self.not_precharged.insert(col);
        // Only track the column as actively discharging if the cell of the
        // active row still has headroom to pull its zero-side line down.
        if let (Ok(cell), Ok(pair)) = (
            self.array.cell(row, ColIndex(col)),
            self.array.bitline(ColIndex(col)),
        ) {
            let side = if cell.value() { pair.blb() } else { pair.bl() };
            if side > Volts::ZERO {
                self.discharging.insert(col);
            }
        }
        if let Ok(pc) = self.array.precharge_mut(ColIndex(col)) {
            pc.set_enabled_for_cycle(false);
        }
    }

    /// Handles the word line rising on a new row: discharged floating bit
    /// lines overwrite conflicting cells (the faulty swap of Figure 7).
    /// Returns the number of cells corrupted.
    fn handle_row_change(&mut self, new_row: RowIndex, technology: &TechnologyParams) -> u32 {
        let mut swaps = 0u32;
        let threshold = technology.logic_threshold;
        let cell_cap = technology.cell_node_capacitance;
        let bl_cap = technology.bitline_capacitance;
        let vdd = technology.vdd;

        self.scratch_cols.clear();
        self.not_precharged.collect_into(&mut self.scratch_cols);
        for i in 0..self.scratch_cols.len() {
            let col = self.scratch_cols[i];
            let Ok(cell) = self.array.cell(new_row, ColIndex(col)) else {
                continue;
            };
            let value = cell.value();
            let Ok(pair) = self.array.bitline(ColIndex(col)) else {
                continue;
            };
            // The high storage node of the cell contacts BL when the cell
            // stores 1 and BLB when it stores 0.
            let contacted = if value { pair.bl() } else { pair.blb() };
            if node_flips(cell_cap, vdd, bl_cap, contacted, threshold) {
                if let Ok(cell) = self.array.cell_mut(new_row, ColIndex(col)) {
                    cell.corrupt_to(!value);
                    swaps += 1;
                }
            }
            // The (possibly flipped) cell of the new row now drives the
            // floating pair; refresh the discharge tracking.
            let new_value = self
                .array
                .cell(new_row, ColIndex(col))
                .map(|c| c.value())
                .unwrap_or(value);
            if let Ok(pair) = self.array.bitline(ColIndex(col)) {
                let side = if new_value { pair.blb() } else { pair.bl() };
                if side > Volts::ZERO {
                    self.discharging.insert(col);
                } else {
                    self.discharging.remove(col);
                }
            }
        }
        swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(rows: u32, cols: u32) -> MemoryController {
        MemoryController::new(SramConfig::small_for_tests(rows, cols).unwrap())
    }

    fn addr(c: &MemoryController, row: u32, col: u32) -> Address {
        Address::from_row_col(RowIndex(row), ColIndex(col), c.organization())
    }

    #[test]
    fn functional_write_then_read_round_trip() {
        let mut c = controller(4, 4);
        let a = addr(&c, 1, 2);
        let w = c
            .execute(CycleCommand::functional(a, MemOperation::Write(true)))
            .unwrap();
        assert!(w.read_value.is_none());
        assert!(w.energy.write_driver.value() > 0.0);
        let r = c
            .execute(CycleCommand::functional(a, MemOperation::Read))
            .unwrap();
        assert_eq!(r.read_value, Some(true));
        assert!(r.read_reliable);
        assert!(r.energy.sense_amp.value() > 0.0);
        assert_eq!(c.cycles(), 2);
    }

    #[test]
    fn functional_mode_stresses_all_other_columns() {
        let mut c = controller(4, 8);
        let a = addr(&c, 0, 0);
        let out = c
            .execute(CycleCommand::functional(a, MemOperation::Read))
            .unwrap();
        assert_eq!(out.precharged_columns, 8);
        let report = c.stress_report();
        assert_eq!(report.full_res_events, 7);
        assert_eq!(c.res_events(), (7, 0));
        // RES replenishment energy scales with the stressed columns.
        let expected = c.technology().res_replenish_energy().value() * 7.0;
        assert!((out.energy.precharge_res.value() - expected).abs() < 1e-21);
    }

    #[test]
    fn low_power_mode_limits_precharge_to_listed_columns() {
        let mut c = controller(4, 8);
        let a = addr(&c, 0, 0);
        let out = c
            .execute(CycleCommand::low_power(a, MemOperation::Read, vec![0, 1]))
            .unwrap();
        assert_eq!(out.precharged_columns, 2);
        // Exactly one full RES (the "next" column).
        assert_eq!(c.stress_report().full_res_events, 1);
        // Low-power RES energy is far below the functional 7-column figure.
        assert!(out.energy.precharge_res < c.technology().res_replenish_energy() * 2.0);
    }

    #[test]
    fn floating_bitlines_discharge_over_cycles() {
        let mut c = controller(2, 8);
        // March across row 0 in LP mode; observe column 7's BL (cell stores
        // 0, so BL discharges).
        for col in 0..4u32 {
            let a = addr(&c, 0, col);
            c.execute(CycleCommand::low_power(
                a,
                MemOperation::Read,
                vec![col, col + 1],
            ))
            .unwrap();
        }
        let pair = c.array().bitline(ColIndex(7)).unwrap();
        let vdd = c.technology().vdd;
        assert!(pair.bl() < vdd, "column 7 BL should have discharged");
        assert_eq!(pair.blb(), vdd, "BLB stays high for a cell storing 0");
    }

    #[test]
    fn faulty_swap_occurs_without_row_transition_restore() {
        let mut c = controller(2, 8);
        // Row 0 stores 0s (default); row 1 column 5 stores 1.
        let victim = addr(&c, 1, 5);
        c.poke(victim, true).unwrap();
        // Sweep row 0 in LP mode long enough for distant columns to fully
        // discharge their BL (cells store 0 → BL goes low).
        for col in 0..8u32 {
            for _ in 0..2 {
                let a = addr(&c, 0, col);
                c.execute(CycleCommand::low_power(
                    a,
                    MemOperation::Read,
                    vec![col, col + 1],
                ))
                .unwrap();
            }
        }
        // Keep row 0 active a few more cycles so even the columns that were
        // pre-charged late in the sweep (like column 5) fully discharge.
        for _ in 0..10 {
            let a = addr(&c, 0, 0);
            c.execute(CycleCommand::low_power(a, MemOperation::Read, vec![0, 1]))
                .unwrap();
        }
        // Move to row 1 WITHOUT the all-columns restore: the discharged BL
        // of column 5 overwrites the stored 1.
        let out = c
            .execute(CycleCommand::low_power(
                addr(&c, 1, 0),
                MemOperation::Read,
                vec![0, 1],
            ))
            .unwrap();
        assert!(out.row_changed);
        assert!(out.faulty_swaps > 0, "expected at least one faulty swap");
        assert!(!c.peek(victim).unwrap(), "victim cell should have flipped");
        assert!(c.array().cell_at(victim).unwrap().is_corrupted());
    }

    #[test]
    fn row_transition_restore_prevents_faulty_swap() {
        let mut c = controller(2, 8);
        let victim = addr(&c, 1, 5);
        c.poke(victim, true).unwrap();
        for col in 0..8u32 {
            for _ in 0..2 {
                let a = addr(&c, 0, col);
                c.execute(CycleCommand::low_power(
                    a,
                    MemOperation::Read,
                    vec![col, col + 1],
                ))
                .unwrap();
            }
        }
        // The paper's fix: the last operation of the row re-enables every
        // pre-charge circuit for one cycle.
        let restore = c
            .execute(CycleCommand::low_power_restore_all(
                addr(&c, 0, 7),
                MemOperation::Read,
            ))
            .unwrap();
        assert!(restore.energy.precharge_row_transition.value() > 0.0);
        // Now the row transition is harmless.
        let out = c
            .execute(CycleCommand::low_power(
                addr(&c, 1, 0),
                MemOperation::Read,
                vec![0, 1],
            ))
            .unwrap();
        assert_eq!(out.faulty_swaps, 0);
        assert!(c.peek(victim).unwrap(), "victim cell must keep its 1");
        assert_eq!(c.total_faulty_swaps(), 0);
    }

    #[test]
    fn low_power_cycle_energy_is_well_below_functional() {
        let mut functional = controller(8, 64);
        let mut low_power = controller(8, 64);
        let mut e_f = 0.0;
        let mut e_lp = 0.0;
        for col in 0..32u32 {
            let a = addr(&functional, 0, col);
            e_f += functional
                .execute(CycleCommand::functional(a, MemOperation::Read))
                .unwrap()
                .energy
                .total()
                .value();
            e_lp += low_power
                .execute(CycleCommand::low_power(
                    a,
                    MemOperation::Read,
                    vec![col, col + 1],
                ))
                .unwrap()
                .energy
                .total()
                .value();
        }
        assert!(
            e_lp < e_f,
            "low-power mode should consume less: {e_lp} vs {e_f}"
        );
    }

    #[test]
    fn out_of_range_address_is_rejected() {
        let mut c = controller(2, 2);
        let bad = Address::new(4);
        assert!(matches!(
            c.execute(CycleCommand::functional(bad, MemOperation::Read)),
            Err(SramError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn peek_poke_round_trip() {
        let mut c = controller(2, 2);
        let a = addr(&c, 1, 1);
        assert!(!c.peek(a).unwrap());
        c.poke(a, true).unwrap();
        assert!(c.peek(a).unwrap());
        assert!(c.peek(Address::new(99)).is_err());
        assert!(c.poke(Address::new(99), false).is_err());
    }
}
