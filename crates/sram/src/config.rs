//! Array organization, technology parameters and the `SramConfig` builder.
//!
//! The defaults reproduce the operating point of the paper's experimental
//! section: a 512×512 bit-oriented array in a 0.13 µm technology, 1.6 V
//! supply and a 3 ns clock cycle. The electrical parameters are first-order
//! values calibrated so that the model reproduces the paper's observable
//! behaviour:
//!
//! * a floating bit line is discharged by a selected cell in ≈ 9 clock
//!   cycles (Figure 6 of the paper),
//! * the bit-line capacitance dominates the cell node capacitance by two to
//!   three orders of magnitude (the faulty-swap condition of Figure 7), and
//! * the power removed by disabling the pre-charge of the unselected
//!   columns amounts to roughly half of the total test power (Table 1),
//!   with the remaining half lumped into the peripheral energy of a
//!   read/write operation (decoders, control, clock tree and I/O, which the
//!   paper's Spice testbench includes but does not itemize).

use crate::error::SramError;
use transient::units::{Amps, Farads, Joules, Ohms, Seconds, Volts};

/// Largest supported array side. [`ArrayOrganization::new`] also rejects
/// sides whose product `rows × cols` does not fit `u32`.
pub const MAX_DIMENSION: u32 = 65_536;

/// Number of rows and columns of the cell array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayOrganization {
    rows: u32,
    cols: u32,
}

impl ArrayOrganization {
    /// Creates an organization with `rows` word lines and `cols` bit-line
    /// pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidOrganization`] if either dimension is
    /// zero or larger than [`MAX_DIMENSION`], or if the capacity
    /// `rows × cols` exceeds `u32::MAX`.
    pub fn new(rows: u32, cols: u32) -> Result<Self, SramError> {
        if rows == 0 || cols == 0 {
            return Err(SramError::InvalidOrganization {
                rows,
                cols,
                reason: "rows and columns must be non-zero",
            });
        }
        if rows > MAX_DIMENSION || cols > MAX_DIMENSION {
            return Err(SramError::InvalidOrganization {
                rows,
                cols,
                reason: "dimension exceeds the supported maximum",
            });
        }
        if rows.checked_mul(cols).is_none() {
            return Err(SramError::InvalidOrganization {
                rows,
                cols,
                reason: "capacity exceeds u32::MAX cells",
            });
        }
        Ok(Self { rows, cols })
    }

    /// The 512×512 organization used in the paper's experiments.
    pub fn paper_512x512() -> Self {
        Self {
            rows: 512,
            cols: 512,
        }
    }

    /// Number of rows (word lines).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns (bit-line pairs).
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total number of cells.
    pub fn capacity(&self) -> u32 {
        self.rows * self.cols
    }
}

impl Default for ArrayOrganization {
    /// Defaults to the paper's 512×512 array.
    fn default() -> Self {
        Self::paper_512x512()
    }
}

/// First-order electrical and timing parameters of the memory.
///
/// All defaults are documented on [`TechnologyParams::default_013um`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyParams {
    /// Supply voltage.
    pub vdd: Volts,
    /// Clock period (one memory operation per clock cycle).
    pub clock_period: Seconds,
    /// Drawn feature size in micrometres (informational).
    pub feature_size_um: f64,
    /// Total capacitance of one bit line.
    pub bitline_capacitance: Farads,
    /// Capacitance of one cell storage node.
    pub cell_node_capacitance: Farads,
    /// Total capacitance of one word line (all gates it drives).
    pub wordline_capacitance: Farads,
    /// ON resistance of the pre-charge pull-up devices.
    pub precharge_resistance: Ohms,
    /// Cell read/discharge current through the access transistor while the
    /// word line is high.
    pub cell_read_current: Amps,
    /// Fraction of the clock cycle during which the word line is high (the
    /// operation phase of Figure 2 of the paper).
    pub wordline_duty: f64,
    /// Differential bit-line swing developed during a read before the sense
    /// amplifier fires.
    pub read_bitline_swing: Volts,
    /// Energy of one sense-amplifier evaluation.
    pub sense_amp_energy: Joules,
    /// Energy dissipated by the write driver pulling one bit line to ground.
    pub write_driver_energy: Joules,
    /// Lumped peripheral energy of a read operation (row/column decoders,
    /// control, clock tree, I/O) excluding the array contributions that the
    /// model tracks explicitly.
    pub periphery_read_energy: Joules,
    /// Lumped peripheral energy of a write operation.
    pub periphery_write_energy: Joules,
    /// Logic threshold used to interpret analog node voltages as bits.
    pub logic_threshold: Volts,
    /// Capacitance of the `LPtest` mode-select line (the paper notes it
    /// matches a word line because it spans the same columns).
    pub lptest_line_capacitance: Farads,
    /// Switched capacitance of one modified pre-charge control element
    /// (mux + NAND, ten transistors) — three orders of magnitude below a bit
    /// line per the paper.
    pub control_element_capacitance: Farads,
}

impl TechnologyParams {
    /// The calibrated 0.13 µm / 1.6 V / 3 ns operating point of the paper.
    ///
    /// Key derived figures with these values:
    /// * floating bit-line discharge rate ≈ 0.176 V per cycle → a full
    ///   1.6 V swing in ≈ 9 cycles (Figure 6);
    /// * bit-line to cell-node capacitance ratio = 128 (faulty swap);
    /// * RES replenishment energy per unselected column per cycle ≈ 72 fJ,
    ///   so the 510 unselected columns of the 512-column array account for
    ///   ≈ 37 pJ per cycle — roughly half of the total read/write energy,
    ///   matching the ≈ 50 % PRR of Table 1.
    pub fn default_013um() -> Self {
        Self {
            vdd: Volts(1.6),
            clock_period: Seconds::from_nanoseconds(3.0),
            feature_size_um: 0.13,
            bitline_capacitance: Farads::from_femtofarads(256.0),
            cell_node_capacitance: Farads::from_femtofarads(2.0),
            wordline_capacitance: Farads::from_femtofarads(307.0),
            precharge_resistance: Ohms(2_000.0),
            cell_read_current: Amps(30e-6),
            wordline_duty: 0.5,
            read_bitline_swing: Volts(0.15),
            sense_amp_energy: Joules::from_femtojoules(250.0),
            write_driver_energy: Joules::from_femtojoules(655.0),
            periphery_read_energy: Joules::from_picojoules(28.0),
            periphery_write_energy: Joules::from_picojoules(41.0),
            logic_threshold: Volts(0.8),
            lptest_line_capacitance: Farads::from_femtofarads(307.0),
            control_element_capacitance: Farads::from_femtofarads(2.0),
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidParameter`] naming the first parameter
    /// that is non-physical (non-positive capacitance, duty outside (0, 1],
    /// threshold outside the supply range, …).
    pub fn validate(&self) -> Result<(), SramError> {
        fn positive(name: &'static str, v: f64) -> Result<(), SramError> {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(SramError::InvalidParameter {
                    name,
                    reason: "must be a positive finite number",
                })
            }
        }
        positive("vdd", self.vdd.value())?;
        positive("clock_period", self.clock_period.value())?;
        positive("feature_size_um", self.feature_size_um)?;
        positive("bitline_capacitance", self.bitline_capacitance.value())?;
        positive("cell_node_capacitance", self.cell_node_capacitance.value())?;
        positive("wordline_capacitance", self.wordline_capacitance.value())?;
        positive("precharge_resistance", self.precharge_resistance.value())?;
        positive("cell_read_current", self.cell_read_current.value())?;
        positive("read_bitline_swing", self.read_bitline_swing.value())?;
        if !(self.wordline_duty > 0.0 && self.wordline_duty <= 1.0) {
            return Err(SramError::InvalidParameter {
                name: "wordline_duty",
                reason: "must lie in (0, 1]",
            });
        }
        if self.read_bitline_swing >= self.vdd {
            return Err(SramError::InvalidParameter {
                name: "read_bitline_swing",
                reason: "must be below the supply voltage",
            });
        }
        if !(self.logic_threshold.value() > 0.0 && self.logic_threshold < self.vdd) {
            return Err(SramError::InvalidParameter {
                name: "logic_threshold",
                reason: "must lie strictly between 0 and vdd",
            });
        }
        if self.sense_amp_energy.value() < 0.0
            || self.write_driver_energy.value() < 0.0
            || self.periphery_read_energy.value() < 0.0
            || self.periphery_write_energy.value() < 0.0
        {
            return Err(SramError::InvalidParameter {
                name: "energy",
                reason: "energy parameters must be non-negative",
            });
        }
        positive(
            "lptest_line_capacitance",
            self.lptest_line_capacitance.value(),
        )?;
        positive(
            "control_element_capacitance",
            self.control_element_capacitance.value(),
        )?;
        Ok(())
    }

    /// Bit-line voltage drop per clock cycle while a cell discharges a
    /// floating bit line (word line high for [`Self::wordline_duty`] of the
    /// cycle).
    pub fn floating_discharge_per_cycle(&self) -> Volts {
        let dq = self.cell_read_current.value() * self.clock_period.value() * self.wordline_duty;
        Volts(dq / self.bitline_capacitance.value())
    }

    /// Number of clock cycles for a floating bit line to discharge from
    /// `vdd` to (near) ground — the paper's "nearly nine clock cycles".
    pub fn floating_discharge_cycles(&self) -> f64 {
        self.vdd.value() / self.floating_discharge_per_cycle().value()
    }

    /// Energy drawn from the supply by one pre-charge circuit replenishing
    /// the RES droop of one unselected column during one cycle (the paper's
    /// `P_A` expressed as energy per cycle).
    pub fn res_replenish_energy(&self) -> Joules {
        let dt = self.clock_period.value() * self.wordline_duty;
        Joules(self.vdd.value() * self.cell_read_current.value() * dt)
    }

    /// Energy to restore one fully-discharged bit line to `vdd`
    /// (`C_bl · V_DD²`), the per-line cost of the row-transition restore.
    pub fn full_bitline_restore_energy(&self) -> Joules {
        Joules(self.bitline_capacitance.value() * self.vdd.value() * self.vdd.value())
    }

    /// Energy to restore the read swing on both bit lines after a read.
    pub fn read_restore_energy(&self) -> Joules {
        Joules(
            self.bitline_capacitance.value() * self.vdd.value() * self.read_bitline_swing.value(),
        )
    }

    /// Energy of one full word-line charge/discharge.
    pub fn wordline_energy(&self) -> Joules {
        Joules(self.wordline_capacitance.value() * self.vdd.value() * self.vdd.value())
    }

    /// Energy of charging the `LPtest` line once (paid once per row
    /// transition in low-power test mode).
    pub fn lptest_line_energy(&self) -> Joules {
        Joules(self.lptest_line_capacitance.value() * self.vdd.value() * self.vdd.value())
    }

    /// Energy of one modified pre-charge control element switching.
    pub fn control_element_energy(&self) -> Joules {
        Joules(self.control_element_capacitance.value() * self.vdd.value() * self.vdd.value())
    }
}

impl Default for TechnologyParams {
    fn default() -> Self {
        Self::default_013um()
    }
}

/// Full configuration of a simulated SRAM: organization + technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramConfig {
    organization: ArrayOrganization,
    technology: TechnologyParams,
}

impl SramConfig {
    /// Starts building a configuration.
    pub fn builder() -> SramConfigBuilder {
        SramConfigBuilder::default()
    }

    /// The paper's experimental configuration: 512×512, 0.13 µm defaults.
    pub fn paper_default() -> Self {
        Self {
            organization: ArrayOrganization::paper_512x512(),
            technology: TechnologyParams::default_013um(),
        }
    }

    /// A small configuration convenient for unit tests and examples.
    pub fn small_for_tests(rows: u32, cols: u32) -> Result<Self, SramError> {
        Ok(Self {
            organization: ArrayOrganization::new(rows, cols)?,
            technology: TechnologyParams::default_013um(),
        })
    }

    /// The array organization.
    pub fn organization(&self) -> &ArrayOrganization {
        &self.organization
    }

    /// The technology parameters.
    pub fn technology(&self) -> &TechnologyParams {
        &self.technology
    }
}

impl Default for SramConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`SramConfig`].
#[derive(Debug, Clone, Default)]
pub struct SramConfigBuilder {
    organization: Option<ArrayOrganization>,
    technology: Option<TechnologyParams>,
}

impl SramConfigBuilder {
    /// Sets the array organization (defaults to 512×512).
    pub fn organization(mut self, organization: ArrayOrganization) -> Self {
        self.organization = Some(organization);
        self
    }

    /// Sets the technology parameters (defaults to the calibrated 0.13 µm
    /// point).
    pub fn technology(mut self, technology: TechnologyParams) -> Self {
        self.technology = Some(technology);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the technology parameters fail
    /// [`TechnologyParams::validate`].
    pub fn build(self) -> Result<SramConfig, SramError> {
        let organization = self.organization.unwrap_or_default();
        let technology = self.technology.unwrap_or_default();
        technology.validate()?;
        Ok(SramConfig {
            organization,
            technology,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn organization_validation() {
        assert!(ArrayOrganization::new(0, 4).is_err());
        assert!(ArrayOrganization::new(4, 0).is_err());
        assert!(ArrayOrganization::new(MAX_DIMENSION + 1, 4).is_err());
        // The widest organization whose capacity fits u32, and one column
        // more, which overflows it.
        let widest = ArrayOrganization::new(MAX_DIMENSION, MAX_DIMENSION - 1).unwrap();
        assert_eq!(widest.capacity(), 4_294_901_760);
        assert!(ArrayOrganization::new(MAX_DIMENSION, MAX_DIMENSION).is_err());
        let org = ArrayOrganization::new(512, 512).unwrap();
        assert_eq!(org.capacity(), 262_144);
        assert_eq!(
            ArrayOrganization::default(),
            ArrayOrganization::paper_512x512()
        );
    }

    #[test]
    fn default_technology_is_valid_and_matches_paper_operating_point() {
        let t = TechnologyParams::default_013um();
        t.validate().unwrap();
        assert_eq!(t.vdd, Volts(1.6));
        assert!((t.clock_period.to_nanoseconds() - 3.0).abs() < 1e-12);
        assert!((t.feature_size_um - 0.13).abs() < 1e-12);
    }

    #[test]
    fn floating_discharge_takes_about_nine_cycles() {
        let t = TechnologyParams::default_013um();
        let cycles = t.floating_discharge_cycles();
        assert!(
            (8.0..10.5).contains(&cycles),
            "expected ~9 cycles, got {cycles}"
        );
    }

    #[test]
    fn res_energy_is_tens_of_femtojoules() {
        let t = TechnologyParams::default_013um();
        let e = t.res_replenish_energy().to_femtojoules();
        assert!((60.0..90.0).contains(&e), "got {e} fJ");
    }

    #[test]
    fn bitline_dominates_cell_node() {
        let t = TechnologyParams::default_013um();
        let ratio = t.bitline_capacitance.value() / t.cell_node_capacitance.value();
        assert!(
            ratio > 100.0,
            "need at least two orders of magnitude, got {ratio}"
        );
    }

    #[test]
    fn derived_energies_positive_and_ordered() {
        let t = TechnologyParams::default_013um();
        assert!(t.read_restore_energy() < t.full_bitline_restore_energy());
        assert!(t.control_element_energy() < t.res_replenish_energy());
        assert!(t.wordline_energy().value() > 0.0);
        assert!(t.lptest_line_energy().value() > 0.0);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let config = SramConfig::builder().build().unwrap();
        assert_eq!(config.organization().rows(), 512);
        let small = SramConfig::builder()
            .organization(ArrayOrganization::new(4, 8).unwrap())
            .build()
            .unwrap();
        assert_eq!(small.organization().capacity(), 32);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut t = TechnologyParams::default_013um();
        t.wordline_duty = 0.0;
        assert!(t.validate().is_err());

        let mut t = TechnologyParams::default_013um();
        t.vdd = Volts(0.0);
        assert!(t.validate().is_err());

        let mut t = TechnologyParams::default_013um();
        t.logic_threshold = Volts(2.0);
        assert!(t.validate().is_err());

        let mut t = TechnologyParams::default_013um();
        t.read_bitline_swing = Volts(1.7);
        assert!(t.validate().is_err());

        let mut t = TechnologyParams::default_013um();
        t.bitline_capacitance = Farads(0.0);
        assert!(SramConfig::builder().technology(t).build().is_err());
    }

    #[test]
    fn small_for_tests_helper() {
        let config = SramConfig::small_for_tests(4, 4).unwrap();
        assert_eq!(config.organization().capacity(), 16);
        assert!(SramConfig::small_for_tests(0, 4).is_err());
    }
}
