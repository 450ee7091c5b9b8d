//! Energy accumulation over a run.

use sram_model::energy::CycleEnergy;
use transient::units::{Joules, Seconds, Watts};

use crate::breakdown::PowerBreakdown;

/// Accumulates per-cycle energy records and reports run-level statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMeter {
    clock_period: Seconds,
    cycles: u64,
    total: CycleEnergy,
}

impl PowerMeter {
    /// Creates a meter for a memory clocked at `clock_period`.
    ///
    /// # Panics
    ///
    /// Panics if the clock period is not strictly positive.
    pub fn new(clock_period: Seconds) -> Self {
        assert!(clock_period.value() > 0.0, "clock period must be positive");
        Self {
            clock_period,
            cycles: 0,
            total: CycleEnergy::new(),
        }
    }

    /// Records the energy of one executed cycle.
    pub fn record(&mut self, energy: &CycleEnergy) {
        self.total.accumulate(energy);
        self.cycles += 1;
    }

    /// Records an already-aggregated energy total covering `cycles` cycles
    /// (used when the caller sums the cycles itself, row by row).
    pub fn record_aggregate(&mut self, energy: &CycleEnergy, cycles: u64) {
        self.total.accumulate(energy);
        self.cycles += cycles;
    }

    /// Number of cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The clock period the meter was configured with.
    pub fn clock_period(&self) -> Seconds {
        self.clock_period
    }

    /// Total energy over the run.
    pub fn total_energy(&self) -> Joules {
        self.total.total()
    }

    /// The aggregated per-source record.
    pub fn aggregate(&self) -> &CycleEnergy {
        &self.total
    }

    /// Average energy per clock cycle.
    pub fn energy_per_cycle(&self) -> Joules {
        if self.cycles == 0 {
            return Joules::ZERO;
        }
        self.total.total() / self.cycles as f64
    }

    /// Average power per clock cycle — the quantity the paper's `P_F` and
    /// `P_LPT` denote.
    pub fn average_power(&self) -> Watts {
        if self.cycles == 0 {
            return Watts::ZERO;
        }
        self.energy_per_cycle().over(self.clock_period)
    }

    /// Per-source breakdown of the accumulated energy.
    pub fn breakdown(&self) -> PowerBreakdown {
        PowerBreakdown::from_energy(&self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(pj_periphery: f64, pj_res: f64) -> CycleEnergy {
        let mut e = CycleEnergy::new();
        e.periphery = Joules::from_picojoules(pj_periphery);
        e.precharge_res = Joules::from_picojoules(pj_res);
        e
    }

    #[test]
    fn accumulates_cycles_and_energy() {
        let mut meter = PowerMeter::new(Seconds::from_nanoseconds(3.0));
        meter.record(&cycle(2.0, 1.0));
        meter.record(&cycle(4.0, 1.0));
        assert_eq!(meter.cycles(), 2);
        assert!((meter.total_energy().to_picojoules() - 8.0).abs() < 1e-9);
        assert!((meter.energy_per_cycle().to_picojoules() - 4.0).abs() < 1e-9);
        // 4 pJ / 3 ns = 1.333 mW
        assert!((meter.average_power().to_milliwatts() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_record() {
        let mut meter = PowerMeter::new(Seconds::from_nanoseconds(3.0));
        let mut agg = CycleEnergy::new();
        agg.periphery = Joules::from_picojoules(100.0);
        meter.record_aggregate(&agg, 50);
        assert_eq!(meter.cycles(), 50);
        assert!((meter.energy_per_cycle().to_picojoules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_meter_is_zero() {
        let meter = PowerMeter::new(Seconds::from_nanoseconds(3.0));
        assert_eq!(meter.total_energy(), Joules::ZERO);
        assert_eq!(meter.energy_per_cycle(), Joules::ZERO);
        assert_eq!(meter.average_power(), Watts::ZERO);
    }

    #[test]
    fn breakdown_reflects_components() {
        let mut meter = PowerMeter::new(Seconds::from_nanoseconds(3.0));
        meter.record(&cycle(3.0, 1.0));
        let breakdown = meter.breakdown();
        assert!((breakdown.total().to_picojoules() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "clock period must be positive")]
    fn zero_clock_rejected() {
        let _ = PowerMeter::new(Seconds::ZERO);
    }
}
