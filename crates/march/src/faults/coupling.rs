//! Two-cell coupling faults (CFin, CFid, CFst).

use sram_model::address::Address;

use super::{Fault, FaultKind, LaneFaultKind};
use crate::memory::GoodMemory;

/// Inversion coupling fault: a chosen transition written into the aggressor
/// cell inverts the victim cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CouplingInversionFault {
    pub(super) aggressor: Address,
    pub(super) victim: Address,
    /// `true` → triggered by a 0→1 write on the aggressor, otherwise by a
    /// 1→0 write.
    pub(super) rising: bool,
}

impl CouplingInversionFault {
    /// Creates an inversion coupling fault.
    ///
    /// # Panics
    ///
    /// Panics if aggressor and victim are the same cell.
    pub fn new(aggressor: Address, victim: Address, rising: bool) -> Self {
        assert_ne!(aggressor, victim, "aggressor and victim must differ");
        Self {
            aggressor,
            victim,
            rising,
        }
    }
}

impl Fault for CouplingInversionFault {
    fn name(&self) -> String {
        let dir = if self.rising { "↑" } else { "↓" };
        format!(
            "CFin({}{dir};{})",
            self.aggressor.value(),
            self.victim.value()
        )
    }

    fn kind(&self) -> FaultKind {
        FaultKind::CouplingInversion
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        if address == self.aggressor {
            let before = memory.get(address);
            memory.set(address, value);
            let triggered = if self.rising {
                !before && value
            } else {
                before && !value
            };
            if triggered {
                let v = memory.get(self.victim);
                memory.set(self.victim, !v);
            }
        } else {
            memory.set(address, value);
        }
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        memory.get(address)
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        // Aggressor writes trigger the inversion; victim accesses observe
        // (and can overwrite) the corrupted cell.
        Some(vec![self.aggressor, self.victim])
    }

    fn lane_kind(&self) -> Option<LaneFaultKind> {
        Some(LaneFaultKind::CouplingInversion(*self))
    }
}

/// Idempotent coupling fault: a chosen transition on the aggressor forces
/// the victim to a fixed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CouplingIdempotentFault {
    pub(super) aggressor: Address,
    pub(super) victim: Address,
    pub(super) rising: bool,
    pub(super) forced_value: bool,
}

impl CouplingIdempotentFault {
    /// Creates an idempotent coupling fault.
    ///
    /// # Panics
    ///
    /// Panics if aggressor and victim are the same cell.
    pub fn new(aggressor: Address, victim: Address, rising: bool, forced_value: bool) -> Self {
        assert_ne!(aggressor, victim, "aggressor and victim must differ");
        Self {
            aggressor,
            victim,
            rising,
            forced_value,
        }
    }
}

impl Fault for CouplingIdempotentFault {
    fn name(&self) -> String {
        let dir = if self.rising { "↑" } else { "↓" };
        format!(
            "CFid({}{dir};{}={})",
            self.aggressor.value(),
            self.victim.value(),
            u8::from(self.forced_value)
        )
    }

    fn kind(&self) -> FaultKind {
        FaultKind::CouplingIdempotent
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        if address == self.aggressor {
            let before = memory.get(address);
            memory.set(address, value);
            let triggered = if self.rising {
                !before && value
            } else {
                before && !value
            };
            if triggered {
                memory.set(self.victim, self.forced_value);
            }
        } else {
            memory.set(address, value);
        }
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        memory.get(address)
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        Some(vec![self.aggressor, self.victim])
    }

    fn lane_kind(&self) -> Option<LaneFaultKind> {
        Some(LaneFaultKind::CouplingIdempotent(*self))
    }
}

/// State coupling fault: while the aggressor holds a given state, the victim
/// is forced to a fixed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CouplingStateFault {
    pub(super) aggressor: Address,
    pub(super) victim: Address,
    pub(super) aggressor_state: bool,
    pub(super) forced_value: bool,
}

impl CouplingStateFault {
    /// Creates a state coupling fault.
    ///
    /// # Panics
    ///
    /// Panics if aggressor and victim are the same cell.
    pub fn new(
        aggressor: Address,
        victim: Address,
        aggressor_state: bool,
        forced_value: bool,
    ) -> Self {
        assert_ne!(aggressor, victim, "aggressor and victim must differ");
        Self {
            aggressor,
            victim,
            aggressor_state,
            forced_value,
        }
    }

    fn enforce(&self, memory: &mut GoodMemory) {
        if memory.get(self.aggressor) == self.aggressor_state {
            memory.set(self.victim, self.forced_value);
        }
    }
}

impl Fault for CouplingStateFault {
    fn name(&self) -> String {
        format!(
            "CFst({}={};{}={})",
            self.aggressor.value(),
            u8::from(self.aggressor_state),
            self.victim.value(),
            u8::from(self.forced_value)
        )
    }

    fn kind(&self) -> FaultKind {
        FaultKind::CouplingState
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        memory.set(address, value);
        self.enforce(memory);
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        self.enforce(memory);
        memory.get(address)
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        // `enforce` runs on every access, but its outcome only changes
        // when the aggressor's state changes (aggressor writes) and is
        // only observable through the victim — both cells' operations
        // cover every trigger and observation point.
        Some(vec![self.aggressor, self.victim])
    }

    fn lane_kind(&self) -> Option<LaneFaultKind> {
        Some(LaneFaultKind::CouplingState(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversion_coupling_flips_victim_on_rising_aggressor() {
        let mut fault = CouplingInversionFault::new(Address::new(1), Address::new(0), true);
        let mut memory = GoodMemory::new(4);
        memory.set(Address::new(0), true);
        fault.write(&mut memory, Address::new(1), true); // 0→1 rising
        assert!(!fault.read(&mut memory, Address::new(0)), "victim inverted");
        // A second write of 1 is not a transition and does nothing.
        fault.write(&mut memory, Address::new(1), true);
        assert!(!fault.read(&mut memory, Address::new(0)));
        assert_eq!(fault.kind(), FaultKind::CouplingInversion);
    }

    #[test]
    fn idempotent_coupling_forces_value() {
        let mut fault = CouplingIdempotentFault::new(Address::new(2), Address::new(3), false, true);
        let mut memory = GoodMemory::new(4);
        memory.set(Address::new(2), true);
        fault.write(&mut memory, Address::new(2), false); // falling transition
        assert!(
            fault.read(&mut memory, Address::new(3)),
            "victim forced to 1"
        );
        assert!(fault.name().starts_with("CFid"));
    }

    #[test]
    fn state_coupling_enforced_on_read_and_write() {
        let mut fault = CouplingStateFault::new(Address::new(0), Address::new(1), true, false);
        let mut memory = GoodMemory::new(4);
        memory.set(Address::new(1), true);
        // Aggressor at 0: victim unaffected.
        assert!(fault.read(&mut memory, Address::new(1)));
        // Aggressor written to 1: victim forced low.
        fault.write(&mut memory, Address::new(0), true);
        assert!(!fault.read(&mut memory, Address::new(1)));
        assert_eq!(fault.kind(), FaultKind::CouplingState);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_cell_coupling_rejected() {
        let _ = CouplingInversionFault::new(Address::new(1), Address::new(1), true);
    }
}
