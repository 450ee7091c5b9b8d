//! Stuck-open faults (SOF).

use std::fmt;

use sram_model::address::Address;

use super::{Fault, FaultKind};
use crate::memory::GoodMemory;

/// Stuck-open fault: the cell cannot be accessed at all (e.g. a broken
/// access transistor). Writes to it are lost and a read returns whatever
/// value the sense amplifier produced on the *previous* read, because the
/// open cell leaves the bit lines undriven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckOpenFault {
    pub(super) victim: Address,
    pub(super) last_sensed: bool,
}

impl StuckOpenFault {
    /// Creates an SOF on `victim`. The sense-amplifier history starts at
    /// `0`.
    pub fn new(victim: Address) -> Self {
        Self {
            victim,
            last_sensed: false,
        }
    }
}

impl fmt::Display for StuckOpenFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SOF@{}", self.victim.value())
    }
}

impl Fault for StuckOpenFault {
    fn kind(&self) -> FaultKind {
        FaultKind::StuckOpen
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        if address != self.victim {
            memory.set(address, value);
        }
        // Writes to the victim are silently lost.
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        if address == self.victim {
            // The undriven bit lines leave the previous sensed value.
            self.last_sensed
        } else {
            let value = memory.get(address);
            self.last_sensed = value;
            value
        }
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        // A victim read returns the value sensed by the previous read of
        // *any* cell, so every read updates the trigger state: the fault
        // is global and must run the full walk.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_to_victim_are_lost() {
        let mut fault = StuckOpenFault::new(Address::new(1));
        let mut memory = GoodMemory::new(4);
        fault.write(&mut memory, Address::new(1), true);
        assert!(!memory.get(Address::new(1)));
        assert_eq!(fault.kind(), FaultKind::StuckOpen);
    }

    #[test]
    fn reads_return_previous_sensed_value() {
        let mut fault = StuckOpenFault::new(Address::new(1));
        let mut memory = GoodMemory::new(4);
        memory.set(Address::new(0), true);
        assert!(fault.read(&mut memory, Address::new(0)));
        // The victim now "reads" the value left over from the previous read.
        assert!(fault.read(&mut memory, Address::new(1)));
        memory.set(Address::new(2), false);
        assert!(!fault.read(&mut memory, Address::new(2)));
        assert!(!fault.read(&mut memory, Address::new(1)));
    }
}
