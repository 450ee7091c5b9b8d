//! Stuck-at faults (SAF).

use std::fmt;

use sram_model::address::Address;

use super::{Fault, FaultKind};
use crate::memory::GoodMemory;

/// A cell permanently stuck at a fixed value: writes of the opposite value
/// have no effect and reads always return the stuck value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckAtFault {
    pub(super) victim: Address,
    pub(super) stuck_value: bool,
}

impl StuckAtFault {
    /// Creates a stuck-at fault on `victim`.
    pub fn new(victim: Address, stuck_value: bool) -> Self {
        Self {
            victim,
            stuck_value,
        }
    }

    /// The affected cell.
    pub fn victim(&self) -> Address {
        self.victim
    }

    /// The value the cell is stuck at.
    pub fn stuck_value(&self) -> bool {
        self.stuck_value
    }
}

impl fmt::Display for StuckAtFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SAF{}@{}",
            u8::from(self.stuck_value),
            self.victim.value()
        )
    }
}

impl Fault for StuckAtFault {
    fn kind(&self) -> FaultKind {
        FaultKind::StuckAt
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        if address == self.victim {
            memory.set(address, self.stuck_value);
        } else {
            memory.set(address, value);
        }
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        if address == self.victim {
            memory.set(address, self.stuck_value);
            self.stuck_value
        } else {
            memory.get(address)
        }
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        Some(vec![self.victim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_ignores_writes_of_opposite_value() {
        let mut fault = StuckAtFault::new(Address::new(3), false);
        let mut memory = GoodMemory::new(8);
        fault.write(&mut memory, Address::new(3), true);
        assert!(!fault.read(&mut memory, Address::new(3)));
        assert_eq!(fault.name(), "SAF0@3");
        assert_eq!(fault.kind(), FaultKind::StuckAt);
        assert_eq!(fault.victim(), Address::new(3));
        assert!(!fault.stuck_value());
    }

    #[test]
    fn other_cells_unaffected() {
        let mut fault = StuckAtFault::new(Address::new(3), false);
        let mut memory = GoodMemory::new(8);
        fault.write(&mut memory, Address::new(4), true);
        assert!(fault.read(&mut memory, Address::new(4)));
    }

    #[test]
    fn stuck_at_one_reads_one_even_before_any_write() {
        let mut fault = StuckAtFault::new(Address::new(0), true);
        let mut memory = GoodMemory::new(4);
        assert!(fault.read(&mut memory, Address::new(0)));
    }
}
