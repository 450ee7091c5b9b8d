//! Write disturb faults (WDF).

use std::fmt;

use sram_model::address::Address;

use super::{Fault, FaultKind};
use crate::memory::GoodMemory;

/// Write disturb fault: a *non-transition* write (writing the value the
/// cell already holds) flips the cell. Transition writes behave normally.
/// Detection requires a read immediately after a non-transition write,
/// which is why simple tests like MATS+ miss it and March SS catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteDisturbFault {
    pub(super) victim: Address,
}

impl WriteDisturbFault {
    /// Creates a WDF on `victim`.
    pub fn new(victim: Address) -> Self {
        Self { victim }
    }
}

impl fmt::Display for WriteDisturbFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WDF@{}", self.victim.value())
    }
}

impl Fault for WriteDisturbFault {
    fn kind(&self) -> FaultKind {
        FaultKind::WriteDisturb
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        if address == self.victim && memory.get(address) == value {
            memory.set(address, !value);
        } else {
            memory.set(address, value);
        }
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        memory.get(address)
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        Some(vec![self.victim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_transition_write_flips_the_cell() {
        let mut fault = WriteDisturbFault::new(Address::new(0));
        let mut memory = GoodMemory::new(2);
        // Cell holds 0; writing 0 again disturbs it to 1.
        fault.write(&mut memory, Address::new(0), false);
        assert!(fault.read(&mut memory, Address::new(0)));
        assert_eq!(fault.kind(), FaultKind::WriteDisturb);
    }

    #[test]
    fn transition_write_is_normal() {
        let mut fault = WriteDisturbFault::new(Address::new(0));
        let mut memory = GoodMemory::new(2);
        fault.write(&mut memory, Address::new(0), true);
        assert!(fault.read(&mut memory, Address::new(0)));
        fault.write(&mut memory, Address::new(0), false);
        assert!(!fault.read(&mut memory, Address::new(0)));
    }

    #[test]
    fn other_cells_unaffected() {
        let mut fault = WriteDisturbFault::new(Address::new(0));
        let mut memory = GoodMemory::new(2);
        fault.write(&mut memory, Address::new(1), false);
        assert!(!fault.read(&mut memory, Address::new(1)));
    }
}
