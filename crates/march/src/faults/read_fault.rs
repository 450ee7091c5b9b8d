//! Read-related faults: RDF, DRDF and IRF.
//!
//! The read-destructive family is the subject of the paper authors' earlier
//! work (JETTA 2005, cited as \[10\]): the read operation itself disturbs the
//! cell. The *deceptive* variant returns the correct value while flipping
//! the cell, which is why detecting it requires a read-after-read pattern
//! such as the one in March SS.

use std::fmt;

use sram_model::address::Address;

use super::{Fault, FaultKind};
use crate::memory::GoodMemory;

/// Read destructive fault: a read flips the cell and returns the flipped
/// (wrong) value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadDestructiveFault {
    pub(super) victim: Address,
}

impl ReadDestructiveFault {
    /// Creates an RDF on `victim`.
    pub fn new(victim: Address) -> Self {
        Self { victim }
    }
}

impl fmt::Display for ReadDestructiveFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RDF@{}", self.victim.value())
    }
}

impl Fault for ReadDestructiveFault {
    fn kind(&self) -> FaultKind {
        FaultKind::ReadDestructive
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        memory.set(address, value);
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        if address == self.victim {
            let flipped = !memory.get(address);
            memory.set(address, flipped);
            flipped
        } else {
            memory.get(address)
        }
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        Some(vec![self.victim])
    }
}

/// Deceptive read destructive fault: a read returns the correct value but
/// flips the cell afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeceptiveReadDestructiveFault {
    pub(super) victim: Address,
}

impl DeceptiveReadDestructiveFault {
    /// Creates a DRDF on `victim`.
    pub fn new(victim: Address) -> Self {
        Self { victim }
    }
}

impl fmt::Display for DeceptiveReadDestructiveFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DRDF@{}", self.victim.value())
    }
}

impl Fault for DeceptiveReadDestructiveFault {
    fn kind(&self) -> FaultKind {
        FaultKind::DeceptiveReadDestructive
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        memory.set(address, value);
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        let correct = memory.get(address);
        if address == self.victim {
            memory.set(address, !correct);
        }
        correct
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        Some(vec![self.victim])
    }
}

/// Incorrect read fault: a read returns the complement of the stored value
/// while leaving the cell intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncorrectReadFault {
    pub(super) victim: Address,
}

impl IncorrectReadFault {
    /// Creates an IRF on `victim`.
    pub fn new(victim: Address) -> Self {
        Self { victim }
    }
}

impl fmt::Display for IncorrectReadFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IRF@{}", self.victim.value())
    }
}

impl Fault for IncorrectReadFault {
    fn kind(&self) -> FaultKind {
        FaultKind::IncorrectRead
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        memory.set(address, value);
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        let value = memory.get(address);
        if address == self.victim {
            !value
        } else {
            value
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
    fn rdf_flips_and_returns_wrong_value() {
        let mut fault = ReadDestructiveFault::new(Address::new(0));
        let mut memory = GoodMemory::new(2);
        memory.set(Address::new(0), true);
        assert!(
            !fault.read(&mut memory, Address::new(0)),
            "wrong value returned"
        );
        assert!(!memory.get(Address::new(0)), "cell flipped");
        assert_eq!(fault.kind(), FaultKind::ReadDestructive);
    }

    #[test]
    fn drdf_returns_correct_value_but_flips() {
        let mut fault = DeceptiveReadDestructiveFault::new(Address::new(0));
        let mut memory = GoodMemory::new(2);
        memory.set(Address::new(0), true);
        assert!(
            fault.read(&mut memory, Address::new(0)),
            "first read looks fine"
        );
        assert!(!memory.get(Address::new(0)), "but the cell flipped");
        assert!(
            !fault.read(&mut memory, Address::new(0)),
            "second read exposes it"
        );
        assert_eq!(fault.kind(), FaultKind::DeceptiveReadDestructive);
    }

    #[test]
    fn irf_returns_complement_without_flipping() {
        let mut fault = IncorrectReadFault::new(Address::new(1));
        let mut memory = GoodMemory::new(2);
        memory.set(Address::new(1), true);
        assert!(!fault.read(&mut memory, Address::new(1)));
        assert!(memory.get(Address::new(1)), "cell unchanged");
        assert_eq!(fault.kind(), FaultKind::IncorrectRead);
    }

    #[test]
    fn non_victim_cells_behave_normally() {
        let mut fault = ReadDestructiveFault::new(Address::new(0));
        let mut memory = GoodMemory::new(2);
        fault.write(&mut memory, Address::new(1), true);
        assert!(fault.read(&mut memory, Address::new(1)));
        assert!(fault.read(&mut memory, Address::new(1)), "still intact");
    }
}
