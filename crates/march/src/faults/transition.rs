//! Transition faults (TF).

use std::fmt;

use sram_model::address::Address;

use super::{Fault, FaultKind};
use crate::memory::GoodMemory;

/// A cell that fails one of its transitions: an *up* transition fault never
/// goes from `0` to `1`; a *down* transition fault never goes from `1` to
/// `0`. All other behaviour is normal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionFault {
    pub(super) victim: Address,
    /// `true` → the 0→1 (up) transition fails; `false` → the 1→0 (down)
    /// transition fails.
    pub(super) up_fails: bool,
}

impl TransitionFault {
    /// Creates a transition fault on `victim`; `up_fails` selects which
    /// transition is broken.
    pub fn new(victim: Address, up_fails: bool) -> Self {
        Self { victim, up_fails }
    }
}

impl fmt::Display for TransitionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.up_fails { "up" } else { "down" };
        write!(f, "TF-{dir}@{}", self.victim.value())
    }
}

impl Fault for TransitionFault {
    fn kind(&self) -> FaultKind {
        FaultKind::Transition
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        if address == self.victim {
            let current = memory.get(address);
            let failing = if self.up_fails {
                !current && value
            } else {
                current && !value
            };
            if failing {
                return; // The transition does not happen.
            }
        }
        memory.set(address, value);
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
    fn up_transition_fails() {
        let mut fault = TransitionFault::new(Address::new(1), true);
        let mut memory = GoodMemory::new(4);
        fault.write(&mut memory, Address::new(1), true);
        assert!(!fault.read(&mut memory, Address::new(1)), "0→1 must fail");
        // The down transition still works after forcing a 1 directly.
        memory.set(Address::new(1), true);
        fault.write(&mut memory, Address::new(1), false);
        assert!(!fault.read(&mut memory, Address::new(1)));
        assert_eq!(fault.name(), "TF-up@1");
        assert_eq!(fault.kind(), FaultKind::Transition);
    }

    #[test]
    fn down_transition_fails() {
        let mut fault = TransitionFault::new(Address::new(2), false);
        let mut memory = GoodMemory::new(4);
        fault.write(&mut memory, Address::new(2), true);
        assert!(fault.read(&mut memory, Address::new(2)), "0→1 works");
        fault.write(&mut memory, Address::new(2), false);
        assert!(fault.read(&mut memory, Address::new(2)), "1→0 must fail");
    }

    #[test]
    fn other_cells_unaffected() {
        let mut fault = TransitionFault::new(Address::new(2), false);
        let mut memory = GoodMemory::new(4);
        fault.write(&mut memory, Address::new(0), true);
        fault.write(&mut memory, Address::new(0), false);
        assert!(!fault.read(&mut memory, Address::new(0)));
    }
}
