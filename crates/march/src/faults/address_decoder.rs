//! Address-decoder faults (AF).

use sram_model::address::Address;

use super::{Fault, FaultKind, LaneFaultKind};
use crate::memory::GoodMemory;

/// Address aliasing fault: accesses to one address are routed to another
/// cell (the classic "no cell accessed / wrong cell accessed" decoder
/// fault collapsed into its observable aliasing form). Reads and writes of
/// `aliased` actually hit `target`; the cell behind `aliased` is never
/// accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressAliasFault {
    pub(super) aliased: Address,
    pub(super) target: Address,
}

impl AddressAliasFault {
    /// Creates an aliasing fault redirecting `aliased` to `target`.
    ///
    /// # Panics
    ///
    /// Panics if the two addresses are equal (that would be a fault-free
    /// decoder).
    pub fn new(aliased: Address, target: Address) -> Self {
        assert_ne!(aliased, target, "aliased and target addresses must differ");
        Self { aliased, target }
    }

    fn redirect(&self, address: Address) -> Address {
        if address == self.aliased {
            self.target
        } else {
            address
        }
    }
}

impl Fault for AddressAliasFault {
    fn name(&self) -> String {
        format!("AF({}→{})", self.aliased.value(), self.target.value())
    }

    fn kind(&self) -> FaultKind {
        FaultKind::AddressDecoder
    }

    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        memory.set(self.redirect(address), value);
    }

    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        memory.get(self.redirect(address))
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        // Accesses to `aliased` land on `target`, and reads of `target`
        // observe the corruption — both cells' operations matter.
        Some(vec![self.aliased, self.target])
    }

    fn lane_kind(&self) -> Option<LaneFaultKind> {
        Some(LaneFaultKind::AddressDecoder(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_are_redirected() {
        let mut fault = AddressAliasFault::new(Address::new(2), Address::new(5));
        let mut memory = GoodMemory::new(8);
        fault.write(&mut memory, Address::new(2), true);
        // The write landed on cell 5, not cell 2.
        assert!(memory.get(Address::new(5)));
        assert!(!memory.get(Address::new(2)));
        // Reading address 2 sees cell 5.
        assert!(fault.read(&mut memory, Address::new(2)));
        assert_eq!(fault.kind(), FaultKind::AddressDecoder);
        assert_eq!(fault.name(), "AF(2→5)");
    }

    #[test]
    fn other_addresses_unaffected() {
        let mut fault = AddressAliasFault::new(Address::new(2), Address::new(5));
        let mut memory = GoodMemory::new(8);
        fault.write(&mut memory, Address::new(3), true);
        assert!(fault.read(&mut memory, Address::new(3)));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn identity_alias_rejected() {
        let _ = AddressAliasFault::new(Address::new(1), Address::new(1));
    }
}
