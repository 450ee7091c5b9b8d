//! Functional memory fault models.
//!
//! Fault simulation works by wrapping the fault-free [`GoodMemory`] in a
//! [`FaultyMemory`] that lets one injected [`Fault`] perturb reads and
//! writes. The models implemented here are the classical single-cell and
//! two-cell (coupling) functional fault models from the memory-test
//! literature (van de Goor), plus the read-destructive family that the
//! paper's authors study in their earlier work:
//!
//! | module | faults |
//! |---|---|
//! | [`stuck_at`] | SAF (stuck-at-0 / stuck-at-1) |
//! | [`transition`] | TF (up / down transition faults) |
//! | [`coupling`] | CFin, CFid, CFst |
//! | [`read_fault`] | RDF, DRDF, IRF |
//! | [`stuck_open`] | SOF |
//! | [`write_disturb`] | WDF |
//! | [`address_decoder`] | AF (aliased addresses) |

pub mod address_decoder;
pub mod coupling;
pub mod read_fault;
pub mod stuck_at;
pub mod stuck_open;
pub mod transition;
pub mod write_disturb;

pub use address_decoder::AddressAliasFault;
pub use coupling::{CouplingIdempotentFault, CouplingInversionFault, CouplingStateFault};
pub use read_fault::{DeceptiveReadDestructiveFault, IncorrectReadFault, ReadDestructiveFault};
pub use stuck_at::StuckAtFault;
pub use stuck_open::StuckOpenFault;
pub use transition::TransitionFault;
pub use write_disturb::WriteDisturbFault;

use sram_model::address::Address;
use sram_model::config::ArrayOrganization;
use std::fmt;

use crate::memory::{GoodMemory, MemoryModel};

/// Broad classification of a fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// Stuck-at fault.
    StuckAt,
    /// Transition fault.
    Transition,
    /// Inversion coupling fault.
    CouplingInversion,
    /// Idempotent coupling fault.
    CouplingIdempotent,
    /// State coupling fault.
    CouplingState,
    /// Read destructive fault.
    ReadDestructive,
    /// Deceptive read destructive fault.
    DeceptiveReadDestructive,
    /// Incorrect read fault.
    IncorrectRead,
    /// Stuck-open fault.
    StuckOpen,
    /// Write disturb fault.
    WriteDisturb,
    /// Address-decoder fault.
    AddressDecoder,
}

impl FaultKind {
    /// The short class mnemonic (`"SAF"`, `"CFid"`, …) — what `Display`
    /// writes and what report digests hash, without allocating.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::StuckAt => "SAF",
            FaultKind::Transition => "TF",
            FaultKind::CouplingInversion => "CFin",
            FaultKind::CouplingIdempotent => "CFid",
            FaultKind::CouplingState => "CFst",
            FaultKind::ReadDestructive => "RDF",
            FaultKind::DeceptiveReadDestructive => "DRDF",
            FaultKind::IncorrectRead => "IRF",
            FaultKind::StuckOpen => "SOF",
            FaultKind::WriteDisturb => "WDF",
            FaultKind::AddressDecoder => "AF",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One injected fault instance.
///
/// A fault sees every read and write of the memory and decides how the
/// underlying fault-free state ([`GoodMemory`]) is affected and what value
/// a read returns. Addresses the fault does not involve must behave
/// normally.
pub trait Fault: fmt::Debug {
    /// Short human-readable instance name, e.g. `"SAF0@17"`.
    fn name(&self) -> String;

    /// The fault class.
    fn kind(&self) -> FaultKind;

    /// Performs the (possibly faulty) effect of writing `value` at
    /// `address`.
    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool);

    /// Performs the (possibly faulty) effect of reading `address` and
    /// returns the value observed at the memory outputs.
    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool;

    /// The addresses whose operations can trigger **or** observe this
    /// fault, or `None` when the behaviour is global (any access may
    /// matter, e.g. the stuck-open fault's bit-line history).
    ///
    /// When `Some`, the simulation kernel executes only the walk steps
    /// touching these addresses
    /// ([`crate::executor::run_march_walk_filtered`]): every other cell
    /// behaves fault-free and a March read of a fault-free cell always
    /// matches its expectation, so the filtered run is observationally
    /// equivalent to the full one at `O(ops × involved)` instead of
    /// `O(ops × cells)` cost. Implementations must list every address
    /// whose read can mismatch and every address whose access can change
    /// the fault's trigger state. The default is the conservative `None`.
    fn involved_addresses(&self) -> Option<Vec<Address>> {
        None
    }

    /// The inline form of this fault, or `None` when the fault has no
    /// [`LaneFaultKind`] variant. Every fault model of this crate returns
    /// its variant: the collapsed sweep ([`crate::batch`]) keys the
    /// fault's equivalence class on it and simulates one relocated
    /// representative per class. The default is the conservative `None`,
    /// which makes the sweep run the fault alone on the per-fault golden
    /// path.
    fn lane_kind(&self) -> Option<LaneFaultKind> {
        None
    }
}

/// One of the crate's own fault models, stored **inline** as plain `Copy`
/// data.
///
/// The collapsed sweep ([`crate::batch`]) reads three things off it
/// without allocating: the model and its parameters other than
/// addresses, the involved cells ([`LaneFaultKind::involved`]), and — for
/// a class's representative — the same fault moved onto the canonical
/// walk, which it then simulates on the per-fault golden path. The enum
/// is intentionally small (a unit test pins
/// `size_of::<LaneFaultKind>() <= 32`); fault types without a variant
/// here run the per-fault path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LaneFaultKind {
    /// Stuck-at fault.
    StuckAt(StuckAtFault),
    /// Transition fault.
    Transition(TransitionFault),
    /// Inversion coupling fault.
    CouplingInversion(CouplingInversionFault),
    /// Idempotent coupling fault.
    CouplingIdempotent(CouplingIdempotentFault),
    /// State coupling fault.
    CouplingState(CouplingStateFault),
    /// Read destructive fault.
    ReadDestructive(ReadDestructiveFault),
    /// Deceptive read destructive fault.
    DeceptiveReadDestructive(DeceptiveReadDestructiveFault),
    /// Incorrect read fault.
    IncorrectRead(IncorrectReadFault),
    /// Stuck-open fault.
    StuckOpen(StuckOpenFault),
    /// Write disturb fault.
    WriteDisturb(WriteDisturbFault),
    /// Address-decoder aliasing fault.
    AddressDecoder(AddressAliasFault),
}

/// The involved addresses of a [`LaneFaultKind`], held inline: every
/// in-crate model involves one or two cells, so the set fits a fixed
/// two-slot array and classifying a 100k-fault population allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvolvedAddresses {
    addresses: [Address; 2],
    len: u8,
}

impl InvolvedAddresses {
    /// A single-cell involved set.
    pub fn one(address: Address) -> Self {
        Self {
            addresses: [address, address],
            len: 1,
        }
    }

    /// A two-cell involved set.
    pub fn two(first: Address, second: Address) -> Self {
        Self {
            addresses: [first, second],
            len: 2,
        }
    }

    /// The involved addresses as a slice.
    pub fn as_slice(&self) -> &[Address] {
        &self.addresses[..usize::from(self.len)]
    }
}

impl std::ops::Deref for InvolvedAddresses {
    type Target = [Address];

    fn deref(&self) -> &[Address] {
        self.as_slice()
    }
}

impl LaneFaultKind {
    /// The fault class of the wrapped model.
    pub fn kind(&self) -> FaultKind {
        match self {
            LaneFaultKind::StuckAt(_) => FaultKind::StuckAt,
            LaneFaultKind::Transition(_) => FaultKind::Transition,
            LaneFaultKind::CouplingInversion(_) => FaultKind::CouplingInversion,
            LaneFaultKind::CouplingIdempotent(_) => FaultKind::CouplingIdempotent,
            LaneFaultKind::CouplingState(_) => FaultKind::CouplingState,
            LaneFaultKind::ReadDestructive(_) => FaultKind::ReadDestructive,
            LaneFaultKind::DeceptiveReadDestructive(_) => FaultKind::DeceptiveReadDestructive,
            LaneFaultKind::IncorrectRead(_) => FaultKind::IncorrectRead,
            LaneFaultKind::StuckOpen(_) => FaultKind::StuckOpen,
            LaneFaultKind::WriteDisturb(_) => FaultKind::WriteDisturb,
            LaneFaultKind::AddressDecoder(_) => FaultKind::AddressDecoder,
        }
    }

    /// The cells the wrapped model tells apart from the others, inline —
    /// no allocation: the victim of a single-cell model, or the aggressor
    /// then the victim (the aliased address then its target) of a
    /// two-cell one. The stuck-open victim is listed too, although its
    /// golden simulation walks every cell.
    pub fn involved(&self) -> InvolvedAddresses {
        use LaneFaultKind as K;
        match *self {
            K::StuckAt(StuckAtFault { victim, .. })
            | K::Transition(TransitionFault { victim, .. })
            | K::ReadDestructive(ReadDestructiveFault { victim })
            | K::DeceptiveReadDestructive(DeceptiveReadDestructiveFault { victim })
            | K::IncorrectRead(IncorrectReadFault { victim })
            | K::StuckOpen(StuckOpenFault { victim, .. })
            | K::WriteDisturb(WriteDisturbFault { victim }) => InvolvedAddresses::one(victim),
            K::CouplingInversion(CouplingInversionFault {
                aggressor, victim, ..
            })
            | K::CouplingIdempotent(CouplingIdempotentFault {
                aggressor, victim, ..
            })
            | K::CouplingState(CouplingStateFault {
                aggressor, victim, ..
            })
            | K::AddressDecoder(AddressAliasFault {
                aliased: aggressor,
                target: victim,
            }) => InvolvedAddresses::two(aggressor, victim),
        }
    }

    /// The model and its parameters other than addresses as one integer
    /// below 64: the [`FaultKind`] in the high bits, the model's flags
    /// (stuck value, failing transition, trigger and forced values, the
    /// initial sense-amplifier value) in the low two. Two faults have the
    /// same code exactly when they differ at most in where they sit.
    pub(crate) fn model_code(&self) -> u8 {
        use LaneFaultKind as K;
        let flags = match *self {
            K::StuckAt(fault) => u8::from(fault.stuck_value),
            K::Transition(fault) => u8::from(fault.up_fails),
            K::CouplingInversion(fault) => u8::from(fault.rising),
            K::CouplingIdempotent(fault) => {
                u8::from(fault.rising) << 1 | u8::from(fault.forced_value)
            }
            K::CouplingState(fault) => {
                u8::from(fault.aggressor_state) << 1 | u8::from(fault.forced_value)
            }
            K::StuckOpen(fault) => u8::from(fault.last_sensed),
            K::ReadDestructive(_)
            | K::DeceptiveReadDestructive(_)
            | K::IncorrectRead(_)
            | K::WriteDisturb(_)
            | K::AddressDecoder(_) => 0,
        };
        (self.kind() as u8) << 2 | flags
    }

    /// The same fault with every involved address `a` moved to `to(a)`
    /// and every other parameter kept. `to` must keep distinct cells
    /// distinct.
    pub(crate) fn relocated(self, to: impl Fn(Address) -> Address) -> Self {
        use LaneFaultKind as K;
        match self {
            K::StuckAt(f) => K::StuckAt(StuckAtFault {
                victim: to(f.victim),
                ..f
            }),
            K::Transition(f) => K::Transition(TransitionFault {
                victim: to(f.victim),
                ..f
            }),
            K::CouplingInversion(f) => K::CouplingInversion(CouplingInversionFault {
                aggressor: to(f.aggressor),
                victim: to(f.victim),
                ..f
            }),
            K::CouplingIdempotent(f) => K::CouplingIdempotent(CouplingIdempotentFault {
                aggressor: to(f.aggressor),
                victim: to(f.victim),
                ..f
            }),
            K::CouplingState(f) => K::CouplingState(CouplingStateFault {
                aggressor: to(f.aggressor),
                victim: to(f.victim),
                ..f
            }),
            K::ReadDestructive(f) => K::ReadDestructive(ReadDestructiveFault::new(to(f.victim))),
            K::DeceptiveReadDestructive(f) => {
                K::DeceptiveReadDestructive(DeceptiveReadDestructiveFault::new(to(f.victim)))
            }
            K::IncorrectRead(f) => K::IncorrectRead(IncorrectReadFault::new(to(f.victim))),
            K::StuckOpen(f) => K::StuckOpen(StuckOpenFault {
                victim: to(f.victim),
                ..f
            }),
            K::WriteDisturb(f) => K::WriteDisturb(WriteDisturbFault::new(to(f.victim))),
            K::AddressDecoder(f) => {
                K::AddressDecoder(AddressAliasFault::new(to(f.aliased), to(f.target)))
            }
        }
    }

    /// The wrapped model as a boxed [`Fault`], ready for the per-fault
    /// golden path.
    pub(crate) fn into_fault(self) -> Box<dyn Fault> {
        match self {
            LaneFaultKind::StuckAt(fault) => Box::new(fault),
            LaneFaultKind::Transition(fault) => Box::new(fault),
            LaneFaultKind::CouplingInversion(fault) => Box::new(fault),
            LaneFaultKind::CouplingIdempotent(fault) => Box::new(fault),
            LaneFaultKind::CouplingState(fault) => Box::new(fault),
            LaneFaultKind::ReadDestructive(fault) => Box::new(fault),
            LaneFaultKind::DeceptiveReadDestructive(fault) => Box::new(fault),
            LaneFaultKind::IncorrectRead(fault) => Box::new(fault),
            LaneFaultKind::StuckOpen(fault) => Box::new(fault),
            LaneFaultKind::WriteDisturb(fault) => Box::new(fault),
            LaneFaultKind::AddressDecoder(fault) => Box::new(fault),
        }
    }
}

/// A fault-free memory wrapped with one injected fault.
#[derive(Debug)]
pub struct FaultyMemory {
    base: GoodMemory,
    fault: Box<dyn Fault>,
}

impl FaultyMemory {
    /// Wraps `base` with `fault`.
    pub fn new(base: GoodMemory, fault: Box<dyn Fault>) -> Self {
        Self { base, fault }
    }

    /// Convenience constructor: a zero-initialised memory of `capacity`
    /// cells with `fault` injected.
    pub fn with_capacity(capacity: u32, fault: Box<dyn Fault>) -> Self {
        Self::new(GoodMemory::new(capacity), fault)
    }

    /// The injected fault.
    pub fn fault(&self) -> &dyn Fault {
        self.fault.as_ref()
    }

    /// The underlying fault-free state.
    pub fn base(&self) -> &GoodMemory {
        &self.base
    }
}

impl MemoryModel for FaultyMemory {
    fn capacity(&self) -> u32 {
        self.base.capacity()
    }

    fn read(&mut self, address: Address) -> bool {
        self.fault.read(&mut self.base, address)
    }

    fn write(&mut self, address: Address, value: bool) {
        self.fault.write(&mut self.base, address, value);
    }
}

/// A generator of fault instances, so coverage experiments can build fresh
/// (stateful) fault objects for every run. Factories are `Send + Sync` so
/// that parallel sweeps can instantiate faults from worker threads.
pub type FaultFactory = Box<dyn Fn() -> Box<dyn Fault> + Send + Sync>;

/// Builds the standard fault list used by the coverage and
/// degree-of-freedom experiments: every fault class instantiated at a
/// handful of representative victim locations (first cell, a mid-array
/// cell, last cell) with a neighbouring aggressor where applicable.
pub fn standard_fault_list(organization: &ArrayOrganization) -> Vec<FaultFactory> {
    let capacity = organization.capacity();
    assert!(capacity >= 4, "fault list needs at least four cells");
    let victims = [0, capacity / 2, capacity - 1];
    let mut factories: Vec<FaultFactory> = Vec::new();

    for &v in &victims {
        let victim = Address::new(v);
        // The aggressor is the next cell (wrapping away from the end).
        let aggressor = Address::new(if v + 1 < capacity { v + 1 } else { v - 1 });

        for value in [false, true] {
            factories.push(Box::new(move || Box::new(StuckAtFault::new(victim, value))));
            factories.push(Box::new(move || {
                Box::new(CouplingIdempotentFault::new(aggressor, victim, true, value))
            }));
            factories.push(Box::new(move || {
                Box::new(CouplingStateFault::new(aggressor, victim, value, !value))
            }));
        }
        for rising in [false, true] {
            factories.push(Box::new(move || {
                Box::new(TransitionFault::new(victim, rising))
            }));
            factories.push(Box::new(move || {
                Box::new(CouplingInversionFault::new(aggressor, victim, rising))
            }));
        }
        factories.push(Box::new(move || {
            Box::new(ReadDestructiveFault::new(victim))
        }));
        factories.push(Box::new(move || {
            Box::new(DeceptiveReadDestructiveFault::new(victim))
        }));
        factories.push(Box::new(move || Box::new(IncorrectReadFault::new(victim))));
        factories.push(Box::new(move || Box::new(StuckOpenFault::new(victim))));
        factories.push(Box::new(move || Box::new(WriteDisturbFault::new(victim))));
        factories.push(Box::new(move || {
            Box::new(AddressAliasFault::new(victim, aggressor))
        }));
    }
    factories
}

/// Like [`standard_fault_list`], but restricted to the *static* fault
/// classes for which the first March degree of freedom (arbitrary address
/// order) provably preserves detection. The stuck-open fault is excluded:
/// its observable behaviour depends on the value left on the bit lines by
/// the *previous* read, so whether a given March test happens to catch a
/// specific SOF instance legitimately depends on the address sequence.
pub fn static_fault_list(organization: &ArrayOrganization) -> Vec<FaultFactory> {
    standard_fault_list(organization)
        .into_iter()
        .filter(|factory| factory().kind() != FaultKind::StuckOpen)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_memory_delegates_to_fault() {
        let fault = Box::new(StuckAtFault::new(Address::new(2), true));
        let mut memory = FaultyMemory::with_capacity(8, fault);
        assert_eq!(memory.capacity(), 8);
        memory.write(Address::new(2), false);
        assert!(memory.read(Address::new(2)), "cell 2 is stuck at 1");
        memory.write(Address::new(3), true);
        assert!(memory.read(Address::new(3)), "other cells behave normally");
        assert_eq!(memory.fault().kind(), FaultKind::StuckAt);
        assert!(memory.base().get(Address::new(3)));
    }

    #[test]
    fn standard_fault_list_covers_every_kind() {
        let organization = ArrayOrganization::new(4, 4).unwrap();
        let list = standard_fault_list(&organization);
        assert!(list.len() > 30);
        let kinds: std::collections::BTreeSet<String> = list
            .iter()
            .map(|factory| factory().kind().to_string())
            .collect();
        for expected in [
            "SAF", "TF", "CFin", "CFid", "CFst", "RDF", "DRDF", "IRF", "SOF", "WDF", "AF",
        ] {
            assert!(kinds.contains(expected), "missing fault kind {expected}");
        }
    }

    #[test]
    fn static_fault_list_excludes_stuck_open() {
        let organization = ArrayOrganization::new(4, 4).unwrap();
        let list = static_fault_list(&organization);
        assert!(!list.is_empty());
        assert!(list.iter().all(|f| f().kind() != FaultKind::StuckOpen));
        assert!(list.len() < standard_fault_list(&organization).len());
    }

    #[test]
    fn lane_fault_kind_stays_copy_and_small() {
        // Sweeps read one inline form per fault while classifying; a
        // variant that bloats the enum would fatten every probe, so the
        // size is pinned.
        fn assert_copy<T: Copy + Send>() {}
        assert_copy::<LaneFaultKind>();
        assert!(
            std::mem::size_of::<LaneFaultKind>() <= 32,
            "LaneFaultKind grew to {} bytes",
            std::mem::size_of::<LaneFaultKind>()
        );
    }

    #[test]
    fn every_standard_fault_has_an_inline_lane_kind() {
        let organization = ArrayOrganization::new(4, 4).unwrap();
        for factory in standard_fault_list(&organization) {
            let fault = factory();
            let kind = fault
                .lane_kind()
                .unwrap_or_else(|| panic!("{} has no lane kind", fault.name()));
            assert_eq!(kind.kind(), fault.kind(), "{}", fault.name());
            assert!(!kind.involved().is_empty(), "{}", fault.name());
            assert!(kind.involved().len() <= 2, "{}", fault.name());
            // The inline set is the golden path's, where it has one.
            if let Some(involved) = fault.involved_addresses() {
                assert_eq!(involved, kind.involved().to_vec(), "{}", fault.name());
            }
            // Back through the golden interface, nothing is lost.
            let back = kind.into_fault();
            assert_eq!(back.name(), fault.name());
            assert_eq!(back.lane_kind(), Some(kind));
        }
    }

    #[test]
    fn relocation_moves_the_cells_and_keeps_the_model_code() {
        let organization = ArrayOrganization::new(4, 4).unwrap();
        let mut codes = std::collections::BTreeSet::new();
        for factory in standard_fault_list(&organization) {
            let kind = factory().lane_kind().expect("in-crate model");
            let moved = kind.relocated(|address| Address::new(address.value() + 100));
            assert_eq!(moved.model_code(), kind.model_code(), "{kind:?}");
            assert!(kind.model_code() < 64, "{kind:?}");
            let shifted: Vec<u32> = kind.involved().iter().map(|a| a.value() + 100).collect();
            let involved: Vec<u32> = moved.involved().iter().map(|a| a.value()).collect();
            assert_eq!(involved, shifted, "{kind:?}");
            assert_eq!(
                moved.relocated(|address| Address::new(address.value() - 100)),
                kind
            );
            codes.insert(kind.model_code());
        }
        // Each kind-and-flags combination of the standard list has its own
        // code: 2 SAF + 2 TF + 2 CFin + 2 CFid + 2 CFst + RDF, DRDF, IRF,
        // SOF, WDF and AF.
        assert_eq!(codes.len(), 16);
    }

    #[test]
    fn involved_addresses_inline_set_exposes_its_slice() {
        let one = InvolvedAddresses::one(Address::new(7));
        assert_eq!(one.as_slice(), &[Address::new(7)]);
        let two = InvolvedAddresses::two(Address::new(1), Address::new(9));
        assert_eq!(&*two, &[Address::new(1), Address::new(9)]);
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::StuckAt.to_string(), "SAF");
        assert_eq!(FaultKind::DeceptiveReadDestructive.to_string(), "DRDF");
        assert_eq!(FaultKind::AddressDecoder.to_string(), "AF");
        assert_eq!(FaultKind::CouplingIdempotent.as_str(), "CFid");
    }

    #[test]
    #[should_panic(expected = "at least four cells")]
    fn tiny_memory_rejected() {
        let organization = ArrayOrganization::new(1, 2).unwrap();
        let _ = standard_fault_list(&organization);
    }
}
