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

use crate::memory::{GoodMemory, LaneMemory, MemoryModel};

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

    /// The inline lane-masked form of this fault for the batched
    /// multi-fault backend ([`crate::batch`]), or `None` when the fault
    /// has no [`LaneFaultKind`] variant. Every fault model of this crate
    /// returns its variant; the cohort kernel then dispatches it by a
    /// match on plain enum data — no per-owner pointer chase. The default
    /// is the conservative `None`, which makes the
    /// [`crate::batch::FaultBatch`] planner run the fault as a serial
    /// singleton cohort on the per-fault path.
    fn lane_kind(&self) -> Option<LaneFaultKind> {
        None
    }
}

/// The lane-masked form of one of the crate's own fault models, stored
/// **inline**.
///
/// Cohorts of the batched backend hold `Vec<LaneFaultKind>`, so the
/// kernel's per-owner dispatch is a match on plain enum data sitting
/// contiguously in the cohort array: no heap allocation per fault, no
/// vtable pointer chase per step. The enum is `Copy` and intentionally
/// small (a unit test pins `size_of::<LaneFaultKind>() <= 32`) so packed
/// cohort arrays stay cache-dense; fault types without a variant here
/// run the per-fault path.
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
    /// Stuck-open fault (history served by the walk's sensed-before
    /// stamp).
    StuckOpen(StuckOpenFault),
    /// Write disturb fault.
    WriteDisturb(WriteDisturbFault),
    /// Address-decoder aliasing fault.
    AddressDecoder(AddressAliasFault),
}

/// The involved addresses of a [`LaneFaultKind`], held inline: every
/// in-crate lane model involves one or two cells, so the set fits a fixed
/// two-slot array and probing a 100k-fault population allocates nothing.
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

    /// The involved addresses of the wrapped model, inline (see
    /// [`LaneFault::involved`] for the contract) — no allocation.
    pub fn involved(&self) -> InvolvedAddresses {
        match self {
            LaneFaultKind::StuckAt(fault) => fault.lane_involved(),
            LaneFaultKind::Transition(fault) => fault.lane_involved(),
            LaneFaultKind::CouplingInversion(fault) => fault.lane_involved(),
            LaneFaultKind::CouplingIdempotent(fault) => fault.lane_involved(),
            LaneFaultKind::CouplingState(fault) => fault.lane_involved(),
            LaneFaultKind::ReadDestructive(fault) => fault.lane_involved(),
            LaneFaultKind::DeceptiveReadDestructive(fault) => fault.lane_involved(),
            LaneFaultKind::IncorrectRead(fault) => fault.lane_involved(),
            LaneFaultKind::StuckOpen(fault) => fault.lane_involved(),
            LaneFaultKind::WriteDisturb(fault) => fault.lane_involved(),
            LaneFaultKind::AddressDecoder(fault) => fault.lane_involved(),
        }
    }

    /// Performs the faulty effect of writing `value` at `address` in lane
    /// `lane` — a statically dispatched match over the concrete models.
    #[inline]
    pub fn lane_write(
        &mut self,
        memory: &mut LaneMemory,
        lane: u32,
        address: Address,
        value: bool,
    ) {
        match self {
            LaneFaultKind::StuckAt(fault) => fault.lane_write(memory, lane, address, value),
            LaneFaultKind::Transition(fault) => fault.lane_write(memory, lane, address, value),
            LaneFaultKind::CouplingInversion(fault) => {
                fault.lane_write(memory, lane, address, value)
            }
            LaneFaultKind::CouplingIdempotent(fault) => {
                fault.lane_write(memory, lane, address, value)
            }
            LaneFaultKind::CouplingState(fault) => fault.lane_write(memory, lane, address, value),
            LaneFaultKind::ReadDestructive(fault) => fault.lane_write(memory, lane, address, value),
            LaneFaultKind::DeceptiveReadDestructive(fault) => {
                fault.lane_write(memory, lane, address, value)
            }
            LaneFaultKind::IncorrectRead(fault) => fault.lane_write(memory, lane, address, value),
            LaneFaultKind::StuckOpen(fault) => fault.lane_write(memory, lane, address, value),
            LaneFaultKind::WriteDisturb(fault) => fault.lane_write(memory, lane, address, value),
            LaneFaultKind::AddressDecoder(fault) => fault.lane_write(memory, lane, address, value),
        }
    }

    /// Performs the faulty effect of reading `address` in lane `lane` —
    /// a statically dispatched match over the concrete models.
    #[inline]
    pub fn lane_read(
        &mut self,
        memory: &mut LaneMemory,
        lane: u32,
        address: Address,
        sensed_before: bool,
    ) -> bool {
        match self {
            LaneFaultKind::StuckAt(fault) => fault.lane_read(memory, lane, address, sensed_before),
            LaneFaultKind::Transition(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::CouplingInversion(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::CouplingIdempotent(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::CouplingState(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::ReadDestructive(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::DeceptiveReadDestructive(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::IncorrectRead(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::StuckOpen(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::WriteDisturb(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
            LaneFaultKind::AddressDecoder(fault) => {
                fault.lane_read(memory, lane, address, sensed_before)
            }
        }
    }
}

/// The enum participates in every [`LaneFault`] API (the generic cohort
/// kernel, hand-assembled cohorts in tests) with its match dispatch.
impl LaneFault for LaneFaultKind {
    fn involved(&self) -> Vec<Address> {
        LaneFaultKind::involved(self).to_vec()
    }

    fn involved_into(&self, out: &mut Vec<Address>) {
        // The inline set never allocates, so the scratch-reusing kernel
        // gathers enum cohorts' involved addresses allocation-free.
        out.extend_from_slice(&LaneFaultKind::involved(self));
    }

    fn lane_write(&mut self, memory: &mut LaneMemory, lane: u32, address: Address, value: bool) {
        LaneFaultKind::lane_write(self, memory, lane, address, value);
    }

    fn lane_read(
        &mut self,
        memory: &mut LaneMemory,
        lane: u32,
        address: Address,
        sensed_before: bool,
    ) -> bool {
        LaneFaultKind::lane_read(self, memory, lane, address, sensed_before)
    }
}

/// The lane-masked form of a fault: the same faulty behaviour as its
/// [`Fault`], expressed over a single bit lane of a [`LaneMemory`] so that
/// up to [`LaneMemory::LANES`] independent faults can share one walk scan
/// ([`crate::executor::run_march_lanes`]).
///
/// Implementations must confine every access to the addresses returned by
/// [`LaneFault::involved`] and to their own lane: the batched kernel
/// routes exactly the steps touching those addresses through these
/// methods, and serves every other lane with fault-free whole-word
/// operations. Lane forms are `Send` so parallel sweeps can hand whole
/// cohorts of probed lane forms to worker threads instead of
/// re-instantiating every fault per worker.
pub trait LaneFault: fmt::Debug + Send {
    /// The addresses whose walk steps must be dispatched through this
    /// lane's faulty form — every address whose read can mismatch and
    /// every address whose access can change the fault's trigger state.
    /// Must be non-empty; unlike [`Fault::involved_addresses`] there is no
    /// `None` escape hatch, because a lane form *is* the claim that the
    /// fault's behaviour is confined to these addresses (the stuck-open
    /// fault achieves that through the precomputed sensed-before stamp).
    fn involved(&self) -> Vec<Address>;

    /// Appends the [`LaneFault::involved`] set to `out` without clearing
    /// it — the allocation-free gather used by the scratch-reusing cohort
    /// kernel ([`crate::executor::run_march_lanes_scratch`]). The default
    /// delegates to [`LaneFault::involved`]; in-crate lane forms override
    /// it with their inline sets. Must append exactly the addresses
    /// `involved()` would return, in the same order.
    fn involved_into(&self, out: &mut Vec<Address>) {
        out.extend(self.involved());
    }

    /// Performs the faulty effect of writing `value` at `address` in lane
    /// `lane`.
    fn lane_write(&mut self, memory: &mut LaneMemory, lane: u32, address: Address, value: bool);

    /// Performs the faulty effect of reading `address` in lane `lane` and
    /// returns the observed value. `sensed_before` is the value the sense
    /// amplifier holds before this step in a universe where every other
    /// cell is fault-free, precomputed per walk step at build time — only
    /// history-dependent faults (the stuck-open fault) consume it.
    fn lane_read(
        &mut self,
        memory: &mut LaneMemory,
        lane: u32,
        address: Address,
        sensed_before: bool,
    ) -> bool;
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
        // Cohort arrays store lane forms inline; a variant that bloats the
        // enum would silently fatten every packed cohort, so the size is
        // pinned. The `Copy` bound is what lets packed sweeps move lane
        // forms into execution order without boxing or locking.
        fn assert_copy<T: Copy + Send>() {}
        assert_copy::<LaneFaultKind>();
        assert!(
            std::mem::size_of::<LaneFaultKind>() <= 32,
            "LaneFaultKind grew to {} bytes — keep cohort arrays dense",
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
            // The trait's allocating involved set and the inline one
            // agree.
            assert_eq!(
                LaneFault::involved(&kind),
                LaneFaultKind::involved(&kind).to_vec(),
                "{}",
                fault.name()
            );
            assert!(!kind.involved().is_empty(), "{}", fault.name());
            assert!(kind.involved().len() <= 2, "{}", fault.name());
        }
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
