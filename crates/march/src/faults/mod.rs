//! Functional memory fault models.
//!
//! Fault simulation works by wrapping the fault-free [`GoodMemory`] in a
//! [`FaultyMemory`] that lets one injected [`Fault`] perturb reads and
//! writes. The models implemented here are the classical single-cell and
//! two-cell (coupling) functional fault models from the memory-test
//! literature (van de Goor), plus the read-destructive family that the
//! paper's authors study in their earlier work. Each model is a few
//! parameters, so a fault list is a `Vec` of [`FaultModel`] — one `Copy`
//! value of at most 32 bytes per fault, which the sweeps classify, copy
//! into a simulation and name only when a report is rendered:
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

use crate::executor::MarchWalk;
use crate::fault_sim::{simulate_fault_counts_on_walk, DetectionMode};
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

/// One injected fault instance: the golden path's interface.
///
/// A fault sees every read and write of the memory and decides how the
/// underlying fault-free state ([`GoodMemory`]) is affected and what value
/// a read returns. Addresses the fault does not involve must behave
/// normally. Its [`Display`](fmt::Display) form is the short instance
/// name, e.g. `"SAF0@17"`.
pub trait Fault: fmt::Debug + fmt::Display {
    /// The instance name, rendered: [`Display`](fmt::Display) as a
    /// `String`.
    fn name(&self) -> String {
        self.to_string()
    }

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

    /// Simulates this fault on `walk` in place — the per-fault golden
    /// path, [`simulate_fault_counts_on_walk`] — and returns its mismatch
    /// count. [`FaultModel`] overrides it to select its model by one
    /// `match` and run the walk on that model directly, instead of
    /// matching on every access.
    fn simulate_on_walk(
        &mut self,
        walk: &MarchWalk,
        scratch: &mut GoodMemory,
        background: bool,
        mode: DetectionMode,
    ) -> usize {
        simulate_fault_counts_on_walk(walk, scratch, self, background, mode)
    }
}

/// One fault of a fault list: one of the crate's own fault models, held
/// as plain `Copy` data.
///
/// The collapsed sweep ([`crate::batch`]) reads three things off it
/// without allocating: the model and its parameters other than
/// addresses, the involved cells ([`FaultModel::involved`]), and — for
/// a class's representative — the same fault moved onto the canonical
/// walk, which it then simulates on the per-fault golden path. The golden
/// path runs a copy of the value through [`Fault::simulate_on_walk`]:
/// one `match` per simulation selects the model, whose own [`Fault`] impl
/// then runs the walk. Reports render its name through
/// [`Display`](fmt::Display) only when asked. The enum is intentionally
/// small (a unit test pins `size_of::<FaultModel>() <= 32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultModel {
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

/// The involved addresses of a [`FaultModel`], held inline: every
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

/// Runs `$body` with `$model` bound to the concrete model a
/// [`FaultModel`] wraps: one `match`, no allocation.
macro_rules! each_model {
    ($value:expr, $model:ident => $body:expr) => {
        match $value {
            FaultModel::StuckAt($model) => $body,
            FaultModel::Transition($model) => $body,
            FaultModel::CouplingInversion($model) => $body,
            FaultModel::CouplingIdempotent($model) => $body,
            FaultModel::CouplingState($model) => $body,
            FaultModel::ReadDestructive($model) => $body,
            FaultModel::DeceptiveReadDestructive($model) => $body,
            FaultModel::IncorrectRead($model) => $body,
            FaultModel::StuckOpen($model) => $body,
            FaultModel::WriteDisturb($model) => $body,
            FaultModel::AddressDecoder($model) => $body,
        }
    };
}

impl FaultModel {
    /// The fault class of the wrapped model.
    pub fn kind(&self) -> FaultKind {
        each_model!(self, model => model.kind())
    }

    /// The cells the wrapped model tells apart from the others, inline —
    /// no allocation: the victim of a single-cell model, or the aggressor
    /// then the victim (the aliased address then its target) of a
    /// two-cell one. The stuck-open victim is listed too, although its
    /// golden simulation walks every cell.
    pub fn involved(&self) -> InvolvedAddresses {
        use FaultModel as K;
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
        use FaultModel as K;
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
        use FaultModel as K;
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
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        each_model!(self, model => model.fmt(f))
    }
}

impl Fault for FaultModel {
    fn kind(&self) -> FaultKind {
        FaultModel::kind(self)
    }

    #[inline]
    fn write(&mut self, memory: &mut GoodMemory, address: Address, value: bool) {
        each_model!(self, model => model.write(memory, address, value))
    }

    #[inline]
    fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
        each_model!(self, model => model.read(memory, address))
    }

    fn involved_addresses(&self) -> Option<Vec<Address>> {
        each_model!(self, model => model.involved_addresses())
    }

    fn simulate_on_walk(
        &mut self,
        walk: &MarchWalk,
        scratch: &mut GoodMemory,
        background: bool,
        mode: DetectionMode,
    ) -> usize {
        each_model!(self, model => model.simulate_on_walk(walk, scratch, background, mode))
    }
}

macro_rules! from_models {
    ($($variant:ident($model:ty)),* $(,)?) => {
        $(impl From<$model> for FaultModel {
            fn from(model: $model) -> Self {
                FaultModel::$variant(model)
            }
        })*
    };
}

from_models!(
    StuckAt(StuckAtFault),
    Transition(TransitionFault),
    CouplingInversion(CouplingInversionFault),
    CouplingIdempotent(CouplingIdempotentFault),
    CouplingState(CouplingStateFault),
    ReadDestructive(ReadDestructiveFault),
    DeceptiveReadDestructive(DeceptiveReadDestructiveFault),
    IncorrectRead(IncorrectReadFault),
    StuckOpen(StuckOpenFault),
    WriteDisturb(WriteDisturbFault),
    AddressDecoder(AddressAliasFault),
);

/// A fault-free memory wrapped with one injected fault.
#[derive(Debug)]
pub struct FaultyMemory<F> {
    base: GoodMemory,
    fault: F,
}

impl<F: Fault> FaultyMemory<F> {
    /// Wraps `base` with `fault`.
    pub fn new(base: GoodMemory, fault: F) -> Self {
        Self { base, fault }
    }

    /// Convenience constructor: a zero-initialised memory of `capacity`
    /// cells with `fault` injected.
    pub fn with_capacity(capacity: u32, fault: F) -> Self {
        Self::new(GoodMemory::new(capacity), fault)
    }

    /// The injected fault.
    pub fn fault(&self) -> &F {
        &self.fault
    }

    /// The underlying fault-free state.
    pub fn base(&self) -> &GoodMemory {
        &self.base
    }
}

impl<F: Fault> MemoryModel for FaultyMemory<F> {
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

/// Builds the standard fault list used by the coverage and
/// degree-of-freedom experiments: every fault class instantiated at a
/// handful of representative victim locations (first cell, a mid-array
/// cell, last cell) with a neighbouring aggressor where applicable.
pub fn standard_fault_list(organization: &ArrayOrganization) -> Vec<FaultModel> {
    let capacity = organization.capacity();
    assert!(capacity >= 4, "fault list needs at least four cells");
    let victims = [0, capacity / 2, capacity - 1];
    let mut faults: Vec<FaultModel> = Vec::new();

    for &v in &victims {
        let victim = Address::new(v);
        // The aggressor is the next cell (wrapping away from the end).
        let aggressor = Address::new(if v + 1 < capacity { v + 1 } else { v - 1 });

        for value in [false, true] {
            faults.push(StuckAtFault::new(victim, value).into());
            faults.push(CouplingIdempotentFault::new(aggressor, victim, true, value).into());
            faults.push(CouplingStateFault::new(aggressor, victim, value, !value).into());
        }
        for rising in [false, true] {
            faults.push(TransitionFault::new(victim, rising).into());
            faults.push(CouplingInversionFault::new(aggressor, victim, rising).into());
        }
        faults.push(ReadDestructiveFault::new(victim).into());
        faults.push(DeceptiveReadDestructiveFault::new(victim).into());
        faults.push(IncorrectReadFault::new(victim).into());
        faults.push(StuckOpenFault::new(victim).into());
        faults.push(WriteDisturbFault::new(victim).into());
        faults.push(AddressAliasFault::new(victim, aggressor).into());
    }
    faults
}

/// Like [`standard_fault_list`], but restricted to the *static* fault
/// classes for which the first March degree of freedom (arbitrary address
/// order) provably preserves detection. The stuck-open fault is excluded:
/// its observable behaviour depends on the value left on the bit lines by
/// the *previous* read, so whether a given March test happens to catch a
/// specific SOF instance legitimately depends on the address sequence.
pub fn static_fault_list(organization: &ArrayOrganization) -> Vec<FaultModel> {
    standard_fault_list(organization)
        .into_iter()
        .filter(|fault| fault.kind() != FaultKind::StuckOpen)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_memory_delegates_to_fault() {
        let fault = StuckAtFault::new(Address::new(2), true);
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
        let kinds: std::collections::BTreeSet<String> =
            list.iter().map(|fault| fault.kind().to_string()).collect();
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
        assert!(list.iter().all(|f| f.kind() != FaultKind::StuckOpen));
        assert!(list.len() < standard_fault_list(&organization).len());
    }

    #[test]
    fn fault_model_stays_copy_and_small() {
        // A fault list holds one value per fault and sweeps copy each
        // into its simulation; a variant that bloats the enum would
        // fatten every population, so the size is pinned.
        fn assert_copy<T: Copy + Send + Sync>() {}
        assert_copy::<FaultModel>();
        assert!(
            std::mem::size_of::<FaultModel>() <= 32,
            "FaultModel grew to {} bytes",
            std::mem::size_of::<FaultModel>()
        );
    }

    #[test]
    fn every_standard_fault_runs_the_golden_interface_like_its_model() {
        let organization = ArrayOrganization::new(4, 4).unwrap();
        for fault in standard_fault_list(&organization) {
            let name = fault.to_string();
            assert_eq!(fault.name(), name);
            assert!(!fault.involved().is_empty(), "{name}");
            assert!(fault.involved().len() <= 2, "{name}");
            // The inline set is the golden path's, where it has one.
            if let Some(involved) = fault.involved_addresses() {
                assert_eq!(involved, fault.involved().to_vec(), "{name}");
            }
            // The value and the model it wraps behave identically.
            let (mut value, mut model) = (fault, fault);
            let (mut by_value, mut by_model) = (GoodMemory::new(16), GoodMemory::new(16));
            for step in 0..64u32 {
                let address = Address::new(step * 7 % 16);
                if step % 3 == 0 {
                    let observed = Fault::read(&mut value, &mut by_value, address);
                    let expected = each_model!(&mut model, m => m.read(&mut by_model, address));
                    assert_eq!(observed, expected, "{name} step {step}");
                } else {
                    let bit = step % 2 == 0;
                    Fault::write(&mut value, &mut by_value, address, bit);
                    each_model!(&mut model, m => m.write(&mut by_model, address, bit));
                }
            }
            assert_eq!(by_value, by_model, "{name}");
        }
    }

    #[test]
    fn relocation_moves_the_cells_and_keeps_the_model_code() {
        let organization = ArrayOrganization::new(4, 4).unwrap();
        let mut codes = std::collections::BTreeSet::new();
        for fault in standard_fault_list(&organization) {
            let moved = fault.relocated(|address| Address::new(address.value() + 100));
            assert_eq!(moved.model_code(), fault.model_code(), "{fault:?}");
            assert!(fault.model_code() < 64, "{fault:?}");
            let shifted: Vec<u32> = fault.involved().iter().map(|a| a.value() + 100).collect();
            let involved: Vec<u32> = moved.involved().iter().map(|a| a.value()).collect();
            assert_eq!(involved, shifted, "{fault:?}");
            assert_eq!(
                moved.relocated(|address| Address::new(address.value() - 100)),
                fault
            );
            codes.insert(fault.model_code());
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
