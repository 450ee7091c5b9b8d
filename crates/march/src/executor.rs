//! March test execution: the fault-simulation kernel.
//!
//! The hot path of every coverage/degree-of-freedom experiment is "run one
//! March test over one perturbed memory, thousands of times". The kernel
//! here is built for that workload:
//!
//! * [`AddressPlan`] computes the ⇑ permutation of an [`AddressOrder`]
//!   **once** and serves both directions by index arithmetic, so neither
//!   the executor nor the low-power scheduler re-allocates address
//!   sequences per element;
//! * [`MarchWalk`] describes a whole `(test, order, organization)`
//!   traversal implicitly — the permutation, its inverse and two rows of
//!   code bytes per element, eight bytes per cell — and is shared,
//!   read-only, across every fault of a sweep (and across threads); steps
//!   are computed from the permutation, never stored;
//! * [`run_march_walk`] executes a walk against any [`MemoryModel`] and
//!   reports every mismatch; [`run_march_until_detected`] is the early-exit
//!   variant for sweeps that only need the detected/missed bit — it stops
//!   at the first mismatching read;
//! * [`run_march`] keeps the original convenience signature by building a
//!   throw-away walk internally.

use std::ops::ControlFlow;

use sram_model::address::Address;
use sram_model::config::ArrayOrganization;

use crate::address_order::{AddressOrder, LinearOrder};
use crate::algorithm::MarchTest;
use crate::element::{AddressDirection, MarchElement};
use crate::memory::MemoryModel;
use crate::operation::MarchOp;

/// A detected mismatch: a read returned something other than its expected
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The element in which the failing read occurred.
    pub element: usize,
    /// The address that failed.
    pub address: Address,
    /// The value the March test expected.
    pub expected: bool,
    /// The value the memory returned.
    pub observed: bool,
}

/// Result of running a March test.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MarchResult {
    /// Every read mismatch, in occurrence order.
    pub mismatches: Vec<Mismatch>,
    /// Number of operations executed.
    pub operations: u64,
    /// Number of read operations executed.
    pub reads: u64,
    /// Number of write operations executed.
    pub writes: u64,
}

impl MarchResult {
    /// `true` when no read mismatched — the memory passes the test.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// `true` when at least one read mismatched — a fault was detected.
    pub fn detected_fault(&self) -> bool {
        !self.mismatches.is_empty()
    }
}

/// The ⇑ permutation of an address order, computed once and indexable in
/// both directions.
///
/// A March ⇓ sequence is by definition the exact reverse of ⇑, so a single
/// materialised permutation serves every element of a test; descending
/// positions are resolved with index arithmetic instead of a reversed
/// copy. Both [`MarchWalk`] and the low-power scheduler in `lp-precharge`
/// build on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressPlan {
    ascending: Vec<Address>,
}

impl AddressPlan {
    /// Materialises the ⇑ permutation of `order` over `organization`.
    pub fn new(order: &dyn AddressOrder, organization: &ArrayOrganization) -> Self {
        Self {
            ascending: order.ascending(organization),
        }
    }

    /// Number of addresses in the permutation.
    pub fn len(&self) -> usize {
        self.ascending.len()
    }

    /// `true` when the plan covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.ascending.is_empty()
    }

    /// The address at `position` of an element running in `direction`
    /// (⇕ uses ⇑), or `None` past the end.
    #[inline]
    pub fn at(&self, direction: AddressDirection, position: usize) -> Option<Address> {
        match direction {
            AddressDirection::Ascending | AddressDirection::Either => {
                self.ascending.get(position).copied()
            }
            AddressDirection::Descending => {
                let len = self.ascending.len();
                if position < len {
                    Some(self.ascending[len - 1 - position])
                } else {
                    None
                }
            }
        }
    }

    /// Iterates the sequence of an element running in `direction`.
    pub fn iter(&self, direction: AddressDirection) -> impl ExactSizeIterator<Item = Address> + '_ {
        let len = self.ascending.len();
        (0..len).map(move |pos| self.at(direction, pos).expect("position < len"))
    }
}

// The code byte of one walk step: bits 0–1 the operation, bit 2
// `last_op_on_address`, bit 3 `last_op_of_element`.
const OP_MASK: u8 = 0b0011;
const READ_BIT: u8 = 0b0010;
const VALUE_BIT: u8 = 0b0001;
const LAST_ON_ADDRESS: u8 = 0b0100;
const LAST_OF_ELEMENT: u8 = 0b1000;

#[inline]
fn op_code(op: MarchOp) -> u8 {
    match op {
        MarchOp::W0 => 0b00,
        MarchOp::W1 => 0b01,
        MarchOp::R0 => 0b10,
        MarchOp::R1 => 0b11,
    }
}

#[inline]
fn decode_op(code: u8) -> MarchOp {
    match code & OP_MASK {
        0b00 => MarchOp::W0,
        0b01 => MarchOp::W1,
        0b10 => MarchOp::R0,
        _ => MarchOp::R1,
    }
}

/// One March element of a [`MarchWalk`]. Every element visits each cell
/// exactly once, at position `p` of the ⇑ permutation (`capacity − 1 − p`
/// under ⇓), so its step at `(position, op)` is `first_step + position ×
/// ops + op` and its code bytes depend on the position only through the
/// two rows kept here.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WalkElement {
    /// Walk index of the element's first step.
    first_step: u32,
    /// `true` for ⇓ (⇕ runs as ⇑).
    descending: bool,
    /// The code bytes of the element's operations: `rows[0]` at every
    /// position but the last, `rows[1]` — which also ends the element —
    /// at the last.
    rows: [Box<[u8]>; 2],
}

impl WalkElement {
    /// Operations applied to each address.
    #[inline]
    fn ops(&self) -> usize {
        self.rows[0].len()
    }

    /// The code bytes at `position` of a walk whose last position is
    /// `last`.
    #[inline]
    fn row(&self, position: usize, last: usize) -> &[u8] {
        &self.rows[usize::from(position == last)]
    }
}

/// Visits `row`'s operations at each of `addresses` in turn, as steps of
/// `element`.
#[inline]
fn try_visit_row<'a, F>(
    element: usize,
    row: &[u8],
    addresses: impl Iterator<Item = &'a Address>,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(usize, Address, u8) -> ControlFlow<()>,
{
    for &address in addresses {
        for &code in row {
            visit(element, address, code)?;
        }
    }
    ControlFlow::Continue(())
}

/// A `(test, order, organization)` traversal precomputed once and shared
/// across every fault of a sweep.
///
/// The walk is implicit: it keeps the ⇑ permutation ([`AddressPlan`]), its
/// inverse and two rows of code bytes per element — eight bytes per cell
/// whatever the test's length — and computes each step from them. Full
/// runs scan the permutation element by element; a localised fault finds
/// each of its addresses at one position per element through the inverse,
/// so its filtered run visits only its own steps. Construction is
/// `O(cells)`, and execution is allocation-free for full walks and
/// single-address filtered runs, with one small position buffer for
/// multi-address faults — which is what makes million-fault sweeps
/// tractable. The walk is immutable and `Sync`, so parallel sweeps share
/// one instance across threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchWalk {
    test_name: String,
    order_name: String,
    capacity: u32,
    reads: u64,
    writes: u64,
    len: usize,
    plan: AddressPlan,
    /// The ⇑ position of each address: `plan.ascending[inverse[a]] == a`.
    inverse: Vec<u32>,
    elements: Vec<WalkElement>,
    locality_safe: bool,
}

/// `true` when a fault-free cell can never mismatch under `test`,
/// regardless of the pre-test background: every March element applies the
/// same operation sequence to every cell (only the interleaving differs),
/// so one symbolic pass over the per-cell sequence decides it. The value
/// starts unknown (background-dependent); a read in an unknown or
/// different state could mismatch on a good memory, which would make the
/// locality-filtered execution diverge from the full walk.
fn fault_free_reads_always_match(test: &MarchTest) -> bool {
    let mut state: Option<bool> = None;
    for element in test.elements() {
        for &op in element.ops() {
            if let Some(value) = op.write_value() {
                state = Some(value);
            } else {
                let expected = op.expected_value().expect("reads have expectations");
                if state != Some(expected) {
                    return false;
                }
            }
        }
    }
    true
}

impl MarchWalk {
    /// Precomputes the traversal of `test` over `organization` under
    /// `order`.
    ///
    /// # Panics
    ///
    /// Panics if the test has more than `u16::MAX` elements or an element
    /// has more than `u8::MAX` operations — far beyond any published March
    /// algorithm — since step encodings reserve 16/8 bits for them; if the
    /// walk has more than `u32::MAX` steps (checked before anything is
    /// allocated), since step indices are `u32`; and if `order` breaks the
    /// [`AddressOrder`] contract by not visiting every address of
    /// `organization` exactly once.
    pub fn new(
        test: &MarchTest,
        order: &dyn AddressOrder,
        organization: &ArrayOrganization,
    ) -> Self {
        let capacity = organization.capacity();
        assert!(
            test.element_count() <= usize::from(u16::MAX),
            "march test has too many elements for the packed walk"
        );
        let len = test.operation_count() as u64 * u64::from(capacity);
        assert!(
            len <= u64::from(u32::MAX),
            "walk too large for 32-bit step indices"
        );
        let plan = AddressPlan::new(order, organization);
        assert_eq!(
            plan.len(),
            capacity as usize,
            "address order {:?} must visit each of the {capacity} addresses exactly once",
            order.name()
        );
        let mut inverse = vec![u32::MAX; capacity as usize];
        for (position, address) in plan.ascending.iter().enumerate() {
            let slot = inverse
                .get_mut(address.value() as usize)
                .unwrap_or_else(|| panic!("address order {:?} leaves the array", order.name()));
            assert!(
                *slot == u32::MAX,
                "address order {:?} visits address {} twice",
                order.name(),
                address.value()
            );
            *slot = position as u32;
        }
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut first_step = 0u32;
        let mut elements = Vec::with_capacity(test.element_count());
        for element in test.elements() {
            let ops = element.ops();
            assert!(
                ops.len() <= usize::from(u8::MAX),
                "march element has too many operations for the packed walk"
            );
            let row = |ends_element: bool| -> Box<[u8]> {
                let mut codes: Box<[u8]> = ops.iter().map(|&op| op_code(op)).collect();
                let tail = codes.last_mut().expect("elements have operations");
                *tail |= LAST_ON_ADDRESS;
                if ends_element {
                    *tail |= LAST_OF_ELEMENT;
                }
                codes
            };
            elements.push(WalkElement {
                first_step,
                descending: element.direction() == AddressDirection::Descending,
                rows: [row(false), row(true)],
            });
            first_step += (ops.len() * plan.len()) as u32;
            reads += (element.read_count() * plan.len()) as u64;
            writes += (element.write_count() * plan.len()) as u64;
        }
        Self {
            test_name: test.name().to_string(),
            order_name: order.name().to_string(),
            capacity,
            reads,
            writes,
            len: len as usize,
            plan,
            inverse,
            elements,
            locality_safe: fault_free_reads_always_match(test),
        }
    }

    /// `true` when the filtered fast path
    /// ([`run_march_walk_filtered`]) is observationally equivalent to the
    /// full walk for faults confined to their involved addresses: a
    /// fault-free cell can never mismatch under this test, for any
    /// background. `false` for malformed or deliberately non-initialising
    /// tests (e.g. one that reads before any write), whose full runs
    /// mismatch on perfectly good cells — those must run unfiltered.
    pub fn locality_safe(&self) -> bool {
        self.locality_safe
    }

    /// Number of walk steps touching each address: every element applies
    /// all of its operations to every cell, so this is the test's
    /// operation count for every address alike.
    pub(crate) fn ops_per_address(&self) -> usize {
        self.elements.iter().map(WalkElement::ops).sum()
    }

    /// The ⇑ position of `address`.
    ///
    /// # Panics
    ///
    /// Panics if `address` is outside the walk's capacity.
    #[inline]
    pub(crate) fn up_position(&self, address: Address) -> u32 {
        self.inverse[address.value() as usize]
    }

    /// The addresses at the first and at the last ⇑ position.
    #[inline]
    pub(crate) fn ends(&self) -> (Address, Address) {
        let ascending = &self.plan.ascending;
        (ascending[0], ascending[ascending.len() - 1])
    }

    /// The same March test over a one-row array of `cells` cells in
    /// identity order, so that address `p` sits at ⇑ position `p`: the
    /// canonical walk the collapsed sweep simulates its fault classes on
    /// ([`crate::batch`]). ⇕ elements come back as ⇑, which they run as.
    pub(crate) fn canonical(&self, cells: u32) -> MarchWalk {
        let elements = self
            .elements
            .iter()
            .map(|element| {
                let ops = element.rows[0]
                    .iter()
                    .map(|&code| decode_op(code))
                    .collect();
                if element.descending {
                    MarchElement::descending(ops)
                } else {
                    MarchElement::ascending(ops)
                }
            })
            .collect();
        let organization =
            ArrayOrganization::new(1, cells).expect("a one-row array of a few cells is valid");
        MarchWalk::new(
            &MarchTest::new(self.test_name.clone(), elements),
            &LinearOrder,
            &organization,
        )
    }

    /// Visits every step of the walk in execution order as
    /// `(element, address, code)`, stopping when `visit` breaks. Each
    /// element runs every position but its last on one fixed row straight
    /// off the permutation (reversed under ⇓), then its last position —
    /// the full-walk loop of the per-fault path, with no branch per
    /// position.
    #[inline]
    fn try_for_each_step<F>(&self, mut visit: F) -> ControlFlow<()>
    where
        F: FnMut(usize, Address, u8) -> ControlFlow<()>,
    {
        let visit = &mut visit;
        for (index, element) in self.elements.iter().enumerate() {
            let [body, tail] = &element.rows;
            let ascending = self.plan.ascending.as_slice();
            if element.descending {
                let Some((last, rest)) = ascending.split_first() else {
                    continue;
                };
                try_visit_row(index, body, rest.iter().rev(), visit)?;
                try_visit_row(index, tail, [last].into_iter(), visit)?;
            } else {
                let Some((last, rest)) = ascending.split_last() else {
                    continue;
                };
                try_visit_row(index, body, rest.iter(), visit)?;
                try_visit_row(index, tail, [last].into_iter(), visit)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Visits every step touching one of `members` in execution order as
    /// `(element, member, code)`, stopping when `visit` breaks. Each member
    /// is an address's ⇑ position paired with what `visit` should receive
    /// for it; `members` must be sorted by position, with no position
    /// twice. Every element visits the members in position order — ⇓ in
    /// reverse — applying each one's operations back to back, so the
    /// visits come in ascending step order without a schedule to sort.
    #[inline]
    fn try_for_each_step_among<T, F>(&self, members: &[(u32, T)], mut visit: F) -> ControlFlow<()>
    where
        T: Copy,
        F: FnMut(usize, T, u8) -> ControlFlow<()>,
    {
        let last = self.plan.len() - 1;
        for (index, element) in self.elements.iter().enumerate() {
            if element.descending {
                for &(up, member) in members.iter().rev() {
                    for &code in element.row(last - up as usize, last) {
                        visit(index, member, code)?;
                    }
                }
            } else {
                for &(up, member) in members {
                    for &code in element.row(up as usize, last) {
                        visit(index, member, code)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// A run's result: its `mismatches` with the full walk's totals.
    fn result(&self, mismatches: Vec<Mismatch>) -> MarchResult {
        MarchResult {
            mismatches,
            operations: self.reads + self.writes,
            reads: self.reads,
            writes: self.writes,
        }
    }

    /// Name of the March test the walk was built from.
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// Name of the address order the walk was built from.
    pub fn order_name(&self) -> &str {
        &self.order_name
    }

    /// Number of addressable cells of the organization the walk covers.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Total number of operations in the walk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the walk contains no operations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of read operations in the walk.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write operations in the walk.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

/// Applies one step to `memory`: a write stores its value, a read returns
/// `Some(observed)` when it mismatches its expectation.
#[inline]
fn apply_step<M: MemoryModel + ?Sized>(memory: &mut M, address: Address, code: u8) -> Option<bool> {
    let value = code & VALUE_BIT != 0;
    if code & READ_BIT == 0 {
        memory.write(address, value);
        None
    } else {
        let observed = memory.read(address);
        (observed != value).then_some(observed)
    }
}

/// Applies one step to `memory`, recording a mismatching read.
#[inline]
fn record_step<M: MemoryModel + ?Sized>(
    memory: &mut M,
    mismatches: &mut Vec<Mismatch>,
    element: usize,
    address: Address,
    code: u8,
) -> ControlFlow<()> {
    if let Some(observed) = apply_step(memory, address, code) {
        mismatches.push(Mismatch {
            element,
            address,
            expected: !observed,
            observed,
        });
    }
    ControlFlow::Continue(())
}

/// Runs a precomputed `walk` on `memory` and reports every read mismatch.
pub fn run_march_walk<M: MemoryModel + ?Sized>(walk: &MarchWalk, memory: &mut M) -> MarchResult {
    let mut mismatches = Vec::new();
    let _ = walk.try_for_each_step(|element, address, code| {
        record_step(memory, &mut mismatches, element, address, code)
    });
    walk.result(mismatches)
}

/// Runs a precomputed `walk` on `memory`, stopping at the first mismatching
/// read. Returns `true` when the walk detected a fault.
///
/// This is the sweep kernel for coverage and degree-of-freedom experiments,
/// where only the detected/missed bit matters: a detected fault typically
/// mismatches within the first elements of the test, so the early exit
/// skips most of the remaining `O(ops × cells)` work.
pub fn run_march_until_detected<M: MemoryModel + ?Sized>(walk: &MarchWalk, memory: &mut M) -> bool {
    walk.try_for_each_step(|_, address, code| match apply_step(memory, address, code) {
        Some(_) => ControlFlow::Break(()),
        None => ControlFlow::Continue(()),
    })
    .is_break()
}

/// Visits every step of `walk` touching one of the `involved` addresses,
/// in execution order, each step once: the involved-step schedule of the
/// per-fault filtered runners. A single address (the bulk of every fault
/// list) is visited straight off the walk; several addresses (the
/// coupling pair, the decoder alias) are first sorted by position into one
/// small buffer, duplicates dropped.
///
/// # Panics
///
/// Panics if an involved address is outside the walk's capacity.
fn try_for_each_involved_step<F>(
    walk: &MarchWalk,
    involved: &[Address],
    visit: F,
) -> ControlFlow<()>
where
    F: FnMut(usize, Address, u8) -> ControlFlow<()>,
{
    match involved {
        [] => ControlFlow::Continue(()),
        [address] => walk.try_for_each_step_among(&[(walk.up_position(*address), *address)], visit),
        addresses => {
            let mut members: Vec<(u32, Address)> = addresses
                .iter()
                .map(|&address| (walk.up_position(address), address))
                .collect();
            members.sort_unstable_by_key(|&(up, _)| up);
            members.dedup_by_key(|&mut (up, _)| up);
            walk.try_for_each_step_among(&members, visit)
        }
    }
}

/// Runs only the steps of `walk` that touch one of the `involved`
/// addresses, reporting every read mismatch among them.
///
/// This is the locality fast path of the kernel: a fault whose behaviour
/// is confined to a few cells (see
/// [`crate::faults::Fault::involved_addresses`]) is observationally
/// equivalent under the full walk and under its filtered slice — skipped
/// cells behave fault-free, and a March read of a fault-free cell always
/// matches its expectation. Instead of `O(ops × cells)` the simulation
/// costs `O(ops × involved)`.
///
/// The returned operation/read/write totals are those of the **full**
/// walk, so the result is directly comparable (and equal, for a fault
/// confined to `involved`) to [`run_march_walk`] on the same memory.
pub fn run_march_walk_filtered<M: MemoryModel + ?Sized>(
    walk: &MarchWalk,
    memory: &mut M,
    involved: &[Address],
) -> MarchResult {
    let mut mismatches = Vec::new();
    let _ = try_for_each_involved_step(walk, involved, |element, address, code| {
        record_step(memory, &mut mismatches, element, address, code)
    });
    walk.result(mismatches)
}

/// Early-exit variant of [`run_march_walk_filtered`]: runs only the steps
/// touching `involved` addresses and returns `true` at the first
/// mismatching read.
pub fn run_march_until_detected_filtered<M: MemoryModel + ?Sized>(
    walk: &MarchWalk,
    memory: &mut M,
    involved: &[Address],
) -> bool {
    try_for_each_involved_step(walk, involved, |_, address, code| {
        match apply_step(memory, address, code) {
            Some(_) => ControlFlow::Break(()),
            None => ControlFlow::Continue(()),
        }
    })
    .is_break()
}

/// Runs `test` on `memory` and reports every read mismatch.
///
/// Builds a throw-away [`MarchWalk`] internally; callers that simulate
/// many faults under the same `(test, order, organization)` should build
/// the walk once and call [`run_march_walk`].
pub fn run_march(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
    memory: &mut dyn MemoryModel,
) -> MarchResult {
    let walk = MarchWalk::new(test, order, organization);
    run_march_walk(&walk, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::{ColumnMajor, PseudoRandomOrder, WordLineAfterWordLine};
    use crate::faults::{standard_fault_list, Fault, FaultyMemory};
    use crate::library;
    use crate::memory::GoodMemory;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    #[test]
    fn fault_free_memory_passes_every_library_test() {
        let organization = org();
        for test in library::all_algorithms() {
            let mut memory = GoodMemory::new(organization.capacity());
            let result = run_march(&test, &WordLineAfterWordLine, &organization, &mut memory);
            assert!(result.passed(), "{} failed on a good memory", test.name());
            assert_eq!(
                result.operations,
                test.total_operations(u64::from(organization.capacity()))
            );
            assert_eq!(
                result.reads + result.writes,
                result.operations,
                "{}: reads + writes must equal operations",
                test.name()
            );
        }
    }

    #[test]
    fn coverage_independent_of_order_for_good_memory() {
        let organization = org();
        let test = library::march_c_minus();
        let mut m1 = GoodMemory::new(organization.capacity());
        let mut m2 = GoodMemory::new(organization.capacity());
        let r1 = run_march(&test, &WordLineAfterWordLine, &organization, &mut m1);
        let r2 = run_march(&test, &ColumnMajor, &organization, &mut m2);
        assert!(r1.passed() && r2.passed());
    }

    #[test]
    fn stuck_cell_is_detected() {
        // A crude inline stuck-at-0: a memory whose cell 5 never stores 1.
        struct StuckAt0(GoodMemory);
        impl MemoryModel for StuckAt0 {
            fn capacity(&self) -> u32 {
                self.0.capacity()
            }
            fn read(&mut self, address: Address) -> bool {
                self.0.read(address)
            }
            fn write(&mut self, address: Address, value: bool) {
                if address.value() == 5 {
                    self.0.write(address, false);
                } else {
                    self.0.write(address, value);
                }
            }
        }
        let organization = org();
        let mut memory = StuckAt0(GoodMemory::new(organization.capacity()));
        let result = run_march(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
            &mut memory,
        );
        assert!(result.detected_fault());
        assert!(result
            .mismatches
            .iter()
            .all(|m| m.address == Address::new(5)));
    }

    #[test]
    fn address_plan_serves_both_directions_from_one_permutation() {
        let organization = ArrayOrganization::new(4, 8).unwrap();
        let order = PseudoRandomOrder::new(99);
        let plan = AddressPlan::new(&order, &organization);
        assert_eq!(plan.len(), 32);
        assert!(!plan.is_empty());
        let up: Vec<Address> = plan.iter(AddressDirection::Ascending).collect();
        let either: Vec<Address> = plan.iter(AddressDirection::Either).collect();
        let mut down: Vec<Address> = plan.iter(AddressDirection::Descending).collect();
        assert_eq!(up, order.ascending(&organization));
        assert_eq!(up, either);
        down.reverse();
        assert_eq!(up, down, "⇓ must be the exact reverse of ⇑");
        assert_eq!(plan.at(AddressDirection::Ascending, 32), None);
        assert_eq!(plan.at(AddressDirection::Descending, 32), None);
    }

    #[test]
    fn walk_based_run_equals_legacy_signature_run() {
        let organization = org();
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &ColumnMajor, &organization);
            assert_eq!(walk.test_name(), test.name());
            assert_eq!(walk.order_name(), "column major");
            assert_eq!(walk.capacity(), organization.capacity());
            assert_eq!(
                walk.len() as u64,
                test.total_operations(u64::from(organization.capacity()))
            );
            let mut m1 = GoodMemory::new(organization.capacity());
            let mut m2 = GoodMemory::new(organization.capacity());
            let from_walk = run_march_walk(&walk, &mut m1);
            let from_legacy = run_march(&test, &ColumnMajor, &organization, &mut m2);
            assert_eq!(from_walk, from_legacy, "{}", test.name());
        }
    }

    #[test]
    fn early_exit_agrees_with_the_full_run_on_every_standard_fault() {
        let organization = org();
        let faults = standard_fault_list(&organization);
        for test in library::table1_algorithms() {
            let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
            for &fault in &faults {
                let mut full = FaultyMemory::new(GoodMemory::new(organization.capacity()), fault);
                let mut early = FaultyMemory::new(GoodMemory::new(organization.capacity()), fault);
                let full_result = run_march_walk(&walk, &mut full);
                let early_detected = run_march_until_detected(&walk, &mut early);
                assert_eq!(
                    full_result.detected_fault(),
                    early_detected,
                    "{} / {}",
                    test.name(),
                    fault.name()
                );
            }
        }
    }

    #[test]
    fn filtered_run_is_observationally_equivalent_to_the_full_walk() {
        // The locality fast path must agree with the unfiltered kernel on
        // the complete mismatch list — not just the detection bit — for
        // every localised fault, algorithm, order and background.
        for organization in [
            ArrayOrganization::new(4, 4).unwrap(),
            ArrayOrganization::new(3, 7).unwrap(),
        ] {
            let faults = standard_fault_list(&organization);
            for test in library::all_algorithms() {
                for order in [
                    &WordLineAfterWordLine as &dyn crate::address_order::AddressOrder,
                    &ColumnMajor,
                ] {
                    let walk = MarchWalk::new(&test, order, &organization);
                    for &fault in &faults {
                        let Some(involved) = fault.involved_addresses() else {
                            continue; // global faults have no filtered path
                        };
                        for background in [false, true] {
                            let mut full_memory = FaultyMemory::new(
                                GoodMemory::filled(organization.capacity(), background),
                                fault,
                            );
                            let mut filtered_memory = FaultyMemory::new(
                                GoodMemory::filled(organization.capacity(), background),
                                fault,
                            );
                            let full = run_march_walk(&walk, &mut full_memory);
                            let filtered =
                                run_march_walk_filtered(&walk, &mut filtered_memory, &involved);
                            assert_eq!(
                                full,
                                filtered,
                                "{} / {} / {} / background {background}",
                                test.name(),
                                order.name(),
                                fault.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The `(step index, payload)` list of the steps touching `address` —
    /// payload = element (bits 16–31), op index (bits 8–15), code byte
    /// (bits 0–7) — read off the walk's per-address visit, with each step
    /// index computed from the element's first step and the address's
    /// position.
    fn steps_at_address(walk: &MarchWalk, address: Address) -> Vec<(u32, u32)> {
        let up = walk.up_position(address) as usize;
        let last = walk.capacity as usize - 1;
        let mut list = Vec::new();
        let mut previous = (usize::MAX, 0usize);
        let _ = walk.try_for_each_step_among(&[(up as u32, ())], |element, (), code| {
            let op_index = if previous.0 == element {
                previous.1 + 1
            } else {
                0
            };
            previous = (element, op_index);
            let walk_element = &walk.elements[element];
            let position = if walk_element.descending {
                last - up
            } else {
                up
            };
            let index = walk_element.first_step as usize + position * walk_element.ops() + op_index;
            list.push((
                index as u32,
                (element as u32) << 16 | (op_index as u32) << 8 | u32::from(code),
            ));
            ControlFlow::Continue(())
        });
        list
    }

    /// Every step of the walk as `(address, element, code)`, through the
    /// full-walk loop.
    fn scanned(walk: &MarchWalk) -> Vec<(u32, usize, u8)> {
        let mut steps = Vec::new();
        let _ = walk.try_for_each_step(|element, address, code| {
            steps.push((address.value(), element, code));
            ControlFlow::Continue(())
        });
        steps
    }

    /// The steps touching `involved` as `(address, element, code)`,
    /// through the filtered runners' visit.
    fn involved_steps(walk: &MarchWalk, involved: &[Address]) -> Vec<(u32, usize, u8)> {
        let mut steps = Vec::new();
        let _ = try_for_each_involved_step(walk, involved, |element, address, code| {
            steps.push((address.value(), element, code));
            ControlFlow::Continue(())
        });
        steps
    }

    /// One materialised step: `(address, element, op index, code)`.
    type Step = (u32, u16, u8, u8);

    /// The materialising walk builder the implicit walk replaced, kept as
    /// the reference it is pinned to: every step in execution order, plus
    /// the read and write totals.
    fn materialised_walk(
        test: &MarchTest,
        order: &dyn AddressOrder,
        organization: &ArrayOrganization,
    ) -> (Vec<Step>, u64, u64) {
        let plan = AddressPlan::new(order, organization);
        let mut steps = Vec::new();
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (element_index, element) in test.elements().iter().enumerate() {
            let ops = element.ops();
            let last_position = plan.len().saturating_sub(1);
            for (position, address) in plan.iter(element.direction()).enumerate() {
                for (op_index, &op) in ops.iter().enumerate() {
                    let mut code = op_code(op);
                    if op.is_read() {
                        reads += 1;
                    } else {
                        writes += 1;
                    }
                    if op_index == ops.len() - 1 {
                        code |= LAST_ON_ADDRESS;
                        if position == last_position {
                            code |= LAST_OF_ELEMENT;
                        }
                    }
                    steps.push((address.value(), element_index as u16, op_index as u8, code));
                }
            }
        }
        (steps, reads, writes)
    }

    #[test]
    fn implicit_walk_matches_the_materialising_builder() {
        use crate::address_order::{AddressComplementOrder, LinearOrder};
        use crate::element::MarchElement;
        use MarchOp::{R0, R1, W0, W1};

        let mut tests = library::all_algorithms();
        tests.extend([
            MarchTest::new(
                "reads first",
                vec![
                    MarchElement::ascending(vec![R1, W0]),
                    MarchElement::descending(vec![R0]),
                ],
            ),
            MarchTest::new(
                "back-to-back reads",
                vec![
                    MarchElement::ascending(vec![W0]),
                    MarchElement::descending(vec![R0, R0, W1, R1, R1]),
                    MarchElement::ascending(vec![R1, R1]),
                ],
            ),
            MarchTest::new(
                "either",
                vec![
                    MarchElement::either(vec![W1]),
                    MarchElement::either(vec![R1, W0]),
                    MarchElement::descending(vec![R0, W1]),
                    MarchElement::either(vec![R1]),
                ],
            ),
            MarchTest::new(
                "single ops",
                vec![
                    MarchElement::ascending(vec![W0]),
                    MarchElement::ascending(vec![R0]),
                    MarchElement::descending(vec![W1]),
                    MarchElement::descending(vec![R1]),
                    MarchElement::either(vec![R1]),
                ],
            ),
        ]);
        let pseudo_random = PseudoRandomOrder::new(7);
        let orders: [&dyn AddressOrder; 5] = [
            &WordLineAfterWordLine,
            &ColumnMajor,
            &LinearOrder,
            &pseudo_random,
            &AddressComplementOrder,
        ];
        let mut combinations = 0;
        for (rows, cols) in [
            (1, 1),
            (1, 2),
            (2, 1),
            (1, 3),
            (2, 2),
            (3, 7),
            (4, 4),
            (5, 3),
            (8, 8),
        ] {
            let organization = ArrayOrganization::new(rows, cols).unwrap();
            let capacity = organization.capacity();
            for test in &tests {
                for order in orders {
                    let context = format!("{} / {} / {rows}x{cols}", test.name(), order.name());
                    let walk = MarchWalk::new(test, order, &organization);
                    let (reference, reads, writes) = materialised_walk(test, order, &organization);
                    assert_eq!(
                        (walk.len(), walk.reads(), walk.writes()),
                        (reference.len(), reads, writes),
                        "{context}: totals"
                    );
                    let projected: Vec<(u32, usize, u8)> = reference
                        .iter()
                        .map(|&(address, element, _, code)| (address, usize::from(element), code))
                        .collect();
                    assert_eq!(scanned(&walk), projected, "{context}: full walk");
                    let mut lists = vec![Vec::new(); capacity as usize];
                    for (index, &(address, element, op_index, code)) in reference.iter().enumerate()
                    {
                        lists[address as usize].push((
                            index as u32,
                            u32::from(element) << 16 | u32::from(op_index) << 8 | u32::from(code),
                        ));
                    }
                    for (raw, list) in lists.iter().enumerate() {
                        let address = Address::new(raw as u32);
                        assert_eq!(
                            &steps_at_address(&walk, address),
                            list,
                            "{context}: address {raw}"
                        );
                    }
                    let pair = [Address::new(capacity / 2), Address::new(capacity - 1)];
                    let filtered: Vec<(u32, usize, u8)> = projected
                        .iter()
                        .copied()
                        .filter(|step| pair.contains(&Address::new(step.0)))
                        .collect();
                    assert_eq!(involved_steps(&walk, &pair), filtered, "{context}: pair");
                    combinations += 1;
                }
            }
        }
        assert!(combinations > 400, "{combinations} combinations");
    }

    #[test]
    fn every_address_owns_one_step_per_test_operation() {
        // Which steps those are, and in what order, the implicit-walk test
        // pins against the materialising builder.
        let organization = org();
        let test = library::march_ss();
        let walk = MarchWalk::new(&test, &ColumnMajor, &organization);
        assert_eq!(walk.ops_per_address(), test.operation_count());
        for raw in 0..organization.capacity() {
            let list = steps_at_address(&walk, Address::new(raw));
            assert_eq!(list.len(), walk.ops_per_address(), "address {raw}");
        }
    }

    #[test]
    fn involved_steps_are_the_walk_filtered_to_the_involved_addresses() {
        let organization = org();
        let test = library::march_ss();
        let walk = MarchWalk::new(&test, &ColumnMajor, &organization);
        let all = scanned(&walk);
        let filtered = |addresses: &[u32]| -> Vec<(u32, usize, u8)> {
            all.iter()
                .copied()
                .filter(|step| addresses.contains(&step.0))
                .collect()
        };
        // Empty set: nothing to visit.
        assert!(involved_steps(&walk, &[]).is_empty());
        // Single address: its own steps, in walk order.
        assert_eq!(involved_steps(&walk, &[Address::new(5)]), filtered(&[5]));
        // Several addresses (duplicates included): the walk's steps
        // touching any of them, each once, in walk order.
        let involved = [Address::new(5), Address::new(2), Address::new(5)];
        assert_eq!(involved_steps(&walk, &involved), filtered(&[2, 5]));
        // The whole array visits every step exactly once.
        let every: Vec<Address> = (0..organization.capacity())
            .rev()
            .map(Address::new)
            .collect();
        assert_eq!(involved_steps(&walk, &every), all);
    }

    #[test]
    #[should_panic(expected = "visits address 0 twice")]
    fn an_order_that_repeats_an_address_is_rejected() {
        struct Repeating;
        impl AddressOrder for Repeating {
            fn name(&self) -> &'static str {
                "repeating"
            }
            fn ascending(&self, organization: &ArrayOrganization) -> Vec<Address> {
                vec![Address::new(0); organization.capacity() as usize]
            }
        }
        let _ = MarchWalk::new(&library::mats_plus(), &Repeating, &org());
    }

    #[test]
    #[should_panic(expected = "walk too large for 32-bit step indices")]
    fn an_oversized_walk_is_rejected_before_the_order_is_materialised() {
        struct Unreachable;
        impl AddressOrder for Unreachable {
            fn name(&self) -> &'static str {
                "unreachable"
            }
            fn ascending(&self, _: &ArrayOrganization) -> Vec<Address> {
                panic!("the step bound must be checked before the order is materialised")
            }
        }
        // 2^31 cells × 5 operations overflows `u32` step indices.
        let organization = ArrayOrganization::new(65_536, 32_768).unwrap();
        let _ = MarchWalk::new(&library::mats_plus(), &Unreachable, &organization);
    }

    #[test]
    fn the_canonical_walk_is_the_same_test_on_five_cells_in_identity_order() {
        use crate::address_order::LinearOrder;

        let organization = ArrayOrganization::new(8, 8).unwrap();
        let five = ArrayOrganization::new(1, 5).unwrap();
        for test in library::all_algorithms() {
            let walk = MarchWalk::new(&test, &PseudoRandomOrder::new(3), &organization);
            assert_eq!(
                walk.canonical(5),
                MarchWalk::new(&test, &LinearOrder, &five),
                "{}",
                test.name()
            );
        }
    }

    #[test]
    fn walk_reports_read_write_split() {
        let organization = org();
        let test = library::march_c_minus();
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let cells = u64::from(organization.capacity());
        assert_eq!(walk.reads(), test.read_count() as u64 * cells);
        assert_eq!(walk.writes(), test.write_count() as u64 * cells);
        assert!(!walk.is_empty());
    }
}
