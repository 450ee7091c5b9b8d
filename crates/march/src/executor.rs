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
//! * [`MarchWalk`] flattens a whole `(test, order, organization)` traversal
//!   into a compact 8-byte-per-step array that is shared, read-only, across
//!   every fault of a sweep (and across threads);
//! * [`run_march_walk`] executes a walk against any [`MemoryModel`] and
//!   reports every mismatch; [`run_march_until_detected`] is the early-exit
//!   variant for sweeps that only need the detected/missed bit — it stops
//!   at the first mismatching read;
//! * [`run_march`] keeps the original convenience signature by building a
//!   throw-away walk internally.
//!
//! [`MarchWalk::steps`] exposes the same traversal as an iterator of
//! [`MarchStep`]s so that higher layers (the low-power test engine in the
//! `lp-precharge` crate) can map each operation onto a memory clock cycle
//! without re-implementing the ordering rules.

use sram_model::address::Address;
use sram_model::config::ArrayOrganization;

use crate::address_order::AddressOrder;
use crate::algorithm::MarchTest;
use crate::element::AddressDirection;
use crate::fault_sim::DetectionMode;
use crate::faults::LaneFault;
use crate::memory::{LaneMemory, MemoryModel};
use crate::operation::MarchOp;

/// One operation of a March test applied to one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarchStep {
    /// Index of the March element this step belongs to.
    pub element: usize,
    /// Index of the operation within the element.
    pub op_index: usize,
    /// The address the operation targets.
    pub address: Address,
    /// The operation itself.
    pub op: MarchOp,
    /// `true` if this is the last operation applied to this address within
    /// the current element (the next step moves to a new address or a new
    /// element).
    pub last_op_on_address: bool,
    /// `true` if this is the last operation of the element on the last
    /// address of the element's sequence.
    pub last_op_of_element: bool,
}

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

/// One flattened step, packed into eight bytes: the raw address, the
/// element index, the op index and a code byte (bits 0–1 the operation,
/// bit 2 `last_op_on_address`, bit 3 `last_op_of_element`, bit 4 the
/// sensed-before value — see [`SENSED_BEFORE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedStep {
    address: u32,
    element: u16,
    op_index: u8,
    code: u8,
}

const OP_MASK: u8 = 0b0011;
const READ_BIT: u8 = 0b0010;
const VALUE_BIT: u8 = 0b0001;
const LAST_ON_ADDRESS: u8 = 0b0100;
const LAST_OF_ELEMENT: u8 = 0b1000;
/// For read steps: the value a fault-free-elsewhere sense amplifier holds
/// *before* this read, i.e. the expected value of the most recent earlier
/// read at an address **different from this step's address** (`0` when no
/// such read exists, matching the initial sense-amplifier state of
/// [`crate::faults::StuckOpenFault`]). Stamped at walk-build time, this is
/// what lets the history-dependent stuck-open fault ride the lane-batched
/// kernel without replaying the full walk: in a locality-safe walk every
/// non-victim read returns its expected value, so the victim's bit-line
/// history is a pure function of the walk and can be precomputed.
const SENSED_BEFORE: u8 = 0b1_0000;

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

/// A `(test, order, organization)` traversal precomputed once and shared
/// across every fault of a sweep.
///
/// Construction costs one address permutation plus one flat step array
/// (eight bytes per operation); execution afterwards is a branch-light
/// scan — allocation-free for full walks and single-address filtered
/// runs, one small merge buffer for multi-address faults — which is what
/// makes million-fault sweeps tractable. The walk is immutable and
/// `Sync`, so parallel sweeps share one instance across threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchWalk {
    test_name: String,
    order_name: String,
    capacity: u32,
    reads: u64,
    writes: u64,
    steps: Vec<PackedStep>,
    /// CSR index of the steps by address: the step indices touching address
    /// `a` are `step_index[offset[a] .. offset[a + 1]]`, ascending. This is
    /// what lets localised faults execute only their own slice of the walk.
    address_offsets: Vec<u32>,
    address_steps: Vec<u32>,
    /// Per-CSR-entry step payload, aligned with `address_steps`: the
    /// element (bits 16–31), op index (bits 8–15) and code byte (bits
    /// 0–7) of each step, laid out address-major. The cohort kernel reads
    /// these slices *sequentially* instead of chasing `address_steps`
    /// indices into the execution-ordered `steps` array — on megabit
    /// walks (hundreds of MB of steps) those scattered loads are cache
    /// misses that would otherwise dominate dense sweeps.
    address_codes: Vec<u32>,
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
    /// algorithm — since the packed encoding reserves 16/8 bits for them.
    pub fn new(
        test: &MarchTest,
        order: &dyn AddressOrder,
        organization: &ArrayOrganization,
    ) -> Self {
        let plan = AddressPlan::new(order, organization);
        let capacity = organization.capacity();
        assert!(
            test.element_count() <= usize::from(u16::MAX),
            "march test has too many elements for the packed walk"
        );
        let mut steps = Vec::with_capacity(test.operation_count() * capacity as usize);
        let mut reads = 0u64;
        let mut writes = 0u64;
        // Sense-amplifier history for the SENSED_BEFORE stamp: the most
        // recent read (address, expected value) and the expected value of
        // the most recent read at a *different* address than that one.
        // Writes leave the sensed value untouched.
        let mut last_read: Option<(u32, bool)> = None;
        let mut prior_distinct = false;
        for (element_index, element) in test.elements().iter().enumerate() {
            let ops = element.ops();
            assert!(
                ops.len() <= usize::from(u8::MAX),
                "march element has too many operations for the packed walk"
            );
            let last_position = plan.len().saturating_sub(1);
            for (position, address) in plan.iter(element.direction()).enumerate() {
                for (op_index, &op) in ops.iter().enumerate() {
                    let mut code = op_code(op);
                    if op.is_read() {
                        reads += 1;
                        let sensed = match last_read {
                            Some((last_address, _)) if last_address == address.value() => {
                                prior_distinct
                            }
                            Some((_, last_value)) => last_value,
                            None => false,
                        };
                        if sensed {
                            code |= SENSED_BEFORE;
                        }
                        if let Some((last_address, last_value)) = last_read {
                            if last_address != address.value() {
                                prior_distinct = last_value;
                            }
                        }
                        let expected = op.expected_value().expect("reads have expectations");
                        last_read = Some((address.value(), expected));
                    } else {
                        writes += 1;
                    }
                    if op_index == ops.len() - 1 {
                        code |= LAST_ON_ADDRESS;
                        if position == last_position {
                            code |= LAST_OF_ELEMENT;
                        }
                    }
                    steps.push(PackedStep {
                        address: address.value(),
                        element: element_index as u16,
                        op_index: op_index as u8,
                        code,
                    });
                }
            }
        }
        // Counting-sort CSR of step indices by address: one pass to count,
        // one to place. `u32` step indices hold any practical walk (a
        // 512×512 March G is ~6M steps).
        assert!(
            steps.len() <= u32::MAX as usize,
            "walk too large for 32-bit step indices"
        );
        let mut address_offsets = vec![0u32; capacity as usize + 1];
        for step in &steps {
            address_offsets[step.address as usize + 1] += 1;
        }
        for a in 0..capacity as usize {
            address_offsets[a + 1] += address_offsets[a];
        }
        let mut cursor = address_offsets.clone();
        let mut address_steps = vec![0u32; steps.len()];
        let mut address_codes = vec![0u32; steps.len()];
        for (index, step) in steps.iter().enumerate() {
            let slot = cursor[step.address as usize] as usize;
            address_steps[slot] = index as u32;
            address_codes[slot] = u32::from(step.element) << 16
                | u32::from(step.op_index) << 8
                | u32::from(step.code);
            cursor[step.address as usize] += 1;
        }
        Self {
            test_name: test.name().to_string(),
            order_name: order.name().to_string(),
            capacity,
            reads,
            writes,
            steps,
            address_offsets,
            address_steps,
            address_codes,
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

    /// The indices (ascending) of the walk steps that touch `address`.
    pub fn steps_touching(&self, address: Address) -> &[u32] {
        let a = address.value() as usize;
        assert!(a < self.capacity as usize, "address out of range");
        let from = self.address_offsets[a] as usize;
        let to = self.address_offsets[a + 1] as usize;
        &self.address_steps[from..to]
    }

    /// The packed payloads of the steps touching `address`, aligned
    /// entry-for-entry with [`MarchWalk::steps_touching`]: element in
    /// bits 16–31, op index in bits 8–15, code byte (operation, last-on-
    /// address/of-element flags and the sensed-before stamp) in bits 0–7.
    /// Reading these contiguous slices is how the cohort kernel builds
    /// dispatch schedules without scattered loads into the
    /// execution-ordered step array.
    pub fn step_payloads_touching(&self, address: Address) -> &[u32] {
        let a = address.value() as usize;
        assert!(a < self.capacity as usize, "address out of range");
        let from = self.address_offsets[a] as usize;
        let to = self.address_offsets[a + 1] as usize;
        &self.address_codes[from..to]
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
        self.steps.len()
    }

    /// `true` when the walk contains no operations.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of read operations in the walk.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write operations in the walk.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The traversal as fully described [`MarchStep`]s, in execution order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = MarchStep> + '_ {
        self.steps.iter().map(|step| MarchStep {
            element: usize::from(step.element),
            op_index: usize::from(step.op_index),
            address: Address::new(step.address),
            op: decode_op(step.code),
            last_op_on_address: step.code & LAST_ON_ADDRESS != 0,
            last_op_of_element: step.code & LAST_OF_ELEMENT != 0,
        })
    }
}

/// Enumerates every `(element, address, operation)` step of `test` over
/// `organization` under `order`, in execution order.
///
/// Convenience wrapper over [`MarchWalk::steps`]; sweeps that run many
/// faults should build the [`MarchWalk`] once instead.
pub fn march_walk(
    test: &MarchTest,
    order: &dyn AddressOrder,
    organization: &ArrayOrganization,
) -> Vec<MarchStep> {
    MarchWalk::new(test, order, organization).steps().collect()
}

/// Runs a precomputed `walk` on `memory` and reports every read mismatch.
pub fn run_march_walk<M: MemoryModel + ?Sized>(walk: &MarchWalk, memory: &mut M) -> MarchResult {
    let mut mismatches = Vec::new();
    for step in &walk.steps {
        let address = Address::new(step.address);
        if step.code & READ_BIT == 0 {
            memory.write(address, step.code & VALUE_BIT != 0);
        } else {
            let expected = step.code & VALUE_BIT != 0;
            let observed = memory.read(address);
            if observed != expected {
                mismatches.push(Mismatch {
                    element: usize::from(step.element),
                    address,
                    expected,
                    observed,
                });
            }
        }
    }
    MarchResult {
        mismatches,
        operations: walk.reads + walk.writes,
        reads: walk.reads,
        writes: walk.writes,
    }
}

/// Runs a precomputed `walk` on `memory`, stopping at the first mismatching
/// read. Returns `true` when the walk detected a fault.
///
/// This is the sweep kernel for coverage and degree-of-freedom experiments,
/// where only the detected/missed bit matters: a detected fault typically
/// mismatches within the first elements of the test, so the early exit
/// skips most of the remaining `O(ops × cells)` work.
pub fn run_march_until_detected<M: MemoryModel + ?Sized>(walk: &MarchWalk, memory: &mut M) -> bool {
    for step in &walk.steps {
        let address = Address::new(step.address);
        if step.code & READ_BIT == 0 {
            memory.write(address, step.code & VALUE_BIT != 0);
        } else if memory.read(address) != (step.code & VALUE_BIT != 0) {
            return true;
        }
    }
    false
}

/// The ascending, deduplicated indices of the walk steps touching a set of
/// involved addresses — the involved-step schedule shared by the per-fault
/// filtered runners and the lane-batched cohort kernel.
///
/// Single-address faults (the bulk of every fault list) borrow their CSR
/// slice directly — no allocation, no sort. Multi-address sets (the
/// coupling pair, the decoder alias, a whole cohort's merged union)
/// linearly merge their already-sorted slices, deduplicating shared
/// indices. Produced by [`merged_step_indices`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilteredSteps<'a> {
    /// A CSR slice borrowed straight from the walk (zero or one address).
    Borrowed(&'a [u32]),
    /// The merged schedule of several addresses' slices.
    Merged(Vec<u32>),
}

impl std::ops::Deref for FilteredSteps<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            FilteredSteps::Borrowed(slice) => slice,
            FilteredSteps::Merged(vec) => vec,
        }
    }
}

/// Builds the involved-step schedule of `involved` over `walk`: every walk
/// step index touching at least one of the addresses, ascending, each
/// index exactly once.
///
/// This is the single source of the involved-step filtering used by both
/// the per-fault fast path ([`run_march_walk_filtered`],
/// [`run_march_until_detected_filtered`]) and the lane-batched cohort
/// kernel ([`run_march_lanes`]), which dispatches the merged union of a
/// whole cohort's involved sets in one pass.
///
/// # Panics
///
/// Panics if an involved address is outside the walk's capacity.
pub fn merged_step_indices<'a>(walk: &'a MarchWalk, involved: &[Address]) -> FilteredSteps<'a> {
    match involved {
        [] => FilteredSteps::Borrowed(&[]),
        [address] => FilteredSteps::Borrowed(walk.steps_touching(*address)),
        addresses => {
            // Every walk step touches exactly one address, so distinct
            // addresses contribute disjoint slices and a gather-and-sort
            // builds the union in `O(E log E)` — the old head-minimum
            // scan was `O(E × addresses)`, which dominated dense cohorts
            // whose unions span dozens of addresses. The dedup only
            // collapses duplicate addresses in `involved`.
            let mut merged: Vec<u32> = addresses
                .iter()
                .flat_map(|&address| walk.steps_touching(address).iter().copied())
                .collect();
            merged.sort_unstable();
            merged.dedup();
            FilteredSteps::Merged(merged)
        }
    }
}

/// Per-lane outcome of a batched cohort run ([`run_march_lanes`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaneDetection {
    /// Whether at least one read mismatched in this lane.
    pub detected: bool,
    /// Number of mismatching reads observed in this lane (capped at `1`
    /// under [`DetectionMode::FirstMismatch`]).
    pub mismatches: usize,
    /// The first mismatching read of this lane, when any — identical to
    /// the first entry of the serial per-fault [`MarchResult::mismatches`]
    /// list for the same fault.
    pub first_mismatch: Option<Mismatch>,
}

/// Largest number of distinct addresses one lane cohort may involve: the
/// packed schedule entry of [`run_march_lanes`] keeps the union slot in
/// eight bits. A lane kind involves at most two addresses, so the
/// 64-lane cohorts [`crate::batch::FaultBatch`] plans stay within half
/// the budget; the limit only binds custom callers assembling cohorts of
/// their own [`LaneFault`] types by hand.
pub const COHORT_ADDRESS_BUDGET: usize = 256;

#[inline]
fn lane_mask(lanes: usize) -> u64 {
    if lanes >= LaneMemory::LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Runs up to sixty-four faults through one walk scan, one bit lane each —
/// the lane-batched sweep kernel.
///
/// The kernel is generic over the lane representation; sweeps pass
/// `&mut [LaneFaultKind]` — lane forms stored inline, every faulty
/// dispatch a monomorphized match on plain enum data with no per-owner
/// pointer chase.
///
/// Each element of `lanes` owns the bit lane of its position in the slice:
/// a sparse [`LaneMemory`] over the cohort's merged involved addresses is
/// filled to `background`, the merged involved-step schedule (the same
/// union [`merged_step_indices`] describes, gathered here with
/// pre-resolved union slots) is dispatched once, and at every step the
/// lanes whose fault involves the step's address run their faulty form
/// while all remaining lanes take the fault-free whole-word `u64`
/// operation. Read steps compare all lanes at once: the observed word is
/// XORed against the splatted expected value and the resulting mismatch
/// mask updates per-lane detection state; under
/// [`DetectionMode::FirstMismatch`] the scan stops as soon as the
/// undetected-lane mask has zero bits left.
///
/// Per lane, the outcome (detected/escaped, mismatch count, first
/// mismatching read) is identical to running that fault alone through the
/// serial per-fault path: lanes are fully independent universes, and in a
/// locality-safe walk the steps outside a fault's involved set can neither
/// mismatch nor influence its cells.
///
/// [`LaneFaultKind`]: crate::faults::LaneFaultKind
///
/// # Panics
///
/// Panics if `lanes` is empty or longer than [`LaneMemory::LANES`], if
/// `walk` is not [`MarchWalk::locality_safe`] (such walks must run the
/// unfiltered per-fault path), if a lane involves no addresses, or if
/// the cohort's union spans more than [`COHORT_ADDRESS_BUDGET`] distinct
/// addresses.
pub fn run_march_lanes<L: LaneFault>(
    walk: &MarchWalk,
    lanes: &mut [L],
    background: bool,
    mode: DetectionMode,
) -> Vec<LaneDetection> {
    let mut scratch = LaneScratch::new();
    run_march_lanes_scratch(walk, lanes, background, mode, &mut scratch);
    scratch.results
}

/// Reusable dispatch buffers of the lane-batched kernel.
///
/// One cohort dispatch needs half a dozen transient arrays — the gathered
/// involved sets, the sorted union, per-slot ownership masks, the sparse
/// [`LaneMemory`], the packed step schedule and the per-lane results.
/// Allocating them per cohort is pure overhead once a sweep runs tens of
/// thousands of cohorts, so [`run_march_lanes_scratch`] takes them from
/// this scratch instead: every buffer is cleared and regrown in place, and
/// a scratch reused across cohorts only allocates when a cohort is larger
/// than any before it. Sweeps keep one `LaneScratch` per worker inside the
/// pool's [`WorkerScratch`](crate::parallel::WorkerScratch).
///
/// A `LaneScratch` carries no cohort state between runs — reusing one is
/// observationally identical to constructing a fresh one per call (the
/// one-shot [`run_march_lanes`] does exactly that).
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// Flat gather of all lanes' involved addresses; lane `l` owns
    /// `involved[involved_ends[l - 1]..involved_ends[l]]` (from `0` for
    /// the first lane).
    involved: Vec<Address>,
    /// Per-lane end offsets into `involved`.
    involved_ends: Vec<u32>,
    /// The cohort's sorted, deduplicated involved-address union.
    union: Vec<Address>,
    /// Per-union-slot mask of the lanes whose fault involves the address.
    owned_masks: Vec<u64>,
    /// The sparse lane store, retargeted per cohort via
    /// [`LaneMemory::reset_sorted`]. `None` until the first run.
    memory: Option<LaneMemory>,
    /// Packed dispatch schedule (see [`run_march_lanes`]'s entry layout).
    schedule: Vec<u64>,
    /// Per-lane outcomes of the most recent run.
    results: Vec<LaneDetection>,
}

impl LaneScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-lane outcomes of the most recent [`run_march_lanes_scratch`]
    /// call through this scratch (empty before the first).
    pub fn results(&self) -> &[LaneDetection] {
        &self.results
    }
}

/// [`run_march_lanes`] with caller-owned dispatch buffers: identical
/// algorithm, identical per-lane outcomes, but every transient array
/// lives in `scratch` so consecutive cohorts on one worker reuse their
/// allocations. Returns the per-lane detections as a borrow of
/// `scratch` (also available as [`LaneScratch::results`] until the next
/// run).
///
/// # Panics
///
/// Exactly as [`run_march_lanes`].
pub fn run_march_lanes_scratch<'s, L: LaneFault>(
    walk: &MarchWalk,
    lanes: &mut [L],
    background: bool,
    mode: DetectionMode,
    scratch: &'s mut LaneScratch,
) -> &'s [LaneDetection] {
    assert!(
        !lanes.is_empty() && lanes.len() <= LaneMemory::LANES,
        "a cohort holds 1..=64 lanes"
    );
    assert!(
        walk.locality_safe(),
        "lane batching requires a locality-safe walk"
    );
    scratch.involved.clear();
    scratch.involved_ends.clear();
    for lane in lanes.iter() {
        lane.involved_into(&mut scratch.involved);
        scratch.involved_ends.push(scratch.involved.len() as u32);
    }
    scratch.union.clear();
    scratch.union.extend_from_slice(&scratch.involved);
    scratch.union.sort_unstable();
    scratch.union.dedup();
    let union = &scratch.union;
    assert!(
        union.len() <= COHORT_ADDRESS_BUDGET,
        "a cohort may involve at most {COHORT_ADDRESS_BUDGET} distinct addresses \
         (the planner enforces this for its own plans)"
    );
    // Owner masks, aligned with the sorted union: which lanes' faults
    // involve each address. The whole-word ops skip these lanes and the
    // per-lane faulty dispatch iterates them straight off the mask bits.
    scratch.owned_masks.clear();
    scratch.owned_masks.resize(union.len(), 0);
    let mut start = 0usize;
    for (lane, &end) in scratch.involved_ends.iter().enumerate() {
        let addresses = &scratch.involved[start..end as usize];
        start = end as usize;
        assert!(
            !addresses.is_empty(),
            "lane {lane} fault involves no addresses"
        );
        for address in addresses {
            let slot = union
                .binary_search(address)
                .expect("union covers all lanes");
            scratch.owned_masks[slot] |= 1u64 << lane;
        }
    }
    match &mut scratch.memory {
        Some(memory) => memory.reset_sorted(walk.capacity(), union),
        slot @ None => *slot = Some(LaneMemory::from_sorted(walk.capacity(), union)),
    }
    let memory = scratch.memory.as_mut().expect("just initialised");
    memory.fill(background);
    let active = lane_mask(lanes.len());
    let mut detected = 0u64;
    scratch.results.clear();
    scratch
        .results
        .resize(lanes.len(), LaneDetection::default());
    // The cohort's dispatch schedule: every walk step touching a union
    // address, ascending, pre-tagged with its union slot and packed
    // payload. Each step touches exactly one address, so the per-address
    // CSR slices are disjoint and a gather-and-sort replaces both a
    // head-minimum merge and a per-step binary search over the union;
    // carrying the payload keeps the dispatch loop entirely off the
    // execution-ordered step array, whose scattered megabit-walk loads
    // would otherwise be one cache miss per step. Each entry packs into
    // one `u64` — step index (32) | element (16) | slot (8) | code (8) —
    // so ordering the schedule is a plain integer sort and step indices
    // are unique, making the order total.
    scratch.schedule.clear();
    scratch.schedule.reserve(
        union
            .iter()
            .map(|&address| walk.steps_touching(address).len())
            .sum(),
    );
    for (slot, &address) in union.iter().enumerate() {
        let indices = walk.steps_touching(address);
        let payloads = walk.step_payloads_touching(address);
        scratch
            .schedule
            .extend(indices.iter().zip(payloads).map(|(&index, &payload)| {
                u64::from(index) << 32
                    | u64::from(payload & 0xFFFF_0000)
                    | (slot as u64) << 8
                    | u64::from(payload & 0xFF)
            }));
    }
    scratch.schedule.sort_unstable();
    for &entry in &scratch.schedule {
        let code = entry as u8;
        let element = (entry >> 16) as u16;
        let slot = (entry >> 8) as u8 as usize;
        let address = union[slot];
        if code & READ_BIT == 0 {
            let value = code & VALUE_BIT != 0;
            let mut owners = scratch.owned_masks[slot];
            while owners != 0 {
                let lane = owners.trailing_zeros();
                lanes[lane as usize].lane_write(memory, lane, address, value);
                owners &= owners - 1;
            }
            memory.write_word_at(slot, value, scratch.owned_masks[slot]);
        } else {
            let expected = code & VALUE_BIT != 0;
            let sensed_before = code & SENSED_BEFORE != 0;
            let mut observed = memory.word_at(slot);
            let mut owners = scratch.owned_masks[slot];
            while owners != 0 {
                let lane = owners.trailing_zeros();
                let bit = lanes[lane as usize].lane_read(memory, lane, address, sensed_before);
                observed = (observed & !(1u64 << lane)) | (u64::from(bit) << lane);
                owners &= owners - 1;
            }
            let expected_word = if expected { u64::MAX } else { 0 };
            let miss = (observed ^ expected_word) & active;
            if miss != 0 {
                let mut fresh = miss & !detected;
                while fresh != 0 {
                    let lane = fresh.trailing_zeros() as usize;
                    scratch.results[lane].first_mismatch = Some(Mismatch {
                        element: usize::from(element),
                        address,
                        expected,
                        observed: observed >> lane & 1 == 1,
                    });
                    fresh &= fresh - 1;
                }
                detected |= miss;
                match mode {
                    DetectionMode::Full => {
                        let mut each = miss;
                        while each != 0 {
                            let lane = each.trailing_zeros() as usize;
                            scratch.results[lane].mismatches += 1;
                            each &= each - 1;
                        }
                    }
                    DetectionMode::FirstMismatch => {
                        if (active & !detected).count_ones() == 0 {
                            break;
                        }
                    }
                }
            }
        }
    }
    for (lane, result) in scratch.results.iter_mut().enumerate() {
        result.detected = detected >> lane & 1 == 1;
        if mode == DetectionMode::FirstMismatch {
            result.mismatches = usize::from(result.detected);
        }
    }
    &scratch.results
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
    for &index in merged_step_indices(walk, involved).iter() {
        let step = &walk.steps[index as usize];
        let address = Address::new(step.address);
        if step.code & READ_BIT == 0 {
            memory.write(address, step.code & VALUE_BIT != 0);
        } else {
            let expected = step.code & VALUE_BIT != 0;
            let observed = memory.read(address);
            if observed != expected {
                mismatches.push(Mismatch {
                    element: usize::from(step.element),
                    address,
                    expected,
                    observed,
                });
            }
        }
    }
    MarchResult {
        mismatches,
        operations: walk.reads + walk.writes,
        reads: walk.reads,
        writes: walk.writes,
    }
}

/// Early-exit variant of [`run_march_walk_filtered`]: runs only the steps
/// touching `involved` addresses and returns `true` at the first
/// mismatching read.
pub fn run_march_until_detected_filtered<M: MemoryModel + ?Sized>(
    walk: &MarchWalk,
    memory: &mut M,
    involved: &[Address],
) -> bool {
    for &index in merged_step_indices(walk, involved).iter() {
        let step = &walk.steps[index as usize];
        let address = Address::new(step.address);
        if step.code & READ_BIT == 0 {
            memory.write(address, step.code & VALUE_BIT != 0);
        } else if memory.read(address) != (step.code & VALUE_BIT != 0) {
            return true;
        }
    }
    false
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
    use crate::faults::{standard_fault_list, FaultyMemory};
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
    fn walk_enumerates_every_operation_in_order() {
        let organization = org();
        let test = library::mats_plus();
        let steps = march_walk(&test, &WordLineAfterWordLine, &organization);
        assert_eq!(
            steps.len(),
            test.operation_count() * organization.capacity() as usize
        );
        // First element is ⇕(w0): one op per address, each both last-on-
        // address; the final one is also last-of-element.
        assert!(steps[0].last_op_on_address);
        assert!(!steps[0].last_op_of_element);
        let first_element_steps = organization.capacity() as usize;
        assert!(steps[first_element_steps - 1].last_op_of_element);
        // Second element ⇑(r0,w1): alternating last_op_on_address.
        let s = &steps[first_element_steps];
        assert_eq!(s.element, 1);
        assert_eq!(s.op, MarchOp::R0);
        assert!(!s.last_op_on_address);
        assert!(steps[first_element_steps + 1].last_op_on_address);
        // Descending element ends on address 0.
        let last = steps.last().unwrap();
        assert_eq!(last.element, 2);
        assert_eq!(last.address, Address::new(0));
        assert!(last.last_op_of_element);
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
            for factory in &faults {
                let mut full =
                    FaultyMemory::new(GoodMemory::new(organization.capacity()), factory());
                let mut early =
                    FaultyMemory::new(GoodMemory::new(organization.capacity()), factory());
                let full_result = run_march_walk(&walk, &mut full);
                let early_detected = run_march_until_detected(&walk, &mut early);
                assert_eq!(
                    full_result.detected_fault(),
                    early_detected,
                    "{} / {}",
                    test.name(),
                    factory().name()
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
                    for factory in &faults {
                        let Some(involved) = factory().involved_addresses() else {
                            continue; // global faults have no filtered path
                        };
                        for background in [false, true] {
                            let mut full_memory = FaultyMemory::new(
                                GoodMemory::filled(organization.capacity(), background),
                                factory(),
                            );
                            let mut filtered_memory = FaultyMemory::new(
                                GoodMemory::filled(organization.capacity(), background),
                                factory(),
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
                                factory().name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn steps_touching_partitions_the_walk() {
        let organization = org();
        let test = library::march_ss();
        let walk = MarchWalk::new(&test, &ColumnMajor, &organization);
        let mut seen = 0usize;
        for raw in 0..organization.capacity() {
            let indices = walk.steps_touching(Address::new(raw));
            let payloads = walk.step_payloads_touching(Address::new(raw));
            assert_eq!(indices.len(), test.operation_count());
            assert_eq!(payloads.len(), indices.len(), "payloads align with indices");
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "ascending order");
            for (&index, &payload) in indices.iter().zip(payloads) {
                let step = walk.steps().nth(index as usize).unwrap();
                assert_eq!(step.address, Address::new(raw));
                // The packed payload must reproduce the step exactly.
                assert_eq!((payload >> 16) as usize, step.element);
                assert_eq!((payload >> 8 & 0xFF) as usize, step.op_index);
                assert_eq!(decode_op(payload as u8), step.op);
                assert_eq!(
                    payload as u8 & LAST_ON_ADDRESS != 0,
                    step.last_op_on_address
                );
            }
            seen += indices.len();
        }
        assert_eq!(seen, walk.len(), "every step belongs to exactly one cell");
    }

    #[test]
    fn merged_step_indices_is_the_shared_involved_step_schedule() {
        let organization = org();
        let test = library::march_ss();
        let walk = MarchWalk::new(&test, &ColumnMajor, &organization);
        // Empty set: empty borrowed schedule.
        assert!(merged_step_indices(&walk, &[]).is_empty());
        // Single address: the CSR slice itself, borrowed.
        let single = merged_step_indices(&walk, &[Address::new(5)]);
        assert!(matches!(single, FilteredSteps::Borrowed(_)));
        assert_eq!(&*single, walk.steps_touching(Address::new(5)));
        // Several addresses (duplicates included): ascending, deduplicated
        // union of their slices.
        let involved = [Address::new(5), Address::new(2), Address::new(5)];
        let merged = merged_step_indices(&walk, &involved);
        assert!(matches!(merged, FilteredSteps::Merged(_)));
        let mut expected: Vec<u32> = walk
            .steps_touching(Address::new(2))
            .iter()
            .chain(walk.steps_touching(Address::new(5)))
            .copied()
            .collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(&*merged, expected.as_slice());
        // The whole array merges back into every step exactly once.
        let all: Vec<Address> = (0..organization.capacity()).map(Address::new).collect();
        let complete = merged_step_indices(&walk, &all);
        assert_eq!(complete.len(), walk.len());
        assert!(complete.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sensed_before_stamp_tracks_the_latest_distinct_read() {
        use crate::element::MarchElement;

        // One cell-pair walk with back-to-back reads: ⇑(w0); ⇑(r0,r0,w1,r1)
        // over two cells. The stamp of a read must be the expected value of
        // the latest earlier read at a *different* address (0 when none) —
        // exactly the bit-line history a stuck-open victim observes.
        let organization = ArrayOrganization::new(1, 2).unwrap();
        let test = MarchTest::new(
            "rr",
            vec![
                MarchElement::ascending(vec![MarchOp::W0]),
                MarchElement::ascending(vec![MarchOp::R0, MarchOp::R0, MarchOp::W1, MarchOp::R1]),
            ],
        );
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let sensed: Vec<Option<bool>> = walk
            .steps
            .iter()
            .map(|step| (step.code & READ_BIT != 0).then_some(step.code & SENSED_BEFORE != 0))
            .collect();
        assert_eq!(
            sensed,
            vec![
                None,        // w0 @0
                None,        // w0 @1
                Some(false), // r0 @0 — no earlier read at all
                Some(false), // r0 @0 — earlier reads only at @0 itself
                None,        // w1 @0
                Some(false), // r1 @0 — still no read at a different address
                Some(true),  // r0 @1 — latest distinct read is r1 @0, expecting 1
                Some(true),  // r0 @1 — @1's own reads don't refresh the history
                None,        // w1 @1
                Some(true),  // r1 @1 — latest distinct read is still r1 @0
            ],
            "sensed-before stamps"
        );
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
