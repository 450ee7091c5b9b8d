//! Behavioural memory models for fault simulation.
//!
//! Fault simulation does not need the electrical detail of the
//! `sram-model` crate — it needs a functional view: an array of bits whose
//! read/write behaviour can be perturbed by an injected fault. The
//! [`MemoryModel`] trait is that view; [`GoodMemory`] is the fault-free
//! implementation, and [`crate::faults::FaultyMemory`] wraps it with a
//! fault's behaviour.
//!
//! [`GoodMemory`] is bit-packed: cells live in `u64` words, sixty-four per
//! word, so a 512×512 array costs 32 KiB instead of the 256 KiB a
//! `Vec<bool>` would need, and [`GoodMemory::fill`] resets the whole array
//! with a handful of word stores. Coverage sweeps exploit that by
//! allocating one memory and refilling it for every fault in the list
//! instead of allocating per fault.

use sram_model::address::Address;

/// A functional single-bit-per-address memory.
pub trait MemoryModel {
    /// Number of addressable cells.
    fn capacity(&self) -> u32;

    /// Reads the cell at `address`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `address` is outside `0..capacity()`.
    fn read(&mut self, address: Address) -> bool;

    /// Writes `value` into the cell at `address`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `address` is outside `0..capacity()`.
    fn write(&mut self, address: Address, value: bool);
}

const WORD_BITS: u32 = u64::BITS;

/// A fault-free memory backed by a bit-packed `u64`-word store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoodMemory {
    capacity: u32,
    words: Vec<u64>,
}

impl GoodMemory {
    /// Creates a memory of `capacity` cells, all holding `0`.
    pub fn new(capacity: u32) -> Self {
        let words = capacity.div_ceil(WORD_BITS) as usize;
        Self {
            capacity,
            words: vec![0; words],
        }
    }

    /// Creates a memory with every cell holding `value`.
    pub fn filled(capacity: u32, value: bool) -> Self {
        let mut memory = Self::new(capacity);
        memory.fill(value);
        memory
    }

    /// Resets every cell to `value` without reallocating — the fast path
    /// that lets one allocation serve a whole fault-list sweep.
    ///
    /// Bits beyond `capacity` in the last word are kept at `0` so that two
    /// memories with equal cell contents always compare equal.
    pub fn fill(&mut self, value: bool) {
        self.words.fill(if value { u64::MAX } else { 0 });
        if value {
            let tail = self.capacity % WORD_BITS;
            if tail != 0 {
                if let Some(last) = self.words.last_mut() {
                    *last = (1u64 << tail) - 1;
                }
            }
        }
    }

    #[inline]
    fn index(address: Address) -> (usize, u32) {
        let raw = address.value();
        ((raw / WORD_BITS) as usize, raw % WORD_BITS)
    }

    /// Direct, non-faulty access to a cell (used by fault wrappers to reach
    /// the underlying state).
    #[inline]
    pub fn get(&self, address: Address) -> bool {
        assert!(address.value() < self.capacity, "address out of range");
        let (word, bit) = Self::index(address);
        (self.words[word] >> bit) & 1 == 1
    }

    /// Direct, non-faulty modification of a cell.
    #[inline]
    pub fn set(&mut self, address: Address, value: bool) {
        assert!(address.value() < self.capacity, "address out of range");
        let (word, bit) = Self::index(address);
        if value {
            self.words[word] |= 1u64 << bit;
        } else {
            self.words[word] &= !(1u64 << bit);
        }
    }

    /// Iterates over all stored values in address order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.capacity).map(|raw| self.get(Address::new(raw)))
    }

    /// The backing words (sixty-four cells per word, LSB first; unused
    /// bits of the last word are `0`). Exposed for tests and diagnostics.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl MemoryModel for GoodMemory {
    fn capacity(&self) -> u32 {
        self.capacity
    }

    #[inline]
    fn read(&mut self, address: Address) -> bool {
        self.get(address)
    }

    #[inline]
    fn write(&mut self, address: Address, value: bool) {
        self.set(address, value);
    }
}

/// A lane-parallel memory: up to [`LaneMemory::LANES`] independent faulty
/// universes of the same cell array share one store, one bit lane each.
///
/// Where [`GoodMemory`] packs sixty-four *cells* into each `u64` word,
/// `LaneMemory` packs sixty-four *universes* of one cell: the word stored
/// for an address holds that cell's value in every lane, so a fill or a
/// read-compare against an expected value covers all lanes in a single
/// `u64` operation. This is the substrate of the batched multi-fault
/// kernel ([`crate::executor::run_march_lanes`]): each lane carries one
/// injected fault, and sixty-four faults ride one walk.
///
/// The store is sparse over the array: only the addresses the simulated
/// cohort involves are tracked, because the batched kernel never
/// dispatches steps outside them. A cohort therefore costs
/// `O(involved addresses)` memory and fill time regardless of the array
/// capacity — crucial once sweeps reach 1024×1024.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMemory {
    capacity: u32,
    /// Tracked addresses, ascending and deduplicated.
    addresses: Vec<u32>,
    /// One word per tracked address; bit `l` is the cell value in lane `l`.
    words: Vec<u64>,
    /// Open-addressed address→slot index: each non-zero entry packs
    /// `(address + 1) << 32 | slot`. Every read/write of the batched
    /// kernel — including each lane fault's own cell accesses — resolves
    /// a slot, so the lookup is O(1) with one expected probe instead of a
    /// binary search over the union (whose dependent loads dominated
    /// dense cohorts).
    index: Vec<u64>,
    /// Bit mask of the power-of-two index size.
    index_mask: usize,
}

#[inline]
fn index_hash(address: u32) -> usize {
    // Fibonacci multiplicative hash: adjacent addresses (the common
    // cluster shape) scatter across the table.
    address.wrapping_mul(0x9E37_79B9) as usize
}

impl LaneMemory {
    /// Number of independent universes a `LaneMemory` word carries.
    pub const LANES: usize = u64::BITS as usize;

    /// Creates a memory of `capacity` cells tracking only `involved`
    /// addresses (in any order, duplicates allowed), all cells `0` in all
    /// lanes.
    ///
    /// # Panics
    ///
    /// Panics if an involved address is outside `0..capacity`.
    pub fn new(capacity: u32, involved: &[Address]) -> Self {
        let mut addresses: Vec<u32> = involved.iter().map(|a| a.value()).collect();
        addresses.sort_unstable();
        addresses.dedup();
        Self::from_sorted_raw(capacity, addresses)
    }

    /// Like [`LaneMemory::new`], but for an `involved` set that is already
    /// sorted and deduplicated — the cohort kernel holds exactly that
    /// union and skips the redundant re-sort on every cohort dispatch.
    ///
    /// # Panics
    ///
    /// Panics if an involved address is outside `0..capacity` or the set
    /// is not strictly ascending.
    pub fn from_sorted(capacity: u32, involved: &[Address]) -> Self {
        assert!(
            involved.windows(2).all(|pair| pair[0] < pair[1]),
            "involved addresses must be strictly ascending"
        );
        Self::from_sorted_raw(capacity, involved.iter().map(|a| a.value()).collect())
    }

    fn from_sorted_raw(capacity: u32, addresses: Vec<u32>) -> Self {
        let mut memory = Self {
            capacity: 0,
            addresses,
            words: Vec::new(),
            index: Vec::new(),
            index_mask: 0,
        };
        let tracked = std::mem::take(&mut memory.addresses);
        memory.rebuild(capacity, tracked);
        memory
    }

    /// Retargets this memory at a new `capacity` and tracked set without
    /// discarding its backing stores: the address, word and index vectors
    /// are truncated and regrown in place, so a scratch `LaneMemory`
    /// reused across cohorts only allocates when a cohort needs more room
    /// than any before it. All cells come back `0` in all lanes, exactly
    /// as from [`LaneMemory::from_sorted`].
    ///
    /// `involved` must be strictly ascending (sorted and deduplicated),
    /// like [`LaneMemory::from_sorted`]'s.
    ///
    /// # Panics
    ///
    /// Panics if an involved address is outside `0..capacity` or the set
    /// is not strictly ascending.
    pub fn reset_sorted(&mut self, capacity: u32, involved: &[Address]) {
        assert!(
            involved.windows(2).all(|pair| pair[0] < pair[1]),
            "involved addresses must be strictly ascending"
        );
        let mut tracked = std::mem::take(&mut self.addresses);
        tracked.clear();
        tracked.extend(involved.iter().map(|a| a.value()));
        self.rebuild(capacity, tracked);
    }

    /// Shared body of the constructors and [`LaneMemory::reset_sorted`]:
    /// installs an already sorted/deduplicated tracked set, resizing the
    /// word store and rebuilding the open-addressed index in place.
    fn rebuild(&mut self, capacity: u32, addresses: Vec<u32>) {
        if let Some(&last) = addresses.last() {
            assert!(last < capacity, "involved address out of range");
        }
        self.capacity = capacity;
        self.words.clear();
        self.words.resize(addresses.len(), 0);
        // Load factor ≤ 0.5 keeps expected probes at ~1.
        let index_size = (addresses.len() * 2).next_power_of_two().max(4);
        self.index_mask = index_size - 1;
        self.index.clear();
        self.index.resize(index_size, 0);
        for (slot, &address) in addresses.iter().enumerate() {
            let mut probe = index_hash(address) & self.index_mask;
            while self.index[probe] != 0 {
                probe = (probe + 1) & self.index_mask;
            }
            self.index[probe] = (u64::from(address) + 1) << 32 | slot as u64;
        }
        self.addresses = addresses;
    }

    /// Number of addressable cells of the array this memory models.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of tracked addresses.
    pub fn tracked(&self) -> usize {
        self.addresses.len()
    }

    /// Resets every tracked cell to `value` in every lane — a handful of
    /// word stores, the batched analogue of [`GoodMemory::fill`].
    pub fn fill(&mut self, value: bool) {
        self.words.fill(if value { u64::MAX } else { 0 });
    }

    #[inline]
    fn slot(&self, address: Address) -> usize {
        let key = u64::from(address.value()) + 1;
        let mut probe = index_hash(address.value()) & self.index_mask;
        loop {
            let entry = self.index[probe];
            if entry >> 32 == key {
                return entry as u32 as usize;
            }
            assert!(
                entry != 0,
                "address {address} is not tracked by this lane memory"
            );
            probe = (probe + 1) & self.index_mask;
        }
    }

    /// The union slot of `address` (its rank among the tracked
    /// addresses), for callers that dispatch many operations on the same
    /// cell and want to resolve it once.
    ///
    /// # Panics
    ///
    /// Panics if `address` is not tracked.
    #[inline]
    pub fn slot_of(&self, address: Address) -> usize {
        self.slot(address)
    }

    /// All lanes' values of the cell at union slot `slot` — the
    /// slot-direct form of [`LaneMemory::word`] used by the batched
    /// kernel, whose dispatch order already carries resolved slots.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn word_at(&self, slot: usize) -> u64 {
        self.words[slot]
    }

    /// Slot-direct form of [`LaneMemory::write_word`]: writes `value`
    /// into every lane except those set in `skip_lanes` at union slot
    /// `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn write_word_at(&mut self, slot: usize, value: bool, skip_lanes: u64) {
        let splat = if value { u64::MAX } else { 0 };
        self.words[slot] = (self.words[slot] & skip_lanes) | (splat & !skip_lanes);
    }

    /// All lanes' values of the cell at `address` (bit `l` = lane `l`).
    ///
    /// # Panics
    ///
    /// Panics if `address` is not tracked.
    #[inline]
    pub fn word(&self, address: Address) -> u64 {
        self.words[self.slot(address)]
    }

    /// The cell value at `address` in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `address` is not tracked or `lane` is out of range.
    #[inline]
    pub fn get_lane(&self, address: Address, lane: u32) -> bool {
        assert!((lane as usize) < Self::LANES, "lane out of range");
        self.words[self.slot(address)] >> lane & 1 == 1
    }

    /// Sets the cell at `address` to `value` in lane `lane` only.
    ///
    /// # Panics
    ///
    /// Panics if `address` is not tracked or `lane` is out of range.
    #[inline]
    pub fn set_lane(&mut self, address: Address, lane: u32, value: bool) {
        assert!((lane as usize) < Self::LANES, "lane out of range");
        let slot = self.slot(address);
        if value {
            self.words[slot] |= 1u64 << lane;
        } else {
            self.words[slot] &= !(1u64 << lane);
        }
    }

    /// Writes `value` into the cell at `address` in every lane *except*
    /// those set in `skip_lanes` — the fault-free whole-word write of the
    /// batched kernel, with the lanes owned by a fault at this address
    /// kept for their own faulty writes.
    ///
    /// # Panics
    ///
    /// Panics if `address` is not tracked.
    #[inline]
    pub fn write_word(&mut self, address: Address, value: bool, skip_lanes: u64) {
        self.write_word_at(self.slot(address), value, skip_lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn good_memory_read_write() {
        let mut m = GoodMemory::new(16);
        assert_eq!(m.capacity(), 16);
        assert!(!m.read(Address::new(3)));
        m.write(Address::new(3), true);
        assert!(m.read(Address::new(3)));
        assert!(m.get(Address::new(3)));
        m.set(Address::new(3), false);
        assert!(!m.read(Address::new(3)));
    }

    #[test]
    fn filled_memory() {
        let m = GoodMemory::filled(8, true);
        assert!(m.iter().all(|v| v));
        assert_eq!(m.iter().count(), 8);
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let mut m = GoodMemory::new(4);
        let _ = m.read(Address::new(4));
    }

    #[test]
    fn fill_matches_filled_and_keeps_tail_bits_clear() {
        // Non-multiple-of-64 capacity exercises the tail-word mask.
        for capacity in [1u32, 63, 64, 65, 100, 128, 130] {
            let mut m = GoodMemory::new(capacity);
            m.fill(true);
            assert_eq!(m, GoodMemory::filled(capacity, true), "capacity {capacity}");
            assert!(m.iter().all(|v| v));
            // Writing every cell individually must give an identical store,
            // including the unused tail bits.
            let mut written = GoodMemory::new(capacity);
            for raw in 0..capacity {
                written.set(Address::new(raw), true);
            }
            assert_eq!(m, written, "capacity {capacity}");
            m.fill(false);
            assert_eq!(m, GoodMemory::new(capacity));
        }
    }

    #[test]
    fn lane_memory_tracks_only_involved_addresses() {
        let involved = [Address::new(9), Address::new(2), Address::new(2)];
        let mut m = LaneMemory::new(1024 * 1024, &involved);
        assert_eq!(m.capacity(), 1024 * 1024);
        assert_eq!(m.tracked(), 2, "duplicates collapse");
        assert_eq!(m.word(Address::new(2)), 0);
        m.set_lane(Address::new(2), 5, true);
        assert!(m.get_lane(Address::new(2), 5));
        assert!(!m.get_lane(Address::new(2), 4));
        assert_eq!(m.word(Address::new(2)), 1 << 5);
        m.fill(true);
        assert_eq!(m.word(Address::new(9)), u64::MAX);
        m.fill(false);
        assert_eq!(m.word(Address::new(9)), 0);
    }

    #[test]
    fn lane_memory_whole_word_write_skips_owned_lanes() {
        let a = Address::new(3);
        let mut m = LaneMemory::new(8, &[a]);
        m.set_lane(a, 0, true);
        m.set_lane(a, 7, true);
        // Write 0 everywhere except lanes 0 and 7.
        m.write_word(a, false, (1 << 0) | (1 << 7));
        assert_eq!(m.word(a), (1 << 0) | (1 << 7));
        // Write 1 everywhere except lane 0.
        m.write_word(a, true, 1 << 0);
        assert_eq!(m.word(a), u64::MAX);
    }

    #[test]
    fn lane_memory_slot_lookup_matches_sorted_rank_on_large_unions() {
        // The open-addressed index must agree with the sorted-rank
        // contract for clustered and scattered address sets alike.
        let mut rng = SplitMix64::new(0x51_07);
        for tracked in [1usize, 2, 7, 64, 191, 500] {
            let involved: Vec<Address> = (0..tracked)
                .map(|_| Address::new(rng.next_below(1 << 20) as u32))
                .collect();
            let mut memory = LaneMemory::new(1 << 20, &involved);
            let mut sorted: Vec<u32> = involved.iter().map(|a| a.value()).collect();
            sorted.sort_unstable();
            sorted.dedup();
            for (rank, &address) in sorted.iter().enumerate() {
                assert_eq!(memory.slot_of(Address::new(address)), rank);
            }
            // Slot-direct accessors agree with the address-based ones.
            let probe = Address::new(sorted[tracked / 2]);
            let slot = memory.slot_of(probe);
            memory.set_lane(probe, 11, true);
            assert_eq!(memory.word_at(slot), memory.word(probe));
            memory.write_word_at(slot, true, 1 << 11);
            assert_eq!(memory.word(probe), u64::MAX);
        }
    }

    #[test]
    fn reset_sorted_is_indistinguishable_from_a_fresh_construction() {
        // A reused memory must behave exactly like a freshly built one,
        // whether the new cohort is larger, smaller, or differently
        // shaped than the previous tenant — and leak no old state.
        let mut rng = SplitMix64::new(0x0002_E5E7);
        let mut reused = LaneMemory::new(4, &[Address::new(1)]);
        reused.fill(true);
        for tracked in [3usize, 500, 7, 64, 1, 191] {
            let involved: Vec<Address> = (0..tracked)
                .map(|_| Address::new(rng.next_below(1 << 20) as u32))
                .collect();
            let mut sorted: Vec<u32> = involved.iter().map(|a| a.value()).collect();
            sorted.sort_unstable();
            sorted.dedup();
            let sorted: Vec<Address> = sorted.into_iter().map(Address::new).collect();
            reused.reset_sorted(1 << 20, &sorted);
            let fresh = LaneMemory::from_sorted(1 << 20, &sorted);
            assert_eq!(reused, fresh, "tracked {tracked}");
            // Dirty the reused store so the next round must clean it.
            reused.fill(true);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn reset_sorted_rejects_unsorted_sets() {
        let mut m = LaneMemory::new(8, &[Address::new(1)]);
        m.reset_sorted(8, &[Address::new(3), Address::new(1)]);
    }

    #[test]
    fn from_sorted_matches_the_sorting_constructor() {
        let involved = [Address::new(2), Address::new(9), Address::new(40)];
        let via_new = LaneMemory::new(64, &involved);
        let via_sorted = LaneMemory::from_sorted(64, &involved);
        assert_eq!(via_new, via_sorted);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted_sets() {
        let _ = LaneMemory::from_sorted(8, &[Address::new(3), Address::new(1)]);
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn lane_memory_rejects_untracked_addresses() {
        let m = LaneMemory::new(8, &[Address::new(1)]);
        let _ = m.word(Address::new(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_memory_rejects_out_of_range_involved() {
        let _ = LaneMemory::new(4, &[Address::new(4)]);
    }

    /// Plain `Vec<bool>` memory — the seed implementation, kept as the
    /// differential-testing oracle for the bit-packed store.
    struct ReferenceMemory {
        cells: Vec<bool>,
    }

    impl ReferenceMemory {
        fn new(capacity: u32) -> Self {
            Self {
                cells: vec![false; capacity as usize],
            }
        }
    }

    impl MemoryModel for ReferenceMemory {
        fn capacity(&self) -> u32 {
            self.cells.len() as u32
        }
        fn read(&mut self, address: Address) -> bool {
            self.cells[address.value() as usize]
        }
        fn write(&mut self, address: Address, value: bool) {
            self.cells[address.value() as usize] = value;
        }
    }

    #[test]
    fn packed_store_matches_vec_bool_reference_on_random_sequences() {
        let mut rng = SplitMix64::new(0xB17_5707E);
        for capacity in [5u32, 64, 100, 257] {
            let mut packed = GoodMemory::new(capacity);
            let mut reference = ReferenceMemory::new(capacity);
            for step in 0..4_000 {
                let address = Address::new(rng.next_below(u64::from(capacity)) as u32);
                if rng.next_bool() {
                    let value = rng.next_bool();
                    packed.write(address, value);
                    reference.write(address, value);
                } else {
                    assert_eq!(
                        packed.read(address),
                        reference.read(address),
                        "capacity {capacity}, step {step}, address {}",
                        address.value()
                    );
                }
            }
            // Full-state comparison at the end of the sequence.
            for raw in 0..capacity {
                assert_eq!(
                    packed.get(Address::new(raw)),
                    reference.cells[raw as usize],
                    "capacity {capacity}, address {raw}"
                );
            }
        }
    }
}
