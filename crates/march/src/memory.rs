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
