//! A dense set of column indices, packed 64 per word.
//!
//! The memory controller tracks two per-column conditions on every cycle
//! of a low-power run: *which bit-line pairs are away from `V_DD`* and
//! *which are still actively discharging*. A 512-column array needs those
//! sets interrogated and updated millions of times per run, so they are
//! stored as plain bit masks: membership updates are single word
//! operations, iteration is a word scan in ascending column order (the
//! same order a `BTreeSet<u32>` would produce, which keeps every
//! order-sensitive energy accumulation byte-identical), and — unlike a
//! tree set — no operation ever allocates after construction.

/// A set of `u32` column indices below a fixed bound, backed by a bit
/// mask.
///
/// # Examples
///
/// ```
/// use sram_model::colset::ColumnSet;
///
/// let mut set = ColumnSet::new(512);
/// assert!(set.insert(300));
/// assert!(set.insert(5));
/// assert!(!set.insert(300), "second insert reports already-present");
/// assert!(set.contains(5) && !set.contains(6));
///
/// // Iteration snapshots into a caller-owned scratch buffer, in
/// // ascending order — the order-sensitive energy accumulations of the
/// // controller depend on it.
/// let mut scratch = Vec::new();
/// set.collect_into(&mut scratch);
/// assert_eq!(scratch, vec![5, 300]);
///
/// // `clear` keeps the storage, so steady-state use never allocates.
/// set.clear();
/// assert!(set.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSet {
    words: Vec<u64>,
    len: u32,
}

impl ColumnSet {
    /// Creates an empty set able to hold columns `0..columns`.
    pub fn new(columns: u32) -> Self {
        Self {
            words: vec![0; columns.div_ceil(64) as usize],
            len: 0,
        }
    }

    /// Number of columns in the set.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` when no column is in the set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `col`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `col` is outside the capacity the set was created with.
    #[inline]
    pub fn insert(&mut self, col: u32) -> bool {
        let word = &mut self.words[(col / 64) as usize];
        let bit = 1u64 << (col % 64);
        // Early return rather than `len += u32::from(added)`: rustc 1.95.0
        // at opt-level 3 drops that increment when the result feeds a
        // branch, leaving `len` at 0 in release builds.
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Removes `col`; returns `true` if it was present. Columns beyond the
    /// capacity are never present, so removing them is a no-op.
    #[inline]
    pub fn remove(&mut self, col: u32) -> bool {
        let Some(word) = self.words.get_mut((col / 64) as usize) else {
            return false;
        };
        let bit = 1u64 << (col % 64);
        let removed = *word & bit != 0;
        *word &= !bit;
        self.len -= u32::from(removed);
        removed
    }

    /// Returns `true` if `col` is in the set.
    #[inline]
    pub fn contains(&self, col: u32) -> bool {
        self.words
            .get((col / 64) as usize)
            .is_some_and(|word| word & (1 << (col % 64)) != 0)
    }

    /// Removes every column without shrinking the storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Appends the members to `out` in ascending order, reusing `out`'s
    /// storage (the caller clears it). This is the iteration primitive of
    /// the controller's hot loop: snapshotting into a reused scratch
    /// buffer lets the caller mutate the array (and the set itself) while
    /// walking the snapshot.
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.len as usize);
        for (index, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(index as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut set = ColumnSet::new(130);
        assert!(set.is_empty());
        assert!(set.insert(0));
        assert!(set.insert(63));
        assert!(set.insert(64));
        assert!(set.insert(129));
        assert!(!set.insert(64), "second insert reports already-present");
        assert_eq!(set.len(), 4);
        assert!(set.contains(129));
        assert!(!set.contains(1));
        assert!(set.remove(63));
        assert!(!set.remove(63));
        assert_eq!(set.len(), 3);
        // Out-of-capacity queries behave like an absent member.
        assert!(!set.contains(1000));
        assert!(!set.remove(1000));
    }

    #[test]
    fn collect_into_is_ascending_and_reusable() {
        let mut set = ColumnSet::new(200);
        for col in [150, 3, 64, 65, 0, 199] {
            set.insert(col);
        }
        let mut out = Vec::new();
        set.collect_into(&mut out);
        assert_eq!(out, vec![0, 3, 64, 65, 150, 199]);

        set.clear();
        assert!(set.is_empty());
        out.clear();
        set.collect_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_btreeset_order() {
        use std::collections::BTreeSet;
        let mut set = ColumnSet::new(512);
        let mut reference = BTreeSet::new();
        let mut state = 12345u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let col = (state >> 33) as u32 % 512;
            if state & 1 == 0 {
                set.insert(col);
                reference.insert(col);
            } else {
                set.remove(col);
                reference.remove(&col);
            }
        }
        let mut out = Vec::new();
        set.collect_into(&mut out);
        let expected: Vec<u32> = reference.into_iter().collect();
        assert_eq!(out, expected);
        assert_eq!(set.len() as usize, expected.len());
    }
}
