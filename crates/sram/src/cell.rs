//! The 6T SRAM cell model.
//!
//! Each cell stores one bit on a cross-coupled latch with two storage nodes
//! `S` and `SB`. The model is behavioural: node voltages are derived from
//! the stored bit (one node at `V_DD`, the other at ground). Besides the
//! bit, a cell remembers only whether its value was last set by a
//! **corruption** — a faulty swap (Figure 7) that overwrites the stored
//! value through charge sharing with a discharged bit line — so
//! verification can distinguish a legitimate write from a destroyed bit.
//! Read-equivalent stress is counted by the controller per cycle, not per
//! cell (see [`crate::stress`]).

use transient::units::Volts;

/// One six-transistor SRAM cell. The default cell stores `0`, the
/// conventional post-power-up background.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SramCell {
    value: bool,
    corrupted: bool,
}

impl SramCell {
    /// Creates a cell holding `value`.
    pub fn new(value: bool) -> Self {
        Self {
            value,
            corrupted: false,
        }
    }

    /// The stored bit.
    pub fn value(&self) -> bool {
        self.value
    }

    /// Voltage of the true storage node `S` for a given supply: `V_DD` when
    /// the cell stores `1`, ground otherwise.
    pub fn node_s(&self, vdd: Volts) -> Volts {
        if self.value {
            vdd
        } else {
            Volts::ZERO
        }
    }

    /// Voltage of the complementary storage node `SB`.
    pub fn node_sb(&self, vdd: Volts) -> Volts {
        if self.value {
            Volts::ZERO
        } else {
            vdd
        }
    }

    /// Performs a write, clearing any pending corruption flag (the new data
    /// overwrites whatever damage the swap did).
    pub fn write(&mut self, value: bool) {
        self.value = value;
        self.corrupted = false;
    }

    /// Forcibly overwrites the stored value through bit-line charge sharing
    /// (a faulty swap). Marks the cell corrupted only when the value
    /// actually changes.
    pub fn corrupt_to(&mut self, value: bool) {
        if self.value != value {
            self.value = value;
            self.corrupted = true;
        }
    }

    /// Returns `true` if the last value change was a faulty swap rather than
    /// a legitimate write.
    pub fn is_corrupted(&self) -> bool {
        self.corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut cell = SramCell::default();
        assert!(!cell.value());
        cell.write(true);
        assert!(cell.value());
        cell.write(false);
        assert!(!cell.value());
        assert_eq!(std::mem::size_of::<SramCell>(), 2);
    }

    #[test]
    fn node_voltages_follow_stored_value() {
        let vdd = Volts(1.6);
        let mut cell = SramCell::new(true);
        assert_eq!(cell.node_s(vdd), vdd);
        assert_eq!(cell.node_sb(vdd), Volts::ZERO);
        cell.write(false);
        assert_eq!(cell.node_s(vdd), Volts::ZERO);
        assert_eq!(cell.node_sb(vdd), vdd);
    }

    #[test]
    fn corruption_only_flags_actual_flips() {
        let mut cell = SramCell::new(true);
        cell.corrupt_to(true);
        assert!(!cell.is_corrupted());
        cell.corrupt_to(false);
        assert!(cell.is_corrupted());
        assert!(!cell.value());
        // A legitimate write clears the flag.
        cell.write(true);
        assert!(!cell.is_corrupted());
    }
}
