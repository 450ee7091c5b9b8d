//! Compact sweep reports — the one report shape every sweep produces.
//!
//! A sweep keeps each fault as the `Copy` value it swept
//! ([`FaultModel`]) next to its mismatch count: one [`OutcomeCode`] per
//! fault and no string. Names are rendered only when something asks for
//! them. The [`InternedSweep`] report offers the aggregate accessors
//! consumers need (coverage, per-kind counts), a stable 64-bit
//! [`digest`](InternedSweep::digest) (campaign journals pin this
//! fingerprint, not megabytes of outcomes) that formats every name into
//! one reused buffer, and lazy per-outcome [`Display`](std::fmt::Display)
//! rendering.
//!
//! Sweeps produce it through
//! [`evaluate_coverage_interned`](crate::coverage::evaluate_coverage_interned).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::faults::{FaultKind, FaultModel};
use crate::rng::Fnv1a;

/// One fault's sweep result: the fault value and its mismatch count, no
/// owned strings. Its [`Display`](fmt::Display) writes
/// `"<name> <kind> detected=<bool> mismatches=<n>"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeCode {
    /// The fault swept.
    pub fault: FaultModel,
    /// Number of read mismatches observed.
    pub mismatches: u32,
}

impl OutcomeCode {
    /// Whether at least one read mismatched.
    pub fn detected(&self) -> bool {
        self.mismatches > 0
    }

    /// The fault's class.
    pub fn kind(&self) -> FaultKind {
        self.fault.kind()
    }

    /// The fault's instance name, rendered on this call.
    pub fn name(&self) -> String {
        self.fault.to_string()
    }
}

impl fmt::Display for OutcomeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} detected={} mismatches={}",
            self.fault,
            self.kind(),
            self.detected(),
            self.mismatches
        )
    }
}

/// A coverage sweep report that holds fault values, not names — what
/// every sweep produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedSweep {
    test: String,
    order: String,
    codes: Vec<OutcomeCode>,
    detected: usize,
}

impl InternedSweep {
    /// Builds a report from each fault's outcome, in fault-list order,
    /// caching the detection count.
    pub fn new(test: impl Into<String>, order: impl Into<String>, codes: Vec<OutcomeCode>) -> Self {
        let detected = codes.iter().filter(|code| code.detected()).count();
        Self {
            test: test.into(),
            order: order.into(),
            codes,
            detected,
        }
    }

    /// Name of the March test evaluated.
    pub fn test_name(&self) -> &str {
        &self.test
    }

    /// Name of the address order used.
    pub fn order_name(&self) -> &str {
        &self.order
    }

    /// Per-fault outcome codes, in fault-list order.
    pub fn codes(&self) -> &[OutcomeCode] {
        &self.codes
    }

    /// Total number of faults simulated.
    pub fn total(&self) -> usize {
        self.codes.len()
    }

    /// Number of detected faults (cached — no rescan).
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// Fault coverage as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.codes.is_empty() {
            return 0.0;
        }
        self.detected as f64 / self.total() as f64
    }

    /// Total read mismatches across every outcome.
    pub fn total_mismatches(&self) -> u64 {
        self.codes
            .iter()
            .map(|code| u64::from(code.mismatches))
            .sum()
    }

    /// Outcome `index`, whose [`Display`](fmt::Display) renders the
    /// fault's name as it writes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn outcome(&self, index: usize) -> OutcomeCode {
        self.codes[index]
    }

    /// A stable 64-bit digest of the whole report: test and order names
    /// plus every outcome's name, kind, detection bit and mismatch count,
    /// absorbed in fault-list order through [`Fnv1a`]. Each name is
    /// formatted into one buffer reused across the report. Campaign
    /// journals and exports store it, so its value must not move: a test
    /// pins it for the Table 1 sweeps of the standard fault list.
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.write(self.test.as_bytes());
        hasher.write_u8(0xFF);
        hasher.write(self.order.as_bytes());
        hasher.write_u8(0xFF);
        let mut name = String::new();
        for code in &self.codes {
            name.clear();
            write!(name, "{}", code.fault).expect("formatting into a String cannot fail");
            hasher.write(name.as_bytes());
            hasher.write_u8(0xFE);
            hasher.write(code.kind().as_str().as_bytes());
            hasher.write_u8(u8::from(code.detected()));
            hasher.write_u64(u64::from(code.mismatches));
        }
        hasher.finish()
    }

    /// Per-fault-kind `(detected, total)` counts, keyed by the kind's
    /// short name.
    pub fn by_kind(&self) -> BTreeMap<String, (usize, usize)> {
        let mut map: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for code in &self.codes {
            let entry = map.entry(code.kind().as_str()).or_insert((0, 0));
            entry.1 += 1;
            if code.detected() {
                entry.0 += 1;
            }
        }
        map.into_iter()
            .map(|(kind, counts)| (kind.to_string(), counts))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::TransitionFault;
    use sram_model::address::Address;

    #[test]
    fn lazy_display_renders_the_name_from_the_value() {
        let sweep = InternedSweep::new(
            "March SS",
            "word line after word line",
            vec![OutcomeCode {
                fault: TransitionFault::new(Address::new(3), true).into(),
                mismatches: 2,
            }],
        );
        assert_eq!(
            sweep.outcome(0).to_string(),
            "TF-up@3 TF detected=true mismatches=2"
        );
        assert_eq!(sweep.outcome(0).name(), "TF-up@3");
        assert_eq!(sweep.detected(), 1);
        assert_eq!(sweep.total(), 1);
        assert_eq!(sweep.total_mismatches(), 2);
        assert_eq!(sweep.test_name(), "March SS");
        assert_eq!(sweep.order_name(), "word line after word line");
        assert_eq!(sweep.by_kind()["TF"], (1, 1));
    }

    #[test]
    fn empty_sweep_has_zero_coverage() {
        let sweep = InternedSweep::new("MATS+", "column major", Vec::new());
        assert_eq!(sweep.coverage(), 0.0);
        assert_eq!(sweep.total(), 0);
        assert!(sweep.by_kind().is_empty());
    }
}
