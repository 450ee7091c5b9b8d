//! Dense fault-population generation.
//!
//! The standard 48-fault list ([`crate::faults::standard_fault_list`])
//! instantiates every fault class at three representative victims — enough
//! to characterise an algorithm, far too small to exercise the sweep
//! engines the way a real qualification run would. Production-scale March
//! sweeps cover *populations*: per-row and per-column victims across the
//! whole address space, coupling pairs spread over physical
//! neighbourhoods, and mixed profiles reaching hundreds of thousands of
//! faults on megabit arrays.
//!
//! [`FaultGen`] synthesizes those populations deterministically from a
//! [`SplitMix64`] seed, so every experiment — and every failure — is
//! reproducible from `(organization, seed, profile)` alone:
//!
//! * [`FaultGen::stuck_at_per_row`] / [`FaultGen::transitions_per_column`]
//!   — single-cell victims sampled without replacement along each row /
//!   column of the array;
//! * [`FaultGen::neighbourhood_coupling`] — aggressor/victim pairs at a
//!   configurable Manhattan radius in the physical (row, column) plane,
//!   drawn from all three coupling flavours;
//! * [`FaultGen::mixed`] — uniformly mixed fault kinds across the whole
//!   address space (every class of [`crate::faults`]), the profile the
//!   randomized differential harness feeds to the collapsed backend;
//! * [`FaultGen::overlapping_clusters`] — many faults sharing the same few
//!   victims, the overlap-heavy shape a qualification sweep emits.
//!
//! Generated lists are plain `Vec<FaultModel>` — one `Copy` value per
//! fault — so they flow through the existing
//! [`crate::coverage`]/[`crate::dof`] sweeps and the collapsed backend
//! unchanged; [`FaultPopulation`] wraps a list with the profile name for
//! benches and reports.

use sram_model::address::Address;
use sram_model::config::ArrayOrganization;

use crate::faults::{
    AddressAliasFault, CouplingIdempotentFault, CouplingInversionFault, CouplingStateFault,
    DeceptiveReadDestructiveFault, FaultModel, IncorrectReadFault, ReadDestructiveFault,
    StuckAtFault, StuckOpenFault, TransitionFault, WriteDisturbFault,
};
use crate::rng::SplitMix64;

/// A rejected fault-population configuration.
///
/// The `try_*` generators return these instead of panicking, so job-level
/// callers (the campaign runner, CLIs) can turn a bad job spec into a
/// recorded failure rather than a dead worker. The panicking generators
/// remain for test/bench code that has already validated its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultGenError {
    /// More victims requested per row than the array has columns.
    VictimsExceedColumns {
        /// Victims requested per row.
        requested: u32,
        /// Columns available.
        cols: u32,
    },
    /// More victims requested per column than the array has rows.
    VictimsExceedRows {
        /// Victims requested per column.
        requested: u32,
        /// Rows available.
        rows: u32,
    },
    /// A two-cell fault profile was requested on an array with fewer than
    /// two cells.
    ArrayTooSmallForPairs {
        /// Capacity of the offending array.
        capacity: u32,
    },
    /// The requested profile would generate no faults at all.
    EmptyPopulation,
}

impl std::fmt::Display for FaultGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::VictimsExceedColumns { requested, cols } => write!(
                f,
                "cannot place {requested} distinct victims in a {cols}-column row"
            ),
            Self::VictimsExceedRows { requested, rows } => write!(
                f,
                "cannot place {requested} distinct victims in a {rows}-row column"
            ),
            Self::ArrayTooSmallForPairs { capacity } => write!(
                f,
                "two-cell faults need at least two addresses, array holds {capacity}"
            ),
            Self::EmptyPopulation => write!(f, "the requested profile would generate no faults"),
        }
    }
}

impl std::error::Error for FaultGenError {}

/// A named, generated fault list: the output of one [`FaultGen`] profile.
///
/// Dereferences to `[FaultModel]`, so a population drops into every API
/// that sweeps a fault list (`evaluate_coverage_interned`,
/// `verify_order_independence`, …).
pub struct FaultPopulation {
    /// Profile label, e.g. `"mixed-100000"` — used by benches and reports.
    pub name: String,
    /// The generated faults, in generation (or shuffled) order.
    pub faults: Vec<FaultModel>,
}

impl FaultPopulation {
    /// Wraps a generated list with its profile name.
    pub fn new(name: impl Into<String>, faults: Vec<FaultModel>) -> Self {
        Self {
            name: name.into(),
            faults,
        }
    }

    /// Number of faults in the population.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the population holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl std::ops::Deref for FaultPopulation {
    type Target = [FaultModel];

    fn deref(&self) -> &[FaultModel] {
        &self.faults
    }
}

impl std::fmt::Debug for FaultPopulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPopulation")
            .field("name", &self.name)
            .field("faults", &self.faults.len())
            .finish()
    }
}

/// Deterministic generator of dense fault populations over one array
/// organization.
///
/// All sampling is driven by the owned [`SplitMix64`] stream: the same
/// `(organization, seed)` pair reproduces the same population on every
/// platform, which is what lets the differential tests print a failing
/// seed instead of a multi-megabyte fault list.
#[derive(Debug, Clone)]
pub struct FaultGen {
    organization: ArrayOrganization,
    rng: SplitMix64,
}

impl FaultGen {
    /// Creates a generator over `organization` seeded with `seed`.
    pub fn new(organization: ArrayOrganization, seed: u64) -> Self {
        Self {
            organization,
            rng: SplitMix64::new(seed),
        }
    }

    /// The organization the populations are generated for.
    pub fn organization(&self) -> &ArrayOrganization {
        &self.organization
    }

    /// A uniformly random address of the array.
    fn any_address(&mut self) -> Address {
        Address::new(self.rng.next_below(u64::from(self.organization.capacity())) as u32)
    }

    /// A uniformly random address different from `other` (the array must
    /// hold at least two cells).
    fn distinct_address(&mut self, other: Address) -> Address {
        assert!(
            self.organization.capacity() >= 2,
            "two-cell faults need at least two addresses"
        );
        // Sample over capacity-1 slots and skip past `other`: uniform
        // without rejection loops.
        let raw = self
            .rng
            .next_below(u64::from(self.organization.capacity()) - 1) as u32;
        Address::new(if raw >= other.value() { raw + 1 } else { raw })
    }

    /// `count` distinct values from `0..bound`, sampled by a partial
    /// Fisher–Yates over a scratch index vector.
    fn distinct_below(&mut self, bound: u32, count: u32, scratch: &mut Vec<u32>) -> Vec<u32> {
        assert!(count <= bound, "cannot sample {count} distinct of {bound}");
        scratch.clear();
        scratch.extend(0..bound);
        (0..count as usize)
            .map(|taken| {
                let pick = taken + self.rng.next_below(u64::from(bound) - taken as u64) as usize;
                scratch.swap(taken, pick);
                scratch[taken]
            })
            .collect()
    }

    /// Per-row stuck-at victims: for every row of the array,
    /// `victims_per_row` distinct random columns, each stuck at a random
    /// value. Covers the whole address space row by row —
    /// `rows × victims_per_row` faults.
    ///
    /// # Panics
    ///
    /// Panics if `victims_per_row` exceeds the column count; see
    /// [`FaultGen::try_stuck_at_per_row`] for the fallible form.
    pub fn stuck_at_per_row(&mut self, victims_per_row: u32) -> Vec<FaultModel> {
        match self.try_stuck_at_per_row(victims_per_row) {
            Ok(faults) => faults,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`FaultGen::stuck_at_per_row`]: rejects a quota that does
    /// not fit in a row instead of panicking. A quota of zero is valid and
    /// yields an empty contribution (blended profiles rely on that).
    pub fn try_stuck_at_per_row(
        &mut self,
        victims_per_row: u32,
    ) -> Result<Vec<FaultModel>, FaultGenError> {
        let (rows, cols) = (self.organization.rows(), self.organization.cols());
        if victims_per_row > cols {
            return Err(FaultGenError::VictimsExceedColumns {
                requested: victims_per_row,
                cols,
            });
        }
        let mut scratch = Vec::new();
        let mut faults: Vec<FaultModel> = Vec::with_capacity((rows * victims_per_row) as usize);
        for row in 0..rows {
            for col in self.distinct_below(cols, victims_per_row, &mut scratch) {
                let victim = Address::new(row * cols + col);
                let value = self.rng.next_bool();
                faults.push(StuckAtFault::new(victim, value).into());
            }
        }
        Ok(faults)
    }

    /// Per-column transition victims: for every column of the array,
    /// `victims_per_column` distinct random rows, each failing a random
    /// transition direction — `cols × victims_per_column` faults.
    ///
    /// # Panics
    ///
    /// Panics if `victims_per_column` exceeds the row count; see
    /// [`FaultGen::try_transitions_per_column`] for the fallible form.
    pub fn transitions_per_column(&mut self, victims_per_column: u32) -> Vec<FaultModel> {
        match self.try_transitions_per_column(victims_per_column) {
            Ok(faults) => faults,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`FaultGen::transitions_per_column`]: rejects a quota that
    /// does not fit in a column instead of panicking. A quota of zero is
    /// valid and yields an empty contribution.
    pub fn try_transitions_per_column(
        &mut self,
        victims_per_column: u32,
    ) -> Result<Vec<FaultModel>, FaultGenError> {
        let (rows, cols) = (self.organization.rows(), self.organization.cols());
        if victims_per_column > rows {
            return Err(FaultGenError::VictimsExceedRows {
                requested: victims_per_column,
                rows,
            });
        }
        let mut scratch = Vec::new();
        let mut faults: Vec<FaultModel> = Vec::with_capacity((cols * victims_per_column) as usize);
        for col in 0..cols {
            for row in self.distinct_below(rows, victims_per_column, &mut scratch) {
                let victim = Address::new(row * cols + col);
                let rising = self.rng.next_bool();
                faults.push(TransitionFault::new(victim, rising).into());
            }
        }
        Ok(faults)
    }

    /// A random aggressor within Manhattan distance `radius` of `victim`
    /// in the physical (row, column) plane, in bounds and distinct from
    /// the victim.
    fn neighbour_of(&mut self, victim: Address, radius: u32) -> Address {
        let organization = self.organization;
        let (rows, cols) = (organization.rows() as i64, organization.cols() as i64);
        let row = i64::from(victim.row(&organization).0);
        let col = i64::from(victim.col(&organization).value());
        let r = i64::from(radius.max(1));
        loop {
            let dr = self.rng.next_below(2 * r as u64 + 1) as i64 - r;
            let dc = self.rng.next_below(2 * r as u64 + 1) as i64 - r;
            if dr.abs() + dc.abs() > r || (dr == 0 && dc == 0) {
                continue;
            }
            let (nr, nc) = (row + dr, col + dc);
            if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
                continue;
            }
            return Address::new((nr * cols + nc) as u32);
        }
    }

    /// One random coupling fault (CFin/CFid/CFst, uniform) between
    /// `aggressor` and `victim`.
    fn coupling_between(&mut self, aggressor: Address, victim: Address) -> FaultModel {
        match self.rng.next_below(3) {
            0 => {
                let rising = self.rng.next_bool();
                CouplingInversionFault::new(aggressor, victim, rising).into()
            }
            1 => {
                let rising = self.rng.next_bool();
                let forced = self.rng.next_bool();
                CouplingIdempotentFault::new(aggressor, victim, rising, forced).into()
            }
            _ => {
                let state = self.rng.next_bool();
                let forced = self.rng.next_bool();
                CouplingStateFault::new(aggressor, victim, state, forced).into()
            }
        }
    }

    /// Neighbourhood coupling sets: `pairs` aggressor/victim pairs where
    /// the aggressor sits within Manhattan distance `radius` of a random
    /// victim, drawn from all three coupling flavours with random
    /// trigger/force parameters.
    ///
    /// # Panics
    ///
    /// Panics if the array holds fewer than two cells; see
    /// [`FaultGen::try_neighbourhood_coupling`] for the fallible form.
    pub fn neighbourhood_coupling(&mut self, pairs: usize, radius: u32) -> Vec<FaultModel> {
        match self.try_neighbourhood_coupling(pairs, radius) {
            Ok(faults) => faults,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`FaultGen::neighbourhood_coupling`]: rejects one-cell
    /// arrays (which cannot host an aggressor/victim pair) instead of
    /// panicking.
    pub fn try_neighbourhood_coupling(
        &mut self,
        pairs: usize,
        radius: u32,
    ) -> Result<Vec<FaultModel>, FaultGenError> {
        self.require_pair_capacity()?;
        Ok((0..pairs)
            .map(|_| {
                let victim = self.any_address();
                let aggressor = self.neighbour_of(victim, radius);
                self.coupling_between(aggressor, victim)
            })
            .collect())
    }

    /// Errors unless the array can host a two-cell fault.
    fn require_pair_capacity(&self) -> Result<(), FaultGenError> {
        let capacity = self.organization.capacity();
        if capacity < 2 {
            return Err(FaultGenError::ArrayTooSmallForPairs { capacity });
        }
        Ok(())
    }

    /// One uniformly random fault of any class at random addresses — the
    /// atom of [`FaultGen::mixed`].
    ///
    /// # Panics
    ///
    /// Panics if the array holds fewer than two cells (two-cell classes
    /// need a distinct aggressor/target).
    pub fn any_fault(&mut self) -> FaultModel {
        let victim = self.any_address();
        match self.rng.next_below(11) {
            0 => {
                let value = self.rng.next_bool();
                StuckAtFault::new(victim, value).into()
            }
            1 => {
                let rising = self.rng.next_bool();
                TransitionFault::new(victim, rising).into()
            }
            2..=4 => {
                let aggressor = self.distinct_address(victim);
                self.coupling_between(aggressor, victim)
            }
            5 => ReadDestructiveFault::new(victim).into(),
            6 => DeceptiveReadDestructiveFault::new(victim).into(),
            7 => IncorrectReadFault::new(victim).into(),
            8 => StuckOpenFault::new(victim).into(),
            9 => WriteDisturbFault::new(victim).into(),
            _ => {
                let target = self.distinct_address(victim);
                AddressAliasFault::new(victim, target).into()
            }
        }
    }

    /// A mixed profile: `count` uniformly random faults across every
    /// class and the whole address space. This is how populations from
    /// hundreds to ≥100k faults are sized for dense sweeps, and the shape
    /// the randomized differential harness replays against the golden
    /// path.
    pub fn mixed(&mut self, count: usize) -> Vec<FaultModel> {
        (0..count).map(|_| self.any_fault()).collect()
    }

    /// Fallible [`FaultGen::mixed`]: rejects one-cell arrays (the mix
    /// includes two-cell classes) and a zero count (which would be an
    /// empty population) instead of panicking or silently sweeping
    /// nothing.
    pub fn try_mixed(&mut self, count: usize) -> Result<Vec<FaultModel>, FaultGenError> {
        self.require_pair_capacity()?;
        if count == 0 {
            return Err(FaultGenError::EmptyPopulation);
        }
        Ok(self.mixed(count))
    }

    /// Number of single-cell fault models [`FaultGen::overlapping_clusters`]
    /// instantiates per victim (both SAF polarities, both TF directions,
    /// RDF, DRDF, IRF, WDF, SOF).
    pub const MODELS_PER_VICTIM: usize = 9;

    /// An overlap-heavy profile — the qualification-sweep shape: `clusters`
    /// random victims, each carrying **every** single-cell fault model
    /// ([`FaultGen::MODELS_PER_VICTIM`] of them) plus `pairs_per_cluster`
    /// coupling neighbours within Manhattan `radius` — many faults per
    /// involved address. Shuffled ([`FaultGen::shuffle`]), it scatters
    /// each victim's faults through the list.
    ///
    /// # Panics
    ///
    /// Panics if the array holds fewer than two cells; see
    /// [`FaultGen::try_overlapping_clusters`] for the fallible form.
    pub fn overlapping_clusters(
        &mut self,
        clusters: usize,
        pairs_per_cluster: usize,
        radius: u32,
    ) -> Vec<FaultModel> {
        match self.try_overlapping_clusters(clusters, pairs_per_cluster, radius) {
            Ok(faults) => faults,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`FaultGen::overlapping_clusters`]: rejects one-cell
    /// arrays instead of panicking.
    pub fn try_overlapping_clusters(
        &mut self,
        clusters: usize,
        pairs_per_cluster: usize,
        radius: u32,
    ) -> Result<Vec<FaultModel>, FaultGenError> {
        self.require_pair_capacity()?;
        let mut faults: Vec<FaultModel> =
            Vec::with_capacity(clusters * (Self::MODELS_PER_VICTIM + pairs_per_cluster));
        for _ in 0..clusters {
            let victim = self.any_address();
            for value in [false, true] {
                faults.push(StuckAtFault::new(victim, value).into());
                faults.push(TransitionFault::new(victim, value).into());
            }
            faults.push(ReadDestructiveFault::new(victim).into());
            faults.push(DeceptiveReadDestructiveFault::new(victim).into());
            faults.push(IncorrectReadFault::new(victim).into());
            faults.push(WriteDisturbFault::new(victim).into());
            faults.push(StuckOpenFault::new(victim).into());
            for _ in 0..pairs_per_cluster {
                let aggressor = self.neighbour_of(victim, radius);
                faults.push(self.coupling_between(aggressor, victim));
            }
        }
        Ok(faults)
    }

    /// Shuffles `faults` in place with this generator's stream —
    /// destroys any address locality the generation order produced, which
    /// is what the population-order benchmarks need the input to look
    /// like.
    pub fn shuffle(&mut self, faults: &mut [FaultModel]) {
        self.rng.shuffle(faults);
    }

    /// The dense benchmark profile, blended from every generator: ~92 %
    /// per-victim model bundles ([`FaultGen::overlapping_clusters`] —
    /// real qualification sweeps instantiate every fault model at each
    /// sampled victim), ~3 % per-row stuck-at victims, ~2 %
    /// per-column transition victims, ~2 % neighbourhood coupling pairs
    /// and a mixed remainder. Sized by `target` total faults; the result
    /// lands within a few faults of `target` on any organization large
    /// enough to hold the per-row/per-column quotas.
    ///
    /// The population is returned in generation order (clustered, the
    /// way a qualification flow would emit it); callers stress-testing
    /// population order should [`FaultGen::shuffle`] it themselves.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::faultgen::FaultGen;
    /// use sram_model::config::ArrayOrganization;
    ///
    /// let organization = ArrayOrganization::new(16, 16)?;
    /// let population = FaultGen::new(organization, 0x2006).dense_profile(500);
    ///
    /// // The blend reaches the target (the mixed remainder tops it up)
    /// // and names itself after its final size.
    /// assert!(population.len() >= 500);
    /// assert_eq!(population.name, format!("dense-{}", population.len()));
    ///
    /// // Same organization + seed, same population: generation is
    /// // deterministic, which is what lets benches commit their numbers.
    /// let again = FaultGen::new(organization, 0x2006).dense_profile(500);
    /// assert_eq!(population.len(), again.len());
    /// # Ok::<(), sram_model::error::SramError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on one-cell arrays and on a zero target; see
    /// [`FaultGen::try_dense_profile`] for the fallible form.
    pub fn dense_profile(&mut self, target: usize) -> FaultPopulation {
        match self.try_dense_profile(target) {
            Ok(population) => population,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`FaultGen::dense_profile`]: rejects one-cell arrays (the
    /// blend includes coupling pairs) and a zero target (an empty
    /// population) instead of panicking.
    pub fn try_dense_profile(&mut self, target: usize) -> Result<FaultPopulation, FaultGenError> {
        self.require_pair_capacity()?;
        if target == 0 {
            return Err(FaultGenError::EmptyPopulation);
        }
        let (rows, cols) = (
            u64::from(self.organization.rows()),
            u64::from(self.organization.cols()),
        );
        let clusters = (target * 92 / 100) / (Self::MODELS_PER_VICTIM + 1);
        // Quotas round *down*: a share too small to give every row or
        // column a victim contributes nothing (the mixed remainder makes
        // up the difference) instead of overshooting the target by a
        // whole row/column sweep on large arrays.
        let per_row = ((target as u64 * 3 / 100 / rows) as u32).min(cols as u32);
        let per_col = ((target as u64 * 2 / 100 / cols) as u32).min(rows as u32);
        let mut faults = self.overlapping_clusters(clusters, 1, 2);
        faults.extend(self.stuck_at_per_row(per_row));
        faults.extend(self.transitions_per_column(per_col));
        faults.extend(self.neighbourhood_coupling(target * 2 / 100, 2));
        let mixed = target.saturating_sub(faults.len());
        faults.extend(self.mixed(mixed));
        Ok(FaultPopulation::new(
            format!("dense-{}", faults.len()),
            faults,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultKind};
    use std::collections::BTreeSet;

    fn org(rows: u32, cols: u32) -> ArrayOrganization {
        ArrayOrganization::new(rows, cols).unwrap()
    }

    #[test]
    fn same_seed_reproduces_the_same_population() {
        let organization = org(8, 8);
        let a = FaultGen::new(organization, 42).mixed(200);
        let b = FaultGen::new(organization, 42).mixed(200);
        assert_eq!(a.len(), 200);
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa, fb);
        }
        let c = FaultGen::new(organization, 43).mixed(200);
        let diverged = a.iter().zip(&c).any(|(fa, fc)| fa != fc);
        assert!(diverged, "different seeds must produce different lists");
    }

    #[test]
    fn per_row_stuck_at_covers_every_row_with_distinct_victims() {
        let organization = org(16, 8);
        let faults = FaultGen::new(organization, 7).stuck_at_per_row(3);
        assert_eq!(faults.len(), 16 * 3);
        let mut victims_by_row = vec![BTreeSet::new(); 16];
        for fault in &faults {
            assert_eq!(fault.kind(), FaultKind::StuckAt);
            let involved = fault.involved_addresses().unwrap();
            assert_eq!(involved.len(), 1);
            let victim = involved[0];
            assert!(victim.is_valid(&organization));
            victims_by_row[victim.row(&organization).0 as usize].insert(victim.value());
        }
        for (row, victims) in victims_by_row.iter().enumerate() {
            assert_eq!(victims.len(), 3, "row {row} victims must be distinct");
        }
    }

    #[test]
    fn per_column_transitions_cover_every_column() {
        let organization = org(8, 16);
        let faults = FaultGen::new(organization, 9).transitions_per_column(2);
        assert_eq!(faults.len(), 16 * 2);
        let mut victims_by_col = vec![BTreeSet::new(); 16];
        for fault in &faults {
            assert_eq!(fault.kind(), FaultKind::Transition);
            let victim = fault.involved_addresses().unwrap()[0];
            victims_by_col[victim.col(&organization).value() as usize].insert(victim.value());
        }
        assert!(victims_by_col.iter().all(|v| v.len() == 2));
    }

    #[test]
    fn neighbourhood_coupling_respects_the_manhattan_radius() {
        let organization = org(16, 16);
        for radius in [1, 2, 4] {
            let faults = FaultGen::new(organization, 11).neighbourhood_coupling(300, radius);
            assert_eq!(faults.len(), 300);
            for fault in &faults {
                let involved = fault.involved_addresses().unwrap();
                assert_eq!(involved.len(), 2, "coupling pairs involve two cells");
                let (a, v) = (involved[0], involved[1]);
                assert_ne!(a, v);
                let dr = a.row(&organization).0.abs_diff(v.row(&organization).0);
                let dc = a
                    .col(&organization)
                    .value()
                    .abs_diff(v.col(&organization).value());
                assert!(
                    dr + dc <= radius,
                    "{} exceeds Manhattan radius {radius}",
                    fault.name()
                );
            }
        }
    }

    #[test]
    fn mixed_profile_spans_every_fault_kind_and_scales() {
        let organization = org(32, 32);
        let faults = FaultGen::new(organization, 2006).mixed(2_000);
        assert_eq!(faults.len(), 2_000);
        let kinds: BTreeSet<String> = faults.iter().map(|f| f.kind().to_string()).collect();
        for expected in [
            "SAF", "TF", "CFin", "CFid", "CFst", "RDF", "DRDF", "IRF", "SOF", "WDF", "AF",
        ] {
            assert!(kinds.contains(expected), "missing kind {expected}");
        }
    }

    #[test]
    fn dense_profile_hits_the_target_size_at_scale() {
        // The acceptance shape: >=100k faults on a 1024x1024 array. Only
        // generation is exercised here (sweeping it is the bench's job).
        let organization = org(1024, 1024);
        let population = FaultGen::new(organization, 1).dense_profile(100_000);
        assert!(
            population.len() >= 100_000,
            "dense profile generated {} faults",
            population.len()
        );
        assert!(population.name.starts_with("dense-"));
        assert!(!population.is_empty());
        // Every fault must be instantiable and in bounds.
        for fault in population.iter().step_by(997) {
            if let Some(involved) = fault.involved_addresses() {
                assert!(involved.iter().all(|a| a.is_valid(&organization)));
            }
        }
    }

    #[test]
    fn overlapping_clusters_bundle_every_single_cell_model_per_victim() {
        let organization = org(8, 8);
        let faults = FaultGen::new(organization, 5).overlapping_clusters(4, 2, 1);
        assert_eq!(faults.len(), 4 * (FaultGen::MODELS_PER_VICTIM + 2));
        // At most 4 distinct victims anchor all 44 faults: heavy overlap.
        // (SOF has no involved list; its name still carries the victim.)
        let victims: BTreeSet<u32> = faults
            .iter()
            .filter_map(|f| {
                f.involved_addresses()
                    .map(|involved| involved.last().unwrap().value())
            })
            .collect();
        assert!(victims.len() <= 4, "clusters must reuse victims");
        // Every single-cell model class appears.
        let kinds: BTreeSet<String> = faults.iter().map(|f| f.kind().to_string()).collect();
        for expected in ["SAF", "TF", "RDF", "DRDF", "IRF", "WDF", "SOF"] {
            assert!(kinds.contains(expected), "missing kind {expected}");
        }
    }

    #[test]
    fn tiny_arrays_are_rejected_for_pair_faults() {
        let organization = org(1, 1);
        let mut gen = FaultGen::new(organization, 3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gen.neighbourhood_coupling(1, 1)
        }));
        assert!(result.is_err(), "one-cell arrays cannot host pairs");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gen.overlapping_clusters(1, 1, 1)
        }));
        assert!(result.is_err(), "one-cell arrays cannot host clusters");
    }

    /// Extracts the error from a `try_*` result.
    fn rejection<T>(result: Result<T, FaultGenError>) -> FaultGenError {
        match result {
            Err(error) => error,
            Ok(_) => panic!("expected the configuration to be rejected"),
        }
    }

    #[test]
    fn try_generators_reject_each_invalid_input_without_panicking() {
        // Per-row quota wider than a row.
        let mut gen = FaultGen::new(org(4, 4), 1);
        assert_eq!(
            rejection(gen.try_stuck_at_per_row(5)),
            FaultGenError::VictimsExceedColumns {
                requested: 5,
                cols: 4
            }
        );
        // Per-column quota taller than a column.
        assert_eq!(
            rejection(gen.try_transitions_per_column(5)),
            FaultGenError::VictimsExceedRows {
                requested: 5,
                rows: 4
            }
        );
        // Zero faults requested: an empty population is a configuration
        // error, not a successful no-op sweep.
        assert_eq!(rejection(gen.try_mixed(0)), FaultGenError::EmptyPopulation);
        assert_eq!(
            rejection(gen.try_dense_profile(0)),
            FaultGenError::EmptyPopulation
        );
        // One-cell arrays cannot host any of the pair-bearing profiles.
        let mut tiny = FaultGen::new(org(1, 1), 1);
        for error in [
            rejection(tiny.try_neighbourhood_coupling(1, 1)),
            rejection(tiny.try_overlapping_clusters(1, 1, 1)),
            rejection(tiny.try_mixed(4)),
            rejection(tiny.try_dense_profile(10)),
        ] {
            assert_eq!(error, FaultGenError::ArrayTooSmallForPairs { capacity: 1 });
        }
        // Every error renders a human-readable message for job records.
        assert!(
            FaultGenError::EmptyPopulation
                .to_string()
                .contains("no faults"),
            "errors must carry a readable message"
        );
    }

    #[test]
    fn try_generators_match_their_panicking_twins_on_valid_input() {
        let organization = org(8, 8);
        let a = FaultGen::new(organization, 6).try_mixed(64).unwrap();
        let b = FaultGen::new(organization, 6).mixed(64);
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa, fb);
        }
        // Zero quotas stay valid for the blended-profile contributors.
        let mut gen = FaultGen::new(organization, 6);
        assert!(gen.try_stuck_at_per_row(0).unwrap().is_empty());
        assert!(gen.try_transitions_per_column(0).unwrap().is_empty());
        assert!(gen.try_neighbourhood_coupling(0, 1).unwrap().is_empty());
    }

    #[test]
    fn distinct_below_is_a_partial_permutation() {
        let mut gen = FaultGen::new(org(4, 4), 99);
        let mut scratch = Vec::new();
        for _ in 0..50 {
            let sample = gen.distinct_below(10, 7, &mut scratch);
            let unique: BTreeSet<u32> = sample.iter().copied().collect();
            assert_eq!(unique.len(), 7);
            assert!(sample.iter().all(|&v| v < 10));
        }
    }
}
