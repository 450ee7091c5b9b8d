//! Lane-batched multi-fault simulation: the [`FaultBatch`] planner and
//! cohort sweep driver.
//!
//! The per-fault kernel ([`crate::fault_sim::simulate_fault_on_walk`])
//! pays one walk dispatch — and one scratch-memory refill proportional to
//! the array capacity — per injected fault. The bit-packed store already
//! holds sixty-four cells per word, and the batched backend turns that
//! around: sixty-four *independent* faults ride one walk by giving each
//! bit lane of a [`LaneMemory`] its own faulty universe
//! ([`crate::executor::run_march_lanes`]).
//!
//! # Cohort lifecycle
//!
//! Every sweep runs the same five stages, in order; sequential passes are
//! marked `→`, the only permuted hop `⇢`:
//!
//! ```text
//!  fault list (factories, list order)
//!      │  probe: one instantiation per factory → inline lane kind
//!      │         (LaneFaultKind) or none, plus the involved addresses
//!      ▼         with their walk step counts
//!  probes (list order)
//!      │  plan: classify into lane / serial candidates, then group the
//!      ▼        lane candidates (CohortPlanner) into ≤64-lane cohorts
//!  cohorts: Lanes(…) …, Serial(…) …
//!      │  pack: concatenate the lane cohorts' members into one
//!      ⇢        contiguous Vec<LaneFaultKind> — **packed order**, the
//!      │        kernel's native order — with the serial singletons in
//!      │        the slots after it, recording the fault→slot inverse
//!      ▼        permutation as it goes
//!  packed lane array + per-cohort (start, len) ranges
//!      │  execute: one run_march_lanes dispatch per cohort over its
//!      │           slice of the packed array, one per-fault run per
//!      ▼           serial singleton; mismatch counts land in slot order
//!  mismatch counts (slot order, sequential writes)
//!      │  scatter: one list-order pass reads each fault's count through
//!      │           the inverse permutation and its name/kind from the
//!      ▼           sequential probe array
//!  InternedSweep (fault-list order — identical to the per-fault path)
//! ```
//!
//! Shuffled populations therefore cost exactly one permutation hop (the
//! pack stage's 16-byte `Copy` moves and the assembly's indexed reads)
//! instead of scattering every probe access and every outcome write, which
//! is what used to make address-scattered populations sweep ~1.5× slower
//! than generation-ordered ones.
//!
//! # Planning rules
//!
//! [`FaultBatch::plan_with`] partitions a fault list into dispatchable
//! [`Cohort`]s:
//!
//! * a fault joins a **lane cohort** ([`Cohort::Lanes`]) when the walk is
//!   [`MarchWalk::locality_safe`] and the fault provides a
//!   [`Fault::lane_kind`] — its lane form stored inline, dispatched by a
//!   match on plain data with no per-owner pointer chase;
//! * lane cohorts close at [`LaneMemory::LANES`] (64) members — a lane
//!   kind involves at most two cells, so a full cohort stays within the
//!   kernel's [`crate::executor::COHORT_ADDRESS_BUDGET`];
//! * everything else (no lane kind, or a non-locality-safe walk) becomes
//!   a serial singleton that runs the per-fault golden path.
//!
//! *Which* faults share a cohort is the [`CohortPlanner`]'s choice, and
//! it decides how much walk each cohort dispatches: a cohort's schedule
//! is the union of its members' involved-step slices, so packing faults
//! that **share addresses** into the same cohort shrinks the union. The
//! default [`CohortPlanner::AddressAware`] packer clusters by involved
//! addresses (kind-homogeneous within an address group, which keeps the
//! kernel's per-owner match running the same arm in long runs) and never
//! plans a worse total schedule than list order — it keeps whichever
//! grouping dispatches fewer steps; [`CohortPlanner::ListOrderGreedy`] is
//! the list-order baseline, kept so plans can be compared against it.
//! Because the address-signature clustering is insensitive to the input
//! order, a shuffled copy of a population packs into cohorts with
//! identical merged schedules (up to cohort order) as the
//! generation-ordered original.
//!
//! Cohort membership never changes *results*: lanes are independent
//! universes and the sweep reassembles outcomes in fault-list order, so
//! batched sweeps are byte-identical to per-fault ones (the randomized
//! differential harness in `tests/dense_population_differential.rs`
//! proves it seed by seed, including shuffled-permutation seeds).

use sram_model::address::Address;

use crate::executor::{run_march_lanes_scratch, LaneScratch, MarchWalk, COHORT_ADDRESS_BUDGET};
use crate::fault_sim::{simulate_fault_counts_on_walk, DetectionMode};
use crate::faults::{Fault, FaultFactory, FaultKind, LaneFaultKind};
use crate::intern::InternedSweep;
use crate::memory::{GoodMemory, LaneMemory};
use crate::parallel::par_chunk_map;

// A lane kind involves at most two cells, so no cohort the planner
// closes at `LANES` members can exceed the kernel's address budget.
const _: () = assert!(LaneMemory::LANES * 2 <= COHORT_ADDRESS_BUDGET);

/// One unit of sweep work produced by the [`FaultBatch`] planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cohort {
    /// Up to [`LaneMemory::LANES`] lane-compatible faults with inline
    /// [`LaneFaultKind`] forms, simulated in one walk dispatch off the
    /// packed cohort array; the values are indices into the planned fault
    /// list, and each fault's lane is its position in the vector.
    Lanes(Vec<usize>),
    /// A fault that must run the per-fault path: its index in the planned
    /// fault list.
    Serial(usize),
}

impl Cohort {
    /// Number of faults this cohort simulates.
    pub fn len(&self) -> usize {
        match self {
            Cohort::Lanes(indices) => indices.len(),
            Cohort::Serial(_) => 1,
        }
    }

    /// `true` when the cohort simulates no faults (never produced by the
    /// planner).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cohort-grouping strategy of a [`FaultBatch`] plan.
///
/// Every planner obeys the hard rules (lane-capable faults only, cohorts
/// close at [`LaneMemory::LANES`] members, each fault in exactly one
/// cohort); they differ only in *which* lane-capable faults share a
/// dispatch, which decides each cohort's merged-schedule size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CohortPlanner {
    /// Lane-capable faults are chunked in fault-list order — the
    /// baseline the address-aware packer is measured against.
    ListOrderGreedy,
    /// Lane-capable faults are sorted by their **victim-major**
    /// involved-address signature (the cell the fault is observed at
    /// leads the key, so a victim's single-cell models and its coupling
    /// pairs cluster together; fault kind is the tie-break, so cohorts
    /// also come out kind-homogeneous) before chunking: faults sharing
    /// victims land in the same cohort and their involved-step slices
    /// deduplicate inside the union. The packer then keeps whichever
    /// grouping — clustered or list-order — yields the smaller total
    /// merged schedule, so it is never worse than the greedy baseline.
    /// The signature sort does not depend on list positions (beyond
    /// final tie-breaking), which is what makes packed schedules
    /// invariant under population shuffles. The default, and what every
    /// sweep plans with.
    #[default]
    AddressAware,
}

/// A fault list partitioned into ≤64-lane cohorts for one walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultBatch {
    cohorts: Vec<Cohort>,
    faults: usize,
    planner: CohortPlanner,
    schedule_steps: u64,
}

/// Total walk steps the union of the given involved sets dispatches:
/// per-address step counts summed over the deduplicated union.
fn union_schedule_steps(walk: &MarchWalk, sets: &[&[Address]]) -> u64 {
    let mut union: Vec<Address> = sets.iter().flat_map(|set| set.iter().copied()).collect();
    union.sort_unstable();
    union.dedup();
    union
        .iter()
        .map(|&address| walk.steps_touching(address).len() as u64)
        .sum()
}

/// Probed faults in struct-of-arrays layout: the instances, the inline
/// lane kinds (when the walk admits them) and a CSR of the sorted
/// involved addresses of the kind-capable faults, each paired with its
/// walk step count.
///
/// Probing happens in fault-list order, once, and serves planning,
/// packing and outcome assembly — re-instantiating 100k faults per phase
/// (and re-reading the walk's cold CSR offsets per grouping evaluation)
/// is measurable at dense-population scale. The arrays are deliberately
/// *dense* (16 bytes per kind, 8 bytes per involved entry, no per-fault
/// heap spill): the packer visits them in clustered order and the pack
/// stage gathers through the packing permutation, and on shuffled
/// populations those permuted passes are what the sweep's throughput
/// hinges on.
struct ProbeSet {
    /// One instance per factory; the scatter stage reads each fault's
    /// name and kind from it.
    faults: Vec<Box<dyn Fault>>,
    /// The inline lane forms — `Copy`, so the pack stage moves them into
    /// the packed cohort array without touching the heap.
    kinds: Vec<Option<LaneFaultKind>>,
    /// `(address, steps touching it)` involved entries, ascending by
    /// address within each fault, concatenated in fault-list order.
    entries: Vec<(u32, u32)>,
    /// CSR offsets into `entries`: fault `i` owns
    /// `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Clustering signature of each *kind-capable* fault (`0` otherwise):
    /// the semantic primary address — the victim, the cell the fault is
    /// observed at, which is the **last** entry of the model's
    /// [`LaneFaultKind::involved`] order — in the high half, the
    /// secondary address (or `u32::MAX` for single-cell faults) in the
    /// low half. Keying on the victim keeps a victim's single-cell
    /// models and its coupling pairs adjacent under the address-aware
    /// sort, matching the locality a generation-ordered qualification
    /// flow emits; a min-address key would strand half the pairs under
    /// their aggressors.
    sigs: Vec<u64>,
}

impl ProbeSet {
    fn len(&self) -> usize {
        self.faults.len()
    }

    /// The involved `(address, steps)` entries of fault `index`.
    fn involved(&self, index: usize) -> &[(u32, u32)] {
        &self.entries[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }
}

/// Sorts, deduplicates and step-annotates an involved address set into
/// the probe CSR.
fn push_involved_steps(walk: &MarchWalk, addresses: &[Address], entries: &mut Vec<(u32, u32)>) {
    let start = entries.len();
    entries.extend(addresses.iter().map(|a| (a.value(), 0)));
    entries[start..].sort_unstable_by_key(|entry| entry.0);
    // Deduplicate the freshly pushed tail only (never across the CSR
    // boundary into the previous fault's entries).
    let mut write = start;
    for read in start..entries.len() {
        if write == start || entries[write - 1].0 != entries[read].0 {
            entries[write] = entries[read];
            write += 1;
        }
    }
    entries.truncate(write);
    for entry in &mut entries[start..] {
        entry.1 = walk.steps_touching(Address::new(entry.0)).len() as u32;
    }
}

/// Sequentially probes every factory of `faults` over `walk`.
fn probe_faults(walk: &MarchWalk, faults: &[FaultFactory]) -> ProbeSet {
    let locality_safe = walk.locality_safe();
    let mut probes = ProbeSet {
        faults: Vec::with_capacity(faults.len()),
        kinds: Vec::with_capacity(faults.len()),
        entries: Vec::with_capacity(faults.len()),
        offsets: Vec::with_capacity(faults.len() + 1),
        sigs: Vec::with_capacity(faults.len()),
    };
    probes.offsets.push(0);
    for factory in faults {
        let fault = factory();
        let kind = if locality_safe {
            fault.lane_kind()
        } else {
            None
        };
        let mut sig = 0u64;
        if let Some(kind) = &kind {
            let involved = kind.involved();
            sig = match *involved {
                [only] => u64::from(only.value()) << 32 | u64::from(u32::MAX),
                [secondary, victim] => {
                    u64::from(victim.value()) << 32 | u64::from(secondary.value())
                }
                _ => unreachable!("enum lane kinds involve one or two cells"),
            };
            push_involved_steps(walk, &involved, &mut probes.entries);
        }
        probes.offsets.push(probes.entries.len() as u32);
        probes.faults.push(fault);
        probes.kinds.push(kind);
        probes.sigs.push(sig);
    }
    probes
}

/// One clustered-sort entry of the address-aware packer: the victim-major
/// signature, kind rank and fault index form the sort key, and the entry
/// also carries everything the post-sort pass needs — per-address step
/// counts for the union cost, the inline lane form for direct packed
/// emission — so that pass never touches the permuted probe tables.
#[derive(Debug, Clone, Copy)]
struct ClusterKey {
    sig: u64,
    rank: u8,
    index: u32,
    steps: (u32, u32),
    kind: LaneFaultKind,
}

/// The pack-stage output: the contiguous lane-form array in packed
/// (execution) order, the fault→slot inverse permutation and the
/// per-cohort `(start, len)` ranges. The address-aware planner emits it
/// straight out of its clustered pass, so a shuffled population pays
/// exactly one permuted store per fault (the `of_fault` write) for the
/// whole instantiation side.
struct PackedLanes {
    lanes: Vec<LaneFaultKind>,
    /// Each fault's execution slot: its packed-lane position, or — once
    /// the sweep assigns them — a slot after the packed lanes for a
    /// serial singleton.
    of_fault: Vec<u32>,
    ranges: Vec<(u32, u32)>,
}

impl PackedLanes {
    fn with_capacity(lanes: usize, faults: usize) -> Self {
        Self {
            lanes: Vec::with_capacity(lanes),
            // Placeholder until every fault has its slot.
            of_fault: vec![u32::MAX; faults],
            ranges: Vec::new(),
        }
    }
}

/// Sorts, deduplicates and sums a cohort union accumulated in `scratch`,
/// clearing it for the next cohort.
fn close_union(scratch: &mut Vec<(u32, u32)>) -> u64 {
    scratch.sort_unstable();
    scratch.dedup_by_key(|entry| entry.0);
    let steps = scratch.iter().map(|&(_, s)| u64::from(s)).sum();
    scratch.clear();
    steps
}

/// Stable, order-invariant rank of a fault kind for the address-aware
/// tie-break (clusters same-kind faults adjacently inside an address
/// group so the kernel's owner-dispatch match runs the same arm in long
/// runs).
fn kind_rank(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::StuckAt => 0,
        FaultKind::Transition => 1,
        FaultKind::CouplingInversion => 2,
        FaultKind::CouplingIdempotent => 3,
        FaultKind::CouplingState => 4,
        FaultKind::ReadDestructive => 5,
        FaultKind::DeceptiveReadDestructive => 6,
        FaultKind::IncorrectRead => 7,
        FaultKind::StuckOpen => 8,
        FaultKind::WriteDisturb => 9,
        FaultKind::AddressDecoder => 10,
    }
}

impl FaultBatch {
    /// Plans the cohorts of `faults` over `walk` with the default
    /// [`CohortPlanner::AddressAware`] packer. Planning instantiates one
    /// probe fault per factory to query its lane kind and involved
    /// addresses.
    pub fn plan(walk: &MarchWalk, faults: &[FaultFactory]) -> Self {
        Self::plan_with(walk, faults, CohortPlanner::default())
    }

    /// Plans the cohorts of `faults` over `walk` under an explicit
    /// `planner` (see the module docs for the grouping rules).
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::batch::{CohortPlanner, FaultBatch};
    /// use march_test::executor::MarchWalk;
    /// use march_test::faults::standard_fault_list;
    /// use march_test::prelude::WordLineAfterWordLine;
    /// use march_test::library;
    /// use sram_model::config::ArrayOrganization;
    ///
    /// let organization = ArrayOrganization::new(8, 8)?;
    /// let walk = MarchWalk::new(
    ///     &library::march_ss(),
    ///     &WordLineAfterWordLine,
    ///     &organization,
    /// );
    /// let faults = standard_fault_list(&organization);
    ///
    /// let greedy = FaultBatch::plan_with(&walk, &faults, CohortPlanner::ListOrderGreedy);
    /// let packed = FaultBatch::plan_with(&walk, &faults, CohortPlanner::AddressAware);
    ///
    /// // Both plans cover every fault; the address-aware packer keeps
    /// // whichever grouping dispatches fewer merged walk steps, so it is
    /// // never worse than the list-order baseline.
    /// assert_eq!(greedy.fault_count(), faults.len());
    /// assert_eq!(packed.fault_count(), faults.len());
    /// assert!(packed.merged_schedule_steps() <= greedy.merged_schedule_steps());
    /// # Ok::<(), sram_model::error::SramError>(())
    /// ```
    pub fn plan_with(walk: &MarchWalk, faults: &[FaultFactory], planner: CohortPlanner) -> Self {
        Self::plan_probed(walk, &probe_faults(walk, faults), planner, false).0
    }

    /// Plans from already-probed faults — the shared core of
    /// [`FaultBatch::plan_with`] and the sweep driver, which probes once
    /// and reuses the instances for packing and assembly. With
    /// `want_packed`, the address-aware clustered pass also emits the
    /// packed lane array directly (see [`PackedLanes`]) — the kinds are
    /// already in hand there, in packed order, so the sweep skips a
    /// separate permuted gather; `None` comes back when the greedy
    /// grouping won (or was requested) and the sweep must pack by
    /// gathering.
    fn plan_probed(
        walk: &MarchWalk,
        probes: &ProbeSet,
        planner: CohortPlanner,
        want_packed: bool,
    ) -> (Self, Option<PackedLanes>) {
        let locality_safe = walk.locality_safe();
        // Candidate indices are kept as `u32` (half the bytes of `usize`)
        // because cohort assembly below gathers them in the planner's
        // clustered order — a permuted pass on shuffled populations.
        let mut lane_indices: Vec<u32> = Vec::new();
        let mut involved: Vec<&[(u32, u32)]> = Vec::new();
        let mut serial: Vec<usize> = Vec::new();
        let mut serial_steps = 0u64;
        for (index, kind) in probes.kinds.iter().enumerate() {
            if kind.is_some() {
                lane_indices.push(index as u32);
                involved.push(probes.involved(index));
            } else {
                serial_steps += match probes.faults[index]
                    .involved_addresses()
                    .filter(|_| locality_safe)
                {
                    Some(addresses) => union_schedule_steps(walk, &[&addresses]),
                    None => walk.len() as u64,
                };
                serial.push(index);
            }
        }

        // The list-order grouping and its cost, in one sequential pass.
        let mut scratch: Vec<(u32, u32)> = Vec::new();
        let mut greedy_steps = 0u64;
        for sets in involved.chunks(LaneMemory::LANES) {
            for set in sets {
                scratch.extend_from_slice(set);
            }
            greedy_steps += close_union(&mut scratch);
        }
        let greedy = || -> Vec<Vec<usize>> {
            lane_indices
                .chunks(LaneMemory::LANES)
                .map(|members| members.iter().map(|&index| index as usize).collect())
                .collect()
        };
        let mut packed_lanes: Option<PackedLanes> = None;
        let (lane_groups, lane_steps) = match planner {
            CohortPlanner::ListOrderGreedy => (greedy(), greedy_steps),
            CohortPlanner::AddressAware => {
                // Cluster by the victim-major involved-address signature
                // (see `ProbeSet::sigs`): a victim's single-cell models
                // and its coupling pairs sort adjacently (kind rank,
                // then fault index, break the remaining ties
                // deterministically), and chunking the sorted order packs
                // overlapping faults into shared cohorts. Each key also
                // carries the fault index, the lane form and the
                // per-address step counts, so after the sort the
                // chunking pass below builds fault-index cohorts (and,
                // on request, the packed lane array) from the keys
                // *sequentially*: on a shuffled 100k population it never
                // chases the permuted `involved` slices at all.
                let mut keyed: Vec<ClusterKey> = lane_indices
                    .iter()
                    .zip(&involved)
                    .map(|(&index, set)| {
                        let kind =
                            probes.kinds[index as usize].expect("lane candidates have kinds");
                        let sig = probes.sigs[index as usize];
                        // Step counts in the signature's (primary,
                        // secondary) order — `set` is sorted by address,
                        // the signature by semantic role.
                        let primary = (sig >> 32) as u32;
                        let steps = if set.len() == 1 {
                            (set[0].1, 0)
                        } else if set[0].0 == primary {
                            (set[0].1, set[1].1)
                        } else {
                            (set[1].1, set[0].1)
                        };
                        ClusterKey {
                            sig,
                            rank: kind_rank(kind.kind()),
                            index,
                            steps,
                            kind,
                        }
                    })
                    .collect();
                keyed.sort_unstable_by_key(|key| (key.sig, key.rank, key.index));
                let mut packed: Vec<Vec<usize>> = Vec::new();
                let mut packed_steps = 0u64;
                // The clustered order *is* packed execution order, so
                // when the caller wants the packed array this single
                // sequential pass emits it — lane forms in order, the
                // inverse permutation as the one scattered store.
                let mut emitted =
                    want_packed.then(|| PackedLanes::with_capacity(keyed.len(), probes.len()));
                for cohort in keyed.chunks(LaneMemory::LANES) {
                    for &ClusterKey {
                        sig,
                        index,
                        steps,
                        kind,
                        ..
                    } in cohort
                    {
                        if let Some(emitted) = &mut emitted {
                            emitted.of_fault[index as usize] = emitted.lanes.len() as u32;
                            emitted.lanes.push(kind);
                        }
                        scratch.push(((sig >> 32) as u32, steps.0));
                        // A second address of `u32::MAX` marks a one-cell
                        // involved set (real addresses are `< capacity`).
                        if sig as u32 != u32::MAX {
                            scratch.push((sig as u32, steps.1));
                        }
                    }
                    packed_steps += close_union(&mut scratch);
                    packed.push(cohort.iter().map(|key| key.index as usize).collect());
                }
                // Keep whichever grouping dispatches less walk: the
                // packer is never worse than the greedy baseline.
                if packed_steps <= greedy_steps {
                    if let Some(emitted) = &mut emitted {
                        let mut start = 0u32;
                        emitted.ranges = packed
                            .iter()
                            .map(|members| {
                                let range = (start, members.len() as u32);
                                start += members.len() as u32;
                                range
                            })
                            .collect();
                    }
                    packed_lanes = emitted;
                    (packed, packed_steps)
                } else {
                    // The greedy grouping won: the emitted clustered pack
                    // does not match it, so the sweep falls back to
                    // gather-packing off the cohort lists.
                    (greedy(), greedy_steps)
                }
            }
        };

        let mut cohorts: Vec<Cohort> = lane_groups.into_iter().map(Cohort::Lanes).collect();
        cohorts.extend(serial.into_iter().map(Cohort::Serial));
        (
            Self {
                cohorts,
                faults: probes.len(),
                planner,
                schedule_steps: lane_steps + serial_steps,
            },
            packed_lanes,
        )
    }

    /// The planned cohorts: lane cohorts first (in the planner's packing
    /// order), then the serial singletons in fault-list order.
    pub fn cohorts(&self) -> &[Cohort] {
        &self.cohorts
    }

    /// The planner that produced this plan.
    pub fn planner(&self) -> CohortPlanner {
        self.planner
    }

    /// Total walk steps the plan dispatches: each lane cohort's merged
    /// (deduplicated) involved-step schedule plus each serial singleton's
    /// filtered slice — the metric the address-aware packer minimises,
    /// and the `speedup_packed_schedule` ratio the dense benchmark
    /// tracks against the greedy baseline.
    pub fn merged_schedule_steps(&self) -> u64 {
        self.schedule_steps
    }

    /// Number of faults the plan covers.
    pub fn fault_count(&self) -> usize {
        self.faults
    }

    /// Number of faults that ride lane cohorts (the rest run serially).
    pub fn lane_fault_count(&self) -> usize {
        self.cohorts
            .iter()
            .map(|cohort| match cohort {
                Cohort::Lanes(indices) => indices.len(),
                Cohort::Serial(_) => 0,
            })
            .sum()
    }
}

/// Simulates every fault in `faults` over `walk` through the lane-batched
/// backend — the body of every batched coverage sweep — returning the
/// interned report in fault-list order.
///
/// Execution follows the packed-order lifecycle described in the module
/// docs: every fault is probed exactly once, in fault-list order; the
/// plan is built from the probes with the address-aware packer; the lane
/// cohorts' inline (`Copy`) forms are packed into one contiguous array in
/// execution order while the fault→slot inverse permutation is recorded;
/// the cohorts and serial singletons execute — on the current thread, or
/// fanned out across `threads` pool workers with whole cohorts as the
/// unit of work, load-balanced because generated populations produce
/// cohorts of very uneven cost. Mismatch counts come back in slot order
/// (sequential writes), and one final pass assembles outcomes in list
/// order through the inverse permutation, so the result is identical to
/// the per-fault path regardless of population order or scheduling.
///
/// Workers hold no locks on the hot path: each copies a claimed cohort's
/// inline lane forms (16 bytes apiece) out of the shared packed array
/// into its own buffer, and serial singletons re-instantiate from their
/// `Sync` factories inside the worker.
pub(crate) fn sweep_batched(
    walk: &MarchWalk,
    faults: &[FaultFactory],
    background: bool,
    mode: DetectionMode,
    threads: usize,
) -> InternedSweep {
    let probes = probe_faults(walk, faults);
    let (plan, packed) = FaultBatch::plan_probed(walk, &probes, CohortPlanner::AddressAware, true);

    // Pack stage: the address-aware planner usually emitted the packed
    // array straight out of its clustered pass (one permuted store per
    // fault, everything else sequential); when the greedy grouping won,
    // one streaming pass over the cohort lists gathers each member's
    // inline (`Copy`) lane form from the dense kind array and records the
    // inverse permutation — two independent accesses per fault that
    // pipeline across iterations.
    let PackedLanes {
        lanes,
        mut of_fault,
        ranges,
    } = packed.unwrap_or_else(|| {
        let mut emitted = PackedLanes::with_capacity(plan.lane_fault_count(), probes.len());
        for cohort in plan.cohorts() {
            if let Cohort::Lanes(indices) = cohort {
                emitted
                    .ranges
                    .push((emitted.lanes.len() as u32, indices.len() as u32));
                for &index in indices {
                    emitted.of_fault[index] = emitted.lanes.len() as u32;
                    emitted
                        .lanes
                        .push(probes.kinds[index].expect("planned lane faults have kinds"));
                }
            }
        }
        emitted
    });

    // The work list in slot order: the lane cohorts' slices of the packed
    // array, then the serial singletons, which take the slots after the
    // packed lanes.
    enum Work<'a> {
        Lanes(&'a [LaneFaultKind]),
        Serial(usize),
    }
    let mut work: Vec<Work> = ranges
        .iter()
        .map(|&(start, len)| Work::Lanes(&lanes[start as usize..(start + len) as usize]))
        .collect();
    let mut slot = lanes.len() as u32;
    for cohort in plan.cohorts() {
        if let Cohort::Serial(index) = *cohort {
            of_fault[index] = slot;
            slot += 1;
            work.push(Work::Serial(index));
        }
    }

    // Execute stage: per-slot mismatch counts. The detection flag is
    // exactly `mismatches > 0` on every path, so one dense `u32` array
    // carries the whole outcome and the scatter pass gathers four bytes
    // per fault.
    let counts: Vec<u32> = par_chunk_map(&work, threads, |chunk, worker| {
        // The kernel dispatch buffers live in the claiming worker's pool
        // scratch, so every chunk the worker claims — across the whole
        // sweep — reuses one set of allocations.
        let lane_scratch: &mut LaneScratch = worker.get_or_insert_with(LaneScratch::new);
        let mut local: Vec<LaneFaultKind> = Vec::new();
        let mut memory: Option<GoodMemory> = None;
        let mut counts = Vec::new();
        for item in chunk {
            match *item {
                Work::Lanes(cohort) => {
                    local.clear();
                    local.extend_from_slice(cohort);
                    let detections =
                        run_march_lanes_scratch(walk, &mut local, background, mode, lane_scratch);
                    counts.extend(
                        detections
                            .iter()
                            .map(|detection| detection.mismatches as u32),
                    );
                }
                Work::Serial(index) => {
                    let memory = memory.get_or_insert_with(|| GoodMemory::new(walk.capacity()));
                    let (_, _, mismatches) = simulate_fault_counts_on_walk(
                        walk,
                        memory,
                        faults[index](),
                        background,
                        mode,
                    );
                    counts.push(u32::try_from(mismatches).expect("mismatch counts fit u32"));
                }
            }
        }
        counts
    });

    // Scatter stage: one list-order pass reading each fault's count
    // through the inverse permutation.
    InternedSweep::from_outcomes(
        walk.test_name(),
        walk.order_name(),
        probes
            .faults
            .iter()
            .zip(&of_fault)
            .map(|(fault, &slot)| (fault.name(), fault.kind(), counts[slot as usize] as usize)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_order::WordLineAfterWordLine;
    use crate::algorithm::MarchTest;
    use crate::coverage::{evaluate_coverage_on_walk, SweepBackend, SweepOptions};
    use crate::element::MarchElement;
    use crate::faults::{standard_fault_list, CouplingIdempotentFault, StuckAtFault};
    use crate::library;
    use crate::operation::MarchOp;
    use sram_model::address::Address;
    use sram_model::config::ArrayOrganization;

    fn org() -> ArrayOrganization {
        ArrayOrganization::new(4, 4).unwrap()
    }

    fn saf_list(count: u32) -> Vec<FaultFactory> {
        (0..count)
            .map(|v| {
                let factory: FaultFactory =
                    Box::new(move || Box::new(StuckAtFault::new(Address::new(v), v % 2 == 0)));
                factory
            })
            .collect()
    }

    fn options(mode: DetectionMode, parallel: bool, backend: SweepBackend) -> SweepOptions {
        SweepOptions {
            background: false,
            mode,
            parallel,
            backend,
        }
    }

    #[test]
    fn plan_groups_the_standard_library_into_one_cohort() {
        let organization = org();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let faults = standard_fault_list(&organization);
        let plan = FaultBatch::plan(&walk, &faults);
        // Every standard fault — including the stuck-open family — has an
        // inline lane kind, and the list fits into one 64-lane cohort.
        assert_eq!(plan.fault_count(), faults.len());
        assert_eq!(plan.lane_fault_count(), faults.len());
        assert_eq!(plan.cohorts().len(), 1);
        assert_eq!(plan.cohorts()[0].len(), faults.len());
        assert!(!plan.cohorts()[0].is_empty());
        assert!(matches!(plan.cohorts()[0], Cohort::Lanes(_)));
    }

    #[test]
    fn plan_splits_at_sixty_four_lanes() {
        let organization = ArrayOrganization::new(16, 8).unwrap();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        for (count, expected) in [
            (1usize, vec![1]),
            (63, vec![63]),
            (64, vec![64]),
            (65, vec![64, 1]),
        ] {
            let faults = saf_list(count as u32);
            let plan = FaultBatch::plan(&walk, &faults);
            let sizes: Vec<usize> = plan.cohorts().iter().map(Cohort::len).collect();
            assert_eq!(sizes, expected, "count {count}");
        }
    }

    #[test]
    fn non_locality_safe_walks_plan_serial_singletons() {
        let organization = org();
        let reads_first = MarchTest::new(
            "reads-first",
            vec![MarchElement::ascending(vec![MarchOp::R1])],
        );
        let walk = MarchWalk::new(&reads_first, &WordLineAfterWordLine, &organization);
        assert!(!walk.locality_safe());
        let faults = saf_list(4);
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.lane_fault_count(), 0);
        assert_eq!(plan.cohorts().len(), 4);
        assert!(plan
            .cohorts()
            .iter()
            .all(|cohort| matches!(cohort, Cohort::Serial(_))));
        // The serial fallback still yields outcomes in list order.
        let report = evaluate_coverage_on_walk(
            &walk,
            &faults,
            options(DetectionMode::Full, false, SweepBackend::LaneBatched),
        );
        assert_eq!(report.total(), 4);
        assert_eq!(report.outcomes()[3].fault_name, "SAF0@3");
    }

    #[test]
    fn faults_without_a_lane_kind_fall_back_to_the_serial_path() {
        /// A fault that keeps the default `lane_kind` of `None`.
        #[derive(Debug)]
        struct Opaque;
        impl Fault for Opaque {
            fn name(&self) -> String {
                "OPAQUE".into()
            }
            fn kind(&self) -> crate::faults::FaultKind {
                crate::faults::FaultKind::StuckAt
            }
            fn write(&mut self, memory: &mut GoodMemory, address: Address, _value: bool) {
                memory.set(address, true);
            }
            fn read(&mut self, memory: &mut GoodMemory, address: Address) -> bool {
                memory.get(address)
            }
        }
        let organization = org();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let mut faults = saf_list(2);
        faults.insert(1, Box::new(|| Box::new(Opaque)));
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.lane_fault_count(), 2);
        assert_eq!(
            plan.cohorts().len(),
            2,
            "one serial singleton + one lane cohort"
        );
        for parallel in [false, true] {
            let report = evaluate_coverage_on_walk(
                &walk,
                &faults,
                options(
                    DetectionMode::FirstMismatch,
                    parallel,
                    SweepBackend::LaneBatched,
                ),
            );
            assert_eq!(report.outcomes()[1].fault_name, "OPAQUE");
            assert!(
                report.outcomes()[1].detected,
                "stuck-at-1-everything is detected"
            );
        }
    }

    #[test]
    fn address_aware_packing_clusters_shared_victims_and_never_loses_to_greedy() {
        use crate::faultgen::FaultGen;

        let organization = ArrayOrganization::new(16, 16).unwrap();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        // Overlap-heavy and shuffled: the worst case for list-order
        // grouping, the best for address clustering.
        let mut gen = FaultGen::new(organization, 0xC0_FFEE);
        let mut faults = gen.overlapping_clusters(40, 2, 1);
        gen.shuffle(&mut faults);
        let greedy = FaultBatch::plan_with(&walk, &faults, CohortPlanner::ListOrderGreedy);
        let packed = FaultBatch::plan_with(&walk, &faults, CohortPlanner::AddressAware);
        assert_eq!(greedy.planner(), CohortPlanner::ListOrderGreedy);
        assert_eq!(packed.planner(), CohortPlanner::AddressAware);
        assert_eq!(packed.fault_count(), greedy.fault_count());
        assert_eq!(packed.lane_fault_count(), greedy.lane_fault_count());
        assert!(
            packed.merged_schedule_steps() < greedy.merged_schedule_steps(),
            "packed {} must beat greedy {} on an overlap-heavy shuffle",
            packed.merged_schedule_steps(),
            greedy.merged_schedule_steps()
        );
        // The clustered sweep reproduces the golden path, in fault-list
        // order.
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let golden = evaluate_coverage_on_walk(
                &walk,
                &faults,
                options(mode, false, SweepBackend::PerFault),
            );
            let batched = evaluate_coverage_on_walk(
                &walk,
                &faults,
                options(mode, false, SweepBackend::LaneBatched),
            );
            assert_eq!(golden, batched, "{mode:?}");
        }
    }

    #[test]
    fn greedy_grouping_wins_when_strictly_cheaper_and_sweeps_through_the_gather_pack() {
        // Two aggressors, each coupled to 64 victims of one parity. List
        // order keeps each aggressor in one cohort (65 addresses apiece);
        // the victim-major clustering interleaves the parities, so both
        // of its cohorts span both aggressors (66 addresses apiece). The
        // packer must keep the greedy grouping, and the sweep must then
        // pack by gathering off the cohort lists.
        let organization = ArrayOrganization::new(16, 16).unwrap();
        let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
        let faults: Vec<FaultFactory> = [(200u32, 0u32), (201, 1)]
            .into_iter()
            .flat_map(|(aggressor, parity)| {
                (0..64u32).map(move |k| {
                    let victim = 2 * k + parity;
                    let factory: FaultFactory = Box::new(move || {
                        Box::new(CouplingIdempotentFault::new(
                            Address::new(aggressor),
                            Address::new(victim),
                            k % 2 == 0,
                            k % 3 == 0,
                        ))
                    });
                    factory
                })
            })
            .collect();
        let packed = FaultBatch::plan(&walk, &faults);
        let greedy = FaultBatch::plan_with(&walk, &faults, CohortPlanner::ListOrderGreedy);
        assert_eq!(packed.cohorts(), greedy.cohorts());
        assert_eq!(packed.cohorts().len(), 2);
        assert_eq!(packed.merged_schedule_steps(), 2_860);
        assert_eq!(greedy.merged_schedule_steps(), 2_860);
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let golden = evaluate_coverage_on_walk(
                &walk,
                &faults,
                options(mode, false, SweepBackend::PerFault),
            );
            for parallel in [false, true] {
                let batched = evaluate_coverage_on_walk(
                    &walk,
                    &faults,
                    options(mode, parallel, SweepBackend::LaneBatched),
                );
                assert_eq!(golden, batched, "{mode:?} parallel={parallel}");
            }
        }
    }

    #[test]
    fn schedule_steps_count_the_planned_dispatch_exactly() {
        // Two SAFs on the same victim + one on another cell: one cohort,
        // union of two addresses.
        let organization = org();
        let walk = MarchWalk::new(&library::mats_plus(), &WordLineAfterWordLine, &organization);
        let victim_steps = walk.steps_touching(Address::new(3)).len() as u64;
        let other_steps = walk.steps_touching(Address::new(7)).len() as u64;
        let faults: Vec<FaultFactory> = vec![
            Box::new(|| Box::new(StuckAtFault::new(Address::new(3), false))),
            Box::new(|| Box::new(StuckAtFault::new(Address::new(3), true))),
            Box::new(|| Box::new(StuckAtFault::new(Address::new(7), true))),
        ];
        let plan = FaultBatch::plan(&walk, &faults);
        assert_eq!(plan.cohorts().len(), 1);
        assert_eq!(plan.merged_schedule_steps(), victim_steps + other_steps);
    }

    #[test]
    fn batched_sweep_is_identical_serial_and_parallel() {
        let organization = org();
        let walk = MarchWalk::new(
            &library::march_c_minus(),
            &WordLineAfterWordLine,
            &organization,
        );
        let faults = standard_fault_list(&organization);
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let serial = sweep_batched(&walk, &faults, false, mode, 1);
            let parallel = sweep_batched(&walk, &faults, false, mode, 8);
            assert_eq!(serial, parallel, "{mode:?}");
        }
    }
}
