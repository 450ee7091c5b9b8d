//! Seed-driven randomized differential testing of the collapsed sweep
//! against the serial per-fault golden path.
//!
//! The equivalence suite (`lane_batch_equivalence.rs`) pins the collapsed
//! backend on the *standard* 48-fault library and the exhaustive one
//! (`collapse_exhaustive.rs`) on every cell and cell pair of the smallest
//! arrays; this harness attacks the space between: for many SplitMix64
//! seeds it draws a random population (1..=400 faults, every fault kind
//! mixed, random victims/aggressors over a random organization), a random
//! algorithm, address order, data background and detection mode — and
//! asserts the collapsed path is **bit-identical** to the golden path:
//! the whole [`CoverageReport`] (detected/escaped and mismatch counts per
//! fault, in fault-list order), serial and parallel.
//!
//! Every assertion message carries the scenario seed, so a failure
//! reproduces with `scenario(seed)` alone — no fault list to copy around.
//!
//! [`CoverageReport`]: march_test::coverage::CoverageReport

use march_test::address_order::{
    AddressOrder, ColumnMajor, LinearOrder, PseudoRandomOrder, WordLineAfterWordLine,
};
use march_test::batch::{Cohort, FaultBatch};
use march_test::coverage::{evaluate_coverage_with, SweepBackend, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::fault_sim::DetectionMode;
use march_test::faultgen::FaultGen;
use march_test::faults::FaultModel;
use march_test::library;
use march_test::rng::SplitMix64;
use sram_model::config::ArrayOrganization;

/// One randomized scenario, fully determined by `seed`.
struct Scenario {
    seed: u64,
    organization: ArrayOrganization,
    population: Vec<FaultModel>,
    test: march_test::algorithm::MarchTest,
    order: Box<dyn AddressOrder>,
    background: bool,
    mode: DetectionMode,
}

impl Scenario {
    /// Human-readable reproduction tag for assertion messages.
    fn tag(&self) -> String {
        format!(
            "seed {:#x} ({} faults on {}x{}, {}, {}, background {}, {:?}) — rerun with \
             Scenario::draw({:#x})",
            self.seed,
            self.population.len(),
            self.organization.rows(),
            self.organization.cols(),
            self.test.name(),
            self.order.name(),
            self.background,
            self.mode,
            self.seed,
        )
    }

    /// Draws the scenario of `seed`: every random choice comes from one
    /// SplitMix64 stream, so the seed alone reproduces it.
    fn draw(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let rows = 2 + rng.next_below(9) as u32;
        let cols = 2 + rng.next_below(9) as u32;
        let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
        let size = 1 + rng.next_below(400) as usize;
        let population = FaultGen::new(organization, rng.next_u64()).mixed(size);
        let tests = library::all_algorithms();
        let test = tests[rng.next_below(tests.len() as u64) as usize].clone();
        let order: Box<dyn AddressOrder> = match rng.next_below(4) {
            0 => Box::new(WordLineAfterWordLine),
            1 => Box::new(ColumnMajor),
            2 => Box::new(LinearOrder),
            _ => Box::new(PseudoRandomOrder::new(rng.next_u64())),
        };
        let background = rng.next_bool();
        let mode = if rng.next_bool() {
            DetectionMode::Full
        } else {
            DetectionMode::FirstMismatch
        };
        Self {
            seed,
            organization,
            population,
            test,
            order,
            background,
            mode,
        }
    }

    /// Asserts every collapsed configuration reproduces the golden path
    /// bit-identically on this scenario.
    fn check(&self) {
        let golden = evaluate_coverage_with(
            &self.test,
            self.order.as_ref(),
            &self.organization,
            &self.population,
            SweepOptions {
                background: self.background,
                mode: self.mode,
                parallel: false,
                backend: SweepBackend::PerFault,
            },
        );
        assert_eq!(golden.total(), self.population.len(), "{}", self.tag());
        for parallel in [false, true] {
            let batched = evaluate_coverage_with(
                &self.test,
                self.order.as_ref(),
                &self.organization,
                &self.population,
                SweepOptions {
                    background: self.background,
                    mode: self.mode,
                    parallel,
                    backend: SweepBackend::LaneBatched,
                },
            );
            assert_eq!(golden, batched, "{} [parallel={parallel}]", self.tag());
        }
    }
}

/// The committed seed sweep: one scenario per seed, each asserting full
/// bit-identity between the collapsed sweep and the golden path.
#[test]
fn randomized_populations_are_bit_identical_between_batched_and_golden() {
    for round in 0..24u64 {
        Scenario::draw(0xD15E_A5E0_0000_0000u64 | round).check();
    }
}

/// The plan of a population modulo fault order: the sorted class sizes
/// and the number of per-fault singletons. Shuffling a population only
/// permutes its faults, so it must keep both.
fn plan_shape(plan: &FaultBatch) -> (Vec<usize>, usize) {
    let mut classes: Vec<usize> = Vec::new();
    let mut singletons = 0;
    for cohort in plan.cohorts() {
        match cohort {
            Cohort::Class(members) => classes.push(*members),
            Cohort::Serial(_) => singletons += 1,
        }
    }
    classes.sort_unstable();
    (classes, singletons)
}

/// Shuffled-permutation seeds: a generation-ordered population and a
/// shuffled copy of the *same* population must produce identical
/// per-fault outcomes (outcome `p` of the shuffled sweep equals outcome
/// `perm[p]` of the ordered one, bit for bit) and collapse into the same
/// classes up to their order — shuffling is exactly one permutation,
/// never extra work.
#[test]
fn shuffled_permutations_match_generation_order_bit_identically() {
    for round in 0..12u64 {
        let seed = 0x5AFF_1E00_0000_0000u64 | round;
        let mut rng = SplitMix64::new(seed);
        let rows = 4 + rng.next_below(13) as u32;
        let cols = 4 + rng.next_below(13) as u32;
        let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
        let population_seed = rng.next_u64();
        let profile = rng.next_below(2);
        let size = 40 + rng.next_below(260) as usize;
        let ordered = {
            let mut gen = FaultGen::new(organization, population_seed);
            match profile {
                0 => gen.mixed(size),
                _ => gen.overlapping_clusters(size / 11 + 1, 2, 1),
            }
        };
        let mut perm: Vec<usize> = (0..ordered.len()).collect();
        rng.shuffle(&mut perm);
        let shuffled: Vec<FaultModel> = perm.iter().map(|&index| ordered[index]).collect();

        let tests = library::all_algorithms();
        let test = tests[rng.next_below(tests.len() as u64) as usize].clone();
        let background = rng.next_bool();
        let tag = format!(
            "seed {seed:#x} ({} faults on {rows}x{cols}, {}, profile {profile}, \
             background {background})",
            ordered.len(),
            test.name(),
        );

        // The same classes up to their order, and the same simulated
        // steps: a class is defined by its members, not by where they sit
        // in the list.
        let walk = MarchWalk::new(&test, &WordLineAfterWordLine, &organization);
        let plan_ordered = FaultBatch::plan(&walk, &ordered);
        let plan_shuffled = FaultBatch::plan(&walk, &shuffled);
        assert_eq!(
            plan_ordered.merged_schedule_steps(),
            plan_shuffled.merged_schedule_steps(),
            "{tag}: shuffling must not change the simulated steps"
        );
        assert_eq!(
            plan_shape(&plan_ordered),
            plan_shape(&plan_shuffled),
            "{tag}: the classes must be identical up to their order"
        );

        // Identical per-fault outcomes, bit for bit, through every
        // collapsed configuration — and against the per-fault golden path.
        for mode in [DetectionMode::Full, DetectionMode::FirstMismatch] {
            let options = |backend, parallel| SweepOptions {
                background,
                mode,
                parallel,
                backend,
            };
            let golden = evaluate_coverage_with(
                &test,
                &WordLineAfterWordLine,
                &organization,
                &ordered,
                options(SweepBackend::PerFault, false),
            );
            for parallel in [false, true] {
                let ordered_report = evaluate_coverage_with(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &ordered,
                    options(SweepBackend::LaneBatched, parallel),
                );
                assert_eq!(
                    golden, ordered_report,
                    "{tag} [{mode:?}, parallel={parallel}]"
                );
                let shuffled_report = evaluate_coverage_with(
                    &test,
                    &WordLineAfterWordLine,
                    &organization,
                    &shuffled,
                    options(SweepBackend::LaneBatched, parallel),
                );
                assert_eq!(
                    shuffled_report.total(),
                    ordered_report.total(),
                    "{tag} [{mode:?}, parallel={parallel}]"
                );
                for (position, outcome) in shuffled_report.outcomes().iter().enumerate() {
                    assert_eq!(
                        outcome,
                        &ordered_report.outcomes()[perm[position]],
                        "{tag} [{mode:?}, parallel={parallel}]: shuffled outcome {position} \
                         must equal ordered outcome {}",
                        perm[position]
                    );
                }
            }
        }
    }
}

/// Degenerate-shape seeds: the smallest arrays and populations, where
/// the collapse's edge cases (a single fault, capacity 4, exact ⇑
/// positions) live.
#[test]
fn tiny_populations_and_arrays_stay_bit_identical() {
    for round in 0..12u64 {
        let seed = 0x7E57_0000_0000_0000u64 | round;
        let mut rng = SplitMix64::new(seed);
        let rows = 2 + rng.next_below(2) as u32;
        let cols = 2 + rng.next_below(2) as u32;
        let organization = ArrayOrganization::new(rows, cols).expect("valid organization");
        let population =
            FaultGen::new(organization, rng.next_u64()).mixed(1 + rng.next_below(4) as usize);
        let scenario = Scenario {
            seed,
            organization,
            population,
            test: library::march_ss(),
            order: Box::new(WordLineAfterWordLine),
            background: rng.next_bool(),
            mode: DetectionMode::Full,
        };
        scenario.check();
    }
}
