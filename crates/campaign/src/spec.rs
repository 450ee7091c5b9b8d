//! Campaign plans: what to run.
//!
//! A [`CampaignPlan`] is an ordered list of [`JobSpec`]s — one sweep each,
//! fully described by value: `(organization, population seed, algorithm,
//! address order, background, backend, population profile)`. The plan is
//! pure data; executing it is [`crate::runner`]'s job. Two properties
//! matter for crash safety:
//!
//! * **Job identity is positional.** The journal refers to jobs by their
//!   index in the plan, so a resumed run must present *the same plan in
//!   the same order*. [`CampaignPlan::digest`] pins that: the digest is
//!   written into the journal header and checked on resume.
//! * **Validation is up-front.** [`CampaignPlan::validate`] rejects every
//!   job whose names do not resolve or whose population would be empty
//!   *before* any worker starts, so a typo fails the run in milliseconds
//!   instead of poisoning jobs one retry at a time.

use march_test::coverage::SweepBackend;
use march_test::faultgen::FaultGen;
use march_test::faults::{standard_fault_list, FaultModel};
use march_test::library::{algorithm_by_name, all_algorithms};
use march_test::{address_order::order_by_name, rng::Fnv1a};
use sram_model::config::ArrayOrganization;

use crate::error::CampaignError;

/// The address-order catalog, in wire-index order.
///
/// Journal v2 dynamic-plan records store a job's address order as an
/// index into this list (names are too long for a fixed 64-byte record),
/// so the list order is part of the journal wire format: entries may be
/// appended but never reordered or removed. Each record also carries the
/// job's field digest, which covers the *name* — a resumed journal whose
/// catalog drifted fails loudly instead of running the wrong order.
pub const ORDER_CATALOG: [&str; 5] = [
    "word line after word line",
    "column major",
    "linear",
    "pseudo-random",
    "address complement",
];

/// The algorithm catalog, in wire-index order — every library algorithm
/// name, in [`all_algorithms`] order. Subject to the same
/// append-only rule as [`ORDER_CATALOG`], and pinned the same way by the
/// per-record job digest.
pub fn algorithm_catalog() -> Vec<String> {
    all_algorithms()
        .iter()
        .map(|test| test.name().to_string())
        .collect()
}

/// Resolves a sweep-backend name as used by `campaign_run --backend` and
/// the spool job format.
pub fn backend_by_name(name: &str) -> Option<SweepBackend> {
    match name {
        "lane" => Some(SweepBackend::LaneBatched),
        "per-fault" => Some(SweepBackend::PerFault),
        _ => None,
    }
}

/// Stable textual form of a sweep backend, the inverse of
/// [`backend_by_name`].
pub fn backend_name(backend: SweepBackend) -> &'static str {
    match backend {
        SweepBackend::LaneBatched => "lane",
        SweepBackend::PerFault => "per-fault",
    }
}

/// A sweep backend's byte in job digests and journal job records. Byte
/// `1` belonged to a retired list-order backend and stays reserved:
/// renumbering would change every stored spec digest.
pub(crate) fn backend_byte(backend: SweepBackend) -> u8 {
    match backend {
        SweepBackend::LaneBatched => 0,
        SweepBackend::PerFault => 2,
    }
}

/// The most faults a generated population may hold: 2^24, 256 MiB of
/// 16-byte fault values. [`JobSpec::validate`] rejects larger counts
/// before anything is generated, which also keeps [`crate::JobResult`]'s
/// `u32` counts exact. The largest population the repository sweeps is
/// 100,000 faults.
pub const MAX_POPULATION: usize = 1 << 24;

/// Which fault population a job sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationSpec {
    /// The standard 48-fault characterisation list
    /// ([`standard_fault_list`]) — seed-independent.
    Standard,
    /// `count` uniformly mixed faults ([`FaultGen::try_mixed`]).
    Mixed {
        /// Number of faults to generate.
        count: usize,
    },
    /// A dense blended profile sized to `target` faults
    /// ([`FaultGen::try_dense_profile`]).
    Dense {
        /// Target number of faults.
        target: usize,
    },
}

impl PopulationSpec {
    /// Parses `"standard"`, `"mixed:N"` or `"dense:N"`.
    ///
    /// # Examples
    ///
    /// ```
    /// use campaign::PopulationSpec;
    ///
    /// assert_eq!(PopulationSpec::parse("standard"), Some(PopulationSpec::Standard));
    /// assert_eq!(
    ///     PopulationSpec::parse("mixed:600"),
    ///     Some(PopulationSpec::Mixed { count: 600 }),
    /// );
    /// assert_eq!(
    ///     PopulationSpec::parse("dense:100000"),
    ///     Some(PopulationSpec::Dense { target: 100_000 }),
    /// );
    /// // Unknown profiles and malformed counts are rejected, and
    /// // `render` is the exact inverse of `parse`.
    /// assert_eq!(PopulationSpec::parse("sparse:7"), None);
    /// assert_eq!(PopulationSpec::parse("mixed:many"), None);
    /// let spec = PopulationSpec::parse("mixed:600").unwrap();
    /// assert_eq!(spec.render(), "mixed:600");
    /// ```
    pub fn parse(spec: &str) -> Option<Self> {
        if spec == "standard" {
            return Some(Self::Standard);
        }
        let (profile, count) = spec.split_once(':')?;
        let count: usize = count.parse().ok()?;
        match profile {
            "mixed" => Some(Self::Mixed { count }),
            "dense" => Some(Self::Dense { target: count }),
            _ => None,
        }
    }

    /// Stable textual form, the inverse of [`PopulationSpec::parse`].
    pub fn render(&self) -> String {
        match self {
            Self::Standard => "standard".to_string(),
            Self::Mixed { count } => format!("mixed:{count}"),
            Self::Dense { target } => format!("dense:{target}"),
        }
    }

    /// Generates the population for `organization`/`seed`, or explains
    /// why the configuration is rejected.
    pub fn build(
        &self,
        organization: &ArrayOrganization,
        seed: u64,
    ) -> Result<Vec<FaultModel>, String> {
        match self {
            Self::Standard => Ok(standard_fault_list(organization)),
            Self::Mixed { count } => FaultGen::new(*organization, seed)
                .try_mixed(*count)
                .map_err(|error| error.to_string()),
            Self::Dense { target } => FaultGen::new(*organization, seed)
                .try_dense_profile(*target)
                .map(|population| population.faults)
                .map_err(|error| error.to_string()),
        }
    }
}

/// One campaign job: everything one sweep needs, by value.
///
/// # Examples
///
/// ```
/// use campaign::{JobSpec, PopulationSpec};
/// use march_test::coverage::SweepBackend;
///
/// let job = JobSpec {
///     rows: 64,
///     cols: 64,
///     seed: 1,
///     algorithm: "March C-".to_string(),
///     order: "word line after word line".to_string(),
///     background: false,
///     backend: SweepBackend::LaneBatched,
///     population: PopulationSpec::Mixed { count: 600 },
/// };
/// assert!(job.validate().is_ok());
///
/// // Validation resolves names up-front, so a typo fails the plan in
/// // milliseconds instead of poisoning jobs one retry at a time.
/// let mut typo = job.clone();
/// typo.algorithm = "March Nope".to_string();
/// assert!(typo.validate().unwrap_err().contains("unknown algorithm"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Word lines of the array.
    pub rows: u32,
    /// Bit lines of the array.
    pub cols: u32,
    /// Population seed (also seeds the pseudo-random address order).
    pub seed: u64,
    /// Algorithm name, resolved through [`algorithm_by_name`].
    pub algorithm: String,
    /// Address-order name, resolved through [`order_by_name`].
    pub order: String,
    /// Initial cell value of every simulation.
    pub background: bool,
    /// Sweep engine for this job.
    pub backend: SweepBackend,
    /// Fault population profile.
    pub population: PopulationSpec,
}

impl JobSpec {
    /// Checks that the job can execute: the organization constructs, the
    /// algorithm and order names resolve, and the population profile is
    /// non-empty, at most [`MAX_POPULATION`] faults and fits the array.
    pub fn validate(&self) -> Result<(), String> {
        let organization =
            ArrayOrganization::new(self.rows, self.cols).map_err(|error| error.to_string())?;
        if algorithm_by_name(&self.algorithm).is_none() {
            return Err(format!("unknown algorithm \"{}\"", self.algorithm));
        }
        if order_by_name(&self.order, self.seed).is_none() {
            return Err(format!("unknown address order \"{}\"", self.order));
        }
        match self.population {
            PopulationSpec::Standard => Ok(()),
            // Validate without generating: the generators' own rejection
            // rules, applied to the counts alone.
            PopulationSpec::Mixed { count } | PopulationSpec::Dense { target: count } => {
                if count == 0 {
                    return Err("population profile would generate no faults".to_string());
                }
                if count > MAX_POPULATION {
                    return Err(format!(
                        "population of {count} faults exceeds the limit of {MAX_POPULATION}"
                    ));
                }
                if organization.capacity() < 2 {
                    return Err(format!(
                        "population needs at least two cells, array holds {}",
                        organization.capacity()
                    ));
                }
                Ok(())
            }
        }
    }

    /// FNV-1a digest over this job's fields alone — the identity the
    /// daemon dedupes dynamic submissions by, and the pin that journal v2
    /// dynamic-plan records carry alongside their catalog indices.
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        self.digest_into(&mut hasher);
        hasher.finish()
    }

    /// Absorbs every field into `hasher`, with separators, so plans that
    /// differ in any job field produce different digests.
    fn digest_into(&self, hasher: &mut Fnv1a) {
        hasher.write_u32(self.rows);
        hasher.write_u32(self.cols);
        hasher.write_u64(self.seed);
        hasher.write(self.algorithm.as_bytes());
        hasher.write_u8(0xFF);
        hasher.write(self.order.as_bytes());
        hasher.write_u8(0xFF);
        hasher.write_u8(u8::from(self.background));
        hasher.write_u8(backend_byte(self.backend));
        hasher.write(self.population.render().as_bytes());
        hasher.write_u8(0xFF);
    }
}

/// An ordered list of jobs with a stable digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// The jobs, in dispatch (and journal-index) order.
    pub jobs: Vec<JobSpec>,
}

impl CampaignPlan {
    /// Wraps a job list.
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        Self { jobs }
    }

    /// The full cross product `seeds × algorithms × orders × backgrounds`
    /// over one organization, in that nesting order (seeds outermost) —
    /// the shape `campaign_run` builds from its flag lists.
    // One parameter per crossed axis; a builder would obscure the shape.
    #[allow(clippy::too_many_arguments)]
    pub fn cross(
        rows: u32,
        cols: u32,
        seeds: &[u64],
        algorithms: &[String],
        orders: &[String],
        backgrounds: &[bool],
        backend: SweepBackend,
        population: PopulationSpec,
    ) -> Self {
        let mut jobs = Vec::new();
        for &seed in seeds {
            for algorithm in algorithms {
                for order in orders {
                    for &background in backgrounds {
                        jobs.push(JobSpec {
                            rows,
                            cols,
                            seed,
                            algorithm: algorithm.clone(),
                            order: order.clone(),
                            background,
                            backend,
                            population,
                        });
                    }
                }
            }
        }
        Self::new(jobs)
    }

    /// Number of jobs in the plan.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the plan holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// FNV-1a digest over every job field, in order. Written into the
    /// journal and export headers; resume refuses a journal whose digest
    /// disagrees ([`CampaignError::PlanMismatch`]).
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.write_u32(self.jobs.len() as u32);
        for job in &self.jobs {
            job.digest_into(&mut hasher);
        }
        hasher.finish()
    }

    /// Validates every job up-front; the first invalid one fails the plan
    /// with its index and reason.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.jobs.is_empty() {
            return Err(CampaignError::EmptyPlan);
        }
        for (index, job) in self.jobs.iter().enumerate() {
            job.validate().map_err(|reason| CampaignError::InvalidJob {
                job: index as u32,
                reason,
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seed: u64) -> JobSpec {
        JobSpec {
            rows: 8,
            cols: 8,
            seed,
            algorithm: "March C-".to_string(),
            order: "word line after word line".to_string(),
            background: false,
            backend: SweepBackend::LaneBatched,
            population: PopulationSpec::Mixed { count: 32 },
        }
    }

    #[test]
    fn population_specs_round_trip_through_parse_and_render() {
        for spec in [
            PopulationSpec::Standard,
            PopulationSpec::Mixed { count: 100 },
            PopulationSpec::Dense { target: 5000 },
        ] {
            assert_eq!(PopulationSpec::parse(&spec.render()), Some(spec));
        }
        assert_eq!(PopulationSpec::parse("mixed"), None);
        assert_eq!(PopulationSpec::parse("weird:7"), None);
        assert_eq!(PopulationSpec::parse("mixed:x"), None);
    }

    #[test]
    fn plan_digest_pins_every_field() {
        let base = CampaignPlan::new(vec![job(1), job(2)]);
        let digest = base.digest();
        assert_eq!(digest, CampaignPlan::new(vec![job(1), job(2)]).digest());
        // Reordering, editing and truncating all change the digest.
        assert_ne!(digest, CampaignPlan::new(vec![job(2), job(1)]).digest());
        assert_ne!(digest, CampaignPlan::new(vec![job(1)]).digest());
        let mut edited = vec![job(1), job(2)];
        edited[1].background = true;
        assert_ne!(digest, CampaignPlan::new(edited).digest());
        let mut backend = vec![job(1), job(2)];
        backend[0].backend = SweepBackend::PerFault;
        assert_ne!(digest, CampaignPlan::new(backend).digest());
    }

    #[test]
    fn validation_rejects_unresolvable_and_empty_jobs() {
        assert_eq!(
            CampaignPlan::new(vec![]).validate(),
            Err(CampaignError::EmptyPlan)
        );
        let mut unknown_algorithm = job(1);
        unknown_algorithm.algorithm = "March Nope".to_string();
        let mut unknown_order = job(1);
        unknown_order.order = "zigzag".to_string();
        let mut empty = job(1);
        empty.population = PopulationSpec::Mixed { count: 0 };
        let mut tiny = job(1);
        (tiny.rows, tiny.cols) = (1, 1);
        for (index, bad) in [unknown_algorithm, unknown_order, empty, tiny]
            .into_iter()
            .enumerate()
        {
            let plan = CampaignPlan::new(vec![job(1), bad]);
            match plan.validate() {
                Err(CampaignError::InvalidJob { job: 1, .. }) => {}
                other => panic!("case {index}: expected InvalidJob {{ job: 1 }}, got {other:?}"),
            }
        }
        assert!(CampaignPlan::new(vec![job(1), job(2)]).validate().is_ok());
    }

    #[test]
    fn populations_above_the_limit_are_rejected_without_generating() {
        let at_limit = |population| JobSpec {
            population,
            ..job(1)
        };
        // Validation reads the count; it never builds the population, so
        // the limit itself and a count no machine could hold both return
        // at once.
        for population in [
            PopulationSpec::Mixed {
                count: MAX_POPULATION,
            },
            PopulationSpec::Dense {
                target: MAX_POPULATION,
            },
        ] {
            assert_eq!(at_limit(population).validate(), Ok(()), "{population:?}");
        }
        for population in [
            PopulationSpec::Mixed {
                count: MAX_POPULATION + 1,
            },
            PopulationSpec::Dense {
                target: 100_000_000_000,
            },
        ] {
            let error = at_limit(population).validate().unwrap_err();
            assert!(
                error.contains("exceeds the limit"),
                "{population:?}: {error}"
            );
            match CampaignPlan::new(vec![job(1), at_limit(population)]).validate() {
                Err(CampaignError::InvalidJob { job: 1, .. }) => {}
                other => panic!("{population:?}: expected InvalidJob, got {other:?}"),
            }
        }
        // The limit keeps every count a `JobResult` records exact.
        assert!(u32::try_from(MAX_POPULATION).is_ok());
    }

    #[test]
    fn cross_product_enumerates_seeds_outermost() {
        let plan = CampaignPlan::cross(
            4,
            4,
            &[1, 2],
            &["MATS+".to_string(), "March C-".to_string()],
            &["linear".to_string()],
            &[false, true],
            SweepBackend::LaneBatched,
            PopulationSpec::Standard,
        );
        assert_eq!(plan.len(), 8); // 2 seeds x 2 algorithms x 1 order x 2 backgrounds
        assert_eq!(plan.jobs[0].seed, 1);
        assert_eq!(plan.jobs[0].algorithm, "MATS+");
        assert!(!plan.jobs[0].background);
        assert!(plan.jobs[1].background);
        assert_eq!(plan.jobs[2].algorithm, "March C-");
        assert_eq!(plan.jobs[4].seed, 2);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn every_catalog_entry_resolves() {
        // The wire-format catalogs must stay in lockstep with the actual
        // resolvers: a name the catalogs promise but the library cannot
        // build would brick journal v2 resume.
        for name in algorithm_catalog() {
            assert!(
                algorithm_by_name(&name).is_some(),
                "algorithm catalog entry {name:?} does not resolve"
            );
        }
        for name in ORDER_CATALOG {
            assert!(
                order_by_name(name, 1).is_some(),
                "order catalog entry {name:?} does not resolve"
            );
        }
    }
}
