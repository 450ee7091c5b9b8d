//! The daemon's job-intake spool: a drop directory with atomic-rename
//! semantics, in the same dependency-free style as the CHB1 heartbeat
//! sidecar.
//!
//! Protocol (one flat directory, four file roles by extension):
//!
//! * A client submits a job by writing `<name>.tmp` and `rename(2)`ing it
//!   to `<name>.job`. The rename is the commit point: the daemon only
//!   ever reads `.job` files, so it can never observe a half-written
//!   spec — a crashed client leaves a `.tmp` the daemon ignores forever.
//! * The daemon scans `.job` files in sorted name order (names are the
//!   arrival order under the trace-replay harness), decides the job's
//!   fate, and answers by writing `<name>.resp` — also tmp+rename, so the
//!   client side never reads a torn response either.
//! * An ingested `.job` is renamed to `<name>.done` *after* the journal
//!   append and the response, in that order. A daemon crash between
//!   append and archive re-offers the file on restart and the journal's
//!   digest dedup absorbs it — at-least-once offer, exactly-once run.
//!
//! A job file is one ASCII line:
//!
//! ```text
//! CJOB1|ROWSxCOLS|seed|algorithm|order|background|backend|population
//! ```
//!
//! pipe-separated because algorithm and order names contain spaces, e.g.
//! `CJOB1|32x32|7|March C-|linear|0|lane|mixed:256`. A response file is
//! one ASCII line `CSR1 <status> <detail>` (see [`SpoolResponse`]).

use std::path::{Path, PathBuf};

use march_test::coverage::SweepBackend;

use crate::error::CampaignError;
use crate::spec::{backend_by_name, backend_name, JobSpec, PopulationSpec};

/// Magic token opening every spooled job line.
pub const SPOOL_JOB_MAGIC: &str = "CJOB1";
/// Magic token opening every spool response line.
pub const SPOOL_RESPONSE_MAGIC: &str = "CSR1";

/// The daemon's answer to one spooled submission, written back as
/// `<name>.resp` so the submitting client gets explicit backpressure
/// instead of silence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpoolResponse {
    /// Admitted: journaled as plan index `job` and queued to run.
    Accepted {
        /// Plan index the daemon assigned.
        job: u32,
    },
    /// A job with the same field digest is already in the plan — the
    /// submission is dropped, the earlier job's results stand.
    Duplicate {
        /// Plan index of the earlier identical job.
        job: u32,
    },
    /// Shed: the bounded admission queue is full. The job was *not*
    /// journaled; the client may resubmit later.
    QueueFull,
    /// The spec does not parse, validate, or fit the journal wire form.
    Rejected {
        /// Why the daemon refused it.
        reason: String,
    },
}

impl SpoolResponse {
    /// One-line wire form, `CSR1 <status> <detail>`.
    pub fn render(&self) -> String {
        match self {
            Self::Accepted { job } => format!("{SPOOL_RESPONSE_MAGIC} accepted {job}\n"),
            Self::Duplicate { job } => format!("{SPOOL_RESPONSE_MAGIC} duplicate {job}\n"),
            Self::QueueFull => format!("{SPOOL_RESPONSE_MAGIC} queue-full -\n"),
            Self::Rejected { reason } => {
                format!(
                    "{SPOOL_RESPONSE_MAGIC} rejected {}\n",
                    reason.replace(['\n', '\r'], " ")
                )
            }
        }
    }

    /// Parses the wire form; `None` for anything torn or foreign.
    pub fn parse(line: &str) -> Option<Self> {
        let rest = line.strip_prefix(SPOOL_RESPONSE_MAGIC)?.strip_prefix(' ')?;
        let (status, detail) = rest.trim_end().split_once(' ')?;
        match status {
            "accepted" => detail.parse().ok().map(|job| Self::Accepted { job }),
            "duplicate" => detail.parse().ok().map(|job| Self::Duplicate { job }),
            "queue-full" => Some(Self::QueueFull),
            "rejected" => Some(Self::Rejected {
                reason: detail.to_string(),
            }),
            _ => None,
        }
    }
}

/// One `.job` file the daemon found during a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// File stem (the part before `.job`) — the submission's identity
    /// for responses and archiving.
    pub name: String,
    /// The parsed spec, or why the line does not parse. A parse failure
    /// still flows through intake so the client gets a `rejected`
    /// response instead of a silently stuck file.
    pub spec: Result<JobSpec, String>,
}

/// Renders a spec as a spool job line (without trailing newline —
/// [`SpoolDir::submit`] adds it).
pub fn render_job_line(spec: &JobSpec) -> String {
    format!(
        "{SPOOL_JOB_MAGIC}|{}x{}|{}|{}|{}|{}|{}|{}",
        spec.rows,
        spec.cols,
        spec.seed,
        spec.algorithm,
        spec.order,
        u8::from(spec.background),
        backend_name(spec.backend),
        spec.population.render()
    )
}

/// Parses a spool job line into a spec, or explains why it cannot be.
pub fn parse_job_line(line: &str) -> Result<JobSpec, String> {
    let line = line.trim_end_matches(['\n', '\r']);
    let mut fields = line.split('|');
    if fields.next() != Some(SPOOL_JOB_MAGIC) {
        return Err(format!("job line must start with {SPOOL_JOB_MAGIC}|"));
    }
    let mut next = |what: &str| {
        fields
            .next()
            .map(str::to_string)
            .ok_or_else(|| format!("job line is missing its {what} field"))
    };
    let organization = next("ROWSxCOLS")?;
    let (rows, cols) = organization
        .split_once('x')
        .and_then(|(rows, cols)| Some((rows.parse::<u32>().ok()?, cols.parse::<u32>().ok()?)))
        .ok_or_else(|| format!("bad organization \"{organization}\" (want ROWSxCOLS)"))?;
    let seed: u64 = {
        let field = next("seed")?;
        field.parse().map_err(|_| format!("bad seed \"{field}\""))?
    };
    let algorithm = next("algorithm")?;
    let order = next("order")?;
    let background = match next("background")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad background \"{other}\" (want 0 or 1)")),
    };
    let backend: SweepBackend = {
        let field = next("backend")?;
        backend_by_name(&field).ok_or_else(|| format!("unknown backend \"{field}\""))?
    };
    let population = {
        let field = next("population")?;
        PopulationSpec::parse(&field).ok_or_else(|| format!("bad population \"{field}\""))?
    };
    if fields.next().is_some() {
        return Err("job line has trailing fields".to_string());
    }
    Ok(JobSpec {
        rows,
        cols,
        seed,
        algorithm,
        order,
        background,
        backend,
        population,
    })
}

/// A handle on the spool directory — both sides of the protocol.
#[derive(Debug, Clone)]
pub struct SpoolDir {
    dir: PathBuf,
}

impl SpoolDir {
    /// Opens (creating if needed) the spool directory.
    pub fn open(dir: &Path) -> Result<Self, CampaignError> {
        std::fs::create_dir_all(dir).map_err(|error| {
            CampaignError::io(format!("create spool directory {dir:?}"), &error)
        })?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// The directory this spool lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str, extension: &str) -> PathBuf {
        self.dir.join(format!("{name}.{extension}"))
    }

    /// Writes `contents` to `<name>.tmp` and renames it to
    /// `<name>.<extension>` — the protocol's only publish primitive.
    fn publish(&self, name: &str, extension: &str, contents: &str) -> Result<(), CampaignError> {
        let tmp = self.path(name, "tmp");
        let target = self.path(name, extension);
        std::fs::write(&tmp, contents)
            .map_err(|error| CampaignError::io(format!("write spool file {tmp:?}"), &error))?;
        std::fs::rename(&tmp, &target)
            .map_err(|error| CampaignError::io(format!("publish spool file {target:?}"), &error))
    }

    /// Client side: submits a job as `<name>.job` via tmp+rename.
    /// `name` must be a bare file stem (no path separators, no dots).
    pub fn submit(&self, name: &str, spec: &JobSpec) -> Result<(), CampaignError> {
        check_name(name)?;
        self.publish(name, "job", &format!("{}\n", render_job_line(spec)))
    }

    /// Client side, fault harness: writes only the first `keep` bytes of
    /// the job line to `<name>.tmp` and **does not rename** — the torn
    /// write of a client that died mid-submission. The daemon must never
    /// pick it up.
    pub fn submit_torn(
        &self,
        name: &str,
        spec: &JobSpec,
        keep: usize,
    ) -> Result<(), CampaignError> {
        check_name(name)?;
        let line = format!("{}\n", render_job_line(spec));
        let prefix = &line.as_bytes()[..keep.min(line.len())];
        let tmp = self.path(name, "tmp");
        std::fs::write(&tmp, prefix)
            .map_err(|error| CampaignError::io(format!("write torn spool file {tmp:?}"), &error))
    }

    /// Daemon side: all committed `.job` files in sorted name order, each
    /// parsed (parse failures travel as `Err` so intake can reject them
    /// explicitly).
    pub fn scan(&self) -> Result<Vec<Submission>, CampaignError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|error| CampaignError::io(format!("scan spool {:?}", self.dir), &error))?;
        let mut submissions = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|error| CampaignError::io(format!("scan spool {:?}", self.dir), &error))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("job") {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let spec = std::fs::read_to_string(&path)
                .map_err(|error| format!("unreadable job file: {error}"))
                .and_then(|line| parse_job_line(&line));
            submissions.push(Submission {
                name: name.to_string(),
                spec,
            });
        }
        submissions.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(submissions)
    }

    /// Daemon side: publishes the response for `name` as `<name>.resp`.
    pub fn respond(&self, name: &str, response: &SpoolResponse) -> Result<(), CampaignError> {
        // Responses publish through a distinct temp name so a response
        // never races a same-named job submission's temp file.
        let tmp = self.path(name, "resp-tmp");
        let target = self.path(name, "resp");
        std::fs::write(&tmp, response.render())
            .map_err(|error| CampaignError::io(format!("write spool response {tmp:?}"), &error))?;
        std::fs::rename(&tmp, &target).map_err(|error| {
            CampaignError::io(format!("publish spool response {target:?}"), &error)
        })
    }

    /// Daemon side: archives an ingested `.job` as `<name>.done`. Called
    /// after the journal append and the response; a crash before this
    /// point re-offers the job on restart and dedup absorbs it.
    pub fn archive(&self, name: &str) -> Result<(), CampaignError> {
        let from = self.path(name, "job");
        let to = self.path(name, "done");
        std::fs::rename(&from, &to)
            .map_err(|error| CampaignError::io(format!("archive spool job {from:?}"), &error))
    }

    /// Client side: reads the daemon's response for `name`, `None` while
    /// it has not been published yet.
    pub fn read_response(&self, name: &str) -> Option<SpoolResponse> {
        let text = std::fs::read_to_string(self.path(name, "resp")).ok()?;
        SpoolResponse::parse(&text)
    }
}

/// Rejects submission names that would escape the spool directory or
/// collide with the protocol's extensions.
fn check_name(name: &str) -> Result<(), CampaignError> {
    let clean = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if clean {
        Ok(())
    } else {
        Err(CampaignError::InvalidJob {
            job: 0,
            reason: format!("spool name {name:?} must be non-empty ASCII alphanumeric with - or _"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::algorithm_catalog;
    use crate::spec::ORDER_CATALOG;

    fn temp_spool(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "campaign-spool-{tag}-{}-{unique}",
            std::process::id()
        ))
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            rows: 16,
            cols: 16,
            seed,
            algorithm: algorithm_catalog()[0].clone(),
            order: ORDER_CATALOG[0].to_string(),
            background: false,
            backend: SweepBackend::LaneBatched,
            population: PopulationSpec::Mixed { count: 32 },
        }
    }

    #[test]
    fn job_lines_round_trip() {
        for (seed, backend, population) in [
            (1, SweepBackend::LaneBatched, PopulationSpec::Standard),
            (
                2,
                SweepBackend::PerFault,
                PopulationSpec::Mixed { count: 600 },
            ),
            (
                3,
                SweepBackend::LaneBatched,
                PopulationSpec::Dense { target: 50 },
            ),
        ] {
            let mut job = spec(seed);
            job.backend = backend;
            job.population = population;
            job.background = seed % 2 == 0;
            assert_eq!(parse_job_line(&render_job_line(&job)), Ok(job));
        }
    }

    #[test]
    fn mangled_job_lines_explain_themselves() {
        for (line, needle) in [
            ("", "must start with"),
            ("NOPE|16x16|1|a|b|0|lane|standard", "must start with"),
            ("CJOB1|16z16|1|a|b|0|lane|standard", "organization"),
            ("CJOB1|16x16|x|a|b|0|lane|standard", "seed"),
            ("CJOB1|16x16|1|a|b|2|lane|standard", "background"),
            ("CJOB1|16x16|1|a|b|0|warp|standard", "backend"),
            // The retired list-order backend is answered like any
            // unknown name.
            ("CJOB1|16x16|1|a|b|0|list-order|standard", "backend"),
            ("CJOB1|16x16|1|a|b|0|lane|weird:4", "population"),
            ("CJOB1|16x16|1|a|b|0|lane", "population"),
            ("CJOB1|16x16|1|a|b|0|lane|standard|extra", "trailing"),
        ] {
            let error = parse_job_line(line).expect_err(line);
            assert!(error.contains(needle), "{line:?} -> {error:?}");
        }
    }

    #[test]
    fn responses_round_trip_and_reject_torn_lines() {
        for response in [
            SpoolResponse::Accepted { job: 7 },
            SpoolResponse::Duplicate { job: 3 },
            SpoolResponse::QueueFull,
            SpoolResponse::Rejected {
                reason: "unknown backend \"warp\"".to_string(),
            },
        ] {
            assert_eq!(
                SpoolResponse::parse(&response.render()),
                Some(response.clone()),
                "{response:?}"
            );
        }
        for torn in ["", "CSR1", "CSR1 accepted", "CSR1 accepted x", "XXX ok 1"] {
            assert_eq!(SpoolResponse::parse(torn), None, "{torn:?}");
        }
    }

    #[test]
    fn submit_scan_respond_archive_cycle() {
        let dir = temp_spool("cycle");
        let spool = SpoolDir::open(&dir).expect("open");
        spool.submit("0001-a", &spec(1)).expect("submit");
        spool.submit("0000-b", &spec(2)).expect("submit");
        let scanned = spool.scan().expect("scan");
        // Sorted by name, not submission order.
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].name, "0000-b");
        assert_eq!(scanned[0].spec, Ok(spec(2)));
        assert_eq!(scanned[1].name, "0001-a");
        spool
            .respond("0000-b", &SpoolResponse::Accepted { job: 0 })
            .expect("respond");
        spool.archive("0000-b").expect("archive");
        assert_eq!(
            spool.read_response("0000-b"),
            Some(SpoolResponse::Accepted { job: 0 })
        );
        assert_eq!(spool.read_response("0001-a"), None);
        let rescan = spool.scan().expect("rescan");
        assert_eq!(rescan.len(), 1, "archived job must leave the scan");
        assert_eq!(rescan[0].name, "0001-a");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tmp_files_are_never_scanned() {
        let dir = temp_spool("torn");
        let spool = SpoolDir::open(&dir).expect("open");
        let full = render_job_line(&spec(1)).len() + 1;
        for keep in 0..full {
            spool
                .submit_torn(&format!("torn-{keep:04}"), &spec(1), keep)
                .expect("torn submit");
        }
        assert_eq!(
            spool.scan().expect("scan"),
            Vec::new(),
            "no prefix length of a torn .tmp may surface as a job"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_spool_names_are_refused() {
        let dir = temp_spool("names");
        let spool = SpoolDir::open(&dir).expect("open");
        for name in ["", "a/b", "../escape", "dot.dot", "sp ace"] {
            assert!(
                spool.submit(name, &spec(1)).is_err(),
                "{name:?} must be refused"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
