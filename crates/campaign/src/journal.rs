//! The append-only campaign journal.
//!
//! Fixed-width binary records, one per job attempt outcome, each carrying
//! its own FNV-1a checksum — no serde, no variable-length framing, so a
//! reader can always tell a whole record from a torn one by arithmetic
//! alone. See `crates/campaign/README.md` for the wire layout.
//!
//! Crash-safety contract:
//!
//! * **Appends are atomic-or-torn.** A record is 64 bytes; a crash leaves
//!   either the whole record or a prefix of it. Replay
//!   ([`Journal::open_resume`]) verifies magic + checksum per record and
//!   **truncates** the file at the first record that fails either test —
//!   a torn or corrupted tail costs at most the jobs it described, never
//!   the journal.
//! * **The header pins the plan.** The plan digest is written at create
//!   time; resume refuses a journal whose digest disagrees
//!   ([`CampaignError::PlanMismatch`]) instead of silently mixing results
//!   from two different plans.
//! * **Duplicates are benign, disagreements are not.** Replaying two
//!   identical completed records for one job keeps the first; two
//!   *different* results for one job means the journal lies and replay
//!   fails with [`CampaignError::Corrupt`].
//! * **Appends are durable before they count.** Every append is
//!   `fsync`ed before the runner acts on it (marks the job done,
//!   re-enqueues, quarantines), and `create` syncs the parent directory
//!   so the journal's own directory entry survives power loss — an
//!   OS-level crash can tear the last record but never drop an acked
//!   checkpoint.
//! * **One process per journal.** `create` and `open_resume` take an
//!   exclusive advisory lock (`flock`-style, released automatically on
//!   process death, SIGKILL included) and fail with
//!   [`CampaignError::Locked`] while another live process holds it — two
//!   campaigns can never resume the same shard journal concurrently.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use march_test::coverage::SweepBackend;
use march_test::rng::Fnv1a;

use crate::error::CampaignError;
use crate::faultpoint::{FaultInjector, JournalAction};
use crate::spec::{
    algorithm_catalog, backend_byte, CampaignPlan, JobSpec, PopulationSpec, ORDER_CATALOG,
};

/// Journal header magic: `b"SRAMCAMP"`.
pub const JOURNAL_MAGIC: [u8; 8] = *b"SRAMCAMP";
/// Journal format version written by static (fixed-plan) campaigns.
pub const JOURNAL_VERSION: u32 = 1;
/// Journal format version written by the campaign daemon: identical
/// header and record framing, plus dynamic-plan ([`JournalRecord::JobAdded`])
/// and deadline ([`JournalRecord::TimedOut`]) records. The version bump
/// rides the v1 header's reserved bytes: 20..24, zero in every v1
/// journal, carry [`DYNAMIC_HEADER_TAG`] in a v2 one.
pub const JOURNAL_VERSION_DYNAMIC: u32 = 2;
/// Value of the reserved header bytes 20..24 in a dynamic (v2) journal
/// (little-endian `b"DPL1"`, "dynamic plan v1").
pub const DYNAMIC_HEADER_TAG: u32 = u32::from_le_bytes(*b"DPL1");
/// Header length in bytes.
pub const HEADER_LEN: usize = 32;
/// Record length in bytes.
pub const RECORD_LEN: usize = 64;
/// Record magic (little-endian `b"CJR1"`).
pub const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"CJR1");
/// Bytes of a record covered by the checksum (everything before it).
const CHECKSUM_AT: usize = RECORD_LEN - 8;
/// Capacity of the failure-message payload field.
const MESSAGE_CAP: usize = CHECKSUM_AT - 12;

/// The deterministic result of one completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobResult {
    /// Faults detected by the sweep.
    pub detected: u32,
    /// Faults in the population.
    pub total: u32,
    /// Total mismatching reads across the sweep.
    pub mismatches: u64,
    /// [`march_test::coverage::CoverageReport::digest`] of the report.
    pub digest: u64,
}

/// One journal record: the outcome of one attempt at one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// The job finished; its result is final.
    Completed {
        /// Plan index of the job.
        job: u32,
        /// Attempt number (1-based) that succeeded.
        attempt: u8,
        /// The sweep result.
        result: JobResult,
    },
    /// One attempt failed (panic or rejected configuration); the job may
    /// be retried.
    Failed {
        /// Plan index of the job.
        job: u32,
        /// Attempt number (1-based) that failed.
        attempt: u8,
        /// The panic payload or error message (truncated to fit).
        message: String,
    },
    /// The job exhausted its attempts and is quarantined.
    Poisoned {
        /// Plan index of the job.
        job: u32,
        /// The final attempt number.
        attempt: u8,
        /// The last failure message (truncated to fit).
        message: String,
    },
    /// A job appended to the plan while the campaign was running —
    /// journal v2 only. The spec travels in compact catalog-indexed wire
    /// form ([`JobWire`]) pinned by the job's field digest.
    JobAdded {
        /// Plan index assigned to the new job (sequential: base plan
        /// size plus the number of earlier dynamic records).
        job: u32,
        /// The job spec in wire form.
        wire: JobWire,
    },
    /// One attempt exceeded its deadline and was abandoned — journal v2
    /// only. Burns an attempt exactly like [`JournalRecord::Failed`] on
    /// replay, but stays distinct on the wire so forensics can tell a
    /// slow job from a broken one.
    TimedOut {
        /// Plan index of the job.
        job: u32,
        /// Attempt number (1-based) that timed out.
        attempt: u8,
        /// The deadline description (truncated to fit).
        message: String,
    },
}

/// The fixed-width wire form of a dynamically added [`JobSpec`] — journal
/// v2's dynamic-plan payload.
///
/// Algorithm and address-order names are stored as indices into
/// [`algorithm_catalog`] / [`ORDER_CATALOG`] (the names themselves do not
/// fit a 64-byte record), and `spec_digest` pins the full resolved spec:
/// decoding re-derives the spec from the catalogs and refuses a record
/// whose digest disagrees, so a reordered catalog fails the resume loudly
/// instead of silently running a different job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobWire {
    /// Word lines of the array.
    pub rows: u32,
    /// Bit lines of the array.
    pub cols: u32,
    /// Population seed.
    pub seed: u64,
    /// Index into [`algorithm_catalog`].
    pub algorithm: u8,
    /// Index into [`ORDER_CATALOG`].
    pub order: u8,
    /// Initial cell value.
    pub background: bool,
    /// Sweep backend byte (0 lane, 2 per-fault; 1 is reserved).
    pub backend: u8,
    /// Population profile tag (0 standard, 1 mixed, 2 dense).
    pub population_tag: u8,
    /// Mixed/dense population size (0 for standard).
    pub population_count: u64,
    /// [`JobSpec::digest`] of the full spec.
    pub spec_digest: u64,
}

impl JobWire {
    /// Encodes a spec into wire form, or explains why it cannot travel
    /// (a name outside the catalogs, a population too large for the
    /// record). The daemon rejects such submissions at intake.
    pub fn from_spec(spec: &JobSpec) -> Result<Self, String> {
        let algorithm = algorithm_catalog()
            .iter()
            .position(|name| name == &spec.algorithm)
            .ok_or_else(|| format!("algorithm \"{}\" is not in the catalog", spec.algorithm))?;
        let order = ORDER_CATALOG
            .iter()
            .position(|name| *name == spec.order)
            .ok_or_else(|| format!("address order \"{}\" is not in the catalog", spec.order))?;
        if algorithm > usize::from(u8::MAX) || order > usize::from(u8::MAX) {
            return Err("catalog index exceeds the wire form".to_string());
        }
        let (population_tag, population_count) = match spec.population {
            PopulationSpec::Standard => (0u8, 0u64),
            PopulationSpec::Mixed { count } => (1, count as u64),
            PopulationSpec::Dense { target } => (2, target as u64),
        };
        Ok(Self {
            rows: spec.rows,
            cols: spec.cols,
            seed: spec.seed,
            algorithm: algorithm as u8,
            order: order as u8,
            background: spec.background,
            backend: backend_byte(spec.backend),
            population_tag,
            population_count,
            spec_digest: spec.digest(),
        })
    }

    /// Rebuilds the spec from the catalogs, refusing a record whose
    /// stored digest disagrees with the rebuilt spec — the catalog-drift
    /// guard.
    pub fn to_spec(&self) -> Result<JobSpec, String> {
        let algorithms = algorithm_catalog();
        let algorithm = algorithms
            .get(usize::from(self.algorithm))
            .cloned()
            .ok_or_else(|| format!("algorithm catalog has no entry {}", self.algorithm))?;
        let order = ORDER_CATALOG
            .get(usize::from(self.order))
            .map(|name| name.to_string())
            .ok_or_else(|| format!("order catalog has no entry {}", self.order))?;
        let population = match self.population_tag {
            0 => PopulationSpec::Standard,
            1 => PopulationSpec::Mixed {
                count: self.population_count as usize,
            },
            2 => PopulationSpec::Dense {
                target: self.population_count as usize,
            },
            other => return Err(format!("unknown population tag {other}")),
        };
        let spec = JobSpec {
            rows: self.rows,
            cols: self.cols,
            seed: self.seed,
            algorithm,
            order,
            background: self.background,
            backend: match self.backend {
                0 => SweepBackend::LaneBatched,
                2 => SweepBackend::PerFault,
                other => return Err(format!("unknown backend byte {other}")),
            },
            population,
        };
        if spec.digest() != self.spec_digest {
            return Err(format!(
                "job digest mismatch (stored {:#018x}, catalogs rebuild {:#018x}) — \
                 the algorithm/order catalogs changed since this journal was written",
                self.spec_digest,
                spec.digest()
            ));
        }
        Ok(spec)
    }
}

impl JournalRecord {
    /// Plan index of the job this record describes.
    pub fn job(&self) -> u32 {
        match self {
            Self::Completed { job, .. }
            | Self::Failed { job, .. }
            | Self::Poisoned { job, .. }
            | Self::JobAdded { job, .. }
            | Self::TimedOut { job, .. } => *job,
        }
    }

    fn kind_byte(&self) -> u8 {
        match self {
            Self::Completed { .. } => 1,
            Self::Failed { .. } => 2,
            Self::Poisoned { .. } => 3,
            Self::JobAdded { .. } => 4,
            Self::TimedOut { .. } => 5,
        }
    }

    /// Encodes the record into its 64-byte wire form.
    pub fn encode(&self) -> [u8; RECORD_LEN] {
        let mut bytes = [0u8; RECORD_LEN];
        bytes[0..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
        bytes[4] = self.kind_byte();
        let (attempt, job) = match self {
            Self::Completed { job, attempt, .. }
            | Self::Failed { job, attempt, .. }
            | Self::Poisoned { job, attempt, .. }
            | Self::TimedOut { job, attempt, .. } => (*attempt, *job),
            Self::JobAdded { job, .. } => (0, *job),
        };
        bytes[5] = attempt;
        // bytes 6..8: flags, reserved as zero.
        bytes[8..12].copy_from_slice(&job.to_le_bytes());
        match self {
            Self::Completed { result, .. } => {
                bytes[12..16].copy_from_slice(&result.detected.to_le_bytes());
                bytes[16..20].copy_from_slice(&result.total.to_le_bytes());
                bytes[20..28].copy_from_slice(&result.mismatches.to_le_bytes());
                bytes[28..36].copy_from_slice(&result.digest.to_le_bytes());
            }
            Self::Failed { message, .. }
            | Self::Poisoned { message, .. }
            | Self::TimedOut { message, .. } => {
                let truncated = truncate_to_char_boundary(message, MESSAGE_CAP);
                bytes[12..12 + truncated.len()].copy_from_slice(truncated.as_bytes());
            }
            Self::JobAdded { wire, .. } => {
                bytes[12..16].copy_from_slice(&wire.rows.to_le_bytes());
                bytes[16..20].copy_from_slice(&wire.cols.to_le_bytes());
                bytes[20..28].copy_from_slice(&wire.seed.to_le_bytes());
                bytes[28] = wire.algorithm;
                bytes[29] = wire.order;
                bytes[30] = u8::from(wire.background);
                bytes[31] = wire.backend;
                bytes[32] = wire.population_tag;
                bytes[33..41].copy_from_slice(&wire.population_count.to_le_bytes());
                bytes[41..49].copy_from_slice(&wire.spec_digest.to_le_bytes());
            }
        }
        let checksum = Fnv1a::hash(&bytes[..CHECKSUM_AT]);
        bytes[CHECKSUM_AT..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Decodes a 64-byte record, returning `None` when the magic, the
    /// checksum or the kind byte is wrong — the "treat as torn tail"
    /// signal for replay.
    pub fn decode(bytes: &[u8; RECORD_LEN]) -> Option<Self> {
        if u32::from_le_bytes(bytes[0..4].try_into().unwrap()) != RECORD_MAGIC {
            return None;
        }
        let stored = u64::from_le_bytes(bytes[CHECKSUM_AT..].try_into().unwrap());
        if Fnv1a::hash(&bytes[..CHECKSUM_AT]) != stored {
            return None;
        }
        let attempt = bytes[5];
        let job = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        match bytes[4] {
            1 => Some(Self::Completed {
                job,
                attempt,
                result: JobResult {
                    detected: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
                    total: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
                    mismatches: u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
                    digest: u64::from_le_bytes(bytes[28..36].try_into().unwrap()),
                },
            }),
            kind @ (2 | 3 | 5) => {
                let payload = &bytes[12..CHECKSUM_AT];
                let len = payload
                    .iter()
                    .position(|&b| b == 0)
                    .unwrap_or(payload.len());
                let message = String::from_utf8_lossy(&payload[..len]).into_owned();
                Some(match kind {
                    2 => Self::Failed {
                        job,
                        attempt,
                        message,
                    },
                    3 => Self::Poisoned {
                        job,
                        attempt,
                        message,
                    },
                    _ => Self::TimedOut {
                        job,
                        attempt,
                        message,
                    },
                })
            }
            4 => Some(Self::JobAdded {
                job,
                wire: JobWire {
                    rows: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
                    cols: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
                    seed: u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
                    algorithm: bytes[28],
                    order: bytes[29],
                    background: bytes[30] != 0,
                    backend: bytes[31],
                    population_tag: bytes[32],
                    population_count: u64::from_le_bytes(bytes[33..41].try_into().unwrap()),
                    spec_digest: u64::from_le_bytes(bytes[41..49].try_into().unwrap()),
                },
            }),
            _ => None,
        }
    }
}

/// `fsync`s the parent directory of `path`, making the file's directory
/// entry durable. Without this, a power loss right after `create` can
/// leave a synced file that no directory names.
fn sync_parent_dir(path: &Path) -> Result<(), CampaignError> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        // A bare file name lives in the CWD; "." always exists.
        _ => Path::new("."),
    };
    File::open(parent)
        .and_then(|dir| dir.sync_all())
        .map_err(|error| CampaignError::io(format!("fsync journal directory {parent:?}"), &error))
}

/// The durability-ordering checkpoints the journal passes through, in
/// the order they must happen. Recorded (under `cfg(test)`) into a
/// thread-local log so the flush-ordering test can pin that data hits
/// the file before the file is synced, and the file is synced before
/// the directory entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum SyncPoint {
    /// Header bytes handed to the kernel.
    HeaderWritten,
    /// Record bytes handed to the kernel.
    RecordWritten,
    /// File contents `fsync`ed.
    FileSynced,
    /// Parent directory entry `fsync`ed.
    DirSynced,
}

#[cfg(test)]
thread_local! {
    static SYNC_LOG: std::cell::RefCell<Vec<SyncPoint>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Notes that the journal just passed `point` (test builds only).
fn sync_point(point: SyncPoint) {
    #[cfg(test)]
    SYNC_LOG.with(|log| log.borrow_mut().push(point));
    #[cfg(not(test))]
    let _ = point;
}

/// Drains the recorded sync checkpoints (test builds only).
#[cfg(test)]
fn take_sync_log() -> Vec<SyncPoint> {
    SYNC_LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// Truncates `message` to at most `cap` bytes on a char boundary.
fn truncate_to_char_boundary(message: &str, cap: usize) -> &str {
    if message.len() <= cap {
        return message;
    }
    let mut end = cap;
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    &message[..end]
}

/// The parsed 32-byte journal header.
#[derive(Debug, Clone, Copy)]
struct Header {
    version: u32,
    jobs: u32,
    reserved: u32,
    digest: u64,
}

/// Digest a dynamic (v2) journal header pins: the digest of an empty
/// plan, since every job arrives as a dynamic append.
pub fn empty_plan_digest() -> u64 {
    CampaignPlan::new(Vec::new()).digest()
}

/// What replaying a journal established about past progress.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replay {
    /// Final results of completed jobs.
    pub completed: BTreeMap<u32, JobResult>,
    /// Attempts already burned per still-incomplete job, with the last
    /// failure message.
    pub failed_attempts: BTreeMap<u32, (u8, String)>,
    /// Jobs already quarantined, with their final failure message.
    pub poisoned: BTreeMap<u32, String>,
    /// Jobs appended dynamically (journal v2), in append order: entry
    /// `i` describes plan index `base_jobs + i`. Always empty for a v1
    /// journal.
    pub dynamic: Vec<JobSpec>,
    /// Whole records successfully replayed.
    pub records: u64,
    /// Bytes discarded from the torn/corrupt tail (0 for a clean file).
    pub truncated_bytes: u64,
}

/// An open campaign journal: an append handle plus the replayed state.
#[derive(Debug)]
pub struct Journal {
    file: File,
    records_written: u64,
}

impl Journal {
    /// Opens `path` (creating it if asked) and takes the exclusive
    /// advisory lock, failing with [`CampaignError::Locked`] while
    /// another live process holds it. The lock belongs to the open file
    /// and is released by the OS on *any* process exit, SIGKILL
    /// included — a dead shard never wedges its own restart.
    fn open_locked(path: &Path, create: bool) -> Result<File, CampaignError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .open(path)
            .map_err(|error| CampaignError::io(format!("open journal {path:?}"), &error))?;
        match file.try_lock() {
            Ok(()) => Ok(file),
            Err(TryLockError::WouldBlock) => Err(CampaignError::Locked {
                path: path.display().to_string(),
            }),
            Err(TryLockError::Error(error)) => {
                Err(CampaignError::io(format!("lock journal {path:?}"), &error))
            }
        }
    }

    /// Creates a fresh journal at `path` (truncating any existing file
    /// once the advisory lock is held) and writes its header durably:
    /// header bytes, then `fsync` of the file, then `fsync` of the
    /// parent directory so the journal's directory entry itself survives
    /// power loss.
    pub fn create(path: &Path, job_count: u32, plan_digest: u64) -> Result<Self, CampaignError> {
        Self::create_versioned(path, JOURNAL_VERSION, job_count, plan_digest)
    }

    /// Creates a fresh **dynamic** (v2) journal for a daemon campaign:
    /// no base plan (zero jobs, the empty-plan digest), every job arrives
    /// later as a [`JournalRecord::JobAdded`] append. The reserved v1
    /// header bytes 20..24 carry [`DYNAMIC_HEADER_TAG`].
    pub fn create_dynamic(path: &Path) -> Result<Self, CampaignError> {
        Self::create_versioned(path, JOURNAL_VERSION_DYNAMIC, 0, empty_plan_digest())
    }

    fn create_versioned(
        path: &Path,
        version: u32,
        job_count: u32,
        plan_digest: u64,
    ) -> Result<Self, CampaignError> {
        let mut file = Self::open_locked(path, true)?;
        // Truncate only after the lock is ours: racing `create` calls
        // must not wipe a live journal they then fail to lock.
        file.set_len(0)
            .map_err(|error| CampaignError::io("truncate journal for create", &error))?;
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&JOURNAL_MAGIC);
        header[8..12].copy_from_slice(&version.to_le_bytes());
        header[12..16].copy_from_slice(&(RECORD_LEN as u32).to_le_bytes());
        header[16..20].copy_from_slice(&job_count.to_le_bytes());
        // Bytes 20..24: reserved (zero) in v1, the dynamic tag in v2.
        if version == JOURNAL_VERSION_DYNAMIC {
            header[20..24].copy_from_slice(&DYNAMIC_HEADER_TAG.to_le_bytes());
        }
        header[24..32].copy_from_slice(&plan_digest.to_le_bytes());
        file.write_all(&header)
            .map_err(|error| CampaignError::io("write journal header", &error))?;
        sync_point(SyncPoint::HeaderWritten);
        file.sync_all()
            .map_err(|error| CampaignError::io("fsync journal header", &error))?;
        sync_point(SyncPoint::FileSynced);
        sync_parent_dir(path)?;
        sync_point(SyncPoint::DirSynced);
        Ok(Self {
            file,
            records_written: 0,
        })
    }

    /// Opens an existing **static** (v1) journal for resume: validates
    /// the header against the plan, replays every whole valid record, and
    /// truncates the file at the first torn or corrupt one.
    pub fn open_resume(
        path: &Path,
        job_count: u32,
        plan_digest: u64,
    ) -> Result<(Self, Replay), CampaignError> {
        let (file, bytes, header) = Self::open_header(path)?;
        if header.version == JOURNAL_VERSION_DYNAMIC {
            return Err(CampaignError::Corrupt {
                offset: 8,
                reason: format!(
                    "journal is dynamic (version {JOURNAL_VERSION_DYNAMIC}); resume it with \
                     campaign_daemon, not a fixed-plan campaign"
                ),
            });
        }
        // A zero job count can never have been written by `create` (plans
        // validate as non-empty), so it is a forged or zeroed header even
        // when the digest happens to collide — reject it outright rather
        // than resuming against a plan the journal never described.
        if header.digest != plan_digest || header.jobs != job_count || header.jobs == 0 {
            return Err(CampaignError::PlanMismatch {
                expected: plan_digest,
                found: header.digest,
            });
        }
        Self::replay_and_truncate(file, &bytes, header.jobs, false)
    }

    /// Opens an existing **dynamic** (v2) journal for resume: validates
    /// the dynamic header tag, replays every whole valid record —
    /// rebuilding the dynamic plan from the [`JournalRecord::JobAdded`]
    /// prefix of each job's records — and truncates the torn/corrupt
    /// tail exactly like the static path. Dynamic appends are checksummed
    /// with the same per-record FNV-1a, so a crash mid-intake costs at
    /// most the submission being journaled, never the journal.
    pub fn open_resume_dynamic(path: &Path) -> Result<(Self, Replay), CampaignError> {
        let (file, bytes, header) = Self::open_header(path)?;
        if header.version != JOURNAL_VERSION_DYNAMIC {
            return Err(CampaignError::Corrupt {
                offset: 8,
                reason: format!(
                    "journal is static (version {}); resume it with campaign_run, not the daemon",
                    header.version
                ),
            });
        }
        if header.reserved != DYNAMIC_HEADER_TAG {
            return Err(CampaignError::Corrupt {
                offset: 20,
                reason: "dynamic journal is missing its DPL1 header tag".to_string(),
            });
        }
        if header.jobs != 0 || header.digest != empty_plan_digest() {
            return Err(CampaignError::PlanMismatch {
                expected: empty_plan_digest(),
                found: header.digest,
            });
        }
        let (journal, replay) = Self::replay_and_truncate(file, &bytes, 0, true)?;
        // Intake dedupes by spec digest before appending, so duplicate
        // dynamic records can only mean a corrupted or hand-edited
        // journal — refuse them rather than running a job twice.
        let mut digests = BTreeSet::new();
        for (index, spec) in replay.dynamic.iter().enumerate() {
            if !digests.insert(spec.digest()) {
                return Err(CampaignError::Corrupt {
                    offset: 0,
                    reason: format!("dynamic job {index} duplicates an earlier submission"),
                });
            }
        }
        Ok((journal, replay))
    }

    /// Locks the file and parses the 32-byte header, with an error that
    /// names every version this build reads when it meets a future one.
    fn open_header(path: &Path) -> Result<(File, Vec<u8>, Header), CampaignError> {
        let mut file = Self::open_locked(path, false)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|error| CampaignError::io("read journal", &error))?;
        if bytes.len() < HEADER_LEN {
            return Err(CampaignError::Corrupt {
                offset: 0,
                reason: format!("header needs {HEADER_LEN} bytes, file has {}", bytes.len()),
            });
        }
        if bytes[0..8] != JOURNAL_MAGIC {
            return Err(CampaignError::Corrupt {
                offset: 0,
                reason: "bad journal magic".to_string(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != JOURNAL_VERSION && version != JOURNAL_VERSION_DYNAMIC {
            return Err(CampaignError::Corrupt {
                offset: 8,
                reason: format!(
                    "unsupported journal version {version} (this build reads version \
                     {JOURNAL_VERSION} static and version {JOURNAL_VERSION_DYNAMIC} dynamic \
                     journals)"
                ),
            });
        }
        let record_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if record_len as usize != RECORD_LEN {
            return Err(CampaignError::Corrupt {
                offset: 12,
                reason: format!("unsupported record length {record_len}"),
            });
        }
        let header = Header {
            version,
            jobs: u32::from_le_bytes(bytes[16..20].try_into().unwrap()),
            reserved: u32::from_le_bytes(bytes[20..24].try_into().unwrap()),
            digest: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
        };
        Ok((file, bytes, header))
    }

    /// Replays every whole valid record and truncates the file at the
    /// first torn or corrupt one. `base_jobs` is the fixed-plan job
    /// count; `dynamic` allows kind-4/5 records and grows the known job
    /// count with each [`JournalRecord::JobAdded`].
    fn replay_and_truncate(
        mut file: File,
        bytes: &[u8],
        base_jobs: u32,
        dynamic: bool,
    ) -> Result<(Self, Replay), CampaignError> {
        let mut replay = Replay::default();
        let mut offset = HEADER_LEN;
        while offset + RECORD_LEN <= bytes.len() {
            let chunk: &[u8; RECORD_LEN] = bytes[offset..offset + RECORD_LEN].try_into().unwrap();
            let Some(record) = JournalRecord::decode(chunk) else {
                break; // torn or corrupt: truncate here, discard the rest
            };
            Self::replay_record(&mut replay, record, offset as u64, base_jobs, dynamic)?;
            replay.records += 1;
            offset += RECORD_LEN;
        }
        replay.truncated_bytes = (bytes.len() - offset) as u64;
        file.set_len(offset as u64)
            .and_then(|_| file.seek(SeekFrom::Start(offset as u64)))
            .map_err(|error| CampaignError::io("truncate journal tail", &error))?;
        Ok((
            Self {
                file,
                records_written: replay.records,
            },
            replay,
        ))
    }

    /// Folds one replayed record into the progress state.
    fn replay_record(
        replay: &mut Replay,
        record: JournalRecord,
        offset: u64,
        base_jobs: u32,
        dynamic: bool,
    ) -> Result<(), CampaignError> {
        // Every outcome record must name a job the journal has already
        // defined — the base plan or an earlier dynamic append.
        let known_jobs = base_jobs as u64 + replay.dynamic.len() as u64;
        if !matches!(record, JournalRecord::JobAdded { .. })
            && u64::from(record.job()) >= known_jobs
        {
            return Err(CampaignError::Corrupt {
                offset,
                reason: format!(
                    "record describes job {} but the journal only defines {known_jobs}",
                    record.job()
                ),
            });
        }
        match record {
            JournalRecord::JobAdded { job, wire } => {
                if !dynamic {
                    return Err(CampaignError::Corrupt {
                        offset,
                        reason: "dynamic-plan record in a static (v1) journal".to_string(),
                    });
                }
                if u64::from(job) != known_jobs {
                    return Err(CampaignError::Corrupt {
                        offset,
                        reason: format!(
                            "dynamic-plan record assigns job {job}, expected {known_jobs}"
                        ),
                    });
                }
                let spec = wire
                    .to_spec()
                    .map_err(|reason| CampaignError::Corrupt { offset, reason })?;
                replay.dynamic.push(spec);
            }
            JournalRecord::Completed { job, result, .. } => {
                if let Some(existing) = replay.completed.get(&job) {
                    if *existing != result {
                        return Err(CampaignError::Corrupt {
                            offset,
                            reason: format!(
                                "job {job} has two completed records with different results"
                            ),
                        });
                    }
                    // Identical duplicate (re-dispatched then resumed
                    // twice): first record wins, nothing to do.
                } else {
                    replay.completed.insert(job, result);
                    replay.failed_attempts.remove(&job);
                }
            }
            // A timeout burns an attempt exactly like a failure; it only
            // differs on the wire, for forensics.
            JournalRecord::Failed {
                job,
                attempt,
                message,
            }
            | JournalRecord::TimedOut {
                job,
                attempt,
                message,
            } => {
                if !replay.completed.contains_key(&job) {
                    let entry = replay
                        .failed_attempts
                        .entry(job)
                        .or_insert((0, String::new()));
                    entry.0 = entry.0.max(attempt);
                    entry.1 = message;
                }
            }
            JournalRecord::Poisoned { job, message, .. } => {
                replay.poisoned.insert(job, message);
                replay.failed_attempts.remove(&job);
            }
        }
        Ok(())
    }

    /// Number of records appended (including replayed ones).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Appends one record, honouring the injector's directive for this
    /// record ordinal: a torn write stores only the first half and
    /// aborts; a byte flip corrupts the stored copy and aborts — both
    /// simulate dying mid-append with the in-memory state lost.
    ///
    /// A normal append is `fsync`ed (`sync_data`) before it returns, so
    /// by the time the runner acts on the record — marks the job done,
    /// re-enqueues it, quarantines it — the checkpoint is on the
    /// platter, not in the page cache: OS-level power loss can tear the
    /// record being written but never drop an acked one.
    pub fn append(
        &mut self,
        record: &JournalRecord,
        injector: &FaultInjector,
    ) -> Result<(), CampaignError> {
        let mut bytes = record.encode();
        let ordinal = self.records_written;
        match injector.journal_action(ordinal) {
            JournalAction::Normal => {
                self.file
                    .write_all(&bytes)
                    .map_err(|error| CampaignError::io("append journal record", &error))?;
                sync_point(SyncPoint::RecordWritten);
                self.file
                    .sync_data()
                    .map_err(|error| CampaignError::io("fsync journal record", &error))?;
                sync_point(SyncPoint::FileSynced);
                self.records_written += 1;
                Ok(())
            }
            JournalAction::Torn => {
                self.file
                    .write_all(&bytes[..RECORD_LEN / 2])
                    .and_then(|()| self.file.flush())
                    .map_err(|error| CampaignError::io("append journal record", &error))?;
                Err(CampaignError::Injected {
                    point: format!("torn journal write at record {ordinal}"),
                })
            }
            JournalAction::Flip(byte) => {
                let index = byte.min(RECORD_LEN - 1);
                bytes[index] ^= 0x01;
                self.file
                    .write_all(&bytes)
                    .and_then(|()| self.file.flush())
                    .map_err(|error| CampaignError::io("append journal record", &error))?;
                Err(CampaignError::Injected {
                    point: format!("flipped byte {index} of record {ordinal}"),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(seed: u64) -> JobResult {
        JobResult {
            detected: seed as u32,
            total: seed as u32 + 10,
            mismatches: seed * 3,
            digest: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    #[test]
    fn records_round_trip_through_the_wire_form() {
        let records = [
            JournalRecord::Completed {
                job: 7,
                attempt: 2,
                result: result(42),
            },
            JournalRecord::Failed {
                job: 3,
                attempt: 1,
                message: "sweep panicked: boom".to_string(),
            },
            JournalRecord::Poisoned {
                job: 9,
                attempt: 3,
                message: "faultpoint: worker killed".to_string(),
            },
        ];
        for record in &records {
            let bytes = record.encode();
            assert_eq!(bytes.len(), RECORD_LEN);
            assert_eq!(JournalRecord::decode(&bytes).as_ref(), Some(record));
        }
    }

    #[test]
    fn long_and_multibyte_messages_truncate_safely() {
        let long = "é".repeat(200);
        let record = JournalRecord::Failed {
            job: 0,
            attempt: 1,
            message: long.clone(),
        };
        let decoded = JournalRecord::decode(&record.encode()).expect("valid record");
        let JournalRecord::Failed { message, .. } = decoded else {
            panic!("kind must survive");
        };
        assert!(message.len() <= MESSAGE_CAP);
        assert!(long.starts_with(&message));
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "campaign-unit-{tag}-{}-{unique}.journal",
            std::process::id()
        ))
    }

    #[test]
    fn create_and_append_sync_in_durability_order() {
        use crate::faultpoint::FaultInjector;
        let path = temp_journal("sync-order");
        let _ = take_sync_log();
        let mut journal = Journal::create(&path, 2, 0xF00D).expect("create");
        // Create: header reaches the kernel, then the file is fsynced,
        // then the directory entry — never the other way around.
        assert_eq!(
            take_sync_log(),
            vec![
                SyncPoint::HeaderWritten,
                SyncPoint::FileSynced,
                SyncPoint::DirSynced,
            ],
            "create must sync file contents before the directory entry"
        );
        // Each append fsyncs after the write and before returning Ok, so
        // an acked checkpoint is durable by the time the runner acts on
        // it.
        for job in 0..2 {
            journal
                .append(
                    &JournalRecord::Completed {
                        job,
                        attempt: 1,
                        result: result(u64::from(job)),
                    },
                    &FaultInjector::none(),
                )
                .expect("append");
            assert_eq!(
                take_sync_log(),
                vec![SyncPoint::RecordWritten, SyncPoint::FileSynced],
                "append {job} must fsync the record before acking it"
            );
        }
        drop(journal);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn second_process_cannot_open_a_locked_journal() {
        use crate::error::CampaignError;
        let path = temp_journal("locked");
        let journal = Journal::create(&path, 3, 0xBEEF).expect("create");
        // The advisory lock belongs to the open file, so a second open —
        // same process or not — conflicts exactly like a second process
        // would.
        match Journal::open_resume(&path, 3, 0xBEEF) {
            Err(CampaignError::Locked { path: locked }) => {
                assert!(locked.contains("campaign-unit-locked"));
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        // A racing `create` is refused too, without truncating the live
        // journal.
        assert!(matches!(
            Journal::create(&path, 3, 0xBEEF),
            Err(CampaignError::Locked { .. })
        ));
        let len = std::fs::metadata(&path).expect("metadata").len();
        assert_eq!(
            len as usize, HEADER_LEN,
            "the losing create must not have wiped the journal"
        );
        // Dropping the holder releases the lock; resume then succeeds.
        drop(journal);
        let (_, replay) = Journal::open_resume(&path, 3, 0xBEEF).expect("resume after release");
        assert_eq!(replay.records, 0);
        std::fs::remove_file(&path).ok();
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
    fn dynamic_records_round_trip_through_the_wire_form() {
        let wire = JobWire::from_spec(&spec(9)).expect("encode");
        let records = [
            JournalRecord::JobAdded { job: 4, wire },
            JournalRecord::TimedOut {
                job: 4,
                attempt: 2,
                message: "deadline 250ms exceeded".to_string(),
            },
        ];
        for record in &records {
            let bytes = record.encode();
            assert_eq!(JournalRecord::decode(&bytes).as_ref(), Some(record));
        }
        assert_eq!(wire.to_spec().expect("decode"), spec(9));
    }

    #[test]
    fn wire_form_refuses_names_outside_the_catalogs() {
        let mut bad = spec(1);
        bad.algorithm = "definitely not an algorithm".to_string();
        let error = JobWire::from_spec(&bad).expect_err("must refuse");
        assert!(error.contains("not in the catalog"), "got: {error}");
        // A tampered digest means the catalogs no longer rebuild the
        // spec that was journaled — decoding must refuse.
        let mut wire = JobWire::from_spec(&spec(1)).expect("encode");
        wire.spec_digest ^= 1;
        let error = wire.to_spec().expect_err("must refuse");
        assert!(error.contains("digest mismatch"), "got: {error}");
    }

    #[test]
    fn wire_form_keeps_backend_bytes_and_refuses_the_reserved_one() {
        // Bytes 0 (lane) and 2 (per-fault) are what stored records and
        // spec digests carry; renumbering them would orphan journals.
        for (backend, byte) in [
            (SweepBackend::LaneBatched, 0u8),
            (SweepBackend::PerFault, 2),
        ] {
            let mut job = spec(3);
            job.backend = backend;
            let wire = JobWire::from_spec(&job).expect("encode");
            assert_eq!(wire.backend, byte, "{backend:?}");
            assert_eq!(wire.to_spec().expect("decode"), job);
        }
        // Byte 1 belonged to the retired list-order backend.
        let mut wire = JobWire::from_spec(&spec(3)).expect("encode");
        wire.backend = 1;
        assert_eq!(
            wire.to_spec().expect_err("must refuse"),
            "unknown backend byte 1"
        );
    }

    #[test]
    fn dynamic_journal_resumes_plan_and_outcomes() {
        use crate::faultpoint::FaultInjector;
        let path = temp_journal("dynamic-resume");
        let mut journal = Journal::create_dynamic(&path).expect("create");
        for (job, seed) in [(0u32, 1u64), (1, 2), (2, 3)] {
            journal
                .append(
                    &JournalRecord::JobAdded {
                        job,
                        wire: JobWire::from_spec(&spec(seed)).expect("encode"),
                    },
                    &FaultInjector::none(),
                )
                .expect("append add");
        }
        journal
            .append(
                &JournalRecord::TimedOut {
                    job: 1,
                    attempt: 1,
                    message: "deadline".to_string(),
                },
                &FaultInjector::none(),
            )
            .expect("append timeout");
        journal
            .append(
                &JournalRecord::Completed {
                    job: 0,
                    attempt: 1,
                    result: result(7),
                },
                &FaultInjector::none(),
            )
            .expect("append completed");
        drop(journal);
        let (_, replay) = Journal::open_resume_dynamic(&path).expect("resume");
        assert_eq!(replay.dynamic, vec![spec(1), spec(2), spec(3)]);
        assert_eq!(replay.completed.get(&0), Some(&result(7)));
        // A timeout burns an attempt exactly like a failure.
        assert_eq!(replay.failed_attempts.get(&1).map(|(n, _)| *n), Some(1));
        assert_eq!(replay.records, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_dynamic_append_truncates_not_fails() {
        use crate::faultpoint::FaultInjector;
        let path = temp_journal("dynamic-torn");
        let mut journal = Journal::create_dynamic(&path).expect("create");
        journal
            .append(
                &JournalRecord::JobAdded {
                    job: 0,
                    wire: JobWire::from_spec(&spec(1)).expect("encode"),
                },
                &FaultInjector::none(),
            )
            .expect("append");
        drop(journal);
        // Crash mid-intake: a prefix of the next JobAdded hits the disk.
        let torn = JournalRecord::JobAdded {
            job: 1,
            wire: JobWire::from_spec(&spec(2)).expect("encode"),
        }
        .encode();
        {
            use std::fs::OpenOptions;
            let mut file = OpenOptions::new().append(true).open(&path).expect("open");
            file.write_all(&torn[..21]).expect("tear");
        }
        let (_, replay) = Journal::open_resume_dynamic(&path).expect("resume");
        assert_eq!(replay.dynamic, vec![spec(1)]);
        assert_eq!(replay.truncated_bytes, 21);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatches_name_both_supported_versions() {
        let path = temp_journal("future-version");
        {
            let journal = Journal::create(&path, 2, 0xF00D).expect("create");
            drop(journal);
            let mut bytes = std::fs::read(&path).expect("read");
            bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
            std::fs::write(&path, bytes).expect("write");
        }
        for attempt in [
            Journal::open_resume(&path, 2, 0xF00D).map(|_| ()),
            Journal::open_resume_dynamic(&path).map(|_| ()),
        ] {
            match attempt {
                Err(CampaignError::Corrupt { reason, .. }) => {
                    assert!(reason.contains("version 9"), "got: {reason}");
                    assert!(
                        reason.contains("version 1") && reason.contains("version 2"),
                        "error must name both supported versions, got: {reason}"
                    );
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn static_and_dynamic_journals_refuse_the_wrong_resume_path() {
        let path = temp_journal("wrong-kind");
        drop(Journal::create_dynamic(&path).expect("create"));
        match Journal::open_resume(&path, 1, 0xF00D) {
            Err(CampaignError::Corrupt { reason, .. }) => {
                assert!(reason.contains("campaign_daemon"), "got: {reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        drop(Journal::create(&path, 1, 0xF00D).expect("recreate static"));
        match Journal::open_resume_dynamic(&path) {
            Err(CampaignError::Corrupt { reason, .. }) => {
                assert!(reason.contains("campaign_run"), "got: {reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_dynamic_submissions_fail_resume() {
        use crate::faultpoint::FaultInjector;
        let path = temp_journal("dynamic-dup");
        let mut journal = Journal::create_dynamic(&path).expect("create");
        let wire = JobWire::from_spec(&spec(5)).expect("encode");
        for job in 0..2 {
            journal
                .append(
                    &JournalRecord::JobAdded { job, wire },
                    &FaultInjector::none(),
                )
                .expect("append");
        }
        drop(journal);
        match Journal::open_resume_dynamic(&path) {
            Err(CampaignError::Corrupt { reason, .. }) => {
                assert!(reason.contains("duplicates"), "got: {reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_records_in_a_static_journal_fail_resume() {
        use crate::faultpoint::FaultInjector;
        let path = temp_journal("static-no-dynamic");
        let mut journal = Journal::create(&path, 2, 0xF00D).expect("create");
        journal
            .append(
                &JournalRecord::JobAdded {
                    job: 2,
                    wire: JobWire::from_spec(&spec(1)).expect("encode"),
                },
                &FaultInjector::none(),
            )
            .expect("append");
        drop(journal);
        match Journal::open_resume(&path, 2, 0xF00D) {
            Err(CampaignError::Corrupt { reason, .. }) => {
                assert!(reason.contains("static"), "got: {reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn any_flipped_bit_invalidates_the_record() {
        let record = JournalRecord::Completed {
            job: 1,
            attempt: 1,
            result: result(5),
        };
        let clean = record.encode();
        for byte in [0, 4, 5, 8, 12, 30, CHECKSUM_AT, RECORD_LEN - 1] {
            let mut corrupt = clean;
            corrupt[byte] ^= 0x10;
            assert_eq!(
                JournalRecord::decode(&corrupt),
                None,
                "flip at byte {byte} must be caught"
            );
        }
    }
}
