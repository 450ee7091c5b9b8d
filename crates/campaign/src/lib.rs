//! Crash-safe campaign runner for March fault-simulation sweeps.
//!
//! The ROADMAP's "millions of devices" story needs sweeps that run for
//! hours across processes and machines — which is only useful if the
//! layer *survives*: worker panics, SIGKILL mid-run, torn journal writes,
//! corrupted tail records. This crate is that layer, built
//! robustness-first on top of the `march-test` kernel:
//!
//! * [`spec`] — campaign plans: ordered job lists
//!   (`organization × seed × algorithm × order × background × backend ×
//!   population`), digest-pinned so a resumed journal can prove it
//!   belongs to the plan being run, validated up-front so a typo fails in
//!   milliseconds instead of poisoning jobs one retry at a time.
//! * [`shard`] — round-robin shard planning: `index/count` splits one
//!   plan across independent processes, each with its own journal and
//!   partial export; [`output::merge_exports`] recombines them.
//! * [`runner`] — the fixed-plan front end of the crate's one attempt
//!   engine: every job attempt runs panic-isolated on the `sched` pool,
//!   failures are journaled and retried with bounded backoff, jobs that
//!   exhaust their attempts are quarantined as *poison* with the panic
//!   payload recorded, and idle workers park instead of polling.
//! * [`journal`] — the append-only binary journal: fixed-width 64-byte
//!   records, per-record FNV-1a checksum, no serde (the build is
//!   offline). Resume replays the journal, truncates any torn or corrupt
//!   tail, skips completed jobs and re-dispatches the rest.
//! * [`output`] — deterministic exports: per-job results sorted by plan
//!   index with a whole-file digest, byte-identical across thread counts
//!   and interrupt/resume cycles.
//! * [`faultpoint`] — the deterministic fault-injection harness that
//!   *proves* the above: worker kills, fault-model panics inside the
//!   caught sweep, torn journal writes, flipped bytes and
//!   abort-after-N-records, each at exact (job, attempt) or record
//!   coordinates. The integration tests interrupt a campaign at every
//!   injection point, resume it, and require the export to match the
//!   uninterrupted run byte for byte.
//!
//! On top of the fixed-plan runner sits the long-running service half
//! (ROADMAP item 5's "serves heavy traffic"):
//!
//! * [`spool`] — the atomic tmp+rename job-intake drop directory, with
//!   explicit per-submission responses (accepted / duplicate /
//!   queue-full / rejected) so overload sheds visibly instead of growing
//!   an unbounded queue.
//! * [`trace`] — recorded arrival traces and their open-loop replay, the
//!   overload harness.
//! * [`daemon`] — the dynamic front end of the same engine: journal v2
//!   dynamic-plan appends, bounded admission on its own intake thread,
//!   per-job deadlines that journal a `timed-out` fate, SIGTERM graceful
//!   drain, SIGKILL crash-resume.
//!
//! The `campaign_run`, `campaign_daemon` and `campaign_supervisor`
//! binaries drive all of this from the command line, sharing one flag
//! scanner ([`cli`]); see `crates/campaign/README.md` for the journal
//! wire format, resume semantics and the poison-quarantine policy.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod daemon;
mod engine;
pub mod error;
pub mod faultpoint;
pub mod heartbeat;
pub mod journal;
pub mod output;
pub mod runner;
pub mod shard;
pub mod spec;
pub mod spool;
pub mod supervise;
pub mod trace;

pub use daemon::{run_daemon, DaemonOptions, DaemonSummary};
pub use error::CampaignError;
pub use faultpoint::{FaultInjector, Injection, ProcessInjection, ProcessInjector};
pub use heartbeat::{read_heartbeat, HeartbeatSnapshot, HeartbeatWriter};
pub use journal::{JobResult, JobWire, Journal, JournalRecord, Replay};
pub use output::{
    merge_exports, merge_shard_exports, merge_shard_exports_partial, Export, JobOutcome, JobStatus,
    PartialMerge, ShardExport,
};
pub use runner::{run_campaign, run_job, CampaignOptions, CampaignSummary};
pub use shard::Shard;
pub use spec::{CampaignPlan, JobSpec, PopulationSpec};
pub use spool::{SpoolDir, SpoolResponse, Submission};
pub use supervise::{supervise, ShardCommand, ShardFate, SupervisorOptions, SupervisorReport};
pub use trace::{load_trace, parse_trace, replay_trace, replay_trace_injected, TraceEvent};
