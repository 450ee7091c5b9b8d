//! One worker pool for every run type in the workspace.
//!
//! The fault-simulation engine, the Table 1 power reproduction and the
//! crash-safe campaign layer used to fan work out through three separate
//! ad-hoc mechanisms. This crate replaces them with a single batch
//! scheduler built from two pieces:
//!
//! * [`Task`] — the unit of work: one boxed closure, whatever it
//!   computes;
//! * [`run_pool`] / [`map_chunks`] — the pool itself: workers pull tasks
//!   off a shared cursor (batch fan-outs) or an open-ended producer
//!   (the campaign attempt engine, which parks idle workers on its own
//!   condvar).
//!
//! The crate is dependency-free and sits at the bottom of the workspace
//! graph: `march-test` builds its order-preserving sweep primitives on
//! [`map_chunks`], `lp-precharge` fans Table 1 power sessions through the
//! same pool, and `campaign` drives its journaled attempts through
//! [`run_pool`]. See `docs/ARCHITECTURE.md` at the repository root for
//! the full data-flow picture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod item;
mod pool;

pub use item::Task;
pub use pool::{map_chunks, run_pool};
