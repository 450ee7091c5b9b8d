//! The unit of work.
//!
//! Everything the workspace fans out — fault-sweep cohort chunks, Table 1
//! power sessions, campaign job attempts — reaches the pool as a
//! [`Task`]. The pool never looks inside: it runs every task with the
//! claiming worker's [`WorkerScratch`].

use crate::scratch::WorkerScratch;

/// One closure's worth of work.
///
/// The closure receives the executing worker's scratch and returns
/// nothing — results travel through whatever the closure captured
/// (write-once output slots, shared result maps), which is what keeps the
/// pool ignorant of result types and the fan-outs order-preserving.
///
/// # Examples
///
/// ```
/// use sched::{Task, WorkerScratch};
///
/// let mut total = 0u32;
/// let task = Task::new(|_scratch: &mut WorkerScratch| total += 42);
/// task.run(&mut WorkerScratch::new());
/// assert_eq!(total, 42);
/// ```
pub struct Task<'a> {
    run: Box<dyn FnOnce(&mut WorkerScratch) + Send + 'a>,
}

impl<'a> Task<'a> {
    /// Wraps a closure as a task.
    pub fn new(run: impl FnOnce(&mut WorkerScratch) + Send + 'a) -> Self {
        Self { run: Box::new(run) }
    }

    /// Consumes the task, running its closure with `scratch`.
    pub fn run(self, scratch: &mut WorkerScratch) {
        (self.run)(scratch);
    }
}

impl std::fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Task")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_hands_the_worker_scratch_to_the_closure() {
        let mut scratch = WorkerScratch::new();
        scratch.get_or_insert_with(|| 5u64);
        let task = Task::new(|scratch: &mut WorkerScratch| {
            *scratch.get_or_insert_with(|| 0u64) += 1;
        });
        task.run(&mut scratch);
        assert_eq!(scratch.get_mut::<u64>(), Some(&mut 6));
    }
}
