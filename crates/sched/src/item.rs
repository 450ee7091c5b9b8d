//! The unit of work.
//!
//! Everything the workspace fans out — per-fault sweep chunks, Table 1
//! power sessions, campaign job attempts — reaches the pool as a
//! [`Task`]. The pool never looks inside: it runs every task on the
//! worker that claimed it.

/// One closure's worth of work.
///
/// The closure takes nothing and returns nothing — results travel
/// through whatever it captured (write-once output slots, shared result
/// maps), which is what keeps the pool ignorant of result types and the
/// fan-outs order-preserving.
///
/// # Examples
///
/// ```
/// use sched::Task;
///
/// let mut total = 0u32;
/// let task = Task::new(|| total += 42);
/// task.run();
/// assert_eq!(total, 42);
/// ```
pub struct Task<'a> {
    run: Box<dyn FnOnce() + Send + 'a>,
}

impl<'a> Task<'a> {
    /// Wraps a closure as a task.
    pub fn new(run: impl FnOnce() + Send + 'a) -> Self {
        Self { run: Box::new(run) }
    }

    /// Consumes the task, running its closure.
    pub fn run(self) {
        (self.run)();
    }
}

impl std::fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Task")
    }
}
