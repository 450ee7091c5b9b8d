//! The worker pool: shared-cursor claiming over one set of workers.
//!
//! The pool is a *pull* design. Callers hand [`run_pool`] a producer
//! closure; each worker repeatedly asks it for the next [`Task`] and runs
//! whatever it gets. That one loop serves every fan-out shape in the
//! workspace:
//!
//! * **batch fan-outs** (per-fault sweeps, Table 1 power sessions) expose an
//!   atomic cursor over a precomputed chunk list — whichever worker frees
//!   up first claims (steals) the next chunk, so uneven chunks balance
//!   themselves; [`map_chunks`] packages this shape, including the
//!   order-preserving write-once output slots;
//! * **open-ended producers** (the campaign attempt engine) block inside
//!   the producer — on their own condvar — while nothing is runnable
//!   yet, and hand out attempts that earlier attempts re-enqueued.
//!
//! Workers never coordinate beyond the producer closure, and results
//! travel through what the tasks captured, so the pool stays free of
//! result types, `unsafe`, and locks of its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use crate::item::Task;

fn drain<'a>(worker: usize, next: &(impl Fn(usize) -> Option<Task<'a>> + Sync)) {
    while let Some(task) = next(worker) {
        task.run();
    }
}

/// Runs up to `threads` workers over a producer until every worker has
/// been answered `None`.
///
/// `next` is called with the asking worker's index (`0..workers`); it must be safe to call
/// concurrently from all workers — an atomic cursor or an internal lock
/// is the producer's business. `None` retires the asking worker, so a
/// producer that has nothing runnable *yet* must wait inside `next`
/// rather than answer `None`.
///
/// With one thread no worker threads are spawned: the current thread
/// drains the producer directly, so single-threaded runs stay
/// deterministic and stack traces stay flat.
///
/// # Panics
///
/// Panics if a worker panics (the scope propagates it). Producers that
/// must survive task panics catch them inside the task's closure, as the
/// campaign engine does.
pub fn run_pool<'a, F>(threads: usize, next: F)
where
    F: Fn(usize) -> Option<Task<'a>> + Sync,
{
    let workers = threads.max(1);
    if workers == 1 {
        drain(0, &next);
    } else {
        thread::scope(|scope| {
            for worker in 0..workers {
                let next = &next;
                scope.spawn(move || drain(worker, next));
            }
        });
    }
}

/// Fans contiguous chunks of `items` across the pool and concatenates the
/// per-chunk outputs **in input order**.
///
/// The items are split into up to `chunk_count` contiguous chunks; an
/// atomic cursor hands chunks to whichever worker frees up first, and
/// each chunk's output is published into its own write-once slot
/// ([`OnceLock`]), so the concatenation order is the chunk order whatever
/// the claiming order was. Passing more chunks than workers is the
/// load-balancing lever: workers that draw cheap chunks claim more.
///
/// With one item, one worker, or an empty input the call degenerates to
/// `map_chunk(items)` on the current thread.
///
/// # Examples
///
/// ```
/// use sched::map_chunks;
///
/// let items: Vec<u32> = (0..100).collect();
/// let doubled = map_chunks(&items, 4, 16, |chunk| {
///     chunk.iter().map(|&x| u64::from(x) * 2).collect()
/// });
/// assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
/// ```
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, chunk_count: usize, map_chunk: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers <= 1 {
        return map_chunk(items);
    }
    let chunk_count = chunk_count.clamp(1, items.len());
    let chunk_size = items.len().div_ceil(chunk_count);
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Vec<R>>> = chunks.iter().map(|_| OnceLock::new()).collect();
    let map_chunk = &map_chunk;
    let slots_ref = &slots;
    run_pool(workers, |_| {
        let claim = cursor.fetch_add(1, Ordering::Relaxed);
        let &chunk = chunks.get(claim)?;
        Some(Task::new(move || {
            let out = map_chunk(chunk);
            slots_ref[claim]
                .set(out)
                .unwrap_or_else(|_| unreachable!("chunk claimed twice"));
        }))
    });
    let mut results = Vec::with_capacity(items.len());
    for slot in slots {
        results.extend(slot.into_inner().expect("claimed chunks publish results"));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_preserves_input_order_for_any_worker_count() {
        let items: Vec<u32> = (0..517).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let out = map_chunks(&items, threads, threads * 8, |c| {
                c.iter().map(|&x| u64::from(x) * 3).collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = map_chunks(&[] as &[u8], 8, 64, |c| c.to_vec());
        assert!(empty.is_empty());
        let one = map_chunks(&[7u8], 8, 64, |c| c.to_vec());
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn map_chunks_concatenates_variable_length_outputs_in_input_order() {
        let items: Vec<u32> = (0..211).map(|i| i % 13).collect();
        let expected: Vec<u32> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = map_chunks(&items, threads, threads * 8, |c| {
                c.iter()
                    .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
                    .collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn single_threaded_pool_runs_on_the_current_thread() {
        let caller = thread::current().id();
        let produced = AtomicUsize::new(0);
        run_pool(1, |_| {
            (produced.fetch_add(1, Ordering::Relaxed) == 0)
                .then(|| Task::new(move || assert_eq!(thread::current().id(), caller)))
        });
    }
}
