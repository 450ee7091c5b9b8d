//! Deterministic fork-join parallelism for fault sweeps.
//!
//! The build environment cannot fetch `rayon`, so the parallel coverage
//! and degree-of-freedom sweeps use the workspace's [`sched`] worker pool
//! through one order-preserving wrapper, [`par_chunk_map`]. It keeps the
//! property that makes `rayon`'s ordered collects safe to use in
//! experiments: **the output order is the input order**, regardless of
//! how the work was scheduled, so parallel sweeps produce byte-identical
//! reports to serial ones.
//!
//! The fan-out reaches the pool as [`sched::WorkKind::FaultSweep`] work
//! items; each pool worker owns a [`WorkerScratch`] for its whole
//! lifetime, which the chunk closure receives so the lane-batched hot
//! path can reuse its dispatch buffers across chunks instead of
//! reallocating per cohort.

use std::num::NonZeroUsize;
use std::thread;

use sched::WorkKind;
pub use sched::WorkerScratch;

/// Number of worker threads a sweep may use: the machine's available
/// parallelism, or `1` when it cannot be queried.
pub fn max_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Chunk oversubscription factor of [`par_chunk_map`]: the item list is
/// split into up to this many chunks per worker, so workers that draw
/// cheap chunks claim (steal) more instead of idling.
const CHUNKS_PER_WORKER: usize = 8;

/// Maps contiguous chunks of `items` across up to `threads` pool workers
/// and concatenates the per-chunk outputs **in input order**.
///
/// Each chunk may produce any number of outputs. The items are split
/// into more chunks than workers and the pool's shared cursor hands
/// chunks to whichever worker frees up first, so uneven work balances
/// itself: generated fault populations produce cohorts of very uneven
/// cost (64-lane cohorts that early-exit at different depths,
/// interleaved with serial singletons), and a static one-chunk-per-worker
/// split could leave most workers idle behind one expensive chunk.
/// Per-chunk outputs land in indexed write-once slots and concatenate in
/// chunk order, whatever the claiming order was.
///
/// `map_chunk` also receives the claiming worker's [`WorkerScratch`]:
/// the lane-batched sweep keeps its dispatch buffers there, so
/// consecutive chunks on one worker reuse the allocations. With one
/// item, one worker, or an empty input the call degenerates to
/// `map_chunk(items, scratch)` on the current thread.
///
/// # Examples
///
/// ```
/// use march_test::parallel::par_chunk_map;
///
/// let items: Vec<u32> = (0..100).collect();
/// let doubled = par_chunk_map(&items, 4, |chunk, _scratch| {
///     chunk.iter().map(|&x| u64::from(x) * 2).collect()
/// });
/// assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
/// ```
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated by the pool).
pub fn par_chunk_map<T, R, F>(items: &[T], threads: usize, map_chunk: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&[T], &mut WorkerScratch) -> Vec<R> + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    let chunk_count = (workers * CHUNKS_PER_WORKER).min(items.len().max(1));
    sched::map_chunks(WorkKind::FaultSweep, items, workers, chunk_count, map_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let out = par_chunk_map(&items, threads, |chunk, _| {
                chunk.iter().map(|&x| u64::from(x) * 3).collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = par_chunk_map(&[] as &[u8], 8, |chunk, _| chunk.to_vec());
        assert!(out.is_empty());
    }

    #[test]
    fn max_threads_is_at_least_one() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn uneven_outputs_concatenate_in_input_order_under_any_thread_count() {
        // Items of wildly different cost (cohort-like expansion) must
        // still concatenate in input order regardless of which worker
        // claimed which chunk.
        let items: Vec<u32> = (0..517).map(|i| i % 97).collect();
        let expected: Vec<u32> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
            .collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let out = par_chunk_map(&items, threads, |chunk, _| {
                chunk
                    .iter()
                    .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
                    .collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn tiny_inputs_run_as_one_chunk() {
        let one = par_chunk_map(&[7u8], 8, |chunk, _| chunk.to_vec());
        assert_eq!(one, vec![7]);
        let chunks = par_chunk_map(&[1u8, 2], 1, |chunk, _| vec![chunk.len()]);
        assert_eq!(chunks, vec![2], "one worker maps the whole slice at once");
    }

    #[test]
    fn concatenates_variable_length_outputs_in_input_order() {
        // Each item expands to `item` copies of itself, like a cohort
        // expanding to one outcome per member fault.
        let items: Vec<u32> = vec![3, 0, 1, 4, 2];
        let expected: Vec<u32> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, x as usize))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_chunk_map(&items, threads, |chunk, _| {
                chunk
                    .iter()
                    .flat_map(|&x| std::iter::repeat_n(x, x as usize))
                    .collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn worker_scratch_is_reused_across_chunks() {
        // With one worker every chunk lands on the same scratch, so an
        // allocation made by the first chunk is visible to all of them.
        let items: Vec<u32> = (0..64).collect();
        let out = par_chunk_map(&items, 1, |chunk, scratch| {
            let buffer: &mut Vec<u32> = scratch.get_or_insert_with(Vec::new);
            buffer.extend_from_slice(chunk);
            vec![buffer.len() as u32]
        });
        // One worker degenerates to a single whole-slice chunk.
        assert_eq!(out, vec![64]);
    }
}
