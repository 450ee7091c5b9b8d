//! A collapsed sweep's allocations do not grow with its fault count: a
//! fault list is a `Vec` of `Copy` values, classifying one reads the
//! values, and the report keeps them instead of naming them. Only the
//! classes, the walk and a few per-sweep buffers allocate, so a list of
//! 100,000 faults costs the same number of heap blocks as a list of
//! 1,000 with the same classes. A per-fault instance or name would add
//! 99,000 blocks and fail here.
//!
//! The test binary counts the heap blocks each thread allocates, so the
//! measurement sees only the serial sweep on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use march_test::address_order::WordLineAfterWordLine;
use march_test::batch::FaultBatch;
use march_test::coverage::{evaluate_coverage_interned_on_walk, SweepOptions};
use march_test::executor::MarchWalk;
use march_test::faultgen::FaultGen;
use march_test::faults::FaultModel;
use march_test::intern::InternedSweep;
use march_test::library;
use sram_model::config::ArrayOrganization;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
}

/// The system allocator, counting the blocks each thread allocates.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the count is a `const`
// thread-local `Cell`, which needs no allocation and no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The serial collapsed sweep of `faults` and the heap blocks it
/// allocated.
fn sweep_with_blocks(walk: &MarchWalk, faults: &[FaultModel]) -> (InternedSweep, usize) {
    let options = SweepOptions {
        parallel: false,
        ..SweepOptions::fast()
    };
    let before = BLOCKS.with(Cell::get);
    let sweep = evaluate_coverage_interned_on_walk(walk, faults, options);
    (sweep, BLOCKS.with(Cell::get) - before)
}

#[test]
fn a_collapsed_sweep_allocates_the_same_blocks_for_a_hundred_times_the_faults() {
    let organization = ArrayOrganization::new(256, 256).unwrap();
    let walk = MarchWalk::new(&library::march_ss(), &WordLineAfterWordLine, &organization);
    let small = FaultGen::new(organization, 0x5EED).dense_profile(1_000);
    // The same faults a hundred times over: the same classes, so any
    // difference in blocks is a per-fault allocation.
    let large: Vec<FaultModel> = small
        .iter()
        .copied()
        .cycle()
        .take(100 * small.len())
        .collect();
    let classes = FaultBatch::plan(&walk, &small).cohorts().len();
    assert_eq!(FaultBatch::plan(&walk, &large).cohorts().len(), classes);

    let (small_sweep, small_blocks) = sweep_with_blocks(&walk, &small);
    let (large_sweep, large_blocks) = sweep_with_blocks(&walk, &large);
    assert_eq!(small_sweep.total(), small.len());
    assert_eq!(large_sweep.total(), 100 * small.len());
    assert_eq!(large_sweep.detected(), 100 * small_sweep.detected());
    assert_eq!(
        small_blocks,
        large_blocks,
        "{} faults allocated {small_blocks} blocks, {} faults {large_blocks}",
        small.len(),
        large.len()
    );
    // A few blocks per class and per sweep: nowhere near one per fault.
    assert!(
        large_blocks <= 64 + 8 * classes,
        "{large_blocks} blocks for {classes} classes"
    );
}
