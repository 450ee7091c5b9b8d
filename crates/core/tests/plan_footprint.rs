//! The schedule plan's heap footprint: a plan is computed from the walk
//! position, so building one holds the same heap bytes at 8×8 as at
//! 1024×1024. Per-position arrays would grow with the cell count and fail
//! here.
//!
//! The test binary counts the heap bytes each thread holds, so the
//! measurement sees only the plan built on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lp_precharge::scheduler::{LpOptions, SchedulePlan};
use sram_model::config::ArrayOrganization;

thread_local! {
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = HELD.try_with(|held| held.set(held.get() + delta));
}

/// The system allocator, counting the bytes held per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the count is a `const`
// thread-local `Cell`, which needs no allocation and no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The plan of a `size`×`size` array and the heap bytes it holds.
fn plan_with_footprint(size: u32) -> (SchedulePlan, isize) {
    let organization = ArrayOrganization::new(size, size).unwrap();
    let before = HELD.with(Cell::get);
    let plan = SchedulePlan::new(organization, LpOptions::default());
    (plan, HELD.with(Cell::get) - before)
}

#[test]
fn a_plan_holds_the_same_heap_bytes_at_every_size() {
    let (small, small_bytes) = plan_with_footprint(8);
    let (large, large_bytes) = plan_with_footprint(1024);
    assert_eq!(small.len(), 64);
    assert_eq!(large.len(), 1 << 20);
    assert_eq!(
        small_bytes, large_bytes,
        "the 8x8 plan holds {small_bytes} heap bytes, the 1024x1024 plan {large_bytes}"
    );
}
