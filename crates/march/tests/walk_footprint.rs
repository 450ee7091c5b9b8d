//! The March walk's heap footprint: the address permutation and its
//! inverse, eight bytes per cell, plus a few bytes per element — whatever
//! the test's length. A per-step array would grow with the operation count
//! and fail here.
//!
//! The test binary counts the heap bytes each thread holds, so the
//! measurement sees only the walk built on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use march_test::address_order::WordLineAfterWordLine;
use march_test::algorithm::MarchTest;
use march_test::executor::MarchWalk;
use march_test::library;
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

/// The walk of `test` and the heap bytes it holds.
fn walk_with_footprint(test: &MarchTest, organization: &ArrayOrganization) -> (MarchWalk, isize) {
    let before = HELD.with(Cell::get);
    let walk = MarchWalk::new(test, &WordLineAfterWordLine, organization);
    (walk, HELD.with(Cell::get) - before)
}

#[test]
fn a_walk_holds_eight_bytes_per_cell_whatever_the_test_length() {
    let organization = ArrayOrganization::new(256, 256).unwrap();
    let cells = organization.capacity() as isize;
    // Names, element rows and the element table: well under a kilobyte.
    let per_test = 1024;
    let (long, long_bytes) = walk_with_footprint(&library::march_g(), &organization);
    let (short, short_bytes) = walk_with_footprint(&library::mats_plus(), &organization);
    assert!(long.len() > 4 * short.len(), "March G is the longer walk");
    for (walk, bytes) in [(&long, long_bytes), (&short, short_bytes)] {
        assert!(
            (8 * cells..=8 * cells + per_test).contains(&bytes),
            "the {} walk holds {bytes} heap bytes for {cells} cells",
            walk.test_name()
        );
    }
    assert!(
        (long_bytes - short_bytes).abs() <= per_test,
        "March G holds {long_bytes} bytes, MATS+ {short_bytes}"
    );
}
