//! The simulator's steady state does not allocate per packet.
//!
//! The packet arena recycles slots through a free list, the calendar
//! queue reuses its buckets, and the fluid window reuses one scratch
//! deque (DESIGN.md §16), so once a run has warmed up the heap should
//! see only the rare growth of those structures. This binary installs a
//! counting global allocator that tallies the calling thread's
//! allocations, warms the seed-7 single-hop scenario up for 2 s, and
//! requires the next 20 s of simulated time (~41 k packets) to allocate
//! fewer than once per thousand packets, both through the fluid window
//! and on the per-event reference path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use abw_core::scenario::{Scenario, SingleHopConfig};
use abw_netsim::SimTime;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to [`System`], counting allocations and reallocations per
/// thread, so tests running in parallel do not see each other's.
struct CountedSystem;

// SAFETY: every call is forwarded verbatim to `System`; the count has
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountedSystem {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountedSystem = CountedSystem;

/// Warms the micro-loop up for 2 s, then requires the next 20 s to
/// allocate less than once per thousand packets.
fn assert_rare_allocation(fluid: bool) {
    let mut s = Scenario::single_hop(&SingleHopConfig {
        seed: 7,
        ..SingleHopConfig::default()
    });
    s.sim.set_fluid(fluid);
    s.sim.run_until(SimTime::from_nanos(2_000_000_000));
    let packets_before = s.sim.counters().injected;
    let allocs_before = ALLOCS.with(Cell::get);
    s.sim.run_until(SimTime::from_nanos(22_000_000_000));
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let packets = s.sim.counters().injected - packets_before;
    assert!(packets > 30_000, "the workload shrank: {packets} packets");
    assert!(
        allocs < packets / 1000,
        "fluid={fluid}: {allocs} heap allocations over {packets} packets"
    );
}

#[test]
fn fluid_window_steady_state_allocates_rarely() {
    assert_rare_allocation(true);
}

#[test]
fn reference_path_steady_state_allocates_rarely() {
    assert_rare_allocation(false);
}
