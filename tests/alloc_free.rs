//! The per-op hot path allocates nothing.
//!
//! A counting global allocator tallies heap allocations (fresh blocks
//! and reallocations) made by the current thread. After a warm-up pass
//! has grown every reusable buffer to its steady-state size, a second
//! identical pass of each op kind must allocate nothing at all through
//! the direct [`Machine`] API, and a sharded phase may allocate only for
//! its phase-start snapshot and its copy-on-write overlays: the effect
//! logs and merge keys keep their capacity from the previous phase.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use t3d_machine::{Machine, MachineConfig, PerfMode, PhaseDriver};
use t3d_shell::{AnnexEntry, FuncCode};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One op of the measured kind, given the pass index `i`.
type Op = fn(&mut Machine, u64);

/// Ops per kind in the measured pass.
const OPS: u64 = 1000;

/// Runs `op(m, i)` for `i in 0..OPS` once to warm up, clears the
/// targets' arrival logs (as a `storeSync` consumer would), then runs
/// the same ops again and returns the allocations of the second pass.
fn steady(m: &mut Machine, mut op: impl FnMut(&mut Machine, u64)) -> u64 {
    for i in 0..OPS {
        op(m, i);
    }
    for pe in 0..m.nodes() {
        m.clear_incoming(pe);
    }
    let before = allocs();
    for i in 0..OPS {
        op(m, i);
    }
    allocs() - before
}

/// An 8-PE machine with shell and link contention on. Annex register 1
/// of PE 0 names PE 5 (three hops away on the 2×2×2 torus) with cached
/// loads; register 2 names it with uncached loads and stores.
fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::t3d_link_contended(8));
    m.set_perf_mode(PerfMode::Off);
    let cached = AnnexEntry {
        pe: 5,
        func: FuncCode::Cached,
    };
    let uncached = AnnexEntry {
        pe: 5,
        func: FuncCode::Uncached,
    };
    m.annex_set(0, 1, cached);
    m.annex_set(0, 2, uncached);
    m
}

/// Line stride over a 64 KB region: every access lands on a line the
/// 8 KB direct-mapped L1 has evicted since its last visit.
fn sweep(i: u64) -> u64 {
    0x10_000 + (i * 32) % 0x10_000
}

#[test]
fn direct_api_ops_allocate_nothing_in_steady_state() {
    let mut failures = Vec::new();
    let mut m = machine();
    let cases: [(&str, Op); 8] = [
        ("local load hit", |m, _| {
            m.ld8(0, 0x100);
        }),
        ("local load miss", |m, i| {
            m.ld8(0, sweep(i));
        }),
        ("local store", |m, i| m.st8(0, sweep(i), i)),
        ("cached remote load", |m, i| {
            let va = m.va(1, sweep(i));
            m.ld8(0, va);
        }),
        ("uncached remote load", |m, i| {
            let va = m.va(2, sweep(i));
            m.ld8(0, va);
        }),
        ("remote stores, fenced every 8", |m, i| {
            let va = m.va(2, sweep(i));
            m.st8(0, va, i);
            if i % 8 == 7 {
                m.memory_barrier(0);
                m.wait_write_acks(0);
            }
        }),
        ("acked remote store", |m, i| {
            let va = m.va(2, sweep(i));
            m.st8(0, va, i);
            m.memory_barrier(0);
            m.wait_write_acks(0);
        }),
        ("fetch_inc", |m, _| {
            m.fetch_inc(0, 5, 0);
        }),
    ];
    for (name, op) in cases {
        let n = steady(&mut m, op);
        if n > 0 {
            failures.push(format!("{name}: {n} allocations in {OPS} ops"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn sharded_phase_allocates_only_for_snapshot_and_overlays() {
    const PES: usize = 64;
    let mut m = Machine::new(MachineConfig::t3d_link_contended(PES as u32));
    m.set_perf_mode(PerfMode::Off);
    for pe in 0..PES {
        let right = AnnexEntry {
            pe: ((pe + 1) % PES) as u32,
            func: FuncCode::Uncached,
        };
        m.annex_set(pe, 1, right);
    }
    let phase = |m: &mut Machine| {
        m.sharded_phase(PhaseDriver::Seq, |cpu| {
            for i in 0..OPS {
                let va = cpu.va(1, sweep(i));
                cpu.st8(va, i);
            }
            cpu.memory_barrier();
            cpu.wait_write_acks();
        });
        m.barrier_all();
        for pe in 0..PES {
            m.clear_incoming(pe);
        }
    };
    phase(&mut m);
    let before = allocs();
    phase(&mut m);
    let n = allocs() - before;
    // Per PE: one DRAM clone in the phase-start snapshot, then the
    // shard's first touches of its overlays (DRAM, shell and link
    // tables plus the DRAM entry's copy), with room for one table
    // growth. A few more for the snapshot's phase-wide arrays. This
    // measured 325; growing effect logs anew each phase measured 909.
    assert!(
        n <= 6 * PES as u64 + 16,
        "{n} allocations for {} remote stores on {PES} PEs",
        OPS * PES as u64
    );
}
