//! Pinned history of each wait class.
//!
//! Each test stimulates exactly one wait class — barrier, write-ack,
//! prefetch pop, BLT completion — plus one mixed workload, and asserts
//! that PE 0's final clock and the FNV fingerprint of every node's first
//! megabyte equal checked-in constants. A timing-model change to any
//! wait moves a pin.

use t3d_machine::{Machine, MachineConfig, PerfMode};
use t3d_shell::blt::BltDirection;
use t3d_shell::{AnnexEntry, FuncCode};

/// Node memory for the micro machines: traffic stays in the first
/// megabyte, checksummed below.
const NODE_MEM: usize = 2 << 20;
const SNAP_BYTES: u64 = 1 << 20;

fn aim(m: &mut Machine, pe: usize, target: u32) -> u64 {
    m.annex_set(
        pe,
        1,
        AnnexEntry {
            pe: target,
            func: FuncCode::Uncached,
        },
    );
    m.va(1, 0)
}

/// Runs `workload` on a fresh profiled machine and returns the
/// `(clock-of-PE0, fnv)` pair the pins record.
fn pinned(pes: u32, workload: impl Fn(&mut Machine)) -> (u64, u64) {
    let mut m = Machine::new(MachineConfig::t3d_with_mem(pes, NODE_MEM));
    m.set_perf_mode(PerfMode::Counters);
    workload(&mut m);
    (m.clock(0), m.snapshot_region(0, SNAP_BYTES).fnv64())
}

#[test]
fn barrier_only_holds_its_pin() {
    let got = pinned(4, |m| {
        for round in 0..8u64 {
            for pe in 0..4usize {
                m.advance(pe, 50 + (pe as u64) * 37 + round * 11);
            }
            m.barrier_all();
        }
    });
    assert_eq!(got, PIN_BARRIER, "pinned history changed");
}

#[test]
fn ack_only_holds_its_pin() {
    let got = pinned(2, |m| {
        let base = aim(m, 0, 1);
        for i in 0..16u64 {
            m.st8(0, base + i * 64, i);
        }
        m.memory_barrier(0);
        m.wait_write_acks(0);
    });
    assert_eq!(got, PIN_ACK, "pinned history changed");
}

#[test]
fn prefetch_only_holds_its_pin() {
    let got = pinned(2, |m| {
        let base = aim(m, 0, 1);
        for g in 0..4u64 {
            for i in 0..4u64 {
                assert!(m.fetch(0, base + (g * 4 + i) * 64), "queue full");
            }
            m.memory_barrier(0);
            for _ in 0..4 {
                m.pop_prefetch(0).expect("fetched values must pop");
            }
        }
    });
    assert_eq!(got, PIN_PREFETCH, "pinned history changed");
}

#[test]
fn blt_only_holds_its_pin() {
    let got = pinned(2, |m| {
        for i in 0..64u64 {
            m.poke_mem(0, 0x8000 + i * 8, &i.to_le_bytes());
        }
        let h = m.blt_start(0, BltDirection::Write, 0x8000, 1, 0x8000, 512);
        m.blt_wait(0, h);
    });
    assert_eq!(got, PIN_BLT, "pinned history changed");
}

#[test]
fn mixed_workload_holds_its_pin() {
    let got = pinned(4, |m| {
        let base = aim(m, 0, 1);
        // Pipelined puts + fence + ack wait...
        for i in 0..8u64 {
            m.st8(0, base + i * 64, i);
        }
        m.memory_barrier(0);
        m.wait_write_acks(0);
        // ...a prefetch group...
        for i in 0..4u64 {
            assert!(m.fetch(0, base + 0x1000 + i * 64), "queue full");
        }
        m.memory_barrier(0);
        for _ in 0..4 {
            m.pop_prefetch(0).expect("fetched values must pop");
        }
        // ...a BLT to another node...
        let h = m.blt_start(0, BltDirection::Write, 0x4000, 2, 0x4000, 256);
        m.blt_wait(0, h);
        // ...and two skewed barriers.
        for pe in 0..4usize {
            m.advance(pe, 100 + pe as u64 * 53);
        }
        m.barrier_all();
        m.barrier_all();
    });
    assert_eq!(got, PIN_MIXED, "pinned history changed");
}

// Pinned (clock-of-PE0, FNV-of-first-MB) histories. The assertion
// failure message prints the fresh pair; update these constants only
// when the timing model changes on purpose.
const PIN_BARRIER: (u64, u64) = (2108, 4812219015355261989);
const PIN_ACK: (u64, u64) = (476, 8463033929407022817);
const PIN_PREFETCH: (u64, u64) = (813, 16839572663591385416);
const PIN_BLT: (u64, u64) = (28024, 3489526102737805157);
const PIN_MIXED: (u64, u64) = (28269, 9544468633610242897);
