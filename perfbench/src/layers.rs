//! Per-layer probes of the traced run: host time of single calls into
//! each layer's public functions, at the workload's machine size where
//! the layer's cost depends on it. Every probe is a median of repeats.

use crate::spans::Spans;
use crate::stats::median_of;
use crate::workloads::{family, op_total, DRIVER};
use em3d::{Em3dGraph, Em3dParams, Version};
use splitc::SplitC;
use std::hint::black_box;
use std::time::Instant;
use t3d_machine::{Machine, MachineConfig, PhaseDriver};
use t3d_sched::{
    run_trace, ExecEnv, GenParams, Kernel, KernelCache, PartitionAllocator, SimParams, StencilComm,
    Trace,
};
use t3d_shell::blt::BltDirection;
use t3d_shell::{AnnexEntry, FuncCode};

/// An ordered list of `(name, value, unit)` metrics.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Times `f` `reps` times inside spans named `name`; returns the median
/// in milliseconds.
fn median_ms(sp: &mut Spans, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        sp.open(name);
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64() * 1e3);
        sp.close();
    }
    median_of(&v)
}

/// Repeats for a probe whose single call costs about `ms_each`: enough
/// to fill ~0.3 s, between 3 and 31.
fn reps_for(ms_each: f64) -> usize {
    ((300.0 / ms_each.max(1e-3)) as usize).clamp(3, 31)
}

/// The direct machine operations timed per op on an 8-PE machine.
pub const OPS: [&str; 9] = [
    "ld_local_hit",
    "ld_local_dram",
    "st_local",
    "ld_remote",
    "st_remote_acked",
    "fetch_pop",
    "fetch_inc",
    "blt_8k",
    "msg_roundtrip",
];

/// Runs `k` iterations of direct operation `op` from PE 0.
pub fn op_loop(m: &mut Machine, op: &str, k: u64) {
    let uncached = |pe| AnnexEntry {
        pe,
        func: FuncCode::Uncached,
    };
    m.annex_set(0, 1, uncached(1));
    m.annex_set(0, 2, uncached(2));
    for i in 0..k {
        match op {
            "ld_local_hit" => {
                black_box(m.ld8(0, 0x1000));
            }
            // A prime line stride over 2 MB: every access misses L1.
            "ld_local_dram" => {
                black_box(m.ld8(0, ((i * 8200) % (2 << 20)) & !7));
            }
            "st_local" => m.st8(0, (i * 8) % (64 << 10), i),
            "ld_remote" => {
                let va = m.va(1, (i * 8) % (64 << 10));
                black_box(m.ld8(0, va));
            }
            "st_remote_acked" => {
                let va = m.va(2, (i * 8) % (64 << 10));
                m.st8(0, va, i);
                m.memory_barrier(0);
                m.wait_write_acks(0);
            }
            "fetch_pop" => {
                let va = m.va(1, (i * 8) % (64 << 10));
                assert!(m.fetch(0, va), "one outstanding prefetch fits the queue");
                m.memory_barrier(0);
                black_box(m.pop_prefetch(0).expect("fenced prefetch arrived"));
            }
            "fetch_inc" => {
                black_box(m.fetch_inc(0, 3, 0));
            }
            "blt_8k" => {
                let h = m.blt_start(0, BltDirection::Read, 0x10_0000, 4, 0x2_0000, 8192);
                m.blt_wait(0, h);
            }
            "msg_roundtrip" => {
                // The receiver idles past the sender's clock plus the
                // flight time before it takes the interrupt.
                let idle = |m: &mut Machine, to: usize, from: usize| {
                    let behind = m.clock(from).saturating_sub(m.clock(to));
                    m.advance(to, behind + 20_000);
                };
                m.msg_send(0, 5, [i, 0, 0, 0]);
                idle(m, 5, 0);
                m.msg_receive(5).expect("message arrived");
                m.msg_send(5, 0, [i, 1, 0, 0]);
                idle(m, 0, 5);
                m.msg_receive(0).expect("reply arrived");
            }
            _ => unreachable!("unknown op {op}"),
        }
    }
}

/// Iterations per timed op loop (a few ms to tens of ms each).
fn op_iters(op: &str) -> u64 {
    match op {
        "ld_local_hit" | "st_local" => 200_000,
        "ld_local_dram" | "ld_remote" | "fetch_inc" => 50_000,
        "st_remote_acked" | "fetch_pop" => 20_000,
        "blt_8k" => 2_000,
        _ => 10_000,
    }
}

/// Host-time probes of the machine layer at `n` PEs. Returns the
/// operations the timed op loops issued and their host seconds.
pub fn machine(n: u32, sp: &mut Spans, out: &mut Metrics) -> (u64, f64) {
    let cfg = MachineConfig::t3d(n);
    let once = {
        let t = Instant::now();
        black_box(Machine::new(cfg));
        t.elapsed().as_secs_f64() * 1e3
    };
    let new_ms = median_ms(sp, "machine.new", reps_for(once), || {
        black_box(Machine::new(cfg));
    });
    let mut m = Machine::new(cfg);
    let mut phase = |sp: &mut Spans, name: &str, driver: PhaseDriver| {
        m.sharded_phase(driver, |_| {});
        let once = {
            let t = Instant::now();
            m.sharded_phase(driver, |_| {});
            t.elapsed().as_secs_f64() * 1e3
        };
        median_ms(sp, name, reps_for(once), || m.sharded_phase(driver, |_| {}))
    };
    let par = phase(sp, "machine.phase_empty", DRIVER);
    let seq = phase(sp, "machine.phase_empty_seq", PhaseDriver::Seq);
    let barrier = median_ms(sp, "machine.barrier_all", 31, || m.barrier_all());
    let snap_bytes = 16 << 10;
    let snapshot = median_ms(sp, "machine.snapshot_fnv64", 9, || {
        black_box(m.snapshot_region(0, snap_bytes).fnv64());
    });
    out.push(("machine.new_ms".into(), new_ms, "ms"));
    out.push(("machine.phase_empty_ms".into(), par, "ms"));
    out.push(("machine.phase_empty_seq_ms".into(), seq, "ms"));
    out.push(("machine.barrier_ms".into(), barrier, "ms"));
    out.push(("machine.snapshot_ms".into(), snapshot, "ms"));

    let (mut ops, mut host_s) = (0, 0.0);
    for op in OPS {
        let k = op_iters(op);
        let mut m = Machine::new(MachineConfig::t3d(8));
        op_loop(&mut m, op, k / 10);
        let before = op_count(&m);
        let mut timed = Vec::new();
        let ms = median_ms(sp, &format!("machine.op.{op}"), 3, || {
            let t = Instant::now();
            op_loop(&mut m, op, k);
            timed.push(t.elapsed().as_secs_f64());
        });
        ops += op_count(&m) - before;
        host_s += timed.iter().sum::<f64>();
        out.push((format!("machine.op_ns.{op}"), ms * 1e6 / k as f64, "ns"));
    }
    (ops, host_s)
}

/// Operations issued on every PE of `m` so far.
fn op_count(m: &Machine) -> u64 {
    (0..m.nodes()).map(|pe| op_total(&m.op_stats(pe))).sum()
}

/// Host-time probes of the EM3D, Split-C and microbench layers.
pub fn em3d_splitc_micro(n: u32, seed: u64, sp: &mut Spans, out: &mut Metrics) {
    let mut p = Em3dParams::tiny(10.0);
    p.seed = seed;
    let graph = median_ms(sp, "em3d.graph_generate", 9, || {
        black_box(Em3dGraph::generate(p, n));
    });
    out.push(("em3d.graph_ms".into(), graph, "ms"));
    let splitc = median_ms(sp, "splitc.new", 9, || {
        black_box(SplitC::new(MachineConfig::t3d(n)));
    });
    out.push(("splitc.new_ms".into(), splitc, "ms"));
    for probe in crate::workloads::Probe::one_of_each() {
        let name = format!("microbench.{}", probe.kind());
        let ms = median_ms(sp, &name, 3, || {
            probe.run().expect("probe output checks");
        });
        out.push((format!("{name}_ms"), ms, "ms"));
    }
}

/// The EM3D reference run for workloads whose points are not EM3D: one
/// Bulk version at `n` PEs. Returns its virtual µs per edge.
pub fn em3d_reference(n: u32, seed: u64, sp: &mut Spans) -> f64 {
    let mut p = Em3dParams::tiny(10.0);
    p.seed = seed;
    sp.time("em3d.run_version_profiled", || {
        em3d::run_version_profiled(DRIVER, n, p, Version::Bulk)
            .0
            .us_per_edge
    })
}

/// Host-time probes of the scheduler layer: its kernels at 8 PEs, trace
/// generation, the warm scheduling loop, the kernel cache and the
/// partition allocator.
pub fn sched(seed: u64, sp: &mut Spans, out: &mut Metrics) {
    let env = ExecEnv {
        driver: DRIVER,
        ..ExecEnv::default()
    };
    for kernel in [
        Kernel::Em3d(Version::Bulk),
        Kernel::Stencil(StencilComm::Store),
        Kernel::SampleSort,
        Kernel::Cg,
    ] {
        let size = kernel.default_size();
        let name = format!("sched.kernel.{}", family(kernel));
        let ms = median_ms(sp, &name, 5, || {
            black_box(kernel.run(env, 8, size, seed));
        });
        out.push((format!("sched.kernel_ms.{}", family(kernel)), ms, "ms"));
    }
    let gen = GenParams {
        seed,
        ..GenParams::default()
    };
    let gen_ms = median_ms(sp, "sched.trace_generate", 9, || {
        black_box(Trace::generate(gen));
    });
    let trace = Trace::generate(gen);
    let params = SimParams {
        machine: (4, 4, 4),
        backfill: true,
        env,
    };
    let mut cache = KernelCache::new();
    for job in &trace.jobs {
        cache.run(env, job, job.pe_count);
    }
    let run = sp.time("sched.run_trace", || run_trace(&trace, &params, &mut cache));
    let lookups = cache.hits() + cache.misses();
    let ratio = cache.hits() as f64 / lookups as f64;
    let loop_ms = median_ms(sp, "sched.run_trace", 9, || {
        black_box(run_trace(&trace, &params, &mut cache));
    });
    out.push(("sched.trace_gen_ms".into(), gen_ms, "ms"));
    out.push(("sched.loop_ms".into(), loop_ms, "ms"));
    out.push(("sched.cache_hit_ratio".into(), ratio, "ratio"));
    out.push(("sched.cache_lookups".into(), lookups as f64, "count"));
    let a = run.alloc_stats;
    out.push(("sched.alloc.allocs".into(), a.allocs as f64, "count"));
    out.push(("sched.alloc.splits".into(), a.splits as f64, "count"));
    out.push(("sched.alloc.coalesces".into(), a.coalesces as f64, "count"));
    out.push((
        "sched.alloc.fit_failures".into(),
        a.fit_failures as f64,
        "count",
    ));
    out.push(("sched.fragmentation".into(), fragmentation(&trace), "ratio"));
}

/// Mean external fragmentation of a 4×4×4 allocator over a FIFO churn
/// replay of the trace's job sizes: allocate each job in order, freeing
/// the oldest live block while it does not fit.
fn fragmentation(trace: &Trace) -> f64 {
    let mut a = PartitionAllocator::new((4, 4, 4));
    let mut live = std::collections::VecDeque::new();
    let mut sum = 0.0;
    for job in &trace.jobs {
        let block = loop {
            if let Some(b) = a.alloc(job.pe_count) {
                break b;
            }
            a.free(live.pop_front().expect("an empty machine fits any job"));
        };
        live.push_back(block);
        sum += a.fragmentation();
    }
    sum / trace.jobs.len() as f64
}
