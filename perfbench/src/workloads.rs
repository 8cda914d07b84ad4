//! The workloads. Each is a deterministic sequence of *points* —
//! one independently verified simulation each — grouped in rounds; the
//! workload seed generates every input. A run times whole rounds, and
//! round 0's results form the workload's simulated-behaviour fingerprint.

use crate::spans::Spans;
use em3d::{Em3dParams, Version};
use t3d_machine::{Machine, MachineConfig, OpStats, PerfMode, PhaseDriver};
use t3d_microbench::probes::{bulk, hotspot, local, prefetch, put, remote, sync_costs};
use t3d_microbench::{Series, StrideProfile};
use t3d_perf::{Ledger, PerfReport};
use t3d_prng::Rng;
use t3d_sched::ExecEnv;

/// The phase driver every workload runs under, pinned here rather than
/// read from `T3D_PAR`: two worker threads.
pub const DRIVER: PhaseDriver = PhaseDriver::Par(2);

/// FNV-1a offset basis (fingerprint chains start here).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds 64-bit words into an FNV-1a chain.
pub fn fnv(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        h = t3d_sched::fnv1a(h, &w.to_le_bytes());
    }
    h
}

/// Every machine operation an `OpStats` counts.
pub fn op_total(o: &OpStats) -> u64 {
    o.loads_local
        + o.loads_remote
        + o.stores_local
        + o.stores_remote
        + o.fetches
        + o.pops
        + o.memory_barriers
        + o.blts
        + o.msgs_sent
        + o.msgs_received
        + o.atomics
        + o.ack_waits
}

/// A seed for item `a`/`b` of a workload, independent of visit order.
fn derive(seed: u64, a: u64, b: u64) -> u64 {
    Rng::seed_from_u64(fnv(FNV_OFFSET, &[seed, a, b])).next_u64()
}

/// Layer figures the workload's own points yield (filled by the traced
/// run; the virtual figures cover round 0 only, so they repeat exactly).
#[derive(Debug, Default)]
pub struct PointStats {
    /// Machine operations issued by the points (EM3D's `ops.*`
    /// counters; the probes' machines are not visible from outside).
    pub ops: u64,
    /// Host seconds of the points that issued them.
    pub ops_host_s: f64,
    /// Virtual µs per edge of each EM3D point.
    pub us_per_edge: Vec<f64>,
    /// Merged cycle attribution of the virtual reference run.
    pub ledger: Ledger,
    /// Memory-system counters of the virtual reference run
    /// (`mem.l1.hits`, `mem.l1.misses`, `mem.tlb.misses`, …).
    pub mem: std::collections::BTreeMap<String, u64>,
}

impl PointStats {
    /// Adds a profiled run's attribution and memory counters.
    pub fn add_report(&mut self, rep: &PerfReport) {
        self.ledger.merge(&rep.merged());
        for (name, v) in rep.registry.counters() {
            if name.starts_with("mem.") {
                *self.mem.entry(name.to_string()).or_insert(0) += v;
            }
        }
    }
}

/// One workload: rounds of points plus the hooks around them.
pub trait Workload {
    /// Machine size (PEs) the per-layer probes run at.
    fn pes(&self) -> u32;
    /// Points per round. A run times whole rounds, so every run of a
    /// workload times the same mix of points.
    fn round_len(&self) -> usize;
    /// Untimed warm-up of each set-up, of the same cost for every seed.
    fn warm_up(&mut self) -> Result<(), String>;
    /// Prepares round `round`'s inputs (inside the timed region).
    fn begin_round(&mut self, round: u64, sp: &mut Spans);
    /// Runs and checks point `j` of `round`; returns its fingerprint word.
    fn point(
        &mut self,
        round: u64,
        j: usize,
        sp: &mut Spans,
        st: &mut PointStats,
    ) -> Result<u64, String>;
    /// Sharded phases per point, counted from the program's structure.
    fn phases_per_point(&self) -> f64;
    /// Fills `st`'s virtual figures when the points themselves do not.
    fn virtual_reference(&self, st: &mut PointStats);
}

/// Builds a workload by name.
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "em3d_scale" => Box::new(Em3dScale { seed }),
        "paper_micro" => Box::new(PaperMicro::new(seed)),
        _ => return None,
    })
}

/// The workload names.
pub const NAMES: [&str; 2] = ["em3d_scale", "paper_micro"];

// ---------------------------------------------------------------------
// em3d_scale
// ---------------------------------------------------------------------

/// The 7 EM3D versions on a 256-PE machine with tiny graphs. A round
/// is 14 points: every version with link contention off (points 0–6)
/// and on (7–13), `pct_remote` alternating 10/30 from point to point.
struct Em3dScale {
    seed: u64,
}

/// Machine size: deep in the regime where phase set-up dominates, yet
/// small enough for ~170 points per run (1024 PEs gave 28 points of ~1 s
/// whose run-to-run spread on a shared 2-core host reached 30%).
const EM3D_PES: u32 = 256;

impl Em3dScale {
    fn params(&self, round: u64, j: usize) -> (Version, bool, Em3dParams) {
        let version = Version::all()[j % 7];
        let contended = j >= 7;
        let mut p = Em3dParams::tiny(if j.is_multiple_of(2) { 10.0 } else { 30.0 });
        p.seed = derive(self.seed, round, j as u64);
        (version, contended, p)
    }
}

impl Workload for Em3dScale {
    fn pes(&self) -> u32 {
        EM3D_PES
    }

    fn round_len(&self) -> usize {
        14
    }

    fn warm_up(&mut self) -> Result<(), String> {
        // A fixed seed: set-up costs the same for every workload seed.
        Em3dScale { seed: 0 }
            .point(0, 0, &mut Spans::new(false), &mut PointStats::default())
            .map(drop)
    }

    fn begin_round(&mut self, _round: u64, _sp: &mut Spans) {}

    fn point(
        &mut self,
        round: u64,
        j: usize,
        sp: &mut Spans,
        st: &mut PointStats,
    ) -> Result<u64, String> {
        let (version, contended, params) = self.params(round, j);
        let t = std::time::Instant::now();
        // The version verifies its values against the host reference and
        // panics on divergence.
        let (r, rep) = if contended {
            sp.time("em3d.run_version_profiled_contended", || {
                em3d::run_version_profiled_contended(
                    DRIVER,
                    ExecEnv::default().engine,
                    EM3D_PES,
                    params,
                    version,
                )
            })
        } else {
            sp.time("em3d.run_version_profiled", || {
                em3d::run_version_profiled(DRIVER, EM3D_PES, params, version)
            })
        };
        let host_s = t.elapsed().as_secs_f64();
        let elapsed: u64 = rep.pes.iter().map(|p| p.elapsed).sum();
        if r.cycles == 0 || rep.total() != elapsed {
            return Err(format!(
                "{}: {} cycles, attribution {} of {elapsed} elapsed",
                version.label(),
                r.cycles,
                rep.total()
            ));
        }
        st.ops += op_total(&r.ops);
        st.ops_host_s += host_s;
        st.us_per_edge.push(r.us_per_edge);
        if round == 0 {
            st.add_report(&rep);
        }
        Ok(fnv(FNV_OFFSET, &[r.cycles, r.clock_fnv, r.mem_fnv]))
    }

    fn phases_per_point(&self) -> f64 {
        // EM3D's step: 4 sharded phases (comm and compute per half), 6
        // for Put and Bulk (a push phase before each pull); a point runs
        // a warm-up step plus `steps` measured ones.
        let steps = Em3dParams::tiny(10.0).steps as f64 + 1.0;
        let per_step: f64 = Version::all()
            .iter()
            .map(|v| match v {
                Version::Put | Version::Bulk => 6.0,
                _ => 4.0,
            })
            .sum::<f64>()
            / 7.0;
        steps * per_step
    }

    fn virtual_reference(&self, _st: &mut PointStats) {}
}

// ---------------------------------------------------------------------
// paper_micro
// ---------------------------------------------------------------------

/// One direct-driven probe at one size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// Figure 1: local read stride profile over one array size.
    LocalRead(u64),
    /// Figure 2: local write stride profile.
    LocalWrite(u64),
    /// Figure 4: the three remote read profiles.
    RemoteRead(u64),
    /// Figure 5: the two remote write profiles.
    RemoteWrite(u64),
    /// Figure 7: non-blocking store and put profiles.
    Put(u64),
    /// Figure 6: the prefetch group sweep.
    Prefetch,
    /// Figure 8: read and write bandwidth at one transfer size.
    Bulk(u64),
    /// Section 7's synchronization table.
    Sync,
    /// Contended vs ideal fetch&increment hot spot, `n` requesters.
    Hotspot(u32),
}

/// Largest stride the reduced stride profiles probe.
const CAP_STRIDE: u64 = 1024;

impl Probe {
    /// The per-layer metric stem of this probe kind.
    pub fn kind(self) -> &'static str {
        match self {
            Probe::LocalRead(_) => "local_read",
            Probe::LocalWrite(_) => "local_write",
            Probe::RemoteRead(_) => "remote_read",
            Probe::RemoteWrite(_) => "remote_write",
            Probe::Put(_) => "put",
            Probe::Prefetch => "prefetch",
            Probe::Bulk(_) => "bulk",
            Probe::Sync => "sync",
            Probe::Hotspot(_) => "hotspot",
        }
    }

    /// One of each kind, at the smallest menu size (per-layer probes).
    pub fn one_of_each() -> [Probe; 9] {
        [
            Probe::LocalRead(16 << 10),
            Probe::LocalWrite(16 << 10),
            Probe::RemoteRead(4 << 10),
            Probe::RemoteWrite(4 << 10),
            Probe::Put(4 << 10),
            Probe::Prefetch,
            Probe::Bulk(4 << 10),
            Probe::Sync,
            Probe::Hotspot(16),
        ]
    }

    /// Runs per point: the cheap probes repeat, so that no point takes
    /// much under ~8 ms of host time (measured on a 2-core Xeon VM) and
    /// the median point is a blend of probes rather than the edge
    /// between two of them.
    pub fn reps(self) -> u32 {
        match self {
            Probe::Hotspot(4) => 88,
            Probe::Sync => 58,
            Probe::Prefetch => 23,
            Probe::LocalRead(s) if s <= 16 << 10 => 11,
            Probe::Hotspot(_) | Probe::RemoteRead(4096) => 8,
            Probe::Bulk(4096) | Probe::LocalWrite(16384) => 5,
            Probe::Put(4096) | Probe::LocalRead(65536) | Probe::RemoteWrite(4096) => 3,
            Probe::RemoteRead(16384) => 2,
            _ => 1,
        }
    }

    /// Runs the probe and checks its outputs; returns every output value
    /// (for the fingerprint).
    pub fn run(self) -> Result<Vec<f64>, String> {
        let out = match self {
            Probe::LocalRead(s) => cells(&[local::read_profile(&[s], CAP_STRIDE)]),
            Probe::LocalWrite(s) => cells(&[local::write_profile(&[s], CAP_STRIDE)]),
            Probe::RemoteRead(s) => cells(&remote::read_profiles(&[s], CAP_STRIDE)),
            Probe::RemoteWrite(s) => cells(&remote::write_profiles(&[s], CAP_STRIDE)),
            Probe::Put(s) => cells(&put::nonblocking_profiles(&[s], CAP_STRIDE)),
            Probe::Prefetch => {
                let sw = prefetch::group_sweep();
                // Pipelining: a full group of raw prefetches costs less
                // per element than a single one.
                let raw = &sw[0];
                if raw.at(16) >= raw.at(1) {
                    return Err(format!("prefetch does not pipeline: {:?}", raw.points));
                }
                ys(&sw)
            }
            Probe::Bulk(n) => {
                let mut v = ys(&bulk::read_bandwidth(&[n]));
                v.extend(ys(&bulk::write_bandwidth(&[n])));
                v
            }
            Probe::Sync => sync_costs().iter().map(|s| s.cycles as f64).collect(),
            Probe::Hotspot(r) => {
                let real = hotspot::fetch_inc_hotspot_cost(r, true);
                let ideal = hotspot::fetch_inc_hotspot_cost(r, false);
                if real < ideal {
                    return Err(format!("{r} requesters: contended {real} < ideal {ideal}"));
                }
                vec![real, ideal]
            }
        };
        if out.is_empty() || out.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(format!("{self:?}: non-positive or missing output {out:?}"));
        }
        Ok(out)
    }
}

fn cells(profiles: &[StrideProfile]) -> Vec<f64> {
    profiles
        .iter()
        .flat_map(|p| p.avg_ns.iter().flatten().flatten().copied())
        .collect()
}

fn ys(series: &[Series]) -> Vec<f64> {
    series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(_, y)| y))
        .collect()
}

/// The paper's probes at reduced sizes: a round is one point per
/// (probe, size) in a seed-shuffled order. Every round holds the same
/// points, so the seed cannot move the point-time distribution. A point
/// repeats its probe (`Probe::reps`) and checks that every repeat gives
/// the same outputs. No probe enters a sharded phase.
struct PaperMicro {
    seed: u64,
    round: Vec<Probe>,
}

impl PaperMicro {
    fn new(seed: u64) -> PaperMicro {
        let mut w = PaperMicro {
            seed,
            round: Vec::new(),
        };
        w.shuffle(0);
        w
    }

    fn shuffle(&mut self, round: u64) {
        let mut rng = Rng::seed_from_u64(derive(self.seed, round, 0));
        let mut v = Vec::new();
        for s in [16u64 << 10, 64 << 10, 256 << 10] {
            v.push(Probe::LocalRead(s));
            v.push(Probe::LocalWrite(s));
        }
        for s in [4u64 << 10, 16 << 10] {
            v.extend([Probe::RemoteRead(s), Probe::RemoteWrite(s), Probe::Put(s)]);
        }
        v.extend([Probe::Bulk(4 << 10), Probe::Bulk(64 << 10)]);
        v.extend([Probe::Prefetch, Probe::Sync]);
        v.extend([Probe::Hotspot(4), Probe::Hotspot(16), Probe::Hotspot(31)]);
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..i + 1));
        }
        self.round = v;
    }
}

/// PEs of the per-layer probe machine for the direct-op workload.
const MICRO_PES: u32 = 8;

impl Workload for PaperMicro {
    fn pes(&self) -> u32 {
        MICRO_PES
    }

    fn round_len(&self) -> usize {
        self.round.len()
    }

    fn warm_up(&mut self) -> Result<(), String> {
        self.round.iter().try_for_each(|p| p.run().map(drop))
    }

    fn begin_round(&mut self, round: u64, _sp: &mut Spans) {
        self.shuffle(round);
    }

    fn point(
        &mut self,
        _round: u64,
        j: usize,
        sp: &mut Spans,
        _st: &mut PointStats,
    ) -> Result<u64, String> {
        let p = self.round[j];
        let out = sp.time(&format!("microbench.{}", p.kind()), || p.run())?;
        for _ in 1..p.reps() {
            let again = sp.time(&format!("microbench.{}", p.kind()), || p.run())?;
            if again
                .iter()
                .map(|v| v.to_bits())
                .ne(out.iter().map(|v| v.to_bits()))
            {
                return Err(format!("{p:?}: a repeat gave other outputs"));
            }
        }
        let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        Ok(fnv(FNV_OFFSET, &bits))
    }

    fn phases_per_point(&self) -> f64 {
        // Every probe drives `Machine` and `SplitC::on` directly.
        0.0
    }

    fn virtual_reference(&self, st: &mut PointStats) {
        // The direct-op loops of the per-layer probes, profiled.
        let mut m = Machine::new(MachineConfig::t3d(MICRO_PES));
        m.set_perf_mode(PerfMode::Counters);
        for op in crate::layers::OPS {
            crate::layers::op_loop(&mut m, op, 1000);
        }
        st.add_report(&m.perf());
    }
}

/// The kernel family a kernel belongs to (`em3d`, `stencil`,
/// `sample_sort`, `cg`).
pub fn family(kernel: t3d_sched::Kernel) -> &'static str {
    use t3d_sched::Kernel;
    match kernel {
        Kernel::Em3d(_) => "em3d",
        Kernel::Stencil(_) => "stencil",
        Kernel::SampleSort => "sample_sort",
        Kernel::Cg => "cg",
    }
}
