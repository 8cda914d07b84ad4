//! Sharded bulk-synchronous phases: run every PE of a phase concurrently
//! with results bit-identical to running them one after another.
//!
//! # The model
//!
//! The direct engine ([`Machine`]) interleaves remote effects eagerly: a
//! remote store charges the target's DRAM the moment the source's write
//! buffer retires it. That is simple and exact, but it serializes the
//! phase — node 1's closure cannot run until node 0's has finished
//! mutating the shared machine.
//!
//! The sharded engine splits a phase into independent *shards*. Each
//! shard ([`PhasePe`]) owns its node's entire state — caches, write
//! buffer, DRAM timing, clock, prefetch queue — borrowed in place from
//! the machine. One read-only snapshot of every node's DRAM timing,
//! shell occupancy, link clocks and fetch&increment registers is taken
//! at phase start and shared by all shards; each shard sees it through
//! sparse *copy-on-write overlays* keyed by target PE or link id, so a
//! read falls through to the snapshot and the first mutation copies just
//! that entry in. A shard's set-up cost is therefore independent of the
//! machine size, and it pays only for the targets it touches. During the
//! phase a shard:
//!
//! * mutates only its own node,
//! * reads other nodes' memory bytes through shared [`MemArena`] handles
//!   (safe: the BSP contract below),
//! * computes remote *timing* against its private overlays, and
//! * appends outbound effects — remote stores, DRAM touches, message
//!   deliveries, fetch&increment bumps, BLT deposits — stamped with
//!   virtual time to its worker's effect log (one log per worker thread,
//!   owned by the machine and reused from phase to phase).
//!
//! When every shard has run, the logs are merged in deterministic order
//! — `(virtual time, source PE, issue order)` — and applied to the real
//! nodes. Because each shard's execution depends only on the phase
//! entry state, and the merge order is a pure function of the logs, the
//! result is **bit-identical whether the shards run sequentially or on
//! any number of threads**. [`PhaseDriver::Seq`] is therefore a true
//! oracle for [`PhaseDriver::Par`].
//!
//! # The contract
//!
//! The engine is exact for programs that follow the bulk-synchronous
//! discipline the paper's benchmarks use (and [`crate::Spmd`] assumes):
//! within a phase, no node may read a location that another node writes
//! in the same phase — communication produced in phase *k* is consumed
//! in phase *k + 1*, after a barrier. Under that contract the sharded
//! engine differs from the direct engine only in second-order timing
//! (a shard sees other nodes' DRAM-page and shell-occupancy state as of
//! phase start rather than live). Those deviations are deterministic and
//! identical under both sharded drivers.
//!
//! Two operations are deliberately restricted inside a sharded phase:
//! `atomic_swap` on a *remote* PE panics (swap-based locks serialize by
//! nature; take them through [`Machine`] directly), and a remote
//! `fetch_inc` returns the phase-start value plus this shard's own
//! increments — concurrent increments from *other* shards are merged
//! afterwards, so tickets are only unique per shard within one phase.

use crate::config::MachineConfig;
use crate::cpu::Cpu;
use crate::machine::{link_occupancy_cy, BltHandle, Machine};
use crate::node::{Node, NodeHot, OpStats};
use crate::ops::MachineOps;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use t3d_memsys::{Dram, MemArena, RemoteSink, WriteTarget, MAX_LINE};
use t3d_perf::{CostClass, OpKind};
use t3d_shell::blt::BltDirection;
use t3d_shell::{AnnexEntry, FetchIncRegs, FuncCode, Message, PopError};
use t3d_torus::{subcube, Torus};

/// Which execution engine drives a sharded phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseDriver {
    /// Run the shards one after another on the calling thread (the
    /// determinism oracle).
    Seq,
    /// Run the shards on up to this many worker threads. `Par(1)` uses
    /// the sequential path; results are identical for every value.
    Par(usize),
}

impl PhaseDriver {
    /// Selects a driver from the `T3D_PAR` environment variable:
    ///
    /// * unset or `1` — parallel, one thread per available core;
    /// * `0` — sequential (shards still run through the sharded engine,
    ///   so results match the parallel driver bit for bit);
    /// * `N > 1` — parallel with `N` threads.
    ///
    /// Unparsable values fall back to the parallel default.
    pub fn from_env() -> Self {
        match std::env::var("T3D_PAR") {
            Err(_) => PhaseDriver::Par(Self::auto_threads()),
            Ok(s) => match s.trim() {
                "0" => PhaseDriver::Seq,
                "" | "1" => PhaseDriver::Par(Self::auto_threads()),
                n => PhaseDriver::Par(n.parse().unwrap_or_else(|_| Self::auto_threads())),
            },
        }
    }

    fn auto_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    fn threads_for(self, pes: usize) -> usize {
        match self {
            PhaseDriver::Seq => 1,
            PhaseDriver::Par(n) => n.clamp(1, pes.max(1)),
        }
    }
}

/// An outbound effect recorded by a shard, applied at merge time.
#[derive(Debug)]
enum Effect {
    /// A retired remote write: service the target's DRAM, update memory
    /// under the mask, invalidate the covered cache line, and (if
    /// `arrival` is set) log the data arrival for `storeSync`.
    Write {
        off: u64,
        /// The retired line, inline; the first `line` bytes are in use.
        data: [u8; MAX_LINE],
        mask: Option<u64>,
        arrival: Option<(u64, u64)>,
    },
    /// A functional deposit (BLT): write bytes and invalidate covered
    /// lines, no DRAM timing.
    Poke { off: u64, data: Vec<u8> },
    /// Replay of a remote read's DRAM access (page-state evolution).
    DramTouch { off: u64 },
    /// A message delivery into the target's queue.
    Msg(Message),
    /// A fetch&increment bump of the target's register.
    FetchInc { reg: usize },
    /// Pure link-occupancy replay with no node-side effect (BLT reads:
    /// the stream holds its route but deposits locally).
    LinkReserve,
}

/// An [`Effect`] with its deterministic merge key. The key's issue-order
/// tiebreaker is the record's position in the effect logs (see
/// [`EffectLogs::sort_keys`]).
#[derive(Debug)]
pub(crate) struct TimedEffect {
    /// Virtual time at which the effect reaches the target.
    time: u64,
    /// Issuing PE.
    src: u32,
    /// Target PE.
    target: u32,
    /// Shell-occupancy replay `(ready, occupancy_cy)` for contention
    /// modeling, when the effect occupies the target's shell.
    busy: Option<(u64, u64)>,
    /// Link-occupancy replay `(ready, occupancy_cy)` for link-contention
    /// modeling: at merge time the dimension-order route `src -> target`
    /// is re-reserved against the global link clocks.
    link: Option<(u64, u64)>,
    eff: Effect,
}

/// Read-only state shared by every shard of one phase. The snapshots
/// are taken once per phase (O(N)); shards never copy them wholesale but
/// read them through [`Overlay`]s.
struct PhaseShared {
    cfg: MachineConfig,
    torus: Torus,
    /// Every node's memory bytes (shared, interior-mutable).
    mems: Vec<Arc<MemArena>>,
    /// Phase-start snapshot of every node's DRAM timing state.
    dram: Vec<Dram>,
    /// Phase-start snapshot of every node's shell occupancy.
    busy: Vec<u64>,
    /// Phase-start snapshot of the per-link occupancy clocks.
    links: Vec<u64>,
    /// Phase-start snapshot of every node's fetch&increment registers.
    finc: Vec<FetchIncRegs>,
}

impl PhaseShared {
    fn capture(
        cfg: &MachineConfig,
        torus: &Torus,
        nodes: &[Node],
        hot: &[NodeHot],
        links: &[u64],
    ) -> Self {
        PhaseShared {
            cfg: *cfg,
            torus: torus.clone(),
            mems: nodes
                .iter()
                .map(|n| Arc::clone(n.port.mem_arena()))
                .collect(),
            dram: nodes.iter().map(|n| n.port.dram().clone()).collect(),
            busy: hot.iter().map(|h| h.shell_busy_until).collect(),
            links: links.to_vec(),
            finc: nodes.iter().map(|n| n.fetchinc.clone()).collect(),
        }
    }
}

/// Hashes a PE or link id with one multiply, so the high bits the table
/// probes on are well mixed.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("overlays are keyed by usize ids only")
    }

    fn write_usize(&mut self, id: usize) {
        self.0 = (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A sparse copy-on-write view of one phase-start snapshot, keyed by PE
/// or link id: reads fall through to the shared snapshot until the first
/// mutation copies that one entry in.
struct Overlay<'s, V> {
    base: &'s [V],
    touched: HashMap<usize, V, BuildHasherDefault<IdHasher>>,
}

impl<'s, V: Clone> Overlay<'s, V> {
    fn new(base: &'s [V]) -> Self {
        Overlay {
            base,
            touched: HashMap::default(),
        }
    }

    fn get(&self, id: usize) -> &V {
        self.touched.get(&id).unwrap_or(&self.base[id])
    }

    fn get_mut(&mut self, id: usize) -> &mut V {
        let base = self.base;
        self.touched.entry(id).or_insert_with(|| base[id].clone())
    }
}

/// One PE's shard of a sharded phase: a [`MachineOps`] backend that owns
/// its node exclusively and logs outbound effects.
///
/// All operations must name this shard's own PE (except the explicit
/// `target_pe` of `fetch_inc`, BLT transfers and `msg_send`, and
/// annex-translated loads and stores, which are the point).
pub struct PhasePe<'a> {
    pe: usize,
    node: &'a mut Node,
    /// This PE's hot scalars (clock, shell occupancy), owned exclusively
    /// for the phase like the node itself.
    hot: &'a mut NodeHot,
    sh: &'a PhaseShared,
    /// Private evolution of other nodes' DRAM timing.
    rdram: Overlay<'a, Dram>,
    /// Private evolution of other nodes' shell occupancy.
    rbusy: Overlay<'a, u64>,
    /// Private evolution of the link-occupancy clocks.
    rlink: Overlay<'a, u64>,
    /// Other nodes' fetch&increment registers plus this shard's own
    /// increments of them.
    rfinc: Overlay<'a, FetchIncRegs>,
    /// The effect log of the worker running this shard.
    effects: &'a mut Vec<TimedEffect>,
}

impl<'a> PhasePe<'a> {
    fn new(
        pe: usize,
        node: &'a mut Node,
        hot: &'a mut NodeHot,
        sh: &'a PhaseShared,
        effects: &'a mut Vec<TimedEffect>,
    ) -> Self {
        PhasePe {
            pe,
            node,
            hot,
            sh,
            rdram: Overlay::new(&sh.dram),
            rbusy: Overlay::new(&sh.busy),
            rlink: Overlay::new(&sh.links),
            rfinc: Overlay::new(&sh.finc),
            effects,
        }
    }

    #[inline]
    fn own(&self, pe: usize) {
        assert_eq!(
            pe, self.pe,
            "a sharded phase closure may only drive its own PE (got {pe}, shard owns {})",
            self.pe
        );
    }

    fn split(&self, va: u64) -> (usize, u64) {
        t3d_shell::annex::split_pa(va, self.sh.cfg.mem.offset_bits)
    }

    fn line_mask(&self) -> u64 {
        self.sh.cfg.mem.l1.line as u64 - 1
    }

    /// Mirrors `Machine::rtt_cy`: exactly twice the rounded one-way
    /// latency (not the rounded double), keeping Seq/Par bit-identical.
    fn rtt(&self, b: usize) -> u64 {
        2 * self.one_way(b)
    }

    fn one_way(&self, b: usize) -> u64 {
        self.sh.torus.one_way_cy(self.pe as u32, b as u32).round() as u64
    }

    /// The shard-local mirror of `Machine::contend`: queueing against the
    /// real occupancy for this shard's own shell, against the private
    /// overlay for a remote one.
    fn contend(&mut self, target: usize, ready: u64, occupancy_cy: u64) -> u64 {
        if !self.sh.cfg.contention {
            return 0;
        }
        let busy = if target == self.pe {
            &mut self.hot.shell_busy_until
        } else {
            self.rbusy.get_mut(target)
        };
        let start = ready.max(*busy);
        *busy = start + occupancy_cy;
        start - ready
    }

    /// The shard-local mirror of `Machine::link_contend`: queueing on the
    /// dimension-order route against the private overlay of the
    /// phase-start link clocks. The reservation is replayed against the
    /// global link clocks at merge time via [`TimedEffect::link`].
    fn link_contend(&mut self, target: usize, ready: u64, occupancy_cy: u64) -> u64 {
        if !self.sh.cfg.link_contention || target == self.pe {
            return 0;
        }
        let links = self.sh.torus.route_links(self.pe as u32, target as u32);
        let start = links.clone().fold(ready, |s, l| s.max(*self.rlink.get(l)));
        for l in links {
            *self.rlink.get_mut(l) = start + occupancy_cy;
        }
        start - ready
    }

    fn push(
        &mut self,
        time: u64,
        target: usize,
        busy: Option<(u64, u64)>,
        link: Option<(u64, u64)>,
        eff: Effect,
    ) {
        self.effects.push(TimedEffect {
            time,
            src: self.pe as u32,
            target: target as u32,
            busy,
            link,
            eff,
        });
    }

    /// Reads target memory bytes functionally: own port for the own PE,
    /// the shared arena for a remote one.
    fn read_target_mem(&self, target: usize, off: u64, buf: &mut [u8]) {
        if target == self.pe {
            self.node.port.peek_mem(off, buf);
        } else {
            self.sh.mems[target].read(off, buf);
        }
    }

    fn poke_own(&mut self, off: u64, data: &[u8]) {
        self.node.port.poke_mem(off, data);
        let line = self.sh.cfg.mem.l1.line as u64;
        let mut a = off & !self.line_mask();
        while a < off + data.len() as u64 {
            self.node.port.l1_mut().invalidate(a);
            a += line;
        }
    }

    /// The shard-side mirror of `Machine::deliver_outbox`: remote writes
    /// retired by this node's write buffer become merge effects (the ack
    /// is registered source-side immediately, with the delivery timing
    /// computed against the private target overlays).
    fn flush_outbox(&mut self) {
        let line = self.sh.cfg.mem.l1.line;
        while let Some(r) = self.node.port.pop_outbox() {
            let WriteTarget::Remote(sink) = r.target else {
                unreachable!("outbox only carries remote writes")
            };
            let target = sink.pe as usize;
            let bytes = r.mask.count_ones() as u64;
            if target == self.pe {
                let dram = self.node.port.service_remote_write(
                    sink.remote_line_pa,
                    &r.data[..line],
                    Some(r.mask),
                );
                let queue = self.contend(target, r.completion + sink.ack_rtt_cy / 2, dram + 5);
                let arrival = r.completion + sink.ack_rtt_cy / 2 + dram + queue;
                let ack = r.completion + sink.ack_rtt_cy + dram + queue;
                self.node.incoming.push((arrival, bytes));
                self.node.acks.expect_ack(ack);
            } else {
                let dram = self.rdram.get_mut(target).access(sink.remote_line_pa);
                let ready = r.completion + sink.ack_rtt_cy / 2;
                let lqueue = self.link_contend(target, ready, link_occupancy_cy(bytes));
                let queue = self.contend(target, ready + lqueue, dram + 5);
                let arrival = ready + lqueue + dram + queue;
                let ack = r.completion + sink.ack_rtt_cy + lqueue + dram + queue;
                self.push(
                    arrival,
                    target,
                    Some((ready + lqueue, dram + 5)),
                    Some((ready, link_occupancy_cy(bytes))),
                    Effect::Write {
                        off: sink.remote_line_pa,
                        data: r.data,
                        mask: Some(r.mask),
                        arrival: Some((arrival, bytes)),
                    },
                );
                self.node.acks.expect_ack(ack);
            }
        }
    }
}

impl MachineOps for PhasePe<'_> {
    fn nodes(&self) -> usize {
        self.sh.mems.len()
    }

    fn cycle_ns(&self) -> f64 {
        self.sh.cfg.cycle_ns()
    }

    fn offset_bits(&self) -> u32 {
        self.sh.cfg.mem.offset_bits
    }

    fn node(&self, pe: usize) -> &Node {
        self.own(pe);
        self.node
    }

    fn node_mut(&mut self, pe: usize) -> &mut Node {
        self.own(pe);
        self.node
    }

    fn clock(&self, pe: usize) -> u64 {
        self.own(pe);
        self.hot.clock
    }

    fn advance(&mut self, pe: usize, cycles: u64) {
        self.own(pe);
        self.hot.clock += cycles;
        self.node.perf.credit(CostClass::Compute, cycles);
    }

    fn annex_set(&mut self, pe: usize, idx: usize, entry: AnnexEntry) {
        self.own(pe);
        assert!(
            (entry.pe as usize) < self.sh.mems.len(),
            "annex target PE {} does not exist",
            entry.pe
        );
        let cost = self.node.annex.update(idx, entry);
        self.hot.clock += cost;
        self.node.perf.credit(CostClass::AnnexUpdate, cost);
    }

    fn annex_entry(&self, pe: usize, idx: usize) -> AnnexEntry {
        self.own(pe);
        self.node.annex.entry(idx)
    }

    fn ld(&mut self, pe: usize, va: u64, buf: &mut [u8]) {
        self.own(pe);
        let (aidx, off) = self.split(va);
        if aidx == 0 {
            self.node.ops.loads_local += 1;
            let now = self.hot.clock;
            let cost = self.node.port.read(now, va, buf);
            self.hot.clock = now + cost;
            self.node.perf.sample(OpKind::LdLocal, cost);
            self.flush_outbox();
            return;
        }
        let line_pa = va & !self.line_mask();
        assert!(
            (va - line_pa) as usize + buf.len() <= self.sh.cfg.mem.l1.line,
            "remote load must not cross a cache line"
        );
        self.node.ops.loads_remote += 1;
        let entry = self.node.annex.entry(aidx);
        let target = entry.pe as usize;
        let now = self.hot.clock;
        self.node.port.apply_due(now);
        self.flush_outbox();

        let mut cost = self.node.port.tlb_access(va);
        if let Some(line) = self.node.port.l1().lookup(va) {
            let o = (va - line_pa) as usize;
            buf.copy_from_slice(&line[o..o + buf.len()]);
            self.hot.clock = now + cost + self.sh.cfg.mem.l1.hit_cy;
            let hit = self.sh.cfg.mem.l1.hit_cy;
            self.node.perf.credit(CostClass::L1Hit, hit);
            self.node.perf.sample(OpKind::LdRemote, cost + hit);
            return;
        }
        let shell = self.sh.cfg.shell;
        if entry.func == FuncCode::Cached {
            let line_off = off & !self.line_mask();
            let mut line = [0u8; MAX_LINE];
            let line_buf = &mut line[..self.sh.cfg.mem.l1.line];
            let occ = link_occupancy_cy(self.sh.cfg.mem.l1.line as u64);
            let (dram, queue, lqueue);
            if target == self.pe {
                dram = self.node.port.service_remote_read(line_off, line_buf);
                let ready = now + cost + shell.remote_read_shell_cy / 2 + self.one_way(target);
                lqueue = self.link_contend(target, ready, occ);
                queue = self.contend(target, ready + lqueue, dram + 5);
            } else {
                dram = self.rdram.get_mut(target).access(line_off);
                self.sh.mems[target].read(line_off, line_buf);
                let ready = now + cost + shell.remote_read_shell_cy / 2 + self.one_way(target);
                lqueue = self.link_contend(target, ready, occ);
                queue = self.contend(target, ready + lqueue, dram + 5);
                self.push(
                    ready,
                    target,
                    Some((ready + lqueue, dram + 5)),
                    Some((ready, occ)),
                    Effect::DramTouch { off: line_off },
                );
            }
            cost += shell.remote_read_shell_cy
                + shell.cached_read_extra_cy
                + self.rtt(target)
                + dram
                + queue
                + lqueue;
            let launch = shell.remote_read_shell_cy + shell.cached_read_extra_cy;
            let rtt = self.rtt(target);
            let p = &mut self.node.perf;
            p.credit(CostClass::ShellLaunch, launch);
            p.credit(CostClass::NetHop, rtt);
            p.credit(CostClass::RemoteDram, dram);
            p.credit(CostClass::Contention, queue + lqueue);
            if self.node.port.has_pending_line(line_pa) {
                self.node.port.forward_pending(line_pa, line_buf);
            }
            self.node.port.install_remote_line(line_pa, line_buf);
            let o = (va - line_pa) as usize;
            buf.copy_from_slice(&line_buf[o..o + buf.len()]);
        } else {
            debug_assert!(
                entry.func == FuncCode::Uncached,
                "annex function code {:?} is not a load flavour",
                entry.func
            );
            let occ = link_occupancy_cy(buf.len() as u64);
            let (dram, queue, lqueue);
            if target == self.pe {
                dram = self.node.port.service_remote_read(off, buf);
                let ready = now + cost + shell.remote_read_shell_cy / 2 + self.one_way(target);
                lqueue = self.link_contend(target, ready, occ);
                queue = self.contend(target, ready + lqueue, dram + 5);
            } else {
                dram = self.rdram.get_mut(target).access(off);
                self.sh.mems[target].read(off, buf);
                let ready = now + cost + shell.remote_read_shell_cy / 2 + self.one_way(target);
                lqueue = self.link_contend(target, ready, occ);
                queue = self.contend(target, ready + lqueue, dram + 5);
                self.push(
                    ready,
                    target,
                    Some((ready + lqueue, dram + 5)),
                    Some((ready, occ)),
                    Effect::DramTouch { off },
                );
            }
            cost += shell.remote_read_shell_cy + self.rtt(target) + dram + queue + lqueue;
            let rtt = self.rtt(target);
            let p = &mut self.node.perf;
            p.credit(CostClass::ShellLaunch, shell.remote_read_shell_cy);
            p.credit(CostClass::NetHop, rtt);
            p.credit(CostClass::RemoteDram, dram);
            p.credit(CostClass::Contention, queue + lqueue);
            // Our own pending stores to the same full PA forward.
            if self.node.port.has_pending_line(line_pa) {
                let mut line = [0u8; MAX_LINE];
                let line_buf = &mut line[..self.sh.cfg.mem.l1.line];
                let line_off = off & !self.line_mask();
                self.read_target_mem(target, line_off, line_buf);
                self.node.port.forward_pending(line_pa, line_buf);
                let o = (va - line_pa) as usize;
                buf.copy_from_slice(&line_buf[o..o + buf.len()]);
            }
        }
        self.hot.clock = now + cost;
        self.node.perf.sample(OpKind::LdRemote, cost);
    }

    fn st(&mut self, pe: usize, va: u64, bytes: &[u8]) {
        self.own(pe);
        let (aidx, off) = self.split(va);
        let now = self.hot.clock;
        let cost = if aidx == 0 {
            self.node.ops.stores_local += 1;
            self.node.port.write(now, va, bytes)
        } else {
            self.node.ops.stores_remote += 1;
            let entry = self.node.annex.entry(aidx);
            let target = entry.pe as usize;
            assert!(
                target < self.sh.mems.len(),
                "store to nonexistent PE {target}"
            );
            let line_off = off & !self.line_mask();
            let page_cy = if target == self.pe {
                self.node.port.dram().peek(line_off)
            } else {
                self.rdram.get(target).peek(line_off)
            };
            let page_penalty = page_cy.saturating_sub(self.sh.cfg.mem.dram.page_hit_cy);
            let sink = RemoteSink {
                pe: entry.pe,
                remote_line_pa: line_off,
                base_cy: self.sh.cfg.shell.remote_write_base_cy + page_penalty,
                per_word_cy: self.sh.cfg.shell.remote_write_word_cy,
                ack_rtt_cy: self.sh.cfg.shell.write_ack_rtt_cy + self.rtt(target),
            };
            self.node
                .port
                .write_to(now, va, bytes, WriteTarget::Remote(sink))
        };
        self.hot.clock = now + cost;
        let kind_op = if aidx == 0 {
            OpKind::StLocal
        } else {
            OpKind::StRemote
        };
        self.node.perf.sample(kind_op, cost);
        self.flush_outbox();
    }

    fn memory_barrier(&mut self, pe: usize) {
        self.own(pe);
        self.node.ops.memory_barriers += 1;
        let now = self.hot.clock;
        let cost = self.node.port.memory_barrier(now);
        self.hot.clock = now + cost;
        self.node.perf.sample(OpKind::Fence, cost);
        let t = self.hot.clock;
        self.node.prefetch.note_memory_barrier(t);
        self.flush_outbox();
    }

    fn poll_status(&mut self, pe: usize) -> bool {
        self.own(pe);
        let now = self.hot.clock;
        let (clear, cost) = self.node.acks.poll(now);
        self.hot.clock = now + cost;
        self.node.perf.credit(CostClass::AckWait, cost);
        clear
    }

    fn wait_write_acks(&mut self, pe: usize) {
        self.own(pe);
        self.node.ops.ack_waits += 1;
        let now = self.hot.clock;
        let cost = self.node.acks.wait_clear(now);
        self.hot.clock = now + cost;
        self.node.perf.credit(CostClass::AckWait, cost);
        self.node.perf.sample(OpKind::AckWait, cost);
    }

    fn fetch(&mut self, pe: usize, va: u64) -> bool {
        self.own(pe);
        self.node.ops.fetches += 1;
        let (aidx, off) = self.split(va);
        let target = if aidx == 0 {
            pe
        } else {
            self.node.annex.entry(aidx).pe as usize
        };
        let now = self.hot.clock;
        let tlb = self.node.port.tlb_access(va);
        let mut buf = [0u8; 8];
        let dram;
        if target == self.pe {
            let clk = self.hot.clock;
            self.node.port.apply_due(clk);
            self.flush_outbox();
            dram = self.node.port.service_remote_read(off, &mut buf);
        } else {
            dram = self.rdram.get_mut(target).access(off);
            self.sh.mems[target].read(off, &mut buf);
        }
        let ready = now + tlb + self.sh.cfg.shell.prefetch_net_cy / 2 + self.one_way(target);
        let lqueue = self.link_contend(target, ready, link_occupancy_cy(8));
        let queue = self.contend(target, ready + lqueue, dram + 5);
        if target != self.pe {
            self.push(
                ready,
                target,
                Some((ready + lqueue, dram + 5)),
                Some((ready, link_occupancy_cy(8))),
                Effect::DramTouch { off },
            );
        }
        let latency = self.sh.cfg.shell.prefetch_net_cy + self.rtt(target) + dram + queue + lqueue;
        match self
            .node
            .prefetch
            .issue(now + tlb, u64::from_le_bytes(buf), latency)
        {
            Some(c) => {
                self.hot.clock = now + tlb + c;
                self.node.perf.credit(CostClass::PrefetchIssue, c);
                self.node.perf.sample(OpKind::Fetch, tlb + c);
                true
            }
            None => {
                self.hot.clock = now + tlb;
                self.node.perf.sample(OpKind::Fetch, tlb);
                false
            }
        }
    }

    fn pop_prefetch(&mut self, pe: usize) -> Result<u64, PopError> {
        self.own(pe);
        self.node.ops.pops += 1;
        let now = self.hot.clock;
        let (value, cost) = self.node.prefetch.pop(now)?;
        self.hot.clock = now + cost;
        self.node.perf.credit(CostClass::PrefetchWait, cost);
        self.node.perf.sample(OpKind::Pop, cost);
        Ok(value)
    }

    fn blt_start(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle {
        self.own(pe);
        self.node.ops.blts += 1;
        let mut data = vec![0u8; bytes as usize];
        let now = self.hot.clock;
        let timing = self.node.blt.start(now, dir, bytes);
        // The DMA stream holds its route from the moment it starts
        // injecting (after the OS startup stall) until the last byte.
        let inject = now + timing.startup_cy;
        let occ = link_occupancy_cy(bytes);
        let lqueue = self.link_contend(target_pe, inject, occ);
        let completion = now + timing.total_cy() + lqueue;
        match dir {
            BltDirection::Read => {
                self.read_target_mem(target_pe, remote_off, &mut data);
                self.poke_own(local_off, &data);
                if self.sh.cfg.link_contention && target_pe != self.pe {
                    self.push(
                        inject,
                        target_pe,
                        None,
                        Some((inject, occ)),
                        Effect::LinkReserve,
                    );
                }
            }
            BltDirection::Write => {
                self.node.port.peek_mem(local_off, &mut data);
                if target_pe == self.pe {
                    self.poke_own(remote_off, &data);
                } else {
                    self.push(
                        completion,
                        target_pe,
                        None,
                        Some((inject, occ)),
                        Effect::Poke {
                            off: remote_off,
                            data,
                        },
                    );
                }
            }
        }
        self.hot.clock = now + timing.startup_cy;
        self.node
            .perf
            .credit(CostClass::BltStartup, timing.startup_cy);
        self.node.perf.sample(OpKind::BltStart, timing.startup_cy);
        BltHandle {
            completion,
            startup_cy: timing.startup_cy,
            stream_cy: timing.stream_cy,
        }
    }

    fn blt_start_strided(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
    ) -> BltHandle {
        self.own(pe);
        self.node.ops.blts += 1;
        assert!(count > 0 && elem_bytes > 0, "strided BLT must move data");
        assert!(
            stride_bytes >= elem_bytes,
            "stride must not overlap elements"
        );
        let now = self.hot.clock;
        let mut elem = vec![0u8; elem_bytes as usize];
        let mut extra = 0u64;
        let mut deposits: Vec<(u64, Vec<u8>)> = Vec::new();
        for i in 0..count {
            let r_off = remote_off + i * stride_bytes;
            let l_off = local_off + i * elem_bytes;
            match dir {
                BltDirection::Read => {
                    self.read_target_mem(target_pe, r_off, &mut elem);
                    self.poke_own(l_off, &elem);
                }
                BltDirection::Write => {
                    self.node.port.peek_mem(l_off, &mut elem);
                    if target_pe == self.pe {
                        self.poke_own(r_off, &elem);
                    } else {
                        deposits.push((r_off, elem.clone()));
                    }
                }
            }
            let line = r_off & !self.line_mask();
            let dram = if target_pe == self.pe {
                self.node.port.dram_mut().access(line)
            } else {
                let d = self.rdram.get_mut(target_pe).access(line);
                self.push(now, target_pe, None, None, Effect::DramTouch { off: line });
                d
            };
            extra += dram.saturating_sub(self.sh.cfg.mem.dram.page_hit_cy);
        }
        let timing = self.node.blt.start(now, dir, count * elem_bytes);
        let inject = now + timing.startup_cy;
        let occ = link_occupancy_cy(count * elem_bytes);
        let lqueue = self.link_contend(target_pe, inject, occ);
        let completion = now + timing.total_cy() + extra + lqueue;
        if self.sh.cfg.link_contention && target_pe != self.pe {
            self.push(
                inject,
                target_pe,
                None,
                Some((inject, occ)),
                Effect::LinkReserve,
            );
        }
        for (off, data) in deposits {
            self.push(
                completion,
                target_pe,
                None,
                None,
                Effect::Poke { off, data },
            );
        }
        self.hot.clock = now + timing.startup_cy;
        self.node
            .perf
            .credit(CostClass::BltStartup, timing.startup_cy);
        self.node.perf.sample(OpKind::BltStart, timing.startup_cy);
        BltHandle {
            completion,
            startup_cy: timing.startup_cy,
            stream_cy: timing.stream_cy + extra,
        }
    }

    fn blt_wait(&mut self, pe: usize, handle: BltHandle) {
        self.own(pe);
        let now = self.hot.clock;
        self.hot.clock = self.hot.clock.max(handle.completion);
        let waited = self.hot.clock - now;
        self.node.perf.credit(CostClass::BltWait, waited);
        self.node.perf.sample(OpKind::BltWait, waited);
    }

    fn msg_send(&mut self, pe: usize, dst: usize, words: [u64; 4]) {
        self.own(pe);
        self.node.ops.msgs_sent += 1;
        self.hot.clock += self.sh.cfg.shell.msg_send_cy;
        let send_cy = self.sh.cfg.shell.msg_send_cy;
        self.node.perf.credit(CostClass::MsgSend, send_cy);
        self.node.perf.sample(OpKind::MsgSend, send_cy);
        let sent = self.hot.clock;
        let lqueue = self.link_contend(dst, sent, link_occupancy_cy(32));
        let arrival = sent + lqueue + self.one_way(dst);
        let msg = Message {
            from: pe as u32,
            words,
            arrival,
        };
        if dst == self.pe {
            self.node.msgq.deliver(msg);
        } else {
            self.push(
                arrival,
                dst,
                None,
                Some((sent, link_occupancy_cy(32))),
                Effect::Msg(msg),
            );
        }
    }

    fn msg_receive(&mut self, pe: usize) -> Option<Message> {
        self.own(pe);
        let now = self.hot.clock;
        self.node.ops.msgs_received += 1;
        let (msg, cost) = self.node.msgq.receive(now)?;
        self.hot.clock = now + cost;
        self.node.perf.credit(CostClass::MsgRecv, cost);
        self.node.perf.sample(OpKind::MsgRecv, cost);
        Some(msg)
    }

    fn fetch_inc(&mut self, pe: usize, target_pe: usize, reg: usize) -> u64 {
        self.own(pe);
        self.node.ops.atomics += 1;
        let now = self.hot.clock;
        let shell = self.sh.cfg.shell;
        let ready = now + shell.remote_read_shell_cy / 2 + self.one_way(target_pe);
        let lqueue = self.link_contend(target_pe, ready, link_occupancy_cy(8));
        let queue = self.contend(target_pe, ready + lqueue, 20);
        let cost =
            shell.remote_read_shell_cy + self.rtt(target_pe) + shell.amo_extra_cy + queue + lqueue;
        self.hot.clock += cost;
        let rtt = self.rtt(target_pe);
        let p = &mut self.node.perf;
        p.credit(CostClass::ShellLaunch, shell.remote_read_shell_cy);
        p.credit(CostClass::NetHop, rtt);
        p.credit(CostClass::Amo, shell.amo_extra_cy);
        p.credit(CostClass::Contention, queue + lqueue);
        p.sample(OpKind::FetchInc, cost);
        if target_pe == self.pe {
            self.node.fetchinc.fetch_inc(reg)
        } else {
            let value = self.rfinc.get_mut(target_pe).fetch_inc(reg);
            self.push(
                ready,
                target_pe,
                Some((ready + lqueue, 20)),
                Some((ready, link_occupancy_cy(8))),
                Effect::FetchInc { reg },
            );
            value
        }
    }

    fn swap_load(&mut self, pe: usize, value: u64) {
        self.own(pe);
        self.node.swap.load(value);
    }

    fn atomic_swap(&mut self, pe: usize, va: u64) -> u64 {
        self.own(pe);
        self.node.ops.atomics += 1;
        let (aidx, off) = self.split(va);
        let target = if aidx == 0 {
            pe
        } else {
            let entry = self.node.annex.entry(aidx);
            assert_eq!(
                entry.func,
                FuncCode::Swap,
                "annex entry must select the swap flavour"
            );
            entry.pe as usize
        };
        assert_eq!(
            target, self.pe,
            "atomic_swap on a remote PE is not supported inside a sharded phase \
             (swap-based locks serialize; take them through the direct engine)"
        );
        let clk = self.hot.clock;
        self.node.port.apply_due(clk);
        self.flush_outbox();
        let mut buf = [0u8; 8];
        let dram = self.node.port.service_remote_read(off, &mut buf);
        let old_mem = u64::from_le_bytes(buf);
        let to_mem = self.node.swap.exchange(old_mem);
        self.node
            .port
            .service_remote_write(off, &to_mem.to_le_bytes(), None);
        let now = self.hot.clock;
        let shell = self.sh.cfg.shell;
        let ready = now + shell.remote_read_shell_cy / 2 + self.one_way(target);
        let lqueue = self.link_contend(target, ready, link_occupancy_cy(8));
        let queue = self.contend(target, ready + lqueue, dram + 20);
        let cost = shell.remote_read_shell_cy
            + self.rtt(target)
            + shell.amo_extra_cy
            + dram
            + queue
            + lqueue;
        self.hot.clock += cost;
        let rtt = self.rtt(target);
        let p = &mut self.node.perf;
        p.credit(CostClass::ShellLaunch, shell.remote_read_shell_cy);
        p.credit(CostClass::NetHop, rtt);
        p.credit(CostClass::Amo, shell.amo_extra_cy);
        p.credit(CostClass::RemoteDram, dram);
        p.credit(CostClass::Contention, queue + lqueue);
        p.sample(OpKind::Swap, cost);
        old_mem
    }

    fn peek_mem(&self, pe: usize, off: u64, buf: &mut [u8]) {
        self.read_target_mem(pe, off, buf);
    }

    fn poke_mem(&mut self, pe: usize, off: u64, bytes: &[u8]) {
        assert_eq!(
            pe, self.pe,
            "poke_mem on a remote PE is not supported inside a sharded phase \
             (it could not invalidate the target's cache deterministically)"
        );
        self.poke_own(off, bytes);
    }

    fn op_stats(&self, pe: usize) -> OpStats {
        self.own(pe);
        self.node.ops
    }

    fn arrival_time_of(&self, pe: usize, target_bytes: u64) -> Option<u64> {
        self.own(pe);
        self.node.arrival_time_of(target_bytes)
    }

    fn clear_incoming(&mut self, pe: usize) {
        self.own(pe);
        self.node.incoming.clear();
    }

    fn as_machine(&mut self) -> Option<&mut Machine> {
        None
    }
}

/// Per-worker effect logs plus the merge's sort keys. The machine owns
/// one of these and reuses it for every phase: logs are cleared after
/// the merge but keep their capacity, so a steady phase loop stops
/// allocating for log growth after its first phase.
#[derive(Debug, Default)]
pub(crate) struct EffectLogs {
    /// One log per worker (one under [`PhaseDriver::Seq`]); a worker
    /// appends its shards' effects in shard order.
    logs: Vec<Vec<TimedEffect>>,
    /// Index of each log's first record in the logs' concatenation.
    starts: Vec<usize>,
    /// `(time, src, index)` merge keys, where `index` is the record's
    /// position in the concatenation of `logs`.
    keys: Vec<(u64, u32, u32)>,
}

impl EffectLogs {
    /// The logs of workers `0..n`, created on first use.
    fn workers(&mut self, n: usize) -> &mut [Vec<TimedEffect>] {
        if self.logs.len() < n {
            self.logs.resize_with(n, Vec::new);
        }
        &mut self.logs[..n]
    }

    /// Sorts compact keys instead of the records themselves.
    ///
    /// The key order equals `(time, src, issue order)`: every shard runs
    /// on one worker and appends to that worker's log in push order, so
    /// all effects of one source sit in one log and their `index` grows
    /// with issue order. Keys are unique (`index` is), so the unstable
    /// sort is deterministic.
    fn sort_keys(&mut self) {
        self.keys.clear();
        self.starts.clear();
        let mut base = 0;
        for log in &self.logs {
            self.starts.push(base);
            self.keys.extend(log.iter().enumerate().map(|(i, e)| {
                let index = u32::try_from(base + i).expect("fewer than 2^32 effects per phase");
                (e.time, e.src, index)
            }));
            base += log.len();
        }
        self.keys.sort_unstable();
    }

    /// The record at `index` in the logs' concatenation.
    fn get(&self, index: u32) -> &TimedEffect {
        let i = index as usize;
        let w = self.starts.partition_point(|&s| s <= i) - 1;
        &self.logs[w][i - self.starts[w]]
    }

    /// Empties every log, keeping its capacity.
    fn clear(&mut self) {
        for log in &mut self.logs {
            log.clear();
        }
    }
}

fn run_shard<T>(
    pe: usize,
    node: &mut Node,
    hot: &mut NodeHot,
    sh: &PhaseShared,
    state: &mut T,
    f: &(impl Fn(&mut dyn MachineOps, usize, &mut T) + Sync),
    log: &mut Vec<TimedEffect>,
) {
    let mut shard = PhasePe::new(pe, node, hot, sh, log);
    f(&mut shard, pe, state);
}

fn run_parallel<T: Send>(
    nodes: &mut [Node],
    hot: &mut [NodeHot],
    states: &mut [T],
    sh: &PhaseShared,
    threads: usize,
    f: &(impl Fn(&mut dyn MachineOps, usize, &mut T) + Sync),
    logs: &mut EffectLogs,
) {
    // Partition the torus into canonical sub-cubes — the same shapes the
    // gang scheduler allocates — and give each worker one sub-cube. A
    // worker's PEs are topological neighbours, so the snapshot lines its
    // shards touch stay hot within one worker instead of striding the
    // whole machine. Each worker receives the `&mut` borrows of its
    // sub-cube's PEs in sub-cube order; the arrays themselves never move
    // (merge keys carry real PE ids, so the order cannot affect results).
    let mut slots: Vec<_> = nodes
        .iter_mut()
        .zip(hot.iter_mut())
        .zip(states.iter_mut())
        .map(Some)
        .collect();
    let work: Vec<Vec<_>> = subcube::partition(sh.torus.config().dims, threads)
        .iter()
        .map(|b| {
            b.coords()
                .into_iter()
                .map(|c| {
                    let pe = sh.torus.node_of(c) as usize;
                    let ((node, hot), state) =
                        slots[pe].take().expect("sub-cubes partition the torus");
                    (pe, node, hot, state)
                })
                .collect()
        })
        .collect();
    debug_assert!(slots.iter().all(Option::is_none));
    let logs = logs.workers(work.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = work
            .into_iter()
            .zip(logs)
            .map(|(pes, log)| {
                s.spawn(move || {
                    for (pe, node, hot, state) in pes {
                        run_shard(pe, node, hot, sh, state, f, log);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    });
}

impl Machine {
    /// Runs one sharded SPMD phase: the closure runs once per PE against
    /// a [`Cpu`] bound to that PE's shard, sequentially or on threads
    /// per `driver` — the results are bit-identical either way.
    ///
    /// See the [module docs](self) for the execution model and the
    /// bulk-synchronous contract phase closures must follow.
    pub fn sharded_phase(&mut self, driver: PhaseDriver, f: impl Fn(&mut Cpu) + Sync) {
        let mut unit = vec![(); self.nodes()];
        self.sharded_phase_zip(driver, &mut unit, |ops, pe, ()| {
            let mut cpu = Cpu::new(ops, pe);
            f(&mut cpu);
        });
    }

    /// Runs one sharded SPMD phase with per-PE state: `states[pe]` is
    /// handed to the closure alongside PE `pe`'s shard. This is the
    /// building block runtimes (Split-C) use to carry their own per-node
    /// structures through a parallel phase.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the number of PEs.
    pub fn sharded_phase_zip<T: Send>(
        &mut self,
        driver: PhaseDriver,
        states: &mut [T],
        f: impl Fn(&mut dyn MachineOps, usize, &mut T) + Sync,
    ) {
        let n = self.nodes();
        assert_eq!(
            states.len(),
            n,
            "need exactly one state per PE ({} for {n} PEs)",
            states.len()
        );
        self.normalize_for_phase();
        let mut logs = std::mem::take(&mut self.effect_logs);
        {
            let (cfg, torus, nodes, hot, links) = self.phase_parts();
            let sh = PhaseShared::capture(cfg, torus, nodes, hot, links);
            let threads = driver.threads_for(n);
            if threads <= 1 {
                let log = &mut logs.workers(1)[0];
                for (pe, ((node, hot), state)) in nodes
                    .iter_mut()
                    .zip(hot.iter_mut())
                    .zip(states.iter_mut())
                    .enumerate()
                {
                    run_shard(pe, node, hot, &sh, state, &f, log);
                }
            } else {
                run_parallel(nodes, hot, states, &sh, threads, &f, &mut logs);
            }
        }
        logs.sort_keys();
        self.apply_effects(&logs);
        logs.clear();
        self.effect_logs = logs;
    }

    /// Applies merged shard effects to the real nodes, in key order,
    /// reading each record in place in its log. Consecutive records for
    /// the same target are applied as one run against a single node
    /// borrow, so a burst of effects landing on one PE (the common shape
    /// after the sort) resolves the node once per run instead of once per
    /// record.
    fn apply_effects(&mut self, logs: &EffectLogs) {
        let contention = self.config().contention;
        let link_contention = self.config().link_contention;
        let line = self.config().mem.l1.line as u64;
        let mut rest = &logs.keys[..];
        while let Some(&(_, _, first)) = rest.first() {
            let t = logs.get(first).target;
            let len = rest
                .iter()
                .position(|&(_, _, i)| logs.get(i).target != t)
                .unwrap_or(rest.len());
            let (run, tail) = rest.split_at(len);
            rest = tail;
            let t = t as usize;
            if link_contention {
                for &(_, _, i) in run {
                    let e = logs.get(i);
                    if let Some((ready, occ)) = e.link {
                        self.replay_link(e.src as usize, t, ready, occ);
                    }
                }
            }
            let (node, hot) = self.node_and_hot_mut(t);
            for &(_, _, i) in run {
                apply_effect(node, hot, logs.get(i), line, contention);
            }
        }
    }
}

/// Applies one merged shard effect to its target node.
fn apply_effect(node: &mut Node, hot: &mut NodeHot, e: &TimedEffect, line: u64, contention: bool) {
    match &e.eff {
        Effect::Write {
            off,
            data,
            mask,
            arrival,
        } => {
            let _ = node
                .port
                .service_remote_write(*off, &data[..line as usize], *mask);
            if let Some(arrival) = arrival {
                node.incoming.push(*arrival);
            }
        }
        Effect::Poke { off, data } => {
            node.port.poke_mem(*off, data);
            let mut a = off & !(line - 1);
            while a < off + data.len() as u64 {
                node.port.l1_mut().invalidate(a);
                a += line;
            }
        }
        Effect::DramTouch { off } => {
            let _ = node.port.dram_mut().access(*off);
        }
        Effect::Msg(msg) => node.msgq.deliver(*msg),
        Effect::FetchInc { reg } => {
            let _ = node.fetchinc.fetch_inc(*reg);
        }
        Effect::LinkReserve => {}
    }
    if contention {
        if let Some((ready, occ)) = e.busy {
            let start = ready.max(hot.shell_busy_until);
            hot.shell_busy_until = start + occ;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn fingerprint(m: &Machine) -> Vec<u64> {
        let mut fp = Vec::new();
        for pe in 0..m.nodes() {
            fp.push(m.clock(pe));
            let mut buf = vec![0u8; 4096];
            m.peek_mem(pe, 0, &mut buf);
            fp.push(buf.iter().fold(0u64, |h, &b| {
                h.wrapping_mul(1099511628211).wrapping_add(b as u64)
            }));
        }
        fp
    }

    /// A communication-heavy phase body: every PE stores a word to its
    /// right neighbour, fences, and reads a word from its left.
    fn exchange(cpu: &mut Cpu) {
        let pe = cpu.pe();
        let n = cpu.nodes();
        let right = ((pe + 1) % n) as u32;
        cpu.annex_set(1, right, t3d_shell::FuncCode::Uncached);
        let va = cpu.va(1, 0x1000);
        cpu.st8(va, (pe as u64) << 8);
        cpu.memory_barrier();
        cpu.wait_write_acks();
        cpu.annex_set(1, right, t3d_shell::FuncCode::Uncached);
        let _ = cpu.ld8(cpu.va(1, 0x2000));
    }

    #[test]
    fn seq_and_par_shards_are_bit_identical() {
        let run = |driver: PhaseDriver| {
            let mut m = Machine::new(MachineConfig::t3d(8));
            for _ in 0..3 {
                m.sharded_phase(driver, exchange);
                m.barrier_all();
            }
            fingerprint(&m)
        };
        let seq = run(PhaseDriver::Seq);
        for threads in [2, 3, 8] {
            assert_eq!(
                seq,
                run(PhaseDriver::Par(threads)),
                "parallel shards with {threads} threads diverged from the oracle"
            );
        }
    }

    #[test]
    fn link_contended_shards_stay_bit_identical() {
        // Link-contention timing rides the same effect-merge machinery:
        // queueing is computed against the phase-start link snapshot in
        // each shard and replayed at merge, so Seq remains a bit-exact
        // oracle for Par at any thread count.
        let run = |driver: PhaseDriver| {
            let mut cfg = MachineConfig::t3d(8);
            cfg.link_contention = true;
            let mut m = Machine::new(cfg);
            for _ in 0..2 {
                m.sharded_phase(driver, exchange);
                m.barrier_all();
            }
            fingerprint(&m)
        };
        let seq = run(PhaseDriver::Seq);
        for threads in [2, 3, 8] {
            assert_eq!(
                seq,
                run(PhaseDriver::Par(threads)),
                "link-contended shards with {threads} threads diverged"
            );
        }
    }

    #[test]
    fn sharded_writes_land_after_merge() {
        let mut m = Machine::new(MachineConfig::t3d(4));
        m.sharded_phase(PhaseDriver::Par(4), |cpu| {
            let right = ((cpu.pe() + 1) % cpu.nodes()) as u32;
            cpu.annex_set(1, right, t3d_shell::FuncCode::Uncached);
            let va = cpu.va(1, 0x500);
            cpu.st8(va, 7000 + cpu.pe() as u64);
            cpu.memory_barrier();
            cpu.wait_write_acks();
        });
        for pe in 0..4usize {
            let left = (pe + 3) % 4;
            assert_eq!(m.peek8(pe, 0x500), 7000 + left as u64);
        }
    }

    #[test]
    fn sharded_messages_and_fetch_inc_merge() {
        let mut m = Machine::new(MachineConfig::t3d(4));
        m.sharded_phase(PhaseDriver::Par(2), |cpu| {
            let pe = cpu.pe();
            if pe != 0 {
                // Everyone takes a ticket at PE 0 and messages it.
                let _ = cpu.fetch_inc(0, 0);
                cpu.msg_send(0, [pe as u64, 0, 0, 0]);
            }
        });
        assert_eq!(m.node(0).fetchinc.get(0), 3, "three merged increments");
        m.advance(0, 1_000_000);
        let mut froms = Vec::new();
        while let Some(msg) = m.msg_receive(0) {
            froms.push(msg.from);
        }
        froms.sort_unstable();
        assert_eq!(froms, vec![1, 2, 3]);
    }

    #[test]
    fn sharded_phase_matches_on_fetch_and_blt() {
        let body = |cpu: &mut Cpu| {
            let pe = cpu.pe();
            let n = cpu.nodes();
            let right = ((pe + 1) % n) as u32;
            cpu.annex_set(1, right, t3d_shell::FuncCode::Uncached);
            for i in 0..4u64 {
                cpu.fetch(cpu.va(1, 0x3000 + i * 8));
            }
            cpu.memory_barrier();
            for _ in 0..4 {
                let _ = cpu.pop_prefetch();
            }
            let h = cpu.blt_start(
                t3d_shell::blt::BltDirection::Write,
                0x4000,
                right as usize,
                0x5000,
                256,
            );
            cpu.blt_wait(h);
        };
        let run = |driver: PhaseDriver| {
            let mut m = Machine::new(MachineConfig::t3d(4));
            for pe in 0..4 {
                for i in 0..32u64 {
                    m.poke8(pe, 0x4000 + i * 8, (pe as u64) * 1000 + i);
                }
            }
            m.sharded_phase(driver, body);
            m.barrier_all();
            fingerprint(&m)
        };
        assert_eq!(run(PhaseDriver::Seq), run(PhaseDriver::Par(4)));
    }

    #[test]
    #[should_panic(expected = "may only drive its own PE")]
    fn shard_rejects_foreign_pe() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        m.sharded_phase(PhaseDriver::Seq, |cpu| {
            if cpu.pe() == 0 {
                let _ = cpu.ops().clock(1);
            }
        });
    }

    #[test]
    fn driver_from_env_parses() {
        // No env mutation (tests run threaded): just exercise the
        // constructors and clamping.
        assert_eq!(PhaseDriver::Seq.threads_for(8), 1);
        assert_eq!(PhaseDriver::Par(0).threads_for(8), 1);
        assert_eq!(PhaseDriver::Par(64).threads_for(8), 8);
        assert_eq!(PhaseDriver::Par(3).threads_for(8), 3);
    }

    #[test]
    fn overlay_reads_fall_through_to_the_snapshot() {
        let base = vec![10u64, 20, 30];
        let o = Overlay::new(&base);
        assert_eq!((*o.get(0), *o.get(1), *o.get(2)), (10, 20, 30));
        assert!(o.touched.is_empty(), "reads must not materialize entries");
    }

    /// A value that counts how often it is cloned.
    struct Counted(u64, std::rc::Rc<std::cell::Cell<usize>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.1.set(self.1.get() + 1);
            Counted(self.0, std::rc::Rc::clone(&self.1))
        }
    }

    #[test]
    fn overlay_copies_an_entry_once_on_first_mutation() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let base: Vec<Counted> = (0..4).map(|v| Counted(v, clones.clone())).collect();
        clones.set(0);
        let mut o = Overlay::new(&base);
        o.get_mut(2).0 += 100;
        assert_eq!(clones.get(), 1, "the first mutation copies the entry in");
        o.get_mut(2).0 += 1;
        assert_eq!(o.get(2).0, 103, "later reads see the mutated value");
        assert_eq!(o.get(1).0, 1, "untouched entries still read the snapshot");
        assert_eq!(clones.get(), 1, "later mutations reuse the copy");
        assert_eq!(o.touched.len(), 1);
        assert_eq!(base[2].0, 2, "the shared snapshot is never written");
    }

    #[test]
    fn ring_exchange_materializes_only_touched_entries() {
        // Drive each shard of a 256-PE ring exchange by hand and inspect
        // its overlays: one right-hand target means one DRAM and one
        // shell entry, the route's links, and one fetch&inc entry.
        for contended in [false, true] {
            let cfg = if contended {
                MachineConfig::t3d_link_contended(256)
            } else {
                MachineConfig::t3d(256)
            };
            let mut m = Machine::new(cfg);
            m.normalize_for_phase();
            let (cfg, torus, nodes, hot, links) = m.phase_parts();
            let sh = PhaseShared::capture(cfg, torus, nodes, hot, links);
            let n = nodes.len();
            let mut log = Vec::new();
            for (pe, (node, hot)) in nodes.iter_mut().zip(hot.iter_mut()).enumerate() {
                let right = (pe + 1) % n;
                let mut shard = PhasePe::new(pe, node, hot, &sh, &mut log);
                let mut cpu = Cpu::new(&mut shard, pe);
                exchange(&mut cpu);
                let first = cpu.fetch_inc(right, 0);
                assert_eq!(cpu.fetch_inc(right, 0), first + 1);
                let hops = sh.torus.route(pe as u32, right as u32).len() - 1;
                assert_eq!(shard.rdram.touched.len(), 1, "PE {pe}");
                assert_eq!(shard.rfinc.touched.len(), 1, "PE {pe}");
                assert_eq!(shard.rbusy.touched.len(), usize::from(contended));
                assert_eq!(shard.rlink.touched.len(), if contended { hops } else { 0 });
            }
        }
    }

    /// Phase body A: remote loads (cached and uncached) that move target
    /// DRAM pages, then remote stores to four lines whose page penalty
    /// peeks the moved page state and whose retirement takes the
    /// outbox-flush path, then page-missing prefetches from a third PE
    /// that queue on its shell faster than the pops drain them.
    fn pin_loads_stores(cpu: &mut Cpu, round: u64) {
        let pe = cpu.pe();
        let n = cpu.nodes();
        let (right, far, left) = ((pe + 1) % n, (pe + 9) % n, (pe + n - 1) % n);
        cpu.annex_set(1, right as u32, t3d_shell::FuncCode::Uncached);
        let _ = cpu.ld8(cpu.va(1, 0x40000 + (pe as u64 % 8) * 64));
        for k in 0..4u64 {
            let va = cpu.va(1, 0x1000 + round * 0x100 + k * 32);
            cpu.st8(va, (pe as u64) << 16 | round << 8 | k);
        }
        cpu.memory_barrier();
        cpu.wait_write_acks();
        cpu.annex_set(2, far as u32, t3d_shell::FuncCode::Cached);
        let slot = (pe as u64 % 4) * 8;
        let cached = cpu.ld8(cpu.va(2, 0x2000 + slot)) ^ cpu.ld8(cpu.va(2, 0x2020 + slot));
        cpu.annex_set(3, left as u32, t3d_shell::FuncCode::Uncached);
        for i in 0..3u64 {
            cpu.fetch(cpu.va(3, 0x2100 + i * 0x4000));
        }
        cpu.memory_barrier();
        let mut sum = cached;
        for _ in 0..3 {
            sum = sum.wrapping_add(cpu.pop_prefetch().expect("prefetch issued"));
        }
        cpu.poke8(0x7000 + round * 8, sum);
        stamp_clock(cpu, round);
    }

    /// Phase body B: two fetch&increment bumps at each of two remote
    /// targets, contiguous and strided BLT reads and writes, and two
    /// message sends. A blocking load issued right behind a 64 KB BLT
    /// write on the same route queues behind the stream on the links, and
    /// the strided BLTs walk pages no one has opened, so their page state
    /// evolves within the shard.
    fn pin_atomics_blt_msgs(cpu: &mut Cpu) {
        let pe = cpu.pe();
        let n = cpu.nodes();
        let mut tickets = 0u64;
        for (target, reg) in [((pe + 1) % n, 0), ((pe + 9) % n, 1)] {
            for _ in 0..2 {
                tickets = tickets
                    .wrapping_mul(31)
                    .wrapping_add(cpu.fetch_inc(target, reg));
            }
        }
        use t3d_shell::blt::BltDirection;
        let h = cpu.blt_start(BltDirection::Read, 0x6000, (pe + 3) % n, 0x3000, 256);
        cpu.blt_wait(h);
        let big = cpu.blt_start(BltDirection::Write, 0x20000, (pe + 5) % n, 0x10000, 0x10000);
        cpu.annex_set(1, ((pe + 5) % n) as u32, t3d_shell::FuncCode::Uncached);
        tickets ^= cpu.ld8(cpu.va(1, 0x3000));
        // The stream outlasts the load; stamp before waiting it out.
        stamp_clock(cpu, 4);
        cpu.blt_wait(big);
        let h = cpu.blt_start(BltDirection::Write, 0x4000, (pe + 5) % n, 0x5000, 256);
        cpu.blt_wait(h);
        cpu.poke8(0x7100, tickets);
        let h = cpu.blt_start_strided(BltDirection::Read, 0x6800, (pe + 2) % n, 0x30000, 8, 8, 64);
        cpu.blt_wait(h);
        let h = cpu.blt_start_strided(BltDirection::Write, 0x4000, (pe + 6) % n, 0x38000, 8, 8, 32);
        cpu.blt_wait(h);
        cpu.msg_send((pe + 7) % n, [pe as u64, 1, 2, 3]);
        cpu.msg_send((pe + 11) % n, [pe as u64, 4, 5, 6]);
        stamp_clock(cpu, 2);
    }

    /// Phase body C: drain both messages, then read back a word the left
    /// neighbour stored in phase A.
    fn pin_drain(cpu: &mut Cpu) {
        let pe = cpu.pe();
        let n = cpu.nodes();
        let mut acc = 0u64;
        for _ in 0..2 {
            let msg = loop {
                match cpu.msg_receive() {
                    Some(m) => break m,
                    None => cpu.advance(500),
                }
            };
            acc = acc
                .wrapping_mul(131)
                .wrapping_add(msg.words[0] ^ u64::from(msg.from));
        }
        cpu.annex_set(1, ((pe + 1) % n) as u32, t3d_shell::FuncCode::Uncached);
        acc ^= cpu.ld8(cpu.va(1, 0x1000));
        cpu.poke8(0x7200, acc);
        stamp_clock(cpu, 3);
    }

    /// Records the PE's clock at the end of phase `slot` in its own
    /// memory, so the fingerprint sees per-PE timing before the barrier
    /// evens it out.
    fn stamp_clock(cpu: &mut Cpu, slot: u64) {
        let now = cpu.clock();
        cpu.poke8(0x7800 + slot * 8, now);
    }

    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            (h ^ w).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Runs the pinned 64-PE program (shell and link contention on)
    /// under `driver` and returns `[final clocks, memory (including the
    /// per-phase clock stamps), fetch&inc registers, shell-busy
    /// clocks]`, each folded to one FNV word.
    fn pinned_program(driver: PhaseDriver) -> [u64; 4] {
        let mut m = Machine::new(MachineConfig::t3d_link_contended(64));
        for pe in 0..64 {
            for i in 0..128u64 {
                m.poke8(pe, 0x2000 + i * 8, (pe as u64) * 10_007 + i);
                m.poke8(pe, 0x3000 + i * 8, (pe as u64) * 20_011 + i);
                m.poke8(pe, 0x4000 + i * 8, (pe as u64) * 30_013 + i);
            }
        }
        for round in 0..2 {
            m.sharded_phase(driver, |cpu| pin_loads_stores(cpu, round));
            m.barrier_all();
        }
        m.sharded_phase(driver, pin_atomics_blt_msgs);
        m.barrier_all();
        m.sharded_phase(driver, pin_drain);
        let n = m.nodes();
        let mem = (0..n).map(|pe| {
            let mut buf = vec![0u8; 0x8000];
            m.peek_mem(pe, 0, &mut buf);
            fnv(buf
                .chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap())))
        });
        let mem = fnv(mem.collect::<Vec<_>>());
        let finc =
            fnv((0..n).flat_map(|pe| [m.node(pe).fetchinc.get(0), m.node(pe).fetchinc.get(1)]));
        let clocks = fnv((0..n).map(|pe| m.clock(pe)));
        let busy = fnv((0..n)
            .map(|pe| m.node_and_hot_mut(pe).1.shell_busy_until)
            .collect::<Vec<_>>());
        [clocks, mem, finc, busy]
    }

    /// The Seq fingerprint of [`pinned_program`], recorded before the
    /// shard overlays became copy-on-write. Any change here means the
    /// sharded engine's simulated behaviour moved.
    const PINNED_SEQ: [u64; 4] = [
        0xbc28_e28c_9faf_9e25,
        0x9016_2e22_5c3c_f0e5,
        0x8b58_7018_814f_4325,
        0x1aab_4dc6_5b0f_ada5,
    ];

    #[test]
    fn pinned_program_is_unchanged_under_every_driver() {
        let seq = pinned_program(PhaseDriver::Seq);
        assert_eq!(seq, PINNED_SEQ, "Seq fingerprint moved: {seq:#018x?}");
        for threads in [2, 3, 8] {
            assert_eq!(
                pinned_program(PhaseDriver::Par(threads)),
                seq,
                "Par({threads}) diverged from the Seq oracle"
            );
        }
    }
}
