//! The machine: N nodes wired through the shell and torus, in
//! deterministic virtual time.

use crate::config::MachineConfig;
use crate::node::{Node, NodeHot};
use crate::phase::EffectLogs;
use crate::trace::{TraceEvent, TraceKind, Tracer};
use t3d_memsys::{RemoteSink, WriteTarget, MAX_LINE};
use t3d_perf::{
    chrome_trace, CostClass, Ledger, OpHists, OpKind, PePerf, PerfMode, PerfReport, PhaseLog,
    Registry, Span,
};
use t3d_shell::blt::BltDirection;
use t3d_shell::{AnnexEntry, BarrierUnit, FuncCode, Message, PopError};
use t3d_torus::Torus;

/// Cycles a transfer of `bytes` occupies each link of its route: the
/// T3D moves two bytes per link per cycle, and even a one-byte request
/// holds the link for a cycle.
pub(crate) fn link_occupancy_cy(bytes: u64) -> u64 {
    bytes.div_ceil(2).max(1)
}

/// Error from [`Machine::try_new`]: the torus construction and the
/// sub-cube machinery (shard partition, buddy allocation) require a
/// power-of-two node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSizeError {
    nodes: u32,
}

impl std::fmt::Display for MachineSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "machine size must be a power of two >= 1, got {} nodes",
            self.nodes
        )
    }
}

impl std::error::Error for MachineSizeError {}

/// Handle to an in-flight BLT transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BltHandle {
    /// Virtual time at which the DMA completes.
    pub completion: u64,
    /// Cycles the initiating processor was stalled in the OS invocation.
    pub startup_cy: u64,
    /// Cycles of overlappable DMA streaming.
    pub stream_cy: u64,
}

/// The simulated CRAY-T3D.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    torus: Torus,
    nodes: Vec<Node>,
    /// Struct-of-arrays hot state: one small record per PE (clock, shell
    /// occupancy) so the whole-machine scans stay on contiguous cache
    /// lines.
    hot: Vec<NodeHot>,
    /// Per-directed-link occupancy-until clocks (indexed by
    /// [`Torus::link_id`]); all zero unless `cfg.link_contention`.
    link_busy: Vec<u64>,
    barrier: BarrierUnit,
    tracer: Tracer,
    perf_mode: PerfMode,
    phase_log: PhaseLog,
    /// Sharded-phase effect logs, kept between phases for their capacity.
    pub(crate) effect_logs: EffectLogs,
}

impl Machine {
    /// Builds a machine from a configuration. Profiling defaults to the
    /// `T3D_PERF` environment variable (off when unset), mirroring the
    /// sanitizer's `T3D_SAN` convention.
    ///
    /// # Panics
    ///
    /// Panics if the node count is not a power of two ≥ 1 (see
    /// [`Machine::try_new`] for the non-panicking form).
    pub fn new(cfg: MachineConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a machine from a configuration, rejecting node counts that
    /// are not a power of two ≥ 1 with a typed error instead of a
    /// downstream panic in the torus or sub-cube machinery.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, MachineSizeError> {
        let n_cfg = cfg.nodes();
        if n_cfg == 0 || !n_cfg.is_power_of_two() {
            return Err(MachineSizeError { nodes: n_cfg });
        }
        let torus = Torus::new(cfg.torus);
        let n = torus.nodes();
        let mut m = Machine {
            nodes: (0..n).map(|pe| Node::new(&cfg, pe)).collect(),
            hot: vec![NodeHot::default(); n as usize],
            link_busy: vec![0; torus.num_links()],
            barrier: BarrierUnit::new(&cfg.shell, n as usize),
            torus,
            cfg,
            tracer: Tracer::default(),
            perf_mode: PerfMode::Off,
            phase_log: PhaseLog::default(),
            effect_logs: EffectLogs::default(),
        };
        let mode = PerfMode::effective(PerfMode::Off);
        if mode.counters() {
            m.set_perf_mode(mode);
        }
        Ok(m)
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of processing elements.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The torus geometry.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// Immutable access to a node (instrumentation and tests).
    pub fn node(&self, pe: usize) -> &Node {
        &self.nodes[pe]
    }

    /// Mutable access to a node (advanced probes and setup).
    pub fn node_mut(&mut self, pe: usize) -> &mut Node {
        &mut self.nodes[pe]
    }

    /// Nanoseconds per cycle.
    pub fn cycle_ns(&self) -> f64 {
        self.cfg.cycle_ns()
    }

    /// A node's virtual time, in cycles.
    pub fn clock(&self, pe: usize) -> u64 {
        self.hot[pe].clock
    }

    /// Charges `cycles` of computation to a node.
    pub fn advance(&mut self, pe: usize, cycles: u64) {
        self.hot[pe].clock += cycles;
        self.nodes[pe].perf.credit(CostClass::Compute, cycles);
    }

    /// Number of physical-address bits forming the local offset.
    pub fn offset_bits(&self) -> u32 {
        self.cfg.mem.offset_bits
    }

    /// Builds a virtual address from an annex index and local offset.
    pub fn va(&self, annex_idx: usize, offset: u64) -> u64 {
        t3d_shell::annex::pa_with_annex(offset, annex_idx, self.offset_bits())
    }

    /// Splits a virtual address into `(annex index, local offset)`.
    pub fn split_va(&self, va: u64) -> (usize, u64) {
        t3d_shell::annex::split_pa(va, self.offset_bits())
    }

    fn line_mask(&self) -> u64 {
        self.cfg.mem.l1.line as u64 - 1
    }

    /// Integer round-trip latency: exactly twice the rounded one-way
    /// latency, so `rtt_cy(a,b) == 2 * one_way_cy(a,b)` even when the
    /// fractional one-way lands on a half cycle (2.5 rounds to 3, and
    /// the round trip is 6, not `5.0.round()`).
    fn rtt_cy(&self, a: usize, b: usize) -> u64 {
        2 * self.one_way_cy(a, b)
    }

    fn one_way_cy(&self, a: usize, b: usize) -> u64 {
        self.torus.one_way_cy(a as u32, b as u32).round() as u64
    }

    /// Enables event tracing with a buffer of `cap` events.
    pub fn enable_trace(&mut self, cap: usize) {
        self.tracer.enable(cap);
    }

    /// Disables event tracing.
    pub fn disable_trace(&mut self) {
        self.tracer.disable();
    }

    /// The trace buffer (events, drop count, text dump).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Clears the trace buffer.
    pub fn clear_trace(&mut self) {
        self.tracer.clear();
    }

    #[inline]
    fn trace(&mut self, pe: usize, kind: TraceKind, addr: u64, start: u64) {
        if self.tracer.is_enabled() {
            let cycles = self.hot[pe].clock - start;
            self.tracer.record(TraceEvent {
                pe: pe as u32,
                kind,
                addr,
                start,
                cycles,
            });
        }
    }

    /// Queueing delay at `target`'s shell for a request that becomes
    /// eligible at `ready` and occupies the shell for `occupancy_cy`.
    /// Zero unless contention modeling is enabled.
    fn contend(&mut self, target: usize, ready: u64, occupancy_cy: u64) -> u64 {
        if !self.cfg.contention {
            return 0;
        }
        let start = ready.max(self.hot[target].shell_busy_until);
        self.hot[target].shell_busy_until = start + occupancy_cy;
        start - ready
    }

    /// Queueing delay on the dimension-order route `pe -> target` for a
    /// transfer that reaches the network at `ready` and occupies each
    /// route link for `occupancy_cy` (its bytes at two per cycle). The
    /// transfer waits for the hottest link of its route to clear, then
    /// holds every link of the route until it finishes. Zero unless link
    /// contention modeling is enabled.
    fn link_contend(&mut self, pe: usize, target: usize, ready: u64, occupancy_cy: u64) -> u64 {
        if !self.cfg.link_contention || pe == target {
            return 0;
        }
        let links = self.torus.route_links(pe as u32, target as u32);
        let start = links.clone().fold(ready, |s, l| s.max(self.link_busy[l]));
        for l in links {
            self.link_busy[l] = start + occupancy_cy;
        }
        start - ready
    }

    // ------------------------------------------------------------------
    // Annex management
    // ------------------------------------------------------------------

    /// Updates an annex register (23 cycles).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is 0 or the target PE does not exist.
    pub fn annex_set(&mut self, pe: usize, idx: usize, entry: AnnexEntry) {
        assert!(
            (entry.pe as usize) < self.nodes.len(),
            "annex target PE {} does not exist",
            entry.pe
        );
        let now = self.hot[pe].clock;
        let cost = self.nodes[pe].annex.update(idx, entry);
        self.hot[pe].clock += cost;
        self.nodes[pe].perf.credit(CostClass::AnnexUpdate, cost);
        self.trace(pe, TraceKind::AnnexSet(entry.pe), idx as u64, now);
    }

    /// Reads an annex register (free: it is processor state).
    pub fn annex_entry(&self, pe: usize, idx: usize) -> AnnexEntry {
        self.nodes[pe].annex.entry(idx)
    }

    // ------------------------------------------------------------------
    // Loads and stores
    // ------------------------------------------------------------------

    /// Loads a 64-bit word at `va`.
    pub fn ld8(&mut self, pe: usize, va: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.ld(pe, va, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Loads `buf.len()` bytes at `va` (annex-translated). Remote loads
    /// must not cross a cache line.
    ///
    /// Issuing a remote load through an annex entry whose function code
    /// is not a read flavour (e.g. `Swap`) is a program error: debug
    /// builds fail a `debug_assert!`; release builds perform the access
    /// as `Uncached` (the defined behavior — the real shell would issue
    /// the request with the flavour bits it was given).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range accesses.
    pub fn ld(&mut self, pe: usize, va: u64, buf: &mut [u8]) {
        let (aidx, off) = self.split_va(va);
        if aidx == 0 {
            self.nodes[pe].ops.loads_local += 1;
            let now = self.hot[pe].clock;
            let cost = self.nodes[pe].port.read(now, va, buf);
            self.hot[pe].clock = now + cost;
            self.nodes[pe].perf.sample(OpKind::LdLocal, cost);
            self.deliver_outbox(pe);
            self.trace(pe, TraceKind::LoadLocal, va, now);
            return;
        }
        let line_pa = va & !self.line_mask();
        assert!(
            (va - line_pa) as usize + buf.len() <= self.cfg.mem.l1.line,
            "remote load must not cross a cache line"
        );
        self.nodes[pe].ops.loads_remote += 1;
        let entry = self.nodes[pe].annex.entry(aidx);
        let target = entry.pe as usize;
        let now = self.hot[pe].clock;
        // Push out anything due, so our own earlier stores can land.
        self.nodes[pe].port.apply_due(now);
        self.deliver_outbox(pe);

        let mut cost = self.nodes[pe].port.tlb_access(va);
        // A line previously brought over by a cached read may satisfy
        // this load entirely locally (and possibly stale!).
        if let Some(line) = self.nodes[pe].port.l1().lookup(va) {
            let o = (va - line_pa) as usize;
            buf.copy_from_slice(&line[o..o + buf.len()]);
            self.hot[pe].clock = now + cost + self.cfg.mem.l1.hit_cy;
            let hit = self.cfg.mem.l1.hit_cy;
            self.nodes[pe].perf.credit(CostClass::L1Hit, hit);
            self.nodes[pe].perf.sample(OpKind::LdRemote, cost + hit);
            self.trace(pe, TraceKind::LoadRemote(entry.pe), va, now);
            return;
        }
        match entry.func {
            FuncCode::Cached => {
                let target_clock = self.hot[target].clock;
                self.nodes[target].port.apply_due(target_clock);
                self.deliver_outbox(target);
                let line_off = off & !self.line_mask();
                let mut line = [0u8; MAX_LINE];
                let line_buf = &mut line[..self.cfg.mem.l1.line];
                let dram = self.nodes[target]
                    .port
                    .service_remote_read(line_off, line_buf);
                let ready = now
                    + cost
                    + self.cfg.shell.remote_read_shell_cy / 2
                    + self.one_way_cy(pe, target);
                let lqueue = self.link_contend(
                    pe,
                    target,
                    ready,
                    link_occupancy_cy(self.cfg.mem.l1.line as u64),
                );
                let queue = self.contend(target, ready + lqueue, dram + 5);
                cost += self.cfg.shell.remote_read_shell_cy
                    + self.cfg.shell.cached_read_extra_cy
                    + self.rtt_cy(pe, target)
                    + dram
                    + queue
                    + lqueue;
                let shell =
                    self.cfg.shell.remote_read_shell_cy + self.cfg.shell.cached_read_extra_cy;
                let rtt = self.rtt_cy(pe, target);
                let p = &mut self.nodes[pe].perf;
                p.credit(CostClass::ShellLaunch, shell);
                p.credit(CostClass::NetHop, rtt);
                p.credit(CostClass::RemoteDram, dram);
                p.credit(CostClass::Contention, queue + lqueue);
                if self.nodes[pe].port.has_pending_line(line_pa) {
                    self.nodes[pe].port.forward_pending(line_pa, line_buf);
                }
                self.nodes[pe].port.install_remote_line(line_pa, line_buf);
                let o = (va - line_pa) as usize;
                buf.copy_from_slice(&line_buf[o..o + buf.len()]);
            }
            other => {
                debug_assert!(
                    other == FuncCode::Uncached,
                    "annex function code {other:?} is not a load flavour"
                );
                let target_clock = self.hot[target].clock;
                self.nodes[target].port.apply_due(target_clock);
                self.deliver_outbox(target);
                let dram = self.nodes[target].port.service_remote_read(off, buf);
                let ready = now
                    + cost
                    + self.cfg.shell.remote_read_shell_cy / 2
                    + self.one_way_cy(pe, target);
                let lqueue =
                    self.link_contend(pe, target, ready, link_occupancy_cy(buf.len() as u64));
                let queue = self.contend(target, ready + lqueue, dram + 5);
                cost += self.cfg.shell.remote_read_shell_cy
                    + self.rtt_cy(pe, target)
                    + dram
                    + queue
                    + lqueue;
                let shell = self.cfg.shell.remote_read_shell_cy;
                let rtt = self.rtt_cy(pe, target);
                let p = &mut self.nodes[pe].perf;
                p.credit(CostClass::ShellLaunch, shell);
                p.credit(CostClass::NetHop, rtt);
                p.credit(CostClass::RemoteDram, dram);
                p.credit(CostClass::Contention, queue + lqueue);
                // Our own pending stores to the same full PA forward.
                if self.nodes[pe].port.has_pending_line(line_pa) {
                    let mut line = [0u8; MAX_LINE];
                    let line_buf = &mut line[..self.cfg.mem.l1.line];
                    let line_off = off & !self.line_mask();
                    self.nodes[target].port.peek_mem(line_off, line_buf);
                    self.nodes[pe].port.forward_pending(line_pa, line_buf);
                    let o = (va - line_pa) as usize;
                    buf.copy_from_slice(&line_buf[o..o + buf.len()]);
                }
            }
        }
        self.hot[pe].clock = now + cost;
        self.nodes[pe].perf.sample(OpKind::LdRemote, cost);
        self.trace(pe, TraceKind::LoadRemote(entry.pe), va, now);
    }

    /// Stores a 64-bit word at `va`.
    pub fn st8(&mut self, pe: usize, va: u64, value: u64) {
        self.st(pe, va, &value.to_le_bytes());
    }

    /// Stores `bytes` at `va` (annex-translated). The store is
    /// non-blocking: it enters the write buffer and, for remote targets,
    /// is acknowledged asynchronously (poll with
    /// [`Machine::wait_write_acks`] after a [`Machine::memory_barrier`]).
    ///
    /// # Panics
    ///
    /// Panics if the store crosses a cache line or is out of range.
    pub fn st(&mut self, pe: usize, va: u64, bytes: &[u8]) {
        let (aidx, off) = self.split_va(va);
        let now = self.hot[pe].clock;
        let cost = if aidx == 0 {
            self.nodes[pe].ops.stores_local += 1;
            self.nodes[pe].port.write(now, va, bytes)
        } else {
            self.nodes[pe].ops.stores_remote += 1;
            let entry = self.nodes[pe].annex.entry(aidx);
            let target = entry.pe as usize;
            assert!(
                target < self.nodes.len(),
                "store to nonexistent PE {target}"
            );
            // Off-page accesses at the target slow the injection stream:
            // the Figure 7 sensitivity at 16 KB strides.
            let line_off = off & !self.line_mask();
            let page_penalty = self.nodes[target]
                .port
                .dram()
                .peek(line_off)
                .saturating_sub(self.cfg.mem.dram.page_hit_cy);
            let sink = RemoteSink {
                pe: entry.pe,
                remote_line_pa: line_off,
                base_cy: self.cfg.shell.remote_write_base_cy + page_penalty,
                per_word_cy: self.cfg.shell.remote_write_word_cy,
                ack_rtt_cy: self.cfg.shell.write_ack_rtt_cy + self.rtt_cy(pe, target),
            };
            self.nodes[pe]
                .port
                .write_to(now, va, bytes, WriteTarget::Remote(sink))
        };
        self.hot[pe].clock = now + cost;
        let kind_op = if aidx == 0 {
            OpKind::StLocal
        } else {
            OpKind::StRemote
        };
        self.nodes[pe].perf.sample(kind_op, cost);
        self.deliver_outbox(pe);
        let kind = if aidx == 0 {
            TraceKind::StoreLocal
        } else {
            TraceKind::StoreRemote(self.nodes[pe].annex.entry(aidx).pe)
        };
        self.trace(pe, kind, va, now);
    }

    /// Issues a memory barrier: drains the write buffer (pushing out any
    /// pending prefetch requests with it).
    pub fn memory_barrier(&mut self, pe: usize) {
        self.nodes[pe].ops.memory_barriers += 1;
        let now = self.hot[pe].clock;
        let cost = self.nodes[pe].port.memory_barrier(now);
        self.hot[pe].clock = now + cost;
        self.nodes[pe].perf.sample(OpKind::Fence, cost);
        let t = self.hot[pe].clock;
        self.nodes[pe].prefetch.note_memory_barrier(t);
        self.deliver_outbox(pe);
        self.trace(pe, TraceKind::MemoryBarrier, 0, now);
    }

    /// Polls the remote-write status bit once: `true` if no remote write
    /// *known to the shell* is outstanding. Writes still in the write
    /// buffer are invisible — the Section 4.3 trap.
    pub fn poll_status(&mut self, pe: usize) -> bool {
        let now = self.hot[pe].clock;
        let (clear, cost) = self.nodes[pe].acks.poll(now);
        self.hot[pe].clock = now + cost;
        self.nodes[pe].perf.credit(CostClass::AckWait, cost);
        self.trace(pe, TraceKind::StatusPoll, 0, now);
        clear
    }

    /// Spins until every remote write that has left the processor is
    /// acknowledged. (Fence first — see [`Machine::poll_status`].)
    pub fn wait_write_acks(&mut self, pe: usize) {
        self.nodes[pe].ops.ack_waits += 1;
        let now = self.hot[pe].clock;
        let cost = self.nodes[pe].acks.wait_clear(now);
        self.hot[pe].clock = now + cost;
        self.nodes[pe].perf.credit(CostClass::AckWait, cost);
        self.nodes[pe].perf.sample(OpKind::AckWait, cost);
        self.trace(pe, TraceKind::AckWait, 0, now);
    }

    /// Delivers retired remote writes from `pe`'s write buffer to their
    /// targets, charging target DRAM and scheduling acknowledgements.
    fn deliver_outbox(&mut self, pe: usize) {
        let line = self.cfg.mem.l1.line;
        while let Some(r) = self.nodes[pe].port.pop_outbox() {
            let WriteTarget::Remote(sink) = r.target else {
                unreachable!("outbox only carries remote writes")
            };
            let target = sink.pe as usize;
            let dram = self.nodes[target].port.service_remote_write(
                sink.remote_line_pa,
                &r.data[..line],
                Some(r.mask),
            );
            let bytes = r.mask.count_ones() as u64;
            let ready = r.completion + sink.ack_rtt_cy / 2;
            let lqueue = self.link_contend(pe, target, ready, link_occupancy_cy(bytes));
            let queue = self.contend(target, ready + lqueue, dram + 5);
            let arrival = ready + lqueue + dram + queue;
            let ack = r.completion + sink.ack_rtt_cy + lqueue + dram + queue;
            self.nodes[target].incoming.push((arrival, bytes));
            self.nodes[pe].acks.expect_ack(ack);
        }
    }

    // ------------------------------------------------------------------
    // Prefetch
    // ------------------------------------------------------------------

    /// Issues a binding prefetch of the word at `va`. Returns `false` if
    /// the 16-entry queue is full (the caller must pop first).
    pub fn fetch(&mut self, pe: usize, va: u64) -> bool {
        self.nodes[pe].ops.fetches += 1;
        let (aidx, off) = self.split_va(va);
        let target = if aidx == 0 {
            pe
        } else {
            self.nodes[pe].annex.entry(aidx).pe as usize
        };
        let now = self.hot[pe].clock;
        let tlb = self.nodes[pe].port.tlb_access(va);
        let target_clock = self.hot[target].clock;
        self.nodes[target].port.apply_due(target_clock);
        self.deliver_outbox(target);
        let mut buf = [0u8; 8];
        let dram = self.nodes[target].port.service_remote_read(off, &mut buf);
        let ready = now + tlb + self.cfg.shell.prefetch_net_cy / 2 + self.one_way_cy(pe, target);
        let lqueue = self.link_contend(pe, target, ready, link_occupancy_cy(8));
        let queue = self.contend(target, ready + lqueue, dram + 5);
        let latency =
            self.cfg.shell.prefetch_net_cy + self.rtt_cy(pe, target) + dram + queue + lqueue;
        let issued =
            match self.nodes[pe]
                .prefetch
                .issue(now + tlb, u64::from_le_bytes(buf), latency)
            {
                Some(c) => {
                    self.hot[pe].clock = now + tlb + c;
                    self.nodes[pe].perf.credit(CostClass::PrefetchIssue, c);
                    self.nodes[pe].perf.sample(OpKind::Fetch, tlb + c);
                    true
                }
                None => {
                    self.hot[pe].clock = now + tlb;
                    self.nodes[pe].perf.sample(OpKind::Fetch, tlb);
                    false
                }
            };
        self.trace(pe, TraceKind::Fetch(target as u32), va, now);
        issued
    }

    /// Pops the prefetch queue (a 23-cycle off-chip load), waiting for
    /// the data to arrive if necessary.
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] if nothing is outstanding;
    /// [`PopError::NotDeparted`] if the oldest fetch is still in the
    /// write buffer (fence first).
    pub fn pop_prefetch(&mut self, pe: usize) -> Result<u64, PopError> {
        self.nodes[pe].ops.pops += 1;
        let now = self.hot[pe].clock;
        let (value, cost) = self.nodes[pe].prefetch.pop(now)?;
        self.hot[pe].clock = now + cost;
        self.nodes[pe].perf.credit(CostClass::PrefetchWait, cost);
        self.nodes[pe].perf.sample(OpKind::Pop, cost);
        self.trace(pe, TraceKind::Pop, 0, now);
        Ok(value)
    }

    /// Outstanding prefetches on a node.
    pub fn prefetch_outstanding(&self, pe: usize) -> usize {
        self.nodes[pe].prefetch.outstanding()
    }

    // ------------------------------------------------------------------
    // Block transfer engine
    // ------------------------------------------------------------------

    /// Starts a BLT transfer of `bytes` between `pe`'s local memory at
    /// `local_off` and `target_pe`'s memory at `remote_off`. The
    /// initiating processor is stalled for the OS invocation (180 µs);
    /// the DMA itself completes at `BltHandle::completion` and can be
    /// overlapped. Data moves immediately in simulation; destination
    /// cache lines are invalidated (DMA bypasses caches).
    pub fn blt_start(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle {
        self.nodes[pe].ops.blts += 1;
        let mut data = vec![0u8; bytes as usize];
        match dir {
            BltDirection::Read => {
                self.nodes[target_pe].port.peek_mem(remote_off, &mut data);
                self.poke_and_invalidate(pe, local_off, &data);
            }
            BltDirection::Write => {
                self.nodes[pe].port.peek_mem(local_off, &mut data);
                self.poke_and_invalidate(target_pe, remote_off, &data);
            }
        }
        let now = self.hot[pe].clock;
        let timing = self.nodes[pe].blt.start(now, dir, bytes);
        // The DMA stream holds its route from the moment it starts
        // injecting (after the OS startup stall) until the last byte.
        let lqueue = self.link_contend(
            pe,
            target_pe,
            now + timing.startup_cy,
            link_occupancy_cy(bytes),
        );
        self.hot[pe].clock = now + timing.startup_cy;
        self.nodes[pe]
            .perf
            .credit(CostClass::BltStartup, timing.startup_cy);
        self.nodes[pe]
            .perf
            .sample(OpKind::BltStart, timing.startup_cy);
        self.trace(pe, TraceKind::Blt(target_pe as u32), remote_off, now);
        BltHandle {
            completion: now + timing.total_cy() + lqueue,
            startup_cy: timing.startup_cy,
            stream_cy: timing.stream_cy,
        }
    }

    /// Starts a *strided* BLT transfer: `count` elements of
    /// `elem_bytes`, read from consecutive positions on the local side
    /// and placed `stride_bytes` apart on the remote side (`Write`), or
    /// gathered from `stride_bytes` apart remotely into consecutive
    /// local positions (`Read`). The engine moves the same number of
    /// bytes as the contiguous form but pays the remote DRAM's page
    /// behaviour on every element.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `elem_bytes` is zero, or if
    /// `stride_bytes < elem_bytes` (overlapping elements).
    #[allow(clippy::too_many_arguments)]
    pub fn blt_start_strided(
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
        self.nodes[pe].ops.blts += 1;
        assert!(count > 0 && elem_bytes > 0, "strided BLT must move data");
        assert!(
            stride_bytes >= elem_bytes,
            "stride must not overlap elements"
        );
        let mut elem = vec![0u8; elem_bytes as usize];
        // Strided access defeats the remote controller's open page when
        // the stride crosses DRAM pages; charge it element by element.
        let mut extra = 0u64;
        for i in 0..count {
            let r_off = remote_off + i * stride_bytes;
            let l_off = local_off + i * elem_bytes;
            match dir {
                BltDirection::Read => {
                    self.nodes[target_pe].port.peek_mem(r_off, &mut elem);
                    self.poke_and_invalidate(pe, l_off, &elem);
                }
                BltDirection::Write => {
                    self.nodes[pe].port.peek_mem(l_off, &mut elem);
                    self.poke_and_invalidate(target_pe, r_off, &elem);
                }
            }
            let line = r_off & !self.line_mask();
            let dram = self.nodes[target_pe].port.dram_mut().access(line);
            extra += dram.saturating_sub(self.cfg.mem.dram.page_hit_cy);
        }
        let now = self.hot[pe].clock;
        let timing = self.nodes[pe].blt.start(now, dir, count * elem_bytes);
        let lqueue = self.link_contend(
            pe,
            target_pe,
            now + timing.startup_cy,
            link_occupancy_cy(count * elem_bytes),
        );
        self.hot[pe].clock = now + timing.startup_cy;
        self.nodes[pe]
            .perf
            .credit(CostClass::BltStartup, timing.startup_cy);
        self.nodes[pe]
            .perf
            .sample(OpKind::BltStart, timing.startup_cy);
        self.trace(pe, TraceKind::Blt(target_pe as u32), remote_off, now);
        BltHandle {
            completion: now + timing.total_cy() + extra + lqueue,
            startup_cy: timing.startup_cy,
            stream_cy: timing.stream_cy + extra,
        }
    }

    /// Blocks until a BLT transfer completes.
    pub fn blt_wait(&mut self, pe: usize, handle: BltHandle) {
        let now = self.hot[pe].clock;
        let h = &mut self.hot[pe];
        h.clock = h.clock.max(handle.completion);
        let waited = h.clock - now;
        self.nodes[pe].perf.credit(CostClass::BltWait, waited);
        self.nodes[pe].perf.sample(OpKind::BltWait, waited);
        self.trace(pe, TraceKind::BltWait, 0, now);
    }

    fn poke_and_invalidate(&mut self, pe: usize, off: u64, data: &[u8]) {
        self.nodes[pe].port.poke_mem(off, data);
        let line = self.cfg.mem.l1.line as u64;
        let mut a = off & !self.line_mask();
        while a < off + data.len() as u64 {
            self.nodes[pe].port.l1_mut().invalidate(a);
            a += line;
        }
    }

    // ------------------------------------------------------------------
    // Messages
    // ------------------------------------------------------------------

    /// Sends a four-word message (the 122-cycle PAL call).
    pub fn msg_send(&mut self, pe: usize, dst: usize, words: [u64; 4]) {
        self.nodes[pe].ops.msgs_sent += 1;
        let now = self.hot[pe].clock;
        self.hot[pe].clock += self.cfg.shell.msg_send_cy;
        let send_cy = self.cfg.shell.msg_send_cy;
        self.nodes[pe].perf.credit(CostClass::MsgSend, send_cy);
        self.nodes[pe].perf.sample(OpKind::MsgSend, send_cy);
        let sent = self.hot[pe].clock;
        let lqueue = self.link_contend(pe, dst, sent, link_occupancy_cy(32));
        let arrival = sent + lqueue + self.one_way_cy(pe, dst);
        self.nodes[dst].msgq.deliver(Message {
            from: pe as u32,
            words,
            arrival,
        });
        self.trace(pe, TraceKind::MsgSend(dst as u32), 0, now);
    }

    /// Receives the oldest arrived message, paying the 25 µs interrupt
    /// (plus dispatch, in handler mode). `None` if nothing has arrived.
    pub fn msg_receive(&mut self, pe: usize) -> Option<Message> {
        let now = self.hot[pe].clock;
        self.nodes[pe].ops.msgs_received += 1;
        let (msg, cost) = self.nodes[pe].msgq.receive(now)?;
        self.hot[pe].clock = now + cost;
        self.nodes[pe].perf.credit(CostClass::MsgRecv, cost);
        self.nodes[pe].perf.sample(OpKind::MsgRecv, cost);
        self.trace(pe, TraceKind::MsgRecv, 0, now);
        Some(msg)
    }

    // ------------------------------------------------------------------
    // Atomic operations
    // ------------------------------------------------------------------

    /// Remote fetch&increment on `target_pe`'s register `reg`.
    pub fn fetch_inc(&mut self, pe: usize, target_pe: usize, reg: usize) -> u64 {
        self.nodes[pe].ops.atomics += 1;
        let now = self.hot[pe].clock;
        let ready = now + self.cfg.shell.remote_read_shell_cy / 2 + self.one_way_cy(pe, target_pe);
        let lqueue = self.link_contend(pe, target_pe, ready, link_occupancy_cy(8));
        let queue = self.contend(target_pe, ready + lqueue, 20);
        let cost = self.cfg.shell.remote_read_shell_cy
            + self.rtt_cy(pe, target_pe)
            + self.cfg.shell.amo_extra_cy
            + queue
            + lqueue;
        self.hot[pe].clock += cost;
        let shell = self.cfg.shell.remote_read_shell_cy;
        let rtt = self.rtt_cy(pe, target_pe);
        let amo = self.cfg.shell.amo_extra_cy;
        let p = &mut self.nodes[pe].perf;
        p.credit(CostClass::ShellLaunch, shell);
        p.credit(CostClass::NetHop, rtt);
        p.credit(CostClass::Amo, amo);
        p.credit(CostClass::Contention, queue + lqueue);
        p.sample(OpKind::FetchInc, cost);
        self.trace(pe, TraceKind::FetchInc(target_pe as u32), reg as u64, now);
        self.nodes[target_pe].fetchinc.fetch_inc(reg)
    }

    /// Loads this node's swap operand register.
    pub fn swap_load(&mut self, pe: usize, value: u64) {
        let now = self.hot[pe].clock;
        self.nodes[pe].swap.load(value);
        self.trace(pe, TraceKind::SwapLoad, 0, now);
    }

    /// Atomically exchanges the swap register with the word at `va`
    /// (annex function code `Swap` for remote targets). Returns the old
    /// memory value (now also in the register).
    pub fn atomic_swap(&mut self, pe: usize, va: u64) -> u64 {
        self.nodes[pe].ops.atomics += 1;
        let (aidx, off) = self.split_va(va);
        let target = if aidx == 0 {
            pe
        } else {
            let entry = self.nodes[pe].annex.entry(aidx);
            assert_eq!(
                entry.func,
                FuncCode::Swap,
                "annex entry must select the swap flavour"
            );
            entry.pe as usize
        };
        let target_clock = self.hot[target].clock;
        self.nodes[target].port.apply_due(target_clock);
        self.deliver_outbox(target);
        let mut buf = [0u8; 8];
        let dram = self.nodes[target].port.service_remote_read(off, &mut buf);
        let old_mem = u64::from_le_bytes(buf);
        let to_mem = self.nodes[pe].swap.exchange(old_mem);
        self.nodes[target]
            .port
            .service_remote_write(off, &to_mem.to_le_bytes(), None);
        let now = self.hot[pe].clock;
        let ready = now + self.cfg.shell.remote_read_shell_cy / 2 + self.one_way_cy(pe, target);
        let lqueue = self.link_contend(pe, target, ready, link_occupancy_cy(8));
        let queue = self.contend(target, ready + lqueue, dram + 20);
        let cost = self.cfg.shell.remote_read_shell_cy
            + self.rtt_cy(pe, target)
            + self.cfg.shell.amo_extra_cy
            + dram
            + queue
            + lqueue;
        self.hot[pe].clock += cost;
        let shell = self.cfg.shell.remote_read_shell_cy;
        let rtt = self.rtt_cy(pe, target);
        let amo = self.cfg.shell.amo_extra_cy;
        let p = &mut self.nodes[pe].perf;
        p.credit(CostClass::ShellLaunch, shell);
        p.credit(CostClass::NetHop, rtt);
        p.credit(CostClass::Amo, amo);
        p.credit(CostClass::RemoteDram, dram);
        p.credit(CostClass::Contention, queue + lqueue);
        p.sample(OpKind::Swap, cost);
        self.trace(pe, TraceKind::Swap(target as u32), va, now);
        old_mem
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// Global hardware barrier: aligns every node's clock to the last
    /// arrival plus the wire latency (plus start/end instruction costs).
    /// All pending writes are fenced first, as `allStoreSync` requires.
    pub fn barrier_all(&mut self) {
        for pe in 0..self.nodes.len() {
            self.memory_barrier(pe);
        }
        for pe in 0..self.nodes.len() {
            let t = self.hot[pe].clock + self.cfg.shell.barrier_start_cy;
            self.barrier.start(pe, t);
        }
        let done = self.barrier.completion_time().expect("all nodes arrived");
        self.barrier.reset();
        let overhead = self.cfg.shell.barrier_start_cy + self.cfg.shell.barrier_end_cy;
        for pe in 0..self.nodes.len() {
            let start = self.hot[pe].clock;
            // The wire settles at `done` ≥ every arrival > this clock.
            self.hot[pe].clock = done + self.cfg.shell.barrier_end_cy;
            let delta = self.hot[pe].clock - start;
            let p = &mut self.nodes[pe].perf;
            p.credit(CostClass::BarrierOverhead, overhead);
            p.credit(CostClass::BarrierWait, delta - overhead);
            p.sample(OpKind::Barrier, delta);
            self.trace(pe, TraceKind::Barrier, 0, start);
        }
    }

    /// Completed machine-wide barrier episodes.
    pub fn barrier_episodes(&self) -> u64 {
        self.barrier.episodes()
    }

    // ------------------------------------------------------------------
    // Fuzzy barrier (Section 7.5)
    // ------------------------------------------------------------------

    /// Executes the start-barrier instruction: announces arrival on the
    /// global-OR wire and returns immediately — the processor may keep
    /// doing useful work before [`Machine::fuzzy_barrier_end_all`].
    ///
    /// # Panics
    ///
    /// Panics if this node already started the current episode.
    pub fn fuzzy_barrier_start(&mut self, pe: usize) {
        let now = self.hot[pe].clock;
        self.hot[pe].clock += self.cfg.shell.barrier_start_cy;
        let start_cy = self.cfg.shell.barrier_start_cy;
        self.nodes[pe]
            .perf
            .credit(CostClass::BarrierOverhead, start_cy);
        let t = self.hot[pe].clock;
        self.barrier.start(pe, t);
        self.trace(pe, TraceKind::FuzzyBarrierStart, 0, now);
    }

    /// Completes the fuzzy barrier for *all* nodes (driver-level: every
    /// node must have executed start-barrier). Each node's clock
    /// advances only if the wire settled after its own work finished —
    /// work placed between start and end is overlapped with the wait.
    ///
    /// # Panics
    ///
    /// Panics if some node has not executed start-barrier.
    pub fn fuzzy_barrier_end_all(&mut self) {
        let done = self
            .barrier
            .completion_time()
            .expect("every node must start-barrier before end-barrier");
        self.barrier.reset();
        for pe in 0..self.nodes.len() {
            let start = self.hot[pe].clock;
            let aligned = start.max(done);
            self.hot[pe].clock = aligned + self.cfg.shell.barrier_end_cy;
            let end_cy = self.cfg.shell.barrier_end_cy;
            let delta = self.hot[pe].clock - start;
            let p = &mut self.nodes[pe].perf;
            p.credit(CostClass::BarrierOverhead, end_cy);
            p.credit(CostClass::BarrierWait, aligned - start);
            p.sample(OpKind::Barrier, delta);
            self.trace(pe, TraceKind::FuzzyBarrierEnd, 0, start);
        }
    }

    // ------------------------------------------------------------------
    // Functional helpers
    // ------------------------------------------------------------------

    /// Reads a node's memory functionally (no timing).
    pub fn peek_mem(&self, pe: usize, off: u64, buf: &mut [u8]) {
        self.nodes[pe].port.peek_mem(off, buf);
    }

    /// Writes a node's memory functionally (no timing); flushes any
    /// cached copy so the value is authoritative.
    pub fn poke_mem(&mut self, pe: usize, off: u64, bytes: &[u8]) {
        self.poke_and_invalidate(pe, off, bytes);
    }

    /// Reads a u64 functionally.
    pub fn peek8(&self, pe: usize, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.peek_mem(pe, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a u64 functionally.
    pub fn poke8(&mut self, pe: usize, off: u64, v: u64) {
        self.poke_mem(pe, off, &v.to_le_bytes());
    }

    /// Resets every node's timing state (caches, TLB, DRAM pages, write
    /// buffers, clocks) while preserving memory contents. Probes call
    /// this between trials.
    pub fn reset_timing(&mut self) {
        for pe in 0..self.nodes.len() {
            self.nodes[pe].port.reset_timing();
            self.deliver_outbox(pe);
        }
        for node in &mut self.nodes {
            node.incoming.clear();
            node.acks.wait_clear(u64::MAX / 2);
            // Rebase attribution at the zeroed clock (collection state is
            // preserved; accumulated credits from before the reset would
            // otherwise break conservation against the new clocks).
            let on = node.perf.on;
            node.perf.restart(on, 0);
            node.port.set_perf(on);
        }
        for hot in &mut self.hot {
            hot.clock = 0;
            hot.shell_busy_until = 0;
        }
        self.link_busy.fill(0);
        self.phase_log.clear();
    }

    /// A node's operation counters.
    pub fn op_stats(&self, pe: usize) -> crate::node::OpStats {
        self.nodes[pe].ops
    }

    /// Clears a node's operation counters.
    pub fn clear_op_stats(&mut self, pe: usize) {
        self.nodes[pe].ops = crate::node::OpStats::default();
    }

    // ------------------------------------------------------------------
    // Profiling (t3d-perf)
    // ------------------------------------------------------------------

    /// The profiling mode in force.
    pub fn perf_mode(&self) -> PerfMode {
        self.perf_mode
    }

    /// Sets the profiling mode, restarting collection: every PE's
    /// ledgers and histograms clear and rebase at its current clock, and
    /// the phase log empties. `Timeline` also enables the tracer (with
    /// the `T3D_TRACE_CAP` capacity, default 65536) if it is not already
    /// on. Attribution is pure observation — no virtual time changes.
    pub fn set_perf_mode(&mut self, mode: PerfMode) {
        self.perf_mode = mode;
        let on = mode.counters();
        for (node, hot) in self.nodes.iter_mut().zip(&self.hot) {
            node.perf.restart(on, hot.clock);
            node.port.set_perf(on);
        }
        self.phase_log.clear();
        if mode.timeline() && !self.tracer.is_enabled() {
            self.tracer.enable(Tracer::env_cap(65_536));
        }
    }

    /// All PEs' attribution ledgers (node + memory port) merged.
    fn merged_perf_ledger(&self) -> Ledger {
        let mut out = Ledger::default();
        for node in &self.nodes {
            out.merge(&node.perf.ledger);
            out.merge(node.port.perf_ledger());
        }
        out
    }

    /// The reference clock for phase spans: the maximum PE clock (a
    /// contiguous scan over the hot arena).
    fn perf_ref_clock(&self) -> u64 {
        self.hot.iter().map(|h| h.clock).max().unwrap_or(0)
    }

    /// Opens a named phase in the perf report (no-op unless profiling).
    /// Phases are flat: beginning a phase ends any open one.
    pub fn perf_begin_phase(&mut self, label: &str) {
        if !self.perf_mode.counters() {
            return;
        }
        let now = self.perf_ref_clock();
        let snap = self.merged_perf_ledger();
        self.phase_log.begin(label, now, snap);
    }

    /// Closes the open phase (no-op unless profiling / nothing is open).
    pub fn perf_end_phase(&mut self) {
        if !self.perf_mode.counters() {
            return;
        }
        let now = self.perf_ref_clock();
        let snap = self.merged_perf_ledger();
        self.phase_log.end(now, snap);
    }

    /// Assembles the perf report: per-PE attribution (node + memory-port
    /// ledgers), per-phase attribution, and the metrics registry
    /// (operation counters, memory-system counters, latency histograms).
    /// Deterministic: PEs are visited in order and the registry sorts by
    /// name, so Seq and Par phase-driver runs report bit-identically.
    pub fn perf(&self) -> PerfReport {
        let mut pes = Vec::with_capacity(self.nodes.len());
        let mut registry = Registry::default();
        let mut hists = OpHists::default();
        let mut wbuf_pending = 0i64;
        for (pe, node) in self.nodes.iter().enumerate() {
            let mut ledger = node.perf.ledger;
            ledger.merge(node.port.perf_ledger());
            pes.push(PePerf {
                pe,
                elapsed: self.hot[pe].clock.saturating_sub(node.perf.base_clock),
                ledger,
            });
            hists.merge(&node.perf.hists);
            let ops = node.ops;
            registry.count("ops.ld.local", ops.loads_local);
            registry.count("ops.ld.remote", ops.loads_remote);
            registry.count("ops.st.local", ops.stores_local);
            registry.count("ops.st.remote", ops.stores_remote);
            registry.count("ops.fetch", ops.fetches);
            registry.count("ops.pop", ops.pops);
            registry.count("ops.fence", ops.memory_barriers);
            registry.count("ops.blt", ops.blts);
            registry.count("ops.msg.send", ops.msgs_sent);
            registry.count("ops.msg.recv", ops.msgs_received);
            registry.count("ops.atomic", ops.atomics);
            registry.count("ops.ack.wait", ops.ack_waits);
            let mem = node.port.stats();
            registry.count("mem.l1.hits", mem.l1_hits);
            registry.count("mem.l1.misses", mem.l1_misses);
            registry.count("mem.l2.hits", mem.l2_hits);
            registry.count("mem.wbuf.merges", mem.wbuf_merges);
            registry.count("mem.wbuf.stalls", mem.wbuf_stalls);
            registry.count("mem.tlb.misses", mem.tlb_misses);
            wbuf_pending += node.port.wbuf_pending() as i64;
        }
        registry.count("barrier.episodes", self.barrier.episodes());
        registry.count("trace.dropped", self.tracer.dropped());
        registry.gauge("wbuf.pending", wbuf_pending);
        for kind in t3d_perf::OpKind::ALL {
            let h = hists.get(kind);
            if h.count() > 0 {
                registry.observe_hist(&format!("lat.{}", kind.label()), h);
            }
        }
        PerfReport {
            mode: self.perf_mode,
            pes,
            phases: self.phase_log.records().to_vec(),
            registry,
        }
    }

    /// Exports a `chrome://tracing` timeline: one row per PE built from
    /// the tracer's events (enable `Timeline` mode or the tracer), plus
    /// a machine-wide row (tid 10000) carrying the named phase spans.
    /// Returns pretty-printed Chrome-trace JSON.
    pub fn perf_chrome_trace(&self) -> String {
        let mut spans: Vec<Span> = self
            .tracer
            .events()
            .map(|e| Span {
                name: e.kind.label(),
                cat: "event".to_string(),
                tid: e.pe as u64,
                start: e.start,
                dur: e.cycles,
            })
            .collect();
        for rec in self.phase_log.records() {
            for &(start, end) in &rec.spans {
                spans.push(Span {
                    name: rec.label.clone(),
                    cat: "phase".to_string(),
                    tid: 10_000,
                    start,
                    dur: end - start,
                });
            }
        }
        chrome_trace(&spans).render_pretty()
    }

    /// Earliest virtual time at which `target_bytes` of remote-write data
    /// had arrived at `pe` (for `storeSync`).
    pub fn arrival_time_of(&self, pe: usize, target_bytes: u64) -> Option<u64> {
        self.nodes[pe].arrival_time_of(target_bytes)
    }

    /// Clears a node's arrival log (a new `storeSync` epoch).
    pub fn clear_incoming(&mut self, pe: usize) {
        self.nodes[pe].incoming.clear();
    }

    /// Pushes every write already due out of each node's write buffer and
    /// delivers it, through the direct-engine path. The sharded phase
    /// driver calls this before splitting the machine into shards so no
    /// pre-phase state is pending when the shards start.
    pub(crate) fn normalize_for_phase(&mut self) {
        for pe in 0..self.nodes.len() {
            let now = self.hot[pe].clock;
            self.nodes[pe].port.apply_due(now);
            self.deliver_outbox(pe);
        }
    }

    /// Split borrow of the pieces the sharded phase driver needs: the
    /// configuration and torus (shared, read-only), the node and hot
    /// arrays (split per-PE across shards), and the link-occupancy
    /// clocks (snapshotted read-only; shards queue privately).
    pub(crate) fn phase_parts(
        &mut self,
    ) -> (&MachineConfig, &Torus, &mut [Node], &mut [NodeHot], &[u64]) {
        (
            &self.cfg,
            &self.torus,
            &mut self.nodes,
            &mut self.hot,
            &self.link_busy,
        )
    }

    /// Replays one sharded-phase link reservation against the global
    /// link-occupancy clocks (merge-order deterministic, so Seq and Par
    /// runs evolve identical link state).
    pub(crate) fn replay_link(&mut self, src: usize, target: usize, ready: u64, occupancy_cy: u64) {
        let _ = self.link_contend(src, target, ready, occupancy_cy);
    }

    /// Split borrow of one PE's cold node and hot record (effect
    /// application after a sharded phase).
    pub(crate) fn node_and_hot_mut(&mut self, pe: usize) -> (&mut Node, &mut NodeHot) {
        (&mut self.nodes[pe], &mut self.hot[pe])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine2() -> Machine {
        Machine::new(MachineConfig::t3d(2))
    }

    fn set_annex(m: &mut Machine, pe: usize, idx: usize, target: u32, func: FuncCode) {
        m.annex_set(pe, idx, AnnexEntry { pe: target, func });
    }

    #[test]
    fn local_load_store_roundtrip() {
        let mut m = machine2();
        m.st8(0, 0x1000, 77);
        assert_eq!(m.ld8(0, 0x1000), 77);
    }

    #[test]
    fn rtt_is_twice_rounded_one_way_for_all_pairs() {
        // 2x2x2 torus: hop_cy = 2.5 puts odd hop counts on half cycles,
        // exactly where rounding the doubled latency used to diverge
        // from doubling the rounded one-way (1 hop: one-way 2.5 -> 3,
        // rtt must be 6, not 5.0.round() = 5).
        let m = Machine::new(MachineConfig::t3d(8));
        assert_eq!(m.cfg.torus.dims, (2, 2, 2));
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(m.rtt_cy(a, b), 2 * m.one_way_cy(a, b), "pair ({a},{b})");
            }
        }
        // Pin the adjacent-pair values the rest of the calibration
        // suite builds on.
        assert_eq!(m.one_way_cy(0, 1), 3);
        assert_eq!(m.rtt_cy(0, 1), 6);
    }

    #[test]
    fn uncached_remote_read_costs_about_91_cycles() {
        let mut m = machine2();
        m.poke8(1, 0x2000, 5);
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        // Warm the TLB so we measure the steady-state cost the paper plots.
        let _ = m.ld8(0, m.va(1, 0x2008));
        let t0 = m.clock(0);
        let v = m.ld8(0, m.va(1, 0x2000));
        let cost = m.clock(0) - t0;
        assert_eq!(v, 5);
        assert!(
            (85..=97).contains(&cost),
            "uncached adjacent remote read cost {cost} cy (paper: ~91)"
        );
    }

    #[test]
    fn cached_remote_read_costs_more_but_then_hits() {
        let mut m = machine2();
        m.poke8(1, 0x3000, 9);
        m.poke8(1, 0x3008, 10);
        set_annex(&mut m, 0, 1, 1, FuncCode::Cached);
        let _ = m.ld8(0, m.va(1, 0x4000)); // TLB warm
        let t0 = m.clock(0);
        assert_eq!(m.ld8(0, m.va(1, 0x3000)), 9);
        let first = m.clock(0) - t0;
        assert!(
            (105..=125).contains(&first),
            "cached adjacent remote read cost {first} cy (paper: ~114)"
        );
        let t1 = m.clock(0);
        assert_eq!(
            m.ld8(0, m.va(1, 0x3008)),
            10,
            "next word came with the line"
        );
        assert_eq!(m.clock(0) - t1, 1, "line hit");
    }

    #[test]
    fn cached_remote_line_goes_stale() {
        let mut m = machine2();
        m.poke8(1, 0x3000, 1);
        set_annex(&mut m, 0, 1, 1, FuncCode::Cached);
        assert_eq!(m.ld8(0, m.va(1, 0x3000)), 1);
        // Owner updates its memory; no coherence traffic.
        m.st8(1, 0x3000, 2);
        m.memory_barrier(1);
        assert_eq!(m.ld8(0, m.va(1, 0x3000)), 1, "stale cached copy");
        // Explicit flush (23 cycles) makes the next read fresh.
        let va = m.va(1, 0x3000);
        let flush = m.node_mut(0).port.flush_line(va);
        m.advance(0, flush);
        assert_eq!(m.ld8(0, va), 2);
    }

    #[test]
    fn blocking_remote_write_costs_about_130_cycles() {
        let mut m = machine2();
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        let va = m.va(1, 0x5000);
        // Warm TLB.
        m.st8(0, va, 1);
        m.memory_barrier(0);
        m.wait_write_acks(0);
        let t0 = m.clock(0);
        m.st8(0, va, 42);
        m.memory_barrier(0);
        m.wait_write_acks(0);
        let cost = m.clock(0) - t0;
        assert!(
            (120..=140).contains(&cost),
            "blocking remote write cost {cost} cy (paper: ~130)"
        );
        assert_eq!(m.peek8(1, 0x5000), 42);
    }

    #[test]
    fn nonblocking_remote_write_sustains_17_cycles() {
        let mut m = machine2();
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        let t0 = m.clock(0);
        let n = 128u64;
        for i in 0..n {
            let va = m.va(1, 0x8000 + i * 64);
            m.st8(0, va, i);
        }
        let avg = (m.clock(0) - t0) as f64 / n as f64;
        assert!(
            (15.0..20.0).contains(&avg),
            "non-blocking remote write interval {avg} cy (paper: ~17)"
        );
    }

    #[test]
    fn status_bit_invisible_to_buffered_writes() {
        // Section 4.3: poll without fencing sees a clear bit even though
        // a write sits in the buffer.
        let mut m = machine2();
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        let va = m.va(1, 0x6000);
        m.st8(0, va, 1);
        assert!(
            m.poll_status(0),
            "bit appears clear: the write is still buffered"
        );
        m.memory_barrier(0);
        assert!(
            !m.poll_status(0),
            "after the fence the write is visible in flight"
        );
    }

    #[test]
    fn prefetch_roundtrip() {
        let mut m = machine2();
        m.poke8(1, 0x7000, 123);
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        let va = m.va(1, 0x7000);
        assert!(m.fetch(0, va));
        m.memory_barrier(0);
        assert_eq!(m.pop_prefetch(0), Ok(123));
    }

    #[test]
    fn prefetch_pop_without_fence_is_a_hazard() {
        let mut m = machine2();
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        m.fetch(0, m.va(1, 0x7000));
        assert_eq!(m.pop_prefetch(0), Err(PopError::NotDeparted));
    }

    #[test]
    fn blt_moves_data_and_charges_startup() {
        let mut m = machine2();
        for i in 0..64u64 {
            m.poke8(1, 0x9000 + i * 8, i);
        }
        let t0 = m.clock(0);
        let h = m.blt_start(0, BltDirection::Read, 0xA000, 1, 0x9000, 512);
        assert!(
            m.clock(0) - t0 >= 27_000,
            "OS invocation stalls the processor"
        );
        m.blt_wait(0, h);
        for i in 0..64u64 {
            assert_eq!(m.peek8(0, 0xA000 + i * 8), i);
        }
    }

    #[test]
    fn strided_blt_gathers_columns() {
        let mut m = machine2();
        // A 8x8 matrix of u64 on PE 1, row-major; gather column 3.
        for r in 0..8u64 {
            for c in 0..8u64 {
                m.poke8(1, 0x4000 + (r * 8 + c) * 8, r * 100 + c);
            }
        }
        let h = m.blt_start_strided(
            0,
            BltDirection::Read,
            0x5000,
            1,
            0x4000 + 3 * 8,
            8,  // count
            8,  // elem bytes
            64, // stride: one row
        );
        m.blt_wait(0, h);
        for r in 0..8u64 {
            assert_eq!(m.peek8(0, 0x5000 + r * 8), r * 100 + 3, "row {r}");
        }
        assert!(h.startup_cy >= 27_000, "still an OS invocation");
    }

    #[test]
    fn strided_blt_scatter_writes() {
        let mut m = machine2();
        for i in 0..4u64 {
            m.poke8(0, 0x6000 + i * 8, 7 + i);
        }
        let h = m.blt_start_strided(0, BltDirection::Write, 0x6000, 1, 0x7000, 4, 8, 256);
        m.blt_wait(0, h);
        for i in 0..4u64 {
            assert_eq!(m.peek8(1, 0x7000 + i * 256), 7 + i);
        }
    }

    #[test]
    fn strided_blt_page_misses_slow_the_stream() {
        let mut m = machine2();
        let contiguous = m.blt_start_strided(0, BltDirection::Read, 0x1000, 1, 0x0, 64, 8, 8);
        let mut m2 = machine2();
        let strided = m2.blt_start_strided(0, BltDirection::Read, 0x1000, 1, 0x0, 64, 8, 16 * 1024);
        assert!(
            strided.stream_cy > contiguous.stream_cy,
            "page-missing stride streams slower: {} vs {}",
            strided.stream_cy,
            contiguous.stream_cy
        );
    }

    #[test]
    fn message_send_receive() {
        let mut m = machine2();
        m.msg_send(0, 1, [1, 2, 3, 4]);
        // Receiver polls; arrival takes network time.
        m.advance(1, 200);
        let msg = m.msg_receive(1).expect("message arrived");
        assert_eq!(msg.words, [1, 2, 3, 4]);
        assert_eq!(msg.from, 0);
    }

    #[test]
    fn message_receive_costs_the_interrupt() {
        let mut m = machine2();
        m.msg_send(0, 1, [0; 4]);
        m.advance(1, 1000);
        let t0 = m.clock(1);
        m.msg_receive(1).unwrap();
        assert!(m.clock(1) - t0 >= 3750, "25 us interrupt");
    }

    #[test]
    fn handler_mode_charges_the_dispatch_switch() {
        let mut cfg = MachineConfig::t3d(2);
        cfg.msg_mode = t3d_shell::ReceiveMode::Handler;
        let mut m = Machine::new(cfg);
        m.msg_send(0, 1, [0; 4]);
        m.advance(1, 1_000);
        let t0 = m.clock(1);
        m.msg_receive(1).unwrap();
        assert!(
            m.clock(1) - t0 >= 3_750 + 4_950,
            "interrupt + handler switch charged"
        );
    }

    #[test]
    fn fetch_inc_is_remote_and_atomic() {
        let mut m = machine2();
        assert_eq!(m.fetch_inc(0, 1, 0), 0);
        assert_eq!(m.fetch_inc(0, 1, 0), 1);
        assert_eq!(m.fetch_inc(1, 1, 0), 2, "owner sees the same counter");
        let t0 = m.clock(0);
        m.fetch_inc(0, 1, 1);
        let cost = m.clock(0) - t0;
        assert!(
            (100..200).contains(&cost),
            "f&i cost {cost} cy (paper: ~1 us incl. overheads)"
        );
    }

    #[test]
    fn atomic_swap_exchanges() {
        let mut m = machine2();
        m.poke8(1, 0xB000, 5);
        set_annex(&mut m, 0, 1, 1, FuncCode::Swap);
        m.swap_load(0, 9);
        let old = m.atomic_swap(0, m.va(1, 0xB000));
        assert_eq!(old, 5);
        assert_eq!(m.peek8(1, 0xB000), 9);
    }

    #[test]
    fn fuzzy_barrier_overlaps_work() {
        // Plain barrier: arrive, wait, then do 2000 cycles of work.
        let mut m = machine2();
        m.advance(0, 100);
        m.advance(1, 3_000); // the straggler
        m.barrier_all();
        m.advance(0, 2_000);
        let plain = m.clock(0);

        // Fuzzy barrier: announce arrival, do the 2000 cycles while the
        // straggler arrives, then complete.
        let mut m = machine2();
        m.advance(0, 100);
        m.advance(1, 3_000);
        m.fuzzy_barrier_start(0);
        m.fuzzy_barrier_start(1);
        m.advance(0, 2_000); // overlapped with the wait
        m.fuzzy_barrier_end_all();
        let fuzzy = m.clock(0);

        assert!(
            fuzzy + 1_500 < plain,
            "fuzzy barrier hides the overlapped work: {fuzzy} vs {plain} cy"
        );
    }

    #[test]
    #[should_panic(expected = "start-barrier before end-barrier")]
    fn fuzzy_end_requires_all_starts() {
        let mut m = machine2();
        m.fuzzy_barrier_start(0);
        m.fuzzy_barrier_end_all();
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut m = machine2();
        m.advance(0, 100);
        m.advance(1, 5000);
        m.barrier_all();
        assert_eq!(m.clock(0), m.clock(1));
        assert!(m.clock(0) >= 5000 + 50);
        assert_eq!(m.barrier_episodes(), 1);
    }

    #[test]
    fn trace_records_the_operation_stream() {
        let mut m = machine2();
        m.enable_trace(64);
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        m.st8(0, m.va(1, 0x100), 1);
        m.memory_barrier(0);
        m.wait_write_acks(0);
        let _ = m.ld8(0, m.va(1, 0x100));
        let kinds: Vec<TraceKind> = m.tracer().events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::AnnexSet(1),
                TraceKind::StoreRemote(1),
                TraceKind::MemoryBarrier,
                TraceKind::AckWait,
                TraceKind::LoadRemote(1),
            ]
        );
        let total: u64 = m.tracer().events().map(|e| e.cycles).sum();
        assert!(total > 0);
        assert!(m.tracer().dump().contains("st.remote->1"));
        m.clear_trace();
        assert!(m.tracer().is_empty());
    }

    #[test]
    fn tracing_off_costs_nothing_and_records_nothing() {
        let mut m = machine2();
        m.st8(0, 0x40, 1);
        assert!(m.tracer().is_empty());
    }

    #[test]
    fn contention_serializes_a_hot_spot() {
        // All nodes fetch&increment PE 0's counter at the same virtual
        // time: with contention on, the later requests queue.
        let run = |contend: bool| -> u64 {
            let cfg = if contend {
                MachineConfig::t3d_contended(8)
            } else {
                MachineConfig::t3d(8)
            };
            let mut m = Machine::new(cfg);
            for pe in 1..8 {
                let _ = m.fetch_inc(pe, 0, 0);
            }
            (1..8).map(|pe| m.clock(pe)).max().unwrap()
        };
        let free = run(false);
        let contended = run(true);
        assert!(
            contended > free + 100,
            "hot-spot queueing must show: {contended} vs {free} cy"
        );
        // The counter still counts correctly either way.
    }

    #[test]
    fn contention_off_by_default_changes_nothing() {
        let mut m = machine2();
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        let _ = m.ld8(0, m.va(1, 0x2008));
        let t0 = m.clock(0);
        let _ = m.ld8(0, m.va(1, 0x2000));
        let cost = m.clock(0) - t0;
        assert!((85..=97).contains(&cost), "calibration intact: {cost} cy");
    }

    #[test]
    fn write_buffer_synonym_hazard_end_to_end() {
        // Two annex entries name PE 1; a store through one is invisible
        // to an immediately following load through the other.
        let mut m = machine2();
        m.poke8(1, 0xC000, 1);
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        set_annex(&mut m, 0, 2, 1, FuncCode::Uncached);
        m.st8(0, m.va(1, 0xC000), 2);
        let stale = m.ld8(0, m.va(2, 0xC000));
        assert_eq!(stale, 1, "synonym read bypassed the buffered store");
        // Same-annex read forwards correctly.
        let fresh = m.ld8(0, m.va(1, 0xC000));
        assert_eq!(fresh, 2);
        // After fencing and acknowledgement everything agrees.
        m.memory_barrier(0);
        m.wait_write_acks(0);
        assert_eq!(m.ld8(0, m.va(2, 0xC000)), 2);
    }

    #[test]
    fn store_arrivals_logged_for_store_sync() {
        let mut m = machine2();
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        for i in 0..4u64 {
            m.st8(0, m.va(1, 0xD000 + i * 64), i);
        }
        m.memory_barrier(0);
        let t = m.arrival_time_of(1, 32).expect("32 bytes arrived");
        assert!(t > 0);
        assert_eq!(m.arrival_time_of(1, 33), None);
    }

    #[test]
    fn non_power_of_two_machine_is_rejected() {
        let err = Machine::try_new(MachineConfig::t3d(24)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "machine size must be a power of two >= 1, got 24 nodes"
        );
        for n in [1u32, 2, 8, 64, 1024] {
            assert!(Machine::try_new(MachineConfig::t3d(n)).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "machine size must be a power of two >= 1, got 24 nodes")]
    fn new_panics_on_non_power_of_two() {
        let _ = Machine::new(MachineConfig::t3d(24));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LINE (64 B)")]
    fn new_panics_on_a_line_wider_than_max_line() {
        let mut cfg = MachineConfig::t3d(2);
        cfg.mem.l1.line = 128;
        let _ = Machine::new(cfg);
    }

    #[test]
    fn fresh_machine_commits_no_node_memory() {
        // Construction must not touch the demand-chunked arenas: a
        // 64-PE machine with 16 MB nodes is a 1 GB address space but a
        // few-KB allocation until programs store to it.
        let m = Machine::new(MachineConfig::t3d(64));
        let resident: usize = (0..m.nodes())
            .map(|pe| m.node(pe).port.mem_arena().resident_bytes())
            .sum();
        assert_eq!(resident, 0, "fresh machines commit no chunks");
    }

    #[test]
    fn link_contention_is_free_for_a_lone_sender() {
        // With one PE sending, every route link is idle at `ready`:
        // the queueing term is zero and the clocks match the
        // uncontended machine exactly.
        let run = |link: bool| {
            let mut cfg = MachineConfig::t3d(8);
            cfg.link_contention = link;
            let mut m = Machine::new(cfg);
            set_annex(&mut m, 0, 1, 7, FuncCode::Uncached);
            for i in 0..4u64 {
                m.st8(0, m.va(1, 0x2000 + i * 8), i);
            }
            m.memory_barrier(0);
            m.wait_write_acks(0);
            let _ = m.ld8(0, m.va(1, 0x2000));
            let _ = m.fetch_inc(0, 7, 0);
            m.clock(0)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn link_contention_queues_streams_sharing_a_link() {
        // On the (2, 2, 2) torus both 5 → 0 and 7 → 0 dimension-order
        // routes finish over the Z link (0,0,1) → (0,0,0); two
        // simultaneous 2 KB BLT streams must serialize on it (1024 cy
        // of occupancy each at two bytes per cycle).
        let run = |link: bool| {
            let mut cfg = MachineConfig::t3d(8);
            cfg.link_contention = link;
            let mut m = Machine::new(cfg);
            let h5 = m.blt_start(5, BltDirection::Write, 0x1000, 0, 0x8000, 2048);
            let h7 = m.blt_start(7, BltDirection::Write, 0x1000, 0, 0x9000, 2048);
            m.blt_wait(5, h5);
            m.blt_wait(7, h7);
            m.clock(5).max(m.clock(7))
        };
        let free = run(false);
        let queued = run(true);
        assert!(
            queued >= free + 1000,
            "shared final link must queue the second stream: {queued} vs {free} cy"
        );
    }

    #[test]
    fn remote_write_invalidate_keeps_owner_coherent() {
        let mut m = machine2();
        // Owner caches its own line.
        m.poke8(1, 0xE000, 1);
        assert_eq!(m.ld8(1, 0xE000), 1);
        // Remote write arrives; owner's next read must see it.
        set_annex(&mut m, 0, 1, 1, FuncCode::Uncached);
        m.st8(0, m.va(1, 0xE000), 2);
        m.memory_barrier(0);
        m.wait_write_acks(0);
        assert_eq!(
            m.ld8(1, 0xE000),
            2,
            "cache-invalidate mode flushed the line"
        );
    }
}
