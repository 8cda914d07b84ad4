//! One node: Alpha core state, memory port and shell units.

use crate::config::MachineConfig;
use t3d_memsys::MemPort;
use t3d_perf::PerfAccum;

/// Counters of the operations a node has issued (instrumentation: the
/// communication/computation breakdowns in the application study).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Local loads.
    pub loads_local: u64,
    /// Remote (annex-translated) loads, cached or uncached.
    pub loads_remote: u64,
    /// Local stores.
    pub stores_local: u64,
    /// Remote stores.
    pub stores_remote: u64,
    /// Prefetch issues.
    pub fetches: u64,
    /// Prefetch queue pops.
    pub pops: u64,
    /// Memory barriers.
    pub memory_barriers: u64,
    /// BLT invocations (contiguous or strided).
    pub blts: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Atomic operations (fetch&increment, swap).
    pub atomics: u64,
    /// Acknowledgement waits (status-bit spins).
    pub ack_waits: u64,
}

impl OpStats {
    /// Accumulates another node's counters into this one.
    pub fn accumulate(&mut self, other: &OpStats) {
        self.loads_local += other.loads_local;
        self.loads_remote += other.loads_remote;
        self.stores_local += other.stores_local;
        self.stores_remote += other.stores_remote;
        self.fetches += other.fetches;
        self.pops += other.pops;
        self.memory_barriers += other.memory_barriers;
        self.blts += other.blts;
        self.msgs_sent += other.msgs_sent;
        self.msgs_received += other.msgs_received;
        self.atomics += other.atomics;
        self.ack_waits += other.ack_waits;
    }

    /// Remote communication operations of all kinds.
    pub fn remote_ops(&self) -> u64 {
        self.loads_remote + self.stores_remote + self.fetches + self.blts + self.atomics
    }
}
use t3d_shell::{AckTracker, Annex, BltUnit, FetchIncRegs, MsgQueue, PrefetchUnit, SwapUnit};

/// The hot scalar state of one PE, held in a struct-of-arrays arena on
/// the machine (`Vec<NodeHot>`) rather than inside the pointer-rich
/// [`Node`]. The whole-machine scans — "max clock across PEs", shell
/// occupancy under contention — stride over these few words per PE
/// instead of ~500-byte nodes, so a 1024-PE machine's scan state stays
/// cache-hot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeHot {
    /// Virtual time, in cycles.
    pub clock: u64,
    /// When this node's shell finishes servicing its current remote
    /// request (used only when contention modeling is on).
    pub shell_busy_until: u64,
}

/// A processing element: memory system + shell units. The per-PE hot
/// scalars (clock, shell occupancy) live in the machine's [`NodeHot`]
/// arena.
#[derive(Debug)]
pub struct Node {
    /// Local memory system.
    pub port: MemPort,
    /// DTB Annex segment registers.
    pub annex: Annex,
    /// Binding prefetch queue.
    pub prefetch: PrefetchUnit,
    /// Outstanding-remote-write tracker (status bit).
    pub acks: AckTracker,
    /// Fetch&increment registers.
    pub fetchinc: FetchIncRegs,
    /// Atomic-swap operand register.
    pub swap: SwapUnit,
    /// User-level message queue (receive side).
    pub msgq: MsgQueue,
    /// Block transfer engine.
    pub blt: BltUnit,
    /// Log of remote-write arrivals `(virtual time, bytes)` — the basis
    /// for Split-C `storeSync` (data-counting completion detection).
    pub incoming: Vec<(u64, u64)>,
    /// Operation counters.
    pub ops: OpStats,
    /// Cycle-attribution accumulator for costs the machine layer charges
    /// directly (shell, network, waits); the memory port keeps its own
    /// ledger for the costs it returns. Node-owned so the sharded phase
    /// engine carries it thread-privately.
    pub perf: PerfAccum,
}

impl Node {
    /// Creates a node with identity `pe`.
    pub fn new(cfg: &MachineConfig, pe: u32) -> Self {
        Node {
            port: MemPort::new(cfg.mem),
            annex: Annex::new(&cfg.shell, pe),
            prefetch: PrefetchUnit::new(&cfg.shell),
            acks: AckTracker::new(&cfg.shell),
            fetchinc: FetchIncRegs::new(),
            swap: SwapUnit::new(),
            msgq: MsgQueue::new(&cfg.shell, cfg.msg_mode),
            blt: BltUnit::new(&cfg.shell),
            incoming: Vec::new(),
            ops: OpStats::default(),
            perf: PerfAccum::default(),
        }
    }

    /// Total bytes of remote-write data that had arrived by `now`.
    pub fn bytes_arrived_by(&self, now: u64) -> u64 {
        self.incoming
            .iter()
            .filter(|&&(t, _)| t <= now)
            .map(|&(_, b)| b)
            .sum()
    }

    /// Earliest virtual time at which cumulative arrivals reach
    /// `target_bytes`, if they ever do.
    pub fn arrival_time_of(&self, target_bytes: u64) -> Option<u64> {
        if target_bytes == 0 {
            return Some(0);
        }
        let mut log: Vec<(u64, u64)> = self.incoming.clone();
        log.sort_unstable();
        let mut acc = 0u64;
        for (t, b) in log {
            acc += b;
            if acc >= target_bytes {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_accounting() {
        let mut n = Node::new(&MachineConfig::t3d(2), 0);
        n.incoming.push((100, 8));
        n.incoming.push((50, 8));
        n.incoming.push((200, 16));
        assert_eq!(n.bytes_arrived_by(99), 8);
        assert_eq!(n.bytes_arrived_by(100), 16);
        assert_eq!(n.arrival_time_of(16), Some(100));
        assert_eq!(n.arrival_time_of(32), Some(200));
        assert_eq!(n.arrival_time_of(33), None);
    }
}
