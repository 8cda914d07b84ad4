//! Event-driven time advance: the skip-to-next-event engine core.
//!
//! The paper's dominant cost classes on communication-heavy kernels are
//! the quiescent ones — barrier waits, write-ack drains, prefetch
//! stalls. This module makes the event structure of those waits
//! explicit: every completion a PE can block on (write-buffer retires,
//! ack arrivals, prefetch arrivals, BLT completions, barrier
//! settlements) becomes a typed [`Event`] with a due-time in a per-node
//! [`EventQueue`], and each wait class fast-forwards the PE's clock
//! event by event in O(pending events) instead of conceptually spinning
//! through the interval.
//!
//! **Bit-identity contract.** For every wait class the event path must
//! reproduce the cycle-accurate path exactly: same final clock, same
//! retired-write completions (hence same remote-store arrival and ack
//! times), same attribution totals in the merged per-PE ledger, same
//! latency-histogram samples. The helpers below achieve this by
//! construction — they fast-forward to each pending completion's
//! integer due-time (`⌈c⌉ − now == ⌈c − now⌉` for integer `now`) and
//! then let the *existing* unit method run at the fast-forwarded time,
//! where its wait term is zero and only its fixed issue/poll/pop cost
//! remains. The differential suites (`tests/event_core.rs`, the
//! fuzzer's `--engine-matrix` mode) enforce the contract end to end.
//!
//! **Contention rule.** Shell-queueing contention couples PEs through
//! shared node state, so windows where ≥2 PEs have in-flight remote
//! traffic stay on the cycle-accurate path (see
//! `Machine::use_event_path`). With contention off — the default, as in
//! the paper's uncongested measurements — every wait is closed over the
//! local node's pending events and the fast-forward is exact.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Which time-advance engine a machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// The original path: every wait computes its cost in one closed
    /// form and advances the clock once.
    Cycle,
    /// The skip-to-next-event path: waits schedule typed events and
    /// fast-forward the clock due-time by due-time.
    Event,
}

impl EngineMode {
    /// Reads `T3D_EVENT` once per process: `0` selects the
    /// cycle-accurate engine, anything else (including unset) the event
    /// engine — the event core is the default now that the differential
    /// suite proves it bit-identical.
    pub fn from_env() -> EngineMode {
        static MODE: OnceLock<EngineMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("T3D_EVENT") {
            Ok(v) if v.trim() == "0" => EngineMode::Cycle,
            _ => EngineMode::Event,
        })
    }
}

/// What a scheduled completion is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A write-buffer entry finishes retiring.
    WbufRetire,
    /// A remote-write acknowledgement arrives at the status bit.
    AckArrival,
    /// The oldest binding prefetch's data arrives in the queue.
    PrefetchArrival,
    /// An outstanding BLT stream completes.
    BltComplete,
    /// The global barrier (or fuzzy-barrier end) settles for this PE.
    BarrierSettle,
}

/// A typed completion with a due-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time at which the completion happens.
    pub due: u64,
    /// What completes.
    pub kind: EventKind,
    /// Tie-break: insertion order among equal due-times.
    seq: u64,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Counters of event-engine activity. Deliberately *not* part of the
/// perf registry or report: reports are compared bit-for-bit across
/// engine modes, and these counters are the one thing that legitimately
/// differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Events consumed by fast-forwarding waits.
    pub events_fast_forwarded: u64,
    /// Cycles the clock skipped over in those waits.
    pub cycles_fast_forwarded: u64,
}

/// One node's pending-completion queue, ordered by `(due, seq)`.
///
/// The queue is empty between operations by construction: each wait
/// helper harvests the relevant unit's pending completions into events
/// and then drains them fully, so no stale event survives an op.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    /// Engine-activity counters (never compared across modes).
    pub stats: EventStats,
    /// Fault-injection hook: extra cycles added to the due-time of the
    /// next event popped. Set by `Machine::perturb_next_event`; the
    /// differential harness must catch the resulting divergence.
    pending_skew: Option<u64>,
}

impl EventQueue {
    /// Schedules a completion of `kind` at `due`.
    pub fn push(&mut self, due: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { due, kind, seq }));
    }

    /// Pops the earliest pending event, applying (and consuming) any
    /// pending due-time skew.
    pub fn pop(&mut self) -> Option<Event> {
        let Reverse(mut ev) = self.heap.pop()?;
        if let Some(extra) = self.pending_skew.take() {
            ev.due += extra;
        }
        Some(ev)
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Arms the fault-injection hook: the next popped event's due-time
    /// is pushed `extra_cy` cycles late.
    pub fn skew_next(&mut self, extra_cy: u64) {
        self.pending_skew = Some(extra_cy);
    }

    /// Drops any scheduled events and skew (counters are kept; they are
    /// cumulative instrumentation, not timing state).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pending_skew = None;
    }
}

use crate::node::{Node, NodeHot};
use t3d_perf::CostClass;
use t3d_shell::PopError;

/// Fast-forwards `hot.clock` through every scheduled event, crediting
/// each skipped span to `class` in the node ledger. `WbufRetire` events
/// additionally retire due write-buffer entries at exactly their
/// due-times, so retired completions (and therefore remote-store
/// arrival/ack times) match the cycle path's. Returns the cycles
/// skipped.
fn drain_events(hot: &mut NodeHot, node: &mut Node, class: CostClass) -> u64 {
    let start = hot.clock;
    while let Some(ev) = node.events.pop() {
        if ev.due > hot.clock {
            let skipped = ev.due - hot.clock;
            hot.clock = ev.due;
            node.perf.credit(class, skipped);
            node.events.stats.cycles_fast_forwarded += skipped;
        }
        node.events.stats.events_fast_forwarded += 1;
        if ev.kind == EventKind::WbufRetire {
            node.port.apply_due(hot.clock);
        }
    }
    hot.clock - start
}

/// Event-path memory barrier: one `WbufRetire` event per pending entry,
/// fast-forward through them, then issue the barrier on the (now empty)
/// buffer. Returns the total cost; bit-identical to
/// `MemPort::memory_barrier` at the original clock because the FIFO
/// due-times are nondecreasing and `⌈c⌉ − now == ⌈c − now⌉` for integer
/// `now`. The skipped span lands in the node ledger and the issue cost
/// in the port ledger — both under `WbufDrain`, so the merged per-PE
/// ledger matches the cycle path's.
pub(crate) fn memory_barrier_event(hot: &mut NodeHot, node: &mut Node) -> u64 {
    debug_assert!(node.events.is_empty(), "no stale events between ops");
    let start = hot.clock;
    for due in node.port.wbuf_due_times() {
        node.events.push(due, EventKind::WbufRetire);
    }
    drain_events(hot, node, CostClass::WbufDrain);
    let issue = node.port.memory_barrier(hot.clock);
    hot.clock += issue;
    hot.clock - start
}

/// Event-path write-acknowledgement wait: one `AckArrival` event per
/// outstanding ack, fast-forward to the last of them, then one final
/// status poll. Total cost equals `AckTracker::wait_clear` at the
/// original clock; every cycle is credited to `AckWait`.
pub(crate) fn wait_write_acks_event(hot: &mut NodeHot, node: &mut Node) -> u64 {
    debug_assert!(node.events.is_empty(), "no stale events between ops");
    let start = hot.clock;
    for &t in node.acks.pending_times() {
        node.events.push(t, EventKind::AckArrival);
    }
    drain_events(hot, node, CostClass::AckWait);
    let poll = node.acks.wait_clear(hot.clock);
    hot.clock += poll;
    node.perf.credit(CostClass::AckWait, poll);
    hot.clock - start
}

/// Event-path prefetch pop: fast-forward to the head's arrival, then
/// pop at zero wait. Total cost equals `PrefetchUnit::pop` at the
/// original clock; every cycle is credited to `PrefetchWait`.
///
/// # Errors
///
/// The same conditions as `PrefetchUnit::pop`, checked *before* any
/// clock motion.
pub(crate) fn pop_prefetch_event(
    hot: &mut NodeHot,
    node: &mut Node,
) -> Result<(u64, u64), PopError> {
    debug_assert!(node.events.is_empty(), "no stale events between ops");
    let start = hot.clock;
    let arrival = node.prefetch.head_arrival()?;
    if arrival > hot.clock {
        node.events.push(arrival, EventKind::PrefetchArrival);
        drain_events(hot, node, CostClass::PrefetchWait);
    }
    let (value, cost) = node
        .prefetch
        .pop(hot.clock)
        .expect("head checked by head_arrival");
    hot.clock += cost;
    node.perf.credit(CostClass::PrefetchWait, cost);
    Ok((value, hot.clock - start))
}

/// Event-path BLT wait: fast-forward to the stream's completion (the
/// cycle path's `clock.max(completion)`), crediting the wait to
/// `BltWait`. Returns the cycles waited.
pub(crate) fn blt_wait_event(hot: &mut NodeHot, node: &mut Node, completion: u64) -> u64 {
    debug_assert!(node.events.is_empty(), "no stale events between ops");
    let start = hot.clock;
    if completion > hot.clock {
        node.events.push(completion, EventKind::BltComplete);
        drain_events(hot, node, CostClass::BltWait);
    }
    hot.clock - start
}

/// Event-path barrier settlement: schedules and consumes one
/// `BarrierSettle` event at `done` and returns the aligned time
/// `clock.max(due)`. The caller owns the clock update and the
/// `BarrierOverhead`/`BarrierWait` credits, which stay identical to the
/// cycle path's. This is also the guaranteed consumption point for a
/// pending due-time skew: every barrier pops one settle event per PE,
/// so an armed `perturb_next_event` always fires by the next barrier.
pub(crate) fn barrier_settle_event(hot: &NodeHot, node: &mut Node, done: u64) -> u64 {
    debug_assert!(node.events.is_empty(), "no stale events between ops");
    node.events.push(done, EventKind::BarrierSettle);
    let ev = node.events.pop().expect("just pushed");
    let aligned = hot.clock.max(ev.due);
    node.events.stats.events_fast_forwarded += 1;
    node.events.stats.cycles_fast_forwarded += aligned - hot.clock;
    aligned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_due_then_insertion_order() {
        let mut q = EventQueue::default();
        q.push(30, EventKind::AckArrival);
        q.push(10, EventKind::WbufRetire);
        q.push(10, EventKind::PrefetchArrival);
        let order: Vec<(u64, EventKind)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.due, e.kind))
            .collect();
        assert_eq!(
            order,
            vec![
                (10, EventKind::WbufRetire),
                (10, EventKind::PrefetchArrival),
                (30, EventKind::AckArrival),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn skew_applies_to_exactly_one_pop() {
        let mut q = EventQueue::default();
        q.push(10, EventKind::BarrierSettle);
        q.push(20, EventKind::BarrierSettle);
        q.skew_next(5);
        assert_eq!(q.pop().unwrap().due, 15, "first pop is skewed");
        assert_eq!(q.pop().unwrap().due, 20, "skew was consumed");
    }

    #[test]
    fn clear_drops_events_and_skew_but_keeps_stats() {
        let mut q = EventQueue::default();
        q.push(10, EventKind::BltComplete);
        q.skew_next(7);
        q.stats.events_fast_forwarded = 3;
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pending_skew, None);
        assert_eq!(q.stats.events_fast_forwarded, 3);
        q.push(10, EventKind::BltComplete);
        assert_eq!(q.pop().unwrap().due, 10, "no stale skew");
    }

    #[test]
    fn engine_mode_from_env_is_stable() {
        // Whatever the ambient T3D_EVENT, repeated reads agree (OnceLock).
        assert_eq!(EngineMode::from_env(), EngineMode::from_env());
    }
}
