//! The Alpha 21064 four-entry merging write buffer.
//!
//! Stores are non-blocking on the 21064: they enter a four-entry write
//! buffer, each entry one cache line (32 B) wide, and retire to memory in
//! FIFO order through a pipelined memory path. Consecutive stores to the
//! same line *merge* into one entry (Section 2.3 of the paper derives both
//! the merge behaviour and the entry count of 4 from the write-latency
//! profile).
//!
//! Two properties of this buffer drive compiler decisions in the paper:
//!
//! * **Reads can bypass writes.** A load is matched against pending
//!   entries by *full physical address* (which on the T3D includes the
//!   DTB-Annex index bits). Two annex synonyms — different physical
//!   addresses naming the same memory location — therefore do not match,
//!   and a read can observe the stale memory value while the newer value
//!   sits in the buffer (Section 3.4). This module reproduces that hazard
//!   byte-for-byte.
//! * **Remote stores retire more slowly than local ones** and acknowledge
//!   asynchronously, which is what makes the non-blocking remote write the
//!   fastest communication primitive on the machine (Section 5.3).
//!
//! Time inside the buffer is tracked in fractional cycles so that the
//! pipelined retire interval (DRAM cost / 4) reproduces the measured
//! 35 ns steady-state store cost.

use crate::config::{WbufConfig, MAX_LINE};
use std::collections::VecDeque;

/// Where a buffered write is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteTarget {
    /// Local memory on this node.
    Local,
    /// A remote node, via the shell.
    Remote(RemoteSink),
}

/// Destination and cost parameters for a buffered *remote* write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteSink {
    /// Destination processing element.
    pub pe: u32,
    /// Line-aligned physical address in the destination's local memory.
    pub remote_line_pa: u64,
    /// Fixed part of the shell injection interval, in cycles.
    pub base_cy: u64,
    /// Per-64-bit-word part of the injection interval, in cycles.
    pub per_word_cy: u64,
    /// Cycles from injection until the hardware acknowledgement returns
    /// and decrements the outstanding-writes counter.
    pub ack_rtt_cy: u64,
}

impl RemoteSink {
    /// Injection interval for an entry carrying `words` valid quadwords.
    pub fn interval_cy(&self, words: u64) -> u64 {
        self.base_cy + self.per_word_cy * words
    }
}

/// A write that has retired from the buffer.
#[derive(Debug, Clone)]
pub struct Retired {
    /// Line-aligned physical address the entry was buffered under.
    pub line_pa: u64,
    /// Per-byte valid mask within the line.
    pub mask: u64,
    /// Line data, inline; only the first `line` bytes are in use, and of
    /// those only bytes with a set mask bit are meaningful.
    pub data: [u8; MAX_LINE],
    /// Destination of the write.
    pub target: WriteTarget,
    /// Virtual time (cycles) at which the entry left the buffer.
    pub completion: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    line_pa: u64,
    mask: u64,
    data: [u8; MAX_LINE],
    target: WriteTarget,
    /// Earliest time the retire pipeline could begin serving this entry
    /// (issue time or the predecessor's completion, whichever is later) —
    /// fixed at push so merges cannot jump the FIFO.
    base: f64,
    /// Interval this entry occupies the retire pipeline.
    interval: f64,
    /// Time the entry finishes retiring.
    completion: f64,
    /// `completion` rounded up: the integer cycle it retires at.
    due: u64,
}

impl Entry {
    fn retire(self) -> Retired {
        Retired {
            line_pa: self.line_pa,
            mask: self.mask,
            data: self.data,
            target: self.target,
            completion: self.due,
        }
    }

    fn words(&self, line: usize) -> u64 {
        let mut words = 0;
        for q in 0..(line / 8) {
            if (self.mask >> (q * 8)) & 0xFF != 0 {
                words += 1;
            }
        }
        words.max(1)
    }
}

/// Outcome of pushing a store into the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// Cycles the store cost the issuing processor (issue + any stall for
    /// a free entry).
    pub cycles: u64,
    /// Whether the store merged into an existing entry.
    pub merged: bool,
}

/// The four-entry merging write buffer.
///
/// # Example
///
/// ```
/// use t3d_memsys::{MemConfig, WriteBuffer, WriteTarget};
///
/// let cfg = MemConfig::t3d();
/// let mut wb = WriteBuffer::new(cfg.wbuf, cfg.l1.line);
/// let mut retired = Vec::new();
/// // Two stores to the same 32 B line merge into one entry.
/// wb.push(0, 0x100, &[1u8; 8], WriteTarget::Local, 22, &mut retired);
/// let out = wb.push(3, 0x108, &[2u8; 8], WriteTarget::Local, 22, &mut retired);
/// assert!(out.merged);
/// assert_eq!(wb.pending(), 1);
/// assert!(retired.is_empty(), "nothing was forced out");
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    cfg: WbufConfig,
    line: usize,
    entries: VecDeque<Entry>,
    /// Completion time of the most recently scheduled entry (the retire
    /// pipeline is strictly FIFO).
    pipe_tail: f64,
}

impl WriteBuffer {
    /// Creates an empty buffer for `line`-byte cache lines.
    ///
    /// # Panics
    ///
    /// Panics if `line` exceeds [`MAX_LINE`] (the byte-mask width).
    pub fn new(cfg: WbufConfig, line: usize) -> Self {
        assert!(
            line <= MAX_LINE,
            "line size {line} exceeds MAX_LINE ({MAX_LINE} B, the byte-mask width)"
        );
        WriteBuffer {
            cfg,
            line,
            entries: VecDeque::new(),
            pipe_tail: 0.0,
        }
    }

    /// Number of entries currently pending.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Whether any entry is pending for exactly this full physical line
    /// address (annex bits included).
    pub fn has_pending_line(&self, line_pa: u64) -> bool {
        self.entries.iter().any(|e| e.line_pa == line_pa)
    }

    /// Completion time of the last pending entry, if any.
    pub fn drain_time(&self) -> Option<u64> {
        self.entries.back().map(|e| e.due)
    }

    /// Earliest cycle at which [`WriteBuffer::drain_due`] could retire
    /// anything, if an entry is pending. The retire pipeline is FIFO, so
    /// this is the head's completion; for integer `now`,
    /// `now >= next_due()` exactly when the head is due (`⌈c⌉ <= now` iff
    /// `c <= now`). The port caches this to skip the drain call on the
    /// per-operation fast path.
    pub fn next_due(&self) -> Option<u64> {
        self.entries.front().map(|e| e.due)
    }

    fn line_base(&self, pa: u64) -> u64 {
        pa & !((self.line as u64) - 1)
    }

    /// Pushes a store of `bytes` at physical address `pa`.
    ///
    /// `local_dram_cy` is the DRAM service cost the entry will pay when it
    /// retires locally (ignored for remote targets, whose interval comes
    /// from their [`RemoteSink`]). Returns the processor-visible cost; a
    /// head entry forced out to make room is appended to `retired`.
    ///
    /// # Panics
    ///
    /// Panics if the store crosses a line boundary or is empty.
    pub fn push(
        &mut self,
        now: u64,
        pa: u64,
        bytes: &[u8],
        target: WriteTarget,
        local_dram_cy: u64,
        retired: &mut Vec<Retired>,
    ) -> PushOutcome {
        assert!(!bytes.is_empty(), "store must carry at least one byte");
        let line_pa = self.line_base(pa);
        let off = (pa - line_pa) as usize;
        assert!(
            off + bytes.len() <= self.line,
            "store must not cross a line boundary"
        );

        let mut cost = self.cfg.store_issue_cy;
        let tnow = now as f64;

        // Write merging: the youngest entry can absorb the store if it is
        // for the same line and destination and is still in the buffer.
        let can_merge = self.cfg.merge
            && self.entries.back().is_some_and(|tail| {
                tail.line_pa == line_pa && tail.target == target && tail.completion > tnow
            });
        if can_merge {
            let line = self.line;
            let tail = self.entries.back_mut().expect("tail exists");
            for (i, b) in bytes.iter().enumerate() {
                tail.data[off + i] = *b;
                tail.mask |= 1 << (off + i);
            }
            if let WriteTarget::Remote(sink) = tail.target {
                // A wider entry takes longer to inject through the shell.
                tail.interval = sink.interval_cy(tail.words(line)) as f64;
                tail.completion = tail.base + tail.interval;
                tail.due = tail.completion.ceil() as u64;
                self.pipe_tail = tail.completion;
            }
            return PushOutcome {
                cycles: cost,
                merged: true,
            };
        }

        // Stall for a free entry, retiring the head if the buffer is full.
        if self.entries.len() == self.cfg.entries {
            let head_done = self.entries.front().expect("buffer full").completion;
            if head_done > tnow {
                cost += (head_done - tnow).ceil() as u64;
            }
            let head = self.entries.pop_front().expect("buffer full");
            retired.push(head.retire());
        }

        let issue = (now + cost) as f64;
        let mut data = [0u8; MAX_LINE];
        let mut mask = 0u64;
        for (i, b) in bytes.iter().enumerate() {
            data[off + i] = *b;
            mask |= 1 << (off + i);
        }
        let interval = match target {
            WriteTarget::Local => local_dram_cy as f64 / self.cfg.pipeline as f64,
            WriteTarget::Remote(sink) => {
                let words = bytes.len().div_ceil(8).max(1) as u64;
                sink.interval_cy(words) as f64
            }
        };
        let base = issue.max(self.pipe_tail);
        let completion = base + interval;
        self.pipe_tail = completion;
        self.entries.push_back(Entry {
            line_pa,
            mask,
            data,
            target,
            base,
            interval,
            completion,
            due: completion.ceil() as u64,
        });
        PushOutcome {
            cycles: cost,
            merged: false,
        }
    }

    /// Retires every entry whose completion time is at or before `now`,
    /// appending them to `out` in FIFO order.
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<Retired>) {
        while let Some(head) = self.entries.front() {
            if head.completion > now as f64 {
                break;
            }
            let e = self.entries.pop_front().expect("head exists");
            out.push(e.retire());
        }
    }

    /// Drains the whole buffer (memory-barrier semantics), appending the
    /// retired entries to `out`, and returns the cost in cycles to the
    /// issuing processor (barrier issue + wait for the last entry).
    pub fn drain_all(&mut self, now: u64, out: &mut Vec<Retired>) -> u64 {
        let mut cost = self.cfg.mb_issue_cy;
        if let Some(last) = self.entries.back() {
            if last.completion > now as f64 {
                cost += (last.completion - now as f64).ceil() as u64;
            }
        }
        out.extend(self.entries.drain(..).map(Entry::retire));
        cost
    }

    /// Resets the retire pipeline (entries must already be drained).
    /// Used by probe harnesses between trials, together with the clock
    /// reset.
    ///
    /// # Panics
    ///
    /// Panics if entries are still pending.
    pub fn reset(&mut self) {
        assert!(
            self.entries.is_empty(),
            "drain the buffer before resetting it"
        );
        self.pipe_tail = 0.0;
    }

    /// Read forwarding: overlays every pending byte for exactly this full
    /// physical line address onto `line_buf` (oldest entries first).
    ///
    /// Annex synonyms have *different* physical addresses and therefore do
    /// not forward — which is precisely the stale-read hazard of
    /// Section 3.4.
    pub fn forward(&self, line_pa: u64, line_buf: &mut [u8]) -> bool {
        let mut any = false;
        for e in &self.entries {
            if e.line_pa == line_pa {
                for (i, b) in line_buf.iter_mut().enumerate().take(self.line) {
                    if e.mask & (1 << i) != 0 {
                        *b = e.data[i];
                    }
                }
                any = true;
            }
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn wbuf() -> WriteBuffer {
        let cfg = MemConfig::t3d();
        WriteBuffer::new(cfg.wbuf, cfg.l1.line)
    }

    fn drain_due(wb: &mut WriteBuffer, now: u64) -> Vec<Retired> {
        let mut out = Vec::new();
        wb.drain_due(now, &mut out);
        out
    }

    fn sink() -> RemoteSink {
        RemoteSink {
            pe: 1,
            remote_line_pa: 0x100,
            base_cy: 5,
            per_word_cy: 12,
            ack_rtt_cy: 60,
        }
    }

    #[test]
    fn stores_to_one_line_merge() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        for i in 0..4u64 {
            let out = wb.push(
                i,
                0x100 + i * 8,
                &[i as u8; 8],
                WriteTarget::Local,
                22,
                &mut r,
            );
            assert_eq!(out.merged, i != 0);
        }
        assert_eq!(wb.pending(), 1);
    }

    #[test]
    fn back_to_back_same_line_stores_average_three_cycles() {
        // The 20 ns small-stride plateau of Figure 2: at issue pace, every
        // other store merges and none stall, so the average cost is the
        // 3-cycle issue cost.
        let mut wb = wbuf();
        let mut r = Vec::new();
        let mut now = 0u64;
        let n = 256u64;
        for i in 0..n {
            let out = wb.push(
                now,
                (i / 4) * 32 + (i % 4) * 8,
                &[1; 8],
                WriteTarget::Local,
                22,
                &mut r,
            );
            now += out.cycles;
        }
        let avg = now as f64 / n as f64;
        assert!(
            (2.5..4.0).contains(&avg),
            "small-stride store cost {avg} cy"
        );
    }

    #[test]
    fn distinct_lines_occupy_distinct_entries() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        for i in 0..4u64 {
            wb.push(i, 0x100 + i * 32, &[1; 8], WriteTarget::Local, 22, &mut r);
        }
        assert_eq!(wb.pending(), 4);
    }

    #[test]
    fn full_buffer_stalls_until_head_retires() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        for i in 0..4u64 {
            wb.push(i, i * 64, &[1; 8], WriteTarget::Local, 22, &mut r);
        }
        let out = wb.push(4, 4 * 64, &[1; 8], WriteTarget::Local, 22, &mut r);
        assert_eq!(r.len(), 1, "head was forced out");
        assert!(
            out.cycles > MemConfig::t3d().wbuf.store_issue_cy,
            "store stalled"
        );
    }

    #[test]
    fn steady_state_local_interval_is_quarter_dram_cost() {
        let mut r = Vec::new();
        // With back-to-back stores to distinct lines, throughput is
        // limited to one entry per dram/4 = 5.5 cycles: the 35 ns plateau
        // in Figure 2.
        let mut wb = wbuf();
        let mut now = 0u64;
        let n = 64u64;
        for i in 0..n {
            let out = wb.push(now, i * 64, &[1; 8], WriteTarget::Local, 22, &mut r);
            now += out.cycles;
        }
        let avg = now as f64 / n as f64;
        assert!(
            (5.0..7.0).contains(&avg),
            "steady-state store cost {avg} cy"
        );
    }

    #[test]
    fn remote_single_word_interval_is_17_cycles() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        let mut now = 0u64;
        let n = 64u64;
        for i in 0..n {
            let out = wb.push(
                now,
                i * 64,
                &[1; 8],
                WriteTarget::Remote(sink()),
                22,
                &mut r,
            );
            now += out.cycles;
        }
        let avg = now as f64 / n as f64;
        assert!(
            (16.0..19.0).contains(&avg),
            "steady-state remote store cost {avg} cy"
        );
    }

    #[test]
    fn merged_remote_line_is_cheaper_per_word_than_four_singles() {
        // 4 merged words: 5 + 12*4 = 53 cy per line = ~90 MB/s;
        // 4 single-word entries: 4 * 17 = 68 cy.
        let s = sink();
        assert!(s.interval_cy(4) < 4 * s.interval_cy(1));
    }

    #[test]
    fn forward_matches_only_exact_physical_line() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        wb.push(0, 0x100, &[7; 8], WriteTarget::Local, 22, &mut r);
        let mut buf = [0u8; 32];
        assert!(wb.forward(0x100, &mut buf));
        assert_eq!(buf[0], 7);
        let mut buf2 = [0u8; 32];
        let synonym = 0x100 | (1 << 27); // same location, different annex bits
        assert!(!wb.forward(synonym, &mut buf2), "synonym must NOT forward");
        assert_eq!(buf2[0], 0, "synonym read sees stale bytes");
    }

    #[test]
    fn forward_overlays_youngest_value() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        wb.push(0, 0x100, &[1; 8], WriteTarget::Local, 22, &mut r);
        // A second, non-mergeable write to the same line (force by filling
        // with a different target) — emulate by draining merge window:
        // push to another line in between.
        wb.push(1, 0x200, &[9; 8], WriteTarget::Local, 22, &mut r);
        wb.push(2, 0x100, &[2; 8], WriteTarget::Local, 22, &mut r);
        let mut buf = [0u8; 32];
        wb.forward(0x100, &mut buf);
        assert_eq!(buf[0], 2, "youngest pending value wins");
    }

    #[test]
    fn drain_all_reports_cost_and_empties() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        for i in 0..4u64 {
            wb.push(i, i * 64, &[1; 8], WriteTarget::Local, 22, &mut r);
        }
        let mut retired = Vec::new();
        let cost = wb.drain_all(4, &mut retired);
        assert_eq!(retired.len(), 4);
        assert!(cost > MemConfig::t3d().wbuf.mb_issue_cy);
        assert_eq!(wb.pending(), 0);
        // Barrier on an empty buffer costs just the issue.
        retired.clear();
        let cost = wb.drain_all(100, &mut retired);
        assert!(retired.is_empty());
        assert_eq!(cost, MemConfig::t3d().wbuf.mb_issue_cy);
    }

    #[test]
    fn drain_due_respects_completion_times() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        wb.push(0, 0, &[1; 8], WriteTarget::Local, 22, &mut r);
        assert!(drain_due(&mut wb, 0).is_empty(), "not yet complete");
        assert_eq!(drain_due(&mut wb, 1000).len(), 1);
    }

    #[test]
    fn next_due_agrees_with_drain_due_at_the_boundary() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        assert_eq!(wb.next_due(), None, "empty buffer has nothing due");
        wb.push(0, 0, &[1; 8], WriteTarget::Local, 22, &mut r);
        let due = wb.next_due().expect("one entry pending");
        assert!(
            drain_due(&mut wb, due - 1).is_empty(),
            "one cycle early nothing retires"
        );
        assert_eq!(
            drain_due(&mut wb, due).len(),
            1,
            "at next_due the head retires"
        );
        assert_eq!(wb.next_due(), None);
    }

    #[test]
    fn merging_remote_entry_extends_interval() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        wb.push(0, 0x100, &[1; 8], WriteTarget::Remote(sink()), 22, &mut r);
        let t1 = wb.drain_time().unwrap();
        wb.push(1, 0x108, &[2; 8], WriteTarget::Remote(sink()), 22, &mut r);
        let t2 = wb.drain_time().unwrap();
        assert_eq!(wb.pending(), 1, "merged");
        assert!(t2 > t1, "wider entry takes longer to inject");
    }

    #[test]
    fn merging_can_be_disabled() {
        let mut r = Vec::new();
        let mut cfg = MemConfig::t3d();
        cfg.wbuf.merge = false;
        let mut wb = WriteBuffer::new(cfg.wbuf, cfg.l1.line);
        wb.push(0, 0x100, &[1; 8], WriteTarget::Local, 22, &mut r);
        let out = wb.push(1, 0x108, &[2; 8], WriteTarget::Local, 22, &mut r);
        assert!(!out.merged, "ablated buffer never merges");
        assert_eq!(wb.pending(), 2);
    }

    #[test]
    #[should_panic(expected = "line boundary")]
    fn push_across_line_panics() {
        let mut r = Vec::new();
        let mut wb = wbuf();
        wb.push(0, 28, &[0; 8], WriteTarget::Local, 22, &mut r);
    }
}
