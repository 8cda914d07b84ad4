//! The outstanding-remote-write counter and status bit.
//!
//! Every remote write is acknowledged by the target's shell; a counter of
//! un-acknowledged writes backs a status bit in a local shell register.
//! Section 4.3 documents the trap: the bit only covers writes that have
//! *left the processor* — a write still in the write buffer is invisible
//! to it, so a blocking write must fence (memory barrier) before polling.
//! [`AckTracker`] models the counter in virtual time; the machine layer
//! enforces the fence-before-poll discipline.

use crate::config::ShellConfig;

/// Tracks acknowledgement arrival times for remote writes in flight.
///
/// # Example
///
/// ```
/// use t3d_shell::{AckTracker, ShellConfig};
///
/// let mut acks = AckTracker::new(&ShellConfig::t3d());
/// acks.expect_ack(100);
/// assert_eq!(acks.outstanding(50), 1);
/// assert_eq!(acks.outstanding(100), 0);
/// ```
#[derive(Debug, Clone)]
pub struct AckTracker {
    /// Arrival times of acknowledgements not yet known to have landed.
    times: Vec<u64>,
    poll_cy: u64,
}

impl AckTracker {
    /// Creates a tracker with no writes in flight.
    pub fn new(cfg: &ShellConfig) -> Self {
        AckTracker {
            times: Vec::new(),
            poll_cy: cfg.status_poll_cy,
        }
    }

    /// Registers a write whose acknowledgement arrives at `arrival_cy`.
    pub fn expect_ack(&mut self, arrival_cy: u64) {
        self.times.push(arrival_cy);
    }

    /// Number of writes still unacknowledged at `now`.
    pub fn outstanding(&self, now: u64) -> usize {
        self.times.iter().filter(|&&t| t > now).count()
    }

    /// Reads the status bit once: `(clear?, cost)`.
    pub fn poll(&mut self, now: u64) -> (bool, u64) {
        self.compact(now);
        (self.times.is_empty(), self.poll_cy)
    }

    /// Spins on the status bit until it clears; returns the total cost
    /// (wait plus one final poll).
    pub fn wait_clear(&mut self, now: u64) -> u64 {
        let last = self.times.iter().copied().max().unwrap_or(0);
        self.times.clear();
        last.saturating_sub(now) + self.poll_cy
    }

    /// Time at which the bit clears, given no further writes.
    pub fn clear_time(&self) -> Option<u64> {
        self.times.iter().copied().max()
    }

    fn compact(&mut self, now: u64) {
        self.times.retain(|&t| t > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> AckTracker {
        AckTracker::new(&ShellConfig::t3d())
    }

    #[test]
    fn poll_clear_when_idle() {
        let mut a = tracker();
        let (clear, cost) = a.poll(0);
        assert!(clear);
        assert_eq!(cost, 5);
    }

    #[test]
    fn poll_set_while_in_flight() {
        let mut a = tracker();
        a.expect_ack(100);
        let (clear, _) = a.poll(50);
        assert!(!clear);
        let (clear, _) = a.poll(101);
        assert!(clear);
    }

    #[test]
    fn wait_clear_charges_until_last_ack() {
        let mut a = tracker();
        a.expect_ack(100);
        a.expect_ack(300);
        let cost = a.wait_clear(50);
        assert_eq!(cost, 250 + 5);
        assert_eq!(a.outstanding(0), 0);
    }

    #[test]
    fn wait_clear_after_acks_landed_costs_one_poll() {
        let mut a = tracker();
        a.expect_ack(10);
        assert_eq!(a.wait_clear(100), 5);
    }

    #[test]
    fn outstanding_counts_future_acks_only() {
        let mut a = tracker();
        a.expect_ack(10);
        a.expect_ack(20);
        a.expect_ack(30);
        assert_eq!(a.outstanding(15), 2);
        assert_eq!(a.clear_time(), Some(30));
    }
}
