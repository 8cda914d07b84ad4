//! Per-job and fleet-level scheduling metrics.
//!
//! Wait, run and turnaround times are kept per job and summarised as
//! exact nearest-rank percentiles: a load point has about a hundred
//! jobs, so sorting them is cheap, and a log₂-bucket upper bound would
//! hide any p99 regression smaller than 2×. Utilization and queue depth
//! are time-weighted integrals accumulated between scheduler events.

/// One FNV-1a step over `bytes`, continuing from `state`. Seed with
/// [`FNV_OFFSET`]; the scheduler chains every job's ledger entry
/// through one running state to fingerprint the whole run.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A distribution compressed to the figures a BENCH document keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Median, cycles.
    pub p50: u64,
    /// 95th percentile, cycles.
    pub p95: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
    /// Exact mean, cycles.
    pub mean: f64,
}

impl HistSummary {
    /// Summarises per-job samples: each percentile `p` is the sample of
    /// 1-based rank `⌈n·p/100⌉` in ascending order (nearest rank), the
    /// mean is exact. No samples summarise to all zeros.
    pub fn of(samples: &[u64]) -> HistSummary {
        if samples.is_empty() {
            return HistSummary {
                p50: 0,
                p95: 0,
                p99: 0,
                mean: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let at = |p: usize| sorted[(n * p).div_ceil(100).max(1) - 1];
        let sum: u64 = sorted.iter().sum();
        HistSummary {
            p50: at(50),
            p95: at(95),
            p99: at(99),
            mean: sum as f64 / n as f64,
        }
    }
}

/// Fleet-level metrics accumulated over one trace run.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// Per-job queue wait (arrival → dispatch), cycles, in completion
    /// order.
    pub wait: Vec<u64>,
    /// Per-job service time (dispatch → completion), cycles.
    pub run: Vec<u64>,
    /// Per-job turnaround (arrival → completion), cycles.
    pub turnaround: Vec<u64>,
    /// PE-cycles spent running jobs (the utilization numerator).
    busy_pe_cy: u128,
    /// Queue-depth integral: Σ depth × dt over the run.
    queue_cy: u128,
    /// Highest queue depth observed.
    pub queue_max: u64,
}

impl FleetMetrics {
    /// Records one completed job.
    pub fn record_job(&mut self, wait_cy: u64, run_cy: u64) {
        self.wait.push(wait_cy);
        self.run.push(run_cy);
        self.turnaround.push(wait_cy + run_cy);
    }

    /// Accounts an interval of `dt` cycles during which `busy_pes` PEs
    /// were running jobs and `queued` jobs were waiting.
    pub fn account_interval(&mut self, dt: u64, busy_pes: u64, queued: u64) {
        self.busy_pe_cy += u128::from(dt) * u128::from(busy_pes);
        self.queue_cy += u128::from(dt) * u128::from(queued);
        self.queue_max = self.queue_max.max(queued);
    }

    /// Machine utilization over a run of `makespan_cy` cycles on
    /// `machine_pes` PEs: busy PE-cycles over available PE-cycles.
    pub fn utilization(&self, machine_pes: u64, makespan_cy: u64) -> f64 {
        let avail = u128::from(machine_pes) * u128::from(makespan_cy);
        if avail == 0 {
            0.0
        } else {
            self.busy_pe_cy as f64 / avail as f64
        }
    }

    /// Time-averaged queue depth over a run of `makespan_cy` cycles.
    pub fn queue_mean(&self, makespan_cy: u64) -> f64 {
        if makespan_cy == 0 {
            0.0
        } else {
            self.queue_cy as f64 / makespan_cy as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_chains() {
        let whole = fnv1a(FNV_OFFSET, b"foobar");
        let chained = fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar");
        assert_eq!(whole, chained);
    }

    #[test]
    fn utilization_and_queue_depth_are_time_weighted() {
        let mut m = FleetMetrics::default();
        // 100 cycles fully busy on 4 PEs with 2 queued, then 100 idle.
        m.account_interval(100, 4, 2);
        m.account_interval(100, 0, 0);
        assert!((m.utilization(4, 200) - 0.5).abs() < 1e-12);
        assert!((m.queue_mean(200) - 1.0).abs() < 1e-12);
        assert_eq!(m.queue_max, 2);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = HistSummary::of(&[]);
        assert_eq!((s.p50, s.p95, s.p99), (0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        // 1..=100 in scrambled order: the p-th percentile is p itself.
        let v: Vec<u64> = (0..100u64).map(|i| (i * 37) % 100 + 1).collect();
        let s = HistSummary::of(&v);
        assert_eq!((s.p50, s.p95, s.p99), (50, 95, 99));
        assert_eq!(s.mean, 50.5);
        // Ten samples: p95 and p99 both round up to the maximum.
        let s = HistSummary::of(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!((s.p50, s.p95, s.p99), (50, 100, 100));
        // One sample is every percentile.
        assert_eq!(HistSummary::of(&[7]).p99, 7);
    }

    #[test]
    fn record_job_feeds_all_three_series() {
        let mut m = FleetMetrics::default();
        m.record_job(100, 900);
        assert_eq!(m.wait, vec![100]);
        assert_eq!(m.run, vec![900]);
        assert_eq!(m.turnaround, vec![1000]);
    }
}
