//! The job-stream simulation driver.
//!
//! Virtual time advances event-style — the next event is the earlier
//! of the next arrival and the next job completion. At each event the driver retires completions, admits
//! arrivals, and dispatches from the FCFS queue onto torus partitions;
//! each dispatched job runs its kernel on a right-sized simulated
//! machine and the kernel's elapsed virtual cycles become the job's
//! service time on the job-stream clock.
//!
//! Kernel runs are memoised by `(kernel, pe_count, size, seed)` in a
//! [`KernelCache`]: a kernel's timing depends only on those four (the
//! job's machine is built from its PE count alone — partition *shape*
//! does not change kernel timing, a documented modelling
//! simplification), so a load sweep that replays the same job bodies
//! under rescaled arrival times pays for each distinct kernel run once.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::alloc::{AllocStats, PartitionAllocator};
use crate::kernels::{ExecEnv, KernelRun};
use crate::metrics::{fnv1a, FleetMetrics, FNV_OFFSET};
use crate::trace::Trace;
use t3d_torus::subcube::Dims;
use t3d_torus::SubCube;

/// Scheduler configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Machine shape (power-of-two extents).
    pub machine: Dims,
    /// When the queue head does not fit, allow later jobs that do fit
    /// to start (aggressive backfill, no reservations). Off = strict
    /// FCFS.
    pub backfill: bool,
    /// Phase driver the kernels run under.
    pub env: ExecEnv,
}

/// What happened to one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job's index in the trace.
    pub job_id: u32,
    /// When it entered the queue.
    pub arrival_cy: u64,
    /// When it was dispatched onto its partition.
    pub start_cy: u64,
    /// When it completed.
    pub finish_cy: u64,
    /// The partition it ran in.
    pub block: SubCube,
    /// Kernel result fingerprint (determinism evidence).
    pub result_fnv: u64,
}

impl JobOutcome {
    /// Queue wait: dispatch minus arrival.
    pub fn wait_cy(&self) -> u64 {
        self.start_cy - self.arrival_cy
    }

    /// Service time: completion minus dispatch.
    pub fn run_cy(&self) -> u64 {
        self.finish_cy - self.start_cy
    }

    /// Turnaround: completion minus arrival.
    pub fn turnaround_cy(&self) -> u64 {
        self.finish_cy - self.arrival_cy
    }
}

/// Memoised kernel runs, keyed by everything a kernel's timing and
/// result depend on.
#[derive(Debug, Default)]
pub struct KernelCache {
    runs: BTreeMap<(String, u32, u64, u64), KernelRun>,
    hits: u64,
    misses: u64,
}

impl KernelCache {
    /// An empty cache.
    pub fn new() -> KernelCache {
        KernelCache::default()
    }

    /// Runs `job`'s kernel under `env` on `pes` PEs, or returns the
    /// memoised result of an identical earlier run.
    pub fn run(&mut self, env: ExecEnv, job: &crate::trace::Job, pes: u32) -> KernelRun {
        let key = (job.kernel.name(), pes, job.size, job.seed);
        if let Some(r) = self.runs.get(&key) {
            self.hits += 1;
            return *r;
        }
        self.misses += 1;
        let r = job.kernel.run(env, pes, job.size, job.seed);
        self.runs.insert(key, r);
        r
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (actual kernel executions) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The result of scheduling one trace.
#[derive(Debug, Clone)]
pub struct SchedRun {
    /// Per-job outcomes, in job-id order.
    pub outcomes: Vec<JobOutcome>,
    /// Fleet metrics over the run.
    pub metrics: FleetMetrics,
    /// Allocator counters.
    pub alloc_stats: AllocStats,
    /// Virtual cycle of the last completion.
    pub makespan_cy: u64,
    /// FNV-1a fingerprint of the whole job ledger — every field of
    /// every outcome, chained in job-id order. Two runs of the same
    /// trace agree on this iff they scheduled identically **and**
    /// every kernel computed identical results.
    pub ledger_fnv: u64,
}

impl SchedRun {
    /// Machine utilization: busy PE-cycles over `machine_pes ×
    /// makespan`.
    pub fn utilization(&self, machine_pes: u64) -> f64 {
        self.metrics.utilization(machine_pes, self.makespan_cy)
    }
}

/// Schedules `trace` on the machine described by `params`, running
/// every kernel through `cache`.
///
/// # Panics
///
/// Panics if a job asks for fewer than 2 PEs or more than the machine
/// holds (validate traces before running them), or if a kernel
/// self-check fails.
pub fn run_trace(trace: &Trace, params: &SimParams, cache: &mut KernelCache) -> SchedRun {
    let mut alloc = PartitionAllocator::new(params.machine);
    let total_pes = alloc.total_pes();
    for (i, j) in trace.jobs.iter().enumerate() {
        let want = u64::from(j.pe_count.max(1)).next_power_of_two();
        assert!(
            j.pe_count >= 2 && want <= total_pes,
            "job {i} asks for {} PEs on a {}-PE machine",
            j.pe_count,
            total_pes
        );
    }

    let n = trace.jobs.len();
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; n];
    let mut metrics = FleetMetrics::default();
    // Waiting job ids, FCFS.
    let mut queue: VecDeque<usize> = VecDeque::new();
    // Running jobs: ordered by (finish, job id) so same-cycle
    // completions retire deterministically.
    let mut running: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut placements: BTreeMap<usize, (SubCube, u64, u64)> = BTreeMap::new(); // id -> (block, start, result_fnv)
    let mut next_arrival = 0usize;
    let mut now = 0u64;
    let mut makespan = 0u64;

    while next_arrival < n || !running.is_empty() {
        let arrival = trace.jobs.get(next_arrival).map(|j| j.arrival_cy);
        let completion = running.iter().next().map(|&(t, _)| t);
        let next = match (arrival, completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => unreachable!("loop condition"),
        };
        metrics.account_interval(next - now, alloc.allocated_pes(), queue.len() as u64);
        now = next;

        // Retire every completion due now.
        while let Some(&(t, id)) = running.iter().next() {
            if t > now {
                break;
            }
            running.remove(&(t, id));
            let (block, start, result_fnv) = placements.remove(&id).expect("running job placed");
            alloc.free(block);
            let job = &trace.jobs[id];
            metrics.record_job(start - job.arrival_cy, t - start);
            makespan = makespan.max(t);
            outcomes[id] = Some(JobOutcome {
                job_id: id as u32,
                arrival_cy: job.arrival_cy,
                start_cy: start,
                finish_cy: t,
                block,
                result_fnv,
            });
        }

        // Admit every arrival due now.
        while next_arrival < n && trace.jobs[next_arrival].arrival_cy <= now {
            queue.push_back(next_arrival);
            next_arrival += 1;
        }

        // Dispatch: the head while it fits, then (with backfill) a
        // single in-order scan of the rest.
        while let Some(&head) = queue.front() {
            let job = &trace.jobs[head];
            let Some(block) = alloc.alloc(job.pe_count) else {
                break;
            };
            queue.pop_front();
            let r = cache.run(params.env, job, block.pes() as u32);
            running.insert((now + r.cycles, head));
            placements.insert(head, (block, now, r.result_fnv));
        }
        if params.backfill {
            let mut idx = 0;
            while idx < queue.len() {
                let id = queue[idx];
                let job = &trace.jobs[id];
                if let Some(block) = alloc.alloc(job.pe_count) {
                    queue.remove(idx);
                    let r = cache.run(params.env, job, block.pes() as u32);
                    running.insert((now + r.cycles, id));
                    placements.insert(id, (block, now, r.result_fnv));
                } else {
                    idx += 1;
                }
            }
        }
    }

    let outcomes: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every job completes"))
        .collect();
    let mut ledger = FNV_OFFSET;
    for o in &outcomes {
        ledger = fnv1a(ledger, &o.job_id.to_le_bytes());
        ledger = fnv1a(ledger, &o.arrival_cy.to_le_bytes());
        ledger = fnv1a(ledger, &o.start_cy.to_le_bytes());
        ledger = fnv1a(ledger, &o.finish_cy.to_le_bytes());
        ledger = fnv1a(ledger, &o.block.origin.x.to_le_bytes());
        ledger = fnv1a(ledger, &o.block.origin.y.to_le_bytes());
        ledger = fnv1a(ledger, &o.block.origin.z.to_le_bytes());
        ledger = fnv1a(ledger, &o.block.dims.0.to_le_bytes());
        ledger = fnv1a(ledger, &o.block.dims.1.to_le_bytes());
        ledger = fnv1a(ledger, &o.block.dims.2.to_le_bytes());
        ledger = fnv1a(ledger, &o.result_fnv.to_le_bytes());
    }
    SchedRun {
        outcomes,
        metrics,
        alloc_stats: alloc.stats(),
        makespan_cy: makespan,
        ledger_fnv: ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Kernel;
    use crate::trace::Job;
    use em3d::Version;

    fn params(backfill: bool) -> SimParams {
        SimParams {
            machine: (2, 2, 1),
            backfill,
            env: ExecEnv::from_env(),
        }
    }

    fn job(arrival_cy: u64, pe_count: u32, seed: u64) -> Job {
        Job {
            arrival_cy,
            pe_count,
            kernel: Kernel::Em3d(Version::Put),
            size: 8,
            seed,
        }
    }

    #[test]
    fn lone_job_starts_immediately() {
        let trace = Trace {
            jobs: vec![job(100, 4, 1)],
        };
        let run = run_trace(&trace, &params(false), &mut KernelCache::new());
        let o = &run.outcomes[0];
        assert_eq!(o.start_cy, 100);
        assert_eq!(o.wait_cy(), 0);
        assert!(o.run_cy() > 0);
        assert_eq!(run.makespan_cy, o.finish_cy);
    }

    #[test]
    fn whole_machine_jobs_serialize_fcfs() {
        let trace = Trace {
            jobs: vec![job(0, 4, 1), job(1, 4, 2), job(2, 4, 3)],
        };
        let run = run_trace(&trace, &params(false), &mut KernelCache::new());
        for w in run.outcomes.windows(2) {
            assert_eq!(
                w[1].start_cy, w[0].finish_cy,
                "each job starts when its predecessor finishes"
            );
        }
        assert!(run.outcomes[2].wait_cy() > 0);
    }

    #[test]
    fn backfill_lets_small_jobs_pass_a_blocked_head() {
        // Job 0 holds half the machine; job 1 (whole machine) blocks at
        // the head; job 2 (the other half) can only jump it with
        // backfill.
        let trace = Trace {
            jobs: vec![job(0, 2, 1), job(1, 4, 2), job(2, 2, 3)],
        };
        let strict = run_trace(&trace, &params(false), &mut KernelCache::new());
        let backfill = run_trace(&trace, &params(true), &mut KernelCache::new());
        assert!(
            strict.outcomes[2].start_cy >= strict.outcomes[1].start_cy,
            "strict FCFS keeps order"
        );
        assert!(
            backfill.outcomes[2].start_cy < backfill.outcomes[1].start_cy,
            "backfill dispatches the fitting job"
        );
        assert_eq!(backfill.outcomes[2].start_cy, 2, "immediately on arrival");
    }

    #[test]
    fn runs_are_deterministic_and_cache_is_transparent() {
        let trace = Trace {
            jobs: vec![job(0, 2, 1), job(50, 2, 1), job(60, 4, 2)],
        };
        let mut cache = KernelCache::new();
        let a = run_trace(&trace, &params(true), &mut cache);
        assert_eq!(cache.hits(), 1, "jobs 0 and 1 share a kernel run");
        let b = run_trace(&trace, &params(true), &mut cache);
        assert_eq!(a.ledger_fnv, b.ledger_fnv);
        assert_eq!(cache.misses(), 2, "second run is fully cached");
    }

    #[test]
    fn utilization_is_positive_and_bounded() {
        let trace = Trace {
            jobs: vec![job(0, 4, 1), job(1, 2, 2)],
        };
        let run = run_trace(&trace, &params(false), &mut KernelCache::new());
        let u = run.utilization(4);
        assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
    }

    #[test]
    #[should_panic(expected = "PEs on a")]
    fn oversized_job_panics() {
        let trace = Trace {
            jobs: vec![job(0, 8, 1)],
        };
        run_trace(&trace, &params(false), &mut KernelCache::new());
    }
}
