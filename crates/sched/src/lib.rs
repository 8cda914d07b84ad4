//! t3d-sched — the machine as a shared service.
//!
//! The paper evaluates one SPMD program owning the whole T3D; real T3D
//! sites ran the machine multi-tenant: jobs arrived in a stream, each
//! asked for a power-of-two block of PEs, and the operating system
//! carved the X×Y×Z torus into sub-cube partitions and *gang-scheduled*
//! each job onto one (a job runs only when a whole sub-cube is free for
//! it). This crate reproduces that layer on top of the simulator:
//!
//! * [`kernels`] — the job payloads: the EM3D versions plus the
//!   stencil, sample-sort and CG solver kernels (promoted from the
//!   repository examples), all self-checking and bit-deterministic;
//! * [`trace`] — the `Job{arrival_cy, pe_count, kernel, size, seed}`
//!   model, a seeded synthetic trace generator (Poisson-ish arrivals
//!   via geometric inter-arrival times) and a JSON trace format;
//! * [`alloc`] — a first-fit buddy allocator over canonical
//!   power-of-two torus sub-cubes (`t3d_torus::subcube`), with
//!   allocation/fragmentation counters;
//! * [`sim`] — the event-driven simulation driver: virtual time
//!   advances to the next arrival or job completion, each scheduled
//!   job runs its kernel on a right-sized simulated machine, and the
//!   job's simulated cycles are charged back into the global job-stream
//!   clock;
//! * [`metrics`] — per-job wait/run/turnaround with exact nearest-rank
//!   p50/p95/p99 summaries, fleet utilization and queue-depth
//!   accounting, and the FNV job-ledger fingerprint;
//! * [`report`] — the `t3d-sched-v1` saturation-sweep document
//!   (`BENCH_sched.json`) and its regression comparator.
//!
//! Everything is virtual-time deterministic: the same trace produces a
//! bit-identical job ledger under both phase drivers (`T3D_PAR`) — the
//! scheduler inherits the simulator's determinism contract, and CI pins
//! it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod kernels;
pub mod metrics;
pub mod report;
pub mod sim;
pub mod trace;

pub use alloc::{AllocStats, PartitionAllocator};
pub use kernels::{ExecEnv, Kernel, KernelRun, StencilComm};
pub use metrics::{fnv1a, FleetMetrics, HistSummary};
pub use report::{compare, SchedDoc, SweepPoint, SCHED_SCHEMA};
pub use sim::{run_trace, JobOutcome, KernelCache, SchedRun, SimParams};
pub use trace::{GenParams, Job, Trace};
