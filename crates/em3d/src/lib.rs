//! EM3D on the simulated CRAY-T3D — the paper's Section 8 case study.
//!
//! EM3D models electromagnetic wave propagation on an irregular
//! bipartite graph of E and H nodes: on alternate half steps each E
//! value is replaced by a weighted sum of its neighbouring H values, and
//! vice versa. The parallel version spreads the graph over the
//! processors and represents cross-processor dependencies with global
//! pointers; the fraction of *remote edges* is the tunable communication
//! load.
//!
//! Six versions, in the paper's order of increasing sophistication:
//!
//! 1. [`Version::Simple`] — a blocking read per edge, re-fetching
//!    duplicated values.
//! 2. [`Version::Bundle`] — ghost nodes cache each unique remote value
//!    once per half step; communication and computation separate.
//! 3. [`Version::Unroll`] — the compute phase is unrolled and software
//!    pipelined.
//! 4. [`Version::Get`] — the ghost fill is pipelined with split-phase
//!    `get`s.
//! 5. [`Version::Put`] — producers *push* values into consumers' ghost
//!    slots with `put` (less overhead than `get`).
//! 6. [`Version::Bulk`] — producers gather per-destination buffers and
//!    consumers fetch them with one bulk transfer each, avoiding
//!    repeated annex set-up.
//!
//! The headline metric is average time per edge versus the percentage
//! of remote edges (Figure 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod run;

pub use graph::{Em3dGraph, Em3dParams};
pub use run::{
    fig9_sweep, run_version, run_version_profiled, run_version_profiled_contended,
    run_version_recorded, run_version_with, Em3dResult, Version,
};
