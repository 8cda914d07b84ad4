//! The composed CRAY-T3D machine: Alpha 21064 nodes, Cray shell, 3-D
//! torus — in deterministic virtual time.
//!
//! Each node owns a cycle clock; every operation's cost is a
//! deterministic function of machine state, so runs are exactly
//! repeatable. The "assembly level" interface the paper's probes are
//! written against is [`Cpu`]: loads and stores on (annex-translated)
//! virtual addresses, `fetch` hints, memory barriers, annex updates,
//! message sends, BLT invocations, atomic operations and barriers.
//!
//! Cross-node programs use the [`spmd`] phase driver: within a phase the
//! per-node closure runs for node 0..P−1 sequentially against the shared
//! machine, and barriers align the clocks — deterministic and correct for
//! the race-free bulk-synchronous programs the paper studies.
//!
//! # Example
//!
//! ```
//! use t3d_machine::{Machine, MachineConfig};
//! use t3d_shell::{AnnexEntry, FuncCode};
//!
//! let mut m = Machine::new(MachineConfig::t3d(2));
//! // Point annex register 1 at PE 1 and read its word 0x1000.
//! m.poke_mem(1, 0x1000, &99u64.to_le_bytes());
//! m.annex_set(0, 1, AnnexEntry { pe: 1, func: FuncCode::Uncached });
//! let va = m.va(1, 0x1000);
//! let v = m.ld8(0, va);
//! assert_eq!(v, 99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod machine;
pub mod node;
pub mod ops;
pub mod phase;
pub mod snapshot;
pub mod spmd;
pub mod trace;

pub use config::{EngineMode, MachineConfig};
pub use cpu::Cpu;
pub use machine::{BltHandle, Machine, MachineSizeError};
pub use node::{Node, NodeHot, OpStats};
pub use ops::MachineOps;
pub use phase::PhaseDriver;
pub use snapshot::{MemSnapshot, SnapshotDiff};
pub use spmd::Spmd;
pub use trace::{TraceEvent, TraceKind, Tracer};

pub use t3d_perf as perf;
pub use t3d_perf::{CostClass, PerfMode, PerfReport};

pub use t3d_memsys as memsys;
pub use t3d_shell as shell;
pub use t3d_torus as torus;
