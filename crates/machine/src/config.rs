//! Whole-machine configuration.

use t3d_memsys::MemConfig;
use t3d_shell::{ReceiveMode, ShellConfig};
use t3d_torus::TorusConfig;

/// Configuration of a simulated machine: node memory system, shell and
/// interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Per-node memory system.
    pub mem: MemConfig,
    /// Shell cost parameters.
    pub shell: ShellConfig,
    /// Torus geometry.
    pub torus: TorusConfig,
    /// Model contention for the target node's shell: concurrent remote
    /// operations against one node serialize through its memory
    /// controller. Off by default — the paper's probes run with a single
    /// active processor — but hot-spot application patterns need it.
    pub contention: bool,
    /// Model queueing on torus links: each remote operation occupies the
    /// links of its dimension-order route for `bytes / 2` cycles (the
    /// T3D's two bytes per link per cycle), and a transfer whose route
    /// crosses a still-occupied link waits for the hottest one to clear.
    /// Off by default, and bit-identical to the uncontended machine when
    /// off.
    pub link_contention: bool,
    /// What happens when a native message arrives: queue it (25 µs
    /// interrupt) or additionally switch to a user handler (+33 µs).
    pub msg_mode: ReceiveMode,
}

/// The machine's time-advance engine. There is one: every wait computes
/// its cost in closed form and advances the clock once.
///
/// Kept only so the frozen `perfbench` harness, which passes
/// `ExecEnv::default().engine` through one EM3D entry point, compiles
/// unchanged; nothing reads the value. A later benchmark change drops
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// The closed-form cycle engine.
    #[default]
    Cycle,
}

impl MachineConfig {
    /// A T3D of `nodes` processing elements with 16 MB nodes.
    pub fn t3d(nodes: u32) -> Self {
        MachineConfig {
            mem: MemConfig::t3d(),
            shell: ShellConfig::t3d(),
            torus: TorusConfig::for_nodes(nodes),
            contention: false,
            link_contention: false,
            msg_mode: ReceiveMode::Queue,
        }
    }

    /// A T3D with smaller (`mem_bytes`) node memories — useful for
    /// many-node application runs.
    pub fn t3d_with_mem(nodes: u32, mem_bytes: usize) -> Self {
        let mut cfg = Self::t3d(nodes);
        cfg.mem.mem_bytes = mem_bytes;
        cfg
    }

    /// A T3D with target-shell contention modeling enabled.
    pub fn t3d_contended(nodes: u32) -> Self {
        let mut cfg = Self::t3d(nodes);
        cfg.contention = true;
        cfg
    }

    /// A T3D with both target-shell and torus-link contention modeling
    /// enabled.
    pub fn t3d_link_contended(nodes: u32) -> Self {
        let mut cfg = Self::t3d_contended(nodes);
        cfg.link_contention = true;
        cfg
    }

    /// The single-node DEC Alpha workstation used as the Figure 1
    /// comparison machine (same 21064 core, 512 KB L2, 8 KB pages,
    /// 300 ns memory). Only local operations are meaningful.
    pub fn dec_workstation() -> Self {
        MachineConfig {
            mem: MemConfig::dec_workstation(),
            shell: ShellConfig::t3d(),
            torus: TorusConfig::for_nodes(1),
            contention: false,
            link_contention: false,
            msg_mode: ReceiveMode::Queue,
        }
    }

    /// Number of nodes this configuration describes.
    pub fn nodes(&self) -> u32 {
        self.torus.dims.0 * self.torus.dims.1 * self.torus.dims.2
    }

    /// Nanoseconds per cycle.
    pub fn cycle_ns(&self) -> f64 {
        self.mem.cycle_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3d_sizes() {
        assert_eq!(MachineConfig::t3d(32).nodes(), 32);
        assert_eq!(MachineConfig::t3d(1).nodes(), 1);
    }

    #[test]
    fn workstation_is_single_node_with_l2() {
        let c = MachineConfig::dec_workstation();
        assert_eq!(c.nodes(), 1);
        assert!(c.mem.l2.is_some());
    }

    #[test]
    fn with_mem_overrides_size() {
        let c = MachineConfig::t3d_with_mem(8, 1 << 20);
        assert_eq!(c.mem.mem_bytes, 1 << 20);
    }
}
