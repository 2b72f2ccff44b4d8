//! # mcfpga — a multi-context FPGA with reconfigurable context memory
//!
//! A from-scratch Rust reproduction of Chong, Ogata, Hariyama and Kameyama,
//! *Architecture of a Multi-Context FPGA Using Reconfigurable Context
//! Memory*, IPDPS 2005.
//!
//! Multi-context FPGAs keep several configuration planes on chip and switch
//! between them in one cycle; the paper replaces the conventional
//! `n`-memory-bits-plus-mux behind every configuration bit with
//! *reconfigurable context memory* (RCM): tiny decoders built from switch
//! elements that exploit the redundancy (most bits never change) and
//! regularity (many bits equal a context-ID line) of real configuration
//! data, plus *adaptive multi-context logic blocks* whose LUT planes merge
//! when contexts share logic.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`arch`] | architecture description (grid, contexts, LUT geometry) |
//! | [`netlist`] | gate-level + DFG IR, circuit library, workload generators |
//! | [`config`] | configuration columns, pattern taxonomy, statistics |
//! | [`rcm`] | switch elements, decoder synthesis, diamond switches |
//! | [`lut`] | MCMG-LUTs, size controllers, adaptive logic blocks |
//! | [`map`] | LUT mapping, cross-context sharing, Fig. 13/14 packing |
//! | [`place`] | simulated-annealing placement |
//! | [`route`] | PathFinder routing, switch-column extraction |
//! | [`sim`] | compiled-device model, equivalence checking |
//! | [`area`] | area / power / delay models (the 45% / 37% results) |
//! | [`obs`] | phase spans, metrics registry, machine-readable run reports |
//!
//! ## Quick start
//!
//! ```
//! use mcfpga::prelude::*;
//!
//! // A 4-context device time-multiplexing two independent circuits.
//! let arch = ArchSpec::paper_default();
//! let circuits = vec![
//!     mcfpga::netlist::library::adder(4),
//!     mcfpga::netlist::library::parity(8),
//! ];
//! let mut device = MultiDevice::compile(&arch, &circuits).unwrap();
//!
//! // Drive the adder: 2 + 3 (inputs a[0..4], b[0..4], cin).
//! let mut inputs = vec![false, true, false, false]; // a = 2
//! inputs.extend([true, true, false, false]);        // b = 3
//! inputs.push(false);                               // cin = 0
//! let out = device.step(&inputs);
//! let sum: u32 = out[..4].iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
//! assert_eq!(sum, 5);
//!
//! // One-cycle context switch to the parity circuit.
//! device.switch_context(1);
//! let odd = device.step(&[true, false, false, false, false, false, false, false]);
//! assert!(odd[0]);
//! ```

pub use mcfpga_arch as arch;
pub use mcfpga_area as area;
pub use mcfpga_config as config;
pub use mcfpga_lut as lut;
pub use mcfpga_map as map;
pub use mcfpga_netlist as netlist;
pub use mcfpga_obs as obs;
pub use mcfpga_place as place;
pub use mcfpga_rcm as rcm;
pub use mcfpga_route as route;
pub use mcfpga_sim as sim;

pub mod flow;

pub use flow::{
    evaluate_paper_point, measured_area_comparison, run_flow, Flow, FlowBuilder, FlowOutcome,
    PaperEvaluation,
};

/// The most commonly used items.
pub mod prelude {
    pub use crate::arch::{ArchSpec, ContextId, LutGeometry, LutMode};
    pub use crate::area::{AreaParams, FabricWeights, Technology};
    pub use crate::config::{ConfigColumn, PatternClass};
    pub use crate::flow::{evaluate_paper_point, measured_area_comparison, run_flow, Flow};
    pub use crate::netlist::Netlist;
    pub use crate::obs::{Recorder, RunReport};
    pub use crate::rcm::synthesize;
    pub use crate::sim::{check_device_equivalence, CompileOptions, MultiDevice, SimError};
}
