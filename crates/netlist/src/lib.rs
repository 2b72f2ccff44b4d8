//! Gate-level and dataflow-graph IR for the MC-FPGA flow.
//!
//! The paper's evaluation needs circuits in two forms:
//!
//! * a gate-level netlist IR ([`Netlist`]) with a reference evaluator — the
//!   input to technology mapping, and the golden model the configured-fabric
//!   simulator is checked against;
//! * a small dataflow-graph IR ([`dfg::Dfg`]) used to reproduce the
//!   Fig. 13/14 experiment (globally vs locally controlled MCMG-LUTs, where
//!   nodes shared between contexts are merged).
//!
//! The crate also carries a library of real circuits (adders, multipliers,
//! CRC, ALU, …) standing in for the unpublished benchmark set behind the
//! paper's "<3% of configuration bits change" statistic, and seeded random
//! generators for netlists and multi-context workloads with a controllable
//! inter-context change rate.

pub mod dfg;
pub mod ir;
pub mod library;
pub mod library2;
pub mod library3;
pub mod random;
pub mod text;
pub mod words;

pub use dfg::{Dfg, DfgNodeId, MergedDfg};
pub use ir::{Fanins, Gate, Netlist, NetlistError, NodeId, State};
pub use random::{perturb_netlist, random_netlist, workload, RandomNetlistParams};
pub use text::{from_text, to_text, ParseError};
