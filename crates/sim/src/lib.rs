//! Configured-fabric simulation: the end-to-end device model.
//!
//! [`MultiDevice`] is the one fabric runtime. Two compile front ends build
//! its compiled image: [`MultiDevice::compile`] maps, places and routes one
//! independent circuit per context, and [`MultiDevice::compile_aligned`]
//! maps a structurally aligned workload with a shared cover, cross-context
//! plane sharing, and logic blocks with locally controlled MCMG-LUTs (plane
//! selection through real RCM decoder netlists), placed and routed once.
//! The device then *runs*: clock it with inputs, switch contexts at any
//! cycle, and registers carry state across — the DPGA execution model the
//! paper builds on.
//!
//! The simulator is the reproduction's correctness anchor: integration
//! tests drive the same stimuli through the device and through each
//! context's reference netlist and require bit-exact agreement, and the
//! routing check re-derives net connectivity purely from per-switch
//! configuration state.

pub mod device;
pub mod equivalence;
pub mod error;
pub mod faults;
pub mod kernel;
pub mod multi;
pub mod observe;
pub mod optimize;
pub mod temporal;

pub use device::{CompileError, CompileReport};
pub use equivalence::{
    check_device_equivalence, check_device_equivalence_batch, EquivalenceCheckError,
    EquivalenceError,
};
pub use error::Error;
pub use faults::{lut_fault_campaign, CampaignReport, LutFault};
pub use kernel::{CompiledKernel, KernelScratch, LANES, SUPPORTED_WIDTHS};
pub use multi::{CompileOptions, ContextArtifacts, DeltaSeed, DeltaStats, MultiDevice, SimError};
pub use observe::{
    captures_to_waveform, switch_energy_pj, ActivityReport, LutActivity, ProbeCapture, ProbeSet,
    ReconfigEnergy, DEFAULT_PROBE_CAPACITY, SWITCH_ENERGY_PJ_PER_BIT,
};
pub use optimize::OptimizeStats;
pub use temporal::FabricTemporalExecutor;
