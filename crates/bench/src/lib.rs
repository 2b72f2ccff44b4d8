//! The experiment harness behind the `experiments` binary and the Criterion
//! benches.
//!
//! [`paper`] reproduces the paper's tables and figures. Each gated
//! experiment ([`flow`], [`sim`], [`serve`], [`serve_obs`], [`delta`],
//! [`probe`], [`shard`]) has one module holding its run function, its typed
//! BENCH report, the type of its `BENCH_baseline.json` section and the
//! report's invariants; [`gate`] checks every report at once.

pub mod delta;
pub mod flow;
pub mod gate;
pub mod paper;
pub mod probe;
pub mod serve;
pub mod serve_obs;
pub mod shard;
pub mod sim;

use mcfpga::netlist::{library, Netlist};

/// The benchmark circuit suite used across experiments.
pub fn suite() -> Vec<Netlist> {
    library::benchmark_suite()
}

/// Four distinct combinational circuits used as the 4-context mixed
/// workload (the Table 1 measurement target).
pub fn mixed_contexts() -> Vec<Netlist> {
    vec![
        library::adder(4),
        library::multiplier(3),
        library::alu(4),
        library::popcount(6),
    ]
}

/// Render a ruled section header.
pub fn header(title: &str) {
    println!(
        "\n==== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}
