//! Quickstart: compile two circuits onto a 4-context device, run them, and
//! switch contexts at runtime.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mcfpga::netlist::library;
use mcfpga::netlist::words::{bits_to_u64, u64_to_bits};
use mcfpga::prelude::*;

fn main() {
    // The paper's evaluation architecture: 8x8 cells, 4 contexts, 6-input
    // 2-output MCMG-LUTs, channels with double-length lines.
    let arch = ArchSpec::paper_default();
    println!(
        "architecture: {:?} grid, {} contexts",
        arch.grid, arch.n_contexts
    );

    // Two independent circuits, one per context. Compiling through an
    // enabled Recorder collects per-phase wall-clock spans for free.
    let recorder = Recorder::enabled();
    let circuits = vec![library::adder(4), library::comparator(4)];
    let mut device = MultiDevice::compile_with(&arch, &circuits, &recorder).expect("compile");
    device
        .check_routing()
        .expect("switch state connects every net");

    // Context 0: the adder. Inputs are a[0..4], b[0..4], cin.
    device.switch_context(0);
    for (a, b) in [(3u64, 4u64), (9, 8), (15, 15)] {
        let mut inputs = u64_to_bits(a, 4);
        inputs.extend(u64_to_bits(b, 4));
        inputs.push(false);
        let out = device.step(&inputs);
        let sum = bits_to_u64(&out[..4]) + ((out[4] as u64) << 4);
        println!("context 0 (adder):      {a:2} + {b:2} = {sum}");
        assert_eq!(sum, a + b);
    }

    // One-cycle context switch: same fabric, now a comparator.
    device.switch_context(1);
    for (a, b) in [(3u64, 4u64), (9, 8), (15, 15)] {
        let mut inputs = u64_to_bits(a, 4);
        inputs.extend(u64_to_bits(b, 4));
        let out = device.step(&inputs);
        let rel = if out[0] {
            "=="
        } else if out[1] {
            "<"
        } else {
            ">"
        };
        println!("context 1 (comparator): {a:2} {rel} {b:2}");
    }

    // What the configuration data looks like across contexts.
    let stats = mcfpga::config::ColumnSetStats::measure(
        &device.switch_usage().columns(),
        arch.context_id(),
    );
    println!("\nswitch configuration columns: {}", stats.table_string());

    // Where the compile time went, phase by phase.
    let report = recorder.report("quickstart");
    // Per-context phases run on the compile pool, so their busy (summed
    // thread) time can exceed their wall time.
    println!("\ncompile phase timings:");
    println!("  {:<14} {:>12} {:>12}", "phase", "wall", "busy");
    for phase in ["map", "place", "route", "columns", "logic_blocks"] {
        println!(
            "  {:<14} {:>9.3} ms {:>9.3} ms",
            phase,
            report.span_wall_us(phase) as f64 / 1000.0,
            report.span_busy_us(phase) as f64 / 1000.0
        );
    }
    println!(
        "  ({} context switches, {} simulated cycles recorded)",
        report.counter("sim.context_switches"),
        report.counter("sim.steps"),
    );
}
