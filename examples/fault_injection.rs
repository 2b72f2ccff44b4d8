//! Configuration-upset fault injection on a compiled device.
//!
//! Multi-context FPGAs carry far more configuration state than their
//! single-context siblings, so upsets matter. This example compiles a
//! workload, injects single-bit faults into LUT configuration planes, and
//! shows which are caught by randomized equivalence checking — and why the
//! silent ones are silent (dormant planes, don't-care assignments).
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use mcfpga::netlist::{library, workload, RandomNetlistParams};
use mcfpga::prelude::*;
use mcfpga::sim::{lut_fault_campaign, LutFault};

fn main() {
    let arch = ArchSpec::paper_default();

    // Part 1: a targeted upset in live logic is always visible.
    println!("targeted upset in live logic:");
    let circuits = vec![library::parity(8); 4];
    let mut dev = MultiDevice::compile_aligned(&arch, &circuits).expect("compile");
    let fault = LutFault {
        lb: 0,
        output: 0,
        plane: 0,
        assignment: 3,
    };
    dev.inject_lut_fault(fault);
    match check_device_equivalence(&mut dev, &circuits, 200, 5) {
        Err(e) => println!("  detected: {e}"),
        Ok(()) => println!("  NOT detected (unexpected for a XOR table)"),
    }
    dev.clear_lut_fault(fault);
    dev.reset();
    check_device_equivalence(&mut dev, &circuits, 100, 5).expect("repaired");
    println!("  repaired by flipping the bit back; device verifies again\n");

    // Part 2: an upset on a dormant plane can never be observed.
    println!("upset on a dormant plane (fully shared workload uses plane 0 only):");
    let adders = vec![library::adder(4); 4];
    let mut dev = MultiDevice::compile_aligned(&arch, &adders).expect("compile");
    dev.inject_lut_fault(LutFault {
        lb: 0,
        output: 0,
        plane: 3,
        assignment: 0,
    });
    match check_device_equivalence(&mut dev, &adders, 200, 7) {
        Ok(()) => println!("  silent, as expected: plane 3 is never selected\n"),
        Err(e) => println!("  unexpectedly visible: {e}\n"),
    }

    // Part 3: a statistical campaign.
    println!("random campaign (60 upsets, 150 random cycles each):");
    let w = workload(
        RandomNetlistParams {
            n_inputs: 6,
            n_gates: 40,
            n_outputs: 6,
            dff_fraction: 0.0,
        },
        4,
        0.1,
        77,
    );
    let mut dev = MultiDevice::compile_aligned(&arch, &w).expect("compile");
    let report = lut_fault_campaign(&mut dev, &w, 60, 150, 42);
    println!(
        "  injected {}  detected {}  silent {}  (rate {:.0}%)",
        report.injected,
        report.detected,
        report.silent,
        100.0 * report.detection_rate()
    );
    println!("  silent upsets hide in unused planes and unexercised LUT rows;");
    println!("  structural upsets (routing switches, RCM decoders) are caught");
    println!("  without stimulus by MultiDevice::check_routing.");
}
