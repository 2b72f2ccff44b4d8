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
use mcfpga::sim::{MultiDevice, LANES};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// The deterministic schedule `experiments sim` and `experiments probe`
/// drive over `circuits` (the [`mixed_contexts`] suite): 512 words, each a
/// context, switched at the word boundary with probability 0.3, and one
/// random word (64 independent vectors) per input of that context.
///
/// Panics if a circuit carries state: [`scalar_replay`] packs a single
/// register file's outputs into lanes, which is only meaningful when the
/// suite is combinational.
pub fn mixed_schedule(circuits: &[Netlist]) -> Vec<(usize, Vec<u64>)> {
    let stateless = circuits.iter().all(|c| c.initial_state().bits.is_empty());
    assert!(stateless, "mixed suite must be combinational");
    let mut rng = StdRng::seed_from_u64(2027);
    let mut context = 0usize;
    (0..512)
        .map(|_| {
            if rng.gen_bool(0.3) {
                context = rng.gen_range(0..circuits.len());
            }
            let arity = circuits[context].inputs().len();
            (context, (0..arity).map(|_| rng.next_u64()).collect())
        })
        .collect()
}

/// Replay `schedule` on `dev` from power-on through its scalar step, every
/// lane of every word, packing each word's outputs back into lanes: the
/// reference the batched and probed passes are checked against bit for
/// bit.
pub fn scalar_replay(dev: &mut MultiDevice, schedule: &[(usize, Vec<u64>)]) -> Vec<Vec<u64>> {
    dev.reset();
    let mut bits: Vec<bool> = Vec::new();
    schedule
        .iter()
        .map(|(c, inputs)| {
            dev.switch_context(*c);
            let mut packed: Vec<u64> = Vec::new();
            for lane in 0..LANES {
                bits.clear();
                bits.extend(inputs.iter().map(|w| (w >> lane) & 1 == 1));
                let out = dev.step(&bits);
                packed.resize(out.len(), 0);
                for (w, &b) in packed.iter_mut().zip(&out) {
                    *w |= (b as u64) << lane;
                }
            }
            packed
        })
        .collect()
}

/// Render a ruled section header.
pub fn header(title: &str) {
    println!(
        "\n==== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}
