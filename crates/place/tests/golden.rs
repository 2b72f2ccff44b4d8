//! Golden placements: an FNV-1a digest of every `(position, cost)` the
//! annealer returns for a fixed set of inputs. Annealing is a deterministic
//! function of `(problem, opts)`, and downstream bit-identity (delta == cold
//! compile, the `place_delta` memo, recorded area ratios and move counts)
//! relies on that function never changing. Any change to the move loop, the
//! RNG or the cost model that alters a single draw or accept decision moves
//! these digests.

use mcfpga_arch::ArchSpec;
use mcfpga_map::map_netlist;
use mcfpga_netlist::{library, random_netlist, Netlist, RandomNetlistParams};
use mcfpga_place::{place, AnnealOptions, Placement, PlacementProblem};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(h: u64, placement: &Placement) -> u64 {
    let h = placement.position.iter().fold(h, |h, p| {
        fnv(fnv(h, &p.x.to_le_bytes()), &p.y.to_le_bytes())
    });
    fnv(h, &placement.cost.to_le_bytes())
}

fn placed(netlist: &Netlist, k: usize, opts: &AnnealOptions) -> Placement {
    let arch = ArchSpec::paper_default();
    let mapped = map_netlist(netlist, k).unwrap();
    let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
    let placement = place(&problem, opts);
    placement.validate(&problem).unwrap();
    placement
}

/// The compile pipeline's per-context anneal seed.
fn context_opts(c: u64) -> AnnealOptions {
    AnnealOptions {
        seed: 0xC0FFEE ^ c,
        ..Default::default()
    }
}

#[test]
fn library_placements_match_golden_digest() {
    let circuits = [
        library::adder(4),
        library::alu(4),
        library::multiplier(3),
        library::parity(4),
        library::counter(4),
    ];
    let h = circuits.iter().fold(FNV_OFFSET, |h, n| {
        digest(h, &placed(n, 6, &AnnealOptions::default()))
    });
    assert_eq!(
        h, 0x89c8_ea96_ce9f_87e3,
        "library placements moved: {h:#018x}"
    );
}

#[test]
fn random_netlist_placements_match_golden_digest() {
    // The served compile benchmark's per-context shape, placed with every
    // context's seed, mapped at the fabric's LUT size.
    let params = RandomNetlistParams {
        n_inputs: 8,
        n_gates: 60,
        n_outputs: 8,
        dff_fraction: 0.10,
    };
    let k = ArchSpec::paper_default().lut.min_inputs;
    let mut h = FNV_OFFSET;
    for seed in 0..32 {
        let netlist = random_netlist(params, seed);
        for c in 0..4 {
            h = digest(h, &placed(&netlist, k, &context_opts(c)));
        }
    }
    assert_eq!(
        h, 0x3a93_89f2_bad7_e932,
        "random-netlist placements moved: {h:#018x}"
    );
}

#[test]
fn short_schedule_placement_matches_golden_digest() {
    let opts = AnnealOptions {
        moves_per_block: 4,
        ..context_opts(0)
    };
    let h = digest(FNV_OFFSET, &placed(&library::alu(4), 6, &opts));
    assert_eq!(
        h, 0x6cca_6740_b87a_525a,
        "short-schedule placement moved: {h:#018x}"
    );
}
