//! Golden mappings: an FNV-1a digest of every `map_netlist` result for a
//! fixed set of inputs — each LUT's root, inputs and table, each register's
//! source and initial value, and the outputs. Placement, routing, the
//! lowered kernels and every recorded area ratio start from these networks,
//! so any change to cut enumeration or covering that picks a different cut,
//! emits LUTs in a different order or lists a LUT's inputs differently
//! moves these digests.

use mcfpga_map::{map_netlist, MappedNetlist, MappedSource};
use mcfpga_netlist::{library, random_netlist, Netlist, RandomNetlistParams};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn source(h: u64, src: &MappedSource) -> u64 {
    let (tag, value) = match *src {
        MappedSource::Input(i) => (0u8, i as u64),
        MappedSource::Register(r) => (1, r as u64),
        MappedSource::Lut(l) => (2, l as u64),
        MappedSource::Const(c) => (3, c as u64),
    };
    fnv(fnv(h, &[tag]), &value.to_le_bytes())
}

fn digest(mut h: u64, mapped: &MappedNetlist) -> u64 {
    h = fnv(h, &(mapped.luts.len() as u64).to_le_bytes());
    for lut in &mapped.luts {
        h = fnv(h, &lut.root.0.to_le_bytes());
        h = fnv(h, &(lut.inputs.len() as u64).to_le_bytes());
        h = lut.inputs.iter().fold(h, source);
        h = fnv(h, &lut.table.to_le_bytes());
    }
    h = fnv(h, &(mapped.dffs.len() as u64).to_le_bytes());
    for dff in &mapped.dffs {
        h = fnv(source(h, &dff.d), &[dff.init as u8]);
    }
    h = fnv(h, &(mapped.outputs.len() as u64).to_le_bytes());
    for (name, src) in &mapped.outputs {
        h = source(fnv(h, name.as_bytes()), src);
    }
    h
}

fn mapped(netlist: &Netlist, k: usize) -> MappedNetlist {
    map_netlist(netlist, k).unwrap()
}

#[test]
fn library_mappings_match_golden_digest() {
    let mut h = FNV_OFFSET;
    for circuit in library::benchmark_suite() {
        for k in [4, 6] {
            h = digest(h, &mapped(&circuit, k));
        }
    }
    assert_eq!(
        h, 0xec26_3342_d617_c137,
        "library mappings moved: {h:#018x}"
    );
}

#[test]
fn random_netlist_mappings_match_golden_digest() {
    // The served compile benchmark's per-context shape, mapped at the
    // fabric's LUT size.
    let params = RandomNetlistParams {
        n_inputs: 8,
        n_gates: 60,
        n_outputs: 8,
        dff_fraction: 0.10,
    };
    let h = (0..32).fold(FNV_OFFSET, |h, seed| {
        digest(h, &mapped(&random_netlist(params, seed), 4))
    });
    assert_eq!(
        h, 0x5c41_c147_327e_d444,
        "random-netlist mappings moved: {h:#018x}"
    );
}
