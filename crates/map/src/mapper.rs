//! LUT covering: from per-node cuts to a mapped LUT network, and the
//! shared-cover workload mapping that keeps contexts aligned.

use mcfpga_netlist::{Gate, Netlist, NodeId, State};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::cuts::{cone_table, enumerate, is_source};

/// Where a mapped LUT input (or output) value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappedSource {
    /// Primary input (index into the netlist's input list).
    Input(usize),
    /// Register output (index into the netlist's DFF list).
    Register(usize),
    /// Output of mapped LUT `i`.
    Lut(usize),
    /// Constant driver.
    Const(bool),
}

/// One mapped k-LUT.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappedLut {
    /// The netlist node this LUT's output realises.
    pub root: NodeId,
    /// Input sources, LSB of the table first.
    pub inputs: Vec<MappedSource>,
    /// Truth table over the inputs, packed (bit `a` = output for
    /// assignment `a`).
    pub table: u64,
}

/// One mapped register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappedDff {
    /// The source feeding `d`.
    pub d: MappedSource,
    pub init: bool,
}

/// A netlist mapped to k-LUTs. Evaluable on its own and checkable against
/// the original netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappedNetlist {
    pub name: String,
    pub k: usize,
    pub luts: Vec<MappedLut>,
    pub dffs: Vec<MappedDff>,
    /// Primary outputs: name and source.
    pub outputs: Vec<(String, MappedSource)>,
    pub n_inputs: usize,
}

/// Mapping failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The netlist failed validation.
    Invalid(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Invalid(e) => write!(f, "cannot map invalid netlist: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

/// The cover chosen for a netlist: for each covered node, the cut leaves.
/// Reused across workload contexts so their LUT networks align.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    /// LUT roots in emission order with their leaf lists.
    pub nodes: Vec<(NodeId, Vec<NodeId>)>,
}

fn source_of(netlist: &Netlist, node: NodeId, lut_of: &HashMap<NodeId, usize>) -> MappedSource {
    if let Some(&l) = lut_of.get(&node) {
        return MappedSource::Lut(l);
    }
    match netlist.gate(node) {
        Gate::Input(_) => MappedSource::Input(
            netlist
                .inputs()
                .iter()
                .position(|&i| i == node)
                .expect("input listed"),
        ),
        Gate::Dff { .. } => MappedSource::Register(
            netlist
                .dffs()
                .iter()
                .position(|&d| d == node)
                .expect("dff listed"),
        ),
        Gate::Const(c) => MappedSource::Const(*c),
        other => panic!(
            "node {node} ({}) is neither source nor mapped",
            other.opcode()
        ),
    }
}

/// Choose a cover for a netlist: depth-optimal cut per required node.
pub fn choose_cover(netlist: &Netlist, k: usize) -> Result<Cover, MapError> {
    let order = netlist
        .validated_order()
        .map_err(|e| MapError::Invalid(e.to_string()))?;
    let cut_set = enumerate(netlist, &order, k);

    // Roots we must realise: primary-output nodes and DFF d-inputs that are
    // not already sources.
    let mut required: Vec<NodeId> = Vec::new();
    for (_, id) in netlist.outputs() {
        required.push(*id);
    }
    for &ff in netlist.dffs() {
        if let Gate::Dff { d, .. } = netlist.gate(ff) {
            required.push(*d);
        }
    }

    let mut chosen: Vec<Option<&[NodeId]>> = vec![None; netlist.n_gates()];
    let mut stack = required;
    while let Some(node) = stack.pop() {
        if is_source(netlist, node) || chosen[node.index()].is_some() {
            continue;
        }
        let best = cut_set
            .cuts(node)
            .iter()
            .find(|c| c.leaves() != [node])
            .unwrap_or_else(|| {
                panic!("node {node} has only its trivial cut; k too small for its fan-in")
            });
        for &leaf in best.leaves() {
            if leaf != node {
                stack.push(leaf);
            }
        }
        chosen[node.index()] = Some(best.leaves());
    }

    // Emit in topological order so LUT indices are usable as they appear.
    let nodes = order
        .into_iter()
        .filter_map(|id| chosen[id.index()].map(|leaves| (id, leaves.to_vec())))
        .collect();
    Ok(Cover { nodes })
}

/// Apply a cover to a netlist (the cover may come from a different context
/// of the same workload — structures must match).
pub fn apply_cover(netlist: &Netlist, cover: &Cover, k: usize) -> MappedNetlist {
    let mut lut_of: HashMap<NodeId, usize> = HashMap::new();
    let mut luts = Vec::with_capacity(cover.nodes.len());
    for (root, leaves) in &cover.nodes {
        let table = cone_table(netlist, *root, leaves);
        let index = luts.len();
        // Inputs resolve against LUTs emitted earlier (topological order).
        let inputs = leaves
            .iter()
            .map(|&l| source_of(netlist, l, &lut_of))
            .collect();
        luts.push(MappedLut {
            root: *root,
            inputs,
            table,
        });
        lut_of.insert(*root, index);
    }
    let dffs = netlist
        .dffs()
        .iter()
        .map(|&ff| match netlist.gate(ff) {
            Gate::Dff { d, init } => MappedDff {
                d: source_of(netlist, *d, &lut_of),
                init: *init,
            },
            _ => unreachable!(),
        })
        .collect();
    let outputs = netlist
        .outputs()
        .iter()
        .map(|(name, id)| (name.clone(), source_of(netlist, *id, &lut_of)))
        .collect();
    MappedNetlist {
        name: netlist.name().to_string(),
        k,
        luts,
        dffs,
        outputs,
        n_inputs: netlist.inputs().len(),
    }
}

/// Map a single netlist to k-LUTs.
pub fn map_netlist(netlist: &Netlist, k: usize) -> Result<MappedNetlist, MapError> {
    let cover = choose_cover(netlist, k)?;
    Ok(apply_cover(netlist, &cover, k))
}

/// Map a multi-context workload with a cover shared across contexts:
/// context 0's cuts are reused, so `result[c].luts[i]` realises the same
/// position in every context and cross-context redundancy is measurable
/// position-by-position.
pub fn map_workload(contexts: &[Netlist], k: usize) -> Result<Vec<MappedNetlist>, MapError> {
    assert!(!contexts.is_empty());
    let cover = choose_cover(&contexts[0], k)?;
    contexts
        .iter()
        .map(|n| {
            n.validate().map_err(|e| MapError::Invalid(e.to_string()))?;
            Ok(apply_cover(n, &cover, k))
        })
        .collect()
}

impl MappedNetlist {
    /// Initial register state.
    pub fn initial_state(&self) -> State {
        State {
            bits: self.dffs.iter().map(|d| d.init).collect(),
        }
    }

    fn resolve(
        &self,
        src: MappedSource,
        inputs: &[bool],
        state: &State,
        lut_vals: &[bool],
    ) -> bool {
        match src {
            MappedSource::Input(i) => inputs[i],
            MappedSource::Register(r) => state.bits[r],
            MappedSource::Lut(l) => lut_vals[l],
            MappedSource::Const(c) => c,
        }
    }

    /// One clock cycle: outputs for `inputs`, then register update.
    pub fn step(&self, inputs: &[bool], state: &mut State) -> Vec<bool> {
        assert_eq!(inputs.len(), self.n_inputs, "input arity");
        let mut lut_vals = vec![false; self.luts.len()];
        for (i, lut) in self.luts.iter().enumerate() {
            let mut a = 0usize;
            for (b, &src) in lut.inputs.iter().enumerate() {
                if self.resolve(src, inputs, state, &lut_vals) {
                    a |= 1 << b;
                }
            }
            lut_vals[i] = (lut.table >> a) & 1 == 1;
        }
        let outs = self
            .outputs
            .iter()
            .map(|(_, src)| self.resolve(*src, inputs, state, &lut_vals))
            .collect();
        let next: Vec<bool> = self
            .dffs
            .iter()
            .map(|d| self.resolve(d.d, inputs, state, &lut_vals))
            .collect();
        state.bits = next;
        outs
    }

    /// Maximum LUT fan-in actually used.
    pub fn max_fanin(&self) -> usize {
        self.luts.iter().map(|l| l.inputs.len()).max().unwrap_or(0)
    }

    /// LUT-level logic depth.
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.luts.len()];
        let mut max = 0;
        for (i, lut) in self.luts.iter().enumerate() {
            let dd = lut
                .inputs
                .iter()
                .map(|s| match s {
                    MappedSource::Lut(l) => d[*l] + 1,
                    _ => 1,
                })
                .max()
                .unwrap_or(1);
            d[i] = dd;
            max = max.max(dd);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_netlist::library;
    use mcfpga_netlist::{perturb_netlist, random_netlist, RandomNetlistParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Exhaustively (or randomly for wide inputs) check mapped == original.
    fn check_equivalence(netlist: &Netlist, mapped: &MappedNetlist, cycles: usize) {
        let n_in = netlist.inputs().len();
        let mut rng = StdRng::seed_from_u64(99);
        let mut st_a = netlist.initial_state();
        let mut st_b = mapped.initial_state();
        for cycle in 0..cycles {
            let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
            let a = netlist.step(&inputs, &mut st_a).unwrap();
            let b = mapped.step(&inputs, &mut st_b);
            assert_eq!(a, b, "{} diverged at cycle {cycle}", netlist.name());
        }
    }

    #[test]
    fn library_circuits_map_and_match() {
        for circuit in library::benchmark_suite() {
            for k in [4usize, 6] {
                let mapped = map_netlist(&circuit, k).unwrap();
                assert!(mapped.max_fanin() <= k, "{} k={k}", circuit.name());
                check_equivalence(&circuit, &mapped, 50);
            }
        }
    }

    #[test]
    fn mapping_reduces_node_count() {
        let add = library::adder(8);
        let mapped = map_netlist(&add, 6).unwrap();
        assert!(
            mapped.luts.len() < add.n_logic_gates(),
            "LUT packing must absorb gates: {} luts vs {} gates",
            mapped.luts.len(),
            add.n_logic_gates()
        );
    }

    #[test]
    fn random_netlists_map_and_match() {
        for seed in 0..10 {
            let p = RandomNetlistParams {
                n_inputs: 6,
                n_gates: 80,
                n_outputs: 6,
                dff_fraction: if seed % 2 == 0 { 0.0 } else { 0.1 },
            };
            let netlist = random_netlist(p, seed);
            let mapped = map_netlist(&netlist, 5).unwrap();
            check_equivalence(&netlist, &mapped, 40);
        }
    }

    #[test]
    fn shared_cover_aligns_contexts() {
        let base = random_netlist(
            RandomNetlistParams {
                n_inputs: 8,
                n_gates: 60,
                n_outputs: 6,
                dff_fraction: 0.0,
            },
            3,
        );
        let contexts = vec![
            base.clone(),
            perturb_netlist(&base, 0.05, 1),
            perturb_netlist(&base, 0.05, 2),
            perturb_netlist(&base, 0.05, 3),
        ];
        let mapped = map_workload(&contexts, 4).unwrap();
        // Same LUT positions: same roots and same input sources everywhere.
        for m in &mapped[1..] {
            assert_eq!(m.luts.len(), mapped[0].luts.len());
            for (a, b) in mapped[0].luts.iter().zip(&m.luts) {
                assert_eq!(a.root, b.root);
                assert_eq!(a.inputs, b.inputs);
            }
        }
        // And each context still computes its own netlist.
        for (netlist, m) in contexts.iter().zip(&mapped) {
            check_equivalence(netlist, m, 30);
        }
    }

    #[test]
    fn constant_outputs_map() {
        let mut n = Netlist::new("const_out");
        let a = n.input("a");
        let c = n.constant(true);
        let g = n.or(a, c); // always true
        n.output("o", g);
        n.output("direct", c);
        let mapped = map_netlist(&n, 4).unwrap();
        check_equivalence(&n, &mapped, 8);
    }

    #[test]
    fn sequential_feedback_maps() {
        let cnt = library::counter(4);
        let mapped = map_netlist(&cnt, 4).unwrap();
        assert_eq!(mapped.dffs.len(), 4);
        check_equivalence(&cnt, &mapped, 40);
    }

    #[test]
    fn depth_is_positive_and_bounded() {
        let mul = library::multiplier(3);
        let mapped = map_netlist(&mul, 6).unwrap();
        let d = mapped.depth();
        assert!(d >= 1);
        assert!(d <= mul.depth(), "LUT depth cannot exceed gate depth");
    }
}
