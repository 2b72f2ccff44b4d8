//! Priority-cut enumeration and cone truth-table computation.
//!
//! A *cut* of node `v` is a set of nodes (leaves) such that every path from
//! the primary inputs/registers to `v` crosses a leaf; a cut with at most
//! `k` leaves can be implemented by one k-input LUT computing the cone
//! function. We enumerate bounded sets of cuts per node in topological
//! order (the classic priority-cuts scheme) and keep the best few by
//! (depth, size).
//!
//! A cut holds its (at most six) leaves inline, and a node's merges run in
//! scratch buffers reused across nodes, so merging two cuts allocates
//! nothing: a node costs one sorted merge of at most twelve leaves per pair
//! of cuts it combines, and keeps at most `CUT_LIMIT` cuts.

use mcfpga_netlist::{Gate, Netlist, NodeId};

/// Maximum cuts retained per node.
const CUT_LIMIT: usize = 8;

/// The most leaves a cut holds: the largest supported LUT size.
const MAX_LEAVES: usize = 6;

/// Up to `MAX_LEAVES` sorted, deduplicated node ids held inline. Slots past
/// `len` hold `NodeId(0)`, so two leaf sets are equal exactly when their
/// leaves are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leaves {
    ids: [NodeId; MAX_LEAVES],
    len: u8,
}

impl Leaves {
    const EMPTY: Leaves = Leaves {
        ids: [NodeId(0); MAX_LEAVES],
        len: 0,
    };

    fn as_slice(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }

    /// The sorted union of two leaf sets, or `None` once it would exceed
    /// `k` leaves.
    fn merge(a: &[NodeId], b: &[NodeId], k: usize) -> Option<Leaves> {
        let mut out = Leaves::EMPTY;
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) => {
                    if x < y {
                        i += 1;
                        x
                    } else if y < x {
                        j += 1;
                        y
                    } else {
                        i += 1;
                        j += 1;
                        x
                    }
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => break,
            };
            if out.len as usize == k {
                return None;
            }
            out.ids[out.len as usize] = next;
            out.len += 1;
        }
        Some(out)
    }
}

/// A cut: sorted leaves plus bookkeeping for covering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    leaves: Leaves,
    /// Mapping depth if this cut is chosen (max leaf depth + 1).
    pub depth: usize,
}

impl Cut {
    fn trivial(node: NodeId, depth: usize) -> Self {
        let mut leaves = Leaves::EMPTY;
        leaves.ids[0] = node;
        leaves.len = 1;
        Cut { leaves, depth }
    }

    /// Sorted, deduplicated leaves.
    pub fn leaves(&self) -> &[NodeId] {
        self.leaves.as_slice()
    }
}

/// Whether a node is a mapping *source*: its value is available without a
/// LUT (primary input, register output, constant).
pub fn is_source(netlist: &Netlist, node: NodeId) -> bool {
    matches!(
        netlist.gate(node),
        Gate::Input(_) | Gate::Dff { .. } | Gate::Const(_)
    )
}

/// Per-node cut sets for a netlist at LUT size `k`.
pub struct CutSet {
    /// Every node's retained cuts in one array, appended in topological
    /// order: node `v`'s are `cuts[range[v].0..range[v].1]`.
    cuts: Vec<Cut>,
    range: Vec<(usize, usize)>,
    /// Chosen (best) mapping depth per node.
    pub depth: Vec<usize>,
}

impl CutSet {
    /// `node`'s retained cuts, best first.
    pub fn cuts(&self, node: NodeId) -> &[Cut] {
        let (start, end) = self.range[node.index()];
        &self.cuts[start..end]
    }
}

/// Enumerate priority cuts for every node, visiting nodes in `order`, a
/// topological order of the netlist (see `Netlist::topo_order`).
pub fn enumerate(netlist: &Netlist, order: &[NodeId], k: usize) -> CutSet {
    assert!(
        (2..=MAX_LEAVES).contains(&k),
        "LUT size {k} out of supported range"
    );
    let n = netlist.n_gates();
    let mut set = CutSet {
        cuts: Vec::with_capacity(n * CUT_LIMIT / 2),
        range: vec![(0, 0); n],
        depth: vec![0; n],
    };
    // The leaf sets merged over the fan-ins so far, the next fan-in's round
    // of them, and the node's cuts.
    let mut merged: Vec<Leaves> = Vec::new();
    let mut next: Vec<Leaves> = Vec::new();
    let mut node_cuts: Vec<Cut> = Vec::new();
    for &id in order {
        let start = set.cuts.len();
        if is_source(netlist, id) {
            set.depth[id.index()] = 0;
            set.cuts.push(Cut::trivial(id, 0));
            set.range[id.index()] = (start, start + 1);
            continue;
        }
        let fanins = netlist.gate(id).fanins();
        // Merge fan-in cut sets pairwise; a cut's depth is recomputed from
        // its leaves' chosen mapping depths (not from the fan-in cuts —
        // expanding through a fan-in absorbs it into this LUT's cone).
        merged.clear();
        merged.push(Leaves::EMPTY);
        for &f in fanins.iter() {
            next.clear();
            for m in &merged {
                for fc in set.cuts(f) {
                    if let Some(leaves) = Leaves::merge(m.as_slice(), fc.leaves(), k) {
                        if !next.contains(&leaves) {
                            next.push(leaves);
                        }
                    }
                }
            }
            std::mem::swap(&mut merged, &mut next);
            if merged.is_empty() {
                break;
            }
        }
        node_cuts.clear();
        node_cuts.extend(merged.iter().map(|&leaves| {
            let d = leaves
                .as_slice()
                .iter()
                .map(|l| set.depth[l.index()])
                .max()
                .unwrap_or(0)
                + 1;
            Cut { leaves, depth: d }
        }));
        // The trivial cut guarantees feasibility (this node as a leaf of its
        // fanouts once it is itself implemented).
        let best_cut_depth = node_cuts.iter().map(|c| c.depth).min();
        let own_depth = best_cut_depth.unwrap_or_else(|| {
            fanins
                .iter()
                .map(|f| set.depth[f.index()])
                .max()
                .unwrap_or(0)
                + 1
        });
        node_cuts.push(Cut::trivial(id, own_depth));
        // Trivial cuts sort last: they are fallbacks, not real covers.
        let sort_len = |c: &Cut| {
            if c.leaves() == [id] {
                usize::MAX
            } else {
                c.leaves().len()
            }
        };
        node_cuts.sort_by(|a, b| {
            (a.depth, sort_len(a), a.leaves()).cmp(&(b.depth, sort_len(b), b.leaves()))
        });
        node_cuts.dedup_by(|a, b| a.leaves == b.leaves);
        if node_cuts.len() > CUT_LIMIT {
            // The trivial cut must survive truncation: fan-out merges rely
            // on every node being usable as a leaf.
            let trivial_pos = node_cuts
                .iter()
                .position(|c| c.leaves() == [id])
                .expect("trivial cut present");
            if trivial_pos >= CUT_LIMIT {
                let t = node_cuts.remove(trivial_pos);
                node_cuts.truncate(CUT_LIMIT - 1);
                node_cuts.push(t);
            } else {
                node_cuts.truncate(CUT_LIMIT);
            }
        }
        set.depth[id.index()] = own_depth;
        set.cuts.extend_from_slice(&node_cuts);
        set.range[id.index()] = (start, set.cuts.len());
    }
    set
}

/// Compute the truth table of `root`'s cone over `leaves`, bit-parallel over
/// the `2^|leaves|` assignments (`|leaves| <= 6` so one `u64` suffices).
pub fn cone_table(netlist: &Netlist, root: NodeId, leaves: &[NodeId]) -> u64 {
    assert!(leaves.len() <= 6, "cone over more than 6 leaves");
    // Projection masks: leaf i's value across the 64 assignments.
    const PROJ: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    fn eval(
        netlist: &Netlist,
        node: NodeId,
        leaves: &[NodeId],
        memo: &mut std::collections::HashMap<NodeId, u64>,
    ) -> u64 {
        if let Some(pos) = leaves.iter().position(|&l| l == node) {
            return PROJ[pos];
        }
        if let Some(&v) = memo.get(&node) {
            return v;
        }
        let v = match *netlist.gate(node) {
            Gate::Const(c) => {
                if c {
                    u64::MAX
                } else {
                    0
                }
            }
            Gate::Input(_) | Gate::Dff { .. } => {
                panic!("cone reaches source {node} that is not a leaf")
            }
            Gate::Not(a) => !eval(netlist, a, leaves, memo),
            Gate::And(a, b) => eval(netlist, a, leaves, memo) & eval(netlist, b, leaves, memo),
            Gate::Or(a, b) => eval(netlist, a, leaves, memo) | eval(netlist, b, leaves, memo),
            Gate::Xor(a, b) => eval(netlist, a, leaves, memo) ^ eval(netlist, b, leaves, memo),
            Gate::Nand(a, b) => !(eval(netlist, a, leaves, memo) & eval(netlist, b, leaves, memo)),
            Gate::Nor(a, b) => !(eval(netlist, a, leaves, memo) | eval(netlist, b, leaves, memo)),
            Gate::Xnor(a, b) => !(eval(netlist, a, leaves, memo) ^ eval(netlist, b, leaves, memo)),
            Gate::Mux { sel, a, b } => {
                let s = eval(netlist, sel, leaves, memo);
                let av = eval(netlist, a, leaves, memo);
                let bv = eval(netlist, b, leaves, memo);
                (s & bv) | (!s & av)
            }
        };
        memo.insert(node, v);
        v
    }
    let mut memo = std::collections::HashMap::new();
    let full = eval(netlist, root, leaves, &mut memo);
    // Mask to the used assignments.
    if leaves.len() == 6 {
        full
    } else {
        full & ((1u64 << (1 << leaves.len())) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_cut_always_present() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.and(a, b);
        n.output("o", g);
        let cs = enumerate(&n, &n.topo_order().unwrap(), 4);
        let gc = cs.cuts(g);
        assert!(gc.iter().any(|c| c.leaves() == [a, b]));
        assert!(gc.iter().any(|c| c.leaves() == [g]));
        assert_eq!(cs.depth[g.index()], 1);
    }

    #[test]
    fn deep_chain_collapses_into_one_lut() {
        // not(not(not(not(a)))) fits a single 1-input cut at k>=2.
        let mut n = Netlist::new("chain");
        let a = n.input("a");
        let mut cur = a;
        for _ in 0..4 {
            cur = n.not(cur);
        }
        n.output("o", cur);
        let cs = enumerate(&n, &n.topo_order().unwrap(), 4);
        assert_eq!(cs.depth[cur.index()], 1, "whole chain in one LUT");
        let best = &cs.cuts(cur)[0];
        assert_eq!(best.leaves(), [a]);
        // Identity over one input: assignment 0 -> 0, assignment 1 -> 1.
        assert_eq!(
            cone_table(&n, cur, best.leaves()),
            0b10,
            "4 inversions = identity"
        );
    }

    #[test]
    fn cone_tables_match_direct_evaluation() {
        let mut n = Netlist::new("fa");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let axb = n.xor(a, b);
        let sum = n.xor(axb, c);
        let g1 = n.and(a, b);
        let g2 = n.and(axb, c);
        let cout = n.or(g1, g2);
        n.output("s", sum);
        n.output("co", cout);
        let leaves = vec![a, b, c];
        let sum_t = cone_table(&n, sum, &leaves);
        let cout_t = cone_table(&n, cout, &leaves);
        for assignment in 0..8usize {
            let bits = [
                assignment & 1 == 1,
                assignment & 2 == 2,
                assignment & 4 == 4,
            ];
            let expect = n.eval_comb(&bits).unwrap();
            assert_eq!((sum_t >> assignment) & 1 == 1, expect[0]);
            assert_eq!((cout_t >> assignment) & 1 == 1, expect[1]);
        }
    }

    #[test]
    fn k_bound_is_respected() {
        let mut n = Netlist::new("wide");
        let ins: Vec<NodeId> = (0..8).map(|i| n.input(format!("i{i}"))).collect();
        let mut cur = ins[0];
        for &i in &ins[1..] {
            cur = n.xor(cur, i);
        }
        n.output("o", cur);
        let order = n.topo_order().unwrap();
        for k in 2..=6 {
            let cs = enumerate(&n, &order, k);
            for &node in &order {
                for c in cs.cuts(node) {
                    assert!(c.leaves().len() <= k, "cut wider than k={k}");
                }
            }
        }
    }

    #[test]
    fn mux_cone_table() {
        let mut n = Netlist::new("m");
        let s = n.input("s");
        let a = n.input("a");
        let b = n.input("b");
        let m = n.mux(s, a, b);
        n.output("o", m);
        let t = cone_table(&n, m, &[s, a, b]);
        for assignment in 0..8usize {
            let s_v = assignment & 1 == 1;
            let a_v = assignment & 2 == 2;
            let b_v = assignment & 4 == 4;
            let expect = if s_v { b_v } else { a_v };
            assert_eq!(
                (t >> assignment) & 1 == 1,
                expect,
                "assignment {assignment:03b}"
            );
        }
    }

    #[test]
    fn dff_outputs_are_cut_sources() {
        let mut n = Netlist::new("seq");
        let x = n.input("x");
        let q = n.dff(x, false);
        let g = n.xor(q, x);
        n.output("o", g);
        let cs = enumerate(&n, &n.topo_order().unwrap(), 4);
        assert_eq!(cs.cuts(q).len(), 1, "sources have only the trivial cut");
        let best = &cs.cuts(g)[0];
        assert!(best.leaves().contains(&q));
        assert!(best.leaves().contains(&x));
    }
}
