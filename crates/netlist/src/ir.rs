//! Gate-level netlist IR and its reference evaluator.
//!
//! The IR is a flat vector of gates addressed by [`NodeId`]; primary inputs
//! are `Gate::Input` nodes, primary outputs name arbitrary nodes. D
//! flip-flops make the netlist sequential: their output is the *current*
//! state, and their `d` input is sampled when [`Netlist::step`] commits.
//!
//! Evaluation is the golden model for the whole reproduction: the mapper,
//! router and fabric simulator are all checked against it.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Index of a gate inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One gate. Two-input gates cover the standard cell set; `Mux` selects
/// `b` when `sel` is high, `a` otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Gate {
    /// Primary input with a user-visible name.
    Input(String),
    /// Constant driver.
    Const(bool),
    Not(NodeId),
    And(NodeId, NodeId),
    Or(NodeId, NodeId),
    Xor(NodeId, NodeId),
    Nand(NodeId, NodeId),
    Nor(NodeId, NodeId),
    Xnor(NodeId, NodeId),
    /// `sel ? b : a`.
    Mux {
        sel: NodeId,
        a: NodeId,
        b: NodeId,
    },
    /// D flip-flop. Output is the registered state; `d` is sampled on
    /// [`Netlist::step`]. `init` is the power-on value.
    Dff {
        d: NodeId,
        init: bool,
    },
}

/// A gate's fan-in node ids, in argument order, held inline: a gate has at
/// most three. Derefs to a slice.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fanins {
    /// Slots past `len` hold `NodeId(0)`.
    ids: [NodeId; 3],
    len: u8,
}

impl Fanins {
    fn of(ids: &[NodeId]) -> Fanins {
        let mut fanins = Fanins {
            ids: [NodeId(0); 3],
            len: ids.len() as u8,
        };
        fanins.ids[..ids.len()].copy_from_slice(ids);
        fanins
    }
}

impl std::ops::Deref for Fanins {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }
}

impl fmt::Debug for Fanins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Gate {
    /// Fan-in node ids, in argument order.
    pub fn fanins(&self) -> Fanins {
        match *self {
            Gate::Input(_) | Gate::Const(_) => Fanins::of(&[]),
            Gate::Not(a) => Fanins::of(&[a]),
            Gate::And(a, b)
            | Gate::Or(a, b)
            | Gate::Xor(a, b)
            | Gate::Nand(a, b)
            | Gate::Nor(a, b)
            | Gate::Xnor(a, b) => Fanins::of(&[a, b]),
            Gate::Mux { sel, a, b } => Fanins::of(&[sel, a, b]),
            Gate::Dff { d, .. } => Fanins::of(&[d]),
        }
    }

    /// Whether the gate is sequential.
    pub fn is_dff(&self) -> bool {
        matches!(self, Gate::Dff { .. })
    }

    /// Short mnemonic used in dumps and structural hashing.
    pub fn opcode(&self) -> &'static str {
        match self {
            Gate::Input(_) => "in",
            Gate::Const(_) => "const",
            Gate::Not(_) => "not",
            Gate::And(..) => "and",
            Gate::Or(..) => "or",
            Gate::Xor(..) => "xor",
            Gate::Nand(..) => "nand",
            Gate::Nor(..) => "nor",
            Gate::Xnor(..) => "xnor",
            Gate::Mux { .. } => "mux",
            Gate::Dff { .. } => "dff",
        }
    }
}

/// Netlist validation / evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate references a node id that does not exist.
    DanglingRef { gate: NodeId, referenced: u32 },
    /// A combinational cycle (a cycle not broken by a DFF).
    CombinationalCycle { on: NodeId },
    /// Two outputs share a name.
    DuplicateOutput(String),
    /// Two inputs share a name.
    DuplicateInput(String),
    /// `step` was called with the wrong number of input bits.
    InputArity { expected: usize, got: usize },
    /// A DFF feedback placeholder was never connected.
    UnconnectedDff(NodeId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingRef { gate, referenced } => {
                write!(f, "gate {gate} references missing node n{referenced}")
            }
            NetlistError::CombinationalCycle { on } => {
                write!(f, "combinational cycle through {on}")
            }
            NetlistError::DuplicateOutput(name) => write!(f, "duplicate output name {name:?}"),
            NetlistError::DuplicateInput(name) => write!(f, "duplicate input name {name:?}"),
            NetlistError::InputArity { expected, got } => {
                write!(f, "expected {expected} input bits, got {got}")
            }
            NetlistError::UnconnectedDff(id) => {
                write!(f, "DFF {id} feedback input was never connected")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// Sequential state: one bit per DFF, in DFF creation order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct State {
    pub bits: Vec<bool>,
}

/// A gate-level netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
    dffs: Vec<NodeId>,
}

/// Sentinel used for not-yet-connected DFF feedback inputs.
const UNCONNECTED: NodeId = NodeId(u32::MAX);

impl Netlist {
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, g: Gate) -> NodeId {
        let id = NodeId(self.gates.len() as u32);
        if g.is_dff() {
            self.dffs.push(id);
        }
        if matches!(g, Gate::Input(_)) {
            self.inputs.push(id);
        }
        self.gates.push(g);
        id
    }

    // ---- builder API -----------------------------------------------------

    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        self.push(Gate::Input(name.into()))
    }

    pub fn constant(&mut self, v: bool) -> NodeId {
        self.push(Gate::Const(v))
    }

    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.push(Gate::Not(a))
    }

    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::And(a, b))
    }

    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Or(a, b))
    }

    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xor(a, b))
    }

    pub fn nand(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Nand(a, b))
    }

    pub fn nor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Nor(a, b))
    }

    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xnor(a, b))
    }

    /// `sel ? b : a`.
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Mux { sel, a, b })
    }

    /// DFF whose `d` input is already known.
    pub fn dff(&mut self, d: NodeId, init: bool) -> NodeId {
        self.push(Gate::Dff { d, init })
    }

    /// DFF created before its `d` input exists (feedback). Must be closed
    /// with [`Netlist::connect_dff`] before validation.
    pub fn dff_feedback(&mut self, init: bool) -> NodeId {
        self.push(Gate::Dff {
            d: UNCONNECTED,
            init,
        })
    }

    /// Connect a feedback DFF's `d` input.
    pub fn connect_dff(&mut self, ff: NodeId, d: NodeId) {
        match &mut self.gates[ff.index()] {
            Gate::Dff { d: slot, .. } => *slot = d,
            other => panic!("connect_dff on non-DFF gate {other:?}"),
        }
    }

    pub fn output(&mut self, name: impl Into<String>, id: NodeId) {
        self.outputs.push((name.into(), id));
    }

    /// Replace a combinational gate with another combinational gate
    /// (used by workload perturbation). Inputs and DFFs cannot be replaced
    /// and cannot be replacements — they carry bookkeeping (input order,
    /// state slots) that substitution would corrupt.
    pub fn replace_gate(&mut self, id: NodeId, gate: Gate) {
        assert!(
            !matches!(gate, Gate::Input(_) | Gate::Dff { .. }),
            "replacement must be combinational"
        );
        let old = &self.gates[id.index()];
        assert!(
            !matches!(old, Gate::Input(_) | Gate::Dff { .. }),
            "cannot replace an input or DFF"
        );
        self.gates[id.index()] = gate;
    }

    // ---- introspection ---------------------------------------------------

    pub fn gate(&self, id: NodeId) -> &Gate {
        &self.gates[id.index()]
    }

    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    pub fn n_gates(&self) -> usize {
        self.gates.len()
    }

    /// Primary inputs, in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    pub fn input_names(&self) -> Vec<&str> {
        self.inputs
            .iter()
            .map(|id| match self.gate(*id) {
                Gate::Input(name) => name.as_str(),
                _ => unreachable!("inputs list holds only Input gates"),
            })
            .collect()
    }

    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Number of combinational (non-input, non-DFF, non-const) gates.
    pub fn n_logic_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !matches!(g, Gate::Input(_) | Gate::Const(_) | Gate::Dff { .. }))
            .count()
    }

    /// Initial sequential state.
    pub fn initial_state(&self) -> State {
        State {
            bits: self
                .dffs
                .iter()
                .map(|id| match self.gate(*id) {
                    Gate::Dff { init, .. } => *init,
                    _ => unreachable!(),
                })
                .collect(),
        }
    }

    // ---- validation ------------------------------------------------------

    /// Validate references, DFF connectivity, name uniqueness, and the
    /// absence of combinational cycles.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.validated_order().map(|_| ())
    }

    /// Validate as [`Netlist::validate`] does, and return the topological
    /// order (see [`Netlist::topo_order`]) the check computes.
    pub fn validated_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let n = self.gates.len() as u32;
        for (i, g) in self.gates.iter().enumerate() {
            if let Gate::Dff { d, .. } = g {
                if *d == UNCONNECTED {
                    return Err(NetlistError::UnconnectedDff(NodeId(i as u32)));
                }
            }
            for &f in g.fanins().iter() {
                if f.0 >= n {
                    return Err(NetlistError::DanglingRef {
                        gate: NodeId(i as u32),
                        referenced: f.0,
                    });
                }
            }
        }
        let mut seen = HashMap::new();
        for (name, _) in &self.outputs {
            if seen.insert(name.clone(), ()).is_some() {
                return Err(NetlistError::DuplicateOutput(name.clone()));
            }
        }
        let mut seen = HashMap::new();
        for name in self.input_names() {
            if seen.insert(name.to_string(), ()).is_some() {
                return Err(NetlistError::DuplicateInput(name.to_string()));
            }
        }
        self.topo_order()
    }

    /// Topological order of the *combinational* view: DFF outputs are
    /// sources, DFF `d` pins are sinks. Errors on combinational cycles.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.gates.len()];
        let mut order = Vec::with_capacity(self.gates.len());
        // Iterative DFS; (node, child_cursor) frames.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..self.gates.len() as u32 {
            if marks[start as usize] != Mark::White {
                continue;
            }
            stack.push((start, 0));
            marks[start as usize] = Mark::Grey;
            while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
                let gate = &self.gates[node as usize];
                // DFFs break the cycle: do not traverse into their d input
                // here; d is evaluated as an ordinary node elsewhere.
                let fanins = if gate.is_dff() {
                    Fanins::of(&[])
                } else {
                    gate.fanins()
                };
                if *cursor < fanins.len() {
                    let child = fanins[*cursor];
                    *cursor += 1;
                    match marks[child.index()] {
                        Mark::White => {
                            marks[child.index()] = Mark::Grey;
                            stack.push((child.0, 0));
                        }
                        Mark::Grey => {
                            return Err(NetlistError::CombinationalCycle { on: child });
                        }
                        Mark::Black => {}
                    }
                } else {
                    marks[node as usize] = Mark::Black;
                    order.push(NodeId(node));
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    // ---- evaluation ------------------------------------------------------

    /// Evaluate combinational values for `inputs`, of checked arity, and
    /// the current state, visiting gates in `order`, the netlist's
    /// [`Netlist::topo_order`]. Returns the value of every node.
    fn eval_all(&self, order: &[NodeId], inputs: &[bool], state: &State) -> Vec<bool> {
        let mut vals = vec![false; self.gates.len()];
        let mut input_cursor = 0usize;
        let mut dff_cursor = 0usize;
        // Inputs and DFFs appear in creation order within the gates vec, so a
        // linear scan assigns their external values.
        for (i, g) in self.gates.iter().enumerate() {
            match g {
                Gate::Input(_) => {
                    vals[i] = inputs[input_cursor];
                    input_cursor += 1;
                }
                Gate::Dff { .. } => {
                    vals[i] = state.bits[dff_cursor];
                    dff_cursor += 1;
                }
                _ => {}
            }
        }
        for &id in order {
            let v = match *self.gate(id) {
                Gate::Input(_) | Gate::Dff { .. } => continue,
                Gate::Const(c) => c,
                Gate::Not(a) => !vals[a.index()],
                Gate::And(a, b) => vals[a.index()] && vals[b.index()],
                Gate::Or(a, b) => vals[a.index()] || vals[b.index()],
                Gate::Xor(a, b) => vals[a.index()] ^ vals[b.index()],
                Gate::Nand(a, b) => !(vals[a.index()] && vals[b.index()]),
                Gate::Nor(a, b) => !(vals[a.index()] || vals[b.index()]),
                Gate::Xnor(a, b) => !(vals[a.index()] ^ vals[b.index()]),
                Gate::Mux { sel, a, b } => {
                    if vals[sel.index()] {
                        vals[b.index()]
                    } else {
                        vals[a.index()]
                    }
                }
            };
            vals[id.index()] = v;
        }
        vals
    }

    /// One clock cycle: compute outputs for `inputs`, then commit DFF state.
    pub fn step(&self, inputs: &[bool], state: &mut State) -> Result<Vec<bool>, NetlistError> {
        self.step_in_order(None, inputs, state)
    }

    /// [`Netlist::step`] visiting gates in `order`, this netlist's
    /// [`Netlist::topo_order`], so that a replay stepping one netlist for
    /// many cycles computes the order once; `None` computes it on this call.
    pub fn step_in_order(
        &self,
        order: Option<&[NodeId]>,
        inputs: &[bool],
        state: &mut State,
    ) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.inputs.len() {
            return Err(NetlistError::InputArity {
                expected: self.inputs.len(),
                got: inputs.len(),
            });
        }
        let vals = match order {
            Some(order) => self.eval_all(order, inputs, state),
            None => self.eval_all(&self.topo_order()?, inputs, state),
        };
        for (slot, id) in self.dffs.iter().enumerate() {
            if let Gate::Dff { d, .. } = self.gate(*id) {
                state.bits[slot] = vals[d.index()];
            }
        }
        Ok(self
            .outputs
            .iter()
            .map(|(_, id)| vals[id.index()])
            .collect())
    }

    /// Purely combinational evaluation (asserts there are no DFFs).
    pub fn eval_comb(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        assert!(self.dffs.is_empty(), "eval_comb on sequential netlist");
        self.step(inputs, &mut self.initial_state())
    }

    /// Logic depth (longest combinational path, in gates).
    pub fn depth(&self) -> usize {
        let order = self.topo_order().expect("valid netlist");
        let mut depth = vec![0usize; self.gates.len()];
        let mut max = 0;
        for id in order {
            let g = self.gate(id);
            if g.is_dff() || matches!(g, Gate::Input(_) | Gate::Const(_)) {
                continue;
            }
            let d = g
                .fanins()
                .iter()
                .map(|f| depth[f.index()])
                .max()
                .unwrap_or(0)
                + 1;
            depth[id.index()] = d;
            max = max.max(d);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut n = Netlist::new("fa");
        let a = n.input("a");
        let b = n.input("b");
        let cin = n.input("cin");
        let axb = n.xor(a, b);
        let sum = n.xor(axb, cin);
        let ab = n.and(a, b);
        let c_axb = n.and(axb, cin);
        let cout = n.or(ab, c_axb);
        n.output("sum", sum);
        n.output("cout", cout);
        n
    }

    #[test]
    fn full_adder_truth_table() {
        let n = full_adder();
        n.validate().unwrap();
        for bits in 0..8u32 {
            let a = bits & 1 == 1;
            let b = bits & 2 == 2;
            let c = bits & 4 == 4;
            let out = n.eval_comb(&[a, b, c]).unwrap();
            let total = u8::from(a) + u8::from(b) + u8::from(c);
            assert_eq!(out[0], total & 1 == 1, "sum for {bits:03b}");
            assert_eq!(out[1], total >= 2, "cout for {bits:03b}");
        }
    }

    #[test]
    fn sequential_counter_steps() {
        // 2-bit counter from DFF feedback.
        let mut n = Netlist::new("cnt2");
        let q0 = n.dff_feedback(false);
        let q1 = n.dff_feedback(false);
        let nq0 = n.not(q0);
        let t1 = n.xor(q1, q0);
        n.connect_dff(q0, nq0);
        n.connect_dff(q1, t1);
        n.output("q0", q0);
        n.output("q1", q1);
        n.validate().unwrap();

        let mut st = n.initial_state();
        let mut seen = Vec::new();
        for _ in 0..5 {
            let out = n.step(&[], &mut st).unwrap();
            seen.push((u8::from(out[1]) << 1) | u8::from(out[0]));
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn detects_combinational_cycle() {
        let mut n = Netlist::new("loop");
        let a = n.input("a");
        // Build a cycle by forward-referencing: and(a, the-or) where the or
        // references the and. We must construct ids manually.
        let and_id = n.and(a, NodeId(2)); // references the next gate
        let _or_id = n.or(and_id, a);
        n.output("o", and_id);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn detects_dangling_and_unconnected() {
        let mut n = Netlist::new("bad");
        let a = n.input("a");
        let g = n.and(a, NodeId(900));
        n.output("o", g);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DanglingRef { .. })
        ));

        let mut n = Netlist::new("bad2");
        let ff = n.dff_feedback(false);
        n.output("o", ff);
        assert!(matches!(n.validate(), Err(NetlistError::UnconnectedDff(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = Netlist::new("dup");
        let a = n.input("a");
        n.output("o", a);
        n.output("o", a);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DuplicateOutput(_))
        ));

        let mut n = Netlist::new("dup_in");
        let a = n.input("a");
        let _b = n.input("a");
        n.output("o", a);
        assert!(matches!(n.validate(), Err(NetlistError::DuplicateInput(_))));
    }

    #[test]
    fn mux_selects_correctly() {
        let mut n = Netlist::new("mux");
        let s = n.input("s");
        let a = n.input("a");
        let b = n.input("b");
        let m = n.mux(s, a, b);
        n.output("o", m);
        assert_eq!(n.eval_comb(&[false, true, false]).unwrap(), vec![true]);
        assert_eq!(n.eval_comb(&[true, true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn depth_of_chain() {
        let mut n = Netlist::new("chain");
        let a = n.input("a");
        let mut cur = a;
        for _ in 0..5 {
            cur = n.not(cur);
        }
        n.output("o", cur);
        assert_eq!(n.depth(), 5);
    }

    #[test]
    fn input_arity_checked() {
        let n = full_adder();
        assert!(matches!(
            n.eval_comb(&[true]),
            Err(NetlistError::InputArity {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn all_gate_ops_evaluate() {
        let mut n = Netlist::new("ops");
        let a = n.input("a");
        let b = n.input("b");
        let c0 = n.constant(false);
        let c1 = n.constant(true);
        let nand = n.nand(a, b);
        let nor = n.nor(a, b);
        let xnor = n.xnor(a, b);
        let o = n.or(c0, c1);
        n.output("nand", nand);
        n.output("nor", nor);
        n.output("xnor", xnor);
        n.output("consts", o);
        for (a_v, b_v) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = n.eval_comb(&[a_v, b_v]).unwrap();
            assert_eq!(out[0], !(a_v && b_v));
            assert_eq!(out[1], !(a_v || b_v));
            assert_eq!(out[2], !(a_v ^ b_v));
            assert!(out[3]);
        }
    }
}
