//! The compiled, bit-parallel simulation kernel: 64·W stimulus vectors per
//! chunk of W machine words through the fabric model.
//!
//! The scalar path ([`crate::MultiDevice::step`]) interprets the mapped
//! netlist one bit at a time, resolving every LUT's
//! plane through the size-controller decoders on every cycle. Everything the
//! reproduction claims about functional correctness and fault coverage
//! multiplies thousands of cycles by that cost, so simulation throughput is
//! the binding constraint on how hard the architecture can be stressed.
//!
//! A [`CompiledKernel`] removes the interpretation entirely: per context,
//! the mapped netlist and the logic blocks' plane selection are lowered
//! *once* into a flat, levelized instruction stream (the emission order of
//! the mapped LUTs is already topological), with each instruction's truth
//! table folded into a packed `u64` mask read straight out of the MCMG-LUT
//! memory. Evaluation is generic over a chunk width `W`: every signal is a
//! `[u64; W]` chunk carrying **64·W independent stimulus vectors** — one bit
//! per lane — and every instruction is a handful of fixed-size array ops the
//! autovectorizer lifts to AVX2/AVX-512/NEON. The classic 64-lane path is
//! exactly the `W = 1` instantiation ([`CompiledKernel::step`] forwards to
//! [`CompiledKernel::step_wide`]), so chunk layouts, probe sampling, and the
//! toggle census are preserved bit-for-bit.
//!
//! Instructions default to a constant-seeded mux-tree reduction over the
//! packed table (`2^k - 1` chunk-ops per k-input LUT). The optional kernel
//! optimizer ([`crate::optimize`], enabled via [`crate::KernelOptions`])
//! rewrites instructions into specialized opcodes (`Op`) — direct
//! AND/OR/XOR/NOT/BUF/MUX forms costing 1–4 chunk-ops — after constant
//! folding, dead-code and duplicate elimination. Optimization never changes
//! any lane of any output or register; it only changes the instruction
//! stream, which is why observability consumers that address LUT positions
//! (probes, activity census, fault campaigns) always run on the unoptimized
//! stream.
//!
//! Lane semantics: lane `l` of every input, register, and output chunk is
//! one complete, independent stimulus stream (chunk word `l / 64`, bit
//! `l % 64`). Lane 0 is bit-for-bit identical to the scalar path given the
//! same stimulus; registers are carried per lane so sequential circuits
//! batch correctly. Context switches apply at chunk boundaries (all lanes
//! switch together), matching the equivalence checker's batched driver.
//!
//! Kernels are *configuration snapshots*: they must be rebuilt whenever LUT
//! memory mutates (fault injection via `flip_lut_bit`, reprogramming). The
//! devices cache kernels per context against a configuration epoch; the
//! fault campaign instead clones a healthy kernel and flips the folded table
//! bit directly (`CompiledKernel::flip_table_bit`), which is equivalent
//! and keeps the campaign embarrassingly parallel.

use mcfpga_map::MappedSource;

/// Stimulus vectors carried per machine word — one per bit lane. A width-`W`
/// chunk carries `LANES * W` vectors.
pub const LANES: usize = 64;

/// Chunk widths the runtime dispatcher instantiates. Powers of two up to a
/// 512-bit chunk (8 × u64 — one AVX-512 register).
pub const SUPPORTED_WIDTHS: &[usize] = &[1, 2, 4, 8];

/// A compact operand reference, resolved against the chunk-level state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Operand {
    /// Primary-input chunk `i`.
    Input(u32),
    /// Register chunk `r` (previous cycle's committed value).
    Register(u32),
    /// Result chunk of instruction `l` (strictly earlier in the stream).
    Lut(u32),
    /// Constant broadcast to every lane.
    Const(bool),
}

impl Operand {
    fn from_source(s: MappedSource) -> Operand {
        match s {
            MappedSource::Input(i) => Operand::Input(i as u32),
            MappedSource::Register(r) => Operand::Register(r as u32),
            MappedSource::Lut(l) => Operand::Lut(l as u32),
            MappedSource::Const(c) => Operand::Const(c),
        }
    }
}

/// How an instruction is evaluated. Lowering always emits [`Op::Table`] (the
/// generic mux-tree over the packed truth table); the optimizer pass rewrites
/// shapes it recognizes into the direct forms. The packed `table` stays
/// semantically valid alongside every specialized opcode — structural
/// hashing, fault flips, and idempotent re-optimization all key off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    /// Generic mux-tree reduction over the packed table: `2^k - 1` chunk-ops.
    Table,
    /// Zero-operand constant: broadcast table bit 0.
    Const,
    /// `w = x0` (table `0b10`).
    Buf,
    /// `w = !x0` (table `0b01`).
    Not,
    /// Arbitrary 2-input function, 4-bit table over `(x0, x1)`: 1–2 chunk-ops
    /// for every non-degenerate shape.
    Logic2(u8),
    /// `w = sel ? b : a` with `ops = [a, b, sel]`.
    MuxSel2,
    /// 3-input majority.
    Maj3,
    /// AND of all operands, optionally inverted (AND/NAND chains of any k).
    AndAll { invert: bool },
    /// OR of all operands, optionally inverted (OR/NOR chains of any k).
    OrAll { invert: bool },
    /// XOR of all operands, optionally inverted (parity chains of any k).
    XorAll { invert: bool },
}

/// One levelized LUT instruction: up to 6 operands (the fabric's widest
/// mode) and the truth table folded into a `u64` mask, bit `a` = output for
/// address assignment `a` (operand 0 is the least-significant address bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KernelInstr {
    pub(crate) ops: [Operand; 6],
    pub(crate) n_ops: u8,
    pub(crate) table: u64,
    pub(crate) op: Op,
}

impl KernelInstr {
    /// Chunk-ops this instruction costs per evaluated chunk — the optimizer's
    /// objective function and the bench's reported reduction metric.
    pub(crate) fn word_ops(&self) -> usize {
        let k = self.n_ops as usize;
        match self.op {
            Op::Table => {
                if k == 0 {
                    1
                } else {
                    (1 << k) - 1
                }
            }
            Op::Const | Op::Buf => 0,
            Op::Not => 1,
            Op::Logic2(t) => match t & 0xF {
                0b1000 | 0b1110 | 0b0110 => 1,
                _ => 2,
            },
            Op::MuxSel2 | Op::Maj3 => 4,
            Op::AndAll { invert } | Op::OrAll { invert } | Op::XorAll { invert } => {
                k - 1 + invert as usize
            }
        }
    }
}

/// Reusable evaluation scratch: one chunk per instruction plus the
/// next-register staging area. Creating one is cheap; reusing one across
/// cycles makes stepping allocation-free. The chunk layout is flat:
/// instruction `l`'s result occupies `lut_words[l*W .. (l+1)*W]`, so at
/// `W = 1` the layout is exactly one word per LUT, which is what the toggle
/// census and probe consumers index.
#[derive(Debug, Default, Clone)]
pub struct KernelScratch {
    /// Current-cycle result chunks, instruction-major (exposed
    /// crate-internally for toggle accounting and probe sampling).
    pub(crate) lut_words: Vec<u64>,
    /// Next register values, staged so sources still read the old state.
    next_regs: Vec<u64>,
}

impl KernelScratch {
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }
}

/// A context's netlist + configuration lowered to a flat instruction stream.
///
/// `PartialEq` compares the full lowered form (instruction stream, output
/// and register taps) — two equal kernels are bit-for-bit interchangeable,
/// which is how the serving layer proves cache hits return the cold-compile
/// artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel {
    pub(crate) n_inputs: usize,
    pub(crate) n_regs: usize,
    pub(crate) instrs: Vec<KernelInstr>,
    pub(crate) outputs: Vec<Operand>,
    pub(crate) dffs: Vec<Operand>,
    /// True once the optimizer pass has rewritten the stream. Optimized
    /// kernels compute identical lanes but their instruction positions no
    /// longer address mapped LUT positions — probes, census, and fault
    /// campaigns must use unoptimized kernels.
    pub(crate) optimized: bool,
}

impl CompiledKernel {
    /// Lower a context: `luts` yields, in topological (emission) order, each
    /// LUT position's input sources and its packed truth table as currently
    /// held by the hardware model (so injected faults fold in naturally).
    pub fn build<'a>(
        n_inputs: usize,
        n_regs: usize,
        luts: impl Iterator<Item = (&'a [MappedSource], u64)>,
        outputs: impl Iterator<Item = MappedSource>,
        dffs: impl Iterator<Item = MappedSource>,
    ) -> CompiledKernel {
        let instrs = luts
            .map(|(srcs, table)| {
                assert!(srcs.len() <= 6, "LUT wider than the 6-input fabric mode");
                let mut ops = [Operand::Const(false); 6];
                for (slot, &s) in ops.iter_mut().zip(srcs) {
                    *slot = Operand::from_source(s);
                }
                KernelInstr {
                    ops,
                    n_ops: srcs.len() as u8,
                    table,
                    op: Op::Table,
                }
            })
            .collect();
        CompiledKernel {
            n_inputs,
            n_regs,
            instrs,
            outputs: outputs.map(Operand::from_source).collect(),
            dffs: dffs.map(Operand::from_source).collect(),
            optimized: false,
        }
    }

    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    pub fn n_instrs(&self) -> usize {
        self.instrs.len()
    }

    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the optimizer pass has run on this kernel (see
    /// [`crate::KernelOptions`]).
    pub fn optimized(&self) -> bool {
        self.optimized
    }

    /// Total chunk-ops one step costs across the stream — the metric the
    /// optimizer shrinks and the bench reports before/after.
    pub fn word_ops(&self) -> usize {
        self.instrs.iter().map(|i| i.word_ops()).sum()
    }

    /// Flip one folded truth-table bit — the kernel-level image of
    /// `flip_lut_bit` on the position's active plane. Flips at assignments
    /// above the instruction's own address space (`2^n_ops`) are dormant,
    /// exactly as they are on the scalar path. The instruction falls back to
    /// the generic table evaluator: a specialized opcode no longer matches
    /// the mutated table. (In practice faults are only ever injected into
    /// unoptimized kernels, where every opcode is already `Table`.)
    pub(crate) fn flip_table_bit(&mut self, position: usize, assignment: usize) {
        self.instrs[position].table ^= 1u64 << assignment;
        self.instrs[position].op = Op::Table;
    }

    /// One clock edge over 64 lanes: the `W = 1` instantiation of
    /// [`CompiledKernel::step_wide`], kept as the canonical narrow path.
    pub fn step(
        &self,
        inputs: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
        out: &mut Vec<u64>,
    ) {
        self.step_wide::<1>(inputs, regs, scratch, out);
    }

    /// One clock edge over `64 * W` lanes: evaluate every instruction,
    /// derive the output chunks, and commit the next register chunks.
    ///
    /// All buffers are chunk-flattened and signal-major: `inputs` holds
    /// `n_inputs * W` words (`inputs[i*W + w]` = word `w` of input `i`),
    /// `regs` holds `n_regs * W` words, and `out` is cleared and refilled
    /// with `n_outputs * W` words. No allocation happens after the scratch's
    /// first use.
    pub fn step_wide<const W: usize>(
        &self,
        inputs: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
        out: &mut Vec<u64>,
    ) {
        debug_assert_eq!(inputs.len(), self.n_inputs * W, "input word count");
        debug_assert_eq!(regs.len(), self.n_regs * W, "register word count");
        scratch.lut_words.resize(self.instrs.len() * W, 0);
        let mut mux = [[0u64; W]; 32];
        for i in 0..self.instrs.len() {
            let c =
                eval_instr_wide::<W>(&self.instrs[i], inputs, regs, &scratch.lut_words, &mut mux);
            scratch.lut_words[i * W..(i + 1) * W].copy_from_slice(&c);
        }
        out.clear();
        for &o in &self.outputs {
            out.extend_from_slice(&load::<W>(o, inputs, regs, &scratch.lut_words));
        }
        // Stage next-state chunks first: a DFF source may read another
        // register's *old* value.
        scratch.next_regs.clear();
        for &d in &self.dffs {
            scratch
                .next_regs
                .extend_from_slice(&load::<W>(d, inputs, regs, &scratch.lut_words));
        }
        regs.copy_from_slice(&scratch.next_regs);
    }

    /// Per-instruction mask of the registers' transitive fanin cone — the
    /// instructions [`CompiledKernel::step_state_cone_wide`] must evaluate
    /// to advance register state without producing outputs. The stream is
    /// topological, so one reverse sweep closes the cone.
    pub(crate) fn state_cone(&self) -> Vec<bool> {
        let mut needed = vec![false; self.instrs.len()];
        for &d in &self.dffs {
            if let Operand::Lut(l) = d {
                needed[l as usize] = true;
            }
        }
        for i in (0..self.instrs.len()).rev() {
            if needed[i] {
                let instr = &self.instrs[i];
                for &op in &instr.ops[..instr.n_ops as usize] {
                    if let Operand::Lut(l) = op {
                        needed[l as usize] = true;
                    }
                }
            }
        }
        needed
    }

    /// Advance only the register state by one edge, evaluating just the
    /// instructions in `cone` (from [`CompiledKernel::state_cone`]). Used as
    /// the sequential prologue that seeds word-block-parallel throughput
    /// runs: the cone is closed under operand references, so skipped
    /// instructions are never read.
    pub(crate) fn step_state_cone_wide<const W: usize>(
        &self,
        cone: &[bool],
        inputs: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
    ) {
        debug_assert_eq!(cone.len(), self.instrs.len());
        scratch.lut_words.resize(self.instrs.len() * W, 0);
        let mut mux = [[0u64; W]; 32];
        for (i, &live) in cone.iter().enumerate() {
            if !live {
                continue;
            }
            let c =
                eval_instr_wide::<W>(&self.instrs[i], inputs, regs, &scratch.lut_words, &mut mux);
            scratch.lut_words[i * W..(i + 1) * W].copy_from_slice(&c);
        }
        scratch.next_regs.clear();
        for &d in &self.dffs {
            scratch
                .next_regs
                .extend_from_slice(&load::<W>(d, inputs, regs, &scratch.lut_words));
        }
        regs.copy_from_slice(&scratch.next_regs);
    }
}

/// Load one operand's `W`-word chunk. The fixed-size copy compiles to one
/// vector load at every supported width.
#[inline]
fn load<const W: usize>(op: Operand, inputs: &[u64], regs: &[u64], lut_words: &[u64]) -> [u64; W] {
    let mut c = [0u64; W];
    match op {
        Operand::Input(i) => c.copy_from_slice(&inputs[i as usize * W..][..W]),
        Operand::Register(r) => c.copy_from_slice(&regs[r as usize * W..][..W]),
        Operand::Lut(l) => c.copy_from_slice(&lut_words[l as usize * W..][..W]),
        Operand::Const(true) => c = [!0u64; W],
        Operand::Const(false) => {}
    }
    c
}

#[inline]
fn map1<const W: usize>(a: [u64; W], f: impl Fn(u64) -> u64) -> [u64; W] {
    let mut o = [0u64; W];
    for (ow, &aw) in o.iter_mut().zip(&a) {
        *ow = f(aw);
    }
    o
}

#[inline]
fn zip2<const W: usize>(a: [u64; W], b: [u64; W], f: impl Fn(u64, u64) -> u64) -> [u64; W] {
    let mut o = [0u64; W];
    for (i, ow) in o.iter_mut().enumerate() {
        *ow = f(a[i], b[i]);
    }
    o
}

#[inline]
fn zip3<const W: usize>(
    a: [u64; W],
    b: [u64; W],
    c: [u64; W],
    f: impl Fn(u64, u64, u64) -> u64,
) -> [u64; W] {
    let mut o = [0u64; W];
    for (i, ow) in o.iter_mut().enumerate() {
        *ow = f(a[i], b[i], c[i]);
    }
    o
}

/// Evaluate one instruction across all `64 * W` lanes.
#[inline]
fn eval_instr_wide<const W: usize>(
    instr: &KernelInstr,
    inputs: &[u64],
    regs: &[u64],
    lut_words: &[u64],
    mux: &mut [[u64; W]; 32],
) -> [u64; W] {
    let ld = |op: Operand| load::<W>(op, inputs, regs, lut_words);
    match instr.op {
        Op::Table => eval_table_wide::<W>(instr, inputs, regs, lut_words, mux),
        Op::Const => {
            if instr.table & 1 == 1 {
                [!0u64; W]
            } else {
                [0u64; W]
            }
        }
        Op::Buf => ld(instr.ops[0]),
        Op::Not => map1(ld(instr.ops[0]), |a| !a),
        Op::Logic2(t) => eval_logic2::<W>(t, ld(instr.ops[0]), ld(instr.ops[1])),
        Op::MuxSel2 => zip3(
            ld(instr.ops[0]),
            ld(instr.ops[1]),
            ld(instr.ops[2]),
            |a, b, s| (a & !s) | (b & s),
        ),
        Op::Maj3 => zip3(
            ld(instr.ops[0]),
            ld(instr.ops[1]),
            ld(instr.ops[2]),
            |a, b, c| (a & b) | ((a | b) & c),
        ),
        Op::AndAll { invert } => fold_all::<W>(instr, invert, &ld, |a, b| a & b),
        Op::OrAll { invert } => fold_all::<W>(instr, invert, &ld, |a, b| a | b),
        Op::XorAll { invert } => fold_all::<W>(instr, invert, &ld, |a, b| a ^ b),
    }
}

#[inline]
fn fold_all<const W: usize>(
    instr: &KernelInstr,
    invert: bool,
    ld: &impl Fn(Operand) -> [u64; W],
    f: impl Fn(u64, u64) -> u64,
) -> [u64; W] {
    let mut acc = ld(instr.ops[0]);
    for &op in &instr.ops[1..instr.n_ops as usize] {
        let x = ld(op);
        for (aw, &xw) in acc.iter_mut().zip(&x) {
            *aw = f(*aw, xw);
        }
    }
    if invert {
        for aw in &mut acc {
            *aw = !*aw;
        }
    }
    acc
}

/// Direct 2-input evaluation: one chunk-op for AND/OR/XOR, two for the
/// inverted and asymmetric shapes, with a sum-of-minterms fallback keeping
/// the opcode total for degenerate tables (which the optimizer never emits).
#[inline]
fn eval_logic2<const W: usize>(t: u8, a: [u64; W], b: [u64; W]) -> [u64; W] {
    match t & 0xF {
        0b1000 => zip2(a, b, |a, b| a & b),
        0b1110 => zip2(a, b, |a, b| a | b),
        0b0110 => zip2(a, b, |a, b| a ^ b),
        0b0111 => zip2(a, b, |a, b| !(a & b)),
        0b0001 => zip2(a, b, |a, b| !(a | b)),
        0b1001 => zip2(a, b, |a, b| !(a ^ b)),
        0b0010 => zip2(a, b, |a, b| a & !b),
        0b0100 => zip2(a, b, |a, b| !a & b),
        0b1011 => zip2(a, b, |a, b| a | !b),
        0b1101 => zip2(a, b, |a, b| !a | b),
        t => zip2(a, b, move |a, b| {
            let mut w = 0u64;
            if t & 1 != 0 {
                w |= !a & !b;
            }
            if t & 2 != 0 {
                w |= a & !b;
            }
            if t & 4 != 0 {
                w |= !a & b;
            }
            if t & 8 != 0 {
                w |= a & b;
            }
            w
        }),
    }
}

/// Generic table evaluation: seed `2^(k-1)` chunks from the constant table
/// paired with operand 0, then fold the remaining k-1 operands mux-style.
/// Total cost `2^k - 1` chunk-muxes — about one bit-op per lane per LUT.
#[inline]
fn eval_table_wide<const W: usize>(
    instr: &KernelInstr,
    inputs: &[u64],
    regs: &[u64],
    lut_words: &[u64],
    mux: &mut [[u64; W]; 32],
) -> [u64; W] {
    let k = instr.n_ops as usize;
    if k == 0 {
        return if instr.table & 1 == 1 {
            [!0u64; W]
        } else {
            [0u64; W]
        };
    }
    let x0 = load::<W>(instr.ops[0], inputs, regs, lut_words);
    let half = 1usize << (k - 1);
    for (a, slot) in mux.iter_mut().enumerate().take(half) {
        // Table bits (2a, 2a+1) are the outputs for x0 = 0 / 1 under the
        // remaining address bits `a`; with constant table bits the first mux
        // level collapses to one of four chunks.
        match (instr.table >> (2 * a)) & 3 {
            0 => *slot = [0u64; W],
            1 => {
                for (sw, &xw) in slot.iter_mut().zip(&x0) {
                    *sw = !xw;
                }
            }
            2 => *slot = x0,
            _ => *slot = [!0u64; W],
        }
    }
    let mut width = half;
    for &opj in &instr.ops[1..k] {
        let xj = load::<W>(opj, inputs, regs, lut_words);
        width >>= 1;
        for a in 0..width {
            let (lo, hi) = (mux[2 * a], mux[2 * a + 1]);
            for (w, slot) in mux[a].iter_mut().enumerate() {
                *slot = (lo[w] & !xj[w]) | (hi[w] & xj[w]);
            }
        }
    }
    mux[0]
}

/// Broadcast a bool slice into `W`-word chunks (every lane of every word of
/// each signal's chunk equal).
pub(crate) fn broadcast_wide(bits: &[bool], words: &mut Vec<u64>, w: usize) {
    words.clear();
    for &b in bits {
        let word = if b { !0u64 } else { 0 };
        words.extend(std::iter::repeat_n(word, w));
    }
}

/// Extract lane `lane` of 1-word-per-signal `words` into a bool buffer.
pub(crate) fn extract_lane(words: &[u64], lane: usize, bits: &mut [bool]) {
    extract_lane_wide(words, 1, lane, bits);
}

/// Extract lane `lane` (of `64 * w`) from `w`-word chunks into a bool buffer.
pub(crate) fn extract_lane_wide(words: &[u64], w: usize, lane: usize, bits: &mut [bool]) {
    debug_assert_eq!(words.len(), bits.len() * w);
    debug_assert!(lane < LANES * w);
    let (word, bit) = (lane / LANES, lane % LANES);
    for (i, b) in bits.iter_mut().enumerate() {
        *b = (words[i * w + word] >> bit) & 1 == 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_instr(n_ops: u8, table: u64) -> KernelInstr {
        let mut ops = [Operand::Const(false); 6];
        for (i, op) in ops.iter_mut().enumerate().take(n_ops as usize) {
            *op = Operand::Input(i as u32);
        }
        KernelInstr {
            ops,
            n_ops,
            table,
            op: Op::Table,
        }
    }

    #[test]
    fn mux_tree_matches_direct_table_lookup() {
        // Every 3-input table, every address, on a lane-striped stimulus.
        for table in 0..256u64 {
            let instr = table_instr(3, table);
            // Lane l drives address l % 8.
            let mut inputs = [0u64; 3];
            for lane in 0..LANES {
                let a = lane % 8;
                for (i, w) in inputs.iter_mut().enumerate() {
                    *w |= (((a >> i) & 1) as u64) << lane;
                }
            }
            let mut mux = [[0u64; 1]; 32];
            let w = eval_instr_wide::<1>(&instr, &inputs, &[], &[], &mut mux)[0];
            for lane in 0..LANES {
                let a = lane % 8;
                assert_eq!(
                    (w >> lane) & 1 == 1,
                    (table >> a) & 1 == 1,
                    "table {table:#x} address {a}"
                );
            }
        }
    }

    #[test]
    fn zero_input_instruction_broadcasts_its_constant() {
        for (table, want) in [(0u64, 0u64), (1, !0)] {
            let instr = table_instr(0, table);
            let mut mux = [[0u64; 1]; 32];
            assert_eq!(
                eval_instr_wide::<1>(&instr, &[], &[], &[], &mut mux),
                [want]
            );
        }
    }

    #[test]
    fn wide_step_matches_word_by_word_narrow_steps() {
        // A small sequential kernel: r' = lut0 = in0 XOR r; out = lut1 = !lut0.
        let kernel = CompiledKernel::build(
            1,
            1,
            [
                (
                    &[MappedSource::Input(0), MappedSource::Register(0)][..],
                    0b0110u64,
                ),
                (&[MappedSource::Lut(0)][..], 0b01u64),
            ]
            .into_iter(),
            std::iter::once(MappedSource::Lut(1)),
            std::iter::once(MappedSource::Lut(0)),
        );
        const W: usize = 4;
        let stim: [u64; W] = [
            0xDEAD_BEEF_0123_4567,
            0x0F0F_1234_ABCD_8765,
            !0,
            0x8000_0000_0000_0001,
        ];
        // Wide: one step over all four words.
        let mut wide_regs = vec![0u64; W];
        let mut wide_scratch = KernelScratch::new();
        let mut wide_out = Vec::new();
        kernel.step_wide::<W>(&stim, &mut wide_regs, &mut wide_scratch, &mut wide_out);
        // Narrow: four independent 64-lane steps (lanes are independent
        // streams, so word w of the wide run is its own narrow run).
        for (w, &word) in stim.iter().enumerate() {
            let mut regs = vec![0u64];
            let mut scratch = KernelScratch::new();
            let mut out = Vec::new();
            kernel.step(&[word], &mut regs, &mut scratch, &mut out);
            assert_eq!(wide_out[w], out[0], "output word {w}");
            assert_eq!(wide_regs[w], regs[0], "register word {w}");
        }
    }

    #[test]
    fn specialized_opcodes_match_their_tables() {
        // For each specialized opcode/table pair, the direct evaluator must
        // agree with the generic mux-tree on dense random-ish stimulus.
        let x = [
            0xDEAD_BEEF_CAFE_F00Du64,
            0x0123_4567_89AB_CDEF,
            0xF0F0_F0F0_0F0F_0F0F,
        ];
        let cases: Vec<(Op, u8, u64)> = vec![
            (Op::Buf, 1, 0b10),
            (Op::Not, 1, 0b01),
            (Op::MuxSel2, 3, 0b1100_1010), // sel ? b : a
            (Op::Maj3, 3, 0b1110_1000),
            (Op::AndAll { invert: false }, 3, 0x80),
            (Op::AndAll { invert: true }, 3, 0x7F),
            (Op::OrAll { invert: false }, 3, 0xFE),
            (Op::OrAll { invert: true }, 3, 0x01),
            (Op::XorAll { invert: false }, 3, 0b1001_0110),
            (Op::XorAll { invert: true }, 3, 0b0110_1001),
        ];
        for (op, n_ops, table) in cases {
            let mut instr = table_instr(n_ops, table);
            let mut mux = [[0u64; 1]; 32];
            let want = eval_instr_wide::<1>(&instr, &x, &[], &[], &mut mux);
            instr.op = op;
            let got = eval_instr_wide::<1>(&instr, &x, &[], &[], &mut mux);
            assert_eq!(got, want, "{op:?} table {table:#x}");
        }
        // Every 2-input table through Logic2.
        for table in 0..16u64 {
            let mut instr = table_instr(2, table);
            let mut mux = [[0u64; 1]; 32];
            let want = eval_instr_wide::<1>(&instr, &x, &[], &[], &mut mux);
            instr.op = Op::Logic2(table as u8);
            let got = eval_instr_wide::<1>(&instr, &x, &[], &[], &mut mux);
            assert_eq!(got, want, "Logic2 table {table:#x}");
        }
    }

    #[test]
    fn registers_commit_after_sources_are_read() {
        // Two registers swapping each cycle: r0' = r1, r1' = r0. If commit
        // were interleaved, both would collapse to one value.
        let kernel = CompiledKernel::build(
            0,
            2,
            std::iter::empty(),
            std::iter::empty(),
            [MappedSource::Register(1), MappedSource::Register(0)].into_iter(),
        );
        let mut regs = vec![0xAAAA_AAAA_AAAA_AAAAu64, 0x5555_5555_5555_5555];
        let mut scratch = KernelScratch::new();
        let mut out = Vec::new();
        kernel.step(&[], &mut regs, &mut scratch, &mut out);
        assert_eq!(regs[0], 0x5555_5555_5555_5555);
        assert_eq!(regs[1], 0xAAAA_AAAA_AAAA_AAAA);
    }

    #[test]
    fn state_cone_prologue_advances_registers_like_a_full_step() {
        // out-cone LUT 1 is not needed to advance the register; the cone
        // step must still commit the same next state as a full step.
        let kernel = CompiledKernel::build(
            1,
            1,
            [
                (
                    &[MappedSource::Input(0), MappedSource::Register(0)][..],
                    0b0110u64,
                ),
                (&[MappedSource::Lut(0)][..], 0b01u64),
            ]
            .into_iter(),
            std::iter::once(MappedSource::Lut(1)),
            std::iter::once(MappedSource::Lut(0)),
        );
        let cone = kernel.state_cone();
        assert_eq!(cone, vec![true, false]);
        let stim = [0x1234_5678_9ABC_DEF0u64];
        let mut full_regs = vec![0xAAAAu64];
        let mut cone_regs = full_regs.clone();
        let mut s1 = KernelScratch::new();
        let mut s2 = KernelScratch::new();
        let mut out = Vec::new();
        kernel.step(&stim, &mut full_regs, &mut s1, &mut out);
        kernel.step_state_cone_wide::<1>(&cone, &stim, &mut cone_regs, &mut s2);
        assert_eq!(cone_regs, full_regs);
    }

    #[test]
    fn fault_flip_changes_only_the_addressed_assignment() {
        let mut kernel = CompiledKernel::build(
            2,
            0,
            std::iter::once((
                &[MappedSource::Input(0), MappedSource::Input(1)][..],
                0b0110u64, // XOR
            )),
            std::iter::once(MappedSource::Lut(0)),
            std::iter::empty(),
        );
        kernel.flip_table_bit(0, 3);
        let mut scratch = KernelScratch::new();
        let mut out = Vec::new();
        // Lane a drives address a.
        let inputs = [0b0010u64 | (0b1000), 0b1100u64];
        kernel.step(&inputs, &mut [], &mut scratch, &mut out);
        // XOR with bit 3 flipped: 0, 1, 1, 1 over addresses 0..4.
        for (lane, want) in [(0usize, false), (1, true), (2, true), (3, true)] {
            assert_eq!((out[0] >> lane) & 1 == 1, want, "lane {lane}");
        }
    }

    #[test]
    fn lane_helpers_round_trip_at_width() {
        let bits = [true, false, true, true];
        for w in [1usize, 2, 4] {
            let mut words = Vec::new();
            broadcast_wide(&bits, &mut words, w);
            assert_eq!(words.len(), bits.len() * w);
            for lane in [0usize, 1, 63, 64 * w - 1] {
                let mut got = [false; 4];
                extract_lane_wide(&words, w, lane, &mut got);
                assert_eq!(got, bits, "width {w} lane {lane}");
            }
        }
    }
}
