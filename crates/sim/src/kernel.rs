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
//! Lowering also fixes where every operand lives. A step evaluates into one
//! value array of `W`-word slots (held by [`KernelScratch`]):
//!
//! | slots | hold |
//! |---|---|
//! | 0, 1 | constant 0, constant 1 |
//! | next `n_inputs` | the input chunks |
//! | next `n_regs` | the register chunks as they were before the edge |
//! | next `n_instrs` | one result chunk per live instruction, in stream order |
//! | then, observed steps only | one result chunk per dead-tail instruction |
//!
//! Every operand, output tap and register source is a `u32` slot, so reading
//! one is a fixed-size copy at word `slot * W` with no case analysis, and
//! registers commit straight from the array.
//!
//! Instructions default to a mux tree over the packed table, the software
//! form of the LUT's pass-gate tree. A k-input `Op::Table` dispatches on
//! its arity to a tree whose shape is fixed at compile time: `2^(k-1)` leaf
//! chunks, each selecting between two table bits by operand 0 with no
//! branch, then one halving level per further operand (`2^k - 1` chunk-ops
//! in all). The kernel optimizer ([`crate::optimize`]) rewrites
//! instructions into specialized opcodes — direct AND/OR/XOR/NOT/BUF/MUX
//! forms costing 1–4 chunk-ops — after constant folding, dead-code and
//! duplicate elimination. Optimization never changes any lane of any
//! output or register; it only changes the instruction stream, so a device
//! always runs its kernels optimized (fault campaigns lower their own).
//!
//! Observers still address mapped LUT positions, so a kernel keeps a
//! LUT → slot map: the slot holding each position's value after a step.
//! Lowering makes it the identity; the optimizer points a folded LUT at a
//! constant slot, a copied or merged one at its source's slot. Dead-code
//! elimination moves the LUTs no output or register reads to a tail after
//! the live stream. A step evaluates only the live stream; an observed step
//! then evaluates the tail too (`CompiledKernel::observe`), and probes and
//! the activity census read every LUT's value by slot.
//!
//! Lane semantics: lane `l` of every input, register, and output chunk is
//! one complete, independent stimulus stream (chunk word `l / 64`, bit
//! `l % 64`). Lane 0 is bit-for-bit identical to the scalar path given the
//! same stimulus; registers are carried per lane so sequential circuits
//! batch correctly. Context switches apply at chunk boundaries (all lanes
//! switch together), matching the equivalence checker's batched driver.
//!
//! A served sim job is one 64-lane stream stepped through many cycles, and
//! [`CompiledKernel::step_rows`] runs it in one call, in place: row `t` holds
//! cycle `t`'s input words on entry and its output words on return. The
//! registers are the only state one cycle passes to the next, so the job
//! goes in blocks of 8 cycles. The registers' fan-in cone alone is stepped
//! at `W = 1`, which yields each cycle's pre-edge registers; then the whole
//! stream runs once at `W = 8`, with cycle `t` of the block as chunk word
//! `t`. Eight cycles thus share one pass over the instruction stream, the
//! way the fabric time-multiplexes contexts onto one set of logic blocks.
//! Block-parallel throughput runs seed their blocks with the same cone
//! step.
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

/// Cycles [`CompiledKernel::step_rows`] evaluates in one wide pass: one per
/// word of the widest chunk.
const ROW_BLOCK: usize = 8;

/// A decoded operand: the optimizer's working form of a value-array slot.
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

/// The value-array layout of a kernel with `n_inputs` inputs and `n_regs`
/// registers (see the module docs): encodes [`Operand`]s as slots and
/// decodes them back.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotLayout {
    n_inputs: u32,
    n_regs: u32,
}

impl SlotLayout {
    fn new(n_inputs: usize, n_regs: usize) -> SlotLayout {
        SlotLayout {
            n_inputs: n_inputs as u32,
            n_regs: n_regs as u32,
        }
    }

    /// The first register slot.
    fn regs(self) -> u32 {
        2 + self.n_inputs
    }

    /// The first instruction-result slot.
    fn results(self) -> u32 {
        self.regs() + self.n_regs
    }

    pub(crate) fn slot(self, op: Operand) -> u32 {
        match op {
            Operand::Const(c) => c as u32,
            Operand::Input(i) => {
                assert!(i < self.n_inputs, "input {i} out of range");
                2 + i
            }
            Operand::Register(r) => {
                assert!(r < self.n_regs, "register {r} out of range");
                self.regs() + r
            }
            Operand::Lut(l) => self.results() + l,
        }
    }

    pub(crate) fn operand(self, slot: u32) -> Operand {
        match slot {
            0 | 1 => Operand::Const(slot == 1),
            s if s < self.regs() => Operand::Input(s - 2),
            s if s < self.results() => Operand::Register(s - self.regs()),
            s => Operand::Lut(s - self.results()),
        }
    }

    /// `instr` with its operands encoded as slots.
    pub(crate) fn encode(self, instr: &KernelInstr<Operand>) -> KernelInstr {
        KernelInstr {
            ops: instr.ops.map(|o| self.slot(o)),
            n_ops: instr.n_ops,
            table: instr.table,
            op: instr.op,
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
/// A kernel stores its operands as value-array slots (`O = u32`; unused
/// operands are slot 0); the optimizer works on decoded [`Operand`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KernelInstr<O = u32> {
    pub(crate) ops: [O; 6],
    pub(crate) n_ops: u8,
    pub(crate) table: u64,
    pub(crate) op: Op,
}

impl<O> KernelInstr<O> {
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

/// Reusable evaluation scratch: the value arrays a step evaluates into.
/// Creating one is cheap; reusing one across cycles makes stepping
/// allocation-free, and one scratch may serve any kernel at any width.
#[derive(Debug, Default, Clone)]
pub struct KernelScratch {
    /// `W` words per slot, laid out as the module docs describe.
    vals: Vec<u64>,
    /// The `W = 1` value array in which [`CompiledKernel::step_rows`]
    /// advances the registers' fan-in cone.
    cone: Vec<u64>,
}

impl KernelScratch {
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }

    /// The `w` words of `slot` in the last step's value array, stepped at
    /// width `w`.
    pub(crate) fn chunk(&self, slot: u32, w: usize) -> &[u64] {
        &self.vals[slot as usize * w..][..w]
    }
}

/// A context's netlist + configuration lowered to a flat instruction stream.
///
/// `PartialEq` compares the full lowered form (instruction stream and its
/// dead tail, output and register taps, LUT → slot map) — two equal kernels
/// are bit-for-bit interchangeable, which is how the serving layer proves
/// cache hits return the cold-compile artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel {
    pub(crate) n_inputs: usize,
    pub(crate) n_regs: usize,
    /// The live stream, then the dead tail that only observed steps
    /// evaluate.
    pub(crate) instrs: Vec<KernelInstr>,
    /// Length of the live stream: the instructions every step evaluates.
    pub(crate) n_live: usize,
    /// Output taps and register sources, as slots.
    pub(crate) outputs: Vec<u32>,
    pub(crate) dffs: Vec<u32>,
    /// Per mapped LUT position, the slot holding its value after an
    /// observed step.
    pub(crate) lut_slots: Vec<u32>,
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
        let slots = SlotLayout::new(n_inputs, n_regs);
        let slot = |s: MappedSource| slots.slot(Operand::from_source(s));
        let instrs: Vec<KernelInstr> = luts
            .map(|(srcs, table)| {
                assert!(srcs.len() <= 6, "LUT wider than the 6-input fabric mode");
                let mut ops = [0u32; 6];
                for (o, &s) in ops.iter_mut().zip(srcs) {
                    *o = slot(s);
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
            n_live: instrs.len(),
            lut_slots: (0..instrs.len() as u32)
                .map(|l| slots.slot(Operand::Lut(l)))
                .collect(),
            instrs,
            outputs: outputs.map(slot).collect(),
            dffs: dffs.map(slot).collect(),
        }
    }

    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// Instructions one step evaluates: the live stream, without the dead
    /// tail.
    pub fn n_instrs(&self) -> usize {
        self.n_live
    }

    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Total chunk-ops one step costs across the live stream — the metric
    /// the optimizer shrinks and the bench reports before/after.
    pub fn word_ops(&self) -> usize {
        self.live().iter().map(|i| i.word_ops()).sum()
    }

    fn live(&self) -> &[KernelInstr] {
        &self.instrs[..self.n_live]
    }

    pub(crate) fn slots(&self) -> SlotLayout {
        SlotLayout::new(self.n_inputs, self.n_regs)
    }

    /// The slot holding `src`'s value after an observed step: a LUT
    /// position's through the LUT → slot map, any other source's own.
    pub(crate) fn source_slot(&self, src: MappedSource) -> u32 {
        match src {
            MappedSource::Lut(l) => self.lut_slots[l],
            s => self.slots().slot(Operand::from_source(s)),
        }
    }

    /// Complete the value array of the step just run at width `W` for its
    /// observers: evaluate the dead tail into its slots, so every slot of
    /// the LUT → slot map holds its LUT's value. The input and register
    /// slots still hold the step's inputs and pre-edge registers.
    pub(crate) fn observe<const W: usize>(&self, scratch: &mut KernelScratch) {
        let results = self.slots().results() as usize;
        scratch.vals.resize((results + self.instrs.len()) * W, 0);
        let vals = scratch.vals.as_chunks_mut::<W>().0;
        for (i, instr) in self.instrs.iter().enumerate().skip(self.n_live) {
            vals[results + i] = eval(instr, vals);
        }
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
    ///
    /// # Panics
    ///
    /// As [`CompiledKernel::step_wide`].
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
    /// with `n_outputs * W` words. The step copies the constants, `inputs`
    /// and `regs` into the scratch's value array, evaluates each
    /// instruction into its result slot (a `Table` instruction through the
    /// mux tree of its arity), then copies the output taps to `out` and the
    /// register sources back to `regs`. No allocation happens after the
    /// scratch's first use at this kernel's size.
    ///
    /// # Panics
    ///
    /// If `inputs` does not hold `n_inputs * W` words or `regs` does not
    /// hold `n_regs * W` words.
    pub fn step_wide<const W: usize>(
        &self,
        inputs: &[u64],
        regs: &mut [u64],
        scratch: &mut KernelScratch,
        out: &mut Vec<u64>,
    ) {
        let vals = self.prime::<W>(&mut scratch.vals, inputs, regs);
        self.eval_stream(vals);
        out.clear();
        for &o in &self.outputs {
            out.extend_from_slice(&vals[o as usize]);
        }
        self.commit(vals, regs);
    }

    /// Step one 64-lane stream through `rows.len()` cycles, in place: row `t`
    /// holds cycle `t`'s `n_inputs` input words on entry and its
    /// `n_outputs` output words on return, and `regs` (`n_regs` words)
    /// carries the state in and out, exactly as one [`CompiledKernel::step`]
    /// per row would.
    ///
    /// The registers are the only state one cycle passes to the next, so
    /// the cycles of a block of 8 rows become the columns of one `W = 8`
    /// chunk. For each block the registers' fan-in cone alone is stepped
    /// at `W = 1`, and each cycle's pre-edge registers go into that cycle's
    /// column of the wide value array's register slots; the full stream
    /// then runs once at `W = 8`, and each column's outputs go back into
    /// its row. A last partial block pads its spare columns with zeros and
    /// discards them, and a register-free kernel skips the cone. Each row
    /// is rewritten in its own buffer, which grows only if it has room for
    /// fewer than `n_outputs` words; apart from that and the cone's index
    /// list, nothing is allocated once the scratch has served this kernel.
    ///
    /// # Panics
    ///
    /// If any row does not hold `n_inputs` words or `regs` does not hold
    /// `n_regs` words. Every row is checked before any is stepped.
    pub fn step_rows(&self, rows: &mut [Vec<u64>], regs: &mut [u64], scratch: &mut KernelScratch) {
        for row in rows.iter() {
            assert_eq!(row.len(), self.n_inputs, "input word count");
        }
        assert_eq!(regs.len(), self.n_regs, "register word count");
        let cone = self.state_cone();
        let regs_at = self.slots().regs() as usize;
        let vals = self.value_array::<ROW_BLOCK>(&mut scratch.vals);
        for block in rows.chunks_mut(ROW_BLOCK) {
            let n = block.len();
            // Column t of every input slot is row t; spare columns read 0.
            for (i, slot) in vals[2..regs_at].iter_mut().enumerate() {
                *slot = std::array::from_fn(|t| block.get(t).map_or(0, |row| row[i]));
            }
            for (slot, &r) in vals[regs_at..].iter_mut().zip(regs.iter()) {
                *slot = [0; ROW_BLOCK];
                slot[0] = r;
            }
            // Column 0 of the register slots is the block's entry state,
            // and each later column the one before advanced by the cone.
            if self.n_regs > 0 {
                for t in 1..n {
                    self.step_state::<1>(&cone, &block[t - 1], regs, &mut scratch.cone);
                    for (slot, &r) in vals[regs_at..].iter_mut().zip(regs.iter()) {
                        slot[t] = r;
                    }
                }
            }
            self.eval_stream(vals);
            for (t, row) in block.iter_mut().enumerate() {
                row.clear();
                row.extend(self.outputs.iter().map(|&o| vals[o as usize][t]));
            }
            for (r, &d) in regs.iter_mut().zip(&self.dffs) {
                *r = vals[d as usize][n - 1];
            }
        }
    }

    /// The registers' transitive fan-in cone: the indices, in stream order,
    /// of the instructions a register source reads directly or through
    /// other instructions. The stream is topological, so one reverse sweep
    /// closes the cone.
    pub(crate) fn state_cone(&self) -> Vec<u32> {
        let slots = self.slots();
        let lut = |&s: &u32| match slots.operand(s) {
            Operand::Lut(l) => Some(l as usize),
            _ => None,
        };
        let mut needed = vec![false; self.n_live];
        for l in self.dffs.iter().filter_map(lut) {
            needed[l] = true;
        }
        for (i, instr) in self.live().iter().enumerate().rev() {
            if needed[i] {
                for l in instr.ops[..instr.n_ops as usize].iter().filter_map(lut) {
                    needed[l] = true;
                }
            }
        }
        (0..self.n_live as u32)
            .filter(|&i| needed[i as usize])
            .collect()
    }

    /// Advance only the register state by one edge over `64 * W` lanes,
    /// evaluating just the instructions of `cone` (from
    /// [`CompiledKernel::state_cone`]) in the value array `vals`. The cone
    /// is closed under operand references, so no skipped result is read.
    /// [`CompiledKernel::step_rows`] steps it at `W = 1` to seed each
    /// column of a block, and block-parallel throughput runs step it at
    /// their own width to seed each block.
    pub(crate) fn step_state<const W: usize>(
        &self,
        cone: &[u32],
        inputs: &[u64],
        regs: &mut [u64],
        vals: &mut Vec<u64>,
    ) {
        let vals = self.prime::<W>(vals, inputs, regs);
        let results = self.slots().results() as usize;
        for &i in cone {
            vals[results + i as usize] = eval(&self.instrs[i as usize], vals);
        }
        self.commit(vals, regs);
    }

    /// `vals` sized as this kernel's value array at width `W` up to the
    /// live stream, in `W`-word slots, with the constant slots written.
    /// Constants are rewritten on every call: the array may last have held
    /// another kernel, or this one at another width, at the same length.
    fn value_array<'a, const W: usize>(&self, vals: &'a mut Vec<u64>) -> &'a mut [[u64; W]] {
        let n_slots = self.slots().results() as usize + self.n_live;
        vals.resize(n_slots * W, 0);
        let vals = vals.as_chunks_mut::<W>().0;
        vals[0] = [0; W];
        vals[1] = [!0; W];
        vals
    }

    /// [`CompiledKernel::value_array`] with the slots read before they are
    /// written filled in: `inputs` and the pre-edge `regs`.
    fn prime<'a, const W: usize>(
        &self,
        vals: &'a mut Vec<u64>,
        inputs: &[u64],
        regs: &[u64],
    ) -> &'a mut [[u64; W]] {
        assert_eq!(inputs.len(), self.n_inputs * W, "input word count");
        assert_eq!(regs.len(), self.n_regs * W, "register word count");
        let vals = self.value_array::<W>(vals);
        let regs_at = self.slots().regs() as usize;
        vals[2..regs_at].as_flattened_mut().copy_from_slice(inputs);
        vals[regs_at..regs_at + self.n_regs]
            .as_flattened_mut()
            .copy_from_slice(regs);
        vals
    }

    /// Evaluate every live instruction, in stream order, into its result
    /// slot.
    #[inline(always)]
    fn eval_stream<const W: usize>(&self, vals: &mut [[u64; W]]) {
        let results = self.slots().results() as usize;
        for (i, instr) in self.live().iter().enumerate() {
            vals[results + i] = eval(instr, vals);
        }
    }

    /// Commit the next register chunks straight from the value array. Its
    /// register slots still hold the pre-edge state, so a register source
    /// that reads another register sees the old value.
    fn commit<const W: usize>(&self, vals: &[[u64; W]], regs: &mut [u64]) {
        for (r, &d) in regs.as_chunks_mut::<W>().0.iter_mut().zip(&self.dffs) {
            *r = vals[d as usize];
        }
    }
}

/// Every lane set to bit `i` of `bits`: shifting the bit into the sign and
/// back spreads it with no branch.
#[inline(always)]
fn bit_lanes(bits: u64, i: usize) -> u64 {
    (((bits << (63 - i)) as i64) >> 63) as u64
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

/// Evaluate one instruction across all `64 * W` lanes from the value
/// array, which is filled up to the instruction's own slot.
#[inline(always)]
fn eval<const W: usize>(instr: &KernelInstr, vals: &[[u64; W]]) -> [u64; W] {
    let x = |j: usize| vals[instr.ops[j] as usize];
    match instr.op {
        Op::Table => match instr.n_ops {
            0 => [bit_lanes(instr.table, 0); W],
            1 => mux_tree::<1, W>(instr, vals),
            2 => mux_tree::<2, W>(instr, vals),
            3 => mux_tree::<4, W>(instr, vals),
            4 => mux_tree::<8, W>(instr, vals),
            5 => mux_tree::<16, W>(instr, vals),
            _ => mux_tree::<32, W>(instr, vals),
        },
        Op::Const => [bit_lanes(instr.table, 0); W],
        Op::Buf => x(0),
        Op::Not => map1(x(0), |a| !a),
        Op::Logic2(t) => eval_logic2::<W>(t, x(0), x(1)),
        Op::MuxSel2 => zip3(x(0), x(1), x(2), |a, b, s| (a & !s) | (b & s)),
        Op::Maj3 => zip3(x(0), x(1), x(2), |a, b, c| (a & b) | ((a | b) & c)),
        Op::AndAll { invert } => chain::<W>(instr, vals, invert, |a, b| a & b),
        Op::OrAll { invert } => chain::<W>(instr, vals, invert, |a, b| a | b),
        Op::XorAll { invert } => chain::<W>(instr, vals, invert, |a, b| a ^ b),
    }
}

/// The mux tree of a k-input table, `LEAVES = 2^(k-1)`: leaf `a` selects
/// table bit `2a` or `2a + 1` by operand 0, each bit widened to a lane mask
/// so the leaf needs no branch, and every further operand halves the tree.
/// `2^k - 1` chunk-ops over exactly `LEAVES` scratch chunks.
#[inline(always)]
fn mux_tree<const LEAVES: usize, const W: usize>(
    instr: &KernelInstr,
    vals: &[[u64; W]],
) -> [u64; W] {
    let x0 = vals[instr.ops[0] as usize];
    let mut tree = [[0u64; W]; LEAVES];
    for (a, leaf) in tree.iter_mut().enumerate() {
        let lo = bit_lanes(instr.table, 2 * a);
        let hi = bit_lanes(instr.table, 2 * a + 1);
        *leaf = map1(x0, |x| (lo & !x) | (hi & x));
    }
    let k = LEAVES.trailing_zeros() as usize + 1;
    let mut width = LEAVES;
    for &s in &instr.ops[1..k] {
        let xj = vals[s as usize];
        width /= 2;
        for a in 0..width {
            tree[a] = zip3(tree[2 * a], tree[2 * a + 1], xj, |lo, hi, x| {
                (lo & !x) | (hi & x)
            });
        }
    }
    tree[0]
}

/// AND/OR/XOR of every operand, optionally inverted: `k - 1 + invert`
/// chunk-ops.
#[inline(always)]
fn chain<const W: usize>(
    instr: &KernelInstr,
    vals: &[[u64; W]],
    invert: bool,
    f: impl Fn(u64, u64) -> u64,
) -> [u64; W] {
    let ops = &instr.ops[..instr.n_ops as usize];
    let mut acc = vals[ops[0] as usize];
    for &s in &ops[1..] {
        acc = zip2(acc, vals[s as usize], &f);
    }
    if invert {
        acc = map1(acc, |a| !a);
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

    /// One `k`-input LUT over inputs `0..k`, tapped as the only output.
    fn lut_kernel(k: usize, table: u64) -> CompiledKernel {
        let srcs: Vec<MappedSource> = (0..k).map(MappedSource::Input).collect();
        CompiledKernel::build(
            k,
            0,
            std::iter::once((&srcs[..], table)),
            std::iter::once(MappedSource::Lut(0)),
            std::iter::empty(),
        )
    }

    /// r' = lut0 = in0 XOR r; out = lut1 = !lut0: a register fed through
    /// one instruction, and one instruction outside its cone.
    fn xor_accumulator() -> CompiledKernel {
        CompiledKernel::build(
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
        )
    }

    /// The output chunks of one register-free step at width `W`.
    fn eval_at<const W: usize>(kernel: &CompiledKernel, inputs: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        kernel.step_wide::<W>(inputs, &mut [], &mut KernelScratch::new(), &mut out);
        out
    }

    /// Dense pseudo-random words (splitmix64).
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    fn mux_tree_at<const W: usize>() {
        for k in 0..=6usize {
            // Lane l drives address (l ^ l/64) mod 2^k, so every word of a
            // wide chunk sees its own address pattern.
            let address = |lane: usize| (lane ^ (lane / LANES)) % (1 << k);
            let mut inputs = vec![0u64; k * W];
            for lane in 0..LANES * W {
                for i in 0..k {
                    inputs[i * W + lane / LANES] |=
                        (((address(lane) >> i) & 1) as u64) << (lane % LANES);
                }
            }
            // Every table up to 3 inputs, plus random tables whose bits
            // above 2^k must stay dormant.
            let exhaustive = if k <= 3 { 1u64 << (1 << k) } else { 0 };
            for table in (0..exhaustive).chain(words(k as u64, 32)) {
                let out = eval_at::<W>(&lut_kernel(k, table), &inputs);
                for lane in 0..LANES * W {
                    let a = address(lane);
                    assert_eq!(
                        (out[lane / LANES] >> (lane % LANES)) & 1,
                        (table >> a) & 1,
                        "k {k} width {W} table {table:#x} lane {lane} address {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn mux_tree_matches_direct_table_lookup() {
        // Every arity the fabric has, at every width.
        for &w in SUPPORTED_WIDTHS {
            match w {
                1 => mux_tree_at::<1>(),
                2 => mux_tree_at::<2>(),
                4 => mux_tree_at::<4>(),
                8 => mux_tree_at::<8>(),
                _ => panic!("width {w} has no test instantiation"),
            }
        }
    }

    #[test]
    fn zero_input_instruction_broadcasts_its_constant() {
        for (table, want) in [(0u64, 0u64), (1, !0), (0b10, 0)] {
            assert_eq!(eval_at::<1>(&lut_kernel(0, table), &[]), [want]);
            assert_eq!(eval_at::<8>(&lut_kernel(0, table), &[]), [want; 8]);
        }
    }

    #[test]
    fn wide_step_matches_word_by_word_narrow_steps() {
        let kernel = xor_accumulator();
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

    fn specialized_at<const W: usize>() {
        // For each specialized opcode/table pair, the direct evaluator must
        // agree with the generic mux tree on dense random stimulus.
        let x = words(W as u64, 6 * W);
        let cases: Vec<(Op, usize, u64)> = vec![
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
            (Op::XorAll { invert: false }, 4, 0x6996),
            (Op::OrAll { invert: false }, 5, 0xFFFF_FFFE),
            (Op::AndAll { invert: true }, 6, !(1u64 << 63)),
        ];
        let logic2 = (0..16u64).map(|t| (Op::Logic2(t as u8), 2, t));
        for (op, k, table) in cases.into_iter().chain(logic2) {
            let generic = lut_kernel(k, table);
            let mut special = generic.clone();
            special.instrs[0].op = op;
            let inputs = &x[..k * W];
            assert_eq!(
                eval_at::<W>(&special, inputs),
                eval_at::<W>(&generic, inputs),
                "{op:?} table {table:#x} width {W}"
            );
        }
    }

    #[test]
    fn specialized_opcodes_match_their_tables() {
        specialized_at::<1>();
        specialized_at::<8>();
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
    fn one_scratch_serves_kernels_of_any_size_and_width() {
        use MappedSource::{Const, Input, Lut, Register};
        // 16 slots at W = 1: 2 constants, 4 inputs, 2 registers, 8 LUTs,
        // each XOR-ing an input into the previous LUT (the first into r0).
        let xors: Vec<[MappedSource; 2]> = (0..8)
            .map(|n| [Input(n % 4), if n == 0 { Register(0) } else { Lut(n - 1) }])
            .collect();
        let big = CompiledKernel::build(
            4,
            2,
            xors.iter().map(|s| (&s[..], 0b0110u64)),
            std::iter::once(Lut(7)),
            [Lut(3), Register(0)].into_iter(),
        );
        // 8 slots at W = 2, the same 16 words: 2 constants, 2 inputs, 1
        // register, 3 LUTs, reading constant 1 directly and through LUTs.
        let small = CompiledKernel::build(
            2,
            1,
            [
                (&[Input(0), Const(true)][..], 0b1000u64),
                (&[Lut(0), Register(0)][..], 0b0110),
                (&[Input(1), Const(true), Lut(1)][..], 0b1001_0110),
            ]
            .into_iter(),
            [Lut(1), Lut(2), Const(true)].into_iter(),
            std::iter::once(Lut(2)),
        );
        let big_in = [0, 0, !0, 0x1234_5678_9ABC_DEF0];
        let small_in = [0xF0F0_F0F0_F0F0_F0F0, 0x0FF0, 0x1111, !0];
        fn step_on<const W: usize>(
            kernel: &CompiledKernel,
            inputs: &[u64],
            regs: &[u64],
            scratch: &mut KernelScratch,
        ) -> (Vec<u64>, Vec<u64>) {
            let (mut regs, mut out) = (regs.to_vec(), Vec::new());
            kernel.step_wide::<W>(inputs, &mut regs, scratch, &mut out);
            (out, regs)
        }
        let mut shared = KernelScratch::new();
        for round in 0..2 {
            let fresh = step_on::<1>(&big, &big_in, &[3, 5], &mut KernelScratch::new());
            let got = step_on::<1>(&big, &big_in, &[3, 5], &mut shared);
            assert_eq!(got, fresh, "round {round}: W = 1");
            let fresh = step_on::<2>(&small, &small_in, &[7, 9], &mut KernelScratch::new());
            let got = step_on::<2>(&small, &small_in, &[7, 9], &mut shared);
            assert_eq!(got, fresh, "round {round}: W = 2");
            assert_eq!(got.0[4..], [!0, !0], "round {round}: constant 1 output");
        }
    }

    #[test]
    #[should_panic(expected = "input word count")]
    fn step_rejects_inputs_of_the_wrong_length() {
        lut_kernel(2, 0b0110).step(&[0], &mut [], &mut KernelScratch::new(), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "register word count")]
    fn step_rejects_registers_of_the_wrong_length() {
        lut_kernel(1, 0b10).step(&[0], &mut [0], &mut KernelScratch::new(), &mut Vec::new());
    }

    #[test]
    fn slots_decode_to_the_operands_they_encode() {
        let slots = SlotLayout::new(3, 2);
        let ops = [
            Operand::Const(false),
            Operand::Const(true),
            Operand::Input(0),
            Operand::Input(2),
            Operand::Register(0),
            Operand::Register(1),
            Operand::Lut(0),
            Operand::Lut(40),
        ];
        for (want, op) in ops.into_iter().enumerate() {
            let s = slots.slot(op);
            assert_eq!(s, [0, 1, 2, 4, 5, 6, 7, 47][want], "{op:?}");
            assert_eq!(slots.operand(s), op);
        }
    }

    #[test]
    fn slot_instruction_fits_in_40_bytes() {
        // The one instruction list a kernel stores; the decoded form the
        // optimizer works on takes 64.
        assert!(std::mem::size_of::<KernelInstr>() <= 40);
    }

    #[test]
    fn state_cone_prologue_advances_registers_like_a_full_step() {
        // Out-cone LUT 1 is not needed to advance the register; the cone
        // step must still commit the same next state as a full step.
        let kernel = xor_accumulator();
        let cone = kernel.state_cone();
        assert_eq!(cone, [0]);
        let mut full_regs = vec![0xAAAAu64];
        let mut cone_regs = full_regs.clone();
        let mut scratch = KernelScratch::new();
        let mut vals = Vec::new();
        let mut out = Vec::new();
        for stim in words(5, 4) {
            kernel.step(&[stim], &mut full_regs, &mut scratch, &mut out);
            kernel.step_state::<1>(&cone, &[stim], &mut cone_regs, &mut vals);
            assert_eq!(cone_regs, full_regs);
        }
    }

    #[test]
    fn row_steps_match_one_step_per_row_across_block_boundaries() {
        use MappedSource::{Input, Lut, Register};
        // r0' = in0 XOR r1, r1' = r0 (a register feeding a register), and
        // one output outside the cone; plus the register-free XOR LUT.
        let shift = CompiledKernel::build(
            1,
            2,
            [
                (&[Input(0), Register(1)][..], 0b0110u64),
                (&[Lut(0), Register(0)][..], 0b1000),
            ]
            .into_iter(),
            [Lut(1), Register(1)].into_iter(),
            [Lut(0), Register(0)].into_iter(),
        );
        let kernels = [xor_accumulator(), shift, lut_kernel(2, 0b0110)];
        let mut shared = KernelScratch::new();
        for (k, kernel) in kernels.iter().enumerate() {
            let (n_in, n_regs) = (kernel.n_inputs(), kernel.n_regs());
            for len in 0..=17usize {
                let seed = (k * 100 + len) as u64;
                let rows: Vec<Vec<u64>> = words(seed, len * n_in)
                    .chunks(n_in)
                    .map(<[u64]>::to_vec)
                    .collect();
                let start = words(!seed, n_regs);
                let (mut want_regs, mut want) = (start.clone(), Vec::new());
                let mut scratch = KernelScratch::new();
                for row in &rows {
                    let mut out = Vec::new();
                    kernel.step(row, &mut want_regs, &mut scratch, &mut out);
                    want.push(out);
                }
                let (mut got, mut regs) = (rows.clone(), start.clone());
                kernel.step_rows(&mut got, &mut regs, &mut shared);
                assert_eq!(got, want, "kernel {k}, {len} rows: outputs");
                assert_eq!(regs, want_regs, "kernel {k}, {len} rows: registers");
            }
        }
    }

    #[test]
    fn step_rows_checks_every_row_before_stepping() {
        let kernel = xor_accumulator();
        let mut rows = vec![vec![1u64]; 9];
        rows[8].push(0);
        let mut regs = [0u64];
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kernel.step_rows(&mut rows, &mut regs, &mut KernelScratch::new())
        }));
        assert!(stepped.is_err(), "a bad row panics");
        assert_eq!(regs, [0], "no row was stepped");
        assert_eq!(rows[0], [1], "row 0 still holds its inputs");
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
