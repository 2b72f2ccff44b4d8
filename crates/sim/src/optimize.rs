//! Netlist-aware kernel optimizer: rewrite a lowered instruction stream into
//! a cheaper, bit-identical one.
//!
//! The generic kernel evaluates every k-input LUT as a `2^k - 1` chunk-op
//! mux-tree over its packed truth table. Real mapped netlists are full of
//! shapes that do not need that: LUTs fed by constants, LUTs that duplicate
//! one another, logic that no output or register ever observes, and — most
//! of all — tables that are plain AND/OR/XOR/NOT/BUF/MUX functions a couple
//! of machine instructions can compute directly. The optimizer runs four
//! passes over the stream, in order:
//!
//! 1. **Constant folding / canonicalization** — cofactor constant operands
//!    out of the table, drop operands the table does not depend on, tie
//!    duplicated operands, copy-propagate buffers and constants, and sort
//!    the operands of fully symmetric tables into canonical order.
//! 2. **Dedup + dead-code elimination** — structural hashing on the folded
//!    `(arity, operands, table)` form merges duplicate LUTs; a reverse sweep
//!    from the outputs and registers finds everything unobservable, which
//!    moves to a dead tail after the live stream.
//! 3. **Level-preserving locality reorder** — live instructions are
//!    regrouped by logic level and, within each level, ordered by their most
//!    recently produced operand, so consumers evaluate close to their
//!    producers while the topological contract is preserved by
//!    construction. The dead tail keeps stream order.
//! 4. **Shape specialization** — surviving tables that match direct forms
//!    are retagged with a specialized `Op`: 1-chunk-op AND/OR/XOR, their
//!    inverses, arbitrary 2-input functions, 3-input mux and majority, and
//!    wide AND/OR/parity chains. The packed table is kept semantically
//!    valid alongside the opcode, so a second optimization pass finds the
//!    stream already in canonical form — optimization is idempotent.
//!
//! Optimization never changes any lane of any output or register chunk (the
//! property tests drive random workloads through both kernels), and it
//! keeps a value for every mapped LUT position: the passes compose the
//! kernel's LUT → slot map through their substitution, so a folded LUT
//! reads a constant slot, a copied or merged one its source's slot, and a
//! dead one its tail instruction's. Probes and the activity census read
//! optimized kernels through that map, so a device runs one kernel per
//! context whoever observes it. Only the fault campaign, which flips the
//! table bits of LUT positions, lowers fresh, unoptimized kernels.

use crate::kernel::{CompiledKernel, KernelInstr, Op, Operand};
use std::collections::HashMap;

/// What one optimization run did to a kernel — exact, seeded-run-stable
/// counts reported by the bench and gated by the regression checker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Instructions in the live stream before / after.
    pub instrs_before: usize,
    pub instrs_after: usize,
    /// Chunk-ops one step costs before / after.
    pub word_ops_before: usize,
    pub word_ops_after: usize,
    /// Operands removed by constant folding, dependence pruning, and
    /// duplicate-operand tying.
    pub folded_operands: usize,
    /// Instructions merged into an earlier structural duplicate.
    pub deduped: usize,
    /// Live instructions moved to the dead tail, unobservable from any
    /// output or register.
    pub dead: usize,
    /// Live instructions retagged with a specialized opcode.
    pub specialized: usize,
}

impl CompiledKernel {
    /// Optimized copy of this kernel: bit-identical on every lane of every
    /// output and register chunk, usually far cheaper per step.
    pub fn optimize(&self) -> CompiledKernel {
        self.optimize_with_stats().0
    }

    /// [`CompiledKernel::optimize`], also reporting what the passes did.
    pub fn optimize_with_stats(&self) -> (CompiledKernel, OptimizeStats) {
        let mut stats = OptimizeStats {
            instrs_before: self.n_instrs(),
            word_ops_before: self.word_ops(),
            ..OptimizeStats::default()
        };

        // The passes work on decoded operands; the slots are encoded again
        // on exit.
        let slots = self.slots();

        // Pass 1: fold + canonicalize + dedup, building the substitution
        // `repr[original lut] -> operand in the new stream`.
        let mut repr: Vec<Operand> = Vec::with_capacity(self.instrs.len());
        let mut instrs: Vec<KernelInstr<Operand>> = Vec::new();
        let mut dedup: HashMap<KernelInstr<Operand>, u32> = HashMap::new();
        for instr in &self.instrs {
            let mut k = instr.n_ops as usize;
            let mut ops: Vec<Operand> = instr.ops[..k]
                .iter()
                .map(|&s| match slots.operand(s) {
                    Operand::Lut(l) => repr[l as usize],
                    other => other,
                })
                .collect();
            let mut table = instr.table & table_mask(k);
            loop {
                if let Some(j) = ops.iter().position(|o| matches!(o, Operand::Const(_))) {
                    let v = matches!(ops[j], Operand::Const(true));
                    table = cofactor(table, k, j, v);
                    ops.remove(j);
                    k -= 1;
                    stats.folded_operands += 1;
                    continue;
                }
                if let Some(j) = (0..k).find(|&j| !depends_on(table, k, j)) {
                    table = cofactor(table, k, j, false);
                    ops.remove(j);
                    k -= 1;
                    stats.folded_operands += 1;
                    continue;
                }
                if let Some((i, j)) =
                    (0..k).find_map(|i| ((i + 1)..k).find(|&j| ops[j] == ops[i]).map(|j| (i, j)))
                {
                    table = tie_duplicate(table, k, i, j);
                    ops.remove(j);
                    k -= 1;
                    stats.folded_operands += 1;
                    continue;
                }
                break;
            }
            if k == 0 {
                repr.push(Operand::Const(table & 1 == 1));
                continue;
            }
            if k == 1 && table == 0b10 {
                // Buffer: copy-propagate the operand itself.
                repr.push(ops[0]);
                continue;
            }
            if fully_symmetric(table, k) {
                // Sorting the operands of a symmetric table leaves it valid
                // and makes commutative duplicates structurally equal.
                ops.sort();
            }
            let mut padded = [Operand::Const(false); 6];
            padded[..k].copy_from_slice(&ops);
            let ni = KernelInstr {
                ops: padded,
                n_ops: k as u8,
                table,
                op: Op::Table,
            };
            if let Some(&idx) = dedup.get(&ni) {
                stats.deduped += 1;
                repr.push(Operand::Lut(idx));
                continue;
            }
            let idx = instrs.len() as u32;
            dedup.insert(ni, idx);
            instrs.push(ni);
            repr.push(Operand::Lut(idx));
        }
        let subst = |op: Operand| match op {
            Operand::Lut(l) => repr[l as usize],
            other => other,
        };
        let outputs: Vec<Operand> = self
            .outputs
            .iter()
            .map(|&o| subst(slots.operand(o)))
            .collect();
        let dffs: Vec<Operand> = self.dffs.iter().map(|&d| subst(slots.operand(d))).collect();

        // Pass 2: dead-code elimination from the observable roots. Dead
        // instructions are kept: pass 3 moves them to the tail.
        let mut live = vec![false; instrs.len()];
        for &root in outputs.iter().chain(&dffs) {
            if let Operand::Lut(l) = root {
                live[l as usize] = true;
            }
        }
        for i in (0..instrs.len()).rev() {
            if live[i] {
                for l in lut_operands(&instrs[i]) {
                    live[l] = true;
                }
            }
        }

        // Pass 3: level-preserving locality reorder, into `place` (new
        // instruction -> final position). Levels are processed in order and
        // each level is stably sorted by the final position of its most
        // recently produced operand, so the transform is idempotent and
        // topological validity is preserved by construction. The dead tail
        // follows in stream order.
        let mut level = vec![0u32; instrs.len()];
        for i in 0..instrs.len() {
            level[i] = lut_operands(&instrs[i])
                .map(|l| level[l] + 1)
                .max()
                .unwrap_or(0);
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut place = vec![u32::MAX; instrs.len()];
        let mut order: Vec<usize> = Vec::with_capacity(instrs.len());
        for lvl in 0..=max_level {
            let mut members: Vec<usize> = (0..instrs.len())
                .filter(|&i| live[i] && level[i] == lvl)
                .collect();
            members.sort_by_key(|&i| {
                lut_operands(&instrs[i])
                    .map(|l| place[l])
                    .max()
                    .unwrap_or(0)
            });
            for i in members {
                place[i] = order.len() as u32;
                order.push(i);
            }
        }
        let n_live = order.len();
        // An input's dead tail is already folded, so it stays the same
        // length: the rest of the new tail came from the live stream.
        let tail_before = self.instrs.len() - self.n_live;
        stats.dead = (instrs.len() - n_live).saturating_sub(tail_before);
        order.extend((0..instrs.len()).filter(|&i| !live[i]));
        for (p, &i) in order.iter().enumerate().skip(n_live) {
            place[i] = p as u32;
        }
        let to_final = |op: Operand| match op {
            Operand::Lut(l) => Operand::Lut(place[l as usize]),
            other => other,
        };
        let mut instrs: Vec<KernelInstr<Operand>> = order
            .into_iter()
            .map(|i| {
                let mut instr = instrs[i];
                for op in &mut instr.ops[..instr.n_ops as usize] {
                    *op = to_final(*op);
                }
                instr
            })
            .collect();
        // Pass 1 sorted symmetric operands in its own numbering; a tail
        // operand may now precede a live one it followed, so sort again.
        for instr in &mut instrs[n_live..] {
            let k = instr.n_ops as usize;
            if fully_symmetric(instr.table, k) {
                instr.ops[..k].sort();
            }
        }

        // Pass 4: shape specialization.
        for (i, instr) in instrs.iter_mut().enumerate() {
            if specialize(instr) && i < n_live {
                stats.specialized += 1;
            }
        }

        let slot = |op: Operand| slots.slot(to_final(op));
        let kernel = CompiledKernel {
            n_inputs: self.n_inputs,
            n_regs: self.n_regs,
            instrs: instrs.iter().map(|i| slots.encode(i)).collect(),
            n_live,
            outputs: outputs.into_iter().map(slot).collect(),
            dffs: dffs.into_iter().map(slot).collect(),
            lut_slots: self
                .lut_slots
                .iter()
                .map(|&s| slot(subst(slots.operand(s))))
                .collect(),
        };
        stats.instrs_after = kernel.n_instrs();
        stats.word_ops_after = kernel.word_ops();
        (kernel, stats)
    }
}

/// The instructions `instr` reads, by index.
fn lut_operands(instr: &KernelInstr<Operand>) -> impl Iterator<Item = usize> + '_ {
    instr.ops[..instr.n_ops as usize]
        .iter()
        .filter_map(|&op| match op {
            Operand::Lut(l) => Some(l as usize),
            _ => None,
        })
}

/// Mask covering the `2^k` meaningful bits of a k-input table.
fn table_mask(k: usize) -> u64 {
    let bits = 1usize << k;
    if bits >= 64 {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

/// Restrict operand `j` to the constant `v`: the table over the remaining
/// `k - 1` operands.
fn cofactor(table: u64, k: usize, j: usize, v: bool) -> u64 {
    let mut nt = 0u64;
    for a in 0..(1usize << (k - 1)) {
        let low = a & ((1 << j) - 1);
        let high = (a >> j) << (j + 1);
        let full = high | ((v as usize) << j) | low;
        nt |= ((table >> full) & 1) << a;
    }
    nt
}

/// Tie operand `j` to operand `i` (`j > i`): the table over the remaining
/// `k - 1` operands with address bit `j` always equal to bit `i`.
fn tie_duplicate(table: u64, k: usize, i: usize, j: usize) -> u64 {
    let mut nt = 0u64;
    for a in 0..(1usize << (k - 1)) {
        let vi = (a >> i) & 1;
        let low = a & ((1 << j) - 1);
        let high = (a >> j) << (j + 1);
        let full = high | (vi << j) | low;
        nt |= ((table >> full) & 1) << a;
    }
    nt
}

/// Does the table's output ever change with operand `j`?
fn depends_on(table: u64, k: usize, j: usize) -> bool {
    (0..(1usize << k))
        .any(|a| (a >> j) & 1 == 0 && ((table >> a) ^ (table >> (a | (1 << j)))) & 1 == 1)
}

/// Swap address bits `j` and `j + 1` of every table entry.
fn swap_adjacent(table: u64, k: usize, j: usize) -> u64 {
    let mut nt = 0u64;
    for a in 0..(1usize << k) {
        let bi = (a >> j) & 1;
        let bj = (a >> (j + 1)) & 1;
        let sw = (a & !((1 << j) | (1 << (j + 1)))) | (bj << j) | (bi << (j + 1));
        nt |= ((table >> a) & 1) << sw;
    }
    nt
}

/// Invariant under every adjacent operand transposition (which generate the
/// full symmetric group), so the operands may be freely reordered.
fn fully_symmetric(table: u64, k: usize) -> bool {
    k >= 2 && (0..k - 1).all(|j| swap_adjacent(table, k, j) == table)
}

/// Table of the k-input AND (only the all-ones address is true).
fn and_table(k: usize) -> u64 {
    1u64 << ((1usize << k) - 1)
}

/// Table of the k-input OR (everything but address 0 is true).
fn or_table(k: usize) -> u64 {
    table_mask(k) ^ 1
}

/// Table of the k-input parity.
fn xor_table(k: usize) -> u64 {
    (0..(1usize << k))
        .filter(|a: &usize| a.count_ones() % 2 == 1)
        .fold(0u64, |t, a| t | (1u64 << a))
}

/// Table of `sel ? x_d1 : x_d0` over 3 operands at positions `(d0, d1, s)`.
fn mux_table(d0: usize, d1: usize, s: usize) -> u64 {
    let mut t = 0u64;
    for a in 0..8usize {
        let v = if (a >> s) & 1 == 1 {
            (a >> d1) & 1
        } else {
            (a >> d0) & 1
        };
        t |= (v as u64) << a;
    }
    t
}

/// Retag one folded instruction with a direct opcode when its table matches
/// a recognized shape. The canonical mux position is probed first so an
/// already-specialized stream is left untouched. Returns whether the
/// instruction ended up specialized.
fn specialize(instr: &mut KernelInstr<Operand>) -> bool {
    let k = instr.n_ops as usize;
    let m = table_mask(k);
    let t = instr.table & m;
    instr.op = match k {
        0 => Op::Const,
        1 if t == 0b10 => Op::Buf,
        1 if t == 0b01 => Op::Not,
        1 => Op::Table,
        2 => Op::Logic2(t as u8),
        _ if t == and_table(k) => Op::AndAll { invert: false },
        _ if t == m & !and_table(k) => Op::AndAll { invert: true },
        _ if t == or_table(k) => Op::OrAll { invert: false },
        _ if t == m & !or_table(k) => Op::OrAll { invert: true },
        _ if t == xor_table(k) => Op::XorAll { invert: false },
        _ if t == m & !xor_table(k) => Op::XorAll { invert: true },
        3 if t == 0xE8 => Op::Maj3,
        3 => {
            let mut found = Op::Table;
            'probe: for s in [2usize, 1, 0] {
                let (r0, r1) = match s {
                    2 => (0, 1),
                    1 => (0, 2),
                    _ => (1, 2),
                };
                for (d0, d1) in [(r0, r1), (r1, r0)] {
                    if t == mux_table(d0, d1, s) {
                        let o = instr.ops;
                        instr.ops[0] = o[d0];
                        instr.ops[1] = o[d1];
                        instr.ops[2] = o[s];
                        instr.table = mux_table(0, 1, 2);
                        found = Op::MuxSel2;
                        break 'probe;
                    }
                }
            }
            found
        }
        _ => Op::Table,
    };
    !matches!(instr.op, Op::Table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelScratch;
    use mcfpga_map::MappedSource;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A random levelized kernel: each LUT draws operands from inputs,
    /// registers, constants, and earlier LUTs; outputs and DFF sources tap
    /// random signals.
    fn random_kernel(seed: u64) -> CompiledKernel {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_inputs = rng.gen_range(1..5usize);
        let n_regs = rng.gen_range(0..4usize);
        let n_luts = rng.gen_range(1..40usize);
        let mut luts: Vec<(Vec<MappedSource>, u64)> = Vec::new();
        let pick = |rng: &mut StdRng, lut_count: usize| -> MappedSource {
            let n_choices = if lut_count > 0 { 5 } else { 4 };
            match rng.gen_range(0..n_choices) {
                0 | 3 => MappedSource::Input(rng.gen_range(0..n_inputs)),
                1 if n_regs > 0 => MappedSource::Register(rng.gen_range(0..n_regs)),
                1 => MappedSource::Input(rng.gen_range(0..n_inputs)),
                2 => MappedSource::Const(rng.gen_bool(0.5)),
                _ => MappedSource::Lut(rng.gen_range(0..lut_count)),
            }
        };
        for l in 0..n_luts {
            let k = rng.gen_range(0..=4usize);
            let srcs: Vec<MappedSource> = (0..k).map(|_| pick(&mut rng, l)).collect();
            // Bias toward specializable shapes half the time.
            let table = if rng.gen_bool(0.5) && k >= 2 {
                match rng.gen_range(0..3) {
                    0 => and_table(k),
                    1 => or_table(k),
                    _ => xor_table(k),
                }
            } else {
                rng.next_u64() & table_mask(k)
            };
            luts.push((srcs, table));
        }
        let n_outputs = rng.gen_range(1..4usize);
        let outputs: Vec<MappedSource> = (0..n_outputs).map(|_| pick(&mut rng, n_luts)).collect();
        let dffs: Vec<MappedSource> = (0..n_regs).map(|_| pick(&mut rng, n_luts)).collect();
        CompiledKernel::build(
            n_inputs,
            n_regs,
            luts.iter().map(|(s, t)| (s.as_slice(), *t)),
            outputs.into_iter(),
            dffs.into_iter(),
        )
    }

    /// Observed steps of `kernel` from seeded random registers and inputs:
    /// the outputs per step, the final registers, and per step every
    /// mapped LUT position's word read through the LUT → slot map.
    type Run = (Vec<Vec<u64>>, Vec<u64>, Vec<Vec<u64>>);

    fn run(kernel: &CompiledKernel, seed: u64, steps: usize) -> Run {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut regs = vec![0u64; kernel.n_regs()];
        for r in &mut regs {
            *r = rng.next_u64();
        }
        let mut scratch = KernelScratch::new();
        let (mut outs, mut luts) = (Vec::new(), Vec::new());
        for _ in 0..steps {
            let inputs: Vec<u64> = (0..kernel.n_inputs()).map(|_| rng.next_u64()).collect();
            let mut out = Vec::new();
            kernel.step(&inputs, &mut regs, &mut scratch, &mut out);
            outs.push(out);
            kernel.observe::<1>(&mut scratch);
            let slots = &kernel.lut_slots;
            luts.push(slots.iter().map(|&s| scratch.chunk(s, 1)[0]).collect());
        }
        (outs, regs, luts)
    }

    #[test]
    fn optimized_kernel_is_bit_identical_on_random_streams() {
        for seed in 0..150u64 {
            let kernel = random_kernel(seed);
            let (opt, stats) = kernel.optimize_with_stats();
            assert!(
                stats.word_ops_after <= stats.word_ops_before,
                "seed {seed}: optimizer made the kernel more expensive: {stats:?}"
            );
            let (want_out, want_regs, want_luts) = run(&kernel, seed ^ 0xABCD, 12);
            let (got_out, got_regs, got_luts) = run(&opt, seed ^ 0xABCD, 12);
            assert_eq!(got_out, want_out, "seed {seed}: outputs diverged");
            assert_eq!(got_regs, want_regs, "seed {seed}: registers diverged");
            assert_eq!(got_luts, want_luts, "seed {seed}: observed LUTs diverged");
        }
    }

    #[test]
    fn optimizing_twice_is_the_same_as_once() {
        for seed in 0..150u64 {
            let once = random_kernel(seed).optimize();
            let (twice, stats) = once.optimize_with_stats();
            assert_eq!(twice, once, "seed {seed}: optimize is not idempotent");
            assert_eq!(stats.folded_operands, 0, "seed {seed}");
            assert_eq!(stats.deduped, 0, "seed {seed}");
            assert_eq!(stats.dead, 0, "seed {seed}");
        }
    }

    #[test]
    fn constant_operands_fold_through_the_stream() {
        // lut0 = AND(in0, const0) = 0; lut1 = OR(in0, lut0) = in0 (buffer);
        // output taps lut1 -> folds to Input(0) directly, zero instructions.
        let kernel = CompiledKernel::build(
            1,
            0,
            [
                (
                    &[MappedSource::Input(0), MappedSource::Const(false)][..],
                    0b1000u64,
                ),
                (
                    &[MappedSource::Input(0), MappedSource::Lut(0)][..],
                    0b1110u64,
                ),
            ]
            .into_iter(),
            std::iter::once(MappedSource::Lut(1)),
            std::iter::empty(),
        );
        let (opt, stats) = kernel.optimize_with_stats();
        assert_eq!(opt.n_instrs(), 0);
        assert_eq!(stats.instrs_after, 0);
        assert_eq!(run(&opt, 7, 4), run(&kernel, 7, 4));
    }

    #[test]
    fn duplicate_and_dead_luts_are_eliminated() {
        // lut0 and lut1 are identical XORs (lut1 with commuted operands);
        // lut2 consumes both (so dedup ties them), lut3 is dead.
        let xor = 0b0110u64;
        let kernel = CompiledKernel::build(
            2,
            0,
            [
                (&[MappedSource::Input(0), MappedSource::Input(1)][..], xor),
                (&[MappedSource::Input(1), MappedSource::Input(0)][..], xor),
                (&[MappedSource::Lut(0), MappedSource::Lut(1)][..], 0b1000u64),
                (
                    &[MappedSource::Input(0), MappedSource::Input(1)][..],
                    0b0001u64,
                ),
            ]
            .into_iter(),
            std::iter::once(MappedSource::Lut(2)),
            std::iter::empty(),
        );
        let (opt, stats) = kernel.optimize_with_stats();
        assert_eq!(stats.deduped, 1, "{stats:?}");
        assert_eq!(stats.dead, 1, "{stats:?}");
        // AND(x, x) ties to a buffer of the shared XOR: one instruction.
        assert_eq!(opt.n_instrs(), 1, "{stats:?}");
        let (got_out, _, got_luts) = run(&opt, 11, 4);
        let (want_out, _, want_luts) = run(&kernel, 11, 4);
        assert_eq!(got_out, want_out);
        assert_eq!(got_luts, want_luts);
        // The dead NOR still has its value for observers.
        let mut rng = StdRng::seed_from_u64(11);
        for luts in &got_luts {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            assert_eq!(luts[3], !(a | b));
        }
    }

    #[test]
    fn specialization_recognizes_the_direct_shapes() {
        let cases: Vec<(usize, u64, Op)> = vec![
            (2, 0b1000, Op::Logic2(0b1000)),
            (3, and_table(3), Op::AndAll { invert: false }),
            (
                4,
                table_mask(4) & !and_table(4),
                Op::AndAll { invert: true },
            ),
            (3, or_table(3), Op::OrAll { invert: false }),
            (4, xor_table(4), Op::XorAll { invert: false }),
            (3, 0xE8, Op::Maj3),
            (3, mux_table(0, 1, 2), Op::MuxSel2),
        ];
        for (k, table, want) in cases {
            let mut ops = [Operand::Const(false); 6];
            for (i, op) in ops.iter_mut().enumerate().take(k) {
                *op = Operand::Input(i as u32);
            }
            let mut instr = KernelInstr {
                ops,
                n_ops: k as u8,
                table,
                op: Op::Table,
            };
            assert!(specialize(&mut instr), "k={k} table={table:#x}");
            assert_eq!(instr.op, want, "k={k} table={table:#x}");
        }
    }

    #[test]
    fn mux_detection_canonicalizes_any_selector_position() {
        // sel in operand position 0: t[a] = a0 ? x2 : x1.
        let t = mux_table(1, 2, 0);
        let mut instr = KernelInstr {
            ops: [
                Operand::Input(9),
                Operand::Input(5),
                Operand::Input(7),
                Operand::Const(false),
                Operand::Const(false),
                Operand::Const(false),
            ],
            n_ops: 3,
            table: t,
            op: Op::Table,
        };
        assert!(specialize(&mut instr));
        assert_eq!(instr.op, Op::MuxSel2);
        assert_eq!(instr.table, mux_table(0, 1, 2));
        // ops = [d0, d1, sel] = [x1, x2, x0].
        assert_eq!(
            &instr.ops[..3],
            &[Operand::Input(5), Operand::Input(7), Operand::Input(9)]
        );
    }
}
