//! Fabric observability: named signal probes sampled inside the batched
//! kernel, a per-LUT activity census with a dynamic-power proxy, and the
//! context-switch energy model.
//!
//! Probes are **lane-accurate**: each sample is one `u64` word holding all
//! [`LANES`] stimulus lanes of the probed signal at one clock
//! edge, exactly as the kernel computed it. Samples land in bounded
//! per-probe ring buffers (oldest first out), so probing a long run cannot
//! grow memory without bound.
//!
//! Probes and the census read the value array of the device's one,
//! optimized kernel through its LUT → slot map (see [`crate::kernel`]): an
//! input or register probe reads its input or pre-edge register slot, and a
//! LUT its mapped slot, which an observed step fills by also evaluating the
//! kernel's dead tail. Observing therefore never changes which kernel runs,
//! and an unobserved step pays one branch.
//!
//! The census counts per-LUT output toggles and high cycles across lanes;
//! [`LutActivity::power_proxy`] multiplies the toggle rate by the LUT's
//! fanout — the classic `activity × capacitance` dynamic-power surrogate
//! with fanout standing in for load capacitance. The context-switch energy
//! model charges [`SWITCH_ENERGY_PJ_PER_BIT`] per flipped configuration
//! bit. **Both are proxy models with documented constants, not silicon
//! measurements** — they rank and compare, they do not predict joules.

use std::collections::VecDeque;

use mcfpga_map::{MappedNetlist, MappedSource};
use mcfpga_obs::Waveform;
use serde::{Deserialize, Serialize};

use crate::kernel::{CompiledKernel, KernelScratch, LANES};
use crate::multi::SimError;

/// Default bound on buffered samples per probe (words; one word = one clock
/// edge across all lanes). Override with [`ProbeSet::with_capacity`].
pub const DEFAULT_PROBE_CAPACITY: usize = 4096;

/// Energy charged per flipped configuration bit on a context switch, in
/// picojoules. A proxy constant in the range FeFET/BEOL config-write
/// literature reports (sub-pJ per bit) — chosen for stable relative
/// comparisons, **not** calibrated to any silicon process.
pub const SWITCH_ENERGY_PJ_PER_BIT: f64 = 0.18;

/// Switch energy, in picojoules, of flipping `bits_flipped` configuration
/// bits under the documented proxy constant.
pub fn switch_energy_pj(bits_flipped: u64) -> f64 {
    bits_flipped as f64 * SWITCH_ENERGY_PJ_PER_BIT
}

/// A named selection of fabric signals to sample during batched stepping.
///
/// Names resolve against one context's mapped netlist, in this order:
/// a primary-output name from the source netlist (probing whatever drives
/// it), `in{i}` for primary input `i`, `reg{i}` for register `i`, and
/// `lut{i}` for LUT `i`'s output. Unknown names are reported in-band by
/// [`crate::MultiDevice::arm_probes`].
///
/// ```
/// use mcfpga_sim::ProbeSet;
/// let set = ProbeSet::new().tap("sum0").tap("lut3").with_capacity(1024);
/// assert_eq!(set.taps().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSet {
    taps: Vec<String>,
    capacity: usize,
}

impl Default for ProbeSet {
    fn default() -> Self {
        ProbeSet::new()
    }
}

impl ProbeSet {
    /// An empty set with the default per-probe ring capacity.
    pub fn new() -> ProbeSet {
        ProbeSet {
            taps: Vec::new(),
            capacity: DEFAULT_PROBE_CAPACITY,
        }
    }

    /// Add one signal by name (builder-style).
    pub fn tap(mut self, name: &str) -> ProbeSet {
        self.taps.push(name.to_string());
        self
    }

    /// Bound each probe's ring buffer to `capacity` sample words (min 1).
    pub fn with_capacity(mut self, capacity: usize) -> ProbeSet {
        self.capacity = capacity.max(1);
        self
    }

    pub fn taps(&self) -> &[String] {
        &self.taps
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }
}

/// The signal `name` taps in `m`.
fn resolve_target(m: &MappedNetlist, name: &str) -> Option<MappedSource> {
    if let Some((_, src)) = m.outputs.iter().find(|(n, _)| n == name) {
        return Some(*src);
    }
    let indexed = |prefix: &str, bound: usize| -> Option<usize> {
        name.strip_prefix(prefix)
            .and_then(|d| d.parse::<usize>().ok())
            .filter(|&i| i < bound)
    };
    if let Some(i) = indexed("in", m.n_inputs) {
        return Some(MappedSource::Input(i));
    }
    if let Some(r) = indexed("reg", m.dffs.len()) {
        return Some(MappedSource::Register(r));
    }
    indexed("lut", m.luts.len()).map(MappedSource::Lut)
}

/// Every name [`ProbeSet`] resolution accepts for `m`: declared outputs,
/// then `in*`, `reg*`, `lut*` index families.
pub(crate) fn probe_names(m: &MappedNetlist) -> Vec<String> {
    let mut names: Vec<String> = m.outputs.iter().map(|(n, _)| n.clone()).collect();
    names.extend((0..m.n_inputs).map(|i| format!("in{i}")));
    names.extend((0..m.dffs.len()).map(|r| format!("reg{r}")));
    names.extend((0..m.luts.len()).map(|l| format!("lut{l}")));
    names
}

/// One armed probe: the signal it taps plus its bounded sample ring.
#[derive(Debug, Clone)]
struct ArmedProbe {
    name: String,
    source: MappedSource,
    ring: VecDeque<u64>,
    dropped: u64,
}

/// All armed probes of one context.
#[derive(Debug, Clone)]
pub(crate) struct ContextProbes {
    probes: Vec<ArmedProbe>,
    capacity: usize,
}

impl ContextProbes {
    /// Resolve every tap of `set` against `m`, failing on the first unknown
    /// name (in tap order) so the error is deterministic.
    pub(crate) fn arm(
        m: &MappedNetlist,
        set: &ProbeSet,
        context: usize,
    ) -> Result<ContextProbes, SimError> {
        let probes = set
            .taps
            .iter()
            .map(|name| {
                resolve_target(m, name)
                    .map(|source| ArmedProbe {
                        name: name.clone(),
                        source,
                        ring: VecDeque::with_capacity(set.capacity.min(1 << 16)),
                        dropped: 0,
                    })
                    .ok_or_else(|| SimError::UnknownProbe {
                        context,
                        name: name.clone(),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ContextProbes {
            probes,
            capacity: set.capacity,
        })
    }

    /// Record the step `kernel` just ran at chunk width `w` into `scratch`,
    /// observed (`CompiledKernel::observe`): each probe reads its signal's
    /// slot, all `w` words — all `64 * w` lanes — of it. A register slot
    /// holds the pre-edge value this cycle's logic saw. The ring capacity
    /// counts words, so a width-`w` step consumes `w` of it.
    pub(crate) fn sample(&mut self, kernel: &CompiledKernel, scratch: &KernelScratch, w: usize) {
        for p in &mut self.probes {
            for &word in scratch.chunk(kernel.source_slot(p.source), w) {
                if p.ring.len() == self.capacity {
                    p.ring.pop_front();
                    p.dropped += 1;
                }
                p.ring.push_back(word);
            }
        }
    }

    pub(crate) fn captures(&self) -> Vec<ProbeCapture> {
        self.probes
            .iter()
            .map(|p| ProbeCapture {
                name: p.name.clone(),
                samples: p.ring.iter().copied().collect(),
                dropped: p.dropped,
            })
            .collect()
    }
}

/// One probe's buffered samples after a run: `samples[t]` is the probed
/// signal at retained clock edge `t`, one stimulus lane per bit. Runs at a
/// wider chunk width `W` record `W` consecutive words per retained edge
/// (`samples[t*W + w]` is chunk word `w`); use
/// [`ProbeCapture::lane_bits_wide`] to slice those.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeCapture {
    pub name: String,
    pub samples: Vec<u64>,
    /// Samples evicted from the bounded ring before these were read.
    pub dropped: u64,
}

impl ProbeCapture {
    /// Extract one stimulus lane as a scalar bit stream.
    pub fn lane_bits(&self, lane: usize) -> Vec<bool> {
        self.lane_bits_wide(1, lane)
    }

    /// Extract one of `64 * width` stimulus lanes from a capture recorded at
    /// chunk width `width`: lane `l` is bit `l % 64` of chunk word `l / 64`.
    pub fn lane_bits_wide(&self, width: usize, lane: usize) -> Vec<bool> {
        assert!(width > 0, "width must be positive");
        assert!(lane < LANES * width, "lane {lane} out of range");
        let (word, bit) = (lane / LANES, lane % LANES);
        self.samples
            .chunks_exact(width)
            .map(|c| (c[word] >> bit) & 1 == 1)
            .collect()
    }
}

/// Build a [`Waveform`] from probe captures: one 64-wide signal per probe
/// (bit = lane), or one 1-wide signal per probe when `lane` is given.
pub fn captures_to_waveform(
    module: &str,
    captures: &[ProbeCapture],
    lane: Option<usize>,
) -> Waveform {
    let mut w = Waveform::new(module);
    for c in captures {
        match lane {
            None => w.push_signal(&c.name, LANES, c.samples.clone()),
            Some(l) => {
                assert!(l < LANES, "lane {l} out of range");
                let bits: Vec<u64> = c.samples.iter().map(|&word| (word >> l) & 1).collect();
                w.push_signal(&c.name, 1, bits);
            }
        }
    }
    w
}

/// Per-LUT toggle/level accounting for one device: a batched step adds
/// [`LANES`] (or `64 * w`) lane-cycles to the active context, a scalar
/// step adds one.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActivityCensus {
    /// `[context][lut]` — lane-summed output toggles.
    toggles: Vec<Vec<u64>>,
    /// `[context][lut]` — lane-cycles the output was high.
    ones: Vec<Vec<u64>>,
    /// `[register file]` — the LUT words toggles count against, starting
    /// all-zero (a fabric never has more register files than contexts).
    /// Contexts sharing a register file (an aligned fabric) share the
    /// baseline, so the toggles a context switch causes count too.
    prev: Vec<Vec<u64>>,
    lane_cycles: Vec<u64>,
}

impl ActivityCensus {
    pub(crate) fn new(n_contexts: usize) -> ActivityCensus {
        ActivityCensus {
            toggles: vec![Vec::new(); n_contexts],
            ones: vec![Vec::new(); n_contexts],
            prev: vec![Vec::new(); n_contexts],
            lane_cycles: vec![0; n_contexts],
        }
    }

    /// Count the step `kernel` just ran at chunk width `w` into `scratch`,
    /// observed (`CompiledKernel::observe`): each LUT's chunk is read
    /// through the LUT → slot map, every one of the `64 * w` lanes counts
    /// toward toggles/ones, and the step adds `64 * w` lane-cycles. The
    /// previous-word baseline is per (LUT, chunk word); if the observed
    /// width changes between steps the baseline restarts at all-zero,
    /// matching the first-step convention.
    pub(crate) fn record(
        &mut self,
        c: usize,
        file: usize,
        kernel: &CompiledKernel,
        scratch: &KernelScratch,
        w: usize,
    ) {
        let slots = &kernel.lut_slots;
        self.count(c, file, slots.len(), w, !0, |i, k| {
            scratch.chunk(slots[i], w)[k]
        });
    }

    /// A scalar step: lane 0's LUT values count one lane-cycle, then become
    /// the file's baseline on every lane (the step wrote lane 0's state to
    /// all of them).
    pub(crate) fn record_lane(&mut self, c: usize, file: usize, lut_vals: &[bool]) {
        let word = |i: usize, _| crate::multi::lane_word(lut_vals[i]);
        self.count(c, file, lut_vals.len(), 1, 1, word);
    }

    /// Count the `lanes`-masked bits of `n` LUTs' `w`-word chunks (word `k`
    /// of LUT `i`'s is `word(i, k)`) against the file's baseline, then make
    /// them the new baseline.
    fn count(
        &mut self,
        c: usize,
        file: usize,
        n: usize,
        w: usize,
        lanes: u64,
        word: impl Fn(usize, usize) -> u64,
    ) {
        let prev = &mut self.prev[file];
        if prev.len() != n * w {
            prev.clear();
            prev.resize(n * w, 0);
        }
        self.toggles[c].resize(n, 0);
        self.ones[c].resize(n, 0);
        for i in 0..n {
            for k in 0..w {
                let word = word(i, k);
                self.toggles[c][i] += ((prev[i * w + k] ^ word) & lanes).count_ones() as u64;
                self.ones[c][i] += (word & lanes).count_ones() as u64;
                prev[i * w + k] = word;
            }
        }
        self.lane_cycles[c] += (lanes.count_ones() as usize * w) as u64;
    }

    /// Roll context `c`'s counters into a report against `m` (for fanout).
    /// All rates are guarded: zero observed cycles (or a LUT-less netlist)
    /// yields zeros, never NaN.
    pub(crate) fn report(&self, c: usize, m: &MappedNetlist) -> ActivityReport {
        let fanout = lut_fanout(m);
        let cycles = self.lane_cycles[c];
        let luts: Vec<LutActivity> = (0..m.luts.len())
            .map(|i| {
                let toggles = self.toggles[c].get(i).copied().unwrap_or(0);
                let ones = self.ones[c].get(i).copied().unwrap_or(0);
                let rate = if cycles == 0 {
                    0.0
                } else {
                    toggles as f64 / cycles as f64
                };
                let static_probability = if cycles == 0 {
                    0.0
                } else {
                    ones as f64 / cycles as f64
                };
                LutActivity {
                    lut: i,
                    toggles,
                    toggle_rate: rate,
                    static_probability,
                    fanout: fanout[i],
                    power_proxy: rate * fanout[i] as f64,
                }
            })
            .collect();
        let toggles_total = luts.iter().map(|l| l.toggles).sum();
        ActivityReport {
            context: c,
            lane_cycles: cycles,
            toggles_total,
            luts,
        }
    }

    /// Mean per-LUT toggle rate of context `c`; 0.0 (never NaN) for
    /// zero-cycle or zero-LUT contexts.
    pub(crate) fn toggle_rate(&self, c: usize) -> f64 {
        let cycles = self.lane_cycles[c];
        let n_luts = self.toggles[c].len();
        if cycles == 0 || n_luts == 0 {
            return 0.0;
        }
        let total: u64 = self.toggles[c].iter().sum();
        total as f64 / (cycles as f64 * n_luts as f64)
    }
}

/// Consumers of LUT `i`'s output in `m`: other LUT inputs, primary
/// outputs, and register D pins — the load the power proxy scales by.
pub(crate) fn lut_fanout(m: &MappedNetlist) -> Vec<usize> {
    let mut fanout = vec![0usize; m.luts.len()];
    let mut feed = |src: &MappedSource| {
        if let MappedSource::Lut(l) = src {
            fanout[*l] += 1;
        }
    };
    for lut in &m.luts {
        lut.inputs.iter().for_each(&mut feed);
    }
    for (_, src) in &m.outputs {
        feed(src);
    }
    for dff in &m.dffs {
        feed(&dff.d);
    }
    fanout
}

/// One LUT's row in an [`ActivityReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LutActivity {
    pub lut: usize,
    /// Lane-summed output toggles.
    pub toggles: u64,
    /// `toggles / lane_cycles` — switching activity per lane-cycle.
    pub toggle_rate: f64,
    /// Fraction of lane-cycles the output was high.
    pub static_probability: f64,
    /// Downstream consumers (LUT inputs + outputs + register D pins).
    pub fanout: usize,
    /// `toggle_rate × fanout`: the dynamic-power surrogate used for
    /// ranking. Proxy units, not watts.
    pub power_proxy: f64,
}

/// Activity census of one context after a batched run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityReport {
    pub context: usize,
    /// Lane-cycles observed (batched steps × [`LANES`]).
    pub lane_cycles: u64,
    pub toggles_total: u64,
    pub luts: Vec<LutActivity>,
}

impl ActivityReport {
    /// LUTs ranked hottest-first by power proxy (ties: toggles, then index
    /// — fully deterministic for seeded workloads).
    pub fn ranked(&self) -> Vec<&LutActivity> {
        let mut rows: Vec<&LutActivity> = self.luts.iter().collect();
        rows.sort_by(|a, b| {
            b.power_proxy
                .partial_cmp(&a.power_proxy)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.toggles.cmp(&a.toggles))
                .then(a.lut.cmp(&b.lut))
        });
        rows
    }
}

/// Cumulative context-switch energy under the per-bit proxy model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ReconfigEnergy {
    /// Context switches with energy accounting (traced or census-enabled).
    pub switches: u64,
    /// Total configuration bits flipped across those switches.
    pub bits_flipped: u64,
    /// `bits_flipped × `[`SWITCH_ENERGY_PJ_PER_BIT`] — cumulative, proxy pJ.
    pub energy_pj: f64,
    /// Mean flipped bits per switch (0.0 when no switches were accounted).
    pub mean_bits_per_switch: f64,
}

impl ReconfigEnergy {
    pub(crate) fn from_totals(switches: u64, bits_flipped: u64) -> ReconfigEnergy {
        ReconfigEnergy {
            switches,
            bits_flipped,
            energy_pj: switch_energy_pj(bits_flipped),
            mean_bits_per_switch: if switches == 0 {
                0.0
            } else {
                bits_flipped as f64 / switches as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_map::map_netlist;
    use mcfpga_netlist::library;

    #[test]
    fn probe_set_builder_accumulates_taps() {
        let set = ProbeSet::new().tap("sum0").tap("in1").with_capacity(0);
        assert_eq!(set.taps(), ["sum0".to_string(), "in1".to_string()]);
        assert_eq!(set.capacity(), 1, "capacity clamps to at least one word");
        assert!(!set.is_empty());
    }

    #[test]
    fn targets_resolve_outputs_then_index_families() {
        let m = map_netlist(&library::adder(4), 6).unwrap();
        let (out_name, _) = &m.outputs[0];
        assert!(resolve_target(&m, out_name).is_some());
        assert_eq!(resolve_target(&m, "in0"), Some(MappedSource::Input(0)));
        assert_eq!(resolve_target(&m, "lut0"), Some(MappedSource::Lut(0)));
        assert_eq!(resolve_target(&m, "in99"), None);
        assert_eq!(resolve_target(&m, "nonsense"), None);
        let names = probe_names(&m);
        for n in &names {
            assert!(resolve_target(&m, n).is_some(), "{n} must resolve");
        }
    }

    #[test]
    fn ring_bounds_samples_and_counts_drops() {
        let m = map_netlist(&library::adder(2), 6).unwrap();
        let set = ProbeSet::new().tap("in0").with_capacity(2);
        let mut armed = ContextProbes::arm(&m, &set, 0).unwrap();
        // A LUT-less kernel over the netlist's inputs: in0 is its slot 2.
        let kernel = CompiledKernel::build(
            m.n_inputs,
            0,
            std::iter::empty(),
            std::iter::empty(),
            std::iter::empty(),
        );
        let mut scratch = KernelScratch::new();
        for i in 0..5u64 {
            kernel.step(&vec![i; m.n_inputs], &mut [], &mut scratch, &mut Vec::new());
            armed.sample(&kernel, &scratch, 1);
        }
        let cap = &armed.captures()[0];
        assert_eq!(cap.samples, vec![3, 4], "oldest samples evicted first");
        assert_eq!(cap.dropped, 3);
    }

    #[test]
    fn lane_bits_extracts_single_lanes() {
        let cap = ProbeCapture {
            name: "x".into(),
            samples: vec![0b01, 0b10],
            dropped: 0,
        };
        assert_eq!(cap.lane_bits(0), vec![true, false]);
        assert_eq!(cap.lane_bits(1), vec![false, true]);
    }

    #[test]
    fn census_rates_are_guarded_against_zero_cycles() {
        let m = map_netlist(&library::adder(2), 6).unwrap();
        let census = ActivityCensus::new(1);
        let report = census.report(0, &m);
        assert_eq!(report.lane_cycles, 0);
        assert!(report.luts.iter().all(|l| l.toggle_rate == 0.0));
        assert!(report.luts.iter().all(|l| !l.power_proxy.is_nan()));
        assert_eq!(census.toggle_rate(0), 0.0, "zero cycles must not NaN");
    }

    #[test]
    fn census_counts_toggles_and_ones_per_lut() {
        // LUT 0 buffers input 0; LUT 1 is constant 0.
        let kernel = CompiledKernel::build(
            1,
            0,
            [(&[MappedSource::Input(0)][..], 0b10u64), (&[][..], 0)].into_iter(),
            std::iter::empty(),
            std::iter::empty(),
        );
        let mut census = ActivityCensus::new(1);
        let mut scratch = KernelScratch::new();
        for input in [u64::MAX, 0] {
            kernel.step(&[input], &mut [], &mut scratch, &mut Vec::new());
            kernel.observe::<1>(&mut scratch);
            census.record(0, 0, &kernel, &scratch, 1);
        }
        // LUT 0: 64 rising then 64 falling toggles, 64 high lane-cycles.
        assert_eq!(census.toggles[0][0], 128);
        assert_eq!(census.ones[0][0], 64);
        assert_eq!(census.toggles[0][1], 0);
        assert_eq!(census.lane_cycles[0], 2 * LANES as u64);
    }

    #[test]
    fn fanout_counts_all_consumer_kinds() {
        let m = map_netlist(&library::counter(3), 6).unwrap();
        let fanout = lut_fanout(&m);
        assert_eq!(fanout.len(), m.luts.len());
        let from_inputs: usize = m
            .luts
            .iter()
            .flat_map(|l| &l.inputs)
            .filter(|s| matches!(s, MappedSource::Lut(_)))
            .count();
        let from_outputs = m
            .outputs
            .iter()
            .filter(|(_, s)| matches!(s, MappedSource::Lut(_)))
            .count();
        let from_dffs = m
            .dffs
            .iter()
            .filter(|d| matches!(d.d, MappedSource::Lut(_)))
            .count();
        assert_eq!(
            fanout.iter().sum::<usize>(),
            from_inputs + from_outputs + from_dffs
        );
    }

    #[test]
    fn energy_model_is_linear_in_flipped_bits() {
        let e = ReconfigEnergy::from_totals(4, 100);
        assert_eq!(e.energy_pj, 100.0 * SWITCH_ENERGY_PJ_PER_BIT);
        assert_eq!(e.mean_bits_per_switch, 25.0);
        let zero = ReconfigEnergy::from_totals(0, 0);
        assert_eq!(zero.mean_bits_per_switch, 0.0, "guarded division");
    }

    #[test]
    fn ranked_orders_by_power_proxy_then_index() {
        let report = ActivityReport {
            context: 0,
            lane_cycles: 64,
            toggles_total: 30,
            luts: vec![
                LutActivity {
                    lut: 0,
                    toggles: 10,
                    toggle_rate: 0.2,
                    static_probability: 0.5,
                    fanout: 1,
                    power_proxy: 0.2,
                },
                LutActivity {
                    lut: 1,
                    toggles: 10,
                    toggle_rate: 0.2,
                    static_probability: 0.5,
                    fanout: 3,
                    power_proxy: 0.6,
                },
                LutActivity {
                    lut: 2,
                    toggles: 10,
                    toggle_rate: 0.2,
                    static_probability: 0.5,
                    fanout: 1,
                    power_proxy: 0.2,
                },
            ],
        };
        let ranked: Vec<usize> = report.ranked().iter().map(|l| l.lut).collect();
        assert_eq!(ranked, vec![1, 0, 2]);
    }
}
