//! The immutable compile artifact the cache stores and sessions execute,
//! and the structured content address it is filed under.

use mcfpga_arch::ArchSpec;
use mcfpga_netlist::Netlist;
use mcfpga_obs::Recorder;
use mcfpga_sim::{
    CompileError, CompileOptions, CompiledKernel, ContextArtifacts, DeltaSeed, DeltaStats,
    MultiDevice,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over a list of byte strings with explicit framing: the element
/// count, then each element's length prefix followed by its bytes. Without
/// the framing, two different lists whose concatenations coincide would
/// collide (`["ab","c"]` vs `["a","bc"]`); with it, list boundaries are part
/// of the hash.
pub(crate) fn fnv1a_framed<'a>(mut h: u64, parts: impl ExactSizeIterator<Item = &'a [u8]>) -> u64 {
    h = fnv1a(h, &(parts.len() as u64).to_le_bytes());
    for p in parts {
        h = fnv1a(h, &(p.len() as u64).to_le_bytes());
        h = fnv1a(h, p);
    }
    h
}

/// Structured content address of a compile request: one hash for the
/// architecture, one for the router knobs, and one *per context netlist* —
/// the shape that lets the design cache see that two requests share most of
/// their contexts and delta-compile only the ones that changed.
///
/// Two fingerprints with equal [`DesignFingerprint::key`] describe
/// byte-identical requests. Two fingerprints that agree on
/// [`DesignFingerprint::env_matches`] were compiled under the same
/// architecture and router options, so their per-context artifacts are
/// interchangeable wherever the context hashes agree.
///
/// Stability caveat: the key is a cache address, not a wire format — it may
/// change across releases (hash layout, serialization details). What may
/// *not* change is artifact bit-identity: however a design is compiled
/// (cold, delta, any release), identical inputs must yield identical
/// kernels, registers, and switch bits.
///
/// `CompileOptions::parallel` is deliberately *excluded*: the parallel and
/// serial schedules produce bit-for-bit identical devices (a property the
/// sim crate's tests pin down), so they must share a cache slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignFingerprint {
    arch: u64,
    route: u64,
    contexts: Vec<u64>,
    key: u64,
}

impl DesignFingerprint {
    /// Fingerprint a compile request.
    pub fn new(arch: &ArchSpec, circuits: &[Netlist], options: &CompileOptions) -> Self {
        let arch_json = serde_json::to_string(arch).expect("ArchSpec serializes");
        let arch_hash = fnv1a_framed(FNV_OFFSET, std::iter::once(arch_json.as_bytes()));
        let r = &options.route;
        let mut route_hash = FNV_OFFSET;
        route_hash = fnv1a(route_hash, &(r.max_iterations as u64).to_le_bytes());
        route_hash = fnv1a(route_hash, &r.present_growth.to_bits().to_le_bytes());
        route_hash = fnv1a(route_hash, &r.history_increment.to_bits().to_le_bytes());
        route_hash = fnv1a(route_hash, &[r.full_ripup as u8]);
        let contexts: Vec<u64> = circuits
            .iter()
            .map(|c| {
                let json = serde_json::to_string(c).expect("Netlist serializes");
                fnv1a_framed(FNV_OFFSET, std::iter::once(json.as_bytes()))
            })
            .collect();
        // The combined key frames its components too: fixed 8-byte blocks
        // for the arch/route hashes, then the context count, then each
        // context hash — no concatenation ambiguity anywhere.
        let mut key = FNV_OFFSET;
        key = fnv1a(key, &arch_hash.to_le_bytes());
        key = fnv1a(key, &route_hash.to_le_bytes());
        key = fnv1a(key, &(contexts.len() as u64).to_le_bytes());
        for &c in &contexts {
            key = fnv1a(key, &c.to_le_bytes());
        }
        DesignFingerprint {
            arch: arch_hash,
            route: route_hash,
            contexts,
            key,
        }
    }

    /// The combined cache key (see the type docs for stability caveats).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Hash of the serialized architecture.
    pub fn arch_hash(&self) -> u64 {
        self.arch
    }

    /// Hash of the router options that shape the artifact.
    pub fn route_hash(&self) -> u64 {
        self.route
    }

    /// Per-context netlist hashes, in context order.
    pub fn context_hashes(&self) -> &[u64] {
        &self.contexts
    }

    /// Number of contexts in the fingerprinted request.
    pub fn n_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Whether `other` was compiled under the same architecture and router
    /// options — the precondition for any per-context artifact exchange.
    pub fn env_matches(&self, other: &DesignFingerprint) -> bool {
        self.arch == other.arch && self.route == other.route
    }

    /// How many context slots hold byte-identical netlists in both
    /// fingerprints (compared position-wise up to the shorter one).
    pub fn shared_contexts(&self, other: &DesignFingerprint) -> usize {
        self.contexts
            .iter()
            .zip(&other.contexts)
            .filter(|(a, b)| a == b)
            .count()
    }
}

/// Content address of a compile request — the combined
/// [`DesignFingerprint::key`]. Kept as the simple entry point for callers
/// that only need the exact-match address.
pub fn design_key(arch: &ArchSpec, circuits: &[Netlist], options: &CompileOptions) -> u64 {
    DesignFingerprint::new(arch, circuits, options).key()
}

/// Everything a session needs to execute a compiled workload, detached from
/// the [`MultiDevice`] that produced it: per-context batch kernels, initial
/// register state, and a configuration fingerprint — plus the per-context
/// intermediate compile artifacts that let a near-match cache hit
/// delta-compile only the contexts that changed. Immutable once built, so
/// one `Arc<CompiledDesign>` is shared by the cache and every session
/// running it. Compare designs through [`CompiledDesign::fingerprint`] and
/// [`CompiledDesign::kernel`].
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    fingerprint: DesignFingerprint,
    kernels: Vec<CompiledKernel>,
    initial_regs: Vec<Vec<bool>>,
    artifacts: Vec<ContextArtifacts>,
    switch_fp: u64,
    /// The compile request the design was built from, retained so a session
    /// checkpoint can carry everything needed to recompile the design on a
    /// server that has never seen it (see [`crate::SessionSnapshot`]).
    arch: ArchSpec,
    circuits: Vec<Netlist>,
    options: CompileOptions,
}

impl CompiledDesign {
    /// Compile `circuits` onto `arch` and extract the serving artifact,
    /// discarding the device's own telemetry (disabled recorder). Inside a
    /// server, compiles run through the crate-private `build` with the
    /// job's correlated recorder, so per-phase spans land in the serving
    /// trace, stamped with the job that caused them.
    pub fn compile(
        arch: &ArchSpec,
        circuits: &[Netlist],
        options: &CompileOptions,
    ) -> Result<CompiledDesign, CompileError> {
        let fp = DesignFingerprint::new(arch, circuits, options);
        let rec = Recorder::disabled();
        CompiledDesign::build(arch, circuits, options, fp, &rec, None, None)
            .map(|(design, _)| design)
    }

    /// Recompile a perturbed request against a cached near-match `base`,
    /// reusing every artifact whose inputs are unchanged: contexts whose
    /// netlist hash matches `base`'s are taken verbatim; changed contexts
    /// re-enter the pipeline seeded with `base`'s stale artifacts (reused
    /// per-stage behind equality gates — see
    /// [`MultiDevice::compile_delta`]). The result is bit-for-bit identical
    /// to a cold compile of the same request; only the time to produce it
    /// differs. Returns the design plus what was reused.
    ///
    /// The caller must have checked `fingerprint.env_matches(base)` — the
    /// per-context exchange is only sound under the same architecture and
    /// router options (debug-asserted here).
    pub fn delta_compile_with(
        arch: &ArchSpec,
        circuits: &[Netlist],
        options: &CompileOptions,
        rec: &Recorder,
        base: &CompiledDesign,
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<(CompiledDesign, DeltaStats), CompileError> {
        let fp = DesignFingerprint::new(arch, circuits, options);
        CompiledDesign::build(arch, circuits, options, fp, rec, Some(base), cancel)
    }

    /// Compile a request — the one path every compile takes. `fingerprint`
    /// is the request's own, computed once by the caller (a server already
    /// has it from its cache lookup). Without a `base` every context compiles
    /// cold; with one, each context is seeded from `base`'s artifact for
    /// the same slot, verbatim where the netlist hashes agree. `cancel` is
    /// polled between per-context compile phases: when it reports `true`,
    /// the compile stops with [`CompileError::DeadlineExceeded`] — how a
    /// server stops burning a worker on a job whose deadline lapsed
    /// mid-service.
    pub(crate) fn build(
        arch: &ArchSpec,
        circuits: &[Netlist],
        options: &CompileOptions,
        fingerprint: DesignFingerprint,
        rec: &Recorder,
        base: Option<&CompiledDesign>,
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<(CompiledDesign, DeltaStats), CompileError> {
        debug_assert!(
            base.is_none_or(|b| fingerprint.env_matches(&b.fingerprint)),
            "delta base compiled under a different arch / route options"
        );
        // No base is an empty one: every context then compiles cold.
        let (artifacts, hashes): (&[ContextArtifacts], &[u64]) =
            base.map_or((&[], &[]), |b| (&b.artifacts, &b.fingerprint.contexts));
        let seeds: Vec<DeltaSeed<'_>> = fingerprint
            .context_hashes()
            .iter()
            .enumerate()
            .map(|(c, h)| match artifacts.get(c) {
                Some(a) if hashes.get(c) == Some(h) => DeltaSeed::Unchanged(a),
                Some(a) => DeltaSeed::Changed(a),
                None => DeltaSeed::Cold,
            })
            .collect();
        let (device, stats) =
            MultiDevice::compile_delta(arch, circuits, options, rec, &seeds, cancel)?;
        Ok((
            CompiledDesign::from_device(device, fingerprint, arch, circuits, options),
            stats,
        ))
    }

    fn from_device(
        mut device: MultiDevice,
        fingerprint: DesignFingerprint,
        arch: &ArchSpec,
        circuits: &[Netlist],
        options: &CompileOptions,
    ) -> CompiledDesign {
        let n = device.n_contexts();
        let mut kernels = Vec::with_capacity(n);
        let mut initial_regs = Vec::with_capacity(n);
        let mut fp = FNV_OFFSET;
        for c in 0..n {
            kernels.push(device.kernel(c).expect("context in range").clone());
            initial_regs.push(device.initial_registers(c).expect("context in range"));
            for bit in device.switch_state_bits(c) {
                fp = fnv1a(fp, &[bit as u8]);
            }
        }
        CompiledDesign {
            fingerprint,
            kernels,
            initial_regs,
            artifacts: device.context_artifacts(),
            switch_fp: fp,
            arch: arch.clone(),
            circuits: circuits.to_vec(),
            options: *options,
        }
    }

    /// Build a design with the given fingerprint and no contexts — a stand-in
    /// for cache-behavior tests that must not pay for real compiles.
    #[cfg(test)]
    pub(crate) fn fake(fingerprint: DesignFingerprint) -> CompiledDesign {
        CompiledDesign {
            fingerprint,
            kernels: Vec::new(),
            initial_regs: Vec::new(),
            artifacts: Vec::new(),
            switch_fp: 0,
            arch: ArchSpec::paper_default(),
            circuits: Vec::new(),
            options: CompileOptions::default(),
        }
    }

    /// The content address this design is cached under.
    pub fn key(&self) -> u64 {
        self.fingerprint.key()
    }

    /// The structured content address: arch/route hashes plus one hash per
    /// context netlist — what the near-match cache compares.
    pub fn design_fingerprint(&self) -> &DesignFingerprint {
        &self.fingerprint
    }

    /// Programmed context count.
    pub fn n_contexts(&self) -> usize {
        self.kernels.len()
    }

    /// The batch kernel for `context` (panics out of range; sessions
    /// validate the index first).
    pub fn kernel(&self, context: usize) -> &CompiledKernel {
        &self.kernels[context]
    }

    /// Power-on register state of `context`.
    pub fn initial_registers(&self, context: usize) -> &[bool] {
        &self.initial_regs[context]
    }

    /// FNV-1a over every context's routing-switch state — a cheap identity
    /// for "same configuration bits", used by tests to prove cache hits
    /// (and delta compiles) return the cold-compile artifact.
    pub fn fingerprint(&self) -> u64 {
        self.switch_fp
    }

    /// The architecture the design was compiled onto.
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// The per-context netlists of the compile request.
    pub fn circuits(&self) -> &[Netlist] {
        &self.circuits
    }

    /// The compile options of the request.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_unframed(parts: &[&[u8]]) -> u64 {
        parts.iter().fold(FNV_OFFSET, |h, p| fnv1a(h, p))
    }

    #[test]
    fn framed_hash_separates_list_boundaries() {
        // The adversarial shape the framing exists for: same concatenated
        // bytes, different element boundaries. Unframed FNV collides on
        // these by construction; the framed hash must not.
        let a: &[&[u8]] = &[b"ab", b"c"];
        let b: &[&[u8]] = &[b"a", b"bc"];
        assert_eq!(
            raw_unframed(a),
            raw_unframed(b),
            "premise: unframed collides"
        );
        assert_ne!(
            fnv1a_framed(FNV_OFFSET, a.iter().copied()),
            fnv1a_framed(FNV_OFFSET, b.iter().copied()),
        );
        // Element count is part of the frame too: a list and its
        // empty-padded variant hash differently even though the
        // concatenated payload is identical.
        let c: &[&[u8]] = &[b"abc"];
        let d: &[&[u8]] = &[b"abc", b""];
        assert_eq!(
            raw_unframed(c),
            raw_unframed(d),
            "premise: unframed collides"
        );
        assert_ne!(
            fnv1a_framed(FNV_OFFSET, c.iter().copied()),
            fnv1a_framed(FNV_OFFSET, d.iter().copied()),
        );
    }

    #[test]
    fn design_key_depends_on_circuit_list_structure() {
        use mcfpga_netlist::library;
        let arch = mcfpga_arch::ArchSpec::paper_default();
        let opts = CompileOptions::default();
        let c = library::adder(2);
        let one = design_key(&arch, std::slice::from_ref(&c), &opts);
        let two = design_key(&arch, &[c.clone(), c.clone()], &opts);
        let three = design_key(&arch, &[c.clone(), c.clone(), c.clone()], &opts);
        assert_ne!(one, two);
        assert_ne!(two, three);
        // Identical circuits in different slots hash identically per slot,
        // which is exactly what near-match context sharing relies on.
        let fp = DesignFingerprint::new(&arch, &[c.clone(), c], &opts);
        assert_eq!(fp.context_hashes()[0], fp.context_hashes()[1]);
    }

    #[test]
    fn fingerprint_structure_reflects_what_changed() {
        use mcfpga_netlist::library;
        let arch = mcfpga_arch::ArchSpec::paper_default();
        let opts = CompileOptions::default();
        let a = library::adder(2);
        let b = library::adder(3);
        let base = DesignFingerprint::new(&arch, &[a.clone(), b.clone()], &opts);
        let perturbed = DesignFingerprint::new(&arch, &[a.clone(), a.clone()], &opts);
        assert!(base.env_matches(&perturbed));
        assert_eq!(base.shared_contexts(&perturbed), 1);
        assert_ne!(base.key(), perturbed.key());
        let other_opts = CompileOptions::default()
            .with_route(mcfpga_route::RouteOptions::default().with_max_iterations(7));
        let fp_opts = DesignFingerprint::new(&arch, &[a.clone(), b.clone()], &other_opts);
        assert!(!base.env_matches(&fp_opts), "route knobs are environment");
        assert_eq!(base.arch_hash(), fp_opts.arch_hash());
        // The parallel toggle, by contrast, stays excluded: identical slot.
        let serial = CompileOptions::default().with_parallel(false);
        let fp_serial = DesignFingerprint::new(&arch, &[a, b], &serial);
        assert_eq!(base.key(), fp_serial.key());
    }
}
