//! `experiments gate`: every BENCH report held to its own invariants and to
//! `BENCH_baseline.json`. Each gated experiment's module implements
//! `Report` for its report type; a missing file, malformed JSON or a
//! missing key is a [`Violation`] like any broken bound, never a panic.

use crate::{delta, flow, probe, serve, serve_obs, shard, sim};
use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Display};
use std::path::Path;

/// The committed baseline every report is held against.
pub const BASELINE: &str = "BENCH_baseline.json";
/// Seeded quality metrics: relative tolerance for float noise only.
pub(crate) const RATIO_REL_TOL: f64 = 0.02;
/// A timing fails only when this many times slower than its baseline, a
/// throughput only when this many times lower...
pub(crate) const TIME_BLOWUP: f64 = 20.0;
/// ...and a timing only over a baseline big enough to be signal.
pub(crate) const TIME_FLOOR_US: u64 = 1_000;

/// One broken invariant: the report file, the key path inside it, the value
/// found there and the bound it broke.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub file: &'static str,
    pub key: String,
    pub value: String,
    pub bound: String,
}

impl Violation {
    fn new(file: &'static str, key: impl Display, value: impl Display, bound: &str) -> Self {
        let (key, value, bound) = (key.to_string(), value.to_string(), bound.to_string());
        Violation {
            file,
            key,
            value,
            bound,
        }
    }
}

impl Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (file, key) = (self.file, &self.key);
        write!(f, "{file}: {key} = {} (bound: {})", self.value, self.bound)
    }
}

/// A type the gate can read back from JSON.
pub(crate) trait Json: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> Json for T {}

/// A gated BENCH report: the file its experiment writes, the baseline
/// section it is held against, and its invariants.
pub(crate) trait Report: Json + Serialize {
    const FILE: &'static str;
    type Baseline;
    fn check(&self, base: &Self::Baseline) -> Vec<Violation>;
}

/// Writes `report` to its file in the working directory.
pub(crate) fn write<R: Report>(report: &R) {
    let json = serde_json::to_string_pretty(report).expect("serialize report");
    std::fs::write(R::FILE, &json).expect("write report");
    println!("\nwrote {} ({} bytes)", R::FILE, json.len());
}

/// Every report file [`gate`] reads, in the order it checks them.
pub const REPORTS: [&str; 8] = [
    flow::FlowBench::FILE,
    flow::FlowTrace::FILE,
    sim::SimBench::FILE,
    serve::ServeBench::FILE,
    serve_obs::ServeObsBench::FILE,
    delta::DeltaBench::FILE,
    probe::ProbeBench::FILE,
    shard::ShardBench::FILE,
];

/// Checks every report in `dir` against `dir/BENCH_baseline.json` and
/// returns every violation found; empty means the gate passes.
pub fn gate(dir: &Path) -> Vec<Violation> {
    let doc = match read(dir, BASELINE) {
        Ok(doc) => doc,
        Err(v) => return vec![v],
    };
    let mut found = run::<flow::FlowBench>(dir, decode(BASELINE, &doc, ""));
    found.extend(run::<flow::FlowTrace>(dir, Ok(())));
    found.extend(run::<sim::SimBench>(dir, section(&doc, "sim")));
    found.extend(run::<serve::ServeBench>(dir, section(&doc, "serve")));
    found.extend(run::<serve_obs::ServeObsBench>(
        dir,
        section(&doc, "serve_obs"),
    ));
    found.extend(run::<delta::DeltaBench>(dir, section(&doc, "delta")));
    found.extend(run::<probe::ProbeBench>(dir, section(&doc, "probe")));
    found.extend(run::<shard::ShardBench>(dir, section(&doc, "shard")));
    found
}

/// Loads `R` from `dir` and checks it against `base`.
pub(crate) fn run<R: Report>(dir: &Path, base: Result<R::Baseline, Violation>) -> Vec<Violation> {
    let report = read(dir, R::FILE).and_then(|doc| decode::<R>(R::FILE, &doc, ""));
    match (report, base) {
        (Ok(report), Ok(base)) => report.check(&base),
        (report, base) => report.err().into_iter().chain(base.err()).collect(),
    }
}

fn read(dir: &Path, file: &'static str) -> Result<Value, Violation> {
    let text = std::fs::read_to_string(dir.join(file));
    let text = text.map_err(|e| Violation::new(file, "(file)", e, "readable"))?;
    serde_json::parse(&text).map_err(|e| Violation::new(file, "(json)", e, "valid JSON"))
}

/// The `key` section of the baseline document.
pub(crate) fn section<T: Json>(doc: &Value, key: &str) -> Result<T, Violation> {
    let Some(value) = doc.get(key) else {
        return Err(Violation::new(BASELINE, key, "missing", "present"));
    };
    decode(BASELINE, value, &format!("{key}."))
}

/// Deserializes `doc`. A missing key is a violation naming it after
/// `prefix`; any other mismatch names the schema.
fn decode<T: Json>(file: &'static str, doc: &Value, prefix: &str) -> Result<T, Violation> {
    T::from_value(doc).map_err(|e| {
        let msg = e.to_string();
        let field = msg.strip_prefix("missing field `");
        match field.and_then(|k| k.strip_suffix('`')) {
            Some(key) => Violation::new(file, format!("{prefix}{key}"), "missing", "present"),
            None => Violation::new(file, format!("{prefix}(schema)"), msg, "the schema"),
        }
    })
}

/// Runs one [`Checks`] method keyed by the checked field's path after its
/// root: `check!(c.eq(self.snapshot.inflight, 0))` is
/// `c.eq("snapshot.inflight", self.snapshot.inflight, 0)`. The list form
/// `check!(c.near(self, base): a b)` runs `c.near("a", self.a, base.a)` and
/// `c.near("b", self.b, base.b)`; without `base` the method gets the
/// report's field alone.
macro_rules! check {
    ($c:ident.$m:ident($r:expr, $b:expr): $($f:ident)+) => {
        $($c.$m(stringify!($f), $r.$f, $b.$f);)+
    };
    ($c:ident.$m:ident($r:expr): $($f:ident)+) => {
        $($c.$m(stringify!($f), $r.$f);)+
    };
    ($c:ident.$m:ident($root:ident $(.$f:ident)+ $(, $arg:expr)*)) => {
        $c.$m(stringify!($($f).+), $root$(.$f)+ $(, $arg)*)
    };
}
pub(crate) use check;

/// The labels of `items`, for [`Checks::same_set`] and [`Checks::includes`].
pub(crate) fn labels<T>(items: &[T], label: impl Fn(&T) -> String) -> Vec<String> {
    items.iter().map(label).collect()
}

/// Collects the violations of one report's checks, each key recorded after
/// the prefix set by [`Checks::at`].
pub(crate) struct Checks {
    file: &'static str,
    prefix: String,
    found: Vec<Violation>,
}

impl Checks {
    pub(crate) fn new(file: &'static str) -> Checks {
        let (prefix, found) = (String::new(), Vec::new());
        Checks {
            file,
            prefix,
            found,
        }
    }

    pub(crate) fn done(self) -> Vec<Violation> {
        self.found
    }

    /// Prefixes the keys of the checks that follow, e.g. `points[5pct].`.
    pub(crate) fn at(&mut self, prefix: impl Display) {
        self.prefix = prefix.to_string();
    }

    /// Records a violation of `bound` at `key` unless `ok`.
    pub(crate) fn ensure(&mut self, ok: bool, key: &str, got: impl Display, bound: &str) {
        if !ok {
            let key = format!("{}{key}", self.prefix);
            self.found.push(Violation::new(self.file, key, got, bound));
        }
    }

    pub(crate) fn eq<T: PartialEq + Display>(&mut self, key: &str, got: T, want: T) {
        self.ensure(got == want, key, &got, &format!("== {want}"));
    }

    pub(crate) fn ge<T: PartialOrd + Display>(&mut self, key: &str, got: T, floor: T) {
        self.ensure(got >= floor, key, &got, &format!(">= {floor}"));
    }

    pub(crate) fn le<T: PartialOrd + Display>(&mut self, key: &str, got: T, ceiling: T) {
        self.ensure(got <= ceiling, key, &got, &format!("<= {ceiling}"));
    }

    pub(crate) fn lt<T: PartialOrd + Display>(&mut self, key: &str, got: T, ceiling: T) {
        self.ensure(got < ceiling, key, &got, &format!("< {ceiling}"));
    }

    /// A count, rate or flag that must be positive (true, for a flag).
    pub(crate) fn positive<T: PartialOrd + Default + Display>(&mut self, key: &str, got: T) {
        let zero = T::default();
        self.ensure(got > zero, key, &got, &format!("> {zero}"));
    }

    /// A seeded quality metric: within [`RATIO_REL_TOL`] of its baseline.
    pub(crate) fn near(&mut self, key: &str, got: f64, want: f64) {
        let ok = match want == 0.0 {
            true => got.abs() < 1e-9,
            false => (got - want).abs() <= RATIO_REL_TOL * want.abs(),
        };
        let bound = format!("within {RATIO_REL_TOL} relative of baseline {want}");
        self.ensure(ok, key, got, &bound);
    }

    /// A timing: at most [`TIME_BLOWUP`]x its baseline, unless that is under
    /// [`TIME_FLOOR_US`] (noise).
    pub(crate) fn no_blowup(&mut self, key: &str, got_us: u64, want_us: u64) {
        let ok = want_us < TIME_FLOOR_US || got_us <= want_us.saturating_mul(TIME_BLOWUP as u64);
        let bound = format!("<= {TIME_BLOWUP}x baseline {want_us}");
        self.ensure(ok, key, got_us, &bound);
    }

    /// A throughput: at least 1/[`TIME_BLOWUP`] of its baseline.
    pub(crate) fn no_collapse(&mut self, key: &str, got: f64, want: f64) {
        let bound = format!(">= baseline {want} / {TIME_BLOWUP}");
        self.ensure(got >= want / TIME_BLOWUP, key, got, &bound);
    }

    /// Every label in `want` must be among `have`.
    pub(crate) fn includes<S: AsRef<str>>(&mut self, key: &str, have: &[String], want: &[S]) {
        for name in want.iter().map(AsRef::as_ref) {
            let ok = have.iter().any(|h| h == name);
            self.ensure(ok, &format!("{key}[{name}]"), "missing", "present");
        }
    }

    /// The labels `have` must be exactly `want`, each once: an unexpected
    /// or repeated label is `extra`.
    pub(crate) fn same_set(&mut self, key: &str, have: &[String], want: &[String]) {
        for (i, label) in have.iter().enumerate() {
            let ok = want.contains(label) && !have[..i].contains(label);
            self.ensure(ok, &format!("{key}[{label}]"), "extra", "absent");
        }
        for label in want.iter().filter(|label| !have.contains(label)) {
            self.ensure(false, &format!("{key}[{label}]"), "missing", "present");
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! Passing-report scaffolding shared by every report's tests.

    use super::*;
    use mcfpga::obs::{CounterEntry, GaugeEntry, RunReport, SpanEntry};

    pub(crate) const BASELINE_JSON: &str = include_str!("../../../BENCH_baseline.json");

    /// A section of the committed baseline (`""` for the flow's top level).
    pub(crate) fn baseline<T: Json>(key: &str) -> T {
        let doc = serde_json::parse(BASELINE_JSON).expect("baseline parses");
        let base = if key.is_empty() {
            decode(BASELINE, &doc, "")
        } else {
            section(&doc, key)
        };
        base.expect("baseline section decodes")
    }

    /// A run report holding the named spans, counters (each 1) and gauges.
    pub(crate) fn run_report(spans: &[&str], counters: &[&str], gauges: &[&str]) -> RunReport {
        RunReport {
            name: "test".into(),
            total_us: 1,
            spans: spans
                .iter()
                .map(|&name| SpanEntry {
                    name: name.into(),
                    count: 1,
                    busy_us: 1,
                    wall_us: 1,
                })
                .collect(),
            counters: counters
                .iter()
                .map(|&name| CounterEntry {
                    name: name.into(),
                    value: 1,
                })
                .collect(),
            gauges: gauges
                .iter()
                .map(|&name| GaugeEntry {
                    name: name.into(),
                    value: 1.0,
                })
                .collect(),
            histograms: Vec::new(),
            reconfig: None,
        }
    }

    /// The `key` field of a JSON object, for editing documents in tests.
    pub(crate) fn field<'a>(doc: &'a mut Value, key: &str) -> &'a mut Value {
        match doc {
            Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            other => panic!("{other:?} is not an object"),
        }
    }

    /// Removes the `key` field of a JSON object.
    pub(crate) fn remove(doc: &mut Value, key: &str) {
        match doc {
            Value::Object(fields) => fields.retain(|(k, _)| k != key),
            other => panic!("{other:?} is not an object"),
        }
    }

    /// Breaks one invariant of a passing (report, baseline) pair.
    pub(crate) type Mutation<R> = fn(&mut R, &mut <R as Report>::Baseline);

    /// The passing report stays clean; then each case breaks one invariant
    /// of a fresh passing (report, baseline) pair and must yield exactly one
    /// violation, of `R::FILE` at the case's key.
    pub(crate) fn breaks_one<R: Report>(
        passing: fn() -> (R, R::Baseline),
        cases: &[(&str, Mutation<R>)],
    ) {
        let (report, base) = passing();
        assert_eq!(report.check(&base), vec![], "passing {}", R::FILE);
        for (key, mutate) in cases {
            let (mut report, mut base) = passing();
            mutate(&mut report, &mut base);
            let found = report.check(&base);
            let keys: Vec<_> = found.iter().map(|v| (v.file, v.key.as_str())).collect();
            assert_eq!(keys, [(R::FILE, *key)], "{found:#?}");
        }
    }

    /// A scratch directory unique to this process and `name`.
    pub(crate) fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mcfpga-gate-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A missing file, a missing top-level `key` and malformed JSON each give
    /// exactly one violation, naming `R::FILE` and the key.
    pub(crate) fn load_failures<R: Report>(passing: fn() -> (R, R::Baseline), key: &str) {
        let dir = scratch(R::FILE);
        let one = |want: &str| {
            let found = run::<R>(&dir, Ok(passing().1));
            let keys: Vec<_> = found.iter().map(|v| (v.file, v.key.as_str())).collect();
            assert_eq!(keys, [(R::FILE, want)], "{found:#?}");
        };
        one("(file)");
        let mut doc = passing().0.to_value();
        remove(&mut doc, key);
        let json = serde_json::to_string(&doc).expect("serialize");
        std::fs::write(dir.join(R::FILE), json).expect("write report");
        one(key);
        std::fs::write(dir.join(R::FILE), "{\"truncated\": [").expect("write report");
        one("(json)");
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{field, remove, scratch, BASELINE_JSON};
    use super::*;

    /// Writes the baseline `doc` and every module's passing report to `dir`.
    fn write_all(dir: &Path, doc: &Value) {
        let files = [
            (BASELINE, doc.clone()),
            (flow::FlowBench::FILE, flow::tests::passing().0.to_value()),
            (
                flow::FlowTrace::FILE,
                flow::tests::passing_trace().to_value(),
            ),
            (sim::SimBench::FILE, sim::tests::passing().0.to_value()),
            (
                serve::ServeBench::FILE,
                serve::tests::passing().0.to_value(),
            ),
            (
                serve_obs::ServeObsBench::FILE,
                serve_obs::tests::passing().0.to_value(),
            ),
            (
                delta::DeltaBench::FILE,
                delta::tests::passing().0.to_value(),
            ),
            (
                probe::ProbeBench::FILE,
                probe::tests::passing().0.to_value(),
            ),
            (
                shard::ShardBench::FILE,
                shard::tests::passing().0.to_value(),
            ),
        ];
        for (file, doc) in files {
            std::fs::write(dir.join(file), serde_json::to_string(&doc).unwrap()).unwrap();
        }
    }

    fn keys(found: &[Violation]) -> Vec<(&'static str, &str)> {
        found.iter().map(|v| (v.file, v.key.as_str())).collect()
    }

    #[test]
    fn passing_reports_pass_the_gate() {
        let dir = scratch("all");
        write_all(&dir, &serde_json::parse(BASELINE_JSON).unwrap());
        assert_eq!(gate(&dir), vec![]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_are_violations() {
        let dir = scratch("none");
        assert_eq!(keys(&gate(&dir)), [(BASELINE, "(file)")]);
        std::fs::write(dir.join(BASELINE), BASELINE_JSON).unwrap();
        let found = gate(&dir);
        assert_eq!(found.len(), 8, "{found:#?}");
        assert!(found.iter().all(|v| v.key == "(file)"), "{found:#?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reports_names_every_file_the_gate_reads() {
        let dir = scratch("listed");
        std::fs::write(dir.join(BASELINE), BASELINE_JSON).unwrap();
        let missing: Vec<_> = gate(&dir).iter().map(|v| v.file).collect();
        assert_eq!(missing, REPORTS);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_baseline_section_is_required() {
        let dir = scratch("sections");
        let mut doc = serde_json::parse(BASELINE_JSON).unwrap();
        remove(&mut doc, "shard");
        remove(field(&mut doc, "probe"), "activity_top");
        remove(&mut doc, "compile_serial_us");
        write_all(&dir, &doc);
        let found = gate(&dir);
        let want = [
            (BASELINE, "compile_serial_us"),
            (BASELINE, "probe.activity_top"),
            (BASELINE, "shard"),
        ];
        assert_eq!(keys(&found), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn violations_name_file_key_value_and_bound() {
        let mut c = Checks::new("BENCH_x.json");
        c.at("points[5pct].");
        c.eq("divergences", 2, 0);
        c.at("");
        c.no_blowup("total_us", 30_000, 1_000);
        c.no_blowup("tiny_us", 30_000, 999);
        let shown: Vec<String> = c.done().iter().map(ToString::to_string).collect();
        assert_eq!(
            shown,
            [
                "BENCH_x.json: points[5pct].divergences = 2 (bound: == 0)",
                "BENCH_x.json: total_us = 30000 (bound: <= 20x baseline 1000)",
            ]
        );
    }
}
