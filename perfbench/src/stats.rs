//! Per-op samples of a timed loop and the statistics reported from them.

use std::time::{Duration, Instant};

/// Bucket `i > 0` of a `Histogram` holds values from
/// `MIN_US * exp((i - 1) / BUCKETS_PER_E)` up: about 1% apart, from 0.1 µs to
/// about 40 minutes.
const BUCKETS_PER_E: f64 = 100.0;
const MIN_US: f64 = 0.1;
const BUCKETS: usize = 2400;

/// Log-bucketed histogram of microsecond values, exact to about 1%. Its
/// memory is fixed however long a run lasts, so the harness's own records
/// do not grow the peak RSS it reports.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    /// Bucket 0 holds everything below `MIN_US` (zero waits among them).
    fn add(&mut self, us: f64) {
        let i = if us < MIN_US {
            0
        } else {
            1 + ((us / MIN_US).ln() * BUCKETS_PER_E) as usize
        };
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n as usize
    }

    fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile (`q` in 0..=1), as its bucket's midpoint;
    /// 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match i {
                    0 => 0.0,
                    _ => MIN_US * ((i as f64 - 0.5) / BUCKETS_PER_E).exp(),
                };
            }
        }
        0.0
    }
}

/// What one timed loop observed.
#[derive(Debug)]
pub struct Samples {
    /// Client latency: submit (or call) to checked result.
    pub latency: Histogram,
    /// Queue wait the server reported (0 for synchronous calls).
    pub wait: Histogram,
    /// Service time the server reported.
    pub service: Histogram,
    /// Client latency minus wait and service: submit, wake-up and copy.
    pub handoff: Histogram,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the whole loop.
    pub wall_s: f64,
    start: Instant,
}

impl Samples {
    /// An empty record whose clock starts now.
    pub fn new() -> Samples {
        Samples {
            latency: Histogram::new(),
            wait: Histogram::new(),
            service: Histogram::new(),
            handoff: Histogram::new(),
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            start: Instant::now(),
        }
    }

    /// Stop the clock: the loop's wall time.
    pub fn finish(&mut self) {
        self.wall_s = self.start.elapsed().as_secs_f64();
    }

    /// A completed op. A wrong answer still counts as attempted and keeps
    /// its latency: it misses every latency target.
    pub fn record(&mut self, latency: Duration, wait_us: u64, service_us: u64, ok: bool) {
        let latency_us = latency.as_secs_f64() * 1e6;
        let (wait_us, service_us) = (wait_us as f64, service_us as f64);
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.latency.add(latency_us);
        self.wait.add(wait_us);
        self.service.add(service_us);
        self.handoff.add(latency_us - wait_us - service_us);
    }

    /// An op that returned no outcome (refused or errored).
    pub fn record_error(&mut self, latency: Duration) {
        self.record(latency, 0, 0, false);
    }

    /// Add a later loop's record: its ops, and its wall time to this one's.
    pub fn merge(&mut self, other: &Samples) {
        self.latency.merge(&other.latency);
        self.wait.merge(&other.wait);
        self.service.merge(&other.service);
        self.handoff.merge(&other.handoff);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted values; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// How many of `n` samples lie above the nearest-rank `q` percentile — the
/// count a tail figure rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
