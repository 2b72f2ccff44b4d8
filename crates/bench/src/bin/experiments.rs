//! The experiment harness: regenerates every table and figure of the paper
//! and every BENCH report, and gates the reports.
//!
//! ```sh
//! cargo run --release -p mcfpga-bench --bin experiments -- all     # everything, in order
//! cargo run --release -p mcfpga-bench --bin experiments -- area45  # one experiment
//! cargo run --release -p mcfpga-bench --bin experiments -- gate    # check the BENCH reports
//! ```
//!
//! `gate` reads `BENCH_baseline.json` and the reports from the current
//! directory, prints every violation and exits 1 if there is any. `all`
//! first removes every report the gate reads, so none survives from an
//! earlier run. An experiment that panics is named, the rest still run,
//! and the harness then exits 1. An unknown id prints the list of ids.

use mcfpga_bench::{delta, flow, gate, paper, probe, serve, serve_obs, shard, sim};

/// Every experiment by id, in the order `all` runs them.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("table2", paper::table2),
    ("table1", paper::table1),
    ("fig3_5", paper::fig3_5),
    ("fig9", paper::fig9),
    ("fig12", paper::fig12),
    ("fig13_14", paper::fig13_14),
    ("area45", paper::area45),
    ("area37", paper::area37),
    ("sweep_change", paper::sweep_change),
    ("sweep_contexts", paper::sweep_contexts),
    ("delay", paper::delay),
    ("power", paper::power),
    ("flow", flow::run),
    ("fig12_adaptive", paper::fig12_adaptive),
    ("reconfig", paper::reconfig),
    ("faults", paper::faults),
    ("ablations", paper::ablations),
    ("temporal", paper::temporal),
    ("channel_width", paper::channel_width),
    ("sim", sim::run),
    ("serve", serve::run),
    ("serve_obs", serve_obs::run),
    ("delta", delta::run),
    ("probe", probe::run),
    ("shard", shard::run),
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if which == "gate" {
        let violations = gate::gate(std::path::Path::new("."));
        for v in &violations {
            println!("{v}");
        }
        if !violations.is_empty() {
            println!("gate: {} violation(s)", violations.len());
            std::process::exit(1);
        }
        println!("gate: every BENCH report holds against {}", gate::BASELINE);
        return;
    }
    let selected: Vec<(&str, fn())> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| which == "all" || which == *id)
        .copied()
        .collect();
    if selected.is_empty() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        eprintln!(
            "unknown experiment {which:?}; try: {} all gate",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    // `all` removes every gated report first, so one that a panicking
    // experiment leaves unwritten is missing and the gate names it, instead
    // of passing on an earlier run's file. A report that cannot be removed
    // cannot be rewritten either: its experiment's write fails and names it.
    if which == "all" {
        for file in gate::REPORTS {
            let _ = std::fs::remove_file(file);
        }
    }
    // A panicking experiment is named and the rest still run, so the gate
    // afterwards reports the real failure, not the reports it left unwritten.
    let mut failed = Vec::new();
    for (id, run) in selected {
        if std::panic::catch_unwind(run).is_err() {
            eprintln!("experiment {id} panicked");
            failed.push(id);
        }
    }
    if !failed.is_empty() {
        eprintln!(
            "{} experiment(s) failed: {}",
            failed.len(),
            failed.join(" ")
        );
        std::process::exit(1);
    }
}
