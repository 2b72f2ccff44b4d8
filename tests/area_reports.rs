//! Integration: the Section 5 numbers, their consistency, and the measured
//! vs analytic agreement.

use mcfpga::area::{
    area_comparison, static_power, AreaParams, ColumnDistribution, FabricWeights, PowerParams,
    Technology,
};
use mcfpga::netlist::{workload, RandomNetlistParams};
use mcfpga::prelude::*;

#[test]
fn headline_ratios_match_the_paper_region() {
    let eval = evaluate_paper_point();
    // Paper: 45% CMOS, 37% FePG. We accept the right neighbourhood and the
    // right ordering; exact transistor counts were never published.
    assert!(
        (eval.cmos.ratio - 0.45).abs() < 0.08,
        "CMOS {:.3}",
        eval.cmos.ratio
    );
    assert!(
        (eval.fepg.ratio - 0.37).abs() < 0.08,
        "FePG {:.3}",
        eval.fepg.ratio
    );
    assert!(eval.fepg.ratio < eval.cmos.ratio);
}

#[test]
fn analytic_distribution_agrees_with_sampling() {
    use mcfpga::config::random_column;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let ctx = ContextId::new(4).unwrap();
    let dist = ColumnDistribution::new(ctx, 0.05);
    let analytic = dist.expected_ses();
    let mut rng = StdRng::seed_from_u64(4);
    let sampled: f64 = (0..40_000)
        .map(|_| {
            mcfpga::rcm::synthesize(random_column(ctx, 0.05, &mut rng), ctx)
                .cost()
                .n_ses as f64
        })
        .sum::<f64>()
        / 40_000.0;
    assert!(
        (analytic - sampled).abs() < 0.03,
        "analytic {analytic:.3} vs sampled {sampled:.3}"
    );
}

#[test]
fn measured_device_ratio_is_consistent() {
    let arch = ArchSpec::paper_default();
    let params = AreaParams::paper_default();
    let weights = FabricWeights::default();
    let w = workload(RandomNetlistParams::default(), 4, 0.05, 321);
    let dev = MultiDevice::compile_aligned(&arch, &w).unwrap();
    for tech in [Technology::Cmos, Technology::Fepg] {
        let measured = measured_area_comparison(&dev, tech, &params, &weights);
        assert!(measured.ratio > 0.0 && measured.ratio < 1.0);
        assert!(
            (measured.proposed_switches + measured.proposed_lb - measured.proposed_cell).abs()
                < 1e-9
        );
    }
}

#[test]
fn fepg_strictly_dominates_cmos_everywhere() {
    let arch = ArchSpec::paper_default();
    let params = AreaParams::paper_default();
    let weights = FabricWeights::default();
    for r in [0.0, 0.05, 0.2, 0.5, 1.0] {
        let cmos = area_comparison(&arch, r, Technology::Cmos, &params, &weights);
        let fepg = area_comparison(&arch, r, Technology::Fepg, &params, &weights);
        assert!(fepg.ratio < cmos.ratio, "r={r}");
    }
}

#[test]
fn power_hierarchy_holds() {
    // conventional > proposed CMOS > proposed FePG, at the paper's point.
    let arch = ArchSpec::paper_default();
    let pp = PowerParams::default();
    let weights = FabricWeights::default();
    let cmos = static_power(&arch, 0.05, Technology::Cmos, &pp, &weights);
    let fepg = static_power(&arch, 0.05, Technology::Fepg, &pp, &weights);
    assert!(cmos.proposed < cmos.conventional);
    assert!(fepg.proposed < cmos.proposed);
    assert_eq!(cmos.conventional, fepg.conventional);
}

#[test]
fn context_scaling_shape() {
    // The advantage deepens from 2 to 4 contexts (the paper's regime).
    let params = AreaParams::paper_default();
    let weights = FabricWeights::default();
    let r2 = area_comparison(
        &ArchSpec::paper_default().with_contexts(2),
        0.05,
        Technology::Cmos,
        &params,
        &weights,
    );
    let r4 = area_comparison(
        &ArchSpec::paper_default(),
        0.05,
        Technology::Cmos,
        &params,
        &weights,
    );
    assert!(r4.ratio < r2.ratio);
}
