//! The simulated-annealing engine (VPR-style adaptive schedule).

use mcfpga_arch::Coord;
use mcfpga_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::problem::{BlockKind, PlacementProblem};

/// Annealer knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnnealOptions {
    pub seed: u64,
    /// Moves per temperature step, per block.
    pub moves_per_block: usize,
    /// Stop once the temperature falls to this absolute value. The
    /// schedule starts at `max(cost/nets, 1) / 4`, a quarter of the start
    /// placement's mean net HPWL.
    pub t_min_factor: f64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            seed: 0xF1A9,
            moves_per_block: 12,
            t_min_factor: 0.005,
        }
    }
}

/// A finished placement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Full-grid coordinate of every block.
    pub position: Vec<Coord>,
    /// Final HPWL cost.
    pub cost: u64,
}

impl Placement {
    /// Verify legality against a problem: logic on logic sites, I/O on ring
    /// sites, no two blocks sharing a site.
    pub fn validate(&self, problem: &PlacementProblem) -> Result<(), String> {
        if self.position.len() != problem.n_blocks() {
            return Err("position count mismatch".into());
        }
        let mut used = std::collections::HashSet::new();
        for (b, &pos) in self.position.iter().enumerate() {
            match problem.kinds[b] {
                BlockKind::Logic if !problem.grid.is_logic(pos) => {
                    return Err(format!("logic block {b} on non-logic site {pos}"));
                }
                BlockKind::Io if !problem.grid.is_io(pos) => {
                    return Err(format!("I/O block {b} off the ring at {pos}"));
                }
                _ => {}
            }
            if !used.insert(pos) {
                return Err(format!("two blocks share site {pos}"));
            }
        }
        Ok(())
    }
}

fn net_hpwl(net: &[usize], position: &[Coord]) -> u64 {
    // An empty net has no bounding box; without this guard the fold below
    // would leave min = u16::MAX, max = 0 and underflow in debug builds.
    if net.is_empty() {
        return 0;
    }
    let mut min_x = u16::MAX;
    let mut max_x = 0u16;
    let mut min_y = u16::MAX;
    let mut max_y = 0u16;
    for &b in net {
        let p = position[b];
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    (max_x - min_x) as u64 + (max_y - min_y) as u64
}

fn total_cost(problem: &PlacementProblem, position: &[Coord]) -> u64 {
    problem.nets.iter().map(|n| net_hpwl(n, position)).sum()
}

/// Rows of variable length in one flat array: row `i` is
/// `items[start[i]..start[i + 1]]`.
struct Csr {
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    fn new<'a>(rows: impl IntoIterator<Item = &'a [usize]>) -> Csr {
        let mut csr = Csr {
            start: vec![0],
            items: Vec::new(),
        };
        for row in rows {
            csr.items.extend_from_slice(row);
            csr.start.push(csr.items.len());
        }
        csr
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.items[self.start[i]..self.start[i + 1]]
    }
}

/// Probability of accepting a move that raises the cost by `delta > 0` at
/// temperature `t`.
fn accept_probability(delta: i64, t: f64) -> f64 {
    (-(delta as f64) / t).exp().min(1.0)
}

/// Uphill deltas below this get their acceptance probability cached.
const ACCEPT_CACHE: usize = 64;

/// [`accept_probability`] at one temperature, cached for small deltas: each
/// is computed on first use, so the values are exactly the uncached ones.
struct AcceptCache {
    t: f64,
    p: [f64; ACCEPT_CACHE],
}

impl AcceptCache {
    fn new(t: f64) -> AcceptCache {
        AcceptCache {
            t,
            p: [f64::NAN; ACCEPT_CACHE],
        }
    }

    fn get(&mut self, delta: i64) -> f64 {
        match self.p.get_mut(delta as usize) {
            Some(p) => {
                if p.is_nan() {
                    *p = accept_probability(delta, self.t);
                }
                *p
            }
            None => accept_probability(delta, self.t),
        }
    }
}

/// Occupancy marker of a site that holds no block.
const EMPTY: usize = usize::MAX;

/// Place a problem with simulated annealing. Deterministic in the seed.
pub fn place(problem: &PlacementProblem, opts: &AnnealOptions) -> Placement {
    place_with(problem, opts, &Recorder::disabled())
}

/// Delta entry point: place `problem`, reusing a stale placement when it is
/// provably still the answer.
///
/// Annealing is a deterministic pure function of `(problem, opts)` — the RNG
/// is seeded from `opts.seed` and every move decision follows from it — so
/// when the problem is identical to the one `stale_placement` was produced
/// from (with the same options, which the caller guarantees; compile
/// pipelines derive the seed from the context index, stable across
/// recompiles of the same slot), the stale placement *is* the cold result.
/// An incremental anneal seeded from the stale positions would converge to a
/// different (if equally good) placement and break downstream bit-identity,
/// which is why this is an equality-gated memo and not a warm restart.
///
/// Returns the placement plus whether the stale result was reused.
pub fn place_delta(
    problem: &PlacementProblem,
    opts: &AnnealOptions,
    stale_problem: &PlacementProblem,
    stale_placement: &Placement,
    rec: &Recorder,
) -> (Placement, bool) {
    if problem == stale_problem {
        rec.incr("place.delta_reused", 1);
        return (stale_placement.clone(), true);
    }
    (place_with(problem, opts, rec), false)
}

/// As [`place`], recording the annealing schedule into `rec`: a `place` span,
/// per-temperature-step acceptance statistics, and move counters. The result
/// is identical to [`place`] for the same problem and options.
pub fn place_with(problem: &PlacementProblem, opts: &AnnealOptions, rec: &Recorder) -> Placement {
    let _span = rec.span("place", &[]);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let logic_sites = problem.grid.logic_sites();
    let io_sites = problem.grid.io_sites();

    // Initial placement: blocks in site order.
    let mut position: Vec<Coord> = Vec::with_capacity(problem.n_blocks());
    let mut logic_cursor = 0usize;
    let mut io_cursor = 0usize;
    for kind in &problem.kinds {
        match kind {
            BlockKind::Logic => {
                position.push(logic_sites[logic_cursor]);
                logic_cursor += 1;
            }
            BlockKind::Io => {
                position.push(io_sites[io_cursor]);
                io_cursor += 1;
            }
        }
    }

    if problem.nets.is_empty() || problem.n_blocks() < 2 {
        let cost = total_cost(problem, &position);
        return Placement { position, cost };
    }

    // Flat state for the move loop: site -> block occupancy indexed by
    // `GridDim::index`, net -> pins and block -> nets as CSR rows, and each
    // net's HPWL, so a move's "before" cost is a sum of cached values.
    let grid = problem.grid.full;
    let mut occupant = vec![EMPTY; grid.n_cells()];
    for (b, &p) in position.iter().enumerate() {
        occupant[grid.index(p)] = b;
    }
    let pins = Csr::new(problem.nets.iter().map(Vec::as_slice));
    let mut nets_of: Vec<Vec<usize>> = vec![Vec::new(); problem.n_blocks()];
    for (ni, net) in problem.nets.iter().enumerate() {
        for &b in net {
            // A block listed twice on one net still touches it once.
            if nets_of[b].last() != Some(&ni) {
                nets_of[b].push(ni);
            }
        }
    }
    let nets_of = Csr::new(nets_of.iter().map(Vec::as_slice));
    let mut net_cost: Vec<u64> = (0..problem.nets.len())
        .map(|n| net_hpwl(pins.row(n), &position))
        .collect();
    let mut cost: u64 = net_cost.iter().sum();

    // Scratch for the move loop: the nets a move touches and their costs
    // after it. A swap lists a net that holds both blocks twice, which is
    // harmless: swapping two pins of one net leaves its set of pin
    // positions, and so its HPWL, unchanged, so each copy adds zero to the
    // delta and writes back the value already cached.
    let mut affected: Vec<usize> = Vec::with_capacity(16);
    let mut after_cost: Vec<u64> = Vec::with_capacity(16);

    // Initial temperature: a quarter of the mean net cost, and at least
    // 1/4. Hotter starts accept most of their first steps' moves and end no
    // better placed.
    let mut t = (cost as f64 / problem.nets.len() as f64).max(1.0) * 0.25;
    let t_min = opts.t_min_factor;
    let moves_per_t = opts.moves_per_block * problem.n_blocks();

    while t > t_min {
        let mut accepted = 0usize;
        let mut accept_p = AcceptCache::new(t);
        for _ in 0..moves_per_t {
            // Pick a block and a target site of the same kind.
            let b = rng.gen_range(0..problem.n_blocks());
            let target = match problem.kinds[b] {
                BlockKind::Logic => logic_sites[rng.gen_range(0..logic_sites.len())],
                BlockKind::Io => io_sites[rng.gen_range(0..io_sites.len())],
            };
            let old = position[b];
            if target == old {
                continue;
            }
            let target_site = grid.index(target);
            let other = occupant[target_site];
            affected.clear();
            affected.extend_from_slice(nets_of.row(b));
            if other != EMPTY {
                affected.extend_from_slice(nets_of.row(other));
            }
            let before: u64 = affected.iter().map(|&n| net_cost[n]).sum();
            // Apply, and cost the affected nets at the new positions.
            position[b] = target;
            if other != EMPTY {
                position[other] = old;
            }
            after_cost.clear();
            let mut after = 0u64;
            for &n in &affected {
                let c = net_hpwl(pins.row(n), &position);
                after_cost.push(c);
                after += c;
            }
            let delta = after as i64 - before as i64;
            let accept = delta <= 0 || rng.gen_bool(accept_p.get(delta));
            if accept {
                occupant[grid.index(old)] = other;
                occupant[target_site] = b;
                for (&n, &c) in affected.iter().zip(&after_cost) {
                    net_cost[n] = c;
                }
                cost = (cost as i64 + delta) as u64;
                accepted += 1;
            } else {
                // Revert.
                position[b] = old;
                if other != EMPTY {
                    position[other] = target;
                }
            }
        }
        // Adaptive cooling: cool faster when the acceptance rate strays from
        // the productive band (VPR's rule of thumb).
        let rate = accepted as f64 / moves_per_t as f64;
        rec.incr("anneal.temperature_steps", 1);
        rec.incr("place.moves_accepted", accepted as u64);
        rec.incr("place.moves_attempted", moves_per_t as u64);
        rec.observe("place.acceptance_rate", rate);
        rec.set_gauge("anneal.temperature", t);
        rec.instant(
            "anneal_step",
            &[
                ("temperature", t.into()),
                ("acceptance_rate", rate.into()),
                ("moves_accepted", (accepted as u64).into()),
                ("cost", cost.into()),
            ],
        );
        let alpha = if rate > 0.96 {
            0.5
        } else if rate > 0.8 {
            0.9
        } else if rate > 0.15 {
            0.95
        } else {
            0.8
        };
        t *= alpha;
    }
    debug_assert_eq!(cost, total_cost(problem, &position));
    Placement { position, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use mcfpga_arch::ArchSpec;
    use mcfpga_map::map_netlist;
    use mcfpga_netlist::{library, random_netlist, RandomNetlistParams};

    fn placed(circuit: mcfpga_netlist::Netlist, seed: u64) -> (PlacementProblem, Placement) {
        let arch = ArchSpec::paper_default();
        let mapped = map_netlist(&circuit, 6).unwrap();
        let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        let placement = place(
            &problem,
            &AnnealOptions {
                seed,
                ..Default::default()
            },
        );
        (problem, placement)
    }

    #[test]
    fn placements_are_legal() {
        for circuit in [library::adder(4), library::alu(4), library::multiplier(3)] {
            let (problem, placement) = placed(circuit, 1);
            placement.validate(&problem).unwrap();
        }
    }

    #[test]
    fn annealing_beats_the_initial_placement() {
        let arch = ArchSpec::paper_default();
        let mapped = map_netlist(&library::multiplier(3), 6).unwrap();
        let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        // Initial cost: blocks in site order.
        let sites = problem.grid.logic_sites();
        let ios = problem.grid.io_sites();
        let mut pos = Vec::new();
        let (mut lc, mut ic) = (0, 0);
        for k in &problem.kinds {
            match k {
                crate::problem::BlockKind::Logic => {
                    pos.push(sites[lc]);
                    lc += 1;
                }
                crate::problem::BlockKind::Io => {
                    pos.push(ios[ic]);
                    ic += 1;
                }
            }
        }
        let initial = super::total_cost(&problem, &pos);
        let placement = place(&problem, &AnnealOptions::default());
        assert!(
            placement.cost <= initial,
            "annealed {} vs initial {initial}",
            placement.cost
        );
    }

    #[test]
    fn empty_net_costs_zero_instead_of_underflowing() {
        // Regression: an empty net used to leave min = u16::MAX, max = 0 and
        // panic on `max - min` in debug builds.
        let positions = vec![Coord::new(3, 4), Coord::new(1, 2)];
        assert_eq!(super::net_hpwl(&[], &positions), 0);
        assert_eq!(super::net_hpwl(&[0], &positions), 0);
        assert_eq!(super::net_hpwl(&[0, 1], &positions), 4);
    }

    #[test]
    fn placement_is_deterministic_in_seed() {
        let (_, a) = placed(library::alu(4), 7);
        let (_, b) = placed(library::alu(4), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn reported_cost_matches_recomputation() {
        let (problem, placement) = placed(library::adder(6), 3);
        assert_eq!(
            placement.cost,
            super::total_cost(&problem, &placement.position)
        );
    }

    #[test]
    fn a_pin_listed_twice_changes_nothing() {
        // A net's HPWL ignores a repeated pin, and a block still touches such
        // a net once, so the anneal makes the same moves.
        let arch = ArchSpec::paper_default();
        let mapped = map_netlist(&library::alu(4), 6).unwrap();
        let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        let mut doubled = problem.clone();
        for net in &mut doubled.nets {
            net.push(net[net.len() - 1]);
        }
        let opts = AnnealOptions::default();
        assert_eq!(place(&doubled, &opts), place(&problem, &opts));
    }

    #[test]
    fn the_first_temperature_step_accepts_under_half_its_moves() {
        // The served compile's context shape, placed with each context's
        // seed: the schedule starts cool enough that the first step rejects
        // most moves (a start at twice the mean net HPWL accepted 70-90%).
        let arch = ArchSpec::paper_default();
        let params = RandomNetlistParams {
            n_inputs: 8,
            n_gates: 60,
            n_outputs: 8,
            dff_fraction: 0.10,
        };
        for seed in 0..32 {
            let netlist = random_netlist(params, seed);
            let mapped = map_netlist(&netlist, arch.lut.min_inputs).unwrap();
            let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
            for c in 0..4 {
                let rec = Recorder::enabled();
                let opts = AnnealOptions {
                    seed: 0xC0FFEE ^ c,
                    ..Default::default()
                };
                place_with(&problem, &opts, &rec);
                let events = rec.trace_events();
                let first = events.iter().find(|e| e.name == "anneal_step").unwrap();
                let rate = first.args.iter().find(|(k, _)| k == "acceptance_rate");
                let rate = rate.and_then(|(_, v)| v.as_f64()).unwrap();
                assert!(
                    rate < 0.5,
                    "netlist {seed}, context {c}: first step accepted {rate}"
                );
            }
        }
    }

    #[test]
    fn trivial_problem_places() {
        let arch = ArchSpec::paper_default();
        let mapped = map_netlist(&library::parity(4), 6).unwrap();
        let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        let placement = place(&problem, &AnnealOptions::default());
        placement.validate(&problem).unwrap();
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use mcfpga_arch::ArchSpec;
    use mcfpga_map::map_netlist;
    use mcfpga_netlist::{random_netlist, RandomNetlistParams};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Every random circuit places legally at every seed, and the
        /// reported cost matches recomputation.
        #[test]
        fn random_placements_are_legal(seed in 0u64..1000, anneal_seed in 0u64..1000) {
            let arch = ArchSpec::paper_default();
            let params = RandomNetlistParams {
                n_inputs: 6,
                n_gates: 50,
                n_outputs: 6,
                dff_fraction: 0.1,
            };
            let netlist = random_netlist(params, seed);
            let mapped = map_netlist(&netlist, 6).unwrap();
            let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
            let placement = place(
                &problem,
                &AnnealOptions {
                    seed: anneal_seed,
                    moves_per_block: 4, // keep the property run fast
                    ..Default::default()
                },
            );
            placement.validate(&problem).unwrap();
            prop_assert_eq!(placement.cost, super::total_cost(&problem, &placement.position));
        }
    }
}
