//! The simulated-annealing engine (VPR-style adaptive schedule).

use mcfpga_arch::Coord;
use mcfpga_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::problem::{BlockKind, PlacementProblem};

/// Annealer knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnnealOptions {
    pub seed: u64,
    /// Moves per temperature step, per block. Costing a move is O(1) per
    /// net its two blocks sit on, whatever those nets' pin counts (see
    /// [`place_with`]).
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
    net.iter()
        .fold(BBox::EMPTY, |bb, &b| bb.with(position[b]))
        .hpwl()
}

fn total_cost(problem: &PlacementProblem, position: &[Coord]) -> u64 {
    problem.nets.iter().map(|n| net_hpwl(n, position)).sum()
}

/// Rows of variable length in one flat array: row `i` is
/// `items[start[i]..start[i + 1]]`.
struct Csr<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    fn new<'a>(rows: impl IntoIterator<Item = &'a [T]>) -> Csr<T>
    where
        T: 'a,
    {
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

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i]..self.start[i + 1]]
    }
}

/// A bounding box over grid coordinates; `EMPTY` holds none.
#[derive(Debug, Clone, Copy)]
struct BBox {
    x0: u16,
    x1: u16,
    y0: u16,
    y1: u16,
}

impl BBox {
    const EMPTY: BBox = BBox {
        x0: u16::MAX,
        x1: 0,
        y0: u16::MAX,
        y1: 0,
    };

    /// The smallest box holding this one and `c`.
    fn with(self, c: Coord) -> BBox {
        BBox {
            x0: self.x0.min(c.x),
            x1: self.x1.max(c.x),
            y0: self.y0.min(c.y),
            y1: self.y1.max(c.y),
        }
    }

    /// The smallest box holding both.
    fn union(self, o: BBox) -> BBox {
        BBox {
            x0: self.x0.min(o.x0),
            x1: self.x1.max(o.x1),
            y0: self.y0.min(o.y0),
            y1: self.y1.max(o.y1),
        }
    }

    /// Half perimeter of a non-empty box.
    fn hpwl(self) -> u64 {
        (self.x1 - self.x0) as u64 + (self.y1 - self.y0) as u64
    }
}

/// A block's place on one of its nets: the net, and the bounding box of
/// the net's *other* blocks. With the block at `c`, the net's box is
/// `others.with(c)`, so costing a move is O(1) per net whatever the net's
/// pin count.
#[derive(Debug, Clone, Copy)]
struct Membership {
    net: usize,
    others: BBox,
}

/// Every net's exact bounding-box state for the move loop. Row `b` of
/// `rows` holds block `b`'s memberships in net order; `members` lists each
/// net's distinct blocks with the index of their membership in `rows`.
/// `stamp`, `on_other` and `other_change` mark the nets of a move's second
/// block, so a net holding both blocks is costed once.
struct Nets {
    rows: Csr<Membership>,
    members: Csr<(usize, usize)>,
    cost: Vec<u64>,
    stamp: u64,
    on_other: Vec<u64>,
    other_change: Vec<i64>,
}

impl Nets {
    fn new(problem: &PlacementProblem, position: &[Coord]) -> Nets {
        let mut rows: Vec<Vec<Membership>> = vec![Vec::new(); problem.n_blocks()];
        for (net, pins) in problem.nets.iter().enumerate() {
            for &b in pins {
                // A block listed twice on one net is one member of it.
                if rows[b].last().map(|m| m.net) != Some(net) {
                    rows[b].push(Membership {
                        net,
                        others: BBox::EMPTY,
                    });
                }
            }
        }
        // The phantom block's row: it sits on no net.
        rows.push(Vec::new());
        let rows = Csr::new(rows.iter().map(Vec::as_slice));
        let mut members: Vec<Vec<(usize, usize)>> = vec![Vec::new(); problem.nets.len()];
        for b in 0..problem.n_blocks() {
            for i in rows.start[b]..rows.start[b + 1] {
                members[rows.items[i].net].push((b, i));
            }
        }
        let n_nets = problem.nets.len();
        let mut nets = Nets {
            rows,
            members: Csr::new(members.iter().map(Vec::as_slice)),
            cost: vec![0; n_nets],
            stamp: 0,
            on_other: vec![0; n_nets],
            other_change: vec![0; n_nets],
        };
        for net in 0..n_nets {
            nets.refresh(net, position);
        }
        nets
    }

    /// Recompute `net`'s HPWL and its members' boxes from `position`: each
    /// member's box is the union of the boxes of the members before it and
    /// after it, one pass each way, so O(the net's blocks).
    fn refresh(&mut self, net: usize, position: &[Coord]) {
        let Nets {
            rows,
            members,
            cost,
            ..
        } = self;
        let members = members.row(net);
        let mut before = BBox::EMPTY;
        for &(b, i) in members {
            rows.items[i].others = before;
            before = before.with(position[b]);
        }
        let mut after = BBox::EMPTY;
        for &(b, i) in members.iter().rev() {
            let others = &mut rows.items[i].others;
            *others = others.union(after);
            after = after.with(position[b]);
        }
        cost[net] = if members.is_empty() { 0 } else { after.hpwl() };
    }

    /// The change in total HPWL were block `b` moved from `old` to `target`
    /// and block `other` from `target` to `old`; nothing is written but the
    /// marks of `other`'s nets. Each loop's length is known as soon as the
    /// blocks are, which keeps the move loop's branches cheap.
    fn swap_delta(&mut self, b: usize, other: usize, old: Coord, target: Coord) -> i64 {
        self.stamp += 1;
        let mut delta = 0i64;
        for m in self.rows.row(other) {
            let change = m.others.with(old).hpwl() as i64 - self.cost[m.net] as i64;
            self.on_other[m.net] = self.stamp;
            self.other_change[m.net] = change;
            delta += change;
        }
        for m in self.rows.row(b) {
            // A net holding both blocks keeps its set of pin sites, and so
            // its HPWL: take back the change counted for `other`.
            delta += if self.on_other[m.net] == self.stamp {
                -self.other_change[m.net]
            } else {
                m.others.with(target).hpwl() as i64 - self.cost[m.net] as i64
            };
        }
        delta
    }

    /// Bring the nets of `b` and `other` up to date with `position`, after
    /// the swap [`Nets::swap_delta`] last costed was made.
    fn apply_swap(&mut self, b: usize, other: usize, position: &[Coord]) {
        // `other`'s nets include those holding both blocks: their HPWL is
        // unchanged, but two of their members moved, so their boxes are
        // stale.
        for i in self.rows.start[other]..self.rows.start[other + 1] {
            self.refresh(self.rows.items[i].net, position);
        }
        for i in self.rows.start[b]..self.rows.start[b + 1] {
            let net = self.rows.items[i].net;
            if self.on_other[net] != self.stamp {
                self.refresh(net, position);
            }
        }
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

/// The start placement: blocks in site order.
fn start_positions(
    problem: &PlacementProblem,
    logic_sites: &[Coord],
    io_sites: &[Coord],
) -> Vec<Coord> {
    let (mut logic, mut io) = (logic_sites.iter(), io_sites.iter());
    problem
        .kinds
        .iter()
        .map(|kind| match kind {
            BlockKind::Logic => *logic.next().expect("a logic site per logic block"),
            BlockKind::Io => *io.next().expect("an I/O site per I/O block"),
        })
        .collect()
}

/// Initial temperature: a quarter of the mean net cost, and at least 1/4.
/// Hotter starts accept most of their first steps' moves and end no better
/// placed.
fn start_temperature(cost: u64, n_nets: usize) -> f64 {
    (cost as f64 / n_nets as f64).max(1.0) * 0.25
}

/// Adaptive cooling: cool faster when the acceptance rate strays from the
/// productive band (VPR's rule of thumb).
fn cooling_factor(rate: f64) -> f64 {
    if rate > 0.96 {
        0.5
    } else if rate > 0.8 {
        0.9
    } else if rate > 0.15 {
        0.95
    } else {
        0.8
    }
}

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
///
/// A move picks a block and a target site of its kind and swaps the block
/// with the site's occupant; an empty site holds a phantom block that sits
/// on no net, so every move is a swap. Each block keeps, per net it sits
/// on, the exact bounding box of that net's other blocks, so costing a move
/// is O(1) per net the two blocks sit on, whatever those nets' pin counts,
/// and a rejected move writes no position. An accepted move recomputes its
/// nets' boxes, O(their blocks).
pub fn place_with(problem: &PlacementProblem, opts: &AnnealOptions, rec: &Recorder) -> Placement {
    let _span = rec.span("place", &[]);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let logic_sites = problem.grid.logic_sites();
    let io_sites = problem.grid.io_sites();
    let mut position = start_positions(problem, &logic_sites, &io_sites);

    if problem.nets.is_empty() || problem.n_blocks() < 2 {
        let cost = total_cost(problem, &position);
        return Placement { position, cost };
    }

    // Flat state for the move loop: site -> block occupancy indexed by
    // `GridDim::index`, and every net's bounding-box state. Block `phantom`
    // fills every empty site: it sits on no net, so a move to an empty site
    // is a swap too, and its position is scratch.
    let grid = problem.grid.full;
    let n_blocks = problem.n_blocks();
    let phantom = n_blocks;
    position.push(Coord::new(0, 0));
    let mut occupant = vec![phantom; grid.n_cells()];
    for (b, &p) in position[..n_blocks].iter().enumerate() {
        occupant[grid.index(p)] = b;
    }
    let mut nets = Nets::new(problem, &position);
    let mut cost: u64 = nets.cost.iter().sum();

    let mut t = start_temperature(cost, problem.nets.len());
    let t_min = opts.t_min_factor;
    let moves_per_t = opts.moves_per_block * n_blocks;

    while t > t_min {
        let mut accepted = 0usize;
        let mut accept_p = AcceptCache::new(t);
        for _ in 0..moves_per_t {
            // Pick a block and a target site of the same kind. Each pick is
            // `Rng::gen_range(0..len)`'s draw: one `next_u64`, reduced mod len.
            let b = (rng.next_u64() % n_blocks as u64) as usize;
            let sites = match problem.kinds[b] {
                BlockKind::Logic => &logic_sites,
                BlockKind::Io => &io_sites,
            };
            let target = sites[(rng.next_u64() % sites.len() as u64) as usize];
            let old = position[b];
            if target == old {
                continue;
            }
            let target_site = grid.index(target);
            let other = occupant[target_site];
            let delta = nets.swap_delta(b, other, old, target);
            let accept = delta <= 0 || rng.gen_bool(accept_p.get(delta));
            if accept {
                position[b] = target;
                position[other] = old;
                occupant[grid.index(old)] = other;
                occupant[target_site] = b;
                nets.apply_swap(b, other, &position);
                cost = (cost as i64 + delta) as u64;
                accepted += 1;
            }
        }
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
        t *= cooling_factor(rate);
    }
    position.truncate(n_blocks);
    debug_assert_eq!(cost, total_cost(problem, &position));
    Placement { position, cost }
}

/// The move loop before nets kept bounding-box state, kept as the reference
/// [`place`] must match draw for draw: a move writes both blocks' positions,
/// recosts every affected net pin by pin, and reverts a rejected move.
#[cfg(test)]
fn reference_place(problem: &PlacementProblem, opts: &AnnealOptions) -> Placement {
    /// Occupancy marker of a site that holds no block.
    const EMPTY: usize = usize::MAX;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let logic_sites = problem.grid.logic_sites();
    let io_sites = problem.grid.io_sites();
    let mut position = start_positions(problem, &logic_sites, &io_sites);
    if problem.nets.is_empty() || problem.n_blocks() < 2 {
        let cost = total_cost(problem, &position);
        return Placement { position, cost };
    }
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
    // A swap lists a net that holds both blocks twice, which is harmless:
    // swapping two pins of one net leaves its set of pin positions, and so
    // its HPWL, unchanged, so each copy adds zero to the delta.
    let mut affected: Vec<usize> = Vec::with_capacity(16);
    let mut after_cost: Vec<u64> = Vec::with_capacity(16);
    let mut t = start_temperature(cost, problem.nets.len());
    let moves_per_t = opts.moves_per_block * problem.n_blocks();
    while t > opts.t_min_factor {
        let mut accepted = 0usize;
        let mut accept_p = AcceptCache::new(t);
        for _ in 0..moves_per_t {
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
                position[b] = old;
                if other != EMPTY {
                    position[other] = target;
                }
            }
        }
        t *= cooling_factor(accepted as f64 / moves_per_t as f64);
    }
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

    /// A problem from a random netlist sized to fit a `width x height`
    /// grid; `doubled` lists one pin of every net a second time.
    fn problem_on_grid(seed: u64, width: u16, height: u16, doubled: bool) -> PlacementProblem {
        let arch = ArchSpec::paper_default().with_grid(width, height);
        let grid = crate::problem::PlacementGrid::of(&arch);
        let (logic, io) = (grid.logic_sites().len(), grid.io_sites().len());
        let n_inputs = (io / 2).min(6);
        // A LUT realises one gate, so this many gates fill at most every
        // logic site.
        let params = RandomNetlistParams {
            n_inputs,
            n_gates: (logic * arch.lut.outputs).min(40),
            n_outputs: (io - n_inputs).min(4),
            dff_fraction: 0.1,
        };
        let mapped = map_netlist(&random_netlist(params, seed), arch.lut.min_inputs).unwrap();
        let mut problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        if doubled {
            for (i, net) in problem.nets.iter_mut().enumerate() {
                net.push(net[i % net.len()]);
            }
        }
        problem
    }

    #[test]
    fn a_grid_wider_than_64_columns_matches_the_reference() {
        for seed in 0..4 {
            for doubled in [false, true] {
                let problem = problem_on_grid(seed, 70, 3, doubled);
                let opts = AnnealOptions {
                    seed,
                    moves_per_block: 3,
                    ..Default::default()
                };
                assert_eq!(place(&problem, &opts), reference_place(&problem, &opts));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The move loop makes the reference's every draw and accept
        /// decision: the same placement and cost on any grid, schedule
        /// length and netlist, with or without a pin listed twice.
        #[test]
        fn place_matches_the_reference(
            seed in 0u64..1000,
            anneal_seed in 0u64..1000,
            moves_per_block in 1usize..=12,
            width in 2u16..=70,
            height in 2u16..=5,
            doubled in any::<bool>(),
        ) {
            let problem = problem_on_grid(seed, width, height, doubled);
            let opts = AnnealOptions {
                seed: anneal_seed,
                moves_per_block,
                ..Default::default()
            };
            let placement = place(&problem, &opts);
            placement.validate(&problem).unwrap();
            prop_assert_eq!(placement, reference_place(&problem, &opts));
        }
    }

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
