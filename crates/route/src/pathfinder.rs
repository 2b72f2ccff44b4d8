//! PathFinder negotiated-congestion routing.
//!
//! Classic scheme with an incremental twist: nets are routed with edge costs
//! `delay * (1 + present_overuse * p) + history`, where history accumulates
//! on persistently congested edges. After the first full routing pass, only
//! nets whose trees touch an overused edge are ripped up and re-routed each
//! iteration (the classic rip-up-everything behaviour remains available via
//! [`RouteOptions::full_ripup`]). Iteration stops when no edge exceeds its
//! capacity.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use mcfpga_arch::Coord;
use mcfpga_obs::Recorder;
use serde::{Deserialize, Serialize};

use crate::graph::{EdgeId, RoutingGraph};

/// One net to route.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    pub source: Coord,
    pub sinks: Vec<Coord>,
}

/// Router knobs.
///
/// `#[non_exhaustive]`: build with `Default` plus the `with_*` setters so
/// future knobs land without breaking downstream crates:
///
/// ```
/// use mcfpga_route::RouteOptions;
/// let opts = RouteOptions::default()
///     .with_max_iterations(60)
///     .with_full_ripup(true);
/// assert_eq!(opts.max_iterations, 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct RouteOptions {
    pub max_iterations: usize,
    /// Present-congestion multiplier growth per iteration.
    pub present_growth: f64,
    /// History increment for overused edges.
    pub history_increment: f64,
    /// Rip up *every* net each iteration (the textbook PathFinder schedule)
    /// instead of only the nets whose trees touch an overused edge. The
    /// incremental default converges to the same legality guarantee — an
    /// overused edge is by definition on some net's tree, so congestion can
    /// never outlive the nets causing it — while re-routing far fewer nets
    /// per iteration on lightly congested fabrics.
    pub full_ripup: bool,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            max_iterations: 40,
            present_growth: 1.6,
            history_increment: 1.0,
            full_ripup: false,
        }
    }
}

impl RouteOptions {
    /// Negotiation-iteration cap before the router gives up.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Present-congestion multiplier growth per iteration.
    pub fn with_present_growth(mut self, present_growth: f64) -> Self {
        self.present_growth = present_growth;
        self
    }

    /// History increment for overused edges.
    pub fn with_history_increment(mut self, history_increment: f64) -> Self {
        self.history_increment = history_increment;
        self
    }

    /// Rip up every net each iteration (textbook PathFinder schedule).
    pub fn with_full_ripup(mut self, full_ripup: bool) -> Self {
        self.full_ripup = full_ripup;
        self
    }
}

/// Routing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// Congestion never resolved.
    Unroutable { overused_edges: usize },
    /// A sink could not be reached at all (disconnected graph).
    NoPath { net: usize, sink: Coord },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Unroutable { overused_edges } => {
                write!(f, "congestion unresolved: {overused_edges} edges overused")
            }
            RouteError::NoPath { net, sink } => {
                write!(f, "net {net} cannot reach sink {sink}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A routed context: per net, the set of edges forming its routing tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedContext {
    pub nets: Vec<Net>,
    /// Edge sets per net (a routing tree over the graph).
    pub trees: Vec<Vec<EdgeId>>,
    /// Per-net worst source-to-sink delay.
    pub delays: Vec<f64>,
    /// Iterations PathFinder needed.
    pub iterations: usize,
    /// Whether congestion fully resolved within the iteration budget. When
    /// false, `trees` holds the final (still congested) attempt.
    pub converged: bool,
    /// Edges still over capacity in the final iteration (0 when converged).
    pub overused_edges: usize,
    /// Final per-edge occupancy: sparse `(edge, uses)` pairs, ascending by
    /// edge id, for every edge on at least one routing tree — the raw
    /// signal behind congestion heatmaps ([`crate::CongestionMap`]).
    pub edge_occupancy: Vec<(EdgeId, usize)>,
    /// Final PathFinder history cost: sparse `(edge, cost)` pairs, ascending
    /// by edge id, for every edge that accumulated history — the edges the
    /// negotiation repeatedly fought over, even if the final routing no
    /// longer overuses them.
    pub edge_history: Vec<(EdgeId, f64)>,
}

impl RoutedContext {
    /// Total wirelength in edges.
    pub fn total_edges(&self) -> usize {
        self.trees.iter().map(|t| t.len()).sum()
    }

    /// Critical-path routing delay (worst net).
    pub fn critical_delay(&self) -> f64 {
        self.delays.iter().copied().fold(0.0, f64::max)
    }

    /// Turn a non-converged result into the classic `Unroutable` error, for
    /// callers (like device compilation) that cannot use a congested routing.
    pub fn require_converged(self) -> Result<RoutedContext, RouteError> {
        if self.converged {
            Ok(self)
        } else {
            Err(RouteError::Unroutable {
                overused_edges: self.overused_edges,
            })
        }
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Reusable Dijkstra state, generation-stamped so successive searches skip
/// the O(V) reset: a node's `dist`/`via` entries are only meaningful when its
/// stamp matches the current generation.
struct DijkstraScratch {
    dist: Vec<f64>,
    via: Vec<Option<(usize, EdgeId)>>,
    stamp: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<HeapEntry>,
    /// Node membership of the net currently being routed (cleared per net).
    in_tree: Vec<bool>,
}

impl DijkstraScratch {
    fn new(n_nodes: usize) -> DijkstraScratch {
        DijkstraScratch {
            dist: vec![f64::INFINITY; n_nodes],
            via: vec![None; n_nodes],
            stamp: vec![0; n_nodes],
            generation: 0,
            heap: BinaryHeap::new(),
            in_tree: vec![false; n_nodes],
        }
    }

    /// Start a fresh search: bump the generation instead of clearing arrays.
    fn begin_search(&mut self) {
        self.generation += 1;
        self.heap.clear();
    }

    fn touch(&mut self, node: usize) {
        if self.stamp[node] != self.generation {
            self.stamp[node] = self.generation;
            self.dist[node] = f64::INFINITY;
            self.via[node] = None;
        }
    }

    fn dist(&self, node: usize) -> f64 {
        if self.stamp[node] == self.generation {
            self.dist[node]
        } else {
            f64::INFINITY
        }
    }

    fn via(&self, node: usize) -> Option<(usize, EdgeId)> {
        if self.stamp[node] == self.generation {
            self.via[node]
        } else {
            None
        }
    }
}

/// Delta entry point: route `nets`, reusing a stale [`RoutedContext`] when
/// it is provably still the answer.
///
/// PathFinder is a deterministic pure function of `(graph, nets, opts)` —
/// net selection, rip-up, and re-route all run in net-index order with no
/// randomness — so when the nets are identical to the ones `stale` was
/// routed from (on the same graph, with the same options, which the caller
/// guarantees), the stale trees *are* the cold result and can be returned
/// verbatim. Anything weaker breaks bit-identity: warm-starting the
/// negotiation from stale trees changes the congestion history and yields a
/// legal-but-different routing, which is why this entry point is an
/// equality-gated memo and not a seeded re-negotiation.
///
/// Returns the routed context plus whether the stale result was reused.
/// Reuse additionally requires `stale.converged` (a congested stale attempt
/// is re-routed from scratch so the caller sees the normal error path).
pub fn route_context_delta(
    graph: &RoutingGraph,
    nets: &[Net],
    opts: &RouteOptions,
    stale: &RoutedContext,
    rec: &Recorder,
) -> Result<(RoutedContext, bool), RouteError> {
    if stale.converged && stale.nets == nets {
        rec.incr("route.delta_reused", 1);
        return Ok((stale.clone(), true));
    }
    route_context_with(graph, nets, opts, rec).map(|r| (r, false))
}

/// Route one context's nets on the graph (no instrumentation).
pub fn route_context(
    graph: &RoutingGraph,
    nets: &[Net],
    opts: &RouteOptions,
) -> Result<RoutedContext, RouteError> {
    route_context_with(graph, nets, opts, &Recorder::disabled())
}

/// Route one context's nets, recording per-iteration congestion into `rec`.
///
/// Exhausting `max_iterations` with congestion left is NOT an error: the
/// final attempt is returned with `converged == false` and the residual
/// `overused_edges` count, so callers can inspect or report the near-miss.
/// Use [`RoutedContext::require_converged`] where a congested routing is
/// unusable. `Err` is reserved for structurally unreachable sinks.
pub fn route_context_with(
    graph: &RoutingGraph,
    nets: &[Net],
    opts: &RouteOptions,
    rec: &Recorder,
) -> Result<RoutedContext, RouteError> {
    let _span = rec.span("route");
    let n_edges = graph.edges.len();
    let mut usage = vec![0usize; n_edges];
    let mut history = vec![0.0f64; n_edges];
    let mut trees: Vec<Vec<EdgeId>> = vec![Vec::new(); nets.len()];
    let mut present_factor = 0.6;
    let mut overused = 0usize;
    let mut scratch = DijkstraScratch::new(graph.n_nodes());
    let mut reroute: Vec<usize> = Vec::with_capacity(nets.len());

    for iteration in 0..opts.max_iterations {
        // Select the nets to rip up: everything on the first pass (or in
        // full-rip-up mode), otherwise only nets whose current tree touches
        // an overused edge. Selection and re-routing both run in net-index
        // order, so the schedule is deterministic.
        reroute.clear();
        if iteration == 0 || opts.full_ripup {
            reroute.extend(0..nets.len());
        } else {
            for (ni, tree) in trees.iter().enumerate() {
                if tree.iter().any(|&e| usage[e] > graph.edges[e].capacity) {
                    reroute.push(ni);
                }
            }
        }
        for &ni in &reroute {
            for &e in &trees[ni] {
                usage[e] -= 1;
            }
            trees[ni].clear();
        }
        for &ni in &reroute {
            let tree = route_net(
                graph,
                &nets[ni],
                &usage,
                &history,
                present_factor,
                &mut scratch,
            )
            .map_err(|sink| RouteError::NoPath { net: ni, sink })?;
            for &e in &tree {
                usage[e] += 1;
            }
            trees[ni] = tree;
        }
        rec.incr("route.nets_rerouted", reroute.len() as u64);
        // Congestion check.
        overused = 0;
        for e in 0..n_edges {
            if usage[e] > graph.edges[e].capacity {
                overused += 1;
                history[e] += opts.history_increment;
            }
        }
        rec.incr("route.iterations", 1);
        rec.observe("route.overuse_per_iteration", overused as f64);
        rec.instant(
            "route_iteration",
            &[
                ("iteration", iteration.into()),
                ("nets_rerouted", reroute.len().into()),
                ("overused_edges", overused.into()),
            ],
        );
        if overused == 0 {
            return Ok(finish(
                graph,
                nets,
                trees,
                &usage,
                &history,
                iteration + 1,
                0,
            ));
        }
        present_factor *= opts.present_growth;
    }
    rec.incr("route.nonconverged_contexts", 1);
    rec.incr("route.overused_edges", overused as u64);
    Ok(finish(
        graph,
        nets,
        trees,
        &usage,
        &history,
        opts.max_iterations,
        overused,
    ))
}

/// Assemble the final [`RoutedContext`] from the surviving trees, exporting
/// the negotiation's per-edge occupancy and history as sparse pairs.
fn finish(
    graph: &RoutingGraph,
    nets: &[Net],
    trees: Vec<Vec<EdgeId>>,
    usage: &[usize],
    history: &[f64],
    iterations: usize,
    overused: usize,
) -> RoutedContext {
    let mut edge_mark = vec![false; graph.edges.len()];
    let delays = nets
        .iter()
        .zip(&trees)
        .map(|(net, tree)| tree_delay(graph, net, tree, &mut edge_mark))
        .collect();
    let edge_occupancy = usage
        .iter()
        .enumerate()
        .filter(|(_, &u)| u > 0)
        .map(|(e, &u)| (e, u))
        .collect();
    let edge_history = history
        .iter()
        .enumerate()
        .filter(|(_, &h)| h > 0.0)
        .map(|(e, &h)| (e, h))
        .collect();
    RoutedContext {
        nets: nets.to_vec(),
        trees,
        delays,
        iterations,
        converged: overused == 0,
        overused_edges: overused,
        edge_occupancy,
        edge_history,
    }
}

/// Route one net: grow a tree from the source, adding sinks one at a time
/// with Dijkstra from the whole current tree (zero cost inside the tree).
fn route_net(
    graph: &RoutingGraph,
    net: &Net,
    usage: &[usize],
    history: &[f64],
    present_factor: f64,
    scratch: &mut DijkstraScratch,
) -> Result<Vec<EdgeId>, Coord> {
    let mut tree_edges: Vec<EdgeId> = Vec::new();
    let src = graph.node(net.source);
    let mut tree_nodes: Vec<usize> = vec![src];
    scratch.in_tree[src] = true;
    let mut result = Ok(());
    for &sink in &net.sinks {
        let target = graph.node(sink);
        if scratch.in_tree[target] {
            continue;
        }
        // Dijkstra seeded with every tree node at cost 0.
        scratch.begin_search();
        for &n in &tree_nodes {
            scratch.touch(n);
            scratch.dist[n] = 0.0;
            scratch.heap.push(HeapEntry { cost: 0.0, node: n });
        }
        while let Some(HeapEntry { cost, node }) = scratch.heap.pop() {
            if cost > scratch.dist(node) {
                continue;
            }
            if node == target {
                break;
            }
            for &e in graph.incident(node) {
                let info = &graph.edges[e];
                let over = (usage[e] + 1).saturating_sub(info.capacity) as f64;
                let edge_cost = info.delay * (1.0 + over * present_factor) + history[e];
                let next = graph.other_end(e, node);
                let nd = cost + edge_cost;
                if nd < scratch.dist(next) {
                    scratch.touch(next);
                    scratch.dist[next] = nd;
                    scratch.via[next] = Some((node, e));
                    scratch.heap.push(HeapEntry {
                        cost: nd,
                        node: next,
                    });
                }
            }
        }
        if scratch.dist(target).is_infinite() {
            result = Err(sink);
            break;
        }
        // Walk back to the tree, adding nodes and edges. Termination
        // invariant: `via` is `None` exactly at this search's seed nodes —
        // they start at distance 0 and every edge cost is strictly positive,
        // so no relaxation ever overwrites a seed's `via`. The walk
        // therefore stops at the first node already in the tree (which may
        // be an earlier sink's branch point, not necessarily the source).
        let mut cur = target;
        while let Some((prev, e)) = scratch.via(cur) {
            tree_edges.push(e);
            tree_nodes.push(cur);
            scratch.in_tree[cur] = true;
            cur = prev;
        }
        debug_assert!(scratch.in_tree[cur], "walk-back must end on the tree");
    }
    // The membership flags are scratch shared across nets; clear them before
    // handing control back.
    for &n in &tree_nodes {
        scratch.in_tree[n] = false;
    }
    result?;
    tree_edges.sort_unstable();
    tree_edges.dedup();
    Ok(tree_edges)
}

/// Worst source-to-sink delay through a routed tree. `edge_mark` is a
/// caller-provided scratch of size `graph.edges.len()`, false on entry and
/// restored to false on exit (O(tree) membership instead of O(tree) scans
/// per edge).
fn tree_delay(graph: &RoutingGraph, net: &Net, tree: &[EdgeId], edge_mark: &mut [bool]) -> f64 {
    for &e in tree {
        edge_mark[e] = true;
    }
    // BFS/Dijkstra restricted to tree edges.
    let src = graph.node(net.source);
    let mut dist = vec![f64::INFINITY; graph.n_nodes()];
    dist[src] = 0.0;
    let mut frontier = vec![src];
    while let Some(node) = frontier.pop() {
        for &e in graph.incident(node) {
            if !edge_mark[e] {
                continue;
            }
            let next = graph.other_end(e, node);
            let nd = dist[node] + graph.edges[e].delay;
            if nd < dist[next] {
                dist[next] = nd;
                frontier.push(next);
            }
        }
    }
    for &e in tree {
        edge_mark[e] = false;
    }
    net.sinks
        .iter()
        .map(|&s| dist[graph.node(s)])
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_arch::ArchSpec;

    fn graph() -> RoutingGraph {
        RoutingGraph::build(&ArchSpec::paper_default())
    }

    #[test]
    fn single_net_routes_directly() {
        let g = graph();
        let nets = vec![Net {
            source: Coord::new(1, 1),
            sinks: vec![Coord::new(5, 1)],
        }];
        let routed = route_context(&g, &nets, &RouteOptions::default()).unwrap();
        assert_eq!(routed.iterations, 1);
        assert!(!routed.trees[0].is_empty());
        // Double-length lines make the 4-cell hop cheaper than 4 singles.
        assert!(routed.delays[0] <= 4.0 * crate::graph::SINGLE_HOP_DELAY);
    }

    #[test]
    fn multi_sink_nets_form_trees() {
        let g = graph();
        let nets = vec![Net {
            source: Coord::new(4, 4),
            sinks: vec![Coord::new(1, 1), Coord::new(8, 8), Coord::new(1, 8)],
        }];
        let routed = route_context(&g, &nets, &RouteOptions::default()).unwrap();
        let tree = &routed.trees[0];
        // A tree visiting all corners is larger than any single path but
        // smaller than three independent paths.
        assert!(tree.len() >= 7);
        assert!(routed.delays[0] > 0.0);
    }

    #[test]
    fn walk_back_stops_at_the_existing_tree_not_the_source() {
        // Source in a corner, two sinks stacked far away: the second sink's
        // walk-back must graft onto the first sink's branch instead of
        // retracing a full independent path from the source.
        let g = graph();
        let source = Coord::new(1, 1);
        let near = Coord::new(8, 1);
        let far = Coord::new(8, 3);
        let nets = vec![Net {
            source,
            sinks: vec![near, far],
        }];
        let routed = route_context(&g, &nets, &RouteOptions::default()).unwrap();
        let tree = &routed.trees[0];
        // An independent path to each sink costs at least 7 + 9 cells of
        // wire; sharing the horizontal run bounds the tree well below that.
        let independent = route_context(
            &g,
            &[
                Net {
                    source,
                    sinks: vec![near],
                },
                Net {
                    source,
                    sinks: vec![far],
                },
            ],
            &RouteOptions::default(),
        )
        .unwrap();
        let independent_edges: usize = independent.trees.iter().map(|t| t.len()).sum();
        assert!(
            tree.len() < independent_edges,
            "tree {} edges vs {} for two independent paths: second sink did \
             not reuse the existing tree",
            tree.len(),
            independent_edges
        );
        // And the shared tree still reaches both sinks (delays finite).
        assert!(routed.delays[0].is_finite() && routed.delays[0] > 0.0);
    }

    #[test]
    fn congestion_resolves_under_pressure() {
        // Many parallel nets crossing the same column must spread across
        // tracks and rows.
        let g = graph();
        let nets: Vec<Net> = (1..=8)
            .map(|y| Net {
                source: Coord::new(1, y),
                sinks: vec![Coord::new(8, y)],
            })
            .collect();
        let routed = route_context(&g, &nets, &RouteOptions::default()).unwrap();
        // Capacity check: recompute usage.
        let mut usage = vec![0usize; g.edges.len()];
        for t in &routed.trees {
            for &e in t {
                usage[e] += 1;
            }
        }
        for (e, &u) in usage.iter().enumerate() {
            assert!(u <= g.edges[e].capacity, "edge {e} overused");
        }
    }

    #[test]
    fn incremental_and_full_ripup_both_resolve_congestion() {
        // The congestion_resolves_under_pressure scenario, routed both ways:
        // identical legality guarantees (no overuse), converged, and the
        // incremental schedule re-routes no more nets than the full one.
        let g = graph();
        let nets: Vec<Net> = (1..=8)
            .map(|y| Net {
                source: Coord::new(1, y),
                sinks: vec![Coord::new(8, y)],
            })
            .collect();
        let check_legal = |routed: &RoutedContext| {
            let mut usage = vec![0usize; g.edges.len()];
            for t in &routed.trees {
                for &e in t {
                    usage[e] += 1;
                }
            }
            for (e, &u) in usage.iter().enumerate() {
                assert!(u <= g.edges[e].capacity, "edge {e} overused");
            }
        };
        let rec_inc = Recorder::enabled();
        let incremental = route_context_with(
            &g,
            &nets,
            &RouteOptions {
                full_ripup: false,
                ..Default::default()
            },
            &rec_inc,
        )
        .unwrap();
        let rec_full = Recorder::enabled();
        let full = route_context_with(
            &g,
            &nets,
            &RouteOptions {
                full_ripup: true,
                ..Default::default()
            },
            &rec_full,
        )
        .unwrap();
        assert!(incremental.converged);
        assert!(full.converged);
        assert_eq!(incremental.overused_edges, 0);
        assert_eq!(full.overused_edges, 0);
        check_legal(&incremental);
        check_legal(&full);
        let inc_rerouted = rec_inc.counter("route.nets_rerouted");
        let full_rerouted = rec_full.counter("route.nets_rerouted");
        assert!(
            inc_rerouted <= full_rerouted,
            "incremental re-routed {inc_rerouted} nets vs full {full_rerouted}"
        );
    }

    #[test]
    fn unroutable_fabric_reports_failure() {
        // A 2x2 fabric with 1 track cannot carry 12 crossing nets.
        let mut arch = ArchSpec::paper_default().with_grid(2, 2);
        arch.routing.tracks_per_channel = 1;
        arch.routing.double_length_tracks = 0;
        let g = RoutingGraph::build(&arch);
        let nets: Vec<Net> = (0..12)
            .map(|i| Net {
                source: Coord::new(0, 1 + (i % 2) as u16),
                sinks: vec![Coord::new(3, 1 + ((i / 2) % 2) as u16)],
            })
            .collect();
        let opts = RouteOptions {
            max_iterations: 8,
            ..Default::default()
        };
        let routed = route_context(&g, &nets, &opts).unwrap();
        assert!(!routed.converged);
        assert!(routed.overused_edges > 0);
        assert_eq!(routed.iterations, opts.max_iterations);
        // Compile-style callers still see the classic error.
        match routed.require_converged() {
            Err(RouteError::Unroutable { overused_edges }) => assert!(overused_edges > 0),
            other => panic!("expected congestion failure, got {other:?}"),
        }
    }

    #[test]
    fn route_recorder_collects_iteration_metrics() {
        let rec = mcfpga_obs::Recorder::enabled();
        let g = graph();
        let nets = vec![Net {
            source: Coord::new(1, 1),
            sinks: vec![Coord::new(5, 1)],
        }];
        let routed = route_context_with(&g, &nets, &RouteOptions::default(), &rec).unwrap();
        assert!(routed.converged);
        assert_eq!(routed.overused_edges, 0);
        let report = rec.report("route");
        assert_eq!(report.counter("route.iterations"), routed.iterations as u64);
        assert_eq!(report.counter("route.nonconverged_contexts"), 0);
        assert!(report.counter("route.nets_rerouted") >= nets.len() as u64);
        assert!(report.span_busy_us("route") > 0 || report.spans.len() == 1);
        // One instant trace event per PathFinder iteration, with the
        // iteration's congestion state attached.
        let iters: Vec<_> = rec
            .trace_events()
            .into_iter()
            .filter(|e| e.name == "route_iteration")
            .collect();
        assert_eq!(iters.len(), routed.iterations);
        assert_eq!(iters[0].arg_u64("iteration"), Some(0));
        assert!(iters[0].arg_u64("nets_rerouted").unwrap() >= nets.len() as u64);
        // The run converged, so the final iteration saw no overuse.
        assert_eq!(iters.last().unwrap().arg_u64("overused_edges"), Some(0));
    }

    #[test]
    fn sink_equal_to_source_is_trivial() {
        let g = graph();
        let nets = vec![Net {
            source: Coord::new(3, 3),
            sinks: vec![Coord::new(3, 3)],
        }];
        let routed = route_context(&g, &nets, &RouteOptions::default()).unwrap();
        assert!(routed.trees[0].is_empty());
        assert_eq!(routed.delays[0], 0.0);
    }

    #[test]
    fn routing_is_deterministic() {
        let g = graph();
        let nets = vec![
            Net {
                source: Coord::new(1, 2),
                sinks: vec![Coord::new(7, 5)],
            },
            Net {
                source: Coord::new(2, 7),
                sinks: vec![Coord::new(6, 1), Coord::new(8, 3)],
            },
        ];
        let a = route_context(&g, &nets, &RouteOptions::default()).unwrap();
        let b = route_context(&g, &nets, &RouteOptions::default()).unwrap();
        assert_eq!(a, b);
    }
}
