//! Global routing: grid-based maze search with negotiated congestion and
//! rip-up-and-reroute.
//!
//! The paper attributes routing's counter signature — the highest
//! branch-miss rate of the four stages — to "graph search algorithms
//! \[that\] encompass a large portion of conditional statements that
//! cannot be avoided" and to rip-up-and-reroute halting continuous
//! execution; and its excellent vCPU scaling to "nets in independent
//! grid cells \[that\] can be routed in parallel with no conflict".
//!
//! This engine is that algorithm: placement positions are snapped onto a
//! capacitated routing grid, nets are decomposed into two-pin
//! connections, each connection is maze-routed (A*) under a
//! PathFinder-style negotiated congestion cost, and only the connections
//! crossing overflowed edges are ripped up and rerouted in later rounds.
//!
//! A round cuts its pending connections, in index order, into batches of
//! `BATCH`. Every search of a batch reads the usage committed before the
//! batch — a frozen snapshot, so the searches are independent — and the
//! batch then commits in index order. Batch boundaries depend on the
//! design alone, so a netlist has one layout on every machine, and the
//! machine decides only how fast it is computed: machine `k` is charged,
//! for each batch, the makespan of the batch's searches list-scheduled
//! onto its threads. A batch whose work sits in fewer expensive searches
//! than there are vCPUs leaves vCPUs idle.

use crate::exec::{sweep_probe, SpanFan};
use crate::{ExecContext, FlowError, Placement, StageKind, StageReport};
use eda_cloud_netlist::{NetDriver, NetSink, Netlist};
use eda_cloud_perf::{MachineModel, PerfProbe, StageWork};
use std::collections::BinaryHeap;

/// Connections per batch. The searches of a batch see one usage
/// snapshot, so a larger batch negotiates against staler usage.
const BATCH: usize = 32;

/// Summary of a routing run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// Grid dimension (the grid is `grid x grid`).
    pub grid: usize,
    /// Total routed wirelength in grid-edge units.
    pub wirelength: u64,
    /// Edges still over capacity after the final iteration.
    pub overflowed_edges: usize,
    /// Rip-up-and-reroute rounds executed.
    pub iterations: usize,
    /// Batches routed, over all rounds.
    pub batches: usize,
}

/// The global-routing engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    /// Minimum tracks per grid edge (raised automatically when the
    /// demand estimate requires it).
    capacity: u16,
    /// Maximum rip-up-and-reroute iterations.
    max_iterations: usize,
    /// Fail with [`FlowError::Unroutable`] if more than this fraction of
    /// edges still overflow at the end.
    overflow_tolerance: f64,
}

impl Router {
    /// Router with defaults (8 tracks/edge minimum, 6 negotiation
    /// iterations, 2% overflow tolerance).
    #[must_use]
    pub fn new() -> Self {
        Self {
            capacity: 8,
            max_iterations: 6,
            overflow_tolerance: 0.02,
        }
    }

    /// Route the placed netlist.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyDesign`] for a cell-less netlist and
    /// [`FlowError::Unroutable`] if overflow exceeds the tolerance after
    /// the final iteration.
    pub fn run(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        ctx: &ExecContext,
    ) -> Result<(RoutingResult, StageReport), FlowError> {
        let mut results = self.run_sweep(netlist, placement, std::slice::from_ref(ctx))?;
        Ok(results.pop().expect("one result per context"))
    }

    /// Route the placed netlist for every context of a sweep: one
    /// result per context, in context order, each what [`Router::run`]
    /// under that context returns.
    ///
    /// The layout does not depend on the machine, so the sweep
    /// negotiates once, and every context gets the same
    /// [`RoutingResult`]; each context's report prices that one run on
    /// the context's threads.
    ///
    /// # Errors
    ///
    /// As [`Router::run`]; every context fails alike.
    pub fn run_sweep(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        ctxs: &[ExecContext],
    ) -> Result<Vec<(RoutingResult, StageReport)>, FlowError> {
        let n_cells = netlist.cell_count();
        if n_cells == 0 {
            return Err(FlowError::EmptyDesign);
        }
        if ctxs.is_empty() {
            return Ok(Vec::new());
        }

        // Grid dimension scales with design size.
        let grid = ((n_cells as f64).sqrt() * 0.8).ceil().clamp(8.0, 192.0) as usize;
        let to_cell = |x: f64, y: f64| -> (u16, u16) {
            let gx = (x / placement.die_um.0 * grid as f64).clamp(0.0, grid as f64 - 1.0);
            let gy = (y / placement.die_um.1 * grid as f64).clamp(0.0, grid as f64 - 1.0);
            (gx as u16, gy as u16)
        };

        // Two-pin connections via star decomposition.
        let mut connections: Vec<Connection> = Vec::new();
        for net in netlist.nets() {
            let src = match net.driver {
                Some(NetDriver::Cell(c)) => {
                    let (x, y) = placement.cell_pos(c as usize);
                    to_cell(x, y)
                }
                Some(NetDriver::PrimaryInput(k)) => {
                    let (x, y) = placement.pi_pins[k as usize];
                    to_cell(x, y)
                }
                None => continue,
            };
            for sink in &net.sinks {
                let dst = match *sink {
                    NetSink::CellPin { cell, .. } => {
                        let (x, y) = placement.cell_pos(cell as usize);
                        to_cell(x, y)
                    }
                    NetSink::PrimaryOutput(k) => {
                        let (x, y) = placement.po_pins[k as usize];
                        to_cell(x, y)
                    }
                };
                if src != dst {
                    connections.push(Connection { src, dst });
                }
            }
        }

        // Track capacity adapts to expected demand: a real global router
        // sizes its supply to the design's routing demand estimate.
        let demand: u64 = connections
            .iter()
            .map(|c| u64::from(c.src.0.abs_diff(c.dst.0)) + u64::from(c.src.1.abs_diff(c.dst.1)))
            .sum();
        let edges = (2 * grid * grid) as f64;
        // I/O pins concentrate on the die edges; the boundary columns
        // need tracks proportional to pin density (real floorplans
        // widen routing resources near the pad ring).
        let pin_density = placement.pi_pins.len().max(placement.po_pins.len()) as f64 / grid as f64;
        let capacity = self
            .capacity
            .max((demand as f64 / edges * 2.5).ceil() as u16)
            .max((pin_density * 2.0).ceil() as u16);

        let mut probe = sweep_probe(ctxs);
        let spans = SpanFan::of(ctxs);

        // PathFinder-style negotiation: each round routes the pending
        // connections batch by batch, then a cheap serial phase finds
        // overflowed edges, bumps their history, and rips up only the
        // offending connections for the next round.
        let mut state = GridState::new(grid, capacity);
        let mut search = AStar::new(grid * grid);
        let mut paths: Vec<Vec<u32>> = vec![Vec::new(); connections.len()];
        let mut pending: Vec<usize> = (0..connections.len()).collect();
        // Per context, the batches' makespans on its threads, summed,
        // in searched instructions.
        let mut makespans = vec![0u64; ctxs.len()];
        let mut work: Vec<u64> = Vec::with_capacity(BATCH);
        // Instructions the searches retired: the same on every machine.
        let mut searched_ops = 0u64;
        let mut over = vec![false; state.usage.len()];
        let (mut iterations, mut batches) = (0usize, 0usize);
        let negotiate_span = spans.child("negotiate");
        for round in 0..self.max_iterations.max(1) {
            iterations += 1;
            let round_span = negotiate_span.child(format_args!("round/{round}"));
            round_span.counter("pending", pending.len() as u64);
            probe.instr(pending.len() as u64);
            for batch in pending.chunks(BATCH) {
                batches += 1;
                work.clear();
                for &i in batch {
                    let before = probe.counters().instructions;
                    paths[i] = state.route(connections[i], &mut search, &mut probe);
                    work.push(probe.counters().instructions - before);
                }
                searched_ops += work.iter().sum::<u64>();
                for &i in batch {
                    state.commit(&paths[i]);
                }
                for (makespan, ctx) in makespans.iter_mut().zip(ctxs) {
                    *makespan += list_makespan(&work, ctx.threads());
                }
            }
            // Serial phase: overflow scan + history bump + rip-up.
            over.fill(false);
            let mut any = false;
            let mut over_edges = 0u64;
            for (e, &u) in state.usage.iter().enumerate() {
                if u > state.capacity {
                    over[e] = true;
                    state.history[e] += 1.0;
                    any = true;
                    over_edges += 1;
                }
            }
            round_span.counter("overflowed_edges", over_edges);
            probe.instr(state.usage.len() as u64 / 16);
            probe.branch(0xD0, any);
            if !any {
                break;
            }
            pending.clear();
            for (i, path) in paths.iter().enumerate() {
                let crosses = path.iter().any(|&e| over[e as usize]);
                probe.branch(0xD5, crosses);
                if crosses {
                    pending.push(i);
                }
            }
            if pending.is_empty() {
                break;
            }
            for &i in &pending {
                for &e in &paths[i] {
                    state.usage[e as usize] -= 1;
                    probe.write(0xB000_0000 + u64::from(e) * 256);
                }
            }
        }
        drop(negotiate_span);

        let wirelength: u64 = paths.iter().map(|p| p.len() as u64).sum();
        spans.counter("ripup_rounds", iterations as u64);
        spans.counter("wirelength", wirelength);
        let overflowed_edges = state.overflow_count();
        let total_edges = state.usage.len().max(1);
        if overflowed_edges as f64 / total_edges as f64 > self.overflow_tolerance {
            return Err(FlowError::Unroutable {
                overflowed_nets: overflowed_edges,
            });
        }

        let result = RoutingResult { grid, wirelength, overflowed_edges, iterations, batches };
        let reports = ctxs.iter().zip(makespans).enumerate().map(|(k, (ctx, makespan))| {
            // Coherence traffic: a batch's commits write edges that other
            // workers' caches also hold; a share of those writes miss on
            // real hardware (this is the paper's slight cache-miss
            // increase at 8 vCPUs).
            let threads = ctx.threads();
            let mut counters = probe.counters_for(k);
            if threads > 1 {
                let coherence = (wirelength as f64 * (1.0 - 1.0 / threads as f64) * 0.6) as u64;
                counters.cache_refs += coherence;
                counters.l1_misses += coherence;
                counters.llc_misses += coherence / 2;
            }

            // Work split: the searches are the parallel share; the
            // rip-up and overflow bookkeeping is serial. The searches
            // kept `busy` threads working on average (their work over
            // the sum of the batch makespans, 1 to
            // `threads`), so the parallel work is charged at that width,
            // not at every vCPU.
            let total_ops = counters.instructions.max(1) as f64;
            let parallel_fraction = (searched_ops as f64 / total_ops).clamp(0.0, 0.99);
            let sync = 1_500.0 * iterations as f64;
            let mut work = StageWork::from_counters(&counters, parallel_fraction, sync);
            let busy = (searched_ops as f64 / makespan.max(1) as f64).max(1.0);
            let cores = MachineModel::cores_at(f64::from(ctx.machine.vcpus.max(1)));
            work.parallel_cycles *= cores / MachineModel::cores_at(busy);
            let runtime_secs = ctx.model.runtime_secs(&work, &ctx.machine);
            let report = StageReport {
                kind: StageKind::Routing,
                runtime_secs,
                counters,
                work,
                parallel_fraction,
            };
            (result.clone(), report)
        });
        Ok(reports.collect())
    }
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

/// Makespan of `work`, in order, list-scheduled onto `threads` workers:
/// each item goes to the worker that frees up first.
fn list_makespan(work: &[u64], threads: usize) -> u64 {
    let mut loads = vec![0u64; threads.clamp(1, work.len().max(1))];
    for &w in work {
        *loads.iter_mut().min().expect("at least one worker") += w;
    }
    loads.into_iter().max().unwrap_or(0)
}

/// One two-pin connection on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Connection {
    src: (u16, u16),
    dst: (u16, u16),
}

/// Routing state: committed edge usage and congestion history.
#[derive(Debug, Clone)]
struct GridState {
    grid: usize,
    capacity: u16,
    /// Horizontal edges then vertical edges.
    usage: Vec<u16>,
    history: Vec<f32>,
}

impl GridState {
    fn new(grid: usize, capacity: u16) -> Self {
        let edges = 2 * grid * grid; // generous upper bound, simple indexing
        Self {
            grid,
            capacity,
            usage: vec![0; edges],
            history: vec![0.0; edges],
        }
    }

    /// Edge index for a move from `(x, y)` toward direction `d`
    /// (0=+x, 1=+y); moves in -x/-y use the neighbor's +x/+y edge.
    fn edge_index(&self, x: usize, y: usize, d: usize) -> usize {
        d * self.grid * self.grid + y * self.grid + x
    }

    /// Edge traversal cost under negotiated congestion.
    fn edge_cost(&self, e: usize) -> f64 {
        let over = f64::from(self.usage[e].saturating_sub(self.capacity - 1));
        1.0 + f64::from(self.history[e]) + over * 4.0
    }

    /// Commit a routed path's edge usage.
    fn commit(&mut self, path: &[u32]) {
        for &e in path {
            self.usage[e as usize] += 1;
        }
    }

    fn overflow_count(&self) -> usize {
        self.usage.iter().filter(|&&u| u > self.capacity).count()
    }

    /// A* maze route of one connection against the committed usage;
    /// returns the path (edge indices from destination back to source)
    /// for its batch to commit.
    fn route(&self, c: Connection, search: &mut AStar, probe: &mut PerfProbe) -> Vec<u32> {
        let g = self.grid;
        search.begin();
        // Fresh per-search node-record arena (16 B per visited node),
        // above the edge records for any number of searches.
        let search_base = 0x10_0000_0000u64 + u64::from(search.search) * 0x4_0000;
        let idx = |x: usize, y: usize| y * g + x;
        let (sx, sy) = (c.src.0 as usize, c.src.1 as usize);
        let (dx, dy) = (c.dst.0 as usize, c.dst.1 as usize);
        // Search window: bounding box inflated by a margin.
        let margin = 3usize;
        let x0 = sx.min(dx).saturating_sub(margin);
        let x1 = (sx.max(dx) + margin).min(g - 1);
        let y0 = sy.min(dy).saturating_sub(margin);
        let y1 = (sy.max(dy) + margin).min(g - 1);

        search.reach(idx(sx, sy), 0.0, u32::MAX);
        search.heap.push(HeapItem {
            cost: 0.0,
            x: sx as u16,
            y: sy as u16,
        });
        let h = |x: usize, y: usize| (x.abs_diff(dx) + y.abs_diff(dy)) as f64;
        while let Some(item) = search.heap.pop() {
            let (x, y) = (item.x as usize, item.y as usize);
            probe.loop_branches(1);
            probe.read(search_base + idx(x, y) as u64 * 16); // search-node record
            let found = x == dx && y == dy;
            probe.branch(0xD1, found);
            if found {
                break;
            }
            let d = search.dist(idx(x, y));
            let stale = item.cost > d + h(x, y) + 1e-9;
            probe.branch(0xD2, stale);
            if stale {
                continue;
            }
            // Explore 4 neighbors; data-dependent branching is exactly
            // the unpredictable control flow the paper highlights.
            const DELTAS: [(i64, i64); 4] = [(-1, 0), (1, 0), (0, -1), (0, 1)];
            for (k, &(ddx, ddy)) in DELTAS.iter().enumerate() {
                let nxi = x as i64 + ddx;
                let nyi = y as i64 + ddy;
                let inside =
                    nxi >= x0 as i64 && nxi <= x1 as i64 && nyi >= y0 as i64 && nyi <= y1 as i64;
                probe.branch(0xD3, inside);
                if !inside {
                    continue;
                }
                let (nx, ny) = (nxi as usize, nyi as usize);
                let e = match k {
                    0 => self.edge_index(nx, y, 0),
                    1 => self.edge_index(x, y, 0),
                    2 => self.edge_index(x, ny, 1),
                    _ => self.edge_index(x, y, 1),
                };
                probe.read(0xB000_0000 + e as u64 * 256); // edge record lookup
                probe.read(0xB000_0000 + e as u64 * 256 + 64); // per-layer row
                let nd = d + self.edge_cost(e);
                let better = nd < search.dist(idx(nx, ny));
                probe.branch(0xD4, better);
                if better {
                    search.reach(idx(nx, ny), nd, idx(x, y) as u32);
                    search.heap.push(HeapItem {
                        cost: nd + h(nx, ny),
                        x: nx as u16,
                        y: ny as u16,
                    });
                    probe.write(search_base + idx(nx, ny) as u64 * 16);
                }
            }
        }
        // Backtrack; the writes are the commit's.
        let mut path = Vec::new();
        let mut cur = idx(dx, dy);
        if search.from(cur) == u32::MAX && cur != idx(sx, sy) {
            // Unreachable inside the window (cannot happen on an open
            // grid with an inflated box); treated as a zero-length path.
            return path;
        }
        while cur != idx(sx, sy) {
            let prev = search.from(cur) as usize;
            let (cx, cy) = (cur % g, cur / g);
            let (px, py) = (prev % g, prev / g);
            let e = if cy == py {
                self.edge_index(cx.min(px), cy, 0)
            } else {
                self.edge_index(cx, cy.min(py), 1)
            };
            probe.write(0xB000_0000 + e as u64 * 256);
            path.push(e as u32);
            cur = prev;
        }
        path
    }
}

/// Reusable A* state: a best cost and predecessor per grid node, and the
/// open heap. A node's record counts only when its stamp is the current
/// search's, so starting a search costs a counter bump instead of
/// refilling two grid-sized vectors.
struct AStar {
    nodes: Vec<SearchNode>,
    search: u32,
    heap: BinaryHeap<HeapItem>,
}

#[derive(Clone, Copy)]
struct SearchNode {
    dist: f64,
    from: u32,
    /// The search that last reached this node (0: none yet).
    stamp: u32,
}

impl AStar {
    fn new(nodes: usize) -> Self {
        Self {
            nodes: vec![SearchNode { dist: f64::INFINITY, from: u32::MAX, stamp: 0 }; nodes],
            search: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Start a search: no node reached, empty heap.
    fn begin(&mut self) {
        self.heap.clear();
        self.search = self.search.wrapping_add(1);
        if self.search == 0 {
            self.nodes.iter_mut().for_each(|node| node.stamp = 0);
            self.search = 1;
        }
    }

    /// Best known cost to node `i` (infinite until reached).
    fn dist(&self, i: usize) -> f64 {
        let node = &self.nodes[i];
        if node.stamp == self.search { node.dist } else { f64::INFINITY }
    }

    /// Predecessor of node `i` (`u32::MAX` for the source and for nodes
    /// not reached).
    fn from(&self, i: usize) -> u32 {
        let node = &self.nodes[i];
        if node.stamp == self.search { node.from } else { u32::MAX }
    }

    fn reach(&mut self, i: usize, dist: f64, from: u32) {
        self.nodes[i] = SearchNode { dist, from, stamp: self.search };
    }
}

/// Min-heap item (BinaryHeap is a max-heap, so order is reversed).
#[derive(Debug, PartialEq)]
struct HeapItem {
    cost: f64,
    x: u16,
    y: u16,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| (other.x, other.y).cmp(&(self.x, self.y)))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{Recipe, Synthesizer};
    use crate::Placer;
    use eda_cloud_netlist::generators;

    fn routed(vcpus: u32) -> (RoutingResult, StageReport) {
        routed_design(generators::adder(10), vcpus)
    }

    fn routed_design(aig: eda_cloud_netlist::Aig, vcpus: u32) -> (RoutingResult, StageReport) {
        let ctx = ExecContext::with_vcpus(vcpus);
        let (nl, _) = Synthesizer::new()
            .with_verification(false)
            .run(&aig, &Recipe::balanced(), &ctx)
            .unwrap();
        let (pl, _) = Placer::new().run(&nl, &ctx).unwrap();
        Router::new().run(&nl, &pl, &ctx).unwrap()
    }

    fn probe() -> PerfProbe {
        PerfProbe::for_machine(&eda_cloud_perf::MachineConfig::vcpus(1))
    }

    #[test]
    fn routes_without_excess_overflow() {
        let (r, _) = routed(1);
        assert!(r.wirelength > 0);
        assert!(r.iterations >= 1);
        assert!(r.overflowed_edges as f64 <= 0.02 * (2 * r.grid * r.grid) as f64);
    }

    #[test]
    fn branch_miss_rate_is_highest_signature() {
        let (_, report) = routed(1);
        assert!(
            report.counters.branch_miss_rate() > 0.02,
            "maze search should mispredict: {}",
            report.counters.branch_miss_rate()
        );
        assert!(report.counters.branches > 1_000);
    }

    #[test]
    fn searches_llc_misses_reach_the_label() {
        // Every search first reads its source's record in a fresh
        // arena, a miss at every level. A round of `p` pending
        // connections routes them in `ceil(p / BATCH)` batches, so the
        // label holds at least this many LLC misses.
        let (r, report) = routed(1);
        let searches = BATCH * (r.batches - r.iterations) + r.iterations;
        assert!(searches > 100, "{r:?}");
        assert!(report.counters.llc_misses >= searches as u64, "{r:?}: {:?}", report.counters);
    }

    #[test]
    fn one_layout_at_every_vcpu_count() {
        let (r1, rep1) = routed_design(generators::multiplier(12), 1);
        let (r4, rep4) = routed_design(generators::multiplier(12), 4);
        assert_eq!(r1, r4, "the machine does not change the layout");
        assert!(r4.batches > r4.iterations, "{r4:?}");
        // The searches are most of the work, and the same share of it
        // on every machine; four vCPUs run it faster.
        assert!(rep4.parallel_fraction > 0.3, "p={}", rep4.parallel_fraction);
        assert_eq!(rep1.parallel_fraction.to_bits(), rep4.parallel_fraction.to_bits());
        assert!(rep4.runtime_secs < rep1.runtime_secs);
    }

    #[test]
    fn large_design_scales_small_design_plateaus() {
        // The Figure-3 effect: a larger design keeps more of its
        // vCPUs busy, so it scales further with threads.
        let (_, small1) = routed_design(generators::adder(10), 1);
        let (_, small8) = routed_design(generators::adder(10), 8);
        let (_, big1) = routed_design(generators::multiplier(14), 1);
        let (_, big8) = routed_design(generators::multiplier(14), 8);
        let small_speedup = small1.runtime_secs / small8.runtime_secs;
        let big_speedup = big1.runtime_secs / big8.runtime_secs;
        assert!(
            big_speedup > small_speedup,
            "big {big_speedup} vs small {small_speedup}"
        );
        assert!(big_speedup > 1.3, "routing should scale, got {big_speedup}");
    }

    #[test]
    fn list_makespan_of_one_thread_is_the_sum() {
        assert_eq!(list_makespan(&[5, 1, 9, 3, 3], 1), 21);
        assert_eq!(list_makespan(&[], 1), 0);
    }

    #[test]
    fn list_makespan_with_a_thread_per_item_is_the_max() {
        for threads in 5..9 {
            assert_eq!(list_makespan(&[5, 1, 9, 3, 3], threads), 9);
        }
        assert_eq!(list_makespan(&[], 8), 0);
    }

    #[test]
    fn list_makespan_never_grows_with_threads() {
        // Batches of up to two of `BATCH`, with search costs spanning
        // two orders of magnitude as maze searches do.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let len = (next() % (2 * BATCH as u64 + 1)) as usize;
            let work: Vec<u64> = (0..len).map(|_| 1 + next() % 200).collect();
            let spans: Vec<u64> = (1..=16).map(|threads| list_makespan(&work, threads)).collect();
            assert!(spans.windows(2).all(|w| w[1] <= w[0]), "{work:?}: {spans:?}");
        }
    }

    #[test]
    fn grid_state_edge_costs_grow_with_congestion() {
        let mut s = GridState::new(8, 2);
        let e = s.edge_index(3, 3, 0);
        let base = s.edge_cost(e);
        s.usage[e] = 5;
        assert!(s.edge_cost(e) > base);
        s.history[e] = 2.0;
        let with_history = s.edge_cost(e);
        assert!(with_history > s.edge_cost(e + 1));
    }

    #[test]
    fn route_commits_manhattan_distance_on_empty_grid() {
        let mut s = GridState::new(16, 8);
        let path = s.route(
            Connection {
                src: (2, 2),
                dst: (7, 5),
            },
            &mut AStar::new(16 * 16),
            &mut probe(),
        );
        assert_eq!(path.len(), 5 + 3, "uncongested route = Manhattan distance");
        assert!(s.usage.iter().all(|&u| u == 0), "routing alone commits nothing");
        s.commit(&path);
        assert_eq!(s.usage.iter().map(|&u| u64::from(u)).sum::<u64>(), 8);
    }

    #[test]
    fn congestion_forces_detour() {
        let mut s = GridState::new(16, 1);
        // Saturate the straight-line corridor.
        for x in 2..7 {
            let e = s.edge_index(x, 3, 0);
            s.usage[e] = 3;
        }
        let path = s.route(
            Connection {
                src: (2, 3),
                dst: (7, 3),
            },
            &mut AStar::new(16 * 16),
            &mut probe(),
        );
        assert!(
            path.len() > 5,
            "detour should be longer than 5, got {}",
            path.len()
        );
    }

    #[test]
    fn a_batch_routes_against_the_usage_before_it() {
        // Two equal connections of one batch both see the empty grid and
        // take the same path, even at one track per edge; the next batch
        // sees both commits and detours. One scratch serves every search.
        let mut probe = probe();
        let mut search = AStar::new(16 * 16);
        let mut state = GridState::new(16, 1);
        let c = Connection {
            src: (1, 2),
            dst: (6, 2),
        };
        let p1 = state.route(c, &mut search, &mut probe);
        let p2 = state.route(c, &mut search, &mut probe);
        assert_eq!(p1, p2, "a reused scratch starts every search clean");
        state.commit(&p1);
        state.commit(&p2);
        let total: u64 = state.usage.iter().map(|&u| u64::from(u)).sum();
        assert_eq!(total as usize, p1.len() + p2.len());
        let p3 = state.route(c, &mut search, &mut probe);
        assert!(p3.len() > p1.len(), "committed usage steers the next batch: {p3:?}");
    }

    #[test]
    fn negotiation_clears_batch_conflicts_end_to_end() {
        // The searches of a batch cannot see each other, so they collide;
        // the negotiation must still end within tolerance.
        let (r, _) = routed_design(generators::multiplier(10), 4);
        assert!(r.iterations >= 1);
        assert!((r.overflowed_edges as f64) <= 0.02 * (2 * r.grid * r.grid) as f64);
    }

    #[test]
    fn empty_netlist_rejected() {
        let nl = eda_cloud_netlist::Netlist::new("empty", "synth14");
        let pl = Placement {
            x: vec![],
            y: vec![],
            die_um: (10.0, 10.0),
            hpwl_um: 0.0,
            pi_pins: vec![],
            po_pins: vec![],
        };
        assert_eq!(
            Router::new()
                .run(&nl, &pl, &ExecContext::default())
                .unwrap_err(),
            FlowError::EmptyDesign
        );
    }

    #[test]
    fn failing_sweep_returns_the_first_contexts_error() {
        // `Unroutable` is out of reach of the public knobs: the final
        // round's rip-up takes every connection off every overflowed
        // edge, so the closing overflow count is always zero (DESIGN.md,
        // "The sweep probe" records it with the other routing-label
        // defects). A negative tolerance makes that zero fail; the sweep
        // negotiates once and fails with the error a loop of `run` stops
        // at.
        let ctx = ExecContext::with_vcpus(1);
        let (nl, _) = Synthesizer::new()
            .with_verification(false)
            .run(&generators::multiplier(6), &Recipe::balanced(), &ctx)
            .unwrap();
        let (pl, _) = Placer::new().run(&nl, &ctx).unwrap();
        let router = Router { overflow_tolerance: -1.0, ..Router::new() };
        let ctxs: Vec<ExecContext> = [4, 1, 8, 4].map(ExecContext::with_vcpus).into();
        let looped = ctxs.iter().map(|c| router.run(&nl, &pl, c)).find_map(Result::err);
        let looped = looped.expect("every context fails");
        assert!(matches!(looped, FlowError::Unroutable { .. }), "{looped:?}");
        assert_eq!(router.run_sweep(&nl, &pl, &ctxs).unwrap_err(), looped);
    }

    #[test]
    fn deterministic() {
        let (a, _) = routed(2);
        let (b, _) = routed(2);
        assert_eq!(a.wirelength, b.wirelength);
        assert_eq!(a.overflowed_edges, b.overflowed_edges);
    }
}
