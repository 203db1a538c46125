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
//! crossing overflowed edges are ripped up and rerouted in later
//! iterations. Connections whose bounding box fits inside one horizontal
//! strip are *local* and are really routed on worker threads (disjoint
//! edge sets, merged by addition); connections crossing strips are
//! routed in a sequential global phase. Small designs have
//! proportionally more crossing connections and fewer local ones — which
//! is exactly why their speedup plateaus in Figure 3.

use crate::exec::{sweep_probe, SpanFan};
use crate::{ExecContext, FlowError, Placement, StageKind, StageReport};
use eda_cloud_netlist::{NetDriver, NetSink, Netlist};
use eda_cloud_perf::{CounterSet, PerfProbe, StageWork};
use eda_cloud_trace::par;
use std::collections::BinaryHeap;

/// Summary of a routing run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// Grid dimension (the grid is `grid x grid`).
    pub grid: usize,
    /// Total routed wirelength in grid-edge units.
    pub wirelength: u64,
    /// Edges still over capacity after the final iteration.
    pub overflowed_edges: usize,
    /// Rip-up-and-reroute iterations executed in the global phase.
    pub iterations: usize,
    /// Two-pin connections routed entirely inside one strip (parallel).
    pub local_connections: usize,
    /// Connections spanning strips (routed in the serial phase).
    pub global_connections: usize,
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
    /// The machine reaches the algorithm only through the strip count —
    /// `threads`, capped by how many connections there are to share —
    /// so contexts that agree on it share one negotiation, and what is
    /// left per context (coherence traffic, the width the parallel work
    /// really ran at) is closed-form. A small design routes once for
    /// the whole sweep; one big enough to fill every vCPU count routes
    /// once per count, serially.
    ///
    /// # Errors
    ///
    /// As [`Router::run`]; the error is the one a loop of `run` over
    /// `ctxs` hits first.
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

        // Assign every connection to the horizontal strip of its
        // source: dataflow runs PI (left) to PO (right), so nets are
        // long in x and short in y, and strips maximize the share of
        // connections whose entire search stays inside one strip.
        // Don't over-partition tiny designs: a worker needs enough
        // connections to amortize its setup, so small workloads use
        // fewer strips than vCPUs (this is the Figure-3 plateau — the
        // extra vCPUs simply have no independent work to do).
        //
        // Contexts with the same strip count route together. Groups
        // form in order of their first context, so the first group to
        // fail is the one holding the first context that would.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (k, ctx) in ctxs.iter().enumerate() {
            let regions = ctx.threads().min(connections.len() / 96).max(1);
            match groups.iter_mut().find(|(r, _)| *r == regions) {
                Some((_, members)) => members.push(k),
                None => groups.push((regions, vec![k])),
            }
        }
        let mut results: Vec<Option<(RoutingResult, StageReport)>> = vec![None; ctxs.len()];
        for (regions, members) in groups {
            let group: Vec<&ExecContext> = members.iter().map(|&k| &ctxs[k]).collect();
            let routed = self.route_group(grid, capacity, &connections, regions, &group)?;
            for (k, result) in members.into_iter().zip(routed) {
                results[k] = Some(result);
            }
        }
        Ok(results
            .into_iter()
            .map(|result| result.expect("every context is in one group"))
            .collect())
    }

    /// Negotiate the routing once at `regions` strips and finish one
    /// result for each of `ctxs`, all of which partition into that many
    /// strips.
    fn route_group(
        &self,
        grid: usize,
        capacity: u16,
        connections: &[Connection],
        regions: usize,
        ctxs: &[&ExecContext],
    ) -> Result<Vec<(RoutingResult, StageReport)>, FlowError> {
        let mut probe = sweep_probe(ctxs.iter().copied());
        let spans = SpanFan::of(ctxs.iter().copied());
        let region_of = |y: u16| (y as usize * regions / grid).min(regions - 1);
        let mut local_connections = 0usize;
        let mut global_connections = 0usize;
        for c in connections {
            let (r1, r2) = (region_of(c.src.1), region_of(c.dst.1));
            probe.branch(0xC0, r1 == r2);
            if r1 == r2 {
                local_connections += 1;
            } else {
                global_connections += 1;
            }
        }

        // PathFinder-style parallel negotiation: every iteration routes
        // the pending connections in parallel (workers see a stale
        // snapshot of the committed usage plus their own delta), then a
        // cheap serial phase merges deltas, finds overflowed edges,
        // bumps their history, and rips up only the offending
        // connections for the next round. This mirrors how production
        // parallel routers scale: the maze searches dominate and they
        // all run concurrently; only the merge/overflow scan is serial.
        let mut state = GridState::new(grid, capacity);
        let mut paths: Vec<Vec<u32>> = vec![Vec::new(); connections.len()];
        let mut pending: Vec<usize> = (0..connections.len()).collect();
        // One worker per strip, kept for the whole run.
        let mut strips: Vec<Strip> = (0..regions).map(|_| Strip::new(grid, capacity, ctxs)).collect();
        let mut worker_totals = vec![CounterSet::default(); ctxs.len()];
        let mut over = vec![false; state.usage.len()];
        let mut iterations = 0usize;
        let negotiate_span = spans.child("negotiate");
        for round in 0..self.max_iterations.max(1) {
            iterations += 1;
            let round_span = negotiate_span.child(format_args!("round/{round}"));
            round_span.counter("pending", pending.len() as u64);
            // Partition pending connections by source strip.
            for strip in &mut strips {
                strip.bucket.clear();
            }
            for &i in &pending {
                strips[region_of(connections[i].src.1)].bucket.push(i);
            }
            probe.instr(pending.len() as u64);
            // Batched parallel routing round. The region partition is
            // fixed by the simulated machine; how many *host* threads
            // chew through the non-empty buckets follows the host's
            // cores. Each bucket routes against the same committed-
            // usage snapshot into its strip's own delta, paths and
            // probe, and those are committed in strip order — the
            // canonical commit order — so results are bit-identical at
            // any width.
            let busy: Vec<&mut Strip> = strips.iter_mut().filter(|s| !s.bucket.is_empty()).collect();
            let workers = par::resolve_workers(0, busy.len());
            par::map_indexed(workers, busy, |_, strip| {
                strip.route_bucket(&state.usage, &state.history, connections);
            });
            for strip in strips.iter_mut().filter(|s| !s.bucket.is_empty()) {
                state.merge_delta(&strip.grid.delta);
                for (k, total) in worker_totals.iter_mut().enumerate() {
                    *total += strip.probe.counters_for(k);
                }
                for (&i, path) in strip.bucket.iter().zip(strip.paths.drain(..)) {
                    paths[i] = path;
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
        probe.absorb(&worker_totals);

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

        // Worker events are the same on every machine of the group
        // (only their LLC and AVX attribution differ).
        let worker_ops = worker_totals[0].instructions as f64;
        let results = ctxs.iter().enumerate().map(|(k, ctx)| {
            let threads = ctx.threads();
            // Coherence traffic: global connections write edges that worker
            // caches also hold; a share of those writes miss on real hardware
            // (this is the paper's slight cache-miss increase at 8 vCPUs).
            let mut counters = probe.counters_for(k);
            if threads > 1 {
                let coherence = (wirelength as f64 * (1.0 - 1.0 / threads as f64) * 0.6) as u64;
                counters.cache_refs += coherence;
                counters.l1_misses += coherence;
                counters.llc_misses += coherence / 2;
            }

            // Work split: worker counters are the parallel share; the
            // merge/overflow bookkeeping on the main probe is serial. When
            // the design is too small to fill every vCPU with a strip
            // (regions < vCPUs), the parallel work runs at width `regions`,
            // not `vcpus` — inflate it so the machine model's division by
            // effective cores lands on parallel/width (the Figure-3
            // plateau).
            let total_ops = counters.instructions.max(1) as f64;
            let parallel_fraction = (worker_ops / total_ops).clamp(0.0, 0.99);
            let sync = 1_500.0 * iterations as f64;
            let mut work = StageWork::from_counters(&counters, parallel_fraction, sync, &ctx.model);
            if regions < threads {
                let eff_full = ctx.model.effective_cores(&ctx.machine);
                let eff_width = 1.0 + (regions as f64 - 1.0) * ctx.model.scaling_efficiency;
                work.parallel_cycles *= eff_full / eff_width;
            }
            let runtime_secs = ctx.model.runtime_secs(&work, &ctx.machine);
            (
                RoutingResult {
                    grid,
                    wirelength,
                    overflowed_edges,
                    iterations,
                    local_connections,
                    global_connections,
                },
                StageReport {
                    kind: StageKind::Routing,
                    runtime_secs,
                    counters,
                    work,
                    parallel_fraction,
                },
            )
        });
        Ok(results.collect())
    }
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

/// One two-pin connection on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Connection {
    src: (u16, u16),
    dst: (u16, u16),
}

/// What one strip's worker keeps for a whole run: its probe, search
/// scratch and view of the grid are built once and reset for each
/// round's bucket — cold caches, an untrained predictor and fresh
/// search records, exactly as if built for that bucket.
struct Strip {
    /// This round's pending connections whose source lies in the strip.
    bucket: Vec<usize>,
    /// Their routed paths, in bucket order, until the round commits.
    paths: Vec<Vec<u32>>,
    probe: PerfProbe,
    grid: GridState,
    search: AStar,
}

impl Strip {
    fn new(grid: usize, capacity: u16, ctxs: &[&ExecContext]) -> Self {
        Self {
            bucket: Vec::new(),
            paths: Vec::new(),
            probe: sweep_probe(ctxs.iter().copied()),
            grid: GridState::new(grid, capacity),
            search: AStar::new(grid * grid),
        }
    }

    /// Route the bucket against the committed `background` usage,
    /// leaving the paths, the usage delta and the probe's counters for
    /// the round's serial phase to commit.
    fn route_bucket(&mut self, background: &[u16], history: &[f32], connections: &[Connection]) {
        self.probe.reset();
        self.grid.rebase(background, history);
        for &i in &self.bucket {
            let path = self.grid.route(connections[i], &mut self.search, &mut self.probe);
            self.paths.push(path);
        }
    }
}

/// Mutable routing state: edge usage (optionally layered on a read-only
/// background snapshot) and congestion history.
#[derive(Debug, Clone)]
struct GridState {
    grid: usize,
    capacity: u16,
    /// Monotonic connection counter: each maze search allocates fresh
    /// node records, so probe addresses are unique per search (cold).
    search_seq: u64,
    /// Horizontal edges then vertical edges. In a worker this holds the
    /// background snapshot plus the worker's own commits; `delta`
    /// remembers just the commits for the merge.
    usage: Vec<u16>,
    delta: Vec<u16>,
    history: Vec<f32>,
}

impl GridState {
    fn new(grid: usize, capacity: u16) -> Self {
        let edges = 2 * grid * grid; // generous upper bound, simple indexing
        Self {
            grid,
            capacity,
            usage: vec![0; edges],
            delta: vec![0; edges],
            history: vec![0.0; edges],
            search_seq: 0,
        }
    }

    /// Become a worker's view for one round: costs see `background`
    /// plus own commits; commits are recorded separately for the merge.
    fn rebase(&mut self, background: &[u16], history: &[f32]) {
        self.usage.copy_from_slice(background);
        self.delta.fill(0);
        self.history.copy_from_slice(history);
        self.search_seq = 0;
    }

    fn merge_delta(&mut self, delta: &[u16]) {
        for (u, &d) in self.usage.iter_mut().zip(delta) {
            *u += d;
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

    fn commit_edge(&mut self, e: usize) {
        self.usage[e] += 1;
        self.delta[e] += 1;
    }

    fn overflow_count(&self) -> usize {
        self.usage.iter().filter(|&&u| u > self.capacity).count()
    }

    /// A* maze route of one connection; commits edge usage and returns
    /// the path (edge indices from destination back to source).
    fn route(&mut self, c: Connection, search: &mut AStar, probe: &mut PerfProbe) -> Vec<u32> {
        let g = self.grid;
        self.search_seq += 1;
        // Fresh per-search node-record arena (16 B per visited node).
        let search_base = 0xA000_0000u64 + self.search_seq * 0x4_0000;
        let idx = |x: usize, y: usize| y * g + x;
        let (sx, sy) = (c.src.0 as usize, c.src.1 as usize);
        let (dx, dy) = (c.dst.0 as usize, c.dst.1 as usize);
        // Search window: bounding box inflated by a margin.
        let margin = 3usize;
        let x0 = sx.min(dx).saturating_sub(margin);
        let x1 = (sx.max(dx) + margin).min(g - 1);
        let y0 = sy.min(dy).saturating_sub(margin);
        let y1 = (sy.max(dy) + margin).min(g - 1);

        search.begin();
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
        // Backtrack and commit usage.
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
            self.commit_edge(e);
            probe.write(0xB000_0000 + e as u64 * 256);
            path.push(e as u32);
            cur = prev;
        }
        path
    }
}

/// Reusable A* state for one worker: a best cost and predecessor per
/// grid node, and the open heap. A node's record counts only when its
/// stamp is the current search's, so starting a search costs a counter
/// bump instead of refilling two grid-sized vectors.
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
    fn more_threads_split_work_into_local_regions() {
        let (r1, rep1) = routed_design(generators::multiplier(12), 1);
        let (r4, rep4) = routed_design(generators::multiplier(12), 4);
        // With one region everything is local.
        assert_eq!(r1.global_connections, 0);
        assert!(r4.global_connections > 0);
        assert!(r4.local_connections > 0);
        // Parallel fraction should be substantial at 4 threads on a
        // reasonably sized design.
        assert!(rep4.parallel_fraction > 0.3, "p={}", rep4.parallel_fraction);
        assert!(rep1.parallel_fraction <= 1.0);
    }

    #[test]
    fn large_design_scales_small_design_plateaus() {
        // The Figure-3 effect: a larger design keeps more of its
        // connections region-local, so it scales further with threads.
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
        let mut probe = PerfProbe::for_machine(&eda_cloud_perf::MachineConfig::vcpus(1));
        let path = s.route(
            Connection {
                src: (2, 2),
                dst: (7, 5),
            },
            &mut AStar::new(16 * 16),
            &mut probe,
        );
        assert_eq!(path.len(), 5 + 3, "uncongested route = Manhattan distance");
        assert_eq!(s.usage.iter().map(|&u| u64::from(u)).sum::<u64>(), 8);
    }

    #[test]
    fn congestion_forces_detour() {
        let mut s = GridState::new(16, 1);
        let mut probe = PerfProbe::for_machine(&eda_cloud_perf::MachineConfig::vcpus(1));
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
            &mut probe,
        );
        assert!(
            path.len() > 5,
            "detour should be longer than 5, got {}",
            path.len()
        );
    }

    /// A worker's view of `base` for one round.
    fn worker_view(base: &GridState) -> GridState {
        let mut view = GridState::new(base.grid, base.capacity);
        view.rebase(&base.usage, &base.history);
        view
    }

    #[test]
    fn worker_deltas_merge_exactly() {
        // Two workers route over the same background; merging their
        // deltas must equal the sum of their individual commits. The
        // second worker reuses the first one's search scratch.
        let mut probe = PerfProbe::for_machine(&eda_cloud_perf::MachineConfig::vcpus(1));
        let mut search = AStar::new(16 * 16);
        let mut state = GridState::new(16, 4);
        let mut w1 = worker_view(&state);
        let mut w2 = worker_view(&state);
        let c = Connection {
            src: (1, 2),
            dst: (6, 2),
        };
        let p1 = w1.route(c, &mut search, &mut probe);
        let p2 = w2.route(c, &mut search, &mut probe);
        assert_eq!(p1, p2, "a reused scratch starts every search clean");
        state.merge_delta(&w1.delta);
        state.merge_delta(&w2.delta);
        let total: u64 = state.usage.iter().map(|&u| u64::from(u)).sum();
        assert_eq!(total as usize, p1.len() + p2.len());
    }

    #[test]
    fn background_usage_steers_worker_routes() {
        // A worker seeing a congested background corridor must detour.
        let mut probe = PerfProbe::for_machine(&eda_cloud_perf::MachineConfig::vcpus(1));
        let mut base = GridState::new(16, 1);
        for x in 2..9 {
            let e = base.edge_index(x, 3, 0);
            base.usage[e] = 3;
        }
        let mut worker = worker_view(&base);
        let path = worker.route(
            Connection {
                src: (2, 3),
                dst: (9, 3),
            },
            &mut AStar::new(16 * 16),
            &mut probe,
        );
        assert!(path.len() > 7, "detour expected, got {}", path.len());
        // The delta records only the worker's own commits.
        let committed: u64 = worker.delta.iter().map(|&u| u64::from(u)).sum();
        assert_eq!(committed as usize, path.len());
    }

    #[test]
    fn negotiation_clears_worker_conflicts_end_to_end() {
        // Route a real design with several threads; the iterative
        // negotiation must end within tolerance even though the blind
        // parallel rounds create conflicts.
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
        // defects). A negative tolerance makes that zero fail, in every
        // strip-count group; the sweep must stop at the group holding
        // the first context, as a loop of `run` stops at that context.
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
