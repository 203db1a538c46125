//! Analytical placement: quadratic wirelength minimization by gradient
//! descent with bin-based density spreading and row legalization.
//!
//! The paper attributes placement's counter signature — the highest
//! cache-miss rate and the heaviest AVX floating-point usage of the four
//! stages — to "the analytical component in the placement engine that
//! tries to optimize the wirelength across all the chip instances using
//! convex optimization methods ... access to large vectors to calculate
//! the gradients". This engine is exactly that component: every
//! iteration computes per-net centroids and per-cell gradients over
//! large coordinate vectors (vectorizable FP, emitted as AVX ops), with
//! connectivity-ordered accesses that thrash small caches and benefit
//! from the larger LLC share that comes with more vCPUs.

use crate::exec::{sweep_probe, SpanFan};
use crate::{ExecContext, FlowError, StageKind, StageReport};
use eda_cloud_netlist::{NetId, Netlist};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Result of placement: one coordinate pair per cell on a die.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Cell x coordinates in µm (index = cell id).
    pub x: Vec<f64>,
    /// Cell y coordinates in µm.
    pub y: Vec<f64>,
    /// Die dimensions in µm.
    pub die_um: (f64, f64),
    /// Final half-perimeter wirelength in µm.
    pub hpwl_um: f64,
    /// Fixed pin positions for primary inputs (left edge).
    pub pi_pins: Vec<(f64, f64)>,
    /// Fixed pin positions for primary outputs (right edge).
    pub po_pins: Vec<(f64, f64)>,
}

impl Placement {
    /// Position of the driver/sink identified by a net endpoint.
    #[must_use]
    pub fn cell_pos(&self, cell: usize) -> (f64, f64) {
        (self.x[cell], self.y[cell])
    }

    /// Half-perimeter wirelength of one net given its endpoint
    /// positions.
    #[must_use]
    pub fn hpwl_of(points: &[(f64, f64)]) -> f64 {
        hpwl(points.iter().copied())
    }
}

/// Half-perimeter of the bounding box of `points` (0 for no points).
fn hpwl(points: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    let mut any = false;
    for (x, y) in points {
        any = true;
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if any {
        (x1 - x0) + (y1 - y0)
    } else {
        0.0
    }
}

/// The analytical placement engine.
///
/// Gradient loops are data-parallel, but the outer descent iterations,
/// density spreading, and legalization are sequential — the paper
/// measures ~2.3x speedup at 8 vCPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct Placer {
    iterations: usize,
    utilization: f64,
    seed: u64,
    parallel_fraction: f64,
}

impl Placer {
    /// Placer with default settings (64 descent iterations, 70% target
    /// utilization).
    #[must_use]
    pub fn new() -> Self {
        Self {
            iterations: 64,
            utilization: 0.70,
            seed: 0x9_1ACE,
            parallel_fraction: 0.66,
        }
    }

    /// Place the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyDesign`] when there are no cells, or
    /// [`FlowError::PlacementDiverged`] if coordinates become
    /// non-finite.
    pub fn run(
        &self,
        netlist: &Netlist,
        ctx: &ExecContext,
    ) -> Result<(Placement, StageReport), FlowError> {
        let (placement, mut reports) = self.run_sweep(netlist, std::slice::from_ref(ctx))?;
        Ok((placement, reports.pop().expect("one report per context")))
    }

    /// Place the netlist once for every context of a sweep: the
    /// placement and one report per context, in context order, each
    /// what [`Placer::run`] under that context returns. The algorithm
    /// never reads its probe back, so positions and the event stream
    /// are the same on every machine; only the cost of the events
    /// differs, and one sweep probe counts that for all of them.
    ///
    /// # Errors
    ///
    /// As [`Placer::run`].
    pub fn run_sweep(
        &self,
        netlist: &Netlist,
        ctxs: &[ExecContext],
    ) -> Result<(Placement, Vec<StageReport>), FlowError> {
        let n = netlist.cell_count();
        if n == 0 {
            return Err(FlowError::EmptyDesign);
        }
        let mut probe = sweep_probe(ctxs);
        let spans = SpanFan::of(ctxs);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Die: square sized for the cell count at target utilization
        // (average master ~0.4 µm² in synth14).
        let total_area = 0.4 * n as f64;
        let side = (total_area / self.utilization).sqrt().max(1.0);
        let die = (side, side);

        // Fixed I/O pins on the die edges.
        let pin_spread = |count: usize, edge_x: f64| -> Vec<(f64, f64)> {
            (0..count)
                .map(|k| (edge_x, side * (k as f64 + 0.5) / count.max(1) as f64))
                .collect()
        };
        let pi_pins = pin_spread(netlist.primary_inputs().len(), 0.0);
        let po_pins = pin_spread(netlist.primary_outputs().len(), side);

        // Initial positions: seeded uniform.
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..side)).collect();
        let mut y: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..side)).collect();

        // Net endpoint table: (cell ids, fixed points), and its
        // transpose.
        let endpoints = net_endpoints(netlist, &pi_pins, &po_pins);
        let cell_net_list = cell_nets(netlist);

        // Gradient descent with density spreading.
        let bins = ((n as f64).sqrt() / 3.0).ceil().max(2.0) as usize;
        let mut cx = vec![0.0f64; endpoints.len()];
        let mut cy = vec![0.0f64; endpoints.len()];
        // Real analytical placers keep tens of bytes of state per cell
        // and per net (coordinates, gradients, net endpoint lists,
        // sparse-matrix rows); stride the probe addresses accordingly
        // so the cache footprint matches a production engine.
        const CELL_STRIDE: u64 = 192;
        const NET_STRIDE: u64 = 224;
        // Pin-level connectivity records (driver/sink entries) are the
        // placer's largest structure: one ~32-byte record per pin.
        const PIN_STRIDE: u64 = 32;
        let x_base = 0x1000_0000u64;
        let y_base = 0x5000_0000u64;
        let c_base = 0x9000_0000u64;
        let g_base = 0xD000_0000u64;
        let pin_base = 0x1_2000_0000u64;
        let mut load = vec![0u32; bins * bins];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let gd_span = spans.child("gradient_descent");
        for iter in 0..self.iterations {
            let iter_span = gd_span.child(format_args!("iter/{iter}"));
            // 1) Net centroids (reads of scattered cell coordinates).
            for (ni, ep) in endpoints.iter().enumerate() {
                let mut sx = 0.0;
                let mut sy = 0.0;
                for &cell in &ep.cells {
                    probe.read(x_base + cell as u64 * CELL_STRIDE);
                    probe.read(y_base + cell as u64 * CELL_STRIDE);
                    sx += x[cell];
                    sy += y[cell];
                }
                for &(fx, fy) in &ep.fixed {
                    sx += fx;
                    sy += fy;
                }
                let k = (ep.cells.len() + ep.fixed.len()).max(1) as f64;
                cx[ni] = sx / k;
                cy[ni] = sy / k;
                probe.write(c_base + ni as u64 * NET_STRIDE);
                probe.loop_branches(ep.cells.len() as u64 + 1);
                probe.fp(2 * (ep.cells.len() + ep.fixed.len()) as u64 + 4, true); // centroid vector math
            }
            // 2) Cell gradients: move toward the mean of its nets'
            //    centroids (quadratic-wirelength gradient step).
            let alpha = 0.55 * (1.0 - iter as f64 / (2.0 * self.iterations as f64));
            for (cell, nets) in cell_net_list.iter().enumerate() {
                if nets.is_empty() {
                    continue;
                }
                let mut gx = 0.0;
                let mut gy = 0.0;
                for (k, &ni) in nets.iter().enumerate() {
                    probe.read(c_base + u64::from(ni) * NET_STRIDE);
                    // Pin record for this (cell, net) incidence.
                    probe.read(pin_base + (cell as u64 * 8 + k as u64) * PIN_STRIDE);
                    gx += cx[ni as usize];
                    gy += cy[ni as usize];
                }
                let k = nets.len() as f64;
                x[cell] += alpha * (gx / k - x[cell]);
                y[cell] += alpha * (gy / k - y[cell]);
                probe.write(x_base + cell as u64 * CELL_STRIDE);
                probe.write(y_base + cell as u64 * CELL_STRIDE);
                probe.write(g_base + cell as u64 * CELL_STRIDE); // gradient vector
                probe.loop_branches(nets.len() as u64 + 1);
                probe.fp(2 * nets.len() as u64 + 8, true); // gradient vector math
            }
            // 3) Density spreading on a coarse bin grid.
            let cap = (n as f64) / (bins * bins) as f64 * 1.4;
            load.fill(0);
            for cell in 0..n {
                let bx = ((x[cell] / side) * bins as f64).clamp(0.0, bins as f64 - 1.0) as usize;
                let by = ((y[cell] / side) * bins as f64).clamp(0.0, bins as f64 - 1.0) as usize;
                load[by * bins + bx] += 1;
                probe.read(0x4000_0000 + (by * bins + bx) as u64 * 4);
            }
            let mut overfull_cells = 0u64;
            for cell in 0..n {
                let bx = ((x[cell] / side) * bins as f64).clamp(0.0, bins as f64 - 1.0) as usize;
                let by = ((y[cell] / side) * bins as f64).clamp(0.0, bins as f64 - 1.0) as usize;
                let overfull = f64::from(load[by * bins + bx]) > cap;
                probe.branch(0xB000 + (by * bins + bx) as u64, overfull);
                if overfull {
                    overfull_cells += 1;
                    // Jitter toward the die center scaled by overflow.
                    let push = 0.12 * side / bins as f64;
                    x[cell] += rng.gen_range(-push..push) + (side / 2.0 - x[cell]) * 0.01;
                    y[cell] += rng.gen_range(-push..push) + (side / 2.0 - y[cell]) * 0.01;
                    probe.fp(6, true);
                }
                x[cell] = x[cell].clamp(0.0, side);
                y[cell] = y[cell].clamp(0.0, side);
            }
            // 4) Quantile spreading every few iterations: blend each
            //    coordinate toward its rank position. This is the
            //    locality-preserving answer to quadratic placement's
            //    tendency to collapse into a blob: order (and therefore
            //    neighborhoods) is kept, but the distribution is pulled
            //    toward uniform die coverage.
            if iter % 3 == 2 {
                iter_span.counter("quantile_spread", 1);
                for coords in [&mut x, &mut y] {
                    order.clear();
                    order.extend(0..n);
                    order.sort_by(|&a, &b| coords[a].total_cmp(&coords[b]));
                    probe.instr((n as f64 * (n as f64).log2().max(1.0)) as u64);
                    for (rank, &cell) in order.iter().enumerate() {
                        let target = (rank as f64 + 0.5) / n as f64 * side;
                        coords[cell] += 0.3 * (target - coords[cell]);
                        probe.write(0x4800_0000 + cell as u64 * 8);
                        probe.fp(2, true);
                    }
                }
            }
            iter_span.counter("overfull_cells", overfull_cells);
        }
        drop(gd_span);
        if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
            return Err(FlowError::PlacementDiverged);
        }

        // Legalization: snap to rows (sequential sort-based).
        {
            let _legalize_span = spans.child("legalize");
            legalize(&mut x, &mut y, side, &mut probe);
        }

        // Detailed placement: greedy swap refinement. Walk seeded random
        // cell pairs and swap whenever the half-perimeter wirelength of
        // the touched nets improves — the cheap tail-end pass every
        // production placer runs after legalization.
        let hpwl_of_cell = |cell: usize, x: &[f64], y: &[f64]| -> f64 {
            let mut total = 0.0;
            for &ni in &cell_net_list[cell] {
                total += hpwl(endpoints[ni as usize].points(x, y));
            }
            total
        };
        let detailed_span = spans.child("detailed");
        let swaps = (n * 2).min(40_000);
        let mut improved = 0u32;
        for _ in 0..swaps {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            probe.read(x_base + a as u64 * CELL_STRIDE);
            probe.read(x_base + b as u64 * CELL_STRIDE);
            let before = hpwl_of_cell(a, &x, &y) + hpwl_of_cell(b, &x, &y);
            x.swap(a, b);
            y.swap(a, b);
            let after = hpwl_of_cell(a, &x, &y) + hpwl_of_cell(b, &x, &y);
            probe.fp(8, true);
            let keep = after < before;
            probe.branch(0xB5, keep);
            if keep {
                improved += 1;
                probe.write(x_base + a as u64 * CELL_STRIDE);
                probe.write(x_base + b as u64 * CELL_STRIDE);
            } else {
                x.swap(a, b);
                y.swap(a, b);
            }
        }
        detailed_span.counter("swaps_tried", swaps as u64);
        detailed_span.counter("swaps_improved", u64::from(improved));
        drop(detailed_span);

        // Final HPWL.
        let mut hpwl_um = 0.0;
        for ep in &endpoints {
            hpwl_um += hpwl(ep.points(&x, &y));
            probe.fp(2 * (ep.cells.len() + ep.fixed.len()) as u64, true);
        }

        let sync = 900.0 * self.iterations as f64;
        let reports =
            StageReport::for_sweep(StageKind::Placement, &probe, self.parallel_fraction, sync, ctxs);
        Ok((
            Placement {
                x,
                y,
                die_um: die,
                hpwl_um,
                pi_pins,
                po_pins,
            },
            reports,
        ))
    }
}

impl Default for Placer {
    fn default() -> Self {
        Self::new()
    }
}

/// Endpoints of one net: movable cells + fixed pin points.
#[derive(Debug, Clone)]
struct NetEndpoints {
    cells: Vec<usize>,
    fixed: Vec<(f64, f64)>,
}

impl NetEndpoints {
    /// Every endpoint's position under the cell coordinates `x`, `y`.
    fn points<'a>(&'a self, x: &'a [f64], y: &'a [f64]) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.cells.iter().map(|&c| (x[c], y[c])).chain(self.fixed.iter().copied())
    }
}

fn net_endpoints(
    netlist: &Netlist,
    pi_pins: &[(f64, f64)],
    po_pins: &[(f64, f64)],
) -> Vec<NetEndpoints> {
    netlist
        .nets()
        .iter()
        .map(|net| {
            let mut cells = Vec::new();
            let mut fixed = Vec::new();
            match net.driver {
                Some(eda_cloud_netlist::NetDriver::Cell(c)) => cells.push(c as usize),
                Some(eda_cloud_netlist::NetDriver::PrimaryInput(k)) => {
                    fixed.push(pi_pins[k as usize]);
                }
                None => {}
            }
            for sink in &net.sinks {
                match *sink {
                    eda_cloud_netlist::NetSink::CellPin { cell, .. } => cells.push(cell as usize),
                    eda_cloud_netlist::NetSink::PrimaryOutput(k) => {
                        fixed.push(po_pins[k as usize]);
                    }
                }
            }
            cells.sort_unstable();
            cells.dedup();
            NetEndpoints { cells, fixed }
        })
        .collect()
}

/// For each cell, the nets touching it.
fn cell_nets(netlist: &Netlist) -> Vec<Vec<NetId>> {
    let mut out = vec![Vec::new(); netlist.cell_count()];
    for (ni, net) in netlist.nets().iter().enumerate() {
        if let Some(eda_cloud_netlist::NetDriver::Cell(c)) = net.driver {
            out[c as usize].push(ni as NetId);
        }
        for sink in &net.sinks {
            if let eda_cloud_netlist::NetSink::CellPin { cell, .. } = *sink {
                out[cell as usize].push(ni as NetId);
            }
        }
    }
    for nets in &mut out {
        nets.sort_unstable();
        nets.dedup();
    }
    out
}

/// Row legalization: order cells by (row, x) and assign uniform slots.
fn legalize(x: &mut [f64], y: &mut [f64], side: f64, probe: &mut eda_cloud_perf::PerfProbe) {
    let n = x.len();
    let rows = (n as f64).sqrt().ceil().max(1.0) as usize;
    let row_height = side / rows as f64;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ra = (y[a] / row_height) as i64;
        let rb = (y[b] / row_height) as i64;
        ra.cmp(&rb).then(x[a].total_cmp(&x[b]))
    });
    probe.instr((n as f64 * (n as f64).log2().max(1.0)) as u64); // sort cost
    let per_row = n.div_ceil(rows);
    for (slot, &cell) in order.iter().enumerate() {
        let row = slot / per_row;
        let col = slot % per_row;
        y[cell] = (row as f64 + 0.5) * row_height;
        x[cell] = (col as f64 + 0.5) * side / per_row as f64;
        probe.write(0x5000_0000 + cell as u64 * 16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{Recipe, Synthesizer};
    use eda_cloud_netlist::generators;

    fn placed(width: u32) -> (Placement, StageReport) {
        let aig = generators::adder(width);
        let ctx = ExecContext::with_vcpus(1);
        let (nl, _) = Synthesizer::new().run(&aig, &Recipe::balanced(), &ctx).unwrap();
        Placer::new().run(&nl, &ctx).unwrap()
    }

    #[test]
    fn coordinates_inside_die() {
        let (p, _) = placed(8);
        for (&x, &y) in p.x.iter().zip(&p.y) {
            assert!(x >= 0.0 && x <= p.die_um.0);
            assert!(y >= 0.0 && y <= p.die_um.1);
        }
    }

    #[test]
    fn placement_improves_over_random() {
        // The optimized HPWL must beat a random placement of the same
        // netlist by a sound margin.
        let aig = generators::multiplier(6);
        let ctx = ExecContext::with_vcpus(1);
        let (nl, _) = Synthesizer::new().run(&aig, &Recipe::balanced(), &ctx).unwrap();
        let (p, _) = Placer::new().run(&nl, &ctx).unwrap();

        // Random baseline with the same endpoints.
        let endpoints = net_endpoints(&nl, &p.pi_pins, &p.po_pins);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let rx: Vec<f64> = (0..nl.cell_count()).map(|_| rng.gen_range(0.0..p.die_um.0)).collect();
        let ry: Vec<f64> = (0..nl.cell_count()).map(|_| rng.gen_range(0.0..p.die_um.1)).collect();
        let mut random_hpwl = 0.0;
        for ep in &endpoints {
            random_hpwl += hpwl(ep.points(&rx, &ry));
        }
        assert!(
            p.hpwl_um < 0.8 * random_hpwl,
            "placed {} vs random {random_hpwl}",
            p.hpwl_um
        );
    }

    #[test]
    fn legalization_separates_cells() {
        let (p, _) = placed(8);
        // No two cells at the same legalized position.
        let mut seen: Vec<(i64, i64)> = p
            .x
            .iter()
            .zip(&p.y)
            .map(|(&x, &y)| ((x * 1000.0) as i64, (y * 1000.0) as i64))
            .collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before, "duplicate legalized positions");
    }

    #[test]
    fn counters_show_fp_and_cache_traffic() {
        let (_, report) = placed(10);
        assert!(report.counters.avx_ops > 0, "placement emits AVX work");
        assert!(report.counters.cache_refs > 0);
        assert!(
            report.counters.avx_share() > 0.3,
            "placement is the most FP-heavy stage: {}",
            report.counters.avx_share()
        );
    }

    #[test]
    fn hpwl_of_degenerate_nets() {
        assert_eq!(Placement::hpwl_of(&[]), 0.0);
        assert_eq!(Placement::hpwl_of(&[(3.0, 4.0)]), 0.0);
        assert_eq!(Placement::hpwl_of(&[(0.0, 0.0), (2.0, 3.0)]), 5.0);
    }

    #[test]
    fn empty_netlist_rejected() {
        let nl = Netlist::new("empty", "synth14");
        let err = Placer::new().run(&nl, &ExecContext::default()).unwrap_err();
        assert_eq!(err, FlowError::EmptyDesign);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let (a, _) = placed(8);
        let (b, _) = placed(8);
        assert_eq!(a.x, b.x);
        assert_eq!(a.hpwl_um, b.hpwl_um);
    }
}
