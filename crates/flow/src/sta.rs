//! Static timing analysis: levelized arrival / required / slack
//! propagation with a linear delay model.
//!
//! The paper notes STA is second only to placement in AVX usage —
//! "calculating slacks involves graph traversal from inputs to outputs,
//! with access to floating-point values in the technology library" —
//! while its speedup is capped by level-to-level dependencies. This
//! engine propagates arrivals forward in topological order (parallel
//! within a level, barrier between levels), then requireds backward, and
//! reports worst / total negative slack.

use crate::exec::{sweep_probe, SpanFan};
use crate::{ExecContext, FlowError, Placement, StageKind, StageReport};
use eda_cloud_netlist::{NetDriver, NetSink, Netlist};
use eda_cloud_tech::{DelayModel, Library, LinearDelay};

/// Result of a timing run (all times in picoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Worst negative slack (positive value = all constraints met).
    pub wns_ps: f64,
    /// Total negative slack (0 when timing is met).
    pub tns_ps: f64,
    /// Longest arrival time at any endpoint (critical-path delay).
    pub critical_path_ps: f64,
    /// Clock period the design was checked against.
    pub clock_period_ps: f64,
    /// Number of timing endpoints (primary outputs + flop data pins).
    pub endpoints: usize,
}

/// The STA engine.
#[derive(Debug, Clone)]
pub struct StaEngine {
    library: Library,
    delay: LinearDelay,
    clock_period_ps: f64,
    parallel_fraction: f64,
    corners: usize,
}

impl StaEngine {
    /// Engine over the default library with a 1 ns clock.
    #[must_use]
    pub fn new() -> Self {
        Self {
            library: Library::synthetic_14nm(),
            delay: LinearDelay::new(),
            clock_period_ps: 1_000.0,
            parallel_fraction: 0.60,
            corners: 3,
        }
    }

    /// Analyze the placed netlist.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyDesign`] for an empty netlist,
    /// [`FlowError::Design`] if it is cyclic, or
    /// [`FlowError::Tech`] if a cell master is missing.
    pub fn run(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        ctx: &ExecContext,
    ) -> Result<(TimingReport, StageReport), FlowError> {
        let (timing, mut reports) = self.run_sweep(netlist, placement, std::slice::from_ref(ctx))?;
        Ok((timing, reports.pop().expect("one report per context")))
    }

    /// Analyze the placed netlist once for every context of a sweep:
    /// the timing result and one report per context, in context order,
    /// each what [`StaEngine::run`] under that context returns (timing
    /// and the probe's event stream do not depend on the machine).
    ///
    /// # Errors
    ///
    /// As [`StaEngine::run`].
    pub fn run_sweep(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        ctxs: &[ExecContext],
    ) -> Result<(TimingReport, Vec<StageReport>), FlowError> {
        if netlist.cell_count() == 0 {
            return Err(FlowError::EmptyDesign);
        }
        let mut probe = sweep_probe(ctxs);
        let spans = SpanFan::of(ctxs);
        let order = netlist.topological_cells()?;

        // Per-net timing records are ~64 bytes in a production timer
        // (arrival/required/slew per corner, load, flags).
        const NET_TIMING_STRIDE: u64 = 64;

        // Per-net wirelength (HPWL from placement) and load capacitance.
        let lib_base = 0x6000_0000u64;
        let net_base = 0x7000_0000u64;
        let n_nets = netlist.net_count();
        let mut net_wl = vec![0.0f64; n_nets];
        let mut net_load = vec![0.0f64; n_nets];
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for (ni, net) in netlist.nets().iter().enumerate() {
            pts.clear();
            match net.driver {
                Some(NetDriver::Cell(c)) => pts.push(placement.cell_pos(c as usize)),
                Some(NetDriver::PrimaryInput(k)) => pts.push(placement.pi_pins[k as usize]),
                None => {}
            }
            let mut load = 0.0;
            for sink in &net.sinks {
                match *sink {
                    NetSink::CellPin { cell, .. } => {
                        pts.push(placement.cell_pos(cell as usize));
                        let master = self
                            .library
                            .cell(&netlist.cells()[cell as usize].cell_name)?;
                        probe.read(lib_base + u64::from(cell) % 256 * 64);
                        probe.fp(1, true);
                        load += master.input_cap_ff;
                    }
                    NetSink::PrimaryOutput(k) => {
                        pts.push(placement.po_pins[k as usize]);
                        load += 2.0; // pad capacitance
                    }
                }
            }
            net_wl[ni] = Placement::hpwl_of(&pts);
            net_load[ni] = load + self.delay.wire_cap_ff(net_wl[ni]);
            probe.write(net_base + ni as u64 * NET_TIMING_STRIDE);
            probe.fp(4, true);
        }

        // Multi-corner analysis: each corner derates delays and repeats
        // the forward/backward sweeps (signoff STA runs several corners;
        // this also gives the memory system the re-reference behaviour a
        // real timer exhibits).
        let mut net_arrival = vec![0.0f64; n_nets];
        spans.counter("levelized_cells", order.len() as u64);
        for corner in 0..self.corners {
            let corner_span = spans.child(format_args!("corner/{corner}"));
            corner_span.counter("nets", n_nets as u64);
            let derate = 1.0 + 0.08 * corner as f64;
            // Forward arrival propagation.
            let arr_base = 0x8000_0000u64;
            let mut corner_arrival = vec![0.0f64; n_nets];
            for &cid in &order {
                let cell = &netlist.cells()[cid as usize];
                let master = self.library.cell(&cell.cell_name)?;
                probe.read(lib_base + u64::from(cid) % 256 * 64); // library row
                let mut arr_in: f64 = 0.0;
                for &inet in &cell.inputs {
                    probe.read(arr_base + u64::from(inet) * NET_TIMING_STRIDE);
                    let later = corner_arrival[inet as usize] > arr_in;
                    probe.branch(0xE0, later);
                    if later {
                        arr_in = corner_arrival[inet as usize];
                    }
                }
                // Sequential cells launch at t=0 (register output).
                let launch = if cell.kind.is_sequential() { 0.0 } else { arr_in };
                let out = cell.output as usize;
                let gate = derate * self.delay.gate_delay_ps(master, net_load[out]);
                let wire = derate
                    * self
                        .delay
                        .wire_delay_ps(netlist.nets()[out].sinks.len(), net_wl[out]);
                corner_arrival[out] = launch + gate + wire;
                probe.loop_branches(cell.inputs.len() as u64 + 1);
                probe.write(arr_base + u64::from(cell.output) * NET_TIMING_STRIDE);
                probe.fp(4, true); // delay arithmetic on library floats
                probe.fp(4, false); // scalar bookkeeping
            }

            // Backward required-time propagation (reverse topological
            // order): required at each net is the minimum over its sinks of
            // (consumer required - consumer delay); endpoints start at the
            // clock period.
            let req_base = 0xC000_0000u64;
            let mut net_required = vec![f64::INFINITY; n_nets];
            for (_, net) in netlist.primary_outputs() {
                net_required[*net as usize] = self.clock_period_ps;
            }
            for &cid in order.iter().rev() {
                let cell = &netlist.cells()[cid as usize];
                let master = self.library.cell(&cell.cell_name)?;
                probe.read(lib_base + u64::from(cid) % 256 * 64);
                let out = cell.output as usize;
                let req_out = if cell.kind.is_sequential() {
                    self.clock_period_ps
                } else {
                    net_required[out]
                };
                let gate = derate * self.delay.gate_delay_ps(master, net_load[out]);
                let wire = derate
                    * self
                        .delay
                        .wire_delay_ps(netlist.nets()[out].sinks.len(), net_wl[out]);
                let req_in = req_out - gate - wire;
                for &inet in &cell.inputs {
                    probe.read(req_base + u64::from(inet) * NET_TIMING_STRIDE);
                    let tighter = req_in < net_required[inet as usize];
                    probe.branch(0xE2, tighter);
                    if tighter {
                        net_required[inet as usize] = req_in;
                        probe.write(req_base + u64::from(inet) * NET_TIMING_STRIDE);
                    }
                }
                probe.loop_branches(cell.inputs.len() as u64 + 1);
                probe.fp(4, true);
                probe.fp(2, false);
            }

            // Keep the slow-corner (first) arrivals for reporting.
            if corner == 0 {
                net_arrival = corner_arrival;
            }
        }

        // Endpoints: primary outputs and flop data inputs.
        let mut endpoints: Vec<f64> = Vec::new();
        for (_, net) in netlist.primary_outputs() {
            endpoints.push(net_arrival[*net as usize]);
        }
        for cell in netlist.cells() {
            if cell.kind.is_sequential() {
                if let Some(&d) = cell.inputs.first() {
                    endpoints.push(net_arrival[d as usize]);
                }
            }
        }

        // Backward required / slack.
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut critical = 0.0f64;
        for &arr in &endpoints {
            let slack = self.clock_period_ps - arr;
            let violated = slack < 0.0;
            probe.branch(0xE1, violated);
            if violated {
                tns += slack;
            }
            wns = wns.min(slack);
            critical = critical.max(arr);
            probe.fp(3, true);
        }
        if endpoints.is_empty() {
            wns = self.clock_period_ps;
        }

        let levels = netlist.depth().max(1) as f64;
        let sync = 250.0 * levels; // one barrier per level
        let reports = StageReport::for_sweep(StageKind::Sta, &probe, self.parallel_fraction, sync, ctxs);
        Ok((
            TimingReport {
                wns_ps: wns,
                tns_ps: tns,
                critical_path_ps: critical,
                clock_period_ps: self.clock_period_ps,
                endpoints: endpoints.len(),
            },
            reports,
        ))
    }
}

impl Default for StaEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{Recipe, Synthesizer};
    use crate::Placer;
    use eda_cloud_netlist::generators;

    fn analyzed(width: u32, clock_ps: f64) -> (TimingReport, StageReport) {
        let aig = generators::adder(width);
        let ctx = ExecContext::with_vcpus(1);
        let (nl, _) = Synthesizer::new().run(&aig, &Recipe::balanced(), &ctx).unwrap();
        let (pl, _) = Placer::new().run(&nl, &ctx).unwrap();
        StaEngine { clock_period_ps: clock_ps, ..StaEngine::new() }.run(&nl, &pl, &ctx).unwrap()
    }

    #[test]
    fn loose_clock_meets_timing() {
        let (t, _) = analyzed(8, 1_000_000.0);
        assert!(t.wns_ps >= 0.0);
        assert_eq!(t.tns_ps, 0.0);
        assert!(t.critical_path_ps > 0.0);
    }

    #[test]
    fn tight_clock_fails_timing() {
        let (t, _) = analyzed(8, 1.0);
        assert!(t.tns_ps < 0.0);
        assert!(t.wns_ps < 0.0);
        // WNS is the single worst endpoint; TNS accumulates all.
        assert!(t.tns_ps <= t.wns_ps);
    }

    #[test]
    fn deeper_logic_has_longer_critical_path() {
        let (shallow, _) = analyzed(4, 1_000.0);
        let (deep, _) = analyzed(16, 1_000.0);
        assert!(
            deep.critical_path_ps > shallow.critical_path_ps,
            "16-bit adder must be slower than 4-bit: {} vs {}",
            deep.critical_path_ps,
            shallow.critical_path_ps
        );
    }

    #[test]
    fn counters_show_library_float_traffic() {
        let (_, report) = analyzed(10, 1_000.0);
        assert!(report.counters.avx_ops > 0);
        assert!(report.counters.cache_refs > 0);
        let share = report.counters.avx_share();
        assert!(
            share > 0.5 && share < 0.95,
            "STA AVX share between placement and synthesis: {share}"
        );
        assert_eq!(report.kind, StageKind::Sta);
    }

    #[test]
    fn endpoint_count_matches_outputs() {
        let (t, _) = analyzed(6, 1_000.0);
        assert_eq!(t.endpoints, 7); // 6 sum bits + carry
    }

    #[test]
    fn empty_design_rejected() {
        let nl = Netlist::new("empty", "synth14");
        let pl = Placement {
            x: vec![],
            y: vec![],
            die_um: (1.0, 1.0),
            hpwl_um: 0.0,
            pi_pins: vec![],
            po_pins: vec![],
        };
        assert_eq!(
            StaEngine::new()
                .run(&nl, &pl, &ExecContext::default())
                .unwrap_err(),
            FlowError::EmptyDesign
        );
    }
}
