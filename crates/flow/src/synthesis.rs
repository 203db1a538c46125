//! Logic synthesis: AIG optimization passes and technology mapping.
//!
//! Mirrors the structure of an ABC-style synthesis flow: a *recipe* of
//! optimization passes (balance / rewrite / refactor) transforms the AIG,
//! then a pattern-based technology mapper covers it with library cells
//! (detecting XOR and MUX structures, choosing NAND/NOR/AND/OR polarity
//! by fanout vote, inserting inverters on demand), and an optional
//! random simulation (four vectors, two above ten inputs) verifies the
//! mapped netlist against the source AIG. A unit test decides the
//! mapper's equivalence exhaustively on every small generator family.
//!
//! Different recipes produce structurally different netlists computing
//! the same function — exactly how the paper turns 18 designs into 330
//! netlists to challenge its GCN.

use crate::exec::{sweep_probe, SpanFan};
use crate::{ExecContext, FlowError, StageKind, StageReport};
use eda_cloud_netlist::{Aig, AigNode, Lit, NetId, Netlist};
use eda_cloud_perf::{CounterSet, PerfProbe, ProbeTrace};
use eda_cloud_tech::{CellKind, Library};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// One optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Reassociate AND chains into balanced trees (depth reduction).
    Balance,
    /// Rebuild through the structural hasher with local simplification
    /// rules (node-count reduction).
    Rewrite,
    /// Seeded restructuring: perturb chain association order. Preserves
    /// function, changes structure — used to generate dataset variants.
    Refactor(u64),
    /// Dead-logic sweep: drop AND nodes not in any output's transitive
    /// fanin (generators and earlier passes can leave unreferenced
    /// logic).
    Sweep,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Balance => write!(f, "balance"),
            Pass::Rewrite => write!(f, "rewrite"),
            Pass::Refactor(seed) => write!(f, "refactor({seed})"),
            Pass::Sweep => write!(f, "sweep"),
        }
    }
}

/// A named sequence of passes.
///
/// # Examples
///
/// ```
/// use eda_cloud_flow::Recipe;
///
/// let recipes = Recipe::standard_suite();
/// assert!(recipes.len() >= 18);
/// assert!(recipes.iter().any(|r| r.name() == "resyn"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    name: String,
    passes: Vec<Pass>,
}

impl Recipe {
    /// Build a recipe from explicit passes.
    ///
    /// An empty pass list is rejected with
    /// [`FlowError::EmptyRecipe`]: a pass-free recipe would silently
    /// degenerate the runtime estimate (the `.max(1)` guard in the
    /// synchronization-overhead model) and poison recipe-search
    /// alphabets. The deliberate pass-free baseline is [`Recipe::raw`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyRecipe`] when `passes` is empty.
    pub fn new(name: impl Into<String>, passes: Vec<Pass>) -> Result<Self, FlowError> {
        let name = name.into();
        if passes.is_empty() {
            return Err(FlowError::EmptyRecipe { name });
        }
        Ok(Self { name, passes })
    }

    /// Internal constructor for the known-good built-in recipes.
    fn from_parts(name: impl Into<String>, passes: Vec<Pass>) -> Self {
        Self {
            name: name.into(),
            passes,
        }
    }

    /// The light default: balance then rewrite.
    #[must_use]
    pub fn balanced() -> Self {
        Self::from_parts("balanced", vec![Pass::Balance, Pass::Rewrite])
    }

    /// Map directly with no optimization. This is the one sanctioned
    /// pass-free recipe; [`Recipe::new`] rejects empty pass lists.
    #[must_use]
    pub fn raw() -> Self {
        Self::from_parts("raw", Vec::new())
    }

    /// The variant-generation suite: ~20 recipes combining pass orders
    /// and refactor seeds, mirroring the paper's per-design netlist
    /// variants (330 netlists from 18 designs).
    #[must_use]
    pub fn standard_suite() -> Vec<Recipe> {
        let mut suite = vec![
            Self::raw(),
            Self::balanced(),
            Self::from_parts("resyn", vec![Pass::Balance, Pass::Rewrite, Pass::Balance]),
            Self::from_parts(
                "resyn2",
                vec![
                    Pass::Balance,
                    Pass::Rewrite,
                    Pass::Refactor(2),
                    Pass::Balance,
                    Pass::Rewrite,
                ],
            ),
            Self::from_parts("rw", vec![Pass::Rewrite]),
            Self::from_parts("rwrw", vec![Pass::Rewrite, Pass::Rewrite]),
            Self::from_parts("sweep", vec![Pass::Sweep]),
            Self::from_parts("swb", vec![Pass::Sweep, Pass::Balance]),
        ];
        for seed in 0..8u64 {
            suite.push(Self::from_parts(
                format!("rf{seed}"),
                vec![Pass::Refactor(seed), Pass::Balance],
            ));
            suite.push(Self::from_parts(
                format!("rfrw{seed}"),
                vec![Pass::Refactor(seed.wrapping_mul(7919) + 13), Pass::Rewrite],
            ));
        }
        suite
    }

    /// Recipe name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pass sequence.
    #[must_use]
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }
}

impl Default for Recipe {
    fn default() -> Self {
        Self::balanced()
    }
}

/// The synthesis engine.
///
/// Pass-dominated: each optimization pass is an inherently sequential
/// sweep, with only local transforms parallelizable — the paper measures
/// a ~1.8x speedup at 8 vCPUs, the weakest scaling of the four stages.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    library: Library,
    verify: bool,
    parallel_fraction: f64,
}

impl Synthesizer {
    /// Engine over the default synthetic library, with verification on.
    #[must_use]
    pub fn new() -> Self {
        Self {
            library: Library::synthetic_14nm(),
            verify: true,
            parallel_fraction: 0.48,
        }
    }

    /// Toggle the post-mapping equivalence spot-check (random vectors).
    #[must_use]
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Run the recipe and map to cells.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyDesign`] for a logic-free AIG,
    /// [`FlowError::Design`] if the input is malformed and
    /// [`FlowError::MappingMismatch`] if verification finds an input on
    /// which the mapped netlist differs from the AIG (an engine bug).
    pub fn run(
        &self,
        aig: &Aig,
        recipe: &Recipe,
        ctx: &ExecContext,
    ) -> Result<(Netlist, StageReport), FlowError> {
        let (netlist, mut reports) = self.run_sweep(aig, recipe, std::slice::from_ref(ctx))?;
        Ok((netlist, reports.pop().expect("one report per context")))
    }

    /// Synthesize once for every context of a sweep: the mapped netlist
    /// and one report per context, in context order, each what
    /// [`Synthesizer::run`] under that context returns. The passes,
    /// the mapper and the verifier never read the probe back, so the
    /// netlist and the event stream are the same on every machine;
    /// only the cost of the events differs, and one sweep probe counts
    /// that for all of them.
    ///
    /// # Errors
    ///
    /// As [`Synthesizer::run`].
    pub fn run_sweep(
        &self,
        aig: &Aig,
        recipe: &Recipe,
        ctxs: &[ExecContext],
    ) -> Result<(Netlist, Vec<StageReport>), FlowError> {
        let mut probe = sweep_probe(ctxs);
        let netlist = self.execute(aig, recipe, &SpanFan::of(ctxs), &mut probe)?;
        let reports = StageReport::for_sweep(
            StageKind::Synthesis,
            &probe,
            self.parallel_fraction,
            sync_overhead(recipe),
            ctxs,
        );
        Ok((netlist, reports))
    }

    /// Like [`Synthesizer::run`], additionally recording the probe
    /// event stream into a replayable [`SynthesisTrace`].
    ///
    /// The engine never reads probe state back, so the event stream is
    /// a pure function of `(aig, recipe, verify)` — machine-
    /// independent. Calling [`Synthesizer::report_from_trace`] with the
    /// trace and another context yields a report bit-identical to
    /// re-running synthesis under that context, without re-doing the
    /// structural work.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Synthesizer::run`].
    pub fn run_traced(
        &self,
        aig: &Aig,
        recipe: &Recipe,
        ctx: &ExecContext,
    ) -> Result<(Netlist, StageReport, SynthesisTrace), FlowError> {
        let mut probe = PerfProbe::for_machine_traced(&ctx.machine);
        let netlist = self.execute(aig, recipe, &SpanFan::of([ctx]), &mut probe)?;
        let (counters, events) = probe.into_traced();
        let report = self.finalize(counters, recipe, ctx);
        let trace = SynthesisTrace {
            events,
            sync_cycles: sync_overhead(recipe),
            parallel_fraction: self.parallel_fraction,
        };
        Ok((netlist, report, trace))
    }

    /// Recompute the stage report a fresh [`Synthesizer::run`] under
    /// `ctx` would produce, from a recorded trace instead of a re-run.
    #[must_use]
    pub fn report_from_trace(trace: &SynthesisTrace, ctx: &ExecContext) -> StageReport {
        let counters = trace.events.replay(&ctx.machine);
        StageReport::from_counters(
            StageKind::Synthesis,
            counters,
            trace.parallel_fraction,
            trace.sync_cycles,
            ctx,
        )
    }

    /// The structural pipeline: passes, mapping, verification.
    fn execute(
        &self,
        aig: &Aig,
        recipe: &Recipe,
        span: &SpanFan,
        probe: &mut PerfProbe,
    ) -> Result<Netlist, FlowError> {
        if aig.output_count() == 0 {
            return Err(FlowError::EmptyDesign);
        }
        aig.check()?;

        // Optimization passes.
        let mut working = aig.clone();
        probe.instr(working.node_count() as u64); // initial strash sweep
        for pass in recipe.passes() {
            let label = match pass {
                Pass::Balance => "pass/balance",
                Pass::Rewrite => "pass/rewrite",
                Pass::Refactor(_) => "pass/refactor",
                Pass::Sweep => "pass/sweep",
            };
            let pass_span = span.child(label);
            pass_span.counter("nodes_in", working.node_count() as u64);
            working = match pass {
                Pass::Balance => balance(&working, probe),
                Pass::Rewrite => rewrite(&working, probe),
                Pass::Refactor(seed) => refactor(&working, *seed, probe),
                Pass::Sweep => sweep(&working, probe),
            };
            pass_span.counter("nodes_out", working.node_count() as u64);
        }

        // Technology mapping.
        let netlist = {
            let map_span = span.child("map");
            let netlist = map_to_cells(&working, &self.library, aig.name(), recipe, probe);
            map_span.counter("cells", netlist.cell_count() as u64);
            netlist
        };

        // Equivalence checking.
        if self.verify {
            let _v = span.child("verify/random");
            verify_equivalence(aig, &netlist, probe)?;
        }
        Ok(netlist)
    }

    /// Turn final counters into the stage report for `ctx`.
    fn finalize(&self, counters: CounterSet, recipe: &Recipe, ctx: &ExecContext) -> StageReport {
        StageReport::from_counters(
            StageKind::Synthesis,
            counters,
            self.parallel_fraction,
            sync_overhead(recipe),
            ctx,
        )
    }
}

/// Synchronization overhead attributed to a recipe's pass pipeline.
fn sync_overhead(recipe: &Recipe) -> f64 {
    600.0 * recipe.passes().len().max(1) as f64
}

/// A replayable recording of one synthesis run: the machine-independent
/// probe event stream plus the report parameters that depend only on
/// the recipe and engine (not the machine).
///
/// Produced by [`Synthesizer::run_traced`]; consumed by
/// [`Synthesizer::report_from_trace`] to re-cost the same run on other
/// machine configurations without repeating the structural work. No
/// product path records one any more ([`Synthesizer::run_sweep`] costs
/// a run for every machine at once); it stays as the independent
/// reference `tests/sweep_equivalence.rs` holds the sweep to.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisTrace {
    events: ProbeTrace,
    sync_cycles: f64,
    parallel_fraction: f64,
}

impl Default for Synthesizer {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------

/// Copy `aig` into a fresh structurally-hashed AIG, applying `assoc` to
/// reassociate conjunction chains.
fn rebuild_with<F>(aig: &Aig, probe: &mut PerfProbe, mut assoc: F) -> Aig
where
    F: FnMut(&mut Aig, Vec<Lit>, &mut PerfProbe) -> Lit,
{
    let fanouts = aig.fanouts();
    let mut out = Aig::new(aig.name());
    let mut map: Vec<Lit> = Vec::with_capacity(aig.node_count());
    let translate = |map: &[Lit], l: Lit| map[l.node() as usize].complement_if(l.is_complemented());
    for (i, node) in aig.nodes().iter().enumerate() {
        probe.read(i as u64 * 16); // node table walk
        let lit = match node {
            AigNode::Const0 => Lit::FALSE,
            AigNode::Pi(_) => out.add_pi(),
            AigNode::And(a, b) => {
                // Collect the conjunction chain rooted here: descend into
                // plain (non-complemented) AND fanins with single fanout.
                let mut leaves: Vec<Lit> = Vec::new();
                let mut stack = vec![*a, *b];
                while let Some(l) = stack.pop() {
                    probe.read(u64::from(l.raw()) * 8 + 4);
                    let expandable = !l.is_complemented()
                        && fanouts[l.node() as usize] == 1
                        && matches!(aig.nodes()[l.node() as usize], AigNode::And(..));
                    probe.branch(0x51, expandable);
                    if expandable {
                        if let AigNode::And(x, y) = aig.nodes()[l.node() as usize] {
                            stack.push(x);
                            stack.push(y);
                        }
                    } else {
                        leaves.push(translate(&map, l));
                    }
                }
                probe.loop_branches(leaves.len() as u64);
                // Hash computation + canonicalization per rebuilt node.
                probe.instr(14 + 4 * leaves.len() as u64);
                assoc(&mut out, leaves, probe)
            }
        };
        map.push(lit);
    }
    for (name, l) in aig.outputs() {
        out.add_po(name.clone(), translate(&map, *l));
    }
    out
}

/// Balance: rebuild conjunction chains as balanced trees.
fn balance(aig: &Aig, probe: &mut PerfProbe) -> Aig {
    rebuild_with(aig, probe, |out, leaves, probe| {
        probe.instr(leaves.len() as u64);
        out.and_many(leaves)
    })
}

/// Rewrite: rebuild through the structural hasher (folds constants,
/// shares duplicates) keeping left-deep association.
fn rewrite(aig: &Aig, probe: &mut PerfProbe) -> Aig {
    rebuild_with(aig, probe, |out, mut leaves, probe| {
        probe.instr(leaves.len() as u64);
        leaves.sort_unstable(); // canonical operand order: more sharing
        let mut acc = match leaves.first() {
            Some(&l) => l,
            None => return Lit::TRUE,
        };
        for &l in &leaves[1..] {
            acc = out.and2(acc, l);
        }
        acc
    })
}

/// Refactor: seeded chain permutation — same function, new structure.
fn refactor(aig: &Aig, seed: u64, probe: &mut PerfProbe) -> Aig {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rebuild_with(aig, probe, move |out, mut leaves, probe| {
        probe.instr(leaves.len() as u64);
        // Fisher-Yates shuffle of the chain, then left-deep rebuild.
        for i in (1..leaves.len()).rev() {
            let j = rng.gen_range(0..=i);
            leaves.swap(i, j);
        }
        let mut acc = match leaves.first() {
            Some(&l) => l,
            None => return Lit::TRUE,
        };
        for &l in &leaves[1..] {
            acc = out.and2(acc, l);
        }
        acc
    })
}

/// Sweep: copy only the nodes reachable from a primary output.
fn sweep(aig: &Aig, probe: &mut PerfProbe) -> Aig {
    let n = aig.node_count();
    let mut live = vec![false; n];
    let mut stack: Vec<u32> = aig.outputs().iter().map(|(_, l)| l.node()).collect();
    while let Some(id) = stack.pop() {
        probe.read(0xF000_0000 + u64::from(id) * 4);
        if std::mem::replace(&mut live[id as usize], true) {
            probe.branch(0x55, true);
            continue;
        }
        probe.branch(0x55, false);
        if let AigNode::And(a, b) = aig.nodes()[id as usize] {
            stack.push(a.node());
            stack.push(b.node());
        }
    }
    let mut out = Aig::new(aig.name());
    let mut map: Vec<Lit> = vec![Lit::FALSE; n];
    for (i, node) in aig.nodes().iter().enumerate() {
        match node {
            AigNode::Const0 => {}
            // PIs are always kept so the interface is unchanged.
            AigNode::Pi(_) => map[i] = out.add_pi(),
            AigNode::And(a, b) => {
                if live[i] {
                    let la = map[a.node() as usize].complement_if(a.is_complemented());
                    let lb = map[b.node() as usize].complement_if(b.is_complemented());
                    map[i] = out.and2(la, lb);
                    probe.instr(6);
                }
            }
        }
    }
    for (name, l) in aig.outputs() {
        out.add_po(
            name.clone(),
            map[l.node() as usize].complement_if(l.is_complemented()),
        );
    }
    out
}

// ---------------------------------------------------------------------
// Technology mapping.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Covered {
    /// Node is mapped as its own gate.
    Root,
    /// Node is absorbed inside an XOR/MUX pattern rooted elsewhere.
    Absorbed,
}

/// Map the AIG onto library cells.
fn map_to_cells(
    aig: &Aig,
    lib: &Library,
    design_name: &str,
    recipe: &Recipe,
    probe: &mut PerfProbe,
) -> Netlist {
    let nodes = aig.nodes();
    let n = nodes.len();

    // Usage polarity vote: how often each node is referenced plain vs
    // complemented (POs included).
    let mut plain_uses = vec![0u32; n];
    let mut compl_uses = vec![0u32; n];
    let tally = |l: &Lit, plain: &mut [u32], compl: &mut [u32]| {
        if l.is_complemented() {
            compl[l.node() as usize] += 1;
        } else {
            plain[l.node() as usize] += 1;
        }
    };
    for node in nodes {
        if let AigNode::And(a, b) = node {
            tally(a, &mut plain_uses, &mut compl_uses);
            tally(b, &mut plain_uses, &mut compl_uses);
        }
    }
    for (_, l) in aig.outputs() {
        tally(l, &mut plain_uses, &mut compl_uses);
    }

    // Pattern detection: XOR / MUX rooted at complemented-use AND nodes.
    // xor2(a,b) in this AIG builder is !AND(!AND(a,!b), !AND(!a,b));
    // mux2(s,t,e) is !AND(!AND(s,t), !AND(!s,e)).
    #[derive(Debug, Clone, Copy)]
    enum Pattern {
        Xor { a: Lit, b: Lit },
        Mux { s: Lit, t: Lit, e: Lit },
    }
    let mut pattern: Vec<Option<Pattern>> = vec![None; n];
    let mut covered = vec![Covered::Root; n];
    let single_internal_use =
        |i: usize, plain: &[u32], compl: &[u32]| plain[i] == 0 && compl[i] == 1;
    for (i, node) in nodes.iter().enumerate() {
        probe.read(i as u64 * 16 + 1);
        let AigNode::And(l1, l2) = node else { continue };
        let is_candidate = l1.is_complemented() && l2.is_complemented();
        probe.branch(0x70, is_candidate);
        if !is_candidate {
            continue;
        }
        let (x, y) = (l1.node() as usize, l2.node() as usize);
        let (AigNode::And(xa, xb), AigNode::And(ya, yb)) = (nodes[x], nodes[y]) else {
            continue;
        };
        // Children must be used only inside this pattern.
        if !single_internal_use(x, &plain_uses, &compl_uses)
            || !single_internal_use(y, &plain_uses, &compl_uses)
        {
            probe.branch(0x71, false);
            continue;
        }
        probe.branch(0x71, true);
        // XOR: x = (a & !b), y = (!a & b).
        let mut found = None;
        for (p, q) in [(xa, xb), (xb, xa)] {
            for (r, s) in [(ya, yb), (yb, ya)] {
                if p == !r && q == !s && !p.is_complemented() && q.is_complemented() {
                    found = Some(Pattern::Xor { a: p, b: !q });
                }
            }
        }
        // MUX: x = (s & t), y = (!s & e).
        if found.is_none() {
            for (p, q) in [(xa, xb), (xb, xa)] {
                for (r, s) in [(ya, yb), (yb, ya)] {
                    if r == !p {
                        found = Some(Pattern::Mux { s: p, t: q, e: s });
                    }
                }
            }
        }
        probe.branch(0x72, found.is_some());
        if let Some(pat) = found {
            pattern[i] = Some(pat);
            covered[x] = Covered::Absorbed;
            covered[y] = Covered::Absorbed;
        }
    }

    // Emit the netlist. Each mapped node implements one polarity of its
    // literal; inverters bridge polarity mismatches on demand.
    let mut nl = Netlist::new(format!("{design_name}.{}", recipe.name()), lib.name());
    // net id of the *plain* literal of each node (if materialized), and
    // of the complemented literal.
    let mut net_plain: Vec<Option<NetId>> = vec![None; n];
    let mut net_compl: Vec<Option<NetId>> = vec![None; n];
    let mut inv_count = 0u32;
    let mut gate_count = 0u32;

    // Constant nets on demand.
    let mut const0: Option<NetId> = None;
    let mut const1: Option<NetId> = None;

    for (k, &pi) in aig.inputs().iter().enumerate() {
        let net = nl.add_input(format!("pi{k}"));
        net_plain[pi as usize] = Some(net);
    }

    // Fetch (or synthesize via INV / TIE) the net for a literal. The
    // argument list is the full memo state of the conversion; bundling
    // it into a struct would only rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn literal_net(
        l: Lit,
        nl: &mut Netlist,
        net_plain: &mut [Option<NetId>],
        net_compl: &mut [Option<NetId>],
        const0: &mut Option<NetId>,
        const1: &mut Option<NetId>,
        inv_count: &mut u32,
        probe: &mut PerfProbe,
    ) -> NetId {
        probe.read(u64::from(l.raw()) * 8 + 2);
        if l.is_const() {
            let (slot, master, kind) = if l.is_complemented() {
                (const1, "TIE1_X1", CellKind::Tie1)
            } else {
                (const0, "TIE0_X1", CellKind::Tie0)
            };
            return *slot.get_or_insert_with(|| {
                let net = nl.add_net(if kind == CellKind::Tie1 { "const1" } else { "const0" });
                nl.add_cell(format!("tie_{kind}"), master, kind, vec![], net);
                net
            });
        }
        let i = l.node() as usize;
        let (have, want) = if l.is_complemented() {
            (&mut net_compl[i], &net_plain[i])
        } else {
            (&mut net_plain[i], &net_compl[i])
        };
        if let Some(net) = *have {
            return net;
        }
        // Invert the other polarity (which must exist: nodes are
        // materialized before use in topological order).
        let src = want.expect("source polarity materialized before use");
        let inv_net = nl.add_net(format!("inv{inv_count}"));
        nl.add_cell(
            format!("u_inv{inv_count}"),
            "INV_X1",
            CellKind::Inv,
            vec![src],
            inv_net,
        );
        *inv_count += 1;
        *have = Some(inv_net);
        inv_net
    }

    macro_rules! lit_net {
        ($l:expr) => {
            literal_net(
                $l,
                &mut nl,
                &mut net_plain,
                &mut net_compl,
                &mut const0,
                &mut const1,
                &mut inv_count,
                probe,
            )
        };
    }

    for (i, node) in nodes.iter().enumerate() {
        let AigNode::And(a, b) = *node else { continue };
        if covered[i] == Covered::Absorbed {
            continue;
        }
        probe.instr(18); // gate selection, polarity vote, naming
        probe.loop_branches(1);
        let out_net = nl.add_net(format!("n{i}"));
        if let Some(pat) = pattern[i] {
            // The pattern computes the *complemented* literal of node i.
            match pat {
                Pattern::Xor { a, b } => {
                    let na = lit_net!(a);
                    let nb = lit_net!(b);
                    nl.add_cell(
                        format!("g{gate_count}"),
                        "XOR2_X1",
                        CellKind::Xor2,
                        vec![na, nb],
                        out_net,
                    );
                }
                Pattern::Mux { s, t, e } => {
                    let ne = lit_net!(e);
                    let nt = lit_net!(t);
                    let ns = lit_net!(s);
                    nl.add_cell(
                        format!("g{gate_count}"),
                        "MUX2_X1",
                        CellKind::Mux2,
                        vec![ne, nt, ns],
                        out_net,
                    );
                }
            }
            gate_count += 1;
            net_compl[i] = Some(out_net);
            continue;
        }
        // Polarity vote decides NAND/AND (and OR/NOR via De Morgan).
        let want_compl = compl_uses[i] > plain_uses[i];
        let both_compl = a.is_complemented() && b.is_complemented();
        probe.branch(0x80, want_compl);
        probe.branch(0x81, both_compl);
        let (kind, master, in_a, in_b, is_compl_out) = if both_compl && want_compl {
            // !(!a & !b) = a | b  -> OR gives plain of... careful:
            // node literal plain = !a & !b; complemented = a | b.
            (CellKind::Or2, "OR2_X1", !a, !b, true)
        } else if both_compl {
            // plain polarity of !a & !b directly: NOR(a, b).
            (CellKind::Nor2, "NOR2_X1", !a, !b, false)
        } else if want_compl {
            (CellKind::Nand2, "NAND2_X1", a, b, true)
        } else {
            (CellKind::And2, "AND2_X1", a, b, false)
        };
        let na = lit_net!(in_a);
        let nb = lit_net!(in_b);
        nl.add_cell(
            format!("g{gate_count}"),
            master,
            kind,
            vec![na, nb],
            out_net,
        );
        gate_count += 1;
        if is_compl_out {
            net_compl[i] = Some(out_net);
        } else {
            net_plain[i] = Some(out_net);
        }
    }

    for (k, (name, l)) in aig.outputs().iter().enumerate() {
        let mut net = lit_net!(*l);
        // A PO cannot share a net with a PI in this netlist model
        // (ports are nets); buffer PI-fed outputs.
        let is_pi_net = nl.primary_inputs().contains(&net);
        probe.branch(0x90, is_pi_net);
        if is_pi_net {
            let buf_net = nl.add_net(format!("po_buf{k}"));
            nl.add_cell(
                format!("u_pobuf{k}"),
                "BUF_X1",
                CellKind::Buf,
                vec![net],
                buf_net,
            );
            net = buf_net;
        }
        nl.add_output(name.clone(), net);
    }
    nl
}

/// Random-vector equivalence spot-check between source AIG and mapped
/// netlist.
fn verify_equivalence(
    aig: &Aig,
    netlist: &Netlist,
    probe: &mut PerfProbe,
) -> Result<(), FlowError> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE9A);
    let rounds = if aig.input_count() <= 10 { 4 } else { 2 };
    for _ in 0..rounds {
        let inputs: Vec<bool> = (0..aig.input_count()).map(|_| rng.gen_bool(0.5)).collect();
        probe.instr((aig.node_count() + netlist.cell_count()) as u64);
        let golden = aig.simulate(&inputs)?;
        let mapped = netlist.simulate(&inputs)?;
        if golden != mapped {
            return Err(FlowError::MappingMismatch { inputs });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_cloud_netlist::generators;

    fn ctx() -> ExecContext {
        ExecContext::with_vcpus(1)
    }

    #[test]
    fn maps_adder_correctly() {
        let aig = generators::adder(6);
        let (nl, report) = Synthesizer::new()
            .run(&aig, &Recipe::balanced(), &ctx())
            .expect("synthesis succeeds");
        nl.check().expect("netlist well-formed");
        assert!(report.runtime_secs > 0.0);
        assert_eq!(nl.primary_inputs().len(), 12);
        assert_eq!(nl.primary_outputs().len(), 7);
    }

    #[test]
    fn all_recipes_preserve_function() {
        let aig = generators::alu(4);
        for recipe in Recipe::standard_suite() {
            // Verification inside run() checks random vectors.
            let (nl, _) = Synthesizer::new()
                .run(&aig, &recipe, &ctx())
                .unwrap_or_else(|e| panic!("recipe {} failed: {e}", recipe.name()));
            nl.check().expect("well-formed");
        }
    }

    #[test]
    fn xor_pattern_is_detected() {
        let aig = generators::parity(8);
        let (nl, _) = Synthesizer::new()
            .run(&aig, &Recipe::raw(), &ctx())
            .expect("synthesis");
        let xors = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::Xor2)
            .count();
        assert!(xors >= 7, "parity tree should map to XOR cells, got {xors}");
    }

    #[test]
    fn mux_pattern_is_detected() {
        let aig = generators::barrel(8);
        let (nl, _) = Synthesizer::new()
            .run(&aig, &Recipe::raw(), &ctx())
            .expect("synthesis");
        let muxes = nl
            .cells()
            .iter()
            .filter(|c| c.kind == CellKind::Mux2)
            .count();
        assert!(muxes > 0, "barrel shifter should map to MUX cells");
    }

    #[test]
    fn empty_recipe_is_rejected_at_construction() {
        let err = Recipe::new("broken", Vec::new()).expect_err("empty pass list must fail");
        assert_eq!(err, FlowError::EmptyRecipe { name: "broken".into() });
        assert!(err.to_string().contains("Recipe::raw()"));
        // The sanctioned pass-free baseline still exists and the suite
        // still carries it, so downstream datasets are unchanged.
        assert!(Recipe::raw().passes().is_empty());
        assert!(Recipe::standard_suite().iter().any(|r| r.passes().is_empty()));
    }

    #[test]
    fn valid_recipe_construction_keeps_name_and_passes() {
        let recipe = Recipe::new("one", vec![Pass::Sweep]).expect("single pass is valid");
        assert_eq!(recipe.name(), "one");
        assert_eq!(recipe.passes(), [Pass::Sweep]);
    }

    #[test]
    fn recipes_change_structure() {
        let aig = generators::ctrl(3, 300);
        let syn = Synthesizer::new();
        let (a, _) = syn.run(&aig, &Recipe::raw(), &ctx()).expect("raw");
        let (b, _) = syn
            .run(
                &aig,
                &Recipe::new("rf", vec![Pass::Refactor(5), Pass::Balance]).expect("non-empty"),
                &ctx(),
            )
            .expect("refactor");
        assert_ne!(
            a.cell_count(),
            b.cell_count(),
            "different recipes should give structurally different netlists"
        );
    }

    #[test]
    fn balance_reduces_depth_of_chains() {
        // A long AND chain.
        let mut aig = Aig::new("chain");
        let mut acc = aig.add_pi();
        for _ in 0..31 {
            let x = aig.add_pi();
            acc = aig.and2(acc, x);
        }
        aig.add_po("y", acc);
        assert_eq!(aig.depth(), 31);
        let mut probe = PerfProbe::for_machine(&eda_cloud_perf::MachineConfig::vcpus(1));
        let balanced = balance(&aig, &mut probe);
        assert!(balanced.depth() <= 6, "depth={}", balanced.depth());
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let mut aig = Aig::new("deadwood");
        let a = aig.add_pi();
        let b = aig.add_pi();
        let live = aig.and2(a, b);
        // Dead cone: never reaches an output.
        let d1 = aig.and2(!a, b);
        let _d2 = aig.and2(d1, a);
        aig.add_po("y", live);
        assert_eq!(aig.and_count(), 3);
        let mut probe = PerfProbe::for_machine(&eda_cloud_perf::MachineConfig::vcpus(1));
        let swept = sweep(&aig, &mut probe);
        assert_eq!(swept.and_count(), 1);
        assert_eq!(swept.input_count(), 2, "interface preserved");
        for (x, y) in [(false, false), (true, true), (true, false)] {
            assert_eq!(
                swept.simulate(&[x, y]).unwrap(),
                aig.simulate(&[x, y]).unwrap()
            );
        }
    }

    #[test]
    fn empty_design_rejected() {
        let aig = Aig::new("empty");
        assert_eq!(
            Synthesizer::new()
                .run(&aig, &Recipe::raw(), &ctx())
                .unwrap_err(),
            FlowError::EmptyDesign
        );
    }

    #[test]
    fn constant_output_maps_to_tie() {
        let mut aig = Aig::new("konst");
        let _ = aig.add_pi();
        aig.add_po("zero", Lit::FALSE);
        aig.add_po("one", Lit::TRUE);
        let (nl, _) = Synthesizer::new()
            .run(&aig, &Recipe::raw(), &ctx())
            .expect("synthesis");
        let ties = nl
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Tie0 | CellKind::Tie1))
            .count();
        assert_eq!(ties, 2);
        assert_eq!(nl.simulate(&[true]).unwrap(), vec![false, true]);
    }

    #[test]
    fn pi_fed_output_gets_buffer() {
        let mut aig = Aig::new("wire");
        let a = aig.add_pi();
        aig.add_po("y", a);
        let (nl, _) = Synthesizer::new()
            .run(&aig, &Recipe::raw(), &ctx())
            .expect("synthesis");
        assert!(nl.cells().iter().any(|c| c.kind == CellKind::Buf));
        assert_eq!(nl.simulate(&[true]).unwrap(), vec![true]);
    }

    #[test]
    fn every_recipe_maps_every_small_family_exactly() {
        // At n <= 9 inputs all 2^n vectors decide equivalence outright.
        // Two workers: square and decoder (about 800 ANDs each) dominate
        // the run and then simulate side by side.
        let families = generators::FAMILY_NAMES.to_vec();
        let checked = eda_cloud_trace::par::map_indexed(2, families, |_, name| {
            // Each family at its largest size that fits; parity, arbiter,
            // ctrl and hamming have 16 or more inputs even at size 2.
            let Some(aig) = (2..=16)
                .rev()
                .filter_map(|size| generators::build_family(name, size))
                .find(|aig| aig.input_count() <= 9)
            else {
                return false;
            };
            let n = aig.input_count();
            let vectors: Vec<Vec<bool>> =
                (0..1u32 << n).map(|v| (0..n).map(|i| v >> i & 1 == 1).collect()).collect();
            let golden: Vec<Vec<bool>> =
                vectors.iter().map(|v| aig.simulate(v).expect("arity")).collect();
            for recipe in Recipe::standard_suite() {
                let (nl, _) = Synthesizer::new()
                    .with_verification(false)
                    .run(&aig, &recipe, &ctx())
                    .unwrap_or_else(|e| panic!("{name} under {}: {e}", recipe.name()));
                for (v, want) in vectors.iter().zip(&golden) {
                    let got = nl.simulate(v).expect("arity");
                    assert_eq!(&got, want, "{name} ({n} inputs) under {} on {v:?}", recipe.name());
                }
            }
            true
        });
        assert_eq!(checked.iter().filter(|&&c| c).count(), 14);
    }

    #[test]
    fn a_mapping_mismatch_reports_the_failing_inputs() {
        let mut aig = Aig::new("and");
        let (a, b) = (aig.add_pi(), aig.add_pi());
        let y = aig.and2(a, b);
        aig.add_po("y", y);
        // A mapper that emitted NAND for AND: wrong on every input.
        let mut nl = Netlist::new("and", "synthetic_14nm");
        let (na, nb) = (nl.add_input("a"), nl.add_input("b"));
        let ny = nl.add_net("y");
        nl.add_cell("g0", "NAND2_X1", CellKind::Nand2, vec![na, nb], ny);
        nl.add_output("y", ny);
        let mut probe = PerfProbe::for_machine(&eda_cloud_perf::MachineConfig::vcpus(1));
        let err = verify_equivalence(&aig, &nl, &mut probe).expect_err("NAND is not AND");
        let FlowError::MappingMismatch { inputs } = &err else { panic!("{err:?}") };
        assert_ne!(aig.simulate(inputs).unwrap(), nl.simulate(inputs).unwrap());
        assert_eq!(
            err.to_string(),
            "mapped netlist differs from its AIG on input vector 01 (input 0 first)"
        );
    }

    #[test]
    fn report_counters_populated() {
        let aig = generators::multiplier(6);
        let (_, report) = Synthesizer::new()
            .run(&aig, &Recipe::balanced(), &ctx())
            .expect("synthesis");
        assert!(report.counters.instructions > 0);
        assert!(report.counters.branches > 0);
        assert!(report.counters.cache_refs > 0);
        assert_eq!(report.kind, StageKind::Synthesis);
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let aig = generators::multiplier(6);
        let syn = Synthesizer::new();
        let ctx = ctx();
        let (nl_plain, rep_plain) = syn.run(&aig, &Recipe::balanced(), &ctx).expect("run");
        let (nl_traced, rep_traced, trace) =
            syn.run_traced(&aig, &Recipe::balanced(), &ctx).expect("traced run");
        assert_eq!(nl_plain.cell_count(), nl_traced.cell_count());
        assert_eq!(format!("{nl_plain:?}"), format!("{nl_traced:?}"));
        assert_eq!(rep_plain, rep_traced);
        assert!(!trace.events.is_empty());
    }

    #[test]
    fn trace_replays_bit_identical_reports_across_machines() {
        let aig = generators::multiplier(6);
        let syn = Synthesizer::new();
        let (_, _, trace) = syn
            .run_traced(&aig, &Recipe::balanced(), &ExecContext::with_vcpus(1))
            .expect("traced run");
        for vcpus in [1u32, 2, 4, 8] {
            let ctx = ExecContext::with_vcpus(vcpus);
            let (_, fresh) = syn.run(&aig, &Recipe::balanced(), &ctx).expect("fresh run");
            let replayed = Synthesizer::report_from_trace(&trace, &ctx);
            assert_eq!(fresh, replayed, "mismatch at {vcpus} vCPUs");
        }
    }

    #[test]
    fn more_vcpus_reduce_runtime() {
        let aig = generators::multiplier(8);
        let syn = Synthesizer::new().with_verification(false);
        let (_, r1) = syn.run(&aig, &Recipe::balanced(), &ExecContext::with_vcpus(1)).unwrap();
        let (_, r8) = syn.run(&aig, &Recipe::balanced(), &ExecContext::with_vcpus(8)).unwrap();
        let speedup = r1.runtime_secs / r8.runtime_secs;
        assert!(
            speedup > 1.2 && speedup < 2.6,
            "synthesis speedup at 8 vCPUs should be modest, got {speedup}"
        );
    }
}
