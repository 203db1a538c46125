//! The deterministic discrete-event engine.
//!
//! The simulator owns a single event heap keyed by `(time, sequence)`
//! — time in integer microseconds, sequence a monotone push counter —
//! so the pop order is a pure function of the job stream and the seed,
//! never of wall-clock or thread scheduling. All randomness (arrival
//! gaps are drawn by the caller, reclaim draws here) flows through
//! seeded ChaCha streams consumed in event order.
//!
//! Lifecycle of one job: for each plan stage in flow order the
//! scheduler acquires a VM (warm-pool hit, or a cold launch through
//! [`Provisioner::launch`] with its boot interval), starts the stage
//! when the VM is ready, and either completes it after the planned
//! runtime or — on spot capacity — suffers a reclaim drawn from the
//! market's hourly interruption probability. A reclaimed stage restarts
//! after exponential backoff (stage-boundary checkpointing: completed
//! stages never re-run) and falls back to on-demand capacity once its
//! spot attempts are exhausted.

use crate::autoscale::{Autoscaler, MAX_IDLE_US};
use crate::faults::{FleetFaults, NoFleetFaults, SharedFleetFaults};
use crate::metrics::{FleetCounters, FleetReport, Samples};
use crate::spot::{backoff_secs, SpotInjector, SpotPolicy, MAX_SPOT_ATTEMPTS};
use crate::{FleetError, FleetJob};
use eda_cloud_cloud::{Catalog, InstanceType, Provisioner, VmState};
use eda_cloud_engine::{time, EventHeap};
use eda_cloud_trace::{Histogram, Span, Tracer};
use std::collections::BTreeMap;

/// Convert seconds to integer microseconds, rejecting values a
/// saturating `as` cast would silently mangle: NaN (casts to 0),
/// negatives (cast to 0), and times beyond the microsecond clock's
/// range (pin to `u64::MAX`, reordering the event heap). Delegates to
/// the engine's checked-time API; the engine's diagnosis strings are
/// identical to the ones this crate used before the extraction.
fn to_us(secs: f64) -> Result<u64, FleetError> {
    Ok(time::secs_to_us(secs)?)
}

fn to_secs(us: u64) -> f64 {
    time::us_to_secs(us)
}

/// A planned stage runtime in microseconds, or an error when the
/// multiply would wrap `u64` (a >292-millennium stage is a bad plan,
/// not a schedulable event).
fn stage_duration_us(runtime_secs: u64) -> Result<u64, FleetError> {
    Ok(time::secs_to_duration_us(runtime_secs)?)
}

/// Latency histogram bucket edges, seconds: half an hour to 32 hours.
const LATENCY_EDGES_SECS: [f64; 7] =
    [1_800.0, 3_600.0, 7_200.0, 14_400.0, 28_800.0, 57_600.0, 115_200.0];

/// Per-job cost histogram bucket edges, USD: five cents to $3.20.
const COST_EDGES_USD: [f64; 7] = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2];

/// How to run a fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Seed for the fault-injection stream (callers usually reuse the
    /// seed that generated the arrival process).
    pub seed: u64,
    /// Buy stage capacity on the spot market under this policy; `None`
    /// runs everything on demand.
    pub spot: Option<SpotPolicy>,
    /// Hard cap on attempts of a single stage before the job is
    /// abandoned with the typed `jobs_exhausted` outcome. Ordinary runs
    /// never approach it (spot fallback completes on demand after at
    /// most four tries); it exists so injected interrupt-every-attempt
    /// faults terminate instead of retrying forever.
    pub max_stage_attempts: u32,
}

impl FleetConfig {
    /// On-demand-only fleet.
    #[must_use]
    pub fn on_demand(seed: u64) -> Self {
        Self { seed, spot: None, max_stage_attempts: 64 }
    }

    /// The same fleet buying stages on spot capacity under `policy`.
    #[must_use]
    pub fn with_spot(mut self, policy: SpotPolicy) -> Self {
        self.spot = Some(policy);
        self
    }
}

/// The fleet simulator: a catalog to buy from plus the deterministic
/// event engine.
///
/// # Examples
///
/// ```
/// use eda_cloud_cloud::Catalog;
/// use eda_cloud_fleet::{FleetConfig, FleetJob, FleetSimulator, JobPlan, PlannedStage};
///
/// let job = FleetJob {
///     plan: JobPlan {
///         id: 0,
///         stages: vec![PlannedStage {
///             name: "synthesis".into(),
///             instance: "m5.large".into(),
///             runtime_secs: 600,
///         }],
///         deadline_secs: 700,
///     },
///     arrival_secs: 0.0,
/// };
/// let report = FleetSimulator::new(Catalog::aws_like())
///     .run(&[job], &FleetConfig::on_demand(7))?;
/// assert_eq!(report.counters.jobs_completed, 1);
/// assert_eq!(report.deadline_hit_rate, 1.0);
/// # Ok::<(), eda_cloud_fleet::FleetError>(())
/// ```
#[derive(Clone)]
pub struct FleetSimulator {
    catalog: Catalog,
    tracer: Tracer,
    faults: SharedFleetFaults,
}

impl std::fmt::Debug for FleetSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSimulator").field("catalog", &self.catalog).finish_non_exhaustive()
    }
}

impl FleetSimulator {
    /// A simulator buying from `catalog`.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            tracer: Tracer::disabled(),
            faults: std::sync::Arc::new(NoFleetFaults),
        }
    }

    /// Attach a tracer; each run records an event-loop span tree into
    /// it (one root per run, one child per job, autoscaler decisions as
    /// counters). Simulated time is deterministic, so the spans are too.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach fault hooks (see [`FleetFaults`]); the default is the
    /// inert [`NoFleetFaults`].
    #[must_use]
    pub fn with_faults(mut self, faults: SharedFleetFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Serve the job stream and return the run's metrics.
    ///
    /// Two calls with the same jobs and config produce byte-identical
    /// [`FleetReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for jobs without stages or
    /// non-finite arrival times, and [`FleetError::Cloud`] when a plan
    /// names an instance the catalog does not sell.
    pub fn run(&self, jobs: &[FleetJob], config: &FleetConfig) -> Result<FleetReport, FleetError> {
        if config.max_stage_attempts == 0 {
            return Err(FleetError::InvalidConfig("max stage attempts must be positive"));
        }
        for job in jobs {
            if job.plan.stages.is_empty() {
                return Err(FleetError::InvalidConfig("job plan has no stages"));
            }
            if !job.arrival_secs.is_finite() || job.arrival_secs < 0.0 {
                return Err(FleetError::InvalidConfig("job arrival must be finite and >= 0"));
            }
            for stage in &job.plan.stages {
                // Fail fast on bad instance names or runtimes that
                // overflow the microsecond clock, before any event runs.
                self.catalog.instance(&stage.instance)?;
                stage_duration_us(stage.runtime_secs)?;
            }
        }
        Engine::new(&self.catalog, jobs, config, &self.tracer, &*self.faults)?.run()
    }
}

#[derive(Debug)]
enum Event {
    /// A job enters the system.
    Arrival { job: usize },
    /// A cold-launched VM finished booting for this job's current stage.
    VmReady { job: usize, vm: u64 },
    /// The current stage ran to completion on `vm`.
    StageDone { job: usize, vm: u64 },
    /// The spot market reclaimed `vm` mid-stage.
    Reclaim { job: usize, vm: u64 },
    /// Backoff elapsed; re-acquire capacity for the job's current stage.
    Retry { job: usize },
    /// A warm VM may have idled past the bound (stamp guards staleness).
    IdleReap { vm: u64, stamp: u64 },
}

struct JobState {
    plan_stage_count: usize,
    arrival_us: u64,
    deadline_secs: u64,
    /// Index of the stage currently executing (or next to acquire).
    stage: usize,
    /// Attempts of the current stage (reset at each stage boundary).
    attempt: u32,
    /// Busy-time cost attributed to this job, USD.
    cost_usd: f64,
}

struct Engine<'a> {
    catalog: &'a Catalog,
    config: &'a FleetConfig,
    jobs: &'a [FleetJob],
    provisioner: Provisioner,
    /// The extracted deterministic event core: pops in `(time, seq)`
    /// order, seq being a monotone push counter the heap owns.
    heap: EventHeap<Event>,
    states: Vec<JobState>,
    /// Idle booted on-demand VMs, keyed by instance name; entries are
    /// `(vm, stamp)` reused LIFO. BTree keys keep any iteration
    /// deterministic.
    warm: BTreeMap<String, Vec<(u64, u64)>>,
    warm_count: usize,
    stamp: u64,
    /// Per-VM price fraction (1.0 on-demand, the market fraction for
    /// spot), indexed by VM id.
    vm_fraction: Vec<f64>,
    autoscaler: Autoscaler,
    injector: SpotInjector,
    counters: FleetCounters,
    total_cost_usd: f64,
    latencies: Samples,
    job_costs: Samples,
    latency_hist: Histogram,
    cost_hist: Histogram,
    makespan_us: u64,
    /// Root span of this run's event loop.
    sim_span: Span,
    /// One child span per job, indexed like `states`; spans close (and
    /// record) when the engine is consumed by [`Engine::report`].
    job_spans: Vec<Span>,
    /// Injected fault hooks (inert by default).
    faults: &'a dyn FleetFaults,
}

impl<'a> Engine<'a> {
    fn new(
        catalog: &'a Catalog,
        jobs: &'a [FleetJob],
        config: &'a FleetConfig,
        tracer: &Tracer,
        faults: &'a dyn FleetFaults,
    ) -> Result<Self, FleetError> {
        let states = jobs
            .iter()
            .map(|j| {
                Ok(JobState {
                    plan_stage_count: j.plan.stages.len(),
                    arrival_us: to_us(j.arrival_secs)?,
                    deadline_secs: j.plan.deadline_secs,
                    stage: 0,
                    attempt: 0,
                    cost_usd: 0.0,
                })
            })
            .collect::<Result<Vec<_>, FleetError>>()?;
        // Spans are created in job order here — canonical data — so the
        // trace does not depend on anything the event loop does.
        let sim_span = tracer.root("fleet/sim");
        let job_spans = jobs
            .iter()
            .map(|j| sim_span.child(&format!("job/{:04}", j.plan.id)))
            .collect();
        Ok(Self {
            catalog,
            config,
            jobs,
            provisioner: Provisioner::new(*catalog.pricing()),
            heap: EventHeap::new(),
            states,
            warm: BTreeMap::new(),
            warm_count: 0,
            stamp: 0,
            vm_fraction: Vec::new(),
            autoscaler: Autoscaler::default(),
            injector: SpotInjector::new(config.seed),
            counters: FleetCounters::default(),
            total_cost_usd: 0.0,
            latencies: Samples::default(),
            job_costs: Samples::default(),
            latency_hist: Histogram::new(LATENCY_EDGES_SECS.to_vec()),
            cost_hist: Histogram::new(COST_EDGES_USD.to_vec()),
            makespan_us: 0,
            sim_span,
            job_spans,
            faults,
        })
    }

    fn push(&mut self, t: u64, event: Event) {
        self.heap.push(t, event);
    }

    fn run(mut self) -> Result<FleetReport, FleetError> {
        for index in 0..self.jobs.len() {
            let t = self.states[index].arrival_us;
            self.push(t, Event::Arrival { job: index });
        }
        while let Some((t, event)) = self.heap.pop() {
            self.provisioner.advance_to(to_secs(t));
            self.sim_span.counter("events", 1);
            match event {
                Event::Arrival { job } => {
                    self.counters.jobs_submitted += 1;
                    self.autoscaler.record_arrival(t);
                    self.acquire_stage_vm(job, t)?;
                }
                Event::VmReady { job, vm } => {
                    self.provisioner.begin_job(vm)?;
                    self.start_execution(job, vm, t)?;
                }
                Event::StageDone { job, vm } => self.on_stage_done(job, vm, t)?,
                Event::Reclaim { job, vm } => self.on_reclaim(job, vm, t)?,
                Event::Retry { job } => self.acquire_stage_vm(job, t)?,
                Event::IdleReap { vm, stamp } => self.on_idle_reap(vm, stamp)?,
            }
        }
        // Retire whatever is still booted (warm pool remainder).
        for id in 0..self.vm_fraction.len() as u64 {
            if self.provisioner.vm(id)?.state != VmState::Terminated {
                self.bill(id)?;
            }
        }
        Ok(self.report())
    }

    /// Whether the job's *next* attempt of its current stage runs on
    /// spot capacity, given how many attempts it already burned.
    fn next_attempt_on_spot(&self, state: &JobState) -> bool {
        self.config.spot.is_some() && state.attempt < MAX_SPOT_ATTEMPTS
    }

    /// Acquire a VM for the job's current stage: a warm on-demand VM
    /// when eligible, otherwise a cold launch (spot or on-demand).
    fn acquire_stage_vm(&mut self, job: usize, now: u64) -> Result<(), FleetError> {
        let state = &self.states[job];
        if state.attempt >= self.config.max_stage_attempts {
            // The current stage burned every allowed attempt: abandon
            // the job with the typed exhaustion outcome instead of
            // scheduling attempt after attempt forever.
            self.counters.jobs_exhausted += 1;
            self.job_spans[job].counter("exhausted", 1);
            self.job_spans[job].attr("outcome", "exhausted");
            self.job_spans[job].attr("exhausted_stage", state.stage);
            return Ok(());
        }
        let on_spot = self.next_attempt_on_spot(state);
        let instance_name = self.jobs[job].plan.stages[state.stage].instance.clone();
        if self.config.spot.is_some() && state.attempt == MAX_SPOT_ATTEMPTS {
            self.counters.spot_fallbacks += 1;
        }
        self.states[job].attempt += 1;

        if !on_spot {
            // Spot VMs are never pooled; on-demand requests reuse warm
            // capacity when available (skipping the boot interval).
            if let Some(vm) = self.take_warm(&instance_name) {
                self.counters.warm_reuses += 1;
                self.sim_span.counter("autoscale/warm_reuses", 1);
                self.provisioner.begin_job(vm)?;
                self.start_execution(job, vm, now)?;
                return Ok(());
            }
            self.counters.cold_starts += 1;
            self.sim_span.counter("autoscale/cold_starts", 1);
        }
        let instance = self.catalog.instance(&instance_name)?.clone();
        let vm = self.launch(instance, on_spot);
        // The provisioner's boot interval gates readiness; +1 us of
        // slack absorbs float-to-integer rounding of `ready_at`.
        let ready_secs = self.provisioner.vm(vm)?.ready_at;
        let ready = time::checked_add_us(time::secs_to_us_ceil(ready_secs)?, 1)?;
        self.push(ready, Event::VmReady { job, vm });
        Ok(())
    }

    fn launch(&mut self, instance: InstanceType, on_spot: bool) -> u64 {
        let fraction = match (&self.config.spot, on_spot) {
            (Some(policy), true) => policy.market.price_fraction,
            _ => 1.0,
        };
        let vm = self.provisioner.launch(instance);
        debug_assert_eq!(vm as usize, self.vm_fraction.len());
        self.vm_fraction.push(fraction);
        self.counters.vms_launched += 1;
        vm
    }

    /// The stage is on a ready VM now: decide completion vs reclaim and
    /// schedule exactly one of the two outcomes.
    fn start_execution(&mut self, job: usize, vm: u64, now: u64) -> Result<(), FleetError> {
        let state = &self.states[job];
        let (stage_index, attempt) = (state.stage, state.attempt);
        let job_id = self.jobs[job].plan.id;
        let runtime_secs = self.jobs[job].plan.stages[stage_index].runtime_secs;
        let mut duration_us = stage_duration_us(runtime_secs)?;
        // Injected VM stall: inflate the stage duration. Faults never
        // speed a stage up, so sub-100 percentages clamp to 100.
        let stall_pct = self.faults.stall_pct(job_id, stage_index).max(100);
        if stall_pct > 100 {
            duration_us = time::scale_us_pct(duration_us, stall_pct)?;
            let span = self.job_spans[job].child("fault/stall");
            span.attr("stage", stage_index);
            span.attr("pct", stall_pct);
        }
        // Injected interrupt: reclaim this attempt at a fixed fraction
        // of its (possibly stalled) runtime — host failure semantics,
        // so it applies to on-demand VMs too.
        if let Some(fraction) = self.faults.interrupt(job_id, stage_index, attempt) {
            let offset = time::fraction_of_us(duration_us, fraction)?;
            let reclaim_at = time::checked_add_us(now, offset)?;
            let span = self.job_spans[job].child("fault/interrupt");
            span.attr("stage", stage_index);
            span.attr("attempt", attempt);
            self.push(reclaim_at, Event::Reclaim { job, vm });
            return Ok(());
        }
        let on_spot = self.vm_fraction[vm as usize] < 1.0;
        if on_spot {
            let market = self.config.spot.as_ref().expect("spot VM implies policy").market;
            if let Some(fraction) = self.injector.reclaim_fraction(runtime_secs as f64, &market) {
                // The reclaim point is a fraction of the stage; the
                // checked helper rejects a NaN/out-of-range draw
                // instead of letting the cast collapse it to 0 or
                // `u64::MAX`.
                let offset = time::fraction_of_us(duration_us, fraction)?;
                let reclaim_at = time::checked_add_us(now, offset)?;
                self.push(reclaim_at, Event::Reclaim { job, vm });
                return Ok(());
            }
        }
        let done_at = time::checked_add_us(now, duration_us)?;
        self.push(done_at, Event::StageDone { job, vm });
        Ok(())
    }

    fn on_stage_done(&mut self, job: usize, vm: u64, now: u64) -> Result<(), FleetError> {
        let on_spot = self.vm_fraction[vm as usize] < 1.0;
        let state = &self.states[job];
        let runtime_secs = self.jobs[job].plan.stages[state.stage].runtime_secs;
        self.attribute_cost(job, vm, runtime_secs as f64);
        if on_spot {
            self.bill(vm)?;
        } else {
            self.release_or_bill(vm, now)?;
        }
        let state = &mut self.states[job];
        state.stage += 1;
        state.attempt = 0;
        self.job_spans[job].counter("stages_completed", 1);
        if state.stage == state.plan_stage_count {
            self.complete_job(job, now);
        } else {
            self.acquire_stage_vm(job, now)?;
        }
        Ok(())
    }

    fn on_reclaim(&mut self, job: usize, vm: u64, now: u64) -> Result<(), FleetError> {
        self.counters.interruptions += 1;
        self.counters.retries += 1;
        self.job_spans[job].counter("reclaims", 1);
        // Pay for the partial run (the reclaimed VM's whole life bills
        // at the spot rate through `bill`); attribute the lost busy
        // time to the job as well.
        let partial_secs = (to_secs(now) - self.provisioner.vm(vm)?.ready_at).max(0.0);
        self.attribute_cost(job, vm, partial_secs);
        self.bill(vm)?;
        // Injected interrupts can reclaim on-demand VMs with no spot
        // policy configured; those retries back off the same way.
        let backoff = backoff_secs(self.states[job].attempt);
        let retry_at = time::checked_add_us(now, to_us(backoff)?)?;
        self.push(retry_at, Event::Retry { job });
        Ok(())
    }

    fn on_idle_reap(&mut self, vm: u64, stamp: u64) -> Result<(), FleetError> {
        // Stale when the VM was reused (different stamp) or already gone.
        let mut reaped = false;
        if let Some((name, position)) = self.find_warm(vm, stamp) {
            let entries = self.warm.get_mut(&name).expect("found above");
            entries.remove(position);
            if entries.is_empty() {
                self.warm.remove(&name);
            }
            self.warm_count -= 1;
            reaped = true;
        }
        if reaped {
            self.counters.idle_reaped += 1;
            self.sim_span.counter("autoscale/idle_reaped", 1);
            self.bill(vm)?;
        }
        Ok(())
    }

    fn find_warm(&self, vm: u64, stamp: u64) -> Option<(String, usize)> {
        for (name, entries) in &self.warm {
            if let Some(position) = entries.iter().position(|&(v, s)| v == vm && s == stamp) {
                return Some((name.clone(), position));
            }
        }
        None
    }

    fn take_warm(&mut self, instance_name: &str) -> Option<u64> {
        let entries = self.warm.get_mut(instance_name)?;
        let (vm, _) = entries.pop()?;
        if entries.is_empty() {
            self.warm.remove(instance_name);
        }
        self.warm_count -= 1;
        Some(vm)
    }

    /// Keep a finished on-demand VM warm when the pool is below the
    /// autoscaler's target, otherwise terminate and bill it.
    fn release_or_bill(&mut self, vm: u64, now: u64) -> Result<(), FleetError> {
        let target = self.autoscaler.target(now);
        if self.warm_count < target {
            self.sim_span.counter("autoscale/kept_warm", 1);
            let name = self.provisioner.vm(vm)?.instance.name.clone();
            let stamp = self.stamp;
            self.stamp += 1;
            self.warm.entry(name).or_default().push((vm, stamp));
            self.warm_count += 1;
            let reap_at = time::checked_add_us(now, MAX_IDLE_US)?;
            self.push(reap_at, Event::IdleReap { vm, stamp });
            Ok(())
        } else {
            self.sim_span.counter("autoscale/terminated", 1);
            self.bill(vm)
        }
    }

    /// Terminate the VM and add its lifetime bill (boot + busy + idle,
    /// at its price fraction) to the fleet total.
    fn bill(&mut self, vm: u64) -> Result<(), FleetError> {
        let record = self.provisioner.terminate(vm)?;
        self.total_cost_usd += record.cost_usd * self.vm_fraction[vm as usize];
        Ok(())
    }

    /// Attribute the busy-time cost of one stage attempt to its job.
    fn attribute_cost(&mut self, job: usize, vm: u64, busy_secs: f64) {
        if let Ok(vm_record) = self.provisioner.vm(vm) {
            let cost = self.catalog.pricing().cost_usd(&vm_record.instance, busy_secs);
            self.states[job].cost_usd += cost * self.vm_fraction[vm as usize];
        }
    }

    fn complete_job(&mut self, job: usize, now: u64) {
        let state = &self.states[job];
        let latency_secs = to_secs(now - state.arrival_us);
        self.counters.jobs_completed += 1;
        // Simulated time, not wall-clock — deterministic, so safe to
        // record on the span.
        self.job_spans[job].counter("latency_us", now - state.arrival_us);
        if latency_secs <= state.deadline_secs as f64 + 1e-9 {
            self.counters.deadline_hits += 1;
            self.job_spans[job].counter("deadline_hit", 1);
        }
        self.latencies.record(latency_secs);
        self.latency_hist.record(latency_secs);
        self.job_costs.record(state.cost_usd);
        self.cost_hist.record(state.cost_usd);
        self.makespan_us = self.makespan_us.max(now);
    }

    fn report(self) -> FleetReport {
        let completed = self.counters.jobs_completed;
        let deadline_hit_rate = if completed > 0 {
            self.counters.deadline_hits as f64 / completed as f64
        } else {
            0.0
        };
        FleetReport {
            seed: self.config.seed,
            counters: self.counters,
            deadline_hit_rate,
            total_cost_usd: self.total_cost_usd,
            mean_job_cost_usd: self.job_costs.mean(),
            mean_latency_secs: self.latencies.mean(),
            p50_latency_secs: self.latencies.percentile(0.5),
            p95_latency_secs: self.latencies.percentile(0.95),
            makespan_secs: to_secs(self.makespan_us),
            latency_hist: self.latency_hist,
            cost_hist: self.cost_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobPlan, PlannedStage};
    use eda_cloud_cloud::SpotMarket;

    fn stage(name: &str, instance: &str, runtime_secs: u64) -> PlannedStage {
        PlannedStage {
            name: name.into(),
            instance: instance.into(),
            runtime_secs,
        }
    }

    fn two_stage_job(id: u64, arrival_secs: f64, deadline_secs: u64) -> FleetJob {
        FleetJob {
            plan: JobPlan {
                id,
                stages: vec![
                    stage("synthesis", "m5.large", 600),
                    stage("routing", "c5.xlarge", 900),
                ],
                deadline_secs,
            },
            arrival_secs,
        }
    }

    fn sim() -> FleetSimulator {
        FleetSimulator::new(Catalog::aws_like())
    }

    #[test]
    fn single_job_on_demand_accounting() {
        let job = two_stage_job(0, 0.0, 2000);
        let report = sim().run(&[job], &FleetConfig::on_demand(1)).expect("runs");
        let c = report.counters;
        assert_eq!(c.jobs_submitted, 1);
        assert_eq!(c.jobs_completed, 1);
        assert_eq!(c.deadline_hits, 1);
        assert_eq!(c.vms_launched, 2);
        assert_eq!(c.cold_starts, 2);
        assert_eq!(c.interruptions, 0);
        assert_eq!(c.idle_reaped, 2, "each VM waits out the idle reap in the warm pool");
        // Latency = 600 + 900 runtime + 2 x 30 s boots (+2 us slack).
        assert!((report.mean_latency_secs - 1560.0).abs() < 1e-3);
        // Cost: both VMs bill boot + runtime + the 600 s idle reap; the
        // microsecond of readiness slack can push each bill up by one
        // ceiled second.
        let catalog = Catalog::aws_like();
        let pricing = catalog.pricing();
        let m5 = catalog.instance("m5.large").unwrap();
        let c5 = catalog.instance("c5.xlarge").unwrap();
        let low = pricing.cost_usd(m5, 1230.0) + pricing.cost_usd(c5, 1530.0);
        let high = pricing.cost_usd(m5, 1232.0) + pricing.cost_usd(c5, 1532.0);
        assert!(
            report.total_cost_usd >= low - 1e-9 && report.total_cost_usd <= high + 1e-9,
            "total {} outside [{low}, {high}]",
            report.total_cost_usd
        );
        assert!(report.mean_job_cost_usd <= report.total_cost_usd);
        assert_eq!(report.deadline_hit_rate, 1.0);
    }

    #[test]
    fn missed_deadline_is_counted() {
        // Deadline tighter than the planned runtime + boots.
        let job = two_stage_job(0, 0.0, 1500);
        let report = sim().run(&[job], &FleetConfig::on_demand(1)).expect("runs");
        assert_eq!(report.counters.jobs_completed, 1);
        assert_eq!(report.counters.deadline_hits, 0);
        assert_eq!(report.deadline_hit_rate, 0.0);
    }

    #[test]
    fn warm_pool_reuse_skips_boots() {
        // Two identical single-stage jobs 700 s apart: the autoscaler
        // (window 1800 s) keeps the first VM warm, the second job rides
        // it without a boot.
        let mk = |id, t| FleetJob {
            plan: JobPlan {
                id,
                stages: vec![stage("synthesis", "m5.large", 600)],
                deadline_secs: 10_000,
            },
            arrival_secs: t,
        };
        let cfg = FleetConfig::on_demand(1);
        let report = sim().run(&[mk(0, 0.0), mk(1, 700.0)], &cfg).expect("runs");
        assert_eq!(report.counters.vms_launched, 1, "one VM serves both jobs");
        assert_eq!(report.counters.cold_starts, 1);
        assert_eq!(report.counters.warm_reuses, 1);

        // Spaced past the 600 s idle reap, the first VM is gone when
        // the second job arrives: both boot cold.
        let cold = sim().run(&[mk(0, 0.0), mk(1, 1300.0)], &cfg).expect("runs");
        assert_eq!(cold.counters.vms_launched, 2);
        assert_eq!(cold.counters.warm_reuses, 0);
        assert_eq!(cold.counters.idle_reaped, 2);
    }

    #[test]
    fn idle_warm_vms_are_reaped() {
        // One job, then nothing: the warm VM must not live forever.
        let job = two_stage_job(0, 0.0, 10_000);
        let report = sim().run(&[job], &FleetConfig::on_demand(1)).expect("runs");
        // Whatever was pooled is reaped or retired by the drain; either
        // way every launched VM ends terminated and billed exactly once.
        assert!(report.total_cost_usd > 0.0);
        assert!(report.counters.idle_reaped <= report.counters.vms_launched);
    }

    #[test]
    fn calm_spot_market_discounts_the_fleet() {
        let jobs: Vec<FleetJob> = (0..4).map(|k| two_stage_job(k, 300.0 * k as f64, 4000)).collect();
        let on_demand = sim().run(&jobs, &FleetConfig::on_demand(3)).expect("runs");
        let calm = SpotPolicy {
            market: SpotMarket { price_fraction: 0.3, interruption_per_hour: 0.0 },
        };
        let spot = sim()
            .run(&jobs, &FleetConfig::on_demand(3).with_spot(calm))
            .expect("runs");
        assert_eq!(spot.counters.interruptions, 0);
        assert_eq!(spot.counters.jobs_completed, 4);
        assert!(
            spot.total_cost_usd < 0.5 * on_demand.total_cost_usd,
            "spot {} vs on-demand {}",
            spot.total_cost_usd,
            on_demand.total_cost_usd
        );
    }

    #[test]
    fn hostile_spot_market_retries_and_falls_back() {
        // Reclaims are near-certain for hour-long stages, so every
        // stage burns its three spot attempts and completes on demand.
        let job = FleetJob {
            plan: JobPlan {
                id: 0,
                stages: vec![stage("routing", "c5.xlarge", 7200)],
                deadline_secs: 8000,
            },
            arrival_secs: 0.0,
        };
        let hostile = SpotPolicy {
            market: SpotMarket { price_fraction: 0.3, interruption_per_hour: 0.9999 },
        };
        let report = sim()
            .run(&[job], &FleetConfig::on_demand(5).with_spot(hostile))
            .expect("runs");
        let c = report.counters;
        assert_eq!(c.jobs_completed, 1, "fallback still finishes the job");
        assert_eq!(c.interruptions, 3);
        assert_eq!(c.retries, 3);
        assert_eq!(c.spot_fallbacks, 1);
        assert_eq!(c.vms_launched, 4, "3 reclaimed spot VMs + 1 on-demand");
        // The missed deadline is recorded (retries + backoff blew it).
        assert_eq!(c.deadline_hits, 0);
    }

    #[test]
    fn completed_stages_never_rerun_after_a_reclaim() {
        // Stage 1 is short (reclaim-free), stage 2 long and hostile:
        // stage 1's VM count must stay at one across stage-2 retries.
        let job = FleetJob {
            plan: JobPlan {
                id: 0,
                stages: vec![
                    stage("synthesis", "m5.large", 60),
                    stage("routing", "c5.xlarge", 7200),
                ],
                deadline_secs: 100_000,
            },
            arrival_secs: 0.0,
        };
        let hostile = SpotPolicy {
            market: SpotMarket { price_fraction: 0.3, interruption_per_hour: 0.9999 },
        };
        let report = sim()
            .run(&[job], &FleetConfig::on_demand(11).with_spot(hostile))
            .expect("runs");
        let c = report.counters;
        assert_eq!(c.jobs_completed, 1);
        // Stage 1 may be reclaimed at most rarely (60 s at 0.9999/h is
        // still likely reclaimed: p_complete = (1e-4)^(1/60) ~ 0.86).
        // The invariant under test: total VMs = stage-1 attempts +
        // stage-2 attempts, and stage-2's retries never touch stage 1.
        let stage2_attempts = 4; // 3 spot + 1 fallback
        assert!(c.vms_launched > stage2_attempts as u64);
        assert!(
            c.vms_launched <= 1 + 3 + stage2_attempts as u64,
            "stage 1 retries bounded by its own spot attempts: {c:?}"
        );
    }

    #[test]
    fn interrupted_on_every_attempt_terminates_with_exhaustion() {
        // Satellite regression: a job whose stage is interrupted on
        // every attempt must end in the typed `jobs_exhausted` outcome
        // instead of looping forever. No spot policy — the forced
        // interrupts land on on-demand VMs and retry with the standard
        // backoff.
        struct AlwaysInterrupt;
        impl crate::FleetFaults for AlwaysInterrupt {
            fn interrupt(&self, _job: u64, _stage: usize, _attempt: u32) -> Option<f64> {
                Some(0.5)
            }
        }
        let job = two_stage_job(0, 0.0, 2000);
        let mut cfg = FleetConfig::on_demand(1);
        cfg.max_stage_attempts = 5;
        let report = FleetSimulator::new(Catalog::aws_like())
            .with_faults(std::sync::Arc::new(AlwaysInterrupt))
            .run(&[job], &cfg)
            .expect("terminates");
        let c = report.counters;
        assert_eq!(c.jobs_submitted, 1);
        assert_eq!(c.jobs_completed, 0, "the job never finishes a stage");
        assert_eq!(c.jobs_exhausted, 1, "typed exhaustion outcome");
        assert_eq!(c.interruptions, 5, "one interrupt per allowed attempt");
        assert_eq!(c.vms_launched, 5);
        assert_eq!(
            c.jobs_completed + c.jobs_exhausted,
            c.jobs_submitted,
            "conservation: submitted jobs complete or exhaust"
        );
        let json = report.to_json();
        assert!(json.contains("\"jobs_exhausted\":1"), "{json}");
    }

    #[test]
    fn stall_fault_inflates_stage_durations() {
        struct DoubleStage0;
        impl crate::FleetFaults for DoubleStage0 {
            fn stall_pct(&self, _job: u64, stage: usize) -> u64 {
                if stage == 0 {
                    200
                } else {
                    100
                }
            }
        }
        let job = two_stage_job(0, 0.0, 2000);
        let cfg = FleetConfig::on_demand(1);
        let clean = sim().run(std::slice::from_ref(&job), &cfg).expect("runs");
        let stalled = FleetSimulator::new(Catalog::aws_like())
            .with_faults(std::sync::Arc::new(DoubleStage0))
            .run(&[job], &cfg)
            .expect("runs");
        // Stage 0 is 600 s; doubling it adds exactly 600 s of latency.
        assert!(
            (stalled.mean_latency_secs - clean.mean_latency_secs - 600.0).abs() < 1e-3,
            "clean {} stalled {}",
            clean.mean_latency_secs,
            stalled.mean_latency_secs
        );
        assert_eq!(stalled.counters.jobs_completed, 1, "stalls delay, never kill");
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let jobs: Vec<FleetJob> = (0..8).map(|k| two_stage_job(k, 100.0 * k as f64, 2000)).collect();
        let cfg = FleetConfig::on_demand(42).with_spot(SpotPolicy::typical());
        let a = sim().run(&jobs, &cfg).expect("runs");
        let b = sim().run(&jobs, &cfg).expect("runs");
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        // A different seed moves the fault schedule.
        let mut cfg2 = cfg.clone();
        cfg2.seed = 43;
        let c = sim().run(&jobs, &cfg2).expect("runs");
        assert_eq!(c.seed, 43);
    }

    #[test]
    fn bad_plans_error_before_simulating() {
        let no_stages = FleetJob {
            plan: JobPlan { id: 0, stages: vec![], deadline_secs: 10 },
            arrival_secs: 0.0,
        };
        assert!(matches!(
            sim().run(&[no_stages], &FleetConfig::on_demand(1)).unwrap_err(),
            FleetError::InvalidConfig(_)
        ));
        let bad_instance = FleetJob {
            plan: JobPlan {
                id: 0,
                stages: vec![stage("syn", "z9.mega", 10)],
                deadline_secs: 10,
            },
            arrival_secs: 0.0,
        };
        assert!(matches!(
            sim().run(&[bad_instance], &FleetConfig::on_demand(1)).unwrap_err(),
            FleetError::Cloud(_)
        ));
        let bad_arrival = FleetJob {
            plan: JobPlan {
                id: 0,
                stages: vec![stage("syn", "m5.large", 10)],
                deadline_secs: 10,
            },
            arrival_secs: f64::NAN,
        };
        assert!(matches!(
            sim().run(&[bad_arrival], &FleetConfig::on_demand(1)).unwrap_err(),
            FleetError::InvalidConfig(_)
        ));
    }

    #[test]
    fn time_conversion_rejects_nan_negative_and_huge() {
        assert_eq!(to_us(1.5), Ok(1_500_000));
        assert_eq!(to_us(0.0), Ok(0));
        assert!(to_us(f64::NAN).is_err(), "NaN must not cast to 0");
        assert!(to_us(-1.0).is_err(), "negative must not cast to 0");
        assert!(to_us(f64::INFINITY).is_err());
        assert!(to_us(1e20).is_err(), "beyond the clock must not saturate");
        assert!(stage_duration_us(600).is_ok());
        assert!(stage_duration_us(u64::MAX / 2).is_err(), "u64 wrap must error");
    }

    #[test]
    fn numeric_edge_cases_error_instead_of_mangling_time() {
        // Arrival beyond the microsecond clock: previously saturated to
        // u64::MAX and scrambled the event heap.
        let late = FleetJob {
            plan: JobPlan {
                id: 0,
                stages: vec![stage("syn", "m5.large", 10)],
                deadline_secs: 10,
            },
            arrival_secs: 1e20,
        };
        assert!(matches!(
            sim().run(&[late], &FleetConfig::on_demand(1)).unwrap_err(),
            FleetError::InvalidConfig(_)
        ));
        // Stage runtime whose microsecond conversion wraps u64.
        let forever = FleetJob {
            plan: JobPlan {
                id: 0,
                stages: vec![stage("syn", "m5.large", u64::MAX / 1000)],
                deadline_secs: 10,
            },
            arrival_secs: 0.0,
        };
        assert!(matches!(
            sim().run(&[forever], &FleetConfig::on_demand(1)).unwrap_err(),
            FleetError::InvalidConfig(_)
        ));
    }

    #[test]
    fn tracer_records_one_span_per_job_deterministically() {
        let jobs: Vec<FleetJob> =
            (0..3).map(|k| two_stage_job(k, 100.0 * k as f64, 4000)).collect();
        let cfg = FleetConfig::on_demand(9);
        let tracer = eda_cloud_trace::Tracer::new();
        let report = FleetSimulator::new(Catalog::aws_like())
            .with_tracer(tracer.clone())
            .run(&jobs, &cfg)
            .expect("runs");
        assert_eq!(report.counters.jobs_completed, 3);
        let trace = tracer.drain();
        let paths: Vec<&str> = trace.records().iter().map(|r| r.path.as_str()).collect();
        assert!(paths.contains(&"fleet/sim"));
        assert!(paths.contains(&"fleet/sim/job/0000"));
        assert!(paths.contains(&"fleet/sim/job/0002"));
        // Same run again: byte-identical trace.
        let tracer2 = eda_cloud_trace::Tracer::new();
        FleetSimulator::new(Catalog::aws_like())
            .with_tracer(tracer2.clone())
            .run(&jobs, &cfg)
            .expect("runs");
        assert_eq!(tracer2.drain().to_json(), trace.to_json());
    }

    #[test]
    fn empty_stream_yields_an_empty_report() {
        let report = sim().run(&[], &FleetConfig::on_demand(1)).expect("runs");
        assert_eq!(report.counters.jobs_submitted, 0);
        assert_eq!(report.deadline_hit_rate, 0.0);
        assert_eq!(report.total_cost_usd, 0.0);
        assert_eq!(report.makespan_secs, 0.0);
    }
}
