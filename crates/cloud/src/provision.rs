//! Simulated VM lifecycle.

use crate::{CloudError, InstanceType, Pricing};

/// Lifecycle state of a provisioned VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Requested; booting until `ready_at`.
    Pending,
    /// Booted and accepting work.
    Running,
    /// Shut down; billing stopped.
    Terminated,
}

/// A provisioned virtual machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// Monotonic id assigned by the [`Provisioner`].
    pub id: u64,
    /// The purchased configuration.
    pub instance: InstanceType,
    /// Current lifecycle state.
    pub state: VmState,
    /// Simulation time the VM was requested.
    pub launched_at: f64,
    /// Simulation time the VM becomes `Running`.
    pub ready_at: f64,
    /// Simulation time the VM terminated (if it did).
    pub terminated_at: Option<f64>,
}

/// What one job execution cost.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// VM the job ran on.
    pub vm_id: u64,
    /// Instance name.
    pub instance: String,
    /// Job runtime in seconds (excluding boot).
    pub runtime_secs: f64,
    /// Seconds billed (boot + runtime, rounded per the pricing rules).
    pub billed_secs: u64,
    /// Total cost in USD.
    pub cost_usd: f64,
}

/// Simulated provisioning service with a virtual clock.
///
/// # Examples
///
/// ```
/// use eda_cloud_cloud::{Catalog, Provisioner};
///
/// let catalog = Catalog::aws_like();
/// let mut cloud = Provisioner::new(catalog.pricing().clone());
/// let vm = cloud.launch(catalog.instance("m5.large")?.clone());
/// let record = cloud.run_job(vm, 120.0)?;
/// assert!(record.cost_usd > 0.0);
/// # Ok::<(), eda_cloud_cloud::CloudError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Provisioner {
    pricing: Pricing,
    boot_secs: f64,
    clock: f64,
    vms: Vec<Vm>,
    /// Boot-order cursor: every VM below it has had its `ready_at`
    /// reached. `ready_at = clock + boot_secs` with a constant boot time
    /// and a clock that never rewinds, so `ready_at` is non-decreasing
    /// in VM id and [`Provisioner::advance`] only ever walks forward.
    booted: usize,
}

impl Provisioner {
    /// Service with a 30-second boot time.
    #[must_use]
    pub fn new(pricing: Pricing) -> Self {
        Self {
            pricing,
            boot_secs: 30.0,
            clock: 0.0,
            vms: Vec::new(),
            booted: 0,
        }
    }

    /// Current simulation time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Provisioned VMs (all states).
    #[must_use]
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Request a VM; returns its id. The VM is `Pending` until the boot
    /// interval elapses (advanced by [`Provisioner::run_job`] or
    /// [`Provisioner::advance`]).
    pub fn launch(&mut self, instance: InstanceType) -> u64 {
        let id = self.vms.len() as u64;
        self.vms.push(Vm {
            id,
            instance,
            state: VmState::Pending,
            launched_at: self.clock,
            ready_at: self.clock + self.boot_secs,
            terminated_at: None,
        });
        id
    }

    /// Advance the virtual clock, transitioning pending VMs that finish
    /// booting.
    pub fn advance(&mut self, dt_secs: f64) {
        self.clock += dt_secs.max(0.0);
        while let Some(vm) = self.vms.get_mut(self.booted).filter(|vm| self.clock >= vm.ready_at) {
            // A VM terminated mid-boot stays terminated.
            if vm.state == VmState::Pending {
                vm.state = VmState::Running;
            }
            self.booted += 1;
        }
    }

    /// Advance the virtual clock to an absolute time (no-op when `t_secs`
    /// is in the past — the clock never moves backwards).
    pub fn advance_to(&mut self, t_secs: f64) {
        if t_secs > self.clock {
            self.advance(t_secs - self.clock);
        }
    }

    /// Look up a VM by id.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownVm`] for a bad id.
    pub fn vm(&self, vm_id: u64) -> Result<&Vm, CloudError> {
        usize::try_from(vm_id)
            .ok()
            .and_then(|idx| self.vms.get(idx))
            .ok_or(CloudError::UnknownVm(vm_id))
    }

    /// Assert the VM can accept work *now*: it must exist, be past its
    /// boot interval, and not be terminated. Event-driven callers (the
    /// fleet simulator) use this instead of [`Provisioner::run_job`],
    /// which owns the clock.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownVm`] for a bad id and
    /// [`CloudError::InvalidState`] when the VM already terminated or is
    /// still booting (a job submitted before `ready_at`).
    pub fn begin_job(&mut self, vm_id: u64) -> Result<(), CloudError> {
        let now = self.clock;
        let idx = usize::try_from(vm_id).map_err(|_| CloudError::UnknownVm(vm_id))?;
        let vm = self.vms.get_mut(idx).ok_or(CloudError::UnknownVm(vm_id))?;
        match vm.state {
            VmState::Terminated => Err(CloudError::InvalidState {
                vm: vm_id,
                operation: "begin_job after terminate",
            }),
            VmState::Pending if now < vm.ready_at => Err(CloudError::InvalidState {
                vm: vm_id,
                operation: "begin_job before ready_at",
            }),
            VmState::Pending | VmState::Running => {
                vm.state = VmState::Running;
                Ok(())
            }
        }
    }

    /// Terminate the VM at the current clock and return its billing
    /// record. Billing runs from launch to now (boot is billed), floored
    /// at the pricing minimum; `runtime_secs` reports the post-boot time
    /// the VM was available for work.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownVm`] for a bad id and
    /// [`CloudError::InvalidState`] on a double-terminate.
    pub fn terminate(&mut self, vm_id: u64) -> Result<JobRecord, CloudError> {
        let now = self.clock;
        let idx = usize::try_from(vm_id).map_err(|_| CloudError::UnknownVm(vm_id))?;
        let vm = self.vms.get_mut(idx).ok_or(CloudError::UnknownVm(vm_id))?;
        if vm.state == VmState::Terminated {
            return Err(CloudError::InvalidState {
                vm: vm_id,
                operation: "terminate twice",
            });
        }
        vm.state = VmState::Terminated;
        vm.terminated_at = Some(now);
        let billed_wall = now - vm.launched_at;
        Ok(JobRecord {
            vm_id,
            instance: vm.instance.name.clone(),
            runtime_secs: (now - vm.ready_at).max(0.0),
            billed_secs: self.pricing.billed_secs(billed_wall),
            cost_usd: self.pricing.cost_usd(&vm.instance, billed_wall),
        })
    }

    /// Run a job of `runtime_secs` on the VM, waiting for boot first,
    /// then terminate it and return the billing record.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownVm`] for a bad id or
    /// [`CloudError::InvalidState`] if the VM already terminated.
    pub fn run_job(&mut self, vm_id: u64, runtime_secs: f64) -> Result<JobRecord, CloudError> {
        let vm = self.vm(vm_id)?;
        if vm.state == VmState::Terminated {
            return Err(CloudError::InvalidState {
                vm: vm_id,
                operation: "run_job",
            });
        }
        let ready_at = vm.ready_at;
        self.advance_to(ready_at);
        self.begin_job(vm_id)?;
        self.advance(runtime_secs.max(0.0));
        let mut record = self.terminate(vm_id)?;
        // The record reports the job's own runtime (excluding boot and
        // any pre-existing idle time on the VM).
        record.runtime_secs = runtime_secs;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;

    fn setup() -> (Catalog, Provisioner) {
        let c = Catalog::aws_like();
        let p = Provisioner::new(*c.pricing());
        (c, p)
    }

    #[test]
    fn lifecycle_pending_running_terminated() {
        let (c, mut cloud) = setup();
        let id = cloud.launch(c.instance("m5.large").unwrap().clone());
        assert_eq!(cloud.vms()[0].state, VmState::Pending);
        cloud.advance(35.0);
        assert_eq!(cloud.vms()[0].state, VmState::Running);
        let rec = cloud.run_job(id, 100.0).expect("runs");
        assert_eq!(cloud.vms()[0].state, VmState::Terminated);
        assert!(rec.billed_secs >= 100);
    }

    #[test]
    fn boot_time_is_billed() {
        let (c, mut cloud) = setup();
        let id = cloud.launch(c.instance("m5.large").unwrap().clone());
        let rec = cloud.run_job(id, 120.0).expect("runs");
        assert_eq!(rec.billed_secs, 150, "30s boot + 120s job");
    }

    #[test]
    fn terminated_vm_rejects_jobs() {
        let (c, mut cloud) = setup();
        let id = cloud.launch(c.instance("m5.large").unwrap().clone());
        cloud.run_job(id, 10.0).expect("first run");
        assert!(matches!(
            cloud.run_job(id, 10.0).unwrap_err(),
            CloudError::InvalidState { .. }
        ));
    }

    #[test]
    fn unknown_vm_rejected() {
        let (_, mut cloud) = setup();
        assert_eq!(cloud.run_job(7, 1.0).unwrap_err(), CloudError::UnknownVm(7));
    }

    #[test]
    fn begin_job_before_ready_at_is_invalid_state() {
        let (c, mut cloud) = setup();
        let id = cloud.launch(c.instance("m5.large").unwrap().clone());
        // Still booting: submitting work must error, not panic.
        let err = cloud.begin_job(id).unwrap_err();
        assert!(matches!(err, CloudError::InvalidState { vm, .. } if vm == id));
        assert!(err.to_string().contains("before ready_at"));
        // After the boot interval it succeeds.
        cloud.advance(30.0);
        cloud.begin_job(id).expect("ready VM accepts work");
        assert_eq!(cloud.vm(id).unwrap().state, VmState::Running);
    }

    #[test]
    fn double_terminate_is_invalid_state() {
        let (c, mut cloud) = setup();
        let id = cloud.launch(c.instance("c5.large").unwrap().clone());
        cloud.advance(40.0);
        cloud.terminate(id).expect("first terminate");
        let err = cloud.terminate(id).unwrap_err();
        assert!(matches!(err, CloudError::InvalidState { vm, .. } if vm == id));
        assert_eq!(cloud.terminate(99).unwrap_err(), CloudError::UnknownVm(99));
    }

    #[test]
    fn billing_after_termination_is_invalid_state() {
        let (c, mut cloud) = setup();
        let id = cloud.launch(c.instance("m5.large").unwrap().clone());
        cloud.advance(45.0);
        cloud.terminate(id).expect("terminates");
        // Neither a new job nor a work submission may bill a dead VM.
        assert!(matches!(
            cloud.run_job(id, 10.0).unwrap_err(),
            CloudError::InvalidState { .. }
        ));
        assert!(matches!(
            cloud.begin_job(id).unwrap_err(),
            CloudError::InvalidState { .. }
        ));
    }

    #[test]
    fn terminate_bills_launch_to_now_with_minimum() {
        let (c, mut cloud) = setup();
        let id = cloud.launch(c.instance("m5.large").unwrap().clone());
        // Terminated 10 s after launch, mid-boot: minimum still applies.
        cloud.advance(10.0);
        let rec = cloud.terminate(id).expect("terminates");
        assert_eq!(rec.billed_secs, 60);
        assert_eq!(rec.runtime_secs, 0.0, "never became available for work");
        // A longer life bills wall-clock from launch.
        let id2 = cloud.launch(c.instance("m5.large").unwrap().clone());
        cloud.advance(200.0);
        let rec2 = cloud.terminate(id2).expect("terminates");
        assert_eq!(rec2.billed_secs, 200);
        assert!((rec2.runtime_secs - 170.0).abs() < 1e-9, "200s life - 30s boot");
    }

    /// The boot-order cursor against the full scan it replaced: many
    /// tiny advances, one big advance and the naive scan agree on every
    /// VM's state, with launches interleaved between advances and one
    /// VM terminated while still `Pending`.
    #[test]
    fn boot_cursor_matches_a_full_scan() {
        let (c, fresh) = setup();
        let instance = c.instance("m5.large").unwrap().clone();
        // (time, launches at that time); VM 3, launched at t = 20, is
        // terminated at t = 29.5, mid-boot.
        let script: [(f64, usize); 7] =
            [(0.0, 2), (10.0, 1), (20.0, 2), (29.5, 0), (30.0, 1), (41.0, 3), (200.0, 0)];
        let naive = |vms: &[Vm], now: f64| -> Vec<VmState> {
            vms.iter()
                .map(|vm| match vm.state {
                    VmState::Terminated => VmState::Terminated,
                    _ if now >= vm.ready_at => VmState::Running,
                    _ => VmState::Pending,
                })
                .collect()
        };
        let states = |cloud: &Provisioner| cloud.vms().iter().map(|vm| vm.state).collect::<Vec<_>>();
        let (mut tiny, mut big) = (fresh.clone(), fresh);
        for (t, launches) in script {
            while tiny.now() < t {
                tiny.advance((t - tiny.now()).min(0.25));
                assert_eq!(states(&tiny), naive(tiny.vms(), tiny.now()), "t = {}", tiny.now());
            }
            big.advance_to(t);
            if t == 29.5 {
                // Between the two checks: kill VM 3 mid-boot on both.
                for cloud in [&mut tiny, &mut big] {
                    assert_eq!(cloud.vm(3).unwrap().state, VmState::Pending);
                    cloud.terminate(3).expect("terminates mid-boot");
                }
            }
            for cloud in [&mut tiny, &mut big] {
                for _ in 0..launches {
                    cloud.launch(instance.clone());
                }
            }
            assert_eq!(tiny.now(), big.now());
            assert_eq!(states(&tiny), states(&big), "t = {t}");
            assert_eq!(states(&big), naive(big.vms(), big.now()), "t = {t}");
        }
        assert_eq!(big.vms().len(), 9);
        assert_eq!(big.vm(3).unwrap().state, VmState::Terminated);
        assert!(big.vms().iter().all(|vm| vm.id == 3 || vm.state == VmState::Running));
    }

    #[test]
    fn advance_to_never_rewinds() {
        let (_, mut cloud) = setup();
        cloud.advance_to(100.0);
        assert!((cloud.now() - 100.0).abs() < 1e-12);
        cloud.advance_to(50.0);
        assert!((cloud.now() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn clock_advances_monotonically() {
        let (c, mut cloud) = setup();
        let id = cloud.launch(c.instance("c5.large").unwrap().clone());
        let t0 = cloud.now();
        cloud.run_job(id, 50.0).expect("runs");
        assert!(cloud.now() >= t0 + 80.0 - 1e-9);
        cloud.advance(-10.0); // negative time is ignored
        assert!(cloud.now() >= t0 + 80.0 - 1e-9);
    }
}
