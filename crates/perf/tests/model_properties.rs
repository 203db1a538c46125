//! Property-based tests for the machine execution model.

use eda_cloud_perf::{CounterSet, MachineConfig, MachineModel, StageWork};
use proptest::prelude::*;

prop_compose! {
    fn arbitrary_counters()(
        instructions in 1_000u64..10_000_000,
        branches in 0u64..1_000_000,
        branch_misses_frac in 0u64..100,
        cache_refs in 0u64..1_000_000,
        l1_frac in 0u64..100,
        llc_frac in 0u64..100,
        flops in 0u64..500_000,
        avx_ops in 0u64..500_000,
    ) -> CounterSet {
        let branch_misses = branches * branch_misses_frac / 100;
        let l1_misses = cache_refs * l1_frac / 100;
        let llc_misses = l1_misses * llc_frac / 100;
        CounterSet {
            instructions,
            branches,
            branch_misses,
            cache_refs,
            l1_misses,
            llc_misses,
            flops,
            avx_ops,
        }
    }
}

proptest! {
    /// Runtime is positive and decreases (weakly) as vCPUs grow, for any
    /// counter profile and parallel fraction, with zero sync overhead.
    #[test]
    fn more_vcpus_never_hurt_without_sync(
        counters in arbitrary_counters(),
        p in 0.0f64..1.0,
    ) {
        let model = MachineModel::default();
        let work = StageWork::from_counters(&counters, p, 0.0);
        let mut last = f64::INFINITY;
        for vcpus in [1u32, 2, 4, 8] {
            let t = model.runtime_secs(&work, &MachineConfig::vcpus(vcpus));
            prop_assert!(t > 0.0);
            prop_assert!(t <= last * (1.0 + 1e-9), "vcpus={vcpus}: {t} > {last}");
            last = t;
        }
    }

    /// Speedup never exceeds the effective core count.
    #[test]
    fn speedup_bounded_by_cores(
        counters in arbitrary_counters(),
        p in 0.0f64..1.0,
    ) {
        let model = MachineModel::default();
        let work = StageWork::from_counters(&counters, p, 0.0);
        let t1 = model.runtime_secs(&work, &MachineConfig::vcpus(1));
        let t8 = model.runtime_secs(&work, &MachineConfig::vcpus(8));
        let eff = MachineModel::cores_at(8.0);
        prop_assert!(t1 / t8 <= eff + 1e-9);
    }

    /// The work split conserves total cycles regardless of the fraction.
    #[test]
    fn work_split_conserves_cycles(
        counters in arbitrary_counters(),
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
    ) {
        let a = StageWork::from_counters(&counters, p1, 0.0);
        let b = StageWork::from_counters(&counters, p2, 0.0);
        let total = |w: &StageWork| {
            w.serial_cycles + w.parallel_cycles + w.mem_serial_cycles + w.mem_parallel_cycles
        };
        prop_assert!((total(&a) - total(&b)).abs() < 1e-6 * total(&a).max(1.0));
    }

    /// Work scale is an exact multiplier on runtime.
    #[test]
    fn work_scale_is_linear(
        counters in arbitrary_counters(),
        scale in 1.0f64..10_000.0,
    ) {
        let base_model = MachineModel::default();
        let scaled_model = MachineModel::with_work_scale(scale);
        let work = StageWork::from_counters(&counters, 0.5, 100.0);
        let m = MachineConfig::vcpus(4);
        let base = base_model.runtime_secs(&work, &m);
        let scaled = scaled_model.runtime_secs(&work, &m);
        prop_assert!((scaled / base - scale).abs() < 1e-6 * scale);
    }
}
