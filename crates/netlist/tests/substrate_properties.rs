//! Property-based tests over the design substrate.

use eda_cloud_netlist::{generators, DesignGraph, FEATURE_DIM};
use proptest::prelude::*;

fn family_strategy() -> impl Strategy<Value = (&'static str, u32)> {
    (
        proptest::sample::select(generators::FAMILY_NAMES.to_vec()),
        2u32..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every generated family builds a valid, non-trivial AIG.
    #[test]
    fn families_build_valid_aigs((name, size) in family_strategy()) {
        let aig = generators::build_family(name, size).expect("known family");
        aig.check().expect("valid AIG");
        prop_assert!(aig.and_count() > 0);
        prop_assert!(aig.input_count() > 0);
        prop_assert!(aig.output_count() > 0);
        prop_assert!(aig.depth() > 0);
    }

    /// AIG-to-graph conversion invariants: node/edge counts, transposed
    /// CSR views, and feature sanity.
    #[test]
    fn aig_graph_invariants((name, size) in family_strategy()) {
        let aig = generators::build_family(name, size).expect("known family");
        let g = DesignGraph::from_aig(&aig);
        prop_assert_eq!(g.node_count(), aig.node_count() + aig.output_count());
        prop_assert_eq!(g.edge_count(), 2 * aig.and_count() + aig.output_count());
        // In-degrees sum to the edge count (the graph's unit tests hold
        // the two CSR views to each other's transpose).
        let in_deg: usize = (0..g.node_count()).map(|v| g.in_neighbors(v).len()).sum();
        prop_assert_eq!(in_deg, g.edge_count());
        // Features: right width, finite, bias set.
        prop_assert_eq!(g.features().len(), g.node_count() * FEATURE_DIM);
        for f in g.features().chunks(FEATURE_DIM) {
            prop_assert!(f.iter().all(|x| x.is_finite()));
            prop_assert_eq!(f[FEATURE_DIM - 1], 1.0);
            // Levels are normalized.
            prop_assert!(f[6] >= 0.0 && f[6] <= 1.0 + 1e-12);
        }
    }

    /// Simulation agreement after a structural merge: the merged design
    /// evaluates each part independently.
    #[test]
    fn merge_is_functionally_parallel(
        (name_a, size_a) in family_strategy(),
        (name_b, size_b) in family_strategy(),
        seed in 0u64..1000,
    ) {
        let a = generators::build_family(name_a, size_a).expect("family");
        let b = generators::build_family(name_b, size_b).expect("family");
        let merged = generators::merge("m", &[a.clone(), b.clone()]);
        let rand_bit = |i: usize| (seed.wrapping_mul(i as u64 + 7) >> 11) & 1 == 1;
        let in_a: Vec<bool> = (0..a.input_count()).map(rand_bit).collect();
        let in_b: Vec<bool> = (a.input_count()..a.input_count() + b.input_count())
            .map(rand_bit)
            .collect();
        let mut merged_in = in_a.clone();
        merged_in.extend(&in_b);
        let out = merged.simulate(&merged_in).expect("sim");
        let (oa, ob) = out.split_at(a.output_count());
        prop_assert_eq!(oa.to_vec(), a.simulate(&in_a).expect("sim a"));
        prop_assert_eq!(ob.to_vec(), b.simulate(&in_b).expect("sim b"));
    }

    /// Depth never exceeds AND count, and levels are consistent with
    /// fanin structure.
    #[test]
    fn levels_are_consistent((name, size) in family_strategy()) {
        let aig = generators::build_family(name, size).expect("family");
        let levels = aig.levels();
        prop_assert!(aig.depth() as usize <= aig.and_count());
        for (i, node) in aig.nodes().iter().enumerate() {
            if let eda_cloud_netlist::AigNode::And(a, b) = node {
                let la = levels[a.node() as usize];
                let lb = levels[b.node() as usize];
                prop_assert_eq!(levels[i], 1 + la.max(lb));
            } else {
                prop_assert_eq!(levels[i], 0);
            }
        }
    }
}
