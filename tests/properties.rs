//! Property-based tests over the core substrates.

use eda_cloud::flow::{ExecContext, Recipe, Synthesizer};
use eda_cloud::gcn::{Matrix, SparseMatrix};
use eda_cloud::mckp::{baselines, Choice, Problem, Solver, Stage};
use eda_cloud::netlist::{generators, Aig};
use proptest::prelude::*;

/// Dense `a * b` into a fresh matrix.
fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    a.matmul_into(b, &mut out);
    out
}

fn bits(v: u64, w: u32) -> Vec<bool> {
    (0..w).map(|i| (v >> i) & 1 == 1).collect()
}

fn to_u64(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The generated ripple adder matches machine arithmetic for any
    /// operands at any width.
    #[test]
    fn adder_matches_u64(w in 2u32..12, a in 0u64..4096, b in 0u64..4096) {
        let a = a & ((1 << w) - 1);
        let b = b & ((1 << w) - 1);
        let aig = generators::adder(w);
        let mut inputs = bits(a, w);
        inputs.extend(bits(b, w));
        let out = aig.simulate(&inputs).expect("arity");
        prop_assert_eq!(to_u64(&out), a + b);
    }

    /// The array multiplier matches machine arithmetic.
    #[test]
    fn multiplier_matches_u64(w in 2u32..8, a in 0u64..256, b in 0u64..256) {
        let a = a & ((1 << w) - 1);
        let b = b & ((1 << w) - 1);
        let aig = generators::multiplier(w);
        let mut inputs = bits(a, w);
        inputs.extend(bits(b, w));
        let out = aig.simulate(&inputs).expect("arity");
        prop_assert_eq!(to_u64(&out), a * b);
    }

    /// Every synthesis recipe preserves the function of random designs
    /// (checked against 8 random vectors; the synthesizer also verifies
    /// internally).
    #[test]
    fn synthesis_preserves_function(seed in 0u64..60) {
        let aig = generators::ctrl(seed, 80);
        let recipes = Recipe::standard_suite();
        let recipe = &recipes[(seed as usize) % recipes.len()];
        let ctx = ExecContext::with_vcpus(1);
        let (netlist, _) = Synthesizer::new()
            .run(&aig, recipe, &ctx)
            .expect("synthesis succeeds");
        for k in 0..8u64 {
            let inputs: Vec<bool> = (0..aig.input_count())
                .map(|i| (seed.wrapping_add(k).wrapping_mul(0x2545_F491_4F6C_DD1D) >> (i % 60)) & 1 == 1)
                .collect();
            prop_assert_eq!(
                netlist.simulate(&inputs).expect("netlist sim"),
                aig.simulate(&inputs).expect("aig sim")
            );
        }
    }

    /// The MCKP dynamic program is optimal: it matches exhaustive search
    /// on random instances (and agrees on feasibility).
    #[test]
    fn mckp_dp_is_optimal(
        seed in 0u64..400,
        stages in 2usize..5,
        choices in 2usize..5,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let problem = Problem::new(
            (0..stages)
                .map(|i| {
                    Stage::new(
                        format!("s{i}"),
                        (0..choices)
                            .map(|j| {
                                Choice::new(
                                    format!("c{j}"),
                                    10 + next() % 90,
                                    0.01 + (next() % 100) as f64 / 100.0,
                                )
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
        .expect("valid problem");
        let budget = 30 + next() % 300;
        let dp = Solver::new().solve_min_cost(&problem, budget);
        let brute = baselines::exhaustive_min_cost(&problem, budget);
        prop_assert_eq!(dp.is_some(), brute.is_some());
        if let (Some(dp), Some(brute)) = (dp, brute) {
            prop_assert!(dp.total_runtime_secs <= budget);
            prop_assert!((dp.total_cost_usd - brute.total_cost_usd).abs() < 1e-9,
                "dp {} vs brute {}", dp.total_cost_usd, brute.total_cost_usd);
        }
    }

    /// Sparse × dense equals dense × dense for random sparse matrices.
    #[test]
    fn spmm_matches_dense(rows in 1usize..8, cols in 1usize..8, seed in 0u64..200) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
            ((s >> 33) % 1000) as f64 / 250.0 - 2.0
        };
        // Random sparse A (keep ~40% density) and dense X.
        let mut triplets = Vec::new();
        let mut dense_a = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = next();
                if v > 0.4 {
                    triplets.push((r as u32, c as u32, v));
                    dense_a.set(r, c, v);
                }
            }
        }
        let a = SparseMatrix::from_triplets(rows, cols, &triplets);
        let x_cols = 3;
        let mut x = Matrix::zeros(cols, x_cols);
        for r in 0..cols {
            for c in 0..x_cols {
                x.set(r, c, next());
            }
        }
        let mut sparse = Matrix::zeros(0, 0);
        a.matmul_into(&x, &mut sparse).expect("valid operands");
        let dense = matmul(&dense_a, &x);
        for r in 0..rows {
            for c in 0..x_cols {
                prop_assert!((sparse.get(r, c) - dense.get(r, c)).abs() < 1e-9);
            }
        }
    }

    /// Structural hashing keeps AIGs canonical: rebuilding any design
    /// through `and2` never grows the node count.
    #[test]
    fn strash_never_grows(seed in 0u64..200) {
        let aig = generators::ctrl(seed, 100);
        let mut rebuilt = Aig::new("rebuilt");
        let mut map = Vec::with_capacity(aig.node_count());
        for node in aig.nodes() {
            let lit = match node {
                eda_cloud::netlist::AigNode::Const0 => eda_cloud::netlist::Lit::FALSE,
                eda_cloud::netlist::AigNode::Pi(_) => rebuilt.add_pi(),
                eda_cloud::netlist::AigNode::And(a, b) => {
                    let la: eda_cloud::netlist::Lit = map[a.node() as usize];
                    let lb: eda_cloud::netlist::Lit = map[b.node() as usize];
                    rebuilt.and2(
                        la.complement_if(a.is_complemented()),
                        lb.complement_if(b.is_complemented()),
                    )
                }
            };
            map.push(lit);
        }
        prop_assert!(rebuilt.and_count() <= aig.and_count());
    }
}
