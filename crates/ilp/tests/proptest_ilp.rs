//! Property tests for the placement solvers: capacity feasibility,
//! monotonicity in capacity, and the greedy-vs-exact gain bound on random
//! instances.

use proptest::prelude::*;
use sv2p_ilp::{Demand, Placement, PlacementProblem};

fn arb_problem(max_candidates: usize) -> impl Strategy<Value = PlacementProblem> {
    (
        2usize..4,
        1usize..3,
        proptest::collection::vec(
            (
                1u64..10,
                0u32..4,
                proptest::collection::vec((0usize..3, 1.0f64..9.0), 1..3),
                10.0f64..30.0,
            ),
            1..5,
        ),
    )
        .prop_map(move |(num_switches, capacity, raw)| {
            let demands = raw
                .into_iter()
                .map(|(weight, mapping, options, miss)| Demand {
                    weight,
                    mapping,
                    options: options
                        .into_iter()
                        .map(|(s, c)| (s % num_switches, c))
                        .collect(),
                    miss_cost: miss,
                })
                .collect();
            let p = PlacementProblem {
                num_switches,
                capacity,
                demands,
            };
            let _ = max_candidates;
            p
        })
}

fn assert_feasible(p: &PlacementProblem, sol: &Placement) {
    for (s, chosen) in sol.chosen.iter().enumerate() {
        assert!(
            chosen.len() <= p.capacity,
            "switch {s} over capacity: {chosen:?}"
        );
        let mut dedup = chosen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), chosen.len(), "duplicate placement at {s}");
    }
}

proptest! {
    #[test]
    fn greedy_solutions_are_feasible(p in arb_problem(12)) {
        let sol = p.solve_greedy();
        assert_feasible(&p, &sol);
        // Placing entries can only help: cost <= all-miss cost.
        let empty = PlacementProblem {
            capacity: 0,
            ..p.clone()
        };
        prop_assert!(p.cost(&sol) <= empty.cost(&empty.solve_greedy()) + 1e-9);
    }

    #[test]
    fn greedy_gain_is_at_least_half_of_optimal(p in arb_problem(12)) {
        let all_miss: f64 = p.demands.iter().map(|d| d.miss_cost * d.weight as f64).sum();
        let greedy = all_miss - p.cost(&p.solve_greedy());
        let exact = all_miss - p.cost(&p.solve_exact());
        prop_assert!(exact + 1e-9 >= greedy, "exact must be optimal");
        prop_assert!(
            greedy + 1e-9 >= 0.5 * exact,
            "greedy gain {greedy} < half of {exact} on {p:?}"
        );
    }

    #[test]
    fn more_capacity_never_hurts_greedy(p in arb_problem(12)) {
        let small = p.cost(&p.solve_greedy());
        let bigger = PlacementProblem {
            capacity: p.capacity + 1,
            ..p.clone()
        };
        let big = bigger.cost(&bigger.solve_greedy());
        prop_assert!(big <= small + 1e-9, "capacity increase raised cost");
    }
}
