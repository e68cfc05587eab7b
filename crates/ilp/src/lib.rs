//! Cache-placement optimization for the Controller baseline (Appendix A.1).
//!
//! The paper formulates centralized cache allocation as an ILP — minimize
//! `Σ L_ij · T_ij` subject to per-switch capacity — and solves it with Z3.
//! Z3 is not available offline, so this crate provides (a) a greedy
//! marginal-gain solver (the objective is monotone submodular in the chosen
//! placement set, so greedy carries the classic `1 − 1/e` guarantee) and
//! (b) an exact exhaustive solver for small instances that the tests use to
//! certify the greedy's quality. DESIGN.md §4 documents the substitution.
//!
//! The model is deliberately abstract: a [`Demand`] is "weight packets whose
//! latency becomes `cost` if `(switch, mapping)` is cached, else
//! `miss_cost`". The Controller baseline in `sv2p-baselines` lowers
//! topology + traffic matrix to this form.
//!
//! ```
//! use sv2p_ilp::{Demand, PlacementProblem};
//!
//! let p = PlacementProblem {
//!     num_switches: 2,
//!     capacity: 1,
//!     demands: vec![Demand {
//!         weight: 10,
//!         mapping: 7,
//!         options: vec![(0, 3.0), (1, 5.0)],
//!         miss_cost: 20.0,
//!     }],
//! };
//! let sol = p.solve_greedy();
//! assert!(sol.contains(0, 7), "cheapest caching point wins");
//! assert_eq!(p.cost(&sol), 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// One (source, destination-mapping) traffic aggregate.
#[derive(Debug, Clone)]
pub struct Demand {
    /// Packet count of this aggregate.
    pub weight: u64,
    /// The mapping (destination VM) that must be cached to serve it.
    pub mapping: u32,
    /// Candidate caching points on the aggregate's uplink path, with the
    /// per-packet cost if resolved there (earlier switches → lower cost).
    pub options: Vec<(usize, f64)>,
    /// Per-packet cost when no option is cached (gateway detour + C).
    pub miss_cost: f64,
}

/// A placement instance.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    /// Number of switches.
    pub num_switches: usize,
    /// Capacity (entries) per switch.
    pub capacity: usize,
    /// Traffic aggregates.
    pub demands: Vec<Demand>,
}

/// A solution: for each switch, the mappings cached there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `chosen[s]` = mappings cached at switch `s`.
    pub chosen: Vec<Vec<u32>>,
}

impl Placement {
    fn empty(num_switches: usize) -> Self {
        Placement {
            chosen: vec![Vec::new(); num_switches],
        }
    }

    /// Total entries placed.
    pub fn size(&self) -> usize {
        self.chosen.iter().map(Vec::len).sum()
    }

    /// True if `(switch, mapping)` is selected.
    pub fn contains(&self, switch: usize, mapping: u32) -> bool {
        self.chosen[switch].contains(&mapping)
    }
}

impl PlacementProblem {
    /// Objective value of `p`: total weighted per-packet cost.
    pub fn cost(&self, p: &Placement) -> f64 {
        self.demands
            .iter()
            .map(|d| {
                let best = d
                    .options
                    .iter()
                    .filter(|&&(s, _)| p.contains(s, d.mapping))
                    .map(|&(_, c)| c)
                    .fold(d.miss_cost, f64::min);
                best * d.weight as f64
            })
            .sum()
    }

    /// Greedy marginal-gain placement.
    ///
    /// Repeatedly selects the `(switch, mapping)` pair with the greatest
    /// reduction in total cost until every switch is full or no pair helps.
    pub fn solve_greedy(&self) -> Placement {
        let mut placement = Placement::empty(self.num_switches);
        // Current realized per-demand cost.
        let mut cur: Vec<f64> = self.demands.iter().map(|d| d.miss_cost).collect();
        // Candidate pairs and the demands they touch. Candidates are
        // scanned in first-appearance order, never HashMap order: the
        // randomized hasher would break equal-gain ties differently on
        // every run, making the whole Controller experiment
        // irreproducible.
        let mut touching: HashMap<(usize, u32), Vec<usize>> = HashMap::new();
        let mut candidates: Vec<(usize, u32)> = Vec::new();
        for (di, d) in self.demands.iter().enumerate() {
            for &(s, _) in &d.options {
                let dis = touching.entry((s, d.mapping)).or_default();
                if dis.is_empty() {
                    candidates.push((s, d.mapping));
                }
                dis.push(di);
            }
        }
        let mut slots: Vec<usize> = vec![self.capacity; self.num_switches];

        loop {
            // Find the best remaining pair. (Plain rescan: candidate counts
            // in our experiments are small enough that lazy heaps don't pay.)
            let mut best: Option<((usize, u32), f64)> = None;
            for &(s, m) in &candidates {
                let dis = &touching[&(s, m)];
                if slots[s] == 0 || placement.contains(s, m) {
                    continue;
                }
                let gain: f64 = dis
                    .iter()
                    .map(|&di| {
                        let d = &self.demands[di];
                        let here = d
                            .options
                            .iter()
                            .find(|&&(os, _)| os == s)
                            .map(|&(_, c)| c)
                            .unwrap_or(d.miss_cost);
                        (cur[di] - here).max(0.0) * d.weight as f64
                    })
                    .sum();
                if gain > 0.0 && best.is_none_or(|(_, g)| gain > g) {
                    best = Some(((s, m), gain));
                }
            }
            let Some(((s, m), _)) = best else { break };
            placement.chosen[s].push(m);
            slots[s] -= 1;
            for &di in &touching[&(s, m)] {
                let d = &self.demands[di];
                if let Some(&(_, c)) = d.options.iter().find(|&&(os, _)| os == s) {
                    cur[di] = cur[di].min(c);
                }
            }
        }
        placement
    }

    /// Exact solver by exhaustive search over all feasible placements.
    ///
    /// Exponential — only for certifying the greedy on small instances
    /// (≤ ~16 candidate pairs).
    pub fn solve_exact(&self) -> Placement {
        let mut candidates: Vec<(usize, u32)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for d in &self.demands {
            for &(s, _) in &d.options {
                if seen.insert((s, d.mapping)) {
                    candidates.push((s, d.mapping));
                }
            }
        }
        assert!(
            candidates.len() <= 20,
            "exact solver is for tiny instances ({} candidates)",
            candidates.len()
        );
        let mut best = Placement::empty(self.num_switches);
        let mut best_cost = self.cost(&best);
        for mask in 0u32..(1 << candidates.len()) {
            let mut p = Placement::empty(self.num_switches);
            let mut feasible = true;
            for (bit, &(s, m)) in candidates.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    p.chosen[s].push(m);
                    if p.chosen[s].len() > self.capacity {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }
            let c = self.cost(&p);
            if c < best_cost {
                best_cost = c;
                best = p;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(weight: u64, mapping: u32, options: &[(usize, f64)], miss: f64) -> Demand {
        Demand {
            weight,
            mapping,
            options: options.to_vec(),
            miss_cost: miss,
        }
    }

    #[test]
    fn empty_problem_is_free() {
        let p = PlacementProblem {
            num_switches: 3,
            capacity: 1,
            demands: vec![],
        };
        let sol = p.solve_greedy();
        assert_eq!(sol.size(), 0);
        assert_eq!(p.cost(&sol), 0.0);
    }

    #[test]
    fn greedy_prefers_shared_intersection() {
        // Two demands for the same mapping share switch 1 ("the intersection
        // of all network paths", A.1); switch 0 helps only demand 0.
        let p = PlacementProblem {
            num_switches: 2,
            capacity: 1,
            demands: vec![
                demand(10, 7, &[(0, 3.0), (1, 4.0)], 10.0),
                demand(10, 7, &[(1, 4.0)], 10.0),
            ],
        };
        let sol = p.solve_greedy();
        // First pick must be switch 1 (gain 120 vs 70).
        assert!(sol.contains(1, 7));
        // With remaining capacity, switch 0 still helps demand 0 (4 -> 3).
        assert!(sol.contains(0, 7));
        assert_eq!(p.cost(&sol), 10.0 * 3.0 + 10.0 * 4.0);
    }

    #[test]
    fn capacity_is_respected() {
        let p = PlacementProblem {
            num_switches: 1,
            capacity: 2,
            demands: (0..5)
                .map(|m| demand(1 + m as u64, m, &[(0, 1.0)], 10.0))
                .collect(),
        };
        let sol = p.solve_greedy();
        assert_eq!(sol.chosen[0].len(), 2);
        // The two heaviest mappings (3, 4) win.
        assert!(sol.contains(0, 4) && sol.contains(0, 3));
    }

    #[test]
    fn zero_capacity_places_nothing() {
        let p = PlacementProblem {
            num_switches: 2,
            capacity: 0,
            demands: vec![demand(5, 1, &[(0, 1.0)], 9.0)],
        };
        let sol = p.solve_greedy();
        assert_eq!(sol.size(), 0);
        assert_eq!(p.cost(&sol), 45.0);
    }

    #[test]
    fn useless_placements_are_not_made() {
        // Option cost equals miss cost: no gain, nothing placed.
        let p = PlacementProblem {
            num_switches: 1,
            capacity: 5,
            demands: vec![demand(5, 1, &[(0, 9.0)], 9.0)],
        };
        assert_eq!(p.solve_greedy().size(), 0);
    }

    #[test]
    fn greedy_matches_exact_on_small_instances() {
        // Deterministic pseudo-random small instances.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let num_switches = 2 + (next() % 2) as usize;
            let demands: Vec<Demand> = (0..(2 + next() % 3))
                .map(|_| {
                    let mapping = (next() % 3) as u32;
                    let n_opt = 1 + (next() % 2) as usize;
                    let options: Vec<(usize, f64)> = (0..n_opt)
                        .map(|_| {
                            (
                                (next() % num_switches as u64) as usize,
                                (2 + next() % 5) as f64,
                            )
                        })
                        .collect();
                    Demand {
                        weight: 1 + next() % 9,
                        mapping,
                        options,
                        miss_cost: 10.0,
                    }
                })
                .collect();
            let p = PlacementProblem {
                num_switches,
                capacity: 1,
                demands,
            };
            let all_miss: f64 = p
                .demands
                .iter()
                .map(|d| d.miss_cost * d.weight as f64)
                .sum();
            let greedy_cost = p.cost(&p.solve_greedy());
            let exact_cost = p.cost(&p.solve_exact());
            assert!(exact_cost <= greedy_cost + 1e-9, "exact must be optimal");
            // Greedy over a partition matroid keeps at least half of the
            // optimal *gain* (latency saved vs. all-miss).
            let greedy_gain = all_miss - greedy_cost;
            let exact_gain = all_miss - exact_cost;
            assert!(
                greedy_gain + 1e-9 >= 0.5 * exact_gain,
                "greedy gain {greedy_gain} < half of optimal {exact_gain}: {p:?}"
            );
        }
    }
}
