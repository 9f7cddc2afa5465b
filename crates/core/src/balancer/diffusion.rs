//! Decentralized diffusion-based balancing (paper §3.3, second balancer,
//! Lemma 2).
//!
//! The diffusion balancer starts from the assignment currently in effect and
//! iteratively moves layers from overloaded stages to underloaded *adjacent*
//! stages (moving a boundary layer keeps the assignment contiguous, so only
//! neighbor-to-neighbor transfers are ever needed — exactly the neighbor
//! averaging of the paper's analysis).  Each round the pair with the largest
//! workload gap acts first; a move is committed only if it decreases the
//! potential function
//!
//! ```text
//!   φ(r) = Σ_{u,v} |x_u(r) − x_v(r)|
//! ```
//!
//! and respects the destination's memory capacity.  φ is monotonically
//! non-increasing, and the number of rounds to γ-convergence is bounded by
//! Õ(N²) (Lemma 2), which the property tests and the `lemma2_convergence`
//! bench verify empirically.

use dynmo_pipeline::StageAssignment;

use super::{stage_weights, BalanceOutcome, BalanceRequest, LoadBalancer};

/// Maximum number of rounds before giving up (a safety valve; the Lemma 2
/// bound is far below this for the stage counts simulated).
const MAX_ROUNDS: u64 = 100_000;

/// Convergence threshold γ on the potential function, expressed as a
/// fraction of the total load (so it is scale-free).
const GAMMA_FRACTION: f64 = 1e-3;

/// The decentralized iterative diffusion balancer.
#[derive(Debug, Clone)]
pub struct DiffusionBalancer {
    /// Evaluate candidate moves with the O(p) incremental potential update
    /// ([`potential_after_asymmetric_move`]) instead of cloning the stage
    /// loads and recomputing the full O(p²) pairwise sum per candidate.  On
    /// by default; the `lemma2_convergence` bench flips it off to measure
    /// the win, and the property tests pin both paths to identical
    /// outcomes.
    pub use_incremental_potential: bool,
}

impl Default for DiffusionBalancer {
    fn default() -> Self {
        DiffusionBalancer {
            use_incremental_potential: true,
        }
    }
}

impl DiffusionBalancer {
    /// Create a balancer that evaluates moves incrementally.
    pub fn new() -> Self {
        Self::default()
    }

    /// The theoretical round bound of Lemma 2 for `n` workers:
    /// `O(N² log(S·N/γ) log N)`, with the constant taken as 60 ln(2n) from
    /// the proof.  Used by tests and the convergence bench to check the
    /// empirical round counts stay below the bound.
    pub fn lemma2_round_bound(&self, num_stages: usize, total_load: f64) -> f64 {
        let n = num_stages.max(2) as f64;
        let gamma = (GAMMA_FRACTION * total_load).max(f64::MIN_POSITIVE);
        let s = total_load.max(gamma);
        60.0 * n * n * (2.0 * n).ln() * (s * n / gamma).ln().max(1.0)
    }
}

/// The potential function φ of Lemma 2: the sum of absolute pairwise load
/// gaps across all worker pairs.  O(p²) — use
/// [`potential_after_asymmetric_move`] to evaluate a candidate boundary move
/// in O(p).
pub fn potential(stage_loads: &[f64]) -> f64 {
    let mut phi = 0.0;
    for i in 0..stage_loads.len() {
        for j in (i + 1)..stage_loads.len() {
            phi += (stage_loads[i] - stage_loads[j]).abs();
        }
    }
    phi
}

/// φ after moving one layer from stage `from` to stage `to`, computed
/// incrementally from the current `phi`: the source sheds `dw_from` and
/// the destination gains `dw_to` (the layer's *time* on each endpoint's
/// device; equal on equal devices).  A boundary move only changes two stage
/// loads, so only the O(p) pairwise terms touching those two stages change
/// — the remaining O(p²) terms cancel.  With exactly-representable loads
/// (integer-valued f64s, as the property test uses) the result is bit-equal
/// to recomputing [`potential`] on the moved load vector.
pub fn potential_after_asymmetric_move(
    stage_loads: &[f64],
    phi: f64,
    from: usize,
    to: usize,
    dw_from: f64,
    dw_to: f64,
) -> f64 {
    debug_assert_ne!(from, to);
    let old_from = stage_loads[from];
    let old_to = stage_loads[to];
    let new_from = old_from - dw_from;
    let new_to = old_to + dw_to;
    let mut delta = (new_from - new_to).abs() - (old_from - old_to).abs();
    for (j, &load) in stage_loads.iter().enumerate() {
        if j == from || j == to {
            continue;
        }
        delta += (new_from - load).abs() - (old_from - load).abs();
        delta += (new_to - load).abs() - (old_to - load).abs();
    }
    phi + delta
}

impl LoadBalancer for DiffusionBalancer {
    fn name(&self) -> String {
        "diffusion".to_string()
    }

    fn rebalance(&self, request: &BalanceRequest<'_>) -> BalanceOutcome {
        let num_layers = request.loads.len();
        // The current assignment seeds the iteration only when it still
        // matches the request's shape: stage count AND layer count.  A
        // stale assignment after a layer-count change (pruned or released
        // layers, a grown model) would index `weights[layer]` out of
        // bounds — or, worse, silently balance the wrong layers.
        let mut assignment = match request.current {
            Some(current)
                if current.num_stages() == request.num_stages
                    && current.num_layers() == num_layers =>
            {
                current.clone()
            }
            _ => StageAssignment::uniform(num_layers, request.num_stages),
        };
        let weights: Vec<f64> = (0..num_layers).map(|l| request.weight(l)).collect();
        let total: f64 = weights.iter().sum();
        let speeds = &request.stage_speeds;
        // γ is scale-free against the total *time*; the fastest device sets
        // the time scale of the load vector below.  (With every speed 1.0,
        // as on a homogeneous cluster, each division returns its operand.)
        let max_speed = speeds.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
        let gamma = GAMMA_FRACTION * (total / max_speed);

        // Stage loads in the time domain: raw objective weight over the
        // stage's effective speed.
        let mut loads = stage_weights(&assignment, request.loads, request.objective);
        for (load, &speed) in loads.iter_mut().zip(speeds) {
            *load /= speed;
        }
        let mut phi = potential(&loads);
        let mut rounds = 0u64;

        // Evaluate moving the boundary layer of `from` to `to`: the new φ
        // (incremental O(p) delta, or the legacy full O(p²) recompute),
        // when the move improves φ and fits in memory.
        let evaluate = |assignment: &StageAssignment,
                        loads: &[f64],
                        phi: f64,
                        from: usize,
                        to: usize|
         -> Option<(f64, f64, f64)> {
            let source = assignment.layers_of(from);
            if source.is_empty() {
                return None;
            }
            // The layer of `from` facing `to`, and `to`'s layers with it.
            let dest = assignment.layers_of(to);
            let (layer, grown) = if to < from {
                (source.start, dest.start..source.start + 1)
            } else {
                (source.end - 1, source.end - 1..dest.end)
            };
            let w = weights[layer];
            // The layer's *time* on each endpoint's device.
            let (dw_from, dw_to) = (w / speeds[from], w / speeds[to]);
            let new_phi = if self.use_incremental_potential {
                potential_after_asymmetric_move(loads, phi, from, to, dw_from, dw_to)
            } else {
                let mut new_loads = loads.to_vec();
                new_loads[from] -= dw_from;
                new_loads[to] += dw_to;
                potential(&new_loads)
            };
            // Memory check on the destination stage.
            let fits = request.stage_memory(to, grown) <= request.stage_capacities[to];
            (new_phi < phi - 1e-15 && fits).then_some((new_phi, dw_from, dw_to))
        };

        while rounds < MAX_ROUNDS && phi > gamma {
            rounds += 1;
            // Find the adjacent pair with the largest gap (the "max
            // neighbor" strategy of the proof).
            let mut best_pair: Option<(usize, usize, f64)> = None;
            for s in 0..request.num_stages.saturating_sub(1) {
                let gap = (loads[s] - loads[s + 1]).abs();
                if best_pair.is_none_or(|(_, _, g)| gap > g) {
                    best_pair = Some((s, s + 1, gap));
                }
            }
            let Some((left, right, _)) = best_pair else {
                break;
            };

            // Move one boundary layer from the heavier to the lighter stage,
            // if it decreases φ and fits in memory.
            let (from, to) = if loads[left] >= loads[right] {
                (left, right)
            } else {
                (right, left)
            };
            let mut committed = evaluate(&assignment, &loads, phi, from, to)
                .map(|(new_phi, dw_from, dw_to)| (new_phi, dw_from, dw_to, from, to));
            if committed.is_none() {
                // The max-gap pair cannot improve; try any other adjacent
                // pair before declaring convergence.
                for s in 0..request.num_stages.saturating_sub(1) {
                    let (from, to) = if loads[s] >= loads[s + 1] {
                        (s, s + 1)
                    } else {
                        (s + 1, s)
                    };
                    if let Some((new_phi, dw_from, dw_to)) =
                        evaluate(&assignment, &loads, phi, from, to)
                    {
                        committed = Some((new_phi, dw_from, dw_to, from, to));
                        break;
                    }
                }
            }
            let Some((new_phi, dw_from, dw_to, from, to)) = committed else {
                break; // no single-layer move improves φ: converged
            };
            assignment
                .move_boundary_layer(from, to)
                .expect("`from` holds layers and neighbours `to`");
            loads[from] -= dw_from;
            loads[to] += dw_to;
            phi = new_phi;
        }

        let bottleneck = loads.iter().copied().fold(0.0, f64::max);
        BalanceOutcome {
            assignment,
            rounds,
            bottleneck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::loads_from_times;
    use super::super::{BalanceObjective, PartitionBalancer};
    use super::*;
    use dynmo_pipeline::metrics::imbalance;

    #[test]
    fn potential_is_zero_only_when_balanced() {
        assert_eq!(potential(&[2.0, 2.0, 2.0]), 0.0);
        assert!(potential(&[1.0, 3.0]) > 0.0);
        assert_eq!(potential(&[]), 0.0);
        assert_eq!(potential(&[5.0]), 0.0);
    }

    #[test]
    fn diffusion_improves_a_skewed_starting_assignment() {
        // Layer times decay sharply (early-exit-like); start from uniform.
        let times: Vec<f64> = (0..32).map(|i| (1.0 + i as f64 * 0.3).recip()).collect();
        let loads = loads_from_times(&times);
        let current = StageAssignment::uniform(32, 8);
        let request = BalanceRequest {
            current: Some(&current),
            ..BalanceRequest::new(&loads, 8, u64::MAX, BalanceObjective::ByTime)
        };
        let before = imbalance(&stage_weights(&current, &loads, BalanceObjective::ByTime));
        let outcome = DiffusionBalancer::new().rebalance(&request);
        let after = imbalance(&stage_weights(
            &outcome.assignment,
            &loads,
            BalanceObjective::ByTime,
        ));
        assert!(after < before * 0.5, "before {before} after {after}");
        assert_eq!(outcome.assignment.num_layers(), 32);
        assert!(outcome.rounds > 0);
    }

    #[test]
    fn diffusion_matches_partition_quality_within_a_factor() {
        // Both balancers should land near the same bottleneck (the paper
        // proves both converge to the optimal balance).
        let times: Vec<f64> = (0..26)
            .map(|i| if i % 5 == 0 { 3.0 } else { 1.0 })
            .collect();
        let loads = loads_from_times(&times);
        let request = BalanceRequest::new(&loads, 4, u64::MAX, BalanceObjective::ByTime);
        let partition = PartitionBalancer::new().rebalance(&request);
        let diffusion = DiffusionBalancer::new().rebalance(&request);
        assert!(
            diffusion.bottleneck <= partition.bottleneck * 1.3 + 1e-12,
            "diffusion {} vs partition {}",
            diffusion.bottleneck,
            partition.bottleneck
        );
    }

    #[test]
    fn rounds_stay_within_the_lemma2_bound() {
        let times: Vec<f64> = (0..48)
            .map(|i| 0.3 + ((i * 37) % 17) as f64 * 0.2)
            .collect();
        let loads = loads_from_times(&times);
        for stages in [2usize, 4, 8, 16] {
            let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime);
            let balancer = DiffusionBalancer::new();
            let outcome = balancer.rebalance(&request);
            let total: f64 = times.iter().sum();
            let bound = balancer.lemma2_round_bound(stages, total);
            assert!(
                (outcome.rounds as f64) < bound,
                "stages {stages}: rounds {} exceeds bound {bound}",
                outcome.rounds
            );
        }
    }

    #[test]
    fn already_balanced_input_converges_immediately() {
        let loads = loads_from_times(&[1.0; 16]);
        let current = StageAssignment::uniform(16, 4);
        let request = BalanceRequest {
            current: Some(&current),
            ..BalanceRequest::new(&loads, 4, u64::MAX, BalanceObjective::ByTime)
        };
        let outcome = DiffusionBalancer::new().rebalance(&request);
        assert_eq!(outcome.assignment, current);
        assert!(outcome.rounds <= 1);
    }

    #[test]
    fn memory_capacity_blocks_overfilling_a_stage() {
        // Stage 1's layers are tiny in time, so diffusion wants to push
        // everything there — but memory only fits 5 layers per stage.
        let mut loads = loads_from_times(&[1.0; 8]);
        for (i, l) in loads.iter_mut().enumerate() {
            l.fwd_time = if i < 4 { 3.0 } else { 0.1 };
            l.bwd_time = 0.0;
            l.static_bytes = 1_000;
            l.activation_bytes = 0;
        }
        let request = BalanceRequest::new(&loads, 2, 5_000, BalanceObjective::ByTime)
            .with_inflight(vec![0, 0]);
        let outcome = DiffusionBalancer::new().rebalance(&request);
        let counts = outcome.assignment.counts();
        assert!(counts.iter().all(|&c| c <= 5), "counts {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 8);
    }

    #[test]
    fn mismatched_current_stage_count_restarts_from_uniform() {
        let loads = loads_from_times(&[1.0; 12]);
        let current = StageAssignment::uniform(12, 6);
        // Request only 3 stages: the 6-stage current assignment is ignored.
        let request = BalanceRequest {
            current: Some(&current),
            ..BalanceRequest::new(&loads, 3, u64::MAX, BalanceObjective::ByTime)
        };
        let outcome = DiffusionBalancer::new().rebalance(&request);
        assert_eq!(outcome.assignment.num_stages(), 3);
        assert_eq!(outcome.assignment.counts(), vec![4, 4, 4]);
    }

    #[test]
    fn stale_layer_count_restarts_from_uniform_instead_of_indexing_oob() {
        // Regression: the fast path used to accept any current assignment
        // with a matching *stage* count.  After a layer-count change (e.g.
        // fully released layers dropped from the profile) the stale
        // 16-layer assignment would index `weights[layer]` out of bounds
        // for the 10-layer request — or mis-balance if it happened to fit.
        let loads = loads_from_times(&(0..10).map(|i| 1.0 + i as f64 * 0.3).collect::<Vec<_>>());
        let stale = StageAssignment::uniform(16, 4);
        let request = BalanceRequest {
            current: Some(&stale),
            ..BalanceRequest::new(&loads, 4, u64::MAX, BalanceObjective::ByTime)
        };
        let outcome = DiffusionBalancer::new().rebalance(&request);
        assert_eq!(outcome.assignment.num_layers(), 10);
        assert_eq!(outcome.assignment.num_stages(), 4);
        // And it matches a run that never saw the stale assignment.
        let fresh = DiffusionBalancer::new().rebalance(&BalanceRequest::new(
            &loads,
            4,
            u64::MAX,
            BalanceObjective::ByTime,
        ));
        assert_eq!(outcome.assignment, fresh.assignment);
    }

    #[test]
    fn incremental_potential_matches_full_recompute_bit_for_bit() {
        // Integer-valued f64 loads keep every sum/difference exact, so the
        // O(p) delta and the O(p²) recompute must agree to the last bit.
        let loads: Vec<f64> = (0..24).map(|i| f64::from(((i * 37) % 17) + 1)).collect();
        let phi = potential(&loads);
        for from in 0..loads.len() {
            for to in 0..loads.len() {
                if from == to {
                    continue;
                }
                for w in [1.0f64, 2.0, 5.0, 13.0] {
                    let incremental = potential_after_asymmetric_move(&loads, phi, from, to, w, w);
                    let mut moved = loads.clone();
                    moved[from] -= w;
                    moved[to] += w;
                    let full = potential(&moved);
                    assert_eq!(
                        incremental.to_bits(),
                        full.to_bits(),
                        "from {from} to {to} w {w}: {incremental} vs {full}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_and_full_paths_produce_identical_outcomes() {
        // The toggle only changes how candidate φ values are computed; the
        // committed moves — and hence the final assignment, round count,
        // and bottleneck — must be identical on realistic (non-dyadic)
        // workloads.
        for seed in 0..6u64 {
            let times: Vec<f64> = (0..40)
                .map(|i| 0.25 + (((i as u64 + 1) * (seed + 3) * 2654435761) % 997) as f64 / 300.0)
                .collect();
            let loads = loads_from_times(&times);
            let current = StageAssignment::uniform(40, 8);
            let request = BalanceRequest {
                current: Some(&current),
                ..BalanceRequest::new(&loads, 8, u64::MAX, BalanceObjective::ByTime)
            };
            let incremental = DiffusionBalancer::new().rebalance(&request);
            let full = DiffusionBalancer {
                use_incremental_potential: false,
            }
            .rebalance(&request);
            assert_eq!(incremental.assignment, full.assignment, "seed {seed}");
            assert_eq!(incremental.rounds, full.rounds);
            assert_eq!(incremental.bottleneck.to_bits(), full.bottleneck.to_bits());
        }
    }

    #[test]
    fn balancer_name_is_stable() {
        assert_eq!(DiffusionBalancer::new().name(), "diffusion");
    }

    #[test]
    fn slow_stages_end_up_with_fewer_layers() {
        let loads = loads_from_times(&[1.0; 24]);
        let current = StageAssignment::uniform(24, 4);
        // Stage 3 runs at a quarter speed: diffusion should drain it.
        let request = BalanceRequest {
            current: Some(&current),
            stage_speeds: vec![1.0, 1.0, 1.0, 0.25],
            ..BalanceRequest::new(&loads, 4, u64::MAX, BalanceObjective::ByTime)
        };
        let outcome = DiffusionBalancer::new().rebalance(&request);
        let counts = outcome.assignment.counts();
        assert_eq!(counts.iter().sum::<usize>(), 24);
        assert!(counts[3] < counts[0], "counts {counts:?}");
        // The time bottleneck beats the uniform split's slow stage (6
        // layers / 0.25 = 24).
        assert!(
            outcome.bottleneck < 24.0,
            "bottleneck {}",
            outcome.bottleneck
        );
    }

    #[test]
    fn per_stage_capacities_gate_diffusion_moves() {
        // Stage 1 is fast but tiny: diffusion may not overfill it.
        let mut loads = loads_from_times(&[1.0; 8]);
        for l in loads.iter_mut() {
            l.static_bytes = 1_000;
            l.activation_bytes = 0;
        }
        let current = StageAssignment::uniform(8, 2);
        let request = BalanceRequest {
            current: Some(&current),
            inflight: vec![0, 0],
            stage_speeds: vec![1.0, 8.0],
            stage_capacities: vec![u64::MAX, 5_000],
            ..BalanceRequest::new(&loads, 2, u64::MAX, BalanceObjective::ByTime)
        };
        let outcome = DiffusionBalancer::new().rebalance(&request);
        let counts = outcome.assignment.counts();
        assert!(counts[1] <= 5, "counts {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 8);
    }
}
