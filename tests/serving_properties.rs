//! Property-based tests (proptest) for the continuous-batching serving
//! subsystem: under random arrival traces, random prompt/output lengths,
//! random replica counts and random early-exit dynamism, the scheduler
//! conserves requests and tokens (no drops, no duplicates), keeps every
//! request's lifecycle timestamps monotone, and never overdraws the KV
//! budget.

use dynmo::dynamics::{DynamismEngine, EarlyExitEngine, EarlyExitMethod};
use dynmo::model::{Model, ModelPreset};
use dynmo::serve::{serve, RequestTrace, ServingConfig};
use proptest::prelude::*;

/// Build a replayed trace from raw proptest-generated material: arrival
/// *gaps* (so arrivals are sorted by construction) plus token lengths.
fn trace_from_parts(gaps: &[f64], prompts: &[usize], outputs: &[usize]) -> RequestTrace {
    let mut t = 0.0f64;
    let requests: Vec<(f64, usize, usize)> = gaps
        .iter()
        .zip(prompts.iter().zip(outputs.iter()))
        .map(|(&gap, (&p, &o))| {
            t += gap;
            (t, p, o)
        })
        .collect();
    RequestTrace::replayed("proptest", requests).expect("construction is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Requests and tokens are conserved, timestamps are monotone, and the
    /// KV budget holds — for any trace, with and without early exit.
    #[test]
    fn the_scheduler_conserves_requests_and_tokens(
        gaps in prop::collection::vec(0.0f64..2.0, 5..40),
        prompts in prop::collection::vec(1usize..600, 40..41),
        outputs in prop::collection::vec(1usize..150, 40..41),
        replicas in 1usize..3,
        early_exit_seed in 0u64..1000,
    ) {
        let n = gaps.len();
        let trace = trace_from_parts(&gaps, &prompts[..n], &outputs[..n]);
        let config = ServingConfig::small(replicas);

        // Random early-exit retention on odd seeds; dense on even.
        let mut engine_storage;
        let engine: Option<&mut dyn DynamismEngine> = if early_exit_seed % 2 == 1 {
            let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
            engine_storage = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, early_exit_seed);
            Some(&mut engine_storage)
        } else {
            None
        };
        let report = serve(config, &trace, engine).expect("the deployment serves the trace");

        // No drops, no duplicates: every trace id completes exactly once.
        prop_assert_eq!(report.completed, trace.num_requests());
        prop_assert_eq!(report.records.len(), trace.num_requests());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..trace.num_requests() as u64).collect::<Vec<_>>());

        // Token conservation: exactly the requested prompt and output
        // tokens were processed — early exit shortens per-token *work*,
        // never the token count.
        let requested: u64 = trace.requests.iter().map(|r| r.output_tokens as u64).sum();
        prop_assert_eq!(report.total_output_tokens, requested);
        prop_assert_eq!(
            report.total_prefill_tokens + report.total_output_tokens,
            trace.total_tokens()
        );

        // Per-request lifecycle monotonicity.
        for record in &report.records {
            let original = trace.requests[record.id as usize];
            prop_assert_eq!(record.prompt_tokens, original.prompt_tokens);
            prop_assert_eq!(record.output_tokens, original.output_tokens);
            prop_assert!(record.admitted >= original.arrival);
            prop_assert!(record.first_token > record.admitted);
            prop_assert!(record.completion >= record.first_token);
            prop_assert!(record.completion <= report.makespan + 1e-9);
        }

        // Completion times are monotone in completion order (records are
        // appended as steps finish, and step end times never go backward
        // on a replica; across replicas the merged order may interleave,
        // but each replica's subsequence must be non-decreasing).
        for replica in 0..replicas {
            let times: Vec<f64> = report
                .records
                .iter()
                .filter(|r| r.replica == replica)
                .map(|r| r.completion)
                .collect();
            for w in times.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-9);
            }
        }

        // The KV budget was never overdrawn.
        prop_assert!(report.peak_kv_tokens <= report.kv_capacity_tokens);
    }

    /// Serving is deterministic: the same trace, config and dynamism seed
    /// reproduce the identical report (the sweep's fixed-vs-elastic
    /// comparisons depend on this).
    #[test]
    fn serving_is_deterministic(
        gaps in prop::collection::vec(0.0f64..1.0, 5..20),
        prompts in prop::collection::vec(1usize..300, 20..21),
        outputs in prop::collection::vec(1usize..80, 20..21),
    ) {
        let n = gaps.len();
        let trace = trace_from_parts(&gaps, &prompts[..n], &outputs[..n]);
        let run = || {
            let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
            let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 5);
            serve(ServingConfig::small(1), &trace, Some(&mut engine)).expect("serves")
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }
}
