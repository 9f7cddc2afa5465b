//! Property tests: `checkpoint → serialize → restore` preserves trainer
//! state bit-for-bit, through the JSON text and the in-memory store.

use std::collections::BTreeMap;

use dynmo_pipeline::StageAssignment;
use dynmo_resilience::{
    Checkpoint, CheckpointStore, LayerState, MemoryCheckpointStore, TrainerState,
};
use proptest::prelude::*;

/// Build a structurally valid state from free-form generated inputs.
fn build_state(
    iteration: u64,
    stages: usize,
    per_layer: &[Vec<f32>],
    mask_seed: u64,
    metrics: &[f64],
) -> TrainerState {
    let num_layers = per_layer.len().max(1);
    let layers: Vec<LayerState> = (0..num_layers)
        .map(|layer_id| {
            let weights = per_layer.get(layer_id).cloned().unwrap_or_default();
            let optimizer: Vec<f32> = weights.iter().map(|w| w * -0.5 + 0.125).collect();
            let pruning_mask: Vec<bool> = (0..weights.len())
                .map(|i| (mask_seed >> (i % 64)) & 1 == 0)
                .collect();
            LayerState {
                layer_id,
                weights,
                optimizer,
                pruning_mask,
                frozen: layer_id % 3 == 0,
                rng_state: mask_seed.wrapping_mul(layer_id as u64 + 1),
            }
        })
        .collect();
    let mut named = BTreeMap::new();
    for (i, &value) in metrics.iter().enumerate() {
        named.insert(format!("metric_{i}"), value);
    }
    TrainerState {
        iteration,
        assignment: StageAssignment::uniform(num_layers, stages),
        layers,
        metrics: named,
        engine: None,
    }
}

/// Equality plus explicit bit-level comparison of every float, so the
/// "bit-for-bit" claim does not hide behind `PartialEq` edge cases
/// (e.g. `-0.0 == 0.0`).
fn assert_bit_identical(a: &TrainerState, b: &TrainerState) {
    assert_eq!(a, b);
    for (la, lb) in a.layers.iter().zip(&b.layers) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&la.weights), bits(&lb.weights));
        assert_eq!(bits(&la.optimizer), bits(&lb.optimizer));
        assert_eq!(la.rng_state, lb.rng_state);
    }
    for (ka, va) in &a.metrics {
        assert_eq!(va.to_bits(), b.metrics[ka].to_bits(), "metric {ka}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_store_round_trip_is_bit_for_bit(
        iteration in 0u64..1_000_000,
        stages in 1usize..9,
        flat in prop::collection::vec(-1.0e6f32..1.0e6, 8..96),
        layer_count in 1usize..13,
        mask_seed in 0u64..u64::MAX,
        metrics in prop::collection::vec(-1.0e9f64..1.0e9, 0..5),
    ) {
        let chunk = (flat.len() / layer_count).max(1);
        let per_layer: Vec<Vec<f32>> = (0..layer_count)
            .map(|l| flat.iter().copied().skip(l * chunk).take(chunk).collect())
            .collect();
        let state = build_state(iteration, stages, &per_layer, mask_seed, &metrics);
        let checkpoint = Checkpoint::new(state.clone()).unwrap();

        let mut store = MemoryCheckpointStore::new();
        store.save(&checkpoint).unwrap();
        let restored = store.load(iteration).unwrap();
        let restored_state = restored.verify().unwrap();
        assert_bit_identical(&state, restored_state);

        // The latest() path must agree with the direct load.
        let latest = store.latest().unwrap().unwrap();
        assert_bit_identical(&state, latest.verify().unwrap());
    }

    #[test]
    fn json_text_round_trip_is_bit_for_bit(
        iteration in 0u64..1_000_000,
        stages in 1usize..5,
        weights in prop::collection::vec(-1.0e12f32..1.0e12, 1..48),
        mask_seed in 0u64..u64::MAX,
    ) {
        let state = build_state(iteration, stages, &[weights], mask_seed, &[0.25]);
        let checkpoint = Checkpoint::new(state.clone()).unwrap();
        let text = checkpoint.to_json().unwrap();
        let back = Checkpoint::from_json(&text).unwrap();
        assert_bit_identical(&state, back.verify().unwrap());
    }
}

/// Characters swapped into checkpoint text: JSON structure, escapes,
/// number parts, a control character and multi-byte UTF-8.
const SWAPS: &str = "\"\\{}[],:0-ex \u{0}\u{e9}\u{20ac}\u{1f680}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Damaged checkpoint text never panics the parser: cut at any char
    /// boundary it is rejected by both `parse_value` and
    /// `Checkpoint::from_json`, and with one char swapped it is handled
    /// either way (some swaps, e.g. inside a string, still spell valid
    /// JSON).  An edited layout is rejected by `from_json` when it has no
    /// stage or its counts overflow, and by `verify` when it covers a
    /// different number of layers than the state holds.
    #[test]
    fn damaged_checkpoint_json_is_an_error_not_a_panic(
        weights in prop::collection::vec(-1.0e6f32..1.0e6, 1..16),
        cut in 0usize..1 << 20,
        swap_at in 0usize..1 << 20,
        swap in 0usize..SWAPS.chars().count(),
        counts in prop::collection::vec(0usize..3, 0..5),
        overflow in 0usize..2,
    ) {
        let mut state = build_state(7, 2, &[weights], 0x5eed, &[0.5]);
        // A key with escapes and multi-byte characters.
        state.metrics.insert("loss \"ema\"\t\u{e9}\u{2014}\u{1f680}\\".to_string(), 1.5);
        let text = Checkpoint::new(state).unwrap().to_json().unwrap();
        let chars: Vec<(usize, char)> = text.char_indices().collect();

        let truncated = &text[..chars[cut % chars.len()].0];
        prop_assert!(serde_json::parse_value(truncated).is_err(), "{truncated:?}");
        prop_assert!(Checkpoint::from_json(truncated).is_err(), "{truncated:?}");

        let (at, original) = chars[swap_at % chars.len()];
        let swapped = SWAPS.chars().nth(swap).unwrap();
        let garbled = format!("{}{swapped}{}", &text[..at], &text[at + original.len_utf8()..]);
        let _ = serde_json::parse_value(&garbled);
        let _ = Checkpoint::from_json(&garbled);

        // The state holds one layer; swap in another count list, whose
        // total overflows when `overflow` is set.
        let mut layout: Vec<String> = counts.iter().map(usize::to_string).collect();
        if overflow == 1 {
            layout.extend([usize::MAX.to_string(), "1".to_string()]);
        }
        let rejected = layout.is_empty() || overflow == 1;
        let open = text.find("\"counts\"").and_then(|at| text[at..].find('[').map(|i| at + i));
        let open = open.expect("the layout serializes its counts");
        let close = open + text[open..].find(']').expect("the count list closes");
        let edited = format!("{}[{}]{}", &text[..open], layout.join(", "), &text[close + 1..]);
        match Checkpoint::from_json(&edited) {
            Ok(checkpoint) => {
                prop_assert!(!rejected, "{edited}");
                let total: usize = counts.iter().sum();
                prop_assert!(total == 1 || checkpoint.verify().is_err(), "{edited}");
            }
            Err(_) => prop_assert!(rejected, "{edited}"),
        }
    }
}

#[test]
fn awkward_values_survive_a_store_round_trip_bit_for_bit() {
    let mut store = MemoryCheckpointStore::new();
    // Awkward values on purpose: subnormal-adjacent, huge, tiny, negative.
    let weights = vec![1.1754944e-38f32, -3.4e38, 1.0e-7, -0.015625, 123456.78];
    let state = build_state(
        77,
        3,
        &[weights.clone(), weights],
        0xdead_beef,
        &[1.0 / 3.0],
    );
    let checkpoint = Checkpoint::new(state.clone()).unwrap();
    store.save(&checkpoint).unwrap();
    let restored = store.load(77).unwrap();
    assert_bit_identical(&state, restored.verify().unwrap());
}
