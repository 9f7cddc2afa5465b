//! The profiling step of DynMo (paper §3.1 and §4).
//!
//! "The first iteration after each dynamism operation is used for profiling
//! the time it takes to execute each layer in the altered model and the
//! memory usage of all workers."  In the paper this is implemented by
//! extending Megatron's built-in timers and reading PyTorch CUDA memory
//! statistics; here the same information is derived from the analytical
//! cost/memory models scaled by the dynamism engine's current
//! [`LoadUpdate`].  The result is the per-layer [`LayerLoad`] vector that
//! both balancer families and the re-packer consume.

use dynmo_dynamics::LoadUpdate;
use dynmo_model::{DeviceSpec, Model};
use dynmo_pipeline::LayerLoad;

/// The simulated cost of profiling itself.  The paper reuses a regular
/// training iteration for measurement (Megatron's built-in timers plus
/// PyTorch CUDA memory statistics), so the only extra work is reading the
/// timers and memory counters for every layer — a per-layer constant, not
/// an extra pass over the model.
pub fn profiling_cost(loads: &[LayerLoad]) -> f64 {
    const TIMER_READOUT_PER_LAYER: f64 = 50.0e-6;
    loads.len() as f64 * TIMER_READOUT_PER_LAYER
}

/// Profile every layer of `model` under the dynamism state `update`,
/// converting FLOPs to time on `device`.
pub fn profile_layers(model: &Model, update: &LoadUpdate, device: &DeviceSpec) -> Vec<LayerLoad> {
    assert_eq!(
        update.num_layers(),
        model.num_layers(),
        "LoadUpdate must cover every model layer"
    );
    let memory = model.memory_model();
    model
        .layers()
        .iter()
        .map(|layer| {
            let l = layer.id;
            let fwd_time = device.compute_time(layer.flops_fwd * update.fwd_scale[l]);
            let bwd_time = if update.bwd_scale[l] > 0.0 {
                device.compute_time(layer.flops_bwd * update.bwd_scale[l])
            } else {
                0.0
            };
            let retention = update.param_retention[l];
            let param_count = (layer.param_count as f64 * retention) as u64;
            let dense_static = memory.layer_static_bytes(layer, 1.0);
            let static_bytes = (dense_static as f64 * update.memory_scale[l]) as u64;
            let activation_bytes = memory.layer_activation_bytes(layer);
            // Migration moves weights + optimizer state (+ sparse indices),
            // i.e. the static footprint, not the activations.
            let migration_bytes = static_bytes;
            LayerLoad {
                layer_id: l,
                fwd_time,
                bwd_time,
                param_count,
                static_bytes,
                activation_bytes,
                migration_bytes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;

    fn gpt() -> Model {
        Model::from_preset(ModelPreset::Gpt { layers: 24 })
    }

    #[test]
    fn identity_update_reproduces_baseline_costs() {
        let model = gpt();
        let device = DeviceSpec::h100_sxm5();
        let loads = profile_layers(&model, &LoadUpdate::identity(model.num_layers()), &device);
        assert_eq!(loads.len(), model.num_layers());
        for (load, layer) in loads.iter().zip(model.layers().iter()) {
            assert_eq!(load.layer_id, layer.id);
            assert_eq!(load.param_count, layer.param_count);
            assert!((load.fwd_time - device.compute_time(layer.flops_fwd)).abs() < 1e-12);
            assert!((load.bwd_time - device.compute_time(layer.flops_bwd)).abs() < 1e-12);
            assert!(load.static_bytes > 0);
            assert!(load.activation_bytes > 0);
        }
    }

    #[test]
    fn scales_are_applied_per_layer() {
        let model = gpt();
        let device = DeviceSpec::h100_sxm5();
        let mut update = LoadUpdate::identity(model.num_layers());
        let target = model.transformer_layer_ids()[3];
        update.fwd_scale[target] = 0.5;
        update.bwd_scale[target] = 0.0; // e.g. frozen
        update.memory_scale[target] = 0.25;
        update.param_retention[target] = 0.25;
        let loads = profile_layers(&model, &update, &device);
        let baseline = profile_layers(&model, &LoadUpdate::identity(model.num_layers()), &device);
        assert!(loads[target].fwd_time < baseline[target].fwd_time);
        assert_eq!(loads[target].bwd_time, 0.0);
        assert!(loads[target].static_bytes < baseline[target].static_bytes);
        assert!(loads[target].param_count < baseline[target].param_count);
        // Other layers are untouched.
        let other = model.transformer_layer_ids()[5];
        assert_eq!(loads[other], baseline[other]);
    }

    #[test]
    fn profiling_cost_is_a_cheap_timer_readout() {
        let model = gpt();
        let loads = profile_layers(
            &model,
            &LoadUpdate::identity(model.num_layers()),
            &DeviceSpec::h100_sxm5(),
        );
        let cost = profiling_cost(&loads);
        // Reading out per-layer timers is far cheaper than executing the
        // model: well under a millisecond per layer, and much smaller than
        // one forward+backward pass.
        let full_pass: f64 = loads.iter().map(|l| l.fwd_time + l.bwd_time).sum();
        assert!(cost > 0.0);
        assert!(cost < full_pass);
        assert!(cost < 1.0e-3 * loads.len() as f64);
    }

    #[test]
    #[should_panic(expected = "every model layer")]
    fn mismatched_update_length_panics() {
        let model = gpt();
        let _ = profile_layers(&model, &LoadUpdate::identity(3), &DeviceSpec::h100_sxm5());
    }

    #[test]
    fn slower_device_produces_longer_times() {
        let model = gpt();
        let update = LoadUpdate::identity(model.num_layers());
        let h100 = profile_layers(&model, &update, &DeviceSpec::h100_sxm5());
        let a100 = profile_layers(&model, &update, &DeviceSpec::a100_sxm4());
        assert!(a100[1].fwd_time > h100[1].fwd_time);
    }
}
