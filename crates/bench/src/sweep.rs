//! Parallel pipeline-schedule sweeps.
//!
//! The event-driven simulator makes large `(schedule × stages ×
//! micro-batches × imbalance)` grids cheap; this module fans such a grid
//! across threads with rayon and collects one flat JSON artifact
//! (`results/pipeline_sweep.json`) covering all four schedules, so the
//! bubble/idleness landscape behind the paper's Figure 1 can be regenerated
//! at any scale in one command (`cargo run -p dynmo-bench --bin
//! pipeline_sweep`).

use dynmo_core::trainer::simulate_for;
use dynmo_model::{ClusterConfig, DeviceSpec, ModelConfig};
use dynmo_pipeline::load::StageLoad;
use dynmo_pipeline::{CommCostModel, PipelineSimulator, ScheduleKind};
use dynmo_telemetry::Recorder;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::scale::ExperimentScale;

/// The grid a sweep covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Pipeline schedules to compare.
    pub schedules: Vec<ScheduleKind>,
    /// Pipeline depths (`p`).
    pub stage_counts: Vec<usize>,
    /// Micro-batch counts (`m`).
    pub microbatch_counts: Vec<usize>,
    /// Slow-stage factors: the last stage's compute is scaled by `1 + γ`,
    /// emulating the imbalance a dynamism event concentrates on one worker
    /// (`γ = 0` is the balanced pipeline).
    pub imbalance_factors: Vec<f64>,
    /// GPT layer count the synthetic stage loads are derived from.
    pub gpt_layers: usize,
}

impl SweepConfig {
    /// The sweep grid for a given experiment scale.  All scales cover the
    /// four schedules; larger scales widen the `(p, m, γ)` axes up to the
    /// `p = 32, m = 512` corner.
    pub fn for_scale(scale: ExperimentScale) -> Self {
        let (stage_counts, microbatch_counts, imbalance_factors) = match scale {
            ExperimentScale::Smoke => (vec![2, 4, 8], vec![8, 32], vec![0.0, 0.5]),
            ExperimentScale::Default => (
                vec![4, 8, 16, 32],
                vec![16, 64, 128],
                vec![0.0, 0.25, 0.5, 1.0],
            ),
            ExperimentScale::Paper => (
                vec![4, 8, 16, 24, 32],
                vec![16, 64, 128, 256, 512],
                vec![0.0, 0.25, 0.5, 1.0, 2.0],
            ),
        };
        SweepConfig {
            schedules: ScheduleKind::ALL.to_vec(),
            stage_counts,
            microbatch_counts,
            imbalance_factors,
            gpt_layers: 32,
        }
    }

    /// The cartesian product of the grid's axes.
    pub fn cells(&self) -> Vec<SweepCase> {
        let mut cases = Vec::new();
        for &schedule in &self.schedules {
            for &stages in &self.stage_counts {
                for &microbatches in &self.microbatch_counts {
                    for &imbalance in &self.imbalance_factors {
                        cases.push(SweepCase {
                            schedule,
                            stages,
                            microbatches,
                            imbalance,
                        });
                    }
                }
            }
        }
        cases
    }
}

/// One point of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepCase {
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Pipeline depth.
    pub stages: usize,
    /// Micro-batches per iteration.
    pub microbatches: usize,
    /// Slow-stage factor γ (last stage scaled by `1 + γ`).
    pub imbalance: f64,
}

/// The simulated outcome of one sweep point — one row of the JSON artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Schedule label (see [`ScheduleKind::label`]).
    pub schedule: String,
    /// Pipeline depth.
    pub stages: usize,
    /// Micro-batches per iteration.
    pub microbatches: usize,
    /// Requested slow-stage factor γ.
    pub imbalance_factor: f64,
    /// Iteration makespan in seconds.
    pub makespan: f64,
    /// Idle time relative to busy+idle, aggregated over the pipeline.
    pub bubble_ratio: f64,
    /// Average per-worker idleness fraction (Figure 1's y-axis).
    pub average_idleness: f64,
    /// The measured Eq. 2 imbalance of the stage compute times.
    pub load_imbalance: f64,
    /// Single-replica training throughput in tokens/second.
    pub tokens_per_second: f64,
}

/// Synthetic per-stage loads for a GPT model spread evenly over `stages`
/// workers, with the last stage slowed by `1 + imbalance`.
fn sweep_stage_loads(model: &ModelConfig, stages: usize, imbalance: f64) -> Vec<StageLoad> {
    let layers_per_stage = (model.num_layers / stages).max(1);
    let base_fwd = 2.0e-3 * layers_per_stage as f64;
    (0..stages)
        .map(|s| {
            let slow = if s == stages - 1 {
                1.0 + imbalance
            } else {
                1.0
            };
            StageLoad {
                fwd_time: base_fwd * slow,
                bwd_time: 2.0 * base_fwd * slow,
                param_count: 12 * (model.hidden_size as u64).pow(2) * layers_per_stage as u64,
                static_bytes: 0,
                activation_bytes: 0,
                // Dense model: every boundary carries the flat
                // residual-stream tensor.
                boundary_bytes: 0,
                num_layers: layers_per_stage,
            }
        })
        .collect()
}

/// Simulate one sweep point.
pub fn run_cell(gpt_layers: usize, case: &SweepCase) -> SweepCell {
    run_cell_recorded(gpt_layers, case, &dynmo_telemetry::NullRecorder, 0)
}

/// Simulate one sweep point, recording the iteration's per-rank timeline
/// into `recorder` under group `group` (one Perfetto process per cell).
/// The returned cell is byte-identical to [`run_cell`]'s — the recorder
/// observes the simulation, it never perturbs it.
pub fn run_cell_recorded(
    gpt_layers: usize,
    case: &SweepCase,
    recorder: &dyn Recorder,
    group: usize,
) -> SweepCell {
    let model = ModelConfig::gpt(gpt_layers);
    let cluster = ClusterConfig::homogeneous(4, case.stages, 1, DeviceSpec::h100_sxm5());
    let loads = sweep_stage_loads(&model, case.stages, case.imbalance);
    let mut simulator = PipelineSimulator::new(CommCostModel::new(cluster), case.schedule);
    let report = simulate_for(recorder, &mut simulator, &model, &loads, case.microbatches);
    recorder.record_iteration(group, 0, 0.0, &report);
    let tokens = (case.microbatches * model.micro_batch_size * model.seq_len) as u64;
    SweepCell {
        schedule: case.schedule.label(),
        stages: case.stages,
        microbatches: case.microbatches,
        imbalance_factor: case.imbalance,
        makespan: report.makespan,
        bubble_ratio: report.bubble_ratio(),
        average_idleness: report.average_idleness(),
        load_imbalance: report.load_imbalance(),
        tokens_per_second: report.tokens_per_second(tokens),
    }
}

/// Run the whole grid, fanning the cells across rayon's thread pool, and
/// return the rows in grid order (schedule-major, matching
/// [`SweepConfig::cells`]).
pub fn run_sweep(config: &SweepConfig) -> Vec<SweepCell> {
    let cases = config.cells();
    cases
        .par_iter()
        .map(|case| run_cell(config.gpt_layers, case))
        .collect()
}

/// [`run_sweep`] with a telemetry recorder attached: cell `i` of the grid
/// records its timeline under group `i`.  The rows come back in the same
/// grid order with the same bytes as the unrecorded sweep.
pub fn run_sweep_recorded(config: &SweepConfig, recorder: &dyn Recorder) -> Vec<SweepCell> {
    let cases = config.cells();
    cases
        .par_iter()
        .enumerate()
        .map(|(group, case)| run_cell_recorded(config.gpt_layers, case, recorder, group))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_covers_all_four_schedules() {
        let config = SweepConfig::for_scale(ExperimentScale::Smoke);
        let cells = run_sweep(&config);
        assert_eq!(
            cells.len(),
            config.schedules.len()
                * config.stage_counts.len()
                * config.microbatch_counts.len()
                * config.imbalance_factors.len()
        );
        let schedules: std::collections::HashSet<&str> =
            cells.iter().map(|c| c.schedule.as_str()).collect();
        assert_eq!(schedules.len(), 4);
        for cell in &cells {
            assert!(cell.makespan > 0.0);
            assert!(cell.bubble_ratio >= 0.0 && cell.bubble_ratio < 1.0);
            assert!(cell.tokens_per_second > 0.0);
        }
    }

    #[test]
    fn imbalance_raises_the_bubble_within_a_schedule() {
        let balanced = run_cell(
            32,
            &SweepCase {
                schedule: ScheduleKind::OneFOneB,
                stages: 8,
                microbatches: 32,
                imbalance: 0.0,
            },
        );
        let skewed = run_cell(
            32,
            &SweepCase {
                schedule: ScheduleKind::OneFOneB,
                stages: 8,
                microbatches: 32,
                imbalance: 1.0,
            },
        );
        assert!(skewed.bubble_ratio > balanced.bubble_ratio);
        assert!(skewed.load_imbalance > balanced.load_imbalance);
        assert!(skewed.tokens_per_second < balanced.tokens_per_second);
    }

    #[test]
    fn better_schedules_keep_their_ordering_on_balanced_grids() {
        let cell = |schedule| {
            run_cell(
                32,
                &SweepCase {
                    schedule,
                    stages: 8,
                    microbatches: 64,
                    imbalance: 0.0,
                },
            )
        };
        // GPipe and 1F1B share the same (p−1)/(m+p−1) bubble asymptotics
        // (they differ in memory, and under α–β link costs either can edge
        // out the other), so no ordering is asserted between them; the
        // interleaved and zero-bubble schedules must strictly beat both.
        let gpipe = cell(ScheduleKind::GPipe);
        let fb = cell(ScheduleKind::OneFOneB);
        let inter = cell(ScheduleKind::Interleaved1F1B { virtual_stages: 2 });
        let zb = cell(ScheduleKind::ZeroBubbleH1);
        for better in [&inter, &zb] {
            assert!(better.bubble_ratio < fb.bubble_ratio);
            assert!(better.bubble_ratio < gpipe.bubble_ratio);
        }
    }
}
