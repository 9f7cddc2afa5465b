//! The elastic training job a fleet controller shrinks and grows.
//!
//! [`ElasticTrainer`] holds one live `dynmo_core` [`Trainer`] for the whole
//! job and advances it in bounded chunks ([`Trainer::advance_to`]) on a
//! simulated clock, so the job can be re-scaled at any chunk boundary.
//! Every re-scale ([`Trainer::rescale`]) is priced as the checkpoint write
//! of the full boundary snapshot ([`CheckpointCostModel::write_cost`]): the
//! world is reshaped in place and training continues from the exact
//! boundary iteration — zero iterations are replayed, so the per-iteration
//! trajectory outside the re-scale instant is bit-identical to a run that
//! was never disturbed.

use dynmo_core::{
    BalanceObjective, PartitionBalancer, RebalanceController, RebalancePolicy, Trainer,
    TrainerConfig, TrainingReport,
};
use dynmo_dynamics::DynamismEngine;
use dynmo_model::{ClusterConfig, DeviceSpec, Model, ModelPreset};
use dynmo_pipeline::ScheduleKind;
use dynmo_resilience::CheckpointCostModel;

/// Static description of the elastic training job.
#[derive(Debug, Clone)]
pub struct ElasticTrainerSpec {
    /// Model being trained.
    pub preset: ModelPreset,
    /// Accelerator every training worker runs on.
    pub device: DeviceSpec,
    /// GPUs per node (link locality of the comm model).
    pub gpus_per_node: usize,
    /// Iterations the job runs to completion.
    pub total_iterations: u64,
    /// Chunk length in iterations: the trainer only observes the outside
    /// world (and can only be re-scaled) at multiples of this.
    pub segment_iterations: u64,
    /// Micro-batches per pipeline per iteration.
    pub num_microbatches: usize,
    /// Fraction of the gradient all-reduce hidden behind backward.
    pub allreduce_overlap: f64,
    /// The job refuses to shrink below this many pipeline workers.
    pub min_workers: usize,
    /// Prices the checkpoint write charged on every re-scale.
    pub cost_model: CheckpointCostModel,
}

impl ElasticTrainerSpec {
    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_iterations == 0 {
            return Err("total_iterations must be positive".into());
        }
        if self.segment_iterations == 0 {
            return Err("segment_iterations must be positive".into());
        }
        if self.num_microbatches == 0 {
            return Err("num_microbatches must be positive".into());
        }
        if self.min_workers == 0 {
            return Err("min_workers must be positive".into());
        }
        if self.gpus_per_node == 0 {
            return Err("gpus_per_node must be positive".into());
        }
        if !self.allreduce_overlap.is_finite() || !(0.0..=1.0).contains(&self.allreduce_overlap) {
            return Err("allreduce_overlap must be in [0, 1]".into());
        }
        Ok(())
    }

    fn cluster(&self, world: usize) -> ClusterConfig {
        ClusterConfig::homogeneous(self.gpus_per_node, world, 1, self.device)
    }

    /// A trainer that has not started, on `world` pipeline stages.
    fn trainer(&self, world: usize) -> Trainer {
        let config = TrainerConfig {
            cluster: self.cluster(world),
            schedule: ScheduleKind::OneFOneB,
            num_iterations: self.total_iterations,
            num_microbatches: self.num_microbatches,
            allreduce_overlap: self.allreduce_overlap,
        };
        let controller = RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        );
        Trainer::new(Model::from_preset(self.preset), config, controller)
    }
}

/// An elastic training job advancing chunk-by-chunk under fleet control.
pub struct ElasticTrainer {
    spec: ElasticTrainerSpec,
    engine: Box<dyn DynamismEngine>,
    /// The job's one trainer: its live run is the job's progress, clock
    /// (every second modeled, so the controller schedules against a pure
    /// function of the configuration) and re-scale ledger.
    trainer: Trainer,
    /// `(iteration, trajectory_checksum)` at every chunk boundary — the
    /// pinning evidence that fleet interference never corrupted the
    /// trajectory (compare against an undisturbed run's history).
    checksum_history: Vec<(u64, u64)>,
}

impl ElasticTrainer {
    /// Create the job on `initial_workers` pipeline stages.  The dynamism
    /// `engine` drives the job's one trainer across every chunk, so chunked
    /// execution is bit-identical to one uninterrupted run.
    pub fn new(
        spec: ElasticTrainerSpec,
        engine: Box<dyn DynamismEngine>,
        initial_workers: usize,
    ) -> Result<Self, String> {
        spec.validate()?;
        if initial_workers < spec.min_workers {
            return Err(format!(
                "initial world {initial_workers} below the job's floor of {} workers",
                spec.min_workers
            ));
        }
        Ok(ElasticTrainer {
            trainer: spec.trainer(initial_workers),
            spec,
            engine,
            checksum_history: Vec::new(),
        })
    }

    /// Run whole chunks until the simulated clock reaches `horizon` (or the
    /// job completes).  The chunk in flight when the horizon passes still
    /// finishes — the trainer only yields at boundaries — so on return
    /// `sim_time() >= horizon` unless the job finished earlier.
    pub fn advance_to(&mut self, horizon: f64) -> Result<(), String> {
        while !self.finished() && self.sim_time() < horizon {
            let until = (self.iterations_done() + self.spec.segment_iterations)
                .min(self.spec.total_iterations);
            let report = self.trainer.advance_to(self.engine.as_mut(), until)?;
            self.checksum_history
                .push((until, report.trajectory_checksum));
        }
        Ok(())
    }

    /// Re-scale the job to `new_world` pipeline stages at the current chunk
    /// boundary, returning the charged checkpoint-write seconds (0 when the
    /// world is unchanged or training has not started).  The next chunk
    /// continues from the boundary iteration on the new world.
    pub fn rescale(&mut self, new_world: usize) -> Result<f64, String> {
        if new_world < self.spec.min_workers {
            return Err(format!(
                "cannot shrink to {new_world} workers: job floor is {}",
                self.spec.min_workers
            ));
        }
        if new_world == self.world() {
            return Ok(0.0);
        }
        if self.iterations_done() == 0 {
            // Nothing ran yet: the initial world is still free to choose.
            self.trainer = self.spec.trainer(new_world);
            return Ok(0.0);
        }
        let snapshot = self.trainer.snapshot(self.engine.as_ref())?;
        let cost = self.spec.cost_model.write_cost(snapshot.size_bytes());
        self.trainer.rescale(self.spec.cluster(new_world), cost)?;
        Ok(cost)
    }

    /// Whether every iteration has run.
    pub fn finished(&self) -> bool {
        self.iterations_done() >= self.spec.total_iterations
    }

    /// Current pipeline world size.
    pub fn world(&self) -> usize {
        self.trainer.config().cluster.pipeline_stages
    }

    /// Iterations completed so far.
    pub fn iterations_done(&self) -> u64 {
        self.trainer.iteration()
    }

    /// Simulated seconds of training so far, re-scale charges included.
    pub fn sim_time(&self) -> f64 {
        self.trainer.total_time()
    }

    /// Tokens processed so far.
    pub fn total_tokens(&self) -> u64 {
        self.last_report().map_or(0, |report| report.total_tokens)
    }

    /// Training throughput in tokens per simulated second (0 before the
    /// first chunk completes).
    pub fn tokens_per_second(&self) -> f64 {
        let sim_time = self.sim_time();
        if sim_time <= 0.0 {
            return 0.0;
        }
        self.total_tokens() as f64 / sim_time
    }

    /// `(iteration, trajectory_checksum)` at every completed chunk boundary.
    pub fn checksum_history(&self) -> &[(u64, u64)] {
        &self.checksum_history
    }

    /// Re-scale events so far.  The job takes no periodic checkpoints, so
    /// every recovery event its trainer counts is a re-scale.
    pub fn rescales(&self) -> u64 {
        self.last_report()
            .map_or(0, |report| report.overhead.recovery_events)
    }

    /// Total checkpoint-write seconds charged by re-scales.
    pub fn rescale_cost_total(&self) -> f64 {
        self.last_report()
            .map_or(0.0, |report| report.overhead.recovery)
    }

    /// The live run's cumulative report, re-scale charges included, once a
    /// chunk has run.
    pub fn last_report(&self) -> Option<TrainingReport> {
        self.trainer.report(self.engine.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_dynamics::{EarlyExitEngine, EarlyExitMethod};

    fn spec(total: u64, segment: u64) -> ElasticTrainerSpec {
        ElasticTrainerSpec {
            preset: ModelPreset::Gpt { layers: 24 },
            device: DeviceSpec::test_device(16 * 1024 * 1024 * 1024),
            gpus_per_node: 4,
            total_iterations: total,
            segment_iterations: segment,
            num_microbatches: 8,
            allreduce_overlap: 0.8,
            min_workers: 2,
            cost_model: CheckpointCostModel::default(),
        }
    }

    fn engine(seed: u64) -> Box<dyn DynamismEngine> {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        Box::new(EarlyExitEngine::new(&model, EarlyExitMethod::Calm, seed))
    }

    #[test]
    fn undisturbed_chunked_run_matches_a_monolithic_run_bit_for_bit() {
        let mut chunked = ElasticTrainer::new(spec(60, 10), engine(4), 4).unwrap();
        chunked.advance_to(f64::INFINITY).unwrap();
        assert!(chunked.finished());
        assert_eq!(chunked.iterations_done(), 60);
        assert_eq!(chunked.checksum_history().len(), 6);

        let mut whole = ElasticTrainer::new(spec(60, 60), engine(4), 4).unwrap();
        whole.advance_to(f64::INFINITY).unwrap();
        assert_eq!(
            chunked.checksum_history().last().unwrap().1,
            whole.checksum_history().last().unwrap().1,
            "chunking must not perturb the trajectory"
        );
        assert_eq!(chunked.total_tokens(), whole.total_tokens());
        assert_eq!(chunked.sim_time().to_bits(), whole.sim_time().to_bits());
    }

    #[test]
    fn rescale_changes_the_world_and_charges_checkpoint_cost() {
        let mut job = ElasticTrainer::new(spec(40, 10), engine(4), 4).unwrap();
        job.advance_to(0.0).unwrap(); // sim_time 0.0 already ≥ horizon: no chunk
        assert_eq!(job.iterations_done(), 0);
        job.advance_to(f64::MIN_POSITIVE).unwrap();
        assert_eq!(job.iterations_done(), 10);

        let before = job.sim_time();
        let cost = job.rescale(2).unwrap();
        assert!(cost > 0.0, "checkpoint write must cost time");
        assert_eq!(job.world(), 2);
        assert_eq!(job.sim_time(), before + cost);
        assert_eq!(job.rescales(), 1);

        job.advance_to(f64::INFINITY).unwrap();
        assert!(job.finished());
        assert_eq!(job.last_report().unwrap().final_active_workers, 2);
        // No-op rescale and floor violations.
        assert_eq!(job.rescale(2).unwrap(), 0.0);
        assert!(job.rescale(1).is_err());
    }

    #[test]
    fn rescale_before_any_chunk_is_free() {
        let mut job = ElasticTrainer::new(spec(20, 10), engine(4), 4).unwrap();
        assert_eq!(job.rescale(6).unwrap(), 0.0);
        assert_eq!(job.world(), 6);
        job.advance_to(f64::INFINITY).unwrap();
        assert_eq!(job.last_report().unwrap().final_active_workers, 6);
    }
}
