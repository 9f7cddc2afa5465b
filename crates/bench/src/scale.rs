//! Experiment scales: paper-faithful, default (compressed), and smoke.

use dynmo_dynamics::{FreezingPolicy, PruningSchedule};
use dynmo_model::ClusterConfig;
use serde::{Deserialize, Serialize};

/// A flag a binary declares besides `--scale X`: its name and the values
/// it takes, where no values mark a switch.
pub type Flag = (&'static str, &'static [&'static str]);

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Seconds-long sanity run (CI / criterion benches).
    Smoke,
    /// The default: paper cluster shapes, schedules compressed into a few
    /// hundred iterations.
    Default,
    /// The paper's full 10,000-iteration schedules.
    Paper,
}

impl ExperimentScale {
    /// Parse from a CLI argument (`smoke` / `default` / `paper`).
    pub fn parse(arg: &str) -> Option<Self> {
        match arg.to_ascii_lowercase().as_str() {
            "smoke" => Some(ExperimentScale::Smoke),
            "default" => Some(ExperimentScale::Default),
            "paper" => Some(ExperimentScale::Paper),
            _ => None,
        }
    }

    /// Read the scale from a binary's CLI arguments (without the program
    /// name): the value after `--scale`, or [`ExperimentScale::Default`]
    /// when there is no `--scale`.  Every other argument must be one of the
    /// binary's declared `flags`.  An unknown argument is an error that
    /// names it, and so is an unknown or missing value of `--scale` or of a
    /// declared flag, or the `--scale=X` spelling.
    pub fn from_args(args: &[String], flags: &[Flag]) -> Result<Self, String> {
        let mut scale = ExperimentScale::Default;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--scale" {
                let value = args.next().map_or("", String::as_str);
                scale = Self::parse(value).ok_or_else(|| {
                    format!("--scale takes smoke, default or paper, not {value:?}")
                })?;
            } else if arg.starts_with("--scale=") {
                return Err(format!(
                    "write --scale X, not {arg:?}: --scale takes smoke, default or paper"
                ));
            } else if let Some((_, values)) = flags.iter().find(|(name, _)| name == arg) {
                if !values.is_empty() {
                    let value = args.next().map_or("", String::as_str);
                    if !values.contains(&value) {
                        return Err(format!("{arg} takes {}, not {value:?}", values.join(", ")));
                    }
                }
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(scale)
    }

    /// Read the scale straight from the process arguments — the one shared
    /// entry point every figure binary uses instead of collecting the
    /// arguments itself; `flags` are the binary's own flags besides
    /// `--scale X`.  It also builds the default thread pool, which fails on
    /// a bad `DYNMO_THREADS`.  On either error it prints the message and
    /// exits with status 2, before any work starts.
    pub fn from_process_args(flags: &[Flag]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let scale = Self::from_args(&args, flags).and_then(|scale| {
            rayon::ThreadPoolBuilder::new()
                .build()
                .map_err(|error| error.to_string())?;
            Ok(scale)
        });
        scale.unwrap_or_else(|error| {
            eprintln!("error: {error}");
            std::process::exit(2)
        })
    }

    /// Number of training iterations simulated per configuration.
    pub fn iterations(&self) -> u64 {
        match self {
            ExperimentScale::Smoke => 60,
            ExperimentScale::Default => 400,
            ExperimentScale::Paper => 10_000,
        }
    }

    /// The pipeline-parallel degree used for the non-MoE GPT experiments
    /// (the paper's 24-way pipeline on 720 GPUs).
    pub fn gpt_cluster(&self) -> ClusterConfig {
        match self {
            ExperimentScale::Smoke => ClusterConfig {
                pipeline_stages: 4,
                data_parallel: 1,
                ..ClusterConfig::paper_720_h100()
            },
            ExperimentScale::Default => ClusterConfig {
                pipeline_stages: 12,
                data_parallel: 4,
                ..ClusterConfig::paper_720_h100()
            },
            ExperimentScale::Paper => ClusterConfig::paper_720_h100(),
        }
    }

    /// The pipeline-parallel degree used for the MoE/MoD experiments
    /// (the paper's 16-way pipeline on 128 GPUs).
    pub fn moe_cluster(&self) -> ClusterConfig {
        match self {
            ExperimentScale::Smoke => ClusterConfig {
                pipeline_stages: 4,
                data_parallel: 1,
                ..ClusterConfig::paper_128_h100()
            },
            ExperimentScale::Default => ClusterConfig {
                pipeline_stages: 8,
                data_parallel: 2,
                ..ClusterConfig::paper_128_h100()
            },
            ExperimentScale::Paper => ClusterConfig::paper_128_h100(),
        }
    }

    /// Schedules for dynamism mechanisms whose behaviour is tied to the
    /// iteration count, compressed proportionally to the chosen scale.
    pub fn schedules(&self) -> ScaledSchedules {
        let iterations = self.iterations();
        ScaledSchedules {
            pruning: PruningSchedule {
                initial_sparsity: 0.0,
                final_sparsity: 0.9,
                start_iteration: (iterations as f64 * 0.3) as u64,
                frequency: ((iterations as f64 * 0.1) as u64).max(1),
                num_steps: 4,
            },
            freezing: FreezingPolicy {
                check_interval: (iterations / 20).max(1),
                first_freeze_iteration: (iterations as f64 * 0.1) as u64,
                stagger_per_layer: ((iterations as f64 * 0.6 / 48.0) as u64).max(1),
                never_freeze_fraction: 0.25,
                jitter: 0.15,
            },
        }
    }
}

/// Iteration-scaled dynamism schedules for the mechanisms that need them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaledSchedules {
    /// Gradual-pruning schedule (Zhu–Gupta cubic), compressed to the scale.
    pub pruning: PruningSchedule,
    /// Layer-freezing policy, compressed to the scale.
    pub freezing: FreezingPolicy,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_and_from_args() {
        assert_eq!(
            ExperimentScale::parse("paper"),
            Some(ExperimentScale::Paper)
        );
        assert_eq!(
            ExperimentScale::parse("SMOKE"),
            Some(ExperimentScale::Smoke)
        );
        assert_eq!(ExperimentScale::parse("bogus"), None);
        assert_eq!(
            ExperimentScale::from_args(&args(&["--scale", "smoke"]), &[]),
            Ok(ExperimentScale::Smoke)
        );
        assert_eq!(
            ExperimentScale::from_args(&args(&[]), &[]),
            Ok(ExperimentScale::Default)
        );
        // A mistyped or missing value is an error, never a silent Default.
        let bad = ExperimentScale::from_args(&args(&["--scale", "papr"]), &[]).unwrap_err();
        assert!(bad.contains("smoke, default or paper") && bad.contains("papr"));
        assert!(ExperimentScale::from_args(&args(&["--scale"]), &[]).is_err());
        assert!(ExperimentScale::from_args(&args(&["--scale", "--profile"]), &[]).is_err());
        let equals = ExperimentScale::from_args(&args(&["--scale=paper"]), &[]).unwrap_err();
        assert!(equals.contains("--scale X") && equals.contains("--scale=paper"));
        // So is any argument the binary does not declare.
        let unknown = ExperimentScale::from_args(&args(&["--sacle", "smoke"]), &[]).unwrap_err();
        assert!(unknown.contains("--sacle"));
        assert!(ExperimentScale::from_args(&args(&["--other"]), &[]).is_err());
    }

    #[test]
    fn declared_flags_are_accepted_with_their_values_only() {
        const FLAGS: &[Flag] = &[("--ablate", &[]), ("--section", &["packed", "all"])];
        assert_eq!(
            ExperimentScale::from_args(&args(&["--ablate", "--scale", "smoke"]), FLAGS),
            Ok(ExperimentScale::Smoke)
        );
        assert_eq!(
            ExperimentScale::from_args(&args(&["--section", "packed"]), FLAGS),
            Ok(ExperimentScale::Default)
        );
        let bad = ExperimentScale::from_args(&args(&["--section", "bogus"]), FLAGS).unwrap_err();
        assert!(bad.contains("--section") && bad.contains("bogus"), "{bad}");
        assert!(ExperimentScale::from_args(&args(&["--section"]), FLAGS).is_err());
        let unknown = ExperimentScale::from_args(&args(&["--ablate-repack"]), FLAGS).unwrap_err();
        assert!(unknown.contains("--ablate-repack"), "{unknown}");
    }

    #[test]
    fn paper_scale_matches_the_evaluation_setup() {
        let scale = ExperimentScale::Paper;
        assert_eq!(scale.iterations(), 10_000);
        let gpus = |c: ClusterConfig| c.pipeline_stages * c.data_parallel;
        assert_eq!(gpus(scale.gpt_cluster()), 720);
        assert_eq!(gpus(scale.moe_cluster()), 128);
        let schedules = scale.schedules();
        assert_eq!(schedules.pruning.start_iteration, 3_000);
        assert_eq!(schedules.pruning.frequency, 1_000);
        assert!((schedules.pruning.final_sparsity - 0.9).abs() < 1e-12);
    }

    #[test]
    fn smaller_scales_compress_but_preserve_structure() {
        for scale in [ExperimentScale::Smoke, ExperimentScale::Default] {
            let iters = scale.iterations();
            let schedules = scale.schedules();
            assert!(schedules.pruning.start_iteration < iters);
            assert!(
                schedules.pruning.start_iteration
                    + schedules.pruning.num_steps * schedules.pruning.frequency
                    <= iters + schedules.pruning.frequency
            );
            assert!(schedules.freezing.first_freeze_iteration < iters);
            assert!(scale.gpt_cluster().validate().is_ok());
            assert!(scale.moe_cluster().validate().is_ok());
        }
    }
}
