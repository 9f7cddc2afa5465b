//! Pipeline-schedule sweep — the bubble/idleness landscape behind Figure 1.
//!
//! Fans a `(schedule × stages × micro-batches × imbalance)` grid across
//! threads (rayon) through the event-driven pipeline simulator and writes
//! one JSON artifact (`results/pipeline_sweep.json`) covering GPipe, 1F1B,
//! interleaved 1F1B, and ZB-H1.  Run with `--scale {smoke|default|paper}`;
//! the paper scale reaches the `p = 32, m = 512` corner of the grid.

use dynmo_bench::sweep::{run_sweep, SweepConfig};
use dynmo_bench::{dump_json, fmt, pct, ExperimentScale, Table};

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    let config = SweepConfig::for_scale(scale);
    println!(
        "Pipeline schedule sweep (scale: {scale:?}, {} cells)\n",
        config.cells().len()
    );

    let cells = run_sweep(&config);

    let mut table = Table::new(
        "Pipeline sweep — bubble ratio by schedule (γ = 0, largest grid point)",
        &["Schedule", "p", "m", "Bubble", "Idleness", "Tokens/s"],
    );
    let p_max = *config.stage_counts.iter().max().unwrap();
    let m_max = *config.microbatch_counts.iter().max().unwrap();
    for cell in cells
        .iter()
        .filter(|c| c.stages == p_max && c.microbatches == m_max && c.imbalance_factor == 0.0)
    {
        table.add_row(vec![
            cell.schedule.clone(),
            cell.stages.to_string(),
            cell.microbatches.to_string(),
            pct(cell.bubble_ratio),
            pct(cell.average_idleness),
            fmt(cell.tokens_per_second, 0),
        ]);
    }
    table.print();

    if let Some(path) = dump_json("pipeline_sweep", &cells) {
        println!("({} sweep rows written to {})", cells.len(), path.display());
    }
}
