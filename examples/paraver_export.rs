//! Export a traced run to Paraver (.prv/.pcf/.row) and CSV, the
//! paper's offline transformation pipeline.
//!
//! ```sh
//! cargo run --release --example paraver_export
//! ls /tmp/osnoise-export/
//! ```

use osnoise::analysis::chart::NoiseChart;
use osnoise::core::{run_app, ExperimentConfig};
use osnoise::kernel::time::Nanos;
use osnoise::paraver;
use osnoise::workloads::App;

fn main() -> std::io::Result<()> {
    let run = run_app(ExperimentConfig::paper(App::Lammps, Nanos::from_secs(2)));
    let dir = std::path::Path::new("/tmp/osnoise-export");
    std::fs::create_dir_all(dir)?;

    let prv = paraver::write_full_prv(
        &run.trace.events,
        &run.analysis.instances,
        &run.result.tasks,
        run.result.end_time,
    );
    // Validate before writing, as the CLI does.
    let records =
        paraver::validate_prv(&prv, run.result.tasks.len(), run.config.node.cpus as usize)
            .expect("generated .prv must validate");

    std::fs::write(dir.join("lammps.prv"), &prv)?;
    std::fs::write(dir.join("lammps.pcf"), paraver::pcf::write_pcf())?;
    std::fs::write(
        dir.join("lammps.row"),
        paraver::row::write_row(run.config.node.cpus as usize, &run.result.tasks),
    )?;
    let chart = NoiseChart::build(&run.analysis, run.observed_rank());
    std::fs::write(
        dir.join("lammps_chart.csv"),
        paraver::matlab::chart_csv(&chart),
    )?;

    println!(
        "wrote {} Paraver records + chart CSV to {}",
        records,
        dir.display()
    );
    Ok(())
}
