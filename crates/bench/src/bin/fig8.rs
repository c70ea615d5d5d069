//! Regenerates Fig. 8 (layout/area) and the Section VI-C power numbers.
//!
//! The area model needs no workload; the power split is measured on the
//! FR-079 corridor run (the paper's reference operating point).
use omu_bench::{run_dataset_with_engine, runner::default_scale, RunOptions};
use omu_core::{area_model, floorplan_ascii, OmuConfig};
use omu_datasets::DatasetKind;

fn main() {
    let opts = RunOptions::from_env();
    let config = OmuConfig::default();
    println!("{}", floorplan_ascii(&config));
    println!("{}", area_model(&config));
    println!("paper: 2.5 mm^2 total, 2.0 mm x 1.25 mm, 8 PEs x 256 kB, 12 nm, 1 GHz @ 0.8 V");
    println!();

    let scale = opts
        .scale
        .unwrap_or_else(|| default_scale(DatasetKind::Fr079Corridor));
    eprintln!(
        "running FR-079 corridor at scale {scale} ({} engine) for the power split ...",
        opts.engine
    );
    let run = run_dataset_with_engine(DatasetKind::Fr079Corridor, scale, opts.engine);
    println!(
        "power on FR-079 corridor: {:.1} mW at 1 GHz, {:.0} % SRAM (paper: 250.8 mW, 91 %)",
        run.accel.power_mw,
        run.accel.sram_power_share * 100.0
    );
    println!(
        "SRAM utilization: {:.0} %, load imbalance: {:.2}, shared-queue wait cycles: {}",
        run.accel.sram_utilization * 100.0,
        run.accel.load_imbalance,
        run.accel.queue_wait_cycles
    );
}
