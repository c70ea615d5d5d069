//! Ablation: per-PE in-flight window (the voxel queues of Fig. 7).
//!
//! Consecutive cells of one ray target the same first-level branch, so
//! per-PE traffic is bursty. The window bounds how much of that burst is
//! in flight at one PE; since a busy PE is limited by its total service
//! time either way, the window moves *waiting* (shared-queue residency),
//! not end-to-end latency — which is exactly why the paper can leave its
//! queue sizes unspecified.
use omu_bench::table::fmt_f;
use omu_bench::{runner::default_scale, RunOptions, TextTable};
use omu_core::{run_accelerator_with_engine, OmuConfig};
use omu_datasets::DatasetKind;

fn main() {
    let opts = RunOptions::from_env();
    let kind = DatasetKind::Fr079Corridor;
    let scale = opts.scale.unwrap_or(default_scale(kind) / 2.0);
    let dataset = kind.build_scaled(scale);
    let spec = *dataset.spec();

    println!(
        "voxel-queue capacity ablation on {} (scale {scale}, {} engine):",
        kind.name(),
        opts.engine
    );
    let mut t = TextTable::new([
        "queue capacity",
        "latency (s)",
        "shared-queue wait cycles",
        "FPS",
    ]);
    for capacity in [4usize, 16, 64, 512, 4096] {
        let config = OmuConfig::builder()
            .voxel_queue_capacity(capacity)
            .rows_per_bank(1 << 16)
            .resolution(spec.resolution)
            .max_range(Some(spec.max_range))
            .build()
            .unwrap();
        let (_, s) =
            run_accelerator_with_engine(config, dataset.scans(), opts.engine.update_engine())
                .unwrap();
        t.row([
            capacity.to_string(),
            fmt_f(s.latency_s),
            s.queue_wait_cycles.to_string(),
            fmt_f(s.fps),
        ]);
    }
    println!("{t}");
}
