//! Measures query-path throughput on the FR-079 corridor dataset and
//! writes `BENCH_query_path.json` (in the current directory) — the
//! read-side mirror of `bench_batch_update`.
//!
//! Three stages are reported:
//!
//! - **pool** — the persistent worker pool behind the parallel read
//!   rows: `pool_warmup` is the cold spawn cost; the `pool_dispatch_ns`
//!   top-level figure is the steady-state per-task dispatch cost.
//! - **cast_ray** — query rays (virtual-bumper / planner look-ahead)
//!   cast from the corridor trajectory: `cast_ray` per probe (a full
//!   root-to-leaf descent per DDA step) vs one `DescentCursor` driving
//!   every ray (consecutive steps re-descend only below the deepest
//!   common ancestor) vs the batched `cast_rays` entry point, sequential
//!   and sharded (on a 1-CPU container the sharded row measures thread
//!   overhead; on multi-core hosts it shows the scaling).
//! - **point_query** — randomly ordered single-voxel classifications
//!   (collision checks): per-probe `occupancy` vs a raw cursor fed the
//!   unsorted stream vs `query_batch` (Morton sort + coalescing + one
//!   cursor sweep) vs `query_batch_parallel`, the latter swept over
//!   1/2/4/8 shards on the persistent pool.
//!
//! Usage: `cargo run --release -p omu-bench --bin bench_query_path
//! [-- --scale 0.1]`.

use std::time::Instant;

use omu_bench::RunOptions;
use omu_datasets::DatasetKind;
use omu_geometry::{Point3, Scan, VoxelKey};
use omu_octree::{OctreeF32, WorkerPool};
use omu_raycast::IntegrationMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Measurement {
    stage: &'static str,
    engine: String,
    ops: u64,
    seconds: f64,
}

impl Measurement {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.seconds
    }
}

/// Best-of-5 timing of `run`, which returns the operation count.
fn measure(stage: &'static str, engine: &str, mut run: impl FnMut() -> u64) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..5 {
        let start = Instant::now();
        let ops = run();
        let seconds = start.elapsed().as_secs_f64();
        let m = Measurement {
            stage,
            engine: engine.to_owned(),
            ops,
            seconds,
        };
        if best.as_ref().is_none_or(|b| m.seconds < b.seconds) {
            best = Some(m);
        }
    }
    best.expect("five repetitions ran")
}

fn json_entry(m: &Measurement) -> String {
    format!(
        concat!(
            "    {{ \"stage\": \"{}\", \"engine\": \"{}\", \"ops\": {}, ",
            "\"seconds\": {:.6}, \"ops_per_sec\": {:.0} }}"
        ),
        m.stage,
        m.engine,
        m.ops,
        m.seconds,
        m.ops_per_sec(),
    )
}

fn main() {
    let opts = RunOptions::from_env();
    let kind = DatasetKind::Fr079Corridor;
    let scale = opts.scale.unwrap_or(0.1);
    let dataset = kind.build_scaled(scale);
    let spec = *dataset.spec();
    let scans: Vec<Scan> = dataset.scans().collect();
    eprintln!(
        "corridor @ scale {scale}: {} scans, resolution {} m",
        scans.len(),
        spec.resolution
    );

    // Build the corridor map once; every measurement below is read-only.
    let mut tree = OctreeF32::new(spec.resolution).expect("valid resolution");
    tree.set_integration_mode(IntegrationMode::Raywise);
    tree.set_max_range(Some(spec.max_range));
    for scan in &scans {
        tree.insert_points(scan.origin, scan.cloud.points(), 1)
            .expect("scans stay in the map");
    }
    eprintln!("map built: {} nodes", tree.num_nodes());

    // Query-ray workload: a fan of look-ahead rays from every scan pose
    // (the planner's virtual bumper sweeping the corridor).
    let rays: Vec<(Point3, Point3)> = scans
        .iter()
        .flat_map(|s| {
            (0..512).map(|i| {
                let a = i as f64 * (std::f64::consts::TAU / 512.0);
                (
                    s.origin,
                    Point3::new(a.cos(), a.sin(), 0.02 * (i % 5) as f64),
                )
            })
        })
        .collect();
    let max_range = spec.max_range;

    // Point-query workload: randomly ordered voxel probes over the
    // mapped region (collision checks arrive unsorted).
    let (lo, hi) = tree
        .snapshot()
        .iter()
        .fold((u16::MAX, u16::MIN), |(lo, hi), &(k, _, _)| {
            (lo.min(k.x).min(k.y).min(k.z), hi.max(k.x).max(k.y).max(k.z))
        });
    let mut rng = StdRng::seed_from_u64(0x9E37);
    let keys: Vec<VoxelKey> = (0..200_000)
        .map(|_| {
            VoxelKey::new(
                rng.random_range(lo..=hi),
                rng.random_range(lo..=hi),
                rng.random_range(lo..=hi),
            )
        })
        .collect();

    let mut results = Vec::new();

    // Pool stage: cold warmup, then steady-state dispatch cost (the
    // overhead the pooled read rows pay per chunk task). The warmup row
    // reports seconds and the dispatch cost only — a throughput figure
    // from 8 no-op tasks would be meaningless next to the probe rows.
    let pool_warmup = measure("pool", "pool_warmup", || {
        let pool = WorkerPool::new(8);
        pool.scope(|s| {
            for i in 0..8 {
                s.spawn_on(i, || {});
            }
        });
        8
    });
    let pool_dispatch_ns = {
        let pool = WorkerPool::new(8);
        pool.scope(|s| {
            for i in 0..8 {
                s.spawn_on(i, || {});
            }
        });
        const SCOPES: u32 = 2_000;
        let start = Instant::now();
        for _ in 0..SCOPES {
            pool.scope(|s| {
                for i in 0..8 {
                    s.spawn_on(i, || {});
                }
            });
        }
        start.elapsed().as_nanos() as f64 / (SCOPES as f64 * 8.0)
    };
    eprintln!("pool steady-state dispatch: {pool_dispatch_ns:.0} ns/task");

    results.push(measure("cast_ray", "per_probe", || {
        for &(o, d) in &rays {
            tree.cast_ray(o, d, max_range, true).expect("valid ray");
        }
        rays.len() as u64
    }));
    results.push(measure("cast_ray", "cursor", || {
        let mut cursor = tree.query_cursor();
        for &(o, d) in &rays {
            cursor.cast_ray(o, d, max_range, true).expect("valid ray");
        }
        rays.len() as u64
    }));
    {
        let mut tree = tree.clone();
        results.push(measure("cast_ray", "batched", || {
            tree.cast_rays(&rays, max_range, true, 1)
                .expect("valid rays");
            rays.len() as u64
        }));
        results.push(measure("cast_ray", "batched_parallel", || {
            tree.cast_rays(&rays, max_range, true, 0)
                .expect("valid rays");
            rays.len() as u64
        }));
    }

    results.push(measure("point_query", "per_probe", || {
        for &k in &keys {
            std::hint::black_box(tree.occupancy(k));
        }
        keys.len() as u64
    }));
    results.push(measure("point_query", "cursor_unsorted", || {
        let mut cursor = tree.query_cursor();
        for &k in &keys {
            std::hint::black_box(cursor.occupancy(k));
        }
        keys.len() as u64
    }));
    {
        let mut tree = tree.clone();
        results.push(measure("point_query", "batched", || {
            std::hint::black_box(tree.query_batch(&keys));
            keys.len() as u64
        }));
        results.push(measure("point_query", "batched_parallel", || {
            std::hint::black_box(tree.query_batch_parallel(&keys, 0));
            keys.len() as u64
        }));
        // Shard sweep on the persistent pool.
        for shards in [1usize, 2, 4, 8] {
            results.push(measure("point_query", &format!("sharded_{shards}"), || {
                std::hint::black_box(tree.query_batch_parallel(&keys, shards));
                keys.len() as u64
            }));
        }
    }

    for m in &results {
        eprintln!(
            "  {:<12} {:<17} {:>12.0} ops/s  ({:.3} s)",
            m.stage,
            m.engine,
            m.ops_per_sec(),
            m.seconds
        );
    }

    // Prefix-reuse telemetry for the headline cursor row.
    let reuse = {
        let mut cursor = tree.query_cursor();
        for &(o, d) in &rays {
            cursor.cast_ray(o, d, max_range, true).expect("valid ray");
        }
        let c = *cursor.counters();
        eprintln!(
            "cast_ray cursor: {} probes, prefix reuse {:.1} %",
            c.probes,
            c.prefix_reuse_rate() * 100.0
        );
        c
    };

    let rate_of = |engine: &str| {
        results
            .iter()
            .find(|m| m.stage == "cast_ray" && m.engine == engine)
            .expect("cast_ray row present")
            .ops_per_sec()
    };
    let per_probe_rate = rate_of("per_probe");
    let cursor_rate = rate_of("cursor");
    eprintln!(
        "cast_ray cursor speedup: {:.2}x",
        cursor_rate / per_probe_rate
    );

    // The map the read paths traverse: sibling-row arena footprint.
    let mem = tree.memory_stats();
    eprintln!(
        "map memory: {} nodes in {} rows, {} heap bytes = {:.2} B/node",
        mem.live_nodes,
        mem.live_rows,
        mem.arena_bytes,
        mem.bytes_per_node(),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"query_path\",\n",
            "  \"dataset\": \"{}\",\n",
            "  \"scale\": {},\n",
            "  \"scans\": {},\n",
            "  \"resolution_m\": {},\n",
            "  \"rays\": {},\n",
            "  \"ray_probes\": {},\n",
            "  \"point_probes\": {},\n",
            "  \"cast_ray_cursor_speedup_vs_per_probe\": {:.2},\n",
            "  \"cast_ray_prefix_reuse_rate\": {:.4},\n",
            "  \"pool_dispatch_ns\": {:.1},\n",
            "  \"memory\": {{\n",
            "    \"live_nodes\": {},\n",
            "    \"live_rows\": {},\n",
            "    \"heap_bytes\": {},\n",
            "    \"bytes_per_node\": {:.2}\n",
            "  }},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        kind.name(),
        scale,
        scans.len(),
        spec.resolution,
        rays.len(),
        reuse.probes,
        keys.len(),
        cursor_rate / per_probe_rate,
        reuse.prefix_reuse_rate(),
        pool_dispatch_ns,
        mem.live_nodes,
        mem.live_rows,
        mem.arena_bytes,
        mem.bytes_per_node(),
        std::iter::once(format!(
            concat!(
                "    {{ \"stage\": \"pool\", \"engine\": \"pool_warmup\", ",
                "\"seconds\": {:.6}, \"pool_dispatch_ns\": {:.1} }}"
            ),
            pool_warmup.seconds, pool_dispatch_ns,
        ))
        .chain(results.iter().map(json_entry))
        .collect::<Vec<_>>()
        .join(",\n"),
    );
    std::fs::write("BENCH_query_path.json", &json).expect("write BENCH_query_path.json");
    println!("{json}");
    eprintln!("wrote BENCH_query_path.json");
}
