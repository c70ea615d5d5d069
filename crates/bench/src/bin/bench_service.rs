//! Measures the concurrent serving path — epoch-pinned snapshot reads
//! under a live writer — and writes `BENCH_service.json` (in the current
//! directory).
//!
//! Three stages are reported:
//!
//! - **read_path** — the guard stage: the same randomized voxel probes
//!   through the tree's direct `&self` read path vs through a pinned
//!   [`Snapshot`](omu_octree::Snapshot). The snapshot rides the same
//!   sibling-row arena (shared chunk tables, no copies on the read
//!   side), so its single-reader throughput must stay within a few
//!   percent of the direct path; CI fails the build below 0.9×. The two
//!   are timed in interleaved pairs (which side goes first alternates),
//!   and the guarded ratio is the median of the per-pair ratios, so host
//!   drift over the stage moves both sides of a pair alike.
//! - **publish** — snapshot-publish latency on a growing map: one
//!   publish per integrated scan, holding the latest snapshot pinned the
//!   whole time (the serving steady state), so every scan's writes pay
//!   the row-COW freight. The JSON records the mean publish latency and
//!   the rows copied per epoch.
//! - **service** — [`MapService`](omu_map::MapService) end to end: the
//!   writer thread streams the corridor dataset while 1/2/4/8 readers on
//!   the service's reader pool hammer freshly-grabbed snapshots with
//!   occupancy batches. Aggregate reader throughput is the figure; the
//!   writer is never blocked by readers (and vice versa), so it should
//!   scale with cores until memory bandwidth saturates.
//!
//! Usage: `cargo run --release -p omu-bench --bin bench_service
//! [-- --scale 0.1]`.

use std::sync::Arc;
use std::time::Instant;

use omu_bench::RunOptions;
use omu_datasets::DatasetKind;
use omu_geometry::{Occupancy, Scan, VoxelKey};
use omu_map::{MapBuilder, MapService};
use omu_octree::OctreeF32;
use omu_raycast::IntegrationMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probe keys per batch (uniform over the mapped bounding box).
const PROBE_KEYS: usize = 100_000;
/// Read-path repetitions per timed run.
const READ_REPS: usize = 10;
/// Interleaved direct/snapshot run pairs behind the guarded ratio.
const READ_PAIRS: usize = 11;
/// Per-reader snapshot-grab + full-batch probe repetitions.
const SERVICE_REPS: usize = 20;
/// Dataset passes the service writer streams during the reader stage.
const WRITER_PASSES: usize = 4;
/// Dataset passes for the publish-latency stage.
const PUBLISH_PASSES: usize = 5;

struct Measurement {
    stage: &'static str,
    engine: String,
    probes: u64,
    seconds: f64,
}

impl Measurement {
    fn probes_per_sec(&self) -> f64 {
        self.probes as f64 / self.seconds
    }
}

/// Seconds for `READ_REPS` passes over `keys` through `occupancy`.
fn time_reads(keys: &[VoxelKey], occupancy: impl Fn(VoxelKey) -> Occupancy) -> f64 {
    let start = Instant::now();
    let mut occupied = 0usize;
    for _ in 0..READ_REPS {
        for &k in keys {
            if occupancy(k) == Occupancy::Occupied {
                occupied += 1;
            }
        }
    }
    std::hint::black_box(occupied);
    start.elapsed().as_secs_f64()
}

/// The median of `xs` (upper median for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn json_entry(m: &Measurement) -> String {
    format!(
        concat!(
            "    {{ \"stage\": \"{}\", \"engine\": \"{}\", \"probes\": {}, ",
            "\"seconds\": {:.6}, \"probes_per_sec\": {:.0} }}"
        ),
        m.stage,
        m.engine,
        m.probes,
        m.seconds,
        m.probes_per_sec(),
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

    // Build the corridor map once for the read-path stage.
    let mut tree = OctreeF32::new(spec.resolution).expect("valid resolution");
    tree.set_integration_mode(IntegrationMode::Raywise);
    tree.set_max_range(Some(spec.max_range));
    for scan in &scans {
        tree.insert_points(scan.origin, scan.cloud.points(), 1)
            .expect("scans stay in the map");
    }
    eprintln!("map built: {} nodes", tree.num_nodes());

    // Randomized probes over the mapped bounding box (collision checks
    // arrive unsorted), same construction as the query-path bench.
    let (lo, hi) = tree
        .snapshot()
        .iter()
        .fold((u16::MAX, u16::MIN), |(lo, hi), &(k, _, _)| {
            (lo.min(k.x).min(k.y).min(k.z), hi.max(k.x).max(k.y).max(k.z))
        });
    let mut rng = StdRng::seed_from_u64(0x51AB);
    let keys: Vec<VoxelKey> = (0..PROBE_KEYS)
        .map(|_| {
            VoxelKey::new(
                rng.random_range(lo..=hi),
                rng.random_range(lo..=hi),
                rng.random_range(lo..=hi),
            )
        })
        .collect();

    let mut results = Vec::new();

    // --- read_path: direct `&self` reads vs pinned-snapshot reads, in
    // interleaved pairs; the ratio is the median of the per-pair ratios.
    let snap = tree.publish_snapshot();
    let mut direct_secs = Vec::with_capacity(READ_PAIRS);
    let mut snapshot_secs = Vec::with_capacity(READ_PAIRS);
    let mut ratios = Vec::with_capacity(READ_PAIRS);
    let direct = || time_reads(&keys, |k| tree.occupancy(k));
    let snapshot = || time_reads(&keys, |k| snap.occupancy(k));
    for pair in 0..READ_PAIRS {
        let (d, s) = if pair % 2 == 0 {
            let d = direct();
            (d, snapshot())
        } else {
            let s = snapshot();
            (direct(), s)
        };
        // Snapshot throughput over direct throughput, for equal probes.
        ratios.push(d / s);
        direct_secs.push(d);
        snapshot_secs.push(s);
    }
    drop(snap);
    let snapshot_vs_direct = median(ratios);
    let read_probes = (READ_REPS * keys.len()) as u64;
    for (engine, secs) in [("direct", direct_secs), ("snapshot", snapshot_secs)] {
        results.push(Measurement {
            stage: "read_path",
            engine: engine.to_owned(),
            probes: read_probes,
            seconds: median(secs),
        });
    }
    eprintln!(
        "snapshot/direct single-reader read throughput: {snapshot_vs_direct:.3}x \
         (median of {READ_PAIRS} interleaved pairs)"
    );

    // --- publish: latency of publish_snapshot in the serving steady
    // state (latest snapshot held pinned while the writer streams). ---
    let (publish_ns, publishes, rows_copied_per_epoch) = {
        let mut tree = OctreeF32::new(spec.resolution).expect("valid resolution");
        tree.set_integration_mode(IntegrationMode::Raywise);
        tree.set_max_range(Some(spec.max_range));
        let mut latest = None;
        let mut publish_ns_total = 0u128;
        let mut publishes = 0u64;
        for _ in 0..PUBLISH_PASSES {
            for scan in &scans {
                tree.insert_points(scan.origin, scan.cloud.points(), 1)
                    .expect("scans stay in the map");
                let start = Instant::now();
                let snap = tree.publish_snapshot();
                publish_ns_total += start.elapsed().as_nanos();
                publishes += 1;
                latest = Some(snap);
            }
        }
        drop(latest);
        let stats = tree.snapshot_stats();
        let copied = stats.node_rows_copied + stats.leaf_rows_copied;
        (
            publish_ns_total as f64 / publishes as f64,
            publishes,
            copied as f64 / stats.snapshots_published as f64,
        )
    };
    eprintln!(
        "publish latency: {publish_ns:.0} ns mean over {publishes} publishes, \
         {rows_copied_per_epoch:.1} rows copied per epoch"
    );

    // --- service: MapService writer streaming, 1/2/4/8 readers. ---
    let mut service_publishes = 0u64;
    for readers in [1usize, 2, 4, 8] {
        let service =
            MapService::spawn(MapBuilder::new(spec.resolution).max_range(Some(spec.max_range)))
                .expect("service spawns");
        // Seed the first epoch so every reader starts on a real map.
        service.ingest(scans[0].clone()).expect("ingest");
        service.flush().expect("seed flush");
        // Queue the streaming writer workload; the writer thread drains
        // it while the readers run.
        for _ in 0..WRITER_PASSES {
            for scan in &scans {
                service.ingest(scan.clone()).expect("ingest");
            }
        }
        let pool = Arc::clone(service.reader_pool());
        let service_ref = &service;
        let keys_ref = &keys;
        let start = Instant::now();
        pool.scope(|s| {
            for _ in 0..readers {
                s.spawn(move || {
                    let mut occupied = 0usize;
                    for _ in 0..SERVICE_REPS {
                        let snap = service_ref.snapshot();
                        occupied += snap
                            .occupancy_batch_keys(keys_ref)
                            .iter()
                            .filter(|&&o| o == Occupancy::Occupied)
                            .count();
                    }
                    std::hint::black_box(occupied);
                });
            }
        });
        let seconds = start.elapsed().as_secs_f64();
        results.push(Measurement {
            stage: "service",
            engine: format!("readers_{readers}"),
            probes: (readers * SERVICE_REPS * keys.len()) as u64,
            seconds,
        });
        service.flush().expect("drain writer");
        let stats = service.service_stats();
        service_publishes = stats.publishes;
        eprintln!(
            "readers_{readers}: {:.0} probes/s aggregate ({} scans ingested, \
             {} publishes)",
            (readers * SERVICE_REPS * keys.len()) as f64 / seconds,
            stats.scans_ingested,
            stats.publishes,
        );
        service.shutdown().expect("clean shutdown");
    }

    for m in &results {
        eprintln!(
            "  {:<10} {:<10} {:>12.0} probes/s  ({:.3} s)",
            m.stage,
            m.engine,
            m.probes_per_sec(),
            m.seconds
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service\",\n",
            "  \"dataset\": \"{}\",\n",
            "  \"scale\": {},\n",
            "  \"scans\": {},\n",
            "  \"resolution_m\": {},\n",
            "  \"probe_keys\": {},\n",
            "  \"snapshot_reader_vs_direct\": {:.4},\n",
            "  \"publish_latency_ns\": {:.0},\n",
            "  \"publishes\": {},\n",
            "  \"rows_copied_per_epoch\": {:.2},\n",
            "  \"service_publishes\": {},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        kind.name(),
        scale,
        scans.len(),
        spec.resolution,
        keys.len(),
        snapshot_vs_direct,
        publish_ns,
        publishes,
        rows_copied_per_epoch,
        service_publishes,
        results
            .iter()
            .map(json_entry)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    println!("{json}");
    eprintln!("wrote BENCH_service.json");
}
