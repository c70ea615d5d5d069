//! Scan-insert throughput on the corridor dataset: the scalar
//! `insert_scan` oracle vs `insert_points` at 1 and 8 shards, ray
//! casting included. The production write path is measured end to end
//! by perfbench; CI's gated ratios live in `src/bin/bench_guards.rs`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use omu_datasets::DatasetKind;
use omu_geometry::Scan;
use omu_octree::OctreeF32;
use omu_raycast::IntegrationMode;

fn corridor_scans() -> Vec<Scan> {
    DatasetKind::Fr079Corridor
        .build_scaled(0.016)
        .scans()
        .collect()
}

fn fresh_tree(resolution: f64, max_range: f64) -> OctreeF32 {
    let mut t = OctreeF32::new(resolution).unwrap();
    t.set_integration_mode(IntegrationMode::Raywise);
    t.set_max_range(Some(max_range));
    t
}

fn bench_scan_integration(c: &mut Criterion) {
    let spec = DatasetKind::Fr079Corridor.spec();
    let scans = corridor_scans();
    let updates: u64 = {
        let mut t = fresh_tree(spec.resolution, spec.max_range);
        scans
            .iter()
            .map(|s| t.insert_scan(s).unwrap().total_updates())
            .sum()
    };

    let mut g = c.benchmark_group("batch_update");
    g.throughput(Throughput::Elements(updates));
    g.sample_size(10);
    g.bench_function("scalar", |b| {
        b.iter(|| {
            let mut t = fresh_tree(spec.resolution, spec.max_range);
            for s in &scans {
                t.insert_scan(s).unwrap();
            }
            t.num_nodes()
        })
    });
    for shards in [1usize, 8] {
        g.bench_function(format!("sharded_{shards}"), |b| {
            b.iter(|| {
                let mut t = fresh_tree(spec.resolution, spec.max_range);
                for s in &scans {
                    t.insert_points(s.origin, s.cloud.points(), shards).unwrap();
                }
                t.num_nodes()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scan_integration);
criterion_main!(benches);
