//! Order-independence stress: the parallel engines must produce
//! bit-identical maps and query results under *every* task execution
//! order. The pool's seeded shuffle defers each scope's tasks and
//! publishes them in a permuted order (and permutes the caller-help
//! queue sweep), so these runs exercise schedules the default
//! round-robin dispatch never produces. Any divergence from the scalar
//! reference is an order-dependence bug in the sharded walk, the merge
//! step, or the counters.
//!
//! CI additionally runs this file in `--release` with
//! `OMU_POOL_SHUFFLE_SEED` set, covering the env-var path.

use omu::geometry::{Point3, PointCloud, Scan};
use omu::map::{Engine, MapBuilder, OccupancyMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_scans(seed: u64, scans: usize, points: usize) -> Vec<Scan> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..scans)
        .map(|_| {
            let origin = Point3::new(
                rng.random_range(-0.5..0.5),
                rng.random_range(-0.5..0.5),
                rng.random_range(-0.3..0.3),
            );
            let cloud: PointCloud = (0..points)
                .map(|_| {
                    Point3::new(
                        rng.random_range(-4.0..4.0),
                        rng.random_range(-4.0..4.0),
                        rng.random_range(-1.5..1.5),
                    )
                })
                .collect();
            Scan::new(origin, cloud)
        })
        .collect()
}

fn build_map(engine: Engine, scans: &[Scan], shuffle_seed: Option<u64>) -> OccupancyMap {
    // 8 workers + 12 m range: the same setup the worker-pool suite uses
    // to push scans past the spawn-amortization threshold, so the
    // sharded walk genuinely fans out instead of running inline.
    let mut builder = MapBuilder::new(0.1)
        .engine(engine)
        .worker_threads(8)
        .max_range(Some(12.0));
    if let Some(seed) = shuffle_seed {
        builder = builder.task_shuffle_seed(seed);
    }
    let mut map = builder.build().unwrap();
    for scan in scans {
        map.insert(scan).unwrap();
    }
    map
}

#[test]
fn sharded_writes_stay_bit_identical_under_shuffle() {
    let scans = random_scans(0xC0FFEE, 4, 3000);
    let reference = build_map(Engine::Scalar, &scans, None).snapshot();
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let shuffled = build_map(Engine::Sharded { shards: 8 }, &scans, Some(seed));
        let stats = shuffled.pool_stats().expect("parallel path ran");
        assert!(
            stats.shuffled_scopes > 0,
            "workload too small to engage the shuffle: {stats:?}"
        );
        assert_eq!(
            shuffled.snapshot(),
            reference,
            "sharded map diverged from scalar under shuffle seed {seed:#x}"
        );
    }
}

#[test]
fn batched_writes_stay_bit_identical_under_shuffle() {
    let scans = random_scans(0xBEE, 4, 3000);
    let reference = build_map(Engine::Scalar, &scans, None).snapshot();
    for seed in [7u64, 0x5EED] {
        let shuffled = build_map(Engine::default(), &scans, Some(seed));
        assert_eq!(
            shuffled.snapshot(),
            reference,
            "batched map diverged from scalar under shuffle seed {seed:#x}"
        );
    }
}

/// Reads run on the caller's thread; the shuffle reaches them through
/// the map the sharded writes built under it.
#[test]
fn parallel_queries_and_ray_casts_agree_under_shuffle() {
    let scans = random_scans(0xACE, 3, 3000);
    let mut plain = build_map(Engine::Sharded { shards: 8 }, &scans, None);
    let mut shuffled = build_map(Engine::Sharded { shards: 8 }, &scans, Some(0x0D15_EA5E));

    let mut rng = StdRng::seed_from_u64(9);
    let probes: Vec<Point3> = (0..4096)
        .map(|_| {
            Point3::new(
                rng.random_range(-4.0..4.0),
                rng.random_range(-4.0..4.0),
                rng.random_range(-1.5..1.5),
            )
        })
        .collect();
    assert_eq!(
        plain.occupancy_batch(&probes).unwrap(),
        shuffled.occupancy_batch(&probes).unwrap(),
        "batched occupancy reads diverged under shuffle"
    );

    let rays: Vec<(Point3, Point3)> = (0..512)
        .map(|_| {
            let d = Point3::new(
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-0.5..0.5),
            );
            (Point3::new(0.0, 0.0, 0.0), d)
        })
        .collect();
    assert_eq!(
        plain.cast_rays(&rays, 6.0, false).unwrap(),
        shuffled.cast_rays(&rays, 6.0, false).unwrap(),
        "batched ray casts diverged under shuffle"
    );
}

#[test]
fn shuffle_engages_the_pool_counter() {
    let scans = random_scans(3, 2, 3000);
    let map = build_map(Engine::Sharded { shards: 8 }, &scans, Some(11));
    let stats = map.pool_stats().expect("parallel path ran");
    assert!(
        stats.shuffled_scopes > 0,
        "shuffle seed was set but no scope ran shuffled: {stats:?}"
    );
}
