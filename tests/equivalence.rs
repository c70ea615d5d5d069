//! Cross-crate equivalence: the accelerator's map must be bit-identical
//! to the software octree running the same algorithm on the same 16-bit
//! fixed point, for real dataset workloads — the reproduction's version
//! of the paper's "zero loss from the floating-point maps" claim.

use omu::accel::{verify, OmuAccelerator, OmuConfig, UpdateEngine};
use omu::datasets::DatasetKind;
use omu::geometry::{
    FixedLogOdds, LogOdds, Occupancy, OccupancyParams, Point3, PointCloud, Scan, VoxelKey,
};
use omu::octree::{OccupancyOctree, OctreeF32, OctreeFixed};
use omu::raycast::{IntegrationMode, VoxelUpdate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config_for(kind: DatasetKind) -> OmuConfig {
    let spec = kind.spec();
    OmuConfig::builder()
        .rows_per_bank(1 << 15)
        .resolution(spec.resolution)
        .max_range(Some(spec.max_range))
        .build()
        .unwrap()
}

fn assert_dataset_equivalence(kind: DatasetKind, scale: f64) {
    let dataset = kind.build_scaled(scale);
    let config = config_for(kind);
    let mut tree = verify::baseline_for(&config);
    let mut omu = OmuAccelerator::new(config).unwrap();
    for scan in dataset.scans() {
        tree.insert_scan(&scan).unwrap();
        omu.integrate_scan(&scan).unwrap();
    }
    let leaves = verify::check_equivalence(&tree, &omu)
        .unwrap_or_else(|m| panic!("{} maps diverged:\n{m}", kind.name()));
    assert!(
        leaves > 1_000,
        "{}: non-trivial map ({leaves} leaves)",
        kind.name()
    );
}

#[test]
fn corridor_map_bit_identical() {
    assert_dataset_equivalence(DatasetKind::Fr079Corridor, 0.016); // 2 scans
}

#[test]
fn college_map_bit_identical() {
    assert_dataset_equivalence(DatasetKind::NewCollege, 0.002); // 185 scans
}

#[test]
fn random_hammering_stays_equivalent() {
    // Dense random updates in a small region force heavy prune/expand
    // churn — the hardest case for the packed-entry state machine.
    let config = OmuConfig::builder().resolution(0.1).build().unwrap();
    let mut tree = verify::baseline_for(&config);
    let mut omu = OmuAccelerator::new(config).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..60 {
        let origin = Point3::new(
            rng.random_range(-0.4..0.4),
            rng.random_range(-0.4..0.4),
            rng.random_range(-0.4..0.4),
        );
        let cloud: PointCloud = (0..50)
            .map(|_| {
                Point3::new(
                    rng.random_range(-1.6..1.6),
                    rng.random_range(-1.6..1.6),
                    rng.random_range(-1.6..1.6),
                )
            })
            .collect();
        let scan = Scan::new(origin, cloud);
        tree.insert_scan(&scan).unwrap();
        omu.integrate_scan(&scan).unwrap();
    }
    verify::check_equivalence(&tree, &omu).unwrap_or_else(|m| panic!("diverged:\n{m}"));
}

#[test]
fn fixed_point_classification_matches_float() {
    // The fixed-point map classifies every observed voxel identically to
    // the float map under the default thresholds.
    let dataset = DatasetKind::Fr079Corridor.build_scaled(0.016);
    let spec = *dataset.spec();
    let mut f32_tree = OctreeF32::new(spec.resolution).unwrap();
    let mut fix_tree = OctreeFixed::new(spec.resolution).unwrap();
    f32_tree.set_max_range(Some(spec.max_range));
    fix_tree.set_max_range(Some(spec.max_range));
    for scan in dataset.scans() {
        f32_tree.insert_scan(&scan).unwrap();
        fix_tree.insert_scan(&scan).unwrap();
    }
    let mut checked = 0u64;
    let mut disagreements = 0u64;
    for leaf in f32_tree.iter_leaves() {
        if leaf.depth == omu::geometry::TREE_DEPTH {
            checked += 1;
            if fix_tree.occupancy(leaf.key) != leaf.occupancy {
                disagreements += 1;
            }
        }
    }
    // Saturated regions prune to coarser depths; the finest-depth leaves
    // that remain are the boundary cells.
    assert!(checked > 1_000, "checked {checked} finest voxels");
    // Q5.10 quantization can flip a voxel whose float log-odds sits within
    // half an LSB (~0.0005) of the occupancy threshold — e.g. 2 hits + 4
    // misses is −0.0047 in float but +0.074 quantized. Such knife-edge
    // voxels are a vanishing fraction of the map.
    let rate = disagreements as f64 / checked as f64;
    assert!(
        rate < 1e-3,
        "{disagreements} of {checked} voxels ({rate:.5}) classify differently"
    );
    // The coarse structure agrees too.
    assert_eq!(
        f32_tree.occupancy_at(Point3::new(0.5, 0.0, 0.0)).unwrap(),
        fix_tree.occupancy_at(Point3::new(0.5, 0.0, 0.0)).unwrap()
    );
}

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

/// Inserts `scans` three ways — scalar per-update path, batched insert at
/// one shard, batched insert at three shards — and demands bit-identical
/// trees.
fn assert_batch_equivalence<V: omu::geometry::LogOdds>(
    scans: &[Scan],
    pruning: bool,
    mode: IntegrationMode,
    resolution: f64,
) {
    let make = || {
        let mut t: OccupancyOctree<V> = OccupancyOctree::new(resolution).unwrap();
        t.set_pruning_enabled(pruning);
        t.set_integration_mode(mode);
        t.set_max_range(Some(6.0));
        t.set_change_detection(true);
        t
    };
    let mut scalar = make();
    let mut batched = make();
    let mut parallel = make();
    for scan in scans {
        let a = scalar.insert_scan(scan).unwrap();
        let b = batched
            .insert_points(scan.origin, scan.cloud.points(), 1)
            .unwrap();
        let c = parallel
            .insert_points(scan.origin, scan.cloud.points(), 3)
            .unwrap();
        assert_eq!(a.total_updates(), b.total_updates());
        assert_eq!(a.total_updates(), c.total_updates());
    }
    assert_eq!(
        scalar.snapshot(),
        batched.snapshot(),
        "batched diverged (pruning={pruning}, mode={mode:?})"
    );
    assert_eq!(
        scalar.snapshot(),
        parallel.snapshot(),
        "parallel diverged (pruning={pruning}, mode={mode:?})"
    );
    assert_eq!(scalar.num_nodes(), batched.num_nodes());
    // Change detection agrees as a set.
    let canon = |t: &OccupancyOctree<V>| {
        let mut v: Vec<_> = t.changed_keys().copied().collect();
        v.sort_unstable();
        v
    };
    assert_eq!(canon(&scalar), canon(&batched));
    assert_eq!(canon(&scalar), canon(&parallel));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The batch engine's contract: for random workloads, every
    // combination of pruning flag and integration mode produces a tree
    // bit-identical to the scalar `update_key` path, in both value
    // representations.
    #[test]
    fn batched_paths_are_bit_identical_to_scalar(
        seed in any::<u64>(),
        nscans in 2usize..5,
        points in 20usize..60,
    ) {
        let scans = random_scans(seed, nscans, points);
        for pruning in [true, false] {
            for mode in [IntegrationMode::Raywise, IntegrationMode::DedupPerScan] {
                assert_batch_equivalence::<f32>(&scans, pruning, mode, 0.1);
                assert_batch_equivalence::<omu::geometry::FixedLogOdds>(
                    &scans, pruning, mode, 0.1,
                );
            }
        }
    }
}

/// Sensor-model parameters drawn at random, including the unchecked
/// corners the public fields allow: `hit = 0`, a negative `hit`,
/// `miss = 0`, a positive `miss` and a `-0.0` clamp bound. Most `-0.0`
/// bounds come with steps that reach both signed zeros: the step into
/// the bound pins a voxel there, and the other step is zero, or exactly
/// cancels it (`t - t` is `+0.0`) with the opposite bound one step away,
/// so a voxel is `+0.0`, `-0.0` or that bound.
fn random_params(rng: &mut StdRng) -> OccupancyParams {
    let mut hit = match rng.random_range(0..4u8) {
        0 => 0.0,
        1 => rng.random_range(-0.5f32..-0.01),
        _ => rng.random_range(0.01f32..2.0),
    };
    let mut miss = match rng.random_range(0..4u8) {
        0 => 0.0,
        1 => rng.random_range(0.01f32..1.0),
        _ => rng.random_range(-1.5f32..-0.01),
    };
    let mut clamp_min = rng.random_range(-4.0f32..-0.1);
    let mut clamp_max = rng.random_range(0.1f32..4.0);
    // A `-0.0` bound differs from what a zero step or the opposite bound
    // makes of it only in the sign bit, which `==` cannot see.
    let step = rng.random_range(0.01f32..2.0);
    match rng.random_range(0..8u8) {
        0 => clamp_min = -0.0,
        1 => clamp_max = -0.0,
        2 => (clamp_min, miss, hit) = (-0.0, -step, 0.0),
        3 => (clamp_min, clamp_max, miss, hit) = (-0.0, step, -step, step),
        4 => (clamp_max, hit, miss) = (-0.0, step, 0.0),
        5 => (clamp_min, clamp_max, hit, miss) = (-step, -0.0, step, -step),
        _ => {}
    }
    OccupancyParams {
        hit,
        miss,
        clamp_min,
        clamp_max,
        occupancy_threshold: rng.random_range(clamp_min..clamp_max),
    }
}

/// One explicit update batch over at most 16 keys of the 4×4×4 block
/// around the map centre. The block straddles the first-level branches,
/// and the keys start with all 8 siblings of one or two of its finest
/// octants, so siblings prune and expand again. The batch is built from
/// the shapes the run-length replay and the prune treat specially: long
/// miss runs, hit bursts into `clamp_max`, hit/miss alternation, a run in
/// one direction for every sibling of an octant and then one update the
/// other way, and random interleavings of several keys.
fn run_heavy_batch(rng: &mut StdRng) -> Vec<VoxelUpdate> {
    // Octant `o`'s sibling `i`; the block spans 32766..32770 per axis.
    let sibling = |o: u16, i: u16| {
        let axis = |bit: u16| 32766 + 2 * (o >> bit & 1) + (i >> bit & 1);
        VoxelKey::new(axis(0), axis(1), axis(2))
    };
    let first = rng.random_range(0..8u16);
    let octants = [first, (first + rng.random_range(1..8u16)) % 8];
    let octants = &octants[..rng.random_range(1..=2usize)];
    let mut keys: Vec<VoxelKey> = octants
        .iter()
        .flat_map(|&o| (0..8).map(move |i| sibling(o, i)))
        .collect();
    let nkeys = rng.random_range(keys.len()..=16);
    while keys.len() < nkeys {
        let key = sibling(rng.random_range(0..8u16), rng.random_range(0..8u16));
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let len = rng.random_range(1..400usize);
    let mut batch = Vec::with_capacity(len + 80);
    while batch.len() < len {
        let key = keys[rng.random_range(0..nkeys)];
        match rng.random_range(0..5u8) {
            0 => {
                let misses = rng.random_range(1..80usize);
                batch.extend(std::iter::repeat_n(VoxelUpdate { key, hit: false }, misses));
            }
            1 => {
                let hits = rng.random_range(1..16usize);
                batch.extend(std::iter::repeat_n(VoxelUpdate { key, hit: true }, hits));
            }
            2 => {
                let steps = rng.random_range(2..24usize);
                batch.extend((0..steps).map(|i| VoxelUpdate {
                    key,
                    hit: i % 2 == 0,
                }));
            }
            3 => {
                let o = octants[rng.random_range(0..octants.len())];
                let hit = rng.random_bool(0.5);
                for i in 0..8 {
                    let update = VoxelUpdate {
                        key: sibling(o, i),
                        hit,
                    };
                    batch.extend(std::iter::repeat_n(update, rng.random_range(1..3usize)));
                }
                batch.push(VoxelUpdate {
                    key: sibling(o, rng.random_range(0..8u16)),
                    hit: !hit,
                });
            }
            _ => {
                for _ in 0..rng.random_range(1..24usize) {
                    batch.push(VoxelUpdate {
                        key: keys[rng.random_range(0..nkeys)],
                        hit: rng.random_bool(0.3),
                    });
                }
            }
        }
    }
    batch
}

/// Applies `batches` through `apply_update_batch`, `apply_update_stream`
/// and `apply_update_batch_parallel(.., 8)`, and through one scalar
/// `update_key` per update (early abort off, so every update counts as a
/// leaf update). After every batch it demands the same tree, changed
/// keys, leaf-update count and wire bytes, then resets the changed keys,
/// so later batches check classification flips rather than first
/// observations.
fn assert_run_replay_matches_scalar<V: LogOdds>(
    params: OccupancyParams,
    batches: &[Vec<VoxelUpdate>],
    track_changes: bool,
) {
    let make = || {
        let mut t: OccupancyOctree<V> = OccupancyOctree::with_params(0.1, params).unwrap();
        t.set_change_detection(track_changes);
        t
    };
    let mut scalar = make();
    scalar.set_early_abort_saturated(false);
    let mut batch = make();
    let mut stream = make();
    let mut parallel = make();
    let changed = |t: &OccupancyOctree<V>| {
        let mut v: Vec<VoxelKey> = t.changed_keys().copied().collect();
        v.sort_unstable();
        v
    };
    for (i, updates) in batches.iter().enumerate() {
        for u in updates {
            scalar.update_key(u.key, u.hit);
        }
        batch.apply_update_batch(updates);
        stream.apply_update_stream(|sink| {
            for &u in updates {
                sink.push(u);
            }
        });
        parallel.apply_update_batch_parallel(updates, 8).unwrap();
        for (path, t) in [
            ("batch", &mut batch),
            ("stream", &mut stream),
            ("parallel", &mut parallel),
        ] {
            let ctx =
                format!("{path}, batch {i} (params={params:?}, change detection={track_changes})");
            assert_eq!(t.snapshot(), scalar.snapshot(), "tree: {ctx}");
            assert_eq!(changed(t), changed(&scalar), "changed keys: {ctx}");
            assert_eq!(
                t.counters().leaf_updates,
                scalar.counters().leaf_updates,
                "leaf updates: {ctx}"
            );
            assert_eq!(t.to_bytes(), scalar.to_bytes(), "wire bytes: {ctx}");
            t.reset_changed_keys();
        }
        scalar.reset_changed_keys();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The run-length replay's contract: ending a miss run at the first
    // miss that leaves the value's bits unchanged, and replaying each
    // voxel's hits between its miss runs, is the per-update scalar replay
    // bit for bit, for any sensor model, in both representations, with
    // change detection on and off.
    #[test]
    fn run_length_replay_matches_per_update_scalar(
        seed in any::<u64>(),
        nbatches in 2usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_params(&mut rng);
        let batches: Vec<Vec<VoxelUpdate>> =
            (0..nbatches).map(|_| run_heavy_batch(&mut rng)).collect();
        for track_changes in [false, true] {
            assert_run_replay_matches_scalar::<f32>(params, &batches, track_changes);
            assert_run_replay_matches_scalar::<FixedLogOdds>(params, &batches, track_changes);
        }
    }
}

/// Inserts `scans` through the scalar per-update path and through
/// `insert_points` at a given shard count (the integrator streams into
/// the group-by, and above one shard the branch-sharded walk applies the
/// batch), and demands bit-identical trees.
fn assert_sharded_equivalence<V: omu::geometry::LogOdds>(
    scans: &[Scan],
    pruning: bool,
    mode: IntegrationMode,
    shards: usize,
    resolution: f64,
) {
    let make = || {
        let mut t: OccupancyOctree<V> = OccupancyOctree::new(resolution).unwrap();
        t.set_pruning_enabled(pruning);
        t.set_integration_mode(mode);
        t.set_max_range(Some(6.0));
        t.set_change_detection(true);
        t
    };
    let mut scalar = make();
    let mut sharded = make();
    for scan in scans {
        let a = scalar.insert_scan(scan).unwrap();
        let b = sharded
            .insert_points(scan.origin, scan.cloud.points(), shards)
            .unwrap();
        assert_eq!(a.total_updates(), b.total_updates());
    }
    assert_eq!(
        scalar.snapshot(),
        sharded.snapshot(),
        "sharded apply diverged (pruning={pruning}, mode={mode:?}, shards={shards})"
    );
    assert_eq!(scalar.num_nodes(), sharded.num_nodes());
    let canon = |t: &OccupancyOctree<V>| {
        let mut v: Vec<_> = t.changed_keys().copied().collect();
        v.sort_unstable();
        v
    };
    assert_eq!(canon(&scalar), canon(&sharded));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The sharded parallel engine's contract: bit-identical to scalar
    // `update_key` across pruning on/off, both integration modes, and
    // 1/2/4/8 worker shards, in both value representations. The random
    // scans cross the map origin, so their update batches straddle
    // first-level branch boundaries (all 8 octants receive work).
    #[test]
    fn sharded_parallel_is_bit_identical_to_scalar(
        seed in any::<u64>(),
        nscans in 2usize..4,
        points in 20usize..50,
    ) {
        let scans = random_scans(seed, nscans, points);
        // Sweep shard counts deterministically from the seed so every
        // failure reproduces from the proptest case alone.
        let shards = [1usize, 2, 4, 8][(seed % 4) as usize];
        for pruning in [true, false] {
            for mode in [IntegrationMode::Raywise, IntegrationMode::DedupPerScan] {
                assert_sharded_equivalence::<f32>(&scans, pruning, mode, shards, 0.1);
                assert_sharded_equivalence::<omu::geometry::FixedLogOdds>(
                    &scans, pruning, mode, shards, 0.1,
                );
            }
        }
    }
}

#[test]
fn sharded_parallel_spawns_threads_above_the_amortization_threshold() {
    // Small batches take the inline fast path; this one is large enough
    // (> 1024 unique keys across several branches) that the sharded
    // engine really dispatches its branch tasks to pool workers —
    // keeping actual multi-threaded execution covered by the
    // bit-identity suite.
    use omu::raycast::VoxelUpdate;
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let updates: Vec<VoxelUpdate> = (0..6000)
        .map(|_| VoxelUpdate {
            key: omu::geometry::VoxelKey::new(
                rng.random_range(32000..33500),
                rng.random_range(32000..33500),
                rng.random_range(32000..33500),
            ),
            hit: rng.random_range(0..4) != 0,
        })
        .collect();

    let mut sequential = OctreeF32::new(0.1).unwrap();
    sequential.set_change_detection(true);
    sequential.apply_update_batch(&updates);
    for shards in [2, 4, 8] {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.set_change_detection(true);
        t.apply_update_batch_parallel(&updates, shards).unwrap();
        assert_eq!(sequential.snapshot(), t.snapshot(), "shards={shards}");
        assert_eq!(sequential.counters(), t.counters(), "shards={shards}");
        let canon = |t: &OctreeF32| {
            let mut v: Vec<_> = t.changed_keys().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(canon(&sequential), canon(&t));
        t.debug_validate();
    }

    // The read side: one cursor's ray batch matches per-ray casts.
    let rays: Vec<(Point3, Point3)> = (0..64)
        .map(|i| {
            let a = i as f64 * 0.1;
            (Point3::ZERO, Point3::new(a.cos(), a.sin(), 0.1))
        })
        .collect();
    let one_by_one: Vec<_> = rays
        .iter()
        .map(|&(o, d)| sequential.cast_ray(o, d, 4.0, true).unwrap())
        .collect();
    let batched = sequential.reader().cast_rays(&rays, 4.0, true).unwrap();
    assert_eq!(batched, one_by_one);
}

#[test]
fn sharded_parallel_handles_single_branch_batches() {
    // Every point (and the origin) in the strictly positive octant:
    // every voxel key has its top bit set on all axes, so the whole
    // batch lands in first-level branch 7 — the degenerate one-run case
    // for the sharded walk, at every shard count.
    let mut rng = StdRng::seed_from_u64(41);
    let scans: Vec<Scan> = (0..3)
        .map(|_| {
            let origin = Point3::new(
                rng.random_range(0.1..0.4),
                rng.random_range(0.1..0.4),
                rng.random_range(0.1..0.4),
            );
            let cloud: PointCloud = (0..40)
                .map(|_| {
                    Point3::new(
                        rng.random_range(0.5..4.0),
                        rng.random_range(0.5..4.0),
                        rng.random_range(0.5..4.0),
                    )
                })
                .collect();
            Scan::new(origin, cloud)
        })
        .collect();
    for shards in [1, 2, 4, 8] {
        assert_sharded_equivalence::<f32>(&scans, true, IntegrationMode::Raywise, shards, 0.1);
    }
}

#[test]
fn sharded_parallel_handles_branch_straddling_batches() {
    // Rays fanning out from the exact map origin cross into every
    // octant, so each scan's batch splits into runs for all 8 branches.
    let points: Vec<Point3> = (0..64)
        .map(|i| {
            let a = i as f64 * 0.098;
            let z = ((i % 9) as f64 - 4.0) * 0.5;
            Point3::new(3.0 * a.cos(), 3.0 * a.sin(), z)
        })
        .collect();
    let scans = vec![
        Scan::new(
            Point3::new(0.01, 0.01, 0.01),
            points.iter().copied().collect::<PointCloud>(),
        ),
        Scan::new(
            Point3::new(-0.01, -0.01, -0.01),
            points.into_iter().collect::<PointCloud>(),
        ),
    ];
    for shards in [1, 2, 4, 8] {
        for pruning in [true, false] {
            assert_sharded_equivalence::<f32>(
                &scans,
                pruning,
                IntegrationMode::Raywise,
                shards,
                0.1,
            );
        }
    }
}

#[test]
fn sharded_dedup_unions_lanes_above_the_fan_out_threshold() {
    // 3000-point dedup scans: the integrator's scan-global key sets feed
    // a batch large enough for the sharded walk to fan out to pool
    // workers, and must still match the scalar path bit for bit.
    let scans = random_scans(0xD3D0, 2, 3000);
    for shards in [2, 8] {
        assert_sharded_equivalence::<f32>(&scans, true, IntegrationMode::DedupPerScan, shards, 0.1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Persistence under the parallel engines: a map built through
    // `Engine::Sharded` round-trips through `to_bytes`/`from_bytes` and
    // `save_to_file`/`load_from_file` bit-identical to the scalar-built
    // equivalent — serialization must not depend on which engine (or how
    // many worker shards) produced the arena layout.
    #[test]
    fn sharded_built_maps_roundtrip_bit_identical_to_scalar(
        seed in any::<u64>(),
        nscans in 2usize..4,
        points in 20usize..50,
    ) {
        use omu::map::{Engine, MapBuilder, OccupancyMap};

        let scans = random_scans(seed, nscans, points);
        let shards = [1usize, 2, 4, 8][(seed % 4) as usize];
        let build = |engine: Engine| {
            let mut map = MapBuilder::new(0.1)
                .engine(engine)
                .max_range(Some(6.0))
                .build()
                .unwrap();
            for scan in &scans {
                map.insert(scan).unwrap();
            }
            map
        };
        let scalar = build(Engine::Scalar);
        let sharded = build(Engine::Sharded { shards });
        prop_assert_eq!(scalar.snapshot(), sharded.snapshot());

        // Byte round-trip of the sharded-built map lands exactly on the
        // scalar-built snapshot (and config).
        let restored = OccupancyMap::from_bytes(&sharded.to_bytes().unwrap()).unwrap();
        prop_assert_eq!(restored.snapshot(), scalar.snapshot());
        prop_assert_eq!(restored.resolution(), scalar.resolution());

        // File round-trip too (`save_to_file`/`load_from_file`).
        let path = std::env::temp_dir().join(format!(
            "omu_facade_roundtrip_{seed}_{shards}.omut"
        ));
        sharded.save_to_file(&path).unwrap();
        let reloaded = OccupancyMap::load_from_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(reloaded.snapshot(), scalar.snapshot());
        prop_assert_eq!(
            reloaded.to_bytes().unwrap(),
            scalar.to_bytes().unwrap(),
            "re-serialization is byte-stable across engines"
        );
    }
}

#[test]
fn sharded_accelerator_engine_matches_scalar_on_dataset() {
    let dataset = DatasetKind::Fr079Corridor.build_scaled(0.016);
    let config = config_for(DatasetKind::Fr079Corridor);
    let (scalar, s1) = omu::accel::run_accelerator(config.clone(), dataset.scans()).unwrap();
    let (sharded, s2) = omu::accel::run_accelerator_with_engine(
        config,
        dataset.scans(),
        UpdateEngine::ShardedParallel,
    )
    .unwrap();
    assert_eq!(scalar.snapshot(), sharded.snapshot());
    assert_eq!(s1.voxel_updates, s2.voxel_updates);
    // One contiguous run per PE per scan at most.
    assert!(sharded.morton_runs() > 0);
    assert!(sharded.morton_runs() <= s2.scans * 8);
}

#[test]
fn accelerator_batched_engine_matches_scalar_on_dataset() {
    let dataset = DatasetKind::Fr079Corridor.build_scaled(0.016);
    let config = config_for(DatasetKind::Fr079Corridor);
    let (scalar, s1) = omu::accel::run_accelerator(config.clone(), dataset.scans()).unwrap();
    let (batched, s2) = omu::accel::run_accelerator_with_engine(
        config,
        dataset.scans(),
        UpdateEngine::MortonBatched,
    )
    .unwrap();
    assert_eq!(scalar.snapshot(), batched.snapshot());
    assert_eq!(s1.voxel_updates, s2.voxel_updates);
    assert!(batched.morton_runs() > 0);
}

#[test]
fn queries_agree_between_engines() {
    let dataset = DatasetKind::Fr079Corridor.build_scaled(0.016);
    let config = config_for(DatasetKind::Fr079Corridor);
    let mut tree = verify::baseline_for(&config);
    let mut omu = OmuAccelerator::new(config).unwrap();
    for scan in dataset.scans() {
        tree.insert_scan(&scan).unwrap();
        omu.integrate_scan(&scan).unwrap();
    }
    // Probe around the first scan pose (the mapped region).
    let (center, _) = dataset.trajectory().poses(dataset.num_scans())[0];
    let mut rng = StdRng::seed_from_u64(5);
    let mut occupied_seen = 0;
    for _ in 0..2_000 {
        let p = Point3::new(
            center.x + rng.random_range(-5.0..5.0),
            center.y + rng.random_range(-4.0..4.0),
            center.z + rng.random_range(-1.5..1.8),
        );
        let sw = tree.occupancy_at(p).unwrap();
        let hw = omu.query_point(p).unwrap();
        assert_eq!(sw, hw, "engines disagree at {p}");
        if sw == Occupancy::Occupied {
            occupied_seen += 1;
        }
    }
    assert!(occupied_seen > 0, "probe set must touch occupied space");
}
