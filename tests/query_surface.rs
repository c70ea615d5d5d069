//! Query-surface validation: the facade's `cast_ray` and
//! `collides_sphere` are checked against brute-force geometry on small
//! random maps, for both backends. The brute force never walks the ray —
//! it enumerates every occupied finest voxel from the map snapshot and
//! intersects analytically — so an error in the DDA walk, in the
//! unknown-space handling or in a backend's query path cannot cancel
//! out.

use omu::accel::OmuConfig;
use omu::geometry::{KeyConverter, Occupancy, Point3, PointCloud, Scan, VoxelKey, TREE_DEPTH};
use omu::map::{Backend, Engine, MapBuilder, MapError, OccupancyMap};
use omu::octree::RayCastResult;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RES: f64 = 0.1;

fn random_map_scans(seed: u64) -> Vec<Scan> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..2)
        .map(|_| {
            let origin = Point3::new(
                rng.random_range(-0.4..0.4),
                rng.random_range(-0.4..0.4),
                rng.random_range(-0.3..0.3),
            );
            let cloud: PointCloud = (0..30)
                .map(|_| {
                    Point3::new(
                        rng.random_range(-2.5..2.5),
                        rng.random_range(-2.5..2.5),
                        rng.random_range(-1.0..1.0),
                    )
                })
                .collect();
            Scan::new(origin, cloud)
        })
        .collect()
}

fn backends() -> Vec<OccupancyMap> {
    vec![
        MapBuilder::new(RES).build().unwrap(),
        MapBuilder::new(RES)
            .backend(Backend::Accelerator(OmuConfig::default()))
            .engine(Engine::Sharded { shards: 8 })
            .build()
            .unwrap(),
    ]
}

/// Every occupied *finest* voxel of the map, expanded from the snapshot
/// (pruned occupied leaves cover whole cubes). Classification goes back
/// through the map's own query path so the expansion agrees with the
/// backend's thresholds exactly.
fn occupied_voxels(map: &mut OccupancyMap) -> Vec<VoxelKey> {
    let mut out = Vec::new();
    for (key, depth, _) in map.snapshot() {
        if map.occupancy(key) != Occupancy::Occupied {
            continue;
        }
        let span = 1u16 << (TREE_DEPTH - depth);
        for dx in 0..span {
            for dy in 0..span {
                for dz in 0..span {
                    out.push(VoxelKey::new(key.x + dx, key.y + dy, key.z + dz));
                }
            }
        }
    }
    out
}

/// Entry distance of the ray into a voxel's axis-aligned box (slab
/// method), or `None` when the ray misses it. `dir` must be normalized;
/// distances are metres along the ray, clamped at 0 for boxes containing
/// the origin.
fn ray_box_entry(conv: &KeyConverter, origin: Point3, dir: Point3, key: VoxelKey) -> Option<f64> {
    let c = conv.key_to_coord(key);
    let half = conv.resolution() / 2.0;
    let (mut t0, mut t1) = (f64::NEG_INFINITY, f64::INFINITY);
    for (o, d, lo, hi) in [
        (origin.x, dir.x, c.x - half, c.x + half),
        (origin.y, dir.y, c.y - half, c.y + half),
        (origin.z, dir.z, c.z - half, c.z + half),
    ] {
        if d.abs() < 1e-12 {
            if o < lo || o > hi {
                return None;
            }
            continue;
        }
        let (a, b) = ((lo - o) / d, (hi - o) / d);
        t0 = t0.max(a.min(b));
        t1 = t1.min(a.max(b));
    }
    (t1 >= t0 && t1 >= 0.0).then(|| t0.max(0.0))
}

fn ray_directions(seed: u64) -> Vec<Point3> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    (0..6)
        .map(|_| {
            let theta: f64 = rng.random_range(0.0..std::f64::consts::TAU);
            let z: f64 = rng.random_range(-0.9..0.9);
            let r = (1.0 - z * z).sqrt();
            Point3::new(r * theta.cos(), r * theta.sin(), z)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // `cast_ray` through the facade finds exactly the occupied voxel
    // with the smallest ray-entry distance, on both backends.
    #[test]
    fn cast_ray_matches_brute_force_on_both_backends(seed in any::<u64>()) {
        let scans = random_map_scans(seed);
        let max_range = 6.0;
        for mut map in backends() {
            for scan in &scans {
                map.insert(scan).unwrap();
            }
            let occupied = occupied_voxels(&mut map);
            prop_assert!(!occupied.is_empty(), "maps must contain walls");
            let conv = *map.converter();
            let origin = scans[0].origin;

            for dir in ray_directions(seed) {
                let result = map.cast_ray(origin, dir, max_range, true).unwrap();
                let best = occupied
                    .iter()
                    .filter_map(|&k| ray_box_entry(&conv, origin, dir, k).map(|t| (k, t)))
                    .min_by(|a, b| a.1.total_cmp(&b.1));

                match (result, best) {
                    (RayCastResult::Hit { key, point, logodds }, Some((bk, bt))) => {
                        prop_assert!(
                            bt <= max_range + RES,
                            "{}: hit beyond brute-force range", map.backend_name()
                        );
                        prop_assert_eq!(
                            key, bk,
                            "{}: hit {:?} but brute force says {:?} (t = {:.3})",
                            map.backend_name(), key, bk, bt
                        );
                        prop_assert_eq!(point, conv.key_to_coord(key));
                        prop_assert_eq!(map.logodds(key), Some(logodds));
                        prop_assert_eq!(map.occupancy(key), Occupancy::Occupied);
                    }
                    (RayCastResult::MaxRangeReached, None) => {}
                    (RayCastResult::MaxRangeReached, Some((_, bt))) => {
                        // The only legitimate misses sit at the range
                        // boundary (the walk stops at max_range) or
                        // graze a box corner with zero chord length.
                        prop_assert!(
                            bt > max_range - RES,
                            "{}: walk missed an occupied voxel at t = {:.3}",
                            map.backend_name(), bt
                        );
                    }
                    (other, best) => {
                        prop_assert!(
                            false,
                            "{}: unexpected combination {:?} vs {:?}",
                            map.backend_name(), other, best
                        );
                    }
                }
            }
        }
    }

    // `collides_sphere` through the facade agrees with the analytic
    // check over all occupied voxels, on both backends.
    #[test]
    fn collides_sphere_matches_brute_force_on_both_backends(seed in any::<u64>()) {
        let scans = random_map_scans(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let probes: Vec<(Point3, f64)> = (0..12)
            .map(|_| {
                (
                    Point3::new(
                        rng.random_range(-2.5..2.5),
                        rng.random_range(-2.5..2.5),
                        rng.random_range(-1.0..1.0),
                    ),
                    rng.random_range(0.05..0.6),
                )
            })
            .collect();

        for mut map in backends() {
            for scan in &scans {
                map.insert(scan).unwrap();
            }
            let occupied = occupied_voxels(&mut map);
            let conv = *map.converter();

            for &(center, radius) in &probes {
                let got = map.collides_sphere(center, radius).unwrap();
                // The probe scans the voxel grid inside the sphere's
                // bounding cube and accepts centres within r plus half a
                // voxel diagonal.
                let lo = conv.coord_to_key(center - Point3::splat(radius)).unwrap();
                let hi = conv.coord_to_key(center + Point3::splat(radius)).unwrap();
                let expected = occupied.iter().any(|&k| {
                    (lo.x..=hi.x).contains(&k.x)
                        && (lo.y..=hi.y).contains(&k.y)
                        && (lo.z..=hi.z).contains(&k.z)
                        && conv.key_to_coord(k).distance(center) <= radius + RES * 0.866
                });
                prop_assert_eq!(
                    got, expected,
                    "{}: sphere at {} r = {:.2}",
                    map.backend_name(), center, radius
                );
            }
        }
    }
}

/// Fisher–Yates shuffle with a seeded generator (the vendored `rand`
/// has no `shuffle`).
fn shuffled<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFF1E);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..i + 1));
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The batched/cursor query engines are bit-identical to the
    // per-probe path on every backend, with pruning on and off, for any
    // input order: `occupancy_batch_keys` vs per-key `occupancy`, and
    // cached `cast_ray` / batched `cast_rays` vs a reference cast that
    // probes every DDA step through the scalar path. On the software
    // backends an epoch snapshot published after those answers must keep
    // giving them while the live map takes one more scan: the snapshot
    // reads through the same cursor and leaf walk, over its frozen rows.
    #[test]
    fn batched_queries_bit_identical_to_per_probe(seed in any::<u64>(), pruning in any::<bool>()) {
        let scans = random_map_scans(seed);
        let max_range = 6.0;
        let maps = vec![
            // Software, sequential batched reads.
            MapBuilder::new(RES).pruning(pruning).build().unwrap(),
            // Software, built by the 4-shard write walk.
            MapBuilder::new(RES)
                .pruning(pruning)
                .engine(Engine::Sharded { shards: 4 })
                .build()
                .unwrap(),
            // Software, fixed point.
            MapBuilder::new(RES)
                .pruning(pruning)
                .backend(Backend::SoftwareFixed)
                .build()
                .unwrap(),
            // Accelerator voxel query unit.
            MapBuilder::new(RES)
                .pruning(pruning)
                .backend(Backend::Accelerator(OmuConfig::default()))
                .build()
                .unwrap(),
        ];
        for mut map in maps {
            for scan in &scans {
                map.insert(scan).unwrap();
            }
            let name = map.backend_name();
            let engine = map.engine();

            // A probe batch mixing occupied voxels, unknown space and
            // exact duplicates, in shuffled (non-Morton) order.
            let mut keys = occupied_voxels(&mut map);
            keys.truncate(200);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
            keys.extend((0..200).map(|_| {
                VoxelKey::new(
                    rng.random_range(32700..32840),
                    rng.random_range(32700..32840),
                    rng.random_range(32758..32788),
                )
            }));
            let dups: Vec<VoxelKey> = keys.iter().take(40).copied().collect();
            keys.extend(dups);
            let keys = shuffled(keys, seed);

            let expected: Vec<Occupancy> = keys.iter().map(|&k| map.occupancy(k)).collect();
            let got = map.occupancy_batch_keys(&keys);
            prop_assert_eq!(&got, &expected, "{} ({}): occupancy_batch_keys", name, engine);

            // Cached and batched ray casting vs the per-probe reference.
            let origin = scans[0].origin;
            let conv = *map.converter();
            let mut live_rays = Vec::new();
            for dir in ray_directions(seed) {
                for ignore in [true, false] {
                    let reference = omu::octree::cast_ray_with(
                        &conv, origin, dir, max_range, ignore,
                        |key| match map.occupancy(key) {
                            Occupancy::Occupied => (
                                Occupancy::Occupied,
                                map.logodds(key).expect("occupied voxel must hold a value"),
                            ),
                            other => (other, 0.0),
                        },
                    ).unwrap();
                    let cached = map.cast_ray(origin, dir, max_range, ignore).unwrap();
                    prop_assert_eq!(
                        cached, reference,
                        "{} ({}): cast_ray {} ignore={}", name, engine, dir, ignore
                    );
                    live_rays.push((dir, ignore, cached));
                }
            }
            let rays: Vec<(Point3, Point3)> =
                ray_directions(seed).into_iter().map(|d| (origin, d)).collect();
            let singles: Vec<RayCastResult> = rays
                .iter()
                .map(|&(o, d)| map.cast_ray(o, d, max_range, false).unwrap())
                .collect();
            let batch = map.cast_rays(&rays, max_range, false).unwrap();
            prop_assert_eq!(&batch, &singles, "{} ({}): cast_rays", name, engine);

            let lo = conv.coord_to_key(Point3::new(-1.5, -1.5, -0.6)).unwrap();
            let hi = conv.coord_to_key(Point3::new(1.5, 1.5, 0.6)).unwrap();
            let live_leaves = map.leaves_in_box(lo, hi);
            let snap = match map.publish_snapshot() {
                Ok(snap) => snap,
                // The accelerator model serves no snapshots.
                Err(MapError::Unsupported { .. }) => continue,
                Err(e) => panic!("{name}: publish_snapshot: {e}"),
            };
            map.insert(&random_map_scans(seed ^ 0x5CA7)[0]).unwrap();
            prop_assert!(
                map.leaves_in_box(lo, hi) != live_leaves,
                "{} ({}): the extra scan must move the live map", name, engine
            );
            prop_assert_eq!(
                snap.occupancy_batch_keys(&keys), expected,
                "{} ({}): snapshot occupancy_batch_keys", name, engine
            );
            for (dir, ignore, want) in live_rays {
                prop_assert_eq!(
                    snap.cast_ray(origin, dir, max_range, ignore).unwrap(), want,
                    "{} ({}): snapshot cast_ray {} ignore={}", name, engine, dir, ignore
                );
            }
            prop_assert_eq!(
                snap.cast_rays(&rays, max_range, false).unwrap(), batch,
                "{} ({}): snapshot cast_rays", name, engine
            );
            prop_assert_eq!(
                snap.leaves_in_box(lo, hi), live_leaves,
                "{} ({}): snapshot leaves_in_box", name, engine
            );
        }
    }
}

/// Unknown-space blocking: with `ignore_unknown = false` both backends
/// stop at the same first unknown voxel (bit-identical maps on fixed
/// point make this exact).
#[test]
fn unknown_blocking_agrees_across_backends() {
    let scans = random_map_scans(11);
    let mut sw = MapBuilder::new(RES)
        .backend(Backend::SoftwareFixed)
        .build()
        .unwrap();
    let mut hw = MapBuilder::new(RES)
        .backend(Backend::Accelerator(OmuConfig::default()))
        .build()
        .unwrap();
    for scan in &scans {
        sw.insert(scan).unwrap();
        hw.insert(scan).unwrap();
    }
    let origin = scans[0].origin;
    let mut blocked = 0;
    for dir in ray_directions(11) {
        let a = sw.cast_ray(origin, dir, 8.0, false).unwrap();
        let b = hw.cast_ray(origin, dir, 8.0, false).unwrap();
        assert_eq!(a, b, "direction {dir}");
        if matches!(a, RayCastResult::UnknownBlocked { .. }) {
            blocked += 1;
        }
    }
    assert!(blocked > 0, "some rays must leave the observed cone");
}
