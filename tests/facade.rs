//! Facade-level equivalence: every `omu::map::Engine` variant must
//! produce the identical map for the same scan sequence, on both the
//! software and the accelerator backend — the facade's core contract
//! (engine selection is a knob, never a semantic choice).

use omu::accel::OmuConfig;
use omu::geometry::{Occupancy, Point3, PointCloud, Scan};
use omu::map::{Backend, Engine, MapBuilder, MapError, OccupancyMap};
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

fn build(backend: Backend, engine: Engine) -> OccupancyMap {
    MapBuilder::new(0.1)
        .engine(engine)
        .backend(backend)
        .max_range(Some(6.0))
        .build()
        .unwrap()
}

/// All engines: identical snapshots per backend; the batch-family
/// engines additionally agree on the full `OpCounters` record, and every
/// engine (including scalar) performs the same ray-casting work.
#[test]
fn every_engine_is_bit_identical_on_every_backend() {
    let scans = random_scans(2026, 3, 40);
    for backend in [
        Backend::Software,
        Backend::SoftwareFixed,
        Backend::Accelerator(OmuConfig::default()),
    ] {
        let mut maps: Vec<OccupancyMap> = Engine::ALL
            .iter()
            .map(|&engine| {
                let mut m = build(backend.clone(), engine);
                for scan in &scans {
                    m.insert(scan).unwrap();
                }
                m
            })
            .collect();

        let reference = maps[0].snapshot(); // scalar
        assert!(reference.len() > 500, "non-trivial map");
        for map in &maps {
            assert_eq!(
                map.snapshot(),
                reference,
                "{} diverged from scalar on the {} backend",
                map.engine(),
                map.backend_name()
            );
        }

        match backend {
            Backend::Accelerator(_) => {
                // The accelerator accounts in AccelStats: same workload
                // executed regardless of front end.
                let updates: Vec<u64> = maps
                    .iter()
                    .map(|m| m.accelerator().unwrap().stats().voxel_updates)
                    .collect();
                assert!(updates.windows(2).all(|w| w[0] == w[1]), "{updates:?}");
            }
            _ => {
                // Every shard count shares one tree-maintenance schedule:
                // identical OpCounters bit for bit. The scalar engine does
                // the same ray casting but eager per-update maintenance,
                // so only dda_steps is comparable across the
                // scalar/batched line.
                let batched = maps[1].counters().unwrap();
                for m in &mut maps[2..] {
                    assert_eq!(
                        m.counters().unwrap(),
                        batched,
                        "{}: counters diverged from batched",
                        m.engine()
                    );
                }
                let scalar = maps[0].counters().unwrap();
                assert_eq!(scalar.dda_steps, batched.dda_steps);
                assert_eq!(
                    scalar.leaf_updates + scalar.saturated_skips,
                    batched.batch_updates
                );
            }
        }
    }
}

/// Cross-backend bit-identity: on the accelerator's 16-bit fixed point,
/// the software backend and the accelerator model hold the same map for
/// every engine.
#[test]
fn software_fixed_and_accelerator_agree_for_every_engine() {
    let scans = random_scans(7, 3, 40);
    for engine in Engine::ALL {
        let mut sw = build(Backend::SoftwareFixed, engine);
        let mut hw = build(Backend::Accelerator(OmuConfig::default()), engine);
        for scan in &scans {
            let a = sw.insert(scan).unwrap();
            let b = hw.insert(scan).unwrap();
            assert_eq!(a, b, "{engine}: integration stats diverged");
        }
        assert_eq!(sw.snapshot(), hw.snapshot(), "{engine}: maps diverged");
    }
}

/// Engine switching mid-stream is safe: the map is engine-independent.
#[test]
fn engine_can_change_between_scans() {
    let scans = random_scans(99, 4, 30);
    let mut fixed = build(Backend::Software, Engine::default());
    let mut rotating = build(Backend::Software, Engine::Scalar);
    for (i, scan) in scans.iter().enumerate() {
        rotating
            .set_engine(Engine::ALL[i % Engine::ALL.len()])
            .unwrap();
        fixed.insert(scan).unwrap();
        rotating.insert(scan).unwrap();
    }
    assert_eq!(fixed.snapshot(), rotating.snapshot());
}

/// The unified error surface: out-of-bounds is the same typed variant on
/// both backends, for points and for scan origins.
#[test]
fn out_of_bounds_is_uniformly_typed() {
    for backend in [
        Backend::Software,
        Backend::Accelerator(OmuConfig::default()),
    ] {
        let mut map = build(backend, Engine::default());
        let far = map.converter().map_half_extent() + 10.0;
        let p = Point3::new(far, 0.0, 0.0);
        assert!(matches!(map.occupancy_at(p), Err(MapError::OutOfBounds(_))));
        assert!(matches!(
            map.insert(&Scan::new(p, PointCloud::new())),
            Err(MapError::OutOfBounds(_))
        ));
        // In-map queries stay infallible by key and classified Unknown.
        assert_eq!(
            map.occupancy(omu::geometry::VoxelKey::ORIGIN),
            Occupancy::Unknown
        );
    }
}

/// T-Mem exhaustion surfaces as the typed capacity variant through the
/// facade.
#[test]
fn capacity_error_is_typed() {
    let config = OmuConfig::builder().rows_per_bank(16).build().unwrap();
    let mut map = build(Backend::Accelerator(config), Engine::default());
    let scan = Scan::new(
        Point3::ZERO,
        (0..64)
            .map(|i| {
                let a = i as f64 * 0.1;
                Point3::new(6.0 * a.cos(), 6.0 * a.sin(), 1.0)
            })
            .collect::<PointCloud>(),
    );
    assert!(matches!(map.insert(&scan), Err(MapError::Capacity(_))));
}
