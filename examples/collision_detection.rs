//! Collision detection — the safety-critical query workload the paper's
//! introduction motivates (Fig. 1: the real-time 3D map serves collision
//! detect / motion planning).
//!
//! Builds a corridor map on both facade backends, then validates planned
//! robot paths against it through the **batched query surface**: one
//! `occupancy_batch` per path (Morton-coalesced cached descent on the
//! software tree, the voxel query unit's register file on the
//! accelerator), one `cast_rays` fan for the virtual bumper, sphere
//! probes riding the same cached-descent cursors — the same
//! `OccupancyMap` query methods either way.
//!
//! ```sh
//! cargo run --release --example collision_detection
//! ```

use omu::accel::OmuConfig;
use omu::datasets::DatasetKind;
use omu::geometry::{Occupancy, Point3};
use omu::map::{Backend, Engine, MapBuilder};
use omu::octree::RayCastResult;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = DatasetKind::Fr079Corridor.build_scaled(0.1);
    let spec = *dataset.spec();

    // Build the same map on both backends through one builder.
    let builder = || MapBuilder::new(spec.resolution).max_range(Some(spec.max_range));
    let mut tree = builder().engine(Engine::Sharded { shards: 8 }).build()?;
    let mut omu = builder()
        .backend(Backend::Accelerator(OmuConfig::default()))
        .build()?;
    for scan in dataset.scans() {
        tree.insert(&scan)?;
        omu.insert(&scan)?;
    }

    // A planned path down the corridor centre, and a bad one into a wall.
    let safe_path: Vec<Point3> = (0..20)
        .map(|i| Point3::new(-10.0 + i as f64, 0.0, 0.0))
        .collect();
    let bad_path: Vec<Point3> = (0..12)
        .map(|i| Point3::new(0.0, -0.5 + i as f64 * 0.25, 0.0))
        .collect();

    for (name, path) in [
        ("safe corridor path", &safe_path),
        ("path into the wall", &bad_path),
    ] {
        // (a) One batched voxel query per path — every waypoint
        // classified in a single Morton-coalesced sweep, on the
        // accelerator's voxel query unit.
        let verdict = omu
            .occupancy_batch(path)?
            .iter()
            .find_map(|&occ| match occ {
                Occupancy::Occupied => Some("COLLISION"),
                Occupancy::Unknown => Some("blocked by unknown space"),
                Occupancy::Free => None,
            })
            .unwrap_or("clear");
        // (b) Software sphere probes with the robot's 0.3 m radius (the
        // grid sweep inside each ball rides the cached-descent cursor).
        let mut sphere_hit = false;
        for &p in path {
            if tree.collides_sphere(p, 0.3)? {
                sphere_hit = true;
                break;
            }
        }
        println!(
            "{name:<22} voxel query: {verdict:<24} sphere probe: {}",
            if sphere_hit { "COLLISION" } else { "clear" }
        );
    }

    // Virtual bumper: one batched cast_rays fan from the robot's pose —
    // consecutive DDA steps share almost their whole root path, so each
    // probe is amortized O(1) instead of a full descent.
    println!("\nvirtual bumper (one cast_rays batch from the corridor centre):");
    let bumper = [
        ("ahead  (+x)", Point3::new(1.0, 0.0, 0.0)),
        ("left   (+y)", Point3::new(0.0, 1.0, 0.0)),
        ("up     (+z)", Point3::new(0.0, 0.0, 1.0)),
    ];
    let rays: Vec<(Point3, Point3)> = bumper
        .iter()
        .map(|&(_, dir)| (Point3::new(0.0, 0.0, 0.0), dir))
        .collect();
    for ((label, _), result) in bumper.iter().zip(tree.cast_rays(&rays, 10.0, true)?) {
        match result {
            RayCastResult::Hit { point, .. } => {
                println!("  {label}: obstacle at {:.2} m ({point})", point.norm())
            }
            RayCastResult::MaxRangeReached => println!("  {label}: clear for 10 m"),
            RayCastResult::UnknownBlocked { .. } => println!("  {label}: unknown space"),
        }
    }

    // Read-side telemetry from both backends.
    let c = tree.query_counters().expect("software tree counts queries");
    println!(
        "\nsoftware read path: {} probes, {} rays, prefix reuse {:.1} %",
        c.probes,
        c.rays,
        c.prefix_reuse_rate() * 100.0
    );
    let q = omu
        .accelerator()
        .expect("accelerator backend")
        .query_unit_stats();
    println!(
        "voxel query unit: {} queries ({} batched) at {:.1} cycles mean latency, \
         {} levels replayed from path registers ({} cycles saved)",
        q.queries,
        q.batch_queries,
        q.mean_latency(),
        q.reused_levels,
        q.saved_cycles
    );
    Ok(())
}
