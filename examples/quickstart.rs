//! Quickstart: build a probabilistic 3D map through the unified
//! `omu::map` facade, backed by the OMU accelerator model, and query it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use omu::accel::OmuConfig;
use omu::geometry::{Occupancy, Point3, PointCloud, Scan};
use omu::map::{Backend, Engine, MapBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One map API over every engine and backend. Here: the paper's
    // design point (8 PEs × 8 × 32 kB banks, 1 GHz) behind the facade,
    // fed by the 8-PE sharded update schedule.
    let mut map = MapBuilder::new(0.2)
        .engine(Engine::Sharded { shards: 8 })
        .backend(Backend::Accelerator(OmuConfig::default()))
        .build()?;

    // One synthetic scan: a ring of wall points around the sensor.
    let origin = Point3::new(0.1, 0.1, 0.1);
    let cloud: PointCloud = (0..360)
        .map(|deg| {
            let a = (deg as f64).to_radians();
            Point3::new(4.0 * a.cos(), 4.0 * a.sin(), 0.3)
        })
        .collect();
    let stats = map.insert(&Scan::new(origin, cloud))?;
    println!(
        "integrated {} rays -> {} voxel updates",
        stats.rays,
        stats.total_updates()
    );

    // Query the map: wall voxels are occupied, the space crossed by the
    // rays is free, and everything beyond the wall is still unknown.
    let wall = Point3::new(4.0, 0.0, 0.3);
    let free = Point3::new(2.0, 0.0, 0.2);
    let unseen = Point3::new(8.0, 0.0, 0.3);
    println!("{wall}  -> {}", map.occupancy_at(wall)?);
    println!("{free}  -> {}", map.occupancy_at(free)?);
    println!("{unseen}  -> {}", map.occupancy_at(unseen)?);
    assert_eq!(map.occupancy_at(wall)?, Occupancy::Occupied);
    assert_eq!(map.occupancy_at(free)?, Occupancy::Free);
    assert_eq!(map.occupancy_at(unseen)?, Occupancy::Unknown);

    // The accelerator backend accounts every cycle and SRAM access; the
    // low-level model stays reachable behind the facade.
    let omu = map.accelerator().expect("accelerator backend");
    let stats = omu.stats();
    println!("\nvoxel updates:   {}", stats.voxel_updates);
    println!("wall cycles:     {}", stats.wall_cycles);
    println!("SRAM accesses:   {}", stats.sram_total().accesses());
    println!(
        "elapsed:         {:.3} ms at 1 GHz",
        omu.elapsed_seconds() * 1e3
    );
    println!("\n{}", omu.power_report());
    Ok(())
}
