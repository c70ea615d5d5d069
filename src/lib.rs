//! OMU: a reproduction of *"OMU: A Probabilistic 3D Occupancy Mapping
//! Accelerator for Real-time OctoMap at the Edge"* (Jia et al., DATE 2022)
//! as a Rust workspace.
//!
//! # The front door: `omu::map`
//!
//! [`map`] is the unified facade: [`map::MapBuilder`] resolves every
//! knob up front (resolution, sensor model, update [`map::Engine`],
//! [`map::Backend`], integration mode, max range, pruning, change
//! detection) and [`map::OccupancyMap`] serves one insert/query/persist
//! API over both the software octree and the accelerator model, with
//! one error type ([`map::MapError`]). Every engine produces
//! bit-identical maps on every backend.
//!
//! ```
//! use omu::map::{Backend, Engine, MapBuilder};
//! use omu::accel::OmuConfig;
//! use omu::geometry::{Occupancy, Point3, PointCloud, Scan};
//!
//! # fn main() -> Result<(), omu::map::MapError> {
//! // The paper's design point: the OMU accelerator model behind the
//! // unified map API, fed by the 8-PE sharded update schedule.
//! let mut map = MapBuilder::new(0.2)
//!     .engine(Engine::Sharded { shards: 8 })
//!     .backend(Backend::Accelerator(OmuConfig::default()))
//!     .build()?;
//! let scan = Scan::new(
//!     Point3::ZERO,
//!     [Point3::new(1.0, 0.0, 0.25)].into_iter().collect::<PointCloud>(),
//! );
//! map.insert(&scan)?;
//! assert_eq!(
//!     map.occupancy_at(Point3::new(1.0, 0.0, 0.25))?,
//!     Occupancy::Occupied
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # The low-level layer
//!
//! The component crates remain available for direct use (the facade is
//! built from them):
//!
//! - [`geometry`] — points, voxel keys, log-odds, fixed point.
//! - [`pool`] — the persistent worker pool behind every parallel engine.
//! - [`raycast`] — 3D DDA ray casting and scan integration.
//! - [`octree`] — the software OctoMap baseline (probabilistic octree).
//! - [`simhw`] — hardware modeling substrate (SRAM, cycles, energy, area).
//! - [`cpumodel`] — calibrated CPU timing models (i9-9940X, Cortex-A57).
//! - [`datasets`] — synthetic stand-ins for the OctoMap 3D scan dataset.
//! - [`accel`] — the OMU accelerator model itself (`omu-core`).

pub use omu_core as accel;
pub use omu_cpumodel as cpumodel;
pub use omu_datasets as datasets;
pub use omu_geometry as geometry;
pub use omu_map as map;
pub use omu_octree as octree;
pub use omu_pool as pool;
pub use omu_raycast as raycast;
pub use omu_simhw as simhw;
