//! Ray casting for probabilistic occupancy mapping.
//!
//! This crate reimplements the ray-casting kernel of OctoMap that the OMU
//! accelerator paper builds on (Fig. 1 and Section V "Ray Casting and Voxel
//! Queues"):
//!
//! - [`compute_ray_keys`] — the Amanatides–Woo 3D digital differential
//!   analyzer that enumerates the voxels a sensor ray traverses between its
//!   origin and its endpoint (OctoMap's `computeRayKeys`). The endpoint's
//!   voxel is *excluded*: traversed voxels are observed free, the endpoint
//!   is observed occupied.
//! - [`RayWalk`] — an open-ended DDA iterator used for query-style ray
//!   casting (e.g. collision probing) where no endpoint is known up front.
//! - [`RayPacket`] — the structure-of-arrays packet front end: 8 rays
//!   stepped in lockstep through the same DDA with an active-lane mask,
//!   emitting per-ray voxel sequences bit-identical to the scalar walk.
//!   [`FrontEnd`] selects which implementation the integrators run
//!   (packet by default).
//! - [`ScanIntegrator`] — turns a full [`Scan`](omu_geometry::Scan) into a stream of per-voxel
//!   hit/miss updates, in either of two modes (see [`IntegrationMode`]):
//!   the paper's raywise mode (no overlap dedup — what the OMU hardware
//!   executes and what Table II counts as "voxel updates") and OctoMap's
//!   software dedup mode. It is the one scan front end: the octree's
//!   batch engine consumes its emission as it streams, the software
//!   counterpart of the ray-casting unit feeding the PEs' voxel queues.
//!
//! # Examples
//!
//! ```
//! use omu_geometry::{KeyConverter, Point3};
//! use omu_raycast::{compute_ray_keys, KeyRay};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let conv = KeyConverter::new(0.1)?;
//! let mut ray = KeyRay::new();
//! compute_ray_keys(&conv, Point3::ZERO, Point3::new(1.0, 0.0, 0.0), &mut ray)?;
//! assert_eq!(ray.len(), 10); // ten 0.1 m cells traversed, endpoint excluded
//! # Ok(())
//! # }
//! ```

mod dda;
mod integrate;
mod keyray;
mod packet;

pub use dda::{compute_ray_keys, RayWalk};
pub use integrate::{IntegrationMode, IntegrationStats, ScanIntegrator, VoxelUpdate};
pub use keyray::KeyRay;
pub use packet::{FrontEnd, LaneOutcome, PacketStats, RayPacket, PACKET_LANES};
