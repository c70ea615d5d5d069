//! The unified mapping facade: one [`OccupancyMap`] API over every
//! engine and backend of the OMU reproduction.
//!
//! The low-level layers expose their engines as methods — the software
//! octree's scalar `insert_scan` oracle and its sharded `insert_points`,
//! the accelerator model's `integrate_scan` / `integrate_scan_batched` /
//! `integrate_scan_sharded` schedules — and their query paths return two
//! different error types. This crate is the front door over all of it, modeled on
//! the unified occupancy interfaces of OHM (one map API over CPU/GPU
//! backends) and the VDB-mapping library (one insert/query facade):
//!
//! - [`MapBuilder`] resolves every knob up front — resolution, sensor
//!   model, [`Engine`] (the scalar oracle, or sharded over N workers),
//!   [`Backend`] (software octree in either value representation, or
//!   the OMU accelerator model), integration mode, max range, pruning,
//!   change detection.
//! - [`OccupancyMap`] unifies ingestion ([`OccupancyMap::insert`], the
//!   borrow-based [`OccupancyMap::insert_points`] integrating a point
//!   slice in place), one query surface on the map itself (occupancy,
//!   batched classification, ray casting, sphere collision probes,
//!   region iteration), change-set draining and persistence. A
//!   published [`MapSnapshot`] answers the same queries off the octree's
//!   one read path, so a snapshot and the live map share the cursor,
//!   the leaf walk and the encoder.
//! - [`MapBackend`] is the trait both
//!   [`OccupancyOctree`](omu_octree::OccupancyOctree) and
//!   [`OmuAccelerator`](omu_core::OmuAccelerator) implement, so engine
//!   and backend selection are *values*, not method names.
//! - [`MapError`] replaces the historical `KeyError`-vs-`AccelError`
//!   split with one error type; out-of-bounds coordinates are a typed
//!   variant, never a panic or a silent `Free`.
//!
//! Every engine produces bit-identical maps on every backend (the
//! fixed-point software backend matches the accelerator bit-for-bit);
//! the workspace equivalence suite enforces it.
//!
//! # Examples
//!
//! ```
//! use omu_map::{Backend, Engine, MapBuilder};
//! use omu_geometry::{Occupancy, Point3, PointCloud, Scan};
//!
//! # fn main() -> Result<(), omu_map::MapError> {
//! let mut map = MapBuilder::new(0.1)
//!     .engine(Engine::Sharded { shards: 8 })
//!     .max_range(Some(12.0))
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

mod backend;
mod builder;
mod durable;
mod engine;
mod error;
mod map;
mod service;
mod wal;

pub use backend::MapBackend;
pub use builder::{Backend, MapBuilder};
pub use durable::{
    DurabilityPolicy, DurableDir, DurableFile, FaultKind, FaultPlan, FaultyDir, RealDir,
};
pub use engine::{Engine, ParseEngineError, MAX_SHARDS};
pub use error::MapError;
pub use map::OccupancyMap;
pub use omu_raycast::FrontEnd;
pub use service::{
    ChangeSubscription, MapService, MapSnapshot, RecoveryReport, ServiceHealth, ServiceStats,
    CHANGE_RING_EPOCHS, DEFAULT_CHECKPOINT_EPOCHS,
};
