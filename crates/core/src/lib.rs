//! The OMU accelerator model — the primary contribution of *"OMU: A
//! Probabilistic 3D Occupancy Mapping Accelerator for Real-time OctoMap at
//! the Edge"* (Jia et al., DATE 2022), reproduced as a transaction-level
//! simulator with exact cycle, SRAM-access, energy and area accounting.
//!
//! # Architecture (paper Figs. 4–7)
//!
//! ```text
//!  3D point cloud ──► RayCastUnit ──► free/occupied voxel queues
//!                                          │
//!                                   VoxelScheduler (branch ID → PE)
//!                    ┌────────┬────────┬───┴────┬────────┐
//!                    ▼        ▼        ▼        ▼        ▼
//!                  PE-0     PE-1     ...      PE-7    (8 PEs)
//!                 8×32 kB  8×32 kB           8×32 kB
//!                 T-Mem    T-Mem             T-Mem
//!                    │ PruneAddrManager (stack) per PE │
//!                    └────────────── VoxelQueryUnit ◄──┘
//! ```
//!
//! - [`NodeEntry`] — the 64-bit packed node format:
//!   `pointer[63:32] | child tags[31:16] | fixed-point log-odds[15:0]`.
//! - [`TreeMem`] — 8 parallel single-port SRAM banks per PE; the 8
//!   children of a node share one row (child *i* in bank *i*), so a parent
//!   update or prune check reads all children in **one cycle**.
//! - [`PruneAddrManager`] — a stack of pruned row pointers, recycled on
//!   expansion, keeping SRAM utilization high.
//! - [`PeUnit`] — the update datapath: descend (create/expand as needed),
//!   leaf update, bottom-up parent update + prune, with per-stage cycle
//!   accounting.
//! - [`VoxelScheduler`] — routes updates to PEs by first-level branch ID
//!   and models the bounded per-PE input queues.
//! - [`OmuAccelerator`] — the full device: scan integration pipeline
//!   (ray casting overlapped with updates, AXI DMA model), queries, and
//!   reporting (energy/power/area).
//!
//! The accelerator's map is **bit-identical** to the software baseline
//! running on the same 16-bit fixed point
//! ([`OctreeFixed`](omu_octree::OctreeFixed)); [`verify`] provides the
//! equivalence checker used by the test suite.
//!
//! # Examples
//!
//! ```
//! use omu_core::{OmuAccelerator, OmuConfig};
//! use omu_geometry::{Occupancy, Point3, PointCloud, Scan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut omu = OmuAccelerator::new(OmuConfig::default())?;
//! let scan = Scan::new(
//!     Point3::ZERO,
//!     [Point3::new(1.5, 0.2, 0.1)].into_iter().collect::<PointCloud>(),
//! );
//! omu.integrate_scan(&scan)?;
//! assert_eq!(omu.query_point(Point3::new(1.5, 0.2, 0.1))?, Occupancy::Occupied);
//! assert!(omu.stats().wall_cycles > 0);
//! # Ok(())
//! # }
//! ```

mod accel;
mod config;
mod entry;
mod error;
mod pe;
mod pipeline;
mod prune_mgr;
mod query_unit;
mod raycast_unit;
mod report;
mod scheduler;
mod stats;
mod treemem;
pub mod verify;

pub use accel::OmuAccelerator;
pub use config::{OmuConfig, OmuConfigBuilder, PeTiming};
pub use entry::{ChildStatus, NodeEntry, NULL_PTR};
pub use error::{AccelError, CapacityError, ConfigError};
pub use pe::{PeQueryCursor, PeQueryOutcome, PeUnit, PeUpdateOutcome};
pub use pipeline::{
    run_accelerator, run_accelerator_with_engine, summarize, AccelRunSummary, UpdateEngine,
};
pub use prune_mgr::{PruneAddrManager, PruneMgrStats};
pub use query_unit::QueryUnitStats;
pub use raycast_unit::RayCastUnit;
pub use report::{area_model, floorplan_ascii};
pub use scheduler::VoxelScheduler;
pub use stats::{AccelStats, PeStageCycles, PeStats};
pub use treemem::TreeMem;
