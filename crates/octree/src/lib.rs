//! A software reimplementation of the probabilistic OctoMap occupancy
//! octree (Hornung et al., 2013) — the CPU baseline that the OMU
//! accelerator paper characterizes and accelerates.
//!
//! The tree follows OctoMap semantics exactly:
//!
//! - Space is discretized into voxels addressed by depth-16
//!   [`VoxelKey`](omu_geometry::VoxelKey)s.
//! - Each node stores an occupancy log-odds value; a measurement update is
//!   one clamped addition (eq. 2 of the paper).
//! - Inner nodes hold the **maximum** of their children (eq. 3), updated
//!   eagerly on the way back up from each leaf update.
//! - When all 8 children of a node exist, are leaves, and hold the same
//!   value, they are **pruned** and the parent becomes a leaf; updating a
//!   voxel inside a pruned leaf **expands** it again.
//!
//! The tree is generic over the log-odds representation
//! ([`LogOdds`](omu_geometry::LogOdds)): [`OctreeF32`] is the
//! floating-point baseline, [`OctreeFixed`] runs the identical algorithm on
//! the accelerator's 16-bit fixed point, which is what makes bit-exact
//! software/accelerator equivalence testable.
//!
//! Storage follows the OMU paper's tree-memory layout: a node is a
//! value plus one packed 32-bit reference (`row << 8 | child_mask`) to
//! a contiguous *sibling row* of its 8 children — 64 B (one cache line)
//! for `f32` inner rows, and value-only 32 B leaf rows for depth-16
//! voxels. A descent step is a single dependent load, child presence is
//! a mask test, and parent refresh / prune checks sweep one row (see
//! the `arena` module docs and the README's "Memory layout" section).
//!
//! Every operation increments [`OpCounters`]; the CPU timing models in
//! `omu-cpumodel` convert those counts to seconds.
//!
//! Besides the scalar per-update path (`update_key`, `insert_scan` —
//! OctoMap's loop, the paper's CPU baseline and the test oracle), the
//! tree offers a **batched update engine** (`apply_update_batch`):
//! updates are Morton-sorted so the tree walk reuses the shared
//! root-path prefix between consecutive keys, repeated updates of one
//! voxel coalesce into run lengths (a miss run stops at the first miss
//! that changes nothing), and parent refresh + pruning are deferred to one
//! bottom-up pass per touched subtree — the software analogue of the
//! work amortization the OMU hardware gets from its PE × bank layout.
//!
//! The same walk can be **subtree-sharded** (`apply_update_batch_parallel`):
//! the arena is partitioned into one independently-ownable shard per
//! first-level branch (like the paper's per-PE T-Mem banks), a
//! Morton-sorted batch splits into ≤ 8 contiguous per-branch runs over
//! disjoint subtrees, and each run is queued on the tree's persistent
//! [`WorkerPool`] (no per-call thread spawns) before the shards reattach
//! and the root spine is finished once — bit-identical to the scalar
//! path, including operation counters. `insert_points(origin, points,
//! shards)` is the one production scan insert on top of both: the ray
//! front end streams into the group-by, the shard count sets how many
//! workers the walk fans out to, and a worker panic surfaces as a typed
//! [`TaskPanic`] (inside [`ParallelInsertError`]) with every shard
//! reattached first.
//!
//! The read side has one implementation of each algorithm: the
//! cached-descent [`DescentCursor`], the [`LeafIter`] (whole map or a key
//! box), the pre-order encoder behind `to_bytes` and the uncached
//! `search`. Each runs on one crate-private row view that the live tree
//! and its epoch [`Snapshot`]s build the same way, so a snapshot answers
//! through exactly the code the live tree answers through.
//!
//! # Examples
//!
//! ```
//! use omu_geometry::{Occupancy, Point3};
//! use omu_octree::OctreeF32;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut tree = OctreeF32::new(0.1)?;
//! let p = Point3::new(1.0, 0.5, 0.25);
//! tree.update_point(p, true)?;
//! assert_eq!(tree.occupancy_at(p)?, omu_geometry::Occupancy::Occupied);
//! assert_eq!(tree.occupancy_at(Point3::new(-1.0, 0.0, 0.0))?, Occupancy::Unknown);
//! # Ok(())
//! # }
//! ```

mod arena;
mod batch;
mod checksum;
mod counters;
mod insert;
mod io;
mod iter;
mod node;
mod query;
mod query_batch;
mod region;
mod serialize;
mod shard;
mod snapshot;
mod stats;
mod tree;
mod update;
mod walk;

pub use batch::{BatchStats, UpdateSink};
pub use checksum::{crc32, Crc32};
pub use counters::{OpCounters, QueryCounters};
pub use insert::ParallelInsertError;
pub use io::ReadError;
pub use iter::{LeafInfo, LeafIter};
pub use omu_pool::{PoolStats, TaskPanic, WorkerPool};
pub use query::{cast_ray_resuming, cast_ray_with, collides_sphere_with, RayCastResult};
pub use query_batch::{serve_morton_coalesced, DescentCursor};
pub use serialize::DeserializeError;
pub use snapshot::{Snapshot, SnapshotStats};
pub use stats::{MemoryStats, TreeStats};
pub use tree::{OccupancyOctree, OctreeF32, OctreeFixed};
