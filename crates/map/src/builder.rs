//! Map construction: every knob resolved up front.

use std::path::PathBuf;
use std::sync::Arc;

use omu_core::{OmuAccelerator, OmuConfig};
use omu_geometry::OccupancyParams;
use omu_octree::{OctreeF32, OctreeFixed, WorkerPool};
use omu_raycast::{FrontEnd, IntegrationMode};

use crate::durable::{DurabilityPolicy, DurableDir, RealDir};
use crate::engine::Engine;
use crate::error::MapError;
use crate::map::{Inner, OccupancyMap};

/// Where the durability layer stores its blobs: a filesystem path
/// (resolved to a [`RealDir`] at spawn time) or an injected store.
#[derive(Debug, Clone)]
pub(crate) enum DurabilityTarget {
    Path(PathBuf),
    Store(Arc<dyn DurableDir>),
}

/// A resolved durability configuration: the live store (possibly
/// fault-wrapped) and the checkpoint policy, or `None` when the
/// builder has no durability directory.
pub(crate) type DurabilitySetup = Option<(Arc<dyn DurableDir>, DurabilityPolicy)>;

/// Which map-holding engine backs an [`OccupancyMap`].
///
/// # Examples
///
/// ```
/// use omu_map::{Backend, MapBuilder};
/// use omu_core::OmuConfig;
///
/// // Software octree (f32 log-odds, OctoMap's native representation):
/// let sw = MapBuilder::new(0.1).build()?;
/// // Accelerator model at the paper's design point:
/// let hw = MapBuilder::new(0.1)
///     .backend(Backend::Accelerator(OmuConfig::default()))
///     .build()?;
/// assert_eq!(sw.resolution(), hw.resolution());
/// # Ok::<(), omu_map::MapError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// The software octree on `f32` log-odds (the default; OctoMap's
    /// native representation).
    #[default]
    Software,
    /// The software octree on the accelerator's 16-bit fixed point —
    /// bit-identical to [`Backend::Accelerator`] for the same scans,
    /// which is what the equivalence suite verifies.
    SoftwareFixed,
    /// The OMU accelerator model. The builder's resolution, sensor
    /// model, max range, integration mode and pruning flag override the
    /// corresponding fields of the supplied configuration, so the
    /// builder stays the single source of truth for map semantics; the
    /// configuration contributes the hardware geometry (PE count, T-Mem
    /// rows, clock, timing, burst discount).
    Accelerator(OmuConfig),
}

impl Backend {
    /// The backend's human-readable name (matches
    /// [`MapBackend::backend_name`](crate::MapBackend::backend_name)).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Software | Backend::SoftwareFixed => "software",
            Backend::Accelerator(_) => "accelerator",
        }
    }
}

/// Builder for [`OccupancyMap`]: resolves backend, engine and every map
/// knob (sensor model, integration mode, max range, pruning, change
/// detection) before the first scan arrives.
///
/// # Examples
///
/// ```
/// use omu_map::{Engine, MapBuilder};
/// use omu_geometry::{Occupancy, Point3};
///
/// let mut map = MapBuilder::new(0.1)
///     .engine(Engine::Sharded { shards: 8 })
///     .max_range(Some(10.0))
///     .build()?;
/// map.insert_points(Point3::ZERO, &[Point3::new(1.0, 0.0, 0.0)])?;
/// assert_eq!(
///     map.occupancy_at(Point3::new(1.0, 0.0, 0.0))?,
///     Occupancy::Occupied
/// );
/// # Ok::<(), omu_map::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MapBuilder {
    resolution: f64,
    params: OccupancyParams,
    engine: Engine,
    backend: Backend,
    integration_mode: IntegrationMode,
    front_end: FrontEnd,
    max_range: Option<f64>,
    pruning: bool,
    change_detection: bool,
    worker_threads: usize,
    task_shuffle_seed: Option<u64>,
    pub(crate) durability: Option<(DurabilityTarget, DurabilityPolicy)>,
    pub(crate) queue_capacity: Option<usize>,
}

impl MapBuilder {
    /// Starts a builder for a map with voxels `resolution` metres across,
    /// with OctoMap's default sensor model, the default engine
    /// (`Engine::Sharded { shards: 1 }`, the sequential batch walk) and
    /// the software backend.
    pub fn new(resolution: f64) -> Self {
        MapBuilder {
            resolution,
            params: OccupancyParams::default(),
            engine: Engine::default(),
            backend: Backend::default(),
            integration_mode: IntegrationMode::default(),
            front_end: FrontEnd::default(),
            max_range: None,
            pruning: true,
            change_detection: false,
            worker_threads: 0,
            task_shuffle_seed: None,
            durability: None,
            queue_capacity: None,
        }
    }

    /// Selects the update engine (default: `Engine::Sharded { shards: 1 }`).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the backend (default: [`Backend::Software`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the occupancy sensor model.
    pub fn params(mut self, params: OccupancyParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the scan-integration overlap mode (default:
    /// [`IntegrationMode::Raywise`], the workload the paper counts).
    pub fn integration_mode(mut self, mode: IntegrationMode) -> Self {
        self.integration_mode = mode;
        self
    }

    /// Selects the ray-casting DDA front end (default:
    /// [`FrontEnd::Packet`], the 8-lane SoA packet stepper). The two
    /// front ends produce bit-identical maps; [`FrontEnd::Scalar`] exists
    /// for ablations and as the reference the equivalence suite checks
    /// the packet path against.
    pub fn front_end(mut self, front_end: FrontEnd) -> Self {
        self.front_end = front_end;
        self
    }

    /// Sets the maximum sensor range in metres (`None` = unlimited).
    pub fn max_range(mut self, max_range: Option<f64>) -> Self {
        self.max_range = max_range;
        self
    }

    /// Enables or disables pruning (default: enabled).
    pub fn pruning(mut self, enabled: bool) -> Self {
        self.pruning = enabled;
        self
    }

    /// Sets the size of the persistent worker pool behind the software
    /// backends' one parallel path, the sharded tree walk of a
    /// multi-shard insert. Reads never use it: they run on the caller's
    /// thread, and parallel reads go through snapshots. `0` (the
    /// default) resolves to `max(8, available CPUs)` — 8 because the
    /// sharded write engine splits work by first-level branch, of which
    /// there are exactly 8. Workers spawn lazily on first use and persist for
    /// the map's lifetime, so no parallel call ever pays a thread
    /// spawn. Ignored by the accelerator backend (one modeled device).
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Seeds the worker pool's deterministic task-order shuffle (a
    /// stress knob: scopes publish their tasks in a seeded permuted
    /// order, flushing any order-dependence in the parallel engines —
    /// results must stay bit-identical). Software backends only; also
    /// settable process-wide via the `OMU_POOL_SHUFFLE_SEED`
    /// environment variable.
    pub fn task_shuffle_seed(mut self, seed: u64) -> Self {
        self.task_shuffle_seed = Some(seed);
        self
    }

    /// Enables change tracking so consumers can drain the set of voxels
    /// whose classification flipped
    /// ([`OccupancyMap::drain_changed_keys`]). Only the software
    /// backends track changes; building an accelerator-backed map with
    /// this enabled fails with [`MapError::Unsupported`].
    pub fn change_detection(mut self, enabled: bool) -> Self {
        self.change_detection = enabled;
        self
    }

    /// Makes the [`MapService`](crate::MapService) spawned from this
    /// builder crash-safe: every drained scan batch is appended to a
    /// write-ahead log under `dir` before it is applied, and `policy`
    /// decides when a full checkpoint of the serving map is cut (on a
    /// dedicated thread, at zero writer cost). After a crash,
    /// [`MapService::recover`](crate::MapService::recover) rebuilds the
    /// map from the newest checkpoint plus the WAL tail.
    ///
    /// The directory is created (with parents) at spawn time; spawning
    /// into a directory that already holds checkpoint or WAL files is
    /// refused — recover from it instead. Only affects services; plain
    /// [`Self::build`] maps ignore it.
    pub fn durability<P: Into<PathBuf>>(mut self, dir: P, policy: DurabilityPolicy) -> Self {
        self.durability = Some((DurabilityTarget::Path(dir.into()), policy));
        self
    }

    /// [`Self::durability`] against an injected storage backend instead
    /// of a filesystem directory — how the fault-injection tests swap in
    /// a [`FaultyDir`](crate::FaultyDir).
    pub fn durability_store(
        mut self,
        store: Arc<dyn DurableDir>,
        policy: DurabilityPolicy,
    ) -> Self {
        self.durability = Some((DurabilityTarget::Store(store), policy));
        self
    }

    /// Bounds the [`MapService`](crate::MapService) ingest queue at
    /// `capacity` commands. When the writer falls behind and the queue
    /// fills, `ingest` returns [`MapError::Backpressure`] instead of
    /// enqueuing (the default queue is unbounded and never pushes back).
    /// `flush` and shutdown always block for a slot rather than failing.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Resolves the durability knobs into a live store: path targets
    /// become [`RealDir`]s, injected stores are used as given.
    pub(crate) fn durability_setup(&self) -> Result<DurabilitySetup, MapError> {
        let Some((target, policy)) = &self.durability else {
            return Ok(None);
        };
        let store: Arc<dyn DurableDir> = match target {
            DurabilityTarget::Path(p) => Arc::new(RealDir::create(p.clone())?),
            DurabilityTarget::Store(s) => Arc::clone(s),
        };
        Ok(Some((store, *policy)))
    }

    /// The configured durability policy, if any.
    pub(crate) fn durability_policy(&self) -> Option<DurabilityPolicy> {
        self.durability.as_ref().map(|(_, policy)| *policy)
    }

    /// Builds the map, validating every knob.
    ///
    /// # Errors
    ///
    /// [`MapError::Resolution`] for a non-positive resolution,
    /// [`MapError::InvalidShards`] for an out-of-range
    /// [`Engine::Sharded`] count, [`MapError::Config`] for an invalid
    /// accelerator configuration, and [`MapError::Unsupported`] for
    /// change detection on the accelerator backend.
    pub fn build(self) -> Result<OccupancyMap, MapError> {
        self.engine.validate()?;
        let inner = match self.backend {
            Backend::Software => {
                let mut tree = OctreeF32::with_params(self.resolution, self.params)?;
                self.configure_tree(&mut tree);
                Inner::Software(Box::new(tree))
            }
            Backend::SoftwareFixed => {
                let mut tree = OctreeFixed::with_params(self.resolution, self.params)?;
                self.configure_tree(&mut tree);
                Inner::SoftwareFixed(Box::new(tree))
            }
            Backend::Accelerator(mut config) => {
                if self.change_detection {
                    return Err(MapError::Unsupported {
                        backend: "accelerator",
                        feature: "change detection",
                    });
                }
                config.resolution = self.resolution;
                config.params = self.params;
                config.max_range = self.max_range;
                config.integration_mode = self.integration_mode;
                config.front_end = self.front_end;
                config.pruning_enabled = self.pruning;
                Inner::Accelerator(Box::new(OmuAccelerator::new(config)?))
            }
        };
        Ok(OccupancyMap::from_parts(inner, self.engine))
    }

    /// [`Self::build`], but restoring the tree contents from serialized
    /// bytes (a checkpoint blob) instead of starting empty. Resolution
    /// and sensor model come from the encoding; every behavioural knob
    /// (engine, integration mode, pruning, change detection, …) comes
    /// from the builder, exactly as in a fresh build.
    ///
    /// # Errors
    ///
    /// [`MapError::Decode`] for malformed bytes; [`MapError::Unsupported`]
    /// for the accelerator backend (checkpoints come from snapshots,
    /// which only the software backends can publish).
    pub(crate) fn build_restored(&self, bytes: &[u8]) -> Result<OccupancyMap, MapError> {
        self.engine.validate()?;
        let inner = match &self.backend {
            Backend::Software => {
                let mut tree = OctreeF32::from_bytes(bytes)?;
                self.configure_tree(&mut tree);
                Inner::Software(Box::new(tree))
            }
            Backend::SoftwareFixed => {
                let mut tree = OctreeFixed::from_bytes(bytes)?;
                self.configure_tree(&mut tree);
                Inner::SoftwareFixed(Box::new(tree))
            }
            Backend::Accelerator(_) => {
                return Err(MapError::Unsupported {
                    backend: "accelerator",
                    feature: "checkpoint restore (snapshots require a software backend)",
                })
            }
        };
        Ok(OccupancyMap::from_parts(inner, self.engine))
    }

    fn configure_tree<V: omu_geometry::LogOdds>(&self, tree: &mut omu_octree::OccupancyOctree<V>) {
        tree.set_integration_mode(self.integration_mode);
        tree.set_front_end(self.front_end);
        tree.set_max_range(self.max_range);
        tree.set_pruning_enabled(self.pruning);
        tree.set_change_detection(self.change_detection);
        if self.worker_threads > 0 {
            tree.set_worker_pool(Arc::new(WorkerPool::new(self.worker_threads)));
        }
        if self.task_shuffle_seed.is_some() {
            tree.set_task_shuffle_seed(self.task_shuffle_seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_a_software_batched_map() {
        let map = MapBuilder::new(0.1).build().unwrap();
        assert_eq!(map.engine(), Engine::Sharded { shards: 1 });
        assert_eq!(map.backend_name(), "software");
        assert!(map.is_empty());
    }

    #[test]
    fn bad_resolution_is_a_map_error() {
        assert!(matches!(
            MapBuilder::new(-1.0).build(),
            Err(MapError::Resolution(_))
        ));
    }

    #[test]
    fn bad_shard_count_rejected_at_build() {
        assert!(matches!(
            MapBuilder::new(0.1)
                .engine(Engine::Sharded { shards: 99 })
                .build(),
            Err(MapError::InvalidShards(99))
        ));
    }

    #[test]
    fn accelerator_config_is_overridden_by_builder_knobs() {
        let config = OmuConfig::builder().resolution(0.7).build().unwrap();
        let map = MapBuilder::new(0.1)
            .max_range(Some(5.0))
            .backend(Backend::Accelerator(config))
            .build()
            .unwrap();
        assert_eq!(map.resolution(), 0.1);
        let accel = map.accelerator().unwrap();
        assert_eq!(accel.config().max_range, Some(5.0));
    }

    #[test]
    fn front_end_knob_reaches_both_backends() {
        let sw = MapBuilder::new(0.1).build().unwrap();
        assert_eq!(sw.front_end(), FrontEnd::Packet, "packet is the default");
        let sw = MapBuilder::new(0.1)
            .front_end(FrontEnd::Scalar)
            .build()
            .unwrap();
        assert_eq!(sw.front_end(), FrontEnd::Scalar);
        let hw = MapBuilder::new(0.1)
            .front_end(FrontEnd::Scalar)
            .backend(Backend::Accelerator(OmuConfig::default()))
            .build()
            .unwrap();
        assert_eq!(hw.front_end(), FrontEnd::Scalar);
    }

    #[test]
    fn change_detection_on_accelerator_is_unsupported() {
        let e = MapBuilder::new(0.1)
            .change_detection(true)
            .backend(Backend::Accelerator(OmuConfig::default()))
            .build()
            .unwrap_err();
        assert!(matches!(e, MapError::Unsupported { .. }));
    }

    #[test]
    fn invalid_accelerator_config_is_a_config_error() {
        let config = OmuConfig {
            num_pes: 3,
            ..OmuConfig::default()
        };
        let e = MapBuilder::new(0.1)
            .backend(Backend::Accelerator(config))
            .build()
            .unwrap_err();
        assert!(matches!(e, MapError::Config(_)));
    }
}
