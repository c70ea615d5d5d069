//! [`MapService`]: lock-free concurrent reads under live writes.
//!
//! The service owns an [`OccupancyMap`] on a dedicated writer thread
//! (spawned through `omu-pool`, the one crate allowed to own thread
//! lifecycle) fed by a scan queue. After each drained batch the writer
//! publishes an epoch-pinned [`MapSnapshot`] — a cheaply clonable read
//! handle any number of reader threads can query without locks, served
//! bit-identically to the live map at the publish instant while the
//! writer keeps streaming (the octree's row-granular copy-on-write
//! machinery keeps published rows immutable; see the octree crate's
//! snapshot docs for the epoch/reclamation rules).
//!
//! Readers that need *deltas* instead of full snapshots subscribe to the
//! change ring: each publish appends the set of voxels whose occupancy
//! classification flipped, and [`ChangeSubscription::poll`] drains
//! everything since the subscriber's last poll. The ring is bounded; a
//! subscriber that falls more than [`CHANGE_RING_EPOCHS`] publishes
//! behind gets a typed [`MapError::Lagged`] and resynchronizes from a
//! fresh snapshot.
//!
//! With [`MapBuilder::durability`] configured, the writer journals each
//! drained batch before applying it. An ingested scan is queued as an
//! `Arc`, so the journal needs no copy of its points: the writer hands
//! the batch's `Arc`s to a durable thread, which streams the WAL record
//! from them through one fixed 64 KiB buffer and fsyncs it while the
//! writer applies the same scans, and every [`MapService::flush`] waits
//! for the syncs queued before it. Checkpoints are serialized from a
//! pinned snapshot on that thread too; [`MapService::recover`] rebuilds
//! the map from the newest checkpoint plus the WAL tail.
//!
//! # Examples
//!
//! ```
//! use omu_map::{MapBuilder, MapService};
//! use omu_geometry::{Occupancy, Point3, PointCloud, Scan};
//!
//! # fn main() -> Result<(), omu_map::MapError> {
//! let service = MapService::spawn(MapBuilder::new(0.1))?;
//! service.ingest(Scan::new(
//!     Point3::ZERO,
//!     [Point3::new(1.0, 0.0, 0.25)].into_iter().collect::<PointCloud>(),
//! ))?;
//! let snap = service.flush()?; // wait until the scan is applied
//! assert_eq!(
//!     snap.occupancy_at(Point3::new(1.0, 0.0, 0.25))?,
//!     Occupancy::Occupied
//! );
//! service.shutdown()?;
//! // The snapshot outlives the service.
//! assert!(!snap.is_empty());
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use omu_geometry::{KeyConverter, Occupancy, Point3, PointCloud, Scan, VoxelKey};
use omu_octree::{LeafInfo, RayCastResult, Snapshot, SnapshotStats, TaskPanic, WorkerPool};
use omu_pool::{spawn_service, ServiceThread};

use crate::builder::MapBuilder;
use crate::durable::{DurabilityPolicy, DurableDir, DurableFile, RealDir};
use crate::error::MapError;
use crate::map::OccupancyMap;
use crate::wal::{
    ckpt_name, parse_ckpt_name, parse_wal_name, wal_name, RecordWriter, SegmentReader,
};

/// Publish epochs of change sets the service retains for slow
/// subscribers before evicting the oldest (and reporting
/// [`MapError::Lagged`] to whoever needed it).
pub const CHANGE_RING_EPOCHS: usize = 64;

/// Checkpoint cadence [`MapService::recover`] falls back to when the
/// supplied builder carries no explicit [`DurabilityPolicy`].
pub const DEFAULT_CHECKPOINT_EPOCHS: u32 = 64;

/// Lock a mutex, recovering from poisoning: the guarded service state is
/// consistent at every release point (the writer publishes a fully-built
/// snapshot or nothing), so a poison flag carries no information.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An epoch-pinned, cheaply clonable read handle over a map published by
/// [`MapService`] (or directly by
/// [`OccupancyMap::publish_snapshot`]). All queries are lock-free and
/// bit-identical to querying the live map at the publish instant; clones
/// share the pin, and dropping the last clone lets the writer recycle
/// the rows it copied on the snapshot's behalf.
#[derive(Debug, Clone)]
pub enum MapSnapshot {
    /// Snapshot of an `f32` software tree.
    Software(Snapshot<f32>),
    /// Snapshot of a fixed-point software tree.
    SoftwareFixed(Snapshot<omu_geometry::FixedLogOdds>),
}

/// Dispatch one expression over both value representations.
macro_rules! with_snap {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            MapSnapshot::Software($s) => $body,
            MapSnapshot::SoftwareFixed($s) => $body,
        }
    };
}

impl MapSnapshot {
    /// The write epoch this snapshot pins: queries observe exactly the
    /// writes of epochs `0..=epoch()`.
    pub fn epoch(&self) -> u32 {
        with_snap!(self, s => s.epoch())
    }

    /// True when nothing had been observed at publish time.
    pub fn is_empty(&self) -> bool {
        with_snap!(self, s => s.is_empty())
    }

    /// The map resolution in metres.
    pub fn resolution(&self) -> f64 {
        with_snap!(self, s => s.resolution())
    }

    /// The key/coordinate converter.
    pub fn converter(&self) -> &KeyConverter {
        with_snap!(self, s => s.converter())
    }

    /// Occupancy classification of the voxel at `key`.
    pub fn occupancy(&self, key: VoxelKey) -> Occupancy {
        with_snap!(self, s => s.occupancy(key))
    }

    /// Occupancy classification of the voxel containing `point`.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when the point is outside the
    /// addressable map.
    pub fn occupancy_at(&self, point: Point3) -> Result<Occupancy, MapError> {
        Ok(with_snap!(self, s => s.occupancy_at(point))?)
    }

    /// The stored log-odds covering `key` as `f32`, if observed.
    pub fn logodds(&self, key: VoxelKey) -> Option<f32> {
        with_snap!(self, s => s.logodds(key))
    }

    /// Classifies a batch of points in input order through one
    /// cached-descent reader (Morton-coalesced, like the live map's
    /// batched query engine).
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when any point is outside the map
    /// (detected before any classification runs).
    pub fn occupancy_batch(&self, points: &[Point3]) -> Result<Vec<Occupancy>, MapError> {
        let conv = *self.converter();
        let keys = points
            .iter()
            .map(|&p| conv.coord_to_key(p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.occupancy_batch_keys(&keys))
    }

    /// [`Self::occupancy_batch`] by voxel key (infallible).
    pub fn occupancy_batch_keys(&self, keys: &[VoxelKey]) -> Vec<Occupancy> {
        with_snap!(self, s => s.reader().query_batch(keys))
    }

    /// Casts a query ray (OctoMap `castRay` semantics, identical to
    /// [`OccupancyMap::cast_ray`] on the live map).
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when the origin is outside the map or
    /// the direction is degenerate.
    pub fn cast_ray(
        &self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, MapError> {
        let hit = with_snap!(self, s => {
            s.reader().cast_ray(origin, direction, max_range, ignore_unknown)
        });
        Ok(hit?)
    }

    /// Casts a batch of query rays through one cached-descent reader,
    /// returning results in input order (the contract of
    /// [`OccupancyMap::cast_rays`]).
    ///
    /// # Errors
    ///
    /// The first [`MapError::OutOfBounds`] in input order; no ray after
    /// it is cast.
    pub fn cast_rays(
        &self,
        rays: &[(Point3, Point3)],
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<Vec<RayCastResult>, MapError> {
        Ok(with_snap!(self, s => s.reader().cast_rays(rays, max_range, ignore_unknown))?)
    }

    /// Sphere collision probe (the motion-planning query of the paper's
    /// Fig. 1).
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when the probe region leaves the map.
    pub fn collides_sphere(&self, center: Point3, radius: f64) -> Result<bool, MapError> {
        Ok(with_snap!(self, s => s.reader().collides_sphere(center, radius))?)
    }

    /// The leaves intersecting the key box `[min, max]`, inclusive per
    /// axis.
    pub fn leaves_in_box(&self, min: VoxelKey, max: VoxelKey) -> Vec<LeafInfo> {
        with_snap!(self, s => s.iter_leaves_in_box(min, max).collect())
    }

    /// The leaves intersecting the metric box spanned by `min` and `max`.
    ///
    /// # Errors
    ///
    /// [`MapError::OutOfBounds`] when a corner leaves the map.
    pub fn leaves_in_region(&self, min: Point3, max: Point3) -> Result<Vec<LeafInfo>, MapError> {
        let conv = *self.converter();
        let lo = conv.coord_to_key(min)?;
        let hi = conv.coord_to_key(max)?;
        Ok(self.leaves_in_box(lo, hi))
    }

    /// The canonical sorted leaf list `(key, depth, logodds)` — the
    /// equivalence suite's comparison format, identical to
    /// [`OccupancyMap::snapshot`] on the live map at the pinned epoch.
    pub fn canonical_leaves(&self) -> Vec<(VoxelKey, u8, f32)> {
        with_snap!(self, s => s.canonical_leaves())
    }

    /// Serializes the pinned snapshot to the checksummed (v2) wire
    /// format — the shape of a checkpoint blob. The walk runs entirely
    /// on the snapshot's immutable rows, so the writer pays nothing
    /// while a checkpoint serializes. Readable by
    /// [`OccupancyMap::from_bytes`] (or
    /// [`from_bytes_fixed`](OccupancyMap::from_bytes_fixed) for the
    /// fixed-point representation), which verifies the trailer CRC.
    pub fn to_bytes(&self) -> Vec<u8> {
        with_snap!(self, s => s.to_bytes())
    }
}

/// Liveness and durability status of a [`MapService`], reported by
/// [`MapService::health`]. A durability failure *degrades* the service
/// — it keeps serving snapshots and ingesting in memory — and is
/// recorded here instead of killing the writer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceHealth {
    /// Why WAL logging is currently off (`None` while logging is
    /// healthy). While set, new scans are not journaled and a crash
    /// would lose them; the log heals at the next checkpoint if its
    /// segment rotation succeeds.
    pub wal_failed: Option<String>,
    /// Why the most recent checkpoint attempt failed (`None` again
    /// after any later success).
    pub checkpoint_failed: Option<String>,
    /// Publish epoch of the newest durable checkpoint.
    pub last_checkpoint_epoch: Option<u32>,
    /// Batch-sequence coverage of the newest durable checkpoint: every
    /// batch with `seq < last_checkpoint_seq` is folded in.
    pub last_checkpoint_seq: Option<u64>,
}

impl ServiceHealth {
    /// True while the whole durability pipeline is operating (trivially
    /// true when no durability is configured).
    pub fn is_healthy(&self) -> bool {
        self.wal_failed.is_none() && self.checkpoint_failed.is_none()
    }
}

/// What [`MapService::recover`] reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Publish epoch recorded in the checkpoint recovery started from
    /// (`None` when no decodable checkpoint existed).
    pub checkpoint_epoch: Option<u32>,
    /// WAL batches replayed on top of the checkpoint.
    pub replayed_batches: u64,
    /// True when a torn or corrupt WAL tail (or a sequence hole) was
    /// detected and cut; everything before the cut was still recovered.
    pub truncated_tail: bool,
}

/// Cumulative service counters, snapshotted via
/// [`MapService::service_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Scans the writer has applied.
    pub scans_ingested: u64,
    /// Scans rejected by the backend (typed error deferred to the next
    /// [`MapService::flush`]).
    pub ingest_errors: u64,
    /// Rays integrated across all applied scans.
    pub rays: u64,
    /// Snapshots the writer has published (one per drained queue batch,
    /// plus the initial empty publish).
    pub publishes: u64,
    /// The octree's snapshot/copy-on-write bookkeeping at the last
    /// publish.
    pub snapshot: SnapshotStats,
}

/// One queued writer command.
enum Command {
    /// A scan to journal and apply. The `Arc` lets the durable thread
    /// write the WAL record straight from the ingested points while the
    /// writer applies them, so the points are never copied.
    Ingest(Arc<Scan>),
    /// Publish and acknowledge: everything sent before this command is
    /// applied and visible once the ack arrives.
    Flush(mpsc::Sender<()>),
    /// Cut a checkpoint covering (at least) everything enqueued before
    /// this command; the ack arrives once the blob is durable.
    Checkpoint(mpsc::Sender<Result<(), MapError>>),
    /// Test hook: park the writer until the gate's sender is dropped or
    /// signalled, so a bounded queue can be filled deterministically.
    Stall(mpsc::Receiver<()>),
    /// Test hook: panic the writer thread, exercising the typed
    /// panic-capture path end to end.
    Panic,
    Shutdown,
}

/// The handle side of the command queue: unbounded by default, bounded
/// with typed backpressure when [`MapBuilder::queue_capacity`] is set.
#[derive(Debug)]
enum CommandSender {
    Unbounded(mpsc::Sender<Command>),
    Bounded(mpsc::SyncSender<Command>, usize),
}

impl CommandSender {
    /// Non-blocking enqueue for the ingestion path: a full bounded
    /// queue is typed [`MapError::Backpressure`], never a stall.
    fn try_ingest(&self, cmd: Command) -> Result<(), MapError> {
        match self {
            CommandSender::Unbounded(tx) => tx.send(cmd).map_err(|_| MapError::ServiceShutdown),
            CommandSender::Bounded(tx, capacity) => tx.try_send(cmd).map_err(|e| match e {
                mpsc::TrySendError::Full(_) => MapError::Backpressure {
                    capacity: *capacity,
                },
                mpsc::TrySendError::Disconnected(_) => MapError::ServiceShutdown,
            }),
        }
    }

    /// Blocking enqueue for control commands (flush, checkpoint,
    /// shutdown): these wait for a slot instead of failing.
    fn send_blocking(&self, cmd: Command) -> Result<(), MapError> {
        match self {
            CommandSender::Unbounded(tx) => tx.send(cmd).map_err(|_| MapError::ServiceShutdown),
            CommandSender::Bounded(tx, _) => tx.send(cmd).map_err(|_| MapError::ServiceShutdown),
        }
    }
}

/// State shared between the service handle, its subscriptions, and the
/// writer thread. One plain mutex: the writer takes it once per publish
/// (milliseconds apart), readers once per `snapshot()`/`poll()` call to
/// clone an `Arc`-backed handle out — queries themselves never touch it.
#[derive(Debug)]
struct ServiceShared {
    state: Mutex<ServiceState>,
}

#[derive(Debug)]
struct ServiceState {
    snapshot: MapSnapshot,
    stats: ServiceStats,
    /// `(publish epoch, voxels whose classification flipped in it)`,
    /// oldest first, at most [`CHANGE_RING_EPOCHS`] entries.
    ring: VecDeque<(u32, Arc<[VoxelKey]>)>,
    /// Highest publish epoch whose change set has been evicted from the
    /// ring (`None` until the first eviction) — what turns a slow
    /// subscriber's gap into a typed [`MapError::Lagged`].
    dropped_through: Option<u32>,
    /// First backend error since the last flush, surfaced there.
    deferred_error: Option<MapError>,
    /// The writer thread's panic, captured and typed instead of being
    /// swallowed on drop ([`MapService::take_writer_error`]).
    writer_error: Option<MapError>,
    /// Durability status ([`MapService::health`]).
    health: ServiceHealth,
    shutdown: bool,
}

/// A single-writer map server: scans stream in through a queue, an
/// epoch-pinned [`MapSnapshot`] streams out after every drained batch,
/// and any number of concurrent readers query snapshots lock-free while
/// the writer keeps ingesting. See the module docs for the serving
/// model.
#[derive(Debug)]
pub struct MapService {
    sender: CommandSender,
    shared: Arc<ServiceShared>,
    writer: Option<ServiceThread>,
    /// The checkpoint thread, present when durability is configured. It
    /// exits when the writer drops its job channel.
    ckpt: Option<ServiceThread>,
    readers: Arc<WorkerPool>,
}

impl MapService {
    /// Builds the map and spawns its writer thread. Change detection is
    /// forced on (it feeds the subscription ring), so the builder must
    /// target a software backend.
    ///
    /// # Errors
    ///
    /// Everything [`MapBuilder::build`] can return;
    /// [`MapError::Unsupported`] for the accelerator backend (which can
    /// neither track changes nor publish snapshots).
    pub fn spawn(builder: MapBuilder) -> Result<Self, MapError> {
        let durability = builder.durability_setup()?;
        if let Some((store, _)) = &durability {
            let names = store.list().map_err(MapError::Io)?;
            let preexisting = names
                .iter()
                .filter(|n| parse_wal_name(n).is_some() || parse_ckpt_name(n).is_some())
                .count();
            if preexisting > 0 {
                return Err(MapError::Io(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!(
                        "durability directory already holds {preexisting} checkpoint/WAL \
                         files; use MapService::recover to resume from them"
                    ),
                )));
            }
        }
        let queue_capacity = builder.queue_capacity;
        let map = builder.change_detection(true).build()?;
        Self::spawn_with_map(map, queue_capacity, durability, 0, ServiceHealth::default())
    }

    /// Rebuilds a crashed (or cleanly stopped) durable service from
    /// `dir`: the newest decodable checkpoint is restored, the WAL tail
    /// on top of it replayed — tolerating a torn final record — and a
    /// fresh service spawned that continues journaling into the same
    /// directory. The recovered map is bit-identical to serially
    /// replaying every scan batch that survived on disk.
    ///
    /// `builder` supplies the map configuration (backend, engine,
    /// sensor model, queue bound, durability policy); its durability
    /// *target* is overridden by `dir`. Without an explicit policy the
    /// recovered service checkpoints every
    /// [`DEFAULT_CHECKPOINT_EPOCHS`] publishes.
    ///
    /// # Errors
    ///
    /// [`MapError::Io`] when the directory cannot be read, plus
    /// everything [`MapBuilder::build`] can return. Corrupt checkpoints
    /// and WAL tails are *not* errors — recovery skips to the newest
    /// intact state and reports what it cut in the [`RecoveryReport`].
    pub fn recover<P: Into<PathBuf>>(
        dir: P,
        builder: MapBuilder,
    ) -> Result<(Self, RecoveryReport), MapError> {
        let store: Arc<dyn DurableDir> = Arc::new(RealDir::create(dir.into())?);
        Self::recover_with_store(store, builder)
    }

    /// [`Self::recover`] against an injected storage backend — the
    /// entry point the fault-injection suite drives, passing a
    /// [`FaultyDir`](crate::FaultyDir)-wrapped store.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::recover`].
    pub fn recover_with_store(
        store: Arc<dyn DurableDir>,
        builder: MapBuilder,
    ) -> Result<(Self, RecoveryReport), MapError> {
        let policy = builder
            .durability_policy()
            .unwrap_or(DurabilityPolicy::EveryNEpochs(DEFAULT_CHECKPOINT_EPOCHS));
        let builder = builder.change_detection(true);
        let names = store.list().map_err(MapError::Io)?;

        // Newest decodable checkpoint wins; corrupt ones (checksum
        // mismatch, torn atomic write that somehow became visible) are
        // skipped in favour of older intact ones.
        let mut ckpts: Vec<(u64, u32, &str)> = names
            .iter()
            .filter_map(|n| parse_ckpt_name(n).map(|(c, e)| (c, e, n.as_str())))
            .collect();
        ckpts.sort_unstable();
        let mut restored = None;
        for &(covers, epoch, name) in ckpts.iter().rev() {
            let Ok(bytes) = store.read(name) else {
                continue;
            };
            if let Ok(map) = builder.build_restored(&bytes) {
                restored = Some((map, covers, epoch));
                break;
            }
        }
        let (mut map, base_seq, checkpoint_epoch) = match restored {
            Some((map, covers, epoch)) => (map, covers, Some(epoch)),
            None => (builder.clone().build()?, 0, None),
        };

        // Replay the WAL tail. Rotation happens exactly at checkpoint
        // triggers, so segments starting below the checkpoint's coverage
        // hold only folded-in batches. Replay is gap-checked: a record
        // whose sequence number does not continue the chain ends it.
        let mut segments: Vec<(u64, &str)> = names
            .iter()
            .filter_map(|n| parse_wal_name(n).map(|s| (s, n.as_str())))
            .collect();
        segments.sort_unstable();
        // Each segment is walked one validated record at a time, and
        // every scan decodes into one reused point buffer.
        let mut next_seq = base_seq;
        let mut replayed = 0u64;
        let mut truncated = false;
        let mut points = Vec::new();
        'replay: for &(start, name) in &segments {
            if start < base_seq {
                continue;
            }
            let Ok(bytes) = store.read(name) else {
                truncated = true;
                continue;
            };
            let mut reader = SegmentReader::new(&bytes);
            for record in reader.by_ref() {
                if record.seq != next_seq {
                    truncated = true;
                    break 'replay;
                }
                record.replay(&mut points, |origin, pts| {
                    // A scan that failed at original ingest fails
                    // identically here and mutates nothing; replay
                    // mirrors the writer's keep-going-past-bad-scans.
                    let _ = map.insert_points(origin, pts);
                });
                next_seq += 1;
                replayed += 1;
            }
            // A torn tail ends this segment but not the replay: a later
            // segment continuing the sequence chain (from a previous
            // degraded recovery) is still applied; the gap check above
            // guards against actual holes.
            truncated |= reader.torn();
        }

        // Fold the recovered state into a fresh checkpoint so torn
        // segments can be retired and a crash loop cannot lose ground.
        // Failure degrades (health-flagged) instead of aborting.
        let snapshot = map.publish_snapshot()?;
        let mut health = ServiceHealth::default();
        match store.write_atomic(&ckpt_name(next_seq, snapshot.epoch()), &snapshot.to_bytes()) {
            Ok(()) => {
                health.last_checkpoint_epoch = Some(snapshot.epoch());
                health.last_checkpoint_seq = Some(next_seq);
                gc_below(store.as_ref(), next_seq);
                if names.iter().any(|n| *n == wal_name(next_seq)) {
                    // The segment the new writer reopens may end in torn
                    // bytes that would poison appends after them; it
                    // holds no surviving records, so retire it too.
                    let _ = store.remove(&wal_name(next_seq));
                }
            }
            Err(e) => health.checkpoint_failed = Some(e.to_string()),
        }

        let report = RecoveryReport {
            checkpoint_epoch,
            replayed_batches: replayed,
            truncated_tail: truncated,
        };
        let queue_capacity = builder.queue_capacity;
        let service =
            Self::spawn_with_map(map, queue_capacity, Some((store, policy)), next_seq, health)?;
        Ok((service, report))
    }

    /// The shared tail of [`Self::spawn`] and [`Self::recover`]: first
    /// publish, shared state, checkpoint thread, writer thread.
    fn spawn_with_map(
        mut map: OccupancyMap,
        queue_capacity: Option<usize>,
        durability: Option<(Arc<dyn DurableDir>, DurabilityPolicy)>,
        next_seq: u64,
        mut health: ServiceHealth,
    ) -> Result<Self, MapError> {
        let first = map.publish_snapshot()?;
        let mut stats = ServiceStats {
            publishes: 1,
            ..ServiceStats::default()
        };
        if let Some(s) = map.snapshot_stats() {
            stats.snapshot = s;
        }
        let mut writer_durability = None;
        let mut ckpt_parts = None;
        if let Some((store, policy)) = durability {
            let wal = match store.open_append(&wal_name(next_seq)) {
                Ok(f) => Some(f),
                Err(e) => {
                    health.wal_failed = Some(e.to_string());
                    None
                }
            };
            let (job_tx, job_rx) = mpsc::channel();
            writer_durability = Some(WriterDurability {
                policy,
                next_seq,
                publishes_since_ckpt: 0,
                job_tx,
                pending: Vec::new(),
            });
            ckpt_parts = Some((store, wal, job_rx));
        }
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(ServiceState {
                snapshot: first,
                stats,
                ring: VecDeque::new(),
                dropped_through: None,
                deferred_error: None,
                writer_error: None,
                health,
                shutdown: false,
            }),
        });
        let ckpt = ckpt_parts.map(|(store, wal, job_rx)| {
            let ckpt_shared = Arc::clone(&shared);
            spawn_service("map-durable", move || {
                durable_loop(job_rx, store, wal, ckpt_shared);
            })
        });
        let (sender, receiver) = match queue_capacity {
            Some(capacity) => {
                let (tx, rx) = mpsc::sync_channel(capacity);
                (CommandSender::Bounded(tx, capacity), rx)
            }
            None => {
                let (tx, rx) = mpsc::channel();
                (CommandSender::Unbounded(tx), rx)
            }
        };
        let writer_shared = Arc::clone(&shared);
        let writer = spawn_service("map-writer", move || {
            // Catch the writer's panics so they become a typed,
            // retrievable error instead of dying silently in `Drop`'s
            // join. The shared state is consistent at every lock
            // release, so unwinding past it is safe to observe.
            let result = catch_unwind(AssertUnwindSafe(|| {
                writer_loop(map, receiver, &writer_shared, writer_durability);
            }));
            let mut state = lock_unpoisoned(&writer_shared.state);
            state.shutdown = true;
            if let Err(payload) = result {
                state.writer_error = Some(MapError::WorkerPanicked(TaskPanic::from_payload(
                    payload.as_ref(),
                )));
            }
        });
        Ok(MapService {
            sender,
            shared,
            writer: Some(writer),
            ckpt,
            readers: Arc::new(WorkerPool::new(0)),
        })
    }

    /// Queues one scan for integration. Returns as soon as the scan is
    /// enqueued; it becomes visible in the snapshot published after the
    /// writer drains it ([`Self::flush`] to wait for that).
    ///
    /// # Errors
    ///
    /// [`MapError::ServiceShutdown`] when the writer is gone;
    /// [`MapError::Backpressure`] when a bounded queue
    /// ([`MapBuilder::queue_capacity`]) is full (the scan is *not*
    /// enqueued). Backend errors (e.g. an out-of-bounds origin) are
    /// deferred to the next [`Self::flush`].
    pub fn ingest(&self, scan: Scan) -> Result<(), MapError> {
        self.sender.try_ingest(Command::Ingest(Arc::new(scan)))
    }

    /// [`Self::ingest`] from an origin and an owned point buffer. The
    /// buffer moves into the [`Scan`] (no copy); the writer applies it
    /// and the durable thread journals it from that one allocation.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::ingest`].
    pub fn ingest_points(&self, origin: Point3, points: Vec<Point3>) -> Result<(), MapError> {
        self.ingest(Scan::new(origin, PointCloud::from(points)))
    }

    /// Waits until every scan queued before this call has been applied
    /// and published, then returns the fresh snapshot.
    ///
    /// # Errors
    ///
    /// [`MapError::ServiceShutdown`] when the writer is gone; otherwise
    /// the first backend error any queued scan hit since the last flush
    /// (the writer keeps going past bad scans — the map stays valid).
    pub fn flush(&self) -> Result<MapSnapshot, MapError> {
        let (ack, done) = mpsc::channel();
        self.sender.send_blocking(Command::Flush(ack))?;
        done.recv().map_err(|_| MapError::ServiceShutdown)?;
        let mut state = lock_unpoisoned(&self.shared.state);
        if let Some(e) = state.deferred_error.take() {
            return Err(e);
        }
        Ok(state.snapshot.clone())
    }

    /// The most recently published snapshot — one mutex-guarded `Arc`
    /// clone, never blocked by the writer's ingestion work. Snapshots
    /// (and their clones) remain fully usable after
    /// [`Self::shutdown`].
    pub fn snapshot(&self) -> MapSnapshot {
        lock_unpoisoned(&self.shared.state).snapshot.clone()
    }

    /// Subscribes to change sets: each subsequent publish's flipped
    /// voxels can be drained with [`ChangeSubscription::poll`].
    pub fn subscribe(&self) -> ChangeSubscription {
        let epoch = lock_unpoisoned(&self.shared.state).snapshot.epoch();
        ChangeSubscription {
            shared: Arc::clone(&self.shared),
            next_epoch: epoch.saturating_add(1),
        }
    }

    /// The worker pool the service offers for fanning reader workloads
    /// out (snapshot queries are `&self` and embarrassingly parallel).
    /// Distinct from the writer's own pool, so bulk reads never contend
    /// with ingestion dispatch.
    pub fn reader_pool(&self) -> &Arc<WorkerPool> {
        &self.readers
    }

    /// Cumulative ingest/publish counters.
    pub fn service_stats(&self) -> ServiceStats {
        lock_unpoisoned(&self.shared.state).stats
    }

    /// Requests a checkpoint now and blocks until it is durable: the
    /// serving snapshot is serialized off-thread, published atomically,
    /// and obsolete WAL segments and older checkpoints are retired.
    /// Covers every scan enqueued before this call (a bit more if later
    /// scans share the drained batch).
    ///
    /// # Errors
    ///
    /// [`MapError::Unsupported`] when the service has no
    /// [`MapBuilder::durability`] configured; [`MapError::Io`] when the
    /// checkpoint could not be made durable (the service keeps serving,
    /// degraded — see [`Self::health`]);
    /// [`MapError::ServiceShutdown`] when the writer or checkpoint
    /// thread is gone.
    pub fn checkpoint(&self) -> Result<(), MapError> {
        let (ack, done) = mpsc::channel();
        self.sender.send_blocking(Command::Checkpoint(ack))?;
        match done.recv() {
            Ok(result) => result,
            Err(_) => Err(MapError::ServiceShutdown),
        }
    }

    /// The service's durability health. Storage failures never kill the
    /// writer — they degrade the service to in-memory serving and are
    /// reported here (and, for explicit [`Self::checkpoint`] calls, in
    /// the call's own result).
    pub fn health(&self) -> ServiceHealth {
        lock_unpoisoned(&self.shared.state).health.clone()
    }

    /// Takes the typed error of a writer thread that died on a panic
    /// (`None` while the writer lives or exited cleanly). This is how a
    /// panic survives `Drop`'s silent join: check after
    /// [`Self::is_shut_down`] turns true unexpectedly.
    pub fn take_writer_error(&self) -> Option<MapError> {
        lock_unpoisoned(&self.shared.state).writer_error.take()
    }

    /// Parks the writer until the returned sender is dropped or sent
    /// to. Test hook for deterministically filling a bounded queue.
    #[doc(hidden)]
    pub fn debug_stall_writer(&self) -> Result<mpsc::Sender<()>, MapError> {
        let (release, gate) = mpsc::channel();
        self.sender.send_blocking(Command::Stall(gate))?;
        Ok(release)
    }

    /// Panics the writer thread when it drains this command. Test hook
    /// exercising the typed panic-capture path
    /// ([`Self::take_writer_error`], [`Self::shutdown`]) end to end.
    #[doc(hidden)]
    pub fn debug_panic_writer(&self) -> Result<(), MapError> {
        self.sender.send_blocking(Command::Panic)
    }

    /// Stops the writer after it drains everything already queued, and
    /// joins it (and the checkpoint thread, which finishes any queued
    /// checkpoint first). Published snapshots stay valid.
    ///
    /// # Errors
    ///
    /// [`MapError::WorkerPanicked`] when the writer (or checkpoint)
    /// thread died on a panic instead of draining cleanly; otherwise
    /// the first deferred backend error no flush has surfaced yet.
    pub fn shutdown(mut self) -> Result<(), MapError> {
        let _ = self.sender.send_blocking(Command::Shutdown);
        let writer_result = match self.writer.take() {
            Some(writer) => writer.join().map_err(MapError::from),
            None => Ok(()),
        };
        let ckpt_result = match self.ckpt.take() {
            Some(ckpt) => ckpt.join().map_err(MapError::from),
            None => Ok(()),
        };
        writer_result?;
        if let Some(e) = self.take_writer_error() {
            return Err(e);
        }
        ckpt_result?;
        let mut state = lock_unpoisoned(&self.shared.state);
        match state.deferred_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// True once the writer has exited (clean shutdown or panic).
    pub fn is_shut_down(&self) -> bool {
        lock_unpoisoned(&self.shared.state).shutdown
    }
}

impl Drop for MapService {
    /// Dropping the handle shuts the writer down (after draining the
    /// queue) and joins it. A writer panic is not lost here: it is
    /// recorded as a typed error retrievable through
    /// [`MapService::take_writer_error`] while the handle lives — or
    /// call [`MapService::shutdown`] to observe it directly.
    fn drop(&mut self) {
        let _ = self.sender.send_blocking(Command::Shutdown);
        // ServiceThreads join on drop; the checkpoint thread exits once
        // the writer drops its job channel.
        self.writer.take();
        self.ckpt.take();
    }
}

/// A reader's cursor into the service's change ring.
///
/// Obtained from [`MapService::subscribe`]; poll-driven, so a planner
/// can fold change sets in on its own cadence.
#[derive(Debug)]
pub struct ChangeSubscription {
    shared: Arc<ServiceShared>,
    /// The next publish epoch this subscriber has not seen.
    next_epoch: u32,
}

impl ChangeSubscription {
    /// Drains every change set published since the last poll, in publish
    /// order (keys are sorted within one publish and may repeat across
    /// publishes). An empty vector means no publish happened since.
    ///
    /// # Errors
    ///
    /// [`MapError::Lagged`] when the ring evicted epochs this subscriber
    /// had not seen; the subscription resumes from the oldest retained
    /// epoch, so the *next* poll succeeds —
    /// resynchronize content from [`MapService::snapshot`].
    /// [`MapError::ServiceShutdown`] when the writer is gone *and*
    /// nothing is left to drain.
    pub fn poll(&mut self) -> Result<Vec<VoxelKey>, MapError> {
        let state = lock_unpoisoned(&self.shared.state);
        if let Some(through) = state.dropped_through {
            if through >= self.next_epoch {
                let missed = u64::from(through - self.next_epoch) + 1;
                self.next_epoch = through.saturating_add(1);
                return Err(MapError::Lagged { missed });
            }
        }
        let mut out = Vec::new();
        for (epoch, keys) in state.ring.iter() {
            if *epoch >= self.next_epoch {
                out.extend_from_slice(keys);
                self.next_epoch = epoch.saturating_add(1);
            }
        }
        if out.is_empty() && state.shutdown {
            return Err(MapError::ServiceShutdown);
        }
        Ok(out)
    }
}

/// One request handed to the `map-durable` thread, which owns every
/// blocking storage operation so the writer never waits on an fsync.
enum DurableJob {
    /// Write batch `seq`'s record to the open segment and sync it. The
    /// scans are the ones the writer applies, shared, not copied.
    /// `done` fires when the record is durable (or the log degraded);
    /// the writer collects these and waits only at flush points — the
    /// group-commit overlap that keeps the WAL nearly free.
    Append {
        seq: u64,
        scans: Vec<Arc<Scan>>,
        done: mpsc::Sender<()>,
    },
    /// Open a fresh WAL segment (the rotation point at each checkpoint,
    /// and the retry point where a degraded log heals).
    Rotate { name: String },
    /// Serialize the pinned snapshot and publish it atomically.
    Checkpoint {
        snapshot: MapSnapshot,
        /// Every batch with `seq < covers_seq` is folded in. FIFO with
        /// the `Append`s guarantees all of them are synced — into the
        /// pre-rotation segment — before this job runs.
        covers_seq: u64,
        /// Present for explicit [`MapService::checkpoint`] calls.
        ack: Option<mpsc::Sender<Result<(), MapError>>>,
    },
}

/// The writer-side durability state: the batch sequence counter, the
/// checkpoint cadence, and the channel to the durable thread.
struct WriterDurability {
    policy: DurabilityPolicy,
    /// Sequence number of the next drained batch.
    next_seq: u64,
    publishes_since_ckpt: u32,
    job_tx: mpsc::Sender<DurableJob>,
    /// Completions of appends not yet known durable; drained before any
    /// flush is acknowledged.
    pending: Vec<mpsc::Receiver<()>>,
}

impl WriterDurability {
    /// Queues one batch record for append+sync *before* the batch is
    /// applied, so the log can never lag published state by more than
    /// the in-flight batch. The job carries the batch's `Arc`s; the
    /// durable thread encodes the record. The sequence number is
    /// consumed even when degraded, so checkpoint coverage stays
    /// aligned with applied batches.
    fn log_batch(&mut self, scans: Vec<Arc<Scan>>, shared: &ServiceShared) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (done, done_rx) = mpsc::channel();
        if self
            .job_tx
            .send(DurableJob::Append { seq, scans, done })
            .is_err()
        {
            // The durable thread is gone (only an injected panic kills
            // it); degrade instead of killing the writer.
            lock_unpoisoned(&shared.state).health.wal_failed =
                Some("the durability thread has died".to_owned());
            return;
        }
        self.pending.push(done_rx);
    }

    /// Blocks until every queued append is synced (or the log has
    /// degraded). Called before flush acknowledgements: a returned
    /// flush means its scans are durable or the service is
    /// health-flagged.
    fn wait_pending(&mut self, shared: &ServiceShared) {
        for done in self.pending.drain(..) {
            if done.recv().is_err() {
                let mut state = lock_unpoisoned(&shared.state);
                if state.health.wal_failed.is_none() {
                    state.health.wal_failed = Some("the durability thread has died".to_owned());
                }
            }
        }
    }

    /// Counts one publish and cuts a checkpoint when the policy's
    /// cadence comes due.
    fn note_publish(&mut self, shared: &ServiceShared) {
        self.publishes_since_ckpt = self.publishes_since_ckpt.saturating_add(1);
        if let DurabilityPolicy::EveryNEpochs(n) = self.policy {
            if self.publishes_since_ckpt >= n.max(1) {
                let snapshot = lock_unpoisoned(&shared.state).snapshot.clone();
                self.trigger_checkpoint(snapshot, None, shared);
            }
        }
    }

    /// Queues a rotation to a fresh WAL segment (named by the coverage
    /// boundary, so garbage collection aligns with it) followed by the
    /// checkpoint itself.
    fn trigger_checkpoint(
        &mut self,
        snapshot: MapSnapshot,
        ack: Option<mpsc::Sender<Result<(), MapError>>>,
        shared: &ServiceShared,
    ) {
        self.publishes_since_ckpt = 0;
        let covers = self.next_seq;
        let sent = self
            .job_tx
            .send(DurableJob::Rotate {
                name: wal_name(covers),
            })
            .and_then(|()| {
                self.job_tx.send(DurableJob::Checkpoint {
                    snapshot,
                    covers_seq: covers,
                    ack,
                })
            });
        if sent.is_err() {
            // The durable thread is gone (only an injected panic kills
            // it). Degrade; the dropped ack surfaces as
            // [`MapError::ServiceShutdown`] at the caller.
            lock_unpoisoned(&shared.state).health.checkpoint_failed =
                Some("the durability thread has died".to_owned());
        }
    }
}

/// The durable thread: owns the open WAL segment and the store, runs
/// every append/fsync/checkpoint off the writer. Storage stalls never
/// block ingestion — the writer only waits at flush points. Records
/// stream through one [`RecordWriter`] buffer (64 KiB, one append per
/// full buffer), so no batch is ever encoded whole.
fn durable_loop(
    receiver: mpsc::Receiver<DurableJob>,
    store: Arc<dyn DurableDir>,
    mut wal: Option<Box<dyn DurableFile>>,
    shared: Arc<ServiceShared>,
) {
    let mut records = RecordWriter::new();
    while let Ok(job) = receiver.recv() {
        match job {
            DurableJob::Append { seq, scans, done } => {
                if let Some(w) = wal.as_mut() {
                    if let Err(e) = records.write(w.as_mut(), seq, &scans) {
                        // Degrade: close the log, flag health, keep
                        // serving. Rotation is the retry point.
                        wal = None;
                        lock_unpoisoned(&shared.state).health.wal_failed = Some(e.to_string());
                    }
                }
                let _ = done.send(());
            }
            DurableJob::Rotate { name } => match store.open_append(&name) {
                Ok(f) => {
                    wal = Some(f);
                    lock_unpoisoned(&shared.state).health.wal_failed = None;
                }
                Err(e) => {
                    wal = None;
                    lock_unpoisoned(&shared.state).health.wal_failed = Some(e.to_string());
                }
            },
            DurableJob::Checkpoint {
                snapshot,
                covers_seq,
                ack,
            } => {
                let epoch = snapshot.epoch();
                let bytes = snapshot.to_bytes();
                let result = store.write_atomic(&ckpt_name(covers_seq, epoch), &bytes);
                {
                    let mut state = lock_unpoisoned(&shared.state);
                    match &result {
                        Ok(()) => {
                            state.health.checkpoint_failed = None;
                            state.health.last_checkpoint_epoch = Some(epoch);
                            state.health.last_checkpoint_seq = Some(covers_seq);
                        }
                        Err(e) => state.health.checkpoint_failed = Some(e.to_string()),
                    }
                }
                if result.is_ok() {
                    gc_below(store.as_ref(), covers_seq);
                }
                if let Some(ack) = ack {
                    let _ = ack.send(result.map_err(MapError::Io));
                }
            }
        }
    }
}

/// Removes blobs a durable checkpoint covering `seq < covers`
/// obsoletes: WAL segments starting below it, older checkpoints, and
/// stale in-flight temp files. Best-effort — a failed removal costs
/// disk space, never correctness.
fn gc_below(store: &dyn DurableDir, covers: u64) {
    let Ok(names) = store.list() else { return };
    for name in names {
        let stale = if let Some(start) = parse_wal_name(&name) {
            start < covers
        } else if let Some((c, _)) = parse_ckpt_name(&name) {
            c < covers
        } else {
            name.starts_with(crate::durable::TMP_PREFIX)
        };
        if stale {
            let _ = store.remove(&name);
        }
    }
}

/// The writer loop: drain whatever is queued, journal it, apply it,
/// publish once, acknowledge flushes — so a burst of scans costs one
/// publish, and the snapshot a flush returns covers everything queued
/// before it.
fn writer_loop(
    mut map: OccupancyMap,
    receiver: mpsc::Receiver<Command>,
    shared: &ServiceShared,
    mut durability: Option<WriterDurability>,
) {
    'serve: loop {
        let first = match receiver.recv() {
            Ok(cmd) => cmd,
            Err(_) => break, // every handle gone; nothing more can arrive
        };
        let mut batch = vec![first];
        while let Ok(cmd) = receiver.try_recv() {
            batch.push(cmd);
        }
        // Journal the batch's scans before any of them mutates the map:
        // an acknowledged flush implies its scans are either durable or
        // the service is health-flagged as degraded.
        if let Some(d) = durability.as_mut() {
            let scans: Vec<Arc<Scan>> = batch
                .iter()
                .filter_map(|cmd| match cmd {
                    Command::Ingest(scan) => Some(Arc::clone(scan)),
                    _ => None,
                })
                .collect();
            if !scans.is_empty() {
                d.log_batch(scans, shared);
            }
        }
        let mut acks = Vec::new();
        let mut ckpt_acks = Vec::new();
        let mut stop = false;
        let mut applied = false;
        for cmd in batch {
            let result = match cmd {
                Command::Ingest(scan) => Some(map.insert(&scan)),
                Command::Flush(ack) => {
                    acks.push(ack);
                    None
                }
                Command::Checkpoint(ack) => {
                    ckpt_acks.push(ack);
                    None
                }
                Command::Stall(gate) => {
                    let _ = gate.recv();
                    None
                }
                // omu-lint: allow(no-panic) — deliberate test hook; the
                // spawn wrapper catches it into a typed writer error.
                Command::Panic => panic!("injected writer panic (debug_panic_writer)"),
                Command::Shutdown => {
                    stop = true;
                    None
                }
            };
            if let Some(result) = result {
                applied = true;
                let mut state = lock_unpoisoned(&shared.state);
                match result {
                    Ok(stats) => {
                        state.stats.scans_ingested += 1;
                        state.stats.rays += stats.rays;
                    }
                    Err(e) => {
                        state.stats.ingest_errors += 1;
                        if state.deferred_error.is_none() {
                            state.deferred_error = Some(e);
                        }
                    }
                }
            }
        }
        // Publish once per drained batch — but only when something was
        // applied (a bare flush must not burn an epoch), and always
        // before acknowledging, so flush-visibility holds.
        if applied {
            publish(&mut map, shared);
            if let Some(d) = durability.as_mut() {
                d.note_publish(shared);
            }
        }
        for ack in ckpt_acks {
            match durability.as_mut() {
                Some(d) => {
                    let snapshot = lock_unpoisoned(&shared.state).snapshot.clone();
                    d.trigger_checkpoint(snapshot, Some(ack), shared);
                }
                None => {
                    let _ = ack.send(Err(MapError::Unsupported {
                        backend: "service",
                        feature: "checkpoints (configure MapBuilder::durability)",
                    }));
                }
            }
        }
        if !acks.is_empty() {
            // A flush ack promises durability (or a health flag), so
            // this is the group-commit point: wait for every queued WAL
            // sync before acknowledging.
            if let Some(d) = durability.as_mut() {
                d.wait_pending(shared);
            }
        }
        for ack in acks {
            let _ = ack.send(());
        }
        if stop {
            break 'serve;
        }
    }
}

fn publish(map: &mut OccupancyMap, shared: &ServiceShared) {
    let changed: Arc<[VoxelKey]> = map.drain_changed_keys().into();
    let snapshot = match map.publish_snapshot() {
        Ok(s) => s,
        // Unreachable in practice: `spawn` already published once, which
        // proves the backend supports snapshots. Keep the old snapshot
        // rather than panicking the writer.
        Err(_) => return,
    };
    let epoch = snapshot.epoch();
    let mut state = lock_unpoisoned(&shared.state);
    state.snapshot = snapshot;
    state.stats.publishes += 1;
    if let Some(s) = map.snapshot_stats() {
        state.stats.snapshot = s;
    }
    state.ring.push_back((epoch, changed));
    while state.ring.len() > CHANGE_RING_EPOCHS {
        if let Some((evicted, _)) = state.ring.pop_front() {
            state.dropped_through = Some(evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Backend;
    use omu_geometry::PointCloud;

    fn scan(step: u64) -> Scan {
        Scan::new(
            Point3::new(0.01, 0.01, 0.01),
            (0..32)
                .map(|i| {
                    let a = (step * 32 + i) as f64 * 0.111;
                    Point3::new(2.0 * a.cos(), 2.0 * a.sin(), 0.2)
                })
                .collect::<PointCloud>(),
        )
    }

    #[test]
    fn service_snapshot_matches_serial_map() {
        let service = MapService::spawn(MapBuilder::new(0.1)).unwrap();
        let mut serial = MapBuilder::new(0.1).build().unwrap();
        for step in 0..4 {
            service.ingest(scan(step)).unwrap();
            serial.insert(&scan(step)).unwrap();
        }
        let snap = service.flush().unwrap();
        assert_eq!(snap.canonical_leaves(), serial.snapshot());
        assert_eq!(
            snap.occupancy_at(Point3::new(2.0, 0.0, 0.2)).unwrap(),
            Occupancy::Occupied
        );
        let stats = service.service_stats();
        assert_eq!(stats.scans_ingested, 4);
        assert!(stats.publishes >= 2, "initial publish plus batches");
        service.shutdown().unwrap();
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let service = MapService::spawn(MapBuilder::new(0.1)).unwrap();
        service.ingest(scan(0)).unwrap();
        let early = service.flush().unwrap();
        let early_leaves = early.canonical_leaves();
        for step in 1..4 {
            service.ingest(scan(step)).unwrap();
        }
        let late = service.flush().unwrap();
        assert!(late.epoch() > early.epoch());
        assert_ne!(late.canonical_leaves(), early_leaves);
        assert_eq!(early.canonical_leaves(), early_leaves, "pinned epoch");
        service.shutdown().unwrap();
    }

    #[test]
    fn fixed_backend_serves_identically_to_direct_map() {
        let service =
            MapService::spawn(MapBuilder::new(0.1).backend(Backend::SoftwareFixed)).unwrap();
        let mut serial = MapBuilder::new(0.1)
            .backend(Backend::SoftwareFixed)
            .build()
            .unwrap();
        service.ingest(scan(0)).unwrap();
        serial.insert(&scan(0)).unwrap();
        let snap = service.flush().unwrap();
        assert!(matches!(snap, MapSnapshot::SoftwareFixed(_)));
        assert_eq!(snap.canonical_leaves(), serial.snapshot());
        service.shutdown().unwrap();
    }

    #[test]
    fn subscription_drains_changes_and_reports_lag() {
        let service = MapService::spawn(MapBuilder::new(0.1)).unwrap();
        let mut sub = service.subscribe();
        service.ingest(scan(0)).unwrap();
        let snap = service.flush().unwrap();
        let changed = sub.poll().unwrap();
        assert!(!changed.is_empty());
        for &key in &changed {
            assert_ne!(snap.occupancy(key), Occupancy::Unknown);
        }
        assert!(sub.poll().unwrap().is_empty(), "drained");

        // Starve a second subscriber past the ring capacity: each flush
        // with work publishes exactly one epoch.
        let mut slow = service.subscribe();
        for _ in 0..(CHANGE_RING_EPOCHS + 3) {
            service.ingest(scan(1)).unwrap();
            service.flush().unwrap();
        }
        match slow.poll() {
            Err(MapError::Lagged { missed }) => assert!(missed >= 1),
            other => panic!("expected Lagged, got {other:?}"),
        }
        // Recovered: the next poll resumes from the retained window.
        slow.poll().unwrap();
        service.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_typed_and_snapshots_survive_it() {
        let service = MapService::spawn(MapBuilder::new(0.1)).unwrap();
        service.ingest(scan(0)).unwrap();
        let snap = service.flush().unwrap();
        let mut sub = service.subscribe();
        service.shutdown().unwrap();
        assert_eq!(
            snap.occupancy_at(Point3::new(2.0, 0.0, 0.2)).unwrap(),
            Occupancy::Occupied
        );
        assert!(matches!(sub.poll(), Err(MapError::ServiceShutdown)));
    }

    #[test]
    fn ingest_after_writer_death_is_shutdown_error() {
        let service = MapService::spawn(MapBuilder::new(0.1)).unwrap();
        // Simulate the handle outliving the writer by asking it to stop.
        service.sender.send_blocking(Command::Shutdown).unwrap();
        while !service.is_shut_down() {
            std::thread::yield_now();
        }
        // The channel stays open while the handle lives, so a late ingest
        // is detected at flush time: the queue is never drained again.
        let snap = service.snapshot();
        assert!(snap.is_empty());
    }

    #[test]
    fn bad_scan_surfaces_at_flush_and_map_stays_usable() {
        let service = MapService::spawn(MapBuilder::new(0.1)).unwrap();
        let far = *service.snapshot().converter();
        let bad_origin = Point3::new(far.map_half_extent() + 5.0, 0.0, 0.0);
        service
            .ingest(Scan::new(bad_origin, PointCloud::new()))
            .unwrap();
        service.ingest(scan(0)).unwrap();
        match service.flush() {
            Err(MapError::OutOfBounds(_)) => {}
            other => panic!("expected deferred OutOfBounds, got {other:?}"),
        }
        // The good scan was still applied and the error drained.
        let snap = service.flush().unwrap();
        assert!(!snap.is_empty());
        assert_eq!(service.service_stats().ingest_errors, 1);
        service.shutdown().unwrap();
    }

    #[test]
    fn concurrent_readers_on_the_reader_pool_see_published_epochs() {
        let service = MapService::spawn(MapBuilder::new(0.1)).unwrap();
        service.ingest(scan(0)).unwrap();
        let reference = service.flush().unwrap().canonical_leaves();
        let pool = Arc::clone(service.reader_pool());
        let results: Mutex<Vec<Vec<(VoxelKey, u8, f32)>>> = Mutex::new(Vec::new());
        pool.scope(|s| {
            for _ in 0..8 {
                let snap = service.snapshot();
                let results = &results;
                s.spawn(move || {
                    let leaves = snap.canonical_leaves();
                    results.lock().unwrap().push(leaves);
                });
            }
            // Keep writing while the readers run.
            for step in 1..4 {
                service.ingest(scan(step)).unwrap();
            }
        });
        for leaves in results.into_inner().unwrap() {
            assert_eq!(leaves, reference);
        }
        service.flush().unwrap();
        service.shutdown().unwrap();
    }
}
