//! Worker-pool lifecycle at the facade and octree level: one persistent
//! pool serves every parallel engine path with zero per-call thread
//! spawns, idle workers park, `Drop` joins them, and a worker panic
//! surfaces as typed [`MapError::WorkerPanicked`] without poisoning the
//! tree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use omu::geometry::{Point3, PointCloud, Scan, VoxelKey};
use omu::map::{Engine, MapBuilder, MapError};
use omu::octree::OctreeF32;
use omu::pool::{TaskPanic, WorkerPool};
use omu::raycast::VoxelUpdate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scan big enough for the sharded walk to fan out over the pool
/// (`PARALLEL_APPLY_MIN_KEYS` unique voxels).
fn big_scan(seed: u64) -> Scan {
    let mut rng = StdRng::seed_from_u64(seed);
    let cloud: PointCloud = (0..3000)
        .map(|_| {
            Point3::new(
                rng.random_range(-4.0..4.0),
                rng.random_range(-4.0..4.0),
                rng.random_range(-1.5..1.5),
            )
        })
        .collect();
    Scan::new(Point3::new(0.0, 0.0, 0.0), cloud)
}

/// A batch large enough that the sharded apply fans out over the pool,
/// spread across the center of key space so all eight branches exist.
fn big_batch(seed: u64) -> Vec<VoxelUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..6000)
        .map(|_| VoxelUpdate {
            key: VoxelKey::new(
                rng.random_range(32000..33500),
                rng.random_range(32000..33500),
                rng.random_range(32000..33500),
            ),
            hit: rng.random_range(0..4) != 0,
        })
        .collect()
}

#[test]
fn scope_runs_borrowed_tasks_to_completion() {
    let pool = WorkerPool::new(4);
    let counter = AtomicU64::new(0);
    pool.scope(|s| {
        for i in 0..16 {
            s.spawn_on(i, || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), 16);
    let stats = pool.stats();
    assert_eq!(stats.tasks_dispatched, 16);
    assert_eq!(stats.tasks_completed(), 16);
    // `spawn_on(i)` routes to queue `i % 4`, so at most 4 workers exist
    // no matter how many tasks ran.
    assert!(stats.threads_spawned <= 4, "stats: {stats:?}");
}

#[test]
fn drop_joins_workers_after_all_tasks_finish() {
    let counter = Arc::new(AtomicU64::new(0));
    {
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            pool.scope(|s| {
                for i in 0..3 {
                    let counter = Arc::clone(&counter);
                    s.spawn_on(i, move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        // `scope` blocks until its tasks complete, so the count is
        // exact before the pool is dropped (and `Drop` joins workers,
        // so the test exiting cleanly is itself the join assertion).
        assert_eq!(counter.load(Ordering::Relaxed), 150);
    }
    assert_eq!(counter.load(Ordering::Relaxed), 150);
}

#[test]
fn idle_workers_park_and_wake_for_the_next_scope() {
    let pool = WorkerPool::new(2);
    pool.scope(|s| {
        for i in 0..2 {
            s.spawn_on(i, || std::thread::sleep(Duration::from_millis(1)));
        }
    });
    let spawned = pool.stats().threads_spawned;
    assert!(spawned >= 1, "sleepy tasks force real workers to spawn");

    // Idle workers must end up parked on their condvars, not spinning.
    let deadline = Instant::now() + Duration::from_secs(5);
    while pool.stats().parks < spawned {
        assert!(Instant::now() < deadline, "workers never parked");
        std::thread::sleep(Duration::from_millis(2));
    }

    // A parked pool wakes up and runs the next scope with the same
    // threads — no respawn.
    let counter = AtomicU64::new(0);
    pool.scope(|s| {
        for i in 0..2 {
            s.spawn_on(i, || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), 2);
    assert_eq!(pool.stats().threads_spawned, spawned);
}

/// The acceptance gate: after the first parallel operation warms the
/// pool, `threads_spawned` stays flat across every subsequent parallel
/// write and read — zero per-call thread spawns on any engine path.
#[test]
fn parallel_engine_paths_reuse_one_pool_with_zero_per_call_spawns() {
    let mut map = MapBuilder::new(0.1)
        .engine(Engine::Sharded { shards: 8 })
        .worker_threads(8)
        .max_range(Some(12.0))
        .build()
        .unwrap();

    map.insert(&big_scan(1)).unwrap();
    let warm = map.pool_stats().expect("parallel insert created the pool");
    assert!(warm.scopes > 0, "sharded insert must dispatch via the pool");

    for seed in 2..8 {
        map.insert(&big_scan(seed)).unwrap();
    }
    // Engine switches reuse the same pool: nothing respawns.
    map.set_engine(Engine::Sharded { shards: 4 }).unwrap();
    map.insert(&big_scan(99)).unwrap();

    let after = map.pool_stats().unwrap();
    assert_eq!(
        after.threads_spawned, warm.threads_spawned,
        "a warmed pool must never spawn threads per call"
    );
    assert!(after.scopes > warm.scopes);
    assert_eq!(after.tasks_completed(), after.tasks_dispatched);
}

#[test]
fn builder_worker_threads_knob_sizes_the_pool() {
    let map = MapBuilder::new(0.1).worker_threads(3).build().unwrap();
    // The pool exists up front (the builder installed it), but workers
    // are lazy: none spawn until a parallel operation dispatches.
    let stats = map.pool_stats().expect("builder installed a pool");
    assert_eq!(stats.threads_spawned, 0);

    // Without the knob the pool itself is lazy.
    let map = MapBuilder::new(0.1).build().unwrap();
    assert!(map.pool_stats().is_none());
}

#[test]
fn worker_panic_is_typed_and_does_not_poison_the_map() {
    let scans: Vec<Scan> = (1..=3).map(big_scan).collect();
    let build = || {
        MapBuilder::new(0.1)
            .engine(Engine::Sharded { shards: 8 })
            .max_range(Some(12.0))
            .build()
            .unwrap()
    };

    let mut reference = build();
    for s in &scans {
        reference.insert(s).unwrap();
    }

    let mut map = build();
    map.insert(&scans[0]).unwrap();

    // Every branch is populated by a big random scan, so branch 0 is
    // guaranteed to carry a shard task.
    map.debug_inject_worker_panic(Some(0));
    let err = map.insert(&scans[1]).expect_err("injected panic surfaces");
    match err {
        MapError::WorkerPanicked(p) => {
            assert!(p.count() >= 1);
            assert!(
                p.first_message().contains("injected worker panic"),
                "panic message survives: {p}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // The tree is structurally intact: clearing the injection and
    // replaying from scratch converges to the reference map.
    map.debug_inject_worker_panic(None);
    let mut replay = build();
    for s in &scans {
        replay.insert(s).unwrap();
    }
    assert_eq!(replay.snapshot(), reference.snapshot());

    // And the panicked map itself keeps accepting scans (the pool and
    // scratch buffers are not poisoned).
    map.insert(&scans[2]).unwrap();
    assert!(map.pool_stats().unwrap().tasks_completed() > 0);
}

#[test]
fn worker_panic_leaves_the_tree_debug_validate_clean() {
    let updates = big_batch(11);
    let mut tree = OctreeF32::new(0.1).unwrap();
    tree.apply_update_batch(&updates);

    tree.debug_inject_worker_panic(Some(3));
    let p = tree
        .apply_update_batch_parallel(&big_batch(12), 8)
        .expect_err("injected panic propagates as TaskPanic");
    assert!(p.first_message().contains("injected worker panic"));

    // All shards were reattached despite the panic: the tree passes its
    // structural audit and keeps working.
    tree.debug_validate();
    tree.debug_inject_worker_panic(None);
    tree.apply_update_batch_parallel(&big_batch(13), 8).unwrap();
    tree.debug_validate();
}

#[test]
fn task_panic_is_a_well_behaved_error_type() {
    fn assert_bounds<T: std::error::Error + Send + Sync + Clone + PartialEq + 'static>() {}
    assert_bounds::<TaskPanic>();
    fn assert_map_err<T: std::error::Error + Send + Sync + 'static>() {}
    assert_map_err::<MapError>();
}
