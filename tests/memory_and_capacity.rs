//! Memory behaviour across crates: pruning savings, the prune address
//! manager's reuse, and graceful capacity exhaustion.

use omu::accel::{AccelError, OmuAccelerator, OmuConfig};
use omu::datasets::DatasetKind;
use omu::geometry::{Point3, PointCloud, Scan};
use omu::octree::OctreeF32;
use omu::raycast::IntegrationMode;

fn corridor_scans() -> (Vec<Scan>, f64, f64) {
    let dataset = DatasetKind::Fr079Corridor.build_scaled(0.05);
    let spec = *dataset.spec();
    (dataset.scans().collect(), spec.resolution, spec.max_range)
}

#[test]
fn pruning_saves_substantial_memory_without_accuracy_loss() {
    let (scans, resolution, max_range) = corridor_scans();
    let mut with_prune = OctreeF32::new(resolution).unwrap();
    let mut without_prune = OctreeF32::new(resolution).unwrap();
    for tree in [&mut with_prune, &mut without_prune] {
        tree.set_integration_mode(IntegrationMode::Raywise);
        tree.set_max_range(Some(max_range));
    }
    without_prune.set_pruning_enabled(false);
    for scan in &scans {
        with_prune.insert_scan(scan).unwrap();
        without_prune.insert_scan(scan).unwrap();
    }

    let saving = 1.0
        - with_prune.memory_stats().octomap_equivalent_bytes as f64
            / without_prune.memory_stats().octomap_equivalent_bytes as f64;
    // Paper (citing the OctoMap paper): up to 44 % savings.
    assert!(
        saving > 0.25,
        "pruning saved only {:.0} % (paper: up to 44 %)",
        saving * 100.0
    );

    // No accuracy loss: every finest voxel classifies identically.
    for leaf in without_prune.iter_leaves() {
        if leaf.depth == omu::geometry::TREE_DEPTH {
            assert_eq!(with_prune.occupancy(leaf.key), leaf.occupancy);
        }
    }

    // prune_all on the unpruned tree converges to the pruned size.
    without_prune.prune_all();
    assert_eq!(without_prune.num_nodes(), with_prune.num_nodes());
}

/// Memory-regression guard for the sibling-row arena: heap bytes per
/// live node on the corridor map must stay under a recorded ceiling.
///
/// The pre-refactor block arena measured 19.24 B/node on this workload
/// (scale 0.1, batched build); the sibling-row layout landed at
/// ≈8–9 B/node including vector capacity slack. The ceiling leaves
/// headroom for allocator noise while still failing loudly if a change
/// reintroduces per-node pointer overhead. Release builds only — debug
/// capacity growth patterns differ and the walk is ~20× slower.
#[test]
fn bytes_per_node_stays_under_recorded_ceiling() {
    if cfg!(debug_assertions) {
        eprintln!("skipping memory guard in debug build");
        return;
    }
    const CEILING_BYTES_PER_NODE: f64 = 13.0;
    let dataset = DatasetKind::Fr079Corridor.build_scaled(0.1);
    let spec = *dataset.spec();
    let mut tree = OctreeF32::new(spec.resolution).unwrap();
    tree.set_integration_mode(IntegrationMode::Raywise);
    tree.set_max_range(Some(spec.max_range));
    for scan in dataset.scans() {
        tree.insert_points(scan.origin, scan.cloud.points(), 1)
            .unwrap();
    }
    let mem = tree.memory_stats();
    assert!(mem.live_nodes > 10_000, "non-trivial map");
    assert!(
        mem.bytes_per_node() < CEILING_BYTES_PER_NODE,
        "arena regressed to {:.2} B/node (ceiling {CEILING_BYTES_PER_NODE}, \
         block arena was 19.24)",
        mem.bytes_per_node()
    );
    // The row accounting matches the tree structure: one row per inner
    // node plus the root row.
    let stats = tree.tree_stats();
    assert_eq!(mem.live_rows, stats.num_inner + 1);
}

#[test]
fn prune_address_manager_recycles_rows() {
    let (scans, resolution, max_range) = corridor_scans();
    let config = OmuConfig::builder()
        .rows_per_bank(1 << 15)
        .resolution(resolution)
        .max_range(Some(max_range))
        .build()
        .unwrap();
    let mut omu = OmuAccelerator::new(config).unwrap();
    for scan in &scans {
        omu.integrate_scan(scan).unwrap();
    }
    let stats = omu.stats();
    let reuse: u64 = stats.per_pe.iter().map(|p| p.prune_mgr.reuse_hits).sum();
    let fresh: u64 = stats.per_pe.iter().map(|p| p.prune_mgr.fresh_allocs).sum();
    let frees: u64 = stats.per_pe.iter().map(|p| p.prune_mgr.frees).sum();
    assert!(frees > 1_000, "pruning must free rows ({frees})");
    assert!(
        reuse as f64 > 0.5 * fresh as f64,
        "the stack must serve a large share of allocations (reuse {reuse} vs fresh {fresh})"
    );
    // Live rows stay well below the no-reuse footprint.
    let live: u64 = stats.per_pe.iter().map(|p| p.live_rows).sum();
    assert!(
        live < fresh + reuse,
        "reuse keeps the footprint below total allocations"
    );
}

#[test]
fn capacity_exhaustion_is_a_clean_error() {
    let config = OmuConfig::builder().rows_per_bank(16).build().unwrap();
    let mut omu = OmuAccelerator::new(config).unwrap();
    let scan = Scan::new(
        Point3::ZERO,
        (0..64)
            .map(|i| {
                let a = i as f64 * 0.1;
                Point3::new(6.0 * a.cos(), 6.0 * a.sin(), 1.0)
            })
            .collect::<PointCloud>(),
    );
    match omu.integrate_scan(&scan) {
        Err(AccelError::Capacity(c)) => {
            assert_eq!(c.rows_per_bank, 16);
            assert!(c.pe < 8);
        }
        other => panic!("expected capacity error, got {other:?}"),
    }
    // The device still answers queries after the overflow.
    let _ = omu.query_point(Point3::new(1.0, 0.0, 0.0)).unwrap();
}

#[test]
fn tmem_utilization_reported_sanely() {
    let (scans, resolution, max_range) = corridor_scans();
    let config = OmuConfig::builder()
        .rows_per_bank(1 << 15)
        .resolution(resolution)
        .max_range(Some(max_range))
        .build()
        .unwrap();
    let mut omu = OmuAccelerator::new(config).unwrap();
    for scan in &scans {
        omu.integrate_scan(scan).unwrap();
    }
    let u = omu.sram_utilization();
    assert!(u > 0.0 && u < 1.0, "utilization {u}");
    let stats = omu.stats();
    for pe in &stats.per_pe {
        assert!(pe.high_water_rows >= pe.live_rows);
    }
}
