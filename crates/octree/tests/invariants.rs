//! Property-based invariants of the occupancy octree under random
//! operation sequences.
//!
//! These are the structural guarantees OctoMap's correctness rests on:
//!
//! 1. Every stored value lies within the clamping bounds.
//! 2. Every inner node's value is the max of its children (eq. 3).
//! 3. The tree is canonical: no inner node has 8 equal-valued leaf
//!    children (it would have been pruned).
//! 4. Search answers agree with bulk iteration.
//! 5. Node accounting matches iteration.
//!
//! The scalar `update_key`, the oracle of every equivalence suite, is
//! itself checked value for value against a flat per-voxel grid.

use std::collections::HashMap;

use omu_geometry::{
    FixedLogOdds, LogOdds, Occupancy, OccupancyParams, Point3, PointCloud, Scan, VoxelKey,
    TREE_DEPTH,
};
use omu_octree::{OccupancyOctree, OctreeF32, OctreeFixed};
use proptest::prelude::*;

/// Checks all structural invariants via public APIs.
fn check_invariants<V: LogOdds>(tree: &OccupancyOctree<V>) {
    let params = tree.params();
    let mut leaves = 0usize;
    for leaf in tree.iter_leaves() {
        leaves += 1;
        // (1) Clamping bounds (half-LSB slack for the fixed representation).
        assert!(
            leaf.logodds >= params.clamp_min - 1e-3 && leaf.logodds <= params.clamp_max + 1e-3,
            "leaf {} out of clamp range: {}",
            leaf.key,
            leaf.logodds
        );
        // (4) Point search agrees with iteration for finest leaves.
        if leaf.depth == TREE_DEPTH {
            let (v, d) = tree
                .search(leaf.key)
                .expect("iterated leaf must be searchable");
            assert_eq!(d, TREE_DEPTH);
            assert_eq!(v.to_f32(), leaf.logodds);
        }
        // (2) Parent values dominate (max policy): every ancestor's value
        // is at least this leaf's value.
        for depth in (0..leaf.depth).rev() {
            let (pv, _) = tree
                .search_at_depth(leaf.key, depth)
                .expect("ancestors of a leaf exist");
            assert!(
                pv.to_f32() >= leaf.logodds - 1e-6,
                "ancestor at depth {depth} below leaf value"
            );
        }
    }
    // (5) Node accounting.
    let stats = tree.tree_stats();
    assert_eq!(stats.num_leaves, leaves);
    assert_eq!(stats.num_nodes, tree.num_nodes());
    assert_eq!(stats.num_inner + stats.num_leaves, stats.num_nodes);
    // (6) Sibling-row invariants: every inner node's child_mask equals
    // its set of live children, rows are singly-referenced, and free
    // lists exactly complement the reachable rows.
    tree.debug_validate();
    // Each inner node owns exactly one sibling row (+1 for the root row).
    let mem = tree.memory_stats();
    if stats.num_nodes > 0 {
        assert_eq!(mem.live_rows, stats.num_inner + 1, "rows ↔ inner nodes");
    }
}

/// Canonical form: updating any voxel inside a pruned leaf and undoing it
/// must re-prune back to the identical structure.
fn check_prune_canonical(tree: &mut OctreeF32) {
    let before = tree.snapshot();
    let coarse: Vec<VoxelKey> = tree
        .iter_leaves()
        .filter(|l| l.depth < TREE_DEPTH && l.occupancy == Occupancy::Occupied)
        .map(|l| l.key)
        .take(3)
        .collect();
    for key in coarse {
        // One miss then one hit inside the pruned region: values saturate
        // back to the clamp, so the octant re-prunes to the same map.
        tree.update_key(key, false);
        tree.update_key(key, true);
        tree.update_key(key, true);
        tree.update_key(key, true);
        tree.update_key(key, true);
        tree.update_key(key, true);
    }
    let after = tree.snapshot();
    assert_eq!(
        before, after,
        "saturate-and-return must restore the pruned map"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_updates_preserve_invariants(
        seed in any::<u64>(),
        updates in 50usize..400,
        span in 2u16..40,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ftree = OctreeF32::new(0.1).unwrap();
        let mut qtree = OctreeFixed::new(0.1).unwrap();
        for _ in 0..updates {
            let k = VoxelKey::new(
                32768 + rng.random_range(0..span),
                32768 + rng.random_range(0..span),
                32768 + rng.random_range(0..span),
            );
            let hit = rng.random_range(0..3) != 0;
            ftree.update_key(k, hit);
            qtree.update_key(k, hit);
        }
        check_invariants(&ftree);
        check_invariants(&qtree);
    }

    #[test]
    fn scan_insertion_preserves_invariants(seed in any::<u64>(), points in 10usize..80) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut tree = OctreeF32::new(0.2).unwrap();
        for _ in 0..3 {
            let origin = Point3::new(
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            );
            let cloud: PointCloud = (0..points)
                .map(|_| Point3::new(
                    rng.random_range(-8.0..8.0),
                    rng.random_range(-8.0..8.0),
                    rng.random_range(-3.0..3.0),
                ))
                .collect();
            tree.insert_scan(&Scan::new(origin, cloud)).unwrap();
        }
        check_invariants(&tree);
        // Serialization preserves the canonical structure.
        let restored = OctreeF32::from_bytes(&tree.to_bytes()).unwrap();
        prop_assert_eq!(restored.snapshot(), tree.snapshot());
    }

    #[test]
    fn saturated_octants_prune_canonically(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut tree = OctreeF32::new(0.1).unwrap();
        tree.set_early_abort_saturated(false);
        // Saturate a few whole octants so pruning definitely happens.
        for _ in 0..3 {
            let bx = 32768 + rng.random_range(0..20u16) * 2;
            let by = 32768 + rng.random_range(0..20u16) * 2;
            let bz = 32768 + rng.random_range(0..20u16) * 2;
            for _ in 0..6 {
                for i in 0..8u16 {
                    tree.update_key(
                        VoxelKey::new(bx + (i & 1), by + ((i >> 1) & 1), bz + ((i >> 2) & 1)),
                        true,
                    );
                }
            }
        }
        prop_assert!(tree.counters().prunes > 0);
        check_invariants(&tree);
        check_prune_canonical(&mut tree);
    }

    #[test]
    fn row_masks_track_live_children_under_mixed_engines(
        seed in any::<u64>(),
        updates in 30usize..250,
        span in 2u16..24,
        shards in 1usize..=8,
    ) {
        use omu_raycast::VoxelUpdate;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut tree = OctreeF32::new(0.1).unwrap();
        // Interleave scalar updates, sequential batches and the sharded
        // parallel apply — insert/update/prune/expand in every engine —
        // validating the row invariants between phases.
        for phase in 0..3 {
            let batch: Vec<VoxelUpdate> = (0..updates)
                .map(|_| VoxelUpdate {
                    key: VoxelKey::new(
                        // Straddle the branch boundary so several arena
                        // shards participate.
                        32760 + rng.random_range(0..span),
                        32760 + rng.random_range(0..span),
                        32760 + rng.random_range(0..span),
                    ),
                    hit: rng.random_range(0..4) != 0,
                })
                .collect();
            match phase {
                0 => {
                    for u in &batch {
                        tree.update_key(u.key, u.hit);
                    }
                }
                1 => {
                    tree.apply_update_batch(&batch);
                }
                _ => {
                    tree.apply_update_batch_parallel(&batch, shards).unwrap();
                }
            }
            tree.debug_validate();
        }
        // Maintenance passes keep the invariants too.
        tree.prune_all();
        tree.debug_validate();
        tree.update_inner_occupancy();
        tree.debug_validate();
        // And a serialization round trip rebuilds valid rows.
        let restored = OctreeF32::from_bytes(&tree.to_bytes()).unwrap();
        restored.debug_validate();
        prop_assert_eq!(restored.snapshot(), tree.snapshot());
        // Clearing returns every row to the free lists.
        let mut cleared = tree.clone();
        cleared.clear();
        cleared.debug_validate();
        prop_assert_eq!(cleared.num_nodes(), 0);
    }

    #[test]
    fn occupancy_is_deterministic_of_observation_multiset_per_voxel(
        hits in 0u32..12,
        misses in 0u32..12,
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        // Order of hits and misses on one voxel does not change the final
        // value (addition commutes under clamping only when not saturated;
        // with saturation order matters in general, but the *final
        // classification* after re-saturation must match when the sequence
        // never clamps). Constrain to non-clamping counts.
        let params = omu_geometry::OccupancyParams::default();
        let net = hits as f32 * params.hit + misses as f32 * params.miss;
        prop_assume!(net < params.clamp_max && net > params.clamp_min);
        prop_assume!(hits as f32 * params.hit < params.clamp_max);
        prop_assume!(misses as f32 * params.miss > params.clamp_min);

        let mut seq: Vec<bool> = std::iter::repeat_n(true, hits as usize)
            .chain(std::iter::repeat_n(false, misses as usize))
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = VoxelKey::ORIGIN;

        let mut a = OctreeF32::new(0.1).unwrap();
        for &h in &seq {
            a.update_key(k, h);
        }
        seq.shuffle(&mut rng);
        let mut b = OctreeF32::new(0.1).unwrap();
        for &h in &seq {
            b.update_key(k, h);
        }
        if hits + misses > 0 {
            let va = a.logodds(k).unwrap();
            let vb = b.logodds(k).unwrap();
            prop_assert!((va - vb).abs() < 1e-4, "order-dependence: {va} vs {vb}");
        }
    }
}

/// Feeds one seeded update stream to `update_key` and to a flat grid that
/// applies eq. 2 (`ResolvedParams::update`) per voxel from `V::ZERO`, and
/// asserts after every batch that the tree holds the grid's bits for
/// every key seen. Returns the tree's (prunes, expands).
fn flat_grid_run<V: LogOdds>(seed: u64, early_abort: bool) -> (u64, u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut params = OccupancyParams::default();
    if !seed.is_multiple_of(4) {
        // Random parameters; each field is its edge value a quarter of the
        // time (a zero hit or miss, a `-0.0` clamp bound).
        let mut draw = |edge: f32, lo: f32, hi: f32| {
            if rng.random_range(0..4) == 0 {
                edge
            } else {
                rng.random_range(lo..hi)
            }
        };
        params.hit = draw(0.0, 0.05, 2.0);
        params.miss = draw(0.0, -2.0, -0.05);
        params.clamp_min = draw(-0.0, -4.0, -0.5);
        params.clamp_max = draw(-0.0, 0.5, 4.0);
    }
    let resolved = params.resolve::<V>();
    let mut tree = OccupancyOctree::<V>::with_params(0.1, params).unwrap();
    tree.set_early_abort_saturated(early_abort);
    let mut flat: HashMap<VoxelKey, V> = HashMap::new();
    // A 4³ block straddling a branch boundary, hit often enough that its
    // octants saturate, prune, and re-expand on a later update.
    let base = 32766 + rng.random_range(0..2u16) * 2;
    let hit_rate = rng.random_range(0.0..1.0);
    for _batch in 0..6 {
        for _ in 0..120 {
            let mut axis = || base + rng.random_range(0..4u16);
            let key = VoxelKey::new(axis(), axis(), axis());
            let hit = rng.random_bool(hit_rate);
            tree.update_key(key, hit);
            let value = flat.entry(key).or_insert(V::ZERO);
            *value = resolved.update(*value, hit);
        }
        for (&key, value) in &flat {
            assert_eq!(
                tree.logodds(key).map(f32::to_bits),
                Some(value.to_f32().to_bits()),
                "seed {seed}, early abort {early_abort}, {params:?}, key {key}"
            );
        }
    }
    (tree.counters().prunes, tree.counters().expands)
}

#[test]
fn update_key_matches_a_flat_voxel_grid() {
    let (mut prunes, mut expands) = (0, 0);
    for seed in 0..120 {
        for early_abort in [true, false] {
            for (p, e) in [
                flat_grid_run::<f32>(seed, early_abort),
                flat_grid_run::<FixedLogOdds>(seed, early_abort),
            ] {
                prunes += p;
                expands += e;
            }
        }
    }
    assert!(
        prunes > 0 && expands > 0,
        "prunes {prunes}, expands {expands}"
    );
}
