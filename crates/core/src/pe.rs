//! The PE unit: one eighth of the partitioned octree plus its update
//! datapath.
//!
//! A PE owns the subtree(s) below one or more first-level branches of the
//! global octree. Its T-Mem stores one node per 64-bit entry; the 8
//! children of a node share a row (child `i` in bank `i`). One voxel
//! update executes:
//!
//! 1. **Descent** — follow the key's child indices from the PE root to
//!    depth 16, creating missing children (log-odds 0) or expanding pruned
//!    leaves (8 children inherit the leaf's value) on the way.
//! 2. **Leaf update** — one saturating fixed-point addition + clamp
//!    (eq. 2 of the paper).
//! 3. **Bottom-up pass** — for every ancestor: read the whole children
//!    row in one cycle, attempt the prune (all 8 children present, all
//!    leaves, all values equal), otherwise write back the max (eq. 3) and
//!    refreshed status tags.
//!
//! Every SRAM access and datapath cycle is accounted per stage in
//! [`PeStats`].

use omu_geometry::{FixedLogOdds, LogOdds, Occupancy, ResolvedParams, VoxelKey, TREE_DEPTH};

use crate::config::PeTiming;
use crate::entry::{ChildStatus, NodeEntry, NULL_PTR};
use crate::error::CapacityError;
use crate::prune_mgr::PruneAddrManager;
use crate::stats::PeStats;
use crate::treemem::TreeMem;

/// Tree levels below the PE root (depth 1) down to the leaves (depth 16).
const LEVELS: usize = (TREE_DEPTH - 1) as usize;

/// Result of one PE voxel update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeUpdateOutcome {
    /// The leaf's value after the update (before any prune replaced it
    /// with an equal-valued coarser leaf).
    pub new_value: FixedLogOdds,
    /// Service time of this update in cycles.
    pub service_cycles: u64,
}

/// Result of one cached-descent query ([`PeUnit::query_cached`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeQueryOutcome {
    /// Occupancy classification of the queried voxel — always identical
    /// to what [`PeUnit::query`] would report.
    pub occupancy: Occupancy,
    /// Service time of this query in cycles.
    pub cycles: u64,
    /// Descent levels replayed from the cursor's path registers.
    pub reused_levels: u64,
    /// Cycles the replay saved vs a full-rate descent of those levels.
    pub saved_cycles: u64,
}

/// The voxel query unit's cached-descent register file for one PE: the
/// node entries along the previous query's root path, so a query
/// sharing a Morton prefix with its predecessor replays the shared
/// levels from registers instead of re-reading T-Mem.
///
/// The cursor caches raw T-Mem contents, so it is only valid while no
/// update runs between queries — the accelerator's batched query entry
/// points create cursors per call, never across calls.
#[derive(Debug, Clone)]
pub struct PeQueryCursor {
    prev: Option<VoxelKey>,
    /// Deepest tree depth with a valid entry (0 = nothing cached;
    /// entry at depth `d` lives in `entries[d - 1]`).
    depth: u8,
    entries: [NodeEntry; TREE_DEPTH as usize],
}

impl PeQueryCursor {
    /// An empty cursor (first query descends from the PE root).
    pub fn new() -> Self {
        PeQueryCursor {
            prev: None,
            depth: 0,
            entries: [NodeEntry::EMPTY; TREE_DEPTH as usize],
        }
    }

    /// Invalidates the cached path (the next query descends from the PE
    /// root). Must be called after any update to the hosting PE — the
    /// registers cache raw T-Mem contents.
    pub fn reset(&mut self) {
        self.prev = None;
        self.depth = 0;
    }
}

impl Default for PeQueryCursor {
    fn default() -> Self {
        Self::new()
    }
}

/// One processing element of the OMU accelerator.
#[derive(Debug, Clone)]
pub struct PeUnit {
    id: usize,
    mem: TreeMem,
    mgr: PruneAddrManager,
    resolved: ResolvedParams<FixedLogOdds>,
    timing: PeTiming,
    pruning_enabled: bool,
    rows_per_bank: usize,
    /// Whether the root entry of each first-level branch is live. With 8
    /// PEs a PE hosts one branch; with fewer, several (branch ≡ pe mod
    /// num_pes). Root entries live in row 0, bank = branch.
    root_live: [bool; 8],
    stats: PeStats,
}

impl PeUnit {
    /// Creates an idle PE.
    pub fn new(
        id: usize,
        rows_per_bank: usize,
        prune_stack_capacity: usize,
        resolved: ResolvedParams<FixedLogOdds>,
        timing: PeTiming,
        pruning_enabled: bool,
    ) -> Self {
        PeUnit {
            id,
            mem: TreeMem::new(rows_per_bank),
            mgr: PruneAddrManager::new(rows_per_bank, prune_stack_capacity),
            resolved,
            timing,
            pruning_enabled,
            rows_per_bank,
            root_live: [false; 8],
            stats: PeStats::default(),
        }
    }

    /// The PE index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Classifies a value into the 2-bit leaf status tag.
    #[inline]
    fn leaf_tag(&self, prob: FixedLogOdds) -> ChildStatus {
        if prob >= self.resolved.occupancy_threshold {
            ChildStatus::Occupied
        } else {
            ChildStatus::Free
        }
    }

    fn capacity_error(&self) -> CapacityError {
        CapacityError {
            pe: self.id,
            rows_per_bank: self.rows_per_bank,
        }
    }

    /// Executes one voxel update (hit or miss) for a key whose first-level
    /// branch this PE hosts.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] when the T-Mem has no free row for a
    /// required creation/expansion. The update is abandoned mid-way in
    /// that case (as the hardware would raise an interrupt).
    pub fn update_voxel(
        &mut self,
        key: VoxelKey,
        hit: bool,
    ) -> Result<PeUpdateOutcome, CapacityError> {
        let t = self.timing;
        let branch = key.first_level_branch().index();
        let mut cycles: u64 = 0;

        let mut path_locs = [(0u32, 0usize); LEVELS + 1];
        let mut path_entries = [NodeEntry::EMPTY; LEVELS + 1];

        // PE root (depth 1) lives at row 0, bank = branch.
        let mut just_created = false;
        path_locs[0] = (0, branch);
        path_entries[0] = self.mem.read_entry(0, branch);
        if !self.root_live[branch] {
            path_entries[0] = NodeEntry::EMPTY;
            self.root_live[branch] = true;
            just_created = true;
        }

        // --- Descent: nodes at depths 1..=15, leaf at 16. ---
        for step in 0..LEVELS {
            let depth = (step + 1) as u8;
            let pos = key.child_index_at(depth).index();
            let (row, bank) = path_locs[step];
            let mut node = path_entries[step];

            if !node.child_status(pos).exists() {
                if !node.has_children() && !just_created {
                    // Expand a pruned leaf: all 8 children inherit its value.
                    let new_row = self.mgr.alloc().ok_or_else(|| self.capacity_error())?;
                    let child = NodeEntry {
                        ptr: NULL_PTR,
                        tags: 0,
                        prob: node.prob,
                    };
                    self.mem.write_row(new_row, [child; 8]);
                    let tag = self.leaf_tag(node.prob);
                    node.ptr = new_row;
                    node.tags = 0;
                    for p in 0..8 {
                        node = node.with_child_status(p, tag);
                    }
                    self.mem.write_entry(row, bank, node);
                    cycles += t.expand_action;
                    self.stats.expands += 1;
                    self.stats.stage_cycles.expand += t.expand_action;
                    just_created = false;
                } else {
                    // Create just the requested child (log-odds 0).
                    if node.ptr == NULL_PTR {
                        let new_row = self.mgr.alloc().ok_or_else(|| self.capacity_error())?;
                        self.mem.write_row(new_row, [NodeEntry::EMPTY; 8]);
                        node.ptr = new_row;
                    } else {
                        self.mem.write_entry(node.ptr, pos, NodeEntry::EMPTY);
                    }
                    node = node.with_child_status(pos, self.leaf_tag(FixedLogOdds::ZERO));
                    self.mem.write_entry(row, bank, node);
                    cycles += t.create_action;
                    self.stats.creates += 1;
                    self.stats.stage_cycles.create += t.create_action;
                    just_created = true;
                }
                path_entries[step] = node;
            } else {
                just_created = false;
            }

            // Step into the child.
            let child_row = path_entries[step].ptr;
            debug_assert_ne!(child_row, NULL_PTR, "descending through a leaf");
            path_locs[step + 1] = (child_row, pos);
            path_entries[step + 1] = self.mem.read_entry(child_row, pos);
        }
        // One dependent read per level: the PE root plus 15 below it.
        let traverse_cycles = t.traverse_per_level * (LEVELS as u64 + 1);
        cycles += traverse_cycles;
        self.stats.stage_cycles.traverse += traverse_cycles;

        // --- Leaf update (eq. 2). ---
        let (leaf_row, leaf_bank) = path_locs[LEVELS];
        let mut leaf = path_entries[LEVELS];
        leaf.prob = self.resolved.update(leaf.prob, hit);
        self.mem.write_entry(leaf_row, leaf_bank, leaf);
        path_entries[LEVELS] = leaf;
        cycles += t.leaf_update;
        self.stats.stage_cycles.leaf += t.leaf_update;
        let new_value = leaf.prob;

        // --- Bottom-up: parents at depths 15..=1 (eq. 3 + prune). ---
        for step in (0..LEVELS).rev() {
            let (row, bank) = path_locs[step];
            let mut node = path_entries[step];
            debug_assert_ne!(node.ptr, NULL_PTR);
            let kids = self.mem.read_row(node.ptr);
            cycles += t.parent_per_level + t.prune_check_per_level;
            self.stats.stage_cycles.parent += t.parent_per_level;
            self.stats.stage_cycles.prune_check += t.prune_check_per_level;

            // Refresh the child status tags from the row just read;
            // existence can only be asserted by the old tags (an EMPTY
            // entry is indistinguishable from a fresh log-odds-0 leaf).
            let mut new_tags = NodeEntry { tags: 0, ..node };
            let mut all_prunable = self.pruning_enabled;
            let mut all_equal = true;
            let mut max_prob: Option<FixedLogOdds> = None;
            for (pos, kid) in kids.iter().enumerate() {
                let old = node.child_status(pos);
                if !old.exists() {
                    all_prunable = false;
                    continue;
                }
                let status = if !kid.is_leaf() {
                    all_prunable = false;
                    ChildStatus::Inner
                } else {
                    if kid.prob != kids[0].prob {
                        all_equal = false;
                    }
                    self.leaf_tag(kid.prob)
                };
                new_tags = new_tags.with_child_status(pos, status);
                max_prob = Some(match max_prob {
                    Some(m) => LogOdds::max_of(m, kid.prob),
                    None => kid.prob,
                });
            }

            if all_prunable && all_equal {
                // Prune: recycle the children row, become a leaf.
                self.mgr.free(node.ptr);
                node = NodeEntry {
                    ptr: NULL_PTR,
                    tags: 0,
                    prob: kids[0].prob,
                };
                self.mem.write_entry(row, bank, node);
                cycles += t.prune_action;
                self.stats.prunes += 1;
                self.stats.stage_cycles.prune_action += t.prune_action;
            } else {
                node.tags = new_tags.tags;
                if let Some(m) = max_prob {
                    node.prob = m;
                }
                self.mem.write_entry(row, bank, node);
            }
            path_entries[step] = node;
        }

        self.stats.updates += 1;
        self.stats.busy_cycles += cycles;
        Ok(PeUpdateOutcome {
            new_value,
            service_cycles: cycles,
        })
    }

    /// Queries the occupancy of a voxel, returning the classification and
    /// the query latency in cycles.
    pub fn query(&mut self, key: VoxelKey) -> (Occupancy, u64) {
        let t = self.timing;
        let branch = key.first_level_branch().index();
        let mut cycles = t.query_overhead;
        if !self.root_live[branch] {
            return (Occupancy::Unknown, cycles);
        }
        let mut entry = self.mem.read_entry(0, branch);
        cycles += t.query_per_level;
        for depth in 1..TREE_DEPTH {
            if entry.is_leaf() {
                return (self.classify(entry.prob), cycles);
            }
            let pos = key.child_index_at(depth).index();
            if !entry.child_status(pos).exists() {
                return (Occupancy::Unknown, cycles);
            }
            entry = self.mem.read_entry(entry.ptr, pos);
            cycles += t.query_per_level;
        }
        (self.classify(entry.prob), cycles)
    }

    /// Queries the occupancy of a voxel through a cached-descent cursor:
    /// levels the key shares with the cursor's previous query replay
    /// from the path registers at a per-level cost discounted by
    /// `discount_pct` percent (the voxel scheduler's burst analogue on
    /// the read side); only the new suffix pays full-rate T-Mem reads.
    ///
    /// The classification is always identical to [`Self::query`] — the
    /// cursor only changes which reads hit registers vs SRAM — provided
    /// no update ran on this PE since the cursor's previous query.
    pub fn query_cached(
        &mut self,
        key: VoxelKey,
        cursor: &mut PeQueryCursor,
        discount_pct: u32,
    ) -> PeQueryOutcome {
        let t = self.timing;
        let branch = key.first_level_branch().index();
        let mut cycles = t.query_overhead;
        let mut reused_levels = 0u64;
        let mut saved_cycles = 0u64;

        if !self.root_live[branch] {
            cursor.prev = None;
            cursor.depth = 0;
            return PeQueryOutcome {
                occupancy: Occupancy::Unknown,
                cycles,
                reused_levels,
                saved_cycles,
            };
        }

        // Resume from the deepest cached level on this key's root path.
        // A shared prefix of ≥ 1 level implies the same first-level
        // branch, so the cached entries are on the right PE subtree.
        let prefix = cursor.prev.map_or(0, |p| p.common_prefix_depth(key));
        let resume = prefix.min(cursor.depth);
        let (mut entry, mut depth) = if resume >= 1 {
            let full = t.query_per_level * resume as u64;
            let charged = full - full * discount_pct as u64 / 100;
            cycles += charged;
            reused_levels = resume as u64;
            saved_cycles = full - charged;
            (cursor.entries[(resume - 1) as usize], resume)
        } else {
            let entry = self.mem.read_entry(0, branch);
            cycles += t.query_per_level;
            cursor.entries[0] = entry;
            (entry, 1)
        };

        let occupancy = loop {
            if entry.is_leaf() || depth == TREE_DEPTH {
                break self.classify(entry.prob);
            }
            let pos = key.child_index_at(depth).index();
            if !entry.child_status(pos).exists() {
                break Occupancy::Unknown;
            }
            entry = self.mem.read_entry(entry.ptr, pos);
            cycles += t.query_per_level;
            depth += 1;
            cursor.entries[(depth - 1) as usize] = entry;
        };
        cursor.prev = Some(key);
        cursor.depth = depth;
        PeQueryOutcome {
            occupancy,
            cycles,
            reused_levels,
            saved_cycles,
        }
    }

    #[inline]
    fn classify(&self, prob: FixedLogOdds) -> Occupancy {
        self.resolved.classify(prob)
    }

    /// True when this PE holds no observation in any of its first-level
    /// branches (O(1): checks the root-row liveness flags only).
    pub fn is_empty(&self) -> bool {
        !self.root_live.iter().any(|&live| live)
    }

    /// Reads the log-odds of the node covering `key` with uncounted peeks
    /// (no cycle or SRAM accounting — map export is not a hardware
    /// operation). `None` when the voxel was never observed.
    pub fn peek_logodds(&self, key: VoxelKey) -> Option<f32> {
        let branch = key.first_level_branch().index();
        if !self.root_live[branch] {
            return None;
        }
        let mut entry = self.mem.peek_entry(0, branch);
        for depth in 1..TREE_DEPTH {
            if entry.is_leaf() {
                return Some(entry.prob.to_f32());
            }
            let pos = key.child_index_at(depth).index();
            if !entry.child_status(pos).exists() {
                return None;
            }
            entry = self.mem.peek_entry(entry.ptr, pos);
        }
        Some(entry.prob.to_f32())
    }

    /// Appends this PE's leaves to `out` as `(key, depth, logodds)` —
    /// the same canonical form as
    /// [`OccupancyOctree::snapshot`](omu_octree::OccupancyOctree::snapshot).
    /// Uses uncounted peeks (map export is not a hardware operation).
    pub fn snapshot_into(&self, out: &mut Vec<(VoxelKey, u8, f32)>) {
        for branch in 0..8 {
            if !self.root_live[branch] {
                continue;
            }
            let bit = (TREE_DEPTH - 1) as u32;
            let key = VoxelKey::new(
                ((branch & 1) as u16) << bit,
                (((branch >> 1) & 1) as u16) << bit,
                (((branch >> 2) & 1) as u16) << bit,
            );
            self.walk_snapshot(0, branch, 1, key, out);
        }
    }

    fn walk_snapshot(
        &self,
        row: u32,
        bank: usize,
        depth: u8,
        key: VoxelKey,
        out: &mut Vec<(VoxelKey, u8, f32)>,
    ) {
        let e = self.mem.peek_entry(row, bank);
        if e.is_leaf() {
            out.push((key, depth, e.prob.to_f32()));
            return;
        }
        let bit = (TREE_DEPTH - 1 - depth) as u32;
        for pos in 0..8 {
            if e.child_status(pos).exists() {
                let child_key = VoxelKey::new(
                    key.x | (((pos & 1) as u16) << bit),
                    key.y | ((((pos >> 1) & 1) as u16) << bit),
                    key.z | ((((pos >> 2) & 1) as u16) << bit),
                );
                self.walk_snapshot(e.ptr, pos, depth + 1, child_key, out);
            }
        }
    }

    /// Appends this PE's leaves whose extents intersect the key box
    /// `[min, max]` (inclusive per axis), pruning whole subtrees outside
    /// the box — the region-query analogue of [`Self::snapshot_into`],
    /// with uncounted peeks. Cost scales with the region, not the map.
    pub fn snapshot_box_into(
        &self,
        min: VoxelKey,
        max: VoxelKey,
        out: &mut Vec<(VoxelKey, u8, f32)>,
    ) {
        for branch in 0..8 {
            if !self.root_live[branch] {
                continue;
            }
            let bit = (TREE_DEPTH - 1) as u32;
            let key = VoxelKey::new(
                ((branch & 1) as u16) << bit,
                (((branch >> 1) & 1) as u16) << bit,
                (((branch >> 2) & 1) as u16) << bit,
            );
            self.walk_snapshot_box(0, branch, 1, key, min, max, out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_snapshot_box(
        &self,
        row: u32,
        bank: usize,
        depth: u8,
        key: VoxelKey,
        min: VoxelKey,
        max: VoxelKey,
        out: &mut Vec<(VoxelKey, u8, f32)>,
    ) {
        // A node at `depth` spans `span` finest voxels per axis from its
        // anchor key.
        let span = 1u32 << (TREE_DEPTH - depth);
        let overlaps = |anchor: u16, lo: u16, hi: u16| {
            let a = anchor as u32;
            a <= hi as u32 && a + span > lo as u32
        };
        if !(overlaps(key.x, min.x, max.x)
            && overlaps(key.y, min.y, max.y)
            && overlaps(key.z, min.z, max.z))
        {
            return;
        }
        let e = self.mem.peek_entry(row, bank);
        if e.is_leaf() {
            out.push((key, depth, e.prob.to_f32()));
            return;
        }
        let bit = (TREE_DEPTH - 1 - depth) as u32;
        for pos in 0..8 {
            if e.child_status(pos).exists() {
                let child_key = VoxelKey::new(
                    key.x | (((pos & 1) as u16) << bit),
                    key.y | ((((pos >> 1) & 1) as u16) << bit),
                    key.z | ((((pos >> 2) & 1) as u16) << bit),
                );
                self.walk_snapshot_box(e.ptr, pos, depth + 1, child_key, min, max, out);
            }
        }
    }

    /// Number of leaves this PE holds, without materializing a snapshot
    /// (uncounted peeks).
    pub fn num_leaves(&self) -> usize {
        let mut count = 0usize;
        for branch in 0..8 {
            if self.root_live[branch] {
                self.count_leaves(0, branch, &mut count);
            }
        }
        count
    }

    fn count_leaves(&self, row: u32, bank: usize, count: &mut usize) {
        let e = self.mem.peek_entry(row, bank);
        if e.is_leaf() {
            *count += 1;
            return;
        }
        for pos in 0..8 {
            if e.child_status(pos).exists() {
                self.count_leaves(e.ptr, pos, count);
            }
        }
    }

    /// This PE's statistics (SRAM and allocator counters sampled live).
    pub fn stats(&self) -> PeStats {
        let mut s = self.stats;
        s.sram = self.mem.stats();
        s.prune_mgr = self.mgr.stats();
        s.live_rows = self.mgr.live_rows();
        s.high_water_rows = self.mgr.high_water_live();
        s
    }

    /// Resets activity counters (map contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = PeStats::default();
        self.mem.reset_stats();
    }

    /// Current T-Mem utilization (live rows / usable rows).
    pub fn utilization(&self) -> f64 {
        self.mgr.utilization()
    }

    /// Flips one stored bit — soft-error fault injection. A flipped
    /// probability or tag surfaces as a map divergence that
    /// [`verify`](crate::verify) detects; a flipped pointer corrupts a
    /// subtree.
    ///
    /// # Panics
    ///
    /// Panics if `row`, `bank` or `bit` is out of range.
    pub fn inject_bit_flip(&mut self, row: u32, bank: usize, bit: u32) {
        self.mem.inject_bit_flip(row, bank, bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omu_geometry::OccupancyParams;

    fn pe() -> PeUnit {
        PeUnit::new(
            0,
            4096,
            512,
            OccupancyParams::default().resolve::<FixedLogOdds>(),
            PeTiming::default(),
            true,
        )
    }

    fn key_in_branch(branch: u16, offset: (u16, u16, u16)) -> VoxelKey {
        // Branch bits go to bit 15 of each axis.
        VoxelKey::new(
            ((branch & 1) << 15) | offset.0,
            (((branch >> 1) & 1) << 15) | offset.1,
            (((branch >> 2) & 1) << 15) | offset.2,
        )
    }

    #[test]
    fn single_hit_is_queryable() {
        let mut pe = pe();
        let k = key_in_branch(7, (100, 200, 300));
        let out = pe.update_voxel(k, true).unwrap();
        assert!(out.new_value > FixedLogOdds::ZERO);
        assert!(
            out.service_cycles > 50,
            "full descent + up-phase takes real cycles"
        );
        let (occ, cycles) = pe.query(k);
        assert_eq!(occ, Occupancy::Occupied);
        assert!(cycles > 0);
    }

    #[test]
    fn unobserved_is_unknown() {
        let mut pe = pe();
        pe.update_voxel(key_in_branch(7, (100, 200, 300)), true)
            .unwrap();
        let (occ, _) = pe.query(key_in_branch(7, (101, 200, 300)));
        assert_eq!(occ, Occupancy::Unknown);
        // A branch never touched is unknown at zero depth.
        let (occ, _) = pe.query(key_in_branch(0, (1, 1, 1)));
        assert_eq!(occ, Occupancy::Unknown);
    }

    #[test]
    fn misses_classify_free() {
        let mut pe = pe();
        let k = key_in_branch(3, (7, 8, 9));
        for _ in 0..3 {
            pe.update_voxel(k, false).unwrap();
        }
        assert_eq!(pe.query(k).0, Occupancy::Free);
    }

    #[test]
    fn saturated_octant_prunes_and_reexpands() {
        let mut pe = pe();
        // Saturate all 8 sibling voxels of one finest octant.
        for _round in 0..10 {
            for i in 0..8u16 {
                let k = key_in_branch(0, (2 + (i & 1), 4 + ((i >> 1) & 1), 6 + ((i >> 2) & 1)));
                pe.update_voxel(k, true).unwrap();
            }
        }
        let stats = pe.stats();
        assert!(stats.prunes > 0, "equal saturated siblings must prune");
        // The pruned leaf serves queries for all 8 voxels.
        for i in 0..8u16 {
            let k = key_in_branch(0, (2 + (i & 1), 4 + ((i >> 1) & 1), 6 + ((i >> 2) & 1)));
            assert_eq!(pe.query(k).0, Occupancy::Occupied);
        }
        // A miss inside the pruned region expands it again.
        let expands_before = pe.stats().expands;
        pe.update_voxel(key_in_branch(0, (2, 4, 6)), false).unwrap();
        assert!(pe.stats().expands > expands_before);
    }

    #[test]
    fn prune_returns_rows_for_reuse() {
        let mut pe = pe();
        for _round in 0..10 {
            for i in 0..8u16 {
                let k = key_in_branch(0, (2 + (i & 1), 4 + ((i >> 1) & 1), 6 + ((i >> 2) & 1)));
                pe.update_voxel(k, true).unwrap();
            }
        }
        let s = pe.stats();
        assert!(s.prune_mgr.frees > 0);
        // Re-expansion after prune reuses a recycled row.
        pe.update_voxel(key_in_branch(0, (2, 4, 6)), false).unwrap();
        assert!(
            pe.stats().prune_mgr.reuse_hits > 0,
            "expansion must reuse pruned rows"
        );
    }

    #[test]
    fn capacity_exhaustion_reports_error() {
        let mut tiny = PeUnit::new(
            1,
            8, // 7 usable rows — exhausted after a single deep path
            8,
            OccupancyParams::default().resolve::<FixedLogOdds>(),
            PeTiming::default(),
            true,
        );
        let e = tiny
            .update_voxel(key_in_branch(0, (333, 444, 555)), true)
            .unwrap_err();
        assert_eq!(e.pe, 1);
        assert_eq!(e.rows_per_bank, 8);
    }

    #[test]
    fn stage_cycles_accumulate_sanely() {
        let mut pe = pe();
        pe.update_voxel(key_in_branch(5, (10, 20, 30)), true)
            .unwrap();
        let s = pe.stats();
        let stage = s.stage_cycles;
        assert!(stage.traverse > 0);
        assert!(stage.leaf > 0);
        assert!(stage.parent > 0);
        assert!(stage.prune_check > 0);
        assert_eq!(s.updates, 1);
        assert!(s.busy_cycles >= stage.traverse + stage.leaf);
        // Fresh path: 15 creations below the root.
        assert_eq!(s.creates, 15);
    }

    #[test]
    fn sram_accesses_are_counted() {
        let mut pe = pe();
        pe.update_voxel(key_in_branch(2, (50, 60, 70)), true)
            .unwrap();
        let s = pe.stats();
        // At minimum: 16 descent reads + 15 row reads (8 each) on the way up.
        assert!(s.sram.reads >= 16 + 15 * 8, "reads = {}", s.sram.reads);
        assert!(s.sram.writes > 15, "writes = {}", s.sram.writes);
    }

    #[test]
    fn cached_query_matches_plain_query_everywhere() {
        let mut pe = pe();
        // A small structured map: a run of voxels plus a pruned octant.
        for i in 0..24u16 {
            pe.update_voxel(key_in_branch(2, (100 + i, 200, 300)), i % 3 != 0)
                .unwrap();
        }
        for _ in 0..10 {
            for i in 0..8u16 {
                let k = key_in_branch(2, (2 + (i & 1), 4 + ((i >> 1) & 1), 6 + ((i >> 2) & 1)));
                pe.update_voxel(k, true).unwrap();
            }
        }
        let mut cursor = PeQueryCursor::new();
        let mut total_reused = 0u64;
        let mut total_saved = 0u64;
        // Probe a coherent stream (adjacent keys) and scattered keys,
        // including unknowns and a branch the PE never touched.
        let keys: Vec<VoxelKey> =
            (0..24u16)
                .map(|i| key_in_branch(2, (100 + i, 200, 300)))
                .chain((0..8u16).map(|i| {
                    key_in_branch(2, (2 + (i & 1), 4 + ((i >> 1) & 1), 6 + ((i >> 2) & 1)))
                }))
                .chain([
                    key_in_branch(2, (999, 999, 999)),
                    key_in_branch(5, (1, 2, 3)),
                ])
                .collect();
        for k in keys {
            let plain = pe.query(k).0;
            let out = pe.query_cached(k, &mut cursor, 25);
            assert_eq!(out.occupancy, plain, "key {k}");
            total_reused += out.reused_levels;
            total_saved += out.saved_cycles;
        }
        assert!(total_reused > 0, "adjacent keys must replay registers");
        assert!(total_saved > 0, "replays must be discounted");
    }

    #[test]
    fn cached_query_discount_shrinks_cycles() {
        let mut pe = pe();
        let a = key_in_branch(1, (500, 600, 700));
        let b = key_in_branch(1, (501, 600, 700));
        pe.update_voxel(a, true).unwrap();
        pe.update_voxel(b, true).unwrap();

        // Full-rate second query (0 % discount) vs discounted replay.
        let mut c0 = PeQueryCursor::new();
        pe.query_cached(a, &mut c0, 0);
        let flat = pe.query_cached(b, &mut c0, 0);
        let mut c25 = PeQueryCursor::new();
        pe.query_cached(a, &mut c25, 25);
        let discounted = pe.query_cached(b, &mut c25, 25);
        assert_eq!(flat.occupancy, discounted.occupancy);
        assert_eq!(flat.reused_levels, discounted.reused_levels);
        assert_eq!(flat.saved_cycles, 0);
        assert!(discounted.saved_cycles > 0);
        assert!(discounted.cycles < flat.cycles);

        // Reset forgets the path: the next query replays nothing.
        c25.reset();
        assert_eq!(pe.query_cached(a, &mut c25, 25).reused_levels, 0);
    }

    #[test]
    fn snapshot_contains_updated_voxel() {
        let mut pe = pe();
        let k = key_in_branch(6, (123, 456, 789));
        pe.update_voxel(k, true).unwrap();
        let mut snap = Vec::new();
        pe.snapshot_into(&mut snap);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, k);
        assert_eq!(snap[0].1, TREE_DEPTH);
        assert!(snap[0].2 > 0.0);
    }
}
