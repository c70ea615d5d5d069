//! Operation counters feeding the CPU timing models.
//!
//! Each counter corresponds to one of the runtime-breakdown categories in
//! Fig. 3 / Fig. 10 of the OMU paper:
//!
//! | Paper category      | Counters |
//! | ------------------- | -------- |
//! | Ray casting         | `dda_steps` |
//! | Update leaf         | `leaf_updates`, `traverse_steps`, `saturation_probes` |
//! | Update parents      | `parent_updates`, `parent_child_reads` |
//! | Node prune / expand | `prune_checks`, `prune_child_reads`, `prunes`, `expands` |

use serde::{Deserialize, Serialize};

/// Cumulative operation counts for one octree (or one accelerator run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounters {
    /// DDA steps performed during ray casting.
    pub dda_steps: u64,
    /// Leaf log-odds additions (one per voxel update reaching depth 16,
    /// including the no-op misses the batch engine's run replay skips).
    pub leaf_updates: u64,
    /// Levels descended while locating leaves (root → leaf traversal steps).
    pub traverse_steps: u64,
    /// Saturation pre-checks (OctoMap's early-abort `search` before an
    /// update), counted as full traversals.
    pub saturation_probes: u64,
    /// Voxel updates skipped because the covering leaf was already
    /// saturated in the update direction.
    pub saturated_skips: u64,
    /// Inner-node occupancy recomputations (max over children).
    pub parent_updates: u64,
    /// Child values read during parent updates.
    pub parent_child_reads: u64,
    /// Prune attempts (collapsibility checks on the way up).
    pub prune_checks: u64,
    /// Child values read during prune checks.
    pub prune_child_reads: u64,
    /// Successful prunes (8 children deleted, parent became a leaf).
    pub prunes: u64,
    /// Node expansions (pruned leaf re-split into 8 children).
    pub expands: u64,
    /// Nodes newly created during descent.
    pub node_creations: u64,
    /// Voxel updates applied through the batch engine
    /// (see the `batch` module).
    pub batch_updates: u64,
    /// Batch updates coalesced onto an already-located leaf (no descent).
    pub batch_coalesced: u64,
    /// Descent levels skipped by the batch engine's cached root-path
    /// prefix.
    pub batch_reused_levels: u64,
    /// Inner-node finishes (refresh or prune) performed by the batch
    /// engine's deferred bottom-up pass. The scalar path performs
    /// 16 finishes per update; the saving is
    /// `batch_updates * 16 - batch_deferred_finishes`.
    pub batch_deferred_finishes: u64,
}

/// Cumulative read-side operation counts — the query mirror of
/// [`OpCounters`], kept by each cached-descent cursor (see the
/// `query_batch` module).
///
/// The interesting ratio is `reused_levels` against
/// `reused_levels + node_visits`: the fraction of descent work the
/// cursor's cached root path saved relative to probing every key from
/// the root.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryCounters {
    /// Voxel classifications served (one per probed key).
    pub probes: u64,
    /// Child links followed while descending (nodes stepped into below
    /// the cursor's resume point).
    pub node_visits: u64,
    /// Descent levels skipped because consecutive keys shared a root-path
    /// prefix the cursor still held.
    pub reused_levels: u64,
    /// Query rays cast through the cursor path.
    pub rays: u64,
    /// Probes served through the batched query engine
    /// ([`DescentCursor::query_batch`](crate::DescentCursor::query_batch)).
    pub batch_queries: u64,
    /// Batched probes answered from the previous key's result because the
    /// Morton sort made duplicates adjacent (no descent at all).
    pub batch_coalesced: u64,
}

impl QueryCounters {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = QueryCounters::default();
    }

    /// Adds another counter record to this one.
    pub fn merge(&mut self, other: &QueryCounters) {
        self.probes += other.probes;
        self.node_visits += other.node_visits;
        self.reused_levels += other.reused_levels;
        self.rays += other.rays;
        self.batch_queries += other.batch_queries;
        self.batch_coalesced += other.batch_coalesced;
    }

    /// Fraction of descent levels served from the cached root path
    /// instead of being walked (0 when nothing was probed).
    pub fn prefix_reuse_rate(&self) -> f64 {
        let total = self.reused_levels + self.node_visits;
        if total == 0 {
            0.0
        } else {
            self.reused_levels as f64 / total as f64
        }
    }
}

impl OpCounters {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = OpCounters::default();
    }

    /// Adds another counter record to this one.
    pub fn merge(&mut self, other: &OpCounters) {
        self.dda_steps += other.dda_steps;
        self.leaf_updates += other.leaf_updates;
        self.traverse_steps += other.traverse_steps;
        self.saturation_probes += other.saturation_probes;
        self.saturated_skips += other.saturated_skips;
        self.parent_updates += other.parent_updates;
        self.parent_child_reads += other.parent_child_reads;
        self.prune_checks += other.prune_checks;
        self.prune_child_reads += other.prune_child_reads;
        self.prunes += other.prunes;
        self.expands += other.expands;
        self.node_creations += other.node_creations;
        self.batch_updates += other.batch_updates;
        self.batch_coalesced += other.batch_coalesced;
        self.batch_reused_levels += other.batch_reused_levels;
        self.batch_deferred_finishes += other.batch_deferred_finishes;
    }

    /// Difference `self - earlier`, for windowed measurements.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not component-wise ≤ `self`.
    #[must_use]
    pub fn since(&self, earlier: &OpCounters) -> OpCounters {
        let d = |a: u64, b: u64| {
            debug_assert!(a >= b, "counter went backwards");
            a - b
        };
        OpCounters {
            dda_steps: d(self.dda_steps, earlier.dda_steps),
            leaf_updates: d(self.leaf_updates, earlier.leaf_updates),
            traverse_steps: d(self.traverse_steps, earlier.traverse_steps),
            saturation_probes: d(self.saturation_probes, earlier.saturation_probes),
            saturated_skips: d(self.saturated_skips, earlier.saturated_skips),
            parent_updates: d(self.parent_updates, earlier.parent_updates),
            parent_child_reads: d(self.parent_child_reads, earlier.parent_child_reads),
            prune_checks: d(self.prune_checks, earlier.prune_checks),
            prune_child_reads: d(self.prune_child_reads, earlier.prune_child_reads),
            prunes: d(self.prunes, earlier.prunes),
            expands: d(self.expands, earlier.expands),
            node_creations: d(self.node_creations, earlier.node_creations),
            batch_updates: d(self.batch_updates, earlier.batch_updates),
            batch_coalesced: d(self.batch_coalesced, earlier.batch_coalesced),
            batch_reused_levels: d(self.batch_reused_levels, earlier.batch_reused_levels),
            batch_deferred_finishes: d(
                self.batch_deferred_finishes,
                earlier.batch_deferred_finishes,
            ),
        }
    }

    /// Total voxel updates that reached the tree (leaf updates plus
    /// saturated skips) — comparable to the paper's "Voxel Update" counts.
    pub fn voxel_updates(&self) -> u64 {
        self.leaf_updates + self.saturated_skips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let mut a = OpCounters {
            dda_steps: 1,
            prunes: 2,
            ..Default::default()
        };
        let b = OpCounters {
            dda_steps: 10,
            expands: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dda_steps, 11);
        assert_eq!(a.prunes, 2);
        assert_eq!(a.expands, 5);
    }

    #[test]
    fn since_subtracts() {
        let early = OpCounters {
            leaf_updates: 5,
            ..Default::default()
        };
        let late = OpCounters {
            leaf_updates: 12,
            prunes: 3,
            ..Default::default()
        };
        let d = late.since(&early);
        assert_eq!(d.leaf_updates, 7);
        assert_eq!(d.prunes, 3);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = OpCounters {
            parent_updates: 9,
            ..Default::default()
        };
        c.reset();
        assert_eq!(c, OpCounters::default());
    }

    #[test]
    fn query_counters_merge_and_reuse_rate() {
        let mut a = QueryCounters {
            probes: 4,
            node_visits: 6,
            reused_levels: 18,
            ..Default::default()
        };
        a.merge(&QueryCounters {
            probes: 1,
            node_visits: 2,
            batch_coalesced: 3,
            ..Default::default()
        });
        assert_eq!(a.probes, 5);
        assert_eq!(a.node_visits, 8);
        assert_eq!(a.batch_coalesced, 3);
        assert!((a.prefix_reuse_rate() - 18.0 / 26.0).abs() < 1e-12);
        assert_eq!(QueryCounters::default().prefix_reuse_rate(), 0.0);
        a.reset();
        assert_eq!(a, QueryCounters::default());
    }

    #[test]
    fn voxel_updates_includes_skips() {
        let c = OpCounters {
            leaf_updates: 7,
            saturated_skips: 3,
            ..Default::default()
        };
        assert_eq!(c.voxel_updates(), 10);
    }
}
