//! Accelerator statistics: per-stage cycles, per-PE counters, and the
//! device-level record the evaluation harness consumes.

use omu_simhw::SramStats;
use serde::{Deserialize, Serialize};

use crate::prune_mgr::PruneMgrStats;

/// Cycles spent in each PE datapath stage.
///
/// The paper's Fig. 10 accelerator breakdown maps onto these as:
/// *Update Leaf* = `traverse + leaf + create`, *Update Parents* =
/// `parent`, *Node Prune/Expand* = `prune_check + prune_action + expand`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeStageCycles {
    /// Descent: address generation + per-level child reads.
    pub traverse: u64,
    /// Leaf read-modify-write.
    pub leaf: u64,
    /// Fresh-child creation during descent.
    pub create: u64,
    /// Bottom-up parent updates (row read + max + write).
    pub parent: u64,
    /// Prune comparator stage per level.
    pub prune_check: u64,
    /// Executed prunes (stack push + leaf write-back).
    pub prune_action: u64,
    /// Executed expansions (row allocation + row write).
    pub expand: u64,
}

impl PeStageCycles {
    /// Total cycles across stages.
    pub fn total(&self) -> u64 {
        self.traverse
            + self.leaf
            + self.create
            + self.parent
            + self.prune_check
            + self.prune_action
            + self.expand
    }

    /// The Fig. 10 three-category split:
    /// `[update_leaf, update_parents, prune_expand]`.
    pub fn figure10_categories(&self) -> [u64; 3] {
        [
            self.traverse + self.leaf + self.create,
            self.parent,
            self.prune_check + self.prune_action + self.expand,
        ]
    }

    /// The Fig. 10 category shares (zeros when idle).
    pub fn figure10_shares(&self) -> [f64; 3] {
        let t = self.total();
        if t == 0 {
            return [0.0; 3];
        }
        self.figure10_categories().map(|c| c as f64 / t as f64)
    }

    /// Accumulates another record.
    pub fn merge(&mut self, other: &PeStageCycles) {
        self.traverse += other.traverse;
        self.leaf += other.leaf;
        self.create += other.create;
        self.parent += other.parent;
        self.prune_check += other.prune_check;
        self.prune_action += other.prune_action;
        self.expand += other.expand;
    }
}

/// Counters of one PE unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeStats {
    /// Voxel updates executed.
    pub updates: u64,
    /// Fresh child creations.
    pub creates: u64,
    /// Node expansions.
    pub expands: u64,
    /// Node prunes.
    pub prunes: u64,
    /// Per-stage cycle breakdown.
    pub stage_cycles: PeStageCycles,
    /// Total busy cycles (sum of per-update service times).
    pub busy_cycles: u64,
    /// SRAM access counters of the PE's T-Mem.
    pub sram: SramStats,
    /// Prune address manager statistics.
    pub prune_mgr: PruneMgrStats,
    /// Live children rows at sample time.
    pub live_rows: u64,
    /// Peak live children rows.
    pub high_water_rows: u64,
}

/// Device-level statistics of an [`OmuAccelerator`](crate::OmuAccelerator)
/// run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccelStats {
    /// Scans integrated.
    pub scans: u64,
    /// Points (rays) consumed.
    pub points: u64,
    /// Voxel updates dispatched to PEs (free + occupied).
    pub voxel_updates: u64,
    /// Free-cell updates.
    pub free_updates: u64,
    /// Occupied-cell updates.
    pub occupied_updates: u64,
    /// DDA steps performed by the ray-casting unit.
    pub raycast_steps: u64,
    /// Ray-casting unit cycles (overlapped with PE work).
    pub raycast_cycles: u64,
    /// Ray packets cast by the 8-lane lockstep front end (zero under the
    /// scalar front end).
    pub raycast_packets: u64,
    /// Lockstep supersteps executed by the packet front end — its cycle
    /// currency: every live lane advances once per superstep.
    pub raycast_supersteps: u64,
    /// AXI DMA cycles for point-cloud transfer (overlapped).
    pub dma_cycles: u64,
    /// Bytes DMA-transferred from the host.
    pub dma_bytes: u64,
    /// Cycles voxels waited in the shared queue because their PE's
    /// in-flight window was full, summed over voxels (see
    /// [`VoxelScheduler::queue_wait_cycles`](crate::VoxelScheduler::queue_wait_cycles)).
    pub queue_wait_cycles: u64,
    /// End-to-end wall cycles (the max over overlapped pipelines, summed
    /// over scans).
    pub wall_cycles: u64,
    /// Voxel queries served.
    pub queries: u64,
    /// Voxel query unit cycles.
    pub query_cycles: u64,
    /// Per-PE statistics.
    pub per_pe: Vec<PeStats>,
}

impl AccelStats {
    /// Sum of PE busy cycles.
    pub fn pe_busy_total(&self) -> u64 {
        self.per_pe.iter().map(|p| p.busy_cycles).sum()
    }

    /// Aggregated stage cycles over all PEs.
    pub fn stage_cycles(&self) -> PeStageCycles {
        let mut s = PeStageCycles::default();
        for p in &self.per_pe {
            s.merge(&p.stage_cycles);
        }
        s
    }

    /// Aggregated SRAM accesses over all PEs.
    pub fn sram_total(&self) -> SramStats {
        let mut s = SramStats::default();
        for p in &self.per_pe {
            s.merge(&p.sram);
        }
        s
    }

    /// Total prunes across PEs.
    pub fn prunes(&self) -> u64 {
        self.per_pe.iter().map(|p| p.prunes).sum()
    }

    /// Total expansions across PEs.
    pub fn expands(&self) -> u64 {
        self.per_pe.iter().map(|p| p.expands).sum()
    }

    /// Load balance: the ratio of the busiest PE's updates to the mean
    /// (1.0 = perfectly balanced; meaningless when idle).
    pub fn load_imbalance(&self) -> f64 {
        if self.per_pe.is_empty() || self.voxel_updates == 0 {
            return 1.0;
        }
        let max = self.per_pe.iter().map(|p| p.updates).max().unwrap_or(0) as f64;
        let mean = self.voxel_updates as f64 / self.per_pe.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Wall-clock seconds at `clock_ghz`.
    pub fn wall_seconds(&self, clock_ghz: f64) -> f64 {
        omu_simhw::cycles_to_seconds(self.wall_cycles, clock_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(traverse: u64, parent: u64, prune_check: u64) -> PeStageCycles {
        PeStageCycles {
            traverse,
            parent,
            prune_check,
            ..Default::default()
        }
    }

    #[test]
    fn stage_totals_and_shares() {
        let s = PeStageCycles {
            traverse: 30,
            leaf: 2,
            create: 0,
            parent: 45,
            prune_check: 15,
            prune_action: 4,
            expand: 4,
        };
        assert_eq!(s.total(), 100);
        let cats = s.figure10_categories();
        assert_eq!(cats, [32, 45, 23]);
        let shares = s.figure10_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares[2] < 0.25, "prune/expand share stays small on OMU");
    }

    #[test]
    fn idle_shares_are_zero() {
        assert_eq!(PeStageCycles::default().figure10_shares(), [0.0; 3]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = stage(10, 20, 5);
        a.merge(&stage(1, 2, 3));
        assert_eq!(a.traverse, 11);
        assert_eq!(a.parent, 22);
        assert_eq!(a.prune_check, 8);
    }

    #[test]
    fn device_aggregations() {
        let mut stats = AccelStats {
            voxel_updates: 30,
            ..Default::default()
        };
        stats.per_pe = vec![
            PeStats {
                updates: 10,
                busy_cycles: 100,
                stage_cycles: stage(5, 0, 0),
                ..Default::default()
            },
            PeStats {
                updates: 20,
                busy_cycles: 300,
                stage_cycles: stage(7, 0, 0),
                ..Default::default()
            },
        ];
        assert_eq!(stats.pe_busy_total(), 400);
        assert_eq!(stats.stage_cycles().traverse, 12);
        assert!((stats.load_imbalance() - 20.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn wall_seconds_uses_clock() {
        let stats = AccelStats {
            wall_cycles: 2_000_000_000,
            ..Default::default()
        };
        assert_eq!(stats.wall_seconds(1.0), 2.0);
        assert_eq!(stats.wall_seconds(2.0), 1.0);
    }
}
