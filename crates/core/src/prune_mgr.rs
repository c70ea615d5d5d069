//! The dynamic prune address manager (paper Fig. 6).
//!
//! Each PE owns one: a stack buffer records the row pointers freed by tree
//! pruning, and tree expansion pops them for reuse before falling back to
//! fresh rows. This keeps T-Mem utilization high during long mapping runs
//! where the tree constantly prunes and re-expands.

use omu_simhw::StackBuffer;
use serde::{Deserialize, Serialize};

/// Allocation statistics of one prune address manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneMgrStats {
    /// Rows served from the recycled-pointer stack.
    pub reuse_hits: u64,
    /// Rows served from the fresh-row bump allocator.
    pub fresh_allocs: u64,
    /// Rows freed by pruning.
    pub frees: u64,
    /// Freed rows dropped because the stack was full (leaked until rebuild).
    pub stack_drops: u64,
}

/// Per-PE allocator for T-Mem child rows: a pruned-pointer stack plus a
/// fresh-row pointer.
#[derive(Debug, Clone)]
pub struct PruneAddrManager {
    stack: StackBuffer<u32>,
    next_fresh: u32,
    rows: u32,
    live_rows: u64,
    high_water_live: u64,
    stats: PruneMgrStats,
}

impl PruneAddrManager {
    /// Creates an allocator over `rows` rows per bank (row 0 reserved for
    /// the PE roots) with the given stack capacity.
    ///
    /// # Panics
    ///
    /// Panics if `rows < 2` or `stack_capacity == 0`.
    pub fn new(rows: usize, stack_capacity: usize) -> Self {
        assert!(rows >= 2, "need at least 2 rows (row 0 is the root row)");
        PruneAddrManager {
            stack: StackBuffer::new(stack_capacity),
            next_fresh: 1,
            rows: rows as u32,
            live_rows: 0,
            high_water_live: 0,
            stats: PruneMgrStats::default(),
        }
    }

    /// Allocates a children row: recycled pointers first, then fresh rows.
    ///
    /// Returns `None` when the memory is exhausted.
    pub fn alloc(&mut self) -> Option<u32> {
        let row = if let Some(row) = self.stack.pop() {
            self.stats.reuse_hits += 1;
            row
        } else if self.next_fresh < self.rows {
            let row = self.next_fresh;
            self.next_fresh += 1;
            self.stats.fresh_allocs += 1;
            row
        } else {
            return None;
        };
        self.live_rows += 1;
        self.high_water_live = self.high_water_live.max(self.live_rows);
        Some(row)
    }

    /// Returns a pruned row to the stack. If the stack is full the pointer
    /// is dropped (the row leaks until the map is rebuilt) — counted in
    /// [`PruneMgrStats::stack_drops`].
    pub fn free(&mut self, row: u32) {
        debug_assert!(row != 0 && row < self.rows, "freeing invalid row {row}");
        self.stats.frees += 1;
        self.live_rows = self.live_rows.saturating_sub(1);
        if !self.stack.push(row) {
            self.stats.stack_drops += 1;
        }
    }

    /// Rows currently holding live children.
    pub fn live_rows(&self) -> u64 {
        self.live_rows
    }

    /// Peak live rows over the allocator's lifetime.
    pub fn high_water_live(&self) -> u64 {
        self.high_water_live
    }

    /// Rows ever touched by the bump allocator (the no-reuse footprint).
    pub fn fresh_rows_used(&self) -> u64 {
        (self.next_fresh - 1) as u64
    }

    /// Fraction of usable rows currently live (0..=1).
    pub fn utilization(&self) -> f64 {
        self.live_rows as f64 / (self.rows - 1) as f64
    }

    /// Allocation statistics.
    pub fn stats(&self) -> PruneMgrStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_rows_start_at_one() {
        let mut m = PruneAddrManager::new(8, 4);
        assert_eq!(m.alloc(), Some(1));
        assert_eq!(m.alloc(), Some(2));
        assert_eq!(m.stats().fresh_allocs, 2);
        assert_eq!(m.live_rows(), 2);
    }

    #[test]
    fn freed_rows_are_reused_lifo() {
        let mut m = PruneAddrManager::new(8, 4);
        let a = m.alloc().unwrap();
        let b = m.alloc().unwrap();
        m.free(a);
        m.free(b);
        assert_eq!(m.alloc(), Some(b), "stack is LIFO");
        assert_eq!(m.alloc(), Some(a));
        assert_eq!(m.stats().reuse_hits, 2);
        assert_eq!(m.stats().frees, 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut m = PruneAddrManager::new(3, 4); // rows 1 and 2 usable
        assert!(m.alloc().is_some());
        assert!(m.alloc().is_some());
        assert_eq!(m.alloc(), None);
        // Freeing one makes allocation possible again.
        m.free(1);
        assert_eq!(m.alloc(), Some(1));
    }

    #[test]
    fn stack_overflow_leaks_rows() {
        let mut m = PruneAddrManager::new(16, 2);
        let rows: Vec<u32> = (0..4).map(|_| m.alloc().unwrap()).collect();
        for &r in &rows {
            m.free(r);
        }
        assert_eq!(m.stats().stack_drops, 2, "capacity-2 stack drops 2 of 4");
        // Only the 2 stacked rows return, then fresh allocation resumes.
        assert!(m.alloc().is_some());
        assert!(m.alloc().is_some());
        assert_eq!(m.stats().reuse_hits, 2);
    }

    #[test]
    fn utilization_and_high_water() {
        let mut m = PruneAddrManager::new(11, 8); // 10 usable rows
        for _ in 0..5 {
            m.alloc().unwrap();
        }
        assert!((m.utilization() - 0.5).abs() < 1e-12);
        m.free(1);
        m.free(2);
        assert_eq!(m.high_water_live(), 5);
        assert_eq!(m.live_rows(), 3);
        assert_eq!(m.fresh_rows_used(), 5);
    }
}
