//! The voxel scheduler: branch-ID routing plus a queueing model of the
//! voxel queues.
//!
//! The paper partitions the octree across PEs by the first-level tree
//! branch (Section IV-A): the scheduler extracts the branch ID from the
//! voxel coordinates and issues the update to that PE. Upstream, the
//! shared free/occupied voxel queues (Fig. 7) buffer the ray-casting
//! unit's output; the scheduler issues from them with lookahead, so a
//! voxel whose target PE is busy does not block voxels destined for other
//! PEs — reordering across PEs is safe because PEs own disjoint subtrees,
//! while per-PE order is preserved.
//!
//! The timing model tracks, in absolute cycles:
//!
//! - the production stream (ray casting emits one voxel per cycle);
//! - a bounded per-PE in-flight window
//!   ([`OmuConfig::voxel_queue_capacity`]): a voxel whose target PE
//!   already holds that many unfinished updates waits in the shared
//!   queue until the PE's head-of-line update completes — *without*
//!   blocking voxels bound for other PEs;
//! - each PE's busy horizon; end-to-end latency is the maximum horizon,
//!   so branch load imbalance shows up directly (the busiest PE bounds
//!   the run).
//!
//! Batched front ends issue each PE's work as contiguous *runs*
//! ([`VoxelScheduler::dispatch_run`]); updates after a run's head get a
//! configurable service discount — the row-buffer-hit analogue, since
//! Morton-sorted runs revisit the same T-Mem row neighbourhood — which is
//! how the model shows the batching win in cycles, not just run counts.
//!
//! The shared queues themselves are modeled as deep enough that
//! production never blocks. This is the idealization the paper's numbers
//! imply: with a *finite* shared queue, sustained branch imbalance
//! eventually fills it with hot-PE work and collapses system throughput
//! to one PE's pace — a regime the paper's ≈13 cycles/update results on
//! all three datasets clearly never enter. The residual imbalance cost
//! (max-PE vs mean-PE work) is still charged in full.
//!
//! [`OmuConfig::voxel_queue_capacity`]: crate::OmuConfig

use std::collections::VecDeque;

use omu_geometry::VoxelKey;

/// Routing + queue-timing model for voxel dispatch.
#[derive(Debug, Clone)]
pub struct VoxelScheduler {
    num_pes: usize,
    window: usize,
    burst_discount_pct: u32,
    issue_overhead_cycles: u64,
    issue_time: u64,
    busy_until: Vec<u64>,
    inflight: Vec<VecDeque<u64>>,
    queue_wait_cycles: u64,
    dispatched: u64,
    runs: u64,
    burst_saved_cycles: u64,
    issue_overhead_charged: u64,
}

impl VoxelScheduler {
    /// Creates a scheduler for `num_pes` PEs with a per-PE in-flight
    /// window of `window` updates and no burst discount.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes` is not 1, 2, 4 or 8, or `window` is zero.
    pub fn new(num_pes: usize, window: usize) -> Self {
        Self::with_burst_discount(num_pes, window, 0)
    }

    /// [`Self::new`] with a burst model: updates after the first in a
    /// contiguous same-PE run ([`Self::dispatch_run`]) have their service
    /// time discounted by `burst_discount_pct` percent — the row-buffer-hit
    /// analogue for Morton-sorted batches, whose runs keep hitting the
    /// same T-Mem row neighbourhood.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes` is not 1, 2, 4 or 8, `window` is zero, or the
    /// discount exceeds 100 %.
    pub fn with_burst_discount(num_pes: usize, window: usize, burst_discount_pct: u32) -> Self {
        assert!(
            [1, 2, 4, 8].contains(&num_pes),
            "unsupported PE count {num_pes}"
        );
        assert!(window > 0, "voxel queue capacity must be positive");
        assert!(
            burst_discount_pct <= 100,
            "burst discount must be at most 100 %, got {burst_discount_pct}"
        );
        VoxelScheduler {
            num_pes,
            window,
            burst_discount_pct,
            issue_overhead_cycles: 0,
            issue_time: 0,
            busy_until: vec![0; num_pes],
            inflight: (0..num_pes).map(|_| VecDeque::new()).collect(),
            queue_wait_cycles: 0,
            dispatched: 0,
            runs: 0,
            burst_saved_cycles: 0,
            issue_overhead_charged: 0,
        }
    }

    /// Sets the per-run issue overhead: every run head dispatched through
    /// [`Self::dispatch_run`] is charged this many extra cycles before
    /// its service time — the hardware analogue of the software pool's
    /// per-task dispatch cost (enqueue on the PE's issue queue, wake the
    /// PE). Defaults to 0, which is the paper's idealization: the
    /// scheduler issues one voxel per cycle with no queue-management
    /// cost. Non-zero values let the CPU-vs-accelerator reports price
    /// dispatch symmetrically on both sides.
    pub fn set_issue_overhead(&mut self, cycles: u64) {
        self.issue_overhead_cycles = cycles;
    }

    /// The PE hosting a key: first-level branch ID modulo the PE count
    /// (with 8 PEs this is exactly the paper's branch partitioning).
    pub fn pe_for(&self, key: VoxelKey) -> usize {
        key.first_level_branch().index() % self.num_pes
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Starts a new scan at absolute cycle `at` (production cannot begin
    /// before the previous scan's).
    pub fn begin_scan(&mut self, at: u64) {
        self.issue_time = self.issue_time.max(at);
    }

    /// Issues one update of `service_cycles` to `pe`, advancing the
    /// timing model. Returns the update's completion cycle.
    pub fn dispatch(&mut self, pe: usize, service_cycles: u64) -> u64 {
        // Ray casting produces one voxel per cycle into the shared queues.
        let produced = self.issue_time;
        self.issue_time = produced + 1;

        let q = &mut self.inflight[pe];
        let mut arrival = produced;
        while q.front().is_some_and(|&c| c <= arrival) {
            q.pop_front();
        }
        // Full per-PE window: this voxel waits in the shared queue until
        // the PE's head-of-line update completes. Voxels bound for other
        // PEs are unaffected (disjoint subtrees, so reordering is safe).
        if q.len() >= self.window {
            // omu-lint: allow(no-panic) — guarded: `len() >= window` with
            // `window >= 1` means the queue is non-empty here.
            let head = *q.front().expect("non-empty at capacity");
            self.queue_wait_cycles += head - arrival;
            arrival = head;
            while q.front().is_some_and(|&c| c <= arrival) {
                q.pop_front();
            }
        }

        let start = self.busy_until[pe].max(arrival);
        let completion = start + service_cycles;
        self.busy_until[pe] = completion;
        q.push_back(completion);
        self.dispatched += 1;
        completion
    }

    /// Issues a contiguous run of same-PE updates (the shape a
    /// Morton-sorted batch produces: the top 3 Morton bits are the branch
    /// ID, so each PE's work arrives as one run). Returns the completion
    /// cycle of the run's last update.
    ///
    /// The run's head update pays full service; every subsequent update
    /// is discounted by the configured burst percentage (the row-buffer
    /// hit: consecutive Morton-sorted updates revisit the same T-Mem row
    /// neighbourhood, so address generation and row activation amortize).
    /// With a zero discount this is timing-equivalent to calling
    /// [`Self::dispatch`] per element; either way the run form counts how
    /// many runs the batch path issued, which [`Self::runs_dispatched`]
    /// exposes for the locality reports.
    pub fn dispatch_run(&mut self, pe: usize, service_cycles: &[u64]) -> u64 {
        let mut completion = self.issue_time;
        for (i, &cycles) in service_cycles.iter().enumerate() {
            let charged = if i == 0 {
                self.issue_overhead_charged += self.issue_overhead_cycles;
                cycles + self.issue_overhead_cycles
            } else {
                let c = cycles - cycles * self.burst_discount_pct as u64 / 100;
                self.burst_saved_cycles += cycles - c;
                c
            };
            completion = self.dispatch(pe, charged);
        }
        if !service_cycles.is_empty() {
            self.runs += 1;
        }
        completion
    }

    /// Number of contiguous same-PE runs issued through
    /// [`Self::dispatch_run`].
    pub fn runs_dispatched(&self) -> u64 {
        self.runs
    }

    /// Service cycles saved by the burst discount across all runs.
    pub fn burst_saved_cycles(&self) -> u64 {
        self.burst_saved_cycles
    }

    /// Total issue-overhead cycles charged to run heads (see
    /// [`Self::set_issue_overhead`]).
    pub fn issue_overhead_charged(&self) -> u64 {
        self.issue_overhead_charged
    }

    /// The configured per-run issue overhead in cycles.
    pub fn issue_overhead_cycles(&self) -> u64 {
        self.issue_overhead_cycles
    }

    /// The configured burst discount in percent.
    pub fn burst_discount_pct(&self) -> u32 {
        self.burst_discount_pct
    }

    /// Absolute cycle by which every dispatched update has completed.
    pub fn drain_time(&self) -> u64 {
        self.busy_until.iter().copied().max().unwrap_or(0)
    }

    /// Total cycles voxels waited in the shared queue because their PE's
    /// in-flight window was full, summed over voxels. The front end never
    /// stalls (the shared queues are modeled unbounded), so this is
    /// queueing delay, not lost cycles: many voxels wait at once, and the
    /// sum can exceed the run's wall cycles many times over.
    pub fn queue_wait_cycles(&self) -> u64 {
        self.queue_wait_cycles
    }

    /// Updates dispatched in total.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Per-PE busy horizon (absolute cycles).
    pub fn busy_until(&self) -> &[u64] {
        &self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_for_branch(b: u16) -> VoxelKey {
        VoxelKey::new((b & 1) << 15, ((b >> 1) & 1) << 15, ((b >> 2) & 1) << 15)
    }

    #[test]
    fn branch_routing_with_8_pes() {
        let s = VoxelScheduler::new(8, 512);
        for b in 0..8 {
            assert_eq!(s.pe_for(key_for_branch(b)), b as usize);
        }
    }

    #[test]
    fn branch_folding_with_fewer_pes() {
        let s = VoxelScheduler::new(2, 512);
        assert_eq!(s.pe_for(key_for_branch(0)), 0);
        assert_eq!(s.pe_for(key_for_branch(1)), 1);
        assert_eq!(s.pe_for(key_for_branch(2)), 0);
        assert_eq!(s.pe_for(key_for_branch(7)), 1);
    }

    #[test]
    fn parallel_pes_overlap_service() {
        let mut s = VoxelScheduler::new(8, 512);
        s.begin_scan(0);
        // 8 updates of 100 cycles to 8 different PEs: issue 1/cycle,
        // drain ≈ 107, not 800.
        for pe in 0..8 {
            s.dispatch(pe, 100);
        }
        assert!(s.drain_time() <= 108, "drain = {}", s.drain_time());
        assert_eq!(s.queue_wait_cycles(), 0);
    }

    #[test]
    fn single_pe_serializes() {
        let mut s = VoxelScheduler::new(1, 512);
        s.begin_scan(0);
        for _ in 0..8 {
            s.dispatch(0, 100);
        }
        assert!(s.drain_time() >= 800, "drain = {}", s.drain_time());
    }

    #[test]
    fn full_pe_window_delays_that_pe_only() {
        // Per-PE window of 2: the third update to PE 0 waits for PE 0's
        // head-of-line, but a dispatch to PE 1 right after is unaffected.
        let mut s = VoxelScheduler::new(8, 2);
        s.begin_scan(0);
        s.dispatch(0, 1000);
        s.dispatch(0, 1000);
        s.dispatch(0, 1000);
        assert!(
            s.queue_wait_cycles() > 900,
            "queue wait = {}",
            s.queue_wait_cycles()
        );
        let c = s.dispatch(1, 50);
        assert!(c < 100, "an idle PE serves immediately: completion {c}");
    }

    #[test]
    fn window_size_does_not_change_drain() {
        // The window delays arrivals, but a busy PE is bound by its total
        // service either way — latency is imbalance-bound, not queue-bound.
        let mut small = VoxelScheduler::new(8, 4);
        let mut large = VoxelScheduler::new(8, 4096);
        for s in [&mut small, &mut large] {
            s.begin_scan(0);
            for _ in 0..64 {
                s.dispatch(0, 100);
            }
        }
        assert_eq!(small.drain_time(), large.drain_time());
        assert!(small.queue_wait_cycles() > large.queue_wait_cycles());
    }

    #[test]
    fn dispatch_run_without_discount_matches_per_update_dispatch() {
        let mut one_by_one = VoxelScheduler::new(8, 16);
        let mut run = VoxelScheduler::new(8, 16);
        let service = [12u64, 13, 11, 12, 13, 11, 12, 13];
        one_by_one.begin_scan(0);
        run.begin_scan(0);
        let mut last = 0;
        for &s in &service {
            last = one_by_one.dispatch(3, s);
        }
        let run_last = run.dispatch_run(3, &service);
        assert_eq!(last, run_last);
        assert_eq!(one_by_one.drain_time(), run.drain_time());
        assert_eq!(one_by_one.queue_wait_cycles(), run.queue_wait_cycles());
        assert_eq!(run.runs_dispatched(), 1);
        assert_eq!(one_by_one.runs_dispatched(), 0);
        assert_eq!(run.burst_saved_cycles(), 0);
    }

    #[test]
    fn burst_discount_shortens_runs_but_not_their_head() {
        let service = [100u64; 8];
        let mut flat = VoxelScheduler::new(1, 512);
        flat.begin_scan(0);
        flat.dispatch_run(0, &service);

        let mut burst = VoxelScheduler::with_burst_discount(1, 512, 25);
        burst.begin_scan(0);
        burst.dispatch_run(0, &service);

        // 7 discounted updates at 75 cycles instead of 100.
        assert_eq!(burst.burst_saved_cycles(), 7 * 25);
        assert_eq!(
            burst.drain_time() + burst.burst_saved_cycles(),
            flat.drain_time()
        );

        // A second run starts with a full-cost head again.
        let before = burst.burst_saved_cycles();
        burst.dispatch_run(0, &[100]);
        assert_eq!(burst.burst_saved_cycles(), before, "run head pays full");
        assert_eq!(burst.runs_dispatched(), 2);
    }

    #[test]
    fn issue_overhead_charges_run_heads_only() {
        let service = [10u64; 4];
        let mut free = VoxelScheduler::new(1, 512);
        free.begin_scan(0);
        free.dispatch_run(0, &service);

        let mut priced = VoxelScheduler::new(1, 512);
        priced.set_issue_overhead(5);
        priced.begin_scan(0);
        priced.dispatch_run(0, &service);
        priced.dispatch_run(0, &service);

        // One 5-cycle charge per run, regardless of run length.
        assert_eq!(priced.issue_overhead_charged(), 10);
        assert_eq!(free.issue_overhead_charged(), 0);
        assert_eq!(
            priced.drain_time(),
            2 * free.drain_time() + 2 * 5,
            "each run head pays the overhead once"
        );
    }

    #[test]
    #[should_panic(expected = "burst discount")]
    fn overlarge_burst_discount_rejected() {
        let _ = VoxelScheduler::with_burst_discount(8, 16, 101);
    }

    #[test]
    fn begin_scan_never_rewinds_time() {
        let mut s = VoxelScheduler::new(8, 512);
        s.begin_scan(100);
        s.dispatch(0, 10);
        s.begin_scan(50); // earlier start must not rewind
        let c = s.dispatch(1, 10);
        assert!(c > 100);
    }

    #[test]
    #[should_panic(expected = "unsupported PE count")]
    fn bad_pe_count_rejected() {
        let _ = VoxelScheduler::new(3, 512);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_window_rejected() {
        let _ = VoxelScheduler::new(8, 0);
    }
}
