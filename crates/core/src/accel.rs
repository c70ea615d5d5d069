//! The top-level OMU accelerator (paper Fig. 7).

use omu_geometry::{FixedLogOdds, KeyConverter, Occupancy, Point3, ResolvedParams, Scan, VoxelKey};
use omu_octree::{cast_ray_resuming, collides_sphere_with, serve_morton_coalesced, RayCastResult};
use omu_raycast::{IntegrationStats, PacketStats, RayWalk, VoxelUpdate};
use omu_simhw::{tech12nm, AxiStreamModel, EnergyLedger, PowerReport};

use crate::config::OmuConfig;
use crate::error::AccelError;
use crate::pe::{PeQueryCursor, PeUnit};
use crate::pipeline::UpdateEngine;
use crate::query_unit::QueryUnitStats;
use crate::raycast_unit::RayCastUnit;
use crate::scheduler::VoxelScheduler;
use crate::stats::AccelStats;

/// The OMU accelerator: ray-casting unit, voxel scheduler, PE array,
/// prune address managers and voxel query unit, with full cycle/energy
/// accounting.
///
/// See the [crate-level documentation](crate) for an architecture tour
/// and a usage example.
#[derive(Debug, Clone)]
pub struct OmuAccelerator {
    config: OmuConfig,
    conv: KeyConverter,
    pes: Vec<PeUnit>,
    raycast: RayCastUnit,
    scheduler: VoxelScheduler,
    axi: AxiStreamModel,
    query_stats: QueryUnitStats,
    stats: AccelStats,
    // Reusable buffers for the batched front end.
    scratch_batch: Vec<(u64, VoxelUpdate)>,
    scratch_run: Vec<u64>,
    // The voxel query unit's cached-descent register files (one per PE)
    // and reusable buffers for the batched query entry points.
    query_cursors: Vec<PeQueryCursor>,
    scratch_qorder: Vec<(u64, u32)>,
    scratch_walk: RayWalk,
}

impl OmuAccelerator {
    /// Builds an accelerator from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Config`] when the configuration is invalid.
    pub fn new(config: OmuConfig) -> Result<Self, AccelError> {
        config.validate()?;
        let conv = KeyConverter::new(config.resolution)
            // omu-lint: allow(no-panic) — unreachable: `validate()` just
            // rejected non-positive resolutions on the line above.
            .expect("validate() guarantees a positive resolution");
        let resolved: ResolvedParams<FixedLogOdds> = config.params.resolve();
        let pes = (0..config.num_pes)
            .map(|id| {
                PeUnit::new(
                    id,
                    config.rows_per_bank,
                    config.prune_stack_capacity,
                    resolved,
                    config.timing,
                    config.pruning_enabled,
                )
            })
            .collect();
        let raycast = RayCastUnit::with_front_end(
            conv,
            config.max_range,
            config.integration_mode,
            config.front_end,
        );
        let scheduler = VoxelScheduler::with_burst_discount(
            config.num_pes,
            config.voxel_queue_capacity,
            config.burst_discount_pct,
        );
        let axi = AxiStreamModel::new(config.axi_bus_bits, config.clock_ghz);
        let query_cursors = vec![PeQueryCursor::new(); config.num_pes];
        Ok(OmuAccelerator {
            config,
            conv,
            pes,
            raycast,
            scheduler,
            axi,
            query_stats: QueryUnitStats::default(),
            stats: AccelStats::default(),
            scratch_batch: Vec::new(),
            scratch_run: Vec::new(),
            query_cursors,
            scratch_qorder: Vec::new(),
            scratch_walk: RayWalk::idle(),
        })
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &OmuConfig {
        &self.config
    }

    /// The key/coordinate converter.
    pub fn converter(&self) -> &KeyConverter {
        &self.conv
    }

    /// Integrates one scan: DMA transfer, ray casting, and voxel updates
    /// across the PE array, all overlapped; wall time advances by the
    /// slowest of the three pipelines. Returns the front-end integration
    /// statistics (rays, DDA steps, emitted updates), mirroring the
    /// software tree's `insert_scan` contract.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Key`] for an out-of-map scan origin and
    /// [`AccelError::Capacity`] when a PE exhausts its T-Mem (the scan is
    /// then partially applied, as it would be in hardware before the
    /// interrupt).
    pub fn integrate_scan(&mut self, scan: &Scan) -> Result<IntegrationStats, AccelError> {
        let scan_start = self.stats.wall_cycles;
        self.scheduler.begin_scan(scan_start);

        // Host DMA: 3 × f32 per point over the AXI stream.
        let dma_bytes = scan.len() as u64 * 12;
        let dma_cycles = self.axi.cycles_for_bytes(dma_bytes);

        let pes = &mut self.pes;
        let scheduler = &mut self.scheduler;
        let mut capacity_error = None;
        let mut dispatched_free = 0u64;
        let mut dispatched_occ = 0u64;

        let packet_before = self.raycast.packet_stats();
        let (istats, rc_cycles) = self.raycast.cast_scan(scan, |u| {
            if capacity_error.is_some() {
                return;
            }
            let pe = scheduler.pe_for(u.key);
            match pes[pe].update_voxel(u.key, u.hit) {
                Ok(out) => {
                    scheduler.dispatch(pe, out.service_cycles);
                    if u.hit {
                        dispatched_occ += 1;
                    } else {
                        dispatched_free += 1;
                    }
                }
                Err(e) => capacity_error = Some(e),
            }
        })?;

        self.record_scan_stats(
            scan_start,
            scan.len() as u64,
            istats.dda_steps,
            rc_cycles,
            dma_cycles,
            dma_bytes,
            dispatched_free,
            dispatched_occ,
            self.raycast.packet_stats().since(&packet_before),
        );

        if let Some(e) = capacity_error {
            return Err(e.into());
        }
        Ok(istats)
    }

    /// The per-scan bookkeeping both integration engines share.
    ///
    /// Ray casting and DMA overlap with the PE pipelines; PE work is
    /// allowed to flow across scan boundaries (the voxel queues never
    /// drain between frames), so the wall clock here only advances past
    /// the front-end; stats()/elapsed_seconds() account the PE drain.
    #[allow(clippy::too_many_arguments)]
    fn record_scan_stats(
        &mut self,
        scan_start: u64,
        points: u64,
        dda_steps: u64,
        rc_cycles: u64,
        dma_cycles: u64,
        dma_bytes: u64,
        dispatched_free: u64,
        dispatched_occ: u64,
        packet_delta: PacketStats,
    ) {
        self.stats.scans += 1;
        self.stats.points += points;
        self.stats.free_updates += dispatched_free;
        self.stats.occupied_updates += dispatched_occ;
        self.stats.voxel_updates += dispatched_free + dispatched_occ;
        self.stats.raycast_steps += dda_steps;
        self.stats.raycast_cycles += rc_cycles;
        self.stats.raycast_packets += packet_delta.packets;
        self.stats.raycast_supersteps += packet_delta.supersteps;
        self.stats.dma_cycles += dma_cycles;
        self.stats.dma_bytes += dma_bytes;
        self.stats.queue_wait_cycles = self.scheduler.queue_wait_cycles();
        self.stats.wall_cycles = (scan_start + rc_cycles).max(scan_start + dma_cycles);
    }

    /// Integrates one scan through the batched front end: ray casting
    /// first emits the scan's full update batch, the batch is sorted by
    /// Morton code, and updates are dispatched to the PE array in sorted
    /// order — each PE's work arriving as one contiguous run (the top
    /// three Morton bits are the branch ID that selects the PE).
    ///
    /// The resulting map is bit-identical to [`Self::integrate_scan`]
    /// (per-voxel update order is preserved by the stable sort, and the
    /// PEs prune canonically), which `tests/equivalence.rs` verifies; the
    /// run structure is what the batched software path exploits, and
    /// [`VoxelScheduler::runs_dispatched`](crate::VoxelScheduler)
    /// exposes it for locality reports.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::integrate_scan`].
    pub fn integrate_scan_batched(&mut self, scan: &Scan) -> Result<IntegrationStats, AccelError> {
        self.integrate_scan_sorted(scan, false)
    }

    /// Integrates one scan through the subtree-sharded front end: like
    /// [`Self::integrate_scan_batched`], but the batch is sorted by
    /// `(PE, Morton code)` so that *each PE's whole scan workload arrives
    /// as one contiguous run* — the branch-shard → PE mapping of the
    /// software engine (`apply_update_batch_parallel`) expressed in the
    /// accelerator model. With 8 PEs the branch and the PE coincide and
    /// this equals the batched path; with fewer PEs it merges a PE's
    /// folded branches into a single run, maximizing the burst discount.
    ///
    /// Bit-identical to the other engines: per-voxel update order is
    /// preserved by the stable sort, and PEs own disjoint subtrees, so
    /// reordering whole branch runs cannot change the map.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::integrate_scan`].
    pub fn integrate_scan_sharded(&mut self, scan: &Scan) -> Result<IntegrationStats, AccelError> {
        self.integrate_scan_sorted(scan, true)
    }

    /// Integrates one scan through the front end selected by `engine` —
    /// the single dispatch point every higher layer (the mapping pipeline,
    /// the `omu-map` facade, the bench harness) routes through, so engine
    /// selection is a value rather than a method name.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::integrate_scan`].
    pub fn integrate_scan_with(
        &mut self,
        scan: &Scan,
        engine: UpdateEngine,
    ) -> Result<IntegrationStats, AccelError> {
        match engine {
            UpdateEngine::Scalar => self.integrate_scan(scan),
            UpdateEngine::MortonBatched => self.integrate_scan_batched(scan),
            UpdateEngine::ShardedParallel => self.integrate_scan_sharded(scan),
        }
    }

    /// Shared body of the batched/sharded front ends: collect, sort (by
    /// Morton code, optionally grouped by PE first), dispatch as runs.
    fn integrate_scan_sorted(
        &mut self,
        scan: &Scan,
        group_by_pe: bool,
    ) -> Result<IntegrationStats, AccelError> {
        let scan_start = self.stats.wall_cycles;
        self.scheduler.begin_scan(scan_start);

        let dma_bytes = scan.len() as u64 * 12;
        let dma_cycles = self.axi.cycles_for_bytes(dma_bytes);

        // Front end: collect the whole scan's updates, then sort (stable,
        // so per-voxel update order is preserved). The Morton code is 48
        // bits, leaving the top 16 free for the PE id when grouping by
        // PE. The buffers are accelerator-owned scratch, so steady-state
        // scans allocate nothing.
        let scheduler = &self.scheduler;
        let mut batch = std::mem::take(&mut self.scratch_batch);
        batch.clear();
        let packet_before = self.raycast.packet_stats();
        let cast_result = self.raycast.cast_scan(scan, |u| {
            let mut sort_key = u.key.morton_code();
            if group_by_pe {
                sort_key |= (scheduler.pe_for(u.key) as u64) << 48;
            }
            batch.push((sort_key, u));
        });
        let (istats, rc_cycles) = match cast_result {
            Ok(r) => r,
            Err(e) => {
                self.scratch_batch = batch;
                return Err(e.into());
            }
        };
        batch.sort_by_key(|e| e.0);

        let mut capacity_error = None;
        let mut dispatched_free = 0u64;
        let mut dispatched_occ = 0u64;
        let mut run = std::mem::take(&mut self.scratch_run);
        run.clear();
        let mut run_pe = usize::MAX;
        for &(_, u) in &batch {
            let pe = self.scheduler.pe_for(u.key);
            if pe != run_pe && !run.is_empty() {
                self.scheduler.dispatch_run(run_pe, &run);
                run.clear();
            }
            run_pe = pe;
            match self.pes[pe].update_voxel(u.key, u.hit) {
                Ok(out) => {
                    run.push(out.service_cycles);
                    if u.hit {
                        dispatched_occ += 1;
                    } else {
                        dispatched_free += 1;
                    }
                }
                Err(e) => {
                    capacity_error = Some(e);
                    break;
                }
            }
        }
        if !run.is_empty() {
            self.scheduler.dispatch_run(run_pe, &run);
        }
        self.scratch_batch = batch;
        self.scratch_run = run;

        self.record_scan_stats(
            scan_start,
            scan.len() as u64,
            istats.dda_steps,
            rc_cycles,
            dma_cycles,
            dma_bytes,
            dispatched_free,
            dispatched_occ,
            self.raycast.packet_stats().since(&packet_before),
        );

        if let Some(e) = capacity_error {
            return Err(e.into());
        }
        Ok(istats)
    }

    /// Applies a single voxel update directly (bypassing ray casting) —
    /// the interface used by tests and microbenchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Capacity`] when the hosting PE is full.
    pub fn update_voxel(&mut self, key: VoxelKey, hit: bool) -> Result<(), AccelError> {
        let scan_start = self.stats.wall_cycles;
        self.scheduler.begin_scan(scan_start);
        let pe = self.scheduler.pe_for(key);
        let out = self.pes[pe].update_voxel(key, hit)?;
        self.scheduler.dispatch(pe, out.service_cycles);
        self.stats.voxel_updates += 1;
        if hit {
            self.stats.occupied_updates += 1;
        } else {
            self.stats.free_updates += 1;
        }
        self.stats.wall_cycles = scan_start.max(self.stats.wall_cycles);
        Ok(())
    }

    /// Queries the occupancy of the voxel at `key` through the voxel
    /// query unit.
    pub fn query_key(&mut self, key: VoxelKey) -> Occupancy {
        let pe = self.scheduler.pe_for(key);
        let (occ, cycles) = self.pes[pe].query(key);
        self.query_stats.record(cycles);
        self.stats.queries = self.query_stats.queries;
        self.stats.query_cycles = self.query_stats.cycles;
        occ
    }

    /// Queries the occupancy of the voxel containing `point`.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Key`] for out-of-map points.
    pub fn query_point(&mut self, point: Point3) -> Result<Occupancy, AccelError> {
        let key = self.conv.coord_to_key(point)?;
        Ok(self.query_key(key))
    }

    /// Reads the stored log-odds covering `key` without touching any
    /// hardware counter (map export / debugging aid, like
    /// [`Self::snapshot`] but for one voxel). Returns `None` for
    /// unobserved voxels.
    pub fn peek_logodds(&self, key: VoxelKey) -> Option<f32> {
        self.pes[self.scheduler.pe_for(key)].peek_logodds(key)
    }

    /// True when no PE holds any observation (O(1), no map walk).
    pub fn is_empty(&self) -> bool {
        self.pes.iter().all(PeUnit::is_empty)
    }

    /// The sorted leaves whose extents intersect the key box
    /// `[min, max]` (inclusive per axis), in the canonical
    /// `(key, depth, logodds)` snapshot form. Each PE prunes subtrees
    /// outside the box, so the cost scales with the region, not the map.
    pub fn snapshot_in_box(&self, min: VoxelKey, max: VoxelKey) -> Vec<(VoxelKey, u8, f32)> {
        let mut out = Vec::new();
        for pe in &self.pes {
            pe.snapshot_box_into(min, max, &mut out);
        }
        out.sort_by_key(|&(key, depth, _)| (key, depth));
        out
    }

    /// Number of leaves across all PEs, without materializing a
    /// snapshot.
    pub fn num_leaves(&self) -> usize {
        self.pes.iter().map(PeUnit::num_leaves).sum()
    }

    /// Invalidates the query unit's per-PE cached-descent registers.
    /// Every batched query entry point starts from cold cursors — the
    /// registers cache raw T-Mem contents, so a path cached before an
    /// update would be stale.
    fn reset_query_cursors(&mut self) {
        for c in &mut self.query_cursors {
            c.reset();
        }
    }

    /// Mirrors the query unit's totals into the device-level stats
    /// record.
    fn sync_query_stats(&mut self) {
        self.stats.queries = self.query_stats.queries;
        self.stats.query_cycles = self.query_stats.cycles;
    }

    /// Classifies a batch of voxel keys through the voxel query unit's
    /// cached-descent path, returning occupancies in input order.
    ///
    /// The batch is sorted by Morton code so each PE's probes arrive as
    /// contiguous runs: a probe sharing a root-path prefix with its PE's
    /// previous probe replays the shared levels from the unit's path
    /// registers at the scheduler's burst discount
    /// ([`OmuConfig::burst_discount_pct`]); duplicate keys are served
    /// from the result latch without any descent. Classifications are
    /// identical to calling [`Self::query_key`] per key.
    pub fn query_batch(&mut self, keys: &[VoxelKey]) -> Vec<Occupancy> {
        self.reset_query_cursors();
        let discount = self.config.burst_discount_pct;
        let overhead = self.config.timing.query_overhead;
        let mut order = std::mem::take(&mut self.scratch_qorder);
        let mut results = vec![Occupancy::Unknown; keys.len()];
        let pes = &mut self.pes;
        let scheduler = &self.scheduler;
        let cursors = &mut self.query_cursors;
        let qs = &mut self.query_stats;
        let mut duplicates = 0u64;
        serve_morton_coalesced(
            keys,
            &mut order,
            &mut results,
            |key| {
                let pe = scheduler.pe_for(key);
                let out = pes[pe].query_cached(key, &mut cursors[pe], discount);
                qs.record(out.cycles);
                qs.record_reuse(out.reused_levels, out.saved_cycles);
                out.occupancy
            },
            || duplicates += 1,
        );
        // Coalesced duplicates are served from the result latch at
        // overhead cost only.
        self.query_stats.queries += duplicates;
        self.query_stats.cycles += overhead * duplicates;
        self.query_stats.coalesced += duplicates;
        self.query_stats.batch_queries += keys.len() as u64;
        self.scratch_qorder = order;
        self.sync_query_stats();
        results
    }

    /// Casts a query ray through the voxel query unit: every DDA step's
    /// probe goes through the per-PE cached-descent registers, and
    /// adjacent steps share almost their whole root path, so the per-step
    /// descent is amortized O(1) T-Mem reads. The result is identical to
    /// probing every step with [`Self::query_key`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Key`] when the origin is outside the map or
    /// the direction is degenerate.
    pub fn cast_ray(
        &mut self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, AccelError> {
        self.reset_query_cursors();
        self.cast_ray_warm(origin, direction, max_range, ignore_unknown)
    }

    /// Casts a batch of query rays (`(origin, direction)` pairs) through
    /// the query unit, reusing one DDA walk and keeping the descent
    /// registers warm across rays (no update can run in between). Results
    /// are in input order and identical to casting each ray through
    /// [`Self::cast_ray`].
    ///
    /// # Errors
    ///
    /// Returns the first [`AccelError::Key`] (in input order) for a bad
    /// origin or degenerate direction.
    pub fn cast_rays(
        &mut self,
        rays: &[(Point3, Point3)],
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<Vec<RayCastResult>, AccelError> {
        self.reset_query_cursors();
        rays.iter()
            .map(|&(o, d)| self.cast_ray_warm(o, d, max_range, ignore_unknown))
            .collect()
    }

    /// One ray through the query unit with whatever register state the
    /// cursors currently hold (valid because queries never update T-Mem).
    fn cast_ray_warm(
        &mut self,
        origin: Point3,
        direction: Point3,
        max_range: f64,
        ignore_unknown: bool,
    ) -> Result<RayCastResult, AccelError> {
        let conv = self.conv;
        let discount = self.config.burst_discount_pct;
        let mut walk = std::mem::replace(&mut self.scratch_walk, RayWalk::idle());
        let pes = &mut self.pes;
        let scheduler = &self.scheduler;
        let cursors = &mut self.query_cursors;
        let qs = &mut self.query_stats;
        let mut steps = 0u64;
        let res = cast_ray_resuming(
            &conv,
            &mut walk,
            origin,
            direction,
            max_range,
            ignore_unknown,
            |key| {
                steps += 1;
                let pe = scheduler.pe_for(key);
                let out = pes[pe].query_cached(key, &mut cursors[pe], discount);
                qs.record(out.cycles);
                qs.record_reuse(out.reused_levels, out.saved_cycles);
                match out.occupancy {
                    Occupancy::Occupied => (
                        Occupancy::Occupied,
                        pes[pe]
                            .peek_logodds(key)
                            // omu-lint: allow(no-panic) — the PE just
                            // classified this voxel Occupied, so its bank
                            // row necessarily holds a value.
                            .expect("occupied voxel must hold a value"),
                    ),
                    other => (other, 0.0),
                }
            },
        );
        self.scratch_walk = walk;
        self.query_stats.rays += 1;
        self.query_stats.ray_steps += steps;
        self.sync_query_stats();
        Ok(res?)
    }

    /// Sphere collision probe through the query unit: does a sphere of
    /// radius `radius` at `center` intersect any occupied voxel? The grid
    /// sweep inside the ball probes adjacent voxels, so the cached
    /// descent amortizes their shared prefixes. Classifications are
    /// identical to probing each voxel with [`Self::query_key`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Key`] when the probe region leaves the map.
    pub fn collides_sphere(&mut self, center: Point3, radius: f64) -> Result<bool, AccelError> {
        self.reset_query_cursors();
        let conv = self.conv;
        let discount = self.config.burst_discount_pct;
        let pes = &mut self.pes;
        let scheduler = &self.scheduler;
        let cursors = &mut self.query_cursors;
        let qs = &mut self.query_stats;
        let res = collides_sphere_with(&conv, center, radius, |key| {
            let pe = scheduler.pe_for(key);
            let out = pes[pe].query_cached(key, &mut cursors[pe], discount);
            qs.record(out.cycles);
            qs.record_reuse(out.reused_levels, out.saved_cycles);
            out.occupancy
        });
        self.sync_query_stats();
        Ok(res?)
    }

    /// The voxel query unit's counters (queries, cycles, cached-descent
    /// reuse) — the read-side mirror of [`Self::stats`].
    pub fn query_unit_stats(&self) -> QueryUnitStats {
        self.query_stats
    }

    /// Device statistics, with per-PE counters sampled live. The wall
    /// clock includes draining all in-flight PE work.
    pub fn stats(&self) -> AccelStats {
        let mut s = self.stats.clone();
        s.wall_cycles = s.wall_cycles.max(self.scheduler.drain_time());
        s.per_pe = self.pes.iter().map(PeUnit::stats).collect();
        s
    }

    /// Wall-clock runtime so far, in seconds at the configured clock
    /// (including the drain of in-flight PE work).
    pub fn elapsed_seconds(&self) -> f64 {
        let cycles = self.stats.wall_cycles.max(self.scheduler.drain_time());
        omu_simhw::cycles_to_seconds(cycles, self.config.clock_ghz)
    }

    /// Contiguous same-PE runs dispatched by the batched front end
    /// ([`Self::integrate_scan_batched`]); 0 when only the scalar path
    /// ran.
    pub fn morton_runs(&self) -> u64 {
        self.scheduler.runs_dispatched()
    }

    /// Mean T-Mem utilization across PEs (live rows / usable rows).
    pub fn sram_utilization(&self) -> f64 {
        self.pes.iter().map(PeUnit::utilization).sum::<f64>() / self.pes.len() as f64
    }

    /// The canonical sorted map snapshot `(key, depth, logodds)`,
    /// comparable against
    /// [`OccupancyOctree::snapshot`](omu_octree::OccupancyOctree::snapshot).
    pub fn snapshot(&self) -> Vec<(VoxelKey, u8, f32)> {
        let mut out = Vec::new();
        for pe in &self.pes {
            pe.snapshot_into(&mut out);
        }
        out.sort_by_key(|&(key, depth, _)| (key, depth));
        out
    }

    /// Builds the energy ledger for everything executed so far, using the
    /// calibrated 12 nm constants.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let stats = self.stats();
        let mut e = EnergyLedger::new();
        let sram = stats.sram_total();
        e.add(
            "sram.dynamic",
            sram.reads as f64 * tech12nm::SRAM_READ_PJ
                + sram.writes as f64 * tech12nm::SRAM_WRITE_PJ,
        );
        let runtime_s = stats.wall_seconds(self.config.clock_ghz);
        let banks = (self.config.num_pes * 8) as f64;
        e.add(
            "sram.leakage",
            tech12nm::SRAM_LEAKAGE_MW_PER_BANK * banks * runtime_s * 1e9,
        );
        e.add(
            "pe.logic",
            stats.pe_busy_total() as f64 * tech12nm::PE_LOGIC_PJ_PER_CYCLE,
        );
        e.add(
            "scheduler",
            stats.voxel_updates as f64 * tech12nm::SCHEDULER_PJ_PER_VOXEL,
        );
        e.add(
            "raycast",
            stats.raycast_steps as f64 * tech12nm::RAYCAST_PJ_PER_STEP,
        );
        e.add("query", stats.queries as f64 * tech12nm::QUERY_PJ_PER_QUERY);
        e.add("axi", stats.dma_bytes as f64 * tech12nm::AXI_PJ_PER_BYTE);
        e
    }

    /// Total modeled energy in joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy_ledger().total_joules()
    }

    /// Average-power report over the elapsed runtime.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been executed yet (zero runtime).
    pub fn power_report(&self) -> PowerReport {
        PowerReport::from_energy(&self.energy_ledger(), self.elapsed_seconds())
    }

    /// Flips one stored bit in a PE's T-Mem — soft-error fault injection
    /// for resilience experiments (see [`verify`](crate::verify)).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn inject_bit_flip(&mut self, pe: usize, row: u32, bank: usize, bit: u32) {
        self.pes[pe].inject_bit_flip(row, bank, bit);
    }

    /// Resets all activity statistics (map contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = AccelStats::default();
        self.query_stats = QueryUnitStats::default();
        for pe in &mut self.pes {
            pe.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omu_geometry::PointCloud;

    fn accel() -> OmuAccelerator {
        OmuAccelerator::new(OmuConfig::default()).unwrap()
    }

    fn scan(points: &[Point3]) -> Scan {
        Scan::new(Point3::ZERO, points.iter().copied().collect::<PointCloud>())
    }

    #[test]
    fn scan_integration_builds_queryable_map() {
        let mut omu = accel();
        omu.integrate_scan(&scan(&[
            Point3::new(2.0, 0.5, 0.5),
            Point3::new(-1.0, -0.5, 0.1),
        ]))
        .unwrap();
        assert_eq!(
            omu.query_point(Point3::new(2.0, 0.5, 0.5)).unwrap(),
            Occupancy::Occupied
        );
        assert_eq!(
            omu.query_point(Point3::new(1.0, 0.25, 0.25)).unwrap(),
            Occupancy::Free
        );
        assert_eq!(
            omu.query_point(Point3::new(5.0, 5.0, 5.0)).unwrap(),
            Occupancy::Unknown
        );
        let s = omu.stats();
        assert_eq!(s.scans, 1);
        assert_eq!(s.points, 2);
        assert_eq!(s.occupied_updates, 2);
        assert!(s.voxel_updates > 10);
        assert!(s.wall_cycles > 0);
        assert!(s.queries == 3);
    }

    #[test]
    fn updates_fan_out_across_pes() {
        let mut omu = accel();
        // One point per octant.
        let pts: Vec<Point3> = (0..8)
            .map(|b| {
                Point3::new(
                    if b & 1 != 0 { 2.0 } else { -2.0 },
                    if b & 2 != 0 { 2.0 } else { -2.0 },
                    if b & 4 != 0 { 2.0 } else { -2.0 },
                )
            })
            .collect();
        omu.integrate_scan(&Scan::new(
            Point3::new(0.01, 0.01, 0.01),
            pts.into_iter().collect::<PointCloud>(),
        ))
        .unwrap();
        let s = omu.stats();
        let active = s.per_pe.iter().filter(|p| p.updates > 0).count();
        assert_eq!(active, 8, "all 8 PEs must receive work");
    }

    #[test]
    fn wall_clock_reflects_parallelism() {
        // The same workload on 1 PE vs 8 PEs: the 8-PE device finishes
        // several times sooner (paper's 8× compute-parallelism claim).
        let pts: Vec<Point3> = (0..64)
            .map(|i| {
                let a = i as f64 * 0.098;
                Point3::new(3.0 * a.cos(), 3.0 * a.sin(), ((i % 8) as f64 - 4.0) * 0.4)
            })
            .collect();
        let s = Scan::new(
            Point3::new(0.01, 0.01, 0.21),
            pts.into_iter().collect::<PointCloud>(),
        );

        let mut omu8 = accel();
        omu8.integrate_scan(&s).unwrap();
        let mut omu1 =
            OmuAccelerator::new(OmuConfig::builder().num_pes(1).build().unwrap()).unwrap();
        omu1.integrate_scan(&s).unwrap();

        let speedup = omu1.stats().wall_cycles as f64 / omu8.stats().wall_cycles as f64;
        assert!(speedup > 3.0, "8-PE speedup over 1 PE = {speedup:.2}");
        // Same map either way.
        assert_eq!(omu1.snapshot(), omu8.snapshot());
    }

    #[test]
    fn batched_integration_matches_scalar_bitwise() {
        let pts: Vec<Point3> = (0..72)
            .map(|i| {
                let a = i as f64 * 0.087;
                Point3::new(4.0 * a.cos(), 4.0 * a.sin(), ((i % 6) as f64 - 3.0) * 0.3)
            })
            .collect();
        let s = Scan::new(
            Point3::new(0.01, 0.01, 0.11),
            pts.into_iter().collect::<PointCloud>(),
        );

        let mut scalar = accel();
        scalar.integrate_scan(&s).unwrap();
        let mut batched = accel();
        batched.integrate_scan_batched(&s).unwrap();

        assert_eq!(scalar.snapshot(), batched.snapshot());
        assert_eq!(scalar.stats().voxel_updates, batched.stats().voxel_updates);
        // Morton order groups each PE's work into a handful of runs —
        // far fewer than one dispatch per update.
        assert!(batched.morton_runs() > 0);
        assert!(batched.morton_runs() < batched.stats().voxel_updates / 4);
        assert_eq!(scalar.morton_runs(), 0);
    }

    #[test]
    fn sharded_integration_matches_scalar_bitwise_with_one_run_per_pe() {
        let pts: Vec<Point3> = (0..72)
            .map(|i| {
                let a = i as f64 * 0.087;
                Point3::new(4.0 * a.cos(), 4.0 * a.sin(), ((i % 6) as f64 - 3.0) * 0.3)
            })
            .collect();
        let s = Scan::new(
            Point3::new(0.01, 0.01, 0.11),
            pts.into_iter().collect::<PointCloud>(),
        );

        for num_pes in [2, 8] {
            let config = OmuConfig::builder().num_pes(num_pes).build().unwrap();
            let mut scalar = OmuAccelerator::new(config.clone()).unwrap();
            scalar.integrate_scan(&s).unwrap();
            let mut sharded = OmuAccelerator::new(config).unwrap();
            sharded.integrate_scan_sharded(&s).unwrap();

            assert_eq!(scalar.snapshot(), sharded.snapshot(), "num_pes={num_pes}");
            assert_eq!(scalar.stats().voxel_updates, sharded.stats().voxel_updates);
            // Grouping by PE compresses the scan to at most one run per PE.
            assert!(sharded.morton_runs() >= 1);
            assert!(
                sharded.morton_runs() <= num_pes as u64,
                "num_pes={num_pes}: {} runs",
                sharded.morton_runs()
            );
        }
    }

    #[test]
    fn burst_discount_makes_batched_engines_faster_in_cycles() {
        let pts: Vec<Point3> = (0..64)
            .map(|i| {
                let a = i as f64 * 0.098;
                Point3::new(3.0 * a.cos(), 3.0 * a.sin(), ((i % 8) as f64 - 4.0) * 0.4)
            })
            .collect();
        let s = Scan::new(
            Point3::new(0.01, 0.01, 0.21),
            pts.into_iter().collect::<PointCloud>(),
        );

        let mut scalar = accel();
        scalar.integrate_scan(&s).unwrap();
        let mut batched = accel();
        batched.integrate_scan_batched(&s).unwrap();

        // Same map, fewer cycles: contiguous runs earn the burst discount.
        assert_eq!(scalar.snapshot(), batched.snapshot());
        let scalar_drain = scalar.stats().wall_cycles;
        let batched_drain = batched.stats().wall_cycles;
        assert!(
            batched_drain < scalar_drain,
            "batched {batched_drain} vs scalar {scalar_drain} cycles"
        );

        // Disabling the discount removes exactly that win: the same
        // batched run structure costs more cycles at 0 % discount.
        let flat_config = OmuConfig::builder().burst_discount_pct(0).build().unwrap();
        let mut flat_batched = OmuAccelerator::new(flat_config).unwrap();
        flat_batched.integrate_scan_batched(&s).unwrap();
        assert_eq!(flat_batched.snapshot(), batched.snapshot());
        assert!(
            flat_batched.stats().wall_cycles > batched_drain,
            "0 % discount {} vs 25 % discount {batched_drain} cycles",
            flat_batched.stats().wall_cycles
        );
    }

    #[test]
    fn energy_ledger_is_sram_dominated() {
        let mut omu = accel();
        for i in 0..20 {
            let a = i as f64 * 0.3;
            omu.integrate_scan(&scan(&[Point3::new(4.0 * a.cos(), 4.0 * a.sin(), 0.5)]))
                .unwrap();
        }
        let ledger = omu.energy_ledger();
        assert!(ledger.total_pj() > 0.0);
        let sram_share = ledger.share_prefix("sram");
        assert!(
            sram_share > 0.75,
            "SRAM should dominate accelerator energy (paper: 91 %), got {sram_share:.2}"
        );
        let p = omu.power_report();
        assert!(p.total_mw() > 0.0);
    }

    #[test]
    fn capacity_error_surfaces_from_integration() {
        let mut tiny =
            OmuAccelerator::new(OmuConfig::builder().rows_per_bank(4).build().unwrap()).unwrap();
        let e = tiny
            .integrate_scan(&scan(&[Point3::new(2.0, 0.5, 0.5)]))
            .unwrap_err();
        assert!(matches!(e, AccelError::Capacity(_)));
    }

    #[test]
    fn bad_origin_is_key_error() {
        let mut omu = accel();
        let far = omu.converter().map_half_extent() + 10.0;
        let e = omu
            .integrate_scan(&Scan::new(
                Point3::new(far, 0.0, 0.0),
                [Point3::ZERO].into_iter().collect::<PointCloud>(),
            ))
            .unwrap_err();
        assert!(matches!(e, AccelError::Key(_)));
    }

    #[test]
    fn reset_stats_keeps_map() {
        let mut omu = accel();
        omu.integrate_scan(&scan(&[Point3::new(1.0, 0.0, 0.0)]))
            .unwrap();
        omu.reset_stats();
        assert_eq!(omu.stats().voxel_updates, 0);
        assert_eq!(
            omu.query_point(Point3::new(1.0, 0.0, 0.0)).unwrap(),
            Occupancy::Occupied
        );
    }

    #[test]
    fn query_batch_matches_scalar_queries_and_discounts() {
        let pts: Vec<Point3> = (0..48)
            .map(|i| {
                let a = i as f64 * 0.131;
                Point3::new(2.0 * a.cos(), 2.0 * a.sin(), 0.2)
            })
            .collect();
        let mut omu = accel();
        omu.integrate_scan(&Scan::new(
            Point3::new(0.01, 0.01, 0.01),
            pts.into_iter().collect::<PointCloud>(),
        ))
        .unwrap();

        // A probe stream with spatial coherence plus exact duplicates.
        let mut keys: Vec<VoxelKey> = (0..200u16)
            .map(|i| VoxelKey::new(32700 + i % 60, 32760 + i / 4, 32770 + i % 3))
            .collect();
        keys.extend_from_slice(&keys.clone()[..40]);

        let expected: Vec<Occupancy> = keys.iter().map(|&k| omu.query_key(k)).collect();
        let scalar_cycles = omu.query_unit_stats().cycles;
        let got = omu.query_batch(&keys);
        assert_eq!(got, expected);

        let q = omu.query_unit_stats();
        assert_eq!(q.batch_queries, 240);
        assert!(q.coalesced >= 40, "duplicates must coalesce");
        assert!(q.reused_levels > 0, "Morton order must replay registers");
        assert!(q.saved_cycles > 0);
        // The cached path serves the same stream in fewer cycles than the
        // scalar unit did.
        assert!(q.cycles - scalar_cycles < scalar_cycles);
        // Device stats mirror the unit.
        assert_eq!(omu.stats().queries, q.queries);
        assert_eq!(omu.stats().query_cycles, q.cycles);
    }

    #[test]
    fn accel_cast_ray_and_sphere_probe_count_reuse() {
        let pts: Vec<Point3> = (0..48)
            .map(|i| {
                let a = i as f64 * 0.131;
                Point3::new(2.0 * a.cos(), 2.0 * a.sin(), 0.2)
            })
            .collect();
        let mut omu = accel();
        omu.integrate_scan(&Scan::new(
            Point3::new(0.01, 0.01, 0.01),
            pts.into_iter().collect::<PointCloud>(),
        ))
        .unwrap();

        let hit = omu
            .cast_ray(
                Point3::new(0.01, 0.01, 0.2),
                Point3::new(1.0, 0.0, 0.0),
                5.0,
                true,
            )
            .unwrap();
        match hit {
            RayCastResult::Hit { point, logodds, .. } => {
                assert!((point.x - 2.0).abs() < 0.2, "wall sits at r = 2: {point}");
                assert!(logodds > 0.0);
            }
            other => panic!("expected a hit, got {other:?}"),
        }
        let q = omu.query_unit_stats();
        assert_eq!(q.rays, 1);
        assert!(q.ray_steps > 10, "2 m at 0.1 m voxels is ≥ 20 steps");
        assert!(
            q.reused_levels as f64 / q.ray_steps as f64 > 8.0,
            "adjacent DDA steps replay most of the 16-level path"
        );

        // Batch form agrees with per-ray casting.
        let rays: Vec<(Point3, Point3)> = (0..8)
            .map(|i| {
                let a = i as f64 * 0.7;
                (
                    Point3::new(0.01, 0.01, 0.2),
                    Point3::new(a.cos(), a.sin(), 0.0),
                )
            })
            .collect();
        let batch = omu.cast_rays(&rays, 5.0, true).unwrap();
        for (i, &(o, d)) in rays.iter().enumerate() {
            assert_eq!(batch[i], omu.cast_ray(o, d, 5.0, true).unwrap(), "ray {i}");
        }
        assert!(omu
            .cast_rays(&[(Point3::ZERO, Point3::ZERO)], 5.0, true)
            .is_err());

        // Sphere probes classify like scalar queries.
        assert!(omu
            .collides_sphere(Point3::new(2.0, 0.0, 0.2), 0.3)
            .unwrap());
        assert!(!omu
            .collides_sphere(Point3::new(0.5, 0.5, 0.2), 0.2)
            .unwrap());
    }

    #[test]
    fn direct_update_path_works() {
        let mut omu = accel();
        let key = omu
            .converter()
            .coord_to_key(Point3::new(0.5, 0.5, 0.5))
            .unwrap();
        omu.update_voxel(key, true).unwrap();
        assert_eq!(omu.query_key(key), Occupancy::Occupied);
        assert_eq!(omu.stats().voxel_updates, 1);
        assert!(omu.elapsed_seconds() > 0.0);
    }
}
