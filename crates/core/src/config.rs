//! Accelerator configuration.

use omu_geometry::OccupancyParams;
use omu_raycast::{FrontEnd, IntegrationMode};
use serde::{Deserialize, Serialize};

use crate::error::ConfigError;

/// Per-stage cycle costs of the PE update datapath.
///
/// The defaults model the paper's pipeline: single-cycle SRAM with one
/// address-generation cycle per dependent access on the way down, and a
/// read-row / compute / write-back sequence per level on the way up. They
/// land the FR-079 workload at the paper's ~100 cycles per voxel update
/// (1.31 s for 101 M updates across 8 PEs at 1 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeTiming {
    /// Cycles per level descended (address generation + bank read).
    pub traverse_per_level: u64,
    /// Cycles for the leaf read-modify-write.
    pub leaf_update: u64,
    /// Cycles per level on the way up: parallel row read + max + write.
    pub parent_per_level: u64,
    /// Cycles per level for the prune comparator stage (equality tree over
    /// the row just read).
    pub prune_check_per_level: u64,
    /// Extra cycles for an actual prune (stack push + leaf write-back).
    pub prune_action: u64,
    /// Extra cycles for an expansion (stack pop / bump + row write).
    pub expand_action: u64,
    /// Extra cycles for creating a fresh child row during descent.
    pub create_action: u64,
    /// Cycles per level for a query descent.
    pub query_per_level: u64,
    /// Fixed query overhead (threshold compare + response).
    pub query_overhead: u64,
}

impl Default for PeTiming {
    fn default() -> Self {
        PeTiming {
            traverse_per_level: 2,
            leaf_update: 2,
            parent_per_level: 3,
            prune_check_per_level: 1,
            prune_action: 2,
            expand_action: 3,
            create_action: 2,
            query_per_level: 2,
            query_overhead: 2,
        }
    }
}

/// Full accelerator configuration (defaults = the paper's design point).
///
/// # Examples
///
/// ```
/// use omu_core::OmuConfig;
///
/// let config = OmuConfig::builder()
///     .num_pes(4)
///     .rows_per_bank(8192)
///     .resolution(0.1)
///     .build()
///     .unwrap();
/// assert_eq!(config.num_pes, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OmuConfig {
    /// Number of PE units (paper: 8; must be 1, 2, 4 or 8).
    pub num_pes: usize,
    /// SRAM rows per T-Mem bank (paper: 4096 = 32 kB of 64-bit words).
    pub rows_per_bank: usize,
    /// Capacity of each PE's prune-address stack, in row pointers.
    pub prune_stack_capacity: usize,
    /// Per-PE in-flight window, in updates: a voxel whose PE already has
    /// this many unfinished updates waits in the shared queues (see
    /// `VoxelScheduler` for the buffering idealization the paper's
    /// throughput implies). Affects waiting statistics far more than
    /// latency — `ablation_queue` quantifies it.
    pub voxel_queue_capacity: usize,
    /// Clock frequency in GHz (paper: 1 GHz).
    pub clock_ghz: f64,
    /// Map resolution in metres (paper evaluation: 0.2 m).
    pub resolution: f64,
    /// Occupancy sensor model.
    pub params: OccupancyParams,
    /// Maximum mapping range in metres (`None` = unlimited).
    pub max_range: Option<f64>,
    /// Scan integration mode (the hardware executes raywise updates).
    pub integration_mode: IntegrationMode,
    /// DDA front end of the ray-casting unit: the paper's unit is an
    /// 8-lane lockstep datapath ([`FrontEnd::Packet`], the default);
    /// [`FrontEnd::Scalar`] models a one-ray-at-a-time unit for
    /// ablations. Functional output is bit-identical either way.
    pub front_end: FrontEnd,
    /// Whether tree pruning is enabled (ablation knob; paper: on).
    pub pruning_enabled: bool,
    /// PE datapath timing.
    pub timing: PeTiming,
    /// AXI stream bus width in bits (host DMA model).
    pub axi_bus_bits: u32,
    /// Per-voxel service discount (percent) for updates after the first
    /// in a contiguous same-PE run — the row-buffer-hit analogue: a run
    /// of Morton-sorted updates keeps hitting the same T-Mem row
    /// neighbourhood, so address generation and row activation amortize.
    /// Only the batched front ends issue runs; the scalar path is
    /// unaffected. `0` disables the model.
    pub burst_discount_pct: u32,
}

impl Default for OmuConfig {
    fn default() -> Self {
        OmuConfig {
            num_pes: 8,
            rows_per_bank: 4096,
            prune_stack_capacity: 2048,
            voxel_queue_capacity: 512,
            clock_ghz: 1.0,
            resolution: 0.2,
            params: OccupancyParams::default(),
            max_range: None,
            integration_mode: IntegrationMode::Raywise,
            front_end: FrontEnd::default(),
            pruning_enabled: true,
            timing: PeTiming::default(),
            axi_bus_bits: 128,
            burst_discount_pct: 25,
        }
    }
}

impl OmuConfig {
    /// Starts a builder initialized with the paper's design point.
    pub fn builder() -> OmuConfigBuilder {
        OmuConfigBuilder {
            config: OmuConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unsupported PE counts, empty memories,
    /// or non-positive clock/resolution.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if ![1, 2, 4, 8].contains(&self.num_pes) {
            return Err(ConfigError::UnsupportedPeCount(self.num_pes));
        }
        if self.rows_per_bank < 2 {
            return Err(ConfigError::TooFewRows(self.rows_per_bank));
        }
        if self.prune_stack_capacity == 0 {
            return Err(ConfigError::EmptyPruneStack);
        }
        if self.voxel_queue_capacity == 0 {
            return Err(ConfigError::EmptyQueue);
        }
        if !(self.clock_ghz.is_finite() && self.clock_ghz > 0.0) {
            return Err(ConfigError::BadClock(self.clock_ghz));
        }
        if !(self.resolution.is_finite() && self.resolution > 0.0) {
            return Err(ConfigError::BadResolution(self.resolution));
        }
        if self.burst_discount_pct > 100 {
            return Err(ConfigError::BadBurstDiscount(self.burst_discount_pct));
        }
        Ok(())
    }

    /// Total SRAM capacity in bytes (all PEs, 8 banks each, 8 B words).
    pub fn total_sram_bytes(&self) -> usize {
        self.num_pes * 8 * self.rows_per_bank * 8
    }

    /// Node slots available per PE (8 per usable row; row 0 is the root
    /// row).
    pub fn node_slots_per_pe(&self) -> usize {
        (self.rows_per_bank - 1) * 8
    }
}

/// Builder for [`OmuConfig`].
#[derive(Debug, Clone)]
pub struct OmuConfigBuilder {
    config: OmuConfig,
}

impl OmuConfigBuilder {
    /// Sets the PE count (1, 2, 4 or 8).
    pub fn num_pes(mut self, n: usize) -> Self {
        self.config.num_pes = n;
        self
    }

    /// Sets the rows per T-Mem bank.
    pub fn rows_per_bank(mut self, rows: usize) -> Self {
        self.config.rows_per_bank = rows;
        self
    }

    /// Sets the prune-address stack capacity.
    pub fn prune_stack_capacity(mut self, cap: usize) -> Self {
        self.config.prune_stack_capacity = cap;
        self
    }

    /// Sets the shared voxel-queue capacity (in-flight updates).
    pub fn voxel_queue_capacity(mut self, capacity: usize) -> Self {
        self.config.voxel_queue_capacity = capacity;
        self
    }

    /// Sets the clock frequency in GHz.
    pub fn clock_ghz(mut self, ghz: f64) -> Self {
        self.config.clock_ghz = ghz;
        self
    }

    /// Sets the map resolution in metres.
    pub fn resolution(mut self, res: f64) -> Self {
        self.config.resolution = res;
        self
    }

    /// Sets the occupancy sensor model.
    pub fn params(mut self, params: OccupancyParams) -> Self {
        self.config.params = params;
        self
    }

    /// Sets the maximum mapping range.
    pub fn max_range(mut self, range: Option<f64>) -> Self {
        self.config.max_range = range;
        self
    }

    /// Sets the integration mode.
    pub fn integration_mode(mut self, mode: IntegrationMode) -> Self {
        self.config.integration_mode = mode;
        self
    }

    /// Selects the ray-casting unit's DDA front end (see
    /// [`OmuConfig::front_end`]).
    pub fn front_end(mut self, front_end: FrontEnd) -> Self {
        self.config.front_end = front_end;
        self
    }

    /// Enables or disables pruning.
    pub fn pruning_enabled(mut self, enabled: bool) -> Self {
        self.config.pruning_enabled = enabled;
        self
    }

    /// Sets the PE timing model.
    pub fn timing(mut self, timing: PeTiming) -> Self {
        self.config.timing = timing;
        self
    }

    /// Sets the same-PE burst discount percentage (0 disables it).
    pub fn burst_discount_pct(mut self, pct: u32) -> Self {
        self.config.burst_discount_pct = pct;
        self
    }

    /// Builds and validates.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is invalid.
    pub fn build(self) -> Result<OmuConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_design_point() {
        let c = OmuConfig::default();
        assert_eq!(c.num_pes, 8);
        assert_eq!(c.rows_per_bank, 4096);
        assert_eq!(c.clock_ghz, 1.0);
        assert_eq!(c.resolution, 0.2);
        // 8 PEs × 8 banks × 32 kB = 2 MB.
        assert_eq!(c.total_sram_bytes(), 2 * 1024 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_sets_fields() {
        let c = OmuConfig::builder()
            .num_pes(2)
            .rows_per_bank(1024)
            .voxel_queue_capacity(64)
            .clock_ghz(0.5)
            .resolution(0.1)
            .pruning_enabled(false)
            .build()
            .unwrap();
        assert_eq!(c.num_pes, 2);
        assert_eq!(c.rows_per_bank, 1024);
        assert!(!c.pruning_enabled);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(OmuConfig::builder().num_pes(3).build().is_err());
        assert!(OmuConfig::builder().num_pes(16).build().is_err());
        assert!(OmuConfig::builder().rows_per_bank(1).build().is_err());
        assert!(OmuConfig::builder().clock_ghz(0.0).build().is_err());
        assert!(OmuConfig::builder().resolution(-1.0).build().is_err());
        assert!(OmuConfig::builder()
            .voxel_queue_capacity(0)
            .build()
            .is_err());
        assert!(OmuConfig::builder()
            .burst_discount_pct(101)
            .build()
            .is_err());
        assert!(OmuConfig::builder().burst_discount_pct(100).build().is_ok());
    }

    #[test]
    fn node_slots_exclude_root_row() {
        let c = OmuConfig::default();
        assert_eq!(c.node_slots_per_pe(), 4095 * 8);
    }

    #[test]
    fn default_timing_near_paper_cycles_per_update() {
        let t = PeTiming::default();
        // 15 levels below the PE root.
        let per_update = 15 * t.traverse_per_level
            + t.leaf_update
            + 15 * (t.parent_per_level + t.prune_check_per_level);
        assert!(
            (85..=115).contains(&per_update),
            "steady-state cycles/update = {per_update}, paper implies ≈ 100"
        );
    }
}
