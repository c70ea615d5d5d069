//! Calibrated 12 nm technology constants.
//!
//! The OMU paper signs its accelerator off in a commercial 12 nm process at
//! 1 GHz / 0.8 V and reports three silicon-level anchors:
//!
//! 1. total power 250.8 mW at 1 GHz, of which 91 % is SRAM (Section VI-C);
//! 2. total area 2.5 mm², 2.0 mm × 1.25 mm floorplan (Fig. 8);
//! 3. 8 PEs × 256 kB (8 × 32 kB banks) of compiler-generated SRAM.
//!
//! Without the PDK, per-access energies and per-kB densities cannot be
//! *derived*; instead they are **calibrated**: the constants below are
//! chosen so that the transaction-level model, executing the FR-079
//! workload, lands on the paper's anchors. All downstream results (energy
//! tables, power split, area report) follow from event counts × these
//! constants. See the README section "Reproducing the paper".

/// Accelerator clock frequency (GHz).
pub const FREQ_GHZ: f64 = 1.0;

/// Supply voltage (V) — informational; energies below already assume it.
pub const VDD: f64 = 0.8;

/// Dynamic read energy of one 64-bit access to a 32 kB bank (pJ).
pub const SRAM_READ_PJ: f64 = 19.6;

/// Dynamic write energy of one 64-bit access to a 32 kB bank (pJ).
pub const SRAM_WRITE_PJ: f64 = 22.1;

/// Leakage power per 32 kB bank (mW).
pub const SRAM_LEAKAGE_MW_PER_BANK: f64 = 0.05;

/// PE control/datapath logic energy per active PE cycle (pJ).
pub const PE_LOGIC_PJ_PER_CYCLE: f64 = 3.4;

/// Voxel scheduler energy per dispatched voxel (pJ).
pub const SCHEDULER_PJ_PER_VOXEL: f64 = 2.6;

/// Ray-casting unit energy per DDA step (pJ).
pub const RAYCAST_PJ_PER_STEP: f64 = 1.6;

/// Voxel query unit energy per query (pJ).
pub const QUERY_PJ_PER_QUERY: f64 = 8.0;

/// AXI/controller energy per transferred byte (pJ).
pub const AXI_PJ_PER_BYTE: f64 = 0.8;

/// SRAM macro density (mm² per kB) for the 12 nm compiler memories.
pub const SRAM_MM2_PER_KB: f64 = 0.000_58;

/// PE logic area per PE instance (mm²).
pub const PE_LOGIC_MM2: f64 = 0.055;

/// Voxel scheduler area (mm²).
pub const SCHEDULER_MM2: f64 = 0.09;

/// Ray-casting unit area (mm²).
pub const RAYCAST_MM2: f64 = 0.14;

/// Voxel query unit area (mm²).
pub const QUERY_MM2: f64 = 0.06;

/// AXI interface + controller + queues area (mm²).
pub const AXI_CTRL_MM2: f64 = 0.12;

/// Top-level overhead factor (P&R utilization, power grid, spacing).
pub const TOP_OVERHEAD_FACTOR: f64 = 1.226;

/// Die outline reported in Fig. 8 (mm × mm).
pub const DIE_OUTLINE_MM: (f64, f64) = (2.0, 1.25);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the point is documenting the invariants
    fn constants_are_physical() {
        assert!(SRAM_READ_PJ > 0.0 && SRAM_WRITE_PJ >= SRAM_READ_PJ);
        assert!(PE_LOGIC_PJ_PER_CYCLE > 0.0);
        assert!(SRAM_MM2_PER_KB > 0.0);
        assert!(TOP_OVERHEAD_FACTOR >= 1.0);
        assert!(FREQ_GHZ == 1.0, "the paper signs off at 1 GHz");
    }

    #[test]
    fn area_anchors_near_paper() {
        // 8 PEs × 256 kB SRAM + logic, with overhead, lands near 2.5 mm².
        let sram = 8.0 * 256.0 * SRAM_MM2_PER_KB;
        let logic = 8.0 * PE_LOGIC_MM2 + SCHEDULER_MM2 + RAYCAST_MM2 + QUERY_MM2 + AXI_CTRL_MM2;
        let total = (sram + logic) * TOP_OVERHEAD_FACTOR;
        assert!(
            (total - 2.5).abs() < 0.1,
            "total area model = {total:.3} mm²"
        );
        // And it fits the reported die outline.
        assert!(total <= DIE_OUTLINE_MM.0 * DIE_OUTLINE_MM.1 * 1.02);
    }
}
