//! Hardware modeling substrate for the OMU accelerator simulation.
//!
//! The OMU paper evaluates silicon: a 12 nm post-P&R netlist running at
//! 1 GHz / 0.8 V. This crate provides the building blocks that let a
//! transaction-level Rust model produce the same *architectural* numbers —
//! cycle counts, SRAM access counts, energy, power, and area:
//!
//! - [`SramBank`] — a single-port SRAM bank with access counting. Eight of
//!   these per PE form the paper's `T-Mem0..7` (Fig. 5).
//! - [`StackBuffer`] — the bounded LIFO used by the prune address manager
//!   (Fig. 6).
//! - [`BoundedFifo`] — queues with occupancy/stall accounting (voxel
//!   queues, scheduler input).
//! - [`EnergyLedger`] / [`PowerReport`] — per-component energy bookkeeping
//!   and conversion to average power.
//! - [`AreaModel`] — per-component silicon area (reproduces Fig. 8).
//! - [`AxiStreamModel`] — DMA/bus bandwidth model for host transfers.
//! - [`tech12nm`] — the calibrated 12 nm technology constants.
//!
//! All constants in [`tech12nm`] are *calibrated* against the paper's
//! reported operating point (250.8 mW, 91 % SRAM power, 2.5 mm²) rather
//! than derived from a foundry PDK; the README section "Reproducing the
//! paper" describes the calibration.

mod area;
mod axi;
mod energy;
mod fifo;
mod power;
mod sram;
mod stack;
pub mod tech12nm;

pub use area::{AreaComponent, AreaModel};
pub use axi::AxiStreamModel;
pub use energy::EnergyLedger;
pub use fifo::BoundedFifo;
pub use power::{PowerComponent, PowerReport};
pub use sram::{SramBank, SramSpec, SramStats};
pub use stack::StackBuffer;

/// Converts a cycle count at `freq_ghz` to seconds.
///
/// # Examples
///
/// ```
/// assert_eq!(omu_simhw::cycles_to_seconds(2_000_000_000, 1.0), 2.0);
/// ```
pub fn cycles_to_seconds(cycles: u64, freq_ghz: f64) -> f64 {
    cycles as f64 / (freq_ghz * 1e9)
}

/// Converts picojoules to joules.
pub fn pj_to_joules(pj: f64) -> f64 {
    pj * 1e-12
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_conversions() {
        assert_eq!(super::cycles_to_seconds(1_000_000_000, 1.0), 1.0);
        assert_eq!(super::cycles_to_seconds(500_000_000, 0.5), 1.0);
        assert!((super::pj_to_joules(1e12) - 1.0).abs() < 1e-12);
    }
}
