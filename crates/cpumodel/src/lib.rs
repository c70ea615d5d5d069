//! Calibrated per-operation CPU timing models for OctoMap workloads.
//!
//! The OMU paper compares its accelerator against two CPUs running the
//! OctoMap software baseline: a desktop **Intel i9-9940X** and the edge
//! **ARM Cortex-A57** of an Nvidia Jetson TX2 (Tables II–V, Fig. 3,
//! Fig. 9/10). Neither machine is available to this reproduction, so they
//! are *modeled*: the instrumented octree in `omu-octree` counts every
//! operation ([`OpCounters`](omu_octree::OpCounters)), and a [`CpuCostModel`] maps counts to
//! seconds via per-operation latencies.
//!
//! The latencies are **calibrated**, not measured: they are chosen so the
//! three paper workloads land on the published totals (Table II/III) and
//! runtime shares (Fig. 3). The calibration procedure lives in [`fit`] and
//! is rerun by `cargo run -p omu-bench --bin calibrate`, which prints the
//! fit quality (see the README section "Reproducing the paper"). What the
//! model preserves — and what the paper's comparisons need — is the
//! *shape*: node prune/expand dominates CPU runtime because of irregular
//! 8-children accesses, and the i9→A57 gap is roughly 5×.
//!
//! # Examples
//!
//! ```
//! use omu_cpumodel::CpuCostModel;
//! use omu_octree::OpCounters;
//!
//! let model = CpuCostModel::i9_9940x();
//! let counters = OpCounters { leaf_updates: 1_000_000, ..Default::default() };
//! let breakdown = model.runtime(&counters);
//! assert!(breakdown.total_s() > 0.0);
//! ```

pub mod fit;
mod model;
mod platforms;

pub use model::{CpuCostModel, RuntimeBreakdown};

/// Voxel updates contained in one "frame equivalent".
///
/// The paper derives FPS "equivalently ... for common 320x240 sensor image
/// size" (Section III-B). Cross-checking Tables II–IV shows the conversion
/// that reproduces *all nine* published FPS values is
/// `FPS = voxel_updates / s / (320 × 240 × 15)` — one frame equals a
/// 320 × 240 depth image at a nominal 15 voxel updates per pixel
/// (101 M / 16.8 s / 1.152 M = 5.22 ≈ the published 5.23, and likewise for
/// the other eight entries). A points-based convention cannot: it would
/// give the campus workload 1.47 FPS, not the published 5.03.
pub const UPDATES_PER_FRAME: f64 = 320.0 * 240.0 * 15.0;

/// Frame-equivalent throughput: `voxel_updates / seconds /`
/// [`UPDATES_PER_FRAME`].
///
/// # Examples
///
/// ```
/// // Table II/IV: FR-079 on the i9 — 101 M updates in 16.8 s ≈ 5.2 FPS.
/// let fps = omu_cpumodel::frame_equivalent_fps(101_000_000, 16.8);
/// assert!((fps - 5.22).abs() < 0.05);
/// ```
pub fn frame_equivalent_fps(voxel_updates: u64, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "runtime must be positive, got {seconds}");
    voxel_updates as f64 / seconds / UPDATES_PER_FRAME
}

#[cfg(test)]
mod tests {
    #[test]
    fn fps_convention_matches_all_paper_entries() {
        // (updates in millions, latency s, published FPS) from Tables II–IV.
        let entries = [
            (101.0, 16.8, 5.23),
            (1031.0, 177.7, 5.03),
            (449.0, 77.3, 5.04),
            (101.0, 81.7, 1.07),
            (1031.0, 897.2, 1.0),
            (449.0, 401.5, 0.97),
            (101.0, 1.31, 63.66),
            (1031.0, 14.4, 62.05),
            (449.0, 6.5, 60.87),
        ];
        for (updates_m, latency, published) in entries {
            let fps = super::frame_equivalent_fps((updates_m * 1e6) as u64, latency);
            assert!(
                (fps - published).abs() / published < 0.06,
                "{updates_m} M updates / {latency} s: {fps:.2} vs published {published}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "runtime must be positive")]
    fn zero_runtime_rejected() {
        let _ = super::frame_equivalent_fps(1, 0.0);
    }
}
