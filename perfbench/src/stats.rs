//! Order statistics and process-memory readings.

use std::fs;

/// The `q`-quantile of `samples` by linear interpolation between the two
/// nearest ranks (`q = 0.5` is the median). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Resident set size and its high-water mark, in bytes, from
/// `/proc/self/status`.
pub fn rss_bytes() -> std::io::Result<(u64, u64)> {
    let status = fs::read_to_string("/proc/self/status")?;
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map(|kb| kb * 1024)
    };
    match (field("VmRSS:"), field("VmHWM:")) {
        (Some(rss), Some(hwm)) => Ok((rss, hwm)),
        _ => Err(std::io::Error::other("VmRSS/VmHWM missing")),
    }
}

/// Resets the RSS high-water mark to the current RSS (Linux
/// `clear_refs` command 5).
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }
}
