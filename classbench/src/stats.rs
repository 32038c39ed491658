//! Percentiles under the ten-beyond rule, and medians.

use tw_core::metrics::HistogramSnapshot;

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// A percentile read from a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for.
    pub requested: f64,
    /// The quantile reported: `requested`, or the highest quantile that
    /// still has [`BEYOND`] samples above it.
    pub used: f64,
    /// The sample at that quantile (nearest rank).
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// The 1-based nearest rank for quantile `q` over `n` samples, lowered so
/// that at least [`BEYOND`] samples rank above it (rank 1 when `n` is too
/// small to support any).
pub fn supported_rank(n: usize, q: f64) -> usize {
    let wanted = (q * n as f64).ceil() as usize;
    wanted.min(n.saturating_sub(BEYOND)).max(1)
}

/// The `q`-quantile of `samples`, or the highest quantile the sample count
/// supports; `None` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = supported_rank(n, q);
    Some(Percentile {
        requested: q,
        used: rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The same rule over a log2-bucketed registry histogram: the estimate is
/// the histogram's own bucket-edge quantile at the supported rank.
pub fn histogram_percentile(histogram: &HistogramSnapshot, q: f64) -> u64 {
    let n = usize::try_from(histogram.count).unwrap_or(usize::MAX);
    if n == 0 {
        return 0;
    }
    // Aim at the middle of the rank so the histogram's ceil() lands on it.
    let rank = supported_rank(n, q);
    histogram.quantile((rank as f64 - 0.5) / n as f64)
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
