//! Order statistics for timings.
//!
//! A timing is reported as its median plus a *tail*: the highest
//! percentile from [`TAIL_LADDER`] that still has at least
//! [`MIN_BEYOND`] samples beyond it. With fewer samples than any ladder
//! step supports, the tail is the maximum. The percentile actually used
//! and the sample count travel with the value so a report can print them.

/// Percentiles tried for the tail, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile for it to count.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of already-sorted samples: the value at rank
/// `ceil(p/100 · n)` (1-based). Returns `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank_of(sorted.len(), p);
    Some(sorted[rank.max(1) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// integer tenths of a percent so `p = 99` of 1000 is exactly rank 990.
fn rank_of(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank_of(n, p).min(n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it among `n`, or `100.0` (the maximum) when none qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER.iter().copied().find(|&p| beyond(n, p) >= MIN_BEYOND).unwrap_or(100.0)
}

/// Median, tail value, tail percentile and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

/// Summarises `values` (any order). `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = median_sorted(&sorted)?;
    let tail_pct = tail_percentile(n);
    let tail = percentile_sorted(&sorted, tail_pct)?;
    Some(Summary { n, median, tail, tail_pct })
}

/// Median of sorted samples (mean of the middle pair for even counts).
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Median of samples in any order.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// Nearest-rank percentile `p` of samples in any order.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Splits timed points (`(time, value)`) into `parts` equal windows of
/// `[0, span)` and returns each window's median. `None` if any window is
/// empty.
pub fn window_medians(points: &[(u64, f64)], span: u64, parts: usize) -> Option<Vec<f64>> {
    let parts = parts.max(1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); parts];
    for &(t, v) in points {
        let w = ((t as u128 * parts as u128) / span.max(1) as u128) as usize;
        windows[w.min(parts - 1)].push(v);
    }
    windows.iter().map(|w| median(w)).collect()
}

/// The value a run reports for a timing it measured in repeated windows
/// (pipelines, serving windows, set-ups): the fastest window (NaN when
/// there are none). A shared host only ever slows a window down, and whole
/// stretches of it run slow together, so the fastest window is what
/// repeats from run to run as long as a run holds one quiet stretch.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// [`fastest`] for a rate, where quiet windows read high: the highest.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples: p99 leaves 9 beyond, so the tail drops to p95.
        assert_eq!(tail_percentile(999), 95.0);
        // 10_000 samples support p99.9.
        assert_eq!(tail_percentile(10_000), 99.9);
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail_percentile(20), 50.0);
        // 19 samples: nothing qualifies, the tail is the maximum.
        assert_eq!(tail_percentile(19), 100.0);
    }

    #[test]
    fn nearest_rank_values_and_summary() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 99.0), Some(990.0));
        assert_eq!(percentile_sorted(&v, 50.0), Some(500.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(1000.0));
        let mut shuffled = v.clone();
        shuffled.reverse();
        let s = summarize(&shuffled).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        let few = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.median, few.tail, few.tail_pct), (2.0, 3.0, 100.0));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn window_medians_and_the_fastest_skips_disturbed_ones() {
        // Five windows of 1000 points; in the third a tenth run 100× slow.
        let mut points = Vec::new();
        for w in 0..5u64 {
            for i in 0..1000u64 {
                let slow = w == 2 && i % 10 == 0;
                points.push((w * 1000 + i, if slow { 100.0 } else { (i % 100) as f64 }));
            }
        }
        let medians = window_medians(&points, 5000, 5).unwrap();
        assert_eq!(medians, [49.5, 49.5, 55.5, 49.5, 49.5]);
        assert_eq!(fastest(&medians), 49.5);
        assert_eq!((fastest(&[4.0, 1.0, 3.0]), highest(&[4.0, 1.0, 3.0])), (1.0, 4.0));
        assert!(fastest(&[]).is_nan() && highest(&[]).is_nan());
        assert_eq!(window_medians(&points[..10], 5000, 5), None, "empty windows");
    }
}
