//! Order statistics, the tail-percentile rule and the FNV-1a digest.

/// Median of a sample (mean of the two middle values for even counts);
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`p` in (0, 100]) of a sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentile a sample of `n` can support: the highest of
/// 50 / 90 / 99 / 99.9 that still has at least ten samples beyond it
/// (the choosing-metrics rule). With fewer than twenty samples even the
/// median has under ten beyond it; 50 is the floor.
pub fn tail_percentile(n: usize) -> f64 {
    // In per-mille, so the count beyond is exact integer arithmetic.
    [999usize, 990, 900]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` gives them (needs ≥ 2 values;
/// fewer yield the single value, or `NaN` for none).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| -> f64 {
        // Position i·(n+1)/4 on the 1-based sample, linear between ranks,
        // clamped to the sample's ends.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The steady estimate of a timing from the blocks of one window: their
/// first quartile (lower is better; same position rule as [`quartiles`],
/// never below the minimum). Interference from the rest of the box only
/// ever adds time, and it comes in bursts that can cover half a window,
/// so the less-disturbed quarter of the blocks says most about the
/// program; a median over blocks still follows the bursts.
pub fn steady(block_times: &[f64]) -> f64 {
    let min = block_times.iter().copied().fold(f64::INFINITY, f64::min);
    quartiles(block_times).0.max(min)
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's acceptance rule uses.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// 64-bit FNV-1a of a byte string, as 16 hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[1.0, 3.0]);
        assert_eq!((q1, q3), (0.5, 3.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steady_is_the_first_quartile_and_never_extrapolates() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((steady(&v) - 2.75).abs() < 1e-12);
        // Half the blocks hit by a burst: the estimate stays with the clean ones.
        assert!(steady(&[10.0, 10.1, 14.0, 15.0, 10.2, 14.5, 9.9, 15.5]) < 10.2);
        assert_eq!(steady(&[1.0, 3.0]), 1.0);
        assert_eq!(steady(&[7.0]), 7.0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
