//! Order statistics, the robust repeat estimator, and the digest.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, by the method Python's
/// `statistics.quantiles(v, n=4)` uses (exclusive), so a spread printed
/// here matches one computed from the result files.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// A tail percentile with the number of samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
}

/// The `want`-th percentile of `v`, lowered to the highest percentile
/// that still has at least ten samples beyond it. With fewer than
/// twenty samples no tail qualifies and the median is returned.
pub fn tail_percentile(v: &[f64], want: u32) -> Tail {
    let n = v.len();
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let highest = if n >= 20 {
        (100 * (n - 10) / n) as u32
    } else {
        50
    };
    let percentile = want.min(highest).max(50);
    let value = if n == 0 {
        0.0
    } else {
        // Nearest-rank: the smallest sample with at least p % of the
        // samples at or below it, which leaves n − rank beyond.
        let rank = (percentile as usize * n).div_ceil(100).clamp(1, n);
        s[rank - 1]
    };
    Tail {
        percentile,
        value,
        samples: n,
    }
}

/// The steady host time of one repeated unit of identical work: the
/// fastest of its repeats. Interference on a shared box only ever adds
/// time, in stretches of seconds, so the minimum over repeats spread
/// across a run is the estimate least moved by it.
pub fn steady(repeats: &[f64]) -> f64 {
    repeats.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Element-wise [`steady`] over rounds of equal length: `rounds[r][i]`
/// is the host time of unit `i` in round `r`.
pub fn steady_units(rounds: &[&[f64]]) -> Vec<f64> {
    let units = rounds.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..units)
        .map(|i| steady(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a value's `Debug` rendering, as 16 hex digits.
pub fn digest_of(value: &impl std::fmt::Debug) -> String {
    format!("{:016x}", fnv1a(format!("{value:?}").as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_percentile(&v, 90);
        assert_eq!((t.percentile, t.value, t.samples), (90, 90.0, 100));
        // 50 samples: ten beyond leaves the 80th percentile.
        let t = tail_percentile(&v[..50], 90);
        assert_eq!((t.percentile, t.value, t.samples), (80, 40.0, 50));
        // Too few samples for any tail: the median stands in.
        let t = tail_percentile(&v[..12], 90);
        assert_eq!((t.percentile, t.samples), (50, 12));
        assert_eq!(tail_percentile(&[], 90).value, 0.0);
    }

    #[test]
    fn steady_is_the_fastest_repeat_per_unit() {
        let rounds: [&[f64]; 3] = [&[3.0, 9.0], &[2.0, 10.0], &[4.0, 8.0]];
        assert_eq!(steady_units(&rounds), vec![2.0, 8.0]);
        assert!(steady_units(&[]).is_empty());
    }

    #[test]
    fn digest_is_stable() {
        // Reference vectors of 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_of(&(1u8, "x")), digest_of(&(1u8, "x")));
        assert_ne!(digest_of(&(1u8, "x")), digest_of(&(2u8, "x")));
        assert_eq!(digest_of(&0u8).len(), 16);
    }
}
