//! Order statistics over host-time samples and the report digest.

/// Percentiles the tail rule may pick, in per mille, highest first.
const TAIL_LADDER_PERMILLE: [u64; 9] = [999, 995, 990, 980, 975, 950, 900, 750, 500];

/// Fewest samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille` quantile in `len` samples.
fn nearest_rank(permille: u64, len: usize) -> usize {
    let len = len as u64;
    (permille * len).div_ceil(1000).clamp(1, len) as usize
}

/// Median of `values`: the middle value, or the mean of the two middle
/// values of an even count (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked after it, as `(permille, value)`.  `None` when even the median
/// leaves fewer than that many samples beyond it.
pub fn tail(values: &[f64]) -> Option<(u64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER_PERMILLE.iter().find_map(|&permille| {
        let rank = nearest_rank(permille, sorted.len());
        (sorted.len() - rank >= TAIL_MIN_BEYOND).then(|| (permille, sorted[rank - 1]))
    })
}

/// Label of a per-mille percentile: `p95`, `p99.9`.
pub fn percentile_label(permille: u64) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// 64-bit FNV-1a digest of report bytes, printed so that a speed-only
/// change can show its simulated statistics did not move.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)), Some((900, 90.0)));
        // 1000 samples: p99 leaves 10, p99.5 only 5.
        assert_eq!(tail(&ramp(1000)), Some((990, 990.0)));
        // 384 samples: p97.5 is rank 375 (9 beyond), p95 rank 365 (19 beyond).
        assert_eq!(tail(&ramp(384)), Some((950, 365.0)));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((500, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_pick_honours_the_rule() {
        for n in 20..2_000 {
            let (permille, value) = tail(&ramp(n)).expect("n >= 20 has a tail");
            let beyond = ramp(n).iter().filter(|&&v| v > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
            // The next ladder rung up would leave fewer than ten.
            if let Some(&higher) = TAIL_LADDER_PERMILLE.iter().rev().find(|&&p| p > permille) {
                assert!(n - nearest_rank(higher, n) < TAIL_MIN_BEYOND, "n={n}");
            }
        }
    }

    #[test]
    fn labels_and_median() {
        assert_eq!(percentile_label(950), "p95");
        assert_eq!(percentile_label(999), "p99.9");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
