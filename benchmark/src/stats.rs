//! Order statistics. Percentiles are nearest-rank, so a small sample
//! (the 30 verdicts of a pass) gives a value that was actually observed;
//! medians are over whole passes or repeated probes. Which statistic
//! over a run's passes each end-to-end metric is, is `report.rs`'s
//! business.

/// Median: the middle value, or the mean of the two middle values.
///
/// # Panics
///
/// Panics on an empty slice (a run always has at least one pass).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an already sorted slice: the value at
/// rank `ceil(p/100 · n)` (1-based), so `p = 100` is the maximum.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no values");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a 64, the hash the benchmark keeps per stored verdict line and
/// over the generated request stream. The benchmark's own, so that its
/// checks do not depend on which hash functions the program keeps.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.0
}

/// Incremental [`fnv1a64`].
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_nearest_rank_odd_and_even() {
        let odd = [1, 2, 3, 4, 5];
        assert_eq!(percentile_sorted(&odd, 50.0), 3);
        assert_eq!(percentile_sorted(&odd, 90.0), 5);
        assert_eq!(percentile_sorted(&odd, 100.0), 5);
        assert_eq!(percentile_sorted(&odd, 1.0), 1);
        let even = [10, 20, 30, 40];
        assert_eq!(percentile_sorted(&even, 50.0), 20);
        assert_eq!(percentile_sorted(&even, 75.0), 30);
        assert_eq!(percentile_sorted(&even, 90.0), 40);
        // 30 verdicts: p90 is the 27th smallest.
        let thirty: Vec<u32> = (1..=30).collect();
        assert_eq!(percentile_sorted(&thirty, 90.0), 27);
        assert_eq!(percentile_sorted(&thirty, 50.0), 15);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.0, fnv1a64(b"foobar"));
    }
}
