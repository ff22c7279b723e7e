//! Summary statistics and the benchmark's naming rules.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_PERCENTILES: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`, which need not
/// be sorted. `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding up
    // past an exact rank (99.9 · 10000 / 100 is 9990.000000000002 in f64).
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of [`TAIL_PERCENTILES`] that still has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond it, or `None` when
/// even the lowest does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// Metric-name suffix of a percentile: `90.0` → `p90`, `99.9` → `p99.9`.
pub fn percentile_label(p: f64) -> String {
    format!("p{p}")
}

/// Whether `name` is a valid metric or workload name: starts with an
/// ASCII letter or digit, at most 64 characters of letters, digits, `_`,
/// `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_start = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    ok_start
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid metric unit: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// 64-bit FNV-1a over a stream of words and byte strings: the output
/// digest two commits compare for unchanged behaviour.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Fold a float by its bits.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // Fewer than 100 samples leave fewer than 10 beyond p90.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(30), None);
        assert_eq!(tail_percentile(99), None);
        // 100 samples: p90 is rank 90, with exactly 10 beyond it.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [100usize, 200, 1000, 10_000, 12_345] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n {n} p {p}");
        }
        assert_eq!(percentile_label(90.0), "p90");
        assert_eq!(percentile_label(99.9), "p99.9");
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in [
            "op_ms_p50",
            "detection.replay_ns_per_column",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "count", "ratio", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::default();
        c.word(1);
        c.word(2);
        assert_eq!(a.finish(), c.finish());
    }
}
