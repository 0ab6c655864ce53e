//! A fixed-size latency histogram, so the generator's own memory does
//! not grow with the number of ops it times.
//!
//! Log-linear buckets: exact below [`LINEAR`] ns, then [`SUB`] buckets
//! per octave (each at most 1/256 ≈ 0.4% wide) up to about 1100 s.
//! Percentiles interpolate linearly inside the bucket that holds the
//! requested rank, so they move continuously with the data.

/// Buckets per octave above the linear range.
const SUB: u64 = 256;
/// Values below this many nanoseconds get a bucket each.
const LINEAR: u64 = 2 * SUB;
/// Octaves above the linear range (up to 2^40 ns).
const OCTAVES: u64 = 31;
/// Total buckets.
const BUCKETS: usize = (LINEAR + OCTAVES * SUB) as usize;

fn index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros() as u64) - 8;
    let idx = LINEAR + (shift - 1) * SUB + ((v >> shift) - SUB);
    (idx as usize).min(BUCKETS - 1)
}

/// The half-open value range `[lo, hi)` of bucket `idx`.
fn bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < LINEAR {
        return (idx, idx + 1);
    }
    let k = idx - LINEAR;
    let shift = k / SUB + 1;
    let m = SUB + k % SUB;
    (m << shift, (m + 1) << shift)
}

/// Counts of nanosecond values.
#[derive(Debug, Clone)]
pub struct LatHist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist::new()
    }
}

impl LatHist {
    /// An empty histogram.
    pub fn new() -> LatHist {
        LatHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    /// Records one value, ns.
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    /// Values recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `other`'s counts to this one.
    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile `p` (0–100), interpolated inside its
    /// bucket, in ns; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = crate::stats::rank(self.n as usize, p) as u64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if c > 0 && below + c >= rank {
                let (lo, hi) = bounds(i);
                let f = (rank - below) as f64 - 0.5;
                return Some(lo as f64 + (hi - lo) as f64 * f / c as f64);
            }
            below += c;
        }
        None
    }

    /// [`percentile`](Self::percentile) in µs, 0 when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        self.percentile(p).map_or(0.0, |ns| ns / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        for v in [
            0u64,
            1,
            511,
            512,
            513,
            1023,
            1024,
            1_000_000,
            123_456_789,
            1 << 39,
        ] {
            let (lo, hi) = bounds(index(v));
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            assert!(
                (hi - lo) as f64 <= (lo as f64 / 256.0).max(1.0),
                "{v}: bucket too wide"
            );
        }
        for i in 1..BUCKETS {
            assert_eq!(bounds(i - 1).1, bounds(i).0, "gap before bucket {i}");
        }
    }

    #[test]
    fn percentiles_track_exact_values_within_a_bucket() {
        let mut h = LatHist::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.percentile(50.0).expect("non-empty");
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.005, "{p50}");
        let p99 = h.percentile(99.0).expect("non-empty");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.005, "{p99}");
        assert_eq!(LatHist::new().percentile(50.0), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatHist::new();
        let mut b = LatHist::new();
        a.record(10);
        b.record(20);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.percentile(100.0), Some(30.5));
    }
}
