//! Fixed-bucket log-linear latency histogram.

/// Sub-buckets per power of two: bucket width is 1/128 of its lower
/// bound, so a quantile is exact to 0.8 % before interpolation.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Latencies in nanoseconds. Recording is one array increment; memory
/// is fixed (58 × 128 counters) however many ops are measured.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

/// Values below `SUB` get one bucket each; above, the bucket is the
/// exponent and the top `SUB_BITS` bits below the leading one.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let shift = exp - SUB_BITS;
    (shift as usize + 1) * SUB + ((ns >> shift) as usize - SUB)
}

/// `[low, high)` of a bucket.
fn bounds_of(bucket: usize) -> (u64, u64) {
    if bucket < SUB {
        return (bucket as u64, bucket as u64 + 1);
    }
    let shift = (bucket / SUB - 1) as u32;
    let low = ((bucket % SUB + SUB) as u64) << shift;
    (low, low + (1 << shift))
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside its
    /// bucket by rank, so two runs never report the same bucket edge.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n > 0 && rank < (below + n) as f64 {
                let (low, high) = bounds_of(b);
                let inside = (rank - below as f64 + 0.5) / n as f64;
                return low as f64 + inside * (high - low) as f64;
            }
            below += n;
        }
        unreachable!("rank {rank} lies below the total count {}", self.total)
    }

    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut prev_high = 0;
        for b in 0..BUCKETS {
            let (low, high) = bounds_of(b);
            assert_eq!(
                low,
                prev_high,
                "bucket {b} starts where {} ended",
                b.max(1) - 1
            );
            assert_eq!(bucket_of(low), b);
            assert_eq!(bucket_of(high - 1), b);
            prev_high = high;
            if high > u64::MAX / 2 {
                break;
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Histogram::default();
        let values: Vec<u64> = (0..10_000u64).map(|i| 1_000 + i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.95, 0.99] {
            let exact = values[(q * (values.len() - 1) as f64) as usize] as f64;
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
    }
}
