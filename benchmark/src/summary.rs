//! Order statistics for rep and run samples.

/// Median of `v` (sorts in place). `v` must not be empty.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method) — the benchmark contract's spread is defined with that
/// function, so `compare` must agree with it to the digit. Needs at
/// least two values.
pub fn quartiles(v: &mut [f64]) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Five-number summary of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Five {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Five {
    /// Summarises `v` (sorts in place); a single value is its own
    /// quartiles.
    pub fn of(v: &mut [f64]) -> Five {
        let med = median(v);
        let (q1, q3) = if v.len() >= 2 {
            let q = quartiles(v);
            (q[0], q[2])
        } else {
            (med, med)
        };
        Five {
            min: v[0],
            q1,
            median: med,
            q3,
            max: v[v.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Log-linear latency histogram: 32 sub-buckets per octave (values are
/// reported to within about 3%), fixed storage, no allocation per
/// record.
#[derive(Debug, Clone)]
pub struct LatHist {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LatHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatHist {
    pub fn new() -> Self {
        LatHist {
            buckets: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            count: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        (((shift + 1) as u64) * SUB + ((v >> shift) & (SUB - 1))) as usize
    }

    fn lower_bound(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx;
        }
        let shift = idx / SUB - 1;
        (SUB + idx % SUB) << shift
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
    }

    /// The value at quantile `q` (0..=1): lower bound of the bucket
    /// that holds the `ceil(q * count)`-th sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower_bound(i);
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&mut [20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&mut [3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn hist_quantiles_are_within_a_sub_bucket() {
        let mut h = LatHist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            assert!((got - want).abs() / want < 0.04, "q{q}: {got} vs {want}");
        }
        assert_eq!(LatHist::lower_bound(LatHist::index(1 << 40)), 1 << 40);
    }
}
