//! Property tests: histogram quantiles against a naive sorted-vec
//! reference over arbitrary sample streams.
//!
//! The contract under test (see `Histogram::quantile_bounds`): for any
//! stream of samples and any quantile `q`, the naive reference quantile
//! `sorted[max(1, ceil(q·n)) - 1]` lies inside the inclusive bucket
//! bounds the histogram reports — i.e. log-bucketing costs at most one
//! bucket's width (≤ 12.5 %) of precision, never rank error.

#![cfg(feature = "stats")]

use proptest::prelude::*;

use ukstats::Histogram;

/// The naive reference: rank-select on the sorted samples.
fn naive_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every headline quantile, the naive sorted-vec quantile falls
    /// inside the histogram's reported bucket bounds.
    #[test]
    fn quantiles_bracket_the_naive_reference(
        samples in proptest::collection::vec(0u64..1_000_000, 1..512),
    ) {
        // Every registration is a fresh owner: no earlier case's samples.
        let h = Histogram::register("proptest.quantiles");
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &v in &samples {
            h.record(v);
        }
        for &q in &[0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let naive = naive_quantile(&sorted, q);
            let (lo, hi) = h.quantile_bounds(q).expect("non-empty");
            prop_assert!(
                lo <= naive && naive <= hi,
                "q={q}: naive {naive} outside histogram bucket [{lo},{hi}]"
            );
            // And the headline accessor returns the same bucket's upper
            // bound, so reported quantiles never under-estimate.
            prop_assert_eq!(h.quantile(q), hi);
        }
    }
}

#[test]
fn min_max_sum_track_exactly() {
    let h = Histogram::register("proptest.minmax");
    let samples = [9u64, 1, 500, 77, 3];
    for &v in &samples {
        h.record(v);
    }
    let snap = ukstats::snapshot();
    let hs = snap.hist("proptest.minmax").expect("registered");
    assert_eq!(hs.count, samples.len() as u64);
    assert_eq!(hs.sum, samples.iter().sum::<u64>());
    assert_eq!(hs.min, 1);
    assert_eq!(hs.max, 500);
}
