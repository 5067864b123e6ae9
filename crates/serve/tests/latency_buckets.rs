//! Property tests for the latency histogram's bucket-edge semantics and
//! the one-bucket error bound of histogram quantiles.
//!
//! The documented contract: bucket `i` holds samples with
//! `us < 2^(i+1)` (equivalently `2^i <= us < 2^(i+1)` for `i > 0`, with
//! bucket 0 absorbing 0µs and 1µs), so an exact power-of-two sample
//! `us == 2^k` is the *smallest* member of bucket `k` — the upper edge
//! is exclusive. Randomized cases come from a deterministic LCG so a
//! failure always reproduces.

use hdc_serve::metrics::{latency_bucket_bound_us, latency_bucket_index, Metrics, LATENCY_BUCKETS};
use std::time::Duration;

/// A minimal deterministic PRNG (Lehmer/MMIX constants) — no external
/// crates, identical sequence on every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

#[test]
fn bucket_zero_absorbs_the_sub_two_microsecond_samples() {
    assert_eq!(latency_bucket_index(0), 0);
    assert_eq!(latency_bucket_index(1), 0);
    assert_eq!(latency_bucket_index(2), 1);
    assert_eq!(latency_bucket_bound_us(0), 2);
}

#[test]
fn exact_powers_of_two_open_their_own_bucket() {
    // us == 2^k is the smallest value in bucket k, never the largest in
    // bucket k-1: the upper edge is exclusive.
    for k in 1..40usize {
        let us = 1u64 << k;
        let capped = k.min(LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket_index(us), capped, "2^{k} must open bucket {capped}");
        assert_eq!(
            latency_bucket_index(us - 1),
            (k - 1).min(LATENCY_BUCKETS - 1),
            "2^{k}-1 must close bucket {}",
            k - 1
        );
    }
}

#[test]
fn every_sample_lands_strictly_below_its_bucket_bound() {
    let mut rng = Lcg(0xDAC2021);
    for _ in 0..10_000 {
        // Spread samples across the full non-open-ended range and beyond.
        let us = rng.next() % (1u64 << 30);
        let bucket = latency_bucket_index(us);
        assert!(bucket < LATENCY_BUCKETS);
        if bucket < LATENCY_BUCKETS - 1 {
            assert!(
                us < latency_bucket_bound_us(bucket),
                "{us}us must sit below its bucket {bucket} bound"
            );
        }
        if bucket > 0 {
            assert!(
                us >= latency_bucket_bound_us(bucket - 1),
                "{us}us must sit at or above the previous bucket's bound"
            );
        }
    }
}

#[test]
fn bucket_index_is_monotone_in_the_sample() {
    let mut rng = Lcg(7);
    for _ in 0..10_000 {
        let a = rng.next() % (1u64 << 26);
        let b = rng.next() % (1u64 << 26);
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(
            latency_bucket_index(lo) <= latency_bucket_index(hi),
            "bucket index must be monotone: {lo}us vs {hi}us"
        );
    }
}

#[test]
fn histogram_quantiles_err_by_at_most_one_bucket() {
    // The histogram quantile reports the upper bound of the bucket the
    // true rank-th sample landed in, so its error is bounded by that one
    // bucket: the true quantile and the reported value share a bucket
    // (the report being that bucket's exclusive upper edge).
    let mut rng = Lcg(42);
    for round in 0..20 {
        let metrics = Metrics::new();
        let mut samples: Vec<u64> = Vec::with_capacity(500);
        for _ in 0..500 {
            // Stay below the open-ended last bucket so bounds are real.
            let us = rng.next() % (1u64 << 22);
            samples.push(us);
            metrics.on_latency(Duration::from_micros(us));
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((samples.len() as f64) * q).ceil().max(1.0) as usize;
            let truth = samples[rank - 1];
            let reported = metrics.latency_quantile_us(q);
            assert_eq!(
                latency_bucket_index(truth),
                latency_bucket_index(reported.saturating_sub(1)),
                "round {round} q={q}: true {truth}us and reported {reported}us must share a \
                 bucket"
            );
            assert!(
                truth < reported,
                "round {round} q={q}: the reported bound must sit above the true quantile"
            );
        }
    }
}

#[test]
fn a_sample_past_the_last_edge_counts_only_under_inf() {
    // 20 s is past 2^24 µs, the nominal bound of the open last bucket.
    let metrics = Metrics::new();
    metrics.on_latency(Duration::from_micros(20_000_000));
    let text = metrics.scrape().prometheus();
    let buckets: Vec<&str> =
        text.lines().filter(|line| line.starts_with("hdc_request_latency_us_bucket")).collect();
    let (inf, finite) = buckets.split_last().expect("latency buckets");
    assert_eq!(*inf, "hdc_request_latency_us_bucket{le=\"+Inf\"} 1");
    assert_eq!(finite.len(), LATENCY_BUCKETS - 1, "{text}");
    assert!(finite.iter().all(|line| line.ends_with("} 0")), "{text}");

    let json = metrics.scrape().json();
    let hist = json.get("latency_us").and_then(|l| l.get("hist")).and_then(|h| h.as_array());
    let [bucket] = hist.expect("a latency histogram") else { panic!("one bucket: {json}") };
    assert_eq!(bucket.get("le_us").and_then(|le| le.as_str()), Some("+Inf"));
    assert_eq!(bucket.get("count").and_then(|n| n.as_f64()), Some(1.0));
    // Quantiles keep the open bucket's nominal bound.
    assert_eq!(metrics.latency_quantile_us(0.5), latency_bucket_bound_us(LATENCY_BUCKETS - 1));
}
