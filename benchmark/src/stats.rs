//! The benchmark's own arithmetic: quantiles with a sample-count rule,
//! intended-time latency, generator lateness, fill ratios and the
//! open-loop arrival schedule. Everything here is pure and unit-tested.

use eb_telemetry::LatencyHistogram;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Samples a quantile needs before it is reported: at least ten samples
/// must lie at or above it, so `n ≥ ⌈10 / (1 − q)⌉` — 20 for a median,
/// 1000 for a p99. Below that the estimate is mostly one or two samples
/// and not worth comparing between runs.
pub fn min_samples(q: f64) -> usize {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q · n` samples at or below it. `None` when the sample is
/// smaller than [`min_samples`] requires.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.len() < min_samples(q) {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Sorts a sample ascending (total order; the benchmark never records NaN).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// A quantile robust to host noise: the nearest-rank `q`-quantile of
/// each segment of a phase, and the median over segments. A run
/// interleaves its latency and saturation segments, so a slow spell
/// of a shared host lands in one or two segments instead of moving the
/// result. The sample-count rule applies to all segments together;
/// every segment must hold at least one sample.
pub fn segment_quantile(segments: &[&[f64]], q: f64) -> Option<f64> {
    let total: usize = segments.iter().map(|s| s.len()).sum();
    if total < min_samples(q) || segments.is_empty() {
        return None;
    }
    let per: Option<Vec<f64>> = segments
        .iter()
        .map(|s| {
            let s = sorted(s.to_vec());
            let rank = ((q * s.len() as f64).ceil() as usize).max(1);
            s.get(rank - 1).copied()
        })
        .collect();
    Some(median(&per?))
}

/// Median of a small set of repeated measurements (set-up times, probe
/// repetitions): the middle value, or the mean of the two middle values.
/// No sample-count rule — callers choose the repetition count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty set");
    let s = sorted(xs.to_vec());
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample (callers report the count).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Latency of a request timed from its *intended* send instant, so time a
/// request spent waiting behind a busy connection or a late generator is
/// charged to the system under test (no coordinated omission).
pub fn intended_latency(intended: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(intended)
}

/// How late the generator itself ran: the gap between the instant the
/// request *could* have been sent — its intended instant, or later when
/// the connection was still busy with the previous reply — and the
/// instant it was actually sent. Waiting for a busy connection is not
/// lateness (it is server time, charged by [`intended_latency`]);
/// oversleeping or a descheduled client thread is.
pub fn lateness(intended: Instant, free_at: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(intended.max(free_at))
}

/// Mean micro-batch size over `max_batch`: 1.0 when every micro-batch
/// left full. `None` before any micro-batch ran.
pub fn batch_fill(inferences: u64, micro_batches: u64, max_batch: usize) -> Option<f64> {
    if micro_batches == 0 || max_batch == 0 {
        return None;
    }
    Some(inferences as f64 / micro_batches as f64 / max_batch as f64)
}

/// Carried WDM lanes over lane capacity: `lanes / (steps · k)`. 1.0 when
/// every optical step drove all `k` wavelengths. `None` before any step.
pub fn lane_fill(lanes: u64, steps: u64, k: usize) -> Option<f64> {
    if steps == 0 || k == 0 {
        return None;
    }
    Some(lanes as f64 / (steps as f64 * k as f64))
}

/// The `q`-quantile of the values recorded into a cumulative histogram
/// between two snapshots (`before` taken first): the smallest bucket
/// bound `v` with at least `⌈q · n⌉` of the `n` new values at or below
/// it. Returns the quantile and `n`; the quantile is `None` when nothing
/// was recorded in between.
pub fn delta_quantile(
    before: &LatencyHistogram,
    after: &LatencyHistogram,
    q: f64,
) -> (Option<f64>, u64) {
    let n = after.count().saturating_sub(before.count());
    if n == 0 {
        return (None, 0);
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let new_le = |v: u64| after.count_le(v).saturating_sub(before.count_le(v));
    let (mut lo, mut hi) = (0u64, after.max().max(1));
    while new_le(hi) < rank {
        hi = hi.saturating_mul(2);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if new_le(mid) >= rank {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (Some(lo as f64), n)
}

/// Mean of the values recorded into a cumulative histogram between two
/// snapshots, with their count.
pub fn delta_mean(before: &LatencyHistogram, after: &LatencyHistogram) -> (Option<f64>, u64) {
    let n = after.count().saturating_sub(before.count());
    if n == 0 {
        return (None, 0);
    }
    let sum = after.sum().saturating_sub(before.sum());
    (Some(sum as f64 / n as f64), n)
}

/// An open-loop Poisson arrival schedule: offsets from the phase start of
/// every request due within `window`, with exponential inter-arrival
/// gaps of mean `1 / rate`. Deterministic in the RNG state.
pub fn poisson_schedule(rate_per_s: f64, window: Duration, rng: &mut StdRng) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let end = window.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * end * 1.1) as usize + 16);
    loop {
        // 1 - U lies in (0, 1], so the log is finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_count_rule_scales_with_the_tail() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.0), 10);
    }

    #[test]
    fn quantile_is_nearest_rank_and_refuses_small_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(500.0));
        assert_eq!(quantile(&xs, 0.99), Some(990.0));
        assert_eq!(quantile(&xs[..999], 0.99), None, "999 < 1000 samples");
        assert_eq!(quantile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(quantile(&xs[..19], 0.5), None);
        // Odd count: the ⌈q·n⌉-th sample.
        assert_eq!(quantile(&xs[..21], 0.5), Some(11.0));
    }

    #[test]
    fn median_of_repeats_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn segment_quantile_ignores_one_slow_segment() {
        // Six segments of 200 samples; segment 2 ran on a slow host and
        // every latency there is 500, elsewhere latencies are 1..=200.
        let fast: Vec<f64> = (1..=200).map(f64::from).collect();
        let slow = vec![500.0; 200];
        let segs: Vec<&[f64]> = (0..6)
            .map(|k| if k == 2 { &slow[..] } else { &fast[..] })
            .collect();
        assert_eq!(segment_quantile(&segs, 0.99), Some(198.0));
        assert_eq!(segment_quantile(&segs, 0.5), Some(100.0));
        // The pooled p99 of the same samples is the slow segment's.
        let pooled: Vec<f64> = segs.concat();
        assert_eq!(quantile(&sorted(pooled), 0.99), Some(500.0));
        // Too few samples overall, or an empty segment: no value.
        assert_eq!(segment_quantile(&segs[..4], 0.99), None, "800 < 1000");
        let with_empty = [&fast[..], &[][..], &fast[..], &fast[..], &fast[..]];
        assert_eq!(segment_quantile(&with_empty, 0.99), None);
    }

    #[test]
    fn latency_counts_from_the_intended_instant() {
        let t0 = Instant::now();
        let intended = t0 + Duration::from_micros(100);
        let done = t0 + Duration::from_micros(450);
        assert_eq!(intended_latency(intended, done), Duration::from_micros(350));
        // A reply before the intended instant cannot be negative.
        assert_eq!(intended_latency(done, intended), Duration::ZERO);
    }

    #[test]
    fn lateness_excludes_waiting_for_a_busy_connection() {
        let t0 = Instant::now();
        let us = Duration::from_micros;
        // Connection free before the intended instant: lateness is the
        // oversleep past the intended instant.
        assert_eq!(lateness(t0 + us(100), t0, t0 + us(130)), us(30));
        // Connection busy until after the intended instant: only the gap
        // after it freed up counts.
        assert_eq!(lateness(t0 + us(100), t0 + us(400), t0 + us(410)), us(10));
        // Sent exactly on time.
        assert_eq!(lateness(t0 + us(100), t0, t0 + us(100)), Duration::ZERO);
    }

    #[test]
    fn fill_ratios() {
        assert_eq!(batch_fill(320, 20, 32), Some(0.5));
        assert_eq!(batch_fill(32, 1, 32), Some(1.0));
        assert_eq!(batch_fill(5, 0, 32), None);
        assert_eq!(lane_fill(48, 4, 16), Some(0.75));
        assert_eq!(lane_fill(16, 1, 16), Some(1.0));
        assert_eq!(lane_fill(3, 0, 16), None);
    }

    #[test]
    fn histogram_deltas_see_only_the_new_values() {
        let mut h = LatencyHistogram::new();
        for v in [1000u64; 50] {
            h.record(v);
        }
        let before = h.clone();
        for v in 1..=20u64 {
            h.record(v);
        }
        let (p50, n) = delta_quantile(&before, &h, 0.5);
        assert_eq!(n, 20);
        assert_eq!(p50, Some(10.0), "values below 32 are exact buckets");
        assert_eq!(delta_quantile(&before, &h, 1.0).0, Some(20.0));
        assert_eq!(delta_mean(&before, &h), (Some(10.5), 20));
        assert_eq!(delta_quantile(&h, &h, 0.5), (None, 0));
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_near_its_rate() {
        let window = Duration::from_secs(10);
        let a = poisson_schedule(500.0, window, &mut StdRng::seed_from_u64(1));
        let b = poisson_schedule(500.0, window, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|t| *t < window));
        assert!((4700..5300).contains(&a.len()), "{} arrivals", a.len());
    }
}
