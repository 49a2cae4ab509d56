//! Property tests for the windowed core: sliding and cumulative
//! quantiles against exact nearest-rank quantiles of the same sample
//! stream across bucket rotations, and window sums against the exact
//! filtered sum.

use std::time::Duration;

use proptest::prelude::*;
use snn_telemetry::{WindowCounter, WindowHistogram};

/// Mirror of the histogram's window coverage: a sample recorded at `t`
/// is inside the window `[now - w, now]` iff its 5-second slot index is
/// within the last `ceil(w/5)` slot indices ending at `now/5`.
fn hist_in_window(t: u64, now: u64, window_s: u64) -> bool {
    let span = window_s.div_ceil(5).min(60);
    t / 5 + span > now / 5
}

/// Mirror of the counter's window coverage (1-second slots).
fn counter_in_window(t: u64, now: u64, window_s: u64) -> bool {
    let span = window_s.min(300);
    t + span > now
}

fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Windowed p50/p99 must bracket the exact nearest-rank quantile of
    /// the samples the window covers: at least the exact value, at most
    /// one log-linear bin above it (≤ 25 % + 1 µs), across arbitrary
    /// slot rotations including ring wrap-around. The cumulative view
    /// obeys the same bound over every sample, and its p100 is the exact
    /// max.
    #[test]
    fn windowed_quantiles_match_exact_within_bin_tolerance(
        mut samples in proptest::collection::vec((0u64..600, 1u64..2_000_000), 1..200),
        window_ix in 0usize..3,
    ) {
        let window_s = snn_telemetry::WINDOWS_S[window_ix];
        // Production time is monotone; the ring assumes it.
        samples.sort();
        let h = WindowHistogram::new();
        for &(t, us) in &samples {
            h.record(t, Duration::from_micros(us));
        }
        let cumulative = h.cumulative();
        let mut all: Vec<u64> = samples.iter().map(|&(_, us)| us).collect();
        all.sort_unstable();
        prop_assert_eq!(cumulative.count(), all.len() as u64);
        prop_assert_eq!(cumulative.quantile_us(1.0), exact_quantile(&all, 1.0));
        for q in [0.50, 0.99] {
            let exact = exact_quantile(&all, q);
            let quantile = cumulative.quantile_us(q);
            prop_assert!(
                quantile >= exact,
                "q{q}: cumulative {quantile} below exact {exact}"
            );
            prop_assert!(
                quantile <= exact * 1.25 + 1.0,
                "q{q}: cumulative {quantile} beyond bin tolerance of exact {exact}"
            );
        }
        let now = 600u64;
        let mut covered: Vec<u64> = samples
            .iter()
            .filter(|&&(t, _)| hist_in_window(t, now, window_s))
            .map(|&(_, us)| us)
            .collect();
        covered.sort_unstable();
        prop_assert_eq!(h.window_count(now, window_s), covered.len() as u64);
        if covered.is_empty() {
            prop_assert_eq!(h.window_quantile_us(now, window_s, 0.99), 0.0);
        } else {
            for q in [0.50, 0.99] {
                let exact = exact_quantile(&covered, q);
                let windowed = h.window_quantile_us(now, window_s, q);
                prop_assert!(
                    windowed >= exact,
                    "q{q}: windowed {windowed} below exact {exact}"
                );
                prop_assert!(
                    windowed <= exact * 1.25 + 1.0,
                    "q{q}: windowed {windowed} beyond bin tolerance of exact {exact}"
                );
            }
        }
    }

    /// Window sums must equal the exact sum over the covered samples,
    /// and the cumulative total must see everything regardless of
    /// rotation.
    #[test]
    fn windowed_sums_match_exact_filtered_sum(
        mut samples in proptest::collection::vec((0u64..600, 1u32..1000), 1..200),
        window_ix in 0usize..3,
    ) {
        let window_s = snn_telemetry::WINDOWS_S[window_ix];
        samples.sort();
        let c = WindowCounter::new();
        let mut total = 0.0f64;
        for &(t, v) in &samples {
            c.add(t, v as f64);
            total += v as f64;
        }
        let now = 600u64;
        let exact: f64 = samples
            .iter()
            .filter(|&&(t, _)| counter_in_window(t, now, window_s))
            .map(|&(_, v)| v as f64)
            .sum();
        prop_assert!((c.window_sum(now, window_s) - exact).abs() < 1e-9);
        prop_assert!((c.total() - total).abs() < 1e-9);
    }
}
