//! Property test: the telemetry registry's thread-local → global merge is
//! deterministic in counts. A `parole_par::parallel_map` sweep recording
//! counters and histograms from its workers must export bit-identical
//! totals at 1, 2 and 8 threads — the partition of items onto workers, and
//! the order the workers' thread-local buffers merge in, must be
//! unobservable.
//!
//! This file holds exactly one `#[test]` on purpose: the registry is
//! process-global, and a single-test integration binary is the isolation
//! unit that keeps concurrent test runners from interleaving recordings.

#![cfg(feature = "telemetry")]

use parole_par::parallel_map;
use parole_telemetry as tel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn parallel_sweep_totals_are_thread_count_invariant(
        values in proptest::collection::vec(0u64..100_000, 1..48),
    ) {
        let mut snaps = Vec::new();
        for &threads in &[1usize, 2, 8] {
            tel::reset();
            let doubled = parallel_map(values.clone(), threads, |v| {
                tel::counter("sweep.items", 1);
                tel::counter("sweep.value_sum", v);
                tel::observe("sweep.value", v);
                let _span = tel::span("sweep.cell");
                v * 2
            });
            prop_assert_eq!(doubled.len(), values.len());
            snaps.push(tel::snapshot());
        }
        tel::reset();

        // Ground truth from the input, independent of any threading.
        let expected_sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
        for snap in &snaps {
            prop_assert_eq!(snap.counter("sweep.items"), values.len() as u64);
            prop_assert_eq!(u128::from(snap.counter("sweep.value_sum")), expected_sum);
            let hist = snap.histogram("sweep.value").expect("histogram recorded");
            prop_assert_eq!(hist.count, values.len() as u64);
            prop_assert_eq!(hist.sum, expected_sum);
            prop_assert_eq!(hist.min, *values.iter().min().unwrap());
            prop_assert_eq!(hist.max, *values.iter().max().unwrap());
        }

        // Bit-stability across thread counts: counters, histograms (incl.
        // bucket-by-bucket contents) and span *counts*. Span timings are
        // wall-clock and deliberately excluded.
        let base = &snaps[0];
        for snap in &snaps[1..] {
            prop_assert_eq!(&snap.counters, &base.counters);
            prop_assert_eq!(&snap.histograms, &base.histograms);
            let counts = |s: &tel::MetricsSnapshot| -> Vec<(String, u64)> {
                s.spans.iter().map(|n| (n.name.clone(), n.count)).collect()
            };
            prop_assert_eq!(counts(snap), counts(base));
        }
    }
}
