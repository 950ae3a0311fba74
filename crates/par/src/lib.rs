//! Bounded, deterministic fork/join helpers.
//!
//! The experiment sweeps (fleet cells, figure grids) are embarrassingly
//! parallel, but spawning one OS thread per cell — as the figure binaries
//! originally did — oversubscribes small machines and gives no way to pin
//! thread count for reproducibility measurements. [`parallel_map`] runs a
//! work list over a fixed-size pool of scoped workers and returns results in
//! input order, so the output is **independent of the pool size**: callers
//! that keep per-item work self-contained get bit-identical results at 1, 2
//! or N threads (the fleet determinism test pins this).
//!
//! A crate of its own so the attack core's fleet sweeps and the figure
//! binaries share one pool without the binaries depending on the core for
//! it. Block execution never uses it: the OVM runs a block in sealed order
//! on the calling thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::resume_unwind;

/// Pool size requested through the `PAROLE_THREADS` environment variable.
///
/// Returns `0` ("auto" — see [`parallel_map`]) when the variable is unset,
/// empty or not a positive integer.
pub fn threads_from_env() -> usize {
    std::env::var("PAROLE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0)
}

/// Applies `f` to every item on a bounded pool of scoped worker threads and
/// returns the results **in input order**.
///
/// `threads` is the pool size; `0` means "auto" (the machine's available
/// parallelism). The pool never exceeds the item count, and a pool of one —
/// or an empty/singleton input — runs inline on the calling thread. Items
/// are dealt round-robin to workers, but because results are re-assembled by
/// input index, the observable output does not depend on the partition or on
/// scheduling.
///
/// # Panics
///
/// Propagates a panic from `f` with its own payload, so the caller sees the
/// worker's message. When several items panic, which payload surfaces
/// depends on scheduling.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let workers = threads.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let mut chunks: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        chunks[i % workers].push((i, item));
    }

    let f = &f;
    let per_worker: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move |_| {
                    chunk
                        .into_iter()
                        .map(|(i, t)| (i, f(t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
    .unwrap_or_else(|panic| resume_unwind(panic));

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let got = parallel_map(items.clone(), 4, |x| x * 3);
        let want: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pool_size_does_not_change_results() {
        let items: Vec<u64> = (0..25).collect();
        let reference = parallel_map(items.clone(), 1, |x| x * x + 1);
        for threads in [0usize, 2, 3, 8, 64] {
            assert_eq!(
                parallel_map(items.clone(), threads, |x| x * x + 1),
                reference
            );
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        assert!(parallel_map(Vec::<u8>::new(), 4, |x| x).is_empty());
        assert_eq!(parallel_map(vec![7u8], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_message() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..8u64).collect(), 2, |x| {
                if x == 3 {
                    panic!("boom {x}");
                }
                x
            })
        })
        .expect_err("the panic must propagate");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("boom 3")
        );
    }

    #[test]
    fn env_override_parses_only_positive_integers() {
        // Can't mutate the process environment safely in a test harness that
        // runs tests concurrently; exercise the default path only.
        let auto = threads_from_env();
        assert!(auto == 0 || std::env::var("PAROLE_THREADS").is_ok());
    }
}
