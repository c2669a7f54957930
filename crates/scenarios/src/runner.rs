//! Parallel scenario repeats.
//!
//! The paper repeats each measurement (5× for Fig. 1) and reports
//! distributions. Each repeat owns an entire deterministic world, so repeats
//! are embarrassingly parallel: fan them out with `std::thread::scope`, one
//! thread per repeat up to the available parallelism, no shared mutable
//! state (the data-race-freedom idiom from the HPC guides).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use xferopt_simcore::RngFactory;

/// Run `f(repeat_index, seed)` for `repeats` independent repeats in parallel
/// and return the results in repeat order. Seeds are derived from
/// `base_seed` so the whole sweep is reproducible.
///
/// # Panics
/// Panics with "a scenario repeat panicked" if any worker panicked (after
/// all workers finish).
pub fn run_repeats<T, F>(repeats: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
        .min(repeats);
    let (f, next) = (&f, &AtomicUsize::new(0));
    // Each worker returns the `(index, value)` pairs it ran.
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut ran = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= repeats {
                            break ran;
                        }
                        ran.push((i, f(i, RngFactory::new(base_seed).seed_for(i as u64))));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut results = Vec::with_capacity(repeats);
    for ran in joined {
        results.extend(ran.expect("a scenario repeat panicked"));
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_repeat_order() {
        let out = run_repeats(16, 1, |i, _| i * 2);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_distinct_and_reproducible() {
        let a = run_repeats(8, 42, |_, seed| seed);
        let b = run_repeats(8, 42, |_, seed| seed);
        assert_eq!(a, b);
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), a.len());
        let c = run_repeats(8, 43, |_, seed| seed);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_repeats() {
        let out: Vec<u64> = run_repeats(0, 1, |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn actually_runs_concurrently_safe_workload() {
        // Hammer with more repeats than threads; verify each ran exactly once.
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let out = run_repeats(64, 7, |i, _| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    #[should_panic(expected = "a scenario repeat panicked")]
    fn worker_panic_propagates() {
        run_repeats(4, 1, |i, _| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
