//! # iconv-par
//!
//! Deterministic parallel fan-out for the workspace's simulation sweeps.
//!
//! The experiment harness runs thousands of independent per-layer /
//! per-algorithm simulator jobs. This crate fans them out across scoped
//! worker threads (rayon is unavailable in the offline build environment, and
//! `std::thread::scope` covers everything the sweeps need) while guaranteeing
//! **deterministic output ordering**: results are returned in the input order
//! regardless of which worker finished first, so a parallel sweep is
//! byte-identical to a sequential one.
//!
//! Job-count selection, in priority order:
//!
//! 1. an explicit `jobs` argument ([`par_map_jobs`]),
//! 2. the `ICONV_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! For *long-lived* services (rather than batch sweeps) the [`pool`] module
//! provides [`WorkerPool`]: persistent workers behind a bounded queue with
//! explicit [`PoolBusy`] backpressure.
//!
//! # Examples
//!
//! ```
//! let squares = iconv_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod pool;

pub use pool::{Job, PoolBusy, WorkerPool};

/// Name of the environment variable overriding the worker count.
pub const JOBS_ENV: &str = "ICONV_JOBS";

/// The number of worker threads sweeps use by default: `ICONV_JOBS` if set
/// to a positive integer, otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` in parallel on [`default_jobs`] workers, returning
/// results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_jobs(default_jobs(), items, f)
}

/// Map `f` over `items` on exactly `jobs` workers (clamped to the item
/// count), returning results in input order.
///
/// `jobs == 1` runs inline on the calling thread with no synchronization, so
/// a `--jobs 1` run is a true sequential baseline.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates the first worker panic.
pub fn par_map_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(jobs > 0, "jobs must be >= 1");
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    // Work-stealing by shared atomic cursor: each worker claims the next
    // unclaimed index, so long and short jobs balance automatically.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = par_map_jobs(jobs, &items, |&x| x * 3);
            let want: Vec<usize> = items.iter().map(|&x| x * 3).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_equals_sequential_with_uneven_jobs() {
        // Uneven per-item cost exercises the work-stealing cursor.
        let items: Vec<u64> = (0..64).collect();
        let f = |&x: &u64| (0..(x % 7) * 1000).fold(x, |a, b| a.wrapping_add(b * b));
        assert_eq!(par_map_jobs(4, &items, f), par_map_jobs(1, &items, f));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map_jobs(8, &empty, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map_jobs(8, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "jobs must be >= 1")]
    fn zero_jobs_panics() {
        let _ = par_map_jobs(0, &[1], |&x: &i32| x);
    }
}
