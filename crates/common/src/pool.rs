//! A small work-stealing-free worker pool for intra-query parallelism.
//!
//! The executor drives operators *morsel-at-a-time* (Leis et al.'s
//! morsel-driven parallelism, simplified): the input is cut into fixed-size
//! chunks and a fixed set of workers claim chunk indices from a single
//! atomic counter. There are no per-worker deques and no stealing — the
//! shared counter *is* the scheduler, which keeps the pool tiny and makes
//! result merging deterministic (outputs are reassembled in chunk order, so
//! the caller sees the same ordering regardless of which worker ran which
//! chunk).
//!
//! A pool with `threads == 1` never spawns: every job runs inline on the
//! caller's thread, in order. This is the executor's serial path — parallel
//! code gated on [`WorkerPool::is_parallel`] is guaranteed not to run, so
//! `threads = 1` behaves byte-identically to a build without the pool.
//!
//! Workers are scoped (`std::thread::scope`), so jobs may borrow from the
//! caller's stack — query plans, databases and binding environments are
//! passed by reference, not cloned per worker.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default number of rows per morsel. Small enough that skewed chunks
/// re-balance across workers, large enough that the claim counter is cold.
pub const MORSEL_ROWS: usize = 1024;

/// A fixed-width worker pool. See the module docs for the scheduling model.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers. Zero is clamped to one; one means
    /// "run everything inline on the caller's thread".
    pub fn new(threads: usize) -> Self {
        WorkerPool { threads: threads.max(1) }
    }

    /// Worker count this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Would [`WorkerPool::run_indexed`] actually fan out?
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Run `jobs` independent jobs, returning their outputs **in job-index
    /// order**. Workers claim indices from a shared atomic counter; with
    /// one worker (or one job) everything runs inline, in order, on the
    /// caller's thread.
    pub fn run_indexed<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || jobs <= 1 {
            return (0..jobs).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(jobs);
        let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        for worker_out in per_worker {
            for (i, v) in worker_out {
                debug_assert!(slots[i].is_none(), "job {i} ran twice");
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("job never claimed"))
            .collect()
    }

    /// Morsel-driven parallel map over a slice: `f` is applied to
    /// consecutive chunks of at most `morsel` items and the per-chunk
    /// outputs are returned **in chunk order** (so concatenating them
    /// preserves the input order).
    pub fn map_morsels<'a, In, T, F>(&self, items: &'a [In], morsel: usize, f: F) -> Vec<T>
    where
        In: Sync,
        T: Send,
        F: Fn(&'a [In]) -> T + Sync,
    {
        let morsel = morsel.max(1);
        if items.is_empty() {
            return Vec::new();
        }
        let jobs = items.len().div_ceil(morsel);
        self.run_indexed(jobs, |i| {
            let lo = i * morsel;
            let hi = ((i + 1) * morsel).min(items.len());
            f(&items[lo..hi])
        })
    }

    /// Split `items` into one contiguous slice per worker (at most
    /// `threads` slices, non-empty, covering the input in order) and map
    /// `f` over them in parallel. Used where each worker accumulates
    /// thread-local state over *one* contiguous range — e.g. parallel
    /// grouping — so the caller can merge the per-slice states in input
    /// order deterministically.
    pub fn map_worker_slices<'a, In, T, F>(&self, items: &'a [In], f: F) -> Vec<T>
    where
        In: Sync,
        T: Send,
        F: Fn(&'a [In]) -> T + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let per = items.len().div_ceil(self.threads);
        self.map_morsels(items, per, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = WorkerPool::new(1);
        assert!(!pool.is_parallel());
        let out = pool.run_indexed(5, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn parallel_results_are_in_job_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_indexed(100, |i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicU64::new(0);
        let out = pool.run_indexed(57, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 57);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 57);
    }

    #[test]
    fn map_morsels_preserves_input_order() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..10_000).collect();
        let sums = pool.map_morsels(&items, 64, |chunk| chunk.to_vec());
        let flat: Vec<u64> = sums.into_iter().flatten().collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn map_worker_slices_covers_input() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let slices = pool.map_worker_slices(&items, |s| s.to_vec());
        assert!(slices.len() <= 4);
        assert_eq!(slices.into_iter().flatten().collect::<Vec<_>>(), items);
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let pool = WorkerPool::new(2);
        let data = [1u64, 2, 3, 4];
        let doubled = pool.run_indexed(data.len(), |i| data[i] * 2);
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn empty_inputs() {
        let pool = WorkerPool::new(4);
        assert!(pool.run_indexed(0, |i| i).is_empty());
        assert!(pool.map_morsels(&[] as &[u8], 8, |c| c.len()).is_empty());
    }
}
