//! Deterministic parallelism helpers.
//!
//! The two-level scheduler evaluates many independent candidate deployments
//! per tabu step; this module provides the small, dependency-light building
//! blocks it uses to spread that work across threads **without changing any
//! observable result**:
//!
//! * [`with_worker_pool`] — a pool of workers that lives for a whole
//!   search and returns each batch's results in input order, so reductions
//!   over them are deterministic regardless of thread scheduling;
//! * [`ShardedCache`] — a concurrent insert-only map, sharded to keep lock
//!   contention off the hot path;
//! * [`resolve_threads`] — the `0 = auto, 1 = serial, N = N` convention used
//!   by every `num_threads` knob in the workspace.
//!
//! Everything here is built on `std::thread::scope` and `std::sync`. Locks
//! ignore poison: they guard result slots, the job queue and cache maps,
//! none of which a panicking worker can leave half-written.

use crate::hash::{FastHashMap, FoldBuildHasher};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// Resolves a `num_threads` knob to a concrete worker count: `0` means one
/// worker per available CPU, any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Runs `body` with a batch evaluator backed by a pool of worker threads
/// that lives for the **whole** call. An iterative search that evaluates one batch per
/// step amortizes thread startup over all steps instead of paying it per
/// step (with 100 steps and 8 workers that is 8 spawns instead of 800).
///
/// `body` receives a `run` function: `run(jobs)` evaluates the owned jobs
/// with `eval` on up to `num_threads` workers (`0` = auto, see
/// [`resolve_threads`]) and returns results **in input order**, so
/// reductions over them are deterministic regardless of thread scheduling.
/// With one worker no thread is spawned and `run` degrades to a serial
/// in-order loop — the reference path parallel callers must match
/// bit-for-bit.
///
/// Jobs are distributed one at a time through a shared queue, so uneven
/// per-job costs load-balance. A panic in `eval` is forwarded to the caller
/// when the batch's results are collected.
///
/// # Panics
/// Re-raises panics from `eval` (and propagates panics from `body`).
pub fn with_worker_pool<T, R, Out>(
    num_threads: usize,
    eval: &(dyn Fn(&T) -> R + Sync),
    body: impl FnOnce(&mut dyn FnMut(Vec<T>) -> Vec<R>) -> Out,
) -> Out
where
    T: Send,
    R: Send,
{
    let workers = resolve_threads(num_threads);
    if workers <= 1 {
        let mut run = |jobs: Vec<T>| -> Vec<R> { jobs.into_iter().map(|t| eval(&t)).collect() };
        return body(&mut run);
    }

    type Caught = Box<dyn std::any::Any + Send + 'static>;
    let (job_tx, job_rx) = std::sync::mpsc::channel::<(usize, T)>();
    let (res_tx, res_rx) = std::sync::mpsc::channel::<(usize, Result<R, Caught>)>();
    // An mpsc receiver has a single consumer; sharing it behind a mutex
    // turns it into the work queue (workers take turns blocking on `recv`,
    // releasing the lock as soon as they pick up a job).
    let job_rx = Mutex::new(job_rx);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let res_tx = res_tx.clone();
            let job_rx = &job_rx;
            scope.spawn(move || loop {
                let job = job_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok((i, t)) = job else { break };
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eval(&t)));
                if res_tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(res_tx);
        let mut run = |jobs: Vec<T>| -> Vec<R> {
            let n = jobs.len();
            for (i, t) in jobs.into_iter().enumerate() {
                job_tx.send((i, t)).expect("worker pool alive");
            }
            let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                let (i, r) = res_rx.recv().expect("worker pool alive");
                match r {
                    Ok(v) => slots[i] = Some(v),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            slots
                .into_iter()
                .map(|r| r.expect("every job answered"))
                .collect()
        };
        let out = body(&mut run);
        // Closing the job queue lets the workers exit before scope join.
        drop(job_tx);
        out
    })
}

/// A concurrent map split into power-of-two shards, each behind its own
/// `RwLock`.
///
/// Designed for memoizing deterministic computations under
/// [`with_worker_pool`]:
/// if two workers race on the same miss they both compute the same value and
/// the first insert wins, so every reader observes one consistent value and
/// results stay independent of thread scheduling. Keys are hashed with
/// [`FoldHasher`](crate::hash::FoldHasher), which mixes every key bit into
/// every hash bit: bits 32 and up of a key's hash pick its shard, and the
/// shard's table indexes by the low bits. So keys that are already hashes
/// spread evenly, and so do keys that share their low bits. No method
/// iterates the shards' entries.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<RwLock<FastHashMap<K, V>>>,
    // Observability only (relaxed ordering): lookup outcomes never influence
    // cached values, so racing updates cannot perturb results — exact counts
    // may differ across thread counts, the values themselves never do.
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> ShardedCache<K, V> {
    /// Creates a cache with `num_shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn new(num_shards: usize) -> Self {
        let n = num_shards.max(1).next_power_of_two();
        ShardedCache {
            shards: (0..n)
                .map(|_| RwLock::new(FastHashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<FastHashMap<K, V>> {
        let h = FoldBuildHasher::default().hash_one(key);
        &self.shards[((h >> 32) as usize) & (self.shards.len() - 1)]
    }

    fn lookup(&self, key: &K) -> Option<V> {
        let v = self
            .shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned();
        if v.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Returns a clone of the cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lookup(key)
    }

    /// Returns the cached value for `key`, computing and inserting it with
    /// `compute` on a miss. `compute` runs **outside** any lock, so it may
    /// run redundantly under a race; the first inserted value wins and is
    /// what every caller receives.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, compute: F) -> V {
        if let Some(v) = self.lookup(&key) {
            return v;
        }
        let computed = compute();
        self.shard(&key)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(computed)
            .clone()
    }

    /// Lookups that found a cached value. Counts are approximate under
    /// concurrent races (a redundant recompute records an extra miss) but
    /// exact for serial use.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing cached.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total number of cached entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash, V: Clone> Default for ShardedCache<K, V> {
    /// A cache with 16 shards — plenty for the scheduler's thread counts.
    fn default() -> Self {
        ShardedCache::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn worker_pool_preserves_order_across_batches() {
        for threads in [1usize, 2, 8] {
            let eval = |x: &u64| x * 2;
            let (a, b) = with_worker_pool(threads, &eval, |run| {
                let a = run((0..50u64).collect());
                let b = run((50..60u64).rev().collect());
                (a, b)
            });
            assert_eq!(a, (0..50u64).map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(b, (50..60u64).rev().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_pool_handles_empty_batches() {
        let eval = |x: &u64| *x;
        let out = with_worker_pool(4, &eval, |run| {
            assert!(run(vec![]).is_empty());
            run(vec![7])
        });
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn worker_pool_forwards_eval_panics() {
        let eval = |x: &u64| {
            assert!(*x < 5, "boom");
            *x
        };
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_worker_pool(2, &eval, |run| run(vec![1, 2, 9]))
        }));
        assert!(res.is_err());
    }

    #[test]
    fn cache_get_or_insert_memoizes() {
        let c: ShardedCache<u64, u64> = ShardedCache::default();
        assert!(c.is_empty());
        assert_eq!(c.get(&42), None);
        assert_eq!(c.get_or_insert_with(42, || 7), 7);
        // second compute must not replace the first value
        assert_eq!(c.get_or_insert_with(42, || 9), 7);
        assert_eq!(c.get(&42), Some(7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let c: ShardedCache<u64, u64> = ShardedCache::default();
        assert_eq!(c.get(&1), None); // miss
        c.get_or_insert_with(1, || 10); // miss + insert
        c.get_or_insert_with(1, || 99); // hit
        assert_eq!(c.get(&1), Some(10)); // hit
        assert_eq!(c.hit_count(), 2);
        assert_eq!(c.miss_count(), 2);
    }

    #[test]
    fn cache_is_safe_under_concurrent_inserts() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(4);
        let keys: Vec<u64> = (0..256).collect();
        std::thread::scope(|scope| {
            for chunk in keys.chunks(32) {
                let c = &c;
                scope.spawn(move || {
                    for &k in chunk {
                        c.get_or_insert_with(k % 32, || k % 32);
                    }
                });
            }
        });
        assert_eq!(c.len(), 32);
        for k in 0..32 {
            assert_eq!(c.get(&k), Some(k));
        }
    }
}
