//! Offline shim for `rayon`: a real multi-threaded parallel-iterator
//! implementation over `std::thread::scope`, exposing the subset of the
//! rayon API the workspace uses (`par_iter()` / `into_par_iter()`, the
//! `map` / `collect` / `sum` / `min` / `max` / `fold` / `reduce` /
//! `for_each` adapters, and `ThreadPoolBuilder::num_threads(..).build()
//! .install(..)` for scoped thread-count control). Swapping the real
//! rayon back in stays a one-line manifest change because call sites are
//! written against the rayon surface.
//!
//! The one user in the simulator is replica-level fan-out
//! (`meryn_scenario::sweep`): whole independent simulations, each long
//! enough to pay for a drive. The engine itself no longer fans out a
//! run's shards: at a few tens of microseconds of work per same-instant
//! run, the scoped threads of every drive cost more than they spread.
//!
//! # Execution model and determinism
//!
//! Work is split into a **fixed chunk partition that depends only on the
//! input length** (never on the thread count); worker threads pull whole
//! chunks from a shared queue and every reduction combines the per-chunk
//! results **in chunk order** on the calling thread. Consequences:
//!
//! * `collect` is order-preserving — output index i is input index i;
//! * every reduction (`sum`, `fold(..).reduce(..)`, …) performs exactly
//!   the same combining tree at any thread count, so even
//!   non-associative-in-practice reductions like `f64` sums are
//!   **bit-identical between `RAYON_NUM_THREADS=1` and N threads**;
//! * a sequential run (one thread) walks the same per-chunk folds, so
//!   "parallel off" is a true fallback, not a separate code path.
//!
//! The thread count comes from, in priority order: an enclosing
//! [`ThreadPool::install`] scope, the `RAYON_NUM_THREADS` environment
//! variable, then [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::iter::Sum;
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Thread-count control
// ---------------------------------------------------------------------------

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`] for the
    /// duration of a closure on the calling thread.
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads a parallel drive started now would use.
///
/// Mirrors `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    if let Some(n) = INSTALLED_THREADS.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (ambient) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count; `0` keeps the ambient default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Never fails in the shim; the `Result` keeps the
    /// rayon calling convention.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// Error type of [`ThreadPoolBuilder::build`] (never produced here).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A handle fixing the thread count for closures run under
/// [`ThreadPool::install`].
///
/// Unlike real rayon no threads are kept alive between drives; workers
/// are scoped to each parallel call. The observable behaviour (how many
/// threads a drive uses) matches.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count as the ambient default.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let n = if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        };
        let previous = INSTALLED_THREADS.with(|c| c.replace(Some(n)));
        // Restore on unwind as well, so a panicking closure does not leak
        // the override into unrelated code on this thread.
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(previous);
        op()
    }

    /// The thread count closures under [`Self::install`] will see.
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked execution engine
// ---------------------------------------------------------------------------

/// Upper bound on the number of chunks a drive is split into.
///
/// Fixed (thread-count-independent) so the per-chunk reduction tree — and
/// therefore every floating-point aggregate — is identical no matter how
/// many workers execute it.
const MAX_CHUNKS: usize = 64;

/// Splits `items` into the deterministic chunk partition: contiguous
/// runs of `ceil(len / MAX_CHUNKS)` items (a function of `len` only).
fn partition<T>(items: Vec<T>) -> Vec<Vec<T>> {
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let chunk_len = len.div_ceil(MAX_CHUNKS).max(1);
    let mut chunks = Vec::with_capacity(len.div_ceil(chunk_len));
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            return chunks;
        }
        chunks.push(chunk);
    }
}

/// Folds every chunk with `init`/`fold` and returns the per-chunk
/// accumulators **in chunk order**, running up to [`current_num_threads`]
/// scoped workers that pull chunks from a shared queue.
fn drive_chunks<T, A, ID, F>(items: Vec<T>, init: &ID, fold: &F) -> Vec<A>
where
    T: Send,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, T) -> A + Sync,
{
    let chunks = partition(items);
    let workers = current_num_threads().min(chunks.len());
    let fold_chunk = |chunk: Vec<T>| chunk.into_iter().fold(init(), fold);

    if workers <= 1 {
        // Sequential fallback: same chunk partition, same fold order.
        return chunks.into_iter().map(fold_chunk).collect();
    }

    let queue = Mutex::new(chunks.into_iter().enumerate());
    let mut indexed: Vec<(usize, A)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Nested drives inside a worker run sequentially: the
                    // worker pins its thread-local count to 1, bounding a
                    // drive to `workers` threads total (no N×M blow-up
                    // when a work item itself calls `par_iter`).
                    INSTALLED_THREADS.with(|c| c.set(Some(1)));
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().expect("chunk queue poisoned").next();
                        match next {
                            Some((idx, chunk)) => done.push((idx, fold_chunk(chunk))),
                            None => return done,
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|&(idx, _)| idx);
    indexed.into_iter().map(|(_, acc)| acc).collect()
}

// ---------------------------------------------------------------------------
// Parallel iterators
// ---------------------------------------------------------------------------

/// A parallel iterator: a recipe of items plus a per-item transform,
/// driven in deterministic chunks by the adapters below.
pub trait ParallelIterator: Sized + Send {
    /// The type of item this iterator yields.
    type Item: Send;

    /// Core drive: folds every chunk of the underlying items with
    /// `init`/`fold` (after applying this iterator's transforms) and
    /// returns the per-chunk accumulators in chunk order.
    ///
    /// Shim-internal building block; prefer the rayon-surface adapters.
    fn fold_chunks_with<A, ID, F>(self, init: ID, fold: F) -> Vec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, Self::Item) -> A + Sync;

    /// Transforms each item with `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Collects into `C`, preserving the input order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.fold_chunks_with(Vec::new, |mut acc, x| {
            acc.push(x);
            acc
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Runs `f` on every item (no ordering guarantee between chunks).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.fold_chunks_with(|| (), |(), x| f(x));
    }

    /// Sums the items. Per-chunk partial sums combine in chunk order, so
    /// the result is thread-count-independent (bit-identical for floats).
    fn sum<S>(self) -> S
    where
        S: Sum<Self::Item> + Sum<S> + Send,
    {
        self.fold_chunks_with(
            || std::iter::empty::<Self::Item>().sum::<S>(),
            |acc, x| [acc, std::iter::once(x).sum::<S>()].into_iter().sum(),
        )
        .into_iter()
        .sum()
    }

    /// Number of items.
    fn count(self) -> usize {
        self.fold_chunks_with(|| 0usize, |acc, _| acc + 1)
            .into_iter()
            .sum()
    }

    /// Smallest item, `None` when empty.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.fold_chunks_with(
            || None,
            |acc: Option<Self::Item>, x| match acc {
                None => Some(x),
                Some(best) => Some(best.min(x)),
            },
        )
        .into_iter()
        .flatten()
        .min()
    }

    /// Largest item, `None` when empty.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.fold_chunks_with(
            || None,
            |acc: Option<Self::Item>, x| match acc {
                None => Some(x),
                Some(best) => Some(best.max(x)),
            },
        )
        .into_iter()
        .flatten()
        .max()
    }

    /// rayon-style fold: folds each chunk with `identity`/`fold_op` and
    /// yields the per-chunk accumulators as a new parallel iterator
    /// (combine them with [`ParallelIterator::reduce`], `sum`, …).
    fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> ParIter<A>
    where
        A: Send,
        ID: Fn() -> A + Sync + Send,
        F: Fn(A, Self::Item) -> A + Sync + Send,
    {
        ParIter {
            items: self.fold_chunks_with(identity, fold_op),
        }
    }

    /// Reduces the items to one value, combining in input order
    /// (deterministic at any thread count; rayon only promises this for
    /// associative `op`, which callers must provide anyway).
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let partials = self.fold_chunks_with(&identity, &op);
        partials.into_iter().fold(identity(), op)
    }
}

/// The root parallel iterator: an ordered, materialized item list.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn fold_chunks_with<A, ID, F>(self, init: ID, fold: F) -> Vec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, T) -> A + Sync,
    {
        drive_chunks(self.items, &init, &fold)
    }
}

/// The iterator returned by [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send,
{
    type Item = R;

    fn fold_chunks_with<A, ID, G>(self, init: ID, fold: G) -> Vec<A>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, R) -> A + Sync,
    {
        let Map { base, f } = self;
        base.fold_chunks_with(init, |acc, x| fold(acc, f(x)))
    }
}

/// Converts an owned collection into a parallel iterator over its items.
pub trait IntoParallelIterator {
    /// The parallel iterator produced by [`Self::into_par_iter`].
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The yielded item type.
    type Item: Send;

    /// rayon-compatible entry point: consumes `self` into a parallel
    /// iterator (order-preserving with respect to the sequential order).
    fn into_par_iter(self) -> Self::Iter;
}

impl<C> IntoParallelIterator for C
where
    C: IntoIterator,
    C::Item: Send,
{
    type Iter = ParIter<C::Item>;
    type Item = C::Item;

    fn into_par_iter(self) -> ParIter<C::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Borrows a collection as a parallel iterator over `&Item`.
pub trait IntoParallelRefIterator<'a> {
    /// The parallel iterator produced by [`Self::par_iter`].
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The yielded (reference) item type.
    type Item: Send + 'a;

    /// rayon-compatible alias for iterating `&self` in parallel.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoIterator,
    <&'a C as IntoIterator>::Item: Send,
{
    type Iter = ParIter<<&'a C as IntoIterator>::Item>;
    type Item = <&'a C as IntoIterator>::Item;

    fn par_iter(&'a self) -> Self::Iter {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Prelude mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn collect_preserves_order() {
        for threads in [1, 2, 7] {
            let out: Vec<u64> = at_threads(threads, || {
                (0..1000u64).into_par_iter().map(|x| x * 3).collect()
            });
            assert_eq!(out, (0..1000u64).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = Vec::<u64>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        assert_eq!(Vec::<u64>::new().into_par_iter().sum::<u64>(), 0);
        assert_eq!(Vec::<u64>::new().into_par_iter().min(), None);
    }

    #[test]
    fn float_sum_is_thread_count_independent() {
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e3).collect();
        let one: f64 = at_threads(1, || xs.par_iter().map(|&x| x / 7.0).sum());
        let many: f64 = at_threads(8, || xs.par_iter().map(|&x| x / 7.0).sum());
        assert_eq!(one.to_bits(), many.to_bits());
    }

    #[test]
    fn par_iter_borrows() {
        let xs = vec![5u32, 1, 9, 3];
        let min = xs.par_iter().map(|&x| x).min();
        assert_eq!(min, Some(1));
        assert_eq!(xs.len(), 4); // still borrowed, not consumed
    }

    #[test]
    fn fold_then_reduce_matches_sequential_for_associative_op() {
        let xs: Vec<u64> = (1..=500).collect();
        for threads in [1, 3, 8] {
            let total = at_threads(threads, || {
                xs.clone()
                    .into_par_iter()
                    .fold(|| 0u64, |acc, x| acc + x)
                    .reduce(|| 0u64, |a, b| a + b)
            });
            assert_eq!(total, xs.iter().sum::<u64>());
        }
    }

    #[test]
    fn install_is_scoped_and_restored() {
        assert_eq!(
            at_threads(3, || at_threads(5, current_num_threads)),
            5,
            "inner install wins"
        );
        let ambient = current_num_threads();
        at_threads(2, || ());
        assert_eq!(current_num_threads(), ambient, "override must not leak");
    }

    #[test]
    fn nested_drives_inside_workers_are_sequential() {
        // A threaded drive pins its workers to 1 thread, so a nested
        // par_iter in the work closure cannot oversubscribe (and the
        // installed cap is honored transitively).
        let counts: Vec<usize> = at_threads(4, || {
            (0..8u64)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert!(
            counts.iter().all(|&n| n == 1),
            "workers must see a pinned thread count of 1, got {counts:?}"
        );
        // The nested drive still computes correctly.
        let nested: Vec<u64> = at_threads(4, || {
            (0..4u64)
                .into_par_iter()
                .map(|i| (0..100u64).into_par_iter().map(|j| i + j).sum())
                .collect()
        });
        let expected: Vec<u64> = (0..4u64)
            .map(|i| (0..100u64).map(|j| i + j).sum())
            .collect();
        assert_eq!(nested, expected);
    }

    #[test]
    fn workers_capped_by_chunks() {
        // 2 items -> at most 2 chunks; asking for 64 threads must not hang.
        let out: Vec<u64> = at_threads(64, || vec![1u64, 2].into_par_iter().collect());
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn count_for_each_and_reduce() {
        assert_eq!((0..123u32).into_par_iter().count(), 123);
        let total = std::sync::atomic::AtomicU64::new(0);
        (1..=10u64).into_par_iter().for_each(|x| {
            total.fetch_add(x, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 55);
        let m = (1..=10u64).into_par_iter().reduce(|| 1, |a, b| a * b);
        assert_eq!(m, 3_628_800);
    }
}
