//! Minimal deterministic thread-pool helpers.
//!
//! The resolution engine and the SoC layer both fan independent work out
//! across threads. Everything here is built on `std::thread::scope`; no
//! work-stealing runtime is involved, so scheduling never influences
//! results — callers only hand over work whose output is a pure function
//! of its inputs.

use crate::PlaneCache;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Number of worker threads used for sharded resolution and fan-out.
///
/// Defaults to the machine's available parallelism; the
/// `VOLTBOOT_THREADS` environment variable overrides it (`1` disables
/// threading entirely). The value is read once per process.
pub fn thread_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        if let Ok(v) = std::env::var("VOLTBOOT_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// What work started on a thread runs under — its parallelism budget
/// and plane cache — and [`join_all`] / [`join`] hand to spawned jobs.
#[derive(Clone, Default)]
pub(crate) struct Context {
    /// Set by [`with_budget`]; `None` means "the full pool".
    budget: Option<usize>,
    /// Set by [`PlaneCache::enter`]; `None` means the process default.
    pub(crate) cache: Option<PlaneCache>,
}

thread_local! {
    pub(crate) static CONTEXT: RefCell<Context> = RefCell::default();
}

/// Runs `f` with this thread's context changed by `update`, restoring
/// the previous context afterwards — panic included.
pub(crate) fn scoped<R>(update: impl FnOnce(&mut Context), f: impl FnOnce() -> R) -> R {
    struct Restore(Context);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTEXT.set(std::mem::take(&mut self.0));
        }
    }
    let mut next = CONTEXT.with_borrow(Context::clone);
    update(&mut next);
    let _restore = Restore(CONTEXT.replace(next));
    f()
}

/// The parallelism available to work started *on this thread*: the
/// process-wide [`thread_count`], clamped by the innermost
/// [`with_budget`] scope (if any).
///
/// Layered parallelism uses this instead of `thread_count` directly so
/// the layers share one conceptual pool: when a campaign runs W
/// repetition workers, each worker's inner word-level fan-out sees a
/// budget of roughly `thread_count / W` and stops spawning once the
/// machine is saturated, instead of multiplying `W × thread_count`
/// threads.
pub fn effective_parallelism() -> usize {
    let cap = CONTEXT.with_borrow(|c| c.budget).unwrap_or(usize::MAX);
    thread_count().min(cap).max(1)
}

/// Runs `f` with this thread's parallelism budget capped at `budget`
/// (floored at 1), restoring the previous budget afterwards — panic
/// included. Nested scopes take the minimum of their caps.
///
/// The budget is thread-local: it governs fan-out decisions made on the
/// calling thread ([`join_all`] / [`join`] running inline instead of
/// spawning), which is exactly where a rep-level scheduler dispatches
/// its inner work from. Jobs those two spawn inherit it.
pub fn with_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    scoped(|c| c.budget = Some(budget.max(1).min(c.budget.unwrap_or(usize::MAX))), f)
}

/// Buffers a thread's [`RepArena`] freelist retains per element type.
/// Enough for the deepest consumer (a 15-pass voted readout holds one
/// word buffer per pass plus the byte scratch); anything beyond the cap
/// is simply dropped, so a burst can never pin unbounded memory.
const ARENA_MAX_BUFFERS: usize = 20;

/// Per-thread freelist of reusable scratch buffers — the rep arena.
///
/// Repetition workers (campaign reps, voted readout passes) need
/// short-lived `Vec<u64>` / `Vec<u8>` scratch on every iteration:
/// readout byte dumps, pass bit-buffers, vote planes. Allocating those
/// fresh per rep makes a million-rep campaign allocator-bound; the
/// arena instead keeps each worker thread's retired buffers on a small
/// freelist, so after the first few reps warm it up the steady state
/// performs **zero** allocations. The freelist is thread-local — it
/// composes with [`with_budget`]-scoped fan-out without any locking,
/// and a worker's buffers die with its thread.
#[derive(Default)]
struct RepArena {
    words: Vec<Vec<u64>>,
    bytes: Vec<Vec<u8>>,
}

thread_local! {
    static ARENA: RefCell<RepArena> = RefCell::new(RepArena::default());
}

/// Takes a cleared buffer from `pool` with at least `capacity` spare
/// room, preferring an existing buffer that already fits (so the warm
/// steady state never grows anything).
fn arena_take<T>(pool: &mut Vec<Vec<T>>, capacity: usize) -> Vec<T> {
    let mut v = match pool.iter().rposition(|v| v.capacity() >= capacity) {
        Some(i) => pool.swap_remove(i),
        None => pool.pop().unwrap_or_default(),
    };
    v.clear();
    v.reserve(capacity);
    v
}

fn arena_give<T>(pool: &mut Vec<Vec<T>>, mut v: Vec<T>) {
    if v.capacity() > 0 && pool.len() < ARENA_MAX_BUFFERS {
        v.clear();
        pool.push(v);
    }
}

/// Takes a word buffer (cleared, `capacity >= `the request) from the
/// calling thread's rep arena, allocating only if the freelist has
/// nothing big enough. Pair with [`give_words`] when the buffer
/// retires; an un-returned buffer is an ordinary `Vec` and simply
/// drops.
pub fn take_words(capacity: usize) -> Vec<u64> {
    ARENA.with(|a| arena_take(&mut a.borrow_mut().words, capacity))
}

/// Returns a retired word buffer to the calling thread's rep arena for
/// reuse by a later [`take_words`]. Contents are discarded; buffers
/// beyond the freelist cap are dropped.
pub fn give_words(v: Vec<u64>) {
    ARENA.with(|a| arena_give(&mut a.borrow_mut().words, v));
}

/// Byte-buffer variant of [`take_words`].
pub fn take_bytes(capacity: usize) -> Vec<u8> {
    ARENA.with(|a| arena_take(&mut a.borrow_mut().bytes, capacity))
}

/// Byte-buffer variant of [`give_words`].
pub fn give_bytes(v: Vec<u8>) {
    ARENA.with(|a| arena_give(&mut a.borrow_mut().bytes, v));
}

/// Runs every closure to completion and returns their results in input
/// order.
///
/// With one job, or when [`effective_parallelism`] is 1 (a single-thread
/// pool, or the caller's budget is exhausted), the jobs run inline on
/// the caller's thread. Otherwise each job gets its own scoped thread,
/// running under the caller's budget and plane cache; jobs are expected
/// to be coarse (an SRAM array, a whole experiment cell), so one thread
/// per job is cheaper than queueing machinery. A panicking job
/// propagates its panic to the caller.
pub fn join_all<'env, T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>) -> Vec<T> {
    if jobs.len() <= 1 || effective_parallelism() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let ctx = CONTEXT.with_borrow(Context::clone);
    std::thread::scope(|s| {
        jobs.into_iter()
            .map(|job| s.spawn(|| scoped(|c| *c = ctx.clone(), job)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("parallel job panicked"))
            .collect()
    })
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    if effective_parallelism() <= 1 {
        return (a(), b());
    }
    let ctx = CONTEXT.with_borrow(Context::clone);
    std::thread::scope(|s| {
        let hb = s.spawn(|| scoped(|c| *c = ctx, b));
        let ra = a();
        (ra, hb.join().expect("parallel job panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_all_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..17usize).map(|i| Box::new(move || i * i) as Box<_>).collect();
        let got = join_all(jobs);
        assert_eq!(got, (0..17usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn budget_caps_effective_parallelism_and_restores() {
        let full = effective_parallelism();
        assert!(full >= 1);
        let inside = with_budget(1, || {
            // Nested scopes take the minimum, and a zero request floors
            // at 1 instead of deadlocking fan-out logic.
            assert_eq!(with_budget(0, effective_parallelism), 1);
            assert_eq!(with_budget(64, effective_parallelism), 1);
            effective_parallelism()
        });
        assert_eq!(inside, 1);
        assert_eq!(effective_parallelism(), full, "budget must restore on exit");
    }

    #[test]
    fn budget_is_restored_after_a_panic() {
        let full = effective_parallelism();
        let caught = std::panic::catch_unwind(|| {
            with_budget(1, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(effective_parallelism(), full);
    }

    #[test]
    fn arena_round_trip_reuses_the_allocation() {
        let mut v = take_words(1000);
        v.extend(0..100u64);
        let ptr = v.as_ptr();
        let cap = v.capacity();
        give_words(v);
        let v2 = take_words(500);
        assert_eq!(v2.as_ptr(), ptr, "a fitting freelist buffer must be reused");
        assert_eq!(v2.capacity(), cap, "reuse must not reallocate");
        assert!(v2.is_empty(), "taken buffers come back cleared");
        give_words(v2);

        let mut b = take_bytes(64);
        b.push(7);
        let bptr = b.as_ptr();
        give_bytes(b);
        let b2 = take_bytes(10);
        assert_eq!(b2.as_ptr(), bptr);
        assert!(b2.is_empty());
        give_bytes(b2);
    }

    #[test]
    fn arena_grows_when_nothing_fits_and_caps_its_freelist() {
        // A request bigger than anything retired gets a fresh (or grown)
        // buffer with the requested headroom.
        give_words(Vec::with_capacity(8));
        let big = take_words(1 << 16);
        assert!(big.capacity() >= 1 << 16);
        give_words(big);
        // The freelist never retains more than its cap; the overflow is
        // dropped, not leaked into an unbounded pool.
        for _ in 0..(2 * ARENA_MAX_BUFFERS) {
            give_bytes(Vec::with_capacity(16));
        }
        ARENA.with(|a| {
            assert!(a.borrow().bytes.len() <= ARENA_MAX_BUFFERS);
        });
    }

    /// Spawned jobs see the caller's budget and plane cache, through
    /// `join_all` and `join` alike.
    #[test]
    fn spawned_jobs_inherit_the_callers_budget_and_cache() {
        let id = |c: &PlaneCache| std::sync::Arc::as_ptr(&c.0) as usize;
        let cache = PlaneCache::new();
        let seen = || (CONTEXT.with_borrow(|c| c.budget), id(&PlaneCache::current()));
        let want = (Some(2), id(&cache));
        let (all, pair) = cache.enter(|| {
            with_budget(2, || {
                let jobs: Vec<Box<dyn FnOnce() -> _ + Send>> =
                    (0..3).map(|_| Box::new(seen) as Box<_>).collect();
                (join_all(jobs), join(seen, seen))
            })
        });
        assert_eq!(all, vec![want; 3], "join_all jobs");
        assert_eq!(pair, (want, want), "join closures");
        assert_eq!(CONTEXT.with_borrow(|c| c.budget), None, "the caller's budget is restored");
        assert_ne!(id(&PlaneCache::current()), want.1, "and its cache");
    }

    #[test]
    fn budgeted_join_all_runs_inline_and_preserves_results() {
        let got = with_budget(1, || {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
                (0..9usize).map(|i| Box::new(move || i + 1) as Box<_>).collect();
            join_all(jobs)
        });
        assert_eq!(got, (1..=9usize).collect::<Vec<_>>());
    }
}
