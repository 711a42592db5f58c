//! A dependency-free scoped worker pool for the FLM workspace.
//!
//! Its consumers are sweeps of many independent jobs: the chaos campaign's
//! single pass (each job probes one cell and shrinks its violation),
//! `flm_prop::cases_par`, and the test matrices over (protocol, fault,
//! strategy) combinations. The library crates do not use it: one
//! refutation runs on its caller's thread, because spreading a single
//! chain across the pool measured no faster end to end. The workspace is
//! deliberately offline (no rayon), so this crate provides the one
//! primitive those consumers need: [`par_map`] over [`std::thread::scope`].
//!
//! # Determinism contract
//!
//! Results are returned **in input order**, regardless of which worker ran
//! which item or in what order items finished. For a pure `f`, the output of
//! `par_map(items, f)` is byte-identical to `items.into_iter().map(f)` — the
//! campaign relies on this for reports that do not depend on the host's
//! core count.
//!
//! # Panic contract
//!
//! Worker panics are caught per item and re-raised on the caller with the
//! **lowest-index** panic's payload, matching the failure the sequential
//! loop would have surfaced first (for deterministic `f`). This composes
//! with `flm-sim`'s `run_contained`: its containment state is thread-local,
//! so devices quarantined inside a worker stay quarantined there, and only
//! genuine harness failures unwind through `par_map`.
//!
//! # Tuning
//!
//! Worker count is [`std::thread::available_parallelism`]; a single core
//! runs inline. [`sequential`] forces the inline path for the current
//! thread only — the determinism tests use it to diff parallel against
//! sequential output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

thread_local! {
    static FORCE_SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with all [`par_map`] calls on *this thread* forced onto the
/// inline sequential path (nested calls included).
///
/// This is the reference mode for determinism tests: a campaign run under
/// `sequential` must produce byte-identical output to the same run without
/// it.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SEQUENTIAL.with(|c| c.set(self.0));
        }
    }
    let previous = FORCE_SEQUENTIAL.with(|c| c.replace(true));
    let _restore = Restore(previous);
    f()
}

/// True when the current thread is inside a [`sequential`] scope.
pub fn is_sequential() -> bool {
    FORCE_SEQUENTIAL.with(Cell::get)
}

/// The number of worker threads a parallel map will use, detected once per
/// process. 1 means "run inline, never spawn".
fn worker_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        resolve_worker_count(
            thread::available_parallelism()
                .ok()
                .map(std::num::NonZeroUsize::get),
        )
    })
}

/// The worker-count rule behind [`worker_count`], split out so both
/// branches are unit-testable without faking the host topology: a detected
/// count is used as-is (so 1 core ⇒ inline sequential, since spawning a
/// pool there only adds overhead), and a failed detection falls back to 2
/// workers so the threaded path's ordering and panic machinery still runs.
fn resolve_worker_count(detected: Option<usize>) -> usize {
    detected.unwrap_or(2)
}

/// Maps `f` over `items` on the worker pool, returning results in input
/// order. See the crate docs for the determinism and panic contracts.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(worker_count(), items, f)
}

/// [`par_map`] with an explicit pool size, so the threaded path's
/// ordering/panic contracts stay testable on hosts where [`worker_count`]
/// resolves to 1 (single detected core ⇒ inline sequential).
fn par_map_with<T, R, F>(pool: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = pool.min(items.len());
    if is_sequential() || workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let n = items.len();
    // Hand-off cells: workers claim indices with a shared cursor, take the
    // item, and park the (caught) result back in its slot, so completion
    // order never affects output order.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<thread::Result<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned: claimed index was taken twice")
                    .take()
                    .expect("cursor hands each index to exactly one worker");
                let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
                *results[i]
                    .lock()
                    .expect("result slot poisoned: claimed index was taken twice") = Some(outcome);
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    for (i, cell) in results.into_iter().enumerate() {
        match cell
            .into_inner()
            .expect("result slot poisoned after scope join")
        {
            Some(Ok(r)) => out.push(r),
            // Lowest-index panic wins: re-raise it on the caller, exactly as
            // the sequential loop would have (for deterministic `f`).
            Some(Err(payload)) => resume_unwind(payload),
            None => unreachable!("scope joins all workers, so slot {i} must be filled"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn worker_count_rule() {
        // A detected single core resolves to the inline sequential path.
        assert_eq!(resolve_worker_count(Some(1)), 1);
        assert_eq!(resolve_worker_count(Some(4)), 4);
        // Detection *failure* (not single-core detection) falls back to 2.
        assert_eq!(resolve_worker_count(None), 2);
    }

    #[test]
    fn results_are_input_ordered() {
        let items: Vec<u64> = (0..200).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        // Stagger work so completion order scrambles under real parallelism.
        let got = par_map_with(4, items, |x| {
            let mut acc = x;
            for _ in 0..((x * 7919) % 256) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            let _ = std::hint::black_box(acc);
            x * x
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert_eq!(par_map(empty, |x| x), Vec::<u8>::new());
        assert_eq!(par_map(vec![5], |x| x + 1), vec![6]);
    }

    #[test]
    fn lowest_index_panic_wins() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(4, (0..64).collect::<Vec<u32>>(), |x| {
                if x == 13 || x == 50 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("a worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic! with args carries a String payload");
        assert_eq!(msg, "boom at 13");
    }

    #[test]
    fn later_items_still_run_after_a_panic() {
        // The pool drains the whole input even when an early item panics;
        // only the re-raise is deferred to the ordered sweep.
        let ran = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(4, (0..32).collect::<Vec<u32>>(), |x| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    panic!("early");
                }
                x
            })
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn sequential_scope_forces_inline_path() {
        assert!(!is_sequential());
        let (flag_inside, result) = sequential(|| {
            let r = par_map(vec![1, 2, 3], |x| x * 10);
            (is_sequential(), r)
        });
        assert!(flag_inside);
        assert!(!is_sequential());
        assert_eq!(result, vec![10, 20, 30]);
    }

    #[test]
    fn sequential_flag_restored_after_panic() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sequential(|| panic!("inside sequential"));
        }));
        assert!(caught.is_err());
        assert!(!is_sequential());
    }

    #[test]
    fn nested_par_map_completes() {
        let got = par_map_with(4, (0..8u32).collect::<Vec<_>>(), |x| {
            par_map_with(4, (0..8u32).collect::<Vec<_>>(), move |y| x * 8 + y)
                .into_iter()
                .sum::<u32>()
        });
        let expected: Vec<u32> = (0..8u32).map(|x| (0..8).map(|y| x * 8 + y).sum()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn pool_of_one_runs_inline_without_spawning() {
        // The pool contract: a pool that resolves to a single worker (what
        // `par_map` uses when `worker_count() == 1`) must execute every item
        // on the calling thread — no spawn, no handoff cells.
        let me = thread::current().id();
        let ids = par_map_with(1, vec![1, 2, 3], |_| thread::current().id());
        assert!(ids.into_iter().all(|id| id == me));
    }

    #[test]
    fn pool_of_many_actually_spawns() {
        // Converse of the contract above: with real workers and enough
        // items, at least one item runs off the calling thread.
        let me = thread::current().id();
        let ids = par_map_with(4, (0..64).collect::<Vec<u32>>(), |_| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            thread::current().id()
        });
        assert!(ids.into_iter().any(|id| id != me));
    }

    #[test]
    fn parallel_equals_sequential_byte_for_byte() {
        let items: Vec<u64> = (0..100).collect();
        let f = |x: u64| format!("{:x}", x.wrapping_mul(0x9E3779B97F4A7C15));
        let par: Vec<String> = par_map_with(4, items.clone(), f);
        let seq: Vec<String> = sequential(|| par_map(items, f));
        assert_eq!(par, seq);
    }
}
