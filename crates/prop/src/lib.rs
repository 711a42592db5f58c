//! A self-contained deterministic property-testing harness.
//!
//! The workspace's property suites need nothing more than "run this check a
//! few dozen times over seed-derived pseudo-random inputs, and say which
//! case failed". This crate provides exactly that, with zero external
//! dependencies, so the whole workspace builds offline. Every case is fully
//! determined by `(base_seed, case index)` — a failure report names the
//! case seed, and running the check on `Rng::new(case_seed)` reproduces it.
//!
//! # Example
//!
//! ```
//! flm_prop::cases(32, 0xF00D, |rng| {
//!     let n = rng.usize(3..8);
//!     assert!(n >= 3 && n < 8);
//!     let x = rng.u64();
//!     assert_eq!(x.wrapping_add(1).wrapping_sub(1), x);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// SplitMix64: the finalizer used throughout the workspace for seed-derived
/// determinism. Passes the usual avalanche tests; plenty for test-case
/// generation (this is not a cryptographic generator).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 pseudo-random bits.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 pseudo-random bits.
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// A pseudo-random byte.
    pub fn byte(&mut self) -> u8 {
        (self.u64() >> 56) as u8
    }

    /// A pseudo-random bool.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A `usize` uniform in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        let width = (range.end - range.start) as u64;
        range.start + (self.u64() % width) as usize
    }

    /// A `u64` uniform in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.u64() % (range.end - range.start)
    }

    /// An `i32` uniform in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn i32(&mut self, range: Range<i32>) -> i32 {
        assert!(range.start < range.end, "empty range");
        let width = (i64::from(range.end) - i64::from(range.start)) as u64;
        range.start.wrapping_add((self.u64() % width) as i32)
    }

    /// An `f64` uniform in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A pseudo-random byte vector with length in `len` (half-open).
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let n = self.usize(len);
        (0..n).map(|_| self.byte()).collect()
    }
}

/// The per-case seed for case `i` under `base_seed` — what a failure report
/// prints; `check(&mut Rng::new(case_seed))` replays that one case.
pub fn case_seed(base_seed: u64, i: u32) -> u64 {
    let mut r = Rng::new(base_seed ^ (u64::from(i) << 32));
    r.u64()
}

/// Runs `check` for `n` seed-derived cases. On a failing case the panic is
/// re-raised with the case index and seed reported on stderr, so the case
/// can be replayed in isolation on `Rng::new(case_seed)`.
pub fn cases(n: u32, base_seed: u64, check: impl Fn(&mut Rng)) {
    for i in 0..n {
        let seed = case_seed(base_seed, i);
        let mut rng = Rng::new(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| check(&mut rng))) {
            eprintln!("flm-prop: case {i}/{n} failed (base_seed={base_seed:#x}, case_seed={seed:#x}); replay with check(&mut flm_prop::Rng::new({seed:#x}))");
            resume_unwind(payload);
        }
    }
}

/// Runs `check` for `n` seed-derived cases across the `flm-par` worker
/// pool. Each case sees exactly the stream [`cases`] would give it — the
/// stream depends only on `(base_seed, index)`, never on the schedule — and
/// when several cases fail, the lowest-indexed failure is the one reported
/// and re-raised, matching the sequential runner byte for byte.
pub fn cases_par(n: u32, base_seed: u64, check: impl Fn(&mut Rng) + Sync) {
    let outcomes = flm_par::par_map((0..n).collect::<Vec<u32>>(), |i| {
        let seed = case_seed(base_seed, i);
        let mut rng = Rng::new(seed);
        catch_unwind(AssertUnwindSafe(|| check(&mut rng))).map_err(|payload| (i, seed, payload))
    });
    for outcome in outcomes {
        if let Err((i, seed, payload)) = outcome {
            eprintln!("flm-prop: case {i}/{n} failed (base_seed={base_seed:#x}, case_seed={seed:#x}); replay with check(&mut flm_prop::Rng::new({seed:#x}))");
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
        assert_ne!(Rng::new(7).u64(), Rng::new(8).u64());
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = Rng::new(42);
        for _ in 0..1000 {
            let x = rng.usize(3..8);
            assert!((3..8).contains(&x));
            let y = rng.range_u64(10..11);
            assert_eq!(y, 10);
            let z = rng.i32(-3..3);
            assert!((-3..3).contains(&z));
            let f = rng.f64_unit();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bytes_length_in_range() {
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            let b = rng.bytes(0..5);
            assert!(b.len() < 5);
        }
    }

    #[test]
    fn cases_run_the_requested_count() {
        use std::cell::Cell;
        let count = Cell::new(0u32);
        cases(17, 3, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 17);
    }

    #[test]
    fn cases_par_runs_the_requested_count() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let count = AtomicU32::new(0);
        cases_par(17, 3, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn cases_par_sees_the_sequential_streams() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        cases_par(8, 0xBEEF, |rng| {
            let v = rng.u64();
            seen.lock().unwrap().push(v);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let mut expected: Vec<u64> = (0..8)
            .map(|i| Rng::new(case_seed(0xBEEF, i)).u64())
            .collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn cases_par_reports_the_lowest_failing_case() {
        let caught = std::panic::catch_unwind(|| {
            cases_par(32, 7, |rng| {
                let tag = rng.u64();
                // Roughly half the cases fail; index order decides the winner.
                assert!(tag.is_multiple_of(2), "odd tag {tag:#x}");
            });
        });
        let payload = caught.expect_err("some tags are odd");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        let first_odd = (0..32)
            .map(|i| Rng::new(case_seed(7, i)).u64())
            .find(|t| !t.is_multiple_of(2))
            .expect("some odd tag in 32 cases");
        assert_eq!(msg, format!("odd tag {first_odd:#x}"));
    }
}
