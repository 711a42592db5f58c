//! Opt-in per-phase timing for the refutation pipeline.
//!
//! Set `FLM_PROFILE=1` and the refuters accumulate wall-clock time per phase
//! (build the covering, run `S`, transplant, verify, …) into a global table;
//! [`report`] renders it together with the run-cache counters from
//! [`flm_sim::runcache::stats`]. `flm-bench regen --refute` prints the
//! report to stderr after each refutation when the variable is set.
//!
//! When `FLM_PROFILE` is unset (or `0`) the [`span`] wrapper is a direct
//! call — no clock reads, no lock traffic — so the profiler costs nothing
//! in the common case.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether profiling is enabled for this process (`FLM_PROFILE` set to
/// anything but `0` or the empty string). Read once and cached.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("FLM_PROFILE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// phase name → (calls, total nanoseconds).
fn table() -> &'static Mutex<BTreeMap<&'static str, (u64, u128)>> {
    static TABLE: OnceLock<Mutex<BTreeMap<&'static str, (u64, u128)>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Times `f` under `phase` when profiling is enabled; otherwise just calls
/// it. Phases nest (an outer span includes its inner spans' time) and
/// accumulate across threads.
pub fn span<R>(phase: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(phase, start.elapsed().as_nanos());
    out
}

/// Adds one call of `ns` nanoseconds to `phase`'s totals.
pub fn record(phase: &'static str, ns: u128) {
    let mut t = table()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let entry = t.entry(phase).or_insert((0, 0));
    entry.0 += 1;
    entry.1 += ns;
}

/// Clears the phase table (the run-cache counters are reset separately via
/// [`flm_sim::runcache::reset_stats`]).
pub fn reset() {
    table()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

/// Renders the phase table plus the run-cache summary. Stable ordering
/// (alphabetical by phase) so output diffs cleanly across runs.
pub fn report() -> String {
    use std::fmt::Write as _;
    let t = table()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut out = String::from("FLM_PROFILE phase summary\n");
    let width = t.keys().map(|k| k.len()).max().unwrap_or(5).max(5);
    let _ = writeln!(
        out,
        "  {:width$}  {:>8}  {:>12}  {:>12}",
        "phase", "calls", "total ms", "mean us"
    );
    for (phase, &(calls, total_ns)) in t.iter() {
        let total_ms = total_ns as f64 / 1e6;
        let mean_us = if calls == 0 {
            0.0
        } else {
            total_ns as f64 / calls as f64 / 1e3
        };
        let _ = writeln!(
            out,
            "  {phase:width$}  {calls:>8}  {total_ms:>12.3}  {mean_us:>12.1}"
        );
    }
    let s = flm_sim::runcache::stats();
    let _ = writeln!(
        out,
        "  run cache: {} hits / {} misses ({:.1}% hit rate), ~{} KiB of behaviors reused, {} evictions, {} entries",
        s.hits,
        s.misses,
        s.hit_rate() * 100.0,
        s.bytes_saved / 1024,
        s.evictions,
        s.entries,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_report_accumulate() {
        reset();
        record("test-phase", 1_500_000);
        record("test-phase", 500_000);
        let r = report();
        assert!(r.contains("test-phase"), "missing phase in {r}");
        assert!(r.contains("run cache:"), "missing cache line in {r}");
        let t = table().lock().unwrap();
        assert_eq!(t.get("test-phase"), Some(&(2, 2_000_000)));
    }

    #[test]
    fn span_passes_value_through() {
        assert_eq!(span("passthrough", || 41 + 1), 42);
    }
}
