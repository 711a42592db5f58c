//! Inert remnant of the removed run-prefix trie.
//!
//! Discrete runs are memoized by [`crate::runcache`] alone. The trie that
//! used to fork mid-run tick snapshots cost more than it saved on every
//! measured workload, so it was deleted. This module keeps only the items
//! an end-to-end benchmark outside the workspace still builds against:
//! every counter reads zero, and [`clear`] and [`reset_stats`] do nothing.
//! Nothing in the workspace calls it.

/// The removed trie's counters; every field is always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub misses: u64,
    /// Always zero.
    pub ticks_saved: u64,
}

/// Returns all-zero counters.
pub fn stats() -> PrefixStats {
    PrefixStats::default()
}

/// Does nothing: there are no counters to reset.
pub fn reset_stats() {}

/// Does nothing: there is no store to clear.
pub fn clear() {}
