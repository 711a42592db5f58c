//! Consensus protocols demonstrating *tightness* of the FLM bounds.
//!
//! The paper proves that Byzantine agreement, weak agreement, the Byzantine
//! firing squad, approximate agreement, and clock synchronization are
//! unsolvable in *inadequate* graphs (fewer than `3f+1` nodes or less than
//! `2f+1` connectivity). This crate supplies the matching upper bounds — the
//! protocols that succeed the moment the graph is adequate:
//!
//! * [`eig::Eig`] — exponential information gathering Byzantine agreement
//!   (`n ≥ 3f+1`, `f+1` rounds) \[PSL\].
//! * [`phase_king::PhaseKing`] — constant-message-size agreement
//!   (`n > 4f`), a baseline trading resilience for simplicity.
//! * [`dolev_strong::DolevStrong`] — *authenticated* agreement, correct for
//!   any `n ≥ f+2`. Signatures weaken the Fault axiom, which is exactly why
//!   this protocol escapes the `3f+1` bound (§2's remark made runnable).
//! * [`approx::Dlpsw`] — iterated trimmed-mean approximate agreement
//!   (`n ≥ 3f+1`) \[DLPSW\].
//! * [`weak::WeakViaBa`] — weak agreement by reduction to Byzantine
//!   agreement.
//! * [`fast_weak::FastWeakDevice`] — the §4 footnote-4 construction: weak
//!   agreement with *any* number of faults when transmission delay has no
//!   positive lower bound (the sensitivity remark, runnable).
//! * [`firing_squad::FiringSquadViaBa`] — the Byzantine firing squad by
//!   parallel agreement on the stimulus.
//! * [`clock_sync`] — clock-synchronization devices: the optimal
//!   communication-free lower-envelope device, plus over-claiming devices
//!   for the Theorem 8 refuter to defeat.
//! * [`relay::Relayed`] — Dolev's observation \[D\]: with `2f+1` vertex
//!   disjoint paths per pair, any protocol written for the complete graph
//!   runs on any `2f+1`-connected graph. This is what carries every upper
//!   bound from `K_n` to general adequate graphs.
//! * [`waitall::WaitForAll`] — the FLP-style refuter's prey: decides the
//!   OR of its neighborhood once every neighbor has been heard, so it
//!   terminates under every fair schedule but hangs forever when the
//!   scheduling adversary starves one node.
//!
//! Message payloads and snapshots are written by hand with
//! [`flm_sim::wire::Writer`], not declared with [`flm_sim::wire_schema!`]:
//! their bytes sit inside every pinned certificate's masquerade traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod clock_sync;
pub mod dolev_strong;
pub mod eig;
pub mod fast_weak;
pub mod firing_squad;
pub mod phase_king;
pub mod registry;
pub mod relay;
pub mod waitall;
pub mod weak;

pub mod testkit;

pub use approx::Dlpsw;
pub use dolev_strong::DolevStrong;
pub use eig::Eig;
pub use firing_squad::FiringSquadViaBa;
pub use phase_king::PhaseKing;
pub use registry::{resolve, resolve_clock, RegistryError};
pub use relay::Relayed;
pub use waitall::WaitForAll;
pub use weak::WeakViaBa;
