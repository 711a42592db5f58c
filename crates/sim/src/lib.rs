//! Deterministic timed message-passing simulator realizing the FLM model.
//!
//! The paper's model (§2) is deliberately minimal: systems are communication
//! graphs with a *device* and an *input* at each node; a system has exactly
//! one behavior; and everything rests on two axioms:
//!
//! * **Locality** — a subsystem's behavior is determined by its devices,
//!   inputs, and inedge-border behaviors. Here this holds *structurally*:
//!   the simulator steps each device only on its own state and inbox.
//! * **Fault** — a faulty node can exhibit, on each outedge, any behavior
//!   some device exhibits on that edge in *some* system behavior. Here this
//!   is [`replay::ReplayDevice`]: a device that plays back recorded edge
//!   traces verbatim, realizing the paper's `F_A(E₁, …, E_d)`.
//!
//! Two further axioms gate the later theorems and also hold structurally:
//!
//! * **Bounded-Delay Locality** (§4) — information needs at least δ time per
//!   hop. The simulator delivers every message exactly one tick after it is
//!   sent, so δ = 1.
//! * **Scaling** (§7) — uniformly rescaling all hardware clocks rescales the
//!   behavior. The [`clock`] sub-simulator runs devices that can observe
//!   time *only* through their hardware clock, so scaled systems produce
//!   scaled behaviors by construction.
//!
//! The discrete-tick simulator ([`system::System`]) hosts the Byzantine /
//! weak / firing-squad / approximate-agreement machinery; the event-driven
//! continuous-time simulator ([`clock`]) hosts clock synchronization.
//!
//! # Example
//!
//! ```
//! use flm_graph::builders;
//! use flm_sim::device::{Decision, Input};
//! use flm_sim::system::System;
//! use flm_sim::devices::ConstantDevice;
//!
//! // Three nodes that immediately decide their own input.
//! let g = builders::triangle();
//! let mut sys = System::new(g);
//! for v in sys.graph().nodes() {
//!     sys.assign(v, Box::new(ConstantDevice::new()), Input::Bool(true));
//! }
//! let behavior = sys.run(3);
//! for v in behavior.graph().nodes() {
//!     assert_eq!(behavior.node(v).decision(), Some(Decision::Bool(true)));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod async_sched;
pub mod auth;
pub mod behavior;
pub mod campaign;
pub mod clock;
pub mod device;
pub mod devices;
pub mod faults;
pub(crate) mod kernel;
pub mod prefixcache;
pub mod protocol;
pub mod replay;
pub mod runcache;
pub mod system;
pub mod time;
pub mod wire;

pub use behavior::{
    DeviceMisbehavior, EdgeBehavior, MisbehaviorKind, NodeBehavior, Scenario, SystemBehavior,
};
pub use device::{Decision, Device, Input, NodeCtx, Payload};
pub use faults::{FaultAction, FaultPlan, FaultRule};
pub use protocol::{ClockProtocol, Protocol};
pub use system::{contain_panics, RunPolicy, System};
pub use time::Tick;
