//! Byte pins for the covering refuters: the exact `to_bytes()` of every
//! ring refuter (weak agreement and firing squad; triangle, direct-general
//! and direct-connectivity), every refuter that runs a chain up to its
//! first violation (`ba_nodes`, `ba_connectivity`, `simple_approx`,
//! `simple_approx_connectivity`), the
//! early-exit certificates of each validity-pin wording, and a run under a
//! non-default `RunPolicy`; and the simulation- and cut-heavy shapes: EIG
//! with `f = 3` on K7 and K9, and the connectivity refuters on a 64-cycle,
//! a path (κ = 1) and a random graph whose first minimum-cut pair does not
//! start at node 0. The continuous refuters are pinned too: (ε,δ,γ)-agreement
//! on the triangle (with a long ring) and through the collapse, the clock
//! refuter on the triangle and through the clock collapse, and Corollaries
//! 13–15; and a relayed protocol, whose devices route over `2f + 1`
//! disjoint paths. The benchmark's `refute-cold` queries are pinned too,
//! through the query path (`flm_serve::query::refute_to_bytes`).
//!
//! Certificate bytes are what the serve store caches on disk and what an
//! auditor re-verifies, so a refactor of the refuters must not move a single
//! byte. Each case is pinned by its length and its SHA-256 digest (computed
//! dependency-free in `common`); a mismatch prints the new digest.

mod common;

use flm_core::problems::ClockSyncClaim;
use flm_core::refute::{self, RefuteError};
use flm_core::Certificate;
use flm_graph::{builders, connectivity, Graph, NodeId};
use flm_protocols::clock_sync::{AveragingClockSync, TrivialClockSync};
use flm_protocols::registry::{NaiveMajority, Table};
use flm_protocols::{Dlpsw, Eig, FiringSquadViaBa, Relayed, WeakViaBa};
use flm_sim::clock::TimeFn;
use flm_sim::device::{snapshot, Device, NodeCtx, Payload};
use flm_sim::{Protocol, RunPolicy, Tick};

use common::sha256;

/// `(case, byte length, SHA-256 of the certificate bytes)`.
const PINNED: &[(&str, usize, &str)] = &[
    (
        "ba_connectivity/cycle4/NaiveMajority",
        431,
        "885098dd345f2bfc4044686407d835706353a327dfb66bb6ade7525d3ac4f693",
    ),
    (
        "ba_connectivity/cycle5/NaiveMajority",
        469,
        "e5047d35551e2da02b895abda689ac5bbccdcaf0d4ee100510539fb2f784e68f",
    ),
    (
        "ba_connectivity/cycle6/NaiveMajority",
        507,
        "164767f2548c24fa803347e528b26b1553a1bc70ac61a666056e8ad779dd8cbe",
    ),
    (
        "ba_connectivity/cycle64/NaiveMajority",
        2766,
        "4ab0348b11d8701b746cdc5114f125d423d65630a8c4abd81ba830bfccefd614",
    ),
    (
        "ba_connectivity/path6/NaiveMajority",
        476,
        "ce0aef0c131768e43ff7851bc108e3f25b5221838dfd909caac7d0d74be49ebe",
    ),
    (
        "ba_connectivity/random_connected(7,4,36)/NaiveMajority",
        617,
        "7ec9fa4945c3fdd361ed2de20195370e9689aeb57fb9cf7bc6156e5e764dd4f1",
    ),
    (
        "ba_nodes/K5/EIG",
        1784,
        "94e81c0505fedecfb9e119a74646aedf18ef9f3403ffda0a0c7fb7970f1fb2e9",
    ),
    (
        "ba_nodes/K6/Relayed(EIG(f=2), f=2)",
        98163,
        "1295f3a6d6dacb33c0b43ecfe4d479786a17589dc46cb04a6e42e1bc859ca063",
    ),
    (
        "ba_nodes/K7/EIG(f=3)",
        87219,
        "eaa7b5401e84049c584e34b986cffc0930948c095c26258d944df6651db32a82",
    ),
    (
        "ba_nodes/K9/EIG(f=3)",
        386509,
        "e66485df473fc5f83d1e94d2d11b36063db404d343777ec41dec73b2a02285d7",
    ),
    (
        "ba_nodes/triangle/EIG",
        643,
        "a440694c72e97c06d732339262badfb3aecb727de563037c74dfcfd6569e4020",
    ),
    (
        "clock_sync/triangle/AveragingClockSync",
        354,
        "3353a0810aa09ce3d789a02fdda730d0c29bf12cbbc1e4eff72613eafb75a602",
    ),
    (
        "clock_sync/triangle/TrivialClockSync",
        345,
        "f71717eeb7dc025c48d5000f413c5f2d6613c46ca10c7497953a13142edd6ee1",
    ),
    (
        "clock_sync_general/K6/TrivialClockSync",
        372,
        "891abfad05f64a8d5bfd20e31dc84f714c98cf443f93ed7ec005781446ec8fc8",
    ),
    (
        "corollary_13/TrivialClockSync",
        366,
        "2311bcd18e88cd0f446b0ae6428de98564e928488e02234a6a2fcd10562ac623",
    ),
    (
        "corollary_14/TrivialClockSync(affine)",
        364,
        "1ca088b3d142e01b8344f6688a4847e1a06d7dad815ddad753678561fdb7c1bf",
    ),
    (
        "corollary_15/TrivialClockSync(log2)",
        325,
        "28ba49deb0b7aa5827382bc8efe66258b8b3cd229912dc2f0234e4b8693eec32",
    ),
    (
        "eps_delta_gamma/triangle/DLPSW",
        635,
        "8ce2bca303a862363eb5dc13c10e06faa5d091ff5d7106847e13d2d976d7ef2e",
    ),
    (
        "eps_delta_gamma/triangle/DLPSW/long_ring",
        643,
        "9511ebe4fb10805f533f31cf5e7f8c1a98c21228f474ee9883d7fcc549b99973",
    ),
    (
        "eps_delta_gamma/triangle/EchoReal",
        307,
        "916566ec1ef3a6d5f3c05c7bb7cad0593b13c40f58010696101ad11c2126a0af",
    ),
    (
        "eps_delta_gamma/triangle/Table(7)",
        368,
        "3b1ada845d4d01599f28d5f8ed8f1b2c26a78d93ea30795a926b3a8cb3e4433c",
    ),
    (
        "eps_delta_gamma_general/K6/DLPSW",
        2289,
        "c4496d8ea85461568661305278f3241a7c1d1079f9a9aad072c603a6629e6375",
    ),
    (
        "firing_squad/triangle/FiringSquadViaBA",
        613,
        "13bf24b6b917547710a4a7bef1708a014bc3214a013b83fa304d89cf922e6022",
    ),
    (
        "firing_squad/triangle/FloodAndFire",
        475,
        "2c4bf9459e33dfb860794c8ca2796f2bb4cc46b394b16b3066a5841673f46367",
    ),
    (
        "firing_squad/triangle/Mute",
        306,
        "23db72d37b61b192522c09dfcf8bd2e206360fb5d9e5b651aafa89735d685f7c",
    ),
    (
        "firing_squad/triangle/Staggered",
        302,
        "f0081ad7125f14f9cd89b2504c70b8139ca7a24cc8eec22c65db27ee0d5da4ca",
    ),
    (
        "firing_squad/triangle/TriggerHappy",
        333,
        "9779442a4962b5343b9cdb04cafabbba27fadfc7aa9f878bb926b9b79c2328d7",
    ),
    (
        "firing_squad_direct_connectivity/cycle4/FloodAndFire",
        568,
        "bc21922e4e1275e94b2a93e9945e7a17d4e9c6f74992796971b82c8dd542d790",
    ),
    (
        "firing_squad_direct_connectivity/cycle4/TriggerHappy",
        350,
        "d5fa1adcb1d410b55f84bfa3588a3a86b80cfe6ebb22a285f791d0f6fb9c73e6",
    ),
    (
        "firing_squad_direct_connectivity/cycle5/FloodAndFire",
        606,
        "c6d9773a0fbabf844b1f80416f3a584c37580d06d2f624c9e48b2def23f68322",
    ),
    (
        "firing_squad_direct_connectivity/cycle6/FloodAndFire",
        644,
        "be817d27ab5eec8e65e51aaf515d864e834d592fd436247881e5a06fc4823463",
    ),
    (
        "firing_squad_direct_general/K5/FiringSquadViaBA",
        7557,
        "e9249daf29cad44495c3aab8d7c4b65ea4ca2e5eb3fc58fe9c83de0285bfcf24",
    ),
    (
        "firing_squad_direct_general/K5/Mute",
        372,
        "7c600c93a0a7dc149f909d16a775212b789b4b78fc137b805c53d2d19f42ea1f",
    ),
    (
        "firing_squad_direct_general/K5/Staggered",
        387,
        "6b08889e6555dde49024c3b376e331ef13a187426ff0cb6900083225af37713f",
    ),
    (
        "firing_squad_direct_general/triangle/FiringSquadViaBA",
        637,
        "0a6fd74e40ead190a71d9344bb8de561bc96035ab257538d3687ab7714720818",
    ),
    (
        "policy/firing_squad_direct_connectivity/cycle6/FloodAndFire",
        644,
        "7b66894801e89effe208dfed28f751e709b685b7536b1091379263489563b26b",
    ),
    (
        "policy/simple_approx_connectivity/cycle4/EchoReal",
        535,
        "bf521edab892bb398751fcdfee3ff7f84fe48e48a5f992fed86b6cb9dadf1a5a",
    ),
    (
        "policy/weak_agreement/triangle/WeakViaBA",
        455,
        "fe3f18e705042f7c41176a6fe329f8a588b156f5dfb8abc4a842b767bcb18ccf",
    ),
    (
        "refute_cold/ba-connectivity/-/-/f=1",
        431,
        "885098dd345f2bfc4044686407d835706353a327dfb66bb6ade7525d3ac4f693",
    ),
    (
        "refute_cold/ba-connectivity/-/cycle64/f=1",
        2766,
        "4ab0348b11d8701b746cdc5114f125d423d65630a8c4abd81ba830bfccefd614",
    ),
    (
        "refute_cold/ba-nodes/-/-/f=1",
        643,
        "a440694c72e97c06d732339262badfb3aecb727de563037c74dfcfd6569e4020",
    ),
    (
        "refute_cold/ba-nodes/EIG(f=3)/complete7/f=3",
        87219,
        "eaa7b5401e84049c584e34b986cffc0930948c095c26258d944df6651db32a82",
    ),
    (
        "refute_cold/ba-nodes/EIG(f=3)/complete8/f=3",
        72901,
        "71f2f1c3bf7d646416b0eba0b23257f8b455b86d71db5ba9a77252b8472821d7",
    ),
    (
        "refute_cold/ba-nodes/EIG(f=3)/complete9/f=3",
        386509,
        "e66485df473fc5f83d1e94d2d11b36063db404d343777ec41dec73b2a02285d7",
    ),
    (
        "refute_cold/clock-sync/-/-/f=1",
        345,
        "b498c1e4f9974d7157651fb1bbc5bcadbc966d2cd33dd171eb9b3654c189e919",
    ),
    (
        "refute_cold/eps-delta-gamma/-/-/f=1",
        635,
        "8ce2bca303a862363eb5dc13c10e06faa5d091ff5d7106847e13d2d976d7ef2e",
    ),
    (
        "refute_cold/firing-squad/-/-/f=1",
        613,
        "13bf24b6b917547710a4a7bef1708a014bc3214a013b83fa304d89cf922e6022",
    ),
    (
        "refute_cold/flp-async/-/-/f=1",
        305,
        "1ccb08799547a014ebce11c4a43c1c4bc6d60e0ae11c915e04d594aed21f1295",
    ),
    (
        "refute_cold/flp-async/-/complete32/f=1",
        8398,
        "94e8975b2c281c146dbdf8df5228361cdbe104ec47829486407d673ea3045f3d",
    ),
    (
        "refute_cold/simple-approx/-/-/f=1",
        650,
        "660503bbef81f9b9d1f553282249c36ae874ec9ff730c6237681fb6097f8cd7d",
    ),
    (
        "refute_cold/weak-agreement/-/-/f=1",
        455,
        "c89455faa41ab47be56a84edbf82db1e040834f6c53d1dc1d4ede1440b32875d",
    ),
    (
        "simple_approx/triangle/DLPSW",
        650,
        "660503bbef81f9b9d1f553282249c36ae874ec9ff730c6237681fb6097f8cd7d",
    ),
    (
        "simple_approx/triangle/EchoReal",
        443,
        "05a5fe7c622d34243a9cba5bd2a7e728bea4daa2d9c514a329db5ba3df96d9cd",
    ),
    (
        "simple_approx_connectivity/cycle4/EchoReal",
        535,
        "8435ff1aadb915130852d1752e3a76734b20d0a8c3a8cf93067283b03f201fbd",
    ),
    (
        "simple_approx_connectivity/cycle5/EchoReal",
        601,
        "2f7354d0b82081dec70f894a8f36f2d2187044ebd4bdccf49e1b78290dbccb2a",
    ),
    (
        "simple_approx_connectivity/cycle6/EchoReal",
        667,
        "c9f7eca7a314bd72a41b07ef0281bf30e0a5a4dbe34bd4ed7ca4d022f4c7f07c",
    ),
    (
        "weak_agreement/triangle/Mute",
        300,
        "6c9d2b6d21c7bb37a13dfd73d7cbcc0fe5203c43aa98cf84174c260a7346f61b",
    ),
    (
        "weak_agreement/triangle/NaiveMajority",
        399,
        "5ba420155d60177b07796fb7e7b0c299c8667d15e14a200b2eb010059354cc3d",
    ),
    (
        "weak_agreement/triangle/Stubborn",
        347,
        "da7d15fde0197f646c313f893a72fe77a8a50b54d268a8dbe6580f60addf5303",
    ),
    (
        "weak_agreement/triangle/WeakViaBA",
        455,
        "c89455faa41ab47be56a84edbf82db1e040834f6c53d1dc1d4ede1440b32875d",
    ),
    (
        "weak_agreement_direct_connectivity/cycle4/NaiveMajority",
        529,
        "9309178242eb04e5de2a0caee3dd26556a229df39987ddaa96d9a468ee9f7e80",
    ),
    (
        "weak_agreement_direct_connectivity/cycle5/Mute",
        294,
        "bf1deb2a56c45cafc56b9fe39344ec457e71d64df2ae99a1dbe2f1a67cef5491",
    ),
    (
        "weak_agreement_direct_connectivity/cycle5/NaiveMajority",
        580,
        "bbc0931cd18789e776dadd4f5df8daf2179a50fb5529c3a6ff4b413a360da019",
    ),
    (
        "weak_agreement_direct_connectivity/cycle6/NaiveMajority",
        631,
        "7a4d2daae4e8ce8a2b0df51f6fc2b3540b015967669a22f6ab7ecf6b03f5409b",
    ),
    (
        "weak_agreement_direct_connectivity/cycle64/NaiveMajority",
        3644,
        "3e6c6f0bff9cd92cd21225e43fac7abd578353729b2d69b3943211dcf89ca737",
    ),
    (
        "weak_agreement_direct_connectivity/random_connected(7,4,36)/NaiveMajority",
        730,
        "2ec4f6bda8d05709162d0dbfb40600db48eb23def1d6a9f917ce5c06a86c9748",
    ),
    (
        "weak_agreement_direct_general/K5/Stubborn",
        455,
        "700d8eadbff18cf46c390e9fc830efbf5fa16000c95f7fc4060e632c8dbc1cf8",
    ),
    (
        "weak_agreement_direct_general/K5/WeakViaBA",
        1993,
        "b5ef7cb0a7b71676b53cae149985c88e712c634433935fdd7fa4819d80df6124",
    ),
    (
        "weak_agreement_direct_general/triangle/WeakViaBA",
        502,
        "bde32425421c50477cd9446a2c783e6dc2f9ae725e336200cad43e9111112413",
    ),
];

/// Checks one refuter result against its pin.
fn pin(case: &str, result: Result<Certificate, RefuteError>) {
    let cert = result.unwrap_or_else(|e| panic!("{case}: refuter failed: {e}"));
    pin_bytes(case, &cert.to_bytes());
}

/// Checks one certificate's bytes against its pin.
fn pin_bytes(case: &str, bytes: &[u8]) {
    let got = (bytes.len(), sha256(bytes));
    let Some(&(_, len, digest)) = PINNED.iter().find(|(name, _, _)| *name == case) else {
        panic!("{case}: no pin; add (\"{case}\", {}, \"{}\")", got.0, got.1);
    };
    assert_eq!(
        got,
        (len, digest.to_string()),
        "{case}: certificate bytes moved; now (\"{case}\", {}, \"{}\")",
        got.0,
        got.1
    );
}

/// A protocol built from a per-node device constructor.
struct Fixture {
    name: &'static str,
    horizon: u32,
    device: fn(NodeId) -> Box<dyn Device>,
}

impl Protocol for Fixture {
    fn name(&self) -> String {
        self.name.into()
    }
    fn device(&self, _g: &Graph, v: NodeId) -> Box<dyn Device> {
        (self.device)(v)
    }
    fn horizon(&self, _g: &Graph) -> u32 {
        self.horizon
    }
}

/// Decides `0` from tick 0 on, whatever its input: the all-1 run breaks
/// weak validity.
struct Stubborn;
impl Device for Stubborn {
    fn name(&self) -> &'static str {
        "Stubborn"
    }
    fn init(&mut self, _ctx: &NodeCtx) {}
    fn step(&mut self, _t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        inbox.iter().map(|_| None).collect()
    }
    fn snapshot(&self) -> Vec<u8> {
        snapshot::decided_bool(false, &[])
    }
}

/// Fires at tick `stimulated` with the stimulus and at tick `quiet`
/// without it (never, for `None`); silent on every port.
struct FireAt {
    stimulated: Option<u32>,
    quiet: Option<u32>,
    at: Option<u32>,
    fired: bool,
}
impl FireAt {
    fn boxed(stimulated: Option<u32>, quiet: Option<u32>) -> Box<dyn Device> {
        Box::new(FireAt {
            stimulated,
            quiet,
            at: None,
            fired: false,
        })
    }
}
impl Device for FireAt {
    fn name(&self) -> &'static str {
        "FireAt"
    }
    fn init(&mut self, ctx: &NodeCtx) {
        self.at = if ctx.input.as_bool() == Some(true) {
            self.stimulated
        } else {
            self.quiet
        };
    }
    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        self.fired = self.at.is_some_and(|at| t.0 >= at);
        inbox.iter().map(|_| None).collect()
    }
    fn snapshot(&self) -> Vec<u8> {
        if self.fired {
            snapshot::fire(&[])
        } else {
            snapshot::undecided(&[])
        }
    }
}

/// Floods the stimulus and fires two ticks after first having or hearing
/// it: runs on any graph.
#[derive(Default)]
struct FloodAndFire {
    stimulated: bool,
    heard_at: Option<u32>,
    fired: bool,
}
impl Device for FloodAndFire {
    fn name(&self) -> &'static str {
        "FloodAndFire"
    }
    fn init(&mut self, ctx: &NodeCtx) {
        self.stimulated = ctx.input.as_bool() == Some(true);
    }
    fn step(&mut self, t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        let heard = inbox.iter().flatten().any(|m| m.first() == Some(&1));
        if self.heard_at.is_none() && (self.stimulated || heard) {
            self.heard_at = Some(t.0);
        }
        match self.heard_at {
            Some(h) => {
                self.fired |= t.0 >= h + 2;
                inbox.iter().map(|_| Some(vec![1].into())).collect()
            }
            None => inbox.iter().map(|_| None).collect(),
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        if self.fired {
            snapshot::fire(&[])
        } else {
            snapshot::undecided(&[u8::from(self.heard_at.is_some())])
        }
    }
}

/// Decides its real input at once: valid, never contracting.
#[derive(Default)]
struct EchoReal(f64);
impl Device for EchoReal {
    fn name(&self) -> &'static str {
        "EchoReal"
    }
    fn init(&mut self, ctx: &NodeCtx) {
        self.0 = ctx.input.as_real().unwrap_or(0.0);
    }
    fn step(&mut self, _t: Tick, inbox: &[Option<Payload>]) -> Vec<Option<Payload>> {
        inbox.iter().map(|_| None).collect()
    }
    fn snapshot(&self) -> Vec<u8> {
        snapshot::decided_real(self.0, &[])
    }
}

const FLOOD: Fixture = Fixture {
    name: "FloodAndFire",
    horizon: 8,
    device: |_| Box::<FloodAndFire>::default(),
};
const ECHO: Fixture = Fixture {
    name: "EchoReal",
    horizon: 4,
    device: |_| Box::<EchoReal>::default(),
};
const STUBBORN: Fixture = Fixture {
    name: "Stubborn",
    horizon: 3,
    device: |_| Box::new(Stubborn),
};
/// Never decides and never fires.
const MUTE: Fixture = Fixture {
    name: "Mute",
    horizon: 3,
    device: |_| FireAt::boxed(None, None),
};
/// Fires at different ticks under the stimulus.
const STAGGERED: Fixture = Fixture {
    name: "Staggered",
    horizon: 6,
    device: |v| FireAt::boxed(Some(1 + v.0), None),
};
/// Fires together under the stimulus, and also without it.
const TRIGGER_HAPPY: Fixture = Fixture {
    name: "TriggerHappy",
    horizon: 4,
    device: |_| FireAt::boxed(Some(1), Some(2)),
};

#[test]
fn the_digest_is_sha256() {
    assert_eq!(
        sha256(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        sha256(&[0x61; 1000]),
        "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
    );
}

#[test]
fn triangle_ring_refuters() {
    let g = builders::triangle();
    pin(
        "weak_agreement/triangle/WeakViaBA",
        refute::weak_agreement(&WeakViaBa::new(1), &g, 1),
    );
    pin(
        "weak_agreement/triangle/NaiveMajority",
        refute::weak_agreement(&NaiveMajority, &g, 1),
    );
    pin(
        "firing_squad/triangle/FiringSquadViaBA",
        refute::firing_squad(&FiringSquadViaBa::new(1), &g, 1),
    );
    pin(
        "firing_squad/triangle/FloodAndFire",
        refute::firing_squad(&FLOOD, &g, 1),
    );
}

#[test]
fn direct_general_ring_refuters() {
    let tri = builders::triangle();
    pin(
        "weak_agreement_direct_general/triangle/WeakViaBA",
        refute::weak_agreement_direct_general(&WeakViaBa::new(1), &tri, 1),
    );
    pin(
        "firing_squad_direct_general/triangle/FiringSquadViaBA",
        refute::firing_squad_direct_general(&FiringSquadViaBa::new(1), &tri, 1),
    );
    let k5 = builders::complete(5);
    pin(
        "weak_agreement_direct_general/K5/WeakViaBA",
        refute::weak_agreement_direct_general(&WeakViaBa::new(2), &k5, 2),
    );
    pin(
        "firing_squad_direct_general/K5/FiringSquadViaBA",
        refute::firing_squad_direct_general(&FiringSquadViaBa::new(2), &k5, 2),
    );
}

#[test]
fn direct_connectivity_ring_refuters() {
    for n in [4, 5, 6] {
        let g = builders::cycle(n);
        pin(
            &format!("weak_agreement_direct_connectivity/cycle{n}/NaiveMajority"),
            refute::weak_agreement_direct_connectivity(&NaiveMajority, &g, 1),
        );
        pin(
            &format!("firing_squad_direct_connectivity/cycle{n}/FloodAndFire"),
            refute::firing_squad_direct_connectivity(&FLOOD, &g, 1),
        );
    }
}

#[test]
fn chain_refuters() {
    let tri = builders::triangle();
    pin(
        "ba_nodes/triangle/EIG",
        refute::ba_nodes(&Eig::new(1), &tri, 1),
    );
    pin(
        "ba_nodes/K5/EIG",
        refute::ba_nodes(&Eig::new(2), &builders::complete(5), 2),
    );
    pin(
        "simple_approx/triangle/DLPSW",
        refute::simple_approx(&Dlpsw::new(1, 4), &tri, 1),
    );
    pin(
        "simple_approx/triangle/EchoReal",
        refute::simple_approx(&ECHO, &tri, 1),
    );
    for n in [4, 5, 6] {
        let g = builders::cycle(n);
        pin(
            &format!("ba_connectivity/cycle{n}/NaiveMajority"),
            refute::ba_connectivity(&NaiveMajority, &g, 1),
        );
        pin(
            &format!("simple_approx_connectivity/cycle{n}/EchoReal"),
            refute::simple_approx_connectivity(&ECHO, &g, 1),
        );
    }
}

/// Each validity-pin wording: the triangle refuters and the direct
/// refuters word their early-exit certificates differently.
#[test]
fn early_exit_certificates() {
    let tri = builders::triangle();
    let k5 = builders::complete(5);
    pin(
        "weak_agreement/triangle/Stubborn",
        refute::weak_agreement(&STUBBORN, &tri, 1),
    );
    pin(
        "weak_agreement/triangle/Mute",
        refute::weak_agreement(&MUTE, &tri, 1),
    );
    pin(
        "weak_agreement_direct_general/K5/Stubborn",
        refute::weak_agreement_direct_general(&STUBBORN, &k5, 2),
    );
    pin(
        "weak_agreement_direct_connectivity/cycle5/Mute",
        refute::weak_agreement_direct_connectivity(&MUTE, &builders::cycle(5), 1),
    );
    pin(
        "firing_squad/triangle/Mute",
        refute::firing_squad(&MUTE, &tri, 1),
    );
    pin(
        "firing_squad/triangle/Staggered",
        refute::firing_squad(&STAGGERED, &tri, 1),
    );
    pin(
        "firing_squad/triangle/TriggerHappy",
        refute::firing_squad(&TRIGGER_HAPPY, &tri, 1),
    );
    pin(
        "firing_squad_direct_general/K5/Mute",
        refute::firing_squad_direct_general(&MUTE, &k5, 2),
    );
    pin(
        "firing_squad_direct_general/K5/Staggered",
        refute::firing_squad_direct_general(&STAGGERED, &k5, 2),
    );
    pin(
        "firing_squad_direct_connectivity/cycle4/TriggerHappy",
        refute::firing_squad_direct_connectivity(&TRIGGER_HAPPY, &builders::cycle(4), 1),
    );
}

#[test]
fn under_a_non_default_policy() {
    let policy = RunPolicy {
        max_payload_bytes: 512,
        max_ticks: 64,
    };
    refute::with_policy(policy, || {
        pin(
            "policy/weak_agreement/triangle/WeakViaBA",
            refute::weak_agreement(&WeakViaBa::new(1), &builders::triangle(), 1),
        );
        pin(
            "policy/firing_squad_direct_connectivity/cycle6/FloodAndFire",
            refute::firing_squad_direct_connectivity(&FLOOD, &builders::cycle(6), 1),
        );
        pin(
            "policy/simple_approx_connectivity/cycle4/EchoReal",
            refute::simple_approx_connectivity(&ECHO, &builders::cycle(4), 1),
        );
    });
}

/// EIG with `f = 3`: the largest information trees the chain refuter
/// transplants (the K9 certificate is about 387 KB).
#[test]
fn deep_eig_chains() {
    for n in [7, 9] {
        pin(
            &format!("ba_nodes/K{n}/EIG(f=3)"),
            refute::ba_nodes(&Eig::new(3), &builders::complete(n), 3),
        );
    }
}

/// The connectivity refuters on graphs whose minimum vertex cut is found
/// away from the small defaults: a 64-cycle, a path (κ = 1), and a random
/// graph whose first minimum-cut pair `(s, t)` has `s ≠ 0`.
#[test]
fn cut_heavy_connectivity_refuters() {
    let c64 = builders::cycle(64);
    pin(
        "ba_connectivity/cycle64/NaiveMajority",
        refute::ba_connectivity(&NaiveMajority, &c64, 1),
    );
    pin(
        "weak_agreement_direct_connectivity/cycle64/NaiveMajority",
        refute::weak_agreement_direct_connectivity(&NaiveMajority, &c64, 1),
    );
    pin(
        "ba_connectivity/path6/NaiveMajority",
        refute::ba_connectivity(&NaiveMajority, &builders::path(6), 1),
    );
    let g = builders::random_connected(7, 4, 36);
    let (cut, s, _t) = connectivity::min_vertex_cut(&g).expect("not complete");
    assert_eq!(cut.len(), 2);
    assert_ne!(
        s,
        NodeId(0),
        "the first minimum-cut pair must not start at 0"
    );
    pin(
        "ba_connectivity/random_connected(7,4,36)/NaiveMajority",
        refute::ba_connectivity(&NaiveMajority, &g, 1),
    );
    pin(
        "weak_agreement_direct_connectivity/random_connected(7,4,36)/NaiveMajority",
        refute::weak_agreement_direct_connectivity(&NaiveMajority, &g, 1),
    );
}

/// Theorem 6 on the triangle: DLPSW, a table protocol and the echo device;
/// δ − ε = 0.05 makes the ring 45 nodes long.
#[test]
fn eps_delta_gamma_refuters() {
    let tri = builders::triangle();
    pin(
        "eps_delta_gamma/triangle/DLPSW",
        refute::eps_delta_gamma(&Dlpsw::new(1, 4), &tri, 1, 0.25, 1.0, 1.0),
    );
    pin(
        "eps_delta_gamma/triangle/Table(7)",
        refute::eps_delta_gamma(&Table { seed: 7 }, &tri, 1, 0.25, 1.0, 1.0),
    );
    pin(
        "eps_delta_gamma/triangle/EchoReal",
        refute::eps_delta_gamma(&ECHO, &tri, 1, 0.25, 1.0, 1.0),
    );
    pin(
        "eps_delta_gamma/triangle/DLPSW/long_ring",
        refute::eps_delta_gamma(&Dlpsw::new(1, 4), &tri, 1, 0.25, 0.3, 1.0),
    );
    let (cert, _) = refute::eps_delta_gamma_general(
        Dlpsw::new(2, 4),
        &builders::complete(6),
        2,
        0.25,
        1.0,
        1.0,
    )
    .unwrap_or_else(|e| panic!("eps_delta_gamma_general: {e}"));
    pin_bytes("eps_delta_gamma_general/K6/DLPSW", &cert.to_bytes());
}

/// Theorem 8 on the triangle and through the clock collapse, and
/// Corollaries 13–15: linear, affine and logarithmic envelopes.
#[test]
fn clock_refuters() {
    let claim = ClockSyncClaim {
        p: TimeFn::identity(),
        q: TimeFn::linear(2.0),
        l: TimeFn::identity(),
        u: TimeFn::affine(2.0, 6.0),
        alpha: 1.5,
        t_prime: 1.0,
    };
    let tri = builders::triangle();
    let trivial = TrivialClockSync {
        l: TimeFn::identity(),
    };
    let averaging = AveragingClockSync {
        l: TimeFn::identity(),
        period: 2.0,
    };
    let clock = |case: &str, result: Result<refute::ClockCertificate, RefuteError>| {
        let cert = result.unwrap_or_else(|e| panic!("{case}: refuter failed: {e}"));
        pin_bytes(case, &cert.to_bytes());
    };
    clock(
        "clock_sync/triangle/TrivialClockSync",
        refute::clock_sync(&trivial, &tri, 1, &claim),
    );
    clock(
        "clock_sync/triangle/AveragingClockSync",
        refute::clock_sync(&averaging, &tri, 1, &claim),
    );
    clock(
        "clock_sync_general/K6/TrivialClockSync",
        flm_core::clock_reduction::clock_sync_general(
            trivial.clone(),
            &builders::complete(6),
            2,
            &claim,
        )
        .map(|(cert, _)| cert),
    );
    clock(
        "corollary_13/TrivialClockSync",
        refute::corollary_13(&trivial, 1.5, 1.0, 0.0, TimeFn::affine(1.5, 6.0), 1.0, 1.0),
    );
    let half = TrivialClockSync {
        l: TimeFn::affine(0.5, 0.25),
    };
    clock(
        "corollary_14/TrivialClockSync(affine)",
        refute::corollary_14(&half, 2.0, 0.5, 0.25, TimeFn::affine(1.0, 5.0), 0.75, 1.0),
    );
    let log = TrivialClockSync { l: TimeFn::Log2 };
    clock(
        "corollary_15/TrivialClockSync(log2)",
        refute::corollary_15(&log, 2.0, TimeFn::affine(1.0, 3.0), 0.8, 1.0),
    );
}

/// A relayed protocol: EIG over Dolev's `2f + 1`-path overlay on K6, where
/// every device reads the routing table.
#[test]
fn relayed_chain() {
    pin(
        "ba_nodes/K6/Relayed(EIG(f=2), f=2)",
        refute::ba_nodes(&Relayed::new(Eig::new(2), 2), &builders::complete(6), 2),
    );
}

/// `(theorem, protocol, graph, f)`: the benchmark's `refute-cold` query
/// list, every family at its defaults plus EIG with `f = 3` on K7–K9, the
/// connectivity ring over a 64-cycle and the FLP search on K32.
const REFUTE_COLD: &[(&str, Option<&str>, Option<&str>, usize)] = &[
    ("ba-nodes", None, None, 1),
    ("ba-connectivity", None, None, 1),
    ("weak-agreement", None, None, 1),
    ("firing-squad", None, None, 1),
    ("simple-approx", None, None, 1),
    ("eps-delta-gamma", None, None, 1),
    ("clock-sync", None, None, 1),
    ("flp-async", None, None, 1),
    ("ba-nodes", Some("EIG(f=3)"), Some("complete7"), 3),
    ("ba-nodes", Some("EIG(f=3)"), Some("complete8"), 3),
    ("ba-nodes", Some("EIG(f=3)"), Some("complete9"), 3),
    ("ba-connectivity", None, Some("cycle64"), 1),
    ("flp-async", None, Some("complete32"), 1),
];

/// The query-path bytes of each `refute-cold` query (refute, self-verify,
/// encode), pinned; two cold calls and a warm one must agree, and the
/// bytes must decode and re-encode canonically.
#[test]
fn refute_cold_queries() {
    use flm_serve::query::{self, Theorem};
    use flm_sim::runcache;
    for &(theorem, protocol, graph, f) in REFUTE_COLD {
        let case = format!(
            "refute_cold/{theorem}/{}/{}/f={f}",
            protocol.unwrap_or("-"),
            graph.unwrap_or("-")
        );
        let family = Theorem::parse(theorem).expect("a real family");
        let graph = graph.map(|g| query::parse_graph(g).expect("a real graph"));
        let refute = || {
            query::refute_to_bytes(family, protocol, graph.as_ref(), f, RunPolicy::default())
                .unwrap_or_else(|e| panic!("{case}: {e}"))
        };
        runcache::clear();
        let cold = refute();
        runcache::clear();
        assert_eq!(refute(), cold, "{case}: two cold calls differ");
        assert_eq!(
            refute(),
            cold,
            "{case}: a warm call differs from a cold one"
        );
        let canonical = flm_core::codec::decode_any(&cold).map(|c| c.to_bytes());
        assert_eq!(canonical.as_ref(), Ok(&cold), "{case}: not canonical");
        pin_bytes(&case, &cold);
    }
}
