//! Property tests for the wire codec: random typed sequences round-trip
//! exactly, and truncated or corrupted buffers always surface as
//! [`DecodeError`] — never a panic, whatever bytes arrive off the wire.
//! The simulator's schema types (incidents, policies, strategies, fault
//! plans, edge traces, inputs and decisions) round-trip byte for byte
//! through their [`wire::Field`] impls, and every strict prefix of their
//! bytes fails to decode.

use std::fmt::Debug;

use flm_graph::{builders, NodeId};
use flm_prop::cases;
use flm_sim::async_sched::Strategy;
use flm_sim::wire::{self, DecodeError, Reader, Writer};
use flm_sim::{
    Decision, DeviceMisbehavior, EdgeBehavior, FaultPlan, Input, MisbehaviorKind, Payload,
    RunPolicy, Tick,
};

/// One randomly-typed field of a wire message.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    Bool(bool),
    F64(f64),
    Bytes(Vec<u8>),
}

fn random_fields(rng: &mut flm_prop::Rng) -> Vec<Field> {
    let n = rng.usize(0..12);
    (0..n)
        .map(|_| match rng.usize(0..6) {
            0 => Field::U8(rng.byte()),
            1 => Field::U32(rng.u32()),
            2 => Field::U64(rng.u64()),
            3 => Field::Bool(rng.bool()),
            // Finite, non-NaN: canonical encodings only.
            4 => Field::F64(f64::from(rng.i32(-1_000_000..1_000_000)) / 128.0),
            _ => Field::Bytes(rng.bytes(0..32)),
        })
        .collect()
}

fn encode(fields: &[Field]) -> Vec<u8> {
    let mut w = Writer::new();
    for f in fields {
        match f {
            Field::U8(v) => w.u8(*v),
            Field::U32(v) => w.u32(*v),
            Field::U64(v) => w.u64(*v),
            Field::Bool(v) => w.bool(*v),
            Field::F64(v) => w.f64(*v),
            Field::Bytes(v) => w.bytes(v),
        };
    }
    w.finish()
}

fn decode(fields: &[Field], buf: &[u8]) -> Result<Vec<Field>, DecodeError> {
    let mut r = Reader::new(buf);
    let mut out = Vec::with_capacity(fields.len());
    for f in fields {
        out.push(match f {
            Field::U8(_) => Field::U8(r.u8()?),
            Field::U32(_) => Field::U32(r.u32()?),
            Field::U64(_) => Field::U64(r.u64()?),
            Field::Bool(_) => Field::Bool(r.bool()?),
            Field::F64(_) => Field::F64(r.f64()?),
            Field::Bytes(_) => Field::Bytes(r.bytes()?.to_vec()),
        });
    }
    if !r.is_empty() {
        return Err(DecodeError);
    }
    Ok(out)
}

#[test]
fn random_sequences_round_trip_exactly() {
    cases(300, 0x51BE, |rng| {
        let fields = random_fields(rng);
        let buf = encode(&fields);
        let back = decode(&fields, &buf).expect("round trip");
        assert_eq!(back, fields);
        // Canonicality: re-encoding yields identical bytes.
        assert_eq!(encode(&back), buf);
    });
}

#[test]
fn truncation_always_errors_never_panics() {
    cases(300, 0x7A11, |rng| {
        let mut fields = random_fields(rng);
        if fields.is_empty() {
            fields.push(Field::U32(7));
        }
        let buf = encode(&fields);
        // Every strict prefix must fail cleanly: the sequence reads more
        // total bytes than the prefix holds, or leaves trailing garbage.
        let cut = rng.usize(0..buf.len().max(1));
        match decode(&fields, &buf[..cut]) {
            Err(DecodeError) => {}
            Ok(got) => panic!(
                "decoded {got:?} from a {cut}-byte prefix of {} bytes",
                buf.len()
            ),
        }
    });
}

#[test]
fn corruption_errors_or_decodes_but_never_panics() {
    cases(300, 0xC0DE, |rng| {
        let mut fields = random_fields(rng);
        if fields.is_empty() {
            fields.push(Field::Bytes(vec![1, 2, 3]));
        }
        let mut buf = encode(&fields);
        // Flip 1–4 random bytes. A flipped length prefix may demand more
        // bytes than exist (error), or the buffer may still parse to
        // different-but-valid fields; both are fine — panicking is not.
        for _ in 0..rng.usize(1..5) {
            let i = rng.usize(0..buf.len());
            buf[i] ^= rng.byte() | 1;
        }
        let _ = decode(&fields, &buf);
        // Arbitrary garbage against arbitrary schemas must be safe too.
        let garbage = rng.bytes(0..64);
        let _ = decode(&fields, &garbage);
    });
}

#[test]
fn invalid_tags_are_rejected() {
    for bad in [2u8, 3, 0xFF] {
        assert_eq!(Reader::new(&[bad]).bool(), Err(DecodeError));
    }
    // Length prefix larger than the remaining buffer.
    let mut w = Writer::new();
    w.u32(1000);
    let buf = w.finish();
    assert_eq!(Reader::new(&buf).bytes(), Err(DecodeError));
}

fn field_bytes(value: &impl wire::Field) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.finish()
}

/// Decodes `value`'s bytes back, requires them to re-encode identically
/// and every strict prefix to fail, and returns the decoded value.
fn round_trip<T: wire::Field + Debug>(value: &T) -> T {
    let bytes = field_bytes(value);
    let mut r = Reader::new(&bytes);
    let back = T::get(&mut r, "case").unwrap_or_else(|e| panic!("{value:?}: {e:?}"));
    assert!(r.is_empty(), "{value:?} left {} bytes", r.remaining());
    assert_eq!(
        field_bytes(&back),
        bytes,
        "{value:?} re-encodes differently"
    );
    for cut in 0..bytes.len() {
        let mut r = Reader::new(&bytes[..cut]);
        assert!(
            T::get(&mut r, "case").is_err(),
            "{value:?}: a {cut}-byte prefix decoded"
        );
    }
    back
}

fn random_misbehavior(rng: &mut flm_prop::Rng, kind: usize) -> DeviceMisbehavior {
    let kind = match kind {
        0 => MisbehaviorKind::Panic(String::from_utf8_lossy(&rng.bytes(0..12)).into_owned()),
        1 => MisbehaviorKind::PortMismatch {
            expected: rng.usize(0..64),
            got: rng.usize(0..64),
        },
        _ => MisbehaviorKind::OversizedPayload {
            port: rng.usize(0..64),
            len: rng.usize(0..1 << 20),
            limit: rng.usize(0..1 << 16),
        },
    };
    DeviceMisbehavior {
        node: NodeId(rng.u32()),
        tick: Tick(rng.u32()),
        kind,
    }
}

#[test]
fn schema_types_round_trip_byte_for_byte() {
    cases(100, 0x5C4E, |rng| {
        for kind in 0..3 {
            let incident = random_misbehavior(rng, kind);
            assert_eq!(round_trip(&incident), incident);
        }
        let policy = RunPolicy {
            max_payload_bytes: rng.usize(0..1 << 20),
            max_ticks: rng.u32(),
        };
        assert_eq!(round_trip(&policy), policy);
        for strategy in [
            Strategy::Fair,
            Strategy::Random { seed: rng.u64() },
            Strategy::Adversarial {
                seed: rng.u64(),
                victim: NodeId(rng.u32()),
            },
        ] {
            assert_eq!(round_trip(&strategy), strategy);
        }
        let g = builders::complete(rng.usize(2..7));
        let plan = FaultPlan::random(rng.u64(), &g, rng.u32() % 64, rng.usize(0..6));
        assert_eq!(round_trip(&plan), plan);
        // An edge trace mixing silent and payload ticks (empty payloads
        // included).
        let trace: EdgeBehavior = (0..rng.usize(0..16))
            .map(|_| rng.bool().then(|| Payload::new(rng.bytes(0..8))))
            .collect();
        assert_eq!(round_trip(&trace), trace);
    });
}

/// A real inside an input or a decision reads back whatever bit pattern
/// it was written with, so a certificate recording one re-encodes to the
/// same bytes.
#[test]
fn non_finite_reals_round_trip_by_bit_pattern() {
    let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    for bits in [f64::NAN.to_bits(), nan.to_bits(), (-f64::NAN).to_bits()] {
        let decided = round_trip(&Decision::Real(f64::from_bits(bits)));
        assert!(matches!(decided, Decision::Real(r) if r.to_bits() == bits));
    }
    for r in [f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(round_trip(&Input::Real(r)), Input::Real(r));
    }
    assert_eq!(
        field_bytes(&Input::Real(f64::INFINITY)),
        [2, 0x7F, 0xF0, 0, 0, 0, 0, 0, 0]
    );
}

/// Unknown tags are typed errors in the context the value is read in, and
/// a trace that claims more ticks than bytes remain is refused before any
/// allocation.
#[test]
fn schema_types_reject_unknown_tags() {
    fn error<T: wire::Field + Debug>(bytes: &[u8]) -> wire::FieldError {
        T::get(&mut Reader::new(bytes), "case").unwrap_err()
    }
    let invalid = |reason: &str| wire::invalid("case", reason);
    assert_eq!(error::<Input>(&[3]), invalid("unknown tag 3"));
    assert_eq!(error::<Decision>(&[9]), invalid("unknown tag 9"));
    let mut w = Writer::new();
    w.u32(0).u32(0).u8(3);
    assert_eq!(
        error::<DeviceMisbehavior>(&w.finish()),
        invalid("unknown tag 3")
    );
    let mut w = Writer::new();
    w.u32(1).u8(2);
    assert_eq!(error::<EdgeBehavior>(&w.finish()), invalid("option tag 2"));
    let mut w = Writer::new();
    w.u32(5).u8(0).u8(0);
    assert_eq!(
        error::<EdgeBehavior>(&w.finish()),
        invalid("claims 5 elements but only 2 bytes remain")
    );
}
