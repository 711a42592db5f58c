//! Property tests for the wire codec: random typed sequences round-trip
//! exactly, and truncated or corrupted buffers always surface as
//! [`DecodeError`] — never a panic, whatever bytes arrive off the wire.

use flm_prop::cases;
use flm_sim::wire::{DecodeError, Reader, Writer};

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
