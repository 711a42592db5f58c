//! A tiny deterministic byte codec for message payloads, state snapshots,
//! certificates and RPC messages.
//!
//! Device behaviors are compared byte-for-byte by the refuters, so every
//! encoding must be canonical: the same logical value always serializes to
//! the same bytes. [`Writer`] and [`Reader`] are the primitives the
//! protocol implementations use. On top of them, [`wire_schema!`] declares
//! a struct's or a tagged enum's wire order once, as a list of fields with
//! a decode-error context each, and generates both directions from it
//! through the [`Field`] trait; the `FLMC` certificate format and the
//! FLMC-RPC messages are declared this way.
//!
//! [`wire_schema!`]: crate::wire_schema

use std::fmt;

use flm_graph::{Graph, NodeId};

use crate::clock::TimeFn;
use crate::{Payload, Tick};

/// Canonical byte writer.
///
/// # Example
///
/// ```
/// use flm_sim::wire::{Writer, Reader};
///
/// let mut w = Writer::new();
/// w.u32(7).bool(true).f64(0.5).bytes(b"abc");
/// let buf = w.finish();
/// let mut r = Reader::new(&buf);
/// assert_eq!(r.u32().unwrap(), 7);
/// assert_eq!(r.bool().unwrap(), true);
/// assert_eq!(r.f64().unwrap(), 0.5);
/// assert_eq!(r.bytes().unwrap(), b"abc");
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32` (big-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u64` (big-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.buf.push(u8::from(v));
        self
    }

    /// Appends an `f64` by its IEEE-754 bit pattern (big-endian). NaN would
    /// break canonicality; callers must not encode NaN.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        debug_assert!(!v.is_nan(), "NaN payloads are not canonical");
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string (same layout as
    /// [`Writer::bytes`]).
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Consumes the writer, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Error returned when a [`Reader`] runs out of bytes or sees an invalid tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed payload")
    }
}

impl std::error::Error for DecodeError {}

/// Canonical byte reader; the mirror of [`Writer`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the input is exhausted.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let bytes = self
            .take(4)?
            .try_into()
            .expect("take(4) yields exactly 4 bytes");
        Ok(u32::from_be_bytes(bytes))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let bytes = self
            .take(8)?
            .try_into()
            .expect("take(8) yields exactly 8 bytes");
        Ok(u64::from_be_bytes(bytes))
    }

    /// Reads a bool byte; any value other than 0 or 1 is an error.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input or an invalid tag.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError),
        }
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string (see [`Writer::str`]).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError)
    }

    /// True when all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of unconsumed bytes. Decoders of length-prefixed collections
    /// check claimed element counts against this before allocating, so a
    /// corrupted count can never provoke an oversized allocation.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// A decode failure in a named schema field: the context-carrying error
/// every [`Field`] returns. The certificate and RPC decoders each convert
/// it into their own error type, variant for variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// The input ran out of bytes or had a bad tag in the named field.
    Corrupt {
        /// Which field was being decoded.
        context: &'static str,
    },
    /// The bytes decoded but describe an impossible value.
    Invalid {
        /// Which field was being decoded.
        context: &'static str,
        /// Why the value is impossible.
        reason: String,
    },
}

/// Builds a [`FieldError::Invalid`]; the form every hand-written check
/// returns.
pub fn invalid(context: &'static str, reason: impl Into<String>) -> FieldError {
    FieldError::Invalid {
        context,
        reason: reason.into(),
    }
}

/// Names the field a bare [`DecodeError`] happened in.
pub trait Context<T> {
    /// Turns a [`DecodeError`] into [`FieldError::Corrupt`] in `context`.
    fn ctx(self, context: &'static str) -> Result<T, FieldError>;
}

impl<T> Context<T> for Result<T, DecodeError> {
    fn ctx(self, context: &'static str) -> Result<T, FieldError> {
        self.map_err(|DecodeError| FieldError::Corrupt { context })
    }
}

/// One value in a [`wire_schema!`](crate::wire_schema): how it is written
/// and read back. The schema calls these in its field order, so the order
/// lives in one list and both directions follow it.
pub trait Field: Sized {
    /// The fewest bytes any encoding of the type takes. A counted list
    /// refuses a count whose elements could not fit in the bytes left.
    fn min_bytes() -> usize;
    /// Appends the value.
    fn put(&self, w: &mut Writer);
    /// Reads a value written by [`Field::put`].
    ///
    /// # Errors
    ///
    /// [`FieldError`] in `context` (or in the nested schema's own fields).
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, FieldError>;
}

/// A [`Field`] that may be the element of a counted list (`Vec<T>`). Every
/// field type but `u8` is one: a `Vec<u8>` is a byte string. Public because
/// every [`wire_schema!`](crate::wire_schema) type implements it.
pub trait Item: Field {}

/// A tagged enum's tag table and variant bodies, as [`wire_schema!`]
/// generates them. RPC frames carry the tag in the frame header and
/// certificate files in theirs, so the body is written and read apart from
/// it.
///
/// [`wire_schema!`]: crate::wire_schema
pub trait Tagged: Sized {
    /// The variant's tag byte.
    fn tag(&self) -> u8;
    /// Appends the variant's fields, without the tag.
    fn put_body(&self, w: &mut Writer);
    /// Reads the fields of the variant `tag` names; `Ok(None)` when it
    /// names none. A field the schema gives no label of its own reports
    /// its errors in `context`.
    ///
    /// # Errors
    ///
    /// [`FieldError`] from the variant's fields.
    fn get_body(
        tag: u8,
        r: &mut Reader<'_>,
        context: &'static str,
    ) -> Result<Option<Self>, FieldError>;
}

/// Reads a collection count, refusing counts that could not possibly fit in
/// the remaining input (each element needs at least `min_element_bytes`).
fn checked_count(
    r: &mut Reader<'_>,
    context: &'static str,
    min_element_bytes: usize,
) -> Result<usize, FieldError> {
    let n = r.u32().ctx(context)? as usize;
    if n.saturating_mul(min_element_bytes.max(1)) > r.remaining() {
        return Err(invalid(
            context,
            format!(
                "claims {n} elements but only {} bytes remain",
                r.remaining()
            ),
        ));
    }
    Ok(n)
}

/// `T::min_bytes()` for the field a projection names; lets
/// [`wire_schema!`](crate::wire_schema) sum a struct's fields without
/// their types being spelled out.
#[doc(hidden)]
pub fn min_bytes_of<S, T: Field>(_: fn(&S) -> &T) -> usize {
    T::min_bytes()
}

/// Reads a counter table's length tag and requires this build's `count`,
/// so a peer built with a different table fails typed instead of reading
/// misaligned values; [`wire_schema!`](crate::wire_schema)'s `[N => label]`.
#[doc(hidden)]
pub fn expect_count(
    r: &mut Reader<'_>,
    count: u32,
    context: &'static str,
) -> Result<(), FieldError> {
    let got = r.u32().ctx(context)?;
    if got != count {
        return Err(invalid(
            context,
            format!("counter table has {got} entries, this build speaks {count}"),
        ));
    }
    Ok(())
}

/// Fields whose bytes are one existing encoder and decoder, and whose
/// failures are all [`FieldError::Corrupt`].
macro_rules! leaf_fields {
    ($($ty:ty: $min:expr, |$v:ident, $w:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Field for $ty {
            fn min_bytes() -> usize {
                $min
            }
            fn put(&self, $w: &mut Writer) {
                let $v = self;
                $put;
            }
            fn get($r: &mut Reader<'_>, context: &'static str) -> Result<Self, FieldError> {
                $get.ctx(context)
            }
        }
    )*};
}

leaf_fields! {
    u8: 1, |v, w| w.u8(*v), |r| r.u8();
    u32: 4, |v, w| w.u32(*v), |r| r.u32();
    u64: 8, |v, w| w.u64(*v), |r| r.u64();
    bool: 1, |v, w| w.bool(*v), |r| r.bool();
    NodeId: 4, |v, w| w.u32(v.0), |r| r.u32().map(NodeId);
    Tick: 4, |v, w| w.u32(v.0), |r| r.u32().map(Tick);
    String: 4, |v, w| w.str(v), |r| r.str().map(str::to_owned);
    Vec<u8>: 4, |v, w| w.bytes(v), |r| r.bytes().map(<[u8]>::to_vec);
    Payload: 4, |v, w| w.bytes(v), |r| r.bytes().map(Payload::from);
    TimeFn: 1, |v, w| v.encode(w), |r| TimeFn::decode(r);
}

impl Item for u32 {}
impl Item for NodeId {}
impl Item for String {}

/// A `usize` travels as a `u64`.
impl Field for usize {
    fn min_bytes() -> usize {
        8
    }
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, FieldError> {
        let v = r.u64().ctx(context)?;
        usize::try_from(v).map_err(|_| invalid(context, format!("{v} does not fit in usize")))
    }
}

/// An `f64` travels by its raw bit pattern, and every pattern reads back,
/// NaN payloads included, so a decoded value re-encodes to the same bytes.
/// A schema whose reals must be finite says so in its `check`.
impl Field for f64 {
    fn min_bytes() -> usize {
        8
    }
    fn put(&self, w: &mut Writer) {
        w.u64(self.to_bits());
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, FieldError> {
        r.u64().map(f64::from_bits).ctx(context)
    }
}
impl Item for f64 {}

/// A graph travels as its [`Graph::to_bytes`] image, length-prefixed, and
/// is re-validated by [`Graph::from_bytes`] on the way in.
impl Field for Graph {
    fn min_bytes() -> usize {
        4
    }
    fn put(&self, w: &mut Writer) {
        w.bytes(&self.to_bytes());
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, FieldError> {
        let bytes = r.bytes().ctx(context)?;
        Graph::from_bytes(bytes).map_err(|e| invalid(context, e.to_string()))
    }
}

/// Appends a borrowed list exactly as the `Vec<T>` [`Field`] writes it: a
/// `u32` count, then its elements.
pub fn put_list<T: Item>(items: &[T], w: &mut Writer) {
    w.u32(items.len() as u32);
    for item in items {
        item.put(w);
    }
}

/// A list travels as a `u32` count, checked against the bytes left before
/// anything is allocated, then its elements.
impl<T: Item> Field for Vec<T> {
    fn min_bytes() -> usize {
        4
    }
    fn put(&self, w: &mut Writer) {
        put_list(self, w);
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, FieldError> {
        let n = checked_count(r, context, T::min_bytes())?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r, context)?);
        }
        Ok(items)
    }
}
impl<T: Item> Item for Vec<T> {}

/// An option travels as a `bool` tag, then the value when it is set.
impl<T: Field> Field for Option<T> {
    fn min_bytes() -> usize {
        1
    }
    fn put(&self, w: &mut Writer) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, FieldError> {
        match r.u8().ctx(context)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r, context)?)),
            tag => Err(invalid(context, format!("option tag {tag}"))),
        }
    }
}
impl<T: Field> Item for Option<T> {}

/// A pair travels as its two fields in order.
impl<A: Field, B: Field> Field for (A, B) {
    fn min_bytes() -> usize {
        A::min_bytes() + B::min_bytes()
    }
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, FieldError> {
        Ok((A::get(r, context)?, B::get(r, context)?))
    }
}
impl<A: Field, B: Field> Item for (A, B) {}

/// Declares the wire schema of an existing struct or enum once, and
/// generates both its encoder and its decoder from that one list.
///
/// A struct lists its fields in wire order, each with the context label
/// its decode errors carry; each field's type must implement [`Field`].
/// A field without a label (`name` for `name: "label"`) reports its errors
/// in the context its container is read in, so a leaf value nested in a
/// certificate names the certificate's field. The decoder builds the value
/// from the list, so a field left out of it does not compile.
/// `[N => "label"]` after the name leads the body with the `u32` `N`,
/// which the decoder requires to read back unchanged (a counter table's
/// length tag). `check(f)` after the fields runs `f(&value)` inside the
/// same decode, after every field is read: the place for cross-field
/// checks, which return [`FieldError`]s built with [`invalid`]. The struct
/// gets [`Field`] and [`Item`].
///
/// An enum lists every variant with its tag byte: unit variants, one-field
/// tuple variants (`Name(binding: "label")` or `Name(binding)`), or struct
/// variants with labeled or unlabeled fields. It gets [`Tagged`], and
/// [`Field`] and [`Item`], which write the tag byte before the body; an
/// unknown tag is [`FieldError::Invalid`] "unknown tag N" in the context
/// the enum is read in.
///
/// ```
/// use flm_sim::wire::{Field, Reader, Tagged, Writer};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, label: String }
/// flm_sim::wire_schema! {
///     struct Point { x: "point.x", label: "point.label" }
/// }
///
/// #[derive(Debug, PartialEq)]
/// enum Shape { Empty, Dot(Point), Span { from: Point, to: Option<Point> } }
/// flm_sim::wire_schema! {
///     enum Shape {
///         Empty = 0,
///         Dot(at: "dot") = 1,
///         Span { from: "span.from", to: "span.to" } = 2,
///     }
/// }
///
/// let shape = Shape::Span { from: Point { x: 1, label: "a".into() }, to: None };
/// let mut w = Writer::new();
/// shape.put(&mut w);
/// let bytes = w.finish();
/// assert_eq!(Shape::get(&mut Reader::new(&bytes), "shape").unwrap(), shape);
/// assert_eq!(shape.tag(), 2);
/// ```
#[macro_export]
macro_rules! wire_schema {
    (
        struct $ty:ident $([$count:expr => $count_context:expr])? {
            $($field:ident $(: $context:expr)?),* $(,)?
        }
        $(check($check:expr))?
    ) => {
        impl $crate::wire::Field for $ty {
            fn min_bytes() -> usize {
                0 $(+ $crate::wire::min_bytes_of(|v: &Self| &v.$field))*
            }
            fn put(&self, w: &mut $crate::wire::Writer) {
                $(w.u32($count);)?
                $($crate::wire::Field::put(&self.$field, w);)*
            }
            #[allow(unused_variables)]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
                context: &'static str,
            ) -> Result<Self, $crate::wire::FieldError> {
                $($crate::wire::expect_count(r, $count, $count_context)?;)?
                let value = $ty {
                    $($field: $crate::wire::Field::get(
                        r,
                        $crate::wire_context!(context $(, $context)?),
                    )?,)*
                };
                $(($check)(&value)?;)?
                Ok(value)
            }
        }
        impl $crate::wire::Item for $ty {}
    };
    (
        enum $ty:ident {
            $($variant:ident
                $(($inner:ident $(: $inner_context:expr)?))?
                $({$($field:ident $(: $context:expr)?),* $(,)?})?
                = $tag:expr),* $(,)?
        }
    ) => {
        impl $crate::wire::Tagged for $ty {
            fn tag(&self) -> u8 {
                match self {
                    $($ty::$variant { .. } => $tag,)*
                }
            }
            #[allow(unused_variables)]
            fn put_body(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $($ty::$variant $(($inner))? $({$($field),*})? => {
                        $($crate::wire::Field::put($inner, w);)?
                        $($($crate::wire::Field::put($field, w);)*)?
                    })*
                }
            }
            #[allow(unused_variables)]
            fn get_body(
                tag: u8,
                r: &mut $crate::wire::Reader<'_>,
                context: &'static str,
            ) -> Result<Option<Self>, $crate::wire::FieldError> {
                $(if tag == $tag {
                    return Ok(Some($ty::$variant
                        $(($crate::wire::Field::get(
                            r,
                            $crate::wire_context!(context $(, $inner_context)?),
                        )?))?
                        $({$($field: $crate::wire::Field::get(
                            r,
                            $crate::wire_context!(context $(, $context)?),
                        )?),*})?));
                })*
                Ok(None)
            }
        }
        impl $crate::wire::Field for $ty {
            fn min_bytes() -> usize {
                1
            }
            fn put(&self, w: &mut $crate::wire::Writer) {
                w.u8($crate::wire::Tagged::tag(self));
                $crate::wire::Tagged::put_body(self, w);
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
                context: &'static str,
            ) -> Result<Self, $crate::wire::FieldError> {
                let tag = $crate::wire::Context::ctx(r.u8(), context)?;
                <Self as $crate::wire::Tagged>::get_body(tag, r, context)?.ok_or_else(|| {
                    $crate::wire::invalid(context, format!("unknown tag {tag}"))
                })
            }
        }
        impl $crate::wire::Item for $ty {}
    };
}

/// A field's own context label when the schema names one, else the
/// context its container was read in; [`wire_schema!`]'s optional labels.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_context {
    ($inherited:ident) => {
        $inherited
    };
    ($inherited:ident, $own:expr) => {
        $own
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.u8(0xAB)
            .u32(123_456)
            .u64(u64::MAX - 1)
            .bool(false)
            .f64(-2.5)
            .bytes(b"hello");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = Reader::new(&[0, 0, 0]);
        assert_eq!(r.u32(), Err(DecodeError));
        let mut r = Reader::new(&[0, 0, 0, 9, 1]);
        assert_eq!(r.bytes(), Err(DecodeError));
    }

    #[test]
    fn invalid_tags_error() {
        let mut r = Reader::new(&[7]);
        assert_eq!(r.bool(), Err(DecodeError));
    }

    #[test]
    fn str_roundtrip_and_invalid_utf8() {
        let mut w = Writer::new();
        w.str("κ-connectivity").str("");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap(), "κ-connectivity");
        assert_eq!(r.str().unwrap(), "");
        assert!(r.is_empty());
        // A length-prefixed byte string that is not UTF-8 must error.
        let mut r = Reader::new(&[0, 0, 0, 2, 0xFF, 0xFE]);
        assert_eq!(r.str(), Err(DecodeError));
    }

    #[test]
    fn remaining_tracks_consumption() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5]);
        assert_eq!(r.remaining(), 5);
        r.u8().unwrap();
        assert_eq!(r.remaining(), 4);
        r.u32().unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn encoding_is_canonical() {
        let enc = |x: u32| {
            let mut w = Writer::new();
            w.u32(x);
            w.finish()
        };
        assert_eq!(enc(5), enc(5));
        assert_ne!(enc(5), enc(6));
    }

    #[derive(Debug, PartialEq)]
    struct Entry {
        id: u32,
        tags: Vec<u32>,
        note: Option<String>,
    }
    crate::wire_schema! {
        struct Entry { id: "entry.id", tags: "entry.tags", note: "entry.note" }
        check(|e: &Entry| {
            if e.tags.contains(&e.id) {
                return Err(invalid("entry.tags", "lists its own id"));
            }
            Ok(())
        })
    }

    #[derive(Debug, PartialEq)]
    struct Table {
        hits: u64,
    }
    crate::wire_schema! {
        struct Table [1 => "table.count"] { hits: "table.hits" }
    }

    #[derive(Debug, PartialEq)]
    enum Message {
        Empty,
        One(Entry),
        Two { first: Entry, second: Entry },
    }
    crate::wire_schema! {
        enum Message {
            Empty = 7,
            One(entry: "one") = 8,
            Two { first: "two.first", second: "two.second" } = 9,
        }
    }

    /// Unlabeled fields: errors name the context the pair is read in.
    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u32,
        b: Option<u32>,
    }
    crate::wire_schema! {
        struct Pair { a, b }
    }

    fn entry(id: u32) -> Entry {
        Entry {
            id,
            tags: vec![id + 1, id + 2],
            note: id.is_multiple_of(2).then(|| format!("n{id}")),
        }
    }

    fn bytes_of(value: &impl Field) -> Vec<u8> {
        let mut w = Writer::new();
        value.put(&mut w);
        w.finish()
    }

    fn decode<T: Field>(bytes: &[u8]) -> Result<T, FieldError> {
        T::get(&mut Reader::new(bytes), "top")
    }

    #[test]
    fn schemas_write_fields_in_declared_order() {
        let mut w = Writer::new();
        w.u32(4).u32(2).u32(5).u32(6).bool(true).str("n4");
        assert_eq!(bytes_of(&entry(4)), w.finish());
        let table = Table { hits: 3 };
        assert_eq!(bytes_of(&table), [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3]);
        for msg in [
            Message::Empty,
            Message::One(entry(1)),
            Message::Two {
                first: entry(2),
                second: entry(3),
            },
        ] {
            let bytes = bytes_of(&msg);
            assert_eq!(bytes[0], msg.tag());
            assert_eq!(decode::<Message>(&bytes).unwrap(), msg);
            let mut body = Writer::new();
            msg.put_body(&mut body);
            let body = body.finish();
            assert_eq!(body, bytes[1..]);
            let back = Message::get_body(msg.tag(), &mut Reader::new(&body), "msg").unwrap();
            assert_eq!(back, Some(msg));
        }
        assert_eq!(Message::get_body(3, &mut Reader::new(&[]), "msg"), Ok(None));
    }

    #[test]
    fn decode_errors_name_their_field() {
        let bytes = bytes_of(&entry(4));
        let corrupt = |context| Err(FieldError::Corrupt { context });
        assert_eq!(decode::<Entry>(&bytes[..2]), corrupt("entry.id"));
        assert_eq!(
            decode::<Entry>(&bytes[..bytes.len() - 1]),
            corrupt("entry.note")
        );
        // A count the remaining bytes cannot hold is refused before any
        // allocation.
        let mut forged = bytes.clone();
        forged[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode::<Entry>(&forged),
            Err(FieldError::Invalid {
                context: "entry.tags",
                ..
            })
        ));
        // An option tag other than 0 or 1.
        let mut forged = bytes.clone();
        forged[16] = 2;
        assert_eq!(
            decode::<Entry>(&forged),
            Err(invalid("entry.note", "option tag 2"))
        );
        // The check runs after the reads, in the same decode.
        let mut looped = entry(4);
        looped.tags.push(4);
        assert_eq!(
            decode::<Entry>(&bytes_of(&looped)),
            Err(invalid("entry.tags", "lists its own id"))
        );
        // A counter table of another length, and an unknown enum tag.
        assert_eq!(
            decode::<Table>(&[0, 0, 0, 2]),
            Err(invalid(
                "table.count",
                "counter table has 2 entries, this build speaks 1"
            ))
        );
        assert_eq!(
            decode::<Message>(&[3]),
            Err(invalid("top", "unknown tag 3"))
        );
        // Unlabeled fields inherit the context they are read in.
        assert_eq!(
            decode::<Pair>(&[0, 0, 0, 1]),
            Err(FieldError::Corrupt { context: "top" })
        );
        assert_eq!(
            decode::<Pair>(&[0, 0, 0, 1, 2]),
            Err(invalid("top", "option tag 2"))
        );
    }
}
