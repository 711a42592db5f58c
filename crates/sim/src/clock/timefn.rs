//! Invertible increasing functions of time: hardware clocks, envelopes, and
//! the scaling maps `h = p⁻¹ ∘ q` of §7.

use std::fmt;

/// A monotonically increasing function of time, closed under composition,
/// inversion, and iteration.
///
/// Hardware clocks (`p`, `q`), envelope functions (`l`, `u`), and scaling
/// maps (`h`, `h^k`, `h^{-k}`) are all values of this type. Affine cases
/// evaluate in closed form; everything else falls back to monotone
/// bisection for inverses.
///
/// # Example
///
/// ```
/// use flm_sim::clock::TimeFn;
///
/// let p = TimeFn::identity();          // p(t) = t
/// let q = TimeFn::linear(2.0);         // q(t) = 2t
/// let h = p.inverse().compose(&q);     // h = p⁻¹∘q = 2t
/// assert_eq!(h.eval(3.0), 6.0);
/// assert_eq!(h.iterate(3).eval(1.0), 8.0);  // h³(1) = 8
/// assert!((h.inverse().eval(8.0) - 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq)]
pub enum TimeFn {
    /// `t ↦ rate·t + offset`, with `rate > 0`.
    Affine {
        /// The slope (must be positive).
        rate: f64,
        /// The intercept.
        offset: f64,
    },
    /// `t ↦ log₂(1 + t)` — increasing and invertible on `[0, ∞)`.
    Log2,
    /// `f.compose(g)`: `t ↦ f(g(t))`.
    Compose(Box<TimeFn>, Box<TimeFn>),
    /// The inverse of an increasing function.
    Inverse(Box<TimeFn>),
}

impl TimeFn {
    /// The identity `t ↦ t`.
    pub fn identity() -> TimeFn {
        TimeFn::Affine {
            rate: 1.0,
            offset: 0.0,
        }
    }

    /// The linear clock `t ↦ rate·t`.
    ///
    /// # Panics
    ///
    /// Panics if `rate ≤ 0`.
    pub fn linear(rate: f64) -> TimeFn {
        TimeFn::affine(rate, 0.0)
    }

    /// The affine clock `t ↦ rate·t + offset`.
    ///
    /// # Panics
    ///
    /// Panics if `rate ≤ 0` — clocks must increase.
    pub fn affine(rate: f64, offset: f64) -> TimeFn {
        assert!(rate > 0.0, "clock rate must be positive, got {rate}");
        TimeFn::Affine { rate, offset }
    }

    /// Maximum `Compose`/`Inverse` nesting depth [`TimeFn::decode`] accepts.
    ///
    /// Refuter-built functions are shallow (a handful of compositions); the
    /// cap exists so a hostile certificate cannot make the decoder recurse
    /// unboundedly. Encoding has no cap — anything encodable in practice is
    /// far below it.
    pub const MAX_DECODE_DEPTH: u32 = 64;

    /// Appends this function to a wire writer: a tag byte per constructor
    /// (`0` affine, `1` log₂, `2` compose, `3` inverse), affine parameters
    /// as raw IEEE-754 bit patterns. Written by hand, not with
    /// [`crate::wire_schema!`], because its decode caps the recursion depth.
    pub fn encode(&self, w: &mut crate::wire::Writer) {
        match self {
            TimeFn::Affine { rate, offset } => {
                w.u8(0).u64(rate.to_bits()).u64(offset.to_bits());
            }
            TimeFn::Log2 => {
                w.u8(1);
            }
            TimeFn::Compose(f, g) => {
                w.u8(2);
                f.encode(w);
                g.encode(w);
            }
            TimeFn::Inverse(f) => {
                w.u8(3);
                f.encode(w);
            }
        }
    }

    /// Reads a function written by [`TimeFn::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::wire::DecodeError`] on truncation, an unknown tag,
    /// nesting deeper than [`TimeFn::MAX_DECODE_DEPTH`], or affine
    /// parameters that violate the type's invariant (the rate must be
    /// positive and finite, the offset finite) — hostile bytes must not
    /// construct a value [`TimeFn::affine`] would have panicked on.
    pub fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::DecodeError> {
        Self::decode_at_depth(r, 0)
    }

    fn decode_at_depth(
        r: &mut crate::wire::Reader<'_>,
        depth: u32,
    ) -> Result<Self, crate::wire::DecodeError> {
        if depth > Self::MAX_DECODE_DEPTH {
            return Err(crate::wire::DecodeError);
        }
        match r.u8()? {
            0 => {
                let rate = f64::from_bits(r.u64()?);
                let offset = f64::from_bits(r.u64()?);
                if !(rate.is_finite() && rate > 0.0 && offset.is_finite()) {
                    return Err(crate::wire::DecodeError);
                }
                Ok(TimeFn::Affine { rate, offset })
            }
            1 => Ok(TimeFn::Log2),
            2 => {
                let f = Self::decode_at_depth(r, depth + 1)?;
                let g = Self::decode_at_depth(r, depth + 1)?;
                Ok(TimeFn::Compose(Box::new(f), Box::new(g)))
            }
            3 => Ok(TimeFn::Inverse(Box::new(Self::decode_at_depth(
                r,
                depth + 1,
            )?))),
            _ => Err(crate::wire::DecodeError),
        }
    }

    /// Evaluates the function at `t`.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            TimeFn::Affine { rate, offset } => rate * t + offset,
            TimeFn::Log2 => (1.0 + t).log2(),
            TimeFn::Compose(f, g) => f.eval(g.eval(t)),
            TimeFn::Inverse(f) => f.eval_inverse(t),
        }
    }

    /// Evaluates the inverse at `v`: the `t` with `self(t) = v`.
    ///
    /// Affine and `Log2` invert in closed form; compositions invert
    /// recursively; anything else uses monotone bisection (the function is
    /// increasing by construction).
    pub fn eval_inverse(&self, v: f64) -> f64 {
        match self {
            TimeFn::Affine { rate, offset } => (v - offset) / rate,
            TimeFn::Log2 => v.exp2() - 1.0,
            TimeFn::Compose(f, g) => g.eval_inverse(f.eval_inverse(v)),
            TimeFn::Inverse(f) => f.eval(v),
        }
    }

    /// The composition `self ∘ inner`: `t ↦ self(inner(t))`. Affine pairs
    /// are folded in closed form so that long iterates stay exact.
    pub fn compose(&self, inner: &TimeFn) -> TimeFn {
        match (self, inner) {
            (TimeFn::Affine { rate: a, offset: b }, TimeFn::Affine { rate: c, offset: d }) => {
                TimeFn::Affine {
                    rate: a * c,
                    offset: a * d + b,
                }
            }
            _ => TimeFn::Compose(Box::new(self.clone()), Box::new(inner.clone())),
        }
    }

    /// The inverse function. Affine functions invert in closed form.
    pub fn inverse(&self) -> TimeFn {
        match self {
            TimeFn::Affine { rate, offset } => TimeFn::Affine {
                rate: 1.0 / rate,
                offset: -offset / rate,
            },
            TimeFn::Inverse(f) => (**f).clone(),
            _ => TimeFn::Inverse(Box::new(self.clone())),
        }
    }

    /// The `k`-fold iterate `self^k` (`k = 0` is the identity; negative
    /// iteration via `self.inverse().iterate(k)`).
    pub fn iterate(&self, k: usize) -> TimeFn {
        let mut acc = TimeFn::identity();
        for _ in 0..k {
            acc = self.compose(&acc);
        }
        acc
    }
}

impl fmt::Debug for TimeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeFn::Affine { rate, offset } => {
                if *offset == 0.0 {
                    write!(f, "{rate}·t")
                } else {
                    write!(f, "{rate}·t{offset:+}")
                }
            }
            TimeFn::Log2 => write!(f, "log2(1+t)"),
            TimeFn::Compose(a, b) => write!(f, "({a:?})∘({b:?})"),
            TimeFn::Inverse(a) => write!(f, "({a:?})⁻¹"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn affine_eval_and_inverse() {
        let f = TimeFn::affine(3.0, 1.0);
        assert_eq!(f.eval(2.0), 7.0);
        assert_eq!(f.eval_inverse(7.0), 2.0);
        assert!(close(f.inverse().eval(7.0), 2.0));
    }

    #[test]
    fn log2_round_trips() {
        let f = TimeFn::Log2;
        assert!(close(f.eval_inverse(f.eval(5.0)), 5.0));
        assert_eq!(f.eval(0.0), 0.0);
    }

    #[test]
    fn composition_folds_affine() {
        let f = TimeFn::affine(2.0, 1.0);
        let g = TimeFn::affine(3.0, -1.0);
        let fg = f.compose(&g);
        assert!(matches!(fg, TimeFn::Affine { .. }));
        assert_eq!(fg.eval(1.0), f.eval(g.eval(1.0)));
    }

    #[test]
    fn general_composition_and_inverse() {
        // f = log2 ∘ (2t): not affine; inverse must still round-trip.
        let f = TimeFn::Log2.compose(&TimeFn::linear(2.0));
        for t in [0.1, 1.0, 7.5] {
            assert!(close(f.eval_inverse(f.eval(t)), t));
            assert!(close(f.inverse().eval(f.eval(t)), t));
        }
    }

    #[test]
    fn iterate_matches_repeated_eval() {
        let h = TimeFn::linear(2.0);
        assert_eq!(h.iterate(0).eval(5.0), 5.0);
        assert_eq!(h.iterate(4).eval(1.0), 16.0);
        let hinv = h.inverse().iterate(4);
        assert_eq!(hinv.eval(16.0), 1.0);
    }

    #[test]
    fn scaling_map_h_from_p_q() {
        // p(t)=t, q(t)=rt ⇒ h = p⁻¹∘q = rt; h(t) ≥ t for r ≥ 1.
        let p = TimeFn::identity();
        let q = TimeFn::linear(1.5);
        let h = p.inverse().compose(&q);
        for t in [0.0, 1.0, 10.0] {
            assert!(h.eval(t) >= t);
        }
        // p(t)=t, q(t)=t+c ⇒ h(t) = t + c.
        let q2 = TimeFn::affine(1.0, 2.0);
        let h2 = p.inverse().compose(&q2);
        assert_eq!(h2.eval(3.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn nonpositive_rate_is_rejected() {
        TimeFn::linear(0.0);
    }
}
