//! Discrete simulation time.

use std::fmt;

/// A discrete instant of simulated time.
///
/// The simulator advances in unit ticks starting at 0. Every message sent at
/// tick `t` is delivered at tick `t + 1`, so one tick is exactly the paper's
/// minimum transmission delay δ from the Bounded-Delay Locality axiom.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u32);

impl Tick {
    /// The tick's position when indexing per-tick traces.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The next tick.
    #[inline]
    pub fn next(self) -> Tick {
        Tick(self.0 + 1)
    }
}

impl fmt::Debug for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u32> for Tick {
    fn from(v: u32) -> Self {
        Tick(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_next() {
        assert!(Tick(0) < Tick(1));
        assert_eq!(Tick(3).next(), Tick(4));
        assert_eq!(Tick(7).index(), 7);
        assert_eq!(Tick::from(2u32), Tick(2));
        assert_eq!(format!("{} {:?}", Tick(5), Tick(5)), "t5 t5");
    }
}
