//! Deterministic splittable randomness for workload generation.
//!
//! BOTS drives its unbalanced workloads from input files (Health's
//! village descriptions, Align's protein file) or cryptographic hashes
//! (UTS uses SHA-1 to derive child seeds). We substitute SplitMix64 — a
//! well-mixed, splittable, constant-time generator — which preserves the
//! property that matters for these benchmarks: child seeds look
//! independent and are identical on every run.

/// One SplitMix64 step: returns the next value and advances the state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash of a value (used to derive child identities in UTS —
/// the SHA-1 substitution).
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// A tiny deterministic RNG for workload generation.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed ^ 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift bounded sampling (Lemire); bias is negligible
        // for workload generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Derives an independent child RNG (splitting).
    #[inline]
    pub fn split(&mut self, tag: u64) -> Rng {
        Rng::new(self.next_u64() ^ mix64(tag))
    }
}

/// Order-independent digest accumulator for verifying parallel results:
/// commutative (wrapping add of mixed terms) so any execution order of
/// the same multiset of contributions produces the same digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// Absorbs one value.
    #[inline]
    pub fn absorb(&mut self, v: u64) {
        self.0 = self.0.wrapping_add(mix64(v));
    }

    /// Absorbs a float by its bit pattern rounded to 1e-6 (FFT results
    /// differ in the last ulps between traversal orders).
    #[inline]
    pub fn absorb_f64(&mut self, v: f64) {
        self.absorb(((v * 1e6).round()) as i64 as u64);
    }

    /// Final digest value.
    #[inline]
    pub fn value(&self) -> u64 {
        mix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn unit_f64_in_range_and_varied() {
        let mut r = Rng::new(9);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
            lo |= v < 0.5;
            hi |= v >= 0.5;
        }
        assert!(lo && hi, "suspiciously skewed");
    }

    #[test]
    fn split_streams_differ() {
        let mut root = Rng::new(1);
        let mut a = root.split(0);
        let mut b = root.split(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn digest_is_order_independent() {
        let mut d1 = Digest::default();
        let mut d2 = Digest::default();
        for v in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            d1.absorb(v);
        }
        for v in [6u64, 2, 9, 5, 1, 4, 1, 3] {
            d2.absorb(v);
        }
        assert_eq!(d1.value(), d2.value());
        d2.absorb(0);
        assert_ne!(d1.value(), d2.value());
    }
}
