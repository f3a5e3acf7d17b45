//! A tiny deterministic RNG (SplitMix64) for per-node randomness, and
//! [`Seedless`], the hasher of the maps that must not depend on a
//! per-process key.
//!
//! The simulator core draws from this dependency-free generator, and so
//! do the workload generators of the higher layers (the HTTP trace, the
//! per-node draws apps make through `NodeApi`): a run is bit-for-bit
//! reproducible from its seed.

use std::hash::{BuildHasher, Hasher};

/// SplitMix64 state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 output function: a bijection of `u64` whose every
/// output bit depends on every input bit.
#[inline]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        finalize(self.state)
    }

    /// Uniform integer in `0..bound` (`0` when `bound == 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponentially distributed sample with the given mean.
    pub(crate) fn next_exp(&mut self, mean: f64) -> f64 {
        let u = self.next_f64().max(1e-12);
        -mean * u.ln()
    }
}

/// A [`BuildHasher`] with no per-process key, for the maps that are
/// looked up but never iterated: PLAN-P state tables and the apps'
/// connection maps. A word at a time is folded in by a rotate, an xor
/// and a multiply; [`Hasher::finish`] runs the sum through the
/// SplitMix64 finalizer, so the top bits (hashbrown's control byte) and
/// the low bits (its bucket index) both depend on every input bit.
///
/// Unlike std's `RandomState` it costs a few multiplies rather than a
/// SipHash round per word, and a map's layout is the same in every
/// process. The price is that an adversary who knows the function can
/// pick colliding keys; the simulator's keys come from its own seeded
/// traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seedless;

impl BuildHasher for Seedless {
    type Hasher = SeedlessHasher;

    #[inline]
    fn build_hasher(&self) -> SeedlessHasher {
        // Any odd constant: from zero, a zero word would leave it zero.
        SeedlessHasher(0x243F_6A88_85A3_08D3)
    }
}

/// The [`Hasher`] of [`Seedless`].
#[derive(Debug, Clone, Copy)]
pub struct SeedlessHasher(u64);

impl Hasher for SeedlessHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn bounded_and_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mut r = SplitMix64::new(1);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn seedless_hash_is_a_function_of_the_words_alone() {
        let hash = |words: &[u64]| {
            let mut h = Seedless.build_hasher();
            words.iter().for_each(|&w| h.write_u64(w));
            h.finish()
        };
        // Fixed across processes and builds: the value is pinned.
        assert_eq!(hash(&[1, 2]), 2_611_466_706_963_675_965);
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
        assert_ne!(hash(&[0]), hash(&[0, 0]));
        // Bytes go in a word at a time, the tail zero-padded.
        let mut h = Seedless.build_hasher();
        h.write(b"0123456789");
        let mut tail = [0u8; 8];
        tail[..2].copy_from_slice(b"89");
        let words = [*b"01234567", tail].map(u64::from_le_bytes);
        assert_eq!(h.finish(), hash(&words));
    }
}
