//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so this shim
//! provides the exact API subset the workspace uses — `Rng::{random,
//! random_range}`, `SeedableRng::seed_from_u64`, `rngs::StdRng`,
//! `seq::{IndexedRandom, SliceRandom}` — backed by a xoshiro256++ generator
//! seeded via SplitMix64. The statistical quality is comparable to the real
//! `StdRng` for simulation purposes; the streams differ, which is fine
//! because every consumer seeds its own generator.

#![forbid(unsafe_code)]

use std::ops::Range;

/// A type that can be seeded from a `u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Uniformly samplable types for [`Rng::random`].
pub trait Standard: Sized {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges samplable by [`Rng::random_range`].
pub trait SampleRange<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty random_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + r) as $t
            }
        }
    )*};
}
int_range!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty random_range");
                let u: f64 = Standard::sample(rng);
                self.start + (u as $t) * (self.end - self.start)
            }
        }
    )*};
}
float_range!(f64, f32);

/// The user-facing generator trait.
pub trait Rng {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly random value of `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform sample from `range` (half-open).
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ generator, seeded through SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            // xoshiro's state must not be all zero; splitmix64 cannot
            // produce four consecutive zeros, but be defensive anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Random element selection on slices.
    pub trait IndexedRandom {
        type Output;
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Output>;
    }

    impl<T> IndexedRandom for [T] {
        type Output = T;
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = rng.random_range(0..self.len());
                Some(&self[i])
            }
        }
    }

    /// In-place Fisher–Yates shuffling of slices.
    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::{IndexedRandom, SliceRandom};
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let i: usize = rng.random_range(3..17);
            assert!((3..17).contains(&i));
            let x: f64 = rng.random_range(-2.0..3.5);
            assert!((-2.0..3.5).contains(&x));
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniformity_rough() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let heads = (0..n).filter(|_| rng.random::<bool>()).count();
        let frac = heads as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "bool frac {frac}");
    }

    #[test]
    fn seq_helpers() {
        let mut rng = StdRng::seed_from_u64(3);
        let pool = [1, 2, 3, 4, 5];
        for _ in 0..50 {
            assert!(pool.contains(pool.choose(&mut rng).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left 50 elements in order");
    }
}
