//! Value-generation strategies: the composable core of the proptest API.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;

use crate::TestRng;

/// A recipe for generating random values of one type.
pub trait Strategy {
    type Value: Debug;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Chains a dependent strategy off each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// [`Strategy::prop_flat_map`] adapter.
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn new_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

// --- primitive ranges ----------------------------------------------------

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + r) as $t
            }
        }
    )*};
}
int_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.uniform() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn new_value(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (rng.uniform() as f32) * (self.end - self.start)
    }
}

// --- any::<T>() ----------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Debug + Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u64, u32, u16, u8, usize, i64, i32, i16, i8, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    /// Full-domain floats via random bit patterns — includes NaNs,
    /// infinities, subnormals and both zeros, which is exactly what
    /// bit-exact codec properties need to see.
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::from_bits(rng.next_u64())
    }
}

/// The strategy returned by [`crate::any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(pub PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `prop::bool::ANY`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn new_value(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

// --- tuples --------------------------------------------------------------

macro_rules! tuple_strategy {
    ($(($($s:ident/$i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.new_value(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
}

// --- collections ---------------------------------------------------------

/// Inclusive-exclusive element-count range for [`vec()`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi: r.end }
    }
}

/// `prop::collection::vec(element, size)`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.lo + rng.below(self.size.hi - self.size.lo);
        (0..n).map(|_| self.element.new_value(rng)).collect()
    }
}

/// `prop::option::of(strategy)`: `None` a quarter of the time.
pub fn option_of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy { inner }
}

#[derive(Debug, Clone)]
pub struct OptionStrategy<S> {
    inner: S,
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
        if rng.below(4) == 0 {
            None
        } else {
            Some(self.inner.new_value(rng))
        }
    }
}

// --- string patterns -----------------------------------------------------

/// One parsed pattern atom: a set of candidate chars plus a repetition range.
#[derive(Debug, Clone)]
struct Atom {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

/// Parses the small regex subset proptest files conventionally use:
/// character classes with ranges (`[a-z ]`), literal characters, and `{m}` /
/// `{m,n}` quantifiers.
fn parse_pattern(pattern: &str) -> Vec<Atom> {
    let mut atoms = Vec::new();
    let mut it = pattern.chars().peekable();
    while let Some(c) = it.next() {
        let chars: Vec<char> = if c == '[' {
            let mut set = Vec::new();
            let mut prev: Option<char> = None;
            while let Some(d) = it.next() {
                match d {
                    ']' => break,
                    '-' if prev.is_some() => {
                        // range: prev already pushed; extend to the bound
                        let lo = prev.take().expect("checked");
                        if let Some(hi) = it.next() {
                            let mut ch = lo;
                            while ch < hi {
                                ch = (ch as u8 + 1) as char;
                                set.push(ch);
                            }
                        }
                    }
                    other => {
                        set.push(other);
                        prev = Some(other);
                    }
                }
            }
            set
        } else {
            vec![c]
        };
        let (min, max) = if it.peek() == Some(&'{') {
            it.next();
            let spec: String = it.by_ref().take_while(|&d| d != '}').collect();
            match spec.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse().expect("pattern quantifier"),
                    n.trim().parse().expect("pattern quantifier"),
                ),
                None => {
                    let m: usize = spec.trim().parse().expect("pattern quantifier");
                    (m, m)
                }
            }
        } else {
            (1, 1)
        };
        assert!(!chars.is_empty(), "empty char class in pattern {pattern:?}");
        atoms.push(Atom { chars, min, max });
    }
    atoms
}

impl Strategy for &'static str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let n = atom.min + rng.below(atom.max - atom.min + 1);
            for _ in 0..n {
                out.push(atom.chars[rng.below(atom.chars.len())]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_generation() {
        let mut rng = TestRng::for_test("pattern");
        for _ in 0..200 {
            let s = "[a-z]{1,6}".new_value(&mut rng);
            assert!((1..=6).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = "[a-z ]{0,20}".new_value(&mut rng);
            assert!(t.len() <= 20);
            assert!(t.chars().all(|c| c.is_ascii_lowercase() || c == ' '));
        }
    }

    #[test]
    fn vec_and_option_sizes() {
        let mut rng = TestRng::for_test("vec");
        let s = vec(0.0f64..1.0, 2..5);
        let mut saw_none = false;
        let o = option_of(0usize..10);
        for _ in 0..200 {
            let v = s.new_value(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            saw_none |= o.new_value(&mut rng).is_none();
        }
        assert!(saw_none, "option strategy never produced None");
        let fixed = vec(0usize..3, 3);
        assert_eq!(fixed.new_value(&mut rng).len(), 3);
    }

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::for_test("combinators");
        let mapped = (0usize..5).prop_map(|n| n * 2);
        for _ in 0..50 {
            assert_eq!(mapped.new_value(&mut rng) % 2, 0);
        }
        let flat = (1usize..4).prop_flat_map(|n| vec(0.0f64..1.0, n..n + 1));
        for _ in 0..50 {
            let v = flat.new_value(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
        let tup = (0usize..3, 0.0f64..1.0, AnyBool);
        let (a, b, _c) = tup.new_value(&mut rng);
        assert!(a < 3 && (0.0..1.0).contains(&b));
    }
}
