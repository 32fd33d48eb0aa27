//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace uses: the
//! [`proptest!`] macro, range / tuple / collection / option / string-pattern
//! strategies, `prop_map` / `prop_flat_map` combinators, and the
//! `prop_assert*` family. Differences from the real crate:
//!
//! * **No shrinking** — a failing case reports its inputs verbatim.
//! * **Deterministic seeding** — the RNG is seeded from the test's module
//!   path, so failures reproduce without a persistence file. Set
//!   `PROPTEST_CASES` to change the case count globally.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

pub mod strategy;
pub use strategy::Strategy;

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An explicit `prop_assert*` failure.
    Fail(String),
    /// A `prop_assume!` rejection: the case is discarded, not failed.
    Reject,
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject => write!(f, "assumption rejected"),
        }
    }
}

/// Runner configuration; only `cases` is interpreted.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// Effective case count: the env var `PROPTEST_CASES` wins, then the
    /// configured value.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default is 256; 64 keeps the CPU-heavy ML properties
        // tractable in CI while PROPTEST_CASES can restore full depth.
        ProptestConfig { cases: 64 }
    }
}

/// The source of randomness handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic RNG for a named test.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    pub fn uniform(&mut self) -> f64 {
        self.0.random::<f64>()
    }

    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.0.random_range(0..n)
        }
    }

    pub fn in_range_f64(&mut self, r: Range<f64>) -> f64 {
        self.0.random_range(r)
    }
}

/// Drives one `proptest!`-declared property. Called by the macro expansion;
/// not part of the public proptest API.
pub fn run_property<F>(name: &str, config: &ProptestConfig, mut one_case: F)
where
    F: FnMut(&mut TestRng) -> Result<Option<String>, String>,
{
    let cases = config.effective_cases();
    let mut rng = TestRng::for_test(name);
    let mut executed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = cases.saturating_mul(16).max(256);
    while executed < cases {
        match one_case(&mut rng) {
            Ok(None) => executed += 1,
            Ok(Some(_reject)) => {
                rejected += 1;
                if rejected > max_rejects {
                    // Matches proptest's spirit: too many rejects is a
                    // property bug worth surfacing, not an infinite loop.
                    panic!(
                        "{name}: gave up after {rejected} rejected cases \
                         ({executed}/{cases} executed)"
                    );
                }
            }
            Err(msg) => {
                panic!("{name}: property failed at case {executed}/{cases}\n{msg}");
            }
        }
    }
}

/// `any::<T>()` strategy entry point.
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

/// The `prop::` namespace (`prop::collection::vec`, `prop::option::of`,
/// `prop::bool::ANY`).
pub mod prop {
    pub mod collection {
        pub use crate::strategy::vec;
    }
    pub mod option {
        pub use crate::strategy::option_of as of;
    }
    pub mod bool {
        pub const ANY: crate::strategy::AnyBool = crate::strategy::AnyBool;
    }
}

/// Everything a proptest file conventionally imports.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            )));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}` ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}` ({}:{}): {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(),
                format!($($fmt)+), l, r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}` ({}:{})\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                l
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            // Evaluate each strategy expression once, outside the case loop.
            $(let $arg = $strat;)+
            let __strategies = ($(&$arg,)+);
            $crate::run_property(
                concat!(module_path!(), "::", stringify!($name)),
                &__config,
                |__rng| {
                    let ($($arg,)+) = {
                        let ($($arg,)+) = __strategies;
                        ($($crate::Strategy::new_value($arg, __rng),)+)
                    };
                    let __inputs = format!(
                        concat!($(stringify!($arg), " = {:?}\n",)+),
                        $(&$arg),+
                    );
                    let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match __outcome {
                        Ok(()) => Ok(None),
                        Err($crate::TestCaseError::Reject) => Ok(Some(String::new())),
                        Err($crate::TestCaseError::Fail(msg)) => {
                            Err(format!("{msg}\ninputs:\n{__inputs}"))
                        }
                    }
                },
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}
