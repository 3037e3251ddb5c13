//! Offline shim for `proptest`: deterministic random testing without
//! shrinking.
//!
//! Covers the subset this workspace uses: range strategies, string-pattern
//! strategies (a mini regex sampler), tuples, `collection::vec`, `any`,
//! `prop_map`, `proptest!`/`prop_assert!`/`prop_assert_eq!`, and
//! `ProptestConfig::with_cases`. Failing cases report the error but are
//! not shrunk.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

pub mod pattern;

/// The RNG handed to strategies; deterministic per test function.
pub type TestRng = StdRng;

/// Error raised by `prop_assert!`-style macros inside a test case.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Runner configuration; only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Drives the case loop; panics on the first failing case (no shrinking).
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
}

impl TestRunner {
    /// New runner with a fixed seed so failures reproduce run-to-run.
    pub fn new(config: ProptestConfig) -> Self {
        TestRunner { config, rng: TestRng::seed_from_u64(0x9E37_79B9_7F4A_7C15) }
    }

    /// Run the property for the configured number of cases.
    pub fn run<F>(&mut self, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        for i in 0..self.config.cases {
            if let Err(e) = case(&mut self.rng) {
                panic!("proptest case {} of {} failed: {e}", i + 1, self.config.cases);
            }
        }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform produced values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! numeric_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

numeric_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// String literals are regex-subset patterns (see [`pattern`]).
impl Strategy for &str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        pattern::Pattern::compile(self).sample(rng)
    }
}

macro_rules! tuple_strategies {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Full-domain strategies for `any::<T>()`.
pub trait Arbitrary: Sized {
    /// Strategy type covering the whole domain of `Self`.
    type Strategy: Strategy<Value = Self>;

    /// The full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = RangeInclusive<$t>;
            fn arbitrary() -> Self::Strategy {
                <$t>::MIN..=<$t>::MAX
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Coin-flip strategy backing `any::<bool>()`.
pub struct BoolStrategy;

impl Strategy for BoolStrategy {
    type Value = bool;

    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }
}

impl Arbitrary for bool {
    type Strategy = BoolStrategy;

    fn arbitrary() -> Self::Strategy {
        BoolStrategy
    }
}

/// The strategy producing any value of `A`.
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

/// Element-count bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange { lo: r.start, hi: r.end.saturating_sub(1) }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy: each element drawn from `element`, length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.hi <= self.size.lo {
                self.size.lo
            } else {
                rand::Rng::gen_range(rng, self.size.lo..=self.size.hi)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The glob import test modules use.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError,
    };
}

// ---------- macros ----------

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Fail the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {l:?}\n right: {r:?}"
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {l:?}\n right: {r:?}\n {}",
                format!($($fmt)+)
            )));
        }
    }};
}

/// Fail the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {l:?}"
            )));
        }
    }};
}

/// Define property tests; each `fn` becomes a function looping over
/// random cases and keeps exactly the attributes written on it — as in
/// real proptest, the `#[test]` that registers it is the caller's to
/// write.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::TestRunner::new($cfg);
            runner.run(|rng| {
                $(let $pat = $crate::Strategy::sample(&($strat), rng);)*
                #[allow(unused_mut)]
                let mut case = || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                };
                case()
            });
        }
        $crate::__proptest_fns!(($cfg); $($rest)*);
    };
    (($cfg:expr);) => {};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vecs_sample_in_bounds() {
        let mut runner = crate::TestRunner::new(ProptestConfig::with_cases(50));
        runner.run(|rng| {
            let x = Strategy::sample(&(3usize..9), rng);
            prop_assert!((3..9).contains(&x));
            let v = Strategy::sample(&crate::collection::vec(0i64..5, 2..6), rng);
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| (0..5).contains(&e)));
            Ok(())
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn macro_generates_cases(a in 0u32..100, s in "[ab]{2,4}", f in 0.0f64..=1.0) {
            prop_assert!(a < 100);
            prop_assert!((2..=4).contains(&s.len()));
            prop_assert!(s.chars().all(|c| c == 'a' || c == 'b'));
            prop_assert!((0.0..=1.0).contains(&f), "f was {}", f);
        }

        #[test]
        fn tuples_and_maps_compose(pairs in crate::collection::vec((0usize..10, "[xy]"), 0..8)) {
            let total = pairs.len();
            let mapped = crate::collection::vec(0usize..3, 1..4).prop_map(|v| v.len());
            prop_assert!(total < 8);
            let _ = mapped;
        }
    }
}
