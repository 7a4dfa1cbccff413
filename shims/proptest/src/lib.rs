//! Offline shim for `proptest`.
//!
//! Supports the subset the workspace's property tests use: the `proptest!`
//! macro, `prop_assert*`, `any::<T>()`, range and tuple strategies,
//! `collection::vec`, `option::of`, and `prop_filter`. Generation is seeded
//! from the test name, so every run of a given test sees the same inputs.
//! There is no shrinking: a failing case reports its case index and seed
//! instead of a minimized value.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    use super::fmt;

    /// Why a test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case was rejected (e.g. a filter precondition failed).
        Reject(String),
        /// The property was falsified.
        Fail(String),
    }

    impl TestCaseError {
        /// A falsified-property error.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejected-case error.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Reject(r) => write!(f, "case rejected: {r}"),
                TestCaseError::Fail(r) => write!(f, "property falsified: {r}"),
            }
        }
    }

    /// Runner configuration; only `cases` is honored by the shim.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic splitmix64 stream seeded from the test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from raw state.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// Drives one test's cases. Created by the `proptest!` expansion.
    pub struct TestRunner {
        config: Config,
        rng: TestRng,
        seed: u64,
    }

    impl TestRunner {
        /// New runner; the RNG stream is a pure function of `name`.
        pub fn new(config: Config, name: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x1000_0000_01b3);
            }
            TestRunner { config, rng: TestRng::from_seed(seed), seed }
        }

        /// Cases to run.
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        /// Seed derived from the test name (for failure reports).
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// The runner's RNG.
        pub fn rng(&mut self) -> &mut TestRng {
            &mut self.rng
        }
    }
}

use test_runner::TestRng;

/// A generator of values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Keep only values satisfying `pred`; regenerates on mismatch.
    fn prop_filter<F>(self, reason: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, reason: reason.into(), pred }
    }
}

// A strategy behind a reference is still a strategy; lets helpers pass
// `&strategy` without consuming it.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter({:?}) rejected 10000 consecutive values", self.reason);
    }
}

/// Types with a canonical "anything" strategy; see [`any`].
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                // Bias toward small magnitudes half the time so sums and
                // lengths exercise interesting values, not just huge ones.
                let raw = rng.next_u64();
                if raw & 1 == 0 {
                    (raw >> 1) as $t
                } else {
                    ((raw >> 1) % 257) as $t
                }
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Full bit patterns: includes NaN and infinities, which tests filter.
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy generating any value of `A`; see [`any`].
pub struct Any<A> {
    _marker: PhantomData<A>,
}

/// The "anything" strategy for `A`.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any { _marker: PhantomData }
}

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;
    fn generate(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                (self.start as f64 + unit * (self.end as f64 - self.start as f64)) as $t
            }
        }
    )*};
}

impl_strategy_float_range!(f32, f64);

// String strategies are written as regex literals (`s in ".{0,32}"`). The
// shim understands the repetition forms the test suite uses — `.{m,n}` and
// `.*` over printable ASCII — and treats any other pattern as a literal.
impl Strategy for str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let printable = |rng: &mut TestRng| (0x20 + rng.below(0x5f) as u8) as char;
        let bounds = if self == ".*" {
            Some((0usize, 32usize))
        } else {
            self.strip_prefix(".{")
                .and_then(|rest| rest.strip_suffix('}'))
                .and_then(|body| body.split_once(','))
                .and_then(|(lo, hi)| Some((lo.parse().ok()?, hi.parse().ok()?)))
        };
        match bounds {
            Some((lo, hi)) => {
                let n = lo + rng.below((hi - lo + 1) as u64) as usize;
                (0..n).map(|_| printable(rng)).collect()
            }
            None => self.to_string(),
        }
    }
}

macro_rules! impl_strategy_tuple {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_strategy_tuple!(A.0);
impl_strategy_tuple!(A.0, B.1);
impl_strategy_tuple!(A.0, B.1, C.2);
impl_strategy_tuple!(A.0, B.1, C.2, D.3);
impl_strategy_tuple!(A.0, B.1, C.2, D.3, E.4);
impl_strategy_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive-exclusive bounds on a generated collection's length. The
    /// concrete `From` impls pin untyped literals in `vec(_, 0..300)` to
    /// `usize`, matching the real crate's `Into<SizeRange>` parameter.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy for `Vec<T>`; see [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// Vectors whose length is drawn from `len` and whose elements are drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, len: len.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.lo + rng.below((self.len.hi - self.len.lo) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for `Option<T>`; see [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `None` a quarter of the time, otherwise `Some` of the inner strategy.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy};
}

/// Fail the current case unless `cond` holds. Must run inside a function
/// returning `Result<(), TestCaseError>` (which `proptest!` bodies do).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} == {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that generates inputs and runs the body per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(
            (<$crate::test_runner::Config as ::std::default::Default>::default());
            $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
            for case in 0..runner.cases() {
                $(
                    let $pat = $crate::Strategy::generate(&($strat), runner.rng());
                )+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match outcome {
                    Ok(()) => {}
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err(e) => panic!(
                        "{} failed at case {}/{} (name seed {:#x}): {}",
                        stringify!($name),
                        case,
                        runner.cases(),
                        runner.seed(),
                        e
                    ),
                }
            }
        }
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in -5i64..5, y in 1usize..=8) {
            prop_assert!((-5..5).contains(&x));
            prop_assert!((1..=8).contains(&y));
        }

        #[test]
        fn tuples_and_vecs_compose(
            (a, b) in (0u32..10, 0u32..10),
            xs in crate::collection::vec(any::<i64>(), 0..50),
        ) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(xs.len() < 50);
        }

        #[test]
        fn filter_holds(x in any::<f32>().prop_filter("finite", |v| v.is_finite())) {
            prop_assert!(x.is_finite());
        }

        #[test]
        fn option_of_produces_both(mut seen_none in 0u8..1, v in crate::option::of(0u8..200)) {
            // Single-case smoke: just type-check and bound-check.
            seen_none += 0;
            let _ = seen_none;
            if let Some(x) = v {
                prop_assert!(x < 200);
            }
        }
    }

    #[test]
    fn same_name_means_same_stream() {
        use crate::test_runner::{Config, TestRunner};
        let mut a = TestRunner::new(Config::default(), "t");
        let mut b = TestRunner::new(Config::default(), "t");
        for _ in 0..32 {
            assert_eq!(a.rng().next_u64(), b.rng().next_u64());
        }
    }

    #[test]
    fn question_mark_and_helpers_work() {
        use crate::test_runner::TestCaseError;
        fn helper(ok: bool) -> Result<(), TestCaseError> {
            prop_assert!(ok, "helper saw false");
            Ok(())
        }
        assert!(helper(true).is_ok());
        assert!(matches!(helper(false), Err(TestCaseError::Fail(_))));
    }
}
