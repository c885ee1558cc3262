//! Vendored offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace ships a
//! small, deterministic property-testing harness implementing exactly the
//! proptest 1.x surface its tests use:
//!
//! - the [`proptest!`] macro (with `#![proptest_config(..)]`, multiple
//!   `#[test]` functions, `arg in strategy` bindings);
//! - [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] returning
//!   [`test_runner::TestCaseError`] so helpers can use `?`;
//! - strategies: `any::<T>()`, integer ranges, tuples, `Just`,
//!   `.prop_map(..)`, weighted [`prop_oneof!`], `collection::vec`,
//!   `sample::Index`;
//! - [`test_runner::Config`] (`ProptestConfig::with_cases`).
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** On failure the harness panics with the case number
//!   and a debug dump of every generated input; seeds are a pure function
//!   of (module path, test name, case index) so a failure replays exactly
//!   under `cargo test`.
//! - **New cases on request.** A test draws case indices
//!   `offset..offset + cases`, where the offset comes from the
//!   `PROPTEST_CASE_OFFSET` environment variable (default 0, the cases
//!   every plain run replays). A failure prints its absolute case index
//!   and the offset; setting the offset to that index replays it as the
//!   first case.
//! - **No persistence files and no entropy.** Generation is fully
//!   deterministic, which also keeps the whole workspace free of OS
//!   randomness (enforced by `xtask lint`).

pub mod test_runner {
    //! Case driving: configuration, RNG, and failure type.

    use std::fmt;

    /// Per-test configuration (stand-in for `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The case failed an assertion.
        Fail(String),
    }

    impl TestCaseError {
        /// A failed case with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            Self::Fail(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Fail(r) => write!(f, "{r}"),
            }
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Result of one test case body.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Environment variable that shifts the case indices a test draws.
    pub const CASE_OFFSET_VAR: &str = "PROPTEST_CASE_OFFSET";

    /// The first case index to draw: [`CASE_OFFSET_VAR`] if set, else 0.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set but is not an unsigned integer.
    pub fn case_offset() -> u64 {
        match std::env::var(CASE_OFFSET_VAR) {
            Ok(v) => v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{CASE_OFFSET_VAR}={v:?} is not an unsigned integer")),
            Err(_) => 0,
        }
    }

    /// Deterministic SplitMix64 generator driving all value generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator from a raw seed.
        pub fn new(seed: u64) -> Self {
            Self { state: seed }
        }

        /// The generator for one case of one test: a pure function of the
        /// test's identity and the case index, so failures replay exactly.
        pub fn for_case(module: &str, test: &str, case: u64) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in module.bytes().chain([0x1f]).chain(test.bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut rng = Self::new(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            rng.next_u64(); // decorrelate nearby seeds
            rng
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty bound");
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! Strategy trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    ///
    /// Unlike real proptest there is no value tree: `new_value` draws a
    /// fresh value directly (no shrinking).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A boxed, type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.new_value(rng)
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Weighted choice among strategies of one value type (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// A union of `(weight, strategy)` arms.
        ///
        /// # Panics
        ///
        /// Panics if the arms are empty or all weights are zero — a
        /// malformed `prop_oneof!`, which is a programming error.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Self { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.new_value(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights sum to total")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128 - self.start as u128) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128 - lo as u128 + 1) as u64;
                    lo + rng.below(span) as $t
                }
            }
        )+};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.new_value(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / a);
    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);
}

pub mod arbitrary {
    //! `any::<T>()` — canonical strategies per type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )+};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy produced by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod sample {
    //! Sampling helpers (`prop::sample`).

    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// A deferred index into a collection whose size is chosen later
    /// (stand-in for `proptest::sample::Index`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `[0, len)`.
        ///
        /// # Panics
        ///
        /// Panics if `len == 0`, matching real proptest.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Self(rng.next_u64())
        }
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Admissible element counts for a generated collection.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    /// Strategy generating `Vec`s of the element strategy's values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` strategy with the given element strategy and size range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min
                + if span > 0 {
                    rng.below(span) as usize
                } else {
                    0
                };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Alias so `prop::sample::Index`-style paths resolve.
    pub use crate as prop;
}

/// Defines `#[test]` functions that run a body over generated inputs.
///
/// Supported form (one or more functions, each with its own attributes):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_test(x in 0u8..10, v in collection::vec(any::<bool>(), 3)) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        $vis fn $name() {
            let config: $crate::test_runner::Config = $config;
            let offset = $crate::test_runner::case_offset();
            for case in 0..config.cases {
                let index = offset.wrapping_add(u64::from(case));
                let mut rng = $crate::test_runner::TestRng::for_case(
                    module_path!(),
                    stringify!($name),
                    index,
                );
                $(let $arg = $crate::strategy::Strategy::new_value(&($strategy), &mut rng);)+
                let inputs = format!(
                    concat!($("  ", stringify!($arg), " = {:?}\n"),+),
                    $(&$arg),+
                );
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                ));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err($crate::test_runner::TestCaseError::Fail(reason))) => panic!(
                        "proptest case {}/{} of `{}` failed (case index {}, {}={}): {}\ninputs:\n{}",
                        case + 1, config.cases, stringify!($name), index,
                        $crate::test_runner::CASE_OFFSET_VAR, offset, reason, inputs
                    ),
                    Err(payload) => {
                        eprintln!(
                            "proptest case {}/{} of `{}` panicked (case index {}, {}={}); inputs:\n{}",
                            case + 1, config.cases, stringify!($name), index,
                            $crate::test_runner::CASE_OFFSET_VAR, offset, inputs
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Weighted (or unweighted) choice among strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
}

/// Asserts inside a proptest body/helper, returning `Err(TestCaseError)`
/// instead of panicking so the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+), l, r
        );
    }};
}

/// Inequality assertion variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "{}\n  both: {:?}",
            format!($($fmt)+), l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..500 {
            let v = (5u8..9).new_value(&mut rng);
            assert!((5..9).contains(&v));
            let w = (0usize..4096).new_value(&mut rng);
            assert!(w < 4096);
        }
    }

    #[test]
    fn vec_respects_size_range() {
        let mut rng = TestRng::new(2);
        let s = crate::collection::vec(any::<u8>(), 1..100);
        for _ in 0..200 {
            let v = s.new_value(&mut rng);
            assert!((1..100).contains(&v.len()));
        }
        let exact = crate::collection::vec(any::<bool>(), 24usize);
        assert_eq!(exact.new_value(&mut rng).len(), 24);
    }

    #[test]
    fn oneof_weights_cover_all_arms() {
        let mut rng = TestRng::new(3);
        let s = prop_oneof![
            3 => Just(0u8),
            1 => Just(1u8),
            1 => 2u8..4,
        ];
        let mut seen = [false; 4];
        for _ in 0..400 {
            seen[s.new_value(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all arms reachable: {seen:?}");
    }

    #[test]
    fn index_projects_into_len() {
        let mut rng = TestRng::new(4);
        for _ in 0..100 {
            let i = any::<prop::sample::Index>().new_value(&mut rng);
            assert!(i.index(64) < 64);
            assert!(i.index(1) == 0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_case() {
        let s = crate::collection::vec((any::<u16>(), 0u8..7), 1..50);
        let a = s.new_value(&mut TestRng::for_case("m", "t", 9));
        let b = s.new_value(&mut TestRng::for_case("m", "t", 9));
        let c = s.new_value(&mut TestRng::for_case("m", "t", 10));
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct cases should differ (overwhelmingly)");
    }

    fn helper(x: u8) -> Result<(), TestCaseError> {
        prop_assert!(x < 200, "x too big: {}", x);
        prop_assert_eq!(x % 2, x & 1);
        prop_assert_ne!(x as u16 + 1, 0u16);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Doc comments before `#[test]` must parse.
        #[test]
        fn macro_end_to_end(x in 0u8..100, v in crate::collection::vec(any::<bool>(), 0..5)) {
            helper(x)?;
            prop_assert!(v.len() < 5);
        }

        #[test]
        fn second_fn_in_same_block(pair in (any::<u8>(), 1u16..9)) {
            prop_assert!(pair.1 >= 1 && pair.1 < 9);
        }
    }

    mod failing {
        use crate::prelude::*;
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            pub fn always_fails(x in 0u8..10) {
                prop_assert!(x > 250, "impossible");
            }
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_case_reports_inputs() {
        failing::always_fails();
    }

    mod replay {
        use crate::prelude::*;
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            pub fn fails_with_its_draw(x in any::<u64>()) {
                prop_assert!(false, "drew {}", x);
            }
        }
    }

    /// Set in the child process that runs [`replay_child`].
    const CHILD_VAR: &str = "PROPTEST_STANDIN_REPLAY_CHILD";

    /// Fails with `replay::fails_with_its_draw`'s first case when run as
    /// the child of [`run_replay_child`]; passes as a no-op otherwise.
    #[test]
    fn replay_child() {
        if std::env::var_os(CHILD_VAR).is_some() {
            replay::fails_with_its_draw();
        }
    }

    /// Runs [`replay_child`] in a child process of this test binary with
    /// the given case offset (unset for `None`) and returns its output.
    fn run_replay_child(offset: Option<&str>) -> String {
        let mut cmd = std::process::Command::new(std::env::current_exe().unwrap());
        cmd.args(["--exact", "tests::replay_child", "--test-threads", "1"])
            .env(CHILD_VAR, "1");
        match offset {
            Some(o) => cmd.env(crate::test_runner::CASE_OFFSET_VAR, o),
            None => cmd.env_remove(crate::test_runner::CASE_OFFSET_VAR),
        };
        let out = cmd.output().unwrap();
        assert!(!out.status.success(), "the child's first case must fail");
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr)
    }

    /// The first value case `index` of the replay test draws.
    fn first_draw(index: u64) -> u64 {
        TestRng::for_case("proptest::tests::replay", "fails_with_its_draw", index).next_u64()
    }

    #[test]
    fn unset_offset_draws_the_unshifted_cases() {
        let out = run_replay_child(None);
        assert!(
            out.contains(
                "case 1/4 of `fails_with_its_draw` failed (case index 0, PROPTEST_CASE_OFFSET=0)"
            ),
            "{out}"
        );
        assert!(out.contains(&format!("drew {}\n", first_draw(0))), "{out}");
    }

    #[test]
    fn offset_shifts_the_case_index_and_is_reported() {
        let out = run_replay_child(Some("1000"));
        assert!(
            out.contains(
                "case 1/4 of `fails_with_its_draw` failed (case index 1000, PROPTEST_CASE_OFFSET=1000)"
            ),
            "{out}"
        );
        assert!(
            out.contains(&format!("drew {}\n", first_draw(1000))),
            "{out}"
        );
        assert_ne!(first_draw(1000), first_draw(0));
    }
}
