//! Offline stand-in for `proptest`.
//!
//! Provides the surface this workspace's property tests use: the
//! [`proptest!`] macro, `prop_assert*`, [`prop_oneof!`], [`any`],
//! range/tuple/[`Just`]/`prop_map` strategies, [`collection::vec`],
//! [`option::of`], and [`test_runner::ProptestConfig`]. Cases are
//! generated from a seed derived from the test name, so runs are
//! deterministic; failing inputs are *not* shrunk — the panic message
//! simply reports the case number.
//!
//! [`any`]: arbitrary::any
//! [`Just`]: strategy::Just
//! [`proptest!`]: crate::proptest

/// Strategy trait and combinators.
pub mod strategy {
    use rand::rngs::SmallRng;
    use rand::{Rng, UniformInt};
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut SmallRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Boxes a strategy, erasing its concrete type (used by
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut SmallRng) -> T {
            self.0.clone()
        }
    }

    /// The [`Strategy::prop_map`] combinator.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut SmallRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed strategies of one value type.
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    let lo = <$t as UniformInt>::to_u64(*self.start());
                    let hi = <$t as UniformInt>::to_u64(*self.end());
                    assert!(lo <= hi, "cannot sample empty inclusive range");
                    if lo == 0 && hi == u64::MAX {
                        return <$t as UniformInt>::from_u64(rng.gen());
                    }
                    <$t as UniformInt>::from_u64(rng.gen_range(lo..hi + 1))
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut SmallRng) -> f64 {
            self.start + rng.gen::<f64>() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut SmallRng) -> f64 {
            // The end itself has measure zero; sampling the half-open
            // span is indistinguishable for these tests.
            self.start() + rng.gen::<f64>() * (self.end() - self.start())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($t:ident . $idx:tt),+))*) => {$(
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);
                fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut SmallRng) -> Self;
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut SmallRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }

    arbitrary_uint!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for i64 {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            rng.gen::<u64>() as i64
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length distributions accepted by [`vec()`].
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut SmallRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(*self.start()..self.end() + 1)
        }
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut SmallRng) -> usize {
            *self
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Self::Value {
            let len = self.len.sample_len(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` values with length drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// Option strategies.
pub mod option {
    use super::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Self::Value {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    /// `Option` of `inner`, `None` a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// Test-runner configuration and deterministic seeding.
pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Runner configuration; only `cases` is meaningful here.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic per-test generator, seeded from the test name
    /// (FNV-1a) so every run replays the same cases.
    pub fn rng_for(test_name: &str) -> SmallRng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SmallRng::seed_from_u64(hash)
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...)` becomes
/// a `#[test]` that runs the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            use $crate::strategy::Strategy as _;
            let __config = $cfg;
            let mut __rng = $crate::test_runner::rng_for(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let __run = || {
                    $(let $arg = ($strat).generate(&mut __rng);)*
                    $body
                };
                let __result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run));
                if let Err(payload) = __result {
                    eprintln!(
                        "proptest case {}/{} of {} failed (deterministic seed; rerun reproduces it)",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice among strategies producing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::rng_for("ranges");
        for _ in 0..1_000 {
            let v = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1usize..=4).generate(&mut rng);
            assert!((1..=4).contains(&w));
            let f = (0.5f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn oneof_covers_all_options() {
        let strat = prop_oneof![Just(1u8), Just(2), Just(3)];
        let mut rng = crate::test_runner::rng_for("oneof");
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[(strat.generate(&mut rng) - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_runnable_tests(a in 0u64..100, b in any::<bool>(), v in crate::collection::vec(0u8..4, 1..5)) {
            prop_assert!(a < 100);
            prop_assert_eq!(b, b);
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert_ne!(v.len(), 0);
        }
    }
}
