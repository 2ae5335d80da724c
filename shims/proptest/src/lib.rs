//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! The build container has no registry access, so the workspace vendors
//! a deterministic property-testing harness: strategies sample from a
//! splitmix64 RNG seeded by (test name, case index), so every run of a
//! given test explores the same inputs. No shrinking — a failing case
//! reports its arguments and panics.

pub mod test_runner {
    //! Config, RNG, and case-failure plumbing.

    /// Runner configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// A failed property case (from `prop_assert!`).
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Record a failure message.
        pub fn fail(message: String) -> TestCaseError {
            TestCaseError { message }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic splitmix64 stream.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name and case index (FNV-1a over the name).
        pub fn for_case(test_name: &str, case: u32) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: h ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)` (`bound` > 0).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and combinators.

    use crate::test_runner::TestRng;

    /// A generator of random values.
    ///
    /// Unlike real proptest there is no value tree or shrinking; a
    /// strategy just samples deterministically from the case RNG.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erase the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Box::new(self),
            }
        }
    }

    /// Boxed, type-erased strategy.
    pub struct BoxedStrategy<T> {
        inner: Box<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.inner.sample(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice between boxed strategies (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        /// Choose uniformly between `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> OneOf<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = (rng.next_u64() as u128) % span;
                    (self.start as i128 + draw as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident.$idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    // String strategies: a `&str` is a pattern in the tiny regex subset
    // the repo's tests use — `[class]{m,n}` atoms and `\PC` (any
    // printable char), optionally repeated, concatenated.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            sample_pattern(self, rng)
        }
    }

    fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let alphabet: Vec<char> = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .expect("unclosed [class] in pattern strategy")
                        + i;
                    let class = expand_class(&chars[i + 1..close]);
                    i = close + 1;
                    class
                }
                '\\' if chars.get(i + 1) == Some(&'P') && chars.get(i + 2) == Some(&'C') => {
                    // \PC: any non-control char; sample printable ASCII.
                    i += 3;
                    (0x20u8..0x7f).map(char::from).collect()
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            let (min, max) = if chars.get(i) == Some(&'{') {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unclosed {m,n} in pattern strategy")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.parse::<usize>().expect("bad repeat min"),
                        n.parse::<usize>().expect("bad repeat max"),
                    ),
                    None => {
                        let n = body.parse::<usize>().expect("bad repeat count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            let reps = min + rng.below((max - min + 1) as u64) as usize;
            for _ in 0..reps {
                out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
            }
        }
        out
    }

    fn expand_class(body: &[char]) -> Vec<char> {
        let mut set = Vec::new();
        let mut i = 0;
        while i < body.len() {
            if i + 2 < body.len() && body[i + 1] == '-' {
                let (lo, hi) = (body[i] as u32, body[i + 2] as u32);
                for c in lo..=hi {
                    set.push(char::from_u32(c).expect("bad class range"));
                }
                i += 3;
            } else {
                set.push(body[i]);
                i += 1;
            }
        }
        set
    }
}

pub mod arbitrary {
    //! `any::<T>()` and the `Arbitrary` trait.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// Draw a value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in out.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            out
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<fn() -> T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Size bound for [`vec()`]: a fixed length or a half-open range.
    pub trait SizeRange {
        /// Draw a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Vector of `element` values with a length from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

pub mod prelude {
    //! Everything a `proptest!` test needs in scope.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Define property tests. Supports the subset of the real macro this
/// repo uses: an optional `#![proptest_config(..)]` header followed by
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case);
                $(let $arg =
                    $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                // Capture the inputs before the body (which may move
                // them) so a failure can still report them.
                let case_args = format!("{:?}", ($(&$arg,)+));
                let outcome: ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {} failed at case {case}: {e}\n  args: {case_args}",
                        stringify!($name)
                    );
                }
            }
        }
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Assert inside a `proptest!` body; failure aborts the case with
/// context instead of unwinding immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                );
            }
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = (0..4)
            .map(|_| TestRng::for_case("t", 3).next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            TestRng::for_case("t", 3).next_u64(),
            TestRng::for_case("t", 4).next_u64()
        );
    }

    #[test]
    fn range_strategy_stays_in_bounds() {
        let mut rng = TestRng::for_case("range", 0);
        for _ in 0..500 {
            let v = (-50i64..50).sample(&mut rng);
            assert!((-50..50).contains(&v));
            let u = (3usize..9).sample(&mut rng);
            assert!((3..9).contains(&u));
        }
    }

    #[test]
    fn pattern_strategy_matches_shape() {
        let mut rng = TestRng::for_case("pat", 0);
        for _ in 0..200 {
            let s = "[a-z0-9-]{1,24}".sample(&mut rng);
            assert!((1..=24).contains(&s.len()));
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
            let p = "\\PC{0,64}".sample(&mut rng);
            assert!(p.len() <= 64);
            assert!(p.chars().all(|c| !c.is_control()));
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = TestRng::for_case("vec", 0);
        let strat = crate::collection::vec((0u8..4, "[a-z]{2}").prop_map(|(n, s)| (n, s)), 2..5);
        for _ in 0..50 {
            let v = strat.sample(&mut rng);
            assert!((2..5).contains(&v.len()));
            for (n, s) in v {
                assert!(n < 4);
                assert_eq!(s.len(), 2);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn oneof_and_just_work(v in prop_oneof![Just(1u64), 2u64..10, Just(99u64)]) {
            prop_assert!(v == 1 || v == 99 || (2..10).contains(&v));
        }

        #[test]
        fn arrays_and_bytes(seed in any::<[u8; 32]>(), data in crate::collection::vec(any::<u8>(), 0..16)) {
            prop_assert_eq!(seed.len(), 32);
            prop_assert!(data.len() < 16);
        }
    }
}
