//! # minicheck — a minimal, deterministic property-testing harness
//!
//! A tiny stand-in for `proptest`/`quickcheck` with zero external
//! dependencies: a [`Rng`] (SplitMix64) for generating random inputs and
//! a [`check`] runner that executes a property over many deterministic
//! cases, reporting the failing case's seed before propagating the
//! panic. Re-running a failing property with [`check_seed`] and the
//! reported seed reproduces the exact failing input.
//!
//! Properties are ordinary closures over `&mut Rng`; generators are
//! ordinary functions. There is no shrinking — seeds are deterministic,
//! so a failure is always reproducible and can be minimized by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Deterministic pseudo-random generator (SplitMix64).
///
/// Small, fast, and statistically solid for test-input generation.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`. The same seed always yields the
    /// same sequence.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Multiply-shift bounded generation (Lemire); bias is negligible
        // for test-input sizes.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if the range is empty.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u32
    }

    /// A `u32` of uniformly chosen bit width (0 to 32 significant
    /// bits): small and huge values are equally likely, so every size
    /// class of a variable-length encoding is exercised.
    pub fn u32_any_width(&mut self) -> u32 {
        match self.u32_in(0, 33) {
            0 => 0,
            bits => (self.next_u64() >> (64 - bits)) as u32,
        }
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A random byte.
    pub fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.byte()).collect()
    }

    /// A uniformly chosen element of `items`. Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0, items.len())]
    }
}

/// Derive the deterministic seed of case `i` of property `name`.
fn case_seed(name: &str, i: u64) -> u64 {
    // FNV-1a over the name, mixed with the case index, so distinct
    // properties and distinct cases get unrelated streams.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run `property` over `cases` deterministic random cases.
///
/// On failure, prints the case index and seed (reproducible with
/// [`check_seed`]) and re-raises the panic.
pub fn check<F>(name: &str, cases: u64, property: F)
where
    F: Fn(&mut Rng),
{
    for i in 0..cases {
        let seed = case_seed(name, i);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            property(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!(
                "minicheck: property `{name}` failed on case {i}/{cases} \
                 (reproduce with check_seed(\"{name}\", {seed:#018x}, ..))"
            );
            resume_unwind(payload);
        }
    }
}

/// Re-run `property` once with an explicit seed (reproducing a failure
/// reported by [`check`]).
pub fn check_seed<F>(name: &str, seed: u64, property: F)
where
    F: Fn(&mut Rng),
{
    let _ = name;
    let mut rng = Rng::new(seed);
    property(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.usize_in(3, 8);
            assert!((3..8).contains(&v));
        }
    }

    #[test]
    fn any_width_reaches_small_and_large_values() {
        let mut r = Rng::new(3);
        let vs: Vec<u32> = (0..2000).map(|_| r.u32_any_width()).collect();
        assert!(vs.iter().any(|&v| v < 128));
        assert!(vs.iter().any(|&v| (128..16_384).contains(&v)));
        assert!(vs.iter().any(|&v| v >= 1 << 28));
    }

    #[test]
    fn distinct_cases_get_distinct_seeds() {
        assert_ne!(case_seed("p", 0), case_seed("p", 1));
        assert_ne!(case_seed("p", 0), case_seed("q", 0));
    }

    #[test]
    fn check_runs_all_cases() {
        use std::cell::Cell;
        let count = Cell::new(0u64);
        check("counter", 17, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 17);
    }

    #[test]
    fn failing_case_panics_through() {
        let result = std::panic::catch_unwind(|| {
            check("always_fails", 3, |_| panic!("boom"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn bytes_and_pick() {
        let mut r = Rng::new(1);
        assert_eq!(r.bytes(16).len(), 16);
        let items = [10, 20, 30];
        assert!(items.contains(r.pick(&items)));
    }
}
