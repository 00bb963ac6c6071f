//! Shared application utilities: deterministic initialization and
//! checksums.
//!
//! Every application must be piecewise deterministic (the recovery
//! protocols replay execution), so initialization uses a fixed-seed
//! SplitMix64 generator and all order-sensitive accumulations use
//! fixed-point integers.

/// `K` zeroed rows of `n` elements: the buffers of a loop that moves
/// whole rows through `Dsm::read_slice` / `Dsm::write_slice`.
pub fn row_buffers<const K: usize>(n: usize) -> [Vec<f64>; K] {
    std::array::from_fn(|_| vec![0.0; n])
}

/// Deterministic 64-bit generator (SplitMix64) for reproducible
/// application data.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in [-1, 1).
    pub fn next_signed(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// Fixed-point scale used for order-insensitive shared accumulations
/// (integer addition commutes; floating addition does not).
pub const FIXED_SCALE: f64 = 1.0e9;

/// Convert a float to fixed-point.
pub fn to_fixed(v: f64) -> i64 {
    (v * FIXED_SCALE).round() as i64
}

/// Convert fixed-point back to a float.
pub fn from_fixed(v: i64) -> f64 {
    v as f64 / FIXED_SCALE
}

/// Order-stable checksum combinator over f64 values: folds the exact
/// bit patterns so any numeric drift is caught, not averaged away.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    acc: u64,
    count: u64,
}

impl Checksum {
    /// Fresh checksum.
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Fold one value (order matters; feed in a fixed order).
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Fold one integer value.
    pub fn push_u64(&mut self, v: u64) {
        self.count += 1;
        // FNV-ish mixing keeps transpositions visible.
        self.acc = (self.acc ^ v).wrapping_mul(0x100_0000_01B3);
        self.acc = self.acc.rotate_left(17).wrapping_add(self.count);
    }

    /// Final digest.
    pub fn digest(&self) -> u64 {
        self.acc ^ self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn floats_in_range() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = g.next_f64();
            assert!((0.0..1.0).contains(&f));
            let s = g.next_signed();
            assert!((-1.0..1.0).contains(&s));
        }
    }

    #[test]
    fn fixed_point_roundtrip() {
        for v in [0.0, 1.5, -2.25, 0.123456789] {
            assert!((from_fixed(to_fixed(v)) - v).abs() < 1e-8);
        }
    }

    #[test]
    fn fixed_point_addition_commutes() {
        let xs = [0.1, 0.7, -0.3, 2.5];
        let a: i64 = xs.iter().map(|&v| to_fixed(v)).sum();
        let b: i64 = xs.iter().rev().map(|&v| to_fixed(v)).sum();
        assert_eq!(a, b);
    }

    #[test]
    fn checksum_detects_changes_and_order() {
        let mut a = Checksum::new();
        a.push_f64(1.0);
        a.push_f64(2.0);
        let mut b = Checksum::new();
        b.push_f64(2.0);
        b.push_f64(1.0);
        assert_ne!(a.digest(), b.digest(), "transposition must be visible");
        let mut c = Checksum::new();
        c.push_f64(1.0);
        c.push_f64(2.0);
        assert_eq!(a.digest(), c.digest());
    }
}
