//! Order statistics over host-time samples, and the digest of simulated
//! statistics.

use std::fmt::Debug;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0.0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile that has at least ten samples beyond it, as
/// `(percentile, value)`: p(100 - 1000/n) for n samples. Below twenty
/// samples not even the median qualifies, and the maximum is reported as
/// p100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 20 {
        return (100.0, xs.iter().copied().fold(0.0, f64::max));
    }
    let q = (n - 10) as f64 / n as f64;
    (q * 100.0, quantile(xs, q))
}

/// FNV-1a over every simulated counter and virtual latency a workload
/// reads. Two runs that read the same simulated statistics produce the
/// same digest, whatever their host speed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Mix a float by its exact bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Mix a value through its `Debug` form. Floats print in their
    /// shortest round-trip form, so equal renderings mean equal values.
    pub fn debug(&mut self, x: &impl Debug) {
        self.bytes(format!("{x:?}").as_bytes());
    }

    /// The digest folded to 52 bits, so it survives a JSON number (an f64)
    /// exactly.
    pub fn value(&self) -> u64 {
        (self.0 ^ (self.0 >> 52)) & ((1 << 52) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 90.0);
        assert_eq!(tail(&xs[..19]), (100.0, 19.0));
        assert_eq!(tail(&xs[..20]).0, 50.0);
        assert_eq!(tail(&xs[..80]).0, 87.5);
    }

    #[test]
    fn digest_separates_values() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a.value(), b.value());
        assert!(a.value() < 1 << 52);
    }
}
