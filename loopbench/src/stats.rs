//! Order statistics and the digest used for exact-repeat checks.

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the middle two for an even count (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n % 2 == 1 || n == 0 {
        return quantile(samples, 0.5);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

/// FNV-1a 64-bit digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
