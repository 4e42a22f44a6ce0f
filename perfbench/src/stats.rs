//! Order statistics and the scaffold digest.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones the acceptance check computes.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// FNV-1a over the scaffold sequences in sorted order, each terminated by a
/// 0xFF byte: independent of scaffold order and ids, so it identifies the
/// assembled sequence content across rank counts. Same definition as the
/// `ablation_*` harnesses use.
pub fn scaffold_digest(seqs: &[Vec<u8>]) -> u64 {
    let mut sorted: Vec<&Vec<u8>> = seqs.iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sorted {
        for &b in s.iter().chain(&[0xFFu8]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[2.0, 4.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
        let (q1, q3) = quartiles(&[10.2, 10.0, 10.6, 10.4, 10.1]);
        assert!((q1 - 10.05).abs() < 1e-12 && (q3 - 10.5).abs() < 1e-12);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = vec![b"ACGT".to_vec(), b"TTG".to_vec()];
        let b = vec![b"TTG".to_vec(), b"ACGT".to_vec()];
        assert_eq!(scaffold_digest(&a), scaffold_digest(&b));
        // The terminator keeps a split between scaffolds significant.
        let c = vec![b"ACG".to_vec(), b"TTTG".to_vec()];
        assert_ne!(scaffold_digest(&a), scaffold_digest(&c));
        let d = vec![b"ACGT".to_vec(), b"TTC".to_vec()];
        assert_ne!(scaffold_digest(&a), scaffold_digest(&d));
        // FNV-1a offset basis for the empty assembly.
        assert_eq!(scaffold_digest(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
