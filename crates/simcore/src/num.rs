//! Number-to-text writers for fixed-format reports: an integer writer and
//! an exact fixed-precision float writer that append to a `String` without
//! going through `fmt` (DESIGN.md §10).
//!
//! [`push_fixed`] writes exactly what `format!("{v:.prec$}")` writes. It
//! splits the float into its integer mantissa and binary exponent, scales
//! the mantissa by `10^prec` in `u128`, and rounds the exact binary value
//! half to even, as std does (`{:.0}` of 2.5 is `2`, `{:.2}` of 0.125 is
//! `0.12`). The sign comes from the sign bit, so `-0.0` and negative values
//! that round to zero keep their `-`. Non-finite values, precisions over
//! 19, and magnitudes whose scaled value does not fit in `u128` (from
//! about 2^127 / 10^prec up) go to std's formatter instead.

use std::fmt::Write as _;

/// The largest precision [`push_fixed`] renders itself; larger ones go to
/// std. `10^19` is the largest power of ten in a `u64`.
const MAX_PREC: usize = 19;

/// `10^i` for `i` in `0..=MAX_PREC`.
const POW10: [u64; MAX_PREC + 1] = {
    let mut t = [1u64; MAX_PREC + 1];
    let mut i = 1;
    while i <= MAX_PREC {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// Append `v` in decimal.
pub fn push_u64(out: &mut String, v: u64) {
    let mut buf = Digits::new();
    buf.int(v);
    out.push_str(buf.as_str());
}

/// Append `v` with exactly `prec` digits after the point: the same bytes
/// as `format!("{v:.prec$}")` (see the module docs for the rounding rule).
pub fn push_fixed(out: &mut String, v: f64, prec: usize) {
    let Some(scaled) = scaled(v, prec) else {
        let _ = write!(out, "{v:.prec$}");
        return;
    };
    let mut buf = Digits::new();
    let pow = POW10[prec];
    match u64::try_from(scaled) {
        Ok(n) => {
            buf.frac(n % pow, prec);
            buf.int(n / pow);
        }
        Err(_) => {
            let pow = u128::from(pow);
            // The fraction is below 10^prec <= 10^19, so it fits in a u64.
            buf.frac((scaled % pow) as u64, prec);
            buf.wide_int(scaled / pow);
        }
    }
    if v.is_sign_negative() {
        buf.push(b'-');
    }
    out.push_str(buf.as_str());
}

/// `|v| * 10^prec` rounded half to even, exactly; `None` when `v` is not
/// finite, `prec` is over [`MAX_PREC`], or the result does not fit in
/// `u128`.
fn scaled(v: f64, prec: usize) -> Option<u128> {
    if !v.is_finite() || prec > MAX_PREC {
        return None;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // |v| = m * 2^e exactly; subnormals have no implicit leading bit.
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    // m < 2^53 and 10^prec < 2^64, so x < 2^117.
    let x = u128::from(m) * u128::from(POW10[prec]);
    if e >= 0 {
        let e = e as u32;
        return (e < x.leading_zeros()).then(|| x << e);
    }
    let s = e.unsigned_abs();
    if s > 117 {
        // x < 2^117 <= 2^(s-1): below one half, so it rounds to zero.
        return Some(0);
    }
    let q = x >> s;
    let rem = x & ((1u128 << s) - 1);
    let half = 1u128 << (s - 1);
    let up = rem > half || (rem == half && q & 1 == 1);
    Some(q + u128::from(up))
}

/// A number's text, built from its last byte backwards.
struct Digits {
    buf: [u8; 64],
    at: usize,
}

impl Digits {
    fn new() -> Digits {
        Digits {
            buf: [0; 64],
            at: 64,
        }
    }

    fn push(&mut self, b: u8) {
        self.at -= 1;
        self.buf[self.at] = b;
    }

    /// `n` in decimal (`0` for zero).
    fn int(&mut self, mut n: u64) {
        loop {
            self.push(b'0' + (n % 10) as u8);
            n /= 10;
            if n == 0 {
                break;
            }
        }
    }

    /// `n` in decimal; digits past `u64` cost a `u128` division each.
    fn wide_int(&mut self, mut n: u128) {
        while n > u128::from(u64::MAX) {
            self.push(b'0' + (n % 10) as u8);
            n /= 10;
        }
        self.int(n as u64);
    }

    /// `.` and `n` zero-padded to `prec` digits; nothing when `prec` is 0.
    fn frac(&mut self, mut n: u64, prec: usize) {
        if prec == 0 {
            return;
        }
        for _ in 0..prec {
            self.push(b'0' + (n % 10) as u8);
            n /= 10;
        }
        self.push(b'.');
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.at..]).expect("digits, '.' and '-' are ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed(v: f64, prec: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, v, prec);
        s
    }

    fn check(v: f64) {
        for prec in 0..=3 {
            assert_eq!(fixed(v, prec), format!("{v:.prec$}"), "{v:e} at {prec}");
        }
    }

    #[test]
    fn ties_round_half_to_even_like_std() {
        for (v, prec, want) in [
            (2.5, 0, "2"),
            (3.5, 0, "4"),
            (0.5, 0, "0"),
            (1.5, 0, "2"),
            (0.125, 2, "0.12"),
            (0.375, 2, "0.38"),
            (-2.5, 0, "-2"),
            (1e22, 0, "10000000000000000000000"),
        ] {
            assert_eq!(fixed(v, prec), want, "{v} at {prec}");
            assert_eq!(format!("{v:.prec$}"), want, "std disagrees on {v}");
        }
        // Decimal ties that are not binary ties round on the exact value.
        for v in [0.05, 0.15, 0.25, 0.35, 1.005, 2.675, 1234.5675, 0.0005] {
            check(v);
            check(-v);
        }
    }

    #[test]
    fn signs_zeros_and_non_finite_values_match_std() {
        for v in [
            0.0,
            -0.0,
            -0.01,
            -0.4,
            -0.0004,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ] {
            check(v);
        }
        assert_eq!(fixed(-0.0, 1), "-0.0");
        assert_eq!(fixed(-0.04, 1), "-0.0");
    }

    #[test]
    fn precisions_past_the_table_go_to_std() {
        for prec in [MAX_PREC, MAX_PREC + 1, 30] {
            for v in [1.0 / 3.0, -2.5e-7, 123456.789] {
                assert_eq!(fixed(v, prec), format!("{v:.prec$}"), "{v} at {prec}");
            }
        }
    }

    #[test]
    fn integers_match_std() {
        for v in [0, 1, 9, 10, 99, 100, 12345, u64::from(u32::MAX), u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    /// Powers of two straddle the `u128` limit of the exact path: just
    /// below it, at it, and above it every precision still matches std.
    #[test]
    fn values_around_the_u128_limit_match_std() {
        for exp in 100..=130 {
            let p = 2f64.powi(exp);
            for v in [p, p * (1.0 - f64::EPSILON), p * (1.0 + f64::EPSILON)] {
                check(v);
                check(-v);
            }
        }
        // The exact path ends at 2^118 for prec 3 and at 2^127 for prec 0.
        assert!(scaled(2f64.powi(117), 3).is_some());
        assert!(scaled(2f64.powi(118), 3).is_none());
        assert!(scaled(2f64.powi(126), 0).is_some());
        assert!(scaled(2f64.powi(127), 0).is_none());
    }

    /// `n` pseudo-random words from `seed` (splitmix64), so each case
    /// below checks a batch of values.
    fn words(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut z = seed;
        (0..n).map(move |_| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        })
    }

    proptest! {
        #[test]
        fn arbitrary_bit_patterns_match_std(seed in any::<u64>()) {
            for bits in words(seed, 256) {
                check(f64::from_bits(bits));
            }
        }

        #[test]
        fn report_sized_values_match_std(v in -1.0e7f64..1.0e7) {
            check(v);
        }

        /// The doubles nearest the decimal ties (k + 1/2) / 10^prec, and
        /// the exact binary ties k / 2^j.
        #[test]
        fn ties_match_std(seed in any::<u64>()) {
            for w in words(seed, 256) {
                let k = (w >> 8) % 2_000_000;
                let prec = (w % 4) as usize;
                let v = (k as f64 + 0.5) / 10f64.powi(prec as i32);
                let binary = k as f64 / f64::from(1u32 << (w % 8));
                for v in [v, -v, binary, -binary] {
                    prop_assert_eq!(fixed(v, prec), format!("{v:.prec$}"));
                }
            }
        }

        #[test]
        fn subnormals_match_std(seed in any::<u64>()) {
            for m in words(seed, 256) {
                let v = f64::from_bits(m & ((1 << 52) - 1));
                check(v);
                check(-v);
            }
        }
    }
}
