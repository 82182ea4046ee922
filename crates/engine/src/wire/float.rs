//! Shortest round-trip `f64` text, byte-identical to Rust's `{}`.
//!
//! The digits come from Ryū (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal inside the value's
//! rounding interval and, among those, the one nearest the value. When
//! two candidates are equally near, `{}` rounds half **up**, so Ryū's
//! round-half-to-even step is left out. The layout is `{}`'s too: plain
//! positional decimal with no exponent, and `NaN`, `inf`, `-inf`, `0`
//! and `-0` for the special values.
//!
//! Ryū's 5^±q multiplier tables are computed once, on first use, from
//! exact big integers (one multiply or divide by 5 per entry), so the
//! module needs nothing beyond `std`.

use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_MASK: u64 = 0x7ff;
const BIAS: i32 = 1023;

/// Bit width of the `5^-q` (inverse) and `5^i` multipliers.
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_TABLE_SIZE: usize = 342;
const POW5_TABLE_SIZE: usize = 326;

/// Appends `v` to `out` exactly as `format!("{v}")` renders it.
pub(super) fn push_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        return out.push_str("NaN");
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    if v.is_infinite() {
        return out.push_str("inf");
    }
    if v == 0.0 {
        return out.push('0');
    }
    let (mantissa, exp10) = shortest(v.to_bits());
    let mut buf = [0u8; 20];
    let start = write_digits(mantissa, &mut buf);
    let digits = std::str::from_utf8(&buf[start..]).expect("ASCII digits");
    // The decimal point sits `point` digits into `digits`.
    let point = digits.len() as i32 + exp10;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, point.unsigned_abs() as usize);
        out.push_str(digits);
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str(digits);
        push_zeros(out, point as usize - digits.len());
    }
}

fn push_zeros(out: &mut String, mut n: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while n > 0 {
        let k = n.min(ZEROS.len());
        out.push_str(&ZEROS[..k]);
        n -= k;
    }
}

/// Writes `v`'s decimal digits right-aligned into `buf`, returning the
/// index of the first digit.
fn write_digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    const PAIRS: &[u8; 200] = b"\
        0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut i = buf.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// The shortest `(digits, exp10)` with `digits · 10^exp10` inside the
/// rounding interval of the finite, nonzero `bits` (sign ignored),
/// nearest the value with ties rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & EXPONENT_MASK) as i32;
    // Two extra bits of exponent make room for the interval bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even parsing maps the interval bounds back to an even
    // mantissa, so only then are the bounds themselves representations.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower gap is half as wide at a power of two (except at the
    // bottom of the normal range).
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Step 1: the interval (vm, vr, vp) scaled by 10^-e10, and whether
    // vm is exact, i.e. the lower bound itself is a candidate. (Ryū also
    // tracks vr's exactness, but only to round an exact tie half to
    // even, which `{}` does not do.)
    let tables = tables();
    let mut vm_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = tables.pow5_inv[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mv, mp, mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = tables.pow5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Step 2: drop digits while the interval still holds a shorter
    // decimal, remembering the last digit dropped from vr.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // Rare: the lower bound may be exact, so track its trailing zeros.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // An exact tie (`…50…0`) rounds half up, as `{}` does.
        let round_up = (vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5;
        vr + u64::from(round_up)
    } else {
        // Common: drop two digits at a time while that is safe; a
        // dropped 5 rounds up.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `(m · mul) >> j` for a 55-bit `m` and a 125-bit `mul`.
#[inline]
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `⌈log₂ 5^e⌉` (1 for e = 0), valid for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log₁₀ 2^e⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// Ryū's multipliers: `pow5[i]` is `5^i` scaled to exactly 125 bits,
/// and `pow5_inv[q]` is `⌊2^(⌈log₂ 5^q⌉ − 1 + 125) / 5^q⌋ + 1`.
struct Tables {
    pow5: Vec<u128>,
    pow5_inv: Vec<u128>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Exact integers, one multiply or divide by 5 per entry: p = 5^i,
        // and r = ⌊2^R / 5^q⌋, since nested floor divisions compose
        // (⌊⌊x/a⌋/b⌋ = ⌊x/(ab)⌋). R covers the largest inverse shift,
        // ⌈log₂ 5^341⌉ − 1 + 125 = 916.
        const R: usize = 960;
        let mut pow5 = Vec::with_capacity(POW5_TABLE_SIZE);
        let mut pow5_inv = Vec::with_capacity(POW5_INV_TABLE_SIZE);
        let mut p: Vec<u64> = vec![1];
        let mut r = vec![0u64; R / 64 + 1];
        r[R / 64] = 1;
        for i in 0..POW5_INV_TABLE_SIZE {
            let bits = pow5_bits(i as i32) as usize;
            if i < POW5_TABLE_SIZE {
                let scale = POW5_BITCOUNT as usize;
                pow5.push(if bits <= scale {
                    shr_u128(&p, 0) << (scale - bits)
                } else {
                    shr_u128(&p, bits - scale)
                });
                mul5(&mut p);
            }
            pow5_inv.push(shr_u128(&r, R + 1 - bits - POW5_INV_BITCOUNT as usize) + 1);
            div5(&mut r);
        }
        Tables { pow5, pow5_inv }
    })
}

/// Bits `[s, s + 128)` of the little-endian limbs `p`.
fn shr_u128(p: &[u64], s: usize) -> u128 {
    let (limb, off) = (s / 64, s % 64);
    let word = |k: usize| p.get(limb + k).map_or(0, |&w| u128::from(w));
    let low = word(0) | (word(1) << 64);
    if off == 0 {
        low
    } else {
        (low >> off) | (word(2) << (128 - off))
    }
}

fn mul5(p: &mut Vec<u64>) {
    let mut carry = 0u128;
    for limb in p.iter_mut() {
        let v = u128::from(*limb) * 5 + carry;
        *limb = v as u64;
        carry = v >> 64;
    }
    if carry > 0 {
        p.push(carry as u64);
    }
}

fn div5(p: &mut [u64]) {
    let mut rem = 0u128;
    for limb in p.iter_mut().rev() {
        let cur = (rem << 64) | u128::from(*limb);
        *limb = (cur / 5) as u64;
        rem = cur % 5;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    fn assert_parity(bits: u64) {
        let v = f64::from_bits(bits);
        assert_eq!(render(v), format!("{v}"), "bits {bits:#018x}");
    }

    /// SplitMix64: a seeded, uniform stream of 64-bit patterns.
    fn bit_patterns(seed: u64, count: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..count).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn tables_match_the_published_first_entries() {
        let t = tables();
        assert_eq!(t.pow5.len(), POW5_TABLE_SIZE);
        assert_eq!(t.pow5_inv.len(), POW5_INV_TABLE_SIZE);
        assert_eq!(t.pow5[0], 1 << 124);
        assert_eq!(t.pow5_inv[0], (1 << 125) + 1);
        // ⌈log₂ 5⌉ = 3, so the q = 1 entry is ⌊2^127 / 5⌋ + 1.
        assert_eq!(t.pow5_inv[1], (1 << 127) / 5 + 1);
        // 5 scaled to 125 bits is 5 << 122.
        assert_eq!(t.pow5[1], 5 << 122);
        assert!(t.pow5.iter().all(|&m| m >> 124 == 1));
    }

    #[test]
    fn edge_catalog_matches_std() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1e21,
            1e22,
            1e23,
            0.1,
            0.3,
            1.0,
            -1.5,
            123456789.0,
            9007199254740993.0,
        ];
        for v in specials {
            assert_parity(v.to_bits());
        }
        // Exact ties between two nearest shortest candidates: `{}` rounds
        // half up (round-half-even would print …312 for the first).
        for bits in [0x3e60000000000000, 0x42eab5ba54a65824, 0x4310000000000001] {
            assert_parity(bits);
        }
        assert_eq!(
            render(f64::from_bits(0x3e60000000000000)),
            "0.000000029802322387695313"
        );
        // Every power of two, subnormal to 2^1023, with its ±1-ulp
        // neighbours, both signs.
        for e in -1074i32..=1023 {
            let bits = if e < -1022 {
                1 << (e + 1074)
            } else {
                ((e + 1023) as u64) << MANTISSA_BITS
            };
            assert_eq!(f64::from_bits(bits), 2f64.powf(f64::from(e)));
            for b in [bits - 1, bits, bits + 1] {
                assert_parity(b);
                assert_parity(b | 1 << 63);
            }
        }
        // Short decimals, where shortest output matters most.
        for i in 0..100_000u32 {
            assert_parity((f64::from(i) / 10.0).to_bits());
            assert_parity((f64::from(i) / 1000.0).to_bits());
        }
    }

    #[test]
    fn random_bit_patterns_match_std() {
        for bits in bit_patterns(0x05ee_df64, 1_000_000) {
            assert_parity(bits);
        }
    }

    #[test]
    #[ignore = "20M-pattern sweep; run in release with --ignored"]
    fn random_bit_patterns_sweep() {
        for bits in bit_patterns(0x0b10_f15b, 20_000_000) {
            assert_parity(bits);
        }
    }
}
