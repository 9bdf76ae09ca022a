//! The hexadecimal codec every text format here shares. An `f64`
//! travels as the 16 hex digits of its IEEE-754 bit pattern, in
//! `ltc-snapshot v2`, on the `ltc-proto` wire and in the `ltc-durable`
//! write-ahead log, so no decimal formatting can perturb a value between
//! processes.
//!
//! Both directions handle eight digits per `u64`, with no branch and no
//! table lookup per digit. Encoding spreads a word's nibbles one per
//! byte and adds each byte's ASCII offset. Decoding checks eight bytes
//! against `[0-9a-fA-F]` at once, then packs their nibbles back into
//! place. Digits are bytes, so callers append them to byte buffers
//! without a UTF-8 check.
//!
//! Decoding is strict: a bit pattern is exactly 16 digits, with no sign,
//! prefix or padding, so a fixed-width field stays fixed-width.

/// `0x01` in every byte.
const ONES: u64 = 0x0101_0101_0101_0101;

/// `0x80` in every byte.
const HIGH: u64 = 0x80 * ONES;

/// The 16 lowercase hex digits of `v`'s bit pattern, most significant
/// first: the form every layer writes.
// ltc-lint: hot-path
pub fn f64_digits(v: f64) -> [u8; 16] {
    let bits = v.to_bits();
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&u32_digits((bits >> 32) as u32));
    out[8..].copy_from_slice(&u32_digits(bits as u32));
    out
}

/// The 8 lowercase hex digits of `v`, most significant first.
// ltc-lint: hot-path
pub fn u32_digits(v: u32) -> [u8; 8] {
    // Spread the nibbles one per byte, the most significant nibble in
    // the most significant byte.
    let x = u64::from(v);
    let x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    let x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    let x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // Adding 6 carries a nibble above 9 into bit 4: those bytes are
    // letters and take `'a' - 10` as their offset, the rest `'0'`.
    let letters = ((x + 6 * ONES) >> 4) & ONES;
    let ascii = x + u64::from(b'0') * ONES + letters * u64::from(b'a' - b'0' - 10);
    ascii.to_be_bytes()
}

/// Reads exactly 16 hex digits, in either case, as an `f64` bit
/// pattern. Anything else is `None`: a sign, a prefix, whitespace, or a
/// shorter or longer word.
// ltc-lint: hot-path
pub fn parse_f64(digits: &[u8]) -> Option<f64> {
    if digits.len() != 16 {
        return None;
    }
    parse16(digits).map(f64::from_bits)
}

/// Reads 1–16 hex digits, in either case, as one number. Like
/// [`parse_f64`], it takes no sign and no prefix. A fixed-width field
/// checks its own width: `\uXXXX` escapes read four digits, and the
/// write-ahead log's crc seal eight.
pub fn parse_hex(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    let mut padded = [b'0'; 16];
    padded[16 - digits.len()..].copy_from_slice(digits);
    parse16(&padded)
}

/// Sixteen digits as one number: two words checked and packed, and one
/// branch on their joint verdict.
// ltc-lint: hot-path
fn parse16(digits: &[u8]) -> Option<u64> {
    let (hi, hi_bad) = nibbles(u64::from_le_bytes(*digits.first_chunk::<8>()?));
    let (lo, lo_bad) = nibbles(u64::from_le_bytes(*digits.last_chunk::<8>()?));
    ((hi_bad | lo_bad) == 0).then_some((u64::from(hi) << 32) | u64::from(lo))
}

/// The eight digits of `word` (the first digit in its lowest byte) as
/// one `u32`, and a mask that is non-zero when any byte is not a hex
/// digit (the number is then meaningless).
// ltc-lint: hot-path
fn nibbles(word: u64) -> (u32, u64) {
    // Each byte's low seven bits: the sums below cannot carry from one
    // byte into the next. A byte with its high bit set is refused
    // through `word` itself.
    let low = word & !HIGH;
    // `x + (0x80 - lo)` sets a byte's high bit iff `x >= lo`, and
    // `x + (0x7f - hi)` iff `x > hi`.
    let digit = (low + (0x80 - u64::from(b'0')) * ONES) & !(low + (0x7f - u64::from(b'9')) * ONES);
    // Setting bit 5 folds `A-F` onto `a-f`.
    let folded = low | (0x20 * ONES);
    let letter =
        (folded + (0x80 - u64::from(b'a')) * ONES) & !(folded + (0x7f - u64::from(b'f')) * ONES);
    let bad = (!(digit | letter) | word) & HIGH;
    // A digit's low nibble is its value; a letter's is its value less 9.
    let values = (low & (0x0f * ONES)) + ((letter >> 7) & ONES) * 9;
    // Pack the nibbles, the first digit most significant: byte pairs,
    // then pairs of pairs, then the two halves.
    let pairs = ((values << 4) | (values >> 8)) & 0x00ff_00ff_00ff_00ff;
    let quads = ((pairs << 8) | (pairs >> 16)) & 0x0000_ffff_0000_ffff;
    (((quads << 16) | (quads >> 32)) as u32, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference: one `match` per digit, the rule the codec
    /// must reproduce exactly.
    fn oracle(digits: &[u8]) -> Option<u64> {
        if digits.is_empty() || digits.len() > 16 {
            return None;
        }
        let mut value = 0u64;
        for &b in digits {
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return None,
            };
            value = (value << 4) | u64::from(digit);
        }
        Some(value)
    }

    /// xorshift64*: a seeded corpus without an RNG dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// `v`'s digits with the letters in lower, upper and mixed case.
    fn cases(v: f64) -> [[u8; 16]; 3] {
        let lower = f64_digits(v);
        let upper = lower.map(|b| b.to_ascii_uppercase());
        let mut mixed = lower;
        for (i, b) in mixed.iter_mut().enumerate() {
            if i % 2 == 1 {
                *b = b.to_ascii_uppercase();
            }
        }
        [lower, upper, mixed]
    }

    #[test]
    fn every_byte_at_every_position_agrees_with_the_oracle() {
        let bases: Vec<[u8; 16]> = [0.0, 1.0, -2.5, 0.1, f64::NAN]
            .into_iter()
            .flat_map(cases)
            .chain([*b"0123456789abcdef", *b"FEDCBA9876543210"])
            .collect();
        for base in &bases {
            for at in 0..16 {
                for b in 0..=255u8 {
                    let mut digits = *base;
                    digits[at] = b;
                    let expected = oracle(&digits);
                    assert_eq!(parse_f64(&digits).map(f64::to_bits), expected, "{digits:?}");
                    assert_eq!(parse_hex(&digits), expected, "{digits:?}");
                    // The same byte in every shorter field.
                    for len in 1..=16 - at {
                        let field = &digits[at..at + len];
                        assert_eq!(parse_hex(field), oracle(field), "{field:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_and_special_bit_patterns_round_trip_in_every_case() {
        let mut rng = XorShift(0x1CDE_2018_0000_0032);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff8_dead_beef_0001), // NaN with a payload
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            -f64::from_bits(0x0008_0000_0000_0000),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            0.1,
        ];
        let random = (0..20_000).map(|_| f64::from_bits(rng.next()));
        for v in specials.into_iter().chain(random) {
            let bits = v.to_bits();
            let digits = f64_digits(v);
            assert_eq!(digits, *format!("{bits:016x}").as_bytes());
            for case in cases(v) {
                assert_eq!(parse_f64(&case).map(f64::to_bits), Some(bits), "{case:?}");
                assert_eq!(oracle(&case), Some(bits));
            }
            let high = (bits >> 32) as u32;
            assert_eq!(u32_digits(high), *format!("{high:08x}").as_bytes());
        }
    }

    #[test]
    fn a_bit_pattern_is_exactly_sixteen_digits() {
        for bad in [
            &b"+3fcd70a3d70a3d7"[..],
            b"-3fcd70a3d70a3d7",
            b" 3fcd70a3d70a3d7",
            b"0x3fcd70a3d70a3d",
            b"3fcd70a3d70a3d7",
            b"3fcd70a3d70a3d700",
            b"3ff",
            b"",
        ] {
            assert_eq!(parse_f64(bad), None, "accepted {bad:?}");
        }
        assert_eq!(parse_f64(b"3fe0000000000000"), Some(0.5));
        assert_eq!(parse_f64(b"3FE0000000000000"), Some(0.5));
        assert_eq!(parse_hex(b"3ff"), Some(0x3ff));
        assert_eq!(parse_hex(b"ffffffffffffffff"), Some(u64::MAX));
        for bad in [&b""[..], b"+1", b"-1", b"0x1", b"g", b"1ffffffffffffffff"] {
            assert_eq!(parse_hex(bad), None, "accepted {bad:?}");
        }
    }
}
