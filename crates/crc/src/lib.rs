//! CRC-32 (IEEE, reflected polynomial `0xEDB88320`): the one checksum of
//! Quarry's pages, log and replication frames and `QRYW` wire frames.
//!
//! Two implementations compute the same bits:
//! - the table code (`table`): slicing-by-8 over tables built at compile
//!   time, three independent lanes at a time on long inputs; every CPU;
//! - the kernel (`clmul`): folding by carry-less multiplication
//!   (PCLMULQDQ), 64 bytes a step; x86_64 only.
//!
//! [`update`] picks one with no switch to set: an input of at least the
//! kernel's measured threshold, on an x86_64 CPU that reports PCLMULQDQ,
//! takes the kernel, and every other input the tables. A 4 092-byte page
//! checksums in about a sixth of the tables' time.
//!
//! This is the workspace's one crate with `unsafe`, and it holds one
//! block: the kernel is safe code, but calling a `#[target_feature]`
//! function is not, so the call made after the CPU check is `unsafe`. The
//! crate denies `unsafe_code` and allows it on that one function, and
//! `quarry-audit` (QA103) refuses `std::arch` anywhere outside this crate.

#![deny(unsafe_code)]

#[cfg(target_arch = "x86_64")]
mod clmul;
mod table;

/// The CRC-32 of `data`, by whichever implementation [`update`] picks.
pub fn crc32(data: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, data)
}

/// Advance a raw (un-inverted) CRC state over `data`: a checksum is
/// `!update(0xFFFF_FFFF, data)`, and feeding `a` and then `b` equals
/// feeding `a ‖ b`, from any state.
pub fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN {
        if let Some(state) = clmul::update(state, data) {
            return state;
        }
    }
    table::crc32_feed(state, data)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition of the raw state update, with no table
    /// at all.
    pub(crate) fn feed_reference(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c
    }

    /// A raw state update: [`update`], or one implementation's.
    type Feed = fn(u32, &[u8]) -> u32;

    /// Each implementation's raw update, called directly rather than
    /// through [`update`]'s choice, so that a CPU with the kernel still
    /// runs the tables at every length and the kernel runs below its
    /// threshold. The kernel is missing on other architectures and CPUs.
    fn paths() -> Vec<(&'static str, Feed)> {
        let mut paths: Vec<(&'static str, Feed)> =
            vec![("dispatch", update), ("tables", table::crc32_feed)];
        #[cfg(target_arch = "x86_64")]
        if clmul::update(0, &[]).is_some() {
            paths.push(("kernel", |s, d| clmul::update(s, d).unwrap_or_default()));
        }
        paths
    }

    fn noise(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        let page = [0u8; 4092];
        for (name, feed) in paths() {
            assert_eq!(!feed(!0, b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(!feed(!0, &page), !feed_reference(!0, &page), "{name}");
        }
    }

    /// Every length 0..=4 200 — across the kernel's 16- and 64-byte steps
    /// and threshold, and the tables' 8-byte steps and 2 046-byte blocks,
    /// up to past a page — at every start offset mod 16, against the
    /// reference's state after each prefix of the same slice.
    #[test]
    fn every_length_at_every_offset_equals_the_bitwise_reference() {
        let buf = noise(16 + 4200, 0x9E37_79B9_7F4A_7C15);
        let paths = paths();
        for offset in 0..16 {
            let data = &buf[offset..offset + 4200];
            let mut state = 0xFFFF_FFFF;
            let prefixes: Vec<u32> = std::iter::once(state)
                .chain(data.iter().map(|b| {
                    state = feed_reference(state, std::slice::from_ref(b));
                    state
                }))
                .collect();
            for (len, &want) in prefixes.iter().enumerate() {
                for (name, feed) in &paths {
                    assert_eq!(
                        feed(!0, &data[..len]),
                        want,
                        "{name}: offset {offset}, length {len}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lengths up to three pages, start offsets, incoming states
        /// and split points: each path equals the reference, and feeding
        /// `a` then `b` equals feeding `a ‖ b` — through one path, or
        /// through the tables and then the kernel, as `frame_crc` feeds a
        /// length prefix and then a payload.
        #[test]
        fn any_state_any_split_equals_the_bitwise_reference(
            len in 0..=3 * 4096usize,
            offset in 0..16usize,
            state in any::<u32>(),
            cut in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let buf = noise(offset + len, seed);
            let data = &buf[offset..];
            let want = feed_reference(state, data);
            let (a, b) = data.split_at(cut % (len + 1));
            let paths = paths();
            for (name, feed) in &paths {
                prop_assert_eq!(feed(state, data), want, "{} over {} bytes", name, len);
                for (second, then) in &paths {
                    prop_assert_eq!(then(feed(state, a), b), want, "{} then {}, split at {}", name, second, a.len());
                }
            }
        }
    }

    /// The kernel's constants are what their comments say: powers of `x`
    /// modulo `P = 0x1_04C1_1DB7`, and `P` and `⌊x^64 / P⌋` for the
    /// Barrett step, each bit-reflected.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_kernels_constants_derive_from_the_polynomial() {
        const P: u128 = 0x1_04C1_1DB7;
        // `x^n mod P`, one multiplication by `x` at a time.
        let rem = |n: u32| {
            (0..n).fold(1u128, |r, _| if (r << 1) >> 32 == 1 { (r << 1) ^ P } else { r << 1 })
        };
        // `⌊x^64 / P⌋`, by long division over GF(2).
        let (mut quotient, mut r) = (0u128, 1u128 << 64);
        for bit in (32..=64).rev() {
            if (r >> bit) & 1 == 1 {
                r ^= P << (bit - 32);
                quotient |= 1 << (bit - 32);
            }
        }
        assert_eq!(r, rem(64));
        let reflect = |v: u128, bits: u32| v.reverse_bits() >> (128 - bits);
        let k = |n: u32| (reflect(rem(n), 32) << 1) as i64;
        assert_eq!(
            [clmul::K1, clmul::K2, clmul::K3, clmul::K4, clmul::K5],
            [k(4 * 128 + 32), k(4 * 128 - 32), k(128 + 32), k(128 - 32), k(64)]
        );
        assert_eq!(clmul::P_X as u128, reflect(P, 33));
        assert_eq!(clmul::U_PRIME as u128, reflect(quotient, 33));
    }
}
