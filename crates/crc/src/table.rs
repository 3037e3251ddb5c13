//! The table code: slicing-by-8 over tables built at compile time, in
//! three independent lanes for long inputs. It runs on every CPU, takes
//! every input shorter than the kernel's threshold, and finishes the
//! kernel's last `len % 16` bytes.

/// Slicing-by-8 tables for the reflected IEEE polynomial, built at compile
/// time: `CRC_TABLES[0]` is the classic byte-at-a-time table and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Bytes each of [`crc32_feed`]'s three lanes takes from a block. Three
/// lanes make a block of 2 046 bytes, so the 4 092 checksummed bytes of a
/// page are exactly two.
const LANE: usize = 682;

/// `LANE_SHIFT[k][b]` is the raw state `b << 8k` advanced over `LANE` zero
/// bytes. Advancing over zeros is linear in the state, so the 32 single-bit
/// states are advanced one zero byte at a time and every entry is the XOR
/// of its set bits' results.
const LANE_SHIFT: [[u32; 256]; 4] = {
    let mut bits = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut state = 1u32 << i;
        let mut n = 0;
        while n < LANE {
            state = CRC_TABLES[0][(state & 0xFF) as usize] ^ (state >> 8);
            n += 1;
        }
        bits[i] = state;
        i += 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if (b >> bit) & 1 != 0 {
                    t[k][b] ^= bits[8 * k + bit];
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    t
};

/// The raw state `state` advanced over `LANE` zero bytes.
fn shift_lane(state: u32) -> u32 {
    let t = &LANE_SHIFT;
    t[0][(state & 0xFF) as usize]
        ^ t[1][((state >> 8) & 0xFF) as usize]
        ^ t[2][((state >> 16) & 0xFF) as usize]
        ^ t[3][(state >> 24) as usize]
}

/// One slicing-by-8 step: `state` advanced over the eight bytes of `w`.
#[inline(always)]
fn step8(state: u32, w: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let &[b0, b1, b2, b3, b4, b5, b6, b7] = w else { return state };
    let lo = state ^ u32::from_le_bytes([b0, b1, b2, b3]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][b4 as usize]
        ^ t[2][b5 as usize]
        ^ t[1][b6 as usize]
        ^ t[0][b7 as usize]
}

/// Advance a raw (un-inverted) CRC state over `data`, eight bytes per step
/// and the last `len % 8` one at a time.
fn crc32_serial(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        state = step8(state, w);
    }
    for &b in words.remainder() {
        state = CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Advance a raw (un-inverted) CRC state over `data`. Whole blocks of
/// `3 * LANE` bytes go through three independent slicing-by-8 lanes — the
/// second and third start from zero, so no lane waits on another — which
/// are then joined: by linearity, the state over `a ‖ b` is `a`'s state
/// advanced over `b.len()` zeros, XOR `b`'s state from zero. What is left
/// over takes [`crc32_serial`].
pub(crate) fn crc32_feed(mut state: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(3 * LANE);
    for block in &mut blocks {
        let (a, rest) = block.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        let (mut wa, mut wb, mut wc) = (a.chunks_exact(8), b.chunks_exact(8), c.chunks_exact(8));
        let (mut sa, mut sb, mut sc) = (state, 0, 0);
        for ((xa, xb), xc) in (&mut wa).zip(&mut wb).zip(&mut wc) {
            sa = step8(sa, xa);
            sb = step8(sb, xb);
            sc = step8(sc, xc);
        }
        sa = crc32_serial(sa, wa.remainder());
        sb = crc32_serial(sb, wb.remainder());
        sc = crc32_serial(sc, wc.remainder());
        state = shift_lane(shift_lane(sa) ^ sb) ^ sc;
    }
    crc32_serial(state, blocks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::feed_reference;

    /// The table that joins the lanes is what advancing over `LANE` zero
    /// bytes one at a time does to each of the 32 single-bit states (and so,
    /// by linearity, to every state).
    #[test]
    fn crc32_lane_shift_is_feeding_lane_zero_bytes() {
        let zeros = [0u8; LANE];
        for bit in 0..32 {
            let state = 1u32 << bit;
            assert_eq!(shift_lane(state), feed_reference(state, &zeros), "bit {bit}");
        }
        let state = 0xDEAD_BEEF;
        assert_eq!(shift_lane(state), feed_reference(state, &zeros));
    }
}
