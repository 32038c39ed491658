//! CRC-32 (IEEE 802.3 polynomial), as required by the ZIP format.
//!
//! Every archive entry and every wire frame is checksummed, and a replayed
//! window's ~128 KB payload crosses this code once on the server's archive
//! read and once more on each student's frame read, so the per-byte cost
//! matters. [`Crc32::update`] picks one of two kernels per call:
//!
//! * **Carry-less multiply** (x86_64 only): inputs of at least 128 bytes
//!   go to a `PCLMULQDQ` kernel when the CPU reports both `pclmulqdq` and
//!   `sse4.1` at run time (`std::is_x86_feature_detected!`, which caches
//!   its answer). It folds
//!   four 128-bit lanes over 64-byte blocks, folds the lanes into one, and
//!   finishes with a Barrett reduction for the reflected polynomial — the
//!   scheme of Gopal et al., *Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ Instruction* (Intel, 2009), as zlib, Linux and
//!   crc32fast implement it. A tail shorter than 16 bytes goes through the
//!   table kernel.
//! * **Slicing-by-8** everywhere else (short inputs, other CPUs and other
//!   architectures): eight 256-entry tables computed at compile time fold
//!   eight input bytes per step. [`crc32_table`] exposes this kernel alone;
//!   it is the reference the hardware kernel is tested against.
//!
//! Both kernels compute the same function, so the choice changes no byte on
//! disk or on the wire.
//!
//! # Safety
//!
//! All `unsafe` code sits in the private `clmul` module, in two places.
//! The kernel is a `#[target_feature(enable = "pclmulqdq,sse4.1")]`
//! function, and calling it is only sound on a CPU that has those
//! features; its one caller checks both with `is_x86_feature_detected!`
//! immediately before the call. Its only memory access is
//! `_mm_loadu_si128`, an unaligned load that takes a `&[u8; 16]` block
//! split off the input by `as_chunks::<16>`, so every load reads 16 bytes
//! the input slice owns. The kernel needs no minimum length: an input
//! shorter than four blocks goes back to the tables.

/// The reflected polynomial used by ZIP/PNG/Ethernet.
const POLY: u32 = 0xEDB8_8320;

/// The shortest input [`Crc32::update`] sends to the carry-less-multiply
/// kernel; below it the kernel's setup and reduction cost more than the
/// tables.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 128;

/// Slicing-by-8 lookup tables, generated at compile time. `TABLE[0]` is the
/// classic byte-at-a-time table; `TABLE[k][i]` advances `TABLE[k-1][i]` by
/// one extra zero byte.
const TABLE: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Compute the CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(data);
    hasher.finalize()
}

/// The CRC-32 of `data` through the slicing-by-8 tables alone, whatever the
/// CPU: the same value as [`crc32`], and the reference its hardware kernel
/// is tested and timed against.
pub fn crc32_table(data: &[u8]) -> u32 {
    update_table(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advance the CRC register `crc` over `data`, eight bytes per step.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLE[7][(lo & 0xFF) as usize]
            ^ TABLE[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLE[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLE[4][(lo >> 24) as usize]
            ^ TABLE[3][chunk[4] as usize]
            ^ TABLE[2][chunk[5] as usize]
            ^ TABLE[1][chunk[6] as usize]
            ^ TABLE[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLE[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Create a hasher in its initial state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the hasher: through the carry-less-multiply kernel
    /// when the input is long enough and the CPU has it, else through the
    /// tables.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= CLMUL_MIN_LEN {
            if let Some(crc) = clmul::update(self.state, data) {
                self.state = crc;
                return;
            }
        }
        self.state = update_table(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// The `PCLMULQDQ` kernel; see the module docs for the scheme and why the
/// `unsafe` here is sound.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected polynomial: powers of x modulo
    // P(x), bit-reflected and shifted left by one (Gopal et al.; the same
    // values as zlib's and Linux's crc32-pclmul).
    /// x^(4*128+32) and x^(4*128-32) mod P: fold a lane 512 bits ahead.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128-32) mod P: fold a lane 128 bits ahead.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: fold 96 bits down to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) and the Barrett constant floor(x^64 / P(x)), both reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Advance the CRC register `crc` over `data` when the CPU has the
    /// kernel's features; `None` leaves the input to the table kernel.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1") {
            // SAFETY: `fold` is compiled for `pclmulqdq` and `sse4.1`, and
            // both were detected on this CPU just above; it has no other
            // requirement.
            Some(unsafe { fold(crc, data) })
        } else {
            None
        }
    }

    /// Fold four lanes over 64-byte blocks, fold them into one, fold in the
    /// remaining 16-byte blocks, Barrett-reduce to the CRC register, and
    /// finish the last 0..16 bytes through the tables. Inputs shorter than
    /// four blocks go to the tables whole.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return super::update_table(crc, data);
        };
        let mut lanes = first.map(|block| load(&block));
        // The incoming register is XORed into the first 32 bits of input.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, load(block), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(lanes[0], lanes[1], k3k4);
        x = fold_into(x, lanes[2], k3k4);
        x = fold_into(x, lanes[3], k3k4);
        for block in singles {
            x = fold_into(x, load(block), k3k4);
        }

        // 128 bits down to 64: fold the high half onto the low one, then
        // the low 32 bits over the remaining 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, reflected: T1 = (R mod x^32) * mu,
        // T2 = (T1 mod x^32) * P, and the register is the upper 32 bits of
        // R ^ T2.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let reduced = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;

        super::update_table(reduced, tail)
    }

    /// Carry-less multiply both halves of `acc` by their constants and XOR
    /// the products into `block`: `acc` carried 128 (or 512) bits forward.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, block: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(block, lo), hi)
    }

    /// One 16-byte block as a vector.
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, exactly what the load
        // reads, and `_mm_loadu_si128` has no alignment requirement; SSE2
        // is part of every x86_64 CPU.
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"traffic_matrix";
        let mut h = Crc32::new();
        h.update(&data[..7]);
        h.update(&data[7..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(crc32(b"lesson1.json"), crc32(b"lesson2.json"));
    }

    #[test]
    fn dispatch_matches_the_tables_across_the_kernel_threshold() {
        // Every length from empty to well past the fold-by-4 loop, so the
        // hardware kernel's lane setup, block loop, one-lane folds and
        // table tail all meet the oracle.
        let data: Vec<u8> = (0..600u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_table(&data[..len]), "len {len}");
        }
        // Known vectors long enough for the hardware kernel (the values
        // zlib's crc32 gives).
        assert_eq!(crc32(&data), 0xDB86_E9B1);
        assert_eq!(crc32(&vec![0u8; 1 << 20]), 0xA738_EA1C);
    }
}
