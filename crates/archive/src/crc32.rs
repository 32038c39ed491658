//! CRC-32 (IEEE 802.3 polynomial), as required by the ZIP format.
//!
//! Uses the slicing-by-8 variant: eight 256-entry tables computed at compile
//! time let the hot loop fold eight input bytes per step instead of one,
//! which matters because `ZipReader::read` checksums every entry it reads —
//! replaying a multi-megabyte window recording checksums every byte of it,
//! once per window as that window is pulled.

/// The reflected polynomial used by ZIP/PNG/Ethernet.
const POLY: u32 = 0xEDB8_8320;

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

    /// Feed bytes into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// Finish and return the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
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
}
