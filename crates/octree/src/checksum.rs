//! CRC-32 (IEEE 802.3) over byte slices.
//!
//! One tiny, dependency-free implementation shared by every integrity
//! frame in the workspace: the v2 `.omut` checksum trailer in this
//! crate and the map service's write-ahead-log record framing. The
//! polynomial is the reflected IEEE one (`0xEDB88320`), i.e. the same
//! CRC as zlib/PNG/Ethernet, so files can be cross-checked with any
//! standard tool.
//!
//! The hot loop uses slicing-by-8 (eight compile-time tables, eight
//! input bytes folded per iteration): checkpoint blobs and WAL records
//! run to tens of megabytes, and the checksum sits on both the ingest
//! fsync path and the recovery replay path. [`crc32`] checksums one
//! slice; [`Crc32`] folds a message in pieces, which is how the WAL
//! writer checksums a record it streams through a fixed buffer.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[j][b]` advances byte `b`
/// through `j` additional zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut c = tables[0][i];
        let mut j = 1;
        while j < 8 {
            // omu-lint: allow(handle-bits) — CRC byte fold, not handle packing
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[j][i] = c;
            j += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 (IEEE) of `data` — the checksum of the v2 `.omut` trailer and
/// the map service's WAL record frames.
///
/// # Examples
///
/// ```
/// // The standard CRC-32 check value.
/// assert_eq!(omu_octree::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Incremental [`crc32`]: feed a message in pieces of any size and get
/// the checksum of their concatenation. The WAL writer checksums a
/// record this way while it streams the record through a fixed buffer.
///
/// # Examples
///
/// ```
/// use omu_octree::{crc32, Crc32};
///
/// let mut crc = Crc32::new();
/// crc.update(b"1234");
/// crc.update(b"56789");
/// assert_eq!(crc.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of the empty message, ready for [`Self::update`].
    pub const fn new() -> Self {
        Crc32 { state: u32::MAX }
    }

    /// Folds the next piece of the message in.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            c = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize] // omu-lint: allow(handle-bits) — CRC byte extraction
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize] // omu-lint: allow(handle-bits) — CRC byte extraction
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            // omu-lint: allow(handle-bits) — CRC byte fold, not handle packing
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_fold_matches_byte_at_a_time_at_every_length() {
        // Cross-check the slicing-by-8 fast path against the scalar
        // table for every alignment/remainder combination.
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for len in 0..data.len() {
            let mut c = u32::MAX;
            for &b in &data[..len] {
                // omu-lint: allow(handle-bits) — CRC byte fold, not handle packing
                c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(&data[..len]), !c, "length {len}");
        }
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(29) ^ 0xA5).collect();
        for cut in 0..=data.len() {
            for second in cut..=data.len() {
                let mut crc = Crc32::new();
                crc.update(&data[..cut]);
                crc.update(&data[cut..second]);
                crc.update(&data[second..]);
                assert_eq!(crc.finish(), crc32(&data), "splits at {cut} and {second}");
            }
        }
        assert_eq!(Crc32::default().finish(), crc32(b""));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"occupancy octree wire bytes".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut mutant = base.clone();
                mutant[i] ^= 1 << bit;
                assert_ne!(crc32(&mutant), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
