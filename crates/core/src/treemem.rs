//! The per-PE tree memory: 8 parallel single-port SRAM banks.
//!
//! The 8 children of any node share one row address; child `i` lives in
//! bank `i` (`T-Mem i`). A parent update or prune check therefore reads
//! all 8 children in a single cycle — the 8× memory-bandwidth improvement
//! of Section IV-B.

use omu_simhw::{SramBank, SramSpec, SramStats};

use crate::entry::NodeEntry;

/// One PE's tree memory: 8 banks of 64-bit node entries.
#[derive(Debug, Clone)]
pub struct TreeMem {
    banks: Vec<SramBank>,
    rows: usize,
}

impl TreeMem {
    /// Number of banks (fixed at 8: one per child).
    pub const BANKS: usize = 8;

    /// Creates a zeroed tree memory with `rows` rows per bank.
    pub fn new(rows: usize) -> Self {
        let spec = SramSpec::new(rows, 64);
        TreeMem {
            banks: (0..Self::BANKS).map(|_| SramBank::new(spec)).collect(),
            rows,
        }
    }

    /// Rows per bank.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reads the entry at (`row`, `bank`) — one bank access.
    #[inline]
    pub fn read_entry(&mut self, row: u32, bank: usize) -> NodeEntry {
        NodeEntry::unpack(self.banks[bank].read(row as usize))
    }

    /// Writes the entry at (`row`, `bank`) — one bank access.
    #[inline]
    pub fn write_entry(&mut self, row: u32, bank: usize, entry: NodeEntry) {
        self.banks[bank].write(row as usize, entry.pack());
    }

    /// Reads a whole row — 8 parallel bank accesses, one cycle in
    /// hardware.
    #[inline]
    pub fn read_row(&mut self, row: u32) -> [NodeEntry; 8] {
        std::array::from_fn(|bank| NodeEntry::unpack(self.banks[bank].read(row as usize)))
    }

    /// Writes a whole row — 8 parallel bank accesses, one cycle.
    #[inline]
    pub fn write_row(&mut self, row: u32, entries: [NodeEntry; 8]) {
        for (bank, e) in entries.iter().enumerate() {
            self.banks[bank].write(row as usize, e.pack());
        }
    }

    /// Reads an entry without counting an access (map export only).
    #[inline]
    pub fn peek_entry(&self, row: u32, bank: usize) -> NodeEntry {
        NodeEntry::unpack(self.banks[bank].peek(row as usize))
    }

    /// Combined access counters over all 8 banks.
    pub fn stats(&self) -> SramStats {
        let mut s = SramStats::default();
        for b in &self.banks {
            s.merge(&b.stats());
        }
        s
    }

    /// Resets the access counters (contents kept).
    pub fn reset_stats(&mut self) {
        for b in &mut self.banks {
            b.reset_stats();
        }
    }

    /// Flips one bit of the entry at (`row`, `bank`) — soft-error fault
    /// injection for resilience experiments.
    ///
    /// # Panics
    ///
    /// Panics if `row`, `bank` or `bit` is out of range.
    pub fn inject_bit_flip(&mut self, row: u32, bank: usize, bit: u32) {
        self.banks[bank].inject_bit_flip(row as usize, bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omu_geometry::FixedLogOdds;

    #[test]
    fn entries_land_in_their_bank() {
        let mut m = TreeMem::new(16);
        let e = NodeEntry {
            ptr: 5,
            tags: 0x00FF,
            prob: FixedLogOdds::from_f32(1.0),
        };
        m.write_entry(3, 2, e);
        assert_eq!(m.read_entry(3, 2), e);
        assert_eq!(m.read_entry(3, 1), NodeEntry::EMPTY);
    }

    #[test]
    fn row_operations_touch_all_banks() {
        let mut m = TreeMem::new(8);
        let row: [NodeEntry; 8] = std::array::from_fn(|i| NodeEntry {
            ptr: i as u32,
            tags: 0,
            prob: FixedLogOdds::from_bits(i as i16),
        });
        m.write_row(2, row);
        assert_eq!(m.read_row(2), row);
        // 8 writes + 8 reads counted.
        assert_eq!(m.stats().writes, 8);
        assert_eq!(m.stats().reads, 8);
    }

    #[test]
    fn peek_does_not_count() {
        let mut m = TreeMem::new(4);
        m.write_entry(1, 0, NodeEntry::EMPTY);
        let before = m.stats();
        let _ = m.peek_entry(1, 0);
        assert_eq!(m.stats(), before);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut m = TreeMem::new(4);
        let e = NodeEntry {
            ptr: 9,
            tags: 1,
            prob: FixedLogOdds::ZERO,
        };
        m.write_entry(0, 7, e);
        m.reset_stats();
        assert_eq!(m.stats().accesses(), 0);
        assert_eq!(m.peek_entry(0, 7), e);
    }
}
