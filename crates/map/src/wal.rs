//! The scan write-ahead log: record framing, the streaming record
//! writer, segment naming, and torn-tail-tolerant reading.
//!
//! Before the service writer applies a drained scan batch, it hands the
//! batch's scans to the durable thread, which appends one WAL record
//! describing the batch and syncs it. Records are length-prefixed and
//! CRC-framed:
//!
//! ```text
//! [u32 payload len | u32 CRC-32 of payload | payload]
//! payload = u64 batch seq
//!           u32 scan count
//!           per scan: origin (3 × f64) | u32 point count | points (3 × f64 each)
//! ```
//!
//! All integers and floats are little-endian. The ingested scans are the
//! journal's only copy of the points: [`RecordWriter`] encodes a record
//! straight from them through one fixed [`WAL_BUFFER_BYTES`] buffer, in
//! two passes. The first computes the payload's CRC; the second writes
//! the header and the payload, one [`DurableFile::append`] per full
//! buffer, then syncs once. So journaling a batch holds 64 KiB however
//! large the batch is.
//!
//! A crash can tear the final record at any byte. [`SegmentReader`]
//! walks a segment one record at a time and stops at the first record
//! whose frame (length, CRC) or structure (scan count, every point count
//! against the remaining bytes, no trailing bytes) does not validate;
//! [`SegmentReader::torn`] then says whether bytes were cut. Replaying
//! the surviving prefix reproduces the pre-crash map bit-identically,
//! because map content depends only on the scan sequence (batch
//! boundaries only affect publish epochs). A record's scans are replayed
//! only after its whole structure checked out, so a malformed record is
//! cut whole even when its CRC matches.
//!
//! Segments are named `wal-{startseq}.log` where `startseq` is the
//! first batch sequence number the segment may contain. The writer
//! rotates to a fresh segment exactly when it triggers a checkpoint
//! covering every batch below the new start, so a segment is
//! garbage-collectable as soon as a durable checkpoint's coverage
//! reaches or passes the *next* segment's start.

use std::io;
use std::sync::Arc;

use omu_geometry::{Point3, Scan};
use omu_octree::{crc32, Crc32};

use crate::durable::DurableFile;

/// Size of the durable thread's record buffer. The record header shares
/// the first buffer with the payload, and every full buffer is one
/// append, so no append is larger than this.
pub(crate) const WAL_BUFFER_BYTES: usize = 64 * 1024;

/// `u32 payload len | u32 CRC`.
const HEADER_BYTES: usize = 8;
/// One point or origin: three `f64`s.
const POINT_BYTES: usize = 24;
/// `u64 batch seq | u32 scan count`.
const PAYLOAD_HEAD_BYTES: usize = 12;
/// Per scan: the origin and a `u32` point count.
const SCAN_HEAD_BYTES: usize = POINT_BYTES + 4;

/// Segment name for the segment whose first record is batch
/// `start_seq`. Zero-padded so lexicographic order is numeric order.
pub(crate) fn wal_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.log")
}

/// Parses a segment name produced by [`wal_name`].
pub(crate) fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Checkpoint blob name: `covers_seq` batches (all with seq <
/// `covers_seq`) are folded in, published at map epoch `epoch`.
pub(crate) fn ckpt_name(covers_seq: u64, epoch: u32) -> String {
    format!("ckpt-{covers_seq:020}-{epoch:010}.omut")
}

/// Parses a checkpoint name into `(covers_seq, epoch)`.
pub(crate) fn parse_ckpt_name(name: &str) -> Option<(u64, u32)> {
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".omut")?;
    let (seq, epoch) = stem.split_once('-')?;
    Some((seq.parse().ok()?, epoch.parse().ok()?))
}

/// Writes WAL records from the ingested scans through one fixed buffer,
/// allocated once per durable thread.
pub(crate) struct RecordWriter {
    buf: Box<[u8]>,
}

impl RecordWriter {
    pub(crate) fn new() -> Self {
        RecordWriter {
            buf: vec![0; WAL_BUFFER_BYTES].into_boxed_slice(),
        }
    }

    /// Appends the record of batch `seq` to `file` and syncs it.
    ///
    /// # Errors
    ///
    /// The first failing append or sync (earlier appends may have
    /// persisted a prefix of the record), or `InvalidInput`, with
    /// nothing written, when the payload would not fit its `u32` length
    /// prefix.
    pub(crate) fn write(
        &mut self,
        file: &mut dyn DurableFile,
        seq: u64,
        scans: &[Arc<Scan>],
    ) -> io::Result<()> {
        let len = payload_len(scans).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "a WAL record payload must fit in 4 GiB",
            )
        })?;
        let mut crc = Crc32::new();
        Staging::new(&mut self.buf, |chunk: &[u8]| {
            crc.update(chunk);
            Ok(())
        })
        .payload(seq, scans)?;
        let mut out = Staging::new(&mut self.buf, |chunk: &[u8]| file.append(chunk));
        out.put(&len.to_le_bytes())?;
        out.put(&crc.finish().to_le_bytes())?;
        out.payload(seq, scans)?;
        file.sync()
    }
}

/// The payload length of a record holding `scans`, if it fits the
/// `u32` length prefix (which then also bounds every count).
fn payload_len(scans: &[Arc<Scan>]) -> Option<u32> {
    let points: usize = scans.iter().map(|s| s.len()).sum();
    let len = scans
        .len()
        .checked_mul(SCAN_HEAD_BYTES)?
        .checked_add(points.checked_mul(POINT_BYTES)?)?
        .checked_add(PAYLOAD_HEAD_BYTES)?;
    u32::try_from(len).ok()
}

/// One pass of a record through the writer's buffer: `put` copies bytes
/// in and hands every full buffer to `sink`, and `payload` ends the pass
/// by handing over the remainder.
struct Staging<'b, F> {
    buf: &'b mut [u8],
    len: usize,
    sink: F,
}

impl<'b, F: FnMut(&[u8]) -> io::Result<()>> Staging<'b, F> {
    fn new(buf: &'b mut [u8], sink: F) -> Self {
        Staging { buf, len: 0, sink }
    }

    fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            let n = bytes.len().min(self.buf.len() - self.len);
            let (head, rest) = bytes.split_at(n);
            self.buf[self.len..self.len + n].copy_from_slice(head);
            self.len += n;
            bytes = rest;
            if self.len == self.buf.len() {
                (self.sink)(self.buf)?;
                self.len = 0;
            }
        }
        Ok(())
    }

    /// Stages points in bulk: whole points go straight into the free
    /// room of the buffer, and only a point that straddles two buffers
    /// goes through `put`.
    fn put_points(&mut self, mut points: &[Point3]) -> io::Result<()> {
        while let Some((&first, rest)) = points.split_first() {
            let room = (self.buf.len() - self.len) / POINT_BYTES;
            if room == 0 {
                self.put(&point_bytes(first))?;
                points = rest;
                continue;
            }
            let (now, later) = points.split_at(room.min(points.len()));
            let end = self.len + now.len() * POINT_BYTES;
            for (out, &p) in self.buf[self.len..end]
                .chunks_exact_mut(POINT_BYTES)
                .zip(now)
            {
                out.copy_from_slice(&point_bytes(p));
            }
            self.len = end;
            if self.len == self.buf.len() {
                (self.sink)(self.buf)?;
                self.len = 0;
            }
            points = later;
        }
        Ok(())
    }

    /// Stages the payload of batch `seq`, then hands over what is left
    /// in the buffer. The counts fit in `u32`: [`payload_len`] checked.
    fn payload(mut self, seq: u64, scans: &[Arc<Scan>]) -> io::Result<()> {
        self.put(&seq.to_le_bytes())?;
        self.put(&(scans.len() as u32).to_le_bytes())?;
        for scan in scans {
            self.put(&point_bytes(scan.origin))?;
            self.put(&(scan.len() as u32).to_le_bytes())?;
            self.put_points(scan.cloud.points())?;
        }
        if self.len > 0 {
            (self.sink)(&self.buf[..self.len])?;
        }
        Ok(())
    }
}

/// A point's wire bytes: `x`, `y`, `z` as little-endian `f64`s.
fn point_bytes(p: Point3) -> [u8; POINT_BYTES] {
    let mut b = [0u8; POINT_BYTES];
    b[..8].copy_from_slice(&p.x.to_le_bytes());
    b[8..16].copy_from_slice(&p.y.to_le_bytes());
    b[16..].copy_from_slice(&p.z.to_le_bytes());
    b
}

/// Walks a segment one record at a time. Each record is validated whole
/// (frame, then structure) before it is handed out, and the walk ends at
/// the first record that fails; the reader allocates nothing.
pub(crate) struct SegmentReader<'a> {
    rest: &'a [u8],
}

impl<'a> SegmentReader<'a> {
    pub(crate) fn new(segment: &'a [u8]) -> Self {
        SegmentReader { rest: segment }
    }

    /// True once the walk has ended before the segment's end: trailing
    /// bytes failed to validate and were cut.
    pub(crate) fn torn(&self) -> bool {
        !self.rest.is_empty()
    }
}

impl<'a> Iterator for SegmentReader<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        let (header, frame) = self.rest.split_first_chunk::<HEADER_BYTES>()?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        let (payload, after) = frame.split_at_checked(len)?;
        if crc32(payload) != crc {
            return None;
        }
        let record = Record::parse(payload)?;
        self.rest = after;
        Some(record)
    }
}

/// One validated record: its batch sequence number and its scans, still
/// encoded.
pub(crate) struct Record<'a> {
    pub(crate) seq: u64,
    /// The scan section: exactly the record's scans, back to back.
    scans: &'a [u8],
}

impl<'a> Record<'a> {
    /// Checks the whole structure of a CRC-valid payload: the scan
    /// count, every point count against the bytes left, and no trailing
    /// bytes. Every scan consumes at least [`SCAN_HEAD_BYTES`], so a
    /// corrupt count ends the loop within the payload's length.
    fn parse(payload: &'a [u8]) -> Option<Self> {
        let mut p = payload;
        let seq = take_u64(&mut p)?;
        let scan_count = take_u32(&mut p)?;
        let scans = p;
        for _ in 0..scan_count {
            take_point(&mut p)?;
            let points = take_u32(&mut p)? as usize;
            p = p.get(points.checked_mul(POINT_BYTES)?..)?;
        }
        p.is_empty().then_some(Record { seq, scans })
    }

    /// Decodes the scans in order into `points`, cleared and refilled per
    /// scan so one buffer serves a whole replay, and hands each to
    /// `apply`. The buffer grows only to the largest scan's point count,
    /// which [`Self::parse`] bounded by the record's length.
    pub(crate) fn replay(
        &self,
        points: &mut Vec<Point3>,
        mut apply: impl FnMut(Point3, &[Point3]),
    ) {
        let mut p = self.scans;
        while let (Some(origin), Some(count)) = (take_point(&mut p), take_u32(&mut p)) {
            let len = (count as usize).checked_mul(POINT_BYTES);
            let Some((mut body, rest)) = len.and_then(|len| p.split_at_checked(len)) else {
                return;
            };
            points.clear();
            points.reserve(count as usize);
            while let Some(point) = take_point(&mut body) {
                points.push(point);
            }
            apply(origin, points);
            p = rest;
        }
    }
}

/// Replays a WAL segment the way recovery reads it: every valid record's
/// scans in order, through the caller's `points` buffer, which is the
/// reader's only allocation. Returns the number of records replayed and
/// whether trailing bytes were cut. Sequence numbers reach `apply`
/// unchecked; recovery's gap check sits above the reader. Test hook for
/// the decoder's mutation suite.
#[doc(hidden)]
pub fn debug_replay_wal_segment(
    segment: &[u8],
    points: &mut Vec<Point3>,
    mut apply: impl FnMut(u64, Point3, &[Point3]),
) -> (u64, bool) {
    let mut reader = SegmentReader::new(segment);
    let mut records = 0;
    for record in reader.by_ref() {
        record.replay(points, |origin, pts| apply(record.seq, origin, pts));
        records += 1;
    }
    (records, reader.torn())
}

fn take_u32(p: &mut &[u8]) -> Option<u32> {
    let (head, rest) = p.split_first_chunk::<4>()?;
    *p = rest;
    Some(u32::from_le_bytes(*head))
}

fn take_u64(p: &mut &[u8]) -> Option<u64> {
    let (head, rest) = p.split_first_chunk::<8>()?;
    *p = rest;
    Some(u64::from_le_bytes(*head))
}

fn take_f64(p: &mut &[u8]) -> Option<f64> {
    let (head, rest) = p.split_first_chunk::<8>()?;
    *p = rest;
    Some(f64::from_le_bytes(*head))
}

fn take_point(p: &mut &[u8]) -> Option<Point3> {
    Some(Point3::new(take_f64(p)?, take_f64(p)?, take_f64(p)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omu_geometry::PointCloud;

    /// An in-memory segment.
    #[derive(Default)]
    struct MemFile(Vec<u8>);

    impl DurableFile for MemFile {
        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            self.0.extend_from_slice(data);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One decoded record: the batch sequence number and its scans.
    #[derive(Debug, PartialEq)]
    struct Decoded {
        seq: u64,
        scans: Vec<Scan>,
    }

    /// The bytes [`RecordWriter`] appends for one record.
    fn encode_record(seq: u64, scans: &[Scan]) -> Vec<u8> {
        let shared: Vec<Arc<Scan>> = scans.iter().cloned().map(Arc::new).collect();
        let mut file = MemFile::default();
        RecordWriter::new().write(&mut file, seq, &shared).unwrap();
        file.0
    }

    /// Replays a segment through [`SegmentReader`] into owned scans.
    fn decode_segment(bytes: &[u8]) -> (Vec<Decoded>, bool) {
        let mut reader = SegmentReader::new(bytes);
        let mut points = Vec::new();
        let records = reader
            .by_ref()
            .map(|record| {
                let mut scans = Vec::new();
                record.replay(&mut points, |origin, pts| {
                    scans.push(Scan::new(origin, PointCloud::from(pts.to_vec())));
                });
                Decoded {
                    seq: record.seq,
                    scans,
                }
            })
            .collect();
        (records, reader.torn())
    }

    fn sample_scans() -> Vec<Scan> {
        vec![
            Scan::new(
                Point3::new(0.5, -1.0, 0.25),
                PointCloud::from(vec![
                    Point3::new(1.0, 2.0, 3.0),
                    Point3::new(-4.0, 0.0, 9.5),
                ]),
            ),
            Scan::new(Point3::ZERO, PointCloud::new()),
        ]
    }

    #[test]
    fn record_roundtrips() {
        let scans = sample_scans();
        let mut segment = encode_record(7, &scans);
        segment.extend_from_slice(&encode_record(8, &scans[..1]));
        let (records, torn) = decode_segment(&segment);
        assert!(!torn);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 7);
        assert_eq!(records[0].scans, scans);
        assert_eq!(records[1].seq, 8);
        assert_eq!(records[1].scans, scans[..1]);
    }

    #[test]
    fn empty_segment_is_clean() {
        assert_eq!(decode_segment(&[]), (vec![], false));
    }

    #[test]
    fn every_truncation_of_the_final_record_is_tolerated() {
        let scans = sample_scans();
        let mut segment = encode_record(0, &scans);
        let first = segment.len();
        segment.extend_from_slice(&encode_record(1, &scans));
        for cut in first..segment.len() - 1 {
            let (records, torn) = decode_segment(&segment[..cut]);
            // A cut exactly on the record boundary is indistinguishable
            // from a segment that never held the second record — clean.
            assert_eq!(torn, cut > first, "cut at {cut}");
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(records[0].seq, 0);
        }
    }

    #[test]
    fn corrupt_byte_cuts_the_tail() {
        let scans = sample_scans();
        let mut segment = encode_record(0, &scans);
        let first = segment.len();
        segment.extend_from_slice(&encode_record(1, &scans));
        // Flip a payload byte of the second record: its CRC fails, the
        // first record survives.
        segment[first + 12] ^= 0xFF;
        let (records, torn) = decode_segment(&segment);
        assert!(torn);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn names_roundtrip_and_sort_numerically() {
        assert_eq!(parse_wal_name(&wal_name(42)), Some(42));
        assert_eq!(parse_ckpt_name(&ckpt_name(42, 7)), Some((42, 7)));
        assert_eq!(parse_wal_name("ckpt-0-0.omut"), None);
        assert_eq!(parse_ckpt_name("wal-00000000000000000000.log"), None);
        assert!(wal_name(9) < wal_name(10));
        assert!(ckpt_name(9, 0) < ckpt_name(10, 0));
    }
}
