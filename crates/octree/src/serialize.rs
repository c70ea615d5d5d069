//! Compact binary serialization of occupancy octrees.
//!
//! The format follows the spirit of OctoMap's `.bt`/`.ot` files: a small
//! header followed by a pre-order traversal where each node contributes its
//! log-odds value (as `f32`, lossless for both representations) and a
//! child-presence bitmap.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut};
use omu_geometry::{LogOdds, OccupancyParams, TREE_DEPTH};

use crate::arena::NodeStore;
use crate::checksum::crc32;
use crate::node::Node;
use crate::snapshot::{Snapshot, TreeView};
use crate::tree::OccupancyOctree;

const MAGIC: &[u8; 4] = b"OMUT";
const VERSION: u8 = 1;
/// Version byte of the checksummed frame: a v1-identical payload
/// followed by an 8-byte integrity trailer.
const VERSION_V2: u8 = 2;
/// End-of-frame magic closing the v2 trailer. Detected tail-first so a
/// flipped header byte still routes corruption to a checksum error.
const END_MAGIC: &[u8; 4] = b"ZOMU";
/// v2 trailer: little-endian CRC-32 of everything before it, then
/// [`END_MAGIC`].
const TRAILER_LEN: usize = 8;

/// Errors produced when decoding a serialized octree.
#[derive(Debug, Clone, PartialEq)]
pub enum DeserializeError {
    /// The buffer does not start with the `OMUT` magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The buffer ended before the encoded tree was complete.
    Truncated,
    /// The encoded resolution is invalid.
    BadResolution(f64),
    /// Structural inconsistency (e.g. children below the maximum depth).
    Malformed(&'static str),
    /// A v2 checksummed frame whose integrity trailer does not validate:
    /// the payload, checksum, or end magic was corrupted or cut short.
    ChecksumMismatch,
}

impl fmt::Display for DeserializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeserializeError::BadMagic => write!(f, "missing OMUT magic header"),
            DeserializeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DeserializeError::Truncated => write!(f, "buffer truncated"),
            DeserializeError::BadResolution(r) => write!(f, "invalid resolution {r}"),
            DeserializeError::Malformed(what) => write!(f, "malformed tree encoding: {what}"),
            DeserializeError::ChecksumMismatch => {
                write!(f, "checksum mismatch: corrupted v2 frame")
            }
        }
    }
}

impl Error for DeserializeError {}

impl<V: LogOdds> OccupancyOctree<V> {
    /// Serializes the tree to a compact byte vector.
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::Point3;
    /// use omu_octree::OctreeF32;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// tree.update_point(Point3::ZERO, true)?;
    /// let bytes = tree.to_bytes();
    /// let restored = OctreeF32::from_bytes(&bytes)?;
    /// assert_eq!(restored.snapshot(), tree.snapshot());
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(&self.view(), VERSION, &self.params)
    }

    /// Serializes the tree to the v2 wire format: the v1 payload (with
    /// the version byte bumped) sealed by a CRC-32 trailer and end
    /// magic, so any single-byte corruption is caught at load time as
    /// [`DeserializeError::ChecksumMismatch`]. [`Self::from_bytes`]
    /// accepts both formats.
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::Point3;
    /// use omu_octree::{DeserializeError, OctreeF32};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// tree.update_point(Point3::ZERO, true)?;
    /// let mut bytes = tree.to_bytes_checksummed();
    /// assert_eq!(OctreeF32::from_bytes(&bytes)?.snapshot(), tree.snapshot());
    /// let mid = bytes.len() / 2;
    /// bytes[mid] ^= 0xFF;
    /// assert_eq!(
    ///     OctreeF32::from_bytes(&bytes).unwrap_err(),
    ///     DeserializeError::ChecksumMismatch
    /// );
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_bytes_checksummed(&self) -> Vec<u8> {
        seal(encode(&self.view(), VERSION_V2, &self.params))
    }

    /// Reconstructs a tree from bytes produced by [`Self::to_bytes`]
    /// (v1) or [`Self::to_bytes_checksummed`] (v2).
    ///
    /// # Errors
    ///
    /// Returns [`DeserializeError`] for any malformed input; no partial
    /// tree is ever returned. Corrupted v2 frames — including a flipped
    /// byte anywhere in the buffer — yield
    /// [`DeserializeError::ChecksumMismatch`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, DeserializeError> {
        // Tail-first v2 detection: if the end magic is present, the
        // buffer claims to be a sealed frame, and a corrupted *header*
        // byte must still be reported as a checksum failure rather than
        // BadMagic/BadVersion.
        if data.len() > TRAILER_LEN && data[data.len() - 4..] == *END_MAGIC {
            let (body, trailer) = data.split_at(data.len() - TRAILER_LEN);
            let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
            if crc32(body) == stored {
                return Self::decode(body, VERSION_V2);
            }
            // The trailer does not validate: either a corrupted v2
            // frame, or a v1 stream whose last four payload bytes
            // happen to spell the end magic. Only a clean v1 parse of
            // the whole buffer proves the latter.
            return Self::decode(data, VERSION).map_err(|_| DeserializeError::ChecksumMismatch);
        }
        Self::decode(data, VERSION)
    }

    /// Parses one unsealed payload, demanding `expect_version`.
    fn decode(data: &[u8], expect_version: u8) -> Result<Self, DeserializeError> {
        let mut buf = data;
        if buf.remaining() < 4 || &buf[..4] != MAGIC {
            return Err(DeserializeError::BadMagic);
        }
        buf.advance(4);
        if buf.remaining() < 1 {
            return Err(DeserializeError::Truncated);
        }
        let version = buf.get_u8();
        if version != expect_version {
            // A v2 header reaching the unsealed parse means the
            // integrity trailer was missing, cut short, or corrupted.
            if version == VERSION_V2 {
                return Err(DeserializeError::ChecksumMismatch);
            }
            return Err(DeserializeError::BadVersion(version));
        }
        if buf.remaining() < 8 + 5 * 4 + 1 {
            return Err(DeserializeError::Truncated);
        }
        let resolution = buf.get_f64();
        let params = OccupancyParams {
            hit: buf.get_f32(),
            miss: buf.get_f32(),
            clamp_min: buf.get_f32(),
            clamp_max: buf.get_f32(),
            occupancy_threshold: buf.get_f32(),
        };
        let mut tree = OccupancyOctree::with_params(resolution, params)
            .map_err(|e| DeserializeError::BadResolution(e.resolution))?;
        let has_root = buf.get_u8() != 0;
        if has_root {
            let (value, mask) = read_header::<V>(&mut buf)?;
            let root = tree.arena.alloc_root(value);
            tree.root = root;
            tree.read_children(&mut buf, 0, root, mask)?;
        }
        if buf.has_remaining() {
            return Err(DeserializeError::Malformed("trailing bytes"));
        }
        Ok(tree)
    }

    /// Reconstructs the children of `node` (at `depth`) named by `mask`.
    /// Row allocation goes through `alloc_row_for`/`alloc_leaf_row_for`
    /// so every rebuilt subtree lands in its branch's arena shard,
    /// preserving the invariant the sharded parallel apply relies on;
    /// depth-15 parents rebuild value-only leaf rows.
    fn read_children(
        &mut self,
        buf: &mut &[u8],
        depth: u8,
        node: u32,
        mask: u8,
    ) -> Result<(), DeserializeError> {
        if mask == 0 {
            return Ok(());
        }
        if depth >= TREE_DEPTH {
            return Err(DeserializeError::Malformed("children below maximum depth"));
        }
        if depth + 1 == TREE_DEPTH {
            let row = self.arena.alloc_leaf_row_for(node, V::ZERO);
            self.arena.node_mut(node).set_children(row, mask);
            for pos in 0..8 {
                if mask & (1 << pos) != 0 {
                    let (value, child_mask) = read_header::<V>(buf)?;
                    if child_mask != 0 {
                        return Err(DeserializeError::Malformed("children below maximum depth"));
                    }
                    *self.arena.leaf_value_mut(self.arena.child_of(node, pos)) = value;
                }
            }
        } else {
            let row = self.arena.alloc_row_for(node, Node::leaf(V::ZERO));
            self.arena.node_mut(node).set_children(row, mask);
            for pos in 0..8 {
                if mask & (1 << pos) != 0 {
                    let (value, child_mask) = read_header::<V>(buf)?;
                    let child = self.arena.child_of(node, pos);
                    self.arena.node_mut(child).value = value;
                    self.read_children(buf, depth + 1, child, child_mask)?;
                }
            }
        }
        Ok(())
    }
}

impl<V: LogOdds> Snapshot<V> {
    /// Serializes the pinned epoch to the checksummed v2 wire format.
    ///
    /// The payload is byte-identical to what the live tree's
    /// [`OccupancyOctree::to_bytes_checksummed`] would have produced at
    /// the instant this snapshot was published — but the walk runs
    /// entirely on the snapshot's frozen rows, so a checkpoint thread
    /// can serialize while the writer keeps ingesting at full speed.
    ///
    /// # Examples
    ///
    /// ```
    /// use omu_geometry::Point3;
    /// use omu_octree::OctreeF32;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut tree = OctreeF32::new(0.1)?;
    /// tree.update_point(Point3::new(0.4, 0.0, 0.0), true)?;
    /// let snap = tree.publish_snapshot();
    /// tree.update_point(Point3::new(0.0, 0.4, 0.0), true)?; // writer moves on
    /// let restored = OctreeF32::from_bytes(&snap.to_bytes())?;
    /// assert_eq!(restored.snapshot(), snap.canonical_leaves());
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(encode(&self.view(), VERSION_V2, self.params()))
    }
}

/// Initial capacity of an encode buffer. The buffer grows as the walk
/// goes: sizing it exactly would take a node-counting walk over the whole
/// tree first, which costs more than the few reallocations it saves.
const ENCODE_CAPACITY: usize = 4096;

/// The one encoder: the header, then the pre-order `(value, child mask)`
/// payload of `view` — behind [`OccupancyOctree::to_bytes`] (v1),
/// [`OccupancyOctree::to_bytes_checksummed`] and [`Snapshot::to_bytes`]
/// (v2, sealed afterwards). Only the version byte differs between the
/// v1 and v2 payloads.
fn encode<V: LogOdds>(view: &TreeView<'_, V>, version: u8, params: &OccupancyParams) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ENCODE_CAPACITY);
    write_header(
        &mut buf,
        version,
        view.conv.resolution(),
        params,
        !view.is_empty(),
    );
    if !view.is_empty() {
        write_node(view, &mut buf, view.root(), view.root_node(), 0);
    }
    buf
}

/// Writes node `n` (handle `h`, at `depth`) and its subtree in the
/// pre-order `(value, child mask)` wire form. The in-memory sibling-row
/// layout converts at this boundary: the mask is the node's packed child
/// mask, depth-16 voxels read from their leaf row and always encode a
/// zero mask — byte-identical to the format the block-arena layout
/// produced.
fn write_node<V: LogOdds>(
    view: &TreeView<'_, V>,
    buf: &mut Vec<u8>,
    h: u32,
    n: Node<V>,
    depth: u8,
) {
    buf.put_f32(n.value.to_f32());
    buf.put_u8(n.mask());
    for pos in (0..8).filter(|&pos| n.has_child(pos)) {
        let child = view.child(h, &n, pos);
        if depth + 1 == TREE_DEPTH {
            buf.put_f32(view.leaf_value(child).to_f32());
            buf.put_u8(0);
        } else {
            write_node(view, buf, child, view.node(child), depth + 1);
        }
    }
}

/// Writes the header shared by the v1 and v2 formats: magic, version,
/// resolution, the five occupancy parameters, and the root flag.
fn write_header(
    buf: &mut Vec<u8>,
    version: u8,
    resolution: f64,
    p: &OccupancyParams,
    has_root: bool,
) {
    buf.put_slice(MAGIC);
    buf.put_u8(version);
    buf.put_f64(resolution);
    buf.put_f32(p.hit);
    buf.put_f32(p.miss);
    buf.put_f32(p.clamp_min);
    buf.put_f32(p.clamp_max);
    buf.put_f32(p.occupancy_threshold);
    buf.put_u8(u8::from(has_root));
}

/// Seals a v2 payload: appends the little-endian CRC-32 of everything
/// so far, then the end magic.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(END_MAGIC);
    out
}

/// Reads one node's `(value, child mask)` header.
fn read_header<V: LogOdds>(buf: &mut &[u8]) -> Result<(V, u8), DeserializeError> {
    if buf.remaining() < 5 {
        return Err(DeserializeError::Truncated);
    }
    let value = V::from_f32(buf.get_f32());
    let mask = buf.get_u8();
    Ok((value, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{OctreeF32, OctreeFixed};
    use omu_geometry::{Point3, PointCloud, Scan, VoxelKey};

    fn mapped_tree() -> OctreeF32 {
        let mut t = OctreeF32::new(0.05).unwrap();
        let mut cloud = PointCloud::new();
        for i in 0..100 {
            let a = i as f64 * 0.0628;
            cloud.push(Point3::new(2.0 * a.cos(), 2.0 * a.sin(), 0.3));
        }
        t.insert_scan(&Scan::new(Point3::ZERO, cloud)).unwrap();
        t
    }

    #[test]
    fn roundtrip_preserves_snapshot_and_config() {
        let t = mapped_tree();
        let bytes = t.to_bytes();
        let r = OctreeF32::from_bytes(&bytes).unwrap();
        assert_eq!(r.snapshot(), t.snapshot());
        assert_eq!(r.resolution(), t.resolution());
        assert_eq!(r.params(), t.params());
        assert_eq!(r.num_nodes(), t.num_nodes());
    }

    #[test]
    fn empty_tree_roundtrips() {
        let t = OctreeF32::new(0.1).unwrap();
        let r = OctreeF32::from_bytes(&t.to_bytes()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn fixed_tree_roundtrips_exactly() {
        let mut t = OctreeFixed::new(0.1).unwrap();
        for i in 0..50u16 {
            t.update_key(VoxelKey::new(32768 + i, 32768, 32768), i % 2 == 0);
        }
        let r = OctreeFixed::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(r.snapshot(), t.snapshot());
    }

    #[test]
    fn bad_magic_rejected() {
        let e = OctreeF32::from_bytes(b"NOPE....").unwrap_err();
        assert_eq!(e, DeserializeError::BadMagic);
    }

    #[test]
    fn truncated_buffer_rejected() {
        let t = mapped_tree();
        let bytes = t.to_bytes();
        for cut in [5, 13, 20, bytes.len() - 1] {
            let e = OctreeF32::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    e,
                    DeserializeError::Truncated | DeserializeError::Malformed(_)
                ),
                "cut at {cut} gave {e:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let t = mapped_tree();
        let mut bytes = t.to_bytes();
        bytes.push(0xFF);
        assert_eq!(
            OctreeF32::from_bytes(&bytes).unwrap_err(),
            DeserializeError::Malformed("trailing bytes")
        );
    }

    #[test]
    fn bad_version_rejected() {
        let t = OctreeF32::new(0.1).unwrap();
        let mut bytes = t.to_bytes();
        bytes[4] = 99;
        assert_eq!(
            OctreeF32::from_bytes(&bytes).unwrap_err(),
            DeserializeError::BadVersion(99)
        );
    }

    #[test]
    fn checksummed_roundtrip_preserves_snapshot_and_config() {
        let t = mapped_tree();
        let bytes = t.to_bytes_checksummed();
        let r = OctreeF32::from_bytes(&bytes).unwrap();
        assert_eq!(r.snapshot(), t.snapshot());
        assert_eq!(r.resolution(), t.resolution());
        assert_eq!(r.params(), t.params());
    }

    #[test]
    fn checksummed_frame_is_v1_payload_plus_trailer() {
        let t = mapped_tree();
        let v1 = t.to_bytes();
        let v2 = t.to_bytes_checksummed();
        assert_eq!(v2.len(), v1.len() + TRAILER_LEN);
        // Identical payload except the version byte.
        assert_eq!(&v2[..4], &v1[..4]);
        assert_eq!(v2[4], VERSION_V2);
        assert_eq!(&v2[5..v1.len()], &v1[5..]);
        assert_eq!(&v2[v2.len() - 4..], *END_MAGIC);
    }

    #[test]
    fn corrupted_checksummed_frame_rejected_at_every_byte() {
        let mut t = OctreeF32::new(0.1).unwrap();
        t.update_key(VoxelKey::new(32768, 32768, 32768), true);
        let bytes = t.to_bytes_checksummed();
        for i in 0..bytes.len() {
            let mut mutant = bytes.clone();
            mutant[i] ^= 0xFF;
            assert_eq!(
                OctreeF32::from_bytes(&mutant).unwrap_err(),
                DeserializeError::ChecksumMismatch,
                "flipped byte {i} of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn truncated_checksummed_frame_rejected() {
        let t = mapped_tree();
        let bytes = t.to_bytes_checksummed();
        for cut in [5, 20, bytes.len() / 2, bytes.len() - 1] {
            let e = OctreeF32::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(
                e,
                DeserializeError::ChecksumMismatch,
                "cut at {cut} gave {e:?}"
            );
        }
    }

    #[test]
    fn v1_stream_with_appended_end_magic_is_typed_corruption() {
        // A buffer that ends in the v2 end magic but has no validating
        // CRC and no clean v1 parse must type as checksum corruption —
        // never a panic or a silent partial load. (A *genuine* v1
        // stream can never trip the tail-first detector: its last byte
        // is always a zero mask, not the end magic's final byte.)
        let t = OctreeF32::new(0.1).unwrap();
        let mut bytes = t.to_bytes();
        assert_eq!(*bytes.last().unwrap(), 0);
        bytes.extend_from_slice(b"ZOMU");
        assert_eq!(
            OctreeF32::from_bytes(&bytes).unwrap_err(),
            DeserializeError::ChecksumMismatch
        );
    }

    #[test]
    fn empty_tree_checksummed_roundtrips() {
        let t = OctreeF32::new(0.1).unwrap();
        let r = OctreeF32::from_bytes(&t.to_bytes_checksummed()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn fixed_tree_checksummed_roundtrips_exactly() {
        let mut t = OctreeFixed::new(0.1).unwrap();
        for i in 0..50u16 {
            t.update_key(VoxelKey::new(32768 + i, 32768, 32768), i % 2 == 0);
        }
        let r = OctreeFixed::from_bytes(&t.to_bytes_checksummed()).unwrap();
        assert_eq!(r.snapshot(), t.snapshot());
    }

    #[test]
    fn snapshot_bytes_match_live_checksummed_bytes() {
        let mut t = mapped_tree();
        let snap = t.publish_snapshot();
        let expected = t.to_bytes_checksummed();
        assert_eq!(snap.to_bytes(), expected);

        // The writer moves on; the snapshot keeps serializing the
        // pinned epoch byte-for-byte.
        let mut cloud = PointCloud::new();
        cloud.push(Point3::new(0.5, -1.0, 0.4));
        t.insert_scan(&Scan::new(Point3::ZERO, cloud)).unwrap();
        assert_ne!(t.to_bytes_checksummed(), expected);
        assert_eq!(snap.to_bytes(), expected);

        let restored = OctreeF32::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored.snapshot(), snap.canonical_leaves());
    }

    #[test]
    fn empty_snapshot_serializes() {
        let mut t = OctreeF32::new(0.1).unwrap();
        let snap = t.publish_snapshot();
        assert_eq!(snap.to_bytes(), t.to_bytes_checksummed());
        assert!(OctreeF32::from_bytes(&snap.to_bytes()).unwrap().is_empty());
    }

    #[test]
    fn queries_survive_roundtrip() {
        let t = mapped_tree();
        let r = OctreeF32::from_bytes(&t.to_bytes()).unwrap();
        let probe = Point3::new(2.0, 0.0, 0.3);
        assert_eq!(
            t.occupancy_at(probe).unwrap(),
            r.occupancy_at(probe).unwrap()
        );
    }
}
