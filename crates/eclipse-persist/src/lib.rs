//! `eclipse-persist` — the versioned binary snapshot format shared by every
//! persistable structure in the eclipse workspace.
//!
//! The ROADMAP's heavy-traffic north star needs warm restarts: rebuilding
//! every intersection index from raw points on a process bounce pays the full
//! construction cost per dataset.  The flat-arena index representation is a
//! byte-stable layout, so snapshotting it is mostly a framing problem — and
//! this crate is that framing, kept deliberately tiny and std-only (no serde):
//!
//! * a **container**: magic + format version + a section table, every section
//!   tagged, length-prefixed and protected by a word-wide checksum over its
//!   tag and payload ([`SnapshotWriter`] / [`SnapshotReader`]);
//! * **primitives**: fixed-width little-endian integers, `f64` as its IEEE-754
//!   bit pattern (so infinities and signed zeros round-trip exactly), and
//!   `u32`-length-prefixed UTF-8 strings ([`enc`] / [`Cursor`]);
//! * a **total decoder**: truncations, bit flips, garbage headers, hostile
//!   element counts and trailing bytes all surface as typed [`PersistError`]
//!   values — never a panic, and never an allocation larger than the bytes
//!   actually present (element counts are validated against the remaining
//!   payload before any buffer is reserved, exactly like the serve codec).
//!
//! # Container layout
//!
//! ```text
//! snapshot := magic[8] version:u32le section_count:u32le section*
//! section  := tag:u8 len:u64le checksum:u64le payload[len]
//! ```
//!
//! `checksum` is [`section_checksum_versioned`] over the container version,
//! the tag byte and the payload, so a bit flip anywhere in a section —
//! including its tag — or in the header's version field fails verification.
//! Unknown section tags are preserved and ignored by readers (consumers look
//! sections up by tag), which lets future format minor additions coexist
//! with old readers.  Writers emit [`FORMAT_VERSION`] and readers accept
//! exactly that version: an older or newer file is rejected outright with
//! [`PersistError::UnsupportedVersion`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt;
use std::slice::ChunksExact;

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"ECLSNAP\0";

/// The format version this crate writes and the only one it reads.
///
/// Version history:
/// * **1** — initial container; tree configs carry no split-strategy fields.
/// * **2** — tree configs gained explicit split-strategy fields.
/// * **3** — engine dataset sections gained a trailing mutation-epoch
///   counter, and section checksums became version-bound so header version
///   flips are detected.
/// * **4** — the section checksum became the 4-lane word hash of
///   [`section_checksum_versioned`] in place of byte-serial FNV-1a, so a
///   restore verifies at memory speed.
/// * **5** — an index snapshot holds the skyline and its hyperplane slab
///   only: the index-config and tree-arena sections are gone, since no probe
///   reads a tree.
///
/// Versions 1 to 4 are no longer read.
pub const FORMAT_VERSION: u32 = 5;

/// Everything that can go wrong while decoding a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The header names a format version this reader does not speak.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The buffer ended before a field could be read in full.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// The container decoded cleanly but bytes were left over.
    TrailingBytes(usize),
    /// A section's stored checksum does not match its bytes.
    ChecksumMismatch {
        /// Tag of the corrupted section.
        section: u8,
    },
    /// A section the consumer requires is absent.
    MissingSection {
        /// Tag of the absent section.
        section: u8,
    },
    /// An unrecognized enum tag inside a section payload.
    UnknownTag {
        /// Which field carried the tag.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A structurally valid but semantically impossible value (an element
    /// count larger than the remaining bytes, bad UTF-8, an inconsistent
    /// cross-reference, …).
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not an eclipse snapshot (bad magic)"),
            PersistError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this reader speaks {FORMAT_VERSION})"
                )
            }
            PersistError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated snapshot: needed {needed} bytes, {remaining} left"
                )
            }
            PersistError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot"),
            PersistError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:#04x}")
            }
            PersistError::MissingSection { section } => {
                write!(f, "required section {section:#04x} is missing")
            }
            PersistError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag {tag:#04x}")
            }
            PersistError::Malformed(reason) => write!(f, "malformed snapshot: {reason}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Result alias for decode operations.
pub type PersistResult<T> = std::result::Result<T, PersistError>;

/// FNV-1a over a byte slice: a small, stable, byte-serial hash.  Snapshot
/// sections no longer use it (see [`section_checksum_versioned`]), but the
/// shard router places datasets by `fnv1a(name) % members` and snapshot file
/// names carry it, so its output must never change.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes (`state` is a previous return
/// value, or the FNV offset basis to start).
pub fn fnv1a_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The odd multipliers of the section checksum (the xxHash64 primes): the
/// first drives every absorb step, the rest seed the lanes and the fold.
const PRIME: [u64; 5] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
    0x27d4_eb2f_1656_67c5,
];

/// Absorbs one 64-bit word into a checksum state.  For a fixed state this is
/// a bijection of the word, and for a fixed word a bijection of the state:
/// XOR, multiplication by an odd constant (mod 2^64) and rotation are each
/// invertible.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(PRIME[0]).rotate_left(31)
}

/// The little-endian word of an exactly-8-byte chunk.
#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// The checksum stored with a section: a non-cryptographic 4-lane word hash
/// over the container version, the tag byte and the payload, with the lane
/// structure of xxHash64 (Y. Collet).
///
/// * **Lanes.**  The payload is read as little-endian 64-bit words; word
///   `i` of every 32-byte block goes to lane `i`, each step being
///   `lane = ((lane ^ w) * odd).rotate_left(31)`.  The four lanes are
///   independent dependency chains, so the hash runs at several bytes per
///   cycle instead of FNV-1a's one dependent multiply per byte.
/// * **Tail.**  The words after the last whole block go to lanes 0, 1, 2 in
///   turn; a final sub-word tail is zero-padded to a word and goes to the
///   next lane.
/// * **Fold.**  A fold state is seeded by absorbing `version << 8 | tag`,
///   then absorbs the four lanes in order and the payload length (which
///   tells a zero-padded tail from real zero bytes), and ends with the
///   xxHash64 avalanche (itself a bijection).
///
/// **Single-word guarantee.**  Every payload byte lies in exactly one
/// aligned 8-byte word (the zero-padded tail counts as one), and every word
/// is absorbed exactly once.  Take two payloads of the same length that
/// differ only inside one word.  The lane absorbing that word ends that step
/// in a different state, because the step is a bijection of the word; each
/// later step of that lane is a bijection of the state, so the lane ends
/// different while the other lanes end equal.  The fold step absorbing that
/// lane is a bijection of the lane, and every later fold step and the
/// avalanche are bijections of the fold state, so the checksums differ.  Any
/// corruption confined to one aligned word, which includes every single-bit
/// flip, is therefore always detected, not just with high probability.  The
/// same argument covers a changed tag or version alone: `version << 8 | tag`
/// is injective, it is the seed word of the fold, and everything after is a
/// bijection of the fold state.  Corruption spread over several words is
/// caught with the usual ~2^-64 odds of a 64-bit hash.
pub fn section_checksum_versioned(version: u32, tag: u8, payload: &[u8]) -> u64 {
    let mut lanes = [PRIME[1], PRIME[2], PRIME[3], PRIME[4]];
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = absorb(lanes[0], word(&block[0..8]));
        lanes[1] = absorb(lanes[1], word(&block[8..16]));
        lanes[2] = absorb(lanes[2], word(&block[16..24]));
        lanes[3] = absorb(lanes[3], word(&block[24..32]));
    }
    // At most 31 bytes remain: up to three whole words and a sub-word tail,
    // one lane each.
    for (lane, chunk) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..chunk.len()].copy_from_slice(chunk);
        *lane = absorb(*lane, u64::from_le_bytes(padded));
    }
    let seed = (u64::from(version) << 8) | u64::from(tag);
    let mut h = absorb(PRIME[0], seed);
    for lane in lanes {
        h = absorb(h, lane);
    }
    h = absorb(h, payload.len() as u64);
    // The xxHash64 avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME[1]);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME[2]);
    h ^ (h >> 32)
}

/// Little-endian encoding primitives (the writer side of [`Cursor`]).
pub mod enc {
    /// Appends one byte.
    pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` little-endian.
    pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
        put_u64(buf, v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern in `u64le` — infinities,
    /// NaN payloads and signed zeros round-trip bit-exactly.
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        put_u64(buf, v.to_bits());
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    /// Panics if the string is longer than `u32::MAX` bytes.
    pub fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_u32(
            buf,
            u32::try_from(s.len()).expect("string fits a u32 length"),
        );
        buf.extend_from_slice(s.as_bytes());
    }
}

/// Fixed-offset reads inside one fixed-width record (the reader side of a
/// run of records taken with [`Cursor::records`]).
pub mod dec {
    /// The `f64` (IEEE-754 bits, `u64le`) at byte offset `at` of `record`.
    ///
    /// # Panics
    /// Panics when `record` is shorter than `at + 8` bytes; record widths are
    /// fixed by the decoder, never read from the input.
    #[inline]
    pub fn f64_at(record: &[u8], at: usize) -> f64 {
        f64::from_bits(u64::from_le_bytes(
            record[at..at + 8].try_into().expect("8-byte field"),
        ))
    }
}

/// Bounds-checked cursor over a section payload.  Every read either returns
/// the decoded value or a typed [`PersistError`]; nothing panics and no read
/// allocates more than the bytes actually present.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> PersistResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] at end of payload.
    pub fn u8(&mut self) -> PersistResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32le`.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] at end of payload.
    pub fn u32(&mut self) -> PersistResult<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    /// Reads a `u64le`.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] at end of payload.
    pub fn u64(&mut self) -> PersistResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64le` and converts it to `usize`.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] at end of payload;
    /// [`PersistError::Malformed`] when the value exceeds `usize`.
    pub fn usize64(&mut self) -> PersistResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            PersistError::Malformed(format!("value {v} exceeds usize on this platform"))
        })
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] at end of payload.
    pub fn f64(&mut self) -> PersistResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an element count (`u64le`) and validates it against the bytes
    /// actually remaining (`min_elem_bytes` per element, which must be ≥ 1),
    /// so a hostile count can never trigger an oversized allocation.
    ///
    /// # Errors
    /// [`PersistError::Malformed`] when the claimed count cannot fit in the
    /// remaining payload.
    pub fn count(&mut self, min_elem_bytes: usize) -> PersistResult<usize> {
        debug_assert!(min_elem_bytes >= 1, "elements occupy at least one byte");
        let count = self.u64()?;
        let needed = count.saturating_mul(min_elem_bytes as u64);
        if needed > self.remaining() as u64 {
            return Err(PersistError::Malformed(format!(
                "element count {count} needs at least {needed} bytes, {} left",
                self.remaining()
            )));
        }
        Ok(count as usize)
    }

    /// Reads exactly `n` `f64`s.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] when fewer than `8·n` bytes remain.
    pub fn f64_vec(&mut self, n: usize) -> PersistResult<Vec<f64>> {
        Ok(self.records(n, 8)?.map(|r| dec::f64_at(r, 0)).collect())
    }

    /// Consumes `count` records of `width` bytes each in one bounds check and
    /// yields them as `width`-byte slices, to be read with the [`dec`]
    /// helpers: one `take` for a whole node table instead of a checked read
    /// per field.
    ///
    /// # Errors
    /// [`PersistError::Malformed`] when `count · width` overflows;
    /// [`PersistError::Truncated`] when fewer bytes remain.
    ///
    /// # Panics
    /// Panics when `width` is zero (a decoder bug, not an input defect).
    pub fn records(&mut self, count: usize, width: usize) -> PersistResult<ChunksExact<'a, u8>> {
        assert!(width > 0, "records occupy at least one byte");
        let bytes = self.take(count.checked_mul(width).ok_or_else(|| {
            PersistError::Malformed(format!("{count} records of {width} bytes overflow"))
        })?)?;
        Ok(bytes.chunks_exact(width))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`PersistError::Truncated`] / [`PersistError::Malformed`] on short or
    /// non-UTF-8 payloads.
    pub fn str(&mut self) -> PersistResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Malformed("string is not valid UTF-8".to_string()))
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    /// [`PersistError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> PersistResult<()> {
        if self.remaining() != 0 {
            return Err(PersistError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Builds a snapshot container: sections are appended with
/// [`SnapshotWriter::section`] and the finished byte buffer (magic, version,
/// section table) is produced by [`SnapshotWriter::finish`].
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(u8, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty container.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends one section.  Tags should be unique within a snapshot —
    /// [`SnapshotReader::parse`] rejects duplicates.
    pub fn section(&mut self, tag: u8, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Serializes the container.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        enc::put_u32(&mut out, FORMAT_VERSION);
        enc::put_u32(
            &mut out,
            u32::try_from(self.sections.len()).expect("section count fits a u32"),
        );
        for (tag, payload) in &self.sections {
            enc::put_u8(&mut out, *tag);
            enc::put_u64(&mut out, payload.len() as u64);
            enc::put_u64(
                &mut out,
                section_checksum_versioned(FORMAT_VERSION, *tag, payload),
            );
            out.extend_from_slice(payload);
        }
        out
    }
}

/// Minimum serialized size of one section (tag + length + checksum), used to
/// validate the header's section count before walking the table.
const SECTION_HEADER_BYTES: usize = 1 + 8 + 8;

/// A parsed snapshot container: magic, version and every checksum verified,
/// section payloads exposed as zero-copy slices looked up by tag.
#[derive(Debug, PartialEq, Eq)]
pub struct SnapshotReader<'a> {
    sections: Vec<(u8, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and fully verifies a container: magic, format version, the
    /// section table (every length validated against the bytes actually
    /// present before it is used), every section checksum, no duplicate
    /// tags, and exact consumption of the buffer.
    ///
    /// # Errors
    /// A typed [`PersistError`] for every possible defect; arbitrary input
    /// never panics and never allocates beyond the section table.
    pub fn parse(bytes: &'a [u8]) -> PersistResult<Self> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = cur.u32()?;
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let count = cur.u32()? as usize;
        if count.saturating_mul(SECTION_HEADER_BYTES) > cur.remaining() {
            return Err(PersistError::Malformed(format!(
                "section count {count} cannot fit in {} remaining bytes",
                cur.remaining()
            )));
        }
        let mut sections: Vec<(u8, &'a [u8])> = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = cur.u8()?;
            let len = cur.u64()?;
            let checksum = cur.u64()?;
            if len > cur.remaining() as u64 {
                return Err(PersistError::Truncated {
                    needed: len.min(usize::MAX as u64) as usize,
                    remaining: cur.remaining(),
                });
            }
            let payload = cur.take(len as usize)?;
            if section_checksum_versioned(version, tag, payload) != checksum {
                return Err(PersistError::ChecksumMismatch { section: tag });
            }
            if sections.iter().any(|&(t, _)| t == tag) {
                return Err(PersistError::Malformed(format!(
                    "duplicate section tag {tag:#04x}"
                )));
            }
            sections.push((tag, payload));
        }
        cur.finish()?;
        Ok(SnapshotReader { sections })
    }

    /// The payload of the section with the given tag.
    ///
    /// # Errors
    /// [`PersistError::MissingSection`] when absent.
    pub fn section(&self, tag: u8) -> PersistResult<&'a [u8]> {
        self.sections
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, payload)| payload)
            .ok_or(PersistError::MissingSection { section: tag })
    }

    /// Whether a section with the given tag is present.
    pub fn has(&self, tag: u8) -> bool {
        self.sections.iter().any(|&(t, _)| t == tag)
    }

    /// All sections in file order (unknown tags included).
    pub fn sections(&self) -> impl Iterator<Item = (u8, &'a [u8])> + '_ {
        self.sections.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let mut a = Vec::new();
        enc::put_u32(&mut a, 7);
        enc::put_f64(&mut a, -0.0);
        enc::put_f64(&mut a, f64::INFINITY);
        enc::put_str(&mut a, "véctor ∞");
        w.section(0x01, a);
        w.section(0x7f, vec![1, 2, 3]);
        w.finish()
    }

    #[test]
    fn container_round_trips() {
        let bytes = sample();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(r.has(0x01) && r.has(0x7f) && !r.has(0x02));
        assert_eq!(r.sections().count(), 2);
        let mut cur = Cursor::new(r.section(0x01).unwrap());
        assert_eq!(cur.u32().unwrap(), 7);
        let z = cur.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero survives");
        assert_eq!(cur.f64().unwrap(), f64::INFINITY);
        assert_eq!(cur.str().unwrap(), "véctor ∞");
        cur.finish().unwrap();
        assert_eq!(r.section(0x7f).unwrap(), &[1, 2, 3]);
        assert_eq!(
            r.section(0x02),
            Err(PersistError::MissingSection { section: 0x02 })
        );
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::parse(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                assert!(
                    SnapshotReader::parse(&flipped).is_err(),
                    "flip at byte {pos} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn bad_magic_and_versions_are_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(SnapshotReader::parse(&bytes), Err(PersistError::BadMagic));

        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SnapshotReader::parse(&bytes),
            Err(PersistError::UnsupportedVersion { found: 99 })
        );

        // Version 0 predates the format entirely.
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            SnapshotReader::parse(&bytes),
            Err(PersistError::UnsupportedVersion { found: 0 })
        );
    }

    /// Re-stamps a container at `version`, recomputing every section
    /// checksum for that version (checksums are version-bound, so a bare
    /// header edit would not verify).
    fn restamp(bytes: &[u8], version: u32) -> Vec<u8> {
        let r = SnapshotReader::parse(bytes).unwrap();
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        enc::put_u32(&mut out, version);
        enc::put_u32(&mut out, r.sections.len() as u32);
        for &(tag, payload) in &r.sections {
            enc::put_u8(&mut out, tag);
            enc::put_u64(&mut out, payload.len() as u64);
            enc::put_u64(&mut out, section_checksum_versioned(version, tag, payload));
            out.extend_from_slice(payload);
        }
        out
    }

    #[test]
    fn every_supported_version_parses_and_is_reported() {
        // Only the current version is supported; every other version is
        // rejected and reported as found, even when its checksums verify.
        assert!(SnapshotReader::parse(&restamp(&sample(), FORMAT_VERSION))
            .unwrap()
            .has(0x01));
        for found in [1, 2, 3, 4, FORMAT_VERSION + 1] {
            assert_eq!(
                SnapshotReader::parse(&restamp(&sample(), found)),
                Err(PersistError::UnsupportedVersion { found }),
                "a container stamped v{found} must be rejected"
            );
        }
    }

    #[test]
    fn version_field_flips_fail_section_checksums() {
        // The version participates in every section checksum, and the
        // reader accepts only the current version: rewriting the header
        // version without re-checksumming must fail, including the
        // single-bit neighbours of 5 (1, 4 and 7).
        for other in [1, 4, 7] {
            let mut bytes = sample();
            bytes[8..12].copy_from_slice(&u32::to_le_bytes(other));
            assert!(
                SnapshotReader::parse(&bytes).is_err(),
                "re-stamping v{FORMAT_VERSION} as v{other} without re-checksumming must fail"
            );
        }
        // The checksum itself is bound to the version it was written under.
        assert_ne!(
            section_checksum_versioned(1, 0x01, b"xy"),
            section_checksum_versioned(FORMAT_VERSION, 0x01, b"xy")
        );
    }

    #[test]
    fn hostile_section_counts_and_lengths_are_rejected_before_allocation() {
        // A header claiming u32::MAX sections in a tiny buffer.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        enc::put_u32(&mut bytes, FORMAT_VERSION);
        enc::put_u32(&mut bytes, u32::MAX);
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(PersistError::Malformed(_))
        ));

        // A section claiming u64::MAX payload bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        enc::put_u32(&mut bytes, FORMAT_VERSION);
        enc::put_u32(&mut bytes, 1);
        enc::put_u8(&mut bytes, 0x01);
        enc::put_u64(&mut bytes, u64::MAX);
        enc::put_u64(&mut bytes, 0);
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn duplicate_tags_and_trailing_bytes_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.section(0x01, vec![]);
        w.section(0x01, vec![]);
        assert!(matches!(
            SnapshotReader::parse(&w.finish()),
            Err(PersistError::Malformed(m)) if m.contains("duplicate")
        ));

        let mut bytes = SnapshotWriter::new().finish();
        bytes.push(0);
        assert_eq!(
            SnapshotReader::parse(&bytes),
            Err(PersistError::TrailingBytes(1))
        );
    }

    #[test]
    fn cursor_counts_are_bounded_by_remaining_bytes() {
        let mut payload = Vec::new();
        enc::put_u64(&mut payload, u64::MAX); // hostile element count
        let mut cur = Cursor::new(&payload);
        assert!(matches!(cur.count(8), Err(PersistError::Malformed(_))));

        let mut payload = Vec::new();
        enc::put_u64(&mut payload, 2);
        enc::put_f64(&mut payload, 1.0);
        enc::put_f64(&mut payload, 2.0);
        let mut cur = Cursor::new(&payload);
        let n = cur.count(8).unwrap();
        assert_eq!(cur.f64_vec(n).unwrap(), vec![1.0, 2.0]);
        cur.finish().unwrap();
    }

    #[test]
    fn cursor_records_take_one_checked_run() {
        let mut payload = Vec::new();
        for (a, x) in [(7u32, 1.5f64), (9, -0.0)] {
            enc::put_u32(&mut payload, a);
            enc::put_f64(&mut payload, x);
        }
        enc::put_u8(&mut payload, 0xaa);
        let mut cur = Cursor::new(&payload);
        let decoded: Vec<(u32, u64)> = cur
            .records(2, 12)
            .unwrap()
            .map(|r| {
                (
                    u32::from_le_bytes(r[..4].try_into().unwrap()),
                    dec::f64_at(r, 4).to_bits(),
                )
            })
            .collect();
        assert_eq!(decoded, [(7, 1.5f64.to_bits()), (9, (-0.0f64).to_bits())]);
        assert_eq!(cur.u8().unwrap(), 0xaa);
        cur.finish().unwrap();

        let mut cur = Cursor::new(&payload);
        assert!(matches!(
            cur.records(3, 12),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            cur.records(usize::MAX, 2),
            Err(PersistError::Malformed(_))
        ));
        assert_eq!(
            cur.remaining(),
            payload.len(),
            "failed reads consume nothing"
        );
    }

    #[test]
    fn cursor_reads_are_total() {
        let mut cur = Cursor::new(&[1, 2]);
        assert!(matches!(cur.u32(), Err(PersistError::Truncated { .. })));
        let mut cur = Cursor::new(&[0xff, 0xff, 0xff, 0xff, b'a']);
        // String length far beyond the buffer.
        assert!(matches!(cur.str(), Err(PersistError::Truncated { .. })));
        // Non-UTF-8 string bytes.
        let mut payload = Vec::new();
        enc::put_u32(&mut payload, 2);
        payload.extend_from_slice(&[0xc3, 0x28]);
        let mut cur = Cursor::new(&payload);
        assert!(matches!(cur.str(), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(fnv1a(b"a"), b"b"), fnv1a(b"ab"));
    }

    #[test]
    fn section_checksum_is_pinned() {
        // Reference vectors for the format-4 section checksum: an empty
        // payload, a sub-word payload, one spanning three whole blocks, a
        // whole-word tail and a sub-word tail, and the same payload under
        // another version.
        let long: Vec<u8> = (0..=112u8).collect();
        for (version, tag, payload, want) in [
            (4, 0x01, &b""[..], 0x3567_b11f_39b7_d8a3),
            (4, 0x01, b"xy", 0xa5bb_cf61_5820_35c4),
            (4, 0x7f, &long[..], 0x37e6_b98f_0dbd_f6d9),
            (3, 0x01, b"xy", 0x088c_0214_22e8_09f9),
        ] {
            assert_eq!(section_checksum_versioned(version, tag, payload), want);
        }
    }

    /// A container holding one section with an `n`-byte payload.
    fn single_section(n: usize) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(0x05, (0..n).map(|i| (i * 37 + 11) as u8).collect());
        w.finish()
    }

    /// Offset of the payload in [`single_section`]: magic, version, section
    /// count, then the tag, length and checksum of the one section.
    const PAYLOAD_AT: usize = 8 + 4 + 4 + SECTION_HEADER_BYTES;

    #[test]
    fn every_single_word_corruption_is_detected() {
        // Payload lengths covering no data, a lone sub-word tail, one word,
        // a block short of a byte, exactly one block, a block plus a byte,
        // and several blocks followed by whole-word and sub-word tails.
        let deltas: Vec<u64> = (0..64)
            .map(|b| 1u64 << b)
            .chain([u64::MAX, 0xff, 0x8000_0000_0000_0001, 0x0123_4567_89ab_cdef])
            .chain((1..=64u64).map(|i| i.wrapping_mul(PRIME[0]).rotate_left(i as u32)))
            .collect();
        for n in [0, 7, 8, 31, 32, 33, 101] {
            let bytes = single_section(n);
            assert_eq!(bytes.len(), PAYLOAD_AT + n);
            SnapshotReader::parse(&bytes).unwrap();
            // Every single-bit flip anywhere in the container.
            for pos in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[pos] ^= 1 << bit;
                    assert!(
                        SnapshotReader::parse(&flipped).is_err(),
                        "n={n}: flip at byte {pos} bit {bit} must be detected"
                    );
                }
            }
            // A nonzero XOR confined to one aligned payload word (the last
            // word may be short; the delta is cut to its bytes).
            for start in (0..n).step_by(8) {
                let len = (n - start).min(8);
                for &delta in &deltas {
                    let delta = delta.to_le_bytes();
                    if delta[..len].iter().all(|&b| b == 0) {
                        continue;
                    }
                    let mut corrupt = bytes.clone();
                    let at = PAYLOAD_AT + start;
                    for (b, d) in corrupt[at..at + len].iter_mut().zip(delta) {
                        *b ^= d;
                    }
                    assert_eq!(
                        SnapshotReader::parse(&corrupt),
                        Err(PersistError::ChecksumMismatch { section: 0x05 }),
                        "n={n}: delta {delta:02x?} on the word at {start} must be detected"
                    );
                }
            }
        }
    }

    #[test]
    fn errors_render() {
        for e in [
            PersistError::BadMagic,
            PersistError::UnsupportedVersion { found: 9 },
            PersistError::Truncated {
                needed: 8,
                remaining: 1,
            },
            PersistError::TrailingBytes(3),
            PersistError::ChecksumMismatch { section: 2 },
            PersistError::MissingSection { section: 4 },
            PersistError::UnknownTag {
                context: "backend",
                tag: 0x42,
            },
            PersistError::Malformed("x".to_string()),
        ] {
            assert!(!e.to_string().is_empty());
        }
        fn is_std_error(_: &dyn std::error::Error) {}
        is_std_error(&PersistError::BadMagic);
    }
}
