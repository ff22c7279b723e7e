//! Persistent columnar snapshots: the binary container format behind
//! `audit_game::persist` and the runtime's checkpoint/restore.
//!
//! The workspace uses no serialization library (see `vendor/README.md`),
//! so — like the umbrella crate's hand-rolled JSON layer — persistence is
//! written by hand. The container is deliberately mmap-shaped:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "AAUDSNAP"
//! 8       4     format version (little-endian u32)
//! 12      4     payload kind   (little-endian u32, caller-defined)
//! 16      8     payload length in bytes (little-endian u64)
//! 24      8     4-lane FNV-1a checksum of the payload u64 words (LE)
//! 32      …     payload: a sequence of sections
//! ```
//!
//! Each section is `[tag u64][body length u64][body…]` with the body
//! padded to an 8-byte boundary, and every scalar inside a body is
//! written as a full little-endian 8-byte word. Section headers are 16
//! bytes and the container header is 32, so **every section body starts
//! 8-byte aligned** — a future memory-mapped reader can borrow `u64`
//! column data zero-copy instead of parsing it. Readers are fully
//! validated: a truncated file, a flipped payload byte, a foreign magic,
//! or a future format version all fail with a typed [`SnapshotError`]
//! before any value is handed to the caller.
//!
//! On top of the container this module defines the codec for the
//! stochastic substrate itself: [`SampleBank`] columns (one section of
//! column-major `u64` counts) and the constructor-parameter
//! enums [`DistParams`] / [`JointParams`] through which count
//! distributions and joint count models round-trip **bit-exactly** —
//! reconstruction re-runs the original constructors on the original
//! parameters (or, where a constructor renormalizes, a trust-the-weights
//! twin), so pmfs, supports, and sampling streams are bit-identical to
//! the saved object.

use crate::bank::SampleBank;
use crate::discrete::{
    Constant, CountDistribution, DiscretizedGaussian, Empirical, Mixture, Poisson, UniformCount,
    Zipf,
};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"AAUDSNAP";

/// Current snapshot format version. Bump when the container layout or any
/// section encoding changes shape; readers reject files from the future
/// (see the format-stability golden in `tests/persist_roundtrip.rs`).
///
/// Version 2 stores a bank as its `u64` columns only. Version 1 files also
/// carry a compact `u32` copy of those columns in section `0x12`; readers
/// never look that section up, so v1 files load unchanged. Version 3
/// changed only the runtime-state payload (its configuration and
/// telemetry sections lost fields, and the warm-start section is gone);
/// a bank's layout is the same as in version 2. The container reader
/// accepts every version up to this one and records which it parsed in
/// [`Snapshot::version`], so a payload codec can refuse versions whose
/// layout it no longer reads.
pub const FORMAT_VERSION: u32 = 3;

/// Size of the fixed container header in bytes.
pub const HEADER_LEN: usize = 32;

/// Typed failure of snapshot encoding or decoding. No variant panics and
/// no partially-decoded value escapes: decoding either returns the full
/// object or one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Filesystem I/O failed (message carries the OS error).
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file was written by a newer format than this reader supports.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// The payload bytes do not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// The buffer ends before the structure it promises.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// The container kind field does not match what the caller expected.
    WrongKind {
        /// Kind the caller asked for.
        expected: u32,
        /// Kind found in the header.
        found: u32,
    },
    /// Structurally invalid content inside a checksummed payload (missing
    /// section, inconsistent shape, out-of-range parameter).
    Malformed(String),
    /// The in-memory object cannot be persisted (e.g. a count distribution
    /// that does not expose snapshot parameters).
    Unsupported(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported version {supported}"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot payload checksum mismatch: header {stored:016x}, computed {computed:016x}"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} bytes, only {available} available"
            ),
            SnapshotError::WrongKind { expected, found } => write!(
                f,
                "snapshot holds payload kind {found}, expected kind {expected}"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot payload: {msg}"),
            SnapshotError::Unsupported(msg) => write!(f, "cannot snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Streaming 64-bit FNV-1a, byte at a time: the workspace's one
/// fingerprint hash (`GameSpec::fingerprint`, the runtime's report, fleet
/// and fault-plan fingerprints). Words fold in as their little-endian
/// bytes. The methods are `#[inline]` so hashing loops in other crates
/// can inline them.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis: the hash of nothing.
    #[inline]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in a byte slice.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in a `u64` as its 8 little-endian bytes.
    #[inline]
    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Four-lane FNV-1a over little-endian `u64` words — the container
/// checksum.
///
/// The payload is 8-byte aligned and padded by construction, so hashing
/// it word-wise is well defined and detects any flipped byte just like
/// the byte-wise fold. Four independent lanes stride the words and are
/// folded (with the total length) into one digest at the end: the lanes
/// break FNV's serial multiply dependency, so the checksum streams at
/// memory speed instead of one multiply-latency per byte — on
/// million-row banks a byte-serial checksum would dominate snapshot load
/// latency, defeating the point of persisting the bank. Trailing bytes
/// of a non-multiple-of-8 input (never produced by the writer) fold in
/// as one zero-padded word.
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [OFFSET; 4];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane ^= u64::from_le_bytes(b[k * 8..k * 8 + 8].try_into().expect("8 bytes"));
            *lane = lane.wrapping_mul(PRIME);
        }
    }
    let mut tail = blocks.remainder().chunks_exact(8);
    let mut k = 0;
    for c in &mut tail {
        lanes[k] ^= u64::from_le_bytes(c.try_into().expect("8 bytes"));
        lanes[k] = lanes[k].wrapping_mul(PRIME);
        k += 1;
    }
    let rest = tail.remainder();
    if !rest.is_empty() {
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        lanes[k] ^= u64::from_le_bytes(w);
        lanes[k] = lanes[k].wrapping_mul(PRIME);
    }
    let mut h = OFFSET;
    for lane in lanes {
        h ^= lane;
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

fn pad8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

// ---------------------------------------------------------------------
// Section body writer/reader
// ---------------------------------------------------------------------

/// Append-only little-endian encoder for one section body. Every scalar
/// occupies a full 8-byte word so offsets inside a body stay 8-aligned
/// without per-field padding.
#[derive(Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty body.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one `u64` word.
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append a `usize` as a `u64` word.
    pub fn put_usize(&mut self, x: usize) {
        self.put_u64(x as u64);
    }

    /// Append an `f64` bit-exactly.
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// Append a boolean as a 0/1 word.
    pub fn put_bool(&mut self, x: bool) {
        self.put_u64(x as u64);
    }

    /// Append a length-prefixed UTF-8 string, padded to 8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.resize(pad8(self.buf.len()), 0);
    }

    /// Append a length-prefixed `u64` column (raw little-endian words).
    pub fn put_u64s(&mut self, xs: &[u64]) {
        self.put_usize(xs.len());
        self.buf.reserve(xs.len() * 8);
        for &x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed `f64` column (bit-exact words).
    pub fn put_f64s(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        self.buf.reserve(xs.len() * 8);
        for &x in xs {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian decoder over one section body. Every accessor
/// validates bounds and value ranges; failures surface as
/// [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`].
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapshotError::Malformed("length overflow".into()))?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated {
                needed: end,
                available: self.buf.len(),
            });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one `u64` word.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a `u64` word that must fit a `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Malformed("count exceeds usize".into()))
    }

    /// Read an `f64` bit-exactly.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a 0/1 word as a boolean.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u64()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!(
                "boolean word holds {other}"
            ))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.get_usize()?;
        let padded = len
            .checked_next_multiple_of(8)
            .ok_or(SnapshotError::Malformed("string length overflow".into()))?;
        let bytes = self.take(padded)?;
        String::from_utf8(bytes[..len].to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not UTF-8".into()))
    }

    /// Read a length-prefixed `u64` column.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.get_usize()?;
        let bytes = self.take(
            len.checked_mul(8)
                .ok_or(SnapshotError::Malformed("column length overflow".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Read a length-prefixed `f64` column (bit-exact).
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        Ok(self.get_u64s()?.into_iter().map(f64::from_bits).collect())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------

/// An in-memory snapshot container: a payload kind plus tagged sections.
///
/// Sections live in one contiguous buffer in their on-disk framing
/// (`[tag][len][body pad8]…`) with a small `(tag, range)` index over it —
/// the same zero-copy shape whether the container was built by a writer
/// or parsed from a file, so serializing is one buffer copy and parsing
/// a million-row bank does not re-copy its columns section by section.
pub struct Snapshot {
    /// Format version from the parsed header; [`FORMAT_VERSION`] for a
    /// container built in memory.
    pub version: u32,
    /// Caller-defined payload kind (what the sections describe).
    pub kind: u32,
    /// Section framing + bodies, exactly as written to disk.
    payload: Vec<u8>,
    /// `(tag, body range into payload)` in append order.
    index: Vec<(u64, std::ops::Range<usize>)>,
}

impl Snapshot {
    /// An empty container of the given payload kind.
    pub fn new(kind: u32) -> Self {
        Self {
            version: FORMAT_VERSION,
            kind,
            payload: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Append a section. Tags may repeat; readers take the first match.
    pub fn add_section(&mut self, tag: u64, body: SectionWriter) {
        let body = body.into_bytes();
        self.payload.reserve(16 + pad8(body.len()));
        self.payload.extend_from_slice(&tag.to_le_bytes());
        self.payload
            .extend_from_slice(&(body.len() as u64).to_le_bytes());
        let start = self.payload.len();
        self.payload.extend_from_slice(&body);
        self.payload.resize(pad8(self.payload.len()), 0);
        self.index.push((tag, start..start + body.len()));
    }

    /// Reader over the first section with `tag`.
    pub fn section(&self, tag: u64) -> Result<SectionReader<'_>, SnapshotError> {
        self.try_section(tag)
            .ok_or_else(|| SnapshotError::Malformed(format!("missing section {tag:#x}")))
    }

    /// Reader over the first section with `tag`, if present.
    pub fn try_section(&self, tag: u64) -> Option<SectionReader<'_>> {
        self.index
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, range)| SectionReader::new(&self.payload[range.clone()]))
    }

    /// Serialize to the on-disk byte layout (header + checksummed payload),
    /// stamped with the container's [`Snapshot::version`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_words(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse and fully validate the on-disk byte layout: magic, version,
    /// payload length, checksum, and section framing.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (version, kind, payload_range) = Self::validate(bytes)?;
        let payload = bytes[payload_range].to_vec();
        let index = Self::index_payload(&payload)?;
        Ok(Self {
            version,
            kind,
            payload,
            index,
        })
    }

    /// As [`Snapshot::from_bytes`] but consuming the buffer: the payload
    /// is sliced out of the given allocation instead of copied — the
    /// file-read path hands its buffer straight to the container.
    pub fn from_vec(mut bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let (version, kind, payload_range) = Self::validate(&bytes)?;
        bytes.truncate(payload_range.end);
        bytes.drain(..payload_range.start);
        let index = Self::index_payload(&bytes)?;
        Ok(Self {
            version,
            kind,
            payload: bytes,
            index,
        })
    }

    /// Header + checksum validation shared by the borrowing and owning
    /// parsers; returns the format version, payload kind and byte range.
    fn validate(bytes: &[u8]) -> Result<(u32, u32, std::ops::Range<usize>), SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version > FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let payload_len = usize::try_from(u64::from_le_bytes(
            bytes[16..24].try_into().expect("8 bytes"),
        ))
        .map_err(|_| SnapshotError::Malformed("payload length exceeds usize".into()))?;
        let stored = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
        let needed = HEADER_LEN
            .checked_add(payload_len)
            .ok_or(SnapshotError::Malformed("payload length overflow".into()))?;
        if bytes.len() < needed {
            return Err(SnapshotError::Truncated {
                needed,
                available: bytes.len(),
            });
        }
        let payload = &bytes[HEADER_LEN..needed];
        let computed = fnv1a_words(payload);
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok((version, kind, HEADER_LEN..needed))
    }

    /// Walk the section framing of a checksum-verified payload and build
    /// the `(tag, body range)` index.
    fn index_payload(payload: &[u8]) -> Result<Vec<(u64, std::ops::Range<usize>)>, SnapshotError> {
        let mut index = Vec::new();
        let mut pos = 0usize;
        while pos < payload.len() {
            if pos + 16 > payload.len() {
                return Err(SnapshotError::Malformed("dangling section header".into()));
            }
            let tag = u64::from_le_bytes(payload[pos..pos + 8].try_into().expect("8 bytes"));
            let len = usize::try_from(u64::from_le_bytes(
                payload[pos + 8..pos + 16].try_into().expect("8 bytes"),
            ))
            .map_err(|_| SnapshotError::Malformed("section length exceeds usize".into()))?;
            let start = pos + 16;
            let end = start
                .checked_add(len)
                .ok_or(SnapshotError::Malformed("section length overflow".into()))?;
            if end > payload.len() {
                return Err(SnapshotError::Malformed("section overruns payload".into()));
            }
            index.push((tag, start..end));
            pos = pad8(end);
        }
        Ok(index)
    }

    /// Write the container to a file **atomically**: the bytes land in a
    /// `<name>.tmp` sibling first, are fsynced, and are then renamed over
    /// `path` (a single-filesystem rename, atomic on POSIX). An
    /// interrupted write can therefore never leave a torn snapshot at
    /// `path` — readers see either the complete previous file or the
    /// complete new one. The on-disk bytes are identical to a plain
    /// write, so existing format goldens are unaffected.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        let io_err = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
            file.write_all(&self.to_bytes()).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        std::fs::rename(&tmp, path).map_err(io_err)?;
        // Best-effort directory sync so the rename itself is durable; not
        // all platforms allow opening a directory for sync, so failures
        // here are ignored rather than surfaced.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Read and validate a container from a file.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Self::from_vec(bytes)
    }

    /// Assert the container holds the expected payload kind.
    pub fn expect_kind(&self, expected: u32) -> Result<(), SnapshotError> {
        if self.kind != expected {
            return Err(SnapshotError::WrongKind {
                expected,
                found: self.kind,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SampleBank codec
// ---------------------------------------------------------------------

/// Section tag: bank shape (`n_types`, `n_samples`).
pub const TAG_BANK_SHAPE: u64 = 0x10;
/// Section tag: column-major `u64` counts (`n_types × n_samples`).
pub const TAG_BANK_COLS: u64 = 0x11;

/// Bank-loading options. A bank has one on-disk layout, so there is
/// nothing to choose; the type remains for callers that still pass it.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankReadOptions;

/// Append the bank's sections to a container: its shape and its
/// column-major `u64` counts.
pub fn write_bank(snap: &mut Snapshot, bank: &SampleBank) {
    let mut shape = SectionWriter::new();
    shape.put_usize(bank.n_types());
    shape.put_usize(bank.n_samples());
    snap.add_section(TAG_BANK_SHAPE, shape);

    let mut cols = SectionWriter::new();
    cols.put_u64s(bank.columns_flat());
    snap.add_section(TAG_BANK_COLS, cols);
}

/// Decode a bank from its shape and column sections.
pub fn read_bank(snap: &Snapshot) -> Result<SampleBank, SnapshotError> {
    let mut shape = snap.section(TAG_BANK_SHAPE)?;
    let n_types = shape.get_usize()?;
    let n_samples = shape.get_usize()?;
    if n_types == 0 || n_samples == 0 {
        return Err(SnapshotError::Malformed("empty bank shape".into()));
    }
    let expected = n_types
        .checked_mul(n_samples)
        .ok_or(SnapshotError::Malformed("bank shape overflow".into()))?;
    let cols = snap.section(TAG_BANK_COLS)?.get_u64s()?;
    if cols.len() != expected {
        return Err(SnapshotError::Malformed(format!(
            "bank columns hold {} counts, shape promises {expected}",
            cols.len()
        )));
    }
    Ok(SampleBank::from_column_major(n_types, n_samples, cols))
}

// ---------------------------------------------------------------------
// Distribution / joint-model constructor parameters
// ---------------------------------------------------------------------

/// Constructor parameters of a persistable [`CountDistribution`].
///
/// Persisting parameters (not pmfs) keeps snapshots compact and makes
/// reconstruction exact by definition: [`DistParams::instantiate`] re-runs
/// the same deterministic constructor the live object was built with, so
/// the rebuilt pmf/cdf/sampling behaviour is bit-identical. Custom
/// distributions outside this crate return `None` from
/// [`CountDistribution::snapshot_params`] and fail persistence with a
/// typed error instead of silently degrading.
#[derive(Debug, Clone, PartialEq)]
pub enum DistParams {
    /// [`Constant`] count.
    Constant(u64),
    /// [`UniformCount`] over `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// [`DiscretizedGaussian`] on an explicit window.
    Gaussian {
        /// Gaussian mean parameter.
        mean: f64,
        /// Gaussian standard deviation parameter.
        std: f64,
        /// Truncation window lower edge.
        lo: u64,
        /// Truncation window upper edge.
        hi: u64,
    },
    /// [`Poisson`] with rate λ (truncation cap is derived by `new`).
    Poisson {
        /// Rate parameter λ.
        lambda: f64,
    },
    /// [`Zipf`] power law.
    Zipf {
        /// Tail exponent `s`.
        exponent: f64,
        /// Truncation cap.
        cap: u64,
    },
    /// [`Empirical`] histogram.
    Empirical {
        /// `weights[n]` = observed periods with exactly `n` alerts.
        weights: Vec<u64>,
    },
    /// [`Mixture`] with **already-normalized** weights (the live object's
    /// internal weights, reinstated bit-for-bit via
    /// [`Mixture::from_normalized`] so no renormalization perturbs them).
    Mixture {
        /// `(normalized weight, component parameters)` pairs.
        components: Vec<(f64, DistParams)>,
    },
}

/// Maximum mixture nesting depth accepted by the decoder (real scenarios
/// nest one level; the cap keeps crafted files from recursing unboundedly).
const MAX_DIST_DEPTH: usize = 16;

impl DistParams {
    const KIND_CONSTANT: u64 = 0;
    const KIND_UNIFORM: u64 = 1;
    const KIND_GAUSSIAN: u64 = 2;
    const KIND_POISSON: u64 = 3;
    const KIND_ZIPF: u64 = 4;
    const KIND_EMPIRICAL: u64 = 5;
    const KIND_MIXTURE: u64 = 6;

    /// Append the parameters to a section body.
    pub fn encode(&self, w: &mut SectionWriter) {
        match self {
            DistParams::Constant(v) => {
                w.put_u64(Self::KIND_CONSTANT);
                w.put_u64(*v);
            }
            DistParams::Uniform { lo, hi } => {
                w.put_u64(Self::KIND_UNIFORM);
                w.put_u64(*lo);
                w.put_u64(*hi);
            }
            DistParams::Gaussian { mean, std, lo, hi } => {
                w.put_u64(Self::KIND_GAUSSIAN);
                w.put_f64(*mean);
                w.put_f64(*std);
                w.put_u64(*lo);
                w.put_u64(*hi);
            }
            DistParams::Poisson { lambda } => {
                w.put_u64(Self::KIND_POISSON);
                w.put_f64(*lambda);
            }
            DistParams::Zipf { exponent, cap } => {
                w.put_u64(Self::KIND_ZIPF);
                w.put_f64(*exponent);
                w.put_u64(*cap);
            }
            DistParams::Empirical { weights } => {
                w.put_u64(Self::KIND_EMPIRICAL);
                w.put_u64s(weights);
            }
            DistParams::Mixture { components } => {
                w.put_u64(Self::KIND_MIXTURE);
                w.put_usize(components.len());
                for (weight, params) in components {
                    w.put_f64(*weight);
                    params.encode(w);
                }
            }
        }
    }

    /// Read parameters from a section body, validating every constructor
    /// precondition so [`DistParams::instantiate`] cannot panic.
    pub fn decode(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        Self::decode_depth(r, 0)
    }

    fn decode_depth(r: &mut SectionReader<'_>, depth: usize) -> Result<Self, SnapshotError> {
        if depth > MAX_DIST_DEPTH {
            return Err(SnapshotError::Malformed(
                "distribution nesting too deep".into(),
            ));
        }
        let kind = r.get_u64()?;
        let malformed = |msg: &str| SnapshotError::Malformed(msg.to_string());
        match kind {
            Self::KIND_CONSTANT => Ok(DistParams::Constant(r.get_u64()?)),
            Self::KIND_UNIFORM => {
                let lo = r.get_u64()?;
                let hi = r.get_u64()?;
                if hi < lo {
                    return Err(malformed("uniform window is empty"));
                }
                Ok(DistParams::Uniform { lo, hi })
            }
            Self::KIND_GAUSSIAN => {
                let mean = r.get_f64()?;
                let std = r.get_f64()?;
                let lo = r.get_u64()?;
                let hi = r.get_u64()?;
                if !(mean.is_finite() && std.is_finite() && std > 0.0) || hi < lo {
                    return Err(malformed("gaussian parameters out of range"));
                }
                Ok(DistParams::Gaussian { mean, std, lo, hi })
            }
            Self::KIND_POISSON => {
                let lambda = r.get_f64()?;
                if !(lambda.is_finite() && lambda > 0.0) {
                    return Err(malformed("poisson rate out of range"));
                }
                Ok(DistParams::Poisson { lambda })
            }
            Self::KIND_ZIPF => {
                let exponent = r.get_f64()?;
                let cap = r.get_u64()?;
                if !(exponent.is_finite() && exponent > 0.0) {
                    return Err(malformed("zipf exponent out of range"));
                }
                Ok(DistParams::Zipf { exponent, cap })
            }
            Self::KIND_EMPIRICAL => {
                let weights = r.get_u64s()?;
                if weights.iter().sum::<u64>() == 0 {
                    return Err(malformed("empirical histogram carries no mass"));
                }
                Ok(DistParams::Empirical { weights })
            }
            Self::KIND_MIXTURE => {
                let n = r.get_usize()?;
                if n == 0 {
                    return Err(malformed("mixture has no components"));
                }
                let mut components = Vec::with_capacity(n.min(1024));
                let mut total = 0.0f64;
                for _ in 0..n {
                    let weight = r.get_f64()?;
                    if !(weight.is_finite() && weight >= 0.0) {
                        return Err(malformed("mixture weight out of range"));
                    }
                    total += weight;
                    components.push((weight, Self::decode_depth(r, depth + 1)?));
                }
                if (total - 1.0).abs() > 1e-6 {
                    return Err(malformed("mixture weights are not normalized"));
                }
                Ok(DistParams::Mixture { components })
            }
            other => Err(SnapshotError::Malformed(format!(
                "unknown distribution kind {other}"
            ))),
        }
    }

    /// Rebuild the live distribution — bit-identical to the object the
    /// parameters were taken from (constructors are deterministic, and the
    /// mixture path trusts the stored normalized weights).
    pub fn instantiate(&self) -> Arc<dyn CountDistribution> {
        match self {
            DistParams::Constant(v) => Arc::new(Constant(*v)),
            DistParams::Uniform { lo, hi } => Arc::new(UniformCount::new(*lo, *hi)),
            DistParams::Gaussian { mean, std, lo, hi } => {
                Arc::new(DiscretizedGaussian::on_window(*mean, *std, *lo, *hi))
            }
            DistParams::Poisson { lambda } => Arc::new(Poisson::new(*lambda)),
            DistParams::Zipf { exponent, cap } => Arc::new(Zipf::new(*exponent, *cap)),
            DistParams::Empirical { weights } => {
                Arc::new(Empirical::from_histogram(weights.clone()))
            }
            DistParams::Mixture { components } => Arc::new(Mixture::from_normalized(
                components
                    .iter()
                    .map(|(w, p)| (*w, p.instantiate()))
                    .collect(),
            )),
        }
    }
}

/// Constructor parameters of a persistable joint count model.
///
/// The concrete models live in `audit-game` (`RegimeMixingCounts`,
/// `SeasonalCounts`); this crate only defines the parameter shapes so the
/// trait hook [`crate::bank::JointCountModel::snapshot_params`] can be
/// declared next to the trait. Reconstruction lives with the models.
#[derive(Debug, Clone, PartialEq)]
pub enum JointParams {
    /// A latent-regime mixer: **already-normalized** regime weights plus
    /// per-regime component rows (`components[r][t]`).
    Regime {
        /// Normalized regime weights.
        weights: Vec<f64>,
        /// Per-regime, per-type component parameters.
        components: Vec<Vec<DistParams>>,
    },
    /// A deterministic season cycle: per-phase component rows
    /// (`phases[p][t]`), period `i` using phase `i mod phases.len()`.
    Seasonal {
        /// Per-phase, per-type component parameters.
        phases: Vec<Vec<DistParams>>,
    },
}

impl JointParams {
    const KIND_REGIME: u64 = 0;
    const KIND_SEASONAL: u64 = 1;

    /// Append the parameters to a section body.
    pub fn encode(&self, w: &mut SectionWriter) {
        let encode_rows = |w: &mut SectionWriter, rows: &[Vec<DistParams>]| {
            w.put_usize(rows.len());
            for row in rows {
                w.put_usize(row.len());
                for p in row {
                    p.encode(w);
                }
            }
        };
        match self {
            JointParams::Regime {
                weights,
                components,
            } => {
                w.put_u64(Self::KIND_REGIME);
                w.put_f64s(weights);
                encode_rows(w, components);
            }
            JointParams::Seasonal { phases } => {
                w.put_u64(Self::KIND_SEASONAL);
                encode_rows(w, phases);
            }
        }
    }

    /// Read parameters from a section body, validating shapes (rectangular
    /// rows, matching weight count, normalized weights).
    pub fn decode(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let decode_rows =
            |r: &mut SectionReader<'_>| -> Result<Vec<Vec<DistParams>>, SnapshotError> {
                let n_rows = r.get_usize()?;
                if n_rows == 0 {
                    return Err(SnapshotError::Malformed("joint model has no rows".into()));
                }
                let mut rows = Vec::with_capacity(n_rows.min(1024));
                for _ in 0..n_rows {
                    let n = r.get_usize()?;
                    let mut row = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        row.push(DistParams::decode(r)?);
                    }
                    rows.push(row);
                }
                let width = rows[0].len();
                if width == 0 || rows.iter().any(|row| row.len() != width) {
                    return Err(SnapshotError::Malformed("ragged joint model rows".into()));
                }
                Ok(rows)
            };
        match r.get_u64()? {
            Self::KIND_REGIME => {
                let weights = r.get_f64s()?;
                let components = decode_rows(r)?;
                if weights.len() != components.len() {
                    return Err(SnapshotError::Malformed(
                        "regime weight count disagrees with component rows".into(),
                    ));
                }
                if weights.iter().any(|&w| !(w.is_finite() && w >= 0.0))
                    || (weights.iter().sum::<f64>() - 1.0).abs() > 1e-6
                {
                    return Err(SnapshotError::Malformed(
                        "regime weights are not normalized".into(),
                    ));
                }
                Ok(JointParams::Regime {
                    weights,
                    components,
                })
            }
            Self::KIND_SEASONAL => Ok(JointParams::Seasonal {
                phases: decode_rows(r)?,
            }),
            other => Err(SnapshotError::Malformed(format!(
                "unknown joint model kind {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::JointCountModel;
    use crate::rng::seeded_rng;

    fn sample_dists() -> Vec<Arc<dyn CountDistribution>> {
        vec![
            Arc::new(DiscretizedGaussian::with_halfwidth(6.0, 2.0, 5)),
            Arc::new(Poisson::new(4.0)),
            Arc::new(Zipf::new(1.8, 40)),
            Arc::new(Empirical::from_observations(&[3, 3, 4, 5, 5, 5, 7])),
            Arc::new(Constant(3)),
            Arc::new(UniformCount::new(2, 5)),
            Arc::new(Mixture::new(vec![
                (0.25, Arc::new(Constant(2)) as Arc<dyn CountDistribution>),
                (0.75, Arc::new(Poisson::new(2.5))),
            ])),
        ]
    }

    #[test]
    fn container_roundtrip_preserves_sections() {
        let mut snap = Snapshot::new(7);
        let mut a = SectionWriter::new();
        a.put_u64(42);
        a.put_str("hello");
        a.put_f64(1.5);
        a.put_bool(true);
        snap.add_section(0xA, a);
        let mut b = SectionWriter::new();
        b.put_u64s(&[1, 2, 3]);
        b.put_f64s(&[0.25, -0.5]);
        snap.add_section(0xB, b);

        let bytes = snap.to_bytes();
        assert_eq!(bytes.len() % 8, 0, "container must stay 8-aligned");
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.kind, 7);
        let mut r = back.section(0xA).unwrap();
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_f64().unwrap(), 1.5);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.remaining(), 0);
        let mut r = back.section(0xB).unwrap();
        assert_eq!(r.get_u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_f64s().unwrap(), vec![0.25, -0.5]);
        assert!(back.try_section(0xC).is_none());
        assert!(matches!(
            back.section(0xC),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn write_to_is_atomic_and_byte_identical_to_to_bytes() {
        let mut snap = Snapshot::new(3);
        let mut s = SectionWriter::new();
        s.put_u64s(&[9, 8, 7]);
        s.put_str("atomic");
        snap.add_section(0x2, s);

        let dir = std::env::temp_dir().join(format!("audit-snap-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.snap");
        // Overwrite an existing (stale) file: the rename must replace it.
        std::fs::write(&path, b"stale").unwrap();
        snap.write_to(&path).unwrap();

        // On-disk bytes are exactly the container encoding (no staging
        // artifacts), and the temp sibling is gone after the rename.
        assert_eq!(std::fs::read(&path).unwrap(), snap.to_bytes());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "staging files left behind: {leftovers:?}"
        );
        let back = Snapshot::read_from(&path).unwrap();
        assert_eq!(back.kind, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_validation_catches_corruption() {
        let mut snap = Snapshot::new(1);
        let mut s = SectionWriter::new();
        s.put_u64s(&[10, 20, 30, 40]);
        snap.add_section(0x1, s);
        let good = snap.to_bytes();
        assert!(Snapshot::from_bytes(&good).is_ok());

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Snapshot::from_bytes(&bad), magic_err());
        // Future version.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
        // Flipped payload byte.
        let mut bad = good.clone();
        let last = bad.len() - 5;
        bad[last] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Truncations at every prefix must fail without panicking.
        for cut in 0..good.len() {
            assert!(
                Snapshot::from_bytes(&good[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn forged_string_lengths_are_malformed_not_panics() {
        // Checksum-valid sections whose string length word promises more
        // bytes than any buffer holds, up to the padding overflow.
        for len in [u64::MAX, u64::MAX - 3, 1 << 40] {
            let mut snap = Snapshot::new(1);
            let mut s = SectionWriter::new();
            s.put_u64(len);
            snap.add_section(0x1, s);
            let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let got = back.section(0x1).unwrap().get_str();
            assert!(
                matches!(
                    got,
                    Err(SnapshotError::Malformed(_) | SnapshotError::Truncated { .. })
                ),
                "length {len:#x} decoded to {got:?}"
            );
        }
    }

    fn magic_err() -> Result<Snapshot, SnapshotError> {
        Err(SnapshotError::BadMagic)
    }

    // `Snapshot` has no PartialEq; compare through the error only.
    impl PartialEq for Snapshot {
        fn eq(&self, other: &Self) -> bool {
            self.kind == other.kind && self.payload == other.payload
        }
    }
    impl std::fmt::Debug for Snapshot {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Snapshot")
                .field("kind", &self.kind)
                .finish()
        }
    }

    #[test]
    fn bank_roundtrips_bit_identically() {
        let dists = sample_dists();
        let bank = SampleBank::generate_from(dists.iter().map(|d| d.as_ref()), 257, 42);
        let mut snap = Snapshot::new(2);
        write_bank(&mut snap, &bank);
        let back = read_bank(&Snapshot::from_bytes(&snap.to_bytes()).unwrap()).unwrap();
        assert_eq!(back.n_types(), bank.n_types());
        assert_eq!(back.n_samples(), bank.n_samples());
        assert_eq!(back.columns_flat(), bank.columns_flat());
    }

    #[test]
    fn oversized_bank_roundtrips_without_mirror() {
        let big = u64::from(u32::MAX) + 7;
        let bank = SampleBank::from_rows(vec![vec![1, big], vec![2, 3]]);
        let mut snap = Snapshot::new(2);
        write_bank(&mut snap, &bank);
        let back = read_bank(&Snapshot::from_bytes(&snap.to_bytes()).unwrap()).unwrap();
        assert_eq!(back.column(1), &[big, 3]);
    }

    #[test]
    fn v1_bank_with_its_u32_section_still_loads() {
        let bank = SampleBank::from_rows(vec![vec![4, 0], vec![9, 2], vec![1, 7]]);
        let mut snap = Snapshot::new(2);
        write_bank(&mut snap, &bank);
        // Version 1 also wrote the counts as a length-prefixed, 8-padded
        // `u32` column under tag 0x12.
        let mut mirror = SectionWriter::new();
        mirror.put_usize(bank.columns_flat().len());
        for pair in bank.columns_flat().chunks(2) {
            let lo = pair[0];
            let hi = pair.get(1).copied().unwrap_or(0);
            mirror.put_u64(lo | (hi << 32));
        }
        snap.add_section(0x12, mirror);
        let mut bytes = snap.to_bytes();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let parsed = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.version, 1);
        let back = read_bank(&parsed).unwrap();
        assert_eq!(back.n_samples(), 3);
        assert_eq!(back.columns_flat(), bank.columns_flat());
    }

    #[test]
    fn bank_shape_mismatch_is_malformed() {
        let bank = SampleBank::from_rows(vec![vec![1, 2], vec![3, 4]]);
        let mut snap = Snapshot::new(2);
        write_bank(&mut snap, &bank);
        // Rewrite the shape section to promise more samples than stored.
        let mut bad = Snapshot::new(2);
        let mut shape = SectionWriter::new();
        shape.put_usize(2);
        shape.put_usize(99);
        bad.add_section(TAG_BANK_SHAPE, shape);
        let mut cols = SectionWriter::new();
        cols.put_u64s(bank.columns_flat());
        bad.add_section(TAG_BANK_COLS, cols);
        assert!(matches!(read_bank(&bad), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn dist_params_roundtrip_and_reinstantiate_bit_exactly() {
        for dist in sample_dists() {
            let params = dist
                .snapshot_params()
                .expect("built-in distributions are persistable");
            let mut w = SectionWriter::new();
            params.encode(&mut w);
            let mut snap = Snapshot::new(3);
            snap.add_section(0x1, w);
            let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let decoded = DistParams::decode(&mut back.section(0x1).unwrap()).unwrap();
            assert_eq!(decoded, params);

            let rebuilt = decoded.instantiate();
            assert_eq!(rebuilt.support_min(), dist.support_min());
            assert_eq!(rebuilt.support_max(), dist.support_max());
            for n in dist.support_min()..=dist.support_max() {
                assert_eq!(
                    rebuilt.pmf(n).to_bits(),
                    dist.pmf(n).to_bits(),
                    "pmf({n}) drifted"
                );
            }
            // Sampling consumes the RNG identically.
            let mut a = seeded_rng(99);
            let mut b = seeded_rng(99);
            for _ in 0..100 {
                assert_eq!(dist.sample(&mut a), rebuilt.sample(&mut b));
            }
        }
    }

    #[test]
    fn mixture_snapshot_params_survive_renormalization() {
        // Unnormalized construction weights: the live object holds the
        // normalized ones, and those must round-trip bit-for-bit.
        let live = Mixture::new(vec![
            (2.0, Arc::new(Constant(1)) as Arc<dyn CountDistribution>),
            (6.0, Arc::new(Constant(3))),
        ]);
        let params = live.snapshot_params().unwrap();
        let rebuilt = params.instantiate();
        for n in 0..=3 {
            assert_eq!(rebuilt.pmf(n).to_bits(), live.pmf(n).to_bits());
        }
    }

    type WriteCase = Box<dyn Fn(&mut SectionWriter)>;

    #[test]
    fn malformed_dist_params_are_rejected() {
        // (encode bytes, expectation) pairs of invalid parameter payloads.
        let cases: Vec<WriteCase> = vec![
            Box::new(|w| {
                w.put_u64(99); // unknown kind
            }),
            Box::new(|w| {
                w.put_u64(DistParams::KIND_UNIFORM);
                w.put_u64(5);
                w.put_u64(2); // hi < lo
            }),
            Box::new(|w| {
                w.put_u64(DistParams::KIND_POISSON);
                w.put_f64(-1.0); // negative rate
            }),
            Box::new(|w| {
                w.put_u64(DistParams::KIND_EMPIRICAL);
                w.put_u64s(&[0, 0]); // zero mass
            }),
            Box::new(|w| {
                w.put_u64(DistParams::KIND_MIXTURE);
                w.put_usize(1);
                w.put_f64(0.5); // weights don't sum to 1
                w.put_u64(DistParams::KIND_CONSTANT);
                w.put_u64(1);
            }),
        ];
        for (i, encode) in cases.iter().enumerate() {
            let mut w = SectionWriter::new();
            encode(&mut w);
            let mut snap = Snapshot::new(3);
            snap.add_section(0x1, w);
            let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let got = DistParams::decode(&mut back.section(0x1).unwrap());
            assert!(
                matches!(got, Err(SnapshotError::Malformed(_))),
                "case {i} decoded to {got:?}"
            );
        }
    }

    struct TwoPhase;

    impl JointCountModel for TwoPhase {
        fn n_types(&self) -> usize {
            2
        }
        fn sample_row(&self, i: usize, rng: &mut dyn rand::RngCore) -> Vec<u64> {
            let d = UniformCount::new(0, 3 + (i % 2) as u64);
            vec![d.sample(rng), d.sample(rng)]
        }
    }

    #[test]
    fn joint_models_default_to_unsupported() {
        assert_eq!(TwoPhase.snapshot_params(), None);
    }

    #[test]
    fn joint_params_roundtrip() {
        let params = JointParams::Regime {
            weights: vec![0.75, 0.25],
            components: vec![
                vec![DistParams::Poisson { lambda: 3.0 }, DistParams::Constant(1)],
                vec![DistParams::Poisson { lambda: 9.0 }, DistParams::Constant(4)],
            ],
        };
        let mut w = SectionWriter::new();
        params.encode(&mut w);
        let mut snap = Snapshot::new(4);
        snap.add_section(0x2, w);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let decoded = JointParams::decode(&mut back.section(0x2).unwrap()).unwrap();
        assert_eq!(decoded, params);

        let seasonal = JointParams::Seasonal {
            phases: vec![
                vec![DistParams::Uniform { lo: 0, hi: 4 }],
                vec![DistParams::Uniform { lo: 2, hi: 9 }],
            ],
        };
        let mut w = SectionWriter::new();
        seasonal.encode(&mut w);
        let mut snap = Snapshot::new(4);
        snap.add_section(0x2, w);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(
            JointParams::decode(&mut back.section(0x2).unwrap()).unwrap(),
            seasonal
        );
    }

    #[test]
    fn joint_params_validate_shapes() {
        // Ragged rows.
        let mut w = SectionWriter::new();
        w.put_u64(JointParams::KIND_SEASONAL);
        w.put_usize(2);
        w.put_usize(1);
        DistParams::Constant(1).encode(&mut w);
        w.put_usize(2);
        DistParams::Constant(1).encode(&mut w);
        DistParams::Constant(2).encode(&mut w);
        let mut snap = Snapshot::new(4);
        snap.add_section(0x2, w);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(matches!(
            JointParams::decode(&mut back.section(0x2).unwrap()),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_kind_is_typed() {
        let snap = Snapshot::new(5);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(back.expect_kind(5).is_ok());
        assert_eq!(
            back.expect_kind(6),
            Err(SnapshotError::WrongKind {
                expected: 6,
                found: 5
            })
        );
    }
}
