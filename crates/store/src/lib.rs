//! Persistent artifact store: a versioned, checksummed single-file
//! container for the adversarial wake-up reproduction's build artifacts
//! (graphs, networks, advice), reloaded zero-copy via mmap.
//!
//! # File format (version 2)
//!
//! All integers are explicit little-endian. The file is:
//!
//! ```text
//! [ header: 64 bytes ]
//! [ section table: section_count × 32 bytes ]
//! [ key: key_len bytes, zero-padded to the next 64-byte boundary ]
//! [ section payloads, each starting on a 64-byte boundary, zero-padded ]
//! ```
//!
//! Header layout (offsets in bytes):
//!
//! ```text
//!  0..8   magic          b"WAKEBAKE"
//!  8..12  format_version u32   (FORMAT_VERSION)
//! 12..16  artifact_kind  u32   (caller-defined discriminant)
//! 16..24  key_fingerprint u64  (xxh64 of the key string, seed 0)
//! 24..28  section_count  u32
//! 28..32  key_len        u32
//! 32..40  file_len       u64   (total bytes, must equal the on-disk size)
//! 40..48  table_hash     u64   (xxh64 over section table + key bytes)
//! 48..64  reserved       zeros (readers reject non-zero)
//! ```
//!
//! Section table entry (32 bytes): `tag: u32`, `elem_width: u32` (1, 4 or
//! 8), `offset: u64` (from file start, 64-byte aligned), `len: u64`
//! (element count), `hash: u64` (xxh64 of the payload bytes, seed 0).
//!
//! # Integrity model
//!
//! Every read path fails closed with a typed [`StoreError`]. Structural
//! integrity is established at [`StoreFile::open`]: magic / version /
//! kind / fingerprint / reserved-byte checks, the checksum over the
//! section table + key, and every section's bounds, element width, and
//! 64-byte alignment — so a truncated, mislabeled, or stale file can
//! never produce an out-of-bounds or misaligned view of the map, and any
//! flipped byte in the header, table, stored checksums, or key is caught
//! before a single payload byte is trusted.
//!
//! Payload *content* checksums are verified on the copying accessors
//! ([`StoreFile::bytes`] / [`StoreFile::u32s`] / [`StoreFile::u64s`]) and
//! by [`StoreFile::verify_all`] (`wakeup bake --verify`, and whole-file
//! verification on the eager read path). The zero-copy [`StoreFile::view`]
//! accessor deliberately does **not** hash its payload: hashing hundreds
//! of megabytes costs more than the entire reload budget on one core, and
//! every value type admitted by [`SectionElem`] makes garbage bytes at
//! worst a wrong value behind a bounds-checked slice — never undefined
//! behavior. Callers wanting full content verification use `verify_all`
//! or the eager path.
//!
//! # Zero-copy and alignment
//!
//! Payload sections start on 64-byte boundaries and the mapping base is
//! page-aligned (mmap) or 8-byte aligned (eager fallback reads into
//! `Vec<u64>`), so section views — `&[u32]`, `&[u64]`, or [`Buf`] windows
//! of any [`SectionElem`] type — are true sub-slices of the mapping: no
//! decode copy, and a [`Buf`] keeps the mapping alive after the
//! [`StoreFile`] is dropped. The zero-copy reader requires a
//! little-endian target; big-endian targets get a typed error and callers
//! fall back to cold builds. Writers emit little-endian bytes on every
//! platform, so the files themselves are portable.

#![warn(missing_docs)]

pub mod buf;
pub mod map;
pub mod xxh;

pub use buf::{Buf, SectionElem};
pub use map::MapMode;
pub use xxh::xxh64;

use map::Mapping;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes at offset 0 of every store file.
pub const MAGIC: [u8; 8] = *b"WAKEBAKE";
/// Current on-disk format version. Bump on any layout change; readers
/// reject other versions (callers then fall back to a cold build).
/// Version 2 interleaved the pair-shaped network sections (edge list,
/// reverse port table) so they can be served as zero-copy pair-struct
/// views instead of being zipped from split sections on every reload.
/// Version 3 interleaved the engine tables' hot `(to, rport)` pair the
/// same way and added a node-permutation section pair for networks whose
/// tables were stored in a relabeled order. Version 4 drops those sections:
/// every network's tables are stored in node-index order.
pub const FORMAT_VERSION: u32 = 4;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Size of one section-table entry in bytes.
pub const SECTION_ENTRY_LEN: usize = 32;
/// Alignment of the key block and every payload section.
pub const SECTION_ALIGN: usize = 64;

/// Fingerprint of an artifact key string (xxh64, seed 0).
#[must_use]
pub fn key_fingerprint(key: &str) -> u64 {
    xxh64(key.as_bytes(), 0)
}

fn align_up(x: usize) -> usize {
    x.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Typed failure of any store operation. Every variant is fail-closed:
/// callers treat all of them (except a plain missing file) as "artifact
/// unavailable, rebuild cold".
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error (missing file, permissions, ...).
    Io(std::io::Error),
    /// File is shorter than the structure it claims to contain.
    Truncated {
        /// Bytes required by the header/section being read.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// Format version mismatch.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        expected: u32,
    },
    /// Artifact-kind discriminant mismatch.
    WrongKind {
        /// Kind found in the header.
        found: u32,
        /// Kind the caller expected.
        expected: u32,
    },
    /// Key fingerprint or key bytes do not match the expected key.
    KeyMismatch,
    /// The section table + key checksum does not match the header.
    TableChecksum {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// A section payload checksum does not match its table entry.
    SectionChecksum {
        /// Tag of the failing section.
        tag: u32,
        /// Checksum stored in the table.
        stored: u64,
        /// Checksum recomputed from the payload bytes.
        computed: u64,
    },
    /// A section required by the decoder is absent.
    MissingSection {
        /// Tag of the missing section.
        tag: u32,
    },
    /// A section exists but with a different element width than requested.
    WrongWidth {
        /// Tag of the section.
        tag: u32,
        /// Element width found in the table.
        found: u32,
        /// Element width the caller requested.
        expected: u32,
    },
    /// A section offset violates the 64-byte alignment invariant.
    Misaligned {
        /// Tag of the misaligned section.
        tag: u32,
    },
    /// Any other structural violation (duplicate tags, non-zero reserved
    /// bytes, trailing garbage, unsupported platform, ...).
    Malformed(&'static str),
}

impl StoreError {
    /// True when the error is simply "no such file" — a cache miss rather
    /// than a corruption event.
    #[must_use]
    pub fn is_not_found(&self) -> bool {
        matches!(self, Self::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store io error: {e}"),
            Self::Truncated { needed, actual } => {
                write!(
                    f,
                    "store file truncated: need {needed} bytes, have {actual}"
                )
            }
            Self::BadMagic => write!(f, "store file has wrong magic bytes"),
            Self::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "store format version {found} unsupported (reader expects {expected})"
                )
            }
            Self::WrongKind { found, expected } => {
                write!(
                    f,
                    "store artifact kind {found} does not match expected {expected}"
                )
            }
            Self::KeyMismatch => write!(f, "store key fingerprint/bytes mismatch"),
            Self::TableChecksum { stored, computed } => write!(
                f,
                "section table checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            Self::SectionChecksum {
                tag,
                stored,
                computed,
            } => write!(
                f,
                "section {tag} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            Self::MissingSection { tag } => write!(f, "section {tag} missing from store file"),
            Self::WrongWidth {
                tag,
                found,
                expected,
            } => write!(
                f,
                "section {tag} has element width {found}, expected {expected}"
            ),
            Self::Misaligned { tag } => write!(f, "section {tag} violates 64-byte alignment"),
            Self::Malformed(why) => write!(f, "store file malformed: {why}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

struct OwnedSection {
    tag: u32,
    elem_width: u32,
    bytes: Vec<u8>,
    len: u64,
}

/// Builder that assembles sections and writes a complete store file
/// atomically (temp file + rename), byte-stable per (kind, key, sections).
pub struct StoreWriter {
    kind: u32,
    key: String,
    sections: Vec<OwnedSection>,
}

impl StoreWriter {
    /// Start a store file for the given artifact kind and key string.
    #[must_use]
    pub fn new(kind: u32, key: &str) -> Self {
        assert!(
            u32::try_from(key.len()).is_ok(),
            "store key longer than u32::MAX"
        );
        Self {
            kind,
            key: key.to_owned(),
            sections: Vec::new(),
        }
    }

    fn push(&mut self, tag: u32, elem_width: u32, bytes: Vec<u8>, len: u64) {
        assert!(
            !self.sections.iter().any(|s| s.tag == tag),
            "duplicate section tag {tag}"
        );
        self.sections.push(OwnedSection {
            tag,
            elem_width,
            bytes,
            len,
        });
    }

    /// Add a raw byte section.
    pub fn put_bytes(&mut self, tag: u32, data: &[u8]) {
        self.push(tag, 1, data.to_vec(), data.len() as u64);
    }

    /// Add a `u32` section (stored little-endian).
    pub fn put_u32s(&mut self, tag: u32, data: &[u32]) {
        #[cfg(target_endian = "little")]
        let bytes = {
            // SAFETY: u32 has no padding; reinterpreting as bytes on a
            // little-endian target yields exactly the LE wire encoding.
            let view =
                unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), data.len() * 4) };
            view.to_vec()
        };
        #[cfg(target_endian = "big")]
        let bytes = {
            let mut v = Vec::with_capacity(data.len() * 4);
            for x in data {
                v.extend_from_slice(&x.to_le_bytes());
            }
            v
        };
        self.push(tag, 4, bytes, data.len() as u64);
    }

    /// Add a `u64` section (stored little-endian).
    pub fn put_u64s(&mut self, tag: u32, data: &[u64]) {
        #[cfg(target_endian = "little")]
        let bytes = {
            // SAFETY: u64 has no padding; LE target ⇒ native bytes are the
            // wire encoding.
            let view =
                unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), data.len() * 8) };
            view.to_vec()
        };
        #[cfg(target_endian = "big")]
        let bytes = {
            let mut v = Vec::with_capacity(data.len() * 8);
            for x in data {
                v.extend_from_slice(&x.to_le_bytes());
            }
            v
        };
        self.push(tag, 8, bytes, data.len() as u64);
    }

    /// Assemble the complete file image.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let key_off = HEADER_LEN + table_len;
        let mut payload_off = align_up(key_off + self.key.len());
        let mut entries = Vec::with_capacity(self.sections.len());
        for s in &self.sections {
            entries.push((s, payload_off));
            payload_off = align_up(payload_off + s.bytes.len());
        }
        let file_len = payload_off;

        let mut out = vec![0u8; file_len];
        // Section table + key first, so the table hash can cover them.
        for (i, (s, off)) in entries.iter().enumerate() {
            let e = &mut out[HEADER_LEN + i * SECTION_ENTRY_LEN..][..SECTION_ENTRY_LEN];
            e[0..4].copy_from_slice(&s.tag.to_le_bytes());
            e[4..8].copy_from_slice(&s.elem_width.to_le_bytes());
            e[8..16].copy_from_slice(&(*off as u64).to_le_bytes());
            e[16..24].copy_from_slice(&s.len.to_le_bytes());
            e[24..32].copy_from_slice(&xxh64(&s.bytes, 0).to_le_bytes());
        }
        out[key_off..key_off + self.key.len()].copy_from_slice(self.key.as_bytes());
        for (s, off) in &entries {
            out[*off..*off + s.bytes.len()].copy_from_slice(&s.bytes);
        }

        let table_hash = xxh64(&out[HEADER_LEN..key_off + self.key.len()], 0);
        let h = &mut out[..HEADER_LEN];
        h[0..8].copy_from_slice(&MAGIC);
        h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&self.kind.to_le_bytes());
        h[16..24].copy_from_slice(&key_fingerprint(&self.key).to_le_bytes());
        h[24..28].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        h[28..32].copy_from_slice(&(self.key.len() as u32).to_le_bytes());
        h[32..40].copy_from_slice(&(file_len as u64).to_le_bytes());
        h[40..48].copy_from_slice(&table_hash.to_le_bytes());
        out
    }

    /// Write the file atomically: temp file in the same directory, fsync,
    /// rename over `path`. Returns the number of bytes written.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, StoreError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let bytes = self.to_bytes();
        let tmp: PathBuf = {
            let mut name = path.as_os_str().to_owned();
            name.push(format!(".tmp.{}", std::process::id()));
            PathBuf::from(name)
        };
        let result = (|| -> Result<(), StoreError> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(())
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result.map(|()| bytes.len() as u64)
    }
}

#[derive(Clone, Copy, Debug)]
struct SectionMeta {
    tag: u32,
    elem_width: u32,
    offset: u64,
    len: u64,
    hash: u64,
}

/// A validated, read-only store file with zero-copy section views.
#[derive(Debug)]
pub struct StoreFile {
    mapping: Arc<Mapping>,
    sections: Vec<SectionMeta>,
}

impl StoreFile {
    /// Open and validate `path` (mmap when available; honours
    /// `WAKEUP_STORE_NO_MMAP=1`). See [`Self::open_with`].
    pub fn open(path: &Path, kind: u32, key: &str) -> Result<Self, StoreError> {
        Self::open_with(path, kind, key, MapMode::Auto)
    }

    /// Open and validate `path` with an explicit mapping mode. Validates
    /// magic, version, kind, key fingerprint + bytes, reserved bytes, file
    /// length, the table checksum, and every section's bounds/alignment.
    /// Payload checksums are verified by the copying accessors and
    /// [`Self::verify_all`]; zero-copy [`Self::view`]s are not hashed.
    pub fn open_with(path: &Path, kind: u32, key: &str, mode: MapMode) -> Result<Self, StoreError> {
        #[cfg(target_endian = "big")]
        {
            let _ = (path, kind, key, mode);
            return Err(StoreError::Malformed(
                "zero-copy store reader requires a little-endian target",
            ));
        }
        #[cfg(target_endian = "little")]
        {
            let mut file = File::open(path)?;
            let actual = file.metadata()?.len();
            if actual < HEADER_LEN as u64 {
                return Err(StoreError::Truncated {
                    needed: HEADER_LEN as u64,
                    actual,
                });
            }
            let mapping = Mapping::open(&mut file, actual as usize, mode)?;
            let this = Self::validate(mapping, actual, kind, key)?;
            Ok(this)
        }
    }

    fn validate(mapping: Mapping, actual: u64, kind: u32, key: &str) -> Result<Self, StoreError> {
        let b = mapping.bytes();
        let rd_u32 = |off: usize| u32::from_le_bytes(b[off..off + 4].try_into().unwrap());
        let rd_u64 = |off: usize| u64::from_le_bytes(b[off..off + 8].try_into().unwrap());

        if b[0..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = rd_u32(8);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let found_kind = rd_u32(12);
        if found_kind != kind {
            return Err(StoreError::WrongKind {
                found: found_kind,
                expected: kind,
            });
        }
        if rd_u64(16) != key_fingerprint(key) {
            return Err(StoreError::KeyMismatch);
        }
        let section_count = rd_u32(24) as usize;
        let key_len = rd_u32(28) as usize;
        let file_len = rd_u64(32);
        let table_hash = rd_u64(40);
        if b[48..64].iter().any(|&x| x != 0) {
            return Err(StoreError::Malformed("non-zero reserved header bytes"));
        }
        if actual < file_len {
            return Err(StoreError::Truncated {
                needed: file_len,
                actual,
            });
        }
        if actual > file_len {
            return Err(StoreError::Malformed(
                "trailing bytes after stated file length",
            ));
        }

        let table_len = section_count
            .checked_mul(SECTION_ENTRY_LEN)
            .ok_or(StoreError::Malformed("section count overflow"))?;
        let key_off = HEADER_LEN + table_len;
        let hashed_end = key_off
            .checked_add(key_len)
            .ok_or(StoreError::Malformed("key length overflow"))?;
        if (hashed_end as u64) > file_len {
            return Err(StoreError::Truncated {
                needed: hashed_end as u64,
                actual,
            });
        }
        let computed = xxh64(&b[HEADER_LEN..hashed_end], 0);
        if computed != table_hash {
            return Err(StoreError::TableChecksum {
                stored: table_hash,
                computed,
            });
        }
        if &b[key_off..hashed_end] != key.as_bytes() {
            return Err(StoreError::KeyMismatch);
        }

        let mut sections = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let meta = SectionMeta {
                tag: rd_u32(e),
                elem_width: rd_u32(e + 4),
                offset: rd_u64(e + 8),
                len: rd_u64(e + 16),
                hash: rd_u64(e + 24),
            };
            if !matches!(meta.elem_width, 1 | 4 | 8) {
                return Err(StoreError::Malformed("unsupported section element width"));
            }
            if !meta.offset.is_multiple_of(SECTION_ALIGN as u64) {
                return Err(StoreError::Misaligned { tag: meta.tag });
            }
            let end = meta
                .len
                .checked_mul(u64::from(meta.elem_width))
                .and_then(|n| n.checked_add(meta.offset))
                .ok_or(StoreError::Malformed("section extent overflow"))?;
            if end > file_len {
                return Err(StoreError::Truncated {
                    needed: end,
                    actual,
                });
            }
            if sections.iter().any(|s: &SectionMeta| s.tag == meta.tag) {
                return Err(StoreError::Malformed("duplicate section tag"));
            }
            sections.push(meta);
        }
        Ok(Self {
            mapping: Arc::new(mapping),
            sections,
        })
    }

    fn meta(&self, tag: u32, width: u32) -> Result<SectionMeta, StoreError> {
        let meta = self
            .sections
            .iter()
            .find(|s| s.tag == tag)
            .copied()
            .ok_or(StoreError::MissingSection { tag })?;
        if meta.elem_width != width {
            return Err(StoreError::WrongWidth {
                tag,
                found: meta.elem_width,
                expected: width,
            });
        }
        Ok(meta)
    }

    /// Raw payload bytes of a section, checksum-verified.
    fn payload(&self, meta: SectionMeta) -> Result<&[u8], StoreError> {
        let start = meta.offset as usize;
        let len = (meta.len * u64::from(meta.elem_width)) as usize;
        let bytes = &self.mapping.bytes()[start..start + len];
        let computed = xxh64(bytes, 0);
        if computed != meta.hash {
            return Err(StoreError::SectionChecksum {
                tag: meta.tag,
                stored: meta.hash,
                computed,
            });
        }
        Ok(bytes)
    }

    /// Checksum-verified byte section.
    pub fn bytes(&self, tag: u32) -> Result<&[u8], StoreError> {
        self.payload(self.meta(tag, 1)?)
    }

    /// Checksum-verified zero-copy `u32` view of a section.
    pub fn u32s(&self, tag: u32) -> Result<&[u32], StoreError> {
        let meta = self.meta(tag, 4)?;
        let bytes = self.payload(meta)?;
        let ptr = bytes.as_ptr();
        if ptr.align_offset(4) != 0 {
            return Err(StoreError::Misaligned { tag });
        }
        // SAFETY: length and 4-byte alignment checked; any byte pattern is
        // a valid u32; the target is little-endian (enforced at open), so
        // the stored LE encoding is the native one. Lifetime is tied to
        // &self which owns the mapping.
        Ok(unsafe { std::slice::from_raw_parts(ptr.cast::<u32>(), meta.len as usize) })
    }

    /// Checksum-verified zero-copy `u64` view of a section.
    pub fn u64s(&self, tag: u32) -> Result<&[u64], StoreError> {
        let meta = self.meta(tag, 8)?;
        let bytes = self.payload(meta)?;
        let ptr = bytes.as_ptr();
        if ptr.align_offset(8) != 0 {
            return Err(StoreError::Misaligned { tag });
        }
        // SAFETY: as in `u32s`, with 8-byte alignment checked.
        Ok(unsafe { std::slice::from_raw_parts(ptr.cast::<u64>(), meta.len as usize) })
    }

    /// Zero-copy [`Buf`] window of a section, co-owning the mapping so it
    /// outlives this `StoreFile`. One value of `T` covers
    /// `T::ELEMS` on-disk elements (e.g. an interleaved pair section views
    /// as a buffer of two-field `repr(C)` structs).
    ///
    /// Bounds, element width, divisibility, and alignment are all checked
    /// here; the payload checksum is **not** re-derived (see the
    /// crate-level integrity model).
    ///
    /// # Errors
    ///
    /// Missing section, width mismatch, length not a multiple of
    /// `T::ELEMS`, or misalignment.
    pub fn view<T: SectionElem>(&self, tag: u32) -> Result<Buf<T>, StoreError> {
        let meta = self.meta(tag, T::WIDTH)?;
        let elems = meta.len as usize;
        let len = elems / T::ELEMS;
        if len * T::ELEMS != elems {
            return Err(StoreError::Malformed(
                "section length not a multiple of the view element span",
            ));
        }
        let start = meta.offset as usize;
        // Bounds were validated at open; re-slice to get the base pointer.
        let ptr = self.mapping.bytes()[start..start + elems * T::WIDTH as usize].as_ptr();
        if ptr.align_offset(std::mem::align_of::<T>()) != 0 {
            return Err(StoreError::Misaligned { tag });
        }
        // SAFETY: range in bounds and aligned (checked above), and
        // T: SectionElem guarantees layout compatibility.
        Ok(unsafe { Buf::view(Arc::clone(&self.mapping), start, len) })
    }

    /// A `Buf<usize>` window of a `u64` section: zero-copy on 64-bit
    /// targets, a checked owned copy elsewhere.
    ///
    /// # Errors
    ///
    /// As [`Self::view`]; additionally, on 32-bit targets, values
    /// exceeding `usize::MAX` (and those copies are checksum-verified).
    pub fn view_usizes(&self, tag: u32) -> Result<Buf<usize>, StoreError> {
        #[cfg(target_pointer_width = "64")]
        {
            self.view::<usize>(tag)
        }
        #[cfg(not(target_pointer_width = "64"))]
        {
            let raw = self.u64s(tag)?;
            let mut out = Vec::with_capacity(raw.len());
            for &x in raw {
                out.push(
                    usize::try_from(x)
                        .map_err(|_| StoreError::Malformed("section value exceeds usize"))?,
                );
            }
            Ok(Buf::from(out))
        }
    }

    /// True when a section with this tag exists (width-agnostic).
    #[must_use]
    pub fn has_section(&self, tag: u32) -> bool {
        self.sections.iter().any(|s| s.tag == tag)
    }

    /// Number of sections in the file.
    #[must_use]
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Total file size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> u64 {
        self.mapping.bytes().len() as u64
    }

    /// Whether the file is served via mmap (vs an eager in-memory copy).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.mapping.is_mapped()
    }

    /// Re-derive and check every section checksum (used by
    /// `wakeup bake --verify`).
    pub fn verify_all(&self) -> Result<(), StoreError> {
        for meta in &self.sections {
            self.payload(*meta)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_writer() -> StoreWriter {
        let mut w = StoreWriter::new(7, "net:test,n=16,seed=3");
        w.put_u64s(1, &[0, 3, 5, 9]);
        w.put_u32s(2, &[10, 11, 12, 13, 14]);
        w.put_bytes(3, b"advice-bits");
        w
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wakeup-store-test-{name}.wkb"))
    }

    #[test]
    fn round_trip_all_widths() {
        let path = tmp("roundtrip");
        sample_writer().write_atomic(&path).unwrap();
        for mode in [MapMode::Auto, MapMode::Eager] {
            let f = StoreFile::open_with(&path, 7, "net:test,n=16,seed=3", mode).unwrap();
            assert_eq!(f.u64s(1).unwrap(), &[0, 3, 5, 9]);
            assert_eq!(f.u32s(2).unwrap(), &[10, 11, 12, 13, 14]);
            assert_eq!(f.bytes(3).unwrap(), b"advice-bits");
            assert_eq!(f.section_count(), 3);
            assert!(f.has_section(2));
            assert!(!f.has_section(99));
            f.verify_all().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_stable_encoding() {
        assert_eq!(sample_writer().to_bytes(), sample_writer().to_bytes());
    }

    #[test]
    fn sections_are_64_aligned() {
        let bytes = sample_writer().to_bytes();
        assert_eq!(bytes.len() % SECTION_ALIGN, 0);
        let path = tmp("align");
        sample_writer().write_atomic(&path).unwrap();
        let f = StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap();
        for s in &f.sections {
            assert_eq!(s.offset % SECTION_ALIGN as u64, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_not_found() {
        let err = StoreFile::open(Path::new("/nonexistent/nope.wkb"), 7, "k").unwrap_err();
        assert!(err.is_not_found(), "{err}");
    }

    #[test]
    fn truncated_file_fails_closed() {
        let path = tmp("trunc");
        let bytes = sample_writer().to_bytes();
        // Cut inside the last payload section.
        std::fs::write(&path, &bytes[..bytes.len() - 32]).unwrap();
        let err = StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
        // Cut inside the header.
        std::fs::write(&path, &bytes[..40]).unwrap();
        let err = StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_fails_section_checksum() {
        let path = tmp("flip");
        let mut bytes = sample_writer().to_bytes();
        let last = bytes.len() - 1;
        // Flip a byte inside the final section's payload (the "advice-bits"
        // text sits in the last 64-byte block).
        bytes[last - 60] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let f = StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap();
        let err = f.bytes(3).unwrap_err();
        assert!(
            matches!(err, StoreError::SectionChecksum { tag: 3, .. }),
            "{err}"
        );
        assert!(f.verify_all().is_err());
        // Untouched sections still verify.
        f.u64s(1).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_table_byte_fails_table_checksum() {
        let path = tmp("table");
        let mut bytes = sample_writer().to_bytes();
        bytes[HEADER_LEN + 16] ^= 1; // a section len byte
        std::fs::write(&path, &bytes).unwrap();
        let err = StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap_err();
        assert!(matches!(err, StoreError::TableChecksum { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_kind_key_magic() {
        let base = sample_writer().to_bytes();
        let path = tmp("hdr");

        let mut v = base.clone();
        v[8] = 0xFE;
        std::fs::write(&path, &v).unwrap();
        assert!(matches!(
            StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap_err(),
            StoreError::UnsupportedVersion {
                found: 0xFE,
                expected: FORMAT_VERSION
            }
        ));

        std::fs::write(&path, &base).unwrap();
        assert!(matches!(
            StoreFile::open(&path, 8, "net:test,n=16,seed=3").unwrap_err(),
            StoreError::WrongKind {
                found: 7,
                expected: 8
            }
        ));
        assert!(matches!(
            StoreFile::open(&path, 7, "net:test,n=16,seed=4").unwrap_err(),
            StoreError::KeyMismatch
        ));

        let mut m = base.clone();
        m[0] = b'X';
        std::fs::write(&path, &m).unwrap();
        assert!(matches!(
            StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap_err(),
            StoreError::BadMagic
        ));

        let mut r = base;
        r[50] = 1; // reserved bytes must be zero
        std::fs::write(&path, &r).unwrap();
        assert!(matches!(
            StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap_err(),
            StoreError::Malformed(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let path = tmp("trailing");
        let mut bytes = sample_writer().to_bytes();
        bytes.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap_err(),
            StoreError::Malformed(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn width_and_missing_section_errors() {
        let path = tmp("width");
        sample_writer().write_atomic(&path).unwrap();
        let f = StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap();
        assert!(matches!(
            f.u32s(1).unwrap_err(),
            StoreError::WrongWidth {
                tag: 1,
                found: 8,
                expected: 4
            }
        ));
        assert!(matches!(
            f.u64s(42).unwrap_err(),
            StoreError::MissingSection { tag: 42 }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn views_round_trip_and_outlive_the_file() {
        let path = tmp("views");
        sample_writer().write_atomic(&path).unwrap();
        for mode in [MapMode::Auto, MapMode::Eager] {
            let (a, b) = {
                let f = StoreFile::open_with(&path, 7, "net:test,n=16,seed=3", mode).unwrap();
                let a: Buf<u64> = f.view(1).unwrap();
                let b: Buf<u32> = f.view(2).unwrap();
                assert_eq!(f.view_usizes(1).unwrap()[..], [0usize, 3, 5, 9]);
                (a, b)
                // f (and its section table) drop here; the views must
                // keep the mapping itself alive.
            };
            assert_eq!(a[..], [0u64, 3, 5, 9]);
            assert_eq!(b[..], [10u32, 11, 12, 13, 14]);
            assert_eq!(a.clone(), a);
            assert!(a.is_view() || mode == MapMode::Eager);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn view_width_mismatch_rejected() {
        let path = tmp("viewwidth");
        sample_writer().write_atomic(&path).unwrap();
        let f = StoreFile::open(&path, 7, "net:test,n=16,seed=3").unwrap();
        assert!(matches!(
            f.view::<u32>(1).unwrap_err(),
            StoreError::WrongWidth {
                tag: 1,
                found: 8,
                expected: 4
            }
        ));
        assert!(matches!(
            f.view::<u64>(42).unwrap_err(),
            StoreError::MissingSection { tag: 42 }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pair_views_require_even_length() {
        // A 5-element u32 section cannot be viewed as 2-element spans.
        #[derive(Clone, Copy, Debug, PartialEq)]
        #[repr(C)]
        struct Pair {
            a: u32,
            b: u32,
        }
        // SAFETY: two u32 fields in repr(C): 8 bytes, align 4, no padding,
        // all bit patterns valid.
        unsafe impl SectionElem for Pair {
            const WIDTH: u32 = 4;
            const ELEMS: usize = 2;
        }
        let path = tmp("pairs");
        let mut w = StoreWriter::new(7, "k");
        w.put_u32s(2, &[10, 11, 12, 13, 14]);
        w.put_u32s(4, &[1, 2, 3, 4]);
        w.write_atomic(&path).unwrap();
        let f = StoreFile::open(&path, 7, "k").unwrap();
        assert!(matches!(
            f.view::<Pair>(2).unwrap_err(),
            StoreError::Malformed(_)
        ));
        let pairs: Buf<Pair> = f.view(4).unwrap();
        assert_eq!(pairs[..], [Pair { a: 1, b: 2 }, Pair { a: 3, b: 4 }]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_sections_round_trip() {
        let path = tmp("empty");
        let mut w = StoreWriter::new(1, "k");
        w.put_u64s(1, &[]);
        w.put_u32s(2, &[]);
        w.write_atomic(&path).unwrap();
        let f = StoreFile::open(&path, 1, "k").unwrap();
        assert!(f.u64s(1).unwrap().is_empty());
        assert!(f.u32s(2).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
