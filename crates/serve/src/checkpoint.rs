//! Versioned, checksummed checkpoint format for [`crate::ServeEngine`].
//!
//! A checkpoint captures **all** of an engine's dynamic state — interned
//! objects, applied placements, heat counters, per-shard degraded-mode
//! state (failures, backoff, incumbent assignment, dirty worklist), the
//! quarantine ledger, and the sequenced-intake reorder buffer — such that
//! a crash-restarted engine restored from the checkpoint and replayed
//! forward over the surviving event stream is **bit-for-bit** equal to an
//! engine that never crashed (the chaos differential suites compare the
//! two engines' subsequent checkpoints byte-for-byte). The only state not
//! captured is the dense cost table: it is a pure cache, and a cold
//! rebuild is pinned bit-identical to the warm patched table, so the first
//! post-restore epoch re-derives it (reported `rows_patched` is the one
//! counter allowed to differ).
//!
//! ## Wire layout (version 2)
//!
//! ```text
//! magic   b"SCPK"                      (4 bytes)
//! version u32 little-endian            (currently 2)
//! payload                              (engine state, see below)
//! checksum u64 little-endian           (CRC-32 over magic..payload,
//!                                       zero-extended; high half is 0)
//! ```
//!
//! The checksum is [`scope_wal::crc32`], the same function (IEEE
//! polynomial, zlib parameters) that frames every `scope-wal` record and
//! checkpoint object, so the snapshot path has one checksum. It sits in
//! an 8-byte slot so the layout keeps version 1's offsets and size;
//! a reader rejects a trailer whose high four bytes are not zero.
//!
//! Everything is little-endian. `f64`s are stored as their raw IEEE-754
//! bits (so NaN payloads and signed zeros round-trip exactly); strings are
//! length-prefixed UTF-8. The payload leads with a **fingerprint**: an
//! FNV-1a digest of the tier catalog and compression-scheme list the
//! checkpoint was taken under. [`crate::ServeEngine::restore`] recomputes
//! the fingerprint from the catalog/schemes it is given and rejects a
//! mismatch with [`crate::ServeError::Checkpoint`] — restoring placements
//! against different prices would silently corrupt every later re-solve.
//!
//! ## Versioning rules
//!
//! The version is bumped on **any** layout change, including a change of
//! checksum; readers reject versions they do not know (no silent
//! best-effort decodes). The version is read before the checksum is
//! checked, so a version-1 checkpoint (FNV-1a trailer) is reported as an
//! unsupported version rather than as corruption. Corruption anywhere —
//! flipped bits, truncation, trailing garbage — fails the checksum or a
//! bounds check and surfaces as a typed error, never a panic.

use scope_cloudsim::TierCatalog;
use scope_optassign::CompressionOption;
use scope_wal::crc32;

use crate::error::ServeError;

/// Magic bytes every checkpoint leads with.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SCPK";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit digest of `bytes`: the configuration fingerprint's
/// identity digest, not an integrity check (that is the CRC trailer).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Little-endian byte writer for checkpoint payloads.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append the trailing checksum and return the finished bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let checksum = crc32(&self.buf);
        self.u64(u64::from(checksum));
        self.buf
    }
}

/// Bounds-checked little-endian reader over a checkpoint payload.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validate magic, version and checksum, in that order; return a
    /// reader positioned at the start of the payload (the checksum
    /// trailer is excluded).
    pub(crate) fn open(bytes: &'a [u8]) -> Result<Self, ServeError> {
        let header = CHECKPOINT_MAGIC.len() + 4;
        if bytes.len() < header + 8 {
            return Err(ServeError::Checkpoint(format!(
                "too short: {} bytes cannot hold a header and checksum",
                bytes.len()
            )));
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            return Err(ServeError::Checkpoint(
                "bad magic: not a serve checkpoint".into(),
            ));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let mut reader = Reader {
            bytes: body,
            pos: CHECKPOINT_MAGIC.len(),
        };
        let version = reader.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(ServeError::Checkpoint(format!(
                "unsupported version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        let mut slot = [0u8; 8];
        slot.copy_from_slice(trailer);
        let stored = u64::from_le_bytes(slot);
        if stored >> 32 != 0 {
            return Err(ServeError::Checkpoint(format!(
                "checksum slot {stored:#018x} has a non-zero high half"
            )));
        }
        let actual = crc32(body);
        if stored != u64::from(actual) {
            return Err(ServeError::Checkpoint(format!(
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        Ok(reader)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.pos + n > self.bytes.len() {
            return Err(ServeError::Checkpoint(format!(
                "truncated payload: wanted {n} bytes at offset {}, only {} remain",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ServeError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ServeError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn f64_bits(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length that will index a Vec: rejects anything that cannot even
    /// fit in the remaining payload, so a corrupt length cannot trigger a
    /// huge allocation.
    pub(crate) fn len(&mut self, elem_bytes: usize) -> Result<usize, ServeError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n.saturating_mul(elem_bytes.max(1) as u64) > remaining {
            return Err(ServeError::Checkpoint(format!(
                "implausible length {n} at offset {}: only {remaining} payload bytes remain",
                self.pos
            )));
        }
        Ok(n as usize)
    }

    pub(crate) fn str(&mut self) -> Result<String, ServeError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::Checkpoint("string is not valid UTF-8".into()))
    }

    /// Error unless the payload was consumed exactly.
    pub(crate) fn expect_end(&self) -> Result<(), ServeError> {
        if self.pos != self.bytes.len() {
            return Err(ServeError::Checkpoint(format!(
                "{} trailing payload bytes after decode",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// FNV-1a fingerprint of the catalog + compression-scheme configuration a
/// checkpoint is only valid under. Covers every field that feeds pricing
/// or feasibility; restoring under a different configuration is rejected.
pub(crate) fn config_fingerprint(catalog: &TierCatalog, schemes: &[CompressionOption]) -> u64 {
    let mut w = Writer::default();
    w.u64(catalog.len() as u64);
    for (_, tier) in catalog.iter() {
        w.str(&tier.name);
        w.f64_bits(tier.storage_cost_cents_per_gb_month);
        w.f64_bits(tier.read_cost_cents_per_gb);
        w.f64_bits(tier.write_cost_cents_per_gb);
        w.f64_bits(tier.ttfb_seconds);
        w.u32(tier.early_deletion_days);
        match tier.capacity_gb {
            None => w.u8(0),
            Some(cap) => {
                w.u8(1);
                w.f64_bits(cap);
            }
        }
    }
    w.f64_bits(catalog.compute_cost_cents_per_second);
    w.u64(schemes.len() as u64);
    for s in schemes {
        w.str(&s.name);
        w.f64_bits(s.ratio);
        w.f64_bits(s.decompress_seconds);
    }
    fnv1a(&w.buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_and_checksum() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64_bits(-0.0);
        w.f64_bits(f64::NAN);
        w.str("héllo");
        let bytes = w.finish();

        // The trailer is the body's CRC-32, zero-extended to a u64.
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        assert_eq!(body[4..8], CHECKPOINT_VERSION.to_le_bytes());
        assert_eq!(trailer[..4], crc32(body).to_le_bytes());
        assert_eq!(trailer[4..], [0, 0, 0, 0]);

        let mut r = Reader::open(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64_bits().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    /// The message of the typed error `Reader::open` must return.
    fn rejection(bytes: &[u8]) -> String {
        match Reader::open(bytes) {
            Err(ServeError::Checkpoint(msg)) => msg,
            Err(other) => panic!("expected a checkpoint error, got {other:?}"),
            Ok(_) => panic!("expected a checkpoint error, got a reader"),
        }
    }

    #[test]
    fn corruption_truncation_and_bad_headers_are_typed_errors() {
        let mut w = Writer::new();
        w.str("payload");
        let good = w.finish();

        // Flip one payload bit: checksum must catch it.
        let mut flipped = good.clone();
        flipped[9] ^= 0x40;
        assert!(rejection(&flipped).contains("checksum mismatch"));

        // Truncation (drops the trailer or part of it).
        for cut in [0, 3, good.len() - 1] {
            rejection(&good[..cut]);
        }

        // Wrong magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(rejection(&magic).contains("bad magic"));

        // Unknown version (re-checksummed so only the version check fires).
        let mut vers = good.clone();
        vers[4] = 99;
        let body_len = vers.len() - 8;
        let sum = u64::from(crc32(&vers[..body_len])).to_le_bytes();
        vers[body_len..].copy_from_slice(&sum);
        assert!(rejection(&vers).contains("unsupported version 99"));

        // A non-zero high half in the checksum slot, with the right CRC
        // still in the low half.
        for byte in good.len() - 4..good.len() {
            let mut high = good.clone();
            high[byte] = 0x01;
            assert!(
                rejection(&high).contains("non-zero high half"),
                "byte {byte}"
            );
        }

        // A hand-built version-1 checkpoint (FNV-1a trailer) is refused
        // for its version, not decoded or blamed on corruption.
        let mut v1 = CHECKPOINT_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&7u64.to_le_bytes());
        v1.extend_from_slice(b"payload");
        let digest = fnv1a(&v1);
        v1.extend_from_slice(&digest.to_le_bytes());
        assert!(rejection(&v1).contains("unsupported version 1 "));

        // A corrupt length cannot demand a giant allocation.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let huge = w.finish();
        let mut r = Reader::open(&huge).unwrap();
        assert!(matches!(r.len(8), Err(ServeError::Checkpoint(_))));
    }

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let catalog = TierCatalog::azure_hot_cool_archive();
        let schemes = vec![
            CompressionOption::none(),
            CompressionOption::new("gzip", 3.5, 1.5),
        ];
        let base = config_fingerprint(&catalog, &schemes);
        assert_eq!(base, config_fingerprint(&catalog, &schemes));

        let fewer = vec![CompressionOption::none()];
        assert_ne!(base, config_fingerprint(&catalog, &fewer));

        let mut tweaked = schemes.clone();
        tweaked[1].ratio = 3.6;
        assert_ne!(base, config_fingerprint(&catalog, &tweaked));
    }
}
