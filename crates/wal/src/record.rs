//! Frame and payload encoding: the journal's on-disk record format,
//! which doubles as the wire format for fleet-scale intake.
//!
//! # Record framing
//!
//! Every journal record is one self-checking frame:
//!
//! ```text
//! len: u32 LE      bytes after the 8-byte (len, crc) header
//! crc: u32 LE      CRC-32 of everything after the header
//! kind: u8         RECORD_BATCH = 1 | RECORD_EPOCH = 2
//! seq: u64 LE      intake sequence number of the delivery
//! payload          kind-specific body
//! ```
//!
//! Batch records carry a delivered [`EventColumns`] batch. Epoch records
//! (`RECORD_EPOCH`, payload = `day: u32 LE`) are **boundary markers**: a
//! journaled engine appends one at each epoch boundary, and recovery
//! cuts its replay tail at the first marker it meets — replaying
//! deliveries past an epoch boundary without re-running the boundary's
//! engine effects (heat decay, re-solve) would leave the recovered
//! engine off the never-crashed trajectory. Everything at and past the
//! cut is discarded and re-delivered instead.
//!
//! A reader can always either validate a frame completely or classify
//! the failure: not enough bytes for a header, an implausible length, a
//! checksum mismatch, an unknown kind, or an undecodable payload — each
//! a distinct [`CorruptKind`](crate::CorruptKind).
//!
//! # Batch payload (the wire format)
//!
//! An [`EventColumns`] batch is encoded column-wise, little-endian:
//!
//! ```text
//! n: u32 LE
//! days:       n × u32
//! periods:    n × u32
//! object_ids: n × u32
//! kinds:      n × u8    (0 = Read, 1 = Write)
//! volumes:    n × u64   (f64 bit patterns, so NaN corruption survives
//!                        the round trip for the validating intake to
//!                        quarantine)
//! ```

use crate::crc::crc32;
use crate::error::{CorruptKind, WalError};
use scope_cloudsim::{AccessKind, EventColumns};

/// Record kind: one delivered `EventColumns` batch.
pub const RECORD_BATCH: u8 = 1;

/// Record kind: an epoch-boundary marker (see the module docs).
pub const RECORD_EPOCH: u8 = 2;

/// Frame header size: `len` + `crc`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Body bytes before the payload: `kind` + `seq`.
pub const FRAME_BODY_MIN: usize = 9;

/// Sanity cap on a single frame's body, far above any real batch — a
/// corrupted length field almost always lands outside `[FRAME_BODY_MIN,
/// MAX_FRAME_BODY]` or past the segment end, so garbage lengths are
/// caught before the checksum is even consulted.
pub const MAX_FRAME_BODY: u32 = 64 << 20;

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Intake sequence number the batch was delivered under (for epoch
    /// markers: the caller's epoch ordinal).
    pub seq: u64,
    /// The kind-specific payload.
    pub payload: RecordPayload,
}

/// A record's kind-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordPayload {
    /// A delivered batch.
    Batch(EventColumns),
    /// An epoch-boundary marker: the engine decayed heat to `day` and
    /// re-solved here. Recovery cuts its replay tail at the first one.
    Epoch {
        /// Day the epoch advanced the engine to.
        day: u32,
    },
}

impl Record {
    /// The delivered batch, when this is a batch record.
    pub fn batch(&self) -> Option<&EventColumns> {
        match &self.payload {
            RecordPayload::Batch(columns) => Some(columns),
            RecordPayload::Epoch { .. } => None,
        }
    }
}

fn encode_frame(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = FRAME_BODY_MIN + payload.len();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // crc placeholder
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[FRAME_HEADER_LEN..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Encode a batch delivery as one framed record.
pub fn encode_record(seq: u64, columns: &EventColumns) -> Vec<u8> {
    encode_frame(RECORD_BATCH, seq, &encode_columns(columns))
}

/// Encode an epoch-boundary marker as one framed record.
pub fn encode_epoch_record(seq: u64, day: u32) -> Vec<u8> {
    encode_frame(RECORD_EPOCH, seq, &day.to_le_bytes())
}

/// Outcome of decoding the frame starting at `offset` in `bytes`.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOutcome {
    /// A valid record; `next` is the offset of the following frame.
    Valid {
        /// The decoded record.
        record: Record,
        /// Offset of the next frame.
        next: usize,
    },
    /// The frame's declared span extends past the end of `bytes` (or
    /// there are not even enough bytes for a header). At the tail of the
    /// last segment this is a torn write; anywhere else it is corruption.
    Overrun {
        /// What made the span implausible.
        kind: CorruptKind,
    },
    /// The frame lies fully inside `bytes` but fails validation.
    Invalid {
        /// What failed.
        kind: CorruptKind,
    },
}

/// Decode the frame at `offset`. `bytes[offset..]` must be non-empty.
pub fn decode_frame(bytes: &[u8], offset: usize) -> FrameOutcome {
    let remaining = bytes.len().saturating_sub(offset);
    if remaining < FRAME_HEADER_LEN {
        return FrameOutcome::Overrun {
            kind: CorruptKind::Header,
        };
    }
    let len = read_u32(bytes, offset);
    if len < FRAME_BODY_MIN as u32 || len > MAX_FRAME_BODY {
        return FrameOutcome::Overrun {
            kind: CorruptKind::Length,
        };
    }
    let body_len = len as usize;
    if remaining - FRAME_HEADER_LEN < body_len {
        return FrameOutcome::Overrun {
            kind: CorruptKind::Length,
        };
    }
    let crc = read_u32(bytes, offset + 4);
    let body = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + body_len];
    if crc32(body) != crc {
        return FrameOutcome::Invalid {
            kind: CorruptKind::Checksum,
        };
    }
    let seq = read_u64(body, 1);
    let next = offset + FRAME_HEADER_LEN + body_len;
    let payload = &body[FRAME_BODY_MIN..];
    match body[0] {
        RECORD_BATCH => match decode_columns(payload) {
            Some(columns) => FrameOutcome::Valid {
                record: Record {
                    seq,
                    payload: RecordPayload::Batch(columns),
                },
                next,
            },
            None => FrameOutcome::Invalid {
                kind: CorruptKind::Payload,
            },
        },
        RECORD_EPOCH => {
            if payload.len() != 4 {
                return FrameOutcome::Invalid {
                    kind: CorruptKind::Payload,
                };
            }
            FrameOutcome::Valid {
                record: Record {
                    seq,
                    payload: RecordPayload::Epoch {
                        day: read_u32(payload, 0),
                    },
                },
                next,
            }
        }
        _ => FrameOutcome::Invalid {
            kind: CorruptKind::Kind,
        },
    }
}

/// Encode an `EventColumns` batch column-wise (see the module docs).
pub fn encode_columns(columns: &EventColumns) -> Vec<u8> {
    let n = columns.len();
    let mut out = Vec::with_capacity(4 + n * 21);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for &d in &columns.days {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for &p in &columns.periods {
        out.extend_from_slice(&p.to_le_bytes());
    }
    for &id in &columns.object_ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for &k in &columns.kinds {
        out.push(match k {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        });
    }
    for &v in &columns.volumes {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decode an `EventColumns` batch; `None` when `bytes` is not exactly
/// one well-formed column block.
pub fn decode_columns(bytes: &[u8]) -> Option<EventColumns> {
    if bytes.len() < 4 {
        return None;
    }
    let n = read_u32(bytes, 0) as usize;
    let expect = 4usize
        .checked_add(n.checked_mul(21)?)
        .filter(|&e| e == bytes.len())?;
    let _ = expect;
    let mut cols = EventColumns::default();
    let mut o = 4;
    for _ in 0..n {
        cols.days.push(read_u32(bytes, o));
        o += 4;
    }
    for _ in 0..n {
        cols.periods.push(read_u32(bytes, o));
        o += 4;
    }
    for _ in 0..n {
        cols.object_ids.push(read_u32(bytes, o));
        o += 4;
    }
    for _ in 0..n {
        cols.kinds.push(match bytes[o] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => return None,
        });
        o += 1;
    }
    for _ in 0..n {
        cols.volumes.push(f64::from_bits(read_u64(bytes, o)));
        o += 8;
    }
    Some(cols)
}

// ---------------------------------------------------------------------------
// Checkpoint frame
// ---------------------------------------------------------------------------

/// Magic prefix of a checkpoint object.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"WCKP";

/// Checkpoint frame version.
pub const CHECKPOINT_FRAME_VERSION: u32 = 1;

/// The journal's wrapper around an engine checkpoint: enough metadata to
/// resume the journal (which segments to replay, how many deliveries the
/// snapshot covers) plus an opaque caller progress `marker`, all under
/// one trailing CRC.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// First segment ordinal whose records are *not* covered by this
    /// snapshot (replay starts here).
    pub replay_from: u64,
    /// Deliveries appended to the journal before this snapshot was
    /// taken — all of them are reflected in `state`.
    pub deliveries: u64,
    /// Opaque caller progress marker (the serving harnesses store their
    /// position in the replay schedule, so recovery can tell a
    /// checkpoint taken *after* an epoch step from one taken before it).
    pub marker: u64,
    /// The engine checkpoint bytes.
    pub state: Vec<u8>,
}

/// Serialize a checkpoint frame (magic, version, metadata, state, CRC)
/// straight from a borrowed `state`, so publishing a snapshot copies it
/// once, into the frame.
pub(crate) fn encode_checkpoint_frame(
    replay_from: u64,
    deliveries: u64,
    marker: u64,
    state: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + 8 * 4 + state.len() + 4);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&replay_from.to_le_bytes());
    out.extend_from_slice(&deliveries.to_le_bytes());
    out.extend_from_slice(&marker.to_le_bytes());
    out.extend_from_slice(&(state.len() as u64).to_le_bytes());
    out.extend_from_slice(state);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

impl CheckpointFrame {
    /// Serialize the frame: magic, version, metadata, state, CRC.
    pub fn encode(&self) -> Vec<u8> {
        encode_checkpoint_frame(self.replay_from, self.deliveries, self.marker, &self.state)
    }

    /// Parse and validate a frame read back from storage.
    pub fn decode(object: &str, bytes: &[u8]) -> Result<Self, WalError> {
        let reject = |reason: &str| WalError::Checkpoint {
            object: object.to_string(),
            reason: reason.to_string(),
        };
        const FIXED: usize = 4 + 4 + 8 * 4; // magic + version + 4 metadata words
        if bytes.len() < FIXED + 4 {
            return Err(reject("shorter than a checkpoint frame"));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        if crc32(body) != read_u32(trailer, 0) {
            return Err(reject("frame checksum mismatch"));
        }
        if &body[0..4] != CHECKPOINT_MAGIC {
            return Err(reject("bad magic"));
        }
        if read_u32(body, 4) != CHECKPOINT_FRAME_VERSION {
            return Err(reject("unsupported frame version"));
        }
        let replay_from = read_u64(body, 8);
        let deliveries = read_u64(body, 16);
        let marker = read_u64(body, 24);
        let state_len = read_u64(body, 32) as usize;
        if body.len() - FIXED != state_len {
            return Err(reject("state length mismatch"));
        }
        Ok(CheckpointFrame {
            replay_from,
            deliveries,
            marker,
            state: body[FIXED..].to_vec(),
        })
    }
}

/// Little-endian `u32` at `o`; callers have bounds-checked the span.
fn read_u32(bytes: &[u8], o: usize) -> u32 {
    let mut le = [0u8; 4];
    le.copy_from_slice(&bytes[o..o + 4]);
    u32::from_le_bytes(le)
}

/// Little-endian `u64` at `o`; callers have bounds-checked the span.
fn read_u64(bytes: &[u8], o: usize) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(&bytes[o..o + 8]);
    u64::from_le_bytes(le)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize) -> EventColumns {
        let mut cols = EventColumns::default();
        for i in 0..n {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let volume = match i % 5 {
                0 => f64::NAN,
                1 => -1.25,
                _ => 0.5 + i as f64 * 0.125,
            };
            cols.push_resolved(i as u32 % 90, i as u32 % 7, kind, volume);
        }
        cols
    }

    fn bits(cols: &EventColumns) -> Vec<u64> {
        cols.volumes.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn columns_round_trip_bit_for_bit_including_nan() {
        for n in [0usize, 1, 7, 100] {
            let cols = batch(n);
            let decoded = decode_columns(&encode_columns(&cols)).unwrap();
            assert_eq!(decoded.days, cols.days);
            assert_eq!(decoded.periods, cols.periods);
            assert_eq!(decoded.object_ids, cols.object_ids);
            assert_eq!(decoded.kinds, cols.kinds);
            assert_eq!(bits(&decoded), bits(&cols));
        }
    }

    #[test]
    fn truncated_or_padded_payloads_are_rejected() {
        let enc = encode_columns(&batch(5));
        assert!(decode_columns(&enc[..enc.len() - 1]).is_none());
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_columns(&padded).is_none());
        assert!(decode_columns(&[]).is_none());
        // A kind byte outside {0, 1} is payload corruption.
        let mut bad_kind = enc;
        bad_kind[4 + 5 * 12] = 7;
        assert!(decode_columns(&bad_kind).is_none());
    }

    #[test]
    fn records_round_trip_and_chain() {
        let a = encode_record(3, &batch(4));
        let b = encode_record(4, &batch(0));
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let FrameOutcome::Valid { record, next } = decode_frame(&stream, 0) else {
            panic!("first frame invalid");
        };
        assert_eq!(record.seq, 3);
        assert_eq!(record.batch().unwrap().len(), 4);
        assert_eq!(next, a.len());
        let FrameOutcome::Valid { record, next } = decode_frame(&stream, next) else {
            panic!("second frame invalid");
        };
        assert_eq!(record.seq, 4);
        assert_eq!(record.batch().unwrap().len(), 0);
        assert_eq!(next, stream.len());
    }

    #[test]
    fn epoch_records_round_trip_and_chain_with_batches() {
        let a = encode_record(11, &batch(2));
        let b = encode_epoch_record(5, 42);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let FrameOutcome::Valid { next, .. } = decode_frame(&stream, 0) else {
            panic!("batch frame invalid");
        };
        let FrameOutcome::Valid { record, next } = decode_frame(&stream, next) else {
            panic!("epoch frame invalid");
        };
        assert_eq!(record.seq, 5);
        assert_eq!(record.payload, RecordPayload::Epoch { day: 42 });
        assert!(record.batch().is_none());
        assert_eq!(next, stream.len());
        // Every single-bit flip in an epoch frame is detected too.
        for byte in 0..b.len() {
            for bit in 0..8 {
                let mut bad = b.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    !matches!(decode_frame(&bad, 0), FrameOutcome::Valid { .. }),
                    "flip at byte {byte} bit {bit} decoded as valid"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_in_a_frame_is_detected() {
        let enc = encode_record(9, &batch(3));
        for byte in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                match decode_frame(&bad, 0) {
                    FrameOutcome::Valid { record, .. } => {
                        // A flip in the volume columns may still checksum
                        // only if... it cannot: CRC covers the body and the
                        // length field is validated by span. Nothing may
                        // decode as valid.
                        panic!("flip at byte {byte} bit {bit} decoded as {record:?}");
                    }
                    FrameOutcome::Overrun { .. } | FrameOutcome::Invalid { .. } => {}
                }
            }
        }
    }

    #[test]
    fn torn_prefixes_report_overrun() {
        let enc = encode_record(1, &batch(6));
        for cut in 0..enc.len() {
            match decode_frame(&enc[..cut], 0) {
                FrameOutcome::Valid { .. } => panic!("cut {cut} decoded as valid"),
                FrameOutcome::Overrun { .. } => {}
                FrameOutcome::Invalid { kind } => {
                    panic!("cut {cut} classified as interior corruption: {kind}")
                }
            }
        }
    }

    #[test]
    fn checkpoint_frames_round_trip_and_self_check() {
        let frame = CheckpointFrame {
            replay_from: 7,
            deliveries: 1234,
            marker: 99,
            state: (0u8..200).collect(),
        };
        let enc = frame.encode();
        assert_eq!(CheckpointFrame::decode("ckpt", &enc).unwrap(), frame);
        for byte in 0..enc.len() {
            let mut bad = enc.clone();
            bad[byte] ^= 0x10;
            assert!(
                CheckpointFrame::decode("ckpt", &bad).is_err(),
                "flip at byte {byte} accepted"
            );
        }
        assert!(matches!(
            CheckpointFrame::decode("ckpt", &enc[..10]),
            Err(WalError::Checkpoint { .. })
        ));
    }
}
