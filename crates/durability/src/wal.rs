//! WAL frame layout and the tail-tolerant scanner.
//!
//! Every frame is `[len: u32 LE][crc: u32 LE][payload: len bytes]` where
//! `crc` is the CRC-32 of the payload alone. The scanner embodies the
//! recovery contract:
//!
//! * a **torn tail** — fewer than 8 header bytes left, a declared length
//!   running past end-of-file, or a checksum mismatch on a frame that
//!   ends exactly at end-of-file — is the expected residue of a crash
//!   mid-append and is *tolerated*: the scan stops at the last
//!   checksum-valid frame and reports where;
//! * anything else — a checksum mismatch with more log after it, a
//!   checksum-valid frame whose payload doesn't decode, or a
//!   non-monotonic LSN — cannot be produced by a torn append and is
//!   reported as structured **corruption**, never a panic.

use std::path::Path;

use crate::crc32::crc32;
use crate::record::{decode_record, WalRecord};
use crate::DurabilityError;

/// Bytes of frame header: u32 payload length + u32 CRC-32.
pub const FRAME_HEADER: usize = 8;

/// Builds one frame around a payload.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// The result of scanning a WAL file.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Every checksum-valid, decoded record in log order, with the byte
    /// offsets of its frame's start and of just past its end.
    pub records: Vec<(WalRecord, u64, u64)>,
    /// Length of the valid prefix; anything past it is a torn tail.
    pub valid_len: u64,
    /// Why the scan stopped early, if it did (torn-tail description).
    pub torn: Option<String>,
}

/// Scans raw WAL bytes. `min_lsn` is the exclusive lower bound records
/// must stay above (the last LSN covered by the snapshot being recovered
/// from); records at or below it are skipped as pre-checkpoint residue
/// but still checksum/monotonicity-checked.
pub(crate) fn scan(data: &[u8], path: &Path, min_lsn: u64) -> Result<WalScan, DurabilityError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut prev_lsn = 0u64;
    let mut torn = None;
    while offset < data.len() {
        let remaining = data.len() - offset;
        if remaining < FRAME_HEADER {
            torn = Some(format!(
                "torn tail: {remaining} byte(s) of frame header at offset {offset}"
            ));
            break;
        }
        let len =
            u32::from_le_bytes(data[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let end = offset + FRAME_HEADER + len;
        if end > data.len() {
            torn = Some(format!(
                "torn tail: frame at offset {offset} declares {len} payload bytes, \
                 {} available",
                remaining - FRAME_HEADER
            ));
            break;
        }
        let payload = &data[offset + FRAME_HEADER..end];
        if crc32(payload) != crc {
            if end == data.len() {
                // A torn write of the *final* frame: the header landed,
                // part of the payload did not (or landed scrambled).
                torn = Some(format!(
                    "torn tail: checksum mismatch on final frame at offset {offset}"
                ));
                break;
            }
            // Checksum failure with more log after it: a later append
            // succeeded *through* this frame, so the bytes rotted in
            // place — that is corruption, not a crash artifact.
            return Err(DurabilityError::Corrupt {
                path: path.to_path_buf(),
                offset: offset as u64,
                message: "checksum mismatch mid-log".to_string(),
            });
        }
        let record = decode_record(payload).map_err(|message| DurabilityError::Corrupt {
            path: path.to_path_buf(),
            offset: offset as u64,
            message,
        })?;
        if record.lsn <= prev_lsn {
            return Err(DurabilityError::Corrupt {
                path: path.to_path_buf(),
                offset: offset as u64,
                message: format!(
                    "non-monotonic LSN {} after {} — log records out of order",
                    record.lsn, prev_lsn
                ),
            });
        }
        prev_lsn = record.lsn;
        if record.lsn > min_lsn {
            records.push((record, offset as u64, end as u64));
        }
        offset = end;
    }
    Ok(WalScan {
        records,
        valid_len: offset as u64,
        torn,
    })
}

/// Public inspection helper: the end offset of every valid record frame
/// in a WAL file, in order. The prefix-differential recovery tests use
/// these as truncation points — each offset is a crash-consistent log
/// prefix ending exactly at a record boundary.
pub fn wal_record_ends(path: &Path) -> Result<Vec<u64>, DurabilityError> {
    let data = std::fs::read(path).map_err(|e| DurabilityError::io("read", path, &e))?;
    let scan = scan(&data, path, 0)?;
    Ok(scan.records.iter().map(|(_, _, end)| *end).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, WalOp};
    use sqlpp_value::Value;
    use std::path::PathBuf;

    fn rec(lsn: u64) -> Vec<u8> {
        frame(&encode_record(&WalRecord {
            lsn,
            op: WalOp::Commit {
                name: "t".into(),
                value: Value::Int(lsn as i64),
            },
        }))
    }

    fn p() -> PathBuf {
        PathBuf::from("test.wal")
    }

    #[test]
    fn clean_log_scans_fully() {
        let mut data = Vec::new();
        for lsn in 1..=3 {
            data.extend(rec(lsn));
        }
        let scan = scan(&data, &p(), 0).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, data.len() as u64);
        assert!(scan.torn.is_none());
    }

    #[test]
    fn min_lsn_filters_but_still_validates() {
        let mut data = Vec::new();
        for lsn in 1..=4 {
            data.extend(rec(lsn));
        }
        let scan = scan(&data, &p(), 2).unwrap();
        let lsns: Vec<u64> = scan.records.iter().map(|(r, _, _)| r.lsn).collect();
        assert_eq!(lsns, [3, 4]);
        assert_eq!(scan.valid_len, data.len() as u64);
    }

    #[test]
    fn every_truncation_of_the_final_frame_is_tolerated() {
        let mut data = Vec::new();
        data.extend(rec(1));
        let keep = data.len() as u64;
        data.extend(rec(2));
        // Start one past the boundary: a cut exactly at the record end
        // is a clean log, not a torn one.
        for cut in keep as usize + 1..data.len() {
            let scan = scan(&data[..cut], &p(), 0).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, keep, "cut at {cut}");
            assert!(scan.torn.is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn final_frame_bit_flip_is_a_torn_tail() {
        let mut data = rec(1);
        let last = data.len() - 1;
        data[last] ^= 0x40;
        let scan = scan(&data, &p(), 0).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn.is_some());
    }

    #[test]
    fn mid_log_bit_flip_is_corruption() {
        let mut data = rec(1);
        let flip = data.len() - 1;
        data[flip] ^= 0x40;
        data.extend(rec(2));
        match scan(&data, &p(), 0) {
            Err(DurabilityError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn non_monotonic_lsn_is_corruption() {
        let mut data = Vec::new();
        data.extend(rec(2));
        data.extend(rec(2));
        assert!(matches!(
            scan(&data, &p(), 0),
            Err(DurabilityError::Corrupt { .. })
        ));
    }

    #[test]
    fn checksum_valid_garbage_payload_is_corruption() {
        // A frame whose checksum is right but whose payload is not a
        // record: torn writes can't make this, so it must hard-error
        // even at end-of-file.
        let data = frame(b"not a record");
        assert!(matches!(
            scan(&data, &p(), 0),
            Err(DurabilityError::Corrupt { .. })
        ));
    }
}
