//! Checkpoint snapshots: the full catalog image in one checksummed
//! frame.
//!
//! A snapshot file is a single frame (same `[len][crc][payload]` layout
//! as a WAL record) whose payload is one ion_lite tuple:
//!
//! ```text
//! { 'format': 'sqlpp-snapshot', 'version': 1, 'lsn': <int>,
//!   'epoch': <int>,
//!   'values':  [ {'name': <str>, 'value': <any>} … ],
//!   'schemas': [ {'name': <str>, 'ty': <type value>} … ] }
//! ```
//!
//! `lsn` is the last log sequence number the image covers: recovery
//! loads the image and replays only WAL records with a larger LSN.
//! Snapshots are written to a `.tmp` sibling, fsynced, and atomically
//! renamed into place — a crash mid-write leaves only a `.tmp` orphan
//! (deleted on the next open), never a half-valid snapshot under the
//! real name.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use sqlpp_formats::ion_lite;
use sqlpp_schema::SqlppType;
use sqlpp_value::{Tuple, Value};

use crate::crc32::crc32;
use crate::record::{type_from_value, type_to_value};
use crate::wal::FRAME_HEADER;
use crate::DurabilityError;

/// The catalog contents a snapshot carries (and recovery restores):
/// every named value, every schema attachment, and the schema epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogImage {
    /// `(dotted name, value)` bindings, in name order.
    pub values: Vec<(String, Value)>,
    /// `(dotted name, element type)` schema attachments, in name order.
    pub schemas: Vec<(String, SqlppType)>,
    /// The schema epoch at capture time; restored monotonically so
    /// epochs never move backwards across a restart.
    pub schema_epoch: u64,
}

/// A catalog image stamped with the LSN it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Last LSN whose effects are inside the image (0 = empty log).
    pub lsn: u64,
    /// The catalog contents.
    pub image: CatalogImage,
}

/// A catalog image borrowed from its owner — what a checkpoint
/// encodes, so writing a snapshot never copies a value.
#[derive(Debug, Clone)]
pub struct ImageView<'a> {
    /// `(dotted name, value)` bindings, in name order.
    pub values: Vec<(&'a str, &'a Value)>,
    /// `(dotted name, element type)` schema attachments, in name order.
    pub schemas: &'a [(String, SqlppType)],
    /// The schema epoch at capture time.
    pub schema_epoch: u64,
}

impl CatalogImage {
    /// Borrows the image for encoding.
    pub fn view(&self) -> ImageView<'_> {
        ImageView {
            values: (self.values.iter())
                .map(|(name, value)| (name.as_str(), value))
                .collect(),
            schemas: &self.schemas,
            schema_epoch: self.schema_epoch,
        }
    }
}

/// Encodes an image stamped with `lsn` into single-frame file
/// contents, writing each value straight from its owner.
pub fn encode_image(lsn: u64, image: &ImageView<'_>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    let entry = |buf: &mut Vec<u8>, name: &str, key: &str, value: &Value| {
        ion_lite::put_tuple_header(buf, 2);
        ion_lite::put_field_name(buf, "name");
        ion_lite::encode_into(&Value::Str(name.to_string()), buf);
        ion_lite::put_field_name(buf, key);
        ion_lite::encode_into(value, buf);
    };
    ion_lite::put_tuple_header(&mut buf, 6);
    ion_lite::put_field_name(&mut buf, "format");
    ion_lite::encode_into(&Value::Str("sqlpp-snapshot".into()), &mut buf);
    ion_lite::put_field_name(&mut buf, "version");
    ion_lite::encode_into(&Value::Int(1), &mut buf);
    ion_lite::put_field_name(&mut buf, "lsn");
    ion_lite::encode_into(&Value::Int(lsn as i64), &mut buf);
    ion_lite::put_field_name(&mut buf, "epoch");
    ion_lite::encode_into(&Value::Int(image.schema_epoch as i64), &mut buf);
    ion_lite::put_field_name(&mut buf, "values");
    ion_lite::put_array_header(&mut buf, image.values.len());
    for (name, value) in &image.values {
        entry(&mut buf, name, "value", value);
    }
    ion_lite::put_field_name(&mut buf, "schemas");
    ion_lite::put_array_header(&mut buf, image.schemas.len());
    for (name, ty) in image.schemas {
        entry(&mut buf, name, "ty", &type_to_value(ty));
    }
    crate::wal::frame(&buf)
}

/// Decodes snapshot file contents. Any defect — bad frame, bad
/// checksum, wrong format marker, undecodable image — is a `String`
/// reason the caller wraps into a structured error (or uses to fall
/// back to an older snapshot).
pub fn decode_snapshot(data: &[u8]) -> Result<Snapshot, String> {
    if data.len() < FRAME_HEADER {
        return Err("snapshot shorter than a frame header".to_string());
    }
    let len = u32::from_le_bytes(data[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if FRAME_HEADER + len != data.len() {
        return Err(format!(
            "snapshot frame declares {len} payload bytes, file holds {}",
            data.len() - FRAME_HEADER
        ));
    }
    let payload = &data[FRAME_HEADER..];
    if crc32(payload) != crc {
        return Err("snapshot checksum mismatch".to_string());
    }
    let value = ion_lite::from_ion_lite(payload)
        .map_err(|e| format!("undecodable snapshot payload: {e}"))?;
    let Value::Tuple(mut t) = value else {
        return Err("snapshot payload is not a tuple".to_string());
    };
    match t.get("format") {
        Some(Value::Str(s)) if s == "sqlpp-snapshot" => {}
        _ => return Err("missing sqlpp-snapshot format marker".to_string()),
    }
    match t.get("version") {
        Some(Value::Int(1)) => {}
        Some(Value::Int(v)) => return Err(format!("unsupported snapshot version {v}")),
        _ => return Err("missing snapshot version".to_string()),
    }
    let lsn = get_u64(&t, "lsn")?;
    let schema_epoch = get_u64(&t, "epoch")?;
    let mut values = Vec::new();
    match t.remove("values") {
        Some(Value::Array(items)) => {
            for item in items {
                let Value::Tuple(mut e) = item else {
                    return Err("snapshot value entry is not a tuple".to_string());
                };
                let value = (e.remove("value"))
                    .ok_or_else(|| "snapshot field \"value\" missing".to_string())?;
                values.push((get_str(&e, "name")?, value));
            }
        }
        _ => return Err("snapshot missing 'values'".to_string()),
    }
    let mut schemas = Vec::new();
    match t.get("schemas") {
        Some(Value::Array(items)) => {
            for item in items {
                let e = item
                    .as_tuple()
                    .ok_or_else(|| "snapshot schema entry is not a tuple".to_string())?;
                schemas.push((get_str(e, "name")?, type_from_value(&get_val(e, "ty")?)?));
            }
        }
        _ => return Err("snapshot missing 'schemas'".to_string()),
    }
    Ok(Snapshot {
        lsn,
        image: CatalogImage {
            values,
            schemas,
            schema_epoch,
        },
    })
}

fn get_u64(t: &Tuple, name: &str) -> Result<u64, String> {
    match t.get(name) {
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!("snapshot field {name:?} missing or malformed")),
    }
}

fn get_str(t: &Tuple, name: &str) -> Result<String, String> {
    match t.get(name) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("snapshot field {name:?} missing or malformed")),
    }
}

fn get_val(t: &Tuple, name: &str) -> Result<Value, String> {
    t.get(name)
        .cloned()
        .ok_or_else(|| format!("snapshot field {name:?} missing"))
}

/// Writes an image stamped with `lsn` to `path` as a snapshot file
/// directly (no tmp/rename dance — the checkpoint path layers that on
/// top; the REPL's `.save` uses this for one-shot exports). `sync`
/// forces the bytes to disk before returning.
pub fn write_image(
    path: &Path,
    lsn: u64,
    image: &ImageView<'_>,
    sync: bool,
) -> Result<(), DurabilityError> {
    let bytes = encode_image(lsn, image);
    let mut f = File::create(path).map_err(|e| DurabilityError::io("create", path, &e))?;
    f.write_all(&bytes)
        .map_err(|e| DurabilityError::io("write", path, &e))?;
    if sync {
        f.sync_all()
            .map_err(|e| DurabilityError::io("fsync", path, &e))?;
    }
    Ok(())
}

/// Reads and validates a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, DurabilityError> {
    let data = std::fs::read(path).map_err(|e| DurabilityError::io("read", path, &e))?;
    decode_snapshot(&data).map_err(|message| DurabilityError::Corrupt {
        path: path.to_path_buf(),
        offset: 0,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::bag;

    fn sample() -> Snapshot {
        Snapshot {
            lsn: 17,
            image: CatalogImage {
                values: vec![
                    ("hr.emp".into(), bag![1i64, 2i64]),
                    ("t".into(), Value::empty_bag()),
                ],
                schemas: vec![("t".into(), SqlppType::Bag(Box::new(SqlppType::Int)))],
                schema_epoch: 3,
            },
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let bytes = encode_image(snap.lsn, &snap.image.view());
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    #[test]
    fn image_encodes_like_the_whole_snapshot_tuple() {
        let snap = sample();
        let entry = |name: &str, key: &str, v: Value| {
            let mut e = Tuple::with_capacity(2);
            e.insert("name", Value::Str(name.into()));
            e.insert(key, v);
            Value::Tuple(e)
        };
        let mut t = Tuple::with_capacity(6);
        t.insert("format", Value::Str("sqlpp-snapshot".into()));
        t.insert("version", Value::Int(1));
        t.insert("lsn", Value::Int(17));
        t.insert("epoch", Value::Int(3));
        let values = snap.image.values.iter();
        let values = values.map(|(n, v)| entry(n, "value", v.clone()));
        t.insert("values", Value::Array(values.collect()));
        let schemas = snap.image.schemas.iter();
        let schemas = schemas.map(|(n, ty)| entry(n, "ty", type_to_value(ty)));
        t.insert("schemas", Value::Array(schemas.collect()));
        let whole = crate::wal::frame(&ion_lite::to_ion_lite(&Value::Tuple(t)));
        assert_eq!(encode_image(snap.lsn, &snap.image.view()), whole);
    }

    #[test]
    fn truncation_and_flips_are_rejected() {
        let snap = sample();
        let bytes = encode_image(snap.lsn, &snap.image.view());
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 1;
        assert!(decode_snapshot(&flipped).is_err());
        // Trailing garbage after the frame is rejected too.
        let mut extended = bytes;
        extended.push(0);
        assert!(decode_snapshot(&extended).is_err());
    }
}
