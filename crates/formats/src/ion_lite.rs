//! `ion-lite`: a compact binary tag-length-value encoding.
//!
//! The paper's format-independence tenet names binary formats — CBOR and
//! Amazon Ion — among the encodings a SQL++ query must work over
//! unchanged. We cannot ship those libraries, so this module implements
//! the closest synthetic equivalent (see DESIGN.md §4): a self-describing
//! binary TLV format with the exact type repertoire of the SQL++ data
//! model, including the pieces JSON lacks — bags, MISSING, exact decimals
//! and blobs. It exercises the same code path a real Ion/CBOR binding
//! would: bytes in, `Value` out, queries unchanged.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! value   := tag payload
//! tag     : u8   0=missing 1=null 2=false 3=true 4=int 5=float
//!                6=decimal 7=string 8=bytes 9=array 10=bag 11=tuple
//! int     : varint-zigzag i64
//! float   : 8 bytes IEEE-754
//! decimal : varint-zigzag i128 mantissa, varint u32 scale
//! string  : varint len, UTF-8 bytes
//! bytes   : varint len, raw bytes
//! array   : varint count, values…
//! bag     : varint count, values…
//! tuple   : varint count, (string value)…
//! ```

use sqlpp_value::attr::NameMemo;
use sqlpp_value::{Decimal, Tuple, Value};

use crate::error::FormatError;

const TAG_MISSING: u8 = 0;
const TAG_NULL: u8 = 1;
const TAG_FALSE: u8 = 2;
const TAG_TRUE: u8 = 3;
const TAG_INT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_DECIMAL: u8 = 6;
const TAG_STRING: u8 = 7;
const TAG_BYTES: u8 = 8;
const TAG_ARRAY: u8 = 9;
const TAG_BAG: u8 = 10;
const TAG_TUPLE: u8 = 11;

/// Encodes a value to ion-lite bytes.
pub fn to_ion_lite(v: &Value) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode(v, &mut buf);
    buf
}

/// Appends one value's encoding to `buf` — the bytes [`to_ion_lite`]
/// returns, for callers assembling a larger value from borrowed parts.
pub fn encode_into(v: &Value, buf: &mut Vec<u8>) {
    encode(v, buf);
}

/// Appends the header of an array of `len` elements; the elements
/// follow, each as one encoded value.
pub fn put_array_header(buf: &mut Vec<u8>, len: usize) {
    buf.push(TAG_ARRAY);
    put_varint(buf, len as u128);
}

/// Appends the header of a tuple of `fields` attributes; each follows
/// as [`put_field_name`] then one encoded value.
pub fn put_tuple_header(buf: &mut Vec<u8>, fields: usize) {
    buf.push(TAG_TUPLE);
    put_varint(buf, fields as u128);
}

/// Appends one tuple attribute's name.
pub fn put_field_name(buf: &mut Vec<u8>, name: &str) {
    put_varint(buf, name.len() as u128);
    buf.extend_from_slice(name.as_bytes());
}

/// Decodes one ion-lite value; the whole buffer must be consumed.
pub fn from_ion_lite(mut data: &[u8]) -> Result<Value, FormatError> {
    let v = decode(&mut data, 0, &mut NameMemo::default())?;
    if !data.is_empty() {
        return Err(FormatError::parse("ion-lite", "trailing bytes", 0));
    }
    Ok(v)
}

/// Decodes one ion-lite value from the front of `data` and returns it
/// with the number of bytes consumed — for framed streams (the WAL,
/// length-prefixed files) where trailing bytes belong to the *next*
/// value rather than being garbage. The caller is responsible for
/// deciding whether a nonzero remainder is legitimate.
pub fn from_ion_lite_prefix(data: &[u8]) -> Result<(Value, usize), FormatError> {
    let mut cursor = data;
    let v = decode(&mut cursor, 0, &mut NameMemo::default())?;
    Ok((v, data.len() - cursor.len()))
}

fn put_varint(buf: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_zigzag(buf: &mut Vec<u8>, v: i128) {
    put_varint(buf, ((v << 1) ^ (v >> 127)) as u128);
}

/// Pops the first byte off the input cursor.
fn get_u8(data: &mut &[u8]) -> Result<u8, FormatError> {
    let (&first, rest) = data
        .split_first()
        .ok_or_else(|| FormatError::parse("ion-lite", "truncated value", 0))?;
    *data = rest;
    Ok(first)
}

/// Advances the input cursor past `n` bytes (caller has length-checked).
fn advance(data: &mut &[u8], n: usize) {
    *data = &data[n..];
}

fn get_varint(data: &mut &[u8]) -> Result<u128, FormatError> {
    let mut v: u128 = 0;
    let mut shift = 0u32;
    loop {
        if data.is_empty() {
            return Err(FormatError::parse("ion-lite", "truncated varint", 0));
        }
        if shift >= 128 {
            return Err(FormatError::parse("ion-lite", "varint overflow", 0));
        }
        let byte = get_u8(data)?;
        // The final chunk (shift 126) only has room for 2 of its 7
        // bits; shifting would silently drop the rest, making two
        // distinct encodings decode to the same value.
        if shift + 7 > 128 && (byte & 0x7f) >> (128 - shift) != 0 {
            return Err(FormatError::parse("ion-lite", "varint overflow", 0));
        }
        v |= ((byte & 0x7f) as u128) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn get_zigzag(data: &mut &[u8]) -> Result<i128, FormatError> {
    let raw = get_varint(data)?;
    Ok(((raw >> 1) as i128) ^ -((raw & 1) as i128))
}

fn encode(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Missing => buf.push(TAG_MISSING),
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_FALSE),
        Value::Bool(true) => buf.push(TAG_TRUE),
        Value::Int(i) => {
            buf.push(TAG_INT);
            put_zigzag(buf, *i as i128);
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Value::Decimal(d) => {
            buf.push(TAG_DECIMAL);
            put_zigzag(buf, d.mantissa());
            put_varint(buf, d.scale() as u128);
        }
        Value::Str(s) => {
            buf.push(TAG_STRING);
            put_varint(buf, s.len() as u128);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.push(TAG_BYTES);
            put_varint(buf, b.len() as u128);
            buf.extend_from_slice(b);
        }
        Value::Array(items) => {
            buf.push(TAG_ARRAY);
            put_varint(buf, items.len() as u128);
            for item in items {
                encode(item, buf);
            }
        }
        Value::Bag(items) => {
            buf.push(TAG_BAG);
            put_varint(buf, items.len() as u128);
            for item in items {
                encode(item, buf);
            }
        }
        Value::Tuple(t) => {
            buf.push(TAG_TUPLE);
            put_varint(buf, t.len() as u128);
            for (name, value) in t.iter() {
                put_varint(buf, name.len() as u128);
                buf.extend_from_slice(name.as_bytes());
                encode(value, buf);
            }
        }
    }
}

/// Recursion depth guard: deeply nested adversarial inputs must error, not
/// blow the stack.
const MAX_DEPTH: usize = 256;

fn decode(data: &mut &[u8], depth: usize, names: &mut NameMemo) -> Result<Value, FormatError> {
    if depth > MAX_DEPTH {
        return Err(FormatError::parse("ion-lite", "nesting too deep", 0));
    }
    let tag = get_u8(data)?;
    Ok(match tag {
        TAG_MISSING => Value::Missing,
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => {
            let raw = get_zigzag(data)?;
            Value::Int(
                i64::try_from(raw)
                    .map_err(|_| FormatError::parse("ion-lite", "integer out of range", 0))?,
            )
        }
        TAG_FLOAT => {
            if data.len() < 8 {
                return Err(FormatError::parse("ion-lite", "truncated float", 0));
            }
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&data[..8]);
            advance(data, 8);
            Value::Float(f64::from_le_bytes(raw))
        }
        TAG_DECIMAL => {
            let mantissa = get_zigzag(data)?;
            let scale = u32::try_from(get_varint(data)?)
                .map_err(|_| FormatError::parse("ion-lite", "decimal scale out of range", 0))?;
            if scale > 64 {
                return Err(FormatError::parse("ion-lite", "decimal scale too large", 0));
            }
            Value::Decimal(Decimal::new(mantissa, scale))
        }
        TAG_STRING => Value::Str(get_string(data)?),
        TAG_BYTES => {
            let len = get_len(data)?;
            if data.len() < len {
                return Err(FormatError::parse("ion-lite", "truncated bytes", 0));
            }
            let b = data[..len].to_vec();
            advance(data, len);
            Value::Bytes(b)
        }
        TAG_ARRAY | TAG_BAG => {
            let count = get_len(data)?;
            let mut items = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                items.push(decode(data, depth + 1, names)?);
            }
            if tag == TAG_ARRAY {
                Value::Array(items)
            } else {
                Value::Bag(items)
            }
        }
        TAG_TUPLE => {
            let count = get_len(data)?;
            let mut t = Tuple::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let name = names
                    .name(get_slice(data)?)
                    .map_err(|_| FormatError::parse("ion-lite", "invalid UTF-8", 0))?;
                let value = decode(data, depth + 1, names)?;
                // Preserve MISSING-freedom: a conforming encoder never
                // writes MISSING attribute values; tolerate and drop them.
                t.insert(name, value);
            }
            Value::Tuple(t)
        }
        other => {
            return Err(FormatError::parse(
                "ion-lite",
                format!("unknown tag {other}"),
                0,
            ));
        }
    })
}

fn get_len(data: &mut &[u8]) -> Result<usize, FormatError> {
    let len = usize::try_from(get_varint(data)?)
        .map_err(|_| FormatError::parse("ion-lite", "length out of range", 0))?;
    Ok(len)
}

/// Pops one length-prefixed byte string off the input cursor.
fn get_slice<'a>(data: &mut &'a [u8]) -> Result<&'a [u8], FormatError> {
    let len = get_len(data)?;
    if data.len() < len {
        return Err(FormatError::parse("ion-lite", "truncated string", 0));
    }
    let (head, rest) = data.split_at(len);
    *data = rest;
    Ok(head)
}

fn get_string(data: &mut &[u8]) -> Result<String, FormatError> {
    let s = std::str::from_utf8(get_slice(data)?)
        .map_err(|_| FormatError::parse("ion-lite", "invalid UTF-8", 0))?;
    Ok(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::{array, bag, tuple};

    fn rt(v: Value) {
        let encoded = to_ion_lite(&v);
        let decoded = from_ion_lite(&encoded).unwrap();
        assert_eq!(decoded, v, "round trip failed");
    }

    #[test]
    fn round_trips_every_kind() {
        rt(Value::Missing);
        rt(Value::Null);
        rt(Value::Bool(true));
        rt(Value::Int(0));
        rt(Value::Int(i64::MIN));
        rt(Value::Int(i64::MAX));
        rt(Value::Float(3.25));
        rt(Value::Decimal("-12345.6789".parse().unwrap()));
        rt(Value::Str("héllo 😀".into()));
        rt(Value::Bytes(vec![0, 1, 255]));
        rt(array![1i64, "two", Value::Null]);
        rt(bag![array![1i64], bag![]]);
        rt(Value::Tuple(tuple! {
            "id" => 3i64,
            "nested" => Value::Tuple(tuple! {"x" => 1.5f64}),
        }));
    }

    #[test]
    fn bags_and_missing_survive_unlike_json() {
        // The capabilities JSON cannot express are exactly why the binary
        // format exists: bags stay bags, MISSING stays MISSING.
        let v = Value::Bag(vec![Value::Missing, Value::Int(1)]);
        let back = from_ion_lite(&to_ion_lite(&v)).unwrap();
        assert!(matches!(back, Value::Bag(_)));
        assert_eq!(back.as_elements().unwrap()[0], Value::Missing);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let encoded = to_ion_lite(&Value::Float(f64::NAN));
        match from_ion_lite(&encoded).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_bytes() {
        assert!(from_ion_lite(&[]).is_err());
        assert!(from_ion_lite(&[99]).is_err()); // unknown tag
        assert!(from_ion_lite(&[TAG_STRING, 5, b'a']).is_err()); // truncated
        assert!(from_ion_lite(&[TAG_FLOAT, 1, 2]).is_err());
        // Trailing garbage.
        let mut ok = to_ion_lite(&Value::Int(1)).to_vec();
        ok.push(0);
        assert!(from_ion_lite(&ok).is_err());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut bytes = Vec::new();
        for _ in 0..MAX_DEPTH + 10 {
            bytes.push(TAG_ARRAY);
            bytes.push(1);
        }
        bytes.push(TAG_NULL);
        assert!(from_ion_lite(&bytes).is_err());
    }

    #[test]
    fn encoding_is_compact() {
        // A small int costs 2 bytes; JSON costs at least 1 byte/char plus
        // structure. Sanity-check the claim used in the format benches.
        assert_eq!(to_ion_lite(&Value::Int(5)).len(), 2);
        assert_eq!(to_ion_lite(&Value::Null).len(), 1);
    }

    #[test]
    fn assembled_parts_encode_like_the_whole_value() {
        let row = Value::Tuple(tuple! { "id" => 7i64, "tags" => bag!["a", "b"] });
        let whole =
            Value::Tuple(tuple! { "name" => "t", "rows" => array![row.clone(), Value::Null] });
        let mut buf = Vec::new();
        put_tuple_header(&mut buf, 2);
        put_field_name(&mut buf, "name");
        encode_into(&Value::Str("t".into()), &mut buf);
        put_field_name(&mut buf, "rows");
        put_array_header(&mut buf, 2);
        encode_into(&row, &mut buf);
        encode_into(&Value::Null, &mut buf);
        assert_eq!(buf, to_ion_lite(&whole));
    }
}
