//! The WAL record model and its ion_lite payload encoding.
//!
//! One record is one committed catalog mutation, stamped with the
//! monotonic log sequence number (LSN) assigned at append time. The
//! payload is an ordinary SQL++ tuple value run through the first-party
//! `ion_lite` binary codec — the catalog's own data model carries its
//! own log, no second serialization layer needed (the format-
//! independence tenet applied to the engine's internals):
//!
//! ```text
//! { 'lsn': <int>, 'op': <string>, 'name': <string>
//! , 'value': <any>            -- present for commit / commit-schema
//! , 'schema': <type value>    -- present for schema / commit-schema
//! , 'insert': [<row>…]        -- patch: exactly one of these three
//! , 'delete': [<position>…]
//! , 'update': [[<position>, <row>]…]
//! }
//! ```
//!
//! Ops: `patch` (what one DML statement changed — a [`Delta`] against
//! the collection the previous records built; this is the record every
//! INSERT/UPDATE/DELETE writes, so its size is the statement's, not the
//! collection's), `commit` (full replacement value: loads, and the
//! first DML on a name [`register`](crate::DurableStore::mark_unanchored)
//! bound without logging), `commit-schema` (CREATE TABLE /
//! schema-validated registration: value and schema land in *one* record
//! so a statement is one atomic log entry), `schema` (attach/replace a
//! schema only), and `remove` (unbind a name). Schemas ride as values
//! through [`type_to_value`]/[`type_from_value`].
//!
//! Payloads are encoded from borrowed parts ([`Body`]), so appending a
//! record never copies the value it logs.

use sqlpp_formats::ion_lite;
use sqlpp_schema::{Field, SqlppType, TupleType};
use sqlpp_value::{Delta, Tuple, Value};

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The log sequence number (monotonic, starts at 1).
    pub lsn: u64,
    /// The operation.
    pub op: WalOp,
}

/// The catalog mutation a WAL record carries.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Replace (or create) `name`'s binding with `value`.
    Commit {
        /// The bound name.
        name: String,
        /// The full replacement value.
        value: Value,
    },
    /// Replace `name`'s binding *and* attach `schema` — one record, so
    /// a CREATE TABLE is a single atomic log entry.
    CommitWithSchema {
        /// The bound name.
        name: String,
        /// The full replacement value.
        value: Value,
        /// The attached element schema.
        schema: SqlppType,
    },
    /// Attach (or replace) `name`'s element schema.
    SetSchema {
        /// The bound name.
        name: String,
        /// The attached element schema.
        schema: SqlppType,
    },
    /// Unbind `name` (and any attached schema).
    Remove {
        /// The unbound name.
        name: String,
    },
    /// Patch `name`'s collection with one statement's delta.
    Patch {
        /// The patched name.
        name: String,
        /// What the statement changed.
        delta: Delta,
    },
}

impl WalOp {
    /// The name this mutation targets.
    pub fn name(&self) -> &str {
        match self {
            WalOp::Commit { name, .. }
            | WalOp::CommitWithSchema { name, .. }
            | WalOp::SetSchema { name, .. }
            | WalOp::Remove { name }
            | WalOp::Patch { name, .. } => name,
        }
    }

    /// Whether replaying this record moves the catalog's schema epoch.
    pub fn touches_schema(&self) -> bool {
        matches!(
            self,
            WalOp::CommitWithSchema { .. } | WalOp::SetSchema { .. } | WalOp::Remove { .. }
        )
    }
}

/// One field of a record payload past `lsn`/`op`/`name`, borrowed from
/// its owner.
pub(crate) enum Body<'a> {
    /// `'value'`: a full value.
    Value(&'a Value),
    /// `'schema'`: an element schema.
    Schema(&'a SqlppType),
    /// `'insert'` / `'delete'` / `'update'`: a patch's delta.
    Delta(&'a Delta),
}

/// Encodes a record payload from borrowed parts — the tuple
/// `{lsn, op, name, body…}`, byte-identical to encoding that tuple
/// as one value.
pub(crate) fn encode_parts(lsn: u64, op: &str, name: &str, body: &[Body<'_>]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    ion_lite::put_tuple_header(&mut buf, 3 + body.len());
    ion_lite::put_field_name(&mut buf, "lsn");
    ion_lite::encode_into(&Value::Int(lsn as i64), &mut buf);
    ion_lite::put_field_name(&mut buf, "op");
    ion_lite::encode_into(&Value::Str(op.to_string()), &mut buf);
    ion_lite::put_field_name(&mut buf, "name");
    ion_lite::encode_into(&Value::Str(name.to_string()), &mut buf);
    for part in body {
        match part {
            Body::Value(v) => {
                ion_lite::put_field_name(&mut buf, "value");
                ion_lite::encode_into(v, &mut buf);
            }
            Body::Schema(ty) => {
                ion_lite::put_field_name(&mut buf, "schema");
                ion_lite::encode_into(&type_to_value(ty), &mut buf);
            }
            Body::Delta(delta) => {
                ion_lite::put_field_name(&mut buf, delta.kind());
                encode_delta(delta, &mut buf);
            }
        }
    }
    buf
}

fn encode_delta(delta: &Delta, buf: &mut Vec<u8>) {
    let position = |at: usize| Value::Int(at as i64);
    match delta {
        Delta::Insert(rows) => {
            ion_lite::put_array_header(buf, rows.len());
            for row in rows {
                ion_lite::encode_into(row, buf);
            }
        }
        Delta::Delete(at) => {
            ion_lite::put_array_header(buf, at.len());
            for &p in at {
                ion_lite::encode_into(&position(p), buf);
            }
        }
        Delta::Update(rows) => {
            ion_lite::put_array_header(buf, rows.len());
            for (p, row) in rows {
                ion_lite::put_array_header(buf, 2);
                ion_lite::encode_into(&position(*p), buf);
                ion_lite::encode_into(row, buf);
            }
        }
    }
}

/// Encodes a record to its ion_lite payload bytes.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let (op, body) = match &record.op {
        WalOp::Commit { value, .. } => ("commit", vec![Body::Value(value)]),
        WalOp::CommitWithSchema { value, schema, .. } => (
            "commit-schema",
            vec![Body::Value(value), Body::Schema(schema)],
        ),
        WalOp::SetSchema { schema, .. } => ("schema", vec![Body::Schema(schema)]),
        WalOp::Remove { .. } => ("remove", vec![]),
        WalOp::Patch { delta, .. } => ("patch", vec![Body::Delta(delta)]),
    };
    encode_parts(record.lsn, op, record.op.name(), &body)
}

/// Decodes a checksum-valid payload back into a record. Any shape
/// mismatch here is *corruption*, not a torn write — the checksum
/// already vouched for the bytes.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let value =
        ion_lite::from_ion_lite(payload).map_err(|e| format!("undecodable record payload: {e}"))?;
    let Value::Tuple(mut t) = value else {
        return Err("record payload is not a tuple".to_string());
    };
    let lsn = field_int(&t, "lsn")?;
    let op = field_str(&t, "op")?.to_string();
    let name = field_str(&t, "name")?.to_string();
    let op = match op.as_str() {
        "commit" => WalOp::Commit {
            name,
            value: take_field(&mut t, "value")?,
        },
        "commit-schema" => WalOp::CommitWithSchema {
            name,
            value: take_field(&mut t, "value")?,
            schema: field_schema(&t)?,
        },
        "schema" => WalOp::SetSchema {
            name,
            schema: field_schema(&t)?,
        },
        "remove" => WalOp::Remove { name },
        "patch" => WalOp::Patch {
            name,
            delta: decode_delta(&mut t)?,
        },
        other => return Err(format!("unknown record op {other:?}")),
    };
    Ok(WalRecord { lsn, op })
}

/// A patch's delta: exactly one of `insert`, `delete`, `update`. Only
/// the shape is checked here; whether the positions fit the base is
/// [`Delta::apply`]'s call at replay.
fn decode_delta(t: &mut Tuple) -> Result<Delta, String> {
    let kinds = ["insert", "delete", "update"];
    let present: Vec<&str> = kinds.into_iter().filter(|k| t.get(k).is_some()).collect();
    let [kind] = present[..] else {
        return Err(format!(
            "patch record must carry exactly one of insert, delete, update (found {present:?})"
        ));
    };
    let Value::Array(items) = take_field(t, kind)? else {
        return Err(format!("patch field {kind:?} is not an array"));
    };
    Ok(match kind {
        "insert" => Delta::Insert(items),
        "delete" => Delta::Delete(items.iter().map(position).collect::<Result<_, _>>()?),
        _ => Delta::Update(
            items
                .into_iter()
                .map(|pair| match pair {
                    Value::Array(pair) => match <[Value; 2]>::try_from(pair) {
                        Ok([at, row]) => Ok((position(&at)?, row)),
                        Err(_) => Err("update entry is not a [position, row] pair".to_string()),
                    },
                    other => Err(format!("update entry is {}", other.kind().name())),
                })
                .collect::<Result<_, _>>()?,
        ),
    })
}

fn position(v: &Value) -> Result<usize, String> {
    match v {
        Value::Int(i) => usize::try_from(*i).map_err(|_| format!("negative patch position {i}")),
        other => Err(format!("patch position is {}", other.kind().name())),
    }
}

fn field_int(t: &Tuple, name: &str) -> Result<u64, String> {
    match t.get(name) {
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        Some(other) => Err(format!("field {name:?} is {}", other.kind().name())),
        None => Err(format!("missing field {name:?}")),
    }
}

fn field_str<'a>(t: &'a Tuple, name: &str) -> Result<&'a str, String> {
    match t.get(name) {
        Some(Value::Str(s)) => Ok(s),
        Some(other) => Err(format!("field {name:?} is {}", other.kind().name())),
        None => Err(format!("missing field {name:?}")),
    }
}

fn field_value(t: &Tuple, name: &str) -> Result<Value, String> {
    t.get(name)
        .cloned()
        .ok_or_else(|| format!("missing field {name:?}"))
}

/// Moves a field out of a decoded payload (a logged value is never
/// copied on its way into the image).
fn take_field(t: &mut Tuple, name: &str) -> Result<Value, String> {
    t.remove(name)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn field_schema(t: &Tuple) -> Result<SqlppType, String> {
    type_from_value(&field_value(t, "schema")?)
}

// ---------------- SqlppType ⇄ Value ----------------
//
// Schemas must survive the WAL and snapshots; the structural type enum
// has no serialization of its own, so it rides as a SQL++ value:
// `{'k': 'int'}`, `{'k': 'array', 'elem': …}`,
// `{'k': 'tuple', 'open': bool, 'fields': [{'name','ty','optional'}…]}`,
// `{'k': 'union', 'alts': […]}`.

/// Encodes a structural type as a SQL++ value.
pub fn type_to_value(ty: &SqlppType) -> Value {
    let mut t = Tuple::with_capacity(2);
    let kind = |k: &str| Value::Str(k.to_string());
    match ty {
        SqlppType::Any => t.insert("k", kind("any")),
        SqlppType::Null => t.insert("k", kind("null")),
        SqlppType::Missing => t.insert("k", kind("missing")),
        SqlppType::Bool => t.insert("k", kind("bool")),
        SqlppType::Int => t.insert("k", kind("int")),
        SqlppType::Float => t.insert("k", kind("float")),
        SqlppType::Decimal => t.insert("k", kind("decimal")),
        SqlppType::Str => t.insert("k", kind("str")),
        SqlppType::Bytes => t.insert("k", kind("bytes")),
        SqlppType::Array(elem) => {
            t.insert("k", kind("array"));
            t.insert("elem", type_to_value(elem));
        }
        SqlppType::Bag(elem) => {
            t.insert("k", kind("bag"));
            t.insert("elem", type_to_value(elem));
        }
        SqlppType::Tuple(tt) => {
            t.insert("k", kind("tuple"));
            t.insert("open", Value::Bool(tt.open));
            let fields = tt
                .fields
                .iter()
                .map(|f| {
                    let mut ft = Tuple::with_capacity(3);
                    ft.insert("name", Value::Str(f.name.clone()));
                    ft.insert("ty", type_to_value(&f.ty));
                    ft.insert("optional", Value::Bool(f.optional));
                    Value::Tuple(ft)
                })
                .collect();
            t.insert("fields", Value::Array(fields));
        }
        SqlppType::Union(alts) => {
            t.insert("k", kind("union"));
            t.insert(
                "alts",
                Value::Array(alts.iter().map(type_to_value).collect()),
            );
        }
    }
    Value::Tuple(t)
}

/// Decodes a structural type from its value encoding.
pub fn type_from_value(v: &Value) -> Result<SqlppType, String> {
    let t = v
        .as_tuple()
        .ok_or_else(|| "type encoding is not a tuple".to_string())?;
    let kind = field_str(t, "k")?;
    Ok(match kind {
        "any" => SqlppType::Any,
        "null" => SqlppType::Null,
        "missing" => SqlppType::Missing,
        "bool" => SqlppType::Bool,
        "int" => SqlppType::Int,
        "float" => SqlppType::Float,
        "decimal" => SqlppType::Decimal,
        "str" => SqlppType::Str,
        "bytes" => SqlppType::Bytes,
        "array" => SqlppType::Array(Box::new(type_from_value(&field_value(t, "elem")?)?)),
        "bag" => SqlppType::Bag(Box::new(type_from_value(&field_value(t, "elem")?)?)),
        "tuple" => {
            let open = match t.get("open") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("tuple type missing 'open'".to_string()),
            };
            let fields = match t.get("fields") {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|item| {
                        let ft = item
                            .as_tuple()
                            .ok_or_else(|| "tuple field is not a tuple".to_string())?;
                        Ok(Field {
                            name: field_str(ft, "name")?.to_string(),
                            ty: type_from_value(&field_value(ft, "ty")?)?,
                            optional: match ft.get("optional") {
                                Some(Value::Bool(b)) => *b,
                                _ => return Err("field missing 'optional'".to_string()),
                            },
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                _ => return Err("tuple type missing 'fields'".to_string()),
            };
            SqlppType::Tuple(TupleType { fields, open })
        }
        "union" => {
            let alts = match t.get("alts") {
                Some(Value::Array(items)) => items.iter().map(type_from_value).collect::<Result<
                    Vec<_>,
                    String,
                >>(
                )?,
                _ => return Err("union type missing 'alts'".to_string()),
            };
            if alts.is_empty() {
                return Err("union type with no alternatives".to_string());
            }
            SqlppType::Union(alts)
        }
        other => return Err(format!("unknown type kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::bag;

    fn rt(op: WalOp) {
        let rec = WalRecord { lsn: 42, op };
        let payload = encode_record(&rec);
        assert_eq!(decode_record(&payload).unwrap(), rec);
    }

    #[test]
    fn records_round_trip() {
        rt(WalOp::Commit {
            name: "hr.emp".into(),
            value: bag![1i64, 2i64],
        });
        rt(WalOp::CommitWithSchema {
            name: "t".into(),
            value: Value::empty_bag(),
            schema: SqlppType::Tuple(TupleType::closed([
                ("id", SqlppType::Int),
                ("name", SqlppType::Str),
            ])),
        });
        rt(WalOp::SetSchema {
            name: "t".into(),
            schema: SqlppType::Bag(Box::new(SqlppType::Any)),
        });
        rt(WalOp::Remove {
            name: "gone".into(),
        });
        rt(WalOp::Patch {
            name: "ev.log".into(),
            delta: Delta::Insert(vec![bag![1i64], Value::Null]),
        });
        rt(WalOp::Patch {
            name: "t".into(),
            delta: Delta::Delete(vec![0, 3, 9]),
        });
        rt(WalOp::Patch {
            name: "t".into(),
            delta: Delta::Update(vec![(2, Value::Int(5)), (4, Value::Missing)]),
        });
        rt(WalOp::Patch {
            name: "t".into(),
            delta: Delta::Delete(vec![]),
        });
    }

    #[test]
    fn parts_encode_like_the_old_whole_tuple() {
        let value = bag![1i64, 2i64];
        let mut t = Tuple::with_capacity(4);
        t.insert("lsn", Value::Int(3));
        t.insert("op", Value::Str("commit".into()));
        t.insert("name", Value::Str("t".into()));
        t.insert("value", value.clone());
        let record = WalRecord {
            lsn: 3,
            op: WalOp::Commit {
                name: "t".into(),
                value,
            },
        };
        assert_eq!(
            encode_record(&record),
            ion_lite::to_ion_lite(&Value::Tuple(t))
        );
    }

    #[test]
    fn malformed_patches_are_structured_errors() {
        let patch = |field: &str, v: Value| {
            let mut t = Tuple::new();
            t.insert("lsn", Value::Int(1));
            t.insert("op", Value::Str("patch".into()));
            t.insert("name", Value::Str("t".into()));
            if !field.is_empty() {
                t.insert(field, v);
            }
            decode_record(&ion_lite::to_ion_lite(&Value::Tuple(t)))
        };
        assert!(patch("", Value::Null).is_err(), "no delta");
        assert!(
            patch("upsert", Value::Array(vec![])).is_err(),
            "unknown kind"
        );
        assert!(patch("delete", Value::Array(vec![Value::Int(-1)])).is_err());
        assert!(patch("delete", Value::Array(vec![Value::Str("0".into())])).is_err());
        assert!(patch("insert", Value::Int(1)).is_err(), "not an array");
        let short = Value::Array(vec![Value::Array(vec![Value::Int(0)])]);
        assert!(patch("update", short).is_err());
        assert!(patch("delete", Value::Array(vec![Value::Int(2)])).is_ok());
    }

    #[test]
    fn every_type_shape_round_trips() {
        let shapes = [
            SqlppType::Any,
            SqlppType::Null,
            SqlppType::Missing,
            SqlppType::Bool,
            SqlppType::Int,
            SqlppType::Float,
            SqlppType::Decimal,
            SqlppType::Str,
            SqlppType::Bytes,
            SqlppType::Array(Box::new(SqlppType::Union(vec![
                SqlppType::Int,
                SqlppType::Str,
            ]))),
            SqlppType::Bag(Box::new(SqlppType::Tuple(
                TupleType::closed([("x", SqlppType::Float)]).into_open(),
            ))),
        ];
        for ty in shapes {
            let back = type_from_value(&type_to_value(&ty)).unwrap();
            assert_eq!(back, ty);
        }
    }

    #[test]
    fn optional_fields_survive() {
        let ty = SqlppType::Tuple(TupleType {
            fields: vec![Field {
                name: "title".into(),
                ty: SqlppType::Str,
                optional: true,
            }],
            open: true,
        });
        assert_eq!(type_from_value(&type_to_value(&ty)).unwrap(), ty);
    }

    #[test]
    fn garbage_payloads_are_structured_errors() {
        assert!(decode_record(b"not ion").is_err());
        // A valid value of the wrong shape.
        let wrong = sqlpp_formats::ion_lite::to_ion_lite(&Value::Int(7));
        assert!(decode_record(&wrong).is_err());
        // A tuple missing required fields.
        let mut t = Tuple::new();
        t.insert("lsn", Value::Int(1));
        let partial = sqlpp_formats::ion_lite::to_ion_lite(&Value::Tuple(t));
        assert!(decode_record(&partial).is_err());
    }
}
