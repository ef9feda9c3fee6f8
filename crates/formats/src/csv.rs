//! CSV ↔ SQL++ (RFC 4180 quoting).
//!
//! CSV demonstrates the *flat* end of format independence: a header row
//! names the attributes, each record becomes a tuple, and the file becomes
//! a bag of tuples. Empty unquoted fields map to MISSING (the attribute is
//! simply absent — CSV cannot distinguish "no value" from "empty"), while
//! quoted empty fields map to the empty string; the literal `NULL` maps to
//! NULL. Values are typed by sniffing: integer, decimal, boolean, else
//! string.

use std::fmt::Write as _;

use sqlpp_value::{AttrName, Decimal, Tuple, Value};

use crate::error::FormatError;

/// Options controlling CSV reading.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: u8,
    /// Whether the first record is a header (default true). Without a
    /// header, attributes are named `_1`, `_2`, ….
    pub header: bool,
    /// Sniff scalar types (default true); otherwise everything is a
    /// string.
    pub type_sniffing: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            header: true,
            type_sniffing: true,
        }
    }
}

/// Reads a CSV document into a bag of tuples.
pub fn from_csv(text: &str, options: &CsvOptions) -> Result<Value, FormatError> {
    let records = parse_records(text, options.delimiter)?;
    let mut iter = records.into_iter();
    // Column names are made once, not once per row.
    let header: Vec<AttrName> = if options.header {
        match iter.next() {
            Some(h) => h.into_iter().map(|f| AttrName::from(f.text)).collect(),
            None => return Ok(Value::empty_bag()),
        }
    } else {
        Vec::new()
    };
    let mut rows = Vec::new();
    for record in iter.by_ref() {
        let mut t = Tuple::with_capacity(record.len());
        for (i, field) in record.into_iter().enumerate() {
            let name = match header.get(i) {
                Some(name) => name.clone(),
                None => AttrName::from(format!("_{}", i + 1)),
            };
            t.insert(name, field.into_value(options.type_sniffing));
        }
        rows.push(Value::Tuple(t));
    }
    Ok(Value::Bag(rows))
}

/// Writes a bag/array of tuples as CSV. The header is the union of all
/// attribute names in first-appearance order; absent attributes emit empty
/// fields, NULLs emit the literal `NULL`.
pub fn to_csv(v: &Value) -> Result<String, FormatError> {
    let items = v
        .as_elements()
        .ok_or_else(|| FormatError::encode("csv", "top-level value must be a collection"))?;
    let mut header: Vec<String> = Vec::new();
    for item in items {
        let t = item
            .as_tuple()
            .ok_or_else(|| FormatError::encode("csv", "every element must be a tuple"))?;
        for name in t.names() {
            if !header.iter().any(|h| h == name) {
                header.push(name.to_string());
            }
        }
    }
    let mut out = String::new();
    write_record(&mut out, header.iter().map(|h| Some((h.as_str(), false))));
    for item in items {
        let t = item.as_tuple().expect("checked above");
        // `(text, force_quote)`: strings are force-quoted when they would
        // otherwise read back as a typed value (numbers, booleans, NULL).
        let mut fields: Vec<Option<(String, bool)>> = Vec::with_capacity(header.len());
        for name in &header {
            match t.get(name) {
                None => fields.push(None),
                Some(Value::Null) => fields.push(Some(("NULL".to_string(), false))),
                Some(Value::Str(s)) => {
                    let ambiguous = s == "NULL"
                        || s.parse::<i64>().is_ok()
                        || looks_numeric(s)
                        || matches!(s.as_str(), "true" | "TRUE" | "false" | "FALSE");
                    fields.push(Some((s.clone(), ambiguous)));
                }
                Some(scalar) if scalar.is_scalar() => {
                    fields.push(Some((scalar.to_string(), false)));
                }
                Some(nested) => {
                    // Nested values embed their paper-notation rendering —
                    // lossy but explicit, like engines exporting JSON into
                    // CSV cells.
                    fields.push(Some((nested.to_string(), false)));
                }
            }
        }
        write_record(
            &mut out,
            fields
                .iter()
                .map(|f| f.as_ref().map(|(t, q)| (t.as_str(), *q))),
        );
    }
    Ok(out)
}

fn write_record<'a>(out: &mut String, fields: impl Iterator<Item = Option<(&'a str, bool)>>) {
    let mut first = true;
    for field in fields {
        if !first {
            out.push(',');
        }
        first = false;
        match field {
            None => {}
            Some((text, force_quote)) => {
                if force_quote || text.contains([',', '"', '\n', '\r']) || text.is_empty() {
                    out.push('"');
                    for c in text.chars() {
                        if c == '"' {
                            out.push('"');
                        }
                        out.push(c);
                    }
                    out.push('"');
                } else {
                    let _ = write!(out, "{text}");
                }
            }
        }
    }
    out.push('\n');
}

struct Field {
    text: String,
    quoted: bool,
}

impl Field {
    fn into_value(self, sniff: bool) -> Value {
        if !self.quoted {
            if self.text.is_empty() {
                return Value::Missing; // dropped by Tuple::insert
            }
            if self.text == "NULL" {
                return Value::Null;
            }
            if sniff {
                if let Ok(i) = self.text.parse::<i64>() {
                    return Value::Int(i);
                }
                if looks_numeric(&self.text) {
                    if let Ok(d) = self.text.parse::<Decimal>() {
                        return Value::Decimal(d);
                    }
                }
                match self.text.as_str() {
                    "true" | "TRUE" => return Value::Bool(true),
                    "false" | "FALSE" => return Value::Bool(false),
                    _ => {}
                }
            }
        }
        Value::Str(self.text)
    }
}

fn looks_numeric(s: &str) -> bool {
    let rest = s.strip_prefix('-').unwrap_or(s);
    !rest.is_empty()
        && rest.bytes().all(|b| b.is_ascii_digit() || b == b'.')
        && rest.bytes().filter(|&b| b == b'.').count() <= 1
}

fn parse_records(text: &str, delim: u8) -> Result<Vec<Vec<Field>>, FormatError> {
    let bytes = text.as_bytes();
    let mut records = Vec::new();
    let mut record: Vec<Field> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut pos = 0usize;
    let mut in_quotes = false;
    let mut any = false;

    while pos < bytes.len() {
        let b = bytes[pos];
        if in_quotes {
            match b {
                b'"' => {
                    if bytes.get(pos + 1) == Some(&b'"') {
                        field.push('"');
                        pos += 2;
                    } else {
                        in_quotes = false;
                        pos += 1;
                    }
                }
                _ => {
                    let ch = text[pos..].chars().next().expect("in bounds");
                    field.push(ch);
                    pos += ch.len_utf8();
                }
            }
            continue;
        }
        match b {
            b'"' if field.is_empty() && !quoted => {
                in_quotes = true;
                quoted = true;
                any = true;
                pos += 1;
            }
            b if b == delim => {
                record.push(Field {
                    text: std::mem::take(&mut field),
                    quoted,
                });
                quoted = false;
                any = true;
                pos += 1;
            }
            b'\r' => {
                pos += 1;
            }
            b'\n' => {
                if any || !field.is_empty() || !record.is_empty() {
                    record.push(Field {
                        text: std::mem::take(&mut field),
                        quoted,
                    });
                    records.push(std::mem::take(&mut record));
                }
                quoted = false;
                any = false;
                pos += 1;
            }
            _ => {
                let ch = text[pos..].chars().next().expect("in bounds");
                field.push(ch);
                any = true;
                pos += ch.len_utf8();
            }
        }
    }
    if in_quotes {
        return Err(FormatError::parse("csv", "unterminated quoted field", pos));
    }
    if any || !field.is_empty() || !record.is_empty() {
        record.push(Field {
            text: field,
            quoted,
        });
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::rows;

    fn read(text: &str) -> Value {
        from_csv(text, &CsvOptions::default()).unwrap()
    }

    #[test]
    fn reads_typed_rows() {
        let v = read("id,name,salary\n1,Alice,95000.5\n2,Bob,88000\n");
        let expected = rows![
            {"id" => 1i64, "name" => "Alice",
             "salary" => Value::Decimal("95000.5".parse().unwrap())},
            {"id" => 2i64, "name" => "Bob", "salary" => 88000i64},
        ];
        assert_eq!(v, expected);
    }

    #[test]
    fn empty_fields_become_missing_and_null_literal_becomes_null() {
        let v = read("id,title\n1,\n2,NULL\n3,Engineer\n");
        let rows = v.as_elements().unwrap();
        assert_eq!(rows[0].path("title"), Value::Missing); // absent
        assert!(!rows[0].as_tuple().unwrap().contains("title"));
        assert_eq!(rows[1].path("title"), Value::Null);
        assert_eq!(rows[2].path("title"), Value::Str("Engineer".into()));
    }

    #[test]
    fn quoted_fields_preserve_commas_quotes_newlines() {
        let v = read("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"line1\nline2\",z\n");
        let rows = v.as_elements().unwrap();
        assert_eq!(rows[0].path("a"), Value::Str("x,y".into()));
        assert_eq!(rows[0].path("b"), Value::Str("he said \"hi\"".into()));
        assert_eq!(rows[1].path("a"), Value::Str("line1\nline2".into()));
    }

    #[test]
    fn quoted_empty_is_empty_string_not_missing() {
        let v = read("a\n\"\"\n");
        assert_eq!(
            v.as_elements().unwrap()[0].path("a"),
            Value::Str(String::new())
        );
    }

    #[test]
    fn quoted_numbers_stay_strings() {
        let v = read("a\n\"42\"\n");
        assert_eq!(
            v.as_elements().unwrap()[0].path("a"),
            Value::Str("42".into())
        );
    }

    #[test]
    fn round_trip_preserves_data() {
        let data = rows![
            {"id" => 1i64, "name" => "A,comma", "flag" => true},
            {"id" => 2i64, "name" => "plain", "note" => Value::Null},
        ];
        let text = to_csv(&data).unwrap();
        let back = from_csv(&text, &CsvOptions::default()).unwrap();
        // Row 1 lacks `note` (missing), row 2 has it as NULL.
        let rows = back.as_elements().unwrap();
        assert_eq!(rows[0].path("name"), Value::Str("A,comma".into()));
        assert_eq!(rows[0].path("note"), Value::Missing);
        assert_eq!(rows[1].path("note"), Value::Null);
        assert_eq!(rows[0].path("flag"), Value::Bool(true));
    }

    #[test]
    fn headerless_mode_names_columns_positionally() {
        let opts = CsvOptions {
            header: false,
            ..CsvOptions::default()
        };
        let v = from_csv("1,x\n2,y\n", &opts).unwrap();
        assert_eq!(v.as_elements().unwrap()[0].path("_1"), Value::Int(1));
        assert_eq!(
            v.as_elements().unwrap()[1].path("_2"),
            Value::Str("y".into())
        );
    }

    #[test]
    fn custom_delimiter() {
        let opts = CsvOptions {
            delimiter: b';',
            ..CsvOptions::default()
        };
        let v = from_csv("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(v.as_elements().unwrap()[0].path("b"), Value::Int(2));
    }

    #[test]
    fn errors_on_unterminated_quote() {
        assert!(from_csv("a\n\"oops\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn to_csv_rejects_non_tabular_values() {
        assert!(to_csv(&Value::Int(1)).is_err());
        assert!(to_csv(&sqlpp_value::bag![1i64]).is_err());
    }
}
