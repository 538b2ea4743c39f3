//! A deliberately tiny JSON writer for result tables, the committed
//! ledger and trace exports.
//!
//! The workspace builds offline with no third-party serializers, and the
//! only JSON the experiments need is "array of flat objects with string
//! values" (one object per table row) plus the integer scalars a Chrome
//! trace requires. This module writes exactly that subset and reads
//! nothing: a committed file is checked by comparing its bytes with what
//! [`to_string_pretty`] renders, not by parsing it back.

/// A JSON value restricted to the shapes tables emit.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`, also returned when a member lookup misses.
    Null,
    /// An integer scalar (Chrome trace timestamps/pids must be numeric).
    Number(i64),
    /// A string scalar.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup; returns [`Value::Null`] when absent or not an object.
    pub fn get(&self, key: &str) -> &Value {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key)
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, value: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner_pad = "  ".repeat(indent + 1);
    match value {
        Value::Null => out.push_str("null"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner_pad);
                write_value(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(&inner_pad);
                escape_into(out, k);
                out.push_str(": ");
                write_value(out, v, indent + 1);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Pretty-prints `value` with two-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_escapes_and_empty_containers_render_exactly() {
        let value = Value::Array(vec![
            Value::Object(vec![
                ("plain".into(), Value::String("x".into())),
                (
                    "tricky".into(),
                    Value::String("a\"b\\c\nd\te\rf\u{1}é".into()),
                ),
            ]),
            Value::Array(vec![]),
            Value::Object(vec![]),
            Value::Null,
        ]);
        let want = r#"[
  {
    "plain": "x",
    "tricky": "a\"b\\c\nd\te\rf\u0001é"
  },
  [],
  {},
  null
]"#;
        assert_eq!(to_string_pretty(&value), want);
    }

    #[test]
    fn integers_render_exactly_at_both_extremes() {
        let value = Value::Array(vec![
            Value::Number(0),
            Value::Number(-42),
            Value::Number(i64::MAX),
            Value::Number(i64::MIN),
        ]);
        assert_eq!(
            to_string_pretty(&value),
            "[\n  0,\n  -42,\n  9223372036854775807,\n  -9223372036854775808\n]"
        );
        assert_eq!(to_string_pretty(&Value::Array(vec![])), "[]");
        assert_eq!(to_string_pretty(&Value::Object(vec![])), "{}");
    }

    #[test]
    fn lookup_misses_return_null() {
        let v = Value::Object(vec![("k".into(), Value::String("x".into()))]);
        assert_eq!(v["k"].as_str(), Some("x"));
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(v["k"]["not-an-object"], Value::Null);
        assert_eq!(Value::Number(1).as_i64(), Some(1));
        assert_eq!(Value::Number(1).as_str(), None);
    }
}
