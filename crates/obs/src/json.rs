//! The workspace's one JSON writer: a [`Json`] value tree and [`encode`].
//!
//! The workspace is dependency-free by policy (no serde). The wire
//! `TRACE` payload ([`crate::spans_json`], [`crate::SloStatus::to_json`])
//! and the bench JSONs are built as [`Json`] trees and written here;
//! `chronorank_bench::json` re-exports both beside the matching parser
//! (property-tested against this writer by its `tests/json_roundtrip.rs`).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`, so an integer is exact below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

/// Serialize a [`Json`] to text: objects keep insertion order, numbers
/// print in Rust's shortest round-trip decimal form, and strings escape
/// quotes, backslashes and all control characters. Non-finite numbers
/// have no JSON spelling and encode as `null`.
pub fn encode(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to string"),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(v, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
}
