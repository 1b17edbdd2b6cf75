//! A minimal JSON writer for trace emission.
//!
//! The workspace has no serde dependency (the build environment is
//! offline), and the only JSON the system produces is the observability
//! output of `harness --trace`: execution traces, rewrite step logs, and
//! work-counter summaries. A push-style writer covers that without any
//! derive machinery. Output is deterministic: fields appear exactly in the
//! order they are written.

use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON document (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON document under construction. Values are appended with the
/// `value_*` methods; objects and arrays are delimited with begin/end
/// pairs. Commas are inserted automatically.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Does the current aggregate already contain a value (so the next one
    /// needs a comma)?
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished document.
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unclosed JSON aggregate");
        self.buf
    }

    fn pre_value(&mut self) {
        if let Some(top) = self.needs_comma.last_mut() {
            if *top {
                self.buf.push(',');
            }
            *top = true;
        }
    }

    /// Write an object key (inside an object). The next value call supplies
    /// its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "\"{}\":", escape(k));
        // The value that follows must not emit another comma.
        if let Some(top) = self.needs_comma.last_mut() {
            *top = false;
        }
        self
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.needs_comma.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push('}');
        if let Some(top) = self.needs_comma.last_mut() {
            *top = true;
        }
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.needs_comma.push(false);
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push(']');
        if let Some(top) = self.needs_comma.last_mut() {
            *top = true;
        }
        self
    }

    pub fn string(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn int(&mut self, v: i64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Floats print with enough precision to round-trip; non-finite values
    /// (not valid JSON numbers) are emitted as null.
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push_str("null");
        self
    }

    /// Splice a pre-serialized JSON value in as-is (for composing
    /// documents produced by independent writers). The caller guarantees
    /// `v` is itself valid JSON.
    pub fn raw(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        self.buf.push_str(v);
        self
    }

    /// Shorthand: `"k": "v"` inside an object.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).string(v)
    }

    /// Shorthand: `"k": n` inside an object.
    pub fn field_uint(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).uint(v)
    }

    /// Shorthand: `"k": x.y` inside an object.
    pub fn field_float(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builds_nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("name", "fig5")
            .key("steps")
            .begin_array()
            .uint(1)
            .uint(2)
            .end_array()
            .key("nested")
            .begin_object()
            .field_uint("rows", 42)
            .key("ok")
            .bool(true)
            .end_object()
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"fig5","steps":[1,2],"nested":{"rows":42,"ok":true}}"#
        );
    }

    #[test]
    fn raw_splices_prebuilt_json() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("inner")
            .raw(r#"{"a":[1,2]}"#)
            .end_object();
        assert_eq!(w.finish(), r#"{"inner":{"a":[1,2]}}"#);
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut w = JsonWriter::new();
        w.begin_array().float(1.5).float(f64::NAN).end_array();
        assert_eq!(w.finish(), "[1.5,null]");
    }
}
