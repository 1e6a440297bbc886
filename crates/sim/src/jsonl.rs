//! The one flat-JSON line codec behind every versioned wire schema of
//! the workspace: `smart-traffic/trace-v1`, `smart-telemetry/metrics-v1`
//! and `smart-server/req-v1` / `resp-v1`.
//!
//! All three are JSONL documents whose lines are flat objects: keys are
//! fixed identifiers, numbers are in shortest round-trip form, `null`
//! stands for a non-finite float, and string values are either drawn
//! from a restricted grammar (ids, labels, workload specs) or escaped by
//! [`escape`]. That is little enough that no JSON dependency is needed:
//!
//! * **reading** — the `*_field` extractors find one `"key":value` pair
//!   in a line and return `None` for a missing or malformed value; they
//!   never panic on arbitrary input.
//! * **writing** — [`Line`] appends one object to a caller-owned
//!   `String`, so a whole document is built in a single buffer. It owns
//!   the optional-field rule: a value at its default is **not rendered**
//!   ([`Line::u64_or`], [`Line::opt_str`]), and
//!   readers treat an **absent field as that default** — which is how
//!   fields are added to a schema without changing a byte of the
//!   documents written before them.
//! * **framing** — a document is a header line declaring how many lines
//!   follow. [`numbered_lines`] walks the non-blank lines,
//!   [`read_declared`] parses them *as they arrive* and compares the
//!   count at the end ([`check_count`]); nothing is ever allocated from
//!   the declared, untrusted count.

use std::fmt::Write;

/// The value text following the first `"key":` in `line`.
fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    line.find(&needle).map(|at| &line[at + needle.len()..])
}

/// Extract the raw (still escaped) value of a `"key":"value"` string
/// field; pass it through [`unescape`] when the field is free-form.
/// The value ends at the first quote not preceded by a backslash.
#[must_use]
pub fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(line, key)?.strip_prefix('"')?;
    let bytes = rest.as_bytes();
    let mut end = 0;
    while end < bytes.len() {
        match bytes[end] {
            b'"' => return Some(&rest[..end]),
            b'\\' => end += 2,
            _ => end += 1,
        }
    }
    None
}

/// Extract a `"key":123` unsigned numeric field.
#[must_use]
pub fn u64_field(line: &str, key: &str) -> Option<u64> {
    let rest = after_key(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract a `"key":-123` signed numeric field.
#[must_use]
pub fn i64_field(line: &str, key: &str) -> Option<i64> {
    let rest = after_key(line, key)?;
    let digits = rest.strip_prefix('-').unwrap_or(rest);
    let sign = rest.len() - digits.len();
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    rest[..sign + end].parse().ok()
}

/// Extract a `"key":<float>` field. The value `null` parses as NaN —
/// [`fmt_f64`] writes non-finite floats as `null` (JSON has no NaN), and
/// every NaN on the wire means "nothing was measured".
#[must_use]
pub fn f64_field(line: &str, key: &str) -> Option<f64> {
    let token = after_key(line, key)?.split([',', '}']).next()?.trim();
    if token == "null" {
        return Some(f64::NAN);
    }
    // Reject tokens str::parse would take but JSON couldn't carry
    // (inf/NaN spellings), so round-trips stay within the format.
    if !token
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
    {
        return None;
    }
    token.parse().ok()
}

/// Extract a `"key":true|false` field.
#[must_use]
pub fn bool_field(line: &str, key: &str) -> Option<bool> {
    let rest = after_key(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Append a float to `out`: shortest-round-trip `Display` for finite
/// values (bit-exact when parsed back), `null` for the rest.
pub fn fmt_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Append `s` to `out`, escaped for embedding between quotes: `"`, `\`
/// and control characters become `\uXXXX`. The escaped form therefore
/// contains no raw quote and no two-character escape, which every
/// reader this workspace ever shipped can decode.
pub fn escape(out: &mut String, s: &str) {
    let special = |c: char| matches!(c, '"' | '\\') || (c as u32) < 0x20;
    let mut rest = s;
    while let Some(at) = rest.find(special) {
        out.push_str(&rest[..at]);
        let _ = write!(out, "\\u{:04x}", rest.as_bytes()[at]);
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Invert [`escape`]. Besides `\uXXXX` this accepts the two-character
/// escapes `\"`, `\\`, `\n`, `\t` and `\r` that metrics-v1 labels were
/// once written with, so documents in either alphabet decode. `None`
/// for a malformed escape.
#[must_use]
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            'u' => {
                let hex = chars.as_str().get(..4)?;
                if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return None;
                }
                out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                chars = chars.as_str()[4..].chars();
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Writer for one flat object, appended to a caller-owned buffer:
/// [`Line::open`] writes `{`, each field method writes `"key":value`
/// with the separating comma, [`Line::close`] writes `}`.
#[derive(Debug)]
pub struct Line<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Line<'a> {
    /// Start an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        Line { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// A string field, [`escape`]d.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        escape(self.out, value);
        self.out.push('"');
        self
    }

    /// A string field assembled by `write` straight into the buffer.
    /// For values whose grammar needs no escaping (space-separated
    /// lists, sparse vectors); `write` must not emit `"` or `\`.
    pub fn str_with(&mut self, key: &str, write: impl FnOnce(&mut String)) -> &mut Self {
        self.key(key);
        self.out.push('"');
        write(self.out);
        self.out.push('"');
        self
    }

    /// An unsigned field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// A signed field.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// A float field ([`fmt_f64`]: `null` when not finite).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        fmt_f64(self.out, value);
        self
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// An optional unsigned field: not rendered at `default`; readers
    /// take an absent field as `default`.
    pub fn u64_or(&mut self, key: &str, value: u64, default: u64) -> &mut Self {
        if value != default {
            self.u64(key, value);
        }
        self
    }

    /// An optional string field: not rendered when `None`; readers take
    /// an absent field as `None` (or as whatever default `None` stood
    /// for).
    pub fn opt_str(&mut self, key: &str, value: Option<&str>) -> &mut Self {
        if let Some(value) = value {
            self.str(key, value);
        }
        self
    }

    /// End the object.
    pub fn close(&mut self) {
        self.out.push('}');
    }
}

/// The non-blank lines of a document with their 1-based line numbers.
pub fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| !line.trim().is_empty())
}

/// The framing rule: exactly as many lines as the header declared.
///
/// # Errors
///
/// Returns `declares <declared> <noun>, found <found>` when they differ.
pub fn check_count(declared: u64, found: usize, noun: &str) -> Result<(), String> {
    if u64::try_from(found) == Ok(declared) {
        Ok(())
    } else {
        Err(format!("declares {declared} {noun}, found {found}"))
    }
}

/// Parse the body of a framed document: every line of `lines` goes
/// through `parse`, the results accumulate as lines arrive (the
/// declared count is untrusted and reserves nothing), and their number
/// is held to `declared` at the end ([`check_count`]).
///
/// # Errors
///
/// Returns the first `parse` error, else `mismatch` of the
/// [`check_count`] message.
pub fn read_declared<L, T, E>(
    (declared, noun): (u64, &str),
    lines: impl Iterator<Item = L>,
    parse: impl FnMut(L) -> Result<T, E>,
    mismatch: impl FnOnce(String) -> E,
) -> Result<Vec<T>, E> {
    let items: Vec<T> = lines.map(parse).collect::<Result<_, E>>()?;
    check_count(declared, items.len(), noun).map_err(mismatch)?;
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_and_numeric_fields_extract() {
        let line = "{\"id\":\"job-1\",\"cells\":12,\"delta\":-3,\"lat\":16.25,\"ok\":true}";
        assert_eq!(str_field(line, "id"), Some("job-1"));
        assert_eq!(u64_field(line, "cells"), Some(12));
        assert_eq!(i64_field(line, "delta"), Some(-3));
        assert_eq!(i64_field(line, "cells"), Some(12));
        assert_eq!(f64_field(line, "lat"), Some(16.25));
        assert_eq!(bool_field(line, "ok"), Some(true));
        assert_eq!(str_field(line, "missing"), None);
        assert_eq!(u64_field(line, "missing"), None);
        assert_eq!(bool_field(line, "cells"), None);
    }

    #[test]
    fn a_key_is_matched_whole_not_as_a_suffix() {
        let line = "{\"drain_cycles\":37,\"cycles\":4000}";
        assert_eq!(u64_field(line, "cycles"), Some(4000));
        assert_eq!(u64_field(line, "drain_cycles"), Some(37));
        assert_eq!(u64_field(line, "rain_cycles"), None);
    }

    #[test]
    fn null_floats_round_trip_as_nan() {
        let mut line = String::new();
        Line::open(&mut line).f64("lat", f64::NAN).close();
        assert_eq!(line, "{\"lat\":null}");
        assert!(f64_field(&line, "lat").expect("present").is_nan());
    }

    #[test]
    fn full_precision_floats_round_trip() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 1e-300, -42.5, 2.0f64.powi(60)] {
            let mut line = String::new();
            Line::open(&mut line).f64("x", x).close();
            assert_eq!(f64_field(&line, "x"), Some(x), "{line}");
        }
    }

    #[test]
    fn escaping_round_trips_hostile_messages() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand tab\t",
            "already-escaped \\u0022 stays",
            "",
        ] {
            let mut line = String::new();
            Line::open(&mut line).str("m", s).u64("n", 1).close();
            let raw = str_field(&line, "m").expect("present");
            assert!(!raw.contains('"'), "{raw}");
            assert_eq!(unescape(raw).as_deref(), Some(s));
            assert_eq!(u64_field(&line, "n"), Some(1), "{line}");
        }
    }

    #[test]
    fn one_decoder_reads_both_escape_alphabets() {
        // What resp-v1 has always written, and what metrics-v1 labels
        // were written with before the codecs merged.
        let unicode = "{\"label\":\"say \\u0022hi\\u0022\\u005c\\u000a\",\"n\":1}";
        let short = "{\"label\":\"say \\\"hi\\\"\\\\\\n\",\"n\":1}";
        for line in [unicode, short] {
            let raw = str_field(line, "label").expect("present");
            assert_eq!(unescape(raw).as_deref(), Some("say \"hi\"\\\n"), "{line}");
            assert_eq!(u64_field(line, "n"), Some(1));
        }
        for bad in ["\\", "\\x", "\\u12", "\\ud800", "\\u00zz", "\\u+041"] {
            assert_eq!(unescape(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn malformed_values_are_none_not_panics() {
        for line in [
            "{\"x\":}",
            "{\"x\":abc}",
            "{\"x\":\"str\"}",
            "{\"x\":inf}",
            "{\"x\":\"unterminated\\",
            "{\"x\":\"é",
            "\"x\":",
            "\"x",
            "not json at all",
            "",
        ] {
            assert_eq!(f64_field(line, "x"), None, "{line:?}");
            assert_eq!(u64_field(line, "x"), None, "{line:?}");
            assert_eq!(i64_field(line, "x"), None, "{line:?}");
            assert_eq!(bool_field(line, "x"), None, "{line:?}");
        }
        assert_eq!(str_field("{\"x\":\"unterminated\\", "x"), None);
        assert_eq!(str_field("{\"x\":\"é", "x"), None);
        assert_eq!(str_field("{\"x\":12}", "x"), None);
    }

    #[test]
    fn fields_at_their_default_are_not_rendered() {
        let mut line = String::new();
        Line::open(&mut line)
            .u64("mesh", 4)
            .opt_str("topology", None)
            .u64_or("shards", 1, 1)
            .bool("cached", false)
            .close();
        assert_eq!(line, "{\"mesh\":4,\"cached\":false}");
        line.clear();
        Line::open(&mut line)
            .opt_str("topology", Some("torus"))
            .u64_or("shards", 4, 1)
            .opt_str("label", Some(""))
            .i64("delta", -2)
            .str_with("list", |out| out.push_str("a b"))
            .close();
        assert_eq!(
            line,
            "{\"topology\":\"torus\",\"shards\":4,\"label\":\"\",\"delta\":-2,\"list\":\"a b\"}"
        );
    }

    #[test]
    fn framing_counts_lines_without_trusting_the_header() {
        let text = "header\n\n  \nfirst\nsecond\n";
        let lines: Vec<_> = numbered_lines(text).collect();
        assert_eq!(lines, vec![(1, "header"), (4, "first"), (5, "second")]);
        let parse = |(_, l): (usize, &str)| Ok::<usize, String>(l.len());
        let body = || numbered_lines(text).skip(1);
        let mismatch = |m: String| format!("header {m}");
        let events = |declared: u64| (declared, "events");
        assert_eq!(
            read_declared(events(2), body(), parse, mismatch),
            Ok(vec![5, 6])
        );
        // A hostile count costs nothing: nothing is reserved from it.
        assert_eq!(
            read_declared(events(u64::MAX), body(), parse, mismatch),
            Err("header declares 18446744073709551615 events, found 2".to_owned())
        );
        // A malformed line is reported before the count is.
        let fail = |(n, _): (usize, &str)| Err::<usize, String>(format!("line {n}"));
        assert_eq!(
            read_declared(events(7), body(), fail, mismatch),
            Err("line 4".to_owned())
        );
        assert_eq!(check_count(0, 0, "lines"), Ok(()));
        assert!(check_count(1, 0, "lines").is_err());
    }
}
