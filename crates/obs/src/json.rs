//! The workspace's one JSON implementation (hand-rolled, no serde): the
//! string [`escape`]r every JSON writer uses, the [`Json`] value parser
//! the serve protocol and the tests read with, and the writers of the
//! metrics document and span trees.

use crate::aggregate::{Aggregate, SpanStats};
use crate::hist::Hist;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// The structured metrics document written by `--metrics <path>`.
///
/// Schema (`"spmv-obs/1"`):
///
/// ```json
/// {
///   "schema": "spmv-obs/1",
///   "command": "batch",
///   "spans": [
///     {"name": "batch.run", "count": 1, "wall_ns": 123, "children": [...]}
///   ],
///   "counters": {"engine.cache.computations": 4, ...},
///   "gauges": {"engine.pool.workers": 4, ...},
///   "histograms": {
///     "memtrace.stream.refs": {"count": 8, "sum": 4096, "mean": 512.0,
///                               "buckets": [{"lo": 256, "count": 8}]}
///   },
///   "rss_checkpoints": [{"label": "start", "vm_hwm_kb": 8192}]
/// }
/// ```
///
/// Histogram buckets are sparse: only non-empty buckets appear, each with
/// its inclusive lower bound; `p50`/`p95`/`p99` are
/// [`Hist::quantile`]-resolved bucket floors. `vm_hwm_kb` is `null`
/// where `/proc` is unavailable.
pub struct MetricsDoc<'a> {
    /// The CLI subcommand the metrics were collected under.
    pub command: &'a str,
    /// The merged telemetry aggregate.
    pub aggregate: &'a Aggregate,
}

impl MetricsDoc<'_> {
    /// Renders the document as pretty-ish JSON (one span per line, stable
    /// key order from the aggregate's BTreeMaps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"spmv-obs/1\",");
        let _ = writeln!(out, "  \"command\": \"{}\",", escape(self.command));
        out.push_str("  \"spans\": [");
        write_span_list(&mut out, &self.aggregate.roots, Some(1));
        out.push_str("],\n");
        out.push_str("  \"counters\": {");
        write_u64_map(&mut out, &self.aggregate.counters);
        out.push_str("},\n");
        out.push_str("  \"gauges\": {");
        write_u64_map(&mut out, &self.aggregate.gauges);
        out.push_str("},\n");
        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (name, hist) in &self.aggregate.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": ", escape(name));
            write_hist(&mut out, hist);
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"rss_checkpoints\": [");
        let mut first = true;
        for cp in &self.aggregate.checkpoints {
            if !first {
                out.push_str(", ");
            }
            first = false;
            match cp.vm_hwm_kb {
                Some(kb) => {
                    let _ = write!(
                        out,
                        "{{\"label\": \"{}\", \"vm_hwm_kb\": {kb}}}",
                        escape(&cp.label)
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        "{{\"label\": \"{}\", \"vm_hwm_kb\": null}}",
                        escape(&cp.label)
                    );
                }
            }
        }
        out.push_str("]\n");
        out.push_str("}\n");
        out
    }
}

impl MetricsDoc<'_> {
    /// The document as a single line of JSON — the form line-delimited
    /// protocols need (the serve daemon's `STATUS` response embeds the
    /// telemetry document in one response line).
    ///
    /// Implemented by collapsing the pretty rendering: every string in
    /// the document is escaped (`escape` turns raw newlines into
    /// `\n`), so literal newlines and the indentation that follows them
    /// only ever come from [`Self::to_json`]'s own formatting and can be
    /// stripped without touching values.
    pub fn to_json_line(&self) -> String {
        let pretty = self.to_json();
        let mut out = String::with_capacity(pretty.len());
        for line in pretty.lines() {
            out.push_str(line.trim_start());
        }
        out
    }
}

/// Writes a span forest as the members of a JSON array: one `{"name",
/// "count", "wall_ns", "children"}` object per span, in name order.
///
/// `indent` is the nesting level of the enclosing array in the pretty
/// metrics document (each span then starts on its own line, two spaces
/// per level); `None` writes everything on one line, the form a `TRACE`
/// response embeds.
pub(crate) fn write_span_list(
    out: &mut String,
    spans: &BTreeMap<String, SpanStats>,
    indent: Option<usize>,
) {
    let inner = indent.map(|level| level + 1);
    let mut first = true;
    for (name, span) in spans {
        if !first {
            out.push(',');
        }
        first = false;
        new_line(out, inner);
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"count\": {}, \"wall_ns\": {}, \"children\": [",
            escape(name),
            span.count,
            span.wall_ns
        );
        write_span_list(out, &span.children, inner);
        out.push_str("]}");
    }
    if !first {
        new_line(out, indent);
    }
}

/// A line break plus two spaces per level, or nothing on one line.
fn new_line(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}

fn write_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {v}", escape(k));
    }
    if !first {
        out.push_str("\n  ");
    }
}

fn write_hist(out: &mut String, h: &Hist) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
        h.count,
        h.sum,
        fmt_f64(h.mean()),
        h.p50(),
        h.p95(),
        h.p99()
    );
    let mut first = true;
    for (b, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "{{\"lo\": {}, \"count\": {n}}}", Hist::bucket_lo(b));
    }
    out.push_str("]}");
}

/// Formats a float so it round-trips as JSON (always with a decimal point
/// or exponent, never `NaN`/`inf` — callers only pass finite means).
fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Escapes `s` for the inside of a JSON string literal: `"` and `\`
/// get a backslash, newline, carriage return and tab their short forms
/// `\n`, `\r`, `\t`, other control characters `\u00XX`. Everything else,
/// non-ASCII included, passes through as UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the bound keeps a hostile line (say a
/// megabyte of `[`) from overflowing a session thread's stack. The
/// deepest document the workspace writes, the metrics span forest, uses
/// two levels per span depth plus two, far below this.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys keep one value each (later duplicate
/// keys win, like most lenient parsers); `BTreeMap` gives deterministic
/// iteration for error messages and tests.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure: byte offset into the input plus a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON value; trailing whitespace is allowed, trailing
    /// data is an error, and so is nesting deeper than [`MAX_DEPTH`].
    /// Runs in time linear in the input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number that
    /// fits (rejects fractions, negatives and magnitudes above 2^53
    /// where f64 stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9007199254740992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object member names, for unknown-key diagnostics. Empty for
    /// non-objects.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            Some(&open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", *c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let start = self.pos;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one slice. A run ends at
            // a quote, a backslash or a control byte — all ASCII, so the
            // slice ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes.get(self.pos) {
                None => {
                    return Err(JsonError {
                        offset: start,
                        message: "unterminated string".into(),
                    })
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.bytes.get(self.pos..self.pos + 4);
        if !digits.is_some_and(|d| d.iter().all(u8::is_ascii_hexdigit)) {
            return Err(self.err("malformed \\u escape"));
        }
        let cp =
            u32::from_str_radix(&self.text[self.pos..self.pos + 4], 16).expect("four hex digits");
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: format!("malformed number '{text}'"),
        })?;
        if !n.is_finite() {
            return Err(JsonError {
                offset: start,
                message: "non-finite number".into(),
            });
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Checkpoint;

    fn parses(text: &str) {
        Json::parse(text).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse("[1, \"two\", null]").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Str("two".into()), Json::Null])
        );
        let obj = Json::parse("{\"a\": {\"b\": [true]}, \"c\": 3}").unwrap();
        assert_eq!(obj.get("c").and_then(Json::as_u64), Some(3));
        assert_eq!(
            obj.get("a").and_then(|a| a.get("b")),
            Some(&Json::Arr(vec![Json::Bool(true)]))
        );
        parses("{}");
        parses("  [1, 2.5, -3e4, \"a\\\"b\", true, null] ");
    }

    #[test]
    fn resolves_escapes() {
        let v = Json::parse(r#""line\none \"quoted\" tab\tuA 😀 \ud83d\ude00""#).unwrap();
        assert_eq!(
            v.as_str(),
            Some("line\none \"quoted\" tab\tuA \u{1F600} \u{1F600}")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{,}",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "{\"a\": 1} x",
            "\"unterminated",
            "nul",
            "1.2.3",
            "\"bad \\x escape\"",
            "\"lone \\ud800 surrogate\"",
            "\"lone \\udc00 low surrogate\"",
            "\"signed \\u+123 escape\"",
            "\"short \\u12\"",
            "\"raw \u{1} control\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting"), "{err}");
        // Far deeper than any thread stack could recurse: still an error.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A request line at serve's 1 MiB cap, mostly one string member
        // with an escape and a multi-byte character in it.
        let body = format!(
            "{}\\n\u{e9}{}",
            "x".repeat(512 * 1024),
            "y".repeat(512 * 1024)
        );
        let line = format!("{{\"id\":\"r\",\"spec\":\"{body}\"}}");
        let started = std::time::Instant::now();
        let parsed = Json::parse(&line).unwrap();
        let elapsed = started.elapsed();
        let expected = body.replace("\\n", "\n");
        assert_eq!(parsed.get("spec").and_then(Json::as_str), Some(&*expected));
        assert!(elapsed.as_secs() < 5, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = Json::parse("{\"k\": 1, \"k\": 2}").unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn metrics_doc_renders_valid_json_with_all_sections() {
        let mut agg = Aggregate::default();
        agg.counters.insert("engine.cache.hits".into(), 3);
        agg.gauges.insert("engine.pool.workers".into(), 4);
        let mut h = Hist::default();
        h.record(0);
        h.record(512);
        agg.histograms.insert("memtrace.stream.refs".into(), h);
        let child = SpanStats {
            count: 2,
            wall_ns: 50,
            ..SpanStats::default()
        };
        let mut root = SpanStats {
            count: 1,
            wall_ns: 100,
            ..SpanStats::default()
        };
        root.children.insert("cache.lookup".into(), child);
        agg.roots.insert("batch.run".into(), root);
        agg.checkpoints.push(Checkpoint {
            label: "start".into(),
            vm_hwm_kb: None,
        });
        agg.checkpoints.push(Checkpoint {
            label: "end".into(),
            vm_hwm_kb: Some(4096),
        });

        let doc = MetricsDoc {
            command: "batch",
            aggregate: &agg,
        }
        .to_json();
        parses(&doc);
        for needle in [
            "\"schema\": \"spmv-obs/1\"",
            "\"command\": \"batch\"",
            "\"name\": \"batch.run\"",
            "\"name\": \"cache.lookup\"",
            "\"engine.cache.hits\": 3",
            "\"engine.pool.workers\": 4",
            "\"memtrace.stream.refs\"",
            "{\"lo\": 512, \"count\": 1}",
            "\"vm_hwm_kb\": null",
            "\"vm_hwm_kb\": 4096",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("engine.cache.hits"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn span_list_layout_is_one_span_per_line_or_one_line() {
        let mut roots = BTreeMap::new();
        let mut a = SpanStats {
            count: 1,
            wall_ns: 7,
            ..SpanStats::default()
        };
        a.children.insert("b".into(), SpanStats::default());
        roots.insert("a".to_string(), a);
        roots.insert("c".to_string(), SpanStats::default());

        let mut pretty = String::new();
        write_span_list(&mut pretty, &roots, Some(1));
        assert_eq!(
            pretty,
            "\n    {\"name\": \"a\", \"count\": 1, \"wall_ns\": 7, \"children\": [\
             \n      {\"name\": \"b\", \"count\": 0, \"wall_ns\": 0, \"children\": []}\
             \n    ]},\
             \n    {\"name\": \"c\", \"count\": 0, \"wall_ns\": 0, \"children\": []}\
             \n  "
        );
        let mut line = String::new();
        write_span_list(&mut line, &roots, None);
        let squashed: String = pretty.lines().map(str::trim_start).collect();
        assert_eq!(line, squashed);
    }

    #[test]
    fn deepest_span_forest_parses() {
        // A span chain deeper than any the pipeline opens still parses
        // under MAX_DEPTH: two nesting levels per span plus two.
        let mut span = SpanStats::default();
        for _ in 0..(MAX_DEPTH - 2) / 2 - 1 {
            let mut parent = SpanStats::default();
            parent.children.insert("s".into(), span);
            span = parent;
        }
        let mut agg = Aggregate::default();
        agg.roots.insert("root".into(), span);
        let doc = MetricsDoc {
            command: "batch",
            aggregate: &agg,
        };
        parses(&doc.to_json());
        parses(&doc.to_json_line());
    }

    #[test]
    fn single_line_rendering_is_valid_and_newline_free() {
        let mut agg = Aggregate::default();
        agg.counters.insert("serve.requests".into(), 2);
        agg.checkpoints.push(Checkpoint {
            label: "tricky\nlabel \"x\"".into(),
            vm_hwm_kb: Some(1),
        });
        let mut root = SpanStats {
            count: 1,
            ..SpanStats::default()
        };
        root.children
            .insert("cache.lookup".into(), SpanStats::default());
        agg.roots.insert("serve.request".into(), root);
        let doc = MetricsDoc {
            command: "serve",
            aggregate: &agg,
        };
        let line = doc.to_json_line();
        assert!(!line.contains('\n'), "must fit one protocol line: {line}");
        parses(&line);
        assert!(line.contains("\"serve.requests\": 2"), "{line}");
        assert!(line.contains("tricky\\nlabel \\\"x\\\""), "{line}");
        // Same content as the pretty form, whitespace aside.
        let squashed: String = doc.to_json().lines().map(str::trim_start).collect();
        assert_eq!(line, squashed);
    }

    #[test]
    fn empty_aggregate_renders_valid_json() {
        let agg = Aggregate::default();
        let doc = MetricsDoc {
            command: "analyze",
            aggregate: &agg,
        }
        .to_json();
        parses(&doc);
        assert!(doc.contains("\"spans\": []"));
        assert!(doc.contains("\"counters\": {}"));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\t\r\u{1}"), "\\t\\r\\u0001");
        assert_eq!(
            Json::parse(&format!("\"{}\"", escape("ctrl\u{1}char"))).unwrap(),
            Json::Str("ctrl\u{1}char".into())
        );
    }
}
