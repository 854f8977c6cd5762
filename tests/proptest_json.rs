//! Property tests for the workspace's one JSON parser and string escaper
//! (`obs::json`): hostile input is an error, never a panic, and every
//! string survives `escape` followed by `Json::parse`.

use obs::json::{escape, Json};
use proptest::prelude::*;

/// Request lines of every verb the serve protocol accepts.
const REQUESTS: &[&str] = &[
    r#"{"id":"c1","spec":"corpus count=4 scale=64 seed=9\nmethods A,B\nsettings paper\n"}"#,
    r#"{"id":"c2","spec":"mtx data/a\tb.mtx\nscale 64\n","deadline_ms":250}"#,
    r#"{"id":"s1","status":true}"#,
    r#"{"id":"t1","trace":"c1"}"#,
    r#"{"id":"m1","metrics":true}"#,
    r#"{"id":"q","shutdown":true}"#,
    r#"{"id":"u","spec":"café 😀 \"q\" \\ \/","x":[1,-2.5e3,null,false,{}]}"#,
];

/// Bytes JSON structure is made of, plus a control byte and bytes that
/// are not valid UTF-8 on their own.
const JSONISH: &[u8] = b"{}[]\",:\\/ntrufalse0123456789.-+eE u\t\x01\xc3\xa9\xff";

/// Pieces of string bodies: escapes whole, cut short or out of order,
/// surrogate halves, hex digits and multi-byte characters next to them.
const STRING_PIECES: &[&str] = &[
    "\\u", "\\ud83d", "\\ude00", "\\u00e9", "00", "e9", "+1", "\\", "\\n", "\\x", "\"", "a", "é",
    "😀", "\u{1}", "\t",
];

/// Characters that need escaping, or that sit at encoding edges.
const EDGE_CHARS: &[char] = &[
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'a',
    ' ',
    'é',
    '€',
    '\u{fffd}',
    '\u{1f600}',
    '\u{10ffff}',
];

fn never_panics(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = Json::parse(&text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_error(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        never_panics(&bytes);
    }

    #[test]
    fn json_shaped_bytes_parse_or_error(
        picks in prop::collection::vec(0usize..JSONISH.len(), 0..96),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSONISH[i]).collect();
        never_panics(&bytes);
    }

    #[test]
    fn string_bodies_parse_or_error(
        picks in prop::collection::vec(0usize..STRING_PIECES.len(), 0..24),
    ) {
        let body: String = picks.iter().map(|&i| STRING_PIECES[i]).collect();
        let _ = Json::parse(&format!("\"{body}\""));
        let _ = Json::parse(&format!("{{\"{body}\": [\"{body}\"]}}"));
    }

    #[test]
    fn mutated_request_lines_parse_or_error(
        (line, at, byte) in (0usize..REQUESTS.len(), 0usize..4096, 0u8..=255),
    ) {
        let mut bytes = REQUESTS[line].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        never_panics(&bytes);
    }

    #[test]
    fn escaped_strings_round_trip(
        picks in prop::collection::vec((0usize..EDGE_CHARS.len() + 1, 0u32..0x11_0000), 0..48),
    ) {
        let s: String = picks
            .iter()
            .map(|&(i, cp)| match EDGE_CHARS.get(i) {
                Some(&c) => c,
                None => char::from_u32(cp).unwrap_or('\u{fffd}'),
            })
            .collect();
        let quoted = format!("\"{}\"", escape(&s));
        prop_assert!(!quoted.bytes().any(|b| b < 0x20), "raw control byte in {quoted:?}");
        prop_assert_eq!(Json::parse(&quoted), Ok(Json::Str(s)));
    }
}

#[test]
fn request_lines_are_valid() {
    for line in REQUESTS {
        assert!(Json::parse(line).is_ok(), "{line}");
    }
}
