//! Property tests for the input parsers that take text from outside:
//! Matrix Market files, batch specs, the format / scenario / machine
//! arguments and the serve wire framer. Arbitrary bytes and single-byte
//! or single-token mutations of valid inputs must give `Ok` or a typed
//! error, never a panic.

use locality_engine::BatchSpec;
use machine::MachineSpec;
use memtrace::{FormatSpec, ScenarioSpec};
use proptest::prelude::*;
use serve::{Frame, LineFramer};
use sparsemat::mm::read_coo;

/// Valid Matrix Market files: every field type and symmetry the reader
/// supports, with comments and blank lines.
const MTX: &[&str] = &[
    "%%MatrixMarket matrix coordinate real general\n% c\n3 3 4\n1 1 1.5\n2 1 -2\n3 2 1e3\n3 3 4\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n\n4 4 3\n1 1\n3 1\n4 2\n",
    "%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 7\n",
];

/// Valid batch specs exercising every directive.
const SPECS: &[&str] = &[
    "corpus count=2 scale=64 seed=7\nmethods A,B\nsettings off,2..7\nthreads 4\nscale 64\nworkers 1\n",
    "table1 scale=32\nsettings paper\nformat sell:8,32\nreorder rcm\nrhs 3 col\n",
    "mtx data/m.mtx # a file\nworkload cg\nmachine generic-x86\necm on\ndeadline_ms 500\n",
    "corpus count=1\nmachine custom:cores=2;l1=4k,4,64;l2=64k,16,64;mem=40g\nworkload spmm:4,row\n",
];

/// Tokens a spec mutation may splice in: directives, keys at and around
/// their bounds, and near-misses.
const SPEC_TOKENS: &[&str] = &[
    "corpus",
    "table1",
    "mtx",
    "scale",
    "threads",
    "rhs",
    "workload",
    "machine",
    "settings",
    "count=0",
    "scale=0",
    "scale=1",
    "scale=36000",
    "scale=36001",
    "scale=18446744073709551615",
    "scale=18446744073709551616",
    "seed=-1",
    "count=18446744073709551615",
    "0",
    "18446744073709551615",
    "2..1",
    "0..99",
    "off,,3",
    "spmm:0",
    "sell:0,1",
    "custom:",
    "=",
    "#",
];

/// Pieces of `custom:` machine specs, including every key, separators,
/// suffixes and numbers at the edges of their types.
const MACHINE_PIECES: &[&str] = &[
    "custom:",
    "cores=",
    "domain=",
    "mem=",
    "clock=",
    "l1=",
    "l2=",
    "l3=",
    "l9=",
    "l10=",
    "l0=",
    ";",
    ",",
    "=",
    "shared",
    "sector=",
    "k",
    "m",
    "g",
    "t",
    "0",
    "1",
    "3",
    "16",
    "64",
    "96",
    "1024",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e308",
    "nan",
    "inf",
    " ",
];

/// Pieces of format and scenario arguments.
const ARG_PIECES: &[&str] = &[
    "csr",
    "sell",
    "spmv",
    "spmm",
    "cg",
    ":",
    ",",
    "row",
    "col",
    "0",
    "1",
    "8",
    "32",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    " ",
    "é",
];

/// Replaces, removes or inserts one whitespace-separated token of
/// `text`, or overwrites one byte (`kind` 3), keeping the line breaks.
fn mutate(text: &str, at: usize, kind: usize, token: &str, byte: u8) -> Vec<u8> {
    if kind == 3 {
        let mut bytes = text.as_bytes().to_vec();
        let i = at % bytes.len();
        bytes[i] = byte;
        return bytes;
    }
    let mut tokens: Vec<&str> = text.split(' ').collect();
    let i = at % tokens.len();
    match kind {
        0 => tokens[i] = token,
        1 => {
            tokens.remove(i);
        }
        _ => tokens.insert(i, token),
    }
    tokens.join(" ").into_bytes()
}

fn soup(pieces: &[&str], picks: &[usize]) -> String {
    picks.iter().map(|&i| pieces[i % pieces.len()]).collect()
}

fn mtx_never_panics(bytes: &[u8]) {
    if let Ok(coo) = read_coo(bytes) {
        let _ = coo.to_csr();
    }
}

fn spec_never_panics(bytes: &[u8]) {
    let _ = BatchSpec::parse(&String::from_utf8_lossy(bytes));
}

fn machine_never_panics(text: &str) {
    if let Ok(spec) = MachineSpec::parse(text) {
        for scale in [1, 2, 64] {
            let _ = spec.try_hierarchy(scale);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mtx_arbitrary_bytes_read_or_error(bytes in prop::collection::vec(0u8..=255, 0..160)) {
        mtx_never_panics(&bytes);
        let mut headed = MTX[0].as_bytes()[..46].to_vec();
        headed.extend_from_slice(&bytes);
        mtx_never_panics(&headed);
    }

    #[test]
    fn mtx_mutations_read_or_error(
        (file, at, kind, token, byte) in (
            0usize..MTX.len(), 0usize..4096, 0usize..4, 0usize..SPEC_TOKENS.len(), 0u8..=255,
        ),
    ) {
        mtx_never_panics(&mutate(MTX[file], at, kind, SPEC_TOKENS[token], byte));
    }

    #[test]
    fn spec_arbitrary_bytes_parse_or_error(bytes in prop::collection::vec(0u8..=255, 0..160)) {
        spec_never_panics(&bytes);
    }

    #[test]
    fn spec_mutations_parse_or_error(
        (spec, at, kind, token, byte) in (
            0usize..SPECS.len(), 0usize..4096, 0usize..4, 0usize..SPEC_TOKENS.len(), 0u8..=255,
        ),
    ) {
        spec_never_panics(&mutate(SPECS[spec], at, kind, SPEC_TOKENS[token], byte));
    }

    #[test]
    fn machine_token_soups_parse_or_error(
        picks in prop::collection::vec(0usize..MACHINE_PIECES.len(), 0..24),
    ) {
        machine_never_panics(&soup(MACHINE_PIECES, &picks));
        machine_never_panics(&format!("custom:{}", soup(MACHINE_PIECES, &picks)));
    }

    #[test]
    fn format_and_scenario_soups_parse_or_error(
        picks in prop::collection::vec(0usize..ARG_PIECES.len(), 0..10),
    ) {
        let text = soup(ARG_PIECES, &picks);
        let _ = FormatSpec::parse(&text);
        let _ = ScenarioSpec::parse(&text);
    }

    /// Non-UTF-8 bytes in any chunking: one frame per newline, no line or
    /// buffer above the cap, and the chunking does not change the frames.
    #[test]
    fn framer_frames_arbitrary_bytes(
        (bytes, cuts, cap) in (
            prop::collection::vec(prop::sample::select(vec![b'\n', b'\r', b'a', 0xc3, 0xa9, 0xff, 0x80, 0]), 0..96),
            prop::collection::vec(0usize..96, 0..6),
            1usize..16,
        ),
    ) {
        let mut framer = LineFramer::new(cap);
        let mut frames = Vec::new();
        let mut cuts = cuts;
        cuts.push(bytes.len());
        cuts.sort_unstable();
        let mut from = 0;
        for cut in cuts {
            let cut = cut.min(bytes.len()).max(from);
            frames.extend(framer.push(&bytes[from..cut]));
            prop_assert!(framer.pending() <= cap);
            from = cut;
        }
        let newlines = bytes.iter().filter(|&&b| b == b'\n').count();
        prop_assert_eq!(frames.len(), newlines);
        for frame in &frames {
            if let Frame::Line(line) = frame {
                prop_assert!(line.len() <= cap, "{line:?} over cap {cap}");
            }
        }
        let whole = LineFramer::new(cap).push(&bytes);
        prop_assert_eq!(whole, frames);
    }
}

#[test]
fn seed_inputs_are_valid() {
    for file in MTX {
        read_coo(file.as_bytes()).unwrap_or_else(|e| panic!("{file}: {e}"));
    }
    for spec in SPECS {
        BatchSpec::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
    }
    assert!(MachineSpec::parse("custom:cores=8;domain=8;l1=32k,8,64;l2=1m,16,64;mem=50g").is_ok());
}
