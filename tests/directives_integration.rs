//! Listing 1 end-to-end: the paper's exact FCC pragmas configure the
//! simulated machine, and the resulting run matches the equivalent
//! builder-API configuration.

use a64fx::{directives, simulate_spmv, MachineConfig};
use a64fx_spmv::prelude::*;
use proptest::prelude::*;

#[test]
fn listing1_pragmas_reproduce_builder_config() {
    let (cfg, sector1) = directives::apply(
        MachineConfig::a64fx_scaled(64),
        &[
            "#pragma procedure scache_isolate_way L2=5",
            "#pragma procedure scache_isolate_assign a colidx",
        ],
    )
    .expect("Listing 1 must parse");
    assert_eq!(sector1, ArraySet::MATRIX_STREAM);

    let matrix = corpus::banded::random_banded(4096, 256, 12, 3);
    let via_pragmas = simulate_spmv(&matrix, &cfg, sector1, 1, 1);

    let builder_cfg = MachineConfig::a64fx_scaled(64).with_l2_sector(5);
    let via_builder = simulate_spmv(&matrix, &builder_cfg, ArraySet::MATRIX_STREAM, 1, 1);

    assert_eq!(via_pragmas.pmu, via_builder.pmu);
}

#[test]
fn l1_way_pragma_applies_to_l1() {
    let (cfg, _) = directives::apply(
        MachineConfig::a64fx_scaled(16),
        &[
            "scache_isolate_way L2=4 L1=1",
            "scache_isolate_assign a colidx",
        ],
    )
    .unwrap();
    assert_eq!(cfg.l2_sector.sector1_ways, 4);
    assert_eq!(cfg.l1_sector.sector1_ways, 1);
}

#[test]
fn assigning_x_alone_is_expressible() {
    // The paper's §3.2.2 case (3): "assigning only x to partition 0".
    let (_, sector1) = directives::apply(
        MachineConfig::a64fx(),
        &["scache_isolate_way L2=11", "scache_isolate_assign x"],
    )
    .unwrap();
    assert!(sector1.contains(Array::X));
    assert!(!sector1.contains(Array::A));
}

/// The paper's two Listing-1 pragmas, token by token.
const LISTING1: [&str; 2] = [
    "#pragma procedure scache_isolate_way L2=5 L1=1",
    "#pragma procedure scache_isolate_assign a colidx",
];

/// Tokens a mutation may splice in: every keyword the grammar knows,
/// near-misses of them, and way counts at and around every boundary
/// (0, the L1/L2 way counts, `usize::MAX` and one past it).
const VOCABULARY: [&str; 24] = [
    "#pragma",
    "pragma",
    "procedure",
    "scache_isolate_way",
    "scache_isolate_assign",
    "scache_isolate",
    "L2=0",
    "L1=0",
    "L1=4",
    "L2=15",
    "L2=16",
    "l2=17",
    "L2=18446744073709551614",
    "L1=18446744073709551615",
    "L2=18446744073709551616",
    "L2=-1",
    "L2=",
    "=5",
    "L3=2",
    "=",
    "a",
    "rowptr",
    "x",
    "\u{fffd}",
];

/// The a64fx machine and scaled variants of it; every one must survive
/// any directive list without panicking.
fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::a64fx(),
        MachineConfig::a64fx_scaled(16),
        MachineConfig::a64fx_scaled(64),
    ]
}

/// `apply` either rejects the lines or returns a partition the machine
/// can realise: sector 1 leaves sector 0 at least one way on both levels.
fn assert_apply_is_total(lines: &[&str]) {
    for base in machines() {
        if let Ok((cfg, _)) = directives::apply(base, lines) {
            assert!(cfg.l2_sector.sector1_ways < cfg.l2.ways, "{lines:?}");
            assert!(cfg.l1_sector.sector1_ways < cfg.l1.ways, "{lines:?}");
        }
    }
}

/// Replaces, deletes or inserts one token of `line`, or overwrites one
/// byte of it.
fn mutate(line: &str, at: usize, kind: usize, token: &str, byte: u8) -> String {
    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
    let at = at % tokens.len();
    match kind {
        0 => tokens[at] = token.to_string(),
        1 => {
            tokens.remove(at);
        }
        2 => tokens.insert(at, token.to_string()),
        _ => {
            let mut bytes = tokens[at].clone().into_bytes();
            let i = usize::from(byte) % bytes.len();
            bytes[i] = byte;
            tokens[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
    }
    tokens.join(" ")
}

#[test]
fn way_counts_at_every_boundary_are_typed_errors() {
    for ways in [0, 16, 17, usize::MAX - 1, usize::MAX] {
        let line = format!("scache_isolate_way L2={ways}");
        assert!(directives::parse(&line).is_ok(), "{line}");
        for base in machines() {
            assert!(directives::apply(base, &[&line]).is_err(), "{line}");
        }
    }
    for l1 in [4, 5, usize::MAX] {
        let line = format!("scache_isolate_way L2=5 L1={l1}");
        for base in machines() {
            assert!(directives::apply(base, &[&line]).is_err(), "{line}");
        }
    }
    assert!(directives::parse("scache_isolate_way L2=18446744073709551616").is_err());
    // A repeated key is an error naming it — aliases (`l2`/`L2`) count as
    // the same key — not "last one wins".
    for (line, key) in [
        ("scache_isolate_way L2=5 L2=3", "'L2'"),
        ("scache_isolate_way L2=5 l2=5", "'l2'"),
        ("scache_isolate_way l1=1 L2=5 L1=2", "'L1'"),
    ] {
        let err = directives::parse(line).expect_err(line).to_string();
        assert!(err.contains(key), "{line}: {err}");
        for base in machines() {
            assert!(directives::apply(base, &[line]).is_err(), "{line}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (decoded lossily, as a file read would) never make
    /// the parser or `apply` panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = directives::parse(&line);
        assert_apply_is_total(&[&line]);
        assert_apply_is_total(&[LISTING1[0], &line]);
    }

    /// Token soups from the grammar's own vocabulary reach the deeper
    /// branches that random bytes almost never do.
    #[test]
    fn vocabulary_soups_never_panic(
        picks in prop::collection::vec(prop::sample::select(VOCABULARY.to_vec()), 0..8),
    ) {
        let line = picks.join(" ");
        let _ = directives::parse(&line);
        assert_apply_is_total(&[&line]);
    }

    /// Single-token mutations of the paper's two pragmas: each is parsed
    /// to `Ok` or a `ParseError`, and applied together with the other
    /// pragma to the a64fx configurations.
    #[test]
    fn listing1_mutations_never_panic(
        (which, at, kind) in (0usize..2, 0usize..8, 0usize..4),
        token in prop::sample::select(VOCABULARY.to_vec()),
        byte in 0u8..=255,
    ) {
        let mutated = mutate(LISTING1[which], at, kind, token, byte);
        let _ = directives::parse(&mutated);
        let mut lines = LISTING1.to_vec();
        lines[which] = &mutated;
        assert_apply_is_total(&lines);
    }
}
