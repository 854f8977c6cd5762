//! Parser for FCC-style sector-cache directives (Listing 1 of the paper).
//!
//! The Fujitsu compiler configures the sector cache with pragmas:
//!
//! ```text
//! #pragma procedure scache_isolate_way L2=N2 [L1=N1]
//! #pragma procedure scache_isolate_assign a colidx
//! ```
//!
//! This module parses that surface syntax (with or without the
//! `#pragma procedure` prefix) into a [`MachineConfig`] update and an
//! [`ArraySet`], so experiment configurations can be written exactly as
//! they appear in the paper.

use crate::config::MachineConfig;
use memtrace::{Array, ArraySet};

/// A parsed sector-cache directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Directive {
    /// `scache_isolate_way L2=N [L1=M]`: way counts for sector 1.
    IsolateWay {
        /// L2 ways for sector 1.
        l2: usize,
        /// L1 ways for sector 1 (0 = L1 partitioning off).
        l1: usize,
    },
    /// `scache_isolate_assign <array>...`: arrays assigned to sector 1.
    IsolateAssign(ArraySet),
}

/// Errors from the directive parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "directive parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses one directive line.
///
/// Accepts the bare directive (`scache_isolate_way L2=5`) or the full
/// pragma (`#pragma procedure scache_isolate_way L2=5 L1=1`). Each
/// `scache_isolate_way` key may appear once (`L2` and `l2` are one key);
/// a repeat is an error, not "last one wins". Array names for
/// `scache_isolate_assign` are the paper's: `a`, `colidx`, `x`, `y`,
/// `rowptr`.
pub fn parse(line: &str) -> Result<Directive, ParseError> {
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    // Strip an optional `#pragma procedure` / `pragma procedure` prefix.
    if tokens.first().copied() == Some("#pragma") || tokens.first().copied() == Some("pragma") {
        tokens.remove(0);
        if tokens.first().copied() == Some("procedure") {
            tokens.remove(0);
        }
    }
    let Some((&head, rest)) = tokens.split_first() else {
        return Err(ParseError("empty directive".into()));
    };
    match head {
        "scache_isolate_way" => {
            let (mut l2, mut l1) = (None, None);
            for tok in rest {
                let (key, value) = tok
                    .split_once('=')
                    .ok_or_else(|| ParseError(format!("expected KEY=VALUE, got '{tok}'")))?;
                let n: usize = value
                    .parse()
                    .map_err(|_| ParseError(format!("bad way count '{value}'")))?;
                let (slot, level) = match key {
                    "L2" | "l2" => (&mut l2, "L2"),
                    "L1" | "l1" => (&mut l1, "L1"),
                    other => return Err(ParseError(format!("unknown cache level '{other}'"))),
                };
                if slot.replace(n).is_some() {
                    return Err(ParseError(format!(
                        "repeated key '{key}': {level} is already set"
                    )));
                }
            }
            let l2 = l2.ok_or_else(|| ParseError("scache_isolate_way requires L2=N".into()))?;
            Ok(Directive::IsolateWay {
                l2,
                l1: l1.unwrap_or(0),
            })
        }
        "scache_isolate_assign" => {
            if rest.is_empty() {
                return Err(ParseError(
                    "scache_isolate_assign requires at least one array".into(),
                ));
            }
            let mut set = ArraySet::EMPTY;
            for name in rest {
                let array = match *name {
                    "a" | "values" => Array::A,
                    "colidx" | "col" => Array::ColIdx,
                    "x" => Array::X,
                    "y" => Array::Y,
                    "rowptr" | "row" => Array::RowPtr,
                    other => return Err(ParseError(format!("unknown array '{other}'"))),
                };
                set = set.with(array);
            }
            Ok(Directive::IsolateAssign(set))
        }
        other => Err(ParseError(format!("unknown directive '{other}'"))),
    }
}

/// Applies a sequence of directive lines to a machine configuration,
/// returning the updated configuration and the sector-1 array set
/// (empty if no `scache_isolate_assign` appeared).
///
/// # Errors
///
/// Returns the first parse error; way counts are validated against the
/// configuration's geometry.
pub fn apply(
    mut cfg: MachineConfig,
    lines: &[&str],
) -> Result<(MachineConfig, ArraySet), ParseError> {
    let mut sector1 = ArraySet::EMPTY;
    for line in lines {
        match parse(line)? {
            Directive::IsolateWay { l2, l1 } => {
                if l2 == 0 || l2 >= cfg.l2.ways {
                    return Err(ParseError(format!(
                        "L2={l2} out of range (1..{})",
                        cfg.l2.ways - 1
                    )));
                }
                cfg = cfg.with_l2_sector(l2);
                if l1 > 0 {
                    if l1 >= cfg.l1.ways {
                        return Err(ParseError(format!(
                            "L1={l1} out of range (1..{})",
                            cfg.l1.ways - 1
                        )));
                    }
                    cfg = cfg.with_l1_sector(l1);
                }
            }
            Directive::IsolateAssign(set) => sector1 = set,
        }
    }
    Ok((cfg, sector1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing1() {
        // The exact directives from the paper's Listing 1.
        assert_eq!(
            parse("#pragma procedure scache_isolate_way L2=5 L1=1").unwrap(),
            Directive::IsolateWay { l2: 5, l1: 1 }
        );
        assert_eq!(
            parse("#pragma procedure scache_isolate_assign a colidx").unwrap(),
            Directive::IsolateAssign(ArraySet::MATRIX_STREAM)
        );
    }

    #[test]
    fn parses_bare_directives() {
        assert_eq!(
            parse("scache_isolate_way L2=4").unwrap(),
            Directive::IsolateWay { l2: 4, l1: 0 }
        );
        assert_eq!(
            parse("scache_isolate_assign x").unwrap(),
            Directive::IsolateAssign(ArraySet::of(&[Array::X]))
        );
    }

    #[test]
    fn apply_builds_config() {
        let base = MachineConfig::a64fx();
        let (cfg, sector1) = apply(
            base,
            &[
                "#pragma procedure scache_isolate_way L2=5 L1=1",
                "#pragma procedure scache_isolate_assign a colidx",
            ],
        )
        .unwrap();
        assert_eq!(cfg.l2_sector.sector1_ways, 5);
        assert_eq!(cfg.l1_sector.sector1_ways, 1);
        assert_eq!(sector1, ArraySet::MATRIX_STREAM);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("scache_isolate_way").is_err());
        assert!(parse("scache_isolate_way L3=2").is_err());
        assert!(parse("scache_isolate_way L2=x").is_err());
        assert!(parse("scache_isolate_assign").is_err());
        assert!(parse("scache_isolate_assign bogus").is_err());
        assert!(parse("scache_flush").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn apply_validates_way_counts() {
        let base = MachineConfig::a64fx();
        assert!(apply(base.clone(), &["scache_isolate_way L2=16"]).is_err());
        assert!(apply(base.clone(), &["scache_isolate_way L2=0"]).is_err());
        assert!(apply(base, &["scache_isolate_way L2=5 L1=4"]).is_err());
    }

    #[test]
    fn error_display() {
        let e = parse("nonsense directive").unwrap_err();
        assert!(e.to_string().contains("unknown directive"));
    }
}
