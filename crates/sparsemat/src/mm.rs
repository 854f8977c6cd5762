//! Matrix Market (`.mtx`) I/O.
//!
//! The paper evaluates on 490 SuiteSparse matrices, which are distributed
//! in Matrix Market format. This module implements the coordinate subset of
//! the format (the one SuiteSparse uses for sparse matrices): `real`,
//! `integer` and `pattern` fields with `general` or `symmetric` symmetry,
//! so real collections can be dropped into the experiment harness when
//! available. Only the sparsity pattern is kept: value tokens are parsed
//! and validated, then dropped.

use std::collections::HashSet;
use std::fmt;
use std::io::{self, BufRead};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// Errors produced by the Matrix Market reader.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid or unsupported file content; the string names
    /// the offending line or construct.
    Parse(String),
    /// An entry `(row, col)` (1-based) outside the declared dimensions.
    OutOfBounds {
        /// 1-based row index as written in the file.
        row: usize,
        /// 1-based column index as written in the file.
        col: usize,
        /// Declared row count.
        num_rows: usize,
        /// Declared column count.
        num_cols: usize,
    },
    /// The same coordinate appeared twice (directly, or via the symmetric
    /// mirror of another entry). Silently collapsing duplicates — what COO
    /// assembly would do — would leave fewer nonzeros than the file
    /// declares, so the reader rejects the malformed file instead.
    Duplicate {
        /// 1-based row index.
        row: usize,
        /// 1-based column index.
        col: usize,
    },
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
            MmError::OutOfBounds {
                row,
                col,
                num_rows,
                num_cols,
            } => write!(
                f,
                "Matrix Market parse error: entry ({row}, {col}) out of bounds \
                 for {num_rows}x{num_cols} (1-based)"
            ),
            MmError::Duplicate { row, col } => write!(
                f,
                "Matrix Market parse error: duplicate entry ({row}, {col})"
            ),
        }
    }
}

impl std::error::Error for MmError {}

impl From<io::Error> for MmError {
    fn from(e: io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Symmetry of a Matrix Market file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Most entries [`read_coo`] reserves room for before reading any: 1M
/// (about 60 MB of COO buffers and duplicate set). Larger files grow
/// past it as their entries arrive.
const PRESIZE_ENTRIES_MAX: usize = 1 << 20;

/// Most rows [`read_coo`] accepts beyond those the declared entries can
/// fill: 1M empty rows (about 24 MB of CSR row counters).
const EMPTY_ROWS_MAX: usize = 1 << 20;

/// Reads a Matrix Market coordinate file into COO form.
///
/// Supports `matrix coordinate {real, integer, pattern}` with
/// `{general, symmetric, skew-symmetric}` symmetry. The value token of a
/// `real` or `integer` entry must parse as a number and is then dropped;
/// symmetric and skew-symmetric entries are mirrored into the pattern.
/// Complex and array (dense) files are rejected with [`MmError::Parse`].
///
/// A row or column count that does not fit `u32` is [`MmError::Parse`],
/// checked before anything is allocated for the matrix, and so are a
/// symmetric or skew-symmetric file that declares a non-square matrix
/// (a mirrored entry would fall outside it) and a row count above the declared entry count (doubled for symmetric and
/// skew-symmetric files) plus a fixed allowance of 1M empty rows.
///
/// Malformed coordinate data is rejected with a typed error instead of
/// being silently absorbed into the CSR: out-of-bounds entries
/// ([`MmError::OutOfBounds`]), repeated coordinates
/// ([`MmError::Duplicate`]), upper-triangle entries in symmetric or
/// skew-symmetric files, diagonal entries in skew-symmetric files, and
/// trailing tokens on entry lines.
pub fn read_coo<R: BufRead>(reader: R) -> Result<CooMatrix, MmError> {
    let mut lines = reader.lines();

    // Header line.
    let header = lines
        .next()
        .ok_or_else(|| MmError::Parse("empty file".into()))??;
    let header_lc = header.to_ascii_lowercase();
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() != 5 || tokens[0] != "%%matrixmarket" {
        return Err(MmError::Parse(format!("bad header line: {header}")));
    }
    if tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(MmError::Parse(format!(
            "only 'matrix coordinate' files are supported, got '{} {}'",
            tokens[1], tokens[2]
        )));
    }
    // `real` and `integer` entries carry a value token; `pattern` ones don't.
    let has_value = match tokens[3] {
        "real" | "integer" => true,
        "pattern" => false,
        other => return Err(MmError::Parse(format!("unsupported field type '{other}'"))),
    };
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(MmError::Parse(format!("unsupported symmetry '{other}'"))),
    };
    if !has_value && symmetry == Symmetry::SkewSymmetric {
        // The format specification has no skew-symmetric pattern matrices
        // (the mirrored entries would need value -1), so the banner is
        // malformed rather than a pattern to mirror.
        return Err(MmError::Parse(
            "'pattern skew-symmetric' is not a valid Matrix Market banner".into(),
        ));
    }

    // Size line: first non-comment, non-empty line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| MmError::Parse("missing size line".into()))?;
    let mut it = size_line.split_whitespace();
    let parse_usize = |tok: Option<&str>, what: &str| -> Result<usize, MmError> {
        tok.ok_or_else(|| MmError::Parse(format!("missing {what}")))?
            .parse::<usize>()
            .map_err(|_| MmError::Parse(format!("invalid {what} in '{size_line}'")))
    };
    let num_rows = parse_usize(it.next(), "row count")?;
    let num_cols = parse_usize(it.next(), "column count")?;
    let declared_nnz = parse_usize(it.next(), "nonzero count")?;
    // Indices are stored as `u32` (the paper's `colidx`), and CSR
    // conversion allocates `num_rows + 1` row pointers: refuse dimensions
    // the formats cannot hold before either can panic or abort.
    for (what, n) in [("row", num_rows), ("column", num_cols)] {
        if u32::try_from(n).is_err() {
            return Err(MmError::Parse(format!(
                "{what} count {n} exceeds the u32 index range"
            )));
        }
    }

    // A mirrored entry swaps its row and column, so both must fit both
    // dimensions.
    if symmetry != Symmetry::General && num_rows != num_cols {
        return Err(MmError::Parse(format!(
            "a symmetric or skew-symmetric matrix must be square, got {num_rows}x{num_cols}"
        )));
    }

    // CSR conversion allocates counters for every row. Each entry fills
    // at most one row (two with its mirror), and the declared entry count
    // is checked against the file below, so this bound ties that
    // allocation to the file's size plus a fixed allowance of empty rows.
    let filled = match symmetry {
        Symmetry::General => declared_nnz,
        Symmetry::Symmetric | Symmetry::SkewSymmetric => declared_nnz.saturating_mul(2),
    };
    let row_limit = filled.saturating_add(EMPTY_ROWS_MAX);
    if num_rows > row_limit {
        return Err(MmError::Parse(format!(
            "row count {num_rows} exceeds the limit of {row_limit} rows \
             ({filled} the {declared_nnz} declared entries can fill plus \
             {EMPTY_ROWS_MAX} empty rows)"
        )));
    }

    // The declared count is untrusted: pre-size for at most
    // `PRESIZE_ENTRIES_MAX` entries and let real entries grow the buffers,
    // so a lying header cannot force a huge allocation up front. The
    // declared-vs-actual check below still rejects the file.
    let presize = declared_nnz.min(PRESIZE_ENTRIES_MAX);
    let mut coo = CooMatrix::with_capacity(num_rows, num_cols, presize);
    let mut seen = 0usize;
    let mut occupied: HashSet<(usize, usize)> = HashSet::with_capacity(presize);
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| MmError::Parse(format!("bad row index in '{trimmed}'")))?;
        let c: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| MmError::Parse(format!("bad column index in '{trimmed}'")))?;
        if r == 0 || c == 0 || r > num_rows || c > num_cols {
            return Err(MmError::OutOfBounds {
                row: r,
                col: c,
                num_rows,
                num_cols,
            });
        }
        if has_value && it.next().and_then(|t| t.parse::<f64>().ok()).is_none() {
            return Err(MmError::Parse(format!("bad value in '{trimmed}'")));
        }
        if it.next().is_some() {
            return Err(MmError::Parse(format!(
                "trailing tokens after entry '{trimmed}'"
            )));
        }
        if symmetry != Symmetry::General {
            // Symmetric and skew-symmetric files store the lower triangle
            // only; an upper-triangle entry would collide with the mirror
            // of its transpose and double-count the nonzero.
            if r < c {
                return Err(MmError::Parse(format!(
                    "entry ({r}, {c}) above the diagonal in a {} file",
                    if symmetry == Symmetry::Symmetric {
                        "symmetric"
                    } else {
                        "skew-symmetric"
                    }
                )));
            }
            if symmetry == Symmetry::SkewSymmetric && r == c {
                return Err(MmError::Parse(format!(
                    "diagonal entry ({r}, {c}) in a skew-symmetric file"
                )));
            }
        }
        if !occupied.insert((r, c)) {
            return Err(MmError::Duplicate { row: r, col: c });
        }
        let (r, c) = (r - 1, c - 1);
        match symmetry {
            Symmetry::General => coo.push(r, c),
            Symmetry::Symmetric | Symmetry::SkewSymmetric => coo.push_symmetric(r, c),
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(MmError::Parse(format!(
            "file declares {declared_nnz} entries but contains {seen}"
        )));
    }
    Ok(coo)
}

/// Reads a Matrix Market file from `path` into CSR form.
pub fn read_csr_file<P: AsRef<Path>>(path: P) -> Result<CsrMatrix, MmError> {
    let file = std::fs::File::open(path)?;
    Ok(read_coo(io::BufReader::new(file))?.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 3\n\
                    1 1 2.5\n\
                    2 3 -1.0\n\
                    3 1 4\n";
        let csr = read_coo(Cursor::new(text)).unwrap().to_csr();
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.rowptr(), &[0, 1, 2, 3]);
        assert_eq!(csr.colidx(), &[0, 2, 0]);
    }

    #[test]
    fn reads_symmetric_and_mirrors() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 1.0\n\
                    2 1 5.0\n";
        let csr = read_coo(Cursor::new(text)).unwrap().to_csr();
        assert_eq!(csr.nnz(), 3);
        assert!(csr.contains(0, 1));
        assert!(csr.contains(1, 0));
    }

    #[test]
    fn reads_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 3.0\n";
        let csr = read_coo(Cursor::new(text)).unwrap().to_csr();
        assert_eq!(csr.nnz(), 2);
        assert!(csr.contains(1, 0));
        assert!(csr.contains(0, 1));
    }

    #[test]
    fn reads_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 3 2\n\
                    1 2\n\
                    2 3\n";
        let csr = read_coo(Cursor::new(text)).unwrap().to_csr();
        assert_eq!(csr.rowptr(), &[0, 1, 2]);
        assert_eq!(csr.colidx(), &[1, 2]);
    }

    #[test]
    fn real_and_pattern_files_read_to_the_same_matrix() {
        let real = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 3\n1 1 2.5\n2 3 -1.0\n3 1 4e3\n";
        let pattern = "%%MatrixMarket matrix coordinate pattern general\n\
                       3 3 3\n1 1\n2 3\n3 1\n";
        let a = read_coo(Cursor::new(real)).unwrap().to_csr();
        let b = read_coo(Cursor::new(pattern)).unwrap().to_csr();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn rejects_non_numeric_value() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 x\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, MmError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("bad value in '1 1 x'"), "{err}");
    }

    /// A `pattern general` file with `size` as its size line and the one
    /// entry `1 1`.
    fn one_entry_file(size: &str) -> String {
        format!("%%MatrixMarket matrix coordinate pattern general\n{size}\n1 1\n")
    }

    #[test]
    fn column_count_beyond_u32_is_a_parse_error() {
        let err = read_coo(Cursor::new(one_entry_file("2 5000000000 1"))).unwrap_err();
        assert!(matches!(err, MmError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("column count 5000000000"), "{err}");
    }

    #[test]
    fn huge_row_count_is_a_parse_error_not_an_abort() {
        // Trusted, 10^12 rows would allocate 8 TB of row counters.
        let err = read_coo(Cursor::new(one_entry_file("1000000000000 2 1"))).unwrap_err();
        assert!(matches!(err, MmError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("row count 1000000000000"), "{err}");
    }

    #[test]
    fn row_count_at_usize_max_is_a_parse_error_not_a_wrap() {
        // `num_rows + 1` would wrap to 0 row counters.
        let err = read_coo(Cursor::new(one_entry_file("18446744073709551615 2 1"))).unwrap_err();
        assert!(matches!(err, MmError::Parse(_)), "{err:?}");
        assert!(
            err.to_string().contains("exceeds the u32 index range"),
            "{err}"
        );
    }

    #[test]
    fn rejects_complex() {
        let text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("unsupported field"));
    }

    #[test]
    fn rejects_dense_array() {
        let text = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("coordinate"));
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(matches!(
            err,
            MmError::OutOfBounds {
                row: 3,
                col: 1,
                num_rows: 2,
                num_cols: 2
            }
        ));
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn rejects_duplicate_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 2\n1 2 1.0\n1 2 4.0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, MmError::Duplicate { row: 1, col: 2 }));
        assert!(err.to_string().contains("duplicate entry (1, 2)"));
    }

    #[test]
    fn rejects_duplicate_pattern_entry() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    3 3 2\n2 1\n2 1\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, MmError::Duplicate { row: 2, col: 1 }));
    }

    #[test]
    fn rejects_upper_triangle_in_symmetric() {
        // (1, 2) in a symmetric file collides with the mirror of (2, 1);
        // the old reader mirrored both and produced nnz = 4, not 3.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n2 1 5.0\n1 2 5.0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("above the diagonal"), "got: {err}");
    }

    #[test]
    fn rejects_upper_triangle_in_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    3 3 1\n1 3 2.0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("above the diagonal"));
    }

    #[test]
    fn rejects_skew_symmetric_diagonal() {
        // A skew-symmetric matrix has a zero diagonal by definition; a
        // stored diagonal entry is malformed, and the old reader kept it
        // without the (impossible) mirror.
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n1 1 3.0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("diagonal entry (1, 1)"));
    }

    #[test]
    fn rejects_pattern_skew_symmetric_banner() {
        let text = "%%MatrixMarket matrix coordinate pattern skew-symmetric\n\
                    2 2 1\n2 1\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("pattern skew-symmetric"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1\n1 1 1.0 9.0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("trailing tokens"));
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("declares 2 entries"));
    }

    #[test]
    fn non_square_symmetric_file_is_an_error_not_a_panic() {
        // Found by the parser proptests: the mirror of (4, 1) is (1, 4),
        // outside the 3 declared columns.
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n4 3 1\n4 1\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("must be square, got 4x3"), "{err}");
    }

    #[test]
    fn huge_declared_entry_count_is_an_error_not_an_abort() {
        // 4e12 declared entries would ask for ~32 TB if trusted.
        let text = "%%MatrixMarket matrix coordinate real general\n2000000 2000000 4000000000000\n1 1 1.0\n";
        let err = read_coo(Cursor::new(text)).unwrap_err();
        assert!(
            err.to_string().contains("declares 4000000000000 entries"),
            "{err}"
        );
    }
}
