//! Process memory statistics from `/proc/self/status`.
//!
//! Shared by the metrics document's RSS checkpoints and the bench
//! binaries (which previously each carried their own parser that silently
//! reported 0 when the field was missing — here absence is an explicit
//! `None` so reports can say `null` instead of lying).

use std::path::Path;

/// The status file the default accessors read.
pub const PROC_SELF_STATUS: &str = "/proc/self/status";

/// Peak resident set size (`VmHWM`) in kB, or `None` where
/// `/proc/self/status` or the field is unavailable (e.g. non-Linux).
pub fn vm_hwm_kb() -> Option<u64> {
    vm_hwm_kb_at(Path::new(PROC_SELF_STATUS))
}

/// [`vm_hwm_kb`] reading an explicit status file. The path parameter is
/// what makes the unavailable-`/proc` branch testable on Linux: a
/// nonexistent path must yield `None` (recorded downstream as an explicit
/// `null`), never 0 and never a skipped record.
pub fn vm_hwm_kb_at(status_path: &Path) -> Option<u64> {
    status_field_kb(status_path, "VmHWM:")
}

fn status_field_kb(path: &Path, field: &str) -> Option<u64> {
    parse_status_field(&std::fs::read_to_string(path).ok()?, field)
}

/// Extracts a `kB`-valued field (e.g. `"VmHWM:"`) from the text of a
/// `/proc/<pid>/status` file. Split out for testability.
pub fn parse_status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Name:\tspmv\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t    9876 kB\nThreads:\t4\n";

    #[test]
    fn parses_present_fields() {
        assert_eq!(parse_status_field(SAMPLE, "VmHWM:"), Some(12345));
        assert_eq!(parse_status_field(SAMPLE, "VmRSS:"), Some(9876));
    }

    #[test]
    fn missing_field_is_none_not_zero() {
        assert_eq!(parse_status_field(SAMPLE, "VmSwap:"), None);
        assert_eq!(parse_status_field("", "VmHWM:"), None);
    }

    #[test]
    fn malformed_value_is_none() {
        assert_eq!(parse_status_field("VmHWM:\tgarbage kB\n", "VmHWM:"), None);
        assert_eq!(parse_status_field("VmHWM:\n", "VmHWM:"), None);
    }

    #[test]
    fn nonexistent_status_path_is_none_not_zero() {
        let missing = Path::new("/nonexistent/proc/self/status");
        assert_eq!(vm_hwm_kb_at(missing), None);
    }

    #[test]
    fn explicit_status_path_reads_like_the_default() {
        let path = std::env::temp_dir().join(format!("spmv-obs-memstats-{}", std::process::id()));
        std::fs::write(&path, SAMPLE).expect("temp status file");
        assert_eq!(vm_hwm_kb_at(&path), Some(12345));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_read_is_consistent_when_available() {
        // On Linux a live process has nonzero peak RSS; elsewhere the
        // field is None. Either way: no panic, no 0.
        assert_ne!(vm_hwm_kb(), Some(0));
    }
}
