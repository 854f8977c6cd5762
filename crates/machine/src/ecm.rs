//! ECM-style throughput model over a cache hierarchy.
//!
//! The Execution-Cache-Memory model (Hager et al.; applied to the A64FX
//! by Alappat et al., see PAPERS.md) decomposes the runtime of a
//! bandwidth-limited loop into an in-core execution time and one data
//! transfer time per hierarchy link, each simply `bytes / link bandwidth`.
//! The machine's [`EcmOverlap`] rule says how the contributions compose:
//! the A64FX overlaps nothing (total = sum, the key finding of the ECM
//! papers), while a generic x86 core overlaps transfers behind execution
//! (total = max).
//!
//! The caller supplies the traffic volumes; in this repo the engine
//! derives them from the locality model's predictions — the memory-link
//! volume is the predicted LLC miss count times the line size (the
//! paper's central quantity), and inner links carry at least the
//! workload's distinct-line footprint (every line crosses every link at
//! least once per iteration; a streaming lower bound that is exact for
//! the matrix/index/result streams and optimistic for repeated x gathers
//! that miss in inner levels).

use crate::hierarchy::{EcmOverlap, HierarchyConfig, LevelScope};

/// Per-iteration work and traffic volumes for one ECM evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct EcmInput {
    /// Useful floating-point operations per measured iteration.
    pub flops: f64,
    /// In-core execution seconds (critical-path core, all pipelines).
    pub core_seconds: f64,
    /// Bytes crossing the link below level `i` per iteration, one entry
    /// per hierarchy level; `link_bytes[last]` is the memory interface.
    /// Private-link entries are per critical-path core; the memory entry
    /// is per critical-path domain (matching each link's bandwidth
    /// scope in [`crate::LevelConfig::link_bandwidth_bps`]).
    pub link_bytes: Vec<f64>,
}

/// An ECM prediction for one sweep point.
#[derive(Clone, Debug, PartialEq)]
pub struct EcmEstimate {
    /// In-core execution time in seconds.
    pub t_core_s: f64,
    /// Transfer time per link, innermost first; the last entry is the
    /// memory interface.
    pub t_link_s: Vec<f64>,
    /// Composed total per the machine's overlap rule.
    pub t_total_s: f64,
    /// Predicted throughput in Gflop/s.
    pub gflops: f64,
    /// The largest single contribution: `"core"`, `"l1-l2"`, ...,
    /// `"mem"`.
    pub bottleneck: String,
}

/// Evaluates the ECM composition for `input` on `hier`.
///
/// # Panics
///
/// Panics if `input.link_bytes.len()` differs from the hierarchy's level
/// count.
pub fn estimate(hier: &HierarchyConfig, input: &EcmInput) -> EcmEstimate {
    assert_eq!(
        input.link_bytes.len(),
        hier.num_levels(),
        "one traffic volume per hierarchy link"
    );
    let t_link_s: Vec<f64> = input
        .link_bytes
        .iter()
        .zip(&hier.levels)
        .map(|(bytes, level)| bytes / level.link_bandwidth_bps)
        .collect();
    let t_total_s = match hier.overlap {
        EcmOverlap::Serial => input.core_seconds + t_link_s.iter().sum::<f64>(),
        EcmOverlap::Overlapped => t_link_s
            .iter()
            .fold(input.core_seconds, |acc, t| acc.max(*t)),
    };
    let mut bottleneck = "core".to_string();
    let mut worst = input.core_seconds;
    for (i, t) in t_link_s.iter().enumerate() {
        if *t > worst {
            worst = *t;
            bottleneck = link_label(hier, i);
        }
    }
    let gflops = if t_total_s > 0.0 {
        input.flops / t_total_s / 1.0e9
    } else {
        0.0
    };
    EcmEstimate {
        t_core_s: input.core_seconds,
        t_link_s,
        t_total_s,
        gflops,
        bottleneck,
    }
}

/// Human label for the link below level `i`: `"l1-l2"`, `"l2-l3"`,
/// `"mem"` for the last.
pub fn link_label(hier: &HierarchyConfig, i: usize) -> String {
    if i + 1 == hier.num_levels() {
        "mem".to_string()
    } else {
        format!("l{}-l{}", i + 1, i + 2)
    }
}

/// Derives a per-core in-core execution time from the timing parameters:
/// the critical-path core retires `max_core_ops` indexed-gather FMA
/// groups at `cycles_per_nnz` apiece.
pub fn core_seconds(hier: &HierarchyConfig, max_core_ops: f64) -> f64 {
    max_core_ops * hier.timing.cycles_per_nnz / hier.timing.clock_hz
}

/// True when level `i`'s link bandwidth is per-core rather than
/// per-domain (mirrors [`crate::LevelConfig::link_bandwidth_bps`] scope).
pub fn link_is_per_core(hier: &HierarchyConfig, i: usize) -> bool {
    hier.level(i).scope == LevelScope::PerCore && i + 1 != hier.num_levels()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streaming_input(hier: &HierarchyConfig, nnz: f64, bytes_per_nnz: f64) -> EcmInput {
        let per_core = nnz / hier.num_cores as f64;
        let per_domain = nnz / hier.num_domains() as f64;
        let mut link_bytes = vec![per_core * bytes_per_nnz; hier.num_levels()];
        *link_bytes.last_mut().unwrap() = per_domain * bytes_per_nnz;
        EcmInput {
            flops: 2.0 * nnz,
            core_seconds: core_seconds(hier, per_core),
            link_bytes,
        }
    }

    #[test]
    fn a64fx_streaming_spmv_is_memory_bound() {
        let h = HierarchyConfig::a64fx();
        // 12 bytes/nnz streaming CSR: value (8) + column index (4).
        let input = streaming_input(&h, 1.0e9, 12.0);
        let e = estimate(&h, &input);
        assert_eq!(e.bottleneck, "mem");
        // Serial composition: strictly below the pure-bandwidth roofline
        // (800 GB/s / 12 B ≈ 133 Gflop/s), and above half of it.
        assert!(e.gflops < 133.4, "{}", e.gflops);
        assert!(e.gflops > 60.0, "{}", e.gflops);
        // Sum rule: total is the sum of all contributions.
        let sum = e.t_core_s + e.t_link_s.iter().sum::<f64>();
        assert!((e.t_total_s - sum).abs() < 1e-15);
    }

    #[test]
    fn overlapped_machine_takes_the_max() {
        let h = HierarchyConfig::generic_x86();
        let input = streaming_input(&h, 1.0e8, 12.0);
        let e = estimate(&h, &input);
        let max = e.t_link_s.iter().fold(e.t_core_s, |acc, t| acc.max(*t));
        assert_eq!(e.t_total_s, max);
        assert_eq!(e.bottleneck, "mem");
        // DDR at 50 GB/s: 12 B/flop-pair → ~8.3 Gflop/s roofline.
        assert!((e.gflops - 2.0 * 50.0e9 / 12.0 / 1.0e9).abs() < 0.1);
    }

    #[test]
    fn core_bound_when_traffic_is_tiny() {
        let h = HierarchyConfig::generic_x86();
        let input = EcmInput {
            flops: 2.0e9,
            core_seconds: 1.0,
            link_bytes: vec![1.0; 3],
        };
        let e = estimate(&h, &input);
        assert_eq!(e.bottleneck, "core");
        assert_eq!(e.t_total_s, 1.0);
        assert!((e.gflops - 2.0).abs() < 1e-12);
    }

    #[test]
    fn link_labels() {
        let h = HierarchyConfig::generic_x86();
        assert_eq!(link_label(&h, 0), "l1-l2");
        assert_eq!(link_label(&h, 1), "l2-l3");
        assert_eq!(link_label(&h, 2), "mem");
        let a = HierarchyConfig::a64fx();
        assert_eq!(link_label(&a, 0), "l1-l2");
        assert_eq!(link_label(&a, 1), "mem");
    }

    #[test]
    #[should_panic(expected = "one traffic volume per hierarchy link")]
    fn wrong_link_count_panics() {
        let h = HierarchyConfig::a64fx();
        let input = EcmInput {
            flops: 1.0,
            core_seconds: 0.0,
            link_bytes: vec![1.0],
        };
        let _ = estimate(&h, &input);
    }
}
