//! Matrix classification by working-set size (§3.1).
//!
//! The paper classifies matrices against the cache (and cache-partition)
//! capacities to predict when the sector cache helps:
//!
//! 1. **Class (1)** — matrix and vectors together fit into cache: no
//!    capacity misses, partitioning cannot help.
//! 2. **Class (2)** — the working set exceeds the cache, but `x`, `y` and
//!    `rowptr` together fit into the sector-0 partition: partitioning
//!    shields all reusable data, the best case.
//! 3. **Class (3a)** — `x`, `y`, `rowptr` together exceed the partition
//!    but `x` alone fits.
//! 4. **Class (3b)** — even `x` alone exceeds the partition.

use a64fx::MachineConfig;
use memtrace::SpmvWorkload;

/// The paper's §3.1 matrix classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MatrixClass {
    /// Matrix and vectors fit into cache.
    Class1,
    /// Matrix streams; `x`, `y` and `rowptr` fit into the partition.
    Class2,
    /// `x`, `y`, `rowptr` exceed the partition; `x` alone fits.
    Class3a,
    /// `x` alone exceeds the partition.
    Class3b,
}

impl MatrixClass {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            MatrixClass::Class1 => "class (1)",
            MatrixClass::Class2 => "class (2)",
            MatrixClass::Class3a => "class (3a)",
            MatrixClass::Class3b => "class (3b)",
        }
    }
}

/// Bytes of the reusable data: `x` + `y` + the metadata stream (`rowptr`
/// for CSR, chunk descriptors for SELL-C-σ).
pub fn reusable_bytes<W: SpmvWorkload>(workload: &W) -> usize {
    workload.reusable_bytes()
}

/// Bytes of the `x` vector alone.
pub fn x_bytes<W: SpmvWorkload>(workload: &W) -> usize {
    workload.x_bytes()
}

/// Classifies a workload against explicit capacities: `cache_bytes` is the
/// capacity available without partitioning, `partition0_bytes` the capacity
/// of the sector-0 partition holding the reusable data.
pub fn classify<W: SpmvWorkload>(
    workload: &W,
    cache_bytes: usize,
    partition0_bytes: usize,
) -> MatrixClass {
    if workload.working_set_bytes() <= cache_bytes {
        MatrixClass::Class1
    } else if workload.reusable_bytes() <= partition0_bytes {
        MatrixClass::Class2
    } else if workload.x_bytes() <= partition0_bytes {
        MatrixClass::Class3a
    } else {
        MatrixClass::Class3b
    }
}

/// Classifies a workload for a machine configuration's L2, with the given
/// number of threads.
///
/// For parallel runs the effective capacity is one L2 segment per domain
/// (shared data such as `x` is replicated across segments — the paper's
/// §3.1 note — so the per-domain view is what governs reuse), while the
/// *matrix* data is split across domains; we follow the paper's Fig. 4 in
/// comparing the total working set against the aggregate cache and the
/// reusable data against one partition.
pub fn classify_for<W: SpmvWorkload>(
    workload: &W,
    cfg: &MachineConfig,
    num_threads: usize,
) -> MatrixClass {
    let domains = num_threads.div_ceil(cfg.cores_per_domain).max(1);
    let cache_bytes = cfg.l2.size_bytes * domains;
    let partition0_bytes = cfg.l2_partition_lines(0) * cfg.l2.line_bytes;
    classify(workload, cache_bytes, partition0_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{CooMatrix, CsrMatrix};

    /// Square matrix with `n` rows and ~`nnz_per_row` random nonzeros.
    fn matrix(n: usize, nnz_per_row: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut state = 99u64;
        for r in 0..n {
            for _ in 0..nnz_per_row {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
                coo.push(r, (state >> 33) as usize % n);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn tiny_matrix_is_class1() {
        let m = matrix(100, 4);
        assert_eq!(classify(&m, 1 << 20, 1 << 18), MatrixClass::Class1);
    }

    #[test]
    fn streaming_matrix_with_small_vectors_is_class2() {
        let m = matrix(1000, 50);
        // Working set ~ 650 KB > 64 KB cache; reusable ~ 24 KB <= 32 KB.
        assert!(m.working_set_bytes() > 64 << 10);
        assert!(reusable_bytes(&m) <= 32 << 10);
        assert_eq!(classify(&m, 64 << 10, 32 << 10), MatrixClass::Class2);
    }

    #[test]
    fn large_vectors_fit_only_x_is_class3a() {
        let m = matrix(3000, 8);
        // reusable = 3000*8*2 + 3001*8 ~ 72 KB; x = 24 KB.
        let r = reusable_bytes(&m);
        let x = x_bytes(&m);
        assert!(r > 32 << 10 && x <= 32 << 10);
        assert_eq!(classify(&m, 64 << 10, 32 << 10), MatrixClass::Class3a);
    }

    #[test]
    fn huge_x_is_class3b() {
        let m = matrix(10_000, 2);
        assert!(x_bytes(&m) > 32 << 10);
        assert_eq!(classify(&m, 64 << 10, 32 << 10), MatrixClass::Class3b);
    }

    #[test]
    fn class_boundaries_are_inclusive() {
        // Working set exactly equals the cache: class (1).
        let m = matrix(64, 4);
        let ws = m.working_set_bytes();
        assert_eq!(classify(&m, ws, ws), MatrixClass::Class1);
        assert_eq!(
            classify(&m, ws - 1, reusable_bytes(&m)),
            MatrixClass::Class2
        );
    }

    #[test]
    fn classify_for_machine_uses_partition_capacity() {
        use a64fx::MachineConfig;
        let m = matrix(4000, 64); // matrix ~3 MB, reusable ~96 KB
        let cfg = MachineConfig::a64fx_scaled(16).with_l2_sector(5);
        // Scaled L2: 512 KiB; partition 0 = 11/16 of it = 352 KiB.
        assert_eq!(classify_for(&m, &cfg, 1), MatrixClass::Class2);
        // A matrix whose reusable data exceeds the partition degrades:
        // 40k rows -> x+y+rowptr ~ 940 KiB > 352 KiB, x ~ 312 KiB fits.
        let big = matrix(40_000, 8);
        assert_eq!(classify_for(&big, &cfg, 1), MatrixClass::Class3a);
    }

    #[test]
    fn labels() {
        assert_eq!(MatrixClass::Class1.label(), "class (1)");
        assert_eq!(MatrixClass::Class3b.label(), "class (3b)");
    }

    #[test]
    fn sell_workloads_classify_with_padded_working_set() {
        let m = matrix(1000, 50);
        let sell = sparsemat::SellMatrix::from_csr(&m, 8, 1000);
        // Padding enlarges the value/index stream, never shrinks it, while
        // the metadata shrinks to one descriptor per chunk.
        assert!(sell.stored_entries() >= m.nnz());
        assert!(reusable_bytes(&sell) <= reusable_bytes(&m));
        // Same capacities, same class boundaries, any workload view.
        assert_eq!(classify(&m, 64 << 10, 32 << 10), MatrixClass::Class2);
        assert_eq!(classify(&sell, 64 << 10, 32 << 10), MatrixClass::Class2);
    }
}
