//! Table 1: performance (Gflop/s) of CSR SpMV using 48 threads, sector
//! cache disabled, on the 18 named matrices.
//!
//! "Ours" is the plain kernel with the OpenMP-style static row partition;
//! the "\[1\]-style" column reproduces the two optimisations §4.2 attributes
//! to Alappat et al. — RCM reordering and nonzero-balanced thread
//! partitioning — which explain why that work is faster on irregular
//! matrices (`kkt_power`, `delaunay_n24`, `bundle_adj`, `audikw_1`).
//! The paper's measured values are printed alongside for shape comparison.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_table1 [--scale N --threads N]`

use a64fx::{estimate, simulate_spmv_partitioned};
use locality_engine::pool::run_indexed;
use memtrace::ArraySet;
use sparsemat::{reorder::rcm_reorder, RowPartition};
use spmv_bench::runner::{machine_for, measure, ExpArgs, SweepPoint};

/// Paper Table 1 reference values: (name, Gflop/s ours, Gflop/s \[1\]).
const PAPER: [(&str, f64, f64); 18] = [
    ("pdb1HYS", 82.9, 40.2),
    ("Hamrle3", 15.9, 9.4),
    ("G3_circuit", 10.8, 11.2),
    ("shipsec1", 94.0, 16.7),
    ("pwtk", 87.3, 94.5),
    ("kkt_power", 8.6, 14.3),
    ("Si41Ge41H72", 71.6, 70.3),
    ("bundle_adj", 7.6, 66.6),
    ("msdoor", 50.6, 53.3),
    ("Fault_639", 75.7, 77.5),
    ("af_shell10", 94.0, 92.3),
    ("Serena", 65.6, 70.5),
    ("bone010", 110.8, 118.9),
    ("audikw_1", 45.1, 102.8),
    ("channel-500x100x100-b050", 42.1, 47.0),
    ("nlpkkt120", 75.7, 77.2),
    ("delaunay_n24", 5.8, 22.7),
    ("ML_Geer", 117.8, 120.5),
];

fn main() {
    let args = ExpArgs::parse(18);
    println!(
        "# Table 1: CSR SpMV performance, {} threads, sector cache off",
        args.threads
    );
    println!(
        "# machine scale 1/{}, simulated Gflop/s (shape comparison, not absolute)",
        args.scale
    );
    println!(
        "{:<26} {:>9} {:>9} {:>10} {:>12} {:>11} {:>11}",
        "matrix", "rows", "nnz(M)", "ours", "RCM+balance", "paper-ours", "paper-[1]"
    );

    let suite = corpus::table1_suite(args.scale);
    let rows = run_indexed(0, &suite, |_, nm| {
        let (_, perf) = measure(&nm.matrix, args.scale, args.threads, SweepPoint::BASELINE);

        // The [1]-style comparator: RCM reordering + nonzero-balanced rows.
        let reordered = rcm_reorder(&nm.matrix);
        let partition = RowPartition::balanced_nnz(&reordered, args.threads);
        let cfg = machine_for(args.scale, args.threads, SweepPoint::BASELINE);
        let sim = simulate_spmv_partitioned(&reordered, &cfg, ArraySet::EMPTY, &partition, 1, None);
        let perf_opt = estimate(&cfg, reordered.nnz(), &sim);

        (
            nm.name.clone(),
            nm.matrix.num_rows(),
            nm.matrix.nnz(),
            perf.gflops,
            perf_opt.gflops,
        )
    });

    for (name, nrows, nnz, ours, opt) in rows {
        let (paper_ours, paper_alappat) = PAPER
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, a, b)| (a, b))
            .unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{:<26} {:>9} {:>9.2} {:>10.1} {:>12.1} {:>11.1} {:>11.1}",
            name,
            nrows,
            nnz as f64 / 1e6,
            ours,
            opt,
            paper_ours,
            paper_alappat
        );
    }
}
