//! Future-work experiment: software prefetching of the gathered `x`
//! accesses in conjunction with the sector cache.
//!
//! The paper's conclusion proposes exactly this combination. For each
//! corpus matrix the harness compares four kernels at 48 threads:
//! baseline, sector cache (5 L2 ways), software x-prefetch alone, and
//! both. Reported per variant: L2 demand misses (the latency the §4.4
//! analysis blames) and estimated speedup over baseline.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_swpf [--count N --scale N --threads N]`

use a64fx::{estimate, simulate_spmv_partitioned};
use memtrace::ArraySet;
use sparsemat::RowPartition;
use spmv_bench::boxplot::BoxStats;
use spmv_bench::runner::{machine_for, measure, parallel_map, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(60);
    let distance = 16;
    println!(
        "# Future work: software x-prefetch (distance {distance} nnz) x sector cache ({} matrices, {} threads, scale 1/{})",
        args.count, args.threads, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);

    struct Row {
        speedup_sector: f64,
        speedup_swpf: f64,
        speedup_both: f64,
        dm_reduction_swpf: f64,
    }

    let rows: Vec<Row> = parallel_map(&suite, |nm| {
        let (bsim, bperf) = measure(&nm.matrix, args.scale, args.threads, SweepPoint::BASELINE);
        let (_, sperf) = measure(
            &nm.matrix,
            args.scale,
            args.threads,
            SweepPoint {
                l2_ways: 5,
                l1_ways: 0,
            },
        );

        let partition = RowPartition::static_rows(nm.matrix.num_rows(), args.threads);
        let base_cfg = machine_for(args.scale, args.threads, SweepPoint::BASELINE);
        let psim = simulate_spmv_partitioned(
            &nm.matrix,
            &base_cfg,
            ArraySet::EMPTY,
            &partition,
            1,
            Some(distance),
        );
        let pperf = estimate(&base_cfg, nm.matrix.nnz(), &psim);

        let both_cfg = machine_for(
            args.scale,
            args.threads,
            SweepPoint {
                l2_ways: 5,
                l1_ways: 0,
            },
        );
        let bothsim = simulate_spmv_partitioned(
            &nm.matrix,
            &both_cfg,
            ArraySet::MATRIX_STREAM,
            &partition,
            1,
            Some(distance),
        );
        let bothperf = estimate(&both_cfg, nm.matrix.nnz(), &bothsim);

        let base_dm = bsim.pmu.l2_demand_misses().max(1) as f64;
        Row {
            speedup_sector: bperf.seconds / sperf.seconds,
            speedup_swpf: bperf.seconds / pperf.seconds,
            speedup_both: bperf.seconds / bothperf.seconds,
            dm_reduction_swpf: 100.0 * (base_dm - psim.pmu.l2_demand_misses() as f64) / base_dm,
        }
    });

    let col = |f: fn(&Row) -> f64| -> Vec<f64> { rows.iter().map(f).collect() };
    for (label, samples) in [
        ("sector only", col(|r| r.speedup_sector)),
        ("swpf only", col(|r| r.speedup_swpf)),
        ("sector+swpf", col(|r| r.speedup_both)),
    ] {
        println!("{label:<12} {}", BoxStats::compute(&samples).unwrap().row());
    }
    let dm = col(|r| r.dm_reduction_swpf);
    println!("\n# demand-miss reduction from software prefetch alone");
    println!("{}", BoxStats::compute(&dm).unwrap().row());
}
