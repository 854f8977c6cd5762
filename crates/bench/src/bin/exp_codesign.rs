//! Co-design study (the paper's conclusion use case): miss curves and
//! optimal way allocations.
//!
//! For a corpus subset this prints (a) each matrix's optimal sector split
//! under the Listing-1 routing, compared with the paper's fixed 5-way
//! recommendation and with partitioning disabled, and (b) an aggregate
//! miss-vs-capacity curve of the reusable data — the "what cache size
//! would this workload need" question the paper suggests the model can
//! answer for future systems.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_codesign [--count N --scale N --threads N]`

use locality_core::optimize::PartitionOptimizer;
use locality_engine::pool::run_indexed;
use memtrace::{Array, ArraySet};
use spmv_bench::runner::{machine_for, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(40);
    let cfg = machine_for(args.scale, args.threads, SweepPoint::BASELINE);
    println!(
        "# Co-design: optimal Listing-1 way splits ({} matrices, {} threads, scale 1/{})",
        args.count, args.threads, args.scale
    );
    let groups = [
        ArraySet::of(&[Array::X, Array::Y, Array::RowPtr]),
        ArraySet::MATRIX_STREAM,
    ];
    let suite = corpus::corpus(args.count, args.scale, args.seed);

    struct Row {
        name: String,
        best_stream_ways: usize,
        best: u64,
        at_5_ways: u64,
        curve_reusable: Vec<(usize, u64)>,
    }

    let rows = run_indexed(0, &suite, |_, nm| {
        let opt = PartitionOptimizer::from_spmv(&nm.matrix, &cfg, &groups, args.threads);
        let (alloc, best) = opt.best_allocation();
        Row {
            name: nm.name.clone(),
            best_stream_ways: alloc[1],
            best,
            at_5_ways: opt.misses_for(&[cfg.l2.ways - 5, 5]),
            curve_reusable: opt.miss_curve(0),
        }
    });

    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>10}",
        "matrix", "best-split", "best-misses", "5w-misses", "gain-vs-5w"
    );
    let mut histogram_of_best = vec![0usize; cfg.l2.ways + 1];
    for r in &rows {
        histogram_of_best[r.best_stream_ways] += 1;
        println!(
            "{:<16} {:>9}+{:<2} {:>12} {:>12} {:>9.1}%",
            r.name,
            cfg.l2.ways - r.best_stream_ways,
            r.best_stream_ways,
            r.best,
            r.at_5_ways,
            100.0 * (r.at_5_ways as f64 - r.best as f64) / r.at_5_ways.max(1) as f64
        );
    }

    println!("\n# distribution of optimal stream-sector ways over the corpus");
    for (w, &count) in histogram_of_best.iter().enumerate() {
        if count > 0 {
            println!("{w:>3} ways: {count}");
        }
    }

    println!("\n# aggregate reusable-data miss curve (co-design: misses vs capacity)");
    println!(
        "{:>5} {:>12} {:>14}",
        "ways", "capacity KiB", "total misses"
    );
    for w in 1..=cfg.l2.ways {
        let total: u64 = rows.iter().map(|r| r.curve_reusable[w - 1].1).sum();
        let kib = cfg.l2.num_sets() * w * cfg.l2.line_bytes / 1024;
        println!("{w:>5} {kib:>12} {total:>14}");
    }
}
