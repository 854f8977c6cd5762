//! Fig. 4: speedup versus vector size (matrix columns) for the sector
//! cache with 5 L2 ways, coloured by the §3.1 matrix classes.
//!
//! Emits the scatter series (one row per matrix: columns, class, speedup)
//! followed by per-class box summaries, reproducing the figure's reading:
//! class (1) stays near 1×, class (2) benefits most, class (3) benefit
//! decays with size.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_fig4 [--count N --scale N --threads N]`

use locality_core::classify_for;
use locality_engine::pool::run_indexed;
use spmv_bench::boxplot::BoxStats;
use spmv_bench::runner::{machine_for, measure, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(490);
    let point = SweepPoint {
        l2_ways: 5,
        l1_ways: 0,
    };
    println!(
        "# Fig. 4: speedup vs matrix columns, sector cache 5 L2 ways ({} matrices, {} threads, scale 1/{})",
        args.count, args.threads, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);
    let class_cfg = machine_for(args.scale, args.threads, point);

    let rows = run_indexed(0, &suite, |_, nm| {
        let (_, base) = measure(&nm.matrix, args.scale, args.threads, SweepPoint::BASELINE);
        let (_, part) = measure(&nm.matrix, args.scale, args.threads, point);
        let class = classify_for(&nm.matrix, &class_cfg, args.threads);
        (
            nm.name.clone(),
            nm.matrix.num_cols(),
            class,
            base.seconds / part.seconds,
        )
    });

    println!(
        "{:<18} {:>12} {:<11} {:>8}",
        "matrix", "columns", "class", "speedup"
    );
    for (name, cols, class, speedup) in &rows {
        println!("{name:<18} {cols:>12} {:<11} {speedup:>8.3}", class.label());
    }

    println!("\n# per-class summary");
    for class in [
        locality_core::MatrixClass::Class1,
        locality_core::MatrixClass::Class2,
        locality_core::MatrixClass::Class3a,
        locality_core::MatrixClass::Class3b,
    ] {
        let samples: Vec<f64> = rows
            .iter()
            .filter(|(_, _, c, _)| *c == class)
            .map(|(_, _, _, s)| *s)
            .collect();
        match BoxStats::compute(&samples) {
            Some(s) => println!("{:<11} {}", class.label(), s.row()),
            None => println!("{:<11} (no matrices)", class.label()),
        }
    }
}
