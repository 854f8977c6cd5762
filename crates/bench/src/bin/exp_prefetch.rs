//! §4.3 ablation: prefetch distance versus small sectors.
//!
//! The paper's surprise: 2 L2 ways for the streamed data is *worse* than
//! 4–5, because aggressive hardware prefetching into a tiny sector evicts
//! prefetched lines before their first use. After reducing the prefetch
//! distance, 2 ways performs like 4. This binary reproduces that
//! three-way comparison — the "default" distance is the machine's own
//! (scaled) prefetch distance, "short" is the minimum — and reports the
//! premature-eviction counter. Differences are reported as
//! `(base − cfg)/cfg` (bounded at −100 %), as in Fig. 2.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_prefetch [--count N --scale N --threads N]`

use a64fx::PrefetchConfig;
use locality_engine::pool::run_indexed;
use spmv_bench::boxplot::BoxStats;
use spmv_bench::runner::{machine_for, measure, measure_with_prefetch, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(120);
    println!(
        "# §4.3 ablation: prefetch distance vs sector size ({} matrices, {} threads, scale 1/{})",
        args.count, args.threads, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);

    let default_pf = machine_for(args.scale, args.threads, SweepPoint::BASELINE).prefetch;
    let short_pf = PrefetchConfig {
        l2_distance: 1,
        ..default_pf
    };
    println!(
        "# default distance = {} lines (scaled), short = {} line",
        default_pf.l2_distance, short_pf.l2_distance
    );

    struct Cfg {
        label: &'static str,
        point: SweepPoint,
        prefetch: PrefetchConfig,
    }
    let cfgs = [
        Cfg {
            label: "2 ways, default distance",
            point: SweepPoint {
                l2_ways: 2,
                l1_ways: 0,
            },
            prefetch: default_pf,
        },
        Cfg {
            label: "2 ways, short distance",
            point: SweepPoint {
                l2_ways: 2,
                l1_ways: 0,
            },
            prefetch: short_pf,
        },
        Cfg {
            label: "4 ways, default distance",
            point: SweepPoint {
                l2_ways: 4,
                l1_ways: 0,
            },
            prefetch: default_pf,
        },
        Cfg {
            label: "5 ways, default distance",
            point: SweepPoint {
                l2_ways: 5,
                l1_ways: 0,
            },
            prefetch: default_pf,
        },
    ];

    // (miss difference %, premature evictions) per matrix per config.
    let per_matrix: Vec<Vec<(f64, u64)>> = run_indexed(0, &suite, |_, nm| {
        let (base, _) = measure(&nm.matrix, args.scale, args.threads, SweepPoint::BASELINE);
        let base_misses = base.pmu.l2_misses() as f64;
        cfgs.iter()
            .map(|c| {
                let (sim, _) = measure_with_prefetch(
                    &nm.matrix,
                    args.scale,
                    args.threads,
                    c.point,
                    c.prefetch,
                );
                let cfg_misses = sim.pmu.l2_misses().max(1) as f64;
                (
                    100.0 * (base_misses - cfg_misses) / cfg_misses,
                    sim.pmu.evicted_unused_prefetches,
                )
            })
            .collect()
    });

    println!(
        "{:<28} difference in L2 misses [%] = (base - cfg)/cfg",
        "config"
    );
    for (i, c) in cfgs.iter().enumerate() {
        let diffs: Vec<f64> = per_matrix.iter().map(|r| r[i].0).collect();
        let evictions: u64 = per_matrix.iter().map(|r| r[i].1).sum();
        match BoxStats::compute(&diffs) {
            Some(s) => println!(
                "{:<28} {}  (premature prefetch evictions: {})",
                c.label,
                s.row(),
                evictions
            ),
            None => println!("{:<28} (no samples)", c.label),
        }
    }
}
