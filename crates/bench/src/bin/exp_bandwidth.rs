//! §4.4 bandwidth observations: the matrices that speed up most are *not*
//! the bandwidth-bound ones.
//!
//! Reproduces the paper's two top-20 lists: by memory-bandwidth
//! utilisation (baseline) and by sector-cache speedup (5 L2 ways). The
//! paper finds the top-20 bandwidth range at 513–783 GB/s while none of
//! the top-20 speedup matrices exceed 400 GB/s.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_bandwidth [--count N --scale N --threads N]`

use locality_engine::pool::run_indexed;
use spmv_bench::runner::{measure, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(490);
    println!(
        "# §4.4: bandwidth vs speedup ({} matrices, {} threads, scale 1/{})",
        args.count, args.threads, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);
    let point = SweepPoint {
        l2_ways: 5,
        l1_ways: 0,
    };

    struct Row {
        name: String,
        bandwidth_base: f64,
        bandwidth_sector: f64,
        speedup: f64,
        demand_reduction_pct: f64,
    }

    let rows: Vec<Row> = run_indexed(0, &suite, |_, nm| {
        let (bsim, bperf) = measure(&nm.matrix, args.scale, args.threads, SweepPoint::BASELINE);
        let (psim, pperf) = measure(&nm.matrix, args.scale, args.threads, point);
        let base_dm = bsim.pmu.l2_demand_misses().max(1) as f64;
        Row {
            name: nm.name.clone(),
            bandwidth_base: bperf.bandwidth_gbs,
            bandwidth_sector: pperf.bandwidth_gbs,
            speedup: bperf.seconds / pperf.seconds,
            demand_reduction_pct: 100.0 * (base_dm - psim.pmu.l2_demand_misses() as f64) / base_dm,
        }
    });

    let mut by_bw: Vec<&Row> = rows.iter().collect();
    by_bw.sort_by(|a, b| b.bandwidth_base.total_cmp(&a.bandwidth_base));
    println!("\n# top 20 by baseline bandwidth utilisation [GB/s]");
    println!("{:<18} {:>10} {:>9}", "matrix", "BW base", "speedup");
    for r in by_bw.iter().take(20) {
        println!(
            "{:<18} {:>10.1} {:>9.3}",
            r.name, r.bandwidth_base, r.speedup
        );
    }
    if by_bw.len() >= 20 {
        println!(
            "# top-20 bandwidth range: {:.0}..{:.0} GB/s",
            by_bw[19].bandwidth_base, by_bw[0].bandwidth_base
        );
    }

    let mut by_speedup: Vec<&Row> = rows.iter().collect();
    by_speedup.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
    println!("\n# top 20 by sector-cache speedup (5 L2 ways)");
    println!(
        "{:<18} {:>9} {:>10} {:>11} {:>13}",
        "matrix", "speedup", "BW base", "BW sector", "d-miss red %"
    );
    for r in by_speedup.iter().take(20) {
        println!(
            "{:<18} {:>9.3} {:>10.1} {:>11.1} {:>13.1}",
            r.name, r.speedup, r.bandwidth_base, r.bandwidth_sector, r.demand_reduction_pct
        );
    }
    if by_speedup.len() >= 20 {
        let max_bw_of_top_speedup = by_speedup
            .iter()
            .take(20)
            .map(|r| r.bandwidth_base)
            .fold(0.0f64, f64::max);
        println!("# max baseline bandwidth among top-20 speedups: {max_bw_of_top_speedup:.0} GB/s");
        let increased = by_speedup
            .iter()
            .take(20)
            .filter(|r| r.bandwidth_sector > r.bandwidth_base)
            .count();
        println!("# {increased}/20 top-speedup matrices draw MORE bandwidth with the sector cache");
    }
}
