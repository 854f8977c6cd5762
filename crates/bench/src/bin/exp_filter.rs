//! Ablation: single-level model (the paper's) vs. the two-level
//! L1-filtered variant.
//!
//! The paper feeds the full reference stream to the L2 analysis; the real
//! L2 only sees L1 misses. This experiment quantifies how much that
//! simplification costs against the simulator, with the machine reduced
//! to the model's assumptions (true LRU, no prefetch) so the filtering
//! effect is isolated.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_filter [--count N --scale N]`

use a64fx::{simulate_spmv, PrefetchConfig, Replacement};
use locality_core::predict::{predict, Method, SectorSetting};
use locality_core::two_level::predict_filtered;
use locality_core::ErrorSummary;
use locality_engine::pool::run_indexed;
use memtrace::ArraySet;
use spmv_bench::runner::{machine_for, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(60);
    println!(
        "# Ablation: single-level vs L1-filtered model, sequential, LRU, no prefetch ({} matrices, scale 1/{})",
        args.count, args.scale
    );
    let mut cfg =
        machine_for(args.scale, 1, SweepPoint::BASELINE).with_prefetch(PrefetchConfig::off());
    cfg.replacement = Replacement::Lru;
    let suite = corpus::corpus(args.count, args.scale, args.seed);
    let settings = [SectorSetting::Off, SectorSetting::L2Ways(5)];

    let rows: Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> = run_indexed(0, &suite, |_, nm| {
        let plain: Vec<u64> = predict(&nm.matrix, &cfg, Method::A, &settings, 1)
            .iter()
            .map(|p| p.l2_misses)
            .collect();
        let filtered: Vec<u64> = predict_filtered(&nm.matrix, &cfg, &settings, 1)
            .iter()
            .map(|p| p.l2_misses)
            .collect();
        let measured: Vec<u64> = settings
            .iter()
            .map(|&s| {
                let (c, sector) = match s {
                    SectorSetting::Off => (cfg.clone(), ArraySet::EMPTY),
                    SectorSetting::L2Ways(w) => {
                        (cfg.clone().with_l2_sector(w), ArraySet::MATRIX_STREAM)
                    }
                };
                simulate_spmv(&nm.matrix, &c, sector, 1, 1).pmu.l2_misses()
            })
            .collect();
        (measured, plain, filtered)
    });

    for (i, setting) in settings.iter().enumerate() {
        let e_plain =
            ErrorSummary::from_pairs(rows.iter().map(|(m, p, _)| (m[i] as f64, p[i] as f64)));
        let e_filt =
            ErrorSummary::from_pairs(rows.iter().map(|(m, _, f)| (m[i] as f64, f[i] as f64)));
        println!(
            "{:<10} single-level: {e_plain}   L1-filtered: {e_filt}",
            match setting {
                SectorSetting::Off => "off".to_string(),
                SectorSetting::L2Ways(w) => format!("{w} ways"),
            }
        );
    }
    println!("# (close agreement = the paper's single-level simplification is justified for SpMV)");
}
