//! §4.5.5: model accuracy on the "hard" matrices — those whose `x`-vector
//! accesses cause 50 % or more of the overall predicted traffic.
//!
//! The paper finds 42 of 490 such matrices and reports a method (A) MAPE
//! of 10.14 % without and 8.14 % with the sector cache for them (sequential
//! SpMV) — higher than the corpus-wide average, since these are exactly the
//! matrices whose misses are *not* dominated by the easy-to-predict
//! streaming traffic.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_hard [--count N --scale N]`

use locality_core::predict::{Method, SectorSetting};
use locality_core::ErrorSummary;
use locality_engine::{pool::run_indexed, BatchSpec};
use spmv_bench::runner::{measure, ExpArgs, SweepPoint};

fn main() {
    let args = ExpArgs::parse(490);
    println!(
        "# §4.5.5: accuracy on matrices with >= 50% x-vector traffic ({} matrices, scale 1/{})",
        args.count, args.scale
    );
    let suite = corpus::corpus(args.count, args.scale, args.seed);
    let settings = [SectorSetting::Off, SectorSetting::L2Ways(5)];

    struct Row {
        x_fraction: f64,
        measured_off: u64,
        measured_5w: u64,
        pred_off: u64,
        pred_5w: u64,
    }

    // Predictions through the batch engine (method A only, both settings
    // from one memoized profile per matrix); measurements via the
    // simulator as before.
    let spec = BatchSpec {
        sources: Vec::new(),
        methods: vec![Method::A],
        settings: settings.to_vec(),
        threads: 1,
        scale: args.scale,
        workers: 0,
        ..BatchSpec::default()
    };
    let refs: Vec<(&str, &sparsemat::CsrMatrix)> = suite
        .iter()
        .map(|nm| (nm.name.as_str(), &nm.matrix))
        .collect();
    let batch = locality_engine::run_on(&spec, &refs);

    let measured: Vec<(u64, u64)> = run_indexed(0, &suite, |_, nm| {
        let (m_off, _) = measure(&nm.matrix, args.scale, 1, SweepPoint::BASELINE);
        let (m_5w, _) = measure(
            &nm.matrix,
            args.scale,
            1,
            SweepPoint {
                l2_ways: 5,
                l1_ways: 0,
            },
        );
        (m_off.pmu.l2_misses(), m_5w.pmu.l2_misses())
    });

    let rows: Vec<Row> = measured
        .iter()
        .enumerate()
        .map(|(i, &(measured_off, measured_5w))| {
            let off = &batch.reports[2 * i].prediction;
            let with = &batch.reports[2 * i + 1].prediction;
            Row {
                x_fraction: off.x_traffic_fraction(),
                measured_off,
                measured_5w,
                pred_off: off.l2_misses,
                pred_5w: with.l2_misses,
            }
        })
        .collect();

    let hard: Vec<&Row> = rows.iter().filter(|r| r.x_fraction >= 0.5).collect();
    println!(
        "# {} of {} matrices have >= 50% predicted x-traffic",
        hard.len(),
        rows.len()
    );
    let e_off = ErrorSummary::from_pairs(
        hard.iter()
            .map(|r| (r.measured_off as f64, r.pred_off as f64)),
    );
    let e_5w = ErrorSummary::from_pairs(
        hard.iter()
            .map(|r| (r.measured_5w as f64, r.pred_5w as f64)),
    );
    println!("hard subset, method (A), no sector cache : {e_off}");
    println!("hard subset, method (A), 5 L2 ways       : {e_5w}");

    let a_off = ErrorSummary::from_pairs(
        rows.iter()
            .map(|r| (r.measured_off as f64, r.pred_off as f64)),
    );
    println!("all matrices, method (A), no sector cache: {a_off}");
}
