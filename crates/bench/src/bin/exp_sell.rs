//! Extension experiment (the paper's future work): sector-cache behaviour
//! of **SELL-C-σ** SpMV, side by side with CSR.
//!
//! The reuse-distance machinery is format-agnostic: the SELL trace reuses
//! the five array roles, so Eq. (2) applies unchanged, and both formats
//! run through the model's own method (A) pipeline (`SellMatrix` is an
//! `SpmvWorkload`). For each corpus matrix this prints the predicted
//! steady-state L2 misses of CSR and SELL-8-σ (σ = 8·C) without and with
//! the Listing-1 partitioning, plus the SELL padding overhead.
//!
//! Run: `cargo run --release -p spmv-bench --bin exp_sell [--count N --scale N]`

use locality_core::method_a;
use locality_core::{SectorSetting, SpmvWorkload};
use locality_engine::pool::run_indexed;
use sparsemat::SellMatrix;
use spmv_bench::runner::{machine_for, ExpArgs, SweepPoint};

/// Method (A) predictions of steady-state L2 misses, sequential: sector
/// cache off, and the Listing-1 split with 5 ways for the matrix stream.
fn predict_off_5w<W: SpmvWorkload>(workload: &W, cfg: &a64fx::MachineConfig) -> (u64, u64) {
    let preds = method_a::predict(
        workload,
        cfg,
        &[SectorSetting::Off, SectorSetting::L2Ways(5)],
        1,
    );
    (preds[0].l2_misses, preds[1].l2_misses)
}

fn main() {
    let args = ExpArgs::parse(40);
    let cfg = machine_for(args.scale, 1, SweepPoint::BASELINE);
    println!(
        "# SELL-C-sigma extension: predicted L2 misses, sequential, 5 L2 ways (scale 1/{})",
        args.scale
    );
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "matrix", "pad", "csr-off", "csr-5w", "sell-off", "sell-5w", "winner"
    );

    let suite = corpus::corpus(args.count, args.scale, args.seed);
    let rows = run_indexed(0, &suite, |_, nm| {
        let (csr_off, csr_5w) = predict_off_5w(&nm.matrix, &cfg);
        let sell = SellMatrix::from_csr(&nm.matrix, 8, 64);
        let (sell_off, sell_5w) = predict_off_5w(&sell, &cfg);
        (
            nm.name.clone(),
            sell.padding_ratio(),
            csr_off,
            csr_5w,
            sell_off,
            sell_5w,
        )
    });

    let mut sell_wins = 0usize;
    for (name, pad, csr_off, csr_5w, sell_off, sell_5w) in &rows {
        let winner = if sell_5w < csr_5w { "sell" } else { "csr" };
        if *sell_5w < *csr_5w {
            sell_wins += 1;
        }
        println!(
            "{name:<16} {pad:>8.3} {csr_off:>12} {csr_5w:>12} {sell_off:>12} {sell_5w:>12} {winner:>8}"
        );
    }
    println!(
        "\n# SELL-8-64 has fewer partitioned misses than CSR on {sell_wins}/{} matrices",
        rows.len()
    );
    println!("# (padding inflates the stream traffic; x locality is unchanged by chunking)");
}
