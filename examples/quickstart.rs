//! Quickstart: generate a sparse matrix, classify it, predict its cache
//! misses with the locality model, and check the prediction against the
//! A64FX simulator.
//!
//! Run: `cargo run --release --example quickstart`

use a64fx_spmv::prelude::*;

fn main() {
    // A circuit-like matrix (nearly tridiagonal plus random long-range
    // connections): its x-vector reuse is what the sector cache protects.
    let matrix = corpus::banded::tridiag_plus_random(32_000, 1, 2023);
    let cfg = MachineConfig::a64fx_scaled(16);
    println!(
        "matrix: {} rows, {} nonzeros, {:.1} KiB CSR data",
        matrix.num_rows(),
        matrix.nnz(),
        matrix.matrix_bytes() as f64 / 1024.0
    );

    // 1. Where does the matrix fall in the paper's classification?
    let threads = 48;
    let class = classify_for(&matrix, &cfg.clone().with_l2_sector(5), threads);
    println!("classification with 5 sector-1 ways: {}", class.label());

    // 2. Model prediction (method B: single x-trace pass + analytics).
    let settings = [SectorSetting::Off, SectorSetting::L2Ways(5)];
    let preds = predict(&matrix, &cfg, Method::B, &settings, threads);
    for p in &preds {
        println!(
            "model: sector {:>7} -> {:>8} predicted L2 misses/iteration",
            p.setting.label(),
            p.l2_misses
        );
    }

    // 3. Simulator measurement of the same two configurations, 48 threads.
    let base = simulate_spmv(&matrix, &cfg, ArraySet::EMPTY, threads, 1);
    let part_cfg = cfg.clone().with_l2_sector(5);
    let part = simulate_spmv(&matrix, &part_cfg, ArraySet::MATRIX_STREAM, threads, 1);
    println!(
        "simulator: off -> {} misses, 5 ways -> {} misses",
        base.pmu.l2_misses(),
        part.pmu.l2_misses()
    );

    // 4. Estimated performance impact.
    let perf_base = estimate(&cfg, matrix.nnz(), &base);
    let perf_part = estimate(&part_cfg, matrix.nnz(), &part);
    println!(
        "estimated speedup from the sector cache: {:.3}x ({:?} -> {:?})",
        perf_base.seconds / perf_part.seconds,
        perf_base.bottleneck,
        perf_part.bottleneck
    );
}
