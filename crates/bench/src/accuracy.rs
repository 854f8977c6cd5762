//! Shared driver for the Table 2 / Table 3 accuracy experiments.
//!
//! For every corpus matrix whose working set exceeds the (aggregate) L2
//! capacity, the simulator measures L2 misses per sector setting, methods
//! (A) and (B) predict them, and the absolute percentage errors are
//! aggregated per setting — exactly the paper's Eq. 3 tables, including
//! the §4.5.2/§4.5.3 restricted subset (`μ_K ≥ 8`, `CV_K ≤ 1`) for method
//! (B) without partitioning.

use crate::runner::{machine_for, measure, ExpArgs, SweepPoint};
use locality_core::predict::{Method, SectorSetting};
use locality_core::ErrorSummary;
use locality_engine::{pool::run_indexed, BatchSpec};
use sparsemat::MatrixStats;

/// Per-matrix accuracy record.
pub struct MatrixAccuracy {
    /// Matrix name.
    pub name: String,
    /// Measured misses per setting.
    pub measured: Vec<u64>,
    /// Method (A) predictions per setting.
    pub pred_a: Vec<u64>,
    /// Method (B) predictions per setting.
    pub pred_b: Vec<u64>,
    /// Row-length statistics (for the restricted subset).
    pub stats: MatrixStats,
}

/// Runs the accuracy experiment and prints the table.
pub fn run(args: &ExpArgs, threads: usize) {
    let settings = SectorSetting::paper_sweep();
    let suite = corpus::corpus(args.count, args.scale, args.seed);
    let cfg = machine_for(args.scale, threads, SweepPoint::BASELINE);
    // The paper includes only matrices above the L2 cache size
    // (8 MiB sequential, 32 MiB parallel).
    let domains = threads.div_ceil(cfg.cores_per_domain).max(1);
    let threshold = cfg.l2.size_bytes * domains;
    let included: Vec<_> = suite
        .into_iter()
        .filter(|nm| nm.matrix.working_set_bytes() > threshold)
        .collect();
    println!(
        "# {} of {} matrices above the {}x L2 threshold ({} KiB)",
        included.len(),
        args.count,
        domains,
        threshold >> 10
    );

    // Predictions go through the batch engine: one memoized profile per
    // (matrix, method) serves the whole 7-setting sweep, and the jobs are
    // spread over the work-stealing pool.
    let spec = BatchSpec {
        sources: Vec::new(),
        methods: vec![Method::A, Method::B],
        settings: settings.clone(),
        threads,
        scale: args.scale,
        workers: 0,
        ..BatchSpec::default()
    };
    let refs: Vec<(&str, &sparsemat::CsrMatrix)> = included
        .iter()
        .map(|nm| (nm.name.as_str(), &nm.matrix))
        .collect();
    let batch = locality_engine::run_on(&spec, &refs);
    println!(
        "# engine: {} jobs, {} profiles computed, {} cache hits",
        batch.stats.jobs, batch.stats.profile_computations, batch.stats.profile_hits
    );

    // The simulator side of the table (the "measurement") stays outside
    // the engine: it is per-setting by nature, nothing to memoize.
    let measured_all: Vec<Vec<u64>> = run_indexed(0, &included, |_, nm| {
        settings
            .iter()
            .map(|&s| {
                measure(&nm.matrix, args.scale, threads, s.into())
                    .0
                    .pmu
                    .l2_misses()
            })
            .collect()
    });

    let per_matrix = spec.jobs_per_matrix();
    let records: Vec<MatrixAccuracy> = included
        .iter()
        .zip(measured_all)
        .enumerate()
        .map(|(i, (nm, measured))| {
            // Matrix i's reports: method A's sweep, then method B's.
            let reports = &batch.reports[i * per_matrix..(i + 1) * per_matrix];
            let (a, b) = reports.split_at(settings.len());
            debug_assert!(a
                .iter()
                .all(|r| r.method == Method::A && r.matrix == nm.name));
            MatrixAccuracy {
                name: nm.name.clone(),
                measured,
                pred_a: a.iter().map(|r| r.prediction.l2_misses).collect(),
                pred_b: b.iter().map(|r| r.prediction.l2_misses).collect(),
                stats: MatrixStats::compute(&nm.matrix),
            }
        })
        .collect();

    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "L2 sector", "A mean", "A std", "B mean", "B std"
    );
    for (i, setting) in settings.iter().enumerate() {
        let ea = ErrorSummary::from_pairs(
            records
                .iter()
                .map(|r| (r.measured[i] as f64, r.pred_a[i] as f64)),
        );
        let eb = ErrorSummary::from_pairs(
            records
                .iter()
                .map(|r| (r.measured[i] as f64, r.pred_b[i] as f64)),
        );
        let label = match setting {
            SectorSetting::Off => "No Sector Cache".to_string(),
            SectorSetting::L2Ways(w) => format!("{w} L2 ways"),
        };
        println!(
            "{label:<16} {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}%",
            ea.mape, ea.std, eb.mape, eb.std
        );
    }

    // Restricted subset for method (B) without partitioning (§4.5.2/3).
    let friendly: Vec<&MatrixAccuracy> = records
        .iter()
        .filter(|r| r.stats.is_method_b_friendly())
        .collect();
    let eb = ErrorSummary::from_pairs(
        friendly
            .iter()
            .map(|r| (r.measured[0] as f64, r.pred_b[0] as f64)),
    );
    println!(
        "\n# method (B), no partitioning, restricted to mu_K >= 8 and CV_K <= 1 ({} matrices): {}",
        friendly.len(),
        eb
    );
}
