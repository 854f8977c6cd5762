//! Property test of the streaming trace pipeline: for arbitrary CSR
//! patterns, thread counts, and sector sweeps, the engine's JSON-lines
//! reports (streaming cursors, marker quantization, parallel domains)
//! must be byte-identical to reports rendered from the seed
//! materialise-then-replay pipeline, and byte-identical across worker
//! counts.

use a64fx::MachineConfig;
use locality_core::{LocalityProfile, Method, SectorSetting};
use locality_engine::{run_on, BatchSpec, Report};
use proptest::prelude::*;
use sparsemat::{CooMatrix, CsrMatrix};
use std::collections::HashMap;

fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (4usize..60)
        .prop_flat_map(|n| {
            let entries = prop::collection::vec((0..n, 0..n), 1..n * 6);
            (Just(n), entries)
        })
        .prop_map(|(n, entries)| {
            let mut coo = CooMatrix::new(n, n);
            for (r, c) in entries {
                coo.push(r, c);
            }
            coo.to_csr()
        })
}

/// A random sector sweep: a deduplicated mix of off and 1..=7 ways.
fn arb_settings() -> impl Strategy<Value = Vec<SectorSetting>> {
    prop::collection::btree_set(0usize..8, 1..5).prop_map(|ways| {
        ways.into_iter()
            .map(|w| {
                if w == 0 {
                    SectorSetting::Off
                } else {
                    SectorSetting::L2Ways(w)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full-engine property the tentpole must uphold: random matrix,
    /// thread count, and sweep; the streaming parallel-domain pipeline's
    /// reports equal the materialised oracle's rendering byte for byte,
    /// for every worker count.
    #[test]
    fn streaming_reports_match_materialized_oracle(
        m in arb_matrix(),
        threads in 1usize..6,
        settings in arb_settings(),
    ) {
        let spec = BatchSpec {
            sources: Vec::new(),
            methods: vec![Method::A, Method::B],
            settings: settings.clone(),
            threads,
            scale: 64,
            workers: 1,
            ..BatchSpec::default()
        };
        let matrices = [("prop", &m)];
        let base = run_on(&spec, &matrices);

        // Worker-count invariance of the whole JSON-lines artifact.
        for workers in [2usize, 5] {
            let spec_w = BatchSpec { workers, ..spec.clone() };
            let got = run_on(&spec_w, &matrices);
            prop_assert_eq!(
                got.to_json_lines(),
                base.to_json_lines(),
                "workers {} diverged",
                workers
            );
        }

        // The oracle: re-derive every prediction on the seed
        // materialise-then-replay pipeline and render it through the same
        // report format. Byte-identical lines mean the streaming path's
        // predictions are bit-identical, not merely close.
        let cfg = MachineConfig::a64fx_scaled(64).with_cores(threads);
        let mut oracles: HashMap<Method, LocalityProfile> = HashMap::new();
        for report in &base.reports {
            let profile = oracles.entry(report.method).or_insert_with(|| {
                LocalityProfile::compute_materialized(&m, &cfg, report.method, threads)
            });
            let prediction = profile.evaluate(&cfg, &[report.setting])[0];
            let oracle = Report {
                prediction,
                ..report.clone()
            };
            prop_assert_eq!(
                oracle.to_json_line(),
                report.to_json_line(),
                "method {:?} setting {:?}",
                report.method,
                report.setting
            );
        }
    }

    /// The streaming profile — marker stacks tracking the sweep's
    /// capacities for method (A), an exact stack for method (B) —
    /// answers identically to the independent exact oracle at the
    /// sweep's settings.
    #[test]
    fn sweep_profile_matches_exact_profile(
        m in arb_matrix(),
        threads in 1usize..5,
        settings in arb_settings(),
    ) {
        let cfg = MachineConfig::a64fx_scaled(64).with_cores(threads);
        for method in [Method::A, Method::B] {
            let exact = LocalityProfile::compute_materialized(&m, &cfg, method, threads);
            let sweep = LocalityProfile::compute(&m, &cfg, method, threads, &settings);
            prop_assert_eq!(
                sweep.evaluate(&cfg, &settings),
                exact.evaluate(&cfg, &settings),
                "method {:?}",
                method
            );
        }
    }

    /// With two cores per domain, 1..=8 threads span one to four L2
    /// domains, so the streaming profile merges per-domain partials whose
    /// pair sets and histograms overlap. A method-(B) profile must equal
    /// the materialised oracle's whole; a method-(A) profile tracks only
    /// its sweep's capacities, so over the machine's full way grid its
    /// predictions and domain shares must.
    #[test]
    fn multi_domain_profile_matches_materialized_oracle(
        m in arb_matrix(),
        threads in 1usize..=8,
    ) {
        let mut cfg = MachineConfig::a64fx_scaled(64).with_cores(threads);
        cfg.cores_per_domain = 2;
        let grid: Vec<SectorSetting> = std::iter::once(SectorSetting::Off)
            .chain((1..cfg.l2.ways).map(SectorSetting::L2Ways))
            .collect();
        for method in [Method::A, Method::B] {
            let streaming = LocalityProfile::compute(&m, &cfg, method, threads, &grid);
            let oracle = LocalityProfile::compute_materialized(&m, &cfg, method, threads);
            prop_assert_eq!(
                streaming.evaluate(&cfg, &grid),
                oracle.evaluate(&cfg, &grid),
                "method {:?}",
                method
            );
            prop_assert_eq!(streaming.domains(), oracle.domains());
            if method == Method::B {
                prop_assert_eq!(streaming, oracle);
            }
        }
    }
}
