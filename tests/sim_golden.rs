//! Byte-for-byte pin of the A64FX simulator's counters.
//!
//! `valid` compares the simulator against the model inside tolerance
//! bands; this test pins the simulator itself. Every case below is
//! rendered as one line holding the full `PmuSnapshot` debug output, and
//! the lines must equal `tests/golden/sim_pmu.txt` exactly. Any change to
//! cache, prefetcher, replay order or trace generation that moves a
//! single counter shows up here as a changed line.
//!
//! On a mismatch the actual rendering is written to
//! `sim_pmu.actual` under Cargo's integration-test temp directory, so a
//! deliberate counter change can be reviewed with `diff`.

use a64fx::{simulate_spmv, simulate_spmv_partitioned, MachineConfig, PrefetchConfig, SimResult};
use memtrace::ArraySet;
use sparsemat::RowPartition;
use std::fmt::Write as _;

const SCALE: usize = 64;
const GOLDEN: &str = include_str!("golden/sim_pmu.txt");

fn machine(threads: usize, prefetch: bool, sector_ways: usize) -> MachineConfig {
    let mut cfg = MachineConfig::a64fx_scaled(SCALE).with_cores(threads);
    if !prefetch {
        cfg = cfg.with_prefetch(PrefetchConfig::off());
    }
    if sector_ways > 0 {
        cfg = cfg.with_l2_sector(sector_ways);
    }
    cfg
}

fn sector_set(sector_ways: usize) -> ArraySet {
    if sector_ways > 0 {
        ArraySet::MATRIX_STREAM
    } else {
        ArraySet::EMPTY
    }
}

fn line(out: &mut String, label: &str, r: &SimResult) {
    writeln!(
        out,
        "{label} threads={} max_thread_nnz={}: {:?}",
        r.num_threads, r.max_thread_nnz, r.pmu
    )
    .unwrap();
}

fn render() -> String {
    // The three smallest members of a 12-matrix corpus, each a small
    // multiple of one scaled L2 segment: the whole file renders in a few
    // seconds even in the debug test profile.
    let suite: Vec<_> = corpus::corpus(12, SCALE, 2023)
        .into_iter()
        .take(3)
        .collect();
    let mut out = String::new();
    for nm in &suite {
        for threads in [1, 8, 48] {
            for prefetch in [true, false] {
                for ways in [0, 5] {
                    let cfg = machine(threads, prefetch, ways);
                    let r = simulate_spmv(&nm.matrix, &cfg, sector_set(ways), threads, 1);
                    let label = format!("{} pf={prefetch} l2_ways={ways}", nm.name);
                    line(&mut out, &label, &r);
                }
            }
        }
    }

    // The Table-1 comparator's nonzero-balanced partition.
    let m = &suite[0].matrix;
    let partition = RowPartition::balanced_nnz(m, 8);
    let cfg = machine(8, true, 0);
    let r = simulate_spmv_partitioned(m, &cfg, ArraySet::EMPTY, &partition, 1, None);
    line(&mut out, &format!("{} balanced_nnz", suite[0].name), &r);

    // Software x-prefetch 16 gathers ahead, combined with the sector
    // cache (the paper's future-work kernel).
    let m = &suite[1].matrix;
    let partition = RowPartition::static_rows(m.num_rows(), 8);
    let cfg = machine(8, true, 5);
    let r = simulate_spmv_partitioned(m, &cfg, sector_set(5), &partition, 1, Some(16));
    line(
        &mut out,
        &format!("{} swpf=16 l2_ways=5", suite[1].name),
        &r,
    );
    out
}

#[test]
fn simulator_counters_match_golden_file() {
    let actual = render();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_pmu.actual");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "simulator counters drifted from tests/golden/sim_pmu.txt at line {} \
             ({} vs {} lines); actual output written to {}",
            first + 1,
            actual.lines().count(),
            GOLDEN.lines().count(),
            path.display()
        );
    }
}
