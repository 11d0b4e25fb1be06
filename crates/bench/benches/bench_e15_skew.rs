//! E15 — the device-skew × scheduling sweep. The table crosses Zipf skew ×
//! {static, balanced} shard scheduling × worker threads (cross-shard
//! admission backpressure on everywhere) and asserts the headline claims
//! on the measured numbers:
//!
//! (a) under skew ≥ Zipf(1.0), balanced (deterministic work-stealing)
//!     scheduling reduces the hot shard's p99 virtual queue wait versus
//!     static contiguous scheduling, at every thread count;
//! (b) determinism survives the optimization: for each skew point, every
//!     {scheduling × threads} cell seals a **digest-identical** ledger;
//! (c) overload never weakens safety: zero shed-allows in every cell, and
//!     every offered request is accounted for (decided + shed = offered);
//! (d) backpressure engages on the skewed points (deferrals > 0 at the
//!     top skew) and the virtual schedule actually steals there.
//!
//! The sweep runs **twice** and the normalized reports must be identical —
//! the determinism acceptance for chunking, steal order, the virtual wait
//! overlay, and backpressure together. The full report is written to
//! `BENCH_e15_skew.json` at the repository root for EXPERIMENTS.md.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};

use apdm_bench::{
    assert_reproducible, banner, run_e15, run_e15_cell, E15Config, E15Report, TABLE_SEED,
};
use apdm_serve::Scheduling;

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e15_skew.json");

fn assert_acceptance(report: &E15Report) {
    let cfg = &report.config;

    // (c) fail-closed and fully accounted, in every cell.
    for cell in &report.cells {
        let label = format!("zipf={} {} t={}", cell.zipf, cell.sched, cell.threads);
        assert_eq!(cell.watchdog, None, "{label}: watchdog tripped");
        assert_eq!(cell.shed_allows, 0, "{label}: a shed request was allowed");
        assert_eq!(
            cell.decided + cell.shed,
            cell.offered,
            "{label}: requests lost"
        );
    }

    // (b) one ledger per skew point: digest identical across scheduling
    // modes and thread counts.
    for &zipf in &cfg.zipfs {
        let digests: Vec<u64> = report
            .cells
            .iter()
            .filter(|c| c.zipf == zipf)
            .map(|c| c.ledger_digest)
            .collect();
        assert!(!digests.is_empty(), "zipf={zipf}: no cells");
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "zipf={zipf}: ledger digests diverged across sched/threads ({digests:?})"
        );
    }

    // (a) balanced beats static on hot-shard p99 virtual wait wherever the
    // skew is strong enough to matter.
    for &zipf in cfg.zipfs.iter().filter(|&&z| z >= 1.0) {
        for &threads in &cfg.threads_sweep {
            let stat = report
                .cell(zipf, Scheduling::Static, threads)
                .expect("static cell");
            let bal = report
                .cell(zipf, Scheduling::Balanced, threads)
                .expect("balanced cell");
            assert!(
                bal.hot_p99_wait < stat.hot_p99_wait,
                "zipf={zipf} t={threads}: balanced hot p99 wait {} must beat static {}",
                bal.hot_p99_wait,
                stat.hot_p99_wait
            );
            if threads > 1 {
                // A lone worker has nowhere to steal from; the balanced
                // schedule degenerates to LPT ordering on one worker.
                assert!(
                    bal.virtual_steals > 0,
                    "zipf={zipf} t={threads}: balanced cell never stole"
                );
            }
            assert_eq!(
                stat.virtual_steals, 0,
                "zipf={zipf} t={threads}: static cell must not steal"
            );
        }
    }

    // (d) the top skew point trips cross-shard backpressure.
    let top = cfg.zipfs.iter().cloned().fold(f64::MIN, f64::max);
    for cell in report.cells.iter().filter(|c| c.zipf == top) {
        assert!(
            cell.deferrals > 0,
            "zipf={top} {} t={}: hot shard never deferred",
            cell.sched,
            cell.threads
        );
    }
}

fn print_table() {
    banner(
        "E15",
        "serving: skew-aware sharded scheduling (deterministic work stealing)",
    );
    let cfg = E15Config {
        seed: TABLE_SEED,
        ..E15Config::default()
    };
    let report = run_e15(&cfg);

    println!(
        "{:<6} {:<9} {:>3} {:>8} {:>7} {:>7} {:>6} {:>9} {:>9} {:>9} {:>7} {:>18}",
        "zipf",
        "sched",
        "t",
        "decided",
        "shed",
        "defer",
        "hot%",
        "hotP50w",
        "hotP99w",
        "makespan",
        "steals",
        "ledger"
    );
    for c in &report.cells {
        println!(
            "{:<6} {:<9} {:>3} {:>8} {:>7} {:>7} {:>6.3} {:>9} {:>9} {:>9} {:>7} {:>18x}",
            c.zipf,
            c.sched,
            c.threads,
            c.decided,
            c.shed,
            c.deferrals,
            c.hot_share,
            c.hot_p50_wait,
            c.hot_p99_wait,
            c.makespan_units,
            c.virtual_steals,
            c.ledger_digest,
        );
    }

    assert_acceptance(&report);

    // Determinism acceptance: a second identical sweep must reproduce the
    // report once wall-clock fields are stripped.
    assert_reproducible("E15", &report, || run_e15(&cfg));
    println!("\ndeterminism: second sweep identical modulo wall-clock");

    match apdm_bench::write_report(REPORT_PATH, &report) {
        Ok(()) => println!("report written to BENCH_e15_skew.json"),
        Err(e) => println!("{e}"),
    }
    println!();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_skew");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let cfg = E15Config {
        seed: TABLE_SEED,
        arrival_ticks: 60,
        ..E15Config::default()
    };
    for (sched, threads) in [
        (Scheduling::Static, 3),
        (Scheduling::Balanced, 3),
        (Scheduling::Balanced, 8),
    ] {
        group.bench_with_input(
            BenchmarkId::new("cell", format!("zipf=1.2/{}/t={threads}", sched.label())),
            &(sched, threads),
            |b, &(s, t)| {
                b.iter(|| run_e15_cell(&cfg, 1.2, s, t));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_table();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
