//! E16 — kill-and-resume crash tolerance of the decision service. The
//! table crosses rotation budget × {static, balanced} scheduling; each
//! cell runs one golden (uninterrupted) run, then simulates a SIGKILL at
//! every swept crash point — tick boundaries and torn-write byte offsets
//! inside segment files, anchor frames included — restores from the
//! latest valid checkpoint, replays the suffix at rotating worker thread
//! counts {1, 3, 8}, and diffs against the golden run. Asserted claims:
//!
//! (a) zero divergence: for **every** crash point, the resumed run's
//!     decision suffix and sealed segment bytes are identical to golden;
//! (b) zero verification failures: every resumed ledger passes the full
//!     segment-chain + anchor check, retention pruning included;
//! (c) bounded recovery: no crash point discards (and therefore replays)
//!     more than ~two segments' worth of records, independent of run
//!     length — the point of rotation;
//! (d) the checkpoint machinery never leaks into results: for each
//!     budget, the static and balanced golden runs seal digest-identical
//!     ledgers, and rotation actually fired (every cell holds > 1
//!     segment) with retention engaged (segments were pruned).
//!
//! The sweep runs **twice** and the normalized reports must be identical.
//! The full report is written to `BENCH_e16_crash.json` at the repository
//! root for EXPERIMENTS.md.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};

use apdm_bench::{
    assert_reproducible, banner, run_e16, run_e16_cell, E16Config, E16Report, TABLE_SEED,
};
use apdm_serve::Scheduling;

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e16_crash.json");

fn assert_acceptance(report: &E16Report) {
    let cfg = &report.config;
    for cell in &report.cells {
        let label = format!("budget={} {}", cell.budget, cell.sched);
        // (a) zero divergence across every crash point.
        assert!(cell.crash_points > 0, "{label}: no crash points swept");
        assert!(cell.torn_points > 0, "{label}: no torn writes swept");
        assert_eq!(
            cell.divergences, 0,
            "{label}: resumed run diverged — {:?}",
            cell.first_divergence
        );
        // (b) every resumed ledger verifies end to end.
        assert_eq!(cell.verify_failures, 0, "{label}: resumed ledger corrupt");
        // (c) recovery work is bounded by the rotation budget.
        assert_eq!(
            cell.unbounded_recoveries, 0,
            "{label}: recovery discarded {} records, bound {}",
            cell.max_discarded, cell.discard_bound
        );
        assert!(
            cell.max_discarded <= cell.discard_bound,
            "{label}: max discarded {} exceeds bound {}",
            cell.max_discarded,
            cell.discard_bound
        );
        // (d) rotation and retention actually exercised.
        assert!(cell.segments > 1, "{label}: budget never rotated");
        if cfg.keep_sealed > 0 {
            assert!(cell.pruned > 0, "{label}: retention never pruned");
        }
        assert_eq!(
            cell.decided + cell.shed,
            cell.offered,
            "{label}: requests lost"
        );
    }
    // (d) the golden ledger is scheduling-invariant per budget.
    for &budget in &cfg.budgets {
        let heads: Vec<u64> = report
            .cells
            .iter()
            .filter(|c| c.budget == budget)
            .map(|c| c.final_head)
            .collect();
        assert!(
            heads.windows(2).all(|w| w[0] == w[1]),
            "budget={budget}: golden head digests diverged across scheduling ({heads:?})"
        );
    }
}

fn print_table() {
    banner(
        "E16",
        "serving: kill-and-resume crash tolerance (checkpoint/restore + segment rotation)",
    );
    let cfg = E16Config {
        seed: TABLE_SEED,
        ..E16Config::default()
    };
    let report = run_e16(&cfg);

    println!(
        "{:<7} {:<9} {:>7} {:>6} {:>7} {:>7} {:>8} {:>6} {:>7} {:>9} {:>18}",
        "budget",
        "sched",
        "kills",
        "torn",
        "diverge",
        "badver",
        "maxdisc",
        "segs",
        "pruned",
        "records",
        "head"
    );
    for c in &report.cells {
        println!(
            "{:<7} {:<9} {:>7} {:>6} {:>7} {:>7} {:>8} {:>6} {:>7} {:>9} {:>18x}",
            c.budget,
            c.sched,
            c.crash_points,
            c.torn_points,
            c.divergences,
            c.verify_failures,
            c.max_discarded,
            c.segments,
            c.pruned,
            c.ledger_records,
            c.final_head,
        );
    }

    assert_acceptance(&report);

    // Determinism acceptance: a second identical sweep must reproduce the
    // report once wall-clock fields are stripped.
    assert_reproducible("E16", &report, || run_e16(&cfg));
    println!("\ndeterminism: second sweep identical modulo wall-clock");

    match apdm_bench::write_report(REPORT_PATH, &report) {
        Ok(()) => println!("report written to BENCH_e16_crash.json"),
        Err(e) => println!("{e}"),
    }
    println!();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_crash");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let cfg = E16Config {
        seed: TABLE_SEED,
        ..E16Config::smoke()
    };
    for sched in [Scheduling::Static, Scheduling::Balanced] {
        group.bench_with_input(
            BenchmarkId::new(
                "cell",
                format!(
                    "budget=24/{}",
                    if sched == Scheduling::Static {
                        "static"
                    } else {
                        "balanced"
                    }
                ),
            ),
            &sched,
            |b, &s| {
                b.iter(|| run_e16_cell(&cfg, 24, s));
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
