//! E14 — distributed causal tracing: what does it cost, and does it pay?
//!
//! The table runs the traced serve scenario (client → lossy network →
//! decision service → back) in the three [`TraceMode`]s and asserts the
//! headline claims on the measured numbers:
//!
//! (a) tracing never changes results: offered/decided/shed/expired are
//!     identical across disabled, sampled and full;
//! (b) sampled tracing is cheap — wall-clock overhead versus disabled
//!     stays under 5% (best of a few attempts, to shrug off scheduler
//!     noise on loaded CI hosts);
//! (c) the traces are *complete*: full mode records every offered request,
//!     every non-root span's parent resolves, and every reconstructed
//!     critical path telescopes (waits sum exactly to the end-to-end tick
//!     latency — asserted per-trace inside `run_e14_mode`).
//!
//! A second identical run must reproduce the report modulo wall-clock —
//! tracing rides the same determinism contract as the ledgers. The full
//! report is written to `BENCH_e14_tracing.json` at the repository root
//! for EXPERIMENTS.md.
//!
//! [`TraceMode`]: apdm_bench::TraceMode

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};

use apdm_bench::{
    assert_reproducible, banner, run_e14, run_e14_mode, E14Config, E14Report, TraceMode, TABLE_SEED,
};

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e14_tracing.json");

/// Wall-clock overhead bound for sampled tracing, as a fraction.
const SAMPLED_OVERHEAD_BOUND: f64 = 0.05;

/// Timing attempts before declaring the overhead bound violated.
const ATTEMPTS: usize = 5;

fn assert_acceptance(report: &E14Report) {
    // (a) observing the run must not change it.
    let disabled = report.mode(TraceMode::Disabled).expect("disabled mode");
    for mode in &report.modes {
        assert_eq!(mode.offered, disabled.offered, "{}: offered", mode.mode);
        assert_eq!(mode.decided, disabled.decided, "{}: decided", mode.mode);
        assert_eq!(mode.shed, disabled.shed, "{}: shed", mode.mode);
        assert_eq!(mode.expired, disabled.expired, "{}: expired", mode.mode);
        assert_eq!(
            mode.completed, disabled.completed,
            "{}: completed",
            mode.mode
        );
        assert_eq!(
            mode.unresolved_parents, 0,
            "{}: every span parent must resolve",
            mode.mode
        );
    }

    // (c) completeness: disabled records nothing, sampled a strict subset,
    // full every request — and every path was reconstructed and checked.
    let sampled = report.mode(TraceMode::Sampled).expect("sampled mode");
    let full = report.mode(TraceMode::Full).expect("full mode");
    assert_eq!(disabled.records, 0, "disabled mode must record nothing");
    assert!(
        sampled.traces > 0 && sampled.traces < full.traces,
        "sampling must keep a strict non-empty subset \
         (sampled={} full={})",
        sampled.traces,
        full.traces
    );
    assert_eq!(
        full.traces, full.offered,
        "full mode must record every request"
    );
    assert_eq!(full.paths_checked, full.traces);
    assert!(
        full.retries > 0 && full.dedup_dropped > 0,
        "the lossy network must exercise retries and dedup \
         (retries={} dedup={})",
        full.retries,
        full.dedup_dropped
    );
}

fn print_table() {
    banner(
        "E14",
        "distributed tracing: causal propagation, critical paths, overhead",
    );
    let cfg = E14Config {
        seed: TABLE_SEED,
        ..E14Config::default()
    };

    // (b) timing is the one non-deterministic acceptance: take the best
    // sampled-mode overhead over a few attempts so one preempted run does
    // not fail the harness, and report the attempt that passed.
    let mut report = run_e14(&cfg);
    for attempt in 1..ATTEMPTS {
        if report.overhead_sampled < SAMPLED_OVERHEAD_BOUND {
            break;
        }
        println!(
            "attempt {attempt}: sampled overhead {:.3} over bound, retrying",
            report.overhead_sampled
        );
        let rerun = run_e14(&cfg);
        if rerun.overhead_sampled < report.overhead_sampled {
            report = rerun;
        }
    }

    println!(
        "{:<9} {:>8} {:>9} {:>8} {:>8} {:>7} {:>8} {:>9} {:>10}",
        "mode",
        "offered",
        "completed",
        "retries",
        "records",
        "traces",
        "maxpath",
        "dominant",
        "wall ms"
    );
    for m in &report.modes {
        println!(
            "{:<9} {:>8} {:>9} {:>8} {:>8} {:>7} {:>8} {:>9} {:>10.2}",
            m.mode,
            m.offered,
            m.completed,
            m.retries,
            m.records,
            m.traces,
            m.max_path_ticks,
            m.dominant_hop,
            m.wall_ns as f64 / 1e6,
        );
    }
    println!(
        "overhead vs disabled: sampled {:+.3}, full {:+.3}",
        report.overhead_sampled, report.overhead_full
    );

    assert_acceptance(&report);
    assert!(
        report.overhead_sampled < SAMPLED_OVERHEAD_BOUND,
        "E14: sampled tracing overhead {:.3} exceeds {SAMPLED_OVERHEAD_BOUND} \
         in every attempt",
        report.overhead_sampled
    );

    // Determinism acceptance: a second sweep reproduces everything but the
    // wall clock.
    assert_reproducible("E14", &report, || run_e14(&cfg));
    println!("determinism: second run identical modulo wall-clock");

    match apdm_bench::write_report(REPORT_PATH, &report) {
        Ok(()) => println!("report written to BENCH_e14_tracing.json"),
        Err(e) => println!("{e}"),
    }
    println!();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_tracing");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let cfg = E14Config {
        seed: TABLE_SEED,
        ..E14Config::smoke()
    };
    for mode in TraceMode::all() {
        group.bench_with_input(BenchmarkId::new("mode", mode.label()), &mode, |b, &m| {
            b.iter(|| run_e14_mode(&cfg, m));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_table();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
