//! E13 — the serving-layer load sweep. The table crosses offered load ×
//! {batching, verdict cache, shedding} and asserts the three headline
//! claims on the measured numbers:
//!
//! (a) micro-batching raises throughput over unbatched at the highest
//!     offered load (amortized dispatch overhead);
//! (b) shedding is inert at the lowest load (rate 0) and engages
//!     monotonically — strictly increasing once the queue bound binds;
//! (c) overload never weakens safety: every shed request resolves to a
//!     denial, in every cell.
//!
//! The sweep also runs **twice** and asserts the two reports are identical
//! after stripping wall-clock fields — the determinism acceptance for the
//! whole serving stack (admission, DRR, batching, sharded evaluation,
//! memo caches, ledgers). The full report is written to
//! `BENCH_e13_serve.json` at the repository root for EXPERIMENTS.md.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};

use apdm_bench::{
    assert_reproducible, banner, run_e13, run_e13_cell, E13Config, E13Report, Knobs, TABLE_SEED,
};

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e13_serve.json");

fn assert_acceptance(report: &E13Report) {
    let loads = &report.config.loads;
    let lowest = *loads.first().expect("non-empty sweep");
    let highest = *loads.last().expect("non-empty sweep");

    // (c) fail-closed everywhere, and full accounting: every cell resolves
    // every offered request, and no shed ever permits execution.
    for cell in &report.cells {
        assert_eq!(cell.watchdog, None, "{}: watchdog tripped", cell.label);
        assert_eq!(
            cell.shed_allows, 0,
            "{} load={}: a shed request was allowed",
            cell.label, cell.load
        );
        assert_eq!(
            cell.decided + cell.shed,
            cell.offered,
            "{} load={}: requests lost",
            cell.label,
            cell.load
        );
        if !cell.shedding {
            assert_eq!(
                cell.shed, 0,
                "{} load={}: shedding-off cell refused work",
                cell.label, cell.load
            );
        }
    }

    // (a) batching beats unbatched at the highest offered load, cache on
    // or off (shedding on, so both serve at their sustainable rate).
    for cache in [true, false] {
        let batched = report
            .cell(
                highest,
                Knobs {
                    batching: true,
                    cache,
                    shedding: true,
                },
            )
            .expect("batched cell");
        let unbatched = report
            .cell(
                highest,
                Knobs {
                    batching: false,
                    cache,
                    shedding: true,
                },
            )
            .expect("unbatched cell");
        assert!(
            batched.throughput > unbatched.throughput,
            "E13 load={highest} cache={cache}: batching must raise throughput \
             (batched={:.2} unbatched={:.2})",
            batched.throughput,
            unbatched.throughput
        );
    }

    // (b) shed-rate curves: zero at the lowest load, non-zero at the
    // highest, monotone along the sweep and strictly increasing once the
    // queue bound binds — for every shedding-on configuration.
    for batching in [true, false] {
        for cache in [true, false] {
            let knobs = Knobs {
                batching,
                cache,
                shedding: true,
            };
            let curve: Vec<f64> = loads
                .iter()
                .map(|&l| report.cell(l, knobs).expect("cell present").shed_rate)
                .collect();
            let label = knobs.label();
            assert_eq!(
                curve[0], 0.0,
                "{label}: must not shed at load {lowest} (curve {curve:?})"
            );
            assert!(
                *curve.last().unwrap() > 0.0,
                "{label}: must shed at load {highest} (curve {curve:?})"
            );
            for w in curve.windows(2) {
                assert!(
                    w[1] >= w[0],
                    "{label}: shed rate decreased along the sweep (curve {curve:?})"
                );
                if w[0] > 0.0 {
                    assert!(
                        w[1] > w[0],
                        "{label}: shed rate must keep rising once the bound binds \
                         (curve {curve:?})"
                    );
                }
            }
        }
    }
}

fn print_table() {
    banner(
        "E13",
        "serving: micro-batching decision service under load (VI at fleet scale)",
    );
    let cfg = E13Config {
        seed: TABLE_SEED,
        ..E13Config::default()
    };
    let report = run_e13(&cfg);
    report.print_table();

    assert_acceptance(&report);

    // Determinism acceptance: a second identical sweep must reproduce the
    // report once wall-clock fields are stripped.
    assert_reproducible("E13", &report, || run_e13(&cfg));
    println!("\ndeterminism: second sweep identical modulo wall-clock");

    match apdm_bench::write_report(REPORT_PATH, &report) {
        Ok(()) => println!("report written to BENCH_e13_serve.json"),
        Err(e) => println!("{e}"),
    }
    println!();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_serve");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let cfg = E13Config {
        seed: TABLE_SEED,
        arrival_ticks: 60,
        ..E13Config::default()
    };
    for knobs in [
        Knobs {
            batching: true,
            cache: true,
            shedding: true,
        },
        Knobs {
            batching: false,
            cache: true,
            shedding: true,
        },
        Knobs {
            batching: true,
            cache: false,
            shedding: true,
        },
    ] {
        group.bench_with_input(
            BenchmarkId::new("cell", format!("load=64/{}", knobs.label())),
            &knobs,
            |b, &k| {
                b.iter(|| run_e13_cell(&cfg, 64, k));
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
