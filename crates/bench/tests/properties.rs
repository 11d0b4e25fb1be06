//! Property-based tests for the serving experiment harnesses: E16's
//! kill-and-resume recovery is bit-identical from any crash point, and
//! E14's trace propagation survives arbitrary network faults.

use proptest::prelude::*;

use apdm_bench::{resume_run, run_cell, run_e14_mode, E14Config, E16Config, TraceMode};
use apdm_serve::{Decision, Scheduling, SimDisk};

/// A rotating-ledger crash case: a small Zipf-skewed cell (the property
/// replays it at six scheduling × thread combinations), a rotation budget
/// small enough to force several segments, a retention depth, and the
/// crash position as a percentage through the run's persisted ticks.
fn arb_crash_case() -> impl Strategy<Value = (E16Config, usize)> {
    (
        (0u64..1_000, 2usize..8, 5u64..10, 0u8..3),
        (8usize..20, 0usize..3, 0usize..100),
    )
        .prop_map(
            |((seed, per_tick, arrival_ticks, skew), (budget, keep_sealed, frac))| {
                (
                    E16Config {
                        seed,
                        per_tick,
                        arrival_ticks,
                        zipf: f64::from(skew) * 0.7,
                        budgets: vec![budget],
                        keep_sealed,
                        max_ticks: 2_000,
                        ..E16Config::default()
                    },
                    frac,
                )
            },
        )
}

proptest! {
    /// Crash tolerance is total: kill the service at any persisted tick,
    /// restore from whatever the simulated disk holds (a checkpoint-headed
    /// open segment, or nothing usable at all), and the resumed run — at
    /// worker thread counts {1, 3, 8}, under either scheduling mode, with
    /// cross-shard backpressure on — reseals a byte-identical segmented
    /// ledger and regenerates exactly the golden decision suffix.
    #[test]
    fn checkpoint_restore_resume_is_bit_identical((cfg, frac) in arb_crash_case()) {
        let budget = cfg.budgets[0];
        let mut disk = SimDisk::default();
        let mut snapshots = Vec::new();
        let golden = run_cell(
            cfg.spec(budget),
            cfg.serve_config(budget, Scheduling::Static, 1),
            &cfg.run_name(budget),
            cfg.max_ticks,
            |now, rec| {
                disk.persist(rec);
                snapshots.push((now, disk.clone()));
            },
        );
        prop_assert_eq!(golden.watchdog, None);
        let golden_segments = golden.ledger.to_jsonl_segments();

        let (_, crash_disk) = &snapshots[frac * (snapshots.len() - 1) / 100];
        for sched in [Scheduling::Static, Scheduling::Balanced] {
            for threads in [1usize, 3, 8] {
                let (ledger, decisions, start, _) =
                    resume_run(&cfg, budget, sched, threads, crash_disk);
                prop_assert!(
                    ledger.verify().is_ok(),
                    "resumed ledger corrupt at {:?} x {} threads", sched, threads
                );
                prop_assert_eq!(
                    &golden_segments, &ledger.to_jsonl_segments(),
                    "segment bytes diverged at {:?} x {} threads", sched, threads
                );
                let suffix: Vec<&Decision> = golden
                    .decisions
                    .iter()
                    .filter(|d| d.decided_at >= start)
                    .collect();
                let resumed: Vec<&Decision> = decisions.iter().collect();
                prop_assert_eq!(
                    suffix, resumed,
                    "decision suffix diverged at {:?} x {} threads", sched, threads
                );
            }
        }
    }
}

proptest! {
    /// Trace propagation survives whatever the network throws at it: under
    /// arbitrary loss, duplication, reordering and a mid-run partition,
    /// every delivered message's span parent resolves in the recorded DAG
    /// (causality is never orphaned), every critical path telescopes (the
    /// assertion inside `run_e14_mode`), and the trace stream is
    /// bit-identical across worker thread counts 1/3/8.
    #[test]
    fn trace_propagation_survives_network_faults(
        seed in 0u64..1_000,
        loss in 0.0f64..0.5,
        dup in 0.0f64..0.4,
        reorder in 0.0f64..0.4,
        partition_at in 0u64..12,
    ) {
        let cfg = E14Config {
            seed,
            loss,
            dup,
            reorder,
            // 0..3 → no partition; otherwise a 6-tick partition mid-run.
            partition_at: if partition_at < 3 { 0 } else { partition_at },
            partition_ticks: 6,
            arrival_ticks: 10,
            per_tick: 2,
            max_ticks: 2_000,
            ..E14Config::default()
        };
        let (report, records) = run_e14_mode(&cfg, TraceMode::Full);
        prop_assert_eq!(
            report.unresolved_parents, 0,
            "a delivered message must always name its recorded cause"
        );
        prop_assert_eq!(report.traces, report.offered, "full mode records every trace");
        prop_assert_eq!(report.paths_checked, report.traces);
        prop_assert_eq!(report.completed + report.expired, report.offered);
        for threads in [3usize, 8] {
            let (_, other) = run_e14_mode(
                &E14Config { threads, ..cfg.clone() },
                TraceMode::Full,
            );
            prop_assert_eq!(
                &records, &other,
                "trace stream must be bit-identical at {} threads", threads
            );
        }
    }
}
