//! Experiment E16: kill-and-resume fault injection for the serving layer.
//!
//! The crash-tolerance claim is strong: SIGKILL the decision service at
//! *any* point — a batch boundary, or halfway through writing a segment
//! file to disk — restore from the latest valid checkpoint, replay the
//! suffix, and the resumed run's decision stream and sealed ledger are
//! **bit-identical** to an uninterrupted run, at any worker thread count.
//! This module is the harness that sweeps that claim over the recovery
//! code in `apdm-serve` ([`recover_segments`]).
//!
//! The kill is simulated, not delivered: a [`SimDisk`] snapshots the
//! recorder's segment files after every tick, and a crash at tick `t` (or
//! at byte offset `b` inside the last file) is modeled by handing recovery
//! exactly the bytes a killed process would have left behind. That keeps
//! the sweep deterministic and lets one golden run serve hundreds of
//! crash points.
//!
//! Recovery work is bounded by the rotation budget: a crash never forces
//! replay of more than roughly two segments' worth of records (asserted
//! per crash point by `bench_e16_crash`). The golden run of each cell goes
//! through [`run_cell`]; resumed runs drive the restored service with
//! [`run_to_completion`].
//!
//! Swept per cell: rotation budget × {static, balanced} scheduling; per
//! cell: every `crash_stride`-th tick boundary, plus torn-write byte
//! offsets through segment-head frames at rotation ticks and through the
//! final record line elsewhere. Resumed services cycle worker thread
//! counts {1, 3, 8} to prove the checkpoint is thread-portable.

use std::time::Instant;

use apdm_ledger::{RotationPolicy, SegmentedLedger, SegmentedRecorder};
use apdm_par::{par_map, resolve_threads};
use apdm_serve::{
    recover_segments, run_to_completion, standard_stacks, Decision, PolicyDecisionService,
    Recovery, Scheduling, ServeConfig, SimDisk, WorkloadGen, WorkloadOracle, WorkloadSpec,
};
use apdm_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::cell::{build_service, run_cell, CellRun};

/// Sweep configuration for experiment E16.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E16Config {
    /// Master seed (workload streams derive from it and the budget).
    pub seed: u64,
    /// Offered load (requests per tick).
    pub per_tick: usize,
    /// Ticks during which the generator offers requests.
    pub arrival_ticks: u64,
    /// Device population.
    pub devices: u64,
    /// Tenants multiplexed onto the service.
    pub tenants: u32,
    /// Shards (= guard stacks) per service instance.
    pub shards: usize,
    /// Zipf exponent of the device draw (skew keeps backpressure busy, so
    /// deferral state is exercised across the crash).
    pub zipf: f64,
    /// Rotation budgets to sweep (records per segment).
    pub budgets: Vec<usize>,
    /// Sealed segments retained by rotation (0 = keep everything).
    pub keep_sealed: usize,
    /// Test every this-many-th tick as a kill point.
    pub crash_stride: u64,
    /// Byte stride of the torn-write sweep through segment files.
    pub torn_stride: usize,
    /// Maximum torn-write cuts sampled per rotation-tick disk image. Cuts
    /// are spread evenly across the newest file, the first landing inside
    /// the anchor frame itself; the cap matters because checkpoint frames
    /// grow with the memo cache, and an unbounded per-byte sweep would
    /// quadratically dominate the cell. (The genuinely every-byte-offset
    /// boundary sweep lives in `apdm-ledger`'s property tests.)
    pub torn_cuts: usize,
    /// Threads for the cell fan-out (0 = auto); resumed services cycle
    /// their own worker counts through {1, 3, 8} regardless.
    pub threads: usize,
    /// Watchdog budget in ticks per run.
    pub max_ticks: u64,
}

impl Default for E16Config {
    fn default() -> Self {
        E16Config {
            seed: 42,
            per_tick: 8,
            arrival_ticks: 80,
            devices: 64,
            tenants: 4,
            shards: 8,
            zipf: 0.8,
            budgets: vec![16, 64],
            keep_sealed: 3,
            crash_stride: 2,
            torn_stride: 13,
            torn_cuts: 12,
            threads: 0,
            max_ticks: 4_000,
        }
    }
}

impl E16Config {
    /// A fast configuration for CI smoke runs.
    pub fn smoke() -> Self {
        E16Config {
            arrival_ticks: 32,
            budgets: vec![24],
            crash_stride: 4,
            torn_stride: 41,
            torn_cuts: 6,
            max_ticks: 2_000,
            ..E16Config::default()
        }
    }

    /// The workload driving one budget cell. Depends only on
    /// `(seed, budget)` — never on scheduling — so the static and
    /// balanced cells at a budget replay the identical request stream and
    /// must seal byte-identical ledgers.
    pub fn spec(&self, budget: usize) -> WorkloadSpec {
        WorkloadSpec {
            seed: self.seed ^ (budget as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            per_tick: self.per_tick,
            arrival_ticks: self.arrival_ticks,
            devices: self.devices,
            tenants: self.tenants,
            zipf: self.zipf,
            ..WorkloadSpec::default()
        }
    }

    /// The service configuration of one cell (worker threads aside).
    pub fn serve_config(&self, budget: usize, sched: Scheduling, threads: usize) -> ServeConfig {
        ServeConfig {
            seed: self.spec(budget).seed,
            threads,
            shards: self.shards,
            cache: true,
            scheduling: sched,
            backpressure: true,
            rotation: Some(RotationPolicy {
                max_records: budget,
                max_bytes: 0,
                keep_sealed: self.keep_sealed,
            }),
            ..ServeConfig::default()
        }
    }

    /// Recovery-work bound asserted per crash point: recovery may discard
    /// (and replay must regenerate) at most two segments' worth of
    /// records plus one tick's in-flight slack — independent of run
    /// length, which is the point of rotation.
    pub fn discard_bound(&self, budget: usize) -> u64 {
        2 * (budget as u64
            + self.per_tick as u64
            + ServeConfig::default().admission.capacity as u64)
            + 8
    }

    /// The ledger name of one budget cell — shared by golden and resumed
    /// runs, and deliberately free of scheduling/thread/crash parameters.
    pub fn run_name(&self, budget: usize) -> String {
        format!("e16/b{budget}")
    }
}

/// Measurements of one E16 cell (one budget × scheduling mode).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E16CellReport {
    /// Rotation budget (records per segment).
    pub budget: usize,
    /// `static` or `balanced`.
    pub sched: String,
    /// Tick-boundary kill points tested.
    pub crash_points: u64,
    /// Torn-write byte-offset kill points tested.
    pub torn_points: u64,
    /// Crash points whose resumed run diverged from golden — must be 0.
    pub divergences: u64,
    /// Resumed ledgers that failed verification — must be 0.
    pub verify_failures: u64,
    /// Crash points whose discarded-record count exceeded the bound —
    /// must be 0.
    pub unbounded_recoveries: u64,
    /// Largest discarded-record count over all crash points.
    pub max_discarded: u64,
    /// The bound `max_discarded` is held to.
    pub discard_bound: u64,
    /// Human-readable locator of the first divergence, if any.
    pub first_divergence: Option<String>,
    /// Segments in the golden run's sealed ledger.
    pub segments: u64,
    /// Segments pruned by retention in the golden run.
    pub pruned: u64,
    /// Total records across the golden run's retained segments.
    pub ledger_records: u64,
    /// Head digest of the golden run's final segment. Identical across
    /// scheduling modes for a fixed budget.
    pub final_head: u64,
    /// Requests offered by the generator.
    pub offered: u64,
    /// Requests evaluated by a guard stack.
    pub decided: u64,
    /// Requests refused (all reasons).
    pub shed: u64,
    /// Wall-clock for the cell. Not part of the determinism contract.
    pub wall_ns: u64,
}

/// The full E16 sweep report (serialized to `BENCH_e16_crash.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E16Report {
    /// The sweep configuration.
    pub config: E16Config,
    /// One report per budget × scheduling cell, budget outer, static
    /// before balanced.
    pub cells: Vec<E16CellReport>,
    /// Wall-clock for the whole sweep. Not deterministic.
    pub wall_ns: u64,
}

/// The golden (uninterrupted) run of one cell, with its per-tick disk
/// snapshots — the crash points.
struct GoldenRun {
    run: CellRun,
    segments: Vec<(u64, String)>,
    snapshots: Vec<(u64, SimDisk)>,
}

fn golden_run(cfg: &E16Config, budget: usize, sched: Scheduling) -> GoldenRun {
    let mut disk = SimDisk::default();
    let mut snapshots = Vec::new();
    let run = run_cell(
        cfg.spec(budget),
        cfg.serve_config(budget, sched, 1),
        &cfg.run_name(budget),
        cfg.max_ticks,
        |now, rec| {
            disk.persist(rec);
            snapshots.push((now, disk.clone()));
        },
    );
    if let Some(trip) = run.watchdog {
        panic!("{}: golden run: {trip}", cfg.run_name(budget));
    }
    GoldenRun {
        segments: run.ledger.to_jsonl_segments(),
        run,
        snapshots,
    }
}

/// Recover from `disk`, replay to completion at `threads` workers, and
/// return the resumed run's sealed segments, its full regenerated decision
/// stream, the tick replay started at (1 when recovery had to restart),
/// and the discarded-record count.
pub fn resume_run(
    cfg: &E16Config,
    budget: usize,
    sched: Scheduling,
    threads: usize,
    disk: &SimDisk,
) -> (SegmentedLedger, Vec<Decision>, u64, u64) {
    let serve_cfg = cfg.serve_config(budget, sched, threads);
    let policy = serve_cfg.rotation.expect("E16 always rotates");
    let mut gen = WorkloadGen::new(cfg.spec(budget));
    let (mut svc, start, discarded) = match recover_segments(disk) {
        Recovery::Resume {
            checkpoint,
            sealed,
            current,
            discarded,
        } => {
            let recorder = SegmentedRecorder::resume(policy, sealed, current);
            let svc = PolicyDecisionService::restore(
                serve_cfg,
                standard_stacks(cfg.shards, true),
                WorkloadOracle,
                &checkpoint,
                recorder,
            );
            // The workload stream is a pure function of consecutive tick
            // draws: burn the prefix the crashed process already consumed.
            for t in 1..=checkpoint.tick {
                let _ = gen.tick_requests(t);
            }
            (svc, checkpoint.tick + 1, discarded)
        }
        Recovery::Restart { discarded } => (
            build_service(serve_cfg, &cfg.run_name(budget)),
            1,
            discarded,
        ),
    };
    let done = run_to_completion(&mut svc, &mut gen, start, cfg.max_ticks, |_, _| {});
    if let Some(trip) = done.watchdog {
        panic!("{}: resume from tick {start}: {trip}", cfg.run_name(budget));
    }
    let (ledger, _) = svc.finish_segmented(done.final_tick);
    (ledger, done.decisions, start, discarded)
}

/// Locate the first differing record between golden and resumed segment
/// files, for the report's `first_divergence` field.
fn locate_divergence(golden: &[(u64, String)], resumed: &[(u64, String)]) -> String {
    if golden.len() != resumed.len() {
        return format!(
            "segment count differs: golden {} vs resumed {}",
            golden.len(),
            resumed.len()
        );
    }
    for ((gi, gt), (ri, rt)) in golden.iter().zip(resumed) {
        if gi != ri {
            return format!("segment index differs: golden {gi} vs resumed {ri}");
        }
        if gt != rt {
            let replayer = apdm_ledger::StreamReplayer::from_origin();
            return match replayer.compare_lines(gt.lines(), rt.lines()) {
                Ok(report) if report.divergence.is_some() => format!("segment {gi}: {report}"),
                Ok(_) => format!("segment {gi}: byte-level difference only"),
                Err(e) => format!("segment {gi}: unparseable during diff: {e}"),
            };
        }
    }
    "streams equal (divergence was in decisions)".to_string()
}

/// One crash point's verdict, folded into the cell report.
struct CrashOutcome {
    diverged: Option<String>,
    verify_failed: bool,
    discarded: u64,
}

fn check_crash_point(
    cfg: &E16Config,
    budget: usize,
    sched: Scheduling,
    threads: usize,
    disk: &SimDisk,
    golden: &GoldenRun,
) -> CrashOutcome {
    let (ledger, decisions, start, discarded) = resume_run(cfg, budget, sched, threads, disk);
    let verify_failed = ledger.verify().is_err();
    let resumed_segments = ledger.to_jsonl_segments();
    let mut diverged = None;
    if resumed_segments != golden.segments {
        diverged = Some(locate_divergence(&golden.segments, &resumed_segments));
    } else {
        let golden_suffix: Vec<&Decision> = golden
            .run
            .decisions
            .iter()
            .filter(|d| d.decided_at >= start)
            .collect();
        let resumed: Vec<&Decision> = decisions.iter().collect();
        if golden_suffix != resumed {
            diverged = Some(format!(
                "decision suffix from tick {start} differs: golden {} vs resumed {} decisions",
                golden_suffix.len(),
                resumed.len()
            ));
        }
    }
    CrashOutcome {
        diverged,
        verify_failed,
        discarded,
    }
}

/// Run one E16 cell: one golden run, then every kill point swept against
/// it. Returns the report plus the golden sealed segments (the CLI writes
/// them out for the byte-for-byte CI comparison).
pub fn run_e16_cell(
    cfg: &E16Config,
    budget: usize,
    sched: Scheduling,
) -> (E16CellReport, SegmentedLedger) {
    let started = Instant::now();
    let golden = golden_run(cfg, budget, sched);
    let bound = cfg.discard_bound(budget);
    let resume_threads = [1usize, 3, 8];

    let mut outcomes: Vec<CrashOutcome> = Vec::new();
    let mut crash_points = 0u64;
    let mut torn_points = 0u64;

    // Kill at every crash_stride-th tick boundary (always including the
    // very first and last persisted ticks).
    for (i, (tick, disk)) in golden.snapshots.iter().enumerate() {
        let last = i + 1 == golden.snapshots.len();
        if !last && i != 0 && !tick.is_multiple_of(cfg.crash_stride) {
            continue;
        }
        crash_points += 1;
        let threads = resume_threads[i % resume_threads.len()];
        outcomes.push(check_crash_point(
            cfg, budget, sched, threads, disk, &golden,
        ));
    }

    // Kill mid-write: at rotation ticks the newest file holds exactly the
    // two header frames — tear it at every torn_stride-th byte so the
    // anchor itself is the casualty and recovery must fall back a
    // segment. Elsewhere, tear into the final record line (a half-written
    // decision record).
    for (i, (_, disk)) in golden.snapshots.iter().enumerate() {
        let len = disk.last_len();
        if len == 0 {
            continue;
        }
        let offsets: Vec<usize> = if disk.last_records() == 2 {
            let stride = (len / cfg.torn_cuts.max(1)).max(cfg.torn_stride.max(1));
            (1..len).step_by(stride).collect()
        } else if i.is_multiple_of(3) {
            // Sampled mid-segment tears: clip the tail of the last line.
            let tail_start = disk
                .files()
                .values()
                .next_back()
                .map_or(0, |t| t.trim_end().rfind('\n').map_or(0, |p| p + 1));
            (tail_start + 1..len)
                .step_by(cfg.torn_stride.max(1))
                .take(2)
                .collect()
        } else {
            Vec::new()
        };
        for cut in offsets {
            torn_points += 1;
            let mut torn = disk.clone();
            torn.tear_last(cut);
            let threads = resume_threads[cut % resume_threads.len()];
            outcomes.push(check_crash_point(
                cfg, budget, sched, threads, &torn, &golden,
            ));
        }
    }

    let divergences = outcomes.iter().filter(|o| o.diverged.is_some()).count() as u64;
    let verify_failures = outcomes.iter().filter(|o| o.verify_failed).count() as u64;
    let max_discarded = outcomes.iter().map(|o| o.discarded).max().unwrap_or(0);
    let unbounded_recoveries = outcomes.iter().filter(|o| o.discarded > bound).count() as u64;
    let first_divergence = outcomes.iter().find_map(|o| o.diverged.clone());

    let report = E16CellReport {
        budget,
        sched: sched.label().to_string(),
        crash_points,
        torn_points,
        divergences,
        verify_failures,
        unbounded_recoveries,
        max_discarded,
        discard_bound: bound,
        first_divergence,
        segments: golden.run.ledger.segments().len() as u64,
        pruned: golden.run.ledger.pruned_count(),
        ledger_records: golden.run.ledger.total_records() as u64,
        final_head: golden.run.ledger.head_digest(),
        offered: golden.run.offered,
        decided: golden.run.stats.decided,
        shed: golden.run.stats.shed_total(),
        wall_ns: telemetry::elapsed_ns(started),
    };
    (report, golden.run.ledger)
}

/// Run the full E16 sweep: every budget × {static, balanced}, fanned out
/// across the worker pool with order-preserving collection.
pub fn run_e16(cfg: &E16Config) -> E16Report {
    let started = Instant::now();
    let cells: Vec<(usize, Scheduling)> = cfg
        .budgets
        .iter()
        .flat_map(|&b| {
            [Scheduling::Static, Scheduling::Balanced]
                .into_iter()
                .map(move |s| (b, s))
        })
        .collect();
    let threads = resolve_threads(cfg.threads);
    let cells = par_map(threads, cells, |_, (budget, sched)| {
        run_e16_cell(cfg, budget, sched).0
    });
    E16Report {
        config: cfg.clone(),
        cells,
        wall_ns: telemetry::elapsed_ns(started),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_ledger::RunEvent;

    fn tiny() -> E16Config {
        E16Config {
            arrival_ticks: 18,
            per_tick: 6,
            budgets: vec![12],
            keep_sealed: 2,
            crash_stride: 5,
            torn_stride: 97,
            max_ticks: 1_000,
            ..E16Config::default()
        }
    }

    #[test]
    fn every_swept_crash_point_resumes_bit_identically() {
        let cfg = tiny();
        for sched in [Scheduling::Static, Scheduling::Balanced] {
            let (cell, ledger) = run_e16_cell(&cfg, 12, sched);
            assert!(cell.crash_points > 0);
            assert!(cell.torn_points > 0, "rotation ticks must be swept");
            assert_eq!(cell.divergences, 0, "{:?}", cell.first_divergence);
            assert_eq!(cell.verify_failures, 0);
            assert_eq!(cell.unbounded_recoveries, 0);
            assert!(cell.segments > 1, "budget 12 must rotate");
            ledger.verify().unwrap();
        }
    }

    #[test]
    fn golden_ledger_is_scheduling_invariant() {
        let cfg = tiny();
        let (a, la) = run_e16_cell(&cfg, 12, Scheduling::Static);
        let (b, lb) = run_e16_cell(&cfg, 12, Scheduling::Balanced);
        assert_eq!(a.final_head, b.final_head);
        assert_eq!(la.to_jsonl_segments(), lb.to_jsonl_segments());
    }

    #[test]
    fn torn_anchor_falls_back_to_the_previous_segment() {
        let cfg = tiny();
        let golden = golden_run(&cfg, 12, Scheduling::Balanced);
        // Find a rotation tick: the newest file holds exactly the header.
        let (_, disk) = golden
            .snapshots
            .iter()
            .rev()
            .find(|(_, d)| d.last_records() == 2 && d.files().len() > 1)
            .expect("a rotation tick with a sealed predecessor");
        let last_index = *disk.files().keys().next_back().unwrap();
        let mut torn = disk.clone();
        torn.tear_last(7); // deep inside the anchor frame's first line
        match recover_segments(&torn) {
            Recovery::Resume { current, .. } => {
                let RunEvent::SegmentOpened { segment, .. } = current.records()[0].event else {
                    panic!("recovered header must be an anchor frame");
                };
                assert_eq!(segment, last_index - 1, "must fall back one segment");
            }
            Recovery::Restart { .. } => panic!("predecessor header was intact"),
        }
        let outcome = check_crash_point(&cfg, 12, Scheduling::Balanced, 3, &torn, &golden);
        assert!(outcome.diverged.is_none(), "{:?}", outcome.diverged);
        assert!(!outcome.verify_failed);
    }
}
