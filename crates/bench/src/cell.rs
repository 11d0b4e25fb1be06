//! The one experiment-cell runner every `WorkloadGen`-driven harness shares.
//!
//! A cell is one service instance driven by one seeded workload: build the
//! standard service, drive it with [`run_to_completion`] from tick 1, seal
//! the segmented ledger and verify it. E13, E15, the E16 and E17 golden
//! runs and the CLI's `checkpoint` command all run through [`run_cell`];
//! the E17 server threads build their service with [`build_service`].

use std::time::Instant;

use apdm_ledger::{SegmentedLedger, SegmentedRecorder};
use apdm_par::WatchdogTrip;
use apdm_serve::{
    run_to_completion, standard_stacks, Decision, PolicyDecisionService, SchedSummary, ServeConfig,
    ServeStats, WorkloadGen, WorkloadOracle, WorkloadSpec,
};
use apdm_telemetry as telemetry;

/// Everything one cell run produced.
#[derive(Debug)]
pub struct CellRun {
    /// Every decision, submit-time sheds interleaved in submit order.
    pub decisions: Vec<Decision>,
    /// The sealed, verified run ledger.
    pub ledger: SegmentedLedger,
    /// Final service counters.
    pub stats: ServeStats,
    /// Scheduling telemetry of the whole run.
    pub sched: SchedSummary,
    /// Per-shard virtual queue-wait samples of the whole run.
    pub shard_waits: Vec<Vec<u64>>,
    /// Requests the generator offered.
    pub offered: u64,
    /// The tick the ledger sealed at (the tripped tick when the watchdog
    /// fired).
    pub final_tick: u64,
    /// Set when the drain watchdog tripped.
    pub watchdog: Option<WatchdogTrip>,
    /// Wall-clock for the cell. **Not** part of the determinism contract.
    pub wall_ns: u64,
}

/// The standard serving-workload service: one [`standard_stacks`] guard
/// stack per shard (cached when `cfg.cache` is on) behind the
/// [`WorkloadOracle`], recording under the ledger run name `name`.
pub fn build_service(cfg: ServeConfig, name: &str) -> PolicyDecisionService<WorkloadOracle> {
    PolicyDecisionService::new(
        cfg,
        standard_stacks(cfg.shards, cfg.cache),
        WorkloadOracle,
        name,
    )
}

/// Run one cell: build the service, drive `spec` through it until the
/// queue drains (or tick `max_ticks` passes), then seal and verify the
/// ledger. `after_tick` observes the recorder after every driven tick.
/// Panics if the sealed ledger fails verification: a fresh in-process run
/// that cannot verify its own ledger is a bug, not a measurement.
pub fn run_cell(
    spec: WorkloadSpec,
    cfg: ServeConfig,
    name: &str,
    max_ticks: u64,
    after_tick: impl FnMut(u64, &SegmentedRecorder),
) -> CellRun {
    let started = Instant::now();
    let mut svc = build_service(cfg, name);
    let mut gen = WorkloadGen::new(spec);
    let done = run_to_completion(&mut svc, &mut gen, 1, max_ticks, after_tick);
    let shard_waits = svc.drain_shard_waits();
    let sched = svc.sched_summary();
    let (ledger, stats) = svc.finish_segmented(done.final_tick);
    if let Err(e) = ledger.verify() {
        panic!("{name}: cell ledger must verify: {e}");
    }
    CellRun {
        decisions: done.decisions,
        ledger,
        stats,
        sched,
        shard_waits,
        offered: gen.total_offered(),
        final_tick: done.final_tick,
        watchdog: done.watchdog,
        wall_ns: telemetry::elapsed_ns(started),
    }
}

impl CellRun {
    /// Shed decisions whose verdict permitted execution — the fail-closed
    /// invariant demands this stays **zero**.
    pub(crate) fn shed_allows(&self) -> u64 {
        self.decisions
            .iter()
            .filter(|d| d.shed.is_some() && d.verdict.permits_execution())
            .count() as u64
    }

    /// Queue latencies (ticks) of every evaluated (not shed) decision.
    pub(crate) fn queue_latencies(&self) -> Vec<u64> {
        self.decisions
            .iter()
            .filter(|d| d.shed.is_none())
            .map(Decision::queue_ticks)
            .collect()
    }
}

/// `q`-quantile (0..=1) of an unsorted sample, by rank. Returns 0 for an
/// empty sample.
pub(crate) fn percentile(sample: &mut [u64], q: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let rank = ((sample.len() as f64) * q).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_ranks_are_exact() {
        let mut sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut sample, 0.50), 50);
        assert_eq!(percentile(&mut sample, 0.99), 99);
        assert_eq!(percentile(&mut sample, 0.999), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [7], 0.999), 7);
    }
}
