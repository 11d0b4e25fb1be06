//! In-process serving: one round drives the pre-generated stream through a
//! fresh `PolicyDecisionService` from a single thread, ticks back to back.

use std::time::Instant;

use apdm_ledger::{SegmentedLedger, SnapshotFrame};
use apdm_serve::{Decision, ServeStats};

use crate::plan::{Plan, Stream};
use crate::stats::{elapsed_ns, host_probe_ns, span_ns, PROBE_NOMINAL_NS};

/// Watchdog on the drain after the last arrival tick.
const MAX_DRAIN_TICKS: u64 = 10_000;

/// Everything one in-process round produced.
#[derive(Debug)]
pub struct Round {
    /// Decisions in emission order (admission sheds first within a tick,
    /// then the tick's output).
    pub decisions: Vec<Decision>,
    /// The sealed, retained ledger segments.
    pub ledger: SegmentedLedger,
    /// Service counters.
    pub stats: ServeStats,
    /// Tick the ledger was sealed at.
    pub final_tick: u64,
    /// Wall time of the submit/tick loop. Work done between ticks (host
    /// probes, tracing) is excluded.
    pub wall_ns: u64,
    /// `wall_ns` with each block of ticks between two host probes scaled
    /// by `PROBE_NOMINAL_NS` over the probe that closes the block: the time
    /// the round would take on the nominal host. Equals `wall_ns` when the
    /// plan does not probe.
    pub norm_wall_ns: f64,
    /// Host-probe readings taken between ticks (see `Plan::probe_every`).
    pub probes: Vec<u64>,
    /// When requested, each decision's latency: `submit` call to the return
    /// of the `tick` that emitted it, less any host probe run in between.
    pub latency: Vec<u64>,
    /// `latency`, each scaled like the block it was decided in.
    pub norm_latency: Vec<u64>,
    /// Per-call timings, present for traced rounds.
    pub trace: Option<RoundTrace>,
}

/// What a traced round records from outside the service.
#[derive(Debug, Default)]
pub struct RoundTrace {
    /// Wall time of every `submit` call.
    pub submit_ns: Vec<u64>,
    /// Wall time of every `tick` call, tick 1 first.
    pub tick_ns: Vec<u64>,
    /// Wall time of every tick cycle: first submit to `tick` return.
    pub cycle_ns: Vec<u64>,
    /// `decisions.len()` after tick `t`, at index `t - 1`.
    pub tick_ends: Vec<usize>,
    /// Ticks that rotated the ledger, with the checkpoint frame the
    /// service wrote there and the wall time `checkpoint().to_frame()` took
    /// when called again from outside.
    pub rotations: Vec<(u64, SnapshotFrame, u64)>,
}

/// Serve `stream` through a fresh service, recording latencies when asked.
pub fn round(plan: &Plan, seed: u64, stream: &Stream, record_latency: bool, traced: bool) -> Round {
    let mut svc = plan.service(seed);
    let arrival = stream.ticks.len() as u64;
    let offered = stream.offered() as usize;
    let mut ticks = stream.ticks.clone();
    // Submit instant and the probe time elapsed before it, per request.
    let mut submitted_at: Vec<Option<(Instant, u64)>> = vec![None; offered];
    let mut decisions: Vec<Decision> = Vec::with_capacity(offered);
    let mut trace = traced.then(RoundTrace::default);
    let mut wall_ns = 0u64;
    let mut probes = Vec::new();
    let mut probed_ns = 0u64;
    let mut norm_wall_ns = 0.0;
    let (mut latency, mut norm_latency) = (Vec::new(), Vec::new());
    // Wall time and latencies since the last probe.
    let (mut block_ns, mut block_latency) = (0u64, Vec::new());
    let mut now = 0u64;
    while now < arrival || svc.queue_depth() > 0 {
        now += 1;
        assert!(now <= arrival + MAX_DRAIN_TICKS, "drain watchdog tripped");
        let cycle = Instant::now();
        let arrivals = ticks.get_mut(now as usize - 1).map(std::mem::take);
        for req in arrivals.into_iter().flatten() {
            let id = req.id as usize;
            let start = Instant::now();
            let shed = svc.submit(req, now);
            if let Some(t) = trace.as_mut() {
                t.submit_ns.push(elapsed_ns(start));
            }
            if let Some(d) = shed {
                if record_latency {
                    block_latency.push(elapsed_ns(start));
                }
                decisions.push(d);
            }
            submitted_at[id] = Some((start, probed_ns));
        }
        let segment = svc.recorder().segment_index();
        let tick_start = Instant::now();
        let out = svc.tick(now);
        let end = Instant::now();
        block_ns += span_ns(cycle, end);
        if record_latency {
            for d in &out {
                let (start, probed) =
                    submitted_at[d.request_id as usize].expect("decided after submit");
                block_latency.push(span_ns(start, end).saturating_sub(probed_ns - probed));
            }
        }
        decisions.extend(out);
        if let Some(t) = trace.as_mut() {
            t.tick_ns.push(span_ns(tick_start, end));
            t.cycle_ns.push(span_ns(cycle, end));
            t.tick_ends.push(decisions.len());
            if svc.recorder().segment_index() != segment {
                let start = Instant::now();
                let frame = svc.checkpoint(now).to_frame();
                t.rotations.push((now, frame, elapsed_ns(start)));
            }
        }
        let done = now >= arrival && svc.queue_depth() == 0;
        if done || (plan.probe_every > 0 && now.is_multiple_of(plan.probe_every)) {
            let mut scale = 1.0;
            if plan.probe_every > 0 {
                let start = Instant::now();
                let probe = host_probe_ns();
                probed_ns += elapsed_ns(start);
                probes.push(probe);
                scale = PROBE_NOMINAL_NS / probe as f64;
            }
            wall_ns += block_ns;
            norm_wall_ns += block_ns as f64 * scale;
            norm_latency.extend(block_latency.iter().map(|&ns| (ns as f64 * scale) as u64));
            latency.append(&mut block_latency);
            block_ns = 0;
        }
    }
    let (ledger, stats) = svc.finish_segmented(now);
    Round {
        decisions,
        ledger,
        stats,
        final_tick: now,
        wall_ns,
        norm_wall_ns,
        probes,
        latency,
        norm_latency,
        trace,
    }
}
