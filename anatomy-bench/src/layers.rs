//! Per-layer timings, taken from outside the program: each layer's public
//! functions are called again on the exact work a traced round served, and
//! every replayed result is checked against what the service produced, so
//! the timings provably measure the same work as the end-to-end run.

use std::hint::black_box;
use std::time::Instant;

use apdm_guards::{GuardContext, GuardStack};
use apdm_ledger::{RotationPolicy, RunEvent, SegmentedRecorder};
use apdm_net::wire::{decode_payload, encode_payload};
use apdm_net::{decode, encode, write_frame, DecisionSnap, Frame, FrameType, ReqSnap};
use apdm_par::StealPlan;
use apdm_policy::Action;
use apdm_serve::{standard_stacks, Decision, DecisionRequest, WorkloadOracle};

use crate::inproc::Round;
use crate::plan::{Plan, Stream, KEEP_SEALED, ROTATE_RECORDS, SHARDS};
use crate::stats::{elapsed_ns, Samples};

/// Contexts checked twice by the hit probe of a round with no cache hits.
const HIT_PROBES: usize = 4096;

/// Per-layer samples accumulated over the traced rounds of one run.
#[derive(Debug, Clone)]
pub struct Layers {
    /// `PolicyDecisionService::submit` call wall time.
    pub submit: Samples,
    /// `PolicyDecisionService::tick` call wall time.
    pub tick: Samples,
    /// Tick cycle: first submit to `tick` return.
    pub cycle: Samples,
    /// Virtual queue wait of evaluated decisions, in ticks.
    pub queue_ticks: Samples,
    /// Batches dispatched, summed over traced rounds.
    pub batches: u64,
    /// Decisions evaluated by a guard stack, summed over traced rounds.
    pub decided: u64,
    /// `GuardStack::check` calls answered from the memo cache.
    pub guard_hit: Samples,
    /// `GuardStack::check` calls that ran the guards.
    pub guard_miss: Samples,
    /// Wall time of the replayed checks, summed (probes excluded).
    pub guard_ns: u128,
    /// Cache hits among the replayed lookups (probes excluded).
    pub hits: u64,
    /// Replayed lookups (probes excluded).
    pub lookups: u64,
    /// `SegmentedRecorder::record` of one verdict.
    pub append: Samples,
    /// Rotation: `rotate` + `checkpoint().to_frame()` + snapshot append.
    pub rotate: Samples,
    /// Serialized size of each checkpoint record.
    pub checkpoint_bytes: Samples,
    /// Serialized size of each retained verdict record.
    pub verdict_bytes: Samples,
    /// `SegmentedLedger::verify` wall time, summed.
    pub verify_ns: u128,
    /// Records covered by `verify_ns`.
    pub verify_records: u64,
    /// Traced rounds replayed.
    pub rounds: u64,
}

impl Layers {
    /// Empty accumulators.
    pub fn new(seed: u64) -> Layers {
        let s = |k: u64| Samples::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Layers {
            submit: s(1),
            tick: s(2),
            cycle: s(3),
            queue_ticks: s(4),
            batches: 0,
            decided: 0,
            guard_hit: s(5),
            guard_miss: s(6),
            guard_ns: 0,
            hits: 0,
            lookups: 0,
            append: s(7),
            rotate: s(8),
            checkpoint_bytes: s(9),
            verdict_bytes: s(10),
            verify_ns: 0,
            verify_records: 0,
            rounds: 0,
        }
    }

    /// Fold in one traced round: its serve timings, plus guard and ledger
    /// replays that must reproduce its verdicts and segment heads.
    pub fn replay(
        &mut self,
        plan: &Plan,
        seed: u64,
        stream: &Stream,
        round: &Round,
    ) -> Result<(), String> {
        let trace = round.trace.as_ref().ok_or("replay needs a traced round")?;
        trace.submit_ns.iter().for_each(|&ns| self.submit.push(ns));
        trace.tick_ns.iter().for_each(|&ns| self.tick.push(ns));
        trace.cycle_ns.iter().for_each(|&ns| self.cycle.push(ns));
        for d in round.decisions.iter().filter(|d| d.shed.is_none()) {
            self.queue_ticks.push(d.queue_ticks());
        }
        self.batches += round.stats.batches;
        self.decided += round.stats.decided;
        self.replay_guards(stream, round)?;
        self.replay_ledger(plan, seed, round)?;
        let start = Instant::now();
        let verified = round.ledger.verify();
        self.verify_ns += u128::from(elapsed_ns(start));
        verified.map_err(|e| format!("served ledger does not verify: {e:?}"))?;
        self.verify_records += round.ledger.total_records() as u64;
        for record in round.ledger.segments().iter().flat_map(|s| s.records()) {
            if matches!(record.event, RunEvent::Verdict { .. }) {
                self.verdict_bytes.push(jsonl_len(record));
            }
        }
        self.rounds += 1;
        Ok(())
    }

    /// Re-run every evaluated decision through fresh per-shard stacks in
    /// the order each shard saw them, timing each `GuardStack::check`.
    fn replay_guards(&mut self, stream: &Stream, round: &Round) -> Result<(), String> {
        let by_id = stream.by_id();
        let mut stacks = standard_stacks(SHARDS, true);
        let (mut hits, mut lookups) = (0u64, 0u64);
        for d in round.decisions.iter().filter(|d| d.shed.is_none()) {
            let req = by_id[d.request_id as usize];
            let stack = &mut stacks[(req.device % SHARDS as u64) as usize];
            let before = stack.cache_stats();
            let (verdict, ns) = timed_check(stack, req, d.decided_at);
            let hit =
                matches!((before, stack.cache_stats()), (Some((h0, _)), Some((h1, _))) if h1 > h0);
            if verdict != d.verdict {
                return Err(format!(
                    "guard replay of request {} gave {verdict:?}, the service decided {:?}",
                    d.request_id, d.verdict
                ));
            }
            self.guard_ns += u128::from(ns);
            if hit {
                hits += 1;
                self.guard_hit.push(ns);
            } else {
                self.guard_miss.push(ns);
            }
            lookups += 1;
        }
        if (hits, lookups - hits) != (round.stats.cache_hits, round.stats.cache_misses) {
            return Err(format!(
                "guard replay saw {hits} hits / {} misses, the service {} / {}",
                lookups - hits,
                round.stats.cache_hits,
                round.stats.cache_misses
            ));
        }
        self.hits += hits;
        self.lookups += lookups;
        if hits == 0 {
            // Nothing hit, so time hits on a probe stack instead: check a
            // context once to fill its memo, then time the repeat.
            let mut probe = standard_stacks(1, true).remove(0);
            for d in round.decisions.iter().take(HIT_PROBES) {
                let req = by_id[d.request_id as usize];
                timed_check(&mut probe, req, d.decided_at);
                let (_, ns) = timed_check(&mut probe, req, d.decided_at);
                self.guard_hit.push(ns);
            }
        }
        Ok(())
    }

    /// Re-record the decision stream into a fresh segmented recorder,
    /// rotating where the service did, and require the same segment heads.
    fn replay_ledger(&mut self, plan: &Plan, seed: u64, round: &Round) -> Result<(), String> {
        let trace = round.trace.as_ref().ok_or("replay needs a traced round")?;
        let mut rec = SegmentedRecorder::new(
            &plan.run_name(),
            seed,
            SHARDS as u64,
            RotationPolicy {
                max_records: ROTATE_RECORDS,
                max_bytes: 0,
                keep_sealed: KEEP_SEALED,
            },
        );
        let mut rotations = trace.rotations.iter();
        let mut from = 0;
        for (now, &end) in (1u64..).zip(&trace.tick_ends) {
            for d in &round.decisions[from..end] {
                let event = verdict_event(d);
                let start = Instant::now();
                rec.record(now, event);
                self.append.push_since(start);
            }
            from = end;
            if rec.should_rotate() {
                let (tick, frame, checkpoint_ns) = rotations
                    .next()
                    .ok_or_else(|| format!("replay rotated at tick {now}, the service did not"))?;
                if *tick != now {
                    return Err(format!(
                        "replay rotated at tick {now}, the service at {tick}"
                    ));
                }
                let event = RunEvent::Snapshot(frame.clone());
                let start = Instant::now();
                rec.rotate(now);
                rec.record(now, event);
                rec.mark_header();
                self.rotate.push(elapsed_ns(start) + checkpoint_ns);
                let snapshot = rec.current().records().last().expect("just recorded");
                self.checkpoint_bytes.push(jsonl_len(snapshot));
            }
        }
        if let Some((tick, _, _)) = rotations.next() {
            return Err(format!(
                "the service rotated at tick {tick}, the replay did not"
            ));
        }
        let replayed = rec.finish(round.final_tick, 0);
        let heads = |l: &apdm_ledger::SegmentedLedger| {
            let first = l.first_index();
            (
                first,
                l.segments()
                    .iter()
                    .map(|s| s.head_digest())
                    .collect::<Vec<_>>(),
            )
        };
        if heads(&replayed) != heads(&round.ledger) {
            return Err("ledger replay reached different segment heads".into());
        }
        Ok(())
    }
}

/// The ledger event the service records for one decision.
fn verdict_event(d: &Decision) -> RunEvent {
    RunEvent::Verdict {
        device: d.device,
        action: d.action.as_str().into(),
        verdict: d.verdict_name().as_str().into(),
        reason: d.reason().to_string(),
    }
}

/// One timed `GuardStack::check` of `req` as the service frames it.
fn timed_check(
    stack: &mut GuardStack,
    req: &DecisionRequest,
    tick: u64,
) -> (apdm_guards::GuardVerdict, u64) {
    let subject = format!("d{}", req.device);
    let alternatives: Vec<&Action> = req.alternatives.iter().collect();
    let ctx = GuardContext {
        tick,
        subject: &subject,
        state: &req.state,
        alternatives: &alternatives,
        world_token: 0,
    };
    let start = Instant::now();
    let verdict = stack.check(&ctx, &req.proposed, WorkloadOracle);
    (verdict, elapsed_ns(start))
}

/// Length of a record's JSONL line.
fn jsonl_len(record: &apdm_ledger::LedgerRecord) -> u64 {
    serde_json::to_string(record)
        .expect("ledger records serialize")
        .len() as u64
        + 1
}

/// Wall time of `calls` empty `run_sharded_balanced` dispatches over one
/// item per shard at `threads` workers.
pub fn par_dispatch(threads: usize, seed: u64, calls: u64) -> Samples {
    let mut samples = Samples::new(seed ^ 0x9A4);
    let mut items = vec![0u8; SHARDS];
    for batch in 0..calls {
        let start = Instant::now();
        let run = apdm_par::run_sharded_balanced(
            threads,
            StealPlan::new(seed, batch),
            &mut items,
            |_| 1,
            |_, slice: &mut [u8]| slice.len(),
        );
        samples.push_since(start);
        black_box(run.results);
    }
    samples
}

/// Codec samples over the frames one decision exchange carries.
#[derive(Debug, Clone)]
pub struct Codec {
    /// Request frame encode: payload plus frame.
    pub encode: Samples,
    /// Request frame decode: frame plus payload.
    pub decode: Samples,
    /// `write_frame` of a request frame into memory.
    pub write_mem: Samples,
    /// Request plus Decision frame bytes.
    pub bytes: u64,
    /// Decisions covered by `bytes`.
    pub decisions: u64,
}

/// Time the request codec on every request of `stream` and require each
/// to decode back to itself; count request plus decision frame bytes.
pub fn codec(seed: u64, stream: &Stream, decisions: &[Decision]) -> Result<Codec, String> {
    let mut c = Codec {
        encode: Samples::new(seed ^ 0xE1),
        decode: Samples::new(seed ^ 0xD1),
        write_mem: Samples::new(seed ^ 0x1E),
        bytes: 0,
        decisions: decisions.len() as u64,
    };
    let mut sink: Vec<u8> = Vec::with_capacity(4096);
    for req in stream.ticks.iter().flatten() {
        let start = Instant::now();
        let frame = Frame::new(FrameType::Request, encode_payload(&ReqSnap::from(req)));
        let bytes = encode(&frame);
        c.encode.push_since(start);
        let start = Instant::now();
        let back = decode(&bytes)
            .ok()
            .and_then(|f| decode_payload::<ReqSnap>(&f.payload))
            .map(DecisionRequest::from);
        c.decode.push_since(start);
        if back.as_ref() != Some(req) {
            return Err(format!("request {} does not survive the codec", req.id));
        }
        sink.clear();
        let start = Instant::now();
        write_frame(&mut sink, &frame).map_err(|e| e.to_string())?;
        c.write_mem.push_since(start);
        c.bytes += bytes.len() as u64;
    }
    for d in decisions {
        let frame = Frame::new(FrameType::Decision, encode_payload(&DecisionSnap::from(d)));
        c.bytes += encode(&frame).len() as u64;
    }
    Ok(c)
}
