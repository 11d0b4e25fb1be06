//! The decision ledger is the one audit trail of a guard verdict.
//!
//! The guard stack keeps no log of its own; the serving layer books each
//! decision it renders as exactly one `Verdict` record, spelled by
//! `GuardVerdict::label` and `GuardVerdict::reason`. This drives a seeded
//! serving workload through guard denials, substitutions, a rejected
//! substitute and every kind of shed, with the verdict cache serving
//! repeated contexts, and holds the ledger to the decision stream record
//! for record.

use apdm::ledger::{RotationPolicy, RunEvent, SegmentedLedger};
use apdm::policy::Action;
use apdm::serve::{
    schema, standard_stacks, AdmissionConfig, Decision, DecisionRequest, PolicyDecisionService,
    ServeConfig, ShedReason, TenantId, WorkloadGen, WorkloadOracle, WorkloadSpec,
};
use apdm::statespace::{StateDelta, VarId};

const ARRIVAL_TICKS: u64 = 60;

/// A boundary-crossing east-move whose only alternative is a retreat that
/// strikes: the state check substitutes it and the harm check rejects the
/// substitute.
fn rejected_substitute(id: u64, now: u64) -> DecisionRequest {
    DecisionRequest {
        id,
        tenant: TenantId(3),
        device: 7,
        state: schema().state(&[4.5]).expect("in schema"),
        proposed: Action::adjust("east", StateDelta::single(VarId(0), 1.0)),
        alternatives: vec![Action::adjust("strike", StateDelta::single(VarId(0), -1.0))],
        submitted_at: now,
        deadline: None,
        ctx: None,
    }
}

/// Run the workload to completion; every decision in the order rendered,
/// the sealed ledger, and the cache hit count.
fn serve() -> (Vec<Decision>, SegmentedLedger, u64) {
    let cfg = ServeConfig {
        threads: 1,
        shards: 4,
        cache: true,
        admission: AdmissionConfig {
            capacity: 48,
            tenant_quota: 30,
            quantum: 4,
        },
        rotation: Some(RotationPolicy::by_records(256)),
        ..ServeConfig::default()
    };
    let mut svc = PolicyDecisionService::new(
        cfg,
        standard_stacks(cfg.shards, true),
        WorkloadOracle,
        "audit-trail",
    );
    let mut gen = WorkloadGen::new(WorkloadSpec {
        seed: 11,
        per_tick: 48,
        arrival_ticks: ARRIVAL_TICKS,
        deadline_slack: Some(1),
        ..WorkloadSpec::default()
    });
    let mut decisions = Vec::new();
    let mut now = 0;
    while now < ARRIVAL_TICKS || svc.queue_depth() > 0 {
        now += 1;
        let mut arrivals = gen.tick_requests(now);
        if now % 10 == 1 && now <= ARRIVAL_TICKS {
            arrivals.insert(0, rejected_substitute(1_000_000 + now, now));
        }
        for req in arrivals {
            decisions.extend(svc.submit(req, now));
        }
        decisions.extend(svc.tick(now));
    }
    let hits = svc.stats().cache_hits;
    let (ledger, _) = svc.finish_segmented(now);
    (decisions, ledger, hits)
}

#[test]
fn every_decision_is_one_verdict_record_in_decision_order() {
    let (decisions, ledger, hits) = serve();
    ledger.verify().expect("sealed ledger verifies");
    assert!(ledger.segments().len() > 1, "the run should rotate");
    assert!(hits > 0, "the cache should serve repeated contexts");

    let records: Vec<_> = ledger
        .segments()
        .iter()
        .flat_map(|seg| seg.records())
        .filter_map(|r| match &r.event {
            RunEvent::Verdict {
                device,
                action,
                verdict,
                reason,
            } => Some((*device, action.as_str(), verdict.as_str(), reason.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(records.len(), decisions.len());
    for (i, (d, rec)) in decisions.iter().zip(&records).enumerate() {
        let expect = (d.device, d.action.as_str(), d.verdict_name(), d.reason());
        assert_eq!(
            (rec.0, rec.1, rec.2.to_string(), rec.3),
            expect,
            "record for decision {i}"
        );
    }

    // The workload reaches every kind of verdict the ledger books.
    let any = |f: &dyn Fn(&Decision) -> bool| decisions.iter().any(f);
    assert!(any(&|d| d.shed.is_none() && d.verdict_name() == "allow"));
    assert!(any(&|d| d.shed.is_none()
        && d.action == "strike"
        && d.reason().starts_with("pre-action check:")));
    assert!(any(&|d| d.verdict_name().starts_with("replace:")));
    assert!(any(&|d| d.reason().contains("substitute rejected")));
    for reason in [
        ShedReason::Capacity,
        ShedReason::Quota,
        ShedReason::Deadline,
    ] {
        assert!(any(&|d| d.shed == Some(reason)), "no {reason:?} shed");
    }
}
