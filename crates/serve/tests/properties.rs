//! Property-based tests for the serving-layer invariants experiment E13
//! depends on: determinism of the whole decision pipeline across seeds and
//! thread counts, and the fail-closed guarantee under overload.

use proptest::prelude::*;

use apdm_serve::{
    run_to_completion, standard_stacks, AdmissionConfig, BatchPolicy, Decision,
    PolicyDecisionService, Scheduling, ServeConfig, WorkloadGen, WorkloadOracle, WorkloadSpec,
};

/// Drive one service to completion over a generated workload; returns the
/// full decision stream (submit-sheds interleaved in submit order) plus the
/// sealed ledger's JSONL bytes.
fn run_service(spec: WorkloadSpec, cfg: ServeConfig) -> (Vec<Decision>, String) {
    let mut svc = PolicyDecisionService::new(
        cfg,
        standard_stacks(cfg.shards, cfg.cache),
        WorkloadOracle,
        "prop",
    );
    let mut gen = WorkloadGen::new(spec);
    let done = run_to_completion(&mut svc, &mut gen, 1, 50_000, |_, _| {});
    assert_eq!(done.watchdog, None, "drain did not terminate");
    let (ledger, _) = svc.finish(done.final_tick);
    ledger.verify().expect("sealed ledger verifies");
    (done.decisions, ledger.to_jsonl())
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (0u64..1_000, 1usize..40, 4u64..24, 1u32..5).prop_map(
        |(seed, per_tick, arrival_ticks, tenants)| WorkloadSpec {
            seed,
            per_tick,
            arrival_ticks,
            tenants,
            ..WorkloadSpec::default()
        },
    )
}

/// A smaller spec for the thread-invariance property: it runs every case
/// at three thread counts plus a replay, and thread-pool spawns per batch
/// dominate its runtime.
fn arb_small_spec() -> impl Strategy<Value = WorkloadSpec> {
    (0u64..1_000, 1usize..12, 4u64..12, 1u32..5).prop_map(
        |(seed, per_tick, arrival_ticks, tenants)| WorkloadSpec {
            seed,
            per_tick,
            arrival_ticks,
            tenants,
            ..WorkloadSpec::default()
        },
    )
}

proptest! {
    /// Determinism: the same seed, requests and configuration produce a
    /// byte-identical verdict stream and ledger at every thread count —
    /// worker scheduling must never leak into results.
    #[test]
    fn decision_stream_and_ledger_are_thread_invariant(
        spec in arb_small_spec(),
        batching in any::<bool>(),
        cache in any::<bool>(),
    ) {
        let cfg = |threads| ServeConfig {
            seed: spec.seed,
            threads,
            batch: if batching { BatchPolicy::default() } else { BatchPolicy::unbatched() },
            cache,
            ..ServeConfig::default()
        };
        let (d1, l1) = run_service(spec, cfg(1));
        let (d3, l3) = run_service(spec, cfg(3));
        let (d8, l8) = run_service(spec, cfg(8));
        prop_assert_eq!(&d1, &d3);
        prop_assert_eq!(&d1, &d8);
        prop_assert_eq!(&l1, &l3, "ledger bytes must be thread-invariant");
        prop_assert_eq!(&l1, &l8, "ledger bytes must be thread-invariant");
        // And re-running the same configuration reproduces the run exactly.
        let (d1b, l1b) = run_service(spec, cfg(1));
        prop_assert_eq!(&d1, &d1b);
        prop_assert_eq!(&l1, &l1b);
    }

    /// Fail-closed under overload: whatever the load and bounds, a shed
    /// decision never permits execution, and every offered request gets
    /// exactly one decision.
    #[test]
    fn overload_sheds_never_allow(
        spec in arb_spec(),
        capacity in 1usize..48,
        quota in 1usize..24,
        slack in (any::<bool>(), 0u64..12).prop_map(|(some, s)| some.then_some(s)),
    ) {
        let mut spec = spec;
        spec.deadline_slack = slack;
        let cfg = ServeConfig {
            seed: spec.seed,
            threads: 1,
            admission: AdmissionConfig {
                capacity,
                tenant_quota: quota,
                quantum: 4,
            },
            ..ServeConfig::default()
        };
        let (decisions, _) = run_service(spec, cfg);
        let offered = spec.arrival_ticks * spec.per_tick as u64;
        prop_assert_eq!(decisions.len() as u64, offered, "every request must resolve");
        let mut ids: Vec<u64> = decisions.iter().map(|d| d.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, offered, "exactly one decision per request");
        for d in &decisions {
            if d.shed.is_some() {
                prop_assert!(
                    !d.verdict.permits_execution(),
                    "shed request {} was allowed", d.request_id
                );
                prop_assert!(d.reason().starts_with("shed:"));
            }
        }
    }
}

/// A Zipf-skewed spec for the scheduling-invariance property: small like
/// [`arb_small_spec`] (it runs each case six times), plus a skew exponent
/// in {0.0, 0.7, 1.4} so both the uniform control and hot-device regimes
/// are exercised.
fn arb_skew_spec() -> impl Strategy<Value = WorkloadSpec> {
    (0u64..1_000, 1usize..12, 4u64..10, 0u8..3).prop_map(|(seed, per_tick, arrival_ticks, skew)| {
        WorkloadSpec {
            seed,
            per_tick,
            arrival_ticks,
            zipf: f64::from(skew) * 0.7,
            ..WorkloadSpec::default()
        }
    })
}

proptest! {
    /// The skew-aware optimizations must be invisible in results: for any
    /// Zipf-skewed workload, every {static, balanced} × {1, 3, 8}-thread
    /// service — cross-shard backpressure on — produces a byte-identical
    /// decision stream and ledger. Work stealing and deferral may only
    /// change *when* work runs, never what is decided.
    #[test]
    fn scheduling_mode_and_threads_never_change_decisions(spec in arb_skew_spec()) {
        let cfg = |threads, scheduling| ServeConfig {
            seed: spec.seed,
            threads,
            scheduling,
            backpressure: true,
            ..ServeConfig::default()
        };
        let (base_d, base_l) = run_service(spec, cfg(1, Scheduling::Static));
        for scheduling in [Scheduling::Static, Scheduling::Balanced] {
            for threads in [1usize, 3, 8] {
                let (d, l) = run_service(spec, cfg(threads, scheduling));
                prop_assert_eq!(
                    &base_d, &d,
                    "decision stream diverged at {:?} x {} threads", scheduling, threads
                );
                prop_assert_eq!(
                    &base_l, &l,
                    "ledger bytes diverged at {:?} x {} threads", scheduling, threads
                );
            }
        }
    }
}
