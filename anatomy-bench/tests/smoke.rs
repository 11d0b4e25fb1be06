//! The benchmark's own tests: smoke-size runs pass every check, each
//! workload keeps its defining property, and the stream is a pure function
//! of the seed.

use anatomy_bench::bench::{run, Options, Report};
use anatomy_bench::check::{self, Reference};
use anatomy_bench::inproc;
use anatomy_bench::plan::{Plan, Workload, CLIENTS};
use apdm_guards::GuardVerdict;

const END_TO_END: [&str; 5] = [
    "decisions_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "setup_s",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 29] = [
    "serve.submit.p50_ns",
    "serve.tick.p50_ns",
    "serve.tick.p99_ns",
    "serve.batches",
    "serve.batch_size.mean",
    "serve.queue_ticks.p99",
    "serve.unattributed_frac",
    "trace_overhead_frac",
    "guards.hit.p50_ns",
    "guards.miss.p50_ns",
    "guards.miss.p99_ns",
    "guards.cache_hit_ratio",
    "guards.busy_frac",
    "par.dispatch.p50_ns",
    "par.dispatch.auto_p50_ns",
    "par.busy_frac",
    "ledger.append.p50_ns",
    "ledger.append.p99_ns",
    "ledger.rotate.mean_ns",
    "ledger.checkpoint_bytes.mean",
    "ledger.bytes_per_record",
    "ledger.verify.ns_per_record",
    "ledger.busy_frac",
    "net.encode.p50_ns",
    "net.decode.p50_ns",
    "net.write.p50_ns",
    "net.tick_rtt.p50_us",
    "net.tick_rtt.p99_us",
    "net.bytes_per_decision",
];

fn smoke(workload: Workload, trace: bool) -> Report {
    let opts = Options {
        plan: Plan::smoke(workload),
        seed: 7,
        seconds: 0.01,
        trace,
    };
    run(&opts).unwrap_or_else(|e| panic!("{} failed a check: {e}", workload.name()))
}

fn assert_metrics(report: &Report, names: &[&str]) {
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, names);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for workload in Workload::ALL {
        let plain = smoke(workload, false);
        assert_metrics(&plain, &END_TO_END);
        assert!(plain.attempted >= Plan::smoke(workload).offered());
        assert_eq!(plain.failed, 0, "{}", workload.name());
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{} = {}", m.name, m.value);
        }
        let traced = smoke(workload, true);
        assert_metrics(&traced, &PER_LAYER);
    }
}

#[test]
fn inproc_hot_hits_the_cache_at_full_size() {
    let plan = Plan::full(Workload::InprocHot);
    let round = inproc::round(&plan, 3, &plan.stream(3), false, false);
    let ratio =
        round.stats.cache_hits as f64 / (round.stats.cache_hits + round.stats.cache_misses) as f64;
    assert!(ratio >= 0.99, "hit ratio {ratio}");
}

#[test]
fn inproc_miss_never_hits_and_never_sheds() {
    let plan = Plan::smoke(Workload::InprocMiss);
    let round = inproc::round(&plan, 3, &plan.stream(3), false, false);
    assert_eq!(round.stats.cache_hits, 0);
    assert_eq!(round.stats.cache_misses, plan.offered());
    assert_eq!(round.stats.shed_total(), 0);
}

#[test]
fn tcp_lockstep_uses_two_connections() {
    assert_eq!(smoke(Workload::TcpLockstep, false).connections, 2);
    assert_eq!(CLIENTS, 2);
}

#[test]
fn the_stream_is_a_pure_function_of_the_seed() {
    for workload in Workload::ALL {
        let plan = Plan::smoke(workload);
        assert_eq!(plan.stream(11), plan.stream(11), "{}", workload.name());
        assert_ne!(plan.stream(11), plan.stream(12), "{}", workload.name());
        assert_eq!(plan.stream(11).offered(), plan.offered());
    }
}

#[test]
fn the_checks_reject_wrong_output() {
    let plan = Plan::smoke(Workload::InprocHot);
    let stream = plan.stream(5);
    let reference = Reference::new(&plan, 5, &stream);
    let round = inproc::round(&plan, 5, &stream, false, false);
    let offered = plan.offered();
    assert!(check::round(offered, &round.decisions, &round.ledger, &reference, false).is_ok());

    let mut missing = round.decisions.clone();
    missing.pop();
    assert!(check::round(offered, &missing, &round.ledger, &reference, false).is_err());

    let mut twice = round.decisions.clone();
    twice.push(twice[0].clone());
    assert!(check::round(offered, &twice, &round.ledger, &reference, false).is_err());

    let mut opened = round.decisions.clone();
    let shed = opened.iter().position(|d| d.verdict != GuardVerdict::Allow);
    let at = shed.expect("the stream has denials");
    opened[at].shed = Some(apdm_serve::ShedReason::Capacity);
    opened[at].verdict = GuardVerdict::Allow;
    let err = check::round(offered, &opened, &round.ledger, &reference, false).unwrap_err();
    assert!(err.contains("resolved to allow"), "{err}");

    let mut changed = round.decisions.clone();
    changed[0].decided_at += 1;
    assert!(check::round(offered, &changed, &round.ledger, &reference, false).is_err());

    let other = inproc::round(&plan, 6, &plan.stream(6), false, false);
    assert!(check::round(offered, &round.decisions, &other.ledger, &reference, false).is_err());
}
