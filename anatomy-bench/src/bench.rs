//! One benchmark run: set up, measure for the requested seconds while
//! checking every round, and summarise into named metrics.

use std::time::{Duration, Instant};

use crate::check::{self, Reference, Tally};
use crate::inproc;
use crate::layers::{self, Layers};
use crate::plan::{Plan, Stream, Workload, SERVE_THREADS};
use crate::stats::{
    host_probe_ns, median, peak_rss_mb, quantile, timer_overhead_ns, Samples, PROBE_NOMINAL_NS,
};
use crate::tcp;

/// Empty dispatches timed for `par.dispatch.p50_ns`.
const PAR_CALLS: u64 = 2000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload sizes.
    pub plan: Plan,
    /// Seed of the request stream.
    pub seed: u64,
    /// Measurement time; whole rounds run until it has passed.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

/// A finished run whose every check passed.
#[derive(Debug, Clone)]
pub struct Report {
    /// Requests offered in measured rounds.
    pub attempted: u64,
    /// Of those, shed by the service or rejected at the TCP boundary.
    pub failed: u64,
    /// Rounds measured.
    pub rounds: u64,
    /// Worker threads the service default (auto) resolves to here.
    pub auto_threads: usize,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Raw wall-clock counterparts of the probe-normalized end-to-end
    /// metrics, and the median host-probe reading.
    pub raw: Vec<Metric>,
    /// Guard-cache hit ratio of the measured rounds.
    pub hit_ratio: f64,
    /// Sheds the service counted.
    pub shed: u64,
    /// Connections the TCP server accepted in its last round.
    pub connections: u64,
}

/// What one measured round contributes.
struct Served {
    tally: Tally,
    /// Per-decision latencies (empty unless recorded).
    latency: Vec<u64>,
    /// Wall time, latencies and host-probe readings normalized to the
    /// nominal host; raw ones equal them for workloads that do not probe.
    time: Timed,
    probes: Vec<u64>,
    hits: u64,
    lookups: u64,
    shed: u64,
    connections: u64,
}

/// Raw (`[0]`) and host-normalized (`[1]`) timings of one round.
struct Timed {
    offered: u64,
    wall_ns: [f64; 2],
    p50_ns: [f64; 2],
    p99_ns: [f64; 2],
}

impl Timed {
    fn new(offered: u64, wall_ns: [f64; 2], latency: [&mut [u64]; 2]) -> Timed {
        let [raw, norm] = latency;
        let q = |v: &mut [u64], q: f64| quantile(v, q).unwrap_or(0.0);
        Timed {
            offered,
            wall_ns,
            p50_ns: [q(raw, 0.5), q(norm, 0.5)],
            p99_ns: [q(raw, 0.99), q(norm, 0.99)],
        }
    }

    /// Wall time per decision, raw (`i = 0`) or normalized (`i = 1`).
    fn ns_per_decision(&self, i: usize) -> f64 {
        self.wall_ns[i] / self.offered.max(1) as f64
    }
}

/// Median over `rounds` of `f`.
fn median_of(rounds: &[Timed], f: impl Fn(&Timed) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// The counters every run accumulates.
#[derive(Default)]
struct Totals {
    rounds: u64,
    offered: u64,
    refused: u64,
    hits: u64,
    lookups: u64,
    shed: u64,
    connections: u64,
}

impl Totals {
    fn add(&mut self, s: &Served) {
        self.rounds += 1;
        self.offered += s.tally.offered;
        self.refused += s.tally.refused;
        self.hits += s.hits;
        self.lookups += s.lookups;
        self.shed += s.shed;
        self.connections = s.connections;
    }
}

/// Run the benchmark. `Err` means a check failed or a round errored.
pub fn run(opts: &Options) -> Result<Report, String> {
    let (plan, seed) = (opts.plan, opts.seed);
    let setup = setup(&plan, seed)?;
    let stream = &setup.stream;
    let reference = Reference::new(&plan, seed, stream);
    let budget = Duration::from_secs_f64(opts.seconds);
    let auto_threads = apdm_par::resolve_threads(0);
    let (mut metrics, mut raw) = (Vec::new(), Vec::new());
    let totals = if opts.trace {
        let (totals, layer_metrics) =
            traced(&plan, seed, stream, &reference, budget, auto_threads)?;
        metrics = layer_metrics;
        totals
    } else {
        let mut totals = Totals::default();
        let mut timed = Vec::new();
        let mut probes = Vec::new();
        let began = Instant::now();
        while totals.rounds == 0 || began.elapsed() < budget {
            let (served, _) = serve_round(&plan, seed, stream, &reference, true, false)?;
            if (served.latency.len() as f64) * 0.01 < 10.0 {
                return Err(format!(
                    "a round's {} latency samples leave fewer than 10 beyond p99",
                    served.latency.len()
                ));
            }
            totals.add(&served);
            probes.extend(served.probes);
            timed.push(served.time);
        }
        let rss = peak_rss_mb().ok_or("peak RSS is unavailable on this platform")?;
        let n = totals.offered;
        let reps = plan.setup_reps as u64;
        // Each metric twice: normalized to the nominal host (reported) and
        // raw wall clock (printed alongside for reference).
        for (i, out) in [(1, &mut metrics), (0, &mut raw)] {
            out.extend([
                metric(
                    "decisions_per_s",
                    1e9 / median_of(&timed, |t| t.ns_per_decision(i)),
                    "1/s",
                    n,
                ),
                metric(
                    "latency_p50_us",
                    median_of(&timed, |t| t.p50_ns[i]) / 1e3,
                    "us",
                    n,
                ),
                metric(
                    "latency_p99_us",
                    median_of(&timed, |t| t.p99_ns[i]) / 1e3,
                    "us",
                    n,
                ),
                metric("setup_s", setup.s[i], "s", reps),
            ]);
        }
        if !probes.is_empty() {
            let probes: Vec<f64> = probes.iter().map(|&p| p as f64).collect();
            raw.push(metric(
                "host_probe_ns",
                median(&probes),
                "ns",
                probes.len() as u64,
            ));
        }
        metrics.extend([metric("peak_rss_mb", rss, "MB", 1)]);
        totals
    };
    Ok(Report {
        attempted: totals.offered,
        failed: totals.refused,
        rounds: totals.rounds,
        auto_threads,
        metrics,
        raw,
        hit_ratio: totals.hits as f64 / totals.lookups.max(1) as f64,
        shed: totals.shed,
        connections: totals.connections,
    })
}

/// The stream and the median set-up time, raw (`[0]`) and normalized.
struct Setup {
    stream: Stream,
    s: [f64; 2],
}

/// Set up `plan.setup_reps` times: generate the stream, build the service
/// (and, over TCP, bind the listener and connect the clients) and serve a
/// short warm-up round.
fn setup(plan: &Plan, seed: u64) -> Result<Setup, String> {
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    let mut kept = None;
    let probe = |plan: &Plan| (plan.probe_every > 0).then(host_probe_ns);
    for _ in 0..plan.setup_reps.max(1) {
        let before = [probe(plan), probe(plan)];
        let start = Instant::now();
        let stream = plan.stream(seed);
        let warm = stream.prefix(plan.warmup_ticks);
        match plan.workload {
            Workload::TcpLockstep => {
                tcp::round(plan, seed, &warm, false).map_err(|e| e.to_string())?;
            }
            _ => {
                inproc::round(plan, seed, &warm, false, false);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let probes: Vec<f64> = before
            .into_iter()
            .chain([probe(plan), probe(plan)])
            .flatten()
            .map(|p| p as f64)
            .collect();
        let scale = if probes.is_empty() {
            1.0
        } else {
            PROBE_NOMINAL_NS / median(&probes)
        };
        raw.push(secs);
        scaled.push(secs * scale);
        kept = Some(stream);
    }
    Ok(Setup {
        stream: kept.expect("at least one set-up"),
        s: [median(&raw), median(&scaled)],
    })
}

/// The served output of one round, by path.
enum Output {
    Inproc(inproc::Round),
    Tcp(tcp::TcpRound),
}

/// Serve and check one untraced or traced round on the workload's own path.
fn serve_round(
    plan: &Plan,
    seed: u64,
    stream: &Stream,
    reference: &Reference,
    record_latency: bool,
    traced: bool,
) -> Result<(Served, Output), String> {
    let offered = stream.offered();
    if plan.workload != Workload::TcpLockstep {
        let mut r = inproc::round(plan, seed, stream, record_latency, traced);
        return Ok((
            inproc_served(offered, &mut r, reference)?,
            Output::Inproc(r),
        ));
    }
    let mut r = tcp::round(plan, seed, stream, traced).map_err(|e| e.to_string())?;
    if r.outcome.decisions_dropped > 0 {
        return Err(format!(
            "{} decisions were dropped at the boundary",
            r.outcome.decisions_dropped
        ));
    }
    let stats = r.outcome.stats;
    let mut latency = std::mem::take(&mut r.latency);
    let wall = r.wall_ns as f64;
    let served = Served {
        tally: check::round(offered, &r.decisions, &r.outcome.ledger, reference, true)?,
        time: Timed::new(offered, [wall; 2], [&mut latency.clone(), &mut latency]),
        latency,
        probes: Vec::new(),
        hits: stats.cache_hits,
        lookups: stats.cache_hits + stats.cache_misses,
        shed: stats.shed_total(),
        connections: r.outcome.connections,
    };
    Ok((served, Output::Tcp(r)))
}

/// Check an in-process round and count what it served.
fn inproc_served(
    offered: u64,
    r: &mut inproc::Round,
    reference: &Reference,
) -> Result<Served, String> {
    let tally = check::round(offered, &r.decisions, &r.ledger, reference, false)?;
    let mut latency = std::mem::take(&mut r.latency);
    let time = Timed::new(
        offered,
        [r.wall_ns as f64, r.norm_wall_ns],
        [&mut latency, &mut r.norm_latency],
    );
    Ok(Served {
        tally,
        time,
        latency,
        probes: r.probes.clone(),
        hits: r.stats.cache_hits,
        lookups: r.stats.cache_hits + r.stats.cache_misses,
        shed: r.stats.shed_total(),
        connections: 0,
    })
}

/// The traced run: alternate untraced and traced rounds on the workload's
/// path (their wall-time ratio is the tracing overhead), replay the layers
/// of every traced in-process round, and summarise per layer. Over TCP the
/// serving layers run in-process inside the server, so they are replayed
/// from in-process traced rounds of the same stream.
fn traced(
    plan: &Plan,
    seed: u64,
    stream: &Stream,
    reference: &Reference,
    budget: Duration,
    auto_threads: usize,
) -> Result<(Totals, Vec<Metric>), String> {
    let tcp = plan.workload == Workload::TcpLockstep;
    let mut layers = Layers::new(seed);
    let mut all = Totals::default();
    let (mut plain, mut marked) = (Vec::new(), Vec::new());
    let mut write = Samples::new(seed ^ 0x3);
    let mut rtt = Samples::new(seed ^ 0x4);
    let mut wire = (0u64, 0u64);
    let began = Instant::now();
    while plain.is_empty() || marked.is_empty() || began.elapsed() < budget {
        let trace = all.rounds % 2 == 1;
        let (served, output) = serve_round(plan, seed, stream, reference, false, trace)?;
        match output {
            Output::Inproc(r) if trace => layers.replay(plan, seed, stream, &r)?,
            Output::Tcp(r) => {
                if let Some(t) = &r.trace {
                    t.write_ns.iter().for_each(|&ns| write.push(ns));
                    t.tick_rtt_ns.iter().for_each(|&ns| rtt.push(ns));
                    wire.0 += r.wire_bytes;
                    wire.1 += r.decisions.len() as u64;
                }
            }
            Output::Inproc(_) => {}
        }
        all.add(&served);
        if trace { &mut marked } else { &mut plain }.push(served.time);
    }
    if tcp {
        let began = Instant::now();
        while layers.rounds == 0 || began.elapsed() < budget / 5 {
            let mut r = inproc::round(plan, seed, stream, false, true);
            inproc_served(stream.offered(), &mut r, reference)?;
            layers.replay(plan, seed, stream, &r)?;
        }
    }
    let par = layers::par_dispatch(SERVE_THREADS, seed, PAR_CALLS);
    let par_auto = layers::par_dispatch(auto_threads, seed, PAR_CALLS);
    let codec = layers::codec(seed, stream, &reference.decisions)?;
    let (write, rtt_us, bytes_per_decision) = if tcp {
        (write, rtt, wire.0 as f64 / wire.1.max(1) as f64)
    } else {
        (
            codec.write_mem.clone(),
            layers.cycle.clone(),
            codec.bytes as f64 / codec.decisions.max(1) as f64,
        )
    };
    let tick_ns = layers.tick.sum() as f64;
    let guards_ns = layers.guard_ns as f64;
    let par_ns = par.mean() * layers.batches as f64;
    let ledger_ns = (layers.append.sum() + layers.rotate.sum()) as f64;
    // Per-call timings are reported net of the timer's own cost; that also
    // keeps a quantile on a plateau of equal nanoseconds from reading the
    // same integer on every run.
    let timer = timer_overhead_ns();
    let q = |s: &Samples, q: f64| s.quantile(q).map_or(0.0, |v| v - timer);
    let frac = |ns: f64| ns / tick_ns.max(1.0);
    let metrics = vec![
        metric(
            "serve.submit.p50_ns",
            q(&layers.submit, 0.5),
            "ns",
            layers.submit.count(),
        ),
        metric(
            "serve.tick.p50_ns",
            q(&layers.tick, 0.5),
            "ns",
            layers.tick.count(),
        ),
        metric(
            "serve.tick.p99_ns",
            q(&layers.tick, 0.99),
            "ns",
            layers.tick.count(),
        ),
        metric(
            "serve.batches",
            layers.batches as f64 / layers.rounds as f64,
            "count",
            layers.rounds,
        ),
        metric(
            "serve.batch_size.mean",
            layers.decided as f64 / layers.batches.max(1) as f64,
            "count",
            layers.batches,
        ),
        metric(
            "serve.queue_ticks.p99",
            layers.queue_ticks.quantile(0.99).unwrap_or(0.0),
            "virtual_ticks",
            layers.queue_ticks.count(),
        ),
        metric(
            "serve.unattributed_frac",
            1.0 - frac(guards_ns + par_ns + ledger_ns),
            "frac",
            layers.tick.count(),
        ),
        metric(
            "trace_overhead_frac",
            median_of(&marked, |t| t.ns_per_decision(1))
                / median_of(&plain, |t| t.ns_per_decision(1))
                - 1.0,
            "frac",
            all.rounds,
        ),
        metric(
            "guards.hit.p50_ns",
            q(&layers.guard_hit, 0.5),
            "ns",
            layers.guard_hit.count(),
        ),
        metric(
            "guards.miss.p50_ns",
            q(&layers.guard_miss, 0.5),
            "ns",
            layers.guard_miss.count(),
        ),
        metric(
            "guards.miss.p99_ns",
            q(&layers.guard_miss, 0.99),
            "ns",
            layers.guard_miss.count(),
        ),
        metric(
            "guards.cache_hit_ratio",
            layers.hits as f64 / layers.lookups.max(1) as f64,
            "ratio",
            layers.lookups,
        ),
        metric("guards.busy_frac", frac(guards_ns), "frac", layers.lookups),
        metric("par.dispatch.p50_ns", q(&par, 0.5), "ns", par.count()),
        metric(
            "par.dispatch.auto_p50_ns",
            q(&par_auto, 0.5),
            "ns",
            par_auto.count(),
        ),
        metric("par.busy_frac", frac(par_ns), "frac", layers.batches),
        metric(
            "ledger.append.p50_ns",
            q(&layers.append, 0.5),
            "ns",
            layers.append.count(),
        ),
        metric(
            "ledger.append.p99_ns",
            q(&layers.append, 0.99),
            "ns",
            layers.append.count(),
        ),
        metric(
            "ledger.rotate.mean_ns",
            layers.rotate.mean(),
            "ns",
            layers.rotate.count(),
        ),
        metric(
            "ledger.checkpoint_bytes.mean",
            layers.checkpoint_bytes.mean(),
            "bytes",
            layers.checkpoint_bytes.count(),
        ),
        metric(
            "ledger.bytes_per_record",
            layers.verdict_bytes.mean(),
            "bytes",
            layers.verdict_bytes.count(),
        ),
        metric(
            "ledger.verify.ns_per_record",
            layers.verify_ns as f64 / layers.verify_records.max(1) as f64,
            "ns",
            layers.verify_records,
        ),
        metric(
            "ledger.busy_frac",
            frac(ledger_ns),
            "frac",
            layers.append.count(),
        ),
        metric(
            "net.encode.p50_ns",
            q(&codec.encode, 0.5),
            "ns",
            codec.encode.count(),
        ),
        metric(
            "net.decode.p50_ns",
            q(&codec.decode, 0.5),
            "ns",
            codec.decode.count(),
        ),
        metric("net.write.p50_ns", q(&write, 0.5), "ns", write.count()),
        metric(
            "net.tick_rtt.p50_us",
            q(&rtt_us, 0.5) / 1e3,
            "us",
            rtt_us.count(),
        ),
        metric(
            "net.tick_rtt.p99_us",
            q(&rtt_us, 0.99) / 1e3,
            "us",
            rtt_us.count(),
        ),
        metric(
            "net.bytes_per_decision",
            bytes_per_decision,
            "bytes",
            codec.decisions,
        ),
    ];
    Ok((all, metrics))
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}
