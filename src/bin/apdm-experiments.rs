//! Command-line experiment runner: regenerate any experiment table without
//! the bench harness, optionally as JSON.
//!
//! ```text
//! apdm-experiments list
//! apdm-experiments run e1 [--seed 42] [--json] [--trace out.jsonl] [--quiet]
//! apdm-experiments run all
//! apdm-experiments record [--seed 42] [--out run.jsonl]
//! apdm-experiments verify run.jsonl
//! apdm-experiments replay run.jsonl [--seed 42] [--from-snapshot]
//! apdm-experiments trace [--seed 42] [--out trace.jsonl]
//! apdm-experiments serve-bench [--seed 42] [--smoke] [--out report.json]
//! apdm-experiments serve-bench --calibrate [--seed 42]
//! apdm-experiments trace-analyze trace.jsonl [--chrome out.json]
//! apdm-experiments checkpoint [--kill-tick T] [--seed 42] --out base
//! apdm-experiments resume base [--seed 42] [--out base2]
//! apdm-experiments serve-net serve [--listen 127.0.0.1:0] [--addr-file p] \
//!     [--clients N] [--smoke] [--out base]
//! apdm-experiments serve-net client (--connect addr | --addr-file p) \
//!     --index I --clients N [--smoke]
//! apdm-experiments serve-net chaos (--connect addr | --addr-file p) --kind k
//! apdm-experiments serve-net golden [--smoke] [--out base]
//! ```
//!
//! Parallelism: the global `--threads N` flag sets the worker count for
//! both the two-phase fleet tick and the experiment fan-out (`0` = one
//! per hardware thread, the default; `1` = fully sequential; the
//! `APDM_THREADS` env var overrides auto-detection). Experiment sweeps
//! distribute their cells across the pool but always print in table
//! order, and recorded ledgers are bit-identical at any thread count.
//! `--no-cache` disables the guard-verdict memo cache.
//!
//! `record` runs the canonical guarded-striker scenario under the
//! `apdm-ledger` flight recorder and writes the hash-chained ledger as
//! JSONL; `verify` re-imports it and localizes the first corrupt record if
//! any; `replay` re-executes the run (from tick 0, or from the last
//! checkpoint with `--from-snapshot`) and reports the first divergence.
//!
//! Observability: progress lines route through an `apdm-telemetry` stderr
//! subscriber, so `--quiet` silences them without touching result output
//! (stdout). The global `--trace <path>` flag additionally captures every
//! span and event into a ring buffer and, when the command finishes, writes
//! the trace as JSONL to `<path>` and as a Chrome `trace_event` document to
//! `<path>.chrome.json`, then prints the metrics percentile table
//! (per-guard latency, per-tick phase timings). The `trace` subcommand does
//! this for the canonical recorded scenario in one step.
//!
//! Skew scheduling: `run e15` sweeps Zipf device skew × {static, balanced}
//! shard scheduling (experiment E15); `run e15 --out cell.jsonl` runs the
//! canonical skewed cell and writes its sealed ledger, with `--sched
//! static|balanced` picking the scheduling mode — CI compares the two
//! files byte for byte. `serve-bench --calibrate` measures real per-batch
//! guard-stack nanoseconds and prints the least-squares-fitted `CostModel`
//! constants with their residual error.
//!
//! Distributed tracing: `run e14 --out traced.jsonl` records the full-mode
//! causally-traced serve run (experiment E14) as JSONL, and
//! `trace-analyze` rebuilds the cross-device span DAG from any such
//! export, prints each trace's critical path (per-step waits telescope to
//! the end-to-end tick latency), and with `--chrome <path>` writes a
//! multi-device Chrome timeline (one track per device).
//!
//! Crash tolerance: `checkpoint --out base` runs the canonical rotating
//! serve cell (experiment E16's smoke shape) and writes its sealed
//! segment files as `base.segNNNN.jsonl`; with `--kill-tick T` it instead
//! writes the segment files exactly as a process SIGKILLed at tick `T`
//! would leave them (an open, checkpoint-headed tail). `resume base`
//! recovers from those files — latest valid checkpoint, fallback ladder,
//! full restart if nothing survived — replays the suffix, and writes the
//! resumed run's sealed segments; CI `cmp`s them byte for byte against
//! the golden files. `verify` recognizes rotated runs: pointed at any
//! `.segNNNN.jsonl` file (or the family's base path), it checks every
//! retained segment's hash chain *and* the cross-segment anchors, prints
//! a per-segment report, and exits nonzero if any segment fails.
//!
//! Networked serving: `serve-net` exposes the experiment E17 machinery as
//! separate processes so CI can prove the TCP path is ledger-invisible
//! across real process boundaries. `serve-net serve` binds a listener
//! (writing the bound address to `--addr-file` for rendezvous), drives the
//! canonical seeded workload through `apdm-net`, and writes the sealed
//! segment family to `--out`; `serve-net client` connects and drives
//! workload partition `--index` of `--clients`; `serve-net chaos` runs one
//! scripted hostile connection (`--kind garbage|badcrc|oversize|slow|`
//! `disconnect|unauthorized`); `serve-net golden` writes the in-process
//! run's segments for a byte-for-byte `cmp`. The wire format is specified
//! in `docs/PROTOCOL.md`.

use std::env;
use std::fs;
use std::process::ExitCode;
use std::rc::Rc;

use apdm::bench::{
    build_service, golden_segments, resume_run, run_calibration, run_cell, run_e13, run_e14,
    run_e14_mode, run_e15, run_e15_cell, run_e16, run_e16_cell, run_e17, write_report, E13Config,
    E14Config, E15Config, E16Config, E17Config, TraceMode,
};
use apdm::comms::FailMode;
use apdm::ledger::{Ledger, SegmentedLedger};
use apdm::net::{run_chaos_client, run_workload_client, serve, ChaosKind};
use apdm::serve::{Scheduling, SimDisk};
use apdm::sim::contagion::{run_contagion, ContagionArm};
use apdm::sim::degraded::{run_e12, run_e12_cell, E12Config};
use apdm::sim::faults::Pathway;
use apdm::sim::recorder::{
    replay_recorded, replay_recorded_prefix, run_e9, run_recorded, RecordSpec, ReplayStart,
};
use apdm::sim::runner::*;
use apdm::sim::scenario::run_surveillance;
use apdm::telemetry::{self, event, Fanout, Level, RingCollector, StderrSubscriber, Subscriber};

/// Ring-buffer capacity for `--trace` captures (most recent records win).
const TRACE_RING_CAPACITY: usize = 262_144;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("f1", "Figure 1: coalition fleet operation and autonomy"),
    ("e1", "pre-action checks: direct vs indirect harm (VI.A)"),
    ("e2", "state-space checks: bad entries and dilemmas (VI.B)"),
    ("e2d", "break-glass under sensor deception (VI.B)"),
    ("e3", "deactivation and quorum kill (VI.C)"),
    ("e4", "collection formation and emergent heat (VI.D)"),
    ("e5", "tripartite governance (VI.E)"),
    ("e6", "ill-defined spaces: utility gradients (VII)"),
    ("e7", "malevolence pathways (IV)"),
    ("e8", "policy contagion (IV)"),
    ("a1", "guard-stack ablation"),
    ("a3", "tamper-proofness ablation"),
    (
        "e9",
        "tamper evidence: ledger corruption detection (VI.B audits)",
    ),
    ("e10", "observability overhead: telemetry on the hot loop"),
    (
        "e11",
        "strong scaling: two-phase parallel tick, ledger-verified",
    ),
    (
        "e12",
        "degraded comms: safety coordination under loss/partition (IV)",
    ),
    (
        "e13",
        "serving: micro-batching decision service under load (VI at fleet scale)",
    ),
    (
        "e14",
        "distributed tracing: causal propagation, critical paths, overhead",
    ),
    (
        "e15",
        "skew scheduling: deterministic work stealing and backpressure under Zipf load",
    ),
    (
        "e16",
        "crash tolerance: kill-and-resume sweep over checkpointed rotating ledgers",
    ),
    (
        "e17",
        "networked serving: framed TCP path, ledger byte-identical under chaos",
    ),
];

/// Flags specific to the `serve-net` subcommand.
#[derive(Debug, Clone, Default)]
struct NetFlags {
    /// Listen address for `serve` (`--listen`, default an ephemeral
    /// loopback port).
    listen: Option<String>,
    /// Explicit server address for `client`/`chaos` (`--connect`).
    connect: Option<String>,
    /// Rendezvous file: `serve` writes its bound address there,
    /// `client`/`chaos` poll it (`--addr-file`).
    addr_file: Option<String>,
    /// Workload client count the run is partitioned across (`--clients`).
    clients: u32,
    /// This client's partition index in `0..clients` (`--index`).
    index: u32,
    /// Chaos script name (`--kind`).
    kind: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut json = false;
    let mut quiet = false;
    let mut seed: u64 = 42;
    let mut out: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut from_snapshot = false;
    let mut threads: usize = 0;
    let mut cache = true;
    let mut smoke = false;
    let mut calibrate = false;
    let mut kill_tick: Option<u64> = None;
    let mut sched = Scheduling::Balanced;
    let mut net = NetFlags {
        clients: 1,
        ..NetFlags::default()
    };
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--from-snapshot" => from_snapshot = true,
            "--no-cache" => cache = false,
            "--smoke" => smoke = true,
            "--calibrate" => calibrate = true,
            "--sched" => match iter.next().map(String::as_str) {
                Some("static") => sched = Scheduling::Static,
                Some("balanced") => sched = Scheduling::Balanced,
                _ => {
                    eprintln!("--sched requires `static` or `balanced`");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) => threads = n,
                None => {
                    eprintln!("--threads requires an integer (0 = auto)");
                    return ExitCode::FAILURE;
                }
            },
            "--kill-tick" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(t) => kill_tick = Some(t),
                None => {
                    eprintln!("--kill-tick requires a tick number");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match iter.next() {
                Some(path) => trace = Some(path.clone()),
                None => {
                    eprintln!("--trace requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--chrome" => match iter.next() {
                Some(path) => chrome = Some(path.clone()),
                None => {
                    eprintln!("--chrome requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--listen" => match iter.next() {
                Some(addr) => net.listen = Some(addr.clone()),
                None => {
                    eprintln!("--listen requires an address");
                    return ExitCode::FAILURE;
                }
            },
            "--connect" => match iter.next() {
                Some(addr) => net.connect = Some(addr.clone()),
                None => {
                    eprintln!("--connect requires an address");
                    return ExitCode::FAILURE;
                }
            },
            "--addr-file" => match iter.next() {
                Some(path) => net.addr_file = Some(path.clone()),
                None => {
                    eprintln!("--addr-file requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--clients" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => net.clients = n,
                _ => {
                    eprintln!("--clients requires an integer >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--index" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(i) => net.index = i,
                None => {
                    eprintln!("--index requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--kind" => match iter.next() {
                Some(kind) => net.kind = Some(kind.clone()),
                None => {
                    eprintln!("--kind requires a chaos script name");
                    return ExitCode::FAILURE;
                }
            },
            other => positional.push(other.to_string()),
        }
    }

    // The `trace` subcommand is the canonical recorded scenario run under
    // `--trace`, with `--out` naming the trace file.
    if positional.first().map(String::as_str) == Some("trace") && trace.is_none() {
        trace = Some(out.clone().unwrap_or_else(|| format!("trace-{seed}.jsonl")));
    }

    // Telemetry: progress lines go to stderr (unless --quiet); --trace adds
    // a ring-buffer capture. With neither, no subscriber is installed and
    // the span!/event! call sites in the hot loop stay disabled.
    let collector = trace
        .as_ref()
        .map(|_| Rc::new(RingCollector::new(TRACE_RING_CAPACITY)));
    let mut sinks: Vec<Rc<dyn Subscriber>> = Vec::new();
    if !quiet {
        sinks.push(Rc::new(StderrSubscriber::default()));
    }
    if let Some(c) = &collector {
        sinks.push(c.clone());
    }
    let _guard = (!sinks.is_empty()).then(|| telemetry::install(Rc::new(Fanout::new(sinks))));

    let code = dispatch(
        &positional,
        seed,
        json,
        out,
        chrome,
        from_snapshot,
        threads,
        cache,
        smoke,
        calibrate,
        kill_tick,
        sched,
        &net,
    );

    // Dump even when the command failed: a trace of a failing verify run
    // carries the ledger.corruption events that explain it.
    if let (Some(path), Some(collector)) = (&trace, &collector) {
        if let Err(e) = dump_trace(path, collector) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

/// Execute the chosen subcommand.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    positional: &[String],
    seed: u64,
    json: bool,
    out: Option<String>,
    chrome: Option<String>,
    from_snapshot: bool,
    threads: usize,
    cache: bool,
    smoke: bool,
    calibrate: bool,
    kill_tick: Option<u64>,
    sched: Scheduling,
    net: &NetFlags,
) -> ExitCode {
    match positional.first().map(String::as_str) {
        Some("list") => {
            for (id, title) in EXPERIMENTS {
                println!("{id:<5} {title}");
            }
            ExitCode::SUCCESS
        }
        Some("run") => match positional.get(1).map(String::as_str) {
            Some("all") => {
                for (id, _) in EXPERIMENTS {
                    run_experiment(id, seed, json, threads, cache, None, sched);
                }
                ExitCode::SUCCESS
            }
            Some(id) if EXPERIMENTS.iter().any(|(e, _)| e == &id) => {
                run_experiment(id, seed, json, threads, cache, out.as_deref(), sched);
                ExitCode::SUCCESS
            }
            Some(other) => {
                eprintln!("unknown experiment `{other}`; see `apdm-experiments list`");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("usage: apdm-experiments run <id|all> [--seed N] [--json]");
                ExitCode::FAILURE
            }
        },
        Some("record") => {
            let spec = RecordSpec {
                seed,
                threads,
                cache,
                ..RecordSpec::default()
            };
            let recorded = run_recorded(&spec);
            let path = out.unwrap_or_else(|| format!("run-{seed}.jsonl"));
            if let Err(e) = fs::write(&path, recorded.ledger.to_jsonl()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            event!(
                Level::Info,
                "record.written",
                path = path.as_str(),
                records = recorded.ledger.len(),
                harms = recorded.metrics.harm_count(),
            );
            emit(json, &recorded.metrics);
            ExitCode::SUCCESS
        }
        Some("trace") => {
            // The traced canonical scenario; main() installed the collector
            // and writes the files after we return. Tracing stays useful at
            // any thread count: workers run with telemetry disabled, so the
            // phase spans come from the sequential commit path.
            let spec = RecordSpec {
                seed,
                threads,
                cache,
                ..RecordSpec::default()
            };
            let recorded = run_recorded(&spec);
            event!(
                Level::Info,
                "trace.run-finished",
                records = recorded.ledger.len(),
                harms = recorded.metrics.harm_count(),
            );
            emit(json, &recorded.metrics);
            ExitCode::SUCCESS
        }
        Some("verify") => {
            let Some(path) = positional.get(1) else {
                eprintln!("usage: apdm-experiments verify <ledger.jsonl | run.segNNNN.jsonl>");
                return ExitCode::FAILURE;
            };
            // A rotated run is a family of `.segNNNN.jsonl` files. If the
            // path names one of them (or their common base), verify the
            // whole chain — per-segment hash chains plus cross-segment
            // anchors — and report every segment.
            let base = segment_base(path);
            match discover_segments(&base) {
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                Ok(segs) if !segs.is_empty() => return verify_segmented(&base, &segs),
                Ok(_) => {}
            }
            match load_ledger(path) {
                Err(code) => code,
                Ok((ledger, torn)) => {
                    if torn {
                        // A torn final line is crash evidence, not tamper
                        // evidence: the recovered prefix must still chain,
                        // but the seal is legitimately missing.
                        match ledger.verify_chain() {
                            Ok(()) => {
                                println!("{ledger}: chain intact, torn tail recovered (unsealed)");
                                ExitCode::SUCCESS
                            }
                            Err(corruption) => {
                                eprintln!("{corruption}");
                                ExitCode::FAILURE
                            }
                        }
                    } else {
                        match ledger.verify() {
                            Ok(()) => {
                                println!("{ledger}: chain intact, sealed");
                                ExitCode::SUCCESS
                            }
                            Err(corruption) => {
                                eprintln!("{corruption}");
                                ExitCode::FAILURE
                            }
                        }
                    }
                }
            }
        }
        Some("replay") => {
            let Some(path) = positional.get(1) else {
                eprintln!(
                    "usage: apdm-experiments replay <ledger.jsonl> [--seed N] [--from-snapshot]"
                );
                return ExitCode::FAILURE;
            };
            let (ledger, torn) = match load_ledger(path) {
                Err(code) => return code,
                Ok(loaded) => loaded,
            };
            let spec = RecordSpec {
                seed,
                threads,
                cache,
                ..RecordSpec::default()
            };
            let start = if from_snapshot {
                ReplayStart::LatestSnapshot
            } else {
                ReplayStart::Origin
            };
            // A torn reference is a prefix of the real run: the replay will
            // legitimately run past its cut, so only the surviving prefix is
            // required to match.
            let outcome = if torn {
                replay_recorded_prefix(&spec, &ledger, start)
            } else {
                replay_recorded(&spec, &ledger, start)
            };
            match outcome {
                Err(e) => {
                    eprintln!("replay failed: {e}");
                    ExitCode::FAILURE
                }
                Ok(outcome) => {
                    println!("{}", outcome.report);
                    emit(json, &outcome.metrics);
                    if outcome.report.is_faithful() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
            }
        }
        Some("serve-bench") => {
            // `--calibrate` replaces the sweep with the wall-clock cost
            // model fit: measure real per-batch guard-stack nanoseconds and
            // print the least-squares constants plus residual error.
            if calibrate {
                let report = run_calibration(seed, 8, 1_000_000);
                if json {
                    emit(true, &report);
                } else {
                    println!(
                        "calibration: {} timed batches (seed {seed})",
                        report.samples
                    );
                    println!(
                        "  fit: batch_ns ~= {:.1} + {:.1}*hits + {:.1}*misses",
                        report.overhead_ns, report.hit_ns, report.miss_ns
                    );
                    println!(
                        "  residual: {:.1} ns rms ({:.1}% of mean batch)",
                        report.residual_rms_ns,
                        report.residual_rel * 100.0
                    );
                    let m = &report.fitted;
                    println!(
                        "fitted CostModel (1 unit = one cache hit, tick budget {} ns):",
                        report.tick_budget_ns
                    );
                    println!(
                        "  capacity_per_tick={} batch_overhead={} cost_hit={} cost_miss={}",
                        m.capacity_per_tick, m.batch_overhead, m.cost_hit, m.cost_miss
                    );
                }
                return ExitCode::SUCCESS;
            }
            // The serving-layer load sweep (experiment E13), runnable
            // without the criterion harness. `--smoke` is the CI shape:
            // short arrival window, one underloaded and one overloaded
            // point.
            let cfg = E13Config {
                seed,
                threads,
                ..if smoke {
                    E13Config::smoke()
                } else {
                    E13Config::default()
                }
            };
            let report = run_e13(&cfg);
            if json {
                emit(true, &report);
            } else {
                report.print_table();
            }
            if let Some(path) = out {
                if let Err(e) = write_report(&path, &report) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                if !json {
                    println!("report written to {path}");
                }
            }
            ExitCode::SUCCESS
        }
        Some("trace-analyze") => {
            let Some(path) = positional.get(1) else {
                eprintln!(
                    "usage: apdm-experiments trace-analyze <trace.jsonl> [--chrome out.json]"
                );
                return ExitCode::FAILURE;
            };
            trace_analyze(path, chrome.as_deref())
        }
        Some("checkpoint") => {
            let cfg = E16Config {
                seed,
                ..E16Config::smoke()
            };
            let base = out.unwrap_or_else(|| format!("e16-{seed}"));
            checkpoint_cmd(&cfg, sched, kill_tick, &base)
        }
        Some("resume") => {
            let Some(base) = positional.get(1) else {
                eprintln!("usage: apdm-experiments resume <base> [--seed N] [--out base2]");
                return ExitCode::FAILURE;
            };
            let cfg = E16Config {
                seed,
                ..E16Config::smoke()
            };
            let out_base = out.unwrap_or_else(|| format!("{base}-resumed"));
            resume_cmd(&cfg, sched, base, &out_base)
        }
        Some("serve-net") => {
            let cfg = E17Config {
                seed,
                ..if smoke {
                    E17Config::smoke()
                } else {
                    E17Config::default()
                }
            };
            serve_net_cmd(positional.get(1).map(String::as_str), &cfg, out, net)
        }
        _ => {
            eprintln!(
                "usage: apdm-experiments \
                 <list|run|record|verify|replay|trace|serve-bench|trace-analyze\
                 |checkpoint|resume|serve-net> ..."
            );
            ExitCode::FAILURE
        }
    }
}

/// How long `client`/`chaos` poll the `--addr-file` rendezvous before
/// giving up, and how long workload clients wait for the run to finish.
const NET_RENDEZVOUS: std::time::Duration = std::time::Duration::from_secs(20);
const NET_DEADLINE: std::time::Duration = std::time::Duration::from_secs(120);

/// Resolve the server address for `serve-net client`/`chaos`: an explicit
/// `--connect`, or polling the `--addr-file` the server writes on bind.
fn resolve_addr(net: &NetFlags) -> Result<String, String> {
    if let Some(addr) = &net.connect {
        return Ok(addr.clone());
    }
    let Some(path) = &net.addr_file else {
        return Err("need --connect ADDR or --addr-file PATH".to_string());
    };
    let deadline = std::time::Instant::now() + NET_RENDEZVOUS;
    loop {
        if let Ok(text) = fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!("timed out waiting for server address in {path}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// The multi-process face of experiment E17 (see `docs/PROTOCOL.md`).
fn serve_net_cmd(
    mode: Option<&str>,
    cfg: &E17Config,
    out: Option<String>,
    net: &NetFlags,
) -> ExitCode {
    match mode {
        Some("serve") => {
            let listen = net.listen.as_deref().unwrap_or("127.0.0.1:0");
            let listener = match std::net::TcpListener::bind(listen) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot bind {listen}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = match listener.local_addr() {
                Ok(a) => a.to_string(),
                Err(e) => {
                    eprintln!("cannot read bound address: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Write-then-rename so pollers never see a partial address.
            if let Some(path) = &net.addr_file {
                let tmp = format!("{path}.tmp");
                if let Err(e) =
                    fs::write(&tmp, &addr).and_then(|()| fs::rename(&tmp, path.as_str()))
                {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            eprintln!(
                "serving on {addr} ({} workload clients expected)",
                net.clients
            );
            let svc = build_service(cfg.serve_config(), &cfg.run_name());
            let outcome = match serve(listener, svc, cfg.net_config(net.clients)) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = outcome.ledger.verify() {
                eprintln!("served ledger corrupt: {e}");
                return ExitCode::FAILURE;
            }
            if outcome.audit.verify().is_err() {
                eprintln!("boundary audit ledger corrupt");
                return ExitCode::FAILURE;
            }
            let base = out.unwrap_or_else(|| format!("e17-{}", cfg.seed));
            if let Err(e) = write_segments(&base, &outcome.ledger.to_jsonl_segments()) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            println!(
                "sealed at tick {}: {} decisions delivered, {} rejects, {} drops, \
                 {} segments, head {:016x} -> {base}.seg*.jsonl",
                outcome.final_tick,
                outcome.decisions_sent,
                outcome.rejects,
                outcome.drops,
                outcome.ledger.segments().len(),
                outcome.ledger.head_digest(),
            );
            ExitCode::SUCCESS
        }
        Some("client") => {
            let addr = match resolve_addr(net) {
                Ok(addr) => addr,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if net.index >= net.clients {
                eprintln!("--index {} out of range 0..{}", net.index, net.clients);
                return ExitCode::FAILURE;
            }
            match run_workload_client(
                &addr,
                cfg.spec(),
                net.index,
                net.clients,
                None,
                NET_DEADLINE,
            ) {
                Ok(report) => {
                    println!(
                        "client {}/{}: {} requests sent, {} decisions returned",
                        net.index,
                        net.clients,
                        report.sent,
                        report.decisions.len(),
                    );
                    if report.decisions.len() as u64 == report.sent {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("decision stream incomplete");
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("client failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("chaos") => {
            let Some(kind) = net.kind.as_deref().and_then(ChaosKind::parse) else {
                let names: Vec<&str> = ChaosKind::all().iter().map(|k| k.name()).collect();
                eprintln!("--kind must be one of: {}", names.join(", "));
                return ExitCode::FAILURE;
            };
            let addr = match resolve_addr(net) {
                Ok(addr) => addr,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            match run_chaos_client(&addr, kind) {
                Ok(report) => {
                    println!(
                        "chaos {}: closed with {:?}, {} fail-closed denies",
                        kind.name(),
                        report.closed_code,
                        report.denies,
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("chaos {} failed: {e}", kind.name());
                    ExitCode::FAILURE
                }
            }
        }
        Some("golden") => {
            let base = out.unwrap_or_else(|| format!("e17-{}-golden", cfg.seed));
            let segments = golden_segments(cfg);
            if let Err(e) = write_segments(&base, &segments) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            println!(
                "golden in-process run: {} segments -> {base}.seg*.jsonl",
                segments.len(),
            );
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: apdm-experiments serve-net <serve|client|chaos|golden> \
                 [--listen A] [--connect A] [--addr-file P] [--clients N] \
                 [--index I] [--kind K] [--smoke] [--out base]"
            );
            ExitCode::FAILURE
        }
    }
}

/// Strip a `.segNNNN.jsonl` suffix, mapping any member of a rotated-run
/// file family to the family's base path; other paths pass through.
fn segment_base(path: &str) -> String {
    if let Some(pos) = path.rfind(".seg") {
        if let Some(digits) = path[pos + 4..].strip_suffix(".jsonl") {
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                return path[..pos].to_string();
            }
        }
    }
    path.to_string()
}

/// Find every `base.segNNNN.jsonl` sibling on disk, sorted by segment
/// index. An unreadable directory is treated as "no family" (the caller
/// falls back to single-file handling); an unreadable family member is a
/// hard error.
fn discover_segments(base: &str) -> Result<Vec<(u64, String)>, String> {
    let path = std::path::Path::new(base);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    let Some(stem) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Ok(Vec::new());
    };
    let prefix = format!("{stem}.seg");
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let mut segs = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(digits) = rest.strip_suffix(".jsonl") else {
            continue;
        };
        let Ok(index) = digits.parse::<u64>() else {
            continue;
        };
        let text = fs::read_to_string(entry.path())
            .map_err(|e| format!("cannot read {}: {e}", entry.path().display()))?;
        segs.push((index, text));
    }
    segs.sort_by_key(|(index, _)| *index);
    Ok(segs)
}

/// Write a rotated run's segments as a `base.segNNNN.jsonl` file family.
fn write_segments(base: &str, segs: &[(u64, String)]) -> Result<(), String> {
    for (index, text) in segs {
        let path = format!("{base}.seg{index:04}.jsonl");
        fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Verify a rotated run end to end and print one line per retained
/// segment. Any unparseable, chain-broken, or mis-anchored segment makes
/// the whole command fail.
fn verify_segmented(base: &str, segs: &[(u64, String)]) -> ExitCode {
    let mut ledgers = Vec::new();
    let mut failed = false;
    for (index, text) in segs {
        match Ledger::from_jsonl(text) {
            Ok(ledger) => ledgers.push(ledger),
            Err(e) => {
                eprintln!("segment {index:04}: unparseable: {e}");
                failed = true;
            }
        }
    }
    if failed || ledgers.is_empty() {
        return ExitCode::FAILURE;
    }
    let ledger = SegmentedLedger::from_segments(ledgers);
    for report in ledger.verify_report() {
        match &report.error {
            None => println!(
                "segment {:04}: {} records, head {:016x}: ok",
                report.segment, report.records, report.head
            ),
            Some(corruption) => {
                eprintln!(
                    "segment {:04}: {} records, head {:016x}: {corruption}",
                    report.segment, report.records, report.head
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "{base}: {} segments intact ({} pruned), {} records, anchored head {:016x}",
            ledger.segments().len(),
            ledger.pruned_count(),
            ledger.total_records(),
            ledger.head_digest(),
        );
        ExitCode::SUCCESS
    }
}

/// Run the canonical rotating serve cell (E16 smoke shape) and write its
/// segment files: the sealed golden run, or — with a kill tick — the
/// exact bytes a SIGKILLed process would leave behind.
fn checkpoint_cmd(
    cfg: &E16Config,
    sched: Scheduling,
    kill_tick: Option<u64>,
    base: &str,
) -> ExitCode {
    let budget = cfg.budgets[0];
    let mut disk = SimDisk::default();
    let mut killed: Option<SimDisk> = None;
    let run = run_cell(
        cfg.spec(budget),
        cfg.serve_config(budget, sched, 1),
        &cfg.run_name(budget),
        cfg.max_ticks,
        |now, rec| {
            disk.persist(rec);
            if kill_tick == Some(now) {
                killed = Some(disk.clone());
            }
        },
    );
    if let Some(trip) = run.watchdog {
        eprintln!("{}: {trip}", cfg.run_name(budget));
        return ExitCode::FAILURE;
    }
    let final_tick = run.final_tick;
    match kill_tick {
        Some(tick) => {
            let Some(killed) = killed else {
                eprintln!("--kill-tick {tick} is past the run's final tick {final_tick}");
                return ExitCode::FAILURE;
            };
            let segs: Vec<(u64, String)> = killed
                .files()
                .iter()
                .map(|(&index, text)| (index, text.clone()))
                .collect();
            if let Err(e) = write_segments(base, &segs) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            println!(
                "killed at tick {tick}: {} segment files -> {base}.seg*.jsonl \
                 (open tail; recover with `apdm-experiments resume {base}`)",
                segs.len(),
            );
        }
        None => {
            let ledger = &run.ledger;
            if let Err(e) = write_segments(base, &ledger.to_jsonl_segments()) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            println!(
                "golden run sealed at tick {final_tick}: {} decisions, {} segments \
                 ({} pruned), head {:016x} -> {base}.seg*.jsonl",
                run.decisions.len(),
                ledger.segments().len(),
                ledger.pruned_count(),
                ledger.head_digest(),
            );
        }
    }
    ExitCode::SUCCESS
}

/// Recover a crashed run from its `base.segNNNN.jsonl` files, replay the
/// suffix to completion, and write the resumed run's sealed segments.
fn resume_cmd(cfg: &E16Config, sched: Scheduling, base: &str, out_base: &str) -> ExitCode {
    let segs = match discover_segments(base) {
        Ok(segs) if !segs.is_empty() => segs,
        Ok(_) => {
            eprintln!("no {base}.seg*.jsonl files found");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut disk = SimDisk::default();
    for (index, text) in segs {
        disk.insert(index, text);
    }
    let budget = cfg.budgets[0];
    let (ledger, decisions, start, discarded) = resume_run(cfg, budget, sched, 1, &disk);
    if let Err(e) = ledger.verify() {
        eprintln!("resumed ledger corrupt: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = write_segments(out_base, &ledger.to_jsonl_segments()) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if start > 1 {
        println!(
            "resumed from the checkpoint at tick {} ({discarded} on-disk records \
             discarded and regenerated by replay)",
            start - 1,
        );
    } else {
        println!("no usable checkpoint survived: restarted from tick 1 ({discarded} discarded)");
    }
    println!(
        "{} decisions replayed; {} sealed segments ({} pruned), head {:016x} \
         -> {out_base}.seg*.jsonl",
        decisions.len(),
        ledger.segments().len(),
        ledger.pruned_count(),
        ledger.head_digest(),
    );
    ExitCode::SUCCESS
}

/// Rebuild the span DAG from an exported trace, print every trace's
/// critical path, and optionally write the multi-device Chrome timeline.
/// Fails when the export carries no trace contexts or any delivered span
/// names a parent that was never recorded.
fn trace_analyze(path: &str, chrome: Option<&str>) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let records = match telemetry::import_jsonl(&text) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let graph = telemetry::TraceGraph::build(&records);
    if graph.is_empty() {
        eprintln!("{path}: no trace-context records (was the run traced?)");
        return ExitCode::FAILURE;
    }
    let unresolved = graph.unresolved_parents();
    println!(
        "{path}: {} records, {} traces, {} span nodes, {} unresolved parents",
        records.len(),
        graph.traces().len(),
        graph.node_count(),
        unresolved.len(),
    );
    for trace in graph.traces() {
        if let Some(p) = graph.critical_path(trace) {
            print!("{}", p.render());
        }
    }
    if let Some(chrome_path) = chrome {
        if let Err(e) = fs::write(chrome_path, telemetry::export_chrome_devices(&records)) {
            eprintln!("cannot write {chrome_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("device timeline written to {chrome_path} (load in chrome://tracing)");
    }
    if unresolved.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (trace, span, parent) in unresolved {
            eprintln!("trace {trace:016x}: span {span:016x} orphaned (parent {parent:016x})");
        }
        ExitCode::FAILURE
    }
}

/// Write the captured trace as JSONL plus a Chrome `trace_event` document,
/// and print the percentile summary table.
fn dump_trace(path: &str, collector: &RingCollector) -> Result<(), String> {
    let records = collector.records();
    fs::write(path, telemetry::export_jsonl(&records))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let chrome_path = format!("{path}.chrome.json");
    fs::write(&chrome_path, telemetry::export_chrome(&records))
        .map_err(|e| format!("cannot write {chrome_path}: {e}"))?;
    println!(
        "trace: {} records -> {path}, {chrome_path} (load in chrome://tracing){}",
        records.len(),
        if collector.dropped() > 0 {
            format!(
                "; {} oldest records evicted by the ring bound",
                collector.dropped()
            )
        } else {
            String::new()
        }
    );
    if let Some(registry) = telemetry::current_registry() {
        print!("{}", registry.render_summary());
    }
    Ok(())
}

/// Load a ledger crash-safely: a torn final JSONL line (interrupted write)
/// is dropped with a warning and reported as `true`; damage anywhere else
/// stays a hard error.
fn load_ledger(path: &str) -> Result<(Ledger, bool), ExitCode> {
    let text = fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    let (ledger, torn) = Ledger::from_jsonl_recovering(&text).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })?;
    if let Some(tail) = &torn {
        eprintln!("warning: {path}: {tail}");
    }
    Ok((ledger, torn.is_some()))
}

fn emit<T: serde::Serialize + std::fmt::Debug>(json: bool, value: &T) {
    if json {
        println!(
            "{}",
            serde_json::to_string(value).expect("serializable report")
        );
    } else {
        println!("{value:#?}");
    }
}

/// Run each cell across the fan-out pool, then emit reports in table
/// order. Workers run with telemetry disabled, so progress lines from
/// inside a cell only appear at `--threads 1`; results are unaffected.
fn sweep<C, R, F>(runner: &ParRunner, json: bool, cells: Vec<C>, f: F)
where
    C: Send,
    R: serde::Serialize + std::fmt::Debug + Send,
    F: Fn(C) -> R + Sync,
{
    for report in runner.map(cells, |_, cell| f(cell)) {
        emit(json, &report);
    }
}

fn run_experiment(
    id: &str,
    seed: u64,
    json: bool,
    threads: usize,
    cache: bool,
    out: Option<&str>,
    sched: Scheduling,
) {
    if !json {
        let title = EXPERIMENTS
            .iter()
            .find(|(e, _)| e == &id)
            .map(|(_, t)| *t)
            .unwrap_or("");
        event!(
            Level::Info,
            "experiment.start",
            id = id,
            title = title,
            seed = seed
        );
    }
    let runner = ParRunner::new(threads);
    match id {
        "f1" => sweep(&runner, json, vec![8usize, 32], |n| {
            run_surveillance(n, 300, seed)
        }),
        "e1" => sweep(&runner, json, E1Arm::all().to_vec(), |arm| {
            run_e1(arm, 12, 12, 100, seed)
        }),
        "e2" => sweep(&runner, json, E2Arm::all().to_vec(), |arm| {
            run_e2(arm, 16, 80, seed)
        }),
        "e2d" => sweep(&runner, json, E2dArm::all().to_vec(), |arm| {
            run_e2d(arm, 400, 0.3, seed)
        }),
        "e3" => sweep(&runner, json, E3Arm::all().to_vec(), |arm| {
            run_e3(arm, 12, 0.3, 100, seed)
        }),
        "e4" => sweep(&runner, json, E4Arm::all().to_vec(), |arm| {
            run_e4(arm, 6, 2.5, 10.0, 50, seed)
        }),
        "e5" => {
            let mut cells = Vec::new();
            for corrupted in 0..=2usize {
                for arm in E5Arm::all() {
                    cells.push((arm, corrupted));
                }
            }
            sweep(&runner, json, cells, |(arm, corrupted)| {
                run_e5(arm, corrupted, 400, seed)
            });
        }
        "e6" => sweep(&runner, json, E6Arm::all().to_vec(), |arm| {
            run_e6(arm, 6, 40, 60, seed)
        }),
        "e7" => {
            let mut cells = Vec::new();
            for pathway in Pathway::all() {
                for guarded in [false, true] {
                    cells.push((pathway, guarded));
                }
            }
            sweep(&runner, json, cells, |(pathway, guarded)| {
                run_e7(pathway, guarded, 4, 100, seed)
            });
        }
        "e8" => sweep(&runner, json, ContagionArm::all().to_vec(), |arm| {
            run_contagion(arm, 16, 40, seed)
        }),
        "a1" => sweep(&runner, json, GuardMask::all().to_vec(), |mask| {
            run_a1(mask, 60, seed)
        }),
        "a3" => sweep(&runner, json, vec![0.0f64, 0.01, 0.05, 0.2], |p| {
            run_a3(p, 5, 200, seed)
        }),
        "e9" => {
            emit(json, &run_e9(100, seed));
        }
        "e10" => {
            // 600 ticks matches the bench table; shorter trials are too
            // noisy for a single-digit-percent overhead measurement. Timing
            // experiments never go through the fan-out pool.
            emit(json, &run_e10(8, 600, TRACE_RING_CAPACITY, seed));
        }
        "e11" => {
            emit(
                json,
                &run_e11(&[8, 24, 48, 96], &[1, 2, 4, 8], 200, seed, cache),
            );
        }
        "e12" => {
            let cfg = E12Config {
                seed,
                threads,
                ..E12Config::default()
            };
            if let Some(path) = out {
                // Smoke mode for CI: run the canonical lossy cell only and
                // write its sealed ledger for the byte-for-byte determinism
                // check across thread counts.
                let (report, ledger) = run_e12_cell(&cfg, 0.3, 30, FailMode::Closed);
                if let Err(e) = fs::write(path, ledger.to_jsonl()) {
                    eprintln!("cannot write {path}: {e}");
                    return;
                }
                emit(json, &report);
            } else {
                emit(
                    json,
                    &run_e12(&cfg, &[0.0, 0.1, 0.3, 0.6], &[0, 20, 60], threads),
                );
            }
        }
        "e13" => {
            emit(
                json,
                &run_e13(&E13Config {
                    seed,
                    threads,
                    ..E13Config::default()
                }),
            );
        }
        "e14" => {
            let cfg = E14Config {
                seed,
                threads,
                ..E14Config::default()
            };
            if let Some(path) = out {
                // Record mode for `trace-analyze` and CI: run the fully
                // traced variant once and write its record stream as JSONL.
                let (report, records) = run_e14_mode(&cfg, TraceMode::Full);
                if let Err(e) = fs::write(path, telemetry::export_jsonl(&records)) {
                    eprintln!("cannot write {path}: {e}");
                    return;
                }
                emit(json, &report);
            } else {
                emit(json, &run_e14(&cfg));
            }
        }
        "e15" => {
            let cfg = E15Config {
                seed,
                threads,
                ..E15Config::default()
            };
            if let Some(path) = out {
                // Smoke mode for CI: run the canonical skewed cell only
                // (Zipf 1.2, smoke shape) under the requested `--sched`
                // and write its sealed ledger — CI `cmp`s the static and
                // balanced files byte for byte.
                let cfg = E15Config {
                    seed,
                    threads,
                    ..E15Config::smoke()
                };
                let cell_threads = if threads == 0 { 3 } else { threads };
                let (report, ledger) = run_e15_cell(&cfg, 1.2, sched, cell_threads);
                if let Err(e) = fs::write(path, ledger.to_jsonl()) {
                    eprintln!("cannot write {path}: {e}");
                    return;
                }
                emit(json, &report);
            } else {
                emit(json, &run_e15(&cfg));
            }
        }
        "e16" => {
            if let Some(path) = out {
                // Smoke mode for CI: run the canonical rotating cell only
                // (one budget, smoke shape) under the requested `--sched`,
                // sweep every kill point against it, and write the golden
                // sealed segment files — CI `cmp`s the static and balanced
                // families byte for byte and `verify`s the chain.
                let cfg = E16Config {
                    seed,
                    threads,
                    ..E16Config::smoke()
                };
                let (report, ledger) = run_e16_cell(&cfg, cfg.budgets[0], sched);
                if let Err(e) = write_segments(path, &ledger.to_jsonl_segments()) {
                    eprintln!("{e}");
                    return;
                }
                emit(json, &report);
            } else {
                let cfg = E16Config {
                    seed,
                    threads,
                    ..E16Config::default()
                };
                emit(json, &run_e16(&cfg));
            }
        }
        "e17" => {
            // The TCP sweep drives its own loopback threads; `threads` (the
            // in-service worker pool) stays 1 so the ledger matches the
            // golden in-process run byte for byte.
            match run_e17(&E17Config {
                seed,
                ..E17Config::default()
            }) {
                Ok(report) => emit(json, &report),
                Err(e) => eprintln!("e17 failed: {e}"),
            }
        }
        _ => unreachable!("validated above"),
    }
}
