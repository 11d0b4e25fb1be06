//! Experiment E17: the TCP path must be invisible in the ledger.
//!
//! For a fixed seeded workload, the decision stream and the sealed
//! segmented-ledger bytes produced by driving the service over TCP — N
//! concurrent workload clients, each submitting its partition, with a
//! pack of chaos clients throwing garbage at the same socket — must be
//! **identical** to the in-process path, modulo within-tick arrival order
//! (which the server's deterministic sort and the admission lanes' drain
//! resolve). Malformed, slow, and disconnecting clients must never crash
//! the server, never reach a guard stack, and never produce an unaudited
//! rejection.
//!
//! Each cell: one golden in-process run ([`run_cell`]) and one
//! TCP run over a loopback listener with `clients` workload drivers in
//! their own threads (the CI smoke repeats this with real separate
//! processes via the `serve-net` CLI). With chaos enabled, every
//! [`ChaosKind`] runs one scripted connection concurrently with the
//! workload. A separate single-client probe runs traced and asserts the
//! causal chain spans client → wire → service → wire → client.

use std::io;
use std::net::TcpListener;
use std::rc::Rc;
use std::thread;
use std::time::{Duration, Instant};

use apdm_ledger::RotationPolicy;
use apdm_net::{
    run_chaos_client, run_workload_client, serve, ChaosKind, ClientReport, DecisionSnap,
    NetServerConfig, ServeOutcome,
};
use apdm_serve::{ServeConfig, WorkloadSpec};
use apdm_telemetry::{self as telemetry, trace_id, RingCollector, TraceContext, TraceSampler};
use serde::{Deserialize, Serialize};

use crate::cell::{build_service, run_cell};

/// Sweep configuration for experiment E17.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E17Config {
    /// Master seed shared by the workload and both serving paths.
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
    /// Zipf exponent of the device draw.
    pub zipf: f64,
    /// Rotation budget (records per segment) of the segmented ledger.
    pub budget: usize,
    /// Sealed segments retained by rotation (0 = keep everything).
    pub keep_sealed: usize,
    /// Client counts to sweep: each cell drives the same workload split
    /// across this many concurrent connections.
    pub clients: Vec<u32>,
    /// Run the chaos pack (one connection per [`ChaosKind`]) alongside
    /// every cell's workload.
    pub chaos: bool,
    /// Watchdog budget in ticks per run.
    pub max_ticks: u64,
}

impl Default for E17Config {
    fn default() -> Self {
        E17Config {
            seed: 42,
            per_tick: 6,
            arrival_ticks: 48,
            devices: 48,
            tenants: 4,
            shards: 4,
            zipf: 0.6,
            budget: 48,
            keep_sealed: 3,
            clients: vec![1, 2, 4],
            chaos: true,
            max_ticks: 4_000,
        }
    }
}

impl E17Config {
    /// A fast configuration for CI smoke runs.
    pub fn smoke() -> Self {
        E17Config {
            arrival_ticks: 16,
            clients: vec![2],
            ..E17Config::default()
        }
    }

    /// The workload both paths replay.
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            seed: self.seed,
            per_tick: self.per_tick,
            arrival_ticks: self.arrival_ticks,
            devices: self.devices,
            tenants: self.tenants,
            zipf: self.zipf,
            ..WorkloadSpec::default()
        }
    }

    /// The service configuration both paths run.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            seed: self.seed,
            threads: 1,
            shards: self.shards,
            cache: true,
            backpressure: true,
            rotation: Some(RotationPolicy {
                max_records: self.budget,
                max_bytes: 0,
                keep_sealed: self.keep_sealed,
            }),
            ..ServeConfig::default()
        }
    }

    /// Ledger run name shared by both paths (byte-identity requires it).
    pub fn run_name(&self) -> String {
        format!("e17/b{}", self.budget)
    }

    /// The network-facing run parameters for one cell.
    pub fn net_config(&self, clients: u32) -> NetServerConfig {
        NetServerConfig {
            clients,
            arrival_ticks: self.arrival_ticks,
            max_ticks: self.max_ticks,
            seed: self.seed,
            barrier_timeout: Duration::from_secs(30),
            ..NetServerConfig::default()
        }
    }
}

/// Measurements of one E17 cell (one client count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E17CellReport {
    /// Concurrent workload connections driving the cell.
    pub clients: u32,
    /// Whether the chaos pack ran alongside.
    pub chaos: bool,
    /// Requests offered by the generator.
    pub offered: u64,
    /// Requests evaluated by a guard stack.
    pub decided: u64,
    /// Requests refused by admission (all reasons).
    pub shed: u64,
    /// Decisions delivered back across connections (must equal `offered`).
    pub returned: u64,
    /// Sealed segmented-ledger bytes identical to the in-process run.
    pub ledger_identical: bool,
    /// Decision stream (keyed by request id) identical to the in-process
    /// run.
    pub decisions_identical: bool,
    /// Segments in the sealed ledger.
    pub segments: u64,
    /// Head digest of the final segment.
    pub final_head: u64,
    /// Tick at which the ledger sealed.
    pub final_tick: u64,
    /// Attributable bad requests answered with fail-closed denies.
    pub rejects: u64,
    /// Connections dropped for unattributable garbage.
    pub drops: u64,
    /// Records in the boundary audit ledger.
    pub audit_records: u64,
    /// The audit ledger's hash chain and seal verified.
    pub audit_verified: bool,
    /// Rejections (denies + drops) missing an audit record — must be 0.
    pub unaudited: u64,
    /// Decisions that could not be delivered (peer gone) — 0 without
    /// chaos-induced departures of workload clients, i.e. always here.
    pub undelivered: u64,
    /// Wall-clock for the cell. Not part of the determinism contract.
    pub wall_ns: u64,
}

/// The full E17 report (serialized to `BENCH_e17_net.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E17Report {
    /// The sweep configuration.
    pub config: E17Config,
    /// One report per client count, in sweep order.
    pub cells: Vec<E17CellReport>,
    /// The traced probe proved the causal chain spans
    /// client → wire → service → wire → client.
    pub trace_spans_wire: bool,
    /// Wall-clock for the whole sweep. Not deterministic.
    pub wall_ns: u64,
}

impl E17Report {
    /// Every acceptance gate of the experiment, as one predicate.
    pub fn holds(&self) -> bool {
        self.trace_spans_wire
            && !self.cells.is_empty()
            && self.cells.iter().all(|c| {
                c.ledger_identical
                    && c.decisions_identical
                    && c.returned == c.offered
                    && c.unaudited == 0
                    && c.undelivered == 0
                    && c.audit_verified
            })
    }
}

/// The golden in-process run every cell is compared against.
struct Golden {
    decisions: Vec<DecisionSnap>,
    segments: Vec<(u64, String)>,
    offered: u64,
    decided: u64,
    shed: u64,
}

fn golden_run(cfg: &E17Config) -> Golden {
    let run = run_cell(
        cfg.spec(),
        cfg.serve_config(),
        &cfg.run_name(),
        cfg.max_ticks,
        |_, _| {},
    );
    if let Some(trip) = run.watchdog {
        panic!("{}: golden run: {trip}", cfg.run_name());
    }
    let mut snaps: Vec<DecisionSnap> = run.decisions.iter().map(DecisionSnap::from).collect();
    snaps.sort_by_key(|d| d.request_id);
    Golden {
        decisions: snaps,
        segments: run.ledger.to_jsonl_segments(),
        offered: run.offered,
        decided: run.stats.decided,
        shed: run.stats.shed_total(),
    }
}

/// Spawn the server thread of one TCP run: the golden run's service,
/// served over `listener` to `clients` workload connections.
fn spawn_server(
    cfg: &E17Config,
    listener: TcpListener,
    clients: u32,
) -> thread::JoinHandle<io::Result<ServeOutcome>> {
    let (serve_cfg, name, net_cfg) = (cfg.serve_config(), cfg.run_name(), cfg.net_config(clients));
    thread::spawn(move || serve(listener, build_service(serve_cfg, &name), net_cfg))
}

/// The sealed segmented-ledger bytes of the in-process golden run — what
/// the `serve-net golden` CLI writes and the CI smoke `cmp`s the TCP
/// server's output against.
pub fn golden_segments(cfg: &E17Config) -> Vec<(u64, String)> {
    golden_run(cfg).segments
}

/// Drive one TCP run: a loopback server plus `clients` workload threads
/// (and the chaos pack when enabled).
fn net_run(
    cfg: &E17Config,
    clients: u32,
    chaos: bool,
) -> io::Result<(ServeOutcome, Vec<ClientReport>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let server = spawn_server(cfg, listener, clients);

    let mut workers = Vec::new();
    for index in 0..clients {
        let addr = addr.clone();
        let spec = cfg.spec();
        workers.push(thread::spawn(move || {
            run_workload_client(&addr, spec, index, clients, None, Duration::from_secs(120))
        }));
    }
    let mut chaos_threads = Vec::new();
    if chaos {
        for kind in ChaosKind::all() {
            let addr = addr.clone();
            chaos_threads.push(thread::spawn(move || run_chaos_client(&addr, kind)));
        }
    }

    let mut reports = Vec::new();
    for w in workers {
        reports.push(
            w.join()
                .map_err(|_| io::Error::other("client panicked"))??,
        );
    }
    // Chaos denies also appear in the server's `rejects`; the clients'
    // own reports only need to come back without error.
    for c in chaos_threads {
        c.join().map_err(|_| io::Error::other("chaos panicked"))??;
    }
    let outcome = server
        .join()
        .map_err(|_| io::Error::other("server panicked"))??;
    Ok((outcome, reports))
}

/// Run one cell and compare it against the golden run.
fn net_cell(cfg: &E17Config, golden: &Golden, clients: u32) -> io::Result<E17CellReport> {
    let started = Instant::now();
    let (outcome, reports) = net_run(cfg, clients, cfg.chaos)?;

    let mut snaps: Vec<DecisionSnap> = reports
        .iter()
        .flat_map(|r| r.decisions.iter().map(DecisionSnap::from))
        .collect();
    snaps.sort_by_key(|d| d.request_id);
    let returned: u64 = reports.iter().map(|r| r.sent).sum();

    // Every chaos rejection (deny or drop) must have an audit record; the
    // audit ledger also notes joins/departures, so count the rejection
    // records specifically.
    let audited_rejections = outcome
        .audit
        .records()
        .iter()
        .filter(|r| match &r.event {
            apdm_ledger::RunEvent::Audit(entry) => {
                entry.detail.starts_with("fail-closed deny") || entry.detail.starts_with("drop ")
            }
            _ => false,
        })
        .count() as u64;

    Ok(E17CellReport {
        clients,
        chaos: cfg.chaos,
        offered: golden.offered,
        decided: golden.decided,
        shed: golden.shed,
        returned,
        ledger_identical: outcome.ledger.to_jsonl_segments() == golden.segments,
        decisions_identical: snaps == golden.decisions,
        segments: outcome.ledger.segments().len() as u64,
        final_head: outcome.ledger.head_digest(),
        final_tick: outcome.final_tick,
        rejects: outcome.rejects,
        drops: outcome.drops,
        audit_records: outcome.audit.len() as u64,
        audit_verified: outcome.audit.verify().is_ok(),
        unaudited: (outcome.rejects + outcome.drops).saturating_sub(audited_rejections),
        undelivered: outcome.decisions_dropped,
        wall_ns: telemetry::elapsed_ns(started),
    })
}

/// Run the traced probe: one client, sampling everything, collecting the
/// client-side trace. Proves the context survives both wire crossings:
/// the decision's context has the request's trace id but a span deeper
/// than (and causally downstream of) the client's root.
fn traced_probe(cfg: &E17Config) -> io::Result<bool> {
    let probe = E17Config {
        arrival_ticks: 4,
        chaos: false,
        clients: vec![1],
        ..cfg.clone()
    };
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let server = spawn_server(&probe, listener, 1);

    let spec = probe.spec();
    let seed = spec.seed;
    let collector = Rc::new(RingCollector::new(4096));
    let guard = telemetry::install(collector.clone());
    let report = run_workload_client(
        &addr,
        spec,
        0,
        1,
        Some(TraceSampler::always()),
        Duration::from_secs(60),
    )?;
    drop(guard);
    server
        .join()
        .map_err(|_| io::Error::other("server panicked"))??;

    // The decision context must belong to the trace minted for its
    // request and sit strictly below the client's root span.
    let chain_ok = !report.decisions.is_empty()
        && report.decisions.iter().all(|d| {
            let root = TraceContext::root(trace_id(seed, d.request_id), true);
            d.ctx.is_some_and(|ctx| {
                ctx.trace_id == root.trace_id && ctx.span_id != root.span_id && ctx.parent_id != 0
            })
        });
    // And the client-side export must hold both wire endpoints of a chain:
    // a `client.send` root and a `client.recv` in the same trace.
    let records = collector.records();
    let sends = records
        .iter()
        .filter(|r| r.name.as_ref() == "client.send")
        .count();
    let recvs = records
        .iter()
        .filter(|r| r.name.as_ref() == "client.recv")
        .count();
    Ok(chain_ok && sends as u64 == report.sent && recvs as u64 == report.sent)
}

/// Run the full E17 sweep.
pub fn run_e17(cfg: &E17Config) -> io::Result<E17Report> {
    let started = Instant::now();
    let golden = golden_run(cfg);
    let mut cells = Vec::new();
    for &clients in &cfg.clients {
        cells.push(net_cell(cfg, &golden, clients)?);
    }
    let trace_spans_wire = traced_probe(cfg)?;
    Ok(E17Report {
        config: cfg.clone(),
        cells,
        trace_spans_wire,
        wall_ns: telemetry::elapsed_ns(started),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cell_is_byte_identical_and_survives_chaos() {
        let cfg = E17Config::smoke();
        let report = run_e17(&cfg).expect("e17 runs");
        assert!(report.holds(), "acceptance failed: {report:?}");
        let cell = &report.cells[0];
        assert!(cell.ledger_identical, "ledger diverged");
        assert!(cell.decisions_identical, "decision stream diverged");
        assert_eq!(cell.returned, cell.offered);
        assert_eq!(cell.unaudited, 0, "unaudited rejection");
        // The chaos pack really did get rejected (and audited).
        assert!(cell.rejects >= 1, "unauthorized probe was not denied");
        assert!(cell.drops >= 4, "garbage connections were not dropped");
        assert!(report.trace_spans_wire, "trace chain broken across wire");
    }
}
