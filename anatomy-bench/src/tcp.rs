//! TCP serving: one round runs `apdm_net::serve` on a loopback listener and
//! drives it with two lockstep workload clients in this process.
//!
//! The clients speak the protocol through the crate's public codec
//! (`connect_with_retry`, `write_frame`, `read_frame`, the wire payloads)
//! exactly as `apdm_net::run_workload_client` does — one `write_frame` per
//! request, then `TickDone`, then read until `TickAck` — but they send a
//! pre-generated partition and stamp every frame, which the library client
//! cannot do.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use apdm_net::wire::{decode_payload, encode_payload};
use apdm_net::{
    connect_with_retry, read_frame, serve, write_frame, DecisionSnap, Frame, FrameType,
    HelloPayload, NetServerConfig, ReadOutcome, ReqSnap, Role, ServeOutcome, TickPayload,
    HEADER_LEN, TRAILER_LEN,
};
use apdm_serve::{Decision, DecisionRequest};

use crate::plan::{Plan, Stream, CLIENTS};
use crate::stats::{elapsed_ns, span_ns};

/// A client gives up on a round after this long.
const CLIENT_DEADLINE: Duration = Duration::from_secs(120);
/// Drain watchdog handed to the server.
const MAX_DRAIN_TICKS: u64 = 10_000;

/// Everything one TCP round produced.
#[derive(Debug)]
pub struct TcpRound {
    /// Decisions returned to both clients, sorted by request id.
    pub decisions: Vec<Decision>,
    /// What the server sealed and counted.
    pub outcome: ServeOutcome,
    /// From the earliest client's first request write to the latest
    /// client's last decision read.
    pub wall_ns: u64,
    /// Bytes both clients wrote and read after the handshake.
    pub wire_bytes: u64,
    /// Each decision's latency: request-frame write to Decision-frame read.
    pub latency: Vec<u64>,
    /// Client-side timings, present for traced rounds.
    pub trace: Option<TcpTrace>,
}

/// Client-side per-call timings of a traced round.
#[derive(Debug, Default)]
pub struct TcpTrace {
    /// Wall time of every request `write_frame` call.
    pub write_ns: Vec<u64>,
    /// `TickDone` write to `TickAck` read, per client and tick.
    pub tick_rtt_ns: Vec<u64>,
}

/// What one client thread hands back.
struct ClientOut {
    decisions: Vec<Decision>,
    latency_ns: Vec<u64>,
    start: Instant,
    end: Instant,
    wire_bytes: u64,
    trace: Option<TcpTrace>,
}

/// Serve `stream` over loopback TCP with a fresh service.
pub fn round(plan: &Plan, seed: u64, stream: &Stream, traced: bool) -> io::Result<TcpRound> {
    let arrival = stream.ticks.len() as u64;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let svc = plan.service(seed);
    let net_cfg = NetServerConfig {
        clients: CLIENTS,
        arrival_ticks: arrival,
        max_ticks: arrival + MAX_DRAIN_TICKS,
        seed,
        ..NetServerConfig::default()
    };
    let offered = stream.offered() as usize;
    let parts: Vec<Vec<Vec<DecisionRequest>>> = (0..CLIENTS)
        .map(|c| {
            stream
                .ticks
                .iter()
                .map(|t| {
                    t.iter()
                        .filter(|r| r.id % u64::from(CLIENTS) == u64::from(c))
                        .cloned()
                        .collect()
                })
                .collect()
        })
        .collect();
    let barrier = Arc::new(Barrier::new(CLIENTS as usize));
    let (outs, outcome) = thread::scope(|s| {
        let server = s.spawn(move || serve(listener, svc, net_cfg));
        let clients: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(index, part)| {
                let (addr, barrier) = (addr.clone(), barrier.clone());
                s.spawn(move || client(&addr, index as u32, part, offered, &barrier, traced))
            })
            .collect();
        let outs: Vec<io::Result<ClientOut>> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, server.join().expect("server thread panicked"))
    });
    let outcome = outcome?;
    let outs = outs.into_iter().collect::<io::Result<Vec<_>>>()?;
    let start = outs.iter().map(|o| o.start).min().expect("two clients");
    let end = outs.iter().map(|o| o.end).max().expect("two clients");
    let mut decisions = Vec::with_capacity(offered);
    let mut wire_bytes = 0;
    let mut trace = traced.then(TcpTrace::default);
    let mut latency = Vec::with_capacity(offered);
    for out in outs {
        decisions.extend(out.decisions);
        latency.extend(out.latency_ns);
        wire_bytes += out.wire_bytes;
        if let (Some(all), Some(t)) = (trace.as_mut(), out.trace) {
            all.write_ns.extend(t.write_ns);
            all.tick_rtt_ns.extend(t.tick_rtt_ns);
        }
    }
    decisions.sort_by_key(|d| d.request_id);
    Ok(TcpRound {
        decisions,
        outcome,
        wall_ns: span_ns(start, end),
        wire_bytes,
        latency,
        trace,
    })
}

/// One lockstep workload client: handshake, wait for its peer, then send
/// each tick's partition followed by `TickDone` and read until `TickAck`.
fn client(
    addr: &str,
    index: u32,
    part: Vec<Vec<DecisionRequest>>,
    offered: usize,
    barrier: &Barrier,
    traced: bool,
) -> io::Result<ClientOut> {
    let mut stream = connect_with_retry(addr, 50, Duration::from_millis(100))?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.set_write_timeout(Some(Duration::from_millis(2_000)))?;
    let deadline = Instant::now() + CLIENT_DEADLINE;
    let hello = HelloPayload {
        role: Role::Workload,
        client: index,
        clients: CLIENTS,
    };
    write_frame(
        &mut stream,
        &Frame::new(FrameType::Hello, encode_payload(&hello)),
    )?;
    match next_frame(&mut stream, deadline)? {
        f if f.frame_type == FrameType::Welcome => {}
        f => return Err(io::Error::other(format!("expected Welcome, got {f:?}"))),
    }
    barrier.wait();

    let mut trace = traced.then(TcpTrace::default);
    let mut sent_at: Vec<Option<Instant>> = vec![None; offered];
    let mut decisions = Vec::with_capacity(offered / CLIENTS as usize + 1);
    let mut latency_ns = Vec::with_capacity(offered / CLIENTS as usize + 1);
    let mut wire_bytes = 0u64;
    let mut sent = 0usize;
    let start = Instant::now();
    for (tick, reqs) in (1u64..).zip(part) {
        for req in reqs {
            let frame = Frame::new(FrameType::Request, encode_payload(&ReqSnap::from(&req)));
            wire_bytes += frame_len(&frame);
            let at = Instant::now();
            write_frame(&mut stream, &frame)?;
            if let Some(t) = trace.as_mut() {
                t.write_ns.push(elapsed_ns(at));
            }
            sent_at[req.id as usize] = Some(at);
            sent += 1;
        }
        let done = Frame::new(FrameType::TickDone, encode_payload(&TickPayload { tick }));
        wire_bytes += frame_len(&done);
        let done_at = Instant::now();
        write_frame(&mut stream, &done)?;
        loop {
            let frame = next_frame(&mut stream, deadline)?;
            wire_bytes += frame_len(&frame);
            match frame.frame_type {
                FrameType::Decision => {
                    let (d, ns) = decision(&frame, &sent_at)?;
                    decisions.push(d);
                    latency_ns.push(ns);
                }
                FrameType::TickAck => {
                    let ack: TickPayload = decode_payload(&frame.payload)
                        .ok_or_else(|| io::Error::other("bad TickAck payload"))?;
                    if ack.tick != tick {
                        return Err(io::Error::other(format!(
                            "TickAck({}) while waiting for tick {tick}",
                            ack.tick
                        )));
                    }
                    if let Some(t) = trace.as_mut() {
                        t.tick_rtt_ns.push(elapsed_ns(done_at));
                    }
                    break;
                }
                other => return Err(io::Error::other(format!("unexpected {other:?} frame"))),
            }
        }
    }
    while decisions.len() < sent {
        let frame = next_frame(&mut stream, deadline)?;
        wire_bytes += frame_len(&frame);
        match frame.frame_type {
            FrameType::Decision => {
                let (d, ns) = decision(&frame, &sent_at)?;
                decisions.push(d);
                latency_ns.push(ns);
            }
            FrameType::TickAck => {}
            other => return Err(io::Error::other(format!("unexpected {other:?} frame"))),
        }
    }
    let end = Instant::now();
    write_frame(&mut stream, &Frame::new(FrameType::Bye, Vec::new()))?;
    Ok(ClientOut {
        decisions,
        latency_ns,
        start,
        end,
        wire_bytes,
        trace,
    })
}

/// Decode a Decision frame and compute its latency in nanoseconds.
fn decision(frame: &Frame, sent_at: &[Option<Instant>]) -> io::Result<(Decision, u64)> {
    let read_at = Instant::now();
    let snap: DecisionSnap =
        decode_payload(&frame.payload).ok_or_else(|| io::Error::other("bad decision payload"))?;
    let sent = sent_at
        .get(snap.request_id as usize)
        .copied()
        .flatten()
        .ok_or_else(|| io::Error::other(format!("decision for unsent {}", snap.request_id)))?;
    let ns = span_ns(sent, read_at);
    Ok((snap.into_decision(None), ns))
}

/// Read the next frame, waiting through idle timeouts until `deadline`.
fn next_frame(stream: &mut TcpStream, deadline: Instant) -> io::Result<Frame> {
    loop {
        if Instant::now() > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "client deadline"));
        }
        match read_frame(stream).map_err(io::Error::other)? {
            ReadOutcome::Frame(f) if f.frame_type == FrameType::Error => {
                return Err(io::Error::other(format!(
                    "server error frame: {}",
                    String::from_utf8_lossy(&f.payload)
                )));
            }
            ReadOutcome::Frame(f) => return Ok(f),
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed => return Err(io::Error::other("server closed mid-round")),
        }
    }
}

/// Bytes a frame occupies on the wire.
fn frame_len(frame: &Frame) -> u64 {
    (HEADER_LEN + frame.payload.len() + TRAILER_LEN) as u64
}
