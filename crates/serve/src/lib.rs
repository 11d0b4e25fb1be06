//! A sharded, micro-batching **policy decision service** with admission
//! control and fail-closed load shedding.
//!
//! The paper's guards (Section VI) assume every proposed action is checked
//! before it executes. At fleet scale that check is a *service*: thousands
//! of devices stream `(state, proposed action)` decision requests to a
//! shared decision point, and the decision point must stay correct — and
//! stay *safe* — under overload. This crate is that serving layer:
//!
//! - [`DecisionRequest`] / [`Decision`] — the request/verdict vocabulary,
//!   multi-tenant ([`TenantId`]) with per-request deadlines.
//! - [`AdmissionQueue`] — bounded per-tenant lanes drained by deficit
//!   round-robin; the bounds are the shed points ([`AdmissionConfig`]).
//! - [`BatchPolicy`] / [`CostModel`] / [`Meter`] — micro-batch close rules
//!   and a deterministic (virtual-cost) account of how much evaluation the
//!   backend absorbs per tick, so saturation is bit-reproducible.
//! - [`PolicyDecisionService`] — the assembled service: admission →
//!   micro-batch → shard by device across [`apdm_par`]'s pool → per-shard
//!   [`apdm_guards::GuardStack`] evaluation (reusing the verdict memo
//!   cache) → hash-chained [`apdm_ledger`] audit of **every** verdict.
//! - [`WorkloadGen`] / [`run_to_completion`] — seeded open-loop workload
//!   generation and the one loop that drives it through a service until
//!   the queue drains, with a tick-budget watchdog.
//! - [`Scheduling`] — skew-aware shard scheduling overlays (deterministic
//!   work stealing via [`apdm_par::run_sharded_balanced`]) and cross-shard
//!   admission backpressure ([`ServeConfig::backpressure`]).
//! - [`ServeCheckpoint`] / [`recover_segments`] — crash tolerance: the
//!   service checkpoints its full decision state into the ledger at
//!   segment rotation points ([`ServeConfig::rotation`]), and a killed
//!   process restores from the latest valid frame and resumes
//!   bit-identically.
//!
//! The experiment harnesses that sweep these properties (E13–E17 and the
//! cost-model calibration) live in `apdm-bench`; this crate holds only the
//! serving code they drive.
//!
//! The design rule throughout is the paper's safety bias applied to
//! serving: **overload may only make the service more conservative.** A
//! request the service cannot afford to evaluate is *denied* (shed), never
//! allowed through unevaluated — see `Decision::shed`, whose only
//! constructor produces a denial.
//!
//! ## Example
//!
//! Drive a seeded workload through a two-shard service to completion and
//! check the service's core invariant — every offered request ends in
//! exactly one audited decision:
//!
//! ```
//! use apdm_serve::{
//!     run_to_completion, standard_stacks, PolicyDecisionService, ServeConfig,
//!     WorkloadGen, WorkloadOracle, WorkloadSpec,
//! };
//!
//! let cfg = ServeConfig {
//!     shards: 2,
//!     ..ServeConfig::default()
//! };
//! let mut svc = PolicyDecisionService::new(
//!     cfg,
//!     standard_stacks(2, true),
//!     WorkloadOracle,
//!     "docs/quickstart",
//! );
//! let mut gen = WorkloadGen::new(WorkloadSpec {
//!     per_tick: 4,
//!     arrival_ticks: 3,
//!     ..WorkloadSpec::default()
//! });
//!
//! let done = run_to_completion(&mut svc, &mut gen, 1, 100, |_, _| {});
//! assert!(done.watchdog.is_none(), "drained within the tick budget");
//! let (ledger, stats) = svc.finish_segmented(done.final_tick);
//!
//! assert_eq!(done.decisions.len() as u64, gen.total_offered());
//! assert_eq!(stats.decided + stats.shed_total(), gen.total_offered());
//! assert!(ledger.verify().is_ok(), "hash-chained audit trail seals");
//! ```
//!
//! Participates in experiments **E13**–**E17** (DESIGN.md §3): the load
//! sweep (E13), causal tracing (E14), skew scheduling (E15), crash
//! tolerance (E16), and — through the `apdm-net` transport in front of
//! this service — the networked byte-identity experiment (E17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod batcher;
mod checkpoint;
mod crash;
mod request;
mod service;
mod workload;

pub use admission::{AdmissionConfig, AdmissionQueue};
pub use batcher::{BatchPolicy, CostModel, Meter};
pub use checkpoint::{CacheEntry, CacheSnap, CtxSnap, LaneSnap, ReqSnap, ServeCheckpoint};
pub use crash::{recover_segments, segment_header, Recovery, SimDisk};
pub use request::{Decision, DecisionRequest, ShedReason, TenantId};
pub use service::{
    standard_slos, PolicyDecisionService, SchedSummary, Scheduling, ServeConfig, ServeStats,
};
pub use workload::{
    run_to_completion, schema, standard_stacks, Completion, WorkloadGen, WorkloadOracle,
    WorkloadSpec,
};
