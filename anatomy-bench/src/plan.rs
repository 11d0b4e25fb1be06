//! The three workloads: their sizes, the service they run against, and the
//! seeded request stream each one replays.

use apdm_ledger::RotationPolicy;
use apdm_serve::{
    schema, standard_stacks, DecisionRequest, PolicyDecisionService, ServeConfig, WorkloadGen,
    WorkloadOracle, WorkloadSpec,
};

/// Device population of every workload.
pub const DEVICES: u64 = 64;
/// Shards (one guard stack each) of every service.
pub const SHARDS: usize = 8;
/// Ledger rotation budget in records.
pub const ROTATE_RECORDS: usize = 4096;
/// Sealed ledger segments kept after rotation.
pub const KEEP_SEALED: usize = 2;
/// Workload connections of `tcp-lockstep`.
pub const CLIENTS: u32 = 2;
/// Worker threads of every measured service. The service default (auto)
/// spawns a thread per batch; on a 2-vCPU host that made the run-to-run
/// spread of `decisions_per_s` 14-27%, wider than any usable bound, while
/// one thread keeps it near 2%. The cost of the auto path is reported per
/// layer instead (`par.dispatch.auto_p50_ns`).
pub const SERVE_THREADS: usize = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Quantized stream: nearly every guard lookup hits the memo cache.
    InprocHot,
    /// Continuous-state stream: no fingerprint repeats, the cache never hits.
    InprocMiss,
    /// The `inproc-hot` stream served over loopback TCP by two lockstep
    /// clients.
    TcpLockstep,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::InprocHot,
        Workload::InprocMiss,
        Workload::TcpLockstep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocHot => "inproc-hot",
            Workload::InprocMiss => "inproc-miss",
            Workload::TcpLockstep => "tcp-lockstep",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one workload. A *round* serves the whole pre-generated stream
/// through a fresh service; a timed run repeats rounds until its seconds
/// are up, so every round does identical work whatever the run length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Requests offered per tick.
    pub per_tick: usize,
    /// Ticks with arrivals in one round (the service then drains).
    pub round_ticks: u64,
    /// Ticks of the warm-up round that closes each set-up.
    pub warmup_ticks: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Run the host probe between ticks every this many ticks and report
    /// probe-normalized times (0 = never: raw wall times). In-process work
    /// is CPU-bound and slows with the host; `tcp-lockstep` waits on
    /// socket timers, which do not.
    pub probe_every: u64,
}

impl Plan {
    /// The benchmark's full-size plan for `workload`.
    pub fn full(workload: Workload) -> Plan {
        match workload {
            // 32,768 decisions and 8 rotations per round; the 240 cold
            // misses of a fresh service leave the hit ratio above 0.99.
            Workload::InprocHot => Plan {
                workload,
                per_tick: 32,
                round_ticks: 1024,
                warmup_ticks: 64,
                setup_reps: 9,
                probe_every: 128,
            },
            // 98,304 decisions per round: the per-shard memo caches fill
            // (and flush) within the round, so checkpoints snapshot full
            // caches.
            Workload::InprocMiss => Plan {
                workload,
                per_tick: 24,
                round_ticks: 4096,
                warmup_ticks: 64,
                setup_reps: 9,
                probe_every: 128,
            },
            // 4,608 decisions and one rotation per round. The round is
            // short because each lockstep tick pays the wire round trip.
            Workload::TcpLockstep => Plan {
                workload,
                per_tick: 32,
                round_ticks: 144,
                warmup_ticks: 2,
                setup_reps: 5,
                probe_every: 0,
            },
        }
    }

    /// A small plan for the benchmark's own tests; it still rotates the
    /// ledger at least once per round.
    pub fn smoke(workload: Workload) -> Plan {
        Plan {
            round_ticks: match workload {
                Workload::InprocMiss => 180,
                _ => 136,
            },
            warmup_ticks: 2,
            setup_reps: 2,
            ..Plan::full(workload)
        }
    }

    /// Requests offered by one round.
    pub fn offered(&self) -> u64 {
        self.round_ticks * self.per_tick as u64
    }

    /// The ledger run name (identical on every path, so ledger bytes can
    /// be compared).
    pub fn run_name(&self) -> String {
        format!("anatomy/{}", self.workload.name())
    }

    /// The service configuration: service defaults (8 shards, 16/2
    /// batching, cache on, balanced scheduling) plus rotation, at
    /// [`SERVE_THREADS`].
    pub fn serve_config(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            threads: SERVE_THREADS,
            shards: SHARDS,
            rotation: Some(RotationPolicy {
                max_records: ROTATE_RECORDS,
                max_bytes: 0,
                keep_sealed: KEEP_SEALED,
            }),
            ..ServeConfig::default()
        }
    }

    /// A fresh service.
    pub fn service(&self, seed: u64) -> PolicyDecisionService<WorkloadOracle> {
        let cfg = self.serve_config(seed);
        PolicyDecisionService::new(
            cfg,
            standard_stacks(cfg.shards, cfg.cache),
            WorkloadOracle,
            &self.run_name(),
        )
    }

    /// Generate the round's request stream from `seed`.
    pub fn stream(&self, seed: u64) -> Stream {
        let mut gen = WorkloadGen::new(WorkloadSpec {
            seed,
            per_tick: self.per_tick,
            arrival_ticks: self.round_ticks,
            devices: DEVICES,
            ..WorkloadSpec::default()
        });
        let schema = schema();
        let ticks = (1..=self.round_ticks)
            .map(|now| {
                let mut reqs = gen.tick_requests(now);
                if self.workload == Workload::InprocMiss {
                    // Continuous state in the good region [0, 5): 53 random
                    // bits per request, so no memo fingerprint repeats.
                    for req in &mut reqs {
                        let bits = apdm_par::mix64(seed ^ MISS_STATE_SALT ^ req.id) >> 11;
                        let x = bits as f64 / (1u64 << 53) as f64 * 5.0;
                        req.state = schema.state(&[x]).expect("x lies inside the schema");
                    }
                }
                reqs
            })
            .collect();
        Stream { ticks }
    }
}

/// Salt of the continuous-state draw of `inproc-miss`.
const MISS_STATE_SALT: u64 = 0x0A4A_7041_5EED;

/// A pre-generated request stream: `ticks[t - 1]` arrives at tick `t`.
/// Request ids run `0..offered` in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Requests per arrival tick.
    pub ticks: Vec<Vec<DecisionRequest>>,
}

impl Stream {
    /// Requests in the stream.
    pub fn offered(&self) -> u64 {
        self.ticks.iter().map(|t| t.len() as u64).sum()
    }

    /// Every request, indexed by id.
    pub fn by_id(&self) -> Vec<&DecisionRequest> {
        let mut all: Vec<&DecisionRequest> = self.ticks.iter().flatten().collect();
        all.sort_by_key(|r| r.id);
        all
    }

    /// The first `ticks` ticks of arrivals.
    pub fn prefix(&self, ticks: u64) -> Stream {
        Stream {
            ticks: self.ticks.iter().take(ticks as usize).cloned().collect(),
        }
    }
}
