//! Seeded open-loop workload generation for the serving experiments.
//!
//! An **open-loop** generator offers requests at a configured rate
//! regardless of how the service is coping — the standard way to expose a
//! saturation point (a closed-loop client would politely slow down and hide
//! it). The generator is a pure function of `(seed, tick)` so two sweeps
//! over the same spec submit byte-identical request streams.
//!
//! The request population is deliberately *quantized*: device states sit on
//! a small grid and proposals come from a four-action vocabulary, so the
//! guard stacks see many repeated `(state, action, alternatives)` contexts.
//! That is what makes the verdict-memo-cache ablation in experiment E13
//! meaningful — real fleets are exactly this redundant (thousands of
//! devices in a handful of operational modes), which is why the PR-3 memo
//! cache pays off at serving time.
//!
//! [`run_to_completion`] is the one loop that drives a generator through a
//! service: submit each tick's arrivals, run the tick, and stop once the
//! arrival window has passed and the queue has drained.

use apdm_guards::{GuardStack, HarmOracle, PreActionCheck, StateSpaceGuard};
use apdm_ledger::SegmentedRecorder;
use apdm_par::WatchdogTrip;
use apdm_policy::Action;
use apdm_statespace::{Region, RegionClassifier, State, StateDelta, StateSchema, VarId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::request::{Decision, DecisionRequest, TenantId};
use crate::service::PolicyDecisionService;

/// The good region of the workload's one-variable state space: `x ∈ [0, 5]`
/// out of a `[0, 10]` schema (the same shape the guard-stack unit tests
/// use).
pub const GOOD_REGION: (f64, f64) = (0.0, 5.0);

/// The quantized state grid. The top value sits one "east" step from the
/// region boundary, so east-moves from it are the state-check's work.
const STATE_GRID: [f64; 5] = [0.5, 1.5, 2.5, 3.5, 4.5];

/// Harm oracle of the serving workload: the `strike` action directly harms
/// a human; nothing else does.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadOracle;

impl HarmOracle for WorkloadOracle {
    fn direct_harm(&self, _state: &State, action: &Action) -> bool {
        action.name() == "strike"
    }

    fn creates_hazard(&self, _state: &State, _action: &Action) -> bool {
        false
    }
}

/// The workload's state schema: one variable `x ∈ [0, 10]`.
pub fn schema() -> StateSchema {
    StateSchema::builder().var("x", 0.0, 10.0).build()
}

/// Build one guard stack per shard for the serving workload: pre-action
/// harm check plus state-space guard over `GOOD_REGION`, optionally with
/// the verdict memo cache. Every shard gets an identical (but independent)
/// stack, so verdicts do not depend on which shard judges a device.
pub fn standard_stacks(shards: usize, cache: bool) -> Vec<GuardStack> {
    (0..shards)
        .map(|_| {
            let stack = GuardStack::new()
                .with_preaction(PreActionCheck::new())
                .with_statecheck(StateSpaceGuard::new(RegionClassifier::new(Region::rect(
                    &[GOOD_REGION],
                ))));
            if cache {
                stack.with_cache()
            } else {
                stack
            }
        })
        .collect()
}

/// Shape of one open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Master seed; the request stream is a pure function of it.
    pub seed: u64,
    /// Requests offered per tick (the open-loop rate).
    pub per_tick: usize,
    /// Ticks during which requests arrive (the service then drains).
    pub arrival_ticks: u64,
    /// Device population (shard keys are `device % shards`).
    pub devices: u64,
    /// Tenant population. Tenant draw is skewed (tenant 0 gets roughly half
    /// the traffic) so quota shedding and DRR fairness are exercised.
    pub tenants: u32,
    /// Deadline slack in ticks (`None` = requests never expire).
    pub deadline_slack: Option<u64>,
    /// Zipf exponent of the device-popularity distribution. `0.0` keeps
    /// the historical uniform draw (byte-identical request streams to
    /// specs that predate this field); larger values concentrate traffic
    /// on a few hot devices. Popularity ranks are scrambled across the
    /// device-id space (see [`WorkloadGen::rank_device`]) so the hot
    /// device's shard is not an artifact of rank 0 mapping to device 0.
    pub zipf: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 42,
            per_tick: 8,
            arrival_ticks: 200,
            devices: 64,
            tenants: 4,
            deadline_slack: Some(8),
            zipf: 0.0,
        }
    }
}

/// The seeded open-loop request generator. Call
/// [`tick_requests`](Self::tick_requests) once per tick with consecutive
/// tick numbers.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    spec: WorkloadSpec,
    rng: StdRng,
    schema: StateSchema,
    next_id: u64,
    /// Cumulative Zipf popularity by rank (empty when `zipf == 0.0`, which
    /// preserves the historical uniform device draw byte for byte).
    zipf_cdf: Vec<f64>,
}

impl WorkloadGen {
    /// A generator for `spec`, deterministic in `spec.seed`.
    pub fn new(spec: WorkloadSpec) -> Self {
        let zipf_cdf = if spec.zipf > 0.0 {
            let n = spec.devices.max(1);
            let mut cdf = Vec::with_capacity(n as usize);
            let mut total = 0.0f64;
            for rank in 0..n {
                total += 1.0 / ((rank + 1) as f64).powf(spec.zipf);
                cdf.push(total);
            }
            for c in &mut cdf {
                *c /= total;
            }
            cdf
        } else {
            Vec::new()
        };
        WorkloadGen {
            rng: StdRng::seed_from_u64(spec.seed ^ 0xE13_5E17E),
            schema: schema(),
            next_id: 0,
            zipf_cdf,
            spec,
        }
    }

    /// Map a popularity rank to a device id: a fixed affine scramble
    /// `(5·rank + devices − 1) mod devices` (multiplier 1 when 5 divides
    /// the population, keeping the map a bijection). Rank 0 — the hottest
    /// device — lands on the *highest* device id, so with `devices` a
    /// multiple of the shard count the hot shard is the last shard: the
    /// worst case for static contiguous scheduling, which queues it behind
    /// every block-mate.
    pub fn rank_device(&self, rank: u64) -> u64 {
        let n = self.spec.devices.max(1);
        let mult = if n.is_multiple_of(5) { 1 } else { 5 };
        (rank * mult + (n - 1)) % n
    }

    /// The spec this generator runs.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Total requests this generator will offer over the arrival window.
    pub fn total_offered(&self) -> u64 {
        self.spec.arrival_ticks * self.spec.per_tick as u64
    }

    /// The requests arriving at tick `now` (empty once the arrival window
    /// has passed).
    pub fn tick_requests(&mut self, now: u64) -> Vec<DecisionRequest> {
        if now == 0 || now > self.spec.arrival_ticks {
            return Vec::new();
        }
        (0..self.spec.per_tick).map(|_| self.one(now)).collect()
    }

    /// Draw one request.
    fn one(&mut self, now: u64) -> DecisionRequest {
        let id = self.next_id;
        self.next_id += 1;
        let device = if self.zipf_cdf.is_empty() {
            self.rng.random_range(0..self.spec.devices.max(1))
        } else {
            let u: f64 = self.rng.random();
            let rank = self.zipf_cdf.partition_point(|&c| c <= u) as u64;
            self.rank_device(rank.min(self.spec.devices.max(1) - 1))
        };
        // Skew: tenant 0 absorbs ~half the offered load, the rest is
        // uniform — a realistic "one big operator plus a tail" mix.
        let tenants = self.spec.tenants.max(1);
        let tenant = if tenants > 1 && self.rng.random_bool(0.5) {
            TenantId(0)
        } else {
            TenantId(self.rng.random_range(0..tenants))
        };
        let x = STATE_GRID[self.rng.random_range(0..STATE_GRID.len())];
        let state = self.schema.state(&[x]).expect("grid value in schema");
        // Proposal mix: mostly benign patrols and east-moves, a steady
        // trickle of harmful strikes the pre-action check must catch.
        let roll = self.rng.random_range(0..10u32);
        let proposed = if roll < 5 {
            Action::adjust("patrol", StateDelta::empty())
        } else if roll < 9 {
            Action::adjust("east", StateDelta::single(VarId(0), 1.0))
        } else {
            Action::adjust("strike", StateDelta::empty())
        };
        // Half the requests advertise a safe retreat the state check can
        // substitute for a boundary-crossing east-move.
        let alternatives = if self.rng.random_bool(0.5) {
            vec![Action::adjust("west", StateDelta::single(VarId(0), -1.0))]
        } else {
            Vec::new()
        };
        DecisionRequest {
            id,
            tenant,
            device,
            state,
            proposed,
            alternatives,
            submitted_at: now,
            deadline: self.spec.deadline_slack.map(|s| now + s),
            ctx: None,
        }
    }
}

/// How a [`run_to_completion`] drive ended.
#[derive(Debug)]
pub struct Completion {
    /// Every decision rendered from the start tick on, submit-time sheds
    /// interleaved in submit order.
    pub decisions: Vec<Decision>,
    /// The tick to seal the ledger at: the last tick driven, or — when
    /// the watchdog tripped — the tick it tripped on, which never ran.
    pub final_tick: u64,
    /// Set when the tick budget ran out before the run completed.
    pub watchdog: Option<WatchdogTrip>,
}

/// Drive a service from tick `start` until the generator's arrival window
/// has passed and the queue drains; `after_tick` observes the recorder
/// after every tick (a crash-tolerant embedder persists its segments
/// there). The caller seals the run with
/// `finish_segmented(completion.final_tick)`. The termination rule depends
/// only on service state, so a resumed run stops at exactly the tick the
/// uninterrupted run would.
///
/// A tick past `max_ticks` is never driven: the run stops there and
/// [`Completion::watchdog`] carries the trip an [`apdm_par::Watchdog`] of
/// that budget reports.
pub fn run_to_completion(
    svc: &mut PolicyDecisionService<WorkloadOracle>,
    gen: &mut WorkloadGen,
    start: u64,
    max_ticks: u64,
    mut after_tick: impl FnMut(u64, &SegmentedRecorder),
) -> Completion {
    let arrival_ticks = gen.spec().arrival_ticks;
    let mut decisions = Vec::new();
    let mut watchdog = None;
    let mut now = start.saturating_sub(1);
    // The completion check runs *before* each tick, not after: a
    // checkpoint taken by a rotation on the run's final tick restores to
    // an already-complete state, and replaying an extra empty tick would
    // seal the resumed ledger one tick late.
    while now < arrival_ticks || svc.queue_depth() > 0 {
        now += 1;
        if now > max_ticks {
            watchdog = Some(WatchdogTrip { budget: max_ticks });
            break;
        }
        for req in gen.tick_requests(now) {
            if let Some(d) = svc.submit(req, now) {
                decisions.push(d);
            }
        }
        decisions.extend(svc.tick(now));
        after_tick(now, svc.recorder());
    }
    Completion {
        decisions,
        final_tick: now,
        watchdog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_in_its_seed() {
        let spec = WorkloadSpec::default();
        let mut a = WorkloadGen::new(spec);
        let mut b = WorkloadGen::new(spec);
        for now in 1..=5 {
            assert_eq!(a.tick_requests(now), b.tick_requests(now));
        }
        let mut c = WorkloadGen::new(WorkloadSpec { seed: 7, ..spec });
        let differs = (1..=5).any(|now| {
            // Re-generate a's stream for comparison.
            WorkloadGen::new(spec)
                .tick_requests(now)
                .iter()
                .zip(c.tick_requests(now).iter())
                .any(|(x, y)| x != y)
        });
        assert!(differs, "different seeds should differ somewhere");
    }

    #[test]
    fn arrival_window_bounds_the_offered_load() {
        let spec = WorkloadSpec {
            per_tick: 3,
            arrival_ticks: 4,
            ..WorkloadSpec::default()
        };
        let mut g = WorkloadGen::new(spec);
        assert_eq!(g.total_offered(), 12);
        assert!(g.tick_requests(0).is_empty(), "tick 0 is pre-arrival");
        let mut total = 0;
        for now in 1..=10 {
            total += g.tick_requests(now).len();
        }
        assert_eq!(total, 12);
    }

    #[test]
    fn zipf_skew_concentrates_on_the_scrambled_hot_device() {
        let spec = WorkloadSpec {
            zipf: 1.2,
            per_tick: 64,
            ..WorkloadSpec::default()
        };
        let mut g = WorkloadGen::new(spec);
        let hot = g.rank_device(0);
        assert_eq!(hot, 63, "rank 0 must land on the last device id");
        // The scramble is a bijection.
        let mut seen: Vec<u64> = (0..64).map(|r| g.rank_device(r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<u64>>());
        let mut counts = vec![0u64; 64];
        for now in 1..=50 {
            for r in g.tick_requests(now) {
                counts[r.device as usize] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        let max_dev = (0..64).max_by_key(|&d| counts[d]).unwrap() as u64;
        assert_eq!(max_dev, hot, "hottest observed device is rank 0");
        assert!(
            counts[hot as usize] * 5 > total,
            "Zipf(1.2) hot device should draw >20% of traffic, got {}/{}",
            counts[hot as usize],
            total
        );
        // zipf = 0.0 keeps the historical uniform draw byte for byte: the
        // explicit field equals the pre-field default.
        let mut a = WorkloadGen::new(WorkloadSpec::default());
        let mut b = WorkloadGen::new(WorkloadSpec {
            zipf: 0.0,
            ..WorkloadSpec::default()
        });
        for now in 1..=5 {
            assert_eq!(a.tick_requests(now), b.tick_requests(now));
        }
    }

    #[test]
    fn requests_stay_on_the_quantized_grid() {
        let mut g = WorkloadGen::new(WorkloadSpec::default());
        for now in 1..=10 {
            for req in g.tick_requests(now) {
                let x = req.state.values()[0];
                assert!(STATE_GRID.contains(&x), "off-grid state {x}");
                assert!(matches!(req.proposed.name(), "patrol" | "east" | "strike"));
                assert_eq!(req.deadline, Some(now + 8));
                assert!(req.tenant.0 < 4);
                assert!(req.device < 64);
            }
        }
    }

    #[test]
    fn run_to_completion_drains_and_trips_its_watchdog() {
        use crate::service::ServeConfig;
        let spec = WorkloadSpec {
            per_tick: 4,
            arrival_ticks: 6,
            ..WorkloadSpec::default()
        };
        let service = || {
            let cfg = ServeConfig {
                shards: 2,
                threads: 1,
                ..ServeConfig::default()
            };
            PolicyDecisionService::new(cfg, standard_stacks(2, true), WorkloadOracle, "drive")
        };

        let mut svc = service();
        let mut gen = WorkloadGen::new(spec);
        let mut observed = Vec::new();
        let done = run_to_completion(&mut svc, &mut gen, 1, 100, |now, _| observed.push(now));
        assert_eq!(done.watchdog, None);
        assert!(done.final_tick >= 6);
        assert_eq!(observed, (1..=done.final_tick).collect::<Vec<u64>>());
        assert_eq!(done.decisions.len() as u64, gen.total_offered());

        // A budget shorter than the arrival window trips on the first tick
        // past it; that tick never runs.
        let mut svc = service();
        let mut gen = WorkloadGen::new(spec);
        let mut observed = Vec::new();
        let tripped = run_to_completion(&mut svc, &mut gen, 1, 4, |now, _| observed.push(now));
        let trip = tripped
            .watchdog
            .expect("a 4-tick budget cannot cover 6 arrival ticks");
        assert_eq!(trip.budget, 4);
        assert_eq!(tripped.final_tick, 5);
        assert_eq!(observed, vec![1, 2, 3, 4]);
        assert_eq!(
            trip.to_string(),
            "watchdog tripped: tick budget of 4 exhausted (livelocked cell?)"
        );
        let (ledger, _) = svc.finish_segmented(tripped.final_tick);
        assert!(ledger.verify().is_ok(), "a tripped run still seals");
    }
}
