//! The two compact JSON paths agree byte for byte.
//!
//! `serde_json::to_string` streams through `Serialize::write_json`, which the
//! derive, the primitives and the containers implement without building a
//! `Value`. The ledger hashes that text, so it must equal what
//! `serde::json::write_value` prints for the value's `to_value` tree. These
//! properties drive both paths over random values seeded with the awkward
//! cases: float edge values, integer extremes, control characters, empty
//! containers and nested options.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{json, Serialize, Value};

use apdm::guards::GuardVerdict;
use apdm::ledger::{DeviceSnap, Name, RunEvent, SnapshotFrame};
use apdm::net::{DecisionSnap, ErrorPayload, HelloPayload, Role, TickPayload};
use apdm::policy::{Action, AuditEntry, AuditKind, Obligation};
use apdm::serve::{
    CacheEntry, CacheSnap, CtxSnap, LaneSnap, ReqSnap, ServeCheckpoint, ServeStats, ShedReason,
};
use apdm::statespace::{StateDelta, StateSchema, VarId};

/// Both paths, compared.
fn assert_same_json<T: Serialize + ?Sized>(x: &T) {
    let streamed = serde_json::to_string(x).unwrap();
    let mut tree = String::new();
    json::write_value(&mut tree, &x.to_value());
    assert_eq!(streamed, tree);
}

const EDGE_F64: [f64; 13] = [
    0.0,
    -0.0,
    1e21,
    1e-7,
    5e-324,
    f64::MAX,
    f64::MIN,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.1,
    -2.5,
    1e300,
];

const EDGE_U64: [u64; 6] = [0, 1, 9, 10, i64::MAX as u64 + 1, u64::MAX];

const EDGE_I64: [i64; 6] = [0, -1, 10, i64::MIN, i64::MIN + 1, i64::MAX];

const STR_PIECES: [&str; 11] = [
    "",
    "a",
    "strike",
    "\"",
    "\\",
    "\u{1}",
    "\u{1f}",
    "\n\r\t",
    "\u{8}\u{c}",
    "😀",
    "é",
];

/// Generators that hit an edge case about half the time.
struct Gen(StdRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(StdRng::seed_from_u64(seed))
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.0.random_range(0..items.len())]
    }

    fn flip(&mut self) -> bool {
        self.0.random_bool(0.5)
    }

    fn f64(&mut self) -> f64 {
        if self.flip() {
            self.pick(&EDGE_F64)
        } else {
            f64::from_bits(self.0.next_u64())
        }
    }

    fn u64(&mut self) -> u64 {
        if self.flip() {
            self.pick(&EDGE_U64)
        } else {
            self.0.next_u64() >> self.0.random_range(0..64u32)
        }
    }

    fn i64(&mut self) -> i64 {
        if self.flip() {
            self.pick(&EDGE_I64)
        } else {
            self.u64() as i64
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn string(&mut self) -> String {
        let n = self.0.random_range(0..4usize);
        (0..n).map(|_| self.pick(&STR_PIECES)).collect()
    }

    fn option<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.flip().then(|| f(self))
    }

    fn vec<T>(&mut self, max: usize, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.0.random_range(0..max + 1);
        (0..n).map(|_| f(self)).collect()
    }

    fn value(&mut self, depth: u32) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match self.0.random_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.flip()),
            2 => Value::Int(self.i64()),
            3 => Value::UInt(self.u64()),
            4 => Value::Float(self.f64()),
            5 => Value::Str(self.string()),
            6 => Value::Seq(self.vec(4, |g| g.value(depth - 1))),
            _ => Value::Map(self.vec(4, |g| (g.string(), g.value(depth - 1)))),
        }
    }

    fn action(&mut self) -> Action {
        let mut delta = StateDelta::empty();
        for _ in 0..self.0.random_range(0..3usize) {
            delta = delta.and(VarId(self.0.random_range(0..4usize)), self.f64());
        }
        let mut action = Action::adjust(self.string(), delta);
        if self.flip() {
            action = action.physical();
        }
        for _ in 0..self.0.random_range(0..3usize) {
            action = action.with_param(self.string(), self.string());
        }
        action
    }

    fn verdict(&mut self) -> GuardVerdict {
        match self.0.random_range(0..4u32) {
            0 => GuardVerdict::Allow,
            1 => GuardVerdict::AllowWithObligations(self.vec(2, |g| {
                if g.flip() {
                    Obligation::during(g.action())
                } else {
                    Obligation::after(g.action(), g.u64())
                }
            })),
            2 => GuardVerdict::Deny {
                reason: self.string(),
            },
            _ => GuardVerdict::Replace {
                action: self.action(),
                reason: self.string(),
            },
        }
    }

    fn req(&mut self) -> ReqSnap {
        let schema = StateSchema::builder()
            .var(format!("x{}", self.string()), -1e300, 1e300)
            .var("y", 0.0, 1.0)
            .build();
        let y = self.0.random_range(0.0..1.0);
        let state = schema
            .state(&[self.pick(&[0.0, -0.0, 1e21, 1e-7, 5e-324, -1e300]), y])
            .expect("in bounds");
        ReqSnap {
            id: self.u64(),
            tenant: self.u32(),
            device: self.u64(),
            state,
            proposed: self.action(),
            alternatives: self.vec(3, Gen::action),
            submitted_at: self.u64(),
            deadline: self.option(Gen::u64),
            ctx: self.option(|g| CtxSnap {
                trace_id: g.u64(),
                span_id: g.u64(),
                parent_id: g.u64(),
                sampled: g.flip(),
            }),
        }
    }

    fn checkpoint(&mut self) -> ServeCheckpoint {
        ServeCheckpoint {
            tick: self.u64(),
            lanes: self.vec(3, |g| LaneSnap {
                tenant: g.u32(),
                deficit: g.u32(),
                queue: g.vec(2, Gen::req),
            }),
            rotation: self.vec(4, Gen::u32),
            meter_credit: self.i64(),
            meter_spent: self.u64(),
            shard_inflight: self.vec(4, Gen::u64),
            stats: ServeStats {
                submitted: self.u64(),
                decided: self.u64(),
                max_queue_depth: self.u64(),
                ..ServeStats::default()
            },
            caches: self.vec(3, |g| {
                g.option(|g| CacheSnap {
                    entries: g.vec(3, |g| CacheEntry {
                        fp: g.u64(),
                        verdict: g.verdict(),
                    }),
                    hits: g.u64(),
                    misses: g.u64(),
                })
            }),
        }
    }

    fn frame(&mut self) -> SnapshotFrame {
        SnapshotFrame {
            tick: self.u64(),
            rng: [self.u64(), self.u64(), self.u64(), self.u64()],
            world: self.value(3),
            metrics: self.value(2),
            devices: self.vec(3, |g| DeviceSnap {
                id: g.u64(),
                values: g.vec(3, Gen::f64),
                active: g.flip(),
                x: g.i64() as i32,
                y: g.i64() as i32,
                tamper: g.value(1),
            }),
        }
    }

    /// One event of every variant.
    fn events(&mut self) -> Vec<RunEvent> {
        let name = |g: &mut Gen| Name::from(g.string());
        vec![
            RunEvent::RunStarted {
                experiment: self.string(),
                seed: self.u64(),
                devices: self.u64(),
            },
            RunEvent::Proposal {
                device: self.u64(),
                action: name(self),
            },
            RunEvent::Verdict {
                device: self.u64(),
                action: name(self),
                verdict: name(self),
                reason: self.string(),
            },
            RunEvent::Execution {
                device: self.u64(),
                action: name(self),
            },
            RunEvent::ObligationExecuted {
                device: self.u64(),
                action: name(self),
            },
            RunEvent::Deactivation {
                device: self.u64(),
                reason: self.string(),
            },
            RunEvent::FaultInjected {
                device: self.u64(),
                pathway: self.string(),
            },
            RunEvent::TamperAttempt {
                device: self.u64(),
                compromised: self.flip(),
            },
            RunEvent::Degraded {
                device: self.u64(),
                mode: self.string(),
                isolated: self.flip(),
            },
            RunEvent::Harm {
                human: self.u64(),
                cause: self.string(),
                device: self.option(Gen::u64),
            },
            RunEvent::Audit(AuditEntry {
                seq: self.u64(),
                tick: self.u64(),
                subject: self.string(),
                kind: self.pick(&[
                    AuditKind::Decision,
                    AuditKind::BreakGlass,
                    AuditKind::GuardIntervention,
                    AuditKind::ObligationViolation,
                    AuditKind::Deactivation,
                    AuditKind::Note,
                ]),
                detail: self.string(),
            }),
            RunEvent::Snapshot(self.frame()),
            RunEvent::SegmentOpened {
                segment: self.u64(),
                prev_head: self.u64(),
                prev_records: self.u64(),
            },
            RunEvent::SegmentSealed {
                segment: self.u64(),
                records: self.u64(),
            },
            RunEvent::RunFinished {
                ticks: self.u64(),
                harms: self.u64(),
            },
        ]
    }
}

#[test]
fn edge_cases_agree() {
    for f in EDGE_F64 {
        assert_same_json(&f);
        assert_same_json(&(f as f32));
        assert_same_json(&Value::Float(f));
    }
    for u in EDGE_U64 {
        assert_same_json(&u);
        assert_same_json(&(u as u32));
        assert_same_json(&(u as usize));
    }
    for i in EDGE_I64 {
        assert_same_json(&i);
        assert_same_json(&(i as i8));
    }
    for s in STR_PIECES {
        assert_same_json(s);
        assert_same_json(&s.to_string());
        assert_same_json(&Name::from(s));
    }
    assert_same_json(&'\u{1}');
    assert_same_json(&'😀');
    assert_same_json(&());
    assert_same_json(&Vec::<u64>::new());
    assert_same_json(&std::collections::BTreeMap::<String, u64>::new());
    assert_same_json(&std::collections::BTreeMap::from([((1u8, -2i32), "a")]));
    assert_same_json(&Value::Seq(vec![]));
    assert_same_json(&Value::Map(vec![]));
    assert_same_json(&Some(Some(3u64)));
    assert_same_json(&Some(None::<u64>));
    assert_same_json(&None::<Option<u64>>);
    assert_same_json(&[Some(vec![None, Some(1.5f64)]), None]);
    assert_same_json(&(1u8, "two", [3.0f64], Some(Value::Null)));
}

proptest! {
    #[test]
    fn random_value_trees_agree(seed in any::<u64>()) {
        let value = Gen::new(seed).value(4);
        assert_same_json(&value);
    }

    #[test]
    fn every_run_event_variant_agrees(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        for event in g.events() {
            assert_same_json(&event);
        }
        assert_same_json(&g.frame());
    }

    #[test]
    fn serve_checkpoints_agree(seed in any::<u64>()) {
        let checkpoint = Gen::new(seed).checkpoint();
        assert_same_json(&checkpoint);
        assert_same_json(&checkpoint.to_frame());
    }

    #[test]
    fn wire_payloads_agree(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        assert_same_json(&g.req());
        assert_same_json(&DecisionSnap {
            request_id: g.u64(),
            tenant: g.u32(),
            device: g.u64(),
            action: g.string(),
            verdict: g.verdict(),
            shed: g.option(|g| g.pick(&[ShedReason::Capacity, ShedReason::Quota, ShedReason::Deadline])),
            submitted_at: g.u64(),
            decided_at: g.u64(),
        });
        assert_same_json(&HelloPayload {
            role: g.pick(&[Role::Workload, Role::Observer]),
            client: g.u32(),
            clients: g.u32(),
        });
        assert_same_json(&TickPayload { tick: g.u64() });
        assert_same_json(&ErrorPayload { code: g.u64() as u16, detail: g.string() });
    }
}
