//! Cross-device trace context: the causal thread tying one request's spans
//! together as it crosses process and device boundaries.
//!
//! A [`TraceContext`] is the compact value that rides along with a message
//! or request: a trace id naming the end-to-end operation, a span id naming
//! the current hop, and the parent span id that gives the happened-before
//! edge back to whatever caused this hop. Receivers derive child contexts
//! with [`TraceContext::child`]; the derivation is a pure hash mix, so two
//! executions of the same deterministic scenario mint identical ids — the
//! same contract [`VirtualTs`](crate::VirtualTs) keeps for timestamps.
//!
//! Sampling is decided **once at the root** by a seeded [`TraceSampler`]
//! and then inherited: either every hop of a trace records or none does,
//! and the decision is a pure function of `(seed, trace_id)` — never of
//! wall clock, thread timing, or load.
//!
//! Contexts serialize onto [`TraceRecord`](crate::TraceRecord)s as three
//! `u64` fields ([`FIELD_TRACE`], [`FIELD_SPAN`], [`FIELD_PARENT`]), so the
//! lossless JSONL round trip carries them and `trace-analyze` can rebuild
//! the cross-device span DAG from an export alone.

use crate::record::{FieldValue, Name};

/// Field key carrying the trace id on a record.
pub const FIELD_TRACE: &str = "trace";
/// Field key carrying the span id on a record.
pub const FIELD_SPAN: &str = "span";
/// Field key carrying the parent span id on a record (`0` = root).
pub const FIELD_PARENT: &str = "parent";
/// Field key carrying the emitting device/node id on a record.
pub const FIELD_DEVICE: &str = "dev";

/// SplitMix64 finalizer: a cheap, well-distributed `u64 -> u64` mix used
/// for span-id derivation and sampling decisions.
#[inline]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mint a trace id from a run seed and a per-run request ordinal. Pure
/// function, so replays mint the same ids.
pub fn trace_id(seed: u64, ordinal: u64) -> u64 {
    nonzero(mix64(seed ^ mix64(ordinal)))
}

/// Ids must be non-zero (`0` is the "no parent" sentinel).
#[inline]
fn nonzero(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

/// Bytes of one wire-encoded [`TraceContext`]: three little-endian `u64`
/// ids plus one flag byte (see [`TraceContext::to_wire`]).
pub const CONTEXT_WIRE_LEN: usize = 25;

/// The compact causal context propagated across hops. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceContext {
    /// Id of the end-to-end operation every hop shares.
    pub trace_id: u64,
    /// Id of the current span (this hop).
    pub span_id: u64,
    /// Span id of the causing hop; `0` when this is the root.
    pub parent_id: u64,
    /// Whether this trace records. Decided at the root, inherited by every
    /// child — a trace is sampled in full or not at all.
    pub sampled: bool,
}

impl TraceContext {
    /// The root context of a new trace.
    pub fn root(trace_id: u64, sampled: bool) -> TraceContext {
        let trace_id = nonzero(trace_id);
        TraceContext {
            trace_id,
            span_id: nonzero(mix64(trace_id)),
            parent_id: 0,
            sampled,
        }
    }

    /// Derive the child context for one causally dependent hop. `slot`
    /// distinguishes siblings (retry attempts, duplicate deliveries, fan-out
    /// legs); the same `(parent, slot)` always derives the same child, so
    /// deterministic replays mint identical span DAGs.
    pub fn child(&self, slot: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: nonzero(mix64(
                self.span_id ^ mix64(self.trace_id.wrapping_add(slot)),
            )),
            parent_id: self.span_id,
            sampled: self.sampled,
        }
    }

    /// The trace/span/parent triple as record fields, ready to splice into
    /// an [`emit_event`](crate::emit_event) field vector.
    pub fn fields(&self) -> Vec<(Name, FieldValue)> {
        vec![
            (Name::Borrowed(FIELD_TRACE), FieldValue::U64(self.trace_id)),
            (Name::Borrowed(FIELD_SPAN), FieldValue::U64(self.span_id)),
            (
                Name::Borrowed(FIELD_PARENT),
                FieldValue::U64(self.parent_id),
            ),
        ]
    }

    /// Append the trace/span/parent triple plus the emitting device id to
    /// an existing field vector.
    pub fn push_fields(&self, device: u64, fields: &mut Vec<(Name, FieldValue)>) {
        fields.push((Name::Borrowed(FIELD_TRACE), FieldValue::U64(self.trace_id)));
        fields.push((Name::Borrowed(FIELD_SPAN), FieldValue::U64(self.span_id)));
        fields.push((
            Name::Borrowed(FIELD_PARENT),
            FieldValue::U64(self.parent_id),
        ));
        fields.push((Name::Borrowed(FIELD_DEVICE), FieldValue::U64(device)));
    }

    /// Encode the context for a network frame header: `trace_id`,
    /// `span_id` and `parent_id` as little-endian `u64`s followed by one
    /// flag byte whose bit 0 is `sampled` (remaining bits reserved, zero).
    /// The all-zero encoding is reserved for "no context" — a real context
    /// always has a non-zero trace id, so the two cannot collide.
    pub fn to_wire(&self) -> [u8; CONTEXT_WIRE_LEN] {
        let mut bytes = [0u8; CONTEXT_WIRE_LEN];
        bytes[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.span_id.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.parent_id.to_le_bytes());
        bytes[24] = u8::from(self.sampled);
        bytes
    }

    /// Decode a frame-header context written by [`to_wire`](Self::to_wire).
    /// Returns `None` for the reserved all-zero "no context" encoding.
    pub fn from_wire(bytes: &[u8; CONTEXT_WIRE_LEN]) -> Option<TraceContext> {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let trace_id = word(0);
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id: word(8),
            parent_id: word(16),
            sampled: bytes[24] & 1 == 1,
        })
    }

    /// Reconstruct a context from record fields (the inverse of
    /// [`fields`](Self::fields)); `None` when the trace or span field is
    /// absent. A reconstructed context is always `sampled` — it was only
    /// written because the trace recorded.
    pub fn from_fields(fields: &[(Name, FieldValue)]) -> Option<TraceContext> {
        let get = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                FieldValue::U64(n) if k == key => Some(*n),
                _ => None,
            })
        };
        Some(TraceContext {
            trace_id: get(FIELD_TRACE)?,
            span_id: get(FIELD_SPAN)?,
            parent_id: get(FIELD_PARENT).unwrap_or(0),
            sampled: true,
        })
    }
}

/// Seeded head-based sampler: the record-or-drop decision for a whole trace
/// is a pure function of `(seed, trace_id)`. No RNG state, no wall clock —
/// replays and thread-count changes cannot flip a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSampler {
    seed: u64,
    /// Record roughly one trace in `period` (`0` = none, `1` = all).
    period: u64,
}

impl TraceSampler {
    /// Sample roughly one trace in `period` (`1` records everything).
    pub const fn one_in(seed: u64, period: u64) -> TraceSampler {
        TraceSampler { seed, period }
    }

    /// Record every trace.
    pub const fn always() -> TraceSampler {
        TraceSampler { seed: 0, period: 1 }
    }

    /// Record no trace (tracing disabled).
    pub const fn never() -> TraceSampler {
        TraceSampler { seed: 0, period: 0 }
    }

    /// Should the trace with this id record?
    pub fn decide(&self, trace_id: u64) -> bool {
        match self.period {
            0 => false,
            1 => true,
            p => mix64(self.seed ^ trace_id).is_multiple_of(p),
        }
    }

    /// Mint the root context for `trace_id`, deciding sampling.
    pub fn root(&self, trace_id: u64) -> TraceContext {
        TraceContext::root(trace_id, self.decide(trace_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_child_ids_are_deterministic() {
        let a = TraceContext::root(trace_id(42, 7), true);
        let b = TraceContext::root(trace_id(42, 7), true);
        assert_eq!(a, b);
        assert_eq!(a.child(3), b.child(3));
        assert_eq!(a.parent_id, 0);
        assert_eq!(a.child(3).parent_id, a.span_id);
        assert_eq!(a.child(3).trace_id, a.trace_id);
    }

    #[test]
    fn sibling_slots_mint_distinct_spans() {
        let root = TraceContext::root(1, true);
        let ids: Vec<u64> = (0..64).map(|slot| root.child(slot).span_id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "sibling span-id collision");
        assert!(ids.iter().all(|&id| id != 0));
    }

    #[test]
    fn fields_round_trip_through_records() {
        let ctx = TraceContext::root(trace_id(9, 2), true).child(5);
        let fields = ctx.fields();
        let back = TraceContext::from_fields(&fields).unwrap();
        assert_eq!(back.trace_id, ctx.trace_id);
        assert_eq!(back.span_id, ctx.span_id);
        assert_eq!(back.parent_id, ctx.parent_id);
        assert!(TraceContext::from_fields(&[]).is_none());
    }

    #[test]
    fn wire_encoding_round_trips() {
        let ctx = TraceContext::root(trace_id(42, 7), true).child(3);
        let bytes = ctx.to_wire();
        assert_eq!(TraceContext::from_wire(&bytes), Some(ctx));
        let unsampled = TraceContext::root(trace_id(42, 8), false);
        assert_eq!(
            TraceContext::from_wire(&unsampled.to_wire()),
            Some(unsampled)
        );
        // The all-zero encoding is the "no context" sentinel.
        assert_eq!(TraceContext::from_wire(&[0u8; CONTEXT_WIRE_LEN]), None);
    }

    #[test]
    fn sampler_is_seeded_and_roughly_proportional() {
        let s = TraceSampler::one_in(42, 8);
        let hits = (0..8000u64).filter(|&n| s.decide(trace_id(42, n))).count();
        // 1-in-8 over 8000 trials: expect ~1000, allow a wide margin.
        assert!((500..1500).contains(&hits), "hits={hits}");
        // Decisions are pure: same inputs, same answer.
        for n in 0..100 {
            let id = trace_id(42, n);
            assert_eq!(s.decide(id), TraceSampler::one_in(42, 8).decide(id));
        }
        assert!(TraceSampler::always().decide(3));
        assert!(!TraceSampler::never().decide(3));
        assert!(!TraceSampler::never().root(3).sampled);
    }
}
