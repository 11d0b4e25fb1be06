//! Output checks every measured round must pass.

use apdm_guards::GuardVerdict;
use apdm_ledger::SegmentedLedger;
use apdm_serve::Decision;

use crate::inproc;
use crate::plan::{Plan, Stream};

/// Prefix of the reason the TCP boundary gives a request it rejects.
const REJECT_PREFIX: &str = "net:reject:";

/// What a single-threaded in-process run of the same stream produced.
#[derive(Debug)]
pub struct Reference {
    /// Decisions in emission order.
    pub decisions: Vec<Decision>,
    /// Decisions sorted by request id.
    pub by_id: Vec<Decision>,
    /// Retained ledger segments as `(index, jsonl)`.
    pub segments: Vec<(u64, String)>,
}

impl Reference {
    /// Serve `stream` in process at threads = 1 (see `SERVE_THREADS`).
    pub fn new(plan: &Plan, seed: u64, stream: &Stream) -> Reference {
        let round = inproc::round(plan, seed, stream, false, false);
        let mut by_id = round.decisions.clone();
        by_id.sort_by_key(|d| d.request_id);
        Reference {
            decisions: round.decisions,
            by_id,
            segments: round.ledger.to_jsonl_segments(),
        }
    }
}

/// Failures counted in a round that passed its checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests offered.
    pub offered: u64,
    /// Requests shed by the service or rejected at the TCP boundary.
    pub refused: u64,
}

/// Check one round's output against the reference:
///
/// * every offered request is answered exactly once;
/// * no shed or boundary reject resolves to anything but a deny;
/// * every retained segment verifies and its anchors chain;
/// * decisions and sealed ledger bytes equal the reference's.
///
/// `decisions` are in emission order, or sorted by id when `sorted`.
pub fn round(
    offered: u64,
    decisions: &[Decision],
    ledger: &SegmentedLedger,
    reference: &Reference,
    sorted: bool,
) -> Result<Tally, String> {
    let mut seen = vec![0u32; offered as usize];
    for d in decisions {
        match seen.get_mut(d.request_id as usize) {
            Some(n) => *n += 1,
            None => return Err(format!("decision for unknown request {}", d.request_id)),
        }
    }
    if let Some((id, n)) = seen.iter().enumerate().find(|(_, &n)| n != 1) {
        return Err(format!("request {id} answered {n} times"));
    }
    let mut refused = 0;
    for d in decisions {
        let rejected = d.reason().starts_with(REJECT_PREFIX);
        if d.shed.is_some() || rejected {
            refused += 1;
            if !matches!(d.verdict, GuardVerdict::Deny { .. }) {
                return Err(format!(
                    "refused request {} resolved to {}",
                    d.request_id,
                    d.verdict_name()
                ));
            }
        }
    }
    ledger
        .verify()
        .map_err(|e| format!("ledger does not verify: {e:?}"))?;
    let expected = if sorted {
        &reference.by_id
    } else {
        &reference.decisions
    };
    if decisions != expected.as_slice() {
        let at = decisions
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or(decisions.len().min(expected.len()));
        return Err(format!(
            "decision stream differs from the threads=1 reference at position {at}"
        ));
    }
    if ledger.to_jsonl_segments() != reference.segments {
        return Err("sealed ledger bytes differ from the threads=1 reference".into());
    }
    Ok(Tally { offered, refused })
}
