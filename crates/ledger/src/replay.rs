//! Divergence detection between a recorded reference and a re-execution.
//!
//! The replayer does not run the simulation itself (that would drag the sim
//! layer into this crate); the sim re-executes a run — from the seed or
//! from a restored snapshot — while recording into a fresh ledger, and the
//! [`Replayer`] aligns the two event streams and reports the first
//! divergence. A faithful deterministic replay reproduces the recorded
//! stream event for event, snapshots included.

use std::fmt;

use crate::event::RunEvent;
use crate::ledger::Ledger;

/// The first point at which a replay departed from the recorded run.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Both streams have an event at this position but they differ.
    Mismatch {
        /// Reference-ledger seq of the differing record.
        seq: u64,
        /// Kind tag of the recorded event.
        expected: String,
        /// Kind tag of the replayed event.
        observed: String,
    },
    /// The replay produced more events than were recorded.
    ExtraEvents {
        /// Reference-ledger seq where recorded events ran out.
        seq: u64,
        /// How many surplus events the replay produced.
        surplus: u64,
    },
    /// The replay ended before reproducing every recorded event.
    MissingEvents {
        /// Reference-ledger seq of the first unreproduced record.
        seq: u64,
        /// How many recorded events were never reproduced.
        missing: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Mismatch {
                seq,
                expected,
                observed,
            } => {
                write!(
                    f,
                    "diverged at record {seq}: recorded {expected}, replayed {observed}"
                )
            }
            Divergence::ExtraEvents { seq, surplus } => {
                write!(
                    f,
                    "replay produced {surplus} extra events past record {seq}"
                )
            }
            Divergence::MissingEvents { seq, missing } => {
                write!(f, "replay missing {missing} events from record {seq}")
            }
        }
    }
}

/// Outcome of a replay comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Reference seq the comparison started from.
    pub start_seq: u64,
    /// Events compared successfully before the end (or the divergence).
    pub matched: u64,
    /// The first divergence, if the replay was not faithful.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Did the replay reproduce the recorded stream exactly?
    pub fn is_faithful(&self) -> bool {
        self.divergence.is_none()
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.divergence {
            None => write!(
                f,
                "replay faithful: {} events reproduced from record {}",
                self.matched, self.start_seq
            ),
            Some(divergence) => write!(f, "{divergence} ({} matched before)", self.matched),
        }
    }
}

/// Aligns a replayed ledger against the recorded reference.
#[derive(Debug, Clone, Copy)]
pub struct Replayer<'a> {
    reference: &'a Ledger,
    /// First reference seq to compare (0 for from-origin replays,
    /// `snapshot seq + 1` for from-snapshot replays).
    start: u64,
}

impl<'a> Replayer<'a> {
    /// Compare a replay that re-executed the run from tick 0. The replayed
    /// ledger's own run header is compared against the reference header, so
    /// a replay under a different seed or fleet size diverges at record 0.
    pub fn from_origin(reference: &'a Ledger) -> Self {
        Replayer {
            reference,
            start: 0,
        }
    }

    /// Compare a replay that resumed from the snapshot stored at reference
    /// seq `snapshot_seq`. Comparison starts just past the snapshot record;
    /// the replayed ledger's run header (its record 0) is skipped.
    pub fn from_snapshot(reference: &'a Ledger, snapshot_seq: u64) -> Self {
        Replayer {
            reference,
            start: snapshot_seq + 1,
        }
    }

    /// Align the two streams and report the first divergence.
    pub fn compare(&self, replayed: &Ledger) -> ReplayReport {
        self.align(replayed, false)
    }

    /// Like [`compare`](Replayer::compare), but for a reference recovered
    /// from a torn (crash-truncated) ledger: the replay re-executes the
    /// whole run, so it legitimately extends past the reference's cut —
    /// the comparison only requires the surviving reference prefix to be
    /// reproduced exactly, and surplus replay events are not a divergence.
    pub fn compare_prefix(&self, replayed: &Ledger) -> ReplayReport {
        self.align(replayed, true)
    }

    fn align(&self, replayed: &Ledger, allow_extra: bool) -> ReplayReport {
        // From-snapshot replays open with their own RunStarted header that
        // has no counterpart in the reference suffix — skip it.
        let replay_skip = usize::from(self.start > 0);
        let reference = &self.reference.records()[self.start as usize..];
        let replayed = &replayed.records()[replay_skip.min(replayed.len())..];

        let mut matched = 0u64;
        for (offset, reference_record) in reference.iter().enumerate() {
            match replayed.get(offset) {
                None => {
                    return ReplayReport {
                        start_seq: self.start,
                        matched,
                        divergence: Some(Divergence::MissingEvents {
                            seq: reference_record.seq,
                            missing: (reference.len() - offset) as u64,
                        }),
                    };
                }
                Some(replay_record) => {
                    if reference_record.tick != replay_record.tick
                        || reference_record.event != replay_record.event
                    {
                        return ReplayReport {
                            start_seq: self.start,
                            matched,
                            divergence: Some(Divergence::Mismatch {
                                seq: reference_record.seq,
                                expected: describe(&reference_record.event),
                                observed: describe(&replay_record.event),
                            }),
                        };
                    }
                    matched += 1;
                }
            }
        }
        if !allow_extra && replayed.len() > reference.len() {
            return ReplayReport {
                start_seq: self.start,
                matched,
                divergence: Some(Divergence::ExtraEvents {
                    seq: self.start + reference.len() as u64,
                    surplus: (replayed.len() - reference.len()) as u64,
                }),
            };
        }
        ReplayReport {
            start_seq: self.start,
            matched,
            divergence: None,
        }
    }
}

fn describe(event: &RunEvent) -> String {
    match event {
        RunEvent::Proposal { device, action } | RunEvent::Execution { device, action } => {
            format!("{} d{device}:{action}", event.kind())
        }
        RunEvent::Verdict {
            device, verdict, ..
        } => {
            format!("verdict d{device}:{verdict}")
        }
        other => other.kind().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{RotationPolicy, SegmentedRecorder};

    fn recorder() -> SegmentedRecorder {
        SegmentedRecorder::new("demo", 1, 1, RotationPolicy::default())
    }

    fn seal(rec: SegmentedRecorder, ticks: u64) -> Ledger {
        rec.finish(ticks, 0).into_single().expect("unrotated run")
    }

    fn reference() -> Ledger {
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            1,
            RunEvent::Execution {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            2,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        seal(rec, 2)
    }

    #[test]
    fn identical_replay_is_faithful() {
        let reference = reference();
        let replay = reference.clone();
        let report = Replayer::from_origin(&reference).compare(&replay);
        assert!(report.is_faithful(), "{report}");
        assert_eq!(report.matched, reference.len() as u64);
    }

    #[test]
    fn differing_event_is_localized() {
        let reference = reference();
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            1,
            RunEvent::Execution {
                device: 0,
                action: "strike".into(),
            },
        );
        rec.record(
            2,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        let replay = seal(rec, 2);
        let report = Replayer::from_origin(&reference).compare(&replay);
        match report.divergence {
            Some(Divergence::Mismatch { seq, .. }) => assert_eq!(seq, 2),
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert_eq!(report.matched, 2);
    }

    #[test]
    fn short_replay_reports_missing_events() {
        let reference = reference();
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        let replay = seal(rec, 1);
        let report = Replayer::from_origin(&reference).compare(&replay);
        assert!(matches!(
            report.divergence,
            Some(Divergence::Mismatch { .. })
        ));
    }

    #[test]
    fn prefix_compare_tolerates_replay_overrun() {
        // Simulate a torn reference: keep only the first three records of
        // the sealed run. A full faithful replay overruns the cut; the
        // prefix comparison accepts that, while strict compare flags it.
        let full = reference();
        let prefix: String = full
            .to_jsonl()
            .lines()
            .take(3)
            .flat_map(|l| [l, "\n"])
            .collect();
        let torn = Ledger::from_jsonl(&prefix).unwrap();
        let strict = Replayer::from_origin(&torn).compare(&full);
        assert!(matches!(
            strict.divergence,
            Some(Divergence::ExtraEvents { .. })
        ));
        let report = Replayer::from_origin(&torn).compare_prefix(&full);
        assert!(report.is_faithful(), "{report}");
        assert_eq!(report.matched, 3);
        // A replay that differs *inside* the surviving prefix still fails.
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "strike".into(),
            },
        );
        let divergent = seal(rec, 1);
        let report = Replayer::from_origin(&torn).compare_prefix(&divergent);
        assert!(!report.is_faithful());
    }

    #[test]
    fn snapshot_alignment_skips_the_replay_header() {
        // Reference: header, two events, seal. Pretend record 1 was a
        // snapshot; a resumed replay reproduces records 2.. only.
        let reference = reference();
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Execution {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            2,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        let replay = seal(rec, 2);
        let report = Replayer::from_snapshot(&reference, 1).compare(&replay);
        assert!(report.is_faithful(), "{report}");
        assert_eq!(report.start_seq, 2);
        assert_eq!(report.matched, 3);
    }
}
