//! Crash recovery for the serving layer.
//!
//! A rotating service ([`ServeConfig::rotation`]) heads every new ledger
//! segment with an anchor frame plus a [`ServeCheckpoint`] of its full
//! decision state. A process killed at *any* point — a batch boundary, or
//! halfway through writing a segment file — can restore from the newest
//! intact checkpoint and replay the suffix, and the resumed run's decision
//! stream and sealed ledger are bit-identical to an uninterrupted run, at
//! any worker thread count (experiment E16, in `apdm-bench`, sweeps that
//! claim over every crash point).
//!
//! [`SimDisk`] is the durable store: one JSONL file per retained segment,
//! which a harness can tear the way a kill would. Recovery
//! ([`recover_segments`]) walks the on-disk segments newest first:
//!
//! 1. If the newest segment's header — its anchor frame plus the
//!    checkpoint snapshot that follows it — parses and its chain
//!    verifies, resume from that checkpoint: everything recorded after
//!    the header is discarded and regenerated by deterministic replay.
//! 2. If the header itself is torn (the crash hit the anchor write),
//!    fall back to the *previous* segment's header: replay regenerates
//!    the discarded seal, the rotation, and the torn segment
//!    byte-identically.
//! 3. If the fallback bottoms out at segment 0 (whose header is the run
//!    header, with no checkpoint), restart the run from tick 1 — still
//!    bit-identical, just with nothing saved.
//!
//! Recovery work is bounded by the rotation budget: a crash never forces
//! replay of more than roughly two segments' worth of records.
//!
//! [`ServeConfig::rotation`]: crate::ServeConfig::rotation

use std::collections::BTreeMap;

use apdm_ledger::{Ledger, RunEvent, SegmentedRecorder};

use crate::checkpoint::ServeCheckpoint;

/// The simulated durable store: one JSONL file per ledger segment, keyed
/// by segment index. [`persist`](SimDisk::persist) mirrors the recorder's
/// retained segments exactly (pruned segments disappear, as retention
/// deletes their files), and the crash harness tears it the way a real
/// kill would: whole missing suffixes and half-written final lines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimDisk {
    files: BTreeMap<u64, String>,
}

impl SimDisk {
    /// Mirror the recorder's current retained state: every sealed segment
    /// plus the open one, pruned files removed.
    pub fn persist(&mut self, rec: &SegmentedRecorder) {
        self.files.clear();
        let first = rec.pruned();
        for (i, seg) in rec.sealed().iter().enumerate() {
            self.files.insert(first + i as u64, seg.to_jsonl());
        }
        self.files
            .insert(rec.segment_index(), rec.current().to_jsonl());
    }

    /// The stored segment files, oldest first.
    pub fn files(&self) -> &BTreeMap<u64, String> {
        &self.files
    }

    /// Insert (or replace) one segment file's contents — how the CLI
    /// rebuilds a disk image from real `.segNNNN.jsonl` files.
    pub fn insert(&mut self, segment: u64, text: String) {
        self.files.insert(segment, text);
    }

    /// Byte length of the newest segment file.
    pub fn last_len(&self) -> usize {
        self.files.values().next_back().map_or(0, String::len)
    }

    /// Records (non-empty lines) in the newest segment file.
    pub fn last_records(&self) -> usize {
        self.files
            .values()
            .next_back()
            .map_or(0, |t| t.lines().filter(|l| !l.trim().is_empty()).count())
    }

    /// Simulate a torn write: keep only the first `bytes` bytes of the
    /// newest segment file (clamped to a UTF-8 boundary, as JSONL is
    /// ASCII here that is the byte offset itself).
    pub fn tear_last(&mut self, bytes: usize) {
        if let Some(text) = self.files.values_mut().next_back() {
            let mut cut = bytes.min(text.len());
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        }
    }

    /// Total records (non-empty lines) across all stored files.
    fn total_records(&self) -> u64 {
        self.files
            .values()
            .map(|t| t.lines().filter(|l| !l.trim().is_empty()).count() as u64)
            .sum()
    }
}

/// What [`recover_segments`] salvaged from a crashed process's disk.
#[derive(Debug, Clone)]
pub enum Recovery {
    /// A usable checkpoint was found: resume from it.
    Resume {
        /// The decision-state checkpoint to restore the service from;
        /// replay resumes at `checkpoint.tick + 1`. Boxed: the memo
        /// caches make it by far the enum's largest field.
        checkpoint: Box<ServeCheckpoint>,
        /// Cleanly parsed retained sealed segments, oldest first.
        sealed: Vec<Ledger>,
        /// The open segment, truncated to its two header frames.
        current: Ledger,
        /// Records on disk that recovery dropped (deterministic replay
        /// regenerates every one of them byte-identically).
        discarded: u64,
    },
    /// No checkpoint survived (the run never rotated, or every anchor was
    /// torn): restart from tick 1.
    Restart {
        /// Records on disk that recovery dropped.
        discarded: u64,
    },
}

impl Recovery {
    /// Records recovery discarded — the replay work bound's numerator.
    pub fn discarded(&self) -> u64 {
        match self {
            Recovery::Resume { discarded, .. } | Recovery::Restart { discarded } => *discarded,
        }
    }
}

/// Parse a segment file's header — its [`RunEvent::SegmentOpened`] anchor
/// plus the [`RunEvent::Snapshot`] checkpoint that follows — tolerating a
/// torn final line anywhere later in the file. Returns the decoded
/// checkpoint and a ledger holding exactly the two header frames (their
/// digests re-chain identically, so a recorder resumed from it emits the
/// same bytes the crashed process would have). `None` when the header is
/// torn, malformed, or belongs to segment 0 (whose header is the run
/// header, which carries no checkpoint).
pub fn segment_header(text: &str) -> Option<(ServeCheckpoint, Ledger)> {
    let (ledger, _torn) = Ledger::from_jsonl_recovering(text).ok()?;
    if ledger.len() < 2 || ledger.verify_chain().is_err() {
        return None;
    }
    let checkpoint = match (&ledger.records()[0].event, &ledger.records()[1].event) {
        (RunEvent::SegmentOpened { .. }, RunEvent::Snapshot(frame)) => {
            ServeCheckpoint::from_frame(frame).ok()?
        }
        _ => return None,
    };
    let mut header = Ledger::new();
    for record in ledger.records().iter().take(2) {
        header.append(record.tick, record.event.clone());
    }
    Some((checkpoint, header))
}

/// Walk a crashed process's segment files newest-first and salvage the
/// most recent usable checkpoint (see the module docs for the fallback
/// ladder). Sealed predecessors of the chosen segment must parse cleanly
/// — a kill tears at most the newest file, so anything older that fails
/// to parse is treated as unrecoverable and the run restarts.
pub fn recover_segments(disk: &SimDisk) -> Recovery {
    let total = disk.total_records();
    let files: Vec<(&u64, &String)> = disk.files().iter().collect();
    for pos in (0..files.len()).rev() {
        let (&index, text) = files[pos];
        if index == 0 {
            break;
        }
        let Some((checkpoint, current)) = segment_header(text) else {
            // Torn anchor: fall back to the predecessor's header.
            continue;
        };
        let mut sealed = Vec::with_capacity(pos);
        let mut parsed_ok = true;
        for &(_, earlier) in &files[..pos] {
            match Ledger::from_jsonl(earlier) {
                Ok(seg) => sealed.push(seg),
                Err(_) => {
                    parsed_ok = false;
                    break;
                }
            }
        }
        if !parsed_ok {
            break;
        }
        let retained: u64 = sealed.iter().map(|s| s.len() as u64).sum::<u64>() + 2;
        return Recovery::Resume {
            checkpoint: Box::new(checkpoint),
            sealed,
            current,
            discarded: total.saturating_sub(retained),
        };
    }
    Recovery::Restart { discarded: total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PolicyDecisionService, ServeConfig};
    use crate::workload::{
        run_to_completion, standard_stacks, WorkloadGen, WorkloadOracle, WorkloadSpec,
    };

    #[test]
    fn empty_and_unrotated_disks_restart() {
        assert!(matches!(
            recover_segments(&SimDisk::default()),
            Recovery::Restart { discarded: 0 }
        ));
        let cfg = ServeConfig {
            threads: 1,
            rotation: Some(apdm_ledger::RotationPolicy {
                max_records: 12,
                max_bytes: 0,
                keep_sealed: 2,
            }),
            ..ServeConfig::default()
        };
        let mut svc = PolicyDecisionService::new(
            cfg,
            standard_stacks(cfg.shards, true),
            WorkloadOracle,
            "recovery",
        );
        let mut gen = WorkloadGen::new(WorkloadSpec {
            per_tick: 6,
            arrival_ticks: 18,
            ..WorkloadSpec::default()
        });
        let mut first = None;
        let mut disk = SimDisk::default();
        let done = run_to_completion(&mut svc, &mut gen, 1, 1_000, |_, rec| {
            disk.persist(rec);
            first.get_or_insert_with(|| disk.clone());
        });
        assert_eq!(done.watchdog, None);
        // The first tick's disk holds only segment 0: no checkpoint yet.
        let first = first.expect("at least one tick ran");
        assert_eq!(first.files().len(), 1);
        let rec = recover_segments(&first);
        assert!(matches!(rec, Recovery::Restart { .. }));
        assert!(rec.discarded() > 0);
        // The final disk has rotated: its newest header is a checkpoint.
        assert!(disk.files().len() > 1, "budget 12 must rotate");
        assert!(matches!(recover_segments(&disk), Recovery::Resume { .. }));
    }
}
