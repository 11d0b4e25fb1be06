//! Pinned ledger bytes: the head digests of two seed-42 golden runs.
//!
//! The CI smokes compare ledgers from runs of the same build against each
//! other, so a serializer change that altered every record identically would
//! pass them. These constants were measured before the compact JSON writer
//! was made streaming; any change to the canonical payload bytes, the JSONL
//! export or the chain digest moves them. The E17 segments carry serving
//! checkpoints with memoized verdicts, so the pin also covers the snapshot
//! payload path.

use apdm::bench::{golden_segments, E17Config};
use apdm::ledger::Ledger;
use apdm::serve::ServeCheckpoint;
use apdm::sim::recorder::{run_recorded, RecordSpec};

#[test]
fn seed_42_record_head_digest_is_pinned() {
    let run = run_recorded(&RecordSpec {
        seed: 42,
        threads: 1,
        ..Default::default()
    });
    assert_eq!(run.ledger.len(), 2_167);
    assert_eq!(run.ledger.head_digest(), 185_630_506_824_934_437);
    // The JSONL export re-imports to the same chain.
    let back = Ledger::from_jsonl(&run.ledger.to_jsonl()).expect("export parses");
    assert_eq!(back, run.ledger);
    back.verify().expect("exported chain verifies");
}

#[test]
fn seed_42_e17_golden_segment_heads_are_pinned() {
    let cfg = E17Config {
        seed: 42,
        ..E17Config::smoke()
    };
    let mut cached_verdicts = 0;
    let heads: Vec<u64> = golden_segments(&cfg)
        .iter()
        .map(|(_, jsonl)| {
            let segment = Ledger::from_jsonl(jsonl).expect("golden segment parses");
            segment
                .verify_chain()
                .expect("golden segment chain verifies");
            assert_eq!(segment.to_jsonl(), *jsonl, "export is not canonical");
            for (_, frame) in segment.snapshots() {
                let checkpoint = ServeCheckpoint::from_frame(frame).expect("checkpoint parses");
                cached_verdicts += checkpoint
                    .caches
                    .iter()
                    .flatten()
                    .map(|cache| cache.entries.len())
                    .sum::<usize>();
            }
            segment.head_digest()
        })
        .collect();
    assert_eq!(heads, [3_992_222_450_041_838, 2_221_483_229_347_926_620]);
    assert!(
        cached_verdicts > 0,
        "no golden checkpoint holds a cached verdict, so the pin misses the payload path"
    );
}
