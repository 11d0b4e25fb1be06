//! The trace file formats: golden bytes, JSONL import edge cases, and a
//! property-tested round trip over the full normalized record domain.

use proptest::prelude::*;

use apdm::telemetry::{
    FieldValue, Level, Name, RecordKind, TraceContext, TraceGraph, TraceRecord, VirtualTs,
};
use apdm::trace::{export_chrome, export_chrome_devices, export_jsonl, import_jsonl};

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

/// Fixed records covering every `FieldValue` variant, hostile strings,
/// integer extremes, awkward floats, `dur_ns` present and absent, empty
/// `fields`, and trace-context records for the per-device timeline.
fn golden_records() -> Vec<TraceRecord> {
    let hostile = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}d\u{7f}é😀";
    let name = |s: &str| Name::Owned(s.to_string());
    let root = TraceContext::root(42, true);
    let hop = root.child(0);
    let mut root_fields = Vec::new();
    root.push_fields(0, &mut root_fields);
    let mut hop_fields = vec![(name("note"), FieldValue::Str(hostile.to_string()))];
    hop.push_fields(7, &mut hop_fields);
    let rec = |kind, rec_name: &str, tick, seq, level, depth, dur_ns, fields| TraceRecord {
        kind,
        name: name(rec_name),
        ts: VirtualTs { tick, seq },
        level,
        depth,
        dur_ns,
        fields,
    };
    vec![
        rec(
            RecordKind::SpanStart,
            "phase.guard",
            3,
            0,
            Level::Info,
            1,
            None,
            vec![
                (name("max"), FieldValue::U64(u64::MAX)),
                (name("zero"), FieldValue::U64(0)),
                (name("neg"), FieldValue::I64(-42)),
                (name("min"), FieldValue::I64(i64::MIN)),
                (name("tiny"), FieldValue::F64(5e-6)),
                (name("huge"), FieldValue::F64(1e20)),
                (name("nan"), FieldValue::F64(f64::NAN)),
                (name("inf"), FieldValue::F64(f64::INFINITY)),
                (name("whole"), FieldValue::F64(2.0)),
                (name("neg_zero"), FieldValue::F64(-0.0)),
                (name("quarter"), FieldValue::F64(0.25)),
                (name("yes"), FieldValue::Bool(true)),
                (name("no"), FieldValue::Bool(false)),
                (name(hostile), FieldValue::Str(hostile.to_string())),
                (name(""), FieldValue::Str(String::new())),
            ],
        ),
        rec(
            RecordKind::Event,
            hostile,
            3,
            1,
            Level::Warn,
            2,
            None,
            vec![],
        ),
        rec(
            RecordKind::SpanEnd,
            "phase.guard",
            3,
            2,
            Level::Info,
            1,
            Some(u64::MAX),
            vec![],
        ),
        rec(
            RecordKind::Event,
            "req.submit",
            10,
            3,
            Level::Debug,
            0,
            None,
            root_fields,
        ),
        rec(
            RecordKind::SpanStart,
            "comms.\"recv\"",
            u64::MAX,
            4,
            Level::Error,
            0,
            None,
            hop_fields,
        ),
        rec(
            RecordKind::SpanEnd,
            "comms.\"recv\"",
            u64::MAX,
            5,
            Level::Error,
            u64::MAX,
            Some(0),
            vec![],
        ),
    ]
}

/// `export_jsonl` output for [`golden_records`]. Trace files must keep these
/// exact bytes: tools and diffs of old traces depend on them.
const GOLDEN_JSONL: &str = "{\"kind\":\"span_start\",\"name\":\"phase.guard\",\"tick\":3,\"seq\":0,\"depth\":1,\"level\":\"info\",\"fields\":{\"max\":18446744073709551615,\"zero\":0,\"neg\":-42,\"min\":-9223372036854775808,\"tiny\":5e-6,\"huge\":1e20,\"nan\":null,\"inf\":null,\"whole\":2.0,\"neg_zero\":-0.0,\"quarter\":0.25,\"yes\":true,\"no\":false,\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}é😀\":\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}é😀\",\"\":\"\"}}\n{\"kind\":\"event\",\"name\":\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}é😀\",\"tick\":3,\"seq\":1,\"depth\":2,\"level\":\"warn\"}\n{\"kind\":\"span_end\",\"name\":\"phase.guard\",\"tick\":3,\"seq\":2,\"depth\":1,\"level\":\"info\",\"dur_ns\":18446744073709551615}\n{\"kind\":\"event\",\"name\":\"req.submit\",\"tick\":10,\"seq\":3,\"depth\":0,\"level\":\"debug\",\"fields\":{\"trace\":42,\"span\":13679457532755275413,\"parent\":0,\"dev\":0}}\n{\"kind\":\"span_start\",\"name\":\"comms.\\\"recv\\\"\",\"tick\":18446744073709551615,\"seq\":4,\"depth\":0,\"level\":\"error\",\"fields\":{\"note\":\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}é😀\",\"trace\":42,\"span\":16294208416658607535,\"parent\":13679457532755275413,\"dev\":7}}\n{\"kind\":\"span_end\",\"name\":\"comms.\\\"recv\\\"\",\"tick\":18446744073709551615,\"seq\":5,\"depth\":18446744073709551615,\"level\":\"error\",\"dur_ns\":0}\n";

/// `export_chrome` output for [`golden_records`].
const GOLDEN_CHROME: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"phase.guard\",\"cat\":\"apdm\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0,\"args\":{\"max\":18446744073709551615,\"zero\":0,\"neg\":-42,\"min\":-9223372036854775808,\"tiny\":5e-6,\"huge\":1e20,\"nan\":null,\"inf\":null,\"whole\":2.0,\"neg_zero\":-0.0,\"quarter\":0.25,\"yes\":true,\"no\":false,\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}é😀\":\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}é😀\",\"\":\"\",\"tick\":3}},{\"name\":\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}é😀\",\"cat\":\"apdm\",\"ph\":\"i\",\"ts\":1,\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"tick\":3}},{\"name\":\"phase.guard\",\"cat\":\"apdm\",\"ph\":\"E\",\"ts\":2,\"pid\":0,\"tid\":0,\"args\":{\"tick\":3,\"dur_ns\":18446744073709551615}},{\"name\":\"req.submit\",\"cat\":\"apdm\",\"ph\":\"i\",\"ts\":3,\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"trace\":42,\"span\":13679457532755275413,\"parent\":0,\"dev\":0,\"tick\":10}},{\"name\":\"comms.\\\"recv\\\"\",\"cat\":\"apdm\",\"ph\":\"B\",\"ts\":4,\"pid\":0,\"tid\":0,\"args\":{\"note\":\"q\\\"b\\\\s/n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}é😀\",\"trace\":42,\"span\":16294208416658607535,\"parent\":13679457532755275413,\"dev\":7,\"tick\":18446744073709551615}},{\"name\":\"comms.\\\"recv\\\"\",\"cat\":\"apdm\",\"ph\":\"E\",\"ts\":5,\"pid\":0,\"tid\":0,\"args\":{\"tick\":18446744073709551615,\"dur_ns\":0}}]}";

/// `export_chrome_devices` output for [`golden_records`].
const GOLDEN_DEVICES: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"device 0\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":7,\"args\":{\"name\":\"device 7\"}},{\"name\":\"req.submit\",\"cat\":\"apdm\",\"ph\":\"X\",\"ts\":3,\"dur\":1,\"pid\":0,\"tid\":0,\"args\":{\"trace\":42,\"span\":13679457532755275413,\"parent\":0,\"tick\":10}},{\"name\":\"comms.\\\"recv\\\"\",\"cat\":\"apdm\",\"ph\":\"X\",\"ts\":4,\"dur\":1,\"pid\":0,\"tid\":7,\"args\":{\"trace\":42,\"span\":16294208416658607535,\"parent\":13679457532755275413,\"tick\":18446744073709551615}}]}";

#[test]
fn exports_match_golden_bytes() {
    let records = golden_records();
    assert_eq!(export_jsonl(&records), GOLDEN_JSONL);
    assert_eq!(export_chrome(&records), GOLDEN_CHROME);
    assert_eq!(export_chrome_devices(&records), GOLDEN_DEVICES);
}

#[test]
fn golden_jsonl_reimports_to_the_same_bytes() {
    let back = import_jsonl(GOLDEN_JSONL).expect("golden trace must re-import");
    assert_eq!(back.len(), golden_records().len());
    assert_eq!(export_jsonl(&back), GOLDEN_JSONL);
    assert_eq!(export_chrome(&back), GOLDEN_CHROME);
    assert_eq!(export_chrome_devices(&back), GOLDEN_DEVICES);
}

// ---------------------------------------------------------------------------
// JSONL import
// ---------------------------------------------------------------------------

#[test]
fn import_decodes_every_json_escape() {
    let line = r#"{"kind":"event","name":"a\/b \ud83d\ude00 \u0041\n\r\t\b\f\"\\é","tick":0,"seq":0,"depth":0,"level":"info","fields":{"k\/":"\ud83d\ude00"}}"#;
    let records = import_jsonl(line).expect("escaped line must import");
    assert_eq!(&*records[0].name, "a/b 😀 A\n\r\t\u{8}\u{c}\"\\é");
    assert_eq!(
        records[0].fields,
        vec![(Name::Borrowed("k/"), FieldValue::Str("😀".to_string()))]
    );
}

#[test]
fn import_maps_numbers_onto_the_normalized_field_domain() {
    let line = r#"{"kind":"event","name":"n","tick":0,"seq":0,"depth":0,"level":"info","fields":{"max":18446744073709551615,"five":5,"neg":-3,"min":-9223372036854775808,"half":1.5,"gone":null}}"#;
    let fields = &import_jsonl(line).expect("numeric line must import")[0].fields;
    let values: Vec<&FieldValue> = fields.iter().map(|(_, v)| v).collect();
    assert_eq!(values[0], &FieldValue::U64(u64::MAX));
    assert_eq!(values[1], &FieldValue::U64(5));
    assert_eq!(values[2], &FieldValue::I64(-3));
    assert_eq!(values[3], &FieldValue::I64(i64::MIN));
    assert_eq!(values[4], &FieldValue::F64(1.5));
    assert!(matches!(values[5], FieldValue::F64(v) if v.is_nan()));
}

#[test]
fn import_rejects_malformed_records() {
    for (line, want) in [
        ("[1,2]", "not a JSON object"),
        (r#"{"kind":"event"}"#, "missing `name`"),
        (
            r#"{"kind":"event","name":"x","tick":-1,"seq":0,"depth":0,"level":"info"}"#,
            "missing `tick`",
        ),
        (
            r#"{"kind":"event","name":"x","tick":0,"seq":0,"depth":0,"level":"loud"}"#,
            "unknown level",
        ),
        (
            r#"{"kind":"event","name":"x","tick":0,"seq":0,"depth":0,"level":"info","dur_ns":1.5}"#,
            "`dur_ns` is not an unsigned integer",
        ),
        (
            r#"{"kind":"event","name":"x","tick":0,"seq":0,"depth":0,"level":"info","fields":{"a":[1]}}"#,
            "non-scalar",
        ),
    ] {
        let err = import_jsonl(line).expect_err(line);
        assert_eq!(err.line, 1);
        assert!(err.message.contains(want), "{line}: {err}");
    }
}

// ---------------------------------------------------------------------------
// Per-device Chrome timeline
// ---------------------------------------------------------------------------

fn node_rec(name: &str, ctx: TraceContext, device: u64, tick: u64, seq: u64) -> TraceRecord {
    let mut fields = Vec::new();
    ctx.push_fields(device, &mut fields);
    TraceRecord {
        kind: RecordKind::Event,
        name: Name::Owned(name.to_string()),
        ts: VirtualTs { tick, seq },
        level: Level::Debug,
        depth: 0,
        dur_ns: None,
        fields,
    }
}

#[test]
fn chrome_devices_export_parses_and_tracks_devices() {
    let root = TraceContext::root(7, true);
    let send = root.child(0);
    let recv = send.child(0);
    let records = vec![
        node_rec("req.submit", root, 0, 10, 0),
        node_rec("comms.send", send, 0, 10, 1),
        node_rec("comms.recv", recv, 1, 16, 2),
    ];
    let doc = export_chrome_devices(&records);
    assert!(doc.contains("\"ph\":\"X\""));
    assert!(doc.contains("\"tid\":1"));
    assert!(doc.contains("device 1"));
    let parsed: serde::Value = serde_json::from_str(&doc).expect("timeline must parse");
    let events = parsed.get("traceEvents").and_then(|e| e.as_seq()).unwrap();
    // One track-name row per device, then one slice per DAG node.
    assert_eq!(events.len(), 2 + TraceGraph::build(&records).node_count());
}

// ---------------------------------------------------------------------------
// JSONL round trip (property)
// ---------------------------------------------------------------------------

/// Alphabet exercising the JSON writer's escape paths: quotes, backslash,
/// control characters, multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', '_', '.', '-', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', 'λ',
    '🛰',
];

fn arb_string() -> impl Strategy<Value = String> {
    collection::vec(0usize..CHARS.len(), 0..8)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i]).collect())
}

/// A field value from the *normalized* domain the `From` impls produce:
/// non-negative integers are always `U64` (the wire cannot tell `5i64`
/// from `5u64`), floats are finite (NaN serializes as `null` and is not
/// `PartialEq`-comparable anyway).
fn arb_field_value() -> impl Strategy<Value = FieldValue> {
    (
        0usize..5,
        any::<u64>(),
        any::<i64>(),
        -1.0e9..1.0e9f64,
        any::<bool>(),
        arb_string(),
    )
        .prop_map(|(sel, u, i, f, b, s)| match sel {
            0 => FieldValue::U64(u),
            1 => FieldValue::from(i), // normalizes non-negative to U64
            2 => FieldValue::F64(f),
            3 => FieldValue::Bool(b),
            _ => FieldValue::Str(s),
        })
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        (0usize..3, 0usize..4),
        arb_string(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<u64>()),
        collection::vec((arb_string(), arb_field_value()), 0..5),
    )
        .prop_map(
            |((k, l), name, (tick, seq, depth), (has_dur, dur), fields)| {
                let kind = [
                    RecordKind::SpanStart,
                    RecordKind::SpanEnd,
                    RecordKind::Event,
                ][k];
                let level = [Level::Debug, Level::Info, Level::Warn, Level::Error][l];
                TraceRecord {
                    kind,
                    name: Name::Owned(name),
                    ts: VirtualTs { tick, seq },
                    level,
                    depth,
                    dur_ns: has_dur.then_some(dur),
                    fields: fields
                        .into_iter()
                        .map(|(key, value)| (Name::Owned(key), value))
                        .collect(),
                }
            },
        )
}

proptest! {
    /// export_jsonl → import_jsonl is the identity on arbitrary normalized
    /// records, including hostile names/keys (quotes, escapes, control
    /// characters, multi-byte UTF-8) and `u64` extremes.
    #[test]
    fn jsonl_round_trip_is_identity(records in collection::vec(arb_record(), 0..12)) {
        let wire = export_jsonl(&records);
        let back = import_jsonl(&wire).expect("exported trace must re-import");
        prop_assert_eq!(back, records);
    }

    /// One JSON line per record, in emission order, each independently
    /// re-importable (tools may stream line-by-line).
    #[test]
    fn jsonl_lines_are_independent(records in collection::vec(arb_record(), 1..8)) {
        let wire = export_jsonl(&records);
        let lines: Vec<&str> = wire.lines().collect();
        prop_assert_eq!(lines.len(), records.len());
        for (line, rec) in lines.iter().zip(&records) {
            let solo = import_jsonl(line).expect("single line must import");
            prop_assert_eq!(&solo, std::slice::from_ref(rec));
        }
    }
}
