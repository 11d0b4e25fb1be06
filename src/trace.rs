//! Trace file formats: write captured [`TraceRecord`]s out and read them back.
//!
//! Two formats, both written through the workspace's one JSON codec
//! (`serde::json` writes, `serde_json` parses):
//!
//! * **JSONL** — one [`TraceRecord`] per line, lossless, re-importable with
//!   [`import_jsonl`] (property-tested round trip). This is the format the
//!   CI smoke test, `trace-analyze` and external tooling consume.
//! * **Chrome `trace_event`** — a `{"traceEvents": [...]}` document
//!   loadable in `chrome://tracing` / Perfetto. Timestamps are *virtual*
//!   (one microsecond per sequence number), so the timeline shows
//!   deterministic ordering and nesting; real wall-clock durations ride in
//!   each span-end's `args.dur_ns`. [`export_chrome`] draws one track for
//!   the whole run, [`export_chrome_devices`] one track per device.
//!
//! Field floats print in Rust's `{:?}` form (`5e-6`, `1e20`), not through
//! `serde::json::write_f64` (`0.000005`, `100000000000000000000.0`), so the
//! bytes of a trace file stay fixed; `tests/trace_files.rs` pins them.

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

use serde::json::{write_i64, write_str, write_u64};
use serde::Value;

use crate::telemetry::{
    FieldValue, Level, Name, RecordKind, TraceGraph, TraceNode, TraceRecord, VirtualTs,
};

const CHROME_HEAD: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

fn write_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => write_u64(out, *v),
        FieldValue::I64(v) => write_i64(out, *v),
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v:?}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(s) => write_str(out, s),
    }
}

/// Append `{"key":value,...}`.
fn write_fields<'a>(out: &mut String, fields: impl Iterator<Item = (&'a str, &'a FieldValue)>) {
    out.push('{');
    for (i, (key, value)) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, key);
        out.push(':');
        write_field_value(out, value);
    }
    out.push('}');
}

fn named(fields: &[(Name, FieldValue)]) -> impl Iterator<Item = (&str, &FieldValue)> {
    fields.iter().map(|(key, value)| (key.as_ref(), value))
}

/// Serialize one record as a single JSON line (no trailing newline).
pub fn record_to_json(rec: &TraceRecord) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"kind\":");
    write_str(&mut out, rec.kind.name());
    out.push_str(",\"name\":");
    write_str(&mut out, &rec.name);
    let _ = write!(
        out,
        ",\"tick\":{},\"seq\":{},\"depth\":{},\"level\":\"{}\"",
        rec.ts.tick,
        rec.ts.seq,
        rec.depth,
        rec.level.name()
    );
    if let Some(dur) = rec.dur_ns {
        let _ = write!(out, ",\"dur_ns\":{dur}");
    }
    if !rec.fields.is_empty() {
        out.push_str(",\"fields\":");
        write_fields(&mut out, named(&rec.fields));
    }
    out.push('}');
    out
}

/// Export records as JSONL, one record per line in emission order.
pub fn export_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&record_to_json(rec));
        out.push('\n');
    }
    out
}

/// A JSONL import failure, localized to its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace import failed at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ImportError {}

/// Re-import a JSONL trace produced by [`export_jsonl`]. Blank lines are
/// skipped; any malformed line aborts with its line number.
pub fn import_jsonl(text: &str) -> Result<Vec<TraceRecord>, ImportError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| {
            serde_json::from_str::<Value>(line)
                .map_err(|e| e.to_string())
                .and_then(|value| record_from_json(&value))
                .map_err(|message| ImportError {
                    line: idx + 1,
                    message,
                })
        })
        .collect()
}

fn record_from_json(value: &Value) -> Result<TraceRecord, String> {
    if value.as_map().is_none() {
        return Err("record line is not a JSON object".to_string());
    }
    let text = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    let unsigned = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    let kind_name = text("kind")?;
    let kind = RecordKind::parse(kind_name).ok_or_else(|| format!("unknown kind `{kind_name}`"))?;
    let name = Name::Owned(text("name")?.to_string());
    let tick = unsigned("tick")?;
    let seq = unsigned("seq")?;
    let depth = unsigned("depth")?;
    let level_name = text("level")?;
    let level = Level::parse(level_name).ok_or_else(|| format!("unknown level `{level_name}`"))?;
    let dur_ns = value
        .get("dur_ns")
        .map(|v| v.as_u64().ok_or("`dur_ns` is not an unsigned integer"))
        .transpose()?;
    let mut fields = Vec::new();
    if let Some(raw) = value.get("fields") {
        let entries = raw.as_map().ok_or("`fields` is not an object")?;
        for (key, value) in entries {
            let fv = match value {
                // Non-negative integers normalize to `U64`, as the `From` impls do.
                Value::Int(v) => FieldValue::from(*v),
                Value::UInt(v) => FieldValue::U64(*v),
                Value::Float(v) => FieldValue::F64(*v),
                Value::Bool(v) => FieldValue::Bool(*v),
                Value::Str(s) => FieldValue::Str(s.clone()),
                Value::Null => FieldValue::F64(f64::NAN),
                _ => return Err(format!("field `{key}` has a non-scalar value")),
            };
            fields.push((Name::Owned(key.clone()), fv));
        }
    }
    Ok(TraceRecord {
        kind,
        name,
        ts: VirtualTs { tick, seq },
        level,
        depth,
        dur_ns,
        fields,
    })
}

/// Export records as a Chrome `trace_event` document for `chrome://tracing`
/// or Perfetto. Span starts/ends map to `B`/`E` events, point events to
/// instants; `ts` is virtual time at one microsecond per sequence number.
pub fn export_chrome(records: &[TraceRecord]) -> String {
    let mut out = String::from(CHROME_HEAD);
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match rec.kind {
            RecordKind::SpanStart => "B",
            RecordKind::SpanEnd => "E",
            RecordKind::Event => "i",
        };
        out.push_str("{\"name\":");
        write_str(&mut out, &rec.name);
        let _ = write!(
            out,
            ",\"cat\":\"apdm\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":0",
            rec.ts.seq
        );
        if rec.kind == RecordKind::Event {
            out.push_str(",\"s\":\"t\"");
        }
        let tick = FieldValue::U64(rec.ts.tick);
        let dur = rec.dur_ns.map(FieldValue::U64);
        out.push_str(",\"args\":");
        write_fields(
            &mut out,
            named(&rec.fields)
                .chain([("tick", &tick)])
                .chain(dur.iter().map(|d| ("dur_ns", d))),
        );
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Export context-carrying records as a Chrome `trace_event` document with
/// **one track per device**: every [`TraceGraph`] node becomes a complete
/// (`X`) slice on its device's track, lasting until the trace's next node
/// (min 1). Timestamps follow the [`export_chrome`] convention of one
/// virtual microsecond per sequence number; the real tick rides in `args`.
pub fn export_chrome_devices(records: &[TraceRecord]) -> String {
    let graph = TraceGraph::build(records);
    let mut out = String::from(CHROME_HEAD);
    let mut first = true;
    let mut comma = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    // Track-naming metadata, one row per device.
    let devices: BTreeSet<u64> = graph
        .traces()
        .iter()
        .flat_map(|&t| graph.nodes(t).iter().map(|n| n.device))
        .collect();
    for dev in devices {
        comma(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{dev},\
             \"args\":{{\"name\":\"device {dev}\"}}}}"
        );
    }
    for trace in graph.traces() {
        let mut nodes: Vec<&TraceNode> = graph.nodes(trace).iter().collect();
        nodes.sort_by_key(|n| (n.tick, n.seq));
        for (i, node) in nodes.iter().enumerate() {
            let dur = nodes
                .get(i + 1)
                .map_or(1, |next| next.seq.saturating_sub(node.seq).max(1));
            comma(&mut out);
            out.push_str("{\"name\":");
            write_str(&mut out, &node.name);
            let _ = write!(
                out,
                ",\"cat\":\"apdm\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"tick\":{}}}}}",
                node.seq, node.device, node.trace, node.span, node.parent, node.tick
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind, name: &str, seq: u64) -> TraceRecord {
        TraceRecord {
            kind,
            name: Name::Owned(name.to_string()),
            ts: VirtualTs { tick: 3, seq },
            level: Level::Info,
            depth: 1,
            dur_ns: match kind {
                RecordKind::SpanEnd => Some(12_345),
                _ => None,
            },
            fields: vec![
                (Name::Owned("device".to_string()), FieldValue::U64(7)),
                (
                    Name::Owned("action".to_string()),
                    FieldValue::Str("strike \"x\"".into()),
                ),
                (Name::Owned("dx".to_string()), FieldValue::I64(-2)),
                (Name::Owned("rate".to_string()), FieldValue::F64(0.25)),
                (Name::Owned("ok".to_string()), FieldValue::Bool(true)),
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let records = vec![
            rec(RecordKind::SpanStart, "phase.guard", 0),
            rec(RecordKind::Event, "harm", 1),
            rec(RecordKind::SpanEnd, "phase.guard", 2),
        ];
        let jsonl = export_jsonl(&records);
        assert_eq!(jsonl.lines().count(), 3);
        let back = import_jsonl(&jsonl).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn u64_extremes_survive_the_wire() {
        let mut r = rec(RecordKind::SpanEnd, "x", 0);
        r.dur_ns = Some(u64::MAX);
        r.fields = vec![(Name::Owned("big".to_string()), FieldValue::U64(u64::MAX))];
        let back = import_jsonl(&export_jsonl(&[r.clone()])).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn import_localizes_the_bad_line() {
        let good = record_to_json(&rec(RecordKind::Event, "e", 0));
        let text = format!("{good}\n{{not json\n");
        let err = import_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn import_rejects_unknown_kinds() {
        let text = "{\"kind\":\"mystery\",\"name\":\"x\",\"tick\":0,\"seq\":0,\"depth\":0,\"level\":\"info\"}\n";
        let err = import_jsonl(text).unwrap_err();
        assert!(err.message.contains("unknown kind"), "{err}");
    }

    #[test]
    fn chrome_export_is_loadable_shape() {
        let records = vec![
            rec(RecordKind::SpanStart, "tick", 0),
            rec(RecordKind::Event, "harm", 1),
            rec(RecordKind::SpanEnd, "tick", 2),
        ];
        let doc = export_chrome(&records);
        assert!(doc.starts_with("{\"displayTimeUnit\""));
        assert!(doc.contains("\"ph\":\"B\""));
        assert!(doc.contains("\"ph\":\"E\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"dur_ns\":12345"));
        assert!(doc.ends_with("]}"));
        let parsed: Value = serde_json::from_str(&doc).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_seq).unwrap();
        assert_eq!(events.len(), records.len());
    }
}
