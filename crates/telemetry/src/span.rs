//! Spans: RAII-guarded regions with a thread-local nesting stack.
//!
//! A [`Span`] emits a `span_start` record when entered and a `span_end`
//! record (carrying the wall-clock duration) when dropped. The thread-local
//! stack tracks nesting depth; because the guard restores the stack in its
//! `Drop` impl, depth stays consistent even when a panic unwinds through an
//! open span — the unwind drops inner guards before outer ones.

use std::cell::RefCell;
use std::time::Instant;

use crate::record::{FieldValue, Level, Name, RecordKind};
use crate::subscriber::{emit, enabled};

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Current span nesting depth on this thread.
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Name of the innermost open span, if any.
pub fn current_span() -> Option<String> {
    SPAN_STACK.with(|s| s.borrow().last().map(|n| n.to_string()))
}

/// An open span; closing happens on drop. Construct via
/// [`enter_span`] or the [`span!`](crate::span!) macro.
#[must_use = "a span closes when dropped; binding it to _ closes it immediately"]
pub struct Span {
    /// `None` when telemetry was disabled at entry — the drop is then free.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    depth: usize,
    started: Instant,
}

impl Span {
    /// The no-op span handed out while no subscriber is installed.
    pub fn disabled() -> Span {
        Span { live: None }
    }

    /// Is this span actually recording?
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        // Unwind-safe restore: truncate to our depth rather than popping
        // blindly, so a stack desynced by a panicking subscriber still
        // converges.
        SPAN_STACK.with(|s| s.borrow_mut().truncate(live.depth));
        let dur_ns = crate::elapsed_ns(live.started);
        emit(
            RecordKind::SpanEnd,
            live.name,
            Level::Info,
            live.depth as u64,
            Some(dur_ns),
            Vec::new(),
        );
    }
}

/// Open a span. Prefer the [`span!`](crate::span!) macro, which skips field
/// construction entirely when telemetry is disabled.
pub fn enter_span(name: &'static str, fields: Vec<(Name, FieldValue)>) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    let depth = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let depth = stack.len();
        stack.push(name);
        depth
    });
    emit(
        RecordKind::SpanStart,
        name,
        Level::Info,
        depth as u64,
        None,
        fields,
    );
    Span {
        live: Some(LiveSpan {
            name,
            depth,
            started: Instant::now(),
        }),
    }
}

/// Emit a pre-measured span as an adjacent start/end pair at the current
/// depth. Used for *aggregate* regions whose duration was accumulated
/// across interleaved work (the per-tick phase spans), where an RAII guard
/// cannot bracket the region. `dur_ns` is `None` when the region was
/// emitted without wall-clock measurement (e.g. on a tick the phase-timing
/// sampler skipped).
pub fn complete_span(name: &'static str, dur_ns: Option<u64>, fields: Vec<(Name, FieldValue)>) {
    if !enabled() {
        return;
    }
    let depth = span_depth() as u64;
    emit(
        RecordKind::SpanStart,
        name,
        Level::Info,
        depth,
        None,
        fields,
    );
    emit(
        RecordKind::SpanEnd,
        name,
        Level::Info,
        depth,
        dur_ns,
        Vec::new(),
    );
}

/// Emit a point event. Prefer the [`event!`](crate::event!) macro.
pub fn emit_event(name: &'static str, level: Level, fields: Vec<(Name, FieldValue)>) {
    if !enabled() {
        return;
    }
    emit(
        RecordKind::Event,
        name,
        level,
        span_depth() as u64,
        None,
        fields,
    );
}

/// Open a span: `span!("name")` or `span!("name", device = 3, kind = "x")`.
/// Bind the result (`let _span = span!(...)`) — it closes on drop. Free
/// when no subscriber is installed: fields are not even constructed.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::enter_span(
                $name,
                vec![$(($crate::Name::Borrowed(stringify!($key)), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Emit a point event: `event!(Level::Info, "name", key = value, ...)`.
/// Free when no subscriber is installed.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit_event(
                $name,
                $level,
                vec![$(($crate::Name::Borrowed(stringify!($key)), $crate::FieldValue::from($value))),*],
            );
        }
    };
}
