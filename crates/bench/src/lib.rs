//! The apdm experiment harnesses and the helpers every bench target shares.
//!
//! Every bench target regenerates one experiment from DESIGN.md §3: it first
//! prints the experiment's table (the rows recorded in EXPERIMENTS.md), then
//! runs Criterion timings on a representative configuration. Seeds are fixed
//! so tables are reproducible run to run.
//!
//! The serving experiments (E13–E17 and the cost-model [`calibrate`]
//! fit) live here rather than in the crates they measure, so `apdm-serve`
//! and `apdm-net` hold production code only. They share one cell runner
//! ([`cell`]) and one determinism check ([`assert_reproducible`]): reports
//! compare equal once their wall-clock fields are zeroed.
//!
//! Progress banners route through an `apdm-telemetry` stderr subscriber;
//! set `APDM_QUIET=1` to silence them (the result tables on stdout are the
//! harness's output and stay).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::rc::Rc;

use apdm_telemetry::{self as telemetry, event, Level, StderrSubscriber};
use serde::{Deserialize, Serialize, Value};

pub mod calibrate;
pub mod cell;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;

pub use calibrate::{run_calibration, CalibrationReport};
pub use cell::{build_service, run_cell, CellRun};
pub use e13::{run_e13, run_e13_cell, E13CellReport, E13Config, E13Report, Knobs};
pub use e14::{run_e14, run_e14_mode, E14Config, E14ModeReport, E14Report, ServeMsg, TraceMode};
pub use e15::{run_e15, run_e15_cell, E15CellReport, E15Config, E15Report};
pub use e16::{resume_run, run_e16, run_e16_cell, E16CellReport, E16Config, E16Report};
pub use e17::{golden_segments, run_e17, E17CellReport, E17Config, E17Report};

/// Is the harness running quiet (`APDM_QUIET` set to anything but `0`)?
pub fn quiet() -> bool {
    std::env::var_os("APDM_QUIET").is_some_and(|v| v != "0")
}

/// Announce an experiment, matching EXPERIMENTS.md headings. Routed through
/// the telemetry stderr subscriber so `APDM_QUIET=1` silences it; when a
/// dispatch is already installed (a traced bench run), the event joins that
/// trace instead.
pub fn banner(id: &str, title: &str) {
    if quiet() {
        return;
    }
    if telemetry::enabled() {
        event!(Level::Info, "bench.banner", id = id, title = title);
    } else {
        let guard = telemetry::install(Rc::new(StderrSubscriber::default()));
        event!(Level::Info, "bench.banner", id = id, title = title);
        drop(guard);
    }
}

/// The fixed seed every table regeneration uses.
pub const TABLE_SEED: u64 = 42;

/// Host provenance stamped into every `BENCH_*.json`: wall-clock numbers
/// (throughput, speedup, overhead) are only comparable between runs on the
/// same parallel budget, so the report must say what that budget was.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostInfo {
    /// Hardware threads the host advertises (`apdm_par::hardware_threads`).
    pub hardware_threads: usize,
    /// The raw `APDM_THREADS` override, if the environment set one.
    pub apdm_threads: Option<String>,
    /// Cargo profile the harness was compiled under (`debug` timings are
    /// not comparable with `release` ones).
    pub profile: String,
    /// Short git revision of the working tree, when the repo is available.
    pub git_revision: Option<String>,
}

/// Short `git rev-parse` of the source tree the harness was built from.
fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!rev.is_empty()).then_some(rev)
}

/// Detect the current host's parallel budget and build provenance.
pub fn host_info() -> HostInfo {
    HostInfo {
        hardware_threads: apdm_par::hardware_threads(),
        apdm_threads: std::env::var("APDM_THREADS").ok(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_string(),
        git_revision: git_revision(),
    }
}

/// Write an experiment report as pretty JSON with the [`HostInfo`] header
/// spliced in as a leading `"host"` key. Every bench target routes its
/// `BENCH_*.json` through here; existing top-level keys are untouched, so
/// consumers reading them (`scripts/ci.sh`) keep working.
pub fn write_report<T: Serialize>(path: &str, report: &T) -> Result<(), String> {
    let mut value =
        serde_json::to_value(report).map_err(|e| format!("unserializable report: {e}"))?;
    let host = serde_json::to_value(&host_info()).map_err(|e| format!("host info: {e}"))?;
    if let Value::Map(entries) = &mut value {
        entries.insert(0, ("host".to_string(), host));
    }
    let body = serde_json::to_string_pretty(&value).map_err(|e| format!("render: {e}"))?;
    fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Report fields that carry wall-clock time (or ratios of it) and so differ
/// from run to run; everything else in a report is a pure function of its
/// config.
const WALL_CLOCK_FIELDS: [&str; 3] = ["wall_ns", "overhead_sampled", "overhead_full"];

/// A report as a JSON value with every [`WALL_CLOCK_FIELDS`] entry zeroed,
/// at any depth: two runs over the same config must compare equal under
/// this projection.
fn normalized<T: Serialize>(report: &T) -> Value {
    fn zero_wall_clock(value: &mut Value) {
        match value {
            Value::Map(entries) => {
                for (key, field) in entries {
                    if WALL_CLOCK_FIELDS.contains(&key.as_str()) {
                        *field = Value::UInt(0);
                    } else {
                        zero_wall_clock(field);
                    }
                }
            }
            Value::Seq(items) => items.iter_mut().for_each(zero_wall_clock),
            _ => {}
        }
    }
    let mut value = serde_json::to_value(report).expect("reports serialize");
    zero_wall_clock(&mut value);
    value
}

/// The determinism acceptance: run the experiment again and assert the
/// two reports are identical once every wall-clock field (`wall_ns`,
/// `overhead_sampled`, `overhead_full`, at any depth) is zeroed.
pub fn assert_reproducible<T: Serialize>(id: &str, report: &T, rerun: impl FnOnce() -> T) {
    assert_eq!(
        normalized(report),
        normalized(&rerun()),
        "{id}: two identical runs diverged modulo wall-clock"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Cell {
        wall_ns: u64,
        decided: u64,
    }

    #[derive(Serialize)]
    struct Report {
        cells: Vec<Cell>,
        overhead_full: f64,
        wall_ns: u64,
    }

    #[test]
    fn normalized_zeroes_wall_clock_fields_at_any_depth() {
        let run = |wall: u64, decided: u64| Report {
            cells: vec![Cell {
                wall_ns: wall,
                decided,
            }],
            overhead_full: wall as f64 / 7.0,
            wall_ns: wall * 2,
        };
        assert_eq!(normalized(&run(5, 3)), normalized(&run(900, 3)));
        assert_ne!(normalized(&run(5, 3)), normalized(&run(5, 4)));
    }
}
