//! `anatomy-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host header, one line per metric (name, value, unit, sample
//! count) and, last, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 without metrics when any output check fails, and
//! 2 on a usage error.

use std::path::Path;
use std::process::{Command, ExitCode};

use anatomy_bench::bench::{run, Options, Report};
use anatomy_bench::plan::{Plan, Workload, SERVE_THREADS};

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("anatomy-bench: {e}");
            eprintln!(
                "usage: anatomy-bench --workload <inproc-hot|inproc-miss|tcp-lockstep> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            print_report(&opts, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("anatomy-bench: check failed: {e}");
            println!(r#"{{"correct": false, "attempted": 0, "failed": 0, "metrics": {{}}}}"#);
            ExitCode::from(1)
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        plan: Plan::full(workload.ok_or("--workload is required")?),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_report(opts: &Options, report: &Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# host nproc={nproc} threads={SERVE_THREADS} auto_threads={} git={} profile={profile}",
        report.auto_threads,
        git_revision()
    );
    let p = &opts.plan;
    println!(
        "# workload={} seed={} trace={} rounds={} per_round={} ({} ticks x {}/tick) \
         attempted={} failed={} failed_frac={} hit_ratio={:.4} shed={}",
        p.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        report.rounds,
        p.offered(),
        p.round_ticks,
        p.per_tick,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.hit_ratio,
        report.shed,
    );
    for m in &report.raw {
        println!("# raw {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    for m in &report.metrics {
        println!("{} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line stays parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The checkout's git revision, or `unknown` outside a git work tree.
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
