//! Decision-anatomy benchmark for `apdm`: wall-clock decisions/s and
//! latency of one audited decision — request in, guard verdict, ledger
//! record, response out — served in process by `apdm-serve` and over
//! loopback TCP by `apdm-net`, plus per-layer timings taken by calling each
//! layer's public functions from outside. See `README.md` in this
//! directory for the workloads and every metric.

pub mod bench;
pub mod check;
pub mod inproc;
pub mod layers;
pub mod plan;
pub mod stats;
pub mod tcp;
