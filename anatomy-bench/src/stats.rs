//! Sample storage and summary statistics.
//!
//! Every timing is kept in a fixed-capacity uniform reservoir, so memory
//! does not grow with run length: a faster program runs more rounds in the
//! same seconds, and that must not show up as a `peak_rss_mb` regression.

use std::time::Instant;

/// Reservoir capacity. With 2^18 slots, p99 keeps ~2600 samples beyond it.
const RESERVOIR: usize = 1 << 18;

/// A uniform reservoir sample (Vitter's algorithm R) plus the exact count
/// and sum of everything offered. Replacement slots come from a seeded
/// `mix64` stream, so a rerun with the same inputs keeps the same slots.
#[derive(Debug, Clone)]
pub struct Samples {
    kept: Vec<u64>,
    count: u64,
    sum: u128,
    salt: u64,
}

impl Samples {
    /// An empty reservoir; `salt` seeds the replacement stream.
    pub fn new(salt: u64) -> Samples {
        Samples {
            kept: Vec::with_capacity(RESERVOIR),
            count: 0,
            sum: 0,
            salt,
        }
    }

    /// Offer one sample.
    pub fn push(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        if self.kept.len() < RESERVOIR {
            self.kept.push(value);
        } else {
            let slot = apdm_par::mix64(self.salt ^ self.count) % self.count;
            if let Some(kept) = self.kept.get_mut(slot as usize) {
                *kept = value;
            }
        }
    }

    /// Offer the nanoseconds elapsed since `start`.
    pub fn push_since(&mut self, start: Instant) {
        self.push(elapsed_ns(start));
    }

    /// Samples offered so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every sample offered.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean of every sample offered (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile of the kept samples (see [`quantile`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile(&mut self.kept.clone(), q)
    }
}

/// The `q`-quantile (`0 < q < 1`) of `values`: the mean of the values
/// within ±0.1% of ranks (at least ±1) of the nearest rank. The window
/// keeps a quantile of whole nanoseconds from sticking to one integer
/// across runs. Sorts `values`; `None` when empty.
pub fn quantile(values: &mut [u64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let half = (n / 1000).max(1);
    let window = &values[rank.saturating_sub(half)..(rank + half + 1).min(n)];
    Some(window.iter().map(|&v| v as f64).sum::<f64>() / window.len() as f64)
}

/// Nanoseconds from `start` to `end`, saturating.
pub fn span_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    span_ns(start, Instant::now())
}

/// Nanoseconds the host probe takes on the nominal host. A normalized
/// time is `measured × PROBE_NOMINAL_NS / probe`, the time the work would
/// take on a host that runs the probe in exactly this long. The value is
/// the probe's typical time on the 2-vCPU host the benchmark was built on,
/// so normalized and raw figures agree there.
pub const PROBE_NOMINAL_NS: f64 = 1.35e6;

/// Wall time of a fixed CPU and allocator workload that shares no code
/// with the program: 4096 `BTreeMap` inserts of formatted strings, then a
/// sort. It reads how fast the host runs plain compute-and-allocate code
/// right now, so that interference from other tenants can be divided out
/// of in-process timings.
pub fn host_probe_ns() -> u64 {
    let start = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..4096u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, format!("{i}:{x:x}"));
    }
    let mut keys: Vec<u64> = map.keys().map(|k| k.rotate_left(17)).collect();
    keys.sort_unstable();
    std::hint::black_box((&map, &keys));
    elapsed_ns(start)
}

/// Mean wall time of an empty `Instant::now()` / `elapsed` pair: the
/// overhead every per-call timing carries.
pub fn timer_overhead_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut total = 0u64;
    for _ in 0..PAIRS {
        total += elapsed_ns(std::hint::black_box(Instant::now()));
    }
    total as f64 / f64::from(PAIRS)
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), when the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_average_a_window_around_the_nearest_rank() {
        let mut s = Samples::new(1);
        for v in 1..=100 {
            s.push(v);
        }
        // Nearest ranks 50 and 99, each averaged with one neighbour a side.
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(99.5));
        assert_eq!(s.count(), 100);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn reservoir_stays_bounded_and_counts_everything() {
        let mut s = Samples::new(7);
        let n = RESERVOIR as u64 + 1000;
        for v in 0..n {
            s.push(v);
        }
        assert_eq!(s.count(), n);
        assert_eq!(s.kept.len(), RESERVOIR);
        assert_eq!(s.sum(), u128::from(n) * u128::from(n - 1) / 2);
    }
}
