//! Timing statistics, the honest per-worker sink, and output checks.

use std::cell::UnsafeCell;
use std::time::Instant;

/// Nearest-rank percentile of `samples` (`p` in `0..=100`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Takes `sample()` repeatedly for about `budget_s` seconds (at least
/// five times) and returns the median sample.
pub fn median_over(budget_s: f64, mut sample: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        samples.push(sample());
    }
    median(&samples)
}

/// Median per-call time of `f` in nanoseconds over about `budget_s`
/// seconds (`f` returns how many calls one invocation made).
pub fn time_per_call_ns(budget_s: f64, mut f: impl FnMut() -> u64) -> f64 {
    median_over(budget_s, || {
        let t0 = Instant::now();
        let calls = f().max(1);
        t0.elapsed().as_nanos() as f64 / calls as f64
    })
}

/// The process's peak resident set, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Order-free fingerprint of one point: a strong mix per point, summed
/// (wrapping) over the domain, so any visit order gives the same value
/// while a missing, doubled or wrong point changes it.
#[inline(always)]
pub fn point_hash(p: &[i64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &x in p {
        h = (h ^ x as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    h
}

/// Count + order-free hash of the points a run visited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Visit {
    pub count: u64,
    pub hash: u64,
}

impl Visit {
    #[inline(always)]
    pub fn add(&mut self, p: &[i64]) {
        self.count += 1;
        self.hash = self.hash.wrapping_add(point_hash(p));
    }

    pub fn merge(self, other: Visit) -> Visit {
        Visit {
            count: self.count + other.count,
            hash: self.hash.wrapping_add(other.hash),
        }
    }
}

#[repr(align(128))]
struct Padded<T>(UnsafeCell<T>);

/// Per-worker, cache-line-padded, non-atomic accumulators for loop
/// bodies: slot `tid` belongs to the worker the pool runs as `tid`.
/// No atomic instruction sits on the per-point path.
pub struct PerWorker<T> {
    slots: Vec<Padded<T>>,
}

// SAFETY: the pools and the service dispatcher run each `tid` on one
// thread at a time and hand over between runs through their own
// synchronisation (pool barrier, reply slot), so a slot is never
// reached from two threads at once. `T: Send` because slots are filled
// on the constructing thread and used on workers.
unsafe impl<T: Send> Sync for PerWorker<T> {}

impl<T: Default + Copy> PerWorker<T> {
    pub fn new(workers: usize) -> PerWorker<T> {
        PerWorker {
            slots: (0..workers)
                .map(|_| Padded(UnsafeCell::new(T::default())))
                .collect(),
        }
    }

    /// Mutable access to slot `tid` from inside a loop body.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    pub fn slot(&self, tid: usize) -> &mut T {
        // SAFETY: see the `Sync` impl — only the worker running as
        // `tid` calls this while a run is live, and it holds the
        // reference for one body call.
        unsafe { &mut *self.slots[tid].0.get() }
    }

    /// Takes every slot's value, resetting it (call between runs only).
    pub fn drain(&mut self) -> Vec<T> {
        self.slots
            .iter_mut()
            .map(|s| std::mem::take(s.0.get_mut()))
            .collect()
    }
}

impl PerWorker<Visit> {
    pub fn take_visit(&mut self) -> Visit {
        self.drain()
            .into_iter()
            .fold(Visit::default(), Visit::merge)
    }
}

/// Relative tolerance of a parallel reduction against the sequential
/// fold: the fixed-grid join adds the partials in another order than the
/// rank-order fold, so the two agree up to floating-point reassociation,
/// not bit for bit. Sums of ~10⁴–10⁶ products of values in `[0, 1)` stay
/// far inside 1e-12 relative.
pub const REDUCE_REL_TOL: f64 = 1e-12;

pub fn reduce_matches(got: f64, want: f64) -> bool {
    got.is_finite() && ((got - want) / want).abs() <= REDUCE_REL_TOL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn visit_hash_is_order_free() {
        let pts = [[0i64, 1], [0, 2], [1, 2]];
        let mut a = Visit::default();
        let mut b = Visit::default();
        pts.iter().for_each(|p| a.add(p));
        pts.iter().rev().for_each(|p| b.add(p));
        assert_eq!(a, b);
        let mut c = Visit::default();
        [[0i64, 1], [0, 2], [2, 1]].iter().for_each(|p| c.add(p));
        assert_ne!(a.hash, c.hash);
    }
}
