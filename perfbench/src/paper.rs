//! `paper-kernels`: the paper's §VII programs plus the two extension
//! shapes, collapsed under `Static` + `OncePerChunk` on one thread, and
//! the three `update_aggregate` reductions. One op is one pass over all
//! sixteen cells in a seeded order. Kernel bodies and memory do the
//! work; recovery runs once per cell.

use crate::gen;
use crate::measure::{median_over, reduce_matches, time_per_call_ns};
use crate::{timed, Class, Metric, Op, Phase, Tally};
use nrl_core::{reducer, Recovery, Schedule, ThreadPool};
use nrl_kernels::kernels::{Correlation, Covariance, Syrk};
use nrl_kernels::{all_kernels, extended_kernels, Kernel, Mode};
use std::time::Instant;

/// Linear size multiplier of the §VII kernels (1.0 = harness defaults).
const SCALE: f64 = 0.3;
/// Linear size multiplier of the two extension kernels.
const EXT_SCALE: f64 = 0.25;
/// Cell orders per run: ops cycle through them, so cache effects of one
/// order average out instead of hanging on one draw.
const ORDERS: usize = 16;
/// Kernels whose body costs a few ns per point, where the collapse
/// machinery (row walk, body dispatch) is a visible share of the time.
const CHEAP_BODY: [&str; 4] = ["cholupd", "utma", "banded", "sheared3d"];

enum Aggregate {
    Correlation(Correlation),
    Covariance(Covariance),
    Syrk(Syrk),
}

impl Aggregate {
    fn value(&self, pool: &ThreadPool) -> f64 {
        let (s, r) = (Schedule::Static, Recovery::OncePerChunk);
        match self {
            Aggregate::Correlation(k) => k.update_aggregate(pool, s, r),
            Aggregate::Covariance(k) => k.update_aggregate(pool, s, r),
            Aggregate::Syrk(k) => k.update_aggregate(pool, s, r),
        }
    }

    fn seq(&self) -> f64 {
        match self {
            Aggregate::Correlation(k) => k.update_aggregate_seq(),
            Aggregate::Covariance(k) => k.update_aggregate_seq(),
            Aggregate::Syrk(k) => k.update_aggregate_seq(),
        }
    }

    fn kernel(&self) -> &dyn Kernel {
        match self {
            Aggregate::Correlation(k) => k,
            Aggregate::Covariance(k) => k,
            Aggregate::Syrk(k) => k,
        }
    }
}

/// Everything one op runs over.
struct Cells {
    pool: ThreadPool,
    kernels: Vec<Box<dyn Kernel>>,
    aggregates: Vec<Aggregate>,
}

impl Cells {
    /// Pool, kernels (data allocation, analyze + bind through the
    /// global plan cache) and the reduction kernels.
    fn build() -> Cells {
        let s = |base: f64| (base * SCALE).round() as usize;
        Cells {
            pool: ThreadPool::new(1),
            kernels: all_kernels(SCALE)
                .into_iter()
                .chain(extended_kernels(EXT_SCALE))
                .collect(),
            aggregates: vec![
                Aggregate::Correlation(Correlation::new(s(500.0))),
                Aggregate::Covariance(Covariance::new(s(500.0))),
                Aggregate::Syrk(Syrk::new(s(600.0))),
            ],
        }
    }

    fn len(&self) -> usize {
        self.kernels.len() + self.aggregates.len()
    }

    fn points_per_op(&self) -> u64 {
        let k: u128 = self.kernels.iter().map(|k| k.info().total_iterations).sum();
        let a: i128 = self
            .aggregates
            .iter()
            .map(|a| a.kernel().collapsed().total())
            .sum();
        (k + a as u128) as u64
    }
}

fn collapsed_mode(pool: &ThreadPool) -> Mode<'_> {
    Mode::Collapsed {
        pool,
        schedule: Schedule::Static,
        recovery: Recovery::OncePerChunk,
    }
}

/// Reference outputs, from `Mode::Seq` and the sequential folds.
struct Refs {
    checksums: Vec<f64>,
    aggregates: Vec<f64>,
}

fn references(cells: &mut Cells) -> Refs {
    let checksums = cells
        .kernels
        .iter_mut()
        .map(|k| {
            k.reset();
            k.execute(&Mode::Seq);
            k.checksum()
        })
        .collect();
    let aggregates = cells.aggregates.iter().map(Aggregate::seq).collect();
    Refs {
        checksums,
        aggregates,
    }
}

/// One op: every cell once in `order`. Returns the op time (cell runs
/// only; resets and checks excluded) and the number of wrong outputs.
/// Kernel checksums must equal the sequential ones bit for bit (each
/// point writes cells no other point writes, so the collapsed order
/// cannot change them); reductions must match the sequential fold
/// within [`crate::measure::REDUCE_REL_TOL`].
fn run_op(cells: &mut Cells, order: &[usize], refs: Option<&Refs>) -> (f64, u64) {
    let nk = cells.kernels.len();
    let mut op_ns = 0u128;
    let mut failed = 0;
    for &c in order {
        if c < nk {
            let k = &mut cells.kernels[c];
            k.reset();
            let t0 = Instant::now();
            k.execute(&collapsed_mode(&cells.pool));
            op_ns += t0.elapsed().as_nanos();
            if refs.is_some_and(|r| k.checksum().to_bits() != r.checksums[c].to_bits()) {
                failed += 1;
            }
        } else {
            let t0 = Instant::now();
            let v = cells.aggregates[c - nk].value(&cells.pool);
            op_ns += t0.elapsed().as_nanos();
            if refs.is_some_and(|r| !reduce_matches(v, r.aggregates[c - nk])) {
                failed += 1;
            }
        }
    }
    (op_ns as f64 / 1e3, failed)
}

pub fn workload(seed: u64, seconds: f64) -> Phase {
    let mut cells = Cells::build();
    let refs = references(&mut cells);
    let points = cells.points_per_op();
    let orders = gen::paper_orders(seed, cells.len(), ORDERS);
    drop(cells);
    let mut builds = 0;
    timed(
        seconds,
        1,
        || {
            let mut cells = Cells::build();
            let first_us = run_op(&mut cells, &orders[builds % ORDERS], None).0;
            builds += 1;
            (cells, first_us)
        },
        |cells, i| {
            let (us, failed) = run_op(cells, &orders[i % ORDERS], Some(&refs));
            let op = Op {
                us,
                points,
                class: Class::Warm,
            };
            (op, failed == 0)
        },
    )
}

/// Grid chunks the three reductions decompose into (a function of the
/// domains alone, so an exact count).
#[cfg(test)]
pub fn reduce_chunks() -> u64 {
    reduce_chunks_of(&Cells::build())
}

fn reduce_chunks_of(cells: &Cells) -> u64 {
    let count = reducer(
        || 0u64,
        |_t, _p: &[i64], acc: &mut u64| *acc += 1,
        |x, y| x + y,
    );
    cells
        .aggregates
        .iter()
        .map(|a| {
            let red = a.kernel().collapsed().runner(&cells.pool).reduce(&count);
            assert_eq!(red.value as i128, a.kernel().collapsed().total());
            red.counters.chunks
        })
        .sum()
}

/// Per-layer figures of the kernel and reduction layers, each timed
/// from outside over `budget_s` seconds in all.
pub fn layers(seed: u64, budget_s: f64, tally: &mut Tally) -> Vec<Metric> {
    let mut cells = Cells::build();
    let refs = references(&mut cells);
    let order = gen::paper_orders(seed, cells.len(), 1).remove(0);
    let (_, failed) = run_op(&mut cells, &order, Some(&refs));
    tally.checks(cells.len() as u64, failed);
    let per_cell = budget_s / (2 * cells.kernels.len() + cells.aggregates.len()) as f64;
    let (mut coll_ns, mut hand_ns, mut pts) = (0.0, 0.0, 0.0);
    let (mut cheap_coll, mut cheap_hand) = (0.0, 0.0);
    for k in cells.kernels.iter_mut() {
        let info = k.info();
        let time_mode = |k: &mut Box<dyn Kernel>, mode: &Mode| {
            median_over(per_cell, || {
                k.reset();
                k.execute(mode).as_nanos() as f64
            })
        };
        let coll = time_mode(k, &collapsed_mode(&cells.pool));
        let hand = time_mode(k, &Mode::Seq);
        coll_ns += coll;
        hand_ns += hand;
        pts += info.total_iterations as f64;
        if CHEAP_BODY.contains(&info.name) {
            cheap_coll += coll;
            cheap_hand += hand;
        }
    }
    let (mut red_ns, mut red_pts) = (0.0, 0.0);
    for a in &cells.aggregates {
        red_ns += time_per_call_ns(per_cell, || {
            std::hint::black_box(a.value(&cells.pool));
            1
        });
        red_pts += a.kernel().collapsed().total() as f64;
    }
    vec![
        Metric::new("kernels.collapsed_ns_per_pt", coll_ns / pts, "ns"),
        Metric::new("kernels.hand_nest_ns_per_pt", hand_ns / pts, "ns"),
        Metric::new("kernels.overhead_vs_hand", cheap_coll / cheap_hand, "ratio"),
        Metric::new("reduce.ns_per_pt", red_ns / red_pts, "ns"),
        Metric::new("reduce.chunks", reduce_chunks_of(&cells) as f64, "count"),
    ]
}
