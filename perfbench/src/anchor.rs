//! `anchor-recovery`: index recovery, row walking and chunk claims do
//! the work. Four seeded domains (depth 2–4) each run their last
//! [`ANCHOR_POINTS`] ranks with a cheap honest body under
//! `Dynamic(CHUNK)` × {`OncePerChunk`, `Batched(64)`, `BinarySearch`},
//! plus one autotuned cell. One op is one pass over the thirteen cells.

use crate::gen::{self, AnchorDomain, Shape, ANCHOR_POINTS};
use crate::measure::{median, median_over, time_per_call_ns, PerWorker, Visit};
use crate::{timed, Class, Metric, Op, Phase, Tally};
use nrl_core::unrank::MAX_DEPTH;
use nrl_core::{
    run_seq, Collapsed, ParamPlan, Recovery, RecoveryStats, RowWalker, Schedule, ThreadPool,
};
use nrl_parfor::WorkerLocal;
use nrl_polyhedra::{BoundNest, NestSpec};
use std::time::Instant;

/// Chunk size of the dynamic schedule: small, so a recovery heads every
/// few rows and the claim counter is hit often.
pub const CHUNK: u64 = 32;

/// The three recoveries every domain runs under.
const RECOVERIES: [Recovery; 3] = [
    Recovery::OncePerChunk,
    Recovery::Batched(64),
    Recovery::BinarySearch,
];

/// The domain the autotuned cell runs on (figure6: depth 3, degree 3).
const AUTO_DOMAIN: usize = 1;

/// A domain analyzed and bound.
struct Bound {
    domain: AnchorDomain,
    nest: NestSpec,
    collapsed: Collapsed,
}

/// How one cell executes.
#[derive(Clone, Copy, Debug)]
enum How {
    Fixed(Recovery),
    Auto,
}

struct Cells {
    pool: ThreadPool,
    /// The seed's domain sets; op `i` runs set `i % sets.len()`.
    sets: Vec<Vec<Bound>>,
    sink: PerWorker<Visit>,
}

/// Parses a shape's DSL source into its nest.
pub fn nest_of(shape: Shape) -> NestSpec {
    nrl_dsl::parse(shape.source())
        .expect("shape source parses")
        .to_nest()
        .expect("shape source lowers")
}

/// The cells of one op over `set`: every domain under every recovery,
/// plus the autotuned cell.
fn op_cells(domains: usize) -> Vec<(usize, How)> {
    let mut cells: Vec<(usize, How)> = (0..domains)
        .flat_map(|d| RECOVERIES.iter().map(move |&r| (d, How::Fixed(r))))
        .collect();
    cells.push((AUTO_DOMAIN, How::Auto));
    cells
}

impl Cells {
    /// Pool + parse and analyze every shape once, bind every domain.
    fn build(sets: &[Vec<AnchorDomain>]) -> Cells {
        let pool = ThreadPool::new(1);
        let sink = PerWorker::new(pool.nthreads());
        let plans: Vec<(NestSpec, ParamPlan)> = Shape::ALL
            .iter()
            .map(|&shape| {
                let nest = nest_of(shape);
                let plan = ParamPlan::analyze(&nest).expect("shape analyzes");
                (nest, plan)
            })
            .collect();
        let sets = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|d| {
                        let i = Shape::ALL
                            .iter()
                            .position(|&s| s == d.shape)
                            .expect("known shape");
                        let (nest, plan) = &plans[i];
                        let collapsed = plan.instantiate(&d.params).expect("domain binds");
                        assert_eq!(collapsed.total(), i128::from(d.total()), "{d:?}");
                        Bound {
                            domain: d.clone(),
                            nest: nest.clone(),
                            collapsed,
                        }
                    })
                    .collect()
            })
            .collect();
        Cells { pool, sets, sink }
    }

    /// Runs one cell; returns its time in ns and what the body saw.
    fn run_cell(&mut self, set: usize, d: usize, how: How) -> (u128, Visit) {
        let b = &self.sets[set][d];
        let runner = b.collapsed.runner(&self.pool);
        let runner = match how {
            How::Fixed(r) => runner.schedule(Schedule::Dynamic(CHUNK)).recovery(r),
            How::Auto => runner.auto(),
        }
        .resume(b.domain.skip());
        let sink = &self.sink;
        let t0 = Instant::now();
        runner.run(|tid, p| sink.slot(tid).add(p));
        let ns = t0.elapsed().as_nanos();
        (ns, self.sink.take_visit())
    }

    /// One op: every cell of `set` once. Returns the op time in µs and
    /// the number of cells whose visit differs from the reference.
    fn run_op(&mut self, set: usize, refs: Option<&[Visit]>) -> (f64, u64) {
        let mut ns = 0u128;
        let mut failed = 0;
        for (d, how) in op_cells(self.sets[set].len()) {
            let (t, visit) = self.run_cell(set, d, how);
            ns += t;
            if refs.is_some_and(|r| r[d] != visit) {
                failed += 1;
            }
        }
        (ns as f64 / 1e3, failed)
    }

    fn references(&self) -> Vec<Vec<Visit>> {
        self.sets
            .iter()
            .map(|set| set.iter().map(|b| reference(&b.domain, &b.nest)).collect())
            .collect()
    }
}

/// Point count + order-free hash of the measured window, from the
/// literal sequential nest.
fn reference(d: &AnchorDomain, nest: &NestSpec) -> Visit {
    let skip = d.skip();
    let mut seen = 0u64;
    let mut visit = Visit::default();
    run_seq(&nest.bind(&d.params), |p| {
        seen += 1;
        if seen > skip {
            visit.add(p);
        }
    });
    visit
}

/// Domain sets per run: ops cycle through them, so a run's figures
/// average over many seeded domains instead of hanging on one draw.
const SETS: usize = 16;

pub fn workload(seed: u64, seconds: f64) -> Phase {
    let sets = gen::anchor_domain_sets(seed, SETS);
    let refs: Vec<Vec<Visit>> = sets
        .iter()
        .map(|set| {
            set.iter()
                .map(|d| reference(d, &nest_of(d.shape)))
                .collect()
        })
        .collect();
    let points = op_cells(Shape::ALL.len()).len() as u64 * ANCHOR_POINTS;
    let mut builds = 0;
    timed(
        seconds,
        1,
        || {
            let mut cells = Cells::build(&sets);
            let first_us = cells.run_op(builds % SETS, None).0;
            builds += 1;
            (cells, first_us)
        },
        |cells, i| {
            let set = i % SETS;
            let (us, failed) = cells.run_op(set, Some(&refs[set]));
            let op = Op {
                us,
                points,
                class: Class::Warm,
            };
            (op, failed == 0)
        },
    )
}

/// Counters that repeat exactly for a seed: recovery-path deltas over
/// one op, and the row segments one op's chunks walk (per 1000 points).
pub struct ExactCounters {
    pub recoveries: u64,
    pub corrected: u64,
    pub segments_per_kpt: f64,
}

fn recoveries(s: &RecoveryStats) -> u64 {
    s.closed_form_exact + s.corrected + s.binary_search + s.linear_exact
}

pub fn exact_counters(seed: u64, tally: &mut Tally) -> ExactCounters {
    let mut cells = Cells::build(&gen::anchor_domain_sets(seed, 1));
    let refs = cells.references().remove(0);
    let before: Vec<RecoveryStats> = cells.sets[0].iter().map(|b| b.collapsed.stats()).collect();
    let (_, failed) = cells.run_op(0, Some(&refs));
    tally.checks(op_cells(cells.sets[0].len()).len() as u64, failed);
    let (mut rec, mut cor) = (0, 0);
    for (b, s0) in cells.sets[0].iter().zip(&before) {
        let s1 = b.collapsed.stats();
        rec += recoveries(&s1) - recoveries(s0);
        cor += s1.corrected - s0.corrected;
    }
    let mut segments = 0u64;
    for (b, want) in cells.sets[0].iter().zip(&refs) {
        let mut visit = Visit::default();
        segments += walk_chunks(b, &mut visit);
        tally.check(visit == *want);
    }
    let points = ANCHOR_POINTS * cells.sets[0].len() as u64;
    ExactCounters {
        recoveries: rec,
        corrected: cor,
        segments_per_kpt: segments as f64 * 1000.0 / points as f64,
    }
}

/// Walks the measured window chunk by chunk the way the runner does
/// under `Dynamic(CHUNK)` + `OncePerChunk` on one thread: recover each
/// chunk's anchor, then row segments up to the chunk's end. Returns the
/// number of segments.
fn walk_chunks(b: &Bound, visit: &mut Visit) -> u64 {
    let mut unranker = b.collapsed.unranker();
    let mut point = vec![0i64; b.collapsed.depth()];
    let base = b.domain.skip();
    let mut segments = 0;
    let mut s = 0;
    while s < ANCHOR_POINTS {
        let e = (s + CHUNK).min(ANCHOR_POINTS);
        unranker.unrank_into(i128::from(base + s + 1), &mut point);
        segments += walk(b.collapsed.nest(), &point, e - s, visit);
        s = e;
    }
    segments
}

/// Walks `count` points from `anchor` in row segments; returns the
/// number of segments.
#[inline]
fn walk(nest: &BoundNest, anchor: &[i64], count: u64, visit: &mut Visit) -> u64 {
    let mut walker = RowWalker::anchor(nest, anchor);
    let mut left = count;
    let mut segments = 0;
    while left > 0 {
        let seg = walker.next_segment(left);
        walker.for_each(&seg, |p| visit.add(p));
        left -= seg.len;
        segments += 1;
    }
    segments
}

/// Chunks per `parallel_for` window of the traced replay: each window
/// emits 2 spans per chunk plus its own, kept below the per-thread ring
/// capacity of `nrl_obs` so nothing is dropped before the drain.
const REPLAY_WINDOW_CHUNKS: u64 = 1500;

/// Replays the `OncePerChunk` cells through the layers' public
/// functions — plan (cache lookup) → instantiate → `parallel_for`
/// chunk claims → anchor unrank per chunk → row walk + body — with an
/// `nrl_obs` span around each call. Returns the replay's wall time in
/// ns, without the time spent draining events, and whether every
/// domain's visit matched its reference.
fn replay(
    cache: &nrl_plan::PlanCache,
    cells: &Cells,
    refs: &[Visit],
    events: &mut Vec<nrl_obs::TraceEvent>,
) -> (u128, bool) {
    let mut ok = true;
    let mut drain_ns = 0;
    let t0 = Instant::now();
    for (b, want) in cells.sets[0].iter().zip(refs) {
        let plan = {
            let _s = nrl_obs::span("replay", "plan");
            cache
                .get_or_analyze(&b.nest, nrl_plan::PlanContext::default())
                .expect("shape analyzes")
        };
        let collapsed = {
            let _s = nrl_obs::span("replay", "instantiate");
            plan.instantiate(&b.domain.params).expect("domain binds")
        };
        let nest = collapsed.nest();
        let sink: PerWorker<Visit> = PerWorker::new(cells.pool.nthreads());
        let base = b.domain.skip();
        let mut done = 0;
        while done < ANCHOR_POINTS {
            let n = (ANCHOR_POINTS - done).min(REPLAY_WINDOW_CHUNKS * CHUNK);
            {
                let _s = nrl_obs::span("replay", "parfor");
                let scratch = WorkerLocal::new(cells.pool.nthreads(), |_| {
                    (collapsed.unranker(), [0i64; MAX_DEPTH])
                });
                let depth = collapsed.depth();
                let first = base + done + 1;
                cells
                    .pool
                    .parallel_for(n, Schedule::Dynamic(CHUNK), &|tid, s, e| {
                        scratch.with(tid, |(unranker, point)| {
                            let point = &mut point[..depth];
                            {
                                let _s = nrl_obs::span("replay", "unrank");
                                unranker.unrank_into(i128::from(first + s), point);
                            }
                            let _s = nrl_obs::span("replay", "rowwalk");
                            walk(nest, point, e - s, sink.slot(tid));
                        })
                    });
            }
            done += n;
            let td = Instant::now();
            events.extend(nrl_obs::drain().events);
            drain_ns += td.elapsed().as_nanos();
        }
        let mut sink = sink;
        ok &= sink.take_visit() == *want;
    }
    (t0.elapsed().as_nanos() - drain_ns, ok)
}

/// Self time per span name: duration minus the time its directly nested
/// spans cover (spans of one thread nest properly).
pub fn self_times(events: &[nrl_obs::TraceEvent]) -> Vec<(&'static str, u64, u64)> {
    let mut evs: Vec<&nrl_obs::Event> = events.iter().map(|e| &e.ev).collect();
    evs.sort_by_key(|e| (e.t0, std::cmp::Reverse(e.t1)));
    let mut totals: Vec<(&'static str, u64, u64)> = Vec::new();
    let mut stack: Vec<(usize, u64)> = Vec::new(); // (event index, child time)
    let close = |stack: &mut Vec<(usize, u64)>, totals: &mut Vec<(&'static str, u64, u64)>| {
        let (i, child) = stack.pop().expect("open span");
        let e = evs[i];
        let dur = e.t1 - e.t0;
        if let Some(parent) = stack.last_mut() {
            parent.1 += dur;
        }
        match totals.iter_mut().find(|t| t.0 == e.name) {
            Some(t) => {
                t.1 += dur.saturating_sub(child);
                t.2 += 1;
            }
            None => totals.push((e.name, dur.saturating_sub(child), 1)),
        }
    };
    for i in 0..evs.len() {
        while stack.last().is_some_and(|&(j, _)| evs[j].t1 <= evs[i].t0) {
            close(&mut stack, &mut totals);
        }
        stack.push((i, 0));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut totals);
    }
    totals
}

/// Tolerance of the reconciliation: the replay's unrank + rowwalk +
/// parfor self time per point, net of the measured span cost, must lie
/// within this share of the untraced runner's `OncePerChunk` ns/pt
/// measured in the same rounds.
pub const RECONCILE_TOL: f64 = 0.25;

pub fn layers(
    seed: u64,
    budget_s: f64,
    tally: &mut Tally,
    trace_out: &mut Vec<nrl_obs::TraceEvent>,
) -> Vec<Metric> {
    let mut cells = Cells::build(&gen::anchor_domain_sets(seed, 1));
    let refs = cells.references().remove(0);
    let slice = budget_s / 16.0;
    let mut out = Vec::new();

    // Scalar unrank at seeded ranks, per depth.
    for (name, d) in [
        ("unrank.scalar_ns.d2", 0usize),
        ("unrank.scalar_ns.d3", 1),
        ("unrank.scalar_ns.d4", 2),
    ] {
        let b = &cells.sets[0][d];
        assert_eq!(b.collapsed.depth(), d + 2);
        let ranks = gen::ranks(seed, d as u64, b.domain.total(), 4096);
        let mut u = b.collapsed.unranker();
        let mut point = vec![0i64; b.collapsed.depth()];
        let ns = time_per_call_ns(slice, || {
            for &pc in &ranks {
                u.unrank_into(pc, &mut point);
                std::hint::black_box(&point);
            }
            ranks.len() as u64
        });
        out.push(Metric::new(name, ns, "ns"));
    }

    // Batched unrank (64 lanes, stride 64) and rank, over all domains.
    let (mut batch_ns, mut rank_ns) = (0.0, 0.0);
    for (d, b) in cells.sets[0].iter().enumerate() {
        let depth = b.collapsed.depth();
        let total = b.domain.total();
        let heads = gen::ranks(seed, 10 + d as u64, total - 63 * 64, 256);
        let mut u = b.collapsed.unranker();
        let mut buf = vec![0i64; 64 * depth];
        batch_ns += time_per_call_ns(slice / 2.0, || {
            for &pc in &heads {
                u.unrank_batch_into(pc, 64, 64, &mut buf);
                std::hint::black_box(&buf);
            }
            heads.len() as u64
        });
        let points: Vec<Vec<i64>> = gen::ranks(seed, 20 + d as u64, total, 1024)
            .into_iter()
            .map(|pc| b.collapsed.unrank(pc))
            .collect();
        rank_ns += time_per_call_ns(slice / 2.0, || {
            for p in &points {
                std::hint::black_box(u.rank(p));
            }
            points.len() as u64
        });
    }
    let nd = cells.sets[0].len() as f64;
    out.push(Metric::new("unrank.batch64_ns", batch_ns / nd, "ns"));
    out.push(Metric::new("unrank.rank_ns", rank_ns / nd, "ns"));

    // Row walk alone: one anchor per domain, segments to the window end.
    let mut walk_ns = 0.0;
    for (b, want) in cells.sets[0].iter().zip(&refs) {
        let mut anchor = vec![0i64; b.collapsed.depth()];
        b.collapsed
            .unrank_into(i128::from(b.domain.skip() + 1), &mut anchor);
        let mut visit = Visit::default();
        walk_ns += time_per_call_ns(slice / 2.0, || {
            visit = Visit::default();
            walk(b.collapsed.nest(), &anchor, ANCHOR_POINTS, &mut visit);
            ANCHOR_POINTS
        });
        tally.check(visit == *want);
    }
    out.push(Metric::new("rowwalk.ns_per_pt", walk_ns / nd, "ns"));

    // Chunk claims and pool dispatch, empty bodies.
    let chunks = ANCHOR_POINTS / CHUNK;
    let claim = time_per_call_ns(slice, || {
        cells
            .pool
            .parallel_for(ANCHOR_POINTS, Schedule::Dynamic(CHUNK), &|_, s, e| {
                std::hint::black_box((s, e));
            });
        chunks
    });
    out.push(Metric::new("parfor.claim_ns", claim, "ns"));
    let dispatch = time_per_call_ns(slice / 2.0, || {
        for _ in 0..1000 {
            cells.pool.run(&|tid| {
                std::hint::black_box(tid);
            });
        }
        1000
    });
    out.push(Metric::new("parfor.dispatch_us", dispatch / 1e3, "us"));

    // The runner, untraced, per recovery.
    let runner_ns = |cells: &mut Cells, how: How, domains: &[usize]| {
        let mut ns = 0.0;
        for &d in domains {
            ns += median_over(slice, || {
                let (t, visit) = cells.run_cell(0, d, how);
                assert_eq!(visit, refs[d], "runner visit");
                t as f64
            });
        }
        ns / (domains.len() as u64 * ANCHOR_POINTS) as f64
    };
    let all: Vec<usize> = (0..cells.sets[0].len()).collect();
    let once = runner_ns(&mut cells, How::Fixed(Recovery::OncePerChunk), &all);
    let batched = runner_ns(&mut cells, How::Fixed(Recovery::Batched(64)), &all);
    let binary = runner_ns(&mut cells, How::Fixed(Recovery::BinarySearch), &all);
    let auto = runner_ns(&mut cells, How::Auto, &[AUTO_DOMAIN]);
    out.push(Metric::new("runner.once_ns_per_pt", once, "ns"));
    out.push(Metric::new("runner.batched64_ns_per_pt", batched, "ns"));
    out.push(Metric::new("runner.binary_ns_per_pt", binary, "ns"));
    out.push(Metric::new("runner.auto_ns_per_pt", auto, "ns"));

    // Exact counters.
    let exact = exact_counters(seed, tally);
    out.push(Metric::new(
        "unrank.recoveries",
        exact.recoveries as f64,
        "count",
    ));
    out.push(Metric::new(
        "unrank.corrected",
        exact.corrected as f64,
        "count",
    ));
    out.push(Metric::new(
        "rowwalk.segments_per_kpt",
        exact.segments_per_kpt,
        "count",
    ));

    // Traced replay vs the same replay untraced, and the reconciliation.
    // Each round runs the untraced runner's `OncePerChunk` cells next to
    // the two replays, so a change of the host's speed between rounds
    // moves every side of the residual alike. The spans' own cost is the
    // traced replay's time minus the untraced one's in the same round:
    // recording an event lands inside the enclosing span, so it would
    // otherwise count as layer time.
    let cache = nrl_plan::PlanCache::new(1, 8);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut replay_self = Vec::new();
    let start = Instant::now();
    while untraced.len() < 3 || start.elapsed().as_secs_f64() < slice * 3.0 {
        let mut runner = 0u128;
        for (d, want) in refs.iter().enumerate() {
            let (t, visit) = cells.run_cell(0, d, How::Fixed(Recovery::OncePerChunk));
            tally.check(visit == *want);
            runner += t;
        }
        let mut events = Vec::new();
        let (plain_ns, ok) = replay(&cache, &cells, &refs, &mut events);
        tally.check(ok);
        untraced.push(plain_ns as f64);
        let session = nrl_obs::TraceSession::begin();
        let (traced_ns, ok) = replay(&cache, &cells, &refs, &mut events);
        let rest = session.end();
        events.extend(rest.events);
        tally.check(ok && rest.dropped == 0);
        traced.push(traced_ns as f64);
        let selfs = self_times(&events);
        let get = |n: &str| selfs.iter().find(|t| t.0 == n).map_or(0, |t| t.1) as f64;
        let pts = nd * ANCHOR_POINTS as f64;
        let layered = get("unrank") + get("rowwalk") + get("parfor");
        let replayed = (layered - (traced_ns as f64 - plain_ns as f64)) / pts;
        replay_self.push([
            runner as f64 / pts,
            runner as f64 / pts - replayed,
            replayed,
            get("unrank") / pts,
            get("rowwalk") / pts,
            get("parfor") / pts,
            get("plan") / nd / 1e3,
            get("instantiate") / nd / 1e3,
        ]);
        if trace_out.is_empty() {
            trace_out.extend(events.into_iter().take(6000));
        }
    }
    let col = |i: usize| median(&replay_self.iter().map(|r| r[i]).collect::<Vec<_>>());
    let (runner, residual) = (col(0), col(1));
    tally.check(residual.abs() <= RECONCILE_TOL * runner);
    out.push(Metric::new("runner.residual_ns_per_pt", residual, "ns"));
    out.push(Metric::new("replay.layers_ns_per_pt", col(2), "ns"));
    out.push(Metric::new("replay.unrank_ns_per_pt", col(3), "ns"));
    out.push(Metric::new("replay.rowwalk_ns_per_pt", col(4), "ns"));
    out.push(Metric::new("replay.parfor_ns_per_pt", col(5), "ns"));
    out.push(Metric::new("replay.plan_us", col(6), "us"));
    out.push(Metric::new("replay.instantiate_us", col(7), "us"));
    out.push(Metric::new(
        "obs.trace_overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
        "%",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, t0: u64, t1: u64) -> nrl_obs::TraceEvent {
        nrl_obs::TraceEvent {
            pid: 0,
            tid: 0,
            ev: nrl_obs::Event {
                cat: "test",
                name,
                t0,
                t1,
                span: 0,
                trace: 0,
            },
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // parfor [0,100) ⊃ unrank [10,20), rowwalk [20,60) ⊃ inner [30,40)
        let events = [
            ev("unrank", 10, 20),
            ev("inner", 30, 40),
            ev("rowwalk", 20, 60),
            ev("parfor", 0, 100),
            ev("plan", 100, 110),
        ];
        let totals = self_times(&events);
        let get = |n: &str| totals.iter().find(|t| t.0 == n).map(|t| (t.1, t.2));
        assert_eq!(get("parfor"), Some((50, 1)));
        assert_eq!(get("rowwalk"), Some((30, 1)));
        assert_eq!(get("unrank"), Some((10, 1)));
        assert_eq!(get("inner"), Some((10, 1)));
        assert_eq!(get("plan"), Some((10, 1)));
    }
}
