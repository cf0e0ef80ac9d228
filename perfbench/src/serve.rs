//! `serve-mixed`: one closed-loop client against a `CollapseService`
//! with one worker. About 70% of requests are warm `run`s over eight hot
//! (shape, params) keys, 20% are cold DSL shapes never sent before, 10%
//! are warm `reduce`s. No strategy is pinned, so cold keys run the
//! autotuner. The DSL, analysis, plan cache, strategy search and the
//! serve front do the work; the runs themselves are small.

use crate::anchor::nest_of;
use crate::gen::{self, Request, RequestStream, WarmKey};
use crate::measure::{median, time_per_call_ns, PerWorker, Visit};
use crate::{timed, Class, Metric, Op, Phase, Tally};
use nrl_core::{run_seq, strategy, EngineCalibration, ParamPlan, ShapeProfile};
use nrl_plan::{PlanCache, PlanContext};
use nrl_polyhedra::NestSpec;
use nrl_serve::{CollapseRequest, CollapseService, RunReply, ServeConfig, ServeReducer, Tenant};
use std::time::Instant;

const CONFIG: ServeConfig = ServeConfig {
    workers: 1,
    queue_capacity: 64,
    tenant_quota: 16,
    cache_shards: 8,
    cache_plans_per_shard: 8,
};

/// Integer-valued per-point fold, so the service's fixed-grid join and
/// the sequential fold agree exactly.
struct PointSum;

fn point_value(p: &[i64]) -> f64 {
    (3 * p[0] + p[p.len() - 1]) as f64
}

impl ServeReducer for PointSum {
    fn identity(&self) -> f64 {
        0.0
    }
    fn accum(&self, _tid: usize, p: &[i64], acc: &mut f64) {
        *acc += point_value(p);
    }
    fn join(&self, left: f64, right: f64) -> f64 {
        left + right
    }
}

/// A hot key's request and its reference outputs.
struct Hot {
    request: CollapseRequest,
    visit: Visit,
    sum: f64,
}

fn hot_keys(keys: &[WarmKey]) -> Vec<Hot> {
    keys.iter()
        .map(|k| {
            let nest = nest_of(k.shape);
            let (visit, sum) = reference(&nest, &k.params);
            Hot {
                request: CollapseRequest::new(nest, k.params.clone(), Tenant(0)),
                visit,
                sum,
            }
        })
        .collect()
}

fn reference(nest: &NestSpec, params: &[i64]) -> (Visit, f64) {
    let mut visit = Visit::default();
    let mut sum = 0.0;
    run_seq(&nest.bind(params), |p| {
        visit.add(p);
        sum += point_value(p);
    });
    (visit, sum)
}

/// The client side: the service, the hot keys, and the body's sink.
struct Client {
    service: CollapseService,
    sink: PerWorker<Visit>,
}

/// What one request did, for the checks and the per-layer figures.
enum Sent {
    Warm(RunReply, Visit),
    Reduce(RunReply),
    Cold(RunReply, Visit, NestSpec),
}

impl Client {
    fn new() -> Client {
        Client {
            service: CollapseService::new(CONFIG),
            sink: PerWorker::new(CONFIG.workers),
        }
    }

    fn run(&mut self, request: &CollapseRequest) -> Option<(RunReply, Visit)> {
        let sink = &self.sink;
        let reply = self
            .service
            .run(request, &|tid, p| sink.slot(tid).add(p))
            .ok();
        let visit = self.sink.take_visit();
        reply.map(|r| (r, visit))
    }

    /// Sends one request; returns its latency in µs and what came back
    /// (`None` on an error or rejection).
    fn send(&mut self, req: &Request, hot: &[Hot]) -> (f64, Option<Sent>) {
        let t0 = Instant::now();
        let sent = match req {
            Request::Warm { key } => self.run(&hot[*key].request).map(|(r, v)| Sent::Warm(r, v)),
            Request::Reduce { key } => self
                .service
                .reduce(&hot[*key].request, &PointSum)
                .ok()
                .map(Sent::Reduce),
            Request::Cold { source, n } => {
                let nest = nrl_dsl::parse(source).ok().and_then(|p| p.to_nest().ok());
                nest.and_then(|nest| {
                    let request = CollapseRequest::new(nest, vec![*n], Tenant(0));
                    self.run(&request)
                        .map(|(r, v)| Sent::Cold(r, v, request.nest))
                })
            }
        };
        (t0.elapsed().as_nanos() as f64 / 1e3, sent)
    }
}

/// Whether a request's outputs are right: completed, every point
/// visited once, and the reduction equal to the sequential fold.
fn correct(req: &Request, sent: &Option<Sent>, hot: &[Hot]) -> bool {
    match (req, sent) {
        (Request::Warm { key }, Some(Sent::Warm(r, v))) => {
            r.outcome.is_completed() && *v == hot[*key].visit
        }
        (Request::Reduce { key }, Some(Sent::Reduce(r))) => {
            r.outcome.is_completed() && r.reduced == Some(hot[*key].sum)
        }
        (Request::Cold { n, .. }, Some(Sent::Cold(r, v, nest))) => {
            r.outcome.is_completed() && *v == reference(nest, &[*n]).0
        }
        _ => false,
    }
}

/// Set-up: a fresh service, then one `run` and one `reduce` per hot key
/// (analysis, autotune and calibration of the hot shapes).
fn set_up(hot: &[Hot], tally: Option<&mut Tally>) -> Client {
    let mut client = Client::new();
    let mut ok = true;
    for (key, _) in hot.iter().enumerate() {
        for req in [Request::Warm { key }, Request::Reduce { key }] {
            let (_, sent) = client.send(&req, hot);
            ok &= correct(&req, &sent, hot);
        }
    }
    if let Some(t) = tally {
        t.check(ok);
    }
    client
}

pub fn workload(seed: u64, seconds: f64) -> Phase {
    let hot = hot_keys(&gen::warm_keys());
    let mut stream = RequestStream::new(seed);
    timed(
        seconds,
        // Three times the set-ups of the batch workloads: this set-up
        // takes milliseconds, so its median needs more of them.
        3,
        // `cold_p90_us` comes from the cold class here, so the warm-up
        // figure `timed` asks for is the whole set-up's.
        || {
            let t0 = Instant::now();
            let client = set_up(&hot, None);
            (client, t0.elapsed().as_nanos() as f64 / 1e3)
        },
        |client, _| {
            let req = stream.next().expect("stream is infinite");
            let (us, sent) = client.send(&req, &hot);
            let (points, class) = match (&req, &sent) {
                (Request::Warm { .. }, Some(Sent::Warm(_, v))) => (v.count, Class::Warm),
                (Request::Cold { .. }, Some(Sent::Cold(_, v, _))) => (v.count, Class::Cold),
                (Request::Reduce { key }, _) => (hot[*key].visit.count, Class::Reduce),
                (Request::Warm { .. }, _) => (0, Class::Warm),
                (Request::Cold { .. }, _) => (0, Class::Cold),
            };
            let ok = correct(&req, &sent, &hot);
            (Op { us, points, class }, ok)
        },
    )
}

/// Requests of the fixed replay the exact counters are taken over.
pub const COUNTED_REQUESTS: usize = 2000;

/// Plan-cache and autotune counters after set-up plus the first
/// [`COUNTED_REQUESTS`] requests of the seed's stream: they depend on
/// the stream alone, so they repeat exactly.
pub struct ExactCounters {
    pub hit_ratio: f64,
    pub evictions: u64,
    pub searches: u64,
}

pub fn exact_counters(seed: u64, tally: &mut Tally) -> ExactCounters {
    let hot = hot_keys(&gen::warm_keys());
    let mut client = set_up(&hot, Some(tally));
    for req in RequestStream::new(seed).take(COUNTED_REQUESTS) {
        let (_, sent) = client.send(&req, &hot);
        tally.check(correct(&req, &sent, &hot));
    }
    let m = client.service.metrics();
    ExactCounters {
        hit_ratio: m.cache.hits as f64 / (m.cache.hits + m.cache.misses) as f64,
        evictions: m.cache.evictions,
        searches: m.autotune.searches,
    }
}

/// Per-layer figures of the DSL, analysis, plan cache, strategy and
/// serve layers, each timed from outside over about `budget_s` seconds.
pub fn layers(seed: u64, budget_s: f64, tally: &mut Tally) -> Vec<Metric> {
    let keys = gen::warm_keys();
    let hot = hot_keys(&keys);
    let slice = budget_s / 10.0;
    let cold: Vec<(String, i64)> = RequestStream::new(seed)
        .filter_map(|r| match r {
            Request::Cold { source, n } => Some((source, n)),
            _ => None,
        })
        .take(256)
        .collect();
    let cold_nests: Vec<NestSpec> = cold
        .iter()
        .map(|(s, _)| nrl_dsl::parse(s).unwrap().to_nest().unwrap())
        .collect();
    let mut out = Vec::new();

    let parse = time_per_call_ns(slice, || {
        for (s, _) in &cold {
            let nest = nrl_dsl::parse(s).ok().and_then(|p| p.to_nest().ok());
            std::hint::black_box(nest);
        }
        cold.len() as u64
    });
    out.push(Metric::new("dsl.parse_us", parse / 1e3, "us"));
    let analyze = time_per_call_ns(slice, || {
        for nest in cold_nests.iter().take(32) {
            std::hint::black_box(ParamPlan::analyze(nest).expect("cold shape analyzes"));
        }
        32
    });
    out.push(Metric::new("analyze.plan_us", analyze / 1e3, "us"));
    let miss = time_per_call_ns(slice, || {
        let cache = PlanCache::new(8, 8);
        for nest in cold_nests.iter().take(32) {
            std::hint::black_box(cache.get_or_analyze(nest, PlanContext::default()).ok());
        }
        32
    });
    out.push(Metric::new("plan.miss_us", miss / 1e3, "us"));

    let cache = PlanCache::new(8, 8);
    let plans: Vec<_> = hot
        .iter()
        .map(|h| {
            cache
                .get_or_analyze(&h.request.nest, PlanContext::default())
                .expect("hot shape analyzes")
        })
        .collect();
    let hit = time_per_call_ns(slice, || {
        for _ in 0..16 {
            for h in &hot {
                std::hint::black_box(
                    cache
                        .get_or_analyze(&h.request.nest, PlanContext::default())
                        .ok(),
                );
            }
        }
        16 * hot.len() as u64
    });
    out.push(Metric::new("plan.hit_us", hit / 1e3, "us"));
    let inst = time_per_call_ns(slice, || {
        for (plan, k) in plans.iter().zip(&keys) {
            std::hint::black_box(plan.instantiate(&k.params).ok());
        }
        keys.len() as u64
    });
    out.push(Metric::new("plan.instantiate_us", inst / 1e3, "us"));
    let collapsed: Vec<_> = plans
        .iter()
        .zip(&keys)
        .map(|(p, k)| p.instantiate(&k.params).expect("hot key binds"))
        .collect();
    let profile = time_per_call_ns(slice, || {
        for c in &collapsed {
            std::hint::black_box(ShapeProfile::measure(c));
        }
        collapsed.len() as u64
    });
    out.push(Metric::new("strategy.profile_us", profile / 1e3, "us"));
    let profiles: Vec<ShapeProfile> = collapsed.iter().map(ShapeProfile::measure).collect();
    let search = time_per_call_ns(slice, || {
        for p in &profiles {
            std::hint::black_box(strategy::search(
                p,
                &EngineCalibration::STATIC,
                CONFIG.workers,
            ));
        }
        profiles.len() as u64
    });
    out.push(Metric::new("strategy.search_us", search / 1e3, "us"));

    // The serve front, from the replies of warm runs.
    let mut client = set_up(&hot, Some(tally));
    let (mut wait, mut exec, mut front) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream = RequestStream::new(seed.wrapping_add(1));
    let start = Instant::now();
    while wait.len() < 100 || start.elapsed().as_secs_f64() < slice * 2.0 {
        let req = stream.next().expect("stream is infinite");
        let (us, sent) = client.send(&req, &hot);
        tally.check(correct(&req, &sent, &hot));
        if let Some(Sent::Warm(r, _)) = &sent {
            let w = r.queue_wait.as_nanos() as f64 / 1e3;
            let e = r.exec_time.as_nanos() as f64 / 1e3;
            wait.push(w);
            exec.push(e);
            front.push(us - w - e);
        }
    }
    out.push(Metric::new("serve.queue_wait_us", median(&wait), "us"));
    out.push(Metric::new("serve.exec_us", median(&exec), "us"));
    out.push(Metric::new("serve.front_us", median(&front), "us"));

    let exact = exact_counters(seed, tally);
    out.push(Metric::new("plan.hit_ratio", exact.hit_ratio, "ratio"));
    out.push(Metric::new(
        "plan.evictions",
        exact.evictions as f64,
        "count",
    ));
    out.push(Metric::new(
        "strategy.searches",
        exact.searches as f64,
        "count",
    ));
    out
}
