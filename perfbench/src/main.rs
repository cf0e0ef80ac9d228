//! The repository benchmark: three workloads over the public API of the
//! collapse engine, plus a traced run that times every layer from
//! outside. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <paper-kernels|anchor-recovery|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then (last line) one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits with code 1 when
//! any output was wrong.

mod anchor;
mod gen;
mod measure;
mod paper;
mod serve;

use measure::{median, peak_rss_mb, percentile};
use std::process::ExitCode;

/// Workload names: `BENCHMARK.json` lists the first two; `serve-mixed`
/// runs by hand (see `perfbench/README.md`, *Steadiness rules*).
pub const WORKLOADS: [&str; 3] = ["paper-kernels", "anchor-recovery", "serve-mixed"];

/// End-to-end metrics and their units, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("points_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_p90_us", "us"),
    ("warm_p90_us", "us"),
    ("cold_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The percentile of op latencies the end-to-end timings are taken at.
/// The host this benchmark was built on switches, for seconds to
/// minutes at a time, between two speeds: the same anchor-recovery op
/// took 22–25 ms in one and 38–47 ms in the other, and every cell of
/// the op slowed alike. How much of a run fell in each varied from run
/// to run, so over eight runs of the same code the spread (IQR over
/// median) of the per-run median or mean reached 0.28, and of the p5
/// 0.44. The slower state showed in almost every run, and the p90,
/// which lies in it, spread by 0.05–0.10.
pub const PCT: f64 = 90.0;

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [&str; 43] = [
    "ops.p5_us",
    "ops.p50_us",
    "unrank.scalar_ns.d2",
    "unrank.scalar_ns.d3",
    "unrank.scalar_ns.d4",
    "unrank.batch64_ns",
    "unrank.rank_ns",
    "unrank.recoveries",
    "unrank.corrected",
    "rowwalk.ns_per_pt",
    "rowwalk.segments_per_kpt",
    "parfor.claim_ns",
    "parfor.dispatch_us",
    "runner.once_ns_per_pt",
    "runner.batched64_ns_per_pt",
    "runner.binary_ns_per_pt",
    "runner.auto_ns_per_pt",
    "runner.residual_ns_per_pt",
    "replay.plan_us",
    "replay.instantiate_us",
    "replay.unrank_ns_per_pt",
    "replay.rowwalk_ns_per_pt",
    "replay.parfor_ns_per_pt",
    "replay.layers_ns_per_pt",
    "kernels.collapsed_ns_per_pt",
    "kernels.hand_nest_ns_per_pt",
    "kernels.overhead_vs_hand",
    "reduce.ns_per_pt",
    "reduce.chunks",
    "dsl.parse_us",
    "analyze.plan_us",
    "plan.miss_us",
    "plan.hit_us",
    "plan.instantiate_us",
    "plan.hit_ratio",
    "plan.evictions",
    "strategy.profile_us",
    "strategy.search_us",
    "strategy.searches",
    "serve.queue_wait_us",
    "serve.exec_us",
    "serve.front_us",
    "obs.trace_overhead_pct",
];

/// Set-ups per run: `setup_s` is their median, and for the two batch
/// workloads `cold_p90_us` is taken over their warm-up ops. At 33 the
/// p90 of the warm-up ops had three samples beyond it and spread by up
/// to 0.09 over ten runs, against 0.06 for the p90 of the timed ops.
pub const SETUP_REPS: usize = 66;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Output checks made and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.checks(1, u64::from(!ok));
    }

    pub fn checks(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Fewest timed ops in a run: leaves at least ten samples beyond a p90.
const MIN_OPS: u64 = 110;

/// Op classes the generators know beforehand. The batch workloads have
/// only warm ops; serve-mixed also sends cold shapes and reduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Warm,
    Cold,
    Reduce,
}

const CLASSES: [Class; 3] = [Class::Warm, Class::Cold, Class::Reduce];

/// One timed op: latency in µs, points processed, class.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub us: f64,
    pub points: u64,
    pub class: Class,
}

/// Most op samples a run keeps: past this, a uniform reservoir sample
/// stands for all ops, so the benchmark's own bookkeeping stops growing
/// and stays out of `peak_rss_mb`.
const MAX_SAMPLES: usize = 1 << 15;

/// What an untraced run measured.
pub struct Phase {
    /// Each set-up's time, s.
    setup_s: Vec<f64>,
    /// Each set-up's warm-up op (the first op on a fresh instance), µs.
    first_op_us: Vec<f64>,
    /// A uniform sample of the timed ops (all of them up to
    /// [`MAX_SAMPLES`]).
    samples: Vec<Op>,
    /// Ops and points per class, over every timed op.
    count: [u64; 3],
    points: [u64; 3],
    rng: gen::Rng,
    pub tally: Tally,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            setup_s: Vec::new(),
            first_op_us: Vec::new(),
            samples: Vec::new(),
            count: [0; 3],
            points: [0; 3],
            rng: gen::Rng::new(0),
            tally: Tally::default(),
        }
    }

    fn ops(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Records one timed op and whether its outputs were right.
    fn op(&mut self, op: Op, ok: bool) {
        self.tally.check(ok);
        let seen = self.ops();
        self.count[op.class as usize] += 1;
        self.points[op.class as usize] += op.points;
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(op);
        } else {
            let j = (self.rng.next_u64() % (seen + 1)) as usize;
            if j < MAX_SAMPLES {
                self.samples[j] = op;
            }
        }
    }

    fn us_of(&self, class: Option<Class>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|o| class.is_none_or(|c| o.class == c))
            .map(|o| o.us)
            .collect()
    }

    /// Throughput at each class's [`PCT`] latency: `ops_per_s` is
    /// `1 / Σ_c share_c · p90_c` and `points_per_s` weighs each class's
    /// mean points per op the same way.
    fn throughput(&self) -> (f64, f64) {
        let n = self.ops() as f64;
        let (mut us, mut pts) = (0.0, 0.0);
        for c in CLASSES {
            let k = self.count[c as usize];
            if k == 0 {
                continue;
            }
            us += k as f64 / n * percentile(&self.us_of(Some(c)), PCT);
            pts += self.points[c as usize] as f64 / n;
        }
        (1e6 / us, pts * 1e6 / us)
    }

    /// Percentile `p` of the timed ops (the p90 has at least ten
    /// samples beyond it, by [`MIN_OPS`]).
    pub fn op_us(&self, p: f64) -> f64 {
        percentile(&self.us_of(None), p)
    }

    fn metrics(&self) -> Vec<Metric> {
        let (ops_s, pts_s) = self.throughput();
        let cold = self.us_of(Some(Class::Cold));
        let cold = if cold.is_empty() {
            &self.first_op_us
        } else {
            &cold
        };
        let warm = self.us_of(Some(Class::Warm));
        vec![
            Metric::new("points_per_s", pts_s, "1/s"),
            Metric::new("ops_per_s", ops_s, "1/s"),
            Metric::new("op_p90_us", self.op_us(PCT), "us"),
            Metric::new("warm_p90_us", percentile(&warm, PCT), "us"),
            Metric::new("cold_p90_us", percentile(cold, PCT), "us"),
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    }
}

/// A workload's timed run: [`SETUP_REPS`] × `setup_weight` set-ups
/// spread evenly over `seconds` (the first before any op), and between
/// them ops until `seconds` have passed and at least [`MIN_OPS`] ran.
///
/// `set_up` builds a fresh instance and runs its warm-up op, returning
/// the instance and that op's time in µs; the set-up's own time counts
/// into `setup_s`. The new instance replaces the old one, so set-up and
/// cold figures sample the whole run, not its first second. `op` runs
/// op `i` on the current instance and says whether its outputs were
/// right.
pub fn timed<S>(
    seconds: f64,
    setup_weight: usize,
    mut set_up: impl FnMut() -> (S, f64),
    mut op: impl FnMut(&mut S, usize) -> (Op, bool),
) -> Phase {
    let reps = SETUP_REPS * setup_weight;
    let mut phase = Phase::new();
    let mut current = None;
    let start = std::time::Instant::now();
    let mut i = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if phase.setup_s.len() < reps
            && elapsed >= seconds * phase.setup_s.len() as f64 / reps as f64
        {
            drop(current.take());
            let t0 = std::time::Instant::now();
            let (state, first_us) = set_up();
            phase.setup_s.push(t0.elapsed().as_secs_f64());
            phase.first_op_us.push(first_us);
            current = Some(state);
            continue;
        }
        if phase.setup_s.len() == reps && phase.ops() >= MIN_OPS && elapsed >= seconds {
            return phase;
        }
        let state = current.as_mut().expect("set up before the first op");
        let (o, ok) = op(state, i);
        phase.op(o, ok);
        i += 1;
    }
}

fn run_workload(name: &str, seed: u64, seconds: f64) -> Phase {
    match name {
        "paper-kernels" => paper::workload(seed, seconds),
        "anchor-recovery" => anchor::workload(seed, seconds),
        _ => serve::workload(seed, seconds),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.5),
        trace: trace.unwrap_or(false),
    })
}

/// The traced run: the p5 and median of the named workload's ops
/// (untraced; they moved here from the end-to-end list because they do
/// not hold within a tenth from run to run, see [`PCT`]), then every
/// layer's figures,
/// whatever the workload (each layer is driven by the inputs of the
/// workload it serves).
fn traced(args: &Args) -> (Vec<Metric>, Tally) {
    let phase = run_workload(&args.workload, args.seed, args.seconds * 0.5);
    let mut metrics = vec![
        Metric::new("ops.p5_us", phase.op_us(5.0), "us"),
        Metric::new("ops.p50_us", phase.op_us(50.0), "us"),
    ];
    let mut tally = phase.tally;
    let mut events = Vec::new();
    let layers_s = args.seconds * 0.5;
    metrics.extend(anchor::layers(
        args.seed,
        layers_s * 0.5,
        &mut tally,
        &mut events,
    ));
    metrics.extend(paper::layers(args.seed, layers_s * 0.25, &mut tally));
    metrics.extend(serve::layers(args.seed, layers_s * 0.25, &mut tally));
    let trace = nrl_obs::Trace {
        events,
        threads: vec![(0, 0, "perfbench".into())],
        dropped: 0,
    };
    let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
    let written = std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&path, trace.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("chrome trace: {path}"),
        Err(e) => eprintln!("chrome trace not written ({path}): {e}"),
    }
    (metrics, tally)
}

fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Prints `metrics` (in the declared order), the failure ratio and the
/// JSON result line; exit code 1 if any output was wrong.
fn report(metrics: Vec<Metric>, tally: Tally, expected: &[&str]) -> ExitCode {
    assert_eq!(
        metrics.len(),
        expected.len(),
        "a metric was measured twice or not declared"
    );
    let metrics: Vec<Metric> = expected
        .iter()
        .map(|name| {
            let m = metrics.iter().find(|m| m.name == *name);
            m.unwrap_or_else(|| panic!("metric {name} was not measured"))
                .clone()
        })
        .collect();
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    for m in &metrics {
        println!("{:28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_ratio {} ({} of {} checks failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("{}", json_line(correct, tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fixes glibc's threshold above which `malloc` maps fresh pages at its
/// initial 128 KiB. glibc raises the threshold as large blocks are
/// freed; left to do so, paper-kernels' repeated set-ups (about 65 MiB
/// of matrices each) fell from about 110 to about 60 ms partway through
/// a run, at a set-up that varied from run to run, so `setup_s` landed
/// on either level. Fixed, every set-up maps its data afresh, as a
/// process that builds its kernels once does.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before this process allocates its workload.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    fix_mmap_threshold();
    if args.trace {
        let (metrics, tally) = traced(&args);
        report(metrics, tally, &PER_LAYER)
    } else {
        let phase = run_workload(&args.workload, args.seed, args.seconds);
        let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        report(phase.metrics(), phase.tally, &names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_valid_and_few_enough() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER.iter().copied())
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names must be unique");
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for w in WORKLOADS {
            assert!(valid_name(w), "{w}");
        }
    }

    /// The exact counters are counts, not timings: two computations for
    /// one seed agree to the last unit.
    #[test]
    fn exact_counters_repeat_for_a_seed() {
        for seed in [1, 2] {
            let mut t = Tally::default();
            let a = anchor::exact_counters(seed, &mut t);
            let b = anchor::exact_counters(seed, &mut t);
            assert_eq!(a.recoveries, b.recoveries);
            assert_eq!(a.corrected, b.corrected);
            assert_eq!(a.segments_per_kpt.to_bits(), b.segments_per_kpt.to_bits());
            assert!(a.recoveries > 0);
            let a = serve::exact_counters(seed, &mut t);
            let b = serve::exact_counters(seed, &mut t);
            assert_eq!(a.hit_ratio.to_bits(), b.hit_ratio.to_bits());
            assert_eq!(a.evictions, b.evictions);
            assert_eq!(a.searches, b.searches);
            assert!(a.searches > 0 && a.evictions > 0);
            assert_eq!(paper::reduce_chunks(), paper::reduce_chunks());
            assert_eq!(t.failed, 0, "outputs checked along the way");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &[Metric::new("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
