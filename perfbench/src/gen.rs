//! Seeded input generation: everything a workload runs is a pure
//! function of `--seed`, so the same seed replays the same cells and the
//! same request stream bit for bit.

/// SplitMix64: tiny, fast, and good enough to drive input choices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// A sub-stream for one purpose, independent of how much the
    /// parent stream has been consumed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The loop shapes the anchor-recovery and serve-mixed workloads draw
/// from: depth 2 to 4, ranking degree 2 to 4 (banded is the linear
/// control).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Fig. 1 triangle, depth 2, degree 2.
    Correlation,
    /// Fig. 6 tetrahedron, depth 3, degree 3.
    Figure6,
    /// `0 ≤ i ≤ j ≤ k ≤ l < N`, depth 4, degree 4, written in the DSL.
    Simplex4,
    /// Rhomboid band `0 ≤ i < R, i ≤ j ≤ i + W`, depth 2, linear.
    Banded,
}

impl Shape {
    pub const ALL: [Shape; 4] = [
        Shape::Correlation,
        Shape::Figure6,
        Shape::Simplex4,
        Shape::Banded,
    ];

    /// DSL source of the shape (the banded and simplex nests are only
    /// reachable through the DSL; the paper's two nests have builders
    /// in `nrl_polyhedra` but parse identically).
    pub fn source(self) -> &'static str {
        match self {
            Shape::Correlation => {
                "params N;\nfor (i = 0; i < N - 1; i++)\n for (j = i + 1; j < N; j++)\n { body; }\n"
            }
            Shape::Figure6 => {
                "params N;\nfor (i = 0; i < N - 1; i++)\n for (j = 0; j < i + 1; j++)\n  for (k = j; k < i + 1; k++)\n { body; }\n"
            }
            Shape::Simplex4 => {
                "params N;\nfor (i = 0; i < N; i++)\n for (j = i; j < N; j++)\n  for (k = j; k < N; k++)\n   for (l = k; l < N; l++)\n { body; }\n"
            }
            Shape::Banded => {
                "params R, W;\nfor (i = 0; i < R; i++)\n for (j = i; j <= i + W; j++)\n { body; }\n"
            }
        }
    }

    /// Exact point count at `params` (closed forms, independent of the
    /// collapse machinery so a ranking bug cannot hide on both sides).
    pub fn count(self, params: &[i64]) -> i64 {
        match self {
            Shape::Correlation => {
                let n = params[0];
                n * (n - 1) / 2
            }
            Shape::Figure6 => {
                // Σ_{i=0}^{N-2} (i+1)(i+2)/2 = (N-1)N(N+1)/6
                let n = params[0];
                (n - 1) * n * (n + 1) / 6
            }
            Shape::Simplex4 => {
                let n = params[0];
                n * (n + 1) * (n + 2) * (n + 3) / 24
            }
            Shape::Banded => params[0] * (params[1] + 1),
        }
    }
}

/// Points every anchor-recovery cell runs: the cell executes the last
/// `ANCHOR_POINTS` ranks of its seeded domain, so the seed moves the
/// domain (ranks, coefficients, anchors) but never the amount of work.
pub const ANCHOR_POINTS: u64 = 150_000;

/// One anchor-recovery domain: a shape at seeded parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnchorDomain {
    pub shape: Shape,
    pub params: Vec<i64>,
}

impl AnchorDomain {
    pub fn total(&self) -> i64 {
        self.shape.count(&self.params)
    }

    /// Ranks skipped before the measured window.
    pub fn skip(&self) -> u64 {
        self.total() as u64 - ANCHOR_POINTS
    }
}

/// `sets` sets of the four anchor-recovery domains for `seed`, each
/// domain a little larger than [`ANCHOR_POINTS`] (parameters drawn from
/// a fixed band).
pub fn anchor_domain_sets(seed: u64, sets: usize) -> Vec<Vec<AnchorDomain>> {
    let mut rng = Rng::fork(seed, 1);
    (0..sets)
        .map(|_| {
            Shape::ALL
                .iter()
                .map(|&shape| {
                    let params = match shape {
                        Shape::Correlation => vec![rng.range(560, 700)],
                        Shape::Figure6 => vec![rng.range(98, 124)],
                        Shape::Simplex4 => vec![rng.range(46, 56)],
                        Shape::Banded => {
                            let r = rng.range(40, 80);
                            let w = (ANCHOR_POINTS as i64 + r - 1) / r + rng.range(0, 400);
                            vec![r, w]
                        }
                    };
                    let d = AnchorDomain { shape, params };
                    assert!(d.total() as u64 >= ANCHOR_POINTS, "{d:?} too small");
                    d
                })
                .collect()
        })
        .collect()
}

/// `count` orders one paper-kernels op can visit its cells in (seeded
/// permutations of `0..cells`); ops cycle through them.
pub fn paper_orders(seed: u64, cells: usize, count: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::fork(seed, 2);
    (0..count)
        .map(|_| {
            let mut order: Vec<usize> = (0..cells).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect()
}

/// Hot-set size of serve-mixed: below any cache capacity in use.
pub const WARM_KEYS: usize = 8;

/// One hot (shape, params) key of serve-mixed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmKey {
    pub shape: Shape,
    pub params: Vec<i64>,
}

/// The eight warm keys: two parameter points per shape, each domain
/// 1 771 to 2 380 points, so every warm run costs about the same and
/// the run itself is a few µs. Fixed, not seeded: the warm class stays
/// homogeneous and its work the same for every seed (the seed moves
/// the request order and the cold shapes).
pub fn warm_keys() -> Vec<WarmKey> {
    let key = |shape, params: &[i64]| WarmKey {
        shape,
        params: params.to_vec(),
    };
    vec![
        key(Shape::Correlation, &[64]),
        key(Shape::Correlation, &[66]),
        key(Shape::Figure6, &[22]),
        key(Shape::Figure6, &[23]),
        key(Shape::Simplex4, &[13]),
        key(Shape::Simplex4, &[14]),
        key(Shape::Banded, &[8, 249]),
        key(Shape::Banded, &[10, 199]),
    ]
}

/// Band the cold shapes' domain parameter `N` is drawn from. The band
/// never moves with the request index: the stream is stationary.
pub const COLD_N: (i64, i64) = (40, 60);

/// One serve-mixed request, as the client will send it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// A `run` over hot key `key`.
    Warm { key: usize },
    /// A `reduce` over hot key `key`, value checked.
    Reduce { key: usize },
    /// A never-seen shape in DSL text, run at `n`.
    Cold { source: String, n: i64 },
}

/// The serve-mixed request stream: ~70% warm runs, ~20% cold shapes,
/// ~10% warm reduces. Infinite; the client takes as many as its run
/// lasts.
pub struct RequestStream {
    rng: Rng,
    /// Cold requests so far; the `i`-th gets shift `cold_shift(i)`.
    cold: u64,
    /// Seed-derived mask of the shift bijection.
    mask: u64,
}

/// Shifts live in `1..=SHIFTS`.
const SHIFTS: u64 = 1 << 20;

impl RequestStream {
    pub fn new(seed: u64) -> RequestStream {
        let mut rng = Rng::fork(seed, 4);
        let mask = rng.next_u64() % SHIFTS;
        RequestStream { rng, cold: 0, mask }
    }

    /// A bijection of `0..SHIFTS` (odd multiply, xor-shift, xor with the
    /// seed's mask, all mod 2²⁰): consecutive cold requests get shifts
    /// spread over the whole range that never repeat within 2²⁰
    /// requests, with no memory of past shifts.
    fn cold_shift(&self, i: u64) -> i64 {
        let mut x = i.wrapping_mul(0x9E37_79B1) % SHIFTS;
        x ^= x >> 10;
        x = x.wrapping_mul(0x2C1B_3C6D) % SHIFTS;
        x ^= x >> 7;
        1 + (x ^ self.mask) as i64
    }

    /// A cold source: the correlation triangle translated by a shift
    /// `S` that is never reused. The translation makes the shape new to
    /// every cache (its bounds' constants change) while its point count
    /// depends on `N` alone.
    fn cold(&mut self) -> Request {
        let shift = self.cold_shift(self.cold);
        self.cold += 1;
        let n = self.rng.range(COLD_N.0, COLD_N.1);
        let source = format!(
            "params N;\nfor (i = {shift}; i < N + {}; i++)\n for (j = i + 1; j < N + {shift}; j++)\n {{ body; }}\n",
            shift - 1
        );
        Request::Cold { source, n }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let u = self.rng.unit();
        Some(if u < 0.7 {
            Request::Warm {
                key: (self.rng.next_u64() % WARM_KEYS as u64) as usize,
            }
        } else if u < 0.9 {
            self.cold()
        } else {
            Request::Reduce {
                key: (self.rng.next_u64() % WARM_KEYS as u64) as usize,
            }
        })
    }
}

/// Seeded ranks in `1..=total` for the unrank probes.
pub fn ranks(seed: u64, stream: u64, total: i64, count: usize) -> Vec<i128> {
    let mut rng = Rng::fork(seed, 100 + stream);
    (0..count)
        .map(|_| i128::from(rng.range(1, total)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_and_cells() {
        let a: Vec<Request> = RequestStream::new(7).take(5000).collect();
        let b: Vec<Request> = RequestStream::new(7).take(5000).collect();
        assert_eq!(a, b);
        assert_eq!(anchor_domain_sets(7, 4), anchor_domain_sets(7, 4));
        assert_eq!(paper_orders(7, 16, 4), paper_orders(7, 16, 4));
        assert_eq!(ranks(7, 1, 1000, 64), ranks(7, 1, 1000, 64));
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Request> = RequestStream::new(1).take(200).collect();
        let b: Vec<Request> = RequestStream::new(2).take(200).collect();
        assert_ne!(a, b);
        assert_ne!(anchor_domain_sets(1, 4), anchor_domain_sets(2, 4));
        assert_ne!(paper_orders(1, 16, 4), paper_orders(2, 16, 4));
    }

    /// The cold domain size, warm/cold/reduce mix and hot-key choice of
    /// the first quarter of a long stream match the last quarter's.
    #[test]
    fn stream_is_stationary() {
        let stream: Vec<Request> = RequestStream::new(11).take(80_000).collect();
        let quarter = stream.len() / 4;
        let summary = |part: &[Request]| {
            let (mut warm, mut cold, mut reduce, mut n_sum, mut key_sum) = (0, 0, 0, 0i64, 0);
            let mut n_hist = [0usize; (COLD_N.1 - COLD_N.0 + 1) as usize];
            for r in part {
                match r {
                    Request::Warm { key } => {
                        warm += 1;
                        key_sum += key;
                    }
                    Request::Reduce { key } => {
                        reduce += 1;
                        key_sum += key;
                    }
                    Request::Cold { n, .. } => {
                        cold += 1;
                        n_sum += n;
                        n_hist[(n - COLD_N.0) as usize] += 1;
                    }
                }
            }
            let len = part.len() as f64;
            (
                warm as f64 / len,
                cold as f64 / len,
                reduce as f64 / len,
                n_sum as f64 / cold as f64,
                key_sum as f64 / (warm + reduce) as f64,
                n_hist.map(|c| c as f64 / cold as f64),
            )
        };
        let first = summary(&stream[..quarter]);
        let last = summary(&stream[stream.len() - quarter..]);
        assert!((first.0 - last.0).abs() < 0.015, "warm share");
        assert!((first.1 - last.1).abs() < 0.015, "cold share");
        assert!((first.2 - last.2).abs() < 0.015, "reduce share");
        assert!((first.3 - last.3).abs() < 0.5, "mean cold N");
        assert!((first.4 - last.4).abs() < 0.1, "mean hot key");
        // Kolmogorov–Smirnov distance of the cold-N distributions.
        let (mut cf, mut cl, mut ks) = (0.0f64, 0.0f64, 0.0f64);
        for (a, b) in first.5.iter().zip(last.5.iter()) {
            cf += a;
            cl += b;
            ks = ks.max((cf - cl).abs());
        }
        assert!(ks < 0.04, "cold N distribution drifted: KS {ks}");
    }

    #[test]
    fn cold_shapes_never_repeat() {
        let mut seen = HashSet::new();
        let mut cold = 0;
        for r in RequestStream::new(3).take(100_000) {
            if let Request::Cold { source, .. } = r {
                cold += 1;
                assert!(seen.insert(source), "cold shape repeated");
            }
        }
        assert!(cold > 15_000);
    }

    #[test]
    fn anchor_domains_cover_the_window_and_match_their_sources() {
        for set in anchor_domain_sets(5, 4) {
            for (d, depth) in set.into_iter().zip([2, 3, 4, 2]) {
                assert!(d.total() as u64 >= ANCHOR_POINTS);
                let nest = nrl_dsl::parse(d.shape.source()).unwrap().to_nest().unwrap();
                assert_eq!(nest.depth(), depth);
                if d.total() < 2_000_000 {
                    assert_eq!(nest.count_enumerated(&d.params) as i64, d.total(), "{d:?}");
                }
            }
        }
    }

    #[test]
    fn warm_keys_are_distinct_and_alike_in_size() {
        let keys = warm_keys();
        assert_eq!(keys.len(), WARM_KEYS);
        for (i, a) in keys.iter().enumerate() {
            assert!(keys[i + 1..].iter().all(|b| a != b));
            assert!((1_700..=2_400).contains(&a.shape.count(&a.params)), "{a:?}");
        }
    }
}
