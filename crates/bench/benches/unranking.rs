//! Criterion: index-recovery cost — the adaptive engine vs. its forced
//! closed-form / binary-search ablations, across nest depths and sizes
//! (the §V "costly recovery").
//!
//! The `adaptive/*` series is the production `unrank_into` path (each
//! level runs the engine chosen at bind time); `closed_form/*` and
//! `binary_search/*` force one engine everywhere — the adaptive series
//! should track the better of the two per benchmark id. The
//! `reference/*` series runs the pre-compilation engine (every probe
//! re-evaluates the multivariate `R_k` term-by-term); comparing
//! `binary_search/*` against `reference/*` measures the compiled
//! Horner ladder's speedup on the same search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nrl_core::CollapseSpec;
use nrl_polyhedra::NestSpec;
use std::hint::black_box;

fn bench_unrank(c: &mut Criterion) {
    let mut group = c.benchmark_group("unrank");
    for (label, nest, params) in [
        ("correlation_n1e3", NestSpec::correlation(), vec![1_000i64]),
        ("correlation_n1e6", NestSpec::correlation(), vec![1_000_000]),
        ("figure6_n300", NestSpec::figure6(), vec![300]),
    ] {
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&params).unwrap();
        let total = collapsed.total();
        let probe = total / 2 + 1;
        let mut point = vec![0i64; nest.depth()];
        group.bench_with_input(BenchmarkId::new("adaptive", label), &probe, |b, &pc| {
            b.iter(|| {
                collapsed.unrank_into(black_box(pc), &mut point);
                black_box(point[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("closed_form", label), &probe, |b, &pc| {
            b.iter(|| {
                collapsed.unrank_closed_form_into(black_box(pc), &mut point);
                black_box(point[0])
            });
        });
        group.bench_with_input(
            BenchmarkId::new("binary_search", label),
            &probe,
            |b, &pc| {
                b.iter(|| {
                    collapsed.unrank_binary_into(black_box(pc), &mut point);
                    black_box(point[0])
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("reference", label), &probe, |b, &pc| {
            b.iter(|| {
                collapsed.unrank_reference_into(black_box(pc), &mut point);
                black_box(point[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("cached_sweep", label), &probe, |b, &pc| {
            // 64 consecutive ranks through one unranker: after the
            // first, each is a warm step from the one before (the
            // Recovery::Naive ablation recovers cold instead).
            let mut unranker = collapsed.unranker();
            let last = pc.min(total - 63);
            b.iter(|| {
                for offset in 0..64 {
                    unranker.unrank_into(black_box(last + offset), &mut point);
                }
                black_box(point[0])
            });
        });
    }
    group.finish();
}

fn bench_odometer(c: &mut Criterion) {
    // The cheap path between recoveries: one odometer advance.
    let nest = NestSpec::correlation();
    let bound = nest.bind(&[10_000]);
    c.bench_function("odometer_advance", |b| {
        let mut point = bound.first_point().unwrap();
        b.iter(|| {
            if !bound.advance(&mut point) {
                point = bound.first_point().unwrap();
            }
            black_box(point[1])
        });
    });
}

/// Shared Criterion settings: short measurement windows so the full
/// suite stays CI-friendly.
fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}
criterion_group! { name = benches; config = config(); targets = bench_unrank, bench_odometer }
criterion_main!(benches);
