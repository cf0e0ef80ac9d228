//! [`ParamPlan`]: the analyze-once / instantiate-many split of the
//! collapse pipeline.
//!
//! [`CollapseSpec::bind`] repeats, on every call, work that only
//! depends on the nest *shape*: rational parameter folding of every
//! level polynomial, ring shrinking, Horner lowering, and a
//! Fourier–Motzkin feasibility proof. A service answering many
//! collapse requests over the same shapes at different sizes should
//! pay the symbolic analysis once and stamp out per-request
//! [`Collapsed`] instances from precompiled artifacts — the same
//! modularity argument modular loop-acceleration and synthesis systems
//! make for their expensive analyses.
//!
//! `ParamPlan` is that split:
//!
//! * [`ParamPlan::analyze`] runs the full symbolic pipeline — ranking
//!   construction (Bernoulli/Faulhaber sums), per-level inversion
//!   polynomials, **parametric lowering**
//!   ([`nrl_poly::ParamCompiledPoly`]: ladders whose coefficients are
//!   themselves small integer ladders in the parameter vector), the
//!   denominator-cleared total polynomial, and the parameter-space
//!   Fourier–Motzkin [trip-count certificate](TripCountCertificate);
//! * [`ParamPlan::instantiate`] folds a concrete parameter vector
//!   through those artifacts: coefficient evaluation, interval
//!   analysis, per-level engine choice and overflow proof — no
//!   `Rational` arithmetic, no ring surgery, no elimination. The
//!   result is **bit-identical** to `CollapseSpec::new(nest)?.bind(params)?`
//!   (same totals, engines, overflow proofs, recovery results), at a
//!   small fraction of the cost.
//!
//! ```
//! use nrl_core::{CollapseSpec, ParamPlan};
//! use nrl_polyhedra::NestSpec;
//!
//! let nest = NestSpec::correlation();
//! let plan = ParamPlan::analyze(&nest).unwrap();     // once per shape
//! for n in [100i64, 1000, 10_000] {
//!     let collapsed = plan.instantiate(&[n]).unwrap(); // per request
//!     let fresh = CollapseSpec::new(&nest).unwrap().bind(&[n]).unwrap();
//!     assert_eq!(collapsed.total(), fresh.total());
//!     assert_eq!(collapsed.unrank(collapsed.total()), fresh.unrank(fresh.total()));
//! }
//! ```

use crate::collapsed::{
    assemble_level, assemble_rank, bind_poly, iterator_box, warm_reach, BindError, CollapseError,
    CollapseSpec, Collapsed,
};
use crate::strategy::{self, ShapeProfile, TunedStrategy};
use crate::unrank::EngineCalibration;
use nrl_poly::{IntPoly, ParamCompiledPoly};
use nrl_polyhedra::{NestSpec, TripCountCertificate, TripProof};
use std::sync::{Mutex, OnceLock};

/// Cap on persisted per-`(context, params)` strategy winners per plan:
/// a service replaying the same shapes reuses a handful of slots;
/// past the cap the oldest slot is evicted (the search is cheap to
/// redo, the cap only bounds memory for parameter-sweep workloads).
const MAX_TUNED_SLOTS: usize = 32;

/// One persisted autotune decision: the winner for one
/// `(context key, parameter vector)` of this plan's shape.
#[derive(Clone, Debug)]
struct TunedSlot {
    ctx_key: u64,
    params: Vec<i64>,
    tuned: TunedStrategy,
}

/// The keyed per-context tuning state of a plan: the machine's
/// microprobe calibration (measured once, shared by every context —
/// engine costs are a machine fact, not a context fact) plus the
/// per-`(context, params)` strategy winners. This replaces the bare
/// `OnceLock<EngineCalibration>` field of earlier revisions: cache
/// hits now skip the strategy search, not just the microprobe.
#[derive(Debug, Default)]
struct TunerMap {
    calibration: OnceLock<EngineCalibration>,
    winners: Mutex<Vec<TunedSlot>>,
}

impl Clone for TunerMap {
    fn clone(&self) -> Self {
        let map = TunerMap::default();
        if let Some(c) = self.calibration.get() {
            let _ = map.calibration.set(*c);
        }
        let winners = self
            .winners
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *map.winners
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = winners.clone();
        drop(winners);
        map
    }
}

/// The reusable, parameter-independent product of analyzing one nest
/// shape: symbolic ranking/inversion polynomials plus every bind-time
/// artifact that does not depend on parameter values. Cheap to
/// [`instantiate`](Self::instantiate), safe to share across threads
/// (`Sync` — typically behind an `Arc` in a plan cache).
#[derive(Clone, Debug)]
pub struct ParamPlan {
    spec: CollapseSpec,
    /// Per level `k`: `R_k` parametrically lowered univariate-in-`i_k`.
    levels: Vec<ParamCompiledPoly>,
    /// The ranking polynomial parametrically lowered in the innermost
    /// index (`None` only at depth 0).
    rank: Option<ParamCompiledPoly>,
    /// Denominator-cleared total-count polynomial over the full ring.
    total: IntPoly,
    /// Parameter-space projection of the per-level trip-count
    /// violation systems (the analyze-time half of `bind` validation).
    cert: TripCountCertificate,
    /// Machine-measured engine/strategy constants plus the persisted
    /// per-`(context, params)` autotune winners (see [`TunerMap`]).
    /// The calibration half is set by the first
    /// [`calibrate_engines`](Self::calibrate_engines) call so the
    /// microprobe cost amortizes across every instantiation of the
    /// shape; uncalibrated plans use [`EngineCalibration::STATIC`] and
    /// stay bit-identical to fresh binds.
    tuner: TunerMap,
}

impl ParamPlan {
    /// Runs the analyze-once half of the pipeline on a nest shape.
    pub fn analyze(nest: &NestSpec) -> Result<ParamPlan, CollapseError> {
        Ok(CollapseSpec::new(nest)?.into_plan())
    }

    /// The symbolic collapse spec the plan was compiled from (ranking
    /// polynomial, level equations — the codegen-facing surface).
    pub fn spec(&self) -> &CollapseSpec {
        &self.spec
    }

    /// The nest shape this plan collapses.
    pub fn nest(&self) -> &NestSpec {
        self.spec.nest()
    }

    /// Runs the bind-time engine microprobe **once** (8 timed probe
    /// solves per closed-form degree; see
    /// [`EngineCalibration::microprobe`]) and persists the result
    /// inside the plan: every subsequent
    /// [`instantiate`](Self::instantiate) of this shape — from any
    /// thread, including cache-served `Arc<ParamPlan>` borrowers —
    /// picks its per-level engines from the measured solve/probe ratio
    /// of the running machine instead of the committed constants.
    ///
    /// Calibration is deliberately **opt-in**: an uncalibrated plan
    /// instantiates bit-identically to `CollapseSpec::bind` (same
    /// engines, same proofs), which the plan differential tests rely
    /// on. Engine choice never affects recovery *results*, only their
    /// cost, so calibrated and uncalibrated instances always unrank
    /// identically — fidelity checks against fresh binds (the kernel
    /// registry's `set_plan_verification` mode) therefore keep every
    /// assertion for calibrated plans *except* per-level engine
    /// equality, which only holds under the committed constants.
    pub fn calibrate_engines(&self) -> EngineCalibration {
        *self
            .tuner
            .calibration
            .get_or_init(EngineCalibration::microprobe)
    }

    /// The persisted microprobe result, if
    /// [`calibrate_engines`](Self::calibrate_engines) has run.
    pub fn engine_calibration(&self) -> Option<EngineCalibration> {
        self.tuner.calibration.get().copied()
    }

    /// The persisted autotune winner for `(ctx_key, params)`, if a
    /// [`tune_strategy`](Self::tune_strategy) call already searched
    /// this slot — the plan-cache-hit fast path that skips profiling
    /// and search entirely.
    ///
    /// `ctx_key` is an opaque context discriminator computed by the
    /// caller (the plan cache hashes its `PlanContext` into one);
    /// callers without contexts use `0`.
    pub fn tuned_strategy(&self, ctx_key: u64, params: &[i64]) -> Option<TunedStrategy> {
        let winners = self
            .tuner
            .winners
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        winners
            .iter()
            .find(|s| s.ctx_key == ctx_key && s.params == params)
            .map(|s| s.tuned)
    }

    /// Returns the autotune winner for `(ctx_key, params)`, running
    /// the bounded strategy search (profile → per-node
    /// `compute_main_cost` → argmin) on a miss and persisting the
    /// result in the keyed per-context slot. The boolean reports
    /// whether a fresh search ran (`false` = served from the slot).
    ///
    /// Calibrates the engines first ([`Self::calibrate_engines`] — a
    /// one-time microprobe), so predictions use this machine's
    /// measured constants.
    pub fn tune_strategy(
        &self,
        ctx_key: u64,
        params: &[i64],
        collapsed: &Collapsed,
        threads: usize,
    ) -> (TunedStrategy, bool) {
        if let Some(tuned) = self.tuned_strategy(ctx_key, params) {
            return (tuned, false);
        }
        let cal = self.calibrate_engines();
        self.tune_strategy_with(ctx_key, params, collapsed, threads, &cal)
    }

    /// [`Self::tune_strategy`] against an explicit calibration —
    /// deterministic given its inputs (the `autotune_stress` bin pins
    /// winner stability with [`EngineCalibration::STATIC`]).
    pub fn tune_strategy_with(
        &self,
        ctx_key: u64,
        params: &[i64],
        collapsed: &Collapsed,
        threads: usize,
        calibration: &EngineCalibration,
    ) -> (TunedStrategy, bool) {
        if let Some(tuned) = self.tuned_strategy(ctx_key, params) {
            return (tuned, false);
        }
        let _autotune = crate::obs::span("plan", "plan.autotune");
        let profile = ShapeProfile::measure(collapsed);
        let tuned = strategy::search(&profile, calibration, threads);
        let mut winners = self
            .tuner
            .winners
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // A racing search may have landed first; both computed the
        // same deterministic winner — keep the stored one.
        if let Some(slot) = winners
            .iter()
            .find(|s| s.ctx_key == ctx_key && s.params == params)
        {
            return (slot.tuned, false);
        }
        if winners.len() >= MAX_TUNED_SLOTS {
            winners.remove(0);
        }
        winners.push(TunedSlot {
            ctx_key,
            params: params.to_vec(),
            tuned,
        });
        (tuned, true)
    }

    /// Instantiates the plan at concrete parameters, validating the
    /// domain exactly as [`CollapseSpec::bind`] does — but through the
    /// precomputed certificate, falling back to the exhaustive prefix
    /// walk only where the rational relaxation cannot rule a violation
    /// out.
    pub fn instantiate(&self, params: &[i64]) -> Result<Collapsed, BindError> {
        let nest = self.nest();
        if params.len() != nest.nparams() {
            return Err(BindError::ParamArity {
                expected: nest.nparams(),
                got: params.len(),
            });
        }
        if self.cert.check(params) != TripProof::Proved {
            if let Err((level, prefix)) = nest.check_trip_counts(params, false) {
                return Err(BindError::NegativeTripCount { level, prefix });
            }
        }
        Ok(self.instantiate_unchecked(params))
    }

    /// Instantiates without domain validation (the counterpart of
    /// [`CollapseSpec::bind_unchecked`], with the same contract).
    pub fn instantiate_unchecked(&self, params: &[i64]) -> Collapsed {
        let nest = self.nest();
        let d = nest.depth();
        let bound_nest = nest.bind(params);
        let mut full = vec![0i64; nest.space().len()];
        full[d..].copy_from_slice(params);
        let total = self.total.eval_int(&full);
        let var_box = iterator_box(nest, params);
        let calibration = self
            .tuner
            .calibration
            .get()
            .unwrap_or(&EngineCalibration::STATIC);
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(k, pl)| {
                let (compiled, rk) = pl.instantiate(params);
                assemble_level(compiled, rk, k, &var_box, calibration)
            })
            .collect();
        let (rank_int, rank_compiled, rank_i64_safe) = match &self.rank {
            Some(pr) => {
                let (cp, ip) = pr.instantiate(params);
                let (compiled, safe) = assemble_rank(cp, d, &var_box);
                (ip, compiled, safe)
            }
            // Depth 0: no innermost index to lower in — keep the
            // (constant) reference polynomial only, like bind does.
            None => (
                IntPoly::from_poly(&bind_poly(self.spec.ranking().rank_poly(), d, params)),
                None,
                false,
            ),
        };
        Collapsed::from_parts(
            bound_nest,
            d,
            total,
            levels,
            rank_int,
            rank_compiled,
            rank_i64_safe,
            warm_reach(d, &var_box),
        )
    }
}

impl CollapseSpec {
    /// Finishes the analyze half on an already-built spec: parametric
    /// lowering of every level equation and the ranking polynomial,
    /// plus the parameter-space trip-count certificate. Together with
    /// [`CollapseSpec::new`] this is exactly
    /// [`ParamPlan::analyze`].
    pub fn into_plan(self) -> ParamPlan {
        let nest = self.nest();
        let d = nest.depth();
        let levels = (0..d)
            .map(|k| {
                ParamCompiledPoly::lower(self.level_poly(k), k, d)
                    .expect("collapsible nests stay within the compiled-ladder capacity")
            })
            .collect();
        let rank = (d > 0).then(|| {
            ParamCompiledPoly::lower(self.ranking().rank_poly(), d - 1, d)
                .expect("collapsible nests stay within the compiled-ladder capacity")
        });
        let total = IntPoly::from_poly(self.ranking().total_poly());
        let cert = nest.trip_count_certificate(false);
        ParamPlan {
            spec: self,
            levels,
            rank,
            total,
            cert,
            tuner: TunerMap::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unrank::LevelEngine;

    fn assert_plan_matches_bind(nest: &NestSpec, params: &[i64]) {
        let spec = CollapseSpec::new(nest).unwrap();
        let plan = ParamPlan::analyze(nest).unwrap();
        match (plan.instantiate(params), spec.bind(params)) {
            (Ok(inst), Ok(fresh)) => {
                assert_eq!(inst.total(), fresh.total(), "total at {params:?}");
                for k in 0..nest.depth() {
                    assert_eq!(
                        inst.level_engine(k),
                        fresh.level_engine(k),
                        "engine at level {k}, {params:?}"
                    );
                    assert_eq!(
                        inst.level_i64_proven(k),
                        fresh.level_i64_proven(k),
                        "overflow proof at level {k}, {params:?}"
                    );
                }
                assert_eq!(inst.rank_i64_proven(), fresh.rank_i64_proven());
                let total = inst.total();
                let step = (total / 37).max(1);
                let mut a = vec![0i64; nest.depth()];
                let mut b = vec![0i64; nest.depth()];
                let mut pc = 1i128;
                while pc <= total {
                    inst.unrank_into(pc, &mut a);
                    fresh.unrank_into(pc, &mut b);
                    assert_eq!(a, b, "unrank({pc}) at {params:?}");
                    assert_eq!(inst.rank(&a), fresh.rank(&a));
                    pc += step;
                }
            }
            (Err(e1), Err(e2)) => assert_eq!(e1, e2, "bind errors diverge at {params:?}"),
            (inst, fresh) => panic!(
                "plan/bind outcomes diverge at {params:?}: {:?} vs {:?}",
                inst.map(|c| c.total()),
                fresh.map(|c| c.total())
            ),
        }
    }

    #[test]
    fn instantiate_matches_bind_on_paper_nests() {
        for n in [1i64, 2, 3, 12, 40, 1000] {
            assert_plan_matches_bind(&NestSpec::correlation(), &[n]);
            assert_plan_matches_bind(&NestSpec::figure6(), &[n]);
        }
        assert_plan_matches_bind(&NestSpec::rectangular(&[4, 3, 2]), &[]);
    }

    #[test]
    fn instantiate_matches_bind_errors() {
        let plan = ParamPlan::analyze(&NestSpec::correlation()).unwrap();
        assert!(matches!(
            plan.instantiate(&[]),
            Err(BindError::ParamArity {
                expected: 1,
                got: 0
            })
        ));
        assert!(matches!(
            plan.instantiate(&[0]),
            Err(BindError::NegativeTripCount { level: 0, .. })
        ));
    }

    #[test]
    fn engine_choice_is_a_bind_time_fact_through_the_plan_too() {
        let plan = ParamPlan::analyze(&NestSpec::correlation()).unwrap();
        let narrow = plan.instantiate(&[64]).unwrap();
        assert_eq!(narrow.level_engine(0), LevelEngine::BinarySearch);
        let wide = plan.instantiate(&[2_000_000]).unwrap();
        assert_eq!(wide.level_engine(0), LevelEngine::ClosedForm);
    }

    #[test]
    fn microprobe_calibration_persists_and_stays_exact() {
        let plan = ParamPlan::analyze(&NestSpec::correlation()).unwrap();
        assert_eq!(plan.engine_calibration(), None, "opt-in: unset at analyze");
        let before = plan.instantiate(&[2_000]).unwrap();
        let calib = plan.calibrate_engines();
        // Persisted: the second call returns the stored measurement
        // without re-probing (OnceLock), and instantiate sees it.
        assert_eq!(plan.calibrate_engines(), calib);
        assert_eq!(plan.engine_calibration(), Some(calib));
        let after = plan.instantiate(&[2_000]).unwrap();
        // Engine choice may legitimately differ between the committed
        // constants and the measured ratio, but recovery results are
        // engine-independent — the calibrated instance must unrank
        // bit-identically.
        assert_eq!(before.total(), after.total());
        let mut a = vec![0i64; 2];
        let mut b = vec![0i64; 2];
        let step = (before.total() / 41).max(1);
        let mut pc = 1i128;
        while pc <= before.total() {
            before.unrank_into(pc, &mut a);
            after.unrank_into(pc, &mut b);
            assert_eq!(a, b, "unrank({pc})");
            pc += step;
        }
    }

    #[test]
    fn microprobe_measures_sane_solve_costs() {
        // The `[2, 255]` clamp is an invariant of `microprobe`, so the
        // range check below cannot catch a broken *measurement* — that
        // coverage lives in `choose_with_respects_calibration_bias`
        // (crate::unrank), which drives the crossover with synthetic
        // calibrations. What IS live here: the probe must terminate,
        // produce clamped closed-form entries, and leave every
        // non-closed-form degree at 0 (those levels never solve, and a
        // nonzero entry would silently shift `choose_with`'s log-width
        // comparison for them).
        let calib = crate::unrank::EngineCalibration::microprobe();
        for deg in 2..=4 {
            let equiv = calib.probe_equiv(deg);
            assert!(
                (2..=255).contains(&equiv),
                "degree {deg} solve cost out of clamp range: {equiv}"
            );
        }
        assert_eq!(calib.probe_equiv(0), 0);
        assert_eq!(calib.probe_equiv(1), 0);
        assert_eq!(calib.probe_equiv(9), 0);
    }

    #[test]
    fn tuned_winner_persists_per_context_slot() {
        let plan = ParamPlan::analyze(&NestSpec::correlation()).unwrap();
        let collapsed = plan.instantiate(&[800]).unwrap();
        assert_eq!(plan.tuned_strategy(0, &[800]), None, "empty until tuned");
        let cal = EngineCalibration::STATIC;
        let (first, fresh) = plan.tune_strategy_with(0, &[800], &collapsed, 4, &cal);
        assert!(fresh, "first call must search");
        // The slot now serves every repeat — no fresh search.
        let (again, fresh) = plan.tune_strategy_with(0, &[800], &collapsed, 4, &cal);
        assert!(!fresh, "slot hit must skip the search");
        assert_eq!(first, again);
        assert_eq!(plan.tuned_strategy(0, &[800]), Some(first));
        // Distinct context keys and distinct params are distinct slots.
        assert_eq!(plan.tuned_strategy(7, &[800]), None);
        assert_eq!(plan.tuned_strategy(0, &[900]), None);
        let (_, fresh) = plan.tune_strategy_with(7, &[800], &collapsed, 4, &cal);
        assert!(fresh);
        // Cloning the plan carries the persisted slots along.
        let cloned = plan.clone();
        assert_eq!(cloned.tuned_strategy(0, &[800]), Some(first));
    }

    #[test]
    fn tuned_slot_cap_evicts_oldest() {
        let plan = ParamPlan::analyze(&NestSpec::correlation()).unwrap();
        let collapsed = plan.instantiate(&[100]).unwrap();
        let cal = EngineCalibration::STATIC;
        for key in 0..(super::MAX_TUNED_SLOTS as u64 + 3) {
            plan.tune_strategy_with(key, &[100], &collapsed, 4, &cal);
        }
        assert_eq!(plan.tuned_strategy(0, &[100]), None, "oldest evicted");
        assert!(plan
            .tuned_strategy(super::MAX_TUNED_SLOTS as u64 + 2, &[100])
            .is_some());
    }

    #[test]
    fn plan_execution_roundtrips() {
        let plan = ParamPlan::analyze(&NestSpec::figure6()).unwrap();
        let collapsed = plan.instantiate(&[9]).unwrap();
        for (pc, point) in (1i128..).zip(NestSpec::figure6().enumerate(&[9])) {
            assert_eq!(collapsed.unrank(pc), point);
            assert_eq!(collapsed.rank(&point), pc);
        }
    }
}
