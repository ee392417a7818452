//! Property-based tests shared by all optimizers.

use crate::test_functions::optimizers;
use crate::{Optimizer, OptimizerState};
use proptest::prelude::*;

/// How far past its target one call may leave an `n`-dimensional run: one
/// less than the largest atomic step documented on [`Optimizer`] (SPSA,
/// random and grid search only begin steps that fit, so never overshoot).
fn max_overshoot(optimizer: &str, n: usize) -> usize {
    match optimizer {
        "cobyla" => n,
        "nelder-mead" => n + 1,
        "spsa" | "random-search" | "grid-search" => 0,
        other => panic!("no documented step bound for {other}"),
    }
}

/// Advance `state` to `target` through the scalar or the batch driver.
fn advance(
    opt: &dyn Optimizer,
    state: &mut OptimizerState,
    f: &(dyn Fn(&[f64]) -> f64 + Sync),
    target: usize,
    batched: bool,
) {
    if batched {
        let mut batch_f = |points: &[Vec<f64>]| points.iter().map(|p| f(p)).collect::<Vec<f64>>();
        opt.resume_until_batched(state, &mut batch_f, f, target);
    } else {
        opt.resume_until(state, f, target);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizers_never_return_worse_than_best_trace_value(
        x0 in -2.0f64..2.0,
        x1 in -2.0f64..2.0,
        shift in -1.0f64..1.0,
    ) {
        let f = move |x: &[f64]| (x[0] - shift).powi(2) + (x[1] + shift).powi(2);
        for opt in optimizers() {
            let r = opt.minimize(&f, &[x0, x1], 80);
            // The reported best value matches the minimum of the trace.
            let trace_best = r.trace.best().unwrap();
            prop_assert!((r.best_value - trace_best).abs() < 1e-9,
                "{}: best_value {} != trace best {}", opt.name(), r.best_value, trace_best);
            // The reported point actually evaluates to the reported value.
            prop_assert!((f(&r.best_point) - r.best_value).abs() < 1e-9,
                "{}: point/value mismatch", opt.name());
        }
    }

    #[test]
    fn optimizers_respect_budget(x0 in -1.0f64..1.0, budget in 5usize..60) {
        let f = |x: &[f64]| x[0].powi(2);
        for opt in optimizers() {
            let r = opt.minimize(&f, &[x0], budget);
            // Allow a small overshoot for optimizers that finish their
            // current iteration (documented in the trait).
            prop_assert!(r.evaluations <= budget + 4,
                "{} used {} evaluations with budget {}", opt.name(), r.evaluations, budget);
        }
    }

    /// Interrupting a run after `k` evaluations and finishing later must be
    /// bit-identical regardless of whether the interrupted leg was driven
    /// through the batch protocol or the scalar one (ISSUE 6, satellite 3).
    #[test]
    fn resume_after_batched_leg_is_bitwise_identical_to_scalar_leg(
        x0 in -2.0f64..2.0,
        x1 in -2.0f64..2.0,
        k in 1usize..40,
        budget in 40usize..90,
    ) {
        let f = move |x: &[f64]| (x[0] - 0.7).powi(2) + (x[1] + 0.3).powi(2) + (x[0] * x[1]).cos();
        let mut batch_f = |points: &[Vec<f64>]| points.iter().map(|p| f(p)).collect::<Vec<f64>>();
        for opt in optimizers() {
            // Reference: scalar leg to k, then scalar to budget.
            let mut scalar_state = opt.start(&[x0, x1], budget);
            opt.resume_until(&mut scalar_state, &f, k);
            let scalar = opt.resume_until(&mut scalar_state, &f, budget);

            // Batched leg to k, then scalar to budget.
            let mut state = opt.start(&[x0, x1], budget);
            opt.resume_until_batched(&mut state, &mut batch_f, &f, k);
            let mixed = opt.resume_until(&mut state, &f, budget);

            prop_assert_eq!(&scalar.best_point, &mixed.best_point, "{}: best point", opt.name());
            prop_assert_eq!(scalar.best_value.to_bits(), mixed.best_value.to_bits(),
                "{}: best value", opt.name());
            prop_assert_eq!(scalar.evaluations, mixed.evaluations,
                "{}: evaluation count", opt.name());
            let (sp, mp) = (scalar.trace.points(), mixed.trace.points());
            prop_assert_eq!(sp.len(), mp.len(), "{}: trace length", opt.name());
            for (a, b) in sp.iter().zip(mp) {
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits(),
                    "{}: trace value", opt.name());
            }
        }
    }

    /// The documented step bound holds for every optimizer, every target
    /// sequence and both drivers: a call never stops more than one atomic
    /// step past its target.
    #[test]
    fn evaluations_never_pass_the_target_by_more_than_one_atomic_step(
        initial in proptest::collection::vec(-2.0f64..2.0, 0..5),
        targets in proptest::collection::vec(0usize..90, 1..6),
        batched in any::<bool>(),
    ) {
        // A cusp at the minimum makes Nelder–Mead fall through to its
        // shrink step, the largest one, now and then.
        let f = |x: &[f64]| {
            x.iter().enumerate().map(|(i, v)| (v - 0.3 * i as f64).abs().sqrt()).sum::<f64>()
        };
        let n = initial.len();
        let budget = targets.iter().copied().max().unwrap_or(0);
        for opt in optimizers() {
            let bound = max_overshoot(opt.name(), n);
            let mut state = opt.start(&initial, budget);
            // The random targets, then one-evaluation rungs, which start
            // every later step exactly one evaluation below its target.
            let unit_rungs = (0..60).map(|_| None);
            for target in targets.iter().map(|&t| Some(t)).chain(unit_rungs) {
                let before = state.evaluations();
                let target = target.unwrap_or(before + 1);
                advance(opt.as_ref(), &mut state, &f, target, batched);
                let after = state.evaluations();
                prop_assert!(after <= before.max(target + bound),
                    "{}: {after} evaluations at target {target} (n = {n}, bound {bound}, \
                     batched {batched})", opt.name());
            }
            let r = opt.minimize(&f, &initial, budget);
            prop_assert!(r.evaluations <= budget.max(1) + bound,
                "{}: minimize spent {} of {budget} (n = {n})", opt.name(), r.evaluations);
        }
    }

    #[test]
    fn best_curve_is_monotone_nonincreasing(x0 in -2.0f64..2.0) {
        let f = |x: &[f64]| x[0].sin() + 0.3 * x[0] * x[0];
        for opt in optimizers() {
            let r = opt.minimize(&f, &[x0], 60);
            let curve = r.trace.best_curve();
            for w in curve.windows(2) {
                prop_assert!(w[1] <= w[0] + 1e-12, "{}: best curve increased", opt.name());
            }
        }
    }
}
