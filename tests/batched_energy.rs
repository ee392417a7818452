//! Differential suite for batched multi-parameter energy evaluation
//! (ISSUE 6 tentpole).
//!
//! The batched statevector sweep is an optimization, not a semantic change:
//! every test here pins **bitwise** equality between the batch path and the
//! sequential reference it amortizes —
//!
//! 1. `CompiledEnergy::energy_batch_in` ≡ one `energy_flat_in` per point,
//!    as exact `f64` bit patterns, for batch sizes 1, 2, 7 and 64, for every
//!    shipped problem family;
//! 2. training through the optimizer batch-step protocol
//!    (`TrainingSession::advance_batched_in`) ≡ the optimizer's own scalar
//!    `start`/`resume_until` driven directly over the negated compiled
//!    energy, for all five bundled optimizers, including interrupted and
//!    mixed rung sequences;
//! 3. the full search pipeline (which now routes through the batch path)
//!    stays thread-count-deterministic — the pinned byte-exact searches in
//!    `tests/problems.rs` complete this claim against pre-batching captures.

use qarchsearch_suite::optim::OptimizationResult;
use qarchsearch_suite::prelude::*;
use qarchsearch_suite::qaoa::energy::TrainedCircuit;

const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// Deterministic parameter points spread over the QAOA angle range.
fn points(count: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..dim)
                .map(|j| 0.11 + 0.37 * (i as f64) - 0.23 * (j as f64) + 0.013 * (i * j) as f64)
                .map(|x| (x % 3.0) - 1.5)
                .collect()
        })
        .collect()
}

#[test]
fn energy_batch_in_matches_energy_flat_in_bitwise_for_every_problem() {
    let graph = Graph::erdos_renyi(7, 0.5, 41);
    for kind in ProblemKind::all(41) {
        let problem = kind.instantiate(&graph);
        let eval =
            EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector).unwrap();
        let ansatz = QaoaAnsatz::for_problem(&problem, 2, Mixer::qnas()).unwrap();
        let compiled = eval.compile(&ansatz).unwrap();
        let mut scratch = BatchScratch::new();
        let mut state = StateVector::zero_state(compiled.num_qubits()).unwrap();
        for batch in BATCH_SIZES {
            let pts = points(batch, 4);
            let batched = compiled.energy_batch_in(&pts, &mut scratch).unwrap();
            assert_eq!(batched.len(), batch, "{}", problem.name());
            for (p, &e) in pts.iter().zip(&batched) {
                let scalar = compiled.energy_flat_in(p, &mut state).unwrap();
                assert_eq!(
                    e.to_bits(),
                    scalar.to_bits(),
                    "{} B={batch}: batched {e} vs sequential {scalar} at {p:?}",
                    problem.name()
                );
            }
        }
    }
}

#[test]
fn energy_batch_internal_and_external_scratch_agree_bitwise() {
    let graph = Graph::erdos_renyi(6, 0.5, 17);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
    let compiled = eval.compile(&ansatz).unwrap();
    let mut scratch = BatchScratch::new();
    for batch in BATCH_SIZES {
        let pts = points(batch, 4);
        let external = compiled.energy_batch_in(&pts, &mut scratch).unwrap();
        let internal = compiled.energy_batch(&pts).unwrap();
        for (a, b) in external.iter().zip(&internal) {
            assert_eq!(a.to_bits(), b.to_bits(), "B={batch}");
        }
    }
}

/// The independent scalar reference: the optimizer's own `start` +
/// `resume_until`, called back one point at a time with the negated
/// compiled energy. Returns the result after each target in turn.
fn scalar_reference(
    compiled: &CompiledEnergy,
    opt: &dyn Optimizer,
    initial: &[f64],
    budget: usize,
    targets: &[usize],
) -> Vec<OptimizationResult> {
    let objective = |p: &[f64]| -compiled.energy_flat(p).unwrap();
    let mut state = opt.start(initial, budget);
    targets
        .iter()
        .map(|&t| opt.resume_until(&mut state, &objective, t))
        .collect()
}

/// Bitwise comparison of a trained session snapshot with an optimizer
/// result over the negated energy.
fn assert_trained_matches(trained: &TrainedCircuit, reference: &OptimizationResult, ctx: &str) {
    let p = trained.gammas.len();
    assert_eq!(
        trained.energy.to_bits(),
        (-reference.best_value).to_bits(),
        "{ctx}: energy"
    );
    assert_eq!(trained.gammas, reference.best_point[..p], "{ctx}: gammas");
    assert_eq!(trained.betas, reference.best_point[p..], "{ctx}: betas");
    assert_eq!(
        trained.evaluations, reference.evaluations,
        "{ctx}: evaluations"
    );
}

/// One training rung per optimizer through the batch protocol vs the scalar
/// protocol: identical energies, angles and evaluation counts to the bit.
#[test]
fn batched_training_is_bit_identical_for_all_five_optimizers() {
    let graph = Graph::erdos_renyi(7, 0.5, 23);
    for kind in [
        ProblemKind::MaxCut,
        ProblemKind::MaxIndependentSet { penalty: 2.0 },
    ] {
        let problem = kind.instantiate(&graph);
        let eval =
            EnergyEvaluator::for_problem(&graph, problem.clone(), Backend::StateVector).unwrap();
        let ansatz = QaoaAnsatz::for_problem(&problem, 2, Mixer::qnas()).unwrap();
        let compiled = eval.compile(&ansatz).unwrap();
        let initial = ansatz.default_initial_flat();
        for opt_kind in OptimizerKind::all() {
            let opt = opt_kind.build();
            let reference = scalar_reference(&compiled, &*opt, &initial, 80, &[80]);
            let a = &reference[0];

            let mut batched = eval.begin_training(&ansatz, &*opt, None, 80).unwrap();
            let mut scratch = BatchScratch::new();
            let b = batched
                .advance_batched_in(&*opt, 80, Some(&mut scratch))
                .unwrap();

            let ctx = format!("{} with {opt_kind}", problem.name());
            assert_trained_matches(&b, a, &ctx);
            assert_eq!(
                eval.approx_ratio(-a.best_value).to_bits(),
                b.approx_ratio.to_bits(),
                "{ctx}: ratio"
            );
        }
    }
}

/// Interrupted runs stay interchangeable: a session advanced in batched
/// rungs — with internal or per-worker scratch, in any mix — lands on the
/// same bits as the scalar reference at every rung, and the raw optimizer
/// state driven through any mix of batched and scalar legs over the same
/// compiled energy does too.
#[test]
fn mixed_batched_and_scalar_rungs_are_bit_identical() {
    const RUNGS: [usize; 3] = [25, 60, 90];
    let graph = Graph::erdos_renyi(7, 0.5, 29);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
    let compiled = eval.compile(&ansatz).unwrap();
    let initial = ansatz.default_initial_flat();
    let scalar = |p: &[f64]| -compiled.energy_flat(p).unwrap();
    let mut batch = |points: &[Vec<f64>]| -> Vec<f64> {
        let energies = compiled.energy_batch(points).unwrap();
        energies.into_iter().map(|e| -e).collect()
    };
    for opt_kind in OptimizerKind::all() {
        let opt = opt_kind.build();
        let reference = scalar_reference(&compiled, &*opt, &initial, 90, &RUNGS);

        // Session rungs: internal scratch → per-worker scratch → internal.
        let mut session = eval.begin_training(&ansatz, &*opt, None, 90).unwrap();
        let mut scratch = BatchScratch::new();
        let rungs = [
            session.advance_batched(&*opt, RUNGS[0]).unwrap(),
            session
                .advance_batched_in(&*opt, RUNGS[1], Some(&mut scratch))
                .unwrap(),
            session.advance_batched(&*opt, RUNGS[2]).unwrap(),
        ];
        for ((trained, r), target) in rungs.iter().zip(&reference).zip(RUNGS) {
            assert_trained_matches(trained, r, &format!("{opt_kind} session rung {target}"));
        }

        // Raw optimizer legs: batched → scalar → batched, and
        // scalar → batched → scalar.
        for batched_first in [true, false] {
            let mut state = opt.start(&initial, 90);
            let mut last = None;
            for (i, &target) in RUNGS.iter().enumerate() {
                last = Some(if (i % 2 == 0) == batched_first {
                    opt.resume_until_batched(&mut state, &mut batch, &scalar, target)
                } else {
                    opt.resume_until(&mut state, &scalar, target)
                });
            }
            let last = last.unwrap();
            let r = &reference[2];
            let ctx = format!("{opt_kind} mixed legs (batched first: {batched_first})");
            assert_eq!(last.best_value.to_bits(), r.best_value.to_bits(), "{ctx}");
            assert_eq!(last.best_point, r.best_point, "{ctx}");
            assert_eq!(last.evaluations, r.evaluations, "{ctx}");
        }
    }
}

/// The batched pipeline is thread-count-deterministic end to end, for a
/// batching-friendly optimizer (SPSA proposes ± probe pairs every step).
#[test]
fn batched_pipeline_search_is_thread_count_deterministic() {
    let dataset = qarchsearch_suite::graphs::datasets::erdos_renyi_dataset(2, 7, 301);
    let cfg = SearchConfig::builder()
        .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).unwrap())
        .max_depth(2)
        .max_gates_per_mixer(2)
        .optimizer_budget(40)
        .backend(Backend::StateVector)
        .optimizer(OptimizerKind::Spsa)
        .halving(10, 2)
        .seed(301)
        .build();
    let one = SearchDriver::new(SearchConfig {
        threads: Some(1),
        ..cfg.clone()
    })
    .run(&dataset)
    .unwrap();
    let four = SearchDriver::new(SearchConfig {
        threads: Some(4),
        ..cfg
    })
    .run(&dataset)
    .unwrap();
    assert_eq!(one.best.energy.to_bits(), four.best.energy.to_bits());
    assert_eq!(one.best.mixer_label, four.best.mixer_label);
    assert_eq!(
        one.total_optimizer_evaluations,
        four.total_optimizer_evaluations
    );
    for (da, db) in one.depth_results.iter().zip(&four.depth_results) {
        for (ca, cb) in da.candidates.iter().zip(&db.candidates) {
            assert_eq!(ca.mixer_label, cb.mixer_label);
            assert_eq!(
                ca.mean_energy.to_bits(),
                cb.mean_energy.to_bits(),
                "{} at depth {}",
                ca.mixer_label,
                da.depth
            );
        }
    }
}
