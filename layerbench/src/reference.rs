//! Output checks made apart from the program.
//!
//! The winner of a search is re-evaluated gate by gate
//! (`Backend::StateVector.expectation`, which simulates through
//! `StateVector::from_circuit` — neither the compiled fast path nor the
//! tensor network), each graph's Max-Cut optimum is enumerated here rather
//! than taken from the program, and the reported ratios and evaluation
//! counts are recomputed from those.

use crate::RunResult;
use graphs::{Graph, Problem};
use qaoa::ansatz::QaoaAnsatz;
use qaoa::mixer::Mixer;
use qaoa::Backend;
use qarchsearch::search::SearchOutcome;

/// Relative agreement demanded between the reported energy and the
/// gate-by-gate re-evaluation.
const ENERGY_RTOL: f64 = 1e-9;
/// Relative agreement demanded of quantities the program derives from the
/// energies by plain arithmetic (means, ratios).
const ARITH_RTOL: f64 = 1e-12;

fn close(a: f64, b: f64, rtol: f64) -> bool {
    (a - b).abs() <= rtol * b.abs().max(1e-300)
}

/// The Max-Cut optimum of `graph`, by enumerating every assignment with
/// the last node pinned to one side (a cut and its complement are equal).
pub fn maxcut_optimum(graph: &Graph) -> f64 {
    let n = graph.num_nodes();
    let edges: Vec<(usize, usize, f64)> =
        graph.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
    let mut best = 0.0f64;
    for mask in 0u64..(1u64 << (n - 1)) {
        let cut: f64 = edges
            .iter()
            .filter(|(u, v, _)| ((mask >> u) ^ (mask >> v)) & 1 == 1)
            .map(|(_, _, w)| w)
            .sum();
        best = best.max(cut);
    }
    best
}

/// ⟨C⟩ of the Max-Cut QAOA circuit with the given mixer and angles,
/// simulated gate by gate.
pub fn reference_energy(
    graph: &Graph,
    gates: &[qcircuit::Gate],
    gammas: &[f64],
    betas: &[f64],
) -> Result<f64, String> {
    let problem = Problem::max_cut(graph);
    let mixer = Mixer::new(gates.to_vec()).map_err(|e| e.to_string())?;
    let ansatz =
        QaoaAnsatz::for_problem(&problem, gammas.len(), mixer).map_err(|e| e.to_string())?;
    let circuit = ansatz.bind(gammas, betas).map_err(|e| e.to_string())?;
    Backend::StateVector
        .expectation(&circuit, &problem)
        .map_err(|e| e.to_string())
}

/// Check one search outcome against `optima` (this module's enumeration
/// for each graph, in order) and the configured per-candidate budget.
pub fn check_outcome(
    label: &str,
    outcome: &SearchOutcome,
    graphs: &[Graph],
    optima: &[f64],
    budget: usize,
    result: &mut RunResult,
) {
    let best = &outcome.best;
    for depth in &outcome.depth_results {
        for cand in &depth.candidates {
            for (g, trained) in cand.per_graph.iter().enumerate() {
                if trained.evaluations > budget {
                    // COBYLA's multi-evaluation steps can run past the
                    // budget on some inputs; counted, not failed (README).
                    result.budget_overruns += 1;
                    println!(
                        "budget overrun: {label}: candidate {} at depth {} spent {} evaluations on graph {g}, budget {budget}",
                        cand.mixer_label, cand.depth, trained.evaluations
                    );
                }
            }
        }
    }
    let winner = outcome
        .depth_results
        .iter()
        .filter(|d| d.depth == best.depth)
        .flat_map(|d| &d.candidates)
        .find(|c| c.mixer_label == best.mixer_label && c.mean_energy == best.energy);
    let Some(winner) = winner else {
        result.problems.push(format!(
            "{label}: winner {} at depth {} is not among the evaluated candidates",
            best.mixer_label, best.depth
        ));
        return;
    };
    if winner.per_graph.len() != graphs.len() {
        result.problems.push(format!(
            "{label}: winner trained on {} graphs, dataset has {}",
            winner.per_graph.len(),
            graphs.len()
        ));
        return;
    }
    let mut ratio_sum = 0.0;
    let mut energy_sum = 0.0;
    for (g, (trained, graph)) in winner.per_graph.iter().zip(graphs).enumerate() {
        let optimum = optima[g];
        result.check(trained.classical_optimum == optimum, || {
            format!(
                "{label}: graph {g} reports Max-Cut optimum {} but enumeration gives {optimum}",
                trained.classical_optimum
            )
        });
        match reference_energy(graph, &best.gates, &trained.gammas, &trained.betas) {
            Ok(energy) => result.check(close(trained.energy, energy, ENERGY_RTOL), || {
                format!(
                    "{label}: graph {g} reports energy {} but the gate-by-gate re-evaluation gives {energy}",
                    trained.energy
                )
            }),
            Err(e) => result
                .problems
                .push(format!("{label}: graph {g} re-evaluation failed: {e}")),
        }
        let ratio = trained.energy / optimum;
        result.check(close(trained.approx_ratio, ratio, ARITH_RTOL), || {
            format!(
                "{label}: graph {g} ratio {} is not energy / optimum = {ratio}",
                trained.approx_ratio
            )
        });
        ratio_sum += ratio;
        energy_sum += trained.energy;
    }
    let count = graphs.len() as f64;
    result.check(close(best.energy, energy_sum / count, ARITH_RTOL), || {
        format!(
            "{label}: best energy {} is not the mean over graphs {}",
            best.energy,
            energy_sum / count
        )
    });
    result.check(
        close(best.approx_ratio, ratio_sum / count, ARITH_RTOL),
        || {
            format!(
                "{label}: best_approx_ratio {} is not mean(energy / optimum) = {}",
                best.approx_ratio,
                ratio_sum / count
            )
        },
    );
    result.check(best.approx_ratio > 0.0 && best.approx_ratio <= 1.0, || {
        format!(
            "{label}: best_approx_ratio {} lies outside (0, 1]",
            best.approx_ratio
        )
    });
}

/// The outcome with every wall-clock field and the worker count cleared,
/// rendered to JSON with every float at full precision: two outcomes with
/// equal renderings are bitwise identical.
pub fn identity(outcome: &SearchOutcome) -> String {
    let mut o = outcome.clone();
    o.total_elapsed_seconds = 0.0;
    o.parallel_threads = None;
    for d in &mut o.depth_results {
        d.elapsed_seconds = 0.0;
    }
    serde_json::to_string(&o).expect("search outcome serializes")
}
