//! The three search workloads, their output checks, and the probes of the
//! search-side layers (graphs, statevec, tensornet, qaoa, optim, evaluator,
//! session pipeline, work stealing).

use crate::reference::{self, check_outcome};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::{serve, Args, RunResult};
use graphs::{Graph, Problem};
use optim::{CobylaOptimizer, OptimizerKind};
use qaoa::ansatz::QaoaAnsatz;
use qaoa::energy::EnergyEvaluator;
use qaoa::mixer::Mixer;
use qaoa::{Backend, BatchScratch};
use qarchsearch::search::{SearchConfig, SearchOutcome};
use qarchsearch::{EnergyCache, GateAlphabet, SearchDriver, SearchEvent};
use std::hint::black_box;
use std::time::Instant;
use tensornet::lightcone::LightCone;
use tensornet::TensorNetwork;

#[derive(Debug, Clone, Copy)]
pub enum Dataset {
    /// `graphs::datasets::erdos_renyi_dataset` (edge probability swept
    /// 0.3 → 0.7 across the dataset).
    ErdosRenyi,
    /// `graphs::datasets::random_regular_dataset` with degree 3.
    Regular3,
}

/// One search workload: a dataset recipe and a search configuration.
#[derive(Debug, Clone)]
pub struct SearchWorkload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub nodes: usize,
    pub graphs: usize,
    pub alphabet: Vec<&'static str>,
    pub kmax: usize,
    pub pmax: usize,
    pub budget: usize,
    pub backend: Backend,
    /// Paper-faithful Algorithm 1: serial engine, full budget, no pruning.
    pub paper_serial: bool,
    /// Pipeline workers (ignored by the serial engine).
    pub workers: usize,
}

pub fn workload(name: &str) -> Option<SearchWorkload> {
    let w = match name {
        // Kernel-bound: every evaluation is a few passes over 2^16
        // amplitudes, and the classical bracket enumerates 2^16 states.
        "search_sv16" => SearchWorkload {
            name: "search_sv16",
            dataset: Dataset::ErdosRenyi,
            nodes: 16,
            graphs: 2,
            alphabet: vec!["rx", "ry"],
            kmax: 1,
            pmax: 3,
            budget: 60,
            backend: Backend::StateVector,
            paper_serial: false,
            workers: 2,
        },
        // Overhead-bound: a 10-qubit evaluation costs tens of µs, so
        // COBYLA steps, session bookkeeping, per-candidate compile and
        // rung scheduling take most of the time.
        "search_sv10" => SearchWorkload {
            name: "search_sv10",
            dataset: Dataset::ErdosRenyi,
            nodes: 10,
            graphs: 4,
            alphabet: vec!["rx", "ry", "rz", "h"],
            kmax: 3,
            pmax: 3,
            budget: 200,
            backend: Backend::StateVector,
            paper_serial: false,
            workers: 2,
        },
        // Tensor-network-bound, on the serial engine the paper describes.
        "search_tn_paper" => SearchWorkload {
            name: "search_tn_paper",
            dataset: Dataset::Regular3,
            nodes: 10,
            graphs: 8,
            alphabet: vec!["rx", "ry"],
            kmax: 1,
            pmax: 1,
            budget: 200,
            backend: Backend::TensorNetwork,
            paper_serial: true,
            workers: 2,
        },
        _ => return None,
    };
    Some(w)
}

impl SearchWorkload {
    pub fn dataset(&self, seed: u64) -> Vec<Graph> {
        match self.dataset {
            Dataset::ErdosRenyi => {
                graphs::datasets::erdos_renyi_dataset(self.graphs, self.nodes, seed)
            }
            Dataset::Regular3 => {
                graphs::datasets::random_regular_dataset(self.graphs, self.nodes, 3, seed)
            }
        }
    }

    pub fn config(&self, seed: u64, workers: usize) -> SearchConfig {
        let alphabet = GateAlphabet::from_mnemonics(&self.alphabet).expect("known gate mnemonics");
        let builder = SearchConfig::builder()
            .alphabet(alphabet)
            .max_depth(self.pmax)
            .max_gates_per_mixer(self.kmax)
            .optimizer_budget(self.budget)
            .backend(self.backend)
            .optimizer(OptimizerKind::Cobyla)
            .seed(seed)
            .threads(workers);
        if self.paper_serial {
            builder.serial().no_prune().build()
        } else {
            builder.build()
        }
    }

    pub fn describe(&self, seed: u64) -> String {
        format!(
            "{} dataset={:?} graphs={} nodes={} alphabet={} kmax={} pmax={} budget={} backend={} optimizer=cobyla engine={} workers={} dataset_seed={seed} search_seed={seed}",
            self.name,
            self.dataset,
            self.graphs,
            self.nodes,
            self.alphabet.join(","),
            self.kmax,
            self.pmax,
            self.budget,
            self.backend,
            if self.paper_serial {
                "serial-full-budget"
            } else {
                "pipeline(prune,warm-start)"
            },
            self.workers,
        )
    }
}

/// Set-up of a search: generating its dataset, timed as the median of a
/// short burst so that one preemption does not count. Returns the seconds
/// per generation and the graphs.
fn setup(w: &SearchWorkload, seed: u64) -> (f64, Vec<Graph>) {
    let mut times = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        graphs = black_box(w.dataset(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), graphs)
}

/// One timed search session on fresh evaluator state, traced when a
/// tracer is given.
pub struct Search {
    pub seconds: f64,
    pub outcome: SearchOutcome,
    /// `reference::identity` of the outcome.
    pub identity: String,
    pub memo: qarchsearch::evaluator::EnergyCacheStats,
}

pub fn search_once(
    config: &SearchConfig,
    graphs: &[Graph],
    tracer: Option<&Tracer>,
    request: u64,
    result: &mut RunResult,
) -> Result<Search, String> {
    let cache = EnergyCache::unbounded();
    let driver = SearchDriver::new(config.clone()).with_energy_cache(cache.clone());
    result.attempted += 1;
    let t = Instant::now();
    let outcome = match tracer {
        None => driver.run(graphs),
        Some(tracer) => traced_search(&driver, graphs, tracer, request),
    };
    let seconds = t.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| {
        result.failed += 1;
        format!("search failed: {e}")
    })?;
    Ok(Search {
        seconds,
        identity: reference::identity(&outcome),
        outcome,
        memo: cache.stats(),
    })
}

fn depth_span(depth: usize) -> &'static str {
    match depth {
        1 => "pipeline.depth1",
        2 => "pipeline.depth2",
        3 => "pipeline.depth3",
        _ => "pipeline.depth",
    }
}

/// One search session with a span around it and child spans per depth and
/// per halving rung, timed by the arrival of the session's events.
fn traced_search(
    driver: &SearchDriver,
    graphs: &[Graph],
    tracer: &Tracer,
    request: u64,
) -> Result<SearchOutcome, qarchsearch::SearchError> {
    tracer.span("search.session", None, request, |root| {
        let handle = driver.start(graphs)?;
        let mut depth_start = Instant::now();
        let mut rung_start = Instant::now();
        while let Some(event) = handle.next_event() {
            let now = Instant::now();
            match &event {
                SearchEvent::DepthStarted { .. } => {
                    depth_start = now;
                    rung_start = now;
                }
                SearchEvent::RungCompleted { .. } => {
                    tracer.record("pipeline.rung", Some(root), request, rung_start, now);
                    rung_start = now;
                }
                SearchEvent::DepthCompleted { depth, .. } => {
                    tracer.record(depth_span(*depth), Some(root), request, depth_start, now);
                }
                _ => {}
            }
            if event.is_terminal() {
                break;
            }
        }
        handle.wait()
    })
}

pub fn run(w: &SearchWorkload, args: &Args, tracer: &Tracer) -> Result<RunResult, String> {
    let mut result = RunResult {
        config: w.describe(args.seed),
        ..RunResult::default()
    };
    let (setup_first, graphs) = setup(w, args.seed);
    let config = w.config(args.seed, w.workers);

    if !args.trace {
        // Whole searches back to back on the same inputs, each after its
        // own set-up; every repetition must be bitwise identical to the
        // first. The set-up samples are spread over the run, and their
        // mean is reported: each is too short to span the machine's
        // changes of speed, so a median would jump between them.
        let start = Instant::now();
        let mut setups = vec![setup_first];
        let mut times = Vec::new();
        let first = search_once(&config, &graphs, None, 0, &mut result)?;
        times.push(first.seconds);
        while start.elapsed().as_secs_f64() < args.seconds {
            let (setup_s, graphs) = setup(w, args.seed);
            setups.push(setup_s);
            let again = search_once(&config, &graphs, None, 0, &mut result)?;
            result.check(again.identity == first.identity, || {
                format!(
                    "repetition {} of the search differs from the first",
                    times.len()
                )
            });
            times.push(again.seconds);
        }
        let setup_s = setups.iter().sum::<f64>() / setups.len() as f64;
        let wall = start.elapsed().as_secs_f64();
        let outcome = &first.outcome;
        let search_s = median(&times);
        result.metric("search_s", search_s, "s");
        result.metric(
            "evals_per_s",
            outcome.total_optimizer_evaluations as f64 / search_s,
            "1/s",
        );
        result.metric("best_approx_ratio", outcome.best.approx_ratio, "ratio");
        result.metric("jobs_per_s", times.len() as f64 / wall, "1/s");
        result.metric("job_latency_p50_ms", search_s * 1e3, "ms");
        // A tail needs ten samples beyond it; with fewer than forty
        // searches in a run the median stands in for the p90.
        let p90 = if times.len() >= 40 {
            percentile(&times, 0.9)
        } else {
            search_s
        };
        result.metric("job_latency_p90_ms", p90 * 1e3, "ms");
        result.metric("setup_s", setup_s, "s");
        result.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
        check_phase(w, outcome, &graphs, &mut result);
        return Ok(result);
    }

    // Traced run: untraced and traced searches alternate for half the run
    // length (the layer probes below take the rest), then one search runs
    // at a single worker; all of them must agree bitwise.
    let start = Instant::now();
    let first = search_once(&config, &graphs, None, 0, &mut result)?;
    let mut plain = vec![first.seconds];
    let mut traced = Vec::new();
    let mut request = 1;
    let memo = loop {
        let s = search_once(&config, &graphs, Some(tracer), request, &mut result)?;
        result.check(s.identity == first.identity, || {
            "the traced search differs from the untraced one".to_string()
        });
        traced.push(s.seconds);
        request += 1;
        if start.elapsed().as_secs_f64() >= args.seconds / 2.0 {
            break s.memo;
        }
        let s = search_once(&config, &graphs, None, request, &mut result)?;
        result.check(s.identity == first.identity, || {
            "an untraced repetition differs from the first search".to_string()
        });
        plain.push(s.seconds);
        request += 1;
    };
    let single = search_once(&w.config(args.seed, 1), &graphs, None, request, &mut result)?;
    result.check(single.identity == first.identity, || {
        "the 1-worker search differs from the 2-worker one".to_string()
    });
    check_phase(w, &first.outcome, &graphs, &mut result);

    let search_s = median(&plain);
    let workers = if w.paper_serial { 1 } else { w.workers };
    let layers = search_layer_probes(&config, &graphs, &first.outcome, tracer, &mut result)?;
    pipeline_metrics(
        &first.outcome,
        &memo,
        tracer,
        &layers,
        graphs.len(),
        workers,
        search_s,
        &mut result,
    );
    result.metric(
        "worksteal.scaling_efficiency",
        single.seconds / (2.0 * search_s),
        "ratio",
    );
    result.metric(
        "trace.overhead_pct",
        (median(&traced) / search_s - 1.0) * 100.0,
        "%",
    );
    serve::serve_layer_probes(args, tracer, serve::PROBE_LOAD_JOBS, &mut result)?;
    Ok(result)
}

fn check_phase(
    w: &SearchWorkload,
    outcome: &SearchOutcome,
    graphs: &[Graph],
    result: &mut RunResult,
) {
    let optima: Vec<f64> = graphs.iter().map(reference::maxcut_optimum).collect();
    check_outcome(w.name, outcome, graphs, &optima, w.budget, result);
}

/// Per-call costs measured by the search-side layer probes (seconds).
pub struct LayerCosts {
    pub classical: f64,
    pub diag: f64,
    pub compile: f64,
    pub batch_eval: f64,
}

fn spans_median(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.seconds_of(name))
}

/// Time each search-side layer's public entry points on the workload's
/// own inputs and the winning architecture of `outcome`.
pub fn search_layer_probes(
    config: &SearchConfig,
    graphs: &[Graph],
    outcome: &SearchOutcome,
    tracer: &Tracer,
    result: &mut RunResult,
) -> Result<LayerCosts, String> {
    let err = |e: qaoa::QaoaError| e.to_string();
    let problems: Vec<Problem> = graphs.iter().map(Problem::max_cut).collect();
    let rounds = 5usize.div_ceil(graphs.len()).max(2);
    tracer.span("probe.graphs", None, 0, |parent| {
        for _ in 0..rounds {
            for problem in &problems {
                tracer.span("graphs.classical_solution", Some(parent), 0, |_| {
                    black_box(problem.classical_solution())
                });
            }
        }
    });
    tracer.span("probe.statevec.diag", None, 0, |parent| {
        for _ in 0..rounds {
            for problem in &problems {
                tracer.span("statevec.problem_diagonal", Some(parent), 0, |_| {
                    black_box(statevec::expectation::problem_diagonal(problem))
                });
            }
        }
    });

    let graph = &graphs[0];
    let problem = &problems[0];
    let sv =
        EnergyEvaluator::for_problem(graph, problem.clone(), Backend::StateVector).map_err(err)?;
    let best = &outcome.best;
    let winner_ansatz = QaoaAnsatz::for_problem(
        problem,
        best.depth,
        Mixer::new(best.gates.clone()).map_err(err)?,
    )
    .map_err(err)?;
    // Warm the evaluator's lazily built diagonal before timing compiles.
    let compiled = sv.compile(&winner_ansatz).map_err(err)?;

    let candidates = config
        .alphabet
        .all_combinations_up_to(config.max_gates_per_mixer);
    tracer.span(
        "probe.statevec.compile",
        None,
        0,
        |parent| -> Result<(), String> {
            for depth in 1..=config.max_depth {
                for gates in &candidates {
                    let ansatz = QaoaAnsatz::for_problem(
                        problem,
                        depth,
                        Mixer::new(gates.clone()).map_err(err)?,
                    )
                    .map_err(err)?;
                    tracer.span("statevec.compile", Some(parent), 0, |_| {
                        sv.compile(&ansatz).map(black_box).map_err(err)
                    })?;
                }
            }
            Ok(())
        },
    )?;

    let winner = outcome
        .depth_results
        .iter()
        .filter(|d| d.depth == best.depth)
        .flat_map(|d| &d.candidates)
        .find(|c| c.mixer_label == best.mixer_label)
        .ok_or("the winner is not among the evaluated candidates")?;
    let trained = &winner.per_graph[0];
    let params: Vec<f64> = trained
        .gammas
        .iter()
        .chain(&trained.betas)
        .copied()
        .collect();
    // Training and bare evaluations alternate, so that `optim.step_us`
    // (their difference) compares calls made at the same machine speed.
    let first = Instant::now();
    compiled.energy_flat(&params).map_err(err)?;
    let reps = ((0.1 / first.elapsed().as_secs_f64().max(1e-7)) as usize).clamp(5, 1500);
    let budget = config.evaluator.budget;
    let mut evals_to_stop = 0usize;
    tracer.span(
        "probe.qaoa.train",
        None,
        0,
        |parent| -> Result<(), String> {
            for _ in 0..3 {
                let trained = tracer.span("qaoa.train", Some(parent), 0, |_| {
                    sv.train(&winner_ansatz, &CobylaOptimizer::default(), budget)
                        .map_err(err)
                })?;
                evals_to_stop = trained.evaluations;
                for _ in 0..reps {
                    tracer.span("statevec.energy_flat", Some(parent), 0, |_| {
                        compiled.energy_flat(black_box(&params)).map_err(err)
                    })?;
                }
            }
            Ok(())
        },
    )?;
    let n = graph.num_nodes();
    let tile = statevec::preferred_batch_tile(n, 32);
    let points: Vec<Vec<f64>> = (0..tile)
        .map(|i| params.iter().map(|p| p + 1e-3 * i as f64).collect())
        .collect();
    let mut scratch = BatchScratch::new();
    compiled
        .energy_batch_in(&points, &mut scratch)
        .map_err(err)?;
    let batch_reps = (3 * reps / tile).clamp(5, 1000);
    tracer.span(
        "probe.statevec.batch",
        None,
        0,
        |parent| -> Result<(), String> {
            for _ in 0..batch_reps {
                tracer.span("statevec.energy_batch", Some(parent), 0, |_| {
                    compiled
                        .energy_batch_in(black_box(&points), &mut scratch)
                        .map_err(err)
                })?;
            }
            Ok(())
        },
    )?;
    let ops = compiled.program().num_ops() as f64;

    let circuit = winner_ansatz
        .bind(&trained.gammas, &trained.betas)
        .map_err(err)?;
    // Five calls, or one where a call takes seconds (wide light cones of
    // dense 16-node graphs at depth 3).
    tracer.span("probe.tensornet", None, 0, |parent| -> Result<(), String> {
        let start = Instant::now();
        for _ in 0..5 {
            tracer.span("tensornet.expectation", Some(parent), 0, |_| {
                Backend::TensorNetwork
                    .expectation(&circuit, problem)
                    .map(black_box)
                    .map_err(err)
            })?;
            if start.elapsed().as_secs_f64() > 0.5 {
                break;
            }
        }
        Ok(())
    })?;
    let term = problem
        .terms()
        .first()
        .ok_or("the problem has no cost term")?;
    let cone = LightCone::of(&circuit, term.qubits());
    let observables: Vec<(usize, [f64; 2])> = term
        .qubits()
        .iter()
        .map(|&q| {
            (
                cone.relabelled(q).expect("target lies in its own cone"),
                [1.0, -1.0],
            )
        })
        .collect();
    let (_, contraction) = TensorNetwork::for_diagonal_expectation(&cone.circuit, &observables)
        .and_then(|net| net.contract_with_stats())
        .map_err(|e| e.to_string())?;

    let costs = LayerCosts {
        classical: spans_median(tracer, "graphs.classical_solution"),
        diag: spans_median(tracer, "statevec.problem_diagonal"),
        compile: spans_median(tracer, "statevec.compile"),
        batch_eval: spans_median(tracer, "statevec.energy_batch") / tile as f64,
    };
    let eval = spans_median(tracer, "statevec.energy_flat");
    let train = spans_median(tracer, "qaoa.train");
    result.metric("graphs.classical_ms", costs.classical * 1e3, "ms");
    result.metric("statevec.diag_ms", costs.diag * 1e3, "ms");
    result.metric("statevec.compile_us", costs.compile * 1e6, "us");
    result.metric("statevec.eval_us", eval * 1e6, "us");
    result.metric("statevec.batch_eval_us", costs.batch_eval * 1e6, "us");
    result.metric("statevec.ops_per_eval", ops, "count");
    result.metric(
        "statevec.bytes_per_eval",
        ops * (1u64 << n) as f64 * 16.0 * 2.0,
        "bytes",
    );
    result.metric(
        "tensornet.expectation_ms",
        spans_median(tracer, "tensornet.expectation") * 1e3,
        "ms",
    );
    result.metric("tensornet.max_rank", contraction.max_rank as f64, "count");
    result.metric(
        "tensornet.multiplications",
        contraction.multiplications as f64,
        "count",
    );
    result.metric("qaoa.train_ms", train * 1e3, "ms");
    let evals = evals_to_stop.max(1) as f64;
    result.metric("optim.step_us", (train - evals * eval) / evals * 1e6, "us");
    result.metric("optim.evals_to_stop", evals_to_stop as f64, "count");
    Ok(costs)
}

/// Counts read from the outcome and the session's evaluator memo, the
/// per-depth times of the traced session, and the share of the search's
/// worker time that the layer costs explain.
#[allow(clippy::too_many_arguments)]
pub fn pipeline_metrics(
    outcome: &SearchOutcome,
    memo: &qarchsearch::evaluator::EnergyCacheStats,
    tracer: &Tracer,
    costs: &LayerCosts,
    num_graphs: usize,
    workers: usize,
    search_s: f64,
    result: &mut RunResult,
) {
    result.metric("evaluator.memo_builds", memo.builds as f64, "count");
    result.metric("evaluator.memo_hits", memo.hits as f64, "count");
    let pruned = outcome
        .depth_results
        .iter()
        .flat_map(|d| &d.candidates)
        .filter(|c| c.pruned_at_rung.is_some())
        .count();
    let candidates = outcome.num_candidates_evaluated;
    let evals = outcome.total_optimizer_evaluations;
    result.metric("pipeline.candidates", candidates as f64, "count");
    result.metric("pipeline.pruned", pruned as f64, "count");
    result.metric("pipeline.evals", evals as f64, "count");
    for (depth, name) in [
        (1, "pipeline.depth1_s"),
        (2, "pipeline.depth2_s"),
        (3, "pipeline.depth3_s"),
    ] {
        result.metric(name, spans_median(tracer, depth_span(depth)), "s");
    }
    let explained = evals as f64 * costs.batch_eval
        + (candidates * num_graphs) as f64 * costs.compile
        + num_graphs as f64 * (costs.classical + costs.diag);
    result.metric(
        "pipeline.explained_share",
        explained / (workers as f64 * search_s),
        "ratio",
    );
}
