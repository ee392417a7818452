//! The `serve_cluster` workload and the probes of the serve-side layers
//! (job server, journal, result cache, `qas serve`, the coordinator).
//!
//! Two `qas serve --port` shards (one worker, a state dir and a cache dir
//! each) run behind one `qas coordinator`, all as real processes. Two
//! client connections drive the coordinator in a closed loop, each keeping
//! `WINDOW` jobs in flight: submit until the window is full, then `wait`
//! for the oldest. Clients send one request per round trip on sockets with
//! default options, as `tests/cluster.rs` does.

use crate::reference::{self, check_outcome};
use crate::search::{pipeline_metrics, search_layer_probes, search_once};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::{Args, RunResult};
use graphs::Graph;
use qarchsearch::report::SearchReport;
use qarchsearch::search::SearchConfig;
use qarchsearch::{
    spec_cache_key, CacheConfig, GateAlphabet, JobServer, JobServerConfig, JobSpec, JobStore,
    JournalRecord, SearchDriver, ServerOptions, StoreConfig,
};
use serde_json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections driving the coordinator.
const CLIENTS: usize = 2;
/// Jobs each client keeps in flight.
const WINDOW: usize = 3;
/// Every `REPEAT_EVERY`-th job repeats an earlier spec (a read: cache hit
/// or coalesced); the others are new specs (writes).
const REPEAT_EVERY: usize = 3;
/// Jobs generated per run; the load stops at the run length well before.
const MAX_JOBS: usize = 20_000;
/// `best_approx_ratio` averages the winners of this many distinct specs,
/// the first of the sequence, so it is fixed for a seed.
const RATIO_SPECS: usize = 20;
/// Cluster start-ups timed per run; `setup_s` is their median.
const SETUP_TRIALS: usize = 3;
/// Jobs of the small load that precedes the serve-side probes when a
/// search workload is traced.
pub const PROBE_LOAD_JOBS: usize = 24;

/// The `qas serve` search options of every job except its seed.
const SEARCH_OPTIONS: &str =
    "\"graphs\":1,\"nodes\":8,\"pmax\":1,\"kmax\":2,\"alphabet\":\"rx,ry\",\"budget\":30,\"backend\":\"statevector\",\"threads\":1";
const BUDGET: usize = 30;

/// The job sequence of a run: distinct spec seeds, and for each job the
/// spec it submits.
struct JobMix {
    spec_seeds: Vec<u64>,
    sequence: Vec<usize>,
}

impl JobMix {
    fn generate(seed: u64) -> JobMix {
        let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // splitmix64
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut spec_seeds = Vec::new();
        let mut sequence = Vec::with_capacity(MAX_JOBS);
        for k in 0..MAX_JOBS {
            if k % REPEAT_EVERY == REPEAT_EVERY - 1 {
                sequence.push((next() % spec_seeds.len() as u64) as usize);
            } else {
                sequence.push(spec_seeds.len());
                spec_seeds.push(
                    seed.wrapping_mul(100_000)
                        .wrapping_add(spec_seeds.len() as u64),
                );
            }
        }
        JobMix {
            spec_seeds,
            sequence,
        }
    }

    fn search_object(&self, spec: usize) -> String {
        format!("{{{SEARCH_OPTIONS},\"seed\":{}}}", self.spec_seeds[spec])
    }

    /// The configuration and graphs `qas serve` builds from the spec's
    /// options (`build_search_config` / `build_dataset` with those options).
    fn build(&self, spec: usize) -> (SearchConfig, Vec<Graph>) {
        let seed = self.spec_seeds[spec];
        let config = SearchConfig::builder()
            .alphabet(GateAlphabet::from_mnemonics(&["rx", "ry"]).expect("known gates"))
            .max_depth(1)
            .max_gates_per_mixer(2)
            .optimizer_budget(BUDGET)
            .backend(qaoa::Backend::StateVector)
            .seed(seed)
            .threads(1)
            .halving(20, 4)
            .build();
        (config, graphs::datasets::erdos_renyi_dataset(1, 8, seed))
    }
}

/// One JSON-lines connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Bounds a hung server; it does not change how segments are sent.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn call(&mut self, request: &str) -> Result<Value, String> {
        let line = format!("{request}\n");
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let read = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err("connection closed".to_string());
        }
        let value: Value =
            serde_json::from_str(response.trim()).map_err(|e| format!("bad response: {e}"))?;
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("request {request} failed: {}", response.trim()));
        }
        Ok(value)
    }
}

/// Two shards and a coordinator, as child processes.
struct Cluster {
    children: Vec<Child>,
    shards: Vec<String>,
    coordinator: String,
    dirs: Vec<PathBuf>,
}

/// Wait for `qas` to log the address it listens on.
fn listening_addr(log: &Path, child: &mut Child) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        // Only a whole line counts: the log may be read mid-write.
        if let Some(rest) = text.split("listening on ").nth(1) {
            if let Some((line, _)) = rest.split_once('\n') {
                if let Some(addr) = line.split_whitespace().next() {
                    return Ok(addr.to_string());
                }
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("{} exited with {status}: {text}", log.display()));
        }
        if Instant::now() > deadline {
            return Err(format!("{} never reported its address", log.display()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Cluster {
    /// Start the shards and the coordinator and wait until each answers
    /// `stats`.
    fn start(qas: &Path, root: &Path) -> Result<Cluster, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let mut cluster = Cluster {
            children: Vec::new(),
            shards: Vec::new(),
            coordinator: String::new(),
            dirs: Vec::new(),
        };
        let spawn = |args: Vec<String>, log: &Path| -> Result<Child, String> {
            let file = std::fs::File::create(log).map_err(|e| e.to_string())?;
            Command::new(qas)
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(file)
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", qas.display()))
        };
        let mut state_dirs = Vec::new();
        for i in 0..2 {
            let state = root.join(format!("shard{i}-state"));
            let cache = root.join(format!("shard{i}-cache"));
            let log = root.join(format!("shard{i}.log"));
            let args = vec![
                "serve".to_string(),
                "--port".into(),
                "0".into(),
                "--workers".into(),
                "1".into(),
                "--shard-id".into(),
                format!("s{i}"),
                "--state-dir".into(),
                state.display().to_string(),
                "--cache-dir".into(),
                cache.display().to_string(),
            ];
            cluster.children.push(spawn(args, &log)?);
            let child = cluster.children.last_mut().expect("just pushed");
            cluster.shards.push(listening_addr(&log, child)?);
            state_dirs.push(state.display().to_string());
            cluster.dirs.push(state);
            cluster.dirs.push(cache);
        }
        let log = root.join("coordinator.log");
        let args = vec![
            "coordinator".to_string(),
            "--shards".into(),
            cluster.shards.join(","),
            "--shard-state-dirs".into(),
            state_dirs.join(","),
            "--port".into(),
            "0".into(),
        ];
        cluster.children.push(spawn(args, &log)?);
        let child = cluster.children.last_mut().expect("just pushed");
        cluster.coordinator = listening_addr(&log, child)?;
        for addr in cluster.shards.iter().chain([&cluster.coordinator]) {
            Conn::open(addr)?.call("{\"cmd\":\"stats\"}")?;
        }
        Ok(cluster)
    }

    /// Summed peak resident memory of the coordinator and the shards.
    fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| peak_rss_mb(&c.id().to_string()))
            .sum()
    }

    /// Stop everything: a graceful cluster shutdown, then a kill for any
    /// process still running after a grace period. Waits for each.
    fn stop(&mut self) {
        if !self.coordinator.is_empty() {
            if let Ok(mut conn) = Conn::open(&self.coordinator) {
                let _ = conn.call("{\"cmd\":\"shutdown\",\"shards\":true}");
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for child in &mut self.children {
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }

    fn kill(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One completed job as the client saw it.
struct JobRecord {
    spec: usize,
    /// Sent by the client that records spans.
    traced: bool,
    latency: f64,
    coordinator_id: u64,
    shard: String,
    /// The job was a cache hit or coalesced onto another execution.
    served_from_cache: bool,
    report: Result<SearchReport, String>,
}

struct Load {
    records: Vec<JobRecord>,
    wall: f64,
    submitted: usize,
    rejected: usize,
}

struct InFlight {
    k: usize,
    spec: usize,
    sent: Instant,
    acked: Instant,
    coordinator_id: u64,
    shard: String,
}

/// Drive the coordinator with `CLIENTS` closed-loop clients drawing the
/// first `limit` jobs of the sequence until `seconds` have passed. With a
/// tracer, the first client records spans and the others do not, so the
/// two kinds of job run side by side under the same load.
fn drive(
    coordinator: &str,
    mix: &JobMix,
    limit: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Load, String> {
    let next = AtomicUsize::new(0);
    let submitted = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    let rejected = AtomicUsize::new(0);
    let start = Instant::now();
    let client = |index: usize| -> Result<(), String> {
        let tracer = tracer.filter(|_| index == 0);
        let mut conn = Conn::open(coordinator)?;
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        loop {
            while inflight.len() < WINDOW && start.elapsed().as_secs_f64() < seconds {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= limit {
                    break;
                }
                let spec = mix.sequence[k];
                submitted.fetch_add(1, Ordering::Relaxed);
                let sent = Instant::now();
                let request = format!(
                    "{{\"cmd\":\"submit\",\"name\":\"job{k}\",\"search\":{}}}",
                    mix.search_object(spec)
                );
                let ack = match conn.call(&request) {
                    Ok(ack) => ack,
                    Err(e) if e.contains("admission_rejected") => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                inflight.push_back(InFlight {
                    k,
                    spec,
                    sent,
                    acked: Instant::now(),
                    coordinator_id: ack
                        .get("job")
                        .and_then(Value::as_u64)
                        .ok_or("ack without a job id")?,
                    shard: ack
                        .get("shard")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                });
            }
            let Some(job) = inflight.pop_front() else {
                return Ok(());
            };
            let waited = Instant::now();
            let envelope = conn.call(&format!(
                "{{\"cmd\":\"wait\",\"job\":{}}}",
                job.coordinator_id
            ))?;
            let done = Instant::now();
            if let Some(tracer) = tracer {
                let root = tracer.record("serve.job", None, job.k as u64, job.sent, done);
                tracer.record(
                    "coordinator.submit",
                    Some(root),
                    job.k as u64,
                    job.sent,
                    job.acked,
                );
                tracer.record("coordinator.wait", Some(root), job.k as u64, waited, done);
            }
            let report = match envelope.get("report") {
                Some(report) if envelope.get("error").is_none() => {
                    serde_json::from_value::<SearchReport>(report).map_err(|e| e.to_string())
                }
                _ => Err(format!(
                    "job {} ended without a report: {envelope:?}",
                    job.k
                )),
            };
            records.lock().expect("records lock").push(JobRecord {
                spec: job.spec,
                latency: done.duration_since(job.sent).as_secs_f64(),
                traced: tracer.is_some(),
                coordinator_id: job.coordinator_id,
                shard: job.shard,
                served_from_cache: ["cache_hit", "coalesced"]
                    .iter()
                    .any(|k| envelope.get(k).and_then(Value::as_bool) == Some(true)),
                report,
            });
        }
    };
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| scope.spawn(move || client(index)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    for r in results {
        r?;
    }
    Ok(Load {
        records: records.into_inner().expect("records lock"),
        wall,
        submitted: submitted.into_inner(),
        rejected: rejected.into_inner(),
    })
}

fn report_identity(report: &SearchReport) -> String {
    serde_json::to_string(&report.without_timings()).expect("report serializes")
}

/// Check every job's result against an in-process run of its spec through
/// the session API, and each distinct winner against the reference checks.
fn verify(mix: &JobMix, records: &[JobRecord], result: &mut RunResult) {
    let mut first_of: BTreeMap<usize, String> = BTreeMap::new();
    for record in records {
        match &record.report {
            Err(e) => result.problems.push(e.clone()),
            Ok(report) => {
                let id = report_identity(report);
                let first = first_of.entry(record.spec).or_insert_with(|| id.clone());
                result.check(*first == id, || {
                    format!(
                        "a repeat of spec {} differs from its first result",
                        record.spec
                    )
                });
            }
        }
    }
    for (&spec, served) in &first_of {
        let (config, graphs) = mix.build(spec);
        match SearchDriver::new(config).run(&graphs) {
            Ok(outcome) => {
                let direct = report_identity(&SearchReport::from(&outcome));
                result.check(*served == direct, || {
                    format!("spec {spec}: served report {served} differs from the in-process run {direct}")
                });
                let optima: Vec<f64> = graphs.iter().map(reference::maxcut_optimum).collect();
                check_outcome(
                    &format!("spec {spec}"),
                    &outcome,
                    &graphs,
                    &optima,
                    BUDGET,
                    result,
                );
            }
            Err(e) => result
                .problems
                .push(format!("spec {spec}: in-process run failed: {e}")),
        }
    }
}

fn run_root(args: &Args) -> PathBuf {
    args.out_dir.join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

/// Start clusters `SETUP_TRIALS` times, keeping the last: returns it with
/// the median start-up time (job-sequence generation included).
fn setup(args: &Args, root: &Path) -> Result<(f64, Cluster, JobMix), String> {
    let mut times = Vec::new();
    for trial in 0..SETUP_TRIALS {
        let dir = root.join(format!("cluster{trial}"));
        let t = Instant::now();
        let mix = JobMix::generate(args.seed);
        let mut cluster = Cluster::start(&args.qas, &dir)?;
        times.push(t.elapsed().as_secs_f64());
        if trial + 1 == SETUP_TRIALS {
            return Ok((median(&times), cluster, mix));
        }
        cluster.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("the last trial returns")
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<RunResult, String> {
    let mut result = RunResult {
        config: format!(
            "serve_cluster coordinator+2 shards (--workers 1, --state-dir, --cache-dir) clients={CLIENTS} window={WINDOW} closed-loop repeat_every={REPEAT_EVERY} job={{{SEARCH_OPTIONS},\"seed\":<seed*100000+i>}} seed={}",
            args.seed
        ),
        ..RunResult::default()
    };
    let root = run_root(args);
    let outcome = (|| -> Result<(), String> {
        let (setup_s, mut cluster, mix) = setup(args, &root)?;
        if !args.trace {
            let load = drive(&cluster.coordinator, &mix, MAX_JOBS, args.seconds, None)?;
            let peak = cluster.peak_rss_mb();
            let admission = coordinator_rejections(&cluster)?;
            cluster.stop();
            account(&load, admission, &mut result);
            verify(&mix, &load.records, &mut result);
            load_metrics(&mix, &load, setup_s, peak, &mut result);
            return Ok(());
        }
        // Half the run length of load in which one client traces and the
        // other does not; the probes below take the rest.
        let load = drive(
            &cluster.coordinator,
            &mix,
            MAX_JOBS,
            args.seconds / 2.0,
            Some(tracer),
        )?;
        let latency = |traced: bool| {
            let l: Vec<f64> = load
                .records
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.latency)
                .collect();
            median(&l)
        };
        result.metric(
            "trace.overhead_pct",
            (latency(true) / latency(false) - 1.0) * 100.0,
            "%",
        );
        probes_on(&cluster, &mix, &load, tracer, &root, &mut result)?;
        cluster.stop();
        verify(&mix, &load.records, &mut result);
        // The search-side layers, measured on the first spec of the mix,
        // at the cluster's two workers and at one.
        let (mut config, graphs) = mix.build(0);
        config.threads = Some(2);
        let two = search_once(&config, &graphs, Some(tracer), 0, &mut result)?;
        config.threads = Some(1);
        let one = search_once(&config, &graphs, None, 1, &mut result)?;
        result.check(one.identity == two.identity, || {
            "the 1-worker search differs from the 2-worker one".to_string()
        });
        let (search_s, outcome) = (two.seconds, &two.outcome);
        let costs = search_layer_probes(&config, &graphs, outcome, tracer, &mut result)?;
        pipeline_metrics(
            outcome,
            &two.memo,
            tracer,
            &costs,
            graphs.len(),
            2,
            search_s,
            &mut result,
        );
        result.metric(
            "worksteal.scaling_efficiency",
            one.seconds / (2.0 * search_s),
            "ratio",
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&root);
    outcome.map(|()| result)
}

fn account(load: &Load, admission_rejected: u64, result: &mut RunResult) {
    result.attempted += load.submitted as u64;
    result.failed += load.rejected as u64;
    result.check(load.records.len() + load.rejected == load.submitted, || {
        format!(
            "{} jobs submitted but {} results received",
            load.submitted,
            load.records.len()
        )
    });
    result.check(admission_rejected == 0 && load.rejected == 0, || {
        format!(
            "admission control rejected {} submissions ({} seen by clients)",
            admission_rejected, load.rejected
        )
    });
}

fn load_metrics(mix: &JobMix, load: &Load, setup_s: f64, peak: f64, result: &mut RunResult) {
    let latencies: Vec<f64> = load.records.iter().map(|r| r.latency).collect();
    result.check(latencies.len() >= 100, || {
        format!(
            "only {} jobs completed; p90 needs at least 100",
            latencies.len()
        )
    });
    let mut ratios = BTreeMap::new();
    for r in &load.records {
        if let (true, Ok(report)) = (r.spec < RATIO_SPECS, &r.report) {
            ratios.insert(r.spec, report.best_approx_ratio);
        }
    }
    result.check(
        ratios.len() == RATIO_SPECS.min(mix.spec_seeds.len()),
        || {
            format!(
                "only {} of the first {RATIO_SPECS} specs completed",
                ratios.len()
            )
        },
    );
    // A client starts a search session with `submit` and receives its
    // outcome with `wait`. Jobs that ran a session (not cache hits, not
    // coalesced) give `search_s`; the evaluations they computed over the
    // load's wall time give the cluster's `evals_per_s`. The shards' own
    // clocks are not used: a job computes for about 3 ms, and on this
    // machine such short samples move with its speed from run to run.
    let executed: Vec<(&JobRecord, &SearchReport)> = load
        .records
        .iter()
        .filter(|r| !r.served_from_cache)
        .filter_map(|r| r.report.as_ref().ok().map(|report| (r, report)))
        .collect();
    let sessions: Vec<f64> = executed.iter().map(|(r, _)| r.latency).collect();
    let evaluations: usize = executed
        .iter()
        .map(|(_, report)| report.optimizer_evaluations)
        .sum();
    result.metric("search_s", median(&sessions), "s");
    result.metric("evals_per_s", evaluations as f64 / load.wall, "1/s");
    result.metric(
        "best_approx_ratio",
        ratios.values().sum::<f64>() / ratios.len().max(1) as f64,
        "ratio",
    );
    result.metric("jobs_per_s", latencies.len() as f64 / load.wall, "1/s");
    result.metric("job_latency_p50_ms", median(&latencies) * 1e3, "ms");
    result.metric(
        "job_latency_p90_ms",
        percentile(&latencies, 0.9) * 1e3,
        "ms",
    );
    result.metric("setup_s", setup_s, "s");
    result.metric("peak_rss_mb", peak, "MB");
}

fn coordinator_rejections(cluster: &Cluster) -> Result<u64, String> {
    let stats = Conn::open(&cluster.coordinator)?.call("{\"cmd\":\"stats\"}")?;
    let admission = stats
        .get("stats")
        .and_then(|s| s.get("admission"))
        .ok_or("coordinator stats without admission counters")?;
    Ok([
        "rejected_rate_limit",
        "rejected_quota",
        "rejected_backpressure",
    ]
    .iter()
    .filter_map(|k| admission.get(k).and_then(Value::as_u64))
    .sum())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A small load through a fresh cluster followed by the serve-side probes
/// (what a traced search workload runs).
pub fn serve_layer_probes(
    args: &Args,
    tracer: &Tracer,
    jobs: usize,
    result: &mut RunResult,
) -> Result<(), String> {
    let root = run_root(args);
    let outcome = (|| -> Result<(), String> {
        let mix = JobMix::generate(args.seed);
        let mut cluster = Cluster::start(&args.qas, &root.join("probe-cluster"))?;
        let load = drive(
            &cluster.coordinator,
            &mix,
            jobs,
            f64::INFINITY,
            Some(tracer),
        )?;
        probes_on(&cluster, &mix, &load, tracer, &root, result)?;
        cluster.stop();
        verify(&mix, &load.records, result);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&root);
    outcome
}

fn median_spans<F: FnMut() -> Result<(), String>>(
    tracer: &Tracer,
    name: &'static str,
    reps: usize,
    mut call: F,
) -> Result<f64, String> {
    tracer.span("probe", None, 0, |parent| -> Result<(), String> {
        for _ in 0..reps {
            tracer.span(name, Some(parent), 0, |_| call())?;
        }
        Ok(())
    })?;
    Ok(median(&tracer.seconds_of(name)))
}

/// The serve-side per-layer metrics, measured on a cluster that has just
/// carried `load`.
fn probes_on(
    cluster: &Cluster,
    mix: &JobMix,
    load: &Load,
    tracer: &Tracer,
    root: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    // Counters first, before the probes add traffic.
    let (mut hits, mut misses, mut coalesced) = (0u64, 0u64, 0u64);
    for shard in &cluster.shards {
        let stats = Conn::open(shard)?.call("{\"cmd\":\"stats\"}")?;
        let cache = stats
            .get("stats")
            .and_then(|s| s.get("cache"))
            .ok_or("shard stats without cache counters")?;
        let count = |k: &str| cache.get(k).and_then(Value::as_u64).unwrap_or(0);
        hits += count("hits");
        misses += count("misses");
        coalesced += count("coalesced");
    }
    result.metric("cache.hits", hits as f64, "count");
    result.metric("cache.misses", misses as f64, "count");
    result.metric("cache.coalesced", coalesced as f64, "count");
    result.metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let rejected = coordinator_rejections(cluster)?;
    result.metric("admission.rejected", rejected as f64, "count");
    account(load, rejected, result);
    let journal: u64 = cluster.dirs.iter().map(|d| dir_bytes(d)).sum();
    result.metric(
        "store.journal_bytes_per_job",
        journal as f64 / load.records.len().max(1) as f64,
        "bytes",
    );

    let done = load
        .records
        .iter()
        .find(|r| r.report.is_ok() && cluster.shards.contains(&r.shard))
        .ok_or("no completed job placed on a known shard")?;
    let mut shard = Conn::open(&done.shard)?;
    shard.call("{\"cmd\":\"stats\"}")?;
    let rtt = median_spans(tracer, "serve.stats", 10, || {
        shard.call("{\"cmd\":\"stats\"}").map(drop)
    })?;
    result.metric("serve.rtt_ms", rtt * 1e3, "ms");
    let submit = format!(
        "{{\"cmd\":\"submit\",\"search\":{}}}",
        mix.search_object(done.spec)
    );
    let mut local_id = 0;
    let hit = median_spans(tracer, "serve.cached_submit_wait", 5, || {
        let ack = shard.call(&submit)?;
        if ack.get("cache_hit").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "a completed spec was not a cache hit on its shard: {ack:?}"
            ));
        }
        local_id = ack
            .get("job")
            .and_then(Value::as_u64)
            .ok_or("ack without job id")?;
        shard
            .call(&format!("{{\"cmd\":\"wait\",\"job\":{local_id}}}"))
            .map(drop)
    })?;
    result.metric("serve.hit_ms", hit * 1e3, "ms");
    let direct = median_spans(tracer, "serve.status", 10, || {
        shard
            .call(&format!("{{\"cmd\":\"status\",\"job\":{local_id}}}"))
            .map(drop)
    })?;
    let mut coordinator = Conn::open(&cluster.coordinator)?;
    coordinator.call("{\"cmd\":\"stats\"}")?;
    let id = done.coordinator_id;
    let via = median_spans(tracer, "coordinator.status", 10, || {
        coordinator
            .call(&format!("{{\"cmd\":\"status\",\"job\":{id}}}"))
            .map(drop)
    })?;
    result.metric("coordinator.hop_ms", (via - direct) * 1e3, "ms");
    let wait = median_spans(tracer, "coordinator.wait_finished", 10, || {
        coordinator
            .call(&format!("{{\"cmd\":\"wait\",\"job\":{id}}}"))
            .map(drop)
    })?;
    result.metric("coordinator.wait_ms", wait * 1e3, "ms");

    in_process_probes(mix, load, tracer, root, result)
}

fn launch(root: &Path, name: &str, workers: usize) -> Result<JobServer, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    JobServer::launch(
        JobServerConfig {
            workers,
            ..JobServerConfig::default()
        },
        ServerOptions {
            store: Some(StoreConfig::new(dir.join("state"))),
            cache: Some(CacheConfig::default().durable(dir.join("cache"))),
            ..ServerOptions::default()
        },
    )
    .map_err(|e| e.to_string())
}

/// The job server, journal and cache called in-process (no TCP).
fn in_process_probes(
    mix: &JobMix,
    load: &Load,
    tracer: &Tracer,
    root: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    let spec = |i: usize| {
        let (config, graphs) = mix.build(i);
        JobSpec::new(config, graphs)
    };
    let fresh: Vec<JobSpec> = (0..10).map(spec).collect();

    let server = launch(root, "probe-server", 1)?;
    let mut ids = Vec::new();
    let mut queue = fresh.clone().into_iter();
    let submit = median_spans(tracer, "server.submit", fresh.len(), || {
        let id = server
            .submit(queue.next().expect("one spec per call"))
            .map_err(|e| e.to_string())?;
        ids.push(id);
        Ok(())
    })?;
    for id in &ids {
        server
            .wait(*id)
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
    }
    let mut queue = fresh.clone().into_iter();
    let hit = median_spans(tracer, "server.submit_cached", fresh.len(), || {
        server
            .submit(queue.next().expect("one spec per call"))
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    server.shutdown();
    result.metric("server.submit_us", submit * 1e6, "us");
    result.metric("server.hit_submit_us", hit * 1e6, "us");

    // The same mix and in-flight window, replayed through one in-process
    // server with the cluster's total worker count.
    let replay = launch(root, "replay-server", 2)?;
    let jobs = load.records.len().clamp(PROBE_LOAD_JOBS, 90);
    let next = AtomicUsize::new(0);
    let latencies = Mutex::new(Vec::new());
    let client = || -> Result<(), String> {
        let mut inflight: VecDeque<(Instant, qarchsearch::JobId)> = VecDeque::new();
        loop {
            while inflight.len() < WINDOW {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= jobs {
                    break;
                }
                let t = Instant::now();
                let id = replay
                    .submit(spec(mix.sequence[k]))
                    .map_err(|e| e.to_string())?;
                inflight.push_back((t, id));
            }
            let Some((t, id)) = inflight.pop_front() else {
                return Ok(());
            };
            replay
                .wait(id)
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
            tracer.record("server.job", None, id.0, t, Instant::now());
            latencies
                .lock()
                .expect("latency lock")
                .push(t.elapsed().as_secs_f64());
        }
    };
    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay client panicked".into()))
            })
            .collect()
    });
    replay.shutdown();
    for o in outcomes {
        o?;
    }
    let latencies = latencies.into_inner().expect("latency lock");
    result.metric("server.latency_p50_ms", median(&latencies) * 1e3, "ms");

    let dir = root.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = JobStore::open(&dir).map_err(|e| e.to_string())?;
    let record = JournalRecord::Submitted {
        id: 1,
        spec: fresh[0].clone(),
    };
    let append = median_spans(tracer, "store.append", 20, || {
        store.append(&record).map_err(|e| e.to_string())
    })?;
    result.metric("store.append_us", append * 1e6, "us");

    let mut specs = fresh.iter().cycle();
    let key = median_spans(tracer, "cache.spec_cache_key", 50, || {
        spec_cache_key(specs.next().expect("cycle"))
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    result.metric("cache.key_us", key * 1e6, "us");
    Ok(())
}
