//! `layerbench` — the layered benchmark of the QArchSearch workspace.
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --qas <path>
//! ```
//!
//! Four workloads each load one layer heavily and the others lightly
//! (see README.md). The untraced run (`--trace 0`) prints the end-to-end
//! metrics; the traced run (`--trace 1`) records spans around every call
//! into a layer, writes them under `.bench_run/spans/`, and prints the
//! per-layer metrics. Every run checks its outputs independently of the
//! program and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod reference;
mod search;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Everything a workload hands back to be printed.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold. Any entry makes `correct` false.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Trained (candidate, graph) sessions that spent more objective
    /// evaluations than the configured budget.
    pub budget_overruns: u64,
    /// The workload's configuration, for the run record.
    pub config: String,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(message());
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `qas` binary driven as real processes by the serve tier.
    pub qas: PathBuf,
    /// Where spans and the serve tier's state directories go.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Option<String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1).cloned())
    };
    let need = |key: &str| value(key).ok_or_else(|| format!("missing {key}"));
    let workload = need("--workload")?;
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace").as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let qas = PathBuf::from(value("--qas").unwrap_or_else(|| "target/release/qas".into()));
    let out_dir = PathBuf::from(value("--out-dir").unwrap_or_else(|| ".bench_run".into()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        qas,
        out_dir,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "serve_cluster" => serve::run(&args, &tracer),
        name => match search::workload(name) {
            Some(w) => search::run(&w, &args, &tracer),
            None => Err(format!("unknown workload '{name}'")),
        },
    };
    let result = match result {
        Ok(r) if r.attempted > 0 => r,
        Ok(_) => {
            eprintln!("layerbench: the run attempted no operation");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut result = result;
    if args.trace {
        result.metric(
            "optim.budget_overruns",
            result.budget_overruns as f64,
            "count",
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("workload     : {}", args.workload);
    println!("seed         : {}", args.seed);
    println!("seconds      : {}", args.seconds);
    println!("trace        : {}", u8::from(args.trace));
    println!("nproc        : {nproc}");
    println!("rustc        : {}", command_line("rustc", &["-V"]));
    println!(
        "git revision : {}",
        command_line("git", &["rev-parse", "HEAD"])
    );
    println!("config       : {}", result.config);
    if args.trace {
        let path = args
            .out_dir
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans        : {} ({} spans)", path.display(), tracer.len()),
            Err(e) => {
                eprintln!("layerbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "operations   : {} attempted, {} failed",
        result.attempted, result.failed
    );
    for (name, value, unit) in &result.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let mut problems = result.problems;
    for (name, value, _) in &result.metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite ({value})"));
        }
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
