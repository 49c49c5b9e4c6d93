//! `parbox-benchmark`: four fixed-work serving workloads on the resident
//! engine. See `README.md` beside this crate for the metric sheet.
//!
//! ```text
//! parbox-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod driver;
mod gen;
mod hist;
mod metrics;
mod proc;
mod trace;
mod workloads;

use driver::{Bench, Phase};
use metrics::Metric;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::Spec;

/// `--quick` divides every op count by this (and skips the plateau
/// check, which needs the full warm-up).
const QUICK_DIVISOR: usize = 20;

/// The measured phase runs as this many equal blocks. The end-to-end
/// metrics are the whole phase's; the blocks' own values are printed
/// beside them, so that a cost that grows with the ops served can be
/// read off.
const BLOCKS: usize = 10;

/// `setup_s` is the median of this many set-ups, each in a fresh process:
/// the run's own and the others in children that stop after the warm-up.
const SETUPS: usize = 3;

/// The traced run measures a quarter of the ops twice: once counted,
/// once replayed.
const TRACE_DIVISOR: usize = 4;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: usize,
    pub trace: bool,
    pub quick: bool,
    /// Set up, print the set-up time in seconds and stop: how a run
    /// repeats its set-up (see `SETUPS`).
    pub setup_only: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: parbox-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        trace: false,
        quick: false,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)? as usize,
            "--trace" => args.trace = number(value()?)? != 0,
            "--quick" => args.quick = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    Ok(args)
}

/// `ops` rounded down to whole rounds of the workload (at least one), so
/// that batch occupancy and the unique share are exact in every phase.
fn whole_rounds(spec: &Spec, ops: usize) -> usize {
    let round = spec.in_flight();
    (ops / round).max(1) * round
}

/// Op counts of one run: `(warm-up, measured)`.
fn op_counts(spec: &Spec, args: &Args) -> (usize, usize) {
    let divisor = if args.quick { QUICK_DIVISOR } else { 1 };
    (
        whole_rounds(spec, spec.warmup_ops / divisor),
        whole_rounds(spec, spec.ops_per_second * args.seconds / divisor),
    )
}

struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<Metric>,
}

/// Sets the workload up in a child process that stops after the warm-up;
/// returns its set-up time in seconds.
fn set_up_in_child(spec: &Spec, args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("the path of this program");
    let mut child = Command::new(exe);
    child.args(["--setup-only", "--workload", spec.name]);
    child.args(["--seed", &args.seed.to_string()]);
    child.args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        child.arg("--quick");
    }
    let out = child.output().expect("start the set-up process");
    assert!(
        out.status.success(),
        "the set-up process failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    last.parse()
        .expect("the set-up process prints its seconds last")
}

fn run_setup_only(spec: &'static Spec, args: &Args) {
    let (warmup_ops, _) = op_counts(spec, args);
    let (bench, _) = Bench::set_up(spec, args.seed, warmup_ops, warmup_ops);
    println!("{:?}", bench.setup.total_s());
    bench.shut_down();
}

fn run_end_to_end(spec: &'static Spec, args: &Args) -> Outcome {
    let (warmup_ops, ops) = op_counts(spec, args);
    let block_ops = whole_rounds(spec, ops / BLOCKS);
    let ops = block_ops * BLOCKS;
    let mut setups: Vec<f64> = (1..SETUPS).map(|_| set_up_in_child(spec, args)).collect();
    let (mut bench, warmup) = Bench::set_up(spec, args.seed, warmup_ops, warmup_ops + ops);
    setups.push(bench.setup.total_s());
    let before = bench.snapshot();
    let mut blocks = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        blocks.push(bench.run_phase::<false>(block_ops, None));
    }
    let after = bench.snapshot();

    let mut measured = Phase::default();
    for b in &blocks {
        measured.absorb(b);
    }
    let (checked, mismatches) = bench.oracle_check(args.seed);
    let violations =
        metrics::shape_violations(spec, ops as u64, &measured, &before, &after, !args.quick);
    let metrics = metrics::end_to_end(&setups, &warmup, &measured, &before.proc, &after.proc);
    println!(
        "{}: {} fragments of {}..{} nodes, {} warm-up + {BLOCKS} x {} measured ops, seed {}",
        spec.name,
        spec.fragments,
        bench.fragment_nodes.0,
        bench.fragment_nodes.1,
        warmup_ops,
        block_ops,
        args.seed
    );
    println!(
        "  {} latency samples, p99 {:.6} ms (ungated); set-ups took {setups:.3?} s",
        measured.latency.len(),
        measured.latency.quantile_ms(0.99)
    );
    let per_block = |f: &dyn Fn(&Phase) -> f64| -> String {
        let values: Vec<String> = blocks.iter().map(|b| format!("{:.4}", f(b))).collect();
        values.join(" ")
    };
    println!(
        "  ops/s by block: {}",
        per_block(&|b| b.ops as f64 * 1e9 / b.busy_ns as f64)
    );
    println!(
        "  p50 ms by block: {}",
        per_block(&|b| b.latency.quantile_ms(0.50))
    );
    println!(
        "  p95 ms by block: {}",
        per_block(&|b| b.latency.quantile_ms(0.95))
    );
    println!(
        "  resident memory {:.1} MB after set-up, {:+.1} MB in the measured phase; oracle checked {checked} answers, {mismatches} wrong",
        before.proc.rss_mb,
        after.proc.rss_mb - before.proc.rss_mb
    );
    bench.shut_down();
    Outcome {
        attempted: measured.ops,
        failed: measured.failed + mismatches,
        violations,
        metrics,
    }
}

fn run_traced(spec: &'static Spec, args: &Args) -> Outcome {
    let (warmup_ops, measured_ops) = op_counts(spec, args);
    let ops = whole_rounds(spec, measured_ops / TRACE_DIVISOR);
    let (mut bench, _) = Bench::set_up(spec, args.seed, warmup_ops, warmup_ops + 2 * ops);
    let before = bench.snapshot();
    let counted = bench.run_phase::<true>(ops, None);
    let after = bench.snapshot();
    let mut tracer = bench.tracer();
    let traced = bench.run_phase::<true>(ops, Some(&mut tracer));

    let (_, mismatches) = bench.oracle_check(args.seed);
    let violations =
        metrics::shape_violations(spec, ops as u64, &counted, &before, &after, !args.quick);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", spec.name));
    let (replay, spans) = tracer.finish(&path).expect("write the trace file");
    println!(
        "{}: traced {} ops ({} rounds replayed), {spans} spans in {}",
        spec.name,
        traced.ops,
        replay.rounds,
        path.display()
    );
    let mut metrics = metrics::per_layer(&bench.setup, &counted, &before, &after, &traced, &replay);
    bench.shut_down();
    let attempted = counted.ops + traced.ops;
    let failed = counted.failed + traced.failed + mismatches;
    metrics.push((
        "failed_ops_share",
        failed as f64 / attempted as f64,
        "ratio",
    ));
    Outcome {
        attempted,
        failed,
        violations,
        metrics,
    }
}

fn print_outcome(out: &Outcome) -> bool {
    for (name, value, unit) in &out.metrics {
        println!("  {name:<38} {value:>16.6} {unit}");
    }
    for v in &out.violations {
        println!("  SELF-CHECK FAILED: {v}");
    }
    let finite = out.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.failed == 0 && out.violations.is_empty() && finite;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            // `{:?}` prints the shortest digits that read back to the
            // same f64: every digit measured, and valid JSON.
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(spec) = args.workload.as_deref().and_then(workloads::by_name) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    // One op in flight is a serial path through the driver and the site
    // threads: nothing runs in parallel, and one CPU keeps the scheduler
    // from moving that path between CPUs at every hand-off. A batched
    // round keeps every CPU the process may use, so that a change that
    // serialises or parallelises the sites' work shows.
    if spec.in_flight() == 1 {
        match proc::pin_to_one_cpu() {
            Some(cpu) => println!("pinned to CPU {cpu}"),
            None => println!("could not pin to one CPU: timings will be noisier"),
        }
    }
    if args.setup_only {
        run_setup_only(spec, &args);
        return ExitCode::SUCCESS;
    }
    let outcome = if args.trace {
        run_traced(spec, &args)
    } else {
        run_end_to_end(spec, &args)
    };
    if print_outcome(&outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
