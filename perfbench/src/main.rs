//! Host-time benchmark of the AIM serving simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hyper_verify|hyper_lean|regions_cycle|dag_sessions|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <spans.jsonl>]
//! ```
//!
//! One invocation measures one workload in this process, repeating whole
//! runs (fresh runtime, then the streamed session) for `--seconds`.  Each
//! run serves its own input drawn from `--seed`, and every input is served
//! twice so that determinism is checked in every invocation: by its traced
//! twin with `--trace 1`, and with `--trace 0` by one more run of the first
//! input once `--seconds` are up.  With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced runs and reports per-layer self times,
//! exact simulated counts and the tracing overhead.  The last line of
//! standard output is one JSON object.  `--workload all` runs every
//! workload both ways, one child process each.
//!
//! The benchmark writes no file unless `--out` names one, which receives
//! the recorded spans as JSON lines.

mod scenarios;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use scenarios::{Rep, Workload};
use spans::{LayerTime, Span, Tracer};

/// Worker threads of the rayon shim.  `ServeConfig::parallel` stays on, but
/// the shim spawns and joins scoped threads on every fan-out call, and on
/// the 2-vCPU guest this benchmark was sized on that made the hyperscale
/// workloads 3x slower than one thread and their host time mostly
/// cross-vCPU wake-up latency, which varied with the other tenants' load
/// far beyond the benchmark's bounds.  With one thread the shim runs every
/// parallel section inline, on the same code path otherwise.
const HOST_THREADS: usize = 1;

/// Fewest untraced runs in one invocation, whatever `--seconds` says.
const MIN_RUNS: usize = 2;

/// A run during which other tenants took more than this share of the
/// host's CPU time (steal, from `/proc/stat`) is disturbed: it is reported
/// but left out of the metrics (see [`measured`]).  On
/// the 2-vCPU guest this benchmark was sized on, quiet periods show 0-1%
/// steal; with two shim threads, runs at 1-2% steal already read about 10%
/// slower and runs at 5-25% steal up to 4x slower.
const STEAL_LIMIT_PCT: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload <hyper_verify|hyper_lean|regions_cycle|dag_sessions|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <path>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    // Before anything asks the shim for its thread count, which it reads once.
    std::env::set_var("RAYON_NUM_THREADS", HOST_THREADS.to_string());
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    match measure(workload, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One run, the input instance it served, the host steal share over it
/// and, when traced, its per-layer self times.
struct Run {
    instance: u64,
    rep: Rep,
    steal_pct: Option<f64>,
    layers: BTreeMap<&'static str, LayerTime>,
}

fn requests_per_s(rep: &Rep) -> f64 {
    rep.attempted as f64 / rep.session_s
}

/// Runs once, measuring the host steal share (CPU time the hypervisor gave
/// to other tenants) over the run.
fn timed_run(
    workload: Workload,
    seed: u64,
    instance: u64,
    tracer: &mut Tracer,
) -> (Rep, Option<f64>) {
    let before = cpu_ticks();
    let rep = scenarios::run(workload, scenarios::instance_seed(seed, instance), tracer);
    let steal_pct = before
        .zip(cpu_ticks())
        .map(|((s0, t0), (s1, t1))| 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    (rep, steal_pct)
}

fn undisturbed(run: &Run) -> bool {
    run.steal_pct.is_none_or(|p| p <= STEAL_LIMIT_PCT)
}

/// The runs the metrics are taken from: the undisturbed ones, or, when
/// fewer than [`MIN_RUNS`] were undisturbed, the [`MIN_RUNS`] runs with the
/// least steal.
fn measured(runs: &[Run]) -> Vec<&Run> {
    let mut by_steal: Vec<&Run> = runs.iter().collect();
    by_steal.sort_by(|a, b| {
        a.steal_pct
            .unwrap_or(0.0)
            .total_cmp(&b.steal_pct.unwrap_or(0.0))
    });
    let clean = by_steal.iter().filter(|r| undisturbed(r)).count();
    by_steal.truncate(clean.max(MIN_RUNS));
    by_steal
}

/// Measures one workload; returns whether every output was correct.
fn measure(workload: Workload, args: &Args) -> Result<bool, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced: Vec<Run> = Vec::new();
    let mut traced: Vec<Run> = Vec::new();
    let mut kept_spans: Vec<Span> = Vec::new();
    let mut run_id = 0u32;
    let untraced_run = |instance: u64, run_id: u32| {
        let mut tracer = Tracer::new(false, run_id);
        let (rep, steal_pct) = timed_run(workload, args.seed, instance, &mut tracer);
        Run {
            instance,
            rep,
            steal_pct,
            layers: BTreeMap::new(),
        }
    };
    loop {
        let instance = untraced.len() as u64;
        untraced.push(untraced_run(instance, run_id));
        run_id += 1;
        if args.trace {
            // The traced twin serves the same input as the untraced run.
            let mut tracer = Tracer::new(true, run_id);
            let (rep, steal_pct) = timed_run(workload, args.seed, instance, &mut tracer);
            let spans = tracer.into_spans();
            let layers = spans::self_times(&spans);
            if args.out.is_some() {
                kept_spans.extend(spans);
            }
            traced.push(Run {
                instance,
                rep,
                steal_pct,
                layers,
            });
            run_id += 1;
        }
        if untraced.len() >= MIN_RUNS && start.elapsed() >= budget {
            break;
        }
    }
    if !args.trace {
        untraced.push(untraced_run(0, run_id));
    }
    let peak_rss_mib = peak_rss_mib().ok_or("VmHWM is not readable from /proc/self/status")?;

    let (attempted, failed) = tally(untraced.iter().chain(&traced));
    let correct = failed == 0;
    let reference = &untraced[0].rep.report;

    let name = workload.name();
    println!(
        "perfbench {name}: seed {}, {} untraced + {} traced runs in {:.1} s",
        args.seed,
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "  host: nproc {}, host_threads {}, profile {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        rayon::current_num_threads(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    println!(
        "  {attempted} {} attempted, {failed} failed; first input's report digest {:016x} \
         ({} bytes); reports identical across runs of the same input: {}",
        workload.operation(),
        stats::digest(reference),
        reference.len(),
        failed == 0
    );
    for (count, value) in &untraced[0].rep.counts {
        println!("  count {count} = {value}");
    }
    for (kind, runs) in [("untraced", &untraced), ("traced", &traced)] {
        for (i, run) in runs.iter().enumerate() {
            print_run(kind, i, run);
        }
    }
    println!(
        "  metrics use the runs during which other tenants took at most {STEAL_LIMIT_PCT}% of \
         the host's CPU time, or the {MIN_RUNS} runs with the least steal when fewer were"
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        layer_metrics(
            workload,
            &measured(&untraced),
            &measured(&traced),
            &mut metrics,
        );
    } else {
        end_to_end_metrics(&measured(&untraced), peak_rss_mib, &mut metrics)?;
    }
    for (metric, value, unit) in &metrics {
        println!("  {metric} = {value:.6} {unit}");
    }
    if let Some(path) = &args.out {
        write_spans(path, name, &kept_spans)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (metric, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {metric} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

/// Attempted and failed operations over `runs`.  A run's operations fail
/// when the run lost or duplicated them (conservation), and all of them
/// fail when its drained report differs by a byte from that of the first
/// run of the same input (determinism).
fn tally<'a>(runs: impl Iterator<Item = &'a Run>) -> (u64, u64) {
    let mut first_report: BTreeMap<u64, &[u8]> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for run in runs {
        let first = *first_report
            .entry(run.instance)
            .or_insert(run.rep.report.as_slice());
        attempted += run.rep.attempted;
        failed += if first == run.rep.report.as_slice() {
            run.rep.failed
        } else {
            run.rep.attempted
        };
    }
    (attempted, failed)
}

fn print_run(kind: &str, i: usize, run: &Run) {
    let rep = &run.rep;
    let tail = stats::tail(&rep.steps_ms).map_or("no tail".to_string(), |(permille, tail)| {
        format!("{} {tail:.3} ms", stats::percentile_label(permille))
    });
    let steal = run
        .steal_pct
        .map_or("unknown".to_string(), |p| format!("{p:.1}%"));
    println!(
        "  {kind} run {i} (input {}): setup {:.3} s, session {:.3} s, {:.1} per s, \
         step p50 {:.3} ms, {tail}; steal {steal}{}",
        run.instance,
        rep.setup_s,
        rep.session_s,
        requests_per_s(rep),
        stats::median(&rep.steps_ms),
        if undisturbed(run) { "" } else { " (disturbed)" }
    );
}

fn end_to_end_metrics(
    runs: &[&Run],
    peak_rss_mib: f64,
    metrics: &mut Vec<(String, f64, &'static str)>,
) -> Result<(), String> {
    // The tail is taken per run, where the step count is fixed by the
    // workload, so the percentile it names does not depend on how many
    // runs fit in `--seconds`.
    let mut tails = Vec::new();
    for run in runs {
        let steps = &run.rep.steps_ms;
        tails.push(
            stats::tail(steps)
                .ok_or_else(|| format!("{} steps leave no tail percentile", steps.len()))?,
        );
    }
    println!(
        "  step_tail_ms is the mean over runs of each run's {} step time: the highest \
         percentile with at least {} of its {} steps beyond it",
        stats::percentile_label(tails[0].0),
        stats::TAIL_MIN_BEYOND,
        runs[0].rep.steps_ms.len()
    );
    // Throughput and tail pool the runs rather than take their median: the
    // guest's speed flips between two levels about 1.4x apart in episodes
    // of 5-30 s, and a median over runs flips with it from one invocation
    // to the next, while a pooled figure moves with the share of slow runs.
    let attempted: u64 = runs.iter().map(|r| r.rep.attempted).sum();
    let session_s: f64 = runs.iter().map(|r| r.rep.session_s).sum();
    let steps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.rep.steps_ms.iter().copied())
        .collect();
    let mean_tail = tails.iter().map(|&(_, tail)| tail).sum::<f64>() / tails.len() as f64;
    let setups: Vec<f64> = runs.iter().map(|r| r.rep.setup_s).collect();
    metrics.push(("requests_per_s".into(), attempted as f64 / session_s, "1/s"));
    metrics.push(("step_p50_ms".into(), stats::median(&steps), "ms"));
    metrics.push(("step_tail_ms".into(), mean_tail, "ms"));
    metrics.push(("setup_s".into(), stats::median(&setups), "s"));
    metrics.push(("peak_rss_mib".into(), peak_rss_mib, "MiB"));
    Ok(())
}

/// Per-layer metric and the span whose self time it sums per run; metrics
/// ending in `_ms` are reported in ms.  An empty span name stands for the
/// benchmark's own harness spans.
const LAYER_TIMES: [(&str, &str); 17] = [
    ("workloads.trace_gen_s", "workloads.trace_gen"),
    ("aim-core.compile_s", "aim-core.compile"),
    ("aim-serve.runtime.build_s", "aim-serve.runtime.build"),
    ("aim-serve.fleet.submit_s", "aim-serve.fleet.submit"),
    ("aim-serve.fleet.run_until_s", "aim-serve.fleet.run_until"),
    ("aim-serve.fleet.poll_s", "aim-serve.fleet.poll"),
    ("aim-serve.fleet.drain_s", "aim-serve.fleet.drain"),
    ("aim-serve.global.submit_s", "aim-serve.global.submit"),
    ("aim-serve.global.run_until_s", "aim-serve.global.run_until"),
    ("aim-serve.global.poll_s", "aim-serve.global.poll"),
    ("aim-serve.global.drain_s", "aim-serve.global.drain"),
    ("aim-serve.dag.submit_s", "aim-serve.dag.submit"),
    ("aim-serve.dag.run_until_s", "aim-serve.dag.run_until"),
    ("aim-serve.dag.poll_s", "aim-serve.dag.poll"),
    ("aim-serve.dag.drain_s", "aim-serve.dag.drain"),
    (
        "aim-serve.report.serialize_ms",
        "aim-serve.report.serialize",
    ),
    ("bench.harness_s", ""),
];

/// The benchmark's own spans; their self time is harness overhead.
const HARNESS_SPANS: [&str; 3] = ["setup", "session", "step"];

fn layer_metrics(
    workload: Workload,
    untraced: &[&Run],
    traced: &[&Run],
    metrics: &mut Vec<(String, f64, &'static str)>,
) {
    let per_run =
        |f: &dyn Fn(&Run) -> f64| stats::median(&traced.iter().map(|t| f(t)).collect::<Vec<_>>());
    let self_s = |t: &Run, span: &str| t.layers.get(span).map_or(0, |l| l.self_ns) as f64 * 1e-9;
    for (metric, span) in LAYER_TIMES {
        let value = if span.is_empty() {
            per_run(&|t| HARNESS_SPANS.iter().map(|s| self_s(t, s)).sum())
        } else {
            per_run(&|t| self_s(t, span))
        };
        let (value, unit) = if metric.ends_with("_ms") {
            (value * 1e3, "ms")
        } else {
            (value, "s")
        };
        metrics.push((metric.into(), value, unit));
    }
    let submit_max = per_run(&|t| {
        t.layers
            .get("aim-serve.fleet.submit")
            .map_or(0, |l| l.max_ns) as f64
            * 1e-6
    });
    metrics.push(("aim-serve.fleet.submit_max_ms".into(), submit_max, "ms"));

    for (count, value) in &untraced[0].rep.counts {
        let unit = if *count == "aim-serve.session.mean_batch" {
            "requests"
        } else {
            "count"
        };
        metrics.push(((*count).into(), *value, unit));
    }
    let ns_per_cycle: Vec<f64> = untraced
        .iter()
        .map(|r| {
            let cycles = r
                .rep
                .counts
                .iter()
                .find(|(c, _)| *c == "pim-sim.simulated_cycles")
                .map_or(0.0, |(_, v)| *v);
            if cycles > 0.0 {
                r.rep.session_s * 1e9 / cycles
            } else {
                0.0
            }
        })
        .collect();
    metrics.push((
        "pim-sim.ns_per_simulated_cycle".into(),
        stats::median(&ns_per_cycle),
        "ns",
    ));

    let untraced_rps = stats::median(
        &untraced
            .iter()
            .map(|r| requests_per_s(&r.rep))
            .collect::<Vec<_>>(),
    );
    let traced_rps = per_run(&|t| requests_per_s(&t.rep));
    let overhead_pct = (untraced_rps / traced_rps - 1.0) * 100.0;
    metrics.push(("trace.overhead_pct".into(), overhead_pct, "%"));

    let session_s = per_run(&|t| t.layers.get("session").map_or(0, |l| l.max_ns) as f64 * 1e-9);
    println!(
        "  tracing: {untraced_rps:.0} {} per s untraced, {traced_rps:.0} traced ({overhead_pct:+.1}% overhead); \
         traced session {session_s:.3} s",
        workload.operation()
    );
    if workload == Workload::RegionsCycle {
        println!(
            "  note: global-layer call time includes both region fleets and the cycle-accurate \
             kernel beneath them; routing itself is a small share next to the kernel and cannot \
             be separated from outside the crate"
        );
    }
}

/// System-wide `(steal, total)` CPU ticks from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn write_spans(path: &PathBuf, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans::write_spans(&mut out, workload, spans)?;
    out.flush()
}

/// Runs every workload untraced then traced, each in a child process of
/// its own so that peak RSS is per workload.
fn run_all(args: &Args) -> ExitCode {
    if args.out.is_some() {
        eprintln!("error: --out names one span file; use it with a single workload");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("error: running {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            std::io::stderr().write_all(&output.stderr).ok();
            let last = stdout.lines().last().unwrap_or("");
            correct &= output.status.success() && last.contains("\"correct\": true");
            attempted += json_u64(last, "attempted").unwrap_or(0);
            failed += json_u64(last, "failed").unwrap_or(0);
        }
    }
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads the integer field `key` from one of this program's result lines.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "hyper_lean",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(parsed.workload, "hyper_lean");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.seconds, 10.0);
        assert!(parsed.trace);
        assert!(parsed.out.is_none());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    fn run_with_steal(steal_pct: Option<f64>, session_s: f64) -> Run {
        Run {
            instance: 0,
            rep: Rep {
                setup_s: 1.0,
                session_s,
                attempted: 10,
                failed: 0,
                steps_ms: Vec::new(),
                report: Vec::new(),
                counts: Vec::new(),
            },
            steal_pct,
            layers: BTreeMap::new(),
        }
    }

    fn sessions(runs: &[&Run]) -> Vec<f64> {
        runs.iter().map(|r| r.rep.session_s).collect()
    }

    #[test]
    fn disturbed_runs_are_left_out() {
        let runs = [
            run_with_steal(Some(0.2), 1.0),
            run_with_steal(Some(7.5), 2.0),
            run_with_steal(Some(1.0), 3.0),
            run_with_steal(None, 4.0),
        ];
        // At or under the limit, or unknown, counts as undisturbed; the
        // runs come back least steal first, unknown counting as none.
        assert_eq!(sessions(&measured(&runs)), [4.0, 1.0, 3.0]);
        // Too few undisturbed runs: the least disturbed ones stand in.
        let runs = [
            run_with_steal(Some(9.0), 1.0),
            run_with_steal(Some(3.0), 2.0),
            run_with_steal(Some(0.5), 3.0),
            run_with_steal(Some(12.0), 4.0),
        ];
        assert_eq!(sessions(&measured(&runs)), [3.0, 2.0]);
    }

    fn run_of(instance: u64, report: &[u8], failed: u64) -> Run {
        let mut run = run_with_steal(None, 1.0);
        run.instance = instance;
        run.rep.report = report.to_vec();
        run.rep.failed = failed;
        run
    }

    #[test]
    fn reports_are_compared_within_one_input() {
        // Different inputs may differ; the repeat of input 0 must match.
        let runs = [run_of(0, b"a", 0), run_of(1, b"b", 0), run_of(0, b"a", 0)];
        assert_eq!(tally(runs.iter()), (30, 0));
        // A repeat that differs fails all its operations; conservation
        // failures of a matching run count as they are.
        let runs = [run_of(0, b"a", 0), run_of(1, b"b", 2), run_of(0, b"x", 0)];
        assert_eq!(tally(runs.iter()), (30, 12));
    }

    #[test]
    fn reads_counts_back_from_a_result_line() {
        let line = r#"{"correct": true, "attempted": 1200, "failed": 3, "metrics": {}}"#;
        assert_eq!(json_u64(line, "attempted"), Some(1200));
        assert_eq!(json_u64(line, "failed"), Some(3));
        assert_eq!(json_u64(line, "missing"), None);
    }
}
