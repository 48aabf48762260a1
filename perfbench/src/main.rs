//! Benchmark command. Runs one workload (or every workload, each in its own
//! process) as a closed loop for `--seconds`, checks every trial's output,
//! and prints each metric as `name value unit`, then one JSON line:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detsqrt-1024-greedy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an uninstrumented run;
//! `--trace 1` wraps the adversary in timing decorators, counts codeword
//! encodes, and reports the per-layer metrics. `--workload all` runs every
//! workload in turn and exits nonzero if any of them failed.

use bdclique_core::routing::EngineUsed;
use bdclique_perfbench::{run_trial, TrialRecord, Workload};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Measured trials per run, however long they take: the median of three
/// is the smallest that one slow trial cannot set.
const MIN_TRIALS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <detsqrt-1024-greedy|naive-4096|route-cf-4096|all> \
     --seed <u64> --seconds <secs> --trace <0|1>";

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    }
}

/// Runs each workload in a child process of its own, so that each one's
/// `peak_rss_mib` is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(w: Workload, args: &Args) -> ExitCode {
    let window = Duration::from_secs_f64(args.seconds);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut attempt = |trial: u64| {
        attempted += 1;
        let result = run_trial(w, args.seed, trial, args.trace)
            .map_err(|e| e.to_string())
            .and_then(|rec| rec.check(w).map(|()| rec));
        match &result {
            Ok(rec) => eprintln!(
                "{} trial {trial}: setup {:.3} s, trial {:.3} s, check {:.3} s",
                w.name(),
                secs(rec.setup()),
                secs(rec.trial()),
                secs(rec.score)
            ),
            Err(e) => {
                failed += 1;
                eprintln!("{} trial {trial} failed: {e}", w.name());
            }
        }
        result.ok()
    };
    // Warm-up: the first trial in a process pays for fresh pages and sets
    // the allocator's thresholds, so it is checked but not timed. It runs
    // trial 0, which the measured loop runs again: the repeat is the
    // exact-count self-check.
    let warm = attempt(0);
    let start = Instant::now();
    let mut measured: Vec<Option<TrialRecord>> = Vec::new();
    while measured.len() < MIN_TRIALS || start.elapsed() < window {
        measured.push(attempt(measured.len() as u64));
    }
    let mut correct = failed == 0;
    if let (Some(a), Some(Some(b))) = (&warm, measured.first()) {
        if a.exact_counts() != b.exact_counts() {
            correct = false;
            eprintln!(
                "{}: trial 0 counts drifted between runs: {:?} vs {:?}",
                w.name(),
                a.exact_counts(),
                b.exact_counts()
            );
        }
    }
    let records: Vec<TrialRecord> = measured.into_iter().flatten().collect();
    let metrics = if records.is_empty() {
        Vec::new()
    } else if args.trace {
        per_layer(&records)
    } else {
        end_to_end(w, &records)
    };
    for m in &metrics {
        println!("{:<28} {:>16} {}{}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<28} {:>16} ratio ({failed} of {attempted} trials, warm-up included)",
        "failed_ratio",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Printed after the unit on the human-readable line only.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn noted(self, note: String) -> Self {
        Self { note, ..self }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median, averaging the middle pair of an even count.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// The highest of the usual percentiles with at least ten of `samples`
/// beyond it, or `None` below 100 samples.
fn tail_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| (samples as f64 * (1.0 - p / 100.0)).floor() >= 10.0)
}

/// Nearest-rank percentile.
fn percentile(mut xs: Vec<f64>, p: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak memory is read from /proc/self/status (Linux only)");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

fn end_to_end(w: Workload, records: &[TrialRecord]) -> Vec<Metric> {
    let per_trial = |f: &dyn Fn(&TrialRecord) -> f64| median(records.iter().map(f).collect());
    let steps_ms: Vec<f64> = records
        .iter()
        .flat_map(|r| r.steps.iter().map(|&d| secs(d) * 1e3))
        .collect();
    // The percentile is fixed by the fewest steps a run can take, so that
    // it is the same percentile on every run of the workload.
    let (tail, tail_note) = match tail_percentile(MIN_TRIALS * w.rounds() as usize) {
        Some(p) => (percentile(steps_ms.clone(), p), format!("p{p}")),
        None => (percentile(steps_ms.clone(), 100.0), "max".to_string()),
    };
    let n_steps = steps_ms.len();
    vec![
        metric("trial_s", per_trial(&|r| secs(r.trial())), "s")
            .noted(format!(" (median of {} trials)", records.len())),
        metric(
            "msgs_per_s",
            per_trial(&|r| (w.messages() - r.errors as u64) as f64 / secs(r.trial())),
            "1/s",
        ),
        metric("step_ms_p50", median(steps_ms), "ms"),
        metric("step_ms_tail", tail, "ms").noted(format!(" ({tail_note} of {n_steps} steps)")),
        metric("setup_s", per_trial(&|r| secs(r.setup())), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

fn per_layer(records: &[TrialRecord]) -> Vec<Metric> {
    let per_trial = |f: &dyn Fn(&TrialRecord) -> f64| median(records.iter().map(f).collect());
    // Exact counts come from trial 0, the trial every run of a seed repeats.
    let first = &records[0];
    let total_frames: u64 = records.iter().map(|r| r.stats.frames_sent).sum();
    let per_frame = |d: Duration| {
        if total_frames == 0 {
            0.0
        } else {
            d.as_nanos() as f64 / total_frames as f64
        }
    };
    let adversary: Duration = records.iter().map(|r| r.adversary_busy).sum();
    let step_self: Duration = records.iter().map(TrialRecord::step_self).sum();
    let (hits, misses) = first.cache.unwrap_or((0, 0));
    let report = first.report.as_ref();
    let count = |name, v: u64| metric(name, v as f64, "count");
    vec![
        metric("problem.instance_s", per_trial(&|r| secs(r.instance)), "s"),
        metric("netsim.open_s", per_trial(&|r| secs(r.net_open)), "s"),
        metric("session.open_s", per_trial(&|r| secs(r.open)), "s"),
        metric("session.step_s", per_trial(&|r| secs(r.step_self())), "s"),
        metric(
            "adversary.busy_s",
            per_trial(&|r| secs(r.adversary_busy)),
            "s",
        ),
        count("adversary.calls", first.adversary_calls),
        metric("adversary.ns_per_frame", per_frame(adversary), "ns"),
        metric("netsim.ns_per_frame", per_frame(step_self), "ns"),
        count("netsim.rounds", first.stats.rounds),
        count("netsim.frames", first.stats.frames_sent),
        count("netsim.bits", first.stats.bits_sent),
        count("netsim.edges_corrupted", first.stats.edges_corrupted),
        count("netsim.frames_corrupted", first.stats.frames_corrupted),
        count(
            "netsim.peak_fault_degree",
            first.stats.peak_fault_degree as u64,
        ),
        count("codes.codewords_encoded", misses),
        count("codes.cache_hits", hits),
        metric(
            "codes.cache_hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            "ratio",
        ),
        metric(
            "routing.engine",
            match report.map(|r| r.engine) {
                None => 0.0,
                Some(EngineUsed::Unit) => 1.0,
                Some(EngineUsed::CoverFree) => 2.0,
            },
            "id",
        ),
        count("routing.stages", report.map_or(0, |r| r.stages as u64)),
        count("routing.chunks", report.map_or(0, |r| r.chunks as u64)),
        count(
            "routing.decode_failures",
            report.map_or(0, |r| r.decode_failures as u64),
        ),
        metric("traced.trial_s", per_trial(&|r| secs(r.trial())), "s"),
    ]
}
