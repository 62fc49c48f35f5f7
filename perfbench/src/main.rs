//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_compile|warmup_batch|serve_replay \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! All timing is taken from outside the compiler: the benchmark times its
//! own calls into each crate's public functions and reads the public stats
//! snapshots. It prints a report line and, last, one JSON result line; it
//! exits nonzero when any output is wrong. See `perfbench/README.md` for the
//! workloads, the metrics and the layer-to-metric map.

mod gate;
mod gen;
mod layers;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{geomean, median, metric, percentile, quote, ratio, Metric};
use workloads::{Ctx, Run};

const WORKLOADS: [&str; 3] = ["cold_compile", "warmup_batch", "serve_replay"];

/// Extra processes that repeat the set-up, so `setup_s` is a median of
/// several process starts.
const SETUP_CHILDREN: usize = 4;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: gen::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.bless && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn expected_path() -> PathBuf {
    package_dir().join(gate::EXPECTED_FILE)
}

/// FNV-1a over the paths and contents of the compiler's sources, so a
/// result names the code it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let root = package_dir().join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend(
            file.strip_prefix(&root)
                .unwrap_or(file)
                .to_string_lossy()
                .bytes(),
        );
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", gate::fnv1a(&bytes))
}

/// Run metadata: recorded with every result.
fn metadata() -> Vec<(&'static str, String)> {
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(package_dir())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let hexcute_vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("HEXCUTE_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vec![
        ("git_revision", output("git", &["rev-parse", "HEAD"])),
        ("source_digest", source_digest()),
        ("rustc", output("rustc", &["--version"])),
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        ),
        ("workers", hexcute_parallel::worker_count().to_string()),
        ("hexcute_env", hexcute_vars.join(" ")),
    ]
}

/// A workload after set-up, before its timed window.
enum Prepared {
    Cold(Box<workloads::Cold>),
    Warmup(workloads::Warmup),
    Serve(Box<workloads::Serve>),
}

fn setup(ctx: &Ctx, run: &mut Run) -> Prepared {
    let prepared = match ctx.workload.as_str() {
        "cold_compile" => Prepared::Cold(Box::new(workloads::cold_setup(ctx, run))),
        "warmup_batch" => Prepared::Warmup(workloads::warmup_setup(ctx, run)),
        _ => Prepared::Serve(Box::new(workloads::serve_setup(ctx, run))),
    };
    run.setup_s = ctx.started.elapsed().as_secs_f64();
    prepared
}

/// Set-up times of [`SETUP_CHILDREN`] fresh processes of this benchmark.
fn child_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                    "--setup-only",
                ])
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up child failed: {}",
                        String::from_utf8_lossy(&out.stderr).trim()
                    )
                })
        })
        .collect()
}

fn bless() -> ExitCode {
    let service = hexcute_e2e::CompileService::new(workloads::arch());
    match gate::digest_lines(&service) {
        Ok(lines) => {
            let text = format!(
                "# index\tkernel\tFNV-1a of the emitted source\tbits of the simulated latency\n{}\n",
                lines.join("\n")
            );
            if let Err(e) = std::fs::write(expected_path(), text) {
                eprintln!("perfbench: writing {}: {e}", expected_path().display());
                return ExitCode::FAILURE;
            }
            eprintln!("perfbench: wrote {} digests", lines.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    if args.bless {
        return bless();
    }
    if std::env::vars().any(|(k, _)| k.starts_with("HEXCUTE_")) {
        eprintln!(
            "perfbench: HEXCUTE_* variables are set; the benchmark measures the shipped defaults"
        );
        return ExitCode::from(2);
    }
    let expected = match std::fs::read_to_string(expected_path()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: reading {}: {e}", expected_path().display());
            return ExitCode::from(2);
        }
    };

    let work = std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(".bench_work")
        .join(format!(
            "{}-{}-{}",
            args.workload,
            std::process::id(),
            started.elapsed().as_nanos()
        ));
    if std::fs::create_dir_all(&work).is_err() {
        eprintln!("perfbench: cannot create {}", work.display());
        return ExitCode::from(2);
    }
    let _guard = WorkDir(work.clone());
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        started,
        work,
    };

    if args.setup_only {
        let mut run = Run::default();
        let prepared = setup(&ctx, &mut run);
        println!("setup_s {}", run.setup_s);
        drop(prepared);
        return ExitCode::SUCCESS;
    }

    let mut run = Run::default();
    let prepared = setup(&ctx, &mut run);
    let own_setup = run.setup_s;
    run.trace.setup_ms = own_setup * 1e3;
    let mut setups = match child_setups(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    setups.push(own_setup);
    match prepared {
        Prepared::Cold(c) => workloads::cold_compile(&ctx, &mut run, *c),
        Prepared::Warmup(w) => workloads::warmup_batch(&ctx, &mut run, w),
        Prepared::Serve(s) => workloads::serve_replay(&ctx, &mut run, *s),
    }
    run.trace.build_us = gen::BUILD_US
        .lock()
        .expect("build-time log poisoned")
        .clone();

    // The correctness gate, on every run.
    let gate_service = hexcute_e2e::CompileService::new(workloads::arch());
    let (digest_checks, digest_failures) = gate::check_digests(&gate_service, &expected);
    let (sim_checks, sim_failures) = gate::check_functional(&gate_service);
    run.trace.functional_checks = sim_checks as u64;
    *run.trace.failures.entry("sim").or_default() += sim_failures.len() as u64;
    let gate_failures: Vec<String> = digest_failures.into_iter().chain(sim_failures).collect();
    let correct = gate_failures.is_empty() && run.failed == 0;

    // Traced-run consistency.
    let mut consistency = Vec::new();
    if args.trace {
        // Batch replays have no per-compile served time to account for.
        let ratio = run.trace.phase_sum_ratio();
        if args.workload != "warmup_batch" && !(PHASE_SUM_MIN..=PHASE_SUM_MAX).contains(&ratio) {
            consistency.push(format!(
                "per-phase sums account for {ratio:.3} of the served compile time \
                 (tolerance {PHASE_SUM_MIN}..{PHASE_SUM_MAX})"
            ));
        }
        if run.trace.replays.is_empty() {
            consistency.push("the traced half replayed no compile".to_string());
        }
    }

    let latency: Vec<f64> = run.samples.iter().map(|&(_, l)| l).collect();
    // The tail percentile is fixed per workload: the highest one its sample
    // supports at the benchmark's run length.
    let (tail_q, tail_label) = if args.workload == "serve_replay" {
        (0.99, "p99")
    } else {
        (0.95, "p95")
    };
    let (p50, tail) = report::segment_medians(&run.samples, run.wall_s, tail_q);
    let per_segment = latency.len() / report::SEGMENTS;
    if !report::supports(per_segment, tail_q) {
        eprintln!(
            "perfbench: {per_segment} samples per segment do not support {tail_label}; \
             lengthen the run"
        );
    }
    let lateness = percentile(&run.trace.lateness_ms, 0.99);
    let slo_miss_share = ratio(run.slo_misses as f64, run.attempted as f64);
    let fail_share = ratio(run.failed as f64, run.attempted as f64);
    let e2e: Vec<Metric> = vec![
        metric("setup_s", "s", median(&setups)),
        metric("latency_p50_ms", "ms", p50),
        metric("latency_tail_ms", "ms", tail),
        metric(
            "kernels_per_s",
            "1/s",
            ratio(run.kernels as f64, run.wall_s),
        ),
        metric("kernel_us_geomean", "us", geomean(&run.geo_us)),
        metric("peak_rss_mb", "MB", run.peak_rss_mb),
    ];

    // The report line, for humans and logs: run metadata, the numbers that
    // are not bounded metrics, and the tail under its percentile's name.
    let mut report = vec![
        ("workload".to_string(), quote(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), args.trace.to_string()),
    ];
    for (k, v) in metadata() {
        report.push((k.to_string(), quote(&v)));
    }
    report.extend([
        ("samples".to_string(), latency.len().to_string()),
        ("excluded_samples".to_string(), run.excluded.to_string()),
        (format!("latency_{tail_label}_ms"), report::number(tail)),
        ("fail_share".to_string(), report::number(fail_share)),
        ("slo_miss_share".to_string(), report::number(slo_miss_share)),
        ("slo_ms".to_string(), report::number(workloads::SLO_MS)),
        ("setup_samples_s".to_string(), format!("{setups:?}")),
        (
            "gate_checks".to_string(),
            (digest_checks + sim_checks).to_string(),
        ),
        ("gen_lateness_p99_ms".to_string(), report::number(lateness)),
        (
            "generator_valid".to_string(),
            (lateness <= tail * MAX_LATENESS_SHARE).to_string(),
        ),
    ]);
    for m in &e2e {
        report.push((m.name.clone(), report::number(m.value)));
    }
    let body: Vec<String> = report
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!("report: {{{}}}", body.join(", "));

    for problem in run
        .problems
        .iter()
        .chain(&gate_failures)
        .chain(&consistency)
    {
        eprintln!("perfbench: {problem}");
    }
    let failed = run.failed + gate_failures.len() as u64 + consistency.len() as u64;
    let correct = correct && consistency.is_empty();
    let metrics = if args.trace {
        run.trace.metrics(&run.stats, &run.pool)
    } else {
        e2e
    };
    println!(
        "{}",
        report::result_line(correct, run.attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// An open-loop run is valid while its generator's p99 lateness stays below
/// this share of the tail latency it measures. With two blocking generator
/// threads, two overlapping cold compiles stall both, so some lateness is
/// inherent; it must not be what sets the tail.
const MAX_LATENESS_SHARE: f64 = 0.5;

/// Tolerance of the traced-run consistency check: the replayed phases of a
/// compile must add up to this share of the served compile's wall time. The
/// served time also holds what the replay cannot time from outside (the
/// service's claim and admission bookkeeping, the candidate memo lookups,
/// the name-keyed compiler memo), hence the room below 1.
const PHASE_SUM_MIN: f64 = 0.7;
const PHASE_SUM_MAX: f64 = 1.3;
