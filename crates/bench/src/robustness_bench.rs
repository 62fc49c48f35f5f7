//! Chaos-replay harness for the fault-tolerant compile service (PR 6).
//!
//! Replays the Fig. 13 serving trace (every model × batch size, expanded to
//! the per-decode-step kernel programs) from several concurrent clients
//! against a disk-backed [`CompileService`], once per **fault schedule**:
//! a fault-free reference, disk chaos (corrupt reads, failed writes, stale
//! versions, I/O latency), a synthesis panic storm, worker-pool deaths,
//! deadline pressure, admission overload, and a cancellation storm (PR 8:
//! stalled searches under per-request deadlines, a synthesis watchdog and
//! a mid-burst shutdown — every abort must be a typed error, free its
//! admission slot promptly, and never cache a partial result).
//!
//! Three properties are *checked*, not just reported, and any violation
//! fails the process through [`crate::checks`]:
//!
//! 1. **Bit-identity** — every artifact served under faults equals the
//!    fault-free reference artifact for the same fingerprint.
//! 2. **Availability floors** — each schedule must keep at least its
//!    configured fraction of requests succeeding (1.0 for the fault-free
//!    and disk-chaos schedules: disk-level faults must be fully
//!    transparent).
//! 3. **Bounded wall clock** — a schedule that exceeds its time budget is
//!    reported as a deadlock and the process exits nonzero immediately.
//!
//! The per-schedule counters (shed, deadline-expired, retries, panics,
//! quarantines, breaker trips, queue depths, pool deaths/respawns) feed
//! `BENCH_pr8.json` via the `repro_robustness` binary.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use hexcute_arch::GpuArch;
use hexcute_core::{
    faults, CompileError, CompilerOptions, FaultInjector, FaultKind, FaultSpec, KernelArtifact,
    KernelCacheConfig,
};
use hexcute_e2e::{
    decode_latency_ms_with, decode_step_programs, CompileResponse, CompileService, KernelBackend,
    ModelConfig, ServiceConfig,
};
use hexcute_ir::Program;
use hexcute_parallel::pool_stats;

use crate::checks;

/// Hard per-schedule wall-clock budget: exceeding it is treated as a
/// deadlock (hung coalesced waiter, stuck queue) and fails the process.
pub const SCHEDULE_WALL_LIMIT: Duration = Duration::from_secs(600);

/// Upper bound on the p99 cancel-to-worker-free latency: a cancelled
/// synthesis must release its admission slot within the cancellation-poll
/// granularity (one search row plus an interruptible stall slice), never
/// hold it for the rest of the search.
pub const CANCEL_FREE_P99_LIMIT: Duration = Duration::from_millis(500);

/// One fault schedule: an injected-fault mix plus the service policy and
/// client pressure it is replayed under.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Schedule name (JSON key).
    pub name: &'static str,
    /// What the schedule stresses.
    pub description: &'static str,
    /// Injected faults; `None` replays fault-free.
    pub spec: Option<FaultSpec>,
    /// Whether the worker-pool fault hook is installed for this schedule.
    pub pool_hook: bool,
    /// Whether the synthesis fault hook (search-row stalls, cancel races)
    /// is installed for this schedule.
    pub synth_hook: bool,
    /// Admission: concurrent synthesis slots (0 = unbounded).
    pub max_concurrent: usize,
    /// Admission: pending-queue capacity.
    pub queue_capacity: usize,
    /// Per-request deadline.
    pub deadline: Option<Duration>,
    /// Per-synthesis watchdog budget ([`ServiceConfig::watchdog`]).
    pub watchdog: Option<Duration>,
    /// Shut the cold service down once half of its pass-1 requests have
    /// arrived — queued waiters must drain typed and in-flight syntheses
    /// must cancel, mid-burst.
    pub shutdown_mid_burst: bool,
    /// Retry budget for transient failures.
    pub max_retries: usize,
    /// Concurrent client threads replaying the trace.
    pub clients: usize,
    /// Replay through [`CompileService::compile_batch`] in batches of this
    /// many consecutive trace programs instead of one `compile` call per
    /// request. The batch path is the only user of the worker pool, so
    /// pool-fault schedules set it.
    pub batch: Option<usize>,
    /// Minimum fraction of requests that must succeed.
    pub floor: f64,
    /// After the replay, verify the trace covered every decode-step kernel
    /// (serving the full model matrix again must synthesize nothing new).
    /// Only meaningful when replaying [`default_trace`] fault-free.
    pub verify_decode_coverage: bool,
}

/// The replayed fault schedules, fault-free reference first.
pub fn schedules() -> Vec<Schedule> {
    let base = Schedule {
        name: "fault_free",
        description: "reference replay, no injected faults",
        spec: None,
        pool_hook: false,
        synth_hook: false,
        max_concurrent: 0,
        queue_capacity: 64,
        deadline: None,
        watchdog: None,
        shutdown_mid_burst: false,
        max_retries: 2,
        clients: 4,
        batch: None,
        floor: 1.0,
        verify_decode_coverage: false,
    };
    vec![
        Schedule {
            verify_decode_coverage: true,
            ..base.clone()
        },
        Schedule {
            name: "disk_chaos",
            description: "corrupt reads, failed writes, stale versions, I/O latency",
            spec: Some(
                FaultSpec {
                    io_delay: Duration::from_micros(200),
                    ..FaultSpec::default()
                }
                .with_rate(FaultKind::DiskReadCorrupt, 0.30)
                .with_rate(FaultKind::DiskWriteFail, 0.20)
                .with_rate(FaultKind::StaleVersion, 0.10)
                .with_seed(7),
            ),
            floor: 1.0, // disk faults must be fully transparent
            ..base.clone()
        },
        Schedule {
            name: "panic_storm",
            description: "40% of syntheses panic mid-flight",
            spec: Some(
                FaultSpec::default()
                    .with_rate(FaultKind::SynthPanic, 0.40)
                    .with_seed(11),
            ),
            max_retries: 3,
            floor: 0.85,
            ..base.clone()
        },
        Schedule {
            name: "worker_chaos",
            description: "worker threads die and jobs panic inside the pool",
            spec: Some(
                FaultSpec::default()
                    .with_rate(FaultKind::WorkerDeath, 0.05)
                    .with_rate(FaultKind::WorkerPanic, 0.02)
                    .with_seed(13),
            ),
            pool_hook: true,
            // Small batches from many clients: many pool jobs, so workers
            // claim (and die) often. A compilation itself never touches the
            // pool.
            batch: Some(2),
            clients: 8,
            max_retries: 3,
            floor: 0.85,
            ..base.clone()
        },
        Schedule {
            name: "deadline_pressure",
            description: "tight per-request deadlines over slow disk I/O",
            // The injected 30ms store latency keeps each synthesis in
            // flight well past the 25ms deadline, so coalesced waiters
            // reliably time out regardless of how fast the host compiles.
            spec: Some(FaultSpec {
                io_delay: Duration::from_millis(30),
                ..FaultSpec::default()
            }),
            deadline: Some(Duration::from_millis(25)),
            clients: 6,
            floor: 0.35,
            ..base.clone()
        },
        Schedule {
            name: "overload",
            description: "one synthesis slot, queue of two, eight clients",
            max_concurrent: 1,
            queue_capacity: 2,
            clients: 8,
            floor: 0.25,
            ..base.clone()
        },
        Schedule {
            name: "cancellation_storm",
            description: "stalled searches under deadlines, a watchdog and a mid-burst shutdown",
            // Search-row stalls slow syntheses into the deadline/watchdog
            // window; cancel races delay cancellation polls to stress the
            // first-cancel-wins path.
            spec: Some(
                FaultSpec {
                    synth_stall: Duration::from_millis(5),
                    ..FaultSpec::default()
                }
                .with_rate(FaultKind::SynthStall, 0.10)
                .with_rate(FaultKind::CancelRace, 0.10)
                .with_seed(17),
            ),
            synth_hook: true,
            max_concurrent: 2,
            queue_capacity: 16,
            deadline: Some(Duration::from_millis(150)),
            watchdog: Some(Duration::from_millis(80)),
            shutdown_mid_burst: true,
            max_retries: 1,
            clients: 6,
            floor: 0.20,
            ..base
        },
    ]
}

/// The serving trace: the per-decode-step kernel programs of every Fig. 13
/// model × batch-size configuration.
pub fn default_trace() -> Vec<Program> {
    let models = [
        ModelConfig::deepseek_r1_awq(),
        ModelConfig::jamba_mini(),
        ModelConfig::qwen3_32b(),
        ModelConfig::llama3_70b_awq(),
        ModelConfig::mixtral_8x7b(),
    ];
    let mut trace = Vec::new();
    for model in &models {
        for batch in [1usize, 8] {
            trace.extend(decode_step_programs(model, batch, 2048));
        }
    }
    trace
}

/// Everything measured while replaying one schedule.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Schedule name.
    pub name: String,
    /// Rendered fault spec (`none` when fault-free).
    pub spec: String,
    /// Configured availability floor.
    pub floor: f64,
    /// Client-observed request outcomes.
    pub requests: u64,
    /// Requests that returned an artifact.
    pub ok: u64,
    /// Requests that returned a typed error.
    pub failed: u64,
    /// … of which `Overloaded`.
    pub overloaded: u64,
    /// … of which `DeadlineExceeded`.
    pub deadline_expired: u64,
    /// … of which `Panicked`.
    pub panicked: u64,
    /// … of which `Cancelled` (shutdown drains, mostly).
    pub cancelled: u64,
    /// … of which `SynthesisTimeout` (watchdog trips).
    pub watchdog_timeouts: u64,
    /// … of which any other error (must stay zero).
    pub other_errors: u64,
    /// ok / requests.
    pub availability: f64,
    /// Artifacts that differed from the fault-free reference (must be 0).
    pub mismatches: u64,
    /// Service counters after the replay.
    pub shed: u64,
    /// Requests whose deadline expired (service view).
    pub deadline_exceeded: u64,
    /// Transparent retries of transient failures.
    pub retries: u64,
    /// Syntheses that panicked (injected).
    pub synth_panics: u64,
    /// Requests that joined another request's synthesis.
    pub coalesced: u64,
    /// Synthesis attempts claimed.
    pub syntheses: u64,
    /// High-water mark of the admission queue.
    pub max_queue_depth: u64,
    /// In-flight syntheses aborted by cooperative cancellation (service
    /// view, both passes).
    pub synth_cancelled: u64,
    /// Watchdog trips (service view, both passes).
    pub watchdog_trips: u64,
    /// Requests drained with a typed shutdown cancellation.
    pub shutdown_drained: u64,
    /// 99th-percentile cancel-to-worker-free latency (ms); 0 when nothing
    /// was cancelled. Checked against [`CANCEL_FREE_P99_LIMIT`].
    pub cancel_free_p99_ms: f64,
    /// Cache: corrupt files moved aside.
    pub quarantined: u64,
    /// Cache: failed disk writes.
    pub write_failures: u64,
    /// Cache: circuit-breaker trips into memory-only mode.
    pub breaker_trips: u64,
    /// Cache: probe-driven breaker recoveries.
    pub breaker_recoveries: u64,
    /// Cache: artifacts rejected for version drift.
    pub stale_version: u64,
    /// Faults the injector actually fired.
    pub injected_faults: u64,
    /// Worker-pool jobs submitted during the replay.
    pub pool_jobs: u64,
    /// Worker-pool items executed during the replay.
    pub pool_items: u64,
    /// Worker threads that died during the replay.
    pub pool_deaths: u64,
    /// Worker threads revived during the replay.
    pub pool_respawns: u64,
    /// Median client-observed request latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile client-observed request latency (ms).
    pub p99_ms: f64,
    /// Whole-schedule wall time (s).
    pub wall_s: f64,
}

#[derive(Default)]
struct Tally {
    ok: u64,
    overloaded: u64,
    deadline_expired: u64,
    panicked: u64,
    cancelled: u64,
    watchdog_timeouts: u64,
    other: u64,
    unexpected: Vec<String>,
    latencies_ms: Vec<f64>,
    artifacts: HashMap<u64, Arc<KernelArtifact>>,
}

impl Tally {
    /// Records one request's outcome, observed `ms` after it was issued.
    fn record(&mut self, ms: f64, outcome: Result<CompileResponse, CompileError>) {
        self.latencies_ms.push(ms);
        match outcome {
            Ok(resp) => {
                self.ok += 1;
                self.artifacts
                    .entry(resp.artifact.fingerprint)
                    .or_insert_with(|| Arc::clone(&resp.artifact));
            }
            Err(CompileError::Overloaded { .. }) => self.overloaded += 1,
            Err(CompileError::DeadlineExceeded { .. }) => self.deadline_expired += 1,
            Err(CompileError::Panicked(_)) => self.panicked += 1,
            Err(CompileError::Cancelled { .. }) => self.cancelled += 1,
            Err(CompileError::SynthesisTimeout { .. }) => self.watchdog_timeouts += 1,
            Err(e) => {
                self.other += 1;
                self.unexpected.push(e.to_string());
            }
        }
    }
}

fn unique_temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hexcute-robustness-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Silences the backtraces of *injected* panics (their payloads start with
/// `injected:`) so a chaos run's output stays readable; every other panic
/// still reaches the previous hook. Installed once per process.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.starts_with("injected"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.starts_with("injected"))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Replays `trace` under one schedule and verifies its invariants.
///
/// Returns the measurements plus the served artifacts by fingerprint (the
/// fault-free run's map becomes the bit-identity `reference` for the
/// others). Violations are recorded through [`crate::checks`]; a replay
/// exceeding [`SCHEDULE_WALL_LIMIT`] exits the process immediately.
pub fn run_schedule(
    schedule: &Schedule,
    trace: &[Program],
    reference: Option<&HashMap<u64, Arc<KernelArtifact>>>,
) -> (ScheduleResult, HashMap<u64, Arc<KernelArtifact>>) {
    silence_injected_panics();
    let dir = unique_temp_dir(schedule.name);
    let injector = schedule.spec.clone().map(FaultInjector::new);
    if schedule.pool_hook {
        if let Some(inj) = &injector {
            faults::install_pool_hook(inj);
        }
    }
    if schedule.synth_hook {
        if let Some(inj) = &injector {
            faults::install_synth_hook(inj);
        }
    }
    let pool_before = pool_stats();
    let started = Instant::now();

    let service_config = ServiceConfig {
        max_concurrent: schedule.max_concurrent,
        queue_capacity: schedule.queue_capacity,
        deadline: schedule.deadline,
        watchdog: schedule.watchdog,
        max_retries: schedule.max_retries,
        retry_backoff: Duration::from_millis(1),
        seed: 42,
        faults: injector.clone(),
        ..ServiceConfig::default()
    };
    let cache_config = KernelCacheConfig {
        dir: Some(dir.clone()),
        ..KernelCacheConfig::default()
    };
    // Pass 1 (cold) runs against `service`; pass 2 runs against a *fresh*
    // service over the same directory and the same injector — a process
    // restart, so the warm pass actually reads the disk tier under faults
    // instead of hitting the first service's memory front.
    let service = Arc::new(CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        cache_config.clone(),
        service_config.clone(),
    ));
    let restarted = Arc::new(CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        cache_config,
        service_config,
    ));

    // The replay runs on its own threads so this thread can enforce the
    // wall-clock deadlock bound from outside.
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = {
        let passes = [Arc::clone(&service), Arc::clone(&restarted)];
        let trace: Arc<Vec<Program>> = Arc::new(trace.to_vec());
        let clients = schedule.clients;
        let batch = schedule.batch;
        let verify_coverage = schedule.verify_decode_coverage;
        let shutdown_mid_burst = schedule.shutdown_mid_burst;
        std::thread::spawn(move || {
            let tally = Arc::new(Mutex::new(Tally::default()));
            let barrier = Arc::new(Barrier::new(clients));
            // Mid-burst shutdown: once half of the cold pass's requests
            // have arrived, shut the cold service down while clients are
            // still bursting against it. (Every client issues the full
            // trace in pass 1, so the threshold is always reached.)
            let shutdown_watcher = shutdown_mid_burst.then(|| {
                let cold = Arc::clone(&passes[0]);
                let threshold = (clients * trace.len()) as u64 / 2;
                std::thread::spawn(move || {
                    while cold.stats().requests < threshold.max(1) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    cold.shutdown();
                })
            });
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    let passes = [Arc::clone(&passes[0]), Arc::clone(&passes[1])];
                    let trace = Arc::clone(&trace);
                    let tally = Arc::clone(&tally);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        // Two passes: cold (synthesis under faults), then
                        // warm after a restart (disk reads under faults).
                        for service in &passes {
                            barrier.wait();
                            // A batch member's response arrives when its
                            // whole batch returns.
                            for chunk in trace.chunks(batch.unwrap_or(1)) {
                                let t0 = Instant::now();
                                let outcomes = match batch {
                                    Some(_) => service.compile_batch(chunk.to_vec()),
                                    None => vec![service.compile(&chunk[0])],
                                };
                                let ms = t0.elapsed().as_secs_f64() * 1e3;
                                let mut t = tally.lock().unwrap();
                                for outcome in outcomes {
                                    t.record(ms, outcome);
                                }
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                let _ = w.join();
            }
            if let Some(watcher) = shutdown_watcher {
                let _ = watcher.join();
            }
            if verify_coverage {
                // The trace must cover the whole decode step: serving every
                // model configuration again may not synthesize anything new.
                let warm = &passes[1];
                let syntheses_after_replay = warm.stats().syntheses;
                for model in [
                    ModelConfig::deepseek_r1_awq(),
                    ModelConfig::jamba_mini(),
                    ModelConfig::qwen3_32b(),
                    ModelConfig::llama3_70b_awq(),
                    ModelConfig::mixtral_8x7b(),
                ] {
                    for batch in [1usize, 8] {
                        decode_latency_ms_with(&model, KernelBackend::Hexcute, batch, 2048, warm);
                    }
                }
                checks::check(
                    warm.stats().syntheses == syntheses_after_replay,
                    "the replay trace must cover every decode-step kernel",
                );
            }
            let tally = Arc::try_unwrap(tally)
                .map(|m| m.into_inner().unwrap())
                .unwrap_or_else(|_| panic!("tally still shared"));
            tx.send(tally).ok();
        })
    };

    let tally = match rx.recv_timeout(SCHEDULE_WALL_LIMIT) {
        Ok(tally) => {
            let _ = runner.join();
            tally
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            checks::check(
                false,
                &format!(
                    "schedule {} exceeded its {}s wall-clock bound — deadlock",
                    schedule.name,
                    SCHEDULE_WALL_LIMIT.as_secs()
                ),
            );
            checks::exit_if_failed();
            unreachable!("exit_if_failed returns only when no check failed");
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            checks::check(
                false,
                &format!("schedule {}: the replay runner died", schedule.name),
            );
            checks::exit_if_failed();
            unreachable!("exit_if_failed returns only when no check failed");
        }
    };
    if schedule.synth_hook {
        faults::clear_synth_hook();
    }
    if schedule.pool_hook {
        faults::clear_pool_hook();
        // Respawn bookkeeping runs on the replacement worker's own thread;
        // give stragglers a moment before snapshotting the pool counters.
        let settle = Instant::now();
        while settle.elapsed() < Duration::from_secs(2) {
            let s = pool_stats();
            if s.respawns >= s.deaths {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    // Bit-identity against the fault-free reference.
    let mut mismatches = 0u64;
    if let Some(reference) = reference {
        for (fingerprint, artifact) in &tally.artifacts {
            match reference.get(fingerprint) {
                Some(r) if **r == **artifact => {}
                _ => mismatches += 1,
            }
        }
    }

    // Both passes count: the cold service and the restarted one.
    let cold = service.stats();
    let warm = restarted.stats();
    let pool_after = pool_stats();
    let mut cancel_free: Vec<Duration> = service.cancel_to_free_latencies();
    cancel_free.extend(restarted.cancel_to_free_latencies());
    let mut cancel_free_ms: Vec<f64> = cancel_free.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    cancel_free_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let failed = tally.overloaded
        + tally.deadline_expired
        + tally.panicked
        + tally.cancelled
        + tally.watchdog_timeouts
        + tally.other;
    let requests = tally.ok + failed;
    let availability = if requests == 0 {
        0.0
    } else {
        tally.ok as f64 / requests as f64
    };
    let mut sorted = tally.latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let result = ScheduleResult {
        name: schedule.name.to_string(),
        spec: schedule
            .spec
            .as_ref()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "none".to_string()),
        floor: schedule.floor,
        requests,
        ok: tally.ok,
        failed,
        overloaded: tally.overloaded,
        deadline_expired: tally.deadline_expired,
        panicked: tally.panicked,
        cancelled: tally.cancelled,
        watchdog_timeouts: tally.watchdog_timeouts,
        other_errors: tally.other,
        availability,
        mismatches,
        shed: cold.shed + warm.shed,
        deadline_exceeded: cold.deadline_exceeded + warm.deadline_exceeded,
        retries: cold.retries + warm.retries,
        synth_panics: cold.synth_panics + warm.synth_panics,
        coalesced: cold.coalesced + warm.coalesced,
        syntheses: cold.syntheses + warm.syntheses,
        max_queue_depth: cold.max_queue_depth.max(warm.max_queue_depth),
        synth_cancelled: cold.cancelled + warm.cancelled,
        watchdog_trips: cold.watchdog_trips + warm.watchdog_trips,
        shutdown_drained: cold.shutdown_drained + warm.shutdown_drained,
        cancel_free_p99_ms: percentile(&cancel_free_ms, 0.99),
        quarantined: cold.cache.quarantined + warm.cache.quarantined,
        write_failures: cold.cache.write_failures + warm.cache.write_failures,
        breaker_trips: cold.cache.breaker_trips + warm.cache.breaker_trips,
        breaker_recoveries: cold.cache.breaker_recoveries + warm.cache.breaker_recoveries,
        stale_version: cold.cache.stale_version + warm.cache.stale_version,
        injected_faults: injector.as_ref().map(|i| i.injected_total()).unwrap_or(0),
        pool_jobs: pool_after.jobs - pool_before.jobs,
        pool_items: pool_after.items - pool_before.items,
        pool_deaths: pool_after.deaths - pool_before.deaths,
        pool_respawns: pool_after.respawns - pool_before.respawns,
        p50_ms: percentile(&sorted, 0.50),
        p99_ms: percentile(&sorted, 0.99),
        wall_s,
    };

    // The schedule's invariants.
    checks::check(
        result.availability >= result.floor,
        &format!(
            "{}: availability {:.3} below floor {:.2}",
            result.name, result.availability, result.floor
        ),
    );
    checks::check(
        result.mismatches == 0,
        &format!(
            "{}: {} artifacts diverged from the fault-free reference",
            result.name, result.mismatches
        ),
    );
    checks::check(
        result.other_errors == 0,
        &format!(
            "{}: untyped failures: {:?}",
            result.name,
            tally.unexpected.first()
        ),
    );
    // Without injected faults *or* admission pressure (the overload
    // schedule sheds by design), nothing may fail.
    if schedule.spec.is_none() && schedule.max_concurrent == 0 {
        checks::check(
            result.failed == 0,
            &format!("{}: failures without any injected fault", result.name),
        );
    }
    if schedule.pool_hook {
        checks::check(
            result.pool_deaths == result.pool_respawns,
            &format!(
                "{}: {} worker deaths but only {} respawns",
                result.name, result.pool_deaths, result.pool_respawns
            ),
        );
        // A pool-fault schedule that never reached the pool proves
        // nothing: it must have killed workers and panicked job items.
        // (With one pool worker, `HEXCUTE_THREADS=1` or a single-core
        // host, batches run serially and this check fails on purpose.)
        let job_panics = injector
            .as_ref()
            .map_or(0, |i| i.injected(FaultKind::WorkerPanic));
        checks::check(
            result.pool_deaths > 0 && job_panics > 0,
            &format!(
                "{}: vacuous pool chaos ({} worker deaths, {job_panics} job panics, \
                 {} pool workers)",
                result.name,
                result.pool_deaths,
                hexcute_parallel::worker_count()
            ),
        );
    }
    // Cancellation invariants: every cancelled synthesis must have freed
    // its admission slot (no leaked slots once all clients returned), and
    // promptly — the p99 cancel-to-worker-free latency stays within the
    // cancellation-poll bound.
    checks::check(
        cold.queue_depth == 0 && warm.queue_depth == 0,
        &format!(
            "{}: leaked admission slots (queue depths {} / {})",
            result.name, cold.queue_depth, warm.queue_depth
        ),
    );
    if !cancel_free_ms.is_empty() {
        checks::check(
            result.cancel_free_p99_ms <= CANCEL_FREE_P99_LIMIT.as_secs_f64() * 1e3,
            &format!(
                "{}: p99 cancel-to-worker-free latency {:.1}ms exceeds {}ms",
                result.name,
                result.cancel_free_p99_ms,
                CANCEL_FREE_P99_LIMIT.as_millis()
            ),
        );
    }
    if schedule.shutdown_mid_burst {
        checks::check(
            result.shutdown_drained > 0,
            &format!(
                "{}: a mid-burst shutdown must drain at least one request",
                result.name
            ),
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    (result, tally.artifacts)
}

/// Replays the default trace under every schedule, fault-free first (its
/// artifacts become the bit-identity reference), and returns all results
/// plus `(trace kernels, distinct fingerprints)`.
pub fn run_all() -> (Vec<ScheduleResult>, (usize, usize)) {
    let trace = default_trace();
    let mut results = Vec::new();
    let mut reference: Option<HashMap<u64, Arc<KernelArtifact>>> = None;
    for schedule in schedules() {
        let (result, artifacts) = run_schedule(&schedule, &trace, reference.as_ref());
        results.push(result);
        if reference.is_none() {
            checks::check(
                !artifacts.is_empty(),
                "the fault-free replay must produce reference artifacts",
            );
            reference = Some(artifacts);
        }
    }
    let distinct = reference.map(|r| r.len()).unwrap_or(0);
    (results, (trace.len(), distinct))
}

/// Renders the results as the `BENCH_pr8.json` document.
pub fn to_json(results: &[ScheduleResult], trace_kernels: usize, distinct: usize) -> String {
    let mut out = format!(
        "{{\n  \"benchmark\": \"fault-tolerant compile serving under chaos schedules\",\n  \
         \"meta\": {{\n    \"threads\": {},\n    \"host_parallelism\": {},\n    \
         \"os\": \"{}\",\n    \"arch\": \"{}\"\n  }},\n  \"trace\": {{\n    \
         \"kernels_per_pass\": {trace_kernels},\n    \"distinct_fingerprints\": {distinct},\n    \
         \"passes\": 2\n  }},\n  \"schedules\": {{\n",
        hexcute_parallel::worker_count(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        std::env::consts::OS,
        std::env::consts::ARCH,
    );
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"spec\": \"{}\",\n      \"availability\": {:.4},\n      \
             \"floor\": {:.2},\n      \"requests\": {},\n      \"ok\": {},\n      \
             \"failed\": {},\n      \"overloaded\": {},\n      \"deadline_expired\": {},\n      \
             \"panicked\": {},\n      \"cancelled\": {},\n      \"watchdog_timeouts\": {},\n      \
             \"mismatches\": {},\n      \"shed\": {},\n      \
             \"retries\": {},\n      \"synth_panics\": {},\n      \"coalesced\": {},\n      \
             \"syntheses\": {},\n      \"max_queue_depth\": {},\n      \
             \"synth_cancelled\": {},\n      \"watchdog_trips\": {},\n      \
             \"shutdown_drained\": {},\n      \
             \"cancel_free_p99_ms\": {:.3},\n      \"quarantined\": {},\n      \
             \"write_failures\": {},\n      \"breaker_trips\": {},\n      \
             \"breaker_recoveries\": {},\n      \"stale_version\": {},\n      \
             \"injected_faults\": {},\n      \"pool_jobs\": {},\n      \"pool_items\": {},\n      \
             \"pool_deaths\": {},\n      \"pool_respawns\": {},\n      \"p50_ms\": {:.3},\n      \
             \"p99_ms\": {:.3},\n      \"wall_s\": {:.2}\n    }}{}\n",
            r.name,
            r.spec,
            r.availability,
            r.floor,
            r.requests,
            r.ok,
            r.failed,
            r.overloaded,
            r.deadline_expired,
            r.panicked,
            r.cancelled,
            r.watchdog_timeouts,
            r.mismatches,
            r.shed,
            r.retries,
            r.synth_panics,
            r.coalesced,
            r.syntheses,
            r.max_queue_depth,
            r.synth_cancelled,
            r.watchdog_trips,
            r.shutdown_drained,
            r.cancel_free_p99_ms,
            r.quarantined,
            r.write_failures,
            r.breaker_trips,
            r.breaker_recoveries,
            r.stale_version,
            r.injected_faults,
            r.pool_jobs,
            r.pool_items,
            r.pool_deaths,
            r.pool_respawns,
            r.p50_ms,
            r.p99_ms,
            r.wall_s,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};

    fn tiny_trace() -> Vec<Program> {
        vec![
            fp16_gemm(GemmShape::new(128, 128, 64), GemmConfig::default()).unwrap(),
            fp16_gemm(GemmShape::new(128, 128, 128), GemmConfig::default()).unwrap(),
        ]
    }

    #[test]
    fn disk_chaos_replay_is_fully_available_and_bit_identical() {
        let all = schedules();
        let trace = tiny_trace();
        let reference_schedule = Schedule {
            clients: 2,
            // The tiny trace deliberately doesn't cover the decode step.
            verify_decode_coverage: false,
            ..all[0].clone()
        };
        let failures_before = checks::failures();
        let (reference_result, reference) = run_schedule(&reference_schedule, &trace, None);
        assert_eq!(reference_result.availability, 1.0);
        assert_eq!(reference.len(), 2);

        let chaos = Schedule {
            clients: 2,
            ..all.iter().find(|s| s.name == "disk_chaos").unwrap().clone()
        };
        let (result, _) = run_schedule(&chaos, &trace, Some(&reference));
        assert_eq!(result.availability, 1.0, "disk faults must be transparent");
        assert_eq!(result.mismatches, 0);
        assert!(
            result.injected_faults > 0,
            "the schedule must actually inject"
        );
        assert_eq!(
            checks::failures(),
            failures_before,
            "no harness invariant may fail"
        );
    }

    #[test]
    fn cancellation_storm_replay_stays_typed_and_leak_free() {
        let all = schedules();
        let trace = tiny_trace();
        let storm = Schedule {
            clients: 2,
            // Debug-build syntheses are slow enough that the watchdog and the
            // deadline may cancel everything; this test is about typed errors
            // and slot hygiene, not throughput, so drop the floor.
            floor: 0.0,
            verify_decode_coverage: false,
            ..all
                .iter()
                .find(|s| s.name == "cancellation_storm")
                .unwrap()
                .clone()
        };
        let failures_before = checks::failures();
        let (result, _) = run_schedule(&storm, &trace, None);
        assert_eq!(
            result.other_errors, 0,
            "every failure must be a typed cancellation-ladder error"
        );
        assert!(
            result.shutdown_drained > 0,
            "the mid-burst shutdown must drain at least one request"
        );
        assert_eq!(
            checks::failures(),
            failures_before,
            "no harness invariant may fail (leaked slots, unbounded cancel-to-free)"
        );
    }

    #[test]
    fn json_report_includes_every_schedule_field() {
        let result = ScheduleResult {
            name: "fault_free".into(),
            spec: "none".into(),
            floor: 1.0,
            requests: 8,
            ok: 8,
            failed: 0,
            overloaded: 0,
            deadline_expired: 0,
            panicked: 0,
            cancelled: 0,
            watchdog_timeouts: 0,
            other_errors: 0,
            availability: 1.0,
            mismatches: 0,
            shed: 0,
            deadline_exceeded: 0,
            retries: 0,
            synth_panics: 0,
            coalesced: 3,
            syntheses: 2,
            max_queue_depth: 1,
            synth_cancelled: 0,
            watchdog_trips: 0,
            shutdown_drained: 0,
            cancel_free_p99_ms: 0.0,
            quarantined: 0,
            write_failures: 0,
            breaker_trips: 0,
            breaker_recoveries: 0,
            stale_version: 0,
            injected_faults: 0,
            pool_jobs: 2,
            pool_items: 10,
            pool_deaths: 0,
            pool_respawns: 0,
            p50_ms: 1.5,
            p99_ms: 20.0,
            wall_s: 0.5,
        };
        let json = to_json(&[result], 2, 2);
        for key in [
            "\"availability\"",
            "\"floor\"",
            "\"shed\"",
            "\"max_queue_depth\"",
            "\"quarantined\"",
            "\"breaker_trips\"",
            "\"pool_respawns\"",
            "\"p99_ms\"",
            "\"distinct_fingerprints\"",
            "\"cancelled\"",
            "\"watchdog_trips\"",
            "\"shutdown_drained\"",
            "\"cancel_free_p99_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
