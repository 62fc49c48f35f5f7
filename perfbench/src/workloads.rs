//! The three workloads. Each one sets up, runs its timed window and
//! returns the raw observations; `main` turns them into metrics.
//!
//! In a traced run the first half of the window runs untraced and the
//! second half replays every request it sends (see [`crate::trace`]), so
//! one process yields both the per-layer numbers and the tracing overhead.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hexcute_arch::GpuArch;
use hexcute_core::{Compiler, CompilerOptions, KernelArtifact, KernelCacheConfig};
use hexcute_e2e::{CompileService, ServedFrom, ServiceConfig, ServiceStats};
use hexcute_ir::Program;
use hexcute_parallel::PoolStats;

use crate::gen;
use crate::layers::Trace;
use crate::trace::{self, Replayer};

/// Closed-loop workloads compute `kernel_us_geomean` over this fixed prefix
/// of their stream (every run completes it), so it repeats exactly for a
/// given seed.
pub const COLD_GEO_KERNELS: usize = gen::NARROW_PER_FAMILY * gen::FAMILIES.len();
pub const WARMUP_GEO_BATCHES: usize = 100;

/// Latency limit of `slo_miss_share` on `serve_replay`: above the slowest
/// family's cold compile on the reference host (attention, about 30 ms).
pub const SLO_MS: f64 = 50.0;

/// The run's inputs.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub started: Instant,
    pub work: PathBuf,
}

/// Raw observations of one run.
#[derive(Debug, Default)]
pub struct Run {
    pub setup_s: f64,
    /// Every counted request: when it completed, in seconds into the timed
    /// window (on `serve_replay`, when it was due), and its latency (ms).
    pub samples: Vec<(f64, f64)>,
    /// Distinct kernels synthesized in the window.
    pub kernels: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Requests over the SLO or failed (`serve_replay` only).
    pub slo_misses: u64,
    /// Length of the timed window (s), excluding harness work.
    pub wall_s: f64,
    /// Peak resident memory (MB) after a fixed amount of work: the
    /// `kernel_us_geomean` prefix on the closed loops, the whole schedule on
    /// `serve_replay`. A time-bounded window does more work on a faster
    /// host, so the peak at its end would follow host speed.
    pub peak_rss_mb: f64,
    /// Simulated latency (us) of the kernels in the geomean set.
    pub geo_us: Vec<f64>,
    /// Samples left out because they did not meet the workload's
    /// definition of a cold request (see [`Provenance`]).
    pub excluded: u64,
    pub problems: Vec<String>,
    pub stats: ServiceStats,
    pub pool: PoolStats,
    pub trace: Trace,
}

impl Run {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

pub fn arch() -> GpuArch {
    GpuArch::h100()
}

fn service(dir: &Path, memory_capacity: usize, config: ServiceConfig) -> CompileService {
    CompileService::with_service_config(
        arch(),
        CompilerOptions::new(),
        KernelCacheConfig {
            dir: Some(dir.to_path_buf()),
            memory_capacity,
            ..KernelCacheConfig::default()
        },
        config,
    )
}

/// Spawns the persistent pool's helpers (one tiny fan-out).
fn start_pool() {
    let _ = hexcute_parallel::par_map(vec![0u8; 2], |x| x);
}

/// The process's peak resident memory so far (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn pool_delta(before: PoolStats) -> PoolStats {
    let after = hexcute_parallel::pool_stats();
    PoolStats {
        jobs: after.jobs - before.jobs,
        items: after.items - before.items,
        ..after
    }
}

fn replay_into(
    trace: &mut Trace,
    replayer: &Replayer,
    program: &Program,
    served: &Arc<KernelArtifact>,
    served_ms: f64,
) -> Result<(), String> {
    match replayer.replay(program.clone(), served.clone()) {
        Ok(phases) => {
            trace.replays.push((phases, served_ms));
            Ok(())
        }
        Err(e) => {
            trace.mismatches += 1;
            *trace.failures.entry("synthesis").or_default() += 1;
            Err(e)
        }
    }
}

fn count_served(trace: &mut Trace, from: ServedFrom) {
    match from {
        ServedFrom::Memory => trace.served_memory += 1,
        ServedFrom::Disk => trace.served_disk += 1,
        ServedFrom::Synthesized => trace.served_synthesized += 1,
        ServedFrom::Coalesced => trace.served_coalesced += 1,
    }
}

// ---------------------------------------------------------------------------
// cold_compile
// ---------------------------------------------------------------------------

/// Programs generated up front per second of run; the stream is extended
/// (outside the timed wall) if a faster compiler outruns it.
const COLD_PER_S: f64 = 80.0;

pub struct Cold {
    programs: Vec<Program>,
    service: CompileService,
    fingerprinter: Compiler,
}

pub fn cold_setup(ctx: &Ctx, run: &mut Run) -> Cold {
    let t = Instant::now();
    let fingerprinter = gen::fingerprinter(arch());
    let count = COLD_GEO_KERNELS.max((ctx.seconds * COLD_PER_S) as usize);
    let programs = gen::cold_stream(ctx.seed, count, &fingerprinter);
    run.trace.gen_ms += ms(t.elapsed());
    let service = service(
        &ctx.work.join("cache"),
        KernelCacheConfig::default().memory_capacity,
        ServiceConfig::default(),
    );
    start_pool();
    Cold {
        programs,
        service,
        fingerprinter,
    }
}

pub fn cold_compile(ctx: &Ctx, run: &mut Run, mut cold: Cold) {
    let replayer = ctx
        .trace
        .then(|| Replayer::start(arch(), CompilerOptions::new(), ctx.work.join("probe")));
    let pool0 = hexcute_parallel::pool_stats();
    let window = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut i = 0usize;
    while i < COLD_GEO_KERNELS || window.elapsed() - excluded < Duration::from_secs_f64(ctx.seconds)
    {
        if i == cold.programs.len() {
            let t = Instant::now();
            cold.programs = gen::cold_stream(ctx.seed, 2 * i, &cold.fingerprinter);
            excluded += t.elapsed();
        }
        let traced =
            replayer.is_some() && (window.elapsed() - excluded).as_secs_f64() >= ctx.seconds / 2.0;
        let program = &cold.programs[i];
        i += 1;
        run.attempted += 1;
        let t = Instant::now();
        let result = cold.service.compile(program);
        let latency = ms(t.elapsed());
        let at = (window.elapsed() - excluded).as_secs_f64();
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                run.fail(format!("{}: {e}", program.name));
                continue;
            }
        };
        count_served(&mut run.trace, response.served_from);
        if response.served_from != ServedFrom::Synthesized {
            run.fail(format!(
                "cold request {} served from {}",
                program.name, response.served_from
            ));
            continue;
        }
        run.samples.push((at, latency));
        run.kernels += 1;
        if i <= COLD_GEO_KERNELS {
            run.geo_us.push(response.latency_us());
        }
        if i == COLD_GEO_KERNELS {
            run.peak_rss_mb = peak_rss_mb();
        }
        let Some(replayer) = &replayer else { continue };
        if !traced {
            run.trace.untraced_latency_ms.push(latency);
            continue;
        }
        run.trace.traced_latency_ms.push(latency);
        run.trace.request_wall_ms += latency;
        let t = Instant::now();
        if let Err(e) = replay_into(
            &mut run.trace,
            replayer,
            program,
            &response.artifact,
            latency,
        ) {
            run.fail(e);
        }
        excluded += t.elapsed();
    }
    run.wall_s = (window.elapsed() - excluded).as_secs_f64();
    run.pool = pool_delta(pool0);
    run.stats = cold.service.stats();
}

// ---------------------------------------------------------------------------
// warmup_batch
// ---------------------------------------------------------------------------

const WARMUP_PER_S: f64 = 40.0;

pub struct Warmup {
    batches: Vec<Vec<Program>>,
}

pub fn warmup_setup(ctx: &Ctx, run: &mut Run) -> Warmup {
    let t = Instant::now();
    let models = gen::models();
    let count = WARMUP_GEO_BATCHES.max((ctx.seconds * WARMUP_PER_S) as usize);
    let batches = gen::warmup_stream(ctx.seed, count)
        .into_iter()
        .map(|(model, batch, seq)| gen::warmup_batch(&models[model], batch, seq))
        .collect();
    run.trace.gen_ms += ms(t.elapsed());
    start_pool();
    Warmup { batches }
}

/// How a batch's members were served.
enum Provenance {
    /// Every distinct program synthesized once; the leading duplicate pair
    /// is one synthesis plus one coalesced join.
    Cold,
    /// The duplicate's second copy started after the first had finished
    /// and hit the cache the batch had just filled. The batch was cold per
    /// distinct fingerprint but its time is not a coalescing sample, so it
    /// is left out of the latency samples.
    LateDuplicate,
}

fn batch_provenance(served: &[ServedFrom]) -> Result<Provenance, String> {
    if let Some(s) = served[2..].iter().find(|s| **s != ServedFrom::Synthesized) {
        return Err(format!("distinct batch member served from {s}"));
    }
    // Either copy of the pair may start first: the pool hands out batch
    // members in no fixed order.
    let mut lead = [served[0], served[1]];
    lead.sort_by_key(|s| *s != ServedFrom::Synthesized);
    match lead {
        [ServedFrom::Synthesized, ServedFrom::Coalesced] => Ok(Provenance::Cold),
        [ServedFrom::Synthesized, ServedFrom::Memory] => Ok(Provenance::LateDuplicate),
        _ => Err(format!(
            "duplicate pair served from {} and {}",
            served[0], served[1]
        )),
    }
}

pub fn warmup_batch(ctx: &Ctx, run: &mut Run, mut warmup: Warmup) {
    let replayer = ctx
        .trace
        .then(|| Replayer::start(arch(), CompilerOptions::new(), ctx.work.join("probe")));
    let pool0 = hexcute_parallel::pool_stats();
    let window = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut i = 0usize;
    let mut stats = ServiceStats::default();
    while i < WARMUP_GEO_BATCHES
        || window.elapsed() - excluded < Duration::from_secs_f64(ctx.seconds)
    {
        let t = Instant::now();
        if i == warmup.batches.len() {
            let models = gen::models();
            warmup.batches = gen::warmup_stream(ctx.seed, 2 * warmup.batches.len())
                .into_iter()
                .map(|(model, batch, seq)| gen::warmup_batch(&models[model], batch, seq))
                .collect();
        }
        let traced =
            replayer.is_some() && (window.elapsed() - excluded).as_secs_f64() >= ctx.seconds / 2.0;
        let programs = warmup.batches[i].clone();
        let dir = ctx.work.join(format!("batch-{i}"));
        let service = service(
            &dir,
            KernelCacheConfig::default().memory_capacity,
            ServiceConfig::default(),
        );
        i += 1;
        run.attempted += 1;
        excluded += t.elapsed();

        let t = Instant::now();
        let results = service.compile_batch(programs.clone());
        let latency = ms(t.elapsed());
        let at = (window.elapsed() - excluded).as_secs_f64();

        let t = Instant::now();
        let mut served = Vec::with_capacity(results.len());
        let mut artifacts = Vec::with_capacity(results.len());
        let mut error = None;
        for (program, result) in programs.iter().zip(results) {
            match result {
                Ok(r) => {
                    count_served(&mut run.trace, r.served_from);
                    served.push(r.served_from);
                    artifacts.push(r.artifact);
                }
                Err(e) => error = Some(format!("{}: {e}", program.name)),
            }
        }
        let verdict = match error {
            Some(e) => Err(e),
            None if artifacts[0] != artifacts[1] => {
                Err("coalesced duplicate differs from its synthesis".to_string())
            }
            None => batch_provenance(&served),
        };
        match verdict {
            Err(e) => run.fail(format!("batch {}: {e}", i - 1)),
            Ok(Provenance::LateDuplicate) => {
                run.kernels += programs.len() as u64 - 1;
                run.excluded += 1;
            }
            Ok(Provenance::Cold) => {
                let distinct = programs.len() - 1;
                run.samples.push((at, latency));
                run.kernels += distinct as u64;
                if i <= WARMUP_GEO_BATCHES {
                    run.geo_us
                        .extend(artifacts[1..].iter().map(|a| a.latency_us()));
                }
                if let Some(replayer) = replayer.as_ref() {
                    if traced {
                        run.trace.traced_latency_ms.push(latency);
                        // The batch's capacity is its wall time on every
                        // worker; its compiles interleave over them, so no
                        // single served time belongs to one replay (0 = none).
                        run.trace.request_wall_ms +=
                            latency * hexcute_parallel::worker_count() as f64;
                        let before = run.trace.replays.len();
                        for (program, artifact) in programs.iter().zip(&artifacts).skip(1) {
                            if let Err(e) =
                                replay_into(&mut run.trace, replayer, program, artifact, 0.0)
                            {
                                run.fail(e);
                            }
                        }
                        let serial: f64 = run.trace.replays[before..]
                            .iter()
                            .map(|(p, _)| p.compile_path_ms())
                            .sum();
                        run.trace.batch_speedups.push(serial / latency);
                    } else {
                        run.trace.untraced_latency_ms.push(latency);
                    }
                }
            }
        }
        if i == WARMUP_GEO_BATCHES {
            run.peak_rss_mb = peak_rss_mb();
        }
        add_stats(&mut stats, &service.stats());
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
        excluded += t.elapsed();
    }
    run.wall_s = (window.elapsed() - excluded).as_secs_f64();
    run.pool = pool_delta(pool0);
    run.stats = stats;
}

/// Sums the counters of per-batch services (maxima for depth gauges).
fn add_stats(total: &mut ServiceStats, s: &ServiceStats) {
    total.requests += s.requests;
    total.coalesced += s.coalesced;
    total.syntheses += s.syntheses;
    total.shed += s.shed;
    total.retries += s.retries;
    total.max_queue_depth = total.max_queue_depth.max(s.max_queue_depth);
    total.cache.file_evictions += s.cache.file_evictions;
}

// ---------------------------------------------------------------------------
// serve_replay
// ---------------------------------------------------------------------------

/// Concurrent syntheses the serving front-end admits: below the two
/// generator threads, so concurrent misses queue.
const SERVE_MAX_CONCURRENT: usize = 1;

/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

pub struct Serve {
    traffic: gen::ServeTraffic,
    fingerprints: Vec<u64>,
    /// The artifact first synthesized for each fingerprint in this run.
    reference: Mutex<HashMap<u64, Arc<KernelArtifact>>>,
    service: CompileService,
}

pub fn serve_setup(ctx: &Ctx, run: &mut Run) -> Serve {
    let t = Instant::now();
    let fingerprinter = gen::fingerprinter(arch());
    let traffic = gen::serve_traffic(ctx.seed, ctx.seconds, &fingerprinter);
    let fingerprints: Vec<u64> = traffic
        .programs
        .iter()
        .map(|p| fingerprinter.artifact_fingerprint(p))
        .collect();
    run.trace.gen_ms += ms(t.elapsed());
    let dir = ctx.work.join("cache");
    // Warm the working set onto disk with a service of its own, so the
    // serving instance starts with a cold memory tier.
    let warm = service(
        &dir,
        KernelCacheConfig::default().memory_capacity,
        ServiceConfig::default(),
    );
    let working = traffic.programs[..traffic.working_set].to_vec();
    let mut reference = HashMap::new();
    for (i, result) in warm.compile_batch(working).into_iter().enumerate() {
        match result {
            Ok(r) if r.served_from == ServedFrom::Synthesized => {
                run.geo_us.push(r.latency_us());
                reference.insert(fingerprints[i], r.artifact);
            }
            Ok(r) => run.fail(format!("pre-warm {i} served from {}", r.served_from)),
            Err(e) => run.fail(format!("pre-warm {i}: {e}")),
        }
    }
    drop(warm);
    let service = service(
        &dir,
        gen::SERVE_MEMORY_CAPACITY,
        ServiceConfig {
            max_concurrent: SERVE_MAX_CONCURRENT,
            ..ServiceConfig::default()
        },
    );
    Serve {
        traffic,
        fingerprints,
        reference: Mutex::new(reference),
        service,
    }
}

/// What one generator thread observed.
#[derive(Default)]
struct Observed {
    samples: Vec<(f64, f64)>,
    kernels: u64,
    failed: Vec<String>,
    slo_misses: u64,
    trace: Trace,
    /// Novel syntheses seen in the traced half, replayed after the window.
    to_replay: Vec<(usize, Arc<KernelArtifact>)>,
}

pub fn serve_replay(ctx: &Ctx, run: &mut Run, serve: Serve) {
    let arrivals = &serve.traffic.arrivals;
    let cursor = AtomicUsize::new(0);
    let pool0 = hexcute_parallel::pool_stats();
    let half = ctx.seconds / 2.0;
    let cache_dir = ctx.work.join("cache");
    let start = Instant::now();
    let threads = hexcute_parallel::worker_count().clamp(1, 2);
    let observed: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| generator(ctx, &serve, &cursor, start, half, &cache_dir)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    run.wall_s = ctx.seconds;
    run.attempted = arrivals.len() as u64;
    let mut pending = Vec::new();
    for o in observed {
        run.samples.extend(o.samples);
        run.kernels += o.kernels;
        run.slo_misses += o.slo_misses + o.failed.len() as u64;
        for f in o.failed {
            run.fail(f);
        }
        let t = o.trace;
        let r = &mut run.trace;
        r.fingerprint_us.extend(t.fingerprint_us);
        r.memory_get_us.extend(t.memory_get_us);
        r.disk_get_us.extend(t.disk_get_us);
        r.overhead_us.extend(t.overhead_us);
        r.request_wall_ms += t.request_wall_ms;
        r.untraced_latency_ms.extend(t.untraced_latency_ms);
        r.traced_latency_ms.extend(t.traced_latency_ms);
        r.lateness_ms.extend(t.lateness_ms);
        r.served_memory += t.served_memory;
        r.served_disk += t.served_disk;
        r.served_synthesized += t.served_synthesized;
        r.served_coalesced += t.served_coalesced;
        for (layer, n) in t.failures {
            *r.failures.entry(layer).or_default() += n;
        }
        pending.extend(o.to_replay);
    }
    run.pool = pool_delta(pool0);
    run.stats = serve.service.stats();
    run.peak_rss_mb = peak_rss_mb();
    if ctx.trace {
        replay_novel(ctx, run, &serve, pending);
    }
}

/// Replays the traced half's novel syntheses after the window. In the
/// window a synthesis shares the CPUs with the other generator thread and
/// may queue for the admission slot, and the replay runs later on a quiet
/// process, so the two times are not comparable. Each program is therefore
/// served once more, by a fresh service configured like the serving one,
/// right before its replay, and the phases are held to that served time.
fn replay_novel(
    ctx: &Ctx,
    run: &mut Run,
    serve: &Serve,
    pending: Vec<(usize, Arc<KernelArtifact>)>,
) {
    let replayer = Replayer::start(arch(), CompilerOptions::new(), ctx.work.join("probe"));
    let again = service(
        &ctx.work.join("again"),
        gen::SERVE_MEMORY_CAPACITY,
        ServiceConfig {
            max_concurrent: SERVE_MAX_CONCURRENT,
            ..ServiceConfig::default()
        },
    );
    for (index, artifact) in pending {
        let program = &serve.traffic.programs[index];
        let t = Instant::now();
        let result = again.compile(program);
        let served_ms = ms(t.elapsed());
        match result {
            Ok(r) if r.served_from == ServedFrom::Synthesized && *r.artifact == *artifact => {}
            Ok(r) => {
                run.fail(format!(
                    "{}: served again from {}, or a different artifact",
                    program.name, r.served_from
                ));
                continue;
            }
            Err(e) => {
                run.fail(format!("{}: served again: {e}", program.name));
                continue;
            }
        }
        if let Err(e) = replay_into(&mut run.trace, &replayer, program, &artifact, served_ms) {
            run.fail(e);
        }
    }
}

fn generator(
    ctx: &Ctx,
    serve: &Serve,
    cursor: &AtomicUsize,
    start: Instant,
    half: f64,
    cache_dir: &Path,
) -> Observed {
    let mut o = Observed::default();
    let fingerprinter = gen::fingerprinter(arch());
    let memory_probe = hexcute_core::KernelCache::with_faults(
        KernelCacheConfig {
            memory_capacity: 4096,
            ..KernelCacheConfig::default()
        },
        None,
    );
    let arrivals = &serve.traffic.arrivals;
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(arrival) = arrivals.get(i) else {
            break;
        };
        let due = start + Duration::from_secs_f64(arrival.due_s);
        // Sleep to just short of the due time, then spin: a plain sleep
        // overshoots by a noisy tenth of a millisecond, which is more than
        // a memory hit takes.
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let program = &serve.traffic.programs[arrival.program];
        let result = serve
            .service
            .compile_as(program, arrival.priority, arrival.tenant);
        let done = Instant::now();
        let latency = ms(done - due);
        let service_ms = ms(done - sent);
        let lateness = ms(sent.saturating_duration_since(due));
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                o.failed
                    .push(format!("request {i} ({}): {e}", program.name));
                continue;
            }
        };
        let fingerprint = serve.fingerprints[arrival.program];
        let first = {
            let mut reference = serve.reference.lock().expect("reference map poisoned");
            reference
                .entry(fingerprint)
                .or_insert_with(|| response.artifact.clone())
                .clone()
        };
        if !Arc::ptr_eq(&first, &response.artifact) && *first != *response.artifact {
            o.failed.push(format!(
                "request {i} ({}): served artifact differs from the first one",
                program.name
            ));
            continue;
        }
        o.samples.push((arrival.due_s, latency));
        if response.served_from == ServedFrom::Synthesized {
            o.kernels += 1;
        }
        if latency > SLO_MS {
            o.slo_misses += 1;
        }
        count_served(&mut o.trace, response.served_from);
        o.trace.lateness_ms.push(lateness);
        if !ctx.trace {
            continue;
        }
        if arrival.due_s < half {
            o.trace.untraced_latency_ms.push(latency);
            continue;
        }
        o.trace.traced_latency_ms.push(latency);
        o.trace.request_wall_ms += service_ms;
        // Hit-path probes, timed on this thread right after the request.
        let t = Instant::now();
        let probe_fp = fingerprinter.artifact_fingerprint(program);
        let fp_us = t.elapsed().as_secs_f64() * 1e6;
        o.trace.fingerprint_us.push(fp_us);
        if probe_fp != fingerprint {
            o.failed
                .push(format!("request {i}: fingerprint is not stable"));
        }
        match response.served_from {
            ServedFrom::Memory => {
                if memory_probe.get(fingerprint).is_none() {
                    memory_probe.insert(response.artifact.clone());
                }
                let t = Instant::now();
                let hit = memory_probe.get(fingerprint);
                let get_us = t.elapsed().as_secs_f64() * 1e6;
                if hit.is_some() {
                    o.trace.memory_get_us.push(get_us);
                    o.trace.overhead_us.push(service_ms * 1e3 - fp_us - get_us);
                }
            }
            ServedFrom::Disk => {
                let probe = trace::probe_cache(cache_dir);
                let t = Instant::now();
                let hit = probe.get(fingerprint);
                let get_us = t.elapsed().as_secs_f64() * 1e6;
                if hit.is_some() {
                    o.trace.disk_get_us.push(get_us);
                } else {
                    *o.trace.failures.entry("core.cache").or_default() += 1;
                }
            }
            ServedFrom::Synthesized => {
                o.to_replay
                    .push((arrival.program, response.artifact.clone()));
            }
            ServedFrom::Coalesced => {}
        }
    }
    o
}
