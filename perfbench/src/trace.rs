//! The traced replay: one compile rebuilt from the public calls of each
//! layer, each call timed from outside. The program itself carries no
//! tracing; these spans are the benchmark's own.
//!
//! `Synthesizer::synthesize_pruned` solves the TV base and builds the copy
//! plans again instead of taking `search_space`'s result, so the walk time
//! is derived: `walk = pruned - space`, where `space` is timed on a separate
//! `search_space` call.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use hexcute_arch::GpuArch;
use hexcute_codegen::{emit_cuda_like, lower};
use hexcute_core::{
    CompileStats, CompiledKernel, Compiler, CompilerOptions, KernelArtifact, KernelCache,
    KernelCacheConfig,
};
use hexcute_costmodel::{CompletionBounds, CostModel};
use hexcute_ir::Program;
use hexcute_sim::PerfEvaluator;
use hexcute_synthesis::Synthesizer;

/// Per-phase times of one replayed compile.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    pub family: &'static str,
    pub kernel: String,
    pub fingerprint_us: f64,
    pub space_ms: f64,
    pub pruned_ms: f64,
    pub bounds_us: f64,
    pub estimate_us: f64,
    pub perf_us: f64,
    pub lower_us: f64,
    pub emit_us: f64,
    pub package_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub insert_us: f64,
    pub source_kb: f64,
    pub artifact_kb: f64,
    pub enumerated: usize,
    pub scored: usize,
    pub bound_evaluations: usize,
    pub subtrees_cut: usize,
    /// The pruned search declined (enumeration above `max_candidates`) and
    /// the phases could not be split.
    pub declined: bool,
}

impl Phases {
    /// `synthesize_pruned` time minus the separately timed search space.
    pub fn walk_ms(&self) -> f64 {
        (self.pruned_ms - self.space_ms).max(0.0)
    }

    /// The replayed compile path, in milliseconds: what the service's
    /// synthesis-and-store path executes once per miss. `space_ms` is not
    /// added: `pruned_ms` already contains its work.
    pub fn compile_path_ms(&self) -> f64 {
        self.pruned_ms
            + (self.fingerprint_us
                + self.bounds_us
                + self.estimate_us
                + self.perf_us
                + self.lower_us
                + self.package_us
                + self.insert_us)
                / 1e3
    }
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Replays one compile of `program` (all phases but `space_ms`, which
/// [`Replayer`] times on its own thread) and checks that the result equals
/// `served` bit for bit (through its JSON encoding, which spells every
/// float's bits).
pub fn replay(
    arch: &GpuArch,
    options: &CompilerOptions,
    program: &Program,
    served: &KernelArtifact,
    probe: &KernelCache,
) -> Result<Phases, String> {
    let mut p = Phases {
        family: crate::gen::family_of(program),
        kernel: program.name.clone(),
        ..Phases::default()
    };
    let compiler = Compiler::with_options(arch.clone(), options.clone());
    let t = Instant::now();
    let fingerprint = compiler.artifact_fingerprint(program);
    p.fingerprint_us = us(t);

    let synthesizer = Synthesizer::new(program, arch, options.synthesis.clone());

    let model = CostModel::new(arch);
    let t = Instant::now();
    let mut bounder = CompletionBounds::new(&model, program);
    p.bounds_us = us(t);
    let t = Instant::now();
    let outcome = synthesizer
        .synthesize_pruned(&mut bounder, None)
        .map_err(|e| format!("synthesize_pruned: {e}"))?;
    p.pruned_ms = us(t) / 1e3;

    let artifact = match outcome {
        None => {
            p.declined = true;
            compiler
                .compile_artifact(program)
                .map_err(|e| format!("fallback compile: {e}"))?
        }
        Some(outcome) => {
            p.enumerated = outcome.enumerated;
            p.scored = outcome.stats.candidates_scored;
            p.bound_evaluations = outcome.stats.bound_evaluations;
            p.subtrees_cut = outcome.stats.subtrees_cut;
            let t = Instant::now();
            let cost = model.estimate(program, &outcome.winner);
            p.estimate_us = us(t);
            let t = Instant::now();
            let perf = PerfEvaluator::new(arch).evaluate(program, &outcome.winner, &cost);
            p.perf_us = us(t);
            let t = Instant::now();
            let lowered = lower(program, &outcome.winner);
            p.lower_us = us(t);
            let t = Instant::now();
            let source = emit_cuda_like(program, &lowered);
            p.emit_us = us(t);
            p.source_kb = source.len() as f64 / 1024.0;
            let compiled = CompiledKernel {
                program: program.clone(),
                candidate: outcome.winner,
                lowered,
                cost,
                perf,
                stats: CompileStats {
                    candidates_explored: outcome.enumerated,
                    selected_by_cost_model: 0,
                    best_by_simulation: 0,
                    selection_quality: 1.0,
                    compile_time_ms: 0.0,
                },
            };
            // `from_compiled` emits the source again; that second emission
            // is part of what the service pays per miss.
            let t = Instant::now();
            let artifact = KernelArtifact::from_compiled(fingerprint, &compiled, arch);
            p.package_us = us(t);
            artifact
        }
    };

    let t = Instant::now();
    let json = artifact.to_json();
    p.encode_us = us(t);
    p.artifact_kb = json.len() as f64 / 1024.0;
    let t = Instant::now();
    let decoded = KernelArtifact::from_json(&json).map_err(|e| format!("decode: {e}"))?;
    p.decode_us = us(t);
    if decoded != artifact {
        return Err(format!(
            "{}: artifact does not survive its JSON encoding",
            program.name
        ));
    }
    if json != served.to_json() {
        return Err(format!(
            "{} ({fingerprint:016x}): replayed artifact differs from the served one",
            program.name
        ));
    }
    let t = Instant::now();
    probe.insert(Arc::new(artifact));
    p.insert_us = us(t);
    Ok(p)
}

/// A probe cache for timing inserts and disk reads outside the service.
pub fn probe_cache(dir: &std::path::Path) -> KernelCache {
    KernelCache::with_faults(
        KernelCacheConfig {
            dir: Some(dir.to_path_buf()),
            ..KernelCacheConfig::default()
        },
        None,
    )
}

/// A thread that serves one kind of request until dropped.
struct Worker<Q, R> {
    requests: Option<mpsc::Sender<Q>>,
    results: mpsc::Receiver<R>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl<Q: Send + 'static, R: Send + 'static> Worker<Q, R> {
    fn start(mut serve: impl FnMut(Q) -> R + Send + 'static) -> Self {
        let (req_tx, req_rx) = mpsc::channel::<Q>();
        let (res_tx, res_rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for request in req_rx {
                if res_tx.send(serve(request)).is_err() {
                    break;
                }
            }
        });
        Worker {
            requests: Some(req_tx),
            results: res_rx,
            thread: Some(thread),
        }
    }

    fn call(&self, request: Q) -> Result<R, String> {
        let stopped = || "replay thread stopped".to_string();
        self.requests
            .as_ref()
            .expect("worker is running")
            .send(request)
            .map_err(|_| stopped())?;
        self.results.recv().map_err(|_| stopped())
    }
}

impl<Q, R> Drop for Worker<Q, R> {
    fn drop(&mut self) {
        self.requests.take();
        if let Some(thread) = self.thread.take() {
            // A panic on the thread already surfaced as a closed channel.
            let _ = thread.join();
        }
    }
}

/// Runs replays on threads of their own, so the replay's thread-local
/// layout memos never see the served compile of the same program (the
/// service compiles on the calling thread). `search_space` gets a second
/// thread: timed on the thread that then runs `synthesize_pruned`, it would
/// warm that thread's memos for the very program being timed.
pub struct Replayer {
    space: Worker<Program, Result<f64, String>>,
    full: Worker<(Program, Arc<KernelArtifact>), Result<Phases, String>>,
}

impl Replayer {
    pub fn start(arch: GpuArch, options: CompilerOptions, probe_dir: std::path::PathBuf) -> Self {
        let (space_arch, space_options) = (arch.clone(), options.synthesis.clone());
        let space = Worker::start(move |program: Program| {
            let synthesizer = Synthesizer::new(&program, &space_arch, space_options.clone());
            let t = Instant::now();
            synthesizer
                .search_space()
                .map(|_| us(t) / 1e3)
                .map_err(|e| format!("{}: search_space: {e}", program.name))
        });
        let probe = probe_cache(&probe_dir);
        let full = Worker::start(move |(program, served): (Program, Arc<KernelArtifact>)| {
            replay(&arch, &options, &program, &served, &probe)
        });
        Replayer { space, full }
    }

    /// Replays one compile and waits for its phases.
    pub fn replay(&self, program: Program, served: Arc<KernelArtifact>) -> Result<Phases, String> {
        let space_ms = self.space.call(program.clone())??;
        let mut phases = self.full.call((program, served))??;
        phases.space_ms = space_ms;
        Ok(phases)
    }
}
