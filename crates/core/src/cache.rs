//! A persistent, disk-backed kernel-artifact cache.
//!
//! Synthesizing a kernel is the expensive step of serving it: even a fast
//! single synthesis adds up, because a vLLM-style deployment compiles
//! the same few dozen kernels on every process start. This module caches the
//! *result* of a compilation — the winning candidate's layouts, the lowered
//! program, the emitted pseudo-CUDA and the cost/perf breakdowns — keyed by a
//! **stable fingerprint** of everything that determines it:
//!
//! ```text
//! fingerprint = stable_hash(program structure, target GpuArch, CompilerOptions)
//! ```
//!
//! Artifacts are stored as versioned JSON files (`<fingerprint>.json`) under
//! a cache directory, with an in-memory [`ShardedMap`] front so repeat
//! lookups in one process never touch the filesystem. The cache is
//! defensive: corrupt files, artifacts written by a different
//! [`ARTIFACT_VERSION`], fingerprint mismatches and TTL-expired entries are
//! rejected (and deleted) so the caller re-synthesizes; every outcome is
//! counted in [`KernelCacheStats`].
//!
//! ```
//! use hexcute_arch::{DType, GpuArch};
//! use hexcute_core::{Compiler, KernelCache, KernelCacheConfig, ArtifactSource};
//! use hexcute_ir::KernelBuilder;
//! use hexcute_layout::Layout;
//!
//! let mut kb = KernelBuilder::new("cached_scale", 128);
//! let x = kb.global_view("x", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
//! let y = kb.global_view("y", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
//! let r = kb.register_tensor("r", DType::F32, &[64, 64]);
//! kb.copy(x, r);
//! kb.copy(r, y);
//! let program = kb.build()?;
//!
//! // A memory-only cache (no `dir`): the second compile is a cache hit and
//! // returns a bit-identical artifact.
//! let cache = KernelCache::new(KernelCacheConfig::default());
//! let compiler = Compiler::new(GpuArch::a100());
//! let (cold, source) = compiler.compile_with_cache(&program, &cache)?;
//! assert_eq!(source, ArtifactSource::Synthesized);
//! let (warm, source) = compiler.compile_with_cache(&program, &cache)?;
//! assert_eq!(source, ArtifactSource::Memory);
//! assert_eq!(*cold, *warm);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use hexcute_arch::GpuArch;
use hexcute_ir::Program;
use hexcute_parallel::cache::{CacheStats, ShardedMap};

use crate::compiler::{CompiledKernel, CompilerOptions};
use crate::faults::{self, FaultInjector, FaultKind};
use crate::json::{JsonError, JsonValue};

/// Version tag written into every artifact file. Bump it whenever the
/// artifact schema *or* the semantics of any serialized field change: files
/// carrying a different version are rejected on read and re-synthesized.
pub const ARTIFACT_VERSION: usize = 2;

// ---------------------------------------------------------------------------
// Stable fingerprints.
// ---------------------------------------------------------------------------

/// A [`Hasher`] with a fixed algorithm (FNV-1a over the byte stream), so
/// fingerprints are stable across processes and Rust versions — unlike
/// `DefaultHasher`, whose algorithm is unspecified. Multi-byte integer
/// writes follow the platform's native byte order, so fingerprints are
/// per-machine (which is all a local disk cache needs); [`ARTIFACT_VERSION`]
/// plus the fingerprint-match check on read guard everything else.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: Self::FNV_OFFSET,
        }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The stable cache key for compiling `program` for `arch` under `options`.
///
/// The hash covers the full program structure (name, schedule, every tensor
/// declaration, every operation), the complete architecture model (so A100
/// and H100 artifacts never collide) and every result-affecting compiler
/// option (see [`SynthesisOptions::hash_stable`]).
///
/// [`SynthesisOptions::hash_stable`]: hexcute_synthesis::SynthesisOptions::hash_stable
pub fn artifact_fingerprint(program: &Program, arch: &GpuArch, options: &CompilerOptions) -> u64 {
    let mut h = StableHasher::new();
    // Program structure. The grid participates: two programs differing only
    // in `grid_blocks` (e.g. the same tile kernel at two batch sizes, or two
    // grouped-GEMM problem lists with different routings) produce different
    // device-level performance reports, so they must not share an artifact.
    program.name.hash(&mut h);
    program.threads_per_block.hash(&mut h);
    program.grid_blocks.hash(&mut h);
    program.main_loop_trip_count.hash(&mut h);
    program.schedule.pipeline_stages.hash(&mut h);
    program.schedule.warp_specialized.hash(&mut h);
    for decl in program.tensors() {
        decl.id.hash(&mut h);
        decl.name.hash(&mut h);
        decl.dtype.hash(&mut h);
        decl.space.hash(&mut h);
        decl.shape.hash(&mut h);
        decl.global_layout.hash(&mut h);
    }
    for op in program.ops() {
        op.id.hash(&mut h);
        // `OpKind`'s debug rendering spells out the operation and its
        // operands deterministically; hashing it keeps this function
        // independent of per-variant field churn.
        format!("{:?}", op.kind).hash(&mut h);
        op.in_main_loop.hash(&mut h);
    }
    // Target architecture: the debug rendering covers every modelled
    // parameter (clocks, bandwidths, instruction catalog), so two arches
    // that would compile differently fingerprint differently.
    format!("{:?}", arch).hash(&mut h);
    // Compiler options.
    options.use_cost_model.hash(&mut h);
    options.synthesis.hash_stable(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// The artifact.
// ---------------------------------------------------------------------------

/// The synthesized shared-memory layout of one tensor, rendered stably.
#[derive(Debug, Clone, PartialEq)]
pub struct SmemLayoutRecord {
    /// Tensor name.
    pub tensor: String,
    /// Byte offset within dynamic shared memory.
    pub offset_bytes: usize,
    /// Allocation size in bytes.
    pub size_bytes: usize,
    /// The synthesized (possibly swizzled) layout, rendered via `Display`.
    pub layout: String,
}

/// The synthesized thread-value layout of one register tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TvLayoutRecord {
    /// Tensor name.
    pub tensor: String,
    /// The thread-value layout, rendered via `Display`.
    pub layout: String,
}

/// One operation's slice of the cost breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCostRecord {
    /// Cycles the issuing warps are occupied.
    pub issue_cycles: f64,
    /// Cycles stalled waiting for in-flight producers.
    pub stall_cycles: f64,
    /// Cycles until the result is available after issuing.
    pub completion_cycles: f64,
}

/// The analytical cost breakdown of the winning candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRecord {
    /// Estimated cycles for one thread block.
    pub total_cycles: f64,
    /// Prologue cycles.
    pub prologue_cycles: f64,
    /// Cycles of one (pipelined) main-loop iteration.
    pub loop_iteration_cycles: f64,
    /// Epilogue cycles.
    pub epilogue_cycles: f64,
    /// Cycles charged to register-layout conversions.
    pub rearrange_cycles: f64,
    /// Per-operation attribution, in program order.
    pub per_op: Vec<OpCostRecord>,
}

/// The simulated device-level performance of the winning candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// End-to-end latency in microseconds.
    pub latency_us: f64,
    /// Cycles for one thread block including bank-conflict penalties.
    pub block_cycles: f64,
    /// DRAM-bound latency component.
    pub dram_us: f64,
    /// Tensor-Core-bound latency component.
    pub compute_us: f64,
    /// SM-execution latency component.
    pub sm_us: f64,
    /// Waves of thread blocks across the device.
    pub waves: usize,
    /// Extra cycles per block from shared-memory bank conflicts.
    pub bank_conflict_cycles: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
}

/// A cached compilation result: everything downstream consumers (the
/// serving layer, code emission, reporting) need, without re-running
/// synthesis. Every field is a deterministic function of the fingerprint
/// inputs, so a cache hit is bit-identical to a fresh synthesis — enforced
/// by `crates/core/tests/artifact_cache.rs` across all four kernel families.
///
/// Wall-clock compile time is deliberately *not* part of the artifact: it
/// differs run to run and would break the bit-identical contract.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelArtifact {
    /// Schema version ([`ARTIFACT_VERSION`] at write time).
    pub version: usize,
    /// The cache key this artifact was stored under.
    pub fingerprint: u64,
    /// Kernel (program) name.
    pub kernel: String,
    /// Target architecture name.
    pub arch: String,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Blocks launched for the modelled problem.
    pub grid_blocks: usize,
    /// Main-loop trip count.
    pub main_loop_trip_count: usize,
    /// Software pipeline depth.
    pub pipeline_stages: usize,
    /// Whether the kernel is warp specialized.
    pub warp_specialized: bool,
    /// Total dynamic shared memory in bytes.
    pub smem_bytes: usize,
    /// Estimated 32-bit registers per thread.
    pub registers_per_thread: usize,
    /// Winning candidate's thread-value layouts (register tensors).
    pub tv_layouts: Vec<TvLayoutRecord>,
    /// Winning candidate's synthesized shared-memory layouts.
    pub smem_layouts: Vec<SmemLayoutRecord>,
    /// The lowered per-block instruction stream, one line per instruction.
    pub lowered: Vec<String>,
    /// The emitted pseudo-CUDA source.
    pub cuda: String,
    /// Analytical cost breakdown of the winner.
    pub cost: CostRecord,
    /// Simulated performance of the winner.
    pub perf: PerfRecord,
}

/// Why an artifact file could not be used.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The file is not valid JSON (truncated, garbage, partial write).
    Json(JsonError),
    /// The JSON parses but does not match the artifact schema.
    Schema(String),
    /// The artifact was written by a different [`ARTIFACT_VERSION`].
    Version {
        /// The version found in the file.
        found: usize,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Json(e) => write!(f, "corrupt artifact: {e}"),
            ArtifactError::Schema(msg) => write!(f, "artifact schema mismatch: {msg}"),
            ArtifactError::Version { found } => write!(
                f,
                "artifact version {found} != supported version {ARTIFACT_VERSION}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

fn schema_err(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Schema(msg.into())
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| schema_err(format!("missing or non-numeric `{key}`")))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| schema_err(format!("missing or non-integral `{key}`")))
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| schema_err(format!("missing or non-string `{key}`")))
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| schema_err(format!("missing or non-boolean `{key}`")))
}

fn get_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| schema_err(format!("missing or non-array `{key}`")))
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl KernelArtifact {
    /// Builds the artifact for a finished compilation. `fingerprint` must be
    /// the [`artifact_fingerprint`] of the inputs that produced `compiled`.
    pub fn from_compiled(fingerprint: u64, compiled: &CompiledKernel, arch: &GpuArch) -> Self {
        let program = &compiled.program;
        KernelArtifact {
            version: ARTIFACT_VERSION,
            fingerprint,
            kernel: program.name.clone(),
            arch: arch.name.clone(),
            threads_per_block: compiled.lowered.threads_per_block,
            grid_blocks: compiled.lowered.grid_blocks,
            main_loop_trip_count: compiled.lowered.main_loop_trip_count,
            pipeline_stages: compiled.lowered.pipeline_stages,
            warp_specialized: compiled.lowered.warp_specialized,
            smem_bytes: compiled.lowered.smem_bytes,
            registers_per_thread: compiled.lowered.registers_per_thread,
            tv_layouts: compiled
                .candidate
                .tv_layouts
                .iter()
                .map(|(id, tv)| TvLayoutRecord {
                    tensor: program.tensor(*id).name.clone(),
                    layout: tv.to_string(),
                })
                .collect(),
            smem_layouts: compiled
                .lowered
                .smem_allocs
                .iter()
                .map(|a| SmemLayoutRecord {
                    tensor: program.tensor(a.tensor).name.clone(),
                    offset_bytes: a.offset_bytes,
                    size_bytes: a.size_bytes,
                    layout: a.layout.to_string(),
                })
                .collect(),
            lowered: compiled.lowered.instruction_lines(program),
            cuda: compiled.cuda_source(),
            cost: CostRecord {
                total_cycles: compiled.cost.total_cycles,
                prologue_cycles: compiled.cost.prologue_cycles,
                loop_iteration_cycles: compiled.cost.loop_iteration_cycles,
                epilogue_cycles: compiled.cost.epilogue_cycles,
                rearrange_cycles: compiled.cost.rearrange_cycles,
                per_op: compiled
                    .cost
                    .per_op
                    .iter()
                    .map(|c| OpCostRecord {
                        issue_cycles: c.issue_cycles,
                        stall_cycles: c.stall_cycles,
                        completion_cycles: c.completion_cycles,
                    })
                    .collect(),
            },
            perf: PerfRecord {
                latency_us: compiled.perf.latency_us,
                block_cycles: compiled.perf.block_cycles,
                dram_us: compiled.perf.dram_us,
                compute_us: compiled.perf.compute_us,
                sm_us: compiled.perf.sm_us,
                waves: compiled.perf.waves,
                bank_conflict_cycles: compiled.perf.bank_conflict_cycles,
                launch_overhead_us: compiled.perf.launch_overhead_us,
            },
        }
    }

    /// The estimated kernel latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.perf.latency_us
    }

    /// Serializes the artifact as versioned JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        let num = JsonValue::Num;
        let layouts = self
            .smem_layouts
            .iter()
            .map(|l| {
                obj(vec![
                    ("tensor", JsonValue::Str(l.tensor.clone())),
                    ("offset_bytes", num(l.offset_bytes as f64)),
                    ("size_bytes", num(l.size_bytes as f64)),
                    ("layout", JsonValue::Str(l.layout.clone())),
                ])
            })
            .collect();
        let tv = self
            .tv_layouts
            .iter()
            .map(|l| {
                obj(vec![
                    ("tensor", JsonValue::Str(l.tensor.clone())),
                    ("layout", JsonValue::Str(l.layout.clone())),
                ])
            })
            .collect();
        let per_op = self
            .cost
            .per_op
            .iter()
            .map(|c| {
                obj(vec![
                    ("issue_cycles", num(c.issue_cycles)),
                    ("stall_cycles", num(c.stall_cycles)),
                    ("completion_cycles", num(c.completion_cycles)),
                ])
            })
            .collect();
        obj(vec![
            ("version", num(self.version as f64)),
            (
                "fingerprint",
                JsonValue::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("kernel", JsonValue::Str(self.kernel.clone())),
            ("arch", JsonValue::Str(self.arch.clone())),
            ("threads_per_block", num(self.threads_per_block as f64)),
            ("grid_blocks", num(self.grid_blocks as f64)),
            (
                "main_loop_trip_count",
                num(self.main_loop_trip_count as f64),
            ),
            ("pipeline_stages", num(self.pipeline_stages as f64)),
            ("warp_specialized", JsonValue::Bool(self.warp_specialized)),
            ("smem_bytes", num(self.smem_bytes as f64)),
            (
                "registers_per_thread",
                num(self.registers_per_thread as f64),
            ),
            ("tv_layouts", JsonValue::Arr(tv)),
            ("smem_layouts", JsonValue::Arr(layouts)),
            (
                "lowered",
                JsonValue::Arr(
                    self.lowered
                        .iter()
                        .map(|l| JsonValue::Str(l.clone()))
                        .collect(),
                ),
            ),
            ("cuda", JsonValue::Str(self.cuda.clone())),
            (
                "cost",
                obj(vec![
                    ("total_cycles", num(self.cost.total_cycles)),
                    ("prologue_cycles", num(self.cost.prologue_cycles)),
                    (
                        "loop_iteration_cycles",
                        num(self.cost.loop_iteration_cycles),
                    ),
                    ("epilogue_cycles", num(self.cost.epilogue_cycles)),
                    ("rearrange_cycles", num(self.cost.rearrange_cycles)),
                    ("per_op", JsonValue::Arr(per_op)),
                ]),
            ),
            (
                "perf",
                obj(vec![
                    ("latency_us", num(self.perf.latency_us)),
                    ("block_cycles", num(self.perf.block_cycles)),
                    ("dram_us", num(self.perf.dram_us)),
                    ("compute_us", num(self.perf.compute_us)),
                    ("sm_us", num(self.perf.sm_us)),
                    ("waves", num(self.perf.waves as f64)),
                    ("bank_conflict_cycles", num(self.perf.bank_conflict_cycles)),
                    ("launch_overhead_us", num(self.perf.launch_overhead_us)),
                ]),
            ),
        ])
        .write()
    }

    /// Parses an artifact file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Json`] for malformed JSON, [`ArtifactError::Version`]
    /// when the file was written by a different schema version, and
    /// [`ArtifactError::Schema`] when fields are missing or mistyped.
    pub fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let v = JsonValue::parse(text)?;
        let version = get_usize(&v, "version")?;
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::Version { found: version });
        }
        let fingerprint = u64::from_str_radix(&get_str(&v, "fingerprint")?, 16)
            .map_err(|_| schema_err("`fingerprint` is not a hex u64"))?;
        let tv_layouts = get_arr(&v, "tv_layouts")?
            .iter()
            .map(|l| {
                Ok(TvLayoutRecord {
                    tensor: get_str(l, "tensor")?,
                    layout: get_str(l, "layout")?,
                })
            })
            .collect::<Result<_, ArtifactError>>()?;
        let smem_layouts = get_arr(&v, "smem_layouts")?
            .iter()
            .map(|l| {
                Ok(SmemLayoutRecord {
                    tensor: get_str(l, "tensor")?,
                    offset_bytes: get_usize(l, "offset_bytes")?,
                    size_bytes: get_usize(l, "size_bytes")?,
                    layout: get_str(l, "layout")?,
                })
            })
            .collect::<Result<_, ArtifactError>>()?;
        let lowered = get_arr(&v, "lowered")?
            .iter()
            .map(|l| {
                l.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| schema_err("non-string `lowered` entry"))
            })
            .collect::<Result<_, ArtifactError>>()?;
        let cost_v = v.get("cost").ok_or_else(|| schema_err("missing `cost`"))?;
        let per_op = get_arr(cost_v, "per_op")?
            .iter()
            .map(|c| {
                Ok(OpCostRecord {
                    issue_cycles: get_f64(c, "issue_cycles")?,
                    stall_cycles: get_f64(c, "stall_cycles")?,
                    completion_cycles: get_f64(c, "completion_cycles")?,
                })
            })
            .collect::<Result<_, ArtifactError>>()?;
        let perf_v = v.get("perf").ok_or_else(|| schema_err("missing `perf`"))?;
        Ok(KernelArtifact {
            version,
            fingerprint,
            kernel: get_str(&v, "kernel")?,
            arch: get_str(&v, "arch")?,
            threads_per_block: get_usize(&v, "threads_per_block")?,
            grid_blocks: get_usize(&v, "grid_blocks")?,
            main_loop_trip_count: get_usize(&v, "main_loop_trip_count")?,
            pipeline_stages: get_usize(&v, "pipeline_stages")?,
            warp_specialized: get_bool(&v, "warp_specialized")?,
            smem_bytes: get_usize(&v, "smem_bytes")?,
            registers_per_thread: get_usize(&v, "registers_per_thread")?,
            tv_layouts,
            smem_layouts,
            lowered,
            cuda: get_str(&v, "cuda")?,
            cost: CostRecord {
                total_cycles: get_f64(cost_v, "total_cycles")?,
                prologue_cycles: get_f64(cost_v, "prologue_cycles")?,
                loop_iteration_cycles: get_f64(cost_v, "loop_iteration_cycles")?,
                epilogue_cycles: get_f64(cost_v, "epilogue_cycles")?,
                rearrange_cycles: get_f64(cost_v, "rearrange_cycles")?,
                per_op,
            },
            perf: PerfRecord {
                latency_us: get_f64(perf_v, "latency_us")?,
                block_cycles: get_f64(perf_v, "block_cycles")?,
                dram_us: get_f64(perf_v, "dram_us")?,
                compute_us: get_f64(perf_v, "compute_us")?,
                sm_us: get_f64(perf_v, "sm_us")?,
                waves: get_usize(perf_v, "waves")?,
                bank_conflict_cycles: get_f64(perf_v, "bank_conflict_cycles")?,
                launch_overhead_us: get_f64(perf_v, "launch_overhead_us")?,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// The cache.
// ---------------------------------------------------------------------------

/// Where a served artifact came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactSource {
    /// Served from the in-memory front.
    Memory,
    /// Loaded (and validated) from the disk store.
    Disk,
    /// Freshly synthesized (a cache miss).
    Synthesized,
}

impl fmt::Display for ArtifactSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactSource::Memory => "memory",
            ArtifactSource::Disk => "disk",
            ArtifactSource::Synthesized => "synthesized",
        })
    }
}

/// Configuration of a [`KernelCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCacheConfig {
    /// Directory for the persistent store. `None` (the default) keeps the
    /// cache memory-only.
    pub dir: Option<PathBuf>,
    /// Approximate bound on resident in-memory artifacts (shard-wise
    /// eviction, see [`ShardedMap::bounded`]).
    pub memory_capacity: usize,
    /// Maximum artifact files kept on disk; the oldest (by modification
    /// time) are pruned after each store.
    pub disk_capacity: usize,
    /// Entries older than this — by insertion time for the memory front, by
    /// file modification time on disk — are treated as stale (disk files are
    /// deleted) and re-synthesized. `None` disables expiry.
    pub ttl: Option<Duration>,
    /// Consecutive disk-write failures that trip the circuit breaker into
    /// memory-only mode. `0` disables the breaker.
    pub breaker_threshold: usize,
    /// While the breaker is open, one probe write per interval tests whether
    /// the disk tier has recovered; a successful probe closes the breaker.
    pub breaker_probe_interval: Duration,
}

impl Default for KernelCacheConfig {
    fn default() -> Self {
        KernelCacheConfig {
            dir: None,
            memory_capacity: 256,
            disk_capacity: 1024,
            ttl: None,
            breaker_threshold: 8,
            breaker_probe_interval: Duration::from_millis(500),
        }
    }
}

impl KernelCacheConfig {
    /// Reads the configuration from the environment:
    ///
    /// | Variable | Meaning | Default |
    /// |---|---|---|
    /// | `HEXCUTE_CACHE_DIR` | persistent store directory | unset → memory-only |
    /// | `HEXCUTE_CACHE_CAPACITY` | in-memory artifact bound | 256 |
    /// | `HEXCUTE_CACHE_DISK_CAPACITY` | max artifact files on disk | 1024 |
    /// | `HEXCUTE_CACHE_TTL_SECS` | artifact time-to-live in seconds (`0` = everything is immediately stale) | unset → no expiry |
    /// | `HEXCUTE_CACHE_BREAKER_THRESHOLD` | consecutive write failures tripping memory-only mode (`0` = never) | 8 |
    /// | `HEXCUTE_CACHE_BREAKER_PROBE_MS` | milliseconds between recovery probes while tripped | 500 |
    ///
    /// Unparsable numeric values fall back to the defaults.
    pub fn from_env() -> Self {
        let defaults = Self::default();
        let parse = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(default)
        };
        KernelCacheConfig {
            dir: std::env::var("HEXCUTE_CACHE_DIR").ok().map(PathBuf::from),
            memory_capacity: parse("HEXCUTE_CACHE_CAPACITY", defaults.memory_capacity),
            disk_capacity: parse("HEXCUTE_CACHE_DISK_CAPACITY", defaults.disk_capacity),
            ttl: std::env::var("HEXCUTE_CACHE_TTL_SECS")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_secs),
            breaker_threshold: parse(
                "HEXCUTE_CACHE_BREAKER_THRESHOLD",
                defaults.breaker_threshold,
            ),
            breaker_probe_interval: std::env::var("HEXCUTE_CACHE_BREAKER_PROBE_MS")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_millis)
                .unwrap_or(defaults.breaker_probe_interval),
        }
    }
}

// ---------------------------------------------------------------------------
// The disk-tier circuit breaker.
// ---------------------------------------------------------------------------

/// What the breaker allows a disk write to do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerDecision {
    /// Breaker closed: writes proceed normally.
    Closed,
    /// Breaker open, probe interval elapsed: this one write may test the
    /// disk tier; its outcome closes or re-arms the breaker.
    Probe,
    /// Breaker open: skip the disk tier (memory-only mode).
    Skip,
}

#[derive(Debug)]
struct BreakerState {
    consecutive_failures: usize,
    open: bool,
    last_probe: Option<Instant>,
}

/// A consecutive-failure circuit breaker over the disk store. Writes drive
/// it: `threshold` failures in a row open it (the cache degrades to
/// memory-only), after which one probe write per `probe_interval` tests for
/// recovery; any successful write closes it again.
#[derive(Debug)]
struct Breaker {
    threshold: usize,
    probe_interval: Duration,
    state: std::sync::Mutex<BreakerState>,
    trips: AtomicU64,
    recoveries: AtomicU64,
}

impl Breaker {
    fn new(threshold: usize, probe_interval: Duration) -> Self {
        Breaker {
            threshold,
            probe_interval,
            state: std::sync::Mutex::new(BreakerState {
                consecutive_failures: 0,
                open: false,
                last_probe: None,
            }),
            trips: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn is_open(&self) -> bool {
        self.lock().open
    }

    fn decide(&self) -> BreakerDecision {
        let mut s = self.lock();
        if !s.open {
            return BreakerDecision::Closed;
        }
        let now = Instant::now();
        match s.last_probe {
            Some(t) if now.duration_since(t) < self.probe_interval => BreakerDecision::Skip,
            _ => {
                s.last_probe = Some(now);
                BreakerDecision::Probe
            }
        }
    }

    fn success(&self) {
        let mut s = self.lock();
        s.consecutive_failures = 0;
        if s.open {
            s.open = false;
            s.last_probe = None;
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn failure(&self) {
        if self.threshold == 0 {
            return;
        }
        let mut s = self.lock();
        s.consecutive_failures += 1;
        if !s.open && s.consecutive_failures >= self.threshold {
            s.open = true;
            s.last_probe = Some(Instant::now());
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counters describing a [`KernelCache`]'s behaviour. Snapshot via
/// [`KernelCache::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCacheStats {
    /// Hit/miss/eviction counters of the in-memory front.
    pub memory: CacheStats,
    /// Artifacts served from the disk store.
    pub disk_hits: u64,
    /// Lookups that found no usable artifact file.
    pub disk_misses: u64,
    /// Files rejected as corrupt (unparsable JSON, schema or fingerprint
    /// mismatch) and deleted.
    pub corrupt: u64,
    /// Files rejected for carrying a different [`ARTIFACT_VERSION`] and
    /// deleted.
    pub stale_version: u64,
    /// Files expired by the TTL and deleted.
    pub expired: u64,
    /// Artifacts written to disk.
    pub stores: u64,
    /// Files pruned by the disk-capacity bound.
    pub file_evictions: u64,
    /// Artifact files currently on disk (0 for memory-only caches).
    pub disk_entries: usize,
    /// Defective files renamed aside (`.quarantined`) for post-mortem
    /// inspection instead of being served.
    pub quarantined: u64,
    /// Disk writes that failed (I/O error or injected fault).
    pub write_failures: u64,
    /// Atomic-rename races lost to a concurrent writer of the same artifact
    /// (benign: the other writer's bit-identical file stands).
    pub rename_races: u64,
    /// Disk operations skipped because the circuit breaker was open.
    pub breaker_skips: u64,
    /// Times the breaker tripped into memory-only mode.
    pub breaker_trips: u64,
    /// Times a probe write closed the breaker again.
    pub breaker_recoveries: u64,
    /// Whether the breaker is open right now (disk tier bypassed).
    pub breaker_open: bool,
}

impl fmt::Display for KernelCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory: {}; disk: {} hits / {} misses, {} stored, {} resident, \
             {} corrupt, {} stale-version, {} expired, {} pruned, \
             {} quarantined, {} write-failures, {} rename-races; \
             breaker: {} ({} trips, {} recoveries, {} skips)",
            self.memory,
            self.disk_hits,
            self.disk_misses,
            self.stores,
            self.disk_entries,
            self.corrupt,
            self.stale_version,
            self.expired,
            self.file_evictions,
            self.quarantined,
            self.write_failures,
            self.rename_races,
            if self.breaker_open { "open" } else { "closed" },
            self.breaker_trips,
            self.breaker_recoveries,
            self.breaker_skips
        )
    }
}

/// A persistent, disk-backed kernel-artifact cache with an in-memory
/// [`ShardedMap`] front.
///
/// Lookups go memory → disk → miss; a disk hit is promoted into memory.
/// Artifacts are written crash-consistently (temp file, fsync, atomic
/// rename), so a concurrent reader never observes a partial file even across
/// power loss, and every defect a reader *can* observe (corruption, version
/// drift, expiry) is rejected and counted instead of surfacing as an error —
/// corrupt files are quarantined (renamed aside for post-mortem inspection)
/// and the caller just re-synthesizes. Persistent write failure trips a
/// circuit breaker into memory-only mode with probe-based recovery, and
/// a [`FaultInjector`] can be threaded through every disk path for chaos
/// testing. See the [module docs](self) for a usage example.
#[derive(Debug)]
pub struct KernelCache {
    config: KernelCacheConfig,
    /// Each resident artifact carries its insertion instant so the TTL
    /// applies to the memory front too, not just the disk files.
    memory: ShardedMap<u64, (Arc<KernelArtifact>, Instant)>,
    faults: Option<Arc<FaultInjector>>,
    breaker: Breaker,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    corrupt: AtomicU64,
    stale_version: AtomicU64,
    expired: AtomicU64,
    stores: AtomicU64,
    file_evictions: AtomicU64,
    quarantined: AtomicU64,
    write_failures: AtomicU64,
    rename_races: AtomicU64,
    breaker_skips: AtomicU64,
}

impl KernelCache {
    /// Creates a cache with the given configuration. The cache directory is
    /// created lazily on first store. Fault injection follows the global
    /// `HEXCUTE_FAULTS` injector ([`faults::global`]); use
    /// [`KernelCache::with_faults`] to inject a schedule in-process.
    pub fn new(config: KernelCacheConfig) -> Self {
        Self::with_faults(config, faults::global().cloned())
    }

    /// Creates a cache with an explicit fault injector (or `None` for a
    /// fault-free cache regardless of the environment).
    pub fn with_faults(config: KernelCacheConfig, faults: Option<Arc<FaultInjector>>) -> Self {
        let memory = ShardedMap::bounded(config.memory_capacity.max(1));
        let breaker = Breaker::new(config.breaker_threshold, config.breaker_probe_interval);
        KernelCache {
            config,
            memory,
            faults,
            breaker,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stale_version: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            file_evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            rename_races: AtomicU64::new(0),
            breaker_skips: AtomicU64::new(0),
        }
    }

    /// A cache configured from the `HEXCUTE_CACHE_*` environment variables
    /// (see [`KernelCacheConfig::from_env`]).
    pub fn from_env() -> Self {
        Self::new(KernelCacheConfig::from_env())
    }

    /// The active configuration.
    pub fn config(&self) -> &KernelCacheConfig {
        &self.config
    }

    /// The on-disk path an artifact with this fingerprint is stored at
    /// (`None` for memory-only caches).
    pub fn artifact_path(&self, fingerprint: u64) -> Option<PathBuf> {
        self.config
            .dir
            .as_ref()
            .map(|d| d.join(format!("{fingerprint:016x}.json")))
    }

    /// Looks up an artifact: the in-memory front first, then the disk store.
    /// A disk hit is promoted into memory; a defective file (corrupt, wrong
    /// version, wrong fingerprint, expired) is deleted and counted, and the
    /// lookup reports a miss so the caller re-synthesizes. The TTL applies
    /// to both tiers: an expired memory entry falls through (and is
    /// overwritten by the re-synthesis), an expired file is deleted.
    pub fn get(&self, fingerprint: u64) -> Option<(Arc<KernelArtifact>, ArtifactSource)> {
        if let Some((hit, inserted)) = self.memory.get(&fingerprint) {
            match self.config.ttl {
                Some(ttl) if inserted.elapsed() >= ttl => {
                    self.expired.fetch_add(1, Ordering::Relaxed);
                    // Fall through to disk (typically expired too) and on to
                    // re-synthesis; the insert overwrites this entry.
                }
                _ => return Some((hit, ArtifactSource::Memory)),
            }
        }
        let path = self.artifact_path(fingerprint)?;
        if self.breaker.is_open() {
            // Memory-only mode: the disk tier is misbehaving, don't touch it
            // on the read path (probes happen on writes).
            self.breaker_skips.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match self.load(&path, fingerprint) {
            Some(artifact) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let artifact = Arc::new(artifact);
                self.memory
                    .insert(fingerprint, (artifact.clone(), Instant::now()));
                Some((artifact, ArtifactSource::Disk))
            }
            None => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn load(&self, path: &Path, fingerprint: u64) -> Option<KernelArtifact> {
        let metadata = std::fs::metadata(path).ok()?;
        if let (Some(ttl), Ok(modified)) = (self.config.ttl, metadata.modified()) {
            let age = SystemTime::now()
                .duration_since(modified)
                .unwrap_or(Duration::ZERO);
            if age >= ttl {
                self.expired.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(path);
                return None;
            }
        }
        if let Some(f) = &self.faults {
            f.io_delay();
        }
        let mut text = std::fs::read_to_string(path).ok()?;
        let parsed = match &self.faults {
            Some(f) if f.should(FaultKind::DiskReadCorrupt) => {
                text = f.corrupt_text(&text);
                KernelArtifact::from_json(&text)
            }
            Some(f) if f.should(FaultKind::StaleVersion) => Err(ArtifactError::Version {
                found: ARTIFACT_VERSION + 1,
            }),
            _ => KernelArtifact::from_json(&text),
        };
        match parsed {
            Ok(artifact) if artifact.fingerprint == fingerprint => Some(artifact),
            Ok(_) => {
                // A file whose content disagrees with its name: treat as
                // corruption (e.g. a hand-copied or bit-flipped file).
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.quarantine(path);
                None
            }
            Err(ArtifactError::Version { .. }) => {
                // Version drift is expected across upgrades, not worth a
                // post-mortem: delete rather than quarantine.
                self.stale_version.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(path);
                None
            }
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.quarantine(path);
                None
            }
        }
    }

    /// Moves a defective artifact file aside as `<fingerprint>.quarantined`
    /// so it can never be served again but survives for inspection. Falls
    /// back to deletion if the rename fails; either way the `.json` name is
    /// free for the re-synthesized replacement.
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let aside = path.with_extension("quarantined");
        if std::fs::rename(path, &aside).is_err() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Inserts an artifact into the memory front and (when a directory is
    /// configured) the disk store. Disk writes are crash-consistent — temp
    /// file, fsync, atomic rename — and filesystem failures degrade to a
    /// memory-only insert rather than an error: the cache is an accelerator,
    /// not a dependency. Enough consecutive write failures trip the circuit
    /// breaker, after which the disk tier is skipped entirely except for one
    /// probe write per probe interval.
    pub fn insert(&self, artifact: Arc<KernelArtifact>) {
        let fingerprint = artifact.fingerprint;
        self.memory
            .insert(fingerprint, (artifact.clone(), Instant::now()));
        let Some(path) = self.artifact_path(fingerprint) else {
            return;
        };
        if self.breaker.decide() == BreakerDecision::Skip {
            self.breaker_skips.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let dir = path.parent().expect("artifact path has a parent");
        if std::fs::create_dir_all(dir).is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            self.breaker.failure();
            return;
        }
        // The counter keeps concurrent writers of the *same* fingerprint in
        // one process from sharing a temp file.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            "{fingerprint:016x}.tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Some(f) = &self.faults {
            f.io_delay();
        }
        let json = artifact.to_json();
        let injected_fail = self
            .faults
            .as_ref()
            .is_some_and(|f| f.should(FaultKind::DiskWriteFail));
        let written = if injected_fail {
            // Simulate ENOSPC mid-write: leave a truncated temp file behind,
            // then report failure. The rename never happens, so readers
            // never see the partial content.
            let _ = std::fs::write(&tmp, &json[..json.len() / 2]);
            false
        } else {
            Self::write_durable(&tmp, json.as_bytes()).is_ok()
        };
        if !written {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            self.breaker.failure();
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                self.breaker.success();
                self.prune(dir);
            }
            Err(_) if path.exists() => {
                // Lost an atomic-rename race: a concurrent writer landed its
                // (bit-identical) file first. Benign — count and move on.
                self.rename_races.fetch_add(1, Ordering::Relaxed);
                self.breaker.success();
                let _ = std::fs::remove_file(&tmp);
            }
            Err(_) => {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                self.breaker.failure();
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// Writes `bytes` and fsyncs before returning, so the subsequent rename
    /// never publishes a file whose content could still be lost to a crash.
    fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::File::create(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    /// Enforces the disk-capacity bound by deleting the oldest artifact
    /// files (by modification time), and sweeps up temp files orphaned by
    /// crashed writers (a live write is younger than a minute — it is a
    /// single write + rename — so old stragglers are safe to delete).
    fn prune(&self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(SystemTime, PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Ok(modified) = entry.metadata().and_then(|m| m.modified()) else {
                continue;
            };
            if path.extension().is_some_and(|x| x == "json") {
                files.push((modified, path));
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp-") || n.ends_with(".quarantined"))
                && SystemTime::now()
                    .duration_since(modified)
                    .is_ok_and(|age| age >= Duration::from_secs(60))
            {
                // Orphaned temp files and inspected quarantine debris: both
                // are invisible to lookups; sweep once they are stale.
                let _ = std::fs::remove_file(&path);
            }
        }
        if files.len() <= self.config.disk_capacity {
            return;
        }
        files.sort_by_key(|(modified, _)| *modified);
        let excess = files.len() - self.config.disk_capacity;
        for (_, path) in files.into_iter().take(excess) {
            if std::fs::remove_file(path).is_ok() {
                self.file_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of artifact files currently on disk (0 for memory-only).
    pub fn disk_entries(&self) -> usize {
        let Some(dir) = self.config.dir.as_ref() else {
            return 0;
        };
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// A snapshot of every counter plus the current disk occupancy.
    pub fn stats(&self) -> KernelCacheStats {
        KernelCacheStats {
            memory: self.memory.stats(),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stale_version: self.stale_version.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            file_evictions: self.file_evictions.load(Ordering::Relaxed),
            disk_entries: self.disk_entries(),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            rename_races: self.rename_races.load(Ordering::Relaxed),
            breaker_skips: self.breaker_skips.load(Ordering::Relaxed),
            breaker_trips: self.breaker.trips.load(Ordering::Relaxed),
            breaker_recoveries: self.breaker.recoveries.load(Ordering::Relaxed),
            breaker_open: self.breaker.is_open(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hasher_is_deterministic_and_sensitive() {
        let mut a = StableHasher::new();
        "hello".hash(&mut a);
        42usize.hash(&mut a);
        let mut b = StableHasher::new();
        "hello".hash(&mut b);
        42usize.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        "hellp".hash(&mut c);
        42usize.hash(&mut c);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn config_defaults_are_memory_only() {
        let config = KernelCacheConfig::default();
        assert!(config.dir.is_none());
        assert!(config.ttl.is_none());
        let cache = KernelCache::new(config);
        assert!(cache.get(123).is_none());
        assert_eq!(cache.artifact_path(123), None);
        assert_eq!(cache.stats().disk_entries, 0);
    }
}
