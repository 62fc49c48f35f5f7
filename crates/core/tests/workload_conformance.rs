//! Workload-conformance suite (PR 5): a randomized differential harness over
//! the *whole* workload zoo — GEMM (FP16/BF16), warp-specialized GEMM, FP8
//! GEMM, attention, mixed-type MoE, Mamba scan, W4A16 quantized GEMM and
//! grouped GEMM — asserting that the ordered candidate list and every
//! cost-model / performance-simulator score is **bit-identical** across the
//! full execution-toggle matrix:
//!
//! * flat-layout fast path on/off (`HEXCUTE_DISABLE_FAST_PATH` /
//!   `hexcute_layout::set_fast_path`),
//! * incremental prefix-shared search on/off
//!   (`HEXCUTE_DISABLE_INCREMENTAL` / `SynthesisOptions::incremental`),
//! * deterministic node budgets (`HEXCUTE_SYNTH_BUDGET` /
//!   `SynthesisOptions::node_budget`): a budget covering the full space is
//!   bit-identical to the exhaustive search, and a small budget truncates
//!   to the same prefix under every toggle,
//! * branch-and-bound pruning on/off (`HEXCUTE_DISABLE_PRUNE` /
//!   `SynthesisOptions::prune`),
//! * artifact cache cold vs. warm (memory and disk hits).
//!
//! Every new workload family plugs into this harness by construction: adding
//! a variant to [`Workload`] covers it across all toggles. Each compilation
//! runs on one thread; the worker-count axis of the suite is the compile
//! service's batch fan-out (`crates/e2e/tests/batch_conformance.rs`). The
//! CI `reference-paths` leg (`HEXCUTE_DISABLE_FAST_PATH=1
//! HEXCUTE_DISABLE_INCREMENTAL=1 HEXCUTE_DISABLE_PRUNE=1`) re-runs this file
//! under the env-driven toggles, so the environment-variable spellings get
//! real coverage too (mutating the environment of a threaded test process
//! is unsafe, so the in-process sweep uses the options instead).

use std::sync::Mutex;

use hexcute_arch::{DType, GpuArch};
use hexcute_core::{Compiler, CompilerOptions, KernelCache, KernelCacheConfig};
use hexcute_costmodel::CostBreakdown;
use hexcute_ir::Program;
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{
    bf16_gemm, fp16_gemm, fp8_blockwise_gemm, warp_specialized_gemm, GemmConfig, GemmShape,
};
use hexcute_kernels::grouped_gemm::{grouped_gemm, GroupedGemmConfig, GroupedGemmShape};
use hexcute_kernels::mamba::{selective_scan, ScanConfig, ScanShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_kernels::quant_gemm::{w4a16_gemm, QuantGemmConfig, QuantGemmShape};
use hexcute_sim::PerfReport;
use hexcute_synthesis::{Candidate, SynthesisOptions, Synthesizer};
use proptest::prelude::*;

/// One sampled workload instance: a family plus its shape/dtype parameters.
#[derive(Debug, Clone, PartialEq)]
enum Workload {
    /// Plain GEMM at the given element type (F16 or BF16).
    Gemm {
        dtype: DType,
        m_tiles: usize,
        k_tiles: usize,
    },
    /// Hopper warp-specialized FP16 GEMM.
    WarpGemm,
    /// Blockwise-scaled FP8 GEMM (Hopper only).
    Fp8Gemm,
    /// Fused attention forward.
    Attention {
        heads: usize,
        seq_tiles: usize,
        head_dim: usize,
    },
    /// Mixed-type FP16×INT4 MoE.
    Moe { tokens: usize, efficient: bool },
    /// Mamba selective scan.
    Mamba { batch: usize },
    /// W4A16 quantized GEMM with grouped dequantization.
    QuantGemm {
        group_size: usize,
        n: usize,
        k: usize,
    },
    /// Fused grouped/batched GEMM over a per-expert problem list.
    GroupedGemm { tokens: Vec<usize> },
}

impl Workload {
    /// Whether the workload is buildable for the architecture.
    fn supports(&self, arch: &GpuArch) -> bool {
        match self {
            Workload::WarpGemm | Workload::Fp8Gemm => arch.has_wgmma,
            _ => true,
        }
    }

    fn build(&self) -> Program {
        match self {
            Workload::Gemm {
                dtype,
                m_tiles,
                k_tiles,
            } => {
                let config = GemmConfig::default();
                let shape = GemmShape::new(
                    m_tiles * config.block_m,
                    config.block_n,
                    k_tiles * config.block_k,
                );
                // Both dtypes go through the one shared GEMM builder in the
                // kernels crate, so the conformance copy cannot drift.
                match dtype {
                    DType::F16 => fp16_gemm(shape, config).unwrap(),
                    _ => bf16_gemm(shape, config).unwrap(),
                }
            }
            Workload::WarpGemm => warp_specialized_gemm(
                GemmShape::new(512, 512, 256),
                GemmConfig::warp_specialized_hopper(),
            )
            .unwrap(),
            Workload::Fp8Gemm => {
                fp8_blockwise_gemm(GemmShape::new(512, 512, 256), GemmConfig::default()).unwrap()
            }
            Workload::Attention {
                heads,
                seq_tiles,
                head_dim,
            } => {
                let config = AttentionConfig::default();
                mha_forward(
                    AttentionShape::forward(1, *heads, seq_tiles * config.block_kv, *head_dim),
                    config,
                )
                .unwrap()
            }
            Workload::Moe { tokens, efficient } => {
                let dataflow = if *efficient {
                    MoeDataflow::Efficient
                } else {
                    MoeDataflow::TritonStyle
                };
                mixed_type_moe(
                    MoeShape::deepseek_r1(*tokens),
                    MoeConfig::default(),
                    dataflow,
                )
                .unwrap()
            }
            Workload::Mamba { batch } => {
                selective_scan(ScanShape::new(*batch, 512, 16, 256), ScanConfig::default()).unwrap()
            }
            Workload::QuantGemm { group_size, n, k } => w4a16_gemm(
                QuantGemmShape::new(16, *n, *k, *group_size),
                QuantGemmConfig::default(),
            )
            .unwrap(),
            Workload::GroupedGemm { tokens } => grouped_gemm(
                &GroupedGemmShape::from_token_counts(tokens.clone(), 256, 512),
                GroupedGemmConfig::default(),
            )
            .unwrap(),
        }
    }
}

type Scored = Vec<(Candidate, CostBreakdown, PerfReport)>;

fn compile_config(program: &Program, arch: &GpuArch, incremental: bool) -> Scored {
    compile_config_budgeted(program, arch, incremental, None)
}

fn compile_config_budgeted(
    program: &Program,
    arch: &GpuArch,
    incremental: bool,
    node_budget: Option<usize>,
) -> Scored {
    let options = CompilerOptions {
        synthesis: SynthesisOptions {
            incremental,
            node_budget,
            ..SynthesisOptions::default()
        },
        use_cost_model: true,
    };
    Compiler::with_options(arch.clone(), options)
        .compile_candidates(program)
        .unwrap()
}

/// Runs the raw search (no scoring) under a node budget and reports whether
/// it truncated plus the candidate list in enumeration order.
fn synthesize_budgeted(
    program: &Program,
    arch: &GpuArch,
    incremental: bool,
    node_budget: Option<usize>,
) -> (bool, Vec<Candidate>) {
    let options = SynthesisOptions {
        incremental,
        node_budget,
        ..SynthesisOptions::default()
    };
    let (outcome, _) = Synthesizer::new(program, arch, options)
        .synthesize_outcome(None)
        .unwrap();
    (outcome.is_truncated(), outcome.into_candidates())
}

fn assert_scored_equal(label: &str, program: &Program, reference: &Scored, other: &Scored) {
    assert_eq!(
        reference.len(),
        other.len(),
        "[{label}] candidate counts diverged for {}",
        program.name
    );
    for (i, ((rc, rcost, rperf), (oc, ocost, operf))) in
        reference.iter().zip(other.iter()).enumerate()
    {
        assert_eq!(
            rc, oc,
            "[{label}] candidate {i} of {} diverged",
            program.name
        );
        assert_eq!(
            rcost.total_cycles.to_bits(),
            ocost.total_cycles.to_bits(),
            "[{label}] cost of candidate {i} of {} diverged",
            program.name
        );
        assert_eq!(rcost, ocost);
        assert_eq!(
            rperf.latency_us.to_bits(),
            operf.latency_us.to_bits(),
            "[{label}] latency of candidate {i} of {} diverged",
            program.name
        );
        assert_eq!(rperf, operf);
    }
}

/// Runs a full compile (selection + lowering) with branch-and-bound pruning
/// forced on or off, returning the compiled kernel.
fn compile_pruned_config(
    program: &Program,
    arch: &GpuArch,
    prune: bool,
) -> hexcute_core::CompiledKernel {
    let options = CompilerOptions {
        synthesis: SynthesisOptions {
            prune,
            beam_width: None,
            ..SynthesisOptions::default()
        },
        use_cost_model: true,
    };
    Compiler::with_options(arch.clone(), options)
        .compile(program)
        .unwrap()
}

/// Asserts that a pruned compile's winner, score and perf are bit-identical
/// to the exhaustive reference compile.
fn assert_winner_equal(
    label: &str,
    program: &Program,
    reference: &hexcute_core::CompiledKernel,
    pruned: &hexcute_core::CompiledKernel,
) {
    assert_eq!(
        reference.candidate, pruned.candidate,
        "[{label}] pruned winner diverged for {}",
        program.name
    );
    assert_eq!(
        reference.cost.total_cycles.to_bits(),
        pruned.cost.total_cycles.to_bits(),
        "[{label}] pruned winner score diverged for {}",
        program.name
    );
    assert_eq!(
        reference.cost, pruned.cost,
        "[{label}] pruned cost breakdown diverged for {}",
        program.name
    );
    assert_eq!(
        reference.perf.latency_us.to_bits(),
        pruned.perf.latency_us.to_bits(),
        "[{label}] pruned latency diverged for {}",
        program.name
    );
    assert_eq!(
        reference.perf, pruned.perf,
        "[{label}] pruned perf report diverged for {}",
        program.name
    );
}

/// The prune axis of the matrix: exact branch-and-bound must pick the same
/// winner — same candidate, same cost bits, same perf bits, same emitted
/// artifact — as the exhaustive ranking, with the fast path on and off.
fn assert_prune_conformance(workload: &Workload, arch: &GpuArch) {
    if !workload.supports(arch) {
        return;
    }
    let program = workload.build();
    let reference = compile_pruned_config(&program, arch, false);

    // Default toggles.
    let pruned = compile_pruned_config(&program, arch, true);
    assert_winner_equal("prune", &program, &reference, &pruned);

    // Fast-path-off cell (the fast-path-on cell ran above). The switch is
    // process-global, so hold the lock while it is flipped.
    {
        let _guard = FASTPATH_LOCK.lock().unwrap();
        let was_fast = hexcute_layout::fast_path_enabled();
        hexcute_layout::set_fast_path(false);
        let slow = compile_pruned_config(&program, arch, true);
        hexcute_layout::set_fast_path(was_fast);
        assert_winner_equal("prune/fast-path-off", &program, &reference, &slow);
    }

    // The emitted artifact must be bit-identical too — pruning must be
    // invisible in the persistent cache (same fingerprint, same JSON).
    let pruned_artifact = Compiler::with_options(
        arch.clone(),
        CompilerOptions {
            synthesis: SynthesisOptions {
                prune: true,
                ..SynthesisOptions::default()
            },
            use_cost_model: true,
        },
    )
    .compile_artifact(&program)
    .unwrap();
    let exhaustive_artifact = Compiler::with_options(
        arch.clone(),
        CompilerOptions {
            synthesis: SynthesisOptions {
                prune: false,
                ..SynthesisOptions::default()
            },
            use_cost_model: true,
        },
    )
    .compile_artifact(&program)
    .unwrap();
    assert_eq!(
        pruned_artifact.fingerprint, exhaustive_artifact.fingerprint,
        "the prune toggle must not fragment the artifact fingerprint for {}",
        program.name
    );
    assert_eq!(
        pruned_artifact.to_json(),
        exhaustive_artifact.to_json(),
        "pruned artifact JSON diverged for {}",
        program.name
    );
}

/// Serializes the sections that flip the process-global fast-path switch so
/// parallel test threads in this binary never observe each other's toggles.
static FASTPATH_LOCK: Mutex<()> = Mutex::new(());

fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hexcute-conformance-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The full toggle matrix for one (workload, arch) pair.
fn assert_conformance(workload: &Workload, arch: &GpuArch) {
    if !workload.supports(arch) {
        return;
    }
    let program = workload.build();

    // Reference: full re-evaluation.
    let reference = compile_config(&program, arch, false);

    // Incremental prefix-shared walk.
    let incremental = compile_config(&program, arch, true);
    assert_scored_equal("incremental", &program, &reference, &incremental);

    // Node budget ≥ the full search space is a no-op: bit-identical to the
    // unbudgeted exhaustive search, on both the incremental and reference
    // paths (HEXCUTE_SYNTH_BUDGET axis, PR 8).
    let big_incremental = compile_config_budgeted(&program, arch, true, Some(usize::MAX));
    assert_scored_equal("budget-max", &program, &reference, &big_incremental);
    let big_reference = compile_config_budgeted(&program, arch, false, Some(usize::MAX));
    assert_scored_equal("budget-max/reference", &program, &reference, &big_reference);

    // A small budget truncates deterministically: both evaluation paths
    // report the same truncation flag and the same `best_so_far` list — a
    // prefix of the exhaustive enumeration.
    let exhaustive = synthesize_budgeted(&program, arch, true, None);
    let budget = Some(2usize);
    let truncated_ref = synthesize_budgeted(&program, arch, true, budget);
    assert_eq!(
        truncated_ref,
        synthesize_budgeted(&program, arch, false, budget),
        "[budget-2/reference] budgeted outcome diverged for {}",
        program.name
    );
    let (was_truncated, truncated_candidates) = truncated_ref;
    assert_eq!(
        truncated_candidates,
        exhaustive.1[..truncated_candidates.len()],
        "a truncated search must return a prefix of the exhaustive \
         enumeration for {}",
        program.name
    );
    if !was_truncated {
        // Tiny search spaces fit inside the budget; then the outcome must
        // be the complete list.
        assert_eq!(truncated_candidates.len(), exhaustive.1.len());
    }

    // Fast path off: the recursive layout algebra and the element-by-element
    // simulator (the HEXCUTE_DISABLE_FAST_PATH configuration). The switch is
    // process-global, so hold the lock while it is flipped. The fast-path-on
    // cells are the reference / incremental runs above.
    {
        let _guard = FASTPATH_LOCK.lock().unwrap();
        let was_fast = hexcute_layout::fast_path_enabled();
        hexcute_layout::set_fast_path(false);
        let slow = compile_config(&program, arch, false);
        let slow_incremental = compile_config(&program, arch, true);
        hexcute_layout::set_fast_path(was_fast);
        assert_scored_equal("fast-path-off", &program, &reference, &slow);
        assert_scored_equal(
            "fast-path-off/incremental",
            &program,
            &reference,
            &slow_incremental,
        );
    }

    // Prune axis: exact branch-and-bound vs. the exhaustive ranking.
    assert_prune_conformance(workload, arch);

    // Cache cold vs. warm: a memory hit and a disk hit (fresh cache over the
    // same directory) must both return the cold artifact bit for bit.
    let dir = unique_temp_dir("matrix");
    let cache = KernelCache::new(KernelCacheConfig {
        dir: Some(dir.clone()),
        ..KernelCacheConfig::default()
    });
    let compiler = Compiler::new(arch.clone());
    let (cold, cold_src) = compiler.compile_with_cache(&program, &cache).unwrap();
    assert_eq!(cold_src, hexcute_core::ArtifactSource::Synthesized);
    let (mem, mem_src) = compiler.compile_with_cache(&program, &cache).unwrap();
    assert_eq!(mem_src, hexcute_core::ArtifactSource::Memory);
    assert_eq!(*mem, *cold, "memory hit differs for {}", program.name);
    let fresh = KernelCache::new(KernelCacheConfig {
        dir: Some(dir.clone()),
        ..KernelCacheConfig::default()
    });
    let (disk, disk_src) = compiler.compile_with_cache(&program, &fresh).unwrap();
    assert_eq!(disk_src, hexcute_core::ArtifactSource::Disk);
    assert_eq!(*disk, *cold, "disk hit differs for {}", program.name);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every family once (one representative instance each), on its natural
/// architecture — the deterministic anchor of the suite.
#[test]
fn every_family_conforms_across_the_toggle_matrix() {
    let a100 = GpuArch::a100();
    let h100 = GpuArch::h100();
    let cases: Vec<(Workload, &GpuArch)> = vec![
        (
            Workload::Gemm {
                dtype: DType::F16,
                m_tiles: 1,
                k_tiles: 2,
            },
            &a100,
        ),
        (
            Workload::Gemm {
                dtype: DType::BF16,
                m_tiles: 1,
                k_tiles: 2,
            },
            &a100,
        ),
        (Workload::WarpGemm, &h100),
        (Workload::Fp8Gemm, &h100),
        (
            Workload::Attention {
                heads: 4,
                seq_tiles: 2,
                head_dim: 64,
            },
            &a100,
        ),
        (
            Workload::Moe {
                tokens: 4,
                efficient: true,
            },
            &h100,
        ),
        (Workload::Mamba { batch: 4 }, &a100),
        (
            Workload::QuantGemm {
                group_size: 64,
                n: 128,
                k: 256,
            },
            &h100,
        ),
        (
            Workload::GroupedGemm {
                tokens: vec![16, 0, 5, 32],
            },
            &h100,
        ),
    ];
    for (workload, arch) in &cases {
        assert_conformance(workload, arch);
    }
}

/// Maps a sampled (family index, parameter draws) tuple to a workload
/// instance — the generator of the (family × shape × dtype) dimensions.
fn workload_from(family: usize, a: usize, b: usize, c: usize, tokens: Vec<usize>) -> Workload {
    match family % 8 {
        0 => Workload::Gemm {
            dtype: [DType::F16, DType::BF16][a % 2],
            m_tiles: 1 + b % 2,
            k_tiles: 1 + c % 2,
        },
        1 => Workload::WarpGemm,
        2 => Workload::Fp8Gemm,
        3 => Workload::Attention {
            heads: 1 + a % 4,
            seq_tiles: 1 + b % 2,
            head_dim: [64, 128][c % 2],
        },
        4 => Workload::Moe {
            tokens: [2, 4, 16][a % 3],
            efficient: b.is_multiple_of(2),
        },
        5 => Workload::Mamba { batch: 1 + a % 4 },
        6 => Workload::QuantGemm {
            // Groups below, at, and above block_k (64): the third exercises
            // the shared-scale-column (stride-0) tile→group mapping.
            group_size: [32, 64, 128][a % 3],
            n: [128, 256][b % 2],
            k: 256,
        },
        _ => Workload::GroupedGemm { tokens },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized sweep over (family × shape × dtype × arch): the toggle
    /// matrix must hold for every sampled instance.
    #[test]
    fn random_workloads_conform(
        family in 0usize..8,
        a in 0usize..12,
        b in 0usize..12,
        c in 0usize..12,
        tokens in collection::vec(0usize..=48, 2..=6),
        on_h100 in 0usize..2,
    ) {
        let workload = workload_from(family, a, b, c, tokens);
        let arch = if on_h100 == 1 { GpuArch::h100() } else { GpuArch::a100() };
        assert_conformance(&workload, &arch);
    }
}
