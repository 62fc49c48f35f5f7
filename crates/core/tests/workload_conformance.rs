//! Workload-conformance suite: a randomized differential harness over the
//! *whole* workload zoo — GEMM (FP16/BF16), warp-specialized GEMM, FP8
//! GEMM, attention, mixed-type MoE, Mamba scan, W4A16 quantized GEMM and
//! grouped GEMM — asserting that the production pipeline is **bit-identical**
//! to its reference entry points, cell by cell:
//!
//! * production ranking (incremental prefix-shared search, shared
//!   performance evaluator) vs. the reference ranking
//!   ([`Synthesizer::synthesize_reference`] plus `estimate_kernel` per
//!   candidate): same ordered candidate list, same cost and latency bits,
//! * deterministic node budgets (`HEXCUTE_SYNTH_BUDGET` /
//!   `SynthesisOptions::node_budget`): a budget covering the full space is
//!   bit-identical to the exhaustive search, and a small budget truncates
//!   both walks to the same prefix,
//! * the branch-and-bound compile vs. the exhaustive argmin of the
//!   reference ranking (winner, cost, perf and artifact JSON),
//! * artifact cache cold vs. warm (memory and disk hits).
//!
//! Every cell asserts a witness that the path it names ran: the incremental
//! walk reports prefix stats, the reference reports none, and the pruned
//! compile evaluated completion bounds. The layout algebra's flat path is
//! checked against its recursive reference on every memo miss in debug
//! builds, so these compiles cross-check it too.
//!
//! Every new workload family plugs into this harness by construction: adding
//! a variant to [`Workload`] covers it in every cell. Each compilation runs
//! on one thread; the worker-count axis of the suite is the compile
//! service's batch fan-out (`crates/e2e/tests/batch_conformance.rs`).

mod common;

use hexcute_arch::{DType, GpuArch};
use hexcute_codegen::lower;
use hexcute_core::{
    CompiledKernel, Compiler, CompilerOptions, KernelArtifact, KernelCache, KernelCacheConfig,
};
use hexcute_costmodel::{CompletionBounds, CostModel};
use hexcute_ir::Program;
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{
    bf16_gemm, fp16_gemm, fp8_blockwise_gemm, warp_specialized_gemm, GemmConfig, GemmShape,
};
use hexcute_kernels::grouped_gemm::{grouped_gemm, GroupedGemmConfig, GroupedGemmShape};
use hexcute_kernels::mamba::{selective_scan, ScanConfig, ScanShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_kernels::quant_gemm::{w4a16_gemm, QuantGemmConfig, QuantGemmShape};
use hexcute_synthesis::{Candidate, SynthesisOptions, Synthesizer};
use proptest::prelude::*;

use common::{assert_scored_equal, production_ranking, reference_ranking, Scored};

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

/// The default options with `node_budget` set explicitly (overriding
/// `HEXCUTE_SYNTH_BUDGET`).
fn budgeted(node_budget: Option<usize>) -> SynthesisOptions {
    SynthesisOptions {
        node_budget,
        ..SynthesisOptions::default()
    }
}

/// Runs both raw searches (no scoring) under a node budget and reports, for
/// the incremental walk and then the reference, whether it truncated plus
/// the candidate list in enumeration order.
fn synthesize_budgeted(
    program: &Program,
    arch: &GpuArch,
    node_budget: Option<usize>,
) -> [(bool, Vec<Candidate>); 2] {
    let synth = Synthesizer::new(program, arch, budgeted(node_budget));
    let (incremental, stats) = synth.synthesize_outcome(None).unwrap();
    assert!(stats.is_some(), "the incremental walk reports its stats");
    let (reference, stats) = synth.synthesize_reference(None).unwrap();
    assert!(stats.is_none(), "the reference builds no prefix tree");
    [incremental, reference].map(|outcome| (outcome.is_truncated(), outcome.into_candidates()))
}

/// The prune cell: the default compile (branch-and-bound whenever the
/// search engages) must pick the exhaustive argmin of the reference ranking
/// — same candidate, same cost bits, same perf bits, same emitted artifact.
fn assert_prune_conformance(program: &Program, arch: &GpuArch, reference: &Scored) {
    let synthesis = SynthesisOptions {
        beam_width: None,
        ..SynthesisOptions::default()
    };
    let compiler = Compiler::with_options(
        arch.clone(),
        CompilerOptions {
            synthesis: synthesis.clone(),
            use_cost_model: true,
        },
    );
    let compiled = compiler.compile(program).unwrap();

    // Witness: the same search the compiler runs either engages (and then
    // bounded its prefixes) or declines, and then the compile ranked every
    // candidate exhaustively.
    let model = CostModel::new(arch);
    let mut bounder = CompletionBounds::new(&model, program);
    match Synthesizer::new(program, arch, synthesis)
        .synthesize_pruned(&mut bounder, None)
        .unwrap()
    {
        Some(outcome) => {
            // What the pruned compile reports: only the winner is scored.
            let stats = &compiled.stats;
            assert_eq!(
                (stats.selected_by_cost_model, stats.best_by_simulation),
                (0, 0),
                "{}",
                program.name
            );
            assert_eq!(stats.selection_quality, 1.0, "{}", program.name);
            assert_eq!(
                stats.candidates_explored, outcome.enumerated,
                "{}",
                program.name
            );
            assert!(
                outcome.stats.bound_evaluations > 0 || outcome.enumerated == 1,
                "the pruned search evaluated no bound for {}",
                program.name
            );
            assert_eq!(outcome.winner, compiled.candidate, "{}", program.name);
        }
        None => assert_eq!(compiled.stats.candidates_explored, reference.len()),
    }

    // The exhaustive argmin: the first candidate with the least cost.
    let (candidate, cost, perf) = reference
        .iter()
        .min_by(|a, b| a.1.total_cycles.total_cmp(&b.1.total_cycles))
        .expect("at least one candidate");
    assert_eq!(
        *candidate, compiled.candidate,
        "pruned winner diverged for {}",
        program.name
    );
    assert_eq!(
        cost.total_cycles.to_bits(),
        compiled.cost.total_cycles.to_bits(),
        "pruned winner score diverged for {}",
        program.name
    );
    assert_eq!(
        *cost, compiled.cost,
        "pruned cost diverged for {}",
        program.name
    );
    assert_eq!(
        perf.latency_us.to_bits(),
        compiled.perf.latency_us.to_bits(),
        "pruned latency diverged for {}",
        program.name
    );
    assert_eq!(
        *perf, compiled.perf,
        "pruned perf diverged for {}",
        program.name
    );

    // The emitted artifact must be bit-identical too: pruning is invisible
    // in the persistent cache.
    let exhaustive = CompiledKernel {
        program: program.clone(),
        candidate: candidate.clone(),
        lowered: lower(program, candidate),
        cost: cost.clone(),
        perf: perf.clone(),
        stats: compiled.stats.clone(),
    };
    let fingerprint = compiler.artifact_fingerprint(program);
    assert_eq!(
        compiler.compile_artifact(program).unwrap().to_json(),
        KernelArtifact::from_compiled(fingerprint, &exhaustive, arch).to_json(),
        "pruned artifact JSON diverged for {}",
        program.name
    );
}

fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hexcute-conformance-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every conformance cell for one (workload, arch) pair.
fn assert_conformance(workload: &Workload, arch: &GpuArch) {
    if !workload.supports(arch) {
        return;
    }
    let program = workload.build();

    // Reference: full re-evaluation, each candidate simulated on its own.
    let reference = reference_ranking(&program, arch, budgeted(None));
    let production = production_ranking(&program, arch, budgeted(None));
    assert_scored_equal("production", &program, &reference, &production);

    // Node budget ≥ the full search space is a no-op: bit-identical to the
    // unbudgeted exhaustive search, on both walks.
    let big = budgeted(Some(usize::MAX));
    let big_production = production_ranking(&program, arch, big.clone());
    assert_scored_equal("budget-max", &program, &reference, &big_production);
    let big_reference = reference_ranking(&program, arch, big);
    assert_scored_equal("budget-max/reference", &program, &reference, &big_reference);

    // A small budget truncates deterministically: both walks report the
    // same truncation flag and the same `best_so_far` list — a prefix of
    // the exhaustive enumeration.
    let exhaustive = reference
        .iter()
        .map(|(c, _, _)| c.clone())
        .collect::<Vec<_>>();
    let [truncated, truncated_reference] = synthesize_budgeted(&program, arch, Some(2));
    assert_eq!(
        truncated, truncated_reference,
        "[budget-2/reference] budgeted outcome diverged for {}",
        program.name
    );
    let (was_truncated, truncated_candidates) = truncated;
    assert_eq!(
        truncated_candidates,
        exhaustive[..truncated_candidates.len()],
        "a truncated search must return a prefix of the exhaustive \
         enumeration for {}",
        program.name
    );
    if !was_truncated {
        // Tiny search spaces fit inside the budget; then the outcome must
        // be the complete list.
        assert_eq!(truncated_candidates.len(), exhaustive.len());
    }

    // Prune cell: branch-and-bound vs. the exhaustive argmin.
    assert_prune_conformance(&program, arch, &reference);

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

    /// Randomized sweep over (family × shape × dtype × arch): every cell
    /// must hold for every sampled instance.
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
