//! Batch fan-out conformance: the worker-count axis of the conformance
//! suite. A compilation runs on one thread; the only parallelism left in
//! the compile path is [`CompileService::compile_batch`] fanning distinct
//! requests out over the worker pool. A batch with one member per workload
//! family must return artifacts bit-identical to compiling each member
//! alone. The CI `determinism-mt` leg runs this file at
//! `HEXCUTE_THREADS=4`; the default run uses the machine's parallelism.

use std::collections::HashSet;

use hexcute_arch::GpuArch;
use hexcute_core::Compiler;
use hexcute_e2e::{CompileService, ServedFrom};
use hexcute_ir::Program;
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{
    bf16_gemm, fp16_gemm, fp8_blockwise_gemm, warp_specialized_gemm, GemmConfig, GemmShape,
};
use hexcute_kernels::grouped_gemm::{grouped_gemm, GroupedGemmConfig, GroupedGemmShape};
use hexcute_kernels::mamba::{selective_scan, ScanConfig, ScanShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_kernels::quant_gemm::{w4a16_gemm, QuantGemmConfig, QuantGemmShape};

/// One representative instance per workload family (all build for H100).
fn one_per_family() -> Vec<Program> {
    let gemm = GemmConfig::default();
    let gemm_shape = GemmShape::new(gemm.block_m, gemm.block_n, 2 * gemm.block_k);
    let attention = AttentionConfig::default();
    vec![
        fp16_gemm(gemm_shape, GemmConfig::default()).unwrap(),
        bf16_gemm(gemm_shape, GemmConfig::default()).unwrap(),
        warp_specialized_gemm(
            GemmShape::new(512, 512, 256),
            GemmConfig::warp_specialized_hopper(),
        )
        .unwrap(),
        fp8_blockwise_gemm(GemmShape::new(512, 512, 256), GemmConfig::default()).unwrap(),
        mha_forward(
            AttentionShape::forward(1, 4, 2 * attention.block_kv, 64),
            attention,
        )
        .unwrap(),
        mixed_type_moe(
            MoeShape::deepseek_r1(4),
            MoeConfig::default(),
            MoeDataflow::Efficient,
        )
        .unwrap(),
        selective_scan(ScanShape::new(4, 512, 16, 256), ScanConfig::default()).unwrap(),
        w4a16_gemm(
            QuantGemmShape::new(16, 128, 256, 64),
            QuantGemmConfig::default(),
        )
        .unwrap(),
        grouped_gemm(
            &GroupedGemmShape::from_token_counts(vec![16, 0, 5, 32], 256, 512),
            GroupedGemmConfig::default(),
        )
        .unwrap(),
    ]
}

#[test]
fn batch_over_every_family_is_bit_identical_to_compiling_each_alone() {
    let arch = GpuArch::h100();
    let programs = one_per_family();
    let alone = Compiler::new(arch.clone());
    let fingerprints: HashSet<u64> = programs
        .iter()
        .map(|p| alone.artifact_fingerprint(p))
        .collect();
    assert_eq!(
        fingerprints.len(),
        programs.len(),
        "members must be distinct"
    );

    let service = CompileService::new(arch);
    let pool_before = hexcute_parallel::pool_stats();
    let responses = service.compile_batch(programs.clone());
    let pool_after = hexcute_parallel::pool_stats();
    if hexcute_parallel::worker_count() > 1 {
        // Witness that the batch really fanned out over the pool.
        assert!(
            pool_after.items >= pool_before.items + programs.len() as u64,
            "the batch did not run on the pool: {pool_before} -> {pool_after}"
        );
    }

    assert_eq!(responses.len(), programs.len());
    for (program, response) in programs.iter().zip(responses) {
        let response = response.unwrap();
        assert_eq!(response.served_from, ServedFrom::Synthesized);
        let reference = alone.compile_artifact(program).unwrap();
        assert_eq!(
            response.artifact.to_json(),
            reference.to_json(),
            "batched artifact diverged for {}",
            program.name
        );
        assert_eq!(*response.artifact, reference);
    }
    assert_eq!(service.stats().syntheses, programs.len() as u64);
}
