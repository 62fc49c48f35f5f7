//! Randomized equivalence sweep: across GEMM, attention and mixed-type MoE
//! kernels from `hexcute-kernels`, the production ranking (incremental
//! prefix-shared search, shared performance evaluator) must produce the
//! *identical* ordered candidate list — and identical cost-model and
//! performance-simulator scores, bit for bit — as the reference ranking
//! (full re-evaluation, each candidate simulated on its own).

mod common;

use hexcute_ir::Program;
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_synthesis::SynthesisOptions;
use proptest::prelude::*;

use common::{assert_scored_equal, production_ranking, reference_ranking};

fn compile_both_ways(program: &Program) {
    for arch in [hexcute_arch::GpuArch::a100(), hexcute_arch::GpuArch::h100()] {
        let reference = reference_ranking(program, &arch, SynthesisOptions::default());
        let production = production_ranking(program, &arch, SynthesisOptions::default());
        assert_scored_equal(&arch.name, program, &reference, &production);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn gemm_rankings_are_bit_identical(
        m_tiles in 1usize..=2,
        n_tiles in 1usize..=2,
        k in 1usize..=2,
        stages in 1usize..=3,
    ) {
        let config = GemmConfig { stages, ..GemmConfig::default() };
        let shape = GemmShape::new(
            m_tiles * config.block_m,
            n_tiles * config.block_n,
            k * config.block_k * 2,
        );
        let program = fp16_gemm(shape, config).unwrap();
        compile_both_ways(&program);
    }

    #[test]
    fn attention_rankings_are_bit_identical(
        heads in 1usize..=8,
        seq_tiles in 1usize..=3,
        head_dim in (0usize..=1).prop_map(|i| [64usize, 128][i]),
    ) {
        let config = AttentionConfig::default();
        let shape = AttentionShape::forward(1, heads, seq_tiles * config.block_kv, head_dim);
        let program = mha_forward(shape, config).unwrap();
        compile_both_ways(&program);
    }

    #[test]
    fn moe_rankings_are_bit_identical(
        tokens in (0usize..=2).prop_map(|i| [2usize, 4, 16][i]),
        efficient in (0usize..=1).prop_map(|i| i == 1),
    ) {
        let dataflow = if efficient { MoeDataflow::Efficient } else { MoeDataflow::TritonStyle };
        let program =
            mixed_type_moe(MoeShape::deepseek_r1(tokens), MoeConfig::default(), dataflow).unwrap();
        compile_both_ways(&program);
    }
}
