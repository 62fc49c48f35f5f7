//! Criterion benchmarks of the synthesis engine and the compiler driver,
//! including the anchor-selection and swizzle ablations called out in
//! DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use hexcute_arch::GpuArch;
use hexcute_core::{Compiler, CompilerOptions};
use hexcute_costmodel::{CompletionBounds, CostModel};
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_synthesis::{SynthesisOptions, Synthesizer};

fn bench_synthesis(c: &mut Criterion) {
    let arch = GpuArch::a100();
    let h100 = GpuArch::h100();
    let gemm = fp16_gemm(GemmShape::new(4096, 4096, 4096), GemmConfig::default()).unwrap();
    let moe = mixed_type_moe(
        MoeShape::deepseek_r1(64),
        MoeConfig::default(),
        MoeDataflow::Efficient,
    )
    .unwrap();

    c.bench_function("synthesis/gemm_all_candidates", |b| {
        b.iter(|| {
            Synthesizer::new(black_box(&gemm), &arch, SynthesisOptions::default())
                .synthesize()
                .unwrap()
        })
    });
    // Full compilation (synthesis + cost model + perf estimation), uncached.
    c.bench_function("compiler/compile_gemm_uncached", |b| {
        b.iter_batched(
            || Compiler::with_options(arch.clone(), CompilerOptions::new()),
            |compiler| compiler.compile(black_box(&gemm)).unwrap(),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("synthesis/moe_all_candidates", |b| {
        b.iter(|| {
            Synthesizer::new(black_box(&moe), &h100, SynthesisOptions::default())
                .synthesize()
                .unwrap()
        })
    });
    // Ablation: disabling swizzle selection (bank conflicts remain).
    c.bench_function("synthesis/gemm_no_swizzles", |b| {
        let options = SynthesisOptions {
            disable_swizzles: true,
            ..SynthesisOptions::default()
        };
        b.iter(|| {
            Synthesizer::new(black_box(&gemm), &arch, options.clone())
                .synthesize()
                .unwrap()
        })
    });

    // PR 9: branch-and-bound pruned selection against scoring the full
    // enumeration on the relaxed-cap (enlarged) choice space.
    let enlarged = SynthesisOptions {
        max_candidates: 4096,
        node_budget: None,
        beam_width: None,
        ..SynthesisOptions::default()
    };
    c.bench_function("synthesis_pruned/gemm_exhaustive_argmin", |b| {
        b.iter(|| {
            let candidates = Synthesizer::new(black_box(&gemm), &arch, enlarged.clone())
                .synthesize()
                .unwrap();
            let model = CostModel::new(&arch);
            candidates
                .into_iter()
                .min_by(|x, y| {
                    model
                        .estimate(&gemm, x)
                        .total_cycles
                        .total_cmp(&model.estimate(&gemm, y).total_cycles)
                })
                .unwrap()
        })
    });
    c.bench_function("synthesis_pruned/gemm_branch_and_bound", |b| {
        b.iter(|| {
            let model = CostModel::new(&arch);
            let mut bounder = CompletionBounds::new(&model, &gemm);
            Synthesizer::new(black_box(&gemm), &arch, enlarged.clone())
                .synthesize_pruned(&mut bounder, None)
                .unwrap()
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_synthesis
}
criterion_main!(benches);
