//! Cross-checks the incremental prefix-shared candidate evaluation against
//! the full per-candidate re-evaluation through the public API, mirroring
//! `crates/layout/tests/flat_vs_reference.rs`: both paths must produce
//! *identical* ordered candidate lists — layouts, instruction choices,
//! shared-memory layouts, notes — not merely equivalent ones.

use hexcute_arch::{DType, GpuArch};
use hexcute_ir::{KernelBuilder, Program};
use hexcute_layout::Layout;
use hexcute_synthesis::{Candidate, SynthesisOptions, Synthesizer};

/// Both walks of one synthesizer, each with its witness: the incremental
/// walk reports its prefix-sharing stats, the reference builds no prefix
/// tree.
fn both_walks(synth: &Synthesizer<'_>) -> (Vec<Candidate>, Vec<Candidate>) {
    let (incremental, stats) = synth.synthesize_outcome(None).unwrap();
    assert!(stats.is_some(), "the incremental walk reports its stats");
    let (reference, stats) = synth.synthesize_reference(None).unwrap();
    assert!(stats.is_none(), "the reference builds no prefix tree");
    (incremental.into_candidates(), reference.into_candidates())
}

fn assert_paths_agree(program: &Program, arch: &GpuArch) {
    let synth = Synthesizer::new(program, arch, SynthesisOptions::default());
    let (incremental, reference) = both_walks(&synth);
    assert_eq!(
        reference.len(),
        incremental.len(),
        "candidate counts diverged for {}",
        program.name
    );
    for (i, (r, f)) in reference.iter().zip(incremental.iter()).enumerate() {
        assert_eq!(r, f, "candidate {i} of {} diverged", program.name);
    }
}

fn staged_gemm(m: usize, n: usize, k: usize) -> Program {
    let mut kb = KernelBuilder::new("staged_gemm", 128);
    let ga = kb.global_view(
        "a",
        DType::F16,
        Layout::from_flat(&[m, k], &[k, 1]),
        &[m, k],
    );
    let gb = kb.global_view(
        "b",
        DType::F16,
        Layout::from_flat(&[n, k], &[k, 1]),
        &[n, k],
    );
    let gc = kb.global_view(
        "c",
        DType::F32,
        Layout::from_flat(&[m, n], &[n, 1]),
        &[m, n],
    );
    let sa = kb.shared_tensor("sa", DType::F16, &[m, k]);
    let sb = kb.shared_tensor("sb", DType::F16, &[n, k]);
    let ra = kb.register_tensor("ra", DType::F16, &[m, k]);
    let rb = kb.register_tensor("rb", DType::F16, &[n, k]);
    let rc = kb.register_tensor("rc", DType::F32, &[m, n]);
    kb.fill(rc, 0.0);
    kb.copy(ga, sa);
    kb.copy(gb, sb);
    kb.copy(sa, ra);
    kb.copy(sb, rb);
    kb.gemm(rc, ra, rb);
    kb.copy(rc, gc);
    kb.build().unwrap()
}

fn copy_roundtrip() -> Program {
    let mut kb = KernelBuilder::new("roundtrip", 128);
    let src = kb.global_view("src", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
    let dst = kb.global_view("dst", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
    let stage = kb.shared_tensor("stage", DType::F16, &[64, 64]);
    let tile = kb.register_tensor("tile", DType::F16, &[64, 64]);
    kb.copy(src, stage);
    kb.copy(stage, tile);
    kb.copy(tile, dst);
    kb.build().unwrap()
}

#[test]
fn gemm_candidates_are_bit_identical() {
    for arch in [GpuArch::a100(), GpuArch::h100()] {
        assert_paths_agree(&staged_gemm(64, 64, 32), &arch);
        assert_paths_agree(&staged_gemm(128, 64, 64), &arch);
    }
}

#[test]
fn copy_roundtrip_candidates_are_bit_identical() {
    for arch in [GpuArch::a100(), GpuArch::h100()] {
        assert_paths_agree(&copy_roundtrip(), &arch);
    }
}

#[test]
fn ablation_option_sets_agree_too() {
    let program = staged_gemm(64, 64, 32);
    let arch = GpuArch::a100();
    for options in [
        SynthesisOptions::scalar_fallback(),
        SynthesisOptions::triton_smem_layout(),
        SynthesisOptions {
            disable_swizzles: true,
            ..SynthesisOptions::default()
        },
    ] {
        let (incremental, reference) = both_walks(&Synthesizer::new(&program, &arch, options));
        assert_eq!(reference, incremental);
    }
}

#[test]
fn small_max_candidates_returns_the_same_preferred_candidate() {
    let program = staged_gemm(64, 64, 32);
    let arch = GpuArch::a100();
    let full = Synthesizer::new(&program, &arch, SynthesisOptions::default())
        .synthesize()
        .unwrap();
    assert!(full.len() > 1);
    let options = SynthesisOptions {
        max_candidates: 1,
        ..SynthesisOptions::default()
    };
    let (incremental, reference) = both_walks(&Synthesizer::new(&program, &arch, options));
    for capped in [incremental, reference] {
        assert_eq!(capped.len(), 1);
        assert_eq!(capped[0], full[0]);
    }
}
