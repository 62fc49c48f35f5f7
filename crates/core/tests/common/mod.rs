//! The production and reference candidate rankings shared by the
//! cross-check suites of this crate.

use hexcute_arch::GpuArch;
use hexcute_core::{Compiler, CompilerOptions};
use hexcute_costmodel::{CostBreakdown, CostModel};
use hexcute_ir::Program;
use hexcute_sim::{estimate_kernel, PerfReport};
use hexcute_synthesis::{Candidate, SynthesisOptions, Synthesizer};

/// A ranked candidate list: every candidate with its cost-model estimate
/// and its simulated performance.
pub type Scored = Vec<(Candidate, CostBreakdown, PerfReport)>;

/// The production ranking: [`Compiler::compile_candidates`] walks the
/// prefix tree and scores through the shared performance evaluator.
pub fn production_ranking(
    program: &Program,
    arch: &GpuArch,
    synthesis: SynthesisOptions,
) -> Scored {
    let options = CompilerOptions {
        synthesis,
        use_cost_model: true,
    };
    Compiler::with_options(arch.clone(), options)
        .compile_candidates(program)
        .unwrap()
}

/// The reference ranking: [`Synthesizer::synthesize_reference`] re-evaluates
/// every candidate from scratch, and [`estimate_kernel`] simulates each one
/// on its own.
pub fn reference_ranking(program: &Program, arch: &GpuArch, synthesis: SynthesisOptions) -> Scored {
    let (outcome, stats) = Synthesizer::new(program, arch, synthesis)
        .synthesize_reference(None)
        .unwrap();
    assert!(stats.is_none(), "the reference builds no prefix tree");
    let model = CostModel::new(arch);
    outcome
        .into_candidates()
        .into_iter()
        .map(|candidate| {
            let cost = model.estimate(program, &candidate);
            let perf = estimate_kernel(program, &candidate, arch);
            (candidate, cost, perf)
        })
        .collect()
}

/// Asserts two rankings are identical: same candidates in the same order,
/// same cost and latency bits.
pub fn assert_scored_equal(label: &str, program: &Program, reference: &Scored, other: &Scored) {
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
