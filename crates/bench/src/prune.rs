//! Before/after measurements of the branch-and-bound pruned synthesis
//! (PR 9): admissible completion bounds cutting dominated subtrees of the
//! candidate search, measured on the paper's five workload families with
//! deliberately enlarged choice spaces (the `max_candidates` cap relaxed
//! well past every family's full enumeration, so the exhaustive side really
//! scores the whole space).
//!
//! Each family runs twice per entry, both sides on one thread (as every
//! compile runs) and both mirroring the compiler's cost-model selection: the exhaustive side
//! synthesizes every candidate and estimates each one to find the argmin;
//! the pruned side runs [`Synthesizer::synthesize_pruned`] with the
//! [`CompletionBounds`] bounder, which only scores the leaves whose bound
//! survives the incumbent. Both sides finish with one perf evaluation of
//! the winner, as `compile` does.
//!
//! The invariants are verified, not just printed: the pruned winner, its
//! score bits and its enumeration index must equal the exhaustive argmin on
//! every family (pruning is lossless), no family may score *more*
//! candidates than exhaustive, and over the suite pruning must score at
//! least 2x fewer candidates (geomean) at a lower wall-clock per winner
//! (geomean). The bar is a geomean rather than per-family because pruning
//! power is workload-dependent by construction: on the attention family
//! most siblings fail shared-memory feasibility and degrade to the *same*
//! scalar fallback, and feasibility is only learnable by finishing the
//! leaf — an admissible bound must assume the optimistic non-degraded
//! completion, so those leaves cannot be cut. The results feed
//! `BENCH_pr9.json` via the `repro_prune` binary.

use hexcute_arch::GpuArch;
use hexcute_costmodel::{CompletionBounds, CostModel};
use hexcute_ir::Program;
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_kernels::grouped_gemm::{grouped_gemm, GroupedGemmConfig, GroupedGemmShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_kernels::quant_gemm::{w4a16_gemm, QuantGemmConfig, QuantGemmShape};
use hexcute_sim::PerfEvaluator;
use hexcute_synthesis::{Candidate, SynthesisOptions, Synthesizer};

use crate::fastpath::measure_ns;
use crate::report::Report;
use crate::{checks, geomean};

/// One family's exhaustive-vs-pruned measurement plus the pruning counters
/// of one instrumented serial pruned search.
#[derive(Debug, Clone)]
pub struct PruneEntry {
    /// Workload family (`gemm`, `attention`, `moe`, `quant`, `grouped`).
    pub family: String,
    /// Leaves of the choice tree — candidates the exhaustive search scores.
    pub exhaustive_scored: usize,
    /// Candidates the pruned search actually scored (surviving leaves).
    pub pruned_scored: usize,
    /// Subtrees cut by a group-prefix bound before expansion.
    pub subtrees_cut: usize,
    /// Individual selections cut by a leaf bound inside surviving subtrees.
    pub selections_pruned: usize,
    /// Completion bounds evaluated (group prefixes + leaves).
    pub bound_evaluations: usize,
    /// Times a finished leaf improved the shared incumbent.
    pub incumbent_updates: usize,
    /// Median nanoseconds to produce the winning kernel exhaustively.
    pub exhaustive_ns_per_winner: f64,
    /// Median nanoseconds to produce the same winner with pruning.
    pub pruned_ns_per_winner: f64,
}

impl PruneEntry {
    /// Exhaustively scored candidates over pruned scored candidates.
    pub fn scored_ratio(&self) -> f64 {
        if self.pruned_scored > 0 {
            self.exhaustive_scored as f64 / self.pruned_scored as f64
        } else {
            0.0
        }
    }

    /// Exhaustive wall-clock per winner over pruned wall-clock per winner.
    pub fn speedup(&self) -> f64 {
        if self.pruned_ns_per_winner > 0.0 {
            self.exhaustive_ns_per_winner / self.pruned_ns_per_winner
        } else {
            0.0
        }
    }
}

/// The workload suite: the paper's five families at the shapes the
/// compile-time evaluation uses.
fn suite() -> Vec<(&'static str, Program)> {
    let quant_shape = QuantGemmShape::llama_70b_proj(64);
    vec![
        (
            "gemm",
            fp16_gemm(GemmShape::new(4096, 4096, 4096), GemmConfig::default())
                .expect("GEMM construction"),
        ),
        (
            "attention",
            mha_forward(
                AttentionShape::forward(8, 32, 2048, 128),
                AttentionConfig::default(),
            )
            .expect("attention construction"),
        ),
        (
            "moe",
            mixed_type_moe(
                MoeShape::deepseek_r1(128),
                MoeConfig::default(),
                MoeDataflow::Efficient,
            )
            .expect("MoE construction"),
        ),
        (
            "quant",
            w4a16_gemm(quant_shape, QuantGemmConfig::for_shape(&quant_shape))
                .expect("W4A16 GEMM construction"),
        ),
        (
            "grouped",
            grouped_gemm(&GroupedGemmShape::mixtral(64), GroupedGemmConfig::default())
                .expect("grouped GEMM construction"),
        ),
    ]
}

/// The enlarged-choice-space option set: the candidate cap relaxed far past
/// every family's full enumeration (so the exhaustive side scores the whole
/// space and the pruned search never declines on the cap).
fn enlarged() -> SynthesisOptions {
    SynthesisOptions {
        max_candidates: 4096,
        node_budget: None,
        beam_width: None,
        ..SynthesisOptions::default()
    }
}

/// One exhaustive cold pass, the compiler's pre-PR-9 selection loop: fresh
/// model, every candidate estimated, first minimal kept, winner
/// perf-evaluated once. Returns (scored, winner, score).
fn exhaustive_pass(program: &Program, arch: &GpuArch) -> (usize, Candidate, f64) {
    let candidates = Synthesizer::new(program, arch, enlarged())
        .synthesize()
        .expect("suite programs synthesize");
    let model = CostModel::new(arch);
    let scored = candidates.len();
    let winner = candidates
        .into_iter()
        .min_by(|a, b| {
            model
                .estimate(program, a)
                .total_cycles
                .total_cmp(&model.estimate(program, b).total_cycles)
        })
        .expect("at least one candidate");
    let cost = model.estimate(program, &winner);
    let score = cost.total_cycles;
    std::hint::black_box(PerfEvaluator::new(arch).evaluate(program, &winner, &cost));
    (scored, winner, score)
}

/// One pruned cold pass: fresh model and bounder, branch-and-bound walk,
/// winner perf-evaluated once, exactly as `Compiler::compile` does when
/// pruning engages. Returns the outcome.
fn pruned_pass(program: &Program, arch: &GpuArch) -> hexcute_synthesis::PrunedOutcome {
    let model = CostModel::new(arch);
    let mut bounder = CompletionBounds::new(&model, program);
    let outcome = Synthesizer::new(program, arch, enlarged())
        .synthesize_pruned(&mut bounder, None)
        .expect("suite programs synthesize")
        .expect("the relaxed cap keeps pruning engaged");
    let cost = model.estimate(program, &outcome.winner);
    std::hint::black_box(PerfEvaluator::new(arch).evaluate(program, &outcome.winner, &cost));
    outcome
}

/// Measures one family: an instrumented pruned pass for the counters and
/// the losslessness check, then timed exhaustive and pruned passes.
fn measure_family(family: &str, program: &Program, arch: &GpuArch) -> PruneEntry {
    let outcome = pruned_pass(program, arch);
    let (scored, winner, score) = exhaustive_pass(program, arch);

    checks::check(
        outcome.winner == winner,
        &format!("family {family}: the pruned winner diverged from the exhaustive argmin"),
    );
    checks::check(
        outcome.score.to_bits() == score.to_bits(),
        &format!(
            "family {family}: the pruned score {} is not bit-identical to the exhaustive {score}",
            outcome.score
        ),
    );
    checks::check(
        !outcome.truncated && !outcome.beamed,
        &format!("family {family}: an unbudgeted beam-free search truncated or beamed"),
    );

    let exhaustive_ns = measure_ns(
        || {
            std::hint::black_box(exhaustive_pass(program, arch));
        },
        5,
        40.0,
    );
    let pruned_ns = measure_ns(
        || {
            std::hint::black_box(pruned_pass(program, arch));
        },
        5,
        40.0,
    );

    PruneEntry {
        family: family.to_string(),
        exhaustive_scored: scored,
        pruned_scored: outcome.stats.candidates_scored,
        subtrees_cut: outcome.stats.subtrees_cut,
        selections_pruned: outcome.stats.selections_pruned,
        bound_evaluations: outcome.stats.bound_evaluations,
        incumbent_updates: outcome.stats.incumbent_updates,
        exhaustive_ns_per_winner: exhaustive_ns,
        pruned_ns_per_winner: pruned_ns,
    }
}

/// Runs the whole suite and verifies the PR 9 acceptance bar: per family,
/// pruning never scores more candidates than exhaustive; over the suite, at
/// least a 2x geomean reduction in scored candidates and a geomean
/// wall-clock per winner below exhaustive.
pub fn run_suite() -> Vec<PruneEntry> {
    let arch = GpuArch::a100();
    let entries: Vec<PruneEntry> = suite()
        .iter()
        .map(|(family, program)| measure_family(family, program, &arch))
        .collect();
    for e in &entries {
        checks::check(
            e.pruned_scored <= e.exhaustive_scored,
            &format!(
                "family {}: pruning scored {} candidates, more than the exhaustive {}",
                e.family, e.pruned_scored, e.exhaustive_scored
            ),
        );
    }
    checks::check(
        geomean_scored_ratio(&entries) >= 2.0,
        &format!(
            "geomean scored-candidate reduction {:.2}x is below the required 2x",
            geomean_scored_ratio(&entries)
        ),
    );
    checks::check(
        geomean_speedup(&entries) > 1.0,
        &format!(
            "geomean pruned wall-clock per winner is not below exhaustive ({:.2}x)",
            geomean_speedup(&entries)
        ),
    );
    entries
}

/// Geometric-mean scored-candidate reduction over the suite.
pub fn geomean_scored_ratio(entries: &[PruneEntry]) -> f64 {
    let ratios: Vec<f64> = entries.iter().map(PruneEntry::scored_ratio).collect();
    geomean(&ratios)
}

/// Geometric-mean wall-clock-per-winner speedup over the suite.
pub fn geomean_speedup(entries: &[PruneEntry]) -> f64 {
    let speedups: Vec<f64> = entries.iter().map(PruneEntry::speedup).collect();
    geomean(&speedups)
}

/// Formats the entries as a human-readable report.
pub fn as_report(entries: &[PruneEntry]) -> Report {
    let mut report = Report::new(
        "Branch-and-bound pruned synthesis: candidates scored per winner",
        &[
            "family",
            "exhaustive",
            "pruned",
            "ratio",
            "subtrees cut",
            "exhaustive /winner",
            "pruned /winner",
            "speedup",
        ],
    );
    for e in entries {
        report.push_row(vec![
            e.family.clone(),
            e.exhaustive_scored.to_string(),
            e.pruned_scored.to_string(),
            format!("{:.1}x", e.scored_ratio()),
            e.subtrees_cut.to_string(),
            format!("{:.2} µs", e.exhaustive_ns_per_winner / 1e3),
            format!("{:.2} µs", e.pruned_ns_per_winner / 1e3),
            format!("{:.2}x", e.speedup()),
        ]);
    }
    report.push_note(format!(
        "geomean scored-candidate reduction {:.2}x, geomean wall-clock speedup {:.2}x \
         (serial walk both sides; winners verified bit-identical)",
        geomean_scored_ratio(entries),
        geomean_speedup(entries)
    ));
    report
}

/// Serializes the suite as the `BENCH_pr9.json` document: per-family scored
/// counts, pruning counters, wall-clock per winner, and the suite geomeans.
pub fn to_json(entries: &[PruneEntry]) -> String {
    let mut out = format!(
        "{{\n  \"benchmark\": \"branch-and-bound pruned synthesis\",\n  \"meta\": {{\n    \
         \"threads\": {},\n    \"host_parallelism\": {},\n    \"os\": \"{}\",\n    \
         \"arch\": \"{}\",\n    \"max_candidates\": {}\n  }},\n  \"families\": {{\n",
        hexcute_parallel::worker_count(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        std::env::consts::OS,
        std::env::consts::ARCH,
        enlarged().max_candidates,
    );
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"candidates_scored_exhaustive\": {},\n      \
             \"candidates_scored_pruned\": {},\n      \"scored_ratio\": {:.3},\n      \
             \"subtrees_cut\": {},\n      \"selections_pruned\": {},\n      \
             \"bound_evaluations\": {},\n      \"incumbent_updates\": {},\n      \
             \"exhaustive_ns_per_winner\": {:.1},\n      \
             \"pruned_ns_per_winner\": {:.1},\n      \"speedup\": {:.3}\n    }}{}\n",
            e.family,
            e.exhaustive_scored,
            e.pruned_scored,
            e.scored_ratio(),
            e.subtrees_cut,
            e.selections_pruned,
            e.bound_evaluations,
            e.incumbent_updates,
            e.exhaustive_ns_per_winner,
            e.pruned_ns_per_winner,
            e.speedup(),
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  }},\n  \"geomean_scored_ratio\": {:.3},\n  \"geomean_speedup\": {:.3}\n}}\n",
        geomean_scored_ratio(entries),
        geomean_speedup(entries),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(family: &str, exhaustive: usize, pruned: usize, ex_ns: f64, pr_ns: f64) -> PruneEntry {
        PruneEntry {
            family: family.to_string(),
            exhaustive_scored: exhaustive,
            pruned_scored: pruned,
            subtrees_cut: 3,
            selections_pruned: 7,
            bound_evaluations: 11,
            incumbent_updates: 2,
            exhaustive_ns_per_winner: ex_ns,
            pruned_ns_per_winner: pr_ns,
        }
    }

    #[test]
    fn json_carries_families_counters_and_geomeans() {
        let entries = vec![
            entry("gemm", 64, 8, 8000.0, 2000.0),
            entry("moe", 36, 18, 9000.0, 3000.0),
        ];
        let json = to_json(&entries);
        assert!(json.contains("\"gemm\""));
        assert!(json.contains("\"candidates_scored_exhaustive\": 64"));
        assert!(json.contains("\"subtrees_cut\": 3"));
        // geomean(8.0, 2.0) = 4.0 for both the scored ratio and the speedup.
        assert!(json.contains("\"geomean_scored_ratio\": 4.000"));
        assert!(json.contains(&format!("\"geomean_speedup\": {:.3}", 12.0f64.sqrt())));
        let report = as_report(&entries).to_string();
        assert!(report.contains("8.0x"));
        assert!(report.contains("geomean scored-candidate reduction 4.00x"));
    }

    #[test]
    fn ratios_degrade_to_zero_rather_than_dividing_by_zero() {
        let starved = entry("gemm", 64, 0, 8000.0, 0.0);
        assert_eq!(starved.scored_ratio(), 0.0);
        assert_eq!(starved.speedup(), 0.0);
    }
}
