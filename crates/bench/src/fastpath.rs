//! Before/after measurements of the production layout algebra and
//! simulator against their reference entry points.
//!
//! Every benchmark here times two calls in one process: the reference
//! (`Layout::*_reference`, [`FunctionalSim::run_reference`],
//! [`Synthesizer::synthesize_reference`] — the pre-change behaviour) and the
//! production call (flat memoized algebra, table-driven simulation,
//! incremental search). The results feed the `repro_fastpath` and
//! `repro_incremental` binaries via [`write_json`] / [`write_json_named`]
//! (`BENCH_pr1.json` and `BENCH_pr2.json` hold their historical runs).

use std::collections::HashMap;
use std::time::Instant;

use hexcute_arch::{DType, GpuArch};
use hexcute_core::Compiler;
use hexcute_ir::{KernelBuilder, Program};
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_layout::{ituple, Layout};
use hexcute_sim::{FunctionalSim, SimTableCache};
use hexcute_synthesis::{SynthesisOptions, Synthesizer};

use crate::report::Report;

/// One before/after measurement.
#[derive(Debug, Clone)]
pub struct FastPathEntry {
    /// Benchmark group (`layout_algebra`, `simulation`, `synthesis`).
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Median nanoseconds per iteration of the reference call (the
    /// pre-change behaviour).
    pub reference_ns: f64,
    /// Median nanoseconds per iteration of the production call.
    pub fast_ns: f64,
}

impl FastPathEntry {
    /// Reference time over fast time.
    pub fn speedup(&self) -> f64 {
        if self.fast_ns > 0.0 {
            self.reference_ns / self.fast_ns
        } else {
            0.0
        }
    }
}

/// Median nanoseconds per iteration of `f`, measured over `samples` samples
/// sized to roughly `sample_ms` milliseconds each.
pub fn measure_ns<F: FnMut()>(mut f: F, samples: usize, sample_ms: f64) -> f64 {
    // Warm-up and per-iteration estimate.
    let start = Instant::now();
    let mut warm = 0u64;
    while start.elapsed().as_secs_f64() < 0.05 || warm < 3 {
        f();
        warm += 1;
        if warm >= 1_000_000 {
            break;
        }
    }
    let per_iter = start.elapsed().as_secs_f64() / warm as f64;
    let iters = ((sample_ms / 1e3 / per_iter.max(1e-9)) as u64).clamp(1, 10_000_000);
    let mut medians = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        medians.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    medians.sort_by(f64::total_cmp);
    medians[medians.len() / 2]
}

/// Measures the `reference` call, then the production call `fast`.
fn before_after(
    group: &str,
    name: &str,
    reference: impl FnMut(),
    fast: impl FnMut(),
) -> FastPathEntry {
    let reference_ns = measure_ns(reference, 5, 20.0);
    let fast_ns = measure_ns(fast, 5, 20.0);
    FastPathEntry {
        group: group.to_string(),
        name: name.to_string(),
        reference_ns,
        fast_ns,
    }
}

/// The layout-algebra group: the operations at the heart of constraint
/// construction and solving.
pub fn layout_algebra_entries() -> Vec<FastPathEntry> {
    let mma_a = Layout::new(ituple![(4, 8), (2, 2, 2)], ituple![(32, 1), (16, 8, 128)]).unwrap();
    let ldmatrix_q = Layout::new(ituple![(4, 8), (2, 4)], ituple![(64, 1), (32, 8)]).unwrap();
    let tile = Layout::column_major(&[128, 64]);
    let complement_arg = Layout::from_flat(&[8, 4], &[1, 32]);
    let coalesce_arg = Layout::from_flat(&[2, 4, 8, 2, 4], &[1, 2, 8, 64, 128]);
    let divide_base = Layout::identity(4096);
    let divide_tiler = Layout::from_mode(16, 8);
    let group = "layout_algebra";

    vec![
        before_after(
            group,
            "compose",
            || {
                std::hint::black_box(tile.compose_reference(&mma_a).unwrap());
            },
            || {
                std::hint::black_box(tile.compose(&mma_a).unwrap());
            },
        ),
        before_after(
            group,
            "right_inverse",
            || {
                std::hint::black_box(ldmatrix_q.right_inverse_reference().unwrap());
            },
            || {
                std::hint::black_box(ldmatrix_q.right_inverse().unwrap());
            },
        ),
        before_after(
            group,
            "complement",
            || {
                std::hint::black_box(complement_arg.complement_reference(8192).unwrap());
            },
            || {
                std::hint::black_box(complement_arg.complement(8192).unwrap());
            },
        ),
        before_after(
            group,
            "coalesce",
            || {
                std::hint::black_box(coalesce_arg.coalesce_reference());
            },
            || {
                std::hint::black_box(coalesce_arg.coalesce());
            },
        ),
        before_after(
            group,
            "logical_divide",
            || {
                std::hint::black_box(divide_base.logical_divide_reference(&divide_tiler).unwrap());
            },
            || {
                std::hint::black_box(divide_base.logical_divide(&divide_tiler).unwrap());
            },
        ),
        before_after(
            group,
            "map_sweep_1k",
            || {
                std::hint::black_box((0..1024).map(|i| mma_a.map_reference(i)).sum::<usize>());
            },
            || {
                std::hint::black_box((0..1024).map(|i| mma_a.map(i)).sum::<usize>());
            },
        ),
    ]
}

fn copy_roundtrip_program() -> hexcute_ir::Program {
    let mut kb = KernelBuilder::new("bench_copy_roundtrip", 128);
    let src = kb.global_view("src", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
    let dst = kb.global_view("dst", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
    let stage = kb.shared_tensor("stage", DType::F16, &[64, 64]);
    let tile = kb.register_tensor("tile", DType::F16, &[64, 64]);
    kb.copy(src, stage);
    kb.copy(stage, tile);
    kb.copy(tile, dst);
    kb.build().unwrap()
}

fn small_gemm_program() -> hexcute_ir::Program {
    let (m, n, k) = (64usize, 64usize, 64usize);
    let mut kb = KernelBuilder::new("bench_gemm", 128);
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

/// The simulation group: the functional simulator on data-movement and GEMM
/// kernels.
pub fn simulation_entries() -> Vec<FastPathEntry> {
    let arch = GpuArch::a100();

    let copy_program = copy_roundtrip_program();
    let copy_candidate = Synthesizer::new(&copy_program, &arch, SynthesisOptions::default())
        .synthesize_preferred()
        .unwrap();
    let mut copy_inputs = HashMap::new();
    copy_inputs.insert("src".to_string(), vec![0.5f32; 64 * 64]);

    let gemm_program = small_gemm_program();
    let gemm_candidate = Synthesizer::new(&gemm_program, &arch, SynthesisOptions::default())
        .synthesize_preferred()
        .unwrap();
    let mut gemm_inputs = HashMap::new();
    gemm_inputs.insert("a".to_string(), vec![0.5f32; 64 * 64]);
    gemm_inputs.insert("b".to_string(), vec![0.25f32; 64 * 64]);

    let copy_sim = FunctionalSim::new(&copy_program, &copy_candidate);
    let gemm_sim = FunctionalSim::new(&gemm_program, &gemm_candidate);
    vec![
        before_after(
            "simulation",
            "functional_copy_roundtrip_64x64",
            || {
                std::hint::black_box(copy_sim.run_reference(&copy_inputs).unwrap());
            },
            || {
                std::hint::black_box(copy_sim.run(&copy_inputs).unwrap());
            },
        ),
        before_after(
            "simulation",
            "functional_gemm_64x64x64",
            || {
                std::hint::black_box(gemm_sim.run_reference(&gemm_inputs).unwrap());
            },
            || {
                std::hint::black_box(gemm_sim.run(&gemm_inputs).unwrap());
            },
        ),
    ]
}

/// The incremental prefix-shared search group (PR 2): candidate synthesis
/// of the paper's kernel families through
/// [`Synthesizer::synthesize_reference`] (every candidate re-evaluated from
/// scratch) against [`Synthesizer::synthesize_outcome`], plus functional
/// simulation of sibling candidates with and without a shared table cache.
/// Feeds `repro_incremental`.
pub fn synthesis_incremental_entries() -> Vec<FastPathEntry> {
    let arch = GpuArch::a100();
    let gemm = fp16_gemm(GemmShape::new(4096, 4096, 4096), GemmConfig::default()).unwrap();
    let attention = mha_forward(
        AttentionShape::forward(8, 32, 2048, 128),
        AttentionConfig::default(),
    )
    .unwrap();
    let moe = mixed_type_moe(
        MoeShape::deepseek_r1(128),
        MoeConfig::default(),
        MoeDataflow::Efficient,
    )
    .unwrap();

    let group = "synthesis_incremental";
    let synthesize_entry = |name: &str, program: &Program| {
        let synth = Synthesizer::new(program, &arch, SynthesisOptions::default());
        before_after(
            group,
            name,
            || {
                std::hint::black_box(synth.synthesize_reference(None).unwrap());
            },
            || {
                std::hint::black_box(synth.synthesize_outcome(None).unwrap());
            },
        )
    };

    let mut entries = vec![
        synthesize_entry("gemm_synthesize_all_candidates", &gemm),
        synthesize_entry("attention_synthesize_all_candidates", &attention),
        synthesize_entry("moe_synthesize_all_candidates", &moe),
    ];

    // Functional simulation of every sibling candidate of one small GEMM:
    // the reference rebuilds each candidate's index tables; the incremental
    // side shares one fingerprint-keyed table cache across siblings.
    let sim_program = small_gemm_program();
    let sim_candidates = Synthesizer::new(&sim_program, &arch, SynthesisOptions::default())
        .synthesize()
        .unwrap();
    let mut sim_inputs = HashMap::new();
    sim_inputs.insert("a".to_string(), vec![0.5f32; 64 * 64]);
    sim_inputs.insert("b".to_string(), vec![0.25f32; 64 * 64]);
    entries.push(before_after(
        group,
        "functional_simulate_siblings",
        || {
            for candidate in &sim_candidates {
                let sim = FunctionalSim::new(&sim_program, candidate);
                std::hint::black_box(sim.run(&sim_inputs).unwrap());
            }
        },
        || {
            // A fresh cache per sweep: tables are shared across the sibling
            // candidates of one sweep, not across repeated measurements.
            let shared_cache = SimTableCache::new();
            for candidate in &sim_candidates {
                let sim = FunctionalSim::new(&sim_program, candidate);
                std::hint::black_box(sim.run_with_cache(&sim_inputs, &shared_cache).unwrap());
            }
        },
    ));
    entries
}

/// Exercises the bounded shared caches once (sibling candidates of a small
/// GEMM scored and simulated twice through shared caches) and returns their
/// hit/miss/eviction counters: the simulator table cache, the cost model's
/// per-operation cache and its bounded whole-candidate cache. Printed by the
/// `repro_*` binaries.
pub fn shared_cache_stats() -> (
    hexcute_parallel::cache::CacheStats,
    hexcute_parallel::cache::CacheStats,
    hexcute_parallel::cache::CacheStats,
) {
    let arch = GpuArch::a100();
    let program = small_gemm_program();
    let candidates = Synthesizer::new(&program, &arch, SynthesisOptions::default())
        .synthesize()
        .unwrap();
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), vec![0.5f32; 64 * 64]);
    inputs.insert("b".to_string(), vec![0.25f32; 64 * 64]);

    let table_cache = SimTableCache::new();
    let model = hexcute_costmodel::CostModel::new(&arch);
    for _ in 0..2 {
        for candidate in &candidates {
            let sim = FunctionalSim::new(&program, candidate);
            std::hint::black_box(sim.run_with_cache(&inputs, &table_cache).unwrap());
            std::hint::black_box(model.estimate(&program, candidate));
        }
    }
    (
        table_cache.stats(),
        model.op_cache_stats(),
        model.candidate_cache_stats(),
    )
}

/// Exercises a (memory-only) kernel-artifact cache once — a small GEMM
/// compiled twice through [`hexcute_core::KernelCache`] — and returns its
/// counters. Printed by the `repro_*` binaries alongside
/// [`shared_cache_stats`].
pub fn artifact_cache_stats() -> hexcute_core::KernelCacheStats {
    let arch = GpuArch::a100();
    let program = small_gemm_program();
    let cache = hexcute_core::KernelCache::new(hexcute_core::KernelCacheConfig::default());
    let compiler = Compiler::new(arch);
    for _ in 0..2 {
        std::hint::black_box(
            compiler
                .compile_with_cache(&program, &cache)
                .expect("small GEMM compiles"),
        );
    }
    cache.stats()
}

/// Runs the layout-algebra and simulation groups.
pub fn run_all() -> Vec<FastPathEntry> {
    let mut entries = layout_algebra_entries();
    entries.extend(simulation_entries());
    entries
}

/// Geometric-mean speedup per group, in deterministic group order.
pub fn group_speedups(entries: &[FastPathEntry]) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut by_group: HashMap<String, Vec<f64>> = HashMap::new();
    for e in entries {
        if !by_group.contains_key(&e.group) {
            order.push(e.group.clone());
        }
        by_group
            .entry(e.group.clone())
            .or_default()
            .push(e.speedup());
    }
    order
        .into_iter()
        .map(|g| {
            let v = &by_group[&g];
            (g, crate::geomean(v))
        })
        .collect()
}

/// Formats the entries as a human-readable report.
pub fn as_report(entries: &[FastPathEntry]) -> Report {
    let mut report = Report::new(
        "Flat-layout fast path: before/after",
        &["group", "benchmark", "reference", "fast", "speedup"],
    );
    for e in entries {
        report.push_row(vec![
            e.group.clone(),
            e.name.clone(),
            format_ns(e.reference_ns),
            format_ns(e.fast_ns),
            format!("{:.2}x", e.speedup()),
        ]);
    }
    for (group, speedup) in group_speedups(entries) {
        report.push_note(format!("{group}: geomean speedup {speedup:.2}x"));
    }
    report
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Serializes the entries (plus per-group geomeans) as a JSON document.
pub fn to_json(entries: &[FastPathEntry]) -> String {
    to_json_named("flat-layout fast path", entries)
}

/// [`to_json`] with an explicit top-level benchmark name. The document
/// carries a `meta` object recording the worker configuration and host the
/// numbers were measured on (`threads` is the effective
/// `HEXCUTE_THREADS`/auto count).
pub fn to_json_named(benchmark: &str, entries: &[FastPathEntry]) -> String {
    let mut out = format!(
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"meta\": {{\n    \
         \"threads\": {},\n    \"host_parallelism\": {},\n    \"os\": \"{}\",\n    \
         \"arch\": \"{}\"\n  }},\n  \"groups\": {{\n",
        hexcute_parallel::worker_count(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        std::env::consts::OS,
        std::env::consts::ARCH,
    );
    let groups = group_speedups(entries);
    for (gi, (group, speedup)) in groups.iter().enumerate() {
        out.push_str(&format!(
            "    \"{group}\": {{\n      \"geomean_speedup\": {speedup:.3},\n      \"entries\": [\n"
        ));
        let members: Vec<&FastPathEntry> = entries.iter().filter(|e| &e.group == group).collect();
        for (i, e) in members.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"reference_ns\": {:.1}, \"fast_ns\": {:.1}, \"speedup\": {:.3}}}{}\n",
                e.name,
                e.reference_ns,
                e.fast_ns,
                e.speedup(),
                if i + 1 == members.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "      ]\n    }}{}\n",
            if gi + 1 == groups.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Writes [`to_json`] to `path`, creating the parent directory if missing.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(path: &str, entries: &[FastPathEntry]) -> std::io::Result<()> {
    crate::write_output(path, &to_json(entries))
}

/// Writes [`to_json_named`] to `path`, creating the parent directory if
/// missing.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json_named(
    path: &str,
    benchmark: &str,
    entries: &[FastPathEntry],
) -> std::io::Result<()> {
    crate::write_output(path, &to_json_named(benchmark, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_ns_returns_positive_medians() {
        let ns = measure_ns(
            || {
                std::hint::black_box((0..100u64).sum::<u64>());
            },
            3,
            1.0,
        );
        assert!(ns > 0.0);
    }

    #[test]
    fn json_round_trip_contains_groups_and_speedups() {
        let entries = vec![
            FastPathEntry {
                group: "layout_algebra".into(),
                name: "compose".into(),
                reference_ns: 900.0,
                fast_ns: 100.0,
            },
            FastPathEntry {
                group: "simulation".into(),
                name: "gemm".into(),
                reference_ns: 5000.0,
                fast_ns: 1000.0,
            },
        ];
        let json = to_json(&entries);
        assert!(json.contains("\"layout_algebra\""));
        assert!(json.contains("\"geomean_speedup\": 9.000"));
        assert!(json.contains("\"geomean_speedup\": 5.000"));
        let report = as_report(&entries);
        assert!(report.to_string().contains("9.00x"));
        let speedups = group_speedups(&entries);
        assert_eq!(speedups.len(), 2);
        assert_eq!(speedups[0].0, "layout_algebra");
    }
}
