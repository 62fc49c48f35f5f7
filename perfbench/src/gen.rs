//! The benchmark's own load generator (layer `gen`): seeded program streams
//! for the three workloads and the open-loop arrival schedule.
//!
//! Every input the compiler sees is built here from `--seed`; the same seed
//! yields the same programs in the same order on every host.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Instant;

use hexcute_core::{Compiler, CompilerOptions};
use hexcute_e2e::{decode_step_programs, ModelConfig, ModelKind, Priority, TenantId};
use hexcute_ir::Program;
use hexcute_kernels::{
    fp16_gemm, fp8_blockwise_gemm, grouped_gemm, mha_decoding, mha_forward, mixed_type_moe,
    selective_scan, w4a16_gemm, AttentionConfig, AttentionShape, GemmConfig, GemmShape,
    GroupedGemmConfig, GroupedGemmShape, MoeConfig, MoeDataflow, MoeShape, QuantGemmConfig,
    QuantGemmShape, ScanConfig, ScanShape,
};

/// The seed whose programs the committed expected file covers.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A multiple of `step` uniform in `lo..=hi` (both multiples of `step`).
    pub fn step(&mut self, lo: usize, hi: usize, step: usize) -> usize {
        self.range(lo / step, hi / step) * step
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() - 1)]
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// The seven kernel families of the cold stream.
pub const FAMILIES: [&str; 7] = [
    "gemm",
    "attention",
    "moe",
    "quant",
    "grouped",
    "fp8",
    "scan",
];

/// Microseconds spent constructing each generated program (layer
/// `kernels`), in construction order.
pub static BUILD_US: Mutex<Vec<f64>> = Mutex::new(Vec::new());

fn record_builds(start: Instant, programs: usize) {
    let per = start.elapsed().as_secs_f64() * 1e6 / programs.max(1) as f64;
    BUILD_US
        .lock()
        .expect("build-time log poisoned")
        .extend(std::iter::repeat_n(per, programs));
}

/// One program of `family` with a seeded shape.
///
/// Compile cost follows the dimensions that shape the tile program (the
/// contraction or sequence extent, which sets the main-loop trip count and
/// the global views), so those stay in one narrow range everywhere and
/// every family costs about the same in every run. The dimensions that only
/// set the grid are narrow too (about 1.3x) at the head of a stream, where
/// the aggregates of simulated latency are taken, and wide afterwards, which
/// supplies enough distinct fingerprints for long runs.
pub fn family_program(family: &str, rng: &mut Rng, wide: bool) -> Program {
    let start = Instant::now();
    let grid = |rng: &mut Rng, narrow: (usize, usize), wide_range: (usize, usize), step: usize| {
        let (lo, hi) = if wide { wide_range } else { narrow };
        rng.step(lo, hi, step)
    };
    let built = match family {
        "gemm" | "fp8" => {
            let shape = GemmShape::new(
                grid(rng, (3072, 4096), (1024, 16384), 128),
                grid(rng, (3072, 4096), (1024, 16384), 128),
                rng.step(3072, 4096, 128),
            );
            if family == "gemm" {
                fp16_gemm(shape, GemmConfig::default())
            } else {
                fp8_blockwise_gemm(shape, GemmConfig::default())
            }
        }
        "attention" => {
            let (batch, heads) = if wide {
                (rng.range(1, 16), rng.pick(&[4, 8, 12, 16, 24, 32, 48, 64]))
            } else {
                (rng.range(2, 3), rng.pick(&[16, 24, 32]))
            };
            mha_forward(
                AttentionShape::forward(batch, heads, rng.step(1024, 2048, 64), 128),
                AttentionConfig::default(),
            )
        }
        "moe" => {
            let shape = MoeShape {
                tokens: grid(rng, (96, 128), (1, 512), 1),
                hidden: rng.step(6144, 7168, 512),
                intermediate: grid(rng, (1536, 2048), (512, 4096), 128),
                experts: if wide { rng.pick(&[64, 128, 256]) } else { 256 },
                top_k: 8,
            };
            mixed_type_moe(shape, MoeConfig::default(), MoeDataflow::Efficient)
        }
        "quant" => w4a16_gemm(
            QuantGemmShape::new(
                grid(rng, (32, 48), (1, 512), 1),
                grid(rng, (6144, 8192), (1024, 16384), 128),
                rng.step(6144, 8192, 256),
                128,
            ),
            QuantGemmConfig::default(),
        ),
        "grouped" => grouped_gemm(
            &GroupedGemmShape::top_k_routed(
                if wide { rng.pick(&[8, 16]) } else { 8 },
                grid(rng, (96, 128), (1, 512), 1),
                2,
                grid(rng, (6144, 8192), (1024, 16384), 128),
                rng.step(3072, 4096, 128),
            ),
            GroupedGemmConfig::default(),
        ),
        "scan" => selective_scan(
            ScanShape::new(
                grid(rng, (2, 3), (1, 16), 1),
                grid(rng, (3072, 4096), (1024, 8192), 64),
                16,
                rng.step(1536, 2048, 64),
            ),
            ScanConfig::default(),
        ),
        other => panic!("unknown family {other}"),
    };
    let program = built.unwrap_or_else(|e| panic!("{family} program construction: {e}"));
    record_builds(start, 1);
    program
}

/// Narrow-shape programs per family at the head of every stream: the set
/// closed-loop aggregates of simulated latency are taken over.
pub const NARROW_PER_FAMILY: usize = 60;

/// The cold-compile stream: blocks of seven requests, one per family in a
/// seeded order, every fingerprint distinct. `count` is rounded up to whole
/// blocks so each run sees the families in equal shares.
pub fn cold_stream(seed: u64, count: usize, compiler: &Compiler) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut programs = Vec::with_capacity(count + FAMILIES.len());
    while programs.len() < count {
        let wide = programs.len() >= NARROW_PER_FAMILY * FAMILIES.len();
        let mut order = FAMILIES;
        rng.shuffle(&mut order);
        for family in order {
            programs.push(distinct_program(
                family, &mut rng, compiler, &mut seen, wide,
            ));
        }
    }
    programs
}

fn distinct_program(
    family: &'static str,
    rng: &mut Rng,
    compiler: &Compiler,
    seen: &mut HashSet<u64>,
    wide: bool,
) -> Program {
    for _ in 0..100_000 {
        let program = family_program(family, rng, wide);
        if seen.insert(compiler.artifact_fingerprint(&program)) {
            return program;
        }
    }
    panic!("the {family} shape space ran out of distinct fingerprints");
}

/// The five Fig. 13 models.
pub fn models() -> [ModelConfig; 5] {
    [
        ModelConfig::deepseek_r1_awq(),
        ModelConfig::jamba_mini(),
        ModelConfig::llama3_70b_awq(),
        ModelConfig::mixtral_8x7b(),
        ModelConfig::qwen3_32b(),
    ]
}

/// The family label of a program, from the kernel name its builder sets.
pub fn family_of(program: &Program) -> &'static str {
    match program.name.as_str() {
        "fp16_gemm" | "bf16_gemm" | "warp_specialized_fp16_gemm" => "gemm",
        "fused_mha_forward" | "fused_mha_decoding" => "attention",
        "fp8_blockwise_gemm" => "fp8",
        "grouped_gemm" => "grouped",
        "mamba_selective_scan" => "scan",
        name if name.contains("moe") => "moe",
        name if name.contains("w4a16") => "quant",
        _ => "other",
    }
}

/// One model-load precompile: the decode-step kernels of `model` at `batch`
/// plus its per-layer projection and attention kernels. The decode step's
/// FFN kernel doubles as the gate projection and the up projection has the
/// same shape, so the first two programs are identical and coalesce; every
/// other program is distinct.
pub fn warmup_batch(model: &ModelConfig, batch: usize, seq_len: usize) -> Vec<Program> {
    let start = Instant::now();
    let tp = model.tensor_parallel.max(1);
    let step = decode_step_programs(model, batch, seq_len);
    let ffn = step[0].clone();
    let mut programs = vec![ffn.clone(), ffn];
    for program in step.into_iter().skip(1) {
        push_distinct(&mut programs, program);
    }
    let heads = (model.heads / tp).max(1);
    let attn = AttentionShape::decoding(batch, heads, seq_len, model.head_dim);
    push_distinct(
        &mut programs,
        mha_decoding(attn, AttentionConfig::default()).expect("decode attention"),
    );
    let rows = batch.max(16);
    let qkv = 3 * heads * model.head_dim;
    let out = heads * model.head_dim;
    let inter = (model.intermediate / tp).max(256);
    let mut projections = vec![(qkv, model.hidden), (model.hidden, out)];
    // The FFN down projection; MoE models route it through their expert
    // kernel below instead.
    if model.experts == 0 {
        projections.push((model.hidden, inter));
    }
    for (n, k) in projections {
        let program = match model.kind {
            ModelKind::DenseFp8 => {
                fp8_blockwise_gemm(GemmShape::new(rows, n, k), GemmConfig::default())
            }
            ModelKind::DenseW4A16 | ModelKind::MoeAwq => w4a16_gemm(
                QuantGemmShape::new(rows, n, k, 128),
                QuantGemmConfig::default(),
            ),
            ModelKind::Hybrid | ModelKind::MoeGrouped => {
                fp16_gemm(GemmShape::new(rows, n, k), GemmConfig::default())
            }
        };
        push_distinct(&mut programs, program.expect("projection kernel"));
    }
    match model.kind {
        ModelKind::MoeAwq | ModelKind::Hybrid => {
            let shape = MoeShape {
                tokens: batch,
                hidden: inter,
                intermediate: model.hidden,
                experts: model.experts,
                top_k: 8.min(model.experts),
            };
            push_distinct(
                &mut programs,
                mixed_type_moe(shape, MoeConfig::default(), MoeDataflow::Efficient)
                    .expect("MoE down projection"),
            );
        }
        ModelKind::MoeGrouped => {
            let shape =
                GroupedGemmShape::top_k_routed(model.experts, batch, 2, model.hidden, inter);
            push_distinct(
                &mut programs,
                grouped_gemm(&shape, GroupedGemmConfig::default())
                    .expect("grouped down projection"),
            );
        }
        ModelKind::DenseFp8 | ModelKind::DenseW4A16 => {}
    }
    record_builds(start, programs.len());
    programs
}

/// Appends `program` unless the batch already holds it: only the leading
/// pair is a deliberate duplicate (a model whose down projection has its
/// up projection's shape reuses that kernel).
fn push_distinct(programs: &mut Vec<Program>, program: Program) {
    if !programs.contains(&program) {
        programs.push(program);
    }
}

/// The warmup stream: (model index, batch size, sequence length) triples,
/// cycling through the five models in seeded order. The sequence length
/// shapes the attention program, so it is fixed and every batch of a model
/// costs the same to compile; the batch size only sets grids and moves the
/// kernels' simulated latency, so its range stays narrow enough for
/// `kernel_us_geomean` to be comparable across seeds.
pub fn warmup_stream(seed: u64, count: usize) -> Vec<(usize, usize, usize)> {
    let mut rng = Rng::new(seed ^ 0x5741_524D);
    let mut out = Vec::with_capacity(count + 5);
    while out.len() < count {
        let mut order = [0usize, 1, 2, 3, 4];
        rng.shuffle(&mut order);
        for model in order {
            out.push((model, rng.range(16, 64), WARMUP_SEQ_LEN));
        }
    }
    out
}

/// Context length of every precompiled decode step.
pub const WARMUP_SEQ_LEN: usize = 2048;

/// One scheduled open-loop request.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Due time in seconds after the start of the timed window.
    pub due_s: f64,
    /// Index into the combined program list (working set, then novel).
    pub program: usize,
    pub tenant: TenantId,
    pub priority: Priority,
}

/// The open-loop traffic of `serve_replay`.
#[derive(Debug)]
pub struct ServeTraffic {
    /// Working set, then novel shapes.
    pub programs: Vec<Program>,
    pub working_set: usize,
    pub arrivals: Vec<Arrival>,
}

/// Serving traffic parameters: fixed once, shared by every seed.
pub const SERVE_RATE_PER_S: f64 = 200.0;
pub const SERVE_WORKING_SET: usize = 112;
pub const SERVE_MEMORY_CAPACITY: usize = 96;
pub const SERVE_TENANTS: u32 = 4;
pub const SERVE_NOVEL_SHARE: f64 = 0.03;
pub const SERVE_BACKGROUND_SHARE: f64 = 0.10;
pub const SERVE_ZIPF_S: f64 = 1.0;
/// Every this many novel shapes, a second tenant sends the same shape at
/// the same instant, so the two requests coalesce.
pub const SERVE_SHARED_NOVEL_EVERY: usize = 36;

/// Poisson arrivals at [`SERVE_RATE_PER_S`] over `seconds`; Zipf popularity
/// over a working set larger than the memory tier; a fixed share of
/// never-seen shapes, some of them sent by two tenants at the same instant
/// so they coalesce.
pub fn serve_traffic(seed: u64, seconds: f64, compiler: &Compiler) -> ServeTraffic {
    let mut rng = Rng::new(seed ^ 0x5345_5256);
    let mut seen = HashSet::new();
    let mut programs = Vec::new();
    for i in 0..SERVE_WORKING_SET {
        let family = FAMILIES[i % FAMILIES.len()];
        programs.push(distinct_program(
            family, &mut rng, compiler, &mut seen, false,
        ));
    }
    // Popularity rank r belongs to family r % 7, so every seed spreads the
    // Zipf mass over the families alike; which program of the family holds
    // the rank is seeded.
    let mut by_family: Vec<Vec<usize>> = (0..FAMILIES.len())
        .map(|f| (f..SERVE_WORKING_SET).step_by(FAMILIES.len()).collect())
        .collect();
    for members in &mut by_family {
        rng.shuffle(members);
    }
    let ranks: Vec<usize> = (0..SERVE_WORKING_SET)
        .map(|r| by_family[r % FAMILIES.len()][r / FAMILIES.len()])
        .collect();
    let weights: Vec<f64> = (1..=SERVE_WORKING_SET)
        .map(|r| 1.0 / (r as f64).powf(SERVE_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / SERVE_RATE_PER_S;
        if t >= seconds {
            break;
        }
        due.push(t);
    }
    // An exact novel count per run keeps `kernels_per_s` steady.
    let novel = ((due.len() as f64) * SERVE_NOVEL_SHARE).round() as usize;
    let mut is_novel = vec![false; due.len()];
    for slot in is_novel.iter_mut().take(novel) {
        *slot = true;
    }
    rng.shuffle(&mut is_novel);

    let mut arrivals = Vec::with_capacity(due.len() + novel);
    let mut novel_index = 0usize;
    for (i, &due_s) in due.iter().enumerate() {
        let tenant = TenantId(rng.range(0, SERVE_TENANTS as usize - 1) as u32);
        let priority = if rng.unit() < SERVE_BACKGROUND_SHARE {
            Priority::Background
        } else {
            Priority::LatencyCritical
        };
        if is_novel[i] {
            let family = FAMILIES[novel_index % FAMILIES.len()];
            novel_index += 1;
            programs.push(distinct_program(
                family, &mut rng, compiler, &mut seen, true,
            ));
            let program = programs.len() - 1;
            arrivals.push(Arrival {
                due_s,
                program,
                tenant,
                priority,
            });
            if novel_index.is_multiple_of(SERVE_SHARED_NOVEL_EVERY) {
                arrivals.push(Arrival {
                    due_s,
                    program,
                    tenant: TenantId((tenant.0 + 1) % SERVE_TENANTS),
                    priority: Priority::LatencyCritical,
                });
            }
        } else {
            let u = rng.unit();
            let rank = cdf.partition_point(|&c| c < u).min(SERVE_WORKING_SET - 1);
            arrivals.push(Arrival {
                due_s,
                program: ranks[rank],
                tenant,
                priority,
            });
        }
    }
    ServeTraffic {
        working_set: SERVE_WORKING_SET,
        programs,
        arrivals,
    }
}

/// The compiler whose fingerprints the generator deduplicates on: the
/// shipped default options, which is what every workload's service uses.
pub fn fingerprinter(arch: hexcute_arch::GpuArch) -> Compiler {
    Compiler::with_options(arch, CompilerOptions::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::GpuArch;

    fn fingerprints(seed: u64) -> Vec<u64> {
        let compiler = fingerprinter(GpuArch::h100());
        let mut fps: Vec<u64> = cold_stream(seed, 28, &compiler)
            .iter()
            .map(|p| compiler.artifact_fingerprint(p))
            .collect();
        for (model, batch, seq) in warmup_stream(seed, 5) {
            for p in warmup_batch(&models()[model], batch, seq) {
                fps.push(compiler.artifact_fingerprint(&p));
            }
        }
        let traffic = serve_traffic(seed, 0.5, &compiler);
        fps.extend(
            traffic
                .arrivals
                .iter()
                .map(|a| compiler.artifact_fingerprint(&traffic.programs[a.program])),
        );
        fps
    }

    #[test]
    fn same_seed_same_fingerprint_sequence() {
        assert_eq!(fingerprints(7), fingerprints(7));
    }

    #[test]
    fn different_seed_different_fingerprint_sequence() {
        assert_ne!(fingerprints(7), fingerprints(8));
    }

    #[test]
    fn cold_stream_never_repeats_and_balances_families() {
        let compiler = fingerprinter(GpuArch::h100());
        let programs = cold_stream(3, 7 * 400, &compiler);
        let distinct: HashSet<u64> = programs
            .iter()
            .map(|p| compiler.artifact_fingerprint(p))
            .collect();
        assert_eq!(distinct.len(), programs.len());
        for family in FAMILIES {
            assert_eq!(
                programs.iter().filter(|p| family_of(p) == family).count(),
                400
            );
        }
    }

    #[test]
    fn warmup_batches_lead_with_a_duplicate() {
        for (model, batch, seq) in warmup_stream(2, 10) {
            let programs = warmup_batch(&models()[model], batch, seq);
            assert_eq!(programs[0], programs[1]);
            for (i, p) in programs.iter().enumerate().skip(1) {
                assert!(programs[i + 1..].iter().all(|q| q != p), "{model} {batch}");
            }
        }
    }
}
