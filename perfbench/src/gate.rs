//! The correctness gate, checked on every run:
//!
//! 1. the default seed's gate programs compile to the committed expected
//!    digests (emitted source and the bits of the simulated latency; the
//!    fingerprint is left out so hashing changes stay legal);
//! 2. one small instance of each family runs on the functional simulator
//!    and matches naive math computed here, and the simulated candidate is
//!    the one the service serves.
//!
//! Attention is covered by the digests only: its kernels move V through a
//! register-to-register copy between differently shaped tensors (`rv` to
//! `rv_t`), and the simulated output of that program does not match
//! `softmax(Q·Kᵀ)·V` computed naively, so there is no independent reference
//! to hold it to.

use std::collections::HashMap;

use hexcute_arch::GpuArch;
use hexcute_core::{Compiler, KernelArtifact};
use hexcute_e2e::CompileService;
use hexcute_ir::Program;
use hexcute_kernels::{
    fp16_gemm, fp8_blockwise_gemm, grouped_gemm, mixed_type_moe, selective_scan, w4a16_gemm,
    GemmConfig, GemmShape, GroupedGemmConfig, GroupedGemmShape, MoeConfig, MoeDataflow, MoeShape,
    QuantGemmConfig, QuantGemmShape, ScanConfig, ScanShape,
};

use crate::gen::{self, Rng};

/// Where the expected digests live, relative to the package root.
pub const EXPECTED_FILE: &str = "expected.tsv";

/// 64-bit FNV-1a: the benchmark's own digest, independent of the
/// compiler's fingerprint hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The default seed's gate programs: two per cold-stream family plus one
/// precompile batch per model (duplicates dropped).
pub fn gate_programs() -> Vec<Program> {
    let compiler = gen::fingerprinter(GpuArch::h100());
    let mut programs = gen::cold_stream(gen::DEFAULT_SEED, 14, &compiler);
    let models = gen::models();
    for (model, batch, seq) in gen::warmup_stream(gen::DEFAULT_SEED, 5).into_iter().take(5) {
        for program in gen::warmup_batch(&models[model], batch, seq) {
            if !programs.contains(&program) {
                programs.push(program);
            }
        }
    }
    programs
}

/// One expected-file line for a served artifact.
pub fn expected_line(index: usize, artifact: &KernelArtifact) -> String {
    format!(
        "{index}\t{}\t{:016x}\t{:016x}",
        artifact.kernel,
        fnv1a(artifact.cuda.as_bytes()),
        artifact.perf.latency_us.to_bits()
    )
}

/// Compiles the gate programs and returns their expected-file lines.
pub fn digest_lines(service: &CompileService) -> Result<Vec<String>, String> {
    gate_programs()
        .iter()
        .enumerate()
        .map(|(i, program)| {
            service
                .compile(program)
                .map(|r| expected_line(i, &r.artifact))
                .map_err(|e| format!("gate program {i} ({}): {e}", program.name))
        })
        .collect()
}

/// Checks the digests against the committed file. Returns the number of
/// checks made and a list of failures.
pub fn check_digests(service: &CompileService, expected: &str) -> (usize, Vec<String>) {
    let want: Vec<&str> = expected
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let got = match digest_lines(service) {
        Ok(lines) => lines,
        Err(e) => return (1, vec![e]),
    };
    let mut failures = Vec::new();
    if want.len() != got.len() {
        failures.push(format!(
            "expected file lists {} programs, the gate generated {}",
            want.len(),
            got.len()
        ));
    }
    for (w, g) in want.iter().zip(&got) {
        if w != g {
            failures.push(format!("digest mismatch: expected `{w}`, got `{g}`"));
        }
    }
    (got.len(), failures)
}

/// Values exactly representable in every operand type used here
/// (FP16, BF16 and FP8 E4M3): multiples of `step` in `[-lim, lim]`.
fn exact(rng: &mut Rng, n: usize, lim: f32, step: f32) -> Vec<f32> {
    let levels = (2.0 * lim / step) as usize;
    (0..n)
        .map(|_| -lim + step * rng.range(0, levels) as f32)
        .collect()
}

fn ints(rng: &mut Rng, n: usize, lo: i32, hi: i32) -> Vec<f32> {
    (0..n)
        .map(|_| (lo + rng.range(0, (hi - lo) as usize) as i32) as f32)
        .collect()
}

/// Relative-and-absolute closeness, loose enough for FP16/BF16 rounding of
/// outputs and intermediates.
fn close(got: f32, want: f64) -> bool {
    (f64::from(got) - want).abs() <= 2e-2 + 2e-2 * want.abs()
}

type Inputs = HashMap<String, Vec<f32>>;
type Reference = Box<dyn Fn(usize) -> f64>;

/// A small instance of one family: program, inputs, the output to check and
/// its naive reference, element by element.
struct Case {
    family: &'static str,
    program: Program,
    inputs: Inputs,
    output: &'static str,
    len: usize,
    reference: Reference,
}

fn inputs(pairs: &[(&str, &Vec<f32>)]) -> Inputs {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), (*v).clone()))
        .collect()
}

fn gemm_case(rng: &mut Rng, fp8: bool) -> Case {
    let config = GemmConfig {
        block_m: 64,
        block_n: 64,
        block_k: if fp8 { 64 } else { 32 },
        threads: 128,
        stages: 2,
        warp_specialized: false,
    };
    let (m, n, k, bk) = (64usize, 64usize, 128usize, config.block_k);
    let tiles = k / bk;
    let a = exact(rng, m * k, 1.0, 0.25);
    let b = exact(rng, n * k, 1.0, 0.25);
    let shape = GemmShape::new(m, n, k);
    if fp8 {
        let scale = exact(rng, m * tiles, 1.0, 0.125);
        let program = fp8_blockwise_gemm(shape, config).expect("fp8 gate program");
        let inputs = inputs(&[("a", &a), ("b", &b), ("scale", &scale)]);
        Case {
            family: "fp8",
            program,
            inputs,
            output: "c",
            len: m * n,
            reference: Box::new(move |i| {
                let (mi, ni) = (i / n, i % n);
                (0..tiles)
                    .map(|t| {
                        let partial: f64 = (t * bk..(t + 1) * bk)
                            .map(|ki| f64::from(a[mi * k + ki] * b[ni * k + ki]))
                            .sum();
                        partial * f64::from(scale[mi * tiles + t])
                    })
                    .sum()
            }),
        }
    } else {
        let program = fp16_gemm(shape, config).expect("gemm gate program");
        let inputs = inputs(&[("a", &a), ("b", &b)]);
        Case {
            family: "gemm",
            program,
            inputs,
            output: "c",
            len: m * n,
            reference: Box::new(move |i| {
                let (mi, ni) = (i / n, i % n);
                (0..k)
                    .map(|ki| f64::from(a[mi * k + ki] * b[ni * k + ki]))
                    .sum()
            }),
        }
    }
}

fn grouped_case(rng: &mut Rng) -> Case {
    let config = GroupedGemmConfig {
        block_m: 16,
        block_n: 64,
        block_k: 64,
        threads: 128,
        stages: 2,
    };
    let (m, n, k) = (16usize, 64usize, 128usize);
    let x = exact(rng, m * k, 1.0, 0.25);
    let w = exact(rng, n * k, 1.0, 0.25);
    let program =
        grouped_gemm(&GroupedGemmShape::uniform(2, m, n, k), config).expect("grouped gate program");
    Case {
        family: "grouped",
        program,
        inputs: inputs(&[("x", &x), ("w", &w)]),
        output: "y",
        len: m * n,
        reference: Box::new(move |i| {
            let (mi, ni) = (i / n, i % n);
            (0..k)
                .map(|ki| f64::from(x[mi * k + ki] * w[ni * k + ki]))
                .sum()
        }),
    }
}

/// W4A16 (`quant`, group == K tile) and the MoE expert kernel share one
/// dequantize-then-GEMM reference: `y = x · ((w - zp) * scale)ᵀ` with one
/// scale column per K tile.
fn dequant_case(rng: &mut Rng, moe: bool) -> Case {
    let (m, n, k, bk) = (16usize, 128usize, 128usize, 64usize);
    let groups = k / bk;
    let x = exact(rng, m * k, 1.0, 0.25);
    let w = ints(rng, n * k, -8, 7);
    let scale = exact(rng, n * groups, 0.5, 0.0625);
    let zp = ints(rng, n * groups, -2, 2);
    let program = if moe {
        let shape = MoeShape {
            tokens: 2,
            hidden: k,
            intermediate: n,
            experts: 8,
            top_k: 8,
        };
        mixed_type_moe(shape, MoeConfig::default(), MoeDataflow::Efficient)
    } else {
        let config = QuantGemmConfig {
            block_m: m,
            block_n: n,
            block_k: bk,
            threads: 128,
            stages: 2,
        };
        w4a16_gemm(QuantGemmShape::new(m, n, k, bk), config)
    }
    .expect("dequant gate program");
    let inputs = inputs(&[("x", &x), ("w", &w), ("scale", &scale), ("zp", &zp)]);
    Case {
        family: if moe { "moe" } else { "quant" },
        program,
        inputs,
        output: "y",
        len: m * n,
        reference: Box::new(move |i| {
            let (mi, ni) = (i / n, i % n);
            (0..k)
                .map(|ki| {
                    let g = ni * groups + ki / bk;
                    let dq = (w[ni * k + ki] - zp[g]) * scale[g];
                    f64::from(x[mi * k + ki]) * f64::from(dq)
                })
                .sum()
        }),
    }
}

fn scan_case(rng: &mut Rng) -> Case {
    let (bd, seq, state) = (64usize, 128usize, 16usize);
    let config = ScanConfig {
        block_dim: bd,
        block_seq: 64,
        threads: 128,
        stages: 2,
    };
    let n = bd * seq;
    let (u, delta, z, b, c) = (
        exact(rng, n, 1.0, 0.125),
        exact(rng, n, 0.5, 0.0625),
        exact(rng, n, 2.0, 0.25),
        exact(rng, n, 1.0, 0.125),
        exact(rng, n, 1.0, 0.125),
    );
    let a = exact(rng, bd * state, 0.125, 0.015625);
    let program =
        selective_scan(ScanShape::new(1, bd, state, seq), config).expect("scan gate program");
    let inputs = inputs(&[
        ("u", &u),
        ("delta", &delta),
        ("z", &z),
        ("b", &b),
        ("c", &c),
        ("a", &a),
    ]);
    Case {
        family: "scan",
        program,
        inputs,
        output: "y",
        len: n,
        reference: Box::new(move |i| {
            let ch = i / seq;
            let a_row: f64 = (0..state).map(|s| f64::from(a[ch * state + s])).sum();
            let decay = (f64::from(delta[i]) * a_row).exp();
            let zz = f64::from(z[i]);
            let silu = zz / (1.0 + (-zz).exp());
            f64::from(c[i]) * decay * f64::from(b[i]) * f64::from(u[i]) * silu
        }),
    }
}

/// Runs every family's small instance through the functional simulator.
/// Returns the number of checks made and a list of failures.
pub fn check_functional(service: &CompileService) -> (usize, Vec<String>) {
    let arch = service.arch().clone();
    let compiler = Compiler::new(arch.clone());
    let mut rng = Rng::new(0x6A7E);
    let cases = vec![
        gemm_case(&mut rng, false),
        gemm_case(&mut rng, true),
        grouped_case(&mut rng),
        dequant_case(&mut rng, false),
        dequant_case(&mut rng, true),
        scan_case(&mut rng),
    ];
    let mut failures = Vec::new();
    let checks = cases.len();
    for case in cases {
        if let Err(e) = check_case(&compiler, service, &arch, &case) {
            failures.push(format!("functional {}: {e}", case.family));
        }
    }
    (checks, failures)
}

fn check_case(
    compiler: &Compiler,
    service: &CompileService,
    arch: &GpuArch,
    case: &Case,
) -> Result<(), String> {
    let kernel = compiler.compile(&case.program).map_err(|e| e.to_string())?;
    let served = service.compile(&case.program).map_err(|e| e.to_string())?;
    let simulated =
        KernelArtifact::from_compiled(compiler.artifact_fingerprint(&case.program), &kernel, arch);
    if simulated.to_json() != served.artifact.to_json() {
        return Err("the simulated candidate is not the served one".to_string());
    }
    let out = kernel.simulate(&case.inputs).map_err(|e| e.to_string())?;
    let got = out
        .get(case.output)
        .ok_or_else(|| format!("no output `{}`", case.output))?;
    if got.len() < case.len {
        return Err(format!("output `{}` is too short", case.output));
    }
    let wrong: Vec<usize> = got[..case.len]
        .iter()
        .enumerate()
        .filter(|(i, g)| !close(**g, (case.reference)(*i)))
        .map(|(i, _)| i)
        .collect();
    if let Some(&i) = wrong.first() {
        return Err(format!(
            "{} of {} elements wrong; first: {}[{i}] = {}, expected {}",
            wrong.len(),
            case.len,
            case.output,
            got[i],
            (case.reference)(i)
        ));
    }
    Ok(())
}
