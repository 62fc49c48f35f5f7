//! # hexcute-bench
//!
//! The reproduction harness: one function per table and figure of the
//! Hexcute paper's evaluation (Section VII), each returning a formatted
//! [`Report`] with the same rows/series the paper presents. The `repro_*`
//! binaries in `src/bin/` print them; `EXPERIMENTS.md` records the measured
//! numbers next to the paper's.

#![warn(missing_docs)]

pub mod report;

pub mod ablation;
pub mod checks;
pub mod compile_time;
pub mod cost_model;
pub mod end_to_end;
pub mod fastpath;
pub mod moe_bench;
pub mod per_shape;
pub mod prune;
pub mod robustness_bench;
pub mod scan_bench;
pub mod serving_bench;
pub mod table2;
pub mod tables34;
pub mod traffic;
pub mod workloads_bench;

pub use report::Report;

use hexcute_arch::GpuArch;
use hexcute_core::{CompiledKernel, Compiler};
use hexcute_ir::Program;

/// Compiles a program with the default Hexcute pipeline and returns the
/// compiled kernel (panicking on failure, which is acceptable for a harness).
pub fn compile_hexcute(program: &Program, arch: &GpuArch) -> CompiledKernel {
    Compiler::new(arch.clone())
        .compile(program)
        .unwrap_or_else(|e| panic!("failed to compile {}: {e}", program.name))
}

/// Writes `contents` to `path`, creating the parent directory first when it
/// does not exist (so `repro_* -- out/nested/BENCH.json` works instead of
/// failing with `No such file or directory`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_output(path: &str, contents: &str) -> std::io::Result<()> {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// Prints the hit/miss/eviction statistics of every memo the synthesis
/// pipeline maintains — the sharded maps behind the simulator index tables
/// and the cost model's per-operation and whole-candidate estimates, plus
/// the kernel-artifact cache — each exercised on a small GEMM, and the
/// process-wide worker-pool counters (jobs, items, cancelled subtrees,
/// deaths/respawns). Every `repro_*` binary calls this in its summary.
///
/// The exercise's cache-hit invariants are *verified*, not just printed:
/// the second pass must hit the simulator-table and per-op cost memos, and
/// the second compile of the unchanged program must be an artifact-cache
/// memory hit. A violation fails the binary through
/// [`checks::exit_if_failed`].
pub fn print_shared_cache_summary() {
    let (tables, op_costs, candidate_costs) = fastpath::shared_cache_stats();
    let artifacts = fastpath::artifact_cache_stats();
    println!("\nShared cache behaviour (synthetic small-GEMM exercise, two passes each):");
    println!("  simulator index tables:    {tables}");
    println!("  per-op cost estimates:     {op_costs}");
    println!("  whole-candidate estimates: {candidate_costs}");
    println!("  kernel artifacts:          {artifacts}");
    println!(
        "Worker pool (process lifetime): {}",
        hexcute_parallel::pool_stats()
    );
    checks::check(
        tables.hits > 0,
        "the second simulation pass produced no index-table hits",
    );
    checks::check(
        op_costs.hits > 0,
        "the second scoring pass produced no per-op cost-cache hits",
    );
    checks::check(
        artifacts.memory.hits >= 1,
        "the second compile of an unchanged program was not an artifact-cache hit",
    );
}

/// Geometric mean of a slice of positive numbers.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn write_output_creates_missing_directories() {
        let dir = std::env::temp_dir().join(format!("hexcute-write-output-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("BENCH_test.json");
        write_output(path.to_str().unwrap(), "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        // Bare filenames (no parent) keep working too.
        write_output("BENCH_write_output_test.tmp", "x").unwrap();
        std::fs::remove_file("BENCH_write_output_test.tmp").ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
