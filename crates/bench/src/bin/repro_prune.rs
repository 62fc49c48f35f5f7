//! Pruned-synthesis reproduction (PR 9): candidates scored and wall-clock
//! per winner of the branch-and-bound search against the exhaustive
//! selection loop, over the paper's five workload families with the
//! `max_candidates` cap relaxed (enlarged choice spaces). Writes the
//! machine-readable summary committed as `BENCH_pr9.json`.
//!
//! The process exits nonzero unless the pruned winner is bit-identical to
//! the exhaustive argmin on every family, pruning scores at least 2x fewer
//! candidates, and its wall-clock per winner is lower.
//!
//! Usage: `cargo run --release --bin repro_prune [-- output.json]`

use hexcute_bench::prune as pruned;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr9.json".to_string());

    let entries = pruned::run_suite();
    println!("{}", pruned::as_report(&entries));

    let json = pruned::to_json(&entries);
    match hexcute_bench::write_output(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    hexcute_bench::print_shared_cache_summary();
    hexcute_bench::checks::exit_if_failed();
}
