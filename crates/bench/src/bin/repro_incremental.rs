//! Measures the incremental prefix-shared candidate evaluation
//! (`Synthesizer::synthesize_outcome`) against the full re-evaluation per
//! candidate (`Synthesizer::synthesize_reference`) and writes the
//! machine-readable comparison (`BENCH_pr2.json` holds the historical run,
//! which also timed whole compiles).
//!
//! Usage: `cargo run --release --bin repro_incremental [-- output.json]`

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench-incremental.json".to_string());
    let entries = hexcute_bench::fastpath::synthesis_incremental_entries();
    print!("{}", hexcute_bench::fastpath::as_report(&entries));
    hexcute_bench::print_shared_cache_summary();
    match hexcute_bench::fastpath::write_json_named(
        &out_path,
        "incremental prefix-shared candidate evaluation",
        &entries,
    ) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    hexcute_bench::checks::exit_if_failed();
}
