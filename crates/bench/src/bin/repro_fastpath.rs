//! Measures the flat-layout algebra and the table-driven simulator against
//! their reference entry points (`Layout::*_reference`,
//! `FunctionalSim::run_reference`) and writes the machine-readable
//! comparison consumed by CI (`BENCH_pr1.json` holds the historical run,
//! which also timed whole-synthesis compiles).
//!
//! Usage: `cargo run --release --bin repro_fastpath [-- output.json]`

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bench-fastpath.json".to_string());
    let entries = hexcute_bench::fastpath::run_all();
    print!("{}", hexcute_bench::fastpath::as_report(&entries));
    hexcute_bench::print_shared_cache_summary();
    match hexcute_bench::fastpath::write_json(&out_path, &entries) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    hexcute_bench::checks::exit_if_failed();
}
