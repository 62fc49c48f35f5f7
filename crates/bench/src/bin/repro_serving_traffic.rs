//! Multi-tenant bursty serving-traffic reproduction for the priority-aware
//! admission front-end (PR 10): eight tenants replay thousands of
//! cold/warm-mixed requests over all five Fig. 13 models' decode-step
//! kernels, ~10% in the background class, and the run writes the
//! machine-readable summary committed as `BENCH_pr10.json`.
//!
//! The process exits nonzero unless the scheduling invariants hold: zero
//! priority inversions, no starved tenant, and every served artifact
//! bit-identical to a fresh-compile reference.
//!
//! Usage: `cargo run --release --bin repro_serving_traffic [-- output.json]`

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr10.json".to_string());

    let config = hexcute_bench::traffic::TrafficConfig::default();
    let result = hexcute_bench::traffic::run(&config);

    println!(
        "Serving traffic: {} requests, {} tenants, {} distinct kernels, {:.1} req/s over {:.1}s\n",
        result.requests, config.tenants, result.distinct, result.requests_per_sec, result.wall_s
    );
    println!(
        "{:<18} {:>9} {:>10} {:>10} {:>10}",
        "class", "requests", "p50_ms", "p99_ms", "p999_ms"
    );
    for (name, class) in [
        ("latency_critical", &result.latency_critical),
        ("background", &result.background),
    ] {
        println!(
            "{:<18} {:>9} {:>10.3} {:>10.3} {:>10.3}",
            name, class.requests, class.p50_ms, class.p99_ms, class.p999_ms
        );
    }
    println!();
    println!(
        "served: memory={} disk={} synthesized={} coalesced={} (hit rate {:.1}%)",
        result.from_memory,
        result.from_disk,
        result.from_synthesis,
        result.from_coalesced,
        result.hit_rate * 100.0
    );
    let stats = &result.stats;
    println!(
        "scheduling: max_queue_depth={} boosts={} inversions={} shed={} \
         slot_utilization={:.1}%",
        stats.max_queue_depth,
        stats.background_boosts,
        stats.priority_inversions,
        stats.shed,
        result.slot_utilization * 100.0
    );
    println!("determinism: {} mismatches", result.mismatches);

    let json = hexcute_bench::traffic::to_json(&config, &result);
    match hexcute_bench::write_output(&out_path, &json) {
        Ok(()) => println!("\nWrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    hexcute_bench::checks::exit_if_failed();
}
