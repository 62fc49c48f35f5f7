//! Per-layer metrics of a traced run. Every workload reports the same list;
//! a layer a workload does not exercise reads 0 there.
//!
//! "Share" metrics divide a layer's busy time by the service wall time of
//! the same traced requests (on `warmup_batch`, batch wall time times the
//! worker count), so they say where a request's time goes.

use std::collections::BTreeMap;

use hexcute_e2e::ServiceStats;
use hexcute_parallel::PoolStats;

use crate::gen::FAMILIES;
use crate::report::{geomean, median, metric, percentile, ratio, Metric};
use crate::trace::Phases;

/// Everything a traced run observed from outside the program.
#[derive(Debug, Default)]
pub struct Trace {
    /// Replayed compiles, with the service latency of the request each one
    /// replays (ms).
    pub replays: Vec<(Phases, f64)>,
    /// Direct probes of the hit path.
    pub fingerprint_us: Vec<f64>,
    pub memory_get_us: Vec<f64>,
    pub disk_get_us: Vec<f64>,
    /// Memory-hit `compile_as` time minus fingerprint and get.
    pub overhead_us: Vec<f64>,
    /// Service wall time of the traced requests (ms).
    pub request_wall_ms: f64,
    /// Request latencies of the untraced and the traced half of the run.
    pub untraced_latency_ms: Vec<f64>,
    pub traced_latency_ms: Vec<f64>,
    /// Per batch: serial replayed compile time over batch wall time.
    pub batch_speedups: Vec<f64>,
    /// Program construction (us per program) and generation wall (ms).
    pub build_us: Vec<f64>,
    pub gen_ms: f64,
    pub setup_ms: f64,
    /// How late the open-loop generator sent each request (ms).
    pub lateness_ms: Vec<f64>,
    /// Failures per layer.
    pub failures: BTreeMap<&'static str, u64>,
    /// Requests served from each tier, over all timed requests.
    pub served_memory: u64,
    pub served_disk: u64,
    pub served_synthesized: u64,
    pub served_coalesced: u64,
    /// Replays whose artifact differed from the served one.
    pub mismatches: u64,
    /// Functional-simulator gate checks made.
    pub functional_checks: u64,
}

/// Layers in the order they are reported.
pub const LAYERS: [&str; 11] = [
    "kernels",
    "core.fingerprint",
    "synthesis",
    "costmodel",
    "sim",
    "codegen",
    "core.artifact",
    "core.cache",
    "e2e.service",
    "parallel",
    "gen",
];

/// Name, unit and better direction of every per-layer metric, in output
/// order. `BENCHMARK.json` lists the same names.
#[cfg(test)]
pub fn catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut push = |name: &str, unit, better| out.push((name.to_string(), unit, better));
    push("kernels.build_us", "us", "lower");
    push("core.fingerprint_us", "us", "lower");
    push("synthesis.space_ms", "ms", "lower");
    push("synthesis.walk_ms", "ms", "lower");
    for family in FAMILIES {
        push(&format!("synthesis.space_ms.{family}"), "ms", "lower");
        push(&format!("synthesis.walk_ms.{family}"), "ms", "lower");
        push(
            &format!("synthesis.scored_share.{family}"),
            "ratio",
            "higher",
        );
    }
    push("synthesis.enumerated", "count", "lower");
    push("synthesis.scored", "count", "lower");
    push("synthesis.scored_share", "ratio", "higher");
    push("synthesis.bound_evaluations", "count", "lower");
    push("synthesis.subtrees_cut", "count", "higher");
    push("synthesis.declined", "count", "lower");
    push("costmodel.bounds_us", "us", "lower");
    push("costmodel.estimate_us", "us", "lower");
    push("sim.perf_eval_us", "us", "lower");
    push("sim.functional_checks", "count", "higher");
    push("codegen.lower_us", "us", "lower");
    push("codegen.emit_us", "us", "lower");
    push("codegen.source_kb", "KiB", "lower");
    push("core.package_us", "us", "lower");
    push("core.encode_us", "us", "lower");
    push("core.decode_us", "us", "lower");
    push("core.artifact_kb", "KiB", "lower");
    push("cache.memory_get_us", "us", "lower");
    push("cache.disk_get_us", "us", "lower");
    push("cache.insert_us", "us", "lower");
    push("cache.memory_hit_share", "ratio", "higher");
    push("cache.disk_hit_share", "ratio", "lower");
    push("cache.miss_share", "ratio", "lower");
    push("cache.file_evictions", "count", "lower");
    push("service.overhead_us", "us", "lower");
    push("service.syntheses", "count", "lower");
    push("service.coalesced", "count", "higher");
    push("service.max_queue_depth", "count", "lower");
    push("service.shed", "count", "lower");
    push("service.retries", "count", "lower");
    push("parallel.batch_speedup", "x", "higher");
    push("parallel.pool_jobs", "count", "lower");
    push("parallel.pool_items", "count", "lower");
    push("gen.lateness_p99_ms", "ms", "lower");
    push("trace.p50_overhead_share", "ratio", "lower");
    push("trace.phase_sum_ratio", "ratio", "higher");
    push("trace.mismatches", "count", "lower");
    push("trace.replays", "count", "higher");
    push("trace.space_dominates", "bool", "higher");
    push("trace.walk_dominates_attention", "bool", "higher");
    for layer in LAYERS {
        push(&format!("{layer}.calls"), "count", "lower");
        push(&format!("{layer}.busy_share"), "ratio", "lower");
        push(&format!("{layer}.failures"), "count", "lower");
    }
    out
}

fn col(replays: &[(Phases, f64)], f: impl Fn(&Phases) -> f64) -> Vec<f64> {
    replays.iter().map(|(p, _)| f(p)).collect()
}

fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

impl Trace {
    /// Median of `replayed compile path / served latency`: how much of the
    /// untraced compile time the timed phases account for.
    pub fn phase_sum_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .replays
            .iter()
            .filter(|(p, served)| !p.declined && *served > 0.0)
            .map(|(p, served)| p.compile_path_ms() / served)
            .collect();
        median(&ratios)
    }

    /// Is `space_ms` the largest phase of the gemm, moe and quant kernels,
    /// and `walk_ms` the largest of forward attention, as the committed
    /// per-family profile found? Kernels without replays pass.
    pub fn phase_order(&self) -> (bool, bool) {
        let family_median = |kernel: &str, f: &dyn Fn(&Phases) -> f64| {
            let v: Vec<f64> = self
                .replays
                .iter()
                .filter(|(p, _)| p.kernel == kernel)
                .map(|(p, _)| f(p))
                .collect();
            (!v.is_empty()).then(|| median(&v))
        };
        let largest_other = |p: &Phases| {
            [
                p.bounds_us / 1e3,
                p.estimate_us / 1e3,
                p.perf_us / 1e3,
                p.lower_us / 1e3,
                p.emit_us / 1e3,
                p.package_us / 1e3,
                p.encode_us / 1e3,
                p.insert_us / 1e3,
            ]
            .into_iter()
            .fold(0.0, f64::max)
        };
        let space_ok = ["fp16_gemm", "mixed_type_moe_fp16_int4", "w4a16_gemm"]
            .iter()
            .all(|kernel| {
                match (
                    family_median(kernel, &|p| p.space_ms),
                    family_median(kernel, &|p| p.walk_ms().max(largest_other(p))),
                ) {
                    (Some(space), Some(other)) => space > other,
                    _ => true,
                }
            });
        let walk_ok = match (
            family_median("fused_mha_forward", &|p| p.walk_ms()),
            family_median("fused_mha_forward", &|p| p.space_ms.max(largest_other(p))),
        ) {
            (Some(walk), Some(other)) => walk > other,
            _ => true,
        };
        (space_ok, walk_ok)
    }

    /// The per-layer metrics, in [`catalog`] order.
    pub fn metrics(&self, stats: &ServiceStats, pool: &PoolStats) -> Vec<Metric> {
        let r = &self.replays;
        let split: Vec<&(Phases, f64)> = r.iter().filter(|(p, _)| !p.declined).collect();
        let split_col =
            |f: &dyn Fn(&Phases) -> f64| -> Vec<f64> { split.iter().map(|(p, _)| f(p)).collect() };
        let space = split_col(&|p| p.space_ms);
        let walk = split_col(&|p| p.walk_ms());
        let enumerated = split_col(&|p| p.enumerated as f64);
        let scored = split_col(&|p| p.scored as f64);
        let wall_ms = self.request_wall_ms;
        let served = (self.served_memory
            + self.served_disk
            + self.served_synthesized
            + self.served_coalesced) as f64;
        let (space_ok, walk_ok) = self.phase_order();

        let mut fingerprints = self.fingerprint_us.clone();
        fingerprints.extend(col(r, |p| p.fingerprint_us));
        let mut m = vec![
            metric("kernels.build_us", "us", median(&self.build_us)),
            metric("core.fingerprint_us", "us", median(&fingerprints)),
            metric("synthesis.space_ms", "ms", median(&space)),
            metric("synthesis.walk_ms", "ms", median(&walk)),
        ];
        for family in FAMILIES {
            let of: Vec<&Phases> = split
                .iter()
                .map(|(p, _)| p)
                .filter(|p| p.family == family)
                .collect();
            let fam =
                |f: &dyn Fn(&Phases) -> f64| -> Vec<f64> { of.iter().map(|p| f(p)).collect() };
            m.push(metric(
                format!("synthesis.space_ms.{family}"),
                "ms",
                median(&fam(&|p| p.space_ms)),
            ));
            m.push(metric(
                format!("synthesis.walk_ms.{family}"),
                "ms",
                median(&fam(&|p| p.walk_ms())),
            ));
            m.push(metric(
                format!("synthesis.scored_share.{family}"),
                "ratio",
                ratio(
                    sum(&fam(&|p| p.scored as f64)),
                    sum(&fam(&|p| p.enumerated as f64)),
                ),
            ));
        }
        let declined = r.len() - split.len();
        m.extend([
            metric("synthesis.enumerated", "count", median(&enumerated)),
            metric("synthesis.scored", "count", median(&scored)),
            metric(
                "synthesis.scored_share",
                "ratio",
                ratio(sum(&scored), sum(&enumerated)),
            ),
            metric(
                "synthesis.bound_evaluations",
                "count",
                median(&split_col(&|p| p.bound_evaluations as f64)),
            ),
            metric(
                "synthesis.subtrees_cut",
                "count",
                median(&split_col(&|p| p.subtrees_cut as f64)),
            ),
            metric("synthesis.declined", "count", declined as f64),
            metric(
                "costmodel.bounds_us",
                "us",
                median(&col(r, |p| p.bounds_us)),
            ),
            metric(
                "costmodel.estimate_us",
                "us",
                median(&split_col(&|p| p.estimate_us)),
            ),
            metric("sim.perf_eval_us", "us", median(&split_col(&|p| p.perf_us))),
            metric(
                "sim.functional_checks",
                "count",
                self.functional_checks as f64,
            ),
            metric(
                "codegen.lower_us",
                "us",
                median(&split_col(&|p| p.lower_us)),
            ),
            metric("codegen.emit_us", "us", median(&split_col(&|p| p.emit_us))),
            metric(
                "codegen.source_kb",
                "KiB",
                median(&split_col(&|p| p.source_kb)),
            ),
            metric(
                "core.package_us",
                "us",
                median(&split_col(&|p| p.package_us)),
            ),
            metric("core.encode_us", "us", median(&col(r, |p| p.encode_us))),
            metric("core.decode_us", "us", median(&col(r, |p| p.decode_us))),
            metric(
                "core.artifact_kb",
                "KiB",
                median(&col(r, |p| p.artifact_kb)),
            ),
            metric("cache.memory_get_us", "us", median(&self.memory_get_us)),
            metric("cache.disk_get_us", "us", median(&self.disk_get_us)),
            metric("cache.insert_us", "us", median(&col(r, |p| p.insert_us))),
            metric(
                "cache.memory_hit_share",
                "ratio",
                ratio(self.served_memory as f64, served),
            ),
            metric(
                "cache.disk_hit_share",
                "ratio",
                ratio(self.served_disk as f64, served),
            ),
            metric(
                "cache.miss_share",
                "ratio",
                ratio(
                    (self.served_synthesized + self.served_coalesced) as f64,
                    served,
                ),
            ),
            metric(
                "cache.file_evictions",
                "count",
                stats.cache.file_evictions as f64,
            ),
            metric("service.overhead_us", "us", median(&self.overhead_us)),
            metric("service.syntheses", "count", stats.syntheses as f64),
            metric("service.coalesced", "count", stats.coalesced as f64),
            metric(
                "service.max_queue_depth",
                "count",
                stats.max_queue_depth as f64,
            ),
            metric("service.shed", "count", stats.shed as f64),
            metric("service.retries", "count", stats.retries as f64),
            metric("parallel.batch_speedup", "x", median(&self.batch_speedups)),
            metric("parallel.pool_jobs", "count", pool.jobs as f64),
            metric("parallel.pool_items", "count", pool.items as f64),
            metric(
                "gen.lateness_p99_ms",
                "ms",
                percentile(&self.lateness_ms, 0.99),
            ),
            metric(
                "trace.p50_overhead_share",
                "ratio",
                ratio(
                    median(&self.traced_latency_ms),
                    median(&self.untraced_latency_ms),
                ) - 1.0,
            ),
            metric("trace.phase_sum_ratio", "ratio", self.phase_sum_ratio()),
            metric("trace.mismatches", "count", self.mismatches as f64),
            metric("trace.replays", "count", r.len() as f64),
            metric(
                "trace.space_dominates",
                "bool",
                f64::from(u8::from(space_ok)),
            ),
            metric(
                "trace.walk_dominates_attention",
                "bool",
                f64::from(u8::from(walk_ok)),
            ),
        ]);

        // Busy time per layer (ms) and calls.
        let busy = |f: &dyn Fn(&Phases) -> f64| sum(&col(r, |p| f(p)));
        let layer_busy: [(f64, usize); 11] = [
            (sum(&self.build_us) / 1e3, self.build_us.len()),
            (sum(&fingerprints) / 1e3, fingerprints.len()),
            (busy(&|p| p.pruned_ms), r.len()),
            (busy(&|p| p.bounds_us + p.estimate_us) / 1e3, r.len()),
            (busy(&|p| p.perf_us) / 1e3, split.len()),
            (busy(&|p| p.lower_us + p.emit_us) / 1e3, split.len()),
            (
                busy(&|p| p.package_us + p.encode_us + p.decode_us) / 1e3,
                r.len(),
            ),
            (
                (busy(&|p| p.insert_us) + sum(&self.memory_get_us) + sum(&self.disk_get_us)) / 1e3,
                r.len() + self.memory_get_us.len() + self.disk_get_us.len(),
            ),
            (sum(&self.overhead_us) / 1e3, self.overhead_us.len()),
            (0.0, self.batch_speedups.len()),
            (self.gen_ms, self.lateness_ms.len() + self.build_us.len()),
        ];
        for (layer, (busy_ms, calls)) in LAYERS.iter().zip(layer_busy) {
            // Construction and generation happen during set-up; the pool's
            // busy share is its utilization while batches run.
            let share = match *layer {
                "kernels" | "gen" => ratio(busy_ms, self.setup_ms),
                "parallel" => ratio(
                    geomean(&self.batch_speedups),
                    hexcute_parallel::worker_count() as f64,
                ),
                _ => ratio(busy_ms, wall_ms),
            };
            m.push(metric(format!("{layer}.calls"), "count", calls as f64));
            m.push(metric(format!("{layer}.busy_share"), "ratio", share));
            m.push(metric(
                format!("{layer}.failures"),
                "count",
                self.failures.get(layer).copied().unwrap_or(0) as f64,
            ));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer entries of `BENCHMARK.json`, as (name, unit, better).
    fn declared() -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = hexcute_core::json::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &hexcute_core::json::JsonValue, key: &str| {
            entry
                .get(key)
                .and_then(|v| v.as_str())
                .expect("string field")
                .to_string()
        };
        doc.get("per_layer")
            .and_then(|v| v.as_arr())
            .expect("per_layer array")
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    #[test]
    fn every_workload_reports_the_catalog() {
        let names: Vec<String> = Trace::default()
            .metrics(&ServiceStats::default(), &PoolStats::default())
            .into_iter()
            .map(|m| m.name)
            .collect();
        let catalog: Vec<String> = catalog().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, catalog);
    }

    #[test]
    fn benchmark_json_declares_the_catalog() {
        let catalog: Vec<(String, String, String)> = catalog()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        let declared = declared();
        if declared != catalog {
            let entries: Vec<String> = catalog
                .iter()
                .map(|(n, u, b)| {
                    format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
                })
                .collect();
            panic!(
                "BENCHMARK.json per_layer should read:\n{}",
                entries.join(",\n")
            );
        }
    }
}
