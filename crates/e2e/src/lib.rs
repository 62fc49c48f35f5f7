//! # hexcute-e2e
//!
//! A vLLM-style end-to-end serving model: the decode-step latency of a large
//! language model is the sum of its per-layer kernel latencies, and swapping
//! the Triton/CUTLASS-backed operators for Hexcute-backed ones changes only
//! those kernel latencies. This reproduces the aggregation behind Fig. 13 of
//! the paper (DeepSeek-R1-AWQ, Jamba-mini-1.7 and Qwen-3-32B on H100 GPUs).
//!
//! The serving layer compiles through the [`CompileService`]: a batched
//! compile front-end over the persistent kernel-artifact cache
//! ([`hexcute_core::cache`]) that coalesces concurrent requests for the same
//! kernel and fans distinct requests out across the persistent worker pool.
//! [`decode_latency_ms_with`] is the warm-cache serving mode; the
//! `repro_serving` binary reports the resulting cold vs. warm throughput
//! (`BENCH_pr4.json`).
//!
//! Since PR 10 the front-end is priority- and tenant-aware: requests carry
//! a [`Priority`] class and a [`TenantId`], admission is a ticketed
//! two-class queue with anti-starvation boosts and per-tenant fairness
//! (`repro_serving_traffic`, `BENCH_pr10.json`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod service;
mod serving;

pub use service::{
    CompileResponse, CompileService, Priority, ServedFrom, ServiceConfig, ServiceStats, TenantId,
};
pub use serving::{
    decode_latency_ms, decode_latency_ms_with, decode_step_programs, DecodeReport, KernelBackend,
    ModelConfig, ModelKind,
};
