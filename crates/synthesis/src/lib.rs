//! # hexcute-synthesis
//!
//! Constraint-based layout synthesis — the core contribution of the Hexcute
//! paper (Sections IV and V).
//!
//! The [`Synthesizer`] takes a tile-level [`hexcute_ir::Program`] and a
//! target [`hexcute_arch::GpuArch`] and produces [`Candidate`] programs in
//! which
//!
//! * every register tensor has a synthesized **thread-value layout**, solved
//!   from the constraints that tie tile-level operations to the collective
//!   instructions implementing them (`f ∘ p⁻¹ = g ∘ q⁻¹` for copies, the
//!   Theorem-1 equations for `gemm`, equality for `elementwise`, and a
//!   dimension collapse for `reduce`);
//! * every `copy` and `gemm` has a selected collective instruction
//!   (`mma`/`wgmma`, `ldmatrix`, `cp.async`, vectorized `ld/st`, TMA, or the
//!   scalar fallback), with alternatives enumerated as a search tree;
//! * every shared-memory tensor has a synthesized base layout (obtained by
//!   unifying the alignment-aware layout constraints of all copies touching
//!   it) composed with a swizzle selected to eliminate bank conflicts.
//!
//! The candidates are ranked by the analytical cost model in
//! `hexcute-costmodel`; the driver in `hexcute-core` ties the two together.
//!
//! Candidates are evaluated *incrementally* along shared choice prefixes
//! (see [`prefix`]): constraint unification and per-tensor shared-memory
//! finishing are memoized across sibling candidates. The full
//! per-candidate re-evaluation is [`Synthesizer::synthesize_reference`],
//! which tests call directly to cross-check it bit-for-bit.
//!
//! Searches can be bounded two ways: a deterministic node budget
//! ([`SynthesisOptions::node_budget`] / `HEXCUTE_SYNTH_BUDGET`) truncates the
//! enumeration up front and reports [`SynthesisOutcome::Truncated`]
//! bit-identically on both walks, while a wall-clock [`CancelToken`]
//! (deadline, watchdog, shutdown) is polled cooperatively at row granularity
//! and aborts the walk with a typed [`SynthesisError::Cancelled`] — never a
//! partial result.
//!
//! When the caller can score candidates (the compiler's cost model), the
//! search can also run as lossless branch-and-bound
//! ([`Synthesizer::synthesize_pruned`] with a [`SearchBounder`]): subtrees
//! whose admissible completion bound cannot beat the incumbent are
//! cut, and the winner is bit-identical to the exhaustive argmin. An
//! optional deterministic beam ([`SynthesisOptions::beam_width`] /
//! `HEXCUTE_SYNTH_BEAM`) truncates per-depth frontiers by bound rank —
//! lossy, but deterministic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bound;
mod choice;
mod constraints;
mod engine;
mod error;
pub mod hooks;
mod options;
pub mod prefix;
mod smem;

pub use bound::{PlanAlternatives, PrunedOutcome, SearchBounder, SearchSpace};
pub use choice::{Candidate, CopyChoice, MmaChoice, RearrangeFix};
pub use constraints::{
    collapse_dim, contiguous_run_along, copy_constraint_holds, gemm_constraint_holds,
    same_distribution, solve_copy_peer,
};
pub use engine::{SynthesisOutcome, Synthesizer};
pub use error::{Result, SynthesisError};
pub use hexcute_parallel::cancel::{CancelReason, CancelToken};
pub use hooks::{set_synth_fault_hook, SynthFaultHook, SynthFaultPoint};
pub use options::SynthesisOptions;
pub use prefix::{PrefixStats, TensorSlotInterner};
pub use smem::{
    bank_conflict_degree, synthesize_smem_layouts, ConstraintError, ConstraintMode,
    LayoutConstraint,
};
