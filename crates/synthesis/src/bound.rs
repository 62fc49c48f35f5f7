//! Branch-and-bound support types: the search space handed to a bounder,
//! the [`SearchBounder`] contract the pruned walk relies on, and the pruned
//! search's outcome.
//!
//! The cost model lives *above* this crate (`hexcute-costmodel` depends on
//! `hexcute-synthesis`), so the pruned walk cannot call it directly; instead
//! the walk is generic over a [`SearchBounder`] the caller prepares from the
//! [`SearchSpace`] — per-op minimum-cost tables in practice (see
//! `hexcute_costmodel::CompletionBounds`). What makes pruning *lossless* is
//! the admissibility contract documented on
//! [`SearchBounder::completion_bound`]; the property is checked by the
//! `bound_admissibility` proptest and the prune axis of the workload
//! conformance matrix.

use hexcute_ir::OpId;

use crate::choice::{Candidate, CopyChoice};
use crate::prefix::PrefixStats;

/// The instruction menu of one copy operation, materialized: element counts
/// and invocation counts already resolved exactly as the search would
/// resolve them, so a bounder can cost each alternative without reaching
/// into engine internals.
#[derive(Debug, Clone)]
pub struct PlanAlternatives {
    /// The copy operation this plan selects an instruction for.
    pub op: OpId,
    /// One materialized [`CopyChoice`] per alternative, widest (preferred)
    /// first — index `j` is exactly the choice a selection picking
    /// alternative `j` produces.
    pub choices: Vec<CopyChoice>,
    /// The scalar-degraded choice the shared-memory feasibility fallback
    /// substitutes for *every* planned copy when synthesis fails (Section V).
    /// Its invocation count differs from the scalar alternative's normal
    /// materialization, so bounds must account for it separately.
    pub degraded: CopyChoice,
}

/// The choice space of one synthesis problem: one [`PlanAlternatives`] per
/// copy plan, in plan (enumeration) order. Everything else a candidate
/// carries — thread-value layouts, MMA choices, SIMT widths, rearranges —
/// is fixed across the whole search, so the plans *are* the search space.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// The per-copy instruction menus, in enumeration order.
    pub plans: Vec<PlanAlternatives>,
}

/// Scores candidates and bounds completions for the branch-and-bound walk.
pub trait SearchBounder {
    /// Precomputes whatever per-problem tables the bounder needs (per-op
    /// minimum-cost tables in practice). Called once, before any scoring.
    fn prepare(&mut self, space: &SearchSpace);

    /// The exact score of a finished candidate — **bit-identical** to the
    /// score the exhaustive selection loop would assign it (the conformance
    /// matrix compares winners by bit pattern).
    fn exact_score(&self, candidate: &Candidate) -> f64;

    /// An *admissible* lower bound for every feasible completion of a
    /// partial assignment: `candidate` carries concrete choices everywhere,
    /// but the ops listed in `undecided` are still free. The bound must not
    /// exceed `exact_score` of **any** finished candidate that agrees with
    /// `candidate` on the decided ops — including candidates produced by the
    /// all-plans scalar-degradation fallback, which rewrites *decided*
    /// choices too. Violating this makes pruning lossy; the
    /// `bound_admissibility` proptest enforces it.
    fn completion_bound(&self, candidate: &Candidate, undecided: &[OpId]) -> f64;
}

/// The result of a pruned (branch-and-bound, optionally beamed) search: the
/// winner only. Pruned walks skip dominated leaves, so — unlike
/// [`crate::SynthesisOutcome`] — no survivor *list* is reported.
#[derive(Debug, Clone)]
pub struct PrunedOutcome {
    /// The winning candidate — bit-identical to the exhaustive winner in
    /// exact mode (no beam).
    pub winner: Candidate,
    /// The winner's exact score (bit-identical to the exhaustive score).
    pub score: f64,
    /// The winner's index in the deterministic selection enumeration.
    pub winner_index: usize,
    /// Selections enumerated (after the node budget and beam, before
    /// pruning).
    pub enumerated: usize,
    /// Whether the node budget truncated the enumeration (the analogue of
    /// [`crate::SynthesisOutcome::Truncated`]).
    pub truncated: bool,
    /// Whether the beam dropped any prefix (always `false` without a
    /// configured beam width).
    pub beamed: bool,
    /// Walk counters, including the pruning counters.
    pub stats: PrefixStats,
}
