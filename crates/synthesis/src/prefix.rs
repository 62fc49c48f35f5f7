//! Shared-prefix candidate evaluation (incremental search).
//!
//! The DFS search tree of Section IV-B varies one instruction choice at a
//! time, so sibling candidates share a *prefix* of choices: the same MMA
//! atom and the same copy plan for most edges. The reference
//! ([`Synthesizer::synthesize_reference`]) re-unifies shared-memory
//! constraints and re-selects swizzles from scratch for every candidate;
//! this module instead treats each selection as a path through a
//! prefix tree, carrying per-shared-tensor constraint state down the path
//! (each edge unifies only the constraint of the newly decided copy), and
//! memoizes the expensive per-tensor finishing step (materialization +
//! swizzle selection) keyed by the choices of exactly the copies touching
//! the tensor — a sibling whose differing suffix does not touch a tensor
//! reuses its finished layout outright. This is the same trick BDD packages
//! use with apply-caches over shared subgraphs.
//!
//! ## Data layout
//!
//! The tree is not a tree of owned maps. Shared tensors are interned to
//! dense slots by a [`TensorSlotInterner`], so per-node constraint state is
//! a flat `Vec<ConstraintSlot>` indexed by slot; the states live in an
//! **arena** of reusable rows, and the walk's stack holds `u32` row indices
//! instead of owned nodes. An edge whose copy touches no shared tensor
//! pushes its parent's row index (zero cost); a stateful edge clones its
//! parent's row into the next arena slot, reusing the allocations of rows
//! abandoned by earlier backtracking (allocation order = traversal order).
//! Constraint conflicts are carried as the `Copy`
//! [`ConstraintError`] code — the `String` reason
//! only materializes at the API boundary.
//!
//! The results are bit-identical to the reference: the same constraints
//! are unified in the same (program) order and the same finishing code runs
//! on cache misses. The equivalence is cross-checked by
//! `tests/incremental_vs_reference.rs` and the randomized kernel sweep in
//! `hexcute-core`.
//!
//! ## One thread per search
//!
//! Both walks run on the calling thread. A compilation is sequential work
//! (a TV solve, then this walk); parallelism pays off across the distinct
//! kernels of a model, which the compile service's batch path fans out over
//! the worker pool. The branch-and-bound walk still groups the selections by
//! a shared choice prefix so one admissible bound can cut a whole group.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use hexcute_arch::DType;
use hexcute_ir::{OpKind, TensorId};
use hexcute_layout::{Layout, SwizzledLayout};
use hexcute_parallel::cancel::{CancelReason, CancelToken};

use crate::choice::{Candidate, CopyChoice};
use crate::engine::{degrade_to_scalar, CopyPlan, Synthesizer, TvBase};
use crate::error::SynthesisError;
use crate::hooks;
use crate::smem::{
    copy_constraint, materialize_and_swizzle, unify_touching, ConstraintError, LayoutConstraint,
};

/// Sentinel for "tensor not interned" in the sparse index.
const NO_SLOT: u32 = u32::MAX;

/// Interns a set of [`TensorId`]s to dense `u32` slots, so per-tensor state
/// can live in flat vectors indexed by slot instead of ordered maps keyed by
/// id. Slot order is insertion order; lookups in both directions are O(1)
/// (ids are dense per program, so the reverse index is a plain vector).
#[derive(Debug, Clone, Default)]
pub struct TensorSlotInterner {
    /// `slot -> tensor`, in insertion order.
    tensors: Vec<TensorId>,
    /// `tensor.index() -> slot`, [`NO_SLOT`] when not interned.
    slots: Vec<u32>,
}

impl TensorSlotInterner {
    /// Interns the tensors in iteration order (duplicates keep their first
    /// slot).
    pub fn new(tensors: impl IntoIterator<Item = TensorId>) -> Self {
        let mut interner = TensorSlotInterner::default();
        for tensor in tensors {
            interner.intern(tensor);
        }
        interner
    }

    /// The slot of `tensor`, interning it if new.
    pub fn intern(&mut self, tensor: TensorId) -> u32 {
        if let Some(slot) = self.slot(tensor) {
            return slot;
        }
        let slot = u32::try_from(self.tensors.len()).expect("fewer than 2^32 tensors");
        if tensor.index() >= self.slots.len() {
            self.slots.resize(tensor.index() + 1, NO_SLOT);
        }
        self.slots[tensor.index()] = slot;
        self.tensors.push(tensor);
        slot
    }

    /// The slot of `tensor`, if interned.
    pub fn slot(&self, tensor: TensorId) -> Option<u32> {
        match self.slots.get(tensor.index()) {
            Some(&slot) if slot != NO_SLOT => Some(slot),
            _ => None,
        }
    }

    /// The tensor occupying `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` was never handed out.
    pub fn tensor(&self, slot: u32) -> TensorId {
        self.tensors[slot as usize]
    }

    /// Number of interned tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether no tensor is interned.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// The interned tensors in slot order.
    pub fn tensors(&self) -> &[TensorId] {
        &self.tensors
    }
}

/// Per-tensor constraint state of one tree node: the unified constraint, or
/// the first unification conflict encountered along the path (which sends
/// every candidate below the node to the scalar fallback). `Copy` error
/// codes keep cloning a row allocation-free on the error side.
type ConstraintSlot = Result<LayoutConstraint, ConstraintError>;

/// Counters exposing how much work the prefix sharing and the pruning
/// saved. Used by tests to assert that sharing actually happens and
/// reported by the `repro_*` binaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Tree edges expanded (per-copy constraint unifications performed).
    pub nodes_expanded: usize,
    /// Per-tensor finishing computations (materialize + swizzle selection).
    pub tensor_layouts_computed: usize,
    /// Per-tensor finishing results served from the prefix cache.
    pub tensor_layout_hits: usize,
    /// Admissible completion bounds evaluated by the pruned walk (group
    /// prefixes, individual leaves and beam frontiers). Zero for the
    /// exhaustive walks.
    pub bound_evaluations: usize,
    /// Selection groups cut whole because their prefix bound could not beat
    /// the incumbent.
    pub subtrees_cut: usize,
    /// Selections skipped by pruning — members of cut groups plus
    /// individually cut leaves.
    pub selections_pruned: usize,
    /// Offers that actually lowered the incumbent score.
    pub incumbent_updates: usize,
    /// Leaves the pruned walk finished and exactly scored (the quantity the
    /// `repro_prune` bench compares against the exhaustive candidate count).
    pub candidates_scored: usize,
}

/// The state of one incremental search: the current path through the prefix
/// tree plus the cross-path memo of finished per-tensor layouts.
struct PrefixSearch<'s, 'a> {
    synth: &'s Synthesizer<'a>,
    plans: &'s [CopyPlan],
    /// Shared tensors interned to dense slots, in `program.shared_tensors()`
    /// order (the order the reference path processes them in).
    interner: TensorSlotInterner,
    /// Tile shape and dtype per slot.
    info: Vec<(Vec<usize>, DType)>,
    /// Plan indices (in plan = program order) touching each slot.
    touch: Vec<Vec<u32>>,
    /// Slots touched by each plan.
    plan_touch: Vec<Vec<u32>>,
    /// Arena of constraint-state rows; `arena[..arena_len]` are live, rows
    /// beyond keep their allocations for reuse after backtracking.
    arena: Vec<Vec<ConstraintSlot>>,
    arena_len: usize,
    /// `stack[d]` is the arena row holding the state after the first `d`
    /// choices of `path`. Stateless edges repeat their parent's row, so the
    /// indices are non-decreasing along the stack.
    stack: Vec<u32>,
    path: Vec<usize>,
    /// Finished shared-memory layouts (or the unification/materialization
    /// error code) keyed by the tensor and the fingerprint of the copy
    /// choices touching it. Values are pure functions of the key, which is
    /// what makes reusing them across paths exact.
    finished: HashMap<(TensorId, u64), Result<SwizzledLayout, ConstraintError>>,
    /// Wall-clock cancellation flag, polled once per tree row (each
    /// [`PrefixSearch::extend`] is one row). `None` runs uninterruptible.
    cancel: Option<&'s CancelToken>,
    stats: PrefixStats,
}

impl<'s, 'a> PrefixSearch<'s, 'a> {
    fn new(
        synth: &'s Synthesizer<'a>,
        plans: &'s [CopyPlan],
        cancel: Option<&'s CancelToken>,
    ) -> Self {
        let program = synth.program();
        let interner = TensorSlotInterner::new(program.shared_tensors());
        let mut info = Vec::with_capacity(interner.len());
        for &tensor in interner.tensors() {
            let decl = program.tensor(tensor);
            info.push((decl.tile_shape_2d(), decl.dtype));
        }
        let mut touch: Vec<Vec<u32>> = vec![Vec::new(); interner.len()];
        let mut plan_touch: Vec<Vec<u32>> = vec![Vec::new(); plans.len()];
        for (d, plan) in plans.iter().enumerate() {
            let OpKind::Copy { src, dst } = program.op(plan.op).kind else {
                continue;
            };
            for tensor in [src, dst] {
                let Some(slot) = interner.slot(tensor) else {
                    continue;
                };
                if !plan_touch[d].contains(&slot) {
                    plan_touch[d].push(slot);
                    touch[slot as usize].push(d as u32);
                }
            }
        }
        let root: Vec<ConstraintSlot> = info
            .iter()
            .map(|(tile, _)| Ok(LayoutConstraint::unconstrained(tile)))
            .collect();
        PrefixSearch {
            synth,
            plans,
            interner,
            info,
            touch,
            plan_touch,
            arena: vec![root],
            arena_len: 1,
            stack: vec![0],
            path: Vec::new(),
            finished: HashMap::new(),
            cancel,
            stats: PrefixStats::default(),
        }
    }

    /// Repositions the walk at the leaf for `sel`, reusing the nodes of the
    /// longest prefix shared with the previous path and expanding only the
    /// differing suffix. Arena rows abandoned by the backtrack keep their
    /// allocations and are overwritten by the new branch.
    ///
    /// The cancel token (when carried) is polled once per expanded row, so a
    /// deadline or watchdog cancel aborts the walk within one row of work.
    fn walk_to(&mut self, sel: &[usize]) -> Result<(), CancelReason> {
        let common = self
            .path
            .iter()
            .zip(sel.iter())
            .take_while(|(a, b)| a == b)
            .count();
        self.path.truncate(common);
        self.stack.truncate(common + 1);
        // Row indices are non-decreasing along the stack, so everything past
        // the kept top is unreachable from the new branch.
        self.arena_len = self.stack[common] as usize + 1;
        for (depth, &alternative) in sel.iter().enumerate().skip(common) {
            if let Some(reason) = hooks::poll_cancelled(self.cancel) {
                return Err(reason);
            }
            self.extend(depth, alternative);
        }
        Ok(())
    }

    /// The arena row holding the constraint state at the current end of the
    /// path.
    fn current_row(&self) -> u32 {
        *self.stack.last().expect("the root is always on the stack")
    }

    /// Clones the parent row into the next arena slot (reusing a spare row's
    /// allocations when the walk backtracked past it) and returns its index.
    fn push_row_from(&mut self, parent: u32) -> u32 {
        let idx = self.arena_len;
        if idx < self.arena.len() {
            let (live, spare) = self.arena.split_at_mut(idx);
            spare[0].clone_from(&live[parent as usize]);
        } else {
            let row = self.arena[parent as usize].clone();
            self.arena.push(row);
        }
        self.arena_len += 1;
        u32::try_from(idx).expect("fewer than 2^32 tree rows")
    }

    /// Pushes one choice: unifies the chosen copy's constraint into the
    /// state of every shared tensor the copy touches. Choices touching no
    /// shared tensor repeat their parent's row (the ancestor state applies
    /// unchanged — edges for register/global copies cost nothing).
    fn extend(&mut self, depth: usize, alternative: usize) {
        let plan = &self.plans[depth];
        let parent = self.current_row();
        let row = if self.plan_touch[depth].is_empty() {
            parent
        } else {
            self.stats.nodes_expanded += 1;
            let row = self.push_row_from(parent);
            // Mirror the clamp `materialize_candidate` applies to the
            // alternative index.
            let (atom, elems) = &plan.alternatives[alternative.min(plan.alternatives.len() - 1)];
            for &slot in &self.plan_touch[depth] {
                let (tile, dtype) = &self.info[slot as usize];
                let entry = &mut self.arena[row as usize][slot as usize];
                if let Ok(current) = entry {
                    let c = copy_constraint(atom, plan.vector_dim, *elems, tile, *dtype);
                    *entry = current.unify(&c);
                }
            }
            row
        };
        self.stack.push(row);
        self.path.push(alternative);
    }

    /// Finishes `candidate`, the materialized selection at the current
    /// leaf: attaches memoized shared-memory layouts, falling back to
    /// all-scalar copies when the constraints conflict (and dropping the
    /// candidate when even the fallback is unsatisfiable) — exactly like the
    /// reference path.
    fn finish_leaf(&mut self, mut candidate: Candidate) -> Option<Candidate> {
        let leaf = self.current_row();
        if self.attach_smem(&mut candidate, Some(leaf)).is_ok() {
            return Some(candidate);
        }
        // Degrade every shared-memory copy to its scalar alternative and
        // retry once (Section V: "the compiler falls back to scalar
        // instructions"). The degraded choice set is the same for every
        // failing sibling, so its per-tensor layouts are computed once.
        degrade_to_scalar(self.plans, &mut candidate);
        if self.attach_smem(&mut candidate, None).is_ok() {
            candidate
                .notes
                .push("fell back to scalar copies for shared memory".to_string());
            return Some(candidate);
        }
        None
    }

    /// Fingerprint of the copy choices touching the tensor in `slot` —
    /// exactly the inputs `copy_constraint` and the swizzle scoring read
    /// (the per-thread coverage is plan-constant, so the op identity covers
    /// it). Walks the precomputed per-slot plan indices and hashes the
    /// choices in place — no temporary `Vec<&CopyChoice>` per tensor per
    /// leaf.
    fn touching_fingerprint(&self, candidate: &Candidate, slot: u32) -> u64 {
        let mut hasher = DefaultHasher::new();
        for &pi in &self.touch[slot as usize] {
            let choice = &candidate.copy_choices[&self.plans[pi as usize].op];
            choice.atom.name.hash(&mut hasher);
            choice.elements_per_thread.hash(&mut hasher);
            choice.vector_dim.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The touching copy choices of `slot`, materialized only on memo misses
    /// (the finishing code needs the actual slice).
    fn touching_choices_of<'c>(&self, candidate: &'c Candidate, slot: u32) -> Vec<&'c CopyChoice> {
        self.touch[slot as usize]
            .iter()
            .map(|&pi| &candidate.copy_choices[&self.plans[pi as usize].op])
            .collect()
    }

    /// Attaches a synthesized layout for every shared tensor of the program
    /// to `candidate`, reusing memoized results when the choices of the
    /// copies touching a tensor were seen before. `leaf` is the arena row
    /// carrying the prefix-unified constraints; `None` (the degraded
    /// fallback) re-unifies from the candidate's actual choices on a memo
    /// miss.
    fn attach_smem(&mut self, candidate: &mut Candidate, leaf: Option<u32>) -> Result<(), ()> {
        let options = self.synth.options();
        for slot in 0..self.interner.len() as u32 {
            let tensor = self.interner.tensor(slot);
            if options.force_row_major_smem {
                let (tile, _) = &self.info[slot as usize];
                candidate
                    .smem_layouts
                    .insert(tensor, SwizzledLayout::unswizzled(Layout::row_major(tile)));
                continue;
            }
            let key = (tensor, self.touching_fingerprint(candidate, slot));
            let result = match self.finished.get(&key).cloned() {
                Some(hit) => {
                    self.stats.tensor_layout_hits += 1;
                    hit
                }
                None => {
                    self.stats.tensor_layouts_computed += 1;
                    let (tile, dtype) = &self.info[slot as usize];
                    let touching = self.touching_choices_of(candidate, slot);
                    let constraint = match leaf {
                        Some(row) => self.arena[row as usize][slot as usize].clone(),
                        None => unify_touching(tile, &touching, *dtype),
                    };
                    let computed = constraint.and_then(|c| {
                        materialize_and_swizzle(
                            &c,
                            &touching,
                            tile,
                            dtype.bits(),
                            self.synth.arch(),
                            options,
                        )
                    });
                    self.finished.insert(key, computed.clone());
                    computed
                }
            };
            match result {
                Ok(layout) => {
                    candidate.smem_layouts.insert(tensor, layout);
                }
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }
}

/// How many selection groups the pruned walk aims for: enough that a cut
/// group skips a useful share of the selections, few enough that one prefix
/// bound per group stays cheap.
const PREFIX_GROUPS: usize = 8;

/// The choice depth the pruned walk groups selections at: the smallest
/// depth whose prefixes split the selections into at least
/// [`PREFIX_GROUPS`] groups, falling back to the full selection length —
/// every leaf its own group. Only the pruning counters depend on it; the
/// winner does not.
fn resolve_subtree_depth(selections: &[Vec<usize>]) -> usize {
    let max_len = selections.iter().map(Vec::len).max().unwrap_or(0);
    for depth in 1..=max_len {
        let distinct: std::collections::HashSet<&[usize]> = selections
            .iter()
            .map(|sel| &sel[..depth.min(sel.len())])
            .collect();
        if distinct.len() >= PREFIX_GROUPS {
            return depth;
        }
    }
    max_len
}

/// Groups selection indices by their depth-`depth` choice prefix, preserving
/// the enumeration order of first occurrence (and of members within each
/// group).
fn subtree_groups(selections: &[Vec<usize>], depth: usize) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut index_of: HashMap<&[usize], usize> = HashMap::new();
    for (i, sel) in selections.iter().enumerate() {
        let key = &sel[..depth.min(sel.len())];
        match index_of.get(key) {
            Some(&g) => groups[g].push(i),
            None => {
                index_of.insert(key, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// The search's total order on scored leaves: `(score, enumeration index)`
/// lexicographically, scores under [`f64::total_cmp`]. The first minimal
/// leaf in enumeration order is the least, which is the exhaustive argmin's
/// tie-break.
fn lex_less(a: (f64, usize), b: (f64, usize)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => a.1 < b.1,
        std::cmp::Ordering::Greater => false,
    }
}

impl<'a> Synthesizer<'a> {
    /// Evaluates the selections through the shared-prefix search, returning
    /// at most `max` finished candidates in enumeration order, plus the
    /// sharing counters.
    ///
    /// `token` (when carried) is polled cooperatively at row granularity;
    /// a tripped token aborts with [`SynthesisError::Cancelled`] — never a
    /// partial candidate list.
    pub(crate) fn walk_serial(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selections: &[Vec<usize>],
        max: usize,
        token: Option<&CancelToken>,
    ) -> Result<(Vec<Candidate>, PrefixStats), SynthesisError> {
        let mut search = PrefixSearch::new(self, plans, token);
        let mut finished = Vec::new();
        for sel in selections {
            if finished.len() >= max {
                break;
            }
            if let Some(reason) = hooks::injected_stall(token) {
                return Err(SynthesisError::Cancelled(reason));
            }
            search.walk_to(sel).map_err(SynthesisError::Cancelled)?;
            let candidate = self.materialize_candidate(base, plans, sel);
            if let Some(candidate) = search.finish_leaf(candidate) {
                finished.push(candidate);
            }
        }
        Ok((finished, search.stats))
    }

    /// The branch-and-bound walk behind [`Synthesizer::synthesize_pruned`]:
    /// evaluates the selections through the shared-prefix search, but keeps
    /// an incumbent `(score, index)` pair and cuts every selection group
    /// (and individual leaf) whose admissible completion bound cannot beat
    /// it under [`lex_less`]. Returns the winner as `(enumeration index,
    /// candidate, score)` plus the walk counters.
    ///
    /// ## Why pruning keeps the exhaustive winner
    ///
    /// The incumbent only ever holds exact `(score, index)` pairs of
    /// finished candidates, so it is never below the global minimum pair. A
    /// group containing the global minimizer has a bound ≤ its score and a
    /// first index ≤ its index, so its `(bound, first index)` pair is not
    /// above the incumbent — and pruning requires the pair to be **strictly
    /// greater**. The global minimizer is therefore never cut; pruning on
    /// index breaks score *ties* exactly the way the final reduction does.
    /// Survivors are reduced to the least `(score, enumeration index)`,
    /// which reproduces the exhaustive argmin's first-minimal tie-break.
    pub(crate) fn evaluate_pruned<B: crate::SearchBounder + ?Sized>(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selections: &[Vec<usize>],
        bounder: &B,
        token: Option<&CancelToken>,
    ) -> PrunedWalk {
        if selections.is_empty() {
            return Ok((None, PrefixStats::default()));
        }
        let depth = resolve_subtree_depth(selections);
        let mut search = PrefixSearch::new(self, plans, token);
        let mut incumbent = Incumbent::new();

        // Seed: finish and score the preferred selection first. It usually
        // wins, so every group is bounded against a near-final incumbent.
        if let Some(reason) = hooks::injected_stall(token) {
            return Err(SynthesisError::Cancelled(reason));
        }
        search
            .walk_to(&selections[0])
            .map_err(SynthesisError::Cancelled)?;
        let seed = self.materialize_candidate(base, plans, &selections[0]);
        if let Some(finished) = search.finish_leaf(seed) {
            let score = bounder.exact_score(&finished);
            incumbent.offer(score, 0, finished, &mut search.stats);
        }

        // Ops still open below the split depth: the prefix bound of a group
        // leaves exactly these undecided.
        let undecided: Vec<hexcute_ir::OpId> = plans.iter().skip(depth).map(|p| p.op).collect();
        for group in subtree_groups(&selections[1..], depth) {
            // Prefix bound: one probe for the whole group (its members share
            // the first `depth` choices, which is all the bound reads — the
            // suffix ops are passed as undecided).
            if group.len() > 1 && !undecided.is_empty() {
                if let Some(reason) = hooks::poll_cancelled(token) {
                    return Err(SynthesisError::Cancelled(reason));
                }
                let probe = self.materialize_candidate(base, plans, &selections[group[0] + 1]);
                search.stats.bound_evaluations += 1;
                if incumbent.prunes(bounder.completion_bound(&probe, &undecided), group[0] + 1) {
                    search.stats.subtrees_cut += 1;
                    search.stats.selections_pruned += group.len();
                    continue;
                }
            }
            for idx in group {
                let index = idx + 1;
                let sel = &selections[index];
                if let Some(reason) = hooks::injected_stall(token) {
                    return Err(SynthesisError::Cancelled(reason));
                }
                if let Some(reason) = hooks::poll_cancelled(token) {
                    return Err(SynthesisError::Cancelled(reason));
                }
                // Leaf bound: fully decided. Admissible for both ways the
                // leaf can finish — as materialized, or through the
                // all-plans scalar degradation — so a cut leaf cannot hide
                // a winner.
                let candidate = self.materialize_candidate(base, plans, sel);
                search.stats.bound_evaluations += 1;
                if incumbent.prunes(bounder.completion_bound(&candidate, &[]), index) {
                    search.stats.selections_pruned += 1;
                    continue;
                }
                search.walk_to(sel).map_err(SynthesisError::Cancelled)?;
                if let Some(finished) = search.finish_leaf(candidate) {
                    let score = bounder.exact_score(&finished);
                    incumbent.offer(score, index, finished, &mut search.stats);
                }
            }
        }
        Ok((
            incumbent
                .best
                .map(|(score, idx, candidate)| (idx, candidate, score)),
            search.stats,
        ))
    }
}

/// The pruned walk's running result: the incumbent pair bounds are compared
/// against, and the best finished leaf.
struct Incumbent {
    /// The least `(score, index)` offered so far; `(+∞, usize::MAX)` before
    /// the first offer, so nothing is pruned until a leaf is scored (a `NaN`
    /// score sorts above `+∞` and never lowers it).
    bar: (f64, usize),
    /// The least finished `(score, index, candidate)` under [`lex_less`].
    best: Option<(f64, usize, Candidate)>,
}

impl Incumbent {
    fn new() -> Self {
        Incumbent {
            bar: (f64::INFINITY, usize::MAX),
            best: None,
        }
    }

    /// Records a scored leaf, counting it and any lowering of the bar.
    fn offer(&mut self, score: f64, index: usize, candidate: Candidate, stats: &mut PrefixStats) {
        stats.candidates_scored += 1;
        if lex_less((score, index), self.bar) {
            self.bar = (score, index);
            stats.incumbent_updates += 1;
        }
        if self
            .best
            .as_ref()
            .is_none_or(|(s, i, _)| lex_less((score, index), (*s, *i)))
        {
            self.best = Some((score, index, candidate));
        }
    }

    /// Whether a group (or leaf) starting at `first_index` whose completions
    /// score at least `bound` can be cut: its `(bound, first_index)` pair
    /// is strictly above the bar. A strictly larger bound can never win, and
    /// an *equal* bound from a later index can only tie on score and then
    /// loses the first-minimal tie-break.
    fn prunes(&self, bound: f64, first_index: usize) -> bool {
        lex_less(self.bar, (bound, first_index))
    }
}

/// Result of the pruned walk: the winning `(enumeration index, candidate,
/// score)` triple, when any leaf finished, plus the walk counters.
type PrunedWalk = Result<(Option<(usize, Candidate, f64)>, PrefixStats), SynthesisError>;

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::DType;
    use hexcute_ir::KernelBuilder;
    use hexcute_layout::Layout as IrLayout;

    /// Builds a small program just to obtain real (dense) tensor ids.
    fn some_tensor_ids(n: usize) -> Vec<TensorId> {
        let mut kb = KernelBuilder::new("interner_fixture", 128);
        (0..n)
            .map(|i| {
                kb.global_view(
                    format!("t{i}"),
                    DType::F16,
                    IrLayout::row_major(&[8, 8]),
                    &[8, 8],
                )
            })
            .collect()
    }

    #[test]
    fn interner_assigns_dense_slots_in_insertion_order() {
        let ids = some_tensor_ids(4);
        // Intern out of order, with a duplicate.
        let interner = TensorSlotInterner::new([ids[2], ids[0], ids[2], ids[3]]);
        assert_eq!(interner.len(), 3);
        assert_eq!(interner.slot(ids[2]), Some(0));
        assert_eq!(interner.slot(ids[0]), Some(1));
        assert_eq!(interner.slot(ids[3]), Some(2));
        assert_eq!(interner.slot(ids[1]), None, "never interned");
        // Both directions agree.
        for slot in 0..interner.len() as u32 {
            assert_eq!(interner.slot(interner.tensor(slot)), Some(slot));
        }
        assert_eq!(interner.tensors(), &[ids[2], ids[0], ids[3]]);
    }

    #[test]
    fn incumbent_prunes_only_pairs_strictly_above_the_bar() {
        let mut incumbent = Incumbent::new();
        assert!(
            !incumbent.prunes(f64::INFINITY, 0),
            "nothing is pruned before a leaf is scored"
        );
        incumbent.bar = (10.0, 5);
        assert!(incumbent.prunes(10.5, 0));
        assert!(
            incumbent.prunes(10.0, 6),
            "an equal bound from a later index loses the tie-break"
        );
        assert!(!incumbent.prunes(10.0, 4));
        assert!(!incumbent.prunes(9.0, 99));
        assert!(
            !lex_less((f64::NAN, 0), (f64::INFINITY, usize::MAX)),
            "NaN sorts above every real score and never lowers the bar"
        );
    }

    #[test]
    fn interner_is_idempotent_and_growable() {
        let ids = some_tensor_ids(3);
        let mut interner = TensorSlotInterner::default();
        assert!(interner.is_empty());
        let s0 = interner.intern(ids[1]);
        assert_eq!(interner.intern(ids[1]), s0, "re-interning keeps the slot");
        let s1 = interner.intern(ids[0]);
        assert_ne!(s0, s1);
        assert_eq!(interner.len(), 2);
    }
}
