//! The thread-value layout synthesis engine (Algorithm 1 of the paper) and
//! the DFS candidate enumeration of Section IV-B.

use std::collections::BTreeMap;

use hexcute_arch::{
    copy_candidates, ldmatrix_layouts, mma_candidates_sorted, mma_m16n8k16, CopyAtom, CopyKind,
    DType, GpuArch, MemSpace,
};
use hexcute_ir::{Op, OpId, OpKind, Program, TensorId};
use hexcute_layout::{Layout, RepeatMode, TvLayout};
use hexcute_parallel::cancel::CancelToken;

use crate::choice::{Candidate, CopyChoice, MmaChoice, RearrangeFix};
use crate::constraints::{collapse_dim, contiguous_run_along, same_distribution};
use crate::error::{Result, SynthesisError};
use crate::hooks;
use crate::options::SynthesisOptions;
use crate::smem::synthesize_smem_layouts;

/// The result of a (possibly budgeted) synthesis search.
///
/// The deterministic node budget ([`SynthesisOptions::node_budget`]) bounds
/// how many selections the enumeration evaluates by truncating the
/// deterministic selection list *before* the walk starts, so a truncated
/// outcome is bit-identical for [`Synthesizer::synthesize_outcome`] and
/// [`Synthesizer::synthesize_reference`] alike. Contrast with wall-clock
/// cancellation, which yields a typed [`SynthesisError::Cancelled`] and
/// never a partial result.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisOutcome {
    /// The full enumeration was evaluated.
    Complete(Vec<Candidate>),
    /// The node budget truncated the enumeration; these are the candidates
    /// finished within the budget (in enumeration order, preferred first).
    Truncated {
        /// Candidates finished before the budget ran out.
        best_so_far: Vec<Candidate>,
    },
}

impl SynthesisOutcome {
    /// The finished candidates, complete or not.
    pub fn candidates(&self) -> &[Candidate] {
        match self {
            SynthesisOutcome::Complete(c) => c,
            SynthesisOutcome::Truncated { best_so_far } => best_so_far,
        }
    }

    /// Consumes the outcome, returning the finished candidates.
    pub fn into_candidates(self) -> Vec<Candidate> {
        match self {
            SynthesisOutcome::Complete(c) => c,
            SynthesisOutcome::Truncated { best_so_far } => best_so_far,
        }
    }

    /// Whether the node budget truncated the search.
    pub fn is_truncated(&self) -> bool {
        matches!(self, SynthesisOutcome::Truncated { .. })
    }
}

/// The layout synthesis engine: produces candidate programs for a tile-level
/// program on a target architecture.
///
/// ```
/// use hexcute_arch::{DType, GpuArch};
/// use hexcute_ir::KernelBuilder;
/// use hexcute_layout::Layout;
/// use hexcute_synthesis::{SynthesisOptions, Synthesizer};
///
/// let mut kb = KernelBuilder::new("roundtrip", 128);
/// let src = kb.global_view("src", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
/// let dst = kb.global_view("dst", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
/// let tile = kb.register_tensor("tile", DType::F16, &[64, 64]);
/// kb.copy(src, tile);
/// kb.copy(tile, dst);
/// let program = kb.build()?;
///
/// let arch = GpuArch::a100();
/// let synthesizer = Synthesizer::new(&program, &arch, SynthesisOptions::default());
/// let preferred = synthesizer.synthesize_preferred()?;
/// assert!(preferred.tv_layouts.contains_key(&tile));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Synthesizer<'a> {
    program: &'a Program,
    arch: &'a GpuArch,
    options: SynthesisOptions,
}

/// The result of thread-value synthesis before instruction enumeration. The
/// whole search shares one `TvBase`: it is the root of the prefix tree.
#[derive(Debug, Clone)]
pub(crate) struct TvBase {
    pub(crate) tv: BTreeMap<TensorId, TvLayout>,
    pub(crate) mma: BTreeMap<OpId, MmaChoice>,
    pub(crate) rearranges: Vec<RearrangeFix>,
    pub(crate) notes: Vec<String>,
}

/// The instruction alternatives available for one copy operation.
#[derive(Debug, Clone)]
pub(crate) struct CopyPlan {
    pub(crate) op: OpId,
    pub(crate) tile_elems: usize,
    pub(crate) vector_dim: usize,
    /// Valid alternatives, widest first: (atom, elements per thread).
    pub(crate) alternatives: Vec<(CopyAtom, usize)>,
    pub(crate) coverage: TvLayout,
}

impl<'a> Synthesizer<'a> {
    /// Creates a synthesizer for the program on the given architecture.
    pub fn new(program: &'a Program, arch: &'a GpuArch, options: SynthesisOptions) -> Self {
        Synthesizer {
            program,
            arch,
            options,
        }
    }

    /// The program being synthesized.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The target architecture.
    pub(crate) fn arch(&self) -> &GpuArch {
        self.arch
    }

    /// The active search options.
    pub(crate) fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Runs the full synthesis: thread-value layouts, instruction selection
    /// (expanding the search tree into candidates) and shared-memory layout
    /// synthesis for every candidate.
    ///
    /// The first returned candidate is the preferred one (widest
    /// instructions); the remainder are the alternatives explored by the
    /// search tree, ending with the all-scalar fallback.
    /// `max_candidates` bounds the number of *finished* candidates: the
    /// enumeration itself is never truncated, so a workload whose first
    /// selections are all shared-memory-infeasible still reaches the feasible
    /// ones further down the tree.
    ///
    /// The candidates are evaluated incrementally along shared choice
    /// prefixes (see [`crate::prefix`]); [`Synthesizer::synthesize_reference`]
    /// re-evaluates every candidate from scratch and produces bit-identical
    /// results.
    ///
    /// # Errors
    ///
    /// Returns an error when the program cannot be mapped at all (e.g. no
    /// Tensor Core instruction for the operand types).
    pub fn synthesize(&self) -> Result<Vec<Candidate>> {
        Ok(self.synthesize_with_stats()?.0)
    }

    /// [`Synthesizer::synthesize`] plus the prefix-sharing counters (see
    /// [`crate::prefix::PrefixStats`]), which are always present here and
    /// absent from [`Synthesizer::synthesize_reference`].
    ///
    /// # Errors
    ///
    /// Same as [`Synthesizer::synthesize`].
    pub fn synthesize_with_stats(
        &self,
    ) -> Result<(Vec<Candidate>, Option<crate::prefix::PrefixStats>)> {
        let (outcome, stats) = self.synthesize_outcome(None)?;
        Ok((outcome.into_candidates(), stats))
    }

    /// The full synthesis with both bounding mechanisms exposed: the
    /// deterministic node budget of [`SynthesisOptions::node_budget`]
    /// (reported as [`SynthesisOutcome::Truncated`]) and an optional
    /// wall-clock [`CancelToken`] polled cooperatively at row granularity by
    /// the walks.
    ///
    /// # Errors
    ///
    /// Same as [`Synthesizer::synthesize`], plus
    /// [`SynthesisError::Cancelled`] when `token` trips mid-search —
    /// cancellation never yields a partial candidate list.
    pub fn synthesize_outcome(
        &self,
        token: Option<&CancelToken>,
    ) -> Result<(SynthesisOutcome, Option<crate::prefix::PrefixStats>)> {
        self.search(token, true)
    }

    /// The re-evaluating reference for [`Synthesizer::synthesize_outcome`]:
    /// the same thread-value solve, copy plans and node-budget truncation,
    /// then every candidate is materialized and its shared-memory layouts are
    /// synthesized from scratch, without a prefix tree (so the stats are
    /// `None`). Bit-identical to the incremental walk; kept for
    /// cross-checking and before/after measurements.
    ///
    /// # Errors
    ///
    /// Same as [`Synthesizer::synthesize_outcome`].
    pub fn synthesize_reference(
        &self,
        token: Option<&CancelToken>,
    ) -> Result<(SynthesisOutcome, Option<crate::prefix::PrefixStats>)> {
        self.search(token, false)
    }

    /// The selection list every search walks: the deterministic enumeration,
    /// truncated by the node budget *before* any walk starts, which is what
    /// makes a truncated outcome bit-identical across the walks. (A budget
    /// of 0 is clamped to 1: the preferred selection always runs.) Returns
    /// the selections and whether the budget truncated them.
    fn budgeted_selections(&self, plans: &[CopyPlan]) -> (Vec<Vec<usize>>, bool) {
        let mut selections = self.enumerate_selections(plans);
        let truncated = match self.options.node_budget {
            Some(budget) if selections.len() > budget.max(1) => {
                selections.truncate(budget.max(1));
                true
            }
            _ => false,
        };
        (selections, truncated)
    }

    /// The body of [`Synthesizer::synthesize_outcome`] (`incremental`) and
    /// [`Synthesizer::synthesize_reference`].
    fn search(
        &self,
        token: Option<&CancelToken>,
        incremental: bool,
    ) -> Result<(SynthesisOutcome, Option<crate::prefix::PrefixStats>)> {
        let base = self.solve_tv()?;
        let plans = self.build_copy_plans(&base)?;
        let (selections, truncated) = self.budgeted_selections(&plans);
        let max = self.options.max_candidates.max(1);
        let (finished, stats) = if incremental {
            let (finished, stats) = self.walk_serial(&base, &plans, &selections, max, token)?;
            (finished, Some(stats))
        } else {
            (
                self.evaluate_reference(&base, &plans, &selections, max, token)?,
                None,
            )
        };
        if finished.is_empty() {
            return Err(SynthesisError::NoCandidates);
        }
        let outcome = if truncated {
            SynthesisOutcome::Truncated {
                best_so_far: finished,
            }
        } else {
            SynthesisOutcome::Complete(finished)
        };
        Ok((outcome, stats))
    }

    /// The reference evaluation: every candidate is materialized and its
    /// shared-memory layouts are synthesized from scratch. `token` (when
    /// carried) cancels cooperatively, per candidate — a tripped token
    /// yields [`SynthesisError::Cancelled`].
    pub(crate) fn evaluate_reference(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selections: &[Vec<usize>],
        max: usize,
        token: Option<&CancelToken>,
    ) -> Result<Vec<Candidate>> {
        // Shared-memory synthesis; drop candidates whose constraints cannot
        // be satisfied even after falling back.
        let finish = |mut candidate: Candidate| -> Option<Candidate> {
            match synthesize_smem_layouts(self.program, self.arch, &self.options, &mut candidate) {
                Ok(()) => Some(candidate),
                Err(_) => {
                    // Degrade every shared-memory copy to its scalar
                    // alternative and retry once (Section V: "the compiler
                    // falls back to scalar instructions").
                    let mut fallback = candidate.clone();
                    degrade_to_scalar(plans, &mut fallback);
                    if synthesize_smem_layouts(
                        self.program,
                        self.arch,
                        &self.options,
                        &mut fallback,
                    )
                    .is_ok()
                    {
                        fallback
                            .notes
                            .push("fell back to scalar copies for shared memory".to_string());
                        Some(fallback)
                    } else {
                        None
                    }
                }
            }
        };
        let mut finished = Vec::new();
        for sel in selections {
            if finished.len() >= max {
                break;
            }
            if let Some(reason) = hooks::injected_stall(token) {
                return Err(SynthesisError::Cancelled(reason));
            }
            if let Some(reason) = hooks::poll_cancelled(token) {
                return Err(SynthesisError::Cancelled(reason));
            }
            if let Some(done) = finish(self.materialize_candidate(base, plans, sel)) {
                finished.push(done);
            }
        }
        Ok(finished)
    }

    /// Convenience wrapper returning only the preferred candidate.
    ///
    /// # Errors
    ///
    /// Same as [`Synthesizer::synthesize`].
    pub fn synthesize_preferred(&self) -> Result<Candidate> {
        Ok(self.synthesize()?.remove(0))
    }

    // ------------------------------------------------------------------
    // Thread-value layout synthesis (Algorithm 1).
    // ------------------------------------------------------------------

    pub(crate) fn solve_tv(&self) -> Result<TvBase> {
        let mut base = TvBase {
            tv: BTreeMap::new(),
            mma: BTreeMap::new(),
            rearranges: Vec::new(),
            notes: Vec::new(),
        };
        let components = self.program.register_connected_components();
        for component in &components {
            let ops: Vec<&Op> = component.iter().map(|id| self.program.op(*id)).collect();
            let gemms: Vec<&Op> = ops
                .iter()
                .copied()
                .filter(|op| matches!(op.kind, OpKind::Gemm { .. }))
                .collect();
            if !gemms.is_empty() {
                for gemm in &gemms {
                    self.anchor_gemm(gemm, &mut base)?;
                }
            } else if let Some(anchor) = self.largest_copy(&ops) {
                self.anchor_copy(anchor, &mut base)?;
            }
            self.propagate(&ops, &mut base)?;
            // Assign coalesced layouts to register tensors that are only
            // constrained by memory copies, then propagate once more.
            self.assign_remaining(&ops, &mut base)?;
            self.propagate(&ops, &mut base)?;
        }
        Ok(base)
    }

    /// Algorithm 1, lines 6-12: anchor a `gemm`, pick the fastest Tensor Core
    /// instruction, tile C with it, and solve the A and B layouts.
    fn anchor_gemm(&self, op: &Op, base: &mut TvBase) -> Result<()> {
        let OpKind::Gemm { c, a, b } = op.kind else {
            unreachable!("anchor_gemm on non-gemm")
        };
        let (ta, tb, tc) = (
            self.program.tensor(a),
            self.program.tensor(b),
            self.program.tensor(c),
        );
        let operands_in_smem = ta.space == MemSpace::Shared && tb.space == MemSpace::Shared;
        let allow_wgmma = self.options.allow_wgmma && self.arch.has_wgmma && operands_in_smem;
        let atoms = mma_candidates_sorted(self.arch, ta.dtype, tb.dtype, tc.dtype, allow_wgmma);
        if atoms.is_empty() {
            return Err(SynthesisError::NoMmaInstruction {
                requested: format!("{} x {} -> {}", ta.dtype, tb.dtype, tc.dtype),
            });
        }

        // Walk the atoms from the fastest down until one tiles the operation.
        let (bm, bn) = (tc.shape[0], tc.shape[1]);
        let bk = ta.shape[1];
        let mut selected = None;
        for atom in &atoms {
            let units = (self.program.threads_per_block / atom.threads).max(1);
            if bk % atom.k != 0 {
                continue;
            }
            if let Some(grid) = choose_unit_grid(bm, bn, atom.m, atom.n, units) {
                selected = Some((atom.clone(), grid));
                break;
            }
        }
        let Some((atom, (unit_m, unit_n))) = selected else {
            let fastest = &atoms[0];
            if bk % fastest.k != 0 {
                return Err(SynthesisError::BadKExtent {
                    tile_k: bk,
                    instruction_k: fastest.k,
                });
            }
            return Err(SynthesisError::NoWarpTiling {
                tile: (bm, bn),
                instruction: (fastest.m, fastest.n),
                units: (self.program.threads_per_block / fastest.threads).max(1),
            });
        };
        let (rep_m, rep_n, rep_k) = (bm / (atom.m * unit_m), bn / (atom.n * unit_n), bk / atom.k);

        let fc = atom.c.expand(
            &[RepeatMode::along(unit_m, 0), RepeatMode::along(unit_n, 1)],
            &[RepeatMode::along(rep_m, 0), RepeatMode::along(rep_n, 1)],
        )?;
        let fa = atom.a.expand(
            &[RepeatMode::along(unit_m, 0), RepeatMode::broadcast(unit_n)],
            &[RepeatMode::along(rep_m, 0), RepeatMode::along(rep_k, 1)],
        )?;
        let fb = atom.b.expand(
            &[RepeatMode::broadcast(unit_m), RepeatMode::along(unit_n, 0)],
            &[RepeatMode::along(rep_n, 0), RepeatMode::along(rep_k, 1)],
        )?;

        if atom.a.is_exclusive() && atom.b.is_exclusive() && atom.c.is_exclusive() {
            debug_assert!(crate::constraints::gemm_constraint_holds(
                &fa, &fb, &fc, &atom
            ));
        }

        if tc.space == MemSpace::Register {
            self.assign(c, fc, base);
        }
        if ta.space == MemSpace::Register {
            self.assign(a, fa, base);
        }
        if tb.space == MemSpace::Register {
            self.assign(b, fb, base);
        }
        base.mma.insert(
            op.id,
            MmaChoice {
                atom,
                unit_m,
                unit_n,
                invocations: rep_m * rep_n * rep_k,
            },
        );
        Ok(())
    }

    /// Algorithm 1, lines 14-16: pick the copy transferring the most data as
    /// the anchor and construct its layout by coalescing memory accesses.
    fn largest_copy<'b>(&self, ops: &[&'b Op]) -> Option<&'b Op> {
        ops.iter()
            .copied()
            .filter(|op| matches!(op.kind, OpKind::Copy { .. }))
            .max_by_key(|op| {
                let OpKind::Copy { src, dst } = op.kind else {
                    return 0;
                };
                let s = self.program.tensor(src);
                let d = self.program.tensor(dst);
                s.num_bytes().max(d.num_bytes())
            })
    }

    fn anchor_copy(&self, op: &Op, base: &mut TvBase) -> Result<()> {
        let OpKind::Copy { src, dst } = op.kind else {
            unreachable!("anchor_copy on non-copy")
        };
        let (s, d) = (self.program.tensor(src), self.program.tensor(dst));
        let register_side = if d.space == MemSpace::Register {
            Some(dst)
        } else if s.space == MemSpace::Register {
            Some(src)
        } else {
            None
        };
        let Some(reg) = register_side else {
            return Ok(());
        };
        if base.tv.contains_key(&reg) {
            return Ok(());
        }
        let mem = if reg == dst { s } else { d };
        let reg_decl = self.program.tensor(reg);
        let tile = reg_decl.tile_shape_2d();
        let (vector_dim, mem_run) = self.memory_contiguity(mem.id, &tile);
        let max_bytes = 16usize;
        let vec = vector_elems(reg_decl.dtype, mem_run, max_bytes, &tile, vector_dim);
        let tv = coalesced_tv(&tile, vector_dim, self.program.threads_per_block, vec)?;
        self.assign(reg, tv, base);
        Ok(())
    }

    /// Which tile dimension of `tensor` is contiguous in memory and how long
    /// the contiguous run is (in elements). Shared tensors, whose layout is
    /// synthesized later, are unconstrained and report the full extent of the
    /// requested dimension.
    fn memory_contiguity(&self, tensor: TensorId, tile: &[usize]) -> (usize, usize) {
        let decl = self.program.tensor(tensor);
        match (&decl.global_layout, decl.space) {
            (Some(layout), MemSpace::Global) => {
                // Find the tile dimension whose top-level mode has stride 1.
                let rank = layout.rank().min(tile.len());
                for (d, &extent) in tile.iter().enumerate().take(rank) {
                    let mode = layout.mode(d);
                    let modes = mode.coalesce().flat_modes();
                    if let Some(&(_, stride)) = modes.first() {
                        if stride == 1 {
                            return (d, extent);
                        }
                    }
                }
                (0, 1)
            }
            _ => (0, tile.first().copied().unwrap_or(1)),
        }
    }

    /// Fixpoint propagation of the equality-style constraints (copy between
    /// registers, cast, elementwise, reduce).
    fn propagate(&self, ops: &[&Op], base: &mut TvBase) -> Result<()> {
        let mut changed = true;
        let mut guard = 0usize;
        while changed && guard < ops.len() + 8 {
            changed = false;
            guard += 1;
            for op in ops {
                match &op.kind {
                    OpKind::Copy { src, dst } => {
                        let (s, d) = (self.program.tensor(*src), self.program.tensor(*dst));
                        // Register-to-register copies with identical shapes
                        // propagate distributions; shape-changing copies
                        // (e.g. logical transposes) leave both ends free.
                        if s.space == MemSpace::Register
                            && d.space == MemSpace::Register
                            && s.shape == d.shape
                        {
                            changed |= self.propagate_equal(*src, *dst, base);
                        }
                    }
                    OpKind::Cast { src, dst } => {
                        changed |= self.propagate_equal(*src, *dst, base);
                    }
                    OpKind::Dequant { src, dst, .. } => {
                        // Like cast: the dequantized tensor keeps the source
                        // distribution, so the unpack + arithmetic stay
                        // within each thread's own lanes (no exchange). The
                        // scale/zero tensors have their own (smaller) shapes
                        // and are constrained by their memory copies instead.
                        changed |= self.propagate_equal(*src, *dst, base);
                    }
                    OpKind::Elementwise { inputs, output, .. } => {
                        changed |= self.propagate_elementwise(inputs, *output, base)?;
                    }
                    OpKind::Reduce { src, dst, dim, .. } => {
                        if let (Some(f), false) =
                            (base.tv.get(src).cloned(), base.tv.contains_key(dst))
                        {
                            let collapsed = collapse_dim(&f, *dim)?;
                            self.assign(*dst, collapsed, base);
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Equality constraint between two register tensors: if exactly one side
    /// is known, assign the other; if both are known and disagree, record a
    /// rearrange.
    fn propagate_equal(&self, a: TensorId, b: TensorId, base: &mut TvBase) -> bool {
        match (base.tv.get(&a).cloned(), base.tv.get(&b).cloned()) {
            (Some(la), None) => {
                self.assign(b, la, base);
                true
            }
            (None, Some(lb)) => {
                self.assign(a, lb, base);
                true
            }
            (Some(la), Some(lb)) => {
                // Both ends already constrained: if the distributions differ,
                // a register-layout conversion is required (Fig. 9 scenario).
                if !same_distribution(&la, &lb)
                    && !base
                        .rearranges
                        .iter()
                        .any(|r| r.tensor == b || r.tensor == a)
                {
                    let decl = self.program.tensor(b);
                    base.rearranges.push(RearrangeFix {
                        tensor: b,
                        producer: la,
                        consumer: lb,
                        bytes: decl.num_bytes(),
                    });
                    base.notes.push(format!(
                        "inserted rearrange between {} and {} (conflicting thread-value layouts)",
                        self.program.tensor(a).name,
                        decl.name
                    ));
                }
                false
            }
            _ => false,
        }
    }

    fn propagate_elementwise(
        &self,
        inputs: &[TensorId],
        output: TensorId,
        base: &mut TvBase,
    ) -> Result<bool> {
        let out_decl = self.program.tensor(output);
        // Find a known layout among the output and the same-shaped inputs.
        let mut known: Option<TvLayout> = base.tv.get(&output).cloned();
        if known.is_none() {
            for &i in inputs {
                if self.program.tensor(i).shape == out_decl.shape {
                    if let Some(l) = base.tv.get(&i) {
                        known = Some(l.clone());
                        break;
                    }
                }
            }
        }
        let Some(layout) = known else {
            return Ok(false);
        };
        let mut changed = false;
        if !base.tv.contains_key(&output) {
            self.assign(output, layout.clone(), base);
            changed = true;
        }
        for &i in inputs {
            if base.tv.contains_key(&i) {
                continue;
            }
            let decl = self.program.tensor(i);
            if decl.shape == out_decl.shape {
                self.assign(i, layout.clone(), base);
                changed = true;
            } else {
                // Broadcast input: collapse every dimension where the input
                // extent is 1 but the output extent is larger.
                let mut collapsed = layout.clone();
                for (dim, (&is, &os)) in decl.shape.iter().zip(out_decl.shape.iter()).enumerate() {
                    if is == 1 && os > 1 {
                        collapsed = collapse_dim(&collapsed, dim)?;
                    }
                }
                self.assign(i, collapsed, base);
                changed = true;
            }
        }
        Ok(changed)
    }

    /// Assign coalesced layouts to register tensors that only participate in
    /// memory copies and remained unconstrained after propagation.
    ///
    /// Copies whose peer lives in *global* memory are processed first: the
    /// global layout is fixed by the user, so coalescing against it is the
    /// binding constraint, while shared-memory layouts adapt afterwards.
    fn assign_remaining(&self, ops: &[&Op], base: &mut TvBase) -> Result<()> {
        let mut passes: [Vec<(hexcute_ir::TensorId, hexcute_ir::TensorId)>; 2] =
            [Vec::new(), Vec::new()];
        for op in ops {
            if let OpKind::Copy { src, dst } = op.kind {
                for tensor in [src, dst] {
                    let decl = self.program.tensor(tensor);
                    if decl.space == MemSpace::Register {
                        let other = if tensor == src { dst } else { src };
                        let pass = if self.program.tensor(other).space == MemSpace::Global {
                            0
                        } else {
                            1
                        };
                        passes[pass].push((tensor, other));
                    }
                }
            }
        }
        for pass in &passes {
            for &(tensor, other) in pass {
                if base.tv.contains_key(&tensor) {
                    continue;
                }
                let decl = self.program.tensor(tensor);
                let tile = decl.tile_shape_2d();
                let (dim, run) = self.memory_contiguity(other, &tile);
                let vec = vector_elems(decl.dtype, run, 16, &tile, dim);
                let tv = coalesced_tv(&tile, dim, self.program.threads_per_block, vec)?;
                self.assign(tensor, tv, base);
            }
            // Propagate after the global-peer pass so downstream equality
            // constraints see the coalesced layouts before the shared-memory
            // pass invents its own.
            self.propagate(ops, base)?;
        }
        // Any register tensor still unknown (pure elementwise chains without
        // anchors): default contiguous distribution.
        for op in ops {
            for tensor in op.operands() {
                let decl = self.program.tensor(tensor);
                if decl.space == MemSpace::Register && !base.tv.contains_key(&tensor) {
                    let tile = decl.tile_shape_2d();
                    let vec = vector_elems(decl.dtype, tile[0], 16, &tile, 0);
                    let tv = coalesced_tv(&tile, 0, self.program.threads_per_block, vec)?;
                    self.assign(tensor, tv, base);
                }
            }
        }
        Ok(())
    }

    fn assign(&self, tensor: TensorId, layout: TvLayout, base: &mut TvBase) {
        if let Some(existing) = base.tv.get(&tensor) {
            if !same_distribution(existing, &layout) {
                let decl = self.program.tensor(tensor);
                base.rearranges.push(RearrangeFix {
                    tensor,
                    producer: existing.clone(),
                    consumer: layout,
                    bytes: decl.num_bytes(),
                });
                base.notes.push(format!(
                    "inserted rearrange for {} (conflicting thread-value layouts)",
                    decl.name
                ));
            }
            return;
        }
        base.tv.insert(tensor, layout);
    }

    // ------------------------------------------------------------------
    // Instruction selection / search tree expansion.
    // ------------------------------------------------------------------

    pub(crate) fn build_copy_plans(&self, base: &TvBase) -> Result<Vec<CopyPlan>> {
        let mut plans = Vec::new();
        for op in self.program.ops() {
            let OpKind::Copy { src, dst } = op.kind else {
                continue;
            };
            let (s, d) = (self.program.tensor(src), self.program.tensor(dst));
            if s.space == MemSpace::Register && d.space == MemSpace::Register {
                // Register-to-register moves need no memory instruction; the
                // cost model charges them as cheap SIMT moves.
                continue;
            }
            let dtype = s.dtype;
            let _ = &dtype;
            let tile = if s.space == MemSpace::Register {
                s.tile_shape_2d()
            } else {
                d.tile_shape_2d()
            };
            let tile_elems: usize = tile.iter().product();

            // The register side (if any) bounds the usable vector width.
            let reg_layout = if d.space == MemSpace::Register {
                base.tv.get(&dst)
            } else if s.space == MemSpace::Register {
                base.tv.get(&src)
            } else {
                None
            };
            let mem_side = if s.space != MemSpace::Register {
                src
            } else {
                dst
            };
            let (mem_dim, mem_run) = self.memory_contiguity(mem_side, &tile);
            let (vector_dim, reg_run) = match reg_layout {
                Some(f) => {
                    if self.program.tensor(mem_side).space == MemSpace::Global {
                        (mem_dim, contiguous_run_along(f, mem_dim))
                    } else {
                        // Shared side adapts to the register layout: pick the
                        // register tensor's best dimension.
                        let best = (0..tile.len())
                            .max_by_key(|&dim| contiguous_run_along(f, dim))
                            .unwrap_or(0);
                        (best, contiguous_run_along(f, best))
                    }
                }
                None => (mem_dim, usize::MAX),
            };
            let max_elems =
                reg_run.min(if self.program.tensor(mem_side).space == MemSpace::Global {
                    mem_run
                } else {
                    usize::MAX
                });

            let mut alternatives: Vec<(CopyAtom, usize)> = Vec::new();
            for atom in copy_candidates(self.arch, s.space, d.space) {
                if !self.atom_allowed(&atom) {
                    continue;
                }
                match atom.kind {
                    CopyKind::Tma => {
                        // TMA needs a 128-byte-aligned contiguous run in
                        // global memory; Hexcute pairs it with warp
                        // specialization (a producer warp issues the copy).
                        if dtype.bytes_for(mem_run) >= 128
                            && reg_layout.is_none()
                            && self.program.schedule.warp_specialized
                        {
                            alternatives.push((atom, dtype.elements_per_bytes(128)));
                        }
                    }
                    CopyKind::LdMatrix { matrices } => {
                        if let Some(f) = reg_layout {
                            if let Some(frag_values) = ldmatrix_match(f, matrices) {
                                alternatives.push((atom, frag_values));
                            }
                        }
                    }
                    CopyKind::Unpack => {
                        // Unpack loads only apply to packed sub-byte tensors
                        // being expanded into a register fragment (the W4A16
                        // weight path). Like Marlin's offline weight
                        // permutation, the *shared* layout adapts so each
                        // thread's packed nibbles are stored consecutively;
                        // the filter is therefore the thread's lane count,
                        // not the fragment's tile contiguity.
                        if dtype.is_sub_byte() {
                            if let Some(f) = reg_layout {
                                let elems = atom.elements_per_thread(dtype).max(1);
                                if f.values_per_thread() >= elems {
                                    alternatives.push((atom, elems));
                                }
                            }
                        }
                    }
                    _ => {
                        let elems = atom.elements_per_thread(dtype).max(1);
                        if elems <= max_elems && tile[vector_dim] % elems.min(tile[vector_dim]) == 0
                        {
                            alternatives.push((atom, elems));
                        }
                    }
                }
            }
            // Deduplicate by element width, keep the first (preferred) atom
            // for each width; always keep a scalar fallback.
            alternatives.sort_by(|x, y| {
                y.1.cmp(&x.1)
                    .then_with(|| copy_kind_rank(&x.0).cmp(&copy_kind_rank(&y.0)))
            });
            alternatives.dedup_by_key(|alt| alt.1);
            if alternatives.is_empty() {
                // Guaranteed fallback: one element per thread per instruction.
                let scalars = copy_candidates(self.arch, s.space, d.space);
                if let Some(atom) = scalars.into_iter().min_by_key(|a| a.bytes_per_thread) {
                    alternatives.push((atom, 1));
                }
            }
            if self.options.force_scalar_copies {
                if let Some(last) = alternatives.last().cloned() {
                    alternatives = vec![(last.0, 1)];
                }
            }

            let coverage = match reg_layout {
                Some(f) => f.clone(),
                None => {
                    let vec = alternatives
                        .first()
                        .map(|a| a.1)
                        .unwrap_or(1)
                        .min(tile[vector_dim].max(1));
                    coalesced_tv(&tile, vector_dim, self.program.threads_per_block, vec)?
                }
            };

            plans.push(CopyPlan {
                op: op.id,
                tile_elems,
                vector_dim,
                alternatives,
                coverage,
            });
        }
        Ok(plans)
    }

    fn atom_allowed(&self, atom: &CopyAtom) -> bool {
        match atom.kind {
            CopyKind::LdMatrix { .. } => {
                self.options.allow_ldmatrix && !self.options.force_scalar_copies
            }
            CopyKind::CpAsync => self.options.allow_cp_async,
            CopyKind::Unpack => self.options.allow_unpack && !self.options.force_scalar_copies,
            CopyKind::Tma => self.options.allow_tma && !self.options.force_scalar_copies,
            _ => true,
        }
    }

    /// Expands the search tree into selection vectors (one alternative index
    /// per copy plan): the preferred candidate first, then the one-at-a-time
    /// deviations in plan order, then the all-scalar fallback.
    ///
    /// `max_candidates` is deliberately *not* applied here: shared-memory
    /// feasibility filtering happens after finishing, so truncating the
    /// enumeration would return an empty set for workloads whose first
    /// `max_candidates` selections are all infeasible even though feasible
    /// candidates exist past the cutoff. The cap is applied to finished
    /// candidates only (see [`Synthesizer::synthesize`]).
    pub(crate) fn enumerate_selections(&self, plans: &[CopyPlan]) -> Vec<Vec<usize>> {
        let preferred: Vec<usize> = vec![0; plans.len()];
        let mut selections = vec![preferred.clone()];
        // One-at-a-time alternatives (the branches of the DFS tree).
        for (i, plan) in plans.iter().enumerate() {
            for j in 1..plan.alternatives.len() {
                let mut sel = preferred.clone();
                sel[i] = j;
                selections.push(sel);
            }
        }
        // All-scalar fallback (the guaranteed-valid leaf of Section V).
        if plans.iter().any(|p| p.alternatives.len() > 1) {
            let scalar: Vec<usize> = plans
                .iter()
                .map(|p| p.alternatives.len().saturating_sub(1))
                .collect();
            selections.push(scalar);
        }
        selections
    }

    pub(crate) fn materialize_candidate(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selection: &[usize],
    ) -> Candidate {
        let mut candidate = Candidate {
            tv_layouts: base.tv.clone(),
            mma_choices: base.mma.clone(),
            rearranges: base.rearranges.clone(),
            notes: base.notes.clone(),
            ..Candidate::default()
        };
        for (plan, &choice_idx) in plans.iter().zip(selection.iter()) {
            candidate
                .copy_choices
                .insert(plan.op, self.plan_choice(plan, choice_idx));
        }
        // SIMT widths for compute operations.
        for op in self.program.ops() {
            match &op.kind {
                OpKind::Cast { dst, .. }
                | OpKind::Reduce { dst, .. }
                | OpKind::Fill { dst, .. }
                | OpKind::Rearrange { dst, .. }
                | OpKind::Dequant { dst, .. }
                | OpKind::Elementwise { output: dst, .. } => {
                    let width = candidate
                        .tv_layouts
                        .get(dst)
                        .map(|l| l.values_per_thread())
                        .unwrap_or_else(|| {
                            let decl = self.program.tensor(*dst);
                            (decl.tile_elements_2d() / self.program.threads_per_block).max(1)
                        });
                    candidate.simt_widths.insert(op.id, width);
                }
                _ => {}
            }
        }
        candidate
    }

    /// The [`CopyChoice`] a selection picking alternative `choice_idx` of
    /// `plan` produces (the index is clamped like the enumeration clamps
    /// it). Shared by [`Synthesizer::materialize_candidate`] and the search
    /// space handed to bounders, so both see bit-identical choices.
    pub(crate) fn plan_choice(&self, plan: &CopyPlan, choice_idx: usize) -> CopyChoice {
        let (atom, elems) = plan.alternatives[choice_idx.min(plan.alternatives.len() - 1)].clone();
        let threads = self.program.threads_per_block;
        let per_round = if atom.kind == CopyKind::Tma {
            plan.tile_elems
        } else {
            threads * elems
        };
        let invocations = plan.tile_elems.div_ceil(per_round.max(1)).max(1);
        CopyChoice {
            atom,
            elements_per_thread: elems,
            invocations,
            vector_dim: plan.vector_dim,
            coverage: plan.coverage.clone(),
        }
    }

    /// The [`CopyChoice`] the all-plans scalar-degradation fallback
    /// substitutes for `plan` — field-for-field what [`degrade_to_scalar`]
    /// writes (its invocation count divides by the atom's thread count, not
    /// `threads * elems`, so it is *not* the scalar alternative's normal
    /// materialization).
    pub(crate) fn degraded_choice(&self, plan: &CopyPlan) -> CopyChoice {
        let mut choice = self.plan_choice(plan, plan.alternatives.len().saturating_sub(1));
        if let Some((atom, _)) = plan.alternatives.last() {
            choice.atom = atom.clone();
            choice.elements_per_thread = 1;
            choice.invocations = plan.tile_elems.div_ceil(choice.atom.threads).max(1);
        }
        choice
    }

    /// The search space of this problem — one materialized instruction menu
    /// per copy plan (see [`crate::SearchSpace`]) — for preparing a
    /// [`crate::SearchBounder`] outside the engine.
    ///
    /// # Errors
    ///
    /// Same as [`Synthesizer::synthesize`]: the thread-value solve and copy
    /// planning can fail (e.g. no Tensor Core instruction).
    pub fn search_space(&self) -> Result<crate::SearchSpace> {
        let base = self.solve_tv()?;
        let plans = self.build_copy_plans(&base)?;
        Ok(self.space_from_plans(&plans))
    }

    pub(crate) fn space_from_plans(&self, plans: &[CopyPlan]) -> crate::SearchSpace {
        crate::SearchSpace {
            plans: plans
                .iter()
                .map(|plan| crate::PlanAlternatives {
                    op: plan.op,
                    choices: (0..plan.alternatives.len())
                        .map(|j| self.plan_choice(plan, j))
                        .collect(),
                    degraded: self.degraded_choice(plan),
                })
                .collect(),
        }
    }

    /// The branch-and-bound search: enumerates the same deterministic
    /// selection list as [`Synthesizer::synthesize_outcome`] (including the
    /// node-budget truncation), but walks it best-known-first with an
    /// incumbent `(score, index)` pair, cutting every subtree and leaf whose
    /// admissible completion bound (from `bounder`) cannot beat the
    /// incumbent lexicographically — equal-bound subtrees behind the
    /// incumbent's index lose the first-minimal tie-break too. Only the
    /// winner is finished, scored and returned; in exact mode (no beam) it
    /// is **bit-identical** — candidate and score — to the argmin the
    /// exhaustive selection loop computes with the same tie-breaking
    /// (earliest enumeration index among equal scores, matching
    /// `Iterator::min_by`, which keeps the first minimal element).
    ///
    /// Returns `Ok(None)` when pruning cannot reproduce exhaustive
    /// semantics: `max_candidates` caps *finished* candidates, and a pruned
    /// walk skips leaves without learning their feasibility, so whenever the
    /// cap could bind (more selections than the cap, without a beam) the
    /// caller must fall back to the exhaustive path. With the default cap
    /// this never triggers.
    ///
    /// With [`SynthesisOptions::beam_width`] set, per-depth prefix frontiers
    /// are truncated by bound rank (stable, enumeration-ordered) before the
    /// walk — lossy but deterministic.
    ///
    /// # Errors
    ///
    /// Same as [`Synthesizer::synthesize_outcome`]: mapping failures,
    /// [`SynthesisError::NoCandidates`] when no feasible candidate exists
    /// (nothing is pruned while the incumbent is infinite, so this is
    /// equivalent to the exhaustive search finding none), and
    /// [`SynthesisError::Cancelled`] when `token` trips.
    pub fn synthesize_pruned<B: crate::SearchBounder>(
        &self,
        bounder: &mut B,
        token: Option<&CancelToken>,
    ) -> Result<Option<crate::PrunedOutcome>> {
        let base = self.solve_tv()?;
        let plans = self.build_copy_plans(&base)?;
        let (mut selections, truncated) = self.budgeted_selections(&plans);
        let beam = self.options.beam_width.map(|w| w.max(1));
        if beam.is_none() && selections.len() > self.options.max_candidates.max(1) {
            return Ok(None);
        }
        bounder.prepare(&self.space_from_plans(&plans));
        let mut beam_bound_evaluations = 0usize;
        let beamed = match beam {
            Some(width) => self.beam_filter(
                &base,
                &plans,
                &mut selections,
                width,
                &*bounder,
                &mut beam_bound_evaluations,
            ),
            None => false,
        };
        let enumerated = selections.len();
        let (winner, mut stats) =
            self.evaluate_pruned(&base, &plans, &selections, &*bounder, token)?;
        stats.bound_evaluations += beam_bound_evaluations;
        let Some((winner_index, winner, score)) = winner else {
            return Err(SynthesisError::NoCandidates);
        };
        Ok(Some(crate::PrunedOutcome {
            winner,
            score,
            winner_index,
            enumerated,
            truncated,
            beamed,
            stats,
        }))
    }

    /// Truncates each per-depth prefix frontier to the `width` prefixes with
    /// the best completion bounds. Everything is deterministic: prefixes are
    /// listed in first-occurrence
    /// (enumeration) order, ranked by `(bound, first occurrence)` under
    /// [`f64::total_cmp`], and surviving selections keep their enumeration
    /// order. Returns whether any prefix was dropped.
    fn beam_filter<B: crate::SearchBounder + ?Sized>(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selections: &mut Vec<Vec<usize>>,
        width: usize,
        bounder: &B,
        bound_evaluations: &mut usize,
    ) -> bool {
        let mut any_dropped = false;
        for depth in 1..=plans.len() {
            let mut prefixes: Vec<Vec<usize>> = Vec::new();
            for sel in selections.iter() {
                let prefix = sel[..depth].to_vec();
                if !prefixes.contains(&prefix) {
                    prefixes.push(prefix);
                }
            }
            if prefixes.len() <= width {
                continue;
            }
            any_dropped = true;
            let undecided: Vec<OpId> = plans[depth..].iter().map(|p| p.op).collect();
            let mut ranked: Vec<(f64, usize)> = prefixes
                .iter()
                .enumerate()
                .map(|(i, prefix)| {
                    let first = selections
                        .iter()
                        .find(|sel| sel[..depth] == prefix[..])
                        .expect("every prefix came from a selection");
                    let candidate = self.materialize_candidate(base, plans, first);
                    *bound_evaluations += 1;
                    (bounder.completion_bound(&candidate, &undecided), i)
                })
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let kept: std::collections::BTreeSet<Vec<usize>> = ranked
                .iter()
                .take(width)
                .map(|&(_, i)| prefixes[i].clone())
                .collect();
            selections.retain(|sel| kept.contains(&sel[..depth]));
        }
        any_dropped
    }
}

/// Prefer non-asynchronous plain vectors over exotic kinds when widths tie.
fn copy_kind_rank(atom: &CopyAtom) -> usize {
    match atom.kind {
        CopyKind::LdMatrix { .. } => 0,
        CopyKind::CpAsync => 1,
        CopyKind::Tma => 2,
        // For packed sub-byte tensors the unpack load wins width ties against
        // the plain vector load: it feeds the dequant arithmetic directly.
        CopyKind::Unpack => 3,
        CopyKind::Vector => 4,
        CopyKind::Scalar => 5,
    }
}

pub(crate) fn degrade_to_scalar(plans: &[CopyPlan], candidate: &mut Candidate) {
    for plan in plans {
        if let Some(choice) = candidate.copy_choices.get_mut(&plan.op) {
            if let Some((atom, _)) = plan.alternatives.last() {
                choice.atom = atom.clone();
                choice.elements_per_thread = 1;
                choice.invocations = plan.tile_elems.div_ceil(choice.atom.threads).max(1);
            }
        }
    }
}

/// Chooses how many warp units tile the (M, N) accumulator: `unit_m * unit_n`
/// must equal `units`, and the instruction tile must divide each extent.
/// Among valid factorizations the most balanced one is preferred.
fn choose_unit_grid(
    bm: usize,
    bn: usize,
    im: usize,
    i_n: usize,
    units: usize,
) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for unit_m in 1..=units {
        if !units.is_multiple_of(unit_m) {
            continue;
        }
        let unit_n = units / unit_m;
        if !bm.is_multiple_of(im * unit_m) || !bn.is_multiple_of(i_n * unit_n) {
            continue;
        }
        let balance = |um: usize, un: usize| {
            let a = bm / um;
            let b = bn / un;
            a.max(b) - a.min(b)
        };
        best = match best {
            None => Some((unit_m, unit_n)),
            Some(cur) if balance(unit_m, unit_n) < balance(cur.0, cur.1) => Some((unit_m, unit_n)),
            other => other,
        };
    }
    best
}

/// Largest power-of-two vector length (in elements) that fits the contiguous
/// run, the byte budget and the tile extent along the vector dimension.
fn vector_elems(dtype: DType, run: usize, max_bytes: usize, tile: &[usize], dim: usize) -> usize {
    let extent = tile.get(dim).copied().unwrap_or(1);
    let by_bytes = dtype.elements_per_bytes(max_bytes).max(1);
    let mut vec = by_bytes.min(run.max(1)).min(extent.max(1));
    // Round down to a divisor of the extent to keep invocation counts exact.
    while vec > 1 && extent % vec != 0 {
        vec -= 1;
    }
    vec.max(1)
}

/// Builds a coalesced thread-value layout over a 2-D tile: each thread owns
/// `vec` elements contiguous along `vector_dim`, consecutive threads own
/// consecutive vectors, and the block wraps around the tile as many times as
/// needed (Algorithm 1, line 15).
fn coalesced_tv(tile: &[usize], vector_dim: usize, threads: usize, vec: usize) -> Result<TvLayout> {
    let total: usize = tile.iter().product();
    let vec = vec.max(1).min(total);
    // Address layout: linear index ordered with the vector dimension fastest,
    // mapped into the tile's column-major linearization.
    let mut order: Vec<usize> = vec![vector_dim];
    order.extend((0..tile.len()).filter(|&d| d != vector_dim));
    let mut col_major_strides = vec![1usize; tile.len()];
    for d in 1..tile.len() {
        col_major_strides[d] = col_major_strides[d - 1] * tile[d - 1];
    }
    let ordered_shape: Vec<usize> = order.iter().map(|&d| tile[d]).collect();
    let ordered_strides: Vec<usize> = order.iter().map(|&d| col_major_strides[d]).collect();
    let address = Layout::from_flat(&ordered_shape, &ordered_strides);

    let per_round = (threads * vec).min(total);
    let rounds = total.div_ceil(per_round);
    let active_threads = if threads * vec > total {
        total / vec
    } else {
        threads
    };

    let thread_idx = Layout::from_flat(&[active_threads], &[vec]);
    let value_idx = if rounds > 1 {
        Layout::from_flat(&[vec, rounds], &[1, per_round])
    } else {
        Layout::from_flat(&[vec], &[1])
    };
    let mut thread = address.compose(&thread_idx)?;
    let value = address.compose(&value_idx)?;
    if active_threads < threads {
        // Remaining threads replicate the data (they stay idle in codegen).
        let extra = threads / active_threads;
        thread = Layout::concat(&[thread, Layout::from_mode(extra, 0)]);
    }
    Ok(TvLayout::new(thread, value, tile.to_vec())?)
}

/// Checks whether the atom-level portion of an operation-level register
/// layout matches one of the Tensor-Core-friendly fragments an `ldmatrix.xN`
/// instruction produces. Returns the number of elements per thread moved per
/// invocation when it matches.
fn ldmatrix_match(f: &TvLayout, matrices: usize) -> Option<usize> {
    if f.num_threads() < 32 {
        return None;
    }
    let mut fragments: Vec<TvLayout> = Vec::new();
    let (_, q) = ldmatrix_layouts(matrices);
    fragments.push(q);
    if matrices == 2 {
        // ldmatrix.x2 also serves the B operand of m16n8k16 (transposed
        // arrangement).
        fragments.push(mma_m16n8k16(DType::F16, DType::F32).b);
    }
    for frag in fragments {
        let values = frag.values_per_thread();
        if f.values_per_thread() < values {
            continue;
        }
        if f.tile_shape().len() < frag.tile_shape().len() {
            continue;
        }
        if f.tile_shape()
            .iter()
            .zip(frag.tile_shape().iter())
            .any(|(&ft, &qt)| ft < qt || ft % qt != 0)
        {
            continue;
        }
        let matches = (0..32.min(f.num_threads()))
            .all(|t| (0..values).all(|v| f.tile_coords(t, v) == frag.tile_coords(t, v)));
        if matches {
            return Some(values);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::mma_m16n8k16;
    use hexcute_ir::KernelBuilder;

    fn register_gemm_program() -> Program {
        let (bm, bn, bk) = (64, 64, 32);
        let mut kb = KernelBuilder::new("reg_gemm", 128);
        let ga = kb.global_view(
            "a",
            DType::F16,
            Layout::from_flat(&[bm, bk], &[bk, 1]),
            &[bm, bk],
        );
        let gb = kb.global_view(
            "b",
            DType::F16,
            Layout::from_flat(&[bn, bk], &[bk, 1]),
            &[bn, bk],
        );
        let gc = kb.global_view(
            "c",
            DType::F16,
            Layout::from_flat(&[bm, bn], &[bn, 1]),
            &[bm, bn],
        );
        let sa = kb.shared_tensor("sa", DType::F16, &[bm, bk]);
        let sb = kb.shared_tensor("sb", DType::F16, &[bn, bk]);
        let ra = kb.register_tensor("ra", DType::F16, &[bm, bk]);
        let rb = kb.register_tensor("rb", DType::F16, &[bn, bk]);
        let rc = kb.register_tensor("rc", DType::F32, &[bm, bn]);
        kb.fill(rc, 0.0);
        kb.copy(ga, sa);
        kb.copy(gb, sb);
        kb.copy(sa, ra);
        kb.copy(sb, rb);
        kb.gemm(rc, ra, rb);
        let rc16 = kb.cast(rc, DType::F16);
        kb.copy(rc16, gc);
        kb.build().unwrap()
    }

    #[test]
    fn choose_unit_grid_prefers_balanced_tilings() {
        assert_eq!(choose_unit_grid(64, 64, 16, 8, 4), Some((2, 2)));
        assert_eq!(choose_unit_grid(128, 64, 16, 8, 4), Some((2, 2)));
        assert_eq!(choose_unit_grid(16, 8, 16, 8, 4), None);
        assert_eq!(choose_unit_grid(64, 256, 16, 8, 8), Some((1, 8)));
    }

    #[test]
    fn coalesced_tv_orders_threads_along_the_contiguous_dim() {
        // A 64x32 fp16 tile, contiguous along dim 1 (row-major source),
        // 128 threads, 8 elements per thread.
        let tv = coalesced_tv(&[64, 32], 1, 128, 8).unwrap();
        assert!(tv.is_exclusive());
        assert_eq!(tv.values_per_thread(), 16);
        // Thread 0 owns (0, 0..8): contiguous along dim 1.
        assert_eq!(tv.tile_coords(0, 0), vec![0, 0]);
        assert_eq!(tv.tile_coords(0, 1), vec![0, 1]);
        assert_eq!(tv.tile_coords(0, 7), vec![0, 7]);
        // Thread 1 owns the next vector (0, 8..16) ... thread 4 wraps to row 1.
        assert_eq!(tv.tile_coords(1, 0), vec![0, 8]);
        assert_eq!(tv.tile_coords(4, 0), vec![1, 0]);
    }

    #[test]
    fn coalesced_tv_handles_small_tiles() {
        // Tile smaller than one full-width round: only some threads are active.
        let tv = coalesced_tv(&[64, 1], 0, 128, 4).unwrap();
        assert_eq!(tv.num_threads(), 128);
        assert_eq!(tv.values_per_thread(), 4);
        assert_eq!(tv.tile_coords(0, 3), vec![3, 0]);
        // Threads beyond the 16 active ones replicate.
        assert_eq!(tv.map(0, 0), tv.map(16, 0));
    }

    #[test]
    fn vector_elems_respects_divisibility() {
        assert_eq!(vector_elems(DType::F16, 64, 16, &[64, 64], 1), 8);
        assert_eq!(vector_elems(DType::I4, 64, 16, &[64, 64], 1), 32);
        assert_eq!(vector_elems(DType::F16, 1, 16, &[64, 64], 1), 1);
        // Extent 12 with an 8-wide request rounds down to a divisor (6).
        assert_eq!(vector_elems(DType::F16, 12, 16, &[12, 4], 0), 6);
    }

    #[test]
    fn ldmatrix_match_accepts_mma_fragments_and_rejects_plain_layouts() {
        let atom = mma_m16n8k16(DType::F16, DType::F32);
        let fa = atom
            .a
            .expand(
                &[RepeatMode::along(2, 0), RepeatMode::broadcast(2)],
                &[RepeatMode::along(2, 0), RepeatMode::along(2, 1)],
            )
            .unwrap();
        assert_eq!(ldmatrix_match(&fa, 4), Some(8));
        let plain = coalesced_tv(&[64, 64], 0, 128, 8).unwrap();
        assert_eq!(ldmatrix_match(&plain, 4), None);
    }

    #[test]
    fn synthesis_of_a_gemm_program_selects_tensor_cores_and_ldmatrix() {
        let program = register_gemm_program();
        let arch = GpuArch::a100();
        let synth = Synthesizer::new(&program, &arch, SynthesisOptions::default());
        let candidates = synth.synthesize().unwrap();
        assert!(!candidates.is_empty());
        let best = &candidates[0];

        // Exactly one gemm, mapped to m16n8k16 with a 2x2 warp grid.
        assert_eq!(best.mma_choices.len(), 1);
        let mma = best.mma_choices.values().next().unwrap();
        assert_eq!((mma.atom.m, mma.atom.n, mma.atom.k), (16, 8, 16));
        assert_eq!(mma.unit_m * mma.unit_n, 4);

        // The shared→register copies of the A/B operands use ldmatrix.
        let ra = program.tensor_by_name("ra").unwrap().id;
        let rb = program.tensor_by_name("rb").unwrap().id;
        assert!(best.tv_layouts.contains_key(&ra));
        assert!(best.tv_layouts.contains_key(&rb));
        let ldmatrix_copies = best
            .copy_choices
            .values()
            .filter(|c| matches!(c.atom.kind, CopyKind::LdMatrix { .. }))
            .count();
        assert!(
            ldmatrix_copies >= 1,
            "expected at least one ldmatrix copy, got candidate:\n{best}"
        );

        // Global→shared copies use 16-byte cp.async.
        let g2s: Vec<_> = best
            .copy_choices
            .values()
            .filter(|c| c.atom.kind == CopyKind::CpAsync)
            .collect();
        assert_eq!(g2s.len(), 2);
        assert!(g2s.iter().all(|c| c.atom.bytes_per_thread == 16));

        // Shared-memory layouts were synthesized for both staging buffers.
        assert_eq!(best.smem_layouts.len(), 2);

        // No rearranges needed for a single-gemm program.
        assert!(best.rearranges.is_empty());

        // The search tree produced more than one candidate, and the last one
        // degrades to narrower copies.
        assert!(candidates.len() > 1);
    }

    #[test]
    fn scalar_ablation_forces_narrow_copies() {
        let program = register_gemm_program();
        let arch = GpuArch::a100();
        let synth = Synthesizer::new(&program, &arch, SynthesisOptions::scalar_fallback());
        let candidates = synth.synthesize().unwrap();
        assert!(candidates[0].uses_scalar_fallback());
    }

    #[test]
    fn anchor_copy_program_without_gemm() {
        // A pure data-movement kernel (like the Mamba scan loads): the anchor
        // is the largest copy and everything is coalesced and vectorized.
        let mut kb = KernelBuilder::new("streams", 128);
        let gu = kb.global_view(
            "u",
            DType::F16,
            Layout::from_flat(&[128, 64], &[64, 1]),
            &[128, 64],
        );
        let ru = kb.register_tensor("ru", DType::F16, &[128, 64]);
        let out = kb.global_view(
            "out",
            DType::F16,
            Layout::from_flat(&[128, 64], &[64, 1]),
            &[128, 64],
        );
        kb.copy(gu, ru);
        let doubled = kb.elementwise(hexcute_ir::ElementwiseOp::MulScalar(2.0), &[ru]);
        kb.copy(doubled, out);
        let program = kb.build().unwrap();
        let arch = GpuArch::h100();
        let synth = Synthesizer::new(&program, &arch, SynthesisOptions::default());
        let best = synth.synthesize_preferred().unwrap();
        // Both copies are 16-byte vectorized.
        for choice in best.copy_choices.values() {
            assert_eq!(choice.elements_per_thread, 8, "{}", choice.atom.name);
        }
        // The elementwise op inherits the same distribution.
        let ru_id = program.tensor_by_name("ru").unwrap().id;
        let doubled_layout = best.tv_layouts.get(&doubled).unwrap();
        assert!(same_distribution(
            doubled_layout,
            best.tv_layouts.get(&ru_id).unwrap()
        ));
    }

    /// A pure copy chain `g → s → r → g` whose plans the tests below replace
    /// with fabricated alternatives.
    fn copy_chain_program() -> Program {
        let mut kb = KernelBuilder::new("chain", 128);
        let ga = kb.global_view(
            "ga",
            DType::F16,
            Layout::from_flat(&[64, 64], &[64, 1]),
            &[64, 64],
        );
        let gc = kb.global_view(
            "gc",
            DType::F16,
            Layout::from_flat(&[64, 64], &[64, 1]),
            &[64, 64],
        );
        let sa = kb.shared_tensor("sa", DType::F16, &[64, 64]);
        let ra = kb.register_tensor("ra", DType::F16, &[64, 64]);
        kb.copy(ga, sa);
        kb.copy(sa, ra);
        kb.copy(ra, gc);
        kb.build().unwrap()
    }

    fn atom_of_kind(
        arch: &GpuArch,
        src: MemSpace,
        dst: MemSpace,
        want: fn(&CopyKind) -> bool,
    ) -> CopyAtom {
        copy_candidates(arch, src, dst)
            .into_iter()
            .find(|a| want(&a.kind))
            .expect("catalog carries the requested atom kind")
    }

    /// Regression test for the `max_candidates` truncation bug: the
    /// enumeration used to be cut to `max_candidates` *before* shared-memory
    /// feasibility filtering, so a workload whose first selections are all
    /// infeasible (even after the scalar fallback) returned an empty set
    /// although feasible candidates existed past the cutoff. The cap now
    /// applies to finished candidates only.
    #[test]
    fn max_candidates_counts_finished_candidates_only() {
        let program = copy_chain_program();
        let arch = GpuArch::h100();
        let options = SynthesisOptions {
            max_candidates: 1,
            ..SynthesisOptions::default()
        };
        let synth = Synthesizer::new(&program, &arch, options);
        let base = synth.solve_tv().unwrap();
        let mut plans = synth.build_copy_plans(&base).unwrap();
        assert_eq!(plans.len(), 3);

        // Fabricate an infeasible-heavy prefix: the g→s copy prefers TMA
        // (demands 128-byte contiguity along dim 0 of `sa`, surviving the
        // scalar degrade) while the s→r copy only offers ldmatrix (demands
        // 8-element contiguity along dim 1). The preferred selection and the
        // all-scalar fallback both conflict; only the deviation picking the
        // 1-element vector for the g→s copy is feasible.
        let tma = atom_of_kind(&arch, MemSpace::Global, MemSpace::Shared, |k| {
            matches!(k, CopyKind::Tma)
        });
        let narrow = atom_of_kind(&arch, MemSpace::Global, MemSpace::Shared, |k| {
            matches!(k, CopyKind::CpAsync)
        });
        let ldmatrix = atom_of_kind(&arch, MemSpace::Shared, MemSpace::Register, |k| {
            matches!(k, CopyKind::LdMatrix { .. })
        });
        plans[0].vector_dim = 0;
        plans[0].alternatives = vec![(tma.clone(), 64), (narrow, 1), (tma, 64)];
        plans[1].vector_dim = 1;
        plans[1].alternatives = vec![(ldmatrix, 8)];

        let selections = synth.enumerate_selections(&plans);
        // The enumeration itself is never truncated by `max_candidates`.
        assert!(
            selections.len() >= 4,
            "expected the full enumeration, got {selections:?}"
        );
        assert_eq!(selections[0], vec![0, 0, 0], "preferred first");

        let reference = synth
            .evaluate_reference(&base, &plans, &selections, 1, None)
            .unwrap();
        assert_eq!(
            reference.len(),
            1,
            "the feasible deviation past the infeasible prefix must be found"
        );
        let choice = &reference[0].copy_choices[&plans[0].op];
        assert_eq!(
            (choice.atom.kind, choice.elements_per_thread),
            (CopyKind::CpAsync, 1),
            "the surviving candidate is the one-element deviation"
        );

        // The incremental path agrees bit for bit, including on fallbacks.
        let incremental = synth
            .walk_serial(&base, &plans, &selections, 1, None)
            .unwrap()
            .0;
        assert_eq!(reference, incremental);

        // Unbounded, both paths agree on the full feasible set too.
        let all_ref = synth
            .evaluate_reference(&base, &plans, &selections, usize::MAX, None)
            .unwrap();
        let all_inc = synth
            .walk_serial(&base, &plans, &selections, usize::MAX, None)
            .unwrap()
            .0;
        assert_eq!(all_ref, all_inc);
        assert_eq!(all_ref.len(), 1, "every other selection is infeasible");
    }

    #[test]
    fn incremental_and_reference_paths_agree_on_gemm() {
        let program = register_gemm_program();
        let arch = GpuArch::a100();
        let synth = Synthesizer::new(&program, &arch, SynthesisOptions::default());
        let base = synth.solve_tv().unwrap();
        let plans = synth.build_copy_plans(&base).unwrap();
        let selections = synth.enumerate_selections(&plans);
        let reference = synth
            .evaluate_reference(&base, &plans, &selections, usize::MAX, None)
            .unwrap();
        let (incremental, stats) = synth
            .walk_serial(&base, &plans, &selections, usize::MAX, None)
            .unwrap();
        assert_eq!(reference, incremental);
        // The sharing must actually kick in: siblings re-finish only the
        // tensors their differing suffix touches.
        assert!(
            stats.tensor_layout_hits > 0,
            "no prefix sharing happened: {stats:?}"
        );
        assert!(
            stats.tensor_layouts_computed < selections.len() * program.shared_tensors().len(),
            "every tensor was re-finished per candidate: {stats:?}"
        );
    }

    #[test]
    fn node_budget_truncates_deterministically() {
        let program = register_gemm_program();
        let arch = GpuArch::a100();
        let exhaustive = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize()
            .unwrap();
        assert!(exhaustive.len() > 2, "fixture must enumerate alternatives");

        // Budget ≥ the full space: a Complete outcome, identical candidates.
        let roomy = SynthesisOptions {
            node_budget: Some(10_000),
            ..SynthesisOptions::default()
        };
        let (outcome, _) = Synthesizer::new(&program, &arch, roomy)
            .synthesize_outcome(None)
            .unwrap();
        assert!(!outcome.is_truncated());
        assert_eq!(outcome.candidates(), &exhaustive[..]);

        // A tight budget truncates: the preferred prefix of the exhaustive
        // list, bit-identical across the incremental walk and the reference
        // path.
        let tight = SynthesisOptions {
            node_budget: Some(2),
            ..SynthesisOptions::default()
        };
        let synth = Synthesizer::new(&program, &arch, tight);
        let (incremental, stats) = synth.synthesize_outcome(None).unwrap();
        assert!(stats.is_some(), "the incremental walk ran");
        let (reference, stats) = synth.synthesize_reference(None).unwrap();
        assert!(stats.is_none(), "the reference builds no prefix tree");
        let mut results = Vec::new();
        for outcome in [incremental, reference] {
            assert!(outcome.is_truncated(), "2 < full space must truncate");
            results.push(outcome.into_candidates());
        }
        assert_eq!(results[0], results[1], "incremental vs reference");
        assert_eq!(
            results[0],
            exhaustive[..results[0].len()],
            "a truncated search is a prefix of the exhaustive one"
        );
    }

    #[test]
    fn cancelled_token_yields_a_typed_error_not_a_partial_list() {
        use hexcute_parallel::cancel::{CancelReason, CancelToken};
        let program = register_gemm_program();
        let arch = GpuArch::a100();
        let token = CancelToken::new();
        token.cancel(CancelReason::Deadline);
        let synth = Synthesizer::new(&program, &arch, SynthesisOptions::default());
        for outcome in [
            synth.synthesize_outcome(Some(&token)),
            synth.synthesize_reference(Some(&token)),
        ] {
            match outcome {
                Err(SynthesisError::Cancelled(CancelReason::Deadline)) => {}
                other => panic!("expected a typed cancellation, got {other:?}"),
            }
        }
    }

    #[test]
    fn conflicting_gemm_layouts_insert_rearranges() {
        // Two gemms where the first one's accumulator feeds the second one's
        // A operand with an incompatible K extent pairing, forcing a layout
        // conversion (the Fig. 9 scenario).
        let mut kb = KernelBuilder::new("two_gemms", 128);
        let q = kb.register_tensor("q", DType::F16, &[64, 64]);
        let k = kb.register_tensor("k", DType::F16, &[64, 64]);
        let v = kb.register_tensor("v", DType::F16, &[64, 64]);
        let s = kb.register_tensor("s", DType::F32, &[64, 64]);
        let o = kb.register_tensor("o", DType::F32, &[64, 64]);
        kb.fill(s, 0.0);
        kb.fill(o, 0.0);
        kb.gemm(s, q, k);
        let p = kb.cast(s, DType::F16);
        kb.gemm(o, p, v);
        let program = kb.build().unwrap();
        let arch = GpuArch::a100();
        let synth = Synthesizer::new(&program, &arch, SynthesisOptions::default());
        let best = synth.synthesize_preferred().unwrap();
        // The accumulator of gemm 1 (an M×N fragment) cannot directly serve
        // as the A operand of gemm 2 (an M×K fragment): a rearrange appears.
        assert!(!best.rearranges.is_empty());
    }
}
