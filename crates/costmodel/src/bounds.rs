//! Admissible completion bounds for the branch-and-bound synthesis search.
//!
//! [`CompletionBounds`] implements [`hexcute_synthesis::SearchBounder`] on
//! top of the analytical cost model. Its lower bound replays the exact
//! estimate arithmetic of [`CostModel::estimate`] with each operation's
//! issue/completion cycles replaced by a per-operation *floor*:
//!
//! * an **undecided** copy op is charged the componentwise minimum over all
//!   of its materialized alternatives *and* the scalar-degraded choice the
//!   all-plans feasibility fallback substitutes;
//! * a **decided** copy op is charged the componentwise minimum of its
//!   actual choice and the degraded choice (the fallback rewrites decided
//!   choices too, so the actual cost alone would not be a lower bound);
//! * every other op keeps its exact cost — its choice is fixed across the
//!   whole search.
//!
//! Every estimate formula (read-after-write stall tracking, the memory /
//! compute issue split, pipelined-loop overlap) is monotone nondecreasing in
//! each operation's issue and completion cycles, and IEEE-754 rounding of
//! `+`, `max` and multiplication by positive constants preserves that
//! monotonicity — so feeding componentwise floors through the unchanged
//! arithmetic yields a value no larger than the exact score of *any*
//! feasible completion. That is the admissibility contract of
//! [`SearchBounder::completion_bound`], property-checked by the
//! `bound_admissibility` proptest in `hexcute-synthesis`.

use std::collections::HashMap;

use hexcute_ir::{Op, OpId, Program};
use hexcute_synthesis::{Candidate, CopyChoice, SearchBounder, SearchSpace};

use crate::model::CostModel;

/// A [`SearchBounder`] backed by a [`CostModel`]: exact scores come straight
/// from [`CostModel::estimate`] (bit-identical to the exhaustive selection
/// loop, which uses the same call), and completion bounds replay the same
/// arithmetic over per-operation cost floors precomputed by
/// [`SearchBounder::prepare`].
#[derive(Debug)]
pub struct CompletionBounds<'a> {
    model: &'a CostModel<'a>,
    program: &'a Program,
    /// Componentwise `(issue, completion)` minimum over every alternative of
    /// a planned copy, including the scalar-degraded fallback choice.
    floors: HashMap<OpId, (f64, f64)>,
    /// The `(issue, completion)` cost of the scalar-degraded fallback choice
    /// per planned copy, folded into decided ops' costs because the
    /// feasibility fallback may rewrite them.
    degraded: HashMap<OpId, (f64, f64)>,
}

impl<'a> CompletionBounds<'a> {
    /// Creates a bounder for `program` scoring through `model`. Call
    /// [`SearchBounder::prepare`] (the pruned search does) before asking for
    /// bounds; until then every floor is empty and bounds degrade to exact
    /// per-choice costs, which is still admissible but prunes nothing.
    pub fn new(model: &'a CostModel<'a>, program: &'a Program) -> Self {
        CompletionBounds {
            model,
            program,
            floors: HashMap::new(),
            degraded: HashMap::new(),
        }
    }

    /// The `(issue, completion)` cost of one materialized choice for `op`,
    /// computed exactly as the estimate would compute it — through a
    /// throwaway candidate carrying just that choice.
    fn choice_cost(&self, op: &Op, choice: &CopyChoice) -> (f64, f64) {
        let mut probe = Candidate::default();
        probe.copy_choices.insert(op.id, choice.clone());
        self.model.op_cycles(self.program, &probe, op)
    }
}

impl SearchBounder for CompletionBounds<'_> {
    fn prepare(&mut self, space: &SearchSpace) {
        self.floors.clear();
        self.degraded.clear();
        for plan in &space.plans {
            let Some(op) = self.program.ops().iter().find(|o| o.id == plan.op) else {
                continue;
            };
            let degraded = self.choice_cost(op, &plan.degraded);
            let floor = plan
                .choices
                .iter()
                .map(|choice| self.choice_cost(op, choice))
                .fold(degraded, |(fi, fc), (i, c)| (fi.min(i), fc.min(c)));
            self.floors.insert(plan.op, floor);
            self.degraded.insert(plan.op, degraded);
        }
    }

    fn exact_score(&self, candidate: &Candidate) -> f64 {
        self.model.estimate(self.program, candidate).total_cycles
    }

    fn completion_bound(&self, candidate: &Candidate, undecided: &[OpId]) -> f64 {
        let tag = self.model.retag(self.program);
        let costs = |op: &Op| -> (f64, f64) {
            if undecided.contains(&op.id) {
                if let Some(&floor) = self.floors.get(&op.id) {
                    return floor;
                }
            }
            let (issue, completion) = self.model.op_cycles_memo(self.program, candidate, op);
            match self.degraded.get(&op.id) {
                // Decided planned copy: the feasibility fallback may still
                // swap in the degraded choice, so bound by the cheaper one.
                Some(&(di, dc)) => (issue.min(di), completion.min(dc)),
                None => (issue, completion),
            }
        };
        self.model
            .estimate_with_costs(
                self.program,
                tag,
                &costs,
                self.model.rearrange_cycles(candidate),
            )
            .total_cycles
    }
}
