//! Synthesis options: which instruction families the search may use and the
//! ablation switches used in Section VII-E of the paper.

/// Options controlling the layout-synthesis search.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisOptions {
    /// Allow `ldmatrix` for shared→register copies.
    pub allow_ldmatrix: bool,
    /// Allow `cp.async` for global→shared copies.
    pub allow_cp_async: bool,
    /// Allow unpack loads (vectorized shared→register loads of packed
    /// sub-byte elements with an in-register unpack) for quantized weight
    /// tensors — the Marlin dequant-in-flight path.
    pub allow_unpack: bool,
    /// Allow TMA bulk copies on architectures that support it.
    pub allow_tma: bool,
    /// Allow warp-group MMA (`wgmma`) on architectures that support it.
    pub allow_wgmma: bool,
    /// Upper bound on the number of candidate programs returned by the
    /// search tree expansion.
    pub max_candidates: usize,
    /// Ablation: force every copy to use scalar (1-byte-per-thread
    /// element-wise) instructions, mimicking the fallback path.
    pub force_scalar_copies: bool,
    /// Ablation: force shared-memory tensors to a plain row-major layout
    /// without alignment-aware synthesis (the "Triton layout" ablation of
    /// Fig. 14).
    pub force_row_major_smem: bool,
    /// Ablation: disable swizzle selection (keeps whatever bank conflicts the
    /// base layout has).
    pub disable_swizzles: bool,
    /// Allow non-power-of-two warp tilings of the C tile (the paper notes 28
    /// of 40 GEMM shapes pick non-power-of-two tiles on H100).
    pub allow_non_power_of_two_tiles: bool,
    /// Deterministic node-count budget for the search: at most this many
    /// selections (leaves of the choice tree) are evaluated, truncating the
    /// deterministic enumeration *before* the walk starts. A truncated
    /// search reports `SynthesisOutcome::Truncated` with the best candidates
    /// found so far — bit-identical across the incremental walk and the
    /// reference, unlike wall-clock cancellation which yields typed errors
    /// only. `None` (the
    /// default) searches exhaustively; the environment default comes from
    /// `HEXCUTE_SYNTH_BUDGET` (unset or `0` means unbudgeted).
    pub node_budget: Option<usize>,
    /// Deterministic beam width for the pruned search: at each choice depth,
    /// keep only the `width` distinct prefixes with the best completion
    /// bounds (ties broken by enumeration order) before the walk starts.
    /// Unlike exact branch-and-bound this is *lossy* — the winner may differ
    /// from exhaustive search — so a set beam width participates in the
    /// stable hash. It is still deterministic. `None` (the
    /// default) disables the beam; the environment
    /// default comes from `HEXCUTE_SYNTH_BEAM` (unset or `0` means no beam).
    pub beam_width: Option<usize>,
}

/// The process-wide default node budget, parsed once from
/// `HEXCUTE_SYNTH_BUDGET`. Unset, unparsable or `0` all mean "no budget".
fn env_node_budget() -> Option<usize> {
    static BUDGET: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("HEXCUTE_SYNTH_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&b| b > 0)
    })
}

/// The process-wide default beam width, parsed once from
/// `HEXCUTE_SYNTH_BEAM`. Unset, unparsable or `0` all mean "no beam".
fn env_beam_width() -> Option<usize> {
    static BEAM: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *BEAM.get_or_init(|| {
        std::env::var("HEXCUTE_SYNTH_BEAM")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w > 0)
    })
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            allow_ldmatrix: true,
            allow_cp_async: true,
            allow_unpack: true,
            allow_tma: true,
            allow_wgmma: true,
            max_candidates: 128,
            force_scalar_copies: false,
            force_row_major_smem: false,
            disable_swizzles: false,
            allow_non_power_of_two_tiles: true,
            node_budget: env_node_budget(),
            beam_width: env_beam_width(),
        }
    }
}

impl SynthesisOptions {
    /// The default option set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Options mimicking the scalar-fallback ablation.
    pub fn scalar_fallback() -> Self {
        SynthesisOptions {
            force_scalar_copies: true,
            ..Self::default()
        }
    }

    /// Feeds every *result-affecting* field into `state`, in a fixed order.
    /// The persistent kernel-artifact cache keys artifacts on this hash (via
    /// a stable hasher), so the contract matters:
    ///
    /// * Fields that change which candidates exist or how they rank
    ///   (instruction allowances, `max_candidates`, the ablation switches)
    ///   all participate.
    /// * `node_budget` participates **only when set**: a budgeted search may
    ///   return different (truncated) candidates, so budgeted artifacts must
    ///   never alias full-search artifacts — while the unbudgeted hash stays
    ///   byte-compatible with caches written before budgets existed.
    /// * `beam_width` likewise participates **only when set** (under a
    ///   distinct tag): beam search is lossy, so beamed artifacts must never
    ///   alias exact-search artifacts.
    pub fn hash_stable<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        self.allow_ldmatrix.hash(state);
        self.allow_cp_async.hash(state);
        self.allow_unpack.hash(state);
        self.allow_tma.hash(state);
        self.allow_wgmma.hash(state);
        self.max_candidates.hash(state);
        self.force_scalar_copies.hash(state);
        self.force_row_major_smem.hash(state);
        self.disable_swizzles.hash(state);
        self.allow_non_power_of_two_tiles.hash(state);
        if let Some(budget) = self.node_budget {
            1u8.hash(state);
            budget.hash(state);
        }
        if let Some(width) = self.beam_width {
            2u8.hash(state);
            width.hash(state);
        }
    }

    /// Options mimicking the "Triton shared-memory layout" ablation of
    /// Fig. 14 (row-major shared memory, no swizzle search).
    pub fn triton_smem_layout() -> Self {
        SynthesisOptions {
            force_row_major_smem: true,
            disable_swizzles: true,
            allow_ldmatrix: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let o = SynthesisOptions::default();
        assert!(o.allow_ldmatrix && o.allow_cp_async && o.allow_tma && o.allow_wgmma);
        assert!(!o.force_scalar_copies);
        assert!(o.max_candidates >= 16);
    }

    #[test]
    fn node_budget_fragments_the_stable_hash_only_when_set() {
        fn fp(o: &SynthesisOptions) -> u64 {
            let mut h = std::hash::DefaultHasher::new();
            o.hash_stable(&mut h);
            std::hash::Hasher::finish(&h)
        }
        let unbudgeted = SynthesisOptions {
            node_budget: None,
            ..SynthesisOptions::default()
        };
        let budgeted = SynthesisOptions {
            node_budget: Some(8),
            ..unbudgeted.clone()
        };
        assert_ne!(fp(&unbudgeted), fp(&budgeted), "budgets must not alias");
    }

    #[test]
    fn beam_width_fragments_the_stable_hash() {
        fn fp(o: &SynthesisOptions) -> u64 {
            let mut h = std::hash::DefaultHasher::new();
            o.hash_stable(&mut h);
            std::hash::Hasher::finish(&h)
        }
        let base = SynthesisOptions {
            node_budget: None,
            beam_width: None,
            ..SynthesisOptions::default()
        };
        let beamed = SynthesisOptions {
            beam_width: Some(2),
            ..base.clone()
        };
        assert_ne!(
            fp(&base),
            fp(&beamed),
            "beam search is lossy, must not alias"
        );
        // The beam tag (2u8) must not collide with the budget tag (1u8) at
        // equal widths/budgets.
        let budgeted = SynthesisOptions {
            node_budget: Some(2),
            ..base.clone()
        };
        assert_ne!(
            fp(&budgeted),
            fp(&beamed),
            "beam and budget tags are distinct"
        );
    }

    #[test]
    fn ablation_presets() {
        assert!(SynthesisOptions::scalar_fallback().force_scalar_copies);
        let t = SynthesisOptions::triton_smem_layout();
        assert!(t.force_row_major_smem && t.disable_swizzles && !t.allow_ldmatrix);
    }
}
