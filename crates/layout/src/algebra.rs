//! Algebraic operations on layouts: composition, complement, inverses,
//! logical division and logical product.
//!
//! Layouts form a monoid under composition; these operations are the
//! foundation on which Hexcute's layout-synthesis constraints are built
//! (Section III and IV of the paper).
//!
//! Every operation exists in two bit-for-bit-equivalent forms:
//!
//! * the production form (`compose`, `complement`, …): operands are
//!   flattened once into the [`FlatLayout`] representation, computed on
//!   plain mode arrays, and the result is memoized in the per-thread cache
//!   of [`crate::fastpath`], so the repeated algebra performed by the
//!   synthesis DFS is a hash lookup;
//! * the **reference** form (`*_reference` methods): the original recursive
//!   implementation walking the hierarchical [`IntTuple`] trees, called
//!   directly by tests and benchmarks.
//!
//! The randomized cross-check tests in `tests/flat_vs_reference.rs` enforce
//! the equivalence of the two forms, errors included, and debug builds
//! assert it on every memo miss.

use crate::error::{LayoutError, Result};
use crate::fastpath::{self, UnaryOp};
use crate::flat::FlatLayout;
use crate::int_tuple::IntTuple;
use crate::layout::Layout;

impl Layout {
    /// Functional composition `self ∘ rhs`, i.e. the layout `R` with
    /// `R(i) = self(rhs(i))` whose profile matches `rhs`'s shape.
    ///
    /// The composition is computed mode-by-mode on `rhs` using the standard
    /// CuTe algorithm; beyond its domain `self` is extended along its last
    /// mode, matching CuTe's dynamic semantics. As in CuTe, the result is
    /// exact when `rhs` is an admissible tiler (an injective layout whose
    /// modes do not produce carries into each other through `self`); all
    /// layouts constructed by the synthesis engine satisfy this.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::NotDivisible`] when a mode of `rhs` does not
    /// divide evenly through the modes of `self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hexcute_layout::Layout;
    ///
    /// let a = Layout::from_flat(&[16, 2], &[1, 32]);
    /// let b = Layout::from_mode(4, 8);
    /// let r = a.compose(&b).unwrap();
    /// for i in 0..4 {
    ///     assert_eq!(r.map(i), a.map(b.map(i)));
    /// }
    /// ```
    pub fn compose(&self, rhs: &Layout) -> Result<Layout> {
        fastpath::memo_compose(self, rhs, || self.compose_flat(rhs))
    }

    /// The recursive reference implementation of [`Layout::compose`],
    /// bypassing the flat fast path and the memoization cache.
    pub fn compose_reference(&self, rhs: &Layout) -> Result<Layout> {
        let a = self.coalesce_reference();
        let a_modes = a.flat_modes();
        let rhs_shape = rhs.shape().flatten();
        let rhs_stride = rhs.stride().flatten();

        let mut per_leaf: Vec<Vec<(usize, usize)>> = Vec::with_capacity(rhs_shape.len());
        for (&s, &d) in rhs_shape.iter().zip(rhs_stride.iter()) {
            per_leaf.push(compose_single_mode(&a_modes, s, d)?);
        }
        Ok(regroup(rhs.shape(), &per_leaf))
    }

    /// Flat-path composition: one flatten pass per operand, no intermediate
    /// hierarchical layouts.
    fn compose_flat(&self, rhs: &Layout) -> Result<Layout> {
        let a = FlatLayout::from_layout(self).coalesced();
        let a_modes = a.modes();
        let b = FlatLayout::from_layout(rhs);

        let mut per_leaf: Vec<Vec<(usize, usize)>> = Vec::with_capacity(b.len());
        for &(s, d) in b.modes() {
            per_leaf.push(compose_single_mode(a_modes, s, d)?);
        }
        Ok(regroup(rhs.shape(), &per_leaf))
    }

    /// The complement of `self` with respect to a codomain of size
    /// `cosize_target`: a layout `C` such that `(self, C)` tiles the interval
    /// `[0, cosize_target)` bijectively when `self` is admissible.
    ///
    /// # Errors
    ///
    /// Returns an error when `self` has overlapping strides or does not embed
    /// evenly into `cosize_target`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hexcute_layout::Layout;
    ///
    /// let a = Layout::from_mode(4, 2);
    /// let c = a.complement(16).unwrap();
    /// let full = Layout::make_pair(&a, &c);
    /// assert!(full.is_compact_bijection());
    /// ```
    pub fn complement(&self, cosize_target: usize) -> Result<Layout> {
        fastpath::memo_complement(self, cosize_target, || {
            self.complement_flat(Some(cosize_target))
        })
    }

    /// The recursive reference implementation of [`Layout::complement`].
    pub fn complement_reference(&self, cosize_target: usize) -> Result<Layout> {
        let coalesced = self.coalesce_reference();
        let mut modes: Vec<(usize, usize)> = coalesced
            .flat_modes()
            .into_iter()
            .filter(|&(s, _)| s != 1)
            .collect();
        if modes.iter().any(|&(_, d)| d == 0) {
            return Err(LayoutError::InvalidComplement {
                layout: self.to_string(),
                target: cosize_target,
                reason: "layout has a broadcast (stride-0) mode".to_string(),
            });
        }
        modes.sort_by_key(|&(s, d)| (d, s));

        let mut result: Vec<(usize, usize)> = Vec::new();
        let mut current = 1usize;
        for (s, d) in modes {
            if d % current != 0 || d < current {
                return Err(LayoutError::InvalidComplement {
                    layout: self.to_string(),
                    target: cosize_target,
                    reason: format!("stride {d} does not align with the filled prefix {current}"),
                });
            }
            if d / current > 1 {
                result.push((d / current, current));
            }
            current = s * d;
        }
        if !cosize_target.is_multiple_of(current) {
            return Err(LayoutError::InvalidComplement {
                layout: self.to_string(),
                target: cosize_target,
                reason: format!(
                    "target {cosize_target} is not a multiple of the covered extent {current}"
                ),
            });
        }
        if cosize_target / current > 1 {
            result.push((cosize_target / current, current));
        }
        if result.is_empty() {
            return Ok(Layout::from_mode(1, 0));
        }
        Ok(Layout::from_modes(&result).coalesce_reference())
    }

    /// Flat-path complement core shared by [`Layout::complement`]
    /// (`target = Some(..)`) and [`Layout::interior_complement`]
    /// (`target = None`, interior gaps only).
    fn complement_flat(&self, target: Option<usize>) -> Result<Layout> {
        let coalesced = FlatLayout::from_layout(self).coalesced();
        let mut modes: Vec<(usize, usize)> = coalesced
            .modes()
            .iter()
            .copied()
            .filter(|&(s, _)| s != 1)
            .collect();
        let report_target = target.unwrap_or(0);
        if modes.iter().any(|&(_, d)| d == 0) {
            return Err(LayoutError::InvalidComplement {
                layout: self.to_string(),
                target: report_target,
                reason: "layout has a broadcast (stride-0) mode".to_string(),
            });
        }
        modes.sort_by_key(|&(s, d)| (d, s));

        let mut result = FlatLayout::new();
        let mut current = 1usize;
        for (s, d) in modes {
            if d % current != 0 || d < current {
                return Err(LayoutError::InvalidComplement {
                    layout: self.to_string(),
                    target: report_target,
                    reason: format!("stride {d} does not align with the filled prefix {current}"),
                });
            }
            if d / current > 1 {
                result.push(d / current, current);
            }
            current = s * d;
        }
        if let Some(cosize_target) = target {
            if cosize_target % current != 0 {
                return Err(LayoutError::InvalidComplement {
                    layout: self.to_string(),
                    target: cosize_target,
                    reason: format!(
                        "target {cosize_target} is not a multiple of the covered extent {current}"
                    ),
                });
            }
            if cosize_target / current > 1 {
                result.push(cosize_target / current, current);
            }
        }
        if result.is_empty() {
            return Ok(Layout::from_mode(1, 0));
        }
        // Matches `Layout::from_modes(&result).coalesce()` of the reference.
        Ok(result.coalesced().to_layout())
    }

    /// The right inverse of a layout that is a bijection onto `[0, size)`:
    /// the layout `R` with `self(R(j)) = j` for all `j` in `[0, size)`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::NotInvertible`] when the layout is not a
    /// compact bijection.
    ///
    /// # Examples
    ///
    /// The `ldmatrix` register layout from Fig. 7(b) and its inverse from
    /// Appendix C of the paper:
    ///
    /// ```
    /// use hexcute_layout::{Layout, ituple};
    ///
    /// let q = Layout::new(ituple![(4, 8), (2, 4)], ituple![(64, 1), (32, 8)]).unwrap();
    /// let q_inv = q.right_inverse().unwrap();
    /// let expected = Layout::new(ituple![(8, 4), (2, 4)], ituple![(4, 64), (32, 1)]).unwrap();
    /// assert!(q_inv.equivalent(&expected));
    /// ```
    pub fn right_inverse(&self) -> Result<Layout> {
        fastpath::memo_unary(UnaryOp::RightInverse, self, || self.right_inverse_flat())
    }

    /// The recursive reference implementation of [`Layout::right_inverse`].
    pub fn right_inverse_reference(&self) -> Result<Layout> {
        let coalesced = self.coalesce_reference();
        let modes: Vec<(usize, usize)> = coalesced
            .flat_modes()
            .into_iter()
            .filter(|&(s, _)| s != 1)
            .collect();
        right_inverse_core(self, &modes, true)
    }

    /// Flat-path right inverse.
    fn right_inverse_flat(&self) -> Result<Layout> {
        let coalesced = FlatLayout::from_layout(self).coalesced();
        let modes: Vec<(usize, usize)> = coalesced
            .modes()
            .iter()
            .copied()
            .filter(|&(s, _)| s != 1)
            .collect();
        right_inverse_core(self, &modes, false)
    }

    /// The left inverse of an injective layout: the layout `L` with
    /// `L(self(i)) = i` for all `i` in the domain.
    ///
    /// # Errors
    ///
    /// Returns an error when the layout is not injective or its image cannot
    /// be completed to a contiguous interval.
    pub fn left_inverse(&self) -> Result<Layout> {
        fastpath::memo_unary(UnaryOp::LeftInverse, self, || {
            if self.is_compact_bijection() {
                return self.right_inverse_flat();
            }
            let gaps = self.complement_flat(None)?;
            let full = Layout::make_pair(self, &gaps);
            full.right_inverse_flat()
        })
    }

    /// The recursive reference implementation of [`Layout::left_inverse`].
    pub fn left_inverse_reference(&self) -> Result<Layout> {
        if self.is_compact_bijection() {
            return self.right_inverse_reference();
        }
        let gaps = self.interior_complement_reference()?;
        let full = Layout::make_pair(self, &gaps);
        let inv = full.right_inverse_reference()?;
        Ok(inv)
    }

    /// A complement that only fills the interior gaps of the layout's image
    /// (no trailing mode), so that `(self, interior_complement)` is a compact
    /// bijection onto the covered extent.
    ///
    /// # Errors
    ///
    /// Returns an error when the layout has overlapping or broadcast modes.
    pub fn interior_complement(&self) -> Result<Layout> {
        self.complement_flat(None)
    }

    /// The recursive reference implementation of
    /// [`Layout::interior_complement`].
    pub fn interior_complement_reference(&self) -> Result<Layout> {
        let coalesced = self.coalesce_reference();
        let mut modes: Vec<(usize, usize)> = coalesced
            .flat_modes()
            .into_iter()
            .filter(|&(s, _)| s != 1)
            .collect();
        if modes.iter().any(|&(_, d)| d == 0) {
            return Err(LayoutError::InvalidComplement {
                layout: self.to_string(),
                target: 0,
                reason: "layout has a broadcast (stride-0) mode".to_string(),
            });
        }
        modes.sort_by_key(|&(s, d)| (d, s));
        let mut result: Vec<(usize, usize)> = Vec::new();
        let mut current = 1usize;
        for (s, d) in modes {
            if d % current != 0 || d < current {
                return Err(LayoutError::InvalidComplement {
                    layout: self.to_string(),
                    target: 0,
                    reason: format!("stride {d} does not align with the filled prefix {current}"),
                });
            }
            if d / current > 1 {
                result.push((d / current, current));
            }
            current = s * d;
        }
        if result.is_empty() {
            return Ok(Layout::from_mode(1, 0));
        }
        Ok(Layout::from_modes(&result).coalesce_reference())
    }

    /// Logical division: splits `self` by the tiler `rhs` into
    /// `(self ∘ rhs, self ∘ complement(rhs, size(self)))`, i.e. a first mode
    /// enumerating elements inside one tile and a second mode enumerating
    /// tiles.
    ///
    /// # Errors
    ///
    /// Propagates composition and complement errors.
    pub fn logical_divide(&self, rhs: &Layout) -> Result<Layout> {
        fastpath::memo_binary(fastpath::BinaryOp::LogicalDivide, self, rhs, || {
            let complement = rhs.complement(self.size())?;
            let tiler = Layout::make_pair(rhs, &complement);
            self.compose(&tiler)
        })
    }

    /// The reference-path counterpart of [`Layout::logical_divide`], built
    /// from the reference complement and composition.
    pub fn logical_divide_reference(&self, rhs: &Layout) -> Result<Layout> {
        let complement = rhs.complement_reference(self.size())?;
        let tiler = Layout::make_pair(rhs, &complement);
        self.compose_reference(&tiler)
    }

    /// Zipped division: like [`Layout::logical_divide`] but guarantees the
    /// result has exactly two top-level modes `(intra_tile, inter_tile)`.
    ///
    /// # Errors
    ///
    /// Propagates composition and complement errors.
    pub fn zipped_divide(&self, rhs: &Layout) -> Result<(Layout, Layout)> {
        let divided = self.logical_divide(rhs)?;
        Ok((divided.mode(0), divided.mode(1)))
    }

    /// Logical product: repeats `self` according to `rhs`, producing
    /// `(self, complement(self, size·cosize) ∘ rhs)`. Mode 0 indexes within
    /// one copy of `self`, mode 1 indexes the copy.
    ///
    /// # Errors
    ///
    /// Propagates composition and complement errors.
    pub fn logical_product(&self, rhs: &Layout) -> Result<Layout> {
        fastpath::memo_binary(fastpath::BinaryOp::LogicalProduct, self, rhs, || {
            let complement = self.complement(self.size().max(self.cosize()) * rhs.cosize())?;
            let repeat = complement.compose(rhs)?;
            Ok(Layout::make_pair(self, &repeat))
        })
    }

    /// The reference-path counterpart of [`Layout::logical_product`].
    pub fn logical_product_reference(&self, rhs: &Layout) -> Result<Layout> {
        let complement =
            self.complement_reference(self.size().max(self.cosize()) * rhs.cosize())?;
        let repeat = complement.compose_reference(rhs)?;
        Ok(Layout::make_pair(self, &repeat))
    }
}

/// The shared tail of the right inverse: validates that the coalesced,
/// filtered `modes` cover `[0, size)` contiguously and builds the inverse.
///
/// `use_reference` keeps the final coalesce on the same path as the caller,
/// so the reference entry point never routes through the flat fast path it
/// is cross-checked against.
fn right_inverse_core(
    original: &Layout,
    modes: &[(usize, usize)],
    use_reference: bool,
) -> Result<Layout> {
    if modes.iter().any(|&(_, d)| d == 0) {
        return Err(LayoutError::NotInvertible {
            layout: original.to_string(),
            reason: "layout has a broadcast (stride-0) mode".to_string(),
        });
    }
    // Input-space strides: prefix products of the shapes in domain order.
    let mut in_strides = Vec::with_capacity(modes.len());
    let mut acc = 1usize;
    for &(s, _) in modes {
        in_strides.push(acc);
        acc *= s;
    }
    let mut order: Vec<usize> = (0..modes.len()).collect();
    order.sort_by_key(|&k| modes[k].1);
    let mut expect = 1usize;
    for &k in &order {
        let (s, d) = modes[k];
        if d != expect {
            return Err(LayoutError::NotInvertible {
                layout: original.to_string(),
                reason: format!(
                    "image is not the contiguous interval [0, size): expected stride {expect}, found {d}"
                ),
            });
        }
        expect = d * s;
    }
    let inv_modes: Vec<(usize, usize)> =
        order.iter().map(|&k| (modes[k].0, in_strides[k])).collect();
    if inv_modes.is_empty() {
        return Ok(Layout::from_mode(1, 0));
    }
    let built = Layout::from_modes(&inv_modes);
    Ok(if use_reference {
        built.coalesce_reference()
    } else {
        built.coalesce()
    })
}

/// Composes the flattened, coalesced modes of `A` with a single mode `s:d`.
fn compose_single_mode(a: &[(usize, usize)], s: usize, d: usize) -> Result<Vec<(usize, usize)>> {
    if s == 1 {
        return Ok(vec![(1, 0)]);
    }
    if d == 0 {
        return Ok(vec![(s, 0)]);
    }
    if a.is_empty() {
        return Ok(vec![(s, 0)]);
    }

    let mut result: Vec<(usize, usize)> = Vec::new();
    let mut rest_s = s;
    let mut rest_d = d;
    let mut i = 0usize;

    // Skip phase: consume whole modes of A covered by the stride `d`. The
    // last mode of A is never consumed here because it extends indefinitely.
    while i + 1 < a.len() && rest_d > 1 {
        let (a_shape, _) = a[i];
        if rest_d.is_multiple_of(a_shape) {
            rest_d /= a_shape;
            i += 1;
        } else if a_shape % rest_d == 0 {
            break;
        } else {
            return Err(LayoutError::NotDivisible {
                context: "layout composition (stride skip)".to_string(),
                lhs: a_shape,
                rhs: rest_d,
            });
        }
    }

    // Take phase: collect `s` elements starting at the skipped offset.
    while rest_s > 1 {
        if i + 1 < a.len() {
            let (a_shape, a_stride) = a[i];
            if a_shape % rest_d != 0 {
                return Err(LayoutError::NotDivisible {
                    context: "layout composition (partial skip)".to_string(),
                    lhs: a_shape,
                    rhs: rest_d,
                });
            }
            let available = a_shape / rest_d;
            let stride = a_stride * rest_d;
            if rest_s <= available {
                result.push((rest_s, stride));
                rest_s = 1;
            } else {
                if !rest_s.is_multiple_of(available) {
                    return Err(LayoutError::NotDivisible {
                        context: "layout composition (mode rollover)".to_string(),
                        lhs: rest_s,
                        rhs: available,
                    });
                }
                if available > 1 {
                    result.push((available, stride));
                }
                rest_s /= available;
                rest_d = 1;
                i += 1;
            }
        } else {
            // Last mode of A: extended indefinitely along its stride.
            let (_, a_stride) = a[i];
            result.push((rest_s, a_stride * rest_d));
            rest_s = 1;
        }
    }

    if result.is_empty() {
        result.push((1, 0));
    }
    Ok(result)
}

/// Rebuilds a hierarchical layout matching `profile`, substituting each leaf
/// with the (possibly multi-mode) composition result computed for it.
fn regroup(profile: &IntTuple, per_leaf: &[Vec<(usize, usize)>]) -> Layout {
    fn build(
        profile: &IntTuple,
        per_leaf: &[Vec<(usize, usize)>],
        pos: &mut usize,
    ) -> (IntTuple, IntTuple) {
        match profile {
            IntTuple::Int(_) => {
                let modes = &per_leaf[*pos];
                *pos += 1;
                if modes.len() == 1 {
                    (IntTuple::Int(modes[0].0), IntTuple::Int(modes[0].1))
                } else {
                    (
                        IntTuple::Tuple(modes.iter().map(|m| IntTuple::Int(m.0)).collect()),
                        IntTuple::Tuple(modes.iter().map(|m| IntTuple::Int(m.1)).collect()),
                    )
                }
            }
            IntTuple::Tuple(children) => {
                let mut shapes = Vec::with_capacity(children.len());
                let mut strides = Vec::with_capacity(children.len());
                for child in children {
                    let (s, d) = build(child, per_leaf, pos);
                    shapes.push(s);
                    strides.push(d);
                }
                (IntTuple::Tuple(shapes), IntTuple::Tuple(strides))
            }
        }
    }
    let mut pos = 0usize;
    let (shape, stride) = build(profile, per_leaf, &mut pos);
    Layout::new(shape, stride).expect("regrouped shape and stride are congruent by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ituple;

    #[test]
    fn compose_matches_pointwise_function_composition() {
        let a = Layout::new(ituple![(2, 2), 8], ituple![(1, 16), 2]).unwrap();
        let b = Layout::from_flat(&[4, 8], &[8, 1]);
        let r = a.compose(&b).unwrap();
        for i in 0..b.size() {
            assert_eq!(r.map(i), a.map(b.map(i)), "mismatch at {i}");
        }
    }

    #[test]
    fn compose_splits_modes() {
        // Embedding a 4-element stride-8 mode into a 16x2 tile of a 32-row tensor.
        let embed = Layout::from_flat(&[16, 2], &[1, 32]);
        let mode = Layout::from_mode(4, 8);
        let r = embed.compose(&mode).unwrap();
        assert!(r.equivalent(&Layout::from_flat(&[2, 2], &[8, 32])));
    }

    #[test]
    fn compose_with_zero_stride_is_broadcast() {
        let a = Layout::from_flat(&[8, 4], &[1, 8]);
        let b = Layout::from_flat(&[4, 2], &[0, 4]);
        let r = a.compose(&b).unwrap();
        assert_eq!(r.map(0), 0);
        assert_eq!(r.map(1), 0);
        assert_eq!(r.map(3), 0);
        for i in 0..b.size() {
            assert_eq!(r.map(i), a.map(b.map(i)));
        }
    }

    #[test]
    fn compose_extends_last_mode() {
        let a = Layout::from_mode(4, 2);
        let b = Layout::from_mode(2, 8);
        let r = a.compose(&b).unwrap();
        assert!(r.equivalent(&Layout::from_mode(2, 16)));
    }

    #[test]
    fn compose_reports_divisibility_failure() {
        let a = Layout::from_flat(&[3, 5], &[5, 1]);
        let b = Layout::from_mode(2, 2);
        // Stride 2 does not divide through the 3-element mode.
        assert!(matches!(
            a.compose(&b),
            Err(LayoutError::NotDivisible { .. })
        ));
    }

    #[test]
    fn paper_appendix_c_composition() {
        // g restricted to 32 threads (Appendix C).
        let g = Layout::new(ituple![(4, 8), (2, 2, 2)], ituple![(32, 1), (16, 8, 256)]).unwrap();
        // q is the ldmatrix register layout of Fig. 7(b).
        let q = Layout::new(ituple![(4, 8), (2, 4)], ituple![(64, 1), (32, 8)]).unwrap();
        let q_inv = q.right_inverse().unwrap();
        let expected_q_inv =
            Layout::new(ituple![(8, 4), (2, 4)], ituple![(4, 64), (32, 1)]).unwrap();
        assert!(q_inv.equivalent(&expected_q_inv));

        // Compose with the hierarchical (thread, value) grouping so that the
        // result keeps separate thread and value modes.
        let composite = g.compose(&expected_q_inv).unwrap();
        let expected =
            Layout::new(ituple![(8, 2, 2), (2, 4)], ituple![(1, 8, 256), (16, 32)]).unwrap();
        assert!(composite.equivalent(&expected));

        // Appendix C: g∘q⁻¹ maps (17, 5) to linear index 337 = (1, 21) in 16x32.
        // 17 within (8,2,2) and 5 within (2,4) as mode-linear indices.
        let thread_mode = composite.mode(0);
        let value_mode = composite.mode(1);
        let out = thread_mode.map(17) + value_mode.map(5);
        assert_eq!(out, 337);
        assert_eq!(337 % 16, 1);
        assert_eq!(337 / 16, 21);
    }

    #[test]
    fn right_inverse_round_trip() {
        let layouts = vec![
            Layout::column_major(&[4, 8]),
            Layout::row_major(&[4, 8]),
            Layout::new(ituple![(4, 8), (2, 4)], ituple![(64, 1), (32, 8)]).unwrap(),
            Layout::from_flat(&[2, 3, 5], &[15, 1, 3]),
        ];
        for l in layouts {
            let inv = l.right_inverse().unwrap();
            for j in 0..l.size() {
                assert_eq!(l.map(inv.map(j)), j, "layout {l} inverse failed at {j}");
            }
        }
    }

    #[test]
    fn right_inverse_rejects_non_bijection() {
        assert!(Layout::from_flat(&[4, 4], &[1, 1]).right_inverse().is_err());
        assert!(Layout::from_mode(4, 2).right_inverse().is_err());
        assert!(Layout::from_flat(&[4, 2], &[1, 0]).right_inverse().is_err());
    }

    #[test]
    fn left_inverse_of_non_compact_layout() {
        let a = Layout::from_mode(4, 2);
        let l = a.left_inverse().unwrap();
        for i in 0..a.size() {
            assert_eq!(l.map(a.map(i)), i);
        }
    }

    #[test]
    fn complement_tiles_the_interval() {
        let a = Layout::from_flat(&[4, 2], &[1, 16]);
        let c = a.complement(64).unwrap();
        let full = Layout::make_pair(&a, &c);
        assert!(full.is_compact_bijection());
        assert_eq!(full.size(), 64);
    }

    #[test]
    fn complement_of_compact_layout_is_trivial() {
        let a = Layout::column_major(&[4, 8]);
        let c = a.complement(32).unwrap();
        assert_eq!(c.size(), 1);
    }

    #[test]
    fn complement_rejects_bad_targets() {
        let a = Layout::from_mode(4, 2);
        assert!(a.complement(12).is_err());
        let overlapping = Layout::from_flat(&[4, 4], &[1, 2]);
        assert!(overlapping.complement(64).is_err());
        let broadcast = Layout::from_mode(4, 0);
        assert!(broadcast.complement(16).is_err());
    }

    #[test]
    fn logical_divide_tiles_a_vector() {
        // 16 elements, tile of 4 contiguous elements.
        let a = Layout::identity(16);
        let tiler = Layout::from_mode(4, 1);
        let (intra, inter) = a.zipped_divide(&tiler).unwrap();
        assert_eq!(intra.size(), 4);
        assert_eq!(inter.size(), 4);
        // Tile 2, element 3 is global element 11.
        assert_eq!(intra.map(3) + inter.map(2), 11);
    }

    #[test]
    fn logical_divide_strided_tiler() {
        let a = Layout::identity(24);
        let tiler = Layout::from_mode(3, 8);
        let (intra, inter) = a.zipped_divide(&tiler).unwrap();
        assert_eq!(intra.size(), 3);
        assert_eq!(inter.size(), 8);
        let mut seen: Vec<usize> = Vec::new();
        for t in 0..inter.size() {
            for e in 0..intra.size() {
                seen.push(intra.map(e) + inter.map(t));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn logical_product_repeats_a_tile() {
        let tile = Layout::from_mode(4, 1);
        let repeat = Layout::from_mode(3, 1);
        let prod = tile.logical_product(&repeat).unwrap();
        assert_eq!(prod.size(), 12);
        let mut image = prod.image();
        image.sort_unstable();
        assert_eq!(image, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn compose_identity_is_identity() {
        let a = Layout::new(ituple![(2, 4), (2, 2)], ituple![(8, 1), (4, 16)]).unwrap();
        let id = Layout::identity(a.size());
        let r = a.compose(&id).unwrap();
        assert!(r.equivalent(&a));
        let l = Layout::identity(a.cosize()).compose(&a).unwrap();
        assert!(l.equivalent(&a));
    }

    #[test]
    fn compose_associativity_on_examples() {
        let a = Layout::from_flat(&[8, 8], &[8, 1]);
        let b = Layout::from_flat(&[4, 4], &[2, 16]);
        let c = Layout::from_flat(&[2, 2], &[1, 4]);
        let ab_c = a.compose(&b).unwrap().compose(&c).unwrap();
        let a_bc = a.compose(&b.compose(&c).unwrap()).unwrap();
        assert!(ab_c.equivalent(&a_bc));
    }

    #[test]
    fn fast_and_reference_paths_agree_on_the_paper_examples() {
        let g = Layout::new(ituple![(4, 8), (2, 2, 2)], ituple![(32, 1), (16, 8, 256)]).unwrap();
        let q = Layout::new(ituple![(4, 8), (2, 4)], ituple![(64, 1), (32, 8)]).unwrap();
        assert_eq!(
            g.compose(&q.right_inverse().unwrap()).unwrap(),
            g.compose_reference(&q.right_inverse_reference().unwrap())
                .unwrap()
        );
        let a = Layout::from_flat(&[4, 2], &[1, 16]);
        assert_eq!(
            a.complement(64).unwrap(),
            a.complement_reference(64).unwrap()
        );
        assert_eq!(
            a.interior_complement().unwrap(),
            a.interior_complement_reference().unwrap()
        );
        let strided = Layout::from_mode(4, 2);
        assert_eq!(
            strided.left_inverse().unwrap(),
            strided.left_inverse_reference().unwrap()
        );
        let id = Layout::identity(24);
        let tiler = Layout::from_mode(3, 8);
        assert_eq!(
            id.logical_divide(&tiler).unwrap(),
            id.logical_divide_reference(&tiler).unwrap()
        );
        let tile = Layout::from_mode(4, 1);
        let rep = Layout::from_mode(3, 1);
        assert_eq!(
            tile.logical_product(&rep).unwrap(),
            tile.logical_product_reference(&rep).unwrap()
        );
    }
}
