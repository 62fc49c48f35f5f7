//! The memoization cache for the layout algebra.
//!
//! Layout synthesis performs the same `compose` / `complement` /
//! `right_inverse` calls over and over while walking its DFS search tree, so
//! the algebra memoizes results in a per-thread cache keyed on interned
//! layouts: the first call computes through the flat representation
//! ([`crate::FlatLayout`]), every repeat is a hash lookup plus a clone.
//!
//! This is the only production path. The recursive `*_reference` methods on
//! [`Layout`] are plain functions that tests and benchmarks call directly.
//! In debug builds every memo miss also computes the reference result and
//! asserts that both are equal, so every debug test that synthesizes a
//! kernel cross-checks compose, complement, both inverses, divide and
//! product on the exact operands its search produces. Release builds skip
//! the check.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::Result;
use crate::layout::Layout;

/// A fast non-cryptographic hasher (FxHash-style multiply-xor) for the cache
/// maps: layout trees are hashed on every lookup, and the default SipHash
/// would dominate the memoized hit path.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hit/miss counters of the current thread's algebra cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Memoized results returned without recomputation.
    pub hits: u64,
    /// Results computed and inserted.
    pub misses: u64,
    /// Distinct layouts interned.
    pub interned: usize,
}

/// Entries above which the per-thread cache is discarded wholesale. The DFS
/// of a single synthesis run stays far below this; the bound only guards
/// against unbounded growth in long-lived processes.
const MAX_ENTRIES: usize = 1 << 16;

#[derive(Default)]
struct AlgebraCache {
    /// Bumped whenever the cache is discarded; inserts guard on it so a
    /// nested eviction during `compute` cannot store results under interner
    /// IDs that were reassigned to different layouts.
    generation: u64,
    interner: FxHashMap<Layout, u32>,
    compose: FxHashMap<(u32, u32), Result<Layout>>,
    complement: FxHashMap<(u32, usize), Result<Layout>>,
    right_inverse: FxHashMap<u32, Result<Layout>>,
    left_inverse: FxHashMap<u32, Result<Layout>>,
    divide: FxHashMap<(u32, u32), Result<Layout>>,
    product: FxHashMap<(u32, u32), Result<Layout>>,
    stats: CacheStats,
}

impl AlgebraCache {
    fn intern(&mut self, layout: &Layout) -> u32 {
        if let Some(&id) = self.interner.get(layout) {
            return id;
        }
        let id = self.interner.len() as u32;
        self.interner.insert(layout.clone(), id);
        id
    }

    fn maybe_evict(&mut self) {
        if self.interner.len() > MAX_ENTRIES {
            let stats = self.stats;
            let generation = self.generation;
            *self = AlgebraCache::default();
            self.stats = stats;
            self.generation = generation + 1;
        }
    }
}

thread_local! {
    static CACHE: RefCell<AlgebraCache> = RefCell::new(AlgebraCache::default());
}

/// The current thread's cache statistics.
pub fn cache_stats() -> CacheStats {
    CACHE.with(|c| {
        let c = c.borrow();
        let mut stats = c.stats;
        stats.interned = c.interner.len();
        stats
    })
}

/// Clears the current thread's algebra cache (statistics included).
pub fn clear_cache() {
    CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        let generation = cache.generation;
        *cache = AlgebraCache::default();
        cache.generation = generation + 1;
    });
}

pub(crate) fn memo_compose(
    a: &Layout,
    b: &Layout,
    compute: impl FnOnce() -> Result<Layout>,
) -> Result<Layout> {
    CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        cache.maybe_evict();
        let key = (cache.intern(a), cache.intern(b));
        if let Some(hit) = cache.compose.get(&key).cloned() {
            cache.stats.hits += 1;
            return hit;
        }
        let generation = cache.generation;
        // Drop the borrow while computing: `compute` may recurse into other
        // memoized operations (which may evict the cache, invalidating the
        // interner IDs behind `key` — hence the generation guard below).
        drop(cache);
        let result = compute();
        debug_assert_eq!(result, a.compose_reference(b), "compose {a} ∘ {b}");
        let mut cache = cell.borrow_mut();
        cache.stats.misses += 1;
        if cache.generation == generation {
            cache.compose.insert(key, result.clone());
        }
        result
    })
}

pub(crate) fn memo_complement(
    a: &Layout,
    target: usize,
    compute: impl FnOnce() -> Result<Layout>,
) -> Result<Layout> {
    CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        cache.maybe_evict();
        let key = (cache.intern(a), target);
        if let Some(hit) = cache.complement.get(&key).cloned() {
            cache.stats.hits += 1;
            return hit;
        }
        let generation = cache.generation;
        drop(cache);
        let result = compute();
        debug_assert_eq!(
            result,
            a.complement_reference(target),
            "complement of {a} in {target}"
        );
        let mut cache = cell.borrow_mut();
        cache.stats.misses += 1;
        if cache.generation == generation {
            cache.complement.insert(key, result.clone());
        }
        result
    })
}

pub(crate) fn memo_binary(
    op: BinaryOp,
    a: &Layout,
    b: &Layout,
    compute: impl FnOnce() -> Result<Layout>,
) -> Result<Layout> {
    CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        cache.maybe_evict();
        let key = (cache.intern(a), cache.intern(b));
        let table = match op {
            BinaryOp::LogicalDivide => &cache.divide,
            BinaryOp::LogicalProduct => &cache.product,
        };
        if let Some(hit) = table.get(&key).cloned() {
            cache.stats.hits += 1;
            return hit;
        }
        let generation = cache.generation;
        drop(cache);
        let result = compute();
        debug_assert_eq!(result, op.reference(a, b), "{op:?} of {a} by {b}");
        let mut cache = cell.borrow_mut();
        cache.stats.misses += 1;
        if cache.generation == generation {
            let table = match op {
                BinaryOp::LogicalDivide => &mut cache.divide,
                BinaryOp::LogicalProduct => &mut cache.product,
            };
            table.insert(key, result.clone());
        }
        result
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinaryOp {
    LogicalDivide,
    LogicalProduct,
}

impl BinaryOp {
    /// The recursive reference result the memoized one must equal.
    fn reference(self, a: &Layout, b: &Layout) -> Result<Layout> {
        match self {
            BinaryOp::LogicalDivide => a.logical_divide_reference(b),
            BinaryOp::LogicalProduct => a.logical_product_reference(b),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnaryOp {
    RightInverse,
    LeftInverse,
}

impl UnaryOp {
    /// The recursive reference result the memoized one must equal.
    fn reference(self, a: &Layout) -> Result<Layout> {
        match self {
            UnaryOp::RightInverse => a.right_inverse_reference(),
            UnaryOp::LeftInverse => a.left_inverse_reference(),
        }
    }
}

pub(crate) fn memo_unary(
    op: UnaryOp,
    a: &Layout,
    compute: impl FnOnce() -> Result<Layout>,
) -> Result<Layout> {
    CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        cache.maybe_evict();
        let key = cache.intern(a);
        let table = match op {
            UnaryOp::RightInverse => &cache.right_inverse,
            UnaryOp::LeftInverse => &cache.left_inverse,
        };
        if let Some(hit) = table.get(&key).cloned() {
            cache.stats.hits += 1;
            return hit;
        }
        let generation = cache.generation;
        drop(cache);
        let result = compute();
        debug_assert_eq!(result, op.reference(a), "{op:?} of {a}");
        let mut cache = cell.borrow_mut();
        cache.stats.misses += 1;
        if cache.generation == generation {
            let table = match op {
                UnaryOp::RightInverse => &mut cache.right_inverse,
                UnaryOp::LeftInverse => &mut cache.left_inverse,
            };
            table.insert(key, result.clone());
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_hits_on_repeats() {
        clear_cache();
        let a = Layout::column_major(&[32, 16]);
        let b = Layout::from_flat(&[8, 4], &[4, 128]);
        let first = a.compose(&b).unwrap();
        let before = cache_stats();
        for _ in 0..10 {
            assert_eq!(a.compose(&b).unwrap(), first);
        }
        let after = cache_stats();
        assert_eq!(after.hits, before.hits + 10);
        assert_eq!(after.misses, before.misses);
        assert!(after.interned >= 2);
        clear_cache();
        assert_eq!(cache_stats(), CacheStats::default());
    }

    #[test]
    fn eviction_keeps_results_correct() {
        clear_cache();
        let base = Layout::identity(1 << 20);
        // Drive enough distinct operands through the nested memoized ops
        // (logical_divide → complement + compose) to trip eviction at least
        // once mid-computation.
        for i in 0..MAX_ENTRIES / 2 + 16 {
            let tiler = Layout::from_mode(2, 1 << (i % 16));
            let _ = base.logical_divide(&tiler);
            // Two fresh interned operands per iteration, so the interner
            // crosses MAX_ENTRIES partway through the loop.
            let _ = base.compose(&Layout::from_mode(i + 1, 1));
            let _ = Layout::from_mode(i + 2, 1).right_inverse();
        }
        assert!(
            cache_stats().interned <= MAX_ENTRIES + 1,
            "eviction never ran"
        );
        // Post-eviction results must still match the reference, twice (the
        // second call replays whatever was re-memoized).
        let tiler = Layout::from_mode(4, 1);
        for _ in 0..2 {
            assert_eq!(
                base.logical_divide(&tiler).unwrap(),
                base.logical_divide_reference(&tiler).unwrap()
            );
        }
        clear_cache();
    }

    #[test]
    fn errors_are_memoized_too() {
        clear_cache();
        let a = Layout::from_flat(&[3, 5], &[5, 1]);
        let b = Layout::from_mode(2, 2);
        let e1 = a.compose(&b).unwrap_err();
        let e2 = a.compose(&b).unwrap_err();
        assert_eq!(e1, e2);
        assert!(cache_stats().hits >= 1);
    }
}
