//! The functional simulator: executes a synthesized program element by
//! element using the synthesized layouts, so that an incorrect layout (or an
//! inconsistent pair of layouts) produces wrong numerical results instead of
//! silently "working".
//!
//! This is the correctness backstop of the reproduction: the paper's claim
//! that layout synthesis is "correct by construction" is checked here by
//! compiling kernels and comparing their simulated output against reference
//! implementations.
//!
//! ## Table-driven execution
//!
//! Evaluating the layout index function per element is expensive: every
//! `tile_coords` / `address` call walks hierarchical tuples and allocates.
//! The simulator instead precomputes per-operation **index tables** once —
//! for each `(thread, value)` pair the source and destination addresses,
//! with the main-loop iteration folded in as a single additive offset — and
//! the inner loops become straight array indexing. The element-by-element
//! evaluation is kept as [`FunctionalSim::run_reference`], which tests and
//! benchmarks call directly; both produce bit-identical buffers.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hexcute_arch::{DType, MemSpace};
use hexcute_ir::{ElementwiseOp, Op, OpId, OpKind, Program, ReduceOp, TensorId};
use hexcute_layout::{Layout, Swizzle, SwizzledLayout, TvLayout};
use hexcute_parallel::cache::{CacheStats, ShardedMap};
use hexcute_synthesis::Candidate;

use crate::error::{Result, SimError};

/// The functional simulator for one thread block of a synthesized program.
#[derive(Debug)]
pub struct FunctionalSim<'a> {
    program: &'a Program,
    candidate: &'a Candidate,
}

/// Register file of one tensor: `values[thread * values_per_thread + value]`.
#[derive(Debug, Clone)]
struct RegisterFile {
    threads: usize,
    values_per_thread: usize,
    data: Vec<f32>,
}

impl RegisterFile {
    fn new(threads: usize, values_per_thread: usize) -> Self {
        RegisterFile {
            threads,
            values_per_thread,
            data: vec![0.0; threads * values_per_thread],
        }
    }

    fn get(&self, t: usize, v: usize) -> f32 {
        self.data[t * self.values_per_thread + v]
    }

    fn set(&mut self, t: usize, v: usize, x: f32) {
        self.data[t * self.values_per_thread + v] = x;
    }
}

/// Rounds a value to the precision of the given data type (used by `cast`).
pub fn quantize(dtype: DType, x: f32) -> f32 {
    match dtype {
        DType::F64 | DType::F32 => x,
        DType::F16 => truncate_mantissa(x, 13),
        DType::BF16 => truncate_mantissa(x, 16),
        DType::F8E4M3 => truncate_mantissa(x, 20).clamp(-448.0, 448.0),
        DType::F8E5M2 => truncate_mantissa(x, 21).clamp(-57344.0, 57344.0),
        _ => {
            let (lo, hi) = dtype.integer_range().unwrap_or((i64::MIN, i64::MAX));
            (x.round() as i64).clamp(lo, hi) as f32
        }
    }
}

fn truncate_mantissa(x: f32, dropped_bits: u32) -> f32 {
    if !x.is_finite() || x == 0.0 {
        return x;
    }
    let bits = x.to_bits();
    let round = 1u32 << (dropped_bits - 1);
    let mask = !((1u32 << dropped_bits) - 1);
    f32::from_bits(bits.wrapping_add(round) & mask)
}

// ---------------------------------------------------------------------------
// Precomputed index tables.
// ---------------------------------------------------------------------------

/// The per-iteration part of an address: the leaf extents and strides of the
/// memory-layout dimensions beyond the tile coordinates. Those dimensions all
/// carry the loop iteration as their coordinate, so their contribution is one
/// offset shared by every element of the tile.
#[derive(Debug, Clone)]
struct IterPart {
    dims: Vec<(Vec<usize>, Vec<usize>)>,
}

impl IterPart {
    fn offset(&self, iteration: usize) -> usize {
        let mut acc = 0usize;
        for (extents, strides) in &self.dims {
            acc += dim_contribution(extents, strides, iteration);
        }
        acc
    }
}

/// Splits a per-dimension coordinate over that dimension's leaves and dots it
/// with the leaf strides, exactly like the reference `address` computation.
fn dim_contribution(extents: &[usize], strides: &[usize], coord: usize) -> usize {
    let mut rest = coord;
    let mut acc = 0usize;
    for (i, (&extent, &stride)) in extents.iter().zip(strides.iter()).enumerate() {
        if i + 1 == extents.len() {
            acc += rest * stride;
        } else {
            acc += (rest % extent) * stride;
            rest /= extent;
        }
    }
    acc
}

/// One side (source or destination) of a precomputed copy table.
#[derive(Debug)]
enum SideTable {
    /// Register side: addressed directly by `(thread, value)`.
    Register,
    /// Global side: `address = base[i] + iter.offset(iteration)`.
    Global { base: Vec<usize>, iter: IterPart },
    /// Shared side: `address = swizzle(base[i] + iter.offset(iteration))`.
    Shared {
        base: Vec<usize>,
        swizzle: Swizzle,
        iter: IterPart,
    },
}

/// The precomputed address tables of one copy operation.
#[derive(Debug)]
struct CopyTable {
    threads: usize,
    values: usize,
    src: SideTable,
    dst: SideTable,
}

/// The `(thread, value) → tile linear index` table of one register tensor.
#[derive(Debug)]
struct TvTable {
    threads: usize,
    values: usize,
    index: Vec<usize>,
}

/// Default bound on resident tables per table kind: index tables are big
/// (one `usize` per element side), so a long-lived shared cache is capped
/// with simple shard eviction instead of growing with every candidate it
/// ever simulated. Evicted tables are rebuilt on demand, bit-identically.
const TABLE_CACHE_CAPACITY: usize = 1024;

/// Precomputed index tables keyed by content fingerprints, so one cache can
/// be shared across *sibling candidates* of the same program: the search
/// tree varies one instruction choice at a time, and an operation whose
/// choice (and touched layouts) is unchanged between candidates reuses its
/// tables instead of rebuilding them — the functional-simulation analogue of
/// the prefix-shared search (`hexcute_synthesis::prefix`).
///
/// The maps are sharded behind read-write locks, so one cache can also be
/// shared across *threads* simulating sibling candidates concurrently; every
/// table is a pure function of its fingerprint key, so concurrent use is
/// bit-identical to private caches. Growth is bounded (see
/// [`SimTableCache::with_capacity`]).
///
/// [`FunctionalSim::run`] uses a private cache per run; pass a long-lived
/// cache to [`FunctionalSim::run_with_cache`] to share tables across runs
/// and candidates. Results are bit-identical either way.
#[derive(Debug)]
pub struct SimTableCache {
    copy: ShardedMap<(OpId, u64), Arc<CopyTable>>,
    tv: ShardedMap<(TensorId, u64), Arc<TvTable>>,
    shared_gather: ShardedMap<(TensorId, u64), Arc<Vec<usize>>>,
}

impl Default for SimTableCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SimTableCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::with_capacity(TABLE_CACHE_CAPACITY)
    }

    /// An empty cache holding at most roughly `capacity` tables of each kind
    /// (copy / thread-value / gather); over-full shards are cleared and the
    /// evicted tables rebuilt on demand.
    pub fn with_capacity(capacity: usize) -> Self {
        SimTableCache {
            copy: ShardedMap::bounded(capacity),
            tv: ShardedMap::bounded(capacity),
            shared_gather: ShardedMap::bounded(capacity),
        }
    }

    /// Number of cached tables (copy + thread-value + gather).
    pub fn len(&self) -> usize {
        self.copy.len() + self.tv.len() + self.shared_gather.len()
    }

    /// Whether the cache holds no tables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Combined hit/miss/eviction counters across the three table kinds.
    pub fn stats(&self) -> CacheStats {
        self.copy
            .stats()
            .merged(&self.tv.stats())
            .merged(&self.shared_gather.stats())
    }
}

/// Per-run state: whether this run indexes through tables or evaluates the
/// layouts element by element, the fingerprints resolved once per
/// operation/tensor for this candidate (so inner loops don't re-hash
/// layouts per iteration) and the reusable scratch buffer.
#[derive(Debug, Default)]
struct RunState {
    tables: bool,
    copy_fp: HashMap<OpId, u64>,
    tv_fp: HashMap<TensorId, u64>,
    gather_fp: HashMap<TensorId, u64>,
    scratch: Vec<f32>,
}

fn base_and_iter(layout: &Layout, coords_list: &[Vec<usize>]) -> (Vec<usize>, IterPart) {
    let rank = layout.rank();
    let coords_len = coords_list.first().map(Vec::len).unwrap_or(0);
    let used = rank.min(coords_len);
    let dims: Vec<(Vec<usize>, Vec<usize>)> = (0..rank)
        .map(|d| {
            (
                layout.shape().mode(d).flatten(),
                layout.stride().mode(d).flatten(),
            )
        })
        .collect();
    let base = coords_list
        .iter()
        .map(|coords| {
            let mut acc = 0usize;
            for (d, (extents, strides)) in dims.iter().enumerate().take(used) {
                acc += dim_contribution(extents, strides, coords[d]);
            }
            acc
        })
        .collect();
    (
        base,
        IterPart {
            dims: dims[used..].to_vec(),
        },
    )
}

impl<'a> FunctionalSim<'a> {
    /// Creates a simulator for the program and candidate.
    pub fn new(program: &'a Program, candidate: &'a Candidate) -> Self {
        FunctionalSim { program, candidate }
    }

    /// Runs one thread block of the kernel. `inputs` maps global-tensor names
    /// to flat buffers indexed by the addresses the tensor's layout produces;
    /// the returned map contains the final contents of every global buffer.
    ///
    /// # Errors
    ///
    /// Returns an error when a register tensor lacks a synthesized layout or
    /// an input buffer is too small.
    pub fn run(&self, inputs: &HashMap<String, Vec<f32>>) -> Result<HashMap<String, Vec<f32>>> {
        let cache = SimTableCache::new();
        self.run_with_cache(inputs, &cache)
    }

    /// Like [`FunctionalSim::run`], but reusing `cache` across calls — and
    /// across *sibling candidates* of the same program: tables are keyed by
    /// content fingerprints of the instruction choice and the layouts it
    /// touches, so a candidate re-simulates only the operations its differing
    /// choice suffix changed. Results are bit-identical to [`FunctionalSim::run`].
    ///
    /// # Errors
    ///
    /// Same as [`FunctionalSim::run`].
    pub fn run_with_cache(
        &self,
        inputs: &HashMap<String, Vec<f32>>,
        cache: &SimTableCache,
    ) -> Result<HashMap<String, Vec<f32>>> {
        self.run_in(inputs, cache, true)
    }

    /// The element-by-element reference for [`FunctionalSim::run`]: every
    /// access evaluates the layout index functions directly and no index
    /// table is built. Bit-identical to the table-driven runs; kept for
    /// cross-checking and before/after measurements.
    ///
    /// # Errors
    ///
    /// Same as [`FunctionalSim::run`].
    pub fn run_reference(
        &self,
        inputs: &HashMap<String, Vec<f32>>,
    ) -> Result<HashMap<String, Vec<f32>>> {
        self.run_in(inputs, &SimTableCache::new(), false)
    }

    /// One run, table-driven through `cache` when `tables` is set, element
    /// by element (leaving `cache` untouched) otherwise.
    fn run_in(
        &self,
        inputs: &HashMap<String, Vec<f32>>,
        cache: &SimTableCache,
        tables: bool,
    ) -> Result<HashMap<String, Vec<f32>>> {
        let threads = self.program.threads_per_block;

        // Global buffers.
        let mut global: HashMap<TensorId, Vec<f32>> = HashMap::new();
        for decl in self.program.tensors() {
            if decl.space != MemSpace::Global {
                continue;
            }
            let layout = decl
                .global_layout
                .as_ref()
                .expect("global views carry layouts");
            let required = layout.cosize();
            let buffer = match inputs.get(&decl.name) {
                Some(data) => {
                    if data.len() < required {
                        return Err(SimError::ShortBuffer {
                            tensor: decl.name.clone(),
                            required,
                            provided: data.len(),
                        });
                    }
                    data.clone()
                }
                None => vec![0.0; required],
            };
            global.insert(decl.id, buffer);
        }

        // Shared-memory buffers.
        let mut shared: HashMap<TensorId, Vec<f32>> = HashMap::new();
        for &id in &self.program.shared_tensors() {
            let layout = self.smem_layout(id);
            let size = layout.layout().cosize().next_power_of_two();
            shared.insert(id, vec![0.0; size]);
        }

        // Register files.
        let mut regs: HashMap<TensorId, RegisterFile> = HashMap::new();
        for decl in self.program.tensors() {
            if decl.space != MemSpace::Register {
                continue;
            }
            let tv = self
                .candidate
                .tv_layouts
                .get(&decl.id)
                .ok_or_else(|| SimError::MissingLayout(decl.name.clone()))?;
            regs.insert(
                decl.id,
                RegisterFile::new(tv.num_threads().max(threads), tv.values_per_thread()),
            );
        }

        // Per-run fingerprint resolutions and scratch; the index tables
        // themselves live in `cache` and may outlive this run.
        let mut state = RunState {
            tables,
            ..RunState::default()
        };

        // Execution order: pre-loop ops, the loop, post-loop ops.
        let first_loop = self.program.ops().iter().position(|o| o.in_main_loop);
        let last_loop = self.program.ops().iter().rposition(|o| o.in_main_loop);
        let ops = self.program.ops();
        match (first_loop, last_loop) {
            (Some(first), Some(last)) => {
                for op in &ops[..first] {
                    self.execute(
                        op,
                        0,
                        &mut global,
                        &mut shared,
                        &mut regs,
                        cache,
                        &mut state,
                    )?;
                }
                for iteration in 0..self.program.main_loop_trip_count {
                    for op in &ops[first..=last] {
                        if op.in_main_loop {
                            self.execute(
                                op,
                                iteration,
                                &mut global,
                                &mut shared,
                                &mut regs,
                                cache,
                                &mut state,
                            )?;
                        }
                    }
                }
                for op in &ops[last + 1..] {
                    self.execute(
                        op,
                        0,
                        &mut global,
                        &mut shared,
                        &mut regs,
                        cache,
                        &mut state,
                    )?;
                }
            }
            _ => {
                for op in ops {
                    self.execute(
                        op,
                        0,
                        &mut global,
                        &mut shared,
                        &mut regs,
                        cache,
                        &mut state,
                    )?;
                }
            }
        }

        let mut outputs = HashMap::new();
        for decl in self.program.tensors() {
            if decl.space == MemSpace::Global {
                outputs.insert(
                    decl.name.clone(),
                    global.remove(&decl.id).unwrap_or_default(),
                );
            }
        }
        Ok(outputs)
    }

    fn smem_layout(&self, id: TensorId) -> SwizzledLayout {
        self.candidate
            .smem_layouts
            .get(&id)
            .cloned()
            .unwrap_or_else(|| {
                SwizzledLayout::unswizzled(Layout::row_major(
                    &self.program.tensor(id).tile_shape_2d(),
                ))
            })
    }

    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        op: &Op,
        iteration: usize,
        global: &mut HashMap<TensorId, Vec<f32>>,
        shared: &mut HashMap<TensorId, Vec<f32>>,
        regs: &mut HashMap<TensorId, RegisterFile>,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<()> {
        match &op.kind {
            OpKind::Copy { src, dst } => self.execute_copy(
                op, *src, *dst, iteration, global, shared, regs, cache, state,
            ),
            OpKind::Gemm { c, a, b } => self.execute_gemm(*c, *a, *b, shared, regs, cache, state),
            OpKind::Cast { src, dst } => {
                let dtype = self.program.tensor(*dst).dtype;
                let src_file = regs.get(src).cloned().ok_or_else(|| self.missing(*src))?;
                let dst_file = regs.get_mut(dst).ok_or_else(|| self.missing(*dst))?;
                for t in 0..dst_file.threads.min(src_file.threads) {
                    for v in 0..dst_file.values_per_thread.min(src_file.values_per_thread) {
                        dst_file.set(t, v, quantize(dtype, src_file.get(t, v)));
                    }
                }
                Ok(())
            }
            OpKind::Rearrange { src, dst } => self.redistribute(*src, *dst, regs, cache, state),
            OpKind::Elementwise {
                inputs,
                output,
                op: eop,
            } => self.execute_elementwise(inputs, *output, *eop, regs),
            OpKind::Reduce {
                src,
                dst,
                dim,
                op: rop,
            } => self.execute_reduce(*src, *dst, *dim, *rop, regs, cache, state),
            OpKind::Fill { dst, value } => {
                let file = regs.get_mut(dst).ok_or_else(|| self.missing(*dst))?;
                file.data.iter_mut().for_each(|x| *x = *value as f32);
                Ok(())
            }
            OpKind::Dequant {
                src,
                scale,
                zero,
                dst,
                group_size,
            } => self.execute_dequant(*src, *scale, *zero, *dst, *group_size, regs, cache, state),
        }
    }

    /// `dst[r, c] = (src[r, c] - zero[r, g]) * scale[r, g]` with
    /// `g = min(c / group_size, groups - 1)` (the last group serves the
    /// tail when `group_size` does not divide the K extent), quantized to
    /// the destination element type.
    #[allow(clippy::too_many_arguments)]
    fn execute_dequant(
        &self,
        src: TensorId,
        scale: TensorId,
        zero: Option<TensorId>,
        dst: TensorId,
        group_size: usize,
        regs: &mut HashMap<TensorId, RegisterFile>,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<()> {
        let shared_dummy = HashMap::new();
        let (tile, src_full) = self.gather_tile(src, &shared_dummy, regs, cache, state)?;
        let (scale_tile, scale_full) =
            self.gather_tile(scale, &shared_dummy, regs, cache, state)?;
        let zero_full = match zero {
            Some(z) => Some(self.gather_tile(z, &shared_dummy, regs, cache, state)?.1),
            None => None,
        };
        let dtype = self.program.tensor(dst).dtype;
        let (rows, cols) = (tile[0], tile.get(1).copied().unwrap_or(1));
        let groups = scale_tile.get(1).copied().unwrap_or(1).max(1);
        let mut out = vec![0.0f32; rows * cols];
        for c in 0..cols {
            let g = (c / group_size.max(1)).min(groups - 1);
            for r in 0..rows {
                // Tiles are linearized column-major (idx = r + rows * c).
                let q = src_full[r + rows * c];
                let s = scale_full[r + rows * g];
                let z = zero_full.as_ref().map(|zf| zf[r + rows * g]).unwrap_or(0.0);
                out[r + rows * c] = quantize(dtype, (q - z) * s);
            }
        }
        self.scatter_tile(dst, &out, regs, cache, state)
    }

    fn missing(&self, id: TensorId) -> SimError {
        SimError::MissingLayout(self.program.tensor(id).name.clone())
    }

    /// Maps 2-D tile coordinates to an address through a (possibly
    /// hierarchical, possibly higher-rank) memory layout, appending the loop
    /// iteration as the trailing coordinate when the layout has more
    /// dimensions than the tile.
    fn address(&self, layout: &Layout, coords: &[usize], iteration: usize) -> usize {
        let rank = layout.rank();
        let mut per_dim: Vec<usize> = coords.to_vec();
        per_dim.truncate(rank);
        while per_dim.len() < rank {
            per_dim.push(iteration);
        }
        // Split each per-dimension coordinate over that dimension's leaves.
        let mut leaf_coords = Vec::new();
        for (d, &c) in per_dim.iter().enumerate() {
            let extents = layout.shape().mode(d).flatten();
            let mut rest = c;
            for (i, &extent) in extents.iter().enumerate() {
                if i + 1 == extents.len() {
                    leaf_coords.push(rest);
                } else {
                    leaf_coords.push(rest % extent);
                    rest /= extent;
                }
            }
        }
        layout.map_coords(&leaf_coords)
    }

    /// The thread-value layout a copy walks: destination-register copies
    /// follow the destination's layout so that every register value is
    /// written; all other copies follow the coverage layout recorded for the
    /// operation.
    fn copy_walk(&self, op: &Op, src: TensorId, dst: TensorId) -> Result<TvLayout> {
        let (s_decl, d_decl) = (self.program.tensor(src), self.program.tensor(dst));
        let coverage = self
            .candidate
            .copy_choices
            .get(&op.id)
            .map(|c| c.coverage.clone())
            .or_else(|| self.candidate.tv_layouts.get(&dst).cloned())
            .or_else(|| self.candidate.tv_layouts.get(&src).cloned())
            .ok_or_else(|| self.missing(dst))?;
        if d_decl.space == MemSpace::Register {
            self.candidate
                .tv_layouts
                .get(&dst)
                .cloned()
                .ok_or_else(|| self.missing(dst))
        } else if s_decl.space == MemSpace::Register {
            self.candidate
                .tv_layouts
                .get(&src)
                .cloned()
                .ok_or_else(|| self.missing(src))
        } else {
            Ok(coverage)
        }
    }

    /// Mixes the layout-relevant parts of a swizzled layout into `hasher`.
    fn hash_swizzled(layout: &SwizzledLayout, hasher: &mut DefaultHasher) {
        layout.layout().hash(hasher);
        let swizzle = layout.swizzle();
        swizzle.bits().hash(hasher);
        swizzle.base().hash(hasher);
        swizzle.shift().hash(hasher);
    }

    /// Content fingerprint of a copy's index tables: the walked thread-value
    /// layout and the memory layouts of both sides — exactly the inputs
    /// `build_copy_table` reads. Returns the walk alongside the hash so a
    /// cache miss can build the table without re-deriving it.
    fn copy_fingerprint(&self, op: &Op, src: TensorId, dst: TensorId) -> Result<(u64, TvLayout)> {
        let walk = self.copy_walk(op, src, dst)?;
        let mut hasher = DefaultHasher::new();
        self.program.name.hash(&mut hasher);
        walk.hash(&mut hasher);
        for id in [src, dst] {
            let decl = self.program.tensor(id);
            std::mem::discriminant(&decl.space).hash(&mut hasher);
            match decl.space {
                MemSpace::Global => {
                    decl.global_layout
                        .as_ref()
                        .expect("global views carry layouts")
                        .hash(&mut hasher);
                }
                MemSpace::Shared => Self::hash_swizzled(&self.smem_layout(id), &mut hasher),
                MemSpace::Register => {}
            }
        }
        Ok((hasher.finish(), walk))
    }

    fn build_copy_table(&self, src: TensorId, dst: TensorId, walk: &TvLayout) -> CopyTable {
        let threads = walk.num_threads();
        let values = walk.values_per_thread();
        let mut coords_list = Vec::with_capacity(threads * values);
        for t in 0..threads {
            for v in 0..values {
                coords_list.push(walk.tile_coords(t, v));
            }
        }
        let side = |id: TensorId| -> SideTable {
            let decl = self.program.tensor(id);
            match decl.space {
                MemSpace::Register => SideTable::Register,
                MemSpace::Global => {
                    let layout = decl
                        .global_layout
                        .as_ref()
                        .expect("global views carry layouts");
                    let (base, iter) = base_and_iter(layout, &coords_list);
                    SideTable::Global { base, iter }
                }
                MemSpace::Shared => {
                    let swizzled = self.smem_layout(id);
                    let (base, iter) = base_and_iter(swizzled.layout(), &coords_list);
                    SideTable::Shared {
                        base,
                        swizzle: *swizzled.swizzle(),
                        iter,
                    }
                }
            }
        };
        CopyTable {
            threads,
            values,
            src: side(src),
            dst: side(dst),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_copy(
        &self,
        op: &Op,
        src: TensorId,
        dst: TensorId,
        iteration: usize,
        global: &mut HashMap<TensorId, Vec<f32>>,
        shared: &mut HashMap<TensorId, Vec<f32>>,
        regs: &mut HashMap<TensorId, RegisterFile>,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<()> {
        if !state.tables {
            return self.execute_copy_reference(op, src, dst, iteration, global, shared, regs);
        }
        let table = match state.copy_fp.get(&op.id) {
            // A fingerprint already resolved this run: the bounded cache may
            // have evicted the table — rebuild (bit-identically) in that
            // case. The rebuild is fallible (`copy_walk`), so this site
            // cannot use `get_or_insert_with`.
            Some(&fp) => {
                let key = (op.id, fp);
                match cache.copy.get(&key) {
                    Some(table) => table,
                    None => {
                        let walk = self.copy_walk(op, src, dst)?;
                        let table = Arc::new(self.build_copy_table(src, dst, &walk));
                        cache.copy.insert(key, table.clone());
                        table
                    }
                }
            }
            None => {
                let (fp, walk) = self.copy_fingerprint(op, src, dst)?;
                state.copy_fp.insert(op.id, fp);
                cache.copy.get_or_insert_with((op.id, fp), || {
                    Arc::new(self.build_copy_table(src, dst, &walk))
                })
            }
        };
        let table = &*table;
        let n = table.threads * table.values;

        // Pass 1: read every source element into the scratch buffer. Source
        // and destination tensors are always distinct, so snapshotting reads
        // matches the reference's interleaved read/write order.
        let mut scratch = std::mem::take(&mut state.scratch);
        scratch.clear();
        scratch.reserve(n);
        match &table.src {
            SideTable::Register => {
                let file = regs.get(&src).ok_or_else(|| self.missing(src))?;
                for t in 0..table.threads {
                    for v in 0..table.values {
                        scratch.push(file.get(t, v));
                    }
                }
            }
            SideTable::Global { base, iter } => {
                let off = iter.offset(iteration);
                let buf = &global[&src];
                for &b in base {
                    scratch.push(buf.get(b + off).copied().unwrap_or(0.0));
                }
            }
            SideTable::Shared {
                base,
                swizzle,
                iter,
            } => {
                let off = iter.offset(iteration);
                let buf = &shared[&src];
                for &b in base {
                    scratch.push(buf[swizzle.apply(b + off)]);
                }
            }
        }

        // Pass 2: write every element to the destination.
        match &table.dst {
            SideTable::Register => {
                if let Some(file) = regs.get_mut(&dst) {
                    for t in 0..table.threads {
                        for v in 0..table.values {
                            file.set(t, v, scratch[t * table.values + v]);
                        }
                    }
                }
            }
            SideTable::Global { base, iter } => {
                let off = iter.offset(iteration);
                if let Some(buf) = global.get_mut(&dst) {
                    for (i, &b) in base.iter().enumerate() {
                        if let Some(slot) = buf.get_mut(b + off) {
                            *slot = scratch[i];
                        }
                    }
                }
            }
            SideTable::Shared {
                base,
                swizzle,
                iter,
            } => {
                let off = iter.offset(iteration);
                if let Some(buf) = shared.get_mut(&dst) {
                    for (i, &b) in base.iter().enumerate() {
                        let addr = swizzle.apply(b + off);
                        if let Some(slot) = buf.get_mut(addr) {
                            *slot = scratch[i];
                        }
                    }
                }
            }
        }
        state.scratch = scratch;
        Ok(())
    }

    /// The reference element-by-element copy, evaluating the layout index
    /// function per element.
    #[allow(clippy::too_many_arguments)]
    fn execute_copy_reference(
        &self,
        op: &Op,
        src: TensorId,
        dst: TensorId,
        iteration: usize,
        global: &mut HashMap<TensorId, Vec<f32>>,
        shared: &mut HashMap<TensorId, Vec<f32>>,
        regs: &mut HashMap<TensorId, RegisterFile>,
    ) -> Result<()> {
        let s_decl = self.program.tensor(src);
        let d_decl = self.program.tensor(dst);

        let read = |coords: &[usize],
                    global: &HashMap<TensorId, Vec<f32>>,
                    shared: &HashMap<TensorId, Vec<f32>>,
                    regs: &HashMap<TensorId, RegisterFile>,
                    t: usize,
                    v: usize|
         -> f32 {
            match s_decl.space {
                MemSpace::Global => {
                    let layout = s_decl.global_layout.as_ref().unwrap();
                    let addr = self.address(layout, coords, iteration);
                    global[&src].get(addr).copied().unwrap_or(0.0)
                }
                MemSpace::Shared => {
                    let layout = self.smem_layout(src);
                    let base = self.address(layout.layout(), coords, iteration);
                    shared[&src][layout.swizzle().apply(base)]
                }
                MemSpace::Register => regs[&src].get(t, v),
            }
        };

        let walk = self.copy_walk(op, src, dst)?;
        for t in 0..walk.num_threads() {
            for v in 0..walk.values_per_thread() {
                let coords = walk.tile_coords(t, v);
                let value = read(&coords, global, shared, regs, t, v);
                match d_decl.space {
                    MemSpace::Global => {
                        let layout = d_decl.global_layout.as_ref().unwrap();
                        let addr = self.address(layout, &coords, iteration);
                        if let Some(slot) = global.get_mut(&dst).and_then(|b| b.get_mut(addr)) {
                            *slot = value;
                        }
                    }
                    MemSpace::Shared => {
                        let layout = self.smem_layout(dst);
                        let addr = layout.swizzle().apply(self.address(
                            layout.layout(),
                            &coords,
                            iteration,
                        ));
                        if let Some(slot) = shared.get_mut(&dst).and_then(|b| b.get_mut(addr)) {
                            *slot = value;
                        }
                    }
                    MemSpace::Register => {
                        if let Some(file) = regs.get_mut(&dst) {
                            file.set(t, v, value);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn tv_table(
        &self,
        id: TensorId,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<Arc<TvTable>> {
        let tv = self
            .candidate
            .tv_layouts
            .get(&id)
            .ok_or_else(|| self.missing(id))?;
        let fp = match state.tv_fp.get(&id) {
            Some(&fp) => fp,
            None => {
                let mut hasher = DefaultHasher::new();
                self.program.name.hash(&mut hasher);
                tv.hash(&mut hasher);
                let fp = hasher.finish();
                state.tv_fp.insert(id, fp);
                fp
            }
        };
        Ok(cache.tv.get_or_insert_with((id, fp), || {
            let threads = tv.num_threads();
            let values = tv.values_per_thread();
            let mut index = Vec::with_capacity(threads * values);
            for t in 0..threads {
                for v in 0..values {
                    index.push(tv.map(t, v));
                }
            }
            Arc::new(TvTable {
                threads,
                values,
                index,
            })
        }))
    }

    /// Gathers the full logical tile of a tensor (register or shared).
    fn gather_tile(
        &self,
        id: TensorId,
        shared: &HashMap<TensorId, Vec<f32>>,
        regs: &HashMap<TensorId, RegisterFile>,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<(Vec<usize>, Vec<f32>)> {
        let decl = self.program.tensor(id);
        let tile = decl.tile_shape_2d();
        let total: usize = tile.iter().product();
        let mut full = vec![0.0f32; total];
        match decl.space {
            MemSpace::Register => {
                if state.tables {
                    let file = regs.get(&id).ok_or_else(|| self.missing(id))?;
                    let table = self.tv_table(id, cache, state)?;
                    for t in 0..table.threads {
                        for v in 0..table.values {
                            let i = t * table.values + v;
                            let idx = table.index[i];
                            if idx < total {
                                full[idx] = file.get(t, v);
                            }
                        }
                    }
                } else {
                    let tv = self
                        .candidate
                        .tv_layouts
                        .get(&id)
                        .ok_or_else(|| self.missing(id))?;
                    let file = regs.get(&id).ok_or_else(|| self.missing(id))?;
                    for t in 0..tv.num_threads() {
                        for v in 0..tv.values_per_thread() {
                            let idx = tv.map(t, v);
                            if idx < total {
                                full[idx] = file.get(t, v);
                            }
                        }
                    }
                }
            }
            MemSpace::Shared => {
                let buffer = shared.get(&id).ok_or_else(|| self.missing(id))?;
                if state.tables {
                    let fp = match state.gather_fp.get(&id) {
                        Some(&fp) => fp,
                        None => {
                            let mut hasher = DefaultHasher::new();
                            self.program.name.hash(&mut hasher);
                            Self::hash_swizzled(&self.smem_layout(id), &mut hasher);
                            let fp = hasher.finish();
                            state.gather_fp.insert(id, fp);
                            fp
                        }
                    };
                    let addrs = cache.shared_gather.get_or_insert_with((id, fp), || {
                        let layout = self.smem_layout(id);
                        let addrs: Vec<usize> = (0..total)
                            .map(|idx| {
                                let coords = [idx % tile[0], idx / tile[0]];
                                layout
                                    .swizzle()
                                    .apply(self.address(layout.layout(), &coords, 0))
                            })
                            .collect();
                        Arc::new(addrs)
                    });
                    for (idx, &addr) in addrs.iter().enumerate() {
                        full[idx] = buffer.get(addr).copied().unwrap_or(0.0);
                    }
                } else {
                    let layout = self.smem_layout(id);
                    for (idx, slot) in full.iter_mut().enumerate() {
                        let coords = vec![idx % tile[0], idx / tile[0]];
                        let addr =
                            layout
                                .swizzle()
                                .apply(self.address(layout.layout(), &coords, 0));
                        *slot = buffer.get(addr).copied().unwrap_or(0.0);
                    }
                }
            }
            MemSpace::Global => {
                return Err(SimError::Unsupported(
                    "gathering a global view as a compute operand".to_string(),
                ))
            }
        }
        Ok((tile, full))
    }

    fn scatter_tile(
        &self,
        id: TensorId,
        full: &[f32],
        regs: &mut HashMap<TensorId, RegisterFile>,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<()> {
        let decl = self.program.tensor(id);
        let total: usize = decl.tile_shape_2d().iter().product();
        if state.tables {
            let table = self.tv_table(id, cache, state)?;
            let file = regs.get_mut(&id).ok_or_else(|| self.missing(id))?;
            for t in 0..table.threads {
                for v in 0..table.values {
                    let idx = table.index[t * table.values + v];
                    if idx < total {
                        file.set(t, v, full[idx]);
                    }
                }
            }
            return Ok(());
        }
        let tv = self
            .candidate
            .tv_layouts
            .get(&id)
            .ok_or_else(|| self.missing(id))?;
        let file = regs.get_mut(&id).ok_or_else(|| self.missing(id))?;
        for t in 0..tv.num_threads() {
            for v in 0..tv.values_per_thread() {
                let idx = tv.map(t, v);
                if idx < total {
                    file.set(t, v, full[idx]);
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_gemm(
        &self,
        c: TensorId,
        a: TensorId,
        b: TensorId,
        shared: &mut HashMap<TensorId, Vec<f32>>,
        regs: &mut HashMap<TensorId, RegisterFile>,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<()> {
        let (a_tile, a_full) = self.gather_tile(a, shared, regs, cache, state)?;
        let (b_tile, b_full) = self.gather_tile(b, shared, regs, cache, state)?;
        let (c_tile, mut c_full) = self.gather_tile(c, shared, regs, cache, state)?;
        let (m, k) = (a_tile[0], a_tile[1]);
        let n = b_tile[0];
        debug_assert_eq!(c_tile, vec![m, n]);
        debug_assert_eq!(b_tile[1], k);
        for mi in 0..m {
            for ni in 0..n {
                let mut acc = 0.0f64;
                for ki in 0..k {
                    acc += f64::from(a_full[mi + m * ki]) * f64::from(b_full[ni + n * ki]);
                }
                c_full[mi + m * ni] += acc as f32;
            }
        }
        self.scatter_tile(c, &c_full, regs, cache, state)
    }

    fn redistribute(
        &self,
        src: TensorId,
        dst: TensorId,
        regs: &mut HashMap<TensorId, RegisterFile>,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<()> {
        let shared_dummy = HashMap::new();
        let (_, full) = self.gather_tile(src, &shared_dummy, regs, cache, state)?;
        self.scatter_tile(dst, &full, regs, cache, state)
    }

    fn execute_elementwise(
        &self,
        inputs: &[TensorId],
        output: TensorId,
        op: ElementwiseOp,
        regs: &mut HashMap<TensorId, RegisterFile>,
    ) -> Result<()> {
        let input_files: Vec<RegisterFile> = inputs
            .iter()
            .map(|id| regs.get(id).cloned().ok_or_else(|| self.missing(*id)))
            .collect::<Result<_>>()?;
        let out = regs.get_mut(&output).ok_or_else(|| self.missing(output))?;
        let fetch = |file: &RegisterFile, t: usize, v: usize| -> f32 {
            file.get(t.min(file.threads - 1), v.min(file.values_per_thread - 1))
        };
        for t in 0..out.threads {
            for v in 0..out.values_per_thread {
                let x = input_files.first().map(|f| fetch(f, t, v)).unwrap_or(0.0);
                let y = input_files.get(1).map(|f| fetch(f, t, v)).unwrap_or(0.0);
                let z = input_files.get(2).map(|f| fetch(f, t, v)).unwrap_or(0.0);
                let r = match op {
                    ElementwiseOp::Add => x + y,
                    ElementwiseOp::Sub => x - y,
                    ElementwiseOp::Mul => x * y,
                    ElementwiseOp::Div => x / y,
                    ElementwiseOp::Max => x.max(y),
                    ElementwiseOp::Min => x.min(y),
                    ElementwiseOp::Exp => x.exp(),
                    ElementwiseOp::AddScalar(s) => x + s as f32,
                    ElementwiseOp::MulScalar(s) => x * s as f32,
                    ElementwiseOp::Relu => x.max(0.0),
                    ElementwiseOp::Silu => x / (1.0 + (-x).exp()),
                    ElementwiseOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
                    ElementwiseOp::Fma => x * y + z,
                    ElementwiseOp::Identity => x,
                };
                out.set(t, v, r);
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_reduce(
        &self,
        src: TensorId,
        dst: TensorId,
        dim: usize,
        op: ReduceOp,
        regs: &mut HashMap<TensorId, RegisterFile>,
        cache: &SimTableCache,
        state: &mut RunState,
    ) -> Result<()> {
        let shared_dummy = HashMap::new();
        let (tile, full) = self.gather_tile(src, &shared_dummy, regs, cache, state)?;
        let (rows, cols) = (tile[0], tile.get(1).copied().unwrap_or(1));
        let mut reduced_tile = tile.clone();
        reduced_tile[dim] = 1;
        let total: usize = reduced_tile.iter().product();
        let identity = match op {
            ReduceOp::Sum => 0.0f32,
            ReduceOp::Max => f32::NEG_INFINITY,
            ReduceOp::Min => f32::INFINITY,
        };
        let mut out = vec![identity; total];
        for r in 0..rows {
            for c in 0..cols {
                let value = full[r + rows * c];
                let idx = if dim == 0 { c } else { r };
                out[idx] = match op {
                    ReduceOp::Sum => out[idx] + value,
                    ReduceOp::Max => out[idx].max(value),
                    ReduceOp::Min => out[idx].min(value),
                };
            }
        }
        // Re-linearize into the destination tile's column-major order.
        let mut dst_full = vec![0.0f32; total];
        if dim == 0 {
            // reduced tile is (1, cols): index = 0 + 1 * c.
            dst_full[..total].copy_from_slice(&out[..total]);
        } else {
            // reduced tile is (rows, 1): index = r.
            dst_full[..total].copy_from_slice(&out[..total]);
        }
        self.scatter_tile(dst, &dst_full, regs, cache, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use hexcute_arch::GpuArch;
    use hexcute_ir::KernelBuilder;
    use hexcute_synthesis::{SynthesisOptions, Synthesizer};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn quantization_behaviour() {
        assert_eq!(quantize(DType::F32, 1.2345678), 1.2345678);
        assert!((quantize(DType::F16, 1.2345678) - 1.2345678).abs() < 1e-3);
        assert!((quantize(DType::BF16, 1.2345678) - 1.2345678).abs() < 1e-2);
        assert_eq!(quantize(DType::I4, 9.7), 7.0);
        assert_eq!(quantize(DType::I4, -9.7), -8.0);
        assert_eq!(quantize(DType::U4, 3.4), 3.0);
        assert_eq!(quantize(DType::F16, 0.0), 0.0);
    }

    #[test]
    fn copy_kernel_round_trips_through_shared_memory() {
        let mut kb = KernelBuilder::new("copy_roundtrip", 128);
        let src = kb.global_view("src", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
        let dst = kb.global_view("dst", DType::F16, Layout::row_major(&[64, 64]), &[64, 64]);
        let stage = kb.shared_tensor("stage", DType::F16, &[64, 64]);
        let tile = kb.register_tensor("tile", DType::F16, &[64, 64]);
        kb.copy(src, stage);
        kb.copy(stage, tile);
        kb.copy(tile, dst);
        let program = kb.build().unwrap();
        let arch = GpuArch::a100();
        let candidate = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let data = random_vec(&mut rng, 64 * 64);
        let mut inputs = HashMap::new();
        inputs.insert("src".to_string(), data.clone());
        let outputs = FunctionalSim::new(&program, &candidate)
            .run(&inputs)
            .unwrap();
        assert_eq!(outputs["dst"], data);
    }

    #[test]
    fn gemm_kernel_matches_reference_matmul() {
        let (m, n, k) = (64, 64, 64);
        let mut kb = KernelBuilder::new("gemm_check", 128);
        let ga = kb.global_view(
            "a",
            DType::F16,
            Layout::from_flat(&[m, k], &[k, 1]),
            &[m, k],
        );
        let gb = kb.global_view(
            "b",
            DType::F16,
            Layout::from_flat(&[n, k], &[k, 1]),
            &[n, k],
        );
        let gc = kb.global_view(
            "c",
            DType::F32,
            Layout::from_flat(&[m, n], &[n, 1]),
            &[m, n],
        );
        let sa = kb.shared_tensor("sa", DType::F16, &[m, k]);
        let sb = kb.shared_tensor("sb", DType::F16, &[n, k]);
        let ra = kb.register_tensor("ra", DType::F16, &[m, k]);
        let rb = kb.register_tensor("rb", DType::F16, &[n, k]);
        let rc = kb.register_tensor("rc", DType::F32, &[m, n]);
        kb.fill(rc, 0.0);
        kb.copy(ga, sa);
        kb.copy(gb, sb);
        kb.copy(sa, ra);
        kb.copy(sb, rb);
        kb.gemm(rc, ra, rb);
        kb.copy(rc, gc);
        let program = kb.build().unwrap();

        let arch = GpuArch::a100();
        let candidate = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, n * k);
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), a.clone());
        inputs.insert("b".to_string(), b.clone());
        let outputs = FunctionalSim::new(&program, &candidate)
            .run(&inputs)
            .unwrap();
        let c = &outputs["c"];
        for mi in 0..m {
            for ni in 0..n {
                let mut expect = 0.0f64;
                for ki in 0..k {
                    expect += f64::from(a[mi * k + ki]) * f64::from(b[ni * k + ki]);
                }
                let got = c[mi * n + ni];
                assert!(
                    (f64::from(got) - expect).abs() < 1e-3,
                    "c[{mi},{ni}] = {got}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn table_driven_and_reference_paths_produce_identical_buffers() {
        let (m, n, k) = (64, 64, 32);
        let mut kb = KernelBuilder::new("fast_vs_ref", 128);
        let ga = kb.global_view(
            "a",
            DType::F16,
            Layout::from_flat(&[m, k], &[k, 1]),
            &[m, k],
        );
        let gb = kb.global_view(
            "b",
            DType::F16,
            Layout::from_flat(&[n, k], &[k, 1]),
            &[n, k],
        );
        let gc = kb.global_view(
            "c",
            DType::F32,
            Layout::from_flat(&[m, n], &[n, 1]),
            &[m, n],
        );
        let sa = kb.shared_tensor("sa", DType::F16, &[m, k]);
        let sb = kb.shared_tensor("sb", DType::F16, &[n, k]);
        let ra = kb.register_tensor("ra", DType::F16, &[m, k]);
        let rb = kb.register_tensor("rb", DType::F16, &[n, k]);
        let rc = kb.register_tensor("rc", DType::F32, &[m, n]);
        kb.fill(rc, 0.0);
        kb.copy(ga, sa);
        kb.copy(gb, sb);
        kb.copy(sa, ra);
        kb.copy(sb, rb);
        kb.gemm(rc, ra, rb);
        kb.copy(rc, gc);
        let program = kb.build().unwrap();
        let arch = GpuArch::a100();
        let candidate = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), random_vec(&mut rng, m * k));
        inputs.insert("b".to_string(), random_vec(&mut rng, n * k));

        assert_table_and_element_runs_agree(&FunctionalSim::new(&program, &candidate), &inputs);
    }

    /// Runs `sim` table-driven and element by element and asserts bit-for-bit
    /// identical buffers, with a witness that each path ran: the table run
    /// fills a fresh cache, the element runs leave one empty.
    fn assert_table_and_element_runs_agree(
        sim: &FunctionalSim<'_>,
        inputs: &HashMap<String, Vec<f32>>,
    ) {
        let tables = SimTableCache::new();
        let fast = sim.run_with_cache(inputs, &tables).unwrap();
        assert!(!tables.is_empty(), "the table-driven run built no tables");
        let untouched = SimTableCache::new();
        let element = sim.run_in(inputs, &untouched, false).unwrap();
        assert!(
            untouched.is_empty(),
            "the element-by-element run built tables"
        );
        let bits = |out: &HashMap<String, Vec<f32>>| -> BTreeMap<String, Vec<u32>> {
            out.iter()
                .map(|(name, buf)| (name.clone(), buf.iter().map(|x| x.to_bits()).collect()))
                .collect()
        };
        assert_eq!(
            bits(&fast),
            bits(&element),
            "table and element runs diverged"
        );
        assert_eq!(
            bits(&element),
            bits(&sim.run_reference(inputs).unwrap()),
            "run_reference diverged from the element-by-element run"
        );
    }

    #[test]
    fn shared_table_cache_is_bit_identical_across_sibling_candidates() {
        let (m, n, k) = (64, 64, 32);
        let mut kb = KernelBuilder::new("siblings", 128);
        let ga = kb.global_view(
            "a",
            DType::F16,
            Layout::from_flat(&[m, k], &[k, 1]),
            &[m, k],
        );
        let gb = kb.global_view(
            "b",
            DType::F16,
            Layout::from_flat(&[n, k], &[k, 1]),
            &[n, k],
        );
        let gc = kb.global_view(
            "c",
            DType::F32,
            Layout::from_flat(&[m, n], &[n, 1]),
            &[m, n],
        );
        let sa = kb.shared_tensor("sa", DType::F16, &[m, k]);
        let sb = kb.shared_tensor("sb", DType::F16, &[n, k]);
        let ra = kb.register_tensor("ra", DType::F16, &[m, k]);
        let rb = kb.register_tensor("rb", DType::F16, &[n, k]);
        let rc = kb.register_tensor("rc", DType::F32, &[m, n]);
        kb.fill(rc, 0.0);
        kb.copy(ga, sa);
        kb.copy(gb, sb);
        kb.copy(sa, ra);
        kb.copy(sb, rb);
        kb.gemm(rc, ra, rb);
        kb.copy(rc, gc);
        let program = kb.build().unwrap();
        let arch = GpuArch::a100();
        let candidates = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize()
            .unwrap();
        assert!(candidates.len() > 1);
        let mut rng = StdRng::seed_from_u64(17);
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), random_vec(&mut rng, m * k));
        inputs.insert("b".to_string(), random_vec(&mut rng, n * k));

        // One long-lived cache serves every sibling candidate; outputs must
        // equal the per-run-cache outputs bit for bit. Siblings sharing all
        // choices for an op reuse its tables, so the cache grows by less
        // than a full table set per candidate.
        let cache = SimTableCache::new();
        let mut sizes = Vec::new();
        for candidate in &candidates {
            let sim = FunctionalSim::new(&program, candidate);
            let fresh = sim.run(&inputs).unwrap();
            let cached = sim.run_with_cache(&inputs, &cache).unwrap();
            for (name, buf) in &fresh {
                let fresh_bits: Vec<u32> = buf.iter().map(|x| x.to_bits()).collect();
                let cached_bits: Vec<u32> = cached[name].iter().map(|x| x.to_bits()).collect();
                assert_eq!(fresh_bits, cached_bits, "buffer {name} diverged");
            }
            sizes.push(cache.len());
        }
        let first = sizes[0];
        let last = *sizes.last().unwrap();
        assert!(
            first > 0,
            "the table-driven run built no tables at all: {sizes:?}"
        );
        assert!(
            last < first * candidates.len(),
            "no table sharing across siblings: {sizes:?}"
        );
    }

    #[test]
    fn reduce_and_elementwise_semantics() {
        let mut kb = KernelBuilder::new("softmax_row", 128);
        let gx = kb.global_view(
            "x",
            DType::F32,
            Layout::from_flat(&[32, 64], &[64, 1]),
            &[32, 64],
        );
        let gy = kb.global_view(
            "y",
            DType::F32,
            Layout::from_flat(&[32, 1], &[1, 1]),
            &[32, 1],
        );
        let rx = kb.register_tensor("rx", DType::F32, &[32, 64]);
        kb.copy(gx, rx);
        let ex = kb.elementwise(ElementwiseOp::Exp, &[rx]);
        let sum = kb.reduce(ex, 1, hexcute_ir::ReduceOp::Sum);
        kb.copy(sum, gy);
        let program = kb.build().unwrap();
        let arch = GpuArch::a100();
        let candidate = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let x = random_vec(&mut rng, 32 * 64);
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), x.clone());
        let outputs = FunctionalSim::new(&program, &candidate)
            .run(&inputs)
            .unwrap();
        for row in 0..32 {
            let expect: f32 = (0..64).map(|c| x[row * 64 + c].exp()).sum();
            let got = outputs["y"][row];
            assert!(
                (got - expect).abs() / expect.abs() < 1e-4,
                "row {row}: {got} vs {expect}"
            );
        }
    }

    /// A dequant-only kernel: packed-INT4 weights staged through shared
    /// memory, unpack-loaded into registers, dequantized with grouped
    /// scales/zero points, and stored as FP16.
    fn dequant_kernel(
        n: usize,
        k: usize,
        group_size: usize,
        with_zero: bool,
    ) -> hexcute_ir::Program {
        let groups = k.div_ceil(group_size).max(1);
        let mut kb = KernelBuilder::new("dequant_check", 128);
        let gw = kb.global_view("w", DType::I4, Layout::row_major(&[n, k]), &[n, k]);
        let gscale = kb.global_view(
            "scale",
            DType::F16,
            Layout::row_major(&[n, groups]),
            &[n, groups],
        );
        let gy = kb.global_view("y", DType::F16, Layout::row_major(&[n, k]), &[n, k]);
        let sw = kb.shared_tensor("sw", DType::I4, &[n, k]);
        let rw_q = kb.register_tensor("rw_q", DType::I4, &[n, k]);
        let rscale = kb.register_tensor("rscale", DType::F16, &[n, groups]);
        kb.copy(gw, sw);
        kb.copy(sw, rw_q);
        kb.copy(gscale, rscale);
        let rzp = if with_zero {
            let gzp = kb.global_view(
                "zp",
                DType::F16,
                Layout::row_major(&[n, groups]),
                &[n, groups],
            );
            let rzp = kb.register_tensor("rzp", DType::F16, &[n, groups]);
            kb.copy(gzp, rzp);
            Some(rzp)
        } else {
            None
        };
        let dq = kb.dequant(rw_q, rscale, rzp, DType::F16, group_size);
        kb.copy(dq, gy);
        kb.build().unwrap()
    }

    /// The naive scalar reference for grouped dequantization: walks the
    /// logical tile element by element with no layouts, tables or packing.
    fn naive_dequant(
        w: &[f32],
        scale: &[f32],
        zp: Option<&[f32]>,
        n: usize,
        k: usize,
        group_size: usize,
    ) -> Vec<f32> {
        let groups = k.div_ceil(group_size).max(1);
        let mut out = vec![0.0f32; n * k];
        for r in 0..n {
            for c in 0..k {
                let g = (c / group_size).min(groups - 1);
                let z = zp.map(|z| z[r * groups + g]).unwrap_or(0.0);
                out[r * k + c] = quantize(DType::F16, (w[r * k + c] - z) * scale[r * groups + g]);
            }
        }
        out
    }

    fn check_dequant_against_reference(n: usize, k: usize, group_size: usize, with_zero: bool) {
        let program = dequant_kernel(n, k, group_size, with_zero);
        let arch = GpuArch::h100();
        let candidate = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap();
        let groups = k.div_ceil(group_size).max(1);
        let mut rng = StdRng::seed_from_u64(23 + group_size as u64);
        // Quantized int4 values and small float parameters.
        let w: Vec<f32> = (0..n * k)
            .map(|_| rng.gen_range(-8i32..=7) as f32)
            .collect();
        let scale: Vec<f32> = (0..n * groups).map(|_| rng.gen_range(0.01..0.2)).collect();
        let zp: Vec<f32> = (0..n * groups)
            .map(|_| rng.gen_range(-4i32..=4) as f32)
            .collect();
        let mut inputs = HashMap::new();
        inputs.insert("w".to_string(), w.clone());
        inputs.insert("scale".to_string(), scale.clone());
        if with_zero {
            inputs.insert("zp".to_string(), zp.clone());
        }
        let sim = FunctionalSim::new(&program, &candidate);
        let outputs = sim.run(&inputs).unwrap();
        let expect = naive_dequant(
            &w,
            &scale,
            with_zero.then_some(zp.as_slice()),
            n,
            k,
            group_size,
        );
        for r in 0..n {
            for c in 0..k {
                let got = outputs["y"][r * k + c];
                let want = expect[r * k + c];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "dequant diverged at ({r}, {c}) for group size {group_size}: \
                     got {got}, want {want}"
                );
            }
        }
        // The table-driven and element-by-element runs agree bit for bit on
        // the dequant kernel too.
        assert_table_and_element_runs_agree(&sim, &inputs);
    }

    #[test]
    fn int4_dequant_matches_naive_reference() {
        // Power-of-two group evenly dividing K.
        check_dequant_against_reference(32, 64, 32, true);
    }

    #[test]
    fn int4_dequant_handles_odd_group_sizes() {
        // Group size 24 over K = 64: two full groups plus a 16-element tail
        // served by the last scale column.
        check_dequant_against_reference(32, 64, 24, true);
        // Group size 3: many tiny groups, K = 48 divides evenly.
        check_dequant_against_reference(16, 48, 3, true);
    }

    #[test]
    fn int4_dequant_handles_tail_tiles_and_broadcast_scales() {
        // Group larger than K: a single broadcast scale column.
        check_dequant_against_reference(16, 48, 64, true);
        // Symmetric quantization: no zero point at all.
        check_dequant_against_reference(32, 64, 16, false);
    }

    #[test]
    fn int4_unpack_copy_round_trips_packed_values() {
        // The packed int4 values survive the global → shared → register
        // (unpack load) → register → global round trip exactly, matching the
        // scalar pack/unpack reference from hexcute-arch.
        let (n, k) = (32, 64);
        let mut kb = KernelBuilder::new("unpack_roundtrip", 128);
        let gw = kb.global_view("w", DType::I4, Layout::row_major(&[n, k]), &[n, k]);
        let gy = kb.global_view("y", DType::F32, Layout::row_major(&[n, k]), &[n, k]);
        let sw = kb.shared_tensor("sw", DType::I4, &[n, k]);
        let rw = kb.register_tensor("rw", DType::I4, &[n, k]);
        kb.copy(gw, sw);
        kb.copy(sw, rw);
        let rf = kb.cast(rw, DType::F32);
        kb.copy(rf, gy);
        let program = kb.build().unwrap();
        let arch = GpuArch::a100();
        let candidate = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap();

        // Round the values through the real bit-packing helpers: the byte
        // stream the modelled `ld.shared.*.unpack` instruction would see.
        let raw: Vec<i8> = (0..n * k).map(|i| ((i as i64 % 16) - 8) as i8).collect();
        let packed = hexcute_arch::pack_int4(&raw);
        let unpacked = hexcute_arch::unpack_int4(&packed, raw.len());
        assert_eq!(unpacked, raw, "pack/unpack reference must round trip");

        let w: Vec<f32> = unpacked.iter().map(|&v| v as f32).collect();
        let mut inputs = HashMap::new();
        inputs.insert("w".to_string(), w.clone());
        let outputs = FunctionalSim::new(&program, &candidate)
            .run(&inputs)
            .unwrap();
        assert_eq!(outputs["y"], w);
    }

    #[test]
    fn missing_input_defaults_to_zero_and_short_buffers_error() {
        let mut kb = KernelBuilder::new("copy", 32);
        let src = kb.global_view("src", DType::F32, Layout::row_major(&[16, 16]), &[16, 16]);
        let dst = kb.global_view("dst", DType::F32, Layout::row_major(&[16, 16]), &[16, 16]);
        let r = kb.register_tensor("r", DType::F32, &[16, 16]);
        kb.copy(src, r);
        kb.copy(r, dst);
        let program = kb.build().unwrap();
        let arch = GpuArch::a100();
        let candidate = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap();
        let sim = FunctionalSim::new(&program, &candidate);
        let outputs = sim.run(&HashMap::new()).unwrap();
        assert!(outputs["dst"].iter().all(|&x| x == 0.0));
        let mut short = HashMap::new();
        short.insert("src".to_string(), vec![1.0; 4]);
        assert!(matches!(sim.run(&short), Err(SimError::ShortBuffer { .. })));
    }
}
