//! Criterion micro-benchmarks of the layout algebra: the operations at the
//! heart of constraint construction and solving (composition, inversion,
//! complement) and the swizzle evaluation used by the bank-conflict pass.
//!
//! Every algebra operation is measured twice: once through its recursive
//! reference method (`…/reference`, e.g. `Layout::compose_reference`, the
//! pre-fast-path behaviour) and once through the flat memoized production
//! method (`…/fast`). See `hexcute_bench::fastpath` / `repro_fastpath` for
//! the machine-readable before/after comparison.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hexcute_layout::{ituple, Layout, Swizzle, SwizzledLayout, TvLayout};

fn bench_layout_algebra(c: &mut Criterion) {
    let mma_a = Layout::new(ituple![(4, 8), (2, 2, 2)], ituple![(32, 1), (16, 8, 128)]).unwrap();
    let ldmatrix_q = Layout::new(ituple![(4, 8), (2, 4)], ituple![(64, 1), (32, 8)]).unwrap();
    let tile = Layout::column_major(&[128, 64]);
    let complement_arg = Layout::from_flat(&[8, 4], &[1, 32]);
    let coalesce_arg = Layout::from_flat(&[2, 4, 8, 2, 4], &[1, 2, 8, 64, 128]);

    c.bench_function("layout/compose/reference", |b| {
        b.iter(|| {
            black_box(&tile)
                .compose_reference(black_box(&mma_a))
                .unwrap()
        })
    });
    c.bench_function("layout/compose/fast", |b| {
        b.iter(|| black_box(&tile).compose(black_box(&mma_a)).unwrap())
    });
    c.bench_function("layout/right_inverse/reference", |b| {
        b.iter(|| black_box(&ldmatrix_q).right_inverse_reference().unwrap())
    });
    c.bench_function("layout/right_inverse/fast", |b| {
        b.iter(|| black_box(&ldmatrix_q).right_inverse().unwrap())
    });
    c.bench_function("layout/complement/reference", |b| {
        b.iter(|| {
            black_box(&complement_arg)
                .complement_reference(black_box(8192))
                .unwrap()
        })
    });
    c.bench_function("layout/complement/fast", |b| {
        b.iter(|| {
            black_box(&complement_arg)
                .complement(black_box(8192))
                .unwrap()
        })
    });
    c.bench_function("layout/coalesce/reference", |b| {
        b.iter(|| black_box(&coalesce_arg).coalesce_reference())
    });
    c.bench_function("layout/coalesce/fast", |b| {
        b.iter(|| black_box(&coalesce_arg).coalesce())
    });
    c.bench_function("layout/map_sweep_1k/reference", |b| {
        b.iter(|| {
            (0..1024usize)
                .map(|i| mma_a.map_reference(black_box(i)))
                .sum::<usize>()
        })
    });
    c.bench_function("layout/map_sweep_1k/fast", |b| {
        b.iter(|| {
            (0..1024usize)
                .map(|i| mma_a.map(black_box(i)))
                .sum::<usize>()
        })
    });
    c.bench_function("tv/expand_mma_atom_to_128x128", |b| {
        let atom = TvLayout::new(
            Layout::from_flat(&[4, 8], &[32, 1]),
            Layout::from_flat(&[2, 2], &[16, 8]),
            vec![16, 8],
        )
        .unwrap();
        b.iter(|| {
            atom.expand(
                &[
                    hexcute_layout::RepeatMode::along(2, 0),
                    hexcute_layout::RepeatMode::along(2, 1),
                ],
                &[
                    hexcute_layout::RepeatMode::along(4, 0),
                    hexcute_layout::RepeatMode::along(8, 1),
                ],
            )
            .unwrap()
        })
    });

    // Swizzles do not go through the algebra cache.
    c.bench_function("layout/swizzle_apply_1k", |b| {
        let s = Swizzle::new(3, 3, 3);
        b.iter(|| (0..1024usize).map(|x| s.apply(black_box(x))).sum::<usize>())
    });
    c.bench_function("layout/swizzled_map_coords", |b| {
        let sl = SwizzledLayout::new(Swizzle::new(3, 3, 3), Layout::row_major(&[64, 64]));
        b.iter(|| {
            let mut acc = 0usize;
            for r in 0..64 {
                acc += sl.map_coords(&[black_box(r), 0]);
            }
            acc
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_layout_algebra
}
criterion_main!(benches);
