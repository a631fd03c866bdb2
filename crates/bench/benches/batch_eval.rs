//! Criterion: scalar vs batched candidate costing over one sweep of the
//! APB-1-like candidate space, plus the `CostTables` precompute itself.
//!
//! The bench binary installs the counting allocator and prints a
//! one-shot allocation profile (allocations per candidate, peak extra
//! live bytes) for both paths before the timed runs, so the steady-state
//! allocation story of the hot path is visible next to the throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use warlock_bench::alloc_probe::{self, CountingAlloc};
use warlock_bench::Fixture;
use warlock_cost::{
    evaluate_chunk_kernel, yao_pass, AlignedF64Col, ChunkBatch, CostModel, CostPassInput,
    CostPassOutput, CostTables, KernelBackend, PerQueryDetail, LANES,
};
use warlock_fragment::{enumerate_candidates_ranged, FragmentLayout, Fragmentation, LayoutScratch};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Chunk width of the batched sweep — matches the engine's evaluation
/// group size.
const GROUP: usize = 64;

struct Sweep {
    fixture: Fixture,
    candidates: Vec<Fragmentation>,
}

fn sweep() -> Sweep {
    let fixture = Fixture::demo();
    let candidates = enumerate_candidates_ranged(&fixture.schema, 2, &[3])
        .into_iter()
        .filter(|f| f.num_fragments(&fixture.schema) <= u128::from(u64::MAX))
        .collect();
    Sweep {
        fixture,
        candidates,
    }
}

fn model_of(s: &Sweep) -> CostModel<'_> {
    CostModel::new(
        &s.fixture.schema,
        &s.fixture.system,
        &s.fixture.scheme,
        &s.fixture.mix,
    )
}

/// The pre-batching hot path: one `FragmentLayout` allocation and one
/// scalar `evaluate_layout` per candidate.
fn scalar_sweep(s: &Sweep, model: &CostModel<'_>) -> f64 {
    let mut sink = 0.0;
    for frag in &s.candidates {
        let layout = FragmentLayout::new(&s.fixture.schema, frag.clone(), model.fact_index());
        sink += model.evaluate_layout(&layout).io_cost_ms;
    }
    sink
}

/// The batched hot path on one costing kernel backend: table-driven SoA
/// costing in chunks of [`GROUP`], layouts built in a reusable scratch
/// arena.
fn batched_sweep(
    s: &Sweep,
    model: &CostModel<'_>,
    tables: &CostTables,
    scratch: &mut LayoutScratch,
    batch: &mut ChunkBatch,
    backend: KernelBackend,
) -> f64 {
    let mut sink = 0.0;
    for group in s.candidates.chunks(GROUP) {
        for frag in group {
            let layout = FragmentLayout::new_in(
                scratch,
                &s.fixture.schema,
                frag.clone(),
                model.fact_index(),
            );
            batch.push(layout, scratch);
        }
        for cost in evaluate_chunk_kernel(tables, batch, PerQueryDetail::Omit, backend) {
            sink += cost.io_cost_ms;
        }
    }
    sink
}

/// The kernel backends worth timing on this machine: the scalar
/// reference and, where distinct, the one this CPU runs.
fn backends() -> Vec<KernelBackend> {
    let mut v = vec![KernelBackend::Scalar];
    let detected = KernelBackend::detect();
    if detected != KernelBackend::Scalar {
        v.push(detected);
    }
    v
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let unit = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * unit
}

/// Synthetic padded SoA columns exercising both branch outcomes of the
/// arithmetic pass (scan-vs-fetch, indexable-vs-not), plus one gathered
/// Yao miss block of matching size.
struct PassFixture {
    cols: Vec<AlignedF64Col>,
    out: Vec<AlignedF64Col>,
    miss_rows: Vec<u64>,
    miss_pages: Vec<u64>,
    miss_k: Vec<f64>,
    miss_hits: Vec<f64>,
}

/// Candidates per synthetic arithmetic pass — a few engine chunks'
/// worth, small enough to stay cache-resident like the real columns.
const PASS_N: usize = 4096;

fn pass_fixture() -> PassFixture {
    assert!(PASS_N.is_multiple_of(LANES));
    let mut state = 0x5eed_cafe_f00d_0001u64;
    let mut cols = Vec::new();
    for c in 0..10 {
        let mut col = AlignedF64Col::new();
        for _ in 0..PASS_N {
            col.push(match c {
                0 => uniform(&mut state, 1.0, 4096.0).floor(), // fragments
                1 => uniform(&mut state, 0.0, 900.0),          // touched
                2 => f64::from(u8::from(!splitmix(&mut state).is_multiple_of(4))), // indexable
                _ => uniform(&mut state, 0.01, 2000.0),
            });
        }
        cols.push(col);
    }
    let mut out = Vec::new();
    for _ in 0..5 {
        let mut col = AlignedF64Col::new();
        col.resize(PASS_N, 0.0);
        out.push(col);
    }
    let mut miss_rows = Vec::new();
    let mut miss_pages = Vec::new();
    let mut miss_k = Vec::new();
    for _ in 0..PASS_N {
        let rows = 1 + splitmix(&mut state) % 1_000_000;
        // Mix the exact-Yao regime (rows divisible by pages) with the
        // Cardenas fallback, like real fragment geometry does.
        let pages = 1 + splitmix(&mut state) % 4096;
        miss_rows.push(rows);
        miss_pages.push(pages);
        miss_k.push(uniform(&mut state, 0.0, rows as f64));
    }
    PassFixture {
        cols,
        out,
        miss_rows,
        miss_pages,
        miss_k,
        miss_hits: vec![0.0; PASS_N],
    }
}

/// One arithmetic (`cost_pass`) run over the synthetic columns.
fn cost_pass_once(f: &mut PassFixture, backend: KernelBackend) -> f64 {
    let inp = CostPassInput {
        fragments: &f.cols[0],
        touched: &f.cols[1],
        indexable: &f.cols[2],
        scan_ms: &f.cols[3],
        scan_ios: &f.cols[4],
        fragment_pages: &f.cols[5],
        vector_ms: &f.cols[6],
        vector_ios: &f.cols[7],
        vector_pages: &f.cols[8],
        bitmap_vectors: &f.cols[9],
        random_page_ms: 8.9,
    };
    let [o0, o1, o2, o3, o4] = &mut f.out[..] else {
        unreachable!("5 output columns");
    };
    let mut out = CostPassOutput {
        out_use_scan: o0,
        out_per_fragment_ms: o1,
        out_fact_pages: o2,
        out_bitmap_pages: o3,
        out_total_ios: o4,
    };
    backend.cost_pass(&inp, &mut out);
    out.out_per_fragment_ms[0] + out.out_total_ios[PASS_N - 1]
}

/// One lane-batched Yao miss-block run.
fn yao_pass_once(f: &mut PassFixture) -> f64 {
    yao_pass(&f.miss_rows, &f.miss_pages, &f.miss_k, &mut f.miss_hits);
    f.miss_hits[0] + f.miss_hits[PASS_N - 1]
}

fn report_allocations(s: &Sweep) {
    if !alloc_probe::probe_installed() {
        return;
    }
    let model = model_of(s);
    let n = s.candidates.len() as f64;
    let (_, allocs, peak) = alloc_probe::allocation_profile(|| black_box(scalar_sweep(s, &model)));
    eprintln!(
        "batch_eval: scalar sweep   {:.1} allocs/candidate, peak {} B",
        allocs as f64 / n,
        peak
    );
    let tables = CostTables::build(&model, &[3]);
    let mut scratch = LayoutScratch::new();
    let mut batch = ChunkBatch::new();
    // Warm the arenas and the Yao memo so the profile shows steady state.
    let backend = KernelBackend::detect();
    black_box(batched_sweep(
        s,
        &model,
        &tables,
        &mut scratch,
        &mut batch,
        backend,
    ));
    let (_, allocs, peak) = alloc_probe::allocation_profile(|| {
        black_box(batched_sweep(
            s,
            &model,
            &tables,
            &mut scratch,
            &mut batch,
            backend,
        ))
    });
    eprintln!(
        "batch_eval: batched sweep  {:.1} allocs/candidate, peak {} B",
        allocs as f64 / n,
        peak
    );
}

fn bench_sweeps(c: &mut Criterion) {
    let s = sweep();
    report_allocations(&s);

    let model = model_of(&s);
    c.bench_function("eval/scalar_sweep", |b| {
        b.iter(|| black_box(scalar_sweep(&s, &model)))
    });

    c.bench_function("eval/tables_build", |b| {
        b.iter(|| black_box(CostTables::build(&model, &[3])))
    });

    let tables = CostTables::build(&model, &[3]);
    let mut scratch = LayoutScratch::new();
    let mut batch = ChunkBatch::new();
    c.bench_function("eval/batched_sweep", |b| {
        b.iter(|| {
            black_box(batched_sweep(
                &s,
                &model,
                &tables,
                &mut scratch,
                &mut batch,
                KernelBackend::detect(),
            ))
        })
    });

    // Per-backend axes: the full demo sweep pinned to each kernel, and
    // the isolated arithmetic pass where the backends actually differ
    // (matching, gather and the one Yao pass are backend-independent).
    for backend in backends() {
        c.bench_function(format!("eval/batched_sweep/{}", backend.name()), |b| {
            b.iter(|| {
                black_box(batched_sweep(
                    &s,
                    &model,
                    &tables,
                    &mut scratch,
                    &mut batch,
                    backend,
                ))
            })
        });
    }
    let mut pass = pass_fixture();
    for backend in backends() {
        c.bench_function(format!("kernel/cost_pass/{}", backend.name()), |b| {
            b.iter(|| black_box(cost_pass_once(&mut pass, backend)))
        });
    }
    c.bench_function("kernel/yao_pass", |b| {
        b.iter(|| black_box(yao_pass_once(&mut pass)))
    });
}

/// Bounded-runtime criterion config: benchmark sweeps stay meaningful but
/// `cargo bench --workspace` completes in minutes, not hours.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_sweeps
}
criterion_main!(benches);
