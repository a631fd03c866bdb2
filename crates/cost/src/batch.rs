//! Batched candidate costing in structure-of-arrays layout.
//!
//! [`ChunkBatch`] accumulates a chunk of candidates as flat columns
//! (fragment counts, per-candidate page geometry, per-class match
//! results), and [`evaluate_chunk_rows`] prices all of them against a
//! [`CostTables`] in three phases per query class: an irregular matching
//! pass that resolves predicates through the precomputed tables, a Yao
//! stage that resolves page-hit curves through two memos (gathering the
//! misses for one lane-batched [`yao_pass`] call), and a straight-line
//! arithmetic pass over the `f64` columns, run by a [`KernelBackend`]
//! (the scalar reference, or AVX2 where the CPU has it — see
//! [`crate::kernel`]). Its output is one unweighted, disk-free
//! [`ClassCost`] row per (candidate, class). [`evaluate_chunk_kernel`]
//! weighs those rows into [`CandidateCost`]s through
//! [`combine_class_costs`], the one function that applies the mix shares
//! and derives response time. The expression sequence per (candidate,
//! class) is exactly the scalar
//! [`estimate_query`](crate::access::estimate_query) path, so batched
//! results are bit-identical to
//! [`CostModel::evaluate_layout`](crate::CostModel::evaluate_layout) on
//! both backends — pinned by the `batched_equivalence` proptest in
//! `xtests`.
//!
//! Compared to the scalar path, a chunk of N candidates × C classes
//! performs the class-independent geometry (Yao/Cardenas inputs, prefetch
//! granules, sequential-scan pricing) once per candidate instead of C
//! times, resolves per-dimension occupancy statistics by table lookup
//! instead of recomputation, and memoizes the Yao page-hit curve — both
//! across classes that share a residual selectivity within one candidate
//! and across candidates/chunks through a persistent exact-argument memo
//! (`yao_page_hits` is a pure function, so identical arguments reproduce
//! identical bits).
//!
//! # Padding invariant
//!
//! Every `f64` column the arithmetic kernels read or write lives in a
//! cache-line-aligned [`AlignedF64Col`] and is padded to a multiple of
//! [`LANES`] with **inert** candidates: zero fragments, zero geometry,
//! not indexable. Inert lanes produce finite outputs (forced scan, all
//! times, pages and I/Os `+0.0`) by construction, are never read back
//! (every consumer loop runs over the live `0..n` prefix only), and
//! never reach either Yao memo (the gather loop is scalar over the live
//! prefix). The `padded_tail_lanes_stay_inert` test pins this.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use warlock_bitmap::estimate;
use warlock_fragment::{FragmentLayout, Fragmentation, LayoutScratch};
use warlock_schema::DimensionId;

use crate::access::{AccessPath, QueryCost};
use crate::kernel::{yao_pass, AlignedF64Col, CostPassInput, CostPassOutput, KernelBackend, LANES};
use crate::model::{combine_class_costs, CandidateCost, ClassCost};
use crate::prefetch::effective_prefetch;
use crate::response::estimated_response_ms;
use crate::tables::{BitmapContrib, CostTables};

/// How much per-class detail [`evaluate_chunk_kernel`] materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerQueryDetail {
    /// Materialize the full per-class [`QueryCost`] rows.
    Full,
    /// Leave `per_query` empty. All aggregate fields of the returned
    /// [`CandidateCost`]s are still bit-identical to the scalar path —
    /// only the per-class detail rows are skipped. The ranking pipeline
    /// uses this and re-derives detail for the final ranked handful.
    Omit,
}

/// Entry cap of the persistent Yao memo — far above what any realistic
/// workload produces, purely a bound against pathological key churn.
const YAO_MEMO_CAP: usize = 1 << 20;

/// Mixes the three 64-bit key words of the Yao memo directly — the keys
/// are already high-entropy (cardinalities and `f64` bit patterns), so a
/// multiplicative mix beats SipHash by an order of magnitude here.
#[derive(Debug, Default)]
struct YaoKeyHasher(u64);

impl std::hash::Hasher for YaoKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }
}

/// A chunk of candidates staged for batched evaluation, stored as flat
/// columns. Reusable: every evaluation drains it back to empty with all
/// column capacity retained, so one `ChunkBatch` per worker amortizes to
/// zero steady-state allocation (bar the output itself).
#[derive(Debug, Default)]
pub struct ChunkBatch {
    // --- Per-candidate input columns -----------------------------------
    fragmentations: Vec<Fragmentation>,
    num_fragments: Vec<u64>,
    /// Prefix offsets into `attr_dims`/`attr_cards`; `len() + 1` entries.
    attr_offsets: Vec<u32>,
    attr_dims: Vec<DimensionId>,
    attr_cards: Vec<u64>,
    // --- Class-independent geometry (stage A). The `f64` columns the
    // arithmetic kernels read are aligned and padded (see the module
    // docs); the integer columns feed the scalar Yao gather and the
    // detail rows.
    frag_rows_avg: Vec<f64>,
    frag_rows: Vec<u64>,
    fragment_pages: Vec<u64>,
    fact_prefetch: Vec<u32>,
    scan_ms: AlignedF64Col,
    scan_ios: AlignedF64Col,
    fragment_pages_f: AlignedF64Col,
    vector_pages: Vec<u64>,
    bitmap_prefetch: Vec<u32>,
    vector_ms: AlignedF64Col,
    vector_ios: AlignedF64Col,
    vector_pages_f: AlignedF64Col,
    // --- Per-class working columns -------------------------------------
    expected_fragments: AlignedF64Col,
    residual: Vec<f64>,
    bitmap_vectors: AlignedF64Col,
    /// `1.0` = every residual predicate has a covering bitmap.
    indexable: AlignedF64Col,
    attr_bitmap: Vec<BitmapContrib>,
    /// Yao page hits per fragment, `0.0` where not indexable; the
    /// kernel's `touched` input column.
    touched: AlignedF64Col,
    // --- Yao memo: one entry per candidate, keyed on the exact bit
    // pattern of the residual row count (classes sharing a residual
    // selectivity share the curve point).
    yao_k: Vec<f64>,
    yao_hits: Vec<f64>,
    // --- Persistent Yao memo, keyed on the exact `yao_page_hits`
    // arguments `(rows, pages, k.to_bits())`. Never cleared: the
    // function is pure, so an entry stays valid across chunks, models
    // and sessions sharing this batch (one per worker thread).
    yao_memo: HashMap<(u64, u64, u64), f64, BuildHasherDefault<YaoKeyHasher>>,
    // --- Gathered Yao memo misses, SoA, in live-candidate order; padded
    // with inert `rows = 0` entries for the lane kernel.
    miss_idx: Vec<usize>,
    miss_rows: Vec<u64>,
    miss_pages: Vec<u64>,
    miss_k: Vec<f64>,
    miss_hits: Vec<f64>,
    // --- Kernel output columns (overwritten per class) -----------------
    out_use_scan: AlignedF64Col,
    out_per_fragment_ms: AlignedF64Col,
    out_fact_pages: AlignedF64Col,
    out_bitmap_pages: AlignedF64Col,
    out_total_ios: AlignedF64Col,
    per_query: Vec<Vec<QueryCost>>,
}

impl ChunkBatch {
    /// An empty batch; columns grow on first use and keep their capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidates staged.
    pub fn len(&self) -> usize {
        self.fragmentations.len()
    }

    /// Whether the batch holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.fragmentations.is_empty()
    }

    /// Stages one candidate, consuming its layout: the layout's buffers
    /// return to `scratch` and its fragmentation moves into the batch
    /// (re-emerging in [`evaluate_chunk_kernel`]'s output without a clone).
    pub fn push(&mut self, layout: FragmentLayout, scratch: &mut LayoutScratch) {
        if self.attr_offsets.is_empty() {
            self.attr_offsets.push(0);
        }
        self.num_fragments.push(layout.num_fragments());
        for (attr, &card) in layout
            .fragmentation()
            .attributes()
            .iter()
            .zip(layout.radices())
        {
            self.attr_dims.push(attr.dimension);
            self.attr_cards.push(card);
        }
        self.attr_offsets.push(self.attr_dims.len() as u32);
        let fragmentation = layout.recycle(scratch);
        self.fragmentations.push(fragmentation);
    }

    /// Distinct Yao argument triples memoized so far — equivalently,
    /// the number of lane-kernel Yao evaluations across the batch's
    /// lifetime (each distinct triple misses exactly once, up to the
    /// memo cap). Diagnostic for sizing the steady-state miss ratio of
    /// the batched Yao stage.
    pub fn yao_memo_len(&self) -> usize {
        self.yao_memo.len()
    }

    /// Drops all staged candidates, retaining column capacity.
    pub fn clear(&mut self) {
        self.fragmentations.clear();
        self.num_fragments.clear();
        self.attr_offsets.clear();
        self.attr_dims.clear();
        self.attr_cards.clear();
        self.per_query.clear();
    }

    /// The kernel's output columns, padded; exposed for the pad-leak
    /// test.
    #[cfg(test)]
    fn out_columns(&self) -> [&[f64]; 5] {
        [
            &self.out_use_scan,
            &self.out_per_fragment_ms,
            &self.out_fact_pages,
            &self.out_bitmap_pages,
            &self.out_total_ios,
        ]
    }
}

/// Prices every staged candidate against every class of `tables` on
/// `backend`, returning one [`CandidateCost`] per candidate in staging
/// order and draining the batch (column capacity retained for the next
/// chunk). Each cost is [`combine_class_costs`] over the candidate's
/// class rows (see [`evaluate_chunk_rows`]) under the tables' shares and
/// response inputs, plus the per-class detail `detail` asks for.
///
/// Bit-identical to calling
/// [`CostModel::evaluate_layout`](crate::CostModel::evaluate_layout) on
/// each candidate with the model the tables were built from, on either
/// backend (see [`crate::kernel`]).
pub fn evaluate_chunk_kernel(
    tables: &CostTables,
    batch: &mut ChunkBatch,
    detail: PerQueryDetail,
    backend: KernelBackend,
) -> Vec<CandidateCost> {
    let mut rows = Vec::new();
    price_rows(tables, batch, detail, backend, &mut rows);
    let shares: Vec<f64> = tables.classes.iter().map(|class| class.share).collect();
    let k = shares.len();
    let costs = batch
        .fragmentations
        .drain(..)
        .enumerate()
        .map(|(i, fragmentation)| {
            let mut cost = combine_class_costs(
                fragmentation,
                batch.num_fragments[i],
                &rows[i * k..(i + 1) * k],
                &shares,
                tables.num_disks,
                tables.processors,
                tables.overhead,
            );
            if detail == PerQueryDetail::Full {
                cost.per_query = std::mem::take(&mut batch.per_query[i]);
            }
            cost
        })
        .collect();
    batch.clear();
    costs
}

/// Prices every staged candidate against every class of `tables` on
/// `backend` into its **unweighted** per-class cost rows, draining the
/// batch. `class_rows` is cleared first, then holds one flat buffer of
/// `n × k` rows for `n` candidates and `k` classes, candidate by
/// candidate, classes in mix order — so candidate `i`'s rows are
/// `class_rows[i * k..(i + 1) * k]`. The rows carry no share and no disk
/// count, so [`combine_class_costs`] over them reproduces
/// [`evaluate_chunk_kernel`]'s aggregates bit-for-bit under *any* share
/// vector and *any* disk count — the basis of the advisor's re-weight-
/// and disk-warm evaluation memo.
pub fn evaluate_chunk_rows(
    tables: &CostTables,
    batch: &mut ChunkBatch,
    backend: KernelBackend,
    class_rows: &mut Vec<ClassCost>,
) {
    price_rows(tables, batch, PerQueryDetail::Omit, backend, class_rows);
    batch.clear();
}

/// The pricing behind both entry points: fills `class_rows` (see
/// [`evaluate_chunk_rows`]) and, for [`PerQueryDetail::Full`], each
/// candidate's `per_query` rows, leaving the staged candidates in the
/// batch for the caller to drain.
fn price_rows(
    tables: &CostTables,
    batch: &mut ChunkBatch,
    detail: PerQueryDetail,
    backend: KernelBackend,
    class_rows: &mut Vec<ClassCost>,
) {
    let n = batch.fragmentations.len();
    let k = tables.classes.len();
    class_rows.clear();
    class_rows.resize(n * k, ClassCost::default());
    if n == 0 {
        return;
    }
    let n_padded = n.next_multiple_of(LANES);

    // --- Stage A: class-independent geometry, once per candidate -------
    batch.frag_rows_avg.clear();
    batch.frag_rows.clear();
    batch.fragment_pages.clear();
    batch.fact_prefetch.clear();
    batch.scan_ms.clear();
    batch.scan_ios.clear();
    batch.fragment_pages_f.clear();
    batch.vector_pages.clear();
    batch.bitmap_prefetch.clear();
    batch.vector_ms.clear();
    batch.vector_ios.clear();
    batch.vector_pages_f.clear();
    for i in 0..n {
        let avg = tables.fact_rows as f64 / batch.num_fragments[i] as f64;
        let rows = (avg.round() as u64).max(1);
        let pages = tables.page.pages_for_rows(rows, tables.row_bytes).max(1);
        let fact_prefetch = effective_prefetch(tables.fact_prefetch, pages);
        batch.frag_rows_avg.push(avg);
        batch.frag_rows.push(rows);
        batch.fragment_pages.push(pages);
        batch.fragment_pages_f.push(pages as f64);
        batch.fact_prefetch.push(fact_prefetch);
        batch.scan_ms.push(
            tables
                .disk
                .sequential_ms(pages, fact_prefetch, tables.page_bytes),
        );
        batch
            .scan_ios
            .push(tables.disk.sequential_ios(pages, fact_prefetch) as f64);
        let vector_pages = estimate::vector_pages(rows, tables.page);
        let bitmap_prefetch = effective_prefetch(tables.bitmap_prefetch, vector_pages);
        batch.vector_pages.push(vector_pages);
        batch.vector_pages_f.push(vector_pages as f64);
        batch.bitmap_prefetch.push(bitmap_prefetch);
        batch.vector_ms.push(tables.disk.sequential_ms(
            vector_pages,
            bitmap_prefetch,
            tables.page_bytes,
        ));
        batch
            .vector_ios
            .push(tables.disk.sequential_ios(vector_pages, bitmap_prefetch) as f64);
    }
    // Pad the kernel-facing geometry columns with inert lanes.
    batch.scan_ms.resize(n_padded, 0.0);
    batch.scan_ios.resize(n_padded, 0.0);
    batch.fragment_pages_f.resize(n_padded, 0.0);
    batch.vector_ms.resize(n_padded, 0.0);
    batch.vector_ios.resize(n_padded, 0.0);
    batch.vector_pages_f.resize(n_padded, 0.0);

    batch.yao_k.clear();
    batch.yao_k.resize(n, f64::NAN);
    batch.yao_hits.clear();
    batch.yao_hits.resize(n, 0.0);
    batch.out_use_scan.clear();
    batch.out_use_scan.resize(n_padded, 0.0);
    batch.out_per_fragment_ms.clear();
    batch.out_per_fragment_ms.resize(n_padded, 0.0);
    batch.out_fact_pages.clear();
    batch.out_fact_pages.resize(n_padded, 0.0);
    batch.out_bitmap_pages.clear();
    batch.out_bitmap_pages.resize(n_padded, 0.0);
    batch.out_total_ios.clear();
    batch.out_total_ios.resize(n_padded, 0.0);
    batch.per_query.clear();
    if detail == PerQueryDetail::Full {
        batch
            .per_query
            .resize_with(n, || Vec::with_capacity(tables.classes.len()));
    }

    for (c, class) in tables.classes.iter().enumerate() {
        // --- Matching pass: predicates → table entries -----------------
        batch.expected_fragments.clear();
        batch.residual.clear();
        batch.bitmap_vectors.clear();
        batch.indexable.clear();
        for i in 0..n {
            let s = batch.attr_offsets[i] as usize;
            let e = batch.attr_offsets[i + 1] as usize;
            let dims = &batch.attr_dims[s..e];
            let cards = &batch.attr_cards[s..e];
            batch.attr_bitmap.clear();
            let mut expected_fragments = 1.0f64;
            let mut residual = 1.0f64;
            for (&dim, &card) in dims.iter().zip(cards) {
                match class.pred_for(dim) {
                    None => {
                        expected_fragments *= card as f64;
                        batch.attr_bitmap.push(BitmapContrib::Resolved);
                    }
                    Some(pred) => {
                        let entry = pred.entry_for(card);
                        expected_fragments *= entry.matched;
                        residual *= entry.residual_factor;
                        batch.attr_bitmap.push(entry.bitmap);
                    }
                }
            }
            // Residual of unfragmented referenced dimensions, and the
            // bitmap vector count, both in predicate (dimension) order —
            // matching the scalar path's iteration exactly.
            let mut bitmap_vectors = 0.0f64;
            let mut indexable = true;
            for pred in &class.preds {
                let contrib = match dims.iter().position(|&d| d == pred.dimension) {
                    Some(j) => batch.attr_bitmap[j],
                    None => {
                        residual *= pred.residual_unfragmented;
                        pred.unfragmented_bitmap
                    }
                };
                if indexable {
                    match contrib {
                        BitmapContrib::Resolved => {}
                        BitmapContrib::Vectors(v) => bitmap_vectors += v,
                        BitmapContrib::Unindexable => indexable = false,
                    }
                }
            }
            batch.expected_fragments.push(expected_fragments);
            batch.residual.push(residual.min(1.0));
            batch.bitmap_vectors.push(bitmap_vectors);
            batch.indexable.push(if indexable { 1.0 } else { 0.0 });
        }
        batch.expected_fragments.resize(n_padded, 0.0);
        batch.bitmap_vectors.resize(n_padded, 0.0);
        batch.indexable.resize(n_padded, 0.0);

        // --- Yao stage: resolve touched pages per fragment through the
        // per-candidate and persistent memos (scalar gather over the
        // live prefix, in candidate order), batching the memo misses
        // for one lane-kernel call. Misses are re-applied and inserted
        // in gather order, so the memo ends in exactly the state the
        // scalar path leaves it in (a key missed twice in one gather
        // recomputes the same bits — `yao_page_hits` is pure).
        batch.touched.clear();
        batch.touched.resize(n_padded, 0.0);
        batch.miss_idx.clear();
        batch.miss_rows.clear();
        batch.miss_pages.clear();
        batch.miss_k.clear();
        for i in 0..n {
            if batch.indexable[i] == 0.0 {
                // The scan path never consults the bitmap estimate.
                continue;
            }
            let k = batch.frag_rows_avg[i] * batch.residual[i];
            if batch.yao_k[i].to_bits() == k.to_bits() {
                batch.touched[i] = batch.yao_hits[i];
                continue;
            }
            let rows = batch.frag_rows[i];
            let pages = batch.fragment_pages[i];
            match batch.yao_memo.get(&(rows, pages, k.to_bits())) {
                Some(&hits) => {
                    batch.yao_k[i] = k;
                    batch.yao_hits[i] = hits;
                    batch.touched[i] = hits;
                }
                None => {
                    batch.miss_idx.push(i);
                    batch.miss_rows.push(rows);
                    batch.miss_pages.push(pages);
                    batch.miss_k.push(k);
                }
            }
        }
        let misses = batch.miss_idx.len();
        if misses > 0 {
            let m_padded = misses.next_multiple_of(LANES);
            batch.miss_rows.resize(m_padded, 0);
            batch.miss_pages.resize(m_padded, 0);
            batch.miss_k.resize(m_padded, 0.0);
            batch.miss_hits.clear();
            batch.miss_hits.resize(m_padded, 0.0);
            yao_pass(
                &batch.miss_rows,
                &batch.miss_pages,
                &batch.miss_k,
                &mut batch.miss_hits,
            );
            for j in 0..misses {
                let i = batch.miss_idx[j];
                let hits = batch.miss_hits[j];
                if batch.yao_memo.len() < YAO_MEMO_CAP {
                    batch.yao_memo.insert(
                        (
                            batch.miss_rows[j],
                            batch.miss_pages[j],
                            batch.miss_k[j].to_bits(),
                        ),
                        hits,
                    );
                }
                batch.yao_k[i] = batch.miss_k[j];
                batch.yao_hits[i] = hits;
                batch.touched[i] = hits;
            }
        }

        // --- Arithmetic pass: the backend kernel, elementwise ----------
        let inp = CostPassInput {
            fragments: &batch.expected_fragments,
            touched: &batch.touched,
            indexable: &batch.indexable,
            scan_ms: &batch.scan_ms,
            scan_ios: &batch.scan_ios,
            fragment_pages: &batch.fragment_pages_f,
            vector_ms: &batch.vector_ms,
            vector_ios: &batch.vector_ios,
            vector_pages: &batch.vector_pages_f,
            bitmap_vectors: &batch.bitmap_vectors,
            random_page_ms: tables.random_page_ms,
        };
        let mut out = CostPassOutput {
            out_use_scan: &mut batch.out_use_scan,
            out_per_fragment_ms: &mut batch.out_per_fragment_ms,
            out_fact_pages: &mut batch.out_fact_pages,
            out_bitmap_pages: &mut batch.out_bitmap_pages,
            out_total_ios: &mut batch.out_total_ios,
        };
        backend.cost_pass(&inp, &mut out);

        // Gather the unweighted, disk-free per-class rows before the
        // next class overwrites the output columns. `pages` is the
        // scalar path's `fact_pages + bitmap_pages` add.
        for (i, row) in class_rows.iter_mut().skip(c).step_by(k).enumerate() {
            *row = ClassCost {
                fragments: batch.expected_fragments[i],
                per_fragment_ms: batch.out_per_fragment_ms[i],
                total_ios: batch.out_total_ios[i],
                pages: batch.out_fact_pages[i] + batch.out_bitmap_pages[i],
            };
        }

        if detail == PerQueryDetail::Omit {
            continue;
        }
        for (i, row) in class_rows.iter().skip(c).step_by(k).enumerate() {
            batch.per_query[i].push(QueryCost {
                query_name: class.name.clone(),
                path: if batch.out_use_scan[i] != 0.0 {
                    AccessPath::FullScan
                } else {
                    AccessPath::BitmapFetch
                },
                fragments_accessed: batch.expected_fragments[i],
                fragment_pages: batch.fragment_pages[i],
                fact_pages: batch.out_fact_pages[i],
                bitmap_pages: batch.out_bitmap_pages[i],
                total_ios: batch.out_total_ios[i],
                busy_ms: row.busy_ms(),
                per_fragment_ms: row.per_fragment_ms,
                response_ms: estimated_response_ms(
                    row.fragments,
                    row.per_fragment_ms,
                    tables.num_disks,
                    tables.processors,
                    tables.overhead,
                ),
                fact_prefetch: batch.fact_prefetch[i],
                bitmap_prefetch: batch.bitmap_prefetch[i],
                selected_rows: class.selected_rows,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{combined_io_cost_ms, CostModel};
    use warlock_bitmap::{BitmapScheme, SchemeConfig};
    use warlock_schema::{apb1_like_schema, Apb1Config, StarSchema};
    use warlock_storage::SystemConfig;
    use warlock_workload::{apb1_like_mix, QueryMix};

    struct Fixture {
        schema: StarSchema,
        system: SystemConfig,
        scheme: BitmapScheme,
        mix: QueryMix,
    }

    fn fixture() -> Fixture {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let scheme = BitmapScheme::derive(&schema, &mix, SchemeConfig::default());
        let system = SystemConfig::default_2001(16);
        Fixture {
            schema,
            system,
            scheme,
            mix,
        }
    }

    fn candidates() -> Vec<Fragmentation> {
        vec![
            Fragmentation::none(),
            Fragmentation::from_pairs(&[(2, 2)]).unwrap(),
            Fragmentation::from_pairs(&[(0, 4), (2, 2)]).unwrap(),
            Fragmentation::from_pairs(&[(3, 0)]).unwrap(),
            Fragmentation::from_ranged_pairs(&[(2, 2, 3), (3, 0, 1)]).unwrap(),
            Fragmentation::from_pairs(&[(0, 1), (1, 0), (2, 1)]).unwrap(),
        ]
    }

    /// Stages `frags` into `batch` under `model`'s fact table.
    fn stage(
        model: &CostModel<'_>,
        frags: &[Fragmentation],
        scratch: &mut LayoutScratch,
        batch: &mut ChunkBatch,
    ) {
        for frag in frags {
            let layout =
                FragmentLayout::new_in(scratch, model.schema(), frag.clone(), model.fact_index());
            batch.push(layout, scratch);
        }
    }

    /// [`evaluate_chunk_kernel`] with full detail on this CPU's backend.
    fn evaluate_full(tables: &CostTables, batch: &mut ChunkBatch) -> Vec<CandidateCost> {
        evaluate_chunk_kernel(tables, batch, PerQueryDetail::Full, KernelBackend::detect())
    }

    #[test]
    fn chunk_matches_scalar_bit_for_bit() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[3]);
        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        stage(&model, &candidates(), &mut scratch, &mut batch);
        let batched = evaluate_full(&tables, &mut batch);
        assert!(batch.is_empty(), "evaluation must drain the batch");
        let scalar: Vec<_> = candidates()
            .iter()
            .map(|frag| model.evaluate(frag))
            .collect();
        assert_eq!(batched.len(), scalar.len());
        for (b, s) in batched.iter().zip(&scalar) {
            assert_eq!(b, s);
            assert_eq!(b.io_cost_ms.to_bits(), s.io_cost_ms.to_bits());
            assert_eq!(b.response_ms.to_bits(), s.response_ms.to_bits());
            assert_eq!(b.total_ios.to_bits(), s.total_ios.to_bits());
            assert_eq!(b.total_pages.to_bits(), s.total_pages.to_bits());
            for (bq, sq) in b.per_query.iter().zip(&s.per_query) {
                assert_eq!(bq.busy_ms.to_bits(), sq.busy_ms.to_bits());
                assert_eq!(bq.response_ms.to_bits(), sq.response_ms.to_bits());
                assert_eq!(bq.selected_rows.to_bits(), sq.selected_rows.to_bits());
            }
        }
    }

    #[test]
    fn every_backend_matches_scalar_bit_for_bit() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[3]);
        let scalar: Vec<_> = candidates()
            .iter()
            .map(|frag| model.evaluate(frag))
            .collect();
        for backend in [KernelBackend::Scalar, KernelBackend::detect()] {
            let mut scratch = LayoutScratch::new();
            let mut batch = ChunkBatch::new();
            stage(&model, &candidates(), &mut scratch, &mut batch);
            let batched = evaluate_chunk_kernel(&tables, &mut batch, PerQueryDetail::Full, backend);
            assert_eq!(batched.len(), scalar.len());
            for (b, s) in batched.iter().zip(&scalar) {
                assert_eq!(b, s, "backend {}", backend.name());
                assert_eq!(b.io_cost_ms.to_bits(), s.io_cost_ms.to_bits());
                assert_eq!(b.response_ms.to_bits(), s.response_ms.to_bits());
                assert_eq!(b.total_ios.to_bits(), s.total_ios.to_bits());
                assert_eq!(b.total_pages.to_bits(), s.total_pages.to_bits());
            }
        }
    }

    #[test]
    fn padded_tail_lanes_stay_inert() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = model.tables();
        let k = tables.classes.len();
        let shares: Vec<f64> = f.mix.iter().map(|(_, share)| share).collect();
        for backend in [KernelBackend::Scalar, KernelBackend::detect()] {
            let mut scratch = LayoutScratch::new();
            let mut batch = ChunkBatch::new();
            // Deliberately ragged sizes (1, 2, 3, 5, 6) so every pad
            // width short of a full block occurs.
            for take in [1usize, 2, 3, 5, 6] {
                let frags: Vec<_> = candidates().into_iter().take(take).collect();
                let n_padded = take.next_multiple_of(LANES);
                // Pad lanes are a forced scan priced at exactly +0.0
                // in every other output column.
                let assert_inert_pads = |batch: &ChunkBatch| {
                    let [use_scan, priced @ ..] = batch.out_columns();
                    for (c, col) in priced.iter().chain([&use_scan]).enumerate() {
                        assert_eq!(col.len(), n_padded, "column {c}");
                    }
                    for i in take..n_padded {
                        assert_eq!(use_scan[i], 1.0, "backend {}", backend.name());
                        for (c, col) in priced.iter().enumerate() {
                            assert_eq!(
                                col[i].to_bits(),
                                0.0f64.to_bits(),
                                "backend {}: pad lane {i} leaked into output column {c}",
                                backend.name()
                            );
                        }
                    }
                };

                // Costs: exactly one per live candidate, scalar-equal.
                stage(&model, &frags, &mut scratch, &mut batch);
                let costs =
                    evaluate_chunk_kernel(&tables, &mut batch, PerQueryDetail::Full, backend);
                assert_eq!(costs.len(), take);
                for (b, frag) in costs.iter().zip(&frags) {
                    assert_eq!(b, &model.evaluate(frag), "backend {}", backend.name());
                }
                assert_inert_pads(&batch);

                // Gathered rows: exactly `k` per live candidate, none for
                // a pad lane, and they weigh into the scalar aggregates.
                stage(&model, &frags, &mut scratch, &mut batch);
                let mut rows = vec![ClassCost::default(); 99];
                evaluate_chunk_rows(&tables, &mut batch, backend, &mut rows);
                assert_eq!(rows.len(), take * k);
                for (row, cost) in rows.chunks_exact(k).zip(&costs) {
                    assert_eq!(
                        combined_io_cost_ms(row, &shares).to_bits(),
                        cost.io_cost_ms.to_bits()
                    );
                }
                assert_inert_pads(&batch);

                // Pad lanes never touch the Yao memo (inert `rows = 0`
                // pads would have inserted `(0, 0, 0)` keys).
                assert!(!batch.yao_memo.contains_key(&(0, 0, 0.0f64.to_bits())));
            }
        }
    }

    #[test]
    fn batch_reuse_across_chunks_is_clean() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = model.tables();
        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        // Two rounds over the same batch: wide chunk first, then a
        // single-candidate chunk — stale columns must not leak.
        for round in 0..2 {
            let frags = if round == 0 {
                candidates()
            } else {
                vec![Fragmentation::from_pairs(&[(2, 1)]).unwrap()]
            };
            stage(&model, &frags, &mut scratch, &mut batch);
            let batched = evaluate_full(&tables, &mut batch);
            for (b, frag) in batched.iter().zip(&frags) {
                assert_eq!(b, &model.evaluate(frag), "round {round}");
            }
        }
    }

    #[test]
    fn omitted_detail_keeps_aggregates_bit_identical() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[3]);
        let mut scratch = LayoutScratch::new();
        let mut batch = ChunkBatch::new();
        stage(&model, &candidates(), &mut scratch, &mut batch);
        let lean = evaluate_chunk_kernel(
            &tables,
            &mut batch,
            PerQueryDetail::Omit,
            KernelBackend::detect(),
        );
        for (l, frag) in lean.iter().zip(candidates()) {
            let s = model.evaluate(&frag);
            assert!(l.per_query.is_empty());
            assert_eq!(l.io_cost_ms.to_bits(), s.io_cost_ms.to_bits());
            assert_eq!(l.response_ms.to_bits(), s.response_ms.to_bits());
            assert_eq!(l.total_ios.to_bits(), s.total_ios.to_bits());
            assert_eq!(l.total_pages.to_bits(), s.total_pages.to_bits());
            assert_eq!(l.fragmentation, s.fragmentation);
        }
        // Interleaving detail levels over the same batch (and its
        // persistent Yao memo) must not perturb the full output.
        stage(&model, &candidates(), &mut scratch, &mut batch);
        let full = evaluate_full(&tables, &mut batch);
        for (b, frag) in full.iter().zip(candidates()) {
            assert_eq!(b, &model.evaluate(&frag));
        }
    }

    #[test]
    fn gathered_class_rows_recombine_bit_identically_under_any_weights() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = CostTables::build(&model, &[3]);
        // Re-weight the same classes: structure identical, shares not.
        let mut builder = QueryMix::builder();
        for (i, w) in f.mix.classes().iter().enumerate() {
            builder = builder.class(w.class.clone(), 1.0 + (i as f64) * 2.5);
        }
        let reweighted = builder.build().unwrap();
        assert_eq!(
            model.structure_fingerprint(),
            CostModel::new(&f.schema, &f.system, &f.scheme, &reweighted).structure_fingerprint(),
            "a pure re-weight must keep the structure fingerprint"
        );

        for backend in [KernelBackend::Scalar, KernelBackend::detect()] {
            let mut scratch = LayoutScratch::new();
            let mut batch = ChunkBatch::new();
            stage(&model, &candidates(), &mut scratch, &mut batch);
            let mut rows = Vec::new();
            evaluate_chunk_rows(&tables, &mut batch, backend, &mut rows);
            let k = f.mix.len();
            assert_eq!(rows.len(), candidates().len() * k);
            // Rows gathered on 16 disks recombine on any disk count,
            // including one and more than any candidate has fragments.
            for disks in [1, 7, 16, 64, 100_000] {
                let mut system = f.system;
                system.num_disks = disks;
                for mix in [&f.mix, &reweighted] {
                    let model_at = CostModel::new(&f.schema, &system, &f.scheme, mix);
                    let shares: Vec<f64> = mix.iter().map(|(_, s)| s).collect();
                    for (frag, row) in candidates().into_iter().zip(rows.chunks_exact(k)) {
                        assert_eq!(row.len(), mix.len());
                        let fresh = model_at.evaluate(&frag);
                        let combined = combine_class_costs(
                            frag,
                            fresh.num_fragments,
                            row,
                            &shares,
                            disks,
                            system.architecture.total_processors(),
                            system.architecture.overhead_factor(),
                        );
                        let at = format!("backend {} disks {disks}", backend.name());
                        assert_eq!(
                            combined.io_cost_ms.to_bits(),
                            fresh.io_cost_ms.to_bits(),
                            "{at}"
                        );
                        assert_eq!(
                            combined_io_cost_ms(row, &shares).to_bits(),
                            fresh.io_cost_ms.to_bits(),
                            "{at}"
                        );
                        assert_eq!(
                            combined.response_ms.to_bits(),
                            fresh.response_ms.to_bits(),
                            "{at}"
                        );
                        assert_eq!(combined.total_ios.to_bits(), fresh.total_ios.to_bits());
                        assert_eq!(combined.total_pages.to_bits(), fresh.total_pages.to_bits());
                        assert_eq!(combined.num_fragments, fresh.num_fragments);
                    }
                }
            }
        }
    }

    #[test]
    fn structure_fingerprint_tracks_structural_changes_only() {
        let f = fixture();
        let base = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        // Dropping a class is structural.
        let smaller = f
            .mix
            .without_class(f.mix.classes()[0].class.name())
            .unwrap();
        assert_ne!(
            base.structure_fingerprint(),
            CostModel::new(&f.schema, &f.system, &f.scheme, &smaller).structure_fingerprint()
        );
        // So is a system change other than the disk count.
        let mut other_system = f.system;
        other_system.disk.transfer_mb_per_s *= 2.0;
        assert_ne!(
            base.structure_fingerprint(),
            CostModel::new(&f.schema, &other_system, &f.scheme, &f.mix).structure_fingerprint()
        );
        // And a scheme change.
        let reduced = f
            .scheme
            .without_dimension(warlock_schema::DimensionId(0))
            .unwrap();
        assert_ne!(
            base.structure_fingerprint(),
            CostModel::new(&f.schema, &f.system, &reduced, &f.mix).structure_fingerprint()
        );
        // The disk count is not: class rows are disk-free.
        let mut more_disks = f.system;
        more_disks.num_disks += 1;
        assert_eq!(
            base.structure_fingerprint(),
            CostModel::new(&f.schema, &more_disks, &f.scheme, &f.mix).structure_fingerprint()
        );
        // And it is deterministic.
        assert_eq!(
            base.structure_fingerprint(),
            CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix).structure_fingerprint()
        );
    }

    #[test]
    fn empty_chunk_is_a_noop() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let tables = model.tables();
        let mut batch = ChunkBatch::new();
        assert!(evaluate_full(&tables, &mut batch).is_empty());
    }
}
