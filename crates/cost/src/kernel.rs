//! Lane-structured costing kernels, one backend per CPU.
//!
//! The batched evaluator ([`evaluate_chunk_rows`](crate::batch::evaluate_chunk_rows))
//! prices a chunk in two phases per query class: an irregular matching
//! pass (table lookups) and a straight-line arithmetic pass over `f64`
//! columns. This module owns the arithmetic pass — restructured into
//! fixed-width lane blocks of [`LANES`] candidates, operated on only
//! **elementwise**, so results are bit-identical at any lane width *by
//! construction* — plus the lane-batched Yao/Cardenas page-hit
//! evaluation ([`yao_pass`]) that feeds it.
//!
//! The arithmetic pass prices one unweighted class row per candidate:
//! the access path and its per-fragment time, I/Os and pages. It never
//! sees a mix share, the disk count, the processors or the coordination
//! overhead: busy time, response time and the mix-weighted aggregates
//! are derived from the rows by
//! [`combine_class_costs`](crate::model::combine_class_costs).
//!
//! Two [`KernelBackend`]s run the arithmetic pass, chosen by the CPU
//! alone ([`KernelBackend::detect`]):
//!
//! * **scalar** — the reference implementation: the exact per-candidate
//!   expression sequence of the scalar
//!   [`estimate_query`](crate::access::estimate_query) path, branches
//!   and all. Runs everywhere and is the test oracle.
//! * **avx2** — explicit `std::arch` AVX2 intrinsics (x86_64 only), used
//!   when `is_x86_feature_detected!("avx2")` holds. Uses separate
//!   multiply and add everywhere (never FMA — fusing changes rounding),
//!   and ordered comparisons plus blends for the access-path select,
//!   which pick exactly the arm the scalar branch takes.
//!
//! Both backends share the one Yao pass. Equivalence is pinned
//! bit-for-bit by the unit tests here and the `batched_equivalence`
//! proptests in `xtests`.

/// Fixed lane width of the blocked kernels. Columns are padded to a
/// multiple of this; AVX2 operates on exactly one block per vector.
pub const LANES: usize = 4;

// ---------------------------------------------------------------------
// Aligned column storage
// ---------------------------------------------------------------------

/// One cache line of column data; the allocation unit of
/// [`AlignedF64Col`].
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, Default)]
struct CacheLine([f64; 8]);

/// A growable `f64` column whose backing buffer starts on a 64-byte
/// cache-line boundary and is always a whole number of cache lines.
///
/// Because 64 is a multiple of `LANES * 8` bytes, every lane block of a
/// padded column is 32-byte aligned — vector loads never split a cache
/// line. Alignment is a *performance* property, not a safety contract:
/// the kernels use unaligned load instructions and accept any `&[f64]`.
///
/// Dereferences to `[f64]`, so call sites index it like a `Vec<f64>`.
#[derive(Debug, Default)]
pub struct AlignedF64Col {
    buf: Vec<CacheLine>,
    len: usize,
}

impl AlignedF64Col {
    /// An empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all elements, retaining the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends one element.
    pub fn push(&mut self, v: f64) {
        if self.len == self.buf.len() * 8 {
            self.buf.push(CacheLine::default());
        }
        let line = self.len / 8;
        self.buf[line].0[self.len % 8] = v;
        self.len += 1;
    }

    /// Resizes to `n` elements, filling any growth with `fill`.
    pub fn resize(&mut self, n: usize, fill: f64) {
        self.buf.resize(n.div_ceil(8), CacheLine::default());
        while self.len < n {
            let line = self.len / 8;
            self.buf[line].0[self.len % 8] = fill;
            self.len += 1;
        }
        self.len = n;
    }

    /// The live elements as a slice.
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: `buf` holds at least `len.div_ceil(8)` contiguous
        // `CacheLine`s, each exactly eight `f64`s with no padding
        // (`repr(C)`), so the first `len` `f64`s are initialized and
        // in bounds.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast::<f64>(), self.len) }
    }

    /// The live elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as `as_slice`, plus exclusive access via `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.buf.as_mut_ptr().cast::<f64>(), self.len) }
    }
}

impl std::ops::Deref for AlignedF64Col {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedF64Col {
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

// ---------------------------------------------------------------------
// Backend choice and resolution
// ---------------------------------------------------------------------

/// The legacy `kernel =` config-file key, kept so existing files parse.
///
/// The backend is chosen by the CPU alone, so the only value is `Auto`.
/// Parsing still accepts the former spellings `auto | scalar | lanes |
/// avx2` (all mapping to `Auto`) and rejects anything else.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Use [`KernelBackend::detect`].
    #[default]
    Auto,
}

impl KernelChoice {
    /// The config-file spelling.
    pub fn as_str(self) -> &'static str {
        "auto"
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for KernelChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "scalar" | "lanes" | "avx2" => Ok(Self::Auto),
            other => Err(format!(
                "unknown kernel `{other}` (expected auto, scalar, lanes or avx2)"
            )),
        }
    }
}

/// A runnable arithmetic-pass backend. Both produce bit-identical
/// results; [`detect`](Self::detect) picks the fastest this CPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Scalar reference kernel.
    Scalar,
    /// AVX2 intrinsic kernel. Runs the scalar kernel instead on a CPU
    /// (or target) without AVX2.
    Avx2,
}

impl KernelBackend {
    /// The backend for a configured choice: always [`detect`](Self::detect).
    pub fn resolve(_choice: KernelChoice) -> Self {
        Self::detect()
    }

    /// The best backend this CPU supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return Self::Avx2;
            }
        }
        Self::Scalar
    }

    /// Stable lowercase name (for logs, benches, reports).
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }

    /// Runs the arithmetic pass for one query class over all (padded)
    /// candidates.
    ///
    /// # Panics
    ///
    /// Unless every column of `inp` and `out` has one length, and that
    /// length is a multiple of [`LANES`].
    pub fn cost_pass(self, inp: &CostPassInput<'_>, out: &mut CostPassOutput<'_>) {
        let n = inp.fragments.len();
        let lens = [
            inp.touched.len(),
            inp.indexable.len(),
            inp.scan_ms.len(),
            inp.scan_ios.len(),
            inp.fragment_pages.len(),
            inp.vector_ms.len(),
            inp.vector_ios.len(),
            inp.vector_pages.len(),
            inp.bitmap_vectors.len(),
            out.out_use_scan.len(),
            out.out_per_fragment_ms.len(),
            out.out_fact_pages.len(),
            out.out_bitmap_pages.len(),
            out.out_total_ios.len(),
        ];
        assert!(
            n.is_multiple_of(LANES) && lens.iter().all(|&len| len == n),
            "cost pass columns must share one length that is a multiple of {LANES}"
        );
        match self {
            Self::Scalar => scalar_cost_pass(inp, out),
            Self::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if is_x86_feature_detected!("avx2") {
                        // SAFETY: the CPU supports AVX2 (checked just
                        // above), and every column holds `n` elements
                        // with `n` a multiple of `LANES` (asserted
                        // above), so each 4-lane load and store is in
                        // bounds.
                        unsafe { avx2_cost_pass(inp, out) };
                        return;
                    }
                }
                scalar_cost_pass(inp, out);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pass columns
// ---------------------------------------------------------------------

/// Input columns of one arithmetic pass, plus the one hoisted scalar.
///
/// All slices have the same padded length, a multiple of [`LANES`];
/// padded tail lanes hold inert zeros that produce finite, ignored
/// outputs.
#[derive(Debug)]
pub struct CostPassInput<'a> {
    /// Expected fragments accessed per candidate (`A` in the paper).
    pub fragments: &'a [f64],
    /// Yao page hits per fragment; `0.0` wherever a candidate is not
    /// bitmap-indexable for this class.
    pub touched: &'a [f64],
    /// `1.0` where every residual predicate has a covering bitmap,
    /// `0.0` otherwise.
    pub indexable: &'a [f64],
    /// Sequential full-scan time per fragment (ms).
    pub scan_ms: &'a [f64],
    /// Sequential full-scan I/O count per fragment.
    pub scan_ios: &'a [f64],
    /// Fragment size in pages (as `f64`).
    pub fragment_pages: &'a [f64],
    /// Sequential read time of one bitmap vector (ms).
    pub vector_ms: &'a [f64],
    /// Sequential I/O count of one bitmap vector.
    pub vector_ios: &'a [f64],
    /// Bitmap vector size in pages (as `f64`).
    pub vector_pages: &'a [f64],
    /// Bitmap vectors this class reads per fragment.
    pub bitmap_vectors: &'a [f64],
    /// Random page access time (ms).
    pub random_page_ms: f64,
}

/// Output columns of one arithmetic pass: one class row per candidate,
/// fully overwritten. Same padded length as the inputs.
#[derive(Debug)]
pub struct CostPassOutput<'a> {
    /// `1.0` where the scan path wins (or is forced), `0.0` for the
    /// bitmap-fetch path.
    pub out_use_scan: &'a mut [f64],
    /// Chosen per-fragment device time (ms).
    pub out_per_fragment_ms: &'a mut [f64],
    /// Fact-table pages read.
    pub out_fact_pages: &'a mut [f64],
    /// Bitmap pages read.
    pub out_bitmap_pages: &'a mut [f64],
    /// Total I/O operations.
    pub out_total_ios: &'a mut [f64],
}

// ---------------------------------------------------------------------
// Scalar backend (reference)
// ---------------------------------------------------------------------

/// The reference arithmetic pass: the exact expression sequence (branches
/// and all) of the scalar `estimate_query` path, one candidate at a time.
fn scalar_cost_pass(inp: &CostPassInput<'_>, out: &mut CostPassOutput<'_>) {
    let n = inp.fragments.len();
    for i in 0..n {
        let fragments = inp.fragments[i];
        let touched = inp.touched[i];
        let indexable = inp.indexable[i] != 0.0;
        let fetch_ms = touched * inp.random_page_ms;
        let bitmap_ms = inp.bitmap_vectors[i] * inp.vector_ms[i] + fetch_ms;
        let use_scan = !indexable || inp.scan_ms[i] <= bitmap_ms;
        let (per_fragment_ms, ios_pf, fact_pages_pf, bitmap_pages_pf) = if use_scan {
            (inp.scan_ms[i], inp.scan_ios[i], inp.fragment_pages[i], 0.0)
        } else {
            let bitmap_ios = inp.bitmap_vectors[i] * inp.vector_ios[i] + touched;
            let bitmap_pages_pf = inp.bitmap_vectors[i] * inp.vector_pages[i];
            (bitmap_ms, bitmap_ios, touched, bitmap_pages_pf)
        };
        out.out_use_scan[i] = if use_scan { 1.0 } else { 0.0 };
        out.out_per_fragment_ms[i] = per_fragment_ms;
        out.out_fact_pages[i] = fragments * fact_pages_pf;
        out.out_bitmap_pages[i] = fragments * bitmap_pages_pf;
        out.out_total_ios[i] = fragments * ios_pf;
    }
}

// ---------------------------------------------------------------------
// Yao pass (shared by both backends)
// ---------------------------------------------------------------------

/// Evaluates `hits[j] = yao_page_hits(rows[j], pages[j], k[j])` for a
/// gathered block of memo misses, bit-identically.
///
/// Classification, rounding and clamping run per lane; the Cardenas
/// `m · (1 − (1 − 1/m)^k)` scaffold is elementwise over the block; the
/// transcendental `powf` and the exact-Yao product recurrence stay per
/// element (they are inherently sequential per lane and dominate
/// regardless of ISA — which is why both backends share this pass).
/// Padded tail entries use `rows = 0` (inert: yields `0.0`).
///
/// # Panics
///
/// Unless all four slices have one length that is a multiple of
/// [`LANES`].
pub fn yao_pass(rows: &[u64], pages: &[u64], k: &[f64], hits: &mut [f64]) {
    let n = rows.len();
    assert!(
        n.is_multiple_of(LANES) && pages.len() == n && k.len() == n && hits.len() == n,
        "Yao pass columns must share one length that is a multiple of {LANES}"
    );
    let mut base = 0;
    while base < n {
        let mut cardenas = [false; LANES];
        let mut m = [1.0f64; LANES];
        let mut e = [0.0f64; LANES];
        for l in 0..LANES {
            let (r, p, kv) = (rows[base + l], pages[base + l], k[base + l]);
            if r == 0 || p == 0 || kv <= 0.0 {
                hits[base + l] = 0.0;
            } else if r.is_multiple_of(p) {
                let k_int = (kv.round() as u64).clamp(1, r);
                hits[base + l] = warlock_fragment::expected_distinct_groups(r, p, k_int);
            } else {
                cardenas[l] = true;
                m[l] = p as f64;
                e[l] = kv.min(r as f64);
            }
        }
        let mut base_pow = [0.0f64; LANES];
        let mut pw = [0.0f64; LANES];
        for l in 0..LANES {
            base_pow[l] = 1.0 - 1.0 / m[l];
        }
        for l in 0..LANES {
            pw[l] = base_pow[l].powf(e[l]);
        }
        for l in 0..LANES {
            if cardenas[l] {
                hits[base + l] = m[l] * (1.0 - pw[l]);
            }
        }
        base += LANES;
    }
}

// ---------------------------------------------------------------------
// AVX2 backend (x86_64)
// ---------------------------------------------------------------------

/// The AVX2 arithmetic pass: one 4-lane block per iteration, separate
/// `vmulpd` + `vaddpd` (never FMA), and ordered compares + `vblendvpd`
/// for the access-path select.
///
/// # Safety
///
/// The CPU must support AVX2, and every column of `inp` and `out` must
/// hold `inp.fragments.len()` elements, a multiple of [`LANES`]
/// ([`KernelBackend::cost_pass`] checks both).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_cost_pass(inp: &CostPassInput<'_>, out: &mut CostPassOutput<'_>) {
    use std::arch::x86_64::*;

    let n = inp.fragments.len();
    let zero = _mm256_setzero_pd();
    let one = _mm256_set1_pd(1.0);
    let rpms = _mm256_set1_pd(inp.random_page_ms);

    let mut i = 0;
    while i < n {
        let frag = _mm256_loadu_pd(inp.fragments.as_ptr().add(i));
        let touched = _mm256_loadu_pd(inp.touched.as_ptr().add(i));
        let idx = _mm256_loadu_pd(inp.indexable.as_ptr().add(i));
        let scan_ms = _mm256_loadu_pd(inp.scan_ms.as_ptr().add(i));
        let scan_ios = _mm256_loadu_pd(inp.scan_ios.as_ptr().add(i));
        let fpages = _mm256_loadu_pd(inp.fragment_pages.as_ptr().add(i));
        let vms = _mm256_loadu_pd(inp.vector_ms.as_ptr().add(i));
        let vios = _mm256_loadu_pd(inp.vector_ios.as_ptr().add(i));
        let vpages = _mm256_loadu_pd(inp.vector_pages.as_ptr().add(i));
        let bv = _mm256_loadu_pd(inp.bitmap_vectors.as_ptr().add(i));

        // bitmap_ms = bv·vector_ms + touched·random_page_ms (unfused).
        let fetch_ms = _mm256_mul_pd(touched, rpms);
        let bitmap_ms = _mm256_add_pd(_mm256_mul_pd(bv, vms), fetch_ms);
        // use_scan = (indexable == 0) | (scan_ms <= bitmap_ms)
        let not_idx = _mm256_cmp_pd::<_CMP_EQ_OQ>(idx, zero);
        let scan_le = _mm256_cmp_pd::<_CMP_LE_OQ>(scan_ms, bitmap_ms);
        let scan_mask = _mm256_or_pd(not_idx, scan_le);
        // Both arms are always finite; select per lane.
        let bitmap_ios = _mm256_add_pd(_mm256_mul_pd(bv, vios), touched);
        let bitmap_pages_pf = _mm256_mul_pd(bv, vpages);
        let pf = _mm256_blendv_pd(bitmap_ms, scan_ms, scan_mask);
        let ios_pf = _mm256_blendv_pd(bitmap_ios, scan_ios, scan_mask);
        let fact_pf = _mm256_blendv_pd(touched, fpages, scan_mask);
        let bpages_pf = _mm256_blendv_pd(bitmap_pages_pf, zero, scan_mask);

        _mm256_storeu_pd(
            out.out_use_scan.as_mut_ptr().add(i),
            _mm256_and_pd(one, scan_mask),
        );
        _mm256_storeu_pd(out.out_per_fragment_ms.as_mut_ptr().add(i), pf);
        _mm256_storeu_pd(
            out.out_fact_pages.as_mut_ptr().add(i),
            _mm256_mul_pd(frag, fact_pf),
        );
        _mm256_storeu_pd(
            out.out_bitmap_pages.as_mut_ptr().add(i),
            _mm256_mul_pd(frag, bpages_pf),
        );
        _mm256_storeu_pd(
            out.out_total_ios.as_mut_ptr().add(i),
            _mm256_mul_pd(frag, ios_pf),
        );

        i += LANES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yao::yao_page_hits;

    /// Deterministic pseudo-random stream (splitmix64) for synthesizing
    /// kernel inputs without a dev-dependency.
    struct Mix(u64);
    impl Mix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        /// Uniform-ish in `[0, hi)`.
        fn f(&mut self, hi: f64) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * hi
        }
    }

    fn synth_input(seed: u64, n: usize) -> Vec<Vec<f64>> {
        let mut rng = Mix(seed);
        let mut cols: Vec<Vec<f64>> = (0..10).map(|_| Vec::with_capacity(n)).collect();
        for _ in 0..n {
            cols[0].push((rng.f(500.0) + 1.0).floor()); // fragments
            let indexable = !rng.next_u64().is_multiple_of(4);
            cols[2].push(if indexable { 1.0 } else { 0.0 });
            cols[1].push(if indexable { rng.f(200.0) } else { 0.0 }); // touched
            cols[3].push(rng.f(50.0)); // scan_ms
            cols[4].push((rng.f(100.0) + 1.0).floor()); // scan_ios
            cols[5].push((rng.f(4000.0) + 1.0).floor()); // fragment_pages
            cols[6].push(rng.f(3.0)); // vector_ms
            cols[7].push((rng.f(8.0) + 1.0).floor()); // vector_ios
            cols[8].push((rng.f(64.0) + 1.0).floor()); // vector_pages
            cols[9].push(rng.f(4.0)); // bitmap_vectors
        }
        cols
    }

    fn run_backend(backend: KernelBackend, cols: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = cols[0].len();
        let inp = CostPassInput {
            fragments: &cols[0],
            touched: &cols[1],
            indexable: &cols[2],
            scan_ms: &cols[3],
            scan_ios: &cols[4],
            fragment_pages: &cols[5],
            vector_ms: &cols[6],
            vector_ios: &cols[7],
            vector_pages: &cols[8],
            bitmap_vectors: &cols[9],
            random_page_ms: 10.3,
        };
        // Outputs pre-filled with garbage: every slot must be overwritten.
        let mut outs: Vec<Vec<f64>> = vec![vec![-7.5; n]; 5];
        if let [o0, o1, o2, o3, o4] = &mut outs[..] {
            let mut out = CostPassOutput {
                out_use_scan: o0,
                out_per_fragment_ms: o1,
                out_fact_pages: o2,
                out_bitmap_pages: o3,
                out_total_ios: o4,
            };
            backend.cost_pass(&inp, &mut out);
        }
        outs
    }

    #[test]
    fn lane_backends_match_scalar_bit_for_bit() {
        // `Avx2` is also built by hand here: off AVX2 hardware it must
        // fall back to the scalar kernel rather than fault.
        for seed in 0..8u64 {
            let cols = synth_input(seed, 64);
            let reference = run_backend(KernelBackend::Scalar, &cols);
            assert!(reference.iter().flatten().all(|v| *v != -7.5));
            for backend in [KernelBackend::detect(), KernelBackend::Avx2] {
                let got = run_backend(backend, &cols);
                for (c, (a, b)) in reference.iter().zip(&got).enumerate() {
                    for i in 0..a.len() {
                        assert_eq!(
                            a[i].to_bits(),
                            b[i].to_bits(),
                            "seed {seed} backend {} column {c} row {i}: {} != {}",
                            backend.name(),
                            a[i],
                            b[i],
                        );
                    }
                }
            }
        }
    }

    fn unpadded(backend: KernelBackend) {
        run_backend(backend, &synth_input(1, 5));
    }

    fn mismatched(backend: KernelBackend) {
        let mut cols = synth_input(1, 8);
        cols[9].truncate(LANES);
        run_backend(backend, &cols);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn scalar_rejects_unpadded_columns() {
        unpadded(KernelBackend::Scalar);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn avx2_rejects_unpadded_columns() {
        unpadded(KernelBackend::Avx2);
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn scalar_rejects_mismatched_columns() {
        mismatched(KernelBackend::Scalar);
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn avx2_rejects_mismatched_columns() {
        mismatched(KernelBackend::Avx2);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn yao_pass_rejects_unpadded_columns() {
        yao_pass(&[1; 5], &[1; 5], &[1.0; 5], &mut [0.0; 5]);
    }

    #[test]
    fn yao_pass_matches_elementwise_reference() {
        let mut rng = Mix(7);
        let mut rows = Vec::new();
        let mut pages = Vec::new();
        let mut k = Vec::new();
        for _ in 0..64 {
            // Mix exact-Yao (divisible) and Cardenas (non-divisible)
            // shapes, plus degenerate zeros.
            let p = rng.next_u64() % 50;
            let r = match rng.next_u64() % 3 {
                0 => p * (1 + rng.next_u64() % 40), // divisible
                1 => p * 7 + 3,                     // non-divisible
                _ => 0,
            };
            rows.push(r);
            pages.push(p);
            k.push(rng.f(300.0) - 1.0);
        }
        let mut got = vec![0.0; 64];
        yao_pass(&rows, &pages, &k, &mut got);
        for j in 0..64 {
            let want = yao_page_hits(rows[j], pages[j], k[j]);
            assert_eq!(got[j].to_bits(), want.to_bits(), "j={j}");
        }
    }

    #[test]
    fn choice_parses_and_displays() {
        for s in ["auto", "scalar", "lanes", "avx2", "  AVX2 "] {
            assert_eq!(s.parse::<KernelChoice>().unwrap(), KernelChoice::Auto);
        }
        assert_eq!(KernelChoice::Auto.to_string(), "auto");
        assert!("sse9".parse::<KernelChoice>().is_err());
    }

    #[test]
    fn explicit_choices_resolve_cleanly() {
        // Every former explicit choice resolves to the CPU's backend.
        let backend = KernelBackend::detect();
        for s in ["scalar", "lanes", "avx2"] {
            assert_eq!(KernelBackend::resolve(s.parse().unwrap()), backend);
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            backend == KernelBackend::Avx2,
            is_x86_feature_detected!("avx2")
        );
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Avx2.name(), "avx2");
    }

    #[test]
    fn aligned_column_is_cache_line_aligned() {
        let mut col = AlignedF64Col::new();
        assert!(col.is_empty());
        for i in 0..37 {
            col.push(i as f64);
        }
        assert_eq!(col.len(), 37);
        assert_eq!(col.as_slice().as_ptr() as usize % 64, 0);
        for i in 0..37 {
            assert_eq!(col[i], i as f64);
        }
        col.resize(40, -1.0);
        assert_eq!(col.len(), 40);
        assert_eq!(&col[37..], &[-1.0, -1.0, -1.0]);
        // Shrink keeps the prefix; regrow refills with the new value.
        col.resize(2, 9.0);
        assert_eq!(col.as_slice(), &[0.0, 1.0]);
        col.resize(4, 7.0);
        assert_eq!(col.as_slice(), &[0.0, 1.0, 7.0, 7.0]);
        col.clear();
        assert!(col.is_empty());
        col.push(5.0);
        assert_eq!(col.as_slice(), &[5.0]);
    }
}
