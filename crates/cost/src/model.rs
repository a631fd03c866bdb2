//! The cost-model facade: evaluating whole candidates against a mix.

use warlock_bitmap::BitmapScheme;
use warlock_fragment::{FragmentLayout, Fragmentation};
use warlock_schema::StarSchema;
use warlock_storage::SystemConfig;
use warlock_workload::QueryMix;

use crate::access::{estimate_query, QueryCost};
use crate::response::estimated_response_ms;

/// Evaluated cost of one fragmentation candidate under a query mix.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCost {
    /// The evaluated candidate.
    pub fragmentation: Fragmentation,
    /// Number of fragments of the candidate.
    pub num_fragments: u64,
    /// Workload-weighted total device busy time per query, in milliseconds
    /// — the paper's "overall I/O access cost" (throughput metric).
    pub io_cost_ms: f64,
    /// Workload-weighted response time per query, in milliseconds.
    pub response_ms: f64,
    /// Workload-weighted physical I/Os per query.
    pub total_ios: f64,
    /// Workload-weighted pages read per query (fact + bitmap).
    pub total_pages: f64,
    /// Per-class details, in mix order.
    pub per_query: Vec<QueryCost>,
}

/// Unweighted cost of one (candidate, query class) pair — the per-class
/// quantities of [`CandidateCost`] *before* the mix share is applied
/// and before the disk count is.
///
/// Per-class costs never see the class's workload share (the share
/// enters only the weighted accumulation), and the disk count enters
/// only the response time, which is derived from `fragments` and
/// `per_fragment_ms` at recombination. So these rows are invariant under
/// pure mix re-weights and under disk-count changes. The advisor's
/// evaluation cache stores them keyed by
/// [`CostModel::structure_fingerprint`] and recombines them under the
/// current shares and disks with [`combine_class_costs`] —
/// bit-identical to a cold evaluation at the new mix and disk count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassCost {
    /// Expected fragments the class accesses.
    pub fragments: f64,
    /// Device time per accessed fragment on the chosen access path, in
    /// milliseconds.
    pub per_fragment_ms: f64,
    /// Physical I/Os of the class.
    pub total_ios: f64,
    /// Pages read by the class (`fact_pages + bitmap_pages`, summed in
    /// the kernel's order).
    pub pages: f64,
}

impl ClassCost {
    /// Device busy time of the class, in milliseconds: the kernels'
    /// unfused `fragments * per_fragment_ms`.
    #[inline]
    pub fn busy_ms(&self) -> f64 {
        self.fragments * self.per_fragment_ms
    }
}

/// The `io_cost_ms` [`combine_class_costs`] yields for these rows under
/// `shares`, without deriving anything else — what the twofold
/// ranking's first phase compares.
pub fn combined_io_cost_ms(classes: &[ClassCost], shares: &[f64]) -> f64 {
    debug_assert_eq!(classes.len(), shares.len());
    let mut io_cost_ms = 0.0;
    for (row, &share) in classes.iter().zip(shares) {
        io_cost_ms += share * row.busy_ms();
    }
    io_cost_ms
}

/// Recombines per-class unweighted rows under `shares` and `system`'s
/// disks, processors and coordination overhead into the aggregate
/// [`CandidateCost`] fields, using the exact accumulation sequence of
/// every costing backend (`acc += share * value`, one term per class in
/// mix order, from `0.0`) and the response model's
/// [`estimated_response_ms`], which the kernels inline — so the result
/// is bit-identical to evaluating the candidate fresh under a mix with
/// those shares on that system.
/// `per_query` detail is not reconstructible from the rows and is left
/// empty (the ranking pipeline re-derives it for the ranked handful).
pub fn combine_class_costs(
    fragmentation: Fragmentation,
    num_fragments: u64,
    classes: &[ClassCost],
    shares: &[f64],
    system: &SystemConfig,
) -> CandidateCost {
    debug_assert_eq!(classes.len(), shares.len());
    let processors = system.architecture.total_processors();
    let overhead = system.architecture.overhead_factor();
    let mut io_cost_ms = 0.0;
    let mut response_ms = 0.0;
    let mut total_ios = 0.0;
    let mut total_pages = 0.0;
    for (row, &share) in classes.iter().zip(shares) {
        let class_response_ms = estimated_response_ms(
            row.fragments,
            row.per_fragment_ms,
            system.num_disks,
            processors,
            overhead,
        );
        io_cost_ms += share * row.busy_ms();
        response_ms += share * class_response_ms;
        total_ios += share * row.total_ios;
        total_pages += share * row.pages;
    }
    CandidateCost {
        fragmentation,
        num_fragments,
        io_cost_ms,
        response_ms,
        total_ios,
        total_pages,
        per_query: Vec::new(),
    }
}

/// The WARLOCK cost model: a schema, a system, a bitmap scheme and a
/// weighted query mix, evaluating fragmentation candidates.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    schema: &'a StarSchema,
    system: &'a SystemConfig,
    scheme: &'a BitmapScheme,
    mix: &'a QueryMix,
    fact_index: usize,
}

impl<'a> CostModel<'a> {
    /// Creates the model over the primary fact table.
    pub fn new(
        schema: &'a StarSchema,
        system: &'a SystemConfig,
        scheme: &'a BitmapScheme,
        mix: &'a QueryMix,
    ) -> Self {
        Self {
            schema,
            system,
            scheme,
            mix,
            fact_index: 0,
        }
    }

    /// Selects a different fact table.
    ///
    /// # Errors
    ///
    /// Returns a message when `fact_index` does not name a fact table of
    /// the schema. (This used to panic, which let data-dependent input
    /// crash library callers.)
    pub fn with_fact_index(mut self, fact_index: usize) -> Result<Self, String> {
        let available = self.schema.facts().len();
        if fact_index >= available {
            return Err(format!(
                "fact index {fact_index} out of range (schema has {available} fact table(s))"
            ));
        }
        self.fact_index = fact_index;
        Ok(self)
    }

    /// A cheap fingerprint of every input that determines this model's
    /// outputs: schema, system, bitmap scheme, weighted mix and fact
    /// index. Two models with equal fingerprints produce bit-identical
    /// [`CandidateCost`]s for the same candidate.
    ///
    /// The value is only meaningful within one process (it hashes the
    /// `Debug` representations); it exists so sessions can memoize
    /// evaluations across what-if variations without deep comparisons.
    pub fn fingerprint(&self) -> u128 {
        crate::fingerprint128(&format!(
            "{:?}|{:?}|{:?}|{:?}|{}",
            self.schema, self.system, self.scheme, self.mix, self.fact_index
        ))
    }

    /// Like [`CostModel::fingerprint`], but **excluding the mix
    /// weights and the disk count**: it hashes the schema, every field
    /// of the system but `num_disks`, the scheme, the fact index and the
    /// mix's classes in mix order, with every share dropped.
    ///
    /// Two models with equal structure fingerprints produce
    /// bit-identical *per-class* costs ([`ClassCost`]) for the same
    /// candidate — the share never reaches the per-class estimator, it
    /// only weights the final accumulation, and the disk count enters
    /// only the response time [`combine_class_costs`] derives from the
    /// rows. The advisor's pipeline cache keys on this so a pure
    /// re-weight (the drift detector's normal case) and a disk-count
    /// what-if stay warm, while any other structural change — a class
    /// added, dropped, or its predicates edited, a scheme change, any
    /// other system change — miss-keys correctly. Note a re-weight that
    /// zeroes out a class *is* structural: mix construction drops
    /// zero-weight classes, changing the class list.
    pub fn structure_fingerprint(&self) -> u128 {
        use std::fmt::Write;
        // Destructured so a new system field cannot silently escape the
        // key.
        let SystemConfig {
            num_disks: _,
            disk,
            page,
            fact_prefetch,
            bitmap_prefetch,
            architecture,
        } = self.system;
        let mut input = format!(
            "{:?}|{disk:?}|{page:?}|{fact_prefetch:?}|{bitmap_prefetch:?}|{architecture:?}|{:?}|{}|",
            self.schema, self.scheme, self.fact_index
        );
        for (class, _) in self.mix.iter() {
            let _ = write!(input, "{class:?};");
        }
        crate::fingerprint128(&input)
    }

    /// The schema the model evaluates against.
    #[inline]
    pub fn schema(&self) -> &StarSchema {
        self.schema
    }

    /// The system configuration.
    #[inline]
    pub fn system(&self) -> &SystemConfig {
        self.system
    }

    /// The bitmap scheme queries are priced against.
    #[inline]
    pub fn scheme(&self) -> &BitmapScheme {
        self.scheme
    }

    /// The weighted query mix.
    #[inline]
    pub fn mix(&self) -> &QueryMix {
        self.mix
    }

    /// The fact table index.
    #[inline]
    pub fn fact_index(&self) -> usize {
        self.fact_index
    }

    /// Builds the precomputed [`CostTables`](crate::CostTables) for this
    /// model (point fragmentations only — pass enumeration range options
    /// to [`CostTables::build`](crate::CostTables::build) directly for
    /// ranged coverage).
    pub fn tables(&self) -> crate::CostTables {
        crate::CostTables::build(self, &[])
    }

    /// Evaluates one candidate: every class of the mix, weighted by share.
    pub fn evaluate(&self, fragmentation: &Fragmentation) -> CandidateCost {
        let layout = FragmentLayout::new(self.schema, fragmentation.clone(), self.fact_index);
        self.evaluate_layout(&layout)
    }

    /// Evaluates a pre-built layout (avoids re-deriving it).
    pub fn evaluate_layout(&self, layout: &FragmentLayout) -> CandidateCost {
        let mut io_cost_ms = 0.0;
        let mut response_ms = 0.0;
        let mut total_ios = 0.0;
        let mut total_pages = 0.0;
        let mut per_query = Vec::with_capacity(self.mix.len());
        for (class, share) in self.mix.iter() {
            let qc = estimate_query(
                self.schema,
                layout,
                self.scheme,
                self.system,
                class,
                self.fact_index,
            );
            io_cost_ms += share * qc.busy_ms;
            response_ms += share * qc.response_ms;
            total_ios += share * qc.total_ios;
            total_pages += share * (qc.fact_pages + qc.bitmap_pages);
            per_query.push(qc);
        }
        CandidateCost {
            fragmentation: layout.fragmentation().clone(),
            num_fragments: layout.num_fragments(),
            io_cost_ms,
            response_ms,
            total_ios,
            total_pages,
            per_query,
        }
    }
}

/// Hashes any input into a 128-bit value via two independently salted
/// passes of the standard hasher. The shared widening primitive behind
/// [`CostModel::fingerprint`] and the advisor's cache keys; only
/// meaningful within one process.
pub fn fingerprint128<H: std::hash::Hash + ?Sized>(input: &H) -> u128 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut lo = DefaultHasher::new();
    input.hash(&mut lo);
    let mut hi = DefaultHasher::new();
    (0xa5a5_5a5au32, input).hash(&mut hi);
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_bitmap::SchemeConfig;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_workload::apb1_like_mix;

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

    #[test]
    fn evaluates_all_classes() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let c = model.evaluate(&Fragmentation::from_pairs(&[(2, 2)]).unwrap());
        assert_eq!(c.per_query.len(), 10);
        assert_eq!(c.num_fragments, 24);
        assert!(c.io_cost_ms > 0.0);
        assert!(c.response_ms > 0.0);
        assert!(c.total_ios > 0.0);
        assert!(c.total_pages > 0.0);
        // Weighted totals are convex combinations of per-query values.
        let max_busy = c
            .per_query
            .iter()
            .map(|q| q.busy_ms)
            .fold(f64::MIN, f64::max);
        assert!(c.io_cost_ms <= max_busy + 1e-9);
    }

    #[test]
    fn fragmented_beats_unfragmented_for_star_mix() {
        // The reason MDHF exists: confining queries to fragments must beat
        // scanning the monolithic fact table for the APB-1-like mix.
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let baseline = model.evaluate(&Fragmentation::none());
        let by_month = model.evaluate(&Fragmentation::from_pairs(&[(2, 2)]).unwrap());
        assert!(by_month.response_ms < baseline.response_ms);
    }

    #[test]
    fn multi_dimensional_fragmentation_helps_response() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let one_d = model.evaluate(&Fragmentation::from_pairs(&[(2, 2)]).unwrap());
        let two_d = model.evaluate(&Fragmentation::from_pairs(&[(2, 2), (0, 1)]).unwrap());
        // month × line confines product queries too → better response.
        assert!(
            two_d.response_ms < one_d.response_ms,
            "2-D {} should beat 1-D {}",
            two_d.response_ms,
            one_d.response_ms
        );
    }

    #[test]
    fn with_fact_index_validates() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        assert_eq!(model.with_fact_index(0).unwrap().fact_index(), 0);
    }

    #[test]
    fn bad_fact_index_is_an_error_not_a_panic() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let err = model.with_fact_index(3).unwrap_err();
        assert!(err.contains("fact index 3"), "{err}");
        assert!(err.contains("1 fact table"), "{err}");
    }

    #[test]
    fn model_and_inputs_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CostModel<'static>>();
        assert_send_sync::<CandidateCost>();
        assert_send_sync::<StarSchema>();
        assert_send_sync::<SystemConfig>();
        assert_send_sync::<BitmapScheme>();
        assert_send_sync::<QueryMix>();
    }

    #[test]
    fn fingerprint_tracks_every_input() {
        let f = fixture();
        let base = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix).fingerprint();
        assert_eq!(
            base,
            CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix).fingerprint(),
            "fingerprint must be deterministic"
        );
        let mut other_system = f.system;
        other_system.num_disks += 1;
        assert_ne!(
            base,
            CostModel::new(&f.schema, &other_system, &f.scheme, &f.mix).fingerprint()
        );
        let reduced = f
            .scheme
            .without_dimension(warlock_schema::DimensionId(0))
            .unwrap();
        assert_ne!(
            base,
            CostModel::new(&f.schema, &f.system, &reduced, &f.mix).fingerprint()
        );
    }

    #[test]
    fn evaluate_layout_matches_evaluate() {
        let f = fixture();
        let model = CostModel::new(&f.schema, &f.system, &f.scheme, &f.mix);
        let frag = Fragmentation::from_pairs(&[(2, 1), (3, 0)]).unwrap();
        let a = model.evaluate(&frag);
        let layout = FragmentLayout::new(&f.schema, frag, 0);
        let b = model.evaluate_layout(&layout);
        assert_eq!(a, b);
    }
}
