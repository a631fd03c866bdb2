//! Physical allocation planning (the tool's allocation output).
//!
//! "The physical allocation of a fragmentation specifies the distribution
//! of fact table and bitmap fragments down to single fragments as well as
//! the resulting disk occupancy and access distribution. Furthermore, a
//! disk access profile per query class is visualized." (§3.3)
//!
//! A plan costs nothing itself: each class's per-fragment service time
//! comes from the per-class detail of a cost the engine priced once —
//! the ranked candidate's own, or the engine's single-candidate
//! `evaluate` for an arbitrary candidate.

use warlock_alloc::{
    allocate, partition_coaccess, profile_response_ms, Allocation, AllocationPolicy, CoAccessGraph,
    DiskAccessProfile, OccupancyStats,
};
use warlock_bitmap::estimate;
use warlock_cost::CandidateCost;
use warlock_fragment::FragmentLayout;
use warlock_schema::StarSchema;
use warlock_skew::SkewModel;
use warlock_workload::QueryClass;

use crate::engine::Inputs;
use crate::WarlockError;

/// Disk access profile of one query class on the planned allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDiskProfile {
    /// Query class name.
    pub name: String,
    /// Per-disk busy time / fragment counts of a representative instance.
    pub profile: DiskAccessProfile,
    /// Exact response time on this allocation (ms).
    pub response_ms: f64,
}

/// The complete physical allocation plan of one fragmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPlan {
    /// Candidate label.
    pub label: String,
    /// The fragment → disk placement (sizes include bitmap fragments).
    pub allocation: Allocation,
    /// Disk occupancy balance statistics.
    pub occupancy: OccupancyStats,
    /// Total fact bytes placed.
    pub fact_bytes: u64,
    /// Total bitmap bytes placed.
    pub bitmap_bytes: u64,
    /// Whether fragment sizes were skewed enough for the policy to pick
    /// the greedy scheme.
    pub used_greedy: bool,
    /// Per-class disk access profiles on this allocation.
    pub per_class: Vec<ClassDiskProfile>,
}

/// Accessed fragments of one query class on one candidate.
struct ClassAccess {
    name: String,
    share: f64,
    /// `(fragment, service ms)` of a representative bound instance.
    weighted: Vec<(usize, f64)>,
}

/// Everything an [`AllocationPlan`] of one candidate needs except the
/// placement itself: fragment sizes and every class's weighted
/// fragment accesses. Built once per candidate, then placed under as
/// many policies as asked for (the policy judge places three).
pub(crate) struct PlanInputs {
    label: String,
    num_disks: u32,
    processors: u32,
    overhead: f64,
    sizes: Vec<u64>,
    fact_bytes: u64,
    bitmap_bytes: u64,
    classes: Vec<ClassAccess>,
}

impl PlanInputs {
    /// Derives the placement-independent part of a candidate's plans:
    /// skew-aware fragment sizes (fact + bitmaps) and, per class, the
    /// fragments a representative query instance (the first `n` member
    /// values of every predicate) accesses. `cost` is the candidate's
    /// cost under `inputs` with its per-class detail; nothing is costed
    /// here, and the candidate must have passed the engine's checks.
    /// Fragments of `u64::MAX` bytes or more are a [`WarlockError::System`].
    pub(crate) fn new(
        inputs: Inputs<'_>,
        skew: &SkewModel,
        cost: &CandidateCost,
    ) -> Result<Self, WarlockError> {
        let Inputs {
            schema,
            system,
            mix,
            config,
            scheme,
        } = inputs;
        let layout = FragmentLayout::new(schema, cost.fragmentation.clone(), config.fact_index);
        let row_bytes = u64::from(schema.fact_row_bytes(config.fact_index));
        let page = system.page;
        let vectors = scheme.total_vectors_stored();

        // Per-fragment bytes: fact pages + bitmap pages, both from the
        // fragment's (possibly skewed) row count. Sums saturate, so a
        // total of `u64::MAX` marks fragments too large to count.
        let rows = layout.fragment_rows(schema, skew);
        let mut fact_bytes = 0u64;
        let mut bitmap_bytes = 0u64;
        let sizes: Vec<u64> = rows
            .iter()
            .map(|&r| {
                let fact = page.bytes_for_pages(page.pages_for_rows(r, row_bytes as u32));
                let bitmap_pages = vectors.saturating_mul(estimate::vector_pages(r, page));
                let bitmap = page.bytes_for_pages(bitmap_pages);
                fact_bytes = fact_bytes.saturating_add(fact);
                bitmap_bytes = bitmap_bytes.saturating_add(bitmap);
                fact.saturating_add(bitmap)
            })
            .collect();
        // Every byte sum a placement makes (per disk, per cluster) is at
        // most this total, so it must not have saturated.
        let label = cost.fragmentation.label(schema);
        if fact_bytes.saturating_add(bitmap_bytes) == u64::MAX {
            let message = format!("the fragments of {label} hold more bytes than a u64 counts");
            return Err(WarlockError::System(message));
        }

        // The representative per-class fragment sets come before
        // placement: the graph-partition policy builds its co-access
        // graph from them, and the profiles reuse them after.
        let avg_rows = layout.uniform_rows_per_fragment().max(1.0);

        // Per-class weighted fragment accesses of a representative bound
        // instance; each fragment's service time scales with its actual
        // (possibly skewed) size.
        let classes = mix
            .iter()
            .zip(&cost.per_query)
            .map(|((class, share), qc)| ClassAccess {
                name: class.name().to_owned(),
                share,
                weighted: representative_fragments(schema, &layout, class)
                    .iter()
                    .map(|&f| {
                        let scale = rows[f as usize] as f64 / avg_rows;
                        (f as usize, qc.per_fragment_ms * scale)
                    })
                    .collect(),
            })
            .collect();

        Ok(Self {
            label,
            num_disks: system.num_disks,
            processors: system.architecture.total_processors(),
            overhead: system.architecture.overhead_factor(),
            sizes,
            fact_bytes,
            bitmap_bytes,
            classes,
        })
    }

    /// Places the fragments under `policy` and profiles every class on
    /// the result.
    pub(crate) fn place(&self, policy: AllocationPolicy) -> AllocationPlan {
        let sizes = self.sizes.clone();
        let allocation = match policy {
            AllocationPolicy::GraphPartition { seed } => {
                // Fragment co-access graph: one group per query class
                // (edge weight = the class's joint heat share × device
                // time), node heat = the class-weighted service time.
                let mut builder = CoAccessGraph::builder(sizes);
                for class in &self.classes {
                    let group: Vec<u32> = class.weighted.iter().map(|&(f, _)| f as u32).collect();
                    let joint: f64 = class.weighted.iter().map(|&(_, ms)| ms).sum();
                    builder.add_group(&group, class.share * joint);
                    for &(f, ms) in &class.weighted {
                        builder.add_heat(f as u32, class.share * ms);
                    }
                }
                partition_coaccess(&builder.build(), self.num_disks, seed)
            }
            _ => allocate(sizes, self.num_disks, policy),
        };
        let occupancy = allocation.occupancy_stats();
        let used_greedy = allocation.scheme() == warlock_alloc::AllocationScheme::GreedySize;

        let per_class = self
            .classes
            .iter()
            .map(|class| {
                let profile = DiskAccessProfile::build_weighted(&allocation, &class.weighted);
                let response_ms = profile_response_ms(&profile, self.processors, self.overhead);
                ClassDiskProfile {
                    name: class.name.clone(),
                    profile,
                    response_ms,
                }
            })
            .collect();

        AllocationPlan {
            label: self.label.clone(),
            allocation,
            occupancy,
            fact_bytes: self.fact_bytes,
            bitmap_bytes: self.bitmap_bytes,
            used_greedy,
            per_class,
        }
    }
}

/// Deterministic representative instance of a query class: every predicate
/// selects its first `n` member values. Returns the accessed fragment
/// indices under `layout`.
pub fn representative_fragments(
    schema: &StarSchema,
    layout: &FragmentLayout,
    class: &QueryClass,
) -> Vec<u64> {
    let fragmentation = layout.fragmentation();
    let attrs = fragmentation.attributes();
    let mut per_dim: Vec<Vec<u64>> = Vec::with_capacity(attrs.len());
    for (i, &attr) in attrs.iter().enumerate() {
        let dim = schema.dimension(attr.dimension).expect("validated layout");
        let frag_card = fragmentation.effective_cardinality(schema, i);
        let matched = match class.predicate(attr.dimension) {
            None => (0..frag_card).collect(),
            Some(pred) => {
                let query_card = dim.cardinality(pred.level).expect("validated class");
                if query_card <= frag_card {
                    let per = frag_card / query_card;
                    (0..pred.values.min(query_card))
                        .flat_map(|v| v * per..(v + 1) * per)
                        .collect()
                } else {
                    let per = query_card / frag_card;
                    let mut out: Vec<u64> =
                        (0..pred.values.min(query_card)).map(|v| v / per).collect();
                    out.dedup();
                    out
                }
            }
        };
        per_dim.push(matched);
    }
    let mut fragments = Vec::new();
    let mut counters = vec![0usize; per_dim.len()];
    let mut coords = vec![0u64; per_dim.len()];
    loop {
        for (i, &c) in counters.iter().enumerate() {
            coords[i] = per_dim[i][c];
        }
        fragments.push(layout.index_of(&coords));
        let mut pos = counters.len();
        loop {
            if pos == 0 {
                fragments.sort_unstable();
                return fragments;
            }
            pos -= 1;
            counters[pos] += 1;
            if counters[pos] < per_dim[pos].len() {
                break;
            }
            counters[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdvisorConfig, Warlock};
    use warlock_fragment::Fragmentation;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_skew::DimensionSkew;
    use warlock_storage::SystemConfig;
    use warlock_workload::{apb1_like_mix, DimensionPredicate};

    /// Zipf(1) on the first APB-1 dimension, uniform elsewhere.
    fn zipf_product() -> Option<Vec<DimensionSkew>> {
        Some(vec![
            DimensionSkew::zipf(1.0),
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
        ])
    }

    /// The plan of `pairs` under `policy` on the APB-1-like warehouse
    /// (16 disks) with the given skew.
    fn plan(
        skew: Option<Vec<DimensionSkew>>,
        pairs: &[(u16, u16)],
        policy: AllocationPolicy,
    ) -> AllocationPlan {
        Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .config(AdvisorConfig {
                skew,
                allocation_policy: policy,
                ..Default::default()
            })
            .build()
            .unwrap()
            .plan_candidate(&Fragmentation::from_pairs(pairs).unwrap())
            .unwrap()
    }

    #[test]
    fn uniform_plan_uses_round_robin_and_balances() {
        let plan = plan(None, &[(2, 2), (3, 0)], AllocationPolicy::default());
        assert!(!plan.used_greedy);
        // 216 fragments over 16 disks: 14 vs 13.5 mean → 1.037 inherent.
        assert!(plan.occupancy.imbalance < 1.05);
        assert_eq!(plan.allocation.num_fragments(), 216);
        assert!(plan.fact_bytes > 0 && plan.bitmap_bytes > 0);
        assert_eq!(plan.per_class.len(), 10);
    }

    #[test]
    fn skewed_plan_switches_to_greedy_and_stays_balanced() {
        // line × month
        let plan = plan(
            zipf_product(),
            &[(0, 1), (2, 2)],
            AllocationPolicy::default(),
        );
        assert!(plan.used_greedy);
        // Greedy keeps occupancy within a few percent even under zipf(1).
        assert!(
            plan.occupancy.imbalance < 1.1,
            "imbalance {}",
            plan.occupancy.imbalance
        );
    }

    #[test]
    fn round_robin_under_skew_is_worse() {
        let pairs = [(0, 1), (2, 2)];
        let rr = plan(zipf_product(), &pairs, AllocationPolicy::RoundRobin);
        let greedy = plan(zipf_product(), &pairs, AllocationPolicy::GreedySize);
        assert!(greedy.occupancy.imbalance <= rr.occupancy.imbalance + 1e-12);
    }

    #[test]
    fn profiles_report_declustering() {
        let plan = plan(None, &[(2, 2), (3, 0)], AllocationPolicy::default());
        // q06 (channel+month) touches exactly 1 fragment; q04 (year+line)
        // spreads over many.
        let q06 = plan
            .per_class
            .iter()
            .find(|c| c.name == "q06_channel_month")
            .unwrap();
        assert_eq!(q06.profile.disks_hit(), 1);
        let q04 = plan
            .per_class
            .iter()
            .find(|c| c.name == "q04_year_line")
            .unwrap();
        assert!(q04.profile.disks_hit() > 4);
        for c in &plan.per_class {
            assert!(c.response_ms > 0.0);
        }
    }

    #[test]
    fn graph_policy_builds_a_partition_plan() {
        let rebuild = || {
            plan(
                None,
                &[(2, 2), (3, 0)],
                AllocationPolicy::GraphPartition { seed: 0 },
            )
        };
        let plan = rebuild();
        // The APB-1-like mix has plenty of co-access, so the plan comes
        // from the partitioner proper, covers every fragment once, and
        // stays balanced.
        assert_eq!(
            plan.allocation.scheme(),
            warlock_alloc::AllocationScheme::GraphPartition
        );
        assert!(!plan.used_greedy);
        assert_eq!(plan.allocation.num_fragments(), 216);
        assert_eq!(
            plan.allocation.fragment_counts().iter().sum::<u32>(),
            216,
            "every fragment placed exactly once"
        );
        assert!(
            plan.occupancy.imbalance < 1.25,
            "imbalance {}",
            plan.occupancy.imbalance
        );
        // Byte-identical across rebuilds (same inputs, same seed).
        assert_eq!(plan, rebuild());
    }

    #[test]
    fn representative_fragments_expand_and_collapse() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let layout = FragmentLayout::new(&schema, Fragmentation::from_pairs(&[(2, 2)]).unwrap(), 0);
        // Quarter query (coarser): 1 value → 3 months.
        let q = warlock_workload::QueryClass::new("q").with(2, DimensionPredicate::point(1));
        assert_eq!(
            representative_fragments(&schema, &layout, &q),
            vec![0, 1, 2]
        );
        // Unreferenced: all 24.
        let q = warlock_workload::QueryClass::new("q").with(3, DimensionPredicate::point(0));
        assert_eq!(representative_fragments(&schema, &layout, &q).len(), 24);
    }
}
