//! Per-workload allocation-policy recommendation.
//!
//! The paper's advisor recommends a *fragmentation*; this module lets
//! it also recommend an *allocation policy* for the workload at hand.
//! For a ranked candidate it builds the physical allocation under each
//! contending policy — round-robin, greedy-by-size, and the co-access
//! graph partitioner — and hands the resulting per-class disk profiles
//! to the head-to-head judge in `warlock-sim`, which replays the query
//! mix through the event-driven disk simulator and ranks the policies
//! by measured makespan.
//!
//! Ties keep the entrant order (round-robin, greedy, graph), so the
//! graph backend must *strictly* beat the paper's own schemes to be
//! recommended — on an uncorrelated mix it degrades to greedy's
//! placement and the simpler policy wins the tie.
//!
//! The verdict on the top-ranked candidate is judged at most once per
//! snapshot and cached next to the ranking: every input it depends on
//! lives in the snapshot, and each copy-on-write swap (or
//! [`Warlock::invalidate`]) starts a fresh snapshot with no verdict.

use warlock_alloc::AllocationScheme;
use warlock_cost::CandidateCost;
use warlock_fragment::Fragmentation;
use warlock_sim::{judge_head_to_head, ClassLoad, PolicyEntrant};

use crate::allocation_plan::{AllocationPlan, PlanInputs};
use crate::error::WarlockError;
use crate::session::Warlock;

/// Closed streams the judge replays concurrently per policy.
const JUDGE_STREAMS: usize = 4;

/// Schedule rounds per stream (each round issues every class once,
/// frequency-weighted by mix share).
const JUDGE_ROUNDS: usize = 2;

/// The judged outcome of one allocation policy on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyVerdict {
    /// Policy name (`round_robin` | `greedy` | `graph`).
    pub policy: String,
    /// The scheme the policy actually produced (`graph` degrades to
    /// `greedy-by-size` when the mix has no co-access signal).
    pub scheme: String,
    /// Simulated time the last replay stream finished — the ranking key.
    pub makespan_ms: f64,
    /// Max over mean simulated disk busy time (1.0 = balanced).
    pub busy_imbalance: f64,
    /// Max over mean mix-weighted access heat per disk.
    pub heat_imbalance: f64,
    /// Max over mean byte occupancy per disk.
    pub occupancy_imbalance: f64,
    /// Mean simulated query response time.
    pub mean_response_ms: f64,
}

/// The advisor's per-workload policy recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRecommendation {
    /// Label of the judged fragmentation candidate.
    pub label: String,
    /// Name of the winning policy.
    pub recommended: String,
    /// All verdicts, ranked best (lowest makespan) first.
    pub verdicts: Vec<PolicyVerdict>,
}

/// Scheme names shared with [`crate::serial::AllocationReport`].
pub(crate) fn scheme_name(scheme: AllocationScheme) -> &'static str {
    match scheme {
        AllocationScheme::RoundRobin => "round-robin",
        AllocationScheme::GreedySize => "greedy-by-size",
        AllocationScheme::GreedyHeat => "greedy-by-heat",
        AllocationScheme::GraphPartition => "graph-partition",
    }
}

/// Mix-weighted access heat per disk of one plan: every class
/// contributes its share times its representative per-disk busy time.
fn heat_imbalance(plan: &AllocationPlan, shares: &[f64]) -> f64 {
    let disks = plan.allocation.num_disks() as usize;
    let mut heat = vec![0.0f64; disks];
    for (class, &share) in plan.per_class.iter().zip(shares) {
        for (d, &ms) in class.profile.per_disk_ms.iter().enumerate() {
            heat[d] += share * ms;
        }
    }
    let total: f64 = heat.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let max = heat.iter().copied().fold(0.0, f64::max);
    max / (total / disks as f64)
}

impl Warlock {
    /// Judges the contending allocation policies on the top-ranked
    /// candidate and recommends one for the configured workload.
    /// Ranks first if necessary. The verdict is cached on the snapshot
    /// (see the [module docs](self)), so only the first call on a
    /// snapshot replays the simulator.
    ///
    /// # Errors
    ///
    /// [`WarlockError::RankOutOfRange`] when nothing survived the
    /// thresholds, plus anything ranking itself can raise.
    pub fn recommend_policy(&self) -> Result<PolicyRecommendation, WarlockError> {
        self.top_recommendation().cloned()
    }

    /// Judges the policies on the top-ranked candidate's ranked cost,
    /// uncached: the computation behind [`Warlock::recommend_policy`].
    pub(crate) fn judge_top(&self) -> Result<PolicyRecommendation, WarlockError> {
        self.judge(self.ranked_cost(1)?)
    }

    /// Judges the contending policies on an explicit candidate. Not
    /// cached: every call prices, places and replays afresh.
    pub fn recommend_policy_for(
        &self,
        fragmentation: &Fragmentation,
    ) -> Result<PolicyRecommendation, WarlockError> {
        self.judge(&self.evaluate(fragmentation)?)
    }

    /// Judges the contending policies on the candidate `cost` prices
    /// under this session's snapshot.
    fn judge(&self, cost: &CandidateCost) -> Result<PolicyRecommendation, WarlockError> {
        use warlock_alloc::AllocationPolicy;
        let s = self.snapshot();
        // The graph entrant inherits the configured seed when the
        // session already runs the graph policy.
        let seed = match s.config().allocation_policy {
            AllocationPolicy::GraphPartition { seed } => seed,
            _ => 0,
        };
        let contenders: [(&str, AllocationPolicy); 3] = [
            ("round_robin", AllocationPolicy::RoundRobin),
            ("greedy", AllocationPolicy::GreedySize),
            ("graph", AllocationPolicy::GraphPartition { seed }),
        ];
        let shares: Vec<f64> = s.mix().iter().map(|(_, share)| share).collect();

        // Sizes and class accesses do not depend on the policy: derive
        // them once and place them three ways.
        let inputs = PlanInputs::new(s.inputs(), s.skew(), cost)?;
        let plans: Vec<(&str, AllocationPlan)> = contenders
            .into_iter()
            .map(|(name, policy)| (name, inputs.place(policy)))
            .collect();

        let entrants: Vec<PolicyEntrant> = plans
            .iter()
            .map(|(name, plan)| PolicyEntrant {
                name: (*name).to_owned(),
                classes: plan
                    .per_class
                    .iter()
                    .zip(&shares)
                    .map(|(class, &share)| ClassLoad {
                        share,
                        per_disk_ms: class.profile.per_disk_ms.clone(),
                    })
                    .collect(),
            })
            .collect();
        let ranked =
            judge_head_to_head(s.system().num_disks, &entrants, JUDGE_STREAMS, JUDGE_ROUNDS);

        let verdicts: Vec<PolicyVerdict> = ranked
            .into_iter()
            .map(|v| {
                let (_, plan) = plans
                    .iter()
                    .find(|(name, _)| *name == v.name)
                    .expect("verdict name matches an entrant");
                PolicyVerdict {
                    policy: v.name,
                    scheme: scheme_name(plan.allocation.scheme()).to_owned(),
                    makespan_ms: v.makespan_ms,
                    busy_imbalance: v.busy_imbalance,
                    heat_imbalance: heat_imbalance(plan, &shares),
                    occupancy_imbalance: plan.occupancy.imbalance,
                    mean_response_ms: v.mean_response_ms,
                }
            })
            .collect();
        Ok(PolicyRecommendation {
            label: plans[0].1.label.clone(),
            recommended: verdicts
                .first()
                .map(|v| v.policy.clone())
                .unwrap_or_default(),
            verdicts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_storage::SystemConfig;
    use warlock_workload::apb1_like_mix;

    fn session() -> Warlock {
        Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn recommendation_judges_all_three_policies() {
        let rec = session().recommend_policy().unwrap();
        assert_eq!(rec.verdicts.len(), 3);
        let names: Vec<&str> = rec.verdicts.iter().map(|v| v.policy.as_str()).collect();
        for expected in ["round_robin", "greedy", "graph"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert_eq!(rec.recommended, rec.verdicts[0].policy);
        // Ranked ascending by makespan.
        for pair in rec.verdicts.windows(2) {
            assert!(pair[0].makespan_ms <= pair[1].makespan_ms);
        }
        for v in &rec.verdicts {
            assert!(v.makespan_ms > 0.0, "{} makespan", v.policy);
            assert!(v.busy_imbalance >= 1.0 - 1e-9);
            assert!(v.heat_imbalance >= 1.0 - 1e-9);
            assert!(v.occupancy_imbalance >= 1.0 - 1e-9);
        }
        assert!(!rec.label.is_empty());
    }

    #[test]
    fn recommendation_is_deterministic() {
        let a = session().recommend_policy().unwrap();
        let b = session().recommend_policy().unwrap();
        assert_eq!(a, b);
    }
}
