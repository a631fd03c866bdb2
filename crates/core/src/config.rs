//! Advisor configuration.

use warlock_alloc::AllocationPolicy;
use warlock_bitmap::SchemeConfig;
use warlock_cost::KernelChoice;
use warlock_fragment::Thresholds;
use warlock_skew::DimensionSkew;

/// The largest worker count [`AdvisorConfig::parallelism`] (and the
/// `WARLOCK_PARALLELISM` environment variable under `auto`) may ask for. A
/// cold run starts up to one helper thread per worker, so the bound caps
/// the threads one run can start; the tests and benchmarks use at most 8.
pub const MAX_PARALLELISM: usize = 256;

/// All knobs of one advisor run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorConfig {
    /// Candidate exclusion thresholds (prediction layer).
    pub thresholds: Thresholds,
    /// Bitmap scheme selection rules.
    pub scheme: SchemeConfig,
    /// Largest number of fragmentation dimensions to enumerate.
    pub max_dimensionality: usize,
    /// The twofold ranking keeps the leading `top_x_percent` of candidates
    /// by I/O cost before re-ranking by response time.
    pub top_x_percent: f64,
    /// Lower bound on candidates surviving the I/O-cost filter, so small
    /// candidate sets still produce a meaningful response-time ranking.
    pub min_keep: usize,
    /// Number of top fragmentations presented to the user.
    pub top_n: usize,
    /// Physical allocation policy for the recommended candidates.
    pub allocation_policy: AllocationPolicy,
    /// Per-dimension data skew (`None` = uniform everywhere).
    pub skew: Option<Vec<DimensionSkew>>,
    /// Which fact table to advise on.
    pub fact_index: usize,
    /// Worker threads for candidate evaluation: `0` = auto (all available
    /// cores, overridable via the `WARLOCK_PARALLELISM` environment
    /// variable), `1` = strictly serial, `n` = exactly `n` workers, at
    /// most [`MAX_PARALLELISM`]. Any setting produces bit-identical
    /// reports; the knob only trades wall-clock time for threads.
    pub parallelism: usize,
    /// Hard budget on the candidate space a single pipeline run may
    /// enumerate: `0` = unlimited, `n` = runs whose exact predicted
    /// space exceeds `n` candidates fail up front with
    /// [`crate::WarlockError::CandidateBudget`] instead of grinding (or,
    /// pre-streaming, exhausting memory). The check uses the source's
    /// exact space predictor, so no work is wasted before failing.
    pub max_candidates: u64,
    /// Candidates pulled from the lazy enumeration per evaluation round:
    /// `0` = auto (the `WARLOCK_CHUNK_SIZE` environment variable if set,
    /// otherwise a built-in default), `n` = exactly `n`. Any setting
    /// produces bit-identical reports; the knob only trades pipeline
    /// memory against fan-out batching.
    pub chunk_size: usize,
    /// The legacy `kernel =` config key, which has no effect: the
    /// costing backend is chosen by the CPU alone
    /// ([`KernelBackend::detect`](warlock_cost::KernelBackend::detect)).
    pub kernel: KernelChoice,
    /// Extra MDHF attribute range sizes to enumerate alongside the
    /// point candidates (empty = the paper's point-only space). Each
    /// option is applied to every fragmentation attribute whose
    /// fan-out it divides (the full fan-out is skipped — it duplicates
    /// the parent level).
    pub range_options: Vec<u64>,
    /// Resident-optimizer mode: when `true`, crossing the drift-enter
    /// threshold during [`crate::Warlock::observe`] triggers an
    /// incremental re-advise (adopt the observed mix, re-rank warm
    /// through the evaluation cache) and emits an
    /// [`crate::AdviceEvent`]. When `false` (the default), observation
    /// only tracks and reports drift.
    pub auto_advise: bool,
    /// Drift score above which the detector enters the `Drifting`
    /// state (strictly above; see
    /// [`DriftDetector`](warlock_workload::DriftDetector)).
    pub drift_enter: f64,
    /// Drift score below which the detector returns to `Stable`
    /// (strictly below). Must satisfy `0 <= drift_exit <= drift_enter
    /// <= 1` — the gap is the hysteresis band that prevents flapping.
    pub drift_exit: f64,
    /// Half-life of the observed-workload statistics window, in
    /// observed queries (not wall-clock): the weight of past traffic
    /// halves every `stats_half_life` queries.
    pub stats_half_life: f64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self {
            thresholds: Thresholds::default(),
            scheme: SchemeConfig::default(),
            max_dimensionality: 4,
            top_x_percent: 10.0,
            min_keep: 10,
            top_n: 10,
            allocation_policy: AllocationPolicy::default(),
            skew: None,
            fact_index: 0,
            parallelism: 0,
            max_candidates: 0,
            chunk_size: 0,
            kernel: KernelChoice::Auto,
            range_options: Vec::new(),
            auto_advise: false,
            drift_enter: 0.25,
            drift_exit: 0.10,
            stats_half_life: 1000.0,
        }
    }
}

impl AdvisorConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.top_x_percent > 0.0 && self.top_x_percent <= 100.0) {
            return Err(format!(
                "top_x_percent must be in (0, 100], got {}",
                self.top_x_percent
            ));
        }
        if self.parallelism > MAX_PARALLELISM {
            return Err(format!(
                "parallelism must be auto or at most {MAX_PARALLELISM} workers, got {}",
                self.parallelism
            ));
        }
        if self.top_n == 0 {
            return Err("top_n must be at least 1".into());
        }
        if self.min_keep == 0 {
            return Err("min_keep must be at least 1".into());
        }
        if self.range_options.iter().any(|&r| r < 2) {
            return Err("range_options must all be at least 2".into());
        }
        for (i, &r) in self.range_options.iter().enumerate() {
            if self.range_options[..i].contains(&r) {
                return Err(format!(
                    "range_options contains {r} twice (duplicates would enumerate \
                     the same candidates repeatedly)"
                ));
            }
        }
        if !(self.drift_enter.is_finite()
            && self.drift_exit.is_finite()
            && 0.0 <= self.drift_exit
            && self.drift_exit <= self.drift_enter
            && self.drift_enter <= 1.0)
        {
            return Err(format!(
                "drift thresholds must satisfy 0 <= drift_exit <= drift_enter <= 1, \
                 got drift_enter {} / drift_exit {}",
                self.drift_enter, self.drift_exit
            ));
        }
        if !(self.stats_half_life.is_finite() && self.stats_half_life > 0.0) {
            return Err(format!(
                "stats_half_life must be a finite positive query count, got {}",
                self.stats_half_life
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(AdvisorConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_knobs() {
        let c = AdvisorConfig {
            top_x_percent: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AdvisorConfig {
            top_x_percent: 150.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AdvisorConfig {
            top_n: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AdvisorConfig {
            min_keep: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AdvisorConfig {
            range_options: vec![2, 1],
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AdvisorConfig {
            range_options: vec![2, 3, 2],
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AdvisorConfig {
            drift_enter: 0.1,
            drift_exit: 0.3,
            ..Default::default()
        };
        assert!(c.validate().is_err(), "inverted drift thresholds");
        let c = AdvisorConfig {
            drift_enter: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err(), "enter above 1");
        let c = AdvisorConfig {
            drift_exit: f64::NAN,
            ..Default::default()
        };
        assert!(c.validate().is_err(), "non-finite exit");
        let c = AdvisorConfig {
            stats_half_life: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err(), "zero half-life");
        let c = AdvisorConfig {
            parallelism: MAX_PARALLELISM + 1,
            ..Default::default()
        };
        assert!(
            c.validate().unwrap_err().contains("256"),
            "too many workers"
        );
        let c = AdvisorConfig {
            parallelism: MAX_PARALLELISM,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn streaming_knobs_validate() {
        let c = AdvisorConfig {
            max_candidates: 5000,
            chunk_size: 64,
            range_options: vec![2, 3, 5],
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }
}
