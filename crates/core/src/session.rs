//! The owned, session-oriented WARLOCK facade.
//!
//! [`Warlock`] is the programmatic counterpart of the original tool's
//! interactive GUI session: it **owns** its inputs (schema, system,
//! weighted mix, configuration), validates them once at build time, and
//! then serves rankings, per-candidate analyses, allocation plans and
//! what-if variations from one long-lived handle. Every request is a
//! direct call into the pipeline: a ranked candidate's analysis, plan
//! and policy verdict read the cost the ranking already holds, an
//! arbitrary candidate is priced once and derived the same way, and a
//! what-if re-runs the pipeline over the snapshot's inputs with one of
//! them replaced. Construction goes through [`Warlock::builder`]:
//!
//! ```
//! use warlock::prelude::*;
//!
//! let session = Warlock::builder()
//!     .schema(apb1_like_schema(Apb1Config::default())?)
//!     .system(SystemConfig::default_2001(16))
//!     .mix(apb1_like_mix()?)
//!     .build()?;
//! let best_label = session.rank()?.top().expect("candidates survive").label.clone();
//! let analysis = session.analyze(1)?;
//! assert_eq!(analysis.label, best_label);
//! # Ok::<(), warlock::WarlockError>(())
//! ```
//!
//! ## Snapshots, clones and concurrency
//!
//! Internally a session is a thin handle over two [`Arc`]s:
//!
//! - an immutable [`Snapshot`] — schema, system, mix, configuration,
//!   derived bitmap scheme and skew model, all validated exactly once,
//!   plus the lazily computed baseline ranking and allocation-policy
//!   verdict;
//! - shared mutable state — the cross-clone `EvalCache` (one memo
//!   column per ranking run) and the resident optimizer's state.
//!
//! `Warlock` is therefore [`Clone`], and cloning is cheap: clones
//! **share** the snapshot and the cache. Every read-side method
//! (`rank`, `analyze`, `evaluate`, `what_if_*`, …) takes `&self`, so
//! clones on different threads explore what-ifs
//! concurrently with no aliasing and no locks held across an
//! evaluation — and a variation priced on one clone is warm in the
//! shared cache for every other clone.
//!
//! Mutators ([`Warlock::set_system`], [`Warlock::set_mix`],
//! [`Warlock::set_config`]) are copy-on-write: they validate the new
//! input, build a **new** snapshot and swap the handle's `Arc` to it.
//! Clones holding the old snapshot keep reading it unblocked; the
//! shared cache keeps both snapshots' columns apart by run
//! fingerprint, so flipping back and forth stays warm. The fingerprint
//! covers `max_dimensionality`, so a rank after changing only that
//! runs cold once.

use std::sync::{Arc, OnceLock};

use warlock_bitmap::BitmapScheme;
use warlock_cost::CandidateCost;
use warlock_fragment::Fragmentation;
use warlock_schema::StarSchema;
use warlock_skew::SkewModel;
use warlock_storage::SystemConfig;
use warlock_workload::QueryMix;

use crate::advisor::AdvisorReport;
use crate::allocation_plan::{AllocationPlan, PlanInputs};
use crate::analysis::FragmentationAnalysis;
use crate::cache::{EvalCache, EvalCacheStats};
use crate::config::AdvisorConfig;
use crate::config_file::parse_config;
use crate::engine;
use crate::engine::Inputs;
use crate::error::WarlockError;
use crate::optimizer::{AdviceEvent, DriftStatus, OptimizerState};
use crate::policy_judge::PolicyRecommendation;
use crate::tuning::TuningDelta;
use warlock_schema::DimensionId;
use warlock_workload::{mix_divergence, ClassObservation, DriftState, DriftTransition};

/// One immutable, validated set of advisory inputs plus everything
/// derived from them — the unit [`Warlock`] clones share and
/// copy-on-write mutators swap. See the [module docs](self).
#[derive(Debug)]
pub struct Snapshot {
    schema: StarSchema,
    system: SystemConfig,
    mix: QueryMix,
    /// The mix the session was built, [`set_mix`](Warlock::set_mix)'d or
    /// reloaded with: the class set an auto re-advise re-weights. It
    /// differs from `mix` once a re-advise adopted an observed mix,
    /// which leaves out the classes without traffic.
    classes: Arc<QueryMix>,
    config: AdvisorConfig,
    scheme: BitmapScheme,
    skew: SkewModel,
    /// The baseline ranking, computed at most once per snapshot and
    /// shared by every clone holding it.
    ranking: OnceLock<Result<AdvisorReport, WarlockError>>,
    /// The top candidate's judged allocation-policy recommendation,
    /// computed at most once per snapshot like `ranking`.
    recommendation: OnceLock<Result<PolicyRecommendation, WarlockError>>,
}

impl Snapshot {
    fn new(
        schema: StarSchema,
        system: SystemConfig,
        mix: QueryMix,
        classes: Arc<QueryMix>,
        config: AdvisorConfig,
        scheme: BitmapScheme,
        skew: SkewModel,
    ) -> Self {
        Self {
            schema,
            system,
            classes,
            mix,
            config,
            scheme,
            skew,
            ranking: OnceLock::new(),
            recommendation: OnceLock::new(),
        }
    }

    /// Validates the inputs and derives the scheme and skew model of a
    /// new snapshot whose re-weightable class set is `classes`.
    fn validated(
        schema: StarSchema,
        system: SystemConfig,
        mix: QueryMix,
        classes: Arc<QueryMix>,
        config: AdvisorConfig,
    ) -> Result<Self, WarlockError> {
        let (scheme, skew) = engine::validate(&schema, &system, &mix, &config)?;
        Ok(Self::new(
            schema, system, mix, classes, config, scheme, skew,
        ))
    }

    /// The pipeline's view of this snapshot's inputs.
    pub(crate) fn inputs(&self) -> Inputs<'_> {
        Inputs {
            schema: &self.schema,
            system: &self.system,
            mix: &self.mix,
            config: &self.config,
            scheme: &self.scheme,
        }
    }

    /// A copy of this snapshot's inputs with fresh (empty) derived
    /// state, used by [`Warlock::invalidate`].
    fn fresh(&self) -> Self {
        Self::new(
            self.schema.clone(),
            self.system,
            self.mix.clone(),
            Arc::clone(&self.classes),
            self.config.clone(),
            self.scheme.clone(),
            self.skew.clone(),
        )
    }

    /// The schema under advisement.
    #[inline]
    pub fn schema(&self) -> &StarSchema {
        &self.schema
    }

    /// The system configuration.
    #[inline]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The query mix.
    #[inline]
    pub fn mix(&self) -> &QueryMix {
        &self.mix
    }

    /// The advisor configuration.
    #[inline]
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// The derived bitmap scheme.
    #[inline]
    pub fn scheme(&self) -> &BitmapScheme {
        &self.scheme
    }

    /// The skew model in effect.
    #[inline]
    pub fn skew(&self) -> &SkewModel {
        &self.skew
    }
}

/// State every clone of one session family shares: the evaluation
/// memo and the resident optimizer's observed-workload state
/// (statistics window, drift detector, advice events — `None` until
/// the first [`Warlock::observe`]).
#[derive(Debug, Default)]
pub(crate) struct Shared {
    pub(crate) cache: EvalCache,
    pub(crate) optimizer: std::sync::Mutex<Option<OptimizerState>>,
}

impl Shared {
    /// The resident optimizer's state. A panic while the lock was held
    /// (say, inside an auto re-advise) poisons it; the state is then
    /// reset to `None` — the observed-traffic window, drift detector
    /// and advice-event log are dropped, as if nothing had been
    /// observed yet — instead of failing every later drift operation.
    fn lock_optimizer(&self) -> std::sync::MutexGuard<'_, Option<OptimizerState>> {
        self.optimizer.lock().unwrap_or_else(|poisoned| {
            let mut state = poisoned.into_inner();
            *state = None;
            self.optimizer.clear_poison();
            state
        })
    }
}

/// Reads a snapshot's lazily computed value, computing it first when
/// the cell is empty. No lock is held across `compute`: two clones
/// racing an empty cell may both compute, the first result wins, and
/// both return it.
fn settle<'a, T>(
    cell: &'a OnceLock<Result<T, WarlockError>>,
    what: &str,
    compute: impl FnOnce() -> Result<T, WarlockError>,
) -> Result<&'a T, WarlockError> {
    if cell.get().is_none() {
        let _ = cell.set(compute());
    }
    match cell.get() {
        Some(Ok(value)) => Ok(value),
        Some(Err(e)) => Err(e.clone()),
        None => Err(WarlockError::internal(format!("{what} never settled"))),
    }
}

/// An owned WARLOCK advisory session. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Warlock {
    snapshot: Arc<Snapshot>,
    shared: Arc<Shared>,
}

/// Assembles a [`Warlock`] session from owned inputs.
///
/// `schema`, `system` and `mix` are required; `config` defaults to
/// [`AdvisorConfig::default`].
#[derive(Debug, Clone, Default)]
pub struct WarlockBuilder {
    schema: Option<StarSchema>,
    system: Option<SystemConfig>,
    mix: Option<QueryMix>,
    config: AdvisorConfig,
    parallelism: Option<usize>,
    max_candidates: Option<u64>,
    chunk_size: Option<usize>,
    allocation_policy: Option<warlock_alloc::AllocationPolicy>,
}

impl WarlockBuilder {
    /// Sets the star schema under advisement.
    pub fn schema(mut self, schema: StarSchema) -> Self {
        self.schema = Some(schema);
        self
    }

    /// Sets the disk subsystem and architecture parameters.
    pub fn system(mut self, system: SystemConfig) -> Self {
        self.system = Some(system);
        self
    }

    /// Sets the weighted star-query mix.
    pub fn mix(mut self, mix: QueryMix) -> Self {
        self.mix = Some(mix);
        self
    }

    /// Sets the advisor configuration (thresholds, ranking knobs, skew).
    pub fn config(mut self, config: AdvisorConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the candidate-evaluation worker count (`0` = auto, `1` =
    /// serial). Takes precedence over [`AdvisorConfig::parallelism`]
    /// regardless of the order it is combined with [`config`](Self::config).
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers);
        self
    }

    /// Sets the candidate-space budget (`0` = unlimited): pipeline runs
    /// whose exact predicted space exceeds it fail with
    /// [`WarlockError::CandidateBudget`] before any evaluation. Takes
    /// precedence over [`AdvisorConfig::max_candidates`] regardless of
    /// the order it is combined with [`config`](Self::config).
    pub fn max_candidates(mut self, budget: u64) -> Self {
        self.max_candidates = Some(budget);
        self
    }

    /// Sets the streaming evaluation chunk size (`0` = auto). Any value
    /// yields bit-identical reports. Takes precedence over
    /// [`AdvisorConfig::chunk_size`] regardless of the order it is
    /// combined with [`config`](Self::config).
    pub fn chunk_size(mut self, candidates: usize) -> Self {
        self.chunk_size = Some(candidates);
        self
    }

    /// Sets the fragment placement policy (e.g.
    /// [`AllocationPolicy::GraphPartition`] for the co-access graph
    /// partitioner). Takes precedence over
    /// [`AdvisorConfig::allocation_policy`] regardless of the order it
    /// is combined with [`config`](Self::config).
    ///
    /// [`AllocationPolicy::GraphPartition`]: warlock_alloc::AllocationPolicy::GraphPartition
    /// [`AdvisorConfig::allocation_policy`]: crate::AdvisorConfig
    pub fn allocation_policy(mut self, policy: warlock_alloc::AllocationPolicy) -> Self {
        self.allocation_policy = Some(policy);
        self
    }

    /// Validates every input and builds the session.
    ///
    /// # Errors
    ///
    /// [`WarlockError::MissingInput`] when a required input was never
    /// provided; [`WarlockError::Config`] / [`WarlockError::System`] /
    /// [`WarlockError::Workload`] / [`WarlockError::Skew`] when an input
    /// fails validation.
    pub fn build(self) -> Result<Warlock, WarlockError> {
        let schema = self
            .schema
            .ok_or(WarlockError::MissingInput { what: "schema" })?;
        let system = self
            .system
            .ok_or(WarlockError::MissingInput { what: "system" })?;
        let mix = self.mix.ok_or(WarlockError::MissingInput { what: "mix" })?;
        let mut config = self.config;
        if let Some(workers) = self.parallelism {
            config.parallelism = workers;
        }
        if let Some(budget) = self.max_candidates {
            config.max_candidates = budget;
        }
        if let Some(chunk) = self.chunk_size {
            config.chunk_size = chunk;
        }
        if let Some(policy) = self.allocation_policy {
            config.allocation_policy = policy;
        }
        let classes = Arc::new(mix.clone());
        Ok(Warlock {
            snapshot: Arc::new(Snapshot::validated(schema, system, mix, classes, config)?),
            shared: Arc::new(Shared::default()),
        })
    }
}

impl Warlock {
    /// Starts assembling a session.
    pub fn builder() -> WarlockBuilder {
        WarlockBuilder::default()
    }

    /// Builds a session from an already parsed configuration — the
    /// shared construction path of every config-file entry point.
    pub fn from_parsed(parsed: crate::config_file::ParsedConfig) -> Result<Self, WarlockError> {
        Self::builder()
            .schema(parsed.schema)
            .system(parsed.system)
            .mix(parsed.mix)
            .config(parsed.advisor)
            .build()
    }

    /// Builds a session from a configuration-file string (the same
    /// INI-style format the `warlock` CLI reads; see
    /// [`crate::config_file`]).
    pub fn from_config_str(input: &str) -> Result<Self, WarlockError> {
        Self::from_parsed(parse_config(input)?)
    }

    /// Builds a session from a configuration file on disk.
    ///
    /// # Errors
    ///
    /// Every failure — unreadable file, parse error, validation error —
    /// is wrapped in [`WarlockError::AtPath`] so the message names the
    /// offending file.
    pub fn from_config_path(path: impl AsRef<std::path::Path>) -> Result<Self, WarlockError> {
        let path = path.as_ref();
        let parsed = crate::config_file::parse_config_path(path)?;
        Self::from_parsed(parsed).map_err(|e| e.at_path(path.display().to_string()))
    }

    // ------------------------------------------------------------------
    // Accessors.

    /// The immutable snapshot this handle currently reads from. Clones
    /// made now share it; mutators swap in a new one.
    #[inline]
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Whether two handles currently read the same snapshot.
    #[inline]
    pub fn shares_snapshot_with(&self, other: &Warlock) -> bool {
        Arc::ptr_eq(&self.snapshot, &other.snapshot)
    }

    /// The schema under advisement.
    #[inline]
    pub fn schema(&self) -> &StarSchema {
        self.snapshot.schema()
    }

    /// The system configuration.
    #[inline]
    pub fn system(&self) -> &SystemConfig {
        self.snapshot.system()
    }

    /// The query mix.
    #[inline]
    pub fn mix(&self) -> &QueryMix {
        self.snapshot.mix()
    }

    /// The advisor configuration.
    #[inline]
    pub fn config(&self) -> &AdvisorConfig {
        self.snapshot.config()
    }

    /// The derived bitmap scheme.
    #[inline]
    pub fn scheme(&self) -> &BitmapScheme {
        self.snapshot.scheme()
    }

    /// The skew model in effect.
    #[inline]
    pub fn skew(&self) -> &SkewModel {
        self.snapshot.skew()
    }

    // ------------------------------------------------------------------
    // Input mutation: copy-on-write snapshot swaps. Only this handle
    // moves to the new snapshot; clones keep reading the old one
    // unblocked, and the shared cache keeps both warm (entries are
    // keyed by input fingerprints).

    fn swap_snapshot(&mut self, snapshot: Snapshot) {
        self.snapshot = Arc::new(snapshot);
    }

    /// Replaces the system configuration, revalidating it and swapping
    /// this handle to a fresh snapshot (clones are unaffected).
    pub fn set_system(&mut self, system: SystemConfig) -> Result<(), WarlockError> {
        system.validate().map_err(WarlockError::System)?;
        let s = &*self.snapshot;
        self.swap_snapshot(Snapshot::new(
            s.schema.clone(),
            system,
            s.mix.clone(),
            Arc::clone(&s.classes),
            s.config.clone(),
            s.scheme.clone(),
            s.skew.clone(),
        ));
        Ok(())
    }

    /// Replaces the query mix, revalidating it against the schema,
    /// re-deriving the bitmap scheme and swapping this handle to a
    /// fresh snapshot (clones are unaffected). The new mix's classes are
    /// the ones an auto re-advise re-weights from then on.
    pub fn set_mix(&mut self, mix: QueryMix) -> Result<(), WarlockError> {
        let classes = Arc::new(mix.clone());
        self.swap_mix(mix, classes)
    }

    /// [`set_mix`](Self::set_mix), with `classes` as the class set an
    /// auto re-advise re-weights.
    fn swap_mix(&mut self, mix: QueryMix, classes: Arc<QueryMix>) -> Result<(), WarlockError> {
        let s = &*self.snapshot;
        mix.validate(&s.schema)?;
        let scheme = BitmapScheme::derive(&s.schema, &mix, s.config.scheme);
        self.swap_snapshot(Snapshot::new(
            s.schema.clone(),
            s.system,
            mix,
            classes,
            s.config.clone(),
            scheme,
            s.skew.clone(),
        ));
        Ok(())
    }

    /// Replaces the advisor configuration, revalidating and re-deriving
    /// the scheme and skew model; swaps this handle to a fresh snapshot
    /// (clones are unaffected).
    pub fn set_config(&mut self, config: AdvisorConfig) -> Result<(), WarlockError> {
        let s = &*self.snapshot;
        let snapshot = Snapshot::validated(
            s.schema.clone(),
            s.system,
            s.mix.clone(),
            Arc::clone(&s.classes),
            config,
        )?;
        self.swap_snapshot(snapshot);
        Ok(())
    }

    /// Replaces **every** input of this session from an already parsed
    /// configuration, as one atomic copy-on-write snapshot swap: the new
    /// inputs are validated in full first, and only then does this
    /// handle move to the new snapshot. On any error the session keeps
    /// serving its previous snapshot unchanged. Clones — including
    /// in-flight readers — finish on the old snapshot; the shared
    /// evaluation cache is kept (entries are keyed by input
    /// fingerprints, so reverting to a previously served configuration
    /// is warm).
    pub fn reload_from_parsed(
        &mut self,
        parsed: crate::config_file::ParsedConfig,
    ) -> Result<(), WarlockError> {
        let classes = Arc::new(parsed.mix.clone());
        self.swap_snapshot(Snapshot::validated(
            parsed.schema,
            parsed.system,
            parsed.mix,
            classes,
            parsed.advisor,
        )?);
        Ok(())
    }

    /// Atomically re-reads this session's inputs from a configuration
    /// file on disk (see [`Warlock::reload_from_parsed`]). Every failure
    /// is wrapped in [`WarlockError::AtPath`] naming the file, and
    /// leaves the session on its previous snapshot.
    pub fn reload_from_config_path(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), WarlockError> {
        let path = path.as_ref();
        let parsed = crate::config_file::parse_config_path(path)?;
        self.reload_from_parsed(parsed)
            .map_err(|e| e.at_path(path.display().to_string()))
    }

    /// Overrides the bitmap scheme (interactive tuning: "the user may
    /// decide to exclude some of the suggested bitmap indices").
    pub fn with_scheme(mut self, scheme: BitmapScheme) -> Self {
        let s = &*self.snapshot;
        let snapshot = Snapshot::new(
            s.schema.clone(),
            s.system,
            s.mix.clone(),
            Arc::clone(&s.classes),
            s.config.clone(),
            scheme,
            s.skew.clone(),
        );
        self.swap_snapshot(snapshot);
        self
    }

    // ------------------------------------------------------------------
    // The pipeline.

    /// The exact size of the candidate space the pipeline would
    /// enumerate for the current snapshot (point space plus any
    /// configured `range_options`), computed without generating a
    /// single candidate. Cheap enough for health checks — `warlockd`'s
    /// `ping` reports it without a rank round-trip.
    pub fn candidate_space_size(&self) -> u128 {
        let s = &*self.snapshot;
        warlock_fragment::CandidateSource::ranged(
            &s.schema,
            s.config.max_dimensionality,
            &s.config.range_options,
        )
        .space_size()
    }

    /// The threshold context derived from the system configuration.
    pub fn threshold_context(&self) -> warlock_fragment::ThresholdContext {
        engine::threshold_context(self.snapshot.inputs())
    }

    /// Runs the prediction pipeline, ignoring and leaving untouched the
    /// snapshot's cached *ranking* (the shared evaluation memo is still
    /// read, and gains this run's column if it held none — see
    /// [`Warlock::cache_stats`]).
    pub fn run(&self) -> Result<AdvisorReport, WarlockError> {
        engine::run(self.snapshot.inputs(), Some(&self.shared.cache))
    }

    /// The ranked recommendation list, computed on first call and
    /// cached on the snapshot — every clone sharing this snapshot sees
    /// the same baseline without recomputing it. Takes `&self`: no lock
    /// is held across the computation (two clones racing a cold
    /// baseline may both compute it; the first result wins and both
    /// return identical reports).
    pub fn rank(&self) -> Result<&AdvisorReport, WarlockError> {
        settle(&self.snapshot.ranking, "baseline ranking", || self.run())
    }

    /// The snapshot's cached policy recommendation for the top-ranked
    /// candidate, judged on first call (see [`Warlock::recommend_policy`]).
    pub(crate) fn top_recommendation(&self) -> Result<&PolicyRecommendation, WarlockError> {
        settle(
            &self.snapshot.recommendation,
            "policy recommendation",
            || self.judge_top(),
        )
    }

    /// The cached ranking, if [`Warlock::rank`] has succeeded on this
    /// snapshot.
    #[inline]
    pub fn ranking(&self) -> Option<&AdvisorReport> {
        match self.snapshot.ranking.get() {
            Some(Ok(report)) => Some(report),
            _ => None,
        }
    }

    /// Drops the cached ranking and policy verdict **and** the shared
    /// evaluation memo (every column and `evaluate` entry): the next
    /// [`Warlock::rank`] recomputes everything. Clearing the memo is
    /// observable by clones (it is shared); their snapshots, cached
    /// rankings and verdicts are untouched.
    pub fn invalidate(&mut self) {
        let fresh = self.snapshot.fresh();
        self.swap_snapshot(fresh);
        self.shared.cache.clear();
    }

    /// Counters of the shared ranking memo: how many candidate outcomes
    /// are held, and how many ranked candidates hit or missed since the
    /// session family was built (or last invalidated). Repeating a
    /// what-if variation on a warm session — or on any clone of it —
    /// shows pure hits: nothing is re-costed.
    pub fn cache_stats(&self) -> EvalCacheStats {
        self.shared.cache.stats()
    }

    /// The cost of the candidate at 1-based `rank`, ranking first if
    /// necessary: the ranked cost itself, per-class detail included, so
    /// nothing is re-costed.
    pub(crate) fn ranked_cost(&self, rank: usize) -> Result<&CandidateCost, WarlockError> {
        let report = self.rank()?;
        let available = report.ranked.len();
        report
            .ranked
            .get(rank.wrapping_sub(1))
            .map(|r| &r.cost)
            .ok_or(WarlockError::RankOutOfRange { rank, available })
    }

    /// The Fig.-2-style detailed query statistic of the candidate at
    /// 1-based `rank`, ranking first if necessary.
    pub fn analyze(&self, rank: usize) -> Result<FragmentationAnalysis, WarlockError> {
        let cost = self.ranked_cost(rank)?;
        Ok(FragmentationAnalysis::new(self.snapshot.inputs(), cost))
    }

    /// The physical allocation plan of the candidate at 1-based `rank`,
    /// ranking first if necessary.
    pub fn plan_allocation(&self, rank: usize) -> Result<AllocationPlan, WarlockError> {
        let cost = self.ranked_cost(rank)?;
        let inputs = PlanInputs::new(self.snapshot.inputs(), self.skew(), cost)?;
        Ok(inputs.place(self.config().allocation_policy))
    }

    /// Evaluates an arbitrary candidate outside the ranking pipeline:
    /// no thresholds apply, and the cost is computed afresh on every
    /// call (the memo serves ranking runs only, so `cache_stats` does
    /// not count evaluations).
    pub fn evaluate(&self, fragmentation: &Fragmentation) -> Result<CandidateCost, WarlockError> {
        engine::evaluate(self.snapshot.inputs(), fragmentation)
    }

    /// The detailed query statistic of an arbitrary candidate.
    pub fn analyze_candidate(
        &self,
        fragmentation: &Fragmentation,
    ) -> Result<FragmentationAnalysis, WarlockError> {
        let cost = self.evaluate(fragmentation)?;
        Ok(FragmentationAnalysis::new(self.snapshot.inputs(), &cost))
    }

    /// The physical allocation plan of an arbitrary candidate.
    pub fn plan_candidate(
        &self,
        fragmentation: &Fragmentation,
    ) -> Result<AllocationPlan, WarlockError> {
        let cost = self.evaluate(fragmentation)?;
        let inputs = PlanInputs::new(self.snapshot.inputs(), self.skew(), &cost)?;
        Ok(inputs.place(self.config().allocation_policy))
    }

    // ------------------------------------------------------------------
    // What-if tuning (§3.3): each variation re-runs the pipeline over the
    // snapshot's inputs with one of them replaced, without touching the
    // snapshot, and reports the delta against the snapshot's (cached)
    // baseline ranking. All variations take `&self` — clones explore
    // them concurrently.

    /// Runs the pipeline over `inputs` and compares it with the baseline.
    fn what_if(
        &self,
        variation: String,
        inputs: Inputs<'_>,
    ) -> Result<(AdvisorReport, TuningDelta), WarlockError> {
        let report = engine::run(inputs, Some(&self.shared.cache))?;
        let delta = TuningDelta::between(variation, self.rank()?, &report);
        Ok((report, delta))
    }

    /// What if the system had `num_disks` disks?
    pub fn what_if_disks(
        &self,
        num_disks: u32,
    ) -> Result<(AdvisorReport, TuningDelta), WarlockError> {
        let effective = num_disks.max(1);
        let system = SystemConfig {
            num_disks: effective,
            ..*self.system()
        };
        self.what_if(
            clamped_label("disks", num_disks, effective, ""),
            Inputs {
                system: &system,
                ..self.snapshot.inputs()
            },
        )
    }

    /// What if prefetching were fixed at `pages` for both fact tables
    /// and bitmaps?
    pub fn what_if_fixed_prefetch(
        &self,
        pages: u32,
    ) -> Result<(AdvisorReport, TuningDelta), WarlockError> {
        let effective = pages.max(1);
        let prefetch = warlock_storage::PrefetchPolicy::Fixed(effective);
        let system = SystemConfig {
            fact_prefetch: prefetch,
            bitmap_prefetch: prefetch,
            ..*self.system()
        };
        self.what_if(
            clamped_label("prefetch", pages, effective, " pages"),
            Inputs {
                system: &system,
                ..self.snapshot.inputs()
            },
        )
    }

    /// What if the bitmap indexes of `dimension` were dropped (space
    /// limiting)?
    ///
    /// # Errors
    ///
    /// [`WarlockError::Schema`] when the schema has no such dimension.
    pub fn what_if_without_bitmap_dimension(
        &self,
        dimension: DimensionId,
    ) -> Result<(AdvisorReport, TuningDelta), WarlockError> {
        let scheme = self.scheme().without_dimension(dimension)?;
        self.what_if(
            format!("no bitmaps on dimension {dimension}"),
            Inputs {
                scheme: &scheme,
                ..self.snapshot.inputs()
            },
        )
    }

    /// What if query class `name` vanished from the workload? The
    /// bitmap scheme is derived from the mix, so it is re-derived for
    /// the reduced workload (as the original advisor did).
    ///
    /// # Errors
    ///
    /// [`WarlockError::UnknownClass`] when the name is unknown or
    /// removing the class would empty the mix.
    pub fn what_if_without_class(
        &self,
        name: &str,
    ) -> Result<(AdvisorReport, TuningDelta), WarlockError> {
        let mix = self
            .mix()
            .without_class(name)
            .ok_or_else(|| WarlockError::UnknownClass { name: name.into() })?;
        let scheme = BitmapScheme::derive(self.schema(), &mix, self.config().scheme);
        self.what_if(
            format!("without class {name}"),
            Inputs {
                mix: &mix,
                scheme: &scheme,
                ..self.snapshot.inputs()
            },
        )
    }

    // ------------------------------------------------------------------
    // Resident optimizer: workload-stats ingestion, drift detection and
    // incremental auto re-advising. The observed-workload state (the
    // statistics window, the hysteresis detector, the advice-event log)
    // lives in the family-shared state, so every clone sees the same
    // traffic history; adopting the observed mix is a copy-on-write
    // snapshot swap on *this* handle only, like every other mutator.

    /// Ingests one batch of live-traffic observations and returns the
    /// resulting drift status.
    ///
    /// The statistics window decays in observed queries (half-life
    /// [`AdvisorConfig::stats_half_life`]), so the state — and every
    /// drift score and transition — is a pure function of the ordered
    /// observation stream, at any batch split. When the drift score
    /// crosses [`AdvisorConfig::drift_enter`] and
    /// [`AdvisorConfig::auto_advise`] is on, the session adopts the
    /// observed mix (configured classes re-weighted by their observed
    /// traffic) via the copy-on-write [`Warlock::set_mix`] path,
    /// re-ranks — warm through the shared evaluation memo, which keys
    /// costed candidates by a weight-free structure fingerprint, so
    /// only the recombination is recomputed — and emits an
    /// [`AdviceEvent::RecommendationChanged`] into the bounded event
    /// log ([`Warlock::advice_events`]).
    ///
    /// # Errors
    ///
    /// An auto re-advise surfaces its failures instead of silently
    /// keeping the stale ranking: notably the typed
    /// `WorkloadError::EmptyMix` (as [`WarlockError::Workload`]) when
    /// none of the *configured* classes has observed weight — drifted
    /// traffic consisting only of unknown classes cannot be costed. A
    /// failed re-advise keeps this handle's mix and puts the detector
    /// back in its state before the batch, so the next batch whose
    /// score is above `drift_enter` retries it.
    pub fn observe(&mut self, batch: &[ClassObservation]) -> Result<DriftStatus, WarlockError> {
        let shared = Arc::clone(&self.shared);
        let mut guard = shared.lock_optimizer();
        let snapshot = Arc::clone(&self.snapshot);
        let state = guard.get_or_insert_with(|| OptimizerState::new(&snapshot.config));
        state.window.ingest(batch);
        let score = mix_divergence(&snapshot.mix, &state.window);
        let armed = state.detector;
        let transition = state.detector.update(score);
        if transition == Some(DriftTransition::Entered) && snapshot.config.auto_advise {
            if let Err(e) = self.readvise(state, score) {
                // A failed re-advise adopts nothing and re-arms the
                // detector, so the next batch above `drift_enter`
                // retries it instead of waiting for the drift to end.
                self.snapshot = snapshot;
                state.detector = armed;
                return Err(e);
            }
        }
        let s = &*self.snapshot;
        Ok(DriftStatus {
            state: state.detector.state(),
            score: mix_divergence(&s.mix, &state.window),
            drift_enter: state.detector.thresholds().0,
            drift_exit: state.detector.thresholds().1,
            observed_queries: state.window.observed_queries(),
            tracked_classes: state.window.len(),
            auto_advise: s.config.auto_advise,
            events_emitted: state.seq,
        })
    }

    /// The auto re-advise behind [`Warlock::observe`]: adopts the
    /// observed mix, re-ranks it and records the advice event. On error
    /// the event log is untouched, but this handle may already hold the
    /// observed mix; the caller restores its snapshot.
    fn readvise(&mut self, state: &mut OptimizerState, score: f64) -> Result<(), WarlockError> {
        let classes = Arc::clone(&self.snapshot.classes);
        let observed = observed_mix(&classes, &state.window)?;
        // Peek the old recommendation — never force-rank a mix the
        // session is about to abandon.
        let old = self
            .ranking()
            .and_then(|r| r.top())
            .map(|t| t.label.clone());
        self.swap_mix(observed, Arc::clone(&classes))?;
        let new = self
            .rank()?
            .top()
            .map(|t| t.label.clone())
            .ok_or_else(|| WarlockError::internal("re-advise produced an empty ranking"))?;
        state.seq += 1;
        state.push_event(AdviceEvent::RecommendationChanged {
            seq: state.seq,
            old,
            new,
            drift_score: score,
            observed_queries: state.window.observed_queries(),
        });
        // Re-score against the adopted mix: with the observed traffic
        // now configured, the detector falls back toward `Stable` on
        // its own hysteresis.
        let rescore = mix_divergence(&self.snapshot.mix, &state.window);
        let _ = state.detector.update(rescore);
        Ok(())
    }

    /// The current drift status, without ingesting anything or moving
    /// the detector. Before the first [`Warlock::observe`] the score is
    /// `0.0` and the thresholds are read from the configuration.
    pub fn drift_status(&self) -> DriftStatus {
        let guard = self.shared.lock_optimizer();
        let s = &*self.snapshot;
        match &*guard {
            None => DriftStatus {
                state: DriftState::Stable,
                score: 0.0,
                drift_enter: s.config.drift_enter,
                drift_exit: s.config.drift_exit,
                observed_queries: 0,
                tracked_classes: 0,
                auto_advise: s.config.auto_advise,
                events_emitted: 0,
            },
            Some(state) => DriftStatus {
                state: state.detector.state(),
                score: mix_divergence(&s.mix, &state.window),
                drift_enter: state.detector.thresholds().0,
                drift_exit: state.detector.thresholds().1,
                observed_queries: state.window.observed_queries(),
                tracked_classes: state.window.len(),
                auto_advise: s.config.auto_advise,
                events_emitted: state.seq,
            },
        }
    }

    /// The retained advice events in emission order (oldest first). At
    /// most the newest `limit` events are returned (`0` = all
    /// retained); the log itself keeps a bounded tail, and each event's
    /// `seq` stays monotonic across truncation.
    pub fn advice_events(&self, limit: usize) -> Vec<AdviceEvent> {
        let guard = self.shared.lock_optimizer();
        match &*guard {
            None => Vec::new(),
            Some(state) => {
                let skip = if limit == 0 {
                    0
                } else {
                    state.events.len().saturating_sub(limit)
                };
                state.events.iter().skip(skip).cloned().collect()
            }
        }
    }

    /// Turns auto re-advising on or off for this handle (a
    /// copy-on-write configuration swap; the observed-traffic history
    /// is shared and survives).
    pub fn set_auto_advise(&mut self, on: bool) -> Result<(), WarlockError> {
        if self.snapshot.config.auto_advise == on {
            return Ok(());
        }
        let mut config = self.snapshot.config.clone();
        config.auto_advise = on;
        self.set_config(config)
    }
}

/// Labels a what-if knob, spelling out clamping instead of hiding it:
/// requesting `0` disks runs with 1 disk, and the label must say so.
fn clamped_label(what: &str, requested: u32, effective: u32, unit: &str) -> String {
    if requested == effective {
        format!("{what} = {requested}{unit}")
    } else {
        format!("{what} = {effective}{unit} (requested {requested}, clamped)")
    }
}

/// The mix an auto re-advise adopts: the configured classes (the mix the
/// session was built, `set_mix`'d or reloaded with, not an earlier
/// re-advise's), in configured order, re-weighted by their decayed
/// observed weights. Observed classes the configuration does not define
/// are ignored — there are no predicates to cost them with (they still
/// push the drift score up). Configured classes the traffic no longer
/// exercises drop out of the adopted mix (zero weights are structural),
/// and come back as soon as a later re-advise sees their traffic. Fails
/// with the typed `EmptyMix` workload error when no configured class
/// has any observed weight.
fn observed_mix(
    configured: &QueryMix,
    window: &warlock_workload::StatsWindow,
) -> Result<QueryMix, WarlockError> {
    let mut builder = QueryMix::builder();
    for (class, _) in configured.iter() {
        builder = builder.class(class.clone(), window.weight_of(class.name()));
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_skew::DimensionSkew;
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
    fn builder_requires_all_inputs() {
        let e = Warlock::builder().build().unwrap_err();
        assert_eq!(e, WarlockError::MissingInput { what: "schema" });
        let e = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .build()
            .unwrap_err();
        assert_eq!(e, WarlockError::MissingInput { what: "system" });
        let e = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .build()
            .unwrap_err();
        assert_eq!(e, WarlockError::MissingInput { what: "mix" });
    }

    #[test]
    fn rank_caches_until_invalidated() {
        let mut s = session();
        assert!(s.ranking().is_none());
        let top = s.rank().unwrap().top().unwrap().label.clone();
        assert!(s.ranking().is_some());
        // Cached: same snapshot-held report returned.
        let again = s.rank().unwrap().top().unwrap().label.clone();
        assert_eq!(top, again);
        s.invalidate();
        assert!(s.ranking().is_none());
    }

    #[test]
    fn analyze_and_plan_by_rank() {
        // Reading the ranked cost is the same as pricing the candidate
        // afresh, for every rank, worker count and chunk size, on the
        // demo configuration and on a ranged one.
        let demo = crate::config_file::demo_config();
        let ranged = AdvisorConfig {
            range_options: vec![2, 3],
            ..demo.advisor.clone()
        };
        for config in [&demo.advisor, &ranged] {
            for workers in [1, 0] {
                for chunk in [1, 17, 0] {
                    let s = Warlock::builder()
                        .schema(demo.schema.clone())
                        .system(demo.system)
                        .mix(demo.mix.clone())
                        .config(config.clone())
                        .parallelism(workers)
                        .chunk_size(chunk)
                        .build()
                        .unwrap();
                    let at = format!(
                        "ranges={:?} workers={workers} chunk={chunk}",
                        config.range_options
                    );
                    let ranked = s.rank().unwrap().ranked.clone();
                    assert!(!ranked.is_empty(), "{at}");
                    for r in &ranked {
                        let f = &r.cost.fragmentation;
                        let analysis = s.analyze(r.rank).unwrap();
                        assert_eq!(analysis, s.analyze_candidate(f).unwrap(), "{at}");
                        let plan = s.plan_allocation(r.rank).unwrap();
                        assert_eq!(plan, s.plan_candidate(f).unwrap(), "{at}");
                    }
                    let top = &ranked[0].cost.fragmentation;
                    assert_eq!(
                        s.recommend_policy().unwrap(),
                        s.recommend_policy_for(top).unwrap(),
                        "{at}"
                    );
                }
            }
        }

        let s = session();
        let analysis = s.analyze(1).unwrap();
        let top = s.rank().unwrap().top().unwrap().clone();
        assert_eq!(analysis.label, top.label);
        let plan = s.plan_allocation(1).unwrap();
        assert_eq!(plan.label, top.label);
        let available = s.rank().unwrap().ranked.len();
        assert_eq!(
            s.analyze(0).unwrap_err(),
            WarlockError::RankOutOfRange { rank: 0, available }
        );
        assert_eq!(
            s.plan_allocation(available + 1).unwrap_err(),
            WarlockError::RankOutOfRange {
                rank: available + 1,
                available
            }
        );
    }

    #[test]
    fn set_system_invalidates_and_changes_advice_inputs() {
        let mut s = session();
        let baseline = s.rank().unwrap().top().unwrap().cost.response_ms;
        let mut system = *s.system();
        system.num_disks = 64;
        s.set_system(system).unwrap();
        assert!(s.ranking().is_none());
        let faster = s.rank().unwrap().top().unwrap().cost.response_ms;
        assert!(faster < baseline);

        let mut bad = *s.system();
        bad.disk.transfer_mb_per_s = 0.0;
        assert!(matches!(s.set_system(bad), Err(WarlockError::System(_))));
    }

    #[test]
    fn what_if_variants_leave_session_untouched() {
        let s = session();
        let baseline = s.rank().unwrap().clone();
        let (_, delta) = s.what_if_disks(64).unwrap();
        assert!(delta.variation_response_ms < delta.baseline_response_ms);
        let (_, delta) = s.what_if_fixed_prefetch(1).unwrap();
        assert!(delta.variation_response_ms > delta.baseline_response_ms);
        let (_, delta) = s.what_if_without_bitmap_dimension(DimensionId(0)).unwrap();
        assert!(delta.variation_response_ms >= delta.baseline_response_ms * 0.999);
        assert!(matches!(
            s.what_if_without_bitmap_dimension(DimensionId(9)),
            Err(WarlockError::Schema(
                warlock_schema::SchemaError::UnknownDimension { index: 9 }
            ))
        ));
        assert!(matches!(
            s.what_if_without_class("nonexistent"),
            Err(WarlockError::UnknownClass { .. })
        ));
        let (report, delta) = s.what_if_without_class("q01_month_store_code").unwrap();
        assert!(!report.ranked.is_empty());
        assert!(delta.variation.contains("q01"));
        // The session's own inputs and baseline are untouched.
        assert_eq!(s.rank().unwrap(), &baseline);
    }

    #[test]
    fn repeated_what_if_hits_the_eval_cache() {
        let s = session();
        s.rank().unwrap();
        let (first_report, _) = s.what_if_disks(64).unwrap();
        let after_first = s.cache_stats();
        assert!(after_first.misses > 0, "cold variation must miss");
        let (second_report, _) = s.what_if_disks(64).unwrap();
        let after_second = s.cache_stats();
        assert_eq!(first_report, second_report);
        assert_eq!(
            after_second.misses, after_first.misses,
            "warm re-run of the same variation must not re-cost anything"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn a_disk_what_if_recombines_without_re_costing() {
        let s = session();
        let enumerated = s.rank().unwrap().enumerated;
        let cold = s.cache_stats();
        assert_eq!(cold.misses as usize, enumerated);
        let most = warlock_storage::MAX_DISKS;
        for (i, disks) in [1u32, 8, 64, most].into_iter().enumerate() {
            let (report, _) = s.what_if_disks(disks).unwrap();
            let stats = s.cache_stats();
            assert_eq!(stats.misses, cold.misses, "{disks} disks re-costed");
            assert_eq!(
                stats.hits as usize,
                (i + 1) * enumerated,
                "{disks} disks: every candidate is a memo hit"
            );
            assert_eq!(stats.columns, 1, "{disks} disks: one column serves all");
            // Bit-identical to a fresh session on that many disks, down
            // to the disk-threshold exclusions applied at merge.
            let fresh = Warlock::builder()
                .schema(s.schema().clone())
                .system(SystemConfig::default_2001(disks))
                .mix(s.mix().clone())
                .build()
                .unwrap();
            assert_eq!(
                format!("{report:?}"),
                format!("{:?}", fresh.run().unwrap()),
                "{disks} disks"
            );
        }
    }

    #[test]
    fn a_what_if_cycle_larger_than_the_memo_stays_bit_identical_and_mostly_warm() {
        type WhatIf = fn(&Warlock) -> Result<(AdvisorReport, TuningDelta), WarlockError>;
        let variations: [WhatIf; 6] = [
            |s| s.what_if_disks(8),
            |s| s.what_if_disks(32),
            |s| s.what_if_disks(64),
            |s| s.what_if_fixed_prefetch(16),
            |s| s.what_if_without_bitmap_dimension(DimensionId(0)),
            |s| s.what_if_without_class("q01_month_store_code"),
        ];
        let fresh: Vec<String> = variations
            .iter()
            .map(|what_if| format!("{:?}", what_if(&session()).unwrap()))
            .collect();
        // A memo with room for three of the cycle's four columns (the
        // baseline's, which the three disk counts share, and one per
        // other variation, one candidate space each).
        let n = session().rank().unwrap().enumerated;
        let s = Warlock {
            snapshot: Arc::clone(&session().snapshot),
            shared: Arc::new(Shared {
                cache: EvalCache::with_budget(3 * n + n / 2),
                ..Shared::default()
            }),
        };
        s.rank().unwrap();
        let mut last = s.cache_stats();
        for round in 0..3 {
            for (what_if, fresh) in variations.iter().zip(&fresh) {
                assert_eq!(
                    &format!("{:?}", what_if(&s).unwrap()),
                    fresh,
                    "cycle {round}"
                );
            }
            let stats = s.cache_stats();
            let (hits, misses) = (stats.hits - last.hits, stats.misses - last.misses);
            if round == 2 {
                assert!(
                    hits >= 2 * misses,
                    "third cycle: {hits} hits, {misses} misses"
                );
            }
            last = stats;
        }
        // The baseline's column serves all three disk counts, so no
        // column of the cycle goes cold enough to make way: the last
        // one is refused once per cycle instead.
        assert_eq!(last.evicted, 0, "every column is reused each cycle");
        assert_eq!(last.refused, 3, "one refusal per cycle");
    }

    #[test]
    fn clones_share_snapshot_cache_and_baseline() {
        let s1 = session();
        let s2 = s1.clone();
        assert!(s1.shares_snapshot_with(&s2));
        s1.rank().unwrap();
        // The clone sees the baseline without recomputing it.
        assert!(s2.ranking().is_some());
        // A what-if priced on one clone is warm on the other.
        let (r1, d1) = s1.what_if_disks(64).unwrap();
        let misses_after_s1 = s1.cache_stats().misses;
        let (r2, d2) = s2.what_if_disks(64).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
        assert_eq!(
            s2.cache_stats().misses,
            misses_after_s1,
            "the clone's repeat what-if must be served warm from the shared cache"
        );
    }

    #[test]
    fn mutating_one_clone_leaves_the_other_on_the_old_snapshot() {
        let mut s1 = session();
        let s2 = s1.clone();
        let baseline = s2.rank().unwrap().clone();
        let entries_before = s2.cache_stats().entries;
        let mut system = *s1.system();
        system.num_disks = 64;
        s1.set_system(system).unwrap();
        assert!(!s1.shares_snapshot_with(&s2));
        assert_eq!(s1.system().num_disks, 64);
        assert_eq!(s2.system().num_disks, 16);
        // The sibling's snapshot, baseline and warm cache entries are
        // untouched — copy-on-write never clears the shared memo.
        assert_eq!(s2.rank().unwrap(), &baseline);
        assert!(s2.cache_stats().entries >= entries_before);
        // The mutated handle re-ranks under the new system.
        assert!(s1.ranking().is_none());
        assert!(
            s1.rank().unwrap().top().unwrap().cost.response_ms
                < baseline.top().unwrap().cost.response_ms
        );
    }

    #[test]
    fn flipping_back_to_a_prior_snapshot_is_warm() {
        use warlock_storage::PrefetchPolicy;
        let mut s = session();
        s.rank().unwrap();
        let misses_baseline = s.cache_stats().misses;
        let original = *s.system();
        let mut system = original;
        system.fact_prefetch = PrefetchPolicy::Fixed(16);
        system.bitmap_prefetch = PrefetchPolicy::Fixed(16);
        s.set_system(system).unwrap();
        s.rank().unwrap();
        let misses_after_swap = s.cache_stats().misses;
        assert!(misses_after_swap > misses_baseline);
        // Swapping back re-uses the original snapshot's entries.
        s.set_system(original).unwrap();
        s.rank().unwrap();
        assert_eq!(
            s.cache_stats().misses,
            misses_after_swap,
            "returning to a previously priced configuration must be free"
        );
    }

    #[test]
    fn invalidate_clears_the_shared_cache() {
        let mut s = session();
        s.rank().unwrap();
        assert!(s.cache_stats().entries > 0);
        s.invalidate();
        assert_eq!(s.cache_stats(), crate::cache::EvalCacheStats::default());
        assert!(s.ranking().is_none());
        s.rank().unwrap();
        assert!(s.cache_stats().entries > 0);
    }

    #[test]
    fn entries_count_column_candidates_and_evaluate_is_uncached() {
        let mut s = session();
        let enumerated = s.rank().unwrap().enumerated;
        let ranked = s.cache_stats();
        assert_eq!(ranked.entries, enumerated);
        // Evaluations are computed afresh and leave the memo alone.
        let candidate = Fragmentation::from_pairs(&[(0, 1), (1, 1)]).unwrap();
        let first = s.evaluate(&candidate).unwrap();
        assert_eq!(
            format!("{first:?}"),
            format!("{:?}", s.evaluate(&candidate).unwrap())
        );
        assert_eq!(s.cache_stats(), ranked);
        // A what-if is a column of its own.
        let (report, _) = s.what_if_fixed_prefetch(16).unwrap();
        assert_eq!(s.cache_stats().entries, enumerated + report.enumerated);
        s.invalidate();
        assert_eq!(s.cache_stats(), crate::cache::EvalCacheStats::default());
    }

    #[test]
    fn a_rerun_over_a_cut_prefix_column_mixes_hits_and_fresh_costs_bit_identically() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let cold = format!("{:?}", session().run().unwrap());
        let n = session().run().unwrap().enumerated;
        // Room for a prefix that ends off every chunk boundary below.
        let budget = n / 2 + 5;
        for workers in [1, 0] {
            for chunk in [1, 17, 0] {
                let built = Warlock::builder()
                    .schema(schema.clone())
                    .system(SystemConfig::default_2001(16))
                    .mix(mix.clone())
                    .parallelism(workers)
                    .chunk_size(chunk)
                    .build()
                    .unwrap();
                let s = Warlock {
                    snapshot: Arc::clone(&built.snapshot),
                    shared: Arc::new(Shared {
                        cache: EvalCache::with_budget(budget),
                        ..Shared::default()
                    }),
                };
                let at = format!("workers={workers} chunk={chunk}");
                assert_eq!(format!("{:?}", s.run().unwrap()), cold, "cold: {at}");
                let after_cold = s.cache_stats();
                assert_eq!(after_cold.entries, budget, "{at}");
                // The warm run hits exactly the kept prefix and costs the
                // rest fresh, within the same chunks.
                assert_eq!(format!("{:?}", s.run().unwrap()), cold, "warm: {at}");
                let after_warm = s.cache_stats();
                assert_eq!(after_warm.hits - after_cold.hits, budget as u64, "{at}");
                assert_eq!(
                    after_warm.misses - after_cold.misses,
                    (n - budget) as u64,
                    "{at}"
                );
                assert_eq!(
                    (after_warm.entries, after_warm.columns),
                    (budget, 1),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn cache_accounting_is_the_same_at_any_parallelism_and_chunk_size() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        for workers in [1, 0] {
            for chunk in [1, 17, 0] {
                let s = Warlock::builder()
                    .schema(schema.clone())
                    .system(SystemConfig::default_2001(16))
                    .mix(mix.clone())
                    .parallelism(workers)
                    .chunk_size(chunk)
                    .build()
                    .unwrap();
                let cold = s.run().unwrap();
                let n = cold.enumerated as u64;
                let after_cold = s.cache_stats();
                assert_eq!(
                    (after_cold.hits, after_cold.misses),
                    (0, n),
                    "cold: workers={workers} chunk={chunk}"
                );
                let warm = s.run().unwrap();
                assert_eq!(warm, cold);
                let after_warm = s.cache_stats();
                assert_eq!(
                    (after_warm.hits, after_warm.misses),
                    (n, n),
                    "warm: workers={workers} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn a_panic_holding_the_memo_lock_resets_it_instead_of_failing_later_ranks() {
        let s = session();
        s.run().unwrap();
        assert!(s.cache_stats().entries > 0);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.shared.cache.panic_while_locked();
        }));
        assert!(panicked.is_err());
        assert_eq!(s.cache_stats(), crate::cache::EvalCacheStats::default());
        let report = s.rank().unwrap();
        let stats = s.cache_stats();
        assert_eq!(stats.misses, report.enumerated as u64);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, report.enumerated);
    }

    #[test]
    fn parallelism_knob_does_not_change_the_report() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let build = |workers: usize| {
            Warlock::builder()
                .schema(schema.clone())
                .system(SystemConfig::default_2001(16))
                .mix(mix.clone())
                .parallelism(workers)
                .build()
                .unwrap()
        };
        let serial = build(1);
        assert_eq!(serial.config().parallelism, 1);
        let reference = serial.run().unwrap();
        for workers in [2, 3, 8] {
            assert_eq!(
                build(workers).run().unwrap(),
                reference,
                "W={workers} diverged"
            );
        }
    }

    #[test]
    fn a_cold_run_starts_one_crew_and_a_warm_run_none() {
        use crate::engine::exec::tests::STARTED;
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let build = |workers: usize| {
            Warlock::builder()
                .schema(schema.clone())
                .system(SystemConfig::default_2001(16))
                .mix(mix.clone())
                .parallelism(workers)
                .chunk_size(64)
                .build()
                .unwrap()
        };
        // Many chunks with fresh work, one crew: at most `workers − 1`
        // helpers, started once. A warm re-run and a serial run start
        // no thread.
        for workers in [1, 4] {
            let s = build(workers);
            STARTED.set((0, 0));
            let cold = s.run().unwrap();
            let (crews, helpers) = STARTED.get();
            if workers == 1 {
                assert_eq!((crews, helpers), (0, 0));
            } else {
                assert_eq!(crews, 1);
                assert!((1..workers).contains(&helpers), "{helpers} helpers");
            }
            assert_eq!(s.run().unwrap(), cold);
            assert_eq!(
                STARTED.get(),
                (crews, helpers),
                "a warm run started threads"
            );
        }
    }

    #[test]
    fn builder_parallelism_overrides_config_in_any_order() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let s = Warlock::builder()
            .parallelism(5)
            .schema(schema)
            .system(SystemConfig::default_2001(16))
            .mix(mix)
            .config(AdvisorConfig::default())
            .build()
            .unwrap();
        assert_eq!(s.config().parallelism, 5);
    }

    #[test]
    fn builder_allocation_policy_overrides_config_in_any_order() {
        use warlock_alloc::{AllocationPolicy, AllocationScheme};
        let s = Warlock::builder()
            .allocation_policy(AllocationPolicy::GraphPartition { seed: 7 })
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .config(AdvisorConfig::default())
            .build()
            .unwrap();
        assert_eq!(
            s.config().allocation_policy,
            AllocationPolicy::GraphPartition { seed: 7 }
        );
        let plan = s.plan_allocation(1).unwrap();
        assert_eq!(plan.allocation.scheme(), AllocationScheme::GraphPartition);
    }

    #[test]
    fn builder_streaming_knobs_override_config() {
        let s = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .config(AdvisorConfig::default())
            .max_candidates(5000)
            .chunk_size(32)
            .build()
            .unwrap();
        assert_eq!(s.config().max_candidates, 5000);
        assert_eq!(s.config().chunk_size, 32);
        assert_eq!(s.candidate_space_size(), 168);
        // The budget admits the 168-candidate space: advice flows.
        assert!(s.rank().unwrap().top().is_some());
    }

    #[test]
    fn exceeding_the_candidate_budget_is_a_typed_error() {
        let s = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .max_candidates(100)
            .build()
            .unwrap();
        let err = s.rank().unwrap_err();
        assert_eq!(
            err,
            WarlockError::CandidateBudget {
                space: 168,
                budget: 100
            }
        );
        assert_eq!(err.kind(), "candidate_budget");
        // What-if variations run the pipeline too, so they fail the
        // same way instead of grinding through an over-budget space.
        assert!(matches!(
            s.what_if_disks(64),
            Err(WarlockError::CandidateBudget { .. })
        ));
    }

    #[test]
    fn chunk_size_does_not_change_the_report() {
        let schema = apb1_like_schema(Apb1Config::default()).unwrap();
        let mix = apb1_like_mix().unwrap();
        let build = |chunk: usize| {
            Warlock::builder()
                .schema(schema.clone())
                .system(SystemConfig::default_2001(16))
                .mix(mix.clone())
                .chunk_size(chunk)
                .build()
                .unwrap()
        };
        let reference = build(0).run().unwrap();
        for chunk in [1, 2, 7, 168, 10_000] {
            assert_eq!(build(chunk).run().unwrap(), reference, "chunk={chunk}");
        }
    }

    #[test]
    fn invalid_skew_coverage_is_a_skew_error() {
        let e = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .config(AdvisorConfig {
                skew: Some(vec![DimensionSkew::UNIFORM]),
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(e, WarlockError::Skew(_)));
    }

    #[test]
    fn from_config_str_round_trip() {
        let cfg = crate::config_file::render_config(&crate::config_file::demo_config());
        let s = Warlock::from_config_str(&cfg).unwrap();
        assert!(s.rank().unwrap().top().is_some());
        assert!(matches!(
            Warlock::from_config_str("[nonsense"),
            Err(WarlockError::ConfigFile(_))
        ));
    }

    #[test]
    fn reload_swaps_atomically_and_keeps_clones_and_cache() {
        let demo = crate::config_file::demo_config();
        let cfg = crate::config_file::render_config(&demo);
        let mut s = Warlock::from_config_str(&cfg).unwrap();
        let sibling = s.clone();
        let baseline = s.rank().unwrap().clone();
        let misses_baseline = s.cache_stats().misses;

        // Reload with a one-page prefetch: this handle moves, the
        // sibling stays.
        let reloaded = cfg.replace("prefetch = auto", "prefetch = 1");
        assert_ne!(cfg, reloaded, "fixture must actually change");
        s.reload_from_parsed(crate::config_file::parse_config(&reloaded).unwrap())
            .unwrap();
        assert!(!s.shares_snapshot_with(&sibling));
        let fixed = warlock_storage::PrefetchPolicy::Fixed(1);
        assert_eq!(s.system().fact_prefetch, fixed);
        assert_ne!(sibling.system().fact_prefetch, fixed);
        assert_eq!(sibling.rank().unwrap(), &baseline);
        assert!(
            s.rank().unwrap().top().unwrap().cost.response_ms
                > baseline.top().unwrap().cost.response_ms
        );

        // Reverting to the original configuration is warm: the shared
        // cache survived both swaps.
        let misses_after_variant = s.cache_stats().misses;
        s.reload_from_parsed(crate::config_file::parse_config(&cfg).unwrap())
            .unwrap();
        s.rank().unwrap();
        assert_eq!(s.cache_stats().misses, misses_after_variant);
        assert!(misses_after_variant > misses_baseline);
    }

    #[test]
    fn failed_reload_leaves_the_session_untouched() {
        let cfg = crate::config_file::render_config(&crate::config_file::demo_config());
        let mut s = Warlock::from_config_str(&cfg).unwrap();
        let snapshot = s.snapshot();
        let e = s
            .reload_from_config_path("/definitely/not/a/file.cfg")
            .unwrap_err();
        assert_eq!(e.kind(), "io");
        assert!(
            Arc::ptr_eq(&snapshot, &s.snapshot()),
            "snapshot must not move"
        );

        // A file that parses but fails validation is also rejected
        // atomically, with the path attached.
        let path = std::env::temp_dir().join(format!(
            "warlock-reload-bad-{}-{:?}.cfg",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, cfg.replace("disks = 16", "disks = 0")).unwrap();
        let e = s.reload_from_config_path(&path).unwrap_err();
        assert_eq!(e.kind(), "config_file");
        assert!(e.to_string().contains(&path.display().to_string()));
        assert!(Arc::ptr_eq(&snapshot, &s.snapshot()));
        assert_eq!(s.system().num_disks, 16);
        let _ = std::fs::remove_file(&path);
    }

    /// A session with the resident optimizer armed: permissive budget,
    /// auto re-advising on, default hysteresis (enter 0.25 / exit 0.10).
    fn resident_session() -> Warlock {
        Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .config(AdvisorConfig {
                auto_advise: true,
                ..Default::default()
            })
            .build()
            .unwrap()
    }

    /// One observation batch distributed like the configured mix
    /// (1000 queries).
    fn matching_batch(s: &Warlock) -> Vec<ClassObservation> {
        s.mix()
            .iter()
            .map(|(c, share)| ClassObservation::new(c.name(), (share * 1000.0).round() as u64))
            .collect()
    }

    /// A drifted 1000-query batch: `boost` takes 55 % of the traffic,
    /// the rest keep their configured proportions. L1 distance to the
    /// configured mix ≈ 0.4 — past the default enter threshold, but
    /// close enough that the *adopted* blend stays within hysteresis of
    /// the target (the detector must fire exactly once).
    fn drifted_batch(s: &Warlock, boost: &str) -> Vec<ClassObservation> {
        let boosted = s.mix().class_by_name(boost).expect("boost class").share;
        s.mix()
            .iter()
            .map(|(c, share)| {
                let target = if c.name() == boost {
                    0.55
                } else {
                    share * (0.45 / (1.0 - boosted))
                };
                ClassObservation::new(c.name(), (target * 1000.0).round() as u64)
            })
            .collect()
    }

    #[test]
    fn observe_without_auto_advise_only_tracks() {
        let mut s = session();
        assert!(!s.config().auto_advise);
        let baseline_mix = s.mix().clone();
        let matching = matching_batch(&s);
        let status = s.observe(&matching).unwrap();
        assert_eq!(status.state, DriftState::Stable);
        // Not exactly zero: within one batch each observation decays
        // the classes before it, so even matching traffic carries a
        // small ordering skew — well inside the hysteresis band.
        assert!(
            status.score < 0.15,
            "matching traffic scored {}",
            status.score
        );
        assert_eq!(status.observed_queries, 1000);
        // Hammer one class until the detector trips: drift is reported
        // but nothing is adopted and no event fires.
        let mut entered = false;
        for _ in 0..20 {
            let st = s
                .observe(&[ClassObservation::new("q02_month_class", 500)])
                .unwrap();
            assert_eq!(st.events_emitted, 0);
            entered |= st.state == DriftState::Drifting;
        }
        assert!(entered, "pure single-class traffic must trip the detector");
        assert_eq!(s.mix(), &baseline_mix, "tracking mode must not adopt");
        assert!(s.advice_events(0).is_empty());
    }

    #[test]
    fn auto_advise_fires_exactly_once_and_rescores_against_the_adopted_mix() {
        let mut s = resident_session();
        s.rank().unwrap();
        let baseline_mix = s.mix().clone();
        let matching = matching_batch(&s);
        s.observe(&matching).unwrap();
        let drifted = drifted_batch(&s, "q02_month_class");
        let mut last = None;
        for _ in 0..30 {
            last = Some(s.observe(&drifted).unwrap());
        }
        let status = last.unwrap();
        assert_eq!(status.events_emitted, 1, "exactly one re-advise");
        assert_eq!(
            status.state,
            DriftState::Stable,
            "after adoption the observed traffic matches the configured mix"
        );
        assert!(status.score < 0.25, "post-adoption score {}", status.score);
        assert_ne!(s.mix(), &baseline_mix, "the observed mix was adopted");
        assert!(
            s.mix().class_by_name("q02_month_class").unwrap().share > 0.3,
            "the boosted class dominates the adopted mix"
        );
        let events = s.advice_events(0);
        assert_eq!(events.len(), 1);
        let AdviceEvent::RecommendationChanged {
            seq,
            old,
            new,
            drift_score,
            ..
        } = &events[0];
        assert_eq!(*seq, 1);
        assert!(old.is_some(), "baseline was ranked before the drift");
        assert!(!new.is_empty());
        assert!(*drift_score > 0.25, "trigger score {drift_score}");
        // `advice_events` honors its limit.
        assert_eq!(s.advice_events(1).len(), 1);
        assert!(s.advice_events(0).len() <= crate::optimizer::MAX_ADVICE_EVENTS);
    }

    #[test]
    fn auto_readvise_is_warm_and_bit_identical_to_a_cold_run() {
        let mut s = resident_session();
        s.rank().unwrap();
        let cold_stats = s.cache_stats();
        assert!(cold_stats.misses > 0);
        let matching = matching_batch(&s);
        s.observe(&matching).unwrap();
        let drifted = drifted_batch(&s, "q02_month_class");
        for _ in 0..10 {
            s.observe(&drifted).unwrap();
        }
        assert_eq!(s.drift_status().events_emitted, 1);
        let warm_stats = s.cache_stats();
        assert_eq!(
            warm_stats.misses, cold_stats.misses,
            "the re-advise re-rank must not re-cost a single candidate"
        );
        assert!(
            warm_stats.hits > cold_stats.hits,
            "the re-advise re-rank must be served from the memo"
        );
        // The warm, recombined ranking is bit-identical to a cold
        // session built directly at the adopted mix.
        let cold = Warlock::builder()
            .schema(s.schema().clone())
            .system(*s.system())
            .mix(s.mix().clone())
            .config(s.config().clone())
            .build()
            .unwrap();
        assert_eq!(cold.rank().unwrap(), s.rank().unwrap());
    }

    #[test]
    fn drift_to_unknown_classes_surfaces_a_typed_workload_error() {
        let mut s = resident_session();
        // All traffic on a class the configuration cannot cost: the
        // detector trips immediately (score 1.0) and the re-advise
        // fails with the typed workload error instead of silently
        // keeping the stale ranking.
        let err = s
            .observe(&[ClassObservation::new("mystery_scan", 1000)])
            .unwrap_err();
        assert_eq!(err.kind(), "workload");
        // The window kept the traffic and the detector was re-armed, so
        // the next unknown-only batch retries the re-advise and fails
        // the same way.
        let err = s
            .observe(&[ClassObservation::new("mystery_scan", 100)])
            .unwrap_err();
        assert_eq!(err.kind(), "workload");
        let status = s.drift_status();
        assert_eq!(status.state, DriftState::Stable);
        assert_eq!(status.events_emitted, 0);
    }

    #[test]
    fn a_failed_auto_readvise_is_retried_on_the_next_drifted_batch() {
        let mut s = resident_session();
        s.rank().unwrap();
        let baseline_mix = s.mix().clone();
        s.observe(&[ClassObservation::new("mystery_scan", 1000)])
            .unwrap_err();
        assert_eq!(s.mix(), &baseline_mix, "a failed re-advise adopts nothing");
        // Costable traffic that is still far from the configured mix:
        // the first batch above `drift_enter` re-advises.
        let mut emitted = Vec::new();
        for _ in 0..8 {
            let status = s
                .observe(&[ClassObservation::new("q04_year_line", 20_000)])
                .unwrap();
            emitted.push(status.events_emitted);
        }
        assert_eq!(
            emitted[0], 1,
            "the retry fires on the first batch: {emitted:?}"
        );
        assert_eq!(s.advice_events(0).len(), 1);
        assert_ne!(s.mix(), &baseline_mix, "the observed mix was adopted");
    }

    #[test]
    fn a_class_without_traffic_comes_back_when_its_traffic_does() {
        let mut s = resident_session();
        s.rank().unwrap();
        let names = |s: &Warlock| -> Vec<String> {
            s.mix().iter().map(|(c, _)| c.name().to_owned()).collect()
        };
        // Traffic on two of the ten classes: the adopted mix is theirs.
        s.observe(&[
            ClassObservation::new("q01_month_store_code", 50),
            ClassObservation::new("q02_month_class", 50),
        ])
        .unwrap();
        assert_eq!(names(&s), ["q01_month_store_code", "q02_month_class"]);
        // Traffic moves to a class the adopted mix left out: the next
        // re-advise re-weights the configured classes, so it comes back.
        let status = s
            .observe(&[ClassObservation::new("q04_year_line", 10_000)])
            .unwrap();
        assert_eq!(status.events_emitted, 2);
        assert_eq!(
            names(&s),
            ["q01_month_store_code", "q02_month_class", "q04_year_line"]
        );
        assert!(status.score < 0.01, "still drifting at {}", status.score);
        // A configuration change keeps the configured class set.
        s.set_auto_advise(false).unwrap();
        s.set_auto_advise(true).unwrap();
        s.observe(&[ClassObservation::new("q10_year_full_slice", 1_000_000)])
            .unwrap();
        assert!(names(&s).contains(&"q10_year_full_slice".to_owned()));
    }

    #[test]
    fn drift_status_peeks_without_mutating() {
        let mut s = session();
        let idle = s.drift_status();
        assert_eq!(idle.state, DriftState::Stable);
        assert_eq!(idle.score, 0.0);
        assert_eq!(idle.observed_queries, 0);
        assert_eq!(idle.drift_enter, s.config().drift_enter);
        assert_eq!(idle.drift_exit, s.config().drift_exit);
        s.observe(&[ClassObservation::new("q02_month_class", 10)])
            .unwrap();
        let a = s.drift_status();
        let b = s.drift_status();
        assert_eq!(a, b, "peeking twice must not move anything");
        assert_eq!(a.observed_queries, 10);
        assert_eq!(a.tracked_classes, 1);
    }

    #[test]
    fn set_auto_advise_flips_the_mode_and_keeps_traffic_history() {
        let mut s = session();
        s.observe(&[ClassObservation::new("q02_month_class", 42)])
            .unwrap();
        s.set_auto_advise(true).unwrap();
        assert!(s.config().auto_advise);
        let status = s.drift_status();
        assert!(status.auto_advise);
        assert_eq!(status.observed_queries, 42, "history survives the flip");
        s.set_auto_advise(true).unwrap(); // idempotent
        s.set_auto_advise(false).unwrap();
        assert!(!s.config().auto_advise);
    }

    #[test]
    fn clones_share_the_observed_traffic() {
        let mut s1 = session();
        let s2 = s1.clone();
        s1.observe(&[ClassObservation::new("q02_month_class", 7)])
            .unwrap();
        assert_eq!(s2.drift_status().observed_queries, 7);
    }

    #[test]
    fn from_config_path_errors_name_the_file() {
        let missing = "/definitely/not/a/file.cfg";
        let e = Warlock::from_config_path(missing).unwrap_err();
        assert_eq!(e.kind(), "io");
        assert!(
            e.to_string().contains(missing),
            "`{e}` does not name the offending path"
        );

        // Parse errors carry the path too.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("warlock-bad-{}.cfg", std::process::id()));
        std::fs::write(&path, "[dimension broken\n").unwrap();
        let e = Warlock::from_config_path(&path).unwrap_err();
        assert_eq!(e.kind(), "config_file");
        assert!(
            e.to_string().contains(&path.display().to_string()),
            "`{e}` does not name the offending path"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_poisoned_optimizer_lock_is_recovered() {
        let mut s = resident_session();
        let matching = matching_batch(&s);
        s.observe(&matching).unwrap();
        let shared = Arc::clone(&s.shared);
        let joined = std::thread::spawn(move || {
            let _held = shared.optimizer.lock();
            panic!("panic while holding the optimizer lock");
        })
        .join();
        assert!(joined.is_err());
        assert!(s.shared.optimizer.is_poisoned());
        // The drift history is dropped and every drift op serves again.
        let status = s.drift_status();
        assert!(!s.shared.optimizer.is_poisoned());
        assert_eq!(status.observed_queries, 0);
        assert_eq!(status.state, DriftState::Stable);
        assert!(s.advice_events(0).is_empty());
        let status = s.observe(&matching).unwrap();
        assert_eq!(status.observed_queries, 1000);
        assert_eq!(s.drift_status().observed_queries, 1000);
    }

    /// A newly built session with `s`'s current inputs.
    fn rebuilt(s: &Warlock) -> Warlock {
        Warlock::builder()
            .schema(s.schema().clone())
            .system(*s.system())
            .mix(s.mix().clone())
            .config(s.config().clone())
            .build()
            .unwrap()
    }

    #[test]
    fn the_policy_verdict_is_judged_once_per_snapshot() {
        let s = session();
        assert!(s.snapshot.recommendation.get().is_none());
        let cold = s.recommend_policy().unwrap();
        assert!(s.snapshot.recommendation.get().is_some());
        assert_eq!(s.recommend_policy().unwrap(), cold);
        let top = s.rank().unwrap().top().unwrap().cost.fragmentation.clone();
        assert_eq!(s.recommend_policy_for(&top).unwrap(), cold);
        assert_eq!(s.session_report().unwrap().recommendation, Some(cold));
    }

    #[test]
    fn every_snapshot_swap_rejudges_the_policy_verdict() {
        let base = session();
        let before = base.recommend_policy().unwrap();

        let mut reweighted = base.clone();
        let mut mix = QueryMix::builder();
        for (i, (class, share)) in base.mix().iter().enumerate() {
            mix = mix.class(class.clone(), share * (1.0 + i as f64));
        }
        reweighted.set_mix(mix.build().unwrap()).unwrap();

        let mut reseeded = base.clone();
        let mut config = base.config().clone();
        config.allocation_policy = warlock_alloc::AllocationPolicy::GraphPartition { seed: 7 };
        reseeded.set_config(config).unwrap();

        let mut wider = base.clone();
        wider.set_system(SystemConfig::default_2001(32)).unwrap();

        let mut invalidated = base.clone();
        invalidated.invalidate();

        for (what, s) in [
            ("set_mix", &reweighted),
            ("set_config", &reseeded),
            ("set_system", &wider),
            ("invalidate", &invalidated),
        ] {
            assert_eq!(
                s.recommend_policy().unwrap(),
                rebuilt(s).recommend_policy().unwrap(),
                "{what}"
            );
        }
        assert_ne!(reweighted.recommend_policy().unwrap(), before);
        assert_ne!(wider.recommend_policy().unwrap(), before);
        // The sibling still holding the old snapshot keeps its verdict.
        assert_eq!(base.recommend_policy().unwrap(), before);
    }

    #[test]
    fn an_auto_readvise_reports_the_adopted_mix_verdict() {
        let mut s = resident_session();
        let before = s.session_report().unwrap().recommendation;
        let matching = matching_batch(&s);
        s.observe(&matching).unwrap();
        let drifted = drifted_batch(&s, "q02_month_class");
        for _ in 0..10 {
            s.observe(&drifted).unwrap();
        }
        assert_eq!(s.drift_status().events_emitted, 1);
        let after = s.session_report().unwrap().recommendation;
        assert_eq!(after, rebuilt(&s).session_report().unwrap().recommendation);
        assert_ne!(after, before);
    }

    #[test]
    fn an_empty_ranking_has_no_policy_verdict() {
        let mut config = AdvisorConfig::default();
        config.thresholds.min_fragment_rows = u64::MAX;
        let s = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .config(config)
            .build()
            .unwrap();
        assert!(s.rank().unwrap().ranked.is_empty());
        assert_eq!(s.session_report().unwrap().recommendation, None);
        let e = WarlockError::RankOutOfRange {
            rank: 1,
            available: 0,
        };
        assert_eq!(s.recommend_policy().unwrap_err(), e);
        assert_eq!(s.recommend_policy().unwrap_err(), e);
    }
}
