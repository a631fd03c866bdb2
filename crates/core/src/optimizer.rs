//! Resident-optimizer state: observed-workload statistics, drift
//! detection and the bounded advice-event log.
//!
//! The original WARLOCK is an offline advisor: the administrator feeds
//! it a configured query mix and reads a ranking. A *resident*
//! optimizer instead watches the traffic the warehouse actually serves
//! ([`Warlock::observe`](crate::Warlock::observe)), scores how far the
//! observed mix has drifted from the configured one
//! ([`mix_divergence`](warlock_workload::mix_divergence)), and — in
//! `auto_advise` mode — adopts the observed mix and re-ranks the moment
//! the drift score crosses the hysteresis threshold, emitting a typed
//! [`AdviceEvent`] into a bounded per-session log.
//!
//! The re-rank is *incremental*: the ranking pipeline memoizes each
//! run's candidate outcomes under a weight-free structure fingerprint
//! (see `CostModel::structure_fingerprint`), so adopting a re-weighted
//! mix recombines the memoized per-class cost rows under the new
//! shares instead of re-costing a single candidate — and the result is
//! bit-identical to a cold run at the same mix.

use std::collections::VecDeque;

use warlock_workload::{DriftDetector, DriftState, StatsWindow};

use crate::config::AdvisorConfig;

/// Upper bound on retained [`AdviceEvent`]s per session family; older
/// events are dropped first. The sequence number keeps dropped events
/// observable.
pub(crate) const MAX_ADVICE_EVENTS: usize = 64;

/// One entry of the resident optimizer's advice-event log.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AdviceEvent {
    /// Drift crossed the enter threshold while `auto_advise` was on:
    /// the session adopted the observed mix and re-ranked.
    RecommendationChanged {
        /// Monotonic 1-based sequence number of this event within the
        /// session family (survives log truncation).
        seq: u64,
        /// Label of the previously recommended top candidate, when the
        /// old mix had been ranked before the drift fired.
        old: Option<String>,
        /// Label of the top candidate under the adopted observed mix.
        new: String,
        /// The drift score (against the *previous* configured mix)
        /// that triggered the re-advise.
        drift_score: f64,
        /// Total queries observed when the event fired.
        observed_queries: u64,
    },
}

impl AdviceEvent {
    /// The event's monotonic sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            AdviceEvent::RecommendationChanged { seq, .. } => *seq,
        }
    }
}

/// [`DriftState`] on the wire: `"stable"` or `"drifting"`.
mod drift_state {
    use warlock_json::{FromJson, Json, JsonError};
    use warlock_workload::DriftState;

    pub(super) fn to_json(state: &DriftState) -> Json {
        let name = match state {
            DriftState::Stable => "stable",
            DriftState::Drifting => "drifting",
        };
        Json::Str(name.into())
    }

    pub(super) fn from_member(value: &Json, key: &str) -> Result<DriftState, JsonError> {
        match String::from_member(value, key)?.as_str() {
            "stable" => Ok(DriftState::Stable),
            "drifting" => Ok(DriftState::Drifting),
            other => Err(JsonError::shape(format!(
                "`{key}` must be `stable` or `drifting`, got `{other}`"
            ))),
        }
    }
}

warlock_json::json_struct! {
    /// A point-in-time report of the resident optimizer, returned by
    /// [`Warlock::observe`](crate::Warlock::observe) and
    /// [`Warlock::drift_status`](crate::Warlock::drift_status).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DriftStatus {
        /// The detector's current state.
        pub state: DriftState => drift_state,
        /// The current drift score in `[0, 1]` — normalized L1 distance
        /// between the observed and configured mix shares (`0.0` when no
        /// traffic has been observed).
        pub score: f64,
        /// The configured enter threshold.
        pub drift_enter: f64,
        /// The configured exit threshold.
        pub drift_exit: f64,
        /// Total queries ingested since the session family was built.
        pub observed_queries: u64,
        /// Distinct query classes the statistics window tracks.
        pub tracked_classes: usize,
        /// Whether crossing the enter threshold triggers auto re-advising.
        pub auto_advise: bool,
        /// Total advice events ever emitted (the latest event's `seq`).
        pub events_emitted: u64,
    }
}

/// The mutable resident-optimizer state of one session family, held in
/// [`Shared`](crate::session) behind a mutex: the statistics window,
/// the hysteresis detector, and the bounded event log. Built lazily on
/// the first `observe` from the then-current advisor configuration.
#[derive(Debug)]
pub(crate) struct OptimizerState {
    pub(crate) window: StatsWindow,
    pub(crate) detector: DriftDetector,
    pub(crate) events: VecDeque<AdviceEvent>,
    /// Total events ever emitted; event `seq`s are 1-based.
    pub(crate) seq: u64,
}

impl OptimizerState {
    /// Fresh state from a validated configuration.
    ///
    /// The window and detector knobs are fixed at first observation;
    /// later `set_config` swaps do not rebuild them (the window's
    /// history would be lost), they only change `auto_advise` behavior
    /// going forward.
    pub(crate) fn new(config: &AdvisorConfig) -> Self {
        Self {
            window: StatsWindow::new(config.stats_half_life),
            detector: DriftDetector::new(config.drift_enter, config.drift_exit),
            events: VecDeque::new(),
            seq: 0,
        }
    }

    /// Appends an event, dropping the oldest past the retention bound.
    pub(crate) fn push_event(&mut self, event: AdviceEvent) {
        if self.events.len() >= MAX_ADVICE_EVENTS {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }
}
