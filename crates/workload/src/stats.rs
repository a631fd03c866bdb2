//! Observed workload statistics.
//!
//! A resident optimizer needs to know what the warehouse is *actually*
//! being asked, not what its configuration file claims. [`StatsWindow`]
//! ingests batched per-query-class observations (the
//! `pg_stat_statements` idiom: counts plus optional latency hints) into
//! an exponentially decayed sliding window whose state is a pure
//! function of the ordered observation sequence.

use std::collections::BTreeMap;

/// One batched observation of live traffic: `count` queries of class
/// `class` were executed, optionally with their mean latency.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassObservation {
    /// The query-class name (matched against the configured mix by
    /// exact name).
    pub class: String,
    /// How many queries of the class were observed.
    pub count: u64,
    /// Mean latency of those queries in milliseconds, if the collector
    /// measured one. Latency hints are carried through the window for
    /// reporting; they never influence drift scores. Non-finite or
    /// negative hints are ignored.
    pub mean_latency_ms: Option<f64>,
}

impl ClassObservation {
    /// A count-only observation.
    pub fn new(class: impl Into<String>, count: u64) -> Self {
        Self {
            class: class.into(),
            count,
            mean_latency_ms: None,
        }
    }

    /// Attaches a mean-latency hint.
    pub fn with_latency_ms(mut self, mean_latency_ms: f64) -> Self {
        self.mean_latency_ms = Some(mean_latency_ms);
        self
    }
}

/// Decayed per-class accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ClassStat {
    /// Decayed query count.
    weight: f64,
    /// Decayed count of queries that carried a latency hint.
    latency_weight: f64,
    /// Decayed sum of `mean_latency_ms × count` over hinted queries.
    latency_sum: f64,
}

/// An exponentially decayed window over observed query-class traffic.
///
/// # Determinism
///
/// Decay is measured in **observed queries**, not wall-clock time: each
/// observation of `count` queries first decays every tracked class by
/// `0.5^(count / half_life)` and then credits `count` to its own class.
/// Because every update depends only on the observation it ingests and
/// the state before it, splitting one observation stream into different
/// batch boundaries yields bit-identical windows — the property the
/// drift detector's reproducibility rests on. No clock is read
/// anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsWindow {
    half_life: f64,
    observed: u64,
    classes: BTreeMap<String, ClassStat>,
}

impl StatsWindow {
    /// Creates an empty window whose weights halve every `half_life`
    /// observed queries.
    ///
    /// # Panics
    ///
    /// Panics when `half_life` is not a finite positive number — the
    /// advisor configuration validates the knob before a window is ever
    /// built.
    pub fn new(half_life: f64) -> Self {
        assert!(
            half_life.is_finite() && half_life > 0.0,
            "stats half-life must be a finite positive query count, got {half_life}"
        );
        Self {
            half_life,
            observed: 0,
            classes: BTreeMap::new(),
        }
    }

    /// The half-life in observed queries.
    #[inline]
    pub fn half_life(&self) -> f64 {
        self.half_life
    }

    /// Total queries ever ingested (not decayed).
    #[inline]
    pub fn observed_queries(&self) -> u64 {
        self.observed
    }

    /// Number of distinct classes the window currently tracks.
    #[inline]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the window has seen no traffic at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Ingests one batch of observations, in order. Equivalent to
    /// ingesting each observation as its own batch.
    pub fn ingest(&mut self, batch: &[ClassObservation]) {
        for obs in batch {
            self.ingest_one(obs);
        }
    }

    fn ingest_one(&mut self, obs: &ClassObservation) {
        if obs.count == 0 {
            return;
        }
        let count = obs.count as f64;
        let lambda = 0.5_f64.powf(count / self.half_life);
        for stat in self.classes.values_mut() {
            stat.weight *= lambda;
            stat.latency_weight *= lambda;
            stat.latency_sum *= lambda;
        }
        let stat = self.classes.entry(obs.class.clone()).or_default();
        stat.weight += count;
        if let Some(latency) = obs.mean_latency_ms {
            if latency.is_finite() && latency >= 0.0 {
                stat.latency_weight += count;
                stat.latency_sum += latency * count;
            }
        }
        self.observed += obs.count;
    }

    /// The decayed weight of `class` (0.0 when untracked).
    #[inline]
    pub fn weight_of(&self, class: &str) -> f64 {
        self.classes.get(class).map_or(0.0, |s| s.weight)
    }

    /// Sum of all decayed weights, accumulated in class-name order so
    /// the total is deterministic for a given observation sequence.
    pub fn total_weight(&self) -> f64 {
        let mut total = 0.0;
        for stat in self.classes.values() {
            total += stat.weight;
        }
        total
    }

    /// `(class, decayed weight)` pairs in class-name order.
    pub fn weights(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.classes
            .iter()
            .map(|(name, s)| (name.as_str(), s.weight))
    }

    /// `(class, observed share)` pairs in class-name order; shares sum
    /// to 1.0 (empty iterator when the window has no weight).
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.total_weight();
        if total <= 0.0 {
            return Vec::new();
        }
        self.classes
            .iter()
            .map(|(name, s)| (name.clone(), s.weight / total))
            .collect()
    }

    /// Decayed mean latency of `class` in milliseconds, when any of its
    /// observations carried a hint.
    pub fn mean_latency_ms(&self, class: &str) -> Option<f64> {
        let stat = self.classes.get(class)?;
        if stat.latency_weight > 0.0 {
            Some(stat.latency_sum / stat.latency_weight)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(class: &str, count: u64) -> ClassObservation {
        ClassObservation::new(class, count)
    }

    #[test]
    fn ingest_accumulates_and_counts() {
        let mut w = StatsWindow::new(100.0);
        assert!(w.is_empty());
        w.ingest(&[obs("a", 10), obs("b", 30)]);
        assert_eq!(w.observed_queries(), 40);
        assert_eq!(w.len(), 2);
        assert!(w.weight_of("b") > w.weight_of("a"));
        assert_eq!(w.weight_of("missing"), 0.0);
        let shares = w.shares();
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_split_is_bit_identical() {
        let stream = [
            obs("a", 7),
            obs("b", 3),
            obs("a", 11).with_latency_ms(42.0),
            obs("c", 1),
            obs("b", 25),
        ];
        let mut whole = StatsWindow::new(20.0);
        whole.ingest(&stream);
        for split in 0..=stream.len() {
            let mut parts = StatsWindow::new(20.0);
            parts.ingest(&stream[..split]);
            parts.ingest(&stream[split..]);
            assert_eq!(parts, whole, "split at {split}");
        }
        let mut singles = StatsWindow::new(20.0);
        for o in &stream {
            singles.ingest(std::slice::from_ref(o));
        }
        assert_eq!(singles, whole);
    }

    #[test]
    fn decay_forgets_old_traffic() {
        let mut w = StatsWindow::new(50.0);
        w.ingest(&[obs("old", 100)]);
        let before = w.weight_of("old");
        // One half-life of other traffic halves the old class.
        w.ingest(&[obs("new", 50)]);
        let after = w.weight_of("old");
        assert!((after - before * 0.5).abs() < 1e-9, "{before} -> {after}");
        // Recency dominates: the window's shares now favor `new`.
        let shares = w.shares();
        let share = |name: &str| {
            shares
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, s)| *s)
        };
        assert!(share("new") > share("old") * 0.9);
    }

    #[test]
    fn zero_counts_and_bad_latency_hints_are_inert() {
        let mut w = StatsWindow::new(10.0);
        w.ingest(&[obs("a", 5)]);
        let snapshot = w.clone();
        w.ingest(&[obs("a", 0), obs("phantom", 0)]);
        assert_eq!(w, snapshot, "zero-count observations must not decay");
        w.ingest(&[
            obs("a", 5).with_latency_ms(f64::NAN),
            obs("a", 5).with_latency_ms(-1.0),
        ]);
        assert_eq!(w.mean_latency_ms("a"), None);
    }

    #[test]
    fn latency_hints_average_with_decay() {
        let mut w = StatsWindow::new(1e12); // effectively no decay
        w.ingest(&[
            obs("a", 10).with_latency_ms(100.0),
            obs("a", 30).with_latency_ms(200.0),
        ]);
        let mean = w.mean_latency_ms("a").unwrap();
        assert!((mean - 175.0).abs() < 1e-6, "{mean}");
        assert_eq!(w.mean_latency_ms("b"), None);
    }

    #[test]
    #[should_panic(expected = "half-life")]
    fn non_positive_half_life_panics() {
        let _ = StatsWindow::new(0.0);
    }
}
