//! The scenario parameter space: coverage axes and numeric bounds.

use std::fmt;

/// Structural shape of a generated star schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaShape {
    /// Few dimensions with shallow hierarchies (2–3 dims, depth 1–2).
    Narrow,
    /// Many dimensions with moderate hierarchies (4–5 dims, depth 2–3).
    Wide,
    /// Few dimensions with deep hierarchies (2–3 dims, depth 4–5).
    Deep,
}

impl SchemaShape {
    /// All shapes, in grid order.
    pub const ALL: [SchemaShape; 3] = [SchemaShape::Narrow, SchemaShape::Wide, SchemaShape::Deep];

    /// `(min_dims, max_dims, min_depth, max_depth, max_fanout)`.
    pub(crate) fn bounds(self) -> (u64, u64, u64, u64, u64) {
        match self {
            SchemaShape::Narrow => (2, 3, 1, 2, 6),
            SchemaShape::Wide => (4, 5, 2, 3, 4),
            SchemaShape::Deep => (2, 3, 4, 5, 3),
        }
    }

    /// Stable lowercase label (used in scenario labels and reports).
    pub fn label(self) -> &'static str {
        match self {
            SchemaShape::Narrow => "narrow",
            SchemaShape::Wide => "wide",
            SchemaShape::Deep => "deep",
        }
    }
}

/// Data-skew profile applied to the bottom level of the dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkewProfile {
    /// Every dimension uniform.
    Uniform,
    /// Moderate Zipf skew (θ ∈ [0.4, 1.0]) on most dimensions.
    Zipfian,
    /// Steep, shuffled Zipf (θ ∈ [1.4, 2.0]) concentrating mass on a few
    /// dispersed hot members.
    HotSpot,
}

impl SkewProfile {
    /// All profiles, in grid order.
    pub const ALL: [SkewProfile; 3] = [
        SkewProfile::Uniform,
        SkewProfile::Zipfian,
        SkewProfile::HotSpot,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            SkewProfile::Uniform => "uniform",
            SkewProfile::Zipfian => "zipfian",
            SkewProfile::HotSpot => "hot_spot",
        }
    }
}

/// Shape of the weighted query mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixShape {
    /// Almost every predicate selects a single member.
    PointHeavy,
    /// Most predicates select member ranges.
    RangeHeavy,
    /// Every class touches the same small set of focus dimensions
    /// (co-accessed fragments).
    Correlated,
    /// Head-heavy geometric weights: a drifted workload whose old
    /// classes linger with fading shares.
    Drifting,
}

impl MixShape {
    /// All shapes, in grid order.
    pub const ALL: [MixShape; 4] = [
        MixShape::PointHeavy,
        MixShape::RangeHeavy,
        MixShape::Correlated,
        MixShape::Drifting,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            MixShape::PointHeavy => "point_heavy",
            MixShape::RangeHeavy => "range_heavy",
            MixShape::Correlated => "correlated",
            MixShape::Drifting => "drifting",
        }
    }
}

/// One cell of the coverage grid: the cross product of the three
/// categorical axes. A fleet of `n ≥ ScenarioClass::grid().len()`
/// scenarios covers every class at least once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioClass {
    /// Structural schema shape.
    pub schema: SchemaShape,
    /// Data-skew profile.
    pub skew: SkewProfile,
    /// Query-mix shape.
    pub mix: MixShape,
}

impl ScenarioClass {
    /// The full coverage grid (36 classes), in a stable order.
    pub fn grid() -> Vec<ScenarioClass> {
        let mut out = Vec::with_capacity(36);
        for &schema in &SchemaShape::ALL {
            for &skew in &SkewProfile::ALL {
                for &mix in &MixShape::ALL {
                    out.push(ScenarioClass { schema, skew, mix });
                }
            }
        }
        out
    }

    /// Stable `schema/skew/mix` label, e.g. `deep/hot_spot/range_heavy`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.schema.label(),
            self.skew.label(),
            self.mix.label()
        )
    }
}

impl fmt::Display for ScenarioClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Numeric bounds of the scenario parameter space. The categorical axes
/// ([`ScenarioClass`]) are always fully covered; these knobs bound the
/// concrete draws inside each class.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpace {
    /// Disk counts to draw the system configuration from.
    pub disks: Vec<u32>,
    /// Fact rows are drawn log-uniformly from `[min_fact_rows, max_fact_rows]`.
    pub min_fact_rows: u64,
    /// Upper bound on fact rows.
    pub max_fact_rows: u64,
    /// Query classes per mix, drawn uniformly from this inclusive range.
    pub mix_classes: (usize, usize),
    /// Probability that a scenario also enumerates ranged (MDHF)
    /// candidates via `range_options = 2, 3`.
    pub ranged_probability: f64,
    /// Evaluation workers forced into every scenario (`1` runs each
    /// scenario serially; `0` = auto).
    pub parallelism: usize,
    /// Probability that a scenario runs the co-access graph
    /// partitioning allocation policy (with a drawn seed) instead of
    /// the drawn classic policy. The default `0.0` draws **nothing**
    /// from the stream, keeping historical fleet fingerprints
    /// byte-identical.
    pub graph_probability: f64,
}

impl Default for ScenarioSpace {
    fn default() -> Self {
        Self {
            disks: vec![4, 8, 16, 32, 64],
            min_fact_rows: 100_000,
            max_fact_rows: 20_000_000,
            mix_classes: (4, 8),
            ranged_probability: 0.25,
            parallelism: 1,
            graph_probability: 0.0,
        }
    }
}

impl ScenarioSpace {
    /// Validates the bounds.
    pub fn validate(&self) -> Result<(), String> {
        if self.disks.is_empty() {
            return Err("disks must not be empty".into());
        }
        if self.disks.contains(&0) {
            return Err("disk counts must be positive".into());
        }
        if self.min_fact_rows == 0 || self.min_fact_rows > self.max_fact_rows {
            return Err(format!(
                "fact row bounds must satisfy 1 <= min <= max, got {}..{}",
                self.min_fact_rows, self.max_fact_rows
            ));
        }
        if self.mix_classes.0 == 0 || self.mix_classes.0 > self.mix_classes.1 {
            return Err(format!(
                "mix_classes must satisfy 1 <= min <= max, got {:?}",
                self.mix_classes
            ));
        }
        if !(0.0..=1.0).contains(&self.ranged_probability) {
            return Err(format!(
                "ranged_probability must be in [0, 1], got {}",
                self.ranged_probability
            ));
        }
        if !(0.0..=1.0).contains(&self.graph_probability) {
            return Err(format!(
                "graph_probability must be in [0, 1], got {}",
                self.graph_probability
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_complete_and_stable() {
        let grid = ScenarioClass::grid();
        assert_eq!(grid.len(), 36);
        let labels: std::collections::BTreeSet<String> =
            grid.iter().map(ScenarioClass::label).collect();
        assert_eq!(labels.len(), 36, "labels must be unique");
        assert_eq!(grid, ScenarioClass::grid(), "grid order must be stable");
        assert_eq!(grid[0].label(), "narrow/uniform/point_heavy");
        assert_eq!(grid[35].label(), "deep/hot_spot/drifting");
    }

    #[test]
    fn default_space_validates() {
        ScenarioSpace::default().validate().unwrap();
    }

    #[test]
    fn bad_spaces_are_rejected() {
        let mut s = ScenarioSpace {
            disks: vec![],
            ..Default::default()
        };
        assert!(s.validate().is_err());
        s.disks = vec![0];
        assert!(s.validate().is_err());
        let s = ScenarioSpace {
            min_fact_rows: 10,
            max_fact_rows: 5,
            ..Default::default()
        };
        assert!(s.validate().is_err());
        let s = ScenarioSpace {
            mix_classes: (0, 4),
            ..Default::default()
        };
        assert!(s.validate().is_err());
        let s = ScenarioSpace {
            ranged_probability: 1.5,
            ..Default::default()
        };
        assert!(s.validate().is_err());
        let s = ScenarioSpace {
            graph_probability: -0.1,
            ..Default::default()
        };
        assert!(s.validate().is_err());
    }
}
