//! Seeded, parameterized warehouse scenario generation.
//!
//! Coverage from a single fixture family is not enough to judge the
//! advisor's architecture: the DWEB line of benchmarking work argues
//! that conclusions about warehouse physical design need *generated*
//! scenario populations spanning schema shapes, data skew and query-mix
//! shapes. This crate produces such populations deterministically:
//!
//! * [`ScenarioClass`] — the coverage grid: schema shape × skew profile
//!   × mix shape (36 classes);
//! * [`ScenarioSpace`] — numeric bounds of the parameter space (disk
//!   counts, fact volumes, classes per mix, ranged enumeration odds);
//! * [`ScenarioGenerator`] — a pure function from `(fleet seed, index)`
//!   to a [`Scenario`]: same seed ⇒ byte-identical scenario set, any
//!   index addressable without generating its predecessors.
//!
//! Every scenario materializes as a full
//! [`ParsedConfig`](warlock::config_file::ParsedConfig) — the same
//! struct the config-file front end produces — so it can be driven
//! through [`Warlock::from_parsed`](warlock::Warlock::from_parsed), rendered to a config file with
//! [`warlock::config_file::render_config`] and re-read through the
//! `from_config_path` entry point unchanged.
//!
//! ```
//! use warlock_scenarios::{generate_fleet, ScenarioSpace};
//!
//! let fleet = generate_fleet(42, 8, &ScenarioSpace::default());
//! assert_eq!(fleet.len(), 8);
//! for scenario in &fleet {
//!     let session = scenario.session().expect("generated scenarios are valid");
//!     assert!(session.candidate_space_size() > 0);
//! }
//! ```

#![warn(missing_docs)]

mod generate;
mod rng;
mod space;

pub use generate::{generate_fleet, Scenario, ScenarioGenerator};
pub use space::{MixShape, ScenarioClass, ScenarioSpace, SchemaShape, SkewProfile};
