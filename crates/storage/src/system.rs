//! Parallel database architecture and overall system configuration.

use crate::{DiskParams, PageConfig};

/// The parallel database architecture WARLOCK targets.
///
/// Both architectures give every processing unit access to every disk
/// ("Shared Everything or Shared Disk", §1); they differ in how processing
/// capacity is organized and in the coordination overhead of cross-node
/// work in the Shared Disk case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Architecture {
    /// One multiprocessor node; all `processors` share memory and disks.
    SharedEverything {
        /// Number of processors available for parallel query work.
        processors: u32,
    },
    /// Several loosely coupled nodes, each with access to all disks.
    SharedDisk {
        /// Number of nodes.
        nodes: u32,
        /// Processors per node.
        processors_per_node: u32,
        /// Multiplicative response-time overhead for cross-node
        /// coordination (buffer coherency, global locking). 1.0 = none;
        /// the default configuration uses 1.05.
        coordination_overhead: f64,
    },
}

impl Architecture {
    /// Total processors available for intra-query parallelism. A Shared
    /// Disk product beyond `u32` saturates (a valid [`SystemConfig`]
    /// has none, see [`SystemConfig::validate`]).
    pub fn total_processors(&self) -> u32 {
        match *self {
            Self::SharedEverything { processors } => processors.max(1),
            Self::SharedDisk {
                nodes,
                processors_per_node,
                ..
            } => nodes.saturating_mul(processors_per_node).max(1),
        }
    }

    /// Response-time multiplier for coordination overhead.
    pub fn overhead_factor(&self) -> f64 {
        match *self {
            Self::SharedEverything { .. } => 1.0,
            Self::SharedDisk {
                coordination_overhead,
                ..
            } => coordination_overhead.max(1.0),
        }
    }

    /// A Shared Disk architecture with the default 5 % coordination
    /// overhead.
    pub fn shared_disk(nodes: u32, processors_per_node: u32) -> Self {
        Self::SharedDisk {
            nodes,
            processors_per_node,
            coordination_overhead: 1.05,
        }
    }
}

/// The largest disk count a valid [`SystemConfig`] may declare.
///
/// Memory grows with the disk count downstream: planning an allocation
/// (`PlanInputs::place` in the advisor) keeps per-disk occupancy and heat,
/// the disk simulator (`warlock_sim::disksim`) a queue and busy time per
/// disk, and the policy judge (`warlock_sim::judge`) per-disk busy times.
/// The bound keeps a configured count from becoming a multi-gigabyte
/// allocation; the largest disk count the tests and benchmarks use is 128.
pub const MAX_DISKS: u32 = 1 << 16;

/// Complete system description: the disk complement, page configuration,
/// prefetch policy and architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of identical disks data is declustered over.
    pub num_disks: u32,
    /// Per-disk parameters.
    pub disk: DiskParams,
    /// Page configuration.
    pub page: PageConfig,
    /// Prefetch policy for fact-table fragments.
    pub fact_prefetch: PrefetchPolicy,
    /// Prefetch policy for bitmap fragments. Bitmap fragments are much
    /// smaller than fact fragments, so the paper lets the tool pick
    /// distinct optimal granules for the two.
    pub bitmap_prefetch: PrefetchPolicy,
    /// Processing architecture.
    pub architecture: Architecture,
}

impl SystemConfig {
    /// A sensible paper-era default: 16 disks of the 2001 preset, 8 KiB
    /// pages, automatic prefetching, Shared Everything with 16 processors.
    pub fn default_2001(num_disks: u32) -> Self {
        Self {
            num_disks: num_disks.max(1),
            disk: DiskParams::ca_2001(),
            page: PageConfig::default(),
            fact_prefetch: PrefetchPolicy::Auto { max_pages: 256 },
            bitmap_prefetch: PrefetchPolicy::Auto { max_pages: 256 },
            architecture: Architecture::SharedEverything { processors: 16 },
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_disks == 0 {
            return Err("system needs at least one disk".into());
        }
        if self.num_disks > MAX_DISKS {
            return Err(format!(
                "{} disks exceed the bound of {MAX_DISKS}",
                self.num_disks
            ));
        }
        // Written so that NaN, which fails every comparison, is rejected.
        let transfer = self.disk.transfer_mb_per_s;
        if !(transfer.is_finite() && transfer > 0.0) {
            return Err("transfer rate must be finite and positive".into());
        }
        let positioning = [self.disk.avg_seek_ms, self.disk.avg_rotational_ms];
        if !positioning.iter().all(|ms| ms.is_finite() && *ms >= 0.0) {
            return Err("positioning times must be finite and non-negative".into());
        }
        if let PrefetchPolicy::Fixed(p) = self.fact_prefetch {
            if p == 0 {
                return Err("fact prefetch granule must be >= 1 page".into());
            }
        }
        if let PrefetchPolicy::Fixed(p) = self.bitmap_prefetch {
            if p == 0 {
                return Err("bitmap prefetch granule must be >= 1 page".into());
            }
        }
        if let Architecture::SharedDisk {
            nodes,
            processors_per_node,
            ..
        } = self.architecture
        {
            if nodes.checked_mul(processors_per_node).is_none() {
                return Err(format!(
                    "{nodes} nodes × {processors_per_node} processors per node overflows the processor count"
                ));
            }
        }
        Ok(())
    }
}

/// Prefetch granule policy.
///
/// The paper: "WARLOCK offers the choice to set a fixed value or to
/// determine itself optimal values for fact tables and bitmaps, which
/// strongly differ with respect to fragment sizes."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// A fixed granule, in pages per physical I/O.
    Fixed(u32),
    /// Let the tool pick the cost-optimal granule per fragmentation, capped
    /// at `max_pages`.
    Auto {
        /// Upper bound on the chosen granule.
        max_pages: u32,
    },
}

impl PrefetchPolicy {
    /// The fixed granule, if this policy is fixed.
    pub fn fixed(&self) -> Option<u32> {
        match *self {
            Self::Fixed(p) => Some(p),
            Self::Auto { .. } => None,
        }
    }

    /// The cap on granules this policy permits.
    pub fn max_pages(&self) -> u32 {
        match *self {
            Self::Fixed(p) => p,
            Self::Auto { max_pages } => max_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_counts() {
        assert_eq!(
            Architecture::SharedEverything { processors: 8 }.total_processors(),
            8
        );
        assert_eq!(Architecture::shared_disk(4, 4).total_processors(), 16);
        // Degenerate configs clamp to one processor.
        assert_eq!(
            Architecture::SharedEverything { processors: 0 }.total_processors(),
            1
        );
        // An overflowing Shared Disk product saturates instead of
        // panicking or wrapping, and does not validate.
        let huge = Architecture::shared_disk(65_536, 65_537);
        assert_eq!(huge.total_processors(), u32::MAX);
        let mut system = SystemConfig::default_2001(16);
        system.architecture = huge;
        assert!(system.validate().unwrap_err().contains("overflows"));
        system.architecture = Architecture::shared_disk(65_536, 65_535);
        assert!(system.validate().is_ok());
    }

    #[test]
    fn overhead_factors() {
        assert_eq!(
            Architecture::SharedEverything { processors: 8 }.overhead_factor(),
            1.0
        );
        let sd = Architecture::shared_disk(2, 4);
        assert!((sd.overhead_factor() - 1.05).abs() < 1e-12);
        let sd_low = Architecture::SharedDisk {
            nodes: 2,
            processors_per_node: 4,
            coordination_overhead: 0.5, // nonsense input clamps to 1.0
        };
        assert_eq!(sd_low.overhead_factor(), 1.0);
    }

    #[test]
    fn default_system_is_valid() {
        let s = SystemConfig::default_2001(16);
        assert!(s.validate().is_ok());
        assert_eq!(s.num_disks, 16);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut s = SystemConfig::default_2001(4);
        s.fact_prefetch = PrefetchPolicy::Fixed(0);
        assert!(s.validate().is_err());
        let mut s = SystemConfig::default_2001(4);
        s.disk.transfer_mb_per_s = 0.0;
        assert!(s.validate().is_err());
        let mut s = SystemConfig::default_2001(4);
        s.disk.avg_seek_ms = -1.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn zero_disks_clamped_by_constructor_rejected_by_validate() {
        let s = SystemConfig::default_2001(0);
        assert_eq!(s.num_disks, 1); // constructor clamps
        let bad = SystemConfig {
            num_disks: 0,
            ..SystemConfig::default_2001(1)
        };
        assert!(bad.validate().is_err());
        let at_bound = SystemConfig::default_2001(MAX_DISKS);
        assert!(at_bound.validate().is_ok());
        let beyond = SystemConfig::default_2001(MAX_DISKS + 1);
        assert!(beyond.validate().unwrap_err().contains("65536"));
        assert!(SystemConfig::default_2001(u32::MAX).validate().is_err());
    }

    #[test]
    fn prefetch_policy_accessors() {
        assert_eq!(PrefetchPolicy::Fixed(8).fixed(), Some(8));
        assert_eq!(PrefetchPolicy::Auto { max_pages: 64 }.fixed(), None);
        assert_eq!(PrefetchPolicy::Fixed(8).max_pages(), 8);
        assert_eq!(PrefetchPolicy::Auto { max_pages: 64 }.max_pages(), 64);
    }
}
