//! Storage and system model for WARLOCK.
//!
//! The tool's input layer asks the DBA for "a few database and disk
//! parameters … (page size, number of disks and their capacity, average
//! rotational, seek and data transfer times, prefetching granule)". This
//! crate models exactly those inputs:
//!
//! * [`DiskParams`] — mechanical disk characteristics and the derived
//!   service-time primitives (sequential run with prefetching, random page
//!   access),
//! * [`PageConfig`] — page-size arithmetic (rows per page, pages for bytes),
//! * [`PrefetchPolicy`] — fixed prefetch granule or tool-chosen optimum,
//! * [`Architecture`] / [`SystemConfig`] — Shared Everything or Shared Disk
//!   parallel database architecture with its disk complement.
//!
//! All times are in milliseconds (`f64`), all sizes in bytes (`u64`).

//!
//! # Example
//!
//! ```
//! use warlock_storage::DiskParams;
//!
//! let disk = DiskParams::ca_2001();
//! // Prefetching amortizes positioning: 64 pages in one granule cost far
//! // less than 64 single-page reads.
//! let batched = disk.sequential_ms(64, 64, 8192);
//! let single = disk.sequential_ms(64, 1, 8192);
//! assert!(batched < single / 5.0);
//! ```

#![warn(missing_docs)]

mod disk;
mod page;
mod system;

pub use disk::DiskParams;
pub use page::PageConfig;
pub use system::{Architecture, PrefetchPolicy, SystemConfig, MAX_DISKS};
