//! Page-size arithmetic.

/// Database page configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageConfig {
    /// Page size in bytes. Must be a power of two ≥ 512.
    pub page_bytes: u32,
}

impl PageConfig {
    /// Creates a page configuration, validating the size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or is smaller than 512.
    pub fn new(page_bytes: u32) -> Self {
        assert!(
            page_bytes.is_power_of_two() && page_bytes >= 512,
            "page size must be a power of two >= 512, got {page_bytes}"
        );
        Self { page_bytes }
    }

    /// How many whole rows of `row_bytes` bytes fit into one page.
    ///
    /// Rows never span pages (slotted-page assumption); at least one row per
    /// page is assumed, so `row_bytes` larger than the page degrades to one
    /// row per page.
    #[inline]
    pub fn rows_per_page(&self, row_bytes: u32) -> u64 {
        u64::from((self.page_bytes / row_bytes.max(1)).max(1))
    }

    /// Number of pages needed to hold `rows` rows of `row_bytes` bytes.
    #[inline]
    pub fn pages_for_rows(&self, rows: u64, row_bytes: u32) -> u64 {
        if rows == 0 {
            return 0;
        }
        rows.div_ceil(self.rows_per_page(row_bytes))
    }

    /// Number of pages needed to hold `bytes` raw bytes (bit vectors etc.).
    #[inline]
    pub fn pages_for_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(u64::from(self.page_bytes))
    }

    /// Total bytes occupied by `pages` pages, saturating at `u64::MAX`.
    #[inline]
    pub fn bytes_for_pages(&self, pages: u64) -> u64 {
        pages.saturating_mul(u64::from(self.page_bytes))
    }
}

impl Default for PageConfig {
    /// 8 KiB pages, a common warehouse default.
    fn default() -> Self {
        Self::new(8192)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_per_page_floors() {
        let p = PageConfig::new(8192);
        assert_eq!(p.rows_per_page(100), 81);
        assert_eq!(p.rows_per_page(8192), 1);
        // Oversized rows degrade to one per page rather than zero.
        assert_eq!(p.rows_per_page(10000), 1);
        assert_eq!(p.rows_per_page(0), 8192);
    }

    #[test]
    fn pages_for_rows_ceils() {
        let p = PageConfig::new(8192);
        assert_eq!(p.pages_for_rows(0, 100), 0);
        assert_eq!(p.pages_for_rows(81, 100), 1);
        assert_eq!(p.pages_for_rows(82, 100), 2);
        assert_eq!(p.pages_for_rows(8100, 100), 100);
    }

    #[test]
    fn pages_for_bytes_ceils() {
        let p = PageConfig::new(4096);
        assert_eq!(p.pages_for_bytes(0), 0);
        assert_eq!(p.pages_for_bytes(1), 1);
        assert_eq!(p.pages_for_bytes(4096), 1);
        assert_eq!(p.pages_for_bytes(4097), 2);
        assert_eq!(p.bytes_for_pages(3), 12288);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = PageConfig::new(1000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_tiny_pages() {
        let _ = PageConfig::new(256);
    }

    #[test]
    fn default_is_8k() {
        assert_eq!(PageConfig::default().page_bytes, 8192);
    }
}
