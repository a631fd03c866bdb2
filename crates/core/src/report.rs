//! Plain-text and CSV rendering of advisor outputs.
//!
//! The original tool is a GUI; this reproduction renders the same content
//! — ranked candidate lists, the per-fragmentation query statistic, the
//! physical allocation scheme and disk access profiles — as fixed-width
//! text tables (for terminals and the experiment harness) and CSV (for
//! plotting).

use std::fmt::Write as _;

use crate::advisor::AdvisorReport;
use crate::allocation_plan::AllocationPlan;
use crate::analysis::FragmentationAnalysis;
use warlock_cost::AccessPath;

fn path_str(p: AccessPath) -> &'static str {
    match p {
        AccessPath::FullScan => "scan",
        AccessPath::BitmapFetch => "bitmap",
    }
}

/// Renders the ranked candidate list as a fixed-width table.
pub fn render_ranking(report: &AdvisorReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4}  {:<40} {:>12} {:>14} {:>14} {:>12}",
        "rank", "fragmentation", "#fragments", "io-cost [ms]", "response [ms]", "pages"
    );
    let _ = writeln!(out, "{}", "-".repeat(102));
    for r in &report.ranked {
        let _ = writeln!(
            out,
            "{:>4}  {:<40} {:>12} {:>14.1} {:>14.1} {:>12.0}",
            r.rank,
            truncate(&r.label, 40),
            r.cost.num_fragments,
            r.cost.io_cost_ms,
            r.cost.response_ms,
            r.cost.total_pages,
        );
    }
    let _ = writeln!(
        out,
        "({} enumerated, {} evaluated, {} excluded)",
        report.enumerated,
        report.evaluated,
        report.excluded.total()
    );
    out
}

/// Renders the bounded exclusion summary: per-reason counts plus the
/// retained sample candidates.
pub fn render_excluded(report: &AdvisorReport) -> String {
    let mut out = String::new();
    for group in report.excluded.groups() {
        let _ = writeln!(out, "{} ({} candidates):", group.kind, group.count);
        for sample in &group.samples {
            let _ = writeln!(
                out,
                "  {:<50} {}",
                truncate(&sample.label, 50),
                sample.reason
            );
        }
        let elided = group.count.saturating_sub(group.samples.len());
        if elided > 0 {
            let _ = writeln!(out, "  … and {elided} more");
        }
    }
    let _ = writeln!(out, "({} candidates excluded)", report.excluded.total());
    out
}

/// Renders the ranked candidate list as CSV.
pub fn ranking_csv(report: &AdvisorReport) -> String {
    let mut out = String::from("rank,fragmentation,fragments,io_cost_ms,response_ms,ios,pages\n");
    for r in &report.ranked {
        let _ = writeln!(
            out,
            "{},{},{},{:.3},{:.3},{:.1},{:.1}",
            r.rank,
            r.label.replace(',', ";"),
            r.cost.num_fragments,
            r.cost.io_cost_ms,
            r.cost.response_ms,
            r.cost.total_ios,
            r.cost.total_pages,
        );
    }
    out
}

/// Renders the Fig.-2-style per-fragmentation statistic.
pub fn render_analysis(a: &FragmentationAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fragmentation: {}", a.label);
    let _ = writeln!(
        out,
        "  database statistic : {} fragments x {} rows ({} pages each, {} fact pages total)",
        a.num_fragments, a.fragment_rows, a.fragment_pages, a.total_fact_pages
    );
    let _ = writeln!(
        out,
        "  bitmap statistic   : {} stored bitmap pages",
        a.bitmap_stored_pages
    );
    let _ = writeln!(
        out,
        "  prefetch suggestion: {} pages (fact), {} pages (bitmap)",
        a.fact_prefetch, a.bitmap_prefetch
    );
    let _ = writeln!(
        out,
        "  weighted           : {:.1} ms io-cost, {:.1} ms response",
        a.weighted_busy_ms, a.weighted_response_ms
    );
    let _ = writeln!(
        out,
        "  {:<30} {:>6} {:>10} {:>12} {:>12} {:>10} {:>11} {:>12} {:>7}",
        "query class",
        "share",
        "#frags",
        "fact pages",
        "bmp pages",
        "#I/Os",
        "busy [ms]",
        "resp [ms]",
        "path"
    );
    let _ = writeln!(out, "  {}", "-".repeat(118));
    for c in &a.per_class {
        let _ = writeln!(
            out,
            "  {:<30} {:>5.0}% {:>10.1} {:>12.0} {:>12.0} {:>10.0} {:>11.1} {:>12.1} {:>7}",
            truncate(&c.name, 30),
            c.share * 100.0,
            c.accessed_fragments,
            c.fact_pages,
            c.bitmap_pages,
            c.ios,
            c.busy_ms,
            c.response_ms,
            path_str(c.path),
        );
    }
    out
}

/// Renders the per-class analysis as CSV.
pub fn analysis_csv(a: &FragmentationAnalysis) -> String {
    let mut out = String::from(
        "class,share,accessed_fragments,fact_pages,bitmap_pages,ios,busy_ms,response_ms,path\n",
    );
    for c in &a.per_class {
        let _ = writeln!(
            out,
            "{},{:.4},{:.2},{:.1},{:.1},{:.1},{:.3},{:.3},{}",
            c.name,
            c.share,
            c.accessed_fragments,
            c.fact_pages,
            c.bitmap_pages,
            c.ios,
            c.busy_ms,
            c.response_ms,
            path_str(c.path),
        );
    }
    out
}

/// Renders the physical allocation plan: occupancy and access profiles.
pub fn render_allocation(plan: &AllocationPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "allocation for: {}", plan.label);
    let _ = writeln!(
        out,
        "  scheme: {} | fact {:.1} MiB | bitmaps {:.1} MiB",
        crate::policy_judge::scheme_name(plan.allocation.scheme()),
        plan.fact_bytes as f64 / (1024.0 * 1024.0),
        plan.bitmap_bytes as f64 / (1024.0 * 1024.0),
    );
    let occ = plan.allocation.occupancy();
    let counts = plan.allocation.fragment_counts();
    let _ = writeln!(
        out,
        "  occupancy: imbalance {:.3}, cv {:.3}, max {:.1} MiB, min {:.1} MiB",
        plan.occupancy.imbalance,
        plan.occupancy.cv,
        plan.occupancy.max_bytes as f64 / (1024.0 * 1024.0),
        plan.occupancy.min_bytes as f64 / (1024.0 * 1024.0),
    );
    let _ = writeln!(out, "  {:<6} {:>12} {:>12}", "disk", "MiB", "#fragments");
    for (d, (&bytes, &count)) in occ.iter().zip(&counts).enumerate() {
        let _ = writeln!(
            out,
            "  {:<6} {:>12.1} {:>12}",
            d,
            bytes as f64 / (1024.0 * 1024.0),
            count
        );
    }
    let _ = writeln!(out, "  disk access profile (representative instances):");
    let _ = writeln!(
        out,
        "  {:<30} {:>10} {:>12} {:>12}",
        "query class", "disks hit", "max [ms]", "resp [ms]"
    );
    for c in &plan.per_class {
        let _ = writeln!(
            out,
            "  {:<30} {:>10} {:>12.1} {:>12.1}",
            truncate(&c.name, 30),
            c.profile.disks_hit(),
            c.profile.max_ms(),
            c.response_ms,
        );
    }
    out
}

/// Renders the head-to-head allocation-policy recommendation.
pub fn render_recommendation(rec: &crate::policy_judge::PolicyRecommendation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "policy recommendation for: {}", rec.label);
    let _ = writeln!(out, "  recommended: {}", rec.recommended);
    let _ = writeln!(
        out,
        "  {:<12} {:<16} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "policy", "scheme", "makespan", "busy imb", "heat imb", "occ imb", "resp [ms]"
    );
    for v in &rec.verdicts {
        let _ = writeln!(
            out,
            "  {:<12} {:<16} {:>12.1} {:>10.3} {:>10.3} {:>10.3} {:>12.1}",
            v.policy,
            v.scheme,
            v.makespan_ms,
            v.busy_imbalance,
            v.heat_imbalance,
            v.occupancy_imbalance,
            v.mean_response_ms,
        );
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(n - 1)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Warlock;
    use warlock_schema::{apb1_like_schema, Apb1Config};
    use warlock_storage::SystemConfig;
    use warlock_workload::apb1_like_mix;

    fn report_and_advisor() -> (AdvisorReport, FragmentationAnalysis, AllocationPlan) {
        let session = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .build()
            .unwrap();
        let report = session.rank().unwrap().clone();
        let analysis = session.analyze(1).unwrap();
        let plan = session.plan_allocation(1).unwrap();
        (report, analysis, plan)
    }

    #[test]
    fn ranking_renders_all_rows() {
        let (report, _, _) = report_and_advisor();
        let text = render_ranking(&report);
        for r in &report.ranked {
            // Labels longer than the column are truncated with an ellipsis.
            let shown = truncate(&r.label, 40);
            let probe = shown.trim_end_matches('…');
            assert!(text.contains(probe), "missing {}", r.label);
        }
        assert!(text.contains("rank"));
        assert!(text.contains("enumerated"));
    }

    #[test]
    fn ranking_csv_shape() {
        let (report, _, _) = report_and_advisor();
        let csv = ranking_csv(&report);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), report.ranked.len() + 1);
        assert!(lines[0].starts_with("rank,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 7);
        }
    }

    #[test]
    fn analysis_renders_classes() {
        let (_, analysis, _) = report_and_advisor();
        let text = render_analysis(&analysis);
        assert!(text.contains("database statistic"));
        assert!(text.contains("prefetch suggestion"));
        for c in &analysis.per_class {
            assert!(text.contains(&truncate(&c.name, 30)));
        }
        let csv = analysis_csv(&analysis);
        assert_eq!(csv.lines().count(), analysis.per_class.len() + 1);
    }

    #[test]
    fn allocation_renders_disks() {
        let (_, _, plan) = report_and_advisor();
        let text = render_allocation(&plan);
        assert!(text.contains("occupancy"));
        assert!(text.contains("disk access profile"));
        // One line per disk.
        let disk_lines = text
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .count();
        assert!(disk_lines >= plan.allocation.num_disks() as usize);
    }

    #[test]
    fn recommendation_renders_every_verdict() {
        let session = Warlock::builder()
            .schema(apb1_like_schema(Apb1Config::default()).unwrap())
            .system(SystemConfig::default_2001(16))
            .mix(apb1_like_mix().unwrap())
            .build()
            .unwrap();
        let rec = session.recommend_policy().unwrap();
        let text = render_recommendation(&rec);
        assert!(text.contains("recommended:"));
        for v in &rec.verdicts {
            assert!(text.contains(&v.policy), "missing {}", v.policy);
        }
    }

    #[test]
    fn truncate_handles_unicode() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("product.class × time.month", 10);
        assert!(t.chars().count() <= 10);
        assert!(t.ends_with('…'));
    }
}
