//! WARLOCK experiment harness: prints the reproduction's tables and
//! figures as fixed-width text, one experiment per id.
//!
//! Usage: `cargo run --release -p warlock-bench --bin experiments [ID...]`
//! with ids `e1..e14`, `v1`, or `all` (default).

use std::env;

use warlock::report::{render_allocation, render_analysis, render_ranking};
use warlock::AdvisorConfig;
use warlock_alloc::{allocate, AllocationPolicy};
use warlock_bench::{Fixture, SmallFixture};
use warlock_bitmap::estimate;
use warlock_fragment::{FragmentLayout, Fragmentation, SkewModelExt};
use warlock_skew::DimensionSkew;
use warlock_storage::{Architecture, PrefetchPolicy};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e14", "v1",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        match id {
            "e1" => e1(),
            "e2" => e2(),
            "e3" => e3(),
            "e4" => e4(),
            "e5" => e5(),
            "e6" => e6(),
            "e7" => e7(),
            "e8" => e8(),
            "e9" => e9(),
            "e10" => e10(),
            "e11" => e11(),
            "e12" => e12(),
            "e13" => e13(),
            "e14" => e14(),
            "v1" => v1(),
            other => eprintln!("unknown experiment id: {other}"),
        }
    }
}

fn heading(id: &str, title: &str) {
    println!("\n=== {} — {} ===\n", id.to_uppercase(), title);
}

/// E1: the Fig.-2 per-fragmentation query statistic of the winner.
fn e1() {
    heading("e1", "per-fragmentation query analysis (Fig. 2 top)");
    let f = Fixture::demo();
    let advisor = f.session();
    let report = advisor.run().expect("pipeline runs");
    let top = report.top().expect("candidates survive");
    println!(
        "{}",
        render_analysis(
            &advisor
                .analyze_candidate(&top.cost.fragmentation)
                .expect("analyzes")
        )
    );
}

/// E2: the twofold-ranked candidate list.
fn e2() {
    heading("e2", "ranked fragmentation candidates (twofold ranking)");
    let f = Fixture::demo();
    let config = AdvisorConfig {
        top_n: 15,
        ..Default::default()
    };
    let report = f.session_with(config).run().expect("pipeline runs");
    println!("{}", render_ranking(&report));
}

/// E3: the clustering-vs-declustering trade-off scatter.
fn e3() {
    heading("e3", "throughput vs response trade-off over all candidates");
    let f = Fixture::demo();
    let advisor = f.session();
    let ctx = advisor.threshold_context();
    let candidates = warlock_fragment::enumerate_candidates(&f.schema, 4);
    let mut rows: Vec<(String, u64, f64, f64)> = Vec::new();
    for frag in candidates {
        if frag.num_fragments(&f.schema) > 1 << 20 {
            continue;
        }
        let layout = FragmentLayout::new(&f.schema, frag, 0);
        if advisor.config().thresholds.check(&layout, ctx).is_err() {
            continue;
        }
        let cost = advisor.evaluate(layout.fragmentation()).expect("evaluates");
        rows.push((
            layout.fragmentation().label(&f.schema),
            layout.num_fragments(),
            cost.io_cost_ms,
            cost.response_ms,
        ));
    }
    rows.sort_by(|a, b| a.2.total_cmp(&b.2));
    println!(
        "{:<52} {:>10} {:>14} {:>14}  pareto",
        "fragmentation", "#frags", "io-cost [ms]", "response [ms]"
    );
    println!("{}", "-".repeat(102));
    let mut best_rt = f64::INFINITY;
    for (label, frags, io, rt) in &rows {
        let pareto = *rt < best_rt;
        if pareto {
            best_rt = *rt;
        }
        println!(
            "{:<52} {:>10} {:>14.1} {:>14.1}  {}",
            label,
            frags,
            io,
            rt,
            if pareto { "*" } else { "" }
        );
    }
    println!("\n(* = Pareto-optimal: no candidate with lower I/O cost has lower response)");
}

/// E4: response-time speedup vs number of disks.
fn e4() {
    heading(
        "e4",
        "response time vs number of disks (declustering speedup)",
    );
    let candidates = [
        (
            "1-D time.month",
            Fragmentation::from_pairs(&[(2, 2)]).unwrap(),
        ),
        (
            "2-D product.line × time.month",
            Fragmentation::from_pairs(&[(0, 1), (2, 2)]).unwrap(),
        ),
        (
            "3-D line × month × channel",
            Fragmentation::from_pairs(&[(0, 1), (2, 2), (3, 0)]).unwrap(),
        ),
    ];
    print!("{:<8}", "disks");
    for (name, _) in &candidates {
        print!(" {:>32}", name);
    }
    println!();
    println!("{}", "-".repeat(108));
    for disks in [1u32, 2, 4, 8, 16, 32, 64, 128] {
        let f = Fixture::with_disks(disks);
        let advisor = f.session();
        print!("{:<8}", disks);
        for (_, frag) in &candidates {
            let rt = advisor.evaluate(frag).expect("evaluates").response_ms;
            print!(" {:>30.1}ms", rt);
        }
        println!();
    }
    println!("\n(weighted mix response; speedup saturates once accessed fragments < disks)");
}

/// E5: prefetch-granule sensitivity.
fn e5() {
    heading("e5", "prefetch granule sensitivity (fixed vs auto)");
    let frag = Fragmentation::from_pairs(&[(0, 1), (2, 2)]).unwrap();
    println!(
        "{:<12} {:>14} {:>14} {:>12}",
        "granule", "io-cost [ms]", "response [ms]", "I/Os"
    );
    println!("{}", "-".repeat(56));
    for pages in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
        let mut f = Fixture::demo();
        f.system.fact_prefetch = PrefetchPolicy::Fixed(pages);
        f.system.bitmap_prefetch = PrefetchPolicy::Fixed(pages);
        let cost = f.session().evaluate(&frag).expect("evaluates");
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>12.0}",
            format!("fixed {pages}"),
            cost.io_cost_ms,
            cost.response_ms,
            cost.total_ios
        );
    }
    let f = Fixture::demo(); // auto policy is the default
    let cost = f.session().evaluate(&frag).expect("evaluates");
    println!(
        "{:<12} {:>14.1} {:>14.1} {:>12.0}",
        "auto", cost.io_cost_ms, cost.response_ms, cost.total_ios
    );
    println!("\n(auto picks per-object optima: fragment-sized for fact, vector-sized for bitmaps)");
}

/// E6: skew sweep — round-robin vs greedy allocation.
fn e6() {
    heading(
        "e6",
        "data skew: round-robin vs greedy size-based allocation",
    );
    let f = Fixture::demo();
    let frag = Fragmentation::from_pairs(&[(0, 1), (2, 2)]).unwrap(); // line × month
    println!(
        "{:<8} {:>15} {:>15} {:>12} {:>12} {:>18}",
        "zipf θ", "rr imbalance", "greedy imbal.", "rr cv", "greedy cv", "auto picks"
    );
    println!("{}", "-".repeat(86));
    for &theta in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let skew = f.schema.skew_model(&[
            DimensionSkew::zipf(theta),
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
            DimensionSkew::UNIFORM,
        ]);
        let layout = FragmentLayout::new(&f.schema, frag.clone(), 0);
        let rows = layout.fragment_rows(&f.schema, &skew);
        let row_bytes = u64::from(f.schema.fact_row_bytes(0));
        let sizes: Vec<u64> = rows.iter().map(|&r| r * row_bytes).collect();
        let rr = allocate(sizes.clone(), 16, AllocationPolicy::RoundRobin).occupancy_stats();
        let greedy = allocate(sizes.clone(), 16, AllocationPolicy::GreedySize).occupancy_stats();
        let auto = allocate(sizes, 16, AllocationPolicy::default());
        println!(
            "{:<8} {:>15.3} {:>15.3} {:>12.3} {:>12.3} {:>18}",
            theta,
            rr.imbalance,
            greedy.imbalance,
            rr.cv,
            greedy.cv,
            match auto.scheme() {
                warlock_alloc::AllocationScheme::RoundRobin => "round-robin",
                warlock_alloc::AllocationScheme::GreedySize => "greedy",
                warlock_alloc::AllocationScheme::GreedyHeat => "heat",
                warlock_alloc::AllocationScheme::GraphPartition => "graph",
            }
        );
    }
    println!("\n(paper §2: greedy size-based allocation under notable data skew)");
}

/// E7: bitmap scheme — standard vs hierarchically encoded.
fn e7() {
    heading("e7", "bitmap scheme: standard vs hierarchically encoded");
    let f = Fixture::demo();
    let frag = Fragmentation::from_pairs(&[(0, 1), (2, 2)]).unwrap();
    let layout = FragmentLayout::new(&f.schema, frag, 0);
    let rows = (layout.uniform_rows_per_fragment().round() as u64).max(1);
    println!(
        "{:<22} {:>12} {:>10} {:>22} {:>22} {:>18}",
        "attribute", "cardinality", "kind", "stored pages/frag", "point-read pages", "space vs std"
    );
    println!("{}", "-".repeat(112));
    for r in f.schema.all_level_refs() {
        let dim = f.schema.dimension(r.dimension).unwrap();
        let level = dim.level(r.level).unwrap();
        let card = level.cardinality();
        let label = format!("{}.{}", dim.name(), level.name());
        let access = f.scheme.access_for(&f.schema, r.dimension, r.level);
        let (kind, stored, read) = match access {
            Some(warlock_bitmap::IndexKind::Standard { cardinality }) => (
                "standard",
                estimate::standard_stored_pages(rows, cardinality, f.system.page),
                estimate::standard_read_pages(rows, 1, f.system.page),
            ),
            Some(warlock_bitmap::IndexKind::Encoded { slices }) => {
                let enc = warlock_bitmap::HierarchicalEncoding::for_dimension(dim);
                (
                    "encoded",
                    estimate::encoded_stored_pages(rows, enc.total_bits(), f.system.page),
                    estimate::encoded_read_pages(rows, slices, f.system.page),
                )
            }
            None => ("-", 0, 0),
        };
        let std_pages = estimate::standard_stored_pages(rows, card, f.system.page);
        let ratio = if stored > 0 {
            format!("{:.1}x", std_pages as f64 / stored as f64)
        } else {
            "-".into()
        };
        println!(
            "{:<22} {:>12} {:>10} {:>22} {:>22} {:>18}",
            label, card, kind, stored, read, ratio
        );
    }
    println!("\n(encoded indexes trade point-read cost for massive space savings on high-cardinality attributes)");
}

/// E8: fragmentation dimensionality study.
fn e8() {
    heading("e8", "fragmentation dimensionality vs performance");
    let f = Fixture::demo();
    let advisor = f.session();
    let ctx = advisor.threshold_context();
    println!(
        "{:<6} {:<44} {:>10} {:>14} {:>14}",
        "dims", "best candidate (by response)", "#frags", "io-cost [ms]", "response [ms]"
    );
    println!("{}", "-".repeat(94));
    for d in 0..=4usize {
        let mut best: Option<(String, u64, f64, f64)> = None;
        for frag in warlock_fragment::enumerate_candidates(&f.schema, d) {
            if frag.dimensionality() != d || frag.num_fragments(&f.schema) > 1 << 20 {
                continue;
            }
            let layout = FragmentLayout::new(&f.schema, frag, 0);
            if d > 0 && advisor.config().thresholds.check(&layout, ctx).is_err() {
                continue;
            }
            let cost = advisor.evaluate(layout.fragmentation()).expect("evaluates");
            let row = (
                layout.fragmentation().label(&f.schema),
                layout.num_fragments(),
                cost.io_cost_ms,
                cost.response_ms,
            );
            if best.as_ref().map(|b| row.3 < b.3).unwrap_or(true) {
                best = Some(row);
            }
        }
        if let Some((label, frags, io, rt)) = best {
            println!(
                "{:<6} {:<44} {:>10} {:>14.1} {:>14.1}",
                d, label, frags, io, rt
            );
        } else {
            println!("{:<6} (no candidate survives thresholds)", d);
        }
    }
    println!(
        "\n(multi-dimensional fragmentation confines more query classes; gains flatten at 3-D)"
    );
}

/// E9: Shared Everything vs Shared Disk.
fn e9() {
    heading("e9", "Shared Everything vs Shared Disk architectures");
    let frag = Fragmentation::from_pairs(&[(0, 1), (2, 2)]).unwrap();
    println!(
        "{:<14} {:<26} {:>14} {:>14}",
        "processors", "architecture", "io-cost [ms]", "response [ms]"
    );
    println!("{}", "-".repeat(72));
    for procs in [1u32, 2, 4, 8, 16, 32] {
        for (name, arch) in [
            (
                "SharedEverything",
                Architecture::SharedEverything { processors: procs },
            ),
            (
                "SharedDisk (nodes×4)",
                Architecture::shared_disk((procs / 4).max(1), procs.min(4)),
            ),
        ] {
            let mut f = Fixture::demo();
            f.system.architecture = arch;
            let cost = f.session().evaluate(&frag).expect("evaluates");
            println!(
                "{:<14} {:<26} {:>14.1} {:>14.1}",
                procs, name, cost.io_cost_ms, cost.response_ms
            );
        }
    }
    println!("\n(identical disk work; SD pays coordination overhead, low processor counts cap parallelism)");
}

/// E10: the physical allocation scheme of the winner (Fig. 2 bottom).
fn e10() {
    heading("e10", "physical allocation scheme (Fig. 2 bottom)");
    let f = Fixture::demo();
    let advisor = f.session();
    let report = advisor.run().expect("pipeline runs");
    let top = report.top().expect("candidates survive");
    println!(
        "{}",
        render_allocation(
            &advisor
                .plan_candidate(&top.cost.fragmentation)
                .expect("plans")
        )
    );
}

/// E11: ablation of the twofold ranking heuristic.
fn e11() {
    heading(
        "e11",
        "ranking ablation: twofold vs response-only vs io-only",
    );
    let f = Fixture::demo();

    // Twofold (the paper's heuristic).
    let twofold = f.session().run().expect("pipeline runs");
    let twofold_top = twofold.top().expect("candidates").clone();

    // Response-only: keep 100 % in phase 1.
    let response_only = f
        .session_with(AdvisorConfig {
            top_x_percent: 100.0,
            ..Default::default()
        })
        .run()
        .expect("pipeline runs");
    let response_top = response_only.top().expect("candidates").clone();

    // I/O-only: phase 1 keeps exactly the cheapest candidate.
    let io_only = f
        .session_with(AdvisorConfig {
            top_x_percent: 0.1,
            min_keep: 1,
            top_n: 1,
            ..Default::default()
        })
        .run()
        .expect("pipeline runs");
    let io_top = io_only.top().expect("candidates").clone();

    println!(
        "{:<16} {:<44} {:>13} {:>14} {:>16}",
        "heuristic", "winner", "io-cost [ms]", "response [ms]", "saturation [q/s]"
    );
    println!("{}", "-".repeat(108));
    for (name, top) in [
        ("twofold", &twofold_top),
        ("response-only", &response_top),
        ("io-only", &io_top),
    ] {
        let sat = warlock_cost::contention_estimate(
            top.cost.response_ms,
            top.cost.io_cost_ms,
            f.system.num_disks,
            warlock_cost::LoadPoint {
                arrivals_per_s: 0.0,
            },
        )
        .saturation_rate_per_s;
        println!(
            "{:<16} {:<44} {:>13.1} {:>14.1} {:>16.2}",
            name, top.label, top.cost.io_cost_ms, top.cost.response_ms, sat
        );
    }
    println!("\n(the twofold heuristic trades a little response for sustainable multi-user load)");
}

/// E12: multi-user load curves of competing candidates.
fn e12() {
    heading(
        "e12",
        "multi-user load curves (analytical contention model)",
    );
    let f = Fixture::demo();
    let advisor = f.session();
    let candidates = [
        (
            "line × month × channel",
            Fragmentation::from_pairs(&[(0, 1), (2, 2), (3, 0)]).unwrap(),
        ),
        (
            "family × month × channel",
            Fragmentation::from_pairs(&[(0, 2), (2, 2), (3, 0)]).unwrap(),
        ),
        ("month only", Fragmentation::from_pairs(&[(2, 2)]).unwrap()),
    ];
    let costs: Vec<_> = candidates
        .iter()
        .map(|(_, c)| advisor.evaluate(c).expect("evaluates"))
        .collect();
    print!("{:<14}", "load [q/s]");
    for (name, _) in &candidates {
        print!(" {:>28}", name);
    }
    println!();
    println!("{}", "-".repeat(102));
    for rate in [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0] {
        print!("{:<14}", rate);
        for cost in &costs {
            let est = warlock_cost::contention_estimate(
                cost.response_ms,
                cost.io_cost_ms,
                f.system.num_disks,
                warlock_cost::LoadPoint {
                    arrivals_per_s: rate,
                },
            );
            if est.response_ms.is_finite() {
                print!(" {:>26.1}ms", est.response_ms);
            } else {
                print!(" {:>28}", "saturated");
            }
        }
        println!();
    }
    println!("\n(candidates with low single-user response but high I/O cost saturate first)");
}

/// E13: range fragmentation (the general MDHF case) as an extension.
fn e13() {
    heading(
        "e13",
        "range fragmentation: intermediate granularities (MDHF extension)",
    );
    let f = Fixture::demo();
    let advisor = f.session();
    // Sweep range sizes on product.code crossed with time.month, bracketed
    // by the point candidates at the adjacent hierarchy levels.
    let candidates: Vec<(String, Fragmentation)> = vec![
        (
            "product.class × month (point)".into(),
            Fragmentation::from_pairs(&[(0, 4), (2, 2)]).unwrap(),
        ),
        (
            "product.code[r=10] × month".into(),
            Fragmentation::from_ranged_pairs(&[(0, 5, 10), (2, 2, 1)]).unwrap(),
        ),
        (
            "product.code[r=5] × month".into(),
            Fragmentation::from_ranged_pairs(&[(0, 5, 5), (2, 2, 1)]).unwrap(),
        ),
        (
            "product.code[r=2] × month".into(),
            Fragmentation::from_ranged_pairs(&[(0, 5, 2), (2, 2, 1)]).unwrap(),
        ),
        (
            "product.family × month[r=3]".into(),
            Fragmentation::from_ranged_pairs(&[(0, 2, 1), (2, 2, 3)]).unwrap(),
        ),
        (
            "product.family × quarter (point)".into(),
            Fragmentation::from_pairs(&[(0, 2), (2, 1)]).unwrap(),
        ),
    ];
    println!(
        "{:<36} {:>10} {:>14} {:>14}",
        "candidate", "#frags", "io-cost [ms]", "response [ms]"
    );
    println!("{}", "-".repeat(78));
    for (name, frag) in &candidates {
        let cost = advisor.evaluate(frag).expect("evaluates");
        println!(
            "{:<36} {:>10} {:>14.1} {:>14.1}",
            name, cost.num_fragments, cost.io_cost_ms, cost.response_ms
        );
    }
    println!(
        "\n(code[r=10] reproduces class exactly — ranges synthesize granularities between\n\
         hierarchy levels; month[r=3] likewise equals quarter)"
    );
}

/// E14: heat-based allocation under skewed access traffic (extension).
fn e14() {
    heading("e14", "heat-based allocation under access skew (extension)");
    let f = Fixture::demo();
    // month × channel layout: 216 fragments over 16 disks.
    let frag = Fragmentation::from_pairs(&[(2, 2), (3, 0)]).unwrap();
    let layout = FragmentLayout::new(&f.schema, frag, 0);
    let n = layout.num_fragments() as usize;
    // Recency traffic: the current month draws most queries, the previous
    // month half of that, history a trickle — a classic warehouse pattern
    // the paper's size-balancing schemes cannot see.
    let mut heats = vec![1.0f64; n];
    for idx in 0..n as u64 {
        let coords = layout.coords_of(idx);
        let month = coords[0];
        heats[idx as usize] = match month {
            23 => 100.0,
            22 => 50.0,
            _ => 1.0,
        };
    }
    let sizes = vec![1_000_000u64; n];

    let rr = warlock_alloc::round_robin(sizes.clone(), 16);
    let by_size = warlock_alloc::greedy_by_size(sizes.clone(), 16);
    let by_heat = warlock_alloc::greedy_by_heat(&heats, sizes, 16);

    println!(
        "{:<22} {:>16} {:>18} {:>20}",
        "scheme", "heat imbalance", "occupancy imbal.", "hot-month disks hit"
    );
    println!("{}", "-".repeat(80));
    for (name, alloc) in [
        ("round-robin", &rr),
        ("greedy by size", &by_size),
        ("greedy by heat", &by_heat),
    ] {
        let hot_disks: std::collections::BTreeSet<u32> = (0..n)
            .filter(|&i| heats[i] >= 100.0)
            .map(|i| alloc.disk_of(i))
            .collect();
        println!(
            "{:<22} {:>16.3} {:>18.3} {:>20}",
            name,
            warlock_alloc::heat_imbalance(alloc, &heats),
            alloc.occupancy_stats().imbalance,
            hot_disks.len(),
        );
    }
    println!(
        "\n(uniform sizes blind the size-based schemes to traffic: their hot disks carry 67%\n\
         more heat than average; heat-greedy balances heat to 3% at some occupancy cost —\n\
         the classic space/load trade-off)"
    );
}

/// V1: analytical model vs event-driven simulation.
fn v1() {
    heading("v1", "analytical model vs event-driven simulation");
    let f = SmallFixture::new();
    let frag = Fragmentation::from_pairs(&[(0, 1), (1, 1)]).unwrap(); // line × month
    let layout = FragmentLayout::new(&f.schema, frag, 0);
    let allocation = warlock_alloc::round_robin(
        vec![1u64; layout.num_fragments() as usize],
        f.system.num_disks,
    );
    println!(
        "single-query validation ({}):",
        layout.fragmentation().label(&f.schema)
    );
    println!(
        "{:<20} {:>14} {:>14} {:>10}",
        "query class", "analytic [ms]", "simulated [ms]", "error"
    );
    println!("{}", "-".repeat(62));
    let rows = warlock_sim::compare_single_queries(
        &f.schema,
        &f.system,
        &f.scheme,
        &f.mix,
        &layout,
        &allocation,
        25,
        42,
    );
    for r in &rows {
        println!(
            "{:<20} {:>14.1} {:>14.1} {:>9.1}%",
            r.class_name,
            r.analytic_ms,
            r.simulated_ms,
            r.relative_error * 100.0
        );
    }

    // Page-hit model validation: real synthetic rows, real bitmap
    // selection, exact page counts vs the Yao estimate.
    println!("\npage-hit model validation (materialized fragments, division predicate):");
    println!(
        "{:<12} {:>14} {:>16} {:>10}",
        "fragment", "yao estimate", "actual pages", "error"
    );
    println!("{}", "-".repeat(56));
    {
        use warlock_fragment::SkewModelExt;
        let skew = f.schema.uniform_skew_model();
        let data = warlock_sim::SyntheticFact::generate(&f.schema, &skew, 200_000, 11);
        let vlayout = FragmentLayout::new(
            &f.schema,
            Fragmentation::from_pairs(&[(1, 0)]).unwrap(), // by year: 2 fragments
            0,
        );
        let warehouse = warlock_sim::MaterializedWarehouse::build(&f.schema, &vlayout, &data);
        let (_, product) = f.schema.dimension_by_name("product").unwrap();
        for frag_id in 0..vlayout.num_fragments() {
            let column = warehouse.fragment_column(&data, frag_id, 0);
            let encoded = warlock_bitmap::EncodedBitmapIndex::build(product, &column);
            let selection = encoded.query_level(warlock_schema::LevelId(0), 1);
            let cmp = warlock_sim::compare_page_hits(&selection, 146);
            println!(
                "{:<12} {:>14.1} {:>16.1} {:>9.1}%",
                frag_id,
                cmp.estimated_pages,
                cmp.actual_pages,
                cmp.relative_error * 100.0
            );
        }
    }

    println!("\nclosed workload scaling (10 queries per stream):");
    println!(
        "{:>8} {:>16} {:>18} {:>13}",
        "streams", "mean resp [ms]", "throughput [q/s]", "utilization"
    );
    for streams in [1usize, 2, 4, 8, 16] {
        let stats = warlock_sim::closed_workload(
            &f.schema,
            &f.system,
            &f.scheme,
            &f.mix,
            &layout,
            &allocation,
            streams,
            10,
            7,
        );
        println!(
            "{:>8} {:>16.1} {:>18.2} {:>13.2}",
            streams, stats.mean_response_ms, stats.throughput_per_s, stats.utilization
        );
    }

    // Throughput heuristic check: the candidate with lower total I/O cost
    // sustains higher closed-system throughput.
    println!("\nthroughput heuristic (8 streams): io-cost rank vs simulated throughput");
    println!(
        "{:<28} {:>14} {:>18}",
        "fragmentation", "io-cost [ms]", "throughput [q/s]"
    );
    println!("{}", "-".repeat(64));
    let advisor = f.session();
    for frag in [
        Fragmentation::from_pairs(&[(0, 1), (1, 1)]).unwrap(),
        Fragmentation::from_pairs(&[(1, 1)]).unwrap(),
        Fragmentation::from_pairs(&[(2, 0)]).unwrap(),
    ] {
        let layout = FragmentLayout::new(&f.schema, frag.clone(), 0);
        let allocation = warlock_alloc::round_robin(
            vec![1u64; layout.num_fragments() as usize],
            f.system.num_disks,
        );
        let cost = advisor.evaluate(&frag).expect("evaluates");
        let stats = warlock_sim::closed_workload(
            &f.schema,
            &f.system,
            &f.scheme,
            &f.mix,
            &layout,
            &allocation,
            8,
            10,
            7,
        );
        println!(
            "{:<28} {:>14.1} {:>18.2}",
            frag.label(&f.schema),
            cost.io_cost_ms,
            stats.throughput_per_s
        );
    }
}
