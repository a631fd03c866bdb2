//! Concrete query binding: from query *classes* to query *instances*.
//!
//! The analytical model works with expected values; the simulator needs
//! concrete queries. Binding samples the predicate values of a class
//! uniformly (the model's assumption) and maps them to the exact set of
//! accessed fragments under a layout.

use rand::seq::index::sample;
use rand::Rng;

use warlock_fragment::FragmentLayout;
use warlock_schema::{DimensionId, LevelId, StarSchema};
use warlock_workload::QueryClass;

/// One concrete query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// The class this instance was drawn from.
    pub class_name: String,
    /// Exact accessed fragment indices (sorted, unique).
    pub fragments: Vec<u64>,
    /// The sampled predicate values per referenced dimension:
    /// `(dimension, level, member ordinals)`.
    pub bindings: Vec<(DimensionId, LevelId, Vec<u64>)>,
}

/// Upper bound on the accessed-fragment cross product a binding may
/// materialize; guards against misuse on huge layouts.
pub const MAX_BOUND_FRAGMENTS: usize = 1 << 22;

/// Binds `class` against `layout`, sampling predicate values with `rng`.
///
/// # Panics
///
/// Panics if the accessed-fragment cross product exceeds
/// `MAX_BOUND_FRAGMENTS` (2²²).
pub fn bind_query<R: Rng + ?Sized>(
    schema: &StarSchema,
    layout: &FragmentLayout,
    class: &QueryClass,
    rng: &mut R,
) -> BoundQuery {
    // Sample concrete values for every referenced dimension.
    let mut bindings = Vec::with_capacity(class.dimensionality());
    for (&dim_id, pred) in class.predicates() {
        let dim = schema.dimension(dim_id).expect("validated class");
        let card = dim.cardinality(pred.level).expect("validated class") as usize;
        let mut values: Vec<u64> = sample(rng, card, pred.values as usize)
            .into_iter()
            .map(|v| v as u64)
            .collect();
        values.sort_unstable();
        bindings.push((dim_id, pred.level, values));
    }

    // Matched fragment coordinates per fragmentation attribute; ranged
    // attributes use their effective coordinate cardinality.
    let fragmentation = layout.fragmentation();
    let attrs = fragmentation.attributes();
    let mut per_dim_matched: Vec<Vec<u64>> = Vec::with_capacity(attrs.len());
    for (i, &attr) in attrs.iter().enumerate() {
        let dim = schema.dimension(attr.dimension).expect("validated layout");
        let frag_card = fragmentation.effective_cardinality(schema, i);
        let matched = match bindings.iter().find(|(d, _, _)| *d == attr.dimension) {
            None => (0..frag_card).collect(),
            Some((_, level, values)) => {
                let query_card = dim.cardinality(*level).expect("validated class");
                if query_card <= frag_card {
                    // Expand each coarse value to its coordinate range.
                    let per = frag_card / query_card;
                    let mut out = Vec::with_capacity(values.len() * per as usize);
                    for &v in values {
                        out.extend(v * per..(v + 1) * per);
                    }
                    out
                } else {
                    // Collapse each fine value to its covering coordinate.
                    let per = query_card / frag_card;
                    let mut out: Vec<u64> = values.iter().map(|&v| v / per).collect();
                    out.sort_unstable();
                    out.dedup();
                    out
                }
            }
        };
        per_dim_matched.push(matched);
    }

    // Cross product, bounded.
    let product: usize = per_dim_matched.iter().map(Vec::len).product();
    assert!(
        product <= MAX_BOUND_FRAGMENTS,
        "bound query would access {product} fragments"
    );
    let mut fragments = Vec::with_capacity(product);
    let mut coords = vec![0u64; per_dim_matched.len()];
    let mut counters = vec![0usize; per_dim_matched.len()];
    loop {
        for (i, &c) in counters.iter().enumerate() {
            coords[i] = per_dim_matched[i][c];
        }
        fragments.push(layout.index_of(&coords));
        // Odometer.
        let mut pos = counters.len();
        loop {
            if pos == 0 {
                fragments.sort_unstable();
                return BoundQuery {
                    class_name: class.name().to_owned(),
                    fragments,
                    bindings,
                };
            }
            pos -= 1;
            counters[pos] += 1;
            if counters[pos] < per_dim_matched[pos].len() {
                break;
            }
            counters[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use warlock_fragment::{Fragmentation, QueryMatch};
    use warlock_schema::{Dimension, FactTable};
    use warlock_workload::DimensionPredicate;

    fn schema() -> StarSchema {
        StarSchema::builder()
            .dimension(
                Dimension::builder("a")
                    .level("top", 4)
                    .level("mid", 16)
                    .level("bottom", 64)
                    .build()
                    .unwrap(),
            )
            .dimension(Dimension::builder("b").level("only", 8).build().unwrap())
            .fact(FactTable::builder("f").rows(100_000).build())
            .build()
            .unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn coarser_binding_expands_to_ranges() {
        let s = schema();
        let layout = FragmentLayout::new(&s, Fragmentation::from_pairs(&[(0, 1)]).unwrap(), 0);
        // Query at a.top (4) with 1 value; fragments at a.mid (16).
        let q = QueryClass::new("q").with(0, DimensionPredicate::point(0));
        let b = bind_query(&s, &layout, &q, &mut rng());
        assert_eq!(b.fragments.len(), 4); // 16/4 descendants
                                          // Contiguous range.
        for w in b.fragments.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn finer_binding_collapses_to_ancestors() {
        let s = schema();
        let layout = FragmentLayout::new(&s, Fragmentation::from_pairs(&[(0, 0)]).unwrap(), 0);
        // Query at a.bottom with 1 value → exactly 1 ancestor fragment.
        let q = QueryClass::new("q").with(0, DimensionPredicate::point(2));
        let b = bind_query(&s, &layout, &q, &mut rng());
        assert_eq!(b.fragments.len(), 1);
        let (_, _, values) = &b.bindings[0];
        assert_eq!(b.fragments[0], values[0] / 16);
    }

    #[test]
    fn unreferenced_fragmentation_dimension_matches_all() {
        let s = schema();
        let layout =
            FragmentLayout::new(&s, Fragmentation::from_pairs(&[(0, 0), (1, 0)]).unwrap(), 0);
        let q = QueryClass::new("q").with(0, DimensionPredicate::point(0));
        let b = bind_query(&s, &layout, &q, &mut rng());
        // 1 value of a.top × all 8 of b.
        assert_eq!(b.fragments.len(), 8);
    }

    #[test]
    fn bound_count_matches_expected_for_exact_cases() {
        // For coarser/equal references the expected count is exact, so
        // every binding must produce exactly that many fragments.
        let s = schema();
        let layout = FragmentLayout::new(&s, Fragmentation::from_pairs(&[(0, 1)]).unwrap(), 0);
        let q = QueryClass::new("q").with(0, DimensionPredicate::range(0, 2));
        let expected = QueryMatch::evaluate(&s, layout.fragmentation(), &q).expected_fragments();
        let mut r = rng();
        for _ in 0..20 {
            let b = bind_query(&s, &layout, &q, &mut r);
            assert_eq!(b.fragments.len() as f64, expected);
        }
    }

    #[test]
    fn finer_binding_count_averages_to_expectation() {
        let s = schema();
        let layout = FragmentLayout::new(&s, Fragmentation::from_pairs(&[(0, 0)]).unwrap(), 0);
        // 6 values at a.mid (16) against 4 fragments.
        let q = QueryClass::new("q").with(0, DimensionPredicate::range(1, 6));
        let expected = QueryMatch::evaluate(&s, layout.fragmentation(), &q).expected_fragments();
        let mut r = rng();
        let trials = 3000;
        let total: usize = (0..trials)
            .map(|_| bind_query(&s, &layout, &q, &mut r).fragments.len())
            .sum();
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - expected).abs() < 0.05,
            "sampled mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn fragments_sorted_unique_and_in_range() {
        let s = schema();
        let layout =
            FragmentLayout::new(&s, Fragmentation::from_pairs(&[(0, 2), (1, 0)]).unwrap(), 0);
        let q = QueryClass::new("q")
            .with(0, DimensionPredicate::range(1, 3))
            .with(1, DimensionPredicate::range(0, 2));
        let mut r = rng();
        for _ in 0..10 {
            let b = bind_query(&s, &layout, &q, &mut r);
            for w in b.fragments.windows(2) {
                assert!(w[0] < w[1], "not sorted/unique");
            }
            assert!(b.fragments.iter().all(|&f| f < layout.num_fragments()));
        }
    }

    #[test]
    fn baseline_layout_binds_single_fragment() {
        let s = schema();
        let layout = FragmentLayout::new(&s, Fragmentation::none(), 0);
        let q = QueryClass::new("q").with(1, DimensionPredicate::point(0));
        let b = bind_query(&s, &layout, &q, &mut rng());
        assert_eq!(b.fragments, vec![0]);
    }
}
