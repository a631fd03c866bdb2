//! Concurrent clone semantics of the shared-snapshot session: N clones
//! issuing interleaved what-ifs from multiple threads must produce
//! reports bit-identical to a single serial session, cross-clone cache
//! hits must actually occur, and copy-on-write mutation must never
//! disturb sibling clones.

use proptest::prelude::*;

use warlock::prelude::*;
use warlock::schema::DimensionId;
use warlock_schema::{random_schema, RandomSchemaConfig};
use warlock_workload::{GeneratorConfig, WorkloadGenerator};

fn session_for(seed: u64) -> Warlock {
    session_with(seed, 1)
}

/// The session of `seed` costing on up to `workers` threads.
fn session_with(seed: u64, workers: usize) -> Warlock {
    let schema = random_schema(seed, RandomSchemaConfig::default()).unwrap();
    let mix = WorkloadGenerator::new(
        seed.wrapping_mul(0x9e37_79b9),
        GeneratorConfig {
            num_classes: 4,
            max_dimensionality: 3,
            range_probability: 0.25,
        },
    )
    .mix(&schema);
    let disks = 2 + (seed % 24) as u32;
    Warlock::builder()
        .schema(schema)
        .system(SystemConfig::default_2001(disks))
        .mix(mix)
        .parallelism(workers)
        .build()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// The interleaved what-if op stream the clones race through.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Disks(u32),
    Prefetch(u32),
    NoBitmaps(u16),
}

fn apply(session: &Warlock, op: Op) -> (AdvisorReport, TuningDelta) {
    match op {
        Op::Disks(d) => session.what_if_disks(d).unwrap(),
        Op::Prefetch(p) => session.what_if_fixed_prefetch(p).unwrap(),
        Op::NoBitmaps(d) => session
            .what_if_without_bitmap_dimension(DimensionId(d))
            .unwrap(),
    }
}

const OPS: [Op; 6] = [
    Op::Disks(4),
    Op::Prefetch(2),
    Op::Disks(48),
    Op::NoBitmaps(0),
    Op::Prefetch(16),
    Op::Disks(4), // repeated on purpose: must be a pure cache hit somewhere
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N clones on N threads, each running an interleaved rotation of
    /// the op stream, must reproduce a single serial session bit for
    /// bit — also when each clone's cold runs fan out over a crew of
    /// their own, all drawing arenas from the one process-wide stack.
    #[test]
    fn interleaved_clone_what_ifs_match_serial(
        seed in 0u64..2048,
        clones in 2usize..5,
        workers_log2 in 0u32..3,
    ) {
        // The reference: one serial session applying every op in order.
        let serial = session_for(seed);
        let expected: Vec<(Op, AdvisorReport, TuningDelta)> = OPS
            .iter()
            .map(|&op| {
                let (report, delta) = apply(&serial, op);
                (op, report, delta)
            })
            .collect();

        // The race: clones of one fresh session, each starting the
        // rotation at a different offset so the interleaving differs
        // per thread.
        let shared = session_with(seed, 1 << workers_log2);
        let results: Vec<Vec<(Op, AdvisorReport, TuningDelta)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clones)
                    .map(|offset| {
                        let clone = shared.clone();
                        scope.spawn(move || {
                            (0..OPS.len())
                                .map(|i| {
                                    let op = OPS[(i + offset) % OPS.len()];
                                    let (report, delta) = apply(&clone, op);
                                    (op, report, delta)
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        for per_clone in &results {
            for (op, report, delta) in per_clone {
                let (_, want_report, want_delta) = expected
                    .iter()
                    .find(|(want_op, _, _)| want_op == op)
                    .expect("op in reference set");
                prop_assert_eq!(report, want_report);
                prop_assert_eq!(delta, want_delta);
                // Bit-identical floats, not merely approximately equal.
                for (a, b) in report.ranked.iter().zip(&want_report.ranked) {
                    prop_assert_eq!(a.cost.response_ms.to_bits(), b.cost.response_ms.to_bits());
                    prop_assert_eq!(a.cost.io_cost_ms.to_bits(), b.cost.io_cost_ms.to_bits());
                }
            }
        }
        // The racing family ran every distinct op at least once per
        // clone, yet the shared cache holds exactly one entry set per
        // distinct variation: repeats were hits.
        let stats = shared.cache_stats();
        prop_assert!(stats.hits > 0, "no cross-clone or repeat hit ever occurred");
    }
}

#[test]
fn cross_clone_cache_hits_are_observable() {
    let s1 = session_for(7);
    let s2 = s1.clone();
    s1.rank().unwrap();

    // Clone 1 prices a variation cold…
    let (r1, _) = s1.what_if_disks(40).unwrap();
    let after_first = s1.cache_stats();
    assert!(after_first.misses > 0);

    // …and clone 2's identical what-if is served warm: not a single
    // fresh evaluation, only hits.
    let (r2, _) = s2.what_if_disks(40).unwrap();
    let after_second = s2.cache_stats();
    assert_eq!(r1, r2);
    assert_eq!(
        after_second.misses, after_first.misses,
        "the second clone re-costed candidates it should have inherited"
    );
    assert!(after_second.hits > after_first.hits);
}

#[test]
fn copy_on_write_mutation_is_invisible_to_concurrent_readers() {
    let mut writer = session_for(11);
    let reader = writer.clone();
    let baseline = reader.rank().unwrap().clone();

    std::thread::scope(|scope| {
        let handle = {
            let reader = reader.clone();
            scope.spawn(move || {
                // Keep reading while the writer swaps snapshots.
                (0..5)
                    .map(|_| reader.what_if_disks(48).unwrap().0)
                    .collect::<Vec<_>>()
            })
        };
        for disks in [4u32, 8, 32] {
            let mut system = *writer.system();
            system.num_disks = disks;
            writer.set_system(system).unwrap();
            writer.rank().unwrap();
        }
        let reports = handle.join().unwrap();
        for r in &reports {
            assert_eq!(r, &reports[0], "reader saw a torn snapshot");
        }
    });

    // The reader's snapshot never moved.
    assert_eq!(reader.rank().unwrap(), &baseline);
    assert!(!writer.shares_snapshot_with(&reader));
}
