//! The engine's ranking stages, replayed serially through the public
//! APIs of `warlock_fragment`, `warlock_cost` and `warlock::ranking`, with
//! one span per stage per chunk (never per candidate).
//!
//! Mirrors `Warlock::run` without the memo and the worker pool: pull a
//! chunk from the lazy source, pre-exclude on the fragment count, build
//! layouts and check thresholds, price survivors in groups through the
//! batched kernels, merge into the streaming rank in enumeration order,
//! and re-derive per-query detail for the ranked handful through the
//! scalar model. The result is checked against the session's own ranking.

use warlock::cost::{
    evaluate_chunk_kernel, ChunkBatch, CostModel, CostTables, KernelBackend, PerQueryDetail,
};
use warlock::fragment::{CandidateSource, FragmentLayout, Fragmentation, LayoutScratch};
use warlock::{StreamingRank, Warlock};

use crate::trace::Tracer;

/// Same chunk and group sizes as the engine's defaults.
const CHUNK: usize = 256;
const GROUP: usize = 64;

/// Counters of one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageCounts {
    pub enumerated: u64,
    pub pre_excluded: u64,
    pub threshold_excluded: u64,
    pub costed: u64,
    pub retained: u64,
    pub detail_calls: u64,
    pub yao_memo_entries: u64,
}

impl std::ops::AddAssign for StageCounts {
    fn add_assign(&mut self, other: Self) {
        self.enumerated += other.enumerated;
        self.pre_excluded += other.pre_excluded;
        self.threshold_excluded += other.threshold_excluded;
        self.costed += other.costed;
        self.retained += other.retained;
        self.detail_calls += other.detail_calls;
        self.yao_memo_entries += other.yao_memo_entries;
    }
}

/// Replays one cold rank of `session` stage by stage under `tracer`
/// (which must be on for the spans to be kept). Returns the counters,
/// or a message when the replayed ranking differs from `session.run()`.
pub fn replay(session: &Warlock, tracer: &mut Tracer) -> Result<StageCounts, String> {
    let snapshot = session.snapshot();
    let (schema, config) = (snapshot.schema(), snapshot.config());
    let model = CostModel::new(schema, snapshot.system(), snapshot.scheme(), snapshot.mix())
        .with_fact_index(config.fact_index)?;
    let ctx = session.threshold_context();
    let backend = KernelBackend::resolve(config.kernel);
    let mut counts = StageCounts::default();
    let mut source =
        CandidateSource::ranged(schema, config.max_dimensionality, &config.range_options);
    let mut tables: Option<CostTables> = None;
    let mut rank = StreamingRank::new(config.top_x_percent, config.min_keep);
    let mut scratch = LayoutScratch::new();
    let mut batch = ChunkBatch::new();
    let mut chunk: Vec<Fragmentation> = Vec::with_capacity(CHUNK);
    let mut todo: Vec<usize> = Vec::new();
    let mut staged: Vec<usize> = Vec::new();
    let mut priced = Vec::new();

    let ranked = tracer.span("replay", |tracer| {
        loop {
            tracer.span("fragment.enumerate", |_| {
                chunk.clear();
                chunk.extend(source.by_ref().take(CHUNK));
            });
            if chunk.is_empty() {
                break;
            }
            counts.enumerated += chunk.len() as u64;
            tracer.span("fragment.pre_exclude", |_| {
                todo.clear();
                for (i, candidate) in chunk.iter().enumerate() {
                    if candidate.num_fragments(schema) > u128::from(config.thresholds.max_fragments)
                    {
                        counts.pre_excluded += 1;
                    } else {
                        todo.push(i);
                    }
                }
            });
            priced.clear();
            for group in todo.chunks(GROUP) {
                tracer.span("fragment.layout", |_| {
                    staged.clear();
                    for &i in group {
                        let layout = FragmentLayout::new_in(
                            &mut scratch,
                            schema,
                            chunk[i].clone(),
                            config.fact_index,
                        );
                        match config.thresholds.check(&layout, ctx) {
                            Err(_) => {
                                counts.threshold_excluded += 1;
                                let _ = layout.recycle(&mut scratch);
                            }
                            Ok(()) => {
                                batch.push(layout, &mut scratch);
                                staged.push(i);
                            }
                        }
                    }
                });
                if staged.is_empty() {
                    continue;
                }
                if tables.is_none() {
                    tables = Some(tracer.span("cost.tables", |_| {
                        CostTables::build(&model, &config.range_options)
                    }));
                }
                let tables = tables.as_ref().expect("built above");
                let costs = tracer.span("cost.kernel", |_| {
                    evaluate_chunk_kernel(tables, &mut batch, PerQueryDetail::Omit, backend)
                });
                counts.costed += costs.len() as u64;
                priced.extend(staged.iter().copied().zip(costs));
            }
            let after_chunk = source.remaining();
            let chunk_len = chunk.len();
            tracer.span("core.ranking.merge", |_| {
                for (i, cost) in priced.drain(..) {
                    rank.push(cost, after_chunk + (chunk_len - 1 - i) as u128);
                }
            });
        }
        counts.retained = rank.retained() as u64;
        let mut ranked = tracer.span("core.ranking.merge", |_| rank.finish());
        ranked.truncate(config.top_n);
        tracer.span("cost.detail", |_| {
            for cost in &mut ranked {
                *cost = model.evaluate(&cost.fragmentation);
                counts.detail_calls += 1;
            }
        });
        ranked
    });
    counts.yao_memo_entries = batch.yao_memo_len() as u64;

    let reference = session.run().map_err(|e| e.to_string())?;
    let same = reference.ranked.len() == ranked.len()
        && reference.ranked.iter().zip(&ranked).all(|(r, c)| {
            r.cost.fragmentation == c.fragmentation
                && r.cost.response_ms.to_bits() == c.response_ms.to_bits()
                && r.cost.io_cost_ms.to_bits() == c.io_cost_ms.to_bits()
        });
    if !same || reference.enumerated as u64 != counts.enumerated {
        return Err("staged replay disagrees with Warlock::run".to_owned());
    }
    Ok(counts)
}
