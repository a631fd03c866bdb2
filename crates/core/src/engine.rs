//! The prediction pipeline internals: validate → generate → exclude →
//! cost → rank, as a **bounded-memory streaming pipeline**.
//!
//! The owned [`crate::Warlock`] session facade and the `warlockd`
//! service both delegate here, so the pipeline has
//! exactly one implementation. A run reads one [`Inputs`] view of
//! borrowed inputs; the session hands out its snapshot's, and a what-if
//! is the same [`run`] over that view with one field replaced.
//!
//! This module is also the one place a candidate's per-class detail
//! is costed: the finish step prices each ranked candidate once, and
//! [`evaluate`] prices an arbitrary (checked) candidate once. Analyses,
//! allocation plans and policy verdicts derive from that cost and
//! never build a cost model of their own.
//!
//! Candidates are pulled lazily from a [`CandidateSource`] in
//! fixed-size chunks (never materializing the space). The source walks
//! bounded by `max_fragments`: a subtree whose every candidate has too
//! many fragments is stepped over whole (see
//! [`CandidateSource::stride`]), adding its exact size to `enumerated`
//! and to the `too_many_fragments` exclusions and one run-length cell
//! to the memo column, without becoming a `Fragmentation`, crew work or
//! a merge-loop iteration. Each pulled candidate is resolved in order
//! against the run's memo column from the [`EvalCache`] (one
//! enumeration-ordered column per run, not a per-candidate keyed map),
//! cheap structural pre-exclusion culls the remaining candidates whose
//! fragment count already disqualifies them before any layout or cost
//! work, and the rest fan out over the run's [`exec::Crew`] of scoped
//! threads, which apply every threshold but the disk-count one and price
//! the survivors into unweighted, disk-free class rows. Chunk results
//! merge in enumeration order, and every costed candidate, fresh or
//! memoized, takes one path: its rows go into the column being written,
//! the disk threshold applies, and the survivors are weighed by
//! [`combine_class_costs`] into a
//! [`StreamingRank`](crate::ranking::StreamingRank) accumulator (which
//! retains only the phase-1 survivors). The exclusions go into a bounded
//! [`ExcludedSummary`], and the disk-free outcomes — on a run without a
//! column of its own — into the column it commits once at the end. So
//! one column serves every disk count, and the report is
//! **bit-identical** to the historical materialized pass at any worker
//! count and chunk size while peak memory is O(chunk + survivors +
//! column).
//!
//! [`AdvisorConfig::max_candidates`] turns an over-broad run into a
//! typed [`WarlockError::CandidateBudget`] up front (the source
//! predicts the exact space size before generating anything). Internal
//! invariant failures surface as [`WarlockError::Internal`] instead of
//! panicking, so a worker bug in a long-lived service degrades to a
//! failed request.

use std::sync::{Arc, OnceLock};

use warlock_bitmap::BitmapScheme;
use warlock_cost::{
    combine_class_costs, combined_io_cost_ms, evaluate_chunk_rows, CandidateCost, ChunkBatch,
    ClassCost, CostModel, CostTables, KernelBackend,
};
use warlock_fragment::{
    CandidateError, CandidateSource, Exclusion, FragmentLayout, Fragmentation, LayoutScratch,
    SkewModelExt, Stride, ThresholdContext,
};
use warlock_schema::StarSchema;
use warlock_skew::SkewModel;
use warlock_storage::SystemConfig;
use warlock_workload::QueryMix;

use crate::advisor::{AdvisorReport, ExcludedCandidate, ExcludedSummary, RankedCandidate};
use crate::cache::{Column, ColumnReader, EvalCache, Slot};
use crate::config::AdvisorConfig;
use crate::error::WarlockError;
use crate::ranking::StreamingRank;

pub(crate) mod exec;

/// Environment variable overriding the automatic evaluation chunk size
/// (only consulted when [`AdvisorConfig::chunk_size`] is `0` = auto).
/// CI uses it to pin a `chunk_size = 1` determinism lane without
/// editing configurations.
pub(crate) const CHUNK_SIZE_ENV: &str = "WARLOCK_CHUNK_SIZE";

/// Default evaluation chunk size under `chunk_size = 0`: large enough
/// to keep every thread of a wide crew busy per round, small enough
/// that pipeline memory stays a rounding error next to the survivors.
const DEFAULT_CHUNK_SIZE: usize = 4096;

/// Resolves the configured chunk-size knob: `n >= 1` is taken
/// literally; `0` means auto — the `WARLOCK_CHUNK_SIZE` environment
/// variable if set to a positive integer, otherwise
/// [`DEFAULT_CHUNK_SIZE`].
pub(crate) fn effective_chunk_size(requested: usize) -> usize {
    if requested >= 1 {
        return requested;
    }
    if let Ok(v) = std::env::var(CHUNK_SIZE_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    DEFAULT_CHUNK_SIZE
}

/// The borrowed inputs of one pipeline run: what a session snapshot
/// holds, and what a what-if varies one field of (the system, the
/// scheme, or the mix together with its re-derived scheme).
#[derive(Clone, Copy)]
pub(crate) struct Inputs<'a> {
    pub schema: &'a StarSchema,
    pub system: &'a SystemConfig,
    pub mix: &'a QueryMix,
    pub config: &'a AdvisorConfig,
    pub scheme: &'a BitmapScheme,
}

/// Validates all advisor inputs and derives the bitmap scheme and skew
/// model the pipeline runs with (so it takes the inputs before a scheme
/// exists, not an [`Inputs`] view).
pub(crate) fn validate(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
) -> Result<(BitmapScheme, SkewModel), WarlockError> {
    config.validate().map_err(WarlockError::Config)?;
    system.validate().map_err(WarlockError::System)?;
    mix.validate(schema)?;
    if config.fact_index >= schema.facts().len() {
        return Err(WarlockError::Config(format!(
            "fact index {} out of range",
            config.fact_index
        )));
    }
    let skew = match &config.skew {
        None => schema.uniform_skew_model(),
        Some(configs) => {
            if configs.len() != schema.num_dimensions() {
                return Err(WarlockError::Skew(format!(
                    "{} skew configs for {} dimensions",
                    configs.len(),
                    schema.num_dimensions()
                )));
            }
            if let Some(bad) = configs
                .iter()
                .find(|skew| !(skew.theta.is_finite() && skew.theta >= 0.0))
            {
                return Err(WarlockError::Skew(format!(
                    "skew theta must be finite and non-negative, got {}",
                    bad.theta
                )));
            }
            schema.skew_model(configs)
        }
    };
    let scheme = BitmapScheme::derive(schema, mix, config.scheme);
    Ok((scheme, skew))
}

/// The threshold context derived from the system configuration.
///
/// For fixed prefetch policies the sub-granule exclusion uses the fixed
/// value; for automatic policies it uses a floor of 8 pages — the
/// smallest sequential run for which positioning amortization is
/// meaningful on the modeled disks.
pub(crate) fn threshold_context(inputs: Inputs<'_>) -> ThresholdContext {
    let row_bytes = inputs.schema.fact_row_bytes(inputs.config.fact_index);
    ThresholdContext {
        rows_per_page: inputs.system.page.rows_per_page(row_bytes),
        prefetch_pages: inputs.system.fact_prefetch.fixed().unwrap_or(8),
        num_disks: inputs.system.num_disks,
    }
}

/// Builds the cost model, mapping the (validated-at-build-time) fact
/// index failure to an internal-invariant error instead of panicking.
fn cost_model(inputs: Inputs<'_>) -> Result<CostModel<'_>, WarlockError> {
    CostModel::new(inputs.schema, inputs.system, inputs.scheme, inputs.mix)
        .with_fact_index(inputs.config.fact_index)
        .map_err(|e| WarlockError::internal(format!("validated fact index rejected: {e}")))
}

/// The memo key of a run: the fingerprint of every input that
/// determines its memo column — each candidate's *pipeline* outcome, an
/// exclusion by a disk-free threshold or the unweighted, disk-free
/// per-class cost rows — plus the exclusion thresholds, the range
/// options and `max_dimensionality` (which shape the enumeration the
/// column's positions follow). Built on
/// [`CostModel::structure_fingerprint`], which leaves out the mix
/// *weights* and the disk count: the column is independent of both
/// (they enter only at merge, through [`combine_class_costs`] and the
/// disk threshold), so a pure re-weight — the resident optimizer's auto
/// re-advise — and a `what_if_disks` stay warm and re-cost nothing.
fn run_fingerprint(model: &CostModel<'_>, config: &AdvisorConfig) -> u128 {
    warlock_cost::fingerprint128(&(
        "run",
        model.structure_fingerprint(),
        format!("{:?}", config.thresholds),
        &config.range_options,
        config.max_dimensionality,
    ))
}

/// Cheap structural pre-exclusion: decides from the fragment count
/// alone — no layout, no costing — whether a candidate is out. Runs on
/// the submitting thread before any crew work, so enormous candidates
/// (including those whose count does not even fit `u64`) never occupy
/// a worker. The exact `u128` count is reported, never a wrapped one.
fn pre_exclude(
    schema: &StarSchema,
    config: &AdvisorConfig,
    fragmentation: &Fragmentation,
) -> Option<Exclusion> {
    let raw_count = fragmentation.num_fragments(schema);
    if raw_count > u128::from(u64::MAX) {
        return Some(Exclusion::FragmentCountOverflow {
            fragments: raw_count,
        });
    }
    if raw_count > u128::from(config.thresholds.max_fragments) {
        return Some(Exclusion::TooManyFragments {
            fragments: raw_count as u64,
            limit: config.thresholds.max_fragments,
        });
    }
    None
}

/// A subtree the bounded walk stepped over, at its place among a
/// chunk's candidates.
struct Skipped {
    /// How many of the chunk's candidates precede it.
    at: usize,
    /// Its exact candidate count.
    candidates: u128,
    /// Its first candidates in enumeration order, as many as the
    /// `too_many_fragments` samples may still need.
    samples: Vec<Fragmentation>,
}

/// Merges a skipped subtree: one run cell in the column being written
/// and `candidates` `too_many_fragments` exclusions (the walk skips only
/// subtrees whose every candidate has more fragments than
/// `max_fragments`, none of them beyond `u64`).
fn merge_skipped(
    schema: &StarSchema,
    config: &AdvisorConfig,
    skipped: Skipped,
    writer: &mut Option<Column>,
    excluded: &mut ExcludedSummary,
) -> Result<(), WarlockError> {
    if let Some(column) = writer {
        column.push_run(skipped.candidates);
    }
    let count = usize::try_from(skipped.candidates)
        .map_err(|_| WarlockError::internal("skipped subtree larger than usize"))?;
    let samples = skipped
        .samples
        .into_iter()
        .map(
            |fragmentation| match pre_exclude(schema, config, &fragmentation) {
                Some(reason @ Exclusion::TooManyFragments { .. }) => Ok(ExcludedCandidate {
                    label: fragmentation.label(schema),
                    fragmentation,
                    reason,
                }),
                _ => Err(WarlockError::internal(
                    "a skipped candidate is within max_fragments",
                )),
            },
        )
        .collect::<Result<Vec<_>, _>>()?;
    excluded.record_many("too_many_fragments", count, samples);
    Ok(())
}

/// Largest number of candidates one worker batches per costing call.
/// Bounds the SoA column memory of a group while staying wide enough
/// that the per-class table lookups amortize.
const MAX_GROUP_SIZE: usize = 64;

/// Reusable evaluation arenas: layout construction buffers and the SoA
/// chunk batch (with its persistent Yao memo). Kept on the
/// process-wide [`exec::ARENAS`] stack across runs and sessions, so
/// both amortize to zero steady-state allocation.
#[derive(Debug, Default)]
struct EvalScratch {
    layout: LayoutScratch,
    batch: ChunkBatch,
    /// Calls that used this arena, for the arena tests.
    #[cfg(test)]
    uses: u32,
    /// The thread holding this arena, for the arena tests.
    #[cfg(test)]
    owner: Option<std::thread::ThreadId>,
}

/// How the pipeline resolved one candidate before the merge loop
/// applies the disk threshold to the costed ones: its [`Slot`], and
/// which buffer a costed slot's `row` indexes.
enum Outcome {
    /// Served from the run's memo column; a costed slot's rows are in
    /// the column.
    Hit(Slot),
    /// Resolved by this run, structurally or by a group; a costed
    /// slot's rows are in the chunk's fresh rows.
    Miss(Slot),
}

/// One worker group's results: a slot per group entry, in group order,
/// and the class rows of its costed entries, flat and in the same order
/// (a costed slot's `row` counts from the group's first).
struct GroupEval {
    slots: Vec<Slot>,
    rows: Vec<ClassCost>,
}

/// The worker-side pipeline step for one group of candidates: layout →
/// every threshold but the disk-count one per candidate (layouts built
/// into the recycled scratch), then a single batched pass pricing every
/// survivor's class rows. Pure in its inputs, so it can run on any
/// thread of the run's crew. Callers must have passed every candidate
/// through [`pre_exclude`] first (the layout would panic on a
/// `u64`-overflowing fragment count otherwise), and must apply
/// [`Thresholds::check_declustering`](warlock_fragment::Thresholds::check_declustering)
/// to its costed slots.
#[allow(clippy::too_many_arguments)]
fn evaluate_group(
    schema: &StarSchema,
    config: &AdvisorConfig,
    ctx: ThresholdContext,
    tables: &CostTables,
    backend: KernelBackend,
    chunk: &[Fragmentation],
    group: &[usize],
    scratch: &mut EvalScratch,
) -> GroupEval {
    let slots = group
        .iter()
        .map(|&i| {
            let layout = FragmentLayout::new_in(
                &mut scratch.layout,
                schema,
                chunk[i].clone(),
                config.fact_index,
            );
            match config.thresholds.check_layout(&layout, ctx) {
                Err(reason) => {
                    let _ = layout.recycle(&mut scratch.layout);
                    Slot::Excluded(reason)
                }
                Ok(()) => {
                    let slot = Slot::Costed {
                        num_fragments: layout.num_fragments(),
                        row: scratch.batch.len() as u32,
                    };
                    scratch.batch.push(layout, &mut scratch.layout);
                    slot
                }
            }
        })
        .collect();
    let mut rows = Vec::new();
    evaluate_chunk_rows(tables, &mut scratch.batch, backend, &mut rows);
    GroupEval { slots, rows }
}

/// Runs the full prediction pipeline as a streaming pass.
///
/// Candidates are pulled lazily from the enumeration source, bounded by
/// `max_fragments`, in chunks of [`AdvisorConfig::chunk_size`]; each
/// skipped subtree is counted and recorded whole, and each candidate is
/// resolved against the run's memo column, structurally pre-excluded,
/// or fanned out over the run's crew of scoped threads (up to
/// `config.parallelism` workers, see [`exec`]), and everything merges
/// **in enumeration order** into the streaming rank accumulator and the
/// bounded exclusion summary — so the report is bit-identical at any worker count and chunk size, and
/// pipeline memory is O(chunk + phase-1 survivors), never O(candidate
/// space). When the session passes a cache, a run without a
/// column of its own writes one in the merge loop and commits it once
/// at the end, so re-runs with unchanged inputs skip re-evaluation.
///
/// # Errors
///
/// [`WarlockError::CandidateBudget`] when the exact predicted space
/// exceeds `config.max_candidates` (if set) — before any enumeration
/// or evaluation work is done. [`WarlockError::System`] when the disk
/// timing prices a ranked candidate at a non-finite cost.
pub(crate) fn run(
    inputs: Inputs<'_>,
    cache: Option<&EvalCache>,
) -> Result<AdvisorReport, WarlockError> {
    let Inputs {
        schema,
        system,
        mix,
        config,
        scheme,
    } = inputs;
    let mut source =
        CandidateSource::ranged(schema, config.max_dimensionality, &config.range_options)
            .bounded(config.thresholds.max_fragments);
    let space = source.space_size();
    if config.max_candidates > 0 && space > u128::from(config.max_candidates) {
        return Err(WarlockError::CandidateBudget {
            space,
            budget: config.max_candidates,
        });
    }
    let ctx = threshold_context(inputs);
    let model = cost_model(inputs)?;
    // The run's own memo column from an earlier run, or else the one
    // this run writes.
    let memo = cache.map(|cache| (cache, run_fingerprint(&model, config)));
    let mut reader = memo.and_then(|(cache, fp)| cache.open(fp));
    // Current mix shares, in mix order — the order class rows are
    // gathered in, so rows weigh positionally — and the response inputs
    // `combine_class_costs` reads.
    let shares: Vec<f64> = mix.iter().map(|(_, share)| share).collect();
    let classes = shares.len();
    let processors = system.architecture.total_processors();
    let overhead = system.architecture.overhead_factor();
    let mut writer = match (memo, &reader) {
        (Some((cache, _)), None) => Some(cache.column(classes, space)),
        _ => None,
    };
    let mut hits = 0u64;
    let workers = exec::effective_parallelism(config.parallelism);
    // Detect the costing kernel backend once per run; both backends are
    // bit-identical, so the choice never participates in cache
    // fingerprints.
    let backend = KernelBackend::detect();
    // Precomputed cost tables for the batched evaluator, built lazily by
    // the first group costed — a fully warm run never pays for the
    // build.
    let tables = OnceLock::new();
    let task = |(chunk, group): (Arc<Vec<Fragmentation>>, Vec<usize>)| {
        let tables = tables.get_or_init(|| CostTables::build(&model, &config.range_options));
        exec::ARENAS.with(|scratch| {
            evaluate_group(
                schema, config, ctx, tables, backend, &chunk, &group, scratch,
            )
        })
    };
    // Clamp to the exact space so an absurd (possibly client-supplied)
    // chunk size cannot pre-allocate beyond what will ever be pulled.
    let chunk_size = effective_chunk_size(config.chunk_size)
        .min(usize::try_from(space).unwrap_or(usize::MAX))
        .max(1);

    let mut rank = StreamingRank::new(config.top_x_percent, config.min_keep);
    let mut excluded = ExcludedSummary::new();
    let mut enumerated = 0usize;
    let mut evaluated = 0usize;
    let mut chunk: Vec<Fragmentation> = Vec::with_capacity(chunk_size);
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(chunk_size);
    let mut todo: Vec<usize> = Vec::new();
    let mut skipped: Vec<Skipped> = Vec::new();
    // Samples the skipped subtrees may still owe the exclusion summary:
    // its first `too_many_fragments` samples, drawn from every subtree
    // pulled so far, cannot reach past this many of their candidates.
    let mut samples_due = ExcludedSummary::SAMPLES_PER_REASON;
    // The class rows of the chunk's freshly costed candidates, in
    // enumeration order.
    let mut fresh_rows: Vec<ClassCost> = Vec::new();

    std::thread::scope(|scope| -> Result<(), WarlockError> {
        let mut crew = exec::Crew::new(scope, workers, &task);
        loop {
            // Pull the next chunk from the lazy source, resolving each
            // candidate as it comes: memo hit, structural pre-exclusion, or
            // fresh work for the crew. A skipped subtree is answered by the
            // memo as a whole and merged at its place in the chunk.
            chunk.clear();
            outcomes.clear();
            todo.clear();
            skipped.clear();
            while chunk.len() < chunk_size && skipped.len() < chunk_size {
                match source.stride() {
                    None => break,
                    Some(Stride::One) => {
                        let candidate = source
                            .current()
                            .ok_or_else(|| WarlockError::internal("stride left no candidate"))?;
                        let outcome = match reader.as_mut().and_then(ColumnReader::next) {
                            Some(slot) => {
                                hits += 1;
                                Some(Outcome::Hit(slot))
                            }
                            None => pre_exclude(schema, config, &candidate)
                                .map(|reason| Outcome::Miss(Slot::Excluded(reason))),
                        };
                        if outcome.is_none() {
                            todo.push(chunk.len());
                        }
                        outcomes.push(outcome);
                        chunk.push(candidate);
                    }
                    Some(Stride::Subtree(candidates)) => {
                        if let Some(reader) = reader.as_mut() {
                            hits += reader.skip(candidates) as u64;
                        }
                        let mut samples = Vec::new();
                        if samples_due > 0 {
                            samples.extend(source.subtree().take(samples_due));
                            samples_due -= samples.len();
                        }
                        enumerated += usize::try_from(candidates).map_err(|_| {
                            WarlockError::internal("skipped subtree larger than usize")
                        })?;
                        skipped.push(Skipped {
                            at: chunk.len(),
                            candidates,
                            samples,
                        });
                    }
                }
            }
            if chunk.is_empty() && skipped.is_empty() {
                break;
            }
            enumerated += chunk.len();

            // Fan the uncached evaluations out over the crew in contiguous
            // groups (one SoA batch per group, costed through the shared
            // tables); results come back in `todo` order regardless of
            // thread scheduling.
            fresh_rows.clear();
            if !todo.is_empty() {
                let group_size = todo.len().div_ceil(workers).clamp(1, MAX_GROUP_SIZE);
                // The crew shares the chunk for the batch, so each group
                // clones its own candidates on the thread that costs them.
                let shared = Arc::new(std::mem::take(&mut chunk));
                let fresh = crew.map(
                    todo.chunks(group_size)
                        .map(|group| (Arc::clone(&shared), group.to_vec()))
                        .collect(),
                );
                chunk = Arc::try_unwrap(shared)
                    .map_err(|_| WarlockError::internal("a crew thread kept the chunk"))?;
                // Rebase each group's row indices onto the chunk's rows.
                for (group, eval) in todo.chunks(group_size).zip(fresh) {
                    let base = (fresh_rows.len() / classes.max(1)) as u32;
                    for (&i, slot) in group.iter().zip(eval.slots) {
                        outcomes[i] = Some(Outcome::Miss(match slot {
                            Slot::Costed { num_fragments, row } => Slot::Costed {
                                num_fragments,
                                row: base + row,
                            },
                            excluded => excluded,
                        }));
                    }
                    fresh_rows.extend_from_slice(&eval.rows);
                }
            }

            // Merge in enumeration order. Every outcome goes into the column
            // being written; a costed one, fresh or memoized, then meets the
            // disk threshold — the last check, so precedence is that of
            // `Thresholds::check` — and its rows are weighed under the
            // current shares and disks. Only the phase-1 key is weighed up
            // front; the whole cost is built only if the ranking may retain
            // it. The rank accumulator's horizon is every candidate not yet
            // merged (the rest of this chunk plus whatever the source still
            // holds) — an upper bound on future costs, which keeps the
            // streaming ranking exact.
            let after_chunk = source.remaining();
            let chunk_len = chunk.len();
            let mut skips = skipped.drain(..).peekable();
            for (i, (fragmentation, outcome)) in chunk.drain(..).zip(outcomes.drain(..)).enumerate()
            {
                while let Some(skip) = skips.next_if(|skip| skip.at == i) {
                    merge_skipped(schema, config, skip, &mut writer, &mut excluded)?;
                }
                let remaining = after_chunk + (chunk_len - 1 - i) as u128;
                let costed = match outcome
                    .ok_or_else(|| WarlockError::internal("candidate evaluation left no outcome"))?
                {
                    Outcome::Hit(Slot::Excluded(reason))
                    | Outcome::Miss(Slot::Excluded(reason)) => Err(reason),
                    Outcome::Hit(Slot::Costed { num_fragments, row }) => {
                        let column = reader
                            .as_ref()
                            .ok_or_else(|| WarlockError::internal("memo hit without a column"))?;
                        Ok((num_fragments, column.rows(row)))
                    }
                    Outcome::Miss(Slot::Costed { num_fragments, row }) => {
                        let start = row as usize * classes;
                        let rows = fresh_rows.get(start..start + classes).ok_or_else(|| {
                            WarlockError::internal("costed candidate without rows")
                        })?;
                        Ok((num_fragments, rows))
                    }
                };
                if let Some(column) = &mut writer {
                    match costed {
                        Ok((num_fragments, rows)) => column.push_costed(num_fragments, rows),
                        Err(reason) => column.push_excluded(reason),
                    }
                }
                let survivor = costed.and_then(|(num_fragments, rows)| {
                    config
                        .thresholds
                        .check_declustering(&fragmentation, num_fragments, system.num_disks)
                        .map(|()| (num_fragments, rows))
                });
                match survivor {
                    Err(reason) => excluded.record(reason, || ExcludedCandidate {
                        label: fragmentation.label(schema),
                        fragmentation,
                        reason,
                    }),
                    Ok((num_fragments, rows)) => {
                        evaluated += 1;
                        rank.push_with(combined_io_cost_ms(rows, &shares), remaining, || {
                            combine_class_costs(
                                fragmentation,
                                num_fragments,
                                rows,
                                &shares,
                                system.num_disks,
                                processors,
                                overhead,
                            )
                        });
                    }
                }
            }
            for skip in skips {
                merge_skipped(schema, config, skip, &mut writer, &mut excluded)?;
            }
        }
        Ok(())
    })?;
    if let Some((cache, fp)) = memo {
        cache.commit(fp, writer, hits, enumerated as u64 - hits);
    }

    let mut ranked_costs = rank.finish();
    ranked_costs.truncate(config.top_n);
    // The hot path costs candidates without per-query detail; derive it
    // for the ranked handful through the scalar model, whose aggregates
    // are bit-identical to the batched evaluator's. This is the only
    // time a ranked candidate's detail is costed: its analysis, plan
    // and policy verdict all read this cost.
    let ranked = ranked_costs
        .into_iter()
        .enumerate()
        .map(|(i, cost)| {
            Ok(RankedCandidate {
                rank: i + 1,
                label: cost.fragmentation.label(schema),
                cost: check_finite(schema, model.evaluate(&cost.fragmentation))?,
            })
        })
        .collect::<Result<_, WarlockError>>()?;

    Ok(AdvisorReport {
        ranked,
        excluded,
        evaluated,
        enumerated,
        scheme: scheme.clone(),
    })
}

/// Guards every single-candidate entry point: the fragmentation must
/// validate against the schema, and its fragment count must fit `u64` —
/// otherwise the layout construction would panic on data-dependent
/// input. Returns the typed [`CandidateError::FragmentOverflow`] with
/// the exact `u128` count instead of wrapping or asserting.
fn check_candidate(schema: &StarSchema, fragmentation: &Fragmentation) -> Result<(), WarlockError> {
    fragmentation.validate(schema)?;
    let raw_count = fragmentation.num_fragments(schema);
    if raw_count > u128::from(u64::MAX) {
        return Err(WarlockError::Candidate(CandidateError::FragmentOverflow {
            fragments: raw_count,
        }));
    }
    Ok(())
}

/// Passes a priced cost through, or returns a typed
/// [`WarlockError::System`] when a figure of it is not finite: a valid
/// but extreme disk timing (say, a seek of `1e308` ms) prices to `inf`,
/// which no report, plan or verdict can carry.
fn check_finite(schema: &StarSchema, cost: CandidateCost) -> Result<CandidateCost, WarlockError> {
    let per_class = cost.per_query.iter().flat_map(|q| {
        [
            q.fragments_accessed,
            q.fact_pages,
            q.bitmap_pages,
            q.total_ios,
            q.busy_ms,
            q.per_fragment_ms,
            q.response_ms,
            q.selected_rows,
        ]
    });
    let figures = [
        cost.io_cost_ms,
        cost.response_ms,
        cost.total_ios,
        cost.total_pages,
    ];
    if figures.into_iter().chain(per_class).all(f64::is_finite) {
        return Ok(cost);
    }
    Err(WarlockError::System(format!(
        "the disk timing prices candidate `{}` at a non-finite cost",
        cost.fragmentation.label(schema)
    )))
}

/// Prices a single candidate outside the ranking pipeline (no
/// thresholds, no memo), with the same per-class detail the ranked
/// candidates carry — the one cost an analysis, a plan or a policy
/// verdict of an arbitrary candidate derives from.
pub(crate) fn evaluate(
    inputs: Inputs<'_>,
    fragmentation: &Fragmentation,
) -> Result<CandidateCost, WarlockError> {
    check_candidate(inputs.schema, fragmentation)?;
    check_finite(inputs.schema, cost_model(inputs)?.evaluate(fragmentation))
}
