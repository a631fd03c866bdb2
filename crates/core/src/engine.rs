//! The prediction pipeline internals: validate → generate → exclude →
//! cost → rank, as a **bounded-memory streaming pipeline**.
//!
//! The owned [`crate::Warlock`] session facade and the `warlockd`
//! service both delegate here, so the pipeline has
//! exactly one implementation. Candidates are pulled lazily from a
//! [`CandidateSource`] in fixed-size chunks (never materializing the
//! space). The source walks bounded by `max_fragments`: a subtree whose
//! every candidate has too many fragments is stepped over whole (see
//! [`CandidateSource::stride`]), adding its exact size to `enumerated`
//! and to the `too_many_fragments` exclusions and one run-length cell
//! to the memo column, without becoming a `Fragmentation`, pool work or
//! a merge-loop iteration. Each pulled candidate is resolved in order
//! against the run's memo column from the [`EvalCache`] (one
//! enumeration-ordered column per run, not a per-candidate keyed map),
//! cheap structural pre-exclusion culls the remaining candidates whose
//! fragment count already disqualifies them before any layout or cost
//! work, and the rest fan out over a persistent [`exec::WorkerPool`],
//! whose workers apply every threshold but the disk-count one. Chunk
//! results merge in enumeration order: the disk threshold applies to
//! each costed outcome, fresh or memoized, and the survivors go into a
//! [`StreamingRank`](crate::ranking::StreamingRank) accumulator (which
//! retains only the phase-1 survivors), the exclusions into a bounded
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

use warlock_bitmap::BitmapScheme;
use warlock_cost::{
    combine_class_costs, combined_io_cost_ms, evaluate_chunk_kernel, evaluate_chunk_rows,
    CandidateCost, ChunkBatch, ClassCost, CostModel, CostTables, KernelBackend, PerQueryDetail,
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
use crate::allocation_plan::{AllocationPlan, PlanInputs};
use crate::analysis::FragmentationAnalysis;
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
/// to keep every worker of a wide pool busy per round, small enough
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

/// The execution environment a pipeline run borrows from its session:
/// the shared evaluation memo and the persistent worker pool.
#[derive(Clone, Copy)]
pub(crate) struct EvalEnv<'a> {
    /// The run memo (one column per run); `None` disables memoization.
    pub cache: Option<&'a EvalCache>,
    /// The persistent evaluation pool work fans out over.
    pub pool: &'a exec::WorkerPool,
}

/// Validates all advisor inputs and derives the bitmap scheme and skew
/// model the pipeline runs with.
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
pub(crate) fn threshold_context(
    schema: &StarSchema,
    system: &SystemConfig,
    config: &AdvisorConfig,
) -> ThresholdContext {
    let row_bytes = schema.fact_row_bytes(config.fact_index);
    ThresholdContext {
        rows_per_page: system.page.rows_per_page(row_bytes),
        prefetch_pages: system.fact_prefetch.fixed().unwrap_or(8),
        num_disks: system.num_disks,
    }
}

/// Builds the cost model, mapping the (validated-at-build-time) fact
/// index failure to an internal-invariant error instead of panicking.
fn cost_model<'a>(
    schema: &'a StarSchema,
    system: &'a SystemConfig,
    scheme: &'a BitmapScheme,
    mix: &'a QueryMix,
    config: &AdvisorConfig,
) -> Result<CostModel<'a>, WarlockError> {
    CostModel::new(schema, system, scheme, mix)
        .with_fact_index(config.fact_index)
        .map_err(|e| WarlockError::internal(format!("validated fact index rejected: {e}")))
}

/// The memo key of a run: the fingerprint of every input that
/// determines its memo column — each candidate's *pipeline* outcome, an
/// exclusion by a disk-free threshold or the unweighted, disk-free
/// per-class cost rows — plus the exclusion thresholds, the range
/// options and `max_dimensionality` (which shape the enumeration the
/// column's positions follow). Deliberately built on
/// [`CostModel::structure_fingerprint`] rather than the weighted
/// [`CostModel::fingerprint`]: the column is independent of the mix
/// *weights* and of the disk count (both enter only at merge, through
/// recombination and the disk threshold), so a pure re-weight — the
/// resident optimizer's auto re-advise — and a `what_if_disks` stay
/// warm and re-cost nothing.
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
/// the submitting thread before any pool work, so enormous candidates
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

/// Per-worker reusable evaluation arenas: layout construction buffers,
/// the SoA chunk batch, and the staging map from batch position back to
/// group slot. Acquired once per pool thread via [`exec::with_scratch`],
/// so all three amortize to zero steady-state allocation.
#[derive(Debug, Default)]
struct EvalScratch {
    layout: LayoutScratch,
    batch: ChunkBatch,
    staged: Vec<usize>,
}

/// How the pipeline resolved one candidate before the merge loop
/// applies the disk threshold to the costed ones.
enum Outcome {
    /// Excluded, structurally or by the disk-free thresholds.
    Excluded(Exclusion),
    /// Served from the run's memo column: the candidate's fragment
    /// count and the index of its class rows in the column.
    Memo { num_fragments: u64, row: u32 },
    /// Costed fresh under the run's mix.
    Fresh(CandidateCost),
}

/// One worker group's results: an outcome per group entry, in group
/// order, and — when the run writes a memo column — the unweighted
/// class rows of its costed entries, flat and in the same order.
struct GroupEval {
    outcomes: Vec<Option<Outcome>>,
    rows: Vec<ClassCost>,
}

/// The worker-side pipeline step for one group of candidates: layout →
/// every threshold but the disk-count one per candidate (layouts built
/// into the recycled scratch), then a single batched costing pass over
/// every survivor. Pure in its inputs, so it can run on any worker.
/// Callers must have passed every candidate through [`pre_exclude`]
/// first (the layout would panic on a `u64`-overflowing fragment count
/// otherwise), and must apply
/// [`Thresholds::check_declustering`](warlock_fragment::Thresholds::check_declustering)
/// to its costed outcomes.
#[allow(clippy::too_many_arguments)]
fn evaluate_group(
    schema: &StarSchema,
    config: &AdvisorConfig,
    ctx: ThresholdContext,
    tables: &CostTables,
    backend: KernelBackend,
    chunk: &[Fragmentation],
    group: &[usize],
    gather_classes: bool,
    scratch: &mut EvalScratch,
) -> GroupEval {
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(group.len());
    outcomes.resize_with(group.len(), || None);
    scratch.staged.clear();
    for (slot, &i) in group.iter().enumerate() {
        let layout = FragmentLayout::new_in(
            &mut scratch.layout,
            schema,
            chunk[i].clone(),
            config.fact_index,
        );
        match config.thresholds.check_layout(&layout, ctx) {
            Err(reason) => {
                let _ = layout.recycle(&mut scratch.layout);
                outcomes[slot] = Some(Outcome::Excluded(reason));
            }
            Ok(()) => {
                scratch.batch.push(layout, &mut scratch.layout);
                scratch.staged.push(slot);
            }
        }
    }
    // Per-query detail is omitted on the hot path: ranking reads only
    // the aggregates, and the final report re-derives detail for the
    // ranked handful (see `run`). A memoizing run additionally gathers
    // the unweighted per-class rows: the merge loop still ranks the
    // kernel-accumulated weighted cost, while the memo column stores
    // the rows so a re-weighted run can recombine them without
    // re-costing.
    let mut rows = Vec::new();
    let costs = if gather_classes {
        evaluate_chunk_rows(
            tables,
            &mut scratch.batch,
            PerQueryDetail::Omit,
            backend,
            &mut rows,
        )
    } else {
        evaluate_chunk_kernel(tables, &mut scratch.batch, PerQueryDetail::Omit, backend)
    };
    for (slot, cost) in scratch.staged.drain(..).zip(costs) {
        outcomes[slot] = Some(Outcome::Fresh(cost));
    }
    GroupEval { outcomes, rows }
}

/// Runs the full prediction pipeline as a streaming pass.
///
/// Candidates are pulled lazily from the enumeration source, bounded by
/// `max_fragments`, in chunks of [`AdvisorConfig::chunk_size`]; each
/// skipped subtree is counted and recorded whole, and each candidate is
/// resolved against the run's memo column, structurally pre-excluded,
/// or fanned out over the environment's persistent worker pool (up to
/// `config.parallelism` workers, see [`exec`]), and everything merges
/// **in enumeration order** into the streaming rank accumulator and the
/// bounded exclusion summary — so the report is bit-identical at any worker count and chunk size, and
/// pipeline memory is O(chunk + phase-1 survivors), never O(candidate
/// space). When the environment carries a cache, a run without a
/// column of its own writes one in the merge loop and commits it once
/// at the end, so re-runs with unchanged inputs skip re-evaluation.
///
/// # Errors
///
/// [`WarlockError::CandidateBudget`] when the exact predicted space
/// exceeds `config.max_candidates` (if set) — before any enumeration
/// or evaluation work is done.
pub(crate) fn run(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    scheme: &BitmapScheme,
    env: EvalEnv<'_>,
) -> Result<AdvisorReport, WarlockError> {
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
    let ctx = threshold_context(schema, system, config);
    let model = cost_model(schema, system, scheme, mix, config)?;
    // The run's own memo column from an earlier run, or else the one
    // this run writes.
    let memo = env
        .cache
        .map(|cache| (cache, run_fingerprint(&model, config)));
    let mut reader = memo.and_then(|(cache, fp)| cache.open(fp));
    // Current mix shares, in mix order — the order the memo's class
    // rows are gathered in, so a memo hit recombines positionally.
    let shares: Vec<f64> = mix.iter().map(|(_, share)| share).collect();
    let classes = shares.len();
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
    // Precomputed cost tables for the batched evaluator, built lazily on
    // the first cache-miss candidate — a fully warm run never pays for
    // the build.
    let tables: std::cell::OnceCell<CostTables> = std::cell::OnceCell::new();
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
    // enumeration order (filled only while writing a column).
    let mut fresh_rows: Vec<ClassCost> = Vec::new();

    loop {
        // Pull the next chunk from the lazy source, resolving each
        // candidate as it comes: memo hit, structural pre-exclusion, or
        // fresh work for the pool. A skipped subtree is answered by the
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
                            Some(match slot {
                                Slot::Excluded(reason) => Outcome::Excluded(reason),
                                Slot::Costed { num_fragments, row } => {
                                    Outcome::Memo { num_fragments, row }
                                }
                            })
                        }
                        None => pre_exclude(schema, config, &candidate).map(Outcome::Excluded),
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
                    enumerated += usize::try_from(candidates)
                        .map_err(|_| WarlockError::internal("skipped subtree larger than usize"))?;
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

        // Fan the uncached evaluations out over the pool in contiguous
        // groups (one SoA batch per group, costed through the shared
        // tables); results come back in `todo` order regardless of
        // worker scheduling.
        fresh_rows.clear();
        if !todo.is_empty() {
            let tables = tables.get_or_init(|| CostTables::build(&model, &config.range_options));
            let group_size = todo.len().div_ceil(workers).clamp(1, MAX_GROUP_SIZE);
            let groups: Vec<&[usize]> = todo.chunks(group_size).collect();
            let fresh = env.pool.map(workers, &groups, |group| {
                exec::with_scratch(|scratch: &mut EvalScratch| {
                    evaluate_group(
                        schema,
                        config,
                        ctx,
                        tables,
                        backend,
                        &chunk,
                        group,
                        writer.is_some(),
                        scratch,
                    )
                })
            });
            for (group, eval) in groups.iter().zip(fresh) {
                for (&i, outcome) in group.iter().zip(eval.outcomes) {
                    outcomes[i] = outcome;
                }
                fresh_rows.extend_from_slice(&eval.rows);
            }
        }

        // Merge in enumeration order, appending each outcome to the
        // column being written, then applying the disk threshold — the
        // last check, so precedence is that of `Thresholds::check`. The
        // rank accumulator's horizon is every candidate not yet merged
        // (the rest of this chunk plus whatever the source still holds)
        // — an upper bound on future costs, which keeps the streaming
        // ranking exact.
        let after_chunk = source.remaining();
        let chunk_len = chunk.len();
        let mut fresh_row = 0usize;
        let mut skips = skipped.drain(..).peekable();
        for (i, (fragmentation, outcome)) in chunk.drain(..).zip(outcomes.drain(..)).enumerate() {
            while let Some(skip) = skips.next_if(|skip| skip.at == i) {
                merge_skipped(schema, config, skip, &mut writer, &mut excluded)?;
            }
            let outcome = outcome
                .ok_or_else(|| WarlockError::internal("candidate evaluation left no outcome"))?;
            let remaining = after_chunk + (chunk_len - 1 - i) as u128;
            let memo_rows = |row: u32| {
                reader
                    .as_ref()
                    .map(|reader| reader.rows(row))
                    .ok_or_else(|| WarlockError::internal("memo hit without a column"))
            };
            // Append the disk-free outcome to the column being written;
            // a costed candidate yields its fragment count.
            let costed = match &outcome {
                Outcome::Excluded(reason) => {
                    if let Some(column) = &mut writer {
                        column.push_excluded(*reason);
                    }
                    Err(*reason)
                }
                Outcome::Memo { num_fragments, row } => {
                    if let Some(column) = &mut writer {
                        column.push_costed(*num_fragments, memo_rows(*row)?);
                    }
                    Ok(*num_fragments)
                }
                Outcome::Fresh(cost) => {
                    if let Some(column) = &mut writer {
                        let rows = fresh_rows
                            .get(fresh_row * classes..(fresh_row + 1) * classes)
                            .ok_or_else(|| {
                                WarlockError::internal("costed candidate without rows")
                            })?;
                        column.push_costed(cost.num_fragments, rows);
                        fresh_row += 1;
                    }
                    Ok(cost.num_fragments)
                }
            };
            if let Err(reason) = costed.and_then(|fragments| {
                config
                    .thresholds
                    .check_declustering(&fragmentation, fragments, system.num_disks)
            }) {
                excluded.record(reason, || ExcludedCandidate {
                    label: fragmentation.label(schema),
                    fragmentation,
                    reason,
                });
                continue;
            }
            evaluated += 1;
            match outcome {
                // A memo hit from an earlier run of the same structure:
                // the unweighted, disk-free rows recombine under the
                // current shares and disks, bit-identically to a fresh
                // evaluation (the kernels accumulate exactly
                // `share * row` per class, in the same order, and derive
                // busy and response time from the same two columns).
                // Only the phase-1 key is derived up front; the whole
                // cost is built only if the ranking may retain it.
                Outcome::Memo { num_fragments, row } => {
                    let rows = memo_rows(row)?;
                    rank.push_with(combined_io_cost_ms(rows, &shares), remaining, || {
                        combine_class_costs(fragmentation, num_fragments, rows, &shares, system)
                    });
                }
                Outcome::Fresh(cost) => rank.push(cost, remaining),
                // Recorded above.
                Outcome::Excluded(_) => {}
            }
        }
        for skip in skips {
            merge_skipped(schema, config, skip, &mut writer, &mut excluded)?;
        }
    }
    if let Some((cache, fp)) = memo {
        cache.commit(fp, writer, hits, enumerated as u64 - hits);
    }

    let mut ranked_costs = rank.finish();
    ranked_costs.truncate(config.top_n);
    // The hot path costs candidates without per-query detail; re-derive
    // it for the ranked handful through the scalar model, whose
    // aggregates are bit-identical to the batched evaluator's.
    for cost in &mut ranked_costs {
        if cost.per_query.is_empty() {
            *cost = model.evaluate(&cost.fragmentation);
        }
    }
    let ranked = ranked_costs
        .into_iter()
        .enumerate()
        .map(|(i, cost)| RankedCandidate {
            rank: i + 1,
            label: cost.fragmentation.label(schema),
            cost,
        })
        .collect();

    Ok(AdvisorReport {
        ranked,
        excluded,
        evaluated,
        enumerated,
        scheme: scheme.clone(),
    })
}

/// Labels a what-if knob, spelling out clamping instead of hiding it:
/// requesting `0` disks runs with 1 disk, and the label must say so.
fn clamped_label(what: &str, requested: u32, effective: u32, unit: &str) -> String {
    if requested == effective {
        format!("{what} = {requested}{unit}")
    } else {
        format!("{what} = {effective}{unit} (requested {requested}, clamped)")
    }
}

/// What-if variation: `num_disks` disks. Returns the variation label and
/// the re-run report, for [`crate::Warlock::what_if_disks`].
pub(crate) fn vary_disks(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    scheme: &BitmapScheme,
    num_disks: u32,
    env: EvalEnv<'_>,
) -> Result<(String, AdvisorReport), WarlockError> {
    let effective = num_disks.max(1);
    let mut system = *system;
    system.num_disks = effective;
    let report = run(schema, &system, mix, config, scheme, env)?;
    Ok((clamped_label("disks", num_disks, effective, ""), report))
}

/// What-if variation: prefetch fixed at `pages` for fact tables and
/// bitmaps alike.
pub(crate) fn vary_fixed_prefetch(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    scheme: &BitmapScheme,
    pages: u32,
    env: EvalEnv<'_>,
) -> Result<(String, AdvisorReport), WarlockError> {
    use warlock_storage::PrefetchPolicy;
    let effective = pages.max(1);
    let mut system = *system;
    system.fact_prefetch = PrefetchPolicy::Fixed(effective);
    system.bitmap_prefetch = PrefetchPolicy::Fixed(effective);
    let report = run(schema, &system, mix, config, scheme, env)?;
    Ok((
        clamped_label("prefetch", pages, effective, " pages"),
        report,
    ))
}

/// What-if variation: the bitmap indexes of `dimension` dropped. Fails
/// with the typed `UnknownDimension` schema error when the scheme (one
/// entry per schema dimension) has no such dimension.
pub(crate) fn vary_without_bitmap_dimension(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    scheme: &BitmapScheme,
    dimension: warlock_schema::DimensionId,
    env: EvalEnv<'_>,
) -> Result<(String, AdvisorReport), WarlockError> {
    let scheme = scheme.without_dimension(dimension)?;
    let report = run(schema, system, mix, config, &scheme, env)?;
    Ok((format!("no bitmaps on dimension {dimension}"), report))
}

/// What-if variation: query class `name` removed from the workload.
/// The bitmap scheme is derived from the mix, so it is re-derived for
/// the reduced workload (as the original advisor did). Fails with
/// [`WarlockError::UnknownClass`] when the class is unknown or removing
/// it would empty the mix.
pub(crate) fn vary_without_class(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    name: &str,
    env: EvalEnv<'_>,
) -> Result<(String, AdvisorReport), WarlockError> {
    let mix = mix
        .without_class(name)
        .ok_or_else(|| WarlockError::UnknownClass { name: name.into() })?;
    let scheme = BitmapScheme::derive(schema, &mix, config.scheme);
    let report = run(schema, system, &mix, config, &scheme, env)?;
    Ok((format!("without class {name}"), report))
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

/// Evaluates a single candidate outside the ranking pipeline (no
/// thresholds, no memo).
pub(crate) fn evaluate(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    scheme: &BitmapScheme,
    fragmentation: &Fragmentation,
) -> Result<CandidateCost, WarlockError> {
    check_candidate(schema, fragmentation)?;
    Ok(cost_model(schema, system, scheme, mix, config)?.evaluate(fragmentation))
}

/// Produces the detailed Fig.-2-style statistic for one candidate.
pub(crate) fn analyze(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    scheme: &BitmapScheme,
    fragmentation: &Fragmentation,
) -> Result<FragmentationAnalysis, WarlockError> {
    check_candidate(schema, fragmentation)?;
    FragmentationAnalysis::build(
        schema,
        system,
        scheme,
        mix,
        fragmentation,
        config.fact_index,
    )
}

/// Computes the physical allocation plan for one candidate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_allocation(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    scheme: &BitmapScheme,
    skew: &SkewModel,
    fragmentation: &Fragmentation,
) -> Result<AllocationPlan, WarlockError> {
    plan_inputs(schema, system, mix, config, scheme, skew, fragmentation)
        .map(|inputs| inputs.place(config.allocation_policy))
}

/// The placement-independent inputs of `fragmentation`'s allocation
/// plans, to place under one or more policies.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_inputs(
    schema: &StarSchema,
    system: &SystemConfig,
    mix: &QueryMix,
    config: &AdvisorConfig,
    scheme: &BitmapScheme,
    skew: &SkewModel,
    fragmentation: &Fragmentation,
) -> Result<PlanInputs, WarlockError> {
    check_candidate(schema, fragmentation)?;
    PlanInputs::new(
        schema,
        system,
        scheme,
        mix,
        skew,
        fragmentation,
        config.fact_index,
    )
}
