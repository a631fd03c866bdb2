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
//! fixed-size chunks (never materializing the space), as the cursor's
//! digits: no candidate becomes a heap object on its way through the
//! pipeline. The source walks bounded by `max_fragments`: a subtree
//! whose every candidate has too many fragments is stepped over whole
//! (see [`CandidateSource::stride`]), adding its exact size to
//! `enumerated` and to the `too_many_fragments` exclusions and one
//! run-length cell to the memo column, without crew work or a
//! merge-loop iteration. Each pulled candidate is resolved in order
//! against the run's memo column from the [`EvalCache`] (one
//! enumeration-ordered column per run, not a per-candidate keyed map).
//! A candidate the column does not answer is written into the chunk's
//! flat [`DigitChunk`], where cheap structural pre-exclusion reads its
//! fragment count; the rest fan out over the run's [`exec::Crew`] of
//! scoped threads, which lay each out from its borrowed
//! [`Digits`](warlock_fragment::Digits), apply every threshold but the
//! disk-count one and price the survivors into unweighted, disk-free
//! class rows.
//!
//! Chunk results merge in enumeration order, and every costed
//! candidate, fresh or memoized, takes one path: its rows go into the
//! column being written, the disk threshold applies, and the survivors
//! are ranked on keys. [`combined_io_cost_ms`] weighs the phase-1 key,
//! and only a candidate that may still be retained gets its response
//! time ([`combined_response_ms`]); the [`KeyedRank`] accumulator keeps
//! the keys of the phase-1 survivors with each one's enumeration
//! position as its handle. The exclusions go into a bounded
//! [`ExcludedSummary`], and the disk-free outcomes — on a run without a
//! column of its own — into the column it commits once at the end. So
//! one column serves every disk count.
//!
//! A [`Fragmentation`] is built for three groups only, each from its
//! position through [`CandidateSource::candidate_at`] or from its
//! digits: the final top N (for the label and the detailed cost), the
//! few exclusion samples per reason the summary keeps, and the
//! candidates a crew group lays out. The report is **bit-identical** to
//! the historical materialized pass at any worker count and chunk size,
//! while peak memory is O(chunk + survivors' keys + column).
//!
//! [`AdvisorConfig::max_candidates`] turns an over-broad run into a
//! typed [`WarlockError::CandidateBudget`] up front (the source
//! predicts the exact space size before generating anything). Internal
//! invariant failures surface as [`WarlockError::Internal`] instead of
//! panicking, so a worker bug in a long-lived service degrades to a
//! failed request.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use warlock_bitmap::BitmapScheme;
use warlock_cost::{
    combined_io_cost_ms, combined_response_ms, evaluate_chunk_rows, CandidateCost, ChunkBatch,
    ClassCost, CostModel, CostTables, KernelBackend,
};
use warlock_fragment::{
    CandidateError, CandidateSource, DigitChunk, Exclusion, FragmentLayout, Fragmentation,
    LayoutScratch, SkewModelExt, Stride, ThresholdContext,
};
use warlock_schema::StarSchema;
use warlock_skew::SkewModel;
use warlock_storage::SystemConfig;
use warlock_workload::QueryMix;

use crate::advisor::{AdvisorReport, ExcludedCandidate, ExcludedSummary, RankedCandidate};
use crate::cache::{Column, ColumnReader, EvalCache, Slot};
use crate::config::AdvisorConfig;
use crate::error::WarlockError;
use crate::ranking::{KeyedRank, RankKeys};

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
/// (they enter only at merge, through the ranking keys and the disk
/// threshold), so a pure re-weight — the resident optimizer's auto
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

/// Cheap structural pre-exclusion: decides from a candidate's exact
/// fragment count alone — no layout, no costing — whether it is out.
/// Runs on the submitting thread before any crew work, so enormous
/// candidates (including those whose count does not even fit `u64`)
/// never occupy a worker. The exact `u128` count is reported, never a
/// wrapped one.
fn pre_exclude(config: &AdvisorConfig, raw_count: u128) -> Option<Exclusion> {
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

/// The candidate at enumeration position `ordinal` of the run's walk:
/// how a ranked candidate or an exclusion sample, held only by its
/// position, becomes a [`Fragmentation`].
fn candidate_at(source: &CandidateSource, ordinal: u128) -> Result<Fragmentation, WarlockError> {
    source
        .candidate_at(ordinal)
        .ok_or_else(|| WarlockError::internal("a ranked or sampled position is past the space"))
}

/// The exclusion sample of `fragmentation`.
fn sample(
    schema: &StarSchema,
    fragmentation: Fragmentation,
    reason: Exclusion,
) -> ExcludedCandidate {
    ExcludedCandidate {
        label: fragmentation.label(schema),
        fragmentation,
        reason,
    }
}

/// A subtree the bounded walk stepped over, at its place among a
/// chunk's candidates.
struct Skipped {
    /// How many of the chunk's candidates precede it.
    at: usize,
    /// The enumeration position of its first candidate.
    first: u128,
    /// Its exact candidate count.
    candidates: u128,
}

/// Merges a skipped subtree: one run cell in the column being written
/// and `candidates` `too_many_fragments` exclusions (the walk skips only
/// subtrees whose every candidate has more fragments than
/// `max_fragments`, none of them beyond `u64`). Only the samples the
/// summary still has room for are built, from the subtree's first
/// positions.
fn merge_skipped(
    schema: &StarSchema,
    config: &AdvisorConfig,
    source: &CandidateSource,
    skipped: &Skipped,
    writer: &mut Option<Column>,
    excluded: &mut ExcludedSummary,
) -> Result<(), WarlockError> {
    if let Some(column) = writer {
        column.push_run(skipped.candidates);
    }
    let count = usize::try_from(skipped.candidates)
        .map_err(|_| WarlockError::internal("skipped subtree larger than usize"))?;
    let samples = (skipped.first..skipped.first + skipped.candidates).map(|ordinal| {
        let fragmentation = candidate_at(source, ordinal)?;
        match pre_exclude(config, fragmentation.num_fragments(schema)) {
            Some(reason @ Exclusion::TooManyFragments { .. }) => {
                Ok(sample(schema, fragmentation, reason))
            }
            _ => Err(WarlockError::internal(
                "a skipped candidate is within max_fragments",
            )),
        }
    });
    excluded.record_many("too_many_fragments", count, samples)
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

/// One candidate the walk stepped onto, as the merge loop needs it: no
/// heap object, only its position (from which a ranked candidate or an
/// exclusion sample is built back) and how it was resolved.
struct Pulled {
    /// Its enumeration position.
    ordinal: u64,
    /// Whether it is not the unfragmented baseline, for the disk check.
    fragmented: bool,
    /// `None` while a crew group still prices it.
    outcome: Option<Outcome>,
}

/// One worker group's results: a slot per group entry, in group order,
/// and the class rows of its costed entries, flat and in the same order
/// (a costed slot's `row` counts from the group's first).
struct GroupEval {
    slots: Vec<Slot>,
    rows: Vec<ClassCost>,
}

/// The worker-side pipeline step for one group of candidates, the
/// entries `group` of `fresh`: layout → every threshold but the
/// disk-count one per candidate (layouts built into the recycled
/// scratch), then a single batched pass pricing every survivor's class
/// rows. Pure in its inputs, so it can run on any thread of the run's
/// crew. Callers must have passed every candidate through
/// [`pre_exclude`] first (the layout would panic on a `u64`-overflowing
/// fragment count otherwise), and must apply
/// [`Thresholds::check_declustering`](warlock_fragment::Thresholds::check_declustering)
/// to its costed slots.
#[allow(clippy::too_many_arguments)]
fn evaluate_group(
    schema: &StarSchema,
    config: &AdvisorConfig,
    ctx: ThresholdContext,
    tables: &CostTables,
    backend: KernelBackend,
    fresh: &DigitChunk,
    group: Range<usize>,
    scratch: &mut EvalScratch,
) -> GroupEval {
    let slots = group
        .map(|j| {
            let layout = FragmentLayout::new_in_digits(
                &mut scratch.layout,
                schema,
                fresh.get(j),
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
/// **in enumeration order** into the keyed rank accumulator and the
/// bounded exclusion summary — so the report is bit-identical at any
/// worker count and chunk size, and pipeline memory is O(chunk +
/// phase-1 survivors), never O(candidate space). When the session
/// passes a cache, a run without a column of its own writes one in the
/// merge loop and commits it once at the end, so re-runs with unchanged
/// inputs skip re-evaluation.
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
    // the ranking keys read.
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
    let task = |(fresh, group): (Arc<DigitChunk>, Range<usize>)| {
        let tables = tables.get_or_init(|| CostTables::build(&model, &config.range_options));
        exec::ARENAS.with(|scratch| {
            evaluate_group(schema, config, ctx, tables, backend, &fresh, group, scratch)
        })
    };
    // Clamp to the exact space so an absurd (possibly client-supplied)
    // chunk size cannot pre-allocate beyond what will ever be pulled.
    let chunk_size = effective_chunk_size(config.chunk_size)
        .min(usize::try_from(space).unwrap_or(usize::MAX))
        .max(1);

    let mut rank = KeyedRank::new(config.top_x_percent, config.min_keep);
    let mut excluded = ExcludedSummary::new();
    let mut enumerated = 0usize;
    let mut evaluated = 0usize;
    let mut pulled: Vec<Pulled> = Vec::with_capacity(chunk_size);
    let mut skipped: Vec<Skipped> = Vec::new();
    // The digits of the chunk's candidates the crew prices, in pull
    // order, and where each sits in `pulled`.
    let mut fresh = DigitChunk::new();
    let mut todo: Vec<usize> = Vec::new();
    // The class rows of the chunk's freshly costed candidates, in
    // enumeration order.
    let mut fresh_rows: Vec<ClassCost> = Vec::new();

    std::thread::scope(|scope| -> Result<(), WarlockError> {
        let mut crew = exec::Crew::new(scope, workers, &task);
        loop {
            // Pull the next chunk from the lazy source, resolving each
            // candidate as it comes: memo hit, structural pre-exclusion, or
            // fresh work for the crew. Only fresh work is written out, as
            // digits; a skipped subtree is answered by the memo as a whole
            // and merged at its place in the chunk.
            pulled.clear();
            skipped.clear();
            fresh.clear();
            todo.clear();
            while pulled.len() < chunk_size && skipped.len() < chunk_size {
                let ordinal = source.position();
                match source.stride() {
                    None => break,
                    Some(Stride::One) => {
                        let outcome = match reader.as_mut().and_then(ColumnReader::next) {
                            Some(slot) => {
                                hits += 1;
                                Some(Outcome::Hit(slot))
                            }
                            None => {
                                let digits = source.push_digits(&mut fresh).ok_or_else(|| {
                                    WarlockError::internal("stride left no candidate")
                                })?;
                                match pre_exclude(config, digits.num_fragments(schema)) {
                                    Some(reason) => {
                                        fresh.pop();
                                        Some(Outcome::Miss(Slot::Excluded(reason)))
                                    }
                                    None => {
                                        todo.push(pulled.len());
                                        None
                                    }
                                }
                            }
                        };
                        pulled.push(Pulled {
                            ordinal,
                            fragmented: source.fragmented(),
                            outcome,
                        });
                    }
                    Some(Stride::Subtree(candidates)) => {
                        if let Some(reader) = reader.as_mut() {
                            hits += reader.skip(candidates) as u64;
                        }
                        enumerated += usize::try_from(candidates).map_err(|_| {
                            WarlockError::internal("skipped subtree larger than usize")
                        })?;
                        skipped.push(Skipped {
                            at: pulled.len(),
                            first: u128::from(ordinal),
                            candidates,
                        });
                    }
                }
            }
            if pulled.is_empty() && skipped.is_empty() {
                break;
            }
            enumerated += pulled.len();

            // Fan the uncached evaluations out over the crew in contiguous
            // groups (one SoA batch per group, costed through the shared
            // tables); results come back in `todo` order regardless of
            // thread scheduling.
            fresh_rows.clear();
            if !todo.is_empty() {
                let group_size = todo.len().div_ceil(workers).clamp(1, MAX_GROUP_SIZE);
                // The crew shares the chunk's digits; each group lays its
                // candidates out on the thread that costs them.
                let shared = Arc::new(std::mem::take(&mut fresh));
                let fresh_groups = crew.map(
                    (0..todo.len())
                        .step_by(group_size)
                        .map(|start| {
                            let end = (start + group_size).min(todo.len());
                            (Arc::clone(&shared), start..end)
                        })
                        .collect(),
                );
                fresh = Arc::try_unwrap(shared)
                    .map_err(|_| WarlockError::internal("a crew thread kept the chunk"))?;
                // Rebase each group's row indices onto the chunk's rows.
                for (group, eval) in todo.chunks(group_size).zip(fresh_groups) {
                    let base = (fresh_rows.len() / classes.max(1)) as u32;
                    for (&i, slot) in group.iter().zip(eval.slots) {
                        pulled[i].outcome = Some(Outcome::Miss(match slot {
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
            // current shares and disks into its ranking keys. Only the
            // phase-1 key is weighed up front; the response time only if
            // the ranking may retain it. The rank accumulator's horizon is
            // every candidate not yet merged (the rest of this chunk plus
            // whatever the source still holds) — an upper bound on future
            // costs, which keeps the streaming ranking exact.
            let after_chunk = source.remaining();
            let chunk_len = pulled.len();
            let mut skips = skipped.iter().peekable();
            for (i, candidate) in pulled.drain(..).enumerate() {
                while let Some(skip) = skips.next_if(|skip| skip.at == i) {
                    merge_skipped(schema, config, &source, skip, &mut writer, &mut excluded)?;
                }
                let remaining = after_chunk + (chunk_len - 1 - i) as u128;
                let costed = match candidate
                    .outcome
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
                        .check_declustering(candidate.fragmented, num_fragments, system.num_disks)
                        .map(|()| (num_fragments, rows))
                });
                match survivor {
                    Err(reason) => excluded.try_record(reason, || {
                        candidate_at(&source, candidate.ordinal.into())
                            .map(|fragmentation| sample(schema, fragmentation, reason))
                    })?,
                    Ok((num_fragments, rows)) => {
                        evaluated += 1;
                        let io_cost_ms = combined_io_cost_ms(rows, &shares);
                        rank.push_with(io_cost_ms, remaining, || {
                            let keys = RankKeys {
                                io_cost_ms,
                                response_ms: combined_response_ms(
                                    rows,
                                    &shares,
                                    system.num_disks,
                                    processors,
                                    overhead,
                                ),
                                num_fragments,
                            };
                            (keys, candidate.ordinal)
                        });
                    }
                }
            }
            for skip in skips {
                merge_skipped(schema, config, &source, skip, &mut writer, &mut excluded)?;
            }
        }
        Ok(())
    })?;
    if let Some((cache, fp)) = memo {
        cache.commit(fp, writer, hits, enumerated as u64 - hits);
    }

    // Only the reported candidates become objects: each ranked position
    // is built back into its candidate and priced once, with the
    // per-query detail the hot path never derives, through the scalar
    // model (whose aggregates are bit-identical to the batched
    // evaluator's). This is the only time a ranked candidate's detail is
    // costed: its analysis, plan and policy verdict all read this cost.
    let mut ranked_positions = rank.finish();
    ranked_positions.truncate(config.top_n);
    let ranked = ranked_positions
        .into_iter()
        .enumerate()
        .map(|(i, ordinal)| {
            let fragmentation = candidate_at(&source, ordinal.into())?;
            Ok(RankedCandidate {
                rank: i + 1,
                label: fragmentation.label(schema),
                cost: check_finite(schema, model.evaluate(&fragmentation))?,
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
