//! Plain-text configuration files for the `warlock` command-line tool:
//! the original tool's GUI input layer, where "a star schema with its
//! attributes, hierarchy cardinalities, row sizes and fact table volumes
//! has to be defined" along with disk parameters and the weighted query
//! mix, as a small INI-style format. Each key is shown with its domain:
//!
//! ```text
//! [dimension product]
//! levels = division:5, line:15, code:9000  # name:cardinality, top level first
//! skew = 0.5                  # optional Zipf theta at the bottom level, finite >= 0
//! skew_shuffle = 42           # optional seed dispersing heavy members; needs skew
//!
//! [fact sales]
//! measures = unit_sales:8, dollar_sales:8  # name:bytes
//! density = 0.01              # in (0, 1]; or rows = 17496000 (>= 1), not both
//!
//! [query reports]
//! weight = 15                 # finite >= 0 (default 1), normalized to shares
//! predicates = product.line:1, time.month:1    # dim.level:values
//!
//! [system]
//! disks = 16                  # 1 to 65536 (MAX_DISKS)
//! page_bytes = 8192           # a power of two >= 512
//! seek_ms = 5.0               # finite >= 0
//! rotational_ms = 3.0         # finite >= 0
//! transfer_mb_s = 20.0        # finite > 0
//! capacity_gb = 18            # GiB per disk: at least 1 byte, below 2^64 bytes
//! architecture = shared_everything    # or shared_disk
//! processors = 16             # SE total / SD per node
//! nodes = 4                   # SD only; nodes × processors must fit a u32
//! prefetch = auto             # or a page count >= 1
//!
//! [advisor]
//! max_dimensionality = 4
//! top_x_percent = 10          # in (0, 100]
//! top_n = 10                  # >= 1
//! min_keep = 10               # >= 1
//! max_fragments = 1048576
//! allocation_policy = auto    # or auto:<cv> (cv finite >= 0) | greedy | round_robin | graph
//! graph_seed = 0              # graph tie-break seed; needs allocation_policy = graph
//! parallelism = auto          # or 0 (auto) to 256 workers (MAX_PARALLELISM); 1 = serial
//! max_candidates = unlimited  # or a candidate-space budget, 0 = unlimited
//! chunk_size = auto           # or a streaming evaluation chunk, 0 = auto
//! kernel = auto               # legacy, ignored: the CPU picks the backend
//! range_options = 2, 3, 5     # extra MDHF range sizes, distinct, >= 2
//! auto_advise = off           # resident optimizer: on | off
//! drift_enter = 0.25          # drift score in [0, 1] entering `Drifting`
//! drift_exit = 0.10           # drift score in [0, drift_enter] returning to `Stable`
//! stats_half_life = 1000      # stats window half-life in queries, finite > 0
//! ```
//!
//! One key table per section kind drives [`parse_config`] and
//! [`render_config`]. An unknown key is an error, so a typo fails loudly;
//! an error about a value names the line of the key that set it, and
//! only whole-file errors (an invalid schema or mix) report line 0.

use std::fmt::{self, Write as _};
use std::str::FromStr;

use warlock_alloc::AllocationPolicy;
use warlock_schema::{Dimension, FactTable, SchemaError, StarSchema};
use warlock_skew::DimensionSkew;
use warlock_storage::{Architecture, PageConfig, PrefetchPolicy, SystemConfig, MAX_DISKS};
use warlock_workload::{DimensionPredicate, QueryClass, QueryMix};

use crate::config::MAX_PARALLELISM;
use crate::AdvisorConfig;

/// A fully parsed configuration file.
#[derive(Debug, Clone)]
pub struct ParsedConfig {
    /// The star schema.
    pub schema: StarSchema,
    /// The weighted query mix.
    pub mix: QueryMix,
    /// The system configuration.
    pub system: SystemConfig,
    /// The advisor configuration (including per-dimension skew).
    pub advisor: AdvisorConfig,
}

/// Parse errors with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigFileError {
    /// 1-based line of the offending input (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ConfigFileError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "config: {}", self.message)
        } else {
            write!(f, "config line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ConfigFileError {}

fn fail<T>(line: usize, message: impl Into<String>) -> Result<T, ConfigFileError> {
    Err(ConfigFileError::at(line, message))
}

/// Wraps an error from building the config as an error at `line`.
fn at_line<E: fmt::Display>(line: usize) -> impl FnOnce(E) -> ConfigFileError {
    move |e| ConfigFileError::at(line, e.to_string())
}

/// One key of a section kind whose keys parse into the staging value `S`.
struct Key<S> {
    name: &'static str,
    /// The key's domain, which the error for a value outside it quotes.
    doc: &'static str,
    parse: fn(&mut S, &str) -> Option<()>,
    render: fn(&ParsedConfig, usize) -> Option<String>,
}

impl<S> Key<S> {
    /// A key that takes no value and is never rendered.
    const fn new(name: &'static str, doc: &'static str) -> Self {
        Self {
            name,
            doc,
            parse: |_, _| None,
            render: |_, _| None,
        }
    }

    /// Parses a value into `S`: `None` when it is outside the domain.
    const fn parse(mut self, parse: fn(&mut S, &str) -> Option<()>) -> Self {
        self.parse = parse;
        self
    }

    /// Renders the key of the kind's `i`-th section: `None` omits it.
    const fn render(mut self, render: fn(&ParsedConfig, usize) -> Option<String>) -> Self {
        self.render = render;
        self
    }
}

/// A section kind: its header word and its keys, in render order.
trait Stage: Default + 'static {
    const KIND: &'static str;
    const KEYS: &'static [Key<Self>];
}

/// A section being read: its name, its header's line, the line of each
/// key set, and the staging value its keys parse into.
#[derive(Default)]
struct Staged<S> {
    name: String,
    line: usize,
    lines: Vec<(&'static str, usize)>,
    value: S,
}

/// A section that `key = value` lines go to.
trait Section {
    fn set(&mut self, key: &str, value: &str, line: usize) -> Result<(), ConfigFileError>;
}

impl<S: Stage> Section for Staged<S> {
    fn set(&mut self, key: &str, value: &str, line: usize) -> Result<(), ConfigFileError> {
        let Some(entry) = S::KEYS.iter().find(|k| k.name == key) else {
            return fail(line, format!("unknown {} key `{key}`", S::KIND));
        };
        if (entry.parse)(&mut self.value, value).is_none() {
            let doc = entry.doc;
            return fail(line, format!("invalid {key}: `{value}` (expected {doc})"));
        }
        self.lines.push((entry.name, line));
        Ok(())
    }
}

impl<S: Stage> Staged<S> {
    /// Appends a section called `name`, opened at `line`, to `all`.
    fn open(all: &mut Vec<Self>, name: String, line: usize) -> Result<&mut Self, ConfigFileError> {
        if name.is_empty() {
            return fail(line, format!("{} needs a name", S::KIND));
        }
        let mut section = Self::default();
        (section.name, section.line) = (name, line);
        all.push(section);
        Ok(all.last_mut().expect("a section was just pushed"))
    }

    /// The last line that set one of `keys`, else the header's.
    fn line_of(&self, keys: &[&str]) -> usize {
        let set = self.lines.iter().filter(|(key, _)| keys.contains(key));
        set.map(|&(_, line)| line).max().unwrap_or(self.line)
    }

    /// Writes the kind's `i`-th section of `parsed`, called `name`.
    fn render(out: &mut String, name: &str, parsed: &ParsedConfig, i: usize) {
        let gap = if out.is_empty() { "" } else { "\n" };
        let space = if name.is_empty() { "" } else { " " };
        let _ = writeln!(out, "{gap}[{}{space}{name}]", S::KIND);
        for key in S::KEYS {
            if let Some(value) = (key.render)(parsed, i) {
                let _ = writeln!(out, "{} = {value}", key.name);
            }
        }
    }
}

/// Parses `value` as a `T` inside the domain `ok`.
fn num<T: FromStr>(value: &str, ok: impl FnOnce(&T) -> bool) -> Option<T> {
    value.parse().ok().filter(ok)
}

fn non_negative(x: &f64) -> bool {
    x.is_finite() && *x >= 0.0
}

fn positive(x: &f64) -> bool {
    x.is_finite() && *x > 0.0
}

/// `word` as 0, else a number inside the domain `ok`.
fn zero_as<T: FromStr + Default>(v: &str, word: &str, ok: impl FnOnce(&T) -> bool) -> Option<T> {
    (v == word).then(T::default).or_else(|| num(v, ok))
}

/// 0 as `word`, else the number.
fn show_zero_as<T: Default + PartialEq + ToString>(n: T, word: &str) -> Option<String> {
    let zero = n == T::default();
    Some(if zero { word.into() } else { n.to_string() })
}

fn show(value: impl ToString) -> Option<String> {
    Some(value.to_string())
}

/// `value`, unless it is `omitted`.
fn unless<T: PartialEq + ToString>(value: T, omitted: T) -> Option<String> {
    (value != omitted).then(|| value.to_string())
}

/// The comma-separated items of `value`, blanks skipped, each parsed by `item`.
fn list<T>(value: &str, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    let items = value.split(',').map(str::trim);
    items.filter(|i| !i.is_empty()).map(item).collect()
}

/// A `name:number` item.
fn pair<T: FromStr>(item: &str) -> Option<(String, T)> {
    let (name, number) = item.split_once(':')?;
    Some((name.trim().to_owned(), number.trim().parse().ok()?))
}

/// `items`, each shown by `f`, comma-separated; `None` when there are none.
fn join<I: IntoIterator>(items: I, f: impl FnMut(I::Item) -> String) -> Option<String> {
    let text = items.into_iter().map(f).collect::<Vec<_>>().join(", ");
    (!text.is_empty()).then_some(text)
}

/// The skew of dimension `i`, unless it is uniform.
fn skew(parsed: &ParsedConfig, i: usize) -> Option<DimensionSkew> {
    let skews = parsed.advisor.skew.as_deref().unwrap_or_default();
    skews.get(i).copied().filter(|s| !s.is_uniform())
}

/// Bytes per GiB of `capacity_gb`.
const GIB: f64 = (1u64 << 30) as f64;

/// The `architecture` values, Shared Disk second.
const ARCHITECTURES: [&str; 2] = ["shared_everything", "shared_disk"];

#[derive(Default)]
struct DimensionStage {
    levels: Vec<(String, u64)>,
    skew: Option<f64>,
    skew_shuffle: Option<u64>,
}

impl Stage for DimensionStage {
    const KIND: &'static str = "dimension";
    const KEYS: &'static [Key<Self>] = &[
        Key::<Self>::new("levels", "`name:cardinality` pairs, top level first")
            .parse(|s, v| list(v, pair).map(|levels| s.levels = levels))
            .render(|p, i| {
                let levels = p.schema.dimensions()[i].levels();
                join(levels, |l| format!("{}:{}", l.name(), l.cardinality()))
            }),
        Key::<Self>::new("skew", "a finite Zipf theta >= 0")
            .parse(|s, v| num(v, non_negative).map(|theta| s.skew = Some(theta)))
            .render(|p, i| show(skew(p, i)?.theta)),
        Key::<Self>::new("skew_shuffle", "a shuffle seed")
            .parse(|s, v| num(v, |_| true).map(|seed| s.skew_shuffle = Some(seed)))
            .render(|p, i| show(skew(p, i)?.shuffle_seed?)),
    ];
}

#[derive(Default)]
struct FactStage {
    measures: Vec<(String, u32)>,
    rows: Option<u64>,
    density: Option<f64>,
}

impl Stage for FactStage {
    const KIND: &'static str = "fact";
    const KEYS: &'static [Key<Self>] = &[
        Key::<Self>::new("measures", "`name:bytes` pairs")
            .parse(|s, v| list(v, pair).map(|measures| s.measures = measures))
            .render(|p, i| {
                let measures = p.schema.facts()[i].measures();
                join(measures, |m| format!("{}:{}", m.name(), m.bytes()))
            }),
        Key::<Self>::new("rows", "a row count >= 1")
            .parse(|s, v| num(v, |n| *n >= 1).map(|rows| s.rows = Some(rows)))
            .render(|p, i| match p.schema.facts()[i].density() {
                Some(_) => None,
                None => show(p.schema.fact_rows(i)),
            }),
        Key::<Self>::new("density", "a density in (0, 1]")
            .parse(|s, v| num(v, |d| *d > 0.0 && *d <= 1.0).map(|d| s.density = Some(d)))
            .render(|p, i| show(p.schema.facts()[i].density()?)),
    ];
}

#[derive(Default)]
struct QueryStage {
    weight: Option<f64>,
    /// `(dimension name, level name, values)`.
    predicates: Vec<(String, String, u64)>,
}

impl Stage for QueryStage {
    const KIND: &'static str = "query";
    const KEYS: &'static [Key<Self>] = &[
        Key::<Self>::new("weight", "a finite weight >= 0")
            .parse(|s, v| num(v, non_negative).map(|weight| s.weight = Some(weight)))
            .render(|p, i| show(p.mix.classes()[i].share)),
        Key::<Self>::new("predicates", "`dim.level:values` items")
            .parse(|s, v| {
                let predicate = |item: &str| {
                    let (attr, values) = pair(item)?;
                    let (dim, level) = attr.split_once('.')?;
                    Some((dim.trim().to_owned(), level.trim().to_owned(), values))
                };
                list(v, predicate).map(|predicates| s.predicates = predicates)
            })
            .render(|p, i| {
                let predicates = p.mix.classes()[i].class.predicates();
                let shown = join(predicates, |(&dim, pred)| {
                    let d = p.schema.dimension(dim).expect("validated");
                    let level = d.level(pred.level).expect("validated").name();
                    format!("{}.{level}:{}", d.name(), pred.values)
                });
                Some(shown.unwrap_or_default())
            }),
    ];
}

struct SystemStage {
    config: SystemConfig,
    shared_disk: bool,
    nodes: u32,
    processors: u32,
}

impl Default for SystemStage {
    fn default() -> Self {
        let config = SystemConfig::default_2001(16);
        let (shared_disk, nodes, processors) = (false, 1, 16);
        Self {
            config,
            shared_disk,
            nodes,
            processors,
        }
    }
}

impl Stage for SystemStage {
    const KIND: &'static str = "system";
    const KEYS: &'static [Key<Self>] = &[
        Key::<Self>::new("disks", "a disk count from 1 to 65536")
            .parse(|s, v| num(v, |n| (1..=MAX_DISKS).contains(n)).map(|n| s.config.num_disks = n))
            .render(|p, _| show(p.system.num_disks)),
        Key::<Self>::new("page_bytes", "a power of two >= 512")
            .parse(|s, v| {
                let bytes = num(v, |n: &u32| n.is_power_of_two() && *n >= 512);
                bytes.map(|n| s.config.page = PageConfig::new(n))
            })
            .render(|p, _| show(p.system.page.page_bytes)),
        Key::<Self>::new("seek_ms", "finite milliseconds >= 0")
            .parse(|s, v| num(v, non_negative).map(|ms| s.config.disk.avg_seek_ms = ms))
            .render(|p, _| show(p.system.disk.avg_seek_ms)),
        Key::<Self>::new("rotational_ms", "finite milliseconds >= 0")
            .parse(|s, v| num(v, non_negative).map(|ms| s.config.disk.avg_rotational_ms = ms))
            .render(|p, _| show(p.system.disk.avg_rotational_ms)),
        Key::<Self>::new("transfer_mb_s", "a finite rate > 0")
            .parse(|s, v| num(v, positive).map(|rate| s.config.disk.transfer_mb_per_s = rate))
            .render(|p, _| show(p.system.disk.transfer_mb_per_s)),
        Key::<Self>::new(
            "capacity_gb",
            "GiB per disk, from 1 byte to below 2^64 bytes",
        )
        // `u64::MAX as f64` rounds up to 2^64, so any byte count in
        // range converts exactly, dropping a fraction of a byte.
        .parse(|s, v| {
            let gb = num(v, |gb: &f64| (1.0..u64::MAX as f64).contains(&(gb * GIB)))?;
            s.config.disk.capacity_bytes = (gb * GIB) as u64;
            Some(())
        })
        .render(|p, _| show(p.system.disk.capacity_bytes as f64 / GIB)),
        Key::<Self>::new("architecture", "shared_everything or shared_disk")
            .parse(|s, v| {
                let kind = ARCHITECTURES.iter().position(|a| *a == v);
                kind.map(|kind| s.shared_disk = kind == 1)
            })
            .render(|p, _| {
                let shared_disk = matches!(p.system.architecture, Architecture::SharedDisk { .. });
                show(ARCHITECTURES[usize::from(shared_disk)])
            }),
        Key::<Self>::new("nodes", "a Shared Disk node count")
            .parse(|s, v| num(v, |_| true).map(|nodes| s.nodes = nodes))
            .render(|p, _| match p.system.architecture {
                Architecture::SharedDisk { nodes, .. } => show(nodes),
                Architecture::SharedEverything { .. } => None,
            }),
        Key::<Self>::new("processors", "a processor count, per node on Shared Disk")
            .parse(|s, v| num(v, |_| true).map(|processors| s.processors = processors))
            .render(|p, _| match p.system.architecture {
                Architecture::SharedEverything { processors } => show(processors),
                Architecture::SharedDisk {
                    processors_per_node,
                    ..
                } => show(processors_per_node),
            }),
        Key::<Self>::new("prefetch", "auto or a page count >= 1")
            .parse(|s, v| {
                let policy = match zero_as(v, "auto", |n: &u32| *n >= 1)? {
                    0 => PrefetchPolicy::Auto { max_pages: 256 },
                    n => PrefetchPolicy::Fixed(n),
                };
                (s.config.fact_prefetch, s.config.bitmap_prefetch) = (policy, policy);
                Some(())
            })
            .render(|p, _| show_zero_as(p.system.fact_prefetch.fixed().unwrap_or(0), "auto")),
    ];
}

#[derive(Default)]
struct AdvisorStage {
    config: AdvisorConfig,
    graph_seed: Option<u64>,
}

impl Stage for AdvisorStage {
    const KIND: &'static str = "advisor";
    const KEYS: &'static [Key<Self>] = &[
        Key::<Self>::new("max_dimensionality", "a dimension count")
            .parse(|s, v| num(v, |_| true).map(|n| s.config.max_dimensionality = n))
            .render(|p, _| show(p.advisor.max_dimensionality)),
        Key::<Self>::new("top_x_percent", "a percentage in (0, 100]")
            .parse(|s, v| num(v, |x| *x > 0.0 && *x <= 100.0).map(|x| s.config.top_x_percent = x))
            .render(|p, _| show(p.advisor.top_x_percent)),
        Key::<Self>::new("top_n", "a count >= 1")
            .parse(|s, v| num(v, |n| *n >= 1).map(|n| s.config.top_n = n))
            .render(|p, _| show(p.advisor.top_n)),
        Key::<Self>::new("min_keep", "a count >= 1")
            .parse(|s, v| num(v, |n| *n >= 1).map(|n| s.config.min_keep = n))
            .render(|p, _| show(p.advisor.min_keep)),
        Key::<Self>::new("max_fragments", "a fragment count")
            .parse(|s, v| num(v, |_| true).map(|n| s.config.thresholds.max_fragments = n))
            .render(|p, _| show(p.advisor.thresholds.max_fragments)),
        Key::<Self>::new(
            "allocation_policy",
            "auto[:<cv >= 0>], greedy, round_robin or graph",
        )
        .parse(|s, v| {
            s.config.allocation_policy = match v {
                "auto" => AllocationPolicy::default(),
                "greedy" => AllocationPolicy::GreedySize,
                "round_robin" => AllocationPolicy::RoundRobin,
                "graph" => AllocationPolicy::GraphPartition { seed: 0 },
                _ => AllocationPolicy::Auto {
                    cv_threshold: num(v.strip_prefix("auto:")?.trim(), non_negative)?,
                },
            };
            Some(())
        })
        .render(|p, _| match p.advisor.allocation_policy {
            policy if policy == AllocationPolicy::default() => show("auto"),
            AllocationPolicy::Auto { cv_threshold } => show(format!("auto:{cv_threshold}")),
            AllocationPolicy::GreedySize => show("greedy"),
            AllocationPolicy::RoundRobin => show("round_robin"),
            AllocationPolicy::GraphPartition { .. } => show("graph"),
        }),
        Key::<Self>::new("graph_seed", "a graph tie-break seed")
            .parse(|s, v| num(v, |_| true).map(|seed| s.graph_seed = Some(seed)))
            .render(|p, _| match p.advisor.allocation_policy {
                AllocationPolicy::GraphPartition { seed } if seed != 0 => show(seed),
                _ => None,
            }),
        Key::<Self>::new("parallelism", "auto or at most 256 workers")
            .parse(|s, v| {
                let workers = zero_as(v, "auto", |n| *n <= MAX_PARALLELISM);
                workers.map(|n| s.config.parallelism = n)
            })
            .render(|p, _| show_zero_as(p.advisor.parallelism, "auto")),
        Key::<Self>::new("max_candidates", "unlimited or a candidate-space budget")
            .parse(|s, v| zero_as(v, "unlimited", |_| true).map(|n| s.config.max_candidates = n))
            .render(|p, _| show_zero_as(p.advisor.max_candidates, "unlimited")),
        Key::<Self>::new("chunk_size", "auto or a chunk size")
            .parse(|s, v| zero_as(v, "auto", |_| true).map(|n| s.config.chunk_size = n))
            .render(|p, _| show_zero_as(p.advisor.chunk_size, "auto")),
        Key::<Self>::new("kernel", "auto, scalar, lanes or avx2, all ignored")
            .parse(|s, v| v.parse().ok().map(|kernel| s.config.kernel = kernel)),
        Key::<Self>::new("range_options", "distinct range sizes >= 2")
            .parse(|s, v| {
                let options = list(v, |r| num(r, |r: &u64| *r >= 2))?;
                let distinct = (1..options.len()).all(|i| !options[..i].contains(&options[i]));
                distinct.then(|| s.config.range_options = options)
            })
            .render(|p, _| join(&p.advisor.range_options, u64::to_string)),
        Key::<Self>::new("auto_advise", "on or off")
            .parse(|s, v| (v == "on" || v == "off").then(|| s.config.auto_advise = v == "on"))
            .render(|p, _| p.advisor.auto_advise.then(|| "on".into())),
        Key::<Self>::new("drift_enter", "a drift score in [0, 1]")
            .parse(|s, v| num(v, |x| (0.0..=1.0).contains(x)).map(|x| s.config.drift_enter = x))
            .render(|p, _| unless(p.advisor.drift_enter, AdvisorConfig::default().drift_enter)),
        Key::<Self>::new("drift_exit", "a drift score in [0, 1]")
            .parse(|s, v| num(v, |x| (0.0..=1.0).contains(x)).map(|x| s.config.drift_exit = x))
            .render(|p, _| unless(p.advisor.drift_exit, AdvisorConfig::default().drift_exit)),
        Key::<Self>::new("stats_half_life", "a finite query count > 0")
            .parse(|s, v| num(v, positive).map(|queries| s.config.stats_half_life = queries))
            .render(|p, _| {
                let default = AdvisorConfig::default().stats_half_life;
                unless(p.advisor.stats_half_life, default)
            }),
    ];
}

/// Parses a configuration file's contents.
pub fn parse_config(input: &str) -> Result<ParsedConfig, ConfigFileError> {
    let (mut dimensions, mut facts, mut queries) = (Vec::new(), Vec::new(), Vec::new());
    let (mut system, mut advisor) = (Staged::<SystemStage>::default(), Staged::default());
    let mut current: Option<&mut dyn Section> = None;
    for (lineno, raw) in (1..).zip(input.lines()) {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let Some(header) = header.strip_suffix(']').map(str::trim) else {
                return fail(lineno, "unterminated section header");
            };
            let split = header.split_once(char::is_whitespace);
            let (kind, name) = split.unwrap_or((header, ""));
            let name = name.trim().to_owned();
            let section: &mut dyn Section = match kind {
                DimensionStage::KIND => Staged::open(&mut dimensions, name, lineno)?,
                FactStage::KIND => Staged::open(&mut facts, name, lineno)?,
                QueryStage::KIND => Staged::open(&mut queries, name, lineno)?,
                SystemStage::KIND => &mut system,
                AdvisorStage::KIND => &mut advisor,
                other => return fail(lineno, format!("unknown section kind `{other}`")),
            };
            current = Some(section);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return fail(lineno, "expected `key = value`");
        };
        let Some(section) = current.as_mut() else {
            return fail(lineno, "key outside of any section");
        };
        section.set(key.trim(), value.trim(), lineno)?;
    }
    assemble(dimensions, facts, queries, system, advisor)
}

/// Builds the parsed config from its sections. Each key was checked
/// against its domain as it was read; this applies the rules that span
/// keys, each at the line of the last key involved.
fn assemble(
    dimensions: Vec<Staged<DimensionStage>>,
    facts: Vec<Staged<FactStage>>,
    queries: Vec<Staged<QueryStage>>,
    system: Staged<SystemStage>,
    mut advisor: Staged<AdvisorStage>,
) -> Result<ParsedConfig, ConfigFileError> {
    let mut schema = StarSchema::builder();
    let mut skews = Vec::with_capacity(dimensions.len());
    for d in &dimensions {
        let (s, line) = (&d.value, d.line_of(&["levels"]));
        let levels = s.levels.iter();
        let dim = levels.fold(Dimension::builder(&d.name), |b, (l, n)| b.level(l, *n));
        schema = schema.dimension(dim.build().map_err(at_line(line))?);
        skews.push(match (s.skew, s.skew_shuffle) {
            (None, Some(_)) => {
                let message = format!("dimension `{}` sets skew_shuffle without skew", d.name);
                return fail(d.line_of(&["skew_shuffle"]), message);
            }
            (theta, shuffle_seed) => DimensionSkew {
                theta: theta.unwrap_or(0.0),
                shuffle_seed,
            },
        });
    }
    for f in &facts {
        let s = &f.value;
        let measures = s.measures.iter();
        let fact = measures.fold(FactTable::builder(&f.name), |b, (m, n)| b.measure(m, *n));
        let line = f.line_of(&["rows", "density"]);
        schema = schema.fact(match (s.rows, s.density) {
            (Some(rows), None) => fact.rows(rows).build(),
            (None, Some(density)) => fact.density(density).build(),
            (Some(_), Some(_)) => return fail(line, "specify either rows or density, not both"),
            (None, None) => return fail(line, format!("fact `{}` needs rows or density", f.name)),
        });
    }
    let schema = schema.build().map_err(|e| {
        let line = match &e {
            // The second section of that name.
            SchemaError::DuplicateName { name } => dimensions
                .iter()
                .map(|d| (&d.name, d.line))
                .chain(facts.iter().map(|f| (&f.name, f.line)))
                .filter(|(n, _)| *n == name)
                .nth(1)
                .map_or(0, |(_, line)| line),
            SchemaError::EmptyFactTable { fact } => facts
                .iter()
                .find(|f| &f.name == fact)
                .map_or(0, |f| f.line_of(&["rows", "density"])),
            _ => 0,
        };
        ConfigFileError::at(line, e.to_string())
    })?;

    let mut mix = QueryMix::builder();
    for q in &queries {
        let line = q.line_of(&["predicates"]);
        let mut class = QueryClass::new(&q.name);
        for (dim, level, values) in &q.value.predicates {
            let Some(r) = schema.level_ref(dim, level) else {
                let name = &q.name;
                let message = format!("query `{name}` references unknown attribute {dim}.{level}");
                return fail(line, message);
            };
            class = class.with(r.dimension.0, DimensionPredicate::range(r.level.0, *values));
        }
        // A class of weight 0 leaves the mix unchecked.
        let weight = q.value.weight.unwrap_or(1.0);
        if weight > 0.0 {
            class.validate(&schema).map_err(at_line(line))?;
        }
        mix = mix.class(class, weight);
    }
    // Weights are non-negative by their key domain, so the mix can only
    // fail here by weighing nothing: blame the last weight set.
    let weights = queries.iter().map(|q| q.line_of(&["weight"]));
    let mix = mix.build().map_err(at_line(weights.max().unwrap_or(0)))?;

    // With every key in its domain, validation can only fail on the
    // architecture's processor count here and drift exit <= enter below.
    let (s, mut system_config) = (&system.value, system.value.config);
    let processors = s.processors;
    system_config.architecture = if s.shared_disk {
        Architecture::shared_disk(s.nodes, processors)
    } else {
        Architecture::SharedEverything { processors }
    };
    let line = system.line_of(&["architecture", "nodes", "processors"]);
    system_config.validate().map_err(at_line(line))?;

    let mut config = std::mem::take(&mut advisor.value.config);
    if let Some(seed) = advisor.value.graph_seed {
        let AllocationPolicy::GraphPartition { seed: slot } = &mut config.allocation_policy else {
            let line = advisor.line_of(&["graph_seed"]);
            return fail(line, "graph_seed requires allocation_policy = graph");
        };
        *slot = seed;
    }
    config.skew = skews.iter().any(|s| !s.is_uniform()).then_some(skews);
    let line = advisor.line_of(&["drift_enter", "drift_exit"]);
    config.validate().map_err(at_line(line))?;
    Ok(ParsedConfig {
        schema,
        mix,
        system: system_config,
        advisor: config,
    })
}

/// Renders a configuration back into the text format, such that
/// `parse_config(render_config(..))` reproduces the inputs. Used by the
/// CLI's `init` command to emit starter files.
pub fn render_config(parsed: &ParsedConfig) -> String {
    let mut out = String::new();
    for (i, d) in parsed.schema.dimensions().iter().enumerate() {
        Staged::<DimensionStage>::render(&mut out, d.name(), parsed, i);
    }
    for (i, f) in parsed.schema.facts().iter().enumerate() {
        Staged::<FactStage>::render(&mut out, f.name(), parsed, i);
    }
    for (i, w) in parsed.mix.classes().iter().enumerate() {
        Staged::<QueryStage>::render(&mut out, w.class.name(), parsed, i);
    }
    Staged::<SystemStage>::render(&mut out, "", parsed, 0);
    Staged::<AdvisorStage>::render(&mut out, "", parsed, 0);
    out
}

/// Reads and parses a configuration file on disk.
///
/// Every failure — unreadable file or parse error — is wrapped in
/// [`WarlockError::AtPath`](crate::WarlockError::AtPath) so the message
/// names the offending file. This is the shared read path of
/// [`Warlock::from_config_path`](crate::Warlock::from_config_path) and
/// the registry's hot-reload.
pub fn parse_config_path(
    path: impl AsRef<std::path::Path>,
) -> Result<ParsedConfig, crate::WarlockError> {
    let path = path.as_ref();
    let wrap = |e: crate::WarlockError| e.at_path(path.display().to_string());
    let input =
        std::fs::read_to_string(path).map_err(|e| wrap(crate::WarlockError::Io(e.to_string())))?;
    parse_config(&input).map_err(|e| wrap(e.into()))
}

/// Builds the APB-1-like demonstration configuration as a [`ParsedConfig`]
/// — the CLI's `init` template.
pub fn demo_config() -> ParsedConfig {
    let schema = warlock_schema::apb1_like_schema(warlock_schema::Apb1Config::default())
        .expect("preset schema builds");
    let mix = warlock_workload::apb1_like_mix().expect("preset mix builds");
    let system = SystemConfig::default_2001(16);
    ParsedConfig {
        schema,
        mix,
        system,
        advisor: AdvisorConfig::default(),
    }
}
#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use proptest::prelude::*;

    use super::*;

    const SAMPLE: &str = r"
# demo warehouse
[dimension product]
levels = division:5, line:15, code:9000
skew = 0.5

[dimension time]
levels = year:2, month:24

[fact sales]
measures = units:8, dollars:8
density = 0.01

[query monthly]
weight = 3
predicates = product.line:1, time.month:1

[query yearly]
weight = 1
predicates = time.year:1

[system]
disks = 8
processors = 8

[advisor]
top_n = 5
";

    #[test]
    fn parses_complete_config() {
        let parsed = parse_config(SAMPLE).unwrap();
        assert_eq!(parsed.schema.num_dimensions(), 2);
        assert_eq!(parsed.schema.fact().name(), "sales");
        assert_eq!(parsed.mix.len(), 2);
        assert_eq!(parsed.system.num_disks, 8);
        assert_eq!(parsed.advisor.top_n, 5);
        // Skew propagated to the advisor config.
        let skews = parsed.advisor.skew.as_ref().unwrap();
        assert!((skews[0].theta - 0.5).abs() < 1e-12);
        assert!(skews[1].is_uniform());
        // Weights normalized.
        let shares: Vec<f64> = parsed.mix.iter().map(|(_, s)| s).collect();
        assert!((shares[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn parsed_config_drives_the_advisor() {
        let parsed = parse_config(SAMPLE).unwrap();
        let report = crate::Warlock::builder()
            .schema(parsed.schema)
            .system(parsed.system)
            .mix(parsed.mix)
            .config(parsed.advisor)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(!report.ranked.is_empty());
        assert!(report.ranked.len() <= 5);
    }

    #[test]
    fn streaming_keys_parse_and_round_trip() {
        let with = SAMPLE.replace(
            "top_n = 5",
            "top_n = 5\nmax_candidates = 5000\nchunk_size = 64\nrange_options = 2, 3, 5",
        );
        let parsed = parse_config(&with).unwrap();
        assert_eq!(parsed.advisor.max_candidates, 5000);
        assert_eq!(parsed.advisor.chunk_size, 64);
        assert_eq!(parsed.advisor.range_options, vec![2, 3, 5]);
        let reparsed = parse_config(&render_config(&parsed)).unwrap();
        assert_eq!(reparsed.advisor.max_candidates, 5000);
        assert_eq!(reparsed.advisor.chunk_size, 64);
        assert_eq!(reparsed.advisor.range_options, vec![2, 3, 5]);

        let auto = SAMPLE.replace(
            "top_n = 5",
            "top_n = 5\nmax_candidates = unlimited\nchunk_size = auto",
        );
        let parsed = parse_config(&auto).unwrap();
        assert_eq!(parsed.advisor.max_candidates, 0);
        assert_eq!(parsed.advisor.chunk_size, 0);
        assert!(parsed.advisor.range_options.is_empty());
        let rendered = render_config(&parsed);
        assert!(rendered.contains("max_candidates = unlimited"));
        assert!(rendered.contains("chunk_size = auto"));
        assert!(!rendered.contains("range_options"));

        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\nchunk_size = tiny");
        assert!(parse_config(&bad).is_err());
        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\nrange_options = 2, x");
        assert!(parse_config(&bad).is_err());
    }

    #[test]
    fn kernel_key_parses_and_round_trips() {
        // The legacy key still parses, has no effect and is never
        // rendered: every former spelling advises exactly like none.
        let plain = crate::Warlock::from_config_str(SAMPLE).unwrap();
        let baseline = plain.rank().unwrap();
        assert!(!render_config(&parse_config(SAMPLE).unwrap()).contains("kernel"));
        for spelled in ["auto", "scalar", "lanes", "avx2"] {
            let with = SAMPLE.replace("top_n = 5", &format!("top_n = 5\nkernel = {spelled}"));
            let parsed = parse_config(&with).unwrap();
            assert!(!render_config(&parsed).contains("kernel"));
            let session = crate::Warlock::from_config_str(&with).unwrap();
            assert_eq!(session.rank().unwrap(), baseline, "kernel = {spelled}");
        }
        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\nkernel = sse9");
        let err = parse_config(&bad).unwrap_err().to_string();
        assert!(err.contains("sse9"), "unhelpful error: {err}");
        let line = bad.lines().position(|l| l.contains("sse9")).unwrap() + 1;
        assert!(
            err.contains(&format!("line {line}")),
            "no line number: {err}"
        );
    }

    #[test]
    fn drift_keys_parse_and_round_trip() {
        // Defaults (absent keys) stay implicit on render so pre-knob
        // configs — and fingerprints hashed over them — stay identical.
        let parsed = parse_config(SAMPLE).unwrap();
        assert!(!parsed.advisor.auto_advise);
        let rendered = render_config(&parsed);
        for key in [
            "auto_advise",
            "drift_enter",
            "drift_exit",
            "stats_half_life",
        ] {
            assert!(!rendered.contains(key), "default {key} leaked into render");
        }

        let with = SAMPLE.replace(
            "top_n = 5",
            "top_n = 5\nauto_advise = on\ndrift_enter = 0.3\ndrift_exit = 0.05\n\
             stats_half_life = 500",
        );
        let parsed = parse_config(&with).unwrap();
        assert!(parsed.advisor.auto_advise);
        assert_eq!(parsed.advisor.drift_enter, 0.3);
        assert_eq!(parsed.advisor.drift_exit, 0.05);
        assert_eq!(parsed.advisor.stats_half_life, 500.0);
        let reparsed = parse_config(&render_config(&parsed)).unwrap();
        assert_eq!(reparsed.advisor, parsed.advisor);

        let off = SAMPLE.replace("top_n = 5", "top_n = 5\nauto_advise = off");
        assert!(!parse_config(&off).unwrap().advisor.auto_advise);

        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\nauto_advise = maybe");
        let err = parse_config(&bad).unwrap_err().to_string();
        assert!(err.contains("maybe"), "unhelpful error: {err}");
        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\ndrift_enter = 0.05");
        let err = parse_config(&bad).unwrap_err().to_string();
        assert!(
            err.contains("drift"),
            "inverted thresholds not caught: {err}"
        );
    }

    #[test]
    fn parallelism_key_parses_and_round_trips() {
        let with = SAMPLE.replace("top_n = 5", "top_n = 5\nparallelism = 3");
        let parsed = parse_config(&with).unwrap();
        assert_eq!(parsed.advisor.parallelism, 3);
        let reparsed = parse_config(&render_config(&parsed)).unwrap();
        assert_eq!(reparsed.advisor.parallelism, 3);

        let auto = SAMPLE.replace("top_n = 5", "top_n = 5\nparallelism = auto");
        let parsed = parse_config(&auto).unwrap();
        assert_eq!(parsed.advisor.parallelism, 0);
        assert!(render_config(&parsed).contains("parallelism = auto"));

        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\nparallelism = lots");
        assert!(parse_config(&bad)
            .unwrap_err()
            .message
            .contains("parallelism"));
    }

    #[test]
    fn skew_shuffle_parses_and_round_trips() {
        let with = SAMPLE.replace("skew = 0.5", "skew = 1.8\nskew_shuffle = 42");
        let parsed = parse_config(&with).unwrap();
        let skews = parsed.advisor.skew.as_ref().unwrap();
        assert_eq!(skews[0], DimensionSkew::hot_spot(1.8, 42));
        assert!(skews[1].is_uniform());
        let rendered = render_config(&parsed);
        assert!(rendered.contains("skew_shuffle = 42"));
        let reparsed = parse_config(&rendered).unwrap();
        assert_eq!(reparsed.advisor.skew, parsed.advisor.skew);

        // A shuffle without skew is a loud, typed error naming the
        // dimension, not a silently ignored key.
        let bad = SAMPLE.replace("skew = 0.5", "skew_shuffle = 42");
        let err = parse_config(&bad).unwrap_err();
        assert!(err.message.contains("skew_shuffle without skew"));
        assert!(err.message.contains("product"));

        let bad = SAMPLE.replace("skew = 0.5", "skew = 0.5\nskew_shuffle = soon");
        assert!(parse_config(&bad)
            .unwrap_err()
            .message
            .contains("skew_shuffle"));
    }

    #[test]
    fn allocation_policy_parses_and_round_trips() {
        use warlock_alloc::AllocationPolicy;
        for (text, policy) in [
            ("auto", AllocationPolicy::default()),
            ("auto:0.25", AllocationPolicy::Auto { cv_threshold: 0.25 }),
            ("greedy", AllocationPolicy::GreedySize),
            ("round_robin", AllocationPolicy::RoundRobin),
        ] {
            let with = SAMPLE.replace(
                "top_n = 5",
                &format!("top_n = 5\nallocation_policy = {text}"),
            );
            let parsed = parse_config(&with).unwrap();
            assert_eq!(parsed.advisor.allocation_policy, policy, "{text}");
            let reparsed = parse_config(&render_config(&parsed)).unwrap();
            assert_eq!(reparsed.advisor.allocation_policy, policy, "{text}");
        }

        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\nallocation_policy = stripe");
        let err = parse_config(&bad).unwrap_err();
        assert!(err.message.contains("allocation_policy"));
        assert!(err.message.contains("stripe"));
        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\nallocation_policy = auto:-1");
        assert!(parse_config(&bad).is_err());
        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\nallocation_policy = auto:wide");
        assert!(parse_config(&bad).is_err());
    }

    #[test]
    fn graph_policy_parses_and_round_trips() {
        use warlock_alloc::AllocationPolicy;
        // Bare `graph` defaults to seed 0 and renders without a
        // graph_seed line.
        let with = SAMPLE.replace("top_n = 5", "top_n = 5\nallocation_policy = graph");
        let parsed = parse_config(&with).unwrap();
        assert_eq!(
            parsed.advisor.allocation_policy,
            AllocationPolicy::GraphPartition { seed: 0 }
        );
        let rendered = render_config(&parsed);
        assert!(rendered.contains("allocation_policy = graph"));
        assert!(!rendered.contains("graph_seed"));
        let reparsed = parse_config(&rendered).unwrap();
        assert_eq!(
            reparsed.advisor.allocation_policy,
            parsed.advisor.allocation_policy
        );

        // Explicit seed round-trips, on either side of the policy key.
        for lines in [
            "allocation_policy = graph\ngraph_seed = 41",
            "graph_seed = 41\nallocation_policy = graph",
        ] {
            let with = SAMPLE.replace("top_n = 5", &format!("top_n = 5\n{lines}"));
            let parsed = parse_config(&with).unwrap();
            assert_eq!(
                parsed.advisor.allocation_policy,
                AllocationPolicy::GraphPartition { seed: 41 }
            );
            let rendered = render_config(&parsed);
            assert!(rendered.contains("graph_seed = 41"));
            let reparsed = parse_config(&rendered).unwrap();
            assert_eq!(
                reparsed.advisor.allocation_policy,
                AllocationPolicy::GraphPartition { seed: 41 }
            );
        }

        // graph_seed without the graph policy is a loud error with the
        // offending line number.
        let bad = SAMPLE.replace("top_n = 5", "top_n = 5\ngraph_seed = 7");
        let err = parse_config(&bad).unwrap_err();
        assert!(err.message.contains("graph_seed requires"));
        let bad = SAMPLE.replace(
            "top_n = 5",
            "top_n = 5\nallocation_policy = greedy\ngraph_seed = 7",
        );
        assert!(parse_config(&bad).is_err());
        // Malformed seeds are rejected too.
        let bad = SAMPLE.replace(
            "top_n = 5",
            "top_n = 5\nallocation_policy = graph\ngraph_seed = deterministic",
        );
        assert!(parse_config(&bad).is_err());
    }

    #[test]
    fn rejects_unknown_keys_with_line_numbers() {
        let bad = "[system]\ndisks = 4\nwarp_factor = 9\n";
        let err = parse_config(bad).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("warp_factor"));
    }

    #[test]
    fn rejects_unknown_sections_and_attributes() {
        let err = parse_config("[starship enterprise]\n").unwrap_err();
        assert!(err.message.contains("starship"));

        let bad = SAMPLE.replace("time.month:1", "time.day:1");
        let err = parse_config(&bad).unwrap_err();
        assert!(err.message.contains("time.day"));
    }

    #[test]
    fn rejects_structural_mistakes() {
        assert!(parse_config("").unwrap_err().message.contains("dimension"));
        let no_fact = "[dimension d]\nlevels = a:4\n[query q]\npredicates = d.a:1\n";
        assert!(parse_config(no_fact).unwrap_err().message.contains("fact"));
        let both = SAMPLE.replace("density = 0.01", "density = 0.01\nrows = 5");
        assert!(parse_config(&both)
            .unwrap_err()
            .message
            .contains("not both"));
    }

    #[test]
    fn rejects_bad_values() {
        let bad = SAMPLE.replace("disks = 8", "disks = lots");
        let err = parse_config(&bad).unwrap_err();
        assert!(err.message.contains("invalid disks"));

        let bad = SAMPLE.replace("levels = year:2, month:24", "levels = year:2, month:25");
        assert!(parse_config(&bad).is_err()); // ragged fan-out

        let bad = SAMPLE.replace("density = 0.01", "density = 7.0");
        assert!(parse_config(&bad).unwrap_err().message.contains("density"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let with_noise = format!("# leading comment\n\n{SAMPLE}\n# trailing");
        assert!(parse_config(&with_noise).is_ok());
    }

    #[test]
    fn shared_disk_architecture() {
        let sd = SAMPLE.replace(
            "[system]\ndisks = 8\nprocessors = 8",
            "[system]\ndisks = 8\narchitecture = shared_disk\nnodes = 2\nprocessors = 4",
        );
        let parsed = parse_config(&sd).unwrap();
        assert_eq!(parsed.system.architecture.total_processors(), 8);
        assert!(parsed.system.architecture.overhead_factor() > 1.0);
    }

    #[test]
    fn an_overflowing_shared_disk_processor_count_is_a_typed_error() {
        let sd = SAMPLE.replace(
            "[system]\ndisks = 8\nprocessors = 8",
            "[system]\ndisks = 8\narchitecture = shared_disk\nnodes = 65536\nprocessors = 65537",
        );
        let e = parse_config(&sd).unwrap_err();
        assert!(e.message.contains("overflows the processor count"), "{e}");
        // A session built from such a system is refused as a system
        // error before any run.
        let mut parsed = parse_config(SAMPLE).unwrap();
        parsed.system.architecture = Architecture::shared_disk(65_536, 65_537);
        let e = crate::Warlock::builder()
            .schema(parsed.schema)
            .system(parsed.system)
            .mix(parsed.mix)
            .build()
            .unwrap_err();
        assert!(matches!(e, crate::WarlockError::System(_)), "{e}");
    }

    #[test]
    fn fixed_prefetch() {
        let fixed = SAMPLE.replace("processors = 8", "processors = 8\nprefetch = 32");
        let parsed = parse_config(&fixed).unwrap();
        assert_eq!(parsed.system.fact_prefetch, PrefetchPolicy::Fixed(32));
    }

    #[test]
    fn parse_config_path_names_the_file() {
        let e = parse_config_path("/definitely/not/a/file.cfg").unwrap_err();
        assert_eq!(e.kind(), "io");
        assert!(e.to_string().contains("/definitely/not/a/file.cfg"));

        let path = std::env::temp_dir().join(format!("warlock-cfgpath-{}.cfg", std::process::id()));
        std::fs::write(&path, SAMPLE).unwrap();
        let parsed = parse_config_path(&path).unwrap();
        assert_eq!(parsed.system.num_disks, 8);
        std::fs::write(&path, "[dimension broken\n").unwrap();
        let e = parse_config_path(&path).unwrap_err();
        assert_eq!(e.kind(), "config_file");
        assert!(e.to_string().contains(&path.display().to_string()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn error_display() {
        let e = ConfigFileError::at(7, "boom");
        assert_eq!(e.to_string(), "config line 7: boom");
        let e = ConfigFileError::at(0, "boom");
        assert_eq!(e.to_string(), "config: boom");
    }

    #[test]
    fn render_round_trips() {
        let original = parse_config(SAMPLE).unwrap();
        let rendered = render_config(&original);
        let reparsed = parse_config(&rendered)
            .unwrap_or_else(|e| panic!("rendered config does not parse: {e}\n{rendered}"));
        assert_eq!(reparsed.schema, original.schema);
        assert_eq!(reparsed.system, original.system);
        assert_eq!(reparsed.mix.len(), original.mix.len());
        for (a, b) in reparsed.mix.classes().iter().zip(original.mix.classes()) {
            assert_eq!(a.class, b.class);
            assert!((a.share - b.share).abs() < 1e-9);
        }
        assert_eq!(
            reparsed.advisor.thresholds.max_fragments,
            original.advisor.thresholds.max_fragments
        );
        assert_eq!(reparsed.advisor.skew, original.advisor.skew);
    }

    #[test]
    fn demo_config_round_trips_and_advises() {
        let demo = demo_config();
        let rendered = render_config(&demo);
        let reparsed = parse_config(&rendered).unwrap();
        assert_eq!(reparsed.schema, demo.schema);
        assert_eq!(reparsed.mix.len(), 10);
        let session = crate::Warlock::builder()
            .schema(reparsed.schema)
            .system(reparsed.system)
            .mix(reparsed.mix)
            .config(reparsed.advisor)
            .build()
            .unwrap();
        assert!(!session.run().unwrap().ranked.is_empty());
    }

    #[test]
    fn render_shared_disk_and_fixed_prefetch() {
        let mut demo = demo_config();
        demo.system.architecture = Architecture::shared_disk(4, 4);
        demo.system.fact_prefetch = PrefetchPolicy::Fixed(64);
        demo.system.bitmap_prefetch = PrefetchPolicy::Fixed(64);
        let reparsed = parse_config(&render_config(&demo)).unwrap();
        assert_eq!(reparsed.system.architecture.total_processors(), 16);
        assert_eq!(reparsed.system.fact_prefetch, PrefetchPolicy::Fixed(64));
    }

    /// `render_config(demo_config())`, byte for byte: `warlock init`,
    /// generated warehouses and scripts that edit the starter file (such
    /// as `sed 's/disks = 16/…/'`) read this text.
    const DEMO_RENDERED: &str = r"[dimension product]
levels = division:5, line:15, family:75, group:300, class:900, code:9000

[dimension customer]
levels = retailer:90, store:900

[dimension time]
levels = year:2, quarter:8, month:24

[dimension channel]
levels = base:9

[fact sales]
measures = unit_sales:8, dollar_sales:8, cost:8, inventory:8
density = 0.01

[query q01_month_store_code]
weight = 0.05
predicates = product.code:1, customer.store:1, time.month:1

[query q02_month_class]
weight = 0.15
predicates = product.class:1, time.month:1

[query q03_quarter_group]
weight = 0.15
predicates = product.group:1, time.quarter:1

[query q04_year_line]
weight = 0.1
predicates = product.line:1, time.year:1

[query q05_month_retailer]
weight = 0.1
predicates = customer.retailer:1, time.month:1

[query q06_channel_month]
weight = 0.1
predicates = time.month:1, channel.base:1

[query q07_store_class]
weight = 0.1
predicates = product.class:1, customer.store:1

[query q08_quarter_family_retailer]
weight = 0.1
predicates = product.family:1, customer.retailer:1, time.quarter:1

[query q09_month_division_channel]
weight = 0.1
predicates = product.division:1, time.month:1, channel.base:1

[query q10_year_full_slice]
weight = 0.05
predicates = product.division:1, customer.retailer:1, time.year:1, channel.base:1

[system]
disks = 16
page_bytes = 8192
seek_ms = 5
rotational_ms = 3
transfer_mb_s = 20
capacity_gb = 18
architecture = shared_everything
processors = 16
prefetch = auto

[advisor]
max_dimensionality = 4
top_x_percent = 10
top_n = 10
min_keep = 10
max_fragments = 1048576
allocation_policy = auto
parallelism = auto
max_candidates = unlimited
chunk_size = auto
";

    #[test]
    fn the_demo_render_is_pinned() {
        assert_eq!(render_config(&demo_config()), DEMO_RENDERED);
        let mut variant = demo_config();
        variant.system.architecture = Architecture::shared_disk(4, 4);
        variant.system.fact_prefetch = PrefetchPolicy::Fixed(64);
        variant.system.bitmap_prefetch = PrefetchPolicy::Fixed(64);
        variant.advisor.allocation_policy = AllocationPolicy::GraphPartition { seed: 7 };
        let expected = DEMO_RENDERED
            .replace(
                "architecture = shared_everything\nprocessors = 16\nprefetch = auto\n",
                "architecture = shared_disk\nnodes = 4\nprocessors = 4\nprefetch = 64\n",
            )
            .replace(
                "allocation_policy = auto\n",
                "allocation_policy = graph\ngraph_seed = 7\n",
            );
        assert_eq!(render_config(&variant), expected);
    }

    /// `text` with the line starting `prefix` replaced by `line`, and the
    /// (1-based) number of that line.
    fn with_line(text: &str, prefix: &str, line: &str) -> (String, usize) {
        let at = text.lines().position(|l| l.starts_with(prefix)).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[at] = line;
        (lines.join("\n"), at + 1)
    }

    #[test]
    fn out_of_domain_values_are_typed_errors_at_their_line() {
        let demo = render_config(&demo_config());
        let cases: [(&str, &[&str]); 8] = [
            (
                "capacity_gb",
                &["nan", "inf", "-inf", "-1", "0", "1e308", "1e-308"],
            ),
            (
                "disks",
                &["0", "65537", "4294967295", "18446744073709551615"],
            ),
            (
                "parallelism",
                &["257", "4294967295", "18446744073709551615"],
            ),
            ("page_bytes", &["0", "100", "12288"]),
            ("prefetch", &["0", "x"]),
            ("top_n", &["0"]),
            ("architecture", &["numa"]),
            ("seek_ms", &["nan", "-1"]),
        ];
        for (key, values) in cases {
            for value in values {
                let (text, line) =
                    with_line(&demo, &format!("{key} = "), &format!("{key} = {value}"));
                let e = parse_config(&text).unwrap_err();
                assert_eq!(e.line, line, "{key} = {value}: {e}");
                assert!(e.message.contains(key), "{e}");
                assert!(
                    e.to_string().starts_with(&format!("config line {line}: ")),
                    "{e}"
                );
            }
        }
        // The bounds themselves are in the domain: the most disks and
        // workers, and capacities of one byte and of just below 2^64 bytes.
        for (key, value) in [
            ("disks", "65536"),
            ("parallelism", "256"),
            ("capacity_gb", "9.313225746154785e-10"),
            ("capacity_gb", "17179869183.999998"),
        ] {
            let (text, _) = with_line(&demo, &format!("{key} = "), &format!("{key} = {value}"));
            let parsed = parse_config(&text).unwrap_or_else(|e| panic!("{key} = {value}: {e}"));
            assert!(parsed.system.validate().is_ok() && parsed.advisor.validate().is_ok());
        }
        let (one_byte, _) = with_line(&demo, "capacity_gb", "capacity_gb = 9.313225746154785e-10");
        assert_eq!(
            parse_config(&one_byte).unwrap().system.disk.capacity_bytes,
            1
        );
        let (top, _) = with_line(&demo, "capacity_gb", "capacity_gb = 17179869183.999998");
        let bytes = parse_config(&top).unwrap().system.disk.capacity_bytes;
        assert!(bytes > u64::MAX - (1 << 20), "{bytes}");
    }

    #[test]
    fn cross_key_errors_carry_the_line_of_the_last_key_involved() {
        let sample = SAMPLE.replace("top_n = 5", "top_n = 5\ndrift_enter = 0.05");
        let line = sample
            .lines()
            .position(|l| l == "drift_enter = 0.05")
            .unwrap()
            + 1;
        let e = parse_config(&sample).unwrap_err();
        assert_eq!((e.line, e.message.contains("drift")), (line, true), "{e}");

        let sample = SAMPLE.replace("density = 0.01", "density = 0.01\nrows = 5");
        let line = sample.lines().position(|l| l == "rows = 5").unwrap() + 1;
        assert_eq!(parse_config(&sample).unwrap_err().line, line);

        let sample = SAMPLE.replace("skew = 0.5", "skew_shuffle = 42");
        let line = sample
            .lines()
            .position(|l| l == "skew_shuffle = 42")
            .unwrap()
            + 1;
        assert_eq!(parse_config(&sample).unwrap_err().line, line);

        let sample = SAMPLE.replace(
            "processors = 8",
            "architecture = shared_disk\nprocessors = 65537\nnodes = 65536",
        );
        let line = sample.lines().position(|l| l == "nodes = 65536").unwrap() + 1;
        let e = parse_config(&sample).unwrap_err();
        assert_eq!(e.line, line, "{e}");
        assert!(e.message.contains("overflows the processor count"), "{e}");

        // Errors of the whole schema or mix name the key or section
        // that caused them.
        let sample = SAMPLE.replace("density = 0.01", "density = 0.000001");
        let line = sample.lines().position(|l| l == "density = 0.000001");
        let e = parse_config(&sample).unwrap_err();
        assert_eq!(Some(e.line), line.map(|l| l + 1), "{e}");
        assert_eq!(e.message, "fact table `sales` has zero rows");

        let sample = SAMPLE.replace("[dimension time]", "[dimension product]");
        let line = sample
            .lines()
            .enumerate()
            .filter(|(_, l)| *l == "[dimension product]")
            .last()
            .map(|(i, _)| i);
        let e = parse_config(&sample).unwrap_err();
        assert_eq!(Some(e.line), line.map(|l| l + 1), "{e}");
        assert_eq!(e.message, "duplicate name `product`");

        let sample = SAMPLE.replace("weight = 3", "weight = 0");
        let sample = sample.replace("weight = 1", "weight = 0");
        let line = sample
            .lines()
            .enumerate()
            .filter(|(_, l)| *l == "weight = 0")
            .last()
            .map(|(i, _)| i);
        let e = parse_config(&sample).unwrap_err();
        assert_eq!(Some(e.line), line.map(|l| l + 1), "{e}");
        assert_eq!(e.message, "query mix is empty or has zero total weight");
    }

    /// A small deterministic generator for [`drawn_config`] (splitmix64).
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn unit(&mut self) -> f64 {
            self.below(1 << 53) as f64 / (1u64 << 53) as f64
        }

        /// One of `fixed`, or the drawn value `drawn`.
        fn pick(&mut self, fixed: &[&str], drawn: impl ToString) -> String {
            let i = self.below(fixed.len() as u64 + 1) as usize;
            fixed
                .get(i)
                .map_or_else(|| drawn.to_string(), |v| v.to_string())
        }

        /// Writes `key = <a pick>` three times in four, so defaults are
        /// drawn too.
        fn key(&mut self, out: &mut String, key: &str, fixed: &[&str], drawn: impl ToString) {
            let value = self.pick(fixed, drawn);
            if self.below(4) != 0 {
                let _ = writeln!(out, "{key} = {value}");
            }
        }
    }

    /// A configuration whose every key, when written, holds a value drawn
    /// from the key's domain, bounds included.
    fn drawn_config(seed: u64) -> String {
        let mut r = Draw(seed);
        let max = "18446744073709551615";
        let mut out = String::new();
        // (dimension, level, cardinality) of every level.
        let mut levels = Vec::new();
        for d in 0..1 + r.below(3) {
            let _ = writeln!(out, "[dimension d{d}]");
            let mut card = 1;
            let mut spelled = Vec::new();
            for l in 0..1 + r.below(3) {
                card *= 2 + r.below(4);
                spelled.push(format!("l{l}:{card}"));
                levels.push((d, l, card));
            }
            let _ = writeln!(out, "levels = {}", spelled.join(", "));
            let theta = r.unit() * 3.0;
            let theta = r.pick(&["0", "0.5", "1.8"], theta);
            if r.below(2) == 0 {
                let _ = writeln!(out, "skew = {theta}");
                if theta != "0" {
                    r.key(&mut out, "skew_shuffle", &["0", "42", max], r.0);
                }
            }
        }
        for f in 0..1 + r.below(2) {
            let _ = writeln!(out, "[fact f{f}]");
            let measures: Vec<String> = (0..r.below(3))
                .map(|m| format!("m{m}:{}", 1 + r.below(16)))
                .collect();
            if !measures.is_empty() {
                let _ = writeln!(out, "measures = {}", measures.join(", "));
            }
            // At least one row on the smallest schema (two cells).
            let density = 0.5 + r.unit() * 0.5;
            let density = r.pick(&["1", "0.5"], density);
            match r.below(2) {
                0 => writeln!(out, "density = {density}"),
                _ => writeln!(out, "rows = {}", 1 + r.below(10_000_000)),
            }
            .unwrap();
        }
        for q in 0..1 + r.below(3) {
            let _ = writeln!(out, "[query q{q}]");
            let weight = 1e-3 + r.unit() * 100.0;
            r.key(&mut out, "weight", &["1", "0.5", "15"], weight);
            let mut predicates = Vec::new();
            let dimensions = levels.iter().map(|l| l.0).max().unwrap_or(0);
            for d in 0..=dimensions {
                if predicates.is_empty() || r.below(2) == 0 {
                    let of_d: Vec<_> = levels.iter().filter(|l| l.0 == d).collect();
                    let &(_, l, card) = of_d[r.below(of_d.len() as u64) as usize];
                    predicates.push(format!("d{d}.l{l}:{}", 1 + r.below(card)));
                }
            }
            let _ = writeln!(out, "predicates = {}", predicates.join(", "));
        }

        let _ = writeln!(out, "[system]");
        let disks = 1 + r.below(65536);
        r.key(&mut out, "disks", &["1", "16", "65536"], disks);
        r.key(&mut out, "page_bytes", &["512", "8192"], "2147483648");
        let ms = r.unit() * 20.0;
        r.key(&mut out, "seek_ms", &["0", "5"], ms);
        let ms = r.unit() * 20.0;
        r.key(&mut out, "rotational_ms", &["0", "3"], ms);
        let rate = 1e-9 + r.unit() * 100.0;
        r.key(&mut out, "transfer_mb_s", &["20", "1e-3"], rate);
        let gb = 1.0 + r.unit() * 1000.0;
        let capacities = ["18", "9.313225746154785e-10", "17179869183.999998"];
        r.key(&mut out, "capacity_gb", &capacities, gb);
        r.key(
            &mut out,
            "architecture",
            &["shared_everything"],
            "shared_disk",
        );
        // Both below 2^16, so their product fits a u32.
        let (nodes, processors) = (r.below(65536), r.below(65536));
        r.key(&mut out, "nodes", &["1", "4"], nodes);
        r.key(&mut out, "processors", &["0", "16"], processors);
        let pages = 1 + r.below(1024);
        r.key(&mut out, "prefetch", &["auto", "1", "4294967295"], pages);

        let _ = writeln!(out, "[advisor]");
        r.key(&mut out, "max_dimensionality", &["0", "1", "4"], max);
        let percent = 100.0 - r.unit() * 99.9;
        r.key(&mut out, "top_x_percent", &["100", "0.5"], percent);
        r.key(&mut out, "top_n", &["1", "10"], max);
        r.key(&mut out, "min_keep", &["1", "10"], max);
        r.key(&mut out, "max_fragments", &["0", "1048576"], max);
        let policies = ["auto", "auto:0", "auto:0.1", "greedy", "round_robin"];
        let policy = r.pick(&policies, "graph");
        let _ = writeln!(out, "allocation_policy = {policy}");
        if policy == "graph" {
            r.key(&mut out, "graph_seed", &["0", "41"], max);
        }
        let workers = r.below(257);
        r.key(&mut out, "parallelism", &["auto", "0", "1", "256"], workers);
        r.key(&mut out, "max_candidates", &["unlimited", "0", "5000"], max);
        r.key(&mut out, "chunk_size", &["auto", "0", "1"], max);
        r.key(&mut out, "kernel", &["auto", "scalar", "lanes"], "avx2");
        let options = format!("3, {max}");
        r.key(
            &mut out,
            "range_options",
            &["2", "2, 3, 5", "7, 2"],
            options,
        );
        r.key(&mut out, "auto_advise", &["on"], "off");
        let enter = r.unit();
        let exit = r.unit() * enter;
        match r.below(4) {
            // Either threshold alone must keep its order with the other's
            // default (enter 0.25, exit 0.10).
            0 => writeln!(out, "drift_enter = {enter}\ndrift_exit = {exit}"),
            1 => writeln!(out, "drift_enter = {}", 0.1 + 0.9 * enter),
            2 => writeln!(out, "drift_exit = {}", 0.25 * exit),
            _ => Ok(()),
        }
        .unwrap();
        let half_life = 1e-9 + r.unit() * 1e6;
        r.key(
            &mut out,
            "stats_half_life",
            &["1000", "1e-300", "1e308"],
            half_life,
        );
        out
    }

    proptest! {
        #[test]
        fn every_key_round_trips_from_its_domain(seed in any::<u64>()) {
            let text = drawn_config(seed);
            let p = parse_config(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            // The table's domains lie inside what a session accepts.
            prop_assert!(p.system.validate().is_ok(), "{text}");
            prop_assert!(p.advisor.validate().is_ok(), "{text}");
            let rendered = render_config(&p);
            let q = parse_config(&rendered).unwrap_or_else(|e| panic!("{e}\n{rendered}"));
            prop_assert_eq!(&q.schema, &p.schema);
            prop_assert_eq!(&q.system, &p.system);
            prop_assert_eq!(&q.advisor, &p.advisor);
            prop_assert_eq!(q.mix.len(), p.mix.len());
            // Rendered shares are re-normalized on the way back in, which
            // may move them by an ulp or two.
            for (a, b) in q.mix.classes().iter().zip(p.mix.classes()) {
                prop_assert_eq!(&a.class, &b.class);
                prop_assert!((a.share - b.share).abs() <= 4.0 * f64::EPSILON * b.share);
            }
            // So every line but the weights renders to a fixpoint at once.
            // The weights need not settle: re-normalizing can cycle
            // between neighbouring floats, so they are only held close.
            let unweighted = |text: &str| -> Vec<String> {
                let lines = text.lines().filter(|l| !l.starts_with("weight = "));
                lines.map(str::to_owned).collect()
            };
            let again = render_config(&q);
            prop_assert_eq!(unweighted(&again), unweighted(&rendered));
        }
    }
}
