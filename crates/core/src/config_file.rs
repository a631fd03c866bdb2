//! Plain-text configuration files for the `warlock` command-line tool.
//!
//! The original tool's input layer is a GUI where "a star schema with its
//! attributes, hierarchy cardinalities, row sizes and fact table volumes
//! has to be defined" along with disk parameters and the weighted query
//! mix. This module provides the same input layer as a small INI-style
//! text format (no external parser dependencies):
//!
//! ```text
//! [dimension product]
//! levels = division:5, line:15, family:75, group:300, class:900, code:9000
//! skew = 0.5                      # optional zipf theta at the bottom level
//! skew_shuffle = 42               # optional: disperse heavy members
//!                                 # deterministically (hot-spot profiles)
//!
//! [dimension time]
//! levels = year:2, quarter:8, month:24
//!
//! [fact sales]
//! measures = unit_sales:8, dollar_sales:8
//! density = 0.01                  # or: rows = 17496000
//!
//! [query reports]
//! weight = 15
//! predicates = product.class:1, time.month:1    # dim.level : #values
//!
//! [system]
//! disks = 16
//! page_bytes = 8192
//! seek_ms = 5.0
//! rotational_ms = 3.0
//! transfer_mb_s = 20.0
//! capacity_gb = 18
//! architecture = shared_everything    # or: shared_disk
//! processors = 16                     # SE total / SD per node
//! nodes = 4                           # SD only
//! prefetch = auto                     # or a page count
//!
//! [advisor]
//! max_dimensionality = 4
//! top_x_percent = 10
//! top_n = 10
//! max_fragments = 1048576
//! allocation_policy = auto            # or auto:<cv> | greedy | round_robin | graph
//! graph_seed = 0                      # graph policy tie-break seed (optional)
//! parallelism = auto                  # evaluation workers; 1 = serial
//! max_candidates = unlimited          # or a candidate-space budget
//! chunk_size = auto                   # streaming evaluation chunk
//! kernel = auto                       # legacy, ignored: the CPU picks the backend
//! range_options = 2, 3, 5             # extra MDHF range sizes (optional)
//! auto_advise = off                   # resident optimizer: on | off
//! drift_enter = 0.25                  # drift score entering `Drifting`
//! drift_exit = 0.10                   # drift score returning to `Stable`
//! stats_half_life = 1000              # stats window half-life, in queries
//! ```
//!
//! Unknown keys are rejected (typos should fail loudly, not silently
//! change the advice).

use std::fmt;

use warlock_schema::{Dimension, FactTable, StarSchema};
use warlock_skew::DimensionSkew;
use warlock_storage::{Architecture, DiskParams, PageConfig, PrefetchPolicy, SystemConfig};
use warlock_workload::{DimensionPredicate, QueryClass, QueryMix};

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

#[derive(Debug, Default)]
struct DimensionSection {
    name: String,
    levels: Vec<(String, u64)>,
    skew: Option<f64>,
    skew_shuffle: Option<u64>,
    line: usize,
}

#[derive(Debug, Default)]
struct FactSection {
    name: String,
    measures: Vec<(String, u32)>,
    rows: Option<u64>,
    density: Option<f64>,
    line: usize,
}

#[derive(Debug, Default)]
struct QuerySection {
    name: String,
    weight: f64,
    /// `(dimension name, level name, values)`.
    predicates: Vec<(String, String, u64)>,
    line: usize,
}

#[derive(Debug)]
struct SystemSection {
    disks: u32,
    page_bytes: u32,
    seek_ms: f64,
    rotational_ms: f64,
    transfer_mb_s: f64,
    capacity_gb: f64,
    architecture: String,
    processors: u32,
    nodes: u32,
    prefetch: String,
}

impl Default for SystemSection {
    fn default() -> Self {
        let d = DiskParams::ca_2001();
        Self {
            disks: 16,
            page_bytes: 8192,
            seek_ms: d.avg_seek_ms,
            rotational_ms: d.avg_rotational_ms,
            transfer_mb_s: d.transfer_mb_per_s,
            capacity_gb: 18.0,
            architecture: "shared_everything".into(),
            processors: 16,
            nodes: 1,
            prefetch: "auto".into(),
        }
    }
}

/// Parses a configuration file's contents.
pub fn parse_config(input: &str) -> Result<ParsedConfig, ConfigFileError> {
    enum Section {
        None,
        Dimension(usize),
        Fact(usize),
        Query(usize),
        System,
        Advisor,
    }

    let mut dimensions: Vec<DimensionSection> = Vec::new();
    let mut facts: Vec<FactSection> = Vec::new();
    let mut queries: Vec<QuerySection> = Vec::new();
    let mut system = SystemSection::default();
    let mut advisor = AdvisorConfig::default();
    // `graph_seed` composes with `allocation_policy = graph` but may
    // appear on either side of it; applied after the scan.
    let mut graph_seed: Option<(u64, usize)> = None;
    let mut current = Section::None;

    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| ConfigFileError::at(lineno, "unterminated section header"))?
                .trim();
            let mut parts = header.splitn(2, char::is_whitespace);
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("").trim();
            current = match kind {
                "dimension" => {
                    if name.is_empty() {
                        return Err(ConfigFileError::at(lineno, "dimension needs a name"));
                    }
                    dimensions.push(DimensionSection {
                        name: name.to_owned(),
                        line: lineno,
                        ..Default::default()
                    });
                    Section::Dimension(dimensions.len() - 1)
                }
                "fact" => {
                    if name.is_empty() {
                        return Err(ConfigFileError::at(lineno, "fact needs a name"));
                    }
                    facts.push(FactSection {
                        name: name.to_owned(),
                        line: lineno,
                        ..Default::default()
                    });
                    Section::Fact(facts.len() - 1)
                }
                "query" => {
                    if name.is_empty() {
                        return Err(ConfigFileError::at(lineno, "query needs a name"));
                    }
                    queries.push(QuerySection {
                        name: name.to_owned(),
                        weight: 1.0,
                        line: lineno,
                        ..Default::default()
                    });
                    Section::Query(queries.len() - 1)
                }
                "system" => Section::System,
                "advisor" => Section::Advisor,
                other => {
                    return Err(ConfigFileError::at(
                        lineno,
                        format!("unknown section kind `{other}`"),
                    ))
                }
            };
            continue;
        }

        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| ConfigFileError::at(lineno, "expected `key = value`"))?;
        let key = key.trim();
        let value = value.trim();

        match current {
            Section::None => return Err(ConfigFileError::at(lineno, "key outside of any section")),
            Section::Dimension(i) => match key {
                "levels" => {
                    dimensions[i].levels =
                        parse_pairs(value, lineno, "level", |s| s.parse::<u64>().ok())?;
                }
                "skew" => {
                    dimensions[i].skew = Some(parse_num::<f64>(value, lineno, "skew theta")?);
                }
                "skew_shuffle" => {
                    dimensions[i].skew_shuffle =
                        Some(parse_num::<u64>(value, lineno, "skew_shuffle seed")?);
                }
                other => {
                    return Err(ConfigFileError::at(
                        lineno,
                        format!("unknown dimension key `{other}`"),
                    ))
                }
            },
            Section::Fact(i) => match key {
                "measures" => {
                    facts[i].measures =
                        parse_pairs(value, lineno, "measure", |s| s.parse::<u32>().ok())?;
                }
                "rows" => facts[i].rows = Some(parse_num::<u64>(value, lineno, "rows")?),
                "density" => facts[i].density = Some(parse_num::<f64>(value, lineno, "density")?),
                other => {
                    return Err(ConfigFileError::at(
                        lineno,
                        format!("unknown fact key `{other}`"),
                    ))
                }
            },
            Section::Query(i) => match key {
                "weight" => queries[i].weight = parse_num::<f64>(value, lineno, "weight")?,
                "predicates" => {
                    for item in value.split(',') {
                        let item = item.trim();
                        if item.is_empty() {
                            continue;
                        }
                        let (attr, count) = item.split_once(':').ok_or_else(|| {
                            ConfigFileError::at(
                                lineno,
                                format!("predicate `{item}` must be `dim.level:values`"),
                            )
                        })?;
                        let (dim, level) = attr.trim().split_once('.').ok_or_else(|| {
                            ConfigFileError::at(
                                lineno,
                                format!("predicate attribute `{attr}` must be `dim.level`"),
                            )
                        })?;
                        let values = parse_num::<u64>(count.trim(), lineno, "predicate values")?;
                        queries[i].predicates.push((
                            dim.trim().to_owned(),
                            level.trim().to_owned(),
                            values,
                        ));
                    }
                }
                other => {
                    return Err(ConfigFileError::at(
                        lineno,
                        format!("unknown query key `{other}`"),
                    ))
                }
            },
            Section::System => match key {
                "disks" => system.disks = parse_num(value, lineno, "disks")?,
                "page_bytes" => system.page_bytes = parse_num(value, lineno, "page_bytes")?,
                "seek_ms" => system.seek_ms = parse_num(value, lineno, "seek_ms")?,
                "rotational_ms" => {
                    system.rotational_ms = parse_num(value, lineno, "rotational_ms")?
                }
                "transfer_mb_s" => {
                    system.transfer_mb_s = parse_num(value, lineno, "transfer_mb_s")?
                }
                "capacity_gb" => system.capacity_gb = parse_num(value, lineno, "capacity_gb")?,
                "architecture" => system.architecture = value.to_owned(),
                "processors" => system.processors = parse_num(value, lineno, "processors")?,
                "nodes" => system.nodes = parse_num(value, lineno, "nodes")?,
                "prefetch" => system.prefetch = value.to_owned(),
                other => {
                    return Err(ConfigFileError::at(
                        lineno,
                        format!("unknown system key `{other}`"),
                    ))
                }
            },
            Section::Advisor => match key {
                "max_dimensionality" => {
                    advisor.max_dimensionality = parse_num(value, lineno, "max_dimensionality")?
                }
                "top_x_percent" => {
                    advisor.top_x_percent = parse_num(value, lineno, "top_x_percent")?
                }
                "top_n" => advisor.top_n = parse_num(value, lineno, "top_n")?,
                "min_keep" => advisor.min_keep = parse_num(value, lineno, "min_keep")?,
                "max_fragments" => {
                    advisor.thresholds.max_fragments = parse_num(value, lineno, "max_fragments")?
                }
                "parallelism" => {
                    advisor.parallelism = match value {
                        "auto" => 0,
                        n => parse_num(n, lineno, "parallelism")?,
                    }
                }
                "max_candidates" => {
                    advisor.max_candidates = match value {
                        "unlimited" => 0,
                        n => parse_num(n, lineno, "max_candidates")?,
                    }
                }
                "chunk_size" => {
                    advisor.chunk_size = match value {
                        "auto" => 0,
                        n => parse_num(n, lineno, "chunk_size")?,
                    }
                }
                "kernel" => {
                    advisor.kernel = value
                        .parse()
                        .map_err(|e: String| ConfigFileError::at(lineno, e))?;
                }
                "allocation_policy" => {
                    advisor.allocation_policy = parse_allocation_policy(value, lineno)?;
                }
                "graph_seed" => {
                    graph_seed = Some((parse_num(value, lineno, "graph_seed")?, lineno));
                }
                "range_options" => {
                    let mut options = Vec::new();
                    for item in value.split(',') {
                        let item = item.trim();
                        if item.is_empty() {
                            continue;
                        }
                        options.push(parse_num(item, lineno, "range_options")?);
                    }
                    advisor.range_options = options;
                }
                "auto_advise" => {
                    advisor.auto_advise = match value {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(ConfigFileError::at(
                                lineno,
                                format!("auto_advise must be `on` or `off`, got `{other}`"),
                            ))
                        }
                    }
                }
                "drift_enter" => advisor.drift_enter = parse_num(value, lineno, "drift_enter")?,
                "drift_exit" => advisor.drift_exit = parse_num(value, lineno, "drift_exit")?,
                "stats_half_life" => {
                    advisor.stats_half_life = parse_num(value, lineno, "stats_half_life")?
                }
                other => {
                    return Err(ConfigFileError::at(
                        lineno,
                        format!("unknown advisor key `{other}`"),
                    ))
                }
            },
        }
    }

    if let Some((seed, line)) = graph_seed {
        match advisor.allocation_policy {
            warlock_alloc::AllocationPolicy::GraphPartition { .. } => {
                advisor.allocation_policy =
                    warlock_alloc::AllocationPolicy::GraphPartition { seed };
            }
            _ => {
                return Err(ConfigFileError::at(
                    line,
                    "graph_seed requires allocation_policy = graph",
                ))
            }
        }
    }

    assemble(dimensions, facts, queries, system, advisor)
}

/// Parses the `allocation_policy` advisor key: `auto` (default 10 %
/// size-CV threshold), `auto:<cv>` (explicit threshold), `greedy`,
/// `round_robin`, or `graph` (co-access graph partitioning; pair with
/// the optional `graph_seed` key for tie-break seeding).
fn parse_allocation_policy(
    value: &str,
    line: usize,
) -> Result<warlock_alloc::AllocationPolicy, ConfigFileError> {
    use warlock_alloc::AllocationPolicy;
    match value {
        "auto" => Ok(AllocationPolicy::default()),
        "greedy" => Ok(AllocationPolicy::GreedySize),
        "round_robin" => Ok(AllocationPolicy::RoundRobin),
        "graph" => Ok(AllocationPolicy::GraphPartition { seed: 0 }),
        other => {
            if let Some(cv) = other.strip_prefix("auto:") {
                let cv_threshold = parse_num::<f64>(cv.trim(), line, "allocation_policy cv")?;
                if !(cv_threshold.is_finite() && cv_threshold >= 0.0) {
                    return Err(ConfigFileError::at(
                        line,
                        format!("allocation_policy cv must be finite and >= 0, got {cv_threshold}"),
                    ));
                }
                return Ok(AllocationPolicy::Auto { cv_threshold });
            }
            Err(ConfigFileError::at(
                line,
                format!(
                    "unknown allocation_policy `{other}` \
                     (auto | auto:<cv> | greedy | round_robin | graph)"
                ),
            ))
        }
    }
}

fn parse_num<T: std::str::FromStr>(
    value: &str,
    line: usize,
    what: &str,
) -> Result<T, ConfigFileError> {
    value
        .parse::<T>()
        .map_err(|_| ConfigFileError::at(line, format!("invalid {what}: `{value}`")))
}

fn parse_pairs<T>(
    value: &str,
    line: usize,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<(String, T)>, ConfigFileError> {
    let mut out = Vec::new();
    for item in value.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let (name, num) = item.split_once(':').ok_or_else(|| {
            ConfigFileError::at(line, format!("{what} `{item}` must be `name:number`"))
        })?;
        let parsed = parse(num.trim()).ok_or_else(|| {
            ConfigFileError::at(line, format!("invalid {what} number in `{item}`"))
        })?;
        out.push((name.trim().to_owned(), parsed));
    }
    Ok(out)
}

fn assemble(
    dimensions: Vec<DimensionSection>,
    facts: Vec<FactSection>,
    queries: Vec<QuerySection>,
    system: SystemSection,
    mut advisor: AdvisorConfig,
) -> Result<ParsedConfig, ConfigFileError> {
    if dimensions.is_empty() {
        return Err(ConfigFileError::at(0, "no [dimension …] section"));
    }
    if facts.is_empty() {
        return Err(ConfigFileError::at(0, "no [fact …] section"));
    }
    if queries.is_empty() {
        return Err(ConfigFileError::at(0, "no [query …] section"));
    }

    // Schema.
    let mut builder = StarSchema::builder();
    let mut skews = Vec::with_capacity(dimensions.len());
    for d in &dimensions {
        if d.levels.is_empty() {
            return Err(ConfigFileError::at(
                d.line,
                format!("dimension `{}` declares no levels", d.name),
            ));
        }
        let mut db = Dimension::builder(&d.name);
        for (name, card) in &d.levels {
            db = db.level(name, *card);
        }
        let dim = db
            .build()
            .map_err(|e| ConfigFileError::at(d.line, e.to_string()))?;
        builder = builder.dimension(dim);
        skews.push(match (d.skew, d.skew_shuffle) {
            (Some(theta), None) => DimensionSkew::zipf(theta),
            (Some(theta), Some(seed)) => DimensionSkew::hot_spot(theta, seed),
            (None, Some(_)) => {
                return Err(ConfigFileError::at(
                    d.line,
                    format!(
                        "dimension `{}` sets skew_shuffle without skew \
                         (shuffling a uniform distribution has no effect)",
                        d.name
                    ),
                ))
            }
            (None, None) => DimensionSkew::UNIFORM,
        });
    }
    for f in &facts {
        let mut fb = FactTable::builder(&f.name);
        for (name, bytes) in &f.measures {
            fb = fb.measure(name, *bytes);
        }
        match (f.rows, f.density) {
            (Some(rows), None) => fb = fb.rows(rows),
            (None, Some(density)) => {
                if !(density > 0.0 && density <= 1.0) {
                    return Err(ConfigFileError::at(
                        f.line,
                        format!("density must be in (0,1], got {density}"),
                    ));
                }
                fb = fb.density(density);
            }
            (Some(_), Some(_)) => {
                return Err(ConfigFileError::at(
                    f.line,
                    "specify either rows or density, not both",
                ))
            }
            (None, None) => {
                return Err(ConfigFileError::at(
                    f.line,
                    format!("fact `{}` needs rows or density", f.name),
                ))
            }
        }
        builder = builder.fact(fb.build());
    }
    let schema = builder
        .build()
        .map_err(|e| ConfigFileError::at(0, e.to_string()))?;

    // Queries.
    let mut mix_builder = QueryMix::builder();
    for q in &queries {
        let mut class = QueryClass::new(&q.name);
        for (dim_name, level_name, values) in &q.predicates {
            let r = schema.level_ref(dim_name, level_name).ok_or_else(|| {
                ConfigFileError::at(
                    q.line,
                    format!(
                        "query `{}` references unknown attribute {dim_name}.{level_name}",
                        q.name
                    ),
                )
            })?;
            class = class.with(r.dimension.0, DimensionPredicate::range(r.level.0, *values));
        }
        mix_builder = mix_builder.class(class, q.weight);
    }
    let mix = mix_builder
        .build()
        .map_err(|e| ConfigFileError::at(0, e.to_string()))?;
    mix.validate(&schema)
        .map_err(|e| ConfigFileError::at(0, e.to_string()))?;

    // System.
    let architecture = match system.architecture.as_str() {
        "shared_everything" => Architecture::SharedEverything {
            processors: system.processors,
        },
        "shared_disk" => Architecture::shared_disk(system.nodes, system.processors),
        other => {
            return Err(ConfigFileError::at(
                0,
                format!("unknown architecture `{other}` (shared_everything | shared_disk)"),
            ))
        }
    };
    let prefetch = match system.prefetch.as_str() {
        "auto" => PrefetchPolicy::Auto { max_pages: 256 },
        n => PrefetchPolicy::Fixed(
            n.parse::<u32>()
                .map_err(|_| ConfigFileError::at(0, format!("invalid prefetch `{n}`")))?,
        ),
    };
    if !(system.page_bytes.is_power_of_two() && system.page_bytes >= 512) {
        return Err(ConfigFileError::at(
            0,
            format!(
                "page_bytes must be a power of two >= 512, got {}",
                system.page_bytes
            ),
        ));
    }
    let system_config = SystemConfig {
        num_disks: system.disks,
        disk: DiskParams {
            avg_seek_ms: system.seek_ms,
            avg_rotational_ms: system.rotational_ms,
            transfer_mb_per_s: system.transfer_mb_s,
            capacity_bytes: (system.capacity_gb * (1u64 << 30) as f64) as u64,
        },
        page: PageConfig::new(system.page_bytes),
        fact_prefetch: prefetch,
        bitmap_prefetch: prefetch,
        architecture,
    };
    system_config
        .validate()
        .map_err(|e| ConfigFileError::at(0, e))?;

    if skews.iter().any(|s| !s.is_uniform()) {
        advisor.skew = Some(skews);
    }
    advisor.validate().map_err(|e| ConfigFileError::at(0, e))?;

    Ok(ParsedConfig {
        schema,
        mix,
        system: system_config,
        advisor,
    })
}

/// Renders a configuration back into the text format, such that
/// `parse_config(render_config(..))` reproduces the inputs. Used by the
/// CLI's `init` command to emit starter files.
pub fn render_config(parsed: &ParsedConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let skews = parsed
        .advisor
        .skew
        .clone()
        .unwrap_or_else(|| vec![DimensionSkew::UNIFORM; parsed.schema.num_dimensions()]);
    for (dim, skew) in parsed.schema.dimensions().iter().zip(&skews) {
        let _ = writeln!(out, "[dimension {}]", dim.name());
        let levels: Vec<String> = dim
            .levels()
            .iter()
            .map(|l| format!("{}:{}", l.name(), l.cardinality()))
            .collect();
        let _ = writeln!(out, "levels = {}", levels.join(", "));
        if !skew.is_uniform() {
            let _ = writeln!(out, "skew = {}", skew.theta);
            if let Some(seed) = skew.shuffle_seed {
                let _ = writeln!(out, "skew_shuffle = {seed}");
            }
        }
        let _ = writeln!(out);
    }
    for (i, fact) in parsed.schema.facts().iter().enumerate() {
        let _ = writeln!(out, "[fact {}]", fact.name());
        if !fact.measures().is_empty() {
            let measures: Vec<String> = fact
                .measures()
                .iter()
                .map(|m| format!("{}:{}", m.name(), m.bytes()))
                .collect();
            let _ = writeln!(out, "measures = {}", measures.join(", "));
        }
        match fact.density() {
            Some(d) => {
                let _ = writeln!(out, "density = {d}");
            }
            None => {
                let _ = writeln!(out, "rows = {}", parsed.schema.fact_rows(i));
            }
        }
        let _ = writeln!(out);
    }
    for w in parsed.mix.classes() {
        let _ = writeln!(out, "[query {}]", w.class.name());
        let _ = writeln!(out, "weight = {}", w.share);
        let preds: Vec<String> = w
            .class
            .predicates()
            .iter()
            .map(|(&dim, pred)| {
                let d = parsed.schema.dimension(dim).expect("validated");
                let l = d.level(pred.level).expect("validated");
                format!("{}.{}:{}", d.name(), l.name(), pred.values)
            })
            .collect();
        let _ = writeln!(out, "predicates = {}", preds.join(", "));
        let _ = writeln!(out);
    }
    let sys = &parsed.system;
    let _ = writeln!(out, "[system]");
    let _ = writeln!(out, "disks = {}", sys.num_disks);
    let _ = writeln!(out, "page_bytes = {}", sys.page.page_bytes);
    let _ = writeln!(out, "seek_ms = {}", sys.disk.avg_seek_ms);
    let _ = writeln!(out, "rotational_ms = {}", sys.disk.avg_rotational_ms);
    let _ = writeln!(out, "transfer_mb_s = {}", sys.disk.transfer_mb_per_s);
    let _ = writeln!(
        out,
        "capacity_gb = {}",
        sys.disk.capacity_bytes as f64 / (1u64 << 30) as f64
    );
    match sys.architecture {
        Architecture::SharedEverything { processors } => {
            let _ = writeln!(out, "architecture = shared_everything");
            let _ = writeln!(out, "processors = {processors}");
        }
        Architecture::SharedDisk {
            nodes,
            processors_per_node,
            ..
        } => {
            let _ = writeln!(out, "architecture = shared_disk");
            let _ = writeln!(out, "nodes = {nodes}");
            let _ = writeln!(out, "processors = {processors_per_node}");
        }
    }
    match sys.fact_prefetch {
        PrefetchPolicy::Auto { .. } => {
            let _ = writeln!(out, "prefetch = auto");
        }
        PrefetchPolicy::Fixed(p) => {
            let _ = writeln!(out, "prefetch = {p}");
        }
    }
    let adv = &parsed.advisor;
    let _ = writeln!(out, "\n[advisor]");
    let _ = writeln!(out, "max_dimensionality = {}", adv.max_dimensionality);
    let _ = writeln!(out, "top_x_percent = {}", adv.top_x_percent);
    let _ = writeln!(out, "top_n = {}", adv.top_n);
    let _ = writeln!(out, "min_keep = {}", adv.min_keep);
    let _ = writeln!(out, "max_fragments = {}", adv.thresholds.max_fragments);
    match adv.allocation_policy {
        warlock_alloc::AllocationPolicy::Auto { cv_threshold } => {
            if adv.allocation_policy == warlock_alloc::AllocationPolicy::default() {
                let _ = writeln!(out, "allocation_policy = auto");
            } else {
                let _ = writeln!(out, "allocation_policy = auto:{cv_threshold}");
            }
        }
        warlock_alloc::AllocationPolicy::GreedySize => {
            let _ = writeln!(out, "allocation_policy = greedy");
        }
        warlock_alloc::AllocationPolicy::RoundRobin => {
            let _ = writeln!(out, "allocation_policy = round_robin");
        }
        warlock_alloc::AllocationPolicy::GraphPartition { seed } => {
            let _ = writeln!(out, "allocation_policy = graph");
            if seed != 0 {
                let _ = writeln!(out, "graph_seed = {seed}");
            }
        }
    }
    match adv.parallelism {
        0 => {
            let _ = writeln!(out, "parallelism = auto");
        }
        n => {
            let _ = writeln!(out, "parallelism = {n}");
        }
    }
    match adv.max_candidates {
        0 => {
            let _ = writeln!(out, "max_candidates = unlimited");
        }
        n => {
            let _ = writeln!(out, "max_candidates = {n}");
        }
    }
    match adv.chunk_size {
        0 => {
            let _ = writeln!(out, "chunk_size = auto");
        }
        n => {
            let _ = writeln!(out, "chunk_size = {n}");
        }
    }
    if !adv.range_options.is_empty() {
        let rendered: Vec<String> = adv.range_options.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "range_options = {}", rendered.join(", "));
    }
    let defaults = crate::AdvisorConfig::default();
    if adv.auto_advise {
        let _ = writeln!(out, "auto_advise = on");
    }
    if adv.drift_enter != defaults.drift_enter {
        let _ = writeln!(out, "drift_enter = {}", adv.drift_enter);
    }
    if adv.drift_exit != defaults.drift_exit {
        let _ = writeln!(out, "drift_exit = {}", adv.drift_exit);
    }
    if adv.stats_half_life != defaults.stats_half_life {
        let _ = writeln!(out, "stats_half_life = {}", adv.stats_half_life);
    }
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
}
