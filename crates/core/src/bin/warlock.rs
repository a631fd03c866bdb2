//! The `warlock` command-line tool.
//!
//! A text-mode counterpart of the original GUI: reads a warehouse
//! description (see [`warlock::config_file`] for the format), runs the
//! advisor session, and prints the requested outputs.
//!
//! ```text
//! warlock [-j N | --parallelism N] [--max-candidates N] [--chunk-size N] <config-file> [command]
//!
//! commands:
//!   rank              ranked fragmentation candidates (default)
//!   analyze [RANK]    detailed query statistic of a ranked candidate (default 1)
//!   allocate [RANK]   physical allocation scheme of a ranked candidate (default 1)
//!   recommend         judge allocation policies head-to-head in the disk simulator
//!   excluded          threshold-excluded candidates with reasons
//!   csv               ranking as CSV (for plotting)
//!   json              complete advisory as JSON (ranking + analysis + allocation)
//!
//! `-j`/`--parallelism` overrides the configuration file's evaluation
//! worker count (0 = auto, 1 = serial); `--chunk-size` overrides the
//! streaming evaluation chunk (0 = auto); any value of these yields
//! identical advice. `--max-candidates` overrides the
//! candidate-space budget (0 = unlimited): runs whose exact predicted
//! space exceeds it fail up front instead of grinding.
//! ```
//!
//! Exit codes: 0 on success (including an empty ranking — `rank`,
//! `csv`, `json` and `excluded` report whatever survived), 1 on runtime
//! failures (unreadable or invalid input, `analyze`/`allocate` rank out
//! of range), 2 on usage errors (unknown command, malformed rank
//! argument).

use std::env;
use std::process::ExitCode;

use warlock::config_file::{demo_config, render_config};
use warlock::json::ToJson;
use warlock::report::{
    ranking_csv, render_allocation, render_analysis, render_ranking, render_recommendation,
};
use warlock::Warlock;

const USAGE: &str = "usage: warlock [-j N | --parallelism N] [--max-candidates N] [--chunk-size N] <config-file> [rank|analyze [N]|allocate [N]|recommend|excluded|csv|json]\n       warlock init   (print a starter configuration)";

/// Extracts every occurrence of a `--flag VALUE` pair from `args`,
/// returning the last parsed value. `Ok(None)` when the flag is absent;
/// `Err` (with a message already printed) on a missing or malformed
/// value.
fn take_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    names: &[&str],
    what: &str,
) -> Result<Option<T>, ()> {
    let mut found = None;
    while let Some(pos) = args.iter().position(|a| names.contains(&a.as_str())) {
        let flag = args.remove(pos);
        if pos >= args.len() {
            eprintln!("warlock: `{flag}` needs {what}\n{USAGE}");
            return Err(());
        }
        let value = args.remove(pos);
        match value.parse::<T>() {
            Ok(n) => found = Some(n),
            Err(_) => {
                eprintln!("warlock: invalid {what} `{value}` for `{flag}`");
                return Err(());
            }
        }
    }
    Ok(found)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    // Extract the option flags wherever they appear; the remaining
    // arguments stay positional.
    let Ok(parallelism) = take_flag::<usize>(&mut args, &["-j", "--parallelism"], "a worker count")
    else {
        return ExitCode::from(2);
    };
    let Ok(max_candidates) =
        take_flag::<u64>(&mut args, &["--max-candidates"], "a candidate budget")
    else {
        return ExitCode::from(2);
    };
    let Ok(chunk_size) = take_flag::<usize>(&mut args, &["--chunk-size"], "a chunk size") else {
        return ExitCode::from(2);
    };
    // `warlock init` emits the APB-1-like starter configuration.
    if args.first().map(String::as_str) == Some("init") {
        print!("{}", render_config(&demo_config()));
        return ExitCode::SUCCESS;
    }
    let Some(path) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let command = args.get(1).map(String::as_str).unwrap_or("rank");
    // Parse the rank argument up front: a malformed value is a usage
    // error (exit 2), not a silent fall-back to rank 1.
    let rank_arg = match args.get(2) {
        None => 1,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("warlock: invalid rank argument `{s}` (expected a positive integer)");
                return ExitCode::from(2);
            }
        },
    };
    if !matches!(command, "analyze" | "allocate") && args.get(2).is_some() {
        eprintln!("warlock: `{command}` takes no rank argument\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut session = match Warlock::from_config_path(path) {
        Ok(s) => s,
        Err(e) => {
            // `from_config_path` errors already name the offending file.
            eprintln!("warlock: {e}");
            return ExitCode::FAILURE;
        }
    };
    if parallelism.is_some() || max_candidates.is_some() || chunk_size.is_some() {
        let mut config = session.config().clone();
        if let Some(workers) = parallelism {
            config.parallelism = workers;
        }
        if let Some(budget) = max_candidates {
            config.max_candidates = budget;
        }
        if let Some(chunk) = chunk_size {
            config.chunk_size = chunk;
        }
        if let Err(e) = session.set_config(config) {
            eprintln!("warlock: {e}");
            return ExitCode::FAILURE;
        }
    }

    let outcome = match command {
        "rank" => session.rank().map(|r| print!("{}", render_ranking(r))),
        "csv" => session.rank().map(|r| print!("{}", ranking_csv(r))),
        "json" => session
            .session_report()
            .map(|r| println!("{}", r.to_json().pretty())),
        "excluded" => session
            .rank()
            .map(|report| print!("{}", warlock::report::render_excluded(report))),
        "analyze" => session
            .analyze(rank_arg)
            .map(|analysis| print!("{}", render_analysis(&analysis))),
        "allocate" => session
            .plan_allocation(rank_arg)
            .map(|plan| print!("{}", render_allocation(&plan))),
        "recommend" => session
            .recommend_policy()
            .map(|rec| print!("{}", render_recommendation(&rec))),
        other => {
            eprintln!("warlock: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("warlock: {e}");
            ExitCode::FAILURE
        }
    }
}
