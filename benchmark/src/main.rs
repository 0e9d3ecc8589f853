//! `campaign-bench`: wall-clock campaign benchmark (gen · steady · wide ·
//! replay) with a layer pass measured from outside the program. See
//! `benchmark/README.md`.

mod adapter;
mod child;
mod compare;
mod layers;
mod metrics;
mod mirror;
mod procstat;
mod runner;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use adapter::Json;
use runner::{Options, Repeat};
use workload::{default_workers, Sizes, Workload};

const USAGE: &str = "\
usage: run.sh [--workload gen|steady|wide|replay] [--seed S] [--seconds T] [--trace 0|1]
              [--layers] [--smoke] [--out DIR] [--truncate-journal]
       run.sh compare A/results.json B/results.json

Without --workload every workload runs (3 repeats, each in a fresh child process)
and out/results.json is written; --layers runs the traced layer pass instead. With --workload one repeat runs and the last line printed is the result
object: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
--truncate-journal cuts the first journal short before the checks run (a self-test:
the run must then fail).";

/// Parsed command line of a benchmark run.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    layers: bool,
    smoke: bool,
    out: PathBuf,
    truncate_journal: bool,
    /// `child` only: explicit sizes, pool threads and work directory.
    sizes: Option<Sizes>,
    workers: Option<usize>,
    work: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2023,
        seconds: 10.0,
        layers: false,
        smoke: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        truncate_journal: false,
        sizes: None,
        workers: None,
        work: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => parsed.layers = false,
                "1" => parsed.layers = true,
                v => return Err(bad(v)),
            },
            "--layers" => parsed.layers = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            "--truncate-journal" => parsed.truncate_journal = true,
            "--sizes" => {
                let v = value()?;
                parsed.sizes = Some(runner::parse_sizes(v).ok_or_else(|| bad(v))?);
            }
            "--workers" => {
                parsed.workers = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?)
            }
            "--work" => parsed.work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn options(args: &Args) -> Options {
    Options {
        seed: args.seed,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::for_seconds(args.seconds)
        },
        smoke: args.smoke,
        workers: default_workers(),
        out: args.out.clone(),
        truncate_journal: args.truncate_journal,
    }
}

/// The internal `child` subcommand: one repeat, one JSON line.
fn child_main(args: &Args) -> Result<(), String> {
    let workload = args.workload.ok_or("child needs --workload")?;
    let sizes = args.sizes.ok_or("child needs --sizes")?;
    let workers = args.workers.ok_or("child needs --workers")?;
    let work = args.work.as_ref().ok_or("child needs --work")?;
    let report = child::run(workload, args.seed, &sizes, workers, work);
    println!("{}", report.to_json().to_compact());
    Ok(())
}

/// One workload, one repeat, result object on the last line.
fn single_main(workload: Workload, args: &Args) -> Result<bool, String> {
    let opts = options(args);
    let repeat = runner::run_repeat(workload, &opts, opts.workers)?;
    runner::print_repeat(workload, &opts, &repeat);
    let layer = (args.layers && repeat.correct()).then(|| {
        let metrics = runner::layer_pass(workload, &opts, &repeat);
        runner::print_layers(workload, &metrics);
        metrics
    });
    // A layer pass that could not run leaves nothing to report per layer.
    if args.layers && layer.is_none() {
        return Ok(false);
    }
    println!("{}", runner::result_line(&repeat, layer.as_ref()));
    Ok(repeat.correct() && layer.is_none_or(|m| m.notes.is_empty()))
}

/// Repeats of each workload behind the medians of `results.json`: one
/// count for every set, so that any two sets `compare` reads are alike.
const REPEATS: usize = 3;

/// Every workload: `REPEATS` fresh child processes each, summary table
/// and `results.json`; or, with `--layers`, the layer pass of each.
fn all_main(args: &Args) -> Result<bool, String> {
    let opts = options(args);
    println!(
        "campaign-bench: seed {} W {} (nproc {}) closed loop, one child process at a time{}",
        opts.seed,
        opts.workers,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if opts.smoke { ", --smoke sizes" } else { "" }
    );
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        if args.layers {
            let repeat = runner::run_repeat(workload, &opts, opts.workers)?;
            runner::print_repeat(workload, &opts, &repeat);
            ok &= repeat.correct();
            if repeat.correct() {
                let metrics = runner::layer_pass(workload, &opts, &repeat);
                runner::print_layers(workload, &metrics);
                ok &= metrics.notes.is_empty();
            }
            continue;
        }
        let repeats: Vec<Repeat> = (0..REPEATS)
            .map(|_| runner::run_repeat(workload, &opts, opts.workers))
            .collect::<Result<_, _>>()?;
        runner::print_summary(workload, &opts, &repeats);
        ok &= repeats.iter().all(Repeat::correct);
        // The repeats of a workload must have produced byte-identical journals.
        if repeats
            .iter()
            .any(|r| r.child.work_digest != repeats[0].child.work_digest)
        {
            println!("  CHECK FAILED: the repeats' journals are not byte-identical");
            ok = false;
        }
        entries.push((
            workload.name(),
            runner::workload_json(workload, &opts, &repeats),
        ));
    }
    if !args.layers {
        let doc = Json::object(vec![
            ("schema", Json::String("campaign-bench-results-v1".into())),
            ("seed", Json::Number(opts.seed as f64)),
            ("workers", Json::Number(opts.workers as f64)),
            ("smoke", Json::Bool(opts.smoke)),
            ("workloads", Json::object(entries)),
        ]);
        let path = opts.out.join("results.json");
        match std::fs::create_dir_all(&opts.out)
            .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                println!("cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn compare_main(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two results.json files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, regressed) = compare::compare(&load(a)?, &load(b)?);
    for row in rows {
        println!("{row}");
    }
    Ok(!regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare_main(&argv[1..]),
        Some("child") => parse_args(&argv[1..])
            .and_then(|a| child_main(&a))
            .map(|()| true),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| match args.workload {
            Some(workload) => single_main(workload, &args),
            None => all_main(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("campaign-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
