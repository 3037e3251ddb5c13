//! `quarry_bench`: one closed-loop client against Quarry's public
//! surface, four workloads, seven end-to-end metrics, and a traced run
//! that prices every layer from outside. See `README.md`.

mod gen;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;

use run::{Kind, Plan, Res, KINDS};
use serde::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  quarry_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
  quarry_bench check
  quarry_bench repeat N
  quarry_bench compare OLD.json NEW.json
  quarry_bench spec";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn announce_pin() {
    match sys::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("not pinned: expect cross-CPU wake-up noise"),
    }
}

/// One run: `--workload NAME --seed N [--seconds S] [--trace 0|1]`.
fn one_run(args: &[String]) -> Res<ExitCode> {
    let name = flag(args, "--workload").ok_or(USAGE)?;
    let kind = Kind::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = flag(args, "--seed").ok_or(USAGE)?.parse()?;
    let seconds: f64 = flag(args, "--seconds").map_or(Ok(spec::RUN_SECONDS as f64), str::parse)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
    };
    announce_pin();
    let mut dirs = sys::DataDir::create()?;
    println!("data directory {}", dirs.root().display());
    let plan = Plan::full(kind, seed, seconds);
    let (tally, metrics) = if traced {
        let out = layers::run(&plan, &mut dirs)?;
        let metrics = spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = out
                    .metrics
                    .get(m.name)
                    .ok_or_else(|| format!("{} was not measured", m.name))?;
                Ok((m.name, *value, m.unit))
            })
            .collect::<Res<Vec<_>>>()?;
        (out.tally, metrics)
    } else {
        let out = run::run(&plan, &mut dirs)?;
        let metrics: Vec<_> = out
            .metrics
            .iter()
            .map(|&(name, value)| (name, value, spec::end_to_end(name).map_or("", |m| m.unit)))
            .collect();
        (out.tally, metrics)
    };
    drop(dirs);
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    println!("{}", json::to_string(&report::result_json(&tally, &metrics)));
    Ok(ExitCode::SUCCESS)
}

/// The smoke: every workload at 2 000 rows and one window, every answer
/// against the oracle, every reopened directory against its
/// acknowledged writes.
fn check() -> Res<ExitCode> {
    announce_pin();
    let mut dirs = sys::DataDir::create()?;
    let mut failed = 0;
    for kind in KINDS {
        println!("== {}", kind.name());
        let plan = Plan::check(kind, 1);
        let out = run::run(&plan, &mut dirs)?;
        println!("{}: {} attempted, {} failed", kind.name(), out.tally.attempted, out.tally.failed);
        failed += out.tally.failed;
        // The traced run at the same size: every per-layer metric must come out.
        let layered = layers::run(&plan, &mut dirs)?;
        let missing: Vec<&str> = spec::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|name| !layered.metrics.get(name).is_some_and(|v| v.is_finite()))
            .collect();
        println!(
            "{} traced: {} attempted, {} failed, missing {missing:?}",
            kind.name(),
            layered.tally.attempted,
            layered.tally.failed
        );
        failed += layered.tally.failed + missing.len() as u64;
    }
    if failed > 0 {
        eprintln!("check: {failed} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    println!("check: ok");
    Ok(ExitCode::SUCCESS)
}

/// Spawn this executable for one untraced run and parse its last line.
fn child_run(kind: Kind, seed: u64) -> Res<Json> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(format!("{} seed {seed}: {}", kind.name(), out.status).into());
    }
    let stdout = String::from_utf8(out.stdout)?;
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    Ok(report::record(kind.name(), seed, json::parse(last)?))
}

/// Two back-to-back sets of `n` runs per workload of this same binary,
/// compared the way two commits would be: what the table shows between
/// them is the benchmark's own noise.
fn repeat(n: usize) -> Res<ExitCode> {
    if n < 2 {
        return Err("repeat needs at least 2 runs a set".into());
    }
    let dir =
        std::env::current_exe()?.parent().map(PathBuf::from).ok_or("no executable directory")?;
    let mut sets = Vec::new();
    for set in 0..2 {
        let mut records = Vec::new();
        for kind in KINDS {
            for i in 0..n {
                let seed = (set * n + i + 1) as u64;
                eprintln!("set {} {} seed {seed}", set + 1, kind.name());
                records.push(child_run(kind, seed)?);
            }
        }
        let path = dir.join(format!("quarry_bench-set{}.json", set + 1));
        report::write_file(&path, &records)?;
        println!("set {} written to {}", set + 1, path.display());
        sets.push(report::collect(&records)?);
    }
    let worse = report::print_comparison(&sets[0], &sets[1]);
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare(old: &str, new: &str) -> Res<ExitCode> {
    let old = report::collect(&report::read_file(old.as_ref())?)?;
    let new = report::collect(&report::read_file(new.as_ref())?)?;
    let worse = report::print_comparison(&old, &new);
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(args: &[String]) -> Res<ExitCode> {
    match args.first().map(String::as_str) {
        Some("check") => check(),
        Some("spec") => {
            print!("{}", spec::render());
            Ok(ExitCode::SUCCESS)
        }
        Some("repeat") => repeat(args.get(1).ok_or(USAGE)?.parse()?),
        Some("compare") => match args {
            [_, old, new] => compare(old, new),
            _ => Err(USAGE.into()),
        },
        _ => one_run(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("quarry_bench: {e}");
            ExitCode::from(2)
        }
    }
}
