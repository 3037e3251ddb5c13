//! Result lines, result files, and the tables `repeat` and `compare`
//! print from them.

use crate::run::{Res, Tally, KINDS};
use crate::spec::{self, Better};
use crate::stats::Quartiles;
use serde::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// The one JSON object a run ends with: `correct`, `attempted`, `failed`
/// and every metric with its value and unit.
pub fn result_json(tally: &Tally, metrics: &[(&'static str, f64, &'static str)]) -> Json {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::Int(i128::from(tally.attempted))),
        ("failed".into(), Json::Int(i128::from(tally.failed))),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// One line of a result file: which run, and its result line.
pub fn record(workload: &str, seed: u64, result: Json) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Int(i128::from(seed))),
        ("result".into(), result),
    ])
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// workload → metric → one value per run.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Fold result-file lines into samples. A run that was not correct is an
/// error: its numbers describe a broken system.
pub fn collect(records: &[Json]) -> Res<Samples> {
    let mut samples = Samples::new();
    for rec in records {
        let workload =
            rec.get("workload").and_then(Json::as_str).ok_or("record without workload")?;
        let result = rec.get("result").ok_or("record without result")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{workload}: a run was not correct").into());
        }
        let metrics =
            result.get("metrics").and_then(Json::as_obj).ok_or("result without metrics")?;
        for (name, entry) in metrics {
            let value = entry.get("value").and_then(number).ok_or("metric without value")?;
            samples
                .entry(workload.into())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

pub fn read_file(path: &Path) -> Res<Vec<Json>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{}: {e}", path.display()).into()))
        .collect()
}

pub fn write_file(path: &Path, records: &[Json]) -> Res<()> {
    let lines: Vec<String> = records.iter().map(json::to_string).collect();
    std::fs::write(path, lines.join("\n") + "\n")?;
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either side's interquartile spread is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `new` is worse than `old`, as a share of `old`
/// (negative = better).
fn worsening(old: f64, new: f64, better: Better) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

pub fn verdict(old: &Quartiles, new: &Quartiles, better: Better, bound: f64) -> Verdict {
    if old.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(old.median, new.median, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Print, per workload and end-to-end metric, both medians with their
/// quartiles, the ratio, the bound and the verdict. Returns how many rows
/// were `worse`.
pub fn print_comparison(old: &Samples, new: &Samples) -> usize {
    println!(
        "{:<14} {:<19} {:>12} {:>25} {:>12} {:>25} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "old median",
        "[q1, q3]",
        "new median",
        "[q1, q3]",
        "new/old",
        "bound"
    );
    let mut worse = 0;
    for kind in KINDS {
        let (Some(o), Some(n)) = (old.get(kind.name()), new.get(kind.name())) else { continue };
        for m in spec::END_TO_END {
            let (Some(ov), Some(nv)) = (o.get(m.name), n.get(m.name)) else { continue };
            let (Some(oq), Some(nq)) = (Quartiles::of(ov), Quartiles::of(nv)) else {
                println!("{:<14} {:<19} needs at least two runs a side", kind.name(), m.name);
                continue;
            };
            let v = verdict(&oq, &nq, m.better, m.bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<14} {:<19} {:>12.4} {:>25} {:>12.4} {:>25} {:>7.3} {:>6.2}  {}",
                kind.name(),
                format!("{} [{}]", m.name, m.unit),
                oq.median,
                format!("[{:.4}, {:.4}]", oq.q1, oq.q3),
                nq.median,
                format!("[{:.4}, {:.4}]", nq.q1, nq.q3),
                if oq.median == 0.0 { 1.0 } else { nq.median / oq.median },
                m.bound,
                v.as_str()
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(q1: f64, median: f64, q3: f64) -> Quartiles {
        Quartiles { q1, median, q3 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = q(99.0, 100.0, 101.0);
        // Lower is better: +20 % is worse, -20 % better, +5 % the same.
        assert_eq!(verdict(&base, &q(119.0, 120.0, 121.0), Better::Lower, 0.15), Verdict::Worse);
        assert_eq!(verdict(&base, &q(79.0, 80.0, 81.0), Better::Lower, 0.15), Verdict::Better);
        assert_eq!(verdict(&base, &q(104.0, 105.0, 106.0), Better::Lower, 0.15), Verdict::Same);
        // Higher is better flips the sign.
        assert_eq!(verdict(&base, &q(79.0, 80.0, 81.0), Better::Higher, 0.15), Verdict::Worse);
        assert_eq!(verdict(&base, &q(119.0, 120.0, 121.0), Better::Higher, 0.15), Verdict::Better);
        // A side whose quartiles are further apart than the bound decides nothing.
        assert_eq!(
            verdict(&base, &q(100.0, 120.0, 140.0), Better::Lower, 0.15),
            Verdict::Unresolved
        );
    }

    #[test]
    fn result_lines_round_trip_through_a_result_file() {
        let tally = Tally { attempted: 10, failed: 0 };
        let line = result_json(&tally, &[("setup_s", 1.25, "s"), ("ops_per_s", 2000.5, "1/s")]);
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let text = json::to_string(&record("point_read", 3, line));
        let back = collect(&[json::parse(&text).unwrap()]).unwrap();
        assert_eq!(back["point_read"]["ops_per_s"], vec![2000.5]);
        assert_eq!(back["point_read"]["setup_s"], vec![1.25]);
        // An incorrect run poisons the file.
        let bad = result_json(&Tally { attempted: 10, failed: 1 }, &[("setup_s", 1.0, "s")]);
        assert!(collect(&[record("point_read", 4, bad)]).is_err());
    }
}
