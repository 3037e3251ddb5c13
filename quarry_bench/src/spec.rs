//! The benchmark's fixed vocabulary: workload names, metric names, units
//! and bounds. `BENCHMARK.json` at the repository root is rendered from
//! these tables (`spec` subcommand) and a test fails when the two drift,
//! so a name a later issue cites always exists.

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, with the relative worsening that
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer (layer = crate or module name before the dot).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// The driver passes this as `--seconds`: 14 windows of one second.
pub const RUN_SECONDS: u64 = 14;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "quarry_bench/Cargo.toml",
    "--",
];

pub const PATHS: &[&str] = &["quarry_bench"];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "point_read",
        why: "id = k over the wire on 20 000 overlay rows: the wire is most of a request, so serve, facade and planner changes show and pager or B-tree changes must not",
    },
    Workload {
        name: "cold_range",
        why: "grouped COUNT over a 400-wide value window on a reopened 40 000-row B-tree image 17x the page pool: storage, btree and pager do the work and the wire almost none",
    },
    Workload {
        name: "ingest_read",
        why: "100-row insert transactions each followed by a point read on a growing table, reopened and counted after every repetition: commit, WAL, index insert and snapshot re-pin trade against each other",
    },
    Workload {
        name: "router_fanout",
        why: "top-20 sort and grouped COUNT over a 2 000-wide window through the router of a 3-shard cluster: the only workload where the merge and the second wire hop do the work",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.2),
    e2e("p50_us", "us", Better::Lower, 0.2),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.2),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
    e2e("disk_bytes_per_row", "B", Better::Lower, 0.02),
    e2e("wire_bytes_per_op", "B", Better::Lower, 0.02),
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

pub const PER_LAYER: &[PerLayer] = &[
    lower("serve.rtt_us", "us"),
    lower("serve.request_p99_us", "us"),
    lower("serve.server_us", "us"),
    lower("serve.wire_us", "us"),
    lower("serve.ping_us", "us"),
    lower("serve.encode_request_us", "us"),
    lower("serve.decode_request_us", "us"),
    lower("serve.encode_response_us", "us"),
    lower("serve.decode_response_us", "us"),
    lower("serve.request_bytes", "B"),
    lower("serve.response_bytes", "B"),
    lower("serve.overloaded", "count"),
    lower("core.snapshot_pin_us", "us"),
    lower("core.query_us", "us"),
    lower("core.facade_us", "us"),
    higher("core.qcache_hit_ratio", "ratio"),
    lower("query.lint_us", "us"),
    lower("query.plan_us", "us"),
    lower("query.exec_us", "us"),
    lower("query.rows_scanned_per_result", "ratio"),
    lower("storage.select_us", "us"),
    lower("storage.snapshot_us", "us"),
    lower("storage.insert_us_per_row", "us"),
    lower("storage.commit_us", "us"),
    lower("storage.overlay_rows", "count"),
    lower("storage.recover_ms", "ms"),
    lower("storage.checkpoint_s", "s"),
    lower("storage.checkpoint_us_per_row", "us"),
    lower("storage.checkpoint_bytes_per_row", "B"),
    lower("storage.reopen_ms", "ms"),
    lower("pager.page_reads_per_op", "count"),
    higher("pager.hit_ratio", "ratio"),
    lower("pager.evictions_per_op", "count"),
    lower("btree.lookup_us", "us"),
    lower("btree.cursor_row_us", "us"),
    lower("btree.insert_us", "us"),
    lower("codec.encode_row_us", "us"),
    lower("codec.decode_row_us", "us"),
    lower("wal.append_us", "us"),
    lower("wal.bytes_per_row", "B"),
    lower("device.write_bytes_per_row", "B"),
    lower("device.syncs_per_commit", "count"),
    lower("device.read_calls_per_op", "count"),
    lower("device.read_bytes_per_op", "B"),
    lower("cluster.router_rtt_us", "us"),
    lower("cluster.shard_rtt_us", "us"),
    lower("cluster.router_self_us", "us"),
    lower("cluster.legs_per_op", "count"),
    lower("cluster.ring_lookup_ns", "ns"),
    lower("cluster.route_point_us", "us"),
    lower("replication.catchup_ms", "ms"),
    lower("trace.overhead_pct", "%"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn quoted(items: &[&str]) -> String {
    items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
}

/// `BENCHMARK.json`, byte for byte.
pub fn render() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        quoted(PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::{parse, Json};
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn checked_in_benchmark_json_is_what_spec_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, render(), "run `quarry_bench spec > BENCHMARK.json`");
    }

    #[test]
    fn names_and_units_stay_inside_the_contract() {
        let mut seen = HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {} too long", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {} out of range", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert_eq!(PER_LAYER.len(), 52);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn rendered_spec_is_json_with_exactly_the_contract_keys() {
        let json = parse(&render()).expect("spec renders valid JSON");
        let keys: Vec<&str> =
            json.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(json.get("run_seconds"), Some(&Json::Int(RUN_SECONDS as i128)));
        assert_eq!(json.get("per_layer").and_then(Json::as_arr).map(<[Json]>::len), Some(52));
        assert!(render().len() < 64 * 1024);
    }
}
