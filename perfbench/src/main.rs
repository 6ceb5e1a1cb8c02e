//! The repository benchmark: one command that runs a workload against the
//! havoq library, checks its outputs and prints every metric by name with
//! its unit. See `README.md` in this directory for the workloads, the
//! metrics and how each per-layer metric relates to the end-to-end ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rmat-async-mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`). The traced run also
//! writes its spans to `out/` in this directory. The exit code is 0 only
//! when every check passed.

mod bfs_run;
mod heap;
mod json;
mod serve;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use bfs_run::{BfsWorkload, Engine};
use json::Json;
use setup::{GraphSpec, Seeds, Storage};
use trace::Span;

/// Ranks per world: one per core of the 2-core reference host, each with
/// a single worker thread and synchronous I/O.
pub const RANKS: usize = 2;

pub const WORKLOADS: [&str; 4] =
    ["rmat-async-mem", "rmat-async-extcomp", "sw-direction-mem", "rmat-serve"];

const RMAT_SCALE: u32 = 17;
/// Rewire probability of the small-world graph: low, for a high diameter
/// (about 35 levels, a third of them bottom-up). At 0.001 the graph has
/// only about a thousand shortcuts, and the mean level count differs by
/// ±7% from one seed to the next, which the run-to-run bounds cannot
/// absorb; at 0.003 it differs by ±3%.
const SW_REWIRE: f64 = 0.003;
/// Back-to-back runs of each small-world key; the fastest counts. Its
/// ranks hand off to each other a few hundred times per key, so stalls of
/// a shared host hit it hardest: on a 2-vCPU virtual machine one seed read
/// 12 and 25 MTEPS a few minutes apart. The stalls come and go within a
/// run (in the slow runs p75 key time was 1.6× p50, against 1.2×), so one
/// of three runs of a key usually misses them.
const SW_REPEATS: usize = 3;

/// End-to-end metrics, printed with `--trace 0`, with their units.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_heap_mib", "MiB"), ("bfs_mteps", "MTEPS"), ("bfs_p50_ms", "ms")];

/// Per-layer metrics, printed with `--trace 1`, with their units. A layer
/// a workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("peak_rss_mib", "MiB"),
    ("graph.gen_s", "s"),
    ("graph.build_s", "s"),
    ("graph.edge_imbalance", "ratio"),
    ("csr.bytes_per_edge", "B"),
    ("varint.decodes", "count/key"),
    ("varint.decoded_bytes_per_edge", "B"),
    ("queue.visitors_executed", "count/key"),
    ("queue.visitors_pushed", "count/key"),
    ("queue.exec_per_visited", "ratio"),
    ("queue.replica_forwards", "count/key"),
    ("ghost.filtered_frac", "ratio"),
    ("bfs.outside_loop_ms", "ms"),
    ("mailbox.bytes_sent", "B/key"),
    ("mailbox.frames_sent", "count/key"),
    ("mailbox.frame_fill", "ratio"),
    ("mailbox.payload_sent", "count/key"),
    ("mailbox.backpressure_stalls", "count/key"),
    ("termination.waves", "count/key"),
    ("collective.all_reduce_us", "us"),
    ("frontier.words_sent", "count/key"),
    ("direction.levels", "count/key"),
    ("direction.bu_levels", "count/key"),
    ("direction.inspected_per_edge", "ratio"),
    ("direction.ms_per_level", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.misses", "count/key"),
    ("cache.prefetches", "count/key"),
    ("cache.fault_waits", "count/key"),
    ("cache.evictions", "count/key"),
    ("cache.io_stall_s", "s/key"),
    ("cache.io_stall_frac", "ratio"),
    ("device.reads", "count/key"),
    ("serve_p50_ms.low", "ms"),
    ("serve_p90_ms.low", "ms"),
    ("serve_p50_ms.mid", "ms"),
    ("serve_p90_ms.mid", "ms"),
    ("serve_goodput_qps", "QPS"),
    ("serve_max_qps", "QPS"),
    ("batch.occupancy", "count"),
    ("batch.service_p50_ms", "ms"),
    ("batch.mteps", "MTEPS"),
    ("batch.exec_per_visited", "ratio"),
    ("admission.wait_p50_ms", "ms"),
    ("admission.peak_backlog", "count"),
    ("admission.shed", "count"),
    ("failed_pct", "%"),
    ("validate.s", "s"),
    ("trace.overhead_pct", "%"),
    ("self_s.graph", "s"),
    ("self_s.bench", "s"),
    ("self_s.core", "s"),
    ("self_s.comm", "s"),
    ("self_s.admission", "s"),
];

/// Span self time of rank 0, per layer.
const SELF_TIME: [(&str, &str); 5] = [
    ("self_s.graph", "graph"),
    ("self_s.bench", "bench"),
    ("self_s.core", "core"),
    ("self_s.comm", "comm"),
    ("self_s.admission", "admission"),
];

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// What a workload run hands back for reporting.
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Each rank's spans (empty without tracing).
    pub spans: Vec<Vec<Span>>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Outcome {
    let seeds = Seeds::from_workload(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let rmat = GraphSpec::Rmat { scale: RMAT_SCALE };
    let bfs = |graph, storage, engine, repeats| {
        bfs_run::run(BfsWorkload { graph, storage, engine, repeats }, seeds, budget, args.trace)
    };
    match args.workload.as_str() {
        "rmat-async-mem" => bfs(rmat, Storage::InMemory, Engine::Async, 1),
        "rmat-async-extcomp" => {
            bfs(rmat, Storage::ExtCompressed { cache_share: 0.25 }, Engine::Async, 1)
        }
        "sw-direction-mem" => bfs(
            GraphSpec::SmallWorld { scale: RMAT_SCALE, degree: 16, rewire: SW_REWIRE },
            Storage::InMemory,
            Engine::Direction,
            SW_REPEATS,
        ),
        "rmat-serve" => serve::run(seeds, budget, args.trace),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))])
}

/// Write the spans under `out/` next to this package's manifest.
fn write_spans(args: &Args, spans: &[Vec<Span>]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, format!("{}\n", trace::to_json(spans)))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut out = run(&args);
    out.values.insert("peak_rss_mib", setup::peak_rss_mib());
    out.values.insert("failed_pct", 100.0 * out.failed as f64 / out.attempted.max(1) as f64);
    if args.trace {
        let self_ns = trace::self_time_by_layer(&out.spans[0]);
        for (name, layer) in SELF_TIME {
            out.values.insert(name, self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9);
        }
        match write_spans(&args, &out.spans) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    for line in &out.notes {
        println!("{line}");
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = out.values.get(name).copied();
        if !args.trace {
            assert!(value.is_some(), "workload {} did not measure {name}", args.workload);
        }
        let value = value.unwrap_or(0.0);
        println!("{name} = {value} {unit}");
        metrics.push((name, metric(value, unit)));
    }
    let correct = out.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Json::Obj(fields) = doc else { panic!("BENCHMARK.json is not an object") };
        let Some((_, Json::Arr(items))) = fields.iter().find(|(k, _)| k == key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|item| {
                let Json::Obj(f) = item else { panic!("{key} entry is not an object") };
                let get = |k: &str| match f.iter().find(|(n, _)| n == k) {
                    Some((_, Json::Str(s))) => s.clone(),
                    _ => String::new(),
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    /// The metric and workload tables here and in `BENCHMARK.json` agree.
    #[test]
    fn tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
