//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `perfbench/README.md` for why each exists),
//! checks its outputs, and prints as the last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end metrics; with `--trace 1`
//! the run records spans around its calls into each crate, replays the
//! inner layers on copies, writes the spans to
//! `.bench_out/trace-<workload>-seed<n>-trace1.ndjson` and reports the
//! per-layer metrics instead. Every reported time is CPU time of this
//! process (`clock.rs`) scaled by the host speed (`probe.rs`); the
//! report line adds the measured CPU and wall time and the host speed.
//! Exits 1 when any output check fails.

mod alloc;
mod clock;
mod ems;
mod fed;
mod layers;
mod probe;
mod recorded;
mod serve;
mod stats;
mod trace;

use clock::CpuInstant;
use layers::Layer;
use probe::Probe;
use std::fmt::Write as _;
use trace::Recorder;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every workload, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["ems_repro", "fleet_669", "fed_10k", "serve_256"];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload does not run reports 0 (see README.md for which
/// workloads exercise which layer).
const PER_LAYER: [(&str, &str); 30] = [
    ("forecast.train_s", "s"),
    ("forecast.predict_day_ms", "ms"),
    ("nn.lstm_infer_windows_us", "us"),
    ("drl.train_step_us", "us"),
    ("drl.act_us", "us"),
    ("drl.train_steps_per_day", "count"),
    ("env.step_ns", "ns"),
    ("data.day_trace_us", "us"),
    ("core.fresh_s", "s"),
    ("core.steady_day_allocs", "count"),
    ("fl.round_ms", "ms"),
    ("fl.fast_path_frac", "frac"),
    ("fl.wire_bytes_per_round", "B"),
    ("fl.logical_bytes_per_round", "B"),
    ("fl.peak_shard_bytes", "B"),
    ("fl.encode_us", "us"),
    ("fl.decode_us", "us"),
    ("store.capture_s", "s"),
    ("store.encode_s", "s"),
    ("store.decode_s", "s"),
    ("store.restore_s", "s"),
    ("store.snapshot_bytes", "B"),
    ("serve.chunk_busy_ms", "ms"),
    ("serve.source_wait_frac", "frac"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.max_queue_len", "count"),
    ("serve.shed", "count"),
    ("trace.unit_p50_ms", "ms"),
    ("trace.bookkeeping_frac", "frac"),
    ("trace.spans", "count"),
];

/// Factor that scales a layer figure measured on this host to the fixed
/// host speed (see `probe.rs`): times scale by the host speed; counts,
/// sizes and fractions stay as measured.
fn host_factor(unit: &str, speed: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" | "ns" => speed,
        _ => 1.0,
    }
}

/// One output check.
pub struct Check {
    pub name: &'static str,
    /// `None` when the check has no recorded value for this seed.
    pub ok: Option<bool>,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Check {
            name,
            ok: Some(ok),
            detail,
        }
    }
}

/// What a workload measured and checked. Times are CPU times scaled by
/// the host speed around each timed interval (`probe.rs`).
#[derive(Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of the last set-up repetition and the timed intervals
    /// that produce the checked outputs: one end-to-end run of the
    /// workload's fixed part. Further timed units only add samples.
    pub run_s: f64,
    /// Milliseconds of each timed unit (steady day, federation round or
    /// serve decision latency).
    pub units_ms: Vec<f64>,
    /// Percentile reported as `unit_tail_ms`.
    pub tail_pct: f64,
    /// Work per second: home-days/s, home-merges/s or decisions/s.
    pub throughput: f64,
    /// Workload-specific figures for the report line, with units.
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Correctness outputs; a traced and an untraced run of one seed
    /// must print identical values.
    pub outputs: Vec<(&'static str, String)>,
    pub checks: Vec<Check>,
    /// Operations attempted and failed (shed records, fallen-back
    /// merges); the run itself counts as one more operation.
    pub ops: u64,
    pub ops_failed: u64,
    pub layer: Layer,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; known: {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` when the benchmark runs in
/// a git work tree; "none" in an exported tree.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of every file under `crates/` (path and contents, in path
/// order): identifies the measured source even without git.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut d = stats::Digest::default();
    for f in &files {
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", d.value())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // The benchmark runs from the repository root: it reads the sources
    // it measures from there. Refuse to report from anywhere else.
    if !std::path::Path::new("crates/pfdrl-core/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root (crates/ not found)");
        std::process::exit(2);
    }

    let run_id = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut rec = Recorder::new(args.trace, run_id.clone());
    clock::start();
    let mut probe = Probe::new();
    let started = CpuInstant::now();
    let mut out = match args.workload.as_str() {
        "ems_repro" => ems::run(
            ems::Fleet::Repro,
            args.seed,
            args.seconds,
            &mut rec,
            &mut probe,
        ),
        "fleet_669" => ems::run(
            ems::Fleet::Fleet669,
            args.seed,
            args.seconds,
            &mut rec,
            &mut probe,
        ),
        "fed_10k" => fed::run(args.seed, args.seconds, &mut rec, &mut probe),
        "serve_256" => serve::run(args.seed, args.seconds, &mut rec, &mut probe),
        _ => unreachable!("workload validated in parse_args"),
    };
    let cpu_s = started.elapsed_s();
    let speed = probe.speed();
    let [vector_ms, walk_ms] = probe.parts_ms();
    out.report.push(("host_speed", speed, "ratio"));
    out.report.push(("probe_vector_ms", vector_ms, "ms"));
    out.report.push(("probe_walk_ms", walk_ms, "ms"));
    out.report.push(("cpu_s", cpu_s, "s"));
    out.report.push(("wall_s", clock::wall_s(), "s"));
    let peak_rss = stats::peak_rss_mb();
    recorded::check(&args.workload, args.seed, &mut out);

    let failed_checks = out.checks.iter().filter(|c| c.ok == Some(false)).count();
    let correct = failed_checks == 0;
    let attempted = out.ops + 1;
    let failed = out.ops_failed + u64::from(!correct);

    let unit_p50 = stats::median(&mut out.units_ms);
    let unit_tail = stats::percentile(&mut out.units_ms, out.tail_pct);
    let setup = stats::median(&mut out.setup_s);

    // Provenance and the human-readable report go to stdout before the
    // result line.
    println!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"clock\":\"process cpu time\",\"nproc\":{},\"cpu_model\":{},\"threads\":{},\
         \"git_commit\":{},\"source_digest\":{},\
         \"samples\":{{\"setup_s\":{},\"unit\":{},\"unit_tail_percentile\":{},\"host_speed\":{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&cpu_model()),
        rayon::current_num_threads(),
        json_str(&git_commit()),
        json_str(&source_digest()),
        out.setup_s.len(),
        out.units_ms.len(),
        json_num(out.tail_pct),
        probe.samples(),
    );
    println!("{{\"report\":{}}}", metrics_json(&out.report));
    let outputs: Vec<String> = out
        .outputs
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"outputs\":{{{}}}}}", outputs.join(","));
    for c in &out.checks {
        let status = match c.ok {
            Some(true) => "pass",
            Some(false) => "FAIL",
            None => "no recorded value for this seed",
        };
        println!("check {}: {status} ({})", c.name, c.detail);
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        out.layer.insert("trace.spans", rec.len() as f64);
        out.layer
            .insert("trace.bookkeeping_frac", rec.bookkeeping_secs() / cpu_s);
        let path = std::path::PathBuf::from(format!(".bench_out/trace-{run_id}.ndjson"));
        if let Err(e) = rec.write_ndjson(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        // Layer times come from raw spans and replays: scale them by the
        // run's host speed. `trace.unit_p50_ms` is this run's
        // `unit_p50_ms`, already scaled interval by interval.
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.unit_p50_ms" => unit_p50,
                    _ => out.layer.get(name).copied().unwrap_or(0.0) * host_factor(unit, speed),
                };
                (name, v, unit)
            })
            .collect()
    } else {
        vec![
            ("setup_s", setup, "s"),
            ("run_s", out.run_s, "s"),
            ("unit_p50_ms", unit_p50, "ms"),
            ("unit_tail_ms", unit_tail, "ms"),
            ("throughput_per_s", out.throughput, "1/s"),
            ("peak_rss_mb", peak_rss, "MB"),
        ]
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
