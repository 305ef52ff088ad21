//! The PerPos benchmark: one command, four workloads, every metric by
//! name and unit, outputs checked on every run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nmea_replay|nmea_translucent|fusion_pf|fleet_soak> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Inputs are generated from the seed
//! before any timing starts. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` spends half the time untraced and half with timing
//! decorators on every layer and reports the per-layer metrics plus the
//! tracing overhead. The last stdout line is the result object; the line
//! before it is a report with the host block, the tail percentile used,
//! the correctness checks and the values that must repeat per seed.
//! Workloads, batch definitions and the layer → end-to-end predictions
//! are described in `perfbench/README.md`.

mod fleet;
mod host;
mod input;
mod pipeline;
mod probe;
mod report;
mod single;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use host::{json_str, Host};
use report::{metrics_json, num, Run};

/// Every per-layer metric, in output order, with its unit. A workload
/// reports 0 for a layer it does not exercise.
const PER_LAYER: [(&str, &str); 33] = [
    ("codec.scan_ns_per_line", "ns"),
    ("codec.lines_rejected", "count"),
    ("parser.self_ns_per_item", "ns"),
    ("parser.errors", "count"),
    ("interpreter.self_ns_per_item", "ns"),
    ("feature.self_ns_per_item", "ns"),
    ("feature.calls", "count"),
    ("channel.outputs", "count"),
    ("channel.materialized", "count"),
    ("channel.materialized_ratio", "ratio"),
    ("channel.dropped", "count"),
    ("channel.apply_ns_per_tree", "ns"),
    ("arena.interned", "count"),
    ("arena.recycled_ratio", "ratio"),
    ("arena.escaped", "count"),
    ("engine.self_ns_per_step", "ns"),
    ("engine.share", "ratio"),
    ("positioning.delivered", "count"),
    ("positioning.pull_ns", "ns"),
    ("pf.self_ns_per_update", "ns"),
    ("pf.updates", "count"),
    ("likelihood.applies", "count"),
    ("fleet.round_ms_plain_p50", "ms"),
    ("fleet.round_ms_checkpoint_p50", "ms"),
    ("fleet.snapshot_us", "us"),
    ("fleet.restore_us", "us"),
    ("fleet.checkpoints", "count"),
    ("fleet.restarts", "count"),
    ("fleet.cold_restarts", "count"),
    ("fleet.quarantines", "count"),
    ("supervision.faults", "count"),
    ("fleet.instance_kb", "KiB"),
    ("trace.overhead", "ratio"),
];

const WORKLOADS: [&str; 4] = ["nmea_replay", "nmea_translucent", "fusion_pf", "fleet_soak"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Per-seed values a run must reproduce exactly. The first run of a
/// (workload, seed, source digest) records them under `.bench_build/`
/// in the checkout; later runs compare against the record. The digest
/// covers uncommitted edits too, so changed sources start a new record.
fn matches_record(args: &Args, values: &[(String, f64)]) -> bool {
    let dir = PathBuf::from(".bench_build").join("perfbench-records");
    let key = host::source_digest();
    let path = dir.join(format!("{}-{}-{key}.txt", args.workload, args.seed));
    let mut text = String::new();
    for (name, value) in values {
        let _ = writeln!(text, "{name} {:016x}", value.to_bits());
    }
    match std::fs::read_to_string(&path) {
        Ok(previous) => previous == text,
        Err(_) => {
            // First run for this key: record, and pass.
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, text);
            true
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let steal0 = host::steal_ticks();
    let result = match args.workload.as_str() {
        "nmea_replay" => single::run(single::Kind::Replay, args.seed, args.seconds, args.trace),
        "nmea_translucent" => single::run(
            single::Kind::Translucent,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "fusion_pf" => single::run(single::Kind::Fusion, args.seed, args.seconds, args.trace),
        _ => fleet::run(args.seed, args.seconds, args.trace),
    };
    let mut run: Run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed to set up or run: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let steal = steal0
        .zip(host::steal_ticks())
        .map(|(a, b)| b.saturating_sub(a));

    let batches = run.batches();
    run.checks
        .push(("batch_tail_supported".into(), batches.is_some()));
    let (p50_ms, tail) = match &batches {
        Some(b) => (b.p50_ms, Some(b.tail)),
        None => (f64::NAN, None),
    };
    let tail_ms = tail.map_or(f64::NAN, |t| t.value);
    // A tail below the median would mean the statistics are broken.
    run.checks
        .push(("batch_tail_not_below_p50".into(), tail_ms >= p50_ms));
    run.checks.push((
        "repeat_matches_record".into(),
        matches_record(&args, &run.determinism),
    ));
    let failed_checks = run.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let failed = run.failed + failed_checks;
    let correct = failed == 0;

    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"repeats\": {}, \"tail_batches\": {}, \"tail\": {}, \"checks\": {{",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.to_json(steal),
        run.repeats,
        run.batch_tail_s.len(),
        tail.map_or("null".to_string(), |t| format!(
            "{{\"percentile\": {}, \"beyond\": {}, \"samples\": {}}}",
            t.percentile, t.beyond, t.samples
        )),
    );
    for (i, (name, ok)) in run.checks.iter().enumerate() {
        let _ = write!(
            report,
            "{}{}: {ok}",
            if i > 0 { ", " } else { "" },
            json_str(name)
        );
    }
    report.push_str("}, \"repeatable\": {");
    for (i, (name, v)) in run.determinism.iter().chain(&run.extra).enumerate() {
        let _ = write!(
            report,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            num(*v)
        );
    }
    report.push_str("}}}");
    println!("{report}");

    let metrics = if args.trace {
        let mut values: Vec<(&str, f64, &str)> =
            PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect();
        for layer in &run.layers {
            if let Some(slot) = values.iter_mut().find(|m| m.0 == layer.name) {
                slot.1 = layer.value;
            }
        }
        metrics_json(&values)
    } else {
        metrics_json(&[
            ("setup_s", run.setup_s, "s"),
            ("positions_per_s", run.positions_per_s, "1/s"),
            ("batch_ms_p50", p50_ms, "ms"),
            ("batch_ms_tail", tail_ms, "ms"),
            ("peak_rss_mb", run.peak_rss_mb, "MiB"),
            ("err_m_p95", run.err_m_p95, "m"),
            ("availability", run.availability, "ratio"),
        ])
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        run.attempted.max(1)
    );
    ExitCode::SUCCESS
}
