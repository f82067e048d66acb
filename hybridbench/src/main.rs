//! hybridbench — end-to-end benchmark of the PATCHECKO hybrid audit.
//!
//! ```text
//! cargo run --release --manifest-path hybridbench/Cargo.toml -- \
//!     --workload <audit_cold|audit_warm|stream_topk|service> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run trains the detector once (untimed), sets the workload up
//! several times and keeps the last set-up, runs the workload's gates,
//! then repeats its operation for `--seconds`, checking every output.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run goes through
//! the traced layer seams and reports the per-layer ledger instead.
//!
//! Operation latency is reported as the median, over the operations, of
//! each one's time in multiples of a fixed calibration workload timed
//! around it (see `workloads::Samples`): on a shared machine the same
//! operation swings by up to 1.6× in phases that can outlast a run, so
//! raw times do not repeat from run to run, while the ratio does.
//! A workload that mixes distinct requests reports the mean over its
//! request kinds of each kind's median, so every kind weighs in.
//! Set-up time is calibrated the same way and given in seconds at the
//! calibration workload's reference time. The raw wall-clock percentiles
//! are in the per-layer ledger.

mod ledger;
mod workloads;

use ledger::Ledger;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::Workload;

/// Set-ups per run, `setup_s` being their median: at least `SETUP_MIN`,
/// more while they have taken less than `SETUP_BUDGET_S` seconds, so a
/// cheap set-up is sampled often enough to give a steady median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 50;
const SETUP_BUDGET_S: f64 = 3.0;
/// The calibration workload's time that calibrated set-up seconds are
/// expressed at: about its median on a 2-vCPU 2.1 GHz virtual machine.
const CALIBRATION_REFERENCE_MS: f64 = 8.0;
/// Calibration runs in each block around the set-ups.
const CALIBRATION_RUNS: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let workload = get("workload")?.clone();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace,
    })
}

/// The `q`-quantile of `values` (nearest rank, rounding down).
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q) as usize]
}

/// The median time of `CALIBRATION_RUNS` runs of the calibration
/// workload, milliseconds.
fn calibration_median() -> f64 {
    let runs: Vec<f64> = (0..CALIBRATION_RUNS)
        .map(|_| workloads::calibration_ms())
        .collect();
    percentile(&runs, 0.5)
}

/// The mean, over the operation kinds in `calibrated`, of each kind's
/// median calibrated latency.
fn latency_p50_cal(calibrated: &[(usize, f64)]) -> f64 {
    let mut kinds: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(kind, value) in calibrated {
        kinds.entry(kind).or_default().push(value);
    }
    kinds.values().map(|v| percentile(v, 0.5)).sum::<f64>() / kinds.len() as f64
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("hybridbench: {e}");
        std::process::exit(2);
    });
    let model = workloads::train_model();

    // Set-up time is calibrated against the median of a block of
    // calibration runs before the set-ups and one after them. A single run
    // right next to a set-up is not used: the threads a set-up or its
    // tear-down leaves winding down slow it by up to 2×.
    let cal_before = calibration_median();
    let mut setup_s = Vec::new();
    let mut work: Option<Box<dyn Workload>> = None;
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(old) = work.take() {
            old.finish();
        }
        let started = Instant::now();
        work = Some(workloads::setup(&args.workload, args.seed, &model));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let cal_ms = (cal_before + calibration_median()) / 2.0;
    let mut work = work.expect("at least one set-up");
    let gate = work.gate();
    if let Err(e) = &gate {
        eprintln!("hybridbench: gate failed: {e}");
    }

    ledger::mark_op_thread();
    let ledger = args.trace.then(|| Arc::new(Ledger::default()));
    let cache_before = work.cache();
    let snap_before = scope::snapshot();
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let samples = work.measure(until, ledger.as_ref());
    let snap = scope::snapshot().since(&snap_before);
    let cache_after = work.cache();
    let ops = samples.latencies_ms.len() as u64;
    if let Some(e) = &samples.first_error {
        eprintln!(
            "hybridbench: {} of {ops} operations failed; first: {e}",
            samples.failed
        );
    }

    let metrics: Vec<(&str, f64, &str)> = match &ledger {
        None => vec![
            (
                "latency_p50_cal",
                latency_p50_cal(&samples.calibrated),
                "cal",
            ),
            (
                "setup_s",
                percentile(&setup_s, 0.5) * CALIBRATION_REFERENCE_MS / cal_ms,
                "s",
            ),
        ],
        Some(ledger) => {
            let mut layers = work.layers(ledger, &snap, &samples);
            let per_op = |n: u64| n as f64 / ops.max(1) as f64;
            layers.insert(
                "cache_hits",
                per_op(cache_after.0.saturating_sub(cache_before.0)),
            );
            layers.insert(
                "cache_misses",
                per_op(cache_after.1.saturating_sub(cache_before.1)),
            );
            layers.insert("latency_p10_ms", percentile(&samples.latencies_ms, 0.1));
            layers.insert("latency_p50_ms", percentile(&samples.latencies_ms, 0.5));
            ledger::report(&layers)
        }
    };
    work.finish();

    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let entry = vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(unit.into())),
            ];
            (name.to_string(), Value::Map(entry))
        })
        .collect();
    let result = Value::Map(vec![
        (
            "correct".into(),
            Value::Bool(gate.is_ok() && samples.failed == 0),
        ),
        ("attempted".into(), Value::UInt(ops)),
        ("failed".into(), Value::UInt(samples.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("serialize result")
    );
}
