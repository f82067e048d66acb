//! # patchecko-bench — evaluation harness
//!
//! One binary per table, figure and ablation of the paper's evaluation
//! (§V). The repository's performance harness is `hybridbench`, a
//! package of its own; this crate times nothing beyond the per-stage
//! seconds the tables report.
//!
//! | target | regenerates |
//! |---|---|
//! | `fig8_training_curves` | Figure 8a/8b: training accuracy and loss |
//! | `fig7_false_positive_rates` | Figure 7: FP rate per CVE/device/basis |
//! | `table3_dynamic_profile` | Table III: candidate dynamic feature vectors |
//! | `table45_rankings` | Tables IV & V: top-10 similarity rankings |
//! | `table67_hybrid_accuracy` | Tables VI & VII: per-CVE hybrid accuracy |
//! | `table8_patch_detection` | Table VIII: final patch verdicts |
//! | `baseline_comparison` | §VI: the detector against Gemini-style and bipartite baselines |
//! | `ablation_feature_set` | Table I feature-set ablation |
//! | `ablation_exploit_channel` | §V-D: the exploit channel ablation |
//!
//! Every binary accepts `--scale <f>` (device-library scale, default 0.25),
//! `--libs <n>` (Dataset I libraries, default 100), `--epochs <n>`
//! (default 30) and `--out <dir>` (JSON artifact directory, default
//! `results/`). `--quick` shrinks everything for smoke runs.

use corpus::dataset1::Dataset1Config;
use neural::net::TrainConfig;
use patchecko_core::detector::DetectorConfig;
use patchecko_core::eval::{build_evaluation, Evaluation, EvaluationConfig};
use patchecko_core::pipeline::PipelineConfig;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Common command-line options for the table/figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Device library scale (1.0 = the paper-derived sizes).
    pub scale: f64,
    /// Dataset I library count.
    pub libs: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Pairs sampled per source function.
    pub pairs_per_function: usize,
    /// Output directory for JSON artifacts.
    pub out: PathBuf,
}

impl Default for HarnessOpts {
    fn default() -> HarnessOpts {
        HarnessOpts {
            scale: 0.25,
            libs: 100,
            epochs: 30,
            pairs_per_function: 12,
            out: PathBuf::from("results"),
        }
    }
}

impl HarnessOpts {
    /// Parse from `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> HarnessOpts {
        let mut opts = HarnessOpts::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let take_value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i).unwrap_or_else(|| usage("missing flag value")).clone()
            };
            match args[i].as_str() {
                "--scale" => opts.scale = take_value(&mut i).parse().unwrap_or_else(|_| usage("bad --scale")),
                "--libs" => opts.libs = take_value(&mut i).parse().unwrap_or_else(|_| usage("bad --libs")),
                "--epochs" => {
                    opts.epochs = take_value(&mut i).parse().unwrap_or_else(|_| usage("bad --epochs"))
                }
                "--pairs" => {
                    opts.pairs_per_function =
                        take_value(&mut i).parse().unwrap_or_else(|_| usage("bad --pairs"))
                }
                "--out" => opts.out = PathBuf::from(take_value(&mut i)),
                "--quick" => {
                    opts.scale = 0.05;
                    opts.libs = 20;
                    opts.epochs = 12;
                    opts.pairs_per_function = 8;
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
            i += 1;
        }
        opts
    }

    /// The evaluation configuration these options describe.
    pub fn evaluation_config(&self) -> EvaluationConfig {
        EvaluationConfig {
            dataset1: Dataset1Config {
                num_libraries: self.libs,
                min_functions: 12,
                max_functions: 20,
                seed: 1,
                include_catalog: true,
            },
            detector: DetectorConfig {
                pairs_per_function: self.pairs_per_function,
                train: TrainConfig { epochs: self.epochs, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
                ..DetectorConfig::default()
            },
            pipeline: PipelineConfig::default(),
            device_scale: self.scale,
            bulk_db: 0,
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--scale F] [--libs N] [--epochs N] [--pairs N] [--out DIR] [--quick]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Build the full evaluation (datasets, detector training, device images),
/// logging progress to stderr.
pub fn build(opts: &HarnessOpts) -> Evaluation {
    eprintln!(
        "[patchecko-bench] building evaluation: libs={} epochs={} scale={}",
        opts.libs, opts.epochs, opts.scale
    );
    let started = std::time::Instant::now();
    let ev = {
        let _span = scope::SpanGuard::enter("bench_build");
        build_evaluation(&opts.evaluation_config())
    };
    eprintln!(
        "[patchecko-bench] detector test accuracy {:.2}% (AUC {:.4}, {} pairs) in {:.1}s",
        ev.metrics.accuracy * 100.0,
        ev.metrics.auc,
        ev.metrics.pairs,
        started.elapsed().as_secs_f64()
    );
    ev
}

/// Print the stage timings and counters accumulated in the process-global
/// [`scope`] registry — the same `span.static_scan` / `span.dynamic_stage`
/// histograms the service and CLI report, populated here by the library
/// instrumentation as the harness exercises each stage.
pub fn print_telemetry(what: &str) {
    let snap = scope::snapshot();
    if snap.is_empty() {
        return;
    }
    eprintln!("[patchecko-bench] telemetry ({what}):");
    eprintln!("{}", snap.to_table());
}

/// Write a JSON artifact under the output directory.
pub fn write_json<T: Serialize>(out_dir: &Path, name: &str, value: &T) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("[patchecko-bench] cannot create {}: {e}", out_dir.display());
        return;
    }
    let path = out_dir.join(name);
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("[patchecko-bench] cannot write {}: {e}", path.display());
            } else {
                eprintln!("[patchecko-bench] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("[patchecko-bench] serialize {name}: {e}"),
    }
}

/// Fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table and print its header row.
    pub fn new(headers: &[(&str, usize)]) -> Table {
        let widths: Vec<usize> = headers.iter().map(|(_, w)| *w).collect();
        let line: Vec<String> =
            headers.iter().map(|(h, w)| format!("{h:>width$}", width = w)).collect();
        println!("{}", line.join("  "));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        Table { widths }
    }

    /// Print one row.
    pub fn row(&self, cells: &[String]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>width$}", width = w))
            .collect();
        println!("{}", line.join("  "));
    }
}
