//! The PATCHECKO command-line tool.
//!
//! ```text
//! patchecko train        --out model.json [--libs 100] [--epochs 30]
//! patchecko build-image  --device android_things|pixel2xl --out DIR [--scale 0.25]
//! patchecko list-cves
//! patchecko inspect      --cve CVE-2018-9412 [--patched] [--asm]
//! patchecko scan         --model model.json --image DIR --cve CVE-2018-9412
//! patchecko patch-check  --model model.json --image DIR --cve CVE-2018-9412
//! patchecko audit        --model model.json --image DIR [--report report.md]
//! patchecko batch-audit  --model model.json --images DIR[,DIR...] [--cache-dir DIR]
//! patchecko corpus       --functions N [--model model.json] [--working-set N]
//! patchecko serve        --model model.json --images DIR[,DIR...] --socket PATH
//! patchecko client       --socket PATH [--tenant NAME] --stats|--drain|--audit IDX|...
//! ```
//!
//! `build-image` writes one `.fwb` container per library (the on-disk wire
//! format of `fwbin::format`); `scan`/`audit` work purely from those files
//! plus the built-in vulnerability database — the deployment flow of the
//! paper: no source, no symbols, no vendor cooperation.
//!
//! `scan`, `audit`, and `batch-audit` accept `--cache-dir DIR` to reuse a
//! persistent content-addressed artifact cache across invocations and
//! `--cache-stats` to print hit/miss/extraction counters; `--threads N`
//! pins the scheduler/pipeline worker count (`PipelineConfig::threads`,
//! overriding the `PATCHECKO_THREADS` environment variable).
//!
//! Observability (same three commands): `--metrics` prints the run's full
//! telemetry table — per-stage span timings plus cache / scheduler / pool
//! counters: the hub's own `scope::MetricsRegistry` merged with the
//! process-global one (`ScanHub::telemetry_snapshot`) — and
//! `--trace-out FILE.json` writes a Chrome-trace of every pipeline span
//! (load it in `chrome://tracing` or Perfetto).

use patchecko::core::detector::{self, Detector, DetectorConfig};
use patchecko::core::differential::DifferentialConfig;
use patchecko::core::eval;
use patchecko::core::pipeline::{Basis, Patchecko, PipelineConfig, RunCtx};
use patchecko::core::CancelToken;
use patchecko::corpus::{self, dataset1::Dataset1Config};
use patchecko::fwbin::{Binary, FirmwareImage};
use patchecko::fwlang::pretty;
use patchecko::neural::net::TrainConfig;
use patchecko::scand::{BreakerConfig, ScanClient, ScanServer, ServerConfig, TenantQuota};
use patchecko::scanhub::{self, JobOutcome, JobSpec, ScanHub};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "train" => cmd_train(&flags),
        "build-image" => cmd_build_image(&flags),
        "list-cves" => cmd_list_cves(),
        "inspect" => cmd_inspect(&flags),
        "scan" => cmd_scan(&flags),
        "patch-check" => cmd_patch_check(&flags),
        "audit" => cmd_audit(&flags),
        "batch-audit" => cmd_batch_audit(&flags),
        "corpus" => cmd_corpus(&flags),
        "serve" => cmd_serve(&flags),
        "client" => cmd_client(&flags),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage() {
    eprintln!(
        "PATCHECKO — hybrid firmware analysis for known vulnerabilities (DSN 2020 reproduction)

USAGE:
  patchecko train        --out model.json [--libs N] [--epochs N] [--pairs N]
  patchecko build-image  --device android_things|pixel2xl --out DIR [--scale F]
  patchecko list-cves
  patchecko inspect      --cve ID [--patched] [--asm]
  patchecko scan         --model model.json --image DIR --cve ID
  patchecko patch-check  --model model.json --image DIR --cve ID
  patchecko audit        --model model.json --image DIR [--report FILE.md] [--json FILE.json]
  patchecko batch-audit  --model model.json --images DIR[,DIR...] [--cves ID[,ID...]]
                         [--basis vulnerable|patched|both] [--json FILE.json]
  patchecko corpus       --functions N [--seed N] [--plant-every N] [--working-set N]
                         [--model model.json] [--json FILE.json]
                         (stream-generate a corpus across 4 ISAs x 6 opt levels;
                         with --model, streaming-scan it against the CVE database
                         under the bounded working set and report CVE/CWE matches)
  patchecko serve        --model model.json --images DIR[,DIR...] --socket PATH
                         [--cache-dir DIR] [--workers N] [--queue-limit N]
                         [--retry-after-ms N] [--io-timeout-ms N]
                         [--tenant-quota RATE:BURST[:INFLIGHT]]
                         [--breaker-threshold N] [--breaker-cooldown-ms N]
                         [--checkpoint-every N]
  patchecko client       --socket PATH [--tenant NAME] [--deadline-ms N]
                         <--stats | --drain |
                         --audit IDX | --batch-audit IDX[,IDX...] |
                         --scan IDX --cve ID [--basis vulnerable|patched]>

CACHING / SCHEDULING (scan, audit, batch-audit, serve):
  --cache-dir DIR   load/persist the content-addressed artifact cache in DIR
  --cache-stats     print cache hit/miss/extraction counters after the run;
                    `--cache-stats json` emits them as machine-readable JSON
  --threads N       worker threads for the pipeline and the batch scheduler
                    (default: the PATCHECKO_THREADS env var, then the number
                    of CPUs; --threads 1 forces fully serial execution)
  --retrieval MODE  candidate retrieval in the static scan: `exact` scores
                    every (reference, target) pair (the default); `topk`
                    or `topk:K` pre-filters with the signature/LSH index
                    and scores only the top-K references per target
                    (K defaults to 16; `topk:K` with K >= the reference
                    count is bitwise-identical to exact). Pruning shows
                    up in --metrics as the `index.candidates` and
                    `index.pairs_pruned` counters

OBSERVABILITY (scan, audit, batch-audit):
  --metrics         print the run's telemetry table: per-stage span timings
                    (static scan, dynamic profiling, differential, scheduler
                    jobs) and cache/scheduler/pool counters in one
                    snapshot; `--metrics json` emits the full snapshot
                    as machine-readable JSON
  --trace-out FILE  write a Chrome-trace JSON of every pipeline span; load
                    it in chrome://tracing or Perfetto

SERVICE:
  `serve` runs the long-lived multi-tenant scan daemon: one warm model and
  one artifact cache shared (namespace-isolated) by every tenant, fair
  round-robin scheduling, admission control with typed overload replies,
  and live per-tenant telemetry. `client` speaks its framed protocol:
  `--tenant` selects the cache namespace, `--stats` prints live service
  statistics as JSON, and `--drain` persists the caches and stops the
  daemon gracefully.

  Hardening knobs (serve): `--io-timeout-ms` is the per-connection socket
  read/write budget — stalled or half-open peers are reaped after it
  (default 30000; 0 disables). `--tenant-quota RATE:BURST[:INFLIGHT]`
  meters each tenant with a token bucket (RATE tokens/s, capacity BURST)
  plus an optional in-flight job cap; rejections are typed QuotaExceeded
  with a live retry hint. `--breaker-threshold` consecutive dynamic-stage
  failures trip a per-tenant circuit breaker (0 disables): while open,
  that tenant's jobs run static-only (degraded) without burning VM time,
  and after `--breaker-cooldown-ms` one half-open probe retries real
  dynamics. `--checkpoint-every N` persists the caches every N completed
  jobs so a crash loses at most one checkpoint interval of warm state; a
  restart takes over the dead daemon's stale socket automatically.

  Client requests can carry `--deadline-ms`: past the deadline the daemon
  answers with a typed DeadlineExceeded and discards the job if it has
  not started — an executor never burns time on an expired request."
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
            match value {
                Some(v) => {
                    out.insert(key.to_string(), v.clone());
                    i += 2;
                }
                None => {
                    out.insert(key.to_string(), "true".into());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("missing required flag --{key}"))
}

/// The numeric value of `--key`, or `default` when the flag is absent.
/// A value that does not parse is an error naming the flag, never a
/// silent fallback to the default.
fn flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: not a number: {v}")),
        None => Ok(default),
    }
}

// ---------------------------------------------------------------------------

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = flag(flags, "out")?;
    let libs: usize = flag_or(flags, "libs", 100)?;
    let epochs: usize = flag_or(flags, "epochs", 30)?;
    let pairs: usize = flag_or(flags, "pairs", 12)?;

    eprintln!("building Dataset I ({libs} libraries)...");
    let ds = corpus::build_dataset1(&Dataset1Config {
        num_libraries: libs,
        min_functions: 12,
        max_functions: 20,
        seed: 1,
        include_catalog: true,
    });
    eprintln!("  {} binaries, {} function samples", ds.variants.len(), ds.total_function_samples());
    eprintln!("training ({epochs} epochs)...");
    let (det, _, metrics) = detector::train(
        &ds,
        &DetectorConfig {
            pairs_per_function: pairs,
            train: TrainConfig { epochs, batch: 256, lr: 1e-3, seed: 7, ..Default::default() },
            ..DetectorConfig::default()
        },
    );
    eprintln!(
        "  held-out accuracy {:.2}%, AUC {:.4} ({} pairs)",
        metrics.accuracy * 100.0,
        metrics.auc,
        metrics.pairs
    );
    let json = serde_json::to_string(&det).map_err(|e| e.to_string())?;
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out} ({} KiB)", json.len() / 1024);
    Ok(())
}

fn load_model(path: &str) -> Result<Detector, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_build_image(flags: &HashMap<String, String>) -> Result<(), String> {
    let device = flag(flags, "device")?;
    let out = PathBuf::from(flag(flags, "out")?);
    let scale: f64 = flag_or(flags, "scale", 0.25)?;
    let spec = match device {
        "android_things" => corpus::android_things_spec(),
        "pixel2xl" => corpus::pixel2xl_spec(),
        other => return Err(format!("unknown device `{other}` (android_things|pixel2xl)")),
    };
    eprintln!("building {} at scale {scale}...", spec.name);
    let build = corpus::build_device(&spec, &corpus::full_catalog(), scale);
    std::fs::create_dir_all(&out).map_err(|e| format!("mkdir {}: {e}", out.display()))?;
    for bin in &build.image.binaries {
        let path = out.join(format!("{}.fwb", bin.lib_name));
        std::fs::write(&path, bin.to_bytes()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let meta = serde_json::json!({
        "device": build.image.device,
        "patch_level": build.image.patch_level,
        "libraries": build.image.binaries.len(),
        "functions": build.image.total_functions(),
    });
    std::fs::write(out.join("image.json"), serde_json::to_string_pretty(&meta).unwrap())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} libraries ({} functions) to {}",
        build.image.binaries.len(),
        build.image.total_functions(),
        out.display()
    );
    eprintln!("note: ground truth is intentionally NOT written — scan without it.");
    Ok(())
}

/// Load a firmware image from a directory of `.fwb` files.
fn load_image(dir: &str) -> Result<FirmwareImage, String> {
    let meta_path = Path::new(dir).join("image.json");
    let (device, patch_level) = if let Ok(meta) = std::fs::read_to_string(&meta_path) {
        let v: serde_json::Value = serde_json::from_str(&meta).map_err(|e| e.to_string())?;
        (
            v["device"].as_str().unwrap_or("unknown").to_string(),
            v["patch_level"].as_str().unwrap_or("unknown").to_string(),
        )
    } else {
        ("unknown".into(), "unknown".into())
    };
    let mut image = FirmwareImage::new(device, patch_level);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {dir}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "fwb").unwrap_or(false))
        .collect();
    entries.sort();
    for path in entries {
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let bin = Binary::from_bytes(&bytes)
            .map_err(|e| format!("parse {}: {e}", path.display()))?;
        image.binaries.push(bin);
    }
    if image.binaries.is_empty() {
        return Err(format!("no .fwb files in {dir}"));
    }
    Ok(image)
}

fn cmd_list_cves() -> Result<(), String> {
    println!(
        "{:<16} {:<20} {:<8} {:<5} {:<10} {:<9} description",
        "CVE", "library", "CWE", "CVSS", "severity", "patch"
    );
    for e in corpus::full_catalog() {
        let meta = corpus::annotate(&e);
        println!(
            "{:<16} {:<20} {:<8} {:<5} {:<10} {:<9} {}",
            e.cve,
            e.library,
            meta.cwe(),
            format!("{:.1}", meta.metrics.base_score),
            format!("{:?}", e.severity).to_lowercase(),
            format!("{:?}", e.magnitude).to_lowercase(),
            e.description
        );
    }
    Ok(())
}

fn cmd_inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let cve = flag(flags, "cve")?;
    let patched = flags.contains_key("patched");
    let catalog = corpus::full_catalog();
    let entry = catalog.iter().find(|e| e.cve == cve).ok_or(format!("unknown CVE {cve}"))?;
    println!("{} — {}", entry.cve, entry.description);
    println!("patch: {}", entry.patch.summary());
    let f = if patched { &entry.patched } else { &entry.vulnerable };
    println!("\n--- {} source ({}) ---\n", if patched { "patched" } else { "vulnerable" }, entry.function);
    println!("{}", pretty::function(f));
    if flags.contains_key("asm") {
        let db = corpus::build_vulndb(0, 1);
        let e = db.get(cve).unwrap();
        let bin = if patched { &e.patched_bin } else { &e.vulnerable_bin };
        let dis = patchecko::disasm::disassemble(bin, 0).map_err(|e| e.to_string())?;
        println!("--- {} {} disassembly ---\n", bin.arch, bin.opt);
        println!("{}", patchecko::disasm::fmt::format_function(&dis, Some(bin), &entry.function));
    }
    Ok(())
}

fn build_analyzer(flags: &HashMap<String, String>) -> Result<Patchecko, String> {
    let det = load_model(flag(flags, "model")?)?;
    let mut cfg = PipelineConfig::default();
    if let Some(t) = flags.get("threads") {
        let n: usize = t.parse().map_err(|_| format!("--threads: not a number: {t}"))?;
        cfg.threads = Some(n.max(1));
    }
    if let Some(r) = flags.get("retrieval") {
        cfg.retrieval = r.parse().map_err(|e| format!("--retrieval: {e}"))?;
    }
    Ok(Patchecko::new(det, cfg))
}

/// Bind an analyzer to an artifact store, persistent when `--cache-dir`
/// is given. Cache and scheduler counters record into the hub's own
/// registry and stage spans into the process-global one; `--metrics`
/// prints the two merged. Chrome-trace capture turns on here when
/// `--trace-out` is given, before any stage span runs.
fn build_hub(flags: &HashMap<String, String>, analyzer: Patchecko) -> Result<ScanHub, String> {
    if flags.contains_key("trace-out") {
        scope::trace::enable();
    }
    match flags.get("cache-dir") {
        Some(dir) => {
            ScanHub::with_cache_dir(analyzer, dir).map_err(|e| format!("load cache {dir}: {e}"))
        }
        None => Ok(ScanHub::new(analyzer)),
    }
}

/// After a cached command: print counters under `--cache-stats` and the
/// telemetry table under `--metrics` (both accept a `json` value for
/// machine-readable output), write the Chrome trace under `--trace-out`,
/// write the store back under `--cache-dir`.
fn finish_hub(flags: &HashMap<String, String>, hub: &ScanHub) -> Result<(), String> {
    match flags.get("cache-stats").map(String::as_str) {
        Some("json") => println!(
            "{}",
            serde_json::to_string_pretty(&hub.stats()).map_err(|e| e.to_string())?
        ),
        Some(_) => eprintln!("cache: {}", hub.stats()),
        None => {}
    }
    match flags.get("metrics").map(String::as_str) {
        Some("json") => println!(
            "{}",
            serde_json::to_string_pretty(&hub.telemetry_snapshot()).map_err(|e| e.to_string())?
        ),
        Some(_) => println!("\n{}", hub.telemetry_snapshot().to_table()),
        None => {}
    }
    if let Some(path) = flags.get("trace-out") {
        let events = scope::trace::write_chrome_trace(Path::new(path))
            .map_err(|e| format!("write trace {path}: {e}"))?;
        eprintln!("wrote {path} ({events} trace events)");
    }
    if hub.persist().map_err(|e| format!("persist cache: {e}"))? {
        eprintln!("cache persisted to {}", flags["cache-dir"]);
    }
    Ok(())
}

fn cmd_scan(flags: &HashMap<String, String>) -> Result<(), String> {
    let cve = flag(flags, "cve")?;
    let image = load_image(flag(flags, "image")?)?;
    let hub = build_hub(flags, build_analyzer(flags)?)?;
    let db = corpus::build_vulndb(0, 1);
    let entry = db.get(cve).ok_or(format!("unknown CVE {cve}"))?;

    eprintln!(
        "scanning {} ({} libraries, {} functions) for {cve}...",
        image.device,
        image.binaries.len(),
        image.total_functions()
    );
    let ctx = hub.store().ctx(CancelToken::unbounded());
    let result = hub
        .analyzer
        .analyze_image(&image, &[(entry, Basis::Vulnerable)], &ctx)
        .map_err(|e| e.to_string())?
        .pop()
        .expect("one analysis per pair");
    let mut any = false;
    for a in &result.analyses {
        if a.dynamic.ranking.is_empty() {
            continue;
        }
        any = true;
        println!("\n{}: {} candidates, {} validated", a.scan.library, a.scan.candidates.len(), a.dynamic.validated.len());
        for (i, r) in a.dynamic.ranking.iter().take(3).enumerate() {
            println!("  #{} function[{}] distance {:.1}", i + 1, r.function_index, r.distance);
        }
    }
    match (&result.best, any) {
        (Some(m), _) => println!(
            "\nbest match: {}:{} (distance {:.1}) — run `patch-check` to test patch presence",
            m.library, m.function_index, m.distance
        ),
        (None, _) => println!("\nno candidate survived — {cve} does not appear in this image"),
    }
    finish_hub(flags, &hub)
}

fn cmd_patch_check(flags: &HashMap<String, String>) -> Result<(), String> {
    let cve = flag(flags, "cve")?;
    let image = load_image(flag(flags, "image")?)?;
    let analyzer = build_analyzer(flags)?;
    let db = corpus::build_vulndb(0, 1);
    let entry = db.get(cve).ok_or(format!("unknown CVE {cve}"))?;

    let diff_cfg = DifferentialConfig::default();
    let found = eval::audit_one_cve(&analyzer, entry, &image, &diff_cfg, &RunCtx::default())
        .map_err(|e| e.to_string())?;
    let Some((target, v)) = found else {
        println!("{cve}: target not found in the image");
        return Ok(());
    };
    println!("{cve}: target {target}");
    println!(
        "  dynamic distance: {:.1} (vulnerable ref) vs {:.1} (patched ref)",
        v.dyn_dist_vulnerable, v.dyn_dist_patched
    );
    println!(
        "  static distance:  {:.2} vs {:.2}; signature votes {}v/{}p",
        v.static_dist_vulnerable,
        v.static_dist_patched,
        v.signature.votes_vulnerable,
        v.signature.votes_patched
    );
    println!(
        "  verdict: {}{}{}",
        if v.patched { "PATCHED" } else { "STILL VULNERABLE" },
        if v.tie_break { " (tie-break; evidence inconclusive)" } else { "" },
        if v.degraded { " (degraded: static evidence only)" } else { "" }
    );
    Ok(())
}

fn cmd_audit(flags: &HashMap<String, String>) -> Result<(), String> {
    let image = load_image(flag(flags, "image")?)?;
    let hub = build_hub(flags, build_analyzer(flags)?)?;
    let db = corpus::build_vulndb(0, 1);
    let diff_cfg = DifferentialConfig::default();

    eprintln!(
        "auditing {} ({} libraries, {} functions)...",
        image.device,
        image.binaries.len(),
        image.total_functions()
    );
    let report = hub.audit_with_telemetry(&db, &image, &diff_cfg).map_err(|e| e.to_string())?;
    for f in &report.findings {
        let verdict = match f.status {
            patchecko::core::AuditStatus::Vulnerable => "VULNERABLE",
            patchecko::core::AuditStatus::Patched => "patched",
            patchecko::core::AuditStatus::NotFound => "not found",
            patchecko::core::AuditStatus::Error => "ERROR",
        };
        println!(
            "{:<16} {:<8} {:<28} {}{}",
            f.cve,
            f.cwe.as_deref().unwrap_or("—"),
            f.located.as_deref().unwrap_or("—"),
            verdict,
            if f.degraded { " (degraded)" } else { "" }
        );
    }
    println!(
        "\nexposed to {} of {} known CVEs",
        report.count(patchecko::core::AuditStatus::Vulnerable),
        report.findings.len()
    );
    let degraded = report.degraded().count();
    if degraded > 0 {
        eprintln!("warning: {degraded} verdict(s) rest on degraded static-only evidence");
    }
    for f in report.errors() {
        eprintln!(
            "warning: {} scan failed: {}",
            f.cve,
            f.error.as_ref().map(ToString::to_string).unwrap_or_default()
        );
    }
    if let Some(path) = flags.get("report") {
        std::fs::write(path, report.to_markdown()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = flags.get("json") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    finish_hub(flags, &hub)
}

fn cmd_batch_audit(flags: &HashMap<String, String>) -> Result<(), String> {
    let hub = std::sync::Arc::new(build_hub(flags, build_analyzer(flags)?)?);
    let db = std::sync::Arc::new(corpus::build_vulndb(0, 1));

    let mut images = Vec::new();
    for dir in flag(flags, "images")?.split(',').filter(|d| !d.is_empty()) {
        images.push(load_image(dir)?);
    }
    if images.is_empty() {
        return Err("--images: no image directories given".into());
    }
    let bases: &[Basis] = match flags.get("basis").map(String::as_str) {
        None | Some("vulnerable") => &[Basis::Vulnerable],
        Some("patched") => &[Basis::Patched],
        Some("both") => &[Basis::Vulnerable, Basis::Patched],
        Some(other) => return Err(format!("--basis: `{other}` (vulnerable|patched|both)")),
    };
    let jobs: Vec<JobSpec> = match flags.get("cves") {
        Some(list) => {
            let mut jobs = Vec::new();
            for cve in list.split(',').filter(|c| !c.is_empty()) {
                if db.get(cve).is_none() {
                    return Err(format!("unknown CVE {cve}"));
                }
                for image in 0..images.len() {
                    for &basis in bases {
                        jobs.push(JobSpec { image, cve: cve.to_string(), basis });
                    }
                }
            }
            jobs
        }
        None => scanhub::full_schedule(images.len(), &db, bases),
    };
    let images = std::sync::Arc::new(images);

    eprintln!(
        "dispatching {} jobs over {} images ({} threads)...",
        jobs.len(),
        images.len(),
        hub.analyzer.config.effective_threads()
    );
    let report = hub.batch_audit(&images, &db, &jobs);

    for r in &report.records {
        let image = &images[r.spec.image.min(images.len() - 1)];
        match &r.outcome {
            JobOutcome::Completed { candidates, validated, best } => {
                let located = match best {
                    Some(m) => format!("{}:{} (distance {:.1})", m.library, m.function_index, m.distance),
                    None => "no match".into(),
                };
                let cwe = db.get(&r.spec.cve).map(|e| e.meta.cwe().to_string()).unwrap_or_default();
                println!(
                    "{:<14} {:<16} {:<8} {:<10?} {:>3} candidates {:>3} validated  {}  [{:.2}s]",
                    image.device, r.spec.cve, cwe, r.spec.basis, candidates, validated, located, r.seconds
                );
            }
            JobOutcome::Failed { error, attempts } => {
                println!(
                    "{:<14} {:<16} {:<10?} FAILED after {attempts} attempt(s): {error}",
                    image.device, r.spec.cve, r.spec.basis
                );
            }
        }
    }
    println!(
        "\n{} jobs ({} completed, {} failed) in {:.2}s — {:.1} jobs/s on {} threads, {} functions",
        report.records.len(),
        report.completed(),
        report.failed(),
        report.seconds,
        report.jobs_per_second(),
        report.threads,
        report.functions
    );
    println!("cache: {} ({} this batch)", report.cache, report.cache_delta);
    let retried = report.retried().count();
    if retried > 0 {
        eprintln!("note: {retried} job(s) completed after transient-fault retries");
    }

    if let Some(path) = flags.get("json") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    finish_hub(flags, &hub)?;
    if report.failed() > 0 {
        // Per-job detail was printed above; the summary is the exit signal:
        // any permanently failed job makes the whole batch exit non-zero.
        eprintln!("\nfailed jobs:\n{}", report.failure_summary());
        return Err(format!("{} of {} jobs failed permanently", report.failed(), report.records.len()));
    }
    Ok(())
}

/// Stream-generate a production-scale corpus and (with `--model`) run the
/// bounded-working-set streaming scan against the CVE reference database,
/// reporting matched CVE/CWE identities and planted-CVE recall.
fn cmd_corpus(flags: &HashMap<String, String>) -> Result<(), String> {
    let functions: usize = flag_or(flags, "functions", 1_000)?;
    let seed: u64 = flag_or(flags, "seed", 0xC0_0C05)?;
    let working_set: usize = flag_or::<usize>(flags, "working-set", 64)?.max(1);
    let mut cfg = corpus::StreamConfig::sized(functions, seed);
    cfg.plant_every = flag_or(flags, "plant-every", cfg.plant_every)?;

    eprintln!(
        "corpus: {} units / {} functions ({} planted CVEs), {} ISAs × {} opt levels, seed {seed}",
        cfg.units(),
        cfg.total_functions(),
        cfg.planted_units(),
        cfg.archs.len(),
        cfg.opts.len()
    );

    let Some(_) = flags.get("model") else {
        // Generate-only: drain the stream, keeping nothing.
        let start = std::time::Instant::now();
        let (mut units, mut fns) = (0usize, 0usize);
        for u in corpus::CorpusStream::new(cfg.clone()) {
            units += 1;
            fns += u.binary.functions.len();
        }
        let seconds = start.elapsed().as_secs_f64();
        println!(
            "generated {units} units / {fns} functions in {seconds:.2}s ({:.0} functions/s)",
            fns as f64 / seconds.max(1e-9)
        );
        return Ok(());
    };

    let hub = build_hub(flags, build_analyzer(flags)?)?;
    let db = corpus::build_vulndb(0, 1);
    // Flatten every featured entry's vulnerable reference variants into one
    // reference set, remembering which database entry each row came from so
    // matches can be named by CVE and CWE.
    let mut references = Vec::new();
    let mut ref_entry = Vec::new();
    for (i, entry) in db.featured().iter().enumerate() {
        let feats = Patchecko::reference_feature_set(entry, Basis::Vulnerable)
            .map_err(|e| format!("reference features for {}: {e}", entry.entry.cve))?;
        for f in feats {
            references.push(f);
            ref_entry.push(i);
        }
    }
    eprintln!(
        "scanning stream against {} reference variants ({} CVEs), working set {working_set}...",
        references.len(),
        db.featured().len()
    );
    let stream = corpus::CorpusStream::new(cfg.clone()).map(|u| u.binary);
    let report = hub
        .analyzer
        .scan_stream_with(stream, &references, working_set, hub.store())
        .map_err(|e| e.to_string())?;

    const SHOWN: usize = 20;
    for m in report.matches.iter().take(SHOWN) {
        let entry = &db.featured()[ref_entry[m.reference]];
        println!(
            "unit {:<6} {:<14} fn {:<3} {:<16} {:<8} p={:.3}",
            m.unit,
            m.library,
            m.function,
            entry.entry.cve,
            entry.meta.cwe(),
            m.probability
        );
    }
    if report.matches.len() > SHOWN {
        println!("... and {} more matches", report.matches.len() - SHOWN);
    }

    let planted = corpus::manifest(&cfg);
    if !planted.is_empty() {
        let matched: std::collections::HashSet<usize> = report.matched_units().into_iter().collect();
        let recalled = planted.iter().filter(|p| matched.contains(&p.unit)).count();
        println!(
            "planted-CVE recall: {recalled}/{} ({:.1}%)",
            planted.len(),
            100.0 * recalled as f64 / planted.len() as f64
        );
    }
    println!(
        "{} units / {} functions in {:.2}s ({:.0} functions/s), peak working set {} of {} units",
        report.units,
        report.functions,
        report.seconds,
        report.functions_per_second(),
        report.peak_live,
        working_set
    );
    if let Some(path) = flags.get("json") {
        let json = serde_json::json!({
            "units": report.units,
            "functions": report.functions,
            "seconds": report.seconds,
            "functions_per_second": report.functions_per_second(),
            "matches": report.matches.len(),
            "peak_live": report.peak_live,
            "working_set": working_set,
        });
        std::fs::write(path, serde_json::to_string_pretty(&json).map_err(|e| e.to_string())?)
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    finish_hub(flags, &hub)
}

// ---------------------------------------------------------------------------
// The scan service: `serve` runs the long-lived multi-tenant daemon,
// `client` speaks its framed protocol over the Unix socket.

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let hub = build_hub(flags, build_analyzer(flags)?)?;
    let mut images = Vec::new();
    for dir in flag(flags, "images")?.split(',').filter(|d| !d.is_empty()) {
        images.push(load_image(dir)?);
    }
    if images.is_empty() {
        return Err("--images: no image directories given".into());
    }
    let db = corpus::build_vulndb(0, 1);
    let tenant_quota = match flags.get("tenant-quota") {
        Some(spec) => Some(
            spec.parse::<TenantQuota>()
                .map_err(|e| format!("--tenant-quota: {e}"))?,
        ),
        None => None,
    };
    let defaults = BreakerConfig::default();
    let checkpoint_every: u64 = flag_or(flags, "checkpoint-every", 0)?;
    let cfg = ServerConfig {
        queue_limit: flag_or(flags, "queue-limit", 64)?,
        workers: flag_or(flags, "workers", 4)?,
        retry_after_ms: flag_or(flags, "retry-after-ms", 25)?,
        io_timeout_ms: flag_or(flags, "io-timeout-ms", 30_000)?,
        tenant_quota,
        breaker: BreakerConfig {
            threshold: flag_or(flags, "breaker-threshold", defaults.threshold)?,
            cooldown_ms: flag_or(flags, "breaker-cooldown-ms", defaults.cooldown_ms)?,
        },
        checkpoint_every: (checkpoint_every > 0).then_some(checkpoint_every),
        fault_vm_tenants: flags
            .get("fault-vm-tenants")
            .map(|list| list.split(',').filter(|t| !t.is_empty()).map(String::from).collect())
            .unwrap_or_default(),
        ..ServerConfig::new(flag(flags, "socket")?)
    };
    eprintln!(
        "serving {} image(s) on {} ({} workers, queue limit {})",
        images.len(),
        cfg.socket.display(),
        cfg.workers,
        cfg.queue_limit
    );
    let server = ScanServer::start(cfg, hub, images, db)
        .map_err(|e| format!("bind socket: {e}"))?;
    eprintln!("ready — stop with `patchecko client --socket <PATH> --drain`");
    server.join();
    eprintln!("daemon drained and exited");
    Ok(())
}

fn parse_index_list(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("not an image index: {s}")))
        .collect()
}

fn cmd_client(flags: &HashMap<String, String>) -> Result<(), String> {
    let socket = flag(flags, "socket")?;
    let tenant = flags.get("tenant").map(String::as_str).unwrap_or("");
    let mut client = ScanClient::connect(socket, tenant)
        .map_err(|e| format!("connect {socket}: {e}"))?;
    if let Some(ms) = flags.get("deadline-ms") {
        let ms: u64 =
            ms.parse().map_err(|_| format!("--deadline-ms: not a millisecond count: {ms}"))?;
        client.set_deadline_ms(Some(ms));
    }
    if flags.contains_key("stats") {
        let stats = client.stats().map_err(|e| e.to_string())?;
        println!("{}", serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?);
    } else if flags.contains_key("drain") {
        let drained = client.drain().map_err(|e| e.to_string())?;
        eprintln!("daemon drained (caches persisted: {})", drained.persisted);
    } else if let Some(list) = flags.get("batch-audit") {
        let reports = client
            .batch_audit(&parse_index_list(list)?)
            .map_err(|e| e.to_string())?;
        println!("{}", serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?);
    } else if let Some(index) = flags.get("audit") {
        let index = index.parse().map_err(|_| format!("--audit: not an image index: {index}"))?;
        let report = client.audit(index).map_err(|e| e.to_string())?;
        println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
    } else if let Some(index) = flags.get("scan") {
        let index = index.parse().map_err(|_| format!("--scan: not an image index: {index}"))?;
        let cve = flag(flags, "cve")?;
        let basis = match flags.get("basis").map(String::as_str) {
            None | Some("vulnerable") => Basis::Vulnerable,
            Some("patched") => Basis::Patched,
            Some(other) => return Err(format!("--basis: `{other}` (vulnerable|patched)")),
        };
        let summary = client.scan(index, cve, basis).map_err(|e| e.to_string())?;
        println!("{}", serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?);
    } else {
        return Err(
            "client: pass one of --stats | --drain | --audit IDX | --batch-audit IDX[,IDX...] | \
             --scan IDX --cve ID [--basis vulnerable|patched]"
                .into(),
        );
    }
    Ok(())
}
