//! End-to-end tests of the `patchecko` command-line binary: the full
//! operator workflow over on-disk artifacts (model checkpoint, `.fwb`
//! image directory, Markdown report).

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_patchecko"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("patchecko_cli_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_and_errors() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stderr);
    assert!(help.contains("patchecko train"));
    assert!(help.contains("patch-check"));

    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin().arg("scan").output().unwrap();
    assert!(!out.status.success(), "missing flags must fail");

    // A malformed number is an error naming the flag, not a silent default.
    let image = tmpdir("bad_scale").join("image");
    let out = bin()
        .args(["build-image", "--device", "android_things", "--out", image.to_str().unwrap()])
        .args(["--scale", "abc"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a non-numeric --scale must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"), "error names the flag");
    assert!(!image.exists(), "a rejected build leaves no output directory");
}

#[test]
fn list_and_inspect() {
    let out = bin().arg("list-cves").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CVE-2018-9412"));
    assert!(text.contains("libstagefright"));
    assert_eq!(text.lines().count(), 26, "header + 25 CVEs");

    let out = bin().args(["inspect", "--cve", "CVE-2018-9412", "--asm"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("memmove"), "vulnerable source shows the memmove");
    assert!(text.contains("bb0:"), "assembly listing present");

    let out = bin().args(["inspect", "--cve", "CVE-2018-9412", "--patched"]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("memmove("), "patched source has no memmove call");

    let out = bin().args(["inspect", "--cve", "CVE-0000-0000"]).output().unwrap();
    assert!(!out.status.success());
}

/// Parse the dynamic-lane counters out of a `cache: ...` stderr line:
/// `(hits, misses, profiled)` from
/// `"...; dyn: H hits / M misses, P profiled, E entries, Q quarantined"`.
fn dyn_counters(stderr: &str) -> (u64, u64, u64) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("cache: ") && l.contains("dyn: "))
        .unwrap_or_else(|| panic!("no cache-stats line in stderr:\n{stderr}"));
    let dyn_part = line.split("dyn: ").nth(1).unwrap();
    let nums: Vec<u64> = dyn_part
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    assert!(nums.len() >= 3, "short dyn segment: {dyn_part}");
    (nums[0], nums[1], nums[2])
}

#[test]
fn batch_audit_exit_codes_and_dyn_cache_stats() {
    let dir = tmpdir("batch_dyn");
    let model = dir.join("model.json");
    let image = dir.join("image");
    let cache = dir.join("cache");

    let out = bin()
        .args(["train", "--out", model.to_str().unwrap(), "--libs", "10", "--epochs", "8", "--pairs", "6"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["build-image", "--device", "android_things", "--out", image.to_str().unwrap(), "--scale", "0.04"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let batch = |extra: &[&str]| {
        let mut cmd = bin();
        cmd.args([
            "batch-audit",
            "--model",
            model.to_str().unwrap(),
            "--images",
            image.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--cache-stats",
        ]);
        cmd.args(extra);
        cmd.output().unwrap()
    };

    // Cold batch: completes, exits 0, profiles live into the dynamic lane.
    let out = batch(&["--cves", "CVE-2018-9412"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 jobs (1 completed, 0 failed)"), "summary line: {stdout}");
    assert!(stderr.contains("cache persisted to"), "cold run persists: {stderr}");
    // (A cold run still records in-memory hits: the pipeline and the
    // differential engine reuse profiles within the same audit.)
    let (_, misses, profiled) = dyn_counters(&stderr);
    assert!(misses > 0 && profiled > 0, "cold run profiles live: {misses} misses, {profiled} profiled");

    // Warm batch in a fresh process: the persisted dynamic lane answers
    // everything — zero misses, zero live profiling.
    let out = batch(&["--cves", "CVE-2018-9412"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let (hits, misses, profiled) = dyn_counters(&stderr);
    assert!(hits > 0, "warm run is served by the dynamic lane: {stderr}");
    assert_eq!((misses, profiled), (0, 0), "warm run must not execute: {stderr}");

    // Exit codes: an unknown CVE and a missing image directory both fail
    // with status 1 and a diagnostic on stderr.
    let out = batch(&["--cves", "CVE-0000-0000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown CVE"));

    let out = bin()
        .args([
            "batch-audit",
            "--model",
            model.to_str().unwrap(),
            "--images",
            dir.join("no_such_image").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "missing image dir must fail");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn train_build_scan_roundtrip() {
    let dir = tmpdir("roundtrip");
    let model = dir.join("model.json");
    let image = dir.join("image");

    // Train a small model.
    let out = bin()
        .args([
            "train",
            "--out",
            model.to_str().unwrap(),
            "--libs",
            "10",
            "--epochs",
            "8",
            "--pairs",
            "6",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    // Build a tiny on-disk image.
    let out = bin()
        .args([
            "build-image",
            "--device",
            "android_things",
            "--out",
            image.to_str().unwrap(),
            "--scale",
            "0.04",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(image.join("libstagefright.fwb").exists());
    assert!(image.join("image.json").exists());

    // Scan for the flagship CVE.
    let out = bin()
        .args([
            "scan",
            "--model",
            model.to_str().unwrap(),
            "--image",
            image.to_str().unwrap(),
            "--cve",
            "CVE-2018-9412",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best match: libstagefright:"), "scan output: {text}");

    // Patch-check the same CVE: vulnerable on Android Things.
    let out = bin()
        .args([
            "patch-check",
            "--model",
            model.to_str().unwrap(),
            "--image",
            image.to_str().unwrap(),
            "--cve",
            "CVE-2018-9412",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("STILL VULNERABLE"), "patch-check output: {text}");
    let target = text
        .lines()
        .find_map(|l| l.strip_prefix("CVE-2018-9412: target "))
        .unwrap_or_else(|| panic!("patch-check printed no target line: {text}"));

    // The whole-image audit locates the same target as patch-check: both
    // run the audit's per-CVE path.
    let report_path = dir.join("audit.json");
    let out = bin()
        .args([
            "audit",
            "--model",
            model.to_str().unwrap(),
            "--image",
            image.to_str().unwrap(),
            "--json",
            report_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report: patchecko::core::AuditReport =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    let finding = report
        .findings
        .iter()
        .find(|f| f.cve == "CVE-2018-9412")
        .expect("audit reports the flagship CVE");
    assert_eq!(finding.located.as_deref(), Some(target), "audit and patch-check disagree");

    let _ = std::fs::remove_dir_all(&dir);
}
