//! Crash-tolerant daemon restart, end to end over the real binary: a
//! served daemon is SIGKILLed mid-life, a fresh `serve` on the same
//! socket takes over the stale socket (announcing the dead pid from the
//! lockfile), and — because `--checkpoint-every 1` persisted the caches
//! after the pre-crash audit — the first post-restart audit is fully
//! warm: identical verdicts, zero VM executions in the new process.
//!
//! Ignored by default (trains a model and runs two daemon processes);
//! CI's soak-smoke job runs it with `--ignored`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_patchecko"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("patchecko_restart_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Poll `client --stats` until the daemon behind `socket` answers.
fn wait_ready(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let out = bin()
            .args(["client", "--socket", socket.to_str().unwrap(), "--stats"])
            .output()
            .unwrap();
        if out.status.success() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never came up: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn client_json(socket: &Path, args: &[&str]) -> String {
    let out = bin()
        .args(["client", "--socket", socket.to_str().unwrap()])
        .args(args)
        .output()
        .unwrap();
    assert!(out.status.success(), "client {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

fn spawn_serve(model: &Path, image: &Path, socket: &Path, cache: &Path) -> Child {
    bin()
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--images",
            image.to_str().unwrap(),
            "--socket",
            socket.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--workers",
            "2",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

#[test]
#[ignore = "trains a model and runs two daemon processes; run explicitly or via CI soak-smoke"]
fn sigkilled_daemon_is_replaced_on_the_same_socket_and_serves_warm() {
    let dir = tmpdir("sigkill");
    let model = dir.join("model.json");
    let image = dir.join("image");
    let cache = dir.join("cache");
    let socket = dir.join("scand.sock");

    let out = bin()
        .args(["train", "--out", model.to_str().unwrap(), "--libs", "4", "--epochs", "2", "--pairs", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["build-image", "--device", "android_things", "--out", image.to_str().unwrap(), "--scale", "0.05"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // ---- First daemon: one cold audit, checkpointed, then SIGKILL. ----
    let mut first = spawn_serve(&model, &image, &socket, &cache);
    wait_ready(&socket);
    let cold = client_json(&socket, &["--tenant", "acme", "--audit", "0"]);
    // `--checkpoint-every 1` persists all cache lanes after that job —
    // but the client is released *before* the checkpoint runs, so wait
    // for the files to land. (A SIGKILL mid-checkpoint is survivable —
    // saves are atomic — it just loses the un-checkpointed tail, which
    // would void this test's warm-restart claim.)
    let deadline = Instant::now() + Duration::from_secs(60);
    for lane in patchecko::scanhub::LANE_FILES {
        while !cache.join(lane).exists() {
            assert!(Instant::now() < deadline, "checkpoint never landed: {lane}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    // Now the daemon dies without any chance to clean up.
    first.kill().unwrap();
    first.wait().unwrap();
    assert!(socket.exists(), "a SIGKILLed daemon leaves its socket file behind");

    // ---- Second daemon, same socket: takeover announced by pid. -------
    let mut second = spawn_serve(&model, &image, &socket, &cache);
    wait_ready(&socket);

    // The restart is warm from the checkpoint: identical verdict JSON,
    // and the new process has executed zero VM runs to produce it.
    let warm = client_json(&socket, &["--tenant", "acme", "--audit", "0"]);
    assert_eq!(warm, cold, "the post-restart audit reproduces the pre-crash verdicts");
    let stats: serde_json::Value =
        serde_json::from_str(&client_json(&socket, &["--stats"])).unwrap();
    let vm_executions = match &stats {
        serde_json::Value::Map(fields) => fields
            .iter()
            .find(|(k, _)| k == "vm_executions")
            .and_then(|(_, v)| v.as_f64())
            .expect("stats carry vm_executions"),
        other => panic!("stats must be a JSON object, got {other:?}"),
    };
    assert_eq!(vm_executions, 0.0, "the checkpoint made the restart-warm audit VM-free");

    let out = bin()
        .args(["client", "--socket", socket.to_str().unwrap(), "--drain"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let status = second.wait().unwrap();
    assert!(status.success(), "drained daemon exits cleanly");
    let stderr = {
        use std::io::Read;
        let mut buf = String::new();
        second.stderr.take().unwrap().read_to_string(&mut buf).unwrap();
        buf
    };
    assert!(
        stderr.contains("taking over stale socket"),
        "the takeover is announced in the daemon log:\n{stderr}"
    );
    assert!(!socket.exists(), "clean exit removes the socket");
    let _ = std::fs::remove_dir_all(&dir);
}
