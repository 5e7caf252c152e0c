//! Chaos end-to-end tests over real TCP: the daemon under injected
//! worker crashes, the bounded accept loop shedding load, and the
//! binary's graceful SIGTERM drain.
//!
//! The `dg-fault` plan is process-global, so every test that arms one
//! (or starts a daemon that could observe one) serialises on
//! [`CHAOS_LOCK`]. All plans use deterministic `always` rules — the
//! suite never rolls dice.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dg_fault::FaultPlan;
use dg_serve::{http, ArtifactStore, Daemon, DaemonConfig, Workload};
use dg_sweep::{Axis, SweepSpec, TrialBudget};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dg_serve_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn spec(seed: u64) -> SweepSpec {
    SweepSpec::new(
        vec![Axis::ints("x", [1, 2, 3])],
        seed,
        TrialBudget::fixed(3),
    )
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let (status, body) = http::request(addr, "GET", target, b"").unwrap();
    (status, String::from_utf8_lossy(&body).into_owned())
}

#[test]
fn worker_crash_requeues_and_serves_fault_free_bytes() {
    let _guard = serial();
    dg_fault::set_plan(None);
    let root = tmp_root("crash_requeue");
    let daemon = Arc::new(
        Daemon::start(
            ArtifactStore::open(&root).unwrap(),
            Workload::synthetic(),
            2,
        )
        .unwrap(),
    );
    let handler = Arc::clone(&daemon);
    let server = http::serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
    let addr = server.addr();

    // The first job start panics; the requeued start runs clean.
    let _plan = dg_fault::scoped(FaultPlan::new(0).always("daemon.worker.crash", 1));
    let s = spec(0xC4A5);
    let (status, _) = http::request(addr, "POST", "/sweep", s.to_json().as_bytes()).unwrap();
    assert_eq!(status, 202);
    assert!(daemon.wait_idle(Duration::from_secs(60)));
    assert!(
        daemon.failed().is_empty(),
        "one crash must not fail the job"
    );

    let (status, body) = get(addr, &format!("/sweep/{}", s.fingerprint()));
    assert_eq!(status, 200);
    let direct = s.sweep().run(Workload::synthetic().trial_fn()).unwrap();
    assert_eq!(body.into_bytes(), direct.to_json().into_bytes());

    // The crash is visible in telemetry: the injection counter and the
    // restart counter both moved.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("dg_fault_injected_total{site=\"daemon.worker.crash\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dg_serve_worker_restarts_total"),
        "{metrics}"
    );
    let (_, status_body) = get(addr, "/status");
    assert!(
        status_body.contains("\"worker_restarts\": "),
        "{status_body}"
    );

    server.shutdown();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn exhausted_attempts_surface_failed_state_and_resubmit_clears_it() {
    let _guard = serial();
    dg_fault::set_plan(None);
    let root = tmp_root("failed_state");
    let daemon = Arc::new(
        Daemon::start_with(
            ArtifactStore::open(&root).unwrap(),
            Workload::synthetic(),
            DaemonConfig {
                workers: 1,
                max_job_attempts: 2,
                ..DaemonConfig::default()
            },
        )
        .unwrap(),
    );
    let handler = Arc::clone(&daemon);
    let server = http::serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
    let addr = server.addr();
    let s = spec(0xFA11);
    let fp = s.fingerprint();

    {
        // Every start crashes: both attempts burn, the job fails for good.
        let _plan = dg_fault::scoped(FaultPlan::new(0).always("daemon.worker.crash", 64));
        let (status, _) = http::request(addr, "POST", "/sweep", s.to_json().as_bytes()).unwrap();
        assert_eq!(status, 202);
        assert!(daemon.wait_idle(Duration::from_secs(60)));
        assert_eq!(daemon.failed().len(), 1);
        assert_eq!(daemon.failed()[0].0, fp);

        // The failure is surfaced everywhere an operator would look.
        let (status, body) = get(addr, &format!("/sweep/{fp}"));
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("injected fault"), "{body}");
        let (_, sweeps) = get(addr, "/sweeps");
        assert!(sweeps.contains(&format!("\"failed\": [{fp}]")), "{sweeps}");
        let (_, st) = get(addr, "/status");
        assert!(st.contains(&format!("\"fingerprint\": {fp}")), "{st}");
    }

    // Plan disarmed: re-POSTing clears the failure and succeeds.
    let (status, _) = http::request(addr, "POST", "/sweep", s.to_json().as_bytes()).unwrap();
    assert_eq!(status, 202);
    assert!(daemon.wait_idle(Duration::from_secs(60)));
    assert!(daemon.failed().is_empty());
    let (status, body) = get(addr, &format!("/sweep/{fp}"));
    assert_eq!(status, 200);
    let direct = s.sweep().run(Workload::synthetic().trial_fn()).unwrap();
    assert_eq!(body.into_bytes(), direct.to_json().into_bytes());

    server.shutdown();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stalled_handler_saturates_cap_and_second_connection_gets_503() {
    let _guard = serial();
    dg_fault::set_plan(None);
    let root = tmp_root("conn_cap");
    let daemon = Arc::new(
        Daemon::start(
            ArtifactStore::open(&root).unwrap(),
            Workload::synthetic(),
            1,
        )
        .unwrap(),
    );
    let handler = Arc::clone(&daemon);
    let server = http::serve_with("127.0.0.1:0", move |req| handler.handle(req), 1).unwrap();
    let addr = server.addr();

    // The first connection's handler stalls (holding the only slot);
    // the second arrives inside the stall window and is shed.
    let _plan = dg_fault::scoped(FaultPlan::new(0).always("http.conn.stall", 1));
    let mut stalled = TcpStream::connect(addr).unwrap();
    write!(stalled, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the accept land
    let mut shed = TcpStream::connect(addr).unwrap();
    write!(shed, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut out = String::new();
    shed.read_to_string(&mut out).unwrap();
    assert!(
        out.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{out}"
    );
    assert!(out.contains("\r\nRetry-After: 1\r\n"), "{out}");

    // The stalled connection is served once its nap ends...
    let mut out = String::new();
    stalled.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
    // ...and with the slot free, requests flow again.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    server.shutdown();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_post_body_is_a_400_not_an_abort() {
    let _guard = serial();
    dg_fault::set_plan(None);
    let root = tmp_root("deep_nesting");
    let daemon = Arc::new(
        Daemon::start(
            ArtifactStore::open(&root).unwrap(),
            Workload::synthetic(),
            1,
        )
        .unwrap(),
    );
    let handler = Arc::clone(&daemon);
    let server = http::serve("127.0.0.1:0", move |req| handler.handle(req)).unwrap();
    let addr = server.addr();

    // 200 KB of `[` used to overflow the recursive parser's stack.
    let body = "[".repeat(200_000);
    let (status, reply) = http::request(addr, "POST", "/sweep", body.as_bytes()).unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&reply));
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    server.shutdown();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sigterm_drains_gracefully_and_removes_addr_file() {
    let root = tmp_root("sigterm");
    std::fs::create_dir_all(&root).unwrap();
    let addr_file = root.join("dg-serve.addr");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dg-serve"))
        .args(["--root", root.to_str().unwrap(), "--workload", "synthetic"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dg-serve");
    let addr = wait_for_addr(&addr_file);

    // Work lands and completes before the drain.
    let s = spec(0x516);
    let (status, _) = http::request(addr, "POST", "/sweep", s.to_json().as_bytes()).unwrap();
    assert_eq!(status, 202);
    let start = Instant::now();
    loop {
        let (status, body) = get(addr, &format!("/sweep/{}", s.fingerprint()));
        if status == 200 && body.contains("\"complete\": true") {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "sweep never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // `Child::kill` is SIGKILL; the graceful path needs a real SIGTERM.
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(term.success());
    let start = Instant::now();
    let exit = loop {
        if let Some(exit) = child.try_wait().expect("try_wait") {
            break exit;
        }
        if start.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            panic!("dg-serve did not exit after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(exit.success(), "graceful drain must exit 0, got {exit:?}");
    assert!(!addr_file.exists(), "drain must remove the addr file");
    let _ = std::fs::remove_dir_all(&root);
}

fn wait_for_addr(addr_file: &Path) -> SocketAddr {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                return addr;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "dg-serve never wrote its address file"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
