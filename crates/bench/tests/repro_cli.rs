//! End-to-end robustness checks against the built `repro` binary:
//! store recovery, deterministic fault injection via `REPRO_FAULT`,
//! signal interruption + resume, deadline supervision, the documented
//! exit-code taxonomy, and the failure/store-health fields of `--json`
//! (documented in README).

use pdesched_testkit::TempDir;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_expect(cmd: &mut Command, expected_code: i32) -> (String, String) {
    let out = cmd.output().expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(expected_code),
        "repro must exit {expected_code}; stderr:\n{stderr}"
    );
    (stdout, stderr)
}

fn run(cmd: &mut Command) -> (String, String) {
    run_expect(cmd, 0)
}

#[test]
fn clean_run_reports_healthy_store_and_no_failures() {
    let dir = TempDir::new("repro-clean");
    let store = dir.file("store.txt");
    let json_path = dir.file("out.json");
    // Instant targets only: no trace simulation, still exercises the
    // full store + JSON path.
    run(repro()
        .args(["--store", store.to_str().unwrap()])
        .args(["--json", json_path.to_str().unwrap()])
        .args(["--threads", "2", "fig1", "table1", "ablation"]));
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"schema_version\": 10"), "{json}");
    assert!(!json.contains("engine_threads"), "v8 stages carry no engine-thread grant: {json}");
    assert!(!json.contains("\"mode\""), "v9 has one producer, no mode: {json}");
    assert!(json.contains("\"traffic\": {\"passes\": 0, \"shared_points\": 0}"), "{json}");
    assert!(json.contains("\"interrupted\": null"), "{json}");
    assert!(json.contains("\"resumed_from\": null"), "{json}");
    assert!(json.contains("\"read_only\": false"), "{json}");
    assert!(json.contains("\"corrupt_lines\": 0"), "{json}");
    assert!(json.contains("\"store_errors\": 0"), "{json}");
    // v10: the store's open time, a timing like `"stages"[].seconds`.
    let open_ms = json
        .split_once("\"open_ms\": ")
        .and_then(|(_, rest)| rest.split_once('}'))
        .and_then(|(ms, _)| ms.parse::<f64>().ok());
    assert!(open_ms.is_some_and(|ms| ms.is_finite() && ms >= 0.0), "{json}");
    assert!(json.contains("\"failures\": ["), "{json}");
    assert!(!json.contains("\"error\":"), "clean run must report no failures: {json}");
}

/// Walk every JSON string literal in `doc` and fail on a bare `"` that
/// ends a string early or a truncated escape — the failure mode of a
/// writer that forgets to escape. A tiny validator, not a JSON parser:
/// the writers emit one construct per line, so scanning strings is
/// enough to prove the escaping holds.
fn assert_json_strings_wellformed(doc: &str) {
    let mut chars = doc.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        // Inside a string: consume to the closing quote, honoring
        // escapes; a newline inside a string means an unescaped quote
        // leaked and tore the literal open.
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => {
                    let e = chars.next().expect("truncated escape");
                    assert!(
                        matches!(e, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'),
                        "invalid escape \\{e} in JSON output"
                    );
                }
                Some('\n') | None => panic!("unterminated JSON string literal in output"),
                Some(_) => {}
            }
        }
    }
}

/// Regression: a store path containing `"` or `\` must survive the
/// hand-rolled `--json` writer as escaped, parseable JSON.
#[test]
fn hostile_store_path_emits_escaped_json() {
    let dir = TempDir::new("repro-hostile");
    let evil = dir.path().join("we\"ird\\q");
    std::fs::create_dir_all(&evil).expect("create hostile dir");
    let store = evil.join("store.txt");
    let json_path = dir.file("out.json");
    run(repro()
        .args(["--store", store.to_str().unwrap()])
        .args(["--json", json_path.to_str().unwrap()])
        .args(["--threads", "1", "fig1"]));
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains(r#"we\"ird\\q"#), "path must be escaped in --json: {json}");
    assert_json_strings_wellformed(&json);
}

#[test]
fn corrupted_store_is_recovered_quarantined_and_reported() {
    let dir = TempDir::new("repro-corrupt");
    let store = dir.file("store.txt");
    let json_path = dir.file("out.json");
    // A readable-version store (v3, the accepted legacy format) whose
    // entry lines are garbage (bit rot / torn writes): repro must
    // quarantine them, compact the store, and surface the damage in
    // --json — not crash and not trust the data.
    std::fs::write(&store, "# pdesched-traffic-store v3\nthis line is rot\nanother bad line 123\n")
        .unwrap();
    let (_, stderr) = run(repro()
        .args(["--store", store.to_str().unwrap()])
        .args(["--json", json_path.to_str().unwrap()])
        .args(["--threads", "1", "fig1"]));
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"corrupt_lines\": 2"), "{json}");
    assert!(stderr.contains("store recovery"), "recovery must be narrated: {stderr}");
    let quarantine = std::fs::read_to_string(dir.file("store.txt.quarantine")).unwrap();
    assert!(quarantine.contains("this line is rot"), "{quarantine}");
    // Compacted: the rot is gone and the store is upgraded to the
    // current schema version in the same rewrite.
    let compacted = std::fs::read_to_string(&store).unwrap();
    assert!(!compacted.contains("rot"), "{compacted}");
    assert!(compacted.starts_with("# pdesched-traffic-store v4"), "{compacted}");
}

#[test]
fn injected_panic_degrades_gracefully_and_is_reported() {
    let dir = TempDir::new("repro-fault");
    let store = dir.file("store.txt");
    let json_path = dir.file("out.json");
    // Exactly one of the two points failed; the run completes the rest
    // and exits 12 (point failures) so a supervisor can tell a degraded
    // run from a clean one.
    let (stdout, _) = run_expect(
        repro()
            .env("REPRO_FAULT", "panic-sim:0")
            .args(["--store", store.to_str().unwrap()])
            .args(["--json", json_path.to_str().unwrap()])
            .args(["--threads", "2", "faultcheck"]),
        12,
    );
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains(" ok"), "{stdout}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("injected fault (REPRO_FAULT)"), "{json}");
    assert!(json.contains("\"stage\": \"faultcheck\""), "{json}");
    assert!(json.contains("\"kind\": \"panic\""), "{json}");
    assert!(json.contains("\"interrupted\": null"), "a failure is not an interruption: {json}");
    let persisted = std::fs::read_to_string(&store).unwrap();
    let entries = persisted.lines().skip(1).filter(|l| !l.is_empty()).count();
    assert_eq!(entries, 1, "the surviving point must be persisted:\n{persisted}");
}

#[test]
fn hung_point_is_killed_by_point_deadline_and_reported_as_timeout() {
    let dir = TempDir::new("repro-hang");
    let store = dir.file("store.txt");
    let json_path = dir.file("out.json");
    // A wedged simulation (hang-sim) is killed by --point-deadline; the
    // other point completes, the run exits 12, and --json records the
    // timeout distinctly from a panic.
    let (stdout, stderr) = run_expect(
        repro()
            .env("REPRO_FAULT", "hang-sim:0")
            .args(["--store", store.to_str().unwrap()])
            .args(["--json", json_path.to_str().unwrap()])
            .args(["--threads", "2", "--point-deadline", "0.3", "faultcheck"]),
        12,
    );
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains(" ok"), "the other point must complete: {stdout}");
    assert!(stderr.contains("TIMED OUT"), "{stderr}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"kind\": \"timeout\""), "{json}");
    assert!(json.contains("point deadline"), "{json}");
    assert!(json.contains("\"interrupted\": null"), "a point timeout is contained: {json}");
    // The re-run (no fault) resumes: measures only the killed point.
    let (_, stderr) = run(repro().args(["--store", store.to_str().unwrap()]).args([
        "--threads",
        "2",
        "faultcheck",
    ]));
    assert!(stderr.contains("resuming an interrupted sweep"), "{stderr}");
    assert!(stderr.contains("measured 1 of 2"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn sigint_interrupts_flushes_and_resumes() {
    let dir = TempDir::new("repro-sigint");
    let store = dir.file("store.txt");
    let json_path = dir.file("out.json");
    // hang-sim with no deadline: the run deterministically wedges until
    // the signal arrives, so this test has no timing race — the hang's
    // cancel gate releases the worker the moment the token trips.
    let mut child = repro()
        .env("REPRO_FAULT", "hang-sim:0")
        .args(["--store", store.to_str().unwrap()])
        .args(["--json", json_path.to_str().unwrap()])
        .args(["--threads", "2", "faultcheck"])
        .spawn()
        .expect("spawn repro");
    std::thread::sleep(std::time::Duration::from_millis(600));
    let killed = Command::new("kill")
        .args(["-s", "INT", &child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -INT must succeed");
    let status = child.wait().expect("wait repro");
    assert_eq!(status.code(), Some(10), "signal interruption must exit 10");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"reason\": \"signal SIGINT\""), "{json}");
    assert!(json.contains("\"exit_code\": 10"), "{json}");
    // The resumed run completes cleanly and reports what it resumed.
    let json_path2 = dir.file("out2.json");
    run(repro()
        .args(["--store", store.to_str().unwrap()])
        .args(["--json", json_path2.to_str().unwrap()])
        .args(["--threads", "2", "faultcheck"]));
    let json2 = std::fs::read_to_string(&json_path2).unwrap();
    assert!(json2.contains("\"interrupted\": null"), "{json2}");
    assert!(json2.contains("\"cancelled\": \"signal SIGINT\""), "{json2}");
    let persisted = std::fs::read_to_string(&store).unwrap();
    let entries = persisted.lines().skip(1).filter(|l| !l.is_empty()).count();
    assert_eq!(entries, 2, "resume must complete both points:\n{persisted}");
}

/// A run shot mid-measurement (process abort — no unwinding, no flush,
/// no `cancelled` record) loses nothing it had appended, and re-running
/// the same command against the same store finishes with exactly the
/// entries of an uninterrupted run. `faultcheck` runs simulations 0–1
/// to completion, so simulation 3 dies inside the `sweep` stage.
#[cfg(unix)]
#[test]
fn aborted_run_resumes_to_the_serial_golden() {
    use std::os::unix::process::ExitStatusExt;
    let dir = TempDir::new("repro-abort");
    let store = dir.file("store.txt");
    let golden_store = dir.file("golden.txt");
    let sorted_entries = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).unwrap();
        let mut lines: Vec<String> = text.lines().skip(1).map(String::from).collect();
        lines.sort();
        lines
    };
    let targets = ["--threads", "2", "faultcheck", "sweep"];
    run(repro().args(["--store", golden_store.to_str().unwrap()]).args(targets));
    let golden = sorted_entries(&golden_store);

    let out = repro()
        .env("REPRO_FAULT", "abort-sim:3")
        .args(["--store", store.to_str().unwrap()])
        .args(targets)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.signal(), Some(6), "abort-sim must die by SIGABRT: {:?}", out.status);
    // Every fully appended line survived and is a golden entry; only a
    // torn (newline-less) tail may differ.
    let text = std::fs::read_to_string(&store).unwrap();
    let whole = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
    let kept: Vec<&str> = whole.lines().skip(1).collect();
    assert!(kept.len() >= 2, "both faultcheck points were appended before the abort:\n{text}");
    assert!(kept.len() < golden.len(), "the abort must land mid-run:\n{text}");
    for line in &kept {
        assert!(golden.iter().any(|g| g == line), "not a golden entry: {line}");
    }
    let journal = std::fs::read_to_string(dir.file("store.txt.journal")).unwrap();
    assert!(journal.contains("\nbegin\t"), "{journal}");
    assert!(!journal.contains("complete"), "a dead run must not read as complete: {journal}");

    let (_, stderr) = run(repro().args(["--store", store.to_str().unwrap()]).args(targets));
    assert!(stderr.contains("resuming an interrupted sweep"), "{stderr}");
    assert_eq!(sorted_entries(&store), golden, "resume must converge entry for entry");
}

#[test]
fn run_deadline_interrupts_with_exit_11() {
    let dir = TempDir::new("repro-deadline");
    let store = dir.file("store.txt");
    let json_path = dir.file("out.json");
    let (_, stderr) = run_expect(
        repro()
            .env("REPRO_FAULT", "hang-sim:0")
            .args(["--store", store.to_str().unwrap()])
            .args(["--json", json_path.to_str().unwrap()])
            .args(["--threads", "2", "--deadline", "0.3", "faultcheck"]),
        11,
    );
    assert!(stderr.contains("INTERRUPTED"), "{stderr}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"exit_code\": 11"), "{json}");
    assert!(json.contains("deadline"), "{json}");
}

/// A box needs at least one cell: a non-positive `--n` is refused at
/// the command line, before anything is lowered, measured or stored.
#[test]
fn non_positive_box_size_is_a_usage_error_that_writes_nothing() {
    let dir = TempDir::new("repro-bad-n");
    let store = dir.file("store.txt");
    for n in ["0", "-4"] {
        for cmd in ["plan", "describe", "optimize"] {
            let mut c = repro();
            c.args([cmd, "Baseline: P>=Box", "--n", n]);
            if cmd == "optimize" {
                c.args(["--store", store.to_str().unwrap()]);
            }
            let (stdout, stderr) = run_expect(&mut c, 2);
            assert!(stdout.is_empty(), "{cmd} --n {n}: {stdout}");
            assert!(stderr.contains("--n must be at least 1"), "{cmd} --n {n}: {stderr}");
            assert!(stderr.contains("usage: repro"), "{cmd} --n {n}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} --n {n}: {stderr}");
        }
    }
    assert!(!store.exists(), "a refused box size must not create the store");
}

/// An unknown target is a usage error found before the store is opened:
/// no store, no lock file, nothing run.
#[test]
fn unknown_target_is_a_usage_error_before_the_store_opens() {
    let dir = TempDir::new("repro-bad-target");
    let store = dir.file("store.txt");
    let (stdout, stderr) =
        run_expect(repro().args(["--store", store.to_str().unwrap(), "fig1", "fig22"]), 2);
    assert!(stdout.is_empty(), "fig1 must not run either: {stdout}");
    assert!(stderr.contains("unknown target 'fig22'"), "{stderr}");
    assert!(stderr.contains("plandump faultcheck all"), "the message lists the targets: {stderr}");
    assert!(!store.exists() && !dir.file("store.txt.lock").exists(), "the store was opened");
}

/// A `--json` path in a missing directory is refused before any
/// measurement, not after the whole run.
#[test]
fn json_path_in_a_missing_directory_is_refused_up_front() {
    let dir = TempDir::new("repro-json-dir");
    let store = dir.file("store.txt");
    let json = dir.path().join("missing").join("out.json");
    let (stdout, stderr) = run_expect(
        repro().args(["--store", store.to_str().unwrap()]).args([
            "--json",
            json.to_str().unwrap(),
            "fig1",
        ]),
        2,
    );
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains(json.to_str().unwrap()), "the message names the path: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!store.exists(), "a refused --json path must not open the store");
}

/// `--threads 0` is a usage error for `repro`, `repro plan` and `repro
/// describe`, not a silent single thread.
#[test]
fn zero_threads_is_a_usage_error() {
    let dir = TempDir::new("repro-zero-threads");
    let store = dir.file("store.txt");
    for cmd in [
        &["--store", store.to_str().unwrap(), "fig1"][..],
        &["plan", "Baseline: P>=Box"],
        &["describe", "Baseline: P>=Box"],
    ] {
        let (stdout, stderr) = run_expect(repro().args(cmd).args(["--threads", "0"]), 2);
        assert!(stdout.is_empty(), "{cmd:?}: {stdout}");
        assert!(stderr.contains("--threads needs at least 1"), "{cmd:?}: {stderr}");
    }
    assert!(!store.exists(), "a refused thread count must not open the store");
}

/// Spawn `repro serve` on an ephemeral port with the given extra env
/// and scrape the bound address from its stderr banner.
fn spawn_serve(
    store: &std::path::Path,
    extra_env: &[(&str, &str)],
) -> (std::process::Child, String) {
    let mut cmd = repro();
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--store", store.to_str().unwrap()])
        .stderr(std::process::Stdio::piped());
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn repro serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read serve stderr") > 0 {
        if let Some(rest) = line.trim().strip_prefix("[repro] serve: listening on ") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("serve must print its bound address before exiting");
    // Keep draining stderr so the child can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    (child, addr)
}

/// One request, one response line; `None` when the server closed the
/// connection without answering.
fn ask(addr: &str, request: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to repro serve");
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    let n = BufReader::new(stream).read_line(&mut line).expect("read response");
    (n > 0).then_some(line)
}

fn drain_with_sigterm(mut child: std::process::Child) {
    let killed = Command::new("kill")
        .args(["-s", "TERM", &child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -TERM must succeed");
    let status = child.wait().expect("wait repro serve");
    assert_eq!(status.code(), Some(10), "serve drain must exit 10");
}

#[test]
fn serve_answers_requests_and_drains_on_sigterm() {
    let dir = TempDir::new("repro-serve");
    let store = dir.file("store.txt");
    let (child, addr) = spawn_serve(&store, &[]);
    let req = r#"{"machine":"i5","n":8,"threads":2,"top":1}"#;
    let cold = ask(&addr, req).expect("cold request must be answered");
    assert!(cold.contains("\"ok\":true"), "{cold}");
    assert!(cold.contains("\"stale\":false"), "{cold}");
    assert!(cold.contains("\"source\":\"sim\""), "{cold}");
    // The replay is warm: answered from the snapshot, no re-measurement.
    let warm = ask(&addr, req).expect("warm request must be answered");
    assert!(warm.contains("\"ok\":true"), "{warm}");
    assert!(warm.contains("\"source\":\"warm\""), "{warm}");
    drain_with_sigterm(child);
    // The drain compacted and flushed: the measured point persisted.
    let persisted = std::fs::read_to_string(&store).unwrap();
    let entries: Vec<&str> =
        persisted.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    assert_eq!(entries.len(), 1, "exactly one simulated point:\n{persisted}");
    assert!(entries[0].contains(" sim "), "provenance must be sim:\n{persisted}");
}

/// `serve --threads` has no effect but is still a number: anything else
/// is a usage error, refused before the server binds or opens a store.
#[test]
fn serve_threads_must_be_a_number() {
    let dir = TempDir::new("repro-serve-threads");
    let store = dir.file("store.txt");
    let (_, stderr) = run_expect(
        repro().args(["serve", "--threads", "x", "--store", store.to_str().unwrap()]),
        2,
    );
    assert!(stderr.contains("--threads needs a number"), "{stderr}");
    assert!(!store.exists(), "a usage error must not create the store");
}

#[test]
fn serve_bind_failure_exits_16() {
    let dir = TempDir::new("repro-serve-bind");
    let store = dir.file("store.txt");
    // Hold the port so the server's bind deterministically fails.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let (_, stderr) = run_expect(
        repro().args(["serve", "--addr", &addr, "--store", store.to_str().unwrap()]),
        16,
    );
    assert!(stderr.contains("cannot start"), "{stderr}");
}

#[test]
fn serve_injected_request_drop_hits_one_request_not_the_server() {
    let dir = TempDir::new("repro-serve-drop");
    let store = dir.file("store.txt");
    let (child, addr) = spawn_serve(&store, &[("REPRO_FAULT", "drop-req:0")]);
    let req = r#"{"machine":"i5","n":8,"threads":2,"top":1}"#;
    assert!(ask(&addr, req).is_none(), "the dropped request must see EOF, not an answer");
    let resp = ask(&addr, req).expect("server must survive the injected drop");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    drain_with_sigterm(child);
}
