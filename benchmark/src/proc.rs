//! Child processes of the harness: one-shot `repro` runs and the
//! `repro serve` daemon, each reaped with `wait4(2)` so its peak RSS and
//! CPU time come from the kernel's own accounting at exit — no thread of
//! the harness polls `/proc` while an operation is being timed.
//!
//! Linux only (the harness also reads `/proc/stat` for the steal share).

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// What the kernel reported when a child was reaped.
#[derive(Clone, Copy, Debug)]
pub struct Reaped {
    /// Exit code; a death by signal reads as `128 + signal`.
    pub code: i32,
    /// Peak resident set (the process's `VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// User + system CPU time, ms.
    pub cpu_ms: f64,
}

/// Block until `child` exits and collect its resource usage. The child
/// must not have been waited on through `std` already.
fn reap(child: &Child) -> Reaped {
    let mut status = 0i32;
    let mut ru = Rusage { utime: [0; 2], stime: [0; 2], maxrss_kb: 0, rest: [0; 13] };
    // SAFETY: `status` and `ru` are live, writable and of the layout
    // wait4(2) documents for 64-bit Linux; the pid is a child of this
    // process that nothing else reaps.
    let got = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    assert_eq!(got, child.id() as i32, "wait4 failed for pid {}", child.id());
    let code = if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
    let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    Reaped { code, peak_rss_mb: ru.maxrss_kb as f64 / 1024.0, cpu_ms: ms(ru.utime) + ms(ru.stime) }
}

fn signal(child: &Child, sig: i32) {
    // SAFETY: plain syscall on the pid of a child this process has not
    // reaped yet, so the pid cannot have been recycled.
    unsafe { kill(child.id() as i32, sig) };
}

/// One finished `repro` run.
pub struct RunResult {
    pub stdout: Vec<u8>,
    /// The `spawn` call alone (fork + exec), ms.
    pub spawn_ms: f64,
    pub wall_ms: f64,
    pub reaped: Reaped,
}

/// Run `repro ARGS` to completion: stdout captured, stderr discarded
/// (cold runs print a progress line per point). The wall time spans
/// spawn to reaped exit — what someone typing the command waits for.
#[allow(clippy::zombie_processes)] // reaped by `reap` (wait4), which std cannot see
pub fn run_repro(repro: &Path, args: &[&str]) -> RunResult {
    let t0 = Instant::now();
    let mut child = Command::new(repro)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", repro.display()));
    let spawn_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut stdout = Vec::new();
    // Drain before reaping: a child blocked on a full pipe never exits.
    let _ = child.stdout.take().expect("piped stdout").read_to_end(&mut stdout);
    let reaped = reap(&child);
    RunResult { stdout, spawn_ms, wall_ms: t0.elapsed().as_secs_f64() * 1e3, reaped }
}

/// A running `repro serve`. Dropping it without [`ServeProc::stop`]
/// kills and reaps the daemon, so no exit path of the harness leaves a
/// process behind.
pub struct ServeProc {
    child: Option<Child>,
    pub port: u16,
}

impl ServeProc {
    /// Spawn `repro serve` on an ephemeral loopback port over `store`
    /// and wait for its `listening on` banner (scraped from a stderr
    /// file next to the store).
    pub fn spawn(repro: &Path, store: &Path, threads: usize) -> ServeProc {
        let err_path = PathBuf::from(format!("{}.stderr", store.display()));
        let err = std::fs::File::create(&err_path).expect("create server stderr file");
        let child = Command::new(repro)
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .args(["--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {} serve: {e}", repro.display()));
        let mut server = ServeProc { child: Some(child), port: 0 };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(&err_path).unwrap_or_default();
            if let Some(port) = text
                .lines()
                .find_map(|l| l.split("listening on 127.0.0.1:").nth(1))
                .and_then(|p| p.trim().parse().ok())
            {
                server.port = port;
                return server;
            }
            assert!(Instant::now() < deadline, "repro serve printed no banner: {text}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// SIGTERM, then wait for the drain to finish.
    #[allow(clippy::zombie_processes)] // reaped by `reap` (wait4), which std cannot see
    pub fn stop(mut self) -> Reaped {
        let child = self.child.take().expect("server still owned");
        signal(&child, SIGTERM);
        reap(&child)
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            signal(&child, SIGKILL);
            reap(&child);
        }
    }
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// This process's own `VmHWM`. It is printed because it is a floor under
/// every child's reported peak RSS (see `fill_store_in_child`).
pub fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse().ok())
        })
        .map_or(0.0, |kb: f64| kb / 1024.0)
}

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Clients = `--threads` of figure runs = engine threads of the traced
/// pass: every core up to four.
pub fn load_threads() -> usize {
    nproc().min(4)
}

/// Share of all CPU time between two [`cpu_jiffies`] readings that the
/// hypervisor gave to someone else.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    if after.1 > before.1 {
        (after.0 - before.0) as f64 / (after.1 - before.1) as f64
    } else {
        0.0
    }
}

/// The `host:` line every run prints: where the numbers were taken.
/// `steal` is the `/proc/stat` steal share of the timed phase.
pub fn host_line(steal: f64) -> String {
    format!(
        "host: nproc={} T={} git={} rustc=\"{}\" steal={:.2}% harness_peak_rss={:.1}MB",
        nproc(),
        load_threads(),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["-V"]),
        100.0 * steal,
        own_peak_rss_mb(),
    )
}
