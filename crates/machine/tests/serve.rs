//! End-to-end tests for `machine::serve`: thundering-herd coalescing,
//! leader-panic and leader-abandonment propagation, admission control,
//! and stale-tagged degradation with the writer flock held elsewhere.
//!
//! Expected "injected fault" panic messages in stderr are the
//! injections themselves, not failures.

use pdesched_machine::serve::{ServeConfig, Server, MAX_CONNS, STALL};
use pdesched_machine::{sweep, FaultHook, MachineSpec, SweepBudget, TrafficCache};
use pdesched_testkit::{FaultPlan, TempDir};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Adapt a [`FaultPlan`] to the store hooks, releasing injected hangs
/// when the flight's ambient cancel token trips (so an abandoned
/// hanging flight unwinds instead of running to the 60 s safety cap).
struct GatedHook(Arc<FaultPlan>);

impl FaultHook for GatedHook {
    fn before_simulation(&self, _sim_index: u64, _key: &str) {
        self.0.on_sim_gated(|| !pdesched_par::cancel::current_is_tripped());
    }
    fn fail_append(&self, _append_index: u64) -> bool {
        self.0.on_append()
    }
}

/// One request/response exchange on a fresh connection.
fn ask(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read response");
    line.trim_end().to_string()
}

/// A persistent connection: one reply line per request.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// The next reply line, `None` at EOF.
    fn reply(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line).expect("read response") {
            0 => None,
            _ => Some(line.trim_end().to_string()),
        }
    }

    fn ask(&mut self, request: &str) -> String {
        self.send(format!("{request}\n").as_bytes());
        self.reply().expect("connection closed before the reply")
    }
}

const WARM_REQ: &str = "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":2}";

/// The top-ranked i5 point at n = 8, under the pass pipeline `passes`.
fn top_one_with(passes: &str) -> String {
    format!("{{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1,\"passes\":\"{passes}\"}}")
}

fn count_entry_lines(store: &std::path::Path) -> usize {
    std::fs::read_to_string(store)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .count()
}

/// Acceptance: a 64-client thundering herd on one cold point performs
/// exactly one simulation, every client gets a well-formed identical
/// answer, and the store gains exactly one provenance entry.
#[test]
fn thundering_herd_coalesces_to_one_simulation() {
    const CLIENTS: usize = 64;
    /// Holds the leader's simulation open until the whole herd has
    /// written its request: an n = 8 simulation is short enough to
    /// finish before a second client arrives, and then nobody coalesces.
    struct HerdGate {
        written: AtomicUsize,
    }
    impl FaultHook for HerdGate {
        fn before_simulation(&self, _sim_index: u64, _key: &str) {
            let t0 = Instant::now();
            while self.written.load(Ordering::SeqCst) < CLIENTS {
                assert!(t0.elapsed() < Duration::from_secs(30), "the herd never finished writing");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    let gate = Arc::new(HerdGate { written: AtomicUsize::new(0) });
    let dir = TempDir::new("servherd");
    let store = dir.file("t.txt");
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        max_inflight: 128,
        store_fault: Some(gate.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let responses: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let gate = &gate;
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    barrier.wait();
                    stream
                        .write_all(b"{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}\n")
                        .unwrap();
                    gate.written.fetch_add(1, Ordering::SeqCst);
                    let mut line = String::new();
                    BufReader::new(stream).read_line(&mut line).expect("read");
                    line.trim_end().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(responses.len(), CLIENTS);
    for r in &responses {
        assert!(r.contains("\"ok\":true"), "herd response failed: {r}");
        assert!(r.contains("\"stale\":false"));
    }
    // Identical modulo provenance: a client whose request arrived after
    // the flight published reads the same bytes from the warm snapshot.
    let normalized: Vec<String> =
        responses.iter().map(|r| r.replace("\"source\":\"warm\"", "\"source\":\"sim\"")).collect();
    for r in &normalized[1..] {
        assert_eq!(r, &normalized[0], "herd answers must be identical");
    }
    assert!(
        responses.iter().any(|r| r.contains("\"source\":\"sim\"")),
        "vacuity: at least the flight's own requester saw the simulation"
    );

    // Exactly one simulation, exactly one store entry, herd coalesced.
    assert_eq!(server.cache().stats().misses, 1, "the herd must trigger exactly one simulation");
    let stats = server.stats();
    assert_eq!(stats.requests, CLIENTS as u64);
    assert!(stats.coalesced > 0, "vacuity: nobody coalesced — the herd was serial");
    assert!(server.drain(), "drain with nothing inflight must be clean");
    assert_eq!(count_entry_lines(&store), 1, "exactly one provenance entry");
    let body = std::fs::read_to_string(&store).unwrap();
    assert!(body.lines().any(|l| l.contains(" sim ")), "the entry carries sim provenance");
}

/// Cold requests for different keys of one access stream share one
/// flight: four pass pipelines that change no memory event at one
/// thread cost one producer run, each key is still recorded under its
/// own name, and every reply is what a fresh server answers alone.
#[test]
fn cold_requests_for_one_stream_share_one_flight() {
    const PIPELINES: [&str; 4] =
        ["", "elide-barriers", "fuse-phases", "elide-barriers,fuse-phases"];
    let request = |passes: &str| {
        format!("{{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1,\"passes\":\"{passes}\"}}")
    };
    /// Holds the flight's first miss until the other three requests
    /// have joined it.
    struct JoinGate(AtomicUsize);
    impl FaultHook for JoinGate {
        fn before_simulation(&self, _sim_index: u64, _key: &str) {
            let t0 = Instant::now();
            while self.0.load(Ordering::SeqCst) == 0 {
                assert!(t0.elapsed() < Duration::from_secs(30), "the requests never joined");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    let gate = Arc::new(JoinGate(AtomicUsize::new(0)));
    let dir = TempDir::new("servstream");
    let store = dir.file("t.txt");
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        store_fault: Some(gate.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> =
            PIPELINES.iter().map(|passes| s.spawn(move || ask(addr, &request(passes)))).collect();
        let t0 = Instant::now();
        while server.stats().coalesced < 3 {
            assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", server.stats());
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.0.store(1, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let s = server.cache().stats();
    assert_eq!((s.misses, s.passes, s.shared_points), (4, 1, 3), "{s:?}");
    assert!(server.drain());
    assert_eq!(count_entry_lines(&store), 4, "each key recorded under its own name");
    for (passes, reply) in PIPELINES.iter().zip(&replies) {
        assert!(reply.contains("\"source\":\"sim\""), "[{passes}]: {reply}");
        let alone = Server::start(ServeConfig::default()).expect("bind");
        assert_eq!(*reply, ask(alone.local_addr(), &request(passes)), "[{passes}]");
    }
}

/// A cold key whose stream the server already produced is answered on
/// the request's own thread: no flight, no producer run, and the same
/// bytes a fresh server answers after simulating it.
#[test]
fn a_produced_stream_answers_its_other_keys_without_a_flight() {
    let dir = TempDir::new("servinline");
    let store = dir.file("t.txt");
    let server =
        Server::start(ServeConfig { store: Some(store.clone()), ..ServeConfig::default() })
            .expect("bind");
    let mut client = Client::connect(server.local_addr());
    let plain = client.ask(&top_one_with(""));
    assert!(plain.contains("\"source\":\"sim\""), "{plain}");
    let elided = client.ask(&top_one_with("elide-barriers"));
    assert!(elided.contains("\"source\":\"sim\""), "{elided}");
    assert_eq!(server.stats().flights, 1, "{:?}", server.stats());
    let s = server.cache().stats();
    assert_eq!((s.misses, s.passes, s.shared_points), (2, 1, 1), "{s:?}");
    assert!(server.drain());
    assert_eq!(count_entry_lines(&store), 2, "each key recorded under its own name");
    let alone = Server::start(ServeConfig::default()).expect("bind");
    assert_eq!(elided, ask(alone.local_addr(), &top_one_with("elide-barriers")));
    assert_eq!(alone.stats().flights, 1, "a fresh server simulates it in a flight");
}

/// A fault-hook panic on a point answered without a flight fails that
/// request alone: the server answers the next one.
#[test]
fn a_panic_on_an_inline_point_fails_that_request_only() {
    // Miss 0 produces the stream in a flight; miss 1 is the inline one.
    let plan = Arc::new(FaultPlan::new().panic_on_sim(1));
    let server = Server::start(ServeConfig {
        store_fault: Some(Arc::new(GatedHook(plan))),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.local_addr());
    let plain = client.ask(&top_one_with(""));
    assert!(plain.contains("\"ok\":true"), "{plain}");
    let failed = client.ask(&top_one_with("elide-barriers"));
    assert!(
        failed.contains("\"error\":\"point_failed\"") && failed.contains("injected fault"),
        "{failed}"
    );
    let again = client.ask(&top_one_with("elide-barriers"));
    assert!(again.contains("\"ok\":true") && again.contains("\"source\":\"sim\""), "{again}");
    assert_eq!(server.stats().flights, 1, "{:?}", server.stats());
    let s = server.cache().stats();
    assert_eq!((s.misses, s.passes, s.shared_points), (3, 1, 1), "{s:?}");
}

/// A leader panic is published to every parked follower and the flight
/// map is not poisoned: the next request starts a fresh flight that
/// succeeds.
#[test]
fn leader_panic_reaches_followers_without_poisoning() {
    let dir = TempDir::new("servpanic");
    let plan = Arc::new(FaultPlan::new().panic_on_sim(0));
    let server = Server::start(ServeConfig {
        store: Some(dir.file("t.txt")),
        max_inflight: 32,
        store_fault: Some(Arc::new(GatedHook(plan))),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let responses: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    barrier.wait();
                    stream
                        .write_all(b"{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}\n")
                        .unwrap();
                    let mut line = String::new();
                    BufReader::new(stream).read_line(&mut line).expect("read");
                    line.trim_end().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The injected panic lands on sim index 0. Every request that
    // joined that flight fails with the propagated panic; any client
    // whose request arrived after the failure published starts a fresh
    // flight (sim index 1, no fault) and succeeds. Nobody hangs, the
    // server survives.
    let failed = responses.iter().filter(|r| r.contains("\"error\":\"point_failed\"")).count();
    assert!(failed >= 1, "vacuity: the injected panic reached no client");
    for r in &responses {
        assert!(
            r.contains("\"ok\":true")
                || (r.contains("point_failed") && r.contains("injected fault")),
            "unexpected response: {r}"
        );
    }
    // The map was not poisoned: a fresh request succeeds.
    let retry = ask(addr, "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}");
    assert!(retry.contains("\"ok\":true"), "post-panic retry failed: {retry}");
}

/// Admission control: with one hanging flight occupying the single
/// inflight slot, the next request is rejected immediately with
/// `retry_after_ms` — not queued.
#[test]
fn overload_rejects_immediately_with_retry_after() {
    let dir = TempDir::new("servload");
    let plan = Arc::new(FaultPlan::new().hang_on_sim(0));
    let server = Server::start(ServeConfig {
        store: Some(dir.file("t.txt")),
        max_inflight: 1,
        retry_after: Duration::from_millis(250),
        store_fault: Some(Arc::new(GatedHook(Arc::clone(&plan)))),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // First client: request hangs in the injected fault.
    let mut hung = TcpStream::connect(addr).expect("connect");
    hung.write_all(b"{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}\n").unwrap();
    let t0 = Instant::now();
    while plan.sims_seen() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "flight never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Second client: rejected at once.
    let t0 = Instant::now();
    let resp = ask(addr, "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}");
    assert!(
        resp.contains("\"error\":\"overloaded\"") && resp.contains("\"retry_after_ms\":250"),
        "expected immediate overload rejection, got: {resp}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "rejection must be immediate, not queued behind the hung flight"
    );
    assert_eq!(server.stats().rejected, 1);

    // Abandon the hung request: disconnect trips the request token, the
    // interest set trips the flight token, the gated hang releases, and
    // the worker unwinds as cancelled. The server is then idle again.
    drop(hung);
    let t0 = Instant::now();
    while server.stats().inflight > 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "abandoned flight never unwound");
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = ask(addr, "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}");
    assert!(resp.contains("\"ok\":true"), "server must recover after abandonment: {resp}");
}

/// A flight every requester has let go of is only unwinding; a request
/// for the same point that arrives meanwhile must get a flight of its
/// own, not the dying one's "abandoned by every requester". The hook
/// keeps the first simulation unwinding for 300 ms after its token trips
/// — a window that is ~1 ms wide in `overload_rejects_…` above, where it
/// failed one run in thirty.
#[test]
fn request_during_an_abandoned_flights_unwinding_gets_a_fresh_flight() {
    struct SlowUnwind(AtomicUsize);
    impl FaultHook for SlowUnwind {
        fn before_simulation(&self, sim_index: u64, _key: &str) {
            self.0.fetch_add(1, Ordering::SeqCst);
            if sim_index == 0 {
                while !pdesched_par::cancel::current_is_tripped() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        }
    }
    let hook = Arc::new(SlowUnwind(AtomicUsize::new(0)));
    let server =
        Server::start(ServeConfig { store_fault: Some(hook.clone()), ..ServeConfig::default() })
            .expect("bind");
    let addr = server.local_addr();
    let req = "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}";

    let mut gone = TcpStream::connect(addr).expect("connect");
    gone.write_all(format!("{req}\n").as_bytes()).unwrap();
    let t0 = Instant::now();
    while hook.0.load(Ordering::SeqCst) == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "flight never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(gone);
    while server.stats().inflight > 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "abandoned request never returned");
        std::thread::sleep(Duration::from_millis(2));
    }
    let resp = ask(addr, req);
    assert!(resp.contains("\"ok\":true") && resp.contains("\"sim\""), "{resp}");
    assert_eq!(hook.0.load(Ordering::SeqCst), 2, "the second request simulated for itself");
}

/// Client disconnect mid-simulation abandons the flight: the per
/// request token trips, the last interest release trips the flight
/// token, and the measurement stops mid-plan-execution — no entry is
/// ever appended for the abandoned point.
#[test]
fn abandoned_cold_request_stops_mid_execution() {
    let dir = TempDir::new("servaband");
    let store = dir.file("t.txt");
    let server =
        Server::start(ServeConfig { store: Some(store.clone()), ..ServeConfig::default() })
            .expect("bind");
    let addr = server.local_addr();

    // n=64 is expensive enough (in a debug build) that the simulation
    // is still running when the client walks away.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"machine\":\"i5\",\"n\":64,\"threads\":2,\"top\":1}\n").unwrap();
    let t0 = Instant::now();
    while server.cache().stats().misses == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "flight never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stream); // SIGKILL-equivalent: vanish mid-request

    let t0 = Instant::now();
    while server.stats().inflight > 0 {
        assert!(t0.elapsed() < Duration::from_secs(20), "abandoned request never unwound");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.drain());
    assert_eq!(server.cache().stats().misses, 1, "the point was attempted once");
    assert_eq!(count_entry_lines(&store), 0, "the cancelled measurement must not be recorded");
}

/// Request deadlines answer within the deadline even when the point is
/// slow, and the flight abandoned by every deadline trips too. The point
/// is made slow by a hang gated on the flight's token, not by its size,
/// so how fast the simulator is cannot decide the outcome: the hang
/// holds until the request deadline abandons the flight, and the
/// interpreter's first checkpoint after it stops the measurement.
#[test]
fn request_deadline_trips_slow_points() {
    let dir = TempDir::new("servdeadline");
    let store = dir.file("t.txt");
    let plan = Arc::new(FaultPlan::new().hang_on_sim(0));
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        request_deadline: Some(Duration::from_millis(300)),
        budget: SweepBudget { max_retries: 0, ..SweepBudget::default() },
        store_fault: Some(Arc::new(GatedHook(Arc::clone(&plan)))),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    let resp = ask(addr, "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}");
    assert!(
        resp.contains("\"error\":\"deadline\""),
        "a hung point must hit the deadline; got: {resp}"
    );
    // The abandoned flight unwinds; nothing is recorded.
    let t0 = Instant::now();
    while server.stats().inflight > 0 {
        assert!(t0.elapsed() < Duration::from_secs(20), "deadline flight never unwound");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.drain());
    assert_eq!(count_entry_lines(&store), 0);
}

/// A flight that outlives `point_deadline` stops at its next checkpoint:
/// the request answers `point_failed` naming the deadline, nothing is
/// recorded, and the next request measures the point afresh.
#[test]
fn point_deadline_fails_a_hung_flight_and_records_nothing() {
    let dir = TempDir::new("servpointdeadline");
    let store = dir.file("t.txt");
    let plan = Arc::new(FaultPlan::new().hang_on_sim(0));
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        budget: SweepBudget {
            point_deadline: Some(Duration::from_millis(100)),
            ..SweepBudget::default()
        },
        store_fault: Some(Arc::new(GatedHook(Arc::clone(&plan)))),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.local_addr());
    let req = "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}";
    let resp = client.ask(req);
    assert!(
        resp.contains("\"error\":\"point_failed\"") && resp.contains("point deadline"),
        "got: {resp}"
    );
    assert_eq!(count_entry_lines(&store), 0, "the killed measurement must not be recorded");
    // The hang is spent: the same request now measures the point.
    let again = client.ask(req);
    assert!(again.contains("\"ok\":true") && again.contains("\"source\":\"sim\""), "{again}");
}

/// A writer server holds each point once and nowhere but its cache: a
/// point one request measured answers the next from the cache
/// (`"warm"`), the store snapshot is never reloaded behind a writer
/// (`"generation":0`), and the drain's compaction writes exactly the
/// entries the cache counts.
#[test]
fn writer_server_answers_its_own_measurements_from_the_cache() {
    let dir = TempDir::new("servimage");
    let store = dir.file("t.txt");
    let server =
        Server::start(ServeConfig { store: Some(store.clone()), ..ServeConfig::default() })
            .expect("bind");
    let mut client = Client::connect(server.local_addr());
    let cold = client.ask(WARM_REQ);
    assert!(cold.contains("\"ok\":true") && cold.contains("\"source\":\"sim\""), "got: {cold}");
    let misses = server.cache().stats().misses;
    assert_eq!(misses, 2, "top 2, both cold");
    let warm = client.ask(WARM_REQ);
    assert!(warm.contains("\"ok\":true") && warm.contains("\"generation\":0"), "got: {warm}");
    assert_eq!(warm.matches("\"source\":\"warm\"").count(), 2, "got: {warm}");
    assert_eq!(warm.matches("\"source\":").count(), 2, "got: {warm}");
    assert_eq!(warm, cold.replace("\"source\":\"sim\"", "\"source\":\"warm\""));
    let stats = server.cache().stats();
    assert_eq!((stats.misses, stats.hits), (misses, 0), "the warm path counts nothing");
    assert!(server.drain());
    assert_eq!(count_entry_lines(&store), server.cache().len());
    assert_eq!(server.cache().len(), 2);
}

/// Graceful degradation with the writer flock held elsewhere: warm
/// points are served from the lock-free snapshot tagged `"stale":true`,
/// cold points fall back to the analytic model, external appends are
/// picked up per request, and without `stale_ok` the request is
/// refused while the server stays up.
#[test]
fn held_flock_serves_stale_tagged_snapshots() {
    let dir = TempDir::new("servstale");
    let store = dir.file("t.txt");
    let spec = MachineSpec::i5_desktop();
    let threads = 2usize;
    let ranked = sweep::rank_all_at(&spec, 8, threads);

    // An external writer prewarms the analytically-best point and KEEPS
    // its flock held while the server runs.
    let writer = TrafficCache::with_store(&store);
    let hierarchy = pdesched_machine::model::prediction_hierarchy(&spec, threads);
    writer.get(ranked[0].variant, 8, &hierarchy);

    // stale_ok=false: refused, but the server survives.
    {
        let server = Server::start(ServeConfig {
            store: Some(store.clone()),
            stale_ok: false,
            ..ServeConfig::default()
        })
        .expect("bind");
        assert!(server.cache().store_read_only(), "writer holds the flock");
        let resp = ask(server.local_addr(), "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":1}");
        assert!(resp.contains("\"error\":\"stale_store\""), "got: {resp}");
        let resp = ask(server.local_addr(), "{\"machine\":\"i5\",\"n\":8,\"threads\":2}");
        assert!(resp.contains("stale_store"), "server must still answer: {resp}");
    }

    // stale_ok=true: warm from the snapshot, cold analytically, no
    // simulation ever.
    let server = Server::start(ServeConfig {
        store: Some(store.clone()),
        stale_ok: true,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let resp = ask(addr, "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":2}");
    assert!(resp.contains("\"ok\":true"), "got: {resp}");
    assert!(resp.contains("\"stale\":true"), "degraded answers must be tagged: {resp}");
    assert!(resp.contains("\"source\":\"warm\""), "the prewarmed point is warm: {resp}");
    assert!(resp.contains("\"source\":\"analytic\""), "the cold point degrades: {resp}");
    assert_eq!(server.cache().stats().misses, 0, "read-only mode must never simulate");

    // The external writer appends the second-best point; the next
    // request refreshes the snapshot and serves it warm.
    writer.get(ranked[1].variant, 8, &hierarchy);
    let resp = ask(addr, "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":2}");
    assert!(resp.contains("\"ok\":true") && resp.contains("\"stale\":true"), "got: {resp}");
    assert!(
        !resp.contains("\"source\":\"analytic\""),
        "both points warm after the external append: {resp}"
    );
    assert!(resp.contains("\"generation\":1"), "the snapshot reloaded: {resp}");
    assert_eq!(server.cache().stats().misses, 0);
}

/// Malformed and invalid requests get field-level errors and the
/// connection stays usable; concurrent valid traffic is unaffected.
#[test]
fn bad_requests_degrade_per_request_not_per_server() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr);
    let mut ask_on = |req: &str| client.ask(req);

    assert!(ask_on("this is not json").contains("\"error\":\"bad_request\""));
    assert!(ask_on("{\"n\":8}").contains("missing string field"));
    assert!(ask_on("{\"machine\":\"cray\",\"n\":8}").contains("unknown machine"));
    // A query two machines match is refused with the candidates, not
    // resolved to whichever is listed first...
    let ambiguous = ask_on("{\"machine\":\"Ivy Bridge\",\"n\":8}");
    assert!(
        ambiguous.contains("\"error\":\"bad_request\"")
            && ambiguous.contains("ambiguous machine")
            && ambiguous.contains("20-Core Intel Ivy Bridge")
            && ambiguous.contains("4-Core Ivy Bridge Desktop (i5-3570K)")
            && !ambiguous.contains("Magny-Cours"),
        "got: {ambiguous}"
    );
    // ...while a full name (any case) and a unique substring resolve.
    let exact = ask_on("{\"machine\":\"20-core intel ivy bridge\",\"n\":8,\"top\":1}");
    assert!(exact.contains("\"machine\":\"20-Core Intel Ivy Bridge\""), "got: {exact}");
    let unique = ask_on("{\"machine\":\"Intel Ivy Bridge\",\"n\":8,\"top\":1}");
    assert!(unique.contains("\"machine\":\"20-Core Intel Ivy Bridge\""), "got: {unique}");
    assert!(ask_on("{\"machine\":\"i5\",\"n\":7}").contains("must divide"));
    // A box edge whose cube overflows `usize` is refused like any other
    // non-divisor — one reply line, not a dropped connection — and the
    // next request on the connection is served.
    for n in ["3000000", "2147483647", "1e300"] {
        let huge = ask_on(&format!("{{\"machine\":\"i5\",\"n\":{n}}}"));
        assert!(
            huge.contains("\"error\":\"bad_request\"") && huge.contains("must divide"),
            "n = {n}: {huge}"
        );
        let next = ask_on("{\"machine\":\"i5\",\"n\":8,\"threads\":1,\"top\":1}");
        assert!(next.contains("\"ok\":true"), "after n = {n}: {next}");
    }
    assert!(ask_on("{\"machine\":\"i5\",\"n\":8,\"threads\":99}").contains("out of range"));
    // Out-of-range values are echoed as sent, not as a saturated cast.
    for (req, detail) in [
        ("{\"machine\":\"i5\",\"n\":1e10}", "box edge 10000000000 must divide"),
        (
            "{\"machine\":\"i5\",\"n\":8,\"threads\":1e30}",
            "threads 1000000000000000000000000000000 out of",
        ),
        ("{\"machine\":\"i5\",\"n\":8,\"top\":-1e30}", "top -1000000000000000000000000000000 must"),
    ] {
        let refused = ask_on(req);
        assert!(
            refused.contains("\"error\":\"bad_request\"") && refused.contains(detail),
            "{req}: {refused}"
        );
    }
    // Zero and negative integers are integers: the range checks refuse
    // them with their own detail, and the connection serves on.
    for (req, detail) in [
        ("{\"machine\":\"i5\",\"n\":8,\"threads\":0}", "threads 0 out of range 1..="),
        ("{\"machine\":\"i5\",\"n\":8,\"threads\":-2}", "threads -2 out of range 1..="),
        ("{\"machine\":\"i5\",\"n\":8,\"top\":0}", "top 0 must be at least 1"),
        ("{\"machine\":\"i5\",\"n\":8,\"top\":-1}", "top -1 must be at least 1"),
        ("{\"machine\":\"i5\",\"n\":0}", "box edge 0 must divide"),
        ("{\"machine\":\"i5\",\"n\":-8}", "box edge -8 must divide"),
        // 256^3 divides the domain's cell count, but not its 384 edge.
        ("{\"machine\":\"i5\",\"n\":256}", "box edge 256 must divide"),
    ] {
        let refused = ask_on(req);
        assert!(
            refused.contains("\"error\":\"bad_request\"") && refused.contains(detail),
            "{req}: {refused}"
        );
        let next = ask_on("{\"machine\":\"i5\",\"n\":8,\"threads\":1,\"top\":1}");
        assert!(next.contains("\"ok\":true"), "after {req}: {next}");
    }
    assert!(
        ask_on("{\"machine\":\"i5\",\"n\":8,\"passes\":\"bogus:1\"}").contains("bad passes spec")
    );
    // The same connection still serves a valid request afterwards.
    let ok = ask_on("{\"machine\":\"i5\",\"n\":8,\"threads\":1,\"top\":1}");
    assert!(ok.contains("\"ok\":true"), "got: {ok}");
}

/// The injected request faults: `Hang` parks the request until
/// shutdown, `DropConnection` vanishes without an answer — and neither
/// takes the server down.
#[test]
fn socket_faults_hit_one_request_not_the_server() {
    struct DropSecond(AtomicUsize);
    impl pdesched_machine::ServeHook for DropSecond {
        fn on_request(&self, index: u64) -> Option<pdesched_machine::ServeFaultAction> {
            self.0.fetch_add(1, Ordering::SeqCst);
            (index == 1).then_some(pdesched_machine::ServeFaultAction::DropConnection)
        }
    }
    let hook = Arc::new(DropSecond(AtomicUsize::new(0)));
    let server = Server::start(ServeConfig {
        hook: Some(Arc::clone(&hook) as Arc<dyn pdesched_machine::ServeHook>),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    let first = ask(addr, "{\"machine\":\"i5\",\"n\":8,\"threads\":1,\"top\":1}");
    assert!(first.contains("\"ok\":true"));

    // Request index 1: the connection dies without a response byte.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"machine\":\"i5\",\"n\":8,\"threads\":1,\"top\":1}\n").unwrap();
    let mut line = String::new();
    let n = BufReader::new(stream).read_line(&mut line).unwrap();
    assert_eq!(n, 0, "dropped connection must answer with EOF, got: {line}");

    // The server is unharmed; the point is warm from request 0.
    let third = ask(addr, "{\"machine\":\"i5\",\"n\":8,\"threads\":1,\"top\":1}");
    assert!(third.contains("\"ok\":true") && third.contains("\"source\":\"warm\""));
    assert_eq!(hook.0.load(Ordering::SeqCst), 3, "every request consulted the hook");
}

/// Wire regression: a reply is one segment on a `TCP_NODELAY` socket.
/// Sent as two writes (body, newline) the newline waits behind Nagle
/// for the client's delayed ACK — ~40 ms per round trip on a connection
/// in use, ≥ 1.3 s for these 32.
#[test]
fn warm_round_trips_do_not_wait_for_delayed_acks() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    // Prime the point, and put the connection "in use": the floor never
    // showed on a connection's first replies (quick-ack mode).
    for _ in 0..4 {
        assert!(client.ask(WARM_REQ).contains("\"ok\":true"));
    }
    let t0 = Instant::now();
    for _ in 0..32 {
        let resp = client.ask(WARM_REQ);
        assert!(resp.contains("\"source\":\"warm\"") && !resp.contains("\"sim\""), "{resp}");
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(320), "32 warm round trips took {took:?}");
}

/// Nothing holds a tight-loop client back, and no connection starves
/// another: two connections in closed loops for ~0.5 s each get at least
/// a quarter of all answers, the median round trip is under 150 µs, and
/// pipelined requests come back in order, byte-identical to the
/// closed-loop answers. The bound is half the retired per-connection
/// pace of 300 µs, under which this loop's median read ~299.6 µs; the
/// unpaced median reads ~20–55 µs. A median, so one descheduled turn
/// cannot trip it.
#[test]
fn tight_loops_are_not_held_and_share_the_server() {
    const OTHER_REQ: &str = "{\"machine\":\"i5\",\"n\":8,\"threads\":1,\"top\":2}";
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let reqs = [WARM_REQ, OTHER_REQ];
    let mut clients: Vec<Client> = reqs.iter().map(|_| Client::connect(addr)).collect();
    // Measure the points, then take each request's warm answer.
    let answers: Vec<String> = clients
        .iter_mut()
        .zip(reqs)
        .map(|(client, req)| {
            assert!(client.ask(req).contains("\"ok\":true"));
            let warm = client.ask(req);
            assert!(warm.contains("\"source\":\"warm\"") && !warm.contains("\"sim\""), "{warm}");
            warm
        })
        .collect();

    let stop = Instant::now() + Duration::from_millis(500);
    let loops: Vec<Vec<Duration>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(reqs.iter().zip(&answers))
            .map(|(client, (req, answer))| {
                s.spawn(move || {
                    let mut trips = Vec::new();
                    while Instant::now() < stop {
                        let t0 = Instant::now();
                        let reply = client.ask(req);
                        trips.push(t0.elapsed());
                        assert_eq!(&reply, answer);
                    }
                    trips
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client")).collect()
    });
    let total: usize = loops.iter().map(Vec::len).sum();
    for (i, trips) in loops.iter().enumerate() {
        assert!(4 * trips.len() >= total, "connection {i} got {} of {total} answers", trips.len());
    }
    let mut trips: Vec<Duration> = loops.concat();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(median < Duration::from_micros(150), "median closed-loop round trip {median:?}");

    let client = &mut clients[0];
    let batch: String = (0..100).map(|i| format!("{}\n", reqs[i % 2])).collect();
    client.send(batch.as_bytes());
    for i in 0..100 {
        assert_eq!(client.reply().expect("reply"), answers[i % 2], "pipelined reply {i}");
    }
}

/// A fresh connection is accepted as soon as it arrives: the accept
/// loop blocks in `accept` rather than polling it every 2 ms, so the
/// first warm reply of each of 20 new connections takes what the wire
/// and a thread spawn take, well under a millisecond in the median. The
/// best of three such rounds is asserted, so a round spent beside
/// another test's burst of threads cannot trip it; the polling loop held
/// every reply of every round at ~2 ms.
#[test]
fn fresh_connections_get_their_first_warm_reply_at_once() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    assert!(ask(addr, WARM_REQ).contains("\"ok\":true"));
    let round = || {
        let mut firsts: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let reply = ask(addr, WARM_REQ);
                let took = t0.elapsed();
                assert!(reply.contains("\"source\":\"warm\""), "{reply}");
                took
            })
            .collect();
        firsts.sort();
        firsts[firsts.len() / 2]
    };
    let best = (0..3).map(|_| round()).min().expect("three rounds");
    assert!(best < Duration::from_millis(1), "median first warm reply {best:?} in every round");
}

/// `drain` wakes the blocked accept loop with a connection to its own
/// address; bound to `0.0.0.0` that goes through loopback. The drained
/// and dropped server has joined its accept thread — the listener is
/// closed — within a second.
#[test]
fn a_server_bound_to_the_unspecified_address_drains_at_once() {
    let server =
        Server::start(ServeConfig { addr: "0.0.0.0:0".to_string(), ..ServeConfig::default() })
            .expect("bind");
    let local = std::net::SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
    assert!(ask(local, WARM_REQ).contains("\"ok\":true"));
    let t0 = Instant::now();
    assert!(server.drain(), "nothing was inflight");
    drop(server);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "drain and drop took {took:?}");
    assert!(TcpStream::connect(local).is_err(), "the listener outlived the server");
}

/// The memoised analytic ranking changes no byte of any answer: a memo
/// hit equals the answer that filled the memo and a fresh server's, at
/// two thread counts of one (machine, n) asked in opposite orders — a
/// key that ignored `threads` would hand one the other's ranking.
#[test]
fn memoised_ranking_answers_are_byte_identical() {
    let dir = TempDir::new("servmemo");
    let store = dir.file("t.txt");
    let reqs = [
        "{\"machine\":\"i5\",\"n\":8,\"threads\":1,\"top\":3}",
        "{\"machine\":\"i5\",\"n\":8,\"threads\":2,\"top\":3}",
    ];
    let start = || {
        Server::start(ServeConfig { store: Some(store.clone()), ..ServeConfig::default() })
            .expect("bind")
    };
    // Measure the points once, so every later answer is all-warm.
    {
        let server = start();
        for r in reqs {
            assert!(ask(server.local_addr(), r).contains("\"ok\":true"));
        }
        assert!(server.drain());
    }
    let (first, hit): (Vec<String>, Vec<String>) = {
        let server = start();
        let mut client = Client::connect(server.local_addr());
        (reqs.map(|r| client.ask(r)).to_vec(), reqs.map(|r| client.ask(r)).to_vec())
    };
    let fresh_reversed: Vec<String> = {
        let server = start();
        let mut client = Client::connect(server.local_addr());
        let mut answers: Vec<String> = reqs.iter().rev().map(|r| client.ask(r)).collect();
        answers.reverse();
        answers
    };
    for a in &first {
        assert!(a.contains("\"ok\":true") && !a.contains("\"sim\""), "not all-warm: {a}");
    }
    assert_ne!(first[0], first[1], "vacuity: the two thread counts answer differently");
    assert_eq!(hit, first, "a memo hit must repeat the answer that filled the memo");
    assert_eq!(fresh_reversed, first, "memo keys must not alias across thread counts");
}

/// A client that pipelines a second cold request behind a running one
/// and vanishes mid-flight: the EOF sits *behind* the second request's
/// bytes, and no thread is reading the socket while the first request
/// waits on its flight — the wait's own probe has to take the pipelined
/// line out of the socket to see the client gone.
#[test]
fn pipelining_client_that_vanishes_still_unwinds() {
    let dir = TempDir::new("servpipe");
    let store = dir.file("t.txt");
    let server =
        Server::start(ServeConfig { store: Some(store.clone()), ..ServeConfig::default() })
            .expect("bind");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(b"{\"machine\":\"i5\",\"n\":64,\"threads\":2,\"top\":1}\n").unwrap();
    let t0 = Instant::now();
    while server.cache().stats().misses == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "flight never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Sent only now, so it is still in the socket (not in the server's
    // line buffer) when the client goes.
    stream.write_all(b"{\"machine\":\"i5\",\"n\":64,\"threads\":1,\"top\":1}\n").unwrap();
    drop(stream);

    let t0 = Instant::now();
    while server.stats().inflight > 0 {
        assert!(t0.elapsed() < Duration::from_secs(20), "abandoned request never unwound");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.drain());
    assert_eq!(server.cache().stats().misses, 1, "the second request must not start a flight");
    assert_eq!(count_entry_lines(&store), 0, "the cancelled measurement must not be recorded");
}

/// The request line is capped: a longer one gets exactly one
/// `bad_request` and the connection is closed, so a newline-less flood
/// cannot grow the server's memory. The server itself is unharmed.
#[test]
fn oversize_request_line_is_refused_and_the_connection_closed() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    client.send(&vec![b'x'; 100 * 1024]);
    let resp = client.reply().expect("an oversize line is answered before the close");
    assert!(resp.contains("\"error\":\"bad_request\"") && resp.contains("exceeds"), "{resp}");
    assert_eq!(client.reply(), None, "the connection is closed after the refusal");

    // A line just under the cap is still parsed (and rejected as JSON).
    let mut client = Client::connect(server.local_addr());
    let resp = client.ask(&"x".repeat(60 * 1024));
    assert!(resp.contains("malformed JSON"), "{resp}");
    assert!(client.ask(WARM_REQ).contains("\"ok\":true"), "the connection stays usable");
}

/// A partial request line waits at most `STALL` for its newline: then it
/// gets one `bad_request` and the connection is closed, so clients that
/// stop mid-line cannot hold connections forever. An idle connection
/// with nothing buffered is kept, and the server serves on.
#[test]
fn stalled_partial_line_is_refused_and_the_connection_closed() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut idle = Client::connect(server.local_addr());
    let mut stalled = Client::connect(server.local_addr());
    let t0 = Instant::now();
    stalled.send(b"{");
    let resp = stalled.reply().expect("a stalled line is answered before the close");
    let waited = t0.elapsed();
    assert!(resp.contains("\"error\":\"bad_request\"") && resp.contains("stalled"), "{resp}");
    assert!(waited >= STALL && waited < STALL + Duration::from_secs(2), "{waited:?}");
    assert_eq!(stalled.reply(), None, "the connection is closed after the refusal");

    assert!(idle.ask(WARM_REQ).contains("\"ok\":true"), "an idle connection is kept");
    assert!(Client::connect(server.local_addr()).ask(WARM_REQ).contains("\"ok\":true"));
}

/// Connections are capped: with `MAX_CONNS` idle ones open, the next is
/// answered `overloaded` (counted as rejected) and closed, so a flood
/// cannot spawn threads without bound. Once one closes, a new connection
/// is served again.
#[test]
fn connections_past_the_cap_are_refused_until_one_closes() {
    let server = Server::start(ServeConfig {
        retry_after: Duration::from_millis(250),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let mut idle: Vec<TcpStream> =
        (0..MAX_CONNS).map(|_| TcpStream::connect(addr).expect("connect")).collect();

    let mut extra = Client::connect(addr);
    let resp = extra.reply().expect("an over-cap connection is answered before the close");
    assert!(
        resp.contains("\"error\":\"overloaded\"") && resp.contains("\"retry_after_ms\":250"),
        "{resp}"
    );
    assert_eq!(extra.reply(), None, "the over-cap connection is closed");
    assert_eq!(server.stats().rejected, 1);

    // The closed connection's thread notices the EOF at once and gives
    // its slot back; until it has, a newcomer may still be refused.
    drop(idle.pop());
    let t0 = Instant::now();
    loop {
        let resp = Client::connect(addr).ask(WARM_REQ);
        if resp.contains("\"ok\":true") {
            break;
        }
        assert!(resp.contains("\"error\":\"overloaded\""), "{resp}");
        assert!(t0.elapsed() < Duration::from_secs(10), "the freed slot was never reused");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A request split across two writes further apart than the server's
/// idle read timeout is answered once — the timeout that fires mid-line
/// must keep the bytes it already has — and empty lines are skipped.
#[test]
fn split_request_lines_survive_the_idle_read_timeout() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    let (head, tail) = WARM_REQ.split_at(WARM_REQ.len() / 2);
    client.send(head.as_bytes());
    std::thread::sleep(Duration::from_millis(150));
    client.send(format!("{tail}\n").as_bytes());
    let resp = client.reply().unwrap();
    assert!(resp.contains("\"ok\":true") && resp.contains("\"threads\":2"), "{resp}");

    // Exactly one reply per request: the next line on the wire answers
    // the next request, with the blank lines around it unanswered.
    client.send(b"\n  \r\n{\"machine\":\"i5\",\"n\":7}\n\n");
    assert!(client.reply().unwrap().contains("must divide"));
    let resp = client.ask(WARM_REQ);
    assert!(resp.contains("\"ok\":true") && resp.contains("\"source\":\"warm\""), "{resp}");
    assert_eq!(server.stats().requests, 3, "blank lines are not requests");
}
