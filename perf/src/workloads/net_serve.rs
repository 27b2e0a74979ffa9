//! `net-serve` — the same engine and graph as `serve-mutate`, read-only,
//! through the TCP frontend.
//!
//! `Server::bind`/`run` listens on loopback; one load-generator thread
//! drives two `NetClient` connections (multiplexed with the repository's
//! epoll wrapper) with the mix 80 % `label` / 15 % `bfs` / 5 % `pr`, 30 % of
//! the heavy arguments repeated so coalescing has something to coalesce.
//! Framing, epoll, admission and micro-batching dominate. The workload
//! shares the read path with `serve-mutate` and none of its write path, so
//! a read-side gain that taxes mutation (or the reverse) shows as opposite
//! signs on the two.
//!
//! The measured time is split in two phases:
//!
//! * **A, open loop** at the fixed rate [`OPEN_LOOP_RPS`] (about a sixth
//!   of what phase B sustains on the reference box; the README says why
//!   not half): each request is timed from its due time → `op_p50_ms`,
//!   `op_tail_ms`, over every request of the phase.
//! * **B, closed loop**, 16 requests in flight per connection, in
//!   fixed-length rounds → `run_s`, `req_per_s`.
//!
//! Gate: every reply is `ok` and carries the digest an in-process replay
//! of the same request on the same engine produces.

use super::serve_mutate::{engine, fixture, heavy_pool};
use super::{measure_rounds, repeat_setup, Measured, RunConfig};
use crate::fixtures::load_mapped;
use crate::loadgen::{closed_loop, open_loop, Nanos, PhaseLog, Wire};
use crate::script::{generate, parse, Args, READ_MIX};
use crate::sink::{ratio, EngineCounters};
use crate::stats::median_ns;
use crate::trace::Tracer;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vebo_bench::serve::{Request, ServeEngine};
use vebo_net::epoll::{Epoll, EpollEvent, EPOLLIN};
use vebo_serve_net::{NetClient, Reply, Server, ServerConfig, ServerStats};

/// Offered load of the open-loop phase, requests per second. Fixed — an
/// open loop that followed the program's speed would not be one — and set
/// to about a sixth of the closed-loop rate of the reference box (see
/// README).
pub const OPEN_LOOP_RPS: f64 = 50.0;
/// Share of the measured time given to the open-loop phase: half, so that
/// at `run_seconds` = 16 each phase measures for 8 s.
const OPEN_LOOP_SHARE: f64 = 0.5;
/// Requests in flight per connection in the closed-loop phase.
const WINDOW_PER_CONN: usize = 16;
const CONNECTIONS: usize = 2;

/// The server's defaults, except for the admission bound: at the default
/// 64 a host stall of little over a second lets the open loop run that far
/// ahead, and the refusals would be the host's, not the program's.
/// `serve-net.busy` still counts any that occur.
fn server_config() -> ServerConfig {
    ServerConfig {
        max_inflight: 4096,
        ..ServerConfig::default()
    }
}

/// Two non-blocking client connections behind the [`Wire`] interface.
struct TcpWire {
    clients: Vec<NetClient>,
    /// Second handles to the sockets: the epoll registrations and the
    /// non-blocking flag live on these.
    _handles: Vec<TcpStream>,
    /// Requests sent and not yet answered, per connection (replies come
    /// back in request order).
    pending: Vec<VecDeque<usize>>,
    epoll: Epoll,
    origin: Instant,
    requests: Vec<Request>,
    replies: Vec<Option<Reply>>,
}

impl TcpWire {
    fn connect(addr: SocketAddr) -> io::Result<TcpWire> {
        let epoll = Epoll::new()?;
        let mut clients = Vec::new();
        let mut handles = Vec::new();
        for c in 0..CONNECTIONS {
            let client = NetClient::connect(&addr.to_string(), Duration::from_secs(5))?;
            let handle = client.writer()?;
            handle.set_nonblocking(true)?;
            epoll.add(handle.as_raw_fd(), EPOLLIN, c as u64)?;
            clients.push(client);
            handles.push(handle);
        }
        Ok(TcpWire {
            clients,
            _handles: handles,
            pending: vec![VecDeque::new(); CONNECTIONS],
            epoll,
            origin: Instant::now(),
            requests: Vec::new(),
            replies: Vec::new(),
        })
    }

    /// Loads the next phase's requests and restarts the phase clock.
    fn begin(&mut self, requests: Vec<Request>) {
        self.replies = vec![None; requests.len()];
        self.requests = requests;
        self.origin = Instant::now();
    }

    fn at(&self, t: Nanos) -> Instant {
        self.origin + Duration::from_nanos(t)
    }

    /// Drains every complete reply connection `c` has buffered.
    fn drain(&mut self, c: usize, answered: &mut Vec<usize>) -> io::Result<()> {
        loop {
            match self.clients[c].recv() {
                Ok(reply) => {
                    let i = self.pending[c].pop_front().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "reply without a request")
                    })?;
                    self.replies[i] = Some(reply);
                    answered.push(i);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

impl Wire for TcpWire {
    fn now(&self) -> Nanos {
        self.origin.elapsed().as_nanos() as Nanos
    }

    fn send(&mut self, i: usize) -> io::Result<()> {
        let c = (0..CONNECTIONS)
            .min_by_key(|&c| self.pending[c].len())
            .expect("at least one connection");
        self.clients[c].send(&self.requests[i])?;
        self.pending[c].push_back(i);
        Ok(())
    }

    fn poll(&mut self, until: Nanos) -> io::Result<Vec<usize>> {
        const MS: Nanos = 1_000_000;
        let mut events = [EpollEvent { events: 0, data: 0 }; CONNECTIONS];
        let mut answered = Vec::new();
        loop {
            // epoll sleeps in whole milliseconds: sleep to within a
            // millisecond of the deadline, then poll without blocking.
            let remaining = until.saturating_sub(self.now());
            let timeout_ms = (remaining / MS).saturating_sub(1).min(50) as i32;
            let n = self.epoll.wait(&mut events, timeout_ms)?;
            for ev in &events[..n] {
                self.drain(ev.token() as usize, &mut answered)?;
            }
            if !answered.is_empty() || self.now() >= until {
                return Ok(answered);
            }
            if timeout_ms == 0 {
                std::thread::yield_now();
            }
        }
    }
}

struct Ready {
    engine: Arc<ServeEngine>,
    wire: Option<TcpWire>,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<io::Result<ServerStats>>>,
}

impl Ready {
    /// Closes the connections, stops the server and waits for it.
    fn shutdown(&mut self) -> io::Result<ServerStats> {
        self.wire = None;
        self.stop.store(true, Ordering::SeqCst);
        match self.server.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| io::Error::other("server thread panicked"))?,
            None => Ok(ServerStats::default()),
        }
    }
}

impl Drop for Ready {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Checks every reply of a finished phase against the in-process digest;
/// returns how many requests failed.
fn failures(
    engine: &ServeEngine,
    expected: &mut HashMap<Request, u64>,
    requests: &[Request],
    replies: &[Option<Reply>],
) -> u64 {
    let n = engine.dynamic().num_vertices().max(1) as u32;
    let mut failed = 0;
    for (req, reply) in requests.iter().zip(replies) {
        let want = *expected.entry(req.canonical(n)).or_insert_with(|| {
            engine
                .try_handle(req)
                .expect("queries are never refused")
                .digest
        });
        match reply {
            Some(Reply::Ok { digest, .. }) if *digest == want => {}
            _ => failed += 1,
        }
    }
    failed
}

/// `FrameDecoder` round trip over a synthetic buffer of request frames,
/// fed in socket-sized slices: nanoseconds per frame.
fn frame_ns() -> f64 {
    const FRAMES: usize = 20_000;
    let mut wire = Vec::new();
    for i in 0..FRAMES {
        vebo_net::encode_frame(format!("label {}", i * 7919).as_bytes(), &mut wire);
    }
    let t0 = Instant::now();
    let mut decoder = vebo_net::FrameDecoder::with_max_frame(1 << 16);
    let mut decoded = 0usize;
    for slice in wire.chunks(4096) {
        decoder.push(slice);
        while let Ok(Some(frame)) = decoder.next_frame() {
            std::hint::black_box(&frame);
            decoded += 1;
        }
    }
    assert_eq!(decoded, FRAMES);
    t0.elapsed().as_nanos() as f64 / FRAMES as f64
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> io::Result<Measured> {
    let path = fixture(cfg).ensure()?;
    let counters = Arc::new(EngineCounters::default());
    let chunk_len = cfg.size(100, 60);
    let seed = cfg.seed;
    // The benchmark's own copy of the fixture, for the script's hub pool.
    let g0 = load_mapped(&path)?;
    let vertices = g0.num_vertices() as u64;
    let pool = heavy_pool(&g0, seed);
    let chunk = |i: u64, count: usize| {
        let args = Args {
            vertices,
            heavy_pool: &pool,
            repeat_share: 0.3,
        };
        parse(&generate(seed, i, count, READ_MIX, args))
    };

    let (mut ready, setup_s) = repeat_setup(cfg.size(5, 1), tracer, |t| {
        let g = t.span("graph.load", |_| load_mapped(&path))?;
        let engine = Arc::new(t.span("serve.engine_new", |_| engine(cfg, g, &counters)));
        let server = Server::bind("127.0.0.1:0", server_config())?;
        let addr = server.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (engine, stop) = (engine.clone(), stop.clone());
            std::thread::Builder::new()
                .name("perf-net-server".into())
                .spawn(move || server.run(engine, &stop))?
        };
        let mut ready = Ready {
            engine,
            wire: None,
            stop,
            server: Some(handle),
        };
        let mut wire = t.span("serve-net.connect", |_| TcpWire::connect(addr))?;
        // Two rounds' worth: the first touches every hub of the pool.
        wire.begin(chunk(0, 2 * chunk_len));
        t.span("perf.warmup", |_| {
            closed_loop(&mut wire, 2 * chunk_len, WINDOW_PER_CONN * CONNECTIONS)
        })?;
        ready.wire = Some(wire);
        Ok(ready)
    })?;
    let mut wire = ready.wire.take().expect("set-up connected");

    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    // Replies are checked after the phases, outside every timed interval.
    let mut finished: Vec<(Vec<Request>, Vec<Option<Reply>>)> = Vec::new();
    let before = counters.snapshot();

    // Phase A: open loop.
    let open_seconds = cfg.seconds * OPEN_LOOP_SHARE;
    let open_count = ((OPEN_LOOP_RPS * open_seconds) as usize).max(10);
    let interval = (1e9 / OPEN_LOOP_RPS) as Nanos;
    wire.begin(chunk(1, open_count));
    let open = tracer.span("perf.open_loop", |t| -> io::Result<PhaseLog> {
        let log = open_loop(&mut wire, open_count, interval)?;
        for i in 0..open_count {
            t.set_op(i as u32);
            t.record(
                "serve-net.request",
                wire.at(log.due[i]),
                wire.at(log.done[i]),
            );
        }
        Ok(log)
    })?;
    m.ops = open.latency_from_due();
    let open_requests = std::mem::take(&mut wire.requests);
    let label_ns: Vec<u64> = m
        .ops
        .iter()
        .zip(&open_requests)
        .filter(|(_, r)| matches!(r, Request::Label { .. }))
        .map(|(&ns, _)| ns)
        .collect();
    finished.push((open_requests, std::mem::take(&mut wire.replies)));

    // Phase B: closed loop, in rounds of `chunk_len` requests.
    let before_closed = counters.snapshot();
    let times = measure_rounds(cfg.seconds - open_seconds, tracer, |r, t| {
        wire.begin(chunk(r as u64 + 2, chunk_len));
        let log = closed_loop(&mut wire, chunk_len, WINDOW_PER_CONN * CONNECTIONS)?;
        for i in 0..chunk_len {
            t.set_op((open_count + r * chunk_len + i) as u32);
            t.record(
                "serve-net.request",
                wire.at(log.sent[i]),
                wire.at(log.done[i]),
            );
        }
        finished.push((
            std::mem::take(&mut wire.requests),
            std::mem::take(&mut wire.replies),
        ));
        Ok(())
    })?;
    let after = counters.snapshot();
    let engine_counts = after.since(&before);

    drop(wire);
    let stats = ready.shutdown()?;
    let served = ready.engine.metrics();

    let mut expected = HashMap::new();
    let mut closed_failed = 0;
    for (phase, (requests, replies)) in finished.iter().enumerate() {
        let failed = failures(&ready.engine, &mut expected, requests, replies);
        m.attempted += requests.len() as u64;
        m.failed += failed;
        if phase > 0 {
            closed_failed += failed;
        }
    }
    m.closed_ok = (times.all.len() * chunk_len) as u64 - closed_failed;
    m.edges = after.since(&before_closed).edges();
    m.rounds = times;

    if cfg.trace {
        m.set_engine_layer(&engine_counts);
        let kind_p50 = |code: &str| served.kind_quantile(code, 0.5).unwrap_or(0) as f64;
        let l = &mut m.layer;
        l.set("serve.label_p50_us", kind_p50("label") / 1e3);
        l.set("serve.bfs_p50_ms", kind_p50("bfs") / 1e6);
        l.set("serve.pr_p50_ms", kind_p50("pr") / 1e6);
        l.set(
            "serve-net.overhead_p50_us",
            (median_ns(&label_ns) - kind_p50("label")) / 1e3,
        );
        l.set("serve-net.batches", served.batches as f64);
        l.set(
            "serve-net.batch_mean",
            ratio(served.batched_requests as f64, served.batches as f64),
        );
        l.set(
            "serve-net.coalesced_share",
            ratio(
                served
                    .batched_requests
                    .saturating_sub(served.batch_executions) as f64,
                served.batched_requests as f64,
            ),
        );
        l.set("serve-net.queue_depth_mean", served.mean_admission_depth());
        l.set("serve-net.busy", stats.busy as f64);
        l.set("serve-net.fair_yields", stats.fair_yields as f64);
        l.set("net.frame_ns", frame_ns());
        let mut late = open.lateness();
        late.sort_unstable();
        let p99 = late[(late.len() * 99).div_ceil(100) - 1];
        l.set("perf.loadgen_late_p99_ms", p99 as f64 / 1e6);
        l.set(
            "partition.prepare_s",
            ready.engine.prepared().prep_time().as_secs_f64(),
        );
        super::graph_layer(&mut m.layer, &path, &g0)?;
    }
    Ok(m)
}
