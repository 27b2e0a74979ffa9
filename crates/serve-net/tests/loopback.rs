//! Loopback conformance: digests served over real TCP — micro-batching,
//! admission control and all — must be **bit-identical** to an
//! in-process `ServeEngine` handling the same script sequentially, on
//! both executor backends (the sequential reference and sharded). Plus the observable-backpressure
//! and graceful-drain contracts of the server.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vebo_bench::serve::{generate_requests, Request, ServeEngine};
use vebo_engine::{ExecMode, Executor, SystemProfile};
use vebo_graph::Dataset;
use vebo_serve_net::{NetClient, Reply, Server, ServerConfig};

fn engine(mode: ExecMode) -> ServeEngine {
    let g = Dataset::YahooLike.build(0.03);
    let profile = SystemProfile::polymer_like();
    ServeEngine::new(g, profile, Executor::new(profile).with_mode(mode))
}

/// Mixed workload with deliberate duplicate queries appended so the
/// dispatcher's coalescing path demonstrably dedupes (the batch
/// counters are asserted below).
fn workload() -> Vec<Request> {
    let mut requests = generate_requests(48, 7);
    for _ in 0..8 {
        requests.push(Request::Label { v: 3 });
        requests.push(Request::Bfs { seed: 5 });
    }
    requests
}

fn conformance(mode: ExecMode) {
    let requests = workload();

    // In-process reference: the same engine configuration handling the
    // same requests one by one (what `vebo-serve --concurrency 1`
    // does). Its digests are the ground truth.
    let reference = engine(mode);
    let expect: Vec<u64> = requests
        .iter()
        .map(|r| reference.handle(r).digest)
        .collect();

    let served = Arc::new(engine(mode));
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 1024,
            batch_window: Duration::from_micros(200),
            max_batch: 16,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let run_engine = Arc::clone(&served);
        let handle = scope.spawn(|| server.run(run_engine, &stop));

        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).unwrap();
        // Pipeline the whole script on one connection: replies come
        // back in request order, so index i pairs with request i.
        for r in &requests {
            client.send(r).unwrap();
        }
        for (i, (req, want)) in requests.iter().zip(&expect).enumerate() {
            match client.recv().unwrap() {
                Reply::Ok { code, digest } => {
                    assert_eq!(code, req.code(), "req {i} code");
                    assert_eq!(
                        digest,
                        *want,
                        "req {i} ({}) digest over TCP != in-process",
                        req.to_line()
                    );
                }
                other => panic!("req {i} ({}): unexpected {other:?}", req.to_line()),
            }
        }

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.requests, requests.len() as u64);
        assert_eq!(stats.busy, 0);
        assert_eq!(stats.protocol_errors, 0);
    });

    // Micro-batching was active and actually coalesced: more requests
    // rode batches than engine executions were paid for.
    let m = served.metrics();
    assert!(m.batches > 0, "no batches flushed");
    assert!(
        m.batched_requests > m.batch_executions,
        "coalescing never deduped: {} requests vs {} executions",
        m.batched_requests,
        m.batch_executions,
    );
    assert!(m.admitted >= requests.len() as u64 - m.rejected);
}

#[test]
fn tcp_digests_match_in_process_on_sequential() {
    conformance(ExecMode::Sequential);
}

#[test]
fn tcp_digests_match_in_process_on_sharded() {
    conformance(ExecMode::Sharded { shards: 4 });
}

#[test]
fn tiny_inflight_bound_answers_busy() {
    let served = Arc::new(engine(ExecMode::Sharded { shards: 2 }));
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 1,
            batch_window: Duration::from_micros(100),
            max_batch: 8,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let run_engine = Arc::clone(&served);
        let handle = scope.spawn(|| server.run(run_engine, &stop));

        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).unwrap();
        // Flood with whole-graph sweeps: with one admission slot, the
        // burst must overflow into BUSY replies.
        let req = Request::PageRankDelta { rounds: 4 };
        let total = 32;
        for _ in 0..total {
            client.send(&req).unwrap();
        }
        let (mut oks, mut busy) = (0u64, 0u64);
        for _ in 0..total {
            match client.recv().unwrap() {
                Reply::Ok { digest, .. } => {
                    oks += 1;
                    // Rejections never change results: every accepted
                    // sweep returns the same digest.
                    assert_eq!(digest, served.handle(&req).digest);
                }
                Reply::Busy => busy += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(busy > 0, "no BUSY under max_inflight=1 and a 32-deep burst");
        assert!(oks > 0, "admission control rejected everything");

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.busy, busy);
    });
    let m = served.metrics();
    assert!(m.rejected > 0);
    assert!(m.queue_depth_max <= 1);
}

#[test]
fn malformed_lines_get_err_replies_and_oversized_frames_close() {
    let served = Arc::new(engine(ExecMode::Sharded { shards: 2 }));
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let run_engine = Arc::clone(&served);
        let handle = scope.spawn(|| server.run(run_engine, &stop));

        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).unwrap();
        client.send(&Request::Label { v: 1 }).unwrap();
        client.send_payload(b"walk 1 2").unwrap();
        client.send_payload(b"pr").unwrap();
        client.send(&Request::Label { v: 2 }).unwrap();

        // Replies stay in request order: ok, err, err, ok.
        assert!(matches!(client.recv().unwrap(), Reply::Ok { .. }));
        assert!(matches!(client.recv().unwrap(), Reply::Err(_)));
        assert!(matches!(client.recv().unwrap(), Reply::Err(_)));
        assert!(matches!(client.recv().unwrap(), Reply::Ok { .. }));

        // An oversized length prefix gets one err reply, then the
        // server hangs up.
        let writer = client.writer().unwrap();
        (&writer).write_all(&(1u32 << 24).to_le_bytes()).unwrap();
        assert!(matches!(client.recv().unwrap(), Reply::Err(_)));
        assert!(client.recv().is_err());

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.protocol_errors, 1);
    });
}

#[test]
fn weighted_snapshot_answers_err_to_mutations_and_keeps_serving() {
    // A weighted snapshot serves queries but refuses mutations; over the
    // wire that must be an `err` reply on that request, not a dispatcher
    // panic that kills the daemon.
    let g = Dataset::YahooLike.build(0.03).with_hash_weights(16);
    let profile = SystemProfile::polymer_like();
    let served = Arc::new(ServeEngine::new(g, profile, Executor::sharded(profile, 2)));
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let run_engine = Arc::clone(&served);
        let handle = scope.spawn(|| server.run(run_engine, &stop));

        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).unwrap();
        client.send(&Request::Label { v: 1 }).unwrap();
        client.send(&Request::AddEdge { u: 1, v: 2 }).unwrap();
        client.send(&Request::DelEdge { u: 1, v: 2 }).unwrap();
        client.send(&Request::Label { v: 1 }).unwrap();

        assert!(matches!(client.recv().unwrap(), Reply::Ok { .. }));
        for _ in 0..2 {
            match client.recv().unwrap() {
                Reply::Err(msg) => {
                    assert!(msg.contains("unweighted"), "unexpected err text: {msg}")
                }
                other => panic!("weighted mutation answered {other:?}, want err"),
            }
        }
        // The connection and the engine survived the refusals.
        assert!(matches!(client.recv().unwrap(), Reply::Ok { .. }));

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.protocol_errors, 0);
    });
}

#[test]
fn full_delta_log_answers_busy_and_recovers_after_compaction() {
    // Bound the delta log at one buffered mutation: a pipelined burst of
    // distinct inserts must see `busy` while the background compactor
    // catches up, and the engine keeps answering (no panic, no hang).
    let mut e = engine(ExecMode::Sharded { shards: 2 });
    e.set_log_capacity(1);
    e.set_compaction_blocking(false);
    let served = Arc::new(e);
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let run_engine = Arc::clone(&served);
        let handle = scope.spawn(|| server.run(run_engine, &stop));

        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).unwrap();
        let total = 64u32;
        for i in 0..total {
            client
                .send(&Request::AddEdge {
                    u: 2 * i,
                    v: 2 * i + 1,
                })
                .unwrap();
        }
        let (mut oks, mut busy) = (0u64, 0u64);
        for _ in 0..total {
            match client.recv().unwrap() {
                Reply::Ok { .. } => oks += 1,
                Reply::Busy => busy += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(oks > 0, "every insert was refused");
        assert!(
            busy > 0,
            "a 64-insert burst against log-cap 1 never went busy"
        );

        // Once the backlog drains, the lane accepts mutations again.
        served.drain_compaction();
        client.send(&Request::AddEdge { u: 999, v: 998 }).unwrap();
        assert!(matches!(client.recv().unwrap(), Reply::Ok { .. }));

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap().unwrap();
        assert!(stats.busy >= busy);
    });
    let m = served.metrics();
    assert!(m.log_stalls > 0, "refusals were not recorded as log stalls");
}

#[test]
fn read_budget_bounds_one_connections_drain_per_event() {
    // Regression for connection-level fairness: a single connection that
    // floods more bytes than READ_BUDGET before the readiness loop runs
    // must be drained across multiple events (counted as fair yields),
    // with every frame still answered in order.
    let served = Arc::new(engine(ExecMode::Sharded { shards: 2 }));
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 4096,
            batch_window: Duration::from_micros(100),
            max_batch: 32,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    // Connect and write the whole flood BEFORE the readiness loop starts
    // (the bound listener's backlog completes the handshake): the first
    // readiness event then deterministically finds far more than one
    // read budget pending.
    let mut client = NetClient::connect(&addr, Duration::from_secs(10)).unwrap();
    let total = 2500usize; // 9 bytes framed each: ~22 KiB, budget is 16 KiB
    for _ in 0..total {
        client.send(&Request::Label { v: 3 }).unwrap();
    }

    std::thread::scope(|scope| {
        let run_engine = Arc::clone(&served);
        let handle = scope.spawn(|| server.run(run_engine, &stop));

        let (mut oks, mut busy) = (0usize, 0usize);
        for _ in 0..total {
            match client.recv().unwrap() {
                Reply::Ok { .. } => oks += 1,
                Reply::Busy => busy += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(oks + busy, total);
        assert!(oks > 0, "flood was entirely rejected");

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.requests, total as u64);
        assert!(
            stats.fair_yields >= 1,
            "a {total}-frame flood never exhausted the per-event read budget"
        );
    });
}

#[test]
fn drain_completes_admitted_requests_before_exit() {
    let served = Arc::new(engine(ExecMode::Sharded { shards: 2 }));
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let run_engine = Arc::clone(&served);
        let handle = scope.spawn(|| server.run(run_engine, &stop));

        let mut client = NetClient::connect(&addr, Duration::from_secs(10)).unwrap();
        for i in 0..10 {
            client.send(&Request::Bfs { seed: i }).unwrap();
        }
        // Once the first reply is back the batch has been read and
        // admitted; a stop now must still answer everything admitted.
        let first = client.recv().unwrap();
        assert!(matches!(first, Reply::Ok { .. }));
        stop.store(true, Ordering::SeqCst);

        let mut replies = 1;
        // recv errors once the server closes the drained connection.
        while let Ok(reply) = client.recv() {
            assert!(matches!(reply, Reply::Ok { .. }));
            replies += 1;
        }
        assert!(replies >= 1);
        let stats = handle.join().unwrap().unwrap();
        assert!(stats.requests >= replies as u64);
    });
}
