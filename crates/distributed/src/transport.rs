//! Wire protocol and peer mesh of the multi-process cluster runtime.
//!
//! Everything on a cluster socket is a length-prefixed binary frame —
//! the same `u32`-little-endian framing the serving frontend speaks
//! ([`vebo_net::frame`]), so the decoder and its oversize poisoning are
//! shared code. Inside each frame sits one [`Msg`], a fixed-tag binary
//! encoding (no text, no allocation tricks): value batches are flat
//! `(u32 vertex, u64 bits)` pairs, which covers `f64` PageRank values
//! (`to_bits`) and `u32` BFS levels / CC labels alike.
//!
//! Two kinds of connections exist:
//!
//! * **control** — each worker dials the coordinator once
//!   ([`Msg::Join`]), receives its identity and the roster
//!   ([`Msg::Start`]), then alternates [`Msg::StepDone`] /
//!   [`Msg::Continue`] with the coordinator's superstep barrier;
//! * **mesh** — every ordered worker pair exchanges exactly one
//!   [`Msg::Gather`] and one [`Msg::Scatter`] per superstep (possibly
//!   with an empty pair list), so message *counts* are static and the
//!   runtime never needs speculative polling: a phase completes when one
//!   frame per peer has arrived.
//!
//! [`Mesh::connect`] builds the full worker-to-worker clique: worker `i`
//! dials every lower-numbered peer (identifying itself with
//! [`Msg::Hello`]) and accepts every higher-numbered one. One reader
//! thread per peer decodes frames into a shared channel; [`Mesh::recv_phase`]
//! reassembles per-phase batches, stashing any frame that arrives early.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;

use crate::runtime::ClusterAlgo;
use vebo_net::{encode_frame, FrameDecoder};

/// Frame cap on cluster sockets: a full value exchange for a shard can
/// be megabytes, but a frame claiming more than this is a corrupt or
/// hostile peer, not a big batch.
pub const CLUSTER_MAX_FRAME: usize = 64 << 20;

/// A `(vertex, bits)` value pair — the unit every gather/scatter/values
/// batch is made of. `bits` is `f64::to_bits` for PageRank and a
/// zero-extended `u32` for BFS levels / CC labels.
pub type ValuePair = (u32, u64);

/// One cluster protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Worker → coordinator, first frame on a control connection: "I
    /// exist, my mesh listener is on this port" (the IP is taken from
    /// the connection's peer address).
    Join {
        /// Port of the worker's mesh listener.
        mesh_port: u16,
    },
    /// Coordinator → worker: identity assignment and the full mesh
    /// roster, indexed by worker id. Closes the join phase.
    Start {
        /// The receiving worker's id (index into `roster`).
        worker_id: u32,
        /// Mesh address of every worker, indexed by id.
        roster: Vec<SocketAddr>,
    },
    /// Worker → worker, first frame on a mesh connection: the dialing
    /// side identifies itself.
    Hello {
        /// Id of the dialing worker.
        worker_id: u32,
    },
    /// Coordinator → workers: run this algorithm next.
    Begin {
        /// The algorithm to execute in BSP supersteps.
        algo: ClusterAlgo,
    },
    /// Mirror → master accumulation batch for one superstep.
    Gather {
        /// Superstep index the batch belongs to.
        step: u32,
        /// Per-vertex partial values, ascending by vertex id.
        pairs: Vec<ValuePair>,
    },
    /// Master → mirror broadcast batch for one superstep.
    Scatter {
        /// Superstep index the batch belongs to.
        step: u32,
        /// Per-vertex authoritative values, ascending by vertex id.
        pairs: Vec<ValuePair>,
    },
    /// Worker → coordinator: superstep barrier arrival.
    StepDone {
        /// The completed superstep.
        step: u32,
        /// Vertices this worker activated this superstep (drives BFS/CC
        /// termination).
        active: u64,
        /// Value pairs this worker shipped to remote peers this
        /// superstep (gather + scatter).
        sent: u64,
    },
    /// Coordinator → workers: barrier release with the continue/halt
    /// decision.
    Continue {
        /// The superstep being released.
        step: u32,
        /// Whether another superstep follows.
        go: bool,
    },
    /// Worker → coordinator, after halt: final values of every vertex
    /// this worker masters.
    Values {
        /// `(vertex, bits)` for each owned vertex, ascending.
        pairs: Vec<ValuePair>,
    },
    /// Coordinator → workers: tear down and exit.
    Shutdown,
}

const TAG_JOIN: u8 = 1;
const TAG_START: u8 = 2;
const TAG_HELLO: u8 = 3;
const TAG_BEGIN: u8 = 4;
const TAG_GATHER: u8 = 5;
const TAG_SCATTER: u8 = 6;
const TAG_STEP_DONE: u8 = 7;
const TAG_CONTINUE: u8 = 8;
const TAG_VALUES: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;

const ALGO_PAGERANK: u8 = 0;
const ALGO_BFS: u8 = 1;
const ALGO_CC: u8 = 2;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cluster wire: {what}"))
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[ValuePair]) {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(v, bits) in pairs {
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&bits.to_le_bytes());
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated message"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn pairs(&mut self) -> io::Result<Vec<ValuePair>> {
        let count = self.u32()? as usize;
        // 12 bytes per pair must fit in what remains — reject the count
        // before allocating.
        if count > (self.buf.len() - self.pos) / 12 {
            return Err(bad("pair count exceeds frame"));
        }
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            let v = self.u32()?;
            let bits = self.u64()?;
            pairs.push((v, bits));
        }
        Ok(pairs)
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after message"))
        }
    }
}

impl Msg {
    /// Serializes the message body (the frame payload, without the
    /// length header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Join { mesh_port } => {
                out.push(TAG_JOIN);
                out.extend_from_slice(&mesh_port.to_le_bytes());
            }
            Msg::Start { worker_id, roster } => {
                out.push(TAG_START);
                out.extend_from_slice(&worker_id.to_le_bytes());
                out.extend_from_slice(&(roster.len() as u32).to_le_bytes());
                for addr in roster {
                    let s = addr.to_string();
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
            Msg::Hello { worker_id } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&worker_id.to_le_bytes());
            }
            Msg::Begin { algo } => {
                out.push(TAG_BEGIN);
                let (tag, a) = match *algo {
                    ClusterAlgo::PageRank { iters } => (ALGO_PAGERANK, iters as u64),
                    ClusterAlgo::Bfs { source } => (ALGO_BFS, source as u64),
                    ClusterAlgo::Cc => (ALGO_CC, 0),
                };
                out.push(tag);
                out.extend_from_slice(&a.to_le_bytes());
            }
            Msg::Gather { step, pairs } => {
                out.push(TAG_GATHER);
                out.extend_from_slice(&step.to_le_bytes());
                put_pairs(&mut out, pairs);
            }
            Msg::Scatter { step, pairs } => {
                out.push(TAG_SCATTER);
                out.extend_from_slice(&step.to_le_bytes());
                put_pairs(&mut out, pairs);
            }
            Msg::StepDone { step, active, sent } => {
                out.push(TAG_STEP_DONE);
                out.extend_from_slice(&step.to_le_bytes());
                out.extend_from_slice(&active.to_le_bytes());
                out.extend_from_slice(&sent.to_le_bytes());
            }
            Msg::Continue { step, go } => {
                out.push(TAG_CONTINUE);
                out.extend_from_slice(&step.to_le_bytes());
                out.push(u8::from(*go));
            }
            Msg::Values { pairs } => {
                out.push(TAG_VALUES);
                put_pairs(&mut out, pairs);
            }
            Msg::Shutdown => out.push(TAG_SHUTDOWN),
        }
        out
    }

    /// Parses one frame payload. Truncated, oversized-count, trailing
    /// or unknown-tag payloads are `InvalidData` errors.
    pub fn decode(payload: &[u8]) -> io::Result<Msg> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let msg = match c.u8()? {
            TAG_JOIN => Msg::Join {
                mesh_port: c.u16()?,
            },
            TAG_START => {
                let worker_id = c.u32()?;
                let count = c.u32()? as usize;
                if count > 64 {
                    return Err(bad("roster larger than the 64-machine cap"));
                }
                let mut roster = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = c.u16()? as usize;
                    let s =
                        std::str::from_utf8(c.take(len)?).map_err(|_| bad("roster not utf-8"))?;
                    roster.push(s.parse().map_err(|_| bad("roster addr unparseable"))?);
                }
                Msg::Start { worker_id, roster }
            }
            TAG_HELLO => Msg::Hello {
                worker_id: c.u32()?,
            },
            TAG_BEGIN => {
                let tag = c.u8()?;
                let a = c.u64()?;
                let algo = match tag {
                    ALGO_PAGERANK => ClusterAlgo::PageRank { iters: a as u32 },
                    ALGO_BFS => ClusterAlgo::Bfs { source: a as u32 },
                    ALGO_CC => {
                        Msg::require(a == 0, "cc carries no argument").map(|()| ClusterAlgo::Cc)?
                    }
                    _ => return Err(bad("unknown algorithm tag")),
                };
                Msg::Begin { algo }
            }
            TAG_GATHER => Msg::Gather {
                step: c.u32()?,
                pairs: c.pairs()?,
            },
            TAG_SCATTER => Msg::Scatter {
                step: c.u32()?,
                pairs: c.pairs()?,
            },
            TAG_STEP_DONE => Msg::StepDone {
                step: c.u32()?,
                active: c.u64()?,
                sent: c.u64()?,
            },
            TAG_CONTINUE => Msg::Continue {
                step: c.u32()?,
                go: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(bad("continue flag out of range")),
                },
            },
            TAG_VALUES => Msg::Values { pairs: c.pairs()? },
            TAG_SHUTDOWN => Msg::Shutdown,
            _ => return Err(bad("unknown message tag")),
        };
        c.done()?;
        Ok(msg)
    }

    fn require(ok: bool, what: &'static str) -> io::Result<()> {
        if ok {
            Ok(())
        } else {
            Err(bad(what))
        }
    }
}

/// A blocking, framed, `TCP_NODELAY` message connection — the control
/// channel between a worker and the coordinator, and the join-phase leg
/// of mesh connections.
pub struct FramedConn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl FramedConn {
    /// Wraps a connected stream; disables Nagle so barrier messages
    /// (tens of bytes) don't sit in the send buffer.
    pub fn new(stream: TcpStream) -> io::Result<FramedConn> {
        stream.set_nodelay(true)?;
        Ok(FramedConn {
            stream,
            decoder: FrameDecoder::with_max_frame(CLUSTER_MAX_FRAME),
        })
    }

    /// The underlying stream (for epoll registration and address
    /// introspection).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Encodes and writes one message as a single frame.
    pub fn send(&mut self, msg: &Msg) -> io::Result<()> {
        let mut out = Vec::new();
        encode_frame(&msg.encode(), &mut out);
        self.stream.write_all(&out)
    }

    /// Blocks until one full message arrives. A clean peer close with
    /// no buffered frame is `UnexpectedEof`.
    pub fn recv(&mut self) -> io::Result<Msg> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(payload) = self.decoder.next_frame().map_err(oversized)? {
                return Msg::decode(&payload);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-protocol",
                ));
            }
            self.decoder.push(&chunk[..n]);
        }
    }

    /// Pops a message already sitting in the decode buffer, without
    /// touching the socket. Epoll-driven loops must drain this before
    /// waiting: buffered bytes generate no further readiness events.
    pub fn try_buffered(&mut self) -> io::Result<Option<Msg>> {
        match self.decoder.next_frame().map_err(oversized)? {
            Some(payload) => Msg::decode(&payload).map(Some),
            None => Ok(None),
        }
    }
}

fn oversized(e: vebo_net::Oversized) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Which mesh exchange a [`Mesh::recv_phase`] call is collecting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Mirror → master accumulation ([`Msg::Gather`]).
    Gather,
    /// Master → mirror broadcast ([`Msg::Scatter`]).
    Scatter,
}

/// The fully-connected worker mesh: one duplex TCP connection per peer,
/// one reader thread per connection, and an early-arrival stash so
/// phases can be collected strictly in protocol order.
pub struct Mesh {
    me: u32,
    writers: BTreeMap<u32, TcpStream>,
    rx: mpsc::Receiver<(u32, io::Result<Msg>)>,
    stash: VecDeque<(u32, Msg)>,
}

impl Mesh {
    /// Builds the clique for worker `me` given the coordinator's
    /// roster: dials every lower id (sending [`Msg::Hello`]), accepts
    /// every higher id (reading theirs). `listener` is the mesh
    /// listener whose port was advertised in [`Msg::Join`].
    pub fn connect(me: u32, listener: &TcpListener, roster: &[SocketAddr]) -> io::Result<Mesh> {
        let w = roster.len();
        let (tx, rx) = mpsc::channel();
        let mut writers = BTreeMap::new();
        for peer in 0..me {
            let stream = TcpStream::connect(roster[peer as usize])?;
            let mut conn = FramedConn::new(stream.try_clone()?)?;
            conn.send(&Msg::Hello { worker_id: me })?;
            let tx = tx.clone();
            thread::spawn(move || read_loop(peer, conn, tx));
            writers.insert(peer, stream);
        }
        for _ in (me as usize + 1)..w {
            let (stream, _) = listener.accept()?;
            // The reader keeps the decoder that consumed the hello:
            // frames an eager peer pipelined right behind it are
            // already buffered there and must not be dropped.
            let mut reader = FramedConn::new(stream.try_clone()?)?;
            let peer = match reader.recv()? {
                Msg::Hello { worker_id } if (worker_id as usize) < w && worker_id > me => worker_id,
                other => return Err(bad(&format!("expected mesh hello, got {other:?}"))),
            };
            if writers.contains_key(&peer) {
                return Err(bad("duplicate mesh hello"));
            }
            let tx = tx.clone();
            thread::spawn(move || read_loop(peer, reader, tx));
            writers.insert(peer, stream);
        }
        Ok(Mesh {
            me,
            writers,
            rx,
            stash: VecDeque::new(),
        })
    }

    /// This worker's id.
    pub fn me(&self) -> u32 {
        self.me
    }

    /// Ids of all peers (every worker but this one), ascending.
    pub fn peers(&self) -> impl Iterator<Item = u32> + '_ {
        self.writers.keys().copied()
    }

    /// Sends one message to `peer`.
    pub fn send_to(&mut self, peer: u32, msg: &Msg) -> io::Result<()> {
        let stream = self
            .writers
            .get_mut(&peer)
            .ok_or_else(|| bad("send to unknown peer"))?;
        let mut out = Vec::new();
        encode_frame(&msg.encode(), &mut out);
        stream.write_all(&out)
    }

    /// Collects exactly one `phase` batch of superstep `step` from
    /// every peer, returning `(peer, pairs)` ascending by peer id.
    /// Frames for later phases that race ahead are stashed, not lost.
    pub fn recv_phase(
        &mut self,
        phase: Phase,
        step: u32,
    ) -> io::Result<Vec<(u32, Vec<ValuePair>)>> {
        let mut got: BTreeMap<u32, Vec<ValuePair>> = BTreeMap::new();
        let want = self.writers.len();
        let matches = |msg: &Msg| -> bool {
            match (phase, msg) {
                (Phase::Gather, Msg::Gather { step: s, .. }) => *s == step,
                (Phase::Scatter, Msg::Scatter { step: s, .. }) => *s == step,
                _ => false,
            }
        };
        let mut i = 0;
        while i < self.stash.len() {
            if matches(&self.stash[i].1) {
                let (peer, msg) = self.stash.remove(i).expect("index in bounds");
                got.insert(peer, pairs_of(msg));
            } else {
                i += 1;
            }
        }
        while got.len() < want {
            let (peer, msg) = self.rx.recv().map_err(|_| bad("all mesh readers exited"))?;
            let msg = msg?;
            if matches(&msg) {
                if got.insert(peer, pairs_of(msg)).is_some() {
                    return Err(bad("duplicate phase batch from peer"));
                }
            } else {
                self.stash.push_back((peer, msg));
            }
        }
        Ok(got.into_iter().collect())
    }
}

fn pairs_of(msg: Msg) -> Vec<ValuePair> {
    match msg {
        Msg::Gather { pairs, .. } | Msg::Scatter { pairs, .. } => pairs,
        _ => unreachable!("recv_phase only matches gather/scatter"),
    }
}

fn read_loop(peer: u32, mut conn: FramedConn, tx: mpsc::Sender<(u32, io::Result<Msg>)>) {
    loop {
        match conn.recv() {
            Ok(msg) => {
                if tx.send((peer, Ok(msg))).is_err() {
                    return; // mesh dropped; nobody is listening
                }
            }
            Err(e) => {
                let _ = tx.send((peer, Err(e)));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let bytes = msg.encode();
        assert_eq!(Msg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Msg::Join { mesh_port: 40321 });
        round_trip(Msg::Start {
            worker_id: 2,
            roster: vec![
                "127.0.0.1:4000".parse().unwrap(),
                "127.0.0.1:4001".parse().unwrap(),
                "[::1]:4002".parse().unwrap(),
            ],
        });
        round_trip(Msg::Hello { worker_id: 7 });
        round_trip(Msg::Begin {
            algo: ClusterAlgo::PageRank { iters: 20 },
        });
        round_trip(Msg::Begin {
            algo: ClusterAlgo::Bfs { source: 12345 },
        });
        round_trip(Msg::Begin {
            algo: ClusterAlgo::Cc,
        });
        round_trip(Msg::Gather {
            step: 3,
            pairs: vec![(0, u64::MAX), (9, 1.25f64.to_bits())],
        });
        round_trip(Msg::Scatter {
            step: 4,
            pairs: Vec::new(),
        });
        round_trip(Msg::StepDone {
            step: 5,
            active: 42,
            sent: 99,
        });
        round_trip(Msg::Continue { step: 5, go: true });
        round_trip(Msg::Continue { step: 6, go: false });
        round_trip(Msg::Values {
            pairs: vec![(1, 2), (3, 4)],
        });
        round_trip(Msg::Shutdown);
    }

    #[test]
    fn malformed_payloads_are_invalid_data() {
        for payload in [
            &[][..],                            // empty
            &[99][..],                          // unknown tag
            &[TAG_JOIN, 1][..],                 // truncated port
            &[TAG_CONTINUE, 0, 0, 0, 0, 7][..], // bad bool
            &[TAG_SHUTDOWN, 0][..],             // trailing byte
            // Gather claiming 1000 pairs with no bytes behind the claim.
            &[TAG_GATHER, 0, 0, 0, 0, 0xe8, 0x03, 0, 0][..],
        ] {
            let err = Msg::decode(payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{payload:?}");
        }
    }

    #[test]
    fn framed_conn_round_trips_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = thread::spawn(move || {
            let mut conn = FramedConn::new(TcpStream::connect(addr).unwrap()).unwrap();
            conn.send(&Msg::StepDone {
                step: 1,
                active: 2,
                sent: 3,
            })
            .unwrap();
            conn.send(&Msg::Shutdown).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FramedConn::new(stream).unwrap();
        assert_eq!(
            conn.recv().unwrap(),
            Msg::StepDone {
                step: 1,
                active: 2,
                sent: 3
            }
        );
        assert_eq!(conn.recv().unwrap(), Msg::Shutdown);
        sender.join().unwrap();
        // Peer gone: the next recv is a clean EOF error, not a hang.
        assert_eq!(
            conn.recv().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn mesh_exchanges_phases_with_stashing() {
        // Three workers on loopback; worker 1 sends its step-0 scatter
        // *before* anyone collects gathers, exercising the stash.
        let listeners: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let roster: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                let roster = roster.clone();
                thread::spawn(move || {
                    let me = id as u32;
                    let mut mesh = Mesh::connect(me, &listener, &roster).unwrap();
                    for peer in [0u32, 1, 2] {
                        if peer == me {
                            continue;
                        }
                        mesh.send_to(
                            peer,
                            &Msg::Gather {
                                step: 0,
                                pairs: vec![(me, 100 + u64::from(me))],
                            },
                        )
                        .unwrap();
                        if me == 1 {
                            // Race a scatter ahead of the gather collection.
                            mesh.send_to(
                                peer,
                                &Msg::Scatter {
                                    step: 0,
                                    pairs: vec![(me, 200 + u64::from(me))],
                                },
                            )
                            .unwrap();
                        }
                    }
                    let gathers = mesh.recv_phase(Phase::Gather, 0).unwrap();
                    let expect: Vec<(u32, Vec<ValuePair>)> = (0..3u32)
                        .filter(|&p| p != me)
                        .map(|p| (p, vec![(p, 100 + u64::from(p))]))
                        .collect();
                    assert_eq!(gathers, expect);
                    if me != 1 {
                        for peer in [0u32, 1, 2] {
                            if peer != me {
                                mesh.send_to(
                                    peer,
                                    &Msg::Scatter {
                                        step: 0,
                                        pairs: vec![(me, 200 + u64::from(me))],
                                    },
                                )
                                .unwrap();
                            }
                        }
                    }
                    let scatters = mesh.recv_phase(Phase::Scatter, 0).unwrap();
                    let expect: Vec<(u32, Vec<ValuePair>)> = (0..3u32)
                        .filter(|&p| p != me)
                        .map(|p| (p, vec![(p, 200 + u64::from(p))]))
                        .collect();
                    assert_eq!(scatters, expect);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
