//! Property tests for the streaming I/O subsystem: the chunked parallel
//! parsers must be bit-identical to naive in-memory reference parsers for
//! every format, for arbitrary graphs, chunk sizes, read-size caps and
//! thread counts — and the binary round-trip must reproduce the CSR
//! arrays exactly.

use proptest::prelude::*;
use std::io::Read;
use vebo_graph::graph::mix64;
use vebo_graph::io::{self, Format, LineChunker, StreamConfig};
use vebo_graph::{Graph, GraphError, StorageKind, VertexId};

/// A reader that returns at most `cap` bytes per `read` call — the
/// adversarial transport for the bounded-allocation guarantees.
struct Capped<R> {
    inner: R,
    cap: usize,
}

impl<R: Read> Read for Capped<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = buf.len().min(self.cap);
        self.inner.read(&mut buf[..end])
    }
}

/// Naive whole-buffer edge-list parser: the semantic reference the
/// streaming implementation must match bit for bit. Honors the
/// `# vertices <n> ...` header comment like the real reader.
fn reference_edge_list(text: &str, directed: bool) -> Option<Graph> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_v = 0u64;
    let hint: usize = text
        .lines()
        .next()
        .and_then(|l| {
            let mut it = l.trim().strip_prefix('#')?.split_whitespace();
            if it.next()? != "vertices" {
                return None;
            }
            it.next()?.parse().ok()
        })
        .unwrap_or(0);
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: u64 = it.next()?.parse().ok()?;
        let v: u64 = it.next()?.parse().ok()?;
        max_v = max_v.max(u).max(v);
        edges.push((u as VertexId, v as VertexId));
    }
    let n = (max_v as usize + 1)
        .max(hint)
        .max(usize::from(!edges.is_empty()));
    Some(Graph::from_edges(n, &edges, directed))
}

/// Arbitrary small multigraphs (parallel edges and self-loops included).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..60, 0usize..300, any::<u64>(), any::<bool>()).prop_map(|(n, m, seed, directed)| {
        let mut x = seed;
        let mut next = || {
            x = mix64(x);
            x
        };
        let edges: Vec<(VertexId, VertexId)> = (0..m)
            .map(|_| {
                (
                    (next() % n as u64) as VertexId,
                    (next() % n as u64) as VertexId,
                )
            })
            .collect();
        Graph::from_edges(n, &edges, directed)
    })
}

/// Arbitrary graphs with optional per-edge weights. Vertex counts often
/// exceed the largest endpoint, so trailing isolated vertices are
/// routinely exercised; parallel edges and self-loops included.
fn arb_weighted_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..60,
        0usize..300,
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(n, m, seed, directed, weighted)| {
            let mut x = seed;
            let mut next = || {
                x = mix64(x);
                x
            };
            let edges: Vec<(VertexId, VertexId)> = (0..m)
                .map(|_| {
                    (
                        (next() % n as u64) as VertexId,
                        (next() % n as u64) as VertexId,
                    )
                })
                .collect();
            let weights: Option<Vec<f32>> =
                weighted.then(|| edges.iter().map(|_| (next() % 1000) as f32 / 8.0).collect());
            Graph::from_edges_weighted(n, &edges, weights.as_deref(), directed)
        })
}

/// Writes `bytes` to a unique temp `.vgr`, runs `f` on the path, cleans
/// up. Unique names keep concurrent proptest cases from colliding.
fn with_temp_vgr<R>(bytes: &[u8], f: impl FnOnce(&std::path::Path) -> R) -> R {
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "vebo-io-stream-prop-{}-{}.vgr",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let out = f(&path);
    std::fs::remove_file(&path).ok();
    out
}

/// Arbitrary multigraphs with few vertices and 20k-24k edges: their text
/// spans several parse batches, and a batch of 4200-byte chunks at four
/// threads is past the one-chunk threshold.
fn arb_long_graph() -> impl Strategy<Value = Graph> {
    (1usize..60, 20_000usize..24_000, any::<u64>(), any::<bool>()).prop_map(
        |(n, m, seed, directed)| {
            let mut x = seed;
            let edges: Vec<(VertexId, VertexId)> = (0..m)
                .map(|_| {
                    x = mix64(x);
                    (
                        (x % n as u64) as VertexId,
                        ((x >> 32) % n as u64) as VertexId,
                    )
                })
                .collect();
            Graph::from_edges(n, &edges, directed)
        },
    )
}

/// Chunk sizes: tiny ones that put boundaries everywhere, and ones large
/// enough that a 4-thread batch (eight chunks) is parsed in four chunks.
fn arb_chunk() -> impl Strategy<Value = usize> {
    (any::<bool>(), 16usize..300, 4200usize..9000).prop_map(
        |(large, tiny, big)| {
            if large {
                big
            } else {
                tiny
            }
        },
    )
}

/// Runs `f` with `threads` rayon threads.
fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

fn assert_same(a: &Graph, b: &Graph, what: &str) {
    assert_eq!(a.num_vertices(), b.num_vertices(), "{what}: vertex count");
    assert_eq!(a.csr().offsets(), b.csr().offsets(), "{what}: offsets");
    assert_eq!(a.csr().targets(), b.csr().targets(), "{what}: targets");
    assert_eq!(a.csc().offsets(), b.csc().offsets(), "{what}: csc offsets");
    assert_eq!(a.csc().targets(), b.csc().targets(), "{what}: csc targets");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streamed edge-list parse at one thread == at four threads == naive
    /// reference, across chunk sizes that force mid-file boundaries.
    #[test]
    fn edge_list_streaming_matches_reference(g in arb_long_graph(), chunk in arb_chunk()) {
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        let reference = reference_edge_list(&text, g.is_directed()).unwrap();
        // The writer's `# vertices` header makes the round-trip lossless
        // even with trailing isolated vertices.
        assert_same(&g, &reference, "writer/reference");

        let cfg = StreamConfig::with_chunk_size(chunk);
        for threads in [1, 4] {
            let h = in_pool(threads, || {
                io::read_edge_list_with(&buf[..], g.is_directed(), None, &cfg).unwrap()
            });
            assert_same(&reference, &h, &format!("stream at {threads} threads"));
        }
    }

    /// Streamed AdjacencyGraph parse at one and at four threads, tiny and
    /// large chunks, reproduces the writer's graph exactly.
    #[test]
    fn adjacency_streaming_matches_writer(g in arb_long_graph(), chunk in arb_chunk()) {
        let mut buf = Vec::new();
        io::write_adjacency_graph(&g, &mut buf).unwrap();

        let cfg = StreamConfig::with_chunk_size(chunk);
        for threads in [1, 4] {
            let h = in_pool(threads, || {
                io::read_adjacency_graph_with(&buf[..], g.is_directed(), &cfg).unwrap()
            });
            assert_same(&g, &h, &format!("stream at {threads} threads"));
        }
    }

    /// Binary round-trip reproduces offsets and targets exactly, and
    /// survives an adversarial transport that drips bytes.
    #[test]
    fn binary_roundtrip_is_exact(g in arb_graph(), cap in 1usize..64) {
        let mut buf = Vec::new();
        io::write_binary_graph(&g, &mut buf).unwrap();
        let h = io::read_binary_graph(&buf[..]).unwrap();
        assert_same(&g, &h, "binary");
        prop_assert_eq!(h.is_directed(), g.is_directed());
        let dripped = io::read_binary_graph(Capped { inner: &buf[..], cap }).unwrap();
        assert_same(&g, &dripped, "binary via capped reader");
    }

    /// The aligned v2 layout: write → mmap → read equals write →
    /// buffered-read for arbitrary graphs — isolated vertices, weights,
    /// self-loops, parallel edges — and the mapped load is zero-copy on
    /// hosts that support it.
    #[test]
    fn binary_v2_mmap_matches_buffered(g in arb_weighted_graph()) {
        let mut buf = Vec::new();
        io::write_binary_graph(&g, &mut buf).unwrap();
        let buffered = io::read_binary_graph(&buf[..]).unwrap();
        assert_same(&g, &buffered, "v2 buffered");
        let mapped = with_temp_vgr(&buf, |p| io::mmap_binary_graph(p).unwrap());
        assert_same(&buffered, &mapped, "v2 mmap vs buffered");
        prop_assert_eq!(mapped.is_directed(), g.is_directed());
        prop_assert_eq!(mapped.csr().raw_weights(), g.csr().raw_weights());
        prop_assert_eq!(mapped.csc().raw_weights(), buffered.csc().raw_weights());
        if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
            prop_assert_eq!(mapped.storage_kind(), StorageKind::Mapped);
        }
        // Content equality crosses storage backings.
        prop_assert!(mapped.csr() == buffered.csr());
    }

    /// The unaligned v1 layout still round-trips through both load paths
    /// (the mmap loader's documented fallback copies every section).
    #[test]
    fn binary_v1_fallback_matches_buffered(g in arb_weighted_graph()) {
        let mut v1 = Vec::new();
        io::write_binary_graph_versioned(&g, &mut v1, io::BINARY_VERSION_V1).unwrap();
        let buffered = io::read_binary_graph(&v1[..]).unwrap();
        assert_same(&g, &buffered, "v1 buffered");
        let mapped = with_temp_vgr(&v1, |p| io::mmap_binary_graph(p).unwrap());
        assert_same(&buffered, &mapped, "v1 mmap fallback");
        prop_assert_eq!(mapped.csr().raw_weights(), g.csr().raw_weights());
        // v1 sections are 4-byte aligned only: never borrowed.
        prop_assert_eq!(mapped.storage_kind(), StorageKind::Owned);
    }

    /// A graph carrying a delta-varint companion auto-selects the v3
    /// layout; both load paths reproduce the original arrays exactly —
    /// weights, trailing isolated vertices, self-loops, parallel edges —
    /// and the reloaded graph reports the compressed backing.
    #[test]
    fn binary_v3_compressed_roundtrip_matches_owned(g in arb_weighted_graph()) {
        let mut buf = Vec::new();
        io::write_binary_graph(&g.clone().with_compressed(), &mut buf).unwrap();
        let buffered = io::read_binary_graph(&buf[..]).unwrap();
        assert_same(&g, &buffered, "v3 buffered");
        prop_assert_eq!(buffered.csr().raw_weights(), g.csr().raw_weights());
        prop_assert_eq!(buffered.storage_kind(), StorageKind::Compressed);
        let mapped = with_temp_vgr(&buf, |p| io::mmap_binary_graph(p).unwrap());
        assert_same(&buffered, &mapped, "v3 mmap vs buffered");
        prop_assert_eq!(mapped.csr().raw_weights(), g.csr().raw_weights());
        prop_assert_eq!(mapped.csc().raw_weights(), buffered.csc().raw_weights());
        prop_assert_eq!(mapped.storage_kind(), StorageKind::Compressed);
        prop_assert_eq!(mapped.is_directed(), g.is_directed());
    }

    /// Truncating a v3 file at any byte must also yield a typed error
    /// from both loaders — the compressed sections (`byte_offsets`, the
    /// varint `data` payload) are held to the same section-precise bar
    /// as the plain v2 sections.
    #[test]
    fn binary_v3_truncation_errors_everywhere(g in arb_weighted_graph(), frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        io::write_binary_graph(&g.clone().with_compressed(), &mut buf).unwrap();
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let buffered = io::read_binary_graph(&buf[..cut]);
        let mapped = with_temp_vgr(&buf[..cut], |p| io::mmap_binary_graph(p));
        for (which, res) in [("buffered", buffered), ("mmap", mapped)] {
            match res {
                Err(GraphError::TruncatedBinary { .. }) | Err(GraphError::BadMagic) => {}
                other => prop_assert!(false, "v3 {which} cut at {cut}: {other:?}"),
            }
        }
    }

    /// Truncating a v2 file at any byte must yield a section-precise
    /// `TruncatedBinary` (or, within the first four bytes, `BadMagic`)
    /// from BOTH loaders — never a panic, never a wrong graph.
    #[test]
    fn binary_truncation_errors_everywhere(g in arb_weighted_graph(), frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        io::write_binary_graph(&g, &mut buf).unwrap();
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let buffered = io::read_binary_graph(&buf[..cut]);
        let mapped = with_temp_vgr(&buf[..cut], |p| io::mmap_binary_graph(p));
        for (which, res) in [("buffered", buffered), ("mmap", mapped)] {
            match res {
                Err(GraphError::TruncatedBinary { .. }) | Err(GraphError::BadMagic) => {}
                other => prop_assert!(false, "{which} cut at {cut}: {other:?}"),
            }
        }
    }

    /// Round-trip through real files for all three formats, with format
    /// sniffing.
    #[test]
    fn file_roundtrip_all_formats(g in arb_graph(), salt in any::<u64>()) {
        let dir = std::env::temp_dir().join(format!("vebo-io-prop-{salt:x}"));
        std::fs::create_dir_all(&dir).unwrap();
        for format in Format::ALL {
            let path = dir.join(format!("g.{}", format.name()));
            io::save_graph(&g, &path, format).unwrap();
            let (h, sniffed) = io::load_graph(&path, g.is_directed(), None).unwrap();
            prop_assert_eq!(sniffed, format);
            assert_same(&g, &h, format.name());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The line chunker reassembles any byte soup losslessly and never
    /// buffers more than a chunk plus the longest line, even when the
    /// transport drips a few bytes at a time.
    #[test]
    fn chunker_is_lossless_and_bounded(
        seed in any::<u64>(),
        nlines in 0usize..40,
        chunk in 16usize..128,
        cap in 1usize..32,
    ) {
        let mut x = seed;
        let mut next = || {
            x = mix64(x);
            x
        };
        // Random printable lines of length 0..=40.
        let lines: Vec<String> = (0..nlines)
            .map(|_| {
                let len = (next() % 41) as usize;
                (0..len)
                    .map(|_| char::from(b' ' + (next() % 95) as u8))
                    .collect()
            })
            .collect();
        let text = lines.join("\n");
        let mut chunker = LineChunker::new(
            Capped { inner: text.as_bytes(), cap },
            chunk,
        );
        let mut glued = Vec::new();
        for c in chunker.by_ref() {
            glued.extend_from_slice(&c.unwrap().bytes);
        }
        prop_assert_eq!(&glued, text.as_bytes());
        let longest = lines.iter().map(|l| l.len() + 1).max().unwrap_or(0);
        prop_assert!(chunker.peak_buffered() <= chunk.max(16) + longest + chunk.max(16));
    }
}

/// Acceptance check: a multi-chunk parse through a read-capped adapter
/// never buffers more than O(chunk) input text while producing the exact
/// same graph — i.e. loading works without materializing the file.
#[test]
fn multi_chunk_capped_read_is_bounded_and_exact() {
    // ~12k edges over vertex ids up to 9999: ~100 KB of text.
    let edges: Vec<(VertexId, VertexId)> = (0..12_000u32)
        .map(|i| {
            let x = mix64(i as u64 + 7);
            ((x % 10_000) as VertexId, ((x >> 20) % 10_000) as VertexId)
        })
        .collect();
    let g = Graph::from_edges(10_000, &edges, true);
    let mut buf = Vec::new();
    io::write_edge_list(&g, &mut buf).unwrap();
    assert!(buf.len() > 60_000, "test input must span many chunks");

    let chunk_size = 4500;
    let mut chunker = LineChunker::new(
        Capped {
            inner: &buf[..],
            cap: 13,
        },
        chunk_size,
    );
    let mut chunks = 0;
    for c in chunker.by_ref() {
        c.unwrap();
        chunks += 1;
    }
    assert!(chunks > 10, "expected a multi-chunk read, got {chunks}");
    let longest_line = buf
        .split(|&b| b == b'\n')
        .map(|l| l.len() + 1)
        .max()
        .unwrap();
    assert!(
        chunker.peak_buffered() <= chunk_size + longest_line,
        "peak buffered {} exceeds chunk_size {} + longest line {}",
        chunker.peak_buffered(),
        chunk_size,
        longest_line
    );

    // End-to-end through the same adapter: identical graph at one thread
    // and at four, where each batch of eight chunks is past the one-chunk
    // threshold.
    for threads in [1, 4] {
        let cfg = StreamConfig::with_chunk_size(chunk_size);
        let h = in_pool(threads, || {
            io::read_edge_list_with(
                Capped {
                    inner: &buf[..],
                    cap: 13,
                },
                true,
                None,
                &cfg,
            )
            .unwrap()
        });
        assert_same(&g, &h, "capped end-to-end");
    }
}

/// Malformed inputs fail with positioned errors instead of panicking —
/// including chunk boundaries that land mid-token.
#[test]
fn malformed_inputs_error_cleanly() {
    use vebo_graph::GraphError;

    // Chunk boundary forced inside a long token: the chunker must never
    // split a token, so this parses.
    let text = "1000000 2000000\n3000000 4000000\n";
    let cfg = StreamConfig::with_chunk_size(16);
    let g = io::read_edge_list_with(text.as_bytes(), true, None, &cfg).unwrap();
    assert_eq!(g.num_edges(), 2);
    assert_eq!(g.num_vertices(), 4_000_001);

    // A dangling token at a tiny chunk size reports its true line.
    let bad = "0 1\n2\n";
    let err = io::read_edge_list_with(bad.as_bytes(), true, None, &cfg).unwrap_err();
    assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");

    // Truncated binary header.
    let err = io::read_binary_graph(&io::BINARY_MAGIC[..]).unwrap_err();
    assert!(
        matches!(
            err,
            GraphError::TruncatedBinary {
                section: "header",
                ..
            }
        ),
        "{err}"
    );

    // Binary truncated inside the targets array, dripped through a capped
    // reader.
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], true);
    let mut buf = Vec::new();
    io::write_binary_graph(&g, &mut buf).unwrap();
    buf.truncate(buf.len() - 2);
    let err = io::read_binary_graph(Capped {
        inner: &buf[..],
        cap: 3,
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            GraphError::TruncatedBinary {
                section: "targets",
                ..
            }
        ),
        "{err}"
    );

    // A header that lies about n/m must yield a parse error, not a
    // capacity-overflow panic or a huge up-front allocation.
    let lying = "AdjacencyGraph\n1\n18000000000000000000\n0\n";
    let err = io::read_adjacency_graph_with(lying.as_bytes(), true, &cfg).unwrap_err();
    assert!(matches!(err, GraphError::Parse { .. }), "{err}");
    let lying_m = "AdjacencyGraph\n2\n10000000000\n0\n1\n1\n";
    let err = io::read_adjacency_graph_with(lying_m.as_bytes(), true, &cfg).unwrap_err();
    assert!(matches!(err, GraphError::Parse { .. }), "{err}");
    let lying_n = "AdjacencyGraph\n10000000000\n1\n0\n0\n";
    let err = io::read_adjacency_graph_with(lying_n.as_bytes(), true, &cfg).unwrap_err();
    assert!(matches!(err, GraphError::Parse { .. }), "{err}");

    // CRLF everywhere, including the Ligra header.
    let crlf = "AdjacencyGraph\r\n3\r\n2\r\n0\r\n1\r\n2\r\n1\r\n2\r\n";
    let g = io::read_adjacency_graph_with(crlf.as_bytes(), true, &cfg).unwrap();
    assert_eq!(g.num_vertices(), 3);
    assert_eq!(g.num_edges(), 2);
    assert_eq!(g.csr().neighbors(0), &[1]);
    assert_eq!(g.csr().neighbors(1), &[2]);
}
