//! Chunked, parallel text-graph parsing.
//!
//! The streaming core reads the input in fixed-size byte chunks aligned to
//! line boundaries ([`LineChunker`]), gathers a small batch of chunks, and
//! parses the batch's chunks in parallel on rayon (a batch under
//! [`crate::par::AUTO_PAR_THRESHOLD`] bytes on one thread; see
//! [`crate::par::stage`]). Per-chunk results are concatenated with a
//! prefix-sum scatter, so the parse is bit-identical for every thread
//! count: same edges in the same order, and on malformed input the same
//! first-in-file error.
//!
//! Peak parser-side memory is `O(batch * chunk_size + output)`: the input
//! text is never materialized whole, only the decoded edges/tokens are.

use crate::adjacency::Adjacency;
use crate::graph::Graph;
use crate::io::is_comment;
use crate::par::{self, SharedSlice};
use crate::types::{GraphError, VertexId};
use rayon::prelude::*;
use std::io::Read;

/// Configuration of the streaming reader.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Target bytes per line-aligned chunk. Chunks can exceed this only
    /// when a single line is longer than the chunk (the chunker always
    /// emits whole lines).
    pub chunk_size: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk_size: 4 << 20,
        }
    }
}

impl StreamConfig {
    /// A config with an explicit chunk size (floored at 16 bytes).
    pub fn with_chunk_size(chunk_size: usize) -> StreamConfig {
        StreamConfig {
            chunk_size: chunk_size.max(16),
        }
    }
}

/// A run of whole input lines, plus its position in the file.
#[derive(Clone, Debug)]
pub struct LineChunk {
    /// The raw bytes: complete lines, each ending in `\n` except possibly
    /// the file's final line.
    pub bytes: Vec<u8>,
    /// 1-based line number of the first line in this chunk.
    pub first_line: usize,
    /// Number of lines that start inside this chunk.
    pub lines: usize,
}

/// Splits any [`Read`] into line-aligned chunks of roughly
/// [`StreamConfig::chunk_size`] bytes.
///
/// The chunker never holds more than one chunk plus the trailing partial
/// line in memory ([`LineChunker::peak_buffered`] reports the observed
/// maximum), and it never asks the reader for more than the chunk size in
/// a single `read` call, so it composes with readers that return short
/// counts.
pub struct LineChunker<R> {
    inner: R,
    chunk_size: usize,
    carry: Vec<u8>,
    /// Fixed landing buffer for `read` calls, zeroed once at construction
    /// (appending straight into the chunk would re-memset the whole
    /// remaining chunk before every short read).
    scratch: Vec<u8>,
    next_line: usize,
    done: bool,
    failed: bool,
    peak: usize,
}

impl<R: Read> LineChunker<R> {
    /// Wraps `inner`, targeting `chunk_size` bytes per chunk.
    pub fn new(inner: R, chunk_size: usize) -> LineChunker<R> {
        let chunk_size = chunk_size.max(16);
        LineChunker {
            inner,
            chunk_size,
            carry: Vec::new(),
            scratch: vec![0u8; chunk_size.min(64 * 1024)],
            next_line: 1,
            done: false,
            failed: false,
            peak: 0,
        }
    }

    /// Maximum number of input bytes buffered at any point so far: bounded
    /// by `chunk_size` plus the longest line in the input.
    pub fn peak_buffered(&self) -> usize {
        self.peak
    }

    /// 1-based number of the line the next chunk would start on; after
    /// exhaustion, one past the last line of the input.
    pub fn next_line(&self) -> usize {
        self.next_line
    }
}

impl<R: Read> Iterator for LineChunker<R> {
    type Item = std::io::Result<LineChunk>;

    fn next(&mut self) -> Option<std::io::Result<LineChunk>> {
        if self.failed || (self.done && self.carry.is_empty()) {
            return None;
        }
        let mut buf = std::mem::take(&mut self.carry);
        // Position of the last newline seen in `buf`, if any. The carry is
        // always a partial line, so it starts out newline-free.
        let mut last_nl: Option<usize> = None;
        while !self.done && (buf.len() < self.chunk_size || last_nl.is_none()) {
            let old = buf.len();
            // Past `chunk_size` we are extending a single line longer than
            // the chunk, hunting its newline (or EOF): keep the reads
            // full-scratch-sized, never dribbling single bytes.
            let want = if old < self.chunk_size {
                (self.chunk_size - old).min(self.scratch.len())
            } else {
                self.scratch.len()
            };
            match self.inner.read(&mut self.scratch[..want]) {
                Ok(0) => self.done = true,
                Ok(n) => {
                    buf.extend_from_slice(&self.scratch[..n]);
                    if let Some(p) = buf[old..old + n].iter().rposition(|&b| b == b'\n') {
                        last_nl = Some(old + p);
                    }
                    self.peak = self.peak.max(buf.len());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        if !self.done {
            // Cut after the last newline; the tail is the next chunk's head.
            let cut = last_nl.expect("loop exits with a newline before EOF") + 1;
            self.carry = buf.split_off(cut);
        }
        if buf.is_empty() {
            return None;
        }
        let newlines = buf.iter().filter(|&&b| b == b'\n').count();
        // A chunk only ends without '\n' at EOF, so counting the partial
        // line keeps `next_line` at one past the input's last line.
        let trailing_partial = *buf.last().unwrap() != b'\n';
        let chunk = LineChunk {
            first_line: self.next_line,
            lines: newlines + usize::from(trailing_partial),
            bytes: buf,
        };
        self.next_line += chunk.lines;
        Some(Ok(chunk))
    }
}

/// Iterates the complete lines of a chunk with their 1-based file line
/// numbers.
fn chunk_lines(chunk: &LineChunk) -> impl Iterator<Item = (usize, &[u8])> {
    chunk
        .bytes
        .split(|&b| b == b'\n')
        .enumerate()
        .filter(|(_, raw)| !raw.is_empty())
        .map(move |(i, raw)| (chunk.first_line + i, raw))
}

fn utf8_line(line: usize, raw: &[u8]) -> Result<&str, GraphError> {
    std::str::from_utf8(raw).map_err(|e| GraphError::Parse {
        line,
        message: format!("invalid UTF-8: {e}"),
    })
}

// ---------------------------------------------------------------------------
// Edge lists
// ---------------------------------------------------------------------------

/// One parsed edge-list chunk: the `(src, dst)` pairs plus the largest
/// endpoint seen.
type EdgeChunk = (Vec<(VertexId, VertexId)>, u64);

/// Parses one chunk of a whitespace edge list into `(src, dst)` pairs,
/// returning the pairs and the largest endpoint seen.
fn parse_edge_chunk(chunk: &LineChunk) -> Result<EdgeChunk, GraphError> {
    // One edge per line is the common case; reserve for it.
    let mut edges = Vec::with_capacity(chunk.lines);
    let mut max_v = 0u64;
    for (line, raw) in chunk_lines(chunk) {
        let t = utf8_line(line, raw)?.trim();
        if t.is_empty() || is_comment(t) {
            continue;
        }
        let mut it = t.split_whitespace();
        let mut endpoint = || -> Result<u64, GraphError> {
            it.next()
                .ok_or(GraphError::Parse {
                    line,
                    message: "missing endpoint".into(),
                })?
                .parse::<u64>()
                .map_err(|e| GraphError::Parse {
                    line,
                    message: e.to_string(),
                })
        };
        let u = endpoint()?;
        let v = endpoint()?;
        if u > VertexId::MAX as u64 || v > VertexId::MAX as u64 {
            return Err(GraphError::VertexOutOfRangeAt {
                line,
                vertex: u.max(v),
                num_vertices: VertexId::MAX as usize,
            });
        }
        max_v = max_v.max(u).max(v);
        edges.push((u as VertexId, v as VertexId));
    }
    Ok((edges, max_v))
}

/// Extends `dst` with every `parts` buffer in order, copying the parts in
/// parallel: the per-part lengths prefix-sum into disjoint target segments.
fn concat_into<T: Copy + Default + Send + Sync>(dst: &mut Vec<T>, parts: &[Vec<T>]) {
    let old = dst.len();
    let mut starts = Vec::with_capacity(parts.len() + 1);
    starts.push(0usize);
    for p in parts {
        starts.push(starts.last().unwrap() + p.len());
    }
    let total = *starts.last().unwrap();
    dst.resize(old + total, T::default());
    let shared = SharedSlice::new(&mut dst[old..]);
    (0..parts.len()).into_par_iter().for_each(|i| {
        // SAFETY: segments [starts[i], starts[i+1]) are pairwise disjoint.
        let seg = unsafe { shared.slice_mut(starts[i], starts[i + 1]) };
        seg.copy_from_slice(&parts[i]);
    });
}

/// Recognizes the `# vertices <n> ...` header comment our own writer
/// emits on the first line, so edge-list round-trips preserve trailing
/// isolated vertices (`n` is otherwise inferred as max endpoint + 1).
/// Hints beyond the representable vertex-id range are ignored rather
/// than trusted into a huge allocation.
fn edge_list_header_hint(first_chunk: &LineChunk) -> Option<usize> {
    let raw = first_chunk.bytes.split(|&b| b == b'\n').next()?;
    let t = std::str::from_utf8(raw).ok()?.trim();
    let rest = t
        .strip_prefix('#')
        .or_else(|| t.strip_prefix('%'))?
        .trim_start();
    let mut it = rest.split_whitespace();
    if it.next()? != "vertices" {
        return None;
    }
    let n: usize = it.next()?.parse().ok()?;
    (n <= VertexId::MAX as usize + 1).then_some(n)
}

/// Drives the chunk-batch loop shared by both text readers: gathers up
/// to a batch of line-aligned chunks, hands each batch to `handle` (as
/// one [`par::stage`] over the batch's bytes), and returns the 1-based
/// number of the input's last line (0 for empty input). Keeping this
/// scaffold in one place keeps the two readers' batching, error, and EOF
/// behavior in lockstep.
fn process_batches<R: Read>(
    r: R,
    cfg: &StreamConfig,
    mut handle: impl FnMut(&[LineChunk]) -> Result<(), GraphError>,
) -> Result<usize, GraphError> {
    let mut chunker = LineChunker::new(r, cfg.chunk_size);
    // A few chunks per thread per parse round, so rayon has work to spread.
    let batch = (2 * rayon::current_num_threads()).max(2);
    let mut pending: Vec<LineChunk> = Vec::new();
    loop {
        let mut eof = false;
        while pending.len() < batch {
            match chunker.next() {
                Some(Ok(c)) => pending.push(c),
                Some(Err(e)) => return Err(e.into()),
                None => {
                    eof = true;
                    break;
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        let bytes = pending.iter().map(|c| c.bytes.len()).sum();
        par::stage(bytes, || handle(&pending))?;
        pending.clear();
        if eof {
            break;
        }
    }
    Ok(chunker.next_line().saturating_sub(1))
}

/// Streaming edge-list reader: chunked input, batch-parallel parsing.
pub fn read_edge_list_with<R: Read>(
    r: R,
    directed: bool,
    min_vertices: Option<usize>,
    cfg: &StreamConfig,
) -> Result<Graph, GraphError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_v = 0u64;
    let mut header_hint: Option<usize> = None;
    let mut first = true;
    process_batches(r, cfg, |pending| {
        if first {
            header_hint = edge_list_header_hint(&pending[0]);
            first = false;
        }
        let parts: Vec<Result<EdgeChunk, GraphError>> = (0..pending.len())
            .into_par_iter()
            .map(|i| parse_edge_chunk(&pending[i]))
            .collect();
        let mut bufs = Vec::with_capacity(parts.len());
        for part in parts {
            // First error in chunk order == first error in file order.
            let (chunk_edges, chunk_max) = part?;
            max_v = max_v.max(chunk_max);
            bufs.push(chunk_edges);
        }
        concat_into(&mut edges, &bufs);
        Ok(())
    })?;
    let n = (max_v as usize + 1)
        .max(min_vertices.unwrap_or(0))
        .max(header_hint.unwrap_or(0))
        .max(usize::from(!edges.is_empty()));
    Ok(Graph::from_edges(n, &edges, directed))
}

// ---------------------------------------------------------------------------
// Ligra AdjacencyGraph
// ---------------------------------------------------------------------------

/// One chunk's numeric tokens, with enough position info to map any token
/// back to its 1-based input line.
struct TokenChunk {
    values: Vec<u64>,
    /// `(index into values of a line's first token, that line's number)`,
    /// one entry per token-bearing line, ascending.
    marks: Vec<(u32, usize)>,
}

impl TokenChunk {
    fn line_of(&self, token_idx: usize) -> usize {
        match self
            .marks
            .binary_search_by(|&(off, _)| (off as usize).cmp(&token_idx))
        {
            Ok(i) => self.marks[i].1,
            Err(0) => self.marks.first().map_or(0, |&(_, l)| l),
            Err(i) => self.marks[i - 1].1,
        }
    }
}

/// Parses one chunk of whitespace-separated numeric tokens. When
/// `expect_header` is set, the first contentful line must be the literal
/// `AdjacencyGraph` header; returns whether the header was consumed.
fn parse_token_chunk(
    chunk: &LineChunk,
    expect_header: bool,
) -> Result<(TokenChunk, bool), GraphError> {
    let mut out = TokenChunk {
        values: Vec::with_capacity(chunk.lines),
        marks: Vec::new(),
    };
    let mut header_seen = !expect_header;
    for (line, raw) in chunk_lines(chunk) {
        let t = utf8_line(line, raw)?.trim();
        if t.is_empty() || is_comment(t) {
            continue;
        }
        if !header_seen {
            if t != "AdjacencyGraph" {
                return Err(GraphError::Parse {
                    line,
                    message: format!("expected 'AdjacencyGraph' header, got '{t}'"),
                });
            }
            header_seen = true;
            continue;
        }
        out.marks.push((out.values.len() as u32, line));
        for tok in t.split_whitespace() {
            let v: u64 = tok
                .parse()
                .map_err(|e: std::num::ParseIntError| GraphError::Parse {
                    line,
                    message: e.to_string(),
                })?;
            out.values.push(v);
        }
    }
    Ok((out, header_seen && expect_header))
}

/// Incremental CSR assembly for the `AdjacencyGraph` format: as soon as
/// the leading `n` and `m` tokens are known, every further token batch is
/// scattered straight into the preallocated offsets/targets arrays and
/// dropped, so transient memory stays a batch of tokens — never the whole
/// token stream.
enum AdjacencyBuilder {
    /// Before both `n` and `m` have appeared (at most a chunk or two of
    /// comments/header in practice).
    Buffering(Vec<TokenChunk>),
    Scattering(AdjacencyScatter),
}

struct AdjacencyScatter {
    /// Grown batch by batch toward length `n`, so a lying header cannot
    /// force a giant up-front allocation: memory tracks tokens actually
    /// read (plus the output the file legitimately describes).
    offsets: Vec<usize>,
    /// Grown batch by batch toward length `m`; see `offsets`.
    targets: Vec<VertexId>,
    n: usize,
    m: usize,
    /// `2 + n + m`, the token count a well-formed file must have.
    expected: usize,
    /// Tokens consumed so far, including the leading `n` and `m`.
    seen: usize,
}

impl AdjacencyBuilder {
    fn consume(&mut self, chunks: Vec<TokenChunk>) -> Result<(), GraphError> {
        match self {
            AdjacencyBuilder::Buffering(buffered) => {
                buffered.extend(chunks);
                let total: usize = buffered.iter().map(|c| c.values.len()).sum();
                if total < 2 {
                    return Ok(()); // n or m still missing; keep buffering
                }
                let mut head = buffered.iter().flat_map(|c| c.values.iter().copied());
                let n = head.next().expect("total >= 2") as usize;
                let m = head.next().expect("total >= 2") as usize;
                if n > VertexId::MAX as usize + 1 {
                    return Err(GraphError::Parse {
                        line: 1,
                        message: format!("vertex count {n} exceeds the vertex-id space"),
                    });
                }
                let expected =
                    n.checked_add(m)
                        .and_then(|nm| nm.checked_add(2))
                        .ok_or(GraphError::Parse {
                            line: 1,
                            message: format!("vertex/edge counts overflow: n = {n}, m = {m}"),
                        })?;
                let mut sc = AdjacencyScatter {
                    offsets: Vec::new(),
                    targets: Vec::new(),
                    n,
                    m,
                    expected,
                    seen: 0,
                };
                sc.scatter(buffered)?;
                *self = AdjacencyBuilder::Scattering(sc);
                Ok(())
            }
            AdjacencyBuilder::Scattering(sc) => sc.scatter(&chunks),
        }
    }

    fn finish(self, last_line: usize, directed: bool) -> Result<Graph, GraphError> {
        let mut sc = match self {
            AdjacencyBuilder::Buffering(_) => {
                return Err(GraphError::Parse {
                    line: last_line,
                    message: "truncated file".into(),
                });
            }
            AdjacencyBuilder::Scattering(sc) => sc,
        };
        if sc.seen != sc.expected {
            return Err(GraphError::Parse {
                line: last_line,
                message: format!("expected {} tokens, found {}", sc.expected, sc.seen),
            });
        }
        debug_assert_eq!(sc.offsets.len(), sc.n);
        debug_assert_eq!(sc.targets.len(), sc.m);
        sc.offsets.push(sc.m);
        let out = Adjacency::from_raw(sc.offsets, sc.targets, None)?;
        let into = out.transpose();
        Graph::from_parts(out, into, directed)
    }
}

impl AdjacencyScatter {
    /// Scatters a batch of token chunks at global token positions
    /// `seen..`, one chunk per task. Token `g` lands
    /// in `offsets[g - 2]` for `g < 2 + n`, else in `targets[g - 2 - n]`
    /// (range-checked); excess tokens error with their line.
    fn scatter(&mut self, chunks: &[TokenChunk]) -> Result<(), GraphError> {
        let mut starts = Vec::with_capacity(chunks.len() + 1);
        starts.push(self.seen);
        for c in chunks {
            starts.push(starts.last().unwrap() + c.values.len());
        }
        let end = *starts.last().unwrap();
        let total = end - self.seen;
        // Grow the output arrays just far enough for this batch's tokens;
        // a well-formed file reaches exactly n and m by EOF.
        self.offsets.resize(self.n.min(end.saturating_sub(2)), 0);
        self.targets
            .resize(self.m.min(end.saturating_sub(2 + self.n)), 0);
        let (n, expected) = (self.n, self.expected);
        let off_shared = SharedSlice::new(&mut self.offsets);
        let tgt_shared = SharedSlice::new(&mut self.targets);
        let results: Vec<Result<(), GraphError>> = (0..chunks.len())
            .into_par_iter()
            .map(|c| {
                for (j, &val) in chunks[c].values.iter().enumerate() {
                    let g = starts[c] + j;
                    // SAFETY (both writes): global token indices are
                    // disjoint across chunks, so every slot is written by
                    // one chunk, and the arrays were grown to hold them.
                    if g < 2 {
                        continue; // n and m, already consumed
                    } else if g < 2 + n {
                        unsafe { off_shared.write(g - 2, val as usize) };
                    } else if g < expected {
                        if val >= n as u64 {
                            return Err(GraphError::VertexOutOfRangeAt {
                                line: chunks[c].line_of(j),
                                vertex: val,
                                num_vertices: n,
                            });
                        }
                        unsafe { tgt_shared.write(g - 2 - n, val as VertexId) };
                    } else {
                        return Err(GraphError::Parse {
                            line: chunks[c].line_of(j),
                            message: format!("expected {expected} tokens, found more"),
                        });
                    }
                }
                Ok(())
            })
            .collect();
        for r in results {
            r?;
        }
        self.seen += total;
        Ok(())
    }
}

/// Streaming Ligra `AdjacencyGraph` reader: chunked input, batch-parallel
/// tokenization, incremental parallel scatter into the CSR arrays.
pub fn read_adjacency_graph_with<R: Read>(
    r: R,
    directed: bool,
    cfg: &StreamConfig,
) -> Result<Graph, GraphError> {
    let mut builder = AdjacencyBuilder::Buffering(Vec::new());
    let mut header_seen = false;
    let last_line = process_batches(r, cfg, |pending| {
        // The header must be found sequentially (it is almost always in
        // the first chunk); everything after it parses in parallel.
        let mut parsed: Vec<TokenChunk> = Vec::with_capacity(pending.len());
        let mut first_parallel = 0;
        while !header_seen && first_parallel < pending.len() {
            let (tc, consumed) = parse_token_chunk(&pending[first_parallel], true)?;
            header_seen = consumed || !tc.values.is_empty();
            // A chunk of pure comments neither finds the header nor
            // carries tokens; keep looking in the next chunk.
            parsed.push(tc);
            first_parallel += 1;
        }
        let rest = &pending[first_parallel..];
        let parts: Vec<Result<(TokenChunk, bool), GraphError>> = (0..rest.len())
            .into_par_iter()
            .map(|i| parse_token_chunk(&rest[i], false))
            .collect();
        for part in parts {
            parsed.push(part?.0);
        }
        builder.consume(parsed)
    })?;
    if !header_seen {
        return Err(GraphError::Parse {
            line: last_line,
            message: "missing 'AdjacencyGraph' header".into(),
        });
    }
    builder.finish(last_line, directed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most `cap` bytes per `read` call.
    struct Dribble<R> {
        inner: R,
        cap: usize,
    }

    impl<R: Read> Read for Dribble<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let end = buf.len().min(self.cap);
            self.inner.read(&mut buf[..end])
        }
    }

    #[test]
    fn chunker_emits_whole_lines() {
        let text = "alpha\nbeta\ngamma\ndelta\n";
        let chunker = LineChunker::new(text.as_bytes(), 16);
        let chunks: Vec<LineChunk> = chunker.map(|c| c.unwrap()).collect();
        assert!(chunks.len() > 1, "16-byte chunks must split this input");
        let glued: Vec<u8> = chunks.iter().flat_map(|c| c.bytes.clone()).collect();
        assert_eq!(glued, text.as_bytes());
        for c in &chunks {
            assert_eq!(*c.bytes.last().unwrap(), b'\n');
        }
        assert_eq!(chunks[0].first_line, 1);
        let mut expect = 1;
        for c in &chunks {
            assert_eq!(c.first_line, expect);
            expect += c.bytes.iter().filter(|&&b| b == b'\n').count();
        }
    }

    #[test]
    fn chunker_handles_missing_trailing_newline() {
        let chunks: Vec<LineChunk> = LineChunker::new("1 2\n3 4".as_bytes(), 16)
            .map(|c| c.unwrap())
            .collect();
        let glued: Vec<u8> = chunks.iter().flat_map(|c| c.bytes.clone()).collect();
        assert_eq!(glued, b"1 2\n3 4");
        assert_eq!(chunks.last().unwrap().lines, 2);
    }

    #[test]
    fn chunker_grows_past_oversized_lines() {
        // One line much longer than the chunk size must still come out whole.
        let mut text = String::from("0 1\n");
        text.push('#');
        text.push_str(&"x".repeat(4000));
        text.push('\n');
        text.push_str("2 3\n");
        let mut chunker = LineChunker::new(
            Dribble {
                inner: text.as_bytes(),
                cap: 7,
            },
            64,
        );
        let chunks: Vec<LineChunk> = chunker.by_ref().map(|c| c.unwrap()).collect();
        let glued: Vec<u8> = chunks.iter().flat_map(|c| c.bytes.clone()).collect();
        assert_eq!(glued, text.as_bytes());
        // Peak buffering stays proportional to chunk size + longest line.
        assert!(chunker.peak_buffered() <= 64 + 4002 + 4096);
    }

    #[test]
    fn chunker_bounded_memory_through_capped_reader() {
        // Many short lines, tiny chunks, reads capped at 11 bytes: the
        // chunker must never buffer more than ~one chunk.
        let text: String = (0..2000).map(|i| format!("{} {}\n", i, i + 1)).collect();
        let mut chunker = LineChunker::new(
            Dribble {
                inner: text.as_bytes(),
                cap: 11,
            },
            256,
        );
        let mut total = 0usize;
        let mut count = 0usize;
        for c in chunker.by_ref() {
            let c = c.unwrap();
            total += c.bytes.len();
            count += 1;
        }
        assert_eq!(total, text.len());
        assert!(count > 10, "expected a multi-chunk read, got {count}");
        let longest = text.lines().map(|l| l.len() + 1).max().unwrap();
        assert!(
            chunker.peak_buffered() <= 256 + longest,
            "peak {} exceeds chunk + line bound",
            chunker.peak_buffered()
        );
    }

    #[test]
    fn token_chunk_line_lookup() {
        let chunk = LineChunk {
            bytes: b"5\n6 7\n8\n".to_vec(),
            first_line: 10,
            lines: 3,
        };
        let (tc, _) = parse_token_chunk(&chunk, false).unwrap();
        assert_eq!(tc.values, vec![5, 6, 7, 8]);
        assert_eq!(tc.line_of(0), 10);
        assert_eq!(tc.line_of(1), 11);
        assert_eq!(tc.line_of(2), 11);
        assert_eq!(tc.line_of(3), 12);
    }
}
