//! Graph I/O: plain edge lists, the Ligra `AdjacencyGraph` text format,
//! and a versioned binary CSR format.
//!
//! Three on-disk formats are supported, all routed through the same
//! streaming core ([`stream`]) so no reader ever materializes the whole
//! input as one `String`:
//!
//! * **Edge list** (`el`) — whitespace `src dst` pairs, one per line;
//! * **Ligra `AdjacencyGraph`** (`adj`) — the text format used by all
//!   three frameworks in the paper's artifact:
//!
//!   ```text
//!   AdjacencyGraph
//!   <n>
//!   <m>
//!   <offset 0> ... <offset n-1>
//!   <edge 0> ... <edge m-1>
//!   ```
//!
//! * **Binary CSR** (`bin`, conventionally `.vgr`) — magic + header +
//!   offsets + targets for instant reloads; see [`binary`] for the layout.
//!
//! Text readers accept both `#` and `%` (Matrix Market style) comment
//! lines, tolerate CRLF line endings, and report 1-based line numbers on
//! every error. [`load_graph`] sniffs the format from the first bytes of
//! the file when none is forced.

pub mod binary;
pub mod stream;

use crate::graph::Graph;
use crate::types::GraphError;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

pub use binary::{
    mmap_binary_graph, read_binary_graph, write_binary_graph, write_binary_graph_versioned,
    BINARY_MAGIC, BINARY_VERSION, BINARY_VERSION_V1, BINARY_VERSION_V3,
};
pub use stream::{read_adjacency_graph_with, read_edge_list_with, LineChunker, StreamConfig};

/// How [`load_graph_with`] materializes the sections of a binary file.
///
/// Text formats always stream; the mode only changes how `.vgr` files
/// reach memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LoadMode {
    /// Stream through bounded buffers into owned arrays (the default).
    #[default]
    Buffered,
    /// Memory-map binary files and borrow their sections zero-copy when
    /// the platform and layout allow (see
    /// [`binary::mmap_binary_graph`]); unaligned v1 sections and
    /// non-64-bit/little-endian hosts fall back to a copy.
    Mmap,
}

/// Whether a trimmed text line is a comment. Both `#` (edge-list
/// convention) and `%` (Matrix Market convention) introduce comments, in
/// every text format.
#[inline]
pub fn is_comment(trimmed: &str) -> bool {
    trimmed.starts_with('#') || trimmed.starts_with('%')
}

/// The supported on-disk graph formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    /// Whitespace `src dst` edge list.
    EdgeList,
    /// Ligra `AdjacencyGraph` text format.
    AdjacencyGraph,
    /// Versioned binary CSR (`.vgr`).
    Binary,
}

impl Format {
    /// Every format, in sniffing priority order.
    pub const ALL: [Format; 3] = [Format::Binary, Format::AdjacencyGraph, Format::EdgeList];

    /// Short CLI name (`el`, `adj`, `bin`).
    pub fn name(self) -> &'static str {
        match self {
            Format::EdgeList => "el",
            Format::AdjacencyGraph => "adj",
            Format::Binary => "bin",
        }
    }

    /// Parses a CLI name; accepts a few aliases.
    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "el" | "edgelist" | "edge-list" => Some(Format::EdgeList),
            "adj" | "adjacency" | "ligra" => Some(Format::AdjacencyGraph),
            "bin" | "binary" | "vgr" => Some(Format::Binary),
            _ => None,
        }
    }

    /// The format conventionally implied by a file extension, if any
    /// (`.vgr` → binary, `.adj` → AdjacencyGraph, `.el`/`.txt` → edge
    /// list).
    pub fn from_extension(path: &Path) -> Option<Format> {
        match path.extension()?.to_str()? {
            "vgr" | "bin" => Some(Format::Binary),
            "adj" => Some(Format::AdjacencyGraph),
            "el" | "txt" | "edges" => Some(Format::EdgeList),
            _ => None,
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Format::EdgeList => "edge list",
            Format::AdjacencyGraph => "AdjacencyGraph",
            Format::Binary => "binary CSR",
        })
    }
}

/// Bytes examined by [`sniff_format`] / auto-detection.
const SNIFF_BYTES: usize = 64 * 1024;

/// Best-effort format detection from the first bytes of a file: the
/// binary magic wins, then a leading `AdjacencyGraph` header (after
/// comments), otherwise an edge list is assumed.
pub fn sniff_format(prefix: &[u8]) -> Format {
    if prefix.starts_with(&BINARY_MAGIC) {
        return Format::Binary;
    }
    // Only complete lines are conclusive; a prefix cut mid-line could
    // truncate the header token.
    let upto = prefix
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(prefix.len(), |p| p + 1);
    let text = String::from_utf8_lossy(&prefix[..upto]);
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || is_comment(t) {
            continue;
        }
        return if t == "AdjacencyGraph" {
            Format::AdjacencyGraph
        } else {
            Format::EdgeList
        };
    }
    Format::EdgeList
}

/// Writes a graph as a whitespace edge list (`src dst` per line; `#` and
/// `%` comments allowed when reading back). The leading
/// `# vertices <n> ...` comment doubles as a vertex-count hint the
/// reader honors, so trailing isolated vertices survive the round-trip.
pub fn write_edge_list<W: Write>(g: &Graph, w: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "# vertices {} edges {} directed {}",
        g.num_vertices(),
        g.num_edges(),
        g.is_directed()
    )?;
    for u in g.vertices() {
        for &v in g.out_neighbors(u) {
            writeln!(w, "{u} {v}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a whitespace edge list. `num_vertices` is inferred as
/// `max endpoint + 1` unless a larger value is supplied. Streams the
/// input in line-aligned chunks and parses them in parallel when rayon
/// has threads to spare; the result is bit-identical to a sequential
/// parse.
pub fn read_edge_list<R: Read>(
    r: R,
    directed: bool,
    min_vertices: Option<usize>,
) -> Result<Graph, GraphError> {
    stream::read_edge_list_with(r, directed, min_vertices, &StreamConfig::default())
}

/// Writes the Ligra `AdjacencyGraph` format.
pub fn write_adjacency_graph<W: Write>(g: &Graph, w: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "AdjacencyGraph")?;
    writeln!(w, "{}", g.num_vertices())?;
    writeln!(w, "{}", g.num_edges())?;
    for v in g.vertices() {
        writeln!(w, "{}", g.csr().edge_start(v))?;
    }
    for &t in g.csr().targets() {
        writeln!(w, "{t}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads the Ligra `AdjacencyGraph` format through the streaming core.
pub fn read_adjacency_graph<R: Read>(r: R, directed: bool) -> Result<Graph, GraphError> {
    stream::read_adjacency_graph_with(r, directed, &StreamConfig::default())
}

/// Writes `g` to `w` in the given format.
pub fn write_graph<W: Write>(g: &Graph, w: W, format: Format) -> Result<(), GraphError> {
    match format {
        Format::EdgeList => write_edge_list(g, w),
        Format::AdjacencyGraph => write_adjacency_graph(g, w),
        Format::Binary => write_binary_graph(g, w),
    }
}

/// Reads a graph from `r`. With `format == None` the format is sniffed
/// from the first bytes (see [`sniff_format`]); the detected format is
/// returned alongside the graph. For the binary format, directedness is
/// taken from the stored header and `directed` is ignored.
pub fn read_graph<R: Read>(
    mut r: R,
    directed: bool,
    format: Option<Format>,
    cfg: &StreamConfig,
) -> Result<(Graph, Format), GraphError> {
    if let Some(f) = format {
        return read_known(r, directed, f, cfg).map(|g| (g, f));
    }
    let mut prefix = Vec::with_capacity(SNIFF_BYTES);
    r.by_ref()
        .take(SNIFF_BYTES as u64)
        .read_to_end(&mut prefix)?;
    let f = sniff_format(&prefix);
    let chained = std::io::Cursor::new(prefix).chain(r);
    read_known(chained, directed, f, cfg).map(|g| (g, f))
}

fn read_known<R: Read>(
    r: R,
    directed: bool,
    format: Format,
    cfg: &StreamConfig,
) -> Result<Graph, GraphError> {
    match format {
        Format::EdgeList => stream::read_edge_list_with(r, directed, None, cfg),
        Format::AdjacencyGraph => stream::read_adjacency_graph_with(r, directed, cfg),
        Format::Binary => read_binary_graph(r),
    }
}

/// Reads a graph file, sniffing the format when `format` is `None`.
pub fn load_graph(
    path: impl AsRef<Path>,
    directed: bool,
    format: Option<Format>,
) -> Result<(Graph, Format), GraphError> {
    load_graph_with(path, directed, format, LoadMode::Buffered)
}

/// As [`load_graph`], with an explicit [`LoadMode`]. With
/// [`LoadMode::Mmap`], binary files are memory-mapped and their sections
/// used zero-copy where possible; text formats stream as usual.
pub fn load_graph_with(
    path: impl AsRef<Path>,
    directed: bool,
    format: Option<Format>,
    mode: LoadMode,
) -> Result<(Graph, Format), GraphError> {
    let path = path.as_ref();
    if mode == LoadMode::Mmap {
        let f = match format {
            Some(f) => f,
            None => {
                // Sniff from a bounded prefix, exactly like the streaming
                // path, then reopen through the chosen loader.
                let mut prefix = Vec::with_capacity(SNIFF_BYTES);
                std::fs::File::open(path)?
                    .take(SNIFF_BYTES as u64)
                    .read_to_end(&mut prefix)?;
                sniff_format(&prefix)
            }
        };
        if f == Format::Binary {
            return binary::mmap_binary_graph(path).map(|g| (g, f));
        }
        return read_graph(
            std::fs::File::open(path)?,
            directed,
            Some(f),
            &StreamConfig::default(),
        );
    }
    read_graph(
        std::fs::File::open(path)?,
        directed,
        format,
        &StreamConfig::default(),
    )
}

/// Writes a graph file in the given format.
pub fn save_graph(g: &Graph, path: impl AsRef<Path>, format: Format) -> Result<(), GraphError> {
    write_graph(g, std::fs::File::create(path)?, format)
}

/// Convenience wrapper: writes an edge list to a file path.
pub fn save_edge_list(g: &Graph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    save_graph(g, path, Format::EdgeList)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (3, 4), (4, 0)], true)
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..], true, None).unwrap();
        assert_eq!(g.num_vertices(), h.num_vertices());
        assert_eq!(g.csr().targets(), h.csr().targets());
        assert_eq!(g.csr().offsets(), h.csr().offsets());
    }

    #[test]
    fn edge_list_skips_both_comment_styles() {
        let text = "# hello\n% pct comment\n0 1\n\n1 2\n";
        let g = read_edge_list(text.as_bytes(), true, None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn adjacency_graph_skips_both_comment_styles() {
        let text = "% leading MM comment\nAdjacencyGraph\n# n\n2\n% m\n1\n0\n1\n1\n";
        let g = read_adjacency_graph(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.csr().neighbors(0), &[1]);
    }

    #[test]
    fn edge_list_reports_parse_errors_with_line() {
        let text = "0 1\nbroken\n";
        let err = read_edge_list(text.as_bytes(), true, None).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn edge_list_out_of_range_carries_line() {
        let text = "0 1\n1 2\n3 99999999999\n";
        let err = read_edge_list(text.as_bytes(), true, None).unwrap_err();
        match err {
            GraphError::VertexOutOfRangeAt { line, vertex, .. } => {
                assert_eq!(line, 3);
                assert_eq!(vertex, 99999999999);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn edge_list_min_vertices_pads() {
        let g = read_edge_list("0 1\n".as_bytes(), true, Some(10)).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn edge_list_header_hint_preserves_isolated_vertices() {
        let g = read_edge_list(
            "# vertices 7 edges 1 directed true\n0 1\n".as_bytes(),
            true,
            None,
        )
        .unwrap();
        assert_eq!(g.num_vertices(), 7);
        // An absurd hint (beyond the vertex-id space) is ignored instead
        // of trusted into a huge allocation.
        let g = read_edge_list("# vertices 99999999999999\n0 1\n".as_bytes(), true, None).unwrap();
        assert_eq!(g.num_vertices(), 2);
    }

    #[test]
    fn adjacency_graph_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_adjacency_graph(&g, &mut buf).unwrap();
        let h = read_adjacency_graph(&buf[..], true).unwrap();
        assert_eq!(g.csr().offsets(), h.csr().offsets());
        assert_eq!(g.csr().targets(), h.csr().targets());
    }

    #[test]
    fn adjacency_graph_rejects_wrong_header() {
        let err = read_adjacency_graph("WeightedThing\n1\n0\n0\n".as_bytes(), true).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn adjacency_graph_token_mismatch_reports_last_line() {
        // Header + n=2 m=1 + one offset: 4 tokens instead of 5, over 4
        // content lines.
        let err = read_adjacency_graph("AdjacencyGraph\n2\n1\n0\n".as_bytes(), true).unwrap_err();
        match err {
            GraphError::Parse { line, ref message } => {
                assert_eq!(line, 4, "{message}");
                assert!(message.contains("expected 5 tokens"), "{message}");
            }
            ref other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn adjacency_graph_truncation_reports_last_line() {
        let err = read_adjacency_graph("AdjacencyGraph\n7\n".as_bytes(), true).unwrap_err();
        match err {
            GraphError::Parse { line, ref message } => {
                assert_eq!(line, 2, "{message}");
                assert!(message.contains("truncated"), "{message}");
            }
            ref other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn adjacency_graph_target_out_of_range_carries_line() {
        // n=2, m=1, offsets 0 1, target 9 (out of range) on the last line.
        let err =
            read_adjacency_graph("AdjacencyGraph\n2\n1\n0\n1\n9\n".as_bytes(), true).unwrap_err();
        match err {
            GraphError::VertexOutOfRangeAt { line, vertex, .. } => {
                assert_eq!(line, 6);
                assert_eq!(vertex, 9);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn crlf_line_endings_parse() {
        let g = read_edge_list("0 1\r\n1 2\r\n".as_bytes(), true, None).unwrap();
        assert_eq!(g.num_edges(), 2);
        let h = read_adjacency_graph(
            "AdjacencyGraph\r\n2\r\n1\r\n0\r\n1\r\n1\r\n".as_bytes(),
            true,
        )
        .unwrap();
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn sniffing_recognizes_all_three_formats() {
        let g = sample();
        let mut el = Vec::new();
        write_edge_list(&g, &mut el).unwrap();
        let mut adj = Vec::new();
        write_adjacency_graph(&g, &mut adj).unwrap();
        let mut bin = Vec::new();
        write_binary_graph(&g, &mut bin).unwrap();
        assert_eq!(sniff_format(&el), Format::EdgeList);
        assert_eq!(sniff_format(&adj), Format::AdjacencyGraph);
        assert_eq!(sniff_format(&bin), Format::Binary);
        for (bytes, want) in [
            (el, Format::EdgeList),
            (adj, Format::AdjacencyGraph),
            (bin, Format::Binary),
        ] {
            let (h, got) = read_graph(&bytes[..], true, None, &StreamConfig::default()).unwrap();
            assert_eq!(got, want);
            assert_eq!(h.csr().offsets(), g.csr().offsets());
            assert_eq!(h.csr().targets(), g.csr().targets());
        }
    }

    #[test]
    fn format_names_roundtrip() {
        for f in Format::ALL {
            assert_eq!(Format::from_name(f.name()), Some(f));
        }
        assert_eq!(Format::from_name("nope"), None);
        assert_eq!(
            Format::from_extension(Path::new("x/y.vgr")),
            Some(Format::Binary)
        );
        assert_eq!(Format::from_extension(Path::new("x/y")), None);
    }

    #[test]
    fn file_roundtrip_all_formats() {
        let g = sample();
        let dir = std::env::temp_dir().join("vebo_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        for f in Format::ALL {
            let path = dir.join(format!("g.{}", f.name()));
            save_graph(&g, &path, f).unwrap();
            // Explicit format.
            let (h, _) = load_graph(&path, true, Some(f)).unwrap();
            assert_eq!(g.csr().targets(), h.csr().targets(), "{f}");
            // Sniffed format.
            let (h, sniffed) = load_graph(&path, true, None).unwrap();
            assert_eq!(sniffed, f);
            assert_eq!(g.csr().targets(), h.csr().targets(), "{f}");
            std::fs::remove_file(&path).ok();
        }
    }
}
