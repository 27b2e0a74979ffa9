//! `.vgr` fixtures: generated once, untimed, into `perf/data/` (ignored by
//! git) with `Dataset::build` + `save_graph`. The generators are seeded
//! inside `vebo-graph`, so a fixture is the same file on every machine and
//! the workload `--seed` only drives the operation lists. The program
//! under test only ever sees these files and the generated lists.
//!
//! Every graph here fits in the host's last-level cache many times over,
//! so ns/edge figures are cache-resident figures.

use std::io;
use std::path::{Path, PathBuf};
use vebo_graph::io::{load_graph_with, save_graph, Format, LoadMode};
use vebo_graph::{Dataset, Graph};

/// The benchmark's own directory. `vebo-perf` runs from the repository
/// root: `run.sh`, the acceptance harness and the tests all start it there.
const PERF_DIR: &str = "perf";

/// Where result and trace files go.
pub fn out_dir() -> io::Result<PathBuf> {
    let dir = Path::new(PERF_DIR).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[derive(Clone, Copy, Debug)]
pub struct FixtureSpec {
    pub dataset: Dataset,
    pub scale: f64,
    /// Hash edge weights in `1..=16` (SPMV, BP and Bellman–Ford need them;
    /// the mutable serving engine refuses them).
    pub weighted: bool,
    /// `.vgr` version 3: delta-varint compressed neighbor lists.
    pub compressed: bool,
}

impl FixtureSpec {
    fn file_name(&self) -> String {
        format!(
            "{}-x{}{}.v{}.vgr",
            self.dataset.name(),
            self.scale,
            if self.weighted { "-w" } else { "" },
            if self.compressed { 3 } else { 2 },
        )
    }

    /// Generates the fixture unless it already exists; returns its path.
    pub fn ensure(&self) -> io::Result<PathBuf> {
        let dir = Path::new(PERF_DIR).join("data");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(self.file_name());
        if path.is_file() {
            return Ok(path);
        }
        let mut g = self.dataset.build(self.scale);
        if self.weighted {
            g = g.with_hash_weights(16);
        }
        if self.compressed {
            g = g.with_compressed();
        }
        // Write beside the target and rename, so a reader (or a run
        // killed half-way) never sees a truncated fixture.
        let tmp = dir.join(format!("{}.tmp{}", self.file_name(), std::process::id()));
        save_graph(&g, &tmp, Format::Binary).map_err(io::Error::other)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Opens a fixture the way every workload does: memory-mapped.
pub fn load_mapped(path: &Path) -> io::Result<Graph> {
    load_with(path, LoadMode::Mmap)
}

pub fn load_with(path: &Path, mode: LoadMode) -> io::Result<Graph> {
    load_graph_with(path, true, Some(Format::Binary), mode)
        .map(|(g, _)| g)
        .map_err(io::Error::other)
}
