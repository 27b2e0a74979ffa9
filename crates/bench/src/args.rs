//! Minimal CLI argument parsing shared by all harness binaries.
//!
//! Every binary accepts:
//!
//! * `--scale <f64>` — dataset scale factor (1.0 = default sizes);
//! * `--quick` — shorthand for `--scale 0.1`;
//! * `--dataset <name>` — restrict to one dataset;
//! * `--cache <dir>` — cache generated datasets as binary `.vgr` files in
//!   `dir`, so repeated harness runs reload instantly through the
//!   streaming binary loader instead of regenerating;
//! * `--mmap` — reload `.vgr` cache snapshots through the zero-copy
//!   memory-mapped loader instead of the buffered reader (only
//!   meaningful with `--cache`);
//! * `--compress` — attach delta-varint compressed neighbor lists to
//!   loaded/built graphs, so the engine's pull/push kernels stream the
//!   compressed working set (results are bit-identical);
//! * `--partitions <n>` — override the partition count;
//! * `--threads <n>` — simulated machine threads (default 48);
//! * `--executor <sequential|sharded>` — which engine backend runs tasks
//!   (default sequential: the measured mode; per-task timings under the
//!   sharded backend are noisy);
//! * `--shards <n>` — shard count for `--executor sharded` (default 4);
//! * `--help` — usage.

use std::path::PathBuf;
use vebo_engine::{ExecMode, Executor, SystemProfile};
use vebo_graph::io::{self, Format};
use vebo_graph::{Dataset, Graph};

/// Parsed harness options.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// `--scale`: dataset scale factor (1.0 = default sizes).
    pub scale: f64,
    /// Whether `--scale`/`--quick` was given (binaries with expensive
    /// cross products pick a smaller default when it was not).
    pub scale_explicit: bool,
    /// `--dataset`: restrict to one dataset.
    pub dataset: Option<Dataset>,
    /// `--cache`: directory for binary `.vgr` dataset snapshots.
    pub cache: Option<PathBuf>,
    /// `--mmap`: reload cache snapshots via the zero-copy mapped loader.
    pub mmap: bool,
    /// `--compress`: attach compressed neighbor lists to built graphs.
    pub compress: bool,
    /// `--partitions`: partition count override.
    pub partitions: Option<usize>,
    /// `--threads`: simulated machine threads.
    pub threads: usize,
    /// `--executor`: which engine backend runs tasks.
    pub exec_mode: ExecMode,
    /// `--extended`: include the extension orderings/strategies
    /// (SlashBurn, METIS-like) where the binary supports them.
    pub extended: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 1.0,
            scale_explicit: false,
            dataset: None,
            cache: None,
            mmap: false,
            compress: false,
            partitions: None,
            threads: 48,
            exec_mode: ExecMode::Sequential,
            extended: false,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args`, exiting with usage on `--help` or errors.
    pub fn parse(binary: &str, description: &str) -> HarnessArgs {
        Self::parse_from(binary, description, std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(
        binary: &str,
        description: &str,
        args: impl IntoIterator<Item = String>,
    ) -> HarnessArgs {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_else(|| usage_exit(binary, description));
                    out.scale = v
                        .parse()
                        .unwrap_or_else(|_| usage_exit(binary, description));
                    out.scale_explicit = true;
                }
                "--quick" => {
                    out.scale = 0.1;
                    out.scale_explicit = true;
                }
                "--dataset" => {
                    let v = it.next().unwrap_or_else(|| usage_exit(binary, description));
                    match Dataset::from_name(&v) {
                        Some(d) => out.dataset = Some(d),
                        None => {
                            eprintln!(
                                "unknown dataset '{v}'; known: {:?}",
                                Dataset::ALL.map(|d| d.name())
                            );
                            std::process::exit(2);
                        }
                    }
                }
                "--cache" => {
                    let v = it.next().unwrap_or_else(|| usage_exit(binary, description));
                    out.cache = Some(PathBuf::from(v));
                }
                "--partitions" => {
                    let v = it.next().unwrap_or_else(|| usage_exit(binary, description));
                    out.partitions = Some(
                        v.parse()
                            .unwrap_or_else(|_| usage_exit(binary, description)),
                    );
                }
                "--threads" => {
                    let v = it.next().unwrap_or_else(|| usage_exit(binary, description));
                    out.threads = v
                        .parse()
                        .unwrap_or_else(|_| usage_exit(binary, description));
                }
                "--mmap" => out.mmap = true,
                "--compress" => out.compress = true,
                "--executor" => {
                    let v = it.next().unwrap_or_else(|| usage_exit(binary, description));
                    out.exec_mode = parse_executor(&v, out.exec_mode).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    });
                }
                "--shards" => {
                    let v = it.next().unwrap_or_else(|| usage_exit(binary, description));
                    let shards: usize = v
                        .parse()
                        .ok()
                        .filter(|&s| s >= 1)
                        .unwrap_or_else(|| usage_exit(binary, description));
                    out.exec_mode = ExecMode::Sharded { shards };
                }
                "--extended" => out.extended = true,
                "--help" | "-h" => {
                    println!("{}", usage(binary, description));
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument '{other}'");
                    eprintln!("{}", usage(binary, description));
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// The scale to use, with a binary-specific default when the user
    /// did not pass `--scale`/`--quick`.
    pub fn scale_or(&self, default: f64) -> f64 {
        if self.scale_explicit {
            self.scale
        } else {
            default
        }
    }

    /// Builds (or reloads) `dataset` at `scale`, honoring `--cache`: with
    /// a cache directory, the first build is snapshotted as a binary
    /// `.vgr` file and later runs stream it back instead of regenerating
    /// (zero-copy memory-mapped when `--mmap` is set). Generators are
    /// deterministic, so a cache hit is bit-identical to a rebuild.
    pub fn build_dataset(&self, dataset: Dataset, scale: f64) -> Graph {
        let g = self.build_dataset_plain(dataset, scale);
        if self.compress {
            g.with_compressed()
        } else {
            g
        }
    }

    /// [`Self::build_dataset`] without the `--compress` post-processing
    /// (cache snapshots always store the plain representation, so cached
    /// files stay byte-identical whether or not `--compress` is set).
    fn build_dataset_plain(&self, dataset: Dataset, scale: f64) -> Graph {
        let Some(dir) = &self.cache else {
            return dataset.build(scale);
        };
        let path = dir.join(format!("{}-s{scale}.vgr", dataset.name()));
        if path.exists() {
            let mode = if self.mmap {
                io::LoadMode::Mmap
            } else {
                io::LoadMode::Buffered
            };
            match io::load_graph_with(&path, dataset.spec().directed, Some(Format::Binary), mode) {
                Ok((g, _)) => return g,
                Err(e) => eprintln!("warning: ignoring unreadable cache {}: {e}", path.display()),
            }
        }
        let g = dataset.build(scale);
        if let Err(e) = std::fs::create_dir_all(dir)
            .map_err(vebo_graph::GraphError::from)
            .and_then(|()| io::save_graph(&g, &path, Format::Binary))
        {
            eprintln!("warning: cannot cache {}: {e}", path.display());
        }
        g
    }

    /// The [`Executor`] every harness runs algorithms through: built for
    /// `profile`, honoring `--executor`/`--shards`. One construction path
    /// for every binary, so execution policy never drifts between tables.
    /// Selecting the sharded backend spawns its long-lived workers here.
    pub fn executor(&self, profile: SystemProfile) -> Executor {
        Executor::new(profile).with_mode(self.exec_mode)
    }

    /// Datasets selected by `--dataset`, or all of them.
    pub fn datasets(&self) -> Vec<Dataset> {
        match self.dataset {
            Some(d) => vec![d],
            None => Dataset::ALL.to_vec(),
        }
    }
}

/// The backend `--executor <name>` selects; `current` is the mode parsed
/// so far, so `sharded` keeps a shard count a preceding `--shards` set.
fn parse_executor(name: &str, current: ExecMode) -> Result<ExecMode, String> {
    match name {
        "sequential" | "seq" => Ok(ExecMode::Sequential),
        "sharded" => Ok(match current {
            ExecMode::Sequential => ExecMode::Sharded { shards: 4 },
            sharded => sharded,
        }),
        other => Err(format!(
            "unknown executor '{other}'; known: sequential, sharded"
        )),
    }
}

fn usage(binary: &str, description: &str) -> String {
    format!(
        "{binary} — {description}\n\nOptions:\n  --scale <f>      dataset scale factor (default 1.0)\n  --quick          same as --scale 0.1\n  --dataset <name> one of {:?}\n  --cache <dir>    cache datasets as binary .vgr files in <dir>\n  --mmap           reload .vgr cache snapshots via zero-copy mmap\n  --compress       run kernels over delta-varint compressed neighbor lists\n  --partitions <n> partition count override\n  --threads <n>    simulated threads (default 48)\n  --executor <b>   engine backend: sequential | sharded\n  --shards <n>     shard count (implies --executor sharded; default 4)\n  --extended       include extension orderings where supported\n  --help           this text",
        Dataset::ALL.map(|d| d.name())
    )
}

fn usage_exit(binary: &str, description: &str) -> ! {
    eprintln!("{}", usage(binary, description));
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from("t", "test", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.threads, 48);
        assert!(a.dataset.is_none());
        assert_eq!(a.datasets().len(), 8);
    }

    #[test]
    fn quick_sets_scale() {
        assert_eq!(parse(&["--quick"]).scale, 0.1);
    }

    #[test]
    fn compress_attaches_companion_to_built_graphs() {
        use vebo_graph::StorageKind;
        assert!(!parse(&[]).compress);
        let args = parse(&["--compress"]);
        assert!(args.compress);
        let g = args.build_dataset(Dataset::YahooLike, 0.02);
        assert_eq!(g.storage_kind(), StorageKind::Compressed);
        // Structure is unchanged by compression.
        let plain = parse(&[]).build_dataset(Dataset::YahooLike, 0.02);
        assert_eq!(plain.csr().targets(), g.csr().targets());
    }

    #[test]
    fn executor_flags_select_backend() {
        use vebo_engine::ExecMode;
        let profile = vebo_engine::SystemProfile::ligra_like();
        assert_eq!(parse(&[]).executor(profile).mode(), ExecMode::Sequential);
        assert_eq!(
            parse(&["--executor", "seq"]).executor(profile).mode(),
            ExecMode::Sequential
        );
        // Anything else is refused (the parser exits 2 with this text).
        let err = parse_executor("rayon", ExecMode::Sequential).unwrap_err();
        assert!(err.contains("known: sequential, sharded"), "{err}");
        assert_eq!(
            parse(&["--executor", "sharded"]).executor(profile).mode(),
            ExecMode::Sharded { shards: 4 }
        );
        // --shards implies the sharded backend, in either flag order.
        assert_eq!(
            parse(&["--shards", "7"]).executor(profile).mode(),
            ExecMode::Sharded { shards: 7 }
        );
        assert_eq!(
            parse(&["--shards", "7", "--executor", "sharded"])
                .executor(profile)
                .mode(),
            ExecMode::Sharded { shards: 7 }
        );
    }

    #[test]
    fn cache_round_trips_datasets() {
        let dir = std::env::temp_dir().join("vebo-bench-cache-test");
        std::fs::remove_dir_all(&dir).ok();
        let args = parse(&["--cache", dir.to_str().unwrap()]);
        assert_eq!(args.cache.as_deref(), Some(dir.as_path()));
        // First build populates the cache, second streams it back; both
        // must be bit-identical to an uncached build.
        let fresh = Dataset::YahooLike.build(0.02);
        let first = args.build_dataset(Dataset::YahooLike, 0.02);
        assert!(dir.join("yahoo_mem-s0.02.vgr").exists());
        let second = args.build_dataset(Dataset::YahooLike, 0.02);
        for g in [&first, &second] {
            assert_eq!(g.csr().offsets(), fresh.csr().offsets());
            assert_eq!(g.csr().targets(), fresh.csr().targets());
            assert_eq!(g.is_directed(), fresh.is_directed());
        }
        // Without --cache, nothing new is written.
        let plain = parse(&[]).build_dataset(Dataset::YahooLike, 0.02);
        assert_eq!(plain.csr().targets(), fresh.csr().targets());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_cache_reload_matches_buffered() {
        use vebo_graph::StorageKind;
        let dir = std::env::temp_dir().join("vebo-bench-mmap-cache-test");
        std::fs::remove_dir_all(&dir).ok();
        let buffered = parse(&["--cache", dir.to_str().unwrap()]);
        let mapped = parse(&["--cache", dir.to_str().unwrap(), "--mmap"]);
        assert!(mapped.mmap && !buffered.mmap);
        // First call populates the cache (built graph: owned storage).
        let first = buffered.build_dataset(Dataset::YahooLike, 0.02);
        assert_eq!(first.storage_kind(), StorageKind::Owned);
        // A --mmap reload is bit-identical and zero-copy where supported.
        let remapped = mapped.build_dataset(Dataset::YahooLike, 0.02);
        assert_eq!(first.csr().offsets(), remapped.csr().offsets());
        assert_eq!(first.csr().targets(), remapped.csr().targets());
        if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
            assert_eq!(remapped.storage_kind(), StorageKind::Mapped);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_values() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--dataset",
            "twitter",
            "--partitions",
            "64",
            "--threads",
            "16",
        ]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.dataset, Some(Dataset::TwitterLike));
        assert_eq!(a.partitions, Some(64));
        assert_eq!(a.threads, 16);
        assert_eq!(a.datasets(), vec![Dataset::TwitterLike]);
    }
}
