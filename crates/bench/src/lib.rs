//! # vebo-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`). Timing the stack itself is `vebo-perf`'s job (`perf/` at
//! the repository root). This library holds the shared pieces: a tiny CLI
//! parser, a column-aligned table printer, the ordering/preparation/run
//! pipeline every experiment reuses, and the [`serve`] layer behind the
//! `vebo-serve` request loop.

#![warn(missing_docs)]

pub mod args;
pub mod pipeline;
pub mod serve;
pub mod shutdown;
pub mod table;

pub use args::HarnessArgs;
pub use pipeline::{ordered_graph, ordered_with_starts, OrderingKind};
pub use serve::{
    metrics_summary, parse_request_line, parse_script, BatchReport, Request, Response, ServeEngine,
    ServeError,
};
pub use table::Table;
