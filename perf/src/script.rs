//! Request scripts for the two serving workloads, generated from the seed
//! as *text* in the serving script grammar (`label 7`, `add 1 2`, …) and
//! parsed back with the repository's own `parse_script`: the program under
//! test only ever sees a script a user could have written.

use crate::workloads::SeedStream;
use vebo_bench::serve::{parse_script, Request};
use vebo_graph::VertexId;

/// Request kinds, in the order [`Mix`] lists their shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Label,
    Bfs,
    Pr,
    Add,
    Del,
}

const KINDS: [Kind; 5] = [Kind::Label, Kind::Bfs, Kind::Pr, Kind::Add, Kind::Del];

/// Requests in one cycle of a script; shares are multiples of 1/20.
pub const CYCLE: usize = 20;

/// Request mix: how many of each kind a 20-request cycle holds, in
/// [`KINDS`] order.
#[derive(Clone, Copy, Debug)]
pub struct Mix([usize; 5]);

/// `serve-mutate`: 40 % label, 20 % bfs, 5 % pr, 25 % add, 10 % del.
pub const MUTATE_MIX: Mix = Mix([8, 4, 1, 5, 2]);

/// `net-serve`, read-only: 80 % label, 15 % bfs, 5 % pr.
pub const READ_MIX: Mix = Mix([16, 3, 1, 0, 0]);

impl Mix {
    /// `add` plus `del` requests in one cycle.
    pub fn mutations_per_cycle(self) -> usize {
        self.0[3] + self.0[4]
    }

    /// The kinds of one cycle in their fixed order: each kind spread as
    /// evenly over the cycle as its count allows (slot by slot, the kind
    /// furthest behind its share goes next). The order does not depend on
    /// the seed: every stretch of a script holds the same amount of each
    /// kind of work, and only the arguments differ between seeds — so a
    /// difference between two seeds' timings is noise, not luck of the mix.
    fn cycle(self) -> [Kind; CYCLE] {
        assert_eq!(self.0.iter().sum::<usize>(), CYCLE);
        let mut emitted = [0usize; 5];
        std::array::from_fn(|slot| {
            let k = (0..5)
                .max_by_key(|&k| {
                    // Deficit in 1/20ths of a request; earlier kinds win ties.
                    let deficit = (self.0[k] * (slot + 1)) as i64 - (emitted[k] * CYCLE) as i64;
                    (deficit, std::cmp::Reverse(k))
                })
                .expect("five kinds");
            emitted[k] += 1;
            KINDS[k]
        })
    }
}

/// How a script draws its vertex arguments.
#[derive(Clone, Copy, Debug)]
pub struct Args<'a> {
    /// Vertex count of the served graph.
    pub vertices: u64,
    /// `bfs`/`pr` seeds come from this pool: hubs, so that every seed's
    /// heavy queries cost about the same, and few, so that replaying the
    /// distinct ones for the correctness gate stays cheap.
    pub heavy_pool: &'a [VertexId],
    /// Share of `bfs`/`pr` requests that repeat the argument of one of the
    /// previous eight requests of their kind, so that request coalescing
    /// has something to coalesce.
    pub repeat_share: f64,
}

/// Generates chunk `chunk` of the script for `seed`: `count` lines.
/// Chunks of one seed are independent streams, so a run can keep drawing
/// chunks until its time is up.
pub fn generate(seed: u64, chunk: u64, count: usize, mix: Mix, args: Args<'_>) -> String {
    let cycle = mix.cycle();
    let mut s = SeedStream::new(seed, 0x5c21 ^ (chunk << 16));
    let mut recent_bfs: Vec<VertexId> = Vec::new();
    let mut recent_pr: Vec<VertexId> = Vec::new();
    let mut added: Vec<(VertexId, VertexId)> = Vec::new();
    let mut out = String::new();
    for i in 0..count {
        let vertex = |s: &mut SeedStream| s.below(args.vertices) as VertexId;
        let heavy = |s: &mut SeedStream, recent: &mut Vec<VertexId>| {
            let v = if !recent.is_empty() && s.unit() < args.repeat_share {
                let back = s.below(recent.len().min(8) as u64) as usize;
                recent[recent.len() - 1 - back]
            } else {
                args.heavy_pool[s.below(args.heavy_pool.len() as u64) as usize]
            };
            recent.push(v);
            v
        };
        let req = match cycle[i % CYCLE] {
            Kind::Label => Request::Label { v: vertex(&mut s) },
            Kind::Bfs => Request::Bfs {
                seed: heavy(&mut s, &mut recent_bfs),
            },
            Kind::Pr => Request::PageRankSeed {
                seed: heavy(&mut s, &mut recent_pr),
            },
            Kind::Add => {
                let (u, v) = (vertex(&mut s), vertex(&mut s));
                added.push((u, v));
                Request::AddEdge { u, v }
            }
            Kind::Del => {
                // Delete an edge this chunk added earlier (a real removal);
                // before the first add, a random pair (a no-op delete).
                let (u, v) = if added.is_empty() {
                    (vertex(&mut s), vertex(&mut s))
                } else {
                    added.swap_remove(s.below(added.len() as u64) as usize)
                };
                Request::DelEdge { u, v }
            }
        };
        out.push_str(&req.to_line());
        out.push('\n');
    }
    out
}

/// Parses a generated script with the repository's script parser.
pub fn parse(text: &str) -> Vec<Request> {
    parse_script(text).expect("generated scripts follow the script grammar")
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL: [VertexId; 32] = {
        let mut pool = [0; 32];
        let mut i = 0;
        while i < 32 {
            pool[i] = i as VertexId * 1000;
            i += 1;
        }
        pool
    };

    const ARGS: Args<'static> = Args {
        vertices: 50_000,
        heavy_pool: &POOL,
        repeat_share: 0.3,
    };

    #[test]
    fn same_seed_gives_a_byte_identical_script() {
        let a = generate(42, 3, 500, MUTATE_MIX, ARGS);
        let b = generate(42, 3, 500, MUTATE_MIX, ARGS);
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(parse(&a).len(), 500);
    }

    #[test]
    fn different_seed_or_chunk_gives_a_different_script() {
        let a = generate(42, 0, 500, MUTATE_MIX, ARGS);
        assert_ne!(a, generate(43, 0, 500, MUTATE_MIX, ARGS));
        assert_ne!(a, generate(42, 1, 500, MUTATE_MIX, ARGS));
    }

    #[test]
    fn every_cycle_holds_exactly_the_mix_whatever_the_seed() {
        for seed in [7, 8] {
            let reqs = parse(&generate(seed, 0, 200, MUTATE_MIX, ARGS));
            for cycle in reqs.chunks(CYCLE) {
                let count = |code: &str| cycle.iter().filter(|r| r.code() == code).count();
                assert_eq!(
                    ["label", "bfs", "pr", "add", "del"].map(count),
                    [8, 4, 1, 5, 2]
                );
            }
        }
        let kinds = |seed| -> Vec<&'static str> {
            parse(&generate(seed, 0, 60, READ_MIX, ARGS))
                .iter()
                .map(Request::code)
                .collect()
        };
        assert_eq!(kinds(1), kinds(2));
        // The heavy kinds are spread over the cycle, not bunched.
        let cycle = READ_MIX.cycle();
        let heavy: Vec<usize> = (0..CYCLE).filter(|&i| cycle[i] != Kind::Label).collect();
        assert_eq!(heavy.len(), 4);
        assert!(heavy.windows(2).all(|w| w[1] - w[0] >= 3), "{heavy:?}");
    }

    #[test]
    fn read_mix_never_mutates_and_repeats_heavy_arguments() {
        let pool = POOL;
        let reqs = parse(&generate(9, 0, 4000, READ_MIX, ARGS));
        assert!(reqs.iter().all(|r| !r.mutates()));
        let heavy: Vec<VertexId> = reqs
            .iter()
            .filter_map(|r| match *r {
                Request::Bfs { seed } | Request::PageRankSeed { seed } => Some(seed),
                _ => None,
            })
            .collect();
        assert!(heavy.iter().all(|v| pool.contains(v)));
        let distinct: std::collections::BTreeSet<_> = heavy.iter().collect();
        assert!(distinct.len() <= pool.len() && heavy.len() > 10 * distinct.len());
    }

    #[test]
    fn deletes_target_edges_the_chunk_added() {
        let reqs = parse(&generate(11, 0, 2000, MUTATE_MIX, ARGS));
        let mut live = std::collections::BTreeSet::new();
        let mut hits = 0;
        let mut dels = 0;
        for r in &reqs {
            match *r {
                Request::AddEdge { u, v } => {
                    live.insert((u, v));
                }
                Request::DelEdge { u, v } => {
                    dels += 1;
                    hits += usize::from(live.remove(&(u, v)));
                }
                _ => {}
            }
        }
        assert!(dels > 100 && hits * 10 >= dels * 9, "{hits} of {dels}");
    }
}
