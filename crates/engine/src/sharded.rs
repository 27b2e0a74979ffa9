//! The engine's one concurrent backend behind the [`crate::Executor`]
//! policy seam: `S` long-lived worker threads, each owning one shard of
//! the task space, with per-shard work queues and a work-stealing
//! fallback for straggler shards — the paper's statically assigned
//! partitions on persistent threads (Polymer, GraphGrind).
//!
//! Thread creation is amortized to zero: workers are spawned once when
//! [`crate::ExecMode::Sharded`] is selected and live as long as the
//! executor (any clone of it) does. Each `edge_map` /
//! `vertex_map` becomes a **fan-out** (one job message per worker, the
//! operation closure shared by reference) and a **fan-in** (a latch the
//! caller waits on), so concurrent request threads can drive the same
//! pool simultaneously — jobs interleave at operation granularity in
//! each worker's queue.
//!
//! Shards are derived by [`ShardPlan`]: unions of whole partitions,
//! aligned to the [`PlacementPlan`](vebo_partition::PlacementPlan)
//! socket blocks on statically scheduled profiles, so the vertex- and
//! edge-balance VEBO establishes per partition carries over to the
//! shards. Within a shard, tasks run in ascending index order off an
//! atomic cursor (the shard's queue); a worker that drains its own
//! queue steals from the most loaded remaining shard, one task at a
//! time — VEBO's balance makes stealing rare, but skew in the *active*
//! frontier can still produce stragglers.
//!
//! Every operation reports per-shard occupancy through
//! [`ShardOpReport`] (queue depth at start, tasks run, tasks stolen,
//! busy nanoseconds), which rides on the operation reports and is
//! forwarded to [`InstrumentSink::record_shard_op`](crate::InstrumentSink::record_shard_op).

use crate::edge_map::TaskStats;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use vebo_partition::numa::NumaTopology;
use vebo_partition::ShardPlan;

/// One shard's share of one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardOpStats {
    /// Tasks pending in this shard's queue when its worker picked the
    /// operation up.
    pub queue_depth: u64,
    /// Tasks this shard's worker claimed from its own queue.
    pub tasks_run: u64,
    /// Tasks this shard's worker stole from other shards' queues after
    /// draining its own.
    pub tasks_stolen: u64,
    /// Wall-clock nanoseconds the worker spent on the operation.
    pub busy_nanos: u64,
}

/// Per-shard measurements of one fan-out operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardOpReport {
    /// One entry per shard, indexed by shard id.
    pub shards: Vec<ShardOpStats>,
    /// Wall-clock nanoseconds from fan-out to fan-in completion.
    pub wall_nanos: u64,
}

impl ShardOpReport {
    /// Total tasks stolen across shards — nonzero means a straggler
    /// shard was helped out.
    pub fn total_stolen(&self) -> u64 {
        self.shards.iter().map(|s| s.tasks_stolen).sum()
    }

    /// Per-shard occupancy: busy time as a fraction of the operation's
    /// wall time (0 when the operation was too fast to measure).
    pub fn occupancy(&self) -> Vec<f64> {
        self.shards
            .iter()
            .map(|s| {
                if self.wall_nanos == 0 {
                    0.0
                } else {
                    s.busy_nanos as f64 / self.wall_nanos as f64
                }
            })
            .collect()
    }
}

/// A type-erased borrowed job: raw data pointer plus a monomorphized
/// trampoline. The caller guarantees the pointee outlives the job by
/// waiting on the fan-out latch before returning.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is `Sync` (enforced by `fan_out`'s bound) and the
// caller keeps it alive until every worker has signalled the latch.
unsafe impl Send for Job {}

enum Msg {
    Run(Job, Arc<Latch>),
    Shutdown,
}

/// Countdown latch for fan-in: the caller waits until every worker has
/// arrived; a worker whose job panicked poisons the latch.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    poisoned: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn arrive(&self, panicked: bool) {
        if panicked {
            self.poisoned.store(true, Ordering::Relaxed);
        }
        let mut r = self.remaining.lock().unwrap();
        *r -= 1;
        if *r == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().unwrap();
        while *r > 0 {
            r = self.done.wait(r).unwrap();
        }
        assert!(
            !self.poisoned.load(Ordering::Relaxed),
            "a sharded worker panicked while running an operation"
        );
    }
}

thread_local! {
    /// Set while the current thread is a shard worker, to detect (and
    /// inline) re-entrant fan-outs that would otherwise self-deadlock.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The long-lived worker pool behind [`crate::ExecMode::Sharded`]: `S`
/// threads, one per shard, each with its own job queue.
///
/// Constructed internally by
/// [`Executor::with_mode`](crate::Executor::with_mode) /
/// [`Executor::sharded`](crate::Executor::sharded) and shared by every
/// clone of that executor (so `Executor::recorded` keeps reusing the
/// same workers). Workers shut down when the last clone drops.
///
/// Thread startup is paid once, task-to-worker affinity is stable (shard
/// `s`'s partitions are always touched by worker `s` unless stolen,
/// keeping caches and socket-local arrays warm), and concurrent requests
/// interleave in the queues instead of fighting over a global pool —
/// which serves one big batch operation as well as many small ones.
pub struct ShardedExecutor {
    senders: Vec<Sender<Msg>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("shards", &self.num_shards())
            .finish()
    }
}

impl ShardedExecutor {
    /// Spawns `num_shards` long-lived workers.
    pub fn spawn(num_shards: usize) -> ShardedExecutor {
        assert!(num_shards >= 1, "need at least one shard");
        let mut senders = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let (tx, rx) = channel::<Msg>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("vebo-shard-{s}"))
                .spawn(move || {
                    ON_WORKER.with(|w| w.set(true));
                    while let Ok(Msg::Run(job, latch)) = rx.recv() {
                        let r = catch_unwind(AssertUnwindSafe(|| unsafe {
                            (job.call)(job.data, s);
                        }));
                        latch.arrive(r.is_err());
                    }
                })
                .expect("spawn shard worker");
            workers.push(handle);
        }
        ShardedExecutor { senders, workers }
    }

    /// Number of shards (= worker threads).
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Runs `f(shard)` once per shard, on the shard's worker thread, and
    /// returns when all have finished. Safe to call from many request
    /// threads at once — jobs queue up per worker. A call from *inside*
    /// a worker (re-entrant operation) runs inline instead, to avoid
    /// self-deadlock.
    fn fan_out<F: Fn(usize) + Sync>(&self, f: &F) {
        if ON_WORKER.with(|w| w.get()) {
            for s in 0..self.num_shards() {
                f(s);
            }
            return;
        }
        unsafe fn call<F: Fn(usize)>(data: *const (), shard: usize) {
            (*(data as *const F))(shard);
        }
        let job = Job {
            data: f as *const F as *const (),
            call: call::<F>,
        };
        let latch = Arc::new(Latch::new(self.num_shards()));
        for tx in &self.senders {
            tx.send(Msg::Run(job, latch.clone()))
                .expect("shard worker exited early");
        }
        // The latch wait is what makes the borrowed `job` sound: no
        // worker touches it after arriving.
        latch.wait();
    }

    /// Runs `num_tasks` tasks across the shards — each shard's worker
    /// drains its own queue in ascending task order, then steals from
    /// the fullest remaining queue — timing each task, and returns the
    /// per-task stats (indexed by task, stamped with sockets when a
    /// placement topology is given) plus the per-shard report.
    pub(crate) fn run_tasks<F>(
        &self,
        num_tasks: usize,
        placement: Option<&NumaTopology>,
        f: F,
    ) -> (Vec<TaskStats>, ShardOpReport)
    where
        F: Fn(usize) -> (u64, u64) + Sync,
    {
        let num_shards = self.num_shards();
        let plan = placement.map(|topo| topo.placement_plan(num_tasks));
        let shard_plan = match &plan {
            Some(p) => ShardPlan::from_placement(p, num_shards),
            None => ShardPlan::contiguous(num_tasks, num_shards),
        };
        let cursors: Vec<AtomicUsize> = (0..num_shards)
            .map(|s| AtomicUsize::new(shard_plan.tasks_of(s).start))
            .collect();
        let collected: Mutex<Vec<(usize, TaskStats)>> = Mutex::new(Vec::with_capacity(num_tasks));
        let per_shard: Mutex<Vec<(usize, ShardOpStats)>> =
            Mutex::new(Vec::with_capacity(num_shards));

        let timed = |t: usize| {
            let t0 = Instant::now();
            let (edges, vertices) = f(t);
            TaskStats {
                nanos: t0.elapsed().as_nanos() as u64,
                edges,
                vertices,
                socket: 0,
            }
        };
        // Claims the next task of `shard`'s queue, if any remain.
        let claim = |shard: usize| -> Option<usize> {
            let end = shard_plan.tasks_of(shard).end;
            // Opportunistic check keeps drained queues cheap to probe.
            if cursors[shard].load(Ordering::Relaxed) >= end {
                return None;
            }
            let t = cursors[shard].fetch_add(1, Ordering::Relaxed);
            (t < end).then_some(t)
        };

        let t_op = Instant::now();
        self.fan_out(&|shard: usize| {
            let range = shard_plan.tasks_of(shard);
            let mut stats = ShardOpStats {
                queue_depth: range
                    .end
                    .saturating_sub(cursors[shard].load(Ordering::Relaxed).min(range.end))
                    as u64,
                ..ShardOpStats::default()
            };
            let t0 = Instant::now();
            let mut local: Vec<(usize, TaskStats)> = Vec::new();
            while let Some(t) = claim(shard) {
                local.push((t, timed(t)));
                stats.tasks_run += 1;
            }
            // Straggler fallback: steal from the fullest remaining queue
            // until everything is drained.
            loop {
                let victim = (0..num_shards)
                    .filter(|&v| v != shard)
                    .max_by_key(|&v| {
                        let end = shard_plan.tasks_of(v).end;
                        end.saturating_sub(cursors[v].load(Ordering::Relaxed).min(end))
                    })
                    .filter(|&v| {
                        let end = shard_plan.tasks_of(v).end;
                        cursors[v].load(Ordering::Relaxed) < end
                    });
                let Some(v) = victim else { break };
                if let Some(t) = claim(v) {
                    local.push((t, timed(t)));
                    stats.tasks_stolen += 1;
                }
            }
            stats.busy_nanos = t0.elapsed().as_nanos() as u64;
            collected.lock().unwrap().extend(local);
            per_shard.lock().unwrap().push((shard, stats));
        });
        let wall_nanos = t_op.elapsed().as_nanos() as u64;

        let mut tasks = vec![TaskStats::default(); num_tasks];
        for (t, s) in collected.into_inner().unwrap() {
            tasks[t] = s;
        }
        if let Some(plan) = &plan {
            for (t, s) in tasks.iter_mut().enumerate() {
                s.socket = plan.socket_of(t) as u32;
            }
        }
        let mut shards = vec![ShardOpStats::default(); num_shards];
        for (s, stats) in per_shard.into_inner().unwrap() {
            shards[s] = stats;
        }
        (tasks, ShardOpReport { shards, wall_nanos })
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        for tx in &self.senders {
            // A worker that already exited (impossible in normal
            // operation) just yields a send error; ignore it.
            let _ = tx.send(Msg::Shutdown);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = ShardedExecutor::spawn(3);
        for num_tasks in [0usize, 1, 2, 3, 7, 100] {
            let hits: Vec<AtomicUsize> = (0..num_tasks).map(|_| AtomicUsize::new(0)).collect();
            let (stats, report) = pool.run_tasks(num_tasks, None, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
                (t as u64, 1)
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert_eq!(stats.len(), num_tasks);
            for (t, s) in stats.iter().enumerate() {
                assert_eq!(s.edges, t as u64, "stats landed at the wrong index");
            }
            assert_eq!(report.shards.len(), 3);
            let executed: u64 = report
                .shards
                .iter()
                .map(|s| s.tasks_run + s.tasks_stolen)
                .sum();
            assert_eq!(executed, num_tasks as u64);
        }
    }

    #[test]
    fn placement_stamps_sockets() {
        let pool = ShardedExecutor::spawn(2);
        let topo = NumaTopology::default();
        let (stats, _) = pool.run_tasks(96, Some(&topo), |_| (1, 1));
        let plan = topo.placement_plan(96);
        for (t, s) in stats.iter().enumerate() {
            assert_eq!(s.socket as usize, plan.socket_of(t));
        }
    }

    #[test]
    fn concurrent_fanouts_do_not_interfere() {
        let pool = ShardedExecutor::spawn(2);
        std::thread::scope(|scope| {
            for k in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for _ in 0..10 {
                        let (stats, _) = pool.run_tasks(17, None, |t| (t as u64 + k, 1));
                        for (t, s) in stats.iter().enumerate() {
                            assert_eq!(s.edges, t as u64 + k);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn stealing_covers_a_straggler_shard() {
        // Shard 0 owns one task that sleeps; shard 1's worker must steal
        // nothing (its own queue suffices), while shard 0's long task
        // forces shard 1 to finish the rest. With 2 shards over 64 tasks
        // where task 0 is slow, stolen tasks show up in the report.
        let pool = ShardedExecutor::spawn(2);
        let (_, report) = pool.run_tasks(64, None, |t| {
            if t == 1 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            (1, 1)
        });
        let done: u64 = report
            .shards
            .iter()
            .map(|s| s.tasks_run + s.tasks_stolen)
            .sum();
        assert_eq!(done, 64);
        // Occupancy is well-formed.
        for o in report.occupancy() {
            assert!((0.0..=1.5).contains(&o), "occupancy {o}");
        }
    }

    #[test]
    fn reentrant_fanout_runs_inline() {
        let pool = Arc::new(ShardedExecutor::spawn(2));
        let inner = Arc::new(AtomicUsize::new(0));
        let (inner2, pool2) = (inner.clone(), pool.clone());
        pool.fan_out(&move |_outer| {
            // A fan-out from inside a worker must not deadlock.
            pool2.fan_out(&|_inner_shard| {
                inner2.fetch_add(1, Ordering::Relaxed);
            });
        });
        // 2 outer shards x 2 inline inner shards.
        assert_eq!(inner.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn shard_order_is_ascending_within_a_shard() {
        let pool = ShardedExecutor::spawn(1);
        let seen = Mutex::new(Vec::new());
        let (_, report) = pool.run_tasks(50, None, |t| {
            seen.lock().unwrap().push(t);
            (0, 0)
        });
        // One shard, no stealing possible: strict ascending order, the
        // same order the sequential backend uses.
        assert_eq!(*seen.lock().unwrap(), (0..50).collect::<Vec<_>>());
        assert_eq!(report.total_stolen(), 0);
        let distinct: HashSet<u64> = report.shards.iter().map(|s| s.tasks_run).collect();
        assert_eq!(distinct, HashSet::from([50]));
    }
}
