//! Deterministic intra-replication parallelism: per-core shards.
//!
//! [`par`](crate::par) fans independent *replications* across cores; a
//! single replication is still serial. This module shards the inside of
//! one run — the engine/queue state itself — into K per-core shards
//! while keeping every observable output **byte-identical at any shard
//! count** (the `--jobs` contract, one level down).
//!
//! Two executors are provided, matching the two shapes of hot loop in
//! this workspace:
//!
//! 1. [`run_epochs_local`] — conservative parallel discrete-event
//!    simulation. Each shard's world is built, run and consumed on its
//!    own thread, so worlds need not be `Send`. Each shard owns a
//!    private calendar queue (via
//!    [`Engine::run_window`](crate::engine::Engine::run_window)), RNG
//!    streams, scratch buffers and metric sinks, and advances through
//!    virtual time in fixed *epochs* (windows one calendar-bucket wide
//!    by convention) separated by a barrier. Events destined for
//!    another shard are staged in a per-`(src, dst)` [`Outbox`] lane
//!    and delivered at the epoch boundary in `(epoch, src, seq)` order,
//!    so the destination shard enqueues them identically however many
//!    shards the sources were spread over. The scheme is correct when
//!    every cross-shard event carries at least one epoch of lookahead
//!    (delay ≥ epoch width), the classic conservative-PDES constraint.
//!
//! 2. [`shard_pipeline`] — prepare/commit two-phase execution for the
//!    closed demand loop. Demands are hash-partitioned by demand id
//!    (`id % K`); workers run the RNG-free *prepare* phase in parallel
//!    while a single committer replays RNG draws, float accumulation
//!    and trace emission **in demand-id order**, so the sequential
//!    streams (middleware RNG, monitor RNG, `Summary` sums) see the
//!    exact same draw/accumulate order as a serial run.
//!
//! # Determinism contract
//!
//! For any shard counts `a` and `b`, the same world partitioned `a`
//! ways and `b` ways produces identical merged tables, `.prom`
//! snapshots and JSONL traces, provided each logical entity derives its
//! randomness from its own stable id (e.g.
//! [`MasterSeed::indexed_stream`](crate::rng::MasterSeed::indexed_stream))
//! and cross-shard sends respect the lookahead constraint. Thread
//! scheduling affects wall-clock only.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::thread;

use crate::rng::{MasterSeed, StreamRng};

/// Shard count for intra-replication parallelism.
///
/// The knob mirrors [`Jobs`](crate::par::Jobs): `--shards 1` is the
/// serial engine, `--shards 0`/unset means one shard per hardware
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shards(NonZeroUsize);

impl Shards {
    /// Exactly one shard: the serial engine, no threads spawned.
    pub const fn serial() -> Shards {
        Shards(NonZeroUsize::MIN)
    }

    /// `n` shards; `0` is clamped to 1.
    pub fn new(n: usize) -> Shards {
        Shards(NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN))
    }

    /// One shard per available hardware thread (the `--shards` default
    /// when a bare `--shards` is given).
    pub fn auto() -> Shards {
        Shards(thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// `Some(n)` → `n` shards (0 clamped to 1); `None` → [`Shards::serial`].
    ///
    /// Unlike [`Jobs`](crate::par::Jobs), the unset default is *serial*:
    /// sharding changes which thread touches which cache lines, so it
    /// is opt-in per invocation.
    pub fn from_request(requested: Option<usize>) -> Shards {
        match requested {
            Some(0) => Shards::auto(),
            Some(n) => Shards::new(n),
            None => Shards::serial(),
        }
    }

    /// The shard count.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// The shard that owns logical entity `id` under the workspace's
    /// hash partition (`id % K`). Demands, consumers and fleet members
    /// are all partitioned this way so ownership is derivable from the
    /// id alone, on any shard, without a directory.
    pub fn owner_of(self, id: u64) -> usize {
        (id % self.get() as u64) as usize
    }
}

impl Default for Shards {
    /// Defaults to [`Shards::serial`].
    fn default() -> Shards {
        Shards::serial()
    }
}

/// The per-shard RNG stream named by the sharding convention:
/// `MasterSeed::indexed_stream("shard", k)`. Use it only for
/// shard-local scratch randomness that never reaches an output; any
/// draw that affects output must come from an entity-id-derived stream
/// or the output would depend on the partition.
pub fn shard_stream(seed: &MasterSeed, shard: usize) -> StreamRng {
    seed.indexed_stream("shard", shard as u64)
}

/// Cross-shard messages staged by one shard during one epoch.
///
/// One FIFO lane per destination; the epoch runner concatenates lanes
/// addressed to each destination in source-shard order, so delivery is
/// in `(epoch, src, seq)` order — independent of thread scheduling.
#[derive(Debug)]
pub struct Outbox<M> {
    lanes: Vec<Vec<M>>,
}

impl<M> Outbox<M> {
    /// An outbox with one empty lane per destination shard.
    pub fn new(shards: usize) -> Outbox<M> {
        Outbox {
            lanes: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Stages `msg` for delivery to shard `dst` at the next epoch
    /// boundary. Messages to the same destination keep FIFO order.
    pub fn send(&mut self, dst: usize, msg: M) {
        self.lanes[dst].push(msg);
    }

    /// Number of destination shards.
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// Total messages staged across all lanes.
    pub fn staged(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    fn take_lanes(&mut self) -> Vec<Vec<M>> {
        std::mem::take(&mut self.lanes)
    }
}

/// One shard of an epoch-synchronized world.
///
/// Implementations own everything their shard touches: calendar queue,
/// RNG streams, scratch buffers, metric/recorder sinks. The runner only
/// moves messages and decides when the whole fleet is quiescent.
pub trait ShardWorld {
    /// A cross-shard event. Must carry an absolute due time with at
    /// least one epoch of lookahead; the receiving shard enqueues it
    /// before running the next window.
    type Msg: Send;

    /// Advances this shard through epoch `epoch` (the shard maps epoch
    /// index to its virtual-time window). `inbox` holds messages staged
    /// for this shard during the previous epoch, already in
    /// `(src, seq)` order; `outbox` stages messages for other shards
    /// (sending to your own shard index is allowed and delivers next
    /// epoch like any other lane). Returns `true` while this shard
    /// still has pending local work.
    fn epoch(
        &mut self,
        epoch: u64,
        inbox: Vec<(usize, Self::Msg)>,
        outbox: &mut Outbox<Self::Msg>,
    ) -> bool;
}

/// What one shard deposits at the barrier each epoch.
struct EpochPost<M> {
    lanes: Vec<Vec<M>>,
    pending: bool,
}

/// Runs one world per shard to global quiescence under the epoch
/// barrier.
///
/// `build(shard)` constructs shard `shard`'s world *on the thread that
/// will run it*, and `finish(shard, world)` consumes the world there
/// once the fleet is quiescent, returning a `Send` summary. Because the
/// world itself never changes threads, `W` needs no `Send` bound — this
/// is the blueprint idiom (`ServeSpec::worker`) applied to the epoch
/// runner, and it is how middleware worlds (whose endpoints hand out
/// `Rc`-pooled envelopes) shard across cores.
///
/// Each epoch: all shards run [`ShardWorld::epoch`] concurrently, hit a
/// barrier, the barrier leader redistributes every staged lane to its
/// destination inbox (in source order, preserving per-lane FIFO — the
/// `(epoch, src, seq)` drain order), and checks termination: the run
/// ends after an epoch in which no shard has pending work and no
/// message was staged.
///
/// Returns the per-shard summaries in shard order plus the number of
/// epochs executed. With one shard everything runs inline on the
/// calling thread — byte-for-byte the serial engine.
///
/// # Panics
///
/// Propagates a panic from any shard (the scope joins all workers).
pub fn run_epochs_local<W, F, G, R>(shards: Shards, build: F, finish: G) -> (Vec<R>, u64)
where
    W: ShardWorld,
    F: Fn(usize) -> W + Sync,
    G: Fn(usize, W) -> R + Sync,
    R: Send,
{
    let k = shards.get();
    if k == 1 {
        let mut world = build(0);
        let mut inbox: Vec<(usize, W::Msg)> = Vec::new();
        let mut epoch = 0u64;
        loop {
            let mut outbox = Outbox::new(1);
            let pending = world.epoch(epoch, std::mem::take(&mut inbox), &mut outbox);
            let mut lanes = outbox.take_lanes();
            inbox = lanes.remove(0).into_iter().map(|m| (0usize, m)).collect();
            epoch += 1;
            if !pending && inbox.is_empty() {
                return (vec![finish(0, world)], epoch);
            }
        }
    }

    type Inbox<M> = Mutex<Vec<(usize, M)>>;
    let posts: Vec<Mutex<Option<EpochPost<W::Msg>>>> = (0..k).map(|_| Mutex::new(None)).collect();
    let inboxes: Vec<Inbox<W::Msg>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();
    let results: Vec<Mutex<Option<R>>> = (0..k).map(|_| Mutex::new(None)).collect();
    let barrier = Barrier::new(k);
    let stop = AtomicBool::new(false);
    let epochs = Mutex::new(0u64);

    thread::scope(|scope| {
        for shard in 0..k {
            let posts = &posts;
            let inboxes = &inboxes;
            let results = &results;
            let barrier = &barrier;
            let stop = &stop;
            let epochs = &epochs;
            let build = &build;
            let finish = &finish;
            scope.spawn(move || {
                let mut world = build(shard);
                let mut epoch = 0u64;
                loop {
                    let inbox = std::mem::take(&mut *inboxes[shard].lock().expect("inbox lock"));
                    let mut outbox = Outbox::new(k);
                    let pending = world.epoch(epoch, inbox, &mut outbox);
                    *posts[shard].lock().expect("post lock") = Some(EpochPost {
                        lanes: outbox.take_lanes(),
                        pending,
                    });
                    epoch += 1;
                    if barrier.wait().is_leader() {
                        // Redistribute: destination inboxes are filled in
                        // source order, each lane FIFO — (epoch, src, seq).
                        let mut any_pending = false;
                        let mut any_message = false;
                        for (src, slot) in posts.iter().enumerate() {
                            let post = slot
                                .lock()
                                .expect("post lock")
                                .take()
                                .expect("every shard posted this epoch");
                            any_pending |= post.pending;
                            for (dst, lane) in post.lanes.into_iter().enumerate() {
                                if lane.is_empty() {
                                    continue;
                                }
                                any_message = true;
                                inboxes[dst]
                                    .lock()
                                    .expect("inbox lock")
                                    .extend(lane.into_iter().map(|m| (src, m)));
                            }
                        }
                        stop.store(!any_pending && !any_message, Ordering::Release);
                        *epochs.lock().expect("epoch counter") = epoch;
                    }
                    // Second barrier: nobody starts the next epoch (or
                    // exits) until the leader finished redistributing.
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                *results[shard].lock().expect("result slot") = Some(finish(shard, world));
            });
        }
    });
    let total = *epochs.lock().expect("epoch counter");
    let out = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result lock")
                .expect("every shard deposited a summary")
        })
        .collect();
    (out, total)
}

/// Bounded lookahead of the prepare/commit pipeline: how far (in
/// demand ids) workers may run ahead of the committer. Large enough to
/// hide commit latency, small enough to bound memory.
const PIPELINE_WINDOW: usize = 256;

/// Slot ring shared between prepare workers and the committer.
struct Ring<P> {
    slots: Vec<Option<P>>,
    /// Items `0..committed` have been handed to the committer.
    committed: usize,
    /// Prepare workers still running.
    workers: usize,
    /// Set when the committer is gone (normally or by panic) so
    /// workers never block on a dead consumer.
    aborted: bool,
}

/// Decrements the live-worker count on scope exit — including panic —
/// so the committer can distinguish "not yet prepared" from "never
/// coming" instead of deadlocking.
struct WorkerGuard<'a, P> {
    ring: &'a Mutex<Ring<P>>,
    filled: &'a Condvar,
}

impl<P> Drop for WorkerGuard<'_, P> {
    fn drop(&mut self) {
        let mut g = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        g.workers -= 1;
        drop(g);
        self.filled.notify_all();
    }
}

/// Unblocks prepare workers when the committer exits — normally or by
/// panic — so a failing `commit` propagates instead of deadlocking.
struct CommitterGuard<'a, P> {
    ring: &'a Mutex<Ring<P>>,
    drained: &'a Condvar,
}

impl<P> Drop for CommitterGuard<'_, P> {
    fn drop(&mut self) {
        let mut g = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        g.aborted = true;
        drop(g);
        self.drained.notify_all();
    }
}

/// Two-phase prepare/commit execution of `count` items on `shards`
/// workers, committing strictly in item order.
///
/// `prepare(i)` runs in parallel — items are hash-partitioned across
/// workers by `i % K`, the same partition [`Shards::owner_of`] gives
/// for demand ids — and must be deterministic in `i` and immutable
/// captures (in the middleware loop: everything *except* the RNG draws,
/// which live in commit). `commit(i, prepared)` runs on the calling
/// thread for `i = 0, 1, …, count-1` in exactly that order, so
/// sequential state (RNG streams, float accumulators, trace writers)
/// observes the same history as a serial run. Workers run at most
/// [`PIPELINE_WINDOW`] items ahead of the committer.
///
/// With one shard (or fewer than two items) everything runs inline:
/// `commit(i, prepare(i))` in a plain loop — the serial engine.
///
/// # Panics
///
/// Propagates a panic from `prepare` or `commit` (no deadlock: each
/// side detects the other's death).
pub fn shard_pipeline<P, F, C>(shards: Shards, count: usize, prepare: F, mut commit: C)
where
    P: Send,
    F: Fn(usize) -> P + Sync,
    C: FnMut(usize, P),
{
    let k = shards.get();
    if k <= 1 || count <= 1 {
        for i in 0..count {
            commit(i, prepare(i));
        }
        return;
    }
    let ring = Mutex::new(Ring {
        slots: (0..PIPELINE_WINDOW).map(|_| None).collect(),
        committed: 0,
        workers: k,
        aborted: false,
    });
    let filled = Condvar::new();
    let drained = Condvar::new();
    thread::scope(|scope| {
        for w in 0..k {
            let ring = &ring;
            let filled = &filled;
            let drained = &drained;
            let prepare = &prepare;
            scope.spawn(move || {
                let _guard = WorkerGuard { ring, filled };
                let mut i = w;
                while i < count {
                    let item = prepare(i);
                    let mut g = ring.lock().expect("pipeline ring");
                    while !g.aborted && i >= g.committed + PIPELINE_WINDOW {
                        g = drained.wait(g).expect("pipeline ring");
                    }
                    if g.aborted {
                        return;
                    }
                    g.slots[i % PIPELINE_WINDOW] = Some(item);
                    drop(g);
                    filled.notify_all();
                    i += k;
                }
            });
        }
        // The committer runs here on the calling thread, inside the
        // scope, concurrently with the workers it feeds from.
        let _guard = CommitterGuard {
            ring: &ring,
            drained: &drained,
        };
        for i in 0..count {
            let mut g = ring.lock().expect("pipeline ring");
            let item = loop {
                if let Some(item) = g.slots[i % PIPELINE_WINDOW].take() {
                    break item;
                }
                assert!(
                    g.workers > 0,
                    "prepare worker for item {i} died before filling its slot"
                );
                g = filled.wait(g).expect("pipeline ring");
            };
            g.committed = i + 1;
            drop(g);
            drained.notify_all();
            commit(i, item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Handler};
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn shards_constructors() {
        assert_eq!(Shards::serial().get(), 1);
        assert_eq!(Shards::new(0).get(), 1);
        assert_eq!(Shards::new(6).get(), 6);
        assert_eq!(Shards::from_request(Some(3)).get(), 3);
        assert_eq!(Shards::from_request(None).get(), 1);
        assert!(Shards::from_request(Some(0)).get() >= 1);
        assert_eq!(Shards::default().get(), 1);
        assert!(Shards::auto().get() >= 1);
        assert_eq!(Shards::new(4).owner_of(10), 2);
        assert_eq!(Shards::serial().owner_of(10), 0);
    }

    #[test]
    fn shard_stream_matches_indexed_stream() {
        let seed = MasterSeed::new(9);
        assert_eq!(
            shard_stream(&seed, 3).next_u64(),
            seed.indexed_stream("shard", 3).next_u64()
        );
    }

    #[test]
    fn outbox_lanes_keep_fifo() {
        let mut outbox: Outbox<u32> = Outbox::new(2);
        outbox.send(1, 10);
        outbox.send(0, 20);
        outbox.send(1, 30);
        assert_eq!(outbox.shards(), 2);
        assert_eq!(outbox.staged(), 3);
        let lanes = outbox.take_lanes();
        assert_eq!(lanes, vec![vec![20], vec![10, 30]]);
    }

    #[test]
    fn pipeline_commits_in_order_for_any_shard_count() {
        let serial: Vec<(usize, u64)> = {
            let mut out = Vec::new();
            shard_pipeline(
                Shards::serial(),
                500,
                |i| (i as u64).wrapping_mul(0x9E37_79B9),
                |i, p| out.push((i, p)),
            );
            out
        };
        for k in [2, 3, 4, 8] {
            let mut out = Vec::new();
            shard_pipeline(
                Shards::new(k),
                500,
                |i| (i as u64).wrapping_mul(0x9E37_79B9),
                |i, p| out.push((i, p)),
            );
            assert_eq!(out, serial, "shards {k}");
        }
    }

    #[test]
    fn pipeline_sequential_commit_state_is_partition_independent() {
        // The committer threads a sequential RNG through the commits —
        // exactly the middleware/monitor stream shape. Identical draws
        // at any K proves the draw order is partition-independent.
        let run = |k: usize| {
            let seed = MasterSeed::new(77);
            let mut rng = seed.stream("commit");
            let mut acc = Vec::new();
            shard_pipeline(
                Shards::new(k),
                300,
                |i| i as u64 + 1,
                |_, p| acc.push(rng.next_below(p)),
            );
            acc
        };
        let serial = run(1);
        for k in [2, 4, 8] {
            assert_eq!(run(k), serial, "shards {k}");
        }
    }

    #[test]
    fn pipeline_handles_tiny_and_empty_counts() {
        let mut out = Vec::new();
        shard_pipeline(Shards::new(4), 0, |i| i, |i, p| out.push((i, p)));
        assert!(out.is_empty());
        shard_pipeline(Shards::new(4), 1, |i| i + 7, |i, p| out.push((i, p)));
        assert_eq!(out, vec![(0, 7)]);
        // More shards than items.
        out.clear();
        shard_pipeline(Shards::new(16), 3, |i| i, |i, p| out.push((i, p)));
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn pipeline_wraps_the_window_many_times() {
        let count = PIPELINE_WINDOW * 5 + 13;
        let mut sum = 0u64;
        let mut last = None;
        shard_pipeline(
            Shards::new(3),
            count,
            |i| i as u64,
            |i, p| {
                assert_eq!(i as u64, p);
                assert_eq!(last.map_or(0, |l: usize| l + 1), i, "order");
                last = Some(i);
                sum += p;
            },
        );
        assert_eq!(sum, (count as u64 - 1) * count as u64 / 2);
    }

    #[test]
    fn pipeline_prepare_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            shard_pipeline(
                Shards::new(2),
                64,
                |i| {
                    if i == 33 {
                        panic!("prepare 33 exploded");
                    }
                    i
                },
                |_, _| {},
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn pipeline_commit_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            shard_pipeline(
                Shards::new(4),
                10_000,
                |i| i,
                |i, _| {
                    if i == 5 {
                        panic!("commit 5 exploded");
                    }
                },
            )
        });
        assert!(result.is_err());
    }

    /// A ring of logical counters hash-partitioned across shards. Each
    /// hop event bumps a counter and forwards to `(id + 3) % N` one
    /// epoch later (the lookahead constraint), logging `(time, id)`.
    /// The merged, sorted logs must be identical for every K.
    const EPOCH_SECS: f64 = 1.0;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Hop {
        due: SimTime,
        id: u64,
        ttl: u32,
    }

    struct RingShard {
        shard: usize,
        shards: Shards,
        entities: u64,
        engine: Engine<Hop>,
        log: Vec<(u64, u64)>,
        staged: Vec<Hop>,
    }

    impl RingShard {
        fn new(shard: usize, shards: Shards, entities: u64) -> RingShard {
            RingShard {
                shard,
                shards,
                entities,
                engine: Engine::new(),
                log: Vec::new(),
                staged: Vec::new(),
            }
        }
    }

    struct HopWorld<'a> {
        shard: usize,
        shards: Shards,
        entities: u64,
        log: &'a mut Vec<(u64, u64)>,
        staged: &'a mut Vec<Hop>,
    }

    impl Handler<Hop> for HopWorld<'_> {
        fn handle(&mut self, engine: &mut Engine<Hop>, hop: Hop) {
            self.log.push((engine.now().as_secs() as u64, hop.id));
            if hop.ttl == 0 {
                return;
            }
            let next_id = (hop.id + 3) % self.entities;
            let next = Hop {
                due: engine.now() + SimDuration::from_secs(EPOCH_SECS),
                id: next_id,
                ttl: hop.ttl - 1,
            };
            if self.shards.owner_of(next_id) == self.shard {
                engine.schedule_at(next.due, next);
            } else {
                self.staged.push(next);
            }
        }
    }

    impl ShardWorld for RingShard {
        type Msg = Hop;

        fn epoch(
            &mut self,
            epoch: u64,
            inbox: Vec<(usize, Hop)>,
            outbox: &mut Outbox<Hop>,
        ) -> bool {
            let window_end = SimTime::from_secs((epoch + 1) as f64 * EPOCH_SECS);
            for (_src, hop) in inbox {
                self.engine.schedule_at(hop.due, hop);
            }
            let mut world = HopWorld {
                shard: self.shard,
                shards: self.shards,
                entities: self.entities,
                log: &mut self.log,
                staged: &mut self.staged,
            };
            self.engine.run_window(window_end, &mut world);
            for hop in self.staged.drain(..) {
                outbox.send(self.shards.owner_of(hop.id), hop);
            }
            self.engine.pending() > 0
        }
    }

    fn run_ring(k: usize) -> Vec<(u64, u64)> {
        let shards = Shards::new(k);
        let entities = 10u64;
        let (logs, epochs) = run_epochs_local(
            shards,
            |shard| {
                let mut world = RingShard::new(shard, shards, entities);
                // Seed: every entity starts one token at t = 0.5 with
                // ttl 20, on the shard that owns it.
                for id in (0..entities).filter(|&id| shards.owner_of(id) == shard) {
                    let hop = Hop {
                        due: SimTime::from_secs(0.5),
                        id,
                        ttl: 20,
                    };
                    world.engine.schedule_at(hop.due, hop);
                }
                world
            },
            |_, world| world.log,
        );
        assert!(epochs >= 20, "token ttl spans at least 20 epochs");
        let mut log: Vec<(u64, u64)> = logs.into_iter().flatten().collect();
        log.sort_unstable();
        log
    }

    #[test]
    fn epoch_runner_is_shard_count_invariant() {
        let serial = run_ring(1);
        assert_eq!(serial.len(), 10 * 21);
        for k in [2, 3, 4, 8] {
            assert_eq!(run_ring(k), serial, "shards {k}");
        }
    }

    #[test]
    fn epoch_inbox_is_in_src_seq_order() {
        // Two sender shards both message shard 0; its inbox must list
        // shard-0-sourced messages first, each lane FIFO.
        struct Sender {
            shard: usize,
            seen: Vec<(usize, u32)>,
            rounds: u32,
        }
        impl ShardWorld for Sender {
            type Msg = u32;
            fn epoch(
                &mut self,
                epoch: u64,
                inbox: Vec<(usize, u32)>,
                outbox: &mut Outbox<u32>,
            ) -> bool {
                self.seen.extend(inbox);
                if epoch == 0 {
                    outbox.send(0, (self.shard as u32) * 10);
                    outbox.send(0, (self.shard as u32) * 10 + 1);
                }
                self.rounds += 1;
                false
            }
        }
        let (seen, _) = run_epochs_local(
            Shards::new(3),
            |shard| Sender {
                shard,
                seen: Vec::new(),
                rounds: 0,
            },
            |_, world| world.seen,
        );
        assert_eq!(
            seen[0],
            vec![(0, 0), (0, 1), (1, 10), (1, 11), (2, 20), (2, 21)]
        );
        assert!(seen[1].is_empty());
    }

    /// The whole point of `run_epochs_local`: worlds holding non-`Send`
    /// state (here an `Rc`, like the middleware's pooled envelopes) can
    /// still shard, because each world is built, run and consumed on
    /// its own thread. Summaries come back in shard order.
    #[test]
    fn local_runner_shards_non_send_worlds() {
        use std::rc::Rc;

        struct RcWorld {
            shard: usize,
            tally: Rc<std::cell::Cell<u64>>,
        }
        impl ShardWorld for RcWorld {
            type Msg = u64;
            fn epoch(
                &mut self,
                epoch: u64,
                inbox: Vec<(usize, u64)>,
                outbox: &mut Outbox<u64>,
            ) -> bool {
                for (_src, m) in inbox {
                    self.tally.set(self.tally.get() + m);
                }
                if epoch == 0 {
                    // Everyone chips in to shard 0's tally next epoch.
                    outbox.send(0, self.shard as u64 + 1);
                }
                false
            }
        }

        let (sums, epochs) = run_epochs_local(
            Shards::new(4),
            |shard| RcWorld {
                shard,
                tally: Rc::new(std::cell::Cell::new(100 * shard as u64)),
            },
            |shard, world| (shard, world.tally.get()),
        );
        assert!(epochs >= 2);
        assert_eq!(sums, vec![(0, 1 + 2 + 3 + 4), (1, 100), (2, 200), (3, 300)]);
    }

    #[test]
    fn single_shard_self_send_delivers_next_epoch() {
        struct SelfSend {
            got: Vec<u64>,
        }
        impl ShardWorld for SelfSend {
            type Msg = u64;
            fn epoch(
                &mut self,
                epoch: u64,
                inbox: Vec<(usize, u64)>,
                outbox: &mut Outbox<u64>,
            ) -> bool {
                for (src, m) in inbox {
                    assert_eq!(src, 0);
                    self.got.push(m);
                }
                if epoch < 3 {
                    outbox.send(0, epoch);
                }
                false
            }
        }
        let (got, epochs) = run_epochs_local(
            Shards::serial(),
            |_| SelfSend { got: Vec::new() },
            |_, world| world.got,
        );
        assert_eq!(got, vec![vec![0, 1, 2]]);
        assert!(epochs >= 4);
    }
}
