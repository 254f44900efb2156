//! Deterministic intra-replication parallelism: per-core shards.
//!
//! [`par`](crate::par) fans independent *replications* across cores; a
//! single replication is still serial. This module shards the inside of
//! one run — the engine/queue state itself — into K per-core shards
//! while keeping every observable output **byte-identical at any shard
//! count** (the `--jobs` contract, one level down).
//!
//! The executor is [`run_epochs_local`], a conservative parallel
//! discrete-event simulation. Each shard's world is built, run and
//! consumed on its own thread, so worlds need not be `Send`. Each world
//! owns its state, RNG streams, scratch buffers and metric sinks (the
//! scale study's shard holds a demand worker; an event-driven world can
//! hold an [`EventQueue`](crate::queue::EventQueue) and drain it one
//! window at a time), and advances through virtual time in fixed
//! *epochs* separated by a barrier. Events destined for another
//! shard are staged in a per-`(src, dst)` [`Outbox`] lane and delivered
//! at the epoch boundary in `(epoch, src, seq)` order, so the
//! destination shard enqueues them identically however many shards the
//! sources were spread over. The scheme is correct when every
//! cross-shard event carries at least one epoch of lookahead (delay ≥
//! epoch width), the classic conservative-PDES constraint.
//!
//! A closed demand loop — each demand issued when the previous response
//! arrives, as in the paper's Tables 5–6 — has no such lookahead: its
//! RNG draws, float sums and clock advance in demand order, so it runs
//! as one serial loop and parallelises across replications with
//! [`par`](crate::par) instead.
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
use std::sync::{Barrier, Mutex};
use std::thread;

/// Shard count for [`run_epochs_local`].
///
/// One shard is the serial engine: no threads are spawned. The scale
/// study sweeps this count (`scalestudy --shards-list`).
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
/// Implementations own everything their shard touches: event queue or
/// demand worker, RNG streams, scratch buffers, metric/recorder sinks.
/// The runner only moves messages and decides when the whole fleet is
/// quiescent.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn shards_constructors() {
        assert_eq!(Shards::serial().get(), 1);
        assert_eq!(Shards::new(0).get(), 1);
        assert_eq!(Shards::new(6).get(), 6);
        assert_eq!(Shards::default().get(), 1);
        assert_eq!(Shards::new(4).owner_of(10), 2);
        assert_eq!(Shards::serial().owner_of(10), 0);
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
        queue: EventQueue<Hop>,
        log: Vec<(u64, u64)>,
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
                self.queue.push(hop.due, hop);
            }
            while self.queue.peek_time().is_some_and(|due| due < window_end) {
                let (now, hop) = self.queue.pop().expect("peeked event is poppable");
                self.log.push((now.as_secs() as u64, hop.id));
                if hop.ttl == 0 {
                    continue;
                }
                let next_id = (hop.id + 3) % self.entities;
                let next = Hop {
                    due: now + SimDuration::from_secs(EPOCH_SECS),
                    id: next_id,
                    ttl: hop.ttl - 1,
                };
                let owner = self.shards.owner_of(next_id);
                if owner == self.shard {
                    self.queue.push(next.due, next);
                } else {
                    outbox.send(owner, next);
                }
            }
            !self.queue.is_empty()
        }
    }

    fn run_ring(k: usize) -> Vec<(u64, u64)> {
        let shards = Shards::new(k);
        let entities = 10u64;
        let (logs, epochs) = run_epochs_local(
            shards,
            |shard| {
                let mut world = RingShard {
                    shard,
                    shards,
                    entities,
                    queue: EventQueue::new(),
                    log: Vec::new(),
                };
                // Seed: every entity starts one token at t = 0.5 with
                // ttl 20, on the shard that owns it.
                for id in (0..entities).filter(|&id| shards.owner_of(id) == shard) {
                    let hop = Hop {
                        due: SimTime::from_secs(0.5),
                        id,
                        ttl: 20,
                    };
                    world.queue.push(hop.due, hop);
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
