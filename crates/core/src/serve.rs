//! The multi-stream server runtime: a sharded pool of distillation workers.
//!
//! The paper evaluates one client per server, but the server is the shared,
//! expensive side of the system. This module turns the single-stream
//! [`crate::server::ServerState`] into a multi-tenant service:
//!
//! * [`ServeShard`] owns one teacher and one [`DistillSession`] per client
//!   stream assigned to it. Key frames from different streams that arrive
//!   close together are *co-scheduled*: the teacher labels them in one
//!   batched forward pass ([`st_teacher::Teacher::pseudo_label_batch`]) whose
//!   virtual cost is amortized across the batch, and then each stream's
//!   session distills its own student on its own pseudo-label. Streams never
//!   share weights — isolation is structural.
//! * [`ServerPool`] hosts every shard's state machine on a fixed set of
//!   event-driven reactor threads (one per shard unless
//!   [`PoolConfig::reactor_threads`] says otherwise), places streams on
//!   shards per [`PlacementPolicy`] (least-loaded by default, static
//!   `id % shards` for reproducibility), and funnels each client's uplink
//!   into the owning shard's queue as [`st_net::StreamTagged`] traffic.
//!   Clients talk to the pool through [`StreamClient`], which implements the
//!   same [`st_net::ClientEndpoint`] surface as the single-stream transport,
//!   so the client-side state machine is byte-for-byte the one Algorithm 4
//!   uses.
//!
//! The pool does **not** trust clients to be well behaved. Three mechanisms
//! keep a hot stream from starving its shard-mates:
//!
//! * **Fair batching** — arriving key frames land in per-stream FIFO queues
//!   and are drained by deficit round-robin ([`FairScheduler`]): every
//!   co-scheduled teacher batch takes at most `quantum` jobs per stream per
//!   round, so batch slots are shared even when one stream has a deep
//!   backlog.
//! * **Admission control** — each stream may have at most `max_in_flight`
//!   key frames queued; excess arrivals are rejected immediately with
//!   [`st_net::ServerToClient::Throttle`], which the client answers by
//!   serving the frame with its local (slightly stale) student — the
//!   fallback the paper's partial/full modes make natural.
//! * **Adaptive co-scheduling** — the batching window grows and shrinks with
//!   the observed backlog ([`AdaptiveBatch`]) instead of sitting at the
//!   static `max_batch`, bounded above by it, and growth stops when the
//!   teacher's marginal batched-inference cost no longer amortizes. Every
//!   batched teacher forward is wall-clock timed ([`TeacherCostProfile`]),
//!   so once real data exists the growth decision runs on *measured*
//!   marginal cost and only falls back to the virtual latency model before
//!   that (or when forwards are too fast to time).
//!
//! Since PR 5 the pool is also **elastic**: placement is no longer final.
//!
//! * **Work stealing** — under [`PlacementPolicy::Rebalance`] an idle shard
//!   steals whole streams (session, frame cache, queued DRR turns and all)
//!   from the most-loaded shard through a shared `StealRegistry`. The victim
//!   hands the stream off between batches, so a migrating
//!   [`DistillSession`] is always quiescent; queued jobs keep their original
//!   arrival timestamps (wait accounting survives the move) and admission
//!   control keeps counting the stream's in-flight jobs at its new home.
//!   `StaticModulo` and `LeastLoaded` pools never migrate, so existing
//!   reproductions stay bit-deterministic.
//! * **Bounded frame memory** — each stream's pre-shared frames live in a
//!   [`FrameStore`], an LRU cache with a configurable per-stream byte budget
//!   ([`PoolConfig::frame_budget_bytes`]). When a key-frame job needs an
//!   evicted frame the job is parked (not dropped) and the client is asked
//!   to re-upload it ([`st_net::ServerToClient::NeedFrame`] →
//!   [`st_net::ClientToServer::ReShare`], answered through
//!   [`StreamClient::reshare`]), trading memory for uplink bandwidth.
//!
//! The pool reports [`PoolStats`]: per-shard queueing/batching/latency
//! counters plus per-stream key-frame totals, waits, throttles, drops,
//! steals, evictions, measured teacher wall time and final server-side
//! checkpoints, which the contention experiments compare against the
//! analytic [`st_sim::ContentionModel`]. [`PoolStats::snapshot`] condenses
//! all of it into the serializable [`crate::report::PoolReport`] operators
//! can export.

use crate::config::{PlacementPolicy, ShadowTutorConfig};
pub use crate::server::StreamServerStats;
use crate::server::{DistillSession, KeyFrameResponse};
use crate::steal::{FulfilOutcome, RequestReview, StealCore, MIN_STEAL_BACKLOG};
use crate::timer::TimerWheel;
use crate::Result;
use bytes::Bytes;
use st_net::message::MESSAGE_OVERHEAD_BYTES;
use st_net::transport::ClientEndpoint;
use st_net::{
    ClientToServer, DropReason, Payload, ServerToClient, StreamId, StreamTagged, TransportError,
    Wire,
};
use st_nn::delta::{CheckpointDigest, WeightDelta, WeightPayload};
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::store::{CheckpointRef, InternStats, SessionMemory, WeightStore};
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_tensor::TensorError;
use st_video::Frame;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Lock a shared map, recovering the data if a worker panicked while
/// holding the lock: the pool's shared state must stay usable for the
/// surviving workers and the final join-side accounting, and every guard
/// in this file restores its invariants before dropping.
fn locked<T: ?Sized>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A deterministic fault-injection schedule for chaos testing the pool.
///
/// Faults are injected at well-defined points of the shard state machine —
/// a *kill* is a plain `panic!` raised inside
/// `ShardState::process_one_batch`, so a crash is reproducible from a
/// config value instead of requiring unsafe thread murder. The reactor
/// catches the unwind per pass, so the hosting thread keeps serving its
/// other shards while the standby adopts the carcass. `FaultPlan::none()`
/// (the default) injects nothing and costs one branch per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Tags the schedule so a chaos run is pinnable and reportable (CI pins
    /// it the way `ST_CHECK_SEED` pins the model checker); also folded into
    /// the injected panic message.
    pub seed: u64,
    /// The shard every fault in this plan targets. `None` disables the
    /// plan entirely.
    pub target: Option<usize>,
    /// Kill the target with a panic at the start of its first co-scheduled
    /// batch once it has completed this many teacher batches (`Some(0)` =
    /// the first non-empty batch). `None` never kills.
    pub kill_at_batch: Option<u64>,
    /// Tear the kill: fire *after* the batch's jobs were drained from the
    /// fair scheduler, so the in-flight batch is genuinely lost and the
    /// standby must drop-ack it with [`DropReason::ShardFailed`]. A clean
    /// kill (the default) fires before the drain; every queued job
    /// survives in the carcass and is re-queued by the adopter.
    pub torn_kill: bool,
    /// Defer the target's first N steal-mailbox drains by one pass each —
    /// a deterministic delivery-delay fault for migration-race testing.
    pub defer_mailbox: u32,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            target: None,
            kill_at_batch: None,
            torn_kill: false,
            defer_mailbox: 0,
        }
    }

    /// Kill `shard` at the start of its first non-empty batch after
    /// `at_batch` completed teacher batches.
    pub fn kill(seed: u64, shard: usize, at_batch: u64) -> Self {
        FaultPlan {
            seed,
            target: Some(shard),
            kill_at_batch: Some(at_batch),
            torn_kill: false,
            defer_mailbox: 0,
        }
    }

    /// Make the kill torn (fires after the batch drain; the in-flight jobs
    /// are lost and must be drop-acked by the standby).
    pub fn torn(mut self) -> Self {
        self.torn_kill = true;
        self
    }

    /// Whether this plan kills `shard` once it has run `batches` teacher
    /// batches.
    fn kill_due(&self, shard: usize, batches: usize) -> bool {
        self.target == Some(shard) && self.kill_at_batch.is_some_and(|at| batches as u64 >= at)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// How a shard materializes each stream's student weights from the shared
/// pretrained template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionWeights {
    /// Clone the template copy-on-write: parameter storage is shared until
    /// the optimizer (or a restore) first writes a stage, so the frozen
    /// front-end of a partial-distillation session costs its bytes once per
    /// shard, not once per stream. Bit-identical to a deep clone — the
    /// differential e2e suite asserts it.
    #[default]
    CopyOnWrite,
    /// Eagerly copy every tensor (the pre-PR-10 behaviour): full memory
    /// price per session. Kept as the A/B baseline for the differential
    /// tests and the `table13_weight_dedup` bench.
    DeepClone,
}

/// Configuration of a [`ServerPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Number of shards (independent shard state machines, each with its
    /// own teacher and uplink queue).
    pub shards: usize,
    /// Ceiling on key frames co-scheduled into one batched teacher forward.
    /// With `adaptive_batch` the live window starts at 1 and moves with the
    /// backlog, never exceeding this.
    pub max_batch: usize,
    /// How new streams are assigned to shards.
    pub placement: PlacementPolicy,
    /// Per-stream admission cap: at most this many key frames of one stream
    /// may be queued at its shard; excess arrivals are answered with
    /// [`ServerToClient::Throttle`] instead of being queued.
    pub max_in_flight: usize,
    /// Deficit-round-robin quantum: key frames one stream may contribute to
    /// a co-scheduled batch per scheduling round.
    pub quantum: usize,
    /// Adapt the co-scheduling window to the observed backlog instead of
    /// always draining up to `max_batch`.
    pub adaptive_batch: bool,
    /// Per-stream frame-cache byte budget. Every stream's pre-shared frames
    /// live in an LRU [`FrameStore`]; once a stream's resident frames exceed
    /// this many bytes the least-recently-used ones are evicted and
    /// re-requested on demand ([`ServerToClient::NeedFrame`]). `None` keeps
    /// every frame resident for the stream's lifetime (the pre-PR-5
    /// behaviour).
    pub frame_budget_bytes: Option<usize>,
    /// How often an idle worker re-checks the steal registry (and its
    /// migration mailbox) when work stealing is enabled
    /// ([`PlacementPolicy::Rebalance`]). Bounds how long an idle shard can
    /// overlook a drowning one; ignored by non-stealing pools.
    pub steal_poll: Duration,
    /// How long a worker must sit continuously idle (no queued jobs) before
    /// it posts a steal request. A shard merely between its own streams'
    /// arrivals should serve them itself; only a genuinely idle shard
    /// should pull another shard's streams over.
    pub steal_patience: Duration,
    /// Size of the reactor's worker set. The pool hosts all `shards` shard
    /// state machines on a fixed set of worker threads driven by readiness
    /// wakeups ([`st_net::Poller`]) and a hierarchical timer wheel
    /// ([`crate::timer::TimerWheel`]), decoupling shard count from thread
    /// count: `Some(n)` runs `n` workers, so `shards: 64` with
    /// `reactor_threads: Some(4)` is a valid configuration. `None` (the
    /// default) runs one worker per shard. The thread count changes how many
    /// mostly-idle streams one process can host, never what a stream is
    /// served.
    pub reactor_threads: Option<usize>,
    /// Replicate every stream's session checkpoint (student weights +
    /// distillation counters + scheduler deficit) to a shared
    /// content-addressed [`ReplicaStore`] after each accepted update, and
    /// arm warm-standby takeover: when a shard dies, its buddy shard
    /// (`(shard + 1) % shards`) adopts its streams from the replicas
    /// through the existing migration machinery. Requires
    /// [`PlacementPolicy::Rebalance`] (adoption *is* a migration) and at
    /// least two shards. Off by default: a worker panic then fails
    /// [`ServerPool::join`] with [`PoolError::WorkerFailed`].
    pub replication: bool,
    /// Deterministic fault-injection schedule ([`FaultPlan::none`] by
    /// default). Chaos tests kill a shard mid-run with this instead of
    /// aborting threads.
    pub fault_plan: FaultPlan,
    /// How sessions materialize their weights from the template
    /// ([`SessionWeights::CopyOnWrite`] by default; behaviour is identical
    /// either way, only resident memory differs).
    pub session_weights: SessionWeights,
    /// Negotiate delta-encoded weight updates with clients: `connect` sends
    /// [`ClientToServer::RegisterCaps`] announcing delta support, and the
    /// shard answers each distilled key frame with a sparse
    /// [`st_nn::delta::WeightDelta`] against the client's last-acked
    /// checkpoint (full snapshots remain the fallback whenever the stream is
    /// not known to be in sync — first update after a register, or after a
    /// failover restore). Off by default: updates ship as bare full
    /// snapshots of the trainable subset, exactly the seed wire format.
    pub delta_updates: bool,
}

impl PoolConfig {
    /// A small pool: two shards, up to four co-scheduled key frames, fair
    /// batching and admission control on.
    pub fn default_pool() -> Self {
        PoolConfig {
            shards: 2,
            max_batch: 4,
            placement: PlacementPolicy::default(),
            max_in_flight: 4,
            quantum: 1,
            adaptive_batch: true,
            frame_budget_bytes: None,
            steal_poll: Duration::from_millis(5),
            steal_patience: Duration::from_millis(25),
            reactor_threads: None,
            replication: false,
            fault_plan: FaultPlan::none(),
            session_weights: SessionWeights::CopyOnWrite,
            delta_updates: false,
        }
    }

    /// A pool with a given shard count and the default batching.
    pub fn with_shards(shards: usize) -> Self {
        PoolConfig {
            shards,
            ..Self::default_pool()
        }
    }

    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(TensorError::InvalidArgument(
                "pool needs at least one shard".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(TensorError::InvalidArgument(
                "max_batch must be at least 1".into(),
            ));
        }
        if self.max_in_flight == 0 {
            return Err(TensorError::InvalidArgument(
                "max_in_flight must be at least 1 (a stream must be able to queue a key frame)"
                    .into(),
            ));
        }
        if self.quantum == 0 {
            return Err(TensorError::InvalidArgument(
                "quantum must be at least 1".into(),
            ));
        }
        if self.frame_budget_bytes == Some(0) {
            return Err(TensorError::InvalidArgument(
                "frame_budget_bytes must be positive (use None for unbounded)".into(),
            ));
        }
        if self.steal_poll.is_zero() {
            return Err(TensorError::InvalidArgument(
                "steal_poll must be positive".into(),
            ));
        }
        if self.reactor_threads == Some(0) {
            return Err(TensorError::InvalidArgument(
                "reactor_threads must be at least 1 (use None for one per shard)".into(),
            ));
        }
        if let Some(target) = self.fault_plan.target {
            if target >= self.shards {
                return Err(TensorError::InvalidArgument(format!(
                    "fault_plan targets shard {target} but the pool has {} shards",
                    self.shards
                )));
            }
        }
        if self.replication {
            if self.shards < 2 {
                return Err(TensorError::InvalidArgument(
                    "replication needs at least two shards (a shard cannot be its own standby)"
                        .into(),
                ));
            }
            if !self.stealing() {
                return Err(TensorError::InvalidArgument(
                    "replication requires PlacementPolicy::Rebalance (warm-standby adoption \
                     reuses the stream-migration machinery)"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// The shard a stream id maps to under static-modulo placement.
    pub fn shard_of(&self, stream_id: StreamId) -> usize {
        (stream_id % self.shards as u64) as usize
    }

    /// Whether this pool migrates streams between shards at runtime.
    pub fn stealing(&self) -> bool {
        matches!(self.placement, PlacementPolicy::Rebalance)
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::default_pool()
    }
}

/// Why [`ServerPool::join`] failed.
///
/// Before this type existed, a worker panic surfaced as
/// `TensorError::InvalidArgument("shard worker panicked")` — the panic
/// payload, the shard index, everything an operator needs was thrown away.
/// `WorkerFailed` carries both; `Tensor` wraps the ordinary serving-error
/// channel. The lossy [`From<PoolError> for TensorError`] impl keeps
/// `pool.join()?` compiling in `TensorError`-returning contexts.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// A shard worker died (panicked) and no warm standby adopted its
    /// streams — either replication was off, or the standby itself was
    /// gone. `panic_msg` is the worker's actual panic payload.
    WorkerFailed {
        /// The shard whose worker died.
        shard: usize,
        /// The panic payload (downcast to a string where possible).
        panic_msg: String,
    },
    /// A serving error surfaced through the normal `Result` channel.
    Tensor(TensorError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerFailed { shard, panic_msg } => {
                write!(f, "shard {shard} worker panicked: {panic_msg}")
            }
            PoolError::Tensor(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<TensorError> for PoolError {
    fn from(err: TensorError) -> Self {
        PoolError::Tensor(err)
    }
}

impl From<PoolError> for TensorError {
    fn from(err: PoolError) -> Self {
        match err {
            PoolError::Tensor(err) => err,
            other => TensorError::InvalidArgument(other.to_string()),
        }
    }
}

/// Queueing/batching/latency counters of one shard worker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardStats {
    /// Key frames processed by this shard.
    pub key_frames: usize,
    /// Total distillation steps across the shard's streams.
    pub distill_steps: usize,
    /// Batched teacher forward passes taken.
    pub teacher_batches: usize,
    /// Largest co-scheduled batch observed.
    pub max_batch_observed: usize,
    /// Total wall-clock time key frames spent queued before processing began.
    pub queue_wait_total: Duration,
    /// Largest single queue wait observed.
    pub queue_wait_max: Duration,
    /// Wall-clock time the worker spent actively processing batches.
    pub busy_time: Duration,
    /// Total stream-tagged uplink bytes this shard received.
    pub uplink_bytes: usize,
    /// Sum of virtual `server_time` charged to responses (teacher share +
    /// distillation steps).
    pub virtual_server_time: f64,
    /// Virtual teacher time saved by batching, versus labelling every key
    /// frame with a solo forward pass.
    pub teacher_time_saved: f64,
    /// Key-frame jobs that could not be served (unknown stream or frame,
    /// e.g. a key frame arriving after its stream's `Shutdown`). Each one
    /// was answered with [`ServerToClient::Dropped`] when a downlink existed.
    pub dropped_jobs: usize,
    /// Key frames rejected by per-stream admission control.
    pub throttled: usize,
    /// `Register` messages with no connect-time registry entry (register
    /// without connect, or a duplicate register racing a finished stream).
    pub unknown_registers: usize,
    /// Largest co-scheduling window the adaptive batcher reached.
    pub batch_limit_peak: usize,
    /// Measured wall-clock time spent inside batched teacher forwards
    /// ([`st_teacher::Teacher::pseudo_label_batch`]). Unlike
    /// [`ShardStats::virtual_server_time`], this is real compute, so
    /// `teacher_wall_time / key_frames` is the *measured* amortized
    /// per-frame teacher cost batching is supposed to drive down.
    pub teacher_wall_time: Duration,
    /// Frames evicted from per-stream [`FrameStore`]s to stay inside the
    /// configured byte budget. Counted at the shard where the stream
    /// *finished* (a migrated stream carries its cache — and its counters —
    /// with it).
    pub frame_evictions: usize,
    /// Largest resident-byte watermark any of this shard's frame caches
    /// reached. Never exceeds [`PoolConfig::frame_budget_bytes`] when a
    /// budget is set — that is the invariant the budget buys.
    pub frame_bytes_peak: usize,
    /// Key-frame jobs that found their frame evicted and were parked while
    /// the client was asked to re-upload it ([`ServerToClient::NeedFrame`]).
    pub need_frame_requests: usize,
    /// Frames restored by a client [`st_net::ClientToServer::ReShare`].
    pub reshared_frames: usize,
    /// Streams this shard stole from a busier shard (work stealing,
    /// [`crate::config::PlacementPolicy::Rebalance`] only).
    pub streams_stolen_in: usize,
    /// Streams this shard handed off to an idle thief.
    pub streams_donated: usize,
    /// Uplink messages that arrived here for a stream that had already
    /// migrated and were forwarded to the stream's current shard.
    pub forwarded_messages: usize,
    /// Handler events dispatched on this shard: uplink envelopes, adopted
    /// migrations and timer fires — the reactor's measure of loop work.
    pub events_dispatched: usize,
    /// Timer-wheel fires dispatched to this shard (steal ticks and
    /// NeedFrame retries).
    pub timer_fires: usize,
    /// Readiness wakeups that dispatched a pass on this shard.
    pub poll_wakeups: usize,
    /// Peak count of *idle* streams — registered sessions with no queued
    /// key frame — observed on this shard. The reactor's reason to exist:
    /// this many streams were being hosted without deserving a thread.
    pub idle_streams: usize,
    /// Shard deaths this shard recovered from as the warm standby: each
    /// takeover adopted the dead buddy's streams from their replicated
    /// checkpoints.
    pub failovers: usize,
    /// Streams this shard adopted from a dead buddy during takeover
    /// (counted separately from [`ShardStats::streams_stolen_in`], which is
    /// voluntary migration).
    pub streams_adopted: usize,
    /// Key-frame jobs that died with the shard and could not be salvaged
    /// (a torn kill lost the batch in flight). Each was drop-acked with
    /// [`DropReason::ShardFailed`] by the adopter — never silently lost.
    pub frames_lost_on_failover: usize,
    /// Downlink sends that found the client side already gone. The ack (or
    /// update) was composed but undeliverable; counting it keeps the
    /// failover accounting reconcilable (`sent + lost_acks` covers every
    /// decision).
    pub lost_acks: usize,
    /// Bytes of *new* checkpoint chunks this shard published to the replica
    /// store (content the store had not seen).
    pub replica_bytes_published: usize,
    /// Bytes of checkpoint chunks deduplicated by content hash — a frozen
    /// partial-distillation stage re-encodes identically update after
    /// update, so its chunks are shared, not recopied.
    pub replica_bytes_shared: usize,
    /// Bytes of session parameter/buffer storage still *shared* with the
    /// shard's pretrained template (copy-on-write stages never written),
    /// sampled when the shard finished. Deep-cloned sessions report 0 here.
    pub session_bytes_shared: usize,
    /// Bytes of session parameter/buffer storage privately materialized
    /// (stages the optimizer or a restore wrote), sampled at finish.
    pub session_bytes_private: usize,
    /// Peak of [`ShardStats::session_bytes_private`] over the shard's life —
    /// the high-water marginal memory cost of this shard's streams.
    pub session_bytes_private_peak: usize,
    /// Weight updates shipped delta-encoded (changed chunks only).
    pub delta_updates_sent: usize,
    /// Weight updates shipped as full snapshots on a delta-negotiated
    /// stream — the first update after a (re-)register or failover restore.
    pub full_updates_sent: usize,
    /// Actual update payload bytes sent on delta-negotiated streams (delta
    /// or full-fallback encodings, as shipped).
    pub update_bytes_sent: usize,
    /// Bytes the same updates would have cost as full snapshots — the
    /// baseline the delta encoding is measured against. For non-negotiated
    /// streams both counters advance identically.
    pub update_bytes_full_equiv: usize,
}

impl ShardStats {
    /// Mean co-scheduled batch size (0.0 when the shard never processed a
    /// batch; at least 1.0 otherwise).
    pub fn mean_batch_size(&self) -> f64 {
        if self.teacher_batches == 0 {
            0.0
        } else {
            self.key_frames as f64 / self.teacher_batches as f64
        }
    }

    /// Mean wall-clock queue wait per key frame in seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        if self.key_frames == 0 {
            0.0
        } else {
            self.queue_wait_total.as_secs_f64() / self.key_frames as f64
        }
    }

    /// Measured amortized teacher cost per key frame in seconds (wall clock,
    /// not the virtual model; 0.0 before any key frame was served).
    pub fn mean_teacher_wall_secs(&self) -> f64 {
        if self.key_frames == 0 {
            0.0
        } else {
            self.teacher_wall_time.as_secs_f64() / self.key_frames as f64
        }
    }
}

/// Aggregate statistics of a pool run, collected at [`ServerPool::join`].
#[derive(Debug)]
pub struct PoolStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Per-stream counters (including per-stream queue waits, throttles and
    /// drops).
    pub streams: HashMap<StreamId, StreamServerStats>,
    /// Final full server-side checkpoint of every finished stream.
    pub final_checkpoints: HashMap<StreamId, WeightSnapshot>,
    /// Per-shard wall-clock queue waits, one sample per serviced key frame
    /// in seconds, in service order. Feeds the p50/p99 columns of
    /// [`PoolStats::snapshot`]; one f64 per key frame, so the memory cost is
    /// negligible next to the frames themselves.
    pub wait_samples: Vec<Vec<f64>>,
    /// Measured client→server wire bytes: the framed
    /// ([`st_net::wire::frame_len`]) size of every uplink envelope sent to
    /// the pool, plus re-shared frame content.
    pub wire_bytes_up: usize,
    /// Measured server→client wire bytes (framed downlink messages).
    pub wire_bytes_down: usize,
    /// Wall-clock takeover latency samples, one per shard failover, in
    /// seconds: death (the panic was recorded) → the standby finished
    /// adopting every stream. Feeds
    /// [`PoolStats::takeover_latency_p99_secs`].
    pub takeover_samples: Vec<f64>,
    /// Bytes resident in the pool's content-addressed [`WeightStore`] at
    /// join time (template chunks + any still-live replica chunks, each
    /// distinct chunk counted once).
    pub store_resident_bytes: usize,
    /// Distinct chunks resident in the weight store at join time.
    pub store_chunk_count: usize,
}

impl PoolStats {
    /// Key frames processed across all shards.
    pub fn total_key_frames(&self) -> usize {
        self.shards.iter().map(|s| s.key_frames).sum()
    }

    /// Distillation steps across all shards.
    pub fn total_distill_steps(&self) -> usize {
        self.shards.iter().map(|s| s.distill_steps).sum()
    }

    /// Key-frame jobs dropped (and acked as such) across all shards.
    pub fn dropped_jobs(&self) -> usize {
        self.shards.iter().map(|s| s.dropped_jobs).sum()
    }

    /// Key frames rejected by admission control across all shards.
    pub fn throttled(&self) -> usize {
        self.shards.iter().map(|s| s.throttled).sum()
    }

    /// Mean co-scheduled batch size across shards (0.0 when no batch was
    /// ever processed; at least 1.0 otherwise).
    pub fn mean_batch_size(&self) -> f64 {
        let batches: usize = self.shards.iter().map(|s| s.teacher_batches).sum();
        if batches == 0 {
            0.0
        } else {
            self.total_key_frames() as f64 / batches as f64
        }
    }

    /// Mean wall-clock queue wait per key frame in seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        let total: f64 = self
            .shards
            .iter()
            .map(|s| s.queue_wait_total.as_secs_f64())
            .sum();
        let k = self.total_key_frames();
        if k == 0 {
            0.0
        } else {
            total / k as f64
        }
    }

    /// Virtual teacher time saved by batching across all shards.
    pub fn teacher_time_saved(&self) -> f64 {
        self.shards.iter().map(|s| s.teacher_time_saved).sum()
    }

    /// Measured wall-clock teacher time across all shards.
    pub fn teacher_wall_time(&self) -> Duration {
        self.shards.iter().map(|s| s.teacher_wall_time).sum()
    }

    /// Measured amortized teacher cost per key frame in seconds across the
    /// pool (wall clock, not the virtual model).
    pub fn mean_teacher_wall_secs(&self) -> f64 {
        let k = self.total_key_frames();
        if k == 0 {
            0.0
        } else {
            self.teacher_wall_time().as_secs_f64() / k as f64
        }
    }

    /// Streams migrated between shards by work stealing across the run.
    pub fn streams_stolen(&self) -> usize {
        self.shards.iter().map(|s| s.streams_stolen_in).sum()
    }

    /// Frames evicted from per-stream caches across the run.
    pub fn frame_evictions(&self) -> usize {
        self.shards.iter().map(|s| s.frame_evictions).sum()
    }

    /// Frames restored by client re-shares across the run.
    pub fn reshared_frames(&self) -> usize {
        self.shards.iter().map(|s| s.reshared_frames).sum()
    }

    /// Largest per-stream frame-cache watermark observed anywhere in the
    /// pool. With [`PoolConfig::frame_budget_bytes`] set, this never exceeds
    /// the budget.
    pub fn frame_bytes_peak(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.frame_bytes_peak)
            .max()
            .unwrap_or(0)
    }

    /// The `p`-th percentile wall-clock queue wait across every serviced key
    /// frame in the pool, in seconds (0.0 when nothing was served).
    pub fn percentile_queue_wait_secs(&self, p: f64) -> f64 {
        let all: Vec<f64> = self.wait_samples.iter().flatten().copied().collect();
        crate::loadgen::percentile(&all, p)
    }

    /// Shard failovers recovered across the run.
    pub fn failovers(&self) -> usize {
        self.shards.iter().map(|s| s.failovers).sum()
    }

    /// Streams adopted from dead shards across the run.
    pub fn streams_adopted(&self) -> usize {
        self.shards.iter().map(|s| s.streams_adopted).sum()
    }

    /// Key-frame jobs lost to shard deaths (each drop-acked with
    /// [`DropReason::ShardFailed`]).
    pub fn frames_lost_on_failover(&self) -> usize {
        self.shards.iter().map(|s| s.frames_lost_on_failover).sum()
    }

    /// Bytes of new checkpoint chunks published to the replica store.
    pub fn replica_bytes_published(&self) -> usize {
        self.shards.iter().map(|s| s.replica_bytes_published).sum()
    }

    /// Bytes of checkpoint chunks deduplicated by content hash.
    pub fn replica_bytes_shared(&self) -> usize {
        self.shards.iter().map(|s| s.replica_bytes_shared).sum()
    }

    /// Session storage shared with shard templates (copy-on-write stages
    /// never written), summed over the last per-shard samples.
    pub fn session_bytes_shared(&self) -> usize {
        self.shards.iter().map(|s| s.session_bytes_shared).sum()
    }

    /// Session storage privately materialized by optimizer writes, summed
    /// over the last per-shard samples.
    pub fn session_bytes_private(&self) -> usize {
        self.shards.iter().map(|s| s.session_bytes_private).sum()
    }

    /// Peak private session storage observed on any single shard.
    pub fn session_bytes_private_peak(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.session_bytes_private_peak)
            .max()
            .unwrap_or(0)
    }

    /// Weight updates shipped delta-encoded across the pool.
    pub fn delta_updates_sent(&self) -> usize {
        self.shards.iter().map(|s| s.delta_updates_sent).sum()
    }

    /// Weight updates shipped as full snapshots on delta-negotiated streams.
    pub fn full_updates_sent(&self) -> usize {
        self.shards.iter().map(|s| s.full_updates_sent).sum()
    }

    /// Update payload bytes actually sent on delta-negotiated streams.
    pub fn update_bytes_sent(&self) -> usize {
        self.shards.iter().map(|s| s.update_bytes_sent).sum()
    }

    /// What those same updates would have cost as full snapshots.
    pub fn update_bytes_full_equiv(&self) -> usize {
        self.shards.iter().map(|s| s.update_bytes_full_equiv).sum()
    }

    /// The p99 wall-clock takeover latency in seconds (0.0 when no shard
    /// died): death → the standby finished adopting every stream.
    pub fn takeover_latency_p99_secs(&self) -> f64 {
        crate::loadgen::percentile(&self.takeover_samples, 99.0)
    }

    /// Condense the run into the serializable operator report
    /// ([`crate::report::PoolReport`]): per-shard load, steals, evictions,
    /// teacher wall time and p50/p99 queue waits, plus pool totals. This is
    /// what `reproduce --json` and the `table11_steal` bench export.
    pub fn snapshot(&self) -> crate::report::PoolReport {
        use crate::loadgen::percentile;
        use crate::report::{PoolReport, ShardReport};
        let empty: Vec<f64> = Vec::new();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, s)| {
                let waits = self.wait_samples.get(index).unwrap_or(&empty);
                ShardReport {
                    shard: index,
                    key_frames: s.key_frames,
                    teacher_batches: s.teacher_batches,
                    mean_batch: s.mean_batch_size(),
                    queue_p50_ms: 1e3 * percentile(waits, 50.0),
                    queue_p99_ms: 1e3 * percentile(waits, 99.0),
                    busy_secs: s.busy_time.as_secs_f64(),
                    teacher_wall_secs: s.teacher_wall_time.as_secs_f64(),
                    throttled: s.throttled,
                    dropped: s.dropped_jobs,
                    frame_evictions: s.frame_evictions,
                    need_frame_requests: s.need_frame_requests,
                    reshared_frames: s.reshared_frames,
                    frame_bytes_peak: s.frame_bytes_peak,
                    streams_stolen_in: s.streams_stolen_in,
                    streams_donated: s.streams_donated,
                    forwarded_messages: s.forwarded_messages,
                    events_dispatched: s.events_dispatched,
                    timer_fires: s.timer_fires,
                    poll_wakeups: s.poll_wakeups,
                    idle_streams: s.idle_streams,
                    failovers: s.failovers,
                    streams_adopted: s.streams_adopted,
                    frames_lost_on_failover: s.frames_lost_on_failover,
                }
            })
            .collect();
        PoolReport {
            shards,
            total_key_frames: self.total_key_frames(),
            streams_stolen: self.streams_stolen(),
            frame_evictions: self.frame_evictions(),
            reshared_frames: self.reshared_frames(),
            dropped_jobs: self.dropped_jobs(),
            throttled: self.throttled(),
            frame_bytes_peak: self.frame_bytes_peak(),
            queue_p50_ms: 1e3 * self.percentile_queue_wait_secs(50.0),
            queue_p99_ms: 1e3 * self.percentile_queue_wait_secs(99.0),
            teacher_wall_secs: self.teacher_wall_time().as_secs_f64(),
            events_dispatched: self.shards.iter().map(|s| s.events_dispatched).sum(),
            timer_fires: self.shards.iter().map(|s| s.timer_fires).sum(),
            poll_wakeups: self.shards.iter().map(|s| s.poll_wakeups).sum(),
            idle_streams: self
                .shards
                .iter()
                .map(|s| s.idle_streams)
                .max()
                .unwrap_or(0),
            wire_bytes_up: self.wire_bytes_up,
            wire_bytes_down: self.wire_bytes_down,
            failovers: self.failovers(),
            streams_adopted: self.streams_adopted(),
            frames_lost_on_failover: self.frames_lost_on_failover(),
            takeover_latency_p99_ms: 1e3 * self.takeover_latency_p99_secs(),
            replica_bytes_published: self.replica_bytes_published(),
            replica_bytes_shared: self.replica_bytes_shared(),
            streams: self.streams.len(),
            session_bytes_shared: self.session_bytes_shared(),
            session_bytes_private: self.session_bytes_private(),
            session_bytes_private_peak: self.session_bytes_private_peak(),
            store_resident_bytes: self.store_resident_bytes,
            store_chunk_count: self.store_chunk_count,
            delta_updates_sent: self.delta_updates_sent(),
            full_updates_sent: self.full_updates_sent(),
            update_bytes_sent: self.update_bytes_sent(),
            update_bytes_full_equiv: self.update_bytes_full_equiv(),
        }
    }
}

/// An LRU cache of one stream's pre-shared frame content with a byte budget.
///
/// The key-frame message carries encoded pixels for realistic wire sizes;
/// the in-process shard resolves content by index, as the single-stream live
/// runtime does. Before PR 5 that content lived in a plain map for the
/// stream's lifetime; the store bounds it: once resident frames exceed the
/// budget, the least-recently-used ones are evicted (the index stays known,
/// so the job is *parked* and the content re-requested via
/// [`ServerToClient::NeedFrame`] instead of the frame being refused as
/// unknown). A `None` budget keeps everything resident.
///
/// Invariant: after every mutation, `resident_bytes() <= budget`. A frame
/// larger than the whole budget is never admitted — it is counted evicted
/// immediately, and a job needing it is answered with a definitive
/// [`ServerToClient::Dropped`] after one recovery attempt (admission can
/// never succeed, so retrying would loop forever). Size the budget above
/// the largest single frame.
#[derive(Debug, Clone)]
pub struct FrameStore {
    /// Frame index → content; `None` marks an index that was shared but is
    /// currently evicted (distinguishing "evicted" from "never shared").
    entries: HashMap<usize, Option<Frame>>,
    /// Resident indices, least-recently-used first.
    lru: VecDeque<usize>,
    budget: Option<usize>,
    resident_bytes: usize,
    peak_bytes: usize,
    evictions: usize,
}

impl FrameStore {
    /// An empty store with the given byte budget (`None` = unbounded).
    pub fn new(budget: Option<usize>) -> Self {
        FrameStore {
            entries: HashMap::new(),
            lru: VecDeque::new(),
            budget,
            resident_bytes: 0,
            peak_bytes: 0,
            evictions: 0,
        }
    }

    /// A store pre-filled with a stream's frames in index order (so under a
    /// tight budget the *earliest* frames are the first evicted — they are
    /// also the first the stream will ask the server to serve, which is what
    /// the eviction/re-share round-trip tests exercise).
    pub fn from_frames(frames: &[Frame], budget: Option<usize>) -> Self {
        let mut store = Self::new(budget);
        let mut sorted: Vec<&Frame> = frames.iter().collect();
        sorted.sort_by_key(|f| f.index);
        for frame in sorted {
            store.insert(frame.clone());
        }
        store
    }

    /// A store that *knows* the given indices but holds no content — the
    /// warm-standby restore path. Checkpoint replication ships the set of
    /// shared frame indices, not the pixels (frames are recoverable from
    /// the client for free), so a takeover rebuilds the cache as
    /// known-but-evicted: the first job touching each index parks and asks
    /// the client to re-upload it ([`ServerToClient::NeedFrame`] →
    /// [`st_net::ClientToServer::ReShare`]), exactly the existing
    /// eviction-recovery round trip.
    pub fn from_known_indices(indices: &[usize], budget: Option<usize>) -> Self {
        let mut store = Self::new(budget);
        for &index in indices {
            store.entries.insert(index, None);
        }
        store
    }

    /// Every index this store knows (resident or evicted), ascending — the
    /// set checkpoint replication preserves across a shard death.
    pub fn known_indices(&self) -> Vec<usize> {
        let mut indices: Vec<usize> = self.entries.keys().copied().collect();
        indices.sort_unstable();
        indices
    }

    /// Approximate resident cost of one frame: the f32 image tensor plus the
    /// per-pixel ground-truth indices — what the server actually holds in
    /// memory (not the 8-bit wire encoding).
    pub fn frame_cost(frame: &Frame) -> usize {
        std::mem::size_of_val(frame.image.data()) + std::mem::size_of_val(&frame.ground_truth[..])
    }

    /// Insert (or restore) a frame, evicting least-recently-used residents
    /// until the budget holds. A frame whose own cost exceeds the budget is
    /// recorded as known-but-evicted rather than admitted.
    pub fn insert(&mut self, frame: Frame) {
        let index = frame.index;
        let cost = Self::frame_cost(&frame);
        if self.resident(index) {
            // Re-inserting a resident frame just refreshes recency.
            self.touch(index);
            return;
        }
        if let Some(budget) = self.budget {
            if cost > budget {
                self.entries.insert(index, None);
                self.evictions += 1;
                return;
            }
            while self.resident_bytes + cost > budget {
                let Some(victim) = self.lru.pop_front() else {
                    break;
                };
                if let Some(slot) = self.entries.get_mut(&victim) {
                    if let Some(evicted) = slot.take() {
                        self.resident_bytes -= Self::frame_cost(&evicted);
                        self.evictions += 1;
                    }
                }
            }
        }
        self.entries.insert(index, Some(frame));
        self.lru.push_back(index);
        self.resident_bytes += cost;
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
    }

    /// Whether this index was ever shared (resident or evicted).
    pub fn knows(&self, index: usize) -> bool {
        self.entries.contains_key(&index)
    }

    /// Whether this index is currently resident.
    pub fn resident(&self, index: usize) -> bool {
        self.entries.get(&index).is_some_and(|e| e.is_some())
    }

    /// Mark an index as most-recently-used. Returns whether it is resident.
    pub fn touch(&mut self, index: usize) -> bool {
        if !self.resident(index) {
            return false;
        }
        self.lru.retain(|i| *i != index);
        self.lru.push_back(index);
        true
    }

    /// The resident content of an index (does not affect recency).
    pub fn peek(&self, index: usize) -> Option<&Frame> {
        self.entries.get(&index).and_then(|e| e.as_ref())
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Largest resident-byte watermark reached so far.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Frames evicted so far (including oversized frames never admitted).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Number of resident frames.
    pub fn resident_count(&self) -> usize {
        self.lru.len()
    }
}

/// One stream's replicated session checkpoint: a refcounted
/// [`CheckpointRef`] into the pool's shared [`WeightStore`], plus the
/// non-weight state a takeover restores (distillation counters, the
/// stream's unspent DRR deficit, the set of frame indices the client had
/// shared, and whether the client negotiated delta updates).
struct SessionReplica {
    checkpoint: CheckpointRef,
    key_frames: usize,
    distill_steps: usize,
    /// Unspent deficit-round-robin credit at publication time.
    deficit: usize,
    /// Frame indices the stream had shared. Only the index set replicates —
    /// the pixels are recoverable from the client via the existing
    /// `NeedFrame`/`ReShare` round trip, so replicating them would buy
    /// nothing but bandwidth.
    known_frames: Vec<usize>,
    /// The stream's delta-update negotiation survives failover: the adopter
    /// must keep speaking the envelope protocol (with a full-snapshot
    /// re-sync) rather than silently reverting to bare snapshots.
    supports_delta: bool,
}

/// A replica materialized for takeover: checkpoint resolved from the store
/// and its references released.
struct RestoredReplica {
    snapshot: WeightSnapshot,
    key_frames: usize,
    distill_steps: usize,
    deficit: usize,
    known_frames: Vec<usize>,
    supports_delta: bool,
}

/// The pool's shared checkpoint-replica index over the content-addressed
/// [`WeightStore`].
///
/// After every accepted update a shard publishes the stream's full session
/// checkpoint here, keyed by owning shard; when a shard dies, its buddy
/// adopts the dead shard's slot and rebuilds every stream from it. Since
/// PR 10 the replica store holds [`CheckpointRef`]s — replication publishes
/// *references* into the same store that also interns the pretrained
/// template, so the frozen front-end a partial-distillation session never
/// touches is resident **once** across the template and every stream's
/// replica. `ShardStats::replica_bytes_published` versus
/// `ShardStats::replica_bytes_shared` measures exactly that saving.
pub struct ReplicaStore {
    /// `slots[owner]` = replicas of the streams shard `owner` serves.
    slots: Vec<Mutex<HashMap<StreamId, SessionReplica>>>,
    /// The shared chunk store (also holds the interned template).
    store: Arc<WeightStore>,
}

impl ReplicaStore {
    fn new(shards: usize, store: Arc<WeightStore>) -> Self {
        ReplicaStore {
            slots: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            store,
        }
    }

    /// Publish one stream's checkpoint under `owner`, replacing any prior
    /// replica of the stream. Returns the [`InternStats`] byte split: bytes
    /// the store had to materialize versus bytes it deduplicated (against
    /// the template, other streams, or the stream's own prior replica).
    #[allow(clippy::too_many_arguments)]
    fn publish(
        &self,
        owner: usize,
        stream_id: StreamId,
        checkpoint: &WeightSnapshot,
        key_frames: usize,
        distill_steps: usize,
        deficit: usize,
        known_frames: Vec<usize>,
        supports_delta: bool,
    ) -> InternStats {
        let (checkpoint, stats) = self.store.intern(checkpoint);
        let previous = locked(&self.slots[owner]).insert(
            stream_id,
            SessionReplica {
                checkpoint,
                key_frames,
                distill_steps,
                deficit,
                known_frames,
                supports_delta,
            },
        );
        if let Some(previous) = previous {
            self.store.release(previous.checkpoint);
        }
        stats
    }

    /// Drop one stream's replica (the stream retired normally; there is
    /// nothing left to fail over).
    fn remove(&self, owner: usize, stream_id: StreamId) {
        if let Some(replica) = locked(&self.slots[owner]).remove(&stream_id) {
            self.store.release(replica.checkpoint);
        }
    }

    /// Re-home a replica after a voluntary migration. Store references are
    /// untouched — the checkpoint content did not change, only its owner.
    fn move_owner(&self, stream_id: StreamId, from: usize, to: usize) {
        if from == to {
            return;
        }
        if let Some(replica) = locked(&self.slots[from]).remove(&stream_id) {
            locked(&self.slots[to]).insert(stream_id, replica);
        }
    }

    /// Take every replica a dead shard owned, materialized for restore
    /// (references released) and sorted by stream id so adoption order is
    /// deterministic.
    fn take_owner(&self, owner: usize) -> Vec<(StreamId, RestoredReplica)> {
        let mut replicas: Vec<(StreamId, SessionReplica)> = {
            let mut slot = locked(&self.slots[owner]);
            slot.drain().collect()
        };
        replicas.sort_by_key(|(id, _)| *id);
        replicas
            .into_iter()
            .map(|(stream_id, replica)| {
                let snapshot = match self.store.resolve_release(replica.checkpoint) {
                    Ok(snapshot) => snapshot,
                    // The replica held a reference since publish, so every
                    // chunk is pinned; a miss is corrupted store accounting,
                    // which no takeover should paper over.
                    Err(err) => unreachable!("replica checkpoint unresolvable: {err:?}"),
                };
                (
                    stream_id,
                    RestoredReplica {
                        snapshot,
                        key_frames: replica.key_frames,
                        distill_steps: replica.distill_steps,
                        deficit: replica.deficit,
                        known_frames: replica.known_frames,
                        supports_delta: replica.supports_delta,
                    },
                )
            })
            .collect()
    }
}

/// Server-side delta-negotiation state of one stream: the digest of the
/// client's last-acked checkpoint (patched with every update actually
/// sent) and whether the stream is known to be in sync. An unsynced stream
/// — fresh registration pending its first update, or a failover-restored
/// session whose adopter cannot prove what the client last applied — gets
/// a full-snapshot envelope, which re-synchronizes it.
struct DeltaTrack {
    digest: CheckpointDigest,
    synced: bool,
}

/// One stream's registration state inside a shard.
struct StreamEntry {
    session: DistillSession,
    /// The stream's pre-shared frame content, LRU-bounded.
    frames: FrameStore,
    /// Delta-update negotiation state; `None` on legacy bare-snapshot
    /// streams. Travels with the stream through migration and is rebuilt
    /// (unsynced) after a failover restore.
    delta: Option<DeltaTrack>,
}

/// A key-frame job drained from the shard queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardJob {
    /// The stream the key frame belongs to.
    pub stream_id: StreamId,
    /// Index of the frame in that stream.
    pub frame_index: usize,
}

/// A queued key-frame job with its arrival timestamp, as handed out by the
/// [`FairScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct ScheduledJob {
    /// The job itself.
    pub job: ShardJob,
    /// When the job entered the shard queue (for wait accounting).
    pub enqueued_at: Instant,
}

/// Per-stream FIFO queues drained by deficit round-robin.
///
/// Every stream with queued key frames sits in a ring; each scheduling round
/// grants a stream `quantum` units of deficit and pops at most that many of
/// its jobs into the batch. A hot stream with a deep backlog therefore gets
/// the same per-round slot count as everyone else, and any queued stream is
/// served within `ceil(streams / max_batch)` batches — no starvation.
///
/// Invariant: `ring` contains exactly the streams with non-empty queues
/// (maintained by `push`/`next_batch`/`remove_stream`; the structure is
/// driven by one worker thread).
pub struct FairScheduler {
    queues: HashMap<StreamId, VecDeque<ScheduledJob>>,
    ring: VecDeque<StreamId>,
    deficits: HashMap<StreamId, usize>,
    quantum: usize,
    queued: usize,
}

impl FairScheduler {
    /// A scheduler granting `quantum` jobs per stream per round (clamped to
    /// at least 1).
    pub fn new(quantum: usize) -> Self {
        FairScheduler {
            queues: HashMap::new(),
            ring: VecDeque::new(),
            deficits: HashMap::new(),
            quantum: quantum.max(1),
            queued: 0,
        }
    }

    /// Queue a key-frame job for its stream.
    pub fn push(&mut self, stream_id: StreamId, frame_index: usize, enqueued_at: Instant) {
        let queue = self.queues.entry(stream_id).or_default();
        if queue.is_empty() {
            self.ring.push_back(stream_id);
        }
        queue.push_back(ScheduledJob {
            job: ShardJob {
                stream_id,
                frame_index,
            },
            enqueued_at,
        });
        self.queued += 1;
    }

    /// Jobs currently queued for one stream (the admission-control signal).
    pub fn queued_for(&self, stream_id: StreamId) -> usize {
        self.queues.get(&stream_id).map_or(0, |q| q.len())
    }

    /// Total queued jobs across all streams.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Streams that currently have at least one queued job.
    pub fn active_streams(&self) -> usize {
        self.queues.len()
    }

    /// The stream with the deepest queue (ties toward the smallest id, so
    /// the answer is deterministic), with its depth. This is the stream a
    /// work-stealing victim donates: moving the deepest backlog relieves the
    /// shard fastest and gives the hot stream a worker of its own.
    pub fn busiest_stream(&self) -> Option<(StreamId, usize)> {
        self.queues
            .iter()
            .map(|(id, q)| (*id, q.len()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Pop the next co-scheduled batch: at most `max_batch` jobs, drained
    /// round-robin with per-stream deficits. Returns an empty vector when
    /// nothing is queued or `max_batch == 0`.
    pub fn next_batch(&mut self, max_batch: usize) -> Vec<ScheduledJob> {
        let mut out = Vec::new();
        while out.len() < max_batch && self.queued > 0 {
            let Some(stream_id) = self.ring.pop_front() else {
                break;
            };
            let Some(queue) = self.queues.get_mut(&stream_id) else {
                self.deficits.remove(&stream_id);
                continue;
            };
            let deficit = self.deficits.entry(stream_id).or_insert(0);
            // A fresh turn is granted the quantum (capped at what is
            // actually poppable); an interrupted turn resumes its unspent
            // deficit without a new grant, so it cannot bank credit and hold
            // the ring head indefinitely.
            if *deficit == 0 {
                *deficit = self.quantum.min(queue.len());
            }
            while *deficit > 0 && out.len() < max_batch {
                let Some(job) = queue.pop_front() else {
                    break;
                };
                *deficit -= 1;
                self.queued -= 1;
                out.push(job);
            }
            let unspent = *deficit;
            if queue.is_empty() {
                self.queues.remove(&stream_id);
                self.deficits.remove(&stream_id);
            } else if out.len() >= max_batch && unspent > 0 {
                // Batch filled mid-quantum: the stream keeps its remaining
                // deficit and its place at the head of the ring.
                self.ring.push_front(stream_id);
            } else {
                // Quantum spent (jobs left): back of the ring, so the next
                // batch starts with someone else even when this batch could
                // not look past the head.
                self.ring.push_back(stream_id);
            }
        }
        out
    }

    /// The stream's unspent deficit-round-robin credit (0 when it holds
    /// none). Replicated with the session checkpoint so a takeover restores
    /// the stream's scheduling position, not just its weights.
    pub fn deficit_of(&self, stream_id: StreamId) -> usize {
        self.deficits.get(&stream_id).copied().unwrap_or(0)
    }

    /// Restore a stream's unspent deficit (warm-standby adoption). A zero
    /// deficit is the default state and is not stored.
    pub fn set_deficit(&mut self, stream_id: StreamId, deficit: usize) {
        if deficit > 0 {
            self.deficits.insert(stream_id, deficit);
        }
    }

    /// Drain *every* queued job, ring order then per-stream FIFO — the
    /// takeover path re-queues a dead shard's entire backlog at its
    /// adopter with arrival timestamps intact.
    pub fn drain_all(&mut self) -> Vec<ScheduledJob> {
        let streams: Vec<StreamId> = self.ring.iter().copied().collect();
        let mut out = Vec::with_capacity(self.queued);
        for stream_id in streams {
            out.extend(self.remove_stream(stream_id));
        }
        out
    }

    /// Remove a stream entirely (on `Shutdown`), returning its still-queued
    /// jobs in FIFO order so the caller can flush them before retiring the
    /// session.
    pub fn remove_stream(&mut self, stream_id: StreamId) -> Vec<ScheduledJob> {
        let jobs: Vec<ScheduledJob> = self
            .queues
            .remove(&stream_id)
            .map(|q| q.into_iter().collect())
            .unwrap_or_default();
        self.queued -= jobs.len();
        self.deficits.remove(&stream_id);
        self.ring.retain(|s| *s != stream_id);
        jobs
    }
}

impl Default for FairScheduler {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Load-adaptive co-scheduling window.
///
/// Multiplicative increase/decrease between 1 and the configured `max_batch`
/// ceiling: the window doubles while the observed backlog exceeds it *and*
/// the teacher's marginal batched-inference cost still amortizes, and halves
/// when the backlog falls below half the window (deep windows buy teacher
/// amortization at the price of per-frame latency, so they are only worth
/// holding under real queue pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBatch {
    ceiling: usize,
    current: usize,
    enabled: bool,
}

impl AdaptiveBatch {
    /// A window bounded by `ceiling`; when `enabled` it starts at 1 and
    /// adapts, otherwise it is pinned to the ceiling (the static behaviour).
    pub fn new(ceiling: usize, enabled: bool) -> Self {
        let ceiling = ceiling.max(1);
        AdaptiveBatch {
            ceiling,
            current: if enabled { 1 } else { ceiling },
            enabled,
        }
    }

    /// The current co-scheduling window.
    pub fn limit(&self) -> usize {
        self.current
    }

    /// The configured ceiling.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    /// Feed one observation: the backlog remaining after a batch completed,
    /// and whether growing the window would still amortize teacher time
    /// (the marginal batched cost of one more slot is below a solo forward).
    pub fn observe(&mut self, backlog: usize, growth_pays: bool) {
        if !self.enabled {
            return;
        }
        if backlog > self.current && growth_pays {
            self.current = (self.current * 2).min(self.ceiling);
        } else if backlog < self.current / 2 {
            self.current = (self.current / 2).max(1);
        }
    }
}

/// Outcome of one co-scheduled batch: per-stream responses plus the jobs
/// that could not be served (each with its reason) and the jobs whose frame
/// content must be re-requested from the client first.
#[derive(Debug)]
pub struct BatchOutcome {
    /// `(stream, frame index, response)` per serviced key frame, in
    /// scheduling order.
    pub responses: Vec<(StreamId, usize, KeyFrameResponse)>,
    /// Jobs whose stream or frame was unknown. Counted in
    /// [`ShardStats::dropped_jobs`].
    pub dropped: Vec<(ShardJob, DropReason)>,
    /// Jobs whose frame was shared but has been evicted from the stream's
    /// [`FrameStore`]. Not a failure: the caller parks the job, asks the
    /// client to re-upload the content ([`ServerToClient::NeedFrame`]) and
    /// resumes it on the [`st_net::ClientToServer::ReShare`]. Counted in
    /// [`ShardStats::need_frame_requests`].
    pub needs_frame: Vec<ShardJob>,
}

/// Measured wall-clock cost of batched teacher forwards, by batch size.
///
/// The shard records the duration of every
/// [`st_teacher::Teacher::pseudo_label_batch`] call into a per-batch-size
/// exponential moving average. [`ServeShard::batch_growth_pays`] then judges
/// window growth on this *measured* marginal-cost data — the slope between
/// the two largest observed batch sizes — instead of the teacher's virtual
/// latency model, so the adaptive co-scheduling window tracks what batching
/// actually buys on the hardware at hand. Until enough sizes have been
/// observed (or when forwards are too fast to time meaningfully, e.g. the
/// oracle teacher), the caller falls back to the virtual model.
#[derive(Debug, Clone)]
pub struct TeacherCostProfile {
    /// EMA of batched-forward wall seconds, indexed by batch size.
    ema: Vec<Option<f64>>,
}

/// EMA smoothing factor for new batched-forward cost observations.
const COST_EMA_ALPHA: f64 = 0.3;
/// Forwards faster than this (seconds) are considered unmeasurable: timer
/// noise would dominate any marginal-cost estimate.
const COST_MEASURABLE_FLOOR: f64 = 1e-4;

impl TeacherCostProfile {
    /// An empty profile.
    pub fn new() -> Self {
        TeacherCostProfile { ema: Vec::new() }
    }

    /// Record one batched forward of `batch` frames that took `secs`.
    pub fn record(&mut self, batch: usize, secs: f64) {
        if batch == 0 || !secs.is_finite() || secs < 0.0 {
            return;
        }
        if self.ema.len() <= batch {
            self.ema.resize(batch + 1, None);
        }
        self.ema[batch] = Some(match self.ema[batch] {
            Some(prev) => (1.0 - COST_EMA_ALPHA) * prev + COST_EMA_ALPHA * secs,
            None => secs,
        });
    }

    /// Smoothed wall cost of a batched forward of exactly `batch` frames
    /// (`None` when that size has not been observed).
    pub fn estimate(&self, batch: usize) -> Option<f64> {
        self.ema.get(batch).copied().flatten()
    }

    /// Measured per-frame cost at the largest observed batch size not above
    /// `batch` (`None` when nothing relevant was observed).
    pub fn per_frame_at_or_below(&self, batch: usize) -> Option<f64> {
        self.ema
            .iter()
            .enumerate()
            .take(batch + 1)
            .rev()
            .find_map(|(size, ema)| ema.map(|cost| cost / size as f64))
    }

    /// Whether growing the window beyond `batch` still amortizes, judged on
    /// measured data: the marginal cost per extra slot — the slope between
    /// the two largest observed sizes at or below `batch + 1` — must be
    /// below the measured solo-forward cost. `None` when fewer than two
    /// sizes have been observed or the forwards are too fast to time
    /// (`COST_MEASURABLE_FLOOR`), in which case the caller should fall
    /// back to the teacher's virtual latency model.
    pub fn growth_pays(&self, batch: usize) -> Option<bool> {
        let solo = self.estimate(1)?;
        if solo < COST_MEASURABLE_FLOOR {
            return None;
        }
        let mut observed = self
            .ema
            .iter()
            .enumerate()
            .take(batch + 2)
            .filter_map(|(size, ema)| ema.map(|cost| (size, cost)));
        let (mut lo_size, mut lo_cost) = observed.next()?;
        let (mut hi_size, mut hi_cost) = (lo_size, lo_cost);
        for (size, cost) in observed {
            lo_size = hi_size;
            lo_cost = hi_cost;
            hi_size = size;
            hi_cost = cost;
        }
        if hi_size == lo_size {
            return None;
        }
        let marginal = (hi_cost - lo_cost) / (hi_size - lo_size) as f64;
        Some(marginal < solo)
    }
}

impl Default for TeacherCostProfile {
    fn default() -> Self {
        Self::new()
    }
}

/// One shard: a shared teacher plus one distillation session per stream.
///
/// The shard is a synchronous state machine — the worker thread in
/// [`ServerPool`] drives it from a queue, and tests can drive it directly.
pub struct ServeShard<T: Teacher> {
    config: ShadowTutorConfig,
    distill_step_latency: f64,
    template: StudentNet,
    /// Full-scope digest of the pristine template — the sparse-restore
    /// baseline: failover applies only the replica entries that differ from
    /// it, so frozen stages come back sharing the template's storage.
    template_digest: CheckpointDigest,
    session_weights: SessionWeights,
    teacher: T,
    sessions: HashMap<StreamId, StreamEntry>,
    stats: ShardStats,
    costs: TeacherCostProfile,
}

impl<T: Teacher> ServeShard<T> {
    /// Create a shard serving sessions cloned from `template`.
    pub fn new(
        config: ShadowTutorConfig,
        mut template: StudentNet,
        teacher: T,
        distill_step_latency: f64,
    ) -> Self {
        let template_digest =
            CheckpointDigest::of(&WeightSnapshot::capture(&mut template, SnapshotScope::Full));
        ServeShard {
            config,
            distill_step_latency,
            template,
            template_digest,
            session_weights: SessionWeights::CopyOnWrite,
            teacher,
            sessions: HashMap::new(),
            stats: ShardStats::default(),
            costs: TeacherCostProfile::new(),
        }
    }

    /// Set how sessions materialize their weights from the template.
    pub fn with_session_weights(mut self, session_weights: SessionWeights) -> Self {
        self.session_weights = session_weights;
        self
    }

    /// Materialize a session's starting weights from the template per the
    /// shard's [`SessionWeights`] mode.
    fn template_instance(&mut self) -> StudentNet {
        match self.session_weights {
            SessionWeights::CopyOnWrite => self.template.clone(),
            SessionWeights::DeepClone => self.template.deep_clone(),
        }
    }

    /// Register a stream: create its session and return the initial full
    /// checkpoint (Algorithm 3, line 1, per stream).
    ///
    /// A duplicate register does **not** clobber the live session or its
    /// pre-shared frames (the pool rejects duplicate connects before they
    /// reach the shard); it returns the session's current checkpoint. Either
    /// way the stream's delta track resets to synced-at-this-checkpoint:
    /// the caller is about to ship exactly this snapshot as
    /// [`ServerToClient::InitialStudent`].
    pub fn register(
        &mut self,
        stream_id: StreamId,
        frames: FrameStore,
        supports_delta: bool,
    ) -> WeightSnapshot {
        if !self.sessions.contains_key(&stream_id) {
            let session = DistillSession::new(
                self.config,
                self.template_instance(),
                self.distill_step_latency,
            );
            self.sessions.insert(
                stream_id,
                StreamEntry {
                    session,
                    frames,
                    delta: None,
                },
            );
        }
        let Some(entry) = self.sessions.get_mut(&stream_id) else {
            unreachable!("session inserted above when absent")
        };
        let initial = entry.session.initial_checkpoint();
        entry.delta = supports_delta.then(|| DeltaTrack {
            digest: CheckpointDigest::of(&initial),
            synced: true,
        });
        initial
    }

    /// Restore an evicted frame's content from a client re-share. Returns
    /// `false` when the stream has no session, the index was never shared
    /// in the first place (a re-share is recovery, not a side door for
    /// injecting new frames), or the frame is bigger than the stream's
    /// whole budget and so can never be made resident. In every `false`
    /// case the caller acks a drop — a definitive answer, never a retry
    /// loop.
    pub fn reshare(&mut self, stream_id: StreamId, frame: Frame) -> bool {
        let Some(entry) = self.sessions.get_mut(&stream_id) else {
            return false;
        };
        if !entry.frames.knows(frame.index) {
            return false;
        }
        let index = frame.index;
        entry.frames.insert(frame);
        if !entry.frames.resident(index) {
            // The frame alone exceeds the budget: admission is impossible,
            // so recovery must fail definitively instead of ping-ponging
            // NeedFrame ↔ ReShare forever.
            return false;
        }
        self.stats.reshared_frames += 1;
        true
    }

    /// Pull a whole stream out of the shard for migration: its live session
    /// and its frame cache, counters intact (they travel with the stream and
    /// are folded into whichever shard finally retires it).
    fn evict_stream(&mut self, stream_id: StreamId) -> Option<StreamEntry> {
        let entry = self.sessions.remove(&stream_id);
        if entry.is_some() {
            self.stats.streams_donated += 1;
        }
        entry
    }

    /// Install a stream migrated from another shard.
    fn adopt_stream(&mut self, stream_id: StreamId, entry: StreamEntry) {
        debug_assert!(
            !self.sessions.contains_key(&stream_id),
            "a stream lives on exactly one shard"
        );
        self.stats.streams_stolen_in += 1;
        self.sessions.insert(stream_id, entry);
    }

    /// Capture what checkpoint replication publishes for one stream: the
    /// full session checkpoint, the distillation counters, the set of
    /// shared frame indices, and the stream's delta negotiation.
    fn session_replica(
        &mut self,
        stream_id: StreamId,
    ) -> Option<(WeightSnapshot, usize, usize, Vec<usize>, bool)> {
        let entry = self.sessions.get_mut(&stream_id)?;
        Some((
            entry.session.replica_checkpoint(),
            entry.session.key_frames_processed(),
            entry.session.distill_steps_taken(),
            entry.frames.known_indices(),
            entry.delta.is_some(),
        ))
    }

    /// The stream's delta track, if the client negotiated delta updates.
    fn delta_track_mut(&mut self, stream_id: StreamId) -> Option<&mut DeltaTrack> {
        self.sessions.get_mut(&stream_id)?.delta.as_mut()
    }

    /// Sum every live session's storage split against the shard template.
    /// Cheap (pointer compares per tensor), but still sampled per batch,
    /// never per frame.
    fn memory_profile(&mut self) -> SessionMemory {
        let mut total = SessionMemory::default();
        for entry in self.sessions.values_mut() {
            let m = SessionMemory::measure(entry.session.student_mut(), &mut self.template);
            total.shared_bytes += m.shared_bytes;
            total.private_bytes += m.private_bytes;
        }
        total
    }

    /// Rebuild a stream from its replicated checkpoint (warm-standby
    /// takeover): a fresh session resumed from the replica weights and
    /// counters, plus a known-but-evicted frame cache.
    ///
    /// The restore is *sparse*: only the replica entries whose content hash
    /// differs from the pristine template are applied onto a copy-on-write
    /// template instance, so frozen stages come back sharing the template's
    /// storage — bit-identical to applying the full replica, because a
    /// skipped entry equals the template by content hash. A delta-negotiated
    /// stream restores with `synced: false`: the adopter cannot prove what
    /// the client last applied, so the next update ships as a full-snapshot
    /// envelope (the delta re-sync).
    fn restore_stream(
        &mut self,
        stream_id: StreamId,
        snapshot: &WeightSnapshot,
        key_frames: usize,
        distill_steps: usize,
        frames: FrameStore,
        supports_delta: bool,
    ) -> Result<()> {
        debug_assert!(
            !self.sessions.contains_key(&stream_id),
            "a stream lives on exactly one shard"
        );
        let sparse = WeightDelta::compute(snapshot, &self.template_digest);
        let (changed, _) = sparse.into_parts()?;
        let base = self.template_instance();
        let session = DistillSession::resume(
            self.config,
            base,
            &changed,
            self.distill_step_latency,
            key_frames,
            distill_steps,
        )?;
        let delta = supports_delta.then(|| DeltaTrack {
            digest: CheckpointDigest::of(snapshot),
            synced: false,
        });
        self.sessions.insert(
            stream_id,
            StreamEntry {
                session,
                frames,
                delta,
            },
        );
        Ok(())
    }

    /// Drop every session, folding only the frame-cache counters into the
    /// shard's stats. This is carcass accounting: a dead shard's live
    /// sessions are *replaced* by replica-restored ones at its adopter (the
    /// replicas, not the carcass, are the recovery source of truth), so the
    /// carcass keeps the counters and loses the state.
    fn discard_sessions(&mut self) {
        for (_stream_id, entry) in self.sessions.drain() {
            self.stats.frame_evictions += entry.frames.evictions();
            self.stats.frame_bytes_peak =
                self.stats.frame_bytes_peak.max(entry.frames.peak_bytes());
        }
    }

    /// Number of streams currently registered.
    pub fn stream_count(&self) -> usize {
        self.sessions.len()
    }

    /// Whether a stream has a registered session.
    pub fn has_stream(&self, stream_id: StreamId) -> bool {
        self.sessions.contains_key(&stream_id)
    }

    /// Whether a stream has a registered session *and* the frame was shared
    /// at some point (it may currently be evicted; see
    /// [`ServeShard::frame_resident`]).
    pub fn has_frame(&self, stream_id: StreamId, frame_index: usize) -> bool {
        self.sessions
            .get(&stream_id)
            .is_some_and(|e| e.frames.knows(frame_index))
    }

    /// Whether the frame's content is currently resident in the stream's
    /// cache (a known-but-evicted frame triggers the
    /// [`ServerToClient::NeedFrame`] recovery path instead of service).
    pub fn frame_resident(&self, stream_id: StreamId, frame_index: usize) -> bool {
        self.sessions
            .get(&stream_id)
            .is_some_and(|e| e.frames.resident(frame_index))
    }

    /// Ids of all currently registered streams.
    pub fn session_ids(&self) -> Vec<StreamId> {
        self.sessions.keys().copied().collect()
    }

    /// Virtual cost of adding one more slot to a co-scheduled batch of
    /// `batch` frames.
    pub fn marginal_batch_cost(&self, batch: usize) -> f64 {
        self.teacher.batched_inference_latency(batch + 1)
            - self.teacher.batched_inference_latency(batch)
    }

    /// Whether growing the co-scheduling window beyond `batch` still
    /// amortizes teacher time.
    ///
    /// Judged on the *measured* marginal batched-forward cost when the shard
    /// has timed enough batched forwards ([`TeacherCostProfile`]); until
    /// then — or when forwards are too fast to time — on the teacher's
    /// virtual latency model (marginal virtual cost below a solo forward).
    pub fn batch_growth_pays(&self, batch: usize) -> bool {
        match self.costs.growth_pays(batch) {
            Some(pays) => pays,
            None => self.marginal_batch_cost(batch) < self.teacher.inference_latency(),
        }
    }

    /// The measured batched-forward cost profile collected so far.
    pub fn measured_costs(&self) -> &TeacherCostProfile {
        &self.costs
    }

    /// Process a co-scheduled batch of key frames: one batched teacher
    /// forward across the batch, then per-stream distillation in scheduling
    /// order. Jobs whose stream or frame is unknown are returned in
    /// [`BatchOutcome::dropped`] and counted in
    /// [`ShardStats::dropped_jobs`] — never silently discarded.
    pub fn process_batch(&mut self, jobs: &[ShardJob]) -> Result<BatchOutcome> {
        // Resolve which jobs are servable. Frames stay where they are — they
        // are borrowed for labelling and distillation, never copied (a frame
        // is the whole RGB tensor plus its ground truth). A known frame that
        // was evicted from the stream's cache is reported in `needs_frame`
        // rather than dropped: the content is recoverable from the client.
        let mut dropped: Vec<(ShardJob, DropReason)> = Vec::new();
        let mut needs_frame: Vec<ShardJob> = Vec::new();
        let mut resolved: Vec<ShardJob> = Vec::new();
        for job in jobs {
            match self.sessions.get_mut(&job.stream_id) {
                None => dropped.push((*job, DropReason::UnknownStream)),
                Some(entry) => {
                    if !entry.frames.knows(job.frame_index) {
                        dropped.push((*job, DropReason::UnknownFrame));
                    } else if !entry.frames.touch(job.frame_index) {
                        // `touch` marks the frame most-recently-used (and
                        // tells us whether it is resident), so the frames a
                        // batch is about to read are the last the budget
                        // would evict.
                        needs_frame.push(*job);
                    } else {
                        resolved.push(*job);
                    }
                }
            }
        }
        self.stats.dropped_jobs += dropped.len();
        self.stats.need_frame_requests += needs_frame.len();
        if resolved.is_empty() {
            return Ok(BatchOutcome {
                responses: Vec::new(),
                dropped,
                needs_frame,
            });
        }

        // One teacher forward pass amortized over the co-scheduled frames,
        // timed so the adaptive batcher grows on measured marginal cost.
        let batch = resolved.len();
        let teacher_started = Instant::now();
        let labels = {
            let frame_refs: Vec<&Frame> = resolved
                .iter()
                .map(|job| {
                    let Some(frame) = self.sessions[&job.stream_id].frames.peek(job.frame_index)
                    else {
                        unreachable!("frame resident: touched above")
                    };
                    frame
                })
                .collect();
            self.teacher.pseudo_label_batch(&frame_refs)?
        };
        let teacher_elapsed = teacher_started.elapsed();
        self.stats.teacher_wall_time += teacher_elapsed;
        self.costs.record(batch, teacher_elapsed.as_secs_f64());
        let solo_cost = batch as f64 * self.teacher.inference_latency();
        let batched_cost = self.teacher.batched_inference_latency(batch);
        let teacher_share = batched_cost / batch as f64;
        self.stats.teacher_batches += 1;
        self.stats.max_batch_observed = self.stats.max_batch_observed.max(batch);
        self.stats.teacher_time_saved += solo_cost - batched_cost;

        let mut out = Vec::with_capacity(batch);
        for (job, label) in resolved.into_iter().zip(labels) {
            let Some(entry) = self.sessions.get_mut(&job.stream_id) else {
                unreachable!("session present: resolved above")
            };
            // Split the entry so the frame borrow and the mutable session
            // borrow coexist.
            let StreamEntry {
                session, frames, ..
            } = entry;
            let Some(frame) = frames.peek(job.frame_index) else {
                unreachable!("frame resident: touched above")
            };
            let response = session.distill(frame, &label, teacher_share)?;
            self.stats.key_frames += 1;
            self.stats.distill_steps += response.outcome.steps;
            self.stats.virtual_server_time += response.server_time;
            out.push((job.stream_id, job.frame_index, response));
        }
        Ok(BatchOutcome {
            responses: out,
            dropped,
            needs_frame,
        })
    }

    /// Finish a stream: remove its session, returning the final full
    /// checkpoint and the stream's counters (distillation half only — the
    /// pool worker merges in waits/throttles/drops). The stream's
    /// frame-cache counters are folded into this shard's [`ShardStats`]
    /// here, so a migrated stream's evictions land where it finished.
    pub fn finish(&mut self, stream_id: StreamId) -> Option<(WeightSnapshot, StreamServerStats)> {
        self.sessions.remove(&stream_id).map(|mut entry| {
            let checkpoint = entry.session.initial_checkpoint();
            let stats = entry.session.stats();
            self.stats.frame_evictions += entry.frames.evictions();
            self.stats.frame_bytes_peak =
                self.stats.frame_bytes_peak.max(entry.frames.peak_bytes());
            (checkpoint, stats)
        })
    }

    /// The shard's counters so far.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// The teacher shared by this shard's streams.
    pub fn teacher_mut(&mut self) -> &mut T {
        &mut self.teacher
    }
}

/// A stream-tagged uplink message queued at a shard.
#[derive(Clone)]
struct Envelope {
    tagged: StreamTagged<ClientToServer>,
    bytes: usize,
    enqueued_at: Instant,
    /// Out-of-band frame content for [`ClientToServer::ReShare`]: the wire
    /// message carries encoded pixels for realistic sizes, and the
    /// in-process transport ships the actual `Frame` beside it, exactly as
    /// connect-time pre-sharing does.
    frame: Option<Frame>,
}

/// Pool-wide measured wire traffic: the framed byte size
/// ([`st_net::wire::frame_len`]) of every uplink envelope the clients sent
/// and every downlink message the shards delivered. Unlike the modelled
/// `bytes` ridealong, these are the sizes the versioned binary codec would
/// actually put on a wire, so `PoolReport::wire_bytes_up/down` stay honest
/// regardless of which transport backend carried the messages.
#[derive(Debug, Default)]
struct WireMeter {
    up: AtomicUsize,
    down: AtomicUsize,
}

/// The sending half of one stream's downlink (wire size + message), with an
/// optional readiness waker: a client connected through
/// [`ServerPool::connect_with_waker`] is woken after every downlink send, so
/// a single driver loop can multiplex many clients through one
/// [`st_net::Poller`] instead of blocking per stream.
#[derive(Clone)]
struct Downlink {
    tx: crossbeam::channel::Sender<(usize, ServerToClient)>,
    waker: Option<st_net::Waker>,
    wire: Arc<WireMeter>,
}

impl Downlink {
    fn send(&self, bytes: usize, message: ServerToClient) -> bool {
        let wire_len = st_net::wire::frame_len(&message);
        let delivered = self.tx.send((bytes, message)).is_ok();
        if delivered {
            // ORDER: Relaxed — a monotonic traffic counter; readers only see
            // it after join() synchronizes with every worker's exit.
            self.wire.down.fetch_add(wire_len, Ordering::Relaxed);
            if let Some(waker) = &self.waker {
                waker.wake();
            }
        }
        delivered
    }
}

/// Per-stream connection state the worker looks up when a `Register`
/// message arrives: the downlink back to the client and the pre-shared
/// frame content.
struct StreamLink {
    downlink: Downlink,
    frames: FrameStore,
}

type Registry = Arc<Mutex<HashMap<StreamId, StreamLink>>>;

/// One stream's live shard assignment. Clients hold their own `Arc` and
/// read it with a single atomic load per send — the pool-wide map is only
/// locked on connect, migration, and worker-side forwarding lookups, so
/// uplink traffic never serializes on a global mutex.
type Route = Arc<AtomicUsize>;

/// The live stream → shard routing table, shared by the pool (placement +
/// duplicate detection) and every worker (to forward traffic that raced a
/// migration); each [`StreamClient`] holds its own entry's [`Route`]
/// directly, so a migrated stream's traffic follows it. An entry is never
/// removed — a stream id stays reserved for the pool's lifetime.
type Placements = Arc<Mutex<HashMap<StreamId, Route>>>;

/// A whole stream in flight between two shards: everything the thief needs
/// to continue serving it exactly where the victim stopped.
struct MigratedStream {
    stream_id: StreamId,
    /// The donating shard — the thief re-homes the stream's checkpoint
    /// replica from this slot to its own.
    from_shard: usize,
    entry: StreamEntry,
    downlink: Downlink,
    meter: StreamMeter,
    /// The stream's still-queued jobs, FIFO order, original arrival times.
    jobs: Vec<ScheduledJob>,
    /// Jobs parked waiting for a frame re-share, keyed by frame index
    /// (every job waiting on that index).
    awaiting: Vec<(usize, Vec<ScheduledJob>)>,
}

/// The pool's instantiation of the generic work-stealing coordination core
/// ([`crate::steal::StealCore`]): migrated payloads are whole serving
/// sessions, forwarded payloads are uplink envelopes. The request-slot and
/// mailbox protocol lives in `steal.rs`, where the model-check suite
/// explores it exhaustively; this file only decides *when* to post, donate,
/// withdraw and close.
type StealRegistry = StealCore<MigratedStream, Envelope>;

/// A freshly adopted stream cannot be donated onward for this long, so a
/// backlogged stream ping-ponging between idle shards is bounded to one
/// hop per cooldown (and gets real service in between).
const STEAL_STICKY: Duration = Duration::from_millis(100);

/// A steal request left unanswered this long is withdrawn and re-targeted:
/// the victim it sits at may never become donatable (a lone backlogged
/// session, say) while some other shard's backlog deepens.
const STEAL_RETARGET: Duration = Duration::from_millis(100);

/// What one shard state machine hands back when it finishes. Tagged with
/// the shard index because under the reactor driver one OS thread finalizes
/// whichever shards it happens to dispatch last — collection order is not
/// shard order.
struct ShardOutput {
    shard: usize,
    stats: ShardStats,
    streams: HashMap<StreamId, StreamServerStats>,
    final_checkpoints: HashMap<StreamId, WeightSnapshot>,
    wait_samples: Vec<f64>,
    /// One death-to-adoption latency sample (seconds) per takeover this
    /// shard performed as a standby.
    takeover_samples: Vec<f64>,
}

/// Render a caught panic payload for the failure report. Panics raised with
/// a string literal or a formatted message (the overwhelmingly common
/// cases, including injected faults) come through verbatim.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "shard worker panicked".to_string()
    }
}

/// Send one downlink message, counting the loss when the client already
/// hung up. A vanished client only loses its own acks, but the loss is
/// *counted* (`ShardStats::lost_acks`), never silently discarded — the
/// failover paths depend on every drop being observable.
fn deliver(downlink: &Downlink, bytes: usize, msg: ServerToClient, lost_acks: &mut usize) {
    if !downlink.send(bytes, msg) {
        *lost_acks += 1;
    }
}

/// Liveness sentinel: the shard's worker died with a panic.
const LIVENESS_DEAD: u64 = u64::MAX;
/// Liveness sentinel: the shard ran its exit protocol to completion.
const LIVENESS_FINISHED: u64 = u64::MAX - 1;

/// A shard worker's death certificate.
#[derive(Debug, Clone)]
struct ShardDeath {
    /// The worker's actual panic payload.
    panic_msg: String,
    /// When the death was published — takeover latency is measured from
    /// here to the standby's adoption.
    died_at: Instant,
}

/// The pool's non-generic failover blackboard, shared by the pool handle
/// (which is not generic over the teacher) and every worker.
///
/// Liveness is a per-shard epoch: live workers bump theirs every pass, a
/// death stores [`LIVENESS_DEAD`], a clean exit [`LIVENESS_FINISHED`]. The
/// `claimed` slots are the adoption lock — exactly one standby wins the
/// compare-exchange and performs the takeover; `recovered` confirms the
/// takeover actually completed, so a standby that dies *mid-takeover*
/// still surfaces as a failure instead of a hang.
struct FailoverBoard {
    liveness: Vec<AtomicU64>,
    /// CAS guard: set by the standby that won the right to adopt.
    claimed: Vec<AtomicBool>,
    /// Set once the standby finished adopting the shard's streams.
    recovered: Vec<AtomicBool>,
    deaths: Vec<Mutex<Option<ShardDeath>>>,
    /// Final outputs of dead shards, assembled from their carcasses by the
    /// adopting standby (a dead worker returns nothing through its join
    /// handle).
    dead_outputs: Mutex<Vec<ShardOutput>>,
    /// Shards finalized so far (clean exits and completed adoptions); the
    /// reactor's worker set exits when this reaches the shard count.
    finished: AtomicUsize,
    /// Whether checkpoint replication (and hence standby adoption) is on.
    replication: bool,
}

impl FailoverBoard {
    fn new(shards: usize, replication: bool) -> Self {
        FailoverBoard {
            liveness: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            claimed: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            recovered: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            deaths: (0..shards).map(|_| Mutex::new(None)).collect(),
            dead_outputs: Mutex::new(Vec::new()),
            finished: AtomicUsize::new(0),
            replication,
        }
    }

    /// Bump the shard's liveness epoch (one per pass). The sentinels are
    /// terminal: a dead or finished shard never looks live again.
    fn beat(&self, shard: usize) {
        let cell = &self.liveness[shard];
        // ORDER: the epoch has a single writer (the hosting worker), so a
        // relaxed read of our own last store is exact.
        let epoch = cell.load(Ordering::Relaxed);
        if epoch < LIVENESS_FINISHED {
            // ORDER: single writer per live shard; Release pairs with the
            // SeqCst readers below.
            cell.store(epoch + 1, Ordering::Release);
        }
    }

    /// Publish a death: certificate first, then the liveness sentinel, so
    /// any observer of `is_dead` finds the certificate present.
    fn mark_dead(&self, shard: usize, panic_msg: String) {
        *locked(&self.deaths[shard]) = Some(ShardDeath {
            panic_msg,
            died_at: Instant::now(),
        });
        self.liveness[shard].store(LIVENESS_DEAD, Ordering::SeqCst);
    }

    fn mark_finished(&self, shard: usize) {
        self.liveness[shard].store(LIVENESS_FINISHED, Ordering::SeqCst);
    }

    fn is_dead(&self, shard: usize) -> bool {
        self.liveness[shard].load(Ordering::SeqCst) == LIVENESS_DEAD
    }

    fn is_finished(&self, shard: usize) -> bool {
        self.liveness[shard].load(Ordering::SeqCst) == LIVENESS_FINISHED
    }

    /// Win (or lose) the exclusive right to adopt a dead shard.
    fn try_claim(&self, shard: usize) -> bool {
        self.claimed[shard]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn death_instant(&self, shard: usize) -> Option<Instant> {
        locked(&self.deaths[shard]).as_ref().map(|d| d.died_at)
    }

    /// File a dead shard's final output (assembled from its carcass) and
    /// mark the shard recovered.
    fn push_dead_output(&self, output: ShardOutput) {
        let shard = output.shard;
        locked(&self.dead_outputs).push(output);
        self.recovered[shard].store(true, Ordering::SeqCst);
        self.finished.fetch_add(1, Ordering::SeqCst);
    }

    fn take_dead_outputs(&self) -> Vec<ShardOutput> {
        std::mem::take(&mut *locked(&self.dead_outputs))
    }

    /// Record one more finalized shard; returns the new total.
    fn note_finished(&self) -> usize {
        self.finished.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn finished_count(&self) -> usize {
        self.finished.load(Ordering::SeqCst)
    }

    /// A death no standby recovered from (replication off, or the standby
    /// itself died — possibly mid-takeover). `join` turns this into
    /// [`PoolError::WorkerFailed`].
    fn unrecovered_death(&self) -> Option<(usize, String)> {
        (0..self.liveness.len()).find_map(|shard| {
            if !self.is_dead(shard) || self.recovered[shard].load(Ordering::SeqCst) {
                return None;
            }
            let msg = locked(&self.deaths[shard])
                .as_ref()
                .map(|death| death.panic_msg.clone())
                .unwrap_or_else(|| "shard worker panicked".to_string());
            Some((shard, msg))
        })
    }

    /// A dead shard that can never be adopted: replication off, or its
    /// standby (the next shard) is itself dead or already finished. The
    /// reactor aborts on this instead of waiting forever.
    fn has_orphan_death(&self) -> bool {
        let shards = self.liveness.len();
        (0..shards).any(|shard| {
            if !self.is_dead(shard) || self.recovered[shard].load(Ordering::SeqCst) {
                return false;
            }
            if !self.replication {
                return true;
            }
            let standby = (shard + 1) % shards;
            self.is_dead(standby) || self.is_finished(standby)
        })
    }
}

/// Everything the failover protocol shares between workers, generic over
/// the teacher: the hosted shard-state slots, the blackboard, and the
/// checkpoint-replica store.
///
/// `states[i]` hosts shard *i*'s machine until the shard finishes (slot
/// emptied) or dies (the carcass stays in the slot for its standby). A
/// reactor worker holds a slot's guard only for one pass, and a dying pass
/// unwinds inside `catch_unwind` before the guard drops, so the standby
/// finds the carcass in an unpoisoned slot.
struct FailoverShared<T: Teacher> {
    states: Vec<Mutex<Option<ShardState<T>>>>,
    board: Arc<FailoverBoard>,
    replicas: Option<Arc<ReplicaStore>>,
}

/// The client's endpoint onto the pool: same surface as the single-stream
/// transport, but every uplink message is stream-tagged and lands in the
/// owning shard's queue. The owning shard is looked up per send, so when
/// work stealing migrates the stream its traffic follows it to the new
/// shard (messages already queued at the old shard are forwarded by that
/// shard's worker).
pub struct StreamClient {
    stream_id: StreamId,
    uplinks: Arc<Vec<crossbeam::channel::Sender<Envelope>>>,
    /// The stream's live shard assignment (shared with the routing table;
    /// migrations store the new shard here).
    route: Route,
    downlink: crossbeam::channel::Receiver<(usize, ServerToClient)>,
    /// Per-shard wakers, indexed like `uplinks`. Every uplink send wakes
    /// the owning shard's token so a reactor worker dispatches it.
    shard_wakers: Arc<Vec<st_net::Waker>>,
    /// Pool-wide measured-traffic counters (this client credits uplink).
    wire: Arc<WireMeter>,
    /// Failover blackboard, consulted by [`ClientEndpoint::reconnect`]: a
    /// client caught mid-takeover can tell whether its routed shard is a
    /// carcass (retry later) or live again (resume sending).
    board: Arc<FailoverBoard>,
    /// Latched when the downlink channel reports disconnected. The downlink
    /// sender survives takeovers (it moves with the session), so a closed
    /// downlink means the session itself is gone — no reconnect re-dials it.
    downlink_closed: bool,
}

impl StreamClient {
    /// The stream this client speaks for.
    pub fn stream_id(&self) -> StreamId {
        self.stream_id
    }

    /// Answer a [`ServerToClient::NeedFrame`]: re-upload a frame the server
    /// evicted from the stream's bounded cache. The wire cost is the same as
    /// the original key-frame upload; the parked job resumes (and its
    /// `StudentUpdate` arrives) once the content lands.
    pub fn reshare(&mut self, frame: &Frame) -> std::result::Result<(), TransportError> {
        let payload = Payload::sized(frame.raw_rgb_bytes());
        let bytes = payload.bytes;
        self.send_envelope(
            ClientToServer::ReShare {
                frame_index: frame.index,
                payload,
            },
            bytes,
            Some(frame.clone()),
        )
    }

    fn send_envelope(
        &mut self,
        message: ClientToServer,
        bytes: usize,
        frame: Option<Frame>,
    ) -> std::result::Result<(), TransportError> {
        let shard = self.route.load(Ordering::SeqCst);
        let tagged = StreamTagged::new(self.stream_id, message);
        // The measured uplink cost of this envelope: the framed tagged
        // message, plus the frame content when it rides along (a re-share
        // re-uploads real pixels).
        let wire_len =
            st_net::wire::frame_len(&tagged) + frame.as_ref().map_or(0, st_net::wire::frame_len);
        self.uplinks[shard]
            .send(Envelope {
                tagged,
                bytes: StreamTagged::<ClientToServer>::tagged_bytes(bytes),
                enqueued_at: Instant::now(),
                frame,
            })
            .map_err(|_| TransportError::Disconnected)?;
        // ORDER: Relaxed — a monotonic traffic counter; readers only see it
        // after join() synchronizes with every worker's exit.
        self.wire.up.fetch_add(wire_len, Ordering::Relaxed);
        self.shard_wakers[shard].wake();
        Ok(())
    }
}

impl ClientEndpoint for StreamClient {
    fn send(
        &mut self,
        message: ClientToServer,
        bytes: usize,
    ) -> std::result::Result<(), TransportError> {
        self.send_envelope(message, bytes, None)
    }

    fn try_recv(&mut self) -> std::result::Result<Option<ServerToClient>, TransportError> {
        match self.downlink.try_recv() {
            Ok((_bytes, msg)) => Ok(Some(msg)),
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                self.downlink_closed = true;
                Err(TransportError::Disconnected)
            }
        }
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> std::result::Result<ServerToClient, TransportError> {
        match self.downlink.recv_timeout(timeout) {
            Ok((_bytes, msg)) => Ok(msg),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                self.downlink_closed = true;
                Err(TransportError::Disconnected)
            }
        }
    }

    /// Re-dial after a takeover: the adoption flips this stream's shared
    /// route, so re-reading it *is* the reconnect. `Ok(())` once the
    /// routed shard is live again; `Err(Timeout)` while it is still a
    /// carcass (back off and retry — a standby may adopt it);
    /// `Err(Disconnected)` once the session itself is gone (closed
    /// downlink), which no retry re-dials.
    fn reconnect(&mut self) -> std::result::Result<(), TransportError> {
        if self.downlink_closed {
            return Err(TransportError::Disconnected);
        }
        let shard = self.route.load(Ordering::SeqCst);
        if self.board.is_dead(shard) {
            Err(TransportError::Timeout)
        } else {
            Ok(())
        }
    }
}

/// A sharded pool of distillation workers serving many client streams.
///
/// An event-driven reactor hosts every shard's `ShardState` machine on a
/// fixed set of worker threads ([`PoolConfig::reactor_threads`], one per
/// shard by default), woken by send-side readiness tokens and a
/// hierarchical timer wheel. The worker count never changes what a stream
/// is served.
pub struct ServerPool {
    pool_config: PoolConfig,
    uplinks: Arc<Vec<crossbeam::channel::Sender<Envelope>>>,
    registries: Vec<Registry>,
    /// Steal-coordination state (also carries the per-shard session counts
    /// that drive least-loaded placement).
    steal: Arc<StealRegistry>,
    /// Stream → shard placements made so far, shared with clients (send
    /// routing) and workers (migration + forwarding). A stream id stays
    /// reserved for the pool's lifetime; reconnecting a finished id needs a
    /// new pool.
    placements: Placements,
    /// One handle per reactor worker thread, each returning the outputs of
    /// whichever shards it finalized.
    workers: Vec<std::thread::JoinHandle<Result<Vec<ShardOutput>>>>,
    /// Measured wire traffic for the whole pool, shared with every
    /// [`StreamClient`] (uplink) and [`Downlink`] (downlink).
    wire: Arc<WireMeter>,
    /// Per-shard readiness wakers. `join` wakes every shard once the
    /// uplinks are dropped so each one observes the disconnect and runs its
    /// exit protocol.
    shard_wakers: Arc<Vec<st_net::Waker>>,
    /// Failover blackboard: worker deaths, adoption claims, and the dead
    /// shards' standby-assembled final outputs.
    board: Arc<FailoverBoard>,
    /// The pool-wide content-addressed chunk store (template + replicas).
    store: Arc<WeightStore>,
    /// The interned pristine template, pinned for the pool's lifetime so
    /// replica publishes always dedup frozen stages against it. Released
    /// at `join`.
    template_checkpoint: Option<CheckpointRef>,
}

impl ServerPool {
    /// Spawn the pool: `pool_config.shards` shard state machines hosted by
    /// the reactor's worker threads. Each shard gets its own teacher from
    /// `teacher_factory(shard_index)` and serves sessions cloned from
    /// `template`.
    pub fn spawn<T, F>(
        config: ShadowTutorConfig,
        pool_config: PoolConfig,
        mut template: StudentNet,
        distill_step_latency: f64,
        mut teacher_factory: F,
    ) -> Result<ServerPool>
    where
        T: Teacher + Send + 'static,
        F: FnMut(usize) -> T,
    {
        config.validate()?;
        pool_config.validate()?;
        let steal = Arc::new(StealRegistry::new(pool_config.shards));
        let placements: Placements = Arc::new(Mutex::new(HashMap::new()));
        let wire = Arc::new(WireMeter::default());
        let board = Arc::new(FailoverBoard::new(
            pool_config.shards,
            pool_config.replication,
        ));
        // The pool-wide content-addressed chunk store. The pristine template
        // is interned up front, so every later replica publish dedups its
        // frozen stages against the template's chunks from the first byte.
        let store = Arc::new(WeightStore::new());
        let (template_checkpoint, _) =
            store.intern(&WeightSnapshot::capture(&mut template, SnapshotScope::Full));
        let replicas = pool_config
            .replication
            .then(|| Arc::new(ReplicaStore::new(pool_config.shards, Arc::clone(&store))));
        // All shard state machines live behind mutexes, hosted by a fixed
        // worker set woken by readiness tokens (one token per shard) and a
        // shared timer wheel.
        let poller = st_net::Poller::new();
        let shard_wakers: Arc<Vec<st_net::Waker>> =
            Arc::new((0..pool_config.shards).map(|i| poller.waker(i)).collect());
        let mut uplinks = Vec::with_capacity(pool_config.shards);
        let mut registries = Vec::with_capacity(pool_config.shards);
        let mut states = Vec::with_capacity(pool_config.shards);
        for shard_index in 0..pool_config.shards {
            let (tx, rx) = crossbeam::channel::unbounded::<Envelope>();
            let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
            let shard = ServeShard::new(
                config,
                template.clone(),
                teacher_factory(shard_index),
                distill_step_latency,
            )
            .with_session_weights(pool_config.session_weights);
            states.push(Mutex::new(Some(ShardState::new(
                shard,
                rx,
                Arc::clone(&registry),
                pool_config,
                shard_index,
                Arc::clone(&steal),
                Arc::clone(&placements),
                Arc::clone(&shard_wakers),
                Arc::clone(&board),
                replicas.clone(),
            ))));
            uplinks.push(tx);
            registries.push(registry);
        }
        let failover = Arc::new(FailoverShared {
            states,
            board: Arc::clone(&board),
            replicas,
        });
        let shared = Arc::new(ReactorShared {
            failover,
            poller,
            timers: Mutex::new(TimerWheel::new(Instant::now(), Duration::from_millis(1))),
            aborted: AtomicBool::new(false),
            rerun: (0..pool_config.shards)
                .map(|_| AtomicBool::new(false))
                .collect(),
            shard_wakers: Arc::clone(&shard_wakers),
            steal_poll: pool_config.steal_poll,
        });
        let threads = pool_config.reactor_threads.unwrap_or(pool_config.shards);
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || run_reactor_worker(shared))
            })
            .collect();
        // Kick every shard once so each runs an initial pass. Without this,
        // a shard that never receives traffic would also never join the
        // steal protocol (the idle tick chain is armed by passes, and passes
        // are armed by wakes).
        for waker in shard_wakers.iter() {
            waker.wake();
        }
        Ok(ServerPool {
            pool_config,
            uplinks: Arc::new(uplinks),
            registries,
            steal,
            placements,
            workers,
            shard_wakers,
            wire,
            board,
            store,
            template_checkpoint: Some(template_checkpoint),
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> PoolConfig {
        self.pool_config
    }

    /// Current registered-session count of each shard.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.steal.loads_snapshot()
    }

    /// Connect a new stream: choose its shard per the placement policy,
    /// pre-share its frame content with that shard, enqueue its `Register`
    /// message, and return the client's endpoint. The first downlink message
    /// is the initial student checkpoint.
    ///
    /// Errors if the stream id is already connected to this pool — a second
    /// connect would silently clobber the first session's downlink and
    /// pre-shared frames mid-flight.
    ///
    /// # Example
    ///
    /// ```
    /// use shadowtutor::config::ShadowTutorConfig;
    /// use shadowtutor::serve::{PoolConfig, ServerPool};
    /// use st_net::transport::ClientEndpoint;
    /// use st_net::{ClientToServer, ServerToClient};
    /// use st_nn::student::{StudentConfig, StudentNet};
    /// use st_teacher::OracleTeacher;
    /// use st_video::dataset::tiny_stream;
    /// use st_video::SceneKind;
    /// use std::time::Duration;
    ///
    /// let pool = ServerPool::spawn(
    ///     ShadowTutorConfig::paper(),
    ///     PoolConfig::with_shards(1),
    ///     StudentNet::new(StudentConfig::tiny()).unwrap(),
    ///     0.013,
    ///     |_shard| OracleTeacher::perfect(7),
    /// )
    /// .unwrap();
    ///
    /// // Pre-share the stream's frames and connect; the first downlink
    /// // message is the initial student checkpoint.
    /// let frames = tiny_stream(SceneKind::People, 1, 1);
    /// let mut client = pool.connect(0, &frames).unwrap();
    /// let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    /// assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    ///
    /// client.send(ClientToServer::Shutdown, 1).unwrap();
    /// drop(client);
    /// let stats = pool.join().unwrap();
    /// assert_eq!(stats.streams.len(), 1);
    /// ```
    pub fn connect(&self, stream_id: StreamId, frames: &[Frame]) -> Result<StreamClient> {
        self.connect_with_waker(stream_id, frames, None)
    }

    /// Like [`connect`](Self::connect), but additionally registers a
    /// client-side readiness waker: every downlink delivery for this stream
    /// wakes `waker`'s token. This is what lets one driver thread multiplex
    /// many client endpoints through a single [`st_net::Poller`] instead of
    /// parking one OS thread per client in `recv_timeout`.
    pub fn connect_with_waker(
        &self,
        stream_id: StreamId,
        frames: &[Frame],
        waker: Option<st_net::Waker>,
    ) -> Result<StreamClient> {
        let (shard, route) = {
            let mut placements = locked(&self.placements);
            if placements.contains_key(&stream_id) {
                return Err(TensorError::InvalidArgument(format!(
                    "stream {stream_id} is already connected to this pool"
                )));
            }
            let shard = match self.pool_config.placement {
                PlacementPolicy::StaticModulo => self.pool_config.shard_of(stream_id),
                // Rebalance places like least-loaded; the difference is what
                // happens afterwards (runtime migration).
                PlacementPolicy::LeastLoaded | PlacementPolicy::Rebalance => {
                    self.steal.least_loaded()
                }
            };
            // A dead shard accepts no new streams; place on the
            // least-loaded live shard instead.
            let shard = if self.board.is_dead(shard) {
                let loads = self.steal.loads_snapshot();
                let Some(live) = (0..loads.len())
                    .filter(|&candidate| !self.board.is_dead(candidate))
                    .min_by_key(|&candidate| loads[candidate])
                else {
                    return Err(TensorError::InvalidArgument(
                        "every pool shard has failed".into(),
                    ));
                };
                live
            } else {
                shard
            };
            self.steal.load_inc(shard);
            let route: Route = Arc::new(AtomicUsize::new(shard));
            placements.insert(stream_id, Arc::clone(&route));
            (shard, route)
        };
        let (down_tx, down_rx) = crossbeam::channel::unbounded();
        let content = FrameStore::from_frames(frames, self.pool_config.frame_budget_bytes);
        locked(&self.registries[shard]).insert(
            stream_id,
            StreamLink {
                downlink: Downlink {
                    tx: down_tx,
                    waker,
                    wire: Arc::clone(&self.wire),
                },
                frames: content,
            },
        );
        let mut client = StreamClient {
            stream_id,
            uplinks: Arc::clone(&self.uplinks),
            route,
            downlink: down_rx,
            shard_wakers: Arc::clone(&self.shard_wakers),
            wire: Arc::clone(&self.wire),
            board: Arc::clone(&self.board),
            downlink_closed: false,
        };
        // Registration is the client's first uplink message; sending it here
        // lets callers immediately block on the initial checkpoint. A failed
        // send (the shard worker died) must roll the placement back, or the
        // id would be burned and the shard's load over-counted forever.
        // Delta-negotiating pools register via `RegisterCaps`: an old server
        // build rejects the unknown tag with a typed error instead of
        // mis-decoding, and a plain `Register` keeps meaning bare snapshots.
        let register = if self.pool_config.delta_updates {
            ClientToServer::RegisterCaps {
                supports_delta: true,
            }
        } else {
            ClientToServer::Register
        };
        if client.send(register, MESSAGE_OVERHEAD_BYTES).is_err() {
            locked(&self.registries[shard]).remove(&stream_id);
            self.steal.load_dec(shard);
            locked(&self.placements).remove(&stream_id);
            return Err(TensorError::InvalidArgument(
                "server pool worker is not accepting connections".into(),
            ));
        }
        Ok(client)
    }

    /// Drop the pool's uplink handles and join every worker, collecting the
    /// aggregate statistics. Clients must have dropped (or finished with)
    /// their `StreamClient`s for the workers' queues to disconnect.
    ///
    /// A worker death no standby recovered from (replication off, or the
    /// standby itself was gone) surfaces as [`PoolError::WorkerFailed`],
    /// carrying the shard index and the actual panic payload. Recovered
    /// deaths are not errors: the adopted shards' reports — assembled by
    /// their standby — appear in the stats like everyone else's.
    pub fn join(mut self) -> std::result::Result<PoolStats, PoolError> {
        drop(self.uplinks);
        drop(self.registries);
        // Shards park until a token wakes them; with the uplinks now gone,
        // one wake per shard is enough for each to observe the disconnect
        // and run its exit protocol.
        for waker in self.shard_wakers.iter() {
            waker.wake();
        }
        let shards = self.pool_config.shards;
        let mut outputs: Vec<ShardOutput> = Vec::with_capacity(shards);
        for (worker_index, worker) in self.workers.into_iter().enumerate() {
            match worker.join() {
                Ok(result) => outputs.extend(result?),
                // A panic that escaped the worker's own catch_unwind (e.g.
                // in the reactor's timer plumbing). Workers are not tied to
                // shards, so the worker index is only the best attribution
                // available here.
                Err(payload) => {
                    return Err(PoolError::WorkerFailed {
                        shard: worker_index,
                        panic_msg: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        // Dead shards return nothing through their join handles; their
        // standby filed their outputs on the board.
        outputs.extend(self.board.take_dead_outputs());
        if let Some((shard, panic_msg)) = self.board.unrecovered_death() {
            return Err(PoolError::WorkerFailed { shard, panic_msg });
        }
        // Reactor workers finalize shards in completion order; present the
        // report in shard order.
        outputs.sort_by_key(|output| output.shard);
        // Measure the store *before* releasing the template pin, so the
        // report reflects what the run actually held resident.
        let store_resident_bytes = self.store.resident_bytes();
        let store_chunk_count = self.store.chunk_count();
        if let Some(template_checkpoint) = self.template_checkpoint.take() {
            self.store.release(template_checkpoint);
        }
        let mut stats = PoolStats {
            shards: Vec::with_capacity(shards),
            streams: HashMap::new(),
            final_checkpoints: HashMap::new(),
            wait_samples: Vec::with_capacity(shards),
            takeover_samples: Vec::new(),
            // ORDER: Relaxed — every writer has been joined above; these
            // loads cannot race.
            wire_bytes_up: self.wire.up.load(Ordering::Relaxed),
            wire_bytes_down: self.wire.down.load(Ordering::Relaxed),
            store_resident_bytes,
            store_chunk_count,
        };
        for output in outputs {
            stats.shards.push(output.stats);
            stats.streams.extend(output.streams);
            stats.final_checkpoints.extend(output.final_checkpoints);
            stats.wait_samples.push(output.wait_samples);
            stats.takeover_samples.extend(output.takeover_samples);
        }
        Ok(stats)
    }
}

/// Per-stream wall-clock accounting the worker keeps alongside the shard
/// (waits and admission decisions are only visible at the worker).
#[derive(Debug, Default, Clone, Copy)]
struct StreamMeter {
    wait_total: Duration,
    wait_max: Duration,
    throttled: usize,
    dropped: usize,
}

/// Wall-clock accumulators merged into [`ShardStats`] when the worker exits.
#[derive(Debug, Default)]
struct WorkerClock {
    queue_wait_total: Duration,
    queue_wait_max: Duration,
    busy_time: Duration,
    /// One wait sample (seconds) per key frame a batch attempted, in
    /// service order — the raw material of the operator report's p50/p99.
    wait_samples: Vec<f64>,
}

/// Jobs parked per stream while the client re-uploads an evicted frame,
/// keyed by frame index. They keep their original arrival timestamps so the
/// eventual wait accounting covers the whole recovery round trip. A frame
/// index maps to *every* job waiting on it (a client may legally re-send a
/// key frame), so one re-share resumes — and one answer reaches — each of
/// them.
type AwaitingFrames = HashMap<StreamId, HashMap<usize, Vec<ScheduledJob>>>;

/// Run one fair co-scheduled batch through the shard and route every
/// response (update, drop ack, or `NeedFrame` recovery request) to its
/// stream's downlink. Jobs whose frame content was evicted are parked in
/// `awaiting` rather than counted — their wait keeps running until they are
/// actually served after the re-share. Every *newly sent* `NeedFrame`
/// request is appended to `need_frames_sent` so the reactor can arm a retry
/// timer for it.
///
/// Returns the streams whose session state advanced (an update was
/// computed), i.e. exactly the set whose checkpoint replicas are now stale
/// and must be re-published.
#[allow(clippy::too_many_arguments)]
fn process_scheduled<T: Teacher>(
    shard: &mut ServeShard<T>,
    batch: &[ScheduledJob],
    downlinks: &HashMap<StreamId, Downlink>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    clock: &mut WorkerClock,
    awaiting: &mut AwaitingFrames,
    need_frames_sent: &mut Vec<(StreamId, usize)>,
    lost_acks: &mut usize,
) -> Result<Vec<StreamId>> {
    if batch.is_empty() {
        return Ok(Vec::new());
    }
    let started = Instant::now();
    let jobs: Vec<ShardJob> = batch.iter().map(|s| s.job).collect();
    let outcome = shard.process_batch(&jobs)?;
    let parked: std::collections::HashSet<(StreamId, usize)> = outcome
        .needs_frame
        .iter()
        .map(|j| (j.stream_id, j.frame_index))
        .collect();
    for scheduled in batch {
        let key = (scheduled.job.stream_id, scheduled.job.frame_index);
        if parked.contains(&key) {
            let jobs = awaiting.entry(key.0).or_default().entry(key.1).or_default();
            // One NeedFrame per missing frame, not per waiting job: the
            // first park requests the content, later jobs for the same
            // index just join the queue behind that outstanding request
            // (a duplicate request would only buy a duplicate full-frame
            // upload).
            let request_content = jobs.is_empty();
            jobs.push(*scheduled);
            if request_content {
                if let Some(downlink) = downlinks.get(&key.0) {
                    deliver(
                        downlink,
                        MESSAGE_OVERHEAD_BYTES,
                        ServerToClient::NeedFrame { frame_index: key.1 },
                        lost_acks,
                    );
                }
                need_frames_sent.push(key);
            }
            continue;
        }
        let wait = started.saturating_duration_since(scheduled.enqueued_at);
        clock.queue_wait_total += wait;
        clock.queue_wait_max = clock.queue_wait_max.max(wait);
        clock.wait_samples.push(wait.as_secs_f64());
        let meter = meters.entry(scheduled.job.stream_id).or_default();
        meter.wait_total += wait;
        meter.wait_max = meter.wait_max.max(wait);
    }
    let mut updated: Vec<StreamId> = Vec::new();
    for (stream_id, frame_index, response) in outcome.responses {
        // The session advanced whether or not the client is still there —
        // the replica must follow the weights, not the downlink.
        if !updated.contains(&stream_id) {
            updated.push(stream_id);
        }
        let Some(downlink) = downlinks.get(&stream_id) else {
            continue;
        };
        // Delta-negotiated streams receive a [`WeightPayload`] envelope:
        // the changed chunks against the client's last-acked checkpoint
        // when the stream is known synced, a full snapshot otherwise (a
        // fresh or failover-restored stream re-syncs on its next update).
        // The digest is patched only here — for an update actually put on
        // the downlink — so a stream whose client vanished never advances
        // the base the client is assumed to hold.
        let (encoded, delta_meter) = match shard.delta_track_mut(stream_id) {
            Some(track) => {
                let full_equiv = 1 + response.update.encoded_len();
                if track.synced {
                    let delta = WeightDelta::compute(&response.update, &track.digest);
                    track.digest.patch(&response.update);
                    (
                        Bytes::from(Wire::encode(&WeightPayload::Delta(delta))),
                        Some((true, full_equiv)),
                    )
                } else {
                    track.digest.patch(&response.update);
                    track.synced = true;
                    (
                        Bytes::from(WeightPayload::encode_full(&response.update)),
                        Some((false, full_equiv)),
                    )
                }
            }
            None => (response.update.encode(), None),
        };
        if let Some((is_delta, full_equiv)) = delta_meter {
            if is_delta {
                shard.stats.delta_updates_sent += 1;
            } else {
                shard.stats.full_updates_sent += 1;
            }
            shard.stats.update_bytes_sent += encoded.len();
            shard.stats.update_bytes_full_equiv += full_equiv;
        }
        let payload = Payload::with_data(encoded);
        let bytes = payload.bytes;
        let msg = ServerToClient::StudentUpdate {
            frame_index,
            metric: response.metric,
            distill_steps: response.outcome.steps,
            payload,
        };
        // A client that hung up mid-stream only loses its own updates.
        deliver(downlink, bytes, msg, lost_acks);
    }
    for (job, reason) in outcome.dropped {
        meters.entry(job.stream_id).or_default().dropped += 1;
        if let Some(downlink) = downlinks.get(&job.stream_id) {
            deliver(
                downlink,
                MESSAGE_OVERHEAD_BYTES,
                ServerToClient::Dropped {
                    frame_index: job.frame_index,
                    reason,
                },
                lost_acks,
            );
        }
    }
    clock.busy_time += started.elapsed();
    Ok(updated)
}

/// Credit a door-rejected key frame to the stream's live meter — or, when
/// the stream has already been retired (the post-`Shutdown` race), directly
/// to its final [`StreamServerStats`], so the per-stream drop count cannot
/// silently stay at zero for exactly the frames the accounting exists for.
fn note_drop(
    streams: &mut HashMap<StreamId, StreamServerStats>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    stream_id: StreamId,
) {
    if let Some(stats) = streams.get_mut(&stream_id) {
        stats.dropped += 1;
    } else {
        meters.entry(stream_id).or_default().dropped += 1;
    }
}

/// As [`note_drop`], for admission-control throttles.
fn note_throttle(
    streams: &mut HashMap<StreamId, StreamServerStats>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    stream_id: StreamId,
) {
    if let Some(stats) = streams.get_mut(&stream_id) {
        stats.throttled += 1;
    } else {
        meters.entry(stream_id).or_default().throttled += 1;
    }
}

/// Retire one stream: pull its session out of the shard, merge the worker's
/// wait/throttle/drop meter into the stream stats, and release its load slot.
fn retire<T: Teacher>(
    shard: &mut ServeShard<T>,
    stream_id: StreamId,
    meters: &mut HashMap<StreamId, StreamMeter>,
    steal: &StealRegistry,
    shard_index: usize,
) -> Option<(WeightSnapshot, StreamServerStats)> {
    shard.finish(stream_id).map(|(checkpoint, mut stats)| {
        if let Some(meter) = meters.remove(&stream_id) {
            stats.queue_wait_total = meter.wait_total;
            stats.queue_wait_max = meter.wait_max;
            stats.throttled = meter.throttled;
            stats.dropped = meter.dropped;
        }
        steal.load_dec(shard_index);
        (checkpoint, stats)
    })
}

/// Install a migrated stream on its new shard: session + frame cache,
/// downlink, wait meter, queued jobs (original arrival times intact) and any
/// jobs parked for a frame re-share.
fn adopt_migrated<T: Teacher>(
    migrated: MigratedStream,
    shard: &mut ServeShard<T>,
    scheduler: &mut FairScheduler,
    downlinks: &mut HashMap<StreamId, Downlink>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    awaiting: &mut AwaitingFrames,
    adopted_at: &mut HashMap<StreamId, Instant>,
) {
    let id = migrated.stream_id;
    adopted_at.insert(id, Instant::now());
    shard.adopt_stream(id, migrated.entry);
    downlinks.insert(id, migrated.downlink);
    let meter = meters.entry(id).or_default();
    meter.wait_total += migrated.meter.wait_total;
    meter.wait_max = meter.wait_max.max(migrated.meter.wait_max);
    meter.throttled += migrated.meter.throttled;
    meter.dropped += migrated.meter.dropped;
    for job in migrated.jobs {
        scheduler.push(id, job.job.frame_index, job.enqueued_at);
    }
    if !migrated.awaiting.is_empty() {
        let parked = awaiting.entry(id).or_default();
        for (frame_index, jobs) in migrated.awaiting {
            parked.entry(frame_index).or_default().extend(jobs);
        }
    }
}

/// Fulfil a pending steal request against this shard, if one exists and the
/// shard can spare a stream: hand the stream with the deepest queue — whole,
/// with its session, frame cache, queued jobs and parked re-shares — to the
/// thief's mailbox, and repoint the routing table so new traffic follows it.
///
/// The slot-lock discipline that makes the handoff race-free lives in
/// [`StealCore::fulfil_request`]; this function supplies the donation
/// *policy* (what to give, and when giving rebalances at all).
#[allow(clippy::too_many_arguments)]
fn maybe_donate<T: Teacher>(
    shard: &mut ServeShard<T>,
    scheduler: &mut FairScheduler,
    downlinks: &mut HashMap<StreamId, Downlink>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    awaiting: &mut AwaitingFrames,
    adopted_at: &HashMap<StreamId, Instant>,
    steal: &StealRegistry,
    placements: &Placements,
    shard_index: usize,
    shard_wakers: &[st_net::Waker],
) {
    // The donated stream's id crosses from the prepare callback to the
    // delivered callback (which flips its route under the same slot lock).
    let donated = std::cell::Cell::new(None::<StreamId>);
    let outcome = steal.fulfil_request(
        shard_index,
        |_thief| {
            // Donate only when it actually rebalances: either there is
            // queued work *besides* the donated stream's queue, or this
            // shard keeps at least one other live session (whose future
            // arrivals it will serve while the thief drains the donated
            // backlog). A shard whose only session is its only backlog
            // never donates — that would just swap which worker idles. The
            // request stays pending otherwise — the backlog may deepen.
            let (stream_id, depth) = scheduler.busiest_stream()?;
            if scheduler.len() <= depth && shard.stream_count() < 2 {
                return None;
            }
            // A freshly adopted stream is sticky: it must receive real
            // service before it can hop again, or an idle pair of shards
            // could bounce it between them faster than either drains it.
            if adopted_at
                .get(&stream_id)
                .is_some_and(|at| at.elapsed() < STEAL_STICKY)
            {
                return None;
            }
            // Only registered streams ever queue jobs, so the downlink is
            // present; decline (rather than panic) if it somehow is not.
            let downlink = downlinks.remove(&stream_id)?;
            let jobs = scheduler.remove_stream(stream_id);
            let Some(entry) = shard.evict_stream(stream_id) else {
                // Same impossible case: restore what was taken.
                for job in jobs {
                    scheduler.push(stream_id, job.job.frame_index, job.enqueued_at);
                }
                downlinks.insert(stream_id, downlink);
                return None;
            };
            let meter = meters.remove(&stream_id).unwrap_or_default();
            let parked: Vec<(usize, Vec<ScheduledJob>)> = awaiting
                .remove(&stream_id)
                .map(|m| m.into_iter().collect())
                .unwrap_or_default();
            donated.set(Some(stream_id));
            Some((
                MigratedStream {
                    stream_id,
                    from_shard: shard_index,
                    entry,
                    downlink,
                    meter,
                    jobs,
                    awaiting: parked,
                },
                scheduler.len(),
            ))
        },
        |thief| {
            // Routing flips only after the stream is in the mailbox, so
            // traffic that beats the thief's next mailbox drain is deferred
            // there, never lost.
            if let Some(stream_id) = donated.get() {
                if let Some(route) = locked(placements).get(&stream_id) {
                    route.store(thief, Ordering::SeqCst);
                }
            }
        },
    );
    if let FulfilOutcome::Delivered { thief } = outcome {
        // The thief may be asleep in the poller rather than waiting on its
        // steal tick — hand it the wakeup with the stream.
        shard_wakers[thief].wake();
    }
}

/// All of one shard's serving state and its event handlers: uplink receiver,
/// fair scheduler, adaptive batcher, per-stream downlinks and meters, parked
/// re-share jobs, steal-protocol bookkeeping, and the exit protocol. The
/// reactor ([`run_reactor_worker`]) hosts every shard's `ShardState` behind
/// a mutex on a fixed worker set, running [`run_pass`](Self::run_pass)
/// whenever the shard's readiness token wakes or one of its timers fires.
///
/// The handlers mirror the event sources: [`on_frame`](Self::on_frame) for
/// an uplink envelope, [`on_migration`](Self::on_migration) for a mailbox
/// handoff, [`on_need_frame_retry`](Self::on_need_frame_retry) for a retry
/// timer, and disconnect detection inside [`drain_uplink`](Self::drain_uplink).
struct ShardState<T: Teacher> {
    shard_index: usize,
    pool_config: PoolConfig,
    stealing: bool,
    shard: ServeShard<T>,
    rx: crossbeam::channel::Receiver<Envelope>,
    registry: Registry,
    steal: Arc<StealRegistry>,
    placements: Placements,
    /// One waker per shard, used to nudge the owner of forwarded traffic,
    /// the thief of a donated stream, and ourselves when a pass leaves
    /// backlog behind.
    shard_wakers: Arc<Vec<st_net::Waker>>,
    scheduler: FairScheduler,
    batcher: AdaptiveBatch,
    downlinks: HashMap<StreamId, Downlink>,
    meters: HashMap<StreamId, StreamMeter>,
    streams: HashMap<StreamId, StreamServerStats>,
    final_checkpoints: HashMap<StreamId, WeightSnapshot>,
    awaiting: AwaitingFrames,
    deferred: Vec<Envelope>,
    requested: Option<(usize, Instant)>,
    adopted_at: HashMap<StreamId, Instant>,
    idle_since: Option<Instant>,
    clock: WorkerClock,
    uplink_bytes: usize,
    throttled: usize,
    enqueue_drops: usize,
    unknown_registers: usize,
    forwarded: usize,
    batch_limit_peak: usize,
    disconnected: bool,
    /// `NeedFrame` requests sent during the current pass; the reactor arms
    /// a retry timer for each.
    need_frames_sent: Vec<(StreamId, usize)>,
    /// True while a steal-poll `Tick` timer is armed for this shard, so idle
    /// passes do not stack duplicate ticks.
    tick_pending: bool,
    events_dispatched: usize,
    timer_fires: usize,
    poll_wakeups: usize,
    idle_streams_peak: usize,
    /// Failover blackboard (liveness, deaths, adoption claims).
    board: Arc<FailoverBoard>,
    /// Checkpoint-replica store; `Some` iff [`PoolConfig::replication`].
    replicas: Option<Arc<ReplicaStore>>,
    /// Co-scheduled batches completed — the fault plan's kill clock.
    batches_processed: usize,
    /// Remaining mailbox drains to skip ([`FaultPlan::defer_mailbox`]).
    defer_mailbox_left: u32,
    /// A torn kill parks the batch it tore out of the scheduler here on the
    /// way down, so the adopting standby can drop-ack exactly those jobs
    /// with [`DropReason::ShardFailed`].
    torn_jobs: Vec<ScheduledJob>,
    /// Uplink receivers of shards this one adopted: their clients may have
    /// enqueued traffic before the routing flip, so the standby drains them
    /// alongside its own for the rest of the pool's life.
    adopted_rx: Vec<crossbeam::channel::Receiver<Envelope>>,
    /// Connect-time registries of adopted shards, consulted when a
    /// `Register` raced the death.
    adopted_registries: Vec<Registry>,
    /// Which shard each `adopted_registries`/`adopted_rx` entry came from.
    adopted_shards: Vec<usize>,
    failovers: usize,
    streams_adopted: usize,
    frames_lost: usize,
    lost_acks: usize,
    replica_published: usize,
    replica_shared: usize,
    takeover_samples: Vec<f64>,
    /// Last sampled copy-on-write session memory split (shared vs private
    /// against the template), refreshed once per processed batch.
    session_memory: SessionMemory,
    /// Peak private session bytes observed across samples.
    session_private_peak: usize,
}

/// What one [`ShardState::run_pass`] left behind, telling the reactor which
/// follow-up events to arm.
struct PassOutcome {
    /// The shard ran its exit protocol to completion; the state can be
    /// finalized with [`ShardState::finish`].
    done: bool,
    /// Every uplink handle is gone (shutdown drain in progress).
    disconnected: bool,
    /// The scheduler still holds queued jobs — re-wake immediately so the
    /// next batch runs without waiting for new traffic.
    backlog: bool,
    /// The shard is an idle participant in the steal protocol and needs a
    /// `steal_poll` tick to keep offering/requesting work.
    idle_stealing: bool,
    /// `NeedFrame` requests sent this pass, each wanting a retry timer.
    need_frames: Vec<(StreamId, usize)>,
}

impl<T: Teacher> ShardState<T> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shard: ServeShard<T>,
        rx: crossbeam::channel::Receiver<Envelope>,
        registry: Registry,
        pool_config: PoolConfig,
        shard_index: usize,
        steal: Arc<StealRegistry>,
        placements: Placements,
        shard_wakers: Arc<Vec<st_net::Waker>>,
        board: Arc<FailoverBoard>,
        replicas: Option<Arc<ReplicaStore>>,
    ) -> Self {
        let batcher = AdaptiveBatch::new(pool_config.max_batch, pool_config.adaptive_batch);
        let batch_limit_peak = batcher.limit();
        let defer_mailbox_left = if pool_config.fault_plan.target == Some(shard_index) {
            pool_config.fault_plan.defer_mailbox
        } else {
            0
        };
        ShardState {
            shard_index,
            pool_config,
            stealing: pool_config.stealing(),
            shard,
            rx,
            registry,
            steal,
            placements,
            shard_wakers,
            scheduler: FairScheduler::new(pool_config.quantum),
            batcher,
            downlinks: HashMap::new(),
            meters: HashMap::new(),
            streams: HashMap::new(),
            final_checkpoints: HashMap::new(),
            awaiting: HashMap::new(),
            deferred: Vec::new(),
            requested: None,
            adopted_at: HashMap::new(),
            idle_since: None,
            clock: WorkerClock::default(),
            uplink_bytes: 0,
            throttled: 0,
            enqueue_drops: 0,
            unknown_registers: 0,
            forwarded: 0,
            batch_limit_peak,
            disconnected: false,
            need_frames_sent: Vec::new(),
            tick_pending: false,
            events_dispatched: 0,
            timer_fires: 0,
            poll_wakeups: 0,
            idle_streams_peak: 0,
            board,
            replicas,
            batches_processed: 0,
            defer_mailbox_left,
            torn_jobs: Vec::new(),
            adopted_rx: Vec::new(),
            adopted_registries: Vec::new(),
            adopted_shards: Vec::new(),
            failovers: 0,
            streams_adopted: 0,
            frames_lost: 0,
            lost_acks: 0,
            replica_published: 0,
            replica_shared: 0,
            takeover_samples: Vec::new(),
            session_memory: SessionMemory::default(),
            session_private_peak: 0,
        }
    }

    /// Adopt migrated streams and ingest forwarded traffic before touching
    /// the uplink, so a handoff is always visible before any envelope that
    /// raced past it. Also performs steal-request housekeeping: a victim
    /// that exited (or fulfilled through the mailbox) clears the slot; drop
    /// the marker once it no longer names us. A request that has sat
    /// unanswered past the re-target window is withdrawn instead, so a
    /// victim that can never donate (e.g. a lone backlogged session) does
    /// not pin this thief while a third shard drowns.
    fn ingest_mailbox(&mut self, incoming: &mut Vec<Envelope>) {
        if !self.stealing {
            return;
        }
        // Injected delivery-delay fault: skip the drain entirely, leaving
        // migrations and forwarded traffic sitting in the mailbox one extra
        // pass per deferral.
        if self.defer_mailbox_left > 0 {
            self.defer_mailbox_left -= 1;
            return;
        }
        let (migrated, mut mailbox_envelopes) = self.steal.drain_mailbox(self.shard_index);
        for stream in migrated {
            // Whatever we were waiting for, work has arrived.
            self.requested = None;
            self.on_migration(stream);
        }
        incoming.append(&mut mailbox_envelopes);
        if let Some((victim, posted_at)) = self.requested {
            let withdraw = posted_at.elapsed() >= STEAL_RETARGET;
            match self
                .steal
                .review_request(victim, self.shard_index, withdraw)
            {
                RequestReview::Pending => {}
                RequestReview::Gone | RequestReview::Withdrawn => self.requested = None,
            }
        }
    }

    /// A whole stream arrived through the steal mailbox: adopt its session,
    /// frame cache, queued jobs and downlink.
    fn on_migration(&mut self, migrated: MigratedStream) {
        self.events_dispatched += 1;
        // The stream's checkpoint replica follows it: the content did not
        // change, only which shard's death would orphan it.
        if let Some(store) = &self.replicas {
            store.move_owner(migrated.stream_id, migrated.from_shard, self.shard_index);
        }
        adopt_migrated(
            migrated,
            &mut self.shard,
            &mut self.scheduler,
            &mut self.downlinks,
            &mut self.meters,
            &mut self.awaiting,
            &mut self.adopted_at,
        );
    }

    /// Drain every envelope currently sitting in the uplink without
    /// blocking. `Empty` only means "no more traffic right now";
    /// `Disconnected` means every uplink handle is gone and the shard should
    /// flush its backlog and exit.
    fn drain_uplink(&mut self, incoming: &mut Vec<Envelope>) {
        loop {
            match self.rx.try_recv() {
                Ok(envelope) => incoming.push(envelope),
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
        // Dead shards' uplinks keep receiving from clients that loaded the
        // route before the takeover flipped it; as their adopter we drain
        // those queues for the rest of the pool's life. (Only *our* uplink
        // decides `disconnected` — an adopted channel closing just means
        // its last client left.)
        for rx in &self.adopted_rx {
            while let Ok(envelope) = rx.try_recv() {
                incoming.push(envelope);
            }
        }
    }

    /// Handle one uplink envelope: control messages in arrival order; key
    /// frames into the fair per-stream queues, gated by admission control.
    fn on_frame(&mut self, envelope: Envelope) -> Result<()> {
        self.events_dispatched += 1;
        let stream_id = envelope.tagged.stream_id;
        // Elastic pools: traffic for a stream that lives elsewhere follows
        // it. A stream placed here that is neither live, nor retired, nor
        // awaiting its connect-time Register is mid-migration toward us —
        // defer its traffic until the mailbox delivers the stream itself.
        if self.stealing
            && !self.shard.has_stream(stream_id)
            && !matches!(
                envelope.tagged.message,
                ClientToServer::Register | ClientToServer::RegisterCaps { .. }
            )
        {
            let owner = locked(&self.placements)
                .get(&stream_id)
                .map(|route| route.load(Ordering::SeqCst));
            match owner {
                Some(other)
                    if other != self.shard_index && self.adopted_shards.contains(&other) =>
                {
                    // The route still names a shard whose streams we
                    // adopted; its mailbox is closed, so forwarding would
                    // strand the envelope. Re-point the route here and
                    // serve the envelope locally.
                    if let Some(route) = locked(&self.placements).get(&stream_id) {
                        route.store(self.shard_index, Ordering::SeqCst);
                    }
                }
                Some(other) if other != self.shard_index => {
                    match self.steal.forward_envelope(other, envelope) {
                        Ok(()) => {
                            self.forwarded += 1;
                            // The owner may be parked; hand-delivered mail
                            // still needs a doorbell.
                            self.shard_wakers[other].wake();
                        }
                        Err(undelivered) if self.board.is_dead(other) => {
                            // The owner died and its standby is mid-takeover
                            // (the mailbox closes before the routing flip).
                            // Defer: the retry after the next mailbox drain
                            // will see the flipped route.
                            self.deferred.push(undelivered);
                        }
                        Err(_undelivered) => {
                            // The owning worker already exited (so its
                            // clients are long gone and no ack could be
                            // delivered); count the loss in this shard's
                            // dropped_jobs instead of posting into a dead
                            // letter box. The stream's own per-stream stats
                            // were frozen when it retired over there, so the
                            // pool-level counter is the only honest place
                            // left to record it.
                            self.enqueue_drops += 1;
                        }
                    }
                    return Ok(());
                }
                Some(_)
                    if !self.streams.contains_key(&stream_id)
                        && !locked(&self.registry).contains_key(&stream_id) =>
                {
                    self.deferred.push(envelope);
                    return Ok(());
                }
                _ => {}
            }
        }
        self.uplink_bytes += envelope.bytes;
        match envelope.tagged.message {
            ClientToServer::Register | ClientToServer::RegisterCaps { .. } => {
                let supports_delta = matches!(
                    envelope.tagged.message,
                    ClientToServer::RegisterCaps {
                        supports_delta: true
                    }
                );
                let mut link = locked(&self.registry).remove(&stream_id);
                if link.is_none() {
                    // A Register that raced its shard's death lands here
                    // via the adopted uplink; the connect-time entry still
                    // sits in the dead shard's registry. Serve it — and
                    // re-home the connect-time load credit.
                    for (slot, registry) in self.adopted_registries.iter().enumerate() {
                        if let Some(found) = locked(registry).remove(&stream_id) {
                            self.steal.load_dec(self.adopted_shards[slot]);
                            self.steal.load_inc(self.shard_index);
                            link = Some(found);
                            break;
                        }
                    }
                }
                let Some(link) = link else {
                    // Register without a connect-time registry entry —
                    // counted instead of silently ignored.
                    self.unknown_registers += 1;
                    return Ok(());
                };
                let initial = self.shard.register(stream_id, link.frames, supports_delta);
                // Delta-negotiated streams get the initial checkpoint inside
                // a `WeightPayload::Full` envelope — always applicable, and
                // it seeds the client's digest for later deltas.
                let encoded = if supports_delta {
                    Bytes::from(WeightPayload::encode_full(&initial))
                } else {
                    initial.encode()
                };
                let payload = Payload::with_data(encoded);
                let bytes = payload.bytes;
                deliver(
                    &link.downlink,
                    bytes,
                    ServerToClient::InitialStudent { payload },
                    &mut self.lost_acks,
                );
                self.downlinks.insert(stream_id, link.downlink);
                // The registration-time checkpoint is the replica's
                // baseline: from here on the stream is recoverable.
                self.publish_replicas(&[stream_id]);
            }
            ClientToServer::KeyFrame {
                frame_index,
                payload: _,
            } => {
                // Unservable jobs are refused at the door with an explicit
                // ack instead of being silently filtered later. (An
                // *evicted* frame is not unservable — its index is still
                // known and its content recoverable.)
                let reject = if !self.shard.has_stream(stream_id) {
                    Some(DropReason::UnknownStream)
                } else if !self.shard.has_frame(stream_id, frame_index) {
                    Some(DropReason::UnknownFrame)
                } else {
                    None
                };
                if let Some(reason) = reject {
                    self.enqueue_drops += 1;
                    note_drop(&mut self.streams, &mut self.meters, stream_id);
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            downlink,
                            MESSAGE_OVERHEAD_BYTES,
                            ServerToClient::Dropped {
                                frame_index,
                                reason,
                            },
                            &mut self.lost_acks,
                        );
                    }
                    return Ok(());
                }
                // Admission control: per-stream in-flight cap. Jobs parked
                // for a frame re-share still hold their slots.
                let parked = self
                    .awaiting
                    .get(&stream_id)
                    .map_or(0, |m| m.values().map(Vec::len).sum());
                if self.scheduler.queued_for(stream_id) + parked >= self.pool_config.max_in_flight {
                    self.throttled += 1;
                    note_throttle(&mut self.streams, &mut self.meters, stream_id);
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            downlink,
                            MESSAGE_OVERHEAD_BYTES,
                            ServerToClient::Throttle { frame_index },
                            &mut self.lost_acks,
                        );
                    }
                    return Ok(());
                }
                self.scheduler
                    .push(stream_id, frame_index, envelope.enqueued_at);
            }
            ClientToServer::ReShare {
                frame_index,
                payload: _,
            } => {
                // Restore evicted content and resume the parked job with its
                // original arrival time, so its reported wait covers the
                // whole recovery round trip.
                let restored = match envelope.frame {
                    Some(frame) if frame.index == frame_index => {
                        self.shard.reshare(stream_id, frame)
                    }
                    _ => false,
                };
                if restored {
                    if let Some(jobs) = self
                        .awaiting
                        .get_mut(&stream_id)
                        .and_then(|m| m.remove(&frame_index))
                    {
                        for job in jobs {
                            self.scheduler.push(stream_id, frame_index, job.enqueued_at);
                        }
                    }
                    // An unsolicited re-share just refreshed the cache.
                    return Ok(());
                }
                // No session, an index that was never shared, or a
                // content-less re-share: the parked jobs (if any) can never
                // be served — ack each explicitly, never silently.
                let reason = if self.shard.has_stream(stream_id) {
                    DropReason::UnknownFrame
                } else {
                    DropReason::UnknownStream
                };
                let stranded = self
                    .awaiting
                    .get_mut(&stream_id)
                    .and_then(|m| m.remove(&frame_index))
                    .map_or(1, |jobs| jobs.len());
                for _ in 0..stranded {
                    self.enqueue_drops += 1;
                    note_drop(&mut self.streams, &mut self.meters, stream_id);
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            downlink,
                            MESSAGE_OVERHEAD_BYTES,
                            ServerToClient::Dropped {
                                frame_index,
                                reason,
                            },
                            &mut self.lost_acks,
                        );
                    }
                }
            }
            ClientToServer::Shutdown => {
                // Flush the stream's still-queued key frames so its last
                // updates are not lost, then retire the session.
                let remaining = self.scheduler.remove_stream(stream_id);
                for chunk in remaining.chunks(self.batcher.limit().max(1)) {
                    // The flush's updates need no replica refresh: the
                    // session retires (and its replica is dropped) below.
                    process_scheduled(
                        &mut self.shard,
                        chunk,
                        &self.downlinks,
                        &mut self.meters,
                        &mut self.clock,
                        &mut self.awaiting,
                        &mut self.need_frames_sent,
                        &mut self.lost_acks,
                    )?;
                }
                // Jobs still parked for a re-share can never be served now —
                // ack them before the session's stats freeze.
                if let Some(parked) = self.awaiting.remove(&stream_id) {
                    for (frame_index, jobs) in parked {
                        for _job in jobs {
                            self.enqueue_drops += 1;
                            note_drop(&mut self.streams, &mut self.meters, stream_id);
                            if let Some(downlink) = self.downlinks.get(&stream_id) {
                                deliver(
                                    downlink,
                                    MESSAGE_OVERHEAD_BYTES,
                                    ServerToClient::Dropped {
                                        frame_index,
                                        reason: DropReason::UnknownFrame,
                                    },
                                    &mut self.lost_acks,
                                );
                            }
                        }
                    }
                }
                if let Some((checkpoint, stream_stats)) = retire(
                    &mut self.shard,
                    stream_id,
                    &mut self.meters,
                    &self.steal,
                    self.shard_index,
                ) {
                    self.streams.insert(stream_id, stream_stats);
                    self.final_checkpoints.insert(stream_id, checkpoint);
                }
                // A retired stream has nothing left to fail over.
                if let Some(store) = &self.replicas {
                    store.remove(self.shard_index, stream_id);
                }
                // The downlink stays open so late key frames of this stream
                // still receive an explicit Dropped ack.
            }
        }
        Ok(())
    }

    /// Steal participation: publish our backlog, serve a thief's pending
    /// request, and — once *patiently* idle — ask the most-loaded shard for
    /// work. Patience keeps a shard that is merely between its own streams'
    /// arrivals from pulling someone else's backlog over.
    fn steal_participation(&mut self) {
        if !self.stealing || self.disconnected {
            return;
        }
        self.steal
            .publish_backlog(self.shard_index, self.scheduler.len());
        maybe_donate(
            &mut self.shard,
            &mut self.scheduler,
            &mut self.downlinks,
            &mut self.meters,
            &mut self.awaiting,
            &self.adopted_at,
            &self.steal,
            &self.placements,
            self.shard_index,
            &self.shard_wakers,
        );
        if self.scheduler.is_empty() {
            let idle_for = self.idle_since.get_or_insert_with(Instant::now).elapsed();
            if self.requested.is_none() && idle_for >= self.pool_config.steal_patience {
                self.requested = self
                    .steal
                    .post_request(self.shard_index, MIN_STEAL_BACKLOG)
                    .map(|v| (v, Instant::now()));
            }
        } else {
            self.idle_since = None;
            if let Some((victim, _posted_at)) = self.requested.take() {
                // Local work arrived; withdraw the request (if the victim
                // already fulfilled it, the next mailbox drain adopts it —
                // either way the marker is dropped).
                let _ = self.steal.withdraw_request(victim, self.shard_index);
            }
        }
    }

    /// One fair co-scheduled batch per pass; the driver re-polls the uplink
    /// between batches so new arrivals join the next scheduling round.
    fn process_one_batch(&mut self) -> Result<()> {
        // Injected kill: fires only while work is pending, so the crash
        // always has observable consequences. A clean kill panics *before*
        // the scheduler drain (every queued job survives in the carcass); a
        // torn kill drains the batch first and parks it in `torn_jobs`, so
        // exactly one in-flight batch is genuinely lost and the standby
        // must drop-ack it with `DropReason::ShardFailed`.
        let plan = self.pool_config.fault_plan;
        if plan.kill_due(self.shard_index, self.batches_processed) && !self.scheduler.is_empty() {
            if plan.torn_kill {
                self.torn_jobs = self.scheduler.next_batch(self.batcher.limit());
            }
            panic!(
                "fault injection (seed {}): shard {} killed at batch {}",
                plan.seed, self.shard_index, self.batches_processed
            );
        }
        let batch = self.scheduler.next_batch(self.batcher.limit());
        if batch.is_empty() {
            return Ok(());
        }
        let updated = process_scheduled(
            &mut self.shard,
            &batch,
            &self.downlinks,
            &mut self.meters,
            &mut self.clock,
            &mut self.awaiting,
            &mut self.need_frames_sent,
            &mut self.lost_acks,
        )?;
        self.publish_replicas(&updated);
        self.batches_processed += 1;
        // Sample the copy-on-write memory split once per batch: pointer
        // compares per tensor, far off the per-frame fast path, and a batch
        // is exactly when private storage can grow (optimizer writes).
        self.session_memory = self.shard.memory_profile();
        self.session_private_peak = self
            .session_private_peak
            .max(self.session_memory.private_bytes);
        self.batcher.observe(
            self.scheduler.len(),
            self.shard.batch_growth_pays(self.batcher.limit()),
        );
        self.batch_limit_peak = self.batch_limit_peak.max(self.batcher.limit());
        Ok(())
    }

    /// Re-publish the checkpoint replicas of every stream whose session
    /// just advanced. Content-hash chunking means the parts a partial
    /// distillation never unfreezes are deduplicated, not recopied.
    fn publish_replicas(&mut self, updated: &[StreamId]) {
        let Some(store) = self.replicas.clone() else {
            return;
        };
        for &stream_id in updated {
            let Some((checkpoint, key_frames, distill_steps, known_frames, supports_delta)) =
                self.shard.session_replica(stream_id)
            else {
                continue;
            };
            let stats = store.publish(
                self.shard_index,
                stream_id,
                &checkpoint,
                key_frames,
                distill_steps,
                self.scheduler.deficit_of(stream_id),
                known_frames,
                supports_delta,
            );
            self.replica_published += stats.new_bytes;
            self.replica_shared += stats.shared_bytes;
        }
    }

    /// Record the high-water mark of registered-but-quiet streams — the
    /// population a reactor host carries without a parked OS thread each.
    fn note_idle_streams(&mut self) {
        let idle = self
            .shard
            .stream_count()
            .saturating_sub(self.scheduler.active_streams());
        self.idle_streams_peak = self.idle_streams_peak.max(idle);
    }

    /// The uplink is disconnected and the backlog drained: may the shard
    /// exit now? Under stealing, make sure no handoff can be in flight
    /// toward this worker before exiting, or the migrated stream's
    /// checkpoint would be lost. Cancelling under the request slot's lock
    /// guarantees any fulfilment is already in the mailbox, which the next
    /// pass drains — so a `false` answer means "run another pass first".
    fn ready_to_exit(&mut self) -> bool {
        if !self.stealing {
            return true;
        }
        if let Some((victim, _posted_at)) = self.requested.take() {
            if !self.steal.withdraw_request(victim, self.shard_index) {
                // A fulfilment is (or was) in flight: the stream is already
                // in our mailbox; run another pass to adopt it first.
                return false;
            }
        }
        self.steal.mailbox_streams_empty(self.shard_index)
    }

    /// The shard whose death this one stands by for: its predecessor in the
    /// ring (shard `k`'s standby is `k + 1`, so shard `b` watches `b - 1`).
    fn ward(&self) -> usize {
        (self.shard_index + self.pool_config.shards - 1) % self.pool_config.shards
    }

    /// Failover housekeeping, run once per pass: beat our liveness epoch
    /// and, as the warm standby for our ward, adopt its streams if it died.
    /// The claim CAS guarantees exactly one adopter even if another path
    /// (e.g. a future multi-standby scheme) races us.
    fn failover_tick(&mut self, failover: &FailoverShared<T>) -> Result<()> {
        self.board.beat(self.shard_index);
        if self.replicas.is_none() {
            return Ok(());
        }
        let ward = self.ward();
        if ward != self.shard_index && self.board.is_dead(ward) && self.board.try_claim(ward) {
            self.take_over(ward, failover)?;
        }
        Ok(())
    }

    /// Adopt a dead ward's entire serving surface: restore its sessions
    /// from their replicated checkpoints, flip its routes here, re-queue
    /// its surviving jobs, drop-ack what is genuinely lost, and assemble
    /// its final report from the carcass.
    fn take_over(&mut self, dead: usize, failover: &FailoverShared<T>) -> Result<()> {
        // The carcass: the dead shard's state machine, left in its slot by
        // the caught unwind (`locked` would also recover a poisoned slot).
        // An empty slot means the shard actually finished cleanly and the
        // death raced the exit — nothing to adopt.
        let Some(mut carcass) = locked(&failover.states[dead]).take() else {
            return Ok(());
        };
        // The dead thief can no longer answer a fulfilment. If the
        // withdrawal loses the race, the stream is already in the dead
        // shard's mailbox — the close below adopts it.
        if let Some((victim, _posted_at)) = carcass.requested.take() {
            let _ = self.steal.withdraw_request(victim, dead);
        }
        // Close the dead shard's mailbox: streams donated to it are adopted
        // here (they exist nowhere else — the donor already released them);
        // forwarded envelopes are deferred and retried once routes flip.
        let (stranded, leftovers) = self.steal.close_mailbox(dead);
        for migrated in stranded {
            self.streams_adopted += 1;
            self.on_migration(migrated);
        }
        self.deferred.extend(leftovers);
        // Zero the dead shard's steal surface so no thief keeps waiting on
        // it and no donor targets it.
        self.steal.clear_request(dead);
        self.steal.publish_backlog(dead, 0);
        // Routing flip: every stream the table still points at the dead
        // shard — including connected-but-unregistered ones — now routes
        // here. Clients that loaded the old value already enqueued into the
        // dead uplink, which we drain via `adopted_rx` below.
        {
            let placements = locked(&self.placements);
            for route in placements.values() {
                if route.load(Ordering::SeqCst) == dead {
                    route.store(self.shard_index, Ordering::SeqCst);
                }
            }
        }
        // Restore every replicated session: full weights from the
        // content-addressed store, distillation counters, unspent DRR
        // deficit, and a known-but-evicted frame cache whose content the
        // existing NeedFrame/ReShare recovery re-fetches on demand.
        let mut restored: Vec<StreamId> = Vec::new();
        if let Some(store) = self.replicas.clone() {
            for (stream_id, replica) in store.take_owner(dead) {
                let frames = FrameStore::from_known_indices(
                    &replica.known_frames,
                    self.pool_config.frame_budget_bytes,
                );
                self.shard.restore_stream(
                    stream_id,
                    &replica.snapshot,
                    replica.key_frames,
                    replica.distill_steps,
                    frames,
                    replica.supports_delta,
                )?;
                self.scheduler.set_deficit(stream_id, replica.deficit);
                self.steal.load_dec(dead);
                self.steal.load_inc(self.shard_index);
                self.streams_adopted += 1;
                restored.push(stream_id);
            }
        }
        // The adopted sessions are ours now; replicate them under our slot
        // so a second failure stays recoverable.
        self.publish_replicas(&restored);
        // Per-stream plumbing survives the crash: downlinks (the clients
        // are still connected) and live wait meters.
        for (stream_id, downlink) in carcass.downlinks.drain() {
            self.downlinks.entry(stream_id).or_insert(downlink);
        }
        for (stream_id, meter) in carcass.meters.drain() {
            let merged = self.meters.entry(stream_id).or_default();
            merged.wait_total += meter.wait_total;
            merged.wait_max = merged.wait_max.max(meter.wait_max);
            merged.throttled += meter.throttled;
            merged.dropped += meter.dropped;
        }
        // Queued jobs survived in the carcass scheduler (a clean kill fires
        // before the drain): re-queue them with their original arrival
        // times. A job whose stream has no restored session is
        // unrecoverable — explicit ShardFailed ack, never silence.
        let requeued = carcass.scheduler.drain_all();
        let torn = std::mem::take(&mut carcass.torn_jobs);
        for job in requeued {
            let stream_id = job.job.stream_id;
            if self.shard.has_stream(stream_id) {
                self.scheduler
                    .push(stream_id, job.job.frame_index, job.enqueued_at);
            } else {
                self.drop_failed_job(stream_id, job.job.frame_index);
            }
        }
        // A torn kill's in-flight batch died with the shard.
        for job in torn {
            self.drop_failed_job(job.job.stream_id, job.job.frame_index);
        }
        // Jobs parked for a re-share: merge them and re-issue one NeedFrame
        // per parked index — the original request may have been answered
        // into the dead shard's frame cache, which is gone.
        for (stream_id, indices) in carcass.awaiting.drain() {
            let parked = self.awaiting.entry(stream_id).or_default();
            for (frame_index, jobs) in indices {
                let entry = parked.entry(frame_index).or_default();
                let request_content = entry.is_empty();
                entry.extend(jobs);
                if request_content {
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            downlink,
                            MESSAGE_OVERHEAD_BYTES,
                            ServerToClient::NeedFrame { frame_index },
                            &mut self.lost_acks,
                        );
                    }
                    self.need_frames_sent.push((stream_id, frame_index));
                }
            }
        }
        // Envelopes the dead shard had deferred retry here instead.
        self.deferred.append(&mut carcass.deferred);
        // Adopt the dead shard's ingress for the rest of the pool's life:
        // its uplink receiver (clients may race the routing flip), its
        // connect-time registry (a Register may race the death), and — if
        // the dead shard was itself an adopter — everything *it* adopted.
        let (_closed_tx, closed_rx) = crossbeam::channel::unbounded();
        self.adopted_rx
            .push(std::mem::replace(&mut carcass.rx, closed_rx));
        self.adopted_registries.push(Arc::clone(&carcass.registry));
        self.adopted_shards.push(dead);
        self.adopted_rx.append(&mut carcass.adopted_rx);
        self.adopted_registries
            .append(&mut carcass.adopted_registries);
        self.adopted_shards.append(&mut carcass.adopted_shards);
        // The carcass's sessions were superseded by the replica restore;
        // keep their cache counters, then file the dead shard's report.
        carcass.shard.discard_sessions();
        let died_at = self.board.death_instant(dead);
        self.board.push_dead_output(carcass_output(carcass));
        self.failovers += 1;
        if let Some(died_at) = died_at {
            self.takeover_samples.push(died_at.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Ack one job lost to a shard failure with [`DropReason::ShardFailed`].
    fn drop_failed_job(&mut self, stream_id: StreamId, frame_index: usize) {
        self.frames_lost += 1;
        self.enqueue_drops += 1;
        note_drop(&mut self.streams, &mut self.meters, stream_id);
        if let Some(downlink) = self.downlinks.get(&stream_id) {
            deliver(
                downlink,
                MESSAGE_OVERHEAD_BYTES,
                ServerToClient::Dropped {
                    frame_index,
                    reason: DropReason::ShardFailed,
                },
                &mut self.lost_acks,
            );
        }
    }

    /// One non-blocking pass of the shard state machine: failover tick,
    /// mailbox, deferred retries, uplink drain, envelope handlers, steal
    /// participation, one co-scheduled batch. This is the reactor's
    /// dispatch unit.
    fn run_pass(&mut self, failover: &FailoverShared<T>) -> Result<PassOutcome> {
        self.need_frames_sent.clear();
        // After the clear, never before: a takeover pushes NeedFrame
        // re-requests that this pass's outcome must carry out.
        self.failover_tick(failover)?;
        let mut incoming: Vec<Envelope> = Vec::new();
        self.ingest_mailbox(&mut incoming);
        // Envelopes that arrived ahead of their stream's migration retry
        // after every mailbox drain, ahead of newer traffic.
        let retry: Vec<Envelope> = std::mem::take(&mut self.deferred);
        incoming.splice(0..0, retry);
        self.drain_uplink(&mut incoming);
        if incoming.is_empty() && self.scheduler.is_empty() && self.disconnected {
            let done = self.ready_to_exit();
            return Ok(PassOutcome {
                done,
                disconnected: true,
                backlog: false,
                idle_stealing: false,
                need_frames: Vec::new(),
            });
        }
        for envelope in incoming {
            self.on_frame(envelope)?;
        }
        self.steal_participation();
        self.process_one_batch()?;
        self.note_idle_streams();
        Ok(PassOutcome {
            done: false,
            disconnected: self.disconnected,
            backlog: !self.scheduler.is_empty(),
            idle_stealing: self.stealing && !self.disconnected && self.scheduler.is_empty(),
            need_frames: std::mem::take(&mut self.need_frames_sent),
        })
    }

    /// A `NeedFrame` retry timer fired: if the job is still parked (the
    /// re-share never arrived — e.g. the original request was lost), ask the
    /// client again. Returns whether the shard is still waiting, i.e.
    /// whether the caller should re-arm the timer.
    fn on_need_frame_retry(&mut self, stream_id: StreamId, frame_index: usize) -> bool {
        self.timer_fires += 1;
        self.events_dispatched += 1;
        let still_waiting = self
            .awaiting
            .get(&stream_id)
            .is_some_and(|m| m.contains_key(&frame_index));
        if still_waiting {
            if let Some(downlink) = self.downlinks.get(&stream_id) {
                deliver(
                    downlink,
                    MESSAGE_OVERHEAD_BYTES,
                    ServerToClient::NeedFrame { frame_index },
                    &mut self.lost_acks,
                );
            }
        }
        still_waiting
    }

    /// The exit protocol: ack whatever can never be served now, retire every
    /// remaining session, close steal-protocol state, and assemble the
    /// shard's final output.
    fn finish(mut self) -> ShardOutput {
        // The clients are gone, so re-shares for parked jobs can never
        // arrive: ack and count them instead of letting them vanish.
        let parked: Vec<(StreamId, usize)> = self
            .awaiting
            .iter()
            .flat_map(|(stream, indices)| {
                indices
                    .iter()
                    .flat_map(move |(index, jobs)| jobs.iter().map(move |_| (*stream, *index)))
            })
            .collect();
        for (stream_id, frame_index) in parked {
            self.enqueue_drops += 1;
            note_drop(&mut self.streams, &mut self.meters, stream_id);
            if let Some(downlink) = self.downlinks.get(&stream_id) {
                deliver(
                    downlink,
                    MESSAGE_OVERHEAD_BYTES,
                    ServerToClient::Dropped {
                        frame_index,
                        reason: DropReason::UnknownFrame,
                    },
                    &mut self.lost_acks,
                );
            }
        }
        self.awaiting.clear();
        // Clients that vanished without Shutdown still get their sessions
        // retired so their checkpoints and counters are reported. (The
        // backlog is already drained: drivers only finish a shard once its
        // scheduler is empty.)
        for stream_id in self.shard.session_ids() {
            if let Some((checkpoint, stream_stats)) = retire(
                &mut self.shard,
                stream_id,
                &mut self.meters,
                &self.steal,
                self.shard_index,
            ) {
                self.streams.insert(stream_id, stream_stats);
                self.final_checkpoints.insert(stream_id, checkpoint);
            }
            if let Some(store) = &self.replicas {
                store.remove(self.shard_index, stream_id);
            }
        }
        if self.stealing {
            // No posthumous steal traffic: zero the published backlog,
            // refuse any request a thief may still have parked at us, and
            // close the mailbox — counting any envelope forwarded here since
            // the last drain, so a message lost to the shutdown race still
            // shows up in the drop accounting. (Migrated *streams* cannot be
            // stranded here: the cancel-under-lock exit protocol guarantees
            // that.)
            self.steal.publish_backlog(self.shard_index, 0);
            self.steal.clear_request(self.shard_index);
            let (stranded, leftovers) = self.steal.close_mailbox(self.shard_index);
            debug_assert!(stranded.is_empty(), "stream stranded at exit");
            for envelope in leftovers {
                let stream_id = envelope.tagged.stream_id;
                self.enqueue_drops += 1;
                note_drop(&mut self.streams, &mut self.meters, stream_id);
                if let (
                    Some(downlink),
                    ClientToServer::KeyFrame { frame_index, .. }
                    | ClientToServer::ReShare { frame_index, .. },
                ) = (self.downlinks.get(&stream_id), envelope.tagged.message)
                {
                    deliver(
                        downlink,
                        MESSAGE_OVERHEAD_BYTES,
                        ServerToClient::Dropped {
                            frame_index,
                            reason: DropReason::UnknownStream,
                        },
                        &mut self.lost_acks,
                    );
                }
            }
        }
        carcass_output(self)
    }
}

/// Assemble a shard's final [`ShardOutput`] from its state machine. This is
/// both the tail of the clean exit ([`ShardState::finish`]) and the whole
/// of the post-mortem path — a standby files the dead shard's report from
/// its carcass, so shard-indexed reports stay complete under failover.
fn carcass_output<T: Teacher>(state: ShardState<T>) -> ShardOutput {
    let mut stats = state.shard.stats();
    stats.queue_wait_total = state.clock.queue_wait_total;
    stats.queue_wait_max = state.clock.queue_wait_max;
    stats.busy_time = state.clock.busy_time;
    stats.uplink_bytes = state.uplink_bytes;
    stats.throttled = state.throttled;
    stats.dropped_jobs += state.enqueue_drops;
    stats.unknown_registers = state.unknown_registers;
    stats.batch_limit_peak = state.batch_limit_peak;
    stats.forwarded_messages = state.forwarded;
    stats.events_dispatched = state.events_dispatched;
    stats.timer_fires = state.timer_fires;
    stats.poll_wakeups = state.poll_wakeups;
    stats.idle_streams = state.idle_streams_peak;
    stats.failovers = state.failovers;
    stats.streams_adopted = state.streams_adopted;
    stats.frames_lost_on_failover = state.frames_lost;
    stats.lost_acks = state.lost_acks;
    stats.replica_bytes_published = state.replica_published;
    stats.replica_bytes_shared = state.replica_shared;
    stats.session_bytes_shared = state.session_memory.shared_bytes;
    stats.session_bytes_private = state.session_memory.private_bytes;
    stats.session_bytes_private_peak = state.session_private_peak;
    ShardOutput {
        shard: state.shard_index,
        stats,
        streams: state.streams,
        final_checkpoints: state.final_checkpoints,
        wait_samples: state.clock.wait_samples,
        takeover_samples: state.takeover_samples,
    }
}

/// How often an otherwise event-less reactor worker re-checks its timers and
/// shard states — the upper bound on poll blocking, not a service cadence
/// (sends and timer deadlines wake workers much sooner).
const REACTOR_IDLE_TICK: Duration = Duration::from_millis(50);

/// How long the reactor waits for a `ReShare` before re-sending `NeedFrame`,
/// so a lost request cannot park its job until shutdown.
const NEED_FRAME_RETRY: Duration = Duration::from_millis(100);

/// A deadline owned by the reactor's shared timer wheel.
enum TimerEvent {
    /// Run a maintenance pass on a shard every `steal_poll`, armed only
    /// while the shard is an idle steal participant.
    Tick(usize),
    /// Re-send `NeedFrame` for a job still parked on an evicted frame.
    NeedFrameRetry {
        shard: usize,
        stream_id: StreamId,
        frame_index: usize,
    },
}

/// Everything the reactor's fixed worker set shares: the shard state
/// machines, the readiness poller whose token *n* means "shard *n* has
/// traffic", the timer wheel, and completion accounting.
struct ReactorShared<T: Teacher> {
    /// The hosted shard-state slots (`failover.states[i]` holds shard *i*
    /// until it finishes or dies), the failover board, and the replica
    /// store. Any worker may run any shard; the mutex serializes passes per
    /// shard while leaving distinct shards fully parallel. Completion is
    /// counted on the board (`finished`), which also covers dead shards
    /// finalized by their standby.
    failover: Arc<FailoverShared<T>>,
    poller: st_net::Poller,
    timers: Mutex<TimerWheel<TimerEvent>>,
    /// Set when a worker hits a hard error, telling its peers to stop
    /// instead of serving a half-dead pool.
    aborted: AtomicBool,
    /// `rerun[i]` records a wake token consumed for shard *i* while another
    /// worker was mid-pass on it. The pass holder re-wakes the shard when it
    /// releases the lock, so the traffic behind the dropped token is
    /// re-dispatched instead of lost — and no worker ever parks on a busy
    /// shard's mutex while timers starve.
    rerun: Vec<AtomicBool>,
    shard_wakers: Arc<Vec<st_net::Waker>>,
    steal_poll: Duration,
}

/// One reactor worker: fire due timers, then block on the readiness poller
/// (bounded by the next deadline) and run a pass on whichever shard woke.
/// Lock order is always shard-state before timers, never the reverse with a
/// state lock held across a blocking acquisition of another state.
fn run_reactor_worker<T: Teacher>(shared: Arc<ReactorShared<T>>) -> Result<Vec<ShardOutput>> {
    let mut outputs = Vec::new();
    let result = reactor_loop(&shared, &mut outputs);
    if let Err(err) = result {
        // Take the whole pool down with us: peers observe the flag (or the
        // closed poller) and return their partial outputs; join() surfaces
        // this error.
        shared.aborted.store(true, Ordering::SeqCst);
        shared.poller.close();
        return Err(err);
    }
    Ok(outputs)
}

fn reactor_loop<T: Teacher>(
    shared: &ReactorShared<T>,
    outputs: &mut Vec<ShardOutput>,
) -> Result<()> {
    let total = shared.failover.states.len();
    loop {
        if shared.aborted.load(Ordering::SeqCst) || shared.failover.board.finished_count() == total
        {
            return Ok(());
        }
        // A death no standby can ever recover (replication off, or the
        // standby itself dead or already finished) would otherwise leave
        // the pool polling forever; abort so join() reports the death
        // instead of hanging.
        if shared.failover.board.has_orphan_death() {
            shared.aborted.store(true, Ordering::SeqCst);
            shared.poller.close();
            return Ok(());
        }
        // Fire due timers. The wheel lock is released before dispatching so
        // a handler arming follow-up timers never self-deadlocks.
        let due = {
            let mut timers = locked(&shared.timers);
            timers.advance(Instant::now())
        };
        for (_id, event) in due {
            match event {
                TimerEvent::Tick(shard) => dispatch_pass(shared, shard, true, outputs)?,
                TimerEvent::NeedFrameRetry {
                    shard,
                    stream_id,
                    frame_index,
                } => dispatch_need_frame_retry(shared, shard, stream_id, frame_index),
            }
        }
        // Park until a shard's token wakes, but never sleep past the next
        // timer deadline (or the idle tick, whichever is sooner).
        let timeout = {
            let mut timers = locked(&shared.timers);
            match timers.next_deadline() {
                Some(deadline) => deadline
                    .saturating_duration_since(Instant::now())
                    .min(REACTOR_IDLE_TICK),
                None => REACTOR_IDLE_TICK,
            }
        };
        if let Some(token) = shared.poller.poll_one(timeout) {
            dispatch_pass(shared, token, false, outputs)?;
        }
    }
}

/// Run one pass on `shard`, then arm whatever follow-up events the pass
/// asked for: an immediate self-wake while backlog (or a shutdown drain)
/// remains, a steal-poll tick while idle-stealing, and a retry timer per
/// `NeedFrame` sent.
fn dispatch_pass<T: Teacher>(
    shared: &ReactorShared<T>,
    shard: usize,
    from_timer: bool,
    outputs: &mut Vec<ShardOutput>,
) -> Result<()> {
    // Set-then-try ordering makes the handoff airtight: if the try_lock
    // below fails, the current holder is guaranteed to observe our flag
    // after it releases and re-wake the shard; if the holder released just
    // before we set, our try_lock succeeds and we run the pass ourselves.
    // A pass never parks a worker on a busy shard's mutex — the alternative
    // lets one long pass (e.g. a Shutdown flush) capture every worker while
    // timers starve.
    shared.rerun[shard].store(true, Ordering::SeqCst);
    let mut guard = match shared.failover.states[shard].try_lock() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::WouldBlock) => {
            if from_timer {
                // The shard is mid-pass, hence not idle; try the steal tick
                // again later (tick_pending stays true, by design).
                locked(&shared.timers).schedule_after(shared.steal_poll, TimerEvent::Tick(shard));
            }
            return Ok(());
        }
        Err(std::sync::TryLockError::Poisoned(_)) => {
            // Reactor passes never unwind through the guard (the pass body
            // is caught below), so poison here is a bug, not a shard death.
            return Err(TensorError::InvalidArgument(
                "shard state lock poisoned".into(),
            ));
        }
    };
    shared.rerun[shard].store(false, Ordering::SeqCst);
    if shared.failover.board.is_dead(shard) {
        // A late wake or tick for a dead shard: the carcass in the slot
        // belongs to its standby, not to us.
        return Ok(());
    }
    let outcome = {
        let Some(state) = guard.as_mut() else {
            // The shard already finished; a late wake or tick is harmless.
            return Ok(());
        };
        if from_timer {
            state.tick_pending = false;
            state.timer_fires += 1;
        } else {
            state.poll_wakeups += 1;
        }
        // A shard death under the reactor must not take the hosting OS
        // thread (and every other shard it would have run) down with it:
        // catch the unwind, publish the death, and hand the carcass to the
        // standby. The guard is released normally, so no poison.
        let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.run_pass(&shared.failover)
        }));
        let outcome = match pass {
            Ok(outcome) => outcome?,
            Err(payload) => {
                shared
                    .failover
                    .board
                    .mark_dead(shard, panic_message(payload.as_ref()));
                if shared.failover.replicas.is_some() {
                    // Wake the standby so its next pass runs the takeover.
                    let standby = (shard + 1) % shared.failover.states.len();
                    shared.shard_wakers[standby].wake();
                } else {
                    // No standby to adopt the shard: stop the pool; join()
                    // surfaces the death as WorkerFailed.
                    shared.aborted.store(true, Ordering::SeqCst);
                    shared.poller.close();
                }
                return Ok(());
            }
        };
        if outcome.done {
            let Some(state) = guard.take() else {
                unreachable!("shard state present: matched Some above")
            };
            shared.failover.board.mark_finished(shard);
            outputs.push(state.finish());
            if shared.failover.board.note_finished() == shared.failover.states.len() {
                // Release every worker parked in poll_one.
                shared.poller.close();
            }
            return Ok(());
        }
        // Arm the steal tick while still holding the state lock so a racing
        // dispatcher sees a consistent `tick_pending`.
        if outcome.idle_stealing && !state.tick_pending {
            state.tick_pending = true;
            locked(&shared.timers).schedule_after(shared.steal_poll, TimerEvent::Tick(shard));
        }
        outcome
    };
    drop(guard);
    if shared.rerun[shard].swap(false, Ordering::SeqCst) {
        // A wake token for this shard was consumed (and dropped) while we
        // were mid-pass; re-issue it.
        shared.shard_wakers[shard].wake();
    }
    for (stream_id, frame_index) in &outcome.need_frames {
        locked(&shared.timers).schedule_after(
            NEED_FRAME_RETRY,
            TimerEvent::NeedFrameRetry {
                shard,
                stream_id: *stream_id,
                frame_index: *frame_index,
            },
        );
    }
    if outcome.backlog || outcome.disconnected {
        // Queued jobs (or a shutdown drain in progress): hand the shard
        // straight back to the worker set instead of waiting for traffic.
        shared.shard_wakers[shard].wake();
    }
    Ok(())
}

/// Deliver a `NeedFrameRetry` timer to its shard, re-arming it while the
/// job stays parked (or while the shard is too busy to answer).
fn dispatch_need_frame_retry<T: Teacher>(
    shared: &ReactorShared<T>,
    shard: usize,
    stream_id: StreamId,
    frame_index: usize,
) {
    let still_waiting = match shared.failover.states[shard].try_lock() {
        Ok(mut guard) => match guard.as_mut() {
            Some(state) => state.on_need_frame_retry(stream_id, frame_index),
            None => false,
        },
        // Mid-pass: the pass may well deliver the re-share; check again
        // next period.
        Err(_) => true,
    };
    if still_waiting {
        locked(&shared.timers).schedule_after(
            NEED_FRAME_RETRY,
            TimerEvent::NeedFrameRetry {
                shard,
                stream_id,
                frame_index,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_nn::student::StudentConfig;
    use st_teacher::OracleTeacher;
    use st_video::dataset::tiny_stream as frames_for;
    use st_video::SceneKind;

    fn shard() -> ServeShard<OracleTeacher> {
        ServeShard::new(
            ShadowTutorConfig::paper(),
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            OracleTeacher::perfect(5),
            0.013,
        )
    }

    fn at(offset_ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(offset_ms)
    }

    #[test]
    fn pool_config_validates_and_routes() {
        assert!(PoolConfig::default_pool().validate().is_ok());
        assert!(PoolConfig {
            shards: 0,
            ..PoolConfig::default_pool()
        }
        .validate()
        .is_err());
        assert!(PoolConfig {
            max_batch: 0,
            ..PoolConfig::default_pool()
        }
        .validate()
        .is_err());
        assert!(PoolConfig {
            max_in_flight: 0,
            ..PoolConfig::default_pool()
        }
        .validate()
        .is_err());
        assert!(PoolConfig {
            quantum: 0,
            ..PoolConfig::default_pool()
        }
        .validate()
        .is_err());
        assert!(PoolConfig {
            frame_budget_bytes: Some(0),
            ..PoolConfig::default_pool()
        }
        .validate()
        .is_err());
        assert!(PoolConfig {
            steal_poll: Duration::ZERO,
            ..PoolConfig::default_pool()
        }
        .validate()
        .is_err());
        let p = PoolConfig::with_shards(3);
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(4), 1);
        assert_eq!(p.shard_of(5), 2);
        assert!(!p.stealing());
        assert!(PoolConfig {
            placement: PlacementPolicy::Rebalance,
            ..PoolConfig::default_pool()
        }
        .stealing());
    }

    #[test]
    fn fair_scheduler_round_robins_across_streams() {
        let mut s = FairScheduler::new(1);
        // A hot stream with a deep backlog and two cold streams with one
        // job each.
        for i in 0..6 {
            s.push(1, i, at(0));
        }
        s.push(2, 100, at(1));
        s.push(3, 200, at(2));
        assert_eq!(s.len(), 8);
        assert_eq!(s.queued_for(1), 6);
        assert_eq!(s.active_streams(), 3);
        // A batch of 3 serves every stream once — the hot stream cannot
        // monopolize the slots.
        let batch = s.next_batch(3);
        let streams: Vec<StreamId> = batch.iter().map(|j| j.job.stream_id).collect();
        assert_eq!(streams, vec![1, 2, 3]);
        // The cold streams are drained; the rest of the backlog belongs to
        // the hot stream.
        let batch = s.next_batch(3);
        assert!(batch.iter().all(|j| j.job.stream_id == 1));
        assert_eq!(s.len(), 2);
        let rest = s.next_batch(10);
        assert_eq!(rest.len(), 2);
        assert!(s.is_empty());
        // FIFO order within the stream.
        let indices: Vec<usize> = rest.iter().map(|j| j.job.frame_index).collect();
        assert_eq!(indices, vec![4, 5]);
    }

    #[test]
    fn fair_scheduler_removal_returns_fifo_backlog() {
        let mut s = FairScheduler::new(2);
        s.push(7, 0, at(0));
        s.push(7, 1, at(1));
        s.push(8, 9, at(2));
        let removed = s.remove_stream(7);
        assert_eq!(
            removed
                .iter()
                .map(|j| j.job.frame_index)
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.queued_for(7), 0);
        // The ring no longer visits the removed stream.
        let batch = s.next_batch(4);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].job.stream_id, 8);
        assert!(s.remove_stream(99).is_empty());
    }

    #[test]
    fn adaptive_batch_tracks_backlog_within_bounds() {
        let mut b = AdaptiveBatch::new(8, true);
        assert_eq!(b.limit(), 1);
        assert_eq!(b.ceiling(), 8);
        // Pressure grows the window multiplicatively, up to the ceiling.
        b.observe(10, true);
        assert_eq!(b.limit(), 2);
        b.observe(10, true);
        b.observe(10, true);
        assert_eq!(b.limit(), 8);
        b.observe(100, true);
        assert_eq!(b.limit(), 8, "never exceeds the ceiling");
        // An idle queue shrinks it back down.
        b.observe(0, true);
        b.observe(0, true);
        b.observe(0, true);
        assert_eq!(b.limit(), 1);
        // Growth is gated on the teacher's marginal cost still amortizing.
        b.observe(10, false);
        assert_eq!(b.limit(), 1);
        // Disabled: pinned to the ceiling regardless of observations.
        let mut pinned = AdaptiveBatch::new(4, false);
        assert_eq!(pinned.limit(), 4);
        pinned.observe(0, true);
        pinned.observe(0, true);
        assert_eq!(pinned.limit(), 4);
    }

    #[test]
    fn cost_profile_judges_growth_on_measured_slope() {
        let mut p = TeacherCostProfile::new();
        // No data: the caller must fall back to the virtual model.
        assert_eq!(p.growth_pays(1), None);
        p.record(1, 10e-3);
        assert_eq!(p.growth_pays(1), None, "one size is not a slope");
        // Sub-linear batching: going 1 -> 4 costs 2 ms/slot vs 10 ms solo.
        p.record(4, 16e-3);
        assert_eq!(p.growth_pays(4), Some(true));
        assert!(p.estimate(4).unwrap() > p.estimate(1).unwrap());
        assert!(p.per_frame_at_or_below(4).unwrap() < p.estimate(1).unwrap());
        // Super-linear batching (thrashing teacher): growth must stop.
        let mut bad = TeacherCostProfile::new();
        bad.record(1, 10e-3);
        bad.record(2, 25e-3);
        assert_eq!(bad.growth_pays(2), Some(false));
        // Unmeasurably fast forwards (oracle teacher): no measured verdict.
        let mut fast = TeacherCostProfile::new();
        fast.record(1, 1e-6);
        fast.record(2, 2e-6);
        assert_eq!(fast.growth_pays(2), None);
        // EMA smooths rather than replaces.
        let mut ema = TeacherCostProfile::new();
        ema.record(1, 10e-3);
        ema.record(1, 20e-3);
        let est = ema.estimate(1).unwrap();
        assert!(est > 10e-3 && est < 20e-3, "EMA {est}");
        // Degenerate observations are ignored.
        ema.record(0, 1.0);
        ema.record(3, f64::NAN);
        assert_eq!(ema.estimate(0), None);
        assert_eq!(ema.estimate(3), None);
    }

    #[test]
    fn shard_records_measured_teacher_cost() {
        let mut s = shard();
        let people = frames_for(SceneKind::People, 91, 2);
        s.register(1, FrameStore::from_frames(&people, None), false);
        s.process_batch(&[ShardJob {
            stream_id: 1,
            frame_index: people[0].index,
        }])
        .unwrap();
        // A real forward happened, so wall time was measured and the cost
        // profile has a batch-1 sample.
        assert!(s.stats().teacher_wall_time > Duration::ZERO);
        assert!(s.stats().mean_teacher_wall_secs() > 0.0);
        assert!(s.measured_costs().estimate(1).is_some());
        // The oracle teacher is microsecond-fast, so the measured profile
        // abstains and growth falls back to the virtual model (which pays).
        assert!(s.batch_growth_pays(1));
    }

    #[test]
    fn shard_keeps_streams_isolated() {
        let mut s = shard();
        let people = frames_for(SceneKind::People, 11, 2);
        let animals = frames_for(SceneKind::Animals, 12, 2);
        let init_a = s.register(1, FrameStore::from_frames(&people, None), false);
        let init_b = s.register(2, FrameStore::from_frames(&animals, None), false);
        // Both sessions start from the same template checkpoint.
        assert!(init_a.distance(&init_b).unwrap() < 1e-9);
        assert_eq!(s.stream_count(), 2);

        // Distill stream 1 only; stream 2's weights must not move.
        let outcome = s
            .process_batch(&[ShardJob {
                stream_id: 1,
                frame_index: people[0].index,
            }])
            .unwrap();
        assert_eq!(outcome.responses.len(), 1);
        assert!(outcome.dropped.is_empty());
        assert!(outcome.responses[0].2.outcome.steps >= 1);
        let (ckpt_b, stats_b) = s.finish(2).unwrap();
        assert_eq!(stats_b.key_frames, 0);
        assert!(ckpt_b.distance(&init_b).unwrap() < 1e-9);
        let (ckpt_a, stats_a) = s.finish(1).unwrap();
        assert_eq!(stats_a.key_frames, 1);
        assert!(ckpt_a.distance(&init_a).unwrap() > 0.0);
    }

    #[test]
    fn duplicate_register_does_not_clobber_the_session() {
        let mut s = shard();
        let people = frames_for(SceneKind::People, 13, 2);
        s.register(1, FrameStore::from_frames(&people, None), false);
        let outcome = s
            .process_batch(&[ShardJob {
                stream_id: 1,
                frame_index: people[0].index,
            }])
            .unwrap();
        assert_eq!(outcome.responses.len(), 1);
        // A duplicate register with *empty* frames must neither reset the
        // session nor lose the pre-shared frames.
        let ckpt = s.register(1, FrameStore::new(None), false);
        assert!(s.has_frame(1, people[1].index), "frames clobbered");
        let (final_ckpt, stats) = s.finish(1).unwrap();
        assert_eq!(stats.key_frames, 1, "session reset by duplicate register");
        assert!(ckpt.distance(&final_ckpt).unwrap() < 1e-9);
    }

    #[test]
    fn batched_labels_amortize_teacher_time() {
        let mut s = shard();
        let people = frames_for(SceneKind::People, 21, 2);
        let street = frames_for(SceneKind::Street, 22, 2);
        s.register(1, FrameStore::from_frames(&people, None), false);
        s.register(2, FrameStore::from_frames(&street, None), false);
        let outcome = s
            .process_batch(&[
                ShardJob {
                    stream_id: 1,
                    frame_index: people[0].index,
                },
                ShardJob {
                    stream_id: 2,
                    frame_index: street[0].index,
                },
            ])
            .unwrap();
        assert_eq!(outcome.responses.len(), 2);
        let stats = s.stats();
        assert_eq!(stats.teacher_batches, 1);
        assert_eq!(stats.key_frames, 2);
        assert_eq!(stats.max_batch_observed, 2);
        // Batching two frames must be cheaper than two solo forwards.
        assert!(stats.teacher_time_saved > 0.0);
        // The amortized teacher share charged per response is below t_ti.
        let solo = OracleTeacher::perfect(0).inference_latency();
        for (_, _, r) in &outcome.responses {
            assert!(r.server_time < solo + r.outcome.steps as f64 * 0.013 + 1e-12);
        }
        // The default teacher's sub-linear batch cost keeps growth paying.
        assert!(s.batch_growth_pays(2));
        assert!(s.marginal_batch_cost(2) > 0.0);
    }

    #[test]
    fn unknown_jobs_are_acked_not_silently_skipped() {
        let mut s = shard();
        let people = frames_for(SceneKind::People, 31, 1);
        s.register(1, FrameStore::from_frames(&people, None), false);
        let outcome = s
            .process_batch(&[
                ShardJob {
                    stream_id: 9,
                    frame_index: 0,
                }, // unknown stream
                ShardJob {
                    stream_id: 1,
                    frame_index: 999,
                }, // unknown frame
            ])
            .unwrap();
        assert!(outcome.responses.is_empty());
        assert_eq!(outcome.dropped.len(), 2);
        assert_eq!(outcome.dropped[0].1, DropReason::UnknownStream);
        assert_eq!(outcome.dropped[1].1, DropReason::UnknownFrame);
        assert_eq!(s.stats().teacher_batches, 0);
        // The silent-drop bug: the shard now counts every dropped job.
        assert_eq!(s.stats().dropped_jobs, 2);
        assert!(s.finish(9).is_none());
    }

    #[test]
    fn pool_serves_two_streams_end_to_end() {
        let pool = ServerPool::spawn(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 2,
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            |shard| OracleTeacher::perfect(100 + shard as u64),
        )
        .unwrap();
        let streams: Vec<(StreamId, Vec<Frame>)> = vec![
            (0, frames_for(SceneKind::People, 41, 3)),
            (1, frames_for(SceneKind::Animals, 42, 3)),
        ];
        let mut clients: Vec<StreamClient> = streams
            .iter()
            .map(|(id, frames)| pool.connect(*id, frames).unwrap())
            .collect();
        // Least-loaded placement spread the two streams over the two shards.
        assert_eq!(pool.shard_loads(), vec![1, 1]);
        for (client, (_, frames)) in clients.iter_mut().zip(&streams) {
            // Initial checkpoint arrives first.
            let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
            // One key frame each.
            let payload = Payload::sized(frames[0].raw_rgb_bytes());
            let bytes = payload.bytes;
            client
                .send(
                    ClientToServer::KeyFrame {
                        frame_index: frames[0].index,
                        payload,
                    },
                    bytes,
                )
                .unwrap();
            let update = client.recv_timeout(Duration::from_secs(10)).unwrap();
            match update {
                ServerToClient::StudentUpdate {
                    frame_index,
                    metric,
                    distill_steps,
                    ..
                } => {
                    assert_eq!(frame_index, frames[0].index);
                    assert!((0.0..=1.0).contains(&metric));
                    assert!(distill_steps <= ShadowTutorConfig::paper().max_updates);
                }
                other => panic!("expected StudentUpdate, got {other:?}"),
            }
            client.send(ClientToServer::Shutdown, 1).unwrap();
        }
        drop(clients);
        let stats = pool.join().unwrap();
        assert_eq!(stats.total_key_frames(), 2);
        assert_eq!(stats.streams.len(), 2);
        assert_eq!(stats.final_checkpoints.len(), 2);
        assert!(stats.streams.values().all(|s| s.key_frames == 1));
        // Streams 0 and 1 land on different shards.
        assert!(stats.shards.iter().all(|s| s.key_frames == 1));
        // Nothing was silently lost in the clean scenario.
        assert_eq!(stats.dropped_jobs(), 0);
        assert_eq!(stats.throttled(), 0);
        // The operator report reflects the run.
        let report = stats.snapshot();
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.total_key_frames, 2);
        assert_eq!(report.streams_stolen, 0);
        assert_eq!(report.frame_evictions, 0);
        assert!(report.queue_p50_ms >= 0.0 && report.queue_p99_ms >= report.queue_p50_ms);
        assert!(report.to_json().contains("\"totals\""));
    }

    #[test]
    fn pool_rejects_duplicate_connect() {
        let pool = ServerPool::spawn(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 1,
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            |_| OracleTeacher::perfect(1),
        )
        .unwrap();
        let frames = frames_for(SceneKind::People, 61, 1);
        let client = pool.connect(5, &frames).unwrap();
        let Err(err) = pool.connect(5, &frames) else {
            panic!("duplicate connect must be rejected");
        };
        assert!(format!("{err:?}").contains("already connected"));
        drop(client);
        pool.join().unwrap();
    }

    #[test]
    fn least_loaded_placement_follows_departures() {
        let pool = ServerPool::spawn(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 2,
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            |shard| OracleTeacher::perfect(300 + shard as u64),
        )
        .unwrap();
        let frames = frames_for(SceneKind::People, 62, 1);
        // Sequential connects alternate shards...
        let mut a = pool.connect(10, &frames).unwrap();
        let _b = pool.connect(11, &frames).unwrap();
        let _c = pool.connect(12, &frames).unwrap();
        assert_eq!(pool.shard_loads().iter().sum::<usize>(), 3);
        assert_eq!(pool.shard_loads(), vec![2, 1]);
        // ...and a departure frees the slot, steering the next connect to
        // the drained shard. (Wait for the shutdown to be processed.)
        a.recv_timeout(Duration::from_secs(10)).unwrap();
        a.send(ClientToServer::Shutdown, 1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.shard_loads()[0] != 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.shard_loads(), vec![1, 1]);
        let _d = pool.connect(13, &frames).unwrap();
        assert_eq!(pool.shard_loads(), vec![2, 1]);
        drop((a, _b, _c, _d));
        let stats = pool.join().unwrap();
        // Every connected stream is accounted for, with or without Shutdown.
        assert_eq!(stats.streams.len(), 4);
        assert_eq!(stats.final_checkpoints.len(), 4);
    }

    #[test]
    fn frame_store_evicts_lru_within_budget() {
        let frames = frames_for(SceneKind::People, 71, 4);
        let cost = FrameStore::frame_cost(&frames[0]);
        // Budget for exactly two frames.
        let mut store = FrameStore::from_frames(&frames, Some(2 * cost));
        assert_eq!(store.resident_count(), 2);
        assert!(store.resident_bytes() <= 2 * cost);
        assert_eq!(store.peak_bytes(), 2 * cost);
        assert_eq!(store.evictions(), 2);
        // Insertion order was index order, so the two oldest were evicted —
        // but their indices are still *known*.
        assert!(!store.resident(frames[0].index) && store.knows(frames[0].index));
        assert!(!store.resident(frames[1].index) && store.knows(frames[1].index));
        assert!(store.resident(frames[2].index) && store.resident(frames[3].index));
        assert!(!store.knows(999));
        // Touching frame 2 makes frame 3 the LRU victim of the next insert.
        assert!(store.touch(frames[2].index));
        assert!(
            !store.touch(frames[0].index),
            "evicted frames cannot be touched"
        );
        store.insert(frames[0].clone());
        assert!(store.resident(frames[0].index));
        assert!(store.resident(frames[2].index));
        assert!(!store.resident(frames[3].index), "LRU frame evicted");
        assert_eq!(store.evictions(), 3);
        // The budget invariant held throughout.
        assert!(store.peak_bytes() <= 2 * cost);
        // Re-inserting a resident frame only refreshes recency.
        store.insert(frames[0].clone());
        assert_eq!(store.resident_count(), 2);
        // An unbounded store never evicts.
        let unbounded = FrameStore::from_frames(&frames, None);
        assert_eq!(unbounded.resident_count(), 4);
        assert_eq!(unbounded.evictions(), 0);
        // A frame bigger than the whole budget is never admitted.
        let mut tiny = FrameStore::new(Some(cost / 2));
        tiny.insert(frames[0].clone());
        assert!(tiny.knows(frames[0].index) && !tiny.resident(frames[0].index));
        assert_eq!(tiny.evictions(), 1);
        assert_eq!(tiny.resident_bytes(), 0);
    }

    #[test]
    fn fair_scheduler_reports_the_busiest_stream() {
        let mut s = FairScheduler::new(1);
        assert_eq!(s.busiest_stream(), None);
        s.push(5, 0, at(0));
        s.push(2, 0, at(1));
        s.push(2, 1, at(2));
        assert_eq!(s.busiest_stream(), Some((2, 2)));
        // Ties break toward the smaller stream id, deterministically.
        s.push(5, 1, at(3));
        assert_eq!(s.busiest_stream(), Some((2, 2)));
    }

    #[test]
    fn evicted_frame_parks_the_job_instead_of_dropping_it() {
        let mut s = shard();
        let people = frames_for(SceneKind::People, 72, 3);
        let cost = FrameStore::frame_cost(&people[0]);
        // Budget for one frame: only the last pre-shared frame is resident.
        s.register(1, FrameStore::from_frames(&people, Some(cost)), false);
        let outcome = s
            .process_batch(&[ShardJob {
                stream_id: 1,
                frame_index: people[0].index,
            }])
            .unwrap();
        assert!(outcome.responses.is_empty());
        assert!(outcome.dropped.is_empty(), "evicted is not unknown");
        assert_eq!(outcome.needs_frame.len(), 1);
        assert_eq!(s.stats().need_frame_requests, 1);
        assert_eq!(s.stats().dropped_jobs, 0);
        // The client re-shares the frame; the job now serves normally.
        assert!(s.reshare(1, people[0].clone()));
        let outcome = s
            .process_batch(&[ShardJob {
                stream_id: 1,
                frame_index: people[0].index,
            }])
            .unwrap();
        assert_eq!(outcome.responses.len(), 1);
        assert_eq!(s.stats().reshared_frames, 1);
        // Re-sharing a frame that was never shared is refused (a re-share is
        // recovery, not a side door for new frames).
        let foreign = frames_for(SceneKind::Street, 73, 5).pop().unwrap();
        assert!(!s.reshare(1, foreign));
        assert!(!s.reshare(9, people[0].clone()), "unknown stream");
        // Cache counters fold into the shard stats when the stream finishes.
        let (_ckpt, _stats) = s.finish(1).unwrap();
        let stats = s.stats();
        assert!(stats.frame_evictions >= 2);
        assert!(stats.frame_bytes_peak > 0 && stats.frame_bytes_peak <= cost);
    }

    #[test]
    fn migrated_session_continues_bit_for_bit() {
        // Distilling on shard A, migrating, then distilling on shard B must
        // produce exactly the weights (and counters) of never migrating.
        let people = frames_for(SceneKind::People, 74, 2);
        let mut control = shard();
        control.register(1, FrameStore::from_frames(&people, None), false);
        let mut a = shard();
        a.register(1, FrameStore::from_frames(&people, None), false);
        let job0 = ShardJob {
            stream_id: 1,
            frame_index: people[0].index,
        };
        let job1 = ShardJob {
            stream_id: 1,
            frame_index: people[1].index,
        };
        control.process_batch(&[job0]).unwrap();
        a.process_batch(&[job0]).unwrap();
        // Migrate A → B between batches (the only point migrations happen).
        let mut b = shard();
        let entry = a.evict_stream(1).expect("stream lives on A");
        assert!(!a.has_stream(1));
        b.adopt_stream(1, entry);
        assert_eq!(a.stats().streams_donated, 1);
        assert_eq!(b.stats().streams_stolen_in, 1);
        control.process_batch(&[job1]).unwrap();
        b.process_batch(&[job1]).unwrap();
        let (ckpt_control, stats_control) = control.finish(1).unwrap();
        let (ckpt_b, stats_b) = b.finish(1).unwrap();
        assert!(ckpt_control.distance(&ckpt_b).unwrap() < 1e-12);
        assert_eq!(stats_control.key_frames, stats_b.key_frames);
        assert_eq!(stats_control.distill_steps, stats_b.distill_steps);
        // The work is attributed where it ran: one key frame each.
        assert_eq!(a.stats().key_frames, 1);
        assert_eq!(b.stats().key_frames, 1);
    }

    #[test]
    fn rebalance_pool_steals_a_backlogged_stream() {
        // Two shards, three streams. Least-loaded placement puts the hot
        // stream (id 0) and a cold shard-mate (id 2) on shard 0, and an
        // inactive stream (id 1) on shard 1. The hot backlog plus the cold
        // mate's queued jobs make shard 0 donatable, while shard 1 idles and
        // asks for work: with Rebalance, a steal must happen.
        let pool = ServerPool::spawn(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 2,
                max_batch: 1,
                quantum: 1,
                adaptive_batch: false,
                max_in_flight: 64,
                placement: PlacementPolicy::Rebalance,
                steal_poll: Duration::from_millis(1),
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            // A real wall-clock pause per forward so a backlog actually
            // builds at shard 0 while shard 1 goes idle.
            |shard| {
                crate::loadgen::PacedTeacher::new(
                    OracleTeacher::perfect(600 + shard as u64),
                    Duration::from_millis(8),
                )
            },
        )
        .unwrap();
        let hot_frames = frames_for(SceneKind::People, 75, 12);
        let idle_frames = frames_for(SceneKind::Street, 77, 1);
        let mate_frames = frames_for(SceneKind::Animals, 76, 3);
        let mut hot = pool.connect(0, &hot_frames).unwrap();
        let mut idle = pool.connect(1, &idle_frames).unwrap();
        let mut mate = pool.connect(2, &mate_frames).unwrap();
        assert_eq!(pool.shard_loads(), vec![2, 1]);
        hot.recv_timeout(Duration::from_secs(10)).unwrap();
        idle.recv_timeout(Duration::from_secs(10)).unwrap();
        mate.recv_timeout(Duration::from_secs(10)).unwrap();
        // Blast the hot stream's whole backlog at shard 0, with the mate's
        // jobs queued alongside so donation is legal; stream 1 sends
        // nothing, so shard 1 has only stolen work to do.
        let send_key = |client: &mut StreamClient, frame: &Frame| {
            let payload = Payload::sized(frame.raw_rgb_bytes());
            let bytes = payload.bytes;
            client
                .send(
                    ClientToServer::KeyFrame {
                        frame_index: frame.index,
                        payload,
                    },
                    bytes,
                )
                .unwrap();
        };
        for frame in &hot_frames {
            send_key(&mut hot, frame);
        }
        for frame in &mate_frames {
            send_key(&mut mate, frame);
        }
        idle.send(ClientToServer::Shutdown, 1).unwrap();
        drop(idle);
        for _ in &hot_frames {
            let update = hot.recv_timeout(Duration::from_secs(30)).unwrap();
            assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
        }
        for _ in &mate_frames {
            let update = mate.recv_timeout(Duration::from_secs(30)).unwrap();
            assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
        }
        hot.send(ClientToServer::Shutdown, 1).unwrap();
        mate.send(ClientToServer::Shutdown, 1).unwrap();
        drop((hot, mate));
        let stats = pool.join().unwrap();
        assert_eq!(stats.total_key_frames(), 15);
        assert_eq!(stats.dropped_jobs(), 0);
        assert!(
            stats.streams_stolen() >= 1,
            "the idle shard never stole the backlog: {:?}",
            stats
                .shards
                .iter()
                .map(|s| (s.key_frames, s.streams_stolen_in, s.streams_donated))
                .collect::<Vec<_>>()
        );
        // Both shards ended up doing real work.
        assert!(stats.shards.iter().all(|s| s.key_frames >= 1));
        // Every steal has a matching donation, and every stream finished
        // with a checkpoint wherever it ended up.
        let donated: usize = stats.shards.iter().map(|s| s.streams_donated).sum();
        assert_eq!(donated, stats.streams_stolen());
        assert_eq!(stats.final_checkpoints.len(), 3);
        assert_eq!(stats.streams.len(), 3);
        assert_eq!(
            stats.streams[&0].key_frames + stats.streams[&2].key_frames,
            15
        );
    }

    #[test]
    fn static_modulo_placement_is_a_pure_function_of_the_id() {
        let pool = ServerPool::spawn(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 2,
                placement: PlacementPolicy::StaticModulo,
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            |shard| OracleTeacher::perfect(400 + shard as u64),
        )
        .unwrap();
        let frames = frames_for(SceneKind::People, 63, 1);
        // Both even ids land on shard 0 even though shard 1 is empty.
        let a = pool.connect(0, &frames).unwrap();
        let b = pool.connect(2, &frames).unwrap();
        assert_eq!(pool.shard_loads(), vec![2, 0]);
        drop((a, b));
        pool.join().unwrap();
    }

    /// Spawn a pool, pipeline `key_frames` key frames per stream through
    /// `streams` clients, shut down cleanly and return the final stats.
    /// Shared by the reactor tests so every worker count runs a
    /// byte-identical workload.
    fn run_pipelined_pool(pool_config: PoolConfig, streams: usize, key_frames: usize) -> PoolStats {
        let pool = ServerPool::spawn(
            ShadowTutorConfig::paper(),
            pool_config,
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            |shard| OracleTeacher::perfect(500 + shard as u64),
        )
        .unwrap();
        let stream_frames: Vec<(StreamId, Vec<Frame>)> = (0..streams)
            .map(|id| {
                (
                    id as StreamId,
                    frames_for(SceneKind::People, 70 + id as u64, key_frames),
                )
            })
            .collect();
        let mut clients: Vec<StreamClient> = stream_frames
            .iter()
            .map(|(id, frames)| pool.connect(*id, frames).unwrap())
            .collect();
        for (client, (_, frames)) in clients.iter_mut().zip(&stream_frames) {
            let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
            // Pipeline every key frame without waiting for updates, so the
            // server sees real per-stream backlog and batches freely.
            for frame in frames {
                let payload = Payload::sized(frame.raw_rgb_bytes());
                let bytes = payload.bytes;
                client
                    .send(
                        ClientToServer::KeyFrame {
                            frame_index: frame.index,
                            payload,
                        },
                        bytes,
                    )
                    .unwrap();
            }
            client.send(ClientToServer::Shutdown, 1).unwrap();
        }
        drop(clients);
        pool.join().unwrap()
    }

    #[test]
    fn reactor_pool_hosts_more_shards_than_threads() {
        // The decoupling the reactor exists for: 8 shards on 2 threads.
        let stats = run_pipelined_pool(
            PoolConfig {
                shards: 8,
                reactor_threads: Some(2),
                placement: PlacementPolicy::StaticModulo,
                max_in_flight: 64,
                ..PoolConfig::default_pool()
            },
            8,
            2,
        );
        assert_eq!(stats.streams.len(), 8);
        assert_eq!(stats.final_checkpoints.len(), 8);
        assert_eq!(stats.total_key_frames(), 16);
        assert_eq!(stats.dropped_jobs(), 0);
        assert_eq!(stats.throttled(), 0);
        assert!(stats.streams.values().all(|s| s.key_frames == 2));
        // The reactor's own accounting made it into the operator report.
        let report = stats.snapshot();
        assert_eq!(report.shards.len(), 8);
        assert!(report.poll_wakeups > 0, "no readiness wakeups recorded");
        // Register + 2 key frames + shutdown per stream, at minimum.
        assert!(report.events_dispatched >= 8 * 4);
    }

    #[test]
    fn distillation_is_independent_of_the_reactor_thread_count() {
        let base = PoolConfig {
            shards: 4,
            placement: PlacementPolicy::StaticModulo,
            max_in_flight: 64,
            ..PoolConfig::default_pool()
        };
        // One worker per shard (the default), a single worker hosting all
        // four shards, and two workers sharing them.
        let runs: Vec<PoolStats> = [None, Some(1), Some(2)]
            .into_iter()
            .map(|reactor_threads| {
                run_pipelined_pool(
                    PoolConfig {
                        reactor_threads,
                        ..base
                    },
                    4,
                    4,
                )
            })
            .collect();
        let reference = &runs[0];
        assert_eq!(reference.total_key_frames(), 16);
        for run in &runs {
            assert_eq!(run.total_key_frames(), 16);
            assert_eq!(run.dropped_jobs(), 0);
        }
        // Same workload, same shard assignment, same teachers: every
        // stream's final student must match to the byte whatever the worker
        // count and however the batching timing fell out.
        for (run, threads) in runs.iter().zip(["None", "Some(1)", "Some(2)"]).skip(1) {
            for id in 0..4u64 {
                let a = reference.final_checkpoints[&id].encode();
                let b = run.final_checkpoints[&id].encode();
                assert_eq!(a, b, "stream {id} diverged at reactor_threads {threads}");
                // Per-stream serving counters agree too (waits and batch
                // shapes may differ; the distillation outcome may not).
                assert_eq!(
                    reference.streams[&id].key_frames,
                    run.streams[&id].key_frames
                );
                assert_eq!(
                    reference.streams[&id].distill_steps,
                    run.streams[&id].distill_steps
                );
            }
        }
    }

    #[test]
    fn reactor_pool_steals_work_like_the_threaded_pool() {
        // The same topology as rebalance_pool_steals_a_backlogged_stream —
        // hot + mate on shard 0, an idle stream on shard 1 — but both
        // shards hosted by ONE reactor thread: the steal protocol must flow
        // through timer ticks and mailbox wakes instead of parallel loops.
        let pool = ServerPool::spawn(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 2,
                reactor_threads: Some(1),
                max_batch: 1,
                quantum: 1,
                adaptive_batch: false,
                max_in_flight: 64,
                placement: PlacementPolicy::Rebalance,
                steal_poll: Duration::from_millis(1),
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            // A real wall-clock pause per forward so a backlog actually
            // builds at shard 0 while shard 1 goes idle.
            |shard| {
                crate::loadgen::PacedTeacher::new(
                    OracleTeacher::perfect(600 + shard as u64),
                    Duration::from_millis(8),
                )
            },
        )
        .unwrap();
        let hot_frames = frames_for(SceneKind::People, 80, 12);
        let idle_frames = frames_for(SceneKind::Street, 82, 1);
        let mate_frames = frames_for(SceneKind::Animals, 81, 3);
        let mut hot = pool.connect(0, &hot_frames).unwrap();
        let mut idle = pool.connect(1, &idle_frames).unwrap();
        let mut mate = pool.connect(2, &mate_frames).unwrap();
        assert_eq!(pool.shard_loads(), vec![2, 1]);
        hot.recv_timeout(Duration::from_secs(10)).unwrap();
        idle.recv_timeout(Duration::from_secs(10)).unwrap();
        mate.recv_timeout(Duration::from_secs(10)).unwrap();
        let send_key = |client: &mut StreamClient, frame: &Frame| {
            let payload = Payload::sized(frame.raw_rgb_bytes());
            let bytes = payload.bytes;
            client
                .send(
                    ClientToServer::KeyFrame {
                        frame_index: frame.index,
                        payload,
                    },
                    bytes,
                )
                .unwrap();
        };
        for frame in &hot_frames {
            send_key(&mut hot, frame);
        }
        for frame in &mate_frames {
            send_key(&mut mate, frame);
        }
        idle.send(ClientToServer::Shutdown, 1).unwrap();
        drop(idle);
        // Drain updates BEFORE shutdown so the backlog sits in the
        // scheduler (one batch per pass) long enough to be stolen.
        for _ in &hot_frames {
            let update = hot.recv_timeout(Duration::from_secs(30)).unwrap();
            assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
        }
        for _ in &mate_frames {
            let update = mate.recv_timeout(Duration::from_secs(30)).unwrap();
            assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
        }
        hot.send(ClientToServer::Shutdown, 1).unwrap();
        mate.send(ClientToServer::Shutdown, 1).unwrap();
        drop((hot, mate));
        let stats = pool.join().unwrap();
        assert_eq!(stats.total_key_frames(), 15);
        assert_eq!(stats.dropped_jobs(), 0);
        assert_eq!(stats.streams.len(), 3);
        assert_eq!(stats.final_checkpoints.len(), 3);
        let report = stats.snapshot();
        assert!(
            report.streams_stolen >= 1,
            "no steal happened under the reactor: {report:?}"
        );
        let donated: usize = stats.shards.iter().map(|s| s.streams_donated).sum();
        assert_eq!(donated, stats.streams_stolen());
        // Steal-poll ticks flow through the timer wheel under the reactor.
        assert!(report.timer_fires > 0, "no timer-driven passes recorded");
    }
}
