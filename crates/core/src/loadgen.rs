//! Open-loop skewed load generation against a live [`ServerPool`].
//!
//! The cooperative client of Algorithm 4 sends at most one key frame per
//! stride, so it can never expose unfairness in the pool. This module drives
//! the pool with *raw* [`StreamClient`] endpoints instead: every stream
//! sends key frames on a fixed open-loop schedule, and one **hot** stream
//! sends at a multiple of the base rate — the adversarial arrival pattern
//! the paper's §4.4 concurrency analysis (and our
//! [`st_sim::ContentionModel`]) assumes away. The generator measures what
//! each stream actually experienced: client-observed round trips per
//! serviced key frame, plus throttle/drop counts from the pool's admission
//! control.
//!
//! Used by the fairness end-to-end tests and the `table9_skewed_streams`
//! bench; [`PacedTeacher`] makes the teacher's wall-clock cost real (and
//! sub-linear in batch size) so queueing is physical rather than simulated.

use crate::config::ShadowTutorConfig;
use crate::serve::{PoolConfig, PoolStats, ServerPool, StreamClient};
use crate::Result;
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, Payload, ServerToClient, StreamId, TransportError};
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_tensor::TensorError;
use st_video::dataset::tiny_stream;
use st_video::{Frame, SceneKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A teacher whose forward passes cost real wall-clock time.
///
/// Wraps any [`Teacher`] and sleeps `forward_pause` per solo forward; a
/// batched forward sleeps `forward_pause * (1 + 0.2 (b - 1))` — the same
/// sub-linear shape as the default virtual
/// [`Teacher::batched_inference_latency`] — so co-scheduling pays off in
/// wall-clock terms too. The *virtual* latencies still come from the inner
/// teacher, keeping the analytic accounting unchanged.
pub struct PacedTeacher<T: Teacher> {
    inner: T,
    forward_pause: Duration,
}

impl<T: Teacher> PacedTeacher<T> {
    /// Pace `inner` at `forward_pause` wall-clock per solo forward.
    pub fn new(inner: T, forward_pause: Duration) -> Self {
        PacedTeacher {
            inner,
            forward_pause,
        }
    }
}

impl<T: Teacher> Teacher for PacedTeacher<T> {
    fn pseudo_label(&mut self, frame: &Frame) -> st_teacher::Result<Vec<usize>> {
        std::thread::sleep(self.forward_pause);
        self.inner.pseudo_label(frame)
    }

    fn pseudo_label_batch(&mut self, frames: &[&Frame]) -> st_teacher::Result<Vec<Vec<usize>>> {
        if !frames.is_empty() {
            let scaled = 1.0 + 0.2 * (frames.len() as f64 - 1.0);
            std::thread::sleep(self.forward_pause.mul_f64(scaled));
        }
        frames.iter().map(|f| self.inner.pseudo_label(f)).collect()
    }

    fn inference_latency(&self) -> f64 {
        self.inner.inference_latency()
    }

    fn batched_inference_latency(&self, batch: usize) -> f64 {
        self.inner.batched_inference_latency(batch)
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

/// Parameters of one skewed-load run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewedLoadSpec {
    /// Total client streams; stream 0 is the hot one.
    pub streams: usize,
    /// The hot stream sends this multiple of the base key-frame rate
    /// (1 = uniform load).
    pub hot_multiplier: usize,
    /// Key frames each *cold* stream sends (the hot stream sends
    /// `hot_multiplier` times as many over the same wall-clock window).
    pub key_frames_per_stream: usize,
    /// Gap between a cold stream's sends — the base inter-arrival time.
    pub send_interval: Duration,
    /// Seed for the synthetic frame content.
    pub seed: u64,
}

impl SkewedLoadSpec {
    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.streams == 0 || self.hot_multiplier == 0 || self.key_frames_per_stream == 0 {
            return Err(TensorError::InvalidArgument(
                "skewed load needs at least one stream, 1x multiplier, one key frame".into(),
            ));
        }
        Ok(())
    }
}

/// One stream's client-side view of a skewed-load run.
#[derive(Debug, Clone)]
pub struct StreamLoadReport {
    /// The stream.
    pub stream_id: StreamId,
    /// Whether this was the hot stream.
    pub hot: bool,
    /// Key frames sent.
    pub sent: usize,
    /// `StudentUpdate`s received.
    pub updates: usize,
    /// `Throttle`s received (admission control rejected the key frame).
    pub throttled: usize,
    /// `Dropped`s received.
    pub dropped: usize,
    /// `NeedFrame`s answered with a re-upload (the pool evicted the frame
    /// from its bounded cache and asked for it back).
    pub reshared: usize,
    /// Client-observed round trip (send → update) per serviced key frame,
    /// in seconds, in completion order. A re-shared frame's round trip spans
    /// the whole recovery exchange.
    pub round_trips: Vec<f64>,
}

impl StreamLoadReport {
    /// Mean round trip over the serviced key frames (0.0 when none).
    pub fn mean_round_trip(&self) -> f64 {
        if self.round_trips.is_empty() {
            0.0
        } else {
            self.round_trips.iter().sum::<f64>() / self.round_trips.len() as f64
        }
    }

    /// The `p`-th percentile round trip (`p` in `[0, 100]`; 0.0 when no key
    /// frame was serviced).
    pub fn percentile_round_trip(&self, p: f64) -> f64 {
        percentile(&self.round_trips, p)
    }
}

/// The `p`-th percentile of an unsorted sample by nearest-rank rounding
/// (`p` in `[0, 100]`; 0.0 when the sample is empty). Shared by the
/// per-stream reports here and the Table 9 aggregation in `st-bench`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    sorted[rank.round() as usize]
}

/// Outcome of a skewed-load run: per-stream client measurements plus the
/// pool's own statistics.
#[derive(Debug)]
pub struct SkewedLoadOutcome {
    /// Per-stream reports, indexed by stream id (stream 0 is hot).
    pub streams: Vec<StreamLoadReport>,
    /// Server-pool statistics (per-stream waits, throttles, drops).
    pub pool: PoolStats,
    /// Wall-clock duration of the run in seconds.
    pub wall_time: f64,
}

impl SkewedLoadOutcome {
    /// The hot stream's report.
    pub fn hot(&self) -> &StreamLoadReport {
        &self.streams[0]
    }

    /// The cold streams' reports.
    pub fn cold(&self) -> &[StreamLoadReport] {
        &self.streams[1..]
    }
}

const SCENES: [SceneKind; 3] = [SceneKind::People, SceneKind::Animals, SceneKind::Street];

/// Drive a pool with `spec.streams` open-loop clients, stream 0 sending
/// `spec.hot_multiplier`× the base key-frame rate, and collect per-stream
/// round trips plus pool statistics.
pub fn run_skewed_load<T, F>(
    config: ShadowTutorConfig,
    pool_config: PoolConfig,
    student: StudentNet,
    distill_step_latency: f64,
    teacher_factory: F,
    spec: SkewedLoadSpec,
) -> Result<SkewedLoadOutcome>
where
    T: Teacher + Send + 'static,
    F: FnMut(usize) -> T,
{
    spec.validate()?;
    config.validate()?;
    pool_config.validate()?;
    let started = Instant::now();
    let pool = ServerPool::spawn(
        config,
        pool_config,
        student,
        distill_step_latency,
        teacher_factory,
    )?;

    // Connect every stream up front so placement is deterministic in id
    // order, then drive each client on its own thread. Each stream gets one
    // distinct frame per send so round trips match unambiguously by index.
    let mut clients: Vec<StreamClient> = Vec::with_capacity(spec.streams);
    let mut frame_sets: Vec<Vec<Frame>> = Vec::with_capacity(spec.streams);
    for s in 0..spec.streams {
        let sends = spec.key_frames_per_stream * if s == 0 { spec.hot_multiplier } else { 1 };
        let frames = tiny_stream(SCENES[s % SCENES.len()], spec.seed + s as u64, sends);
        clients.push(pool.connect(s as u64, &frames)?);
        frame_sets.push(frames);
    }

    let mut reports: Vec<Result<StreamLoadReport>> = Vec::with_capacity(spec.streams);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(spec.streams);
        for (s, (client, frames)) in clients.into_iter().zip(frame_sets).enumerate() {
            let hot = s == 0;
            let interval = if hot {
                spec.send_interval / spec.hot_multiplier as u32
            } else {
                spec.send_interval
            };
            handles.push(
                scope.spawn(move || drive_open_loop(client, frames, interval, s as u64, hot)),
            );
        }
        for handle in handles {
            reports.push(handle.join().unwrap_or_else(|_| {
                Err(TensorError::InvalidArgument(
                    "load-generator client thread panicked".into(),
                ))
            }));
        }
    });

    let pool_stats = pool.join()?;
    let wall_time = started.elapsed().as_secs_f64();
    let streams = reports.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(SkewedLoadOutcome {
        streams,
        pool: pool_stats,
        wall_time,
    })
}

/// One open-loop client: send every frame on the fixed schedule, absorbing
/// responses as they arrive (including `NeedFrame` recovery requests, which
/// are answered by re-uploading the frame), then drain the tail and shut
/// down.
fn drive_open_loop(
    mut client: StreamClient,
    frames: Vec<Frame>,
    interval: Duration,
    stream_id: StreamId,
    hot: bool,
) -> Result<StreamLoadReport> {
    let mut report = StreamLoadReport {
        stream_id,
        hot,
        sent: 0,
        updates: 0,
        throttled: 0,
        dropped: 0,
        reshared: 0,
        round_trips: Vec::with_capacity(frames.len()),
    };
    // The initial checkpoint arrives first.
    client
        .recv_timeout(Duration::from_secs(30))
        .map_err(|e| TensorError::InvalidArgument(format!("no initial checkpoint: {e:?}")))?;

    let by_index: HashMap<usize, &Frame> = frames.iter().map(|f| (f.index, f)).collect();
    let mut sent_at: HashMap<usize, Instant> = HashMap::with_capacity(frames.len());
    let mut outstanding = 0usize;
    let mut reshare_queue: Vec<usize> = Vec::new();
    for frame in &frames {
        let payload = Payload::sized(frame.raw_rgb_bytes());
        let bytes = payload.bytes;
        sent_at.insert(frame.index, Instant::now());
        client
            .send(
                ClientToServer::KeyFrame {
                    frame_index: frame.index,
                    payload,
                },
                bytes,
            )
            .map_err(|e| TensorError::InvalidArgument(format!("uplink send failed: {e:?}")))?;
        report.sent += 1;
        outstanding += 1;
        while let Ok(Some(message)) = client.try_recv() {
            absorb(
                message,
                &mut sent_at,
                &mut report,
                &mut outstanding,
                &mut reshare_queue,
            );
        }
        answer_reshares(&mut client, &by_index, &mut reshare_queue, &mut report)?;
        std::thread::sleep(interval);
    }
    // The pool answers every key frame (update, throttle, or drop ack);
    // wait for the stragglers before shutting the stream down.
    let deadline = Instant::now() + Duration::from_secs(30);
    while outstanding > 0 && Instant::now() < deadline {
        match client.recv_timeout(Duration::from_millis(200)) {
            Ok(message) => absorb(
                message,
                &mut sent_at,
                &mut report,
                &mut outstanding,
                &mut reshare_queue,
            ),
            Err(TransportError::Timeout) => continue,
            Err(_) => break,
        }
        answer_reshares(&mut client, &by_index, &mut reshare_queue, &mut report)?;
    }
    client.send(ClientToServer::Shutdown, 1).ok();
    Ok(report)
}

/// Parameters of one uniform open-loop capacity run
/// ([`run_capacity_load`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityLoadSpec {
    /// Concurrent client streams, all sending at the same mean rate.
    pub streams: usize,
    /// Key frames each stream sends.
    pub key_frames_per_stream: usize,
    /// Mean gap between a stream's sends. Actual gaps are jittered
    /// uniformly in `[0.5, 1.5]` of this and phases are randomized, so
    /// arrivals are bursty the way independent clients are — the regime
    /// where a pooled worker set absorbs what a partitioned one queues.
    pub send_interval: Duration,
    /// Seed for frame content, phases and jitter (runs are deterministic
    /// on the arrival side; service timing is real wall clock).
    pub seed: u64,
}

impl CapacityLoadSpec {
    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.streams == 0 || self.key_frames_per_stream == 0 {
            return Err(TensorError::InvalidArgument(
                "capacity load needs at least one stream and one key frame".into(),
            ));
        }
        if self.send_interval.is_zero() {
            return Err(TensorError::InvalidArgument(
                "capacity load needs a non-zero send interval".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of a capacity run: the pooled round-trip sample across all
/// streams plus the pool's own statistics.
#[derive(Debug)]
pub struct CapacityLoadOutcome {
    /// Client-observed round trips (due time → update) of every serviced
    /// key frame across all streams, seconds. Timing starts when the key
    /// frame was *due*, not when the driver got round to sending it, so a
    /// late send counts its own lag as queueing.
    pub round_trips: Vec<f64>,
    /// `StudentUpdate`s received across all streams.
    pub updates: usize,
    /// `Throttle`s received across all streams.
    pub throttled: usize,
    /// `Dropped`s received across all streams.
    pub dropped: usize,
    /// Server-pool statistics.
    pub pool: PoolStats,
    /// Wall-clock duration of the run in seconds.
    pub wall_time: f64,
}

impl CapacityLoadOutcome {
    /// The `p`-th percentile round trip in seconds.
    pub fn percentile_round_trip(&self, p: f64) -> f64 {
        percentile(&self.round_trips, p)
    }

    /// Mean server-side service time per key frame, from the pool's busy
    /// accounting — what the analytic model should be fed.
    pub fn mean_service_secs(&self) -> f64 {
        let report = self.pool.snapshot();
        let key_frames = report.total_key_frames.max(1);
        let busy: f64 = report.shards.iter().map(|s| s.busy_secs).sum();
        busy / key_frames as f64
    }

    /// The `p`-th percentile *queue wait*: round trip minus the mean
    /// service time, floored at zero. Coarse (per-frame service varies a
    /// little), but consistent across topologies.
    pub fn percentile_queue_wait(&self, p: f64) -> f64 {
        (self.percentile_round_trip(p) - self.mean_service_secs()).max(0.0)
    }
}

/// One stream's client-side state inside the single-threaded capacity
/// driver.
struct OpenLoopStream {
    client: StreamClient,
    frames: Vec<Frame>,
    cursor: usize,
    next_send: Instant,
    report: StreamLoadReport,
    sent_at: HashMap<usize, Instant>,
    outstanding: usize,
    reshare_queue: Vec<usize>,
}

/// Deterministic xorshift64* generator for phases and jitter — keeps the
/// arrival schedule reproducible without pulling a rand dependency into
/// the core crate. Also seeds the client driver's reconnect backoff jitter,
/// so retry storms stay reproducible under a fixed seed.
pub(crate) struct JitterRng(u64);

impl JitterRng {
    pub(crate) fn new(seed: u64) -> Self {
        JitterRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Drive `spec.streams` uniform open-loop clients against the pool from
/// **one** thread, multiplexing all endpoints through one
/// [`st_net::Poller`] — the client-side harness of the `table12_capacity`
/// experiment, able to host hundreds of mostly-idle streams without an OS
/// thread each (the thread-per-client [`run_skewed_load`] harness would hit
/// thread limits first). The driver parks on the poller until a downlink
/// delivery wakes a stream or the next key frame falls due.
///
/// Every stream sends `key_frames_per_stream` key frames at jittered
/// intervals around `send_interval`, with randomized phases. Round trips,
/// throttle/drop counts and reshare recoveries are folded into one pooled
/// sample across streams (the population is uniform, so per-stream
/// attribution adds nothing).
pub fn run_capacity_load<T, F>(
    config: ShadowTutorConfig,
    pool_config: PoolConfig,
    student: StudentNet,
    distill_step_latency: f64,
    teacher_factory: F,
    spec: CapacityLoadSpec,
) -> Result<CapacityLoadOutcome>
where
    T: Teacher + Send + 'static,
    F: FnMut(usize) -> T,
{
    spec.validate()?;
    config.validate()?;
    pool_config.validate()?;
    let started = Instant::now();
    let pool = ServerPool::spawn(
        config,
        pool_config,
        student,
        distill_step_latency,
        teacher_factory,
    )?;

    let mut rng = JitterRng::new(spec.seed);
    let interval = spec.send_interval.as_secs_f64();
    let poller = st_net::Poller::new();
    let origin = Instant::now();
    let mut streams: Vec<OpenLoopStream> = Vec::with_capacity(spec.streams);
    for s in 0..spec.streams {
        let frames = tiny_stream(
            SCENES[s % SCENES.len()],
            spec.seed + s as u64,
            spec.key_frames_per_stream,
        );
        let client = pool.connect_with_waker(s as u64, &frames, Some(poller.waker(s)))?;
        // Random phase in [0, interval): without it all streams would fire
        // in lockstep and the first tick would measure a thundering herd
        // instead of steady-state queueing.
        let phase = Duration::from_secs_f64(interval * rng.unit());
        streams.push(OpenLoopStream {
            client,
            frames,
            cursor: 0,
            next_send: origin + phase,
            report: StreamLoadReport {
                stream_id: s as u64,
                hot: false,
                sent: 0,
                updates: 0,
                throttled: 0,
                dropped: 0,
                reshared: 0,
                round_trips: Vec::with_capacity(spec.key_frames_per_stream),
            },
            sent_at: HashMap::with_capacity(spec.key_frames_per_stream),
            outstanding: 0,
            reshare_queue: Vec::new(),
        });
    }

    let mut drain_deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let mut next_due: Option<Instant> = None;
        let mut any_outstanding = false;
        for stream in streams.iter_mut() {
            while stream.cursor < stream.frames.len() && now >= stream.next_send {
                let frame = &stream.frames[stream.cursor];
                let payload = Payload::sized(frame.raw_rgb_bytes());
                let bytes = payload.bytes;
                stream.sent_at.insert(frame.index, stream.next_send);
                stream
                    .client
                    .send(
                        ClientToServer::KeyFrame {
                            frame_index: frame.index,
                            payload,
                        },
                        bytes,
                    )
                    .map_err(|e| {
                        TensorError::InvalidArgument(format!("uplink send failed: {e:?}"))
                    })?;
                stream.report.sent += 1;
                stream.outstanding += 1;
                stream.cursor += 1;
                // Jittered gap in [0.5, 1.5] of the mean interval.
                let gap = interval * (0.5 + rng.unit());
                stream.next_send += Duration::from_secs_f64(gap);
            }
            while let Ok(Some(message)) = stream.client.try_recv() {
                absorb(
                    message,
                    &mut stream.sent_at,
                    &mut stream.report,
                    &mut stream.outstanding,
                    &mut stream.reshare_queue,
                );
            }
            if !stream.reshare_queue.is_empty() {
                let by_index: HashMap<usize, &Frame> =
                    stream.frames.iter().map(|f| (f.index, f)).collect();
                answer_reshares(
                    &mut stream.client,
                    &by_index,
                    &mut stream.reshare_queue,
                    &mut stream.report,
                )?;
            }
            if stream.cursor < stream.frames.len() {
                next_due = Some(next_due.map_or(stream.next_send, |due| due.min(stream.next_send)));
            }
            any_outstanding |= stream.outstanding > 0;
        }
        let wake_by = match next_due {
            Some(due) => due,
            None if !any_outstanding => break,
            // Everything is sent. The pool answers every key frame; bound
            // the tail drain anyway so a lost ack cannot hang the bench.
            None => {
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(30));
                if Instant::now() >= deadline {
                    break;
                }
                deadline
            }
        };
        // Park until a downlink delivery wakes a stream's token or the next
        // key frame falls due. A wake that races a message already drained
        // above only costs one extra scan.
        poller.poll(wake_by.saturating_duration_since(Instant::now()));
    }

    let mut outcome_round_trips = Vec::new();
    let mut updates = 0;
    let mut throttled = 0;
    let mut dropped = 0;
    for mut stream in streams {
        stream.client.send(ClientToServer::Shutdown, 1).ok();
        outcome_round_trips.extend(stream.report.round_trips.iter().copied());
        updates += stream.report.updates;
        throttled += stream.report.throttled;
        dropped += stream.report.dropped;
        // Dropping the client closes the stream's downlink registration.
        drop(stream.client);
    }

    let pool_stats = pool.join()?;
    let wall_time = started.elapsed().as_secs_f64();
    Ok(CapacityLoadOutcome {
        round_trips: outcome_round_trips,
        updates,
        throttled,
        dropped,
        pool: pool_stats,
        wall_time,
    })
}

/// Re-upload every frame the server asked back for.
fn answer_reshares(
    client: &mut StreamClient,
    by_index: &HashMap<usize, &Frame>,
    reshare_queue: &mut Vec<usize>,
    report: &mut StreamLoadReport,
) -> Result<()> {
    for frame_index in reshare_queue.drain(..) {
        let Some(frame) = by_index.get(&frame_index) else {
            // The server asked for a frame we never had; the pending job
            // will be drop-acked at stream end. Nothing to upload.
            continue;
        };
        client
            .reshare(frame)
            .map_err(|e| TensorError::InvalidArgument(format!("reshare failed: {e:?}")))?;
        report.reshared += 1;
    }
    Ok(())
}

/// Fold one downlink message into the stream's report.
fn absorb(
    message: ServerToClient,
    sent_at: &mut HashMap<usize, Instant>,
    report: &mut StreamLoadReport,
    outstanding: &mut usize,
    reshare_queue: &mut Vec<usize>,
) {
    match message {
        ServerToClient::StudentUpdate { frame_index, .. } => {
            if let Some(t0) = sent_at.remove(&frame_index) {
                report.round_trips.push(t0.elapsed().as_secs_f64());
            }
            report.updates += 1;
            *outstanding = outstanding.saturating_sub(1);
        }
        ServerToClient::Throttle { frame_index } => {
            sent_at.remove(&frame_index);
            report.throttled += 1;
            *outstanding = outstanding.saturating_sub(1);
        }
        ServerToClient::Dropped { frame_index, .. } => {
            sent_at.remove(&frame_index);
            report.dropped += 1;
            *outstanding = outstanding.saturating_sub(1);
        }
        // The frame is still outstanding — its StudentUpdate arrives after
        // the re-upload, so the measured round trip covers the recovery.
        ServerToClient::NeedFrame { frame_index } => reshare_queue.push(frame_index),
        ServerToClient::InitialStudent { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_nn::student::StudentConfig;
    use st_teacher::OracleTeacher;

    #[test]
    fn spec_validation_rejects_degenerate_loads() {
        let good = SkewedLoadSpec {
            streams: 2,
            hot_multiplier: 4,
            key_frames_per_stream: 3,
            send_interval: Duration::from_millis(5),
            seed: 1,
        };
        assert!(good.validate().is_ok());
        assert!(SkewedLoadSpec { streams: 0, ..good }.validate().is_err());
        assert!(SkewedLoadSpec {
            hot_multiplier: 0,
            ..good
        }
        .validate()
        .is_err());
        assert!(SkewedLoadSpec {
            key_frames_per_stream: 0,
            ..good
        }
        .validate()
        .is_err());
    }

    #[test]
    fn capacity_spec_validation_rejects_degenerate_loads() {
        let good = CapacityLoadSpec {
            streams: 4,
            key_frames_per_stream: 2,
            send_interval: Duration::from_millis(5),
            seed: 3,
        };
        assert!(good.validate().is_ok());
        assert!(CapacityLoadSpec { streams: 0, ..good }.validate().is_err());
        assert!(CapacityLoadSpec {
            key_frames_per_stream: 0,
            ..good
        }
        .validate()
        .is_err());
        assert!(CapacityLoadSpec {
            send_interval: Duration::ZERO,
            ..good
        }
        .validate()
        .is_err());
    }

    #[test]
    fn capacity_load_multiplexes_many_streams_from_one_thread() {
        use crate::serve::PoolConfig;
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        // 12 streams on 12 shards hosted by 2 reactor workers, all driven
        // by this one test thread.
        let outcome = run_capacity_load(
            ShadowTutorConfig {
                max_updates: 1,
                ..ShadowTutorConfig::paper()
            },
            PoolConfig {
                shards: 12,
                reactor_threads: Some(2),
                max_in_flight: 64,
                ..PoolConfig::default_pool()
            },
            student,
            0.001,
            |shard| OracleTeacher::perfect(9000 + shard as u64),
            CapacityLoadSpec {
                streams: 12,
                key_frames_per_stream: 3,
                send_interval: Duration::from_millis(10),
                seed: 42,
            },
        )
        .unwrap();
        // Every key frame was serviced with a measured round trip.
        assert_eq!(outcome.updates, 36);
        assert_eq!(outcome.round_trips.len(), 36);
        assert_eq!(outcome.throttled, 0);
        assert_eq!(outcome.dropped, 0);
        assert!(outcome.round_trips.iter().all(|&rt| rt > 0.0));
        assert!(outcome.mean_service_secs() > 0.0);
        assert!(outcome.percentile_round_trip(99.0) >= outcome.percentile_round_trip(50.0));
        let report = outcome.pool.snapshot();
        assert_eq!(report.total_key_frames, 36);
        assert!(report.poll_wakeups > 0, "reactor drivers were exercised");
    }

    #[test]
    fn paced_teacher_passes_through_labels_and_latencies() {
        let frames = tiny_stream(SceneKind::People, 7, 1);
        let mut inner = OracleTeacher::perfect(7);
        let expected = inner.pseudo_label(&frames[0]).unwrap();
        let mut paced = PacedTeacher::new(OracleTeacher::perfect(7), Duration::from_micros(10));
        assert_eq!(paced.pseudo_label(&frames[0]).unwrap(), expected);
        let batched = paced.pseudo_label_batch(&[&frames[0]]).unwrap();
        assert_eq!(batched[0], expected);
        assert_eq!(paced.inference_latency(), inner.inference_latency());
        assert_eq!(
            paced.batched_inference_latency(3),
            inner.batched_inference_latency(3)
        );
        assert_eq!(paced.param_count(), inner.param_count());
    }

    #[test]
    fn percentiles_interpolate_the_sample_ranks() {
        let report = StreamLoadReport {
            stream_id: 0,
            hot: false,
            sent: 5,
            updates: 5,
            throttled: 0,
            dropped: 0,
            reshared: 0,
            round_trips: vec![0.5, 0.1, 0.3, 0.2, 0.4],
        };
        assert!((report.mean_round_trip() - 0.3).abs() < 1e-12);
        assert!((report.percentile_round_trip(0.0) - 0.1).abs() < 1e-12);
        assert!((report.percentile_round_trip(50.0) - 0.3).abs() < 1e-12);
        assert!((report.percentile_round_trip(100.0) - 0.5).abs() < 1e-12);
        let empty = StreamLoadReport {
            round_trips: Vec::new(),
            ..report
        };
        assert_eq!(empty.percentile_round_trip(99.0), 0.0);
        assert_eq!(empty.mean_round_trip(), 0.0);
    }

    #[test]
    fn budgeted_pool_recovers_evicted_frames_via_reshare() {
        use crate::serve::FrameStore;
        let probe = tiny_stream(SceneKind::People, 90, 1);
        let budget = 2 * FrameStore::frame_cost(&probe[0]);
        let outcome = run_skewed_load(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 1,
                // Room for two frames per stream; each stream pre-shares
                // six, so most key frames hit an evicted slot and must be
                // recovered through NeedFrame → ReShare. Parked jobs hold
                // their admission slots, so the cap is lifted to keep this
                // test about recovery, not backpressure.
                frame_budget_bytes: Some(budget),
                max_in_flight: 16,
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            |_| OracleTeacher::perfect(12),
            SkewedLoadSpec {
                streams: 2,
                hot_multiplier: 1,
                key_frames_per_stream: 6,
                send_interval: Duration::from_millis(4),
                seed: 91,
            },
        )
        .unwrap();
        // Every key frame was still serviced — eviction costs bandwidth and
        // latency, never answers.
        for report in &outcome.streams {
            assert_eq!(report.updates, report.sent, "stream {}", report.stream_id);
        }
        assert_eq!(outcome.pool.dropped_jobs(), 0);
        // Evictions really happened and were really recovered.
        assert!(outcome.pool.frame_evictions() > 0);
        assert!(outcome.pool.reshared_frames() > 0);
        assert!(outcome.streams.iter().map(|r| r.reshared).sum::<usize>() > 0);
        // The budget invariant held at every point of the run.
        assert!(outcome.pool.frame_bytes_peak() <= budget);
    }

    #[test]
    fn skewed_load_accounts_for_every_key_frame() {
        let outcome = run_skewed_load(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 1,
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
            |_| OracleTeacher::perfect(11),
            SkewedLoadSpec {
                streams: 2,
                hot_multiplier: 2,
                key_frames_per_stream: 3,
                send_interval: Duration::from_millis(4),
                seed: 90,
            },
        )
        .unwrap();
        assert_eq!(outcome.streams.len(), 2);
        assert!(outcome.hot().hot);
        assert_eq!(outcome.cold().len(), 1);
        assert_eq!(outcome.hot().sent, 6);
        assert_eq!(outcome.cold()[0].sent, 3);
        for report in &outcome.streams {
            // Every key frame was answered: update, throttle, or drop ack.
            assert_eq!(
                report.updates + report.throttled + report.dropped,
                report.sent,
                "stream {} lost answers",
                report.stream_id
            );
            assert_eq!(report.round_trips.len(), report.updates);
            assert!(report.round_trips.iter().all(|rt| *rt >= 0.0));
        }
        // Nothing in this scenario is unservable.
        assert_eq!(outcome.pool.dropped_jobs(), 0);
        assert!(outcome.wall_time > 0.0);
    }
}
