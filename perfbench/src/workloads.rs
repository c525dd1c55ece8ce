//! The three workloads, their set-up, their timed runs and their
//! correctness gates.
//!
//! * `mobile_partial` — the paper's setting, closed loop: one Algorithm-4
//!   client serving every frame of a 64×48 stream with the small student,
//!   partial distillation against a one-shard pool and a perfect oracle
//!   teacher (so mIoU means something). Client inference does most of the
//!   work; server speed shows up as client stalls.
//! * `fleet_partial` — open loop: eight streams on a two-shard reactor pool
//!   (fewer shards than streams, so teacher batches form), small student,
//!   partial distillation with delta updates and a pre-trained `CnnTeacher`,
//!   offered at about half of the host's capacity. Distillation and teacher
//!   batching do the work.
//! * `overload_full` — open loop at about twice capacity: one hot stream at
//!   eight times the rate of three cold ones, 32×24 with the tiny student,
//!   full distillation and full-snapshot updates. Admission, fair batching,
//!   throttling and stealing make many decisions per second, and nothing is
//!   frozen.

use crate::client::{Applied, ClientWeights};
use crate::openloop::{self, KeyFrameLog, OpenLoopLog, Outcome};
use crate::schedule::{self, Arrivals, Due};
use crate::stats::{median, quantile, Quantile};
use bytes::Bytes;
use shadowtutor::baseline::run_wild;
use shadowtutor::client::ClientState;
use shadowtutor::config::{DistillationMode, PlacementPolicy, ShadowTutorConfig};
use shadowtutor::pretrain::{pretrain_student, PretrainConfig};
use shadowtutor::serve::{PoolConfig, PoolStats, ServerPool, StreamClient};
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, Payload, ServerToClient, TransportError};
use st_nn::metrics::miou;
use st_nn::student::{StudentConfig, StudentNet};
use st_sim::LatencyProfile;
use st_teacher::{CnnTeacher, OracleTeacher, Teacher};
use st_tensor::TensorError;
use st_video::dataset::Resolution;
use st_video::{CameraMotion, Frame, SceneKind, VideoCategory, VideoGenerator};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// MIN_STRIDE / 30 fps: the latest an update may be applied before a
/// 30 fps client that deferred it for MIN_STRIDE frames must stall.
pub const DEADLINE_SECS: f64 = 8.0 / 30.0;

/// Times the whole set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// How long the generator waits for the last answers after the window.
const DRAIN: Duration = Duration::from_secs(20);

/// Source-video frames between consecutive key frames of an open-loop
/// stream (Algorithm 4's densest schedule: MIN_STRIDE).
const KEY_FRAME_SPACING: usize = 8;

/// Offset separating streams in the frame-index space, so a frame index
/// alone names its stream (the traced run reads batch composition from the
/// teacher's calls).
pub const STREAM_INDEX_STRIDE: usize = 1_000_000;

/// Seed of the "publicly educated" student and of the teachers: the
/// deployed models are fixed; only the video streams and the schedule
/// follow the run's seed.
const MODEL_SEED: u64 = 2000;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One closed-loop Algorithm-4 client (the paper's setting).
    Mobile,
    /// Eight open-loop streams at half capacity.
    Fleet,
    /// Hot and cold streams at twice capacity.
    Overload,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "mobile_partial" => Some(Workload::Mobile),
            "fleet_partial" => Some(Workload::Fleet),
            "overload_full" => Some(Workload::Overload),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mobile => "mobile_partial",
            Workload::Fleet => "fleet_partial",
            Workload::Overload => "overload_full",
        }
    }
}

/// Thread placement of a run: pool reactor threads × kernel threads stays
/// within the host's cores.
#[derive(Debug, Clone, Copy)]
pub struct Threads {
    /// `available_parallelism` of the host.
    pub nproc: usize,
    /// Reactor worker threads of the pool.
    pub reactor: usize,
    /// `st_tensor::parallel` kernel threads (pinned).
    pub kernel: usize,
}

impl Threads {
    /// The placement for a workload on this host.
    pub fn for_workload(workload: Workload) -> Threads {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let reactor = match workload {
            // One shard; the client thread takes the other core.
            Workload::Mobile => 1,
            Workload::Fleet | Workload::Overload => nproc.clamp(1, 2),
        };
        Threads {
            nproc,
            reactor,
            kernel: 1,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// A correctness gate's verdict.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Evidence.
    pub detail: String,
}

/// Everything a timed run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// End-to-end metrics (the benchmark's gated set).
    pub e2e: Vec<Metric>,
    /// Workload-specific figures that are not part of the gated set.
    pub detail: Vec<Metric>,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Reported percentiles with fewer than ten samples beyond them.
    pub below_rule: Vec<String>,
    /// Key frames offered.
    pub attempted: usize,
    /// Key frames that broke the protocol (unanswered, dropped, answered
    /// twice, rejected delta). Throttles are correct answers under load.
    pub failed: usize,
}

/// Per-layer material a timed run leaves for the traced replay.
pub struct LiveTrace {
    /// The algorithm parameters of the run.
    pub config: ShadowTutorConfig,
    /// The deployment template.
    pub template: StudentNet,
    /// Every offered key frame in due order: stream and frame.
    pub key_frames: Vec<(usize, Frame)>,
    /// Client-side log (open-loop workloads; closed-loop runs fill it too).
    pub log: Vec<KeyFrameLog>,
    /// Teacher calls observed in the live run, in call order: the frame
    /// indices of each co-scheduled batch.
    pub batches: Vec<Vec<usize>>,
    /// Pool counters after `join`.
    pub pool: PoolStats,
    /// Frames the closed-loop client served (mobile only).
    pub client_frames: Vec<Frame>,
    /// Forced waits of the closed-loop client.
    pub forced_waits: usize,
    /// Teacher used by the live run, rebuilt for the replay.
    pub teacher: TeacherKind,
    /// Whether updates used the delta protocol.
    pub delta: bool,
    /// Frame-generation seconds per frame measured in set-up.
    pub frame_gen_secs: f64,
    /// Generator lateness samples, seconds.
    pub lag: Vec<f64>,
    /// Offered rates per stream (open loop), key frames per second.
    pub rates: Vec<f64>,
    /// Pool shape.
    pub pool_config: PoolConfig,
    /// Window length, seconds.
    pub seconds: f64,
}

/// Which teacher a workload serves with.
#[derive(Debug, Clone, Copy)]
pub enum TeacherKind {
    /// An `OracleTeacher`: ground truth, or ground truth with the realistic
    /// label noise.
    Oracle {
        /// Use `OracleTeacher::realistic` instead of `perfect`.
        noisy: bool,
    },
    /// A `CnnTeacher` of the given width, pre-trained for `steps`.
    Cnn {
        /// Width multiple over the tiny student.
        width: usize,
        /// Pre-training steps.
        steps: usize,
    },
}

/// The frame indices of every batched teacher call, in call order.
pub type TeacherCalls = Arc<Mutex<Vec<Vec<usize>>>>;

/// A teacher of either kind behind one type, so a pool and a replay can be
/// built from a [`TeacherKind`]. Optionally records every batched call.
pub struct AnyTeacher {
    inner: Box<dyn Teacher + Send>,
    /// Label noise seeded per frame: the labels of a frame then do not
    /// depend on which shard's teacher labels it, or in what order, so the
    /// traced replay sees exactly the labels the live pool saw.
    noise_per_frame: bool,
    calls: Option<TeacherCalls>,
}

impl AnyTeacher {
    /// Build (and pre-train) a teacher of `kind` at `resolution`.
    pub fn build(kind: TeacherKind, resolution: Resolution) -> shadowtutor::Result<AnyTeacher> {
        let inner: Box<dyn Teacher + Send> = match kind {
            TeacherKind::Oracle { noisy: false } => Box::new(OracleTeacher::perfect(MODEL_SEED)),
            TeacherKind::Oracle { noisy: true } => Box::new(OracleTeacher::realistic(MODEL_SEED)),
            TeacherKind::Cnn { width, steps } => {
                let mut teacher = CnnTeacher::untrained(width, MODEL_SEED)?;
                let (w, h) = resolution.dims();
                let mut generators: Vec<VideoGenerator> = SCENES
                    .iter()
                    .enumerate()
                    .map(|(i, &scene)| {
                        VideoGenerator::for_category(
                            VideoCategory {
                                camera: CameraMotion::Fixed,
                                scene,
                            },
                            w,
                            h,
                            MODEL_SEED + i as u64,
                        )
                    })
                    .collect::<st_tensor::Result<_>>()?;
                // Short pre-training easily collapses this teacher onto the
                // background class, whose labels the student already
                // matches, so every key frame would skip training. The
                // fixed seed, step count and this learning rate give a
                // teacher that labels objects; `non_degenerate` checks it.
                let scenes = generators.len();
                for step in 0..steps {
                    teacher.pretrain(&mut generators[step % scenes], 1, 0.005)?;
                }
                Box::new(teacher)
            }
        };
        Ok(AnyTeacher {
            inner,
            noise_per_frame: matches!(kind, TeacherKind::Oracle { noisy: true }),
            calls: None,
        })
    }

    /// Record every `pseudo_label_batch` call into `calls`.
    pub fn recording(mut self, calls: TeacherCalls) -> AnyTeacher {
        self.calls = Some(calls);
        self
    }
}

impl Teacher for AnyTeacher {
    fn pseudo_label(&mut self, frame: &Frame) -> st_teacher::Result<Vec<usize>> {
        self.pseudo_label_batch(&[frame]).map(|mut v| v.remove(0))
    }

    fn pseudo_label_batch(&mut self, frames: &[&Frame]) -> st_teacher::Result<Vec<Vec<usize>>> {
        let labels = if self.noise_per_frame {
            frames
                .iter()
                .map(|f| OracleTeacher::realistic(MODEL_SEED ^ f.index as u64).pseudo_label(f))
                .collect::<st_teacher::Result<Vec<_>>>()?
        } else {
            self.inner.pseudo_label_batch(frames)?
        };
        if let Some(calls) = &self.calls {
            calls
                .lock()
                .expect("teacher call log poisoned")
                .push(frames.iter().map(|f| f.index).collect());
        }
        Ok(labels)
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

const SCENES: [SceneKind; 3] = [SceneKind::People, SceneKind::Animals, SceneKind::Street];

/// The fixed definition of an open-loop workload.
struct OpenSpec {
    resolution: Resolution,
    student: StudentConfig,
    pretrain_steps: usize,
    delta: bool,
    teacher: TeacherKind,
    /// Offered key frames per second, per stream.
    rates: Vec<f64>,
    arrivals: Arrivals,
    /// Algorithm parameters.
    config: ShadowTutorConfig,
    shards: usize,
    placement: PlacementPolicy,
}

/// Fleet offered rate: 8 streams × 0.8 kf/s = 6.4 kf/s, about half of
/// this workload's capacity on a 2-core host.
const FLEET_RATE: f64 = 0.8;

/// Overload cold-stream rate; the hot stream offers 8× this.
const OVERLOAD_COLD_RATE: f64 = 16.0;

fn open_spec(workload: Workload) -> OpenSpec {
    match workload {
        Workload::Fleet => OpenSpec {
            resolution: Resolution::Small,
            student: StudentConfig::small(),
            pretrain_steps: 40,
            delta: true,
            teacher: TeacherKind::Cnn {
                width: 2,
                steps: 60,
            },
            rates: vec![FLEET_RATE; 8],
            // Steady turns: at half load the fleet measures the service
            // path (teacher, distillation, delta updates), not the chance
            // collisions whose tail a 20-second window cannot pin down.
            arrivals: Arrivals::Staggered { jitter: 0.2 },
            config: algorithm_config(DistillationMode::Partial),
            shards: 2,
            placement: PlacementPolicy::LeastLoaded,
        },
        Workload::Overload => OpenSpec {
            resolution: Resolution::Tiny,
            student: StudentConfig::tiny(),
            pretrain_steps: 60,
            delta: false,
            teacher: TeacherKind::Oracle { noisy: true },
            rates: vec![
                8.0 * OVERLOAD_COLD_RATE,
                OVERLOAD_COLD_RATE,
                OVERLOAD_COLD_RATE,
                OVERLOAD_COLD_RATE,
            ],
            arrivals: Arrivals::Uniform,
            // A THRESHOLD of 1.0 is never exceeded, and against noisy labels
            // only frames with nothing to learn (background only) start at
            // it: every other served key frame runs MAX_UPDATES steps
            // (§4.4's worst case), so capacity is a property of the code
            // and the content, not of which frames admission let in.
            config: ShadowTutorConfig {
                threshold: 1.0,
                ..algorithm_config(DistillationMode::Full)
            },
            shards: 2,
            placement: PlacementPolicy::Rebalance,
        },
        Workload::Mobile => unreachable!("mobile is closed loop"),
    }
}

fn algorithm_config(mode: DistillationMode) -> ShadowTutorConfig {
    ShadowTutorConfig {
        mode,
        ..ShadowTutorConfig::paper()
    }
}

/// The "publicly educated" deployment student.
fn pretrained_student(
    student: StudentConfig,
    resolution: Resolution,
    steps: usize,
) -> shadowtutor::Result<StudentNet> {
    let (net, _) = pretrain_student(
        student,
        &PretrainConfig {
            resolution,
            steps,
            frame_skip: 5,
            learning_rate: 0.02,
            seed: MODEL_SEED,
        },
    )?;
    Ok(net)
}

/// Key frames of one stream: every `KEY_FRAME_SPACING`-th frame of a
/// seeded video, re-indexed into the stream's index range.
fn stream_key_frames(
    stream: usize,
    count: usize,
    resolution: Resolution,
    seed: u64,
) -> shadowtutor::Result<Vec<Frame>> {
    let (w, h) = resolution.dims();
    let mut generator = VideoGenerator::for_category(
        VideoCategory {
            camera: if stream.is_multiple_of(2) {
                CameraMotion::Fixed
            } else {
                CameraMotion::Moving
            },
            scene: SCENES[stream % SCENES.len()],
        },
        w,
        h,
        seed.wrapping_mul(1_000_003).wrapping_add(stream as u64),
    )?;
    let mut frames = Vec::with_capacity(count);
    for ordinal in 0..count {
        for _ in 1..KEY_FRAME_SPACING {
            generator.next_frame();
        }
        let mut frame = generator.next_frame();
        frame.index = stream * STREAM_INDEX_STRIDE + ordinal;
        frames.push(frame);
    }
    Ok(frames)
}

fn pool_config(
    shards: usize,
    reactor: usize,
    placement: PlacementPolicy,
    delta: bool,
) -> PoolConfig {
    PoolConfig {
        shards,
        reactor_threads: Some(reactor),
        placement,
        delta_updates: delta,
        ..PoolConfig::default_pool()
    }
}

fn spawn_pool(
    config: ShadowTutorConfig,
    pool_config: PoolConfig,
    template: &StudentNet,
    teachers: Vec<AnyTeacher>,
) -> shadowtutor::Result<ServerPool> {
    let mut teachers: Vec<Option<AnyTeacher>> = teachers.into_iter().map(Some).collect();
    let partial = config.mode == DistillationMode::Partial;
    ServerPool::spawn(
        config,
        pool_config,
        template.clone(),
        LatencyProfile::paper().distill_step(partial),
        move |shard| teachers[shard].take().expect("one teacher per shard"),
    )
}

/// The error every benchmark-level failure is reported as.
pub fn invalid(msg: String) -> TensorError {
    TensorError::InvalidArgument(msg)
}

/// Wait for a stream's initial checkpoint and apply it.
fn receive_initial(
    endpoint: &mut StreamClient,
    client: &mut ClientWeights,
) -> shadowtutor::Result<()> {
    match endpoint.recv_timeout(Duration::from_secs(30)) {
        Ok(ServerToClient::InitialStudent { payload }) => {
            if let Some(data) = payload.data {
                client.apply(&data)?;
            }
            Ok(())
        }
        other => Err(invalid(format!("no initial checkpoint: {other:?}"))),
    }
}

/// Shut every stream down and join the pool.
fn finish_pool(endpoints: Vec<StreamClient>, pool: ServerPool) -> shadowtutor::Result<PoolStats> {
    for mut endpoint in endpoints {
        endpoint.send(ClientToServer::Shutdown, 1).ok();
    }
    pool.join()
        .map_err(|e| invalid(format!("pool failed: {e}")))
}

/// Key-frame payload as Algorithm 4 ships it: the frame's 8-bit RGB.
pub fn key_frame_payload(frame: &Frame) -> Payload {
    Payload::with_data(Bytes::from(frame.quantized_rgb()))
}

/// A set-up open-loop workload, ready to run.
struct OpenSetup {
    config: ShadowTutorConfig,
    template: StudentNet,
    pool: ServerPool,
    pool_config: PoolConfig,
    endpoints: Vec<StreamClient>,
    clients: Vec<ClientWeights>,
    frames: Vec<Vec<Frame>>,
    schedule: Vec<Due>,
    poller: st_net::Poller,
    frame_gen_secs: f64,
}

fn setup_open(
    spec: &OpenSpec,
    threads: Threads,
    seed: u64,
    seconds: f64,
    calls: Option<&TeacherCalls>,
) -> shadowtutor::Result<OpenSetup> {
    let config = spec.config;
    let template = pretrained_student(spec.student, spec.resolution, spec.pretrain_steps)?;
    let mut teachers = (0..spec.shards)
        .map(|_| {
            AnyTeacher::build(spec.teacher, spec.resolution).map(|t| match calls {
                Some(calls) => t.recording(Arc::clone(calls)),
                None => t,
            })
        })
        .collect::<shadowtutor::Result<Vec<_>>>()?;
    non_degenerate(&mut teachers[0], spec.resolution)?;
    let schedule = schedule::schedule(&spec.rates, spec.arrivals, seconds, seed);
    let counts = schedule::per_stream_counts(&schedule, spec.rates.len());
    let gen_started = Instant::now();
    let frames = counts
        .iter()
        .enumerate()
        .map(|(stream, &count)| stream_key_frames(stream, count, spec.resolution, seed))
        .collect::<shadowtutor::Result<Vec<_>>>()?;
    let generated: usize = counts.iter().sum::<usize>() * KEY_FRAME_SPACING;
    let frame_gen_secs = gen_started.elapsed().as_secs_f64() / generated.max(1) as f64;
    let pool_config = pool_config(spec.shards, threads.reactor, spec.placement, spec.delta);
    let pool = spawn_pool(config, pool_config, &template, teachers)?;
    let poller = st_net::Poller::new();
    let mut endpoints = Vec::with_capacity(frames.len());
    let mut clients = Vec::with_capacity(frames.len());
    for (stream, stream_frames) in frames.iter().enumerate() {
        let mut endpoint =
            pool.connect_with_waker(stream as u64, stream_frames, Some(poller.waker(stream)))?;
        let mut client = ClientWeights::new(&config, &template, spec.delta);
        receive_initial(&mut endpoint, &mut client)?;
        endpoints.push(endpoint);
        clients.push(client);
    }
    Ok(OpenSetup {
        config,
        template,
        pool,
        pool_config,
        endpoints,
        clients,
        frames,
        schedule,
        poller,
        frame_gen_secs,
    })
}

/// An untrained (or collapsed) teacher labels everything background; the
/// student already agrees with that, so distillation would be skipped on
/// every key frame. Refuse to run on such a teacher.
fn non_degenerate(teacher: &mut AnyTeacher, resolution: Resolution) -> shadowtutor::Result<()> {
    let (w, h) = resolution.dims();
    let probe = VideoGenerator::for_category(
        VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::Street,
        },
        w,
        h,
        MODEL_SEED,
    )?
    .next_frame();
    let mut classes = teacher.inner.pseudo_label(&probe)?;
    classes.sort_unstable();
    classes.dedup();
    if classes.len() < 2 {
        return Err(invalid(format!(
            "teacher labels only {classes:?}: it is degenerate and distillation would be skipped"
        )));
    }
    Ok(())
}

/// Run the set-up `SETUP_REPEATS` times, keep the last, report the median.
fn repeated_setup<S>(
    mut setup: impl FnMut() -> shadowtutor::Result<S>,
    mut discard: impl FnMut(S) -> shadowtutor::Result<()>,
) -> shadowtutor::Result<(S, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous copy down first, so only one set-up is ever
        // resident and `peak_rss_mb` sees a single workload.
        if let Some(old) = kept.take() {
            discard(old)?;
        }
        let started = Instant::now();
        kept = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let kept = kept.expect("at least one set-up");
    Ok((kept, median(&times).expect("set-up timed")))
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> shadowtutor::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| invalid(format!("cannot read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| invalid("no VmHWM in /proc/self/status".into()))
}

fn q_ms(values: &[f64], p: f64) -> Quantile {
    let ms: Vec<f64> = values.iter().map(|v| v * 1e3).collect();
    quantile(&ms, p)
}

/// Percentile reported for the latency tails. At the fixed offered rates a
/// 30-second window gives the fleet 192 applied key frames: enough for p90
/// under the ten-samples-beyond rule (100), not for p95 (200).
pub const TAIL: f64 = 90.0;

/// Gates shared by every workload: exactly-once answers, zero delta
/// rejections, client weights equal to the pool's final checkpoints.
fn protocol_gates(
    log: &[KeyFrameLog],
    duplicate_answers: usize,
    stray_answers: usize,
    clients: &mut [ClientWeights],
    pool: &PoolStats,
) -> Vec<Gate> {
    let unanswered = log.iter().filter(|k| k.outcome == Outcome::Pending).count();
    let rejected = log
        .iter()
        .filter(|k| k.outcome == Outcome::Rejected)
        .count();
    let mut mismatched = Vec::new();
    for (stream, client) in clients.iter_mut().enumerate() {
        let server = pool
            .final_checkpoints
            .get(&(stream as u64))
            .map(|snapshot| snapshot.encode());
        if server.as_ref() != Some(&client.checkpoint_bytes()) {
            mismatched.push(stream);
        }
    }
    vec![
        Gate {
            name: "answered_exactly_once",
            ok: unanswered == 0 && duplicate_answers == 0 && stray_answers == 0,
            detail: format!(
                "offered {}, unanswered {unanswered}, duplicate {duplicate_answers}, stray {stray_answers}",
                log.len()
            ),
        },
        Gate {
            name: "zero_delta_rejections",
            ok: rejected == 0,
            detail: format!("rejected {rejected}"),
        },
        Gate {
            name: "client_weights_equal_final_checkpoints",
            ok: mismatched.is_empty(),
            detail: format!("mismatched streams {mismatched:?} of {}", clients.len()),
        },
    ]
}

/// The gated end-to-end metrics every workload reports, from its
/// client-side key-frame log.
fn e2e_from_log(
    log: &[KeyFrameLog],
    elapsed: f64,
    cold_streams: &[usize],
    setup_secs: f64,
) -> shadowtutor::Result<(Vec<Metric>, Vec<String>)> {
    let offered = log.len();
    let applied: Vec<&KeyFrameLog> = log.iter().filter(|k| k.rtt().is_some()).collect();
    let rtts: Vec<f64> = applied.iter().filter_map(|k| k.rtt()).collect();
    let cold: Vec<f64> = applied
        .iter()
        .filter(|k| cold_streams.contains(&k.stream))
        .filter_map(|k| k.rtt())
        .collect();
    let on_time = rtts.iter().filter(|&&r| r <= DEADLINE_SECS).count();
    let p50 = q_ms(&rtts, 50.0);
    let tail = q_ms(&rtts, TAIL);
    let cold_tail = q_ms(&cold, TAIL);
    let below_rule = [
        ("rtt_p50_ms", p50),
        ("rtt_p90_ms", tail),
        ("cold_rtt_p90_ms", cold_tail),
    ]
    .iter()
    .filter(|(_, q)| !q.supported)
    .map(|(name, _)| name.to_string())
    .collect();
    let update_bytes: usize = applied.iter().map(|k| k.update_bytes).sum();
    let uplink_bytes: usize = log.iter().map(|k| k.uplink_bytes).sum();
    let metrics = vec![
        Metric::new("setup_s", setup_secs, "s", SETUP_REPEATS),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB", 1),
        Metric::new(
            "applied_share",
            applied.len() as f64 / offered.max(1) as f64,
            "share",
            offered,
        ),
        Metric::new(
            "goodput_kfps",
            applied.len() as f64 / elapsed.max(1e-9),
            "kf/s",
            applied.len(),
        ),
        Metric::new("rtt_p50_ms", p50.value, "ms", p50.samples),
        Metric::new("rtt_p90_ms", tail.value, "ms", tail.samples),
        Metric::new(
            "on_time_share",
            on_time as f64 / offered.max(1) as f64,
            "share",
            offered,
        ),
        Metric::new("cold_rtt_p90_ms", cold_tail.value, "ms", cold_tail.samples),
        Metric::new(
            "update_bytes_per_kf",
            update_bytes as f64 / applied.len().max(1) as f64,
            "B",
            applied.len(),
        ),
        Metric::new(
            "uplink_bytes_per_kf",
            uplink_bytes as f64 / offered.max(1) as f64,
            "B",
            offered,
        ),
    ];
    Ok((metrics, below_rule))
}

fn count_failed(log: &[KeyFrameLog], duplicate: usize, stray: usize) -> usize {
    log.iter()
        .filter(|k| {
            matches!(
                k.outcome,
                Outcome::Pending | Outcome::Dropped | Outcome::Rejected
            )
        })
        .count()
        + duplicate
        + stray
}

/// Run an open-loop workload.
pub fn run_open(
    workload: Workload,
    threads: Threads,
    seed: u64,
    seconds: f64,
    record: bool,
) -> shadowtutor::Result<(RunOutput, LiveTrace)> {
    let spec = open_spec(workload);
    let calls = Arc::new(Mutex::new(Vec::new()));
    let (mut setup, setup_secs) = repeated_setup(
        || setup_open(&spec, threads, seed, seconds, record.then_some(&calls)),
        |old: OpenSetup| finish_pool(old.endpoints, old.pool).map(|_| ()),
    )?;
    calls.lock().expect("teacher call log poisoned").clear();

    let frames = &setup.frames;
    let mut source = |stream: usize, ordinal: usize| {
        let frame = &frames[stream][ordinal];
        (frame.index, key_frame_payload(frame))
    };
    let poller = &setup.poller;
    let log: OpenLoopLog = openloop::drive(
        &mut setup.endpoints,
        &mut setup.clients,
        &setup.schedule,
        &mut source,
        &mut |timeout| {
            poller.poll(timeout);
        },
        DRAIN,
    )?;
    let pool = finish_pool(std::mem::take(&mut setup.endpoints), setup.pool)?;

    let min_rate = spec.rates.iter().cloned().fold(f64::INFINITY, f64::min);
    let cold: Vec<usize> = (0..spec.rates.len())
        .filter(|&s| spec.rates[s] == min_rate)
        .collect();
    let (e2e, below_rule) =
        e2e_from_log(&log.key_frames, log.elapsed.max(seconds), &cold, setup_secs)?;
    let mut out = RunOutput {
        e2e,
        below_rule,
        gates: protocol_gates(
            &log.key_frames,
            log.duplicate_answers,
            log.stray_answers,
            &mut setup.clients,
            &pool,
        ),
        attempted: log.key_frames.len(),
        failed: count_failed(&log.key_frames, log.duplicate_answers, log.stray_answers),
        ..RunOutput::default()
    };
    let lag: Vec<f64> = log.key_frames.iter().map(|k| k.sent - k.due).collect();
    let lag_q = q_ms(&lag, TAIL);
    out.detail.push(Metric::new(
        "loadgen.lag_p95_ms",
        lag_q.value,
        "ms",
        lag_q.samples,
    ));
    out.gates.push(Gate {
        name: "generator_lag_bounded",
        ok: lag_q.value <= LAG_BOUND_MS,
        detail: format!("lag p95 {:.3} ms (bound {LAG_BOUND_MS} ms)", lag_q.value),
    });
    let throttled = log
        .key_frames
        .iter()
        .filter(|k| k.outcome == Outcome::Throttled)
        .count();
    out.detail.push(Metric::new(
        "throttled_share",
        throttled as f64 / log.key_frames.len().max(1) as f64,
        "share",
        log.key_frames.len(),
    ));
    out.detail.push(Metric::new(
        "distill_steps_total",
        pool.total_distill_steps() as f64,
        "count",
        pool.total_key_frames(),
    ));

    let key_frames = log
        .key_frames
        .iter()
        .map(|k| {
            let ordinal = k.frame_index - k.stream * STREAM_INDEX_STRIDE;
            (k.stream, setup.frames[k.stream][ordinal].clone())
        })
        .collect();
    let batches = std::mem::take(&mut *calls.lock().expect("teacher call log poisoned"));
    let trace = LiveTrace {
        config: setup.config,
        template: setup.template,
        key_frames,
        log: log.key_frames,
        batches,
        pool,
        client_frames: Vec::new(),
        forced_waits: 0,
        teacher: spec.teacher,
        delta: spec.delta,
        frame_gen_secs: setup.frame_gen_secs,
        lag,
        rates: spec.rates.clone(),
        pool_config: setup.pool_config,
        seconds,
    };
    Ok((out, trace))
}

/// The generator must stay within this lateness (p95) for a run to count:
/// beyond it the offered load is no longer the workload's.
const LAG_BOUND_MS: f64 = 25.0;

/// Every this many served frames one enters the client-vs-wild gate.
const WILD_SAMPLE: usize = 4;

/// Frames per mobile clip, and clips generated per run. A 30-second window
/// serves about five clips; four distinct ones (fixed and moving cameras,
/// three scene kinds) keep a run's figures an average over content rather
/// than one video's, and 400 frames give each episode's student time to
/// specialise before the next episode starts again from the template.
const MOBILE_CLIP_FRAMES: usize = 400;
const MOBILE_CLIPS: usize = 4;

struct MobileSetup {
    config: ShadowTutorConfig,
    template: StudentNet,
    clips: Vec<Vec<Frame>>,
    frame_gen_secs: f64,
}

fn setup_mobile(seed: u64) -> shadowtutor::Result<MobileSetup> {
    let config = algorithm_config(DistillationMode::Partial);
    let template = pretrained_student(StudentConfig::small(), Resolution::Small, 40)?;
    let (w, h) = Resolution::Small.dims();
    let gen_started = Instant::now();
    let clips = (0..MOBILE_CLIPS)
        .map(|clip| {
            let mut generator = VideoGenerator::for_category(
                VideoCategory {
                    camera: if clip.is_multiple_of(2) {
                        CameraMotion::Fixed
                    } else {
                        CameraMotion::Moving
                    },
                    scene: SCENES[clip % SCENES.len()],
                },
                w,
                h,
                seed.wrapping_mul(7_919).wrapping_add(clip as u64),
            )?;
            Ok(generator.take_frames(MOBILE_CLIP_FRAMES))
        })
        .collect::<shadowtutor::Result<Vec<_>>>()?;
    let frame_gen_secs =
        gen_started.elapsed().as_secs_f64() / (MOBILE_CLIPS * MOBILE_CLIP_FRAMES) as f64;
    Ok(MobileSetup {
        config,
        template,
        clips,
        frame_gen_secs,
    })
}

/// Client-side counters of the closed-loop run.
#[derive(Default)]
struct MobileTally {
    frames: usize,
    miou_sum: f64,
    forced_waits: usize,
    waited_key_frames: usize,
    downlink_bytes: usize,
    uplink_bytes: usize,
    busy_secs: f64,
    /// `(clip, position, client mIoU)` of every `WILD_SAMPLE`-th frame.
    sampled: Vec<(usize, usize, f64)>,
    duplicate: usize,
    stray: usize,
}

/// Run the closed-loop mobile workload: episodes of one Algorithm-4 client
/// over one clip each, against a fresh one-shard pool, until the window
/// closes.
pub fn run_mobile(
    threads: Threads,
    seed: u64,
    seconds: f64,
    record: bool,
) -> shadowtutor::Result<(RunOutput, LiveTrace)> {
    let (setup, setup_secs) = repeated_setup(|| setup_mobile(seed), |_| Ok(()))?;
    let config = setup.config;
    let pool_config = pool_config(1, threads.reactor, PlacementPolicy::LeastLoaded, false);
    let calls = Arc::new(Mutex::new(Vec::new()));
    let mut tally = MobileTally::default();
    let mut log: Vec<KeyFrameLog> = Vec::new();
    let mut key_frames: Vec<(usize, Frame)> = Vec::new();
    let mut client_frames: Vec<Frame> = Vec::new();
    let mut gates = Vec::new();
    let mut pools = Vec::new();
    let started = Instant::now();
    let mut episode = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let clip = &setup.clips[episode % setup.clips.len()];
        let mut teacher =
            AnyTeacher::build(TeacherKind::Oracle { noisy: false }, Resolution::Small)?;
        if record {
            teacher = teacher.recording(Arc::clone(&calls));
        }
        let pool = spawn_pool(config, pool_config, &setup.template, vec![teacher])?;
        let mut endpoint = pool.connect(0, clip)?;
        let mut client = ClientWeights::new(&config, &setup.template, false);
        receive_initial(&mut endpoint, &mut client)?;
        let first = log.len();
        let served = drive_mobile_client(
            &config,
            clip,
            &mut endpoint,
            &mut client,
            started,
            seconds,
            episode % setup.clips.len(),
            &mut tally,
            &mut log,
        )?;
        let stats = finish_pool(vec![endpoint], pool)?;
        gates.extend(protocol_gates(
            &log[first..],
            tally.duplicate,
            tally.stray,
            std::slice::from_mut(&mut client),
            &stats,
        ));
        for k in &log[first..] {
            key_frames.push((episode, clip[k.frame_index].clone()));
        }
        if record && episode == 0 {
            client_frames = clip[..served].to_vec();
        }
        pools.push(stats);
        episode += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Once per invocation: over every WILD_SAMPLE-th frame the client
    // served, the distilled client must label at least as well as the
    // un-distilled ("wild") student does on the same frames.
    let mut wild_by_frame: Vec<Vec<f64>> = Vec::with_capacity(setup.clips.len());
    for clip in &setup.clips {
        let sampled: Vec<Frame> = clip.iter().step_by(WILD_SAMPLE).cloned().collect();
        let wild = run_wild(
            "wild",
            &mut sampled.iter().cloned(),
            sampled.len(),
            &setup.template,
            OracleTeacher::perfect(MODEL_SEED),
            &LatencyProfile::paper(),
        )?;
        wild_by_frame.push(wild.frame_records.iter().map(|r| r.miou).collect());
    }
    let wild_frames = tally.sampled.len();
    let wild_miou = mean(
        tally
            .sampled
            .iter()
            .map(|&(clip, position, _)| wild_by_frame[clip][position / WILD_SAMPLE]),
    );
    let client_sampled = mean(tally.sampled.iter().map(|&(_, _, value)| value));

    let mut gate_all = fold_gates(gates);
    gate_all.push(Gate {
        name: "client_miou_not_below_wild",
        ok: wild_frames > 0 && client_sampled >= wild_miou,
        detail: format!(
            "client {client_sampled:.4} vs wild {wild_miou:.4} over {wild_frames} sampled frames"
        ),
    });
    let pool = merge_pools(pools);
    let (e2e, below_rule) = e2e_from_log(&log, elapsed, &[0], setup_secs)?;
    let mut out = RunOutput {
        e2e,
        below_rule,
        gates: gate_all,
        attempted: log.len(),
        failed: count_failed(&log, tally.duplicate, tally.stray),
        ..RunOutput::default()
    };
    let frames = tally.frames.max(1) as f64;
    let client_fps = tally.frames as f64 / tally.busy_secs.max(1e-9);
    out.detail = vec![
        Metric::new("client_fps", client_fps, "frames/s", tally.frames),
        Metric::new("client_miou", tally.miou_sum / frames, "mIoU", tally.frames),
        Metric::new(
            "wait_share",
            tally.waited_key_frames as f64 / log.len().max(1) as f64,
            "share",
            log.len(),
        ),
        Metric::new(
            "uplink_bytes_per_frame",
            tally.uplink_bytes as f64 / frames,
            "B",
            tally.frames,
        ),
        Metric::new(
            "downlink_bytes_per_frame",
            tally.downlink_bytes as f64 / frames,
            "B",
            tally.frames,
        ),
        Metric::new("wild_miou", wild_miou, "mIoU", wild_frames),
        Metric::new(
            "distill_steps_total",
            pool.total_distill_steps() as f64,
            "count",
            pool.total_key_frames(),
        ),
    ];
    let batches = std::mem::take(&mut *calls.lock().expect("teacher call log poisoned"));
    let trace = LiveTrace {
        config,
        template: setup.template,
        key_frames,
        log,
        batches,
        pool,
        client_frames,
        forced_waits: tally.forced_waits,
        teacher: TeacherKind::Oracle { noisy: false },
        delta: false,
        frame_gen_secs: setup.frame_gen_secs,
        lag: Vec::new(),
        rates: Vec::new(),
        pool_config,
        seconds,
    };
    Ok((out, trace))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Collapse per-episode gates into one verdict per gate name.
fn fold_gates(gates: Vec<Gate>) -> Vec<Gate> {
    let mut folded: Vec<Gate> = Vec::new();
    for gate in gates {
        match folded.iter_mut().find(|g| g.name == gate.name) {
            Some(existing) => {
                if !gate.ok && existing.ok {
                    *existing = gate;
                }
            }
            None => folded.push(gate),
        }
    }
    folded
}

/// Sum the counters of the per-episode pools (mobile).
fn merge_pools(pools: Vec<PoolStats>) -> PoolStats {
    let mut pools = pools.into_iter();
    let mut merged = pools.next().expect("at least one episode");
    for pool in pools {
        merged.shards.extend(pool.shards);
        merged.wait_samples.extend(pool.wait_samples);
        merged.wire_bytes_up += pool.wire_bytes_up;
        merged.wire_bytes_down += pool.wire_bytes_down;
        merged.store_resident_bytes = merged.store_resident_bytes.max(pool.store_resident_bytes);
    }
    merged
}

/// One Algorithm-4 client over one clip (closed loop). Returns the number
/// of frames served. Every key frame is due when the client reaches it.
#[allow(clippy::too_many_arguments)]
fn drive_mobile_client(
    config: &ShadowTutorConfig,
    clip: &[Frame],
    endpoint: &mut StreamClient,
    client: &mut ClientWeights,
    window_start: Instant,
    seconds: f64,
    clip_id: usize,
    tally: &mut MobileTally,
    log: &mut Vec<KeyFrameLog>,
) -> shadowtutor::Result<usize> {
    let mut state = ClientState::new(*config);
    let episode_start = Instant::now();
    let now = || window_start.elapsed().as_secs_f64();
    let mut outstanding: Option<usize> = None;
    let mut served = 0;
    let first = log.len();
    for frame in clip {
        if now() >= seconds {
            break;
        }
        let decision = state.begin_frame();
        if decision.is_key_frame {
            let payload = key_frame_payload(frame);
            let bytes = payload.bytes;
            let message = ClientToServer::KeyFrame {
                frame_index: frame.index,
                payload,
            };
            let uplink_bytes =
                st_net::wire::frame_len(&st_net::StreamTagged::new(0, message.clone()));
            let due = now();
            endpoint
                .send(message, bytes)
                .map_err(|e| invalid(format!("uplink send failed: {e:?}")))?;
            tally.uplink_bytes += uplink_bytes;
            outstanding = Some(log.len());
            log.push(KeyFrameLog {
                stream: 0,
                frame_index: frame.index,
                due,
                sent: due,
                answered: None,
                outcome: Outcome::Pending,
                uplink_bytes,
                update_bytes: 0,
                distill_steps: 0,
            });
        }
        let prediction = client.student.predict(&frame.image)?;
        let value = miou(
            &prediction,
            &frame.ground_truth,
            client.student.config.num_classes,
        )?
        .value;
        tally.miou_sum += value;
        tally.frames += 1;
        if served % WILD_SAMPLE == 0 {
            tally.sampled.push((clip_id, served, value));
        }
        served += 1;
        let message = if decision.must_wait_for_update && state.update_outstanding() {
            tally.forced_waits += 1;
            if let Some(slot) = outstanding {
                if log[slot].outcome == Outcome::Pending {
                    tally.waited_key_frames += 1;
                }
            }
            match endpoint.recv_timeout(Duration::from_secs(30)) {
                Ok(message) => Some(message),
                Err(TransportError::Timeout) => {
                    return Err(invalid("update never arrived".into()));
                }
                Err(e) => return Err(invalid(format!("downlink failed: {e:?}"))),
            }
        } else {
            endpoint.try_recv().ok().flatten()
        };
        if let Some(message) = message {
            handle_mobile_message(
                message,
                &mut state,
                client,
                &mut log[first..],
                window_start,
                tally,
            )?;
        }
    }
    // The window may close with an update in flight: collect it so every
    // offered key frame is accounted for.
    while outstanding.is_some_and(|slot| log[slot].outcome == Outcome::Pending) {
        match endpoint.recv_timeout(Duration::from_secs(30)) {
            Ok(message) => handle_mobile_message(
                message,
                &mut state,
                client,
                &mut log[first..],
                window_start,
                tally,
            )?,
            Err(e) => return Err(invalid(format!("final update lost: {e:?}"))),
        }
    }
    tally.busy_secs += episode_start.elapsed().as_secs_f64();
    Ok(served)
}

fn handle_mobile_message(
    message: ServerToClient,
    state: &mut ClientState,
    client: &mut ClientWeights,
    log: &mut [KeyFrameLog],
    window_start: Instant,
    tally: &mut MobileTally,
) -> shadowtutor::Result<()> {
    let (frame_index, outcome) = match message {
        ServerToClient::StudentUpdate {
            frame_index,
            metric,
            distill_steps,
            payload,
        } => {
            let Some(record) = log.iter_mut().rev().find(|k| k.frame_index == frame_index) else {
                tally.stray += 1;
                return Ok(());
            };
            if record.outcome != Outcome::Pending {
                tally.duplicate += 1;
                return Ok(());
            }
            let applied = match &payload.data {
                Some(data) => client.apply(data)?,
                None => Applied::Full,
            };
            record.update_bytes = payload.data.as_ref().map_or(0, |d| d.len());
            record.distill_steps = distill_steps;
            tally.downlink_bytes += record.update_bytes;
            if applied == Applied::Rejected {
                (frame_index, Outcome::Rejected)
            } else {
                if state.update_outstanding() {
                    state.apply_update(metric);
                }
                (frame_index, Outcome::Applied)
            }
        }
        ServerToClient::Throttle { frame_index } => {
            state.throttled_update();
            (frame_index, Outcome::Throttled)
        }
        ServerToClient::Dropped { frame_index, .. } => {
            state.abandon_update();
            (frame_index, Outcome::Dropped)
        }
        _ => {
            tally.stray += 1;
            return Ok(());
        }
    };
    match log.iter_mut().rev().find(|k| k.frame_index == frame_index) {
        Some(record) if record.answered.is_none() => {
            record.outcome = outcome;
            record.answered = Some(window_start.elapsed().as_secs_f64());
        }
        Some(_) => tally.duplicate += 1,
        None => tally.stray += 1,
    }
    Ok(())
}
