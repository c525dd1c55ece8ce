//! The traced run: replay a live run's key frames on one thread through
//! each layer's public calls with spans on, then time the `st-nn` step
//! anatomy and the `st-tensor` kernels at the student's own shapes.
//!
//! The replay follows the live run exactly where it matters for the work
//! done: the same key frames, in the same per-stream order, in the same
//! co-scheduled teacher batches the live pool formed (read from the
//! teacher's calls). Each stream gets a fresh student and optimizer from
//! the deployment template, exactly as a pool session does, so the replay
//! must reproduce the live distillation-step total — a gate.

use crate::client::ClientWeights;
use crate::stats::{median, quantile};
use crate::trace::{layer_times, write_chrome, LayerTime, Tracer};
use crate::workloads::{
    invalid, key_frame_payload, AnyTeacher, Gate, LiveTrace, Metric, Workload, STREAM_INDEX_STRIDE,
};
use bytes::Bytes;
use shadowtutor::config::DistillationMode;
use shadowtutor::train::train_student;
use st_net::wire::{decode_frame, encode_frame};
use st_net::{ClientToServer, Payload, ServerToClient, StreamTagged, Wire};
use st_nn::delta::{CheckpointDigest, WeightDelta, WeightPayload};
use st_nn::loss::{weighted_cross_entropy, WeightMap};
use st_nn::metrics::miou;
use st_nn::optim::Adam;
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;
use st_sim::ContentionModel;
use st_teacher::Teacher;
use st_tensor::conv::{conv2d_backward, conv2d_forward, im2col, Conv2dSpec};
use st_tensor::{Shape, Tensor};
use st_video::dataset::Resolution;
use st_video::Frame;
use std::collections::HashMap;
use std::time::Instant;

/// The overhead comparison replays the first eighth of the groups, at least
/// this many.
const MIN_OVERHEAD_GROUPS: usize = 24;

const MIB: f64 = 1024.0 * 1024.0;

/// One stream's server-side session plus its client, as the replay keeps
/// them.
struct Stream {
    student: StudentNet,
    optimizer: Adam,
    digest: CheckpointDigest,
    client: ClientWeights,
}

impl Stream {
    /// A copy sharing no tensor storage with `self`.
    fn deep_clone(&mut self) -> Stream {
        Stream {
            student: self.student.deep_clone(),
            optimizer: self.optimizer.clone(),
            digest: self.digest.clone(),
            client: self.client.clone(),
        }
    }
}

/// What one replay pass produced besides its spans.
#[derive(Default)]
struct Pass {
    key_frames: usize,
    steps: usize,
    skipped: usize,
    uplink_bytes: usize,
    downlink_bytes: usize,
    delta_bytes: usize,
    full_bytes: usize,
}

/// The co-scheduled groups of the live run, in call order: for the open
/// loop, the teacher's recorded batches; for the closed loop, one key
/// frame at a time (its single client never has two in flight).
fn groups(live: &LiveTrace, workload: Workload) -> Vec<Vec<(usize, Frame)>> {
    match workload {
        Workload::Mobile => live
            .key_frames
            .iter()
            .zip(&live.log)
            .filter(|(_, log)| log.rtt().is_some())
            .map(|((episode, frame), _)| vec![(*episode, frame.clone())])
            .collect(),
        _ => {
            let by_index: HashMap<usize, &Frame> =
                live.key_frames.iter().map(|(_, f)| (f.index, f)).collect();
            live.batches
                .iter()
                .map(|indices| {
                    indices
                        .iter()
                        .map(|index| (index / STREAM_INDEX_STRIDE, by_index[index].clone()))
                        .collect()
                })
                .collect()
        }
    }
}

fn resolution_of(workload: Workload) -> Resolution {
    match workload {
        Workload::Overload => Resolution::Tiny,
        Workload::Mobile | Workload::Fleet => Resolution::Small,
    }
}

/// The streams a replay has touched, keyed by stream.
type Streams = HashMap<usize, Stream>;

fn new_stream(live: &LiveTrace) -> Stream {
    let config = live.config;
    let mut student = live.template.clone();
    student.freeze = config.mode.freeze_point();
    let digest = CheckpointDigest::of(&WeightSnapshot::capture(&mut student, SnapshotScope::Full));
    Stream {
        student,
        optimizer: Adam::new(config.learning_rate),
        digest,
        client: ClientWeights::new(&config, &live.template, live.delta),
    }
}

/// Replay one co-scheduled group: uplink, batched teacher, then per key
/// frame distillation, update encode, client decode and apply.
fn replay_group(
    live: &LiveTrace,
    streams: &mut Streams,
    group: &[(usize, Frame)],
    teacher: &mut AnyTeacher,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> shadowtutor::Result<()> {
    let config = live.config;
    let scope = match config.mode {
        DistillationMode::Partial => SnapshotScope::TrainableOnly,
        DistillationMode::Full => SnapshotScope::Full,
    };
    let first_kf = pass.key_frames;
    // Uplink: the client encodes each key frame, the server decodes it.
    for (offset, (stream, frame)) in group.iter().enumerate() {
        let kf = first_kf + offset;
        let span = tracer.begin("net.keyframe_encode", kf);
        let wire = encode_frame(&StreamTagged::new(
            *stream as u64,
            ClientToServer::KeyFrame {
                frame_index: frame.index,
                payload: key_frame_payload(frame),
            },
        ));
        tracer.end(span);
        pass.uplink_bytes += wire.len();
        let span = tracer.begin("net.keyframe_decode", kf);
        let decoded = decode_frame::<StreamTagged<ClientToServer>>(&wire)
            .map_err(|e| invalid(format!("key frame decode: {e}")))?;
        tracer.end(span);
        std::hint::black_box(decoded);
    }
    let frames: Vec<&Frame> = group.iter().map(|(_, f)| f).collect();
    let span = tracer.begin("teacher.pseudo_label_batch", first_kf);
    let labels = teacher.pseudo_label_batch(&frames)?;
    tracer.end(span);

    for (offset, ((stream, frame), label)) in group.iter().zip(labels).enumerate() {
        let kf = first_kf + offset;
        let state = streams.entry(*stream).or_insert_with(|| new_stream(live));
        let key_frame = tracer.begin("serve.key_frame", kf);
        let span = tracer.begin("train.train_student", kf);
        let outcome = train_student(
            &mut state.student,
            &mut state.optimizer,
            frame,
            &label,
            &config,
        )?;
        tracer.end(span);
        let span = tracer.begin("nn.snapshot_capture", kf);
        let update = WeightSnapshot::capture(&mut state.student, scope);
        tracer.end(span);
        let span = tracer.begin("net.update_encode", kf);
        let full_equiv = 1 + update.encoded_len();
        let data = if live.delta {
            let delta_span = tracer.begin("nn.delta_compute", kf);
            let delta = WeightDelta::compute(&update, &state.digest);
            tracer.end(delta_span);
            state.digest.patch(&update);
            let bytes = Wire::encode(&WeightPayload::Delta(delta));
            pass.delta_bytes += bytes.len();
            Bytes::from(bytes)
        } else {
            update.encode()
        };
        let message = StreamTagged::new(
            *stream as u64,
            ServerToClient::StudentUpdate {
                frame_index: frame.index,
                metric: outcome.best_metric,
                distill_steps: outcome.steps,
                payload: Payload::with_data(data),
            },
        );
        let wire = encode_frame(&message);
        tracer.end(span);
        tracer.end(key_frame);
        if !live.delta {
            // What a delta would have carried, for `nn.delta_ratio`;
            // outside the key frame's span because the live run did
            // not compute it.
            let delta_span = tracer.begin("nn.delta_compute", kf);
            let delta = WeightDelta::compute(&update, &state.digest);
            tracer.end(delta_span);
            state.digest.patch(&update);
            pass.delta_bytes += delta.encoded_len() + 1;
        }
        pass.full_bytes += full_equiv;
        pass.downlink_bytes += wire.len();

        let client = tracer.begin("client.update", kf);
        let span = tracer.begin("net.update_decode", kf);
        let decoded = decode_frame::<StreamTagged<ServerToClient>>(&wire)
            .map_err(|e| invalid(format!("update decode: {e}")))?;
        tracer.end(span);
        let ServerToClient::StudentUpdate { payload, .. } = decoded.message else {
            return Err(invalid("decoded a different message".into()));
        };
        let data = payload
            .data
            .ok_or_else(|| invalid("update without data".into()))?;
        let span = tracer.begin("client.apply", kf);
        state.client.apply(&data)?;
        tracer.end(span);
        tracer.end(client);

        pass.key_frames += 1;
        pass.steps += outcome.steps;
        pass.skipped += usize::from(outcome.steps == 0);
    }
    Ok(())
}

/// Replay `groups` through the layers from fresh streams, recording spans
/// into `tracer`, then run the client's per-frame inference over
/// `client_frames`.
fn replay_pass(
    live: &LiveTrace,
    groups: &[Vec<(usize, Frame)>],
    teacher: &mut AnyTeacher,
    tracer: &mut Tracer,
    client_frames: &[Frame],
) -> shadowtutor::Result<Pass> {
    let mut streams = Streams::new();
    let mut pass = Pass::default();
    for group in groups {
        replay_group(live, &mut streams, group, teacher, tracer, &mut pass)?;
    }
    // The closed-loop client runs the student on every frame it serves.
    let client = live.template.clone();
    for (i, frame) in client_frames.iter().enumerate() {
        let span = tracer.begin("client.predict", i);
        std::hint::black_box(client.predict(&frame.image)?);
        tracer.end(span);
    }
    Ok(pass)
}

/// Tracing overhead: each group of `groups` is replayed twice from the same
/// state — once with spans off on a deep copy of the streams it touches,
/// once with spans on — alternating which goes first. Both runs do the same
/// work within a fraction of a second of each other, so host-speed drift
/// cancels out of the ratio.
fn span_overhead(
    live: &LiveTrace,
    groups: &[Vec<(usize, Frame)>],
    teacher: &mut AnyTeacher,
) -> shadowtutor::Result<f64> {
    let mut streams = Streams::new();
    let mut scratch = Pass::default();
    let (mut on_secs, mut off_secs) = (0.0, 0.0);
    for (g, group) in groups.iter().enumerate() {
        let mut twin = Streams::new();
        for (stream, _) in group {
            let state = streams.entry(*stream).or_insert_with(|| {
                let mut fresh = new_stream(live);
                fresh.student = fresh.student.deep_clone();
                fresh
            });
            twin.insert(*stream, state.deep_clone());
        }
        for on in [g % 2 == 0, g % 2 != 0] {
            let target = if on { &mut streams } else { &mut twin };
            let mut tracer = Tracer::new(on);
            let started = Instant::now();
            replay_group(live, target, group, teacher, &mut tracer, &mut scratch)?;
            let secs = started.elapsed().as_secs_f64();
            if on {
                on_secs += secs;
            } else {
                off_secs += secs;
            }
        }
    }
    Ok((on_secs - off_secs) / off_secs)
}

/// Median wall time of `reps` calls, seconds.
fn time_median(
    reps: usize,
    mut f: impl FnMut() -> shadowtutor::Result<()>,
) -> shadowtutor::Result<f64> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        f()?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(median(&times).expect("at least one repetition"))
}

/// One public `st-nn` call each on a key frame of the workload.
fn step_anatomy(
    live: &LiveTrace,
    frame: &Frame,
    label: &[usize],
    reps: usize,
) -> shadowtutor::Result<Vec<Metric>> {
    let config = live.config;
    let mut student = live.template.clone();
    student.freeze = config.mode.freeze_point();
    let mut optimizer = Adam::new(config.learning_rate);
    let classes = student.config.num_classes;
    let scope = match config.mode {
        DistillationMode::Partial => SnapshotScope::TrainableOnly,
        DistillationMode::Full => SnapshotScope::Full,
    };
    let weights = WeightMap::from_labels(
        label,
        frame.height,
        frame.width,
        0,
        config.loss_weight_radius,
    )?;
    let logits = student.forward_train(&frame.image)?;
    let (_, grad) = weighted_cross_entropy(&logits, label, &weights)?;
    let forward = time_median(reps, || {
        std::hint::black_box(student.forward_train(&frame.image)?);
        Ok(())
    })?;
    let loss = time_median(reps, || {
        let weights = WeightMap::from_labels(
            label,
            frame.height,
            frame.width,
            0,
            config.loss_weight_radius,
        )?;
        std::hint::black_box(weighted_cross_entropy(&logits, label, &weights)?);
        Ok(())
    })?;
    let backward = time_median(reps, || {
        student.forward_train(&frame.image)?;
        student.backward(&grad)?;
        Ok(())
    })? - forward;
    let adam = time_median(reps, || {
        optimizer.step(&mut student);
        Ok(())
    })?;
    let prediction = student.predict(&frame.image)?;
    let predict = time_median(reps, || {
        std::hint::black_box(student.predict(&frame.image)?);
        Ok(())
    })?;
    let miou_secs = time_median(reps, || {
        std::hint::black_box(miou(&prediction, label, classes)?);
        Ok(())
    })?;
    let capture = time_median(reps, || {
        std::hint::black_box(WeightSnapshot::capture(&mut student, scope));
        Ok(())
    })?;
    let mut base = live.template.clone();
    let digest = CheckpointDigest::of(&WeightSnapshot::capture(&mut base, SnapshotScope::Full));
    let update = WeightSnapshot::capture(&mut student, scope);
    let delta = time_median(reps, || {
        std::hint::black_box(WeightDelta::compute(&update, &digest));
        Ok(())
    })?;
    Ok(vec![
        Metric::new("nn.forward_train_ms", forward * 1e3, "ms", reps),
        Metric::new("nn.backward_ms", backward.max(0.0) * 1e3, "ms", reps),
        Metric::new("nn.adam_ms", adam * 1e3, "ms", reps),
        Metric::new("nn.predict_ms", predict * 1e3, "ms", reps),
        Metric::new("nn.loss_ms", loss * 1e3, "ms", reps),
        Metric::new("nn.miou_ms", miou_secs * 1e3, "ms", reps),
        Metric::new("nn.snapshot_capture_ms", capture * 1e3, "ms", reps),
        Metric::new("nn.delta_compute_us", delta * 1e6, "us", reps),
    ])
}

/// Deterministic non-trivial tensor contents.
fn filled(shape: Shape, seed: u64) -> Tensor {
    st_tensor::random::uniform(shape, -1.0, 1.0, seed)
}

/// `st-tensor` kernels at four of the student's own convolution shapes
/// (`in1`, `sb3.conv33`, `sb5.conv33` — the first trainable stage of
/// partial distillation — and `out2`), ops and bytes from the shapes.
fn tensor_kernels(
    student: &StudentNet,
    height: usize,
    width: usize,
    reps: usize,
) -> shadowtutor::Result<Vec<Metric>> {
    let c = student.config;
    let shapes = [
        (
            Conv2dSpec::square(c.in_channels, c.c_stem, 3, 1),
            height,
            width,
        ),
        (
            Conv2dSpec::square(c.c_enc2, c.c_enc2, 3, 1),
            height / 4,
            width / 4,
        ),
        (
            Conv2dSpec::square(2 * c.c_enc2, c.c_dec1, 3, 1),
            height / 4,
            width / 4,
        ),
        (
            Conv2dSpec::square(c.c_head, c.c_head, 3, 1),
            height / 2,
            width / 2,
        ),
    ];
    let mut fwd = 0.0;
    let mut bwd = 0.0;
    for (i, (spec, h, w)) in shapes.iter().enumerate() {
        let input = filled(Shape::nchw(1, spec.in_channels, *h, *w), 11 + i as u64);
        let weight = filled(spec.weight_shape(), 21 + i as u64);
        let bias = filled(Shape::new(&[spec.out_channels]), 31 + i as u64);
        let (out, cols) = conv2d_forward(&input, &weight, Some(&bias), spec)?;
        let grad = filled(out.shape().clone(), 41 + i as u64);
        fwd += time_median(reps, || {
            std::hint::black_box(conv2d_forward(&input, &weight, Some(&bias), spec)?);
            Ok(())
        })?;
        bwd += time_median(reps, || {
            std::hint::black_box(conv2d_backward(&grad, &cols, &weight, spec, *h, *w, true)?);
            Ok(())
        })?;
    }
    // The GEMM and the lowering of the first trainable stage.
    let (spec, h, w) = shapes[2];
    let input = filled(Shape::nchw(1, spec.in_channels, h, w), 51);
    let cols = im2col(&input, &spec)?;
    let k = spec.in_channels * spec.kernel_h * spec.kernel_w;
    let n = cols.numel() / k;
    let w_mat = filled(Shape::matrix(spec.out_channels, k), 52);
    let gemm = time_median(reps, || {
        std::hint::black_box(st_tensor::matmul::matmul(&w_mat, &cols)?);
        Ok(())
    })?;
    let lowering = time_median(reps, || {
        std::hint::black_box(im2col(&input, &spec)?);
        Ok(())
    })?;
    let lowered_bytes = 4.0 * (input.numel() + cols.numel()) as f64;
    let logits = filled(Shape::nchw(1, c.num_classes, height, width), 53);
    let softmax = time_median(reps, || {
        std::hint::black_box(st_tensor::ops::softmax_channels(&logits)?);
        Ok(())
    })?;
    let flops = 2.0 * (spec.out_channels * k * n) as f64;
    Ok(vec![
        Metric::new("tensor.conv_fwd_us", fwd * 1e6, "us", reps),
        Metric::new("tensor.conv_bwd_us", bwd * 1e6, "us", reps),
        Metric::new("tensor.matmul_gflops", flops / gemm / 1e9, "GFLOP/s", reps),
        Metric::new("tensor.softmax_us", softmax * 1e6, "us", reps),
        Metric::new(
            "tensor.im2col_gbps",
            lowered_bytes / lowering / 1e9,
            "GB/s",
            reps,
        ),
    ])
}

fn per_kf(time: Option<&LayerTime>, kfs: usize) -> f64 {
    time.map_or(0.0, |t| t.total) / kfs.max(1) as f64
}

/// Run the traced replay and report every per-layer metric.
pub fn per_layer(
    live: &LiveTrace,
    workload: Workload,
    seed: u64,
) -> shadowtutor::Result<(Vec<Metric>, Vec<Gate>)> {
    let groups = groups(live, workload);
    if groups.is_empty() {
        return Err(invalid("the live run served no key frame to replay".into()));
    }
    let resolution = resolution_of(workload);
    let mut teacher = AnyTeacher::build(live.teacher, resolution)?;

    let prefix_len = (groups.len() / 8)
        .max(MIN_OVERHEAD_GROUPS)
        .min(groups.len());
    let overhead = span_overhead(live, &groups[..prefix_len], &mut teacher)?;
    let mut tracer = Tracer::new(true);
    let pass = replay_pass(
        live,
        &groups,
        &mut teacher,
        &mut tracer,
        &live.client_frames,
    )?;

    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-{seed}.json",
        workload.name()
    ));
    write_chrome(tracer.spans(), &path)
        .map_err(|e| invalid(format!("writing {}: {e}", path.display())))?;
    let times = layer_times(tracer.spans());
    let kfs = pass.key_frames;

    let pool = &live.pool;
    let live_kfs = pool.total_key_frames().max(1);
    let busy: f64 = pool.shards.iter().map(|s| s.busy_time.as_secs_f64()).sum();
    let busy_per_kf = busy / live_kfs as f64;
    let replay_server = per_kf(times.get("teacher.pseudo_label_batch"), kfs)
        + per_kf(times.get("serve.key_frame"), kfs);
    // Relative gap between the replay's per-key-frame server time and the
    // live pool's busy time per key frame (live work ran on two threads and
    // shared the cores with the generator; the replay ran alone).
    let reconcile = ((replay_server - busy_per_kf) / busy_per_kf).abs();

    let waits: Vec<f64> = pool
        .wait_samples
        .iter()
        .flatten()
        .map(|w| w * 1e3)
        .collect();
    let wait_p50 = quantile(&waits, 50.0);
    let wait_p95 = quantile(&waits, 95.0);
    let offered = live.log.len();
    let throttled = pool.throttled();
    let teacher_secs = pool.teacher_wall_time().as_secs_f64();
    let wakeups: usize = pool.shards.iter().map(|s| s.poll_wakeups).sum();
    let batch_sizes: Vec<f64> = live.batches.iter().map(|b| b.len() as f64).collect();
    let batch_mean = if batch_sizes.is_empty() {
        1.0
    } else {
        batch_sizes.iter().sum::<f64>() / batch_sizes.len() as f64
    };

    // Contention-model prediction of the median queue wait.
    let streams = if live.rates.is_empty() {
        1
    } else {
        live.rates.len()
    };
    let total_rate = if live.rates.is_empty() {
        offered as f64 / live.seconds
    } else {
        live.rates.iter().sum()
    };
    let model = ContentionModel::with_workers(live.pool_config.shards);
    let predicted = model.queueing_delay(streams, busy_per_kf, streams as f64 / total_rate);
    let measured_wait = if waits.is_empty() {
        0.0
    } else {
        wait_p50.value / 1e3
    };
    // A closed loop saturates the open-loop model, which then predicts no
    // queueing at all; the ratio is reported as 0 there.
    let wait_ratio = if predicted > 0.0 {
        measured_wait / predicted
    } else {
        0.0
    };

    let live_steps: usize = live.log.iter().map(|k| k.distill_steps).sum();
    let lag = quantile(&live.lag.iter().map(|l| l * 1e3).collect::<Vec<_>>(), 95.0);
    let predicts = times.get("client.predict");

    let (label_frame, label) = {
        let frame = groups[0][0].1.clone();
        let label = teacher.pseudo_label(&frame)?;
        (frame, label)
    };
    let reps = if resolution == Resolution::Tiny {
        40
    } else {
        15
    };

    let mut metrics = tensor_kernels(&live.template, label_frame.height, label_frame.width, reps)?;
    metrics.extend(step_anatomy(live, &label_frame, &label, reps)?);
    metrics.extend([
        Metric::new(
            "nn.delta_ratio",
            pass.delta_bytes as f64 / pass.full_bytes.max(1) as f64,
            "ratio",
            kfs,
        ),
        Metric::new(
            "teacher.label_ms_per_frame",
            per_kf(times.get("teacher.pseudo_label_batch"), kfs) * 1e3,
            "ms",
            kfs,
        ),
        Metric::new(
            "teacher.batch_mean",
            batch_mean,
            "frames",
            batch_sizes.len(),
        ),
        Metric::new(
            "net.keyframe_encode_us",
            times
                .get("net.keyframe_encode")
                .map_or(0.0, LayerTime::mean)
                * 1e6,
            "us",
            kfs,
        ),
        Metric::new(
            "net.keyframe_decode_us",
            times
                .get("net.keyframe_decode")
                .map_or(0.0, LayerTime::mean)
                * 1e6,
            "us",
            kfs,
        ),
        Metric::new(
            "net.update_encode_us",
            times
                .get("net.update_encode")
                .map_or(0.0, |t| t.self_time / t.count.max(1) as f64)
                * 1e6,
            "us",
            kfs,
        ),
        Metric::new(
            "net.update_decode_us",
            times.get("net.update_decode").map_or(0.0, LayerTime::mean) * 1e6,
            "us",
            kfs,
        ),
        Metric::new(
            "net.uplink_bytes_per_kf",
            pass.uplink_bytes as f64 / kfs.max(1) as f64,
            "B",
            kfs,
        ),
        Metric::new(
            "net.downlink_bytes_per_kf",
            pass.downlink_bytes as f64 / kfs.max(1) as f64,
            "B",
            kfs,
        ),
        Metric::new(
            "train.ms_per_kf",
            per_kf(times.get("train.train_student"), kfs) * 1e3,
            "ms",
            kfs,
        ),
        Metric::new(
            "train.steps_per_kf",
            pass.steps as f64 / kfs.max(1) as f64,
            "steps",
            kfs,
        ),
        Metric::new(
            "train.skip_share",
            pass.skipped as f64 / kfs.max(1) as f64,
            "share",
            kfs,
        ),
        Metric::new(
            "serve.queue_wait_p50_ms",
            wait_p50.value,
            "ms",
            wait_p50.samples,
        ),
        Metric::new(
            "serve.queue_wait_p95_ms",
            wait_p95.value,
            "ms",
            wait_p95.samples,
        ),
        Metric::new("serve.busy_ms_per_kf", busy_per_kf * 1e3, "ms", live_kfs),
        Metric::new(
            "serve.teacher_ms_per_kf",
            teacher_secs / live_kfs as f64 * 1e3,
            "ms",
            live_kfs,
        ),
        Metric::new(
            "serve.batch_mean",
            pool.mean_batch_size(),
            "frames",
            live_kfs,
        ),
        Metric::new(
            "serve.admitted_share",
            1.0 - throttled as f64 / offered.max(1) as f64,
            "share",
            offered,
        ),
        Metric::new("serve.throttled", throttled as f64, "count", offered),
        Metric::new(
            "serve.dropped",
            pool.dropped_jobs() as f64,
            "count",
            offered,
        ),
        Metric::new(
            "serve.steals",
            pool.streams_stolen() as f64,
            "count",
            offered,
        ),
        Metric::new(
            "serve.wakeups_per_kf",
            wakeups as f64 / live_kfs as f64,
            "wakeups",
            live_kfs,
        ),
        Metric::new(
            "serve.store_resident_mb",
            pool.store_resident_bytes as f64 / MIB,
            "MiB",
            1,
        ),
        Metric::new(
            "serve.session_private_mb",
            pool.session_bytes_private_peak() as f64 / MIB,
            "MiB",
            1,
        ),
        Metric::new(
            "client.predict_ms_per_frame",
            predicts.map_or(0.0, LayerTime::mean) * 1e3,
            "ms",
            predicts.map_or(0, |t| t.count),
        ),
        Metric::new(
            "client.apply_ms",
            times.get("client.apply").map_or(0.0, LayerTime::mean) * 1e3,
            "ms",
            kfs,
        ),
        Metric::new(
            "client.forced_waits",
            live.forced_waits as f64,
            "count",
            offered,
        ),
        Metric::new("video.frame_gen_ms", live.frame_gen_secs * 1e3, "ms", 1),
        Metric::new("sim.wait_model_ratio", wait_ratio, "ratio", waits.len()),
        Metric::new(
            "loadgen.lag_p95_ms",
            if live.lag.is_empty() { 0.0 } else { lag.value },
            "ms",
            lag.samples,
        ),
        Metric::new("loadgen.offered_kf", offered as f64, "count", offered),
        Metric::new("trace.overhead_share", overhead, "share", prefix_len),
        Metric::new("trace.reconcile_error", reconcile, "share", kfs),
    ]);

    let gates = vec![Gate {
        name: "replay_reproduces_distill_steps",
        ok: pass.steps == live_steps,
        detail: format!(
            "replay {} steps over {kfs} key frames, live {live_steps}",
            pass.steps
        ),
    }];
    Ok((metrics, gates))
}
