//! Cross-crate integration tests: the full pipeline from video generation
//! through the teacher, the student, the runtimes (including the
//! multi-stream server pool), and the report layer.

use shadowtutor::baseline::{run_naive, run_wild};
use shadowtutor::config::{DistillationMode, PlacementPolicy, ShadowTutorConfig};
use shadowtutor::loadgen::{run_skewed_load, PacedTeacher, SkewedLoadSpec};
use shadowtutor::runtime::live::{run_live, run_live_multi, StreamSpec};
use shadowtutor::runtime::sim::{DelayModel, SimRuntime};
use shadowtutor::serve::{FrameStore, PoolConfig, ServerPool, StreamClient};
use shadowtutor_repro::testsupport::pretrained_student;
use st_net::transport::ClientEndpoint;
use st_net::LinkModel;
use st_net::{ClientToServer, DropReason, Payload, ServerToClient};
use st_nn::student::{StudentConfig, StudentNet};
use st_sim::{Concurrency, ContentionModel, LatencyProfile};
use st_teacher::OracleTeacher;
use st_video::dataset::{category_videos, tiny_stream as frames_for, Resolution};
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};
use std::time::{Duration, Instant};

fn people_video(seed: u64) -> VideoGenerator {
    let cat = VideoCategory {
        camera: CameraMotion::Fixed,
        scene: SceneKind::People,
    };
    VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, seed)).unwrap()
}

#[test]
fn shadow_education_recovers_most_of_the_teacher_accuracy() {
    // The paper's central accuracy claim in miniature: a pre-trained student
    // that fails on its own gets close(r) to the teacher once it is
    // intermittently distilled on the target stream.
    let (student, _) = pretrained_student();

    let frames = 120;
    let runtime =
        SimRuntime::paper(DistillationMode::Partial).with_delay_model(DelayModel::Frames(1));
    let mut shadow_video = people_video(3);
    let shadow = runtime
        .run(
            "people",
            &mut shadow_video,
            frames,
            student.clone(),
            OracleTeacher::perfect(9),
        )
        .unwrap();

    let mut wild_video = people_video(3);
    let wild = run_wild(
        "people",
        &mut wild_video,
        frames,
        &student,
        OracleTeacher::perfect(9),
        &LatencyProfile::paper(),
    )
    .unwrap();

    // Compare over the second half of the stream, where the student has had
    // several shadow-education rounds; the wild student has no mechanism to
    // improve at all.
    let tail_mean = |records: &[shadowtutor::FrameRecord]| {
        let tail = &records[records.len() / 2..];
        100.0 * tail.iter().map(|f| f.miou).sum::<f64>() / tail.len() as f64
    };
    let shadow_tail = tail_mean(&shadow.frame_records);
    let wild_tail = tail_mean(&wild.frame_records);
    assert!(
        shadow_tail > wild_tail + 1.0,
        "distillation should beat the wild student on the stream tail: {shadow_tail:.1}% vs {wild_tail:.1}%"
    );
    assert!(
        shadow.mean_miou_percent() > wild.mean_miou_percent(),
        "distillation should beat the wild student overall: {:.1}% vs {:.1}%",
        shadow.mean_miou_percent(),
        wild.mean_miou_percent()
    );
}

#[test]
fn shadowtutor_transfers_far_less_data_than_naive_offloading() {
    let (student, _) = pretrained_student();
    let frames = 96;
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    let mut shadow_video = people_video(5);
    let shadow = runtime
        .run(
            "people",
            &mut shadow_video,
            frames,
            student,
            OracleTeacher::perfect(2),
        )
        .unwrap();
    let mut naive_video = people_video(5);
    let naive = run_naive(
        "people",
        &mut naive_video,
        frames,
        OracleTeacher::perfect(2),
        &LatencyProfile::paper(),
        &LinkModel::paper_default(),
    )
    .unwrap();

    // The paper reports a ~95% average reduction in data per frame at 720p,
    // where the partial student update (0.395 MB) is smaller than a frame
    // (2.637 MB). Compare at those paper-scale payload sizes: the reduction
    // comes from ShadowTutor communicating only on sparse key frames.
    let shadow_paper = shadow.with_payload_sizes(2_637_000, 395_000);
    let naive_per_frame_mb = (3.0 * 1280.0 * 720.0 + 1280.0 * 720.0) / 1e6;
    let shadow_per_frame_mb = shadow_paper.total_data_mb() / shadow_paper.frames as f64;
    let reduction = 1.0 - shadow_per_frame_mb / naive_per_frame_mb;
    assert!(
        reduction > 0.5,
        "expected a large per-frame data reduction at paper scale, got {:.1}% ({shadow_per_frame_mb:.3} MB vs {naive_per_frame_mb:.3} MB)",
        100.0 * reduction
    );
    // And the key-frame ratio is far below 100% at any scale.
    assert!(shadow.key_frame_ratio_percent() < 20.0);
    let _ = naive;
}

#[test]
fn throughput_ordering_matches_the_paper_at_paper_scale_replay() {
    // Partial >= Full > Naive in FPS when replayed at paper payload sizes.
    let (student, _) = pretrained_student();
    let frames = 96;
    let link = LinkModel::paper_default();

    let run = |mode: DistillationMode, seed: u64| {
        let runtime = SimRuntime::paper(mode).with_delay_model(DelayModel::Frames(8));
        let mut video = people_video(seed);
        runtime
            .run(
                "people",
                &mut video,
                frames,
                student.clone(),
                OracleTeacher::perfect(4),
            )
            .unwrap()
    };
    let partial = run(DistillationMode::Partial, 6);
    let full = run(DistillationMode::Full, 6);

    let partial_fps = partial
        .with_payload_sizes(2_637_000, 395_000)
        .replay_fps(&link, st_sim::Concurrency::Full);
    let full_fps = full
        .with_payload_sizes(2_637_000, 1_846_000)
        .replay_fps(&link, st_sim::Concurrency::Full);
    // Naive at paper scale: ~0.36 s network + 0.044 s teacher per frame.
    let naive_fps = {
        let traffic = st_net::NaiveTraffic::for_frame(1280, 720);
        1.0 / (link.uplink_time(traffic.to_server_bytes)
            + LatencyProfile::paper().teacher_inference
            + link.downlink_time(traffic.to_client_bytes))
    };

    assert!(
        partial_fps > naive_fps * 2.0,
        "partial {partial_fps:.2} vs naive {naive_fps:.2}"
    );
    assert!(
        full_fps > naive_fps,
        "full {full_fps:.2} vs naive {naive_fps:.2}"
    );
    assert!(
        partial_fps >= full_fps * 0.95,
        "partial {partial_fps:.2} vs full {full_fps:.2}"
    );
}

#[test]
fn live_and_sim_runtimes_agree_on_protocol_behaviour() {
    let student = StudentNet::new(StudentConfig::tiny()).unwrap();
    let frames = 40;
    let cat = VideoCategory {
        camera: CameraMotion::Fixed,
        scene: SceneKind::Animals,
    };
    let config = VideoConfig::for_category(cat, 32, 24, 77);

    // Sim runtime.
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    let mut sim_video = VideoGenerator::new(config).unwrap();
    let sim = runtime
        .run(
            "animals",
            &mut sim_video,
            frames,
            student.clone(),
            OracleTeacher::perfect(7),
        )
        .unwrap();

    // Live runtime over the same frames.
    let mut live_video = VideoGenerator::new(config).unwrap();
    let stream = live_video.take_frames(frames);
    let live = run_live(
        ShadowTutorConfig::paper(),
        stream,
        student,
        OracleTeacher::perfect(7),
        "animals",
    )
    .unwrap();

    // Both process every frame, both start with a key frame, and both send a
    // comparable number of key frames (the live run's timing-dependent update
    // arrival can shift the schedule slightly).
    assert_eq!(sim.frames, frames);
    assert_eq!(live.record.frames, frames);
    assert!(sim.frame_records[0].is_key_frame);
    assert!(live.record.frame_records[0].is_key_frame);
    let diff = (sim.key_frame_count() as i64 - live.record.key_frame_count() as i64).abs();
    assert!(
        diff <= 3,
        "sim {} vs live {} key frames",
        sim.key_frame_count(),
        live.record.key_frame_count()
    );
    assert_eq!(live.server_key_frames, live.record.key_frame_count());
}

fn multi_specs(frames_per_stream: usize) -> Vec<StreamSpec> {
    // Four concurrent streams with deliberately different scene content, so
    // any cross-stream weight bleed would be visible in the checkpoints.
    vec![
        StreamSpec {
            stream_id: 0,
            label: "people-a".into(),
            frames: frames_for(SceneKind::People, 51, frames_per_stream),
        },
        StreamSpec {
            stream_id: 1,
            label: "animals".into(),
            frames: frames_for(SceneKind::Animals, 52, frames_per_stream),
        },
        StreamSpec {
            stream_id: 2,
            label: "street".into(),
            frames: frames_for(SceneKind::Street, 53, frames_per_stream),
        },
        StreamSpec {
            stream_id: 3,
            label: "people-b".into(),
            frames: frames_for(SceneKind::People, 54, frames_per_stream),
        },
    ]
}

#[test]
fn multi_stream_pool_isolates_streams_and_matches_single_stream_runs() {
    let (student, _) = pretrained_student();
    let config = ShadowTutorConfig::paper();
    let specs = multi_specs(32);

    // Four concurrent clients against a two-shard pool: two streams per
    // shard, so teacher batching and per-shard multiplexing are exercised.
    let multi = run_live_multi(
        config,
        specs.clone(),
        student.clone(),
        PoolConfig::with_shards(2),
        |shard| OracleTeacher::perfect(700 + shard as u64),
    )
    .unwrap();
    assert_eq!(multi.streams.len(), 4);
    for (outcome, spec) in multi.streams.iter().zip(&specs) {
        assert_eq!(outcome.record.frames, spec.frames.len(), "{}", spec.label);
        assert!(outcome.server_key_frames >= 1, "{}", spec.label);
    }

    // Per-stream isolation: serve each stream alone (same pool machinery,
    // one stream, one shard) as its baseline. Exact checkpoint equality
    // cannot be asserted on a wall-clock runtime — whether an update lands
    // one frame earlier or later can shift the key-frame schedule — so the
    // bleed check is relative: a stream's pooled checkpoint must stay far
    // closer to its own solo baseline than to any *other* scene's baseline,
    // and accuracy/key-frame counts must agree within a small tolerance.
    // (Exact, deterministic isolation is asserted at the `ServeShard` layer
    // in `shadowtutor::serve`'s unit tests.)
    let solos: Vec<_> = specs
        .iter()
        .map(|spec| {
            run_live_multi(
                config,
                vec![spec.clone()],
                student.clone(),
                PoolConfig::with_shards(1),
                |_| OracleTeacher::perfect(900),
            )
            .unwrap()
        })
        .collect();
    let scene_of = |label: &str| label.split('-').next().unwrap().to_string();
    for (outcome, spec) in multi.streams.iter().zip(&specs) {
        let solo = &solos[spec.stream_id as usize];
        let solo_outcome = &solo.streams[0];
        let multi_ckpt = &multi.pool.final_checkpoints[&spec.stream_id];
        let own_distance = multi_ckpt
            .distance(&solo.pool.final_checkpoints[&spec.stream_id])
            .unwrap();
        for (other, other_solo) in specs.iter().zip(&solos) {
            if scene_of(&other.label) == scene_of(&spec.label) {
                continue;
            }
            let cross_distance = multi_ckpt
                .distance(&other_solo.pool.final_checkpoints[&other.stream_id])
                .unwrap();
            assert!(
                own_distance < cross_distance,
                "{}: pooled checkpoint is closer to {}'s baseline ({own_distance} vs {cross_distance}) — cross-stream weight bleed",
                spec.label,
                other.label
            );
        }
        let miou_multi = outcome.record.mean_miou_percent();
        let miou_solo = solo_outcome.record.mean_miou_percent();
        assert!(
            (miou_multi - miou_solo).abs() < 5.0,
            "{}: pooled {miou_multi:.1}% vs solo {miou_solo:.1}%",
            spec.label
        );
        let key_diff =
            (outcome.server_key_frames as i64 - solo_outcome.server_key_frames as i64).abs();
        assert!(
            key_diff <= 2,
            "{}: pooled {} vs solo {} server key frames",
            spec.label,
            outcome.server_key_frames,
            solo_outcome.server_key_frames
        );
    }

    // And the pool topology agrees with the paper's one-client topology: the
    // same stream through the classic thread-per-role runtime lands on the
    // same accuracy.
    let classic = run_live(
        config,
        specs[0].frames.clone(),
        student.clone(),
        OracleTeacher::perfect(1000),
        "classic-baseline",
    )
    .unwrap();
    let miou_classic = classic.record.mean_miou_percent();
    let miou_pooled = multi.streams[0].record.mean_miou_percent();
    assert!(
        (miou_pooled - miou_classic).abs() < 5.0,
        "pooled {miou_pooled:.1}% vs classic {miou_classic:.1}%"
    );

    // Teacher batching across co-scheduled streams actually happened and
    // saved virtual teacher time.
    assert!(multi.pool.mean_batch_size() >= 1.0);
    assert!(multi.pool.teacher_time_saved() >= 0.0);
}

#[test]
fn live_server_contention_is_sane_against_the_sim_concurrency_model() {
    let (student, _) = pretrained_student();
    let config = ShadowTutorConfig::paper();

    // The same four streams against one worker (maximum contention) and
    // four workers (no sharing).
    let run = |shards: usize| {
        run_live_multi(
            config,
            multi_specs(24),
            student.clone(),
            PoolConfig::with_shards(shards),
            |shard| OracleTeacher::perfect(800 + shard as u64),
        )
        .unwrap()
    };
    let contended = run(1);
    let spread = run(4);
    for outcome in contended.streams.iter().chain(spread.streams.iter()) {
        assert_eq!(outcome.record.frames, 24);
    }
    assert!(contended.aggregate_fps() > 0.0);
    assert!(spread.aggregate_fps() > 0.0);

    // st-sim's contention model, fed with what the live run measured (mean
    // distillation steps, mean co-scheduled batch), predicts longer queueing
    // on one worker than on four...
    let profile = LatencyProfile::paper();
    let key_frames = contended.pool.total_key_frames().max(1);
    let mean_steps = contended.pool.total_distill_steps() as f64 / key_frames as f64;
    let mean_batch = contended.pool.mean_batch_size().max(1.0);
    let inter_arrival = config.min_stride as f64 * profile.student_inference;
    let m1 = ContentionModel::with_workers(1);
    let m4 = ContentionModel::with_workers(4);
    let service = m1.service_time(&profile, true, mean_steps, mean_batch);
    let predicted_contended = m1.queueing_delay(4, service, inter_arrival);
    let predicted_spread = m4.queueing_delay(4, service, inter_arrival);
    assert!(
        predicted_contended >= predicted_spread,
        "model: {predicted_contended} vs {predicted_spread}"
    );

    // ...and the live pool's measured wall-clock waits point the same way
    // (a small epsilon absorbs scheduler noise when both are ~zero).
    let measured_contended = contended.mean_queue_wait_secs();
    let measured_spread = spread.mean_queue_wait_secs();
    assert!(
        measured_contended + 1e-4 >= measured_spread,
        "measured: {measured_contended}s vs {measured_spread}s"
    );

    // Plugging the contended round trip into the §4.4 concurrency bounds
    // keeps their ordering: no overlap is never faster than full overlap.
    let t_net = 0.05;
    let t_c_none = m1.t_c(
        Concurrency::None,
        &profile,
        true,
        config.min_stride,
        mean_steps,
        mean_batch,
        4,
        inter_arrival,
        t_net,
    );
    let t_c_full = m1.t_c(
        Concurrency::Full,
        &profile,
        true,
        config.min_stride,
        mean_steps,
        mean_batch,
        4,
        inter_arrival,
        t_net,
    );
    assert!(t_c_none >= t_c_full);
}

#[test]
fn hot_stream_cannot_starve_cold_streams() {
    // A 4-stream, one-shard pool where stream 0 sends 8x the key-frame rate
    // of the others. Deficit-round-robin batching plus the per-stream
    // in-flight cap must keep the well-behaved streams fully serviced and
    // their waits bounded, pushing the cost of the burstiness onto the hot
    // stream itself.
    let (student, _) = pretrained_student();
    let max_batch = PoolConfig::default_pool().max_batch;
    // The 16 ms wall-clock pause per teacher forward keeps the teacher's
    // share of service real on any host; distillation adds whatever this
    // host's training steps cost.
    let pace = Duration::from_millis(16);
    let run = |streams: usize, hot_multiplier: usize, send_interval: Duration| {
        run_skewed_load(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 1,
                ..PoolConfig::default_pool()
            },
            student.clone(),
            0.013,
            |shard| PacedTeacher::new(OracleTeacher::perfect(500 + shard as u64), pace),
            SkewedLoadSpec {
                streams,
                hot_multiplier,
                key_frames_per_stream: 5,
                send_interval,
                seed: 7000 + hot_multiplier as u64,
            },
        )
        .unwrap()
    };
    let mean_service = |outcome: &shadowtutor::loadgen::SkewedLoadOutcome| {
        let busy: f64 = outcome
            .pool
            .shards
            .iter()
            .map(|s| s.busy_time.as_secs_f64())
            .sum();
        busy / outcome.pool.total_key_frames().max(1) as f64
    };

    // Calibrate the offered load to this host. A lone stream is served one
    // key frame per batch, so its measured service time is the teacher pace
    // plus one key frame's distillation. A full co-scheduled batch pays the
    // pace once (sub-linearly in the batch size) and distillation per job,
    // which gives the shard's per-job cost under contention.
    let calibration = run(1, 1, Duration::from_millis(40));
    let solo_service = mean_service(&calibration);
    let pace_secs = pace.as_secs_f64();
    let batch = max_batch as f64;
    let per_job =
        pace_secs * (1.0 + 0.2 * (batch - 1.0)) / batch + (solo_service - pace_secs).max(0.0);
    // Cold streams send every 7 jobs' worth of service, so the skewed run
    // offers 11/7 of the shard's capacity: each cold stream offers 4/7 of
    // its fair quarter, while the 8x hot stream alone offers 8/7 of the
    // whole shard, so its in-flight cap must fill within the run.
    let send_interval = Duration::from_secs_f64(7.0 * per_job);

    // Solo baseline: one well-behaved stream with the pool to itself. Every
    // cold stream is statistically identical to it.
    let solo = run(1, 1, send_interval);
    let solo_wait = solo.pool.streams[&0].mean_queue_wait_secs();

    let skewed = run(4, 8, send_interval);
    // Every cold stream was fully serviced: each of its key frames got a
    // StudentUpdate — none starved, none throttled, none dropped.
    for cold in skewed.cold() {
        assert_eq!(
            cold.updates, cold.sent,
            "cold stream {} starved: {} of {} key frames serviced",
            cold.stream_id, cold.updates, cold.sent
        );
        assert_eq!(
            cold.throttled, 0,
            "cold stream {} throttled",
            cold.stream_id
        );
        assert_eq!(cold.dropped, 0, "cold stream {} dropped", cold.stream_id);
    }
    // Nothing was silently lost in this non-adversarial scenario.
    assert_eq!(skewed.pool.dropped_jobs(), 0);

    // Bounded waits: no cold stream's mean server-side queue wait exceeds
    // 3x its solo-run wait, up to the deficit-round-robin service bound as
    // slack — one DRR cycle is the in-flight batch (`max_batch` jobs) plus
    // one ring round (one job per stream), each costing the run's measured
    // mean per-key-frame service time, and an arriving envelope can sit
    // through a full cycle in the uplink channel before the worker's next
    // drain pass even sees it, so allow two cycles. (An idle pool's solo
    // waits are near zero, so a pure ratio would measure OS scheduling
    // jitter rather than fairness; a FIFO drain without the in-flight cap
    // would instead let the hot backlog — dozens of jobs — pile up in
    // front of cold arrivals, blowing far past this bound.)
    let streams = 4usize;
    let drr_cycle = (max_batch + streams) as f64 * mean_service(&skewed);
    // The extra 100 ms absorbs a preempted-CI-runner stall of the worker
    // thread; a FIFO drain without the in-flight cap would queue the hot
    // stream's dozens of jobs ahead of cold arrivals and overshoot this by
    // hundreds of milliseconds, so the bound still discriminates.
    let drr_bound = 2.0 * drr_cycle + 0.1;
    for cold in skewed.cold() {
        let wait = skewed.pool.streams[&cold.stream_id].mean_queue_wait_secs();
        assert!(
            wait <= 3.0 * solo_wait + drr_bound,
            "cold stream {} mean wait {:.4}s vs solo {:.4}s (DRR bound {:.4}s)",
            cold.stream_id,
            wait,
            solo_wait,
            drr_bound
        );
    }

    // The hot stream bore its own excess: at 8x the base rate against a
    // paced teacher its in-flight cap had to engage.
    assert!(
        skewed.hot().throttled > 0,
        "admission control never engaged on the hot stream ({} sent)",
        skewed.hot().sent
    );
    // And everything the hot stream sent was still answered explicitly.
    let hot = skewed.hot();
    assert_eq!(hot.updates + hot.throttled + hot.dropped, hot.sent);
}

#[test]
fn key_frame_after_shutdown_is_acked_and_counted_not_silently_lost() {
    // The shutdown race from the silent-drop bug: a key frame that reaches
    // the shard after its stream's Shutdown (here: sent after Shutdown on
    // the same FIFO uplink) cannot be served — the session is retired — but
    // it must be *accounted*: dropped_jobs increments and the client gets an
    // explicit Dropped ack so its frame bookkeeping cannot skew.
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 1,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(77),
    )
    .unwrap();
    let frames = frames_for(SceneKind::People, 88, 2);
    let mut client = pool.connect(3, &frames).unwrap();
    let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(matches!(initial, ServerToClient::InitialStudent { .. }));

    let send_key = |client: &mut shadowtutor::serve::StreamClient, index: usize| {
        let payload = Payload::sized(frames[0].raw_rgb_bytes());
        let bytes = payload.bytes;
        client
            .send(
                ClientToServer::KeyFrame {
                    frame_index: index,
                    payload,
                },
                bytes,
            )
            .unwrap();
    };
    send_key(&mut client, frames[0].index);
    client.send(ClientToServer::Shutdown, 1).unwrap();
    send_key(&mut client, frames[1].index);

    // The key frame queued ahead of the Shutdown is flushed, not lost...
    let update = client.recv_timeout(Duration::from_secs(10)).unwrap();
    match update {
        ServerToClient::StudentUpdate { frame_index, .. } => {
            assert_eq!(frame_index, frames[0].index)
        }
        other => panic!("expected StudentUpdate, got {other:?}"),
    }
    // ...and the late one gets an explicit drop ack instead of vanishing.
    let ack = client.recv_timeout(Duration::from_secs(10)).unwrap();
    match ack {
        ServerToClient::Dropped {
            frame_index,
            reason,
        } => {
            assert_eq!(frame_index, frames[1].index);
            assert_eq!(reason, DropReason::UnknownStream);
        }
        other => panic!("expected Dropped, got {other:?}"),
    }
    drop(client);
    let stats = pool.join().unwrap();
    assert_eq!(stats.dropped_jobs(), 1, "the drop must be counted");
    assert_eq!(stats.total_key_frames(), 1);
    assert_eq!(stats.streams[&3].key_frames, 1);
    // The drop is attributed to the stream even though it was already
    // retired when the late frame arrived.
    assert_eq!(stats.streams[&3].dropped, 1);
    assert_eq!(stats.streams[&3].throttled, 0);
}

/// The batched-teacher tentpole, measured end to end on a real CnnTeacher:
/// a 4-stream pool whose co-scheduled key frames are labelled by one
/// genuinely batched forward, plus a deterministic batch-8 vs batch-1
/// comparison on the shard (the exact state machine the pool workers
/// drive). The assertion is on *measured* wall-clock teacher cost —
/// `ShardStats::teacher_wall_time` — not the virtual amortization model.
#[test]
fn batched_cnn_teacher_amortizes_measured_cost_in_the_pool() {
    use shadowtutor::serve::{ServeShard, ShardJob};
    use st_teacher::CnnTeacher;

    let config = ShadowTutorConfig::paper();
    let student = StudentNet::new(StudentConfig::tiny()).unwrap();

    // --- Deterministic shard measurement: batch 8 vs batch 1. -------------
    // Four streams, two pre-shared frames each => 8 co-schedulable jobs.
    let mut shard = ServeShard::new(
        config,
        student.clone(),
        CnnTeacher::untrained(1, 7).unwrap(),
        0.013,
    );
    let specs = multi_specs(2);
    let mut jobs: Vec<ShardJob> = Vec::new();
    for spec in &specs {
        shard.register(
            spec.stream_id,
            shadowtutor::serve::FrameStore::from_frames(&spec.frames, None),
            false,
        );
        for frame in &spec.frames {
            jobs.push(ShardJob {
                stream_id: spec.stream_id,
                frame_index: frame.index,
            });
        }
    }
    assert_eq!(jobs.len(), 8);
    // Warm up both code paths (first-call effects: allocator, lazy init).
    shard.process_batch(&jobs).unwrap();
    shard.process_batch(&jobs[..1]).unwrap();

    let teacher_wall = |shard: &ServeShard<CnnTeacher>| shard.stats().teacher_wall_time;
    let mut batched_per_frame = Vec::new();
    let mut solo_per_frame = Vec::new();
    for _ in 0..3 {
        // One co-scheduled batch of 8: a single batched teacher forward.
        let before = teacher_wall(&shard);
        shard.process_batch(&jobs).unwrap();
        batched_per_frame.push((teacher_wall(&shard) - before).as_secs_f64() / jobs.len() as f64);
        // The same 8 jobs served one at a time: 8 solo forwards.
        let before = teacher_wall(&shard);
        for job in &jobs {
            shard.process_batch(std::slice::from_ref(job)).unwrap();
        }
        solo_per_frame.push((teacher_wall(&shard) - before).as_secs_f64() / jobs.len() as f64);
    }
    batched_per_frame.sort_by(|a, b| a.partial_cmp(b).unwrap());
    solo_per_frame.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let batched_median = batched_per_frame[batched_per_frame.len() / 2];
    let solo_median = solo_per_frame[solo_per_frame.len() / 2];
    assert!(
        batched_median < solo_median,
        "measured per-frame teacher cost must fall with batching: \
         batch 8 {batched_median:.6}s/frame vs batch 1 {solo_median:.6}s/frame"
    );
    // The shard's measured cost profile saw both batch sizes, so the
    // adaptive window's growth gate now runs on measured marginal-cost data
    // (a CnnTeacher forward is far above the measurability floor) instead
    // of falling back to the virtual model. The verdict's *direction* is
    // EMA-smoothed wall clock and may wobble with scheduler noise; the
    // robust median comparison above is the amortization claim.
    assert!(shard.measured_costs().estimate(1).is_some());
    assert!(shard.measured_costs().estimate(8).is_some());
    assert!(
        shard.measured_costs().growth_pays(8).is_some(),
        "growth gating must run on measured data once both sizes are observed"
    );

    // --- Live 4-stream pool run over the same teacher. --------------------
    // One shard so all four streams co-schedule; quantum 2 and a pinned
    // window of 8 let a full backlog drain in one batched forward.
    let pool = ServerPool::spawn(
        config,
        PoolConfig {
            shards: 1,
            max_batch: 8,
            max_in_flight: 2,
            quantum: 2,
            adaptive_batch: false,
            ..PoolConfig::default_pool()
        },
        student,
        0.013,
        |_| CnnTeacher::untrained(1, 7).unwrap(),
    )
    .unwrap();
    let specs = multi_specs(2);
    let mut clients: Vec<_> = specs
        .iter()
        .map(|spec| pool.connect(spec.stream_id, &spec.frames).unwrap())
        .collect();
    for (client, spec) in clients.iter_mut().zip(&specs) {
        let initial = client.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
        for frame in &spec.frames {
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
    }
    for (client, spec) in clients.iter_mut().zip(&specs) {
        for _ in &spec.frames {
            let update = client.recv_timeout(Duration::from_secs(30)).unwrap();
            assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
        }
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    let stats = pool.join().unwrap();
    assert_eq!(stats.total_key_frames(), 8);
    assert_eq!(stats.dropped_jobs(), 0);
    assert_eq!(stats.throttled(), 0);
    // Real compute was measured, and the live run's measured amortized
    // per-frame teacher cost beats the deterministic solo baseline whenever
    // any co-scheduling happened (and can only tie it when every batch
    // degenerated to size 1, which the timing race makes possible but rare).
    assert!(stats.teacher_wall_time() > Duration::ZERO);
    // How deep the live batches actually got depends on an arrival race
    // (clients push while the worker drains), so the wall-cost comparison
    // against the deterministic solo baseline only binds when genuine
    // co-scheduling happened; the margin absorbs scheduler jitter from the
    // concurrent client threads. The strict batch-8 < batch-1 claim is the
    // deterministic shard measurement above.
    let shard_stats = &stats.shards[0];
    if shard_stats.mean_batch_size() >= 2.0 {
        assert!(
            stats.mean_teacher_wall_secs() < solo_median * 1.10,
            "live pool amortized cost {:.6}s/frame vs solo baseline {solo_median:.6}s/frame \
             (mean batch {:.2})",
            stats.mean_teacher_wall_secs(),
            shard_stats.mean_batch_size()
        );
    }
}

/// Open-loop client driver for the elastic-pool tests: waits for the
/// initial checkpoint, sleeps `start_delay`, sends every frame on a fixed
/// schedule, answers `NeedFrame` recovery requests by re-uploading the
/// frame, drains until every send is answered, and shuts down. Returns
/// `(updates, throttled, dropped)`.
fn drive_stream(
    mut client: StreamClient,
    frames: Vec<st_video::Frame>,
    start_delay: Duration,
    interval: Duration,
) -> (usize, usize, usize) {
    use std::collections::HashMap;
    client
        .recv_timeout(Duration::from_secs(30))
        .expect("initial checkpoint");
    std::thread::sleep(start_delay);
    let by_index: HashMap<usize, &st_video::Frame> = frames.iter().map(|f| (f.index, f)).collect();
    let (mut updates, mut throttled, mut dropped) = (0usize, 0usize, 0usize);
    let mut outstanding = 0usize;
    let mut reshare_queue: Vec<usize> = Vec::new();
    let absorb = |message: ServerToClient,
                  updates: &mut usize,
                  throttled: &mut usize,
                  dropped: &mut usize,
                  outstanding: &mut usize,
                  reshare_queue: &mut Vec<usize>| {
        match message {
            ServerToClient::StudentUpdate { .. } => {
                *updates += 1;
                *outstanding = outstanding.saturating_sub(1);
            }
            ServerToClient::Throttle { .. } => {
                *throttled += 1;
                *outstanding = outstanding.saturating_sub(1);
            }
            ServerToClient::Dropped { .. } => {
                *dropped += 1;
                *outstanding = outstanding.saturating_sub(1);
            }
            ServerToClient::NeedFrame { frame_index } => reshare_queue.push(frame_index),
            ServerToClient::InitialStudent { .. } => {}
        }
    };
    for frame in &frames {
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
            .expect("uplink send");
        outstanding += 1;
        while let Ok(Some(message)) = client.try_recv() {
            absorb(
                message,
                &mut updates,
                &mut throttled,
                &mut dropped,
                &mut outstanding,
                &mut reshare_queue,
            );
        }
        for index in reshare_queue.drain(..) {
            client.reshare(by_index[&index]).expect("reshare send");
        }
        std::thread::sleep(interval);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while outstanding > 0 && Instant::now() < deadline {
        match client.recv_timeout(Duration::from_millis(200)) {
            Ok(message) => absorb(
                message,
                &mut updates,
                &mut throttled,
                &mut dropped,
                &mut outstanding,
                &mut reshare_queue,
            ),
            Err(st_net::TransportError::Timeout) => continue,
            Err(_) => break,
        }
        for index in reshare_queue.drain(..) {
            client.reshare(by_index[&index]).expect("reshare send");
        }
    }
    client.send(ClientToServer::Shutdown, 1).ok();
    (updates, throttled, dropped)
}

/// The elastic-pool tentpole, measured end to end: an 8×-rate hot stream on
/// a 4-shard pool, run identically with work stealing off
/// (`PlacementPolicy::LeastLoaded`) and on (`Rebalance`), under a
/// per-stream LRU frame budget.
///
/// Acceptance (ISSUE 5): with stealing enabled, cold-shard idle time and
/// p99 cold-stream wait are strictly below the stealing-off baseline
/// measured in the same test; `dropped_jobs == 0`; frame-cache bytes never
/// exceed the configured budget.
///
/// Topology (connect order is id order, least-loaded ties to the lowest
/// shard, so placement is identical in both runs): hot stream 0 → shard 0;
/// three short-lived colds 1–3 → shards 1–3, each sending one frame and
/// retiring — which leaves their shards *empty* and patient; mate stream
/// 4 → shard 0, starting only after the steal must have happened. Without
/// stealing, every mate key frame waits behind the hot stream's in-service
/// forwards; with stealing, the idle shards pull the hot backlog over
/// (and, once its host has no shard-mates left, the hot stream pins there),
/// so the mate arrives to a quiet shard.
#[test]
fn work_stealing_relieves_a_hot_shard_and_bounds_frame_memory() {
    let (student, _) = pretrained_student();
    let hot_frames = frames_for(SceneKind::People, 9100, 30);
    let budget = 12 * FrameStore::frame_cost(&hot_frames[0]);
    let run = |placement: PlacementPolicy| {
        let pool = ServerPool::spawn(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 4,
                placement,
                max_in_flight: 64,
                // One forward per batch: co-scheduling would amortize the
                // hot stream's excess away and hide the imbalance.
                max_batch: 1,
                adaptive_batch: false,
                frame_budget_bytes: Some(budget),
                steal_poll: Duration::from_millis(1),
                steal_patience: Duration::from_millis(100),
                ..PoolConfig::default_pool()
            },
            student.clone(),
            0.013,
            // A real wall-clock pause per teacher forward so the hot
            // backlog is physical.
            |shard| {
                PacedTeacher::new(
                    OracleTeacher::perfect(7200 + shard as u64),
                    Duration::from_millis(8),
                )
            },
        )
        .unwrap();
        // (frames, start delay, send interval) per stream, in id order.
        let specs: Vec<(Vec<st_video::Frame>, Duration, Duration)> = vec![
            (
                hot_frames.clone(),
                Duration::ZERO,
                Duration::from_millis(30),
            ),
            (
                frames_for(SceneKind::Animals, 9101, 1),
                Duration::ZERO,
                Duration::from_millis(1),
            ),
            (
                frames_for(SceneKind::Street, 9102, 1),
                Duration::ZERO,
                Duration::from_millis(1),
            ),
            (
                frames_for(SceneKind::Animals, 9103, 1),
                Duration::ZERO,
                Duration::from_millis(1),
            ),
            (
                frames_for(SceneKind::People, 9104, 8),
                // Starts well after the steal must have happened, with
                // margin for a CI runner serving sibling tests: the idle
                // shards get patient ~100 ms after the one-frame colds
                // retire (~100-250 ms even under 3x slowdown), and the
                // donation follows within a couple of shard-0 passes.
                Duration::from_millis(800),
                Duration::from_millis(100),
            ),
        ];
        let clients: Vec<StreamClient> = specs
            .iter()
            .enumerate()
            .map(|(id, (frames, _, _))| pool.connect(id as u64, frames).unwrap())
            .collect();
        // Hot + mate share shard 0; one cold per remaining shard.
        assert_eq!(pool.shard_loads(), vec![2, 1, 1, 1]);
        let started = Instant::now();
        let mut results: Vec<(usize, usize, usize)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (client, (frames, start_delay, interval)) in clients.into_iter().zip(&specs) {
                let frames = frames.clone();
                let (start_delay, interval) = (*start_delay, *interval);
                handles
                    .push(scope.spawn(move || drive_stream(client, frames, start_delay, interval)));
            }
            for handle in handles {
                results.push(handle.join().unwrap());
            }
        });
        let wall = started.elapsed().as_secs_f64();
        let stats = pool.join().unwrap();
        // Every key frame of every stream was answered and served: no
        // throttles (cap 64), no drops, updates == sent.
        for (id, ((updates, throttled, dropped), (frames, _, _))) in
            results.iter().zip(&specs).enumerate()
        {
            assert_eq!(
                *updates,
                frames.len(),
                "stream {id}: {updates} updates, {throttled} throttled, {dropped} dropped"
            );
        }
        (stats, wall)
    };

    let (off, off_wall) = run(PlacementPolicy::LeastLoaded);
    let (on, on_wall) = run(PlacementPolicy::Rebalance);

    // Nothing lost in either mode.
    assert_eq!(off.dropped_jobs(), 0);
    assert_eq!(on.dropped_jobs(), 0);
    assert_eq!(off.streams_stolen(), 0, "LeastLoaded must never migrate");
    assert!(
        on.streams_stolen() >= 1,
        "stealing never engaged: {:?}",
        on.snapshot().to_json()
    );

    // p99 cold-stream wait strictly below the stealing-off baseline. At
    // these per-stream sample counts the 99th percentile is the worst
    // sample, so compare the worst cold stream's worst wall-clock wait.
    let cold_p99 = |stats: &shadowtutor::serve::PoolStats| {
        (1u64..=4)
            .map(|id| stats.streams[&id].queue_wait_max)
            .max()
            .unwrap()
    };
    let off_cold_wait = cold_p99(&off);
    let on_cold_wait = cold_p99(&on);
    assert!(
        on_cold_wait < off_cold_wait,
        "cold p99 wait must drop with stealing: {on_cold_wait:?} vs {off_cold_wait:?}"
    );

    // Cold-shard idle time strictly below the baseline: the shards that
    // idled while shard 0 drowned (shards 1-3) spend more of the run busy
    // once they can steal the hot backlog. Compare idle *fractions* so the
    // two runs' wall clocks normalize out.
    let cold_idle_fraction = |stats: &shadowtutor::serve::PoolStats, wall: f64| {
        let busy: f64 = stats.shards[1..]
            .iter()
            .map(|s| s.busy_time.as_secs_f64())
            .sum();
        1.0 - busy / (3.0 * wall)
    };
    let off_idle = cold_idle_fraction(&off, off_wall);
    let on_idle = cold_idle_fraction(&on, on_wall);
    assert!(
        on_idle < off_idle,
        "cold shards must idle less with stealing: {on_idle:.3} vs {off_idle:.3}"
    );

    // The frame budget held at every point of both runs, and the recovery
    // path really ran (the hot stream pre-shares 30 frames against a
    // 12-frame budget).
    assert!(off.frame_bytes_peak() <= budget);
    assert!(on.frame_bytes_peak() <= budget);
    assert!(on.frame_evictions() > 0);
    assert!(on.reshared_frames() > 0);
}

/// Steal-vs-shutdown races: streams finish (or abandon) while migrations
/// are in flight, and nothing may be lost or double-counted — every
/// connected stream reports a final checkpoint and stats, and every key
/// frame is either served or explicitly acked.
#[test]
fn stream_finishing_mid_migration_is_never_lost() {
    // Cheap distillation so service is shorter than the cold send interval
    // (the regime where donation windows exist at all).
    let config = ShadowTutorConfig {
        max_updates: 2,
        ..ShadowTutorConfig::paper()
    };
    let student = StudentNet::new(StudentConfig::tiny()).unwrap();
    let pool_config = PoolConfig {
        shards: 2,
        placement: PlacementPolicy::Rebalance,
        max_in_flight: 12,
        max_batch: 1,
        adaptive_batch: false,
        steal_poll: Duration::from_millis(1),
        steal_patience: Duration::from_millis(3),
        ..PoolConfig::default_pool()
    };

    // Part 1 — cooperative endings: open-loop skewed runs where the cold
    // streams retire early while the hot backlog keeps migrating. Every
    // stream's answers must conserve across however many hops its session
    // took.
    let mut total_steals = 0usize;
    for seed in [5508u64, 5509, 5510] {
        let outcome = run_skewed_load(
            config,
            pool_config,
            student.clone(),
            0.013,
            |shard| {
                PacedTeacher::new(
                    OracleTeacher::perfect(seed * 10 + shard as u64),
                    Duration::from_millis(6),
                )
            },
            SkewedLoadSpec {
                streams: 3,
                hot_multiplier: 8,
                key_frames_per_stream: 2,
                send_interval: Duration::from_millis(40),
                seed,
            },
        )
        .unwrap();
        for report in &outcome.streams {
            assert_eq!(
                report.updates + report.throttled + report.dropped,
                report.sent,
                "seed {seed}: stream {} lost answers",
                report.stream_id
            );
        }
        assert_eq!(outcome.pool.dropped_jobs(), 0, "seed {seed}");
        assert_eq!(outcome.pool.streams.len(), 3, "seed {seed}");
        assert_eq!(outcome.pool.final_checkpoints.len(), 3, "seed {seed}");
        // Conservation across migration: steals and donations pair up.
        let donated: usize = outcome.pool.shards.iter().map(|s| s.streams_donated).sum();
        assert_eq!(donated, outcome.pool.streams_stolen(), "seed {seed}");
        total_steals += outcome.pool.streams_stolen();
    }

    // Part 2 — abrupt endings: the hot stream walks away (Shutdown + drop)
    // with most of its backlog still queued, racing the migration machinery.
    // The flushed backlog must be processed-or-acked and the session
    // retired with a checkpoint, wherever it lives by then.
    for seed in [31u64, 32] {
        let pool = ServerPool::spawn(config, pool_config, student.clone(), 0.013, |shard| {
            PacedTeacher::new(
                OracleTeacher::perfect(seed * 100 + shard as u64),
                Duration::from_millis(6),
            )
        })
        .unwrap();
        let hot_frames = frames_for(SceneKind::People, seed, 12);
        let helper_frames = frames_for(SceneKind::Animals, seed + 40, 2);
        let mate_frames = frames_for(SceneKind::Street, seed + 80, 2);
        let mut hot = pool.connect(0, &hot_frames).unwrap();
        let helper = pool.connect(1, &helper_frames).unwrap();
        let mate = pool.connect(2, &mate_frames).unwrap();
        // Helper and mate run cooperatively on their own threads; the hot
        // client blasts its backlog, takes a few updates, and vanishes.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                drive_stream(
                    helper,
                    helper_frames.clone(),
                    Duration::ZERO,
                    Duration::from_millis(20),
                )
            });
            scope.spawn(|| {
                drive_stream(
                    mate,
                    mate_frames.clone(),
                    Duration::ZERO,
                    Duration::from_millis(20),
                )
            });
            hot.recv_timeout(Duration::from_secs(10)).unwrap();
            for frame in &hot_frames {
                let payload = Payload::sized(frame.raw_rgb_bytes());
                let bytes = payload.bytes;
                hot.send(
                    ClientToServer::KeyFrame {
                        frame_index: frame.index,
                        payload,
                    },
                    bytes,
                )
                .unwrap();
            }
            let mut seen = 0;
            while seen < 4 {
                if let Ok(ServerToClient::StudentUpdate { .. }) =
                    hot.recv_timeout(Duration::from_secs(10))
                {
                    seen += 1;
                }
            }
            hot.send(ClientToServer::Shutdown, 1).unwrap();
            drop(hot);
        });
        let stats = pool.join().unwrap();
        // All three sessions retired with checkpoints and stats, wherever
        // the migrations put them.
        assert_eq!(stats.streams.len(), 3, "seed {seed}");
        assert_eq!(stats.final_checkpoints.len(), 3, "seed {seed}");
        // The hot stream's queued backlog was flushed on Shutdown: every
        // one of its 12 key frames was served (none were throttled — cap
        // 12 — and none silently vanished).
        assert_eq!(stats.streams[&0].key_frames, 12, "seed {seed}");
        assert_eq!(stats.dropped_jobs(), 0, "seed {seed}");
        total_steals += stats.streams_stolen();
    }
    // Migrations really interleaved with the endings somewhere across the
    // runs. Part 2's steal is structurally robust even on a loaded CI
    // runner: the helper retires early, its shard goes patient-idle, and
    // the victim keeps the mate session, so the relaxed donation rule
    // fires independently of arrival timing; Part 1's steals additionally
    // need idle gaps between cold arrivals, which heavy host load can
    // erase — hence one pooled assertion, not one per part.
    assert!(
        total_steals >= 1,
        "no migration happened across any seed — the race never ran"
    );
}

/// The eviction-recovery protocol, deterministically: a key frame whose
/// content was evicted from the bounded cache is parked and recovered via
/// `NeedFrame` → `ReShare`, never dropped — while frames that were never
/// shared still get the explicit `Dropped` ack.
#[test]
fn lru_eviction_needframe_reshare_round_trip() {
    let frames = frames_for(SceneKind::People, 93, 4);
    let budget = 2 * FrameStore::frame_cost(&frames[0]);
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 1,
            frame_budget_bytes: Some(budget),
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(93),
    )
    .unwrap();
    let mut client = pool.connect(5, &frames).unwrap();
    let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(matches!(initial, ServerToClient::InitialStudent { .. }));

    // Frames are pre-shared in index order, so with room for two the first
    // two are already evicted. Asking for frame 0 must yield a NeedFrame,
    // not a drop.
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
    match client.recv_timeout(Duration::from_secs(10)).unwrap() {
        ServerToClient::NeedFrame { frame_index } => assert_eq!(frame_index, frames[0].index),
        other => panic!("expected NeedFrame, got {other:?}"),
    }
    // Re-uploading the frame resumes the parked job and produces the
    // update the original key frame was owed.
    client.reshare(&frames[0]).unwrap();
    match client.recv_timeout(Duration::from_secs(10)).unwrap() {
        ServerToClient::StudentUpdate { frame_index, .. } => {
            assert_eq!(frame_index, frames[0].index)
        }
        other => panic!("expected StudentUpdate, got {other:?}"),
    }

    // A client may legally re-send a key frame. Two sends for the same
    // evicted index must yield two updates — the parked jobs may not
    // collapse into one (the regression this guards: a map keyed by frame
    // index silently swallowing the duplicate).
    for _ in 0..2 {
        let payload = Payload::sized(frames[1].raw_rgb_bytes());
        let bytes = payload.bytes;
        client
            .send(
                ClientToServer::KeyFrame {
                    frame_index: frames[1].index,
                    payload,
                },
                bytes,
            )
            .unwrap();
    }
    let mut duplicate_updates = 0;
    while duplicate_updates < 2 {
        match client.recv_timeout(Duration::from_secs(10)).unwrap() {
            // Depending on how the two sends batch, the server may ask for
            // the frame once or twice; answer every request.
            ServerToClient::NeedFrame { frame_index } => {
                assert_eq!(frame_index, frames[1].index);
                client.reshare(&frames[1]).unwrap();
            }
            ServerToClient::StudentUpdate { frame_index, .. } => {
                assert_eq!(frame_index, frames[1].index);
                duplicate_updates += 1;
            }
            other => panic!("expected NeedFrame/StudentUpdate, got {other:?}"),
        }
    }

    // A frame that was never shared is a protocol error, not a recovery
    // case: explicit drop ack.
    let payload = Payload::sized(frames[0].raw_rgb_bytes());
    let bytes = payload.bytes;
    client
        .send(
            ClientToServer::KeyFrame {
                frame_index: 999,
                payload,
            },
            bytes,
        )
        .unwrap();
    match client.recv_timeout(Duration::from_secs(10)).unwrap() {
        ServerToClient::Dropped {
            frame_index,
            reason,
        } => {
            assert_eq!(frame_index, 999);
            assert_eq!(reason, DropReason::UnknownFrame);
        }
        other => panic!("expected Dropped, got {other:?}"),
    }
    // An unsolicited re-share of a never-shared frame is refused the same
    // way (a re-share restores content, it does not add frames).
    let foreign = frames_for(SceneKind::Street, 94, 6).pop().unwrap();
    client.reshare(&foreign).unwrap();
    match client.recv_timeout(Duration::from_secs(10)).unwrap() {
        ServerToClient::Dropped { reason, .. } => assert_eq!(reason, DropReason::UnknownFrame),
        other => panic!("expected Dropped, got {other:?}"),
    }

    client.send(ClientToServer::Shutdown, 1).unwrap();
    drop(client);
    let stats = pool.join().unwrap();
    // Three key frames served end to end (one recovered, plus the
    // duplicate pair); the recoveries and the two protocol errors all
    // accounted; the budget held throughout.
    assert_eq!(stats.total_key_frames(), 3);
    assert_eq!(stats.streams[&5].key_frames, 3);
    assert_eq!(stats.dropped_jobs(), 2);
    let shard = &stats.shards[0];
    assert!(shard.frame_evictions >= 2);
    assert!(shard.need_frame_requests >= 2);
    assert!(shard.reshared_frames >= 2);
    assert!(shard.frame_bytes_peak > 0 && shard.frame_bytes_peak <= budget);
}

#[test]
fn all_seven_categories_run_and_report_valid_metrics() {
    let student = StudentNet::new(StudentConfig::tiny()).unwrap();
    let runtime =
        SimRuntime::paper(DistillationMode::Partial).with_delay_model(DelayModel::Frames(1));
    for descriptor in category_videos(Resolution::Tiny, 123) {
        let mut video = VideoGenerator::new(descriptor.config).unwrap();
        let record = runtime
            .run(
                &descriptor.name,
                &mut video,
                24,
                student.clone(),
                OracleTeacher::perfect(11),
            )
            .unwrap();
        assert_eq!(record.frames, 24, "{}", descriptor.name);
        assert!(record.key_frame_count() >= 1);
        assert!(record.mean_miou_percent() >= 0.0 && record.mean_miou_percent() <= 100.0);
        assert!(record.fps() > 0.0);
        assert!(record.total_data_mb() > 0.0);
    }
}

/// The API redesign's compatibility contract: the `connect()` builder's
/// default in-process channel backend is exactly the raw transport pair —
/// same delivery, same distillation output bit for bit, same measured wire
/// bytes. A scripted lockstep session (client endpoint and server half
/// pumped alternately from one thread, real distillation on the server
/// side) removes timing from the picture, so any divergence would be the
/// builder's fault, not the scheduler's.
#[test]
fn channel_backend_distillation_output_is_bit_identical_to_raw_pair() {
    use shadowtutor::server::ServerState;
    use st_net::transport::{DuplexTransport, Endpoint, ServerChannel};
    use st_net::{Codec, WireCodec};
    use st_video::Frame;

    /// Drive the fixed script over whichever endpoint/server pair we were
    /// handed; return the concatenated downlink payload bytes (initial
    /// checkpoint + every weight update + metrics) and the endpoint's
    /// measured wire counters.
    fn scripted_run<C, T>(
        mut endpoint: Endpoint<C, T>,
        mut server_side: ServerChannel,
        frames: &[Frame],
        key_indices: &[usize],
        student: StudentNet,
    ) -> (Vec<u8>, usize, usize)
    where
        C: Codec,
        T: st_net::Transport<ClientToServer, ServerToClient>,
    {
        let timeout = Duration::from_secs(5);
        let mut server = ServerState::new(
            ShadowTutorConfig::paper(),
            student,
            OracleTeacher::perfect(7),
            0.013,
        );
        let mut output: Vec<u8> = Vec::new();

        let init = server.initial_checkpoint();
        server_side
            .send(
                ServerToClient::InitialStudent {
                    payload: Payload::with_data(init.encode()),
                },
                0,
            )
            .unwrap();
        match endpoint.recv_timeout(timeout).unwrap() {
            ServerToClient::InitialStudent { payload } => {
                output.extend_from_slice(payload.data.as_ref().expect("initial payload"));
            }
            other => panic!("expected InitialStudent, got {other:?}"),
        }

        for &index in key_indices {
            let content: Vec<u8> = (0..frames[index].raw_rgb_bytes())
                .map(|i| (i % 251) as u8)
                .collect();
            endpoint
                .send(
                    ClientToServer::KeyFrame {
                        frame_index: index,
                        payload: Payload::with_data(bytes::Bytes::from(content)),
                    },
                    0,
                )
                .unwrap();
            let frame_index = match server_side.recv_timeout(timeout).unwrap() {
                ClientToServer::KeyFrame { frame_index, .. } => frame_index,
                other => panic!("expected KeyFrame, got {other:?}"),
            };
            let response = server.handle_key_frame(&frames[frame_index]).unwrap();
            server_side
                .send(
                    ServerToClient::StudentUpdate {
                        frame_index,
                        metric: response.metric,
                        distill_steps: response.outcome.steps,
                        payload: Payload::with_data(response.update.encode()),
                    },
                    0,
                )
                .unwrap();
            match endpoint.recv_timeout(timeout).unwrap() {
                ServerToClient::StudentUpdate {
                    metric,
                    distill_steps,
                    payload,
                    ..
                } => {
                    output.extend_from_slice(payload.data.as_ref().expect("update payload"));
                    output.extend_from_slice(&metric.to_le_bytes());
                    output.extend_from_slice(&(distill_steps as u64).to_le_bytes());
                }
                other => panic!("expected StudentUpdate, got {other:?}"),
            }
        }
        endpoint.send(ClientToServer::Shutdown, 0).unwrap();
        assert!(matches!(
            server_side.recv_timeout(timeout).unwrap(),
            ClientToServer::Shutdown
        ));
        (
            output,
            endpoint.wire_sent_bytes(),
            endpoint.wire_received_bytes(),
        )
    }

    let (student, _) = pretrained_student();
    let frames = frames_for(SceneKind::People, 5, 24);
    let key_indices = [0usize, 6, 12, 18];

    // Backend A: the builder's default channel backend.
    let (built_client, built_server) = st_net::connect().channel();
    let built = scripted_run(
        built_client,
        built_server,
        &frames,
        &key_indices,
        student.clone(),
    );

    // Backend B: a raw transport pair wrapped by hand — what the code looked
    // like before the builder existed.
    let (client_side, server_side) = DuplexTransport::pair();
    let raw = scripted_run(
        Endpoint::new(WireCodec, client_side),
        server_side,
        &frames,
        &key_indices,
        student,
    );

    assert_eq!(
        built.0, raw.0,
        "distillation output diverged between the channel builder and the raw pair"
    );
    assert!(!built.0.is_empty());
    assert_eq!(built.1, raw.1, "measured uplink wire bytes diverged");
    assert_eq!(built.2, raw.2, "measured downlink wire bytes diverged");
}
