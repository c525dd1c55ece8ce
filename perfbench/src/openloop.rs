//! The open-loop generator: one thread multiplexing every stream's
//! endpoint, sending each key frame when it is due and timing its update
//! from that due time.
//!
//! Timing from the due time rather than the actual send means a stall —
//! in the generator or in an endpoint's `send` — is charged to every key
//! frame it delays, instead of silently shifting the schedule. The
//! generator's own lateness (send time minus due time) is logged per key
//! frame so a run can report and bound it.

use crate::client::{Applied, ClientWeights};
use crate::schedule::Due;
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, Payload, ServerToClient};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Longest single wait between endpoint sweeps.
const TICK: Duration = Duration::from_millis(20);

/// How one offered key frame ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No answer yet (an unanswered key frame at the end fails the run).
    Pending,
    /// The update was decoded and applied at the client.
    Applied,
    /// Admission control refused it.
    Throttled,
    /// The pool dropped it.
    Dropped,
    /// The update arrived but its delta base did not match.
    Rejected,
}

/// The client-side record of one offered key frame.
#[derive(Debug, Clone, Copy)]
pub struct KeyFrameLog {
    /// Stream index.
    pub stream: usize,
    /// Frame index sent on the wire.
    pub frame_index: usize,
    /// Due time, seconds after the window start.
    pub due: f64,
    /// Actual send time, seconds after the window start.
    pub sent: f64,
    /// When the answer was handled (after the apply for an update).
    pub answered: Option<f64>,
    /// How it ended.
    pub outcome: Outcome,
    /// Framed wire bytes of the key-frame message.
    pub uplink_bytes: usize,
    /// Weight-payload bytes of its update (0 when none).
    pub update_bytes: usize,
    /// Distillation steps the server reported.
    pub distill_steps: usize,
}

impl KeyFrameLog {
    /// Due-time round trip in seconds, for applied updates.
    pub fn rtt(&self) -> Option<f64> {
        match (self.outcome, self.answered) {
            (Outcome::Applied, Some(at)) => Some(at - self.due),
            _ => None,
        }
    }
}

/// Everything one open-loop run observed at the clients.
#[derive(Debug, Default)]
pub struct OpenLoopLog {
    /// One record per offered key frame, in due order.
    pub key_frames: Vec<KeyFrameLog>,
    /// Answers for a key frame that was already answered.
    pub duplicate_answers: usize,
    /// Answers naming no offered key frame, or messages no key frame can
    /// explain (a re-share request, a second initial checkpoint).
    pub stray_answers: usize,
    /// Seconds from the window start to the last answer.
    pub elapsed: f64,
}

/// Builds the key-frame message for `(stream, ordinal)`: the frame index
/// and its payload.
pub type KeyFrameSource<'a> = dyn FnMut(usize, usize) -> (usize, Payload) + 'a;

/// Offer `schedule` through `endpoints` (one per stream) and apply every
/// update to `clients`. `wait` blocks for at most the given duration or
/// until an endpoint has traffic. After the last send the generator drains
/// answers for up to `drain` before giving up on the stragglers.
pub fn drive<E: ClientEndpoint>(
    endpoints: &mut [E],
    clients: &mut [ClientWeights],
    schedule: &[Due],
    source: &mut KeyFrameSource<'_>,
    wait: &mut dyn FnMut(Duration),
    drain: Duration,
) -> shadowtutor::Result<OpenLoopLog> {
    let mut log = OpenLoopLog {
        key_frames: Vec::with_capacity(schedule.len()),
        ..OpenLoopLog::default()
    };
    let mut index: HashMap<(usize, usize), usize> = HashMap::with_capacity(schedule.len());
    let mut pending = 0usize;
    let start = Instant::now();
    for due in schedule {
        loop {
            sweep(endpoints, clients, &mut log, &index, &mut pending, start)?;
            let now = start.elapsed().as_secs_f64();
            if now >= due.at {
                break;
            }
            wait(Duration::from_secs_f64(due.at - now).min(TICK));
        }
        let (frame_index, payload) = source(due.stream, due.ordinal);
        let message = ClientToServer::KeyFrame {
            frame_index,
            payload,
        };
        let uplink_bytes = st_net::wire::frame_len(&st_net::StreamTagged::new(
            due.stream as u64,
            message.clone(),
        ));
        let bytes = match &message {
            ClientToServer::KeyFrame { payload, .. } => payload.bytes,
            _ => unreachable!("built as a key frame above"),
        };
        let sent = start.elapsed().as_secs_f64();
        endpoints[due.stream].send(message, bytes).map_err(|e| {
            st_tensor::TensorError::InvalidArgument(format!("uplink send failed: {e:?}"))
        })?;
        index.insert((due.stream, frame_index), log.key_frames.len());
        log.key_frames.push(KeyFrameLog {
            stream: due.stream,
            frame_index,
            due: due.at,
            sent,
            answered: None,
            outcome: Outcome::Pending,
            uplink_bytes,
            update_bytes: 0,
            distill_steps: 0,
        });
        pending += 1;
    }
    let deadline = Instant::now() + drain;
    while pending > 0 && Instant::now() < deadline {
        wait(TICK);
        sweep(endpoints, clients, &mut log, &index, &mut pending, start)?;
    }
    log.elapsed = log
        .key_frames
        .iter()
        .filter_map(|k| k.answered)
        .fold(0.0, f64::max);
    Ok(log)
}

/// Handle every message already waiting on every endpoint.
fn sweep<E: ClientEndpoint>(
    endpoints: &mut [E],
    clients: &mut [ClientWeights],
    log: &mut OpenLoopLog,
    index: &HashMap<(usize, usize), usize>,
    pending: &mut usize,
    start: Instant,
) -> shadowtutor::Result<()> {
    for (stream, endpoint) in endpoints.iter_mut().enumerate() {
        while let Ok(Some(message)) = endpoint.try_recv() {
            let (frame_index, verdict) = match message {
                ServerToClient::StudentUpdate {
                    frame_index,
                    distill_steps,
                    payload,
                    ..
                } => {
                    let Some(&slot) = index.get(&(stream, frame_index)) else {
                        log.stray_answers += 1;
                        continue;
                    };
                    if log.key_frames[slot].outcome != Outcome::Pending {
                        log.duplicate_answers += 1;
                        continue;
                    }
                    let applied = match &payload.data {
                        Some(data) => clients[stream].apply(data)?,
                        None => Applied::Full,
                    };
                    let record = &mut log.key_frames[slot];
                    record.update_bytes = payload.data.as_ref().map_or(0, |d| d.len());
                    record.distill_steps = distill_steps;
                    let outcome = if applied == Applied::Rejected {
                        Outcome::Rejected
                    } else {
                        Outcome::Applied
                    };
                    (frame_index, outcome)
                }
                ServerToClient::Throttle { frame_index } => (frame_index, Outcome::Throttled),
                ServerToClient::Dropped { frame_index, .. } => (frame_index, Outcome::Dropped),
                _ => {
                    log.stray_answers += 1;
                    continue;
                }
            };
            let Some(&slot) = index.get(&(stream, frame_index)) else {
                log.stray_answers += 1;
                continue;
            };
            let record = &mut log.key_frames[slot];
            if record.outcome != Outcome::Pending {
                log.duplicate_answers += 1;
                continue;
            }
            record.outcome = verdict;
            record.answered = Some(start.elapsed().as_secs_f64());
            *pending -= 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowtutor::config::ShadowTutorConfig;
    use st_net::TransportError;
    use st_nn::student::{StudentConfig, StudentNet};
    use std::collections::VecDeque;

    /// A fake pool endpoint whose `send` stalls for a fixed time and then
    /// answers the key frame at once with a payload-less update.
    struct StallingEndpoint {
        stall: Duration,
        queue: VecDeque<ServerToClient>,
    }

    impl ClientEndpoint for StallingEndpoint {
        fn send(&mut self, message: ClientToServer, _bytes: usize) -> Result<(), TransportError> {
            std::thread::sleep(self.stall);
            if let ClientToServer::KeyFrame { frame_index, .. } = message {
                self.queue.push_back(ServerToClient::StudentUpdate {
                    frame_index,
                    metric: 0.5,
                    distill_steps: 1,
                    payload: Payload::sized(0),
                });
            }
            Ok(())
        }

        fn try_recv(&mut self) -> Result<Option<ServerToClient>, TransportError> {
            Ok(self.queue.pop_front())
        }

        fn recv_timeout(&mut self, _timeout: Duration) -> Result<ServerToClient, TransportError> {
            self.queue.pop_front().ok_or(TransportError::Timeout)
        }
    }

    #[test]
    fn due_time_rtt_charges_a_stall_to_the_key_frames_it_delays() {
        let config = ShadowTutorConfig::paper();
        let template = StudentNet::new(StudentConfig::tiny()).unwrap();
        let mut clients = vec![ClientWeights::new(&config, &template, false)];
        let mut endpoints = vec![StallingEndpoint {
            stall: Duration::from_millis(60),
            queue: VecDeque::new(),
        }];
        // Five key frames due 10 ms apart; each send stalls 60 ms, so the
        // k-th key frame goes out ~50·k ms late.
        let schedule: Vec<Due> = (0..5)
            .map(|k| Due {
                at: 0.010 * k as f64,
                stream: 0,
                ordinal: k,
            })
            .collect();
        let mut source = |_stream: usize, ordinal: usize| (ordinal, Payload::sized(16));
        let log = drive(
            &mut endpoints,
            &mut clients,
            &schedule,
            &mut source,
            &mut |d| std::thread::sleep(d),
            Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(log.key_frames.len(), 5);
        assert_eq!(log.duplicate_answers + log.stray_answers, 0);
        for (k, record) in log.key_frames.iter().enumerate() {
            assert_eq!(record.outcome, Outcome::Applied);
            let rtt = record.rtt().unwrap();
            let send_rtt = record.answered.unwrap() - record.sent;
            // From the due time, the queueing behind earlier stalled sends
            // counts: the k-th frame waited at least ~(60 - 10)·k + 60 ms.
            assert!(rtt >= 0.050 * k as f64 + 0.055, "k={k} rtt={rtt}");
            // Timed from the actual send, every key frame looks alike: the
            // queueing behind earlier stalls disappears.
            assert!(send_rtt < 0.100, "k={k} send-time rtt={send_rtt}");
            assert!(record.sent - record.due >= 0.045 * k as f64);
        }
    }
}
