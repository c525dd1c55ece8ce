//! The client half of a stream: its serving copy of the student and the
//! update-application rule of Algorithm 4, including the delta protocol's
//! digest lockstep.
//!
//! This mirrors what the live runtime's client driver does when an update
//! arrives (that driver is private to `shadowtutor::runtime::live`), built
//! only from public `st-nn` calls, so the benchmark can time each apply and
//! check the resulting weights against the pool's final checkpoints.

use bytes::Bytes;
use shadowtutor::config::ShadowTutorConfig;
use st_net::Wire;
use st_nn::delta::{CheckpointDigest, WeightPayload};
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;

/// What applying one downlink payload did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A bare snapshot or a full envelope was applied.
    Full,
    /// A sparse delta was applied.
    Delta,
    /// A delta named a base the client does not hold; weights untouched.
    Rejected,
}

#[derive(Clone)]
struct DeltaSync {
    digest: CheckpointDigest,
    previous: Option<u64>,
}

/// One client's serving weights.
#[derive(Clone)]
pub struct ClientWeights {
    /// The client's student.
    pub student: StudentNet,
    sync: Option<DeltaSync>,
}

impl ClientWeights {
    /// A client starting from the deployment template, negotiating delta
    /// updates when `delta` is set.
    pub fn new(config: &ShadowTutorConfig, template: &StudentNet, delta: bool) -> Self {
        let mut student = template.clone();
        student.freeze = config.mode.freeze_point();
        let sync = delta.then(|| DeltaSync {
            digest: CheckpointDigest::of(&WeightSnapshot::capture(
                &mut student,
                SnapshotScope::Full,
            )),
            previous: None,
        });
        ClientWeights { student, sync }
    }

    /// Decode and apply one weight payload (initial checkpoint or update).
    pub fn apply(&mut self, data: &Bytes) -> shadowtutor::Result<Applied> {
        let Some(sync) = &mut self.sync else {
            WeightSnapshot::decode(data, SnapshotScope::TrainableOnly)?.apply(&mut self.student)?;
            return Ok(Applied::Full);
        };
        let payload = <WeightPayload as Wire>::decode(&mut &data[..])
            .map_err(|e| st_tensor::TensorError::InvalidArgument(format!("weight payload: {e}")))?;
        match payload {
            WeightPayload::Full(snapshot) => {
                snapshot.apply(&mut self.student)?;
                sync.previous = Some(sync.digest.combined());
                sync.digest.patch(&snapshot);
                Ok(Applied::Full)
            }
            WeightPayload::Delta(delta) => {
                if delta.check_base(&sync.digest, sync.previous).is_err() {
                    return Ok(Applied::Rejected);
                }
                let (sparse, chunks) = delta.into_parts()?;
                sparse.apply(&mut self.student)?;
                sync.previous = Some(sync.digest.combined());
                sync.digest.patch_chunks(&chunks);
                Ok(Applied::Delta)
            }
        }
    }

    /// The encoded full checkpoint the client serves with, for bit-exact
    /// comparison against the pool's final checkpoint of the stream.
    pub fn checkpoint_bytes(&mut self) -> Bytes {
        WeightSnapshot::capture(&mut self.student, SnapshotScope::Full).encode()
    }
}
