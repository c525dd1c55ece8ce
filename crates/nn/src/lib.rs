//! # st-nn
//!
//! Neural-network substrate for the ShadowTutor reproduction: layers with
//! explicit forward/backward passes, the paper's student architecture
//! (Fig. 3), optimizers, segmentation losses, metrics, and the parameter
//! snapshot / partial-diff machinery that partial distillation relies on.
//!
//! The design is deliberately *not* a tape-based autograd: every layer owns
//! its parameters, its parameter gradients, and whatever forward-pass caches
//! its backward pass needs. The [`student::StudentNet`] wires the layers
//! together exactly as Fig. 3b of the paper does (two stem convolutions, six
//! student blocks with two skip concatenations, a three-convolution head) and
//! implements *partial backward*: gradient computation stops at a configurable
//! [`student::FreezePoint`], which is the mechanism behind the paper's partial
//! distillation (§4.2).
//!
//! Modules:
//!
//! * [`param`] — a named parameter (value + gradient) and parameter visitors.
//! * [`layers`] — convolution, batch-norm, ReLU building blocks.
//! * [`block`] — the student block of Fig. 3a (BN → 3×3 → 3×1 → 1×3 → 1×1 + residual).
//! * [`student`] — the full student network of Fig. 3b with partial backward.
//! * [`optim`] — SGD and Adam (the paper distills with Adam, lr = 0.01).
//! * [`loss`] — pixel-weighted cross-entropy (LVS ×5 object weighting, §5.2).
//! * [`metrics`] — confusion matrix, per-class IoU and mean IoU (Eq. 1).
//! * [`snapshot`] — full and partial weight snapshots, diffs, byte encoding
//!   (these byte sizes drive the network-traffic model, Table 4).
//! * [`store`] — the content-addressed, refcounted chunk store that holds
//!   the pretrained template once and every checkpoint by reference, plus
//!   copy-on-write session memory accounting.
//! * [`delta`] — checkpoint digests and the sparse delta encoding of
//!   server→client weight updates (full snapshots remain the fallback).

pub mod block;
pub mod delta;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod param;
pub mod snapshot;
pub mod store;
pub mod student;

pub use delta::{CheckpointDigest, WeightDelta, WeightPayload};
pub use param::{Param, ParamVisitor};
pub use store::{CheckpointRef, InternStats, SessionMemory, WeightStore};
pub use student::{FreezePoint, FrozenFeatures, Stage, StudentConfig, StudentNet};

/// Result alias re-using the tensor error type.
pub type Result<T> = st_tensor::Result<T>;
