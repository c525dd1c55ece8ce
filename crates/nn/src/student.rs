//! The ShadowTutor student network (Fig. 3b) with partial backward.
//!
//! Architecture (spatial sizes relative to the input `H × W`, which must be
//! divisible by 4):
//!
//! ```text
//! input (3, H, W)
//!   in1  Conv3×3 -> c_stem               (H,   W)
//!   in2  Conv3×3 stride 2 -> c_enc1      (H/2, W/2)
//!   SB1  block c_enc1 -> c_enc1          (H/2, W/2)   --+ skip to SB6
//!   SB2  block c_enc1 -> c_enc2 stride 2 (H/4, W/4)   --+ skip to SB5
//!   SB3  block c_enc2 -> c_enc2          (H/4, W/4)
//!   SB4  block c_enc2 -> c_enc2          (H/4, W/4)
//!   SB5  block (c_enc2 + c_enc2) -> c_dec1  after concat with SB2 output
//!   upsample ×2                          (H/2, W/2)
//!   SB6  block (c_dec1 + c_enc1) -> c_dec2  after concat with SB1 output
//!   out1 Conv3×3 -> c_head, ReLU
//!   out2 Conv3×3 -> c_head, ReLU
//!   out3 Conv1×1 -> num_classes
//!   upsample ×2                          (H,   W)  -> per-pixel class logits
//! ```
//!
//! *Partial distillation* (§4.2 of the paper) freezes the front of the
//! network — everything up to and including SB4 in the paper's configuration
//! — and trains only the decoder/head. Here the freeze boundary is the
//! [`FreezePoint`], expressed in terms of [`Stage`]s; the backward pass stops
//! descending as soon as every remaining stage is frozen, which is exactly
//! the latency/memory saving the paper describes.
//!
//! The forward pass is split at the same boundary. [`StudentNet::encode_frozen`]
//! runs the frozen prefix once and returns its output as [`FrozenFeatures`]
//! (the SB4 activation plus the SB1 and SB2 skips under the paper's freeze
//! point); [`StudentNet::forward_train_from`] and [`StudentNet::predict_from`]
//! run only the stages after it. Distillation encodes the frozen prefix once
//! per key frame and resumes from it at every optimization step. Whole and
//! resumed passes walk the same stage list with the same layer calls, so they
//! are bit-for-bit identical.

use crate::block::StudentBlock;
use crate::layers::{Conv2d, Relu};
use crate::param::{Param, ParamVisitor};
use crate::Result;
use st_tensor::conv::Conv2dSpec;
use st_tensor::{pool, Shape, Tensor, TensorError};

/// The network stages, in forward order. Used to express freeze points and
/// to tag parameters for partial snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Stem convolution 1 (full resolution).
    In1,
    /// Stem convolution 2 (downsamples to half resolution).
    In2,
    /// Student block 1.
    Sb1,
    /// Student block 2 (downsamples to quarter resolution).
    Sb2,
    /// Student block 3.
    Sb3,
    /// Student block 4.
    Sb4,
    /// Student block 5 (first decoder block, receives the SB2 skip).
    Sb5,
    /// Student block 6 (second decoder block, receives the SB1 skip).
    Sb6,
    /// Head convolution 1.
    Out1,
    /// Head convolution 2.
    Out2,
    /// Head convolution 3 (classifier).
    Out3,
}

impl Stage {
    /// All stages in forward order.
    pub const ALL: [Stage; 11] = [
        Stage::In1,
        Stage::In2,
        Stage::Sb1,
        Stage::Sb2,
        Stage::Sb3,
        Stage::Sb4,
        Stage::Sb5,
        Stage::Sb6,
        Stage::Out1,
        Stage::Out2,
        Stage::Out3,
    ];

    /// Position of the stage in forward order (its index in
    /// [`Stage::ALL`], which lists the variants in declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Which part of the student is trained during distillation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezePoint {
    /// Train every parameter (the paper's *full distillation* baseline).
    None,
    /// Freeze all stages strictly before `first_trainable`; train the rest.
    /// The paper's *partial distillation* uses `TrainFrom(Stage::Sb5)`:
    /// "we freeze the student from the first layer to SB4, only computing
    /// gradients until SB5".
    TrainFrom(Stage),
}

impl FreezePoint {
    /// The paper's default partial-distillation freeze point.
    pub fn paper_partial() -> Self {
        FreezePoint::TrainFrom(Stage::Sb5)
    }

    /// Length of the frozen prefix: the [`Stage::ALL`] index of the first
    /// trainable stage.
    pub fn boundary(&self) -> usize {
        match self {
            FreezePoint::None => 0,
            FreezePoint::TrainFrom(first) => first.index(),
        }
    }

    /// Whether a stage is trainable under this freeze point.
    pub fn trainable(&self, stage: Stage) -> bool {
        stage.index() >= self.boundary()
    }
}

/// Width configuration of the student network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudentConfig {
    /// Input channels (3 for RGB video frames).
    pub in_channels: usize,
    /// Number of segmentation classes (8 LVS object classes + background).
    pub num_classes: usize,
    /// Stem width (`in1` output channels).
    pub c_stem: usize,
    /// Encoder width at half resolution.
    pub c_enc1: usize,
    /// Encoder width at quarter resolution.
    pub c_enc2: usize,
    /// Decoder width after SB5.
    pub c_dec1: usize,
    /// Decoder width after SB6.
    pub c_dec2: usize,
    /// Head width.
    pub c_head: usize,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl StudentConfig {
    /// Paper-scale widths (≈ 0.5 M parameters, cf. the paper's 0.48 M).
    pub fn paper() -> Self {
        StudentConfig {
            in_channels: 3,
            num_classes: 9,
            c_stem: 8,
            c_enc1: 48,
            c_enc2: 80,
            c_dec1: 56,
            c_dec2: 32,
            c_head: 32,
            seed: 20,
        }
    }

    /// Tiny widths used for the CPU-scale accuracy experiments and tests.
    pub fn tiny() -> Self {
        StudentConfig {
            in_channels: 3,
            num_classes: 9,
            c_stem: 4,
            c_enc1: 8,
            c_enc2: 16,
            c_dec1: 12,
            c_dec2: 8,
            c_head: 8,
            seed: 20,
        }
    }

    /// Small widths: a middle ground for longer-running experiments.
    pub fn small() -> Self {
        StudentConfig {
            in_channels: 3,
            num_classes: 9,
            c_stem: 6,
            c_enc1: 16,
            c_enc2: 32,
            c_dec1: 24,
            c_dec2: 16,
            c_head: 16,
            seed: 20,
        }
    }
}

/// What a training-mode forward pass leaves behind for the backward pass
/// beyond the layers' own caches: the head's spatial size.
#[derive(Debug, Clone)]
struct ForwardCache {
    head_h: usize,
    head_w: usize,
}

/// The activations at one point of the forward pass: everything the stages
/// from there on read.
///
/// [`StudentNet::encode_frozen`] produces them at the freeze boundary, where
/// they are the frozen prefix's output. Frozen stages are never written by
/// the optimizer and run with fixed statistics, so the features stay valid
/// across every optimization step of one key frame:
/// [`StudentNet::forward_train_from`] and [`StudentNet::predict_from`] resume
/// from them without re-running the prefix.
#[derive(Debug, Clone)]
pub struct FrozenFeatures {
    /// [`Stage::ALL`] index of the first stage not yet run.
    resume_at: usize,
    /// Main-path activation entering that stage.
    main: Tensor,
    /// SB1 output while a later stage still reads it (the SB6 skip).
    sb1: Option<Tensor>,
    /// SB2 output while a later stage still reads it (the SB5 skip).
    sb2: Option<Tensor>,
    /// Spatial size of the network input.
    height: usize,
    width: usize,
}

impl FrozenFeatures {
    /// The walk's starting point: the network input itself (shared
    /// copy-on-write, not copied).
    fn start(input: &Tensor, height: usize, width: usize) -> Self {
        FrozenFeatures {
            resume_at: 0,
            main: input.clone(),
            sb1: None,
            sb2: None,
            height,
            width,
        }
    }

    /// The first stage a resumed forward pass runs.
    fn resume_stage(&self) -> Stage {
        Stage::ALL[self.resume_at]
    }

    /// Run the stages from `resume_at` up to (excluding) `end` through
    /// `run`, wiring the skip connections and upsamplings between them.
    /// Running every stage leaves the full-resolution logits in `main`.
    fn walk(
        mut self,
        end: usize,
        mut run: impl FnMut(Stage, &Tensor) -> Result<Tensor>,
    ) -> Result<Self> {
        for &stage in &Stage::ALL[self.resume_at..end] {
            let x = match stage {
                // SB5 reads concat(SB4 output, SB2 output).
                Stage::Sb5 => {
                    let sb2 = self.sb2.as_ref().expect("SB2 ran before SB5");
                    Tensor::concat_channels(&[&self.main, sb2])?
                }
                // SB6 reads concat(upsampled SB5 output, SB1 output).
                Stage::Sb6 => {
                    let sb1 = self.sb1.as_ref().expect("SB1 ran before SB6");
                    let up = pool::upsample_nearest(&self.main, 2)?;
                    Tensor::concat_channels(&[&up, sb1])?
                }
                _ => self.main.clone(),
            };
            let y = run(stage, &x)?;
            match stage {
                Stage::Sb1 => self.sb1 = Some(y.clone()),
                Stage::Sb2 => self.sb2 = Some(y.clone()),
                Stage::Sb5 => self.sb2 = None,
                Stage::Sb6 => self.sb1 = None,
                _ => {}
            }
            self.main = if stage == Stage::Out3 {
                pool::upsample_nearest(&y, 2)?
            } else {
                y
            };
        }
        self.resume_at = end;
        Ok(self)
    }
}

/// The ShadowTutor student network.
#[derive(Debug, Clone)]
pub struct StudentNet {
    /// Width configuration.
    pub config: StudentConfig,
    /// Current freeze configuration used by [`StudentNet::backward`] and the
    /// parameter visitors.
    pub freeze: FreezePoint,
    in1: Conv2d,
    relu_in1: Relu,
    in2: Conv2d,
    relu_in2: Relu,
    sb1: StudentBlock,
    sb2: StudentBlock,
    sb3: StudentBlock,
    sb4: StudentBlock,
    sb5: StudentBlock,
    sb6: StudentBlock,
    out1: Conv2d,
    relu_out1: Relu,
    out2: Conv2d,
    relu_out2: Relu,
    out3: Conv2d,
    cache: Option<ForwardCache>,
}

impl StudentNet {
    /// Build a student network from a width configuration.
    pub fn new(config: StudentConfig) -> Result<Self> {
        let s = config.seed;
        let in1 = Conv2d::new(
            "in1",
            Conv2dSpec::square(config.in_channels, config.c_stem, 3, 1),
            s + 1,
        )?;
        let in2 = Conv2d::new(
            "in2",
            Conv2dSpec::square(config.c_stem, config.c_enc1, 3, 2),
            s + 2,
        )?;
        let sb1 = StudentBlock::new("sb1", config.c_enc1, config.c_enc1, 1, s + 3)?;
        let sb2 = StudentBlock::new("sb2", config.c_enc1, config.c_enc2, 2, s + 4)?;
        let sb3 = StudentBlock::new("sb3", config.c_enc2, config.c_enc2, 1, s + 5)?;
        let sb4 = StudentBlock::new("sb4", config.c_enc2, config.c_enc2, 1, s + 6)?;
        let sb5 = StudentBlock::new(
            "sb5",
            config.c_enc2 + config.c_enc2,
            config.c_dec1,
            1,
            s + 7,
        )?;
        let sb6 = StudentBlock::new(
            "sb6",
            config.c_dec1 + config.c_enc1,
            config.c_dec2,
            1,
            s + 8,
        )?;
        let out1 = Conv2d::new(
            "out1",
            Conv2dSpec::square(config.c_dec2, config.c_head, 3, 1),
            s + 9,
        )?;
        let out2 = Conv2d::new(
            "out2",
            Conv2dSpec::square(config.c_head, config.c_head, 3, 1),
            s + 10,
        )?;
        let mut out3 = Conv2d::new(
            "out3",
            Conv2dSpec::square(config.c_head, config.num_classes, 1, 1),
            s + 11,
        )?;
        // Zero-init the classifier head (standard for segmentation heads):
        // training then starts from uniform class probabilities instead of
        // large random logits. With Kaiming init here, the first ~30-50
        // distillation steps are spent just unlearning the random logits,
        // which is longer than one whole key-frame budget (MAX_UPDATES = 8)
        // and stalls shadow education on every stream.
        out3.weight.value = Tensor::zeros(out3.weight.value.shape().clone());
        Ok(StudentNet {
            config,
            freeze: FreezePoint::paper_partial(),
            in1,
            relu_in1: Relu::new(),
            in2,
            relu_in2: Relu::new(),
            sb1,
            sb2,
            sb3,
            sb4,
            sb5,
            sb6,
            out1,
            relu_out1: Relu::new(),
            out2,
            relu_out2: Relu::new(),
            out3,
            cache: None,
        })
    }

    /// Validate a forward input. Training is per-frame (`allow_batch` false:
    /// batch-norm batch statistics are per-image instance statistics here);
    /// inference accepts any non-empty batch.
    fn check_input(&self, input: &Tensor, allow_batch: bool) -> Result<(usize, usize)> {
        let (n, c, h, w) = input.shape().as_nchw()?;
        let batch_ok = if allow_batch { n >= 1 } else { n == 1 };
        if !batch_ok || c != self.config.in_channels {
            return Err(TensorError::ShapeMismatch {
                op: "student_forward",
                lhs: input.shape().dims().to_vec(),
                rhs: vec![1, self.config.in_channels, 0, 0],
            });
        }
        if h % 4 != 0 || w % 4 != 0 {
            return Err(TensorError::InvalidArgument(format!(
                "student input must be divisible by 4, got {h}x{w}"
            )));
        }
        Ok((h, w))
    }

    /// One stage's layers in training mode when `train`, otherwise in
    /// cache-free inference mode (stale training caches dropped).
    fn stage_mode(&mut self, stage: Stage, x: &Tensor, train: bool) -> Result<Tensor> {
        fn conv_relu(
            conv: &mut Conv2d,
            relu: &mut Relu,
            x: &Tensor,
            train: bool,
        ) -> Result<Tensor> {
            let y = conv.forward_mode(x, train)?;
            Ok(relu.forward_mode(&y, train))
        }
        match stage {
            Stage::In1 => conv_relu(&mut self.in1, &mut self.relu_in1, x, train),
            Stage::In2 => conv_relu(&mut self.in2, &mut self.relu_in2, x, train),
            Stage::Sb1 => self.sb1.forward_mode(x, train),
            Stage::Sb2 => self.sb2.forward_mode(x, train),
            Stage::Sb3 => self.sb3.forward_mode(x, train),
            Stage::Sb4 => self.sb4.forward_mode(x, train),
            Stage::Sb5 => self.sb5.forward_mode(x, train),
            Stage::Sb6 => self.sb6.forward_mode(x, train),
            Stage::Out1 => conv_relu(&mut self.out1, &mut self.relu_out1, x, train),
            Stage::Out2 => conv_relu(&mut self.out2, &mut self.relu_out2, x, train),
            Stage::Out3 => self.out3.forward_mode(x, train),
        }
    }

    /// One stage's layers in inference mode.
    fn stage_inference(&self, stage: Stage, x: &Tensor) -> Result<Tensor> {
        fn conv_relu(conv: &Conv2d, relu: &Relu, x: &Tensor) -> Result<Tensor> {
            Ok(relu.forward_inference(&conv.forward_inference(x)?))
        }
        match stage {
            Stage::In1 => conv_relu(&self.in1, &self.relu_in1, x),
            Stage::In2 => conv_relu(&self.in2, &self.relu_in2, x),
            Stage::Sb1 => self.sb1.forward_inference(x),
            Stage::Sb2 => self.sb2.forward_inference(x),
            Stage::Sb3 => self.sb3.forward_inference(x),
            Stage::Sb4 => self.sb4.forward_inference(x),
            Stage::Sb5 => self.sb5.forward_inference(x),
            Stage::Sb6 => self.sb6.forward_inference(x),
            Stage::Out1 => conv_relu(&self.out1, &self.relu_out1, x),
            Stage::Out2 => conv_relu(&self.out2, &self.relu_out2, x),
            Stage::Out3 => self.out3.forward_inference(x),
        }
    }

    /// Run the stages frozen under the current freeze point, in inference
    /// mode, and return their output: the features
    /// [`StudentNet::forward_train_from`] and [`StudentNet::predict_from`]
    /// resume from. Under [`FreezePoint::None`] nothing is frozen and the
    /// features are the input itself.
    ///
    /// Frozen stages drop any training caches they hold (left, say, by a
    /// pretraining run without a freeze point). The features stay valid
    /// until a frozen stage's weights or statistics change, which no
    /// optimizer step does.
    pub fn encode_frozen(&mut self, input: &Tensor) -> Result<FrozenFeatures> {
        let (h, w) = self.check_input(input, true)?;
        FrozenFeatures::start(input, h, w).walk(self.freeze.boundary(), |stage, x| {
            self.stage_mode(stage, x, false)
        })
    }

    /// Training-mode forward pass producing per-pixel class logits of the
    /// same spatial size as the input.
    ///
    /// Stages frozen under the current freeze point run in *inference* mode:
    /// freezing is prefix-contiguous, so no gradient ever reaches them, and
    /// running their batch-norms with batch statistics would (a) keep
    /// perturbing the running statistics every training forward and (b) make
    /// the trained (batch-stat) features diverge from the served (eval-mode)
    /// features the client actually uses. Frozen means frozen: fixed
    /// statistics, identical activations in training and inference mode.
    ///
    /// Equal to [`StudentNet::encode_frozen`] followed by
    /// [`StudentNet::forward_train_from`], which is what it runs.
    pub fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input, false)?;
        let features = self.encode_frozen(input)?;
        self.forward_train_from(&features)
    }

    /// Training-mode forward pass of the stages from `features` on, with
    /// the same logits and backward caches as [`StudentNet::forward_train`]
    /// on the input the features were encoded from.
    ///
    /// The features must come from a point at or before the freeze
    /// boundary (every trainable stage must run here, to leave its caches
    /// for the backward pass) and hold a single frame.
    pub fn forward_train_from(&mut self, features: &FrozenFeatures) -> Result<Tensor> {
        if features.resume_at > self.freeze.boundary() {
            return Err(TensorError::InvalidArgument(format!(
                "features resume at {:?}, past the freeze boundary {:?}",
                features.resume_stage(),
                self.freeze
            )));
        }
        if features.main.shape().dim(0) != 1 {
            return Err(TensorError::InvalidArgument(
                "student training is per-frame, got a batch of features".into(),
            ));
        }
        let freeze = self.freeze;
        let logits = features.clone().walk(Stage::ALL.len(), |stage, x| {
            self.stage_mode(stage, x, freeze.trainable(stage))
        })?;
        self.cache = Some(ForwardCache {
            head_h: features.height / 2,
            head_w: features.width / 2,
        });
        Ok(logits.main)
    }

    /// Inference-mode forward pass (running batch-norm statistics, no
    /// caches).
    ///
    /// Accepts a batch: an `(N, C, H, W)` input runs all `N` frames through
    /// one batched im2col + GEMM per convolution, producing `(N, classes,
    /// H, W)` logits bit-for-bit identical to `N` single-frame calls — this
    /// is the forward the batched teacher pool amortizes across co-scheduled
    /// key frames.
    pub fn forward_inference(&self, input: &Tensor) -> Result<Tensor> {
        let (h, w) = self.check_input(input, true)?;
        self.forward_inference_from(&FrozenFeatures::start(input, h, w))
    }

    /// Inference-mode forward pass of the stages from `features` on.
    fn forward_inference_from(&self, features: &FrozenFeatures) -> Result<Tensor> {
        let logits = features
            .clone()
            .walk(Stage::ALL.len(), |stage, x| self.stage_inference(stage, x))?;
        Ok(logits.main)
    }

    /// Backward pass from the loss gradient w.r.t. the full-resolution
    /// logits. Only stages at or after the freeze point accumulate parameter
    /// gradients; the pass stops descending once every remaining stage is
    /// frozen (this is the paper's *partial backward*).
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<()> {
        let cache = self.cache.clone().ok_or_else(|| {
            TensorError::InvalidArgument("StudentNet::backward called before forward_train".into())
        })?;
        let freeze = self.freeze;
        let trainable = |s: Stage| freeze.trainable(s);
        // Earliest stage we must reach with gradient propagation.
        let stop_at = freeze.boundary();
        // Whether gradient needs to flow below a given stage index.
        let need_below = |idx: usize| idx > stop_at;

        // Head (full-res logits were produced by upsampling the half-res head output).
        let g = pool::upsample_nearest_backward(grad_logits, 2)?;
        debug_assert_eq!(g.shape().dim(2), cache.head_h);
        debug_assert_eq!(g.shape().dim(3), cache.head_w);

        let g =
            self.out3
                .backward_if(&g, trainable(Stage::Out3), need_below(Stage::Out3.index()))?;
        let g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        let g = self.relu_out2.backward(&g)?;
        let g =
            self.out2
                .backward_if(&g, trainable(Stage::Out2), need_below(Stage::Out2.index()))?;
        let g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        let g = self.relu_out1.backward(&g)?;
        let g =
            self.out1
                .backward_if(&g, trainable(Stage::Out1), need_below(Stage::Out1.index()))?;
        let g = match g {
            Some(g) => g,
            None => return Ok(()),
        };

        // SB6: input was concat(upsampled SB5 output, SB1 output).
        let g = if trainable(Stage::Sb6) || need_below(Stage::Sb6.index()) {
            self.sb6.backward(&g, need_below(Stage::Sb6.index()))?
        } else {
            None
        };
        let g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        let c_sb1 = self.config.c_enc1;
        let c_sb5_up = g.shape().dim(1) - c_sb1;
        let g_sb5_up = g.slice_channels(0, c_sb5_up)?;
        let g_sb1_skip = g.slice_channels(c_sb5_up, c_sb1)?;
        let g_sb5 = pool::upsample_nearest_backward(&g_sb5_up, 2)?;

        // SB5: input was concat(SB4 output, SB2 output).
        let g = if trainable(Stage::Sb5) || need_below(Stage::Sb5.index()) {
            self.sb5.backward(&g_sb5, need_below(Stage::Sb5.index()))?
        } else {
            None
        };
        let g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        let c_sb2 = self.config.c_enc2;
        let c_sb4 = g.shape().dim(1) - c_sb2;
        let g_sb4 = g.slice_channels(0, c_sb4)?;
        let g_sb2_skip = g.slice_channels(c_sb4, c_sb2)?;

        // SB4, SB3: guarded like every other stage — under e.g.
        // TrainFrom(Sb4) the pass must stop here (sb3 is frozen, ran in
        // inference mode, and has no caches to backprop through).
        let g = if trainable(Stage::Sb4) || need_below(Stage::Sb4.index()) {
            self.sb4.backward(&g_sb4, need_below(Stage::Sb4.index()))?
        } else {
            None
        };
        let g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        let g = if trainable(Stage::Sb3) || need_below(Stage::Sb3.index()) {
            self.sb3.backward(&g, need_below(Stage::Sb3.index()))?
        } else {
            None
        };
        let mut g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        // Merge the SB2 skip gradient with the main-path gradient into SB2.
        g.add_assign(&g_sb2_skip)?;

        let g = if trainable(Stage::Sb2) || need_below(Stage::Sb2.index()) {
            self.sb2.backward(&g, need_below(Stage::Sb2.index()))?
        } else {
            None
        };
        let mut g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        g.add_assign(&g_sb1_skip)?;

        let g = if trainable(Stage::Sb1) || need_below(Stage::Sb1.index()) {
            self.sb1.backward(&g, need_below(Stage::Sb1.index()))?
        } else {
            None
        };
        let g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        let g = self.relu_in2.backward(&g)?;
        let g = self
            .in2
            .backward_if(&g, trainable(Stage::In2), need_below(Stage::In2.index()))?;
        let g = match g {
            Some(g) => g,
            None => return Ok(()),
        };
        let g = self.relu_in1.backward(&g)?;
        self.in1.backward_if(&g, trainable(Stage::In1), false)?;
        Ok(())
    }

    /// Visit every parameter with its stage's trainability under the current
    /// freeze point, in a stable order (forward stage order).
    pub fn visit_params(&mut self, visitor: &mut dyn ParamVisitor) {
        let f = self.freeze;
        self.in1.visit_params(visitor, f.trainable(Stage::In1));
        self.in2.visit_params(visitor, f.trainable(Stage::In2));
        self.sb1.visit_params(visitor, f.trainable(Stage::Sb1));
        self.sb2.visit_params(visitor, f.trainable(Stage::Sb2));
        self.sb3.visit_params(visitor, f.trainable(Stage::Sb3));
        self.sb4.visit_params(visitor, f.trainable(Stage::Sb4));
        self.sb5.visit_params(visitor, f.trainable(Stage::Sb5));
        self.sb6.visit_params(visitor, f.trainable(Stage::Sb6));
        self.out1.visit_params(visitor, f.trainable(Stage::Out1));
        self.out2.visit_params(visitor, f.trainable(Stage::Out2));
        self.out3.visit_params(visitor, f.trainable(Stage::Out3));
    }

    /// Visit every non-parameter buffer (batch-norm running statistics) with
    /// its stage's trainability, in forward stage order.
    pub fn visit_buffers(&mut self, visitor: &mut dyn FnMut(&str, &mut Tensor, bool)) {
        let f = self.freeze;
        self.sb1.visit_buffers(visitor, f.trainable(Stage::Sb1));
        self.sb2.visit_buffers(visitor, f.trainable(Stage::Sb2));
        self.sb3.visit_buffers(visitor, f.trainable(Stage::Sb3));
        self.sb4.visit_buffers(visitor, f.trainable(Stage::Sb4));
        self.sb5.visit_buffers(visitor, f.trainable(Stage::Sb5));
        self.sb6.visit_buffers(visitor, f.trainable(Stage::Sb6));
    }

    /// Clone this network with every parameter, gradient, and buffer
    /// storage eagerly materialized as a private copy.
    ///
    /// A plain `clone()` shares tensor storage copy-on-write (the memory
    /// win behind multi-stream pools); `deep_clone` reproduces the
    /// pre-CoW behaviour of paying full bytes per session up front — the
    /// A/B baseline the differential tests and `table13_weight_dedup`
    /// compare against.
    pub fn deep_clone(&mut self) -> StudentNet {
        let mut copy = self.clone();
        let mut v = |p: &mut Param, _t: bool| {
            let _ = p.value.data_mut();
            let _ = p.grad.data_mut();
        };
        copy.visit_params(&mut v);
        let mut b = |_name: &str, t: &mut Tensor, _tr: bool| {
            let _ = t.data_mut();
        };
        copy.visit_buffers(&mut b);
        copy
    }

    /// Total parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0usize;
        let mut v = |p: &mut Param, _t: bool| n += p.numel();
        self.visit_params(&mut v);
        n
    }

    /// Trainable parameter count under the current freeze point.
    pub fn trainable_param_count(&mut self) -> usize {
        let mut n = 0usize;
        let mut v = |p: &mut Param, t: bool| {
            if t {
                n += p.numel()
            }
        };
        self.visit_params(&mut v);
        n
    }

    /// Reset all accumulated gradients to zero.
    pub fn zero_grads(&mut self) {
        let mut v = |p: &mut Param, _t: bool| p.zero_grad();
        self.visit_params(&mut v);
    }

    /// Per-pixel predicted class map from full-resolution logits for
    /// `input` (frame-major `N*H*W` indices when the input is batched).
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward_inference(input)?;
        logits.argmax_channels()
    }

    /// [`StudentNet::predict`] resumed from the input's frozen features:
    /// the same labels, without re-running the frozen prefix.
    pub fn predict_from(&self, features: &FrozenFeatures) -> Result<Vec<usize>> {
        let logits = self.forward_inference_from(features)?;
        logits.argmax_channels()
    }

    /// Logits shape for an `(h, w)` input.
    pub fn output_shape(&self, h: usize, w: usize) -> Shape {
        Shape::nchw(1, self.config.num_classes, h, w)
    }
}

impl Conv2d {
    /// Backward helper: accumulate parameter gradients only when `train` is
    /// true, and compute the input gradient only when `need_input` is true.
    ///
    /// Even when `train` is false, the input gradient may still be needed to
    /// keep propagating towards *earlier* trainable stages — in the student
    /// network that situation never arises for the frozen front (freezing is
    /// prefix-contiguous), so a fully frozen call with `need_input == false`
    /// is a no-op.
    fn backward_if(
        &mut self,
        grad_out: &Tensor,
        train: bool,
        need_input: bool,
    ) -> Result<Option<Tensor>> {
        if !train && !need_input {
            return Ok(None);
        }
        if train {
            self.backward(grad_out, need_input)
        } else {
            // Need the input gradient but must not touch parameter grads:
            // run backward on a scratch copy of the parameter grads.
            let saved_w = self.weight.grad.clone();
            let saved_b = self.bias.grad.clone();
            let gin = self.backward(grad_out, need_input)?;
            self.weight.grad = saved_w;
            self.bias.grad = saved_b;
            Ok(gin)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::random;

    fn input(h: usize, w: usize, seed: u64) -> Tensor {
        random::uniform(Shape::nchw(1, 3, h, w), 0.0, 1.0, seed)
    }

    #[test]
    fn forward_output_shape_matches_input_resolution() {
        let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
        let x = input(16, 24, 1);
        let y = net.forward_train(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 9, 16, 24]);
        let yi = net.forward_inference(&x).unwrap();
        assert_eq!(yi.shape().dims(), &[1, 9, 16, 24]);
    }

    #[test]
    fn rejects_bad_input() {
        let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
        assert!(net.forward_train(&input(15, 24, 1)).is_err());
        let wrong_channels = random::uniform(Shape::nchw(1, 4, 16, 16), 0.0, 1.0, 2);
        assert!(net.forward_train(&wrong_channels).is_err());
        // Training is per-frame; inference accepts batches.
        let batch = random::uniform(Shape::nchw(2, 3, 16, 16), 0.0, 1.0, 3);
        assert!(net.forward_train(&batch).is_err());
        assert!(net.forward_inference(&batch).is_ok());
    }

    #[test]
    fn batched_inference_is_bit_for_bit_per_frame() {
        // One batched forward must equal N single-frame forwards exactly —
        // the batched teacher pool depends on this equivalence.
        let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
        // Move the running batch-norm stats and the zero-initialised head
        // off their init values so the comparison is not vacuous.
        let warm = input(16, 24, 7);
        net.forward_train(&warm).unwrap();
        let mut v = |p: &mut Param, _t: bool| {
            if p.name == "out3.weight" {
                for x in p.value.data_mut() {
                    *x = 0.03;
                }
            }
        };
        net.visit_params(&mut v);
        let frames: Vec<Tensor> = (0..3).map(|i| input(16, 24, 40 + i)).collect();
        let refs: Vec<&Tensor> = frames.iter().collect();
        let batch = Tensor::stack_batch(&refs).unwrap();
        let batched = net.forward_inference(&batch).unwrap();
        assert_eq!(batched.shape().dims(), &[3, 9, 16, 24]);
        let out_len = 9 * 16 * 24;
        for (i, frame) in frames.iter().enumerate() {
            let solo = net.forward_inference(frame).unwrap();
            assert_eq!(
                solo.data(),
                &batched.data()[i * out_len..(i + 1) * out_len],
                "frame {i} differs from its batched slice"
            );
        }
        // predict on a batch is the frame-major concatenation.
        let labels = net.predict(&batch).unwrap();
        assert_eq!(labels.len(), 3 * 16 * 24);
        assert_eq!(
            &labels[..16 * 24],
            net.predict(&frames[0]).unwrap().as_slice()
        );
    }

    #[test]
    fn partial_backward_touches_only_decoder_params() {
        let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
        net.freeze = FreezePoint::paper_partial();
        let x = input(16, 16, 3);
        let y = net.forward_train(&x).unwrap();
        net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let mut frozen_grad = 0.0f32;
        let mut trainable_grad = 0.0f32;
        let mut v = |p: &mut Param, t: bool| {
            if t {
                trainable_grad += p.grad.sq_norm();
            } else {
                frozen_grad += p.grad.sq_norm();
            }
        };
        net.visit_params(&mut v);
        assert_eq!(
            frozen_grad, 0.0,
            "frozen parameters must not receive gradient"
        );
        assert!(
            trainable_grad > 0.0,
            "decoder parameters must receive gradient"
        );
    }

    #[test]
    fn partial_backward_works_at_every_freeze_point() {
        // Regression: frozen stages run cache-free in forward_train, so the
        // backward pass must stop at the freeze boundary for *every* choice
        // of TrainFrom stage (TrainFrom(Sb4) used to descend into cache-less
        // sb3 and error). At each freeze point the forward resumed from the
        // frozen features must also equal the whole forward bit for bit:
        // logits, parameter gradients and predicted labels.
        fn grads(net: &mut StudentNet) -> Vec<(String, Vec<f32>)> {
            let mut out = vec![];
            let mut v =
                |p: &mut Param, _t: bool| out.push((p.name.clone(), p.grad.data().to_vec()));
            net.visit_params(&mut v);
            out
        }
        let freeze_points =
            std::iter::once(FreezePoint::None).chain(Stage::ALL.map(FreezePoint::TrainFrom));
        for freeze in freeze_points {
            let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
            net.freeze = freeze;
            // Nudge the zero-initialised head off zero so gradient actually
            // flows below out3 — otherwise the frozen/trainable assertions
            // are vacuous (everything below the head would get zero grad).
            // Unequal weights per class keep the predicted labels from all
            // tying at class 0.
            let mut nudge = |p: &mut Param, _t: bool| {
                if p.name == "out3.weight" {
                    for (i, v) in p.value.data_mut().iter_mut().enumerate() {
                        *v = 0.05 * ((i % 5) as f32 - 2.0);
                    }
                }
            };
            net.visit_params(&mut nudge);
            let mut resumed = net.clone();
            let x = input(16, 16, 9);
            let y = net.forward_train(&x).unwrap();
            net.backward(&Tensor::ones(y.shape().clone()))
                .unwrap_or_else(|e| panic!("backward failed at {freeze:?}: {e}"));
            let mut frozen_grad = 0.0f32;
            let mut trainable_grad = 0.0f32;
            let mut v = |p: &mut Param, t: bool| {
                if t {
                    trainable_grad += p.grad.sq_norm();
                } else {
                    frozen_grad += p.grad.sq_norm();
                }
            };
            net.visit_params(&mut v);
            assert_eq!(frozen_grad, 0.0, "frozen grad leaked at {freeze:?}");
            assert!(trainable_grad > 0.0, "no trainable grad at {freeze:?}");

            let features = resumed.encode_frozen(&x).unwrap();
            assert_eq!(features.resume_at, freeze.boundary());
            let y_resumed = resumed.forward_train_from(&features).unwrap();
            assert_eq!(y.data(), y_resumed.data(), "logits differ at {freeze:?}");
            resumed.backward(&Tensor::ones(y.shape().clone())).unwrap();
            assert!(
                grads(&mut net) == grads(&mut resumed),
                "grads differ at {freeze:?}"
            );
            let labels = net.predict(&x).unwrap();
            assert!(
                labels.iter().any(|&c| c != labels[0]),
                "one label at {freeze:?}"
            );
            assert_eq!(
                labels,
                resumed.predict_from(&features).unwrap(),
                "labels differ at {freeze:?}"
            );
        }
    }

    #[test]
    fn full_backward_touches_everything() {
        let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
        net.freeze = FreezePoint::None;
        let x = input(16, 16, 4);
        // The classifier head is zero-initialised, so the very first backward
        // sends no gradient below out3. Nudge the head off zero first, then
        // check that gradient reaches every parameter.
        let y = net.forward_train(&x).unwrap();
        net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let mut v = |p: &mut Param, _t: bool| {
            if p.name == "out3.weight" {
                p.value.add_assign(&p.grad).unwrap();
            }
            p.zero_grad();
        };
        net.visit_params(&mut v);
        let y = net.forward_train(&x).unwrap();
        net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let mut zero_grad_params = vec![];
        let mut v = |p: &mut Param, _t: bool| {
            if p.grad.norm() == 0.0 {
                zero_grad_params.push(p.name.clone());
            }
        };
        net.visit_params(&mut v);
        // Every parameter should receive some gradient for a generic input
        // (dead-ReLU flukes aside, which the seed avoids).
        assert!(
            zero_grad_params.is_empty(),
            "parameters with zero grad: {zero_grad_params:?}"
        );
    }

    #[test]
    fn trainable_fraction_is_a_minority_under_paper_freeze() {
        let mut net = StudentNet::new(StudentConfig::paper()).unwrap();
        net.freeze = FreezePoint::paper_partial();
        let total = net.param_count();
        let trainable = net.trainable_param_count();
        let frac = trainable as f64 / total as f64;
        // Paper reports 21.4%; the reproduction's widths give the same order.
        assert!(frac > 0.05 && frac < 0.5, "trainable fraction {frac}");
        assert!(
            total > 300_000,
            "paper-scale student should be ~0.5M params, got {total}"
        );
    }

    #[test]
    fn zero_grads_clears_everything() {
        let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
        net.freeze = FreezePoint::None;
        let x = input(16, 16, 5);
        let y = net.forward_train(&x).unwrap();
        net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        net.zero_grads();
        let mut total = 0.0f32;
        let mut v = |p: &mut Param, _| total += p.grad.sq_norm();
        net.visit_params(&mut v);
        assert_eq!(total, 0.0);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
        let g = Tensor::zeros(Shape::nchw(1, 9, 16, 16));
        assert!(net.backward(&g).is_err());
    }

    #[test]
    fn predict_returns_label_per_pixel() {
        let net = StudentNet::new(StudentConfig::tiny()).unwrap();
        let x = input(16, 16, 6);
        let labels = net.predict(&x).unwrap();
        assert_eq!(labels.len(), 16 * 16);
        assert!(labels.iter().all(|&c| c < 9));
    }

    #[test]
    fn stage_index_is_position_in_all() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage:?}");
        }
    }

    #[test]
    fn resuming_past_the_freeze_boundary_is_rejected() {
        let mut net = StudentNet::new(StudentConfig::tiny()).unwrap();
        let features = net.encode_frozen(&input(16, 16, 8)).unwrap();
        net.freeze = FreezePoint::None;
        assert!(net.forward_train_from(&features).is_err());
    }

    #[test]
    fn stage_ordering() {
        assert!(Stage::In1.index() < Stage::Sb5.index());
        assert!(FreezePoint::paper_partial().trainable(Stage::Sb5));
        assert!(FreezePoint::paper_partial().trainable(Stage::Out3));
        assert!(!FreezePoint::paper_partial().trainable(Stage::Sb4));
        assert!(FreezePoint::None.trainable(Stage::In1));
    }
}
