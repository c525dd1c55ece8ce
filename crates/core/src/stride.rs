//! Adaptive key-frame striding (Algorithm 2 of the paper).
//!
//! After training on a key frame, the stride to the next key frame is scaled
//! by a ratio derived from the post-training metric: a piecewise-linear map
//! that passes through `(0, 0)`, `(THRESHOLD, 1)` and `(1, 2)`. Students that
//! beat the threshold earn a longer stride (up to 2× per key frame); students
//! that miss it get a proportionally shorter one. The result is clamped to
//! `[MIN_STRIDE, MAX_STRIDE]`.
//!
//! Alternative policies from prior work (fixed stride, exponential back-off)
//! are provided for the ablation benches — the paper's §4.1.5 argues they are
//! either not adaptive or too coarse.

use crate::config::ShadowTutorConfig;

/// Compute the next key-frame stride (Algorithm 2).
///
/// `stride` is the current stride in frames, `metric` the student's
/// post-training metric in `[0, 1]`.
pub fn next_stride(config: &ShadowTutorConfig, stride: usize, metric: f64) -> usize {
    let metric = metric.clamp(0.0, 1.0);
    let threshold = config.threshold;
    let ratio = if metric < threshold {
        // Linear through (0,0) and (THRESHOLD, 1).
        metric / threshold
    } else {
        // Linear through (THRESHOLD, 1) and (1, 2).
        (metric - 2.0 * threshold + 1.0) / (1.0 - threshold)
    };
    let next = (stride as f64 * ratio).round() as i64;
    (next.max(config.min_stride as i64) as usize).min(config.max_stride)
}

/// A key-frame scheduling policy. [`StridePolicy::Adaptive`] is the paper's
/// Algorithm 2; the others are the ablation baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StridePolicy {
    /// Algorithm 2: metric-proportional scaling, clamped.
    Adaptive,
    /// Always use the same stride (Zhu et al., "deep feature flow").
    Fixed {
        /// The constant stride in frames.
        stride: usize,
    },
    /// Double the stride when the metric beats the threshold, reset to the
    /// minimum otherwise (Mullapudi et al.'s exponential back-off).
    ExponentialBackoff,
}

impl StridePolicy {
    /// Next stride under this policy.
    pub fn next(&self, config: &ShadowTutorConfig, stride: usize, metric: f64) -> usize {
        match self {
            StridePolicy::Adaptive => next_stride(config, stride, metric),
            StridePolicy::Fixed { stride } => (*stride).clamp(config.min_stride, config.max_stride),
            StridePolicy::ExponentialBackoff => {
                if metric >= config.threshold {
                    (stride * 2).clamp(config.min_stride, config.max_stride)
                } else {
                    config.min_stride
                }
            }
        }
    }

    /// Short label used in ablation output.
    pub fn label(&self) -> String {
        match self {
            StridePolicy::Adaptive => "adaptive".to_string(),
            StridePolicy::Fixed { stride } => format!("fixed-{stride}"),
            StridePolicy::ExponentialBackoff => "exp-backoff".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShadowTutorConfig {
        ShadowTutorConfig::paper()
    }

    #[test]
    fn metric_at_threshold_keeps_stride() {
        let c = cfg();
        // ratio = 1 exactly at the threshold.
        assert_eq!(next_stride(&c, 16, 0.8), 16);
        assert_eq!(next_stride(&c, 32, 0.8), 32);
    }

    #[test]
    fn perfect_metric_doubles_stride() {
        let c = cfg();
        assert_eq!(next_stride(&c, 16, 1.0), 32);
        // ...but never beyond MAX_STRIDE.
        assert_eq!(next_stride(&c, 48, 1.0), 64);
        assert_eq!(next_stride(&c, 64, 1.0), 64);
    }

    #[test]
    fn zero_metric_collapses_to_min_stride() {
        let c = cfg();
        assert_eq!(next_stride(&c, 64, 0.0), c.min_stride);
        assert_eq!(next_stride(&c, 8, 0.0), c.min_stride);
    }

    #[test]
    fn below_threshold_shrinks_proportionally() {
        let c = cfg();
        // metric = 0.4 -> ratio 0.5 -> stride 32 -> 16.
        assert_eq!(next_stride(&c, 32, 0.4), 16);
        // metric = 0.6 -> ratio 0.75 -> stride 32 -> 24.
        assert_eq!(next_stride(&c, 32, 0.6), 24);
    }

    #[test]
    fn above_threshold_grows_linearly() {
        let c = cfg();
        // metric = 0.9 -> ratio = (0.9 - 1.6 + 1)/0.2 = 1.5.
        assert_eq!(next_stride(&c, 16, 0.9), 24);
    }

    #[test]
    fn always_within_bounds_property() {
        let c = cfg();
        for stride in [1usize, 8, 13, 32, 64, 500] {
            for m in 0..=20 {
                let metric = m as f64 / 20.0;
                let next = next_stride(&c, stride, metric);
                assert!(next >= c.min_stride && next <= c.max_stride);
            }
        }
    }

    #[test]
    fn metric_out_of_range_is_clamped() {
        let c = cfg();
        assert_eq!(next_stride(&c, 16, 1.5), next_stride(&c, 16, 1.0));
        assert_eq!(next_stride(&c, 16, -0.2), c.min_stride);
    }

    #[test]
    fn fixed_policy_ignores_metric() {
        let c = cfg();
        let p = StridePolicy::Fixed { stride: 20 };
        assert_eq!(p.next(&c, 8, 0.1), 20);
        assert_eq!(p.next(&c, 64, 0.99), 20);
        // Fixed strides outside the clamp range are clamped.
        assert_eq!(StridePolicy::Fixed { stride: 1000 }.next(&c, 8, 0.5), 64);
    }

    #[test]
    fn backoff_policy_doubles_or_resets() {
        let c = cfg();
        let p = StridePolicy::ExponentialBackoff;
        assert_eq!(p.next(&c, 16, 0.9), 32);
        assert_eq!(p.next(&c, 16, 0.5), 8);
        assert_eq!(p.next(&c, 64, 0.9), 64);
    }

    #[test]
    fn labels() {
        assert_eq!(StridePolicy::Adaptive.label(), "adaptive");
        assert_eq!(StridePolicy::Fixed { stride: 8 }.label(), "fixed-8");
        assert_eq!(StridePolicy::ExponentialBackoff.label(), "exp-backoff");
    }
}
