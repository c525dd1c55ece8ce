//! Analytic model of weight-memory residency and update wire cost under
//! multi-stream serving.
//!
//! The paper runs one student per client. When S streams share one server
//! pool, the naive session layout deep-copies the whole pre-trained template
//! per stream, so resident weight bytes grow as `S × template`. But partial
//! distillation only ever *writes* the trainable back-end stages: the frozen
//! front-end is byte-identical across every session forever. The
//! content-keyed weight store exploits exactly that — the template is stored
//! once and each copy-on-write session privatizes only the stages its
//! optimizer touches — which turns the memory law into
//! `template + S × trainable`.
//!
//! The same sparsity shows up on the wire: an update that took zero
//! distillation steps (the metric already met the threshold) leaves every
//! trainable chunk's content hash unchanged, so its delta envelope carries
//! no chunks at all, while a full snapshot would have re-sent every
//! trainable stage regardless.
//!
//! [`DedupModel`] captures both laws in the same spirit as
//! [`crate::ContentionModel`]: deliberately coarse, meant to predict
//! orderings and rough magnitudes that the live `table13_weight_dedup`
//! experiment checks its measurements against.

/// Per-message framing overhead of a delta envelope, in bytes: the payload
/// tag, the `u64` base-checkpoint hash, the scope byte and the `u32` chunk
/// count. A delta is never free — an all-converged update still costs this.
pub const DELTA_ENVELOPE_OVERHEAD: usize = 1 + 8 + 1 + 4;

/// Per-message framing overhead of a full-snapshot envelope: the payload
/// tag in front of the bare snapshot encoding.
pub const FULL_ENVELOPE_OVERHEAD: usize = 1;

/// Memory/wire model for S copy-on-write sessions sharing one template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DedupModel {
    /// Encoded bytes of the full template checkpoint (every stage).
    pub template_bytes: usize,
    /// Encoded bytes of the trainable (written) stages only — the per-stream
    /// marginal cost under copy-on-write, and the size of one full update.
    pub trainable_bytes: usize,
}

impl DedupModel {
    /// Build the model from measured checkpoint sizes.
    pub fn new(template_bytes: usize, trainable_bytes: usize) -> Self {
        DedupModel {
            template_bytes,
            trainable_bytes: trainable_bytes.min(template_bytes),
        }
    }

    /// Resident weight bytes with deep-cloned sessions: every stream holds
    /// its own copy of every stage.
    pub fn clone_resident_bytes(&self, streams: usize) -> usize {
        streams * self.template_bytes
    }

    /// Resident weight bytes with copy-on-write sessions over a shared
    /// content-keyed store: the template is stored once and each stream
    /// privatizes only its trainable stages.
    pub fn cow_resident_bytes(&self, streams: usize) -> usize {
        if streams == 0 {
            return 0;
        }
        self.template_bytes + streams * self.trainable_bytes
    }

    /// Ratio of the clone law to the copy-on-write law at the given stream
    /// count — how many times more memory deep cloning needs. Grows towards
    /// `template/trainable` as the one-off template share amortizes.
    pub fn dedup_factor(&self, streams: usize) -> f64 {
        let cow = self.cow_resident_bytes(streams);
        if cow == 0 {
            return f64::NAN;
        }
        self.clone_resident_bytes(streams) as f64 / cow as f64
    }

    /// Streams hosted per GiB of resident weight memory under deep cloning.
    pub fn clone_streams_per_gb(&self) -> f64 {
        if self.template_bytes == 0 {
            return f64::INFINITY;
        }
        (1u64 << 30) as f64 / self.template_bytes as f64
    }

    /// Streams hosted per GiB under copy-on-write, at the marginal cost of
    /// one more stream (the template's one-off share amortizes to zero).
    pub fn cow_streams_per_gb(&self) -> f64 {
        if self.trainable_bytes == 0 {
            return f64::INFINITY;
        }
        (1u64 << 30) as f64 / self.trainable_bytes as f64
    }

    /// Wire bytes of `updates` student updates sent as full-snapshot
    /// envelopes: every update re-sends every trainable stage.
    pub fn full_update_bytes(&self, updates: usize) -> usize {
        updates * (FULL_ENVELOPE_OVERHEAD + self.trainable_bytes)
    }

    /// Wire bytes of the same updates sent as deltas, when a fraction
    /// `active` of them actually changed the weights (took at least one
    /// distillation step) and the rest early-stopped at an unchanged
    /// checkpoint. Changed updates carry their trainable chunks plus the
    /// envelope; converged ones only the envelope.
    pub fn delta_update_bytes(&self, updates: usize, active: f64) -> f64 {
        let active = active.clamp(0.0, 1.0);
        updates as f64 * (DELTA_ENVELOPE_OVERHEAD as f64 + active * self.trainable_bytes as f64)
    }

    /// Predicted delta-to-full wire ratio for an update population with the
    /// given active fraction. Below 1 whenever some updates converge early
    /// and the trainable payload dwarfs the envelope overhead — the
    /// inequality `table13_weight_dedup` measures live.
    pub fn delta_wire_ratio(&self, active: f64) -> f64 {
        let full = self.full_update_bytes(1);
        if full == 0 {
            return f64::NAN;
        }
        self.delta_update_bytes(1, active) / full as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DedupModel {
        // A template of 100 KiB with 20 KiB of trainable back-end — the
        // 80/20 shape partial distillation produces.
        DedupModel::new(100 * 1024, 20 * 1024)
    }

    #[test]
    fn cow_grows_sublinearly_against_the_clone_law() {
        let m = model();
        assert_eq!(m.cow_resident_bytes(0), 0);
        // A lone stream pays for the shared template *and* its private
        // stages — the store only wins once anything shares the template.
        assert!(m.cow_resident_bytes(1) > m.clone_resident_bytes(1));
        for streams in [2usize, 8, 64] {
            assert!(m.cow_resident_bytes(streams) <= m.clone_resident_bytes(streams));
        }
        // The marginal cost per stream is the trainable share, not the
        // template: doubling the population far less than doubles residency
        // once the template is amortized.
        let at_8 = m.cow_resident_bytes(8);
        let at_16 = m.cow_resident_bytes(16);
        assert!(at_16 - at_8 == 8 * m.trainable_bytes);
        // The dedup factor approaches template/trainable = 5x from below.
        assert!(m.dedup_factor(1) < m.dedup_factor(64));
        assert!(m.dedup_factor(64) < 5.0);
        assert!(m.dedup_factor(64) > 4.0);
    }

    #[test]
    fn streams_per_gb_reflects_the_marginal_cost() {
        let m = model();
        // CoW hosts template/trainable = 5x more streams per GiB.
        assert!((m.cow_streams_per_gb() / m.clone_streams_per_gb() - 5.0).abs() < 1e-9);
        // Degenerate sizes saturate instead of dividing by zero.
        let free = DedupModel::new(0, 0);
        assert!(free.clone_streams_per_gb().is_infinite());
        assert!(free.cow_streams_per_gb().is_infinite());
    }

    #[test]
    fn delta_wire_cost_tracks_the_active_fraction() {
        let m = model();
        // All updates active: the delta still pays its larger envelope, so
        // it is marginally above full — delta encoding wins on convergence,
        // not on framing.
        assert!(m.delta_wire_ratio(1.0) > 1.0);
        // Half the updates converged: the ratio drops towards active.
        let half = m.delta_wire_ratio(0.5);
        assert!(half < 0.6, "ratio {half}");
        // Fully converged population: only envelopes cross the wire.
        let idle = m.delta_update_bytes(10, 0.0);
        assert!((idle - 10.0 * DELTA_ENVELOPE_OVERHEAD as f64).abs() < 1e-9);
        // Out-of-range fractions clamp rather than extrapolate.
        assert!((m.delta_update_bytes(4, 2.0) - m.delta_update_bytes(4, 1.0)).abs() < 1e-9);
    }

    #[test]
    fn trainable_share_never_exceeds_the_template() {
        let m = DedupModel::new(1024, 4096);
        assert_eq!(m.trainable_bytes, 1024);
    }
}
