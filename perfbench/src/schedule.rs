//! The open-loop key-frame schedule: when each stream's key frames are due.
//!
//! Offered rates are absolute (key frames per second, fixed in the workload
//! definition), never calibrated from a measured service time — a
//! calibrated rate would rescale itself around every speedup and hide it.
//! The schedule is a pure function of the rates, the window and the seed.

/// One scheduled key frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Seconds after the start of the timed window.
    pub at: f64,
    /// Index of the stream in the workload's stream list.
    pub stream: usize,
    /// The stream's key-frame ordinal (0, 1, 2, ...).
    pub ordinal: usize,
}

/// SplitMix64: a tiny seeded generator, enough for phases and jitter.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seed a generator.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How a workload's key frames fall inside their slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Anywhere in the slot, uniformly: streams collide at random and every
    /// slot draws a new pattern.
    Uniform,
    /// Stream `s` of `n` aims at `(s + ½) / n` of the way into its slot, moved by
    /// a uniform jitter of the given fraction of a slot: the streams take
    /// turns, so load is steady and queueing comes from service time rather
    /// than from chance collisions.
    Staggered {
        /// Jitter window as a fraction of a slot.
        jitter: f64,
    },
}

/// Every key frame due within `[0, seconds)` for streams offered at
/// `rates` key frames per second, merged in due order.
///
/// Each stream's time line is cut into slots of `1 / rate` seconds and the
/// stream sends exactly one key frame per slot, placed by `arrivals` with
/// a fresh random draw per slot. The offered rate is exact, and a run
/// averages over many draws instead of repeating one phase alignment that
/// the seed fixed once.
pub fn schedule(rates: &[f64], arrivals: Arrivals, seconds: f64, seed: u64) -> Vec<Due> {
    let streams = rates.len();
    let mut all = Vec::new();
    for (stream, &rate) in rates.iter().enumerate() {
        assert!(rate > 0.0, "offered rates are positive");
        let mut rng = SplitMix::new(seed ^ (stream as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let gap = 1.0 / rate;
        for ordinal in 0.. {
            let offset = match arrivals {
                Arrivals::Uniform => rng.unit(),
                Arrivals::Staggered { jitter } => ((stream as f64 + 0.5) / streams as f64
                    + jitter * (rng.unit() - 0.5))
                    .rem_euclid(1.0),
            };
            let at = (ordinal as f64 + offset) * gap;
            if at >= seconds {
                break;
            }
            all.push(Due {
                at,
                stream,
                ordinal,
            });
        }
    }
    all.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.stream.cmp(&b.stream)));
    all
}

/// Key frames per stream in a schedule.
pub fn per_stream_counts(schedule: &[Due], streams: usize) -> Vec<usize> {
    let mut counts = vec![0; streams];
    for due in schedule {
        counts[due.stream] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let rates = [8.0, 1.0, 1.0, 1.0];
        let a = schedule(&rates, Arrivals::Uniform, 20.0, 7);
        let b = schedule(&rates, Arrivals::Uniform, 20.0, 7);
        let c = schedule(&rates, Arrivals::Uniform, 20.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn offers_the_fixed_rates_in_due_order() {
        let rates = [8.0, 1.0, 1.0, 1.0];
        let s = schedule(&rates, Arrivals::Uniform, 20.0, 3);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(s.iter().all(|d| (0.0..20.0).contains(&d.at)));
        let counts = per_stream_counts(&s, rates.len());
        assert!((159..=160).contains(&counts[0]), "{counts:?}");
        for &c in &counts[1..] {
            assert!((19..=20).contains(&c), "{counts:?}");
        }
        // Each stream's ordinals are consecutive in due order.
        for stream in 0..rates.len() {
            let ordinals: Vec<usize> = s
                .iter()
                .filter(|d| d.stream == stream)
                .map(|d| d.ordinal)
                .collect();
            assert!(ordinals.iter().enumerate().all(|(i, &o)| i == o));
        }
    }

    #[test]
    fn staggered_streams_take_turns() {
        let rates = [1.0; 4];
        let s = schedule(&rates, Arrivals::Staggered { jitter: 0.1 }, 10.0, 5);
        assert_eq!(s.len(), 40);
        // Without collisions the due order cycles through the streams.
        for (i, due) in s.iter().enumerate() {
            assert_eq!(due.stream, i % 4, "{s:?}");
        }
        assert_eq!(
            s,
            schedule(&rates, Arrivals::Staggered { jitter: 0.1 }, 10.0, 5)
        );
    }
}
