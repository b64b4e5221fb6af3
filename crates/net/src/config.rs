//! Network and process-timing configuration for the simulator.

use crate::time::VirtualTime;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-link message latency model: uniform in `[base, base + jitter]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Minimum one-way latency.
    pub base: VirtualTime,
    /// Maximum additional random latency.
    pub jitter: VirtualTime,
}

impl LatencyModel {
    /// A LAN-like model: 200µs ± 100µs.
    pub fn lan() -> Self {
        LatencyModel {
            base: VirtualTime::from_micros(200),
            jitter: VirtualTime::from_micros(100),
        }
    }

    /// A WAN-like model: 25ms ± 15ms.
    pub fn wan() -> Self {
        LatencyModel {
            base: VirtualTime::from_millis(25),
            jitter: VirtualTime::from_millis(15),
        }
    }

    /// A fixed-latency model (no jitter) — useful for exact-answer tests.
    pub fn fixed(latency: VirtualTime) -> Self {
        LatencyModel {
            base: latency,
            jitter: VirtualTime::ZERO,
        }
    }

    /// Samples a one-way latency.
    pub fn sample(&self, rng: &mut StdRng) -> VirtualTime {
        if self.jitter == VirtualTime::ZERO {
            self.base
        } else {
            self.base + VirtualTime::from_micros(rng.gen_range(0..=self.jitter.as_micros()))
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::lan()
    }
}

/// Simulator configuration.
///
/// `processing_cost` models the CPU time a process spends handling one
/// event (message validation, signature checks, state updates). Processes
/// are single-threaded in the model: while busy, later arrivals queue.
/// This is what produces realistic throughput saturation curves in the
/// evaluation harness, which substitutes this simulator for the paper's
/// deployment (its cost models are `at_engine::NetProfile`).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// One-way message latency model.
    pub latency: LatencyModel,
    /// CPU cost charged per handled event.
    pub processing_cost: VirtualTime,
    /// CPU cost charged to the *sender* per outgoing message
    /// (serialization/transmission work). This is what makes a PBFT
    /// leader disseminating every payload to `n` replicas a genuine
    /// bottleneck in the evaluation.
    pub send_cost: VirtualTime,
    /// RNG seed for latency sampling (determinism).
    pub seed: u64,
}

impl NetConfig {
    /// LAN latency, 10µs processing, seed 0.
    pub fn lan(seed: u64) -> Self {
        NetConfig {
            latency: LatencyModel::lan(),
            processing_cost: VirtualTime::from_micros(10),
            send_cost: VirtualTime::ZERO,
            seed,
        }
    }

    /// WAN latency, 10µs processing.
    pub fn wan(seed: u64) -> Self {
        NetConfig {
            latency: LatencyModel::wan(),
            processing_cost: VirtualTime::from_micros(10),
            send_cost: VirtualTime::ZERO,
            seed,
        }
    }

    /// Zero-latency, zero-cost configuration for logic-only tests.
    pub fn instant(seed: u64) -> Self {
        NetConfig {
            latency: LatencyModel::fixed(VirtualTime::from_micros(1)),
            processing_cost: VirtualTime::ZERO,
            send_cost: VirtualTime::ZERO,
            seed,
        }
    }

    /// Overrides the processing cost (builder style).
    pub fn with_processing_cost(mut self, cost: VirtualTime) -> Self {
        self.processing_cost = cost;
        self
    }

    /// Overrides the per-send cost (builder style).
    pub fn with_send_cost(mut self, cost: VirtualTime) -> Self {
        self.send_cost = cost;
        self
    }

    /// Overrides the latency model (builder style).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::lan(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_latency_has_no_jitter() {
        let model = LatencyModel::fixed(VirtualTime::from_millis(5));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(model.sample(&mut rng), VirtualTime::from_millis(5));
        }
    }

    #[test]
    fn jittered_latency_within_bounds() {
        let model = LatencyModel::lan();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let sample = model.sample(&mut rng);
            assert!(sample >= model.base);
            assert!(sample <= model.base + model.jitter);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = LatencyModel::wan();
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            assert_eq!(model.sample(&mut rng1), model.sample(&mut rng2));
        }
    }

    #[test]
    fn config_builders() {
        let config = NetConfig::lan(3)
            .with_processing_cost(VirtualTime::from_micros(50))
            .with_send_cost(VirtualTime::from_micros(2))
            .with_latency(LatencyModel::fixed(VirtualTime::ZERO));
        assert_eq!(config.processing_cost, VirtualTime::from_micros(50));
        assert_eq!(config.send_cost, VirtualTime::from_micros(2));
        assert_eq!(config.latency.jitter, VirtualTime::ZERO);
        assert_eq!(config.seed, 3);
        assert_eq!(NetConfig::default().latency, LatencyModel::lan());
        assert_eq!(NetConfig::instant(0).processing_cost, VirtualTime::ZERO);
    }
}
