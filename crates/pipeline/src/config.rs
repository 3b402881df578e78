//! Pipeline deployment parameters.

use hypersparse::StreamConfig;

/// Tunable parameters for a [`crate::Pipeline`].
///
/// Defaults are deterministic (never derived from the machine): 4
/// shards, 1024-message channels, default stream hierarchy. The shard
/// count is part of the pipeline's identity — the same event sequence at
/// the same shard count yields bit-identical snapshots, and checkpoints
/// restore only at their recorded shard count.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Number of shards = worker threads. Events hash-partition by row
    /// key, so a row lives wholly inside one shard. Must be ≥ 1.
    pub shards: usize,
    /// Bounded capacity of each shard's command channel, in messages.
    /// This is the backpressure knob: when a shard falls behind,
    /// `ingest` blocks and `try_ingest` returns
    /// [`crate::PipelineError::Full`] instead of queueing unboundedly.
    /// Must be ≥ 1.
    pub channel_capacity: usize,
    /// Hierarchy parameters for each shard's `StreamingMatrix`.
    pub stream: StreamConfig,
    /// Checkpoint generations kept on disk. Older generations are pruned
    /// after a successful commit; keeping ≥ 2 preserves a fallback if
    /// the newest generation is later found corrupt. Must be ≥ 1.
    pub keep_generations: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            shards: 4,
            channel_capacity: 1024,
            stream: StreamConfig::default(),
            keep_generations: 2,
        }
    }
}

impl PipelineConfig {
    /// The default configuration.
    pub fn new() -> Self {
        PipelineConfig::default()
    }

    /// Builder-style shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "shards must be ≥ 1");
        self.shards = shards;
        self
    }

    /// Builder-style channel capacity (messages per shard).
    pub fn with_channel_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "channel_capacity must be ≥ 1");
        self.channel_capacity = cap;
        self
    }

    /// Builder-style stream hierarchy parameters.
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Builder-style checkpoint retention.
    pub fn with_keep_generations(mut self, keep: usize) -> Self {
        assert!(keep >= 1, "keep_generations must be ≥ 1");
        self.keep_generations = keep;
        self
    }
}

/// Deterministic shard routing: SplitMix64 finalizer over the row key.
///
/// Stable across runs, platforms, and releases — the checkpoint format
/// depends on this staying fixed, since shard files are only valid for
/// the routing that filled them. Rows (not individual cells) are the
/// unit of partitioning so that every ⊕-duplicate of a key lands in one
/// shard, making the global snapshot a disjoint union.
pub fn shard_of(row: u64, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let mut x = row.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_deterministic() {
        let c = PipelineConfig::default();
        assert_eq!(c.shards, 4);
        assert_eq!(c.channel_capacity, 1024);
        assert_eq!(c.keep_generations, 2);
    }

    #[test]
    fn routing_is_stable_and_spread() {
        // Pinned values: the checkpoint format depends on these.
        assert_eq!(shard_of(0, 4), shard_of(0, 4));
        let counts = (0..10_000u64).fold([0usize; 4], |mut acc, r| {
            acc[shard_of(r, 4)] += 1;
            acc
        });
        for c in counts {
            assert!(c > 2000, "skewed routing: {counts:?}");
        }
        assert!((0..100u64).all(|r| shard_of(r, 1) == 0));
    }

    #[test]
    #[should_panic(expected = "shards")]
    fn zero_shards_rejected() {
        let _ = PipelineConfig::new().with_shards(0);
    }
}
