//! Building traffic matrices from packet event streams.
//!
//! The paper's motivation cites GraphBLAS pipelines that construct traffic
//! matrices from streaming network telemetry ("anonymized high performance
//! streaming of network traffic"). This module provides the synthetic
//! equivalent: a packet-event type and a generator for realistic event mixes.
//! Windowing an event stream into sparse matrices is `tw-ingest`'s job.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One observed packet (or flow record) on the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketEvent {
    /// Anonymized source index.
    pub source: u32,
    /// Anonymized destination index.
    pub destination: u32,
    /// Number of packets represented by this event (flow aggregation).
    pub packets: u32,
    /// Timestamp in microseconds since the window epoch.
    pub timestamp_us: u64,
}

/// Sample uniformly from `0..pool` excluding `excluded`, keeping the
/// remaining candidates exactly uniform (shift-past-excluded trick). When
/// `excluded >= pool` the whole pool is valid and sampled uniformly.
///
/// Shared by the generators here and the `tw-ingest` scenario sources so the
/// subtle exclusion arithmetic lives in one place. Panics (empty range) when
/// the pool contains no valid candidate.
pub fn sample_excluding(rng: &mut StdRng, pool: u32, excluded: u32) -> u32 {
    if excluded >= pool {
        return rng.gen_range(0..pool);
    }
    let d = rng.gen_range(0..pool - 1);
    d + u32::from(d >= excluded)
}

/// Generate a synthetic event stream with a heavy-tailed endpoint distribution
/// (a few "supernode" servers receive most traffic, as in real networks).
///
/// `node_count` is the address space, `event_count` the number of events and
/// `seed` makes the stream reproducible.
pub fn synthetic_events(node_count: u32, event_count: usize, seed: u64) -> Vec<PacketEvent> {
    assert!(node_count >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let supernode_count = (node_count / 20).max(1);
    let mut events = Vec::with_capacity(event_count);
    for i in 0..event_count {
        // 70% of traffic goes to a supernode destination, sources are uniform.
        // Self-loops are excluded by sampling the destination from the chosen
        // pool *minus* the source (shift-past-source trick), which keeps the
        // remaining destinations exactly uniform. The old `(d + 1) % n`
        // rewrite folded the self-loop mass onto the next address, which
        // could silently promote an arbitrary node into the supernode set.
        let source = rng.gen_range(0..node_count);
        let supernode_roll = rng.gen_bool(0.7) && !(supernode_count == 1 && source == 0);
        let destination = if supernode_roll {
            sample_excluding(&mut rng, supernode_count, source)
        } else {
            sample_excluding(&mut rng, node_count, source)
        };
        events.push(PacketEvent {
            source,
            destination,
            packets: rng.gen_range(1..16),
            timestamp_us: i as u64 * 100 + rng.gen_range(0..100u64),
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_events_are_reproducible_and_valid() {
        let a = synthetic_events(100, 1000, 7);
        let b = synthetic_events(100, 1000, 7);
        assert_eq!(a, b);
        let c = synthetic_events(100, 1000, 8);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|e| e.source < 100 && e.destination < 100));
        assert!(a.iter().all(|e| e.packets >= 1 && e.packets < 16));
        assert!(a.iter().all(|e| e.source != e.destination));
        // Timestamps are non-decreasing by construction.
        assert!(a.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn supernode_destinations_dominate() {
        let events = synthetic_events(200, 20_000, 42);
        let to_supernodes =
            events.iter().filter(|e| e.destination < 10).count() as f64 / events.len() as f64;
        assert!(
            to_supernodes > 0.5,
            "expected heavy-tailed destinations, got {to_supernodes}"
        );
    }

    #[test]
    fn non_supernode_destinations_are_unbiased() {
        // Regression for the old self-loop rewrite `(d + 1) % n`, which folded
        // the rejected self-loop mass onto one neighbouring address and could
        // promote it into an accidental supernode. After the fix, the 30%
        // uniform share must spread evenly over the non-supernode addresses.
        let node_count = 40u32;
        let supernode_count = (node_count / 20).max(1); // = 2
        let events = synthetic_events(node_count, 200_000, 9);
        let mut hits = vec![0u64; node_count as usize];
        for e in &events {
            hits[e.destination as usize] += 1;
        }
        let tail = &hits[supernode_count as usize..];
        let min = *tail.iter().min().unwrap() as f64;
        let max = *tail.iter().max().unwrap() as f64;
        assert!(
            min > 0.0,
            "every non-supernode address should receive traffic"
        );
        assert!(
            max / min < 1.5,
            "non-supernode destinations should be near-uniform, got min {min} max {max}"
        );
    }
}
