//! The typed netflow query surface.
//!
//! Detector and analytics queries against closed traffic windows,
//! mirroring the shape of [`serve::QueryRequest`]: one request enum,
//! one class-per-histogram-bucket enum, responses stamped with the
//! epoch (= window id) they were answered at. Endpoints come back as
//! zero-padded dotted quads (the [`hyperspace_core::cidr`] string
//! encoding), so responses join directly against the serving layer's
//! netflow schema records.

use std::fmt;

use hyperspace_core::cidr::PrefixLen;

/// One analytics query against a closed traffic window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetflowQuery {
    /// The `k` sources sending the most packets (volume heavy hitters).
    TopTalkers {
        /// How many heavy hitters to return.
        k: usize,
    },
    /// The `k` destinations receiving the most packets.
    TopListeners {
        /// How many heavy hitters to return.
        k: usize,
    },
    /// Horizontal-scan detector: sources contacting at least
    /// `min_fanout` distinct destinations.
    ScanSuspects {
        /// Distinct-destination threshold.
        min_fanout: u64,
    },
    /// Fan-in-DDoS detector: destinations contacted by at least
    /// `min_fanin` distinct sources.
    DdosVictims {
        /// Distinct-source threshold.
        min_fanin: u64,
    },
    /// Masked drill-down: every flow from the named source addresses.
    SuspectTraffic {
        /// Source addresses to extract (need not be sorted).
        sources: Vec<u32>,
    },
    /// CIDR rollup: the `k` busiest block→block flows at `/prefix`
    /// resolution.
    Rollup {
        /// CIDR prefix length (8–32).
        prefix: PrefixLen,
        /// How many block pairs to return.
        k: usize,
    },
    /// Standing horizontal-scan detector: answers from the service's
    /// incrementally maintained fan-out state (updated `O(Δ)` per
    /// delta wave) instead of rescanning a window snapshot.
    StandingScanSuspects {
        /// Distinct-destination threshold.
        min_fanout: u64,
    },
    /// Standing fan-in-DDoS detector over the incrementally maintained
    /// fan-in state.
    StandingDdosVictims {
        /// Distinct-source threshold.
        min_fanin: u64,
    },
}

impl NetflowQuery {
    /// The request's class (histogram bucket).
    pub fn class(&self) -> NetflowQueryClass {
        match self {
            NetflowQuery::TopTalkers { .. } => NetflowQueryClass::TopTalkers,
            NetflowQuery::TopListeners { .. } => NetflowQueryClass::TopListeners,
            NetflowQuery::ScanSuspects { .. } => NetflowQueryClass::ScanSuspects,
            NetflowQuery::DdosVictims { .. } => NetflowQueryClass::DdosVictims,
            NetflowQuery::SuspectTraffic { .. } => NetflowQueryClass::Drilldown,
            NetflowQuery::Rollup { .. } => NetflowQueryClass::Rollup,
            NetflowQuery::StandingScanSuspects { .. } => NetflowQueryClass::StandingScan,
            NetflowQuery::StandingDdosVictims { .. } => NetflowQueryClass::StandingDdos,
        }
    }

    /// Whether this query answers from standing (incrementally
    /// maintained) state rather than a window snapshot.
    pub fn is_standing(&self) -> bool {
        matches!(
            self,
            NetflowQuery::StandingScanSuspects { .. } | NetflowQuery::StandingDdosVictims { .. }
        )
    }
}

/// Per-detector latency buckets (the Prometheus `detector` label),
/// declared in [`NetflowQueryClass::ALL`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetflowQueryClass {
    /// Source volume heavy hitters.
    TopTalkers,
    /// Destination volume heavy hitters.
    TopListeners,
    /// Horizontal-scan detection.
    ScanSuspects,
    /// Fan-in-DDoS detection.
    DdosVictims,
    /// Masked traffic drill-downs.
    Drilldown,
    /// CIDR block rollups.
    Rollup,
    /// Standing scan detection (incremental fan-out state).
    StandingScan,
    /// Standing DDoS detection (incremental fan-in state).
    StandingDdos,
}

impl NetflowQueryClass {
    /// Every class, in histogram-index order.
    pub const ALL: [NetflowQueryClass; 8] = [
        NetflowQueryClass::TopTalkers,
        NetflowQueryClass::TopListeners,
        NetflowQueryClass::ScanSuspects,
        NetflowQueryClass::DdosVictims,
        NetflowQueryClass::Drilldown,
        NetflowQueryClass::Rollup,
        NetflowQueryClass::StandingScan,
        NetflowQueryClass::StandingDdos,
    ];

    /// Stable lowercase label (the Prometheus `detector` label value).
    pub fn label(self) -> &'static str {
        match self {
            NetflowQueryClass::TopTalkers => "top_talkers",
            NetflowQueryClass::TopListeners => "top_listeners",
            NetflowQueryClass::ScanSuspects => "scan_suspects",
            NetflowQueryClass::DdosVictims => "ddos_victims",
            NetflowQueryClass::Drilldown => "drilldown",
            NetflowQueryClass::Rollup => "rollup",
            NetflowQueryClass::StandingScan => "standing_scan",
            NetflowQueryClass::StandingDdos => "standing_ddos",
        }
    }

    /// Index into per-class arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for NetflowQueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The payload of a [`NetflowResponse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetflowBody {
    /// `(endpoint, packet volume)` — heavy-hitter answers, volume
    /// descending, address ascending on ties.
    Volumes(Vec<(String, u64)>),
    /// `(endpoint, distinct-peer degree)` — detector answers, degree
    /// descending, address ascending on ties.
    Flagged(Vec<(String, u64)>),
    /// `(src, dst, packets)` flows — drill-down answers, row-major.
    Flows(Vec<(String, String, u64)>),
    /// `(src block, dst block, packets)` — rollup answers, volume
    /// descending.
    Blocks(Vec<(String, String, u64)>),
}

impl NetflowBody {
    /// The volumes payload, if this is a heavy-hitter response.
    pub fn as_volumes(&self) -> Option<&[(String, u64)]> {
        match self {
            NetflowBody::Volumes(v) => Some(v),
            _ => None,
        }
    }

    /// The flagged-endpoint payload, if this is a detector response.
    pub fn as_flagged(&self) -> Option<&[(String, u64)]> {
        match self {
            NetflowBody::Flagged(v) => Some(v),
            _ => None,
        }
    }

    /// The flow-list payload, if this is a drill-down response.
    pub fn as_flows(&self) -> Option<&[(String, String, u64)]> {
        match self {
            NetflowBody::Flows(v) => Some(v),
            _ => None,
        }
    }

    /// The block-pair payload, if this is a rollup response.
    pub fn as_blocks(&self) -> Option<&[(String, String, u64)]> {
        match self {
            NetflowBody::Blocks(v) => Some(v),
            _ => None,
        }
    }
}

/// An answered netflow query: the window (epoch) it is consistent with
/// and the typed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetflowResponse {
    /// The closed window (pipeline epoch) this answer describes.
    pub epoch: u64,
    /// The payload.
    pub body: NetflowBody,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_have_stable_labels_and_indexes() {
        assert_eq!(NetflowQueryClass::ALL.len(), 8);
        for (i, c) in NetflowQueryClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(NetflowQueryClass::ScanSuspects.to_string(), "scan_suspects");
        assert_eq!(NetflowQueryClass::StandingScan.to_string(), "standing_scan");
        assert_eq!(
            NetflowQuery::Rollup { prefix: 16, k: 5 }.class(),
            NetflowQueryClass::Rollup
        );
        let standing = NetflowQuery::StandingDdosVictims { min_fanin: 3 };
        assert!(standing.is_standing());
        assert_eq!(standing.class(), NetflowQueryClass::StandingDdos);
        assert!(!NetflowQuery::TopTalkers { k: 1 }.is_standing());
    }
}
