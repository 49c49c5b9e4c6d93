//! Network cost model.
//!
//! The paper's experiments ran on ten Linux machines over a LAN; this
//! reproduction runs sites as threads on one machine and *models* the
//! network: each message costs a fixed per-message latency plus its
//! payload divided by the link bandwidth. The coordinator's inbound link
//! is shared, so bulk data shipped to it (the `NaiveCentralized`
//! baseline) serializes — which is exactly what makes shipping 25–45 MB
//! of fragments dominate Fig. 7.

use serde::{Deserialize, Serialize};

/// Link parameters used to convert message sizes into modeled seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// One-way per-message latency, seconds.
    pub latency_s: f64,
    /// Link bandwidth, bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl NetworkModel {
    /// 100 Mbit/s switched LAN with 0.2 ms latency — the paper's setting.
    pub fn lan() -> NetworkModel {
        NetworkModel {
            latency_s: 0.2e-3,
            bandwidth_bytes_per_s: 100e6 / 8.0,
        }
    }

    /// 10 Mbit/s wide-area link with 30 ms latency (P2P/Internet setting
    /// discussed in the paper's introduction).
    pub fn wan() -> NetworkModel {
        NetworkModel {
            latency_s: 30e-3,
            bandwidth_bytes_per_s: 10e6 / 8.0,
        }
    }

    /// Free network — isolates pure computation in ablation benches.
    pub fn infinite() -> NetworkModel {
        NetworkModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: f64::INFINITY,
        }
    }

    /// Modeled time to deliver one message of `bytes` payload.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Modeled time of one *communication round* on a shared link (e.g.
    /// the coordinator's inbound link): `msgs` messages totalling
    /// `bytes` payload, whose latencies overlap and whose payloads
    /// serialize. Zero when the round carries no message. Both the
    /// planner's estimates and the algorithms' charged
    /// [`crate::RunReport::elapsed_model_s`] price a round here.
    pub fn shared_link_time(&self, msgs: usize, bytes: usize) -> f64 {
        match msgs {
            0 => 0.0,
            _ => self.transfer_time(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_transfer_time_scales_with_bytes() {
        let m = NetworkModel::lan();
        let small = m.transfer_time(1_000);
        let large = m.transfer_time(25_000_000); // a 25 MB fragment
        assert!(large > small);
        assert!(large > 1.9, "25MB over 100Mb/s takes ~2s, got {large}");
        assert!(small < 0.001);
    }

    #[test]
    fn infinite_network_is_free() {
        let m = NetworkModel::infinite();
        assert_eq!(m.transfer_time(1 << 30), 0.0);
        assert_eq!(m.shared_link_time(3, 6), 0.0);
    }

    #[test]
    fn shared_link_serializes_payloads() {
        let m = NetworkModel::lan();
        let a = m.shared_link_time(2, 2_000_000);
        let b = m.transfer_time(2_000_000);
        assert!((a - b).abs() < 1e-9);
        assert_eq!(m.shared_link_time(0, 0), 0.0);
    }

    #[test]
    fn wan_slower_than_lan() {
        assert!(
            NetworkModel::wan().transfer_time(10_000) > NetworkModel::lan().transfer_time(10_000)
        );
    }
}
