//! Run metrics: visits, messages, traffic, computation.
//!
//! Every algorithm in `parbox-core` produces a [`RunReport`]; the figures
//! and the Fig. 4 complexity table of the paper are regenerated from
//! these reports.

use crate::NetworkModel;
use parbox_frag::SiteId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// What a message carries, for traffic breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MessageKind {
    /// The query `q` (stage 1 of ParBoX).
    Query,
    /// A `(V, CV, DV)` triplet (stage 2 → 3).
    Triplet,
    /// Raw fragment data (the naive baselines ship these).
    Data,
    /// Control traffic (visit requests, acknowledgements).
    Control,
    /// A merged multi-query program (stage 1 of the batch protocol).
    BatchQuery,
    /// A per-site envelope of all fragment triplets for one batch
    /// (stage 2 → 3 of the batch protocol).
    Envelope,
}

/// One recorded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Sending site.
    pub from: SiteId,
    /// Receiving site.
    pub to: SiteId,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Payload classification.
    pub kind: MessageKind,
}

/// Per-site accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteReport {
    /// Times the site was *visited* (contacted to start work). The
    /// paper's headline guarantee is `visits == 1` per site for ParBoX.
    pub visits: usize,
    /// Messages sent by the site.
    pub msgs_sent: usize,
    /// Messages received by the site.
    pub msgs_recv: usize,
    /// Bytes sent by the site.
    pub bytes_sent: usize,
    /// Bytes received by the site.
    pub bytes_recv: usize,
    /// Work units: node × sub-query evaluations performed at the site.
    pub work_units: u64,
    /// Measured wall-clock compute time at the site, seconds.
    pub compute_s: f64,
}

/// A strategy's *predicted* cost, in the same units the [`RunReport`]
/// accounting later measures: an executor's `estimate` fills one of
/// these from `ForestStats`-style aggregates before any site is
/// contacted, and tests assert estimate-vs-actual agreement (visit and
/// message counts exactly; traffic within the bound documented on the
/// estimator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Predicted total site visits (the sum over sites of per-site
    /// visits — compare with [`RunReport::total_visits`]).
    pub visits: usize,
    /// Predicted total messages (compare with
    /// [`RunReport::total_messages`]).
    pub messages: usize,
    /// Predicted total traffic in bytes (compare with
    /// [`RunReport::total_bytes`]).
    pub traffic_bytes: usize,
    /// Predicted sequential communication rounds (latency-bearing
    /// phases that cannot overlap).
    pub rounds: usize,
    /// Predicted computation in work units (node × sub-query
    /// evaluations — compare with [`RunReport::total_work`]).
    pub work_units: u64,
    /// Predicted modeled elapsed seconds (compare with
    /// [`RunReport::elapsed_model_s`]).
    pub modeled_s: f64,
}

/// What the planner decided for a run: the chosen strategy and its
/// [`CostEstimate`], recorded in [`RunReport::planned`] so every
/// experiment artifact shows prediction next to measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// Name of the chosen strategy.
    pub strategy: String,
    /// The estimate that won the comparison.
    pub estimate: CostEstimate,
    /// How many candidate strategies were compared.
    pub candidates: usize,
}

/// Cache efficacy of one serving round, recorded in
/// [`RunReport::cache`] so every experiment artifact shows how much of
/// the answer came from the two cache levels (the engine's solve cache
/// and the site workers' triplet caches) rather than from evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheEfficacy {
    /// Queries answered entirely from the engine's solve cache — no
    /// site was contacted for them.
    pub queries_from_cache: u64,
    /// Queries in the round (cached + evaluated).
    pub queries_total: u64,
    /// Site-worker triplet-cache hits during the round.
    pub site_cache_hits: u64,
    /// Fragment evaluations actually run (site-cache misses).
    pub fragments_evaluated: u64,
}

impl CacheEfficacy {
    /// Fraction of per-fragment lookups the site triplet caches
    /// answered (0 when no lookup was made).
    pub fn site_hit_rate(&self) -> f64 {
        let total = self.site_cache_hits + self.fragments_evaluated;
        if total == 0 {
            0.0
        } else {
            self.site_cache_hits as f64 / total as f64
        }
    }
}

/// Delta-repair maintenance counters of one update (or an aggregate of
/// updates), recorded in [`RunReport::repair`] so serving artifacts
/// show how much of the cached state survived each update in place
/// versus being thrown away for recomputation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairEfficacy {
    /// Cache entries (site triplets + coordinator solve entries)
    /// repaired in place — or certified unchanged — by delta
    /// maintenance.
    pub repaired: u64,
    /// Cache entries invalidated and left for full recomputation.
    pub invalidated: u64,
    /// Tree nodes re-interned by the repairs: per group of entries
    /// sharing a memo, as far up from the change as it reaches, versus
    /// O(|fragment|) for a recomputation — which is also what the
    /// update that builds a group's repair memo pays, once.
    pub nodes_recomputed: u64,
    /// Wire bytes of the shipped triplet deltas (changed entries only,
    /// varint-DAG encoded; 1-byte ack per unchanged entry).
    pub delta_bytes: u64,
}

impl RepairEfficacy {
    /// Fraction of touched cache entries kept alive in place
    /// (0 when the update touched no cached state).
    pub fn repair_rate(&self) -> f64 {
        let total = self.repaired + self.invalidated;
        if total == 0 {
            0.0
        } else {
            self.repaired as f64 / total as f64
        }
    }

    /// Folds another update's counters into this one.
    pub fn absorb(&mut self, other: &RepairEfficacy) {
        self.repaired += other.repaired;
        self.invalidated += other.invalidated;
        self.nodes_recomputed += other.nodes_recomputed;
        self.delta_bytes += other.delta_bytes;
    }
}

/// Fault-tolerance counters of one run, recorded in
/// [`RunReport::faults`] by the serving engine's supervisor so every
/// chaos artifact shows how much retrying, restarting, and re-seeding
/// the answers cost. All-zero on a healthy run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Site requests that blew their deadline.
    pub timeouts: u64,
    /// Requests re-sent after a timeout or actor death.
    pub retries: u64,
    /// Site actors torn down and restarted (dead or presumed wedged).
    pub restarts: u64,
    /// Fragments re-seeded from the coordinator's authoritative handles
    /// (restart seeds plus missing-fragment reloads).
    pub reseeded_fragments: u64,
    /// Sites still down when every attempt was exhausted — each one
    /// degrades the answers it was needed for to `Partial`.
    pub failed_sites: u64,
    /// Per recovered site: seconds from first failure sign to the reply
    /// that ended the outage.
    pub recovery_s: Vec<f64>,
}

impl FaultSummary {
    /// Folds another summary's counters into this one.
    pub fn absorb(&mut self, other: &FaultSummary) {
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.restarts += other.restarts;
        self.reseeded_fragments += other.reseeded_fragments;
        self.failed_sites += other.failed_sites;
        self.recovery_s.extend_from_slice(&other.recovery_s);
    }

    /// Whether any fault activity was recorded at all.
    pub fn any(&self) -> bool {
        self.timeouts != 0
            || self.retries != 0
            || self.restarts != 0
            || self.reseeded_fragments != 0
            || self.failed_sites != 0
            || !self.recovery_s.is_empty()
    }

    /// Longest observed site recovery, seconds (0 when none happened).
    pub fn max_recovery_s(&self) -> f64 {
        self.recovery_s.iter().copied().fold(0.0, f64::max)
    }
}

/// Full accounting of one algorithm run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-site reports keyed by site.
    pub per_site: BTreeMap<u32, SiteReport>,
    /// All messages in order of recording.
    pub messages: Vec<Message>,
    /// Modeled elapsed time (parallel compute + modeled network), seconds.
    pub elapsed_model_s: f64,
    /// Measured wall-clock time of the whole run, seconds.
    pub elapsed_wall_s: f64,
    /// When a cost-based planner chose the strategy that produced this
    /// report, what it chose and what it predicted (`None` for runs of a
    /// fixed, caller-chosen strategy).
    pub planned: Option<PlanSummary>,
    /// Cache efficacy of the round, for serving-engine runs (`None` for
    /// one-shot algorithm runs, which have no caches).
    pub cache: Option<CacheEfficacy>,
    /// Delta-repair efficacy of a maintenance step (`None` outside
    /// update handling, or when delta maintenance is disabled).
    pub repair: Option<RepairEfficacy>,
    /// Fault-tolerance counters, for supervised serving-engine runs
    /// (`None` for one-shot algorithm runs, which have no supervisor).
    pub faults: Option<FaultSummary>,
}

impl RunReport {
    /// Empty report.
    pub fn new() -> RunReport {
        RunReport::default()
    }

    fn site_mut(&mut self, site: SiteId) -> &mut SiteReport {
        self.per_site.entry(site.0).or_default()
    }

    /// Records a visit to a site.
    pub fn record_visit(&mut self, site: SiteId) {
        self.site_mut(site).visits += 1;
    }

    /// Records a message, updating both endpoints.
    pub fn record_message(&mut self, from: SiteId, to: SiteId, bytes: usize, kind: MessageKind) {
        self.messages.push(Message {
            from,
            to,
            bytes,
            kind,
        });
        let s = self.site_mut(from);
        s.msgs_sent += 1;
        s.bytes_sent += bytes;
        let r = self.site_mut(to);
        r.msgs_recv += 1;
        r.bytes_recv += bytes;
    }

    /// Adds work units at a site.
    pub fn record_work(&mut self, site: SiteId, units: u64) {
        self.site_mut(site).work_units += units;
    }

    /// Adds measured compute time at a site.
    pub fn record_compute(&mut self, site: SiteId, d: Duration) {
        self.site_mut(site).compute_s += d.as_secs_f64();
    }

    /// Report for one site (default-empty if the site never participated).
    pub fn site(&self, site: SiteId) -> SiteReport {
        self.per_site.get(&site.0).cloned().unwrap_or_default()
    }

    /// Iterator over `(site, report)`.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &SiteReport)> {
        self.per_site.iter().map(|(&s, r)| (SiteId(s), r))
    }

    /// Total bytes over all messages — the paper's *total network traffic*.
    pub fn total_bytes(&self) -> usize {
        self.messages.iter().map(|m| m.bytes).sum()
    }

    /// Total bytes of data-plane payloads — triplets, envelopes and raw
    /// fragment data, excluding query shipping and control traffic. The
    /// serving engine's cache guarantee is phrased over this figure: a
    /// fully cached round moves zero data-plane bytes.
    pub fn data_plane_bytes(&self) -> usize {
        self.bytes_of_kind(MessageKind::Triplet)
            + self.bytes_of_kind(MessageKind::Envelope)
            + self.bytes_of_kind(MessageKind::Data)
    }

    /// Total bytes of a given message kind.
    pub fn bytes_of_kind(&self, kind: MessageKind) -> usize {
        self.messages
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| m.bytes)
            .sum()
    }

    /// Total number of messages.
    pub fn total_messages(&self) -> usize {
        self.messages.len()
    }

    /// Total work units over all sites — the paper's *total computation*.
    pub fn total_work(&self) -> u64 {
        self.per_site.values().map(|r| r.work_units).sum()
    }

    /// Total measured compute seconds over all sites.
    pub fn total_compute_s(&self) -> f64 {
        self.per_site.values().map(|r| r.compute_s).sum()
    }

    /// Maximum measured compute seconds over sites — the parallel
    /// computation term of the elapsed-time model.
    pub fn max_site_compute_s(&self) -> f64 {
        self.per_site
            .values()
            .map(|r| r.compute_s)
            .fold(0.0, f64::max)
    }

    /// Maximum number of visits to any single site.
    pub fn max_visits(&self) -> usize {
        self.per_site.values().map(|r| r.visits).max().unwrap_or(0)
    }

    /// Total visits over all sites — the figure a [`CostEstimate`]
    /// predicts in its `visits` field.
    pub fn total_visits(&self) -> usize {
        self.per_site.values().map(|r| r.visits).sum()
    }

    /// Total simulated network cost in seconds: the sum over all recorded
    /// messages of their modeled transfer time (per-message latency plus
    /// payload over bandwidth). Unlike `elapsed_model_s` this counts
    /// network *resource usage* — overlapping transfers are not collapsed
    /// — which is the right unit for comparing how much network a batched
    /// round saves over sequential per-query rounds.
    pub fn network_cost_s(&self, model: &NetworkModel) -> f64 {
        // fold, not sum(): an empty f64 sum() yields -0.0, which formats
        // as "-0.000000" in reports.
        self.messages
            .iter()
            .map(|m| model.transfer_time(m.bytes))
            .fold(0.0, |acc, t| acc + t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_recording_updates_both_ends() {
        let mut r = RunReport::new();
        r.record_message(SiteId(0), SiteId(1), 100, MessageKind::Query);
        r.record_message(SiteId(1), SiteId(0), 40, MessageKind::Triplet);
        assert_eq!(r.total_bytes(), 140);
        assert_eq!(r.total_messages(), 2);
        assert_eq!(r.site(SiteId(0)).bytes_sent, 100);
        assert_eq!(r.site(SiteId(0)).bytes_recv, 40);
        assert_eq!(r.site(SiteId(1)).msgs_recv, 1);
        assert_eq!(r.bytes_of_kind(MessageKind::Triplet), 40);
        assert_eq!(r.bytes_of_kind(MessageKind::Data), 0);
    }

    #[test]
    fn visits_and_work_accumulate() {
        let mut r = RunReport::new();
        r.record_visit(SiteId(2));
        r.record_visit(SiteId(2));
        r.record_work(SiteId(2), 10);
        r.record_work(SiteId(3), 5);
        assert_eq!(r.site(SiteId(2)).visits, 2);
        assert_eq!(r.max_visits(), 2);
        assert_eq!(r.total_work(), 15);
    }

    #[test]
    fn compute_aggregates() {
        let mut r = RunReport::new();
        r.record_compute(SiteId(0), Duration::from_millis(30));
        r.record_compute(SiteId(1), Duration::from_millis(50));
        assert!((r.total_compute_s() - 0.08).abs() < 1e-9);
        assert!((r.max_site_compute_s() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn network_cost_sums_per_message_transfer_times() {
        let mut r = RunReport::new();
        r.record_message(SiteId(0), SiteId(1), 1_000, MessageKind::Query);
        r.record_message(SiteId(1), SiteId(0), 500, MessageKind::Triplet);
        let m = crate::NetworkModel::lan();
        let expected = m.transfer_time(1_000) + m.transfer_time(500);
        assert!((r.network_cost_s(&m) - expected).abs() < 1e-12);
        assert_eq!(RunReport::new().network_cost_s(&m), 0.0);
    }

    #[test]
    fn total_visits_sums_over_sites_and_planned_defaults_to_none() {
        let mut r = RunReport::new();
        assert_eq!(r.total_visits(), 0);
        assert!(r.planned.is_none());
        r.record_visit(SiteId(1));
        r.record_visit(SiteId(1));
        r.record_visit(SiteId(2));
        assert_eq!(r.total_visits(), 3);
        r.planned = Some(PlanSummary {
            strategy: "ParBoX".into(),
            estimate: CostEstimate {
                visits: 3,
                ..CostEstimate::default()
            },
            candidates: 6,
        });
        assert_eq!(
            r.planned.as_ref().unwrap().estimate.visits,
            r.total_visits()
        );
    }

    #[test]
    fn cache_efficacy_rates() {
        let c = CacheEfficacy {
            queries_from_cache: 3,
            queries_total: 4,
            site_cache_hits: 6,
            fragments_evaluated: 2,
        };
        assert!((c.site_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheEfficacy::default().site_hit_rate(), 0.0);
        assert!(RunReport::new().cache.is_none());
    }

    #[test]
    fn fault_summary_absorbs_and_tracks_recovery() {
        assert!(RunReport::new().faults.is_none());
        let mut a = FaultSummary {
            timeouts: 2,
            retries: 1,
            recovery_s: vec![0.1],
            ..FaultSummary::default()
        };
        assert!(a.any());
        a.absorb(&FaultSummary {
            restarts: 1,
            recovery_s: vec![0.3, 0.2],
            ..FaultSummary::default()
        });
        assert_eq!(a.timeouts, 2);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.recovery_s.len(), 3);
        assert!((a.max_recovery_s() - 0.3).abs() < 1e-12);
        assert!(!FaultSummary::default().any());
        assert_eq!(FaultSummary::default().max_recovery_s(), 0.0);
    }

    #[test]
    fn unknown_site_defaults() {
        let r = RunReport::new();
        assert_eq!(r.site(SiteId(42)), SiteReport::default());
        assert_eq!(r.max_visits(), 0);
    }
}
