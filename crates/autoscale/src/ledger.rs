//! Per-segment cost accounting.

use ts_cluster::ElasticPool;
use ts_common::{NodeId, SimDuration};

/// The cost of holding the fleet for one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Segment index within the trajectory.
    pub segment: usize,
    /// Wall-clock length of the segment.
    pub duration: SimDuration,
    /// Nodes held during the segment (base + spot), ascending.
    pub nodes: Vec<NodeId>,
    /// GPUs across the held nodes.
    pub gpus: usize,
    /// Fleet burn rate in $/hr (each node priced at its tier: base nodes
    /// on-demand, spot nodes at the spot rate).
    pub rate_per_hour: f64,
    /// Dollars for the segment: `rate_per_hour` × hours.
    pub cost: f64,
}

/// Append-only dollar ledger for a trajectory. The defining invariant —
/// a rule of the `BENCH_autoscale` artifact, which CI regenerates — is
/// internal consistency: the sum of per-segment costs equals
/// [`CostLedger::total`] exactly (same floating-point summation order, no
/// separately-maintained running total to drift).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostLedger {
    /// One entry per served segment, in order.
    pub entries: Vec<LedgerEntry>,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Charges one segment: every node of `cluster` currently in the fleet
    /// (any active GPU) is billed at its `pool` pricing tier for
    /// `duration`. `cluster` is the *runtime's* availability view — the
    /// pool's own cluster stays the static catalog.
    pub fn charge(
        &mut self,
        segment: usize,
        pool: &ElasticPool,
        cluster: &ts_cluster::Cluster,
        duration: SimDuration,
    ) {
        let nodes: Vec<NodeId> = (0..cluster.num_nodes() as u32)
            .map(NodeId)
            .filter(|&n| cluster.node(n).gpus.iter().any(|&g| cluster.is_active(g)))
            .collect();
        let gpus = cluster.num_gpus();
        let rate_per_hour: f64 = nodes.iter().map(|&n| pool.node_price(n)).sum();
        self.charge_at_rate(segment, rate_per_hour, nodes, gpus, duration);
    }

    /// Charges one segment at an explicit burn rate (the static on-demand
    /// baseline prices spot hardware at the on-demand rate, which
    /// [`CostLedger::charge`] would not).
    pub fn charge_at_rate(
        &mut self,
        segment: usize,
        rate_per_hour: f64,
        nodes: Vec<NodeId>,
        gpus: usize,
        duration: SimDuration,
    ) {
        let cost = rate_per_hour * duration.as_secs_f64() / 3600.0;
        self.entries.push(LedgerEntry {
            segment,
            duration,
            nodes,
            gpus,
            rate_per_hour,
            cost,
        });
    }

    /// Total dollars across all entries (the plain sum of `cost` fields).
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|e| e.cost).sum()
    }

    /// Total billed wall-clock time.
    pub fn total_duration(&self) -> SimDuration {
        self.entries
            .iter()
            .fold(SimDuration::ZERO, |acc, e| acc + e.duration)
    }

    /// Average burn rate in $/hr over the billed time (0 for an empty
    /// ledger).
    pub fn mean_rate_per_hour(&self) -> f64 {
        let hours = self.total_duration().as_secs_f64() / 3600.0;
        if hours == 0.0 {
            return 0.0;
        }
        self.total() / hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_cluster::presets::elastic_cloud_pool;

    #[test]
    fn charge_prices_only_the_held_fleet() {
        let mut pool = elastic_cloud_pool();
        // Park everything but the base nodes.
        for &n in &pool.spot.clone() {
            pool.cluster.deactivate_node(n).unwrap();
        }
        let mut ledger = CostLedger::new();
        ledger.charge(0, &pool, &pool.cluster, SimDuration::from_secs(3600));
        let e = &ledger.entries[0];
        assert_eq!(e.nodes, pool.base);
        assert_eq!(e.gpus, 8);
        // One hour at the base burn rate costs exactly that rate.
        let base_rate: f64 = pool.base.iter().map(|&n| pool.node_price(n)).sum();
        assert!((e.cost - base_rate).abs() < 1e-12);

        // Acquire a spot node: the rate goes up by exactly its spot price.
        pool.cluster.activate_node(pool.spot[0]).unwrap();
        ledger.charge(1, &pool, &pool.cluster, SimDuration::from_secs(1800));
        let e1 = &ledger.entries[1];
        let spot_rate = pool.node_price(pool.spot[0]);
        assert!((e1.rate_per_hour - (base_rate + spot_rate)).abs() < 1e-12);
        assert!((e1.cost - e1.rate_per_hour * 0.5).abs() < 1e-12);

        // The invariant the CI asserts: entries sum to the total.
        let sum: f64 = ledger.entries.iter().map(|e| e.cost).sum();
        assert_eq!(sum, ledger.total());
        assert_eq!(ledger.total_duration(), SimDuration::from_secs(5400));
        assert!(ledger.mean_rate_per_hour() > base_rate);
    }
}
