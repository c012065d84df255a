//! Instance summary statistics (experiment E-T1).
//!
//! The paper's §3.3 in-text claims about its instance — 20 BPs, 4674
//! logical links, per-BP shares between ~2% and ~12% — are exactly what
//! [`TopologyStats`] reports, so the generator can be checked against them.

use crate::ids::BpId;
use crate::model::PocTopology;
use serde::{Deserialize, Serialize};

/// Summary of a generated instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TopologyStats {
    pub n_cities: usize,
    pub n_bps: usize,
    pub n_routers: usize,
    pub n_bp_links: usize,
    pub n_virtual_links: usize,
    /// (BP, link count, share of BP links) sorted by descending share.
    pub bp_shares: Vec<(BpId, usize, f64)>,
    pub total_capacity_gbps: f64,
    pub mean_link_distance_km: f64,
}

impl TopologyStats {
    pub fn compute(topo: &PocTopology) -> Self {
        let per_bp = topo.links_per_bp();
        let n_bp_links: usize = per_bp.values().sum();
        let n_virtual = topo.n_links() - n_bp_links;
        let mut bp_shares: Vec<(BpId, usize, f64)> = per_bp
            .into_iter()
            .map(|(bp, n)| {
                (bp, n, if n_bp_links == 0 { 0.0 } else { n as f64 / n_bp_links as f64 })
            })
            .collect();
        bp_shares.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let total_capacity_gbps = topo.links.iter().map(|l| l.capacity_gbps).sum();
        let mean_link_distance_km = if topo.links.is_empty() {
            0.0
        } else {
            topo.links.iter().map(|l| l.distance_km).sum::<f64>() / topo.n_links() as f64
        };
        Self {
            n_cities: topo.cities.len(),
            n_bps: topo.bps.len(),
            n_routers: topo.n_routers(),
            n_bp_links,
            n_virtual_links: n_virtual,
            bp_shares,
            total_capacity_gbps,
            mean_link_distance_km,
        }
    }

    /// Largest / smallest BP shares of offered links, as fractions.
    pub fn share_range(&self) -> (f64, f64) {
        let max = self.bp_shares.first().map(|x| x.2).unwrap_or(0.0);
        let min = self.bp_shares.last().map(|x| x.2).unwrap_or(0.0);
        (min, max)
    }

    /// Render a small human-readable table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "cities={} bps={} routers={} bp_links={} virtual_links={}\n",
            self.n_cities, self.n_bps, self.n_routers, self.n_bp_links, self.n_virtual_links
        ));
        s.push_str("BP     links   share\n");
        for (bp, n, share) in &self.bp_shares {
            s.push_str(&format!("{bp:<6} {n:<7} {:.1}%\n", share * 100.0));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::two_bp_square;

    #[test]
    fn shares_sum_to_one() {
        let stats = TopologyStats::compute(&two_bp_square());
        let total: f64 = stats.bp_shares.iter().map(|x| x.2).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(stats.n_bp_links, 6);
        assert_eq!(stats.n_virtual_links, 0);
    }

    #[test]
    fn render_table_mentions_every_bp() {
        let stats = TopologyStats::compute(&two_bp_square());
        let table = stats.render_table();
        assert!(table.contains("bp0"));
        assert!(table.contains("bp1"));
    }
}

#[cfg(test)]
mod paper_instance_tests {
    use super::*;
    use crate::zoo::{ZooConfig, ZooGenerator};

    /// E-T1: the default instance reproduces the paper's §3.3 claims —
    /// 20 BPs, ≈4674 logical links, per-BP shares roughly 2%–12%.
    #[test]
    fn paper_defaults_match_section_3_3_claims() {
        let t = ZooGenerator::new(ZooConfig::paper()).generate();
        let s = TopologyStats::compute(&t);
        assert_eq!(s.n_bps, 20);
        assert!(
            (4200..=5200).contains(&s.n_bp_links),
            "expected ~4674 logical links, got {}",
            s.n_bp_links
        );
        let (min, max) = s.share_range();
        assert!((0.015..=0.035).contains(&min), "smallest share ~2%, got {:.3}", min);
        assert!((0.08..=0.14).contains(&max), "largest share ~12%, got {:.3}", max);
    }
}
