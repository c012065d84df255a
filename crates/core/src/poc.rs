//! The POC facade: membership, auction rounds, fabric installs, billing.
//!
//! Lifecycle of one operating period:
//!
//! 1. members attach ([`Poc::attach_lmp`], [`Poc::attach_direct_csp`],
//!    [`Poc::attach_hosted_csp`]) and sign the ToS;
//! 2. the POC estimates its traffic matrix and runs an auction round
//!    ([`Poc::run_auction_round`]) — leases are booked and the fabric
//!    installed;
//! 3. traffic flows (simulated by `poc-netsim`), producing per-member
//!    usage;
//! 4. [`Poc::billing_cycle`] settles: BPs and external ISPs are paid,
//!    members are charged usage-proportional transit fees sized to exactly
//!    cover the outlay — the nonprofit break-even discipline of §3.2.

use crate::entity::{EntityId, EntityKind, Registry, RegistryError};
use crate::fabric::ForwardingState;
use crate::lease::{Lease, LeaseBook, LeaseOpError};
use crate::settlement::{Account, Ledger};
use crate::tos::{TrafficPolicy, Verdict};
use poc_auction::{run_auction, AuctionOutcome, GreedySelector, Market};
use poc_flow::{Constraint, LinkSet};
use poc_topology::{PocTopology, RouterId};
use poc_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Contract premium applied to external-ISP virtual links.
const VIRTUAL_PRICE_FACTOR: f64 = 3.0;

/// POC operating parameters.
#[derive(Clone, Debug)]
pub struct PocConfig {
    /// Feasibility constraint for auction rounds.
    pub constraint: Constraint,
    /// Selection heuristic parameters.
    pub selector: GreedySelector,
}

impl Default for PocConfig {
    fn default() -> Self {
        Self { constraint: Constraint::BaseLoad, selector: GreedySelector::default() }
    }
}

/// Result of one billing cycle.
#[derive(Clone, Debug)]
pub struct BillingSummary {
    pub period: u32,
    /// Payments to BPs plus external-ISP contract costs.
    pub total_outlay: f64,
    /// Total billable usage, Gbit/s-period.
    pub total_usage_gbps: f64,
    /// Transit price per Gbit/s-period that exactly covers the outlay.
    pub unit_price: f64,
    /// Per-member charges.
    pub charges: Vec<(EntityId, f64)>,
    /// POC net position for the period (≈0: nonprofit break-even).
    pub poc_net: f64,
}

/// Errors from POC operations.
#[derive(Debug)]
pub enum PocError {
    Registry(RegistryError),
    Auction(poc_auction::vcg::AuctionError),
    /// Billing requested before any auction round installed a fabric.
    NoFabric,
    /// Usage reported for an entity that may not send traffic.
    NotAuthorized(EntityId),
    /// A usage entry that is negative or not finite: no charge prices it.
    InvalidUsage {
        entity: EntityId,
        gbps: f64,
    },
    /// The period's usage prices at no finite unit price: Σ usage
    /// overflowed, or is so small that outlay ÷ Σ usage did.
    Unbillable {
        total_usage_gbps: f64,
        total_outlay: f64,
    },
}

impl std::fmt::Display for PocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PocError::Registry(e) => write!(f, "registry: {e}"),
            PocError::Auction(e) => write!(f, "auction: {e}"),
            PocError::NoFabric => write!(f, "no fabric installed (run an auction round first)"),
            PocError::NotAuthorized(e) => write!(f, "{e} is not authorized to send traffic"),
            PocError::InvalidUsage { entity, gbps } => {
                write!(f, "usage of {gbps} Gbit/s for {entity} is not a finite, non-negative rate")
            }
            PocError::Unbillable { total_usage_gbps, total_outlay } => write!(
                f,
                "usage of {total_usage_gbps} Gbit/s against an outlay of {total_outlay} has no \
                 finite unit price"
            ),
        }
    }
}

impl std::error::Error for PocError {}

impl From<RegistryError> for PocError {
    fn from(e: RegistryError) -> Self {
        PocError::Registry(e)
    }
}

/// Everything a controller must persist to survive a restart: the
/// registry (who attached, ToS signatures), the money (ledger), the
/// lease book, recorded violations, the last auction outcome, and the
/// period counter. Deliberately excludes everything derivable at
/// restore time from the topology and config — the forwarding fabric is
/// reinstalled from `last_outcome`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PocState {
    pub registry: Registry,
    pub ledger: Ledger,
    pub leases: LeaseBook,
    pub violations: Vec<(EntityId, Verdict)>,
    pub last_outcome: Option<AuctionOutcome>,
    pub period: u32,
}

/// A cheap structural fingerprint of the instance a [`PocState`] was
/// taken against. Recovery refuses to load state into a facade built on
/// a different topology (replaying leases/routes against the wrong link
/// universe would corrupt everything downstream).
pub fn topology_fingerprint(topo: &PocTopology) -> u64 {
    // FNV-1a over the structural counts, link endpoints, and capacities
    // (shared machinery in `poc_topology::PocTopology::fingerprint`); not
    // cryptographic, just a cheap "same instance?" check.
    topo.fingerprint()
}

/// The registry name of the BP called `name`: [`Poc::new`] registers it and
/// billing pays it. Snapshots persist it, so it must not change.
fn bp_entity_name(name: &str) -> String {
    format!("bp:{name}")
}

/// The registry name of external ISP `isp`, registered and paid like
/// [`bp_entity_name`]'s.
fn isp_entity_name(isp: u32) -> String {
    format!("isp:ext{isp}")
}

/// The Public Option for the Core.
pub struct Poc {
    topo: PocTopology,
    config: PocConfig,
    registry: Registry,
    ledger: Ledger,
    leases: LeaseBook,
    /// The link set the fabric forwards on. Normally the last outcome's
    /// selection; during a lease transition it tracks the plan's
    /// intermediate set step by step. Changed only by `set_installed`.
    installed: Option<LinkSet>,
    /// Forwarding state over `installed`, built when first read after a
    /// change: a migration's lease steps do no shortest-path work.
    fabric: OnceLock<ForwardingState>,
    violations: Vec<(EntityId, Verdict)>,
    last_outcome: Option<AuctionOutcome>,
    /// The current round's demand and the outcome it cleared to, set by
    /// every `run_auction_round`. A transition stays in the round, so
    /// `commit_transition` keeps it; it is never persisted, so
    /// `restore_state` drops it.
    round: Option<(TrafficMatrix, AuctionOutcome)>,
    period: u32,
}

impl Poc {
    pub fn new(topo: PocTopology, config: PocConfig) -> Self {
        let mut registry = Registry::new();
        // Infrastructure roles are pre-registered from the topology.
        for bp in &topo.bps {
            registry
                .register(&bp_entity_name(&bp.name), EntityKind::BandwidthProvider { bp: bp.id })
                .expect("BP names unique by construction");
        }
        let mut isps: Vec<u32> = topo
            .links
            .iter()
            .filter_map(|l| match l.owner {
                poc_topology::LinkOwner::Virtual(i) => Some(i),
                _ => None,
            })
            .collect();
        isps.sort_unstable();
        isps.dedup();
        for isp in isps {
            registry
                .register(&isp_entity_name(isp), EntityKind::ExternalIsp { isp_index: isp })
                .expect("ISP names unique by construction");
        }
        Self {
            topo,
            config,
            registry,
            ledger: Ledger::new(),
            leases: LeaseBook::new(),
            installed: None,
            fabric: OnceLock::new(),
            violations: Vec::new(),
            last_outcome: None,
            round: None,
            period: 0,
        }
    }

    pub fn topo(&self) -> &PocTopology {
        &self.topo
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    pub fn leases(&self) -> &LeaseBook {
        &self.leases
    }

    pub fn fabric(&self) -> Option<&ForwardingState> {
        let links = self.installed.as_ref()?;
        Some(self.fabric.get_or_init(|| ForwardingState::install(&self.topo, links)))
    }

    /// The one place the installed set changes: the forwarding state
    /// derived from the old set goes with it.
    fn set_installed(&mut self, links: Option<LinkSet>) {
        self.installed = links;
        self.fabric = OnceLock::new();
    }

    /// The installed set, taken out to be edited and handed back to
    /// `set_installed`.
    fn take_installed(&mut self) -> LinkSet {
        self.installed.take().unwrap_or_else(|| LinkSet::empty(self.topo.links.len()))
    }

    pub fn last_outcome(&self) -> Option<&AuctionOutcome> {
        self.last_outcome.as_ref()
    }

    pub fn period(&self) -> u32 {
        self.period
    }

    /// Attach an LMP at a router; signs the ToS (attachment is conditional
    /// on accepting the peering conditions, §3.4).
    pub fn attach_lmp(&mut self, name: &str, router: RouterId) -> Result<EntityId, PocError> {
        let id = self.registry.register(name, EntityKind::Lmp { router })?;
        self.registry.sign_tos(id)?;
        Ok(id)
    }

    /// Attach a large CSP directly to the POC.
    pub fn attach_direct_csp(
        &mut self,
        name: &str,
        router: RouterId,
    ) -> Result<EntityId, PocError> {
        let id = self.registry.register(name, EntityKind::DirectCsp { router })?;
        self.registry.sign_tos(id)?;
        Ok(id)
    }

    /// Register a CSP that reaches the POC through an LMP.
    pub fn attach_hosted_csp(
        &mut self,
        name: &str,
        via_lmp: EntityId,
    ) -> Result<EntityId, PocError> {
        Ok(self.registry.register(name, EntityKind::HostedCsp { via_lmp })?)
    }

    /// Clear the auction on `tm`. The market is the fixed topology's
    /// truthful bids and the constraint and selector are the fixed config,
    /// so the outcome is a pure function of `tm`, and `tm` is the whole key
    /// under which [`Poc::compute_auction_outcome`] reuses the round's
    /// outcome. Any input a later change feeds into the market (a BP's
    /// recalls, say) must join that key.
    fn clear(&self, tm: &TrafficMatrix) -> Result<AuctionOutcome, PocError> {
        let market = Market::truthful(&self.topo, VIRTUAL_PRICE_FACTOR);
        run_auction(&market, tm, self.config.constraint, &self.config.selector)
            .map_err(PocError::Auction)
    }

    /// The outcome an auction on `tm` clears to, without touching any
    /// state: "what would the next round select". The safe-transition
    /// planner uses this to obtain the target link set before deciding how
    /// to migrate the live fabric onto it. When `tm` is bit for bit the
    /// current round's demand, the answer is that round's outcome, cloned,
    /// because a clear on the same demand recomputes it exactly; any other
    /// demand clears.
    pub fn compute_auction_outcome(&self, tm: &TrafficMatrix) -> Result<AuctionOutcome, PocError> {
        match &self.round {
            Some((demand, outcome)) if demand.same_bits(tm) => Ok(outcome.clone()),
            _ => self.clear(tm),
        }
    }

    /// Run one auction round against the upper-bound traffic matrix,
    /// ingest leases, install the fabric. The round always clears, and
    /// records its demand beside its outcome.
    pub fn run_auction_round(&mut self, tm: &TrafficMatrix) -> Result<&AuctionOutcome, PocError> {
        let outcome = self.clear(tm)?;
        self.leases.ingest_auction(&self.topo, &outcome, self.period);
        self.leases.mark_reauctioned();
        self.set_installed(Some(outcome.selected.clone()));
        self.round = Some((tm.clone(), outcome.clone()));
        self.last_outcome = Some(outcome);
        Ok(self.last_outcome.as_ref().expect("just set"))
    }

    /// The link set the forwarding fabric is currently installed on.
    pub fn installed_links(&self) -> Option<&LinkSet> {
        self.installed.as_ref()
    }

    /// Apply one transition step: bring `link` into the live fabric and,
    /// when it is a BP-owned link the new outcome selected, book its lease
    /// at the pro-rata price the outcome's settlement implies. Virtual
    /// (external-ISP) links carry no lease; only the fabric changes.
    ///
    /// Steps are surgical so a controller killed between any two of them
    /// recovers a `LeaseBook` consistent with the installed fabric.
    pub fn transition_add_link(
        &mut self,
        outcome: &AuctionOutcome,
        link: poc_topology::LinkId,
    ) -> Result<(), LeaseOpError> {
        if let Some(lease) = Lease::priced_from(&self.topo, outcome, link, self.period) {
            // Kept links keep their existing lease: adding one that is
            // already booked means the planner re-applied a step (replay
            // after a crash) — not an error, but do not double-book.
            match self.leases.add_lease(lease) {
                Ok(()) | Err(LeaseOpError::AlreadyLeased { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        let mut set = self.take_installed();
        set.insert(link);
        self.set_installed(Some(set));
        Ok(())
    }

    /// Apply one transition step: take `link` out of the live fabric and
    /// expire its lease. A link already being recalled by its BP is left
    /// to the recall machinery (`RecallInFlight`); the caller treats that
    /// as "removal already scheduled", not a failure. Virtual links and
    /// links with no active lease only change the fabric.
    pub fn transition_remove_link(
        &mut self,
        link: poc_topology::LinkId,
    ) -> Result<(), LeaseOpError> {
        match self.leases.remove_lease(link) {
            Ok(_) | Err(LeaseOpError::NoActiveLease { .. }) => {}
            Err(e) => return Err(e),
        }
        let mut set = self.take_installed();
        set.remove(link);
        self.set_installed(Some(set));
        Ok(())
    }

    /// Finalize a completed transition onto `outcome`: the fabric is
    /// already on the target set (the last step put it there), so this
    /// clears the re-auction flag and records the outcome as current.
    pub fn commit_transition(&mut self, outcome: AuctionOutcome) {
        self.leases.mark_reauctioned();
        self.set_installed(Some(outcome.selected.clone()));
        self.last_outcome = Some(outcome);
    }

    /// Atomically force the fabric back onto `links` (last-resort rollback
    /// when no step-by-step safe plan exists; also used by recovery to
    /// restore the pre-transition set in one install).
    pub fn force_install(&mut self, links: &LinkSet) {
        self.set_installed(Some(links.clone()));
    }

    pub fn config(&self) -> &PocConfig {
        &self.config
    }

    /// Settle one period. `usage` is billable usage per member (Gbit/s
    /// averaged over the period, sent + received). The POC prices transit
    /// at exactly outlay/usage — nonprofit break-even. Every entry must be
    /// a finite, non-negative rate; a refused cycle posts nothing.
    pub fn billing_cycle(&mut self, usage: &[(EntityId, f64)]) -> Result<BillingSummary, PocError> {
        let outcome = self.last_outcome.as_ref().ok_or(PocError::NoFabric)?;
        for &(id, gbps) in usage {
            if !self.registry.may_send_traffic(id) {
                return Err(PocError::NotAuthorized(id));
            }
            if !(gbps.is_finite() && gbps >= 0.0) {
                return Err(PocError::InvalidUsage { entity: id, gbps });
            }
        }
        let period = self.period;

        // Outlay: BP lease payments plus external-ISP contract costs for
        // selected virtual links, split per ISP pro-rata by their links'
        // costs. Everything is priced before anything is posted, so a
        // refused cycle leaves the ledger as it was.
        let lease_payments = self.leases.payments_due(period);
        let mut total_outlay = 0.0;
        for (_, amount) in &lease_payments {
            total_outlay += amount;
        }
        let market = Market::truthful(&self.topo, VIRTUAL_PRICE_FACTOR);
        let virtual_cost = market.virtual_cost(&outcome.selected);
        let mut isp_payments: std::collections::BTreeMap<u32, f64> = Default::default();
        if virtual_cost > 0.0 {
            for l in outcome.selected.iter() {
                if let poc_topology::LinkOwner::Virtual(i) = self.topo.link(l).owner {
                    *isp_payments.entry(i).or_insert(0.0) += market.unit_price(l);
                }
            }
            total_outlay += virtual_cost;
        }

        // Charges: usage-proportional, summing exactly to the outlay.
        let total_usage_gbps: f64 = usage.iter().map(|(_, u)| u).sum();
        let unit_price = if total_usage_gbps > 0.0 { total_outlay / total_usage_gbps } else { 0.0 };
        if !total_usage_gbps.is_finite() || !unit_price.is_finite() {
            return Err(PocError::Unbillable { total_usage_gbps, total_outlay });
        }

        for (bp, amount) in lease_payments {
            let bp_entity = self
                .registry
                .by_name(&bp_entity_name(&self.topo.bps[bp.index()].name))
                .expect("BPs pre-registered")
                .id;
            self.ledger.post(
                period,
                Account::Poc,
                Account::Entity(bp_entity),
                amount,
                &format!("lease payment to {bp}"),
            );
        }
        for (isp, amount) in isp_payments {
            let isp_entity =
                self.registry.by_name(&isp_entity_name(isp)).expect("ISPs pre-registered").id;
            self.ledger.post(
                period,
                Account::Poc,
                Account::Entity(isp_entity),
                amount,
                &format!("virtual-link contract, ext ISP {isp}"),
            );
        }
        let mut charges = Vec::with_capacity(usage.len());
        for &(id, gbps) in usage {
            let charge = gbps * unit_price;
            self.ledger.post(
                period,
                Account::Entity(id),
                Account::Poc,
                charge,
                "transit (usage-based)",
            );
            charges.push((id, charge));
        }

        let (inflow, outflow) = self.ledger.poc_period_flows(period);
        self.period += 1;
        Ok(BillingSummary {
            period,
            total_outlay,
            total_usage_gbps,
            unit_price,
            charges,
            poc_net: inflow - outflow,
        })
    }

    /// A BP recalls one of its leased links (the §3.3 overbuy-then-recall
    /// story), with `notice_periods` of notice. Returns whether a matching
    /// active lease existed; when it did, a re-auction is flagged.
    pub fn recall_link(
        &mut self,
        bp: poc_topology::BpId,
        link: poc_topology::LinkId,
        notice_periods: u32,
    ) -> bool {
        self.leases.recall(bp, link, self.period, notice_periods)
    }

    /// Whether a recall/expiry has made the installed fabric stale.
    pub fn reauction_needed(&self) -> bool {
        self.leases.reauction_needed()
    }

    /// Advance the lease book to the current period, expiring recalled
    /// leases whose notice has run out. Returns the expired links.
    pub fn expire_leases(&mut self) -> Vec<poc_topology::LinkId> {
        self.leases.advance_to(self.period)
    }

    /// Review a traffic policy against the ToS; violations are recorded.
    pub fn review_policy(&mut self, policy: &TrafficPolicy) -> Verdict {
        let verdict = crate::tos::review(policy);
        if verdict.is_violation() {
            self.violations.push((policy.lmp, verdict.clone()));
        }
        verdict
    }

    /// All recorded violations.
    pub fn violations(&self) -> &[(EntityId, Verdict)] {
        &self.violations
    }

    /// Export the persistent state (for snapshots). The forwarding
    /// fabric is excluded: [`Poc::restore_state`] rebuilds it.
    pub fn export_state(&self) -> PocState {
        PocState {
            registry: self.registry.clone(),
            ledger: self.ledger.clone(),
            leases: self.leases.clone(),
            violations: self.violations.clone(),
            last_outcome: self.last_outcome.clone(),
            period: self.period,
        }
    }

    /// Replace the persistent state wholesale (recovery). The fabric is
    /// reinstalled from the restored outcome's selected set, so a
    /// recovered controller answers `GetPath` identically to the
    /// pre-crash one. The round's record is not state and is dropped: the
    /// next target at the round's demand clears again.
    pub fn restore_state(&mut self, state: PocState) {
        let PocState { registry, ledger, leases, violations, last_outcome, period } = state;
        self.round = None;
        self.registry = registry;
        self.ledger = ledger;
        self.leases = leases;
        self.violations = violations;
        self.set_installed(last_outcome.as_ref().map(|o| o.selected.clone()));
        self.last_outcome = last_outcome;
        self.period = period;
    }

    /// Path through the installed fabric between two members' routers.
    pub fn member_path(
        &self,
        from: EntityId,
        to: EntityId,
    ) -> Result<Option<Vec<poc_topology::LinkId>>, PocError> {
        let fabric = self.fabric().ok_or(PocError::NoFabric)?;
        let (Some(a), Some(b)) =
            (self.registry.attachment_router(from), self.registry.attachment_router(to))
        else {
            return Ok(None);
        };
        Ok(fabric.path(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tos::{PolicyAction, PolicyBasis, PolicyMatch};
    use poc_topology::builder::two_bp_square;
    use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
    use poc_topology::CostModel;
    use proptest::prelude::*;

    fn poc() -> Poc {
        let mut t = two_bp_square();
        attach_external_isps(
            &mut t,
            &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
            &CostModel::default(),
        );
        Poc::new(t, PocConfig::default())
    }

    fn demand(n: usize) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zero(n);
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(1), RouterId(2), 5.0);
        tm
    }

    #[test]
    fn bps_and_isps_preregistered() {
        let p = poc();
        assert!(p.registry().by_name("bp:BP-A").is_some());
        assert!(p.registry().by_name("bp:BP-B").is_some());
        assert!(p.registry().by_name("isp:ext0").is_some());
    }

    #[test]
    fn auction_round_installs_fabric_and_leases() {
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        let out = p.run_auction_round(&tm).unwrap();
        assert!(!out.selected.is_empty());
        let n_selected = out.selected.len();
        assert!(p.fabric().is_some());
        assert!(p.leases().leases().len() <= n_selected); // virtual links not leased
    }

    #[test]
    fn billing_breaks_even_and_conserves() {
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        p.run_auction_round(&tm).unwrap();
        let lmp1 = p.attach_lmp("lmp-west", RouterId(0)).unwrap();
        let lmp2 = p.attach_lmp("lmp-east", RouterId(1)).unwrap();
        let summary = p.billing_cycle(&[(lmp1, 12.0), (lmp2, 8.0)]).unwrap();
        assert!(summary.total_outlay > 0.0);
        assert!((summary.poc_net).abs() < 1e-6, "nonprofit must break even: {summary:?}");
        assert!((p.ledger().conservation_error()).abs() < 1e-9);
        // Charges proportional to usage.
        assert!((summary.charges[0].1 / summary.charges[1].1 - 1.5).abs() < 1e-9);
        assert_eq!(summary.period, 0);
        assert_eq!(p.period(), 1);
    }

    #[test]
    fn re_auctions_bill_each_lease_once_per_period() {
        // Each period re-runs the round on the same demand and bills it: the
        // BPs are owed, and the members charged, the same every period, not
        // once more for every round run so far.
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        let lmp = p.attach_lmp("lmp", RouterId(0)).unwrap();
        let mut periods = Vec::new();
        for _ in 0..3 {
            p.run_auction_round(&tm).unwrap();
            let due = p.leases().payments_due(p.period());
            let outlay = p.billing_cycle(&[(lmp, 10.0)]).unwrap().total_outlay;
            periods.push((p.leases().leases().len(), due, outlay));
        }
        assert!(periods.windows(2).all(|w| w[0] == w[1]), "{periods:?}");
    }

    #[test]
    fn billing_requires_fabric() {
        let mut p = poc();
        let lmp = p.attach_lmp("lmp", RouterId(0)).unwrap();
        assert!(matches!(p.billing_cycle(&[(lmp, 1.0)]), Err(PocError::NoFabric)));
    }

    #[test]
    fn billing_rejects_unauthorized_senders() {
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        p.run_auction_round(&tm).unwrap();
        let bp = p.registry().by_name("bp:BP-A").unwrap().id;
        assert!(matches!(p.billing_cycle(&[(bp, 1.0)]), Err(PocError::NotAuthorized(_))));
    }

    #[test]
    fn billing_refuses_a_negative_or_non_finite_entry_before_posting() {
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        p.run_auction_round(&tm).unwrap();
        let a = p.attach_lmp("a", RouterId(0)).unwrap();
        let b = p.attach_lmp("b", RouterId(1)).unwrap();
        let accounts: Vec<Account> = std::iter::once(Account::Poc)
            .chain((0..p.registry().len() as u32).map(|i| Account::Entity(EntityId(i))))
            .collect();
        let balances =
            |p: &Poc| accounts.iter().map(|&x| p.ledger().balance(x)).collect::<Vec<_>>();
        let (postings, before) = (p.ledger().postings().to_vec(), balances(&p));
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = p.billing_cycle(&[(a, 5.0), (b, bad)]).unwrap_err();
            assert!(matches!(err, PocError::InvalidUsage { entity, .. } if entity == b), "{err}");
            assert!(err.to_string().contains("not a finite, non-negative rate"), "{err}");
            assert_eq!(p.ledger().postings(), &postings[..], "{bad}");
            assert_eq!(balances(&p), before, "{bad}");
            assert_eq!(p.period(), 0, "{bad}");
        }
        // The same members bill once the entry is a rate.
        p.billing_cycle(&[(a, 5.0), (b, 1.0)]).unwrap();
        assert_eq!(p.period(), 1);
    }

    #[test]
    fn policy_violations_recorded() {
        let mut p = poc();
        let lmp = p.attach_lmp("lmp", RouterId(0)).unwrap();
        let csp = p.attach_hosted_csp("csp", lmp).unwrap();
        let v = p.review_policy(&TrafficPolicy {
            lmp,
            matches: PolicyMatch { source: Some(csp), ..PolicyMatch::any() },
            action: PolicyAction::Block,
            basis: PolicyBasis::Commercial,
        });
        assert!(v.is_violation());
        assert_eq!(p.violations().len(), 1);
    }

    #[test]
    fn recall_via_facade_flags_and_expires() {
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        p.run_auction_round(&tm).unwrap();
        let lease = p.leases().leases()[0].clone();
        assert!(!p.reauction_needed());
        assert!(p.recall_link(lease.bp, lease.link, 0));
        assert!(p.reauction_needed());
        // Notice 0: expires as soon as leases advance to the current period.
        let expired = p.expire_leases();
        assert_eq!(expired, vec![lease.link]);
        // Unknown recall is a no-op.
        assert!(!p.recall_link(poc_topology::BpId(42), poc_topology::LinkId(0), 1));
    }

    #[test]
    fn state_export_restore_round_trips_through_json() {
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        p.run_auction_round(&tm).unwrap();
        let lmp1 = p.attach_lmp("lmp-west", RouterId(0)).unwrap();
        let lmp2 = p.attach_lmp("lmp-east", RouterId(1)).unwrap();
        p.billing_cycle(&[(lmp1, 12.0), (lmp2, 8.0)]).unwrap();
        let lease = p.leases().leases()[0].clone();
        p.recall_link(lease.bp, lease.link, 1);

        let exported = p.export_state();
        let json = serde_json::to_vec(&exported).unwrap();
        let back: PocState = serde_json::from_slice(&json).unwrap();

        // Restore into a fresh facade over the same topology.
        let mut fresh = poc();
        fresh.restore_state(back);
        assert_eq!(fresh.period(), p.period());
        assert_eq!(
            fresh.ledger().balance(Account::Entity(lmp1)),
            p.ledger().balance(Account::Entity(lmp1))
        );
        assert_eq!(fresh.leases().leases().len(), p.leases().leases().len());
        assert!(fresh.reauction_needed());
        assert!(fresh.fabric().is_some(), "fabric reinstalled from the restored outcome");
        assert_eq!(
            fresh.last_outcome().unwrap().selected,
            p.last_outcome().unwrap().selected,
            "identical selected set after restore"
        );
        // The restored registry still rejects duplicate names minted
        // before the snapshot.
        assert!(fresh.attach_lmp("lmp-west", RouterId(0)).is_err());
        // And the restored fabric answers paths like the original.
        assert_eq!(fresh.member_path(lmp1, lmp2).unwrap(), p.member_path(lmp1, lmp2).unwrap());
    }

    #[test]
    fn topology_fingerprint_distinguishes_instances() {
        let small = two_bp_square();
        assert_eq!(topology_fingerprint(&small), topology_fingerprint(&two_bp_square()));
        let mut bigger = two_bp_square();
        attach_external_isps(
            &mut bigger,
            &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
            &CostModel::default(),
        );
        assert_ne!(topology_fingerprint(&small), topology_fingerprint(&bigger));
    }

    #[test]
    fn transition_steps_keep_leases_consistent_with_fabric() {
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        p.run_auction_round(&tm).unwrap();
        let original = p.installed_links().unwrap().clone();
        let outcome = p.last_outcome().unwrap().clone();
        let universe = p.topo().links.len();
        let live_before = p.leases().active_links(universe, p.period()).len();

        // Remove one leased link, then add it back from the same outcome.
        let lease = p.leases().leases()[0].clone();
        p.transition_remove_link(lease.link).unwrap();
        assert!(!p.installed_links().unwrap().contains(lease.link));
        assert_eq!(p.leases().active_links(universe, p.period()).len(), live_before - 1);

        p.transition_add_link(&outcome, lease.link).unwrap();
        assert!(p.installed_links().unwrap().contains(lease.link));
        assert_eq!(p.leases().active_links(universe, p.period()).len(), live_before);
        assert_eq!(p.installed_links().unwrap(), &original);

        // Re-applying an add (crash replay) must not double-book.
        p.transition_add_link(&outcome, lease.link).unwrap();
        assert_eq!(p.leases().active_links(universe, p.period()).len(), live_before);

        // Removing a link with no lease (virtual or never leased) only
        // touches the fabric.
        let unleased = (0..universe)
            .map(poc_topology::LinkId::from_index)
            .find(|l| !p.leases().active_links(universe, p.period()).contains(*l))
            .unwrap();
        p.transition_remove_link(unleased).unwrap();
        assert!(!p.installed_links().unwrap().contains(unleased));

        // Commit restores the outcome's exact selected set.
        p.commit_transition(outcome.clone());
        assert_eq!(p.installed_links().unwrap(), &outcome.selected);
        assert!(!p.reauction_needed());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The fabric is derived from the installed set on first read, so
        /// whatever lease steps ran since the last read, a path query
        /// answers as a fabric installed on that set now. Re-auctions (at
        /// ×1, ×1.5 or ×2 demand) and BP recalls interleave with the steps,
        /// and no link ever holds two live leases: after a re-auction every
        /// selected BP link holds one, and every active lease is on a
        /// selected link (a recalled one lives out its notice).
        #[test]
        fn member_path_follows_any_interleaving_of_lease_steps(
            steps in prop::collection::vec((0u8..4, 0usize..1 << 16), 0..24),
            read_every in 1usize..5,
        ) {
            use crate::lease::LeaseState;
            use poc_topology::{LinkId, LinkOwner};
            let mut p = poc();
            let tm = demand(p.topo().n_routers());
            p.run_auction_round(&tm).unwrap();
            let outcome = p.last_outcome().unwrap().clone();
            let members: Vec<(EntityId, RouterId)> = (0..p.topo().n_routers())
                .map(|i| {
                    let router = RouterId::from_index(i);
                    (p.attach_lmp(&format!("lmp{i}"), router).unwrap(), router)
                })
                .collect();
            let n_links = p.topo().n_links();
            for (i, (kind, raw)) in steps.into_iter().enumerate() {
                let link = LinkId::from_index(raw % n_links);
                match kind {
                    0 => match p.transition_remove_link(link) {
                        Ok(()) | Err(LeaseOpError::RecallInFlight { .. }) => {}
                        Err(e) => panic!("remove {link}: {e}"),
                    },
                    1 => p.transition_add_link(&outcome, link).unwrap(),
                    2 => {
                        let mut scaled = tm.clone();
                        scaled.scale(1.0 + (raw % 3) as f64 * 0.5);
                        p.run_auction_round(&scaled).unwrap();
                    }
                    _ => {
                        let owner = p.topo().link(link).owner;
                        if let LinkOwner::Bp(bp) = owner {
                            p.recall_link(bp, link, 1);
                        }
                    }
                }
                let selected = p.last_outcome().unwrap().selected.clone();
                for l in (0..n_links).map(LinkId::from_index) {
                    let on_link = || p.leases().leases().iter().filter(move |x| x.link == l);
                    let live = on_link().filter(|x| x.state != LeaseState::Expired).count();
                    prop_assert!(live <= 1, "{l} holds {live} live leases");
                    if kind == 2 {
                        let bp_selected = selected.contains(l)
                            && matches!(p.topo().link(l).owner, LinkOwner::Bp(_));
                        prop_assert!(live == 1 || !bp_selected, "{l} selected, unleased");
                        let active = on_link().any(|x| x.state == LeaseState::Active);
                        prop_assert!(!active || selected.contains(l), "{l} active, unselected");
                    }
                }
                if i % read_every != 0 {
                    continue;
                }
                let fresh = ForwardingState::install(p.topo(), p.installed_links().unwrap());
                for (&(a, ra), &(b, rb)) in
                    members.iter().flat_map(|a| members.iter().map(move |b| (a, b)))
                {
                    prop_assert_eq!(p.member_path(a, b).unwrap(), fresh.path(ra, rb));
                }
            }
        }
    }

    #[test]
    fn member_path_through_fabric() {
        let mut p = poc();
        let tm = demand(p.topo().n_routers());
        p.run_auction_round(&tm).unwrap();
        let a = p.attach_lmp("a", RouterId(0)).unwrap();
        let b = p.attach_lmp("b", RouterId(1)).unwrap();
        let path = p.member_path(a, b).unwrap();
        assert!(path.is_some());
        assert!(!path.unwrap().is_empty());
    }
}
