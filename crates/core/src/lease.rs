//! Lease lifecycle: auction outcomes become leases; BPs can recall links.
//!
//! §3.3's provisioning story: large CSPs "can overbuy, and then lease out
//! (on a temporary basis) their excess bandwidth but can quickly recall it
//! from the POC when needed". A recall deactivates the lease after its
//! notice period and flags that a re-auction is due.

use poc_auction::{AuctionOutcome, BpSettlement};
use poc_flow::LinkSet;
use poc_topology::{BpId, LinkId, LinkOwner, PocTopology};
use serde::{Deserialize, Serialize};

/// State of one lease.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum LeaseState {
    Active,
    /// Recall requested; the lease dies at the end of `effective_period`.
    Recalled {
        effective_period: u32,
    },
    Expired,
}

/// One leased link.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Lease {
    pub link: LinkId,
    pub bp: BpId,
    /// This link's share of the BP's monthly VCG payment (allocated
    /// pro-rata by declared unit price — the VCG payment itself is per-BP).
    pub monthly_payment: f64,
    pub started_period: u32,
    pub state: LeaseState,
}

/// Why a surgical lease operation (transition executor migrating one link
/// at a time) was refused. Typed so the executor can branch: a recall in
/// flight is "leave it to the recall machinery", not a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseOpError {
    /// No active lease exists on the link.
    NoActiveLease { link: LinkId },
    /// The link's lease is already dying through a BP recall: it expires
    /// at the end of `effective_period` and must not be removed a second
    /// time by a transition plan that also scheduled it.
    RecallInFlight { link: LinkId, bp: BpId, effective_period: u32 },
    /// A live (active or recalled-but-not-yet-expired) lease already
    /// covers the link.
    AlreadyLeased { link: LinkId },
}

impl std::fmt::Display for LeaseOpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseOpError::NoActiveLease { link } => write!(f, "no active lease on {link}"),
            LeaseOpError::RecallInFlight { link, bp, effective_period } => write!(
                f,
                "{link} is already being recalled by {bp} (effective period {effective_period})"
            ),
            LeaseOpError::AlreadyLeased { link } => write!(f, "{link} already has a live lease"),
        }
    }
}

impl std::error::Error for LeaseOpError {}

/// The book of active and historical leases.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LeaseBook {
    leases: Vec<Lease>,
    /// Set when a recall or expiry means the installed fabric no longer
    /// matches the lease book.
    reauction_needed: bool,
}

impl LeaseBook {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest an auction outcome. Afterwards every selected BP link holds
    /// exactly one live lease and every active lease is on a selected
    /// link, priced by allocating the BP's payment pro-rata by the
    /// topology's declared cost (virtual links are contract-priced and not
    /// leased through the book):
    /// - a link already under an active lease keeps it, at this round's
    ///   price;
    /// - a link under a BP recall keeps its recalled lease, whose lifecycle
    ///   the recall owns, and gets no second one;
    /// - an active lease on a link the round dropped expires.
    pub fn ingest_auction(&mut self, topo: &PocTopology, outcome: &AuctionOutcome, period: u32) {
        let mut priced: std::collections::BTreeMap<LinkId, Lease> = Default::default();
        for settlement in &outcome.settlements {
            if settlement.n_selected_links == 0 {
                continue;
            }
            let fresh = Lease::priced_for(topo, outcome, settlement, period);
            priced.extend(fresh.map(|lease| (lease.link, lease)));
        }
        for lease in &mut self.leases {
            match lease.state {
                LeaseState::Active => match priced.remove(&lease.link) {
                    Some(fresh) => lease.monthly_payment = fresh.monthly_payment,
                    None => lease.state = LeaseState::Expired,
                },
                LeaseState::Recalled { .. } => {
                    priced.remove(&lease.link);
                }
                LeaseState::Expired => {}
            }
        }
        self.leases.extend(priced.into_values());
    }

    /// All leases (including recalled/expired).
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    /// Links with an active lease as of `period`.
    pub fn active_links(&self, universe: usize, period: u32) -> LinkSet {
        LinkSet::from_links(
            universe,
            self.leases.iter().filter(|l| l.is_active_in(period)).map(|l| l.link),
        )
    }

    /// Monthly payment owed to each BP for leases active in `period`.
    pub fn payments_due(&self, period: u32) -> Vec<(BpId, f64)> {
        let mut by_bp: std::collections::BTreeMap<BpId, f64> = Default::default();
        for l in &self.leases {
            if l.is_active_in(period) {
                *by_bp.entry(l.bp).or_insert(0.0) += l.monthly_payment;
            }
        }
        by_bp.into_iter().collect()
    }

    /// BP recalls one of its leased links with `notice_periods` of notice.
    /// Returns whether a matching active lease was found. A notice that
    /// runs past the last period keeps the lease until then.
    pub fn recall(&mut self, bp: BpId, link: LinkId, now: u32, notice_periods: u32) -> bool {
        let mut found = false;
        for l in &mut self.leases {
            if l.bp == bp && l.link == link && matches!(l.state, LeaseState::Active) {
                l.state =
                    LeaseState::Recalled { effective_period: now.saturating_add(notice_periods) };
                found = true;
            }
        }
        if found {
            self.reauction_needed = true;
        }
        found
    }

    /// Advance the book to `period`, expiring recalled leases that reached
    /// their effective period. Returns the links that just expired.
    pub fn advance_to(&mut self, period: u32) -> Vec<LinkId> {
        let mut expired = Vec::new();
        for l in &mut self.leases {
            if let LeaseState::Recalled { effective_period } = l.state {
                if period >= effective_period {
                    l.state = LeaseState::Expired;
                    expired.push(l.link);
                }
            }
        }
        expired
    }

    /// Retire the active lease on `link` (a transition step removing a
    /// link that lost the re-auction). Returns the retired lease.
    ///
    /// A lease whose BP already recalled it is *guarded*: the recall owns
    /// the remainder of its lifecycle (it expires at its notice deadline,
    /// and the BP is still owed the notice-period payments), so a plan
    /// that also scheduled the link for removal gets a typed
    /// [`LeaseOpError::RecallInFlight`] instead of double-removing it.
    pub(crate) fn remove_lease(&mut self, link: LinkId) -> Result<Lease, LeaseOpError> {
        let mut recalled: Option<(BpId, u32)> = None;
        for l in &mut self.leases {
            if l.link == link {
                match l.state {
                    LeaseState::Active => {
                        l.state = LeaseState::Expired;
                        return Ok(l.clone());
                    }
                    LeaseState::Recalled { effective_period } => {
                        recalled = Some((l.bp, effective_period));
                    }
                    LeaseState::Expired => {}
                }
            }
        }
        match recalled {
            Some((bp, effective_period)) => {
                Err(LeaseOpError::RecallInFlight { link, bp, effective_period })
            }
            None => Err(LeaseOpError::NoActiveLease { link }),
        }
    }

    /// Book a single lease (a transition step bringing a newly won link
    /// into service). Refused when a live lease already covers the link —
    /// adding a second would double-pay the BP.
    pub(crate) fn add_lease(&mut self, lease: Lease) -> Result<(), LeaseOpError> {
        let live = self.leases.iter().any(|l| {
            l.link == lease.link
                && matches!(l.state, LeaseState::Active | LeaseState::Recalled { .. })
        });
        if live {
            return Err(LeaseOpError::AlreadyLeased { link: lease.link });
        }
        self.leases.push(lease);
        Ok(())
    }

    /// Whether the installed fabric is stale (a recall/expiry happened
    /// since the last auction ingest).
    pub fn reauction_needed(&self) -> bool {
        self.reauction_needed
    }

    /// Clear the re-auction flag (called after a fresh auction round).
    pub(crate) fn mark_reauctioned(&mut self) {
        self.reauction_needed = false;
    }
}

impl Lease {
    /// The leases one BP's settlement buys: its VCG payment split pro rata
    /// by declared cost over its links in `outcome.selected`, with the
    /// weights summed in selection order. The one pricing rule of the book:
    /// [`LeaseBook::ingest_auction`] and [`Lease::priced_from`] both take
    /// their leases from here.
    fn priced_for<'t>(
        topo: &'t PocTopology,
        outcome: &AuctionOutcome,
        settlement: &BpSettlement,
        period: u32,
    ) -> impl Iterator<Item = Lease> + 't {
        let (bp, payment) = (settlement.bp, settlement.payment);
        let links: Vec<LinkId> =
            outcome.selected.iter().filter(|&l| topo.link(l).owner == LinkOwner::Bp(bp)).collect();
        let weight_total: f64 = links.iter().map(|&l| topo.link(l).true_monthly_cost).sum();
        links.into_iter().map(move |link| {
            let w = topo.link(link).true_monthly_cost;
            let share = if weight_total > 0.0 { w / weight_total } else { 0.0 };
            Lease {
                link,
                bp,
                monthly_payment: payment * share,
                started_period: period,
                state: LeaseState::Active,
            }
        })
    }

    /// Price a single link's lease from an auction outcome by
    /// [`Lease::priced_for`]'s rule. `None` for links the outcome did not
    /// select or that no BP owns (virtual links are contract-priced, not
    /// leased).
    pub(crate) fn priced_from(
        topo: &PocTopology,
        outcome: &AuctionOutcome,
        link: LinkId,
        period: u32,
    ) -> Option<Lease> {
        let LinkOwner::Bp(bp) = topo.link(link).owner else { return None };
        let settlement = outcome.settlement(bp)?;
        Lease::priced_for(topo, outcome, settlement, period).find(|l| l.link == link)
    }

    fn is_active_in(&self, period: u32) -> bool {
        match self.state {
            LeaseState::Active => true,
            LeaseState::Recalled { effective_period } => period < effective_period,
            LeaseState::Expired => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_auction::{run_auction, ExhaustiveSelector, Market};
    use poc_flow::Constraint;
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;
    use poc_traffic::TrafficMatrix;

    fn outcome_and_topo() -> (poc_topology::PocTopology, AuctionOutcome) {
        let t = two_bp_square();
        let m = Market::truthful(&t, 3.0);
        let mut tm = TrafficMatrix::zero(t.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(1), RouterId(2), 5.0);
        let out = run_auction(&m, &tm, Constraint::BaseLoad, &ExhaustiveSelector).unwrap();
        (t, out)
    }

    #[test]
    fn ingest_creates_leases_matching_selection() {
        let (t, out) = outcome_and_topo();
        let mut book = LeaseBook::new();
        book.ingest_auction(&t, &out, 1);
        assert_eq!(book.leases().len(), out.selected.len());
        let active = book.active_links(t.n_links(), 1);
        assert_eq!(active, out.selected);
    }

    #[test]
    fn payments_allocate_full_vcg_amount() {
        let (t, out) = outcome_and_topo();
        let mut book = LeaseBook::new();
        book.ingest_auction(&t, &out, 1);
        let due: f64 = book.payments_due(1).iter().map(|(_, p)| p).sum();
        let paid: f64 = out.settlements.iter().map(|s| s.payment).sum();
        assert!((due - paid).abs() < 1e-9, "due {due} vs VCG {paid}");
    }

    #[test]
    fn recall_lifecycle() {
        let (t, out) = outcome_and_topo();
        let mut book = LeaseBook::new();
        book.ingest_auction(&t, &out, 1);
        let lease = book.leases()[0].clone();
        assert!(!book.reauction_needed());
        assert!(book.recall(lease.bp, lease.link, 2, 1));
        assert!(book.reauction_needed());
        // Still active during the notice period.
        assert!(book.active_links(t.n_links(), 2).contains(lease.link));
        // Expired after.
        let expired = book.advance_to(3);
        assert_eq!(expired, vec![lease.link]);
        assert!(!book.active_links(t.n_links(), 3).contains(lease.link));
    }

    #[test]
    fn longest_recall_notice_keeps_the_lease_active_and_paid() {
        let (t, out) = outcome_and_topo();
        let mut book = LeaseBook::new();
        book.ingest_auction(&t, &out, 1);
        let lease = book.leases()[0].clone();
        let due = book.payments_due(1);
        assert!(book.recall(lease.bp, lease.link, 1, u32::MAX));
        assert_eq!(book.leases()[0].state, LeaseState::Recalled { effective_period: u32::MAX });
        assert!(book.active_links(t.n_links(), 1).contains(lease.link));
        assert_eq!(book.payments_due(1), due);
        assert!(book.advance_to(2).is_empty());
    }

    #[test]
    fn recall_unknown_link_is_noop() {
        let (t, out) = outcome_and_topo();
        let mut book = LeaseBook::new();
        book.ingest_auction(&t, &out, 1);
        assert!(!book.recall(BpId(9), LinkId(0), 2, 1));
        assert!(!book.reauction_needed());
        drop(t);
    }

    #[test]
    fn recalled_lease_is_guarded_against_double_removal() {
        // The recall-during-transition edge: a BP recalls a link while an
        // active plan has the same link scheduled for removal. The remove
        // must be refused with a typed guard, leaving the recall to run
        // out its notice period — not double-removed.
        let (t, out) = outcome_and_topo();
        let mut book = LeaseBook::new();
        book.ingest_auction(&t, &out, 1);
        let lease = book.leases()[0].clone();
        assert!(book.recall(lease.bp, lease.link, 2, 3));
        let err = book.remove_lease(lease.link).unwrap_err();
        assert_eq!(
            err,
            LeaseOpError::RecallInFlight { link: lease.link, bp: lease.bp, effective_period: 5 }
        );
        // The lease is still dying through its recall, once: active during
        // the notice window, gone after, and still owed notice payments.
        assert!(book.active_links(t.n_links(), 4).contains(lease.link));
        assert!(!book.active_links(t.n_links(), 5).contains(lease.link));
        let live = book
            .leases()
            .iter()
            .filter(|l| l.link == lease.link && !matches!(l.state, LeaseState::Expired))
            .count();
        assert_eq!(live, 1, "exactly one live lease survives the refused removal");
    }

    #[test]
    fn remove_and_add_lease_round_trip_with_typed_guards() {
        let (t, out) = outcome_and_topo();
        let mut book = LeaseBook::new();
        book.ingest_auction(&t, &out, 1);
        let lease = book.leases()[0].clone();

        let removed = book.remove_lease(lease.link).unwrap();
        assert_eq!(removed.link, lease.link);
        assert!(!book.active_links(t.n_links(), 1).contains(lease.link));
        // Second removal: nothing active left on the link.
        assert_eq!(
            book.remove_lease(lease.link).unwrap_err(),
            LeaseOpError::NoActiveLease { link: lease.link }
        );

        // Re-book it (a rollback restoring the link), then refuse a dup.
        let fresh = Lease::priced_from(&t, &out, lease.link, 2).unwrap();
        assert!((fresh.monthly_payment - lease.monthly_payment).abs() < 1e-9);
        book.add_lease(fresh.clone()).unwrap();
        assert!(book.active_links(t.n_links(), 2).contains(lease.link));
        assert_eq!(
            book.add_lease(fresh).unwrap_err(),
            LeaseOpError::AlreadyLeased { link: lease.link }
        );
    }

    #[test]
    fn priced_from_allocates_each_bps_payment_exactly() {
        let (t, out) = outcome_and_topo();
        // Summing per-link priced leases over the selected set reproduces
        // each settlement's payment (and matches ingest_auction).
        let mut by_bp: std::collections::BTreeMap<BpId, f64> = Default::default();
        for link in out.selected.iter() {
            if let Some(lease) = Lease::priced_from(&t, &out, link, 0) {
                *by_bp.entry(lease.bp).or_insert(0.0) += lease.monthly_payment;
            }
        }
        for s in out.settlements.iter().filter(|s| s.n_selected_links > 0) {
            let got = by_bp.get(&s.bp).copied().unwrap_or(0.0);
            assert!((got - s.payment).abs() < 1e-9, "{}: {got} vs {}", s.bp, s.payment);
        }
        // Unselected links price to None.
        let unselected =
            (0..t.n_links()).map(LinkId::from_index).find(|&l| !out.selected.contains(l));
        if let Some(l) = unselected {
            assert!(Lease::priced_from(&t, &out, l, 0).is_none());
        }
    }

    #[test]
    fn mark_reauctioned_clears_flag() {
        let (t, out) = outcome_and_topo();
        let mut book = LeaseBook::new();
        book.ingest_auction(&t, &out, 1);
        let lease = book.leases()[0].clone();
        book.recall(lease.bp, lease.link, 2, 0);
        assert!(book.reauction_needed());
        book.mark_reauctioned();
        assert!(!book.reauction_needed());
        drop(t);
    }
}
