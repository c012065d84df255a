//! The §3.2 payment structure as a double-entry ledger.
//!
//! "Entities pay directly for what they receive": the POC pays BPs (auction
//! payments) and external ISPs (contracts); LMPs and directly-attached CSPs
//! pay the POC for access; customers pay their LMP; hosted CSPs pay their
//! LMP. Every transfer is a [`Posting`] debited from one account and
//! credited to another, so the ledger conserves money by construction, and
//! the nonprofit POC's break-even discipline is checkable as an invariant.

use crate::entity::EntityId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A ledger account. The POC itself holds [`Account::Poc`]; everyone else
/// is identified by registry id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Account {
    Poc,
    Entity(EntityId),
    /// The aggregated customers of one LMP (the POC never bills end users
    /// directly, but their payments to LMPs appear so the revenue flow of
    /// §3.2 is complete end-to-end).
    CustomersOf(EntityId),
}

impl std::fmt::Display for Account {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Account::Poc => write!(f, "POC"),
            Account::Entity(e) => write!(f, "{e}"),
            Account::CustomersOf(e) => write!(f, "customers({e})"),
        }
    }
}

/// One transfer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Posting {
    pub period: u32,
    pub from: Account,
    pub to: Account,
    pub amount: f64,
    pub memo: String,
}

/// The double-entry ledger.
///
/// ```
/// use poc_core::settlement::{Account, Ledger};
/// use poc_core::entity::EntityId;
///
/// let mut ledger = Ledger::new();
/// let lmp = Account::Entity(EntityId(0));
/// ledger.post(0, lmp, Account::Poc, 100.0, "transit");
/// ledger.post(0, Account::Poc, Account::Entity(EntityId(1)), 100.0, "lease");
/// assert_eq!(ledger.balance(Account::Poc), 0.0); // nonprofit break-even
/// assert!(ledger.conservation_error().abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Ledger {
    postings: Vec<Posting>,
    balances: BTreeMap<Account, f64>,
}

impl Ledger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a transfer. Zero-amount postings are dropped silently;
    /// negative amounts are a caller bug.
    pub fn post(&mut self, period: u32, from: Account, to: Account, amount: f64, memo: &str) {
        assert!(amount.is_finite() && amount >= 0.0, "negative posting {amount} ({memo})");
        assert!(from != to, "self-posting ({memo})");
        if amount == 0.0 {
            return;
        }
        *self.balances.entry(from).or_insert(0.0) -= amount;
        *self.balances.entry(to).or_insert(0.0) += amount;
        self.postings.push(Posting { period, from, to, amount, memo: memo.to_string() });
    }

    /// Net balance of an account (positive = received more than paid).
    pub fn balance(&self, account: Account) -> f64 {
        self.balances.get(&account).copied().unwrap_or(0.0)
    }

    /// Sum of all balances — always ~0 by construction; exposed so tests
    /// and audits can assert conservation explicitly.
    pub fn conservation_error(&self) -> f64 {
        self.balances.values().sum()
    }

    /// All postings in a period.
    pub(crate) fn period_postings(&self, period: u32) -> Vec<&Posting> {
        self.postings.iter().filter(|p| p.period == period).collect()
    }

    /// Total flow into `to` from `from` across all periods.
    pub fn total_flow(&self, from: Account, to: Account) -> f64 {
        self.postings.iter().filter(|p| p.from == from && p.to == to).map(|p| p.amount).sum()
    }

    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// Render a human-readable account statement: every posting involving
    /// `account` with a running balance, grouped by period. The artifact a
    /// member would receive with its invoice.
    pub fn statement(&self, account: Account) -> String {
        let mut out = format!("statement for {account}\n");
        out.push_str(&format!(
            "{:<8}{:<12}{:>14}{:>14}  {}\n",
            "period", "direction", "amount $", "balance $", "memo"
        ));
        let mut running = 0.0;
        let mut any = false;
        for p in &self.postings {
            let (direction, signed) = if p.to == account {
                ("credit", p.amount)
            } else if p.from == account {
                ("debit", -p.amount)
            } else {
                continue;
            };
            any = true;
            running += signed;
            out.push_str(&format!(
                "{:<8}{:<12}{:>14.2}{:>14.2}  {}\n",
                p.period, direction, p.amount, running, p.memo
            ));
        }
        if !any {
            out.push_str("(no activity)\n");
        }
        out.push_str(&format!("closing balance: {:.2}\n", self.balance(account)));
        out
    }

    /// POC revenue (inflows) and outlay (outflows) for a period; the
    /// nonprofit break-even check compares the two.
    pub(crate) fn poc_period_flows(&self, period: u32) -> (f64, f64) {
        let mut inflow = 0.0;
        let mut outflow = 0.0;
        for p in self.period_postings(period) {
            if p.to == Account::Poc {
                inflow += p.amount;
            }
            if p.from == Account::Poc {
                outflow += p.amount;
            }
        }
        (inflow, outflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> Account {
        Account::Entity(EntityId(i))
    }

    #[test]
    fn posting_moves_balance() {
        let mut l = Ledger::new();
        l.post(1, e(0), Account::Poc, 100.0, "access fee");
        assert_eq!(l.balance(e(0)), -100.0);
        assert_eq!(l.balance(Account::Poc), 100.0);
        assert!(l.conservation_error().abs() < 1e-12);
    }

    #[test]
    fn zero_postings_dropped() {
        let mut l = Ledger::new();
        l.post(1, e(0), Account::Poc, 0.0, "noop");
        assert!(l.postings().is_empty());
    }

    #[test]
    #[should_panic(expected = "negative posting")]
    fn negative_amount_rejected() {
        Ledger::new().post(1, e(0), Account::Poc, -5.0, "bad");
    }

    #[test]
    #[should_panic(expected = "self-posting")]
    fn self_posting_rejected() {
        Ledger::new().post(1, e(0), e(0), 5.0, "bad");
    }

    #[test]
    fn period_flows_and_break_even() {
        let mut l = Ledger::new();
        // Two LMPs pay the POC; the POC pays a BP; exactly break-even.
        l.post(3, e(0), Account::Poc, 60.0, "lmp0 transit");
        l.post(3, e(1), Account::Poc, 40.0, "lmp1 transit");
        l.post(3, Account::Poc, e(2), 100.0, "bp lease payment");
        let (inflow, outflow) = l.poc_period_flows(3);
        assert_eq!(inflow, 100.0);
        assert_eq!(outflow, 100.0);
        assert_eq!(l.balance(Account::Poc), 0.0);
        // Other periods are empty.
        assert_eq!(l.poc_period_flows(4), (0.0, 0.0));
    }

    #[test]
    fn statement_renders_running_balance() {
        let mut l = Ledger::new();
        l.post(0, e(0), Account::Poc, 25.0, "transit");
        l.post(1, Account::Poc, e(0), 10.0, "rebate");
        let s = l.statement(e(0));
        assert!(s.contains("debit"), "{s}");
        assert!(s.contains("credit"), "{s}");
        assert!(s.contains("closing balance: -15.00"), "{s}");
        // Uninvolved account gets an empty statement.
        let empty = l.statement(e(9));
        assert!(empty.contains("(no activity)"), "{empty}");
    }

    #[test]
    fn total_flow_accumulates_across_periods() {
        let mut l = Ledger::new();
        l.post(1, Account::CustomersOf(EntityId(0)), e(0), 10.0, "subscriptions");
        l.post(2, Account::CustomersOf(EntityId(0)), e(0), 12.0, "subscriptions");
        assert_eq!(l.total_flow(Account::CustomersOf(EntityId(0)), e(0)), 22.0);
    }
}
