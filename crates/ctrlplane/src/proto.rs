//! Wire protocol: JSON payloads in length-prefixed frames.
//!
//! The protocol is deliberately request/response (no server push): every
//! [`Request`] gets exactly one [`Response`] on the same connection, in
//! order. JSON keeps the prototype debuggable with `nc`/`jq`; the framing
//! (4-byte big-endian length) makes message boundaries explicit.

use poc_core::entity::EntityId;
use poc_core::tos::{TrafficPolicy, Verdict};
use poc_obs::MetricsSnapshot;
use poc_topology::RouterId;
use serde::{Deserialize, Serialize};

/// How an attaching member connects (§1.2: LMPs and large CSPs attach
/// directly; other CSPs come in through an LMP).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttachRole {
    Lmp { router: RouterId },
    DirectCsp { router: RouterId },
    HostedCsp { via_lmp: EntityId },
}

/// Client → server.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Attach as a member; the reply carries the assigned entity id.
    Attach { name: String, role: AttachRole },
    /// Liveness check.
    Ping,
    /// Operator: run an auction round against the POC's current
    /// traffic-matrix estimate.
    RunAuction,
    /// Summary of the last auction outcome.
    GetOutcome,
    /// Operator: settle the period from the usage reports received since
    /// the last billing cycle.
    RunBilling,
    /// Member reports billable usage (Gbit/s average) for this period.
    ReportUsage { entity: EntityId, gbps: f64 },
    /// Ledger balance of an entity.
    GetBalance { entity: EntityId },
    /// Ask the neutrality engine to rule on a policy before deploying it.
    ReviewPolicy { policy: TrafficPolicy },
    /// Path through the installed fabric between two members.
    GetPath { from: EntityId, to: EntityId },
    /// A BP recalls one of its leased links (§3.3 overbuy-then-recall),
    /// with notice measured in billing periods.
    RecallLink { bp: u32, link: u32, notice_periods: u32 },
    /// Current lease book summary.
    GetLeases,
    /// Operator: migrate the installed fabric to the link set a fresh
    /// auction selects, one journaled lease operation at a time, with
    /// every intermediate set verified feasible and resilient.
    /// `max_extra_links` bounds planner headroom (extra links live at
    /// once beyond the larger endpoint); `None` leaves it unbounded.
    /// `demand_scale` targets the set the auction would select under
    /// the traffic matrix scaled by that factor — the operator's knob
    /// for provisioning ahead of forecast demand growth (`None` = 1.0,
    /// the current matrix). The scale is journaled with the transition,
    /// so recovery recomputes the same target.
    BeginTransition { max_extra_links: Option<usize>, demand_scale: Option<f64> },
    /// Summary of the last finished lease transition (including one
    /// finished by startup recovery), `None` if none ran.
    TransitionStatus,
    /// Scrape the controller's live metrics (the global `poc-obs`
    /// registry snapshot, JSON on the wire like every other message).
    Metrics,
    /// How the server recovered its state at startup (`None` when it
    /// runs without a state directory).
    GetRecovery,
    /// Envelope: the inner request, tagged with a caller-chosen trace
    /// id. The server roots the request's span tree at that id, so one
    /// `poc trace` scrape later can show everything the request touched
    /// — journal appends, the auction round, every pivot. Old clients
    /// simply never send the envelope (and old servers never see it):
    /// every other variant's wire form is unchanged, which the
    /// `old_wire_forms_decode_unchanged` test pins down.
    Traced { trace_id: u64, request: Box<Request> },
    /// Scrape recorded trace trees from the server's flight recorder:
    /// one trace by id, the `last_n` most recent, or everything the
    /// ring still holds (both `None`).
    Trace { trace_id: Option<u64>, last_n: Option<usize> },
}

impl Request {
    /// The per-request latency histogram name (`ctrl.request.<variant>`),
    /// as a static string so it can also name the request's root span.
    /// The trace envelope is invisible here: a traced `RunAuction` is
    /// still a `RunAuction`.
    pub(crate) fn metric_name(&self) -> &'static str {
        match self {
            Request::Attach { .. } => "ctrl.request.attach",
            Request::Ping => "ctrl.request.ping",
            Request::RunAuction => "ctrl.request.run_auction",
            Request::GetOutcome => "ctrl.request.get_outcome",
            Request::RunBilling => "ctrl.request.run_billing",
            Request::ReportUsage { .. } => "ctrl.request.report_usage",
            Request::GetBalance { .. } => "ctrl.request.get_balance",
            Request::ReviewPolicy { .. } => "ctrl.request.review_policy",
            Request::GetPath { .. } => "ctrl.request.get_path",
            Request::RecallLink { .. } => "ctrl.request.recall_link",
            Request::GetLeases => "ctrl.request.get_leases",
            Request::Metrics => "ctrl.request.metrics",
            Request::GetRecovery => "ctrl.request.get_recovery",
            Request::BeginTransition { .. } => "ctrl.request.begin_transition",
            Request::TransitionStatus => "ctrl.request.transition_status",
            Request::Traced { request, .. } => request.metric_name(),
            Request::Trace { .. } => "ctrl.request.trace",
        }
    }

    /// Whether replaying this request after a transport failure is safe.
    /// Only idempotent requests may be retried by the client's automatic
    /// reconnect loop: a lost response to `RunAuction`, `RunBilling`,
    /// `Attach`, `ReportUsage`, or `RecallLink` leaves the server's state
    /// ambiguous (the mutation may have been applied), so those surface
    /// the error to the caller instead.
    pub(crate) fn is_idempotent(&self) -> bool {
        match self {
            // The envelope is transparent to retry policy too: tracing
            // a mutation must not make it replayable.
            Request::Traced { request, .. } => request.is_idempotent(),
            _ => matches!(
                self,
                Request::Ping
                    | Request::GetOutcome
                    | Request::GetBalance { .. }
                    | Request::GetPath { .. }
                    | Request::GetLeases
                    | Request::Metrics
                    | Request::GetRecovery
                    | Request::TransitionStatus
                    | Request::Trace { .. }
            ),
        }
    }
}

/// One lease as shipped to clients.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeaseWire {
    pub link: u32,
    pub bp: u32,
    pub monthly_payment: f64,
    /// `"active"`, `"recalled@<period>"`, or `"expired"`.
    pub state: String,
}

/// Auction outcome summary shipped to clients.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OutcomeSummary {
    pub n_selected_links: usize,
    pub total_cost: f64,
    pub total_payments: f64,
    /// (bp index, payment, payment-over-bid margin).
    pub settlements: Vec<(u32, f64, Option<f64>)>,
}

/// How a lease transition ended, as shipped to clients.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransitionSummary {
    /// `"committed"`, `"rolled_back"`, or `"force_restored"`.
    pub outcome: String,
    /// Lease operations applied, across the original plan and any
    /// replans or rollback steps.
    pub steps_applied: u64,
    pub replans: u32,
    pub rollbacks: u32,
    /// Links installed when the transition started / when it finished.
    pub n_from_links: usize,
    pub n_final_links: usize,
    /// Whether startup recovery finished this transition (resume or
    /// rollback of one interrupted by a crash) rather than the request
    /// that began it.
    pub recovered: bool,
}

/// Billing summary shipped to clients.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BillingSummaryWire {
    pub period: u32,
    pub total_outlay: f64,
    pub unit_price: f64,
    pub poc_net: f64,
    pub charges: Vec<(EntityId, f64)>,
}

/// Server → client.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Welcome {
        entity: EntityId,
    },
    Pong,
    Ack,
    AuctionDone(OutcomeSummary),
    Outcome(Option<OutcomeSummary>),
    BillingDone(BillingSummaryWire),
    Balance {
        entity: EntityId,
        balance: f64,
    },
    PolicyVerdict(Verdict),
    Path {
        links: Option<Vec<u32>>,
    },
    /// Recall accepted (`found` = an active lease matched) and whether a
    /// re-auction is now pending.
    RecallDone {
        found: bool,
        reauction_needed: bool,
    },
    Leases(Vec<LeaseWire>),
    /// A lease transition finished (one way or another; the summary's
    /// `outcome` says which).
    TransitionDone(TransitionSummary),
    /// Status of the last finished lease transition.
    Transition(Option<TransitionSummary>),
    /// The controller's metrics snapshot.
    Metrics(MetricsSnapshot),
    /// Startup recovery report (`None` when the server keeps state in
    /// memory only).
    Recovery(Option<crate::recovery::RecoveryInfo>),
    /// Recorded trace trees from the controller's flight recorder.
    Traces(Vec<poc_obs::TraceWire>),
    Error {
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_json() {
        let req =
            Request::Attach { name: "lmp-1".into(), role: AttachRole::Lmp { router: RouterId(3) } };
        let bytes = serde_json::to_vec(&req).unwrap();
        let back: Request = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(req, back);

        let resp = Response::Welcome { entity: EntityId(7) };
        let bytes = serde_json::to_vec(&resp).unwrap();
        let back: Response = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn verdict_round_trip() {
        let v = Verdict::Violation { condition: 2, rationale: "x".into() };
        let resp = Response::PolicyVerdict(v.clone());
        let back: Response = serde_json::from_slice(&serde_json::to_vec(&resp).unwrap()).unwrap();
        assert_eq!(back, Response::PolicyVerdict(v));
    }

    #[test]
    fn metrics_round_trip() {
        // Request::Metrics is a unit variant (serializes as a string).
        let back: Request =
            serde_json::from_slice(&serde_json::to_vec(&Request::Metrics).unwrap()).unwrap();
        assert_eq!(back, Request::Metrics);
        assert_eq!(Request::Metrics.metric_name(), "ctrl.request.metrics");

        let reg = poc_obs::MetricsRegistry::new();
        reg.counter("proto.test.count").inc();
        reg.histogram("proto.test.hist").record(1024);
        let resp = Response::Metrics(reg.snapshot());
        let back: Response = serde_json::from_slice(&serde_json::to_vec(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
        let Response::Metrics(snap) = back else { panic!("expected Metrics") };
        assert_eq!(snap.counter("proto.test.count"), Some(1));
        assert_eq!(snap.histogram("proto.test.hist").unwrap().count, 1);
    }

    #[test]
    fn idempotency_partition() {
        // Reads retry; mutations never do.
        assert!(Request::Ping.is_idempotent());
        assert!(Request::GetOutcome.is_idempotent());
        assert!(Request::GetBalance { entity: EntityId(1) }.is_idempotent());
        assert!(Request::GetPath { from: EntityId(1), to: EntityId(2) }.is_idempotent());
        assert!(Request::GetLeases.is_idempotent());
        assert!(Request::Metrics.is_idempotent());
        assert!(Request::GetRecovery.is_idempotent());
        assert!(Request::TransitionStatus.is_idempotent());
        assert!(!Request::RunAuction.is_idempotent());
        assert!(
            !Request::BeginTransition { max_extra_links: None, demand_scale: None }.is_idempotent(),
            "a lost reply leaves the migration ambiguous; never auto-retry"
        );
        assert!(!Request::RunBilling.is_idempotent());
        assert!(!Request::ReportUsage { entity: EntityId(1), gbps: 1.0 }.is_idempotent());
        assert!(!Request::RecallLink { bp: 0, link: 0, notice_periods: 1 }.is_idempotent());
        assert!(!Request::Attach {
            name: "x".into(),
            role: AttachRole::Lmp { router: RouterId(0) }
        }
        .is_idempotent());
        assert!(
            !Request::ReviewPolicy {
                policy: poc_core::tos::TrafficPolicy {
                    lmp: EntityId(1),
                    matches: poc_core::tos::PolicyMatch::any(),
                    action: poc_core::tos::PolicyAction::Block,
                    basis: poc_core::tos::PolicyBasis::Commercial,
                }
            }
            .is_idempotent(),
            "review verdicts may depend on evolving policy state; stay conservative"
        );
    }

    #[test]
    fn unknown_variant_fails_cleanly() {
        let err = serde_json::from_str::<Request>("{\"Nonsense\":{}}");
        assert!(err.is_err());
    }

    /// Old-client regression: the exact wire bytes a pre-tracing client
    /// sends (no `Traced` envelope anywhere) still decode to the same
    /// variants, and serializing those variants still produces the same
    /// bytes — the trace envelope changed nothing for old peers.
    #[test]
    fn old_wire_forms_decode_unchanged() {
        let legacy: [(&str, Request); 5] = [
            ("\"Ping\"", Request::Ping),
            ("\"RunAuction\"", Request::RunAuction),
            ("\"Metrics\"", Request::Metrics),
            ("{\"GetBalance\":{\"entity\":3}}", Request::GetBalance { entity: EntityId(3) }),
            (
                "{\"ReportUsage\":{\"entity\":2,\"gbps\":1.5}}",
                Request::ReportUsage { entity: EntityId(2), gbps: 1.5 },
            ),
        ];
        for (wire, expected) in legacy {
            let decoded: Request = serde_json::from_str(wire).expect(wire);
            assert_eq!(decoded, expected, "legacy bytes must decode to the same request");
            let encoded = String::from_utf8(serde_json::to_vec(&expected).unwrap()).unwrap();
            assert_eq!(encoded, wire, "new servers must emit bytes old peers understand");
            assert!(
                !encoded.contains("trace"),
                "no trace field may leak into an unenveloped request"
            );
        }
    }

    #[test]
    fn transition_messages_round_trip() {
        let req = Request::BeginTransition { max_extra_links: Some(2), demand_scale: Some(1.5) };
        let back: Request = serde_json::from_slice(&serde_json::to_vec(&req).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(req.metric_name(), "ctrl.request.begin_transition");

        let summary = TransitionSummary {
            outcome: "committed".into(),
            steps_applied: 4,
            replans: 1,
            rollbacks: 0,
            n_from_links: 3,
            n_final_links: 4,
            recovered: false,
        };
        let resp = Response::TransitionDone(summary.clone());
        let back: Response = serde_json::from_slice(&serde_json::to_vec(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
        let status = Response::Transition(Some(summary));
        let back: Response = serde_json::from_slice(&serde_json::to_vec(&status).unwrap()).unwrap();
        assert_eq!(back, status);
        let none = Response::Transition(None);
        let back: Response = serde_json::from_slice(&serde_json::to_vec(&none).unwrap()).unwrap();
        assert_eq!(back, none);
    }

    #[test]
    fn traced_envelope_round_trips_and_delegates() {
        let inner = Request::RunAuction;
        let traced = Request::Traced { trace_id: 42, request: Box::new(inner.clone()) };
        let back: Request = serde_json::from_slice(&serde_json::to_vec(&traced).unwrap()).unwrap();
        assert_eq!(back, traced);
        // The envelope is transparent to naming, metrics, and retry
        // policy: a traced RunAuction is a RunAuction.
        assert_eq!(traced.metric_name(), "ctrl.request.run_auction");
        assert!(!traced.is_idempotent(), "tracing must not make a mutation retryable");
        let traced_read = Request::Traced { trace_id: 7, request: Box::new(Request::Ping) };
        assert!(traced_read.is_idempotent());
    }

    #[test]
    fn trace_scrape_round_trips() {
        let req = Request::Trace { trace_id: Some(9), last_n: None };
        let back: Request = serde_json::from_slice(&serde_json::to_vec(&req).unwrap()).unwrap();
        assert_eq!(back, req);
        assert!(req.is_idempotent(), "scrapes retry like Metrics");
        assert_eq!(req.metric_name(), "ctrl.request.trace");

        let resp = Response::Traces(vec![poc_obs::TraceWire {
            trace_id: 9,
            events: vec![poc_obs::TraceEventWire {
                trace_id: 9,
                span_id: 2,
                parent_id: 1,
                name: "auction.pivot".into(),
                start_ns: 10,
                dur_ns: 20,
                thread: 1,
                fields: vec![("bp".into(), "3".into())],
            }],
        }]);
        let back: Response = serde_json::from_slice(&serde_json::to_vec(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }
}
