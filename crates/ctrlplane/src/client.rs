//! Typed blocking client for the POC control plane.
//!
//! Every socket operation runs under a deadline ([`ClientConfig`]): a
//! dead or wedged controller surfaces as [`ClientError::TimedOut`]
//! instead of parking the caller forever. Idempotent requests
//! (`Ping`/`Get*`/`Metrics` — see `Request::is_idempotent`) are
//! additionally retried through an automatic reconnect loop with capped
//! exponential backoff and deterministic jitter ([`RetryPolicy`]);
//! mutating requests (`RunAuction`, `ReportUsage`, ...) are never
//! replayed after a *transport* failure, because a lost response leaves
//! the mutation ambiguous.

use crate::codec::{read_frame, write_frame, CodecError};
use crate::proto::{AttachRole, BillingSummaryWire, LeaseWire, OutcomeSummary, Request, Response};
use poc_core::entity::EntityId;
use poc_core::tos::{TrafficPolicy, Verdict};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::TcpStream;
use std::time::Duration;

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    Codec(CodecError),
    /// The server answered `Error { .. }`.
    Server(String),
    /// The server answered with an unexpected variant.
    Protocol(String),
    /// A connect/read/write deadline expired (and, for idempotent
    /// requests, every retry budgeted by the [`RetryPolicy`] was spent).
    TimedOut,
}

impl ClientError {
    /// Transport-level failure: a reconnect may succeed where this
    /// attempt failed. `Server` and `Protocol` answers are *from* the
    /// controller — retrying would re-ask a question that was answered.
    fn is_retryable(&self) -> bool {
        match self {
            ClientError::Codec(c) => c.is_transport(),
            ClientError::TimedOut => true,
            ClientError::Server(_) | ClientError::Protocol(_) => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Codec(e) => write!(f, "codec: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::TimedOut => write!(f, "deadline expired"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::TimedOut => ClientError::TimedOut,
            other => ClientError::Codec(other),
        }
    }
}

/// The cap on one retry's backoff, before jitter.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Seed for the retry jitter stream (the in-tree `rand` shim), so a run's
/// retry schedule is reproducible.
const JITTER_SEED: u64 = 0x90c_0b5e;

/// Reconnect-and-retry policy for idempotent requests.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff * 2^(n-1)`, capped at
    /// 2 s (`MAX_BACKOFF`), scaled by jitter in `[0.5, 1.0)`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3, base_backoff: Duration::from_millis(50) }
    }
}

/// Deadlines and retry policy for a [`PocClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    pub connect_timeout: Duration,
    /// Read deadline per response. Covers the server-side handling time
    /// too (an auction round computes under this deadline), so keep it
    /// comfortably above the slowest expected request.
    pub read_timeout: Duration,
    pub write_timeout: Duration,
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
        }
    }
}

impl ClientConfig {
    /// No retries; deadlines only.
    pub fn no_retry(mut self) -> Self {
        self.retry.max_retries = 0;
        self
    }
}

/// A connection to the POC controller.
pub struct PocClient {
    stream: TcpStream,
    /// Buffered view of the same socket (`try_clone`d fd) for response
    /// reads: length prefix and payload almost always arrive together,
    /// so a response costs one `read(2)` instead of two. Rebuilt on
    /// reconnect so stale bytes from a dead connection never leak in.
    reader: std::io::BufReader<TcpStream>,
    addr: std::net::SocketAddr,
    config: ClientConfig,
    jitter: ChaCha8Rng,
    /// When set, every request ships inside a `Request::Traced`
    /// envelope carrying this id (see [`PocClient::set_trace`]).
    trace_id: Option<u64>,
}

impl PocClient {
    /// Connect with default deadlines and retry policy.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit deadlines and retry policy.
    pub fn connect_with(addr: std::net::SocketAddr, config: ClientConfig) -> std::io::Result<Self> {
        let stream = Self::open(addr, &config)?;
        let reader = std::io::BufReader::with_capacity(4096, stream.try_clone()?);
        let jitter = ChaCha8Rng::seed_from_u64(JITTER_SEED);
        Ok(Self { stream, reader, addr, config, jitter, trace_id: None })
    }

    /// Tag every subsequent request with `trace_id` (server-side span
    /// trees root at it; scrape them back with [`PocClient::traces`]).
    /// `None` turns tagging back off. The envelope is transparent to
    /// retry policy: a traced mutation still never retries.
    pub fn set_trace(&mut self, trace_id: Option<u64>) {
        self.trace_id = trace_id;
    }

    fn open(addr: std::net::SocketAddr, config: &ClientConfig) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        // Every frame is one complete message: never hold it back waiting
        // for the peer's (possibly delayed) ACK of the previous one.
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Fault-injection hook: sever the underlying connection without the
    /// client noticing, as a mid-session network drop would. The next
    /// request fails at the transport layer (and, if idempotent,
    /// recovers through the retry loop). Test harness use only.
    #[doc(hidden)]
    pub fn inject_disconnect(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn call(&mut self, req: Request) -> Result<Response, ClientError> {
        let req = match self.trace_id {
            Some(trace_id) => Request::Traced { trace_id, request: Box::new(req) },
            None => req,
        };
        let mut attempt: u32 = 0;
        loop {
            match self.call_once(&req) {
                Ok(resp) => return Ok(resp),
                Err(e)
                    if e.is_retryable()
                        && req.is_idempotent()
                        && attempt < self.config.retry.max_retries =>
                {
                    attempt += 1;
                    if matches!(e, ClientError::TimedOut) {
                        poc_obs::counter!("ctrl.client.timeouts").inc();
                    }
                    poc_obs::counter!("ctrl.client.retries").inc();
                    std::thread::sleep(self.backoff(attempt));
                    // Reconnect; if that fails, the next call_once fails
                    // at write and either retries again or surfaces.
                    if let Ok(stream) = Self::open(self.addr, &self.config) {
                        if let Ok(clone) = stream.try_clone() {
                            self.stream = stream;
                            self.reader = std::io::BufReader::with_capacity(4096, clone);
                        }
                    }
                }
                Err(ClientError::TimedOut) => {
                    poc_obs::counter!("ctrl.client.timeouts").inc();
                    return Err(ClientError::TimedOut);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn call_once(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, req)?;
        let resp: Response = read_frame(&mut self.reader)?;
        match resp {
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Ok(other),
        }
    }

    fn backoff(&mut self, attempt: u32) -> Duration {
        backoff_delay(&self.config.retry, attempt, &mut self.jitter)
    }

    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Attach and return the assigned entity id.
    pub fn attach(&mut self, name: &str, role: AttachRole) -> Result<EntityId, ClientError> {
        match self.call(Request::Attach { name: name.into(), role })? {
            Response::Welcome { entity } => Ok(entity),
            other => Err(ClientError::Protocol(format!("expected Welcome, got {other:?}"))),
        }
    }

    pub fn run_auction(&mut self) -> Result<OutcomeSummary, ClientError> {
        match self.call(Request::RunAuction)? {
            Response::AuctionDone(s) => Ok(s),
            other => Err(ClientError::Protocol(format!("expected AuctionDone, got {other:?}"))),
        }
    }

    pub fn outcome(&mut self) -> Result<Option<OutcomeSummary>, ClientError> {
        match self.call(Request::GetOutcome)? {
            Response::Outcome(s) => Ok(s),
            other => Err(ClientError::Protocol(format!("expected Outcome, got {other:?}"))),
        }
    }

    pub fn report_usage(&mut self, entity: EntityId, gbps: f64) -> Result<(), ClientError> {
        match self.call(Request::ReportUsage { entity, gbps })? {
            Response::Ack => Ok(()),
            other => Err(ClientError::Protocol(format!("expected Ack, got {other:?}"))),
        }
    }

    /// Report usage for many entities, one request/reply at a time — the
    /// shape a data-plane meter produces (one number per owner per
    /// period). Stops at the first failure; earlier reports stay applied,
    /// matching the server's per-request semantics.
    pub fn report_usage_batch(&mut self, usage: &[(EntityId, f64)]) -> Result<(), ClientError> {
        for &(entity, gbps) in usage {
            self.report_usage(entity, gbps)?;
        }
        Ok(())
    }

    pub fn run_billing(&mut self) -> Result<BillingSummaryWire, ClientError> {
        match self.call(Request::RunBilling)? {
            Response::BillingDone(s) => Ok(s),
            other => Err(ClientError::Protocol(format!("expected BillingDone, got {other:?}"))),
        }
    }

    pub fn balance(&mut self, entity: EntityId) -> Result<f64, ClientError> {
        match self.call(Request::GetBalance { entity })? {
            Response::Balance { balance, .. } => Ok(balance),
            other => Err(ClientError::Protocol(format!("expected Balance, got {other:?}"))),
        }
    }

    pub fn review_policy(&mut self, policy: TrafficPolicy) -> Result<Verdict, ClientError> {
        match self.call(Request::ReviewPolicy { policy })? {
            Response::PolicyVerdict(v) => Ok(v),
            other => Err(ClientError::Protocol(format!("expected Verdict, got {other:?}"))),
        }
    }

    /// Recall a leased link on behalf of a BP. Returns (lease found,
    /// re-auction pending).
    pub fn recall_link(
        &mut self,
        bp: u32,
        link: u32,
        notice_periods: u32,
    ) -> Result<(bool, bool), ClientError> {
        match self.call(Request::RecallLink { bp, link, notice_periods })? {
            Response::RecallDone { found, reauction_needed } => Ok((found, reauction_needed)),
            other => Err(ClientError::Protocol(format!("expected RecallDone, got {other:?}"))),
        }
    }

    /// Migrate the installed fabric to the link set a fresh auction
    /// selects — under the live traffic matrix scaled by `demand_scale`
    /// when given — one journaled lease operation at a time (every
    /// intermediate set verified feasible and resilient). Never
    /// auto-retried: a lost reply leaves the migration ambiguous, and
    /// [`PocClient::transition_status`] is the way to find out.
    pub fn begin_transition(
        &mut self,
        max_extra_links: Option<usize>,
        demand_scale: Option<f64>,
    ) -> Result<crate::proto::TransitionSummary, ClientError> {
        match self.call(Request::BeginTransition { max_extra_links, demand_scale })? {
            Response::TransitionDone(s) => Ok(s),
            other => Err(ClientError::Protocol(format!("expected TransitionDone, got {other:?}"))),
        }
    }

    /// Summary of the last finished lease transition (including one
    /// finished by startup recovery), `None` if none ran.
    pub fn transition_status(
        &mut self,
    ) -> Result<Option<crate::proto::TransitionSummary>, ClientError> {
        match self.call(Request::TransitionStatus)? {
            Response::Transition(s) => Ok(s),
            other => Err(ClientError::Protocol(format!("expected Transition, got {other:?}"))),
        }
    }

    /// The current lease book.
    pub fn leases(&mut self) -> Result<Vec<LeaseWire>, ClientError> {
        match self.call(Request::GetLeases)? {
            Response::Leases(ls) => Ok(ls),
            other => Err(ClientError::Protocol(format!("expected Leases, got {other:?}"))),
        }
    }

    /// Link ids of the fabric path between two members, if both attached
    /// and connected.
    pub fn path(&mut self, from: EntityId, to: EntityId) -> Result<Option<Vec<u32>>, ClientError> {
        match self.call(Request::GetPath { from, to })? {
            Response::Path { links } => Ok(links),
            other => Err(ClientError::Protocol(format!("expected Path, got {other:?}"))),
        }
    }

    /// Scrape the controller's live metrics snapshot (counters, gauges,
    /// and latency histograms from its global `poc-obs` registry).
    pub fn metrics(&mut self) -> Result<poc_obs::MetricsSnapshot, ClientError> {
        match self.call(Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(ClientError::Protocol(format!("expected Metrics, got {other:?}"))),
        }
    }

    /// Scrape recorded trace trees from the controller's flight
    /// recorder: one trace by id, the `last_n` most recent, or
    /// everything still in the ring (both `None`).
    pub fn traces(
        &mut self,
        trace_id: Option<u64>,
        last_n: Option<usize>,
    ) -> Result<Vec<poc_obs::TraceWire>, ClientError> {
        match self.call(Request::Trace { trace_id, last_n })? {
            Response::Traces(traces) => Ok(traces),
            other => Err(ClientError::Protocol(format!("expected Traces, got {other:?}"))),
        }
    }

    /// How the server recovered its state at startup (`None` when it
    /// runs without a state directory).
    pub fn recovery_info(&mut self) -> Result<Option<crate::recovery::RecoveryInfo>, ClientError> {
        match self.call(Request::GetRecovery)? {
            Response::Recovery(info) => Ok(info),
            other => Err(ClientError::Protocol(format!("expected Recovery, got {other:?}"))),
        }
    }
}

/// Capped exponential backoff with jitter in `[0.5, 1.0)` of the nominal
/// delay (decorrelates clients retrying a shared outage). Retry `attempt`
/// counts from 1.
fn backoff_delay(retry: &RetryPolicy, attempt: u32, jitter: &mut ChaCha8Rng) -> Duration {
    let nominal = retry
        .base_backoff
        .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
        .min(MAX_BACKOFF);
    nominal.mul_f64(jitter.gen_range(0.5..1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered() {
        let retry = RetryPolicy { max_retries: 10, base_backoff: Duration::from_millis(100) };
        let mut jitter = ChaCha8Rng::seed_from_u64(JITTER_SEED);
        let mut saw_below_nominal = false;
        for attempt in 1..=10u32 {
            let d = backoff_delay(&retry, attempt, &mut jitter);
            assert!(d <= MAX_BACKOFF, "attempt {attempt}: {d:?}");
            assert!(d >= retry.base_backoff.mul_f64(0.5), "attempt {attempt}: {d:?}");
            // From attempt 6 the nominal delay (3.2 s) is past the cap.
            if attempt >= 6 {
                saw_below_nominal |= d < MAX_BACKOFF.mul_f64(0.99);
            }
        }
        assert!(saw_below_nominal, "jitter never moved the delay off the cap");
        // Same seed ⇒ same schedule (deterministic tests).
        let mut a = ChaCha8Rng::seed_from_u64(JITTER_SEED);
        let mut b = ChaCha8Rng::seed_from_u64(JITTER_SEED);
        for attempt in 1..=5u32 {
            assert_eq!(
                backoff_delay(&retry, attempt, &mut a),
                backoff_delay(&retry, attempt, &mut b)
            );
        }
    }

    #[test]
    fn retryable_partition() {
        assert!(ClientError::TimedOut.is_retryable());
        assert!(ClientError::Codec(CodecError::Closed).is_retryable());
        assert!(ClientError::Codec(CodecError::Io(std::io::Error::other("reset"))).is_retryable());
        assert!(!ClientError::Server("at capacity".into()).is_retryable());
        assert!(!ClientError::Protocol("wrong variant".into()).is_retryable());
        assert!(!ClientError::Codec(CodecError::FrameTooLarge(9)).is_retryable());
    }
}
