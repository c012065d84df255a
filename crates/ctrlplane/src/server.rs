//! The POC controller: a TCP server wrapping [`poc_core::Poc`].
//!
//! The server core is thread-per-connection with one concurrency bound,
//! `max_connections`:
//!
//! * **one accept loop** — [`PocServer::run`] accepts on the listener,
//!   enforces the connection cap, and hands each connection its own
//!   thread. A connection thread reads, handles and answers one request
//!   at a time, so requests in flight never exceed live connections;
//! * **sharded state** — the usage ledger is sharded by entity
//!   (the `shard` module), one shard per admissible connection:
//!   concurrent `ReportUsage` requests on different shards proceed in
//!   parallel, touching neither the global lock nor each other. Global
//!   operations (attach, auction, billing, recall, policy review)
//!   serialize on the global lock, taking shard locks in a fixed order
//!   when they need usage state;
//! * **group commit** — durable mutations journal through
//!   [`crate::journal::GroupJournal`]: concurrent appends coalesce
//!   behind a commit leader so K mutations cost ~1 fsync instead of K.
//!   A usage mutation holds its shard lock across its commit wait, so
//!   with a shard per connection a batch is bounded by the writers
//!   actually present.
//!
//! Shutdown is cooperative via an [`AtomicBool`]:
//! [`ServerHandle::shutdown`] sets the flag and pokes the accept loop
//! with a throwaway connection; connection threads observe the flag
//! between read attempts (reads run under a short timeout so a parked
//! thread notices within ~100 ms).
//!
//! # Robustness posture
//!
//! The controller is the trust anchor of the marketplace (§2, §3.2): it
//! must stay reachable while peers misbehave. [`ServerConfig`] bounds
//! every resource a peer can hold:
//!
//! * **connection cap** — at most `max_connections` concurrent
//!   connections (and so requests in flight); excess connects are
//!   answered with a single [`Response::Error`] frame and closed
//!   (`ctrl.conn.rejected`);
//! * **idle deadline** — a peer that goes silent (including a slowloris
//!   half-frame: valid length prefix, then nothing) is evicted after
//!   `idle_timeout` (`ctrl.conn.idle_evicted`) instead of parking a
//!   worker thread forever;
//! * **write deadline** — a peer that stops draining its receive window
//!   cannot stall a worker in `write` (`ctrl.write.timeouts`);
//! * **worker reaping** — finished connection threads are joined on
//!   every accept-loop turn (`ctrl.conn.reaped`), so the worker list
//!   stays proportional to *live* connections;
//! * **accept backoff** — a persistent `accept()` error (e.g. EMFILE)
//!   backs off exponentially instead of hot-spinning a core
//!   (`ctrl.accept.errors`).

use crate::codec::{is_io_timeout, read_frame, write_frame, CodecError};
use crate::journal::{CrashPoint, CrashSwitch, FsyncFault, JournalError, JournalEvent};
use crate::proto::{AttachRole, BillingSummaryWire, LeaseWire, OutcomeSummary, Request, Response};
use crate::recovery::{Durability, DurabilityConfig, RecoveryInfo};
use crate::shard::{
    authorize, merged_usage, restore_usage, seed_authorized, Global, ShardedState, UsageShard,
};
use parking_lot::MutexGuard;
use poc_core::entity::EntityId;
use poc_core::poc::Poc;
use poc_traffic::TrafficMatrix;
use std::cell::Cell;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a blocked connection read re-checks the shutdown flag (and
/// the idle deadline).
const READ_POLL: Duration = Duration::from_millis(100);

/// First accept-error backoff; doubles per consecutive error up to
/// [`ACCEPT_BACKOFF_MAX`], resets on the next successful accept.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Resource bounds for a running server. Defaults are generous enough
/// that the happy path never notices them; tests and hostile deployments
/// tighten them.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further connects get one
    /// `Response::Error` frame and an immediate close. The one bound on
    /// concurrent work: it also sizes the usage-shard map, one shard per
    /// admissible connection.
    pub max_connections: usize,
    /// A connection with no bytes received for this long is evicted.
    /// Covers both fully idle peers and slowloris half-frames.
    pub idle_timeout: Duration,
    /// Per-write deadline on responses (protects workers from a peer
    /// that never drains its socket).
    pub write_timeout: Duration,
    /// Persist state to a directory (write-ahead journal + snapshot
    /// checkpoints); `None` — the default — keeps everything in memory.
    pub durability: Option<DurabilityConfig>,
    /// Crash-injection switch checked along the durability path. Tests
    /// keep a clone and arm it; production leaves it unarmed.
    pub crash: CrashSwitch,
    /// Fsync fault injector for the group-commit path. Tests keep a
    /// clone and arm it; production leaves it unarmed.
    pub fsync_fault: FsyncFault,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            durability: None,
            crash: CrashSwitch::new(),
            fsync_fault: FsyncFault::new(),
        }
    }
}

/// Everything a connection thread needs: sharded state, the durability
/// handle (internally synchronized — group commit) and recovery info.
pub(crate) struct Shared {
    pub(crate) state: ShardedState,
    /// Journal + snapshot handle when the server persists state.
    pub(crate) durability: Option<Durability>,
    /// How startup recovery went (served via `GetRecovery`).
    pub(crate) recovery: Option<RecoveryInfo>,
}

/// The server. Construct with [`PocServer::bind`] (default limits) or
/// [`PocServer::bind_with`], then call [`PocServer::run`] (typically on
/// its own thread) and keep the [`ServerHandle`] for shutdown.
pub struct PocServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicI64>,
    config: ServerConfig,
}

/// Handle for stopping a running server.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicI64>,
    pub local_addr: SocketAddr,
}

impl ServerHandle {
    /// Signal the server (accept loop + connections) to stop.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is parked in accept(): hand it a throwaway
        // connection so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Connections currently being served by *this* server (the
    /// `ctrl.conn.active` gauge aggregates across servers in the
    /// process, this accessor does not). Drains to zero once
    /// [`PocServer::run`] returns.
    pub fn active_connections(&self) -> i64 {
        self.active.load(Ordering::SeqCst)
    }
}

/// Decrements the per-server active-connection count (and refreshes the
/// `ctrl.conn.active` gauge) when a connection thread exits, however it
/// exits.
struct ConnectionGuard {
    active: Arc<AtomicI64>,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        let now = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        poc_obs::gauge!("ctrl.conn.active").set(now as f64);
    }
}

impl PocServer {
    /// Bind on `addr` (use port 0 for an ephemeral port) with default
    /// [`ServerConfig`] limits.
    pub fn bind(addr: &str, poc: Poc, tm: TrafficMatrix) -> std::io::Result<(Self, ServerHandle)> {
        Self::bind_with(addr, poc, tm, ServerConfig::default())
    }

    /// Bind with explicit resource limits. When the config carries a
    /// [`DurabilityConfig`], the state directory is recovered *before*
    /// the first connection is accepted: the newest valid snapshot is
    /// restored wholesale and the journal suffix replayed through the
    /// same application path live requests take. A zero
    /// `max_connections` (admits nothing) or `write_timeout` (no socket
    /// takes it) is refused with [`std::io::ErrorKind::InvalidInput`].
    pub fn bind_with(
        addr: &str,
        poc: Poc,
        tm: TrafficMatrix,
        config: ServerConfig,
    ) -> std::io::Result<(Self, ServerHandle)> {
        let refuse = |what| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, what));
        if config.max_connections == 0 {
            return refuse("max_connections must be at least 1");
        }
        if config.write_timeout.is_zero() {
            return refuse("write_timeout must be non-zero");
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicI64::new(0));
        let mut shared = Shared {
            state: ShardedState::new(poc, tm, config.max_connections),
            durability: None,
            recovery: None,
        };
        if let Some(dcfg) = &config.durability {
            recover(&mut shared, dcfg, config.crash.clone(), config.fsync_fault.clone())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        poc_obs::gauge!("ctrl.shards").set(shared.state.n_shards() as f64);
        Ok((
            Self {
                listener,
                shared: Arc::new(shared),
                shutdown: Arc::clone(&shutdown),
                active: Arc::clone(&active),
                config,
            },
            ServerHandle { shutdown, active, local_addr },
        ))
    }

    /// Accept-and-serve until shutdown: accept, reap, cap-check, spawn a
    /// connection worker. Returns once every connection thread has
    /// exited; the time from the loop observing shutdown to the last
    /// worker's exit is recorded in the `ctrl.shutdown.drain` histogram.
    pub fn run(self) {
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut accept_backoff = ACCEPT_BACKOFF_START;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    accept_backoff = ACCEPT_BACKOFF_START;
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // Reap finished workers on every accepted connection:
                    // the handle list stays proportional to live
                    // connections instead of growing for the lifetime of
                    // the server. A finished thread joins instantly.
                    let before = workers.len();
                    workers.retain(|w| !w.is_finished());
                    let reaped = before - workers.len();
                    if reaped > 0 {
                        poc_obs::counter!("ctrl.conn.reaped").add(reaped as u64);
                    }
                    // This loop is the only incrementer, so a load and
                    // an add cannot jointly overshoot the cap.
                    if self.active.load(Ordering::SeqCst) >= self.config.max_connections as i64 {
                        reject_over_capacity(stream, &self.config);
                        continue;
                    }
                    let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
                    poc_obs::gauge!("ctrl.conn.active").set(now as f64);
                    poc_obs::counter!("ctrl.conn.total").inc();
                    let guard = ConnectionGuard { active: Arc::clone(&self.active) };
                    let shared = Arc::clone(&self.shared);
                    let flag = Arc::clone(&self.shutdown);
                    let config = self.config.clone();
                    workers.push(std::thread::spawn(move || {
                        let _guard = guard;
                        let _ = serve_connection(stream, shared, flag, &config);
                    }));
                }
                Err(_) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // A persistent accept error (EMFILE, ENOBUFS, ...)
                    // must not hot-spin a core: back off exponentially
                    // while staying responsive to shutdown.
                    poc_obs::counter!("ctrl.accept.errors").inc();
                    std::thread::sleep(accept_backoff);
                    accept_backoff = (accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                }
            }
        }
        let drain_started = Instant::now();
        for w in workers {
            let _ = w.join();
        }
        poc_obs::histogram!("ctrl.shutdown.drain").record_duration(drain_started.elapsed());
        // Shutdown barrier: whatever the fsync policy deferred reaches
        // the platter before the process exits cleanly.
        if let Some(d) = &self.shared.durability {
            let _ = d.sync();
        }
    }
}

/// Rebuild in-memory state from a state directory: restore the newest
/// valid snapshot, then replay the journal suffix through [`mutate`] —
/// the same path live requests take, so an event that failed validation
/// live fails identically on replay.
fn recover(
    shared: &mut Shared,
    config: &DurabilityConfig,
    crash: CrashSwitch,
    fault: FsyncFault,
) -> Result<(), crate::recovery::RecoveryError> {
    let started = Instant::now();
    let fingerprint = {
        let g = shared.state.global.lock();
        poc_core::poc::topology_fingerprint(g.poc.topo())
    };
    let recovered = Durability::open(config, fingerprint, crash, fault)?;
    if let Some(snapshot) = recovered.snapshot {
        let (mut g, mut shards) = shared.state.lock_all();
        g.poc.restore_state(snapshot.poc);
        restore_usage(&mut shards, snapshot.usage);
        // The snapshot restored the registry wholesale; rebuild the
        // per-shard authorization cache to match. Journal replay below
        // maintains it incrementally through apply_attach, exactly as
        // live attaches do.
        seed_authorized(&g.poc, &mut shards);
    }
    // Transition records replay through their dedicated tracker (a step
    // is a fragment of a BeginTransition, not a request of its own);
    // everything else goes through the live application path.
    let mut txn = crate::transition::ReplayTracker::default();
    for event in recovered.replay {
        if txn.absorb(shared, &event) {
            continue;
        }
        // Replay journals nothing, so no crash point can fire here.
        let _ = mutate(shared, event, false);
    }
    shared.durability = Some(recovered.durability);
    shared.recovery = Some(recovered.info);
    // A journal ending mid-transition: resume it toward the target or
    // roll it back, journaling as we go (a crash here is just another
    // recoverable crash — the failed open surfaces as an io error).
    if let Some(open) = txn.take_open() {
        crate::transition::finish_open_transition(shared, open).map_err(|p| {
            crate::recovery::RecoveryError::Io(std::io::Error::other(format!(
                "crash injected during transition recovery: {}",
                p.label()
            )))
        })?;
    }
    poc_obs::histogram!("ctrl.recovery.time").record_duration(started.elapsed());
    Ok(())
}

/// Turn away a connection over the cap: one best-effort typed error
/// frame, then close. Runs inline in the accept loop, so the write
/// deadline (already set) is what keeps a malicious peer from stalling
/// accepts.
fn reject_over_capacity(mut stream: TcpStream, config: &ServerConfig) {
    poc_obs::counter!("ctrl.conn.rejected").inc();
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = write_frame(
        &mut stream,
        &Response::Error { message: "server at capacity, retry later".into() },
    );
}

/// [`Read`] adapter that turns a blocking stream into one that polls the
/// shutdown flag and enforces the idle deadline: reads run under
/// [`READ_POLL`] timeouts; once the shutdown flag is set an idle wait
/// surfaces as EOF (so the codec reports a clean `Closed` at a frame
/// boundary); and if no byte has arrived for `idle_timeout` the read
/// fails with a timeout error (surfaced by the codec as
/// [`CodecError::TimedOut`], evicting the connection). Partial reads are
/// preserved by the underlying `read`, so a poll timeout mid-frame never
/// corrupts framing.
struct ShutdownAwareReader<'a> {
    stream: &'a TcpStream,
    flag: &'a AtomicBool,
    idle_timeout: Duration,
    /// Last instant any byte arrived on this connection. Shared with
    /// [`serve_connection`] so idleness spans frame boundaries (a peer
    /// sending a half-frame and stalling is as idle as a silent one).
    /// A `Cell` so the reader can live inside a persistent `BufReader`
    /// while the connection loop keeps observing it.
    last_byte: &'a Cell<Instant>,
}

impl std::io::Read for ShutdownAwareReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // `impl Read for &TcpStream` lets us read through the shared ref.
        let mut stream = self.stream;
        loop {
            match stream.read(buf) {
                Err(e) if is_io_timeout(&e) => {
                    if self.flag.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                    if self.last_byte.get().elapsed() >= self.idle_timeout {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "idle deadline expired",
                        ));
                    }
                }
                Ok(n) => {
                    if n > 0 {
                        self.last_byte.set(Instant::now());
                    }
                    return Ok(n);
                }
                other => return other,
            }
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    shared: Arc<Shared>,
    flag: Arc<AtomicBool>,
    config: &ServerConfig,
) -> Result<(), CodecError> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    // Replies to pipelined requests go out as they are produced: with
    // Nagle on, the second reply of a batch waits for the peer's delayed
    // ACK of the first (≈ 40 ms per batch on Linux).
    stream.set_nodelay(true)?;
    let last_byte = Cell::new(Instant::now());
    // Persistent buffered reader: a request's length prefix and payload
    // usually arrive in one segment, so framing costs one `read(2)`
    // instead of two. The buffer outlives frame boundaries, so a
    // pipelined next frame is served from memory.
    let mut reader = std::io::BufReader::with_capacity(
        4096,
        ShutdownAwareReader {
            stream: &stream,
            flag: &flag,
            idle_timeout: config.idle_timeout,
            last_byte: &last_byte,
        },
    );
    loop {
        if flag.load(Ordering::SeqCst) {
            return Ok(());
        }
        let request: Request = match read_frame(&mut reader) {
            Ok(req) => req,
            Err(CodecError::Closed) => return Ok(()),
            Err(CodecError::TimedOut) => {
                // Silent or slowloris peer: reclaim the thread. The
                // socket close is the eviction notice.
                poc_obs::counter!("ctrl.conn.idle_evicted").inc();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        poc_obs::counter!("ctrl.frames.read").inc();
        // Unwrap the trace envelope (if any) and root this request's
        // span tree: the client's id when it sent one, a fresh id
        // otherwise, so `poc trace` can attribute work even for
        // untraced peers. With the flight recorder disabled the guard
        // is a thread-local store and spans stay no-ops.
        let (trace_id, request) = match request {
            Request::Traced { trace_id, request } => (trace_id, *request),
            other => (poc_obs::trace::new_trace_id(), other),
        };
        let _trace = poc_obs::trace::start_trace(trace_id);
        // Per-variant latency: resolved through the registry each time —
        // fine at control-plane request rates (the lock-free-handle
        // discipline matters on the auction's pivot path, not here).
        // The span is both the latency measurement and the root of the
        // request's trace tree.
        let latency = poc_obs::global().histogram(request.metric_name());
        let root_span = poc_obs::Span::on(request.metric_name(), &latency);
        // Checkpoint outside the request's own locks: the cadence check
        // is cheap, and a due checkpoint takes every state lock itself.
        let outcome =
            handle(&shared, request).and_then(|resp| maybe_checkpoint(&shared).map(|()| resp));
        drop(root_span);
        let response = match outcome {
            Ok(response) => response,
            Err(_crash) => {
                // An injected crash fired on the durability path: the
                // simulated process is dead. Stop the whole server and
                // drop this connection without a reply — the client sees
                // a transport error, leaving the outcome ambiguous,
                // exactly as a real mid-request crash would.
                poc_obs::counter!("ctrl.crash.injected").inc();
                flag.store(true, Ordering::SeqCst);
                if let Ok(addr) = stream.local_addr() {
                    // Wake the accept loop so it observes the flag.
                    let _ = TcpStream::connect(addr);
                }
                return Ok(());
            }
        };
        match write_frame(&mut &stream, &response) {
            Ok(()) => {}
            Err(CodecError::TimedOut) => {
                // The peer stopped draining its window mid-response; the
                // frame is torn, so the connection is unusable.
                poc_obs::counter!("ctrl.write.timeouts").inc();
                return Err(CodecError::TimedOut);
            }
            Err(e) => return Err(e),
        }
        poc_obs::counter!("ctrl.frames.written").inc();
    }
}

/// Journal one mutating event (write-ahead discipline), waiting for its
/// group commit. `Ok(Some(response))` is a typed refusal: the append or
/// its fsync failed, the mutation was *not* persisted, and the caller
/// must return the error without applying. `Err(point)` means an armed
/// [`CrashPoint`] fired.
pub(crate) fn journal_event(
    shared: &Shared,
    event: JournalEvent,
) -> Result<Option<Response>, CrashPoint> {
    let Some(d) = &shared.durability else { return Ok(None) };
    match d.record(event) {
        Ok(_seq) => Ok(None),
        Err(JournalError::Crashed(p)) => Err(p),
        Err(e) => {
            // The write-ahead append (or the group-commit fsync
            // covering it) failed: applying anyway would let memory
            // diverge from disk, so refuse the mutation instead. A
            // whole coalesced batch failing lands every member here —
            // nobody in a failed batch is ever acked.
            poc_obs::counter!("ctrl.journal.errors").inc();
            Ok(Some(Response::Error { message: format!("durability failure: {e}") }))
        }
    }
}

/// Cut a checkpoint if the cadence says so. Takes the global lock and
/// every shard lock, so the snapshot's sequence number is exact: no
/// mutation can journal or apply while the snapshot is cut.
fn maybe_checkpoint(shared: &Shared) -> Result<(), CrashPoint> {
    let Some(d) = &shared.durability else { return Ok(()) };
    if !d.wants_checkpoint() {
        return Ok(());
    }
    let (g, shards) = shared.state.lock_all();
    // Re-check under the locks: a concurrent request may have cut the
    // checkpoint while this one waited.
    if !d.wants_checkpoint() {
        return Ok(());
    }
    let poc_state = g.poc.export_state();
    let usage = merged_usage(&shards);
    match d.checkpoint(poc_state, usage) {
        Ok(()) => Ok(()),
        Err(JournalError::Crashed(p)) => Err(p),
        Err(_) => {
            // A failed checkpoint is not fatal: the journal still
            // holds every event, recovery just replays more of them.
            poc_obs::counter!("ctrl.snapshot.errors").inc();
            Ok(())
        }
    }
}

/// Handle one request end-to-end: reads and `BeginTransition` here,
/// the replayable mutations through [`mutate`]. `Err(point)` means an
/// armed [`CrashPoint`] fired — the simulated process is dead and the
/// caller must stop the server without replying.
fn handle(shared: &Shared, request: Request) -> Result<Response, CrashPoint> {
    match request {
        // Lock-free: health and observability.
        Request::Ping => Ok(Response::Pong),
        Request::Metrics => Ok(Response::Metrics(poc_obs::global().snapshot())),
        Request::Trace { trace_id, last_n } => {
            // A full ring serializes past MAX_FRAME; trim to the frame
            // budget keeping the longest spans (round, pivots, journal
            // appends survive — short flow leaves drop first).
            let budget = (crate::codec::MAX_FRAME as usize).saturating_sub(4096);
            Ok(Response::Traces(poc_obs::trace::trim_traces_to_bytes(
                poc_obs::trace::scrape(trace_id, last_n),
                budget,
            )))
        }
        Request::GetRecovery => Ok(Response::Recovery(shared.recovery.clone())),
        // The envelope never reaches handle() from the wire (the serve
        // loop unwraps it), but replay safety demands a total function.
        Request::Traced { request, .. } => handle(shared, *request),
        Request::BeginTransition { max_extra_links, demand_scale } => {
            // The whole migration runs under the global lock: planning,
            // per-step journaling, and lease-book mutation. Concurrent
            // requests queue behind it exactly as they do for an
            // auction round.
            let mut g = shared.state.global.lock();
            crate::transition::run_transition(shared, &mut g, max_extra_links, demand_scale)
        }
        Request::TransitionStatus => {
            let g = shared.state.global.lock();
            Ok(Response::Transition(g.last_transition.clone()))
        }
        // Global reads.
        Request::GetOutcome => {
            let g = shared.state.global.lock();
            Ok(Response::Outcome(g.poc.last_outcome().map(summarize)))
        }
        Request::GetBalance { entity } => {
            let g = shared.state.global.lock();
            Ok(Response::Balance {
                entity,
                balance: g.poc.ledger().balance(poc_core::settlement::Account::Entity(entity)),
            })
        }
        Request::GetPath { from, to } => {
            let g = shared.state.global.lock();
            Ok(match g.poc.member_path(from, to) {
                Ok(links) => {
                    Response::Path { links: links.map(|ls| ls.into_iter().map(|l| l.0).collect()) }
                }
                Err(e) => Response::Error { message: e.to_string() },
            })
        }
        Request::GetLeases => {
            let g = shared.state.global.lock();
            Ok(Response::Leases(
                g.poc
                    .leases()
                    .leases()
                    .iter()
                    .map(|l| LeaseWire {
                        link: l.link.0,
                        bp: l.bp.0,
                        monthly_payment: l.monthly_payment,
                        state: match l.state {
                            poc_core::lease::LeaseState::Active => "active".into(),
                            poc_core::lease::LeaseState::Recalled { effective_period } => {
                                format!("recalled@{effective_period}")
                            }
                            poc_core::lease::LeaseState::Expired => "expired".into(),
                        },
                    })
                    .collect(),
            ))
        }
        // The six replayable mutations: `from_request` is the table of
        // what they are, `mutate` of what each locks and applies.
        mutation => match JournalEvent::from_request(mutation) {
            Some(event) => mutate(shared, event, true),
            None => Ok(Response::Error { message: "not a mutation".into() }),
        },
    }
}

/// Apply one replayable mutation under the locks it needs, through
/// [`write_ahead`]. Live requests and journal replay run the same
/// `apply_*` function, which is what makes replay deterministic: an event
/// that failed validation live fails identically when replayed.
/// `Err(point)` means an armed [`CrashPoint`] fired.
fn mutate(shared: &Shared, event: JournalEvent, live: bool) -> Result<Response, CrashPoint> {
    match &event {
        // The hot path: one shard lock, no global state.
        JournalEvent::ReportUsage { entity, gbps } => {
            let _span = poc_obs::span!("ctrl.shard.apply", op = "report_usage");
            let mut shard = shared.state.shard(*entity).lock();
            write_ahead(shared, &event, live, || apply_usage(&mut shard, *entity, *gbps))
        }
        // Global mutations that touch usage/authorization state take
        // every lock; the rest take only the global lock.
        JournalEvent::Attach { name, role } => {
            let (mut g, mut shards) = shared.state.lock_all();
            write_ahead(shared, &event, live, || apply_attach(&mut g, &mut shards, name, role))
        }
        JournalEvent::RunBilling => {
            let (mut g, mut shards) = shared.state.lock_all();
            write_ahead(shared, &event, live, || apply_billing(&mut g, &mut shards))
        }
        JournalEvent::RunAuction => {
            let mut g = shared.state.global.lock();
            write_ahead(shared, &event, live, || apply_auction(&mut g))
        }
        JournalEvent::RecallLink { bp, link, notice_periods } => {
            let mut g = shared.state.global.lock();
            write_ahead(shared, &event, live, || apply_recall(&mut g, *bp, *link, *notice_periods))
        }
        JournalEvent::ReviewPolicy { policy } => {
            let mut g = shared.state.global.lock();
            write_ahead(shared, &event, live, || {
                Response::PolicyVerdict(g.poc.review_policy(policy))
            })
        }
        // A transition record is a fragment of a `BeginTransition`, not a
        // mutation of its own: live, `crate::transition::run_transition`
        // journals them; on replay its `ReplayTracker` absorbs them.
        JournalEvent::TransitionBegun { .. }
        | JournalEvent::TransitionStep { .. }
        | JournalEvent::TransitionCommitted
        | JournalEvent::TransitionAborted => {
            Ok(Response::Error { message: format!("not a replayable mutation: {}", event.label()) })
        }
    }
}

/// The write-ahead rule, under the locks the caller already holds (the
/// determinism contract in [`crate::shard`]): a `live` event is journaled
/// first, and a journaling refusal is returned without running `apply`.
/// Journal replay passes `live = false` and only applies.
fn write_ahead(
    shared: &Shared,
    event: &JournalEvent,
    live: bool,
    apply: impl FnOnce() -> Response,
) -> Result<Response, CrashPoint> {
    if live {
        if let Some(refusal) = journal_event(shared, event.clone())? {
            return Ok(refusal);
        }
    }
    Ok(apply())
}

/// Validate and record one usage report on its shard. Validation runs
/// *after* journaling (live and on replay alike): a journaled report
/// that failed validation live fails identically when replayed.
fn apply_usage(shard: &mut UsageShard, entity: EntityId, gbps: f64) -> Response {
    if !gbps.is_finite() || gbps < 0.0 {
        return Response::Error { message: "invalid usage".into() };
    }
    if !shard.authorized.contains(&entity) {
        return Response::Error { message: format!("{entity} is not authorized to send traffic") };
    }
    // Each report is finite, but the running sum across reports can
    // still overflow to +inf; reject the report that would poison the
    // billing cycle, keeping the accumulated total finite.
    let current = shard.usage.get(&entity).copied().unwrap_or(0.0);
    let total = current + gbps;
    if !total.is_finite() {
        return Response::Error {
            message: format!("accumulated usage for {entity} would overflow"),
        };
    }
    shard.usage.insert(entity, total);
    Response::Ack
}

/// Attach a member and, on success, seed its shard's authorization
/// cache (the verdict is fixed at attach time — see [`crate::shard`]).
fn apply_attach(
    g: &mut Global,
    shards: &mut [MutexGuard<'_, UsageShard>],
    name: &str,
    role: &AttachRole,
) -> Response {
    let result = match role {
        AttachRole::Lmp { router } => g.poc.attach_lmp(name, *router),
        AttachRole::DirectCsp { router } => g.poc.attach_direct_csp(name, *router),
        AttachRole::HostedCsp { via_lmp } => g.poc.attach_hosted_csp(name, *via_lmp),
    };
    match result {
        Ok(entity) => {
            authorize(&g.poc, shards, entity);
            Response::Welcome { entity }
        }
        Err(e) => Response::Error { message: e.to_string() },
    }
}

fn apply_recall(g: &mut Global, bp: u32, link: u32, notice_periods: u32) -> Response {
    let found =
        g.poc.recall_link(poc_topology::BpId(bp), poc_topology::LinkId(link), notice_periods);
    Response::RecallDone { found, reauction_needed: g.poc.reauction_needed() }
}

fn apply_auction(g: &mut Global) -> Response {
    let tm = g.tm.clone();
    match g.poc.run_auction_round(&tm) {
        Ok(out) => Response::AuctionDone(summarize(out)),
        Err(e) => Response::Error { message: e.to_string() },
    }
}

/// Drain every shard's usage into one billing cycle. Holding every
/// shard lock makes the cycle atomic with respect to concurrent
/// reports: a report either lands in this cycle or the next, never
/// half in each.
fn apply_billing(g: &mut Global, shards: &mut [MutexGuard<'_, UsageShard>]) -> Response {
    let merged = merged_usage(shards);
    let usage: Vec<(EntityId, f64)> = merged.into_iter().collect();
    match g.poc.billing_cycle(&usage) {
        Ok(summary) => {
            for shard in shards.iter_mut() {
                shard.usage.clear();
            }
            Response::BillingDone(BillingSummaryWire {
                period: summary.period,
                total_outlay: summary.total_outlay,
                unit_price: summary.unit_price,
                poc_net: summary.poc_net,
                charges: summary.charges,
            })
        }
        Err(e) => Response::Error { message: e.to_string() },
    }
}

fn summarize(out: &poc_auction::AuctionOutcome) -> OutcomeSummary {
    OutcomeSummary {
        n_selected_links: out.selected.len(),
        total_cost: out.total_cost,
        total_payments: out.settlements.iter().map(|s| s.payment).sum(),
        settlements: out.settlements.iter().map(|s| (s.bp.0, s.payment, s.pob())).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::{finish_open_transition, OpenTransition, ReplayTracker};
    use poc_core::poc::PocConfig;
    use poc_flow::LinkSet;
    use poc_topology::builder::two_bp_square;
    use poc_topology::RouterId;

    fn test_shared() -> (Shared, EntityId) {
        let topo = two_bp_square();
        let tm = TrafficMatrix::zero(topo.n_routers());
        let mut poc = Poc::new(topo, PocConfig::default());
        let lmp = poc.attach_lmp("lmp", RouterId(0)).unwrap();
        let shared =
            Shared { state: ShardedState::new(poc, tm, 4), durability: None, recovery: None };
        (shared, lmp)
    }

    fn usage_total(shared: &Shared, entity: EntityId) -> Option<f64> {
        shared.state.shard(entity).lock().usage.get(&entity).copied()
    }

    #[test]
    fn usage_accumulation_rejects_overflow_to_inf() {
        let (shared, lmp) = test_shared();
        // Each report is individually finite...
        let resp = handle(&shared, Request::ReportUsage { entity: lmp, gbps: f64::MAX }).unwrap();
        assert_eq!(resp, Response::Ack);
        // ...but the one that would push the running sum to +inf is
        // rejected, and the stored total stays finite and unchanged.
        let resp = handle(&shared, Request::ReportUsage { entity: lmp, gbps: f64::MAX }).unwrap();
        let Response::Error { message } = resp else { panic!("expected overflow error: {resp:?}") };
        assert!(message.contains("overflow"), "{message}");
        let total = usage_total(&shared, lmp).unwrap();
        assert!(total.is_finite());
        assert_eq!(total, f64::MAX);
        // Reports that keep the total finite still go through.
        let resp = handle(&shared, Request::ReportUsage { entity: lmp, gbps: 0.0 }).unwrap();
        assert_eq!(resp, Response::Ack);
    }

    #[test]
    fn usage_rejects_nonfinite_and_negative_reports() {
        let (shared, lmp) = test_shared();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let resp = handle(&shared, Request::ReportUsage { entity: lmp, gbps: bad }).unwrap();
            assert!(matches!(resp, Response::Error { .. }), "{bad} accepted: {resp:?}");
        }
        assert!(usage_total(&shared, lmp).is_none());
    }

    #[test]
    fn bind_with_builds_one_shard_per_admissible_connection() {
        for max_connections in [1, 3, ServerConfig::default().max_connections] {
            let topo = two_bp_square();
            let tm = TrafficMatrix::zero(topo.n_routers());
            let poc = Poc::new(topo, PocConfig::default());
            let config = ServerConfig { max_connections, ..ServerConfig::default() };
            let (server, _handle) = PocServer::bind_with("127.0.0.1:0", poc, tm, config).unwrap();
            assert_eq!(server.shared.state.n_shards(), max_connections);
        }
    }

    #[test]
    fn bind_with_refuses_a_zero_connection_cap_or_write_deadline() {
        for config in [
            ServerConfig { max_connections: 0, ..ServerConfig::default() },
            ServerConfig { write_timeout: Duration::ZERO, ..ServerConfig::default() },
        ] {
            let topo = two_bp_square();
            let tm = TrafficMatrix::zero(topo.n_routers());
            let poc = Poc::new(topo, PocConfig::default());
            match PocServer::bind_with("127.0.0.1:0", poc, tm, config.clone()) {
                Ok(_) => panic!("bound with {config:?}"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
            }
        }
    }

    #[test]
    fn billing_drains_usage_across_shards() {
        let (shared, lmp) = test_shared();
        let csp = {
            let resp = handle(
                &shared,
                Request::Attach {
                    name: "csp".into(),
                    role: AttachRole::HostedCsp { via_lmp: lmp },
                },
            )
            .unwrap();
            let Response::Welcome { entity } = resp else { panic!("attach failed: {resp:?}") };
            entity
        };
        assert_ne!(
            shared.state.shard_index(lmp),
            shared.state.shard_index(csp),
            "test wants usage on two distinct shards"
        );
        let resp = handle(&shared, Request::RunAuction).unwrap();
        assert!(matches!(resp, Response::AuctionDone(_)), "auction failed: {resp:?}");
        handle(&shared, Request::ReportUsage { entity: lmp, gbps: 5.0 }).unwrap();
        handle(&shared, Request::ReportUsage { entity: csp, gbps: 7.0 }).unwrap();
        let resp = handle(&shared, Request::RunBilling).unwrap();
        let Response::BillingDone(summary) = resp else { panic!("billing failed: {resp:?}") };
        assert!((summary.charges.iter().map(|c| c.1).sum::<f64>()).is_finite());
        assert!(usage_total(&shared, lmp).is_none(), "billing drains every shard");
        assert!(usage_total(&shared, csp).is_none());
    }

    // -----------------------------------------------------------------
    // Lease transitions off the commit path. The wire-level crash suite
    // only ever resumes to `committed`; these drive the closing
    // function's other arms and check the journal each one leaves.
    // -----------------------------------------------------------------

    /// The crash-recovery suite's world: the square plus one external
    /// ISP, where the auction at 12× forecast demand swaps {l0, l1} for
    /// {l1, l10} — a two-step walk, `+l10` then `-l0`.
    fn transition_world() -> (poc_topology::PocTopology, TrafficMatrix) {
        use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
        let mut topo = two_bp_square();
        attach_external_isps(
            &mut topo,
            &ExternalIspConfig { n_isps: 1, attach_points: 4, ..Default::default() },
            &poc_topology::CostModel::default(),
        );
        let mut tm = TrafficMatrix::zero(topo.n_routers());
        tm.set(RouterId(0), RouterId(1), 10.0);
        tm.set(RouterId(1), RouterId(2), 5.0);
        (topo, tm)
    }

    const SHIFTED_SCALE: Option<f64> = Some(12.0);

    fn fresh_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("poc-txn-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A `Shared` on [`transition_world`] persisting under `dir`,
    /// recovered from whatever the directory already holds.
    fn durable_shared(dir: &std::path::Path) -> Shared {
        let (topo, tm) = transition_world();
        let mut shared = Shared {
            state: ShardedState::new(Poc::new(topo, PocConfig::default()), tm, 4),
            durability: None,
            recovery: None,
        };
        let config = DurabilityConfig {
            state_dir: dir.to_path_buf(),
            fsync: crate::journal::FsyncPolicy::Always,
            snapshot_every: 0,
        };
        recover(&mut shared, &config, CrashSwitch::new(), FsyncFault::new()).unwrap();
        shared
    }

    /// The installed link set and the lease book, as a client reads it.
    fn fabric_and_leases(shared: &Shared) -> (LinkSet, Response) {
        let installed = shared.state.global.lock().poc.installed_links().cloned().unwrap();
        (installed, handle(shared, Request::GetLeases).unwrap())
    }

    /// What a server leaves behind when it dies one step into the 12×
    /// walk: an auction, `TransitionBegun` and `+l10` journaled and
    /// applied, and the open transaction replay would hand to recovery.
    fn die_one_step_in(shared: &Shared) -> OpenTransition {
        handle(shared, Request::RunAuction).unwrap();
        let mut txn = ReplayTracker::default();
        for event in [
            JournalEvent::TransitionBegun { max_extra_links: None, demand_scale: SHIFTED_SCALE },
            JournalEvent::TransitionStep { add: true, link: 10 },
        ] {
            assert!(journal_event(shared, event.clone()).unwrap().is_none());
            assert!(txn.absorb(shared, &event));
        }
        let open = txn.take_open().unwrap();
        let (installed, _) = fabric_and_leases(shared);
        assert_eq!(open.steps_replayed, 1);
        assert_eq!(installed.len(), open.original.len() + 1, "mid-walk: one add applied");
        open
    }

    /// Recover `dir` into a fresh `Shared` and demand it lands where
    /// `shared` stands, with nothing left open.
    fn assert_journal_replays_to(shared: &Shared, dir: &std::path::Path) {
        let replayed = durable_shared(dir);
        assert_eq!(fabric_and_leases(&replayed), fabric_and_leases(shared));
        assert!(replayed.state.global.lock().last_transition.is_none(), "nothing left to finish");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recovery_unwinds_stepwise_to_the_journaled_original_when_the_target_stopped_passing() {
        let dir = fresh_dir("unwind");
        let shared = durable_shared(&dir);
        let mut open = die_one_step_in(&shared);
        // The target the dead server was walking toward no longer routes.
        open.outcome.selected = LinkSet::empty(open.original.universe());
        let original = open.original.clone();

        finish_open_transition(&shared, open).unwrap();

        let status = shared.state.global.lock().last_transition.clone().unwrap();
        assert_eq!(status.outcome, "rolled_back");
        assert!(status.recovered);
        assert_eq!(status.steps_applied, 2, "one replayed add + one walked remove");
        assert_eq!((status.replans, status.rollbacks), (0, 1));
        assert_eq!((status.n_from_links, status.n_final_links), (original.len(), original.len()));
        assert_eq!(fabric_and_leases(&shared).0, original);
        assert_journal_replays_to(&shared, &dir);
    }

    #[test]
    fn recovery_force_restores_the_journaled_original_when_nothing_passes() {
        let dir = fresh_dir("force");
        let shared = durable_shared(&dir);
        let open = die_one_step_in(&shared);
        let original = open.original.clone();
        // The restarted server carries a matrix no link set can route:
        // neither the target nor the original has a verified way in.
        shared.state.global.lock().tm.scale(1e6);

        finish_open_transition(&shared, open).unwrap();

        let status = shared.state.global.lock().last_transition.clone().unwrap();
        assert_eq!(status.outcome, "force_restored");
        assert!(status.recovered);
        assert_eq!(status.steps_applied, 1, "the replayed add; the restore is not a step");
        assert_eq!(status.rollbacks, 1);
        assert_eq!(status.n_final_links, original.len(), "the fabric is on the original");
        assert_eq!(fabric_and_leases(&shared).0, original);
        assert_journal_replays_to(&shared, &dir);
    }

    #[test]
    fn live_transition_whose_step_is_refused_aborts_onto_the_pre_transition_set() {
        let dir = fresh_dir("refused");
        let shared = durable_shared(&dir);
        handle(&shared, Request::RunAuction).unwrap();
        // BP-A is already recalling l0, so the walk's `-l0` lease
        // operation is refused after `+l10` has landed.
        let resp =
            handle(&shared, Request::RecallLink { bp: 0, link: 0, notice_periods: 1 }).unwrap();
        assert!(matches!(resp, Response::RecallDone { found: true, .. }), "{resp:?}");
        let (before, _) = fabric_and_leases(&shared);

        let resp = handle(
            &shared,
            Request::BeginTransition { max_extra_links: None, demand_scale: SHIFTED_SCALE },
        )
        .unwrap();
        let Response::Error { message } = resp else { panic!("expected a refusal: {resp:?}") };
        assert!(message.contains("transition aborted at step 1"), "{message}");
        assert!(message.contains("recalled"), "{message}");

        assert_eq!(fabric_and_leases(&shared).0, before);
        assert!(shared.state.global.lock().last_transition.is_none(), "no walk finished");
        assert_journal_replays_to(&shared, &dir);
    }
}
