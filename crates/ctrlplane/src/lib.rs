//! TCP control plane for the POC.
//!
//! The reproduction band for this paper calls for a control-plane
//! prototype on real networking: this crate runs the [`poc_core::Poc`]
//! behind a TCP endpoint speaking a length-prefixed JSON protocol.
//! Members attach (LMP / direct CSP), the operator triggers auction
//! rounds and billing cycles, members query the ledger, submit usage,
//! request neutrality review of traffic policies, and scrape live
//! metrics (`Request::Metrics` returns the controller's `poc-obs`
//! registry snapshot: per-request latency histograms, frame and
//! connection counters, and everything the auction and flow layers
//! recorded).
//!
//! The control plane is built to survive misbehaving peers: the server
//! enforces a connection cap, per-connection idle deadlines, and write
//! deadlines ([`server::ServerConfig`]); the client runs every socket
//! operation under a deadline and retries idempotent requests through
//! an automatic reconnect loop with capped, jittered exponential
//! backoff ([`client::ClientConfig`]). The [`fault`] module is the
//! deterministic fault-injection harness the integration tests drive
//! against a live server.
//!
//! * [`proto`] — the wire messages;
//! * [`codec`] — length-prefixed framing over any `Read`/`Write`;
//! * [`server`] — the POC controller: one accept loop feeding a thread
//!   per connection up to the connection cap (the one bound on
//!   concurrent work), usage state sharded by entity — one shard per
//!   admissible connection — so concurrent reports proceed in parallel,
//!   and durable mutations group-committed so K concurrent fsyncs
//!   coalesce into one;
//! * [`client`] — a typed blocking client with deadlines and retry;
//! * [`fault`] — test-only fault injection (frame truncation, garbage,
//!   oversized prefixes, drops, delays);
//! * [`journal`] — CRC-framed write-ahead journal of mutating events,
//!   with crash injection ([`journal::CrashSwitch`]);
//! * [`snapshot`] — atomic (tmp + fsync + rename) snapshot checkpoints;
//! * [`recovery`] — startup recovery: newest valid snapshot + journal
//!   replay, exactly-once by sequence number;
//! * `transition` — the safe lease-migration driver: `BeginTransition`
//!   plans a feasibility-preserving step order (`poc-transition`),
//!   journals every step before applying it, and startup recovery
//!   resumes or rolls back a transition the journal left open.
//!
//! By default the controller keeps state in memory only. Give
//! [`server::ServerConfig`] a [`recovery::DurabilityConfig`] (CLI:
//! `poc serve --state-dir`) and every mutating request is journaled
//! before it is applied, snapshots are cut periodically, and a restart
//! from the same state directory rebuilds the ledger, lease book, and
//! last auction outcome exactly.

pub mod client;
pub mod codec;
pub mod fault;
pub mod journal;
pub mod proto;
pub mod recovery;
pub mod server;
pub(crate) mod shard;
pub mod snapshot;
pub(crate) mod transition;

pub use client::{ClientConfig, ClientError, PocClient, RetryPolicy};
pub use journal::{CrashPoint, CrashSwitch, FsyncFault, FsyncPolicy};
pub use proto::{AttachRole, Request, Response, TransitionSummary};
pub use recovery::{DurabilityConfig, RecoveryInfo};
pub use server::{PocServer, ServerConfig, ServerHandle};
