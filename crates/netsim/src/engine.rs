//! The packet-level discrete-event data plane.
//!
//! Where the failure drill ([`crate::drill`]) sweeps fluid rate
//! allocations between outage boundaries, this module moves individual
//! packets: per-link directional FIFO queues with finite byte buffers and
//! tail drops, store-and-forward transmission at link rate plus
//! propagation delay derived from `distance_km`, and flow sources —
//! persistent or on/off — injecting [`PKT_BYTES`]-byte packets from the
//! same gravity traffic matrices the auction is sized on, scaled to
//! millions of user-flows via [`UserFlowModel`].
//!
//! A directional link is a FIFO with one packet size and no preemption, so
//! Lindley's recursion gives each packet's departure when the link accepts
//! it: `dep = max(t, free_at) + tx`, `free_at` being the last accepted
//! packet's. A departure is therefore not an event. An arrival at `t`
//! finds `ceil((free_at − t) / tx)` packets in a buffer of `cap` and
//! tail-drops unless `free_at − t ≤ (cap − 1)·tx`: it sees every departure
//! at `t` as complete (the tie rule). An accepted packet departs after the
//! horizon (queued), arrives after it (in flight), is delivered by its last
//! hop, or enters the link's propagation pipe, due at `dep + prop`.
//!
//! The scheduler runs on one clock of 8 192 ns time-slices. Periodic source
//! injections are generated per slice by scanning the source table and put
//! in `(time, source)` order by a counting pass over the slice's nanosecond
//! offsets: the scan already yields each source's fires in time order and
//! the sources in index order, so no comparison is needed. A fire is one
//! 16-byte entry, its time with the packet and first link of its source,
//! copied out as the scan reads the source, so injecting it reads nothing
//! else. A helper thread builds the slices, one ahead of the event loop: a
//! slice is a pure function of the source table and its index, so the
//! helper fills the next while the event loop merges the last. It sends
//! every slice, empty ones included, in order over a bounded channel of
//! `SLICES_AHEAD` recycled buffers, which the calling thread sizes so no
//! slice outgrows one, then hangs up; the event loop takes slices until it
//! does. A side with nothing to take yields its CPU and looks again for up
//! to `HANDOFF_SPIN` before it blocks: on a virtual machine a blocked
//! thread can take a millisecond to wake, five slices' merge, so a
//! handoff that slept on every slice stalled the event loop. Pipe exits,
//! the only link events, wait in a calendar with one FIFO per nanosecond
//! offset of the same slice and pop in exactly the `(time, seq)` order one
//! heap would, `seq` being push order; only those due after the slice wait
//! in a binary heap (a 4-ary one measured slower).
//! The fires are merge-joined against the pipe exits under a fixed tie
//! rule: pipe exits first. Before each fire the merge drains the exits due
//! by its time, but the calendar keeps a lower bound on its earliest event
//! in the slice, and a fire before it skips the drain. Most fires do,
//! because fires outnumber pipe exits: 11.67 M to 1.78 M on the benchmark's
//! zoo14 fabric over 20 ms.
//!
//! Per-owner delivered bytes aggregate into `usage_by_owner`, average
//! delivered Gbit/s per owner, so an [`EngineReport`] feeds `ReportUsage`
//! → settlement ledger unchanged, and per-tag delivery feeds the
//! throttling detector ([`crate::discrim`]). One unit of rate is Gbit/s,
//! which is numerically bits/ns — transmission times and delivered-rate
//! conversions need no unit shuffling.
//!
//! A packet is one `u32`: its position in the *walks*, one flat vector
//! holding each source's route of directional links followed by a
//! terminator `WALK_END | source`. `walk[pos]` is the link carrying the
//! packet and `walk[pos + 1]` the next one; when that is a terminator, the
//! link that accepts the packet delivers it and the terminator names whose
//! it was. Owner and tag are the source's, so the hot path counts only
//! deliveries per source and tail drops per walk position, one indexed add
//! each, and [`Engine::run`] folds both into per-owner and per-tag totals
//! when it builds the report. The drop counts are per link as well: a drop
//! at `pos` happened entering `walk[pos]`, so the same fold yields the
//! report's tail drops per directional link with no hot-path counter.
//!
//! A propagation pipe stores, per packet, the gap since the arrival of the
//! packet ahead of it instead of a `u64` arrival time: the head's arrival
//! is its calendar event's time, and the link keeps the arrival of the
//! last packet for the next push. A packet joins the pipe on acceptance,
//! while the packet ahead is still in it, so a gap is below the link's
//! delay plus a full buffer's drain, `prop + cap·tx`, and at most the
//! horizon; [`Engine::new`] holds the smaller to `u32::MAX` ns (4.29 s). A
//! pipe entry is one `u32`: the packet's walk position in the low bits —
//! as many as the walks' length needs, fixed when [`Engine::run`] starts —
//! and the gap in the rest. A gap too wide for its field is written as the
//! field's all-ones escape, with the full `u32` gap in the next slot. A
//! packet in flight costs 4 bytes; a queued one costs nothing.
//!
//! Determinism: two engines built with the same inputs and seed produce
//! byte-identical reports. Everything that orders work — the pipe-exit
//! order `(time, seq)`, the injection-merge tie rule (pipe exits first at
//! equal times, then injections in source order), walk layout,
//! owner/tag interning, source phases drawn from a seeded ChaCha8 — is a
//! function of construction order alone.
//!
//! The engine does not route. Sources enter through one door,
//! [`Engine::add_routing`], which takes a routing made outside it: one
//! source per `(path, share)` split, in the order given, its walk read off
//! the path's links in place. The auction's witness — the routing that
//! proved the selection carries the matrix — goes in as it is, splits and
//! all. [`Engine::add_traffic_matrix`] is the same door fed one path per
//! pair from the installed forwarding state ([`ForwardingState`]), so the
//! engine's packets take the paths a `GetPath` query names.

use poc_core::entity::EntityId;
use poc_core::ForwardingState;
use poc_flow::graph::{PathHops, PathMiss};
use poc_flow::route::FlowRoute;
use poc_flow::LinkSet;
use poc_topology::geo::propagation_delay_ms;
use poc_topology::{LinkId, LogicalLink, PocTopology, RouterId};
use poc_traffic::{TrafficMatrix, UserFlowModel};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::time::{Duration, Instant};

/// Sentinel owner index for unattributed sources.
const NO_OWNER: u16 = u16::MAX;

/// Set on a walk's terminator, whose low bits name the source. Source
/// indices and walk positions stay below it.
const WALK_END: u32 = 1 << 31;

/// Packet size, bytes: every packet is one MTU-sized frame.
pub const PKT_BYTES: u64 = 1500;

/// An ingress throttle applied by a (misbehaving) LMP: sources whose tag
/// matches inject at `factor` (in `[0, 1]`) × their configured rate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IngressThrottle {
    pub tag: String,
    pub factor: f64,
}

/// Engine parameters. Times are nanoseconds.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Simulation horizon, ns.
    pub horizon_ns: u64,
    /// Buffer per directional link, bytes; arrivals that would overflow
    /// it tail-drop.
    pub buffer_bytes: u64,
    /// Seed for source phase staggering (and nothing else).
    pub seed: u64,
    /// Ingress throttles applied by (misbehaving) LMPs. Offered bytes
    /// still count at the configured rate, so throttling is visible as
    /// lost availability.
    pub throttles: Vec<IngressThrottle>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            horizon_ns: 20_000_000, // 20 ms: well past any one-way propagation delay
            buffer_bytes: 1 << 20,  // 1 MiB per direction
            seed: 1,
            throttles: Vec::new(),
        }
    }
}

/// How a source injects over time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// Constant bit-rate for the whole horizon.
    Persistent,
    /// Alternating on/off windows. During on windows the source bursts at
    /// `rate × (on+off)/on`, so its long-run average still matches the
    /// configured rate (and the billing expectation).
    OnOff { on_ns: u64, off_ns: u64 },
}

/// Errors from engine construction and source admission. Library callers
/// feed these from user input (CLI flags, wire requests), so they surface
/// as values — the same panic-free contract as `poc_flow::FlowError`.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// `horizon_ns == 0`: nothing would ever be simulated.
    ZeroHorizon,
    /// The buffer cannot hold even one [`PKT_BYTES`] packet, so every
    /// arrival would tail-drop.
    BufferBelowPacket { buffer_bytes: u64 },
    /// A throttle factor outside `[0, 1]`.
    BadThrottleFactor { tag: String, factor: f64 },
    /// A split's share of the flow `src → dst` is NaN, infinite or
    /// negative.
    BadShare { src: RouterId, dst: RouterId, gbps: f64 },
    /// Source endpoints coincide.
    LoopSource { router: RouterId },
    /// A path of the flow `src → dst` crosses `link`, which is not among
    /// the engine's active links: [`Engine::new`] never checked its delay.
    InactiveLink { src: RouterId, dst: RouterId, link: LinkId },
    /// A path of the flow `src → dst` does not chain from `src`.
    PathMiss { src: RouterId, dst: RouterId, miss: PathMiss },
    /// A path of the flow `src → dst` ends at `end`, not at `dst`.
    PathEndsOff { src: RouterId, dst: RouterId, end: RouterId },
    /// A path of the flow `src → dst`, two routers apart, has no link.
    EmptyPath { src: RouterId, dst: RouterId },
    /// An on/off source with an empty on window would never inject.
    ZeroOnWindow,
    /// An on/off cycle `on_ns + off_ns`, or the horizon plus that cycle,
    /// overflows the `u64` nanosecond clock the injector steps it on.
    OnOffCycleOverflow { on_ns: u64, off_ns: u64, horizon_ns: u64 },
    /// Owner/tag interning uses compact u16 ids; exceeding 65k distinct
    /// classes means the caller is attributing per-packet, not per-member.
    TooManyClasses,
    /// An active link's one-way delay exceeds `u32::MAX` ns (4.29 s): a
    /// propagation pipe stores the gaps between its arrivals in a `u32`.
    LinkDelayTooLong { link: LinkId, prop_ns: u64 },
    /// An active link can hold a packet for `span_ns > u32::MAX` ns from
    /// acceptance to arrival (its delay plus a full buffer's drain, or the
    /// horizon if shorter), and so could the gaps in its pipe.
    LinkSpanTooLong { link: LinkId, span_ns: u64 },
    /// Source `source` would grow the walks to `walk_len` entries: a
    /// packet is a walk position and a terminator names its source below
    /// `2^31`, so neither may reach it.
    WalkFull { source: usize, walk_len: usize },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroHorizon => write!(f, "engine horizon must be positive"),
            EngineError::BufferBelowPacket { buffer_bytes } => {
                write!(f, "link buffer of {buffer_bytes} B cannot hold one {PKT_BYTES} B packet")
            }
            EngineError::BadThrottleFactor { tag, factor } => {
                write!(f, "throttle factor for tag {tag:?} must be in [0,1], got {factor}")
            }
            EngineError::BadShare { src, dst, gbps } => {
                write!(f, "a share of {src}->{dst} must be finite and non-negative, got {gbps}")
            }
            EngineError::LoopSource { router } => {
                write!(f, "source endpoints coincide at router {router:?}")
            }
            EngineError::InactiveLink { src, dst, link } => {
                write!(f, "a path of {src}->{dst} crosses {link}, which is not an active link")
            }
            EngineError::PathMiss { src, dst, miss } => write!(f, "a path of {src}->{dst}: {miss}"),
            EngineError::PathEndsOff { src, dst, end } => {
                write!(f, "a path of {src}->{dst} ends at {end}")
            }
            EngineError::EmptyPath { src, dst } => write!(f, "a path of {src}->{dst} has no link"),
            EngineError::ZeroOnWindow => write!(f, "on/off source needs a non-empty on window"),
            EngineError::OnOffCycleOverflow { on_ns, off_ns, horizon_ns } => write!(
                f,
                "on/off cycle of {on_ns} + {off_ns} ns past a horizon of {horizon_ns} ns \
                 overflows the 64-bit nanosecond clock"
            ),
            EngineError::TooManyClasses => {
                write!(f, "more than 65534 distinct owners or tags")
            }
            EngineError::LinkDelayTooLong { link, prop_ns } => write!(
                f,
                "link {link} has a one-way delay of {prop_ns} ns; the engine carries at most \
                 {} ns (4.29 s)",
                u32::MAX
            ),
            EngineError::LinkSpanTooLong { link, span_ns } => write!(
                f,
                "link {link} can hold a packet for {span_ns} ns from acceptance to arrival; \
                 the engine carries at most {} ns (4.29 s)",
                u32::MAX
            ),
            EngineError::WalkFull { source, walk_len } => write!(
                f,
                "source {source} would grow the walks to {walk_len} entries; sources and walk \
                 entries must stay below 2^31"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-tag delivery accounting (neutrality detection input).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TagStats {
    pub tag: String,
    /// Bytes the class *intended* to send over the horizon (configured
    /// rate × horizon, unthrottled).
    pub offered_bytes: f64,
    /// Bytes that reached their destination within the horizon.
    pub delivered_bytes: u64,
    /// Packets tail-dropped at full buffers.
    pub dropped_pkts: u64,
}

impl TagStats {
    /// Delivered / offered (1.0 when nothing was offered).
    pub(crate) fn availability(&self) -> f64 {
        if self.offered_bytes <= 0.0 {
            1.0
        } else {
            self.delivered_bytes as f64 / self.offered_bytes
        }
    }
}

/// Aggregate engine output. Serializable so determinism can be asserted
/// byte-for-byte, and shaped so `usage_by_owner` drops straight into
/// [`Poc::billing_cycle`](poc_core::poc::Poc::billing_cycle) and
/// `ReportUsage`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineReport {
    pub horizon_ns: u64,
    /// Discrete events processed: propagation-pipe exits plus
    /// `packets_injected`. A departure is not an event.
    pub events: u64,
    /// Every injected packet ends in exactly one of the next four counts.
    pub packets_injected: u64,
    pub packets_delivered: u64,
    pub packets_dropped: u64,
    /// Accepted by a link's FIFO, departing after the horizon.
    pub packets_queued: u64,
    /// Departed a link but not arrived at its far end by the horizon.
    pub packets_in_flight: u64,
    pub bytes_delivered: u64,
    /// Average delivered Gbit/s per owner over the horizon — the billing
    /// input.
    pub usage_by_owner: Vec<(EntityId, f64)>,
    pub per_tag: Vec<TagStats>,
    pub n_sources: usize,
    /// User-flows the sources aggregate (a pair's sources stand in for
    /// [`UserFlowModel::user_flows`] of its demand).
    pub n_user_flows: u64,
    /// Flows added with no path.
    pub unroutable_pairs: u32,
    /// Tail drops per directional link that dropped any, most first (equal
    /// counts in link order). They sum to `packets_dropped`.
    pub link_drops: Vec<LinkDrops>,
}

impl EngineReport {
    /// Total delivered / total offered bytes.
    pub fn overall_availability(&self) -> f64 {
        let offered: f64 = self.per_tag.iter().map(|t| t.offered_bytes).sum();
        if offered <= 0.0 {
            1.0
        } else {
            self.bytes_delivered as f64 / offered
        }
    }

    /// Delivered / (delivered + dropped) packets: the share of the packets
    /// whose fate the horizon settled that arrived. Packets still queued
    /// or in flight at the horizon are not losses. 1 when none settled.
    pub fn settled_delivery(&self) -> f64 {
        let settled = self.packets_delivered + self.packets_dropped;
        if settled == 0 {
            1.0
        } else {
            self.packets_delivered as f64 / settled as f64
        }
    }

    /// Availability of one traffic class, or `None` if no source carries
    /// the tag.
    pub(crate) fn availability_by_tag(&self, tag: &str) -> Option<f64> {
        self.per_tag.iter().find(|t| t.tag == tag).map(TagStats::availability)
    }

    /// Average delivered rate across all owners and classes, Gbit/s.
    pub fn delivered_gbps(&self) -> f64 {
        self.bytes_delivered as f64 * 8.0 / self.horizon_ns as f64
    }
}

/// The load the sources offer one directional link, `from → to` over
/// `link`: each source's average injection rate, summed over the sources
/// whose route crosses it. Read before the run, so it is what the routes
/// ask of the link, not what reaches it past upstream drops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkLoad {
    pub link: LinkId,
    pub from: RouterId,
    pub to: RouterId,
    pub offered_gbps: f64,
    pub capacity_gbps: f64,
}

impl LinkLoad {
    /// Offered over capacity: above 1 the link is oversubscribed.
    pub fn ratio(&self) -> f64 {
        self.offered_gbps / self.capacity_gbps
    }
}

/// The packets one directional link, `from → to` over `link`, tail-dropped
/// at its full buffer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkDrops {
    pub link: LinkId,
    pub from: RouterId,
    pub to: RouterId,
    pub dropped: u64,
}

/// One directional link's buffer as Lindley's recursion sees it, kept in
/// one compact per-link array apart from [`DLink`]: the tail-drop check,
/// the hottest path under overload, reads 24 bytes per arrival.
#[derive(Clone, Copy, Debug)]
struct Fifo {
    /// Departure time of the last accepted packet; 0 before the first.
    free_at: u64,
    /// `(cap − 1)·tx_ns` for a buffer of `cap` packets.
    limit: u64,
    /// Serialization time of one packet, ns, in `[1, horizon + 1]`: a link
    /// too slow to send a packet within the horizon, a zero-rate one among
    /// them, takes `horizon + 1`. Its packets depart after the horizon
    /// either way, and `free_at` counts them in steps of `tx_ns` that
    /// `limit` stops at `cap`. The arithmetic saturates; it is exact while
    /// `horizon + cap·tx_ns` fits in 64 bits.
    tx_ns: u64,
}

impl Fifo {
    fn new(cap: u64, tx_ns: u64) -> Self {
        Fifo { free_at: 0, limit: (cap - 1).saturating_mul(tx_ns), tx_ns }
    }

    /// The departure time of a packet arriving at `t`, no earlier than the
    /// last arrival, or `None` if the buffer is full and it tail-drops.
    fn admit(&mut self, t: u64) -> Option<u64> {
        if self.free_at.saturating_sub(t) > self.limit {
            return None;
        }
        self.free_at = self.free_at.max(t).saturating_add(self.tx_ns);
        Some(self.free_at)
    }
}

/// One directional link's far side: its one-way delay and the pipe of the
/// packets it accepted that arrive within the horizon. Keeping them here
/// keeps the event queue at O(links) entries, not O(packets in flight).
#[derive(Clone, Debug)]
struct DLink {
    /// One-way delay, ns; at most `u32::MAX` on an active link.
    prop_ns: u64,
    pipe: Pipe,
}

/// A link's propagation pipe, in arrival order. Propagation delay is
/// constant per link and a FIFO departs in acceptance order, so arrivals
/// are FIFO and only the head needs an event: its arrival is that event's
/// time. Every later entry stores the gap since the arrival of the entry
/// ahead of it, which the module doc bounds.
///
/// An entry packs the gap above the packet, which takes the low
/// `pos_bits` bits ([`pos_bits`]). A gap of `u32::MAX >> pos_bits` or more
/// does not fit its field: the field holds that all-ones escape and the
/// next slot the full gap.
#[derive(Clone, Debug, Default)]
struct Pipe {
    entries: VecDeque<PipeEntry>,
    /// Arrival time of the last entry; stale while the pipe is empty.
    last_arr: u64,
}

/// `gap << pos_bits | pos`, or an escaped gap's full value.
type PipeEntry = u32;

const _: () = assert!(std::mem::size_of::<PipeEntry>() == 4);

impl Pipe {
    /// Append `pkt`, arriving at `t_arr`: no earlier than, and at most
    /// `u32::MAX` ns after, the last entry. `pkt` is below `2^pos_bits`.
    /// Returns whether the pipe was empty, in which case `pkt` is the head
    /// and needs its exit scheduled.
    fn push(&mut self, t_arr: u64, pkt: Packet, pos_bits: u32) -> bool {
        let empty = self.entries.is_empty();
        let gap = if empty { 0 } else { t_arr - self.last_arr };
        let gap = u32::try_from(gap).expect("a gap is at most a span Engine::new held to u32");
        let escape = u32::MAX >> pos_bits;
        self.entries.push_back(gap.min(escape) << pos_bits | pkt.0);
        if gap >= escape {
            self.entries.push_back(gap);
        }
        self.last_arr = t_arr;
        empty
    }

    /// Remove the head, which arrives at `now`, and return it with the new
    /// head's arrival time, if there is a new head.
    fn pop(&mut self, now: u64, pos_bits: u32) -> Option<(Packet, Option<u64>)> {
        let escape = u32::MAX >> pos_bits;
        let head = self.entries.pop_front()?;
        if head >> pos_bits == escape {
            self.entries.pop_front();
        }
        let next = self.entries.front().map(|&e| match e >> pos_bits {
            gap if gap == escape => self.entries[1],
            gap => gap,
        });
        Some((Packet(head & !(u32::MAX << pos_bits)), next.map(|gap| now + gap as u64)))
    }
}

/// Bits a pipe entry gives the walk position: the width of `walk_len`,
/// and at least one. The walks stay below `2^31` entries ([`WALK_END`]),
/// so the gap keeps at least one bit.
fn pos_bits(walk_len: usize) -> u32 {
    (usize::BITS - walk_len.leading_zeros()).max(1)
}

/// A packet, [`PKT_BYTES`] long: its position in the walks.
/// `walk[pos]` is the directional link carrying it, or whose buffer it is
/// entering; `walk[pos + 1]` is the next link or its source's terminator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Packet(u32);

const _: () = assert!(std::mem::size_of::<Packet>() == 4);

#[derive(Clone, Copy, Debug)]
struct Source {
    /// Walk position of the route's first link: the packet a fire injects.
    start: u32,
    /// `walk[start]`, denormalized so a fire (the majority of events)
    /// carries its first link and the inject path skips the walk.
    first_dl: u32,
    owner: u16,
    tag: u16,
    /// Average injection rate (configured × throttle), Gbit/s: what the
    /// source offers each link of its walk.
    gbps: f64,
    /// Inter-packet gap at the (throttled, burst-scaled) injection rate.
    gap_ns: u64,
    kind: SourceKind,
    /// Deterministic phase stagger so sources don't all fire at t=0.
    phase_ns: u64,
}

/// The pipe-exit queue, on the injector's clock. Its nodes are the
/// directional links: node `dl` is pending while the head of `dl`'s
/// propagation pipe is on its way to the far end, and a link's pipe has one
/// head, so a node is never queued twice. It holds one FIFO per nanosecond
/// offset of the current [`BUCKET_NS`] slice, linked through `next` and
/// found through the `occupied` bitmap's lowest set bit, plus a binary heap
/// keyed `(at, seq)` for events due after the slice. Injections are not
/// link events: periodic source fires are generated per slice by
/// [`Injector`] and merge-joined against this queue instead.
///
/// It also keeps `due`, a lower bound on the slice's earliest event, so the
/// merge asks it for pipe exits only when one can be due.
///
/// Pops come out in `(at, seq)` order, `seq` being push order. Offsets
/// pop in time order, and each offset's FIFO holds its events in push
/// order: [`Calendar::begin_slice`] moves the slice's heap events in, in
/// heap order, before anything is pushed in that slice — so before every
/// later push — and pushes append. `seq` wraps after 2³² heap pushes in
/// one run; order among equal-time events straddling a wrap then deviates
/// from push order but stays deterministic, which is the property the
/// engine guarantees.
struct Calendar {
    base: u64,
    /// No event is due before this time: at most the earliest event of the
    /// current slice, and at most the slice's end. A push into the slice
    /// lowers it; a [`Calendar::pop`] that finds nothing due raises it.
    due: u64,
    /// No word of `occupied` below this one has a bit set.
    word: usize,
    occupied: Vec<u64>,
    /// Each offset's `[head, tail]` node; stale while its bit is clear.
    slots: Vec<[u32; 2]>,
    next: Vec<u32>,
    /// `at << 64 | seq << 32 | node`, least first.
    far: BinaryHeap<Reverse<u128>>,
    seq: u32,
}

impl Calendar {
    fn new(n_nodes: usize) -> Self {
        Calendar {
            base: 0,
            due: 0,
            word: 0,
            occupied: vec![0; BUCKET_NS as usize / 64],
            slots: vec![[0; 2]; BUCKET_NS as usize],
            next: vec![0; n_nodes],
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Make `[base, base + BUCKET_NS)` the current slice and move its
    /// events out of the heap. The previous slice must be empty.
    fn begin_slice(&mut self, base: u64) {
        self.base = base;
        self.word = 0;
        let end = base.saturating_add(BUCKET_NS);
        self.due = end;
        while let Some(&Reverse(key)) = self.far.peek() {
            let at = (key >> 64) as u64;
            if at >= end {
                break;
            }
            self.far.pop();
            self.push(at, key as u32);
        }
    }

    /// Schedule `node` at `at`, which precedes neither the last `until`
    /// given to [`Calendar::pop`] nor the last event it returned.
    fn push(&mut self, at: u64, node: u32) {
        let off = at - self.base;
        if off >= BUCKET_NS {
            self.far.push(Reverse((at as u128) << 64 | (self.seq as u128) << 32 | node as u128));
            self.seq = self.seq.wrapping_add(1);
            return;
        }
        self.due = self.due.min(at);
        let off = off as usize;
        let (word, bit) = (&mut self.occupied[off / 64], 1 << (off % 64));
        let slot = &mut self.slots[off];
        if *word & bit == 0 {
            *word |= bit;
            slot[0] = node;
        } else {
            self.next[slot[1] as usize] = node;
        }
        slot[1] = node;
    }

    /// Remove and return the first event `(at, node)` if it is due at or
    /// before `until`, which lies in the current slice and is no earlier
    /// than the last `until`. A call that finds nothing due raises `due`.
    fn pop(&mut self, until: u64) -> Option<(u64, u32)> {
        let last = ((until - self.base) / 64) as usize;
        while self.occupied[self.word] == 0 {
            if self.word == last {
                // Every word up to `last` is empty.
                self.due = self.base.saturating_add((last as u64 + 1) * 64);
                return None;
            }
            self.word += 1;
        }
        let bits = self.occupied[self.word];
        let off = self.word * 64 + bits.trailing_zeros() as usize;
        let at = self.base + off as u64;
        if at > until {
            self.due = at;
            return None;
        }
        let [head, tail] = self.slots[off];
        if head == tail {
            self.occupied[self.word] = bits & (bits - 1);
        } else {
            self.slots[off][0] = self.next[head as usize];
        }
        Some((at, head))
    }
}

/// Mutable scheduler state for one [`Engine::run`]: the pipe-exit calendar
/// plus every counter the report is assembled from. Split out of the engine
/// so the hot-path methods can borrow it mutably alongside the engine's
/// link tables and walks.
struct RunState {
    cal: Calendar,
    horizon: u64,
    /// Bits a pipe entry gives the walk position: [`pos_bits`] of the
    /// walks' length.
    pos_bits: u32,
    pipe_exits: u64,
    packets_injected: u64,
    packets_queued: u64,
    packets_in_flight: u64,
    /// Deliveries per source, named by the walk's terminator.
    delivered: Vec<u64>,
    /// Tail drops per walk position: a drop at `pos` entering `walk[pos]`.
    dropped: Vec<u64>,
}

impl RunState {
    /// Offer a packet to directional link `dl`, which is `walk[pkt]`, at
    /// `now`: tail-drop it, or accept it and settle on the spot whether it
    /// is queued or in flight at the horizon, delivered, or piped onward.
    fn arrive(
        &mut self,
        fifos: &mut [Fifo],
        links: &mut [DLink],
        walk: &[u32],
        now: u64,
        dl: u32,
        pkt: Packet,
    ) {
        let Some(dep) = fifos[dl as usize].admit(now) else {
            self.dropped[pkt.0 as usize] += 1;
            return;
        };
        if dep > self.horizon {
            self.packets_queued += 1;
            return;
        }
        let link = &mut links[dl as usize];
        let t_arr = dep.saturating_add(link.prop_ns);
        if t_arr > self.horizon {
            self.packets_in_flight += 1;
            return;
        }
        let next = pkt.0 + 1;
        let ahead = walk[next as usize];
        if ahead & WALK_END != 0 {
            self.delivered[(ahead ^ WALK_END) as usize] += 1;
        } else if link.pipe.push(t_arr, Packet(next), self.pos_bits) {
            self.cal.push(t_arr, dl);
        }
    }

    /// Process every pipe exit scheduled at or before `until`, which lies
    /// in the calendar's slice. The injection merge calls this with a
    /// fire's timestamp whenever an exit can be due by it, so pipe exits
    /// win ties at equal times — a fixed rule, which is all determinism
    /// needs.
    fn drain_links(&mut self, fifos: &mut [Fifo], links: &mut [DLink], walk: &[u32], until: u64) {
        while let Some((now, dl)) = self.cal.pop(until) {
            self.pipe_exits += 1;
            let (pkt, next) =
                links[dl as usize].pipe.pop(now, self.pos_bits).expect("pipe head exists");
            if let Some(at) = next {
                self.cal.push(at, dl);
            }
            self.arrive(fifos, links, walk, now, walk[pkt.0 as usize], pkt);
        }
    }

    /// Merge-join every slice `full` delivers, in the order sent, against
    /// the pipe exits, and return each emptied buffer on `free`. The
    /// injector sends every slice up to the one holding the horizon and
    /// then hangs up, so the loop ends with the last slice.
    ///
    /// The tie rule at equal timestamps — pipe exits first, then
    /// injections in source order — is fixed, which is all the determinism
    /// guarantee needs. Nothing is due before the calendar's `due`, so a
    /// fire before it skips the drain. One drain past the last fire empties
    /// the slice (or `due` shows it empty), so the calendar is empty when
    /// the next slice begins and after the last: nothing is scheduled
    /// beyond the horizon, so every pipe is empty too.
    fn merge(
        &mut self,
        fifos: &mut [Fifo],
        links: &mut [DLink],
        walk: &[u32],
        full: Receiver<(u64, Vec<Fire>)>,
        free: SyncSender<Vec<Fire>>,
    ) {
        while let Some((bucket_start, fires)) = take(&full) {
            let bucket_end = bucket_start.saturating_add(BUCKET_NS);
            self.cal.begin_slice(bucket_start);
            self.packets_injected += fires.len() as u64;
            for fire in fires.iter().map(Some).chain([None]) {
                let until = fire.map_or(bucket_end - 1, |f| f.at);
                if until >= self.cal.due {
                    self.drain_links(fifos, links, walk, until);
                }
                let Some(&Fire { at, pkt, dl }) = fire else { break };
                self.arrive(fifos, links, walk, at, dl, pkt);
            }
            // Once the injector has sent its last slice it needs no buffer.
            let _ = free.send(fires);
        }
    }
}

/// Width of one injection time-slice, ns.
const BUCKET_NS: u64 = 8192;

/// Slice buffers in circulation between the injector and the event loop:
/// the injector fills the next slice while the event loop merges one.
const SLICES_AHEAD: usize = 2;

/// How long a side of the slice handoff yields and looks again before it
/// blocks. On two CPUs the injector waits about half a slice's merge for
/// each buffer and the event loop hardly at all, so neither blocks; on one
/// CPU the yield runs the other side at once.
const HANDOFF_SPIN: Duration = Duration::from_millis(1);

/// The next message on `rx`, or `None` once its sender has hung up. While
/// none is there, yield the CPU and look again, for up to
/// [`HANDOFF_SPIN`]; then block.
fn take<T>(rx: &Receiver<T>) -> Option<T> {
    let mut since = None;
    loop {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {
                if since.get_or_insert_with(Instant::now).elapsed() >= HANDOFF_SPIN {
                    return rx.recv().ok();
                }
                std::thread::yield_now();
            }
        }
    }
}

/// One source fire: its time and the packet it injects, with the link that
/// packet enters. It is copied out of the source when the injector scans
/// it, so the merge reads nothing else per injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fire {
    at: u64,
    /// The source's `start`.
    pkt: Packet,
    /// The source's `first_dl`, `walk[start]`.
    dl: u32,
}

const _: () = assert!(std::mem::size_of::<Fire>() == 16);

/// Generates the sources' fires one [`BUCKET_NS`] slice at a time, each
/// slice in `(time, source)` order. Every source is a periodic arithmetic
/// progression, so a slice's fires come from one scan of the source table;
/// the scan emits them in `(source, time)` order, and a stable counting
/// placement on the offset into the slice turns that into `(time, source)`
/// order — equal times keep the scan's source order — with no comparison.
struct Injector {
    /// Each source's next fire; `u64::MAX` once it is past the horizon.
    next_at: Vec<u64>,
    /// Fires per nanosecond offset of the current slice, then each offset's
    /// write cursor. All zero between slices.
    slots: Vec<usize>,
    /// The slice's fires as scanned: by source, ascending in time within
    /// one source. Room for [`slice_capacity`] fires, so it never grows.
    scanned: Vec<Fire>,
}

/// The most fires one slice can hold. A source's consecutive fires are at
/// least its `gap_ns` apart, an off window only delaying the next, so it
/// fires at most `BUCKET_NS / gap_ns + 1` times in a slice.
fn slice_capacity(sources: &[Source]) -> usize {
    sources.iter().map(|s| (BUCKET_NS / s.gap_ns + 1) as usize).sum()
}

impl Injector {
    fn new(sources: &[Source]) -> Self {
        Injector {
            next_at: sources.iter().map(|s| s.phase_ns).collect(),
            slots: vec![0; BUCKET_NS as usize],
            scanned: Vec::with_capacity(slice_capacity(sources)),
        }
    }

    /// Fill `fires` with the fires in `[bucket_start, bucket_start +
    /// BUCKET_NS)` that are not past `horizon`, in `(time, source)` order.
    /// Slices must be asked for in ascending order, each once. A `fires`
    /// with room for [`slice_capacity`] fires never grows.
    fn bucket(
        &mut self,
        sources: &[Source],
        bucket_start: u64,
        horizon: u64,
        fires: &mut Vec<Fire>,
    ) {
        let bucket_end = bucket_start.saturating_add(BUCKET_NS);
        self.scanned.clear();
        for (i, s) in sources.iter().enumerate() {
            let mut t = self.next_at[i];
            if t >= bucket_end {
                continue;
            }
            while t < bucket_end {
                if t > horizon {
                    // Park the source so later slices skip it.
                    t = u64::MAX;
                    break;
                }
                if let SourceKind::OnOff { on_ns, off_ns } = s.kind {
                    let cycle = on_ns + off_ns;
                    let rel = (t + cycle - s.phase_ns % cycle) % cycle;
                    if rel >= on_ns {
                        // Off window: skip to the next on window.
                        t = t.saturating_add(cycle - rel);
                        continue;
                    }
                }
                self.slots[(t - bucket_start) as usize] += 1;
                self.scanned.push(Fire { at: t, pkt: Packet(s.start), dl: s.first_dl });
                t = t.saturating_add(s.gap_ns);
            }
            self.next_at[i] = t;
        }
        // Counts become each offset's first position in the batch.
        let mut at = 0;
        for slot in &mut self.slots {
            at += std::mem::replace(slot, at);
        }
        fires.clear();
        fires.resize(self.scanned.len(), Fire { at: 0, pkt: Packet(0), dl: 0 });
        for &fire in &self.scanned {
            let slot = &mut self.slots[(fire.at - bucket_start) as usize];
            fires[*slot] = fire;
            *slot += 1;
        }
        self.slots.fill(0);
    }

    /// Build every slice from 0 to the one holding `horizon`, in order,
    /// each into a buffer taken from `free`, and send it on `full` with its
    /// start, empty slices included; then hang up by returning. Returns
    /// early if the event loop hung up.
    fn feed(
        mut self,
        sources: &[Source],
        horizon: u64,
        free: Receiver<Vec<Fire>>,
        full: SyncSender<(u64, Vec<Fire>)>,
    ) {
        let mut bucket_start = 0;
        loop {
            let Some(mut fires) = take(&free) else { return };
            self.bucket(sources, bucket_start, horizon, &mut fires);
            if full.send((bucket_start, fires)).is_err() {
                return;
            }
            match bucket_start.checked_add(BUCKET_NS) {
                Some(next) if next <= horizon => bucket_start = next,
                _ => return,
            }
        }
    }
}

/// Whether source index `source` and `walk_len`, the walks' length once
/// its walk is added, stay below [`WALK_END`].
fn walk_fits(source: usize, walk_len: usize) -> Result<(), EngineError> {
    if source >= WALK_END as usize || walk_len >= WALK_END as usize {
        return Err(EngineError::WalkFull { source, walk_len });
    }
    Ok(())
}

/// The packet engine. Build over a topology and the leased link set, add
/// sources from a routing or a traffic matrix, then [`Engine::run`].
pub struct Engine<'t> {
    topo: &'t PocTopology,
    /// The links [`Engine::new`] admitted; a path may cross only these.
    active: LinkSet,
    cfg: EngineConfig,
    /// Each directional link's buffer; `links` holds its delay and pipe.
    fifos: Vec<Fifo>,
    links: Vec<DLink>,
    /// Every source's route of directional links, each followed by its
    /// terminator `WALK_END | source`; packets are positions in it.
    /// Contiguous so the per-hop lookups in the event loop stay in cache
    /// instead of chasing one heap allocation per route.
    walk: Vec<u32>,
    sources: Vec<Source>,
    owners: Vec<EntityId>,
    owner_of: BTreeMap<EntityId, u16>,
    tags: Vec<String>,
    tag_of: BTreeMap<String, u16>,
    tag_offered: Vec<f64>,
    n_user_flows: u64,
    unroutable_pairs: u32,
    rng: ChaCha8Rng,
}

impl<'t> Engine<'t> {
    pub fn new(
        topo: &'t PocTopology,
        active: &LinkSet,
        cfg: EngineConfig,
    ) -> Result<Self, EngineError> {
        if cfg.horizon_ns == 0 {
            return Err(EngineError::ZeroHorizon);
        }
        if cfg.buffer_bytes < PKT_BYTES {
            return Err(EngineError::BufferBelowPacket { buffer_bytes: cfg.buffer_bytes });
        }
        for t in &cfg.throttles {
            if !(0.0..=1.0).contains(&t.factor) {
                return Err(EngineError::BadThrottleFactor {
                    tag: t.tag.clone(),
                    factor: t.factor,
                });
            }
        }
        let horizon = cfg.horizon_ns;
        let cap = cfg.buffer_bytes / PKT_BYTES;
        let mut fifos = Vec::with_capacity(topo.n_links() * 2);
        let mut links = Vec::with_capacity(topo.n_links() * 2);
        for l in &topo.links {
            let ns_per_byte =
                if l.capacity_gbps > 0.0 { 8.0 / l.capacity_gbps } else { f64::INFINITY };
            // `∞` saturates to `u64::MAX` on the cast; past the horizon any
            // time is as good as `horizon + 1` (see `Fifo::tx_ns`).
            let tx_ns =
                ((PKT_BYTES as f64 * ns_per_byte).max(1.0) as u64).min(horizon.saturating_add(1));
            let prop_ns = (propagation_delay_ms(l.distance_km) * 1e6).round() as u64;
            if active.contains(l.id) {
                if prop_ns > u32::MAX as u64 {
                    return Err(EngineError::LinkDelayTooLong { link: l.id, prop_ns });
                }
                // A link that sends a packet within the horizon puts it in
                // its pipe; the gaps there stay within this span.
                let span_ns = prop_ns.saturating_add(cap.saturating_mul(tx_ns)).min(horizon);
                if tx_ns <= horizon && span_ns > u32::MAX as u64 {
                    return Err(EngineError::LinkSpanTooLong { link: l.id, span_ns });
                }
            }
            // Forward and reverse direction.
            let d = DLink { prop_ns, pipe: Pipe::default() };
            fifos.extend([Fifo::new(cap, tx_ns); 2]);
            links.extend([d.clone(), d]);
        }
        let seed = cfg.seed;
        Ok(Self {
            topo,
            active: active.clone(),
            cfg,
            fifos,
            links,
            walk: Vec::new(),
            sources: Vec::new(),
            owners: Vec::new(),
            owner_of: BTreeMap::new(),
            tags: Vec::new(),
            tag_of: BTreeMap::new(),
            tag_offered: Vec::new(),
            n_user_flows: 0,
            unroutable_pairs: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        })
    }

    fn intern_owner(&mut self, owner: Option<EntityId>) -> Result<u16, EngineError> {
        let Some(owner) = owner else { return Ok(NO_OWNER) };
        if let Some(&id) = self.owner_of.get(&owner) {
            return Ok(id);
        }
        if self.owners.len() >= NO_OWNER as usize {
            return Err(EngineError::TooManyClasses);
        }
        let id = self.owners.len() as u16;
        self.owners.push(owner);
        self.owner_of.insert(owner, id);
        Ok(id)
    }

    fn intern_tag(&mut self, tag: &str) -> Result<u16, EngineError> {
        if let Some(&id) = self.tag_of.get(tag) {
            return Ok(id);
        }
        if self.tags.len() >= NO_OWNER as usize {
            return Err(EngineError::TooManyClasses);
        }
        let id = self.tags.len() as u16;
        self.tags.push(tag.to_string());
        self.tag_of.insert(tag.to_string(), id);
        self.tag_offered.push(0.0);
        Ok(id)
    }

    /// Add the sources of a routing made outside the engine: one per
    /// `(path, share)` split of each flow, in the order given, injecting
    /// the split's share (Gbit/s) along its path. `classify` names each
    /// flow's billing owner and traffic tag from its source router. The
    /// flow's user flows under `model` go to its [`FlowRoute::primary`]
    /// split; a flow with no path adds nothing and counts as one unroutable
    /// pair. Returns the number of splits added.
    ///
    /// Every path must run over active links from the flow's `src` to its
    /// `dst`, and every share must be finite and non-negative; a refusal
    /// keeps the sources added before it.
    pub fn add_routing<F>(
        &mut self,
        flows: impl IntoIterator<Item = impl Borrow<FlowRoute>>,
        model: &UserFlowModel,
        kind: SourceKind,
        mut classify: F,
    ) -> Result<usize, EngineError>
    where
        F: FnMut(RouterId) -> (Option<EntityId>, String),
    {
        self.check_kind(kind)?;
        let mut added = 0;
        for flow in flows {
            let flow = flow.borrow();
            if flow.src == flow.dst {
                return Err(EngineError::LoopSource { router: flow.src });
            }
            let Some(primary) = flow.primary() else {
                self.unroutable_pairs += 1;
                continue;
            };
            let (owner, tag) = classify(flow.src);
            let owner = self.intern_owner(owner)?;
            let tag_id = self.intern_tag(&tag)?;
            let throttle: f64 = (self.cfg.throttles.iter())
                .filter(|t| t.tag == tag)
                .map(|t| t.factor)
                .fold(1.0, f64::min);
            for split in &flow.paths {
                let user_flows = if std::ptr::eq(split, primary) {
                    model.user_flows(flow.demand_gbps)
                } else {
                    0
                };
                self.add_source(flow, split, owner, tag_id, throttle, kind, user_flows)?;
                added += 1;
            }
        }
        Ok(added)
    }

    /// Refuse an on/off source that never injects or whose cycle the
    /// nanosecond clock cannot step past the horizon.
    fn check_kind(&self, kind: SourceKind) -> Result<(), EngineError> {
        if let SourceKind::OnOff { on_ns, off_ns } = kind {
            if on_ns == 0 {
                return Err(EngineError::ZeroOnWindow);
            }
            // The injector steps a fire at `t ≤ horizon` by up to a cycle.
            let horizon_ns = self.cfg.horizon_ns;
            if on_ns.checked_add(off_ns).and_then(|c| c.checked_add(horizon_ns)).is_none() {
                return Err(EngineError::OnOffCycleOverflow { on_ns, off_ns, horizon_ns });
            }
        }
        Ok(())
    }

    /// Add the source of one split of `flow`, standing in for `user_flows`
    /// user flows: its walk, then its fires' schedule.
    // One parameter per independent knob of the source; bundling them
    // into a spec struct would just move the field list.
    #[allow(clippy::too_many_arguments)]
    fn add_source(
        &mut self,
        flow: &FlowRoute,
        (path, rate_gbps): &(Vec<LinkId>, f64),
        owner: u16,
        tag: u16,
        throttle: f64,
        kind: SourceKind,
        user_flows: u64,
    ) -> Result<(), EngineError> {
        let (src, dst, rate_gbps) = (flow.src, flow.dst, *rate_gbps);
        if !(rate_gbps.is_finite() && rate_gbps >= 0.0) {
            return Err(EngineError::BadShare { src, dst, gbps: rate_gbps });
        }
        if path.is_empty() {
            return Err(EngineError::EmptyPath { src, dst });
        }
        let start = self.walk.len();
        walk_fits(self.sources.len(), start + path.len() + 1)?;
        if let Err(e) = self.push_walk(src, dst, path) {
            self.walk.truncate(start);
            return Err(e);
        }
        // Offered intent at the configured (unthrottled) rate: bits/ns ×
        // ns / 8 = bytes.
        self.tag_offered[tag as usize] += rate_gbps * self.cfg.horizon_ns as f64 / 8.0;
        self.n_user_flows += user_flows;
        let peak = match kind {
            SourceKind::Persistent => rate_gbps * throttle,
            SourceKind::OnOff { on_ns, off_ns } => {
                rate_gbps * throttle * (on_ns + off_ns) as f64 / on_ns as f64
            }
        };
        if peak <= 0.0 {
            // Zero rate (or throttled to zero): offers, never injects.
            self.walk.truncate(start);
            return Ok(());
        }
        let gap_ns = ((PKT_BYTES as f64 * 8.0) / peak).max(1.0) as u64;
        let phase_ns = match kind {
            SourceKind::Persistent => self.rng.gen_range(0..gap_ns),
            SourceKind::OnOff { on_ns, off_ns } => self.rng.gen_range(0..on_ns + off_ns),
        };
        self.walk.push(WALK_END | self.sources.len() as u32);
        self.sources.push(Source {
            start: start as u32,
            first_dl: self.walk[start],
            owner,
            tag,
            gbps: rate_gbps * throttle,
            gap_ns,
            kind,
            phase_ns,
        });
        Ok(())
    }

    /// Append `path`'s directional links to the walks, each the link's
    /// index times two plus the direction `path` crosses it in from `src`,
    /// refusing a path that leaves the active links, does not chain from
    /// `src` or ends off `dst`.
    fn push_walk(
        &mut self,
        src: RouterId,
        dst: RouterId,
        path: &[LinkId],
    ) -> Result<(), EngineError> {
        let mut hops = PathHops::new(self.topo, src, path);
        for hop in &mut hops {
            let (link, dir) = hop.map_err(|miss| EngineError::PathMiss { src, dst, miss })?;
            if !self.active.contains(link) {
                return Err(EngineError::InactiveLink { src, dst, link });
            }
            self.walk.push((link.index() * 2 + dir as usize) as u32);
        }
        match hops.at() {
            end if end == dst => Ok(()),
            end => Err(EngineError::PathEndsOff { src, dst, end }),
        }
    }

    /// Scale a traffic matrix to user-flows and add one source per demand
    /// pair, on the pair's path in the forwarding state installed over the
    /// active links, in the matrix's row-major order: [`Engine::add_routing`]
    /// fed one flow at a time. `classify` returns each source router's
    /// billing owner and traffic tag. Returns the number of routable
    /// sources added.
    pub fn add_traffic_matrix<F>(
        &mut self,
        tm: &TrafficMatrix,
        model: &UserFlowModel,
        kind: SourceKind,
        classify: F,
    ) -> Result<usize, EngineError>
    where
        F: FnMut(RouterId) -> (Option<EntityId>, String),
    {
        let fabric = ForwardingState::install(self.topo, &self.active);
        let flows = tm.iter_demands().map(|(src, dst, demand_gbps)| FlowRoute {
            src,
            dst,
            demand_gbps,
            paths: fabric.path(src, dst).map(|path| (path, demand_gbps)).into_iter().collect(),
        });
        self.add_routing(flows, model, kind, classify)
    }

    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    pub fn n_user_flows(&self) -> u64 {
        self.n_user_flows
    }

    /// Offered Gbit/s per directional link: each source's average
    /// injection rate summed over the links of its walk.
    pub(crate) fn offered_gbps(&self) -> Vec<f64> {
        let mut load = vec![0.0; self.links.len()];
        for s in &self.sources {
            for &dl in self.walk[s.start as usize..].iter().take_while(|&&w| w & WALK_END == 0) {
                load[dl as usize] += s.gbps;
            }
        }
        load
    }

    /// Directional link `dl`: its logical link, then the routers it runs
    /// from and to.
    fn direction(&self, dl: usize) -> (&LogicalLink, RouterId, RouterId) {
        let l = self.topo.link(LinkId::from_index(dl / 2));
        if dl.is_multiple_of(2) {
            (l, l.a, l.b)
        } else {
            (l, l.b, l.a)
        }
    }

    /// The load offered to every directional link that carries any, most
    /// oversubscribed first (equal ratios in link order).
    pub fn link_loads(&self) -> Vec<LinkLoad> {
        let mut loads: Vec<LinkLoad> = (self.offered_gbps().into_iter().enumerate())
            .filter(|&(_, offered_gbps)| offered_gbps > 0.0)
            .map(|(dl, offered_gbps)| {
                let (l, from, to) = self.direction(dl);
                LinkLoad { link: l.id, from, to, offered_gbps, capacity_gbps: l.capacity_gbps }
            })
            .collect();
        loads.sort_by(|x, y| y.ratio().total_cmp(&x.ratio()));
        loads
    }

    /// Run to the horizon and report. Consumes the engine: queue state is
    /// not reusable across runs (build a fresh engine per trial). The
    /// source fires are built on one helper thread, joined before this
    /// returns.
    pub fn run(mut self) -> EngineReport {
        let _span = poc_obs::span!("netsim.engine.run");
        let horizon = self.cfg.horizon_ns;
        let mut rt = RunState {
            cal: Calendar::new(self.links.len()),
            horizon,
            pos_bits: pos_bits(self.walk.len()),
            pipe_exits: 0,
            packets_injected: 0,
            packets_queued: 0,
            packets_in_flight: 0,
            delivered: vec![0; self.sources.len()],
            dropped: vec![0; self.walk.len()],
        };

        // The injector and the calendar share one clock of slices. The
        // injector runs on its own thread, a slice ahead of the merge, and
        // the buffers it fills are made here, at their largest, so its
        // loop never allocates. Each channel end is moved into the code
        // that uses it: if either side panics, its ends drop and the other
        // side's next send or receive fails, so it returns instead of
        // waiting forever.
        let injector = Injector::new(&self.sources);
        let (free_tx, free_rx) = sync_channel(SLICES_AHEAD);
        let (full_tx, full_rx) = sync_channel(SLICES_AHEAD);
        let capacity = slice_capacity(&self.sources);
        for _ in 0..SLICES_AHEAD {
            free_tx.send(Vec::with_capacity(capacity)).expect("the channel holds every buffer");
        }
        let sources = &self.sources;
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("netsim-injector".into())
                .spawn_scoped(scope, move || injector.feed(sources, horizon, free_rx, full_tx))
                .expect("spawn the injector thread");
            rt.merge(&mut self.fifos, &mut self.links, &self.walk, full_rx, free_tx);
        });
        debug_assert!(
            self.links.iter().all(|l| l.pipe.entries.is_empty()),
            "a pipe outlived the run"
        );
        let RunState {
            pipe_exits,
            packets_injected,
            packets_queued,
            packets_in_flight,
            delivered,
            dropped,
            ..
        } = rt;
        // Attribution: each walk ends in the terminator naming its source,
        // so a scan credits the drops since the last terminator, and the
        // source's deliveries, to the source's tag and owner. A drop at a
        // link's position happened entering that link.
        let mut owner_delivered = vec![0u64; self.owners.len()];
        let mut tag_delivered = vec![0u64; self.tags.len()];
        let mut tag_dropped = vec![0u64; self.tags.len()];
        let mut link_dropped = vec![0u64; self.links.len()];
        let mut walk_dropped = 0;
        for (&w, &n) in self.walk.iter().zip(&dropped) {
            if w & WALK_END == 0 {
                walk_dropped += n;
                link_dropped[w as usize] += n;
            } else {
                let si = (w ^ WALK_END) as usize;
                let s = &self.sources[si];
                tag_dropped[s.tag as usize] += std::mem::take(&mut walk_dropped);
                tag_delivered[s.tag as usize] += delivered[si];
                if s.owner != NO_OWNER {
                    owner_delivered[s.owner as usize] += delivered[si];
                }
            }
        }
        let events = pipe_exits + packets_injected;
        let packets_delivered = delivered.iter().sum();
        let packets_dropped = dropped.iter().sum();
        let mut link_drops: Vec<LinkDrops> = (link_dropped.into_iter().enumerate())
            .filter(|&(_, dropped)| dropped > 0)
            .map(|(dl, dropped)| {
                let (l, from, to) = self.direction(dl);
                LinkDrops { link: l.id, from, to, dropped }
            })
            .collect();
        link_drops.sort_by_key(|d| Reverse(d.dropped));

        poc_obs::counter!("netsim.engine.events").add(events);
        poc_obs::counter!("netsim.engine.packets_injected").add(packets_injected);
        poc_obs::counter!("netsim.engine.packets_delivered").add(packets_delivered);
        poc_obs::counter!("netsim.engine.packets_dropped").add(packets_dropped);

        let mut usage_by_owner: Vec<(EntityId, f64)> = self
            .owners
            .iter()
            .zip(&owner_delivered)
            .map(|(&o, &n)| (o, (n * PKT_BYTES) as f64 * 8.0 / horizon as f64))
            .collect();
        usage_by_owner.sort_by_key(|&(o, _)| o);
        let per_tag: Vec<TagStats> = self
            .tags
            .iter()
            .enumerate()
            .map(|(i, tag)| TagStats {
                tag: tag.clone(),
                offered_bytes: self.tag_offered[i],
                delivered_bytes: tag_delivered[i] * PKT_BYTES,
                dropped_pkts: tag_dropped[i],
            })
            .collect();
        EngineReport {
            horizon_ns: horizon,
            events,
            packets_injected,
            packets_delivered,
            packets_dropped,
            packets_queued,
            packets_in_flight,
            bytes_delivered: packets_delivered * PKT_BYTES,
            usage_by_owner,
            per_tag,
            n_sources: self.sources.len(),
            n_user_flows: self.n_user_flows,
            unroutable_pairs: self.unroutable_pairs,
            link_drops,
        }
    }
}

#[cfg(test)]
impl Engine<'_> {
    /// Add one source `src → dst` of `rate_gbps` through
    /// [`Engine::add_routing`], on the pair's path in the forwarding state
    /// over the active links, or none: an unroutable pair. Returns the
    /// splits added.
    pub(crate) fn add_pair(
        &mut self,
        src: RouterId,
        dst: RouterId,
        rate_gbps: f64,
        owner: Option<EntityId>,
        tag: &str,
        kind: SourceKind,
    ) -> Result<usize, EngineError> {
        let path = ForwardingState::install(self.topo, &self.active).path(src, dst);
        let paths = path.map(|path| (path, rate_gbps)).into_iter().collect();
        let flow = FlowRoute { src, dst, demand_gbps: rate_gbps, paths };
        self.add_routing([flow], &UserFlowModel::default(), kind, |_| (owner, tag.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;
    use proptest::prelude::*;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    fn engine(cfg: EngineConfig) -> Engine<'static> {
        // Leak the small test topology: Engine borrows it and tests are
        // simpler with a 'static instance.
        let topo: &'static PocTopology = Box::leak(Box::new(two_bp_square()));
        let all = LinkSet::full(topo.n_links());
        Engine::new(topo, &all, cfg).unwrap()
    }

    /// Propagation delay of the direct `a`–`b` link (which is also the
    /// distance-shortest route for every pair used in these tests), ns.
    fn direct_prop_ns(a: RouterId, b: RouterId) -> u64 {
        let topo = two_bp_square();
        let l = topo.links.iter().find(|l| l.connects(a, b)).expect("direct link exists");
        (propagation_delay_ms(l.distance_km) * 1e6).round() as u64
    }

    /// What a source at `rate` Gbit/s can deliver before the horizon: the
    /// last `prop` ns of injections are still in flight when time ends.
    fn edge_adjusted(rate: f64, horizon_ns: u64, prop_ns: u64) -> f64 {
        rate * (horizon_ns.saturating_sub(prop_ns)) as f64 / horizon_ns as f64
    }

    /// `rep`, once every injected packet is accounted for exactly once:
    /// delivered, dropped, queued or in flight at the horizon.
    fn accounted(rep: EngineReport) -> EngineReport {
        let ended = rep.packets_delivered
            + rep.packets_dropped
            + rep.packets_queued
            + rep.packets_in_flight;
        assert_eq!(rep.packets_injected, ended, "{rep:?}");
        rep
    }

    const H100MS: u64 = 100_000_000;

    #[test]
    fn uncongested_source_delivers_its_rate() {
        let mut e = engine(EngineConfig { horizon_ns: H100MS, ..Default::default() });
        e.add_pair(r(0), r(1), 10.0, None, "a", SourceKind::Persistent).unwrap();
        let rep = accounted(e.run());
        assert!(rep.packets_delivered > 0, "{rep:?}");
        assert_eq!(rep.packets_dropped, 0);
        // Everything offered is delivered except the horizon edge effect
        // (packets still crossing 1300 km of fibre when time ends).
        let expected = edge_adjusted(10.0, H100MS, direct_prop_ns(r(0), r(1)));
        let gbps = rep.delivered_gbps();
        assert!((gbps - expected).abs() < 0.2, "delivered {gbps} Gbit/s, expected {expected}");
        assert!(rep.overall_availability() > 0.9, "{rep:?}");
    }

    #[test]
    fn overload_tail_drops_and_caps_delivery_at_link_rate() {
        // 300 Gbit/s offered into a 100 Gbit/s direct link: the FIFO
        // fills, tail drops appear, goodput ≈ line rate (minus the
        // horizon edge effect).
        let mut e = engine(EngineConfig { horizon_ns: H100MS, ..Default::default() });
        for (i, tag) in ["x", "y", "z"].iter().enumerate() {
            let owner = Some(EntityId(i as u32));
            e.add_pair(r(0), r(1), 100.0, owner, tag, SourceKind::Persistent).unwrap();
        }
        let rep = accounted(e.run());
        assert!(rep.packets_dropped > 0, "overload must tail-drop: {rep:?}");
        let line = edge_adjusted(100.0, H100MS, direct_prop_ns(r(0), r(1)));
        let gbps = rep.delivered_gbps();
        assert!(gbps < line + 2.0, "delivery cannot exceed line rate: {gbps} vs {line}");
        assert!(gbps > line - 5.0, "the link should run near saturation: {gbps} vs {line}");
        assert!(rep.overall_availability() < 0.5, "{rep:?}");
    }

    #[test]
    fn link_drops_sum_to_the_dropped_count_on_the_oversubscribed_direction() {
        // 3 × 100 Gbit/s into the direct 100 Gbit/s r0 → r1 link, 40 back:
        // only the forward direction overflows its buffer.
        let mut e = engine(EngineConfig { horizon_ns: 10_000_000, ..Default::default() });
        for tag in ["x", "y", "z"] {
            e.add_pair(r(0), r(1), 100.0, None, tag, SourceKind::Persistent).unwrap();
        }
        e.add_pair(r(1), r(0), 40.0, None, "x", SourceKind::Persistent).unwrap();
        let direct = e.topo.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        let rep = accounted(e.run());
        assert!(rep.packets_dropped > 0, "{rep:?}");
        let dropped = rep.packets_dropped;
        assert_eq!(rep.link_drops, [LinkDrops { link: direct, from: r(0), to: r(1), dropped }]);
    }

    #[test]
    fn same_seed_same_inputs_byte_identical_reports() {
        let build = || {
            let mut e = engine(EngineConfig { horizon_ns: 2_000_000, ..Default::default() });
            e.add_pair(r(0), r(1), 40.0, Some(EntityId(7)), "a", SourceKind::Persistent).unwrap();
            let on_off = SourceKind::OnOff { on_ns: 100_000, off_ns: 100_000 };
            e.add_pair(r(2), r(3), 25.0, Some(EntityId(8)), "b", on_off).unwrap();
            e.add_pair(r(1), r(2), 60.0, None, "a", SourceKind::Persistent).unwrap();
            accounted(e.run())
        };
        let (a, b) = (build(), build());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "reports must be byte-identical");
    }

    #[test]
    fn different_seed_different_phases() {
        let run = |seed| {
            let mut e = engine(EngineConfig { seed, horizon_ns: 1_000_000, ..Default::default() });
            e.add_pair(r(0), r(1), 40.0, None, "a", SourceKind::Persistent).unwrap();
            accounted(e.run())
        };
        // Same totals to within edge effects, but not the same event count
        // trace necessarily — only check it still runs deterministically.
        let (a, b) = (run(1), run(2));
        assert!((a.delivered_gbps() - b.delivered_gbps()).abs() < 1.0);
    }

    #[test]
    fn store_and_forward_latency_gates_first_delivery() {
        // A single packet's end-to-end latency is at least the sum of
        // per-hop serialization + propagation; nothing can be delivered
        // if the horizon is below the path's propagation delay.
        let topo: &'static PocTopology = Box::leak(Box::new(two_bp_square()));
        let all = LinkSet::full(topo.n_links());
        let direct = topo
            .links
            .iter()
            .find(|l| l.connects(r(0), r(1)))
            .expect("square has a direct 0-1 link");
        let prop_ns = (propagation_delay_ms(direct.distance_km) * 1e6).round() as u64;
        assert!(prop_ns > 0, "test topology links span real distance");
        let mut e =
            Engine::new(topo, &all, EngineConfig { horizon_ns: prop_ns / 2, ..Default::default() })
                .unwrap();
        e.add_pair(r(0), r(1), 50.0, None, "a", SourceKind::Persistent).unwrap();
        let rep = accounted(e.run());
        assert!(rep.packets_injected > 0);
        assert_eq!(
            rep.packets_delivered, 0,
            "nothing outruns propagation: prop {prop_ns} ns, horizon {} ns",
            rep.horizon_ns
        );
    }

    #[test]
    fn zero_rate_link_holds_its_buffer_and_drops_the_rest() {
        // A link of capacity 0 never finishes serializing a packet: it
        // queues what its 1 MiB buffer holds, 699 packets, and tail-drops
        // every later arrival. Nothing crosses it.
        let mut topo = two_bp_square();
        let direct = topo.links.iter().position(|l| l.connects(r(0), r(1))).unwrap();
        topo.links[direct].capacity_gbps = 0.0;
        let all = LinkSet::full(topo.n_links());
        let mut e =
            Engine::new(&topo, &all, EngineConfig { horizon_ns: 1_000_000, ..Default::default() })
                .unwrap();
        e.add_pair(r(0), r(1), 10.0, None, "a", SourceKind::Persistent).unwrap();
        let rep = accounted(e.run());
        let cap = EngineConfig::default().buffer_bytes / PKT_BYTES;
        assert_eq!(cap, 699);
        assert!(rep.packets_injected > cap, "{rep:?}");
        assert_eq!(rep.packets_queued, cap, "{rep:?}");
        assert_eq!(rep.packets_dropped, rep.packets_injected - cap, "{rep:?}");
        assert_eq!((rep.packets_delivered, rep.packets_in_flight), (0, 0), "{rep:?}");
    }

    #[test]
    fn onoff_source_halves_throughput_at_fifty_percent_duty() {
        // Duty-cycled injection preserves the configured average rate:
        // delivery matches a persistent source of the same rate.
        let run = |kind| {
            let mut e = engine(EngineConfig { horizon_ns: H100MS, ..Default::default() });
            e.add_pair(r(0), r(1), 20.0, None, "a", kind).unwrap();
            accounted(e.run()).delivered_gbps()
        };
        let persistent = run(SourceKind::Persistent);
        let onoff = run(SourceKind::OnOff { on_ns: 500_000, off_ns: 500_000 });
        assert!((persistent - onoff).abs() < 1.0, "persistent {persistent} vs on/off {onoff}");
        let expected = edge_adjusted(20.0, H100MS, direct_prop_ns(r(0), r(1)));
        assert!((onoff - expected).abs() < 1.0, "average rate preserved: {onoff} vs {expected}");
    }

    #[test]
    fn usage_attribution_sums_per_owner() {
        let mut e = engine(EngineConfig { horizon_ns: H100MS, ..Default::default() });
        let owner = EntityId(5);
        e.add_pair(r(0), r(1), 30.0, Some(owner), "a", SourceKind::Persistent).unwrap();
        e.add_pair(r(1), r(2), 10.0, Some(owner), "b", SourceKind::Persistent).unwrap();
        e.add_pair(r(2), r(3), 10.0, None, "c", SourceKind::Persistent).unwrap();
        let rep = accounted(e.run());
        assert_eq!(rep.usage_by_owner.len(), 1);
        let (o, gbps) = rep.usage_by_owner[0];
        assert_eq!(o, owner);
        let expected = edge_adjusted(30.0, H100MS, direct_prop_ns(r(0), r(1)))
            + edge_adjusted(10.0, H100MS, direct_prop_ns(r(1), r(2)));
        assert!((gbps - expected).abs() < 0.3, "owner usage {gbps} ≈ {expected}");
        // Unattributed bytes are delivered but not billed.
        assert!(rep.bytes_delivered as f64 * 8.0 / rep.horizon_ns as f64 > gbps);
    }

    #[test]
    fn throttle_shows_up_as_lost_availability() {
        let cfg = EngineConfig {
            horizon_ns: H100MS,
            throttles: vec![IngressThrottle { tag: "victim".into(), factor: 0.25 }],
            ..Default::default()
        };
        let mut e = engine(cfg);
        e.add_pair(r(0), r(1), 40.0, None, "victim", SourceKind::Persistent).unwrap();
        e.add_pair(r(2), r(1), 40.0, None, "control", SourceKind::Persistent).unwrap();
        let rep = accounted(e.run());
        let victim = rep.availability_by_tag("victim").unwrap();
        let control = rep.availability_by_tag("control").unwrap();
        assert!((victim - 0.25).abs() < 0.05, "victim availability {victim}");
        assert!(control > 0.93, "control availability {control}");
    }

    #[test]
    fn unroutable_pair_counted_not_fatal() {
        let topo: &'static PocTopology = Box::leak(Box::new(two_bp_square()));
        // Restrict to one direct link: r2/r3 are unreachable islands.
        let direct = topo.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        let only = LinkSet::from_links(topo.n_links(), [direct]);
        let mut e = Engine::new(topo, &only, EngineConfig::default()).unwrap();
        let mut add =
            |a, b| e.add_pair(r(a), r(b), 5.0, None, "a", SourceKind::Persistent).unwrap();
        assert_eq!(add(0, 1), 1);
        assert_eq!(add(2, 3), 0);
        // Asked again, the pair is counted again; a reachable pair from
        // the same router is not.
        assert_eq!(add(2, 3), 0);
        assert_eq!(add(0, 3), 0);
        assert_eq!(add(1, 0), 1);
        let rep = accounted(e.run());
        assert_eq!(rep.unroutable_pairs, 3);
        assert_eq!(rep.n_sources, 2);
        assert!(rep.packets_delivered > 0);
    }

    fn firing(start: u32, first_dl: u32, gap_ns: u64, phase_ns: u64, kind: SourceKind) -> Source {
        Source { start, first_dl, owner: NO_OWNER, tag: 0, gbps: 0.0, gap_ns, kind, phase_ns }
    }

    /// Every fire up to `horizon` with no slicing at all, sorted on
    /// `(time, source)`, as `(time, start, first_dl)`.
    fn reference_fires(sources: &[Source], horizon: u64) -> Vec<(u64, u32, u32)> {
        let mut fires = Vec::new();
        for (i, s) in sources.iter().enumerate() {
            let mut t = s.phase_ns;
            while t <= horizon {
                if let SourceKind::OnOff { on_ns, off_ns } = s.kind {
                    let cycle = on_ns + off_ns;
                    let rel = (t + cycle - s.phase_ns % cycle) % cycle;
                    if rel >= on_ns {
                        t += cycle - rel;
                        continue;
                    }
                }
                fires.push((t, i as u32));
                t += s.gap_ns;
            }
        }
        fires.sort();
        fires
            .into_iter()
            .map(|(t, i)| (t, sources[i as usize].start, sources[i as usize].first_dl))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Random source tables — persistent and on/off mixed, gaps from
        /// 1 ns (a fire in every slot) to thousands, phases drawn from a
        /// handful of values so sources collide, a horizon that ends
        /// mid-slice: the slices' counting placements, end to end, are the
        /// comparison sort of all fires on `(time, source)`, and each fire
        /// carries its own source's packet and first link, distinct per
        /// source. One buffer is refilled for every slice, and no slice
        /// holds more than [`slice_capacity`] fires.
        #[test]
        fn injector_slices_concatenate_to_the_sorted_fire_list(
            table in prop::collection::vec(
                ((0u8..3, 0u64..6000), (0u8..2, 0u64..30_000), (0u8..2, 1u64..20_000, 0u64..20_000)),
                1..10,
            ),
            horizon in 1u64..45_000,
        ) {
            let sources: Vec<Source> = (0u32..)
                .zip(table)
                .map(|(i, ((gap_class, gap), (phase_class, phase), (onoff, on_ns, off_ns)))| {
                    let gap_ns = 1 + gap % [2, 64, 6000][gap_class as usize];
                    let phase_ns = phase % [8, 30_000][phase_class as usize];
                    let kind = match onoff {
                        0 => SourceKind::Persistent,
                        _ => SourceKind::OnOff { on_ns, off_ns },
                    };
                    firing(3 * i + 1, 1000 - 7 * i, gap_ns, phase_ns, kind)
                })
                .collect();
            let mut injector = Injector::new(&sources);
            let mut fires = Vec::new();
            let mut got = Vec::new();
            for bucket_start in (0..=horizon).step_by(BUCKET_NS as usize) {
                injector.bucket(&sources, bucket_start, horizon, &mut fires);
                prop_assert!(fires.len() <= slice_capacity(&sources));
                prop_assert!(fires.iter().all(|f| (bucket_start..bucket_start + BUCKET_NS).contains(&f.at)));
                got.extend(fires.iter().map(|f| (f.at, f.pkt.0, f.dl)));
            }
            prop_assert_eq!(got, reference_fires(&sources, horizon));
        }

        /// Random scripts of schedules and drains, run the way `Engine::run`
        /// runs the calendar — one slice at a time, each drained before the
        /// next begins — against one binary heap keyed `(at, seq)`: every
        /// pop matches. Offsets come from small ranges so equal-nanosecond
        /// ties are common; a popped event may reschedule at its own time,
        /// as a zero-distance link's pipe exit does; schedules and drains
        /// reach one or several slices ahead, over empty slices; and a drain
        /// usually stops mid-slice, with later pushes landing in the same
        /// slice. After every push, pop and slice change the calendar's
        /// `due` is at most the earliest pending event, so the pops it
        /// skips are ones that would have found nothing due.
        #[test]
        fn calendar_pops_in_heap_order(
            script in prop::collection::vec((0u8..3, 0u8..4, 0u64..1 << 20), 1..120),
            reactions in prop::collection::vec((0u8..4, 0u64..1 << 20), 1..16),
        ) {
            let mut cal = CalendarCheck::new(reactions);
            for (op, class, x) in script {
                let delta = spread(class, x);
                match op {
                    0 | 1 => cal.push(cal.now + delta),
                    _ => cal.drain(cal.now + delta),
                }
            }
            // Run dry: from here every pop frees its node.
            cal.reactions = vec![(0, 0)];
            let last = cal.reference.iter().map(|e| e.0 .0).max();
            if let Some(last) = last {
                cal.drain(last);
            }
            prop_assert!(cal.reference.is_empty());
        }
    }

    #[test]
    fn every_slice_crosses_to_the_event_loop_once() {
        // Horizons inside the first slice, at its last nanosecond, on the
        // next slice's first and one past it, and over many more slices
        // than the channel holds buffers. In the dense table a 12 000
        // Gbit/s source fires every nanosecond, so every slice is full; in
        // the sparse one a single on/off source is on for 100 ns in every
        // six slices, so most slices are empty. Only the chain r0 – r1 –
        // r2 – r3 of the square is active, its links shortened to 1 km
        // (5 µs): the on/off source's packets cross three of them within
        // the longest horizon, so pipe exits fall in the empty slices.
        let mut square = two_bp_square();
        let chain = [(0, 1), (1, 2), (2, 3)];
        let on_chain = |l: &LogicalLink| chain.iter().any(|&(a, b)| l.connects(r(a), r(b)));
        for l in square.links.iter_mut().filter(|l| on_chain(l)) {
            l.distance_km = 1.0;
        }
        let topo: &'static PocTopology = Box::leak(Box::new(square));
        let active = LinkSet::from_links(
            topo.n_links(),
            topo.links.iter().filter(|l| on_chain(l)).map(|l| l.id),
        );
        let many = (4 * SLICES_AHEAD as u64 + 3) * BUCKET_NS + 17;
        for horizon_ns in [1, BUCKET_NS - 1, BUCKET_NS, BUCKET_NS + 1, many] {
            for dense in [true, false] {
                let cfg = EngineConfig { horizon_ns, ..Default::default() };
                let mut e = Engine::new(topo, &active, cfg).unwrap();
                if dense {
                    e.add_pair(r(0), r(1), 12_000.0, None, "a", SourceKind::Persistent).unwrap();
                    e.add_pair(r(1), r(3), 40.0, None, "a", SourceKind::Persistent).unwrap();
                }
                let on_off = SourceKind::OnOff { on_ns: 100, off_ns: 6 * BUCKET_NS - 100 };
                e.add_pair(r(0), r(3), 1.0, None, "b", on_off).unwrap();
                let want = reference_fires(&e.sources, horizon_ns).len() as u64;
                assert!(!dense || want > horizon_ns, "horizon {horizon_ns}: {want} fires");
                let rep = accounted(e.run());
                assert_eq!(rep.packets_injected, want, "horizon {horizon_ns}, dense {dense}");
                if horizon_ns == many {
                    assert!(rep.packets_delivered > 0, "dense {dense}: {rep:?}");
                }
            }
        }
    }

    proptest! {
        // Each case simulates up to 9 ms of traffic.
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random source tables on the square — any pair, rate up to past
        /// the 100 Gbit/s line rate, persistent or on/off, buffers of one to
        /// a dozen packets, horizons below and above the 1 300 km
        /// propagation delay: every injected packet is delivered, dropped,
        /// queued or in flight at the horizon, exactly once.
        #[test]
        fn every_injected_packet_ends_in_exactly_one_place(
            table in prop::collection::vec((0u32..4, 1u32..4, 0u64..150, 0u8..2), 1..6),
            horizon_ns in 1u64..9_000_000,
            buffer_bytes in 1500u64..20_000,
        ) {
            let mut e = engine(EngineConfig { horizon_ns, buffer_bytes, ..Default::default() });
            for (src, step, gbps, onoff) in table {
                let kind = match onoff {
                    0 => SourceKind::Persistent,
                    _ => SourceKind::OnOff { on_ns: 20_000, off_ns: 30_000 },
                };
                e.add_pair(r(src), r((src + step) % 4), gbps as f64, None, "a", kind).unwrap();
            }
            accounted(e.run());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random scripts of pushes and pops against a reference queue of
        /// `(arrival, packet)`, each pop at the head's arrival as the
        /// calendar delivers it: every pop returns the same packet and the
        /// same next arrival. The position takes 1 to 31 bits of an entry;
        /// at 31 every non-zero gap escapes. Pushes land at the last
        /// arrival (equal times), a few ns or a slice after it, within a
        /// few ns of `u32::MAX` after it, or one below, at or one above the
        /// escape; positions are drawn anywhere in their field or at its
        /// top. Pops outnumber pushes in some scripts, so the pipe empties
        /// and refills, and a push into an empty pipe lands any gap after
        /// the last pop.
        #[test]
        fn pipe_pops_what_a_timed_queue_pops(
            pos_bits in 1u32..=31,
            script in prop::collection::vec((0u8..5, 0u8..7, 0u32..1 << 20, 0u8..2), 1..200),
        ) {
            let mut pipe = Pipe::default();
            let mut reference: VecDeque<(u64, Packet)> = VecDeque::new();
            let (escape, top) = (u32::MAX >> pos_bits, !(u32::MAX << pos_bits));
            // The last pop's time: pushes into an empty pipe land after it.
            let mut now = 0u64;
            for (op, class, x, at_top) in script {
                if op < 2 {
                    let gap = match class {
                        0 => 0,
                        1 => x % 4,
                        2 => x % BUCKET_NS as u32,
                        3 => u32::MAX - x % 4,
                        c => escape + c as u32 - 5,
                    };
                    let t_arr = reference.back().map_or(now, |&(at, _)| at) + gap as u64;
                    let pkt = Packet(if at_top == 1 { top - x % 2 } else { x & top });
                    prop_assert_eq!(pipe.push(t_arr, pkt, pos_bits), reference.is_empty());
                    reference.push_back((t_arr, pkt));
                } else if let Some((at, pkt)) = reference.pop_front() {
                    now = at;
                    let next = reference.front().map(|&(at, _)| at);
                    prop_assert_eq!(pipe.pop(now, pos_bits), Some((pkt, next)));
                } else {
                    prop_assert_eq!(pipe.pop(now, pos_bits), None);
                }
                prop_assert_eq!(pipe.entries.is_empty(), reference.is_empty());
            }
        }
    }

    /// A FIFO of `cap` packets that schedules each departure as an event:
    /// the head leaves `tx` after its service starts, and the departures due
    /// at or before an arrival's time happen before it is offered.
    struct ReferenceFifo {
        cap: usize,
        tx: u64,
        /// Indices of the queued arrivals, head first.
        queue: VecDeque<usize>,
        /// The head's pending departure.
        departure: Option<u64>,
        /// Each arrival's departure time, once it has departed.
        departed: Vec<Option<u64>>,
    }

    impl ReferenceFifo {
        /// Fire every departure due at or before `t`.
        fn advance(&mut self, t: u64) {
            while let Some(at) = self.departure.filter(|&at| at <= t) {
                let id = self.queue.pop_front().expect("a departure is the head's");
                self.departed[id] = Some(at);
                self.departure = (!self.queue.is_empty()).then_some(at + self.tx);
            }
        }

        /// Offer the next arrival at `t`; whether the buffer took it.
        fn offer(&mut self, t: u64) -> bool {
            self.advance(t);
            self.departed.push(None);
            if self.queue.len() == self.cap {
                return false;
            }
            self.queue.push_back(self.departed.len() - 1);
            self.departure.get_or_insert(t + self.tx);
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Random arrival scripts on one link — bursts at one nanosecond,
        /// arrivals on a departure's nanosecond, gaps up to twice a full
        /// buffer's drain, `tx` of 1 to 200 ns, buffers of 1 to 12 packets,
        /// a horizon that later arrivals pass — against a FIFO that
        /// schedules each departure as an event: every arrival gets the same
        /// accept or drop verdict and every accepted packet the same
        /// departure, and at the horizon the reference still holds exactly
        /// the accepted packets departing after it.
        #[test]
        fn lindley_link_matches_a_fifo_queue(
            tx in 1u64..=200,
            cap in 1u64..=12,
            script in prop::collection::vec((0u8..4, 0u64..1 << 16), 1..160),
            horizon_pct in 0u64..=100,
        ) {
            let mut t = 0;
            let arrivals: Vec<u64> = script
                .into_iter()
                .map(|(class, x)| {
                    t += match class {
                        0 => 0,
                        1 => x % tx,
                        2 => x % (2 * cap * tx),
                        _ => x % 4 * tx,
                    };
                    t
                })
                .collect();
            let horizon = t * horizon_pct / 100;
            let mut fifo = Fifo::new(cap, tx);
            let mut reference = ReferenceFifo {
                cap: cap as usize,
                tx,
                queue: VecDeque::new(),
                departure: None,
                departed: Vec::new(),
            };
            let mut deps = Vec::new();
            // What the reference holds when the horizon strikes.
            let mut held = None;
            for &t in &arrivals {
                if t > horizon && held.is_none() {
                    reference.advance(horizon);
                    held = Some(reference.queue.len());
                }
                let dep = fifo.admit(t);
                prop_assert_eq!(dep.is_some(), reference.offer(t), "arrival {} at {}", deps.len(), t);
                deps.push(dep);
            }
            reference.advance(horizon);
            let held = held.unwrap_or(reference.queue.len());
            let by_horizon = arrivals.partition_point(|&t| t <= horizon);
            let queued = deps[..by_horizon].iter().filter(|d| d.is_some_and(|d| d > horizon));
            prop_assert_eq!(held, queued.count());
            reference.advance(u64::MAX);
            prop_assert_eq!(deps, reference.departed);
        }
    }

    /// An offset for [`calendar_pops_in_heap_order`]: zero, a few
    /// nanoseconds, up to a slice, or one to four slices and a few ns.
    fn spread(class: u8, x: u64) -> u64 {
        match class {
            0 => 0,
            1 => x % 4,
            2 => x % BUCKET_NS,
            _ => BUCKET_NS * (1 + x % 4) + x % 3,
        }
    }

    /// A [`Calendar`] driven beside a reference heap of `(at, seq, node)`.
    struct CalendarCheck {
        cal: Calendar,
        reference: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
        /// The latest time drained to; pushes land no earlier.
        now: u64,
        /// Nodes not queued: at most one entry per node, as in the engine.
        free: Vec<u32>,
        /// What each pop does next, in turn: `(0, _)` frees the node,
        /// `(class, x)` reschedules it [`spread`]`(class, x)` after itself.
        reactions: Vec<(u8, u64)>,
        pops: usize,
    }

    impl CalendarCheck {
        const NODES: u32 = 8;
        const MAX_POPS: usize = 2_000;

        fn new(reactions: Vec<(u8, u64)>) -> Self {
            let mut cal = Calendar::new(Self::NODES as usize);
            cal.begin_slice(0);
            CalendarCheck {
                cal,
                reference: BinaryHeap::new(),
                seq: 0,
                now: 0,
                free: (0..Self::NODES).collect(),
                reactions,
                pops: 0,
            }
        }

        fn push(&mut self, at: u64) {
            if let Some(node) = self.free.pop() {
                self.schedule(at, node);
            }
        }

        fn schedule(&mut self, at: u64, node: u32) {
            self.cal.push(at, node);
            self.reference.push(Reverse((at, self.seq, node)));
            self.seq += 1;
            self.check_due();
        }

        /// `due` bounds every pending event from below.
        fn check_due(&self) {
            if let Some(&Reverse((at, _, _))) = self.reference.peek() {
                assert!(self.cal.due <= at, "due {} past a pending event at {at}", self.cal.due);
            }
        }

        /// Pop everything due by `until`, beginning each slice on the way.
        fn drain(&mut self, until: u64) {
            loop {
                let end = self.cal.base + BUCKET_NS;
                let stop = until.min(end - 1);
                // As in `Engine::run`, a drain before `due` is skipped.
                while stop >= self.cal.due {
                    let popped = self.cal.pop(stop);
                    self.check_due();
                    let Some((at, node)) = popped else { break };
                    let Reverse((want_at, _, want_node)) =
                        self.reference.pop().expect("the calendar pops only what was pushed");
                    assert_eq!((at, node), (want_at, want_node), "pop {}", self.pops);
                    let (class, x) = self.reactions[self.pops % self.reactions.len()];
                    self.pops += 1;
                    // The budget ends a run of zero-delay reschedules.
                    if class == 0 || self.pops > Self::MAX_POPS {
                        self.free.push(node);
                    } else {
                        self.schedule(at + spread(class, x), node);
                    }
                }
                if let Some(Reverse((at, _, _))) = self.reference.peek() {
                    assert!(*at > stop, "the calendar held back an event due at {at}");
                }
                if until < end {
                    break;
                }
                self.cal.begin_slice(end);
                self.check_due();
            }
            self.now = until;
        }
    }

    #[test]
    fn construction_and_admission_errors_are_typed() {
        let topo = two_bp_square();
        let all = LinkSet::full(topo.n_links());
        assert_eq!(
            Engine::new(&topo, &all, EngineConfig { horizon_ns: 0, ..Default::default() })
                .err()
                .unwrap(),
            EngineError::ZeroHorizon
        );
        assert!(matches!(
            Engine::new(&topo, &all, EngineConfig { buffer_bytes: 100, ..Default::default() }),
            Err(EngineError::BufferBelowPacket { .. })
        ));
        assert!(matches!(
            Engine::new(
                &topo,
                &all,
                EngineConfig {
                    throttles: vec![IngressThrottle { tag: "t".into(), factor: 1.5 }],
                    ..Default::default()
                }
            ),
            Err(EngineError::BadThrottleFactor { .. })
        ));
        let mut e = Engine::new(&topo, &all, EngineConfig::default()).unwrap();
        assert!(matches!(
            e.add_pair(r(0), r(0), 1.0, None, "a", SourceKind::Persistent),
            Err(EngineError::LoopSource { .. })
        ));
        assert!(matches!(
            e.add_pair(r(0), r(1), 1.0, None, "a", SourceKind::OnOff { on_ns: 0, off_ns: 5 }),
            Err(EngineError::ZeroOnWindow)
        ));

        // A routing from outside the engine is data: each bad split is
        // refused with its own error, before it adds a source or a walk
        // entry. The square's links: l0 r0–r1, l1 r1–r2, l2 r0–r2, l3
        // r0–r3, l4 r2–r3, l5 r1–r3.
        let (l0, l4) = (LinkId(0), LinkId(4));
        let flow = |dst, paths: &[(&[LinkId], f64)]| FlowRoute {
            src: r(0),
            dst: r(dst),
            demand_gbps: 1.0,
            paths: paths.iter().map(|&(p, gbps)| (p.to_vec(), gbps)).collect(),
        };
        let without_l0 = LinkSet::from_links(topo.n_links(), topo.links[1..].iter().map(|l| l.id));
        let mut thin = Engine::new(&topo, &without_l0, EngineConfig::default()).unwrap();
        let refuse = |e: &mut Engine, flow| {
            let kind = SourceKind::Persistent;
            let got =
                e.add_routing([flow], &UserFlowModel::default(), kind, |_| (None, "a".into()));
            assert_eq!((e.n_sources(), e.walk.len()), (0, 0), "{got:?}");
            got.unwrap_err()
        };
        let refusals = [
            refuse(&mut thin, flow(1, &[(&[l0], 1.0)])),
            refuse(&mut e, flow(1, &[(&[l4], 1.0)])),
            refuse(&mut e, flow(3, &[(&[l0], 1.0)])),
            refuse(&mut e, flow(1, &[(&[], 1.0)])),
            refuse(&mut e, flow(1, &[(&[l0], f64::NAN)])),
            refuse(&mut e, flow(1, &[(&[l0], -1.0)])),
        ];
        // Debug text, as NaN is not equal to itself.
        let miss = PathMiss { link: l4, at: r(0) };
        assert_eq!(
            refusals.each_ref().map(|err| format!("{err:?}")),
            [
                EngineError::InactiveLink { src: r(0), dst: r(1), link: l0 },
                EngineError::PathMiss { src: r(0), dst: r(1), miss },
                EngineError::PathEndsOff { src: r(0), dst: r(3), end: r(1) },
                EngineError::EmptyPath { src: r(0), dst: r(1) },
                EngineError::BadShare { src: r(0), dst: r(1), gbps: f64::NAN },
                EngineError::BadShare { src: r(0), dst: r(1), gbps: -1.0 },
            ]
            .map(|want| format!("{want:?}"))
        );
        assert_eq!(
            refusals.map(|err| err.to_string()),
            [
                "a path of r0->r1 crosses l0, which is not an active link",
                "a path of r0->r1: path link l4 is not incident to r0",
                "a path of r0->r3 ends at r1",
                "a path of r0->r1 has no link",
                "a share of r0->r1 must be finite and non-negative, got NaN",
                "a share of r0->r1 must be finite and non-negative, got -1",
            ]
        );
        // The source kind is checked once, before the first flow adds
        // anything.
        let good = flow(1, &[(&[l0], 1.0)]);
        let zero_on = SourceKind::OnOff { on_ns: 0, off_ns: 5 };
        let got = e.add_routing([good], &UserFlowModel::default(), zero_on, |_| (None, "a".into()));
        assert_eq!(got, Err(EngineError::ZeroOnWindow));
        assert_eq!((e.n_sources(), e.walk.len(), e.n_user_flows()), (0, 0, 0));

        // An on/off cycle the nanosecond clock cannot step past the
        // horizon is refused through the public matrix path, whether the
        // cycle itself overflows or only the horizon plus the cycle does.
        let mut tm = poc_traffic::TrafficMatrix::zero(topo.n_routers());
        tm.set(r(0), r(1), 8.0);
        let model = poc_traffic::UserFlowModel { per_flow_gbps: 0.004 };
        let horizon_ns = EngineConfig::default().horizon_ns;
        let add = |on_ns, off_ns| {
            let mut e = Engine::new(&topo, &all, EngineConfig::default()).unwrap();
            let kind = SourceKind::OnOff { on_ns, off_ns };
            e.add_traffic_matrix(&tm, &model, kind, |_| (None, "tm".into()))
        };
        let err = add(u64::MAX, 1).unwrap_err();
        assert_eq!(err, EngineError::OnOffCycleOverflow { on_ns: u64::MAX, off_ns: 1, horizon_ns });
        assert_eq!(
            err.to_string(),
            "on/off cycle of 18446744073709551615 + 1 ns past a horizon of 20000000 ns overflows \
             the 64-bit nanosecond clock"
        );
        let on_ns = u64::MAX - horizon_ns - 1;
        assert_eq!(
            add(on_ns + 1, 1),
            Err(EngineError::OnOffCycleOverflow { on_ns: on_ns + 1, off_ns: 1, horizon_ns })
        );
        assert_eq!(add(on_ns, 1), Ok(1));
    }

    #[test]
    fn delays_past_u32_ns_and_full_walks_are_refused() {
        // 858 993 km of fibre is 4 294 965 000 ns, just under u32::MAX.
        let mut topo = two_bp_square();
        let all = LinkSet::full(topo.n_links());
        topo.links[0].distance_km = 858_993.0;
        assert!(Engine::new(&topo, &all, EngineConfig::default()).is_ok());
        topo.links[0].distance_km = 900_000.0;
        let err = Engine::new(&topo, &all, EngineConfig::default()).err().unwrap();
        assert_eq!(
            err,
            EngineError::LinkDelayTooLong { link: topo.links[0].id, prop_ns: 4_500_000_000 }
        );
        assert_eq!(
            err.to_string(),
            "link l0 has a one-way delay of 4500000000 ns; the engine carries at most \
             4294967295 ns (4.29 s)"
        );
        // A link outside the active set carries nothing and is not refused.
        let rest = LinkSet::from_links(topo.n_links(), topo.links[1..].iter().map(|l| l.id));
        assert!(Engine::new(&topo, &rest, EngineConfig::default()).is_ok());

        // A packet waits in the buffer before it crosses: a pipe's gaps stay
        // within the delay plus a full buffer's drain, or the horizon. At
        // 1 Gbit/s a packet takes 12 000 ns; 357 913 of them drain in
        // 4 294 956 000 ns, and 2.259 km add the last 11 295 to `u32::MAX`.
        let span = |distance_km: f64, capacity_gbps: f64, horizon_ns: u64| {
            let mut topo = two_bp_square();
            (topo.links[0].distance_km, topo.links[0].capacity_gbps) = (distance_km, capacity_gbps);
            let buffer_bytes = 357_913 * PKT_BYTES;
            let cfg = EngineConfig { horizon_ns, buffer_bytes, ..Default::default() };
            Engine::new(&topo, &all, cfg).err()
        };
        let l0 = topo.links[0].id;
        assert_eq!(span(2.259, 1.0, 10_000_000_000), None);
        let err = span(2.2592, 1.0, 10_000_000_000).unwrap();
        assert_eq!(err, EngineError::LinkSpanTooLong { link: l0, span_ns: 1 << 32 });
        assert_eq!(
            err.to_string(),
            "link l0 can hold a packet for 4294967296 ns from acceptance to arrival; the engine \
             carries at most 4294967295 ns (4.29 s)"
        );
        // A 1 Mbit/s link takes over an hour to drain its buffer: the
        // horizon bounds the span instead.
        assert_eq!(span(2.259, 0.001, u32::MAX as u64), None);
        assert_eq!(
            span(2.259, 0.001, 1 << 32),
            Some(EngineError::LinkSpanTooLong { link: l0, span_ns: 1 << 32 })
        );
        // A link that sends nothing within the horizon fills no pipe.
        assert_eq!(span(2.259, 0.0, 1 << 40), None);

        let end = WALK_END as usize;
        assert_eq!(walk_fits(0, 2), Ok(()));
        assert_eq!(walk_fits(end - 1, end - 1), Ok(()));
        assert_eq!(
            walk_fits(end, end - 1),
            Err(EngineError::WalkFull { source: end, walk_len: end - 1 })
        );
        let err = walk_fits(7, end).unwrap_err();
        assert_eq!(err, EngineError::WalkFull { source: 7, walk_len: end });
        assert_eq!(
            err.to_string(),
            "source 7 would grow the walks to 2147483648 entries; sources and walk entries \
             must stay below 2^31"
        );
    }

    #[test]
    fn offered_load_sums_each_source_over_its_walk() {
        // 3 × 100 Gbit/s into the direct 100 Gbit/s r0 → r1 link, 40 back.
        let mut e = engine(EngineConfig::default());
        for tag in ["x", "y", "z"] {
            e.add_pair(r(0), r(1), 100.0, None, tag, SourceKind::Persistent).unwrap();
        }
        e.add_pair(r(1), r(0), 40.0, None, "x", SourceKind::Persistent).unwrap();
        let direct = e.topo.links.iter().find(|l| l.connects(r(0), r(1))).unwrap().id;
        let loads = e.link_loads();
        let seen: Vec<_> = loads.iter().map(|l| (l.link, l.from, l.to, l.ratio())).collect();
        assert_eq!(seen, [(direct, r(0), r(1), 3.0), (direct, r(1), r(0), 0.4)]);
        assert_eq!(e.offered_gbps().iter().sum::<f64>(), 340.0);
    }

    #[test]
    fn matrix_ingestion_scales_to_user_flows() {
        let topo: &'static PocTopology = Box::leak(Box::new(two_bp_square()));
        let all = LinkSet::full(topo.n_links());
        let mut tm = poc_traffic::TrafficMatrix::zero(topo.n_routers());
        tm.set(r(0), r(1), 8.0);
        tm.set(r(2), r(3), 4.0);
        let mut e =
            Engine::new(topo, &all, EngineConfig { horizon_ns: H100MS, ..Default::default() })
                .unwrap();
        let model = poc_traffic::UserFlowModel { per_flow_gbps: 0.004 };
        let added = e
            .add_traffic_matrix(&tm, &model, SourceKind::Persistent, |router| {
                (Some(EntityId(router.0)), "tm".into())
            })
            .unwrap();
        assert_eq!(added, 2);
        assert_eq!(e.n_user_flows(), 2000 + 1000);
        let rep = accounted(e.run());
        assert_eq!(rep.n_user_flows, 3000);
        assert_eq!(rep.usage_by_owner.len(), 2);
        assert!(rep.overall_availability() > 0.9, "{rep:?}");
    }
}
