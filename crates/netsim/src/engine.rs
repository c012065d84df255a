//! The packet-level discrete-event data plane.
//!
//! Where [`crate::sim`] sweeps fluid rate allocations between flow
//! boundaries, this module moves individual packets: a hybrid scheduler
//! (a binary heap keyed on nanosecond timestamps orders link events —
//! departures and propagation-pipe exits — while periodic source
//! injections are generated per time-slice by scanning the source table,
//! put in `(time, source)` order by a counting pass over the slice's
//! nanosecond offsets — the scan already yields each source's fires in
//! time order and the sources in index order, so no comparison is needed —
//! and merge-joined against the heap under a fixed deterministic tie
//! rule), per-link directional FIFO queues with finite byte buffers and
//! tail drops, store-and-forward transmission at link rate plus
//! propagation delay derived from `distance_km`, and flow sources —
//! persistent or on/off — injecting MTU-sized packets from the same
//! gravity/hotspot traffic matrices the auction is sized on, scaled to
//! millions of user-flows via [`poc_traffic::UserFlowModel`].
//!
//! The loop closes exactly where the flow sim's does: per-owner delivered
//! bytes aggregate into the same `usage_by_owner` shape
//! ([`SimReport::usage_by_owner`](crate::sim::SimReport)), so an
//! [`EngineReport`] feeds `ReportUsage` → settlement ledger →
//! neutrality-violation detection unchanged. One unit of rate is Gbit/s,
//! which is numerically bits/ns — transmission times and delivered-rate
//! conversions need no unit shuffling.
//!
//! Determinism: two engines built with the same inputs and seed produce
//! byte-identical reports. Everything that orders work — the heap key
//! `(time, seq)`, the injection-merge tie rule (link events first at
//! equal times, then injections in source order), route interning,
//! owner/tag interning, source phases drawn from a seeded ChaCha8 — is a
//! function of construction order alone.
//!
//! Routes are the distance-shortest paths over the active links. Weight
//! and link set are fixed for an engine's lifetime, so one full Dijkstra
//! per *source router* ([`CapacityGraph::shortest_path_tree`], built the
//! first time the router sources a demand) answers every pair leaving it:
//! a matrix costs `n_routers` searches, not `n_pairs`.

use crate::sim::IngressThrottle;
use poc_core::entity::EntityId;
use poc_flow::graph::PathTree;
use poc_flow::{CapacityGraph, LinkSet};
use poc_topology::geo::propagation_delay_ms;
use poc_topology::{PocTopology, RouterId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Sentinel owner index for unattributed sources.
const NO_OWNER: u16 = u16::MAX;

/// Engine parameters. Times are nanoseconds.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Simulation horizon, ns.
    pub horizon_ns: u64,
    /// Packet size, bytes (MTU-sized frames).
    pub pkt_bytes: u32,
    /// Buffer per directional link, bytes; arrivals that would overflow
    /// it tail-drop.
    pub buffer_bytes: u64,
    /// Seed for source phase staggering (and nothing else).
    pub seed: u64,
    /// Ingress throttles applied by (misbehaving) LMPs: sources whose tag
    /// matches inject at `factor` × their configured rate. Offered bytes
    /// still count at the configured rate, so throttling is visible as
    /// lost availability — same semantics as the flow sim.
    pub throttles: Vec<IngressThrottle>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            horizon_ns: 20_000_000, // 20 ms: well past any one-way propagation delay
            pkt_bytes: 1500,
            buffer_bytes: 1 << 20, // 1 MiB per direction
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
/// as values — the same panic-free contract as [`crate::sim::SimError`].
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// `horizon_ns == 0`: nothing would ever be simulated.
    ZeroHorizon,
    /// `pkt_bytes == 0`: packets must carry bytes.
    ZeroPacketSize,
    /// The buffer cannot hold even one packet, so every arrival would
    /// tail-drop.
    BufferBelowPacket { buffer_bytes: u64, pkt_bytes: u32 },
    /// A throttle factor outside `[0, 1]`.
    BadThrottleFactor { tag: String, factor: f64 },
    /// A non-finite or negative source rate.
    BadRate { gbps: f64 },
    /// Source endpoints coincide.
    LoopSource { router: RouterId },
    /// An on/off source with an empty on window would never inject.
    ZeroOnWindow,
    /// Owner/tag interning uses compact u16 ids; exceeding 65k distinct
    /// classes means the caller is attributing per-packet, not per-member.
    TooManyClasses,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroHorizon => write!(f, "engine horizon must be positive"),
            EngineError::ZeroPacketSize => write!(f, "packet size must be positive"),
            EngineError::BufferBelowPacket { buffer_bytes, pkt_bytes } => {
                write!(f, "link buffer of {buffer_bytes} B cannot hold one {pkt_bytes} B packet")
            }
            EngineError::BadThrottleFactor { tag, factor } => {
                write!(f, "throttle factor for tag {tag:?} must be in [0,1], got {factor}")
            }
            EngineError::BadRate { gbps } => {
                write!(f, "source rate must be finite and non-negative, got {gbps}")
            }
            EngineError::LoopSource { router } => {
                write!(f, "source endpoints coincide at router {router:?}")
            }
            EngineError::ZeroOnWindow => write!(f, "on/off source needs a non-empty on window"),
            EngineError::TooManyClasses => {
                write!(f, "more than 65534 distinct owners or tags")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-tag delivery accounting (neutrality detection input).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TagStats {
    pub tag: String,
    /// Bytes the class *intended* to send over the horizon (configured
    /// rate × horizon — unthrottled, matching the flow sim's offered).
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
    /// Discrete events processed (injections, arrivals, departures).
    pub events: u64,
    pub packets_injected: u64,
    pub packets_delivered: u64,
    pub packets_dropped: u64,
    pub bytes_delivered: u64,
    /// Average delivered Gbit/s per owner over the horizon — the billing
    /// input, same shape as the flow sim's.
    pub usage_by_owner: Vec<(EntityId, f64)>,
    pub per_tag: Vec<TagStats>,
    pub n_sources: usize,
    /// User-flows the sources aggregate (a pair source stands in for
    /// `ceil(rate / per_flow_rate)` user flows).
    pub n_user_flows: u64,
    /// Demand pairs with no route over the active links.
    pub unroutable_pairs: u32,
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

/// One directional link: a rate server draining a FIFO byte buffer, plus
/// a propagation pipe for packets in flight. Buffer occupancy lives in
/// the separate [`Occupancy`] array: the tail-drop check — the single
/// hottest path under overload — then touches a compact cache-resident
/// table instead of this struct.
#[derive(Clone, Debug)]
struct DLink {
    /// Serialization cost, ns per byte (`+∞` for a zero-rate link).
    /// Precomputed from the capacity so the event loop multiplies
    /// instead of dividing per departure.
    ns_per_byte: f64,
    prop_ns: u64,
    queue: VecDeque<Packet>,
    /// A departure event is outstanding for the queue head.
    busy: bool,
    /// Packets crossing the link, with their arrival times. Propagation
    /// delay is constant per link and departures happen in time order, so
    /// arrivals are FIFO — only the pipe head needs a heap entry. A long
    /// fat link holds ~bandwidth×delay packets in flight; keeping them
    /// here instead of in the event heap keeps the heap at O(links +
    /// sources) entries rather than O(packets in flight).
    in_flight: VecDeque<(u64, Packet)>,
}

/// Byte occupancy of one directional link's buffer, split out of
/// [`DLink`] so the (majority, under overload) drop path reads 16 bytes
/// per arrival instead of a whole `DLink`.
#[derive(Clone, Copy, Debug)]
struct Occupancy {
    queued_bytes: u64,
    buffer_bytes: u64,
}

impl DLink {
    /// Store-and-forward serialization time for `bytes`, ns (≥ 1). A
    /// zero-rate link never drains: `∞` saturates to `u64::MAX` on the
    /// cast, which the saturating event arithmetic pushes past any
    /// horizon.
    fn tx_ns(&self, bytes: u32) -> u64 {
        (bytes as f64 * self.ns_per_byte).max(1.0) as u64
    }
}

/// A packet in flight. `route` indexes the interned route table; `hop` is
/// the directional link currently carrying it.
#[derive(Clone, Copy, Debug)]
struct Packet {
    route: u32,
    hop: u16,
    /// Total hops on the route, carried in the packet so delivery checks
    /// don't touch the route table.
    hops: u16,
    owner: u16,
    tag: u16,
    bytes: u32,
}

#[derive(Clone, Copy, Debug)]
struct Source {
    route: u32,
    /// First directional link of the route, denormalized so the inject
    /// path (the majority of events) skips the route table entirely.
    first_dl: u32,
    /// Total hops on the route (for [`Packet::hops`]).
    hops: u16,
    owner: u16,
    tag: u16,
    bytes: u32,
    /// Inter-packet gap at the (throttled, burst-scaled) injection rate.
    gap_ns: u64,
    kind: SourceKind,
    /// Deterministic phase stagger so sources don't all fire at t=0.
    phase_ns: u64,
}

/// A link event. Injections are not heap events: periodic source fires
/// are generated per time-slice by [`Injector`] and merge-joined against
/// this queue instead.
#[derive(Clone, Copy)]
enum Ev {
    /// The head of directional link `dl`'s propagation pipe reaches the
    /// far end (and is forwarded to the next hop's queue).
    PipeOut(u32),
    /// The head of directional link `dl`'s FIFO finishes serializing.
    Depart(u32),
}

/// [`Ev`] packed into one word: kind bit in the high bit, payload (a
/// directional-link index, far below 2³¹ for any representable topology)
/// below. Keeps [`Entry`] at 16 bytes.
#[derive(Clone, Copy)]
struct EvWord(u32);

impl EvWord {
    const PAYLOAD: u32 = (1 << 31) - 1;

    fn pack(ev: Ev) -> Self {
        let (kind, payload) = match ev {
            Ev::PipeOut(dl) => (0, dl),
            Ev::Depart(dl) => (1, dl),
        };
        debug_assert!(payload <= Self::PAYLOAD);
        EvWord(kind << 31 | payload)
    }

    fn unpack(self) -> Ev {
        let payload = self.0 & Self::PAYLOAD;
        match self.0 >> 31 {
            0 => Ev::PipeOut(payload),
            _ => Ev::Depart(payload),
        }
    }
}

/// One scheduled event. Ordered by `(at, seq)`: earliest time first,
/// FIFO among equal times. `seq` wraps after 2³² pushes in one run —
/// ordering among equal-time events straddling a wrap deviates from
/// strict FIFO but stays deterministic, which is the property the engine
/// guarantees.
#[derive(Clone, Copy)]
struct Entry {
    at: u64,
    seq: u32,
    ev: EvWord,
}

// Min-heap on (at, seq): earliest time first, FIFO among equal times
// (std's BinaryHeap is a max-heap, hence the reversed comparisons).
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

/// The event queue: std's binary heap plus an in-place `replace_top`, so
/// the dominant pop-then-reschedule pattern costs a single sift-down
/// instead of a pop's sift plus a push's sift.
struct EventHeap {
    h: BinaryHeap<Entry>,
}

impl EventHeap {
    fn with_capacity(n: usize) -> Self {
        EventHeap { h: BinaryHeap::with_capacity(n) }
    }

    fn peek(&self) -> Option<&Entry> {
        self.h.peek()
    }

    fn push(&mut self, e: Entry) {
        self.h.push(e);
    }

    /// Replace the minimum with `e` and restore heap order (one sift).
    fn replace_top(&mut self, e: Entry) {
        *self.h.peek_mut().expect("replace_top on empty heap") = e;
    }

    /// Remove the minimum.
    fn pop_top(&mut self) {
        self.h.pop();
    }
}

/// Mutable scheduler state for one [`Engine::run`]: the link-event heap
/// plus every counter the report is assembled from. Split out of the
/// engine so the hot-path methods can borrow it mutably alongside the
/// engine's link and route tables.
struct RunState {
    lnk: EventHeap,
    seq: u32,
    events: u64,
    packets_injected: u64,
    packets_delivered: u64,
    packets_dropped: u64,
    bytes_delivered: u64,
    owner_bytes: Vec<u64>,
    tag_delivered: Vec<u64>,
    tag_dropped: Vec<u64>,
}

impl RunState {
    /// Enqueue a packet at a directional link: tail-drop on overflow,
    /// else start transmitting if the link is idle.
    fn arrive(
        &mut self,
        links: &mut [DLink],
        occ: &mut [Occupancy],
        horizon: u64,
        now: u64,
        dl: u32,
        pkt: Packet,
    ) {
        let o = &mut occ[dl as usize];
        if o.queued_bytes + pkt.bytes as u64 > o.buffer_bytes {
            self.packets_dropped += 1;
            self.tag_dropped[pkt.tag as usize] += 1;
            return;
        }
        o.queued_bytes += pkt.bytes as u64;
        let link = &mut links[dl as usize];
        link.queue.push_back(pkt);
        if !link.busy {
            link.busy = true;
            let at = now.saturating_add(link.tx_ns(pkt.bytes));
            if at <= horizon {
                self.lnk.push(Entry { at, seq: self.seq, ev: EvWord::pack(Ev::Depart(dl)) });
                self.seq = self.seq.wrapping_add(1);
            }
        }
    }

    /// Process every link event scheduled at or before `until`. The
    /// injection merge calls this with each fire's timestamp, so link
    /// events win ties at equal times — a fixed rule, which is all
    /// determinism needs.
    ///
    /// Most events schedule exactly one successor (the queue's next
    /// departure, the pipe's next exit) — replacing the heap top in
    /// place costs one sift-down where pop-then-push would cost two.
    fn drain_links(
        &mut self,
        links: &mut [DLink],
        occ: &mut [Occupancy],
        route_data: &[u32],
        route_starts: &[u32],
        horizon: u64,
        until: u64,
    ) {
        while let Some(&Entry { at: now, ev, .. }) = self.lnk.peek() {
            if now > until {
                break;
            }
            self.events += 1;
            match ev.unpack() {
                Ev::PipeOut(dl) => {
                    let link = &mut links[dl as usize];
                    let (_, pkt) = link.in_flight.pop_front().expect("pipe head exists");
                    if let Some(&(at, _)) = link.in_flight.front() {
                        self.lnk.replace_top(Entry { at, seq: self.seq, ev });
                        self.seq = self.seq.wrapping_add(1);
                    } else {
                        self.lnk.pop_top();
                    }
                    let next_dl =
                        route_data[(route_starts[pkt.route as usize] + pkt.hop as u32) as usize];
                    self.arrive(links, occ, horizon, now, next_dl, pkt);
                }
                Ev::Depart(dl) => {
                    let link = &mut links[dl as usize];
                    let pkt =
                        link.queue.pop_front().expect("a departure fires only for a queue head");
                    occ[dl as usize].queued_bytes -= pkt.bytes as u64;
                    let prop = link.prop_ns;
                    let succ = match link.queue.front() {
                        Some(head) => {
                            let at = now.saturating_add(link.tx_ns(head.bytes));
                            (at <= horizon).then_some(at)
                        }
                        None => {
                            link.busy = false;
                            None
                        }
                    };
                    match succ {
                        Some(at) => {
                            self.lnk.replace_top(Entry { at, seq: self.seq, ev });
                            self.seq = self.seq.wrapping_add(1);
                        }
                        None => self.lnk.pop_top(),
                    }
                    let t_arr = now.saturating_add(prop);
                    if t_arr > horizon {
                        continue; // still in flight at the horizon
                    }
                    let next_hop = pkt.hop + 1;
                    if next_hop == pkt.hops {
                        self.packets_delivered += 1;
                        self.bytes_delivered += pkt.bytes as u64;
                        self.tag_delivered[pkt.tag as usize] += pkt.bytes as u64;
                        if pkt.owner != NO_OWNER {
                            self.owner_bytes[pkt.owner as usize] += pkt.bytes as u64;
                        }
                    } else {
                        let forwarded = Packet { hop: next_hop, ..pkt };
                        let link = &mut links[dl as usize];
                        let pipe_idle = link.in_flight.is_empty();
                        link.in_flight.push_back((t_arr, forwarded));
                        if pipe_idle {
                            self.lnk.push(Entry {
                                at: t_arr,
                                seq: self.seq,
                                ev: EvWord::pack(Ev::PipeOut(dl)),
                            });
                            self.seq = self.seq.wrapping_add(1);
                        }
                    }
                }
            }
        }
    }
}

/// Width of one injection time-slice, ns.
const BUCKET_NS: u64 = 8192;

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
    /// one source.
    scanned: Vec<(u64, u32)>,
    /// The slice's fires in `(time, source)` order.
    batch: Vec<(u64, u32)>,
}

impl Injector {
    fn new(sources: &[Source]) -> Self {
        Injector {
            next_at: sources.iter().map(|s| s.phase_ns).collect(),
            slots: vec![0; BUCKET_NS as usize],
            scanned: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// The fires `(time, source index)` in `[bucket_start, bucket_start +
    /// BUCKET_NS)` that are not past `horizon`. Slices must be asked for in
    /// ascending order, each once.
    fn bucket(&mut self, sources: &[Source], bucket_start: u64, horizon: u64) -> &[(u64, u32)] {
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
                self.scanned.push((t, i as u32));
                t = t.saturating_add(s.gap_ns);
            }
            self.next_at[i] = t;
        }
        // Counts become each offset's first position in the batch.
        let mut at = 0;
        for slot in &mut self.slots {
            at += std::mem::replace(slot, at);
        }
        self.batch.clear();
        self.batch.resize(self.scanned.len(), (0, 0));
        for &fire in &self.scanned {
            let slot = &mut self.slots[(fire.0 - bucket_start) as usize];
            self.batch[*slot] = fire;
            *slot += 1;
        }
        self.slots.fill(0);
        &self.batch
    }
}

/// The packet engine. Build over a topology and the leased link set, add
/// sources (directly or from a traffic matrix), then [`Engine::run`].
pub struct Engine<'t> {
    graph: CapacityGraph<'t>,
    cfg: EngineConfig,
    links: Vec<DLink>,
    occ: Vec<Occupancy>,
    distance: Vec<f64>,
    /// Interned routes, flattened: route `r` is
    /// `route_data[route_starts[r]..route_starts[r + 1]]`. Contiguous so
    /// the per-hop lookups in the event loop stay in cache instead of
    /// chasing one heap allocation per route.
    route_data: Vec<u32>,
    route_starts: Vec<u32>,
    route_of: BTreeMap<(u32, u32), Option<u32>>,
    /// Shortest-path tree per source router, built on the router's first
    /// demand.
    trees: Vec<Option<PathTree>>,
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
        if cfg.pkt_bytes == 0 {
            return Err(EngineError::ZeroPacketSize);
        }
        if cfg.buffer_bytes < cfg.pkt_bytes as u64 {
            return Err(EngineError::BufferBelowPacket {
                buffer_bytes: cfg.buffer_bytes,
                pkt_bytes: cfg.pkt_bytes,
            });
        }
        for t in &cfg.throttles {
            if !(0.0..=1.0).contains(&t.factor) {
                return Err(EngineError::BadThrottleFactor {
                    tag: t.tag.clone(),
                    factor: t.factor,
                });
            }
        }
        let mut links = Vec::with_capacity(topo.n_links() * 2);
        let mut distance = Vec::with_capacity(topo.n_links());
        for l in &topo.links {
            let d = DLink {
                ns_per_byte: if l.capacity_gbps > 0.0 {
                    8.0 / l.capacity_gbps
                } else {
                    f64::INFINITY
                },
                prop_ns: (propagation_delay_ms(l.distance_km) * 1e6).round() as u64,
                queue: VecDeque::new(),
                busy: false,
                in_flight: VecDeque::new(),
            };
            links.push(d.clone()); // forward direction
            links.push(d); // reverse direction
            distance.push(l.distance_km);
        }
        let seed = cfg.seed;
        let occ =
            vec![Occupancy { queued_bytes: 0, buffer_bytes: cfg.buffer_bytes }; topo.n_links() * 2];
        Ok(Self {
            graph: CapacityGraph::new(topo, active),
            cfg,
            links,
            occ,
            distance,
            route_data: Vec::new(),
            route_starts: vec![0],
            route_of: BTreeMap::new(),
            trees: vec![None; topo.n_routers()],
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

    /// Intern the distance-shortest route `src → dst` over the active
    /// links as a sequence of directional link indices, read off `src`'s
    /// shortest-path tree.
    fn route(&mut self, src: RouterId, dst: RouterId) -> Option<u32> {
        if let Some(&cached) = self.route_of.get(&(src.0, dst.0)) {
            return cached;
        }
        let tree = self.trees[src.index()].get_or_insert_with(|| {
            self.graph.shortest_path_tree(src, |l, _| self.distance[l.index()], |_, _| true)
        });
        let found = tree.path_to(dst).and_then(|path| {
            let dirs = self.graph.path_dirs(src, &path).ok()?;
            let id = (self.route_starts.len() - 1) as u32;
            self.route_data
                .extend(path.iter().zip(dirs).map(|(&l, d)| (l.index() * 2 + d as usize) as u32));
            self.route_starts.push(self.route_data.len() as u32);
            Some(id)
        });
        self.route_of.insert((src.0, dst.0), found);
        found
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

    /// Add one aggregate source standing in for `user_flows` user flows.
    /// Returns `false` (without adding) when no route exists over the
    /// active links; the pair is counted in `unroutable_pairs`.
    // One parameter per independent knob of the source; bundling them
    // into a spec struct would just move the field list.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_source(
        &mut self,
        src: RouterId,
        dst: RouterId,
        rate_gbps: f64,
        owner: Option<EntityId>,
        tag: &str,
        kind: SourceKind,
        user_flows: u64,
    ) -> Result<bool, EngineError> {
        if !(rate_gbps.is_finite() && rate_gbps >= 0.0) {
            return Err(EngineError::BadRate { gbps: rate_gbps });
        }
        if src == dst {
            return Err(EngineError::LoopSource { router: src });
        }
        if let SourceKind::OnOff { on_ns, .. } = kind {
            if on_ns == 0 {
                return Err(EngineError::ZeroOnWindow);
            }
        }
        let Some(route) = self.route(src, dst) else {
            self.unroutable_pairs += 1;
            return Ok(false);
        };
        let owner_id = self.intern_owner(owner)?;
        let tag_id = self.intern_tag(tag)?;
        // Offered intent at the configured (unthrottled) rate: bits/ns ×
        // ns / 8 = bytes.
        self.tag_offered[tag_id as usize] += rate_gbps * self.cfg.horizon_ns as f64 / 8.0;
        self.n_user_flows += user_flows;
        let throttle: f64 = self
            .cfg
            .throttles
            .iter()
            .filter(|t| t.tag == tag)
            .map(|t| t.factor)
            .fold(1.0, f64::min);
        let peak = match kind {
            SourceKind::Persistent => rate_gbps * throttle,
            SourceKind::OnOff { on_ns, off_ns } => {
                rate_gbps * throttle * (on_ns + off_ns) as f64 / on_ns as f64
            }
        };
        if peak <= 0.0 {
            // Zero rate (or throttled to zero): offers, never injects.
            return Ok(true);
        }
        let gap_ns = ((self.cfg.pkt_bytes as f64 * 8.0) / peak).max(1.0) as u64;
        let phase_ns = match kind {
            SourceKind::Persistent => self.rng.gen_range(0..gap_ns),
            SourceKind::OnOff { on_ns, off_ns } => self.rng.gen_range(0..on_ns + off_ns),
        };
        let start = self.route_starts[route as usize] as usize;
        let end = self.route_starts[route as usize + 1] as usize;
        self.sources.push(Source {
            route,
            first_dl: self.route_data[start],
            hops: (end - start) as u16,
            owner: owner_id,
            tag: tag_id,
            bytes: self.cfg.pkt_bytes,
            gap_ns,
            kind,
            phase_ns,
        });
        Ok(true)
    }

    /// Scale a traffic matrix to user-flows and add one source per demand
    /// pair, classifying each by its source router (`classify` returns the
    /// billing owner and traffic tag). Returns the number of routable
    /// sources added.
    pub fn add_traffic_matrix<F>(
        &mut self,
        tm: &poc_traffic::TrafficMatrix,
        model: &poc_traffic::UserFlowModel,
        kind: SourceKind,
        mut classify: F,
    ) -> Result<usize, EngineError>
    where
        F: FnMut(RouterId) -> (Option<EntityId>, String),
    {
        let mut added = 0;
        for d in poc_traffic::pair_demands(tm, model) {
            let (owner, tag) = classify(d.src);
            if self.add_source(d.src, d.dst, d.rate_gbps, owner, &tag, kind, d.user_flows)? {
                added += 1;
            }
        }
        Ok(added)
    }

    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    pub fn n_user_flows(&self) -> u64 {
        self.n_user_flows
    }

    /// Run to the horizon and report. Consumes the engine: queue state is
    /// not reusable across runs (build a fresh engine per trial).
    pub fn run(mut self) -> EngineReport {
        let _span = poc_obs::span!("netsim.engine.run");
        let horizon = self.cfg.horizon_ns;
        let mut rt = RunState {
            lnk: EventHeap::with_capacity(self.links.len()),
            seq: 0,
            events: 0,
            packets_injected: 0,
            packets_delivered: 0,
            packets_dropped: 0,
            bytes_delivered: 0,
            owner_bytes: vec![0u64; self.owners.len()],
            tag_delivered: vec![0u64; self.tags.len()],
            tag_dropped: vec![0u64; self.tags.len()],
        };

        // Injections never touch the heap: each time-slice's fires come
        // from the injector already in (time, source) order and are
        // merge-joined against the link-event queue. The tie rule at
        // equal timestamps — link events first, then injections in source
        // order — is fixed, which is all the determinism guarantee
        // needs. This keeps the heap at O(busy links) entries.
        let mut injector = Injector::new(&self.sources);
        let mut bucket_start: u64 = 0;
        while bucket_start <= horizon {
            let bucket_end = bucket_start.saturating_add(BUCKET_NS);
            for &(at, si) in injector.bucket(&self.sources, bucket_start, horizon) {
                rt.drain_links(
                    &mut self.links,
                    &mut self.occ,
                    &self.route_data,
                    &self.route_starts,
                    horizon,
                    at,
                );
                rt.events += 1;
                rt.packets_injected += 1;
                let s = self.sources[si as usize];
                let pkt = Packet {
                    route: s.route,
                    hop: 0,
                    hops: s.hops,
                    owner: s.owner,
                    tag: s.tag,
                    bytes: s.bytes,
                };
                rt.arrive(&mut self.links, &mut self.occ, horizon, at, s.first_dl, pkt);
            }
            bucket_start = bucket_end;
            if bucket_end == u64::MAX {
                break;
            }
        }
        // Injections are exhausted; run the queues dry to the horizon.
        rt.drain_links(
            &mut self.links,
            &mut self.occ,
            &self.route_data,
            &self.route_starts,
            horizon,
            horizon,
        );
        let RunState {
            events,
            packets_injected,
            packets_delivered,
            packets_dropped,
            bytes_delivered,
            owner_bytes,
            tag_delivered,
            tag_dropped,
            ..
        } = rt;

        poc_obs::counter!("netsim.engine.events").add(events);
        poc_obs::counter!("netsim.engine.packets_injected").add(packets_injected);
        poc_obs::counter!("netsim.engine.packets_delivered").add(packets_delivered);
        poc_obs::counter!("netsim.engine.packets_dropped").add(packets_dropped);

        let mut usage_by_owner: Vec<(EntityId, f64)> = self
            .owners
            .iter()
            .zip(&owner_bytes)
            .map(|(&o, &b)| (o, b as f64 * 8.0 / horizon as f64))
            .collect();
        usage_by_owner.sort_by_key(|&(o, _)| o);
        let per_tag: Vec<TagStats> = self
            .tags
            .iter()
            .enumerate()
            .map(|(i, tag)| TagStats {
                tag: tag.clone(),
                offered_bytes: self.tag_offered[i],
                delivered_bytes: tag_delivered[i],
                dropped_pkts: tag_dropped[i],
            })
            .collect();
        EngineReport {
            horizon_ns: horizon,
            events,
            packets_injected,
            packets_delivered,
            packets_dropped,
            bytes_delivered,
            usage_by_owner,
            per_tag,
            n_sources: self.sources.len(),
            n_user_flows: self.n_user_flows,
            unroutable_pairs: self.unroutable_pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;
    use poc_topology::zoo::{attach_external_isps, ExternalIspConfig};
    use poc_topology::{CostModel, ZooConfig, ZooGenerator};
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

    const H100MS: u64 = 100_000_000;

    #[test]
    fn uncongested_source_delivers_its_rate() {
        let mut e = engine(EngineConfig { horizon_ns: H100MS, ..Default::default() });
        e.add_source(r(0), r(1), 10.0, None, "a", SourceKind::Persistent, 1).unwrap();
        let rep = e.run();
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
            e.add_source(
                r(0),
                r(1),
                100.0,
                Some(EntityId(i as u32)),
                tag,
                SourceKind::Persistent,
                1,
            )
            .unwrap();
        }
        let rep = e.run();
        assert!(rep.packets_dropped > 0, "overload must tail-drop: {rep:?}");
        let line = edge_adjusted(100.0, H100MS, direct_prop_ns(r(0), r(1)));
        let gbps = rep.delivered_gbps();
        assert!(gbps < line + 2.0, "delivery cannot exceed line rate: {gbps} vs {line}");
        assert!(gbps > line - 5.0, "the link should run near saturation: {gbps} vs {line}");
        assert!(rep.overall_availability() < 0.5, "{rep:?}");
    }

    #[test]
    fn same_seed_same_inputs_byte_identical_reports() {
        let build = || {
            let mut e = engine(EngineConfig { horizon_ns: 2_000_000, ..Default::default() });
            e.add_source(r(0), r(1), 40.0, Some(EntityId(7)), "a", SourceKind::Persistent, 1000)
                .unwrap();
            e.add_source(
                r(2),
                r(3),
                25.0,
                Some(EntityId(8)),
                "b",
                SourceKind::OnOff { on_ns: 100_000, off_ns: 100_000 },
                500,
            )
            .unwrap();
            e.add_source(r(1), r(2), 60.0, None, "a", SourceKind::Persistent, 1).unwrap();
            e.run()
        };
        let (a, b) = (build(), build());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "reports must be byte-identical");
    }

    #[test]
    fn different_seed_different_phases() {
        let run = |seed| {
            let mut e = engine(EngineConfig { seed, horizon_ns: 1_000_000, ..Default::default() });
            e.add_source(r(0), r(1), 40.0, None, "a", SourceKind::Persistent, 1).unwrap();
            e.run()
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
        e.add_source(r(0), r(1), 50.0, None, "a", SourceKind::Persistent, 1).unwrap();
        let rep = e.run();
        assert!(rep.packets_injected > 0);
        assert_eq!(
            rep.packets_delivered, 0,
            "nothing outruns propagation: prop {prop_ns} ns, horizon {} ns",
            rep.horizon_ns
        );
    }

    #[test]
    fn onoff_source_halves_throughput_at_fifty_percent_duty() {
        // Duty-cycled injection preserves the configured average rate:
        // delivery matches a persistent source of the same rate.
        let run = |kind| {
            let mut e = engine(EngineConfig { horizon_ns: H100MS, ..Default::default() });
            e.add_source(r(0), r(1), 20.0, None, "a", kind, 1).unwrap();
            e.run().delivered_gbps()
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
        e.add_source(r(0), r(1), 30.0, Some(owner), "a", SourceKind::Persistent, 1).unwrap();
        e.add_source(r(1), r(2), 10.0, Some(owner), "b", SourceKind::Persistent, 1).unwrap();
        e.add_source(r(2), r(3), 10.0, None, "c", SourceKind::Persistent, 1).unwrap();
        let rep = e.run();
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
        e.add_source(r(0), r(1), 40.0, None, "victim", SourceKind::Persistent, 1).unwrap();
        e.add_source(r(2), r(1), 40.0, None, "control", SourceKind::Persistent, 1).unwrap();
        let rep = e.run();
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
        assert!(e.add_source(r(0), r(1), 5.0, None, "a", SourceKind::Persistent, 1).unwrap());
        assert!(!e.add_source(r(2), r(3), 5.0, None, "a", SourceKind::Persistent, 1).unwrap());
        // Asked again, the pair is answered from the route cache and
        // counted again; a reachable pair from the same tree is not.
        assert!(!e.add_source(r(2), r(3), 5.0, None, "a", SourceKind::Persistent, 1).unwrap());
        assert!(!e.add_source(r(0), r(3), 5.0, None, "a", SourceKind::Persistent, 1).unwrap());
        assert!(e.add_source(r(1), r(0), 5.0, None, "a", SourceKind::Persistent, 1).unwrap());
        let rep = e.run();
        assert_eq!(rep.unroutable_pairs, 3);
        assert_eq!(rep.n_sources, 2);
        assert!(rep.packets_delivered > 0);
    }

    /// Every ordered pair's interned route against the early-exit search it
    /// used to come from, as directional link indices.
    fn assert_routes_match_per_pair_searches(topo: &PocTopology, active: &LinkSet) {
        let mut e = Engine::new(topo, active, EngineConfig::default()).unwrap();
        let g = CapacityGraph::new(topo, active);
        let (mut found, mut missing) = (0, 0);
        for src in (0..topo.n_routers()).map(RouterId::from_index) {
            for dst in (0..topo.n_routers()).map(RouterId::from_index).filter(|&d| d != src) {
                let expected = g
                    .shortest_path(src, dst, |l, _| topo.link(l).distance_km, |_, _| true)
                    .map(|path| {
                        let dirs = g.path_dirs(src, &path).unwrap();
                        path.iter()
                            .zip(dirs)
                            .map(|(l, d)| (l.index() * 2 + d as usize) as u32)
                            .collect::<Vec<_>>()
                    });
                let got = e.route(src, dst).map(|id| {
                    let (from, to) = (e.route_starts[id as usize], e.route_starts[id as usize + 1]);
                    e.route_data[from as usize..to as usize].to_vec()
                });
                assert_eq!(got, expected, "{src:?} → {dst:?}");
                match expected {
                    Some(_) => found += 1,
                    None => missing += 1,
                }
            }
        }
        assert!(found > 0, "no routable pair: {missing} unreachable");
    }

    #[test]
    fn tree_routes_equal_per_pair_shortest_paths_link_for_link() {
        let square = two_bp_square();
        assert_routes_match_per_pair_searches(&square, &LinkSet::full(square.n_links()));
        // Two BP-0 links only: some pairs have no route at all.
        let thin = LinkSet::from_links(
            square.n_links(),
            square.links_of_bp(poc_topology::BpId(0)).into_iter().take(2),
        );
        assert_routes_match_per_pair_searches(&square, &thin);

        // The benchmark's zoo10 at two instance seeds. BPs sharing a city
        // pair offer parallel links of equal length, so ties are the norm:
        // the full search must break each one as the early exit did.
        for seed in [0x9e37_79b9_7f4a_7c15, 7] {
            let mut zoo = ZooGenerator::new(
                ZooConfig {
                    n_cities: 40,
                    n_bps: 10,
                    coverage_min: 0.30,
                    coverage_max: 0.80,
                    ..ZooConfig::paper()
                }
                .with_seed(seed),
            )
            .generate();
            attach_external_isps(&mut zoo, &ExternalIspConfig::default(), &CostModel::default());
            assert_routes_match_per_pair_searches(&zoo, &LinkSet::full(zoo.n_links()));
            let mut every_fifth = LinkSet::empty(zoo.n_links());
            for l in (0..zoo.n_links()).step_by(5) {
                every_fifth.insert(poc_topology::LinkId::from_index(l));
            }
            assert_routes_match_per_pair_searches(&zoo, &every_fifth);
        }
    }

    fn firing(gap_ns: u64, phase_ns: u64, kind: SourceKind) -> Source {
        Source {
            route: 0,
            first_dl: 0,
            hops: 1,
            owner: NO_OWNER,
            tag: 0,
            bytes: 1500,
            gap_ns,
            kind,
            phase_ns,
        }
    }

    /// Every fire up to `horizon` with no slicing at all, sorted on
    /// `(time, source)`.
    fn reference_fires(sources: &[Source], horizon: u64) -> Vec<(u64, u32)> {
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Random source tables — persistent and on/off mixed, gaps from
        /// 1 ns (a fire in every slot) to thousands, phases drawn from a
        /// handful of values so sources collide, a horizon that ends
        /// mid-slice: the slices' counting placements, end to end, are the
        /// comparison sort of all fires on `(time, source)`.
        #[test]
        fn injector_slices_concatenate_to_the_sorted_fire_list(
            table in prop::collection::vec(
                ((0u8..3, 0u64..6000), (0u8..2, 0u64..30_000), (0u8..2, 1u64..20_000, 0u64..20_000)),
                1..10,
            ),
            horizon in 1u64..45_000,
        ) {
            let sources: Vec<Source> = table
                .into_iter()
                .map(|((gap_class, gap), (phase_class, phase), (onoff, on_ns, off_ns))| {
                    let gap_ns = 1 + gap % [2, 64, 6000][gap_class as usize];
                    let phase_ns = phase % [8, 30_000][phase_class as usize];
                    let kind = match onoff {
                        0 => SourceKind::Persistent,
                        _ => SourceKind::OnOff { on_ns, off_ns },
                    };
                    firing(gap_ns, phase_ns, kind)
                })
                .collect();
            let mut injector = Injector::new(&sources);
            let mut got = Vec::new();
            for bucket_start in (0..=horizon).step_by(BUCKET_NS as usize) {
                let fires = injector.bucket(&sources, bucket_start, horizon);
                prop_assert!(fires.iter().all(|&(t, _)| (bucket_start..bucket_start + BUCKET_NS).contains(&t)));
                got.extend_from_slice(fires);
            }
            prop_assert_eq!(got, reference_fires(&sources, horizon));
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
            e.add_source(r(0), r(0), 1.0, None, "a", SourceKind::Persistent, 1),
            Err(EngineError::LoopSource { .. })
        ));
        assert!(matches!(
            e.add_source(r(0), r(1), f64::NAN, None, "a", SourceKind::Persistent, 1),
            Err(EngineError::BadRate { .. })
        ));
        assert!(matches!(
            e.add_source(r(0), r(1), 1.0, None, "a", SourceKind::OnOff { on_ns: 0, off_ns: 5 }, 1),
            Err(EngineError::ZeroOnWindow)
        ));
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
        let rep = e.run();
        assert_eq!(rep.n_user_flows, 3000);
        assert_eq!(rep.usage_by_owner.len(), 2);
        assert!(rep.overall_availability() > 0.9, "{rep:?}");
    }
}
