//! Run context and the durable in-process server both wire workloads use.

use crate::instance::Instance;
use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig};
use poc_ctrlplane::{
    AttachRole, ClientConfig, DurabilityConfig, FsyncPolicy, PocClient, PocServer, ServerConfig,
    ServerHandle,
};
use poc_flow::LinkSet;
use poc_netsim::engine::{Engine, EngineConfig, SourceKind};
use poc_topology::RouterId;
use poc_traffic::UserFlowModel;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Ctx {
    pub seed: u64,
    pub instance_seed: u64,
    /// How long the measured pass runs.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// Scratch directory of this run, on a real filesystem inside the
    /// checkout; removed when the run ends.
    pub state_root: PathBuf,
}

impl Ctx {
    /// Seconds one pass may measure: the whole budget untraced; a traced
    /// run splits it between an untraced and a traced pass (their ratio is
    /// the tracing overhead) and spends the rest on the layer calls.
    pub fn pass_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 3.0
        } else {
            self.seconds
        }
    }
}

/// Set up `build` up to three times (once in quick mode), stopping early
/// once set-up has cost five seconds, and keep the last context. The
/// samples feed `setup_s`.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    mut build: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut samples = Vec::new();
    let mut spent = 0.0;
    loop {
        let start = Instant::now();
        let built = build()?;
        let took = start.elapsed().as_secs_f64();
        samples.push(took);
        spent += took;
        if ctx.quick || samples.len() == 3 || spent > 5.0 {
            return Ok((built, samples));
        }
        discard(built);
    }
}

/// A live server configured exactly as `poc serve --state-dir DIR
/// [--fsync POLICY]`: `ServerConfig::default()`, snapshot every 64 events,
/// `PocConfig::default()`, flight recorder on.
pub struct Server {
    pub addr: SocketAddr,
    handle: ServerHandle,
    join: std::thread::JoinHandle<()>,
}

impl Server {
    /// Boot on an ephemeral loopback port. `fresh` wipes the state
    /// directory first; otherwise the server recovers from it.
    pub fn boot(
        inst: &Instance,
        state_dir: &Path,
        fresh: bool,
        fsync: FsyncPolicy,
    ) -> Result<Self, String> {
        if fresh {
            let _ = std::fs::remove_dir_all(state_dir);
        }
        poc_obs::trace::recorder().set_enabled(true);
        let poc = Poc::new(inst.topo.clone(), PocConfig::default());
        let config = ServerConfig {
            durability: Some(DurabilityConfig { fsync, ..DurabilityConfig::new(state_dir) }),
            ..ServerConfig::default()
        };
        let (server, handle) = PocServer::bind_with("127.0.0.1:0", poc, inst.tm.clone(), config)
            .map_err(|e| format!("bind server on {}: {e}", state_dir.display()))?;
        let addr = handle.local_addr;
        let join = std::thread::spawn(move || server.run());
        Ok(Self { addr, handle, join })
    }

    /// Stop accepting, drain connections, sync the journal, join.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = self.join.join();
    }

    /// A connection that never retries (a `Busy`, a timeout or an error
    /// reply must surface as a failed operation) with a deadline long
    /// enough for rounds and migrations.
    pub fn connect(&self) -> Result<PocClient, String> {
        let config =
            ClientConfig { read_timeout: Duration::from_secs(170), ..ClientConfig::default() }
                .no_retry();
        PocClient::connect_with(self.addr, config)
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }
}

/// The two members every workload bills, attached as `poc dataplane`
/// attaches them: `metro-a` at the first router, `metro-b` at the last.
fn member_sites(inst: &Instance) -> [(&'static str, RouterId); 2] {
    [("metro-a", RouterId(0)), ("metro-b", RouterId::from_index(inst.topo.n_routers() - 1))]
}

pub fn attach_members(client: &mut PocClient, inst: &Instance) -> Result<[EntityId; 2], String> {
    let [a, b] = member_sites(inst).map(|(name, router)| {
        client.attach(name, AttachRole::Lmp { router }).map_err(|e| format!("attach {name}: {e}"))
    });
    Ok([a?, b?])
}

/// The same two members on an in-process facade; attached in the same
/// order as over the wire, they get the same entity ids.
pub fn attach_members_in_process(poc: &mut Poc, inst: &Instance) -> Result<[EntityId; 2], String> {
    let [a, b] = member_sites(inst).map(|(name, router)| {
        poc.attach_lmp(name, router).map_err(|e| format!("attach {name}: {e}"))
    });
    Ok([a?, b?])
}

/// A packet engine on `links` carrying the instance's matrix, owners and
/// tags split by source-router parity as `poc dataplane` splits them.
pub fn build_engine<'t>(
    inst: &'t Instance,
    links: &LinkSet,
    members: [EntityId; 2],
    horizon_ns: u64,
    seed: u64,
) -> Result<Engine<'t>, String> {
    let cfg = EngineConfig { horizon_ns, seed, ..Default::default() };
    let mut eng = Engine::new(&inst.topo, links, cfg).map_err(|e| format!("engine: {e}"))?;
    let [a, b] = members;
    eng.add_traffic_matrix(&inst.tm, &UserFlowModel::default(), SourceKind::Persistent, |src| {
        if src.index().is_multiple_of(2) {
            (Some(a), "suspect".to_string())
        } else {
            (Some(b), "control".to_string())
        }
    })
    .map_err(|e| format!("engine ingest: {e}"))?;
    Ok(eng)
}
