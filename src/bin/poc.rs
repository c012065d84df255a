//! `poc` — command-line front end for the Public Option for the Core.
//!
//! ```console
//! poc topo-stats [--paper]            instance statistics (E-T1)
//! poc auction [--paper] [--constraint 1|2|3]
//!                                     one VCG round + PoB table (E-F2)
//! poc transition [--headroom FACTOR] [--constraint N] [--max-extra N]
//!                [--cut N] [--recall N] [--addr HOST:PORT] [--status]
//!                                     safe lease migration (drill or live)
//! poc dataplane [--horizon-ms N] [--cheat FACTOR] [--addr HOST:PORT]
//!                                     auction → leases → packets → money
//! poc serve [--addr HOST:PORT] [--max-conns N]
//!           [--idle-timeout-ms N] [--write-timeout-ms N]
//!           [--state-dir PATH] [--fsync always|interval|never]
//!           [--snapshot-every N]
//!                                     run the control-plane server
//! poc metrics [--addr HOST:PORT] [--json]
//!             [--timeout-ms N] [--retries N] [--backoff-ms N]
//!                                     scrape a running server's metrics
//! poc round [--addr HOST:PORT] [--trace-id N] [--timeout-ms N]
//!                                     one traced auction round on a server
//! poc trace [--addr HOST:PORT] [--id N] [--last N] [--json | --chrome]
//!           [--out PATH] [--timeout-ms N]
//!                                     scrape a server's trace trees
//! ```
//!
//! Argument parsing is deliberately dependency-free (std only).

use public_option_core::auction::{run_auction, GreedySelector, Market};
use public_option_core::core::poc::{Poc, PocConfig};
use public_option_core::ctrlplane::{ClientConfig, PocClient};
use public_option_core::flow::Constraint;
use public_option_core::topology::zoo::{attach_external_isps, ExternalIspConfig};
use public_option_core::topology::{
    CostModel, PocTopology, TopologyStats, ZooConfig, ZooGenerator,
};
use public_option_core::traffic::{TrafficMatrix, TrafficScenario};
use std::net::SocketAddr;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "topo-stats" => cmd_topo_stats(rest),
        "auction" => cmd_auction(rest),
        "transition" => cmd_transition(rest),
        "dataplane" => cmd_dataplane(rest),
        "serve" => cmd_serve(rest),
        "metrics" => cmd_metrics(rest),
        "round" => cmd_round(rest),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: poc <command> [options]

commands:
  topo-stats [--paper]                 synthetic instance statistics (E-T1)
  auction [--paper] [--constraint N]   run one VCG round, print PoB (E-F2)
  transition [--headroom FACTOR]       migrate the fabric to the set the auction
             [--constraint N]            selects under demand scaled by FACTOR
             [--max-extra N]             (default 1.5), every intermediate set
             [--cut N] [--recall N]      verified feasible. --cut/--recall
             [--addr HOST:PORT]          inject faults mid-transition (local
             [--status]                  drill only). --addr runs the migration
                                         on a live server instead, where
                                         --max-extra caps the headroom links
                                         held mid-walk (it requires --addr);
                                         --status asks how the last one ended.
  dataplane [--horizon-ms N]           auction → leases → packets → money: run one
            [--cheat FACTOR]             VCG round, replay the traffic matrix as
            [--addr HOST:PORT]           packets on the leased fabric, settle the
                                         bill from delivered bytes. --cheat throttles
                                         the suspect class at ingress and the
                                         auditor's packet detector must flag it.
                                         --addr settles against a running server
                                         (start it with the same preset).
  serve [--addr HOST:PORT]             run the control-plane server
        [--max-conns N]                  connection cap, the one bound on concurrent
                                         work: one request in flight and one
                                         usage-ledger shard per connection
                                         (default 256)
        [--idle-timeout-ms N]            evict silent peers after N ms (default 30000)
        [--write-timeout-ms N]           per-response write deadline (default 10000)
        [--state-dir PATH]               journal + snapshots here; recover on start
                                         (default: in-memory only, state dies with
                                         the process)
        [--fsync always|interval|never]  journal durability policy (default always)
        [--snapshot-every N]             checkpoint every N events, 0 = never
                                         (default 64)
  metrics [--addr HOST:PORT] [--json]  scrape a running server's metrics
          [--timeout-ms N]               read deadline for the scrape (default 30000)
          [--retries N]                  reconnect-and-retry budget (default 3)
          [--backoff-ms N]               base retry backoff (default 50)
  round [--addr HOST:PORT]             ask a running server for one auction round,
        [--trace-id N]                   tagged with a trace id (default: fresh id)
        [--timeout-ms N]                 read deadline (default 600000 — rounds are slow)
  trace [--addr HOST:PORT]             scrape recorded trace trees from a server
        [--id N] [--last N]              one trace by id / the N most recent
        [--json | --chrome]              raw JSON / Chrome trace-event JSON
        [--out PATH]                     write the export to a file instead of stdout
        [--timeout-ms N]                 read deadline for the scrape (default 30000)
  help                                 this message

instance presets (topo-stats, auction, serve): --paper for the full §3.3
instance, --scale for the 100-BP ROADMAP stress instance, laptop-scale
default otherwise. `serve` records causal traces by default; --no-trace
disables the flight recorder.";

fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

fn opt<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1)).map(|s| s.as_str())
}

/// Parse `--name N` as a number, with a CLI-friendly error.
fn num_opt<T: std::str::FromStr>(rest: &[String], name: &str) -> Result<Option<T>, String> {
    opt(rest, name)
        .map(|raw| raw.parse().map_err(|_| format!("{name} wants a number, got {raw:?}")))
        .transpose()
}

/// The address `serve` listens on, and `metrics`, `round` and `trace`
/// connect to, without `--addr`.
const DEFAULT_ADDR: &str = "127.0.0.1:7700";

/// Connect to a running `poc serve` at `addr` with the command's own
/// deadlines and retry policy. Every client command reaches the server
/// through here, so a bad address and an absent server read the same in
/// all of them.
fn connect(addr: &str, config: ClientConfig) -> Result<(PocClient, SocketAddr), String> {
    let addr: SocketAddr = addr.parse().map_err(|e| format!("bad --addr {addr:?}: {e}"))?;
    let client = PocClient::connect_with(addr, config)
        .map_err(|e| format!("connect {addr}: {e} (is `poc serve` running?)"))?;
    Ok((client, addr))
}

/// Instance preset shared by `topo-stats`, `auction`, and `serve`.
#[derive(Clone, Copy, PartialEq)]
enum Preset {
    Small,
    Paper,
    Scale,
}

fn preset(rest: &[String]) -> Result<Preset, String> {
    match (flag(rest, "--paper"), flag(rest, "--scale")) {
        (true, true) => Err("--paper and --scale are mutually exclusive".into()),
        (true, false) => Ok(Preset::Paper),
        (false, true) => Ok(Preset::Scale),
        (false, false) => Ok(Preset::Small),
    }
}

fn build_instance(preset: Preset) -> (PocTopology, TrafficMatrix) {
    let (zoo, total) = match preset {
        Preset::Small => (ZooConfig::small(), 2500.0),
        Preset::Paper => (ZooConfig::paper(), 24000.0),
        Preset::Scale => (ZooConfig::scale(), 24000.0),
    };
    let mut topo = ZooGenerator::new(zoo).generate();
    attach_external_isps(&mut topo, &ExternalIspConfig::default(), &CostModel::default());
    let tm =
        TrafficScenario { total_gbps: total, ..TrafficScenario::paper_default() }.generate(&topo);
    (topo, tm)
}

fn cmd_topo_stats(rest: &[String]) -> Result<(), String> {
    let (topo, _) = build_instance(preset(rest)?);
    let stats = TopologyStats::compute(&topo);
    println!("{}", stats.render_table());
    let (min, max) = stats.share_range();
    println!("share range {:.1}%–{:.1}%", min * 100.0, max * 100.0);
    Ok(())
}

/// `--constraint N`, 1 (the default), 2 or 3. Constraint #2 samples every
/// 4th failure scenario on the small preset and every 32nd on the others.
fn constraint(rest: &[String], preset: Preset) -> Result<Constraint, String> {
    let stride = if preset == Preset::Small { 4 } else { 32 };
    match opt(rest, "--constraint").unwrap_or("1") {
        "1" => Ok(Constraint::BaseLoad),
        "2" => Ok(Constraint::SinglePathFailure { sample_every: stride }),
        "3" => Ok(Constraint::AllPairsBackup),
        other => Err(format!("unknown constraint {other:?} (use 1, 2 or 3)")),
    }
}

fn cmd_auction(rest: &[String]) -> Result<(), String> {
    let preset = preset(rest)?;
    let constraint = constraint(rest, preset)?;
    let (topo, tm) = build_instance(preset);
    let market = Market::truthful(&topo, 3.0);
    let selector = GreedySelector::with_prune_budget(16);
    let out = run_auction(&market, &tm, constraint, &selector)
        .map_err(|e| format!("auction failed: {e}"))?;
    println!(
        "constraint {}: |SL| = {}, C(SL) = ${:.0}/mo",
        constraint.label(),
        out.selected.len(),
        out.total_cost
    );
    println!("{:<10}{:>12}{:>12}{:>10}", "BP", "bid $", "payment $", "PoB");
    for s in &out.settlements {
        if s.bid_cost > 0.0 {
            println!(
                "{:<10}{:>12.0}{:>12.0}{:>10.4}",
                s.bp.to_string(),
                s.bid_cost,
                s.payment,
                s.pob().unwrap_or(0.0)
            );
        }
    }
    Ok(())
}

/// Safe lease migration, two ways. Locally: run the auction, re-run it
/// under demand scaled by `--headroom`, and walk the fabric from the
/// first selection to the second with every intermediate set verified —
/// optionally cutting/recalling links mid-walk to drill the replanner.
/// With `--addr`: ask a running server to do the same under its journal,
/// or (`--status`) how its last transition ended.
fn cmd_transition(rest: &[String]) -> Result<(), String> {
    use public_option_core::netsim::{run_transition_drill, TransitionDrillSpec};

    let headroom = num_opt::<f64>(rest, "--headroom")?.unwrap_or(1.5);
    if !headroom.is_finite() || headroom <= 0.0 {
        return Err(format!("--headroom wants a positive finite factor, got {headroom}"));
    }
    let max_extra = num_opt::<usize>(rest, "--max-extra")?;

    if let Some(addr) = opt(rest, "--addr") {
        // Transitions verify every intermediate set; give them the same
        // generous deadline as auction rounds.
        let config = ClientConfig {
            read_timeout: std::time::Duration::from_millis(
                num_opt::<u64>(rest, "--timeout-ms")?.unwrap_or(600_000),
            ),
            ..Default::default()
        };
        let (mut client, _) = connect(addr, config)?;
        let summary = if flag(rest, "--status") {
            match client.transition_status().map_err(|e| format!("status: {e}"))? {
                Some(s) => s,
                None => {
                    println!("no transition has finished on this server");
                    return Ok(());
                }
            }
        } else {
            client
                .begin_transition(max_extra, Some(headroom))
                .map_err(|e| format!("transition: {e}"))?
        };
        println!(
            "{}: {} -> {} links, {} steps, {} replans, {} rollbacks{}",
            summary.outcome,
            summary.n_from_links,
            summary.n_final_links,
            summary.steps_applied,
            summary.replans,
            summary.rollbacks,
            if summary.recovered { " (finished by crash recovery)" } else { "" }
        );
        return Ok(());
    }

    if max_extra.is_some() {
        return Err("--max-extra requires --addr".into());
    }
    let preset = preset(rest)?;
    let constraint = constraint(rest, preset)?;
    let (topo, tm) = build_instance(preset);
    let mut poc = Poc::new(topo, PocConfig { constraint, ..PocConfig::default() });
    poc.run_auction_round(&tm).map_err(|e| format!("auction failed: {e}"))?;
    let from = poc.last_outcome().expect("round just ran").selected.clone();
    let mut forecast = tm.clone();
    forecast.scale(headroom);
    let to = poc
        .compute_auction_outcome(&forecast)
        .map_err(|e| format!("forecast auction failed: {e}"))?
        .selected;
    println!(
        "migrating {} -> {} links (headroom x{headroom}, constraint {})",
        from.len(),
        to.len(),
        constraint.label()
    );

    let spec = TransitionDrillSpec {
        n_cuts: num_opt(rest, "--cut")?.unwrap_or(0),
        n_recalls: num_opt(rest, "--recall")?.unwrap_or(0),
        at_poll: 0,
    };
    // Intermediates are verified against the *live* matrix — the traffic
    // the fabric carries during the walk; the forecast only picked the
    // destination (same contract as the server's BeginTransition).
    let rep = run_transition_drill(poc.topo(), &tm, constraint, &from, &to, &spec)
        .map_err(|e| format!("{e}"))?;
    println!(
        "{:?}: {} steps, {} replans, {} rollbacks, final {} links",
        rep.report.outcome,
        rep.report.steps_applied,
        rep.report.replans,
        rep.report.rollbacks,
        rep.report.final_state.len()
    );
    if !rep.cut_links.is_empty() {
        println!("cut mid-walk: {:?}", rep.cut_links);
    }
    if !rep.recalled_links.is_empty() {
        println!("recalled mid-walk: {:?}", rep.recalled_links);
    }
    println!(
        "safety: {} infeasible intermediates, {} dead-link reappearances",
        rep.unsafe_intermediates, rep.dead_link_reappearances
    );
    Ok(())
}

/// The paper's full loop in one command: a VCG round leases the fabric,
/// the packet engine replays the traffic matrix on those leases, and the
/// delivered bytes settle through the ledger — locally, or against a
/// running `poc serve` with `--addr`.
fn cmd_dataplane(rest: &[String]) -> Result<(), String> {
    use public_option_core::ctrlplane::AttachRole;
    use public_option_core::netsim::discrim::{detect_throttling, CONTROL_TAG, SUSPECT_TAG};
    use public_option_core::netsim::engine::{Engine, EngineConfig, IngressThrottle, SourceKind};
    use public_option_core::topology::RouterId;
    use public_option_core::traffic::UserFlowModel;

    let horizon_ms = num_opt::<u64>(rest, "--horizon-ms")?.unwrap_or(20);
    if horizon_ms == 0 {
        return Err("--horizon-ms must be at least 1".into());
    }
    let cheat = num_opt::<f64>(rest, "--cheat")?;
    if let Some(f) = cheat {
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("--cheat wants a factor in [0,1], got {f}"));
        }
    }
    let (topo, tm) = build_instance(preset(rest)?);

    // The auction runs locally either way: with --addr the server runs the
    // same deterministic round on the same preset, so the local selection
    // mirrors the leases the server actually holds.
    let mut poc = Poc::new(topo, PocConfig::default());
    poc.run_auction_round(&tm).map_err(|e| format!("auction failed: {e}"))?;
    let outcome = poc.last_outcome().expect("round just ran");
    let selected = outcome.selected.clone();
    println!("auction: |SL| = {} links, C(SL) = ${:.0}/mo", selected.len(), outcome.total_cost);

    // Two LMPs split the attachment points; the suspect class is the
    // traffic metro-a originates (the class --cheat throttles).
    let last = RouterId::from_index(poc.topo().n_routers() - 1);
    let mut remote = match opt(rest, "--addr") {
        Some(addr) => Some(connect(addr, ClientConfig::default())?.0),
        None => None,
    };
    let (lmp_a, lmp_b) = match &mut remote {
        Some(client) => {
            let a = client
                .attach("metro-a", AttachRole::Lmp { router: RouterId(0) })
                .map_err(|e| format!("attach metro-a: {e}"))?;
            let b = client
                .attach("metro-b", AttachRole::Lmp { router: last })
                .map_err(|e| format!("attach metro-b: {e}"))?;
            client.run_auction().map_err(|e| format!("server round: {e}"))?;
            (a, b)
        }
        None => {
            let a = poc.attach_lmp("metro-a", RouterId(0)).map_err(|e| format!("attach: {e}"))?;
            let b = poc.attach_lmp("metro-b", last).map_err(|e| format!("attach: {e}"))?;
            (a, b)
        }
    };

    // Packets on the leased fabric.
    let cfg = EngineConfig {
        horizon_ns: horizon_ms * 1_000_000,
        throttles: match cheat {
            Some(factor) => vec![IngressThrottle { tag: SUSPECT_TAG.into(), factor }],
            None => vec![],
        },
        ..Default::default()
    };
    let classify = |src: RouterId| {
        if src.index().is_multiple_of(2) {
            (Some(lmp_a), SUSPECT_TAG.to_string())
        } else {
            (Some(lmp_b), CONTROL_TAG.to_string())
        }
    };
    let build_started = std::time::Instant::now();
    let eng = {
        let _span = public_option_core::obs::span!("netsim.engine.build");
        let mut eng =
            Engine::new(poc.topo(), &selected, cfg).map_err(|e| format!("engine: {e}"))?;
        eng.add_traffic_matrix(&tm, &UserFlowModel::default(), SourceKind::Persistent, classify)
            .map_err(|e| format!("engine ingest: {e}"))?;
        eng
    };
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
    println!(
        "data plane: {} sources standing in for {} user flows, horizon {horizon_ms} ms",
        eng.n_sources(),
        eng.n_user_flows()
    );
    let loads = eng.link_loads();
    let run_started = std::time::Instant::now();
    let report = eng.run();
    let run_s = run_started.elapsed().as_secs_f64();
    println!(
        "packets: {} events, {} injected = {} delivered + {} dropped + {} queued + {} in flight \
         at the horizon",
        report.events,
        report.packets_injected,
        report.packets_delivered,
        report.packets_dropped,
        report.packets_queued,
        report.packets_in_flight
    );
    println!(
        "goodput: {:.1} Gbit/s delivered, availability {:.4}, settled delivery {:.4}",
        report.delivered_gbps(),
        report.overall_availability(),
        report.settled_delivery()
    );
    // What single-path routes ask of each link, against its capacity.
    let over = loads.iter().take_while(|l| l.ratio() > 1.0).count();
    let worst: Vec<String> = loads[..over.min(5)]
        .iter()
        .map(|l| format!("{} {}->{} {:.3}x", l.link, l.from, l.to, l.ratio()))
        .collect();
    println!(
        "oversubscribed: {over} of {} loaded links offered more than capacity{}",
        loads.len(),
        if worst.is_empty() { String::new() } else { format!("; worst: {}", worst.join(", ")) }
    );
    println!(
        "engine: build {build_ms:.2} ms, run {run_s:.3} s, {:.2} M events/s, drop ratio {:.4}, \
         {} unroutable pairs",
        report.events as f64 / run_s / 1e6,
        report.packets_dropped as f64 / report.packets_injected.max(1) as f64,
        report.unroutable_pairs
    );

    // The auditor's view: packet goodput, suspect vs control.
    if let Some(finding) = detect_throttling(&report) {
        println!(
            "neutrality: suspect/control goodput ratio {:.3} → {}",
            finding.ratio,
            if finding.throttled { "FLAGGED (ToS breach)" } else { "clean" }
        );
    }

    // Money: delivered bytes settle the period.
    match &mut remote {
        Some(client) => {
            client
                .report_usage_batch(&report.usage_by_owner)
                .map_err(|e| format!("report usage: {e}"))?;
            let bill = client.run_billing().map_err(|e| format!("billing: {e}"))?;
            println!(
                "billing (remote): outlay ${:.0}, unit price ${:.4}/Gbit/s, POC net ${:.4}",
                bill.total_outlay, bill.unit_price, bill.poc_net
            );
            for (name, id) in [("metro-a", lmp_a), ("metro-b", lmp_b)] {
                let bal = client.balance(id).map_err(|e| format!("balance: {e}"))?;
                println!("  {name}: balance ${bal:.0}");
            }
        }
        None => {
            let bill =
                poc.billing_cycle(&report.usage_by_owner).map_err(|e| format!("billing: {e}"))?;
            println!(
                "billing: outlay ${:.0}, unit price ${:.4}/Gbit/s, POC net ${:.4}",
                bill.total_outlay, bill.unit_price, bill.poc_net
            );
            for (name, id) in [("metro-a", lmp_a), ("metro-b", lmp_b)] {
                use public_option_core::core::settlement::Account;
                println!("  {name}: balance ${:.0}", poc.ledger().balance(Account::Entity(id)));
            }
            println!("ledger conservation error: {:.3e}", poc.ledger().conservation_error());
        }
    }
    Ok(())
}

fn cmd_metrics(rest: &[String]) -> Result<(), String> {
    let mut config = ClientConfig::default();
    if let Some(ms) = num_opt::<u64>(rest, "--timeout-ms")? {
        config.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = num_opt::<u32>(rest, "--retries")? {
        config.retry.max_retries = n;
    }
    if let Some(ms) = num_opt::<u64>(rest, "--backoff-ms")? {
        config.retry.base_backoff = std::time::Duration::from_millis(ms);
    }
    let (mut client, _) = connect(opt(rest, "--addr").unwrap_or(DEFAULT_ADDR), config)?;
    let snap = client.metrics().map_err(|e| format!("scrape: {e}"))?;
    if flag(rest, "--json") {
        println!("{}", snap.to_json());
        return Ok(());
    }
    if !snap.counters.is_empty() {
        println!("{:<34}{:>14}", "counter", "value");
        for c in &snap.counters {
            println!("{:<34}{:>14}", c.name, c.value);
        }
    }
    if !snap.gauges.is_empty() {
        println!("\n{:<34}{:>14}", "gauge", "value");
        for g in &snap.gauges {
            println!("{:<34}{:>14.3}", g.name, g.value);
        }
    }
    if !snap.histograms.is_empty() {
        println!(
            "\n{:<34}{:>8}{:>12}{:>12}{:>12}{:>12}",
            "histogram (ns)", "count", "mean", "p50", "p90", "p99"
        );
        for h in &snap.histograms {
            println!(
                "{:<34}{:>8}{:>12.0}{:>12}{:>12}{:>12}",
                h.name,
                h.count,
                h.mean(),
                h.p50,
                h.p90,
                h.p99
            );
        }
    }
    Ok(())
}

/// Trigger one auction round over the wire, tagged with a trace id, so
/// `poc trace` can show where the round's time went.
fn cmd_round(rest: &[String]) -> Result<(), String> {
    let mut config = ClientConfig::default().no_retry();
    // Rounds at --scale run for minutes; default the deadline high.
    config.read_timeout =
        std::time::Duration::from_millis(num_opt::<u64>(rest, "--timeout-ms")?.unwrap_or(600_000));
    let trace_id = match num_opt::<u64>(rest, "--trace-id")? {
        Some(id) => id,
        None => public_option_core::obs::trace::new_trace_id(),
    };
    let (mut client, addr) = connect(opt(rest, "--addr").unwrap_or(DEFAULT_ADDR), config)?;
    client.set_trace(Some(trace_id));
    let summary = client.run_auction().map_err(|e| format!("round: {e}"))?;
    println!(
        "round done: |SL| = {}, C(SL) = ${:.0}/mo, payments ${:.0}/mo",
        summary.n_selected_links, summary.total_cost, summary.total_payments
    );
    println!("trace id {trace_id}  (scrape it: poc trace --addr {addr} --id {trace_id})");
    Ok(())
}

/// Scrape and render recorded trace trees from a running server.
fn cmd_trace(rest: &[String]) -> Result<(), String> {
    let mut config = ClientConfig::default();
    if let Some(ms) = num_opt::<u64>(rest, "--timeout-ms")? {
        config.read_timeout = std::time::Duration::from_millis(ms);
    }
    let trace_id = num_opt::<u64>(rest, "--id")?;
    let last_n = num_opt::<usize>(rest, "--last")?;
    let (mut client, _) = connect(opt(rest, "--addr").unwrap_or(DEFAULT_ADDR), config)?;
    let traces = client.traces(trace_id, last_n).map_err(|e| format!("scrape: {e}"))?;
    if traces.is_empty() {
        return Err("no traces recorded (run `poc round` first, and check the server \
                    isn't running with --no-trace)"
            .into());
    }
    let rendered = if flag(rest, "--chrome") {
        public_option_core::obs::chrome::chrome_trace_json(&traces)
    } else if flag(rest, "--json") {
        serde_json::to_string(&traces).map_err(|e| format!("serialize: {e}"))?
    } else {
        traces
            .iter()
            .map(public_option_core::obs::trace::render_tree)
            .collect::<Vec<_>>()
            .join("\n")
    };
    match opt(rest, "--out") {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "{} trace{} -> {path}",
                traces.len(),
                if traces.len() == 1 { "" } else { "s" }
            );
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    use public_option_core::ctrlplane::ServerConfig;
    let addr = opt(rest, "--addr").unwrap_or(DEFAULT_ADDR).to_string();
    let mut config = ServerConfig::default();
    if let Some(n) = num_opt::<usize>(rest, "--max-conns")? {
        config.max_connections = n;
    }
    if let Some(ms) = num_opt::<u64>(rest, "--idle-timeout-ms")? {
        config.idle_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = num_opt::<u64>(rest, "--write-timeout-ms")? {
        config.write_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(dir) = opt(rest, "--state-dir") {
        let mut durability = public_option_core::ctrlplane::DurabilityConfig::new(dir);
        if let Some(policy) = opt(rest, "--fsync") {
            durability.fsync = public_option_core::ctrlplane::FsyncPolicy::parse(policy)?;
        }
        if let Some(n) = num_opt::<u64>(rest, "--snapshot-every")? {
            durability.snapshot_every = n;
        }
        config.durability = Some(durability);
    } else if opt(rest, "--fsync").is_some() || opt(rest, "--snapshot-every").is_some() {
        return Err("--fsync/--snapshot-every require --state-dir".into());
    }
    // The flight recorder is on by default for the CLI server — the
    // recorder is bounded and a traced request is the whole point of
    // `poc round` + `poc trace`. `--no-trace` restores the library
    // default (disabled, ~zero overhead).
    let tracing = !flag(rest, "--no-trace");
    public_option_core::obs::trace::recorder().set_enabled(tracing);
    let (topo, tm) = build_instance(preset(rest)?);
    let poc = Poc::new(topo, PocConfig::default());
    let (server, handle) =
        public_option_core::ctrlplane::PocServer::bind_with(&addr, poc, tm, config.clone())
            .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("POC control plane listening on {}", handle.local_addr);
    println!(
        "tracing: {}",
        if tracing {
            "flight recorder on (`poc round` then `poc trace --chrome`)"
        } else {
            "off (--no-trace)"
        }
    );
    println!(
        "limits: {} connections (one usage shard each), idle eviction after {:?}, \
         write deadline {:?}",
        config.max_connections, config.idle_timeout, config.write_timeout
    );
    match &config.durability {
        Some(d) => println!(
            "state: {} (fsync {:?}, snapshot every {} events) — recovered and journaling",
            d.state_dir.display(),
            d.fsync,
            d.snapshot_every
        ),
        None => println!("state: in memory only (give --state-dir to survive restarts)"),
    }
    println!("press Ctrl-C to stop");
    // Blocks in the accept loop; Ctrl-C terminates the process.
    server.run();
    Ok(())
}
