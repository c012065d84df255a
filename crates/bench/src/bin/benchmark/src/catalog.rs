//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` at the repository root is this table
//! printed by `benchmark manifest`; `compare` reads its bounds from here.

pub const DEFAULT_INSTANCE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
pub const DEFAULT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// `run_seconds` in `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "epoch_wire_zoo10",
        why: "the operator loop over loopback TCP on a durable server: auction and flow do over 85% \
              of the work; ctrlplane, transition and netsim do little",
    },
    Workload {
        name: "migrate_walk_zoo14",
        why: "expand and contract walks planned and executed in process between two fixed \
              selections: transition does all the work and auction none, the bypass case for auction changes",
    },
    Workload {
        name: "dataplane_zoo14",
        why: "the packet engine on the live selection: netsim does all the work and every other \
              layer none; simulated counts must repeat exactly while host time varies",
    },
    Workload {
        name: "ctrl_mixed_zoo10",
        why: "a durable server under one back-to-back ReportUsage connection beside one seeded \
              read-mix connection: ctrlplane does all the work; reads take the global lock writes avoid",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: None }
}

/// Every workload reports every one of these (README: what each means on
/// each workload).
pub const END_TO_END: &[Metric] = &[
    e2e("primary_op_ms", "ms", false, 0.25),
    e2e("companion_op_ms", "ms", false, 0.25),
    e2e("work_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// The traced pass reports every one of these on every workload; a metric
/// of a layer the workload does not enter reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // The workload's own operations, as timed in the traced pass.
    layer("epoch_s", "s", false),
    layer("round_s", "s", false),
    layer("migrate_s", "s", false),
    layer("walk_expand_s", "s", false),
    layer("walk_contract_s", "s", false),
    layer("engine_events_per_s", "events/s", true),
    layer("usage_ack_per_s", "req/s", true),
    layer("usage_p50_us", "us", false),
    layer("read_per_s", "req/s", true),
    layer("read_p50_us", "us", false),
    layer("topology.generate_s", "s", false),
    layer("traffic.generate_s", "s", false),
    layer("auction.market_build_ms", "ms", false),
    layer("auction.select_s", "s", false),
    layer("auction.pivot_s", "s", false),
    layer("auction.pivot_max_s", "s", false),
    layer("auction.pivots", "count", false),
    layer("auction.round_inproc_s", "s", false),
    layer("auction.unattributed_s", "s", false),
    layer("flow.graph_build_us", "us", false),
    layer("flow.shortest_path_us", "us", false),
    layer("flow.route_tm_ms", "ms", false),
    layer("flow.cold_eval_ms", "ms", false),
    layer("flow.warm_eval_ms", "ms", false),
    layer("flow.oracle_checks", "count", false),
    layer("flow.warm_reused_flows", "count", true),
    layer("flow.warm_rerouted_flows", "count", false),
    layer("flow.warm_fallbacks", "count", false),
    layer("flow.warm_fallback_ratio", "ratio", false),
    layer("flow.cache_hit_ratio", "ratio", true),
    layer("core.install_ms", "ms", false),
    layer("core.settle_ms", "ms", false),
    layer("core.lease_step_us", "us", false),
    layer("transition.plan_expand_s", "s", false),
    layer("transition.plan_contract_s", "s", false),
    layer("transition.exec_expand_s", "s", false),
    layer("transition.exec_contract_s", "s", false),
    layer("transition.exec_over_plan", "ratio", false),
    layer("transition.steps", "count", false),
    layer("transition.plan_probes", "count", false),
    layer("transition.probes_per_step", "ratio", false),
    layer("transition.verify_retries", "count", false),
    layer("transition.replans", "count", false),
    layer("transition.rollbacks", "count", false),
    layer("transition.drill_s", "s", false),
    layer("transition.unsafe_intermediates", "count", false),
    layer("netsim.engine_build_ms", "ms", false),
    layer("netsim.engine_run_s", "s", false),
    layer("netsim.events", "count", false),
    layer("netsim.ns_per_event", "ns", false),
    layer("netsim.packets_injected", "count", false),
    layer("netsim.packets_delivered", "count", true),
    layer("netsim.packets_dropped", "count", false),
    layer("netsim.drop_ratio", "ratio", false),
    layer("netsim.availability", "ratio", true),
    layer("ctrlplane.codec_small_us", "us", false),
    layer("ctrlplane.codec_large_us", "us", false),
    layer("ctrlplane.lease_frame_bytes", "bytes", false),
    layer("ctrlplane.journal_append_sync_us", "us", false),
    layer("ctrlplane.journal_append_nosync_us", "us", false),
    layer("ctrlplane.fsync_share", "ratio", false),
    layer("ctrlplane.snapshot_write_ms", "ms", false),
    layer("ctrlplane.snapshot_bytes", "bytes", false),
    layer("ctrlplane.recover_ms", "ms", false),
    layer("ctrlplane.replayed_records", "count", false),
    layer("ctrlplane.appends", "count", false),
    layer("ctrlplane.fsyncs", "count", false),
    layer("ctrlplane.batch_mean", "ratio", true),
    layer("ctrlplane.snapshots", "count", false),
    layer("ctrlplane.busy_rejections", "count", false),
    layer("ctrlplane.usage_p99_us", "us", false),
    layer("ctrlplane.read_p99_us", "us", false),
    layer("ctrlplane.round_overhead_ms", "ms", false),
    layer("ctrlplane.migrate_journal_ms", "ms", false),
    layer("obs.trace_overhead_ratio", "ratio", false),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name).map_or("", |m| m.unit)
}

fn json_str(s: &str) -> String {
    // Names, units and reasons here are plain ASCII without quotes.
    format!("\"{s}\"")
}

/// `BENCHMARK.json`, generated so the file and the program cannot drift.
pub fn manifest_json() -> String {
    let better = |m: &Metric| if m.higher_is_better { "higher" } else { "lower" };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m)),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m))
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for w in WORKLOADS {
            assert!(json_str(w.why).len() <= 202, "{} why too long", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
