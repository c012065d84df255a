//! Property tests for the causal-tracing layer: random span trees —
//! including subtrees executed on spawned threads — must reconstruct
//! their exact parent/child structure from the flight recorder, and the
//! ring must hold its drop-oldest contract (with the global
//! `obs.trace.dropped` counter advancing) under wraparound.
//!
//! These tests share the process-global recorder with any other test in
//! the binary, so every case tags its spans with a fresh trace id and
//! filters the scrape down to it. The recorder is switched on and left
//! on: restoring "disabled" could race another test's open span between
//! its begin and its record.

use poc_obs::{FlightRecorder, TraceCtx, TraceEventWire};
use proptest::prelude::*;

/// One generated tree node: its parent (always an earlier index, so the
/// tree is well-formed by construction) and whether its subtree runs on
/// a freshly spawned thread.
#[derive(Clone, Copy, Debug)]
struct Node {
    parent: usize,
    spawned: bool,
}

/// Execute the generated tree as real nested spans, depth-first: a
/// node's span stays open while its children run, exactly like the
/// auction round span over its pivots. Spawned subtrees capture the
/// current [`TraceCtx`] and re-install it on the new thread.
fn run_tree(nodes: &[Node], children: &[Vec<usize>], idx: usize) {
    let span = poc_obs::span!("proptree.node", node = idx as u64);
    for &child in &children[idx] {
        if nodes[child].spawned {
            let ctx = TraceCtx::current();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _trace = ctx.as_ref().map(TraceCtx::adopt);
                    run_tree(nodes, children, child);
                });
            });
        } else {
            run_tree(nodes, children, child);
        }
    }
    drop(span);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any random span tree — with arbitrary thread-spawn boundaries —
    /// reconstructs exactly from the recorded events: every node's
    /// recorded parent span is its generating parent's span, the root
    /// parents to the trace root (0), and spawned nodes carry a thread
    /// tag different from their parent's.
    #[test]
    fn random_span_trees_reconstruct_exact_parentage(
        raw in prop::collection::vec((0u64..1_000_000, 0u32..2), 1..10),
    ) {
        poc_obs::trace::recorder().set_enabled(true);
        // Node 0 is the root; node i>0 parents to an earlier node.
        let mut nodes = vec![Node { parent: 0, spawned: false }];
        for (i, &(pick, spawn)) in raw.iter().enumerate() {
            nodes.push(Node { parent: (pick % (i as u64 + 1)) as usize, spawned: spawn == 1 });
        }
        let mut children = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter().enumerate().skip(1) {
            children[node.parent].push(i);
        }

        let trace_id = poc_obs::trace::new_trace_id();
        {
            let _trace = poc_obs::trace::start_trace(trace_id);
            run_tree(&nodes, &children, 0);
        }

        let traces = poc_obs::trace::scrape(Some(trace_id), None);
        prop_assert_eq!(traces.len(), 1, "one trace under this id");
        let events = &traces[0].events;
        prop_assert_eq!(events.len(), nodes.len(), "one span per node");

        // Recover node index -> event via the `node` field.
        let mut by_node: Vec<Option<&TraceEventWire>> = vec![None; nodes.len()];
        for event in events {
            let idx: usize = event
                .fields
                .iter()
                .find(|(k, _)| k == "node")
                .expect("every span carries its node index")
                .1
                .parse()
                .expect("node index is numeric");
            prop_assert!(by_node[idx].is_none(), "node {} recorded twice", idx);
            by_node[idx] = Some(event);
        }

        for (i, node) in nodes.iter().enumerate() {
            let event = by_node[i].expect("every node recorded");
            if i == 0 {
                prop_assert_eq!(event.parent_id, 0, "root parents to the trace root");
            } else {
                let parent_event = by_node[node.parent].expect("parent recorded");
                prop_assert_eq!(
                    event.parent_id, parent_event.span_id,
                    "node {} must parent to node {}", i, node.parent
                );
                if node.spawned {
                    prop_assert_ne!(
                        event.thread, parent_event.thread,
                        "spawned node {} runs on its own thread", i
                    );
                }
            }
            // Children start after their parent on the shared monotone
            // trace clock. (End times are measured from a separate
            // Instant and can skew by nanoseconds, so only start order
            // is asserted.)
            for &child in &children[i] {
                let child_event = by_node[child].expect("child recorded");
                prop_assert!(child_event.start_ns >= event.start_ns);
            }
        }
    }

    /// Wraparound: overfilling a ring keeps exactly the newest
    /// `capacity` events in order, counts every eviction, and advances
    /// the process-global `obs.trace.dropped` counter by the same
    /// amount or more (other tests may evict concurrently).
    #[test]
    fn ring_wraparound_keeps_newest_and_counts_drops(
        capacity in 1usize..32,
        extra in 0u64..64,
    ) {
        let before = poc_obs::global().snapshot().counter("obs.trace.dropped").unwrap_or(0);

        let ring = FlightRecorder::with_capacity(capacity);
        let total = capacity as u64 + extra;
        for n in 0..total {
            ring.record(poc_obs::TraceEvent {
                trace_id: 1,
                span_id: n + 1,
                parent_id: 0,
                name: "proptree.ring",
                start_ns: n,
                dur_ns: 1,
                thread: 0,
                fields: Vec::new(),
            });
        }

        prop_assert_eq!(ring.dropped(), extra);
        let survivors: Vec<u64> = ring.snapshot().iter().map(|e| e.span_id).collect();
        let expected: Vec<u64> = (extra + 1..=total).collect();
        prop_assert_eq!(survivors, expected, "drop-oldest keeps the newest tail in order");

        let after = poc_obs::global().snapshot().counter("obs.trace.dropped").unwrap_or(0);
        prop_assert!(after >= before + extra, "global dropped counter advances per eviction");
    }
}
