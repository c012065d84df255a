//! The `poc` binary end to end: `poc dataplane` on the small preset, run
//! locally (no `--addr`) for 5 ms of packets, must exit 0, account on its
//! packets line for every packet it injected, print the settled delivery
//! those counts imply, and name its most oversubscribed links worst first.
//! With `--cheat` the auditor's detector must flag the throttled class,
//! and a factor outside `[0, 1]` is refused.

use std::process::{Command, Output};

fn poc_dataplane(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_poc"))
        .args(["dataplane", "--horizon-ms", "5"])
        .args(args)
        .output()
        .expect("the poc binary starts")
}

/// `poc dataplane --horizon-ms 5 ARGS`'s standard output, once it exited 0.
fn dataplane_stdout(args: &[&str]) -> String {
    let out = poc_dataplane(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "poc dataplane exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn dataplane_splits_every_injected_packet_four_ways() {
    let stdout = dataplane_stdout(&[]);
    // "packets: E events, I injected = D delivered + X dropped + Q queued
    // + F in flight at the horizon"
    let line = stdout
        .lines()
        .find(|l| l.starts_with("packets: "))
        .unwrap_or_else(|| panic!("no packets line in\n{stdout}"));
    let words: Vec<&str> = line.split_whitespace().map(|w| w.trim_end_matches(',')).collect();
    let count = |label: &str| -> u64 {
        let i = words
            .iter()
            .position(|&w| w == label)
            .unwrap_or_else(|| panic!("no {label:?} in {line:?}"));
        words[i - 1].parse().unwrap_or_else(|e| panic!("{label:?} count in {line:?}: {e}"))
    };
    let injected = count("injected");
    assert!(injected > 0, "{line}");
    assert_eq!(
        count("delivered") + count("dropped") + count("queued") + count("in"),
        injected,
        "{line}"
    );

    // "goodput: G Gbit/s delivered, availability A, settled delivery S",
    // with S = delivered / (delivered + dropped) from the packets line.
    let goodput = stdout
        .lines()
        .find(|l| l.starts_with("goodput: "))
        .unwrap_or_else(|| panic!("no goodput line in\n{stdout}"));
    let settled: f64 = goodput
        .rsplit_once("settled delivery ")
        .and_then(|(_, value)| value.parse().ok())
        .unwrap_or_else(|| panic!("no settled delivery in {goodput:?}"));
    let (delivered, dropped) = (count("delivered") as f64, count("dropped") as f64);
    assert!((settled - delivered / (delivered + dropped)).abs() <= 5e-5, "{goodput}\n{line}");
}

#[test]
fn dataplane_lists_at_most_five_oversubscribed_links_worst_first() {
    // "oversubscribed: N of L loaded links offered more than capacity;
    // worst: l79 r6->r7 4.028x, ..." — the worst part only when N > 0.
    let stdout = dataplane_stdout(&[]);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("oversubscribed: "))
        .unwrap_or_else(|| panic!("no oversubscribed line in\n{stdout}"));
    let after_goodput = stdout.lines().skip_while(|l| !l.starts_with("goodput: ")).nth(1);
    assert_eq!(after_goodput, Some(line), "the line follows goodput:\n{stdout}");
    let over: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no link count in {line:?}"));
    let ratios: Vec<f64> = match line.split_once("; worst: ") {
        None => Vec::new(),
        Some((_, rows)) => rows
            .split(", ")
            .map(|row| {
                let ratio = row.rsplit(' ').next().and_then(|r| r.strip_suffix('x'));
                ratio.and_then(|r| r.parse().ok()).unwrap_or_else(|| panic!("row {row:?}"))
            })
            .collect(),
    };
    assert_eq!(ratios.len(), over.min(5), "{line}");
    assert!(ratios.iter().all(|&r| r > 1.0), "{line}");
    assert!(ratios.windows(2).all(|w| w[0] >= w[1]), "{line}");
}

#[test]
fn dataplane_cheat_is_flagged_by_the_packet_detector() {
    // "neutrality: suspect/control goodput ratio R → FLAGGED (ToS breach)"
    let stdout = dataplane_stdout(&["--cheat", "0.4"]);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("neutrality: "))
        .unwrap_or_else(|| panic!("no neutrality line in\n{stdout}"));
    assert!(line.ends_with("FLAGGED (ToS breach)"), "{line}");
}

#[test]
fn dataplane_refuses_a_cheat_factor_outside_the_unit_interval() {
    let out = poc_dataplane(&["--cheat", "1.5"]);
    assert!(!out.status.success(), "poc dataplane --cheat 1.5 succeeded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cheat wants a factor in [0,1]"), "{stderr}");
}
