//! The `poc` binary's `auction` subcommand end to end: one VCG round on
//! the small preset prints its header and one row per BP holding links in
//! `SL`, each paid at least its bid; an unknown constraint is refused, by
//! `auction` and by `transition`, which parse it the same way. The local
//! `transition` drill runs with a cut and a recall and reports no unsafe
//! state, and refuses `--max-extra`, which only a server walk honours.

use std::process::{Command, Output};

fn poc(command: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_poc"))
        .arg(command)
        .args(args)
        .output()
        .expect("the poc binary starts")
}

#[test]
fn auction_prints_one_row_per_bp_paid_at_least_its_bid() {
    let out = poc("auction", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "poc auction exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines();
    let header = lines.next().unwrap_or_default();
    assert!(header.starts_with("constraint #1: |SL| = "), "{stdout}");
    let columns = lines.next().unwrap_or_default();
    assert_eq!(
        columns.split_whitespace().collect::<Vec<_>>(),
        ["BP", "bid", "$", "payment", "$", "PoB"]
    );

    // "bpN  bid  payment  PoB", one row per BP with a bid cost in SL.
    let mut bps = Vec::new();
    for row in lines {
        let words: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(words.len(), 4, "{row:?}");
        assert!(words[0].starts_with("bp"), "{row:?}");
        let bid: f64 = words[1].parse().unwrap_or_else(|e| panic!("bid in {row:?}: {e}"));
        let payment: f64 = words[2].parse().unwrap_or_else(|e| panic!("payment in {row:?}: {e}"));
        assert!(payment >= bid, "paid below the bid: {row:?}");
        bps.push(words[0]);
    }
    assert!(!bps.is_empty(), "no BP rows in\n{stdout}");
    let distinct: std::collections::BTreeSet<&str> = bps.iter().copied().collect();
    assert_eq!(distinct.len(), bps.len(), "one row per BP:\n{stdout}");
}

#[test]
fn auction_refuses_an_unknown_constraint() {
    let out = poc("auction", &["--constraint", "7"]);
    assert!(!out.status.success(), "poc auction --constraint 7 succeeded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown constraint"), "{stderr}");
}

#[test]
fn transition_refuses_an_unknown_constraint() {
    // Refused before either auction of the walk runs.
    let out = poc("transition", &["--constraint", "7"]);
    assert!(!out.status.success(), "poc transition --constraint 7 succeeded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown constraint"), "{stderr}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn transition_refuses_max_extra_without_addr() {
    // The local drill walks under the default budget, so a cap it would
    // ignore is refused before either auction runs.
    let out = poc("transition", &["--max-extra", "0"]);
    assert!(!out.status.success(), "poc transition --max-extra 0 succeeded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-extra requires --addr"), "{stderr}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn transition_drill_under_a_cut_and_a_recall_applies_no_unsafe_state() {
    let out = poc("transition", &["--cut", "1", "--recall", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "poc transition exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout
            .lines()
            .any(|l| l == "safety: 0 infeasible intermediates, 0 dead-link reappearances"),
        "{stdout}"
    );
}
