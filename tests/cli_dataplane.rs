//! The `poc` binary end to end: `poc dataplane` on the small preset, run
//! locally (no `--addr`) for 5 ms of packets, must exit 0, account on its
//! packets line for every packet it injected, and print the settled
//! delivery those counts imply.

use std::process::Command;

#[test]
fn dataplane_splits_every_injected_packet_four_ways() {
    let out = Command::new(env!("CARGO_BIN_EXE_poc"))
        .args(["dataplane", "--horizon-ms", "5"])
        .output()
        .expect("the poc binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "poc dataplane exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
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
