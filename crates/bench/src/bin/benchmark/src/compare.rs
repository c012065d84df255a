//! `benchmark compare <A.json…> -- <B.json…>`: two sets of untraced result
//! files (what `--out` writes, one file per run), one row per pairing of
//! end-to-end metric and workload, judged against the metric's fixed bound.

use crate::catalog::{Metric, END_TO_END, WORKLOADS};
use crate::report::ResultFile;
use crate::stats::{quartiles, spread};

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file: ResultFile = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if file.provenance.mode != "full" {
        return Err(format!(
            "{path}: mode is {:?}; quick runs exercise the harness and are not comparable",
            file.provenance.mode
        ));
    }
    if file.traced {
        return Err(format!("{path}: a traced result; end-to-end numbers come from untraced runs"));
    }
    if file.provenance.profile != "release" {
        return Err(format!("{path}: built with profile {:?}", file.provenance.profile));
    }
    Ok(file)
}

struct Side {
    values: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn side(files: &[ResultFile], workload: &str, metric: &str) -> Side {
    let runs: Vec<&ResultFile> = files.iter().filter(|f| f.workload == workload).collect();
    Side {
        values: runs
            .iter()
            .filter_map(|f| f.metrics.iter().find(|m| m.name == metric).map(|m| m.value))
            .collect(),
        attempted: runs.iter().map(|f| f.ops_attempted).sum(),
        failed: runs.iter().map(|f| f.ops_failed).sum(),
    }
}

#[derive(PartialEq, Debug)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

/// Judge `b` against `a` for one metric. Worse by more than the bound is a
/// regression whatever the spread; otherwise a spread wider than the bound
/// on either side leaves the row unresolved unless every run of `b` reads
/// better than every run of `a`.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (_, a_med, _) = quartiles(a);
    let (_, b_med, _) = quartiles(b);
    let worse_by = (if metric.higher_is_better { a_med - b_med } else { b_med - a_med }) / a_med;
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let better = |x: f64, y: f64| if metric.higher_is_better { x > y } else { x < y };
    let b_wins_every_pair = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a) > bound || spread(b) > bound {
        return if b_wins_every_pair { Verdict::Improved } else { Verdict::Unresolved };
    }
    if -worse_by > spread(a) && b_wins_every_pair {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `Ok(true)` when nothing regressed and no workload failed a larger share
/// of its operations.
pub fn run(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: benchmark compare <A.json…> -- <B.json…>")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("compare needs at least one result file on each side of `--`".into());
    }
    let a: Vec<ResultFile> = a_paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let b: Vec<ResultFile> = b_paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;

    let stamp = |files: &[ResultFile]| {
        let p = &files[0].provenance;
        format!(
            "{} runs, git {} on {} cores, {}, state on {}",
            files.len(),
            p.git_rev,
            p.cores,
            p.rustc,
            p.state_fs_type
        )
    };
    println!("A (base): {}", stamp(&a));
    println!("B:        {}", stamp(&b));
    println!(
        "{:<20}{:<17}{:>11} {:<23}{:>11} {:<23}{:>9}{:>7}  verdict",
        "workload", "metric", "A median", "[q1, q3] n", "B median", "[q1, q3] n", "B/A", "bound"
    );

    let mut clean = true;
    for w in WORKLOADS {
        let mut shares = None;
        for m in END_TO_END {
            let (sa, sb) = (side(&a, w.name, m.name), side(&b, w.name, m.name));
            if sa.values.is_empty() || sb.values.is_empty() {
                continue;
            }
            let (aq1, amed, aq3) = quartiles(&sa.values);
            let (bq1, bmed, bq3) = quartiles(&sb.values);
            let verdict = judge(m, &sa.values, &sb.values);
            if verdict == Verdict::Regressed {
                clean = false;
            }
            println!(
                "{:<20}{:<17}{:>11.4} {:<23}{:>11.4} {:<23}{:>9.4}{:>7.2}  {}",
                w.name,
                m.name,
                amed,
                format!("[{aq1:.4}, {aq3:.4}] {}", sa.values.len()),
                bmed,
                format!("[{bq1:.4}, {bq3:.4}] {}", sb.values.len()),
                bmed / amed,
                m.bound.unwrap_or(0.0),
                format!("{verdict:?}").to_lowercase()
            );
            shares = Some((sa, sb));
        }
        if let Some((sa, sb)) = shares {
            let share = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
            let more_failures = share(&sb) > share(&sa);
            println!(
                "{:<20}ops_failed/ops_attempted  A {}/{}  B {}/{}{}",
                w.name,
                sa.failed,
                sa.attempted,
                sb.failed,
                sb.attempted,
                if more_failures { "  HIGHER FAILURE SHARE" } else { "" }
            );
            if more_failures {
                clean = false;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric =
        Metric { name: "primary_op_ms", unit: "ms", higher_is_better: false, bound: Some(0.10) };
    const HIGHER: Metric =
        Metric { name: "work_per_s", unit: "1/s", higher_is_better: true, bound: Some(0.10) };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&LOWER, &a, &[102.0, 103.0, 101.0, 102.5, 101.5]), Verdict::Unchanged);
        assert_eq!(judge(&LOWER, &a, &[115.0, 116.0, 114.0, 115.5, 114.5]), Verdict::Regressed);
        assert_eq!(judge(&LOWER, &a, &[80.0, 81.0, 79.0, 80.5, 79.5]), Verdict::Improved);
        assert_eq!(judge(&HIGHER, &a, &[80.0, 81.0, 79.0, 80.5, 79.5]), Verdict::Regressed);
        // A spread wider than the bound hides anything short of a clean win.
        let noisy = [80.0, 120.0, 95.0, 105.0, 100.0];
        assert_eq!(
            judge(&LOWER, &noisy, &[104.0, 103.0, 105.0, 104.5, 103.5]),
            Verdict::Unresolved
        );
        assert_eq!(judge(&LOWER, &noisy, &[60.0, 61.0, 59.0, 60.5, 59.5]), Verdict::Improved);
    }
}
