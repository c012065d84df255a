//! `ctrl_mixed_zoo10`: a durable server, after one round and two LMP
//! attaches, under two closed-loop connections — one issuing `ReportUsage`
//! back to back, one issuing a seeded read mix (70 % `GetBalance`, 20 %
//! `GetPath`, 10 % `GetLeases`). Writes run beside reads because reads take
//! the global lock that writes avoid.
//!
//! It runs in one of two ways.
//!
//! *As deployed* (the traced pass, per-layer numbers): `poc serve
//! --state-dir`'s defaults, so every write waits for an `fdatasync`; the
//! reader paces itself. On this virtual machine that measures the host: the
//! device wait and the wake-up of a halted vCPU are exits to the host, and
//! the write median of one build read 182-272 us over ten consecutive 20 s
//! runs. No bound holds on that, so none of it is gated.
//!
//! *Gated* (the untraced run, end-to-end numbers): `poc serve --state-dir
//! --fsync interval`, the whole process confined to one CPU, both
//! connections back to back. The journal, the snapshots, the codec, admission
//! and the locks all still run on every request, but a request no longer
//! waits for the device (one sync per 100 ms, plus the snapshot's) nor for
//! a vCPU to wake: the CPU stays busy and hands over by context switch.
//! The host still slows everything for tens of seconds at a time, so the
//! numbers are taken from the window's quiet tenth: the window is cut into
//! slices, each slice gives a median latency and a completion rate, and the
//! run reports the 10th percentile of the medians and the 90th of the rates.

use crate::harness::{attach_members, repeat_setup, Ctx, Server};
use crate::instance::{Instance, Size};
use crate::layers::{self, ratio, Counters};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::sys;
use crate::tracer::{LayerTable, Tracer};
use poc_core::entity::EntityId;
use poc_core::poc::{Poc, PocConfig};
use poc_ctrlplane::FsyncPolicy;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The deployed reader's pause after each reply. Back to back and free to
/// roam, the reader and its server thread keep one of this sandbox's two
/// vCPUs busy, and whether the writer's fsync wake-up lands beside them made
/// the write median bimodal from run to run (117–238 us over eight runs).
const READ_THINK: Duration = Duration::from_micros(500);

/// Width of the slices a gated window is cut into: about 5 000 writes and
/// 250 `GetLeases` each.
const SLICE_S: f64 = 0.25;

struct World {
    inst: Instance,
    server: Server,
    members: [EntityId; 2],
    n_leases: usize,
}

fn setup(ctx: &Ctx, fsync: FsyncPolicy) -> Result<World, String> {
    let quiet = Tracer::new(false);
    let inst = Instance::generate(Size::Zoo10, ctx.instance_seed, &quiet);
    let server = Server::boot(&inst, &ctx.state_root.join("ctrl"), true, fsync)?;
    let mut client = server.connect()?;
    let members = attach_members(&mut client, &inst)?;
    client.run_auction().map_err(|e| {
        format!("zoo10 is not auctionable at x1.0: {e} (instance seed {:#x})", inst.instance_seed)
    })?;
    let n_leases = client.leases().map_err(|e| format!("GetLeases: {e}"))?.len();
    Ok(World { inst, server, members, n_leases })
}

#[derive(Default)]
struct Side {
    latency_us: Vec<f64>,
    /// When each sampled reply arrived, seconds into the measured window.
    done_at_s: Vec<f64>,
    /// Whether each sampled reply was the large frame (`GetLeases`).
    large: Vec<bool>,
    attempted: u64,
    failures: Vec<String>,
    /// Sum of acknowledged usage, Gbit/s, for the billing check.
    acked_gbps: f64,
    wall_s: f64,
    table: LayerTable,
}

/// One connection's closed loop until `stop`: issue `request`, pause for
/// `think`, repeat. `request` returns the usage it got acknowledged (0 for a
/// read), the seconds it took and whether the reply was the large frame;
/// only requests sent after the warm-up are counted and sampled, but
/// acknowledged usage is summed from the start, because the server bills all
/// of it.
fn closed_loop(
    stop: &AtomicBool,
    warm_up: Duration,
    think: Duration,
    traced: bool,
    reserve: usize,
    mut request: impl FnMut(&Tracer) -> (Result<f64, String>, f64, bool),
) -> Side {
    let tracer = Tracer::new(traced);
    // Room for every sample up front: a vector that doubles mid-window holds
    // its old and new buffers at once, and `peak_rss_mb` would read whether
    // this run happened to cross a power of two.
    let mut side = Side {
        latency_us: Vec::with_capacity(reserve),
        done_at_s: Vec::with_capacity(reserve),
        large: Vec::with_capacity(reserve),
        ..Side::default()
    };
    let opened = Instant::now();
    let mut measured_from: Option<Instant> = None;
    while !stop.load(Ordering::Relaxed) {
        let measuring = opened.elapsed() >= warm_up;
        if measuring && measured_from.is_none() {
            measured_from = Some(Instant::now());
        }
        let (answer, secs, large) = request(&tracer);
        let done_at_s = measured_from.map_or(0.0, |t| t.elapsed().as_secs_f64());
        if !think.is_zero() {
            std::thread::sleep(think);
        }
        if let Ok(gbps) = answer {
            side.acked_gbps += gbps;
        }
        if !measuring {
            continue;
        }
        side.attempted += 1;
        match answer {
            Ok(_) => {
                side.latency_us.push(secs * 1e6);
                side.done_at_s.push(done_at_s);
                side.large.push(large);
            }
            Err(e) => side.failures.push(e),
        }
    }
    side.wall_s = measured_from.map_or(0.0, |t| t.elapsed().as_secs_f64());
    side.table = tracer.fold();
    side
}

/// Both connections for `warm_up + seconds`, the reader pausing for
/// `read_think` after each reply.
fn window(
    w: &World,
    ctx: &Ctx,
    seconds: f64,
    read_think: Duration,
    traced: bool,
) -> Result<(Side, Side), String> {
    let warm_up = Duration::from_secs_f64(if ctx.quick { 0.5 } else { (seconds / 5.0).min(2.0) });
    // More requests than either connection completes here (40 000 a second).
    let reserve = ((warm_up.as_secs_f64() + seconds + 1.0) * 150_000.0) as usize;
    let stop = AtomicBool::new(false);
    let mut writer_conn = w.server.connect()?;
    let mut reader_conn = w.server.connect()?;
    let [a, b] = w.members;
    let n_leases = w.n_leases;

    let mut write_rng = ChaCha8Rng::seed_from_u64(ctx.seed);
    let write = move |tracer: &Tracer| {
        let entity = if write_rng.gen_bool(0.5) { a } else { b };
        let gbps = write_rng.gen_range(0.001..0.002);
        let (answer, secs) = tracer.timed("wire.report_usage", || {
            writer_conn
                .report_usage(entity, gbps)
                .map(|()| gbps)
                .map_err(|e| format!("ReportUsage: {e}"))
        });
        (answer, secs, false)
    };
    let mut read_rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0x5eed_0f4e_ad5e);
    let read = move |tracer: &Tracer| {
        let pick: f64 = read_rng.gen_range(0.0..1.0);
        let (answer, secs) = if pick < 0.7 {
            let entity = if read_rng.gen_bool(0.5) { a } else { b };
            tracer.timed("wire.get_balance", || match reader_conn.balance(entity) {
                Ok(balance) if balance.is_finite() => Ok(()),
                other => Err(format!("GetBalance: {other:?}")),
            })
        } else if pick < 0.9 {
            tracer.timed("wire.get_path", || match reader_conn.path(a, b) {
                Ok(Some(links)) if !links.is_empty() => Ok(()),
                other => Err(format!("GetPath between the members: {other:?}")),
            })
        } else {
            tracer.timed("wire.get_leases", || match reader_conn.leases() {
                Ok(leases) if leases.len() == n_leases => Ok(()),
                Ok(leases) => {
                    Err(format!("GetLeases: {} leases, expected {n_leases}", leases.len()))
                }
                Err(e) => Err(format!("GetLeases: {e}")),
            })
        };
        (answer.map(|()| 0.0), secs, pick >= 0.9)
    };

    Ok(std::thread::scope(|scope| {
        let stop = &stop;
        let writer =
            scope.spawn(move || closed_loop(stop, warm_up, Duration::ZERO, traced, reserve, write));
        let reader =
            scope.spawn(move || closed_loop(stop, warm_up, read_think, traced, reserve, read));
        std::thread::sleep(warm_up + Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    }))
}

impl Side {
    fn per_s(&self) -> f64 {
        ratio(self.latency_us.len() as f64, self.wall_s)
    }

    /// The window's quiet tenth: over its whole `SLICE_S`-wide slices, the
    /// 10th percentile of the slices' median latencies (us), taken over the
    /// large frames only if `large_only`, and the 90th percentile of their
    /// completions per second. A slice in which nothing completed has a
    /// rate of 0 and no median.
    fn quiet_tenth(&self, large_only: bool) -> (f64, f64) {
        let n_slices = (self.wall_s / SLICE_S).floor() as usize;
        let mut latencies = vec![Vec::new(); n_slices];
        let mut completed = vec![0u32; n_slices];
        for ((&at, &us), &large) in self.done_at_s.iter().zip(&self.latency_us).zip(&self.large) {
            let slice = (at / SLICE_S) as usize;
            if slice < n_slices {
                completed[slice] += 1;
                if large || !large_only {
                    latencies[slice].push(us);
                }
            }
        }
        let medians: Vec<f64> =
            latencies.iter().filter(|l| !l.is_empty()).map(|l| median(l)).collect();
        let rates: Vec<f64> = completed.iter().map(|&n| f64::from(n) / SLICE_S).collect();
        (percentile(&medians, 10.0), percentile(&rates, 90.0))
    }
}

fn account(rep: &mut Report, side: &Side) {
    rep.ops_attempted += side.attempted;
    rep.ops_failed += side.failures.len() as u64;
    for f in side.failures.iter().take(5) {
        eprintln!("operation failed: {f}");
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::new("ctrl_mixed_zoo10", ctx.traced);
    // The untraced run is the gated one (see the top of this file).
    let gated = !ctx.traced;
    let fsync = if gated { FsyncPolicy::parse("interval")? } else { FsyncPolicy::Always };
    let read_think = if gated { Duration::ZERO } else { READ_THINK };
    let (w, setup_s) = repeat_setup(ctx, || setup(ctx, fsync), |w: World| w.server.stop())?;
    println!("{}; {} leases in a GetLeases frame", w.inst.describe(), w.n_leases);
    if gated {
        // After set-up, which keeps its cores for the round's pivots; the
        // connections' server threads are spawned later and inherit it.
        let cpu = sys::pin_process_to_one_cpu()?;
        println!("fsync {fsync:?}, every thread on CPU {cpu}, both connections back to back");
    }
    let seconds = match (ctx.quick, ctx.traced) {
        (true, true) => 2.0,
        (true, false) => 5.0,
        (false, _) => ctx.pass_seconds(),
    };

    let (writes, reads) = window(&w, ctx, seconds, read_think, false)?;
    account(&mut rep, &writes);
    account(&mut rep, &reads);
    let mut acked_gbps = writes.acked_gbps;

    if ctx.traced {
        let counters = Counters::start();
        let (t_writes, t_reads) = window(&w, ctx, seconds, read_think, true)?;
        counters.report_ctrl(&mut rep);
        account(&mut rep, &t_writes);
        account(&mut rep, &t_reads);
        acked_gbps += t_writes.acked_gbps;
        rep.set("usage_ack_per_s", t_writes.per_s());
        rep.set("usage_p50_us", median(&t_writes.latency_us));
        rep.set("read_per_s", t_reads.per_s());
        rep.set("read_p50_us", median(&t_reads.latency_us));
        rep.set("ctrlplane.usage_p99_us", percentile(&t_writes.latency_us, 99.0));
        rep.set("ctrlplane.read_p99_us", percentile(&t_reads.latency_us, 99.0));
        rep.set(
            "obs.trace_overhead_ratio",
            ratio(median(&t_writes.latency_us), median(&writes.latency_us)),
        );
        rep.table.merge(t_writes.table);
        rep.table.merge(t_reads.table);
    } else {
        let (write_us, write_per_s) = writes.quiet_tenth(false);
        let (lease_read_us, _) = reads.quiet_tenth(true);
        rep.set("primary_op_ms", write_us / 1e3);
        rep.set("companion_op_ms", lease_read_us / 1e3);
        rep.set("work_per_s", write_per_s);
        rep.set_samples("setup_s", &setup_s);
        println!(
            "whole window: {:.0} writes/s at a median of {:.1} us (p99 {:.1}) beside {:.0} reads/s at a median of {:.1} us (p99 {:.1})",
            writes.per_s(),
            median(&writes.latency_us),
            percentile(&writes.latency_us, 99.0),
            reads.per_s(),
            median(&reads.latency_us),
            percentile(&reads.latency_us, 99.0),
        );
    }

    // Every acknowledged report must reach the bill: charges / unit price
    // recovers the usage the ledger settled.
    let mut client = w.server.connect()?;
    if let Some(bill) = rep.op("RunBilling", client.run_billing()) {
        let billed: f64 = bill.charges.iter().map(|(_, c)| c / bill.unit_price).sum();
        rep.check(
            "ledger.usage_settled",
            bill.unit_price > 0.0 && (billed - acked_gbps).abs() <= 1e-6 * acked_gbps,
            || format!("acknowledged {acked_gbps} Gbit/s of usage, billed {billed}"),
        );
        rep.check("ledger.conservation", bill.poc_net.abs() <= 1e-6 * bill.total_outlay, || {
            format!("outlay {} POC net {}", bill.total_outlay, bill.poc_net)
        });
    }

    if ctx.traced {
        let tracer = Tracer::new(true);
        let lease_frame = rep.op("GetLeases", client.leases()).unwrap_or_default();
        drop(client);
        w.server.stop();
        crate::w_epoch::recover(&w.inst, &ctx.state_root.join("ctrl"), &tracer, &mut rep);
        // A facade in the server's state, for the snapshot the direct call writes.
        let mut poc = Poc::new(w.inst.topo.clone(), PocConfig::default());
        if rep
            .op("in-process Poc::run_auction_round", poc.run_auction_round(&w.inst.tm).map(|_| ()))
            .is_some()
        {
            layers::ctrl_direct(
                &poc,
                &lease_frame,
                &ctx.state_root.join("scratch"),
                &tracer,
                &mut rep,
            );
        }
        rep.table.merge(tracer.fold());
    } else {
        drop(client);
        w.server.stop();
    }
    Ok(rep)
}
