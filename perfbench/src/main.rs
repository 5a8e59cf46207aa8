//! The repository benchmark: every decode back-end end to end on
//! paper-scale streams, plus a separate traced run that attributes time
//! to each layer. See `perfbench/README.md`.
//!
//! Usage (from the repository root):
//!   cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!       --workload <dvd_spr|hd_nbc|wall_orion|dvd_damaged> \
//!       --seed <n> --seconds <s> --trace <0|1>
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Progress and tables go to standard error.

mod backends;
mod corpus;
mod procfs;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use backends::{Backend, Bank, Ops, Sample};
use corpus::Workload;

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Interleaved rounds a timed phase runs at least, however short.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <dvd_spr|hd_nbc|wall_orion|dvd_damaged> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: generate the corpus entry and exit (child process).
    generate: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::DvdSpr,
            seed: 0,
            seconds: 10.0,
            trace: false,
            generate: false,
        };
        let mut workload = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" | "--generate" => {
                    let v = value()?;
                    args.generate = flag == "--generate";
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => args.trace = value()? == "1",
                other => return Err(format!("unknown argument {other}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.generate {
        if let Err(e) = corpus::generate(args.workload, args.seed) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    eprintln!(
        "[perfbench] {} seed {} ({}s, trace {}), kernels {}, {} CPUs; \
         pipe {:?}, vld ({}, 0), wall {}-{}-{:?}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        tiledec_mpeg2::kernels::active().name,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        backends::PIPE_WORKERS,
        backends::VLD_WORKERS,
        1,
        backends::WALL_K,
        backends::WALL_GRID,
    );
    corpus::warm_up()?;
    match corpus::ensure(w, args.seed)? {
        Some(s) => eprintln!("[perfbench] corpus entry generated in {s:.1}s (not in setup_s)"),
        None => eprintln!("[perfbench] corpus entry cached"),
    }

    let mut ops = Ops::default();
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut bank = None;
    for _ in 0..SETUP_REPS {
        // The previous rep's back-ends go first, so peak RSS holds one set.
        drop(bank.take());
        let (cpu0, t0) = (procfs::cpu_seconds(), Instant::now());
        bank = Some(Bank::setup(w, args.seed, &mut ops)?);
        setup_wall.push(t0.elapsed().as_secs_f64());
        setup_cpu.push(procfs::cpu_seconds() - cpu0);
    }
    let mut bank = bank.ok_or("no setup ran")?;
    eprintln!(
        "[perfbench] {}x{}, {} frames, {} stream bytes, corpus generation took {:.1}s; \
         setups took {setup_wall:?} s wall, {setup_cpu:?} s CPU",
        bank.entry.width,
        bank.entry.height,
        bank.reference.len(),
        bank.stream.len(),
        bank.entry.gen_s,
    );

    let metrics = if args.trace {
        let untraced = timed_loop(&mut bank, args.seconds / 2.0, &mut ops);
        let mut m = wall_clock(&bank, stats::median(&setup_wall), &untraced);
        m.extend(trace::run(
            &mut bank,
            w,
            args.seed,
            args.seconds / 2.0,
            &untraced,
            &mut ops,
        )?);
        m
    } else {
        let samples = timed_loop(&mut bank, args.seconds, &mut ops);
        eprintln!("[perfbench] wall clock (per-layer metrics, not in this result):");
        for (name, value, unit) in wall_clock(&bank, stats::median(&setup_wall), &samples) {
            eprintln!("  {name:<36} {value:>14.4} {unit}");
        }
        end_to_end(stats::median(&setup_cpu), &samples)
    };
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }

    let damage_ok = !w.damaged() || (!bank.entry.clean && bank.entry.slices_lost > 0);
    if !damage_ok {
        eprintln!("[perfbench] INVALID: the damaged stream decodes clean");
    }
    eprintln!(
        "[perfbench] frames checked: {} attempted, {} failed",
        ops.attempted, ops.failed
    );
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0 && damage_ok,
        ops.attempted,
        ops.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Per-back-end samples of one timed phase.
pub type Samples = Vec<(Backend, Vec<Sample>)>;

/// Closed loop: one decode at a time, back-ends interleaved round-robin
/// in a fixed order (so each one always follows the same predecessor and
/// inherits the same allocator and cache state), until `seconds` have
/// passed and at least [`MIN_ROUNDS`] rounds ran.
pub fn timed_loop(bank: &mut Bank, seconds: f64, ops: &mut Ops) -> Samples {
    let order = bank.backends();
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); order.len()];
    let steal0 = procfs::host_steal();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for (b, s) in order.iter().zip(samples.iter_mut()) {
            s.push(bank.run(*b, ops));
        }
        round += 1;
    }
    let (stolen, total) = procfs::host_steal();
    eprintln!(
        "[perfbench] {round} interleaved rounds in {:.1}s; the hypervisor stole {:.1}% \
         of this VM's CPU time meanwhile",
        start.elapsed().as_secs_f64(),
        (stolen - steal0.0) / (total - steal0.1).max(1.0) * 100.0
    );
    order.into_iter().zip(samples).collect()
}

/// The samples of one back-end.
pub fn of(samples: &Samples, b: Backend) -> &[Sample] {
    samples
        .iter()
        .find(|(x, _)| *x == b)
        .map_or(&[], |(_, s)| s.as_slice())
}

/// Median display-order frames per second.
pub fn fps(samples: &[Sample]) -> f64 {
    let v: Vec<f64> = samples.iter().map(|s| s.frames as f64 / s.wall_s).collect();
    stats::median(&v)
}

/// Wall-clock metrics: set-up time, display frames per second of each
/// back-end, and the pipe's frame-delivery latency. On a shared 2-vCPU
/// host the hypervisor steals 0–35% of the VM's CPU time in phases of
/// minutes, and these move with it by up to a third between runs, so
/// they are per-layer metrics (printed on every run, reported by the
/// traced run) rather than end-to-end ones with a bound.
pub fn wall_clock(bank: &Bank, setup_wall_s: f64, samples: &Samples) -> Vec<Metric> {
    let mut m: Vec<Metric> = vec![("setup_wall_s".into(), setup_wall_s, "s")];
    for b in [Backend::Seq, Backend::Vld, Backend::Pipe, Backend::Wall] {
        let s = of(samples, b);
        let each: Vec<String> = s
            .iter()
            .map(|x| format!("{:.1}", x.frames as f64 / x.wall_s))
            .collect();
        eprintln!(
            "[perfbench] {} fps per decode: {}",
            b.name(),
            each.join(" ")
        );
        m.push((format!("{}_fps", b.name()), fps(s), "frames/s"));
    }
    let lat = of(samples, bank.latency_backend());
    let first: Vec<f64> = lat.iter().filter_map(|s| s.first_frame_s).collect();
    let gaps: Vec<f64> = lat.iter().flat_map(|s| s.gaps_s.iter().copied()).collect();
    let (p, tail, beyond) = stats::tail(&gaps);
    eprintln!(
        "[perfbench] pipe_gap_tail_ms is p{p} of {} gaps ({beyond} beyond it)",
        gaps.len()
    );
    m.push((
        "pipe_first_frame_ms".into(),
        stats::median(&first) * 1e3,
        "ms",
    ));
    m.push(("pipe_gap_p50_ms".into(), stats::median(&gaps) * 1e3, "ms"));
    m.push(("pipe_gap_tail_ms".into(), tail * 1e3, "ms"));
    m
}

/// The end-to-end metrics: CPU time of set-up and per display frame of
/// each back-end, and peak memory. Thread-group CPU time excludes the
/// time the hypervisor steals, so these repeat where wall-clock rates
/// do not.
fn end_to_end(setup_cpu_s: f64, samples: &Samples) -> Vec<Metric> {
    let mut m: Vec<Metric> = vec![("setup_s".into(), setup_cpu_s, "s")];
    for b in [Backend::Seq, Backend::Vld, Backend::Pipe, Backend::Wall] {
        let s = of(samples, b);
        let cpu: f64 = s.iter().map(|x| x.cpu_s).sum();
        let frames: u64 = s.iter().map(|x| x.frames).sum();
        let tick_share = 1.0 / procfs::TICKS_PER_S / cpu;
        eprintln!(
            "[perfbench] {} CPU: {cpu:.2}s over {} decodes; one 10 ms tick is {:.2}% of it{}",
            b.name(),
            s.len(),
            tick_share * 100.0,
            if tick_share > 0.01 {
                " (over 1%: run longer)"
            } else {
                ""
            }
        );
        m.push((
            format!("{}_cpu_ms_per_frame", b.name()),
            cpu * 1e3 / frames as f64,
            "ms",
        ));
    }
    m.push(("peak_rss_mb".into(), procfs::peak_rss_mb(), "MiB"));
    m
}
