//! The traced run: one span around each call into a layer's public
//! functions, made from outside the program, plus the counters the
//! program already publishes (`timing`, `PipelineStats`, split stats,
//! link traffic). Spans are kept in memory and written as Chrome
//! trace-event JSON (opens in Perfetto); a per-layer self-time table goes
//! to standard error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use tiledec_bitstream::StartCodeIndex;
use tiledec_cluster::CostModel;
use tiledec_core::splitter::{split_picture_units, MacroblockSplitter};
use tiledec_core::tile_decoder::{BlockData, DisplayTile};
use tiledec_core::{PipelineStats, SimulatedSystem, SystemConfig, TileDecoder};
use tiledec_mpeg2::{kernels, repair_stream, timing, Frame};
use tiledec_wall::Wall;

use crate::backends::{Backend, Bank, Check, Ops};
use crate::corpus::Workload;
use crate::stats::median;
use crate::{fps, of, Metric, Samples};

/// Where trace files go, relative to the repository root.
const TRACE_DIR: &str = "target/perfbench-trace";

/// One timed call.
struct Span {
    layer: &'static str,
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    picture: Option<u32>,
    /// Extra JSON members for the trace event's `args`.
    args: String,
}

/// In-memory span recorder (single thread: every traced call is made
/// from the benchmark's own thread).
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, layer: &'static str, name: &'static str, picture: Option<u32>) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            picture,
            args: String::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length.
    fn end(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        debug_assert_eq!(self.open.last(), Some(&id));
        self.open.pop();
        let s = &mut self.spans[id];
        s.end_s = now;
        now - s.start_s
    }

    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ", \"parent\": {p}");
            }
            if let Some(p) = s.picture {
                let _ = write!(out, ", \"picture\": {p}");
            }
            out.push_str(&s.args);
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-layer totals over the traced rounds.
#[derive(Default)]
struct Acc {
    rounds: u64,
    frames: u64,
    pictures: u64,
    scan_s: f64,
    stages: [f64; 3],
    check_s: f64,
    seq_traced_s: Vec<f64>,
    pipe_traced_s: Vec<f64>,
    repair_s: Vec<f64>,
    slices_lost: u64,
    mbs_concealed: u64,
    pipe: Vec<PipelineStats>,
    decodes: u64,
    fallback_decodes: u64,
    vld_reported: u64,
    kernels: [Vec<f64>; 4],
    split_root_s: f64,
    split_s: f64,
    subpicture_bytes: f64,
    overhead_bytes: f64,
    mei_instructions: f64,
    tile_max_s: f64,
    tile_sum_s: f64,
    tiles: usize,
    serve_s: f64,
    apply_s: f64,
    mei_bytes: f64,
    assemble_s: f64,
    replay_critical_s: f64,
    demux_s: f64,
    gm_bytes: f64,
    gm_max_link: Vec<f64>,
}

/// Runs the traced phase for `seconds` and returns the per-layer
/// metrics. `untraced` is the untraced phase that preceded it.
pub fn run(
    bank: &mut Bank,
    w: Workload,
    seed: u64,
    seconds: f64,
    untraced: &Samples,
    ops: &mut Ops,
) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    let phase = Instant::now();
    while acc.rounds < 2 || phase.elapsed().as_secs_f64() < seconds {
        traced_round(bank, &mut tr, &mut acc, ops)?;
        acc.rounds += 1;
    }
    // The model check runs once: it profiles every picture itself.
    let layers_stream = bank.repaired.as_deref().unwrap_or(&bank.stream);
    let sim_cfg = SystemConfig::new(bank.wall_cfg.k, bank.wall_cfg.grid);
    let s = tr.begin("core::simulated", "SimulatedSystem::run", None);
    let sim = SimulatedSystem::new(sim_cfg, CostModel::myrinet_2002())
        .run(layers_stream)
        .map_err(|e| format!("simulated run: {e}"))?;
    tr.end(s);
    let phase_s = phase.elapsed().as_secs_f64();

    let path = format!("{TRACE_DIR}/{}-seed{seed}.json", w.name());
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "[perfbench] trace: {} spans in {path} (Chrome trace-event JSON)",
        tr.spans.len()
    );
    self_time_table(&tr, &acc, phase_s);

    let r = acc.rounds as f64;
    let f = acc.frames as f64;
    let pics = acc.pictures as f64;
    let ms_per_frame = |s: f64| s * 1e3 / f;
    let ms_per_pic = |s: f64| s * 1e3 / pics;
    let untraced_seq = median(&secs(of(untraced, Backend::Seq)));
    let untraced_pipe = median(&secs(of(untraced, bank.latency_backend())));
    let wall_fps = fps(of(untraced, Backend::Wall));
    let stage_sum: f64 = acc.stages.iter().sum();
    let pipe_sum = |get: fn(&PipelineStats) -> f64| acc.pipe.iter().map(get).sum::<f64>();
    let pipe_med =
        |get: fn(&PipelineStats) -> f64| median(&acc.pipe.iter().map(get).collect::<Vec<_>>());
    let frames_per_decode = f / r;
    let repair_ms = median(&acc.repair_s) * 1e3;

    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));
    put(
        "bitstream.scan_ms_per_frame",
        ms_per_frame(acc.scan_s),
        "ms",
    );
    put("mpeg2.scan_ms_per_frame", ms_per_frame(acc.stages[0]), "ms");
    put("mpeg2.vld_ms_per_frame", ms_per_frame(acc.stages[1]), "ms");
    put(
        "mpeg2.pixel_ms_per_frame",
        ms_per_frame(acc.stages[2]),
        "ms",
    );
    put("mpeg2.vld_share", acc.stages[1] / stage_sum, "ratio");
    put(
        "mpeg2.unattributed_share",
        1.0 - stage_sum / r / untraced_seq,
        "ratio",
    );
    for (i, (name, unit)) in [
        ("kernels.idct_ns", "ns"),
        ("kernels.mc_avg_hv16_ns", "ns"),
        ("kernels.add_residual_ns", "ns"),
        ("kernels.copy_band_gbps", "GB/s"),
    ]
    .into_iter()
    .enumerate()
    {
        put(name, median(&acc.kernels[i]), unit);
    }
    let busy = |v: &Vec<u64>| v.iter().sum::<u64>() as f64 * 1e-9;
    put(
        "pipe.vld_busy_ms_per_frame",
        ms_per_frame(acc.pipe.iter().map(|s| busy(&s.vld_busy_ns)).sum()) * r
            / acc.pipe.len() as f64,
        "ms",
    );
    put(
        "pipe.recon_busy_ms_per_frame",
        ms_per_frame(acc.pipe.iter().map(|s| busy(&s.recon_busy_ns)).sum()) * r
            / acc.pipe.len() as f64,
        "ms",
    );
    put(
        "pipe.assemble_ms_per_frame",
        ms_per_frame(pipe_sum(|s| s.assemble_ns as f64 * 1e-9)) * r / acc.pipe.len() as f64,
        "ms",
    );
    put(
        "pipe.vld_stage_ms",
        pipe_med(|s| s.vld_stage_ns as f64 * 1e-6),
        "ms",
    );
    put(
        "pipe.recon_stage_ms",
        pipe_med(|s| s.recon_stage_ns as f64 * 1e-6),
        "ms",
    );
    put(
        "pipe.bands_per_picture",
        pipe_sum(|s| s.bands as f64) / pipe_sum(|s| s.pictures as f64),
        "count",
    );
    put(
        "pipe.single_band_pictures",
        pipe_sum(|s| s.single_band_pictures as f64) / acc.pipe.len() as f64,
        "count",
    );
    put("pipe.recon_imbalance", pipe_med(|s| s.imbalance()), "ratio");
    put(
        "pipe.fallback_decodes",
        acc.fallback_decodes as f64,
        "count",
    );
    put("pipe.decodes", acc.decodes as f64, "count");
    put(
        "pipe.model_fps",
        frames_per_decode / pipe_med(|s| s.model_critical_ns as f64 * 1e-9),
        "frames/s",
    );
    put("vld.reported_decodes", acc.vld_reported as f64, "count");
    put(
        "split.root_ms_per_picture",
        ms_per_pic(acc.split_root_s),
        "ms",
    );
    put("split.ms_per_picture", ms_per_pic(acc.split_s), "ms");
    put(
        "split.subpicture_bytes_per_picture",
        acc.subpicture_bytes / pics,
        "bytes",
    );
    put(
        "split.overhead_bytes_per_picture",
        acc.overhead_bytes / pics,
        "bytes",
    );
    put(
        "split.mei_instructions_per_picture",
        acc.mei_instructions / pics,
        "count",
    );
    put(
        "tile.decode_ms_max_per_picture",
        ms_per_pic(acc.tile_max_s),
        "ms",
    );
    put(
        "tile.decode_ms_mean_per_picture",
        ms_per_pic(acc.tile_sum_s / acc.tiles as f64),
        "ms",
    );
    put(
        "tile.imbalance",
        acc.tile_max_s / (acc.tile_sum_s / acc.tiles as f64),
        "ratio",
    );
    put(
        "tile.mei_serve_ms_per_picture",
        ms_per_pic(acc.serve_s),
        "ms",
    );
    put(
        "tile.mei_apply_ms_per_picture",
        ms_per_pic(acc.apply_s),
        "ms",
    );
    put("tile.mei_bytes_per_picture", acc.mei_bytes / pics, "bytes");
    put("gm.bytes_per_frame", acc.gm_bytes / f, "bytes");
    put(
        "gm.max_link_bytes_per_frame",
        median(&acc.gm_max_link) / frames_per_decode,
        "bytes",
    );
    put("ps.demux_ms_per_frame", ms_per_frame(acc.demux_s), "ms");
    put(
        "wall.assemble_ms_per_frame",
        ms_per_frame(acc.assemble_s),
        "ms",
    );
    let critical_ms = ms_per_frame(acc.replay_critical_s);
    put("wall.replay_critical_ms_per_frame", critical_ms, "ms");
    put(
        "wall.messaging_sched_ms_per_frame",
        1e3 / wall_fps - critical_ms,
        "ms",
    );
    put("sim.model_fps", sim.report.fps, "frames/s");
    put(
        "sim.measured_over_model",
        wall_fps / sim.report.fps,
        "ratio",
    );
    put("resilient.repair_ms", repair_ms, "ms");
    put(
        "resilient.repair_share",
        repair_ms / (untraced_seq * 1e3),
        "ratio",
    );
    put("resilient.slices_lost", acc.slices_lost as f64 / r, "count");
    put(
        "resilient.mbs_concealed",
        acc.mbs_concealed as f64 / r,
        "count",
    );
    put(
        "trace.seq_overhead_share",
        median(&acc.seq_traced_s) / untraced_seq - 1.0,
        "ratio",
    );
    put(
        "trace.pipe_overhead_share",
        median(&acc.pipe_traced_s) / untraced_pipe - 1.0,
        "ratio",
    );
    eprintln!(
        "[perfbench] vld.* busy/stage fields: unreported (PipelineDecoder(2,0) stats \
         report zeros with sequential_fallback; counted in pipe.fallback_decodes)"
    );
    Ok(m)
}

fn secs(s: &[crate::backends::Sample]) -> Vec<f64> {
    s.iter().map(|x| x.wall_s).collect()
}

/// One traced pass over every layer.
fn traced_round(
    bank: &mut Bank,
    tr: &mut Tracer,
    acc: &mut Acc,
    ops: &mut Ops,
) -> Result<(), String> {
    let frames = bank.reference.len() as u64;
    acc.frames += frames;

    // bitstream: the start-code index every parallel path builds first.
    let s = tr.begin("bitstream", "StartCodeIndex::build", None);
    black_box(StartCodeIndex::build(black_box(&bank.stream)));
    acc.scan_s += tr.end(s);

    // mpeg2: the sequential decode with the stage hooks on.
    let s = tr.begin("mpeg2", "Decoder::decode_stream", None);
    timing::enable();
    let sample = bank.run(Backend::Seq, ops);
    let st = timing::disable_and_take();
    tr.end(s);
    let _ = write!(
        tr.spans[s].args,
        ", \"scan_ms\": {}, \"vld_ms\": {}, \"pixel_ms\": {}",
        st.scan_ns as f64 * 1e-6,
        st.vld_ns as f64 * 1e-6,
        st.pixel_ns as f64 * 1e-6
    );
    // `on_frame` runs inside a start-code handler, which the decoder
    // charges to vld; the frame check made there is the benchmark's.
    acc.stages[0] += st.scan_ns as f64 * 1e-9;
    acc.stages[1] += st.vld_ns as f64 * 1e-9 - sample.sink_s;
    acc.check_s += sample.sink_s;
    acc.stages[2] += st.pixel_ns as f64 * 1e-9;
    acc.seq_traced_s.push(sample.wall_s);

    // mpeg2::resilient: repair on the workload's stream (a rescan that
    // finds nothing on clean streams).
    let s = tr.begin("mpeg2::resilient", "repair_stream", None);
    let repaired = repair_stream(&bank.stream).map_err(|e| format!("repair_stream: {e}"))?;
    acc.repair_s.push(tr.end(s));
    acc.slices_lost += repaired
        .damage
        .reports
        .iter()
        .map(|r| r.slices_lost as u64)
        .sum::<u64>();
    acc.mbs_concealed += repaired
        .damage
        .reports
        .iter()
        .map(|r| r.mbs_concealed as u64)
        .sum::<u64>();

    // core::recon_parallel / vld_parallel.
    let pipe_backend = bank.latency_backend();
    let s = tr.begin("core::recon_parallel", "PipelineDecoder(2,2)", None);
    let sample = bank.run(pipe_backend, ops);
    tr.end(s);
    acc.pipe_traced_s.push(sample.wall_s);
    let st = bank.pipe.stats().clone();
    let _ = write!(
        tr.spans[s].args,
        ", \"bands\": {}, \"vld_stage_ms\": {}, \"recon_stage_ms\": {}, \
         \"sequential_fallback\": {}",
        st.bands,
        st.vld_stage_ns as f64 * 1e-6,
        st.recon_stage_ns as f64 * 1e-6,
        st.sequential_fallback
    );
    acc.decodes += 1;
    acc.fallback_decodes += st.sequential_fallback as u64;
    if !st.sequential_fallback {
        acc.pipe.push(st);
    }
    let s = tr.begin("core::vld_parallel", "PipelineDecoder(2,0)", None);
    bank.run(Backend::Vld, ops);
    tr.end(s);
    let fallback = bank.vld.stats().sequential_fallback;
    acc.decodes += 1;
    acc.fallback_decodes += fallback as u64;
    acc.vld_reported += !fallback as u64;

    // core::splitter, tile_decoder, mei and wall: the single-threaded
    // splitter + tile-decoder bank replay of the wall.
    let layers_stream = bank.repaired.as_deref().unwrap_or(&bank.stream);
    replay_wall(tr, acc, layers_stream, &bank.wall_cfg, &bank.reference, ops)?;

    // ps + core::threaded + cluster::gm: the real wall, demux included.
    let s = tr.begin("ps", "demux_video", None);
    let es = tiledec_ps::demux_video(&bank.ps).map_err(|e| format!("demux: {e}"))?;
    acc.demux_s += tr.end(s);
    let s = tr.begin("core::threaded", "ThreadedSystem::play", None);
    let played = bank
        .wall
        .play(&es.video_es)
        .map_err(|e| format!("play: {e}"));
    tr.end(s);
    let mut check = Check::new(&bank.reference);
    if let Ok(out) = &played {
        out.frames.iter().for_each(|f| check.frame(f));
        let links: Vec<u64> = out.traffic.iter().flatten().copied().collect();
        acc.gm_bytes += links.iter().sum::<u64>() as f64;
        acc.gm_max_link
            .push(links.iter().copied().max().unwrap_or(0) as f64);
    }
    ops.add(check.finish(played.is_ok()));

    // mpeg2::kernels on workload-shaped blocks.
    let k = kernels_round(tr, bank.entry.width, bank.entry.height);
    for (v, x) in acc.kernels.iter_mut().zip(k) {
        v.push(x);
    }
    Ok(())
}

/// Replays the wall on one thread — root split, macroblock split, MEI
/// serve and apply, tile decode, wall assembly — timing every call, and
/// checks the assembled frames.
fn replay_wall(
    tr: &mut Tracer,
    acc: &mut Acc,
    stream: &[u8],
    cfg: &SystemConfig,
    reference: &[u64],
    ops: &mut Ops,
) -> Result<(), String> {
    let mut check = Check::new(reference);
    let result = replay_inner(tr, acc, stream, cfg, &mut check);
    ops.add(check.finish(result.is_ok()));
    result
}

fn replay_inner(
    tr: &mut Tracer,
    acc: &mut Acc,
    stream: &[u8],
    cfg: &SystemConfig,
    check: &mut Check<'_>,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let s = tr.begin("core::splitter", "split_picture_units", None);
    let index = split_picture_units(stream).map_err(|e| err(&e))?;
    let root_s = tr.end(s);
    acc.split_root_s += root_s;
    acc.replay_critical_s += root_s;
    let seq = index.seq.clone();
    let geom = cfg.geometry(seq.width, seq.height).map_err(|e| err(&e))?;
    let splitter = MacroblockSplitter::new(geom, seq.clone());
    let mut decoders: Vec<TileDecoder> = geom
        .iter_tiles()
        .map(|t| TileDecoder::new(geom, t, seq.clone(), cfg.halo_margin))
        .collect();
    let mut wall = Wall::new(geom);
    let mut show = |tr: &mut Tracer, acc: &mut Acc, tiles: Vec<DisplayTile>| {
        let display = tiles.first().map(|t| t.display_index);
        if tiles.iter().any(|t| Some(t.display_index) != display) {
            return Err("tile decoders disagree on display order".to_string());
        }
        for (d, t) in tiles.into_iter().enumerate() {
            wall.set_tile(geom.tile_at(d), t.frame)
                .map_err(|e| err(&e))?;
        }
        let s = tr.begin("wall", "Wall::assemble", display);
        let frame: Frame = wall.assemble(true).map_err(|e| err(&e))?;
        let dt = tr.end(s);
        acc.assemble_s += dt;
        acc.replay_critical_s += dt;
        check.frame(&frame);
        Ok(())
    };
    for (p, &(start, end)) in index.units.iter().enumerate() {
        let pic = Some(p as u32);
        acc.pictures += 1;
        let s = tr.begin("core::splitter", "MacroblockSplitter::split", pic);
        let out = splitter
            .split(p as u32, &stream[start..end])
            .map_err(|e| err(&e))?;
        let split_s = tr.end(s);
        acc.split_s += split_s;
        acc.subpicture_bytes += out.stats.subpicture_bytes as f64;
        acc.overhead_bytes += out.stats.overhead_bytes as f64;
        acc.mei_instructions += out.stats.mei_instructions as f64;
        let kind = out.info.kind;
        let mut tile_s = vec![0.0f64; decoders.len()];
        let mut deliveries = Vec::new();
        for (d, dec) in decoders.iter().enumerate() {
            let s = tr.begin("core::mei", "TileDecoder::extract_send_blocks", pic);
            let sends = dec
                .extract_send_blocks(kind, &out.mei[d])
                .map_err(|e| err(&e))?;
            let dt = tr.end(s);
            acc.serve_s += dt;
            tile_s[d] += dt;
            for (peer, blocks) in sends {
                acc.mei_bytes += (blocks.len() * std::mem::size_of::<BlockData>()) as f64;
                deliveries.push((d, peer, blocks));
            }
        }
        for (src, peer, blocks) in deliveries {
            let s = tr.begin("core::mei", "TileDecoder::apply_recv_blocks", pic);
            decoders[peer]
                .apply_recv_blocks(kind, &out.mei[peer], src, &blocks)
                .map_err(|e| err(&e))?;
            let dt = tr.end(s);
            acc.apply_s += dt;
            tile_s[peer] += dt;
        }
        let mut shown = Vec::new();
        let (mut max_s, mut sum_s) = (0.0f64, 0.0f64);
        for (d, dec) in decoders.iter_mut().enumerate() {
            let s = tr.begin("core::tile_decoder", "TileDecoder::decode", pic);
            let displayed = dec.decode(&out.subpictures[d]).map_err(|e| err(&e))?;
            let dt = tr.end(s);
            max_s = max_s.max(dt);
            sum_s += dt;
            tile_s[d] += dt;
            shown.extend(displayed);
        }
        acc.tile_max_s += max_s;
        acc.tile_sum_s += sum_s;
        acc.tiles = decoders.len();
        acc.replay_critical_s += split_s + tile_s.iter().copied().fold(0.0, f64::max);
        if !shown.is_empty() {
            show(tr, acc, shown)?;
        }
    }
    let last: Vec<DisplayTile> = decoders.iter_mut().filter_map(|d| d.flush()).collect();
    if !last.is_empty() {
        show(tr, acc, last)?;
    }
    Ok(())
}

/// Times the active kernel set's hot entries on blocks shaped like the
/// workload (its frame stride, its plane size): ns per IDCT, per 16×16
/// half-pel average, per 8×8 residual add, and band-copy GB/s.
fn kernels_round(tr: &mut Tracer, width: usize, height: usize) -> [f64; 4] {
    let k = kernels::active();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let plane: Vec<u8> = (0..width * height).map(|_| next() as u8).collect();
    let mut dst = plane.clone();
    // Sparse coefficient blocks: a DC term plus a few low-frequency ACs.
    let blocks: Vec<[i32; 64]> = (0..64)
        .map(|i| {
            let mut b = [0i32; 64];
            b[0] = (next() % 512) as i32 - 256;
            for _ in 0..i % 6 {
                b[(next() % 20) as usize] = (next() % 64) as i32 - 32;
            }
            b
        })
        .collect();
    let positions: Vec<usize> = (0..256)
        .map(|_| {
            let x = (next() as usize % (width / 16 - 1)) * 16;
            let y = (next() as usize % (height / 16 - 1)) * 16;
            y * width + x
        })
        .collect();
    const CALLS: usize = 1 << 14;
    let mut out = [0.0; 4];

    let s = tr.begin("mpeg2::kernels", "idct", None);
    let t0 = Instant::now();
    for i in 0..CALLS {
        let mut b = blocks[i % blocks.len()];
        (k.idct)(&mut b);
        black_box(&b);
    }
    out[0] = t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    tr.end(s);

    let s = tr.begin("mpeg2::kernels", "mc_avg_hv16", None);
    let mut pred = [0u8; 256];
    let t0 = Instant::now();
    for i in 0..CALLS {
        let at = positions[i % positions.len()];
        (k.mc_avg_hv)(&plane[at..], width, &mut pred, 16);
        black_box(&pred);
    }
    out[1] = t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    tr.end(s);

    let s = tr.begin("mpeg2::kernels", "add_residual", None);
    let t0 = Instant::now();
    for i in 0..CALLS {
        let at = positions[i % positions.len()];
        (k.add_residual)(&mut dst[at..], width, &blocks[i % blocks.len()]);
    }
    black_box(&dst);
    out[2] = t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    tr.end(s);

    // One band of a two-worker split of the luma plane, spliced 8 times.
    let band = width * height / 2;
    let s = tr.begin("mpeg2::kernels", "copy_band", None);
    let t0 = Instant::now();
    for _ in 0..8 {
        (k.copy_band)(&mut dst[..band], &plane[band..2 * band]);
        black_box(&dst);
    }
    out[3] = (8 * band) as f64 / t0.elapsed().as_secs_f64() * 1e-9;
    tr.end(s);
    out
}

/// Prints self time per layer over the traced phase: each span's length
/// minus its children's; the sequential decode's span is further split
/// by the decoder's own stage counters.
fn self_time_table(tr: &Tracer, acc: &Acc, phase_s: f64) {
    let mut rows: BTreeMap<(&str, &str), (u64, f64)> = BTreeMap::new();
    let mut child_s = vec![0.0f64; tr.spans.len()];
    let mut top_s = 0.0;
    for s in &tr.spans {
        let d = s.end_s - s.start_s;
        match s.parent {
            Some(p) => child_s[p] += d,
            None => top_s += d,
        }
    }
    for (i, s) in tr.spans.iter().enumerate() {
        let row = rows.entry((s.layer, s.name)).or_default();
        row.0 += 1;
        row.1 += s.end_s - s.start_s - child_s[i];
    }
    if let Some(row) = rows.get_mut(&("mpeg2", "Decoder::decode_stream")) {
        row.1 -= acc.stages.iter().sum::<f64>() + acc.check_s;
    }
    let calls = acc.rounds;
    rows.insert(("bitstream", "scan (in Decoder)"), (calls, acc.stages[0]));
    rows.insert(("mpeg2", "vld stage (in Decoder)"), (calls, acc.stages[1]));
    rows.insert(
        ("mpeg2", "pixel stage (in Decoder)"),
        (calls, acc.stages[2]),
    );
    rows.insert(
        ("benchmark", "frame check (in on_frame)"),
        (calls, acc.check_s),
    );
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for ((layer, _), (_, s)) in &rows {
        *by_layer.entry(layer).or_default() += s;
    }
    eprintln!("[perfbench] self time over the traced phase ({phase_s:.2}s):");
    eprintln!(
        "  {:<22} {:<38} {:>6} {:>10} {:>7}",
        "layer", "call", "calls", "self ms", "share"
    );
    for ((layer, name), (n, s)) in &rows {
        eprintln!(
            "  {layer:<22} {name:<38} {n:>6} {:>10.2} {:>6.1}%",
            s * 1e3,
            s / phase_s * 100.0
        );
    }
    eprintln!("  per layer:");
    for (layer, s) in &by_layer {
        eprintln!(
            "  {layer:<22} {:>10.2} ms {:>6.1}%",
            s * 1e3,
            s / phase_s * 100.0
        );
    }
    let outside = phase_s - top_s;
    eprintln!(
        "  {:<22} {:>10.2} ms {:>6.1}%  (frame checks, loop, allocation between calls)",
        "unattributed",
        outside * 1e3,
        outside / phase_s * 100.0
    );
}
