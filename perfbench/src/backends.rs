//! The four decode back-ends, driven end to end: stream bytes in,
//! display-order frames out, every frame checked against the reference.

use std::time::Instant;

use tiledec_core::{PipelineDecoder, SystemConfig, ThreadedSystem};
use tiledec_mpeg2::{repair_stream, Decoder, ErrorPolicy, Frame};

use crate::corpus::{self, frame_digest, Workload};
use crate::procfs;

/// VLD and recon workers of the `pipe` back-end.
pub const PIPE_WORKERS: (usize, usize) = (2, 2);
/// VLD workers of the VLD-only back-end (recon 0).
pub const VLD_WORKERS: usize = 2;
/// Splitters of the `1-k-(m,n)` wall: `1-1-(2,1)`.
pub const WALL_K: usize = 1;
/// Tile grid of the wall.
pub const WALL_GRID: (u32, u32) = (2, 1);

/// A decode path under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The sequential `Decoder` (`decode_all_resilient` on `dvd_damaged`).
    Seq,
    /// `PipelineDecoder::new(2, 0)`: slice-parallel VLD only.
    Vld,
    /// `PipelineDecoder::new(2, 2)`: VLD ‖ band recon.
    Pipe,
    /// Program-stream demux + `ThreadedSystem` `1-1-(2,1)`.
    Wall,
    /// `pipe` streaming the repaired stream frame by frame (`dvd_damaged`
    /// only: the Resilient API returns whole frame vectors, so this pass
    /// is where that workload's pipe latency comes from).
    PipeStream,
}

impl Backend {
    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Seq => "seq",
            Backend::Vld => "vld",
            Backend::Pipe => "pipe",
            Backend::Wall => "wall",
            Backend::PipeStream => "pipe_stream",
        }
    }
}

/// Checks a decode's display-order frames against the reference digests.
pub struct Check<'a> {
    reference: &'a [u64],
    next: usize,
    failed: u64,
}

impl<'a> Check<'a> {
    /// A checker expecting `reference`'s frames in order.
    pub fn new(reference: &'a [u64]) -> Self {
        Check {
            reference,
            next: 0,
            failed: 0,
        }
    }

    /// Checks the next delivered frame.
    pub fn frame(&mut self, f: &Frame) {
        if self.reference.get(self.next) != Some(&frame_digest(f)) {
            self.failed += 1;
        }
        self.next += 1;
    }

    /// (attempted, failed) for a decode that returned `ok`: missing
    /// frames fail, and an errored decode fails every frame.
    pub fn finish(self, ok: bool) -> (u64, u64) {
        let attempted = self.reference.len().max(self.next) as u64;
        if !ok {
            return (attempted, attempted);
        }
        let missing = self.reference.len().saturating_sub(self.next) as u64;
        (attempted, self.failed + missing)
    }
}

/// Frames checked so far.
#[derive(Default, Clone, Copy)]
pub struct Ops {
    /// Frames expected.
    pub attempted: u64,
    /// Frames missing, wrong, or from an errored decode.
    pub failed: u64,
}

impl Ops {
    /// Adds a decode's (attempted, failed) from [`Check::finish`].
    pub fn add(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// One timed decode.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Wall-clock seconds of the call.
    pub wall_s: f64,
    /// Thread-group CPU seconds (utime + stime) spent during the call.
    pub cpu_s: f64,
    /// Display frames expected from the call.
    pub frames: u64,
    /// Seconds from the call to the first `on_frame` (streaming paths).
    pub first_frame_s: Option<f64>,
    /// Seconds between successive `on_frame` calls.
    pub gaps_s: Vec<f64>,
    /// Seconds spent checking frames inside `on_frame` (part of `wall_s`).
    pub sink_s: f64,
}

/// The back-ends of one workload, set up and ready for warm decodes.
pub struct Bank {
    /// The stream every back-end decodes.
    pub stream: Vec<u8>,
    /// The stream as a program stream (input of the wall back-end).
    pub ps: Vec<u8>,
    /// `dvd_damaged`: the repaired stream (what the Resilient back-ends
    /// finally decode, and what the streaming and replay passes play).
    pub repaired: Option<Vec<u8>>,
    /// Reference frame digests.
    pub reference: Vec<u64>,
    /// The loaded corpus entry's metadata.
    pub entry: corpus::Entry,
    /// Whether the Resilient API drives the back-ends.
    pub damaged: bool,
    /// The wall configuration.
    pub wall_cfg: SystemConfig,
    /// The `seq` back-end's decoder, reused across decodes.
    pub seq: Decoder,
    /// The `vld` back-end's decoder.
    pub vld: PipelineDecoder,
    /// The `pipe` back-end's decoder.
    pub pipe: PipelineDecoder,
    /// The `wall` back-end.
    pub wall: ThreadedSystem,
}

impl Bank {
    /// Loads the cached stream, builds every back-end and runs each one's
    /// first (cold) decode — the work `setup_s` times.
    pub fn setup(w: Workload, seed: u64, ops: &mut Ops) -> Result<Bank, String> {
        let mut entry = corpus::load(&corpus::entry_dir(w, seed)?)?;
        let stream = std::mem::take(&mut entry.stream);
        let reference = std::mem::take(&mut entry.reference);
        let damaged = w.damaged();
        let repaired = if damaged {
            let r = repair_stream(&stream).map_err(|e| format!("repair_stream: {e}"))?;
            if !r.patches.is_empty() {
                return Err("the repaired stream carries display patches, which the \
                            streaming passes do not apply"
                    .into());
            }
            Some(r.bytes)
        } else {
            None
        };
        let ps = mux(&stream)?;
        let mut wall_cfg = SystemConfig::new(WALL_K, WALL_GRID);
        if damaged {
            wall_cfg = wall_cfg.with_policy(ErrorPolicy::Resilient);
        }
        let mut bank = Bank {
            stream,
            ps,
            repaired,
            reference,
            entry,
            damaged,
            wall: ThreadedSystem::new(wall_cfg),
            wall_cfg,
            seq: Decoder::new(),
            vld: PipelineDecoder::new(VLD_WORKERS, 0),
            pipe: PipelineDecoder::new(PIPE_WORKERS.0, PIPE_WORKERS.1),
        };
        for b in bank.backends() {
            bank.run(b, ops);
        }
        Ok(bank)
    }

    /// The back-ends this workload interleaves.
    pub fn backends(&self) -> Vec<Backend> {
        let mut v = vec![Backend::Seq, Backend::Vld, Backend::Pipe, Backend::Wall];
        if self.damaged {
            v.push(Backend::PipeStream);
        }
        v
    }

    /// The back-end whose frame callbacks give the pipe latency metrics.
    pub fn latency_backend(&self) -> Backend {
        if self.damaged {
            Backend::PipeStream
        } else {
            Backend::Pipe
        }
    }

    /// Runs one decode on `b`, timing it and checking its frames.
    /// Streaming paths digest each frame inside `on_frame`, as a display
    /// sink would copy it out; paths that return a frame vector (the
    /// wall and the Resilient API, which clone every frame into it) are
    /// checked after the clock stops.
    pub fn run(&mut self, b: Backend, ops: &mut Ops) -> Sample {
        let frames = self.reference.len() as u64;
        let mut check = Check::new(&self.reference);
        let mut stamps: Vec<Instant> = Vec::with_capacity(frames as usize);
        let cpu0 = procfs::cpu_seconds();
        let t0 = Instant::now();
        let mut sink_s = 0.0;
        let mut sink = |f: &Frame| {
            let t = Instant::now();
            stamps.push(t);
            check.frame(f);
            sink_s += t.elapsed().as_secs_f64();
        };
        let out: Result<Option<Vec<Frame>>, ()> = match (b, self.damaged) {
            (Backend::Seq, false) => streamed(self.seq.decode_stream(&self.stream, |f, _| sink(f))),
            (Backend::Vld, false) => streamed(self.vld.decode_stream(&self.stream, |f, _| sink(f))),
            (Backend::Pipe, false) => {
                streamed(self.pipe.decode_stream(&self.stream, |f, _| sink(f)))
            }
            (Backend::PipeStream, _) => {
                let data = self.repaired.as_deref().unwrap_or(&self.stream);
                streamed(self.pipe.decode_stream(data, |f, _| sink(f)))
            }
            (Backend::Seq, true) => tiledec_mpeg2::decode_all_resilient(&self.stream)
                .map(|(f, _)| Some(f))
                .map_err(drop),
            (Backend::Vld, true) => self
                .vld
                .decode_all_resilient(&self.stream)
                .map(|(f, _)| Some(f))
                .map_err(drop),
            (Backend::Pipe, true) => self
                .pipe
                .decode_all_resilient(&self.stream)
                .map(|(f, _)| Some(f))
                .map_err(drop),
            (Backend::Wall, _) => tiledec_ps::demux_video(&self.ps)
                .map_err(drop)
                .and_then(|d| self.wall.play(&d.video_es).map_err(drop))
                .map(|out| Some(out.frames)),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds() - cpu0;
        if let Ok(Some(frames)) = &out {
            frames.iter().for_each(|f| check.frame(f));
        }
        ops.add(check.finish(out.is_ok()));
        let first_frame_s = stamps.first().map(|t| (*t - t0).as_secs_f64());
        let gaps_s = stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        Sample {
            wall_s,
            cpu_s,
            frames,
            first_frame_s,
            gaps_s,
            sink_s,
        }
    }
}

/// A streaming decode's outcome: its frames were checked in flight.
fn streamed<T, E>(r: Result<T, E>) -> Result<Option<Vec<Frame>>, ()> {
    r.map(|_| None).map_err(drop)
}

/// Wraps an elementary stream in a program stream, one PES per picture
/// unit.
fn mux(es: &[u8]) -> Result<Vec<u8>, String> {
    let units: Vec<(usize, usize)> = match tiledec_core::split_picture_units(es) {
        Ok(index) => index.units,
        // A damaged stream may not index cleanly; one unit carries it all.
        Err(_) => vec![(0, es.len())],
    };
    let units: Vec<(usize, usize, u64)> = units
        .iter()
        .enumerate()
        .map(|(i, &(s, e))| (s, e, i as u64))
        .collect();
    let ps = tiledec_ps::mux_video(es, &units, &tiledec_ps::MuxConfig::default());
    let back = tiledec_ps::demux_video(&ps).map_err(|e| format!("demux: {e}"))?;
    if back.video_es != es {
        return Err("program stream does not demux to the elementary stream".into());
    }
    Ok(ps)
}
