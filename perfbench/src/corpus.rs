//! Workload streams and their reference digests.
//!
//! Each workload's stream is rendered and encoded once with the in-repo
//! encoder and cached under `target/perfbench-corpus/`, keyed by preset,
//! frame count, scene variant and a hash of the encoder and workload
//! sources. Next to the stream the cache keeps its digest (checked on
//! every load) and the per-frame digests of a scalar-kernel sequential
//! decode, which every timed and traced frame is checked against.
//! Generation runs in a child process, so the encoder's memory never
//! shows in the measuring process's peak RSS.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use tiledec_bitstream::{Fault, FaultPlan, FaultRng};
use tiledec_mpeg2::{kernels, Frame};
use tiledec_workload::StreamPreset;

/// Scene variants a seed selects between. Encoding is the expensive part
/// of generation (about 25 s for `nbc` and 70 s for `orion4` on a 2-CPU
/// Xeon), so the scene seed takes one of a few values while the fault
/// plan of `dvd_damaged` takes the whole seed.
const SCENE_VARIANTS: u64 = 2;

/// Where the cache lives, relative to the repository root.
const CACHE_DIR: &str = "target/perfbench-corpus";

/// Sources whose change invalidates every cached stream.
const SOURCE_DIRS: [&str; 2] = ["crates/mpeg2/src/encoder", "crates/workload/src"];
const SOURCE_FILES: [&str; 1] = ["perfbench/src/corpus.rs"];

/// Equal strata of the damaged stream, each holding one fault. The first
/// holds an erasure, so the first error always falls early and the cost
/// of the failed strict pass barely moves with the seed.
const FAULT_STRATA: usize = 16;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 4 #1 `spr`, 720×480 at ~1.1 bpp, 2 GOPs.
    DvdSpr,
    /// Table 4 #10 `nbc`, 1920×1088, 2 GOPs.
    HdNbc,
    /// Table 4 #16 `orion4`, 3840×2800 localized detail, 1 GOP.
    WallOrion,
    /// The `dvd_spr` stream with a seeded fault plan, decoded Resilient.
    DvdDamaged,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 4] = [
        Workload::DvdSpr,
        Workload::HdNbc,
        Workload::WallOrion,
        Workload::DvdDamaged,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DvdSpr => "dvd_spr",
            Workload::HdNbc => "hd_nbc",
            Workload::WallOrion => "wall_orion",
            Workload::DvdDamaged => "dvd_damaged",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workload decoded under `ErrorPolicy::Resilient`.
    pub fn damaged(self) -> bool {
        self == Workload::DvdDamaged
    }

    /// Table 4 preset number and frame count of the clean source stream.
    fn source(self) -> (u32, usize) {
        match self {
            Workload::DvdSpr | Workload::DvdDamaged => (1, 24),
            Workload::HdNbc => (10, 24),
            Workload::WallOrion => (16, 12),
        }
    }

    /// The clean workload whose stream this one starts from.
    fn clean_source(self) -> Workload {
        match self {
            Workload::DvdDamaged => Workload::DvdSpr,
            w => w,
        }
    }
}

/// A loaded corpus entry.
pub struct Entry {
    /// The elementary stream every back-end decodes.
    pub stream: Vec<u8>,
    /// Digest of each display-order frame of the reference decode.
    pub reference: Vec<u64>,
    /// Luma size.
    pub width: usize,
    /// Luma height.
    pub height: usize,
    /// Seconds it took to generate the entry (information only).
    pub gen_s: f64,
    /// Slices the reference decode lost (0 for clean streams).
    pub slices_lost: u64,
    /// True when the reference decode needed no repair.
    pub clean: bool,
}

/// The cache directory of one workload at one seed.
pub fn entry_dir(w: Workload, seed: u64) -> Result<PathBuf, String> {
    let (preset, frames) = w.source();
    let name = StreamPreset::by_number(preset).map_or("?", |p| p.name);
    let mut key = format!(
        "{name}-{frames}f-v{}-{:016x}",
        seed % SCENE_VARIANTS,
        source_hash()?
    );
    if w.damaged() {
        let _ = write!(key, "-fault{seed}");
    }
    Ok(Path::new(CACHE_DIR).join(key))
}

/// On a checkout's first run (no cache directory yet) generates every
/// clean stream at every scene variant, so that no later run has to fit
/// a minute of `orion4` encoding into its own time limit.
pub fn warm_up() -> Result<(), String> {
    if Path::new(CACHE_DIR).exists() {
        return Ok(());
    }
    for w in [Workload::DvdSpr, Workload::HdNbc, Workload::WallOrion] {
        for variant in 0..SCENE_VARIANTS {
            generate_in_child(w, variant)?;
        }
    }
    Ok(())
}

/// Makes sure the entry exists and verifies, generating it when it does
/// not. Returns the generation time when this call generated it.
pub fn ensure(w: Workload, seed: u64) -> Result<Option<f64>, String> {
    let dir = entry_dir(w, seed)?;
    if load(&dir).is_ok() {
        return Ok(None);
    }
    let t0 = Instant::now();
    generate_in_child(w, seed)?;
    load(&dir)?;
    Ok(Some(t0.elapsed().as_secs_f64()))
}

/// Runs [`generate`] in a child process and waits for it, so the
/// encoder's memory stays out of this process's peak RSS.
fn generate_in_child(w: Workload, seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--generate", w.name(), "--seed", &seed.to_string()])
        .status()
        .map_err(|e| format!("spawn corpus generator: {e}"))?;
    if !status.success() {
        return Err(format!(
            "corpus generation for {} failed: {status}",
            w.name()
        ));
    }
    Ok(())
}

/// Loads an entry and checks the stream against its stored digest.
pub fn load(dir: &Path) -> Result<Entry, String> {
    let manifest = std::fs::read_to_string(dir.join("manifest.txt"))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let stream = std::fs::read(dir.join("stream.m2v")).map_err(|e| format!("{e}"))?;
    let mut entry = Entry {
        stream,
        reference: Vec::new(),
        width: 0,
        height: 0,
        gen_s: 0.0,
        slices_lost: 0,
        clean: true,
    };
    let mut digest = None;
    for line in manifest.lines() {
        let (key, value) = line.split_once(' ').ok_or("malformed manifest line")?;
        let num = || value.parse::<u64>().map_err(|e| format!("{key}: {e}"));
        match key {
            "stream" => digest = Some(value.to_string()),
            "width" => entry.width = num()? as usize,
            "height" => entry.height = num()? as usize,
            "gen_s" => entry.gen_s = value.parse().map_err(|e| format!("gen_s: {e}"))?,
            "slices_lost" => entry.slices_lost = num()?,
            "clean" => entry.clean = value == "1",
            "frame" => entry
                .reference
                .push(u64::from_str_radix(value, 16).map_err(|e| format!("frame: {e}"))?),
            _ => return Err(format!("unknown manifest key {key}")),
        }
    }
    let want = digest.ok_or("manifest has no stream digest")?;
    let got = format!("{:016x}", bytes_digest(&entry.stream));
    if want != got {
        return Err(format!(
            "{}: stream digest {got} != stored {want}",
            dir.display()
        ));
    }
    if entry.reference.is_empty() || entry.width == 0 {
        return Err(format!("{}: incomplete manifest", dir.display()));
    }
    Ok(entry)
}

/// Generates one entry (the child-process side of [`ensure`]).
pub fn generate(w: Workload, seed: u64) -> Result<(), String> {
    let t0 = Instant::now();
    let (stream, width, height) = if w.damaged() {
        let src_dir = entry_dir(w.clean_source(), seed)?;
        if load(&src_dir).is_err() {
            generate(w.clean_source(), seed)?;
        }
        let clean = load(&src_dir)?;
        (
            damage(&clean.stream, seed),
            clean.width as u32,
            clean.height as u32,
        )
    } else {
        let (number, frames) = w.source();
        let mut preset = *StreamPreset::by_number(number).ok_or("unknown preset")?;
        preset.seed = preset
            .seed
            .wrapping_add((seed % SCENE_VARIANTS) as u32 * 7919);
        let enc = preset
            .generate_and_encode(frames)
            .map_err(|e| format!("encode {}: {e}", preset.name))?;
        (enc.bitstream, preset.width, preset.height)
    };

    // The reference: a sequential decode on the scalar kernels.
    kernels::set_active(&kernels::SCALAR);
    let mut reference = Vec::new();
    let (slices_lost, clean) = if w.damaged() {
        let (frames, damage) = tiledec_mpeg2::decode_all_resilient(&stream)
            .map_err(|e| format!("reference resilient decode: {e}"))?;
        reference.extend(frames.iter().map(frame_digest));
        let lost: u64 = damage.reports.iter().map(|r| r.slices_lost as u64).sum();
        (lost, damage.clean)
    } else {
        tiledec_mpeg2::Decoder::new()
            .decode_stream(&stream, |f, _| reference.push(frame_digest(f)))
            .map_err(|e| format!("reference decode: {e}"))?;
        (0, true)
    };

    let dir = entry_dir(w, seed)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut manifest = String::new();
    let _ = writeln!(manifest, "stream {:016x}", bytes_digest(&stream));
    let _ = writeln!(manifest, "width {width}");
    let _ = writeln!(manifest, "height {height}");
    let _ = writeln!(manifest, "gen_s {:.3}", t0.elapsed().as_secs_f64());
    let _ = writeln!(manifest, "slices_lost {slices_lost}");
    let _ = writeln!(manifest, "clean {}", clean as u8);
    for d in &reference {
        let _ = writeln!(manifest, "frame {d:016x}");
    }
    std::fs::write(dir.join("stream.m2v"), &stream).map_err(|e| format!("{e}"))?;
    // The manifest goes last: an entry without one is incomplete.
    std::fs::write(dir.join("manifest.txt"), manifest).map_err(|e| format!("{e}"))?;
    Ok(())
}

/// Applies the seeded fault plan: an erasure of 16–64 bytes in the first
/// of [`FAULT_STRATA`] equal strata past the leading sequence header, one
/// bit flip in each later stratum, and a second erasure mid-stream.
fn damage(clean: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = FaultRng::new(seed ^ 0xDA3A_6ED5_EED5_0000);
    let lo = 64.min(clean.len());
    let stratum = ((clean.len() - lo) / FAULT_STRATA).max(1);
    let mut at = |i: usize| lo + i * stratum + rng.below(stratum as u64) as usize;
    let mut faults = vec![Fault::Erase {
        offset: at(0),
        len: 16 + (seed % 49) as usize,
    }];
    for i in 1..FAULT_STRATA {
        faults.push(Fault::BitFlip {
            offset: at(i),
            bit: (seed.wrapping_add(i as u64) % 8) as u8,
        });
    }
    faults.push(Fault::Erase {
        offset: at(FAULT_STRATA / 2),
        len: 16 + (seed % 49) as usize,
    });
    FaultPlan { faults, seed }.apply(clean)
}

/// Hash of the encoder and workload sources (FNV-1a over paths and
/// contents, in sorted path order).
fn source_hash() -> Result<u64, String> {
    let mut files: Vec<PathBuf> = SOURCE_FILES.iter().map(PathBuf::from).collect();
    for dir in SOURCE_DIRS {
        let rd = std::fs::read_dir(dir)
            .map_err(|e| format!("{dir}: {e} (run from the repository root)"))?;
        for ent in rd.flatten() {
            files.push(ent.path());
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let data = std::fs::read(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        for &b in f.to_string_lossy().as_bytes().iter().chain(&data) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(h)
}

/// Four-lane multiply–rotate digest: fast enough to check every frame
/// of every timed decode, not cryptographic.
struct Digest {
    lanes: [u64; 4],
    len: u64,
}

const MULS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

impl Digest {
    fn new() -> Self {
        Digest {
            lanes: [1, 2, 3, 4],
            len: 0,
        }
    }

    fn write(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(32);
        for c in &mut chunks {
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let mut w = [0u8; 8];
                w.copy_from_slice(&c[i * 8..i * 8 + 8]);
                *lane = (*lane ^ u64::from_le_bytes(w))
                    .wrapping_mul(MULS[i])
                    .rotate_left(31);
            }
        }
        for (j, &b) in chunks.remainder().iter().enumerate() {
            let i = j & 3;
            self.lanes[i] = (self.lanes[i] ^ b as u64)
                .wrapping_mul(MULS[i])
                .rotate_left(31);
        }
        self.len += data.len() as u64;
    }

    fn finish(&self) -> u64 {
        let mut h = self.len;
        for (i, lane) in self.lanes.iter().enumerate() {
            h = (h ^ lane).wrapping_mul(MULS[i]).rotate_left(27);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }
}

/// Digest of a byte string.
fn bytes_digest(data: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.write(data);
    d.finish()
}

/// Layout-independent digest of a frame's visible pixels, row by row.
pub fn frame_digest(f: &Frame) -> u64 {
    let mut d = Digest::new();
    let mut row = Vec::new();
    for p in [&f.y, &f.cb, &f.cr] {
        let (w, h) = (p.width(), p.height());
        d.write(&(w as u64 * 65536 + h as u64).to_le_bytes());
        if p.is_tiled() {
            row.resize(w, 0);
            for y in 0..h {
                p.extract_into(0, y, w, 1, &mut row);
                d.write(&row);
            }
        } else {
            for y in 0..h {
                let at = y * p.stride();
                d.write(&p.data()[at..at + w]);
            }
        }
    }
    d.finish()
}
