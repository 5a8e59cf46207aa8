//! Helpers shared by the pipelined-decoder property suites
//! (`vld_parallel.rs`, `recon_parallel.rs`): a seeded xorshift generator,
//! a random-stream encoder, and decodes that capture the frames and the
//! terminal result, so every case is deterministic and reproducible from
//! its seed.

use tiledec_core::PipelineDecoder;
use tiledec_mpeg2::decoder::Decoder;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::types::PictureInfo;
use tiledec_mpeg2::{Error, Frame};

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Renders a deterministic noisy clip and encodes it with
/// seed-dependent GOP structure and quantisation. The suites offset
/// their seeds so they cover different streams.
pub fn random_stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let (w, h) = match rng.below(3) {
        0 => (64, 48),
        1 => (128, 96),
        _ => (96, 64),
    };
    let mut cfg = EncoderConfig::for_size(w, h);
    cfg.gop_size = 3 + rng.below(6) as u32;
    cfg.b_frames = rng.below(3) as u32;
    cfg.qscale = 3 + rng.below(12) as u8;
    cfg.adaptive_quant = rng.below(2) == 0;
    cfg.alternate_scan = rng.below(2) == 0;
    cfg.intra_dc_precision = rng.below(3) as u8;
    cfg.q_scale_type = rng.below(2) == 0;
    let n = 4 + rng.below(5) as usize;
    let mut frames = Vec::with_capacity(n);
    for t in 0..n {
        let mut f = Frame::black(w as usize, h as usize);
        for yy in 0..h as usize {
            for xx in 0..w as usize {
                // Textured base + moving diagonal band + per-frame noise.
                let base = ((xx * 5) ^ (yy * 3)) as u64;
                let band = if (xx + yy + t * 7) % 31 < 6 { 90 } else { 0 };
                let v = (base % 120 + band + rng.below(24)) as u8;
                f.y.set(xx, yy, v);
            }
        }
        for yy in 0..(h / 2) as usize {
            for xx in 0..(w / 2) as usize {
                f.cb.set(xx, yy, 100 + ((xx + t) % 56) as u8);
                f.cr.set(xx, yy, 120 + ((yy * 2 + t) % 40) as u8);
            }
        }
        frames.push(f);
    }
    let enc = Encoder::new(cfg).expect("config");
    enc.encode(&frames).expect("encode")
}

/// A decode's display-order frames and its terminal result (picture
/// count or error).
pub type Decoded = (Vec<Frame>, Result<usize, Error>);

/// Sequential decode capturing frames and the terminal result.
pub fn decode_sequential(data: &[u8]) -> Decoded {
    let mut frames = Vec::new();
    let result = Decoder::new()
        .decode_stream(data, |f: &Frame, _: &PictureInfo| frames.push(f.clone()))
        .map(|s| s.pictures);
    (frames, result)
}

/// Decode through `dec`, capturing frames and the terminal result.
pub fn decode_with(dec: &mut PipelineDecoder, data: &[u8]) -> Decoded {
    let mut frames = Vec::new();
    let result = dec
        .decode_stream(data, |f: &Frame, _: &PictureInfo| frames.push(f.clone()))
        .map(|s| s.pictures);
    (frames, result)
}

/// `PipelineDecoder::new(vld, recon)` decode capturing frames and the
/// terminal result.
pub fn decode_pipelined(data: &[u8], vld: usize, recon: usize) -> Decoded {
    decode_with(&mut PipelineDecoder::new(vld, recon), data)
}

/// Asserts `got` equals the sequential decode `want`: same frames
/// (bit-exact), same summary, same error value — including bit
/// positions.
pub fn assert_same_decode(got: &Decoded, want: &Decoded, label: &str) {
    assert_eq!(got.1, want.1, "{label}: result mismatch");
    assert_eq!(got.0.len(), want.0.len(), "{label}: frame count mismatch");
    for (i, (a, b)) in got.0.iter().zip(&want.0).enumerate() {
        assert!(a == b, "{label}: frame {i} differs from sequential");
    }
}

/// Asserts the pipelined decode at every `(vld, recon)` worker pair
/// equals the sequential decode (see [`assert_same_decode`]).
pub fn assert_matches_sequential(
    data: &[u8],
    label: &str,
    pairs: impl IntoIterator<Item = (usize, usize)>,
) {
    let want = decode_sequential(data);
    for (vld, recon) in pairs {
        let got = decode_pipelined(data, vld, recon);
        assert_same_decode(
            &got,
            &want,
            &format!("{label} at {vld} VLD / {recon} recon workers"),
        );
    }
}

/// Asserts `decode_pipelined` at every `(vld, recon)` pair reproduces a
/// truncation's sequential bitstream error, bit position included.
/// Returns false when the sequential decode of `data` does not fail with
/// a positioned bitstream error (nothing to compare).
pub fn assert_bit_position_matches(
    data: &[u8],
    label: &str,
    pairs: impl IntoIterator<Item = (usize, usize)>,
) -> bool {
    let (_, seq_result) = decode_sequential(data);
    let Err(Error::Bitstream(ref e)) = seq_result else {
        return false;
    };
    for (vld, recon) in pairs {
        match decode_pipelined(data, vld, recon).1 {
            Err(Error::Bitstream(ref pe)) => assert_eq!(
                pe, e,
                "{label}, {vld} VLD / {recon} recon workers: bitstream error \
                 (incl. bit position) differs"
            ),
            other => {
                panic!("{label}, {vld} VLD / {recon} recon workers: expected {e:?}, got {other:?}")
            }
        }
    }
    true
}
