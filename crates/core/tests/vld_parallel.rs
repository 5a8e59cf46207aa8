//! Property tests for the VLD-only configuration of the pipelined
//! decoder, `PipelineDecoder::new(n, 0)`: slice-parallel VLD workers with
//! each picture replayed on the coordinator. Bit-exactness against the
//! sequential reference decoder across random streams, worker counts and
//! partition seams, plus truncation/corruption cases asserting that the
//! sequential error — value *and* bit position — is reproduced.
//!
//! Driven by the seeded generator in `common`, so every case is
//! deterministic.

mod common;

use common::{
    assert_bit_position_matches, assert_matches_sequential, assert_same_decode, decode_pipelined,
    decode_sequential, decode_with, random_stream, Rng,
};
use tiledec_core::plan::host_cpus;
use tiledec_core::PipelineDecoder;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::Frame;

/// Worker counts every exactness property is checked at. 1 exercises the
/// degenerate single-range partition, 3 odd seams, 8 more ranges than
/// some pictures have slices.
const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

/// The `(vld, recon)` pairs of the VLD-only configuration.
fn vld_only() -> impl Iterator<Item = (usize, usize)> {
    WORKER_COUNTS.iter().map(|&w| (w, 0))
}

#[test]
fn parallel_vld_bit_exact_across_streams_and_worker_counts() {
    for seed in 0..6u64 {
        let data = random_stream(seed);
        assert_matches_sequential(&data, &format!("stream {seed}"), vld_only());
    }
}

#[test]
fn parallel_vld_bit_exact_on_truncated_streams() {
    // Truncation lands mid-slice, mid-header, and mid-start-code at
    // pseudo-random points; the parallel decoder must reproduce the
    // sequential error exactly — same variant, same message, same bit
    // position — and the same frames emitted before it.
    for seed in 0..4u64 {
        let data = random_stream(seed);
        let mut rng = Rng::new(seed ^ 0xDEAD_BEEF);
        for case in 0..8 {
            let cut = 16 + rng.below(data.len() as u64 - 16) as usize;
            let truncated = &data[..cut];
            assert_matches_sequential(
                truncated,
                &format!("stream {seed} cut {case} at {cut}"),
                vld_only(),
            );
        }
    }
}

#[test]
fn parallel_vld_bit_exact_on_corrupted_streams() {
    // Byte corruption can invalidate VLC codes (exact error positions),
    // desynchronise slices, or silently change pixels; all three must
    // match the sequential decode bit for bit.
    for seed in 0..4u64 {
        let data = random_stream(seed + 100);
        let mut rng = Rng::new(seed ^ 0xC0FF_EE00);
        for case in 0..6 {
            let mut corrupted = data.clone();
            let pos = 12 + rng.below(data.len() as u64 - 12) as usize;
            corrupted[pos] ^= (1 + rng.below(255)) as u8;
            assert_matches_sequential(
                &corrupted,
                &format!("stream {seed} corrupt {case} at {pos}"),
                vld_only(),
            );
        }
    }
}

#[test]
fn truncated_stream_error_bit_position_is_exact() {
    // Dig the bit position out of a truncation error and require the
    // parallel decoders to produce the identical value, not just the
    // same variant.
    let data = random_stream(3);
    let mut found_bit_pos_error = false;
    for cut in [
        data.len() - 1,
        data.len() - 3,
        data.len() * 3 / 4,
        data.len() / 2,
    ] {
        found_bit_pos_error |=
            assert_bit_position_matches(&data[..cut], &format!("cut {cut}"), vld_only());
    }
    assert!(
        found_bit_pos_error,
        "no truncation produced a bitstream error with a position — widen the cuts"
    );
}

#[test]
fn partition_seams_cover_uneven_slice_counts() {
    // A 48-line picture has 3 slice rows: worker counts 2 and 4 force
    // ranges of unequal size and ranges that outnumber slices. Repeated
    // pictures also exercise the cost-history partitioning path (later
    // pictures are split by measured weights, not uniformly).
    let mut cfg = EncoderConfig::for_size(64, 48);
    cfg.gop_size = 4;
    cfg.b_frames = 1;
    cfg.qscale = 8;
    let enc = Encoder::new(cfg).expect("config");
    let mut frames = Vec::new();
    for t in 0..10usize {
        let mut f = Frame::black(64, 48);
        for yy in 0..48 {
            for xx in 0..64 {
                f.y.set(xx, yy, ((xx * 7 + yy * 11 + t * 5) % 200) as u8);
            }
        }
        frames.push(f);
    }
    let data = enc.encode(&frames).expect("encode");
    assert_matches_sequential(&data, "3-slice pictures", vld_only());
}

#[test]
fn stats_reflect_parallel_work() {
    let data = random_stream(1);
    let mut dec = PipelineDecoder::new(2, 0);
    let mut n = 0usize;
    dec.decode_stream(&data, |_, _| n += 1).expect("decode");
    let stats = dec.stats();
    assert_eq!(stats.vld_workers, 2);
    assert_eq!(stats.vld_busy_ns.len(), 2);
    assert_eq!(stats.recon_workers, 0);
    assert!(n > 0);
    assert!(
        !stats.sequential_fallback,
        "well-formed stream should not fall back to the sequential decoder"
    );
    assert!(stats.pictures > 0);
    assert_eq!(stats.bands, stats.pictures, "one band per picture");
    assert!(stats.wall_ns > 0);
    assert!(stats.vld_stage_ns > 0);
    assert!(stats.recon_stage_ns > 0);
    assert!(stats.model_critical_ns > 0);
}

#[test]
fn auto_tuning_declines_tiny_pictures() {
    // Every random_stream size tops out at 128×96 = 48 macroblocks per
    // picture — below the auto-parallel threshold — so an auto-tuned
    // decoder must take the sequential path (and still be bit-exact).
    let data = random_stream(0);
    let mut dec = PipelineDecoder::auto_tuned(8, 0);
    let got = decode_with(&mut dec, &data);
    assert_same_decode(&got, &decode_sequential(&data), "auto-tuned");
    let stats = dec.stats();
    assert_eq!(
        stats.vld_workers, 0,
        "tiny pictures must decode sequentially"
    );
    assert!(stats.sequential_fallback);
    assert!(stats.vld_busy_ns.is_empty());
}

#[test]
fn auto_tuning_clamps_workers_to_slice_rows() {
    // 704×48: 44×3 = 132 macroblocks clears the size threshold, but the
    // picture has only 3 slice rows — 8 configured workers clamp to 3.
    let mut cfg = EncoderConfig::for_size(704, 48);
    cfg.gop_size = 4;
    cfg.b_frames = 1;
    cfg.qscale = 8;
    let enc = Encoder::new(cfg).expect("config");
    let mut frames = Vec::new();
    for t in 0..6usize {
        let mut f = Frame::black(704, 48);
        for yy in 0..48 {
            for xx in 0..704 {
                f.y.set(xx, yy, ((xx * 3 + yy * 11 + t * 5) % 200) as u8);
            }
        }
        frames.push(f);
    }
    let data = enc.encode(&frames).expect("encode");
    let mut dec = PipelineDecoder::auto_tuned(8, 0);
    let got = decode_with(&mut dec, &data);
    assert_same_decode(&got, &decode_sequential(&data), "auto-tuned");
    let stats = dec.stats();
    // The row clamp composes with the host-CPU clamp: on a wide host the
    // 3 slice rows bound the count, on a 1-core CI box the CPU count does.
    let expected = 3.min(host_cpus());
    assert_eq!(
        stats.vld_workers, expected,
        "workers must clamp to min(slice rows, host cpus)"
    );
    assert_eq!(stats.vld_busy_ns.len(), expected);
    assert_eq!(stats.requested_vld_workers, 8);
    assert!(stats.host_cpus >= 1);
    assert!(!stats.sequential_fallback);
    assert!(stats.pictures > 0);
}

#[test]
fn zero_workers_is_the_sequential_path() {
    let data = random_stream(2);
    let got = decode_pipelined(&data, 0, 0);
    assert_same_decode(&got, &decode_sequential(&data), "zero workers");
}
