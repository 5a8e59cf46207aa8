//! Property tests for the pipelined (VLD ‖ band-recon) decoder:
//! bit-exactness against the sequential reference decoder across random
//! streams, worker-count grids, truncation and corruption — under both
//! `ErrorPolicy::Strict` (identical frames, identical error values *and
//! bit positions*) and `ErrorPolicy::Resilient` (identical repaired
//! frames and identical `DamageReport` ledgers).
//!
//! Driven by the seeded generator in `common` (shared with
//! `vld_parallel.rs`), so every case is deterministic and reproducible
//! from its seed.

mod common;

use common::{
    assert_bit_position_matches, assert_matches_sequential, assert_same_decode, decode_sequential,
    decode_with, random_stream, Rng,
};
use tiledec_core::recon_parallel::PipelineDecoder;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::{decode_all_resilient, Frame};

/// Recon worker counts every exactness property is checked at: 1 is the
/// degenerate single-band case, 3 odd band seams, 8 more bands than some
/// pictures have rows. VLD workers are pinned at 2 so every case also
/// pipelines entropy decode against reconstruction.
const RECON_WORKER_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

/// The `(vld, recon)` pairs: VLD pinned at 2, recon swept.
fn pipelined() -> impl Iterator<Item = (usize, usize)> {
    RECON_WORKER_COUNTS.iter().map(|&w| (2, w))
}

/// Asserts the pipelined decode at every recon worker count equals the
/// sequential decode under **Strict** policy: same frames (bit-exact),
/// same summary, same error value — including bit positions.
fn assert_strict_matches_sequential(data: &[u8], label: &str) {
    assert_matches_sequential(data, label, pipelined());
}

/// Asserts the pipelined **Resilient** decode at every recon worker
/// count equals the sequential resilient decode: identical repaired
/// frames and identical damage ledgers (`DamageReport` rows included).
fn assert_resilient_matches_sequential(data: &[u8], label: &str) {
    let seq = decode_all_resilient(data);
    for &workers in &RECON_WORKER_COUNTS {
        let mut dec = PipelineDecoder::new(2, workers);
        let pipe = dec.decode_all_resilient(data);
        match (&seq, &pipe) {
            (Ok((sf, sd)), Ok((pf, pd))) => {
                assert_eq!(
                    sd, pd,
                    "{label}: damage ledger mismatch at {workers} recon workers"
                );
                assert_eq!(
                    sf.len(),
                    pf.len(),
                    "{label}: resilient frame count mismatch at {workers} recon workers"
                );
                for (i, (a, b)) in pf.iter().zip(sf).enumerate() {
                    assert!(
                        a == b,
                        "{label}: resilient frame {i} differs at {workers} recon workers"
                    );
                }
            }
            (Err(se), Err(pe)) => assert_eq!(
                se, pe,
                "{label}: resilient error mismatch at {workers} recon workers"
            ),
            (s, p) => panic!(
                "{label}: resilient outcome diverged at {workers} recon workers: \
                 sequential {s:?} vs pipelined {p:?}"
            ),
        }
    }
}

#[test]
fn pipelined_decode_bit_exact_across_streams_and_worker_counts() {
    for seed in 0..6u64 {
        let data = random_stream(seed + 200);
        assert_strict_matches_sequential(&data, &format!("stream {seed}"));
    }
}

#[test]
fn pipelined_decode_bit_exact_on_truncated_streams() {
    // Truncation lands mid-slice, mid-header and mid-start-code; the
    // pipeline must reproduce the sequential error exactly — variant,
    // message, bit position — and the frames emitted before it.
    for seed in 0..4u64 {
        let data = random_stream(seed + 200);
        let mut rng = Rng::new(seed ^ 0xDEAD_BEEF);
        for case in 0..8 {
            let cut = 16 + rng.below(data.len() as u64 - 16) as usize;
            let truncated = &data[..cut];
            assert_strict_matches_sequential(
                truncated,
                &format!("stream {seed} cut {case} at {cut}"),
            );
        }
    }
}

#[test]
fn pipelined_decode_bit_exact_on_corrupted_streams() {
    // Byte corruption can invalidate VLC codes, desynchronise slices,
    // send macroblock addresses into other rows (the single-band demotion
    // path), or silently change pixels; all must match bit for bit.
    for seed in 0..4u64 {
        let data = random_stream(seed + 300);
        let mut rng = Rng::new(seed ^ 0xC0FF_EE00);
        for case in 0..6 {
            let mut corrupted = data.clone();
            let pos = 12 + rng.below(data.len() as u64 - 12) as usize;
            corrupted[pos] ^= (1 + rng.below(255)) as u8;
            assert_strict_matches_sequential(
                &corrupted,
                &format!("stream {seed} corrupt {case} at {pos}"),
            );
        }
    }
}

#[test]
fn pipelined_resilient_matches_sequential_on_damaged_streams() {
    // Resilient policy must agree end to end: repaired frames, display
    // patches and the DamageReport ledger, across truncations and
    // corruptions at every worker count.
    for seed in 0..3u64 {
        let data = random_stream(seed + 400);
        let mut rng = Rng::new(seed ^ 0xBAD_CAFE);
        assert_resilient_matches_sequential(&data, &format!("stream {seed} clean"));
        for case in 0..3 {
            let cut = 16 + rng.below(data.len() as u64 - 16) as usize;
            assert_resilient_matches_sequential(
                &data[..cut],
                &format!("stream {seed} cut {case} at {cut}"),
            );
            let mut corrupted = data.clone();
            let pos = 12 + rng.below(data.len() as u64 - 12) as usize;
            corrupted[pos] ^= (1 + rng.below(255)) as u8;
            assert_resilient_matches_sequential(
                &corrupted,
                &format!("stream {seed} corrupt {case} at {pos}"),
            );
        }
    }
}

#[test]
fn truncated_stream_error_bit_position_is_exact() {
    let data = random_stream(203);
    let mut found_bit_pos_error = false;
    for cut in [
        data.len() - 1,
        data.len() - 3,
        data.len() * 3 / 4,
        data.len() / 2,
    ] {
        found_bit_pos_error |=
            assert_bit_position_matches(&data[..cut], &format!("cut {cut}"), pipelined());
    }
    assert!(
        found_bit_pos_error,
        "no truncation produced a bitstream error with a position — widen the cuts"
    );
}

#[test]
fn consecutive_b_pictures_share_a_level() {
    // b_frames = 2 produces IBBPBBP… runs: the two Bs of each run share
    // both anchors and must land on the same dependency level, giving
    // bands from different pictures to the recon pool concurrently. The
    // decode must stay bit-exact and the stats must show real banding.
    let mut cfg = EncoderConfig::for_size(128, 96);
    cfg.gop_size = 9;
    cfg.b_frames = 2;
    cfg.qscale = 6;
    let enc = Encoder::new(cfg).expect("config");
    let mut frames = Vec::new();
    for t in 0..12usize {
        let mut f = Frame::black(128, 96);
        for yy in 0..96 {
            for xx in 0..128 {
                f.y.set(xx, yy, ((xx * 7 + yy * 11 + t * 13) % 210) as u8);
            }
        }
        frames.push(f);
    }
    let data = enc.encode(&frames).expect("encode");
    assert_strict_matches_sequential(&data, "IBBP ladder");

    let mut dec = PipelineDecoder::new(2, 2);
    let mut n = 0usize;
    dec.decode_stream(&data, |_, _| n += 1).expect("decode");
    let stats = dec.stats();
    assert!(n > 0);
    assert!(
        !stats.sequential_fallback,
        "well-formed stream must pipeline"
    );
    assert_eq!(stats.recon_workers, 2);
    assert_eq!(stats.recon_busy_ns.len(), 2);
    assert!(stats.pictures > 0);
    assert!(
        stats.bands > stats.pictures,
        "2 recon workers should split most pictures into multiple bands \
         (bands {} vs pictures {})",
        stats.bands,
        stats.pictures
    );
    assert!(stats.vld_stage_ns > 0);
    assert!(stats.recon_stage_ns > 0);
    assert!(stats.model_critical_ns >= stats.vld_stage_ns.max(stats.recon_stage_ns));
}

#[test]
fn zero_recon_workers_replays_on_the_coordinator() {
    let data = random_stream(202);
    let mut dec = PipelineDecoder::new(2, 0);
    let got = decode_with(&mut dec, &data);
    assert_same_decode(&got, &decode_sequential(&data), "2 VLD / 0 recon");
    let stats = dec.stats();
    assert!(
        !stats.sequential_fallback,
        "VLD workers ran, so the stats must not report a fallback"
    );
    assert_eq!(stats.vld_busy_ns.len(), 2);
    assert_eq!(stats.recon_workers, 0);
    assert!(stats.recon_busy_ns.is_empty());
    assert_eq!(stats.bands, stats.pictures, "one in-place band per picture");
}

#[test]
fn auto_tuning_records_the_clamp_decision() {
    // Tiny pictures (≤ 48 macroblocks) decline parallelism entirely; the
    // stats must still record what was requested and the host CPU count,
    // so benchmarks can publish the clamp decision.
    let data = random_stream(201);
    let mut dec = PipelineDecoder::auto_tuned(8, 8);
    let got = decode_with(&mut dec, &data);
    assert_same_decode(&got, &decode_sequential(&data), "auto-tuned");
    let stats = dec.stats();
    assert!(stats.sequential_fallback, "tiny pictures must not pipeline");
    assert_eq!(stats.requested_vld_workers, 8);
    assert_eq!(stats.requested_recon_workers, 8);
    assert!(stats.host_cpus >= 1);
}
