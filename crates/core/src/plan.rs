//! Stream planning and cost-weighted partitioning for the pipelined
//! decoder ([`PipelineDecoder`](crate::recon_parallel::PipelineDecoder)).
//!
//! Slices are entropy-independent (all predictor state resets at a slice
//! start) and delimited by byte-aligned start codes, so their VLC can be
//! decoded concurrently — the paper's k-splitter idea applied *inside*
//! one node. This module holds the pieces that decide what runs where:
//!
//! * [`Plan`] — one SWAR sweep ([`StartCodeIndex`]) plus a header-only
//!   walk produces, per picture, the slice start offsets and a snapshot
//!   of the sequence/picture parameters the sequential decoder will use
//!   for them.
//! * [`partition_by_weight`] — splits a picture's slices (VLD) or
//!   macroblock rows (reconstruction) into contiguous ranges minimising
//!   the critical path.
//! * `CostHistory` — an EWMA of per-slice cost keyed by (picture kind,
//!   slice row), per the paper's "same frames ≈ same cost" observation.
//!   Once history covers a picture's rows, ranges are re-balanced each
//!   picture; the first picture of each kind gets a uniform split.
//! * [`host_cpus`] and `MIN_AUTO_PARALLEL_MBS` — the auto-tune clamp.

use std::collections::HashMap;
use std::ops::Range;

use tiledec_bitstream::{BitReader, StartCode, StartCodeIndex};
use tiledec_mpeg2::headers;
use tiledec_mpeg2::types::{PictureInfo, PictureKind, SequenceInfo};

/// Logical CPUs on this host (1 if the count cannot be determined).
///
/// Auto-tuned decoders clamp their worker count here: the bench curve
/// showed 8 workers on a 1-core host losing to 1 worker (imbalance
/// 3.5–6.3×) because oversubscribed workers just time-slice the same
/// core while the partitioner splits work it can never run concurrently.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Auto-tuned decoders fall back to sequential decode when every picture
/// is below this many macroblocks: on tiny pictures the record/replay
/// round trip costs more than it hides (the 128×96 `tiny` bench preset
/// measured a 0.805× one-worker "speedup" before this gate).
pub(crate) const MIN_AUTO_PARALLEL_MBS: u32 = 128;

/// One planned slice: where its start code begins and which macroblock row
/// it covers.
#[derive(Debug, Clone, Copy)]
pub struct PlannedSlice {
    /// Byte offset of the first `0x00` of the slice start code.
    pub offset: usize,
    /// Macroblock row (`start_code_value - 1`).
    pub row: u32,
}

/// One picture's planned slices plus the header state snapshot workers
/// decode them under.
#[derive(Debug, Clone)]
pub struct PlannedPicture {
    /// Sequence parameters in effect at this picture's slices.
    pub seq: SequenceInfo,
    /// Picture header + coding extension.
    pub info: PictureInfo,
    /// Slices in stream order.
    pub slices: Vec<PlannedSlice>,
}

/// Stream structure extracted by the planning pass: per-picture slice
/// ranges and the header snapshots to decode them under.
///
/// Planning mirrors the sequential decoder's header folding but stops at
/// the first thing it cannot understand (header parse error, slice before
/// the headers it needs) and leaves [`complete`](Plan::complete) false;
/// the pipelined decoder then hands the whole stream to the sequential
/// decoder instead of committing to a partial plan.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Pictures that own at least the headers needed to decode slices.
    pub pictures: Vec<PlannedPicture>,
    /// PICTURE start codes encountered, including pictures that never
    /// produced a slice (those are invisible in [`Plan::pictures`] but
    /// make the sequential decoder fail with "picture contained no
    /// slices" — consumers that pre-commit to the plan must compare this
    /// against `pictures.len()`).
    pub pictures_seen: usize,
    /// True when the planning walk consumed the entire stream without
    /// hitting anything it could not parse. When false, the sequential
    /// decoder may fail (or diverge) somewhere planning did not model,
    /// so consumers that need the whole stream's structure up front
    /// must fall back.
    pub complete: bool,
    /// Sequence parameters after folding the *whole* stream — what the
    /// sequential decoder reports in its `StreamSummary`. (Snapshots in
    /// [`PlannedPicture`] are per-picture; a trailing sequence header
    /// after the last picture updates this but no snapshot.)
    pub final_seq: Option<SequenceInfo>,
}

impl Plan {
    /// Indexes start codes and folds headers into per-picture snapshots.
    pub fn build(data: &[u8]) -> Self {
        let index = StartCodeIndex::build(data);
        let mut plan = Plan::default();
        let mut seq: Option<SequenceInfo> = None;
        // (info, coding-extension parsed, index into plan.pictures once a
        // slice has been planned)
        let mut cur: Option<(PictureInfo, bool, Option<usize>)> = None;
        for code in index.codes() {
            let mut r = BitReader::at(data, (code.offset + 4) * 8);
            match code.code {
                StartCode::SEQUENCE_HEADER => match headers::parse_sequence_header(&mut r) {
                    Ok(s) => seq = Some(s),
                    Err(_) => return plan,
                },
                StartCode::EXTENSION => {
                    let Ok(id) = r.read_bits(4) else { return plan };
                    if id == headers::EXT_ID_SEQUENCE {
                        let Some(s) = seq.as_mut() else { return plan };
                        if headers::parse_sequence_extension(&mut r, s).is_err() {
                            return plan;
                        }
                    } else if id == headers::EXT_ID_PICTURE_CODING {
                        let Some((info, ext, _)) = cur.as_mut() else {
                            return plan;
                        };
                        if headers::parse_picture_coding_extension(&mut r, info).is_err() {
                            return plan;
                        }
                        *ext = true;
                    }
                }
                StartCode::PICTURE => match headers::parse_picture_header(&mut r) {
                    Ok(info) => {
                        plan.pictures_seen += 1;
                        cur = Some((info, false, None));
                    }
                    Err(_) => return plan,
                },
                // The sequential decoder parses GOP headers (and fails on
                // malformed ones); model that so `complete` only holds
                // when the sequential walk cannot trip on a header.
                StartCode::GROUP => {
                    if headers::parse_gop_header(&mut r).is_err() {
                        return plan;
                    }
                }
                StartCode::USER_DATA | StartCode::SEQUENCE_END => {}
                c if StartCode { offset: 0, code: c }.is_slice() => {
                    let Some(s) = seq.as_ref() else { return plan };
                    let Some((info, ext, pic_idx)) = cur.as_mut() else {
                        return plan;
                    };
                    if !*ext {
                        return plan;
                    }
                    let idx = match pic_idx {
                        Some(i) => *i,
                        None => {
                            plan.pictures.push(PlannedPicture {
                                seq: s.clone(),
                                info: info.clone(),
                                slices: Vec::new(),
                            });
                            let i = plan.pictures.len() - 1;
                            *pic_idx = Some(i);
                            i
                        }
                    };
                    plan.pictures[idx].slices.push(PlannedSlice {
                        offset: code.offset,
                        row: (c - 1) as u32,
                    });
                }
                _ => return plan,
            }
        }
        plan.complete = true;
        plan.final_seq = seq;
        plan
    }
}

/// Splits `weights` into at most `k` contiguous ranges minimising the
/// maximum range sum (the VLD critical path), via binary search on the
/// range-sum cap with a greedy feasibility check. Zero weights are treated
/// as 1 so every range stays non-empty and bounded.
pub fn partition_by_weight(weights: &[u64], k: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    partition_by_weight_into(weights, k, &mut out);
    out
}

/// Allocation-free form of [`partition_by_weight`]: clears and refills
/// `out`, so per-picture partitioning in the hot pipeline can reuse one
/// scratch vector instead of allocating each call. Zero weights are
/// treated as 1 inline (no copy of `weights` is made).
pub(crate) fn partition_by_weight_into(weights: &[u64], k: usize, out: &mut Vec<Range<usize>>) {
    out.clear();
    if weights.is_empty() || k == 0 {
        return;
    }
    let k = k.min(weights.len());
    let mut lo = weights.iter().map(|&x| x.max(1)).max().unwrap_or(1);
    let mut hi = weights.iter().map(|&x| x.max(1)).sum::<u64>();
    while lo < hi {
        let cap = lo + (hi - lo) / 2;
        if ranges_needed(weights, cap) <= k {
            hi = cap;
        } else {
            lo = cap + 1;
        }
    }
    let cap = lo;
    let mut start = 0usize;
    let mut sum = 0u64;
    for (i, &x) in weights.iter().enumerate() {
        let x = x.max(1);
        if sum + x > cap && i > start {
            out.push(start..i);
            start = i;
            sum = 0;
        }
        sum += x;
    }
    out.push(start..weights.len());
}

fn ranges_needed(weights: &[u64], cap: u64) -> usize {
    let mut n = 1usize;
    let mut sum = 0u64;
    for &x in weights {
        let x = x.max(1);
        if sum + x > cap {
            n += 1;
            sum = 0;
        }
        sum += x;
    }
    n
}

/// EWMA of per-slice cost, keyed by (picture kind, slice row): the
/// "same frames ≈ same cost" feedback the dynamic partitioners run on.
/// The pipelined decoder keeps one instance fed with per-row *entropy*
/// cost and a second fed with per-row *pixel* cost, so recon bands
/// balance independently of VLD ranges.
#[derive(Debug, Default)]
pub(crate) struct CostHistory {
    ewma: HashMap<(PictureKind, u32), u64>,
}

impl CostHistory {
    pub(crate) fn update(&mut self, kind: PictureKind, row: u32, cost_ns: u64) {
        let e = self.ewma.entry((kind, row)).or_insert(cost_ns);
        *e = (*e + cost_ns) / 2;
    }

    /// Cost estimates for every row: fills `out` and returns true when
    /// every row has history, leaves `out` cleared and returns false
    /// otherwise (the uniform-split fallback for the first picture of each
    /// kind). Allocation-free once `out` is warm: the pipelined decoder
    /// calls this per picture and must not allocate in steady state.
    pub(crate) fn estimates_into(
        &self,
        kind: PictureKind,
        rows: &[u32],
        out: &mut Vec<u64>,
    ) -> bool {
        out.clear();
        for &row in rows {
            match self.ewma.get(&(kind, row)) {
                Some(&v) => out.push(v),
                None => {
                    out.clear();
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_uniform_weights_splits_evenly() {
        let w = [1u64; 8];
        let r = partition_by_weight(&w, 4);
        assert_eq!(r, vec![0..2, 2..4, 4..6, 6..8]);
    }

    #[test]
    fn partition_handles_degenerate_inputs() {
        assert!(partition_by_weight(&[], 4).is_empty());
        assert!(partition_by_weight(&[1, 2, 3], 0).is_empty());
        assert_eq!(partition_by_weight(&[5], 4), vec![0..1]);
        assert_eq!(partition_by_weight(&[0, 0, 0, 0], 2), vec![0..2, 2..4]);
    }

    #[test]
    fn partition_matches_bruteforce_minimum() {
        // Exhaustively compare the binary-search cap against brute force
        // over all contiguous partitions for small inputs.
        fn brute(weights: &[u64], k: usize) -> u64 {
            fn go(weights: &[u64], k: usize) -> u64 {
                if k == 1 || weights.len() <= 1 {
                    return weights.iter().sum();
                }
                let mut best = u64::MAX;
                for cut in 1..weights.len() {
                    let left: u64 = weights[..cut].iter().sum();
                    let rest = go(&weights[cut..], k - 1);
                    best = best.min(left.max(rest));
                }
                best.min(weights.iter().sum())
            }
            go(weights, k)
        }
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 100 + 1
        };
        for _ in 0..50 {
            let n = (next() % 9 + 1) as usize;
            let k = (next() % 4 + 1) as usize;
            let w: Vec<u64> = (0..n).map(|_| next()).collect();
            let ranges = partition_by_weight(&w, k);
            assert!(ranges.len() <= k.min(n));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(n));
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let max_sum = ranges
                .iter()
                .map(|r| w[r.clone()].iter().sum::<u64>())
                .max()
                .unwrap_or(0);
            assert_eq!(max_sum, brute(&w, k), "weights {w:?} k {k}");
        }
    }

    #[test]
    fn history_requires_full_coverage() {
        let mut h = CostHistory::default();
        let mut out = vec![7];
        h.update(PictureKind::P, 0, 100);
        assert!(!h.estimates_into(PictureKind::P, &[0, 1], &mut out));
        assert!(out.is_empty(), "a miss leaves the output cleared");
        h.update(PictureKind::P, 1, 300);
        assert!(h.estimates_into(PictureKind::P, &[0, 1], &mut out));
        assert_eq!(out, vec![100, 300]);
        assert!(!h.estimates_into(PictureKind::B, &[0], &mut out));
        h.update(PictureKind::P, 0, 300);
        assert!(h.estimates_into(PictureKind::P, &[0], &mut out));
        assert_eq!(out, vec![200]);
    }

    #[test]
    fn plan_of_garbage_is_empty() {
        assert!(Plan::build(&[]).pictures.is_empty());
        assert!(Plan::build(&[0xFF; 32]).pictures.is_empty());
        // A slice with no headers before it stops planning immediately.
        let plan = Plan::build(&[0, 0, 1, 0x01, 0xFF, 0xFF]);
        assert!(plan.pictures.is_empty());
        assert!(!plan.complete);
    }
}
