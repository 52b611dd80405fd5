//! Chunked, branch-thin batch-estimate kernels.
//!
//! [`estimate_into`] is the implementation behind
//! [`PiecewiseRoofline::estimate_soa`](super::PiecewiseRoofline::estimate_soa):
//! intensities are processed in fixed-width chunks. Production-shaped
//! models (strictly increasing knots, modest knot counts) run every
//! chunk through one region-compaction kernel ([`eval_compacted`]):
//! a branch-free pass writes the constant regions and compacts the
//! interpolating lanes into per-region index lists, whose counts also
//! reveal pure single-region chunks and send them to tight fill or
//! interpolation loops the compiler can autovectorize. Degenerate or
//! adversarial models instead classify each chunk with a min/max sweep
//! and fall back to the exact per-lane branch chain of the scalar path
//! for mixed chunks.
//!
//! # Bit-identity contract
//!
//! Every output is bit-identical to the scalar
//! [`estimate`](super::PiecewiseRoofline::estimate) on the same input —
//! including NaN propagation and region-boundary precedence. The fast
//! paths earn this by construction, not by tolerance:
//!
//! * Fill paths only run when *every* lane classifies into one constant
//!   region (`0.0`, plateau, tail, NaN) — the same constant the scalar
//!   branch chain would select lane by lane.
//! * The interpolation path only runs when every lane lands strictly
//!   inside one knot segment, and it evaluates the *same expression in
//!   the same operation order* as [`geometry::piecewise_eval`]:
//!   `a.y + ((x - a.x) * (b.y - a.y)) / (b.x - a.x)`. IEEE-754 basic
//!   operations are exactly rounded and deterministic, so identical
//!   per-lane operation sequences give identical bits. No slope is
//!   hoisted (`(x-a.x) * dy/dx` would reassociate) and no FMA contraction
//!   is used (an FMA rounds once where `mul` + `add` round twice, so it
//!   is *not* bit-identical; `rustc` never contracts without explicit
//!   intrinsics, and this module never asks for them).
//! * Lanes that could hit `piecewise_eval`'s first/last-knot early
//!   returns (`x` at or beyond an end knot) or a duplicate-`x` segment
//!   are excluded from the interpolation fast path and take the scalar
//!   chain instead.
//!
//! The contract is pinned by the `estimate_soa_matches_per_sample_*`
//! tests in [`super`] and the chunk-width/NaN proptests in
//! `tests/properties.rs`.

use crate::geometry::{self, Point};

use super::RightRegion;

/// Default chunk width: 64 lanes (one 512-byte stripe of `f64`s) keeps
/// the classification pass in registers and amortizes its cost.
pub(super) const DEFAULT_WIDTH: usize = 64;

/// Region-class bits for the per-chunk mask.
const B_ZERO: u8 = 1 << 0; // x <= 0.0            -> 0.0
const B_LEFT: u8 = 1 << 1; // 0 < x < apex.x      -> piecewise_eval(left)
const B_PLATEAU: u8 = 1 << 2; // apex.x <= x < first -> right.plateau
const B_SPAN: u8 = 1 << 3; // first <= x <= last   -> piecewise_eval(knots)
const B_TAIL: u8 = 1 << 4; // x > last             -> right.tail
const B_NAN: u8 = 1 << 5; // NaN                  -> NaN

/// Estimates every intensity in `xs`, appending to `out`, for a
/// non-constant roofline shape. `width` is the chunk width (tests sweep
/// it; production uses [`DEFAULT_WIDTH`]).
pub(super) fn estimate_into(
    left: &[Point],
    right: &RightRegion,
    xs: &[f64],
    out: &mut Vec<f64>,
    width: usize,
) {
    let apex = *left.last().expect("hull is non-empty");
    let width = width.max(1);
    let left_strict = strictly_increasing(left);
    let right_strict = strictly_increasing(&right.knots);
    if right.knots.is_empty() {
        // Degenerate right region: plateau/span/tail all collapse to the
        // tail constant, so the class boundaries use the apex on both
        // sides (plateau becomes unreachable, span is `x == apex.x`, and
        // tail covers everything above it).
        for chunk in xs.chunks(width) {
            let mask = classify(chunk, apex.x, apex.x, apex.x);
            match mask {
                B_ZERO => fill(out, 0.0, chunk.len()),
                B_LEFT => eval_left(left, apex.x, chunk, out, left_strict),
                B_PLATEAU | B_SPAN | B_TAIL => fill(out, right.tail, chunk.len()),
                B_NAN => fill(out, f64::NAN, chunk.len()),
                _ => {
                    for &x in chunk {
                        out.push(if x <= 0.0 {
                            0.0
                        } else if x < apex.x {
                            eval_one(left, x, left_strict)
                        } else if x.is_nan() {
                            f64::NAN
                        } else {
                            right.tail
                        });
                    }
                }
            }
        }
        return;
    }
    let first = right.knots[0];
    let last = right.knots[right.knots.len() - 1];
    if left_strict && right_strict && left.len() <= SCAN_KNOTS && right.knots.len() <= SCAN_KNOTS {
        // Production-shaped models (strict knots, modest counts) skip
        // the classification pre-pass entirely: the compaction kernel
        // is bit-correct for every chunk, and it rediscovers pure
        // chunks from its own lane counts, so a separate classify sweep
        // would be pure overhead on the mixed chunks that dominate
        // shuffled inputs.
        for chunk in xs.chunks(width) {
            eval_compacted(left, right, apex, chunk, out);
        }
        return;
    }
    for chunk in xs.chunks(width) {
        let mask = classify(chunk, apex.x, first.x, last.x);
        match mask {
            B_ZERO => fill(out, 0.0, chunk.len()),
            B_LEFT => eval_left(left, apex.x, chunk, out, left_strict),
            B_PLATEAU => fill(out, right.plateau, chunk.len()),
            B_SPAN => eval_segmented(&right.knots, chunk, out, right_strict),
            B_TAIL => fill(out, right.tail, chunk.len()),
            B_NAN => fill(out, f64::NAN, chunk.len()),
            _ => {
                // Mixed chunk: the exact scalar branch chain, lane by lane.
                for &x in chunk {
                    out.push(if x <= 0.0 {
                        0.0
                    } else if x < apex.x {
                        eval_one(left, x, left_strict)
                    } else if x.is_nan() {
                        f64::NAN
                    } else if x < first.x {
                        right.plateau
                    } else if x > last.x {
                        right.tail
                    } else {
                        eval_one(&right.knots, x, right_strict)
                    });
                }
            }
        }
    }
}

/// Chunk evaluation by region compaction — the single dispatch for
/// strict, modest-sized knot arrays (the caller checks that). Correct
/// for *every* chunk composition; no classification pre-pass needed.
///
/// Randomly ordered intensities almost never produce single-region
/// chunks, so mixed chunks are the hot path for unsorted batches. Per
/// 64-lane sub-block, one branch-free pass writes the constant regions
/// (zero / plateau / tail) and compacts the lane indices that need a
/// real interpolation into two small lists (left hull, right span).
/// The compaction increments are `usize::from(bool)` adds, so the pass
/// has no data-dependent branches; the per-region loops that follow
/// then run the [`eval_knots_strict`] search over one fixed knot array
/// each, with perfectly predictable control flow. This is what beats
/// the scalar chain on mixed chunks: the ~50/50 apex split that
/// mispredicts in a branch chain becomes two dense loops.
///
/// The lane counts double as a free chunk classification: a sub-block
/// whose every lane joined one list is a pure-region chunk, and those
/// dispatch to [`eval_segmented`], whose single-segment vector loop is
/// what makes sorted batches fast. Both-lists-empty means every lane
/// kept its constant. So the pure-chunk fast paths survive without any
/// separate classify sweep.
///
/// Bit-identity per lane, mirroring the scalar chain's precedence:
/// a lane joins the left list on exactly the scalar `x > 0 && x <
/// apex.x` test, and the right list on the negation of every earlier
/// branch in the chain (`!(x <= 0) & !(x < apex.x) & !(x < first.x) &
/// !(x > last.x)`). A NaN lane fails every ordered comparison, so all
/// four negations hold and it lands in the right list, where the
/// interpolation propagates it with payload intact — the same
/// first-segment fall-through the scalar chain takes. The constant
/// pass writes plateau/tail into lanes the lists later overwrite; only
/// uncontested lanes keep those constants.
fn eval_compacted(
    left: &[Point],
    right: &RightRegion,
    apex: Point,
    chunk: &[f64],
    out: &mut Vec<f64>,
) {
    let rk: &[Point] = &right.knots;
    let (first, last) = (rk[0], rk[rk.len() - 1]);
    let mut idx_l = [0u32; 64];
    let mut idx_r = [0u32; 64];
    let mut buf = [0.0f64; 64];
    for sub in chunk.chunks(64) {
        let (mut n_l, mut n_r) = (0usize, 0usize);
        for (j, &x) in sub.iter().enumerate() {
            // `&` instead of `&&`: no short-circuit branch on a
            // data-dependent predicate. The negated comparisons are
            // NaN-aware on purpose (`!(x <= 0.0)` is true for NaN where
            // `x > 0.0` is not), keeping NaN lanes out of both compacted
            // index lists so the placeholder write propagates them.
            let in_left = (x > 0.0) & (x < apex.x);
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let in_right = !(x <= 0.0) & !(x < apex.x) & !(x < first.x) & !(x > last.x);
            idx_l[n_l] = j as u32;
            n_l += usize::from(in_left);
            idx_r[n_r] = j as u32;
            n_r += usize::from(in_right);
            // Constant regions inline; interpolated lanes get a
            // placeholder the region loops overwrite. The select is a
            // pair of cmovs, and writing to the stack buffer instead of
            // pushing skips a capacity check per lane.
            buf[j] = if x <= 0.0 {
                0.0
            } else if x < first.x {
                right.plateau
            } else {
                right.tail
            };
        }
        if n_l == sub.len() {
            eval_segmented(left, sub, out, true);
            continue;
        }
        if n_r == sub.len() {
            eval_segmented(rk, sub, out, true);
            continue;
        }
        for &j in &idx_l[..n_l] {
            buf[j as usize] = eval_knots_strict(left, sub[j as usize]);
        }
        for &j in &idx_r[..n_r] {
            buf[j as usize] = eval_knots_strict(rk, sub[j as usize]);
        }
        out.extend_from_slice(&buf[..sub.len()]);
    }
}

/// Whether the knot `x`s strictly increase — the precondition for the
/// branchless [`eval_knots_strict`] search (no duplicate-`x` segments, at
/// least one real segment). Computed once per batch, not per lane.
#[inline]
fn strictly_increasing(knots: &[Point]) -> bool {
    knots.len() >= 2 && knots.windows(2).all(|w| w[0].x < w[1].x)
}

/// One lane of piecewise evaluation: the branchless search when the knots
/// qualify, the scalar reference otherwise.
#[inline]
fn eval_one(knots: &[Point], x: f64, strict: bool) -> f64 {
    if strict {
        eval_knots_strict(knots, x)
    } else {
        geometry::piecewise_eval(knots, x)
    }
}

/// [`geometry::piecewise_eval`] for strictly-increasing knots, with the
/// branchy binary search replaced by a conditional-move search whose
/// trip count is uniform across lanes (the interval halves every
/// iteration no matter which side wins), so independent lanes pipeline
/// instead of stalling on ~50%-mispredicted search branches.
///
/// Bit-identity: the search is the same algorithm as the scalar one, so
/// it lands on the same segment; the interpolation is the same expression
/// in the same operation order; and the end-knot early returns become
/// final selects on the same comparisons. Strictly-increasing `x`s rule
/// out the duplicate-`x` (`b.x == a.x`) scalar branch, and a NaN `x`
/// fails every ordered comparison on both paths, yielding the same
/// NaN-propagating interpolation over the first segment.
#[inline]
fn eval_knots_strict(knots: &[Point], x: f64) -> f64 {
    debug_assert!(strictly_increasing(knots));
    let n = knots.len();
    let mut lo = 0usize;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let le = knots[mid].x <= x;
        lo = if le { mid } else { lo };
        hi = if le { hi } else { mid };
    }
    let (a, b) = (knots[lo], knots[hi]);
    let mut y = a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x);
    y = if x <= knots[0].x { knots[0].y } else { y };
    y = if x >= knots[n - 1].x {
        knots[n - 1].y
    } else {
        y
    };
    y
}

/// Chunk region classification from the chunk's min/max. A pure-class
/// mask comes back exactly when every lane falls in that class; any
/// other chunk gets a multi-bit "mixed" mask. The sweep is three
/// vectorizable lane operations (min, max, NaN-accumulate) instead of a
/// per-lane class computation — on shuffled inputs almost every chunk
/// is mixed, so the pre-pass must be as thin as possible.
///
/// `f64::min`/`max` ignore NaN operands, so the bounds describe only
/// the non-NaN lanes; the separate `nan` flag forces any NaN-carrying
/// chunk into the mixed path (whose lane handling propagates NaN the
/// way the scalar chain does), except the all-NaN chunk which keeps its
/// dedicated fill class.
#[inline]
fn classify(chunk: &[f64], apex_x: f64, first_x: f64, last_x: f64) -> u8 {
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    let mut nan = false;
    for &x in chunk {
        mn = mn.min(x);
        mx = mx.max(x);
        nan |= x.is_nan();
    }
    if nan {
        // `mn > mx` only when min/max saw no finite lane at all.
        return if mn > mx { B_NAN } else { B_NAN | B_SPAN };
    }
    if mx <= 0.0 {
        return B_ZERO;
    }
    if (mn > 0.0) & (mx < apex_x) {
        return B_LEFT;
    }
    if (mn >= apex_x) & (mx < first_x) {
        return B_PLATEAU;
    }
    if (mn >= first_x) & (mx <= last_x) {
        return B_SPAN;
    }
    if mn > last_x {
        return B_TAIL;
    }
    B_ZERO | B_LEFT
}

/// Appends `n` copies of `v`.
#[inline]
fn fill(out: &mut Vec<f64>, v: f64, n: usize) {
    out.resize(out.len() + n, v);
}

/// Left-region chunk: every lane satisfies `0 < x < apex_x`, so the outer
/// branch chain is already decided and only the hull interpolation runs.
#[inline]
fn eval_left(left: &[Point], apex_x: f64, chunk: &[f64], out: &mut Vec<f64>, strict: bool) {
    debug_assert_eq!(left.last().map(|p| p.x), Some(apex_x));
    eval_segmented(left, chunk, out, strict);
}

/// Piecewise-linear chunk evaluation: if every lane lands strictly inside
/// one segment, run the straight-line interpolation as a vector loop with
/// hoisted knot constants; otherwise evaluate lane by lane with the
/// branchless search (still skipping the outer region branches).
#[inline]
fn eval_segmented(knots: &[Point], chunk: &[f64], out: &mut Vec<f64>, strict: bool) {
    if knots.len() >= 2 {
        // min/max are exact here: no chunk lane is NaN (NaN never
        // classifies into a knot span).
        let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in chunk {
            mn = mn.min(x);
            mx = mx.max(x);
        }
        // Strict interior bounds keep the end-knot early returns of
        // `piecewise_eval` (which return the knot height exactly, not the
        // interpolation formula) out of the vector path.
        if mn > knots[0].x && mx < knots[knots.len() - 1].x {
            let seg = segment_index(knots, mn);
            let (a, b) = (knots[seg], knots[seg + 1]);
            if mx < b.x && b.x != a.x {
                interpolate_segment(a, b, chunk, out);
                return;
            }
        }
    }
    if strict && knots.len() <= SCAN_KNOTS {
        eval_counted(knots, chunk, out);
    } else if strict {
        for &x in chunk {
            out.push(eval_knots_strict(knots, x));
        }
    } else {
        for &x in chunk {
            out.push(geometry::piecewise_eval(knots, x));
        }
    }
}

/// Knot-count ceiling for the counting-scan segment search: above this,
/// the `O(log k)` conditional-move search beats the `O(k)` scan.
const SCAN_KNOTS: usize = 64;

/// Multi-segment chunk evaluation by counting scan, for strictly
/// increasing knots. (A NaN lane counts zero, interpolates over the
/// first segment, and fails both end selects — the scalar NaN
/// fall-through exactly.) The segment index is
/// `#{i >= 1 : knots[i].x <= x}`, which for
/// strictly increasing `x`s equals the binary-search index — but the
/// count is data-independent straight-line code the compiler vectorizes
/// (one broadcast compare-and-accumulate sweep per knot), where any
/// search would branch or gather per lane.
///
/// Bit-identity with [`geometry::piecewise_eval`]: interior lanes get the
/// same segment and the same interpolation expression; lanes at or beyond
/// an end knot get the interpolation overwritten by the same early-return
/// constants through final selects (at `x == knots[0].x` the clamped
/// interpolation is evaluated but discarded).
fn eval_counted(knots: &[Point], chunk: &[f64], out: &mut Vec<f64>) {
    let n = knots.len();
    debug_assert!(n >= 2);
    let (first, last) = (knots[0], knots[n - 1]);
    // Fixed-width sub-blocks keep the per-lane counts in a stack array
    // regardless of the caller's chunk width.
    for sub in chunk.chunks(64) {
        let mut cnt = [0u32; 64];
        let cnt = &mut cnt[..sub.len()];
        for k in &knots[1..] {
            let kx = k.x;
            for (c, &x) in cnt.iter_mut().zip(sub) {
                *c += u32::from(kx <= x);
            }
        }
        for (&c, &x) in cnt.iter().zip(sub) {
            let lo = (c as usize).min(n - 2);
            let (a, b) = (knots[lo], knots[lo + 1]);
            let mut y = a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x);
            y = if x <= first.x { first.y } else { y };
            y = if x >= last.x { last.y } else { y };
            out.push(y);
        }
    }
}

/// The binary search of [`geometry::piecewise_eval`]: the index `i` with
/// `knots[i].x <= x` and (for interior `x`) `x < knots[i+1].x`.
#[inline]
fn segment_index(knots: &[Point], x: f64) -> usize {
    let mut lo = 0;
    let mut hi = knots.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if knots[mid].x <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One-segment interpolation over a whole chunk — the expression and
/// operation order of [`geometry::piecewise_eval`]'s last line, with the
/// knot loads hoisted.
#[inline]
fn interpolate_segment(a: Point, b: Point, chunk: &[f64], out: &mut Vec<f64>) {
    let dy = b.y - a.y;
    let dx = b.x - a.x;
    for &x in chunk {
        out.push(a.y + (x - a.x) * dy / dx);
    }
}
