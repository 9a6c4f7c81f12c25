//! Shared fixtures for core unit tests: a small deterministic temporal set
//! plus answer-comparison helpers that tolerate floating-point score noise
//! and permutations among exactly-tied ranks.

use crate::object::TemporalSet;
use crate::topk::TopK;
use chronorank_curve::PiecewiseLinear;

/// Query intervals exercised by every method's correctness test.
pub const INTERVALS: &[(f64, f64)] = &[
    (0.0, 20.0),
    (1.0, 5.0),
    (4.0, 8.0),
    (7.5, 12.5),
    (0.0, 0.5),
    (19.0, 25.0),
    (-5.0, 2.0),
    (3.0, 3.0),
    (10.0, 10.5),
];

/// Ten deterministic, intentionally awkward objects: unaligned domains,
/// differing segment counts, flats, spikes, and one all-zero curve.
pub fn small_set() -> TemporalSet {
    let curves = vec![
        // o0: constant 1 over [0, 20]
        PiecewiseLinear::from_points(&[(0.0, 1.0), (20.0, 1.0)]).unwrap(),
        // o1: triangle peaking at t=6
        PiecewiseLinear::from_points(&[(2.0, 0.0), (6.0, 8.0), (10.0, 0.0)]).unwrap(),
        // o2: late riser
        PiecewiseLinear::from_points(&[(10.0, 0.0), (15.0, 5.0), (20.0, 5.0)]).unwrap(),
        // o3: sawtooth
        PiecewiseLinear::from_points(&[
            (0.0, 2.0),
            (3.0, 0.5),
            (5.0, 4.0),
            (9.0, 0.5),
            (13.0, 4.0),
            (18.0, 1.0),
        ])
        .unwrap(),
        // o4: short early spike
        PiecewiseLinear::from_points(&[(0.5, 0.0), (1.0, 10.0), (1.5, 0.0)]).unwrap(),
        // o5: all zero
        PiecewiseLinear::from_points(&[(0.0, 0.0), (20.0, 0.0)]).unwrap(),
        // o6: gentle slope over the whole domain
        PiecewiseLinear::from_points(&[(0.0, 0.1), (20.0, 3.0)]).unwrap(),
        // o7: two humps, many segments
        PiecewiseLinear::from_points(&[
            (1.0, 0.0),
            (2.0, 3.0),
            (3.0, 0.2),
            (4.0, 0.2),
            (11.0, 6.0),
            (12.0, 0.0),
            (16.0, 0.0),
        ])
        .unwrap(),
        // o8: constant 2 on a sub-domain
        PiecewiseLinear::from_points(&[(5.0, 2.0), (12.0, 2.0)]).unwrap(),
        // o9: long flat then a late spike
        PiecewiseLinear::from_points(&[(0.0, 0.5), (17.0, 0.5), (18.0, 9.0), (19.0, 0.5)]).unwrap(),
    ];
    TemporalSet::from_curves(curves).unwrap()
}

/// `objects` curves of `segments` segments each; every pair of objects
/// shares its vertex times, so equal left endpoints must keep object
/// order through a merge or any number of merged runs.
pub fn wavy_set(objects: usize, segments: usize) -> TemporalSet {
    let curve = |i: usize| {
        let (shift, step) = (0.37 * (i / 2) as f64, 1.0 + 0.01 * (i / 2) as f64);
        let point = |j: usize| (shift + step * j as f64, 1.0 + ((i * 31 + j * 17) % 23) as f64);
        PiecewiseLinear::from_points(&(0..=segments).map(point).collect::<Vec<_>>()).unwrap()
    };
    TemporalSet::from_curves((0..objects).map(curve).collect()).unwrap()
}

/// Assert two top-k answers agree: same scores rank-by-rank (within slack)
/// and same ids wherever scores are not tied.
pub fn assert_same_answer(want: &TopK, got: &TopK, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: answer lengths differ");
    for j in 0..want.len() {
        let (wid, ws) = want.rank(j);
        let (gid, gs) = got.rank(j);
        let scale = 1.0_f64.max(ws.abs());
        assert!(
            (ws - gs).abs() <= 1e-7 * scale,
            "{ctx}: rank {j} score mismatch: want {ws} ({wid}), got {gs} ({gid})"
        );
        // Ids must match unless the adjacent scores tie (permutations among
        // equal scores are legal).
        if wid != gid {
            let tied_in_want =
                want.entries().iter().any(|&(id, s)| id == gid && (s - ws).abs() <= 1e-7 * scale);
            assert!(
                tied_in_want,
                "{ctx}: rank {j} id mismatch without a tie: want {wid} ({ws}), got {gid} ({gs})"
            );
        }
    }
}
