//! Integration tests for the paper's §4 update model: segments appended at
//! the right time edge, indexes staying correct through appends, amortized
//! rebuilds triggering at the documented thresholds.

use chronorank::core::{
    AggKind, ApproxConfig, ApproxIndex, ApproxVariant, Exact1, Exact2, Exact3, IndexConfig,
    RankMethod,
};
use chronorank::curve::Segment;
use chronorank::workloads::{DatasetGenerator, TempConfig, TempGenerator};

fn setup() -> chronorank::core::TemporalSet {
    TempGenerator::new(TempConfig { objects: 40, avg_segments: 30, seed: 13, dropout: 0.0 })
        .generate_set()
}

/// Apply one append to the set and all three exact indexes.
fn append_everywhere(
    set: &mut chronorank::core::TemporalSet,
    e1: &mut Exact1,
    e2: &mut Exact2,
    e3: &mut Exact3,
    id: u32,
    dt: f64,
    v: f64,
) {
    let end = set.object(id).unwrap().curve.end();
    let v_end = set.object(id).unwrap().curve.eval(end).unwrap();
    let seg = Segment::new(end, v_end, end + dt, v);
    set.append_segment(id, seg.t1, seg.v1).unwrap();
    e1.append_segment(id, seg).unwrap();
    e2.append_segment(id, seg).unwrap();
    e3.append_segment(id, seg).unwrap();
}

#[test]
fn all_exact_methods_stay_correct_through_appends() {
    let mut set = setup();
    let mut e1 = Exact1::build(&set, IndexConfig::default()).unwrap();
    let mut e2 = Exact2::build(&set, IndexConfig::default()).unwrap();
    let mut e3 = Exact3::build(&set, IndexConfig::default()).unwrap();
    // A few hundred appends round-robin across objects, values varied.
    for step in 0..300u32 {
        let id = step % set.num_objects() as u32;
        let v = 1.0 + (step % 17) as f64;
        append_everywhere(&mut set, &mut e1, &mut e2, &mut e3, id, 0.5 + (step % 3) as f64, v);
        if step % 60 == 0 {
            // Check both an old window and the fresh edge.
            for (a, b) in [
                (set.t_min(), set.t_min() + 10.0),
                (set.t_max() - 8.0, set.t_max()),
                (set.t_min(), set.t_max()),
            ] {
                let want = set.top_k_bruteforce(a, b, 6);
                for (m, label) in [
                    (&e1 as &dyn RankMethod, "EXACT1"),
                    (&e2 as &dyn RankMethod, "EXACT2"),
                    (&e3 as &dyn RankMethod, "EXACT3"),
                ] {
                    let got = m.top_k(a, b, 6, AggKind::Sum).unwrap();
                    assert_eq!(want.len(), got.len());
                    for j in 0..want.len() {
                        let d = (want.rank(j).1 - got.rank(j).1).abs();
                        assert!(
                            d <= 1e-7 * (1.0 + want.rank(j).1.abs()),
                            "{label} step {step} rank {j}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(e1.num_segments(), set.num_segments());
    assert_eq!(e3.num_entries(), set.num_segments());
}

#[test]
fn exact3_tail_rebuild_preserves_answers() {
    let mut set = setup();
    let mut e3 = Exact3::build(&set, IndexConfig::default()).unwrap();
    for step in 0..400u32 {
        let id = step % set.num_objects() as u32;
        let end = set.object(id).unwrap().curve.end();
        let v_end = set.object(id).unwrap().curve.eval(end).unwrap();
        let seg = Segment::new(end, v_end, end + 1.0, 2.0);
        set.append_segment(id, seg.t1, seg.v1).unwrap();
        e3.append_segment(id, seg).unwrap();
    }
    assert!(e3.needs_rebuild(), "400 appends over ~1200 base segments must trip the threshold");
    let before = e3.top_k(set.t_min(), set.t_max(), 8, AggKind::Sum).unwrap();
    e3.rebuild(&set).unwrap();
    let after = e3.top_k(set.t_min(), set.t_max(), 8, AggKind::Sum).unwrap();
    assert_eq!(before.ids(), after.ids());
    for (b, a) in before.scores().iter().zip(after.scores()) {
        assert!((b - a).abs() <= 1e-7 * (1.0 + b.abs()));
    }
    assert!(!e3.needs_rebuild());
}

#[test]
fn approx_mass_doubling_policy() {
    let mut set = setup();
    let mut idx = ApproxIndex::build(
        &set,
        ApproxVariant::APPX1,
        ApproxConfig { r: 16, kmax: 8, ..Default::default() },
    )
    .unwrap();
    // Appends that do NOT double the mass must not rebuild.
    let id = 0u32;
    let end = set.object(id).unwrap().curve.end();
    set.append_segment(id, end + 1.0, 1.0).unwrap();
    assert!(!idx.maybe_rebuild(&set).unwrap());
    // Now double the mass with one huge segment.
    let need = 2.1 * set.total_mass();
    let end = set.object(id).unwrap().curve.end();
    let dt = 50.0;
    set.append_segment(id, end + dt, 2.0 * need / dt).unwrap();
    assert!(idx.maybe_rebuild(&set).unwrap(), "mass doubled → rebuild");
    // The rebuilt index sees the new data.
    let top = idx.top_k(end, set.t_max(), 1, AggKind::Sum).unwrap();
    assert_eq!(top.ids(), vec![0]);
}
