//! Differential property tests for the `Unranker` warm cursor: one
//! unranker per entry point is driven through rank sequences whose gaps
//! hit every edge of the warm step — 0, 1, the row end ±1, the row
//! budget edge ±1, huge forward jumps and backward jumps — and every
//! recovered point must equal the reference engine's bit for bit. The
//! nests span depths 1–6, include empty inner sub-nests (the carry
//! bounces over them) and innermost levels translated next to the `i64`
//! limits. The warm-step counter must also match the contract exactly:
//! a forward gap is stepped iff it crosses at most `depth` rows.

use nrl_core::{run_seq, CollapseSpec, Collapsed};
use nrl_polyhedra::{NestSpec, Space};
use proptest::prelude::*;

const VAR_NAMES: [&str; 6] = ["i", "j", "k", "l", "m", "n"];

/// Gap kinds of one step of a rank sequence.
const GAP_KINDS: u8 = 10;

/// A randomized nest of the given depth with an `N` parameter and a
/// translation `B` of the innermost level. Level 0 is `0..=N−1`; each
/// deeper level either counts `0..=x_q + c` or runs `x_q + 1..=N − 1`,
/// which is empty whenever `x_q = N − 1`. Nests with a negative trip
/// count somewhere are rejected by the properties.
fn arb_nest(depth: usize, shifts: &'static [i64]) -> impl Strategy<Value = (NestSpec, Vec<i64>)> {
    (
        proptest::collection::vec((0usize..6, 0i64..3, 0u8..3), depth - 1),
        2i64..6,
        0usize..shifts.len(),
    )
        .prop_map(move |(shape, n, shift)| {
            let s = Space::new(&VAR_NAMES[..depth], &["N", "B"]);
            let mut bounds = vec![(s.cst(0), s.var("N") - 1)];
            for (k, &(q, c, kind)) in shape.iter().enumerate() {
                let outer = s.var(VAR_NAMES[q % (k + 1)]);
                bounds.push(if kind == 2 {
                    (outer + 1, s.var("N") - 1)
                } else {
                    (s.cst(0), outer + c)
                });
            }
            let (lo, hi) = bounds.pop().expect("depth ≥ 1");
            bounds.push((lo + s.var("B"), hi + s.var("B")));
            let nest = NestSpec::new(s, bounds).expect("structurally valid");
            (nest, vec![n, shifts[shift]])
        })
}

/// Innermost translations: none, and right next to either `i64` limit.
const BOUNDARY_SHIFTS: [i64; 3] = [0, i64::MAX - 64, i64::MIN + 64];

/// The enumerated domain with its row structure: `row[r]` is the row
/// index of rank `r + 1` (rows are maximal runs sharing the outer
/// prefix) and `row_last[w]` the last rank of row `w`.
struct Domain {
    points: Vec<Vec<i64>>,
    row: Vec<usize>,
    row_last: Vec<i128>,
}

impl Domain {
    fn of(nest: &NestSpec, params: &[i64]) -> Domain {
        let mut points = Vec::new();
        run_seq(&nest.bind(params), |p| points.push(p.to_vec()));
        let d = nest.depth();
        let mut row = Vec::with_capacity(points.len());
        let mut row_last = Vec::new();
        for (r, p) in points.iter().enumerate() {
            if r == 0 || points[r - 1][..d - 1] != p[..d - 1] {
                row_last.push(0);
            }
            row.push(row_last.len() - 1);
            *row_last.last_mut().expect("row opened") = r as i128 + 1;
        }
        Domain {
            points,
            row,
            row_last,
        }
    }

    fn total(&self) -> i128 {
        self.points.len() as i128
    }

    /// Rows crossed walking forward from rank `a` to rank `b ≥ a`.
    fn crossings(&self, a: i128, b: i128) -> usize {
        self.row[b as usize - 1] - self.row[a as usize - 1]
    }

    /// The next target after rank `pc` for gap kind `kind`; `amount` in
    /// `0..1000` scales the huge and backward jumps.
    fn target(&self, pc: i128, depth: usize, kind: u8, amount: u32) -> i128 {
        let total = self.total();
        let row = self.row[pc as usize - 1];
        let row_end = self.row_last[row];
        let budget_end = self.row_last[(row + depth).min(self.row_last.len() - 1)];
        let t = match kind {
            0 => pc,
            1 => pc + 1,
            2 => row_end - 1,
            3 => row_end,
            4 => row_end + 1,
            5 => budget_end - 1,
            6 => budget_end,
            7 => budget_end + 1,
            8 => pc + (total - pc) * (amount as i128 + 1) / 1000,
            _ => pc - (pc - 1) * (amount as i128 + 1) / 1000,
        };
        t.clamp(1, total)
    }
}

/// Which `Unranker` entry point a driver exercises.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Adaptive,
    Binary,
    ClosedForm,
    /// `unrank_batch_into` with 1–3 lanes at stride 2 (lane 0 warm).
    Batch,
}

/// Drives one unranker of `entry` through the targets, checking every
/// recovered point against the reference engine, and returns how many
/// warm steps the contract predicts.
fn drive(
    collapsed: &Collapsed,
    dom: &Domain,
    entry: Entry,
    targets: &[i128],
) -> Result<u64, TestCaseError> {
    let d = collapsed.depth();
    let total = dom.total();
    let mut u = collapsed.unranker();
    let mut reference = vec![0i64; d];
    let mut out = vec![0i64; 3 * d];
    let mut cursor: Option<i128> = None;
    let mut expected = 0u64;
    for (step, &pc) in targets.iter().enumerate() {
        if let Some(last) = cursor {
            if pc >= last && dom.crossings(last, pc) <= d {
                expected += 1;
            }
        }
        let lanes = match entry {
            Entry::Batch => (1 + step % 3).min(((total - pc) / 2 + 1) as usize),
            _ => 1,
        };
        let got = &mut out[..lanes * d];
        match entry {
            Entry::Adaptive => u.unrank_into(pc, got),
            Entry::Binary => u.unrank_binary_into(pc, got),
            Entry::ClosedForm => u.unrank_closed_form_into(pc, got),
            Entry::Batch => u.unrank_batch_into(pc, 2, lanes, got),
        }
        for l in 0..lanes {
            let lane_pc = pc + 2 * l as i128;
            collapsed.unrank_reference_into(lane_pc, &mut reference);
            prop_assert_eq!(
                &got[l * d..(l + 1) * d],
                &reference[..],
                "{:?} step {} lane {} at pc={}",
                entry,
                step,
                l,
                lane_pc
            );
            prop_assert_eq!(&reference, &dom.points[lane_pc as usize - 1]);
        }
        // The cursor parks at the highest rank just recovered.
        cursor = Some(pc + 2 * (lanes as i128 - 1));
    }
    Ok(expected)
}

fn check_warm(
    nest: &NestSpec,
    params: &[i64],
    start: u32,
    steps: &[(u8, u32)],
) -> Result<(), TestCaseError> {
    prop_assume!(nest.check_trip_counts(params, false).is_ok());
    let dom = Domain::of(nest, params);
    prop_assume!(dom.total() > 0);
    let collapsed = CollapseSpec::new(nest)
        .expect("spec")
        .bind(params)
        .expect("bind");
    prop_assert_eq!(collapsed.total(), dom.total());
    let d = nest.depth();
    let mut pc = 1 + (dom.total() - 1) * start as i128 / 1000;
    let mut targets = vec![pc];
    for &(kind, amount) in steps {
        pc = dom.target(pc, d, kind, amount);
        targets.push(pc);
    }
    for entry in [
        Entry::Adaptive,
        Entry::Binary,
        Entry::ClosedForm,
        Entry::Batch,
    ] {
        let before = collapsed.stats().warm_step;
        let expected = drive(&collapsed, &dom, entry, &targets)?;
        // The unranker merged its tallies when `drive` dropped it.
        let warm = collapsed.stats().warm_step - before;
        prop_assert_eq!(warm, expected, "{:?} warm steps over {:?}", entry, targets);
    }
    Ok(())
}

fn arb_steps() -> impl Strategy<Value = (u32, Vec<(u8, u32)>)> {
    (
        0u32..1000,
        proptest::collection::vec((0u8..GAP_KINDS, 0u32..1000), 1..40),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn depth1_warm_steps_match_reference(
        (nest, params) in arb_nest(1, &BOUNDARY_SHIFTS),
        (start, steps) in arb_steps(),
    ) {
        check_warm(&nest, &params, start, &steps)?;
    }

    #[test]
    fn depth2_warm_steps_match_reference(
        (nest, params) in arb_nest(2, &BOUNDARY_SHIFTS),
        (start, steps) in arb_steps(),
    ) {
        check_warm(&nest, &params, start, &steps)?;
    }

    #[test]
    fn depth3_warm_steps_match_reference(
        (nest, params) in arb_nest(3, &BOUNDARY_SHIFTS),
        (start, steps) in arb_steps(),
    ) {
        check_warm(&nest, &params, start, &steps)?;
    }

    #[test]
    fn depth4_warm_steps_match_reference(
        (nest, params) in arb_nest(4, &BOUNDARY_SHIFTS),
        (start, steps) in arb_steps(),
    ) {
        check_warm(&nest, &params, start, &steps)?;
    }

    #[test]
    fn depth5_warm_steps_match_reference(
        (nest, params) in arb_nest(5, &BOUNDARY_SHIFTS),
        (start, steps) in arb_steps(),
    ) {
        check_warm(&nest, &params, start, &steps)?;
    }

    #[test]
    fn depth6_warm_steps_match_reference(
        (nest, params) in arb_nest(6, &BOUNDARY_SHIFTS),
        (start, steps) in arb_steps(),
    ) {
        check_warm(&nest, &params, start, &steps)?;
    }
}

/// The gap kinds really reach both sides of the row budget: on a
/// domain with many short rows, a budget-edge gap is stepped and one
/// point further is not.
#[test]
fn budget_edge_is_exact_on_short_rows() {
    let s = Space::new(&["i", "j"], &["N"]);
    // Rows of 3 points: i in 0..N−1, j in i..=i+2.
    let nest = NestSpec::new(
        s.clone(),
        vec![(s.cst(0), s.var("N") - 1), (s.var("i"), s.var("i") + 2)],
    )
    .unwrap();
    let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[50]).unwrap();
    let mut point = [0i64; 2];
    let mut u = collapsed.unranker();
    // Rank 4 opens row 1; depth 2 ⇒ rows 1..=3 are in reach, i.e. up
    // to rank 12 (the last point of row 3).
    u.unrank_into(4, &mut point);
    u.unrank_into(12, &mut point); // warm: 2 crossings
    assert_eq!(point, [3, 5]);
    u.unrank_into(22, &mut point); // cold: row 3 → row 7 is 4 crossings
    assert_eq!(point, [7, 7]);
    u.unrank_into(20, &mut point); // cold: backwards
    assert_eq!(point, [6, 7]);
    drop(u);
    assert_eq!(collapsed.stats().warm_step, 1);
}
