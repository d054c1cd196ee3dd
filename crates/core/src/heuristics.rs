//! Heuristics for hard DCQs (§4.2).
//!
//! When a DCQ is not difference-linear a linear-time algorithm is impossible
//! (Theorem 2.4), but the baseline can still be beaten by exploiting the fact that
//! `Q₁ − Q₂ = Q₁ − (Q₁ ∩ Q₂)`:
//!
//! * [`probe_heuristic`] (Theorem 4.8 / Corollary 2.5) — materialize `Q₁`, then for
//!   every result decide the Boolean residual query `Q₂∅` obtained by substituting
//!   the output values into `Q₂`.  When `Q₂` is linear-reducible the residual check
//!   is a constant number of hash probes, giving the `O(cost(Q₁))` bound of
//!   Corollary 2.5; otherwise each probe solves a constant-size Boolean CQ over the
//!   matching tuples.
//! * [`intersection_heuristic`] (Theorem 4.10) — materialize `Q₁`, add it to `Q₂`'s
//!   body as an extra relation over `y` (the query `Q₂⊕`), evaluate that
//!   intersection query with the best available CQ algorithm, and subtract.

use crate::baseline::{evaluate_cq, CqStrategy};
use crate::error::DcqError;
use crate::query::Dcq;
use crate::Result;
use dcq_exec::{free_connex_evaluate, generic_join, reduce, ExecError};
use dcq_hypergraph::is_linear_reducible;
use dcq_storage::{Attr, HashIndex, Relation, Schema};
use dcq_storage::{Database, Row};

/// Outcome of a heuristic evaluation, with the intermediate sizes that determine the
/// complexity bounds of Table 1.
#[derive(Clone, Debug)]
pub struct HeuristicOutcome {
    /// The DCQ result.
    pub result: Relation,
    /// `|Q₁(D₁)|` — the number of candidate tuples probed.
    pub out1: usize,
    /// Number of candidates that were found in `Q₂` (i.e. `|Q₁ ∩ Q₂|`).
    pub intersected: usize,
}

/// Theorem 4.8 / Corollary 2.5: evaluate `Q₁`, then filter its results by probing
/// `Q₂` tuple by tuple.
///
/// `strategy` chooses the evaluator for `Q₁` (the `cost(Q₁)` term).
pub fn probe_heuristic(dcq: &Dcq, db: &Database, strategy: CqStrategy) -> Result<HeuristicOutcome> {
    let head = dcq.head_schema();
    let q1_result = evaluate_cq(&dcq.q1, db, strategy)?;
    let q2_atoms = dcq.q2.bind(db)?;
    let q2_head = dcq.q2.head_schema();

    // Fast path (Corollary 2.5): Q2 linear-reducible ⇒ reduce it to a full join over
    // y and check membership edge by edge with hash indexes.
    let q2_edges = dcq.q2.edges();
    if is_linear_reducible(&dcq.q2.head_set(), &q2_edges) {
        let reduced = reduce(&q2_head, &q2_atoms).map_err(DcqError::from)?;
        let probes: Vec<(Vec<usize>, dcq_storage::FastHashSet<Row>)> = reduced
            .relations
            .iter()
            .map(|rel| {
                let positions = head
                    .positions_of(rel.schema().attrs())
                    .expect("reduced relations only mention output attributes");
                (positions, rel.to_row_set())
            })
            .collect();
        let mut out = Relation::new("probe_heuristic", head.clone());
        let mut intersected = 0usize;
        for row in q1_result.iter() {
            let in_q2 = probes
                .iter()
                .all(|(positions, set)| set.contains(&row.project(positions)));
            if in_q2 {
                intersected += 1;
            } else {
                out.push_unchecked(row.clone());
            }
        }
        out.assume_distinct();
        return Ok(HeuristicOutcome {
            out1: q1_result.len(),
            intersected,
            result: out,
        });
    }

    // General path (Theorem 4.8): per tuple, solve the Boolean residual query Q2∅.
    // Index every Q2 atom by its output attributes once, then backtrack over the
    // matching tuples' non-output attributes.
    let probe_indexes: Vec<ProbeAtom> = q2_atoms
        .iter()
        .map(|rel| ProbeAtom::new(rel, &head))
        .collect::<Result<_>>()?;
    let mut out = Relation::new("probe_heuristic", head.clone());
    let mut intersected = 0usize;
    for row in q1_result.iter() {
        if residual_is_satisfiable(&probe_indexes, row) {
            intersected += 1;
        } else {
            out.push_unchecked(row.clone());
        }
    }
    out.assume_distinct();
    Ok(HeuristicOutcome {
        out1: q1_result.len(),
        intersected,
        result: out,
    })
}

/// A `Q₂` atom prepared for per-tuple probing: indexed by its output attributes,
/// with the non-output attributes kept for the residual Boolean check.
struct ProbeAtom {
    index: HashIndex,
    /// Positions (in the DCQ head) of this atom's output attributes.
    head_positions: Vec<usize>,
    /// The atom's rows (indexed by `index`).
    rows: Vec<Row>,
    /// Positions (in the atom's schema) of its non-output attributes.
    residual_positions: Vec<usize>,
    /// The non-output attributes themselves.
    residual_attrs: Vec<Attr>,
}

impl ProbeAtom {
    fn new(rel: &Relation, head: &Schema) -> Result<Self> {
        let output_attrs: Vec<Attr> = rel
            .schema()
            .iter()
            .filter(|a| head.contains(a))
            .cloned()
            .collect();
        let residual_attrs: Vec<Attr> = rel
            .schema()
            .iter()
            .filter(|a| !head.contains(a))
            .cloned()
            .collect();
        let index = HashIndex::build(rel, &output_attrs).map_err(DcqError::from)?;
        let head_positions = output_attrs
            .iter()
            .map(|a| head.position(a).expect("output attr is in head"))
            .collect();
        let residual_positions = rel
            .schema()
            .positions_of(&residual_attrs)
            .expect("residual attrs come from the schema");
        Ok(ProbeAtom {
            index,
            head_positions,
            rows: rel.rows().to_vec(),
            residual_positions,
            residual_attrs,
        })
    }

    /// The rows of this atom compatible with the candidate output tuple, projected
    /// onto the non-output attributes.
    fn residual_rows(&self, candidate: &Row) -> Vec<Row> {
        let key = candidate.project(&self.head_positions);
        self.index
            .get(&key)
            .iter()
            .map(|&i| self.rows[i].project(&self.residual_positions))
            .collect()
    }
}

/// Decide whether the Boolean residual query (all `Q₂` atoms with output attributes
/// bound to `candidate`) has a satisfying assignment of the non-output attributes.
fn residual_is_satisfiable(atoms: &[ProbeAtom], candidate: &Row) -> bool {
    // Collect per-atom candidate rows; an atom with no compatible row refutes Q₂.
    let mut residuals: Vec<(Vec<Attr>, Vec<Row>)> = Vec::with_capacity(atoms.len());
    for atom in atoms {
        let rows = atom.residual_rows(candidate);
        if rows.is_empty() {
            return false;
        }
        residuals.push((atom.residual_attrs.clone(), rows));
    }
    // Backtracking existence check over the residual atoms (constant query size).
    let mut binding: Vec<(Attr, dcq_storage::Value)> = Vec::new();
    exists_assignment(&residuals, 0, &mut binding)
}

fn exists_assignment(
    residuals: &[(Vec<Attr>, Vec<Row>)],
    next: usize,
    binding: &mut Vec<(Attr, dcq_storage::Value)>,
) -> bool {
    if next == residuals.len() {
        return true;
    }
    let (attrs, rows) = &residuals[next];
    'rows: for row in rows {
        // Check consistency with the current binding and record new bindings.
        let mut added = 0usize;
        for (attr, value) in attrs.iter().zip(row.iter()) {
            match binding.iter().find(|(a, _)| a == attr) {
                Some((_, bound)) if bound != value => {
                    for _ in 0..added {
                        binding.pop();
                    }
                    continue 'rows;
                }
                Some(_) => {}
                None => {
                    binding.push((attr.clone(), value.clone()));
                    added += 1;
                }
            }
        }
        if exists_assignment(residuals, next + 1, binding) {
            return true;
        }
        for _ in 0..added {
            binding.pop();
        }
    }
    false
}

/// Theorem 4.10: evaluate the intersection query `Q₂⊕ = (y, V₂, {y} ∪ E₂)` — `Q₂`
/// with the materialized `Q₁` result added as an extra relation over the output
/// attributes — and subtract it from `Q₁`.
pub fn intersection_heuristic(
    dcq: &Dcq,
    db: &Database,
    strategy: CqStrategy,
) -> Result<HeuristicOutcome> {
    let head = dcq.head_schema();
    let q1_result = evaluate_cq(&dcq.q1, db, strategy)?;
    let out1 = q1_result.len();

    // Build Q2⊕'s atom list: Q2's atoms plus the Q1 result as a relation over y.
    let mut atoms = dcq.q2.bind(db)?;
    let mut q1_atom = q1_result.clone();
    q1_atom.set_name("Q1_result");
    atoms.push(q1_atom);

    // Evaluate π_y(Q2⊕) with the best applicable algorithm.
    let intersection = match free_connex_evaluate(&head, &atoms) {
        Ok(rel) => rel,
        Err(ExecError::NotLinearReducible { .. }) | Err(ExecError::NotAcyclic { .. }) => {
            generic_join(&head, &atoms).map_err(DcqError::from)?
        }
        Err(other) => return Err(other.into()),
    };

    let mut result = q1_result.minus(&intersection)?;
    result.set_name("intersection_heuristic");
    Ok(HeuristicOutcome {
        out1,
        intersected: intersection.len(),
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_dcq;
    use crate::parse::parse_dcq;
    use dcq_storage::row::int_row;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![
                vec![1, 2],
                vec![2, 3],
                vec![3, 1],
                vec![3, 4],
                vec![4, 5],
                vec![5, 3],
                vec![2, 4],
                vec![4, 1],
            ],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Edge",
            &["src", "dst"],
            vec![vec![1, 2], vec![2, 3], vec![1, 3], vec![4, 5], vec![9, 9]],
        ))
        .unwrap();
        db.add(Relation::from_int_rows(
            "Node",
            &["id"],
            (1..=6).map(|i| vec![i]).collect::<Vec<_>>(),
        ))
        .unwrap();
        db
    }

    fn check_both_heuristics(src: &str) {
        let dcq = parse_dcq(src).unwrap();
        let db = db();
        let expected = baseline_dcq(&dcq, &db, CqStrategy::Vanilla).unwrap();
        let probe = probe_heuristic(&dcq, &db, CqStrategy::Smart).unwrap();
        let inter = intersection_heuristic(&dcq, &db, CqStrategy::Smart).unwrap();
        assert_eq!(
            probe.result.sorted_rows(),
            expected.sorted_rows(),
            "probe heuristic disagrees on {src}"
        );
        assert_eq!(
            inter.result.sorted_rows(),
            expected.sorted_rows(),
            "intersection heuristic disagrees on {src}"
        );
        assert_eq!(probe.out1, inter.out1);
    }

    #[test]
    fn corollary_2_5_fast_path_on_linear_reducible_q2() {
        // Q2 is a (linear-reducible) triangle over the output attributes.
        check_both_heuristics(
            "Q(a, b, c) :- Graph(a, b), Graph(b, c) EXCEPT Edge(a, b), Edge(b, c), Edge(a, c)",
        );
    }

    #[test]
    fn lemma_4_3_hard_core() {
        // R1(x1,x3) − π_{x1,x3}(R2(x1,x2) ⋈ R3(x2,x3)): Q2 non-linear-reducible, so
        // the probe heuristic exercises the general Theorem 4.8 path.
        check_both_heuristics("Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)");
    }

    #[test]
    fn lemma_4_4_hard_core() {
        // R1(x1) − π_{x1}(triangle through x1).
        check_both_heuristics("Q(a) :- Node(a) EXCEPT Graph(a, b), Graph(b, c), Graph(c, a)");
    }

    #[test]
    fn example_4_11_edges_not_in_any_triangle() {
        check_both_heuristics("Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c), Graph(a, c)");
    }

    #[test]
    fn hard_case_3_lemma_4_6() {
        // Q1 = path, Q2 closes the triangle: difference-linear fails on the augmented
        // edge but both heuristics still apply.
        check_both_heuristics(
            "Q(a, b, c) :- Graph(a, b), Graph(b, c) EXCEPT Edge(a, c), Edge(b, c)",
        );
    }

    #[test]
    fn probe_outcome_counts_are_consistent() {
        let dcq = parse_dcq(
            "Q(a, b, c) :- Graph(a, b), Graph(b, c) EXCEPT Edge(a, b), Edge(b, c), Edge(a, c)",
        )
        .unwrap();
        let db = db();
        let outcome = probe_heuristic(&dcq, &db, CqStrategy::Smart).unwrap();
        assert_eq!(outcome.out1, outcome.result.len() + outcome.intersected);
    }

    #[test]
    fn q1_with_non_output_attribute_probes_correctly() {
        // Q1 projects away b; Q2 hides a non-linear-reducible pattern.
        check_both_heuristics(
            "Q(a, c) :- Graph(a, b), Graph(b, c), Node(c) EXCEPT Graph(a, d), Graph(d, c)",
        );
    }

    #[test]
    fn explicit_small_instance() {
        // Edges of `Edge` that do not participate in a Graph length-2 path a→b→c.
        let dcq = parse_dcq("Q(a, c) :- Edge(a, c) EXCEPT Graph(a, b), Graph(b, c)").unwrap();
        let db = db();
        let outcome = probe_heuristic(&dcq, &db, CqStrategy::Smart).unwrap();
        // Graph length-2 pairs include (1,3) via 2, (2,4) via 3, (2,1) via 3… ;
        // Edge tuples (1,3) is reachable, (1,2),(2,3) are not length-2 endpoints
        // unless a path exists: 1→?→2? no; 2→?→3? no (2→3 direct only, 2→4→? no 4→3).
        // (4,5): 4→?→5? 4→1→2,4→5 direct only — not a 2-path endpoint pair; (9,9): no.
        assert_eq!(
            outcome.result.sorted_rows(),
            vec![
                int_row([1, 2]),
                int_row([2, 3]),
                int_row([4, 5]),
                int_row([9, 9])
            ]
        );
    }
}
