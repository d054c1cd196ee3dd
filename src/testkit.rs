//! Shared fixtures for the dcqx cross-crate integration tests, and the naive
//! reference the maintained paths are checked against.
//!
//! The reference ([`naive_cq`], [`naive_dcq`]) is deliberately the dumbest
//! correct thing: backtracking nested loops over plain `Vec<Vec<Value>>`
//! copies of the relations, and a `BTreeSet` difference.  It reads the query
//! AST and the stored rows and **nothing else** of the system — no operator
//! from `dcq-exec`, no `dcq-incremental`, none of `dcq-core`'s `easy`,
//! `baseline` or `planner` — so agreeing with it is not agreeing with oneself.
//! Its cost is a product of relation sizes; keep instances to a few hundred
//! tuples.

use dcq_core::query::{ConjunctiveQuery, Dcq};
use dcq_storage::{Attr, Database, Relation, Value};
use std::collections::BTreeSet;

/// `Q(D)` as a set of head tuples, by backtracking nested loops: atoms are
/// taken in body order, every stored row of an atom's relation is tried
/// against the bindings made so far, and a complete binding emits its head
/// projection.  A repeated variable, within an atom or across atoms, is an
/// equality like any other.
///
/// Panics on a relation the database does not hold or a head variable no atom
/// binds — a broken test fixture, not an input to handle.
pub fn naive_cq(cq: &ConjunctiveQuery, db: &Database) -> BTreeSet<Vec<Value>> {
    let tables: Vec<Vec<Vec<Value>>> = cq
        .atoms
        .iter()
        .map(|atom| {
            let stored = db
                .get(&atom.relation)
                .unwrap_or_else(|e| panic!("naive_cq: {e}"));
            stored.iter().map(|row| row.values().to_vec()).collect()
        })
        .collect();
    let mut out = BTreeSet::new();
    let mut bound: Vec<(&Attr, Value)> = Vec::new();
    extend(cq, &tables, 0, &mut bound, &mut out);
    out
}

/// One level of the nested loop: bind atom `depth` every way the bindings so
/// far allow, recurse, unbind.
fn extend<'q>(
    cq: &'q ConjunctiveQuery,
    tables: &[Vec<Vec<Value>>],
    depth: usize,
    bound: &mut Vec<(&'q Attr, Value)>,
    out: &mut BTreeSet<Vec<Value>>,
) {
    let Some(atom) = cq.atoms.get(depth) else {
        let lookup = |var: &Attr| {
            let hit = bound.iter().find(|(v, _)| *v == var);
            hit.unwrap_or_else(|| panic!("naive_cq: head variable {var} is unbound"))
                .1
                .clone()
        };
        out.insert(cq.head.iter().map(lookup).collect());
        return;
    };
    for row in &tables[depth] {
        assert_eq!(row.len(), atom.vars.len(), "naive_cq: arity of {atom}");
        let mark = bound.len();
        let mut consistent = true;
        for (var, value) in atom.vars.iter().zip(row) {
            match bound.iter().find(|(v, _)| *v == var) {
                Some((_, seen)) if seen == value => {}
                Some(_) => {
                    consistent = false;
                    break;
                }
                None => bound.push((var, value.clone())),
            }
        }
        if consistent {
            extend(cq, tables, depth + 1, bound, out);
        }
        bound.truncate(mark);
    }
}

/// `Q₁(D) − Q₂(D)` by two [`naive_cq`] evaluations and a set difference.
pub fn naive_dcq(dcq: &Dcq, db: &Database) -> BTreeSet<Vec<Value>> {
    let negative = naive_cq(&dcq.q2, db);
    let mut out = naive_cq(&dcq.q1, db);
    out.retain(|tuple| !negative.contains(tuple));
    out
}

/// Build a small deterministic database with the `Graph` / `Triple` / `Edge` / `Node`
/// relations used across the integration tests.
pub fn small_graph_db() -> Database {
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
            vec![5, 6],
            vec![6, 4],
        ],
    ))
    .unwrap();
    db.add(Relation::from_int_rows(
        "Triple",
        &["node1", "node2", "node3"],
        vec![
            vec![1, 2, 3],
            vec![2, 3, 1],
            vec![3, 4, 5],
            vec![1, 2, 4],
            vec![4, 5, 6],
            vec![9, 9, 9],
        ],
    ))
    .unwrap();
    db.add(Relation::from_int_rows(
        "Edge",
        &["src", "dst"],
        vec![vec![1, 3], vec![2, 4], vec![3, 5], vec![9, 9]],
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
