//! Property-based tests: on randomly generated databases, every DCQ evaluation
//! strategy must agree with the naive reference semantics, under both set and bag
//! semantics, and the structural classifiers must be internally consistent.

use dcq_core::bag::{bag_dcq_naive, bag_dcq_rewritten, BagDatabase};
use dcq_core::baseline::{baseline_dcq, evaluate_cq, CqStrategy};
use dcq_core::classify::{classify, DcqClass};
use dcq_core::heuristics::{intersection_heuristic, probe_heuristic};
use dcq_core::parse::parse_dcq;
use dcq_core::planner::{DcqPlanner, Strategy as PlanStrategy};
use dcq_hypergraph::classify::acyclicity_oracles_agree;
use dcq_hypergraph::AttrSet;
use dcq_storage::{BagRelation, Database, Relation, Value};
use dcqx::testkit::naive_dcq;
use proptest::prelude::*;

/// Strategy: a random binary relation over a small domain.
fn binary_relation(
    name: &'static str,
    attrs: [&'static str; 2],
) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0i64..8), 0..40).prop_map(move |pairs| {
        Relation::from_int_rows(
            name,
            &attrs,
            pairs
                .into_iter()
                .map(|(a, b)| vec![a, b])
                .collect::<Vec<_>>(),
        )
        .distinct()
    })
}

/// Strategy: a random ternary relation over a small domain.
fn ternary_relation(name: &'static str) -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..8, 0i64..8, 0i64..8), 0..40).prop_map(move |rows| {
        Relation::from_int_rows(
            name,
            &["a", "b", "c"],
            rows.into_iter()
                .map(|(a, b, c)| vec![a, b, c])
                .collect::<Vec<_>>(),
        )
        .distinct()
    })
}

fn db_from(relations: Vec<Relation>) -> Database {
    let mut db = Database::new();
    for r in relations {
        db.add_or_replace(r);
    }
    db
}

/// The queries exercised by the random-database properties: a mix of easy and hard
/// DCQs covering every strategy the planner can pick.
const QUERIES: &[&str] = &[
    // Difference-linear, same schema (Example 3.3).
    "Q(x, y, z) :- R(x, y), S(y, z) EXCEPT T(x, y), U(y, z)",
    // Difference-linear, ternary minus triangle (Q_G3).
    "Q(x, y, z) :- W(x, y, z) EXCEPT R(x, y), S(y, z), T(z, x)",
    // Difference-linear, projected path on the negative side (Q_G4).
    "Q(x, y, z) :- W(x, y, z) EXCEPT R(x, y), S(y, z), T(z, w)",
    // Hard case (3): cycle-closing edge (Lemma 4.6 / Q_G5 shape).
    "Q(x, y, z) :- R(x, y), S(y, z) EXCEPT T(x, z), U(y, z)",
    // Hard case (2): non-linear-reducible negative side (Lemma 4.3).
    "Q(x, z) :- R(x, z) EXCEPT S(x, y), T(y, z)",
    // Hard case (1): non-free-connex positive side.
    "Q(x, z) :- R(x, y), S(y, z) EXCEPT T(x, z)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The vanilla baseline equals the naive reference, and every applicable
    /// strategy agrees with the baseline, on random data.
    #[test]
    fn strategies_agree_with_baseline(
        r in binary_relation("R", ["x", "y"]),
        s in binary_relation("S", ["y", "z"]),
        t in binary_relation("T", ["x", "z"]),
        u in binary_relation("U", ["y", "z"]),
        w in ternary_relation("W"),
    ) {
        // Re-label the stored schemas: atoms bind positionally, so the stored
        // attribute names are irrelevant; registering them under the expected names
        // keeps the intent clear.
        let db = db_from(vec![r, s, t, u, {
            let mut w = w;
            w.set_name("W");
            w
        }]);
        let planner = DcqPlanner::smart();
        for src in QUERIES {
            let dcq = parse_dcq(src).unwrap();
            let reference = baseline_dcq(&dcq, &db, CqStrategy::Vanilla).unwrap().sorted_rows();
            // The reference itself against nested loops that share no
            // operator with `dcq-exec`.
            prop_assert_eq!(
                reference.iter().map(|row| row.values().to_vec()).collect::<Vec<Vec<Value>>>(),
                naive_dcq(&dcq, &db).into_iter().collect::<Vec<_>>(),
                "vanilla baseline differs from the naive reference on {}", src
            );
            // Planner's automatic choice.
            prop_assert_eq!(
                planner.execute(&dcq, &db).unwrap().sorted_rows(),
                reference.clone(),
                "auto plan differs on {}", src
            );
            // Smart baseline (structure-aware single-CQ evaluation).
            prop_assert_eq!(
                baseline_dcq(&dcq, &db, CqStrategy::Smart).unwrap().sorted_rows(),
                reference.clone(),
                "smart baseline differs on {}", src
            );
            // Both heuristics are always applicable.
            prop_assert_eq!(
                probe_heuristic(&dcq, &db, CqStrategy::Smart).unwrap().result.sorted_rows(),
                reference.clone(),
                "probe heuristic differs on {}", src
            );
            prop_assert_eq!(
                intersection_heuristic(&dcq, &db, CqStrategy::Smart).unwrap().result.sorted_rows(),
                reference.clone(),
                "intersection heuristic differs on {}", src
            );
            // EasyDCQ whenever the dichotomy says the query is easy.
            if classify(&dcq).is_difference_linear() {
                prop_assert_eq!(
                    planner.execute_with(PlanStrategy::EasyLinear, &dcq, &db).unwrap().sorted_rows(),
                    reference.clone(),
                    "EasyDCQ differs on {}", src
                );
            }
        }
    }

    /// The two single-CQ evaluators agree on random data (Yannakakis / acyclic /
    /// generic join vs binary plans).
    #[test]
    fn cq_evaluators_agree(
        r in binary_relation("R", ["x", "y"]),
        s in binary_relation("S", ["y", "z"]),
        t in binary_relation("T", ["x", "z"]),
    ) {
        let db = db_from(vec![r, s, t]);
        for src in [
            "P(x, y, z) :- R(x, y), S(y, z)",
            "P(x, z) :- R(x, y), S(y, z)",
            "P(x, y, z) :- R(x, y), S(y, z), T(x, z)",
            "P(y) :- R(x, y), S(y, z)",
        ] {
            let cq = dcq_core::parse::parse_cq(src).unwrap();
            let vanilla = evaluate_cq(&cq, &db, CqStrategy::Vanilla).unwrap();
            let smart = evaluate_cq(&cq, &db, CqStrategy::Smart).unwrap();
            prop_assert_eq!(vanilla.sorted_rows(), smart.sorted_rows(), "{}", src);
        }
    }

    /// Bag semantics: the partition rewrite agrees with the naive bag difference.
    #[test]
    fn bag_rewrite_agrees_with_naive(
        r1 in proptest::collection::vec(((0i64..5, 0i64..5), 1u64..4), 0..25),
        r2 in proptest::collection::vec(((0i64..5, 0i64..5), 1u64..4), 0..25),
        s1 in proptest::collection::vec(((0i64..5, 0i64..5), 1u64..4), 0..25),
        s2 in proptest::collection::vec(((0i64..5, 0i64..5), 1u64..4), 0..25),
    ) {
        let mut bdb = BagDatabase::new();
        let mk = |name: &str, rows: Vec<((i64, i64), u64)>| {
            BagRelation::from_int_rows_with_counts(
                name,
                &["p", "q"],
                rows.into_iter().map(|((a, b), c)| (vec![a, b], c)).collect::<Vec<_>>(),
            )
        };
        bdb.add(mk("R1", r1));
        bdb.add(mk("R2", r2));
        bdb.add(mk("S1", s1));
        bdb.add(mk("S2", s2));
        let dcq = parse_dcq("Q(x, y, z) :- R1(x, y), R2(y, z) EXCEPT S1(x, y), S2(y, z)").unwrap();
        let naive = bag_dcq_naive(&dcq, &bdb).unwrap();
        let rewritten = bag_dcq_rewritten(&dcq, &bdb).unwrap();
        prop_assert_eq!(naive.sorted_entries(), rewritten.sorted_entries());

        // Also check the non-full projection onto (x, y).
        let dcq = parse_dcq("Q(x, y) :- R1(x, y), R2(y, z) EXCEPT S1(x, y), S2(y, z)").unwrap();
        let naive = bag_dcq_naive(&dcq, &bdb).unwrap();
        let rewritten = bag_dcq_rewritten(&dcq, &bdb).unwrap();
        prop_assert_eq!(naive.sorted_entries(), rewritten.sorted_entries());
    }

    /// The two acyclicity oracles (GYO reduction and ear decomposition) always agree
    /// on random hypergraphs, and the classifier's class implications hold.
    #[test]
    fn structural_classifiers_are_consistent(
        edges in proptest::collection::vec(
            proptest::collection::btree_set(0u32..6, 1..4),
            1..6
        ),
        head in proptest::collection::btree_set(0u32..6, 0..4),
    ) {
        let to_set = |vs: &std::collections::BTreeSet<u32>| {
            AttrSet::from_names(vs.iter().map(|v| format!("x{v}")))
        };
        let edge_sets: Vec<AttrSet> = edges.iter().map(to_set).collect();
        prop_assert!(acyclicity_oracles_agree(&edge_sets));
        // Restrict the head to attributes that actually occur.
        let vertices = edge_sets.iter().fold(AttrSet::empty(), |acc, e| acc.union(e));
        let head_set = to_set(&head).intersect(&vertices);
        let shape = dcq_hypergraph::CqShape::of(&head_set, &edge_sets);
        prop_assert!(shape.invariants_hold());
    }

    /// A DCQ whose negative side never produces anything behaves like its positive
    /// side alone (the reduction used in the Lemma 4.1 hardness argument).
    #[test]
    fn empty_negative_side_is_identity(
        r in binary_relation("R", ["x", "y"]),
        s in binary_relation("S", ["y", "z"]),
    ) {
        let mut db = db_from(vec![r, s]);
        db.add_or_replace(Relation::from_int_rows("Empty", &["x", "y", "z"], vec![]));
        let dcq = parse_dcq("Q(x, y, z) :- R(x, y), S(y, z) EXCEPT Empty(x, y, z)").unwrap();
        let planner = DcqPlanner::smart();
        let result = planner.execute(&dcq, &db).unwrap();
        let q1 = evaluate_cq(&dcq.q1, &db, CqStrategy::Smart).unwrap();
        prop_assert_eq!(result.sorted_rows(), q1.sorted_rows());
        prop_assert_eq!(classify(&dcq).class, DcqClass::DifferenceLinear);
    }
}
