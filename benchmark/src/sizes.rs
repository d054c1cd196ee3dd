//! Every size the workloads use, in one place.
//!
//! Sizes are counts, never time budgets: a run does the same work whatever
//! the speed of the code under test, so parent and change are compared on
//! identical operations.  `--seconds` scales the repetition counts linearly
//! (the counts below are per second of budget, calibrated once on the 2-core
//! reference host so that the timed region of every workload lasts about
//! `seconds`); it never changes an input's size.

#[derive(Clone, Debug, PartialEq)]
pub struct Sizes {
    /// Set-up is repeated and `setup_s` is the median: at least
    /// `setup_min_reps` times, then on until the repetitions add up to
    /// `setup_min_seconds`, at most `setup_max_reps` times.  Set-up costs
    /// from 4 ms (`oneshot` only generates) to 1.2 s (`bulk_hard`); the
    /// cheaper it is, the more repetitions its median needs to be steady.
    pub setup_min_reps: usize,
    pub setup_max_reps: usize,
    pub setup_min_seconds: f64,
    /// Fresh evaluations per view behind `recompute_ms`.
    pub reference_reps: usize,
    /// Passes over all views behind `read_ms_p50`.
    pub read_passes: usize,

    // oneshot: graph A carries cells QG1..QG5, graph B the OUT2 >> OUT1 cell.
    // The shape seeds pin each graph's degree sequence (see `inputs::skewed`).
    pub a_shape_seed: u64,
    pub b_shape_seed: u64,
    pub a_nodes: u64,
    pub a_out_degree: usize,
    pub a_triple_fraction: f64,
    pub b_nodes: u64,
    pub b_out_degree: usize,
    pub b_triple_fraction: f64,
    /// Timed rounds over all cells (one more, discarded, runs first).
    pub oneshot_rounds: usize,

    // The maintained store shared by trickle_hard, trickle_easy, bulk_hard.
    pub store_nodes: u64,
    pub store_edges: usize,
    pub store_triple_fraction: f64,
    pub trickle_ops: usize,
    pub trickle_hard_warmup: usize,
    pub trickle_hard_batches: usize,
    pub trickle_easy_warmup: usize,
    pub trickle_easy_batches: usize,
    pub bulk_ops: usize,
    /// Each pair is a batch and its inverse: two timed applies.
    pub bulk_pairs: usize,

    // service
    pub service_nodes: u64,
    pub service_edges: usize,
    pub push_ops: usize,
    pub service_warmup: usize,
    /// Phase A, open loop: one connection at this fixed rate.
    pub open_rate_per_s: f64,
    pub open_pushes: usize,
    /// The reader asks for every n-th acked epoch.
    pub read_every: usize,
    /// Phase B, closed loop: this many connections, back to back.
    pub closed_connections: usize,
    pub closed_pushes_per_connection: usize,
    /// The server checkpoints and rotates its WAL every this many batches.
    pub retained_batches: usize,

    // Traced run: batches pushed through the real server (and the length of
    // the stream `oneshot` gets for the maintained and served passes), and
    // timed repetitions of the one-shot decomposition per query.
    pub trace_batches: usize,
    pub trace_cell_reps: usize,
}

/// `BENCHMARK.json`'s `run_seconds`: the budget the committed counts are for.
pub const RUN_SECONDS: usize = 12;

impl Sizes {
    /// The committed sizes, with repetition counts scaled to `seconds`.
    pub fn full(seconds: usize) -> Sizes {
        let per = |per_second: f64| ((per_second * seconds as f64).round() as usize).max(1);
        Sizes {
            setup_min_reps: 3,
            setup_max_reps: 25,
            setup_min_seconds: 1.5,
            reference_reps: 5,
            read_passes: 5,

            a_shape_seed: 1,
            b_shape_seed: 2,
            a_nodes: 400,
            a_out_degree: 4,
            a_triple_fraction: 0.5,
            b_nodes: 1500,
            b_out_degree: 5,
            b_triple_fraction: 0.05,
            oneshot_rounds: per(1.0),

            store_nodes: 2000,
            store_edges: 8000,
            store_triple_fraction: 0.5,
            trickle_ops: 64,
            trickle_hard_warmup: 100,
            trickle_hard_batches: per(170.0),
            trickle_easy_warmup: 4,
            trickle_easy_batches: per(9.5),
            bulk_ops: 1200,
            bulk_pairs: per(7.0),

            service_nodes: 2000,
            service_edges: 8000,
            push_ops: 4,
            service_warmup: 50,
            open_rate_per_s: 60.0,
            open_pushes: per(36.0),
            read_every: 10,
            closed_connections: 2,
            closed_pushes_per_connection: per(25.0),
            retained_batches: 64,

            trace_batches: per(1.0),
            trace_cell_reps: 2,
        }
    }

    /// Small enough that all five workloads, with their checks, finish in a
    /// few seconds in a debug build; used by the harness's own tests.
    pub fn tiny() -> Sizes {
        Sizes {
            setup_min_reps: 2,
            setup_max_reps: 2,
            setup_min_seconds: 0.0,
            reference_reps: 1,
            read_passes: 2,

            a_shape_seed: 1,
            b_shape_seed: 2,
            a_nodes: 60,
            a_out_degree: 3,
            a_triple_fraction: 0.5,
            b_nodes: 120,
            b_out_degree: 3,
            b_triple_fraction: 0.05,
            oneshot_rounds: 2,

            store_nodes: 120,
            store_edges: 360,
            store_triple_fraction: 0.5,
            trickle_ops: 8,
            trickle_hard_warmup: 2,
            trickle_hard_batches: 12,
            trickle_easy_warmup: 1,
            trickle_easy_batches: 6,
            bulk_ops: 60,
            bulk_pairs: 3,

            service_nodes: 120,
            service_edges: 360,
            push_ops: 4,
            service_warmup: 3,
            open_rate_per_s: 400.0,
            open_pushes: 30,
            read_every: 5,
            closed_connections: 2,
            closed_pushes_per_connection: 10,
            retained_batches: 8,

            trace_batches: 4,
            trace_cell_reps: 1,
        }
    }
}

impl Sizes {
    /// The sizes of the traced run: the same inputs, one set-up, and an
    /// eighth of the repetitions per pass — the traced run makes about eight
    /// passes (end to end untraced and traced, then one per layer), so it
    /// lasts about as long as an untraced run.
    pub fn traced(&self) -> Sizes {
        let eighth = |n: usize, least: usize| (n / 8).max(least.min(n));
        Sizes {
            setup_min_reps: 1,
            setup_max_reps: 1,
            setup_min_seconds: 0.0,
            reference_reps: 1,
            read_passes: self.read_passes.min(3),
            oneshot_rounds: eighth(self.oneshot_rounds, 2),
            trickle_hard_warmup: eighth(self.trickle_hard_warmup, 2),
            trickle_hard_batches: eighth(self.trickle_hard_batches, 8),
            trickle_easy_warmup: eighth(self.trickle_easy_warmup, 1),
            trickle_easy_batches: eighth(self.trickle_easy_batches, 8),
            bulk_pairs: eighth(self.bulk_pairs, 4),
            service_warmup: eighth(self.service_warmup, 4),
            open_pushes: eighth(self.open_pushes, 20),
            closed_pushes_per_connection: eighth(self.closed_pushes_per_connection, 10),
            ..self.clone()
        }
    }
}
