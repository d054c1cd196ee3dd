//! The five workloads: what each feeds the system, what it times, and what it
//! checks.  The timed regions call [`sut::facade`] only.

use crate::catalog::{Kind, Workload};
use crate::openloop::run_open_loop;
use crate::report::{peak_rss_mb, Json, Measured};
use crate::sizes::Sizes;
use crate::spans::SpanLog;
use crate::stats::{geomean, median, percentile, samples_beyond};
use crate::sut::facade::{self, Conn, Maintained, Pushed, Service};
use crate::sut::layers::Registration;
use crate::sut::{self, inputs, Database, Dcq, DeltaBatch};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A query with the text the server's `register` verb takes.
pub struct View {
    pub text: String,
    pub dcq: Dcq,
}

impl View {
    fn of(dcq: Dcq) -> View {
        View {
            text: inputs::to_text(&dcq),
            dcq,
        }
    }
}

/// One query on one database.
pub struct Cell {
    pub name: String,
    pub db: usize,
    pub view: View,
}

/// Everything a workload feeds the system, made from the seed and the sizes.
pub struct Inputs {
    pub dbs: Vec<Database>,
    pub cells: Vec<Cell>,
    /// Applied, in order, before `timed`; never timed.
    pub warmup: Vec<DeltaBatch>,
    /// Applied in order on top of `dbs[0]` after `warmup`.
    pub timed: Vec<DeltaBatch>,
    pub registration: Registration,
}

impl Inputs {
    /// The queries over `dbs[0]`: the views of the maintained and served paths.
    pub fn views(&self) -> Vec<&View> {
        self.cells
            .iter()
            .filter(|c| c.db == 0)
            .map(|c| &c.view)
            .collect()
    }

    pub fn view_dcqs(&self) -> Vec<Dcq> {
        self.views().iter().map(|v| v.dcq.clone()).collect()
    }
}

const GRAPH_AND_TRIPLE: [&str; 2] = ["Graph", "Triple"];

/// Make a workload's inputs.  `with_stream` asks `oneshot`, which has no
/// update stream of its own, for a trickle stream over graph A so the traced
/// run can push the same inputs through the maintained and served layers.
pub fn build_inputs(workload: &Workload, sizes: &Sizes, seed: u64, with_stream: bool) -> Inputs {
    let store = || {
        inputs::uniform(
            sizes.store_nodes,
            sizes.store_edges,
            sizes.store_triple_fraction,
            seed,
        )
    };
    let cells_on_store = |dcqs: Vec<(String, Dcq)>| {
        dcqs.into_iter()
            .map(|(name, dcq)| Cell {
                name,
                db: 0,
                view: View::of(dcq),
            })
            .collect::<Vec<_>>()
    };
    let hard_views = || {
        cells_on_store(
            (0..inputs::QG5_CLOSERS.len())
                .map(|m| (format!("S.QG5-{m}"), inputs::qg5_family(m)))
                .collect(),
        )
    };
    match workload.name {
        "oneshot" => {
            let a = inputs::skewed(
                sizes.a_nodes,
                sizes.a_out_degree,
                sizes.a_triple_fraction,
                sizes.a_shape_seed,
                seed,
            );
            let b = inputs::skewed(
                sizes.b_nodes,
                sizes.b_out_degree,
                sizes.b_triple_fraction,
                sizes.b_shape_seed,
                seed.wrapping_add(0xB),
            );
            let mut cells: Vec<Cell> = (1..=5)
                .map(|n| Cell {
                    name: format!("A.QG{n}"),
                    db: 0,
                    view: View::of(inputs::figure4(n)),
                })
                .collect();
            cells.push(Cell {
                name: "B.QG4".to_string(),
                db: 1,
                view: View::of(inputs::figure4(4)),
            });
            let timed = if with_stream {
                inputs::update_stream(
                    &a,
                    sizes.trace_batches,
                    sizes.trickle_ops,
                    &GRAPH_AND_TRIPLE,
                    seed,
                )
            } else {
                Vec::new()
            };
            Inputs {
                dbs: vec![a, b],
                cells,
                warmup: Vec::new(),
                timed,
                registration: Registration::Engine,
            }
        }
        "trickle_hard" | "trickle_easy" => {
            let db = store();
            let (cells, warmup, batches) = if workload.name == "trickle_hard" {
                (
                    hard_views(),
                    sizes.trickle_hard_warmup,
                    sizes.trickle_hard_batches,
                )
            } else {
                (
                    cells_on_store(
                        [1, 3, 4]
                            .into_iter()
                            .map(|n| (format!("S.QG{n}"), inputs::figure4(n)))
                            .collect(),
                    ),
                    sizes.trickle_easy_warmup,
                    sizes.trickle_easy_batches,
                )
            };
            let mut stream = inputs::update_stream(
                &db,
                warmup + batches,
                sizes.trickle_ops,
                &GRAPH_AND_TRIPLE,
                seed,
            );
            let timed = stream.split_off(warmup);
            Inputs {
                dbs: vec![db],
                cells,
                warmup: stream,
                timed,
                registration: Registration::Engine,
            }
        }
        "bulk_hard" => {
            let db = store();
            // Every pair is drawn against the registration state, to which the
            // inverse returns the store, so every operation takes effect.
            let mut pairs = (0..=sizes.bulk_pairs).flat_map(|pair| {
                let batch = inputs::update_stream(
                    &db,
                    1,
                    sizes.bulk_ops,
                    &GRAPH_AND_TRIPLE,
                    seed.wrapping_add(pair as u64),
                )
                .pop()
                .expect("one batch asked for");
                let undo = inputs::inverse(&batch);
                [batch, undo]
            });
            let warmup: Vec<DeltaBatch> = pairs.by_ref().take(2).collect();
            let timed = pairs.collect();
            Inputs {
                dbs: vec![db],
                cells: hard_views(),
                warmup,
                timed,
                registration: Registration::Engine,
            }
        }
        "service" => {
            let db = inputs::uniform_graph_only(sizes.service_nodes, sizes.service_edges, seed);
            let pushes =
                sizes.open_pushes + sizes.closed_connections * sizes.closed_pushes_per_connection;
            let mut stream = inputs::update_stream(
                &db,
                sizes.service_warmup + pushes,
                sizes.push_ops,
                &["Graph"],
                seed,
            );
            let timed = stream.split_off(sizes.service_warmup);
            Inputs {
                dbs: vec![db],
                cells: vec![Cell {
                    name: "G.two-hop".to_string(),
                    db: 0,
                    view: View {
                        text: inputs::TWO_HOP.to_string(),
                        dcq: inputs::parse(inputs::TWO_HOP),
                    },
                }],
                warmup: stream,
                timed,
                registration: Registration::Server,
            }
        }
        other => panic!("no workload named {other}"),
    }
}

/// What one end-to-end run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// The workload's metrics under their own names.
    pub native: Vec<Measured>,
    /// Sample counts behind the percentiles, by name.
    pub samples: Vec<(String, usize)>,
    /// Operations attempted and failed, correctness checks included.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Sum of the timed operations' wall time, for the tracing overhead.
    pub timed_seconds: f64,
    /// Workload-specific extras (per-cell medians, input sizes).
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.native.push(Measured::new(name, value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn tail(&mut self, name: &str, samples_ms: &[f64], p: f64) {
        self.metric(name, percentile(samples_ms, p), "ms");
        self.samples.push((
            format!("{name}.samples_beyond"),
            samples_beyond(samples_ms.len(), p),
        ));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.native.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Metrics every workload closes with.
    fn finish(&mut self, setup_seconds: &[f64]) {
        self.metric("setup_s", median(setup_seconds), "s");
        self.samples
            .push(("setup_s.samples".to_string(), setup_seconds.len()));
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        self.metric(
            "fail_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `build` repeatedly, timing each repetition, as often as the sizes ask;
/// all results but the last go to `discard` (untimed).  Returns the last
/// result and every duration.
fn repeat_setup<T>(
    sizes: &Sizes,
    mut build: impl FnMut(usize) -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut seconds: Vec<f64> = Vec::new();
    let mut kept = None;
    while seconds.len() < sizes.setup_min_reps.max(1)
        || (seconds.len() < sizes.setup_max_reps
            && seconds.iter().sum::<f64>() < sizes.setup_min_seconds)
    {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = Instant::now();
        kept = Some(build(seconds.len()));
        seconds.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one repetition"), seconds)
}

/// Run one workload end to end.  `log` records a span per operation when it
/// is enabled; `scratch` is where the service keeps its WAL and checkpoints.
pub fn run(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    log: &mut SpanLog,
    scratch: &Path,
) -> Outcome {
    match workload.kind {
        Kind::OneShot => run_oneshot(workload, sizes, seed, log),
        Kind::Maintained => run_maintained(workload, sizes, seed, log),
        Kind::Served => run_service(workload, sizes, seed, log, scratch),
    }
}

fn run_oneshot(workload: &Workload, sizes: &Sizes, seed: u64, log: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup) = repeat_setup(sizes, |_| build_inputs(workload, sizes, seed, false), drop);
    let cells = inputs.cells.len();
    let mut opt_ms: Vec<Vec<f64>> = vec![Vec::new(); cells];
    let mut base_ms: Vec<Vec<f64>> = vec![Vec::new(); cells];
    // Round 0 warms caches and allocator and carries the correctness check;
    // it is not timed.  Plan order alternates per round so neither plan
    // always runs on the heap the other one left behind.
    for round in 0..=sizes.oneshot_rounds {
        for (c, cell) in inputs.cells.iter().enumerate() {
            let db = &inputs.dbs[cell.db];
            let op = (round * cells + c) as u64;
            let mut eval = |optimized: bool| {
                if optimized {
                    log.span("facade.eval_optimized", op, |_| {
                        black_box(facade::eval_optimized(&cell.view.dcq, db))
                    })
                } else {
                    log.span("facade.eval_baseline", op, |_| {
                        black_box(facade::eval_baseline(&cell.view.dcq, db))
                    })
                }
            };
            let ((opt_rel, opt_took), (base_rel, base_took)) = if round % 2 == 0 {
                let opt = eval(true);
                (opt, eval(false))
            } else {
                let base = eval(false);
                (eval(true), base)
            };
            out.attempted += 2;
            if round == 0 {
                out.check(sut::same_rows(&opt_rel, &base_rel), || {
                    format!(
                        "{}: optimized plan returned {} rows, baseline {}",
                        cell.name,
                        opt_rel.len(),
                        base_rel.len()
                    )
                });
                out.detail.push((
                    format!("{}.rows", cell.name),
                    Json::Num(opt_rel.len() as f64),
                ));
            } else {
                opt_ms[c].push(ms(opt_took));
                base_ms[c].push(ms(base_took));
                out.timed_seconds += (opt_took + base_took).as_secs_f64();
            }
        }
    }
    let opt_medians: Vec<f64> = opt_ms.iter().map(|v| median(v)).collect();
    let base_medians: Vec<f64> = base_ms.iter().map(|v| median(v)).collect();
    for (c, cell) in inputs.cells.iter().enumerate() {
        out.detail
            .push((format!("{}.opt_ms", cell.name), Json::Num(opt_medians[c])));
        out.detail
            .push((format!("{}.base_ms", cell.name), Json::Num(base_medians[c])));
    }
    for (i, db) in inputs.dbs.iter().enumerate() {
        out.detail.push((
            format!("db{i}.tuples"),
            Json::Num(inputs::tuples(db) as f64),
        ));
    }
    out.metric("eval_opt_ms", geomean(&opt_medians), "ms");
    out.metric("eval_base_ms", geomean(&base_medians), "ms");
    out.metric(
        "eval_opt_ms_slowest",
        opt_medians.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    let evals: usize = opt_ms.iter().map(Vec::len).sum();
    let opt_seconds: f64 = opt_ms.iter().flatten().sum::<f64>() / 1e3;
    out.metric("evals_per_s", evals as f64 / opt_seconds, "1/s");
    out.samples
        .push(("eval.samples_per_cell".to_string(), sizes.oneshot_rounds));
    out.finish(&setup);
    out
}

/// `recompute_ms`: fresh optimized evaluations of every view on `db`, what
/// answering without maintenance would cost.  Taken before the timed region,
/// on the heap set-up left behind, so that it does not depend on how much the
/// timed region churned the allocator.
fn time_recompute(out: &mut Outcome, views: &[Dcq], db: &Database, reps: usize) {
    let mut total_ms = 0.0;
    for dcq in views {
        let times: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let start = Instant::now();
                black_box(facade::eval_optimized(dcq, db).len());
                ms(start.elapsed())
            })
            .collect();
        total_ms += median(&times);
    }
    out.attempted += (views.len() * reps.max(1)) as u64;
    out.metric("recompute_ms", total_ms, "ms");
    out.samples
        .push(("recompute_ms.samples_per_view".to_string(), reps.max(1)));
}

/// Every maintained result against a fresh optimized evaluation on `db`.
fn check_views(
    out: &mut Outcome,
    views: &[Dcq],
    db: &Database,
    mut maintained: impl FnMut(usize) -> sut::Relation,
) {
    for (v, dcq) in views.iter().enumerate() {
        let fresh = facade::eval_optimized(dcq, db);
        let kept = maintained(v);
        out.check(sut::same_rows(&kept, &fresh), || {
            format!(
                "view {v}: maintained result has {} rows, fresh evaluation {}",
                kept.len(),
                fresh.len()
            )
        });
    }
}

fn run_maintained(workload: &Workload, sizes: &Sizes, seed: u64, log: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    let ((inputs, mut engine), setup) = repeat_setup(
        sizes,
        |_| {
            let inputs = build_inputs(workload, sizes, seed, false);
            let engine = Maintained::new(inputs.dbs[0].clone(), &inputs.view_dcqs());
            (inputs, engine)
        },
        drop,
    );
    let views = inputs.view_dcqs();
    time_recompute(&mut out, &views, &inputs.dbs[0], sizes.reference_reps);
    for batch in &inputs.warmup {
        out.attempted += 1;
        if let Err(e) = engine.apply(batch) {
            out.failed += 1;
            out.failures.push(format!("warm-up apply: {e}"));
        }
    }
    let mut apply_ms = Vec::with_capacity(inputs.timed.len());
    let mut delta_tuples = 0usize;
    for (i, batch) in inputs.timed.iter().enumerate() {
        let (applied, took) = log.span("facade.apply", i as u64, |_| engine.apply(batch));
        out.attempted += 1;
        match applied {
            Ok(effect) => {
                delta_tuples += effect;
                apply_ms.push(ms(took));
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("apply {i}: {e}"));
            }
        }
    }
    let apply_seconds = apply_ms.iter().sum::<f64>() / 1e3;
    out.timed_seconds = apply_seconds;
    out.metric("apply_ms_p50", median(&apply_ms), "ms");
    out.tail("apply_ms_p90", &apply_ms, 90.0);
    out.samples
        .push(("apply_ms.samples".to_string(), apply_ms.len()));
    out.metric(
        "ns_per_delta_tuple",
        apply_seconds * 1e9 / delta_tuples.max(1) as f64,
        "ns",
    );
    out.metric(
        "delta_tuples_per_s",
        delta_tuples as f64 / apply_seconds,
        "1/s",
    );
    out.detail
        .push(("delta_tuples".to_string(), Json::Num(delta_tuples as f64)));

    let mut read_ms = Vec::with_capacity(sizes.read_passes);
    for pass in 0..sizes.read_passes {
        let (rows, took) = log.span("facade.read_all", pass as u64, |_| engine.read_all());
        out.attempted += 1;
        match rows {
            Ok(rows) => {
                black_box(rows);
                read_ms.push(ms(took));
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("read pass {pass}: {e}"));
            }
        }
    }
    out.metric("read_ms_p50", median(&read_ms), "ms");
    out.samples
        .push(("read_ms.samples".to_string(), read_ms.len()));
    out.metric("store_mb", engine.store_bytes() as f64 / 1e6, "MB");
    out.detail.push((
        "store.tuples".to_string(),
        Json::Num(inputs::tuples(engine.database()) as f64),
    ));

    check_views(&mut out, &views, engine.database(), |v| engine.result(v));
    out.finish(&setup);
    out
}

/// A running service with its two client connections and the registered view.
struct Served {
    inputs: Inputs,
    service: Service,
    dir: PathBuf,
    pusher: Conn,
    reader: Conn,
    view: u64,
}

fn start_served(workload: &Workload, sizes: &Sizes, seed: u64, dir: PathBuf) -> Served {
    let inputs = build_inputs(workload, sizes, seed, false);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let service = Service::start(inputs.dbs[0].clone(), &dir, sizes.retained_batches)
        .expect("server starts on a loopback port");
    let mut pusher = Conn::connect(service.addr()).expect("pusher connects");
    let reader = Conn::connect(service.addr()).expect("reader connects");
    let view = pusher
        .register(&inputs.views()[0].text)
        .expect("view registers");
    Served {
        inputs,
        service,
        dir,
        pusher,
        reader,
        view,
    }
}

fn stop_served(served: Served) {
    let Served {
        service,
        dir,
        pusher,
        reader,
        ..
    } = served;
    drop((pusher, reader));
    service.kill().expect("server stops");
    let _ = std::fs::remove_dir_all(dir);
}

/// Push one batch; an ack yields its epoch, anything else is counted failed.
fn push_counted(
    conn: &mut Conn,
    batch: &DeltaBatch,
    what: &str,
    failures: &mut Vec<String>,
) -> Option<u64> {
    match conn.push(batch) {
        Ok(Pushed::Acked { epoch }) => Some(epoch),
        Ok(Pushed::Overloaded) => {
            failures.push(format!("{what}: refused as overloaded"));
            None
        }
        Err(e) => {
            failures.push(format!("{what}: {e}"));
            None
        }
    }
}

fn run_service(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    log: &mut SpanLog,
    scratch: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let (served, setup) = repeat_setup(
        sizes,
        |rep| {
            start_served(
                workload,
                sizes,
                seed,
                scratch.join(format!("service-{}-{rep}", std::process::id())),
            )
        },
        stop_served,
    );
    let Served {
        inputs,
        service,
        dir,
        mut pusher,
        mut reader,
        view,
    } = served;
    // (epoch, index into the concatenated warm-up + timed stream), as acked.
    let mut acked: Vec<(u64, usize)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let stream: Vec<&DeltaBatch> = inputs.warmup.iter().chain(&inputs.timed).collect();
    let warm = inputs.warmup.len();
    let views = inputs.view_dcqs();
    time_recompute(&mut out, &views, &inputs.dbs[0], sizes.reference_reps);

    for (i, batch) in stream[..warm].iter().enumerate() {
        out.attempted += 1;
        if let Some(epoch) = push_counted(&mut pusher, batch, "warm-up push", &mut failures) {
            acked.push((epoch, i));
        }
    }

    // Phase A — open loop: one pusher at a fixed rate, each push timed from
    // its due time; one reader asking for every n-th acked epoch, timed from
    // the due time of the push that produced it.
    let open = &stream[warm..warm + sizes.open_pushes];
    let (to_reader, epochs) = mpsc::channel::<(u64, Instant)>();
    let origin = log.origin();
    let tracing = log.enabled();
    let reader_thread = std::thread::spawn(move || {
        let mut log = SpanLog::new(origin, tracing);
        let mut visible_ms = Vec::new();
        let mut failures = Vec::new();
        for (epoch, due) in epochs {
            let (reply, _) = log.span("facade.read", epoch, |_| reader.read(view, Some(epoch)));
            match reply {
                Ok((at, rows)) if at >= epoch => {
                    black_box(rows.len());
                    visible_ms.push(ms(due.elapsed()));
                }
                Ok((at, _)) => failures.push(format!("read gated on {epoch} answered at {at}")),
                Err(e) => failures.push(format!("read gated on {epoch}: {e}")),
            }
        }
        (reader, visible_ms, failures, log)
    });
    let mut asked = 0u64;
    let (samples, epochs_acked) = run_open_loop(sizes.open_rate_per_s, open.len(), |i, due| {
        let (epoch, _) = log.span("facade.push", i as u64, |_| {
            push_counted(&mut pusher, open[i], "open-loop push", &mut failures)
        });
        if let Some(epoch) = epoch {
            if (i + 1) % sizes.read_every == 0 {
                asked += 1;
                to_reader
                    .send((epoch, due))
                    .expect("reader thread is alive");
            }
        }
        epoch
    });
    drop(to_reader);
    let (reader_back, visible_ms, read_failures, reader_log) =
        reader_thread.join().expect("reader thread finishes");
    let mut reader = reader_back;
    log.absorb(reader_log);
    failures.extend(read_failures);
    out.attempted += open.len() as u64 + asked;
    let mut push_ms = Vec::with_capacity(open.len());
    let mut late_ms = Vec::with_capacity(open.len());
    for (i, (sample, epoch)) in samples.iter().zip(&epochs_acked).enumerate() {
        late_ms.push(ms(sample.late));
        if let Some(epoch) = epoch {
            acked.push((*epoch, warm + i));
            push_ms.push(ms(sample.latency));
        }
    }
    out.timed_seconds = push_ms.iter().sum::<f64>() / 1e3;
    out.metric("push_ms_p50", median(&push_ms), "ms");
    out.tail("push_ms_p95", &push_ms, 95.0);
    out.samples
        .push(("push_ms.samples".to_string(), push_ms.len()));
    out.metric("visible_ms_p50", median(&visible_ms), "ms");
    out.samples
        .push(("visible_ms.samples".to_string(), visible_ms.len()));
    out.detail.push((
        "generator_late_ms_p95".to_string(),
        Json::Num(percentile(&late_ms, 95.0)),
    ));

    // Phase B — closed loop: every connection pushes its share back to back.
    let closed = &stream[warm + sizes.open_pushes..];
    let first_closed = warm + sizes.open_pushes;
    let connections = sizes.closed_connections.max(1);
    let closed_start = Instant::now();
    let (closed_acked, closed_failures) = std::thread::scope(|scope| {
        let workers: Vec<_> = [&mut pusher, &mut reader]
            .into_iter()
            .take(connections)
            .enumerate()
            .map(|(lane, conn)| {
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    let mut failures = Vec::new();
                    for (i, batch) in closed.iter().enumerate().skip(lane).step_by(connections) {
                        if let Some(epoch) =
                            push_counted(conn, batch, "closed-loop push", &mut failures)
                        {
                            acked.push((epoch, first_closed + i));
                        }
                    }
                    (acked, failures)
                })
            })
            .collect();
        let mut acked = Vec::new();
        let mut failures = Vec::new();
        for worker in workers {
            let (a, f) = worker.join().expect("closed-loop pusher finishes");
            acked.extend(a);
            failures.extend(f);
        }
        (acked, failures)
    });
    let closed_seconds = closed_start.elapsed().as_secs_f64();
    out.attempted += closed.len() as u64;
    out.metric(
        "push_per_s",
        closed_acked.len() as f64 / closed_seconds,
        "1/s",
    );
    out.samples
        .push(("push_per_s.pushes".to_string(), closed_acked.len()));
    acked.extend(closed_acked);
    failures.extend(closed_failures);

    // Checks: the served result, then what a crash leaves on disk, both
    // against a local control engine fed the acked batches in epoch order.
    acked.sort_unstable();
    let last_epoch = acked.last().map_or(0, |(epoch, _)| *epoch);
    let first_epoch = acked.first().map_or(0, |(epoch, _)| *epoch);
    out.check(last_epoch + 1 - first_epoch == acked.len() as u64, || {
        format!(
            "{} acks span epochs {first_epoch}..={last_epoch}",
            acked.len()
        )
    });
    let served_rows = pusher.read(view, Some(last_epoch));
    let mut control = Maintained::new(inputs.dbs[0].clone(), &inputs.view_dcqs());
    for (_, index) in &acked {
        control
            .apply(stream[*index])
            .expect("control engine applies what the server acked");
    }
    out.check(
        matches!(&served_rows, Ok((_, rows)) if *rows == control.result(0).sorted_rows()),
        || match &served_rows {
            Ok((epoch, rows)) => format!(
                "final read at epoch {epoch} returned {} rows, the control engine holds {}",
                rows.len(),
                control.result(0).len()
            ),
            Err(e) => format!("final read failed: {e}"),
        },
    );
    drop((pusher, reader));
    service.kill().expect("server stops");
    let recover_start = Instant::now();
    let recovered = facade::recover_from(&dir);
    out.detail.push((
        "recover_ms".to_string(),
        Json::Num(ms(recover_start.elapsed())),
    ));
    out.check(
        matches!(&recovered, Ok((epoch, _)) if *epoch == last_epoch),
        || match &recovered {
            Ok((epoch, _)) => format!("recovered epoch {epoch}, last acked epoch {last_epoch}"),
            Err(e) => format!("recovery failed: {e}"),
        },
    );
    out.check(
        matches!(&recovered, Ok((_, db)) if sut::same_database(db, control.database())),
        || "recovered database differs from the control engine's".to_string(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    out.failed += failures.len() as u64;
    out.failures.extend(failures);

    check_views(&mut out, &views, control.database(), |v| control.result(v));
    out.detail.push((
        "view.rows".to_string(),
        Json::Num(control.result(0).len() as f64),
    ));
    out.finish(&setup);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, WORKLOADS};

    fn scratch(tag: &str) -> PathBuf {
        crate::out_dir().join(format!("test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn tiny_runs_of_all_five_workloads_pass_their_checks() {
        let sizes = Sizes::tiny();
        for workload in &WORKLOADS {
            let dir = scratch(workload.name);
            let outcome = run(workload, &sizes, 7, &mut SpanLog::off(), &dir);
            assert!(
                outcome.failures.is_empty(),
                "{}: {:?}",
                workload.name,
                outcome.failures
            );
            assert_eq!(outcome.failed, 0, "{}", workload.name);
            assert!(outcome.attempted > 0, "{}", workload.name);
            let mut reported: Vec<&str> = outcome.native.iter().map(|m| m.name.as_str()).collect();
            reported.sort_unstable();
            let mut expected: Vec<&str> = crate::catalog::natives_of(workload.name)
                .iter()
                .map(|n| n.name)
                .collect();
            expected.sort_unstable();
            assert_eq!(reported, expected, "{}", workload.name);
            for gated in &END_TO_END {
                let value = outcome
                    .value(gated.native_on(workload.kind))
                    .expect("gated metric has a native value");
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {} = {value}",
                    workload.name,
                    gated.name
                );
            }
            assert_eq!(outcome.value("fail_share"), Some(0.0));
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_and_only_on_it() {
        let sizes = Sizes::tiny();
        for workload in &WORKLOADS {
            let a = build_inputs(workload, &sizes, 3, true);
            let b = build_inputs(workload, &sizes, 3, true);
            let c = build_inputs(workload, &sizes, 4, true);
            assert!(
                sut::same_database(&a.dbs[0], &b.dbs[0]),
                "{}",
                workload.name
            );
            assert_eq!(a.timed, b.timed, "{}", workload.name);
            assert!(
                !sut::same_database(&a.dbs[0], &c.dbs[0]) || a.timed != c.timed,
                "{}: seeds 3 and 4 gave the same inputs",
                workload.name
            );
        }
    }

    #[test]
    fn bulk_pairs_return_the_store_to_where_it_was() {
        let sizes = Sizes::tiny();
        let workload = crate::catalog::workload("bulk_hard").expect("bulk_hard exists");
        let inputs = build_inputs(workload, &sizes, 5, false);
        assert_eq!(inputs.timed.len(), 2 * sizes.bulk_pairs);
        let mut engine = Maintained::new(inputs.dbs[0].clone(), &inputs.view_dcqs());
        for pair in inputs.warmup.chunks(2).chain(inputs.timed.chunks(2)) {
            let forward = engine.apply(&pair[0]).expect("batch applies");
            let back = engine.apply(&pair[1]).expect("inverse applies");
            assert_eq!(forward, sizes.bulk_ops, "every operation takes effect");
            assert_eq!(back, sizes.bulk_ops);
            assert!(sut::same_database(engine.database(), &inputs.dbs[0]));
        }
    }

    #[test]
    fn set_up_is_repeated_and_only_the_last_result_kept() {
        let mut discarded = Vec::new();
        let three = Sizes {
            setup_min_reps: 3,
            setup_max_reps: 9,
            setup_min_seconds: 0.0,
            ..Sizes::tiny()
        };
        let (kept, seconds) = repeat_setup(&three, |rep| rep * 10, |old| discarded.push(old));
        assert_eq!(kept, 20);
        assert_eq!(discarded, vec![0, 10]);
        assert_eq!(seconds.len(), 3);
        // A set-up too cheap to fill the minimum time stops at the cap.
        let capped = Sizes {
            setup_min_seconds: 3600.0,
            ..three
        };
        let (kept, seconds) = repeat_setup(&capped, |rep| rep, drop);
        assert_eq!((kept, seconds.len()), (8, 9));
    }
}
