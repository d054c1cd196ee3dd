//! The traced run: the workload's inputs pushed through every layer, with a
//! span around each call, to produce the per-layer metrics.
//!
//! Every workload is the same triple — database(s), queries, update stream —
//! so every layer metric is measured on every workload: a layer the
//! workload's own path never enters is still timed on that workload's inputs,
//! and the catalogue says which end-to-end metric it is expected to move and
//! where.  End-to-end metrics are never taken from this run.
//!
//! Passes, in order:
//!
//! 1. the workload's end-to-end region twice, tracing off then on — the
//!    difference is the cost of tracing;
//! 2. one-shot: classify, optimized plan, baseline, and the baseline taken
//!    apart (`Q₁`, `Q₂`, anti-join), per query, with peak heap;
//! 3. maintained: the update stream through a bare store, through store +
//!    views as separate commit and fold calls, and through the engine;
//! 4. wire: codec, WAL append, checkpoint and read encoding without a socket,
//!    then the stream through a real server from one closed-loop client, a
//!    short open loop, kill and recover.

use crate::alloc::peak_heap_during;
use crate::catalog::{Workload, PER_LAYER};
use crate::openloop::run_open_loop;
use crate::report::{Json, Measured};
use crate::sizes::Sizes;
use crate::spans::SpanLog;
use crate::stats::{geomean, median, percentile};
use crate::sut::facade::{self, Conn, Pushed, Service};
use crate::sut::layers::{self, BareStore, Registration, StoreAndViews, TracedEngine};
use crate::sut::{DeltaBatch, Row};
use crate::workloads::{self, build_inputs, Inputs, Outcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Traced {
    /// Every per-layer metric of the catalogue, in its order.
    pub metrics: Vec<Measured>,
    /// The traced end-to-end pass (its checks count; its timings do not).
    pub outcome: Outcome,
    pub spans: SpanLog,
    /// Per-query medians behind the one-shot geomeans.
    pub cells: Vec<(String, Json)>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Metric values by name; [`Values::into_metrics`] checks them against the
/// catalogue so a metric can be neither forgotten nor invented.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.insert(name, value).is_none(),
            "per-layer metric {name} set twice"
        );
    }

    fn into_metrics(mut self) -> Vec<Measured> {
        let metrics = PER_LAYER
            .iter()
            .map(|layer| {
                let value = self
                    .0
                    .remove(layer.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", layer.name));
                Measured::new(layer.name, value, layer.unit)
            })
            .collect();
        assert!(
            self.0.is_empty(),
            "measured but not in the catalogue: {:?}",
            self.0.keys()
        );
        metrics
    }
}

pub fn trace(workload: &Workload, full: &Sizes, seed: u64, scratch: &Path) -> Traced {
    let sizes = full.traced();
    let mut values = Values::default();

    // Pass 1: what tracing costs.  Untraced, traced, untraced: the host's
    // speed drifts over seconds, and the mean of the two untraced passes
    // cancels the part of the drift that is linear in time.
    let before = workloads::run(workload, &sizes, seed, &mut SpanLog::off(), scratch);
    let mut log = SpanLog::new(Instant::now(), true);
    let outcome = workloads::run(workload, &sizes, seed, &mut log, scratch);
    let after = workloads::run(workload, &sizes, seed, &mut SpanLog::off(), scratch);
    let untraced_seconds = (before.timed_seconds + after.timed_seconds) / 2.0;
    values.set(
        "bench.trace_overhead_pct",
        (outcome.timed_seconds - untraced_seconds) / untraced_seconds * 100.0,
    );

    let inputs = build_inputs(workload, &sizes, seed, true);
    let batches: Vec<&DeltaBatch> = inputs.warmup.iter().chain(&inputs.timed).collect();
    let cells = one_shot_pass(&inputs, &sizes, &mut log, &mut values);
    let (apply_ms, publish_ms) =
        maintained_passes(&inputs, &batches, &sizes, &mut log, &mut values);
    wire_passes(
        &inputs,
        &batches,
        &sizes,
        (apply_ms, publish_ms),
        scratch,
        &mut log,
        &mut values,
    );

    Traced {
        metrics: values.into_metrics(),
        outcome,
        spans: log,
        cells,
    }
}

/// Pass 2.  Returns the per-query medians.
fn one_shot_pass(
    inputs: &Inputs,
    sizes: &Sizes,
    log: &mut SpanLog,
    values: &mut Values,
) -> Vec<(String, Json)> {
    let mut per_cell = Vec::new();
    let (mut opt_medians, mut base_medians) = (Vec::new(), Vec::new());
    let (mut classify_us, mut q1_ms, mut q2_ms, mut anti_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut out1, mut out2, mut out) = (0usize, 0usize, 0usize);
    let (mut opt_heap, mut base_heap) = (0usize, 0usize);
    for (c, cell) in inputs.cells.iter().enumerate() {
        let (dcq, db) = (&cell.view.dcq, &inputs.dbs[cell.db]);
        let op = c as u64;
        // Untimed first execution of each plan: warms up, and measures the
        // peak heap with the counting allocator switched on.
        let (_, heap) = peak_heap_during(|| black_box(facade::eval_optimized(dcq, db).len()));
        opt_heap = opt_heap.max(heap);
        let (sizes_seen, heap) = peak_heap_during(|| layers::baseline_sizes(dcq, db));
        base_heap = base_heap.max(heap);
        out1 += sizes_seen.0;
        out2 += sizes_seen.1;
        out += sizes_seen.2;

        let mut samples: [Vec<f64>; 6] = Default::default();
        for _ in 0..sizes.trace_cell_reps.max(1) {
            let (_, took) = log.span("hypergraph.classify", op, |_| {
                black_box(layers::classify(dcq))
            });
            samples[0].push(us(took));
            let (_, took) = log.span("core.execute_optimized", op, |_| {
                black_box(facade::eval_optimized(dcq, db).len())
            });
            samples[1].push(ms(took));
            let (_, took) = log.span("core.execute_baseline", op, |_| {
                black_box(facade::eval_baseline(dcq, db).len())
            });
            samples[2].push(ms(took));
            let (q1, took) = log.span("exec.evaluate_q1", op, |_| layers::eval_side(dcq, true, db));
            samples[3].push(ms(took));
            let (q2, took) = log.span("exec.evaluate_q2", op, |_| {
                layers::eval_side(dcq, false, db)
            });
            samples[4].push(ms(took));
            let (_, took) = log.span("exec.anti_join", op, |_| {
                black_box(layers::anti_join(&q1, &q2).len())
            });
            samples[5].push(ms(took));
        }
        let [classify, opt, base, q1, q2, anti] = samples.map(|s| median(&s));
        classify_us += classify;
        opt_medians.push(opt);
        base_medians.push(base);
        q1_ms += q1;
        q2_ms += q2;
        anti_ms += anti;
        for (what, value) in [
            ("opt_ms", opt),
            ("base_ms", base),
            ("q1_eval_ms", q1),
            ("q2_eval_ms", q2),
            ("anti_join_ms", anti),
            ("out1_rows", sizes_seen.0 as f64),
            ("out2_rows", sizes_seen.1 as f64),
            ("out_rows", sizes_seen.2 as f64),
        ] {
            per_cell.push((format!("{}.{what}", cell.name), Json::Num(value)));
        }
    }
    values.set("hypergraph.classify_us", classify_us);
    values.set("core.opt_ms", geomean(&opt_medians));
    values.set("core.base_ms", geomean(&base_medians));
    values.set("exec.q1_eval_ms", q1_ms);
    values.set("exec.q2_eval_ms", q2_ms);
    values.set("exec.anti_join_ms", anti_ms);
    values.set("exec.out1_rows", out1 as f64);
    values.set("exec.out2_rows", out2 as f64);
    values.set("exec.out_rows", out as f64);
    values.set(
        "exec.intermediate_per_out",
        (out1 + out2) as f64 / out.max(1) as f64,
    );
    values.set("core.opt_peak_heap_mb", opt_heap as f64 / 1e6);
    values.set("core.base_peak_heap_mb", base_heap as f64 / 1e6);
    per_cell
}

/// Pass 3.  Returns the medians of `engine.apply` and of publishing, in ms.
fn maintained_passes(
    inputs: &Inputs,
    batches: &[&DeltaBatch],
    sizes: &Sizes,
    log: &mut SpanLog,
    values: &mut Values,
) -> (f64, f64) {
    let db = &inputs.dbs[0];
    let dcqs = inputs.view_dcqs();

    let mut bare = BareStore::new(db.clone());
    let bare_ms: Vec<f64> = batches
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            let (_, took) = log.span("storage.commit_bare", i as u64, |_| {
                black_box(bare.commit(batch).effect.total())
            });
            ms(took)
        })
        .collect();
    drop(bare);

    let mut split = StoreAndViews::new(db.clone(), &dcqs, inputs.registration);
    let (mut commit_ms, mut fold_ms) = (Vec::new(), Vec::new());
    for (i, batch) in batches.iter().enumerate() {
        let op = i as u64;
        log.span("layers.commit_then_fold", op, |log| {
            let (applied, took) = log.span("storage.commit", op, |_| split.commit(batch));
            commit_ms.push(ms(took));
            let mut folds = Duration::ZERO;
            for view in 0..split.view_count() {
                let (_, took) =
                    log.span("incremental.view_apply", op, |_| split.fold(view, &applied));
                folds += took;
            }
            fold_ms.push(ms(folds));
        });
    }
    let memory = split.memory();
    drop(split);

    let (mut engine, register) = log.span("engine.register", 0, |_| {
        TracedEngine::new(db.clone(), &dcqs, inputs.registration)
    });
    let apply_ms: Vec<f64> = batches
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            ms(log
                .span("engine.apply", i as u64, |_| engine.apply(batch))
                .1)
        })
        .collect();
    let read_ms: Vec<f64> = (0..sizes.read_passes.max(1))
        .map(|pass| {
            ms(log
                .span("engine.result", pass as u64, |_| {
                    black_box(engine.read_all())
                })
                .1)
        })
        .collect();
    let publish_ms: Vec<f64> = (0..sizes.read_passes.max(1))
        .map(|pass| {
            ms(log
                .span("engine.publish", pass as u64, |_| {
                    black_box(engine.publish().len())
                })
                .1)
        })
        .collect();
    let counters = engine.counters();

    values.set("storage.commit_ms_p50", median(&commit_ms));
    values.set("storage.commit_bare_ms_p50", median(&bare_ms));
    values.set(
        "storage.index_maint_ms_p50",
        median(&commit_ms) - median(&bare_ms),
    );
    values.set("incremental.view_apply_ms_p50", median(&fold_ms));
    values.set("incremental.index_probes", counters.index_probes as f64);
    values.set("incremental.folds_owned", counters.folds_owned as f64);
    values.set(
        "incremental.fold_hits_shared",
        counters.fold_hits_shared as f64,
    );
    values.set(
        "incremental.shared_fold_ratio",
        counters.fold_hits_shared as f64
            / (counters.folds_owned + counters.fold_hits_shared).max(1) as f64,
    );
    values.set(
        "incremental.deletion_index_builds",
        counters.deletion_index_builds as f64,
    );
    values.set("engine.apply_us_p50", median(&apply_ms) * 1e3);
    // The three passes replay the same batches on equal stores, so batch i
    // of one pass is comparable with batch i of another.
    let overhead_ms: Vec<f64> = (0..batches.len())
        .map(|i| apply_ms[i] - commit_ms[i] - fold_ms[i])
        .collect();
    values.set("engine.overhead_ms_p50", median(&overhead_ms));
    let apply_total: f64 = apply_ms.iter().sum();
    values.set(
        "engine.unattributed_pct",
        overhead_ms.iter().sum::<f64>() / apply_total * 100.0,
    );
    let trace_total_ms =
        (counters.trace_commit_ns + counters.trace_fanout_ns + counters.trace_policy_ns) as f64
            / 1e6;
    values.set(
        "engine.trace_commit_ms",
        counters.trace_commit_ns as f64 / 1e6,
    );
    values.set(
        "engine.trace_fanout_ms",
        counters.trace_fanout_ns as f64 / 1e6,
    );
    values.set(
        "engine.trace_policy_ms",
        counters.trace_policy_ns as f64 / 1e6,
    );
    let disagreement = (trace_total_ms - apply_total).abs() / apply_total * 100.0;
    values.set("engine.trace_disagreement_pct", disagreement);
    if disagreement > 10.0 {
        eprintln!(
            "FLAG engine clock and outside clock disagree by {disagreement:.1}%: \
             traces sum to {trace_total_ms:.3} ms, engine.apply spans to {apply_total:.3} ms"
        );
    }
    values.set("engine.register_ms", ms(register));
    values.set("engine.result_read_ms", median(&read_ms));
    values.set(
        "engine.views_skipped_ratio",
        counters.views_skipped as f64
            / (counters.views_skipped + counters.views_applied).max(1) as f64,
    );
    values.set("engine.migrations", counters.migrations as f64);
    values.set("storage.store_bytes", memory.store_bytes as f64);
    values.set("storage.index_bytes", memory.index_bytes as f64);
    values.set("storage.flat_bytes", memory.flat_bytes as f64);
    values.set("storage.dict_entries", memory.dict_entries as f64);
    values.set("storage.dict_bytes", memory.dict_bytes as f64);
    values.set(
        "storage.bytes_per_tuple",
        memory.store_bytes as f64 / memory.tuples.max(1) as f64,
    );
    values.set(
        "storage.index_inplace_writes",
        counters.index_inplace_writes as f64,
    );
    values.set("storage.index_cow_clones", counters.index_cow_clones as f64);
    values.set("engine.publish_ms_p50", median(&publish_ms));
    (median(&apply_ms), median(&publish_ms))
}

/// Pass 4.
fn wire_passes(
    inputs: &Inputs,
    batches: &[&DeltaBatch],
    sizes: &Sizes,
    (apply_ms, publish_ms): (f64, f64),
    scratch: &Path,
    log: &mut SpanLog,
    values: &mut Values,
) {
    let dir = scratch.join(format!("trace-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let db = &inputs.dbs[0];

    // Codec and log, without a socket.
    let wal_file = std::fs::File::create(dir.join("probe.wal")).expect("WAL file creates");
    let mut wal = std::io::BufWriter::new(wal_file);
    let (mut encode_us, mut decode_us, mut wal_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wal_bytes, mut batch_bytes) = (0usize, 0usize);
    let mut frame = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let op = i as u64;
        frame.clear();
        let (_, took) = log.span("server.encode_push", op, |_| {
            layers::encode_push(batch, &mut frame)
        });
        encode_us.push(us(took));
        let (_, took) = log.span("server.decode_push", op, |_| {
            black_box(layers::decode_push(&frame).len())
        });
        decode_us.push(us(took));
        let (wrote, took) = log.span("storage.wal_append", op, |_| {
            layers::wal_append(&mut wal, batch)
        });
        wal_us.push(us(took));
        wal_bytes += wrote;
        batch_bytes += layers::batch_bytes(batch);
    }
    drop(wal);
    let checkpoint_ms: Vec<f64> = (0..3u64)
        .map(|rep| {
            ms(log
                .span("storage.write_checkpoint", rep, |_| {
                    layers::checkpoint(&dir.join("probe.ckpt"), rep, db)
                })
                .1)
        })
        .collect();
    let published: Vec<Vec<Row>> =
        TracedEngine::new(db.clone(), &inputs.view_dcqs(), inputs.registration).publish();
    let read_encode_ms: Vec<f64> = (0..3u64)
        .map(|rep| {
            ms(log
                .span("server.encode_read_reply", rep, |_| {
                    frame.clear();
                    for (view, rows) in published.iter().enumerate() {
                        layers::encode_read_reply(view as u64, rep, rows, &mut frame);
                    }
                    black_box(frame.len())
                })
                .1)
        })
        .collect();
    drop(published);
    values.set("server.encode_us_p50", median(&encode_us));
    values.set("server.decode_us_p50", median(&decode_us));
    values.set("storage.wal_append_us_p50", median(&wal_us));
    values.set("storage.checkpoint_ms_p50", median(&checkpoint_ms));
    values.set("server.read_encode_ms_p50", median(&read_encode_ms));
    values.set(
        "server.wal_bytes_per_push",
        wal_bytes as f64 / batches.len() as f64,
    );
    values.set(
        "server.wal_write_amp",
        wal_bytes as f64 / batch_bytes.max(1) as f64,
    );

    // The same stream through a real server.  A push costs a publish of every
    // view (7 ms on `service`, 190 ms under the hard views), so the pass first
    // pushes three quarters of `trace_batches` batches, then as many more as
    // their median says fit in two seconds: three quarters of those from the
    // same closed-loop
    // client, the rest open loop at half the rate that client sustained
    // (capped at the service workload's rate).  Then kill + recover.
    let service_dir = dir.join("service");
    std::fs::create_dir_all(&service_dir).expect("scratch directory is writable");
    let service = Service::start(db.clone(), &service_dir, sizes.retained_batches)
        .expect("server starts on a loopback port");
    let mut conn = Conn::connect(service.addr()).expect("client connects");
    for view in inputs.views() {
        conn.register(&view.text).expect("view registers");
    }
    let mut acked = 0u64;
    let mut push = |conn: &mut Conn, log: &mut SpanLog, i: usize| {
        let (reply, took) = log.span("server.push", i as u64, |_| conn.push(batches[i]));
        if matches!(reply, Ok(Pushed::Acked { .. })) {
            acked += 1;
        }
        took
    };
    assert!(batches.len() >= 2, "the server pass needs two batches");
    let probe = (batches.len().min(sizes.trace_batches) * 3 / 4).max(1);
    let mut push_ms: Vec<f64> = (0..probe).map(|i| ms(push(&mut conn, log, i))).collect();
    let affordable = (2000.0 / median(&push_ms)) as usize;
    // At least one push is left for the open loop.
    let served = batches.len().min(probe + affordable.max(1));
    let closed = probe + (served - probe) * 3 / 4;
    push_ms.extend((probe..closed).map(|i| ms(push(&mut conn, log, i))));
    let rate = sizes.open_rate_per_s.min(0.5 / (median(&push_ms) / 1e3));
    let (open_samples, _) = run_open_loop(rate, served - closed, |i, _| {
        push(&mut conn, log, closed + i)
    });
    let late_ms: Vec<f64> = open_samples.iter().map(|s| ms(s.late)).collect();
    let exposition = conn.metrics().unwrap_or_default();
    drop(conn);
    service.kill().expect("server stops");
    let (recovered, took) = log.span("server.recover", 0, |_| facade::recover_from(&service_dir));
    let recovered_epoch = recovered.map_or(0, |(epoch, _)| epoch);
    assert!(
        recovered_epoch >= acked,
        "traced server pass: recovered epoch {recovered_epoch} behind {acked} acked pushes"
    );
    values.set("server.recover_ms", ms(took));
    values.set("server.push_ms_p50", median(&push_ms));
    values.set("server.push_ms_p99", percentile(&push_ms, 99.0));
    // On the push path: encode, decode, WAL append, apply, publish.  Encoding
    // a read reply happens on the reader's handler thread, not here.  The
    // server registers views its own way (adaptive), so where the workload
    // registers differently the apply cost is measured again, registered as
    // the server does.
    let apply_ms = if inputs.registration == Registration::Server {
        apply_ms
    } else {
        let mut engine = TracedEngine::new(db.clone(), &inputs.view_dcqs(), Registration::Server);
        let samples: Vec<f64> = batches
            .iter()
            .enumerate()
            .map(|(i, batch)| {
                ms(log
                    .span("engine.apply_as_served", i as u64, |_| engine.apply(batch))
                    .1)
            })
            .collect();
        median(&samples)
    };
    let attributed_ms =
        (median(&encode_us) + median(&decode_us) + median(&wal_us)) / 1e3 + apply_ms + publish_ms;
    values.set("server.unattributed_ms", median(&push_ms) - attributed_ms);
    values.set(
        "server.checkpoints",
        layers::exposition_value(&exposition, "dcq_engine_compactions_total").unwrap_or(0) as f64,
    );
    values.set(
        "server.overloaded_total",
        layers::exposition_value(&exposition, "dcq_server_overloaded_total").unwrap_or(0) as f64,
    );
    values.set("server.generator_late_ms_p95", percentile(&late_ms, 95.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn tiny_traced_runs_measure_every_per_layer_metric() {
        let sizes = Sizes::tiny();
        for workload in &WORKLOADS {
            let dir = crate::out_dir().join(format!(
                "test-trace-{}-{}",
                workload.name,
                std::process::id()
            ));
            let traced = trace(workload, &sizes, 11, &dir);
            assert!(
                traced.outcome.failures.is_empty(),
                "{}: {:?}",
                workload.name,
                traced.outcome.failures
            );
            // `into_metrics` has already checked names against the catalogue.
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            for metric in &traced.metrics {
                assert!(
                    metric.value.is_finite(),
                    "{} {} = {}",
                    workload.name,
                    metric.name,
                    metric.value
                );
            }
            let totals = traced.spans.totals();
            for layer_call in [
                "hypergraph.classify",
                "core.execute_optimized",
                "storage.commit",
                "incremental.view_apply",
                "engine.apply",
                "server.push",
            ] {
                assert!(
                    totals.contains_key(layer_call),
                    "{}: no span named {layer_call}",
                    workload.name
                );
            }
            // Folds are children of the commit-then-fold span of their batch.
            let (_, total, self_ns) = totals["layers.commit_then_fold"];
            assert!(self_ns < total);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
