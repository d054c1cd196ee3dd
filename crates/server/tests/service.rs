//! End-to-end tests of the DCQ view service: protocol round-trips against a
//! control engine, subscription streams, admission control under a wedged
//! ingest thread, kill-and-restart crash recovery, and read/ingest isolation.

use dcq_engine::{CompactionPolicy, DcqEngine};
use dcq_server::client::{DcqClient, PushOutcome, RETRY_HINT_CAP_MS};
use dcq_server::loadgen::parse_metric;
use dcq_server::{recover, DcqServer, DurabilityConfig, ServerConfig};
use dcq_storage::checkpoint::write_wal_header;
use dcq_storage::row::int_row;
use dcq_storage::{Database, DeltaBatch, Relation};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIFF_QUERY: &str = "Q(x, y) :- Graph(x, z), Graph(z, y) EXCEPT Graph(x, y)";
const FILTER_QUERY: &str = "Q(x, y) :- Graph(x, y) EXCEPT Blocked(x, y)";

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dcq-service-test-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seeded_db() -> Database {
    let mut db = Database::new();
    db.add(Relation::from_int_rows(
        "Graph",
        &["src", "dst"],
        (0..8i64).map(|i| vec![i, (i + 1) % 8]),
    ))
    .unwrap();
    db.add(Relation::from_int_rows(
        "Blocked",
        &["src", "dst"],
        Vec::<Vec<i64>>::new(),
    ))
    .unwrap();
    db
}

fn edge_batch(step: i64) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    batch.insert("Graph", int_row([100 + step, step % 8]));
    batch.insert("Graph", int_row([step % 8, 200 + step]));
    batch
}

#[test]
fn service_round_trip_matches_local_engine() {
    let db = seeded_db();
    let mut control = DcqEngine::with_database(db.clone());
    let control_view = control
        .register_dcq(dcq_core::parse_dcq(DIFF_QUERY).unwrap())
        .unwrap();

    let server = DcqServer::start(DcqEngine::with_database(db), ServerConfig::default()).unwrap();
    let mut client = DcqClient::connect(server.addr()).unwrap();

    let reg = client.register(DIFF_QUERY, Some("counting")).unwrap();
    assert_eq!(reg.strategy, "counting");
    assert_eq!(reg.epoch, 0);

    let mut last_epoch = 0;
    for step in 0..6 {
        let batch = edge_batch(step);
        control.apply(&batch).unwrap();
        match client.push(&batch).unwrap() {
            PushOutcome::Acked(ack) => last_epoch = ack.epoch,
            PushOutcome::Overloaded { .. } => panic!("unloaded server pushed back"),
        }
    }
    assert_eq!(last_epoch, 6);

    // Read from a *different* connection, gated on the pushed epoch: the
    // published snapshot must match the control engine's materialization.
    let mut reader = DcqClient::connect(server.addr()).unwrap();
    let reply = reader.read(reg.view, Some(last_epoch)).unwrap();
    assert_eq!(reply.epoch, last_epoch);
    assert_eq!(
        reply.rows,
        control.result(control_view).unwrap().sorted_rows()
    );
    assert!(!reply.rows.is_empty(), "test query should produce rows");

    // Protocol error paths: bad pushes are rejected without consuming an
    // epoch, reads of unknown views fail, bad strategies fail.
    let mut bad = DeltaBatch::new();
    bad.insert("NoSuchRelation", int_row([1, 2]));
    assert!(client
        .push(&bad)
        .unwrap_err()
        .to_string()
        .contains("unknown relation"));
    let mut wrong_arity = DeltaBatch::new();
    wrong_arity.insert("Graph", int_row([1, 2, 3]));
    assert!(client
        .push(&wrong_arity)
        .unwrap_err()
        .to_string()
        .contains("arity mismatch"));
    assert!(reader
        .read(999, None)
        .unwrap_err()
        .to_string()
        .contains("unknown view"));
    assert!(client.register(DIFF_QUERY, Some("psychic")).is_err());
    assert_eq!(
        server.committed_epoch(),
        6,
        "rejected pushes advance nothing"
    );

    // Metrics verb: one exposition containing engine and server families.
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("dcq_engine_epoch 6"));
    assert_eq!(parse_metric(&metrics, "dcq_server_push_total"), Some(6));
    assert_eq!(parse_metric(&metrics, "dcq_server_read_total"), Some(1));

    // Deregistration makes the view unknown to later reads.
    client.deregister(reg.view).unwrap();
    assert!(reader.read(reg.view, None).is_err());

    // The shutdown verb stops the service; the handle's shutdown() then just
    // reaps threads and returns the engine at the committed epoch.
    client.shutdown().unwrap();
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.epoch(), 6);
}

#[test]
fn subscription_streams_result_churn() {
    let server = DcqServer::start(
        DcqEngine::with_database(seeded_db()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = DcqClient::connect(server.addr()).unwrap();
    // Counting is the only maintenance engine: naming any other strategy is
    // a typed error, and an unnamed one registers a counting view.
    for strategy in ["rerun", "adaptive"] {
        let err = client.register(FILTER_QUERY, Some(strategy)).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("unknown strategy `{strategy}`")),
            "{err}"
        );
    }
    let reg = client.register(FILTER_QUERY, None).unwrap();
    assert_eq!(reg.strategy, "counting");

    let sub_conn = DcqClient::connect(server.addr()).unwrap();
    let mut sub = sub_conn.subscribe(reg.view).unwrap();
    assert_eq!(sub.start_epoch(), 0);

    // A fresh edge enters the result...
    let mut insert = DeltaBatch::new();
    insert.insert("Graph", int_row([41, 42]));
    client.push(&insert).unwrap();
    let event = sub.next_event().unwrap().expect("stream open");
    assert_eq!(event.epoch, 1);
    assert_eq!(event.added, vec![int_row([41, 42])]);
    assert!(event.removed.is_empty());

    // ...then gets blocked, so it leaves the result.
    let mut block = DeltaBatch::new();
    block.insert("Blocked", int_row([41, 42]));
    client.push(&block).unwrap();
    let event = sub.next_event().unwrap().expect("stream open");
    assert_eq!(event.epoch, 2);
    assert!(event.added.is_empty());
    assert_eq!(event.removed, vec![int_row([41, 42])]);

    // A batch that does not churn this view's result emits no event: the next
    // thing on the stream after another churning batch is epoch 4, not 3.
    let mut unrelated = DeltaBatch::new();
    unrelated.insert("Blocked", int_row([7, 7]));
    client.push(&unrelated).unwrap();
    let mut churn = DeltaBatch::new();
    churn.insert("Graph", int_row([51, 52]));
    client.push(&churn).unwrap();
    let event = sub.next_event().unwrap().expect("stream open");
    assert_eq!(event.epoch, 4);
    assert_eq!(event.added, vec![int_row([51, 52])]);

    // Graceful shutdown closes the stream rather than wedging it.
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.epoch(), 4);
    assert!(sub.next_event().unwrap().is_none());
}

#[test]
fn full_ingest_queue_answers_overloaded_and_loses_nothing() {
    let server = DcqServer::start(
        DcqEngine::with_database(seeded_db()),
        ServerConfig::with_capacity(4),
    )
    .unwrap();
    let addr = server.addr();

    // Wedge the ingest thread. The stall verb acks when the sleep *starts*.
    let mut admin = DcqClient::connect(addr).unwrap();
    admin.stall(800).unwrap();

    // 12 concurrent one-shot pushers against a queue of 4: some get queued
    // (their acks arrive once the stall ends), the rest must be pushed back
    // immediately with a positive retry hint — not block, not deadlock.
    let acked = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut joins = Vec::new();
    for step in 0..12 {
        let acked = Arc::clone(&acked);
        let overloaded = Arc::clone(&overloaded);
        joins.push(std::thread::spawn(move || {
            let mut client = DcqClient::connect_retry(addr, 8).unwrap();
            match client.push(&edge_batch(step)).unwrap() {
                PushOutcome::Acked(_) => {
                    acked.fetch_add(1, Ordering::Relaxed);
                }
                PushOutcome::Overloaded { retry_after_ms } => {
                    assert!(retry_after_ms >= 1, "hint must be positive");
                    overloaded.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for join in joins {
        join.join().unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "overload handling must not deadlock"
    );
    let acked = acked.load(Ordering::Relaxed);
    let overloaded = overloaded.load(Ordering::Relaxed);
    assert_eq!(acked + overloaded, 12, "every push got exactly one answer");
    assert!(acked >= 1, "queued pushes drain once the stall ends");
    assert!(
        overloaded >= 1,
        "a queue of 4 cannot absorb 12 pushes during the stall"
    );

    // Zero lost acked batches: each ack was one epoch advance, and the
    // server-side counters agree with what the clients observed.
    let metrics = admin.metrics().unwrap();
    assert_eq!(server.committed_epoch(), acked);
    assert_eq!(parse_metric(&metrics, "dcq_server_push_total"), Some(acked));
    assert_eq!(
        parse_metric(&metrics, "dcq_server_overloaded_total"),
        Some(overloaded)
    );

    // The service is healthy after the storm: the next push is acked.
    match admin.push(&edge_batch(99)).unwrap() {
        PushOutcome::Acked(ack) => assert_eq!(ack.epoch, acked + 1),
        PushOutcome::Overloaded { .. } => panic!("drained server pushed back"),
    }

    // Second storm, this time with retrying pushers: every honoured pushback
    // must sleep at least the server's (capped) hint — the client may add
    // jitter on top but never undercuts what admission control asked for.
    admin.stall(400).unwrap();
    let mut fillers = Vec::new();
    for step in 100..108 {
        fillers.push(std::thread::spawn(move || {
            let mut filler = DcqClient::connect_retry(addr, 8).unwrap();
            // Generous retry budget: hints here are ~1ms, and a rejected
            // pusher must outlast the whole stall, not a fixed count.
            filler.push_with_retry(&edge_batch(step), 10_000).unwrap();
        }));
    }
    // Let the fillers occupy the queue so the probe below gets pushed back.
    std::thread::sleep(Duration::from_millis(50));
    let mut probe = DcqClient::connect_retry(addr, 8).unwrap();
    let (_, rejections) = probe.push_with_retry(&edge_batch(108), 10_000).unwrap();
    for join in fillers {
        join.join().unwrap();
    }
    let observations = probe.retry_observations();
    assert_eq!(observations.len() as u32, rejections);
    for obs in observations {
        assert!(
            obs.slept_ms >= obs.hint_ms.min(RETRY_HINT_CAP_MS),
            "client slept {}ms against a {}ms hint",
            obs.slept_ms,
            obs.hint_ms
        );
    }
    server.shutdown().unwrap();
}

#[test]
fn kill_and_restart_recovers_identical_state() {
    let dir = temp_dir("kill-restart");
    let db = seeded_db();
    // The control runs the same batches uninterrupted on a plain engine.
    let mut control = DcqEngine::with_database(db.clone());
    let control_view = control
        .register_dcq(dcq_core::parse_dcq(DIFF_QUERY).unwrap())
        .unwrap();

    let config = ServerConfig {
        durability: Some(DurabilityConfig::at(&dir)),
        // Tight bound so checkpoint rotation provably happens mid-stream.
        compaction: CompactionPolicy::max_retained_batches(3),
        ..ServerConfig::default()
    };
    let server = DcqServer::start(DcqEngine::with_database(db), config).unwrap();
    let mut client = DcqClient::connect(server.addr()).unwrap();
    client.register(DIFF_QUERY, Some("counting")).unwrap();
    for step in 0..10 {
        let batch = edge_batch(step);
        control.apply(&batch).unwrap();
        match client.push(&batch).unwrap() {
            PushOutcome::Acked(_) => {}
            PushOutcome::Overloaded { .. } => panic!("unloaded server pushed back"),
        }
    }
    // Crash: no final checkpoint, no drain — the disk is left as-is.
    server.kill().unwrap();

    let (mut recovered, report) = recover(&dir).unwrap();
    assert!(
        report.checkpoint_epoch >= 4,
        "the retained-batches bound must have checkpointed mid-stream \
         (got {report:?})"
    );
    assert_eq!(
        report.checkpoint_epoch - report.wal_base_epoch,
        report.skipped as u64
    );
    assert_eq!(
        report.checkpoint_epoch + report.replayed as u64,
        10,
        "checkpoint ⊕ retained WAL tail must reach the acked epoch"
    );
    assert!(!report.torn_tail);

    // Bit-identical store: same epoch, same rows in every relation.
    assert_eq!(recovered.epoch(), control.epoch());
    for (name, relation) in control.database().iter() {
        assert_eq!(
            recovered.database().get(name).unwrap().sorted_rows(),
            relation.sorted_rows(),
            "relation {name} diverged across the crash"
        );
    }
    // And identical view results once the view is re-registered (view
    // registrations are session state, the store is the durable part).
    let view = recovered
        .register_dcq(dcq_core::parse_dcq(DIFF_QUERY).unwrap())
        .unwrap();
    assert_eq!(
        recovered.result(view).unwrap().sorted_rows(),
        control.result(control_view).unwrap().sorted_rows()
    );

    // The recovered engine serves again — and keeps recovering after more
    // writes land in the same directory.
    let config = ServerConfig {
        durability: Some(DurabilityConfig::at(&dir)),
        compaction: CompactionPolicy::max_retained_batches(3),
        ..ServerConfig::default()
    };
    let server = DcqServer::start(recovered, config).unwrap();
    let mut client = DcqClient::connect(server.addr()).unwrap();
    let reg = client.register(DIFF_QUERY, Some("counting")).unwrap();
    control.apply(&edge_batch(10)).unwrap();
    match client.push(&edge_batch(10)).unwrap() {
        PushOutcome::Acked(ack) => assert_eq!(ack.epoch, 11),
        PushOutcome::Overloaded { .. } => panic!("unloaded server pushed back"),
    }
    let reply = client.read(reg.view, Some(11)).unwrap();
    assert_eq!(
        reply.rows,
        control.result(control_view).unwrap().sorted_rows()
    );
    server.kill().unwrap();
    let (recovered, _) = recover(&dir).unwrap();
    assert_eq!(recovered.epoch(), 11);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_recovers_to_the_last_intact_epoch() {
    let dir = temp_dir("torn-e2e");
    let config = ServerConfig {
        durability: Some(DurabilityConfig::at(&dir)),
        // No compaction: all ten batches stay in the WAL so tearing the tail
        // provably lands on a batch frame.
        ..ServerConfig::default()
    };
    let server = DcqServer::start(DcqEngine::with_database(seeded_db()), config).unwrap();
    let mut client = DcqClient::connect(server.addr()).unwrap();
    for step in 0..10 {
        client.push(&edge_batch(step)).unwrap();
    }
    let metrics = client.metrics().unwrap();
    server.kill().unwrap();

    // The WAL-bytes counter counts exactly the frames on disk after the
    // header.
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    let mut header = Vec::new();
    write_wal_header(&mut header, 0).unwrap();
    assert_eq!(
        parse_metric(&metrics, "dcq_server_wal_bytes_total"),
        Some(len - header.len() as u64)
    );

    // Power-loss simulation: the tail of the last appended frame never made
    // it to disk.
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let (recovered, report) = recover(&dir).unwrap();
    assert!(report.torn_tail, "the cut frame must be detected");
    assert_eq!(report.replayed, 9);
    assert_eq!(
        recovered.epoch(),
        9,
        "recovery stops at the last intact frame; the torn one is discarded"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_reads_do_not_slow_ingest() {
    let server = DcqServer::start(
        DcqEngine::with_database(seeded_db()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();
    let mut client = DcqClient::connect(addr).unwrap();
    let reg = client.register(DIFF_QUERY, Some("counting")).unwrap();

    let per_view_cost = |metrics: &str| -> (u64, u64) {
        (
            parse_metric(metrics, "dcq_engine_view_cost_ns_sum").unwrap_or(0),
            parse_metric(metrics, "dcq_engine_view_cost_ns_count").unwrap_or(0),
        )
    };

    // One measurement: a no-read baseline phase, then the same ingest with
    // reader threads hammering the snapshot path.  Means are per (batch,
    // view) maintenance wall time from `dcq_engine_view_cost_ns`; reads that
    // never touch the engine leave it alone apart from scheduler noise.
    let mut step = 0i64;
    let mut measure = |client: &mut DcqClient| -> (u64, u64, u64) {
        let (sum_0, count_0) = per_view_cost(&client.metrics().unwrap());
        for _ in 0..40 {
            client.push(&edge_batch(step)).unwrap();
            step += 1;
        }
        let (sum_1, count_1) = per_view_cost(&client.metrics().unwrap());

        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let stop = Arc::clone(&stop);
            let view = reg.view;
            readers.push(std::thread::spawn(move || {
                let mut reader = DcqClient::connect_retry(addr, 8).unwrap();
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    reader.read(view, None).unwrap();
                    reads += 1;
                }
                reads
            }));
        }
        for _ in 0..40 {
            client.push(&edge_batch(step)).unwrap();
            step += 1;
        }
        let (sum_2, count_2) = per_view_cost(&client.metrics().unwrap());
        stop.store(true, Ordering::Relaxed);
        let reads: u64 = readers.into_iter().map(|j| j.join().unwrap()).sum();
        assert!(reads > 0, "readers must actually have been running");
        let mean_baseline = (sum_1 - sum_0) / (count_1 - count_0).max(1);
        let mean_loaded = (sum_2 - sum_1) / (count_2 - count_1).max(1);
        (mean_baseline, mean_loaded, reads)
    };

    // Mean per-batch maintenance cost under read load must stay within 2x
    // the no-read baseline (plus a small absolute floor so near-zero
    // baselines don't make the ratio degenerate).  On a loaded 1-core CI
    // box cache/scheduler noise can spike a single measurement, so only
    // fail if the degradation reproduces across several attempts — a real
    // isolation bug (reads queueing behind or locking out ingest) fails
    // every attempt.
    let mut last = (0, 0, 0);
    let isolated = (0..3).any(|_| {
        last = measure(&mut client);
        let (mean_baseline, mean_loaded, _) = last;
        mean_loaded <= mean_baseline * 2 + 50_000
    });
    let (mean_baseline, mean_loaded, reads) = last;
    assert!(
        isolated,
        "per-batch maintenance cost degraded under read load in every attempt: \
         baseline {mean_baseline}ns, under load {mean_loaded}ns ({reads} reads)"
    );
    server.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_checkpoints_so_recovery_needs_no_replay() {
    let dir = temp_dir("graceful");
    let config = ServerConfig {
        durability: Some(DurabilityConfig::at(&dir)),
        ..ServerConfig::default()
    };
    let server = DcqServer::start(DcqEngine::with_database(seeded_db()), config).unwrap();
    let mut client = DcqClient::connect(server.addr()).unwrap();
    for step in 0..5 {
        client.push(&edge_batch(step)).unwrap();
    }
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.epoch(), 5);

    let (recovered, report) = recover(&dir).unwrap();
    assert_eq!(
        report.checkpoint_epoch, 5,
        "shutdown wrote a final checkpoint"
    );
    assert_eq!(report.replayed, 0, "nothing left in the WAL to replay");
    assert_eq!(recovered.epoch(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}
