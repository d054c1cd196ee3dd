//! # dcq-telemetry — metrics and tracing substrate for the DCQ engine stack
//!
//! A zero-dependency (pure `std`) observability layer shared by every crate in
//! the workspace:
//!
//! * [`Counter`] / [`Gauge`] — single atomic cells. The lower layers
//!   (`dcq-storage`'s index registry, `dcq-incremental`'s counting engine)
//!   embed these directly so hot loops pay one relaxed atomic add per event
//!   and nothing else.
//! * [`Histogram`] — log₂-bucketed latency histogram (nanosecond samples),
//!   rendered in Prometheus cumulative-bucket form.
//! * [`MetricsRegistry`] — a named collection of the above with a
//!   Prometheus-style text exposition ([`MetricsRegistry::render_prometheus`]).
//! * [`BatchTrace`] / [`TraceSink`] / [`RingTraceSink`] — structured per-batch
//!   trace records (phase timings, per-view maintenance records) captured into
//!   a bounded ring whose writers never contend on a shared lock, and dumped
//!   as JSON lines ([`render_json_lines`]).
//!
//! The crate knows nothing about queries or databases: the engine describes
//! its batches with plain strings and numbers, which keeps this crate at the
//! bottom of the dependency graph so `dcq-storage` can use it without cycles.
//!
//! ## Determinism contract
//!
//! Counters fall in two classes, and the distinction is load-bearing for the
//! engine's parallel ≡ sequential guarantee (see `tests/parallel_determinism.rs`
//! in the workspace root):
//!
//! * **Schedule-independent** counts (index probes, folds, COW clones)
//!   depend only on the logical operation sequence, so two engines
//!   fed the same batches must report bit-identical values regardless of
//!   worker count.
//! * **Timing** samples (histograms, phase nanoseconds) are physical
//!   measurements and are never compared across runs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
///
/// All mutation is `Relaxed`: counters are statistical, not synchronization
/// points; readers observe values at least as fresh as the last happens-before
/// edge they already have with the writer (the engine reads after joining its
/// worker pool).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

/// Cloning copies the current value into an independent cell, so `Clone`
/// containers embedding counters keep their observed history without sharing
/// future increments.
impl Clone for Counter {
    fn clone(&self) -> Self {
        let c = Counter::new();
        c.set_total(self.get());
        c
    }
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrite the cumulative value.
    ///
    /// Used by aggregating exporters that re-derive a total (retired base +
    /// live sum) before rendering; ordinary instrumentation sites should only
    /// ever [`add`](Self::add).
    #[inline]
    pub fn set_total(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }
}

/// A point-in-time value (lengths, live object counts, bytes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

/// Cloning copies the current value (see [`Counter`]'s `Clone`).
impl Clone for Gauge {
    fn clone(&self) -> Self {
        let g = Gauge::new();
        g.set(self.get());
        g
    }
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `i` (for `i < BUCKETS - 1`) counts samples
/// with `value < 2^i`; the last bucket is `+Inf`. 40 buckets cover ~18 minutes
/// in nanoseconds, far beyond any per-batch phase.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// `observe` is two relaxed atomic adds plus a `leading_zeros`; there is no
/// per-observation allocation or locking.
#[derive(Debug)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `floor_log2(v) == i - 1` (bucket 0
    /// takes `v == 0`); rendered cumulatively.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket a sample lands in: 0 for 0, else
    /// `floor(log2(v)) + 1`, clamped to the last (+Inf) bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, index as in [`Self::bucket_index`].
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bound (exclusive, in sample units) of bucket `i`, `None` for the
    /// final +Inf bucket.
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        (i + 1 < HISTOGRAM_BUCKETS).then(|| 1u64 << i)
    }
}

/// Metric kinds, used to emit `# TYPE` exposition lines.
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Counter(c) => write!(f, "Counter({})", c.get()),
            Slot::Gauge(g) => write!(f, "Gauge({})", g.get()),
            Slot::Histogram(h) => write!(f, "Histogram(count={})", h.count()),
        }
    }
}

/// A named metric family: registration order is preserved in the exposition
/// so diffs between scrapes stay readable.
#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Vec<(String, String, Slot)>,
}

/// A named collection of counters, gauges, and histograms with a
/// Prometheus-style text exposition.
///
/// Handles are `Arc`s: callers register once (typically at engine
/// construction), keep the `Arc` in a struct field, and mutate it from hot
/// paths without ever touching the registry lock again. Registration is
/// idempotent per name — re-registering returns the existing handle (kinds
/// must match; a kind clash panics, it is a programming error).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`. `help` is used on first registration.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        for (n, _, slot) in &inner.metrics {
            if n == name {
                match slot {
                    Slot::Counter(c) => return Arc::clone(c),
                    _ => panic!("metric {name:?} already registered with a different kind"),
                }
            }
        }
        let c = Arc::new(Counter::new());
        inner.metrics.push((
            name.to_string(),
            help.to_string(),
            Slot::Counter(Arc::clone(&c)),
        ));
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        for (n, _, slot) in &inner.metrics {
            if n == name {
                match slot {
                    Slot::Gauge(g) => return Arc::clone(g),
                    _ => panic!("metric {name:?} already registered with a different kind"),
                }
            }
        }
        let g = Arc::new(Gauge::new());
        inner.metrics.push((
            name.to_string(),
            help.to_string(),
            Slot::Gauge(Arc::clone(&g)),
        ));
        g
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        for (n, _, slot) in &inner.metrics {
            if n == name {
                match slot {
                    Slot::Histogram(h) => return Arc::clone(h),
                    _ => panic!("metric {name:?} already registered with a different kind"),
                }
            }
        }
        let h = Arc::new(Histogram::new());
        inner.metrics.push((
            name.to_string(),
            help.to_string(),
            Slot::Histogram(Arc::clone(&h)),
        ));
        h
    }

    /// Current value of a counter or gauge by name (testing / EngineStats
    /// derivation); `None` if absent or a histogram.
    pub fn value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .and_then(|(_, _, slot)| match slot {
                Slot::Counter(c) => Some(c.get()),
                Slot::Gauge(g) => Some(g.get()),
                Slot::Histogram(_) => None,
            })
    }

    /// All scalar (counter/gauge) values, in registration order.
    ///
    /// Timing histograms are deliberately excluded: this is the
    /// schedule-independent face of the registry, the one determinism tests
    /// may compare bit-for-bit across worker counts.
    pub fn scalar_snapshot(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .metrics
            .iter()
            .filter_map(|(n, _, slot)| match slot {
                Slot::Counter(c) => Some((n.clone(), c.get())),
                Slot::Gauge(g) => Some((n.clone(), g.get())),
                Slot::Histogram(_) => None,
            })
            .collect()
    }

    /// Render the whole registry in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le="..."}` series,
    /// `_sum` and `_count` for histograms).
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, help, slot) in &inner.metrics {
            match slot {
                Slot::Counter(c) => {
                    push_header(&mut out, name, help, "counter");
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Slot::Gauge(g) => {
                    push_header(&mut out, name, help, "gauge");
                    out.push_str(&format!("{name} {}\n", g.get()));
                }
                Slot::Histogram(h) => {
                    push_header(&mut out, name, help, "histogram");
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, count) in counts.iter().enumerate() {
                        cumulative += count;
                        // Collapse empty leading/trailing buckets is tempting
                        // but scrapers expect stable bucket sets; emit only
                        // buckets up to the last non-empty one plus +Inf.
                        match Histogram::bucket_upper_bound(i) {
                            Some(le) if cumulative > 0 || *count > 0 => {
                                out.push_str(&format!(
                                    "{name}_bucket{{le=\"{le}\"}} {cumulative}\n"
                                ));
                            }
                            Some(_) => {}
                            None => {
                                out.push_str(&format!(
                                    "{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"
                                ));
                            }
                        }
                    }
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

fn push_header(out: &mut String, name: &str, help: &str, kind: &str) {
    if !help.is_empty() {
        out.push_str(&format!("# HELP {name} {help}\n"));
    }
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// Per-view maintenance record inside a [`BatchTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct ViewTraceRecord {
    /// Engine slot of the view.
    pub slot: usize,
    /// Fraction of the database touched by this batch, as seen by the view.
    pub delta_fraction: f64,
    /// The view's maintenance time for this batch, wall nanoseconds.
    pub cost_ns: u64,
    /// Whether the batch was a no-op for this view.
    pub skipped: bool,
    /// Rows added to / removed from the materialized result.
    pub result_added: usize,
    pub result_removed: usize,
}

/// Structured record of one `DcqEngine::apply` call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchTrace {
    /// Epoch the batch committed as.
    pub epoch: u64,
    /// Tuples in the submitted batch.
    pub batch_len: usize,
    /// Net inserted / deleted tuple count after normalization.
    pub inserted: u64,
    pub deleted: u64,
    /// Phase timings, nanoseconds (wall clock — phases span threads).
    /// `policy_ns` is the tail after the fan-out: the report fold and any
    /// scheduled checkpoint.
    pub commit_ns: u64,
    pub fanout_ns: u64,
    pub policy_ns: u64,
    /// Worker threads the fan-out phase ran on (1 = inline).
    pub workers: usize,
    /// Per-view maintenance records, slot order.
    pub views: Vec<ViewTraceRecord>,
}

impl BatchTrace {
    /// Render as one JSON object (no trailing newline). Pure `std`
    /// formatting; all fields are numbers or booleans, so no escaping is
    /// required.
    pub fn to_json(&self) -> String {
        let mut views = String::new();
        for (i, v) in self.views.iter().enumerate() {
            if i > 0 {
                views.push(',');
            }
            views.push_str(&format!(
                "{{\"slot\":{},\"delta_fraction\":{},\"cost_ns\":{},\"skipped\":{},\
                 \"result_added\":{},\"result_removed\":{}}}",
                v.slot,
                json_f64(v.delta_fraction),
                v.cost_ns,
                v.skipped,
                v.result_added,
                v.result_removed,
            ));
        }
        format!(
            "{{\"epoch\":{},\"batch_len\":{},\"inserted\":{},\"deleted\":{},\
             \"commit_ns\":{},\"fanout_ns\":{},\"policy_ns\":{},\"workers\":{},\
             \"views\":[{views}]}}",
            self.epoch,
            self.batch_len,
            self.inserted,
            self.deleted,
            self.commit_ns,
            self.fanout_ns,
            self.policy_ns,
            self.workers,
        )
    }
}

/// Format an `f64` as a JSON number (JSON has no NaN/Inf; clamp to 0 — the
/// engine only traces finite fractions, this is belt and braces).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Render traces as JSON lines (one object per line, oldest first).
pub fn render_json_lines(traces: &[BatchTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        out.push_str(&t.to_json());
        out.push('\n');
    }
    out
}

/// Consumer of per-batch traces.
///
/// The engine calls [`record`](Self::record) once per `apply`, after the
/// tail, from the applying thread.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    fn record(&self, trace: BatchTrace);
    /// Copy out the retained traces, oldest first, without consuming them.
    fn snapshot(&self) -> Vec<BatchTrace>;
    /// Remove and return the retained traces, oldest first.
    fn drain(&self) -> Vec<BatchTrace>;
}

/// Bounded ring of the most recent traces.
///
/// Writers claim a slot with one `fetch_add` on the cursor and then take that
/// slot's own mutex: distinct writers never share a lock, and a writer is only
/// ever delayed if the ring has fully wrapped back onto a slot another writer
/// still occupies (capacity-many concurrent writes in flight), so the sink
/// adds no shared contention point to the apply path.
#[derive(Debug)]
pub struct RingTraceSink {
    slots: Vec<Mutex<Option<(u64, BatchTrace)>>>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
}

impl RingTraceSink {
    /// Default retention of [`RingTraceSink::new`] via `Default`.
    pub const DEFAULT_CAPACITY: usize = 256;

    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Traces evicted by ring wrap-around since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn collect(&self, take: bool) -> Vec<BatchTrace> {
        // Sequence numbers restore global order across slots.
        let mut entries: Vec<(u64, BatchTrace)> = Vec::new();
        for slot in &self.slots {
            let mut guard = slot.lock().expect("trace ring slot poisoned");
            if take {
                if let Some(entry) = guard.take() {
                    entries.push(entry);
                }
            } else if let Some(entry) = guard.as_ref() {
                entries.push(entry.clone());
            }
        }
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, t)| t).collect()
    }
}

impl Default for RingTraceSink {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl TraceSink for RingTraceSink {
    fn record(&self, trace: BatchTrace) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[seq % self.slots.len()];
        let mut guard = slot.lock().expect("trace ring slot poisoned");
        if guard.replace((seq as u64, trace)).is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<BatchTrace> {
        self.collect(false)
    }

    fn drain(&self) -> Vec<BatchTrace> {
        self.collect(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.set_total(11);
        assert_eq!(c.get(), 11);

        let g = Gauge::new();
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn histogram_bucket_indexing() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bucket i upper bound is 2^i: a sample of exactly 2^i lands above it.
        for i in 0..8 {
            let v = 1u64 << i;
            assert!(Histogram::bucket_upper_bound(Histogram::bucket_index(v) - 1).unwrap() <= v);
        }
    }

    #[test]
    fn histogram_observes_and_renders() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("dcq_test_ns", "test latencies");
        for v in [0, 1, 1, 3, 900] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 905);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE dcq_test_ns histogram"));
        assert!(text.contains("dcq_test_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("dcq_test_ns_sum 905"));
        assert!(text.contains("dcq_test_ns_count 5"));
        // Cumulative buckets: le=1 covers the single 0 sample, le=2 adds the
        // two 1-samples, le=4 adds the 3.
        assert!(text.contains("dcq_test_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("dcq_test_ns_bucket{le=\"2\"} 3"));
        assert!(text.contains("dcq_test_ns_bucket{le=\"4\"} 4"));
    }

    #[test]
    fn registry_is_idempotent_per_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("dcq_x_total", "x");
        let b = reg.counter("dcq_x_total", "ignored on re-registration");
        a.add(2);
        assert_eq!(b.get(), 2);
        assert_eq!(reg.value("dcq_x_total"), Some(2));
        assert_eq!(reg.scalar_snapshot(), vec![("dcq_x_total".to_string(), 2)]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_clash() {
        let reg = MetricsRegistry::new();
        reg.counter("dcq_x", "");
        reg.gauge("dcq_x", "");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("dcq_batches_total", "batches applied").add(3);
        reg.gauge("dcq_views", "registered views").set(2);
        let text = reg.render_prometheus();
        let expected = "# HELP dcq_batches_total batches applied\n\
                        # TYPE dcq_batches_total counter\n\
                        dcq_batches_total 3\n\
                        # HELP dcq_views registered views\n\
                        # TYPE dcq_views gauge\n\
                        dcq_views 2\n";
        assert_eq!(text, expected);
    }

    fn sample_trace(epoch: u64) -> BatchTrace {
        BatchTrace {
            epoch,
            batch_len: 4,
            inserted: 3,
            deleted: 1,
            commit_ns: 1000,
            fanout_ns: 2000,
            policy_ns: 300,
            workers: 2,
            views: vec![ViewTraceRecord {
                slot: 0,
                delta_fraction: 0.25,
                cost_ns: 1500,
                skipped: false,
                result_added: 2,
                result_removed: 0,
            }],
        }
    }

    #[test]
    fn trace_json_is_parseable_shape() {
        let json = sample_trace(7).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"epoch\":7"));
        assert!(json.contains("\"delta_fraction\":0.25"));
        assert!(json.contains("\"cost_ns\":1500"));
        // Balanced braces — cheap structural sanity without a JSON parser.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn ring_sink_retains_most_recent_in_order() {
        let sink = RingTraceSink::new(3);
        for epoch in 0..5 {
            sink.record(sample_trace(epoch));
        }
        let snap = sink.snapshot();
        assert_eq!(
            snap.iter().map(|t| t.epoch).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(sink.dropped(), 2);
        // Snapshot does not consume; drain does.
        assert_eq!(sink.snapshot().len(), 3);
        let drained = sink.drain();
        assert_eq!(drained.len(), 3);
        assert!(sink.snapshot().is_empty());
        let lines = render_json_lines(&drained);
        assert_eq!(lines.lines().count(), 3);
    }

    #[test]
    fn ring_sink_is_safe_under_concurrent_writers() {
        let sink = Arc::new(RingTraceSink::new(8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..100 {
                        sink.record(sample_trace(t * 1000 + i));
                    }
                });
            }
        });
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(sink.dropped(), 4 * 100 - 8);
    }
}
