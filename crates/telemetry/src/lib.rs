#![forbid(unsafe_code)]

//! Zero-cost-when-disabled instrumentation for the GRTX stack: span
//! timing, monotonic counters, and HDR-style latency histograms, with a
//! Chrome trace-event exporter and a canonical machine-readable report.
//!
//! # Design
//!
//! A [`Telemetry`] handle is a cloneable `Option<Arc<_>>`. The default
//! ([`Telemetry::disabled`]) holds `None`: every record method starts
//! with one branch on that `Option` and returns — no clock reads, no
//! allocation, no synchronization — so instrumented code paths cost
//! nothing observable when telemetry is off. The repo's standing
//! contract holds either way: telemetry never touches simulation state,
//! so images, cycles, and every statistic are bit-identical with
//! telemetry on or off (enforced by `crates/core/tests/
//! telemetry_determinism.rs`).
//!
//! When enabled, spans are written to **per-thread event buffers**: each
//! worker thread owns a [`SpanRecorder`] that appends to a plain local
//! `Vec` (no locks, no atomics on the hot path) and flushes the whole
//! buffer into the shared sink once, when the recorder drops. At export
//! time the buffers are drained and merged in canonical
//! `(thread label, sequence)` order, so the structural content of a
//! report — which spans exist, how often, under which parents — is
//! stable run-to-run; only wall-clock values (and scheduling-dependent
//! samples such as queue depths) vary. [`TelemetryReport::structural`]
//! captures exactly the stable part.
//!
//! # Clocks
//!
//! All timing flows through the handle's [`ClockMode`]:
//!
//! * [`ClockMode::Wall`] — real monotonic time (the default);
//! * [`ClockMode::Null`] — every timestamp and duration reads exactly
//!   `0`, turning wall-clock fields into constants so equality-based
//!   tests can assert exact equality on whole results (the
//!   `ShardingSummary` timing-hygiene contract).
//!
//! [`Telemetry::stopwatch`] extends the same abstraction to code that
//! reports raw seconds (the sharded-build phase timings): a disabled
//! handle still hands out wall-clock stopwatches, preserving the
//! untelemetered behavior of timing fields that predate this crate.
//!
//! # Consumers
//!
//! 1. [`Telemetry::chrome_trace`] — a Chrome trace-event JSON document
//!    (load in Perfetto or `chrome://tracing`): one track per worker
//!    thread, one complete (`"ph": "X"`) event per span.
//! 2. [`Telemetry::report`] — a [`TelemetryReport`]: per-span-path
//!    aggregates, counters, and histogram percentiles
//!    (p50/p95/p99/max), serializable as JSON in the `BENCH_*.json`
//!    style and printable as a human summary table.

pub mod hist;
pub mod report;

pub use hist::Histogram;
pub use report::{CounterSummary, HistogramSummary, SpanSummary, TelemetryReport};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
#[expect(
    clippy::disallowed_types,
    reason = "this crate owns the wall clock, behind ClockMode"
)]
use std::time::Instant;

/// How a [`Telemetry`] handle reads time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Real monotonic wall-clock time.
    #[default]
    Wall,
    /// Every timestamp and duration is exactly `0` — timing fields
    /// become constants, so two runs compare exactly equal on them.
    Null,
    /// Timestamps come from the *caller*, not a clock: scopes record
    /// `0` exactly like [`ClockMode::Null`], and spans are stamped via
    /// [`SpanRecorder::record_at`] on an externally supplied timebase
    /// (grtx-prof uses simulated GPU cycles, one tick per cycle). The
    /// handle itself never reads wall time, so exports are bit-identical
    /// across runs and thread counts by construction.
    Virtual,
}

/// One recorded span: a named, timed scope on one thread.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Static span name (e.g. `"pipeline.build"`).
    pub name: &'static str,
    /// Caller-chosen key (frame index, shard id, fragment index, …).
    pub key: u64,
    /// `/`-joined chain of enclosing span names, ending in `name`.
    pub path: String,
    /// Start timestamp, microseconds since the handle was created.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Per-recorder sequence number, in close order.
    pub seq: u32,
}

/// One thread's flushed span buffer.
#[derive(Debug, Clone)]
struct ThreadLog {
    label: String,
    events: Vec<SpanEvent>,
}

#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "the wall-clock epoch")]
struct Inner {
    epoch: Instant,
    clock: ClockMode,
    logs: Mutex<Vec<ThreadLog>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

/// The instrumentation handle threaded through the stack. Cheap to
/// clone; disabled by default. See the [crate docs](self) for the
/// design.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// Two handles are equal when they are the *same* sink (or both
/// disabled) — configuration structs deriving `PartialEq` compare
/// identity, not recorded content.
impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Telemetry {
    /// The no-op handle: every record method is a single `None` branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle on the wall clock.
    pub fn enabled() -> Self {
        Self::with_clock(ClockMode::Wall)
    }

    /// An enabled handle with an explicit clock.
    /// [`ClockMode::Null`] makes every recorded time exactly `0` —
    /// the deterministic-comparison mode.
    #[expect(clippy::disallowed_types, reason = "reads the wall-clock epoch")]
    pub fn with_clock(clock: ClockMode) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                clock,
                logs: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the handle was created (`0` when disabled or
    /// under the null clock).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) if inner.clock == ClockMode::Wall => {
                inner.epoch.elapsed().as_micros() as u64
            }
            _ => 0,
        }
    }

    /// Adds `n` to the named monotonic counter. Counter totals are
    /// order-independent sums, so concurrent adds from any thread
    /// produce deterministic values for deterministic workloads.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        let Some(inner) = &self.inner else { return };
        if n == 0 {
            return;
        }
        *inner
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(name)
            .or_insert(0) += n;
    }

    /// Records one sample into the named HDR histogram.
    pub fn record_value(&self, name: &'static str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(name)
            .or_default()
            .record(value);
    }

    /// A per-thread span recorder. Spans buffer locally (lock-free) and
    /// flush into the shared sink when the recorder drops. Recorders
    /// with the same `label` merge onto one Chrome-trace track, so a
    /// serial phase re-entered many times (e.g. one build per frame)
    /// keeps a single track.
    pub fn recorder(&self, label: impl Into<String>) -> SpanRecorder {
        SpanRecorder {
            inner: self.inner.clone(),
            label: label.into(),
            events: Vec::new(),
            stack: Vec::new(),
            seq: 0,
        }
    }

    /// A stopwatch on this handle's clock. Disabled handles hand out
    /// **wall-clock** stopwatches — code that reported wall-clock
    /// seconds before telemetry existed keeps doing so — while the null
    /// clock pins every reading to exactly `0.0`.
    #[expect(clippy::disallowed_types, reason = "starts the wall-clock stopwatch")]
    pub fn stopwatch(&self) -> Stopwatch {
        let clockless = matches!(
            &self.inner,
            Some(inner) if inner.clock != ClockMode::Wall
        );
        Stopwatch {
            start: (!clockless).then(Instant::now),
        }
    }

    /// Drains a snapshot of all flushed thread logs, merged in canonical
    /// `(thread label, sequence)` order. Live (undropped) recorders'
    /// buffers are not included.
    fn merged_events(&self) -> Vec<(String, SpanEvent)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let logs = inner
            .logs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut merged: Vec<(String, SpanEvent)> = logs
            .iter()
            .flat_map(|log| {
                log.events
                    .iter()
                    .map(|e| (log.label.clone(), e.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        merged.sort_by(|(la, ea), (lb, eb)| la.cmp(lb).then(ea.seq.cmp(&eb.seq)));
        merged
    }

    /// Exports every flushed span as a Chrome trace-event JSON document
    /// (the `{"traceEvents": [...]}` object form), loadable in Perfetto
    /// or `chrome://tracing`. One track (`tid`) per distinct recorder
    /// label, labeled via `thread_name` metadata events; spans are
    /// complete (`"ph": "X"`) events carrying their key and path as
    /// args. Returns `None` when disabled.
    pub fn chrome_trace(&self) -> Option<String> {
        self.inner.as_ref()?;
        let merged = self.merged_events();
        // Stable track numbering: labels sorted lexicographically, not
        // by registration order (which is scheduling-dependent).
        let mut labels: Vec<&str> = merged.iter().map(|(l, _)| l.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        let tid_of = |label: &str| labels.iter().position(|l| *l == label).unwrap();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev);
        };
        for (tid, label) in labels.iter().enumerate() {
            push(&mut out, format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                report::escape_json(label)
            ));
        }
        for (label, e) in &merged {
            push(&mut out, format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"grtx\",\"ts\":{},\"dur\":{},\"args\":{{\"key\":{},\"path\":\"{}\"}}}}",
                tid_of(label),
                report::escape_json(e.name),
                e.start_us,
                e.dur_us,
                e.key,
                report::escape_json(&e.path)
            ));
        }
        out.push_str("]}");
        Some(out)
    }

    /// Builds the canonical [`TelemetryReport`] from everything flushed
    /// so far: per-span-path aggregates (sorted by path), counters, and
    /// histogram percentiles. Returns `None` when disabled.
    pub fn report(&self) -> Option<TelemetryReport> {
        let inner = self.inner.as_ref()?;
        let merged = self.merged_events();
        let mut spans: BTreeMap<String, SpanSummary> = BTreeMap::new();
        for (_, e) in &merged {
            let s = spans.entry(e.path.clone()).or_insert_with(|| SpanSummary {
                path: e.path.clone(),
                count: 0,
                total_us: 0,
                max_us: 0,
            });
            s.count += 1;
            s.total_us += e.dur_us;
            s.max_us = s.max_us.max(e.dur_us);
        }
        let mut labels: Vec<String> = {
            let logs = inner
                .logs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            logs.iter().map(|l| l.label.clone()).collect()
        };
        labels.sort_unstable();
        labels.dedup();
        let counters = inner
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, value)| CounterSummary {
                name: name.to_string(),
                value: *value,
            })
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, h)| HistogramSummary {
                name: name.to_string(),
                count: h.count(),
                p50: h.percentile(50.0),
                p95: h.percentile(95.0),
                p99: h.percentile(99.0),
                max: h.max(),
            })
            .collect();
        Some(TelemetryReport {
            spans: spans.into_values().collect(),
            counters,
            histograms,
            threads: labels,
        })
    }
}

/// A timer on a [`Telemetry`] handle's clock (see
/// [`Telemetry::stopwatch`]).
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "holds the wall-clock start")]
pub struct Stopwatch {
    /// `None` under the null clock — readings are exactly `0.0`.
    start: Option<Instant>,
}

impl Stopwatch {
    /// Seconds elapsed since the stopwatch was created (`0.0` under the
    /// null clock).
    pub fn seconds(&self) -> f64 {
        self.start.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }
}

/// A per-thread span buffer (see [`Telemetry::recorder`]). All methods
/// are no-ops on a disabled handle's recorder.
#[derive(Debug)]
pub struct SpanRecorder {
    inner: Option<Arc<Inner>>,
    label: String,
    events: Vec<SpanEvent>,
    stack: Vec<(&'static str, u64, u64)>,
    seq: u32,
}

impl SpanRecorder {
    /// Runs `f` inside a named span. Nested scopes build the span's
    /// `/`-joined path, which is what the report aggregates by.
    pub fn scope<R>(&mut self, name: &'static str, key: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.inner.is_none() {
            return f(self);
        }
        self.open(name, key);
        let r = f(self);
        self.close();
        r
    }

    fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) if inner.clock == ClockMode::Wall => {
                inner.epoch.elapsed().as_micros() as u64
            }
            _ => 0,
        }
    }

    fn open(&mut self, name: &'static str, key: u64) {
        let start = self.now_us();
        self.stack.push((name, key, start));
    }

    /// Records one already-completed span with caller-supplied
    /// timestamps — the [`ClockMode::Virtual`] entry point. The caller
    /// owns the timebase (grtx-prof stamps simulated cycles, one trace
    /// tick per cycle); the recorder never reads a clock here, so the
    /// resulting events are pure functions of the caller's data. The
    /// span nests under any scopes currently open on this recorder.
    pub fn record_at(&mut self, name: &'static str, key: u64, start: u64, dur: u64) {
        if self.inner.is_none() {
            return;
        }
        let mut path = String::new();
        for (parent, _, _) in &self.stack {
            path.push_str(parent);
            path.push('/');
        }
        path.push_str(name);
        self.events.push(SpanEvent {
            name,
            key,
            path,
            start_us: start,
            dur_us: dur,
            seq: self.seq,
        });
        self.seq += 1;
    }

    fn close(&mut self) {
        let (name, key, start) = self.stack.pop().expect("close without open");
        let end = self.now_us();
        let mut path = String::new();
        for (parent, _, _) in &self.stack {
            path.push_str(parent);
            path.push('/');
        }
        path.push_str(name);
        self.events.push(SpanEvent {
            name,
            key,
            path,
            start_us: start,
            dur_us: end.saturating_sub(start),
            seq: self.seq,
        });
        self.seq += 1;
    }
}

impl Drop for SpanRecorder {
    fn drop(&mut self) {
        let Some(inner) = &self.inner else { return };
        if self.events.is_empty() {
            return;
        }
        inner
            .logs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ThreadLog {
                label: std::mem::take(&mut self.label),
                events: std::mem::take(&mut self.events),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter_add("c", 5);
        t.record_value("h", 10);
        let mut rec = t.recorder("worker");
        rec.scope("outer", 0, |rec| rec.scope("inner", 1, |_| ()));
        drop(rec);
        assert!(t.report().is_none());
        assert!(t.chrome_trace().is_none());
        assert_eq!(t.now_us(), 0);
    }

    #[test]
    fn nested_scopes_build_paths_and_aggregate() {
        let t = Telemetry::enabled();
        let mut rec = t.recorder("worker-0");
        for frame in 0..3 {
            rec.scope("frame", frame, |rec| {
                rec.scope("build", frame, |_| ());
                rec.scope("render", frame, |_| ());
            });
        }
        drop(rec);
        let report = t.report().expect("enabled");
        let paths: Vec<(&str, u64)> = report
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(
            paths,
            vec![("frame", 3), ("frame/build", 3), ("frame/render", 3)]
        );
        assert_eq!(report.threads, vec!["worker-0".to_string()]);
    }

    #[test]
    fn counters_sum_across_threads() {
        let t = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || t.counter_add("hits", 10));
            }
        });
        let report = t.report().unwrap();
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].name, "hits");
        assert_eq!(report.counters[0].value, 40);
    }

    #[test]
    fn null_clock_pins_every_time_to_zero() {
        let t = Telemetry::with_clock(ClockMode::Null);
        assert_eq!(t.now_us(), 0);
        let sw = t.stopwatch();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(sw.seconds(), 0.0);
        let mut rec = t.recorder("w");
        rec.scope("span", 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        drop(rec);
        let report = t.report().unwrap();
        assert_eq!(report.spans[0].total_us, 0);
    }

    #[test]
    fn virtual_clock_spans_carry_caller_timestamps() {
        let t = Telemetry::with_clock(ClockMode::Virtual);
        assert_eq!(t.now_us(), 0);
        let sw = t.stopwatch();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(sw.seconds(), 0.0);
        let mut rec = t.recorder("sm-00");
        rec.record_at("warp", 3, 100, 250);
        rec.scope("launch", 0, |rec| rec.record_at("warp", 4, 400, 50));
        drop(rec);
        let trace = t.chrome_trace().unwrap();
        assert!(trace.contains("\"ts\":100,\"dur\":250"));
        assert!(trace.contains("\"ts\":400,\"dur\":50"));
        let report = t.report().unwrap();
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["launch", "launch/warp", "warp"]);
    }

    #[test]
    fn record_at_on_disabled_recorder_is_a_no_op() {
        let t = Telemetry::disabled();
        let mut rec = t.recorder("sm-00");
        rec.record_at("warp", 0, 10, 20);
        drop(rec);
        assert!(t.chrome_trace().is_none());
    }

    #[test]
    fn disabled_stopwatch_still_reads_wall_clock() {
        let sw = Telemetry::disabled().stopwatch();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.seconds() > 0.0);
    }

    #[test]
    fn chrome_trace_has_thread_metadata_and_complete_events() {
        let t = Telemetry::enabled();
        let mut a = t.recorder("b-worker");
        a.scope("build", 7, |_| ());
        drop(a);
        let mut b = t.recorder("a-worker");
        b.scope("render", 1, |_| ());
        drop(b);
        let trace = t.chrome_trace().unwrap();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.ends_with("]}"));
        // Tracks number by sorted label, not registration order.
        assert!(
            trace.contains("\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"a-worker\"}")
        );
        assert!(
            trace.contains("\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"b-worker\"}")
        );
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"build\""));
        assert!(trace.contains("\"key\":7"));
    }

    #[test]
    fn same_label_recorders_share_one_track() {
        let t = Telemetry::enabled();
        for _ in 0..2 {
            let mut rec = t.recorder("build");
            rec.scope("plan", 0, |_| ());
            drop(rec);
        }
        let report = t.report().unwrap();
        assert_eq!(report.threads, vec!["build".to_string()]);
        assert_eq!(report.spans[0].count, 2);
    }

    #[test]
    fn handles_compare_by_identity() {
        let a = Telemetry::enabled();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, Telemetry::enabled());
        assert_eq!(Telemetry::disabled(), Telemetry::disabled());
        assert_ne!(a, Telemetry::disabled());
    }
}
