//! Incremental Perfetto JSON export with **bounded resident memory**.
//!
//! The buffered exporter ([`crate::to_perfetto`] + `serde_json::to_string`)
//! holds the whole event vector *and* the whole JSON text in memory — O(run).
//! On a 1M-token multi-step run that is exactly the kind of peak this PR
//! exists to measure, so the trace pipeline itself must not have it. A
//! [`StreamingPerfettoWriter`] writes the same JSON document event by
//! event: the caller serializes one step's events, hands them over, drops
//! them, and the writer flushes to the sink — resident memory is one
//! serialized event (plus the sink's own buffer), O(step) not O(run).
//!
//! The output is **byte-identical** to serializing the equivalent
//! [`PerfettoTrace`](crate::PerfettoTrace) through the workspace
//! `serde_json` shim (compact via `to_string`, pretty via
//! `to_string_pretty`) — the tests lock both, so a trace written either
//! way diffs clean. The writer tracks its own high-water mark
//! ([`StreamingPerfettoWriter::high_water_bytes`]) so tests can prove the
//! bound instead of asserting it.

use crate::perfetto::PerfettoEvent;
use std::io::Write;

/// Incremental writer for one Perfetto trace document.
///
/// ```text
/// let mut w = StreamingPerfettoWriter::pretty(file);
/// for step in run {
///     for e in step.events() { w.write_event(&e)?; }
///     w.flush()?;                       // per-step durability
/// }
/// w.finish()?;                          // closes the JSON envelope
/// ```
pub struct StreamingPerfettoWriter<W: Write> {
    sink: W,
    pretty: bool,
    events: u64,
    /// Largest number of bytes ever buffered between sink writes — the
    /// quantity the boundedness tests pin (it must not grow with run
    /// length, only with the largest single event).
    high_water: usize,
    finished: bool,
}

impl<W: Write> StreamingPerfettoWriter<W> {
    /// Compact output, byte-identical to `serde_json::to_string`.
    pub fn compact(sink: W) -> Self {
        Self::new(sink, false)
    }

    /// Pretty output, byte-identical to `serde_json::to_string_pretty`.
    pub fn pretty(sink: W) -> Self {
        Self::new(sink, true)
    }

    fn new(sink: W, pretty: bool) -> Self {
        StreamingPerfettoWriter {
            sink,
            pretty,
            events: 0,
            high_water: 0,
            finished: false,
        }
    }

    /// Serialize and emit one event. Only this event's text is resident;
    /// it is handed to the sink before returning.
    pub fn write_event(&mut self, e: &PerfettoEvent) -> std::io::Result<()> {
        assert!(!self.finished, "write_event after finish");
        let body = if self.pretty {
            serde_json::to_string_pretty(e)
        } else {
            serde_json::to_string(e)
        }
        .expect("event serialization is infallible");
        // Envelope prefix: document opening before the first event, a
        // separator before every later one.
        let mut chunk = String::with_capacity(body.len() + 32);
        if self.events == 0 {
            chunk.push_str(if self.pretty {
                "{\n  \"traceEvents\": [\n    "
            } else {
                "{\"traceEvents\":["
            });
        } else {
            chunk.push_str(if self.pretty { ",\n    " } else { "," });
        }
        if self.pretty {
            // The shim indents by depth; an event sits two levels deep
            // (document → array → object), so shift every continuation
            // line by 4 spaces. JSON strings escape raw newlines, so the
            // only `\n` bytes are the serializer's own.
            chunk.push_str(&body.replace('\n', "\n    "));
        } else {
            chunk.push_str(&body);
        }
        self.high_water = self.high_water.max(chunk.len());
        self.events += 1;
        self.sink.write_all(chunk.as_bytes())
    }

    /// Flush the sink (call at step boundaries for durability).
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.sink.flush()
    }

    /// Close the JSON envelope and flush. Returns the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        let tail = match (self.pretty, self.events == 0) {
            (true, true) => "{\n  \"traceEvents\": [],\n  \"displayTimeUnit\": \"ns\"\n}",
            (true, false) => "\n  ],\n  \"displayTimeUnit\": \"ns\"\n}",
            (false, true) => "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}",
            (false, false) => "],\"displayTimeUnit\":\"ns\"}",
        };
        self.high_water = self.high_water.max(tail.len());
        self.sink.write_all(tail.as_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Largest chunk ever buffered between sink writes (bytes).
    pub fn high_water_bytes(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{mem_counter_events, MemCategory, MemLedger};
    use crate::perfetto::{to_perfetto, PerfettoTrace};
    use crate::span::{RankSink, SpanKind};

    fn sample_traces(rounds: usize) -> Vec<crate::span::RankTrace> {
        (0..2u32)
            .map(|rank| {
                let mut sink = RankSink::with_capacity(rank as usize, 4 * rounds + 8);
                sink.begin(SpanKind::Step, "step0", 0.0);
                for r in 0..rounds {
                    let t = r as f64 * 1e-3;
                    sink.leaf(
                        SpanKind::Send,
                        "kv",
                        t,
                        t + 5e-4,
                        1 - rank,
                        4096,
                        r % 2 == 0,
                    );
                    sink.leaf(
                        SpanKind::Kernel,
                        "attn_tile",
                        t,
                        t + 4e-4,
                        u32::MAX,
                        0,
                        false,
                    );
                }
                sink.end(rounds as f64 * 1e-3);
                sink.finish(rounds as f64 * 1e-3)
            })
            .collect()
    }

    fn stream_all(trace: &PerfettoTrace, pretty: bool) -> (String, usize) {
        let mut w = if pretty {
            StreamingPerfettoWriter::pretty(Vec::new())
        } else {
            StreamingPerfettoWriter::compact(Vec::new())
        };
        for e in &trace.traceEvents {
            w.write_event(e).unwrap();
        }
        let hw = w.high_water_bytes();
        let bytes = w.finish().unwrap();
        (String::from_utf8(bytes).unwrap(), hw)
    }

    #[test]
    fn compact_output_is_byte_identical_to_buffered() {
        let trace = to_perfetto(&sample_traces(5));
        let buffered = serde_json::to_string(&trace).unwrap();
        let (streamed, _) = stream_all(&trace, false);
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn pretty_output_is_byte_identical_to_buffered() {
        let trace = to_perfetto(&sample_traces(5));
        let buffered = serde_json::to_string_pretty(&trace).unwrap();
        let (streamed, _) = stream_all(&trace, true);
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn counter_events_stream_identically_too() {
        let mut trace = to_perfetto(&sample_traces(3));
        let mut l = MemLedger::new(0);
        let a = l.alloc("kv", MemCategory::RingShards, 4096, 0.0);
        l.free(a, 2e-3);
        trace
            .traceEvents
            .extend(mem_counter_events(&l.finish(3e-3), 0));
        let buffered = serde_json::to_string_pretty(&trace).unwrap();
        let (streamed, _) = stream_all(&trace, true);
        assert_eq!(streamed, buffered);
    }

    #[test]
    fn empty_trace_matches_buffered() {
        let trace = PerfettoTrace {
            traceEvents: Vec::new(),
            displayTimeUnit: "ns".to_string(),
        };
        for pretty in [false, true] {
            let buffered = if pretty {
                serde_json::to_string_pretty(&trace).unwrap()
            } else {
                serde_json::to_string(&trace).unwrap()
            };
            let (streamed, _) = stream_all(&trace, pretty);
            assert_eq!(streamed, buffered);
        }
    }

    #[test]
    fn resident_memory_is_bounded_by_one_event_not_the_run() {
        // 20× the rounds, same event shapes: the writer's high-water mark
        // must not grow with run length, while the buffered exporter's
        // whole-document size obviously does.
        let short = to_perfetto(&sample_traces(10));
        let long = to_perfetto(&sample_traces(200));
        let (text_short, hw_short) = stream_all(&short, true);
        let (text_long, hw_long) = stream_all(&long, true);
        assert!(text_long.len() > 10 * text_short.len());
        // 20× the events, yet the high-water mark moves only by the extra
        // timestamp digits of one event — it does not scale with the run.
        assert!(
            hw_long <= hw_short + 8,
            "streaming high-water grew with run length: {hw_short} -> {hw_long}"
        );
        // And the bound is tight: no bigger than the largest single event's
        // serialization plus the envelope prefix.
        let max_event = long
            .traceEvents
            .iter()
            .map(|e| serde_json::to_string_pretty(e).unwrap().len())
            .max()
            .unwrap();
        assert!(hw_long <= max_event + 4 * max_event / 10 + 64);
    }

    #[test]
    fn streamed_document_parses_back() {
        let trace = to_perfetto(&sample_traces(4));
        let (streamed, _) = stream_all(&trace, true);
        let back: PerfettoTrace = serde_json::from_str(&streamed).unwrap();
        assert_eq!(back, trace);
    }
}
