//! ws-trace export formats: JSONL and Chrome `trace_event` serialization
//! of a traced [`SimOutcome`], plus a dependency-free schema validator.
//!
//! The JSONL stream is one JSON object per line, each carrying a `"type"`
//! discriminator. The stream opens with a `meta` record (workload label,
//! policy, kernel names, run totals), continues with the decision-audit
//! records (every Eq. 2-4 scaling application, the water-filling inputs,
//! curves, grants and decision, the fallback verdict, phase-monitor
//! samples), then the simulator events (kernel/CTA lifecycle, MSHR fills,
//! fast-forward jumps, stall windows), and closes with one `finish` record
//! per kernel. [`validate_jsonl`] checks every line against the per-type
//! required-key schema in [`SCHEMAS`] using a built-in JSON parser, so CI
//! can gate trace output without any external tooling.
//!
//! The Chrome writer emits a `trace_event` JSON document loadable in
//! `chrome://tracing` / Perfetto: one complete (`ph:"X"`) span per kernel
//! from launch to finish, instant events for the CTA lifecycle, spans for
//! fast-forwarded gaps, and counter (`ph:"C"`) tracks for the per-window
//! stall breakdown.
//!
//! Everything here runs *after* a simulation completes; nothing in this
//! module is on the tick path.

use gpu_sim::TraceEvent;

use crate::audit::{AuditEvent, DecisionAudit};
use crate::resources::ResourceVec;
use crate::runner::SimOutcome;

/// Required keys per record type. Every JSONL line must carry a `"type"`
/// matching one of these entries and at least the listed keys.
pub const SCHEMAS: [(&str, &[&str]); 23] = [
    ("meta", &["label", "policy", "kernels", "total_cycles"]),
    ("predicted_curve", &["kernel", "perf", "knee"]),
    ("sweep_window", &["kernel", "lo", "hi", "max"]),
    (
        "scaled_point",
        &[
            "kernel",
            "ctas",
            "ipc_sampled",
            "phi_mem",
            "psi",
            "raw_factor",
            "factor",
            "clamped",
            "ipc_scaled",
        ],
    ),
    ("water_fill_inputs", &["cta_costs", "capacity"]),
    ("curve", &["kernel", "perf"]),
    ("water_fill_step", &["kernel", "ctas", "perf"]),
    (
        "water_fill_decision",
        &["quotas", "water_level", "predicted"],
    ),
    ("fallback_verdict", &["threshold", "max_loss", "spatial"]),
    (
        "phase_sample",
        &["kernel", "cycle", "ipc", "baseline", "triggered"],
    ),
    ("kernel_launch", &["cycle", "kernel"]),
    ("cta_launch", &["cycle", "sm", "kernel", "cta"]),
    ("cta_complete", &["cycle", "kernel", "cta"]),
    ("kernel_halt", &["cycle", "kernel", "insts"]),
    ("mshr_fill", &["cycle", "sm", "line"]),
    ("fast_forward", &["from", "to"]),
    (
        "stall_window",
        &["cycle", "mem", "raw", "exec", "ibuffer", "barrier", "idle"],
    ),
    ("finish", &["kernel", "name", "finish_cycle", "insts"]),
    ("store_hit", &["kernel", "sig", "perf"]),
    ("store_miss", &["kernel", "sig"]),
    ("store_invalidate", &["kernel", "sig"]),
    ("store_meta", &["version", "capacity", "entries"]),
    (
        "store_entry",
        &[
            "kernel_sig",
            "gpu_sig",
            "class",
            "archetype",
            "perf",
            "knee",
        ],
    ),
];

/// Escapes `s` for inclusion inside a JSON string literal.
///
/// Public so downstream JSON emitters (the xtask lint report, external
/// tooling) share one escaping implementation with the trace writer.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value (`null` for non-finite values, which
/// JSON cannot represent).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats a slice of `f64` as a JSON array.
fn num_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| num(v)).collect();
    format!("[{}]", items.join(","))
}

/// Formats an optional `u64` as a JSON value.
fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

/// Formats an optional `f64` as a JSON value.
fn opt_num(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), num)
}

/// Formats a [`ResourceVec`] as a JSON object.
fn resource_obj(r: &ResourceVec) -> String {
    format!(
        "{{\"regs\":{},\"shmem\":{},\"threads\":{},\"ctas\":{}}}",
        r.regs, r.shmem, r.threads, r.ctas
    )
}

/// One decision-audit event as a JSONL line (no trailing newline).
fn audit_line(e: &AuditEvent) -> String {
    match e {
        AuditEvent::ScaledPoint {
            kernel,
            ctas,
            ipc_sampled,
            phi_mem,
            psi,
            outcome,
        } => format!(
            "{{\"type\":\"scaled_point\",\"kernel\":{kernel},\"ctas\":{ctas},\
             \"ipc_sampled\":{},\"phi_mem\":{},\"psi\":{},\"raw_factor\":{},\
             \"factor\":{},\"clamped\":{},\"ipc_scaled\":{}}}",
            num(*ipc_sampled),
            num(*phi_mem),
            num(*psi),
            num(outcome.raw_factor),
            num(outcome.factor),
            outcome.clamped,
            num(outcome.ipc),
        ),
        AuditEvent::WaterFillInputs {
            cta_costs,
            capacity,
        } => {
            let costs: Vec<String> = cta_costs.iter().map(resource_obj).collect();
            format!(
                "{{\"type\":\"water_fill_inputs\",\"cta_costs\":[{}],\"capacity\":{}}}",
                costs.join(","),
                resource_obj(capacity),
            )
        }
        AuditEvent::Curve { kernel, perf } => format!(
            "{{\"type\":\"curve\",\"kernel\":{kernel},\"perf\":{}}}",
            num_array(perf)
        ),
        AuditEvent::PredictedCurve { kernel, perf, knee } => format!(
            "{{\"type\":\"predicted_curve\",\"kernel\":{kernel},\"perf\":{},\"knee\":{knee}}}",
            num_array(perf)
        ),
        // Every window's dense prefix starts at 1; `lo` stays on the wire
        // because the published `sweep_window` schema requires it.
        AuditEvent::SweepWindow { kernel, hi, max } => format!(
            "{{\"type\":\"sweep_window\",\"kernel\":{kernel},\"lo\":1,\"hi\":{hi},\"max\":{max}}}"
        ),
        AuditEvent::WaterFillStep { kernel, ctas, perf } => format!(
            "{{\"type\":\"water_fill_step\",\"kernel\":{kernel},\"ctas\":{ctas},\"perf\":{}}}",
            num(*perf)
        ),
        AuditEvent::WaterFillDecision {
            quotas,
            water_level,
            predicted,
        } => {
            let qs: Vec<String> = quotas.iter().map(u32::to_string).collect();
            format!(
                "{{\"type\":\"water_fill_decision\",\"quotas\":[{}],\
                 \"water_level\":{},\"predicted\":{}}}",
                qs.join(","),
                num(*water_level),
                num_array(predicted),
            )
        }
        AuditEvent::FallbackVerdict {
            threshold,
            max_loss,
            spatial,
        } => format!(
            "{{\"type\":\"fallback_verdict\",\"threshold\":{},\"max_loss\":{},\"spatial\":{spatial}}}",
            num(*threshold),
            opt_num(*max_loss),
        ),
        AuditEvent::PhaseSample {
            kernel,
            cycle,
            ipc,
            baseline,
            triggered,
        } => format!(
            "{{\"type\":\"phase_sample\",\"kernel\":{kernel},\"cycle\":{cycle},\
             \"ipc\":{},\"baseline\":{},\"triggered\":{triggered}}}",
            num(*ipc),
            opt_num(*baseline),
        ),
        AuditEvent::StoreHit { kernel, sig, perf } => format!(
            "{{\"type\":\"store_hit\",\"kernel\":{kernel},\"sig\":\"{sig:016x}\",\"perf\":{}}}",
            num_array(perf)
        ),
        AuditEvent::StoreMiss { kernel, sig } => {
            format!("{{\"type\":\"store_miss\",\"kernel\":{kernel},\"sig\":\"{sig:016x}\"}}")
        }
        AuditEvent::StoreInvalidate { kernel, sig } => {
            format!("{{\"type\":\"store_invalidate\",\"kernel\":{kernel},\"sig\":\"{sig:016x}\"}}")
        }
    }
}

/// One simulator event as a JSONL line (no trailing newline).
fn event_line(e: &TraceEvent) -> String {
    match e {
        TraceEvent::KernelLaunch { cycle, kernel } => {
            format!("{{\"type\":\"kernel_launch\",\"cycle\":{cycle},\"kernel\":{kernel}}}")
        }
        TraceEvent::CtaLaunch {
            cycle,
            sm,
            kernel,
            cta,
        } => format!(
            "{{\"type\":\"cta_launch\",\"cycle\":{cycle},\"sm\":{sm},\"kernel\":{kernel},\"cta\":{cta}}}"
        ),
        TraceEvent::CtaComplete { cycle, kernel, cta } => format!(
            "{{\"type\":\"cta_complete\",\"cycle\":{cycle},\"kernel\":{kernel},\"cta\":{cta}}}"
        ),
        TraceEvent::KernelHalt {
            cycle,
            kernel,
            insts,
        } => format!(
            "{{\"type\":\"kernel_halt\",\"cycle\":{cycle},\"kernel\":{kernel},\"insts\":{insts}}}"
        ),
        TraceEvent::MshrFill { cycle, sm, line } => {
            format!("{{\"type\":\"mshr_fill\",\"cycle\":{cycle},\"sm\":{sm},\"line\":{line}}}")
        }
        TraceEvent::FastForward { from, to } => {
            format!("{{\"type\":\"fast_forward\",\"from\":{from},\"to\":{to}}}")
        }
        TraceEvent::StallWindow { cycle, stalls } => format!(
            "{{\"type\":\"stall_window\",\"cycle\":{cycle},\"mem\":{},\"raw\":{},\
             \"exec\":{},\"ibuffer\":{},\"barrier\":{},\"idle\":{}}}",
            stalls.mem, stalls.raw, stalls.exec, stalls.ibuffer, stalls.barrier, stalls.idle,
        ),
    }
}

/// Serializes a decision audit as JSONL, one record per event in
/// recording order: the audit section of [`jsonl`].
#[must_use]
pub fn audit_jsonl(audit: &DecisionAudit) -> String {
    audit.events.iter().map(|e| audit_line(e) + "\n").collect()
}

/// Serializes a traced run as JSONL: a `meta` record, the decision-audit
/// records, the simulator events, and one `finish` record per kernel.
/// Works on untraced outcomes too (the audit/event sections are simply
/// absent). `kernel_names` must have one entry per kernel slot.
#[must_use]
pub fn jsonl(outcome: &SimOutcome, label: &str, policy: &str, kernel_names: &[&str]) -> String {
    let mut out = String::new();
    let names: Vec<String> = kernel_names
        .iter()
        .map(|n| format!("\"{}\"", esc(n)))
        .collect();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"label\":\"{}\",\"policy\":\"{}\",\"kernels\":[{}],\
         \"total_cycles\":{},\"ff_skipped_cycles\":{},\"timed_out\":{}}}\n",
        esc(label),
        esc(policy),
        names.join(","),
        outcome.total_cycles,
        outcome.ff_skipped_cycles,
        outcome.timed_out,
    ));
    if let Some(audit) = &outcome.audit {
        out.push_str(&audit_jsonl(audit));
    }
    if let Some(events) = &outcome.trace {
        for e in events {
            out.push_str(&event_line(e));
            out.push('\n');
        }
    }
    for (k, name) in kernel_names.iter().enumerate() {
        out.push_str(&format!(
            "{{\"type\":\"finish\",\"kernel\":{k},\"name\":\"{}\",\"finish_cycle\":{},\"insts\":{}}}\n",
            esc(name),
            opt_u64(outcome.finish_cycle.get(k).copied().flatten()),
            outcome.end_insts.get(k).copied().unwrap_or(0),
        ));
    }
    out
}

/// Serializes a traced run as a Chrome `trace_event` JSON document
/// (loadable in `chrome://tracing` or Perfetto). Timestamps are core
/// cycles. Kernels are spans on pid 0, per-SM CTA activity instants on
/// pid 1, fast-forward gaps spans on pid 2, and stall windows counter
/// tracks on pid 0.
#[must_use]
pub fn chrome_trace(outcome: &SimOutcome, kernel_names: &[&str]) -> String {
    let mut ev: Vec<String> = Vec::new();
    for (pid, name) in [(0, "kernels"), (1, "sms"), (2, "simulator")] {
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for (k, name) in kernel_names.iter().enumerate() {
        let end = outcome
            .finish_cycle
            .get(k)
            .copied()
            .flatten()
            .unwrap_or(outcome.total_cycles);
        ev.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"kernel\",\"ts\":0,\"dur\":{end},\
             \"pid\":0,\"tid\":{k}}}",
            esc(name),
        ));
    }
    for e in outcome.trace.as_deref().unwrap_or(&[]) {
        match e {
            TraceEvent::KernelLaunch { cycle, kernel } => ev.push(format!(
                "{{\"ph\":\"i\",\"name\":\"launch\",\"ts\":{cycle},\"pid\":0,\
                 \"tid\":{kernel},\"s\":\"t\"}}"
            )),
            TraceEvent::KernelHalt { cycle, kernel, .. } => ev.push(format!(
                "{{\"ph\":\"i\",\"name\":\"halt\",\"ts\":{cycle},\"pid\":0,\
                 \"tid\":{kernel},\"s\":\"t\"}}"
            )),
            TraceEvent::CtaLaunch {
                cycle,
                sm,
                kernel,
                cta,
            } => ev.push(format!(
                "{{\"ph\":\"i\",\"name\":\"cta {cta} k{kernel}\",\"ts\":{cycle},\
                 \"pid\":1,\"tid\":{sm},\"s\":\"t\"}}"
            )),
            TraceEvent::CtaComplete { cycle, kernel, cta } => ev.push(format!(
                "{{\"ph\":\"i\",\"name\":\"cta {cta} done\",\"ts\":{cycle},\
                 \"pid\":0,\"tid\":{kernel},\"s\":\"t\"}}"
            )),
            TraceEvent::MshrFill { .. } => {}
            TraceEvent::FastForward { from, to } => ev.push(format!(
                "{{\"ph\":\"X\",\"name\":\"fast-forward\",\"cat\":\"ff\",\"ts\":{from},\
                 \"dur\":{},\"pid\":2,\"tid\":0}}",
                to.saturating_sub(*from),
            )),
            TraceEvent::StallWindow { cycle, stalls } => ev.push(format!(
                "{{\"ph\":\"C\",\"name\":\"stalls\",\"ts\":{cycle},\"pid\":0,\
                 \"args\":{{\"mem\":{},\"raw\":{},\"exec\":{},\"ibuffer\":{},\
                 \"barrier\":{},\"idle\":{}}}}}",
                stalls.mem, stalls.raw, stalls.exec, stalls.ibuffer, stalls.barrier, stalls.idle,
            )),
        }
    }
    format!("{{\"traceEvents\":[{}]}}\n", ev.join(","))
}

/// A parsed JSON value (just enough structure for schema validation and
/// the store loader).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in
    /// `u64` range (bit-compared against its truncation, so no float
    /// equality is involved).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n)
                if *n >= 0.0
                    && *n <= 9_007_199_254_740_992.0
                    && n.trunc().to_bits() == n.to_bits() =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub(crate) fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSONL line into a [`Json`] value (the store loader shares
/// the validator's parser).
pub(crate) fn parse_line(line: &str) -> Result<Json, String> {
    Parser::new(line).parse()
}

/// A minimal recursive-descent JSON parser over one input line.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8".to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            // Accept \uXXXX but keep only the raw escape; the
                            // validator never inspects decoded text.
                            let end = self.pos + 5;
                            if end > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            out.push(b'?');
                            self.pos = end - 1;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(&[]))
            .map_err(|_| "invalid UTF-8 in number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.consume(b':')?;
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(v)
        } else {
            Err(format!("trailing input at byte {}", self.pos))
        }
    }
}

/// Validates a ws-trace JSONL document: every non-empty line must parse as
/// a JSON object whose `"type"` names a known record type and which carries
/// that type's required keys (see [`SCHEMAS`]). Returns the number of
/// records validated.
///
/// # Errors
///
/// Returns a message naming the first offending line (1-based) and what
/// was wrong with it.
pub fn validate_jsonl(input: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value = Parser::new(line)
            .parse()
            .map_err(|e| format!("line {line_no}: {e}"))?;
        let Some(Json::Str(ty)) = value.get("type") else {
            return Err(format!("line {line_no}: missing string \"type\" field"));
        };
        let Some((_, required)) = SCHEMAS.iter().find(|(name, _)| name == ty) else {
            return Err(format!("line {line_no}: unknown record type \"{ty}\""));
        };
        for key in *required {
            if value.get(key).is_none() {
                return Err(format!(
                    "line {line_no}: record type \"{ty}\" is missing required key \"{key}\""
                ));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// Validates that every non-empty line of `input` parses as a JSON value,
/// with no record-type schema applied — for JSONL documents other than
/// ws-trace streams (e.g. the xtask lint report). Returns the number of
/// lines parsed.
///
/// # Errors
///
/// Returns a message naming the first offending line (1-based) and what
/// was wrong with it.
pub fn validate_json_syntax(input: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        Parser::new(line)
            .parse()
            .map_err(|e| format!("line {}: {e}", idx + 1))?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyKind, WarpedSlicerConfig};
    use crate::runner::{execute, run_isolation, RunConfig, SimJob, TraceOptions};
    use ws_workloads::by_abbrev;

    fn traced_outcome() -> (SimOutcome, Vec<&'static str>) {
        let cfg = RunConfig {
            isolation_cycles: 12_000,
            trace: Some(TraceOptions::default()),
            ..RunConfig::default()
        };
        let a = by_abbrev("IMG").unwrap().desc;
        let b = by_abbrev("NN").unwrap().desc;
        let ta = run_isolation(&a, &cfg).target_insts;
        let tb = run_isolation(&b, &cfg).target_insts;
        let policy = PolicyKind::WarpedSlicer(WarpedSlicerConfig::scaled_for(12_000));
        let job = SimJob::corun(&[&a, &b], &[ta, tb], &policy, &cfg);
        (execute(&job), vec!["IMG", "NN"])
    }

    #[test]
    fn traced_corun_exports_schema_valid_jsonl() {
        let (outcome, names) = traced_outcome();
        let text = jsonl(&outcome, "IMG_NN", "warped-slicer", &names);
        let records = validate_jsonl(&text).expect("schema-valid");
        assert!(records > 10, "only {records} records");
        // Acceptance: at least one scaled-curve record per kernel with its
        // phi_mem/psi inputs, a water-filling decision with the quota
        // vector, and per-kernel finish records.
        for k in 0..2 {
            assert!(
                text.lines().any(|l| l.contains("\"type\":\"scaled_point\"")
                    && l.contains(&format!("\"kernel\":{k}"))
                    && l.contains("\"phi_mem\":")
                    && l.contains("\"psi\":")),
                "kernel {k} scaled point missing"
            );
            assert!(
                text.lines()
                    .any(|l| l.contains("\"type\":\"finish\"")
                        && l.contains(&format!("\"kernel\":{k}"))),
                "kernel {k} finish record missing"
            );
        }
        assert!(text.contains("\"type\":\"water_fill_decision\""));
        assert!(text.contains("\"quotas\":["));
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let (outcome, names) = traced_outcome();
        let doc = chrome_trace(&outcome, &names);
        let parsed = Parser::new(doc.trim()).parse().expect("valid JSON");
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        assert!(events.len() > 5);
        assert!(doc.contains("\"name\":\"IMG\""));
        assert!(doc.contains("\"ph\":\"X\""));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_jsonl("{\"type\":\"meta\"").is_err(), "truncated");
        assert!(
            validate_jsonl("{\"cycle\":5}")
                .unwrap_err()
                .contains("type"),
            "missing type"
        );
        assert!(
            validate_jsonl("{\"type\":\"bogus\"}")
                .unwrap_err()
                .contains("unknown record type"),
            "unknown type"
        );
        let missing = validate_jsonl("{\"type\":\"kernel_launch\",\"cycle\":5}");
        assert!(missing.unwrap_err().contains("kernel"), "missing key named");
    }

    #[test]
    fn validator_counts_records_and_skips_blank_lines() {
        let text = "{\"type\":\"kernel_launch\",\"cycle\":5,\"kernel\":0}\n\n\
                    {\"type\":\"fast_forward\",\"from\":10,\"to\":90}\n";
        assert_eq!(validate_jsonl(text), Ok(2));
        assert_eq!(validate_jsonl(""), Ok(0));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(opt_num(None), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let parsed = Parser::new("\"a\\\"b\\\\c\\nd\"").parse().unwrap();
        assert_eq!(parsed, Json::Str("a\"b\\c\nd".to_string()));
    }
}
