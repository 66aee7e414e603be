//! The prediction daemon: answers assignment-time power-estimation
//! queries over newline-delimited JSON.
//!
//! One request per line, one response per line. Every request is an
//! object with an `op` field and an optional `id` that is echoed back
//! verbatim, so clients may pipeline requests over one connection.
//! Successful responses carry `"ok": true` plus op-specific fields;
//! failures carry `"ok": false` and an `error` object whose `code`
//! mirrors the `mpmc` process exit-code taxonomy
//! ([`crate::errors::exit_code`]).
//!
//! Operations:
//!
//! | op           | request fields                        | response fields |
//! |--------------|---------------------------------------|-----------------|
//! | `register`   | `name`, `profile` (persist v1 text)   | `replaced`, `fingerprint` |
//! | `unregister` | `name`                                | — |
//! | `estimate`   | `assignment` (per-core name arrays), `deadline_ms`? | `power_w`, `degraded`? |
//! | `assign`     | `process`, `current`?, `cores`?, `deadline_ms`?     | `best_core`, `best_power_w`, `candidates`, `degraded`? |
//! | `optimize`   | `processes` (name array), `objective`?, `seed`?, `deadline_ms`? | `placement`, `power_w`, `makespan`, `method`, `evaluated`, `pruned`, `degraded`? |
//! | `stats`      | —                                     | counters, cache + latency + overload stats |
//! | `ping`       | —                                     | — |
//! | `shutdown`   | —                                     | — (daemon stops) |
//!
//! All sessions of one service share a single [`CombinedModel`], so the
//! bounded equilibrium memo cache is warmed across connections. stdio
//! and every TCP connection run one session loop that writes each
//! response and its newline in a single write; TCP sockets set
//! `TCP_NODELAY`. `assign` batch-solves its candidates' missing co-run
//! sets over [`mathkit::parallel`] workers, then walks the candidates in
//! order on cache hits.
//!
//! # Overload behavior (DESIGN.md §13)
//!
//! The solve ops (`estimate`, `assign`, `optimize`) pass through, in
//! order:
//!
//! 1. **Admission** — a bounded in-flight budget plus bounded queue
//!    ([`crate::admission`]); beyond it the request is shed with a typed
//!    `overloaded` error carrying a `retry_after_ms` hint. Cheap ops
//!    (`ping`, `stats`, registry changes) bypass admission so the daemon
//!    stays observable under load.
//! 2. **Deadline** — `deadline_ms` (default `--default-deadline-ms`)
//!    becomes a cooperative [`CancelToken`](mathkit::sync::CancelToken)
//!    polled inside solver iterations; expiry is the typed
//!    `deadline_exceeded` error. `deadline_ms: 0` expires instantly.
//! 3. **Breaker** — a clock-free circuit breaker ([`crate::breaker`])
//!    over exact-solve outcomes; while open, answers come from the
//!    degraded tier (exact cache peek, else the proportional closed
//!    form) and are tagged `"degraded": true` with a
//!    `degraded_source`.
//! 4. **Single-flight** — concurrent `estimate`s for the same exact
//!    co-run key coalesce into one solve ([`crate::singleflight`]);
//!    bit-identical by model determinism, invisible on the wire.
//!
//! Oversized request lines are discarded with a typed `line_too_long`
//! error (the connection survives); connections beyond the TCP cap get
//! a typed `too_many_connections` greeting and are closed.

use crate::admission::AdmissionGate;
use crate::breaker::{CircuitBreaker, Decision};
use crate::chaos::FaultPlan;
use crate::deadline::Deadline;
use crate::errors::{exit_code, ServiceError};
use crate::json::{self, Json};
use crate::singleflight::{Flight, SingleFlight};
use cmpsim::machine::MachineConfig;
use mathkit::latency::LatencyHistogram;
use mpmc_model::assignment::{Assignment, CombinedModel, DegradedSource};
use mpmc_model::persist;
use mpmc_model::power::PowerModel;
use mpmc_model::profile::ProcessProfile;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// How long a blocked TCP read waits before re-checking the shutdown
/// flag. Bounds both shutdown latency and idle-connection wake-ups.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Tunable limits for an overload-hardened service (DESIGN.md §13).
///
/// Everything has a deliberately conservative default; the CLI maps
/// `mpmc serve` flags onto the fields it exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Resolved batch solve width (0 = auto) for the cache misses of an
    /// `assign` and for `optimize`.
    pub workers: usize,
    /// Bound on the shared equilibrium memo cache (entries).
    pub cache_capacity: usize,
    /// Longest accepted request line in bytes (0 = unlimited). Longer
    /// lines are discarded with a typed `line_too_long` error.
    pub max_line_bytes: usize,
    /// Concurrent TCP connections served; further connections get a
    /// typed `too_many_connections` greeting and are closed.
    pub max_connections: usize,
    /// Solve requests allowed in flight concurrently.
    pub max_inflight: usize,
    /// Solve requests allowed to queue for admission beyond the
    /// in-flight budget; more than this is shed immediately.
    pub max_queued: usize,
    /// How long a queued request waits for admission before being shed.
    pub queue_wait_ms: u64,
    /// Default `deadline_ms` applied to solve requests that do not set
    /// one (0 = no default deadline).
    pub default_deadline_ms: u64,
    /// Sliding window of exact-solve outcomes the breaker watches.
    pub breaker_window: usize,
    /// Failures within the window that trip the breaker open.
    pub breaker_threshold: u32,
    /// Degraded requests served before the open breaker half-opens.
    pub breaker_cooldown: u32,
    /// How long a coalesced follower waits for its leader's solve.
    pub singleflight_wait_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            cache_capacity: 4096,
            max_line_bytes: 1 << 20,
            max_connections: 64,
            max_inflight: 4,
            max_queued: 8,
            queue_wait_ms: 100,
            default_deadline_ms: 0,
            breaker_window: 32,
            breaker_threshold: 8,
            breaker_cooldown: 16,
            singleflight_wait_ms: 2_000,
        }
    }
}

/// What one [`LineReader::poll`] produced.
#[derive(Debug, PartialEq, Eq)]
enum ReadOutcome {
    /// End of input with nothing pending.
    Eof,
    /// One complete line (newline stripped, trailing `\r` dropped).
    Line(String),
    /// A line exceeded the byte cap; `dropped` bytes were discarded up
    /// to (not including) the terminating newline or EOF.
    TooLong { dropped: usize },
    /// A complete line was not valid UTF-8.
    BadUtf8,
}

/// An incremental, byte-capped line reader over any [`BufRead`].
///
/// Unlike `read_line`, an oversized line never grows an unbounded
/// `String` from wire-controlled input: once the running length passes
/// the cap the reader switches to *discard* mode, counts what it drops,
/// and reports [`ReadOutcome::TooLong`] at the next newline — after
/// which the stream is back in sync and the connection can continue.
///
/// `poll` propagates `WouldBlock`/`TimedOut` errors from the underlying
/// reader while keeping all partial-line state, which is exactly what
/// the TCP session loop's short read timeouts need.
#[derive(Debug)]
struct LineReader {
    cap: usize,
    buf: Vec<u8>,
    discarding: bool,
    dropped: usize,
}

impl LineReader {
    /// A reader capping lines at `cap` bytes (0 = unlimited).
    fn new(cap: usize) -> Self {
        let cap = if cap == 0 { usize::MAX } else { cap };
        LineReader { cap, buf: Vec::new(), discarding: false, dropped: 0 }
    }

    /// Reads until one [`ReadOutcome`] is available.
    ///
    /// # Errors
    ///
    /// Propagates underlying I/O errors (including `WouldBlock` timeouts
    /// on non-blocking sources); partial-line state survives them.
    fn poll<R: BufRead>(&mut self, reader: &mut R) -> std::io::Result<ReadOutcome> {
        loop {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                // EOF: flush whatever is pending.
                if self.discarding {
                    self.discarding = false;
                    let dropped = std::mem::take(&mut self.dropped);
                    return Ok(ReadOutcome::TooLong { dropped });
                }
                if self.buf.is_empty() {
                    return Ok(ReadOutcome::Eof);
                }
                return Ok(Self::finish(std::mem::take(&mut self.buf)));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if self.discarding {
                        self.dropped += pos;
                        reader.consume(pos + 1);
                        self.discarding = false;
                        let dropped = std::mem::take(&mut self.dropped);
                        return Ok(ReadOutcome::TooLong { dropped });
                    }
                    if self.buf.len() + pos > self.cap {
                        let dropped = self.buf.len() + pos;
                        self.buf.clear();
                        reader.consume(pos + 1);
                        return Ok(ReadOutcome::TooLong { dropped });
                    }
                    self.buf.extend_from_slice(&available[..pos]);
                    reader.consume(pos + 1);
                    return Ok(Self::finish(std::mem::take(&mut self.buf)));
                }
                None => {
                    let n = available.len();
                    if self.discarding {
                        self.dropped += n;
                    } else if self.buf.len() + n > self.cap {
                        self.discarding = true;
                        self.dropped = self.buf.len() + n;
                        self.buf.clear();
                    } else {
                        self.buf.extend_from_slice(available);
                    }
                    reader.consume(n);
                }
            }
        }
    }

    fn finish(mut bytes: Vec<u8>) -> ReadOutcome {
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        match String::from_utf8(bytes) {
            Ok(line) => ReadOutcome::Line(line),
            Err(_) => ReadOutcome::BadUtf8,
        }
    }
}

/// Per-operation request counters (relaxed; read only for diagnostics).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    register: AtomicU64,
    unregister: AtomicU64,
    estimate: AtomicU64,
    assign: AtomicU64,
    optimize: AtomicU64,
    stats: AtomicU64,
    ping: AtomicU64,
    shutdown: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    degraded: AtomicU64,
    line_too_long: AtomicU64,
    too_many_connections: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// The long-running prediction service: a profile registry plus the
/// machinery to answer requests concurrently against one shared
/// [`CombinedModel`].
///
/// The service owns the machine description and fitted power model;
/// sessions ([`run_stdio`](PredictionService::run_stdio) /
/// [`run_tcp`](PredictionService::run_tcp)) borrow them for the model's
/// lifetime. A `shutdown` request (or
/// [`request_shutdown`](PredictionService::request_shutdown)) stops all
/// sessions within one [`POLL_INTERVAL`].
pub struct PredictionService {
    machine: MachineConfig,
    power: PowerModel,
    opts: ServeOptions,
    registry: RwLock<BTreeMap<String, ProcessProfile>>,
    counters: Counters,
    latency: LatencyHistogram,
    shutdown: AtomicBool,
    gate: AdmissionGate,
    breaker: CircuitBreaker,
    flights: SingleFlight<Vec<u64>, Result<f64, ServiceError>>,
    chaos: Option<FaultPlan>,
    solve_events: AtomicU64,
    conn_active: AtomicUsize,
}

impl PredictionService {
    /// Creates a service for `machine` with the fitted `power` model and
    /// default overload limits.
    ///
    /// `workers` is the *resolved* batch solve width for the cache
    /// misses of an `assign` and for `optimize` (the CLI resolves
    /// `--workers` / `MPMC_WORKERS` before constructing the service; `0`
    /// still means auto at call time). `cache_capacity` bounds the shared
    /// equilibrium memo cache.
    pub fn new(
        machine: MachineConfig,
        power: PowerModel,
        workers: usize,
        cache_capacity: usize,
    ) -> Self {
        Self::with_options(
            machine,
            power,
            ServeOptions { workers, cache_capacity, ..ServeOptions::default() },
        )
    }

    /// Creates a service with explicit overload limits.
    pub fn with_options(machine: MachineConfig, power: PowerModel, opts: ServeOptions) -> Self {
        let gate = AdmissionGate::new(
            opts.max_inflight,
            opts.max_queued,
            Duration::from_millis(opts.queue_wait_ms),
        );
        let breaker =
            CircuitBreaker::new(opts.breaker_window, opts.breaker_threshold, opts.breaker_cooldown);
        PredictionService {
            machine,
            power,
            opts,
            registry: RwLock::new(BTreeMap::new()),
            counters: Counters::default(),
            latency: LatencyHistogram::default(),
            shutdown: AtomicBool::new(false),
            gate,
            breaker,
            flights: SingleFlight::new(),
            chaos: None,
            solve_events: AtomicU64::new(0),
            conn_active: AtomicUsize::new(0),
        }
    }

    /// Installs a deterministic chaos fault plan: exact solves are
    /// delayed per [`FaultPlan::solver_spike`]. Testing only.
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The machine this service predicts for.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The configured overload limits.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// The resolved batch solve width for `assign` misses and `optimize`.
    pub fn workers(&self) -> usize {
        self.opts.workers
    }

    /// Asks all running sessions to stop (idempotent, thread-safe).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Registered profile count.
    pub fn num_profiles(&self) -> usize {
        self.read_registry().len()
    }

    /// Registers `profile` under `name`, replacing any previous profile
    /// of that name. Returns whether a profile was replaced.
    ///
    /// # Errors
    ///
    /// Rejects profiles built for a different cache associativity than
    /// this service's machine.
    pub fn register_profile(
        &self,
        name: &str,
        profile: ProcessProfile,
    ) -> Result<bool, ServiceError> {
        if name.is_empty() {
            return Err(ServiceError::usage("profile name must not be empty"));
        }
        if profile.feature.assoc() != self.machine.l2_assoc() {
            return Err(ServiceError::data(format!(
                "profile '{name}' was built for {} ways, machine cache has {}",
                profile.feature.assoc(),
                self.machine.l2_assoc()
            )));
        }
        Ok(self.write_registry().insert(name.to_string(), profile).is_some())
    }

    /// A fresh combined model sharing this service's machine and power
    /// model, with the configured equilibrium-cache bound. One model
    /// per *session runner* — `run_tcp` shares it across connections.
    fn model(&self) -> CombinedModel<'_, PowerModel> {
        CombinedModel::new(&self.machine, &self.power)
            .with_equilibrium_cache_capacity(self.opts.cache_capacity)
    }

    fn read_registry(&self) -> RwLockReadGuard<'_, BTreeMap<String, ProcessProfile>> {
        self.registry.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_registry(&self) -> RwLockWriteGuard<'_, BTreeMap<String, ProcessProfile>> {
        self.registry.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Serves one blocking session over arbitrary line-oriented streams
    /// (stdin/stdout in `mpmc serve --stdio`; in-memory buffers in
    /// tests). Returns at end of input, after a `shutdown` request, or
    /// at the first line read after
    /// [`request_shutdown`](PredictionService::request_shutdown).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors on the streams.
    pub fn run_stdio<R: BufRead, W: Write>(&self, input: R, output: W) -> std::io::Result<()> {
        self.session(&self.model(), input, output)
    }

    /// Serves connections from `listener` until a `shutdown` request
    /// arrives (on any connection) or [`request_shutdown`] is called.
    /// Each connection gets its own thread; all of them share one
    /// combined model, so the equilibrium cache is warmed globally.
    /// Connections beyond [`ServeOptions::max_connections`] receive a
    /// typed `too_many_connections` error as a greeting and are closed,
    /// once a slot has stayed taken for one poll interval.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors. Per-connection errors only
    /// terminate that connection.
    ///
    /// [`request_shutdown`]: PredictionService::request_shutdown
    pub fn run_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let model = self.model();
        std::thread::scope(|scope| loop {
            if self.is_shutdown() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if !self.wait_for_connection_slot() {
                        Counters::bump(&self.counters.too_many_connections);
                        Counters::bump(&self.counters.errors);
                        let greeting = format!(
                            "{}\n",
                            self.render_oob(&ServiceError::too_many_connections(format!(
                                "connection cap {} reached; retry later",
                                self.opts.max_connections
                            )))
                        );
                        let mut rejected = stream;
                        let _ = rejected.write_all(greeting.as_bytes());
                        // Dropping the stream closes it; the client got a
                        // well-formed refusal, never a silent hangup.
                        continue;
                    }
                    self.conn_active.fetch_add(1, Ordering::Relaxed);
                    let model = &model;
                    scope.spawn(move || {
                        let _ = self.serve_connection(model, stream);
                        self.conn_active.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL.min(Duration::from_millis(10)));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        })
    }

    /// Whether a session slot is free, re-checking for up to one
    /// [`POLL_INTERVAL`] before giving up at the cap. A client that hangs
    /// up and redials at once races its old session, which counts until
    /// its thread has finished any abandoned request and seen the hangup.
    fn wait_for_connection_slot(&self) -> bool {
        #[allow(clippy::disallowed_methods)]
        // lint:allow(determinism) -- accept-loop back-off: wall time bounds the wait, never an answer
        let started = Instant::now();
        while self.conn_active.load(Ordering::Relaxed) >= self.opts.max_connections {
            if self.is_shutdown() || started.elapsed() >= POLL_INTERVAL {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// One TCP connection: short read timeouts let the session loop poll
    /// the shutdown flag without losing partially received lines (the
    /// capped line reader keeps them across retries). `TCP_NODELAY`
    /// sends each single-write response at once instead of holding it
    /// until the client ACKs the previous one.
    fn serve_connection(
        &self,
        model: &CombinedModel<'_, PowerModel>,
        stream: TcpStream,
    ) -> std::io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        let writer = stream.try_clone()?;
        self.session(model, BufReader::new(stream), writer)
    }

    /// The session loop behind [`run_stdio`](PredictionService::run_stdio)
    /// and every TCP connection: read one capped line, answer it, write
    /// the response with its newline in a single `write_all`. Returns at
    /// end of input, after a `shutdown` request, or once the shutdown
    /// flag is seen between lines. `WouldBlock`/`TimedOut`/`Interrupted`
    /// reads (a TCP read timeout) retry with the partial line kept.
    fn session<R: BufRead, W: Write>(
        &self,
        model: &CombinedModel<'_, PowerModel>,
        mut input: R,
        mut output: W,
    ) -> std::io::Result<()> {
        let mut lines = LineReader::new(self.opts.max_line_bytes);
        loop {
            if self.is_shutdown() {
                return Ok(());
            }
            let outcome = match lines.poll(&mut input) {
                Ok(outcome) => outcome,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            };
            let (mut response, stop) = match outcome {
                ReadOutcome::Eof => return Ok(()),
                ReadOutcome::Line(line) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    self.handle_line(model, trimmed)
                }
                ReadOutcome::TooLong { dropped } => (self.line_guard_response(dropped), false),
                ReadOutcome::BadUtf8 => (
                    self.oob_response(&ServiceError::usage("request line is not valid UTF-8")),
                    false,
                ),
            };
            // One write per response: a separate newline write would sit
            // behind Nagle until the peer's delayed ACK.
            response.push('\n');
            output.write_all(response.as_bytes())?;
            output.flush()?;
            if stop {
                return Ok(());
            }
        }
    }

    /// The error object rendered into failure responses.
    fn error_object(e: &ServiceError) -> Json {
        let mut fields = vec![
            ("kind".into(), Json::str(e.kind())),
            ("code".into(), Json::Num(f64::from(e.code))),
            ("message".into(), Json::str(e.message.clone())),
        ];
        if let Some(ms) = e.retry_after_ms {
            fields.push(("retry_after_ms".into(), Json::Num(ms as f64)));
        }
        Json::Obj(fields)
    }

    /// Renders an out-of-band failure (no parsed request to echo an id
    /// from) without touching counters.
    fn render_oob(&self, e: &ServiceError) -> String {
        Json::Obj(vec![
            ("id".into(), Json::Null),
            ("ok".into(), Json::Bool(false)),
            ("error".into(), Self::error_object(e)),
        ])
        .render()
    }

    /// An out-of-band failure response, counted into the error stats.
    fn oob_response(&self, e: &ServiceError) -> String {
        Counters::bump(&self.counters.errors);
        self.render_oob(e)
    }

    /// The typed response for a discarded oversized line.
    fn line_guard_response(&self, dropped: usize) -> String {
        Counters::bump(&self.counters.line_too_long);
        self.oob_response(&ServiceError::line_too_long(format!(
            "request line exceeded {} bytes ({dropped} bytes discarded); \
             the connection remains usable",
            self.opts.max_line_bytes
        )))
    }

    /// Handles one request line; returns the rendered response and
    /// whether the session should stop (successful `shutdown`).
    fn handle_line(&self, model: &CombinedModel<'_, PowerModel>, line: &str) -> (String, bool) {
        #[allow(clippy::disallowed_methods)]
        // lint:allow(determinism) -- diagnostics-only: wall time feeds the stats latency histogram, never a prediction
        let start = Instant::now();
        Counters::bump(&self.counters.requests);
        let (id, outcome) = match json::parse(line) {
            Err(e) => {
                (Json::Null, Err(ServiceError::usage(format!("malformed request JSON: {e}"))))
            }
            Ok(req) => {
                let id = req.get("id").cloned().unwrap_or(Json::Null);
                match req.get("op").and_then(Json::as_str) {
                    None => (id, Err(ServiceError::usage("missing or non-string 'op' field"))),
                    Some(op) => (id, self.dispatch(model, op, &req)),
                }
            }
        };
        let mut fields: Vec<(String, Json)> = vec![("id".into(), id)];
        let mut stop = false;
        match outcome {
            Ok((extra, requested_stop)) => {
                fields.push(("ok".into(), Json::Bool(true)));
                fields.extend(extra);
                stop = requested_stop;
            }
            Err(e) => {
                Counters::bump(&self.counters.errors);
                match e.code {
                    exit_code::OVERLOADED => Counters::bump(&self.counters.overloaded),
                    exit_code::DEADLINE_EXCEEDED => {
                        Counters::bump(&self.counters.deadline_exceeded);
                    }
                    _ => {}
                }
                fields.push(("ok".into(), Json::Bool(false)));
                fields.push(("error".into(), Self::error_object(&e)));
            }
        }
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latency.record(nanos);
        (Json::Obj(fields).render(), stop)
    }

    /// Routes `op` to its handler. Returns the response's op-specific
    /// fields plus whether the session should stop afterwards.
    #[allow(clippy::type_complexity)]
    fn dispatch(
        &self,
        model: &CombinedModel<'_, PowerModel>,
        op: &str,
        req: &Json,
    ) -> Result<(Vec<(String, Json)>, bool), ServiceError> {
        let tagged = |mut extra: Vec<(String, Json)>| {
            extra.insert(0, ("op".into(), Json::str(op)));
            extra
        };
        match op {
            "ping" => {
                Counters::bump(&self.counters.ping);
                Ok((tagged(Vec::new()), false))
            }
            "register" => {
                Counters::bump(&self.counters.register);
                self.op_register(req).map(|extra| (tagged(extra), false))
            }
            "unregister" => {
                Counters::bump(&self.counters.unregister);
                self.op_unregister(req).map(|extra| (tagged(extra), false))
            }
            "estimate" => {
                Counters::bump(&self.counters.estimate);
                self.op_estimate(model, req).map(|extra| (tagged(extra), false))
            }
            "assign" => {
                Counters::bump(&self.counters.assign);
                self.op_assign(model, req).map(|extra| (tagged(extra), false))
            }
            "optimize" => {
                Counters::bump(&self.counters.optimize);
                self.op_optimize(model, req).map(|extra| (tagged(extra), false))
            }
            "stats" => {
                Counters::bump(&self.counters.stats);
                Ok((tagged(self.op_stats(model)), false))
            }
            "shutdown" => {
                Counters::bump(&self.counters.shutdown);
                self.request_shutdown();
                Ok((tagged(Vec::new()), true))
            }
            other => Err(ServiceError::usage(format!(
                "unknown op '{other}'; expected register, unregister, estimate, assign, \
                 optimize, stats, ping, or shutdown"
            ))),
        }
    }

    fn op_register(&self, req: &Json) -> Result<Vec<(String, Json)>, ServiceError> {
        let name = str_field(req, "name")?;
        let text = str_field(req, "profile")?;
        let profile = persist::read_profile(text.as_bytes()).map_err(ServiceError::from).map_err(
            |mut e| {
                e.message = format!("profile '{name}': {}", e.message);
                e
            },
        )?;
        let fingerprint = profile.feature.content_fingerprint();
        let replaced = self.register_profile(name, profile)?;
        Ok(vec![
            ("name".into(), Json::str(name)),
            ("replaced".into(), Json::Bool(replaced)),
            ("fingerprint".into(), Json::str(format!("{fingerprint:016x}"))),
        ])
    }

    fn op_unregister(&self, req: &Json) -> Result<Vec<(String, Json)>, ServiceError> {
        let name = str_field(req, "name")?;
        if self.write_registry().remove(name).is_none() {
            return Err(ServiceError::data(format!("no registered profile named '{name}'")));
        }
        Ok(vec![("name".into(), Json::str(name))])
    }

    /// The retry hint attached to `overloaded` errors: the median
    /// request latency is the natural "one slot's worth" backoff.
    fn retry_after_ms(&self) -> u64 {
        (self.latency.percentile(0.50) / 1_000_000).max(1)
    }

    /// Passes one solve request through the admission gate.
    fn admit(&self) -> Result<mathkit::sync::Permit<'_>, ServiceError> {
        self.gate.admit().map_err(|reason| {
            let what = match reason {
                crate::admission::ShedReason::QueueFull => {
                    "in-flight budget and admission queue are full"
                }
                crate::admission::ShedReason::Timeout => "admission queue wait timed out",
            };
            ServiceError::overloaded(format!("request shed: {what}"))
                .with_retry_after(self.retry_after_ms())
        })
    }

    /// The request's deadline: explicit `deadline_ms`, else the
    /// configured default, else none. `deadline_ms: 0` expires
    /// instantly (deterministic deadline pressure).
    fn deadline_from(&self, req: &Json) -> Result<Deadline, ServiceError> {
        match req.get("deadline_ms") {
            None => Ok(if self.opts.default_deadline_ms == 0 {
                Deadline::none()
            } else {
                Deadline::after_ms(self.opts.default_deadline_ms)
            }),
            Some(v) => {
                let ms = v.as_usize().ok_or_else(|| {
                    ServiceError::usage("'deadline_ms' must be a non-negative integer")
                })?;
                Ok(Deadline::after_ms(ms as u64))
            }
        }
    }

    /// Injects the chaos plan's solver-latency spike, if one is due.
    fn chaos_spike(&self) {
        if let Some(plan) = &self.chaos {
            let event = self.solve_events.fetch_add(1, Ordering::Relaxed);
            if let Some(delay) = plan.solver_spike(event) {
                std::thread::sleep(delay);
            }
        }
    }

    /// The exact single-flight key for an estimate: the full structural
    /// flattening of the assignment (cores, queue order, and for every
    /// placed process its content fingerprint plus all power-scalar
    /// bits). Two requests get the same key only if their solves are
    /// provably bit-identical — no hashing, so no collisions.
    fn estimate_key(profiles: &[ProcessProfile], asg: &Assignment) -> Vec<u64> {
        let mut key = Vec::with_capacity(1 + asg.num_cores() * 4);
        key.push(asg.num_cores() as u64);
        for core in 0..asg.num_cores() {
            key.push(u64::MAX); // core separator
            for &idx in asg.processes_on(core) {
                let p = &profiles[idx];
                key.push(p.feature.content_fingerprint());
                for scalar in
                    [p.l1rpi, p.l2rpi, p.brpi, p.fppi, p.processor_alone_w, p.idle_processor_w]
                {
                    key.push(scalar.to_bits());
                }
            }
        }
        key
    }

    /// Parses the `assignment` spec of an estimate request.
    fn parse_estimate(
        &self,
        req: &Json,
    ) -> Result<(Vec<ProcessProfile>, Assignment), ServiceError> {
        let spec = req
            .get("assignment")
            .ok_or_else(|| ServiceError::usage("missing 'assignment' field"))?;
        let mut profiles = Vec::new();
        let mut index = BTreeMap::new();
        let asg = {
            let registry = self.read_registry();
            self.build_assignment(spec, "assignment", &registry, &mut index, &mut profiles)?
        };
        Ok((profiles, asg))
    }

    /// Response fields for an estimate, tagging degraded answers.
    fn estimate_fields(
        power: f64,
        processes: usize,
        degraded: Option<DegradedSource>,
    ) -> Vec<(String, Json)> {
        let mut fields = vec![
            ("power_w".into(), Json::Num(power)),
            ("processes".into(), Json::Num(processes as f64)),
        ];
        if let Some(source) = degraded {
            fields.push(("degraded".into(), Json::Bool(true)));
            fields.push(("degraded_source".into(), Json::str(source.name())));
        }
        fields
    }

    fn op_estimate(
        &self,
        model: &CombinedModel<'_, PowerModel>,
        req: &Json,
    ) -> Result<Vec<(String, Json)>, ServiceError> {
        let _permit = self.admit()?;
        let deadline = self.deadline_from(req)?;
        if deadline.expired() {
            return Err(ServiceError::deadline("deadline expired before the solve began"));
        }
        let (profiles, asg) = self.parse_estimate(req)?;
        let processes = asg.num_processes();
        match self.breaker.decide() {
            Decision::Degraded => {
                let est = model.estimate_processor_power_degraded(&profiles, &asg)?;
                Counters::bump(&self.counters.degraded);
                Ok(Self::estimate_fields(est.power_w, processes, Some(est.source)))
            }
            Decision::Exact | Decision::Probe => {
                let key = Self::estimate_key(&profiles, &asg);
                let wait = Duration::from_millis(self.opts.singleflight_wait_ms);
                let flight = self.flights.run(key, wait, || {
                    self.chaos_spike();
                    let fallbacks_before = model.solver_fallbacks();
                    let token = deadline.token();
                    let result = model
                        .estimate_processor_power_cancellable(&profiles, &asg, &token)
                        .map_err(ServiceError::from);
                    let failed = result.is_err() || model.solver_fallbacks() > fallbacks_before;
                    self.breaker.record(failed);
                    result
                });
                match flight {
                    Flight::Led(result) | Flight::Shared(result) => {
                        let power = result?;
                        Ok(Self::estimate_fields(power, processes, None))
                    }
                    Flight::TimedOut => Err(ServiceError::overloaded(
                        "coalesced solve did not finish within the single-flight wait",
                    )
                    .with_retry_after(self.retry_after_ms())),
                }
            }
        }
    }

    fn op_assign(
        &self,
        model: &CombinedModel<'_, PowerModel>,
        req: &Json,
    ) -> Result<Vec<(String, Json)>, ServiceError> {
        let _permit = self.admit()?;
        let deadline = self.deadline_from(req)?;
        if deadline.expired() {
            return Err(ServiceError::deadline("deadline expired before the solve began"));
        }
        let process = str_field(req, "process")?;
        let cores = self.candidate_cores(req)?;
        let mut profiles = Vec::new();
        let mut index = BTreeMap::new();
        let (current, process_idx) = {
            let registry = self.read_registry();
            let current = match req.get("current") {
                Some(spec) => {
                    self.build_assignment(spec, "current", &registry, &mut index, &mut profiles)?
                }
                None => Assignment::new(self.machine.num_cores()),
            };
            let idx = match index.get(process) {
                Some(&i) => i,
                None => {
                    let p = registry.get(process).ok_or_else(|| {
                        ServiceError::data(format!("no registered profile named '{process}'"))
                    })?;
                    profiles.push(p.clone());
                    profiles.len() - 1
                }
            };
            (current, idx)
        };
        let (estimates, degraded) = match self.breaker.decide() {
            Decision::Degraded => {
                let mut estimates = Vec::with_capacity(cores.len());
                let mut worst = DegradedSource::ExactCache;
                for &core in &cores {
                    let trial = current.try_with_assigned(core, process_idx)?;
                    let est = model.estimate_processor_power_degraded(&profiles, &trial)?;
                    if est.source > worst {
                        worst = est.source;
                    }
                    estimates.push(est.power_w);
                }
                Counters::bump(&self.counters.degraded);
                (estimates, Some(worst))
            }
            Decision::Exact | Decision::Probe => {
                self.chaos_spike();
                let fallbacks_before = model.solver_fallbacks();
                let token = deadline.token();
                let result = model.estimate_candidates_cancellable(
                    &profiles,
                    &current,
                    process_idx,
                    &cores,
                    self.opts.workers,
                    &token,
                );
                let failed = result.is_err() || model.solver_fallbacks() > fallbacks_before;
                self.breaker.record(failed);
                (result?, None)
            }
        };
        // Best placement: lowest power, ties to the lowest core id (the
        // candidate list is already validated as strictly increasing).
        let mut best = 0;
        for i in 1..cores.len() {
            if estimates[i] < estimates[best] {
                best = i;
            }
        }
        let candidates: Vec<Json> = cores
            .iter()
            .zip(&estimates)
            .map(|(&core, &power)| {
                Json::Obj(vec![
                    ("core".into(), Json::Num(core as f64)),
                    ("power_w".into(), Json::Num(power)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("process".into(), Json::str(process)),
            ("best_core".into(), Json::Num(cores[best] as f64)),
            ("best_power_w".into(), Json::Num(estimates[best])),
            ("candidates".into(), Json::Arr(candidates)),
        ];
        if let Some(source) = degraded {
            fields.push(("degraded".into(), Json::Bool(true)));
            fields.push(("degraded_source".into(), Json::str(source.name())));
        }
        Ok(fields)
    }

    /// `optimize`: search for the best placement of a set of registered
    /// processes (repeats are separate process instances) under an
    /// objective (`power` default, `makespan`, or `capped:<watts>`).
    /// While the breaker is open the answer comes from the solver-free
    /// greedy min-power tier and is tagged `"degraded": true` with the
    /// worst equilibrium source it needed and `"method":
    /// "greedy_degraded"` — an honest best-effort placement, not the
    /// requested objective's optimum.
    fn op_optimize(
        &self,
        model: &CombinedModel<'_, PowerModel>,
        req: &Json,
    ) -> Result<Vec<(String, Json)>, ServiceError> {
        use mpmc_model::optimize::{self, Objective, OptimizeOptions};

        let _permit = self.admit()?;
        let deadline = self.deadline_from(req)?;
        if deadline.expired() {
            return Err(ServiceError::deadline("deadline expired before the search began"));
        }
        let objective = match req.get("objective") {
            None => Objective::MinPower,
            Some(v) => {
                let spec = v.as_str().ok_or_else(|| {
                    ServiceError::usage(
                        "'objective' must be a string (power, makespan, or capped:<watts>)",
                    )
                })?;
                Objective::from_spec(spec).map_err(ServiceError::usage)?
            }
        };
        let seed = match req.get("seed") {
            None => 0,
            Some(v) => v
                .as_usize()
                .ok_or_else(|| ServiceError::usage("'seed' must be a non-negative integer"))?
                as u64,
        };

        // Resolve the process names against the registry: repeats are
        // separate process instances sharing one profile.
        let items = req
            .get("processes")
            .ok_or_else(|| ServiceError::usage("missing 'processes' field"))?
            .as_arr()
            .ok_or_else(|| ServiceError::usage("'processes' must be an array of profile names"))?;
        if items.is_empty() {
            return Err(ServiceError::usage("'processes' must not be empty"));
        }
        let mut names: Vec<String> = Vec::new();
        let mut profiles: Vec<ProcessProfile> = Vec::new();
        let mut processes: Vec<usize> = Vec::with_capacity(items.len());
        {
            let registry = self.read_registry();
            for item in items {
                let name = item
                    .as_str()
                    .ok_or_else(|| ServiceError::usage("'processes' entries must be strings"))?;
                let idx = match names.iter().position(|n| n == name) {
                    Some(i) => i,
                    None => {
                        let p = registry.get(name).ok_or_else(|| {
                            ServiceError::data(format!("no registered profile named '{name}'"))
                        })?;
                        names.push(name.to_string());
                        profiles.push(p.clone());
                        profiles.len() - 1
                    }
                };
                processes.push(idx);
            }
        }

        let placement_json = |asg: &Assignment| -> Result<Json, ServiceError> {
            let mut cores = Vec::with_capacity(asg.num_cores());
            for core in 0..asg.num_cores() {
                let queue = asg.try_processes_on(core)?;
                cores
                    .push(Json::Arr(queue.iter().map(|&p| Json::str(names[p].as_str())).collect()));
            }
            Ok(Json::Arr(cores))
        };

        match self.breaker.decide() {
            Decision::Degraded => {
                let (asg, est) = optimize::greedy_min_power_degraded(model, &profiles, &processes)?;
                Counters::bump(&self.counters.degraded);
                Ok(vec![
                    ("objective".into(), Json::str(objective.spec())),
                    ("method".into(), Json::str("greedy_degraded")),
                    ("placement".into(), placement_json(&asg)?),
                    ("power_w".into(), Json::Num(est.power_w)),
                    ("degraded".into(), Json::Bool(true)),
                    ("degraded_source".into(), Json::str(est.source.name())),
                ])
            }
            Decision::Exact | Decision::Probe => {
                self.chaos_spike();
                let fallbacks_before = model.solver_fallbacks();
                let token = deadline.token();
                let opts = OptimizeOptions {
                    workers: self.opts.workers,
                    seed,
                    ..OptimizeOptions::default()
                };
                let result =
                    optimize::optimize(model, &profiles, &processes, objective, &opts, &token);
                let failed = result.is_err() || model.solver_fallbacks() > fallbacks_before;
                self.breaker.record(failed);
                let got = result?;
                Ok(vec![
                    ("objective".into(), Json::str(objective.spec())),
                    ("method".into(), Json::str(got.method.name())),
                    ("placement".into(), placement_json(&got.assignment)?),
                    ("power_w".into(), Json::Num(got.power_w)),
                    ("makespan".into(), Json::Num(got.makespan)),
                    ("evaluated".into(), Json::Num(got.evaluated as f64)),
                    ("pruned".into(), Json::Num(got.pruned as f64)),
                ])
            }
        }
    }

    fn op_stats(&self, model: &CombinedModel<'_, PowerModel>) -> Vec<(String, Json)> {
        let c = &self.counters;
        let eq = model.equilibrium_cache_stats();
        let count = |x: &AtomicU64| Json::Num(Counters::get(x) as f64);
        let requests = Json::Obj(vec![
            ("total".into(), count(&c.requests)),
            ("register".into(), count(&c.register)),
            ("unregister".into(), count(&c.unregister)),
            ("estimate".into(), count(&c.estimate)),
            ("assign".into(), count(&c.assign)),
            ("optimize".into(), count(&c.optimize)),
            ("stats".into(), count(&c.stats)),
            ("ping".into(), count(&c.ping)),
            ("shutdown".into(), count(&c.shutdown)),
            ("errors".into(), count(&c.errors)),
            ("overloaded".into(), count(&c.overloaded)),
            ("deadline_exceeded".into(), count(&c.deadline_exceeded)),
            ("degraded".into(), count(&c.degraded)),
            ("line_too_long".into(), count(&c.line_too_long)),
            ("too_many_connections".into(), count(&c.too_many_connections)),
        ]);
        let eq_cache = Json::Obj(vec![
            ("hits".into(), Json::Num(eq.hits as f64)),
            ("misses".into(), Json::Num(eq.misses as f64)),
            ("evictions".into(), Json::Num(eq.evictions as f64)),
            ("entries".into(), Json::Num(eq.entries as f64)),
            ("capacity".into(), Json::Num(eq.capacity as f64)),
            ("die_hits".into(), Json::Num(eq.die_hits as f64)),
            ("die_misses".into(), Json::Num(eq.die_misses as f64)),
            ("die_entries".into(), Json::Num(eq.die_entries as f64)),
        ]);
        let latency = Json::Obj(vec![
            ("count".into(), Json::Num(self.latency.count() as f64)),
            ("p50_ns".into(), Json::Num(self.latency.percentile(0.50) as f64)),
            ("p90_ns".into(), Json::Num(self.latency.percentile(0.90) as f64)),
            ("p99_ns".into(), Json::Num(self.latency.percentile(0.99) as f64)),
        ]);
        let ad = self.gate.stats();
        let admission = Json::Obj(vec![
            ("admitted".into(), Json::Num(ad.admitted as f64)),
            ("shed".into(), Json::Num(ad.shed() as f64)),
            ("shed_queue_full".into(), Json::Num(ad.shed_queue_full as f64)),
            ("shed_timeout".into(), Json::Num(ad.shed_timeout as f64)),
            ("in_flight".into(), Json::Num(ad.in_flight as f64)),
            ("queued".into(), Json::Num(ad.queued as f64)),
            ("max_inflight".into(), Json::Num(ad.max_inflight as f64)),
        ]);
        let br = self.breaker.stats();
        let breaker = Json::Obj(vec![
            ("mode".into(), Json::str(self.breaker.mode().name())),
            ("trips".into(), Json::Num(br.trips as f64)),
            ("probes".into(), Json::Num(br.probes as f64)),
            ("degraded_decides".into(), Json::Num(br.degraded_decides as f64)),
        ]);
        let sf = self.flights.stats();
        let singleflight = Json::Obj(vec![
            ("leaders".into(), Json::Num(sf.leaders as f64)),
            ("shared".into(), Json::Num(sf.shared as f64)),
            ("timeouts".into(), Json::Num(sf.timeouts as f64)),
        ]);
        let connections = Json::Obj(vec![
            ("active".into(), Json::Num(self.conn_active.load(Ordering::Relaxed) as f64)),
            ("max".into(), Json::Num(self.opts.max_connections as f64)),
            ("rejected".into(), count(&c.too_many_connections)),
        ]);
        vec![
            ("requests".into(), requests),
            ("profiles".into(), Json::Num(self.num_profiles() as f64)),
            ("eq_cache".into(), eq_cache),
            ("solver_fallbacks".into(), Json::Num(model.solver_fallbacks() as f64)),
            ("latency".into(), latency),
            ("workers".into(), Json::Num(self.opts.workers as f64)),
            ("admission".into(), admission),
            ("breaker".into(), breaker),
            ("singleflight".into(), singleflight),
            ("connections".into(), connections),
        ]
    }

    /// Parses a `[[name, ...], ...]` per-core assignment spec against
    /// the registry, reusing `index`/`profiles` so several specs in one
    /// request share profile indices.
    fn build_assignment(
        &self,
        spec: &Json,
        field: &str,
        registry: &BTreeMap<String, ProcessProfile>,
        index: &mut BTreeMap<String, usize>,
        profiles: &mut Vec<ProcessProfile>,
    ) -> Result<Assignment, ServiceError> {
        let cores = spec.as_arr().ok_or_else(|| {
            ServiceError::usage(format!("'{field}' must be an array of per-core name arrays"))
        })?;
        let num_cores = self.machine.num_cores();
        if cores.len() > num_cores {
            return Err(ServiceError::usage(format!(
                "'{field}' names {} cores but the machine has {num_cores}",
                cores.len()
            )));
        }
        let mut asg = Assignment::new(num_cores);
        for (core, queue) in cores.iter().enumerate() {
            let queue = queue.as_arr().ok_or_else(|| {
                ServiceError::usage(format!("'{field}' core {core} must be an array of names"))
            })?;
            for name in queue {
                let name = name.as_str().ok_or_else(|| {
                    ServiceError::usage(format!("'{field}' core {core}: names must be strings"))
                })?;
                let idx = match index.get(name) {
                    Some(&i) => i,
                    None => {
                        let p = registry.get(name).ok_or_else(|| {
                            ServiceError::data(format!("no registered profile named '{name}'"))
                        })?;
                        profiles.push(p.clone());
                        index.insert(name.to_string(), profiles.len() - 1);
                        profiles.len() - 1
                    }
                };
                asg.try_assign(core, idx)?;
            }
        }
        Ok(asg)
    }

    /// The candidate core list for `assign`: the optional `cores` field,
    /// validated as strictly increasing and in range; all cores when
    /// absent.
    fn candidate_cores(&self, req: &Json) -> Result<Vec<usize>, ServiceError> {
        let num_cores = self.machine.num_cores();
        let Some(spec) = req.get("cores") else {
            return Ok((0..num_cores).collect());
        };
        let items = spec
            .as_arr()
            .ok_or_else(|| ServiceError::usage("'cores' must be an array of core indices"))?;
        if items.is_empty() {
            return Err(ServiceError::usage("'cores' must not be empty"));
        }
        let mut cores = Vec::with_capacity(items.len());
        for item in items {
            let core = item.as_usize().ok_or_else(|| {
                ServiceError::usage("'cores' entries must be non-negative integers")
            })?;
            if core >= num_cores {
                return Err(ServiceError::usage(format!(
                    "core {core} out of range for {num_cores} cores"
                )));
            }
            if cores.last().is_some_and(|&prev| prev >= core) {
                return Err(ServiceError::usage(
                    "'cores' must be strictly increasing (no duplicates)",
                ));
            }
            cores.push(core);
        }
        Ok(cores)
    }
}

fn str_field<'a>(req: &'a Json, field: &str) -> Result<&'a str, ServiceError> {
    req.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::usage(format!("missing or non-string '{field}' field")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::exit_code;
    use mpmc_model::feature::FeatureVector;
    use mpmc_model::histogram::ReuseHistogram;
    use mpmc_model::spi::SpiModel;

    fn machine() -> MachineConfig {
        MachineConfig::two_core_workstation()
    }

    /// A hand-built profile so tests do not need simulation runs.
    fn synthetic_profile(name: &str, tail: f64, api: f64, m: &MachineConfig) -> ProcessProfile {
        let head = 1.0 - tail;
        let hist =
            ReuseHistogram::new(vec![head * 0.5, head * 0.3, head * 0.15, head * 0.05], tail)
                .unwrap();
        let alpha = api * (m.mem_cycles - m.l2_hit_cycles) as f64 / m.freq_hz;
        let beta = (m.cpi_base + api * m.l2_hit_cycles as f64) / m.freq_hz;
        let feature =
            FeatureVector::new(name, hist, api, SpiModel::new(alpha, beta).unwrap(), m.l2_assoc())
                .unwrap();
        ProcessProfile {
            feature,
            l1rpi: 0.35,
            l2rpi: api,
            brpi: 0.2,
            fppi: 0.1,
            processor_alone_w: 60.0,
            idle_processor_w: 44.0,
        }
    }

    fn power_model() -> PowerModel {
        PowerModel::from_parts(10.0, vec![2e-7, 1e-6, 3e-6, 1e-7, 1e-7]).unwrap()
    }

    fn profile_text(p: &ProcessProfile) -> String {
        let mut buf = Vec::new();
        persist::write_profile(p, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn service() -> PredictionService {
        PredictionService::new(machine(), power_model(), 1, 64)
    }

    fn ask(svc: &PredictionService, model: &CombinedModel<'_, PowerModel>, req: &str) -> Json {
        let (response, _) = svc.handle_line(model, req);
        json::parse(&response).unwrap()
    }

    fn register_req(id: u32, name: &str, text: &str) -> String {
        Json::Obj(vec![
            ("id".into(), Json::Num(f64::from(id))),
            ("op".into(), Json::str("register")),
            ("name".into(), Json::str(name)),
            ("profile".into(), Json::str(text)),
        ])
        .render()
    }

    /// Registers the standard two test profiles and returns the model.
    fn service_with_ab() -> (PredictionService, ProcessProfile, ProcessProfile) {
        let svc = service();
        let m = machine();
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        svc.register_profile("a", a.clone()).unwrap();
        svc.register_profile("b", b.clone()).unwrap();
        (svc, a, b)
    }

    #[test]
    fn register_estimate_assign_flow() {
        let svc = service();
        let model = svc.model();
        let m = machine();
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);

        let resp = ask(&svc, &model, &register_req(1, "a", &profile_text(&a)));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("id").and_then(Json::as_f64), Some(1.0));
        assert_eq!(resp.get("replaced"), Some(&Json::Bool(false)));
        let resp = ask(&svc, &model, &register_req(2, "b", &profile_text(&b)));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(svc.num_profiles(), 2);

        // Estimate a concrete two-core placement.
        let resp = ask(&svc, &model, r#"{"id":3,"op":"estimate","assignment":[["a"],["b"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let power = resp.get("power_w").and_then(Json::as_f64).unwrap();
        assert!(power.is_finite() && power > 0.0);
        assert_eq!(resp.get("degraded"), None, "healthy answers are not tagged");

        // Assign must agree bit-for-bit with a direct CombinedModel call.
        let resp = ask(&svc, &model, r#"{"id":4,"op":"assign","process":"b","current":[["a"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let best_core = resp.get("best_core").and_then(Json::as_usize).unwrap();
        let best_power = resp.get("best_power_w").and_then(Json::as_f64).unwrap();
        let reference = CombinedModel::new(&m, &svc.power);
        let mut current = Assignment::new(2);
        current.assign(0, 0);
        let profiles = vec![a.clone(), b.clone()];
        let expect: Vec<f64> = (0..2)
            .map(|core| reference.estimate_after_assigning(&profiles, &current, 1, core).unwrap())
            .collect();
        let expect_best = if expect[1] < expect[0] { 1 } else { 0 };
        assert_eq!(best_core, expect_best);
        assert_eq!(best_power.to_bits(), expect[expect_best].to_bits());
        let candidates = resp.get("candidates").and_then(Json::as_arr).unwrap();
        assert_eq!(candidates.len(), 2);
        for (core, cand) in candidates.iter().enumerate() {
            let got = cand.get("power_w").and_then(Json::as_f64).unwrap();
            assert_eq!(got.to_bits(), expect[core].to_bits(), "core {core}");
        }

        // Stats reflect the traffic.
        let resp = ask(&svc, &model, r#"{"id":5,"op":"stats"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let requests = resp.get("requests").unwrap();
        assert_eq!(requests.get("register").and_then(Json::as_f64), Some(2.0));
        assert_eq!(requests.get("assign").and_then(Json::as_f64), Some(1.0));
        assert_eq!(requests.get("errors").and_then(Json::as_f64), Some(0.0));
        assert_eq!(resp.get("profiles").and_then(Json::as_usize), Some(2));
        let eq = resp.get("eq_cache").unwrap();
        assert!(eq.get("misses").and_then(Json::as_f64).unwrap() >= 1.0);
        // The eq_cache object carries no warm-start counters.
        for key in ["warm_attempts", "warm_hits", "warm_fallbacks"] {
            assert!(eq.get(key).is_none(), "{key} in {eq:?}");
        }
        // The die memo has its own counters: the assign walked each die once.
        let die_misses = eq.get("die_misses").and_then(Json::as_f64).unwrap();
        let die_entries = eq.get("die_entries").and_then(Json::as_f64).unwrap();
        assert!(die_misses >= 1.0 && die_entries >= 1.0, "{eq:?}");
        assert!(eq.get("die_hits").and_then(Json::as_f64).is_some(), "{eq:?}");
        // The stats request itself is timed after its snapshot is built,
        // so the count covers the four preceding requests.
        let latency = resp.get("latency").unwrap();
        assert!(latency.get("count").and_then(Json::as_f64).unwrap() >= 4.0);
        assert!(latency.get("p50_ns").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn error_responses_carry_the_taxonomy() {
        let svc = service();
        let model = svc.model();
        // Malformed JSON -> usage, id null.
        let resp = ask(&svc, &model, "{not json");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("id"), Some(&Json::Null));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_f64), Some(f64::from(exit_code::USAGE)));
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("usage"));
        // Unknown op -> usage, id echoed.
        let resp = ask(&svc, &model, r#"{"id":"x","op":"frobnicate"}"#);
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("x"));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_f64), Some(f64::from(exit_code::USAGE)));
        // Unknown profile -> invalid data.
        let resp = ask(&svc, &model, r#"{"id":1,"op":"assign","process":"ghost"}"#);
        let err = resp.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(Json::as_f64),
            Some(f64::from(exit_code::INVALID_DATA))
        );
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("invalid_data"));
        // Bad profile text -> invalid data.
        let resp = ask(&svc, &model, &register_req(2, "bad", "mpmc-profile v9\n"));
        let err = resp.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(Json::as_f64),
            Some(f64::from(exit_code::INVALID_DATA))
        );
        // Too many cores in an assignment -> usage.
        let resp = ask(&svc, &model, r#"{"id":3,"op":"estimate","assignment":[[],[],[]]}"#);
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_f64), Some(f64::from(exit_code::USAGE)));
        // Bad candidate lists -> usage.
        for cores in ["[]", "[0,0]", "[1,0]", "[9]", "[0.5]"] {
            let req = format!(r#"{{"id":4,"op":"assign","process":"ghost","cores":{cores}}}"#);
            let resp = ask(&svc, &model, &req);
            let err = resp.get("error").unwrap();
            assert_eq!(
                err.get("code").and_then(Json::as_f64),
                Some(f64::from(exit_code::USAGE)),
                "cores={cores}"
            );
        }
        // Errors were counted.
        let resp = ask(&svc, &model, r#"{"op":"stats"}"#);
        assert_eq!(resp.get("requests").unwrap().get("errors").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn register_rejects_mismatched_associativity() {
        let svc = service();
        let other = MachineConfig::four_core_server();
        assert_ne!(other.l2_assoc(), machine().l2_assoc());
        let p = synthetic_profile("wrong", 0.3, 0.02, &other);
        let err = svc.register_profile("wrong", p).unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_DATA);
        assert!(svc.register_profile("", synthetic_profile("x", 0.3, 0.02, &machine())).is_err());
    }

    #[test]
    fn unregister_and_replace() {
        let svc = service();
        let model = svc.model();
        let m = machine();
        let text = profile_text(&synthetic_profile("a", 0.4, 0.03, &m));
        assert_eq!(
            ask(&svc, &model, &register_req(1, "a", &text)).get("replaced"),
            Some(&Json::Bool(false))
        );
        assert_eq!(
            ask(&svc, &model, &register_req(2, "a", &text)).get("replaced"),
            Some(&Json::Bool(true))
        );
        let resp = ask(&svc, &model, r#"{"id":3,"op":"unregister","name":"a"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(svc.num_profiles(), 0);
        let resp = ask(&svc, &model, r#"{"id":4,"op":"unregister","name":"a"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn stdio_session_runs_to_shutdown() {
        let svc = service();
        let m = machine();
        let text = profile_text(&synthetic_profile("a", 0.4, 0.03, &m));
        let mut script = String::new();
        script.push_str(&register_req(1, "a", &text));
        script.push('\n');
        script.push('\n'); // blank lines are skipped
        script.push_str(r#"{"id":2,"op":"ping"}"#);
        script.push('\n');
        script.push_str(r#"{"id":3,"op":"shutdown"}"#);
        script.push('\n');
        script.push_str(r#"{"id":4,"op":"ping"}"#); // after shutdown: not served
        script.push('\n');
        let mut out = Vec::new();
        svc.run_stdio(script.as_bytes(), &mut out).unwrap();
        let lines: Vec<Json> =
            String::from_utf8(out).unwrap().lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3, "shutdown ends the session");
        assert!(lines.iter().all(|r| r.get("ok") == Some(&Json::Bool(true))));
        assert_eq!(lines[2].get("op").and_then(Json::as_str), Some("shutdown"));
        assert!(svc.is_shutdown());
    }

    /// A sink that counts `write` calls; `write_all` of a buffer it
    /// accepts whole is exactly one.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn session_writes_each_response_once() {
        let m = machine();
        let svc = PredictionService::with_options(
            m.clone(),
            power_model(),
            ServeOptions {
                workers: 1,
                cache_capacity: 64,
                max_line_bytes: 256,
                ..Default::default()
            },
        );
        for (name, tail) in [("a", 0.4), ("b", 0.1)] {
            svc.register_profile(name, synthetic_profile(name, tail, 0.03, &m)).unwrap();
        }
        let mut script = Vec::new();
        for line in [
            r#"{"id":1,"op":"ping"}"#,
            r#"{"id":2,"op":"estimate","assignment":[["a"],["b"]]}"#,
            r#"{"id":3,"op":"assign","process":"b","current":[["a"]]}"#,
            r#"{"id":4,"op":"frobnicate"}"#,
        ] {
            script.extend_from_slice(line.as_bytes());
            script.push(b'\n');
        }
        script.extend_from_slice(format!("{{\"pad\":\"{}\"}}\n", "x".repeat(400)).as_bytes());
        script.extend_from_slice(b"{\"op\":\"ping\",\"x\":\"\xff\xfe\"}\n");
        script.extend_from_slice(b"{\"id\":7,\"op\":\"shutdown\"}\n");
        let mut out = CountingWriter::default();
        svc.run_stdio(&script[..], &mut out).unwrap();
        let text = String::from_utf8(out.bytes).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 7, "{text}");
        assert_eq!(out.writes, lines.len(), "one write per response, newline included");
        let kinds: Vec<Option<&str>> = lines
            .iter()
            .map(|r| r.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str))
            .collect();
        assert_eq!(kinds[..4], [None, None, None, Some("usage")], "{text}");
        assert_eq!(kinds[4], Some("line_too_long"));
        assert_eq!(kinds[5], Some("usage"), "bad UTF-8 is a typed usage error");
        assert!(text.ends_with('\n'));

        // Once shutdown is requested, a new session serves nothing.
        let mut after = CountingWriter::default();
        svc.run_stdio(&b"{\"op\":\"ping\"}\n"[..], &mut after).unwrap();
        assert_eq!(after.writes, 0);
    }

    #[test]
    fn estimate_with_duplicate_name_shares_one_profile() {
        let svc = service();
        let model = svc.model();
        let m = machine();
        let text = profile_text(&synthetic_profile("a", 0.4, 0.03, &m));
        ask(&svc, &model, &register_req(1, "a", &text));
        // The same process time-shared against itself on one core.
        let resp = ask(&svc, &model, r#"{"id":2,"op":"estimate","assignment":[["a","a"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("processes").and_then(Json::as_usize), Some(2));
    }

    #[test]
    fn optimize_op_places_processes_and_validates_requests() {
        let (svc, _a, _b) = service_with_ab();
        let model = svc.model();
        // Repeats are separate process instances sharing one profile.
        let resp = ask(
            &svc,
            &model,
            r#"{"id":1,"op":"optimize","processes":["a","b","a"],"objective":"power"}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("method").and_then(Json::as_str), Some("exact"));
        assert_eq!(resp.get("objective").and_then(Json::as_str), Some("power"));
        let placement = resp.get("placement").and_then(Json::as_arr).unwrap();
        assert_eq!(placement.len(), 2, "one queue per workstation core");
        let placed: usize = placement.iter().map(|q| q.as_arr().map_or(0, <[Json]>::len)).sum();
        assert_eq!(placed, 3, "all three processes placed: {resp:?}");
        assert!(resp.get("power_w").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(resp.get("makespan").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(resp.get("degraded"), None, "healthy answers are not tagged");

        // The makespan objective works over the same wire shape.
        let resp = ask(
            &svc,
            &model,
            r#"{"id":2,"op":"optimize","processes":["a","b"],"objective":"makespan"}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");

        // Usage errors: missing/empty/malformed fields.
        for (req, why) in [
            (r#"{"op":"optimize"}"#, "missing processes"),
            (r#"{"op":"optimize","processes":[]}"#, "empty processes"),
            (r#"{"op":"optimize","processes":[1]}"#, "non-string name"),
            (r#"{"op":"optimize","processes":["a"],"objective":"speed"}"#, "bad objective"),
            (r#"{"op":"optimize","processes":["a"],"objective":7}"#, "non-string objective"),
            (r#"{"op":"optimize","processes":["a"],"seed":-1}"#, "bad seed"),
        ] {
            let resp = ask(&svc, &model, req);
            let err = resp.get("error").unwrap();
            assert_eq!(
                err.get("code").and_then(Json::as_f64),
                Some(f64::from(exit_code::USAGE)),
                "{why}: {resp:?}"
            );
        }
        // An unregistered name is bad data, not usage.
        let resp = ask(&svc, &model, r#"{"op":"optimize","processes":["ghost"]}"#);
        assert_eq!(
            resp.get("error").unwrap().get("code").and_then(Json::as_f64),
            Some(f64::from(exit_code::INVALID_DATA))
        );
        // An impossible cap is a solver-domain failure with a diagnostic.
        let resp = ask(
            &svc,
            &model,
            r#"{"op":"optimize","processes":["a","b"],"objective":"capped:0.5"}"#,
        );
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_f64), Some(f64::from(exit_code::SOLVER)));
        assert!(
            err.get("message").and_then(Json::as_str).unwrap().contains("infeasible"),
            "{resp:?}"
        );
        // A pre-expired deadline never reaches the search.
        let resp = ask(&svc, &model, r#"{"op":"optimize","processes":["a","b"],"deadline_ms":0}"#);
        assert_eq!(
            resp.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        // The op has its own counter.
        let stats = ask(&svc, &model, r#"{"op":"stats"}"#);
        assert_eq!(
            stats.get("requests").unwrap().get("optimize").and_then(Json::as_f64),
            Some(11.0)
        );
    }

    #[test]
    fn optimize_degraded_tier_is_tagged_honestly() {
        let (svc, _a, _b) = service_with_ab();
        let model = svc.model();
        for _ in 0..8 {
            svc.breaker.record(true); // trip the default breaker
        }
        let resp = ask(&svc, &model, r#"{"id":1,"op":"optimize","processes":["a","b"]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("degraded"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("method").and_then(Json::as_str), Some("greedy_degraded"));
        let source = resp.get("degraded_source").and_then(Json::as_str).unwrap();
        assert!(["exact_cache", "proportional_split"].contains(&source), "{source}");
        let placement = resp.get("placement").and_then(Json::as_arr).unwrap();
        let placed: usize = placement.iter().map(|q| q.as_arr().map_or(0, <[Json]>::len)).sum();
        assert_eq!(placed, 2, "the degraded tier still places everything");
        assert!(resp.get("power_w").and_then(Json::as_f64).unwrap().is_finite());
    }

    // ---- overload hardening ----

    #[test]
    fn line_reader_reads_lines_crlf_and_eof_partial() {
        let mut r = LineReader::new(64);
        let mut input: &[u8] = b"one\r\ntwo\nlast-no-newline";
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Line("one".into()));
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Line("two".into()));
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Line("last-no-newline".into()));
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Eof);
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Eof);
    }

    #[test]
    fn line_reader_caps_oversized_lines_and_resyncs() {
        let mut r = LineReader::new(8);
        let mut input: &[u8] = b"0123456789abcdef\nshort\n";
        match r.poll(&mut input).unwrap() {
            ReadOutcome::TooLong { dropped } => assert_eq!(dropped, 16),
            other => panic!("expected TooLong, got {other:?}"),
        }
        // The stream is back in sync: the next line parses normally.
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Line("short".into()));
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Eof);
    }

    #[test]
    fn line_reader_caps_unterminated_flood_at_eof() {
        let mut r = LineReader::new(4);
        let mut input: &[u8] = b"too-long-and-never-terminated";
        match r.poll(&mut input).unwrap() {
            ReadOutcome::TooLong { dropped } => assert_eq!(dropped, 29),
            other => panic!("expected TooLong, got {other:?}"),
        }
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Eof);
    }

    #[test]
    fn line_reader_flags_bad_utf8_and_survives() {
        let mut r = LineReader::new(64);
        let mut input: &[u8] = b"\xff\xfe broken\nok\n";
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::BadUtf8);
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Line("ok".into()));
    }

    #[test]
    fn line_reader_keeps_state_across_wouldblock() {
        /// Yields its chunks one per `fill_buf`, with a `WouldBlock`
        /// error between them — a stand-in for a slow-loris client on a
        /// read-timeout socket.
        struct Chunky {
            chunks: Vec<Vec<u8>>,
            at: usize,
            consumed: usize,
            block_next: bool,
        }
        impl std::io::Read for Chunky {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                unreachable!("BufRead only")
            }
        }
        impl BufRead for Chunky {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                if self.block_next {
                    self.block_next = false;
                    return Err(std::io::Error::from(ErrorKind::WouldBlock));
                }
                if self.at >= self.chunks.len() {
                    return Ok(&[]);
                }
                Ok(&self.chunks[self.at][self.consumed..])
            }
            fn consume(&mut self, amt: usize) {
                self.consumed += amt;
                if self.consumed >= self.chunks[self.at].len() {
                    self.at += 1;
                    self.consumed = 0;
                    self.block_next = true;
                }
            }
        }
        let mut input = Chunky {
            chunks: vec![b"{\"op\":".to_vec(), b"\"ping\"}\n".to_vec()],
            at: 0,
            consumed: 0,
            block_next: false,
        };
        let mut r = LineReader::new(64);
        // First poll consumes the first chunk, then hits WouldBlock.
        let err = r.poll(&mut input).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        // Retrying completes the line from preserved state.
        assert_eq!(r.poll(&mut input).unwrap(), ReadOutcome::Line("{\"op\":\"ping\"}".into()));
    }

    #[test]
    fn oversized_line_gets_typed_error_and_session_survives() {
        let m = machine();
        let svc = PredictionService::with_options(
            m.clone(),
            power_model(),
            ServeOptions {
                workers: 1,
                cache_capacity: 64,
                max_line_bytes: 64,
                ..ServeOptions::default()
            },
        );
        let mut script = String::new();
        script.push_str(&format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(200)));
        script.push_str(r#"{"id":2,"op":"ping"}"#);
        script.push('\n');
        let mut out = Vec::new();
        svc.run_stdio(script.as_bytes(), &mut out).unwrap();
        let lines: Vec<Json> =
            String::from_utf8(out).unwrap().lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        let err = lines[0].get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("line_too_long"));
        assert_eq!(
            err.get("code").and_then(Json::as_f64),
            Some(f64::from(exit_code::LINE_TOO_LONG))
        );
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(true)), "session survived");
        // The guard counters registered it.
        let model = svc.model();
        let stats = ask(&svc, &model, r#"{"op":"stats"}"#);
        let req = stats.get("requests").unwrap();
        assert_eq!(req.get("line_too_long").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn shed_when_budget_and_queue_are_full() {
        let m = machine();
        let svc = PredictionService::with_options(
            m,
            power_model(),
            ServeOptions {
                workers: 1,
                cache_capacity: 64,
                max_inflight: 1,
                max_queued: 0,
                queue_wait_ms: 0,
                ..ServeOptions::default()
            },
        );
        let a = synthetic_profile("a", 0.4, 0.03, svc.machine());
        svc.register_profile("a", a).unwrap();
        let model = svc.model();
        // Hold the only permit, simulating an in-flight solve.
        let held = svc.gate.admit().unwrap();
        let resp = ask(&svc, &model, r#"{"id":1,"op":"estimate","assignment":[["a"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(err.get("code").and_then(Json::as_f64), Some(f64::from(exit_code::OVERLOADED)));
        assert!(
            err.get("retry_after_ms").and_then(Json::as_f64).unwrap() >= 1.0,
            "shed responses carry a backoff hint"
        );
        // Cheap ops bypass admission and still work while saturated.
        let resp = ask(&svc, &model, r#"{"id":2,"op":"ping"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        drop(held);
        // With the permit free the same request succeeds.
        let resp = ask(&svc, &model, r#"{"id":3,"op":"estimate","assignment":[["a"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let stats = ask(&svc, &model, r#"{"op":"stats"}"#);
        let ad = stats.get("admission").unwrap();
        assert!(ad.get("shed").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            stats.get("requests").unwrap().get("overloaded").and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn deadline_zero_is_typed_deadline_exceeded() {
        let (svc, _a, _b) = service_with_ab();
        let model = svc.model();
        let resp = ask(
            &svc,
            &model,
            r#"{"id":1,"op":"estimate","assignment":[["a"],["b"]],"deadline_ms":0}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("deadline_exceeded"));
        assert_eq!(
            err.get("code").and_then(Json::as_f64),
            Some(f64::from(exit_code::DEADLINE_EXCEEDED))
        );
        // Same for assign.
        let resp = ask(&svc, &model, r#"{"id":2,"op":"assign","process":"b","deadline_ms":0}"#);
        assert_eq!(
            resp.get("error").unwrap().get("kind").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        // Bad deadline values are usage errors.
        let resp =
            ask(&svc, &model, r#"{"id":3,"op":"estimate","assignment":[["a"]],"deadline_ms":-5}"#);
        assert_eq!(resp.get("error").unwrap().get("kind").and_then(Json::as_str), Some("usage"));
        let stats = ask(&svc, &model, r#"{"op":"stats"}"#);
        assert_eq!(
            stats.get("requests").unwrap().get("deadline_exceeded").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn breaker_trip_degrades_then_probe_recovers() {
        let m = machine();
        let svc = PredictionService::with_options(
            m,
            power_model(),
            ServeOptions {
                workers: 1,
                cache_capacity: 64,
                breaker_window: 4,
                breaker_threshold: 2,
                breaker_cooldown: 2,
                ..ServeOptions::default()
            },
        );
        let a = synthetic_profile("a", 0.4, 0.03, svc.machine());
        let b = synthetic_profile("b", 0.1, 0.01, svc.machine());
        svc.register_profile("a", a).unwrap();
        svc.register_profile("b", b).unwrap();
        let model = svc.model();
        let est = r#"{"op":"estimate","assignment":[["a"],["b"]]}"#;

        // Warm the healthy answer (and the equilibrium cache).
        let healthy = ask(&svc, &model, est);
        let healthy_bits = healthy.get("power_w").and_then(Json::as_f64).unwrap().to_bits();

        // Trip the breaker as if two exact solves had failed.
        svc.breaker.record(true);
        svc.breaker.record(true);
        assert_eq!(svc.breaker.mode(), crate::breaker::Mode::Open);

        // Cooldown: degraded answers, explicitly tagged, bit-exact here
        // because the exact cache still holds the co-run.
        for _ in 0..2 {
            let resp = ask(&svc, &model, est);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
            assert_eq!(resp.get("degraded"), Some(&Json::Bool(true)));
            assert_eq!(resp.get("degraded_source").and_then(Json::as_str), Some("exact_cache"));
            let bits = resp.get("power_w").and_then(Json::as_f64).unwrap().to_bits();
            assert_eq!(bits, healthy_bits, "cache-tier degraded answer is bit-exact");
        }
        assert_eq!(svc.breaker.mode(), crate::breaker::Mode::HalfOpen);

        // The next request is the recovery probe; the solver is healthy,
        // so it closes the breaker and the answer is untagged.
        let resp = ask(&svc, &model, est);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("degraded"), None);
        assert_eq!(svc.breaker.mode(), crate::breaker::Mode::Closed);

        let stats = ask(&svc, &model, r#"{"op":"stats"}"#);
        let br = stats.get("breaker").unwrap();
        assert_eq!(br.get("mode").and_then(Json::as_str), Some("closed"));
        assert!(br.get("trips").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(br.get("probes").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            stats.get("requests").unwrap().get("degraded").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn degraded_assign_is_tagged_and_ranks_candidates() {
        let (svc, _a, _b) = service_with_ab();
        let model = svc.model();
        // Trip the default breaker (threshold 8).
        for _ in 0..8 {
            svc.breaker.record(true);
        }
        let resp = ask(&svc, &model, r#"{"id":1,"op":"assign","process":"b","current":[["a"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("degraded"), Some(&Json::Bool(true)));
        let source = resp.get("degraded_source").and_then(Json::as_str).unwrap();
        assert!(["exact_cache", "proportional_split"].contains(&source), "{source}");
        let candidates = resp.get("candidates").and_then(Json::as_arr).unwrap();
        assert_eq!(candidates.len(), 2);
        for cand in candidates {
            assert!(cand.get("power_w").and_then(Json::as_f64).unwrap().is_finite());
        }
    }

    #[test]
    fn single_flight_coalesced_answers_are_bit_exact() {
        let (svc, _a, _b) = service_with_ab();
        let model = svc.model();
        let est = r#"{"id":1,"op":"estimate","assignment":[["a"],["b"]]}"#;
        let sequential = ask(&svc, &model, est);
        let expect_bits = sequential.get("power_w").and_then(Json::as_f64).unwrap().to_bits();
        // Fan the identical request out over several threads; every
        // answer (led or shared) must carry the same bits.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let (svc, model) = (&svc, &model);
                    scope.spawn(move || ask(svc, model, est))
                })
                .collect();
            for h in handles {
                let resp = h.join().unwrap();
                assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
                let bits = resp.get("power_w").and_then(Json::as_f64).unwrap().to_bits();
                assert_eq!(bits, expect_bits);
            }
        });
        let st = svc.flights.stats();
        assert!(st.leaders >= 1);
        assert_eq!(st.timeouts, 0);
    }

    #[test]
    fn chaos_spikes_do_not_change_answers() {
        let (svc, _a, _b) = service_with_ab();
        let reference = ask(&svc, &svc.model(), r#"{"op":"estimate","assignment":[["a"],["b"]]}"#);
        let expect_bits = reference.get("power_w").and_then(Json::as_f64).unwrap().to_bits();

        let mut plan = FaultPlan::quiet(1);
        plan.spike_one_in = 1; // every solve spikes...
        plan.spike_ms = 1; // ...briefly
        let (chaotic, _a2, _b2) = service_with_ab();
        let chaotic = chaotic.with_chaos(plan);
        let model = chaotic.model();
        let resp = ask(&chaotic, &model, r#"{"op":"estimate","assignment":[["a"],["b"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let bits = resp.get("power_w").and_then(Json::as_f64).unwrap().to_bits();
        assert_eq!(bits, expect_bits, "latency faults must never change the numbers");
    }

    #[test]
    fn stats_expose_overload_sections() {
        let svc = service();
        let model = svc.model();
        let stats = ask(&svc, &model, r#"{"op":"stats"}"#);
        for section in ["admission", "breaker", "singleflight", "connections"] {
            assert!(stats.get(section).is_some(), "missing stats section '{section}'");
        }
        let ad = stats.get("admission").unwrap();
        assert_eq!(ad.get("max_inflight").and_then(Json::as_f64), Some(4.0));
        let br = stats.get("breaker").unwrap();
        assert_eq!(br.get("mode").and_then(Json::as_str), Some("closed"));
        let conn = stats.get("connections").unwrap();
        assert_eq!(conn.get("active").and_then(Json::as_f64), Some(0.0));
        assert_eq!(conn.get("max").and_then(Json::as_f64), Some(64.0));
    }
}
